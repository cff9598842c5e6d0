//! Shortest-path routing.
//!
//! The paper's simulator "performs IP-layer and overlay-layer data routing
//! using shortest path routing". This module provides a binary-heap Dijkstra
//! over link delay, path extraction with bottleneck-capacity tracking, and a
//! cached per-source oracle so the overlay builder can run one SSSP per peer
//! instead of an all-pairs pass over the 10,000-node IP graph.

use crate::graph::{Graph, NodeIndex};
use std::cmp::Ordering;
use spidernet_util::hash::FxHashMap;
use std::collections::hash_map::Entry;
use std::collections::BinaryHeap;

/// Result of a single-source Dijkstra run.
#[derive(Clone, Debug)]
pub struct PathResult {
    source: NodeIndex,
    dist: Vec<f64>,
    prev: Vec<Option<NodeIndex>>,
}

impl PathResult {
    /// The source node of the run.
    pub fn source(&self) -> NodeIndex {
        self.source
    }

    /// Shortest-path delay (ms) from the source to `v`; infinite if
    /// unreachable.
    pub fn delay_to(&self, v: NodeIndex) -> f64 {
        self.dist[v]
    }

    /// Returns the node sequence of the shortest path `source → v`, or
    /// `None` if `v` is unreachable.
    pub fn path_to(&self, v: NodeIndex) -> Option<Vec<NodeIndex>> {
        if self.dist[v].is_infinite() {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while let Some(p) = self.prev[cur] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        debug_assert_eq!(path[0], self.source);
        Some(path)
    }

    /// Predecessor of `v` on its shortest path from the source, or `None`
    /// for the source itself (and for unreachable nodes). Lets callers
    /// walk a path into a reused buffer instead of allocating via
    /// [`PathResult::path_to`].
    pub fn prev_of(&self, v: NodeIndex) -> Option<NodeIndex> {
        self.prev[v]
    }

    /// Bottleneck capacity (min link capacity) along the shortest path to
    /// `v`. `None` if unreachable; the trivial path to the source itself has
    /// infinite bottleneck.
    pub fn bottleneck_capacity_to(&self, g: &Graph, v: NodeIndex) -> Option<f64> {
        let path = self.path_to(v)?;
        let mut cap = f64::INFINITY;
        for w in path.windows(2) {
            let e = g.edge(w[0], w[1]).expect("path edges exist");
            cap = cap.min(e.capacity_mbps);
        }
        Some(cap)
    }
}

/// Memoized point-to-point delays, shared across per-source SSSP trees.
///
/// Per-source caches ([`RoutingOracle`], the core crate's `PathTable`)
/// answer a pair query by walking to the full tree rooted at the query's
/// source. Composition enumerators ask for the *same handful of pairs*
/// across thousands of candidate graphs, so this cache stores every
/// answered pair under one symmetric `(lo, hi)` key; repeated leg lookups
/// become a single hash probe with no tree in sight.
///
/// The two directions are kept in separate slots: an undirected graph has
/// `d(a,b) == d(b,a)` mathematically, but the two trees can disagree in
/// the last ulp (different addition order along tied paths), and callers
/// that pin bit-exact outputs must get back exactly the value the
/// producing tree computed.
#[derive(Clone, Debug, Default)]
pub struct PairDelayCache {
    map: FxHashMap<(NodeIndex, NodeIndex), PairSlots>,
    /// Inserts refused because the cache was at [`MAX_CACHED_PAIRS`].
    /// At 10^5-peer scale the pair space dwarfs the bound, and silent
    /// saturation turns every post-cap leg lookup back into a tree walk —
    /// the counter makes that perf cliff observable.
    rejected: u64,
    /// Lookups answered from a memoized slot.
    hits: u64,
    /// Lookups that fell through to the producing SSSP tree.
    misses: u64,
    /// Lookups that deliberately skipped the memo because the caller
    /// needed a contention-adjusted delay: the memo stores *uncongested*
    /// shortest-path delays, so serving it while flows load the route
    /// would hand back stale QoS. Counted so the bypass cost is visible
    /// next to hits/misses.
    bypasses: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct PairSlots {
    /// Delay `lo → hi`, produced by `lo`'s SSSP tree.
    fwd: Option<f64>,
    /// Delay `hi → lo`, produced by `hi`'s SSSP tree.
    rev: Option<f64>,
}

/// Entry-count bound: beyond this the cache stops inserting (lookups keep
/// working). Values are immutable once present, so the bound can never
/// change what a query returns — only whether it is O(1).
pub const MAX_CACHED_PAIRS: usize = 1 << 20;

impl PairDelayCache {
    /// An empty cache.
    pub fn new() -> Self {
        PairDelayCache::default()
    }

    /// The memoized delay `from → to`, if this exact direction was
    /// inserted before. Counts the probe as a hit or miss.
    pub fn get(&mut self, from: NodeIndex, to: NodeIndex) -> Option<f64> {
        let found = self.map.get(&Self::key(from, to)).and_then(|slots| {
            if from <= to {
                slots.fwd
            } else {
                slots.rev
            }
        });
        if found.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        found
    }

    /// Memoizes the delay `from → to` as computed by `from`'s SSSP tree.
    /// No-op once [`MAX_CACHED_PAIRS`] entries exist.
    pub fn insert(&mut self, from: NodeIndex, to: NodeIndex, delay: f64) {
        if self.map.len() >= MAX_CACHED_PAIRS && !self.map.contains_key(&Self::key(from, to)) {
            self.rejected += 1;
            return;
        }
        let slots = self.map.entry(Self::key(from, to)).or_default();
        if from <= to {
            slots.fwd = Some(delay);
        } else {
            slots.rev = Some(delay);
        }
    }

    /// Number of symmetric pair entries held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Inserts refused because the cache was full — the
    /// `topology.pair_cache_evictions` counter's source of truth.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Lookups answered from a memoized slot (feeds the
    /// `topology.pair_cache_hits` counter).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that missed and fell through to a tree walk (feeds the
    /// `topology.pair_cache_misses` counter).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Records a lookup that skipped the memo because a contention-aware
    /// delay was required (static cached values would be stale).
    pub fn note_bypass(&mut self) {
        self.bypasses += 1;
    }

    /// Lookups that bypassed the memo for contention-aware delays (feeds
    /// the `topology.pair_cache_bypasses` counter).
    pub fn bypasses(&self) -> u64 {
        self.bypasses
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn key(a: NodeIndex, b: NodeIndex) -> (NodeIndex, NodeIndex) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }
}

#[derive(PartialEq)]
struct HeapItem {
    dist: f64,
    node: NodeIndex,
}

impl Eq for HeapItem {}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance; BinaryHeap is a max-heap, so reverse.
        other.dist.partial_cmp(&self.dist).unwrap_or(Ordering::Equal)
    }
}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra over link delay from `source`.
pub fn dijkstra(g: &Graph, source: NodeIndex) -> PathResult {
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev = vec![None; n];
    let mut heap = BinaryHeap::with_capacity(n);
    dist[source] = 0.0;
    heap.push(HeapItem { dist: 0.0, node: source });

    while let Some(HeapItem { dist: d, node: v }) = heap.pop() {
        if d > dist[v] {
            continue; // stale entry
        }
        for (u, e) in g.neighbors(v) {
            let nd = d + e.delay_ms;
            if nd < dist[u] {
                dist[u] = nd;
                prev[u] = Some(v);
                heap.push(HeapItem { dist: nd, node: u });
            }
        }
    }
    PathResult { source, dist, prev }
}

/// Caches one [`PathResult`] per queried source.
///
/// The overlay builder queries delays from each of the 1,000 peers; caching
/// turns that into exactly one Dijkstra per peer regardless of how many
/// destination lookups follow.
pub struct RoutingOracle<'g> {
    graph: &'g Graph,
    cache: FxHashMap<NodeIndex, PathResult>,
}

impl<'g> RoutingOracle<'g> {
    /// Creates an oracle over `graph`.
    pub fn new(graph: &'g Graph) -> Self {
        RoutingOracle { graph, cache: FxHashMap::default() }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The SSSP result from `source`, computing it on first use.
    pub fn from(&mut self, source: NodeIndex) -> &PathResult {
        match self.cache.entry(source) {
            Entry::Occupied(o) => o.into_mut(),
            Entry::Vacant(v) => v.insert(dijkstra(self.graph, source)),
        }
    }

    /// Shortest-path delay between two nodes.
    pub fn delay(&mut self, a: NodeIndex, b: NodeIndex) -> f64 {
        self.from(a).delay_to(b)
    }

    /// Number of cached sources (for tests/diagnostics).
    pub fn cached_sources(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EdgeAttrs;
    use spidernet_util::rng::rng_for;

    /// 0 -1ms- 1 -1ms- 2, plus a 10ms shortcut 0-2 and a spur 2 -3ms- 3.
    fn diamond() -> Graph {
        let mut g = Graph::with_nodes(4);
        g.add_edge(0, 1, EdgeAttrs::new(1.0, 100.0));
        g.add_edge(1, 2, EdgeAttrs::new(1.0, 50.0));
        g.add_edge(0, 2, EdgeAttrs::new(10.0, 1000.0));
        g.add_edge(2, 3, EdgeAttrs::new(3.0, 10.0));
        g
    }

    #[test]
    fn shortest_delays() {
        let g = diamond();
        let r = dijkstra(&g, 0);
        assert_eq!(r.delay_to(0), 0.0);
        assert_eq!(r.delay_to(1), 1.0);
        assert_eq!(r.delay_to(2), 2.0); // via node 1, not the 10ms shortcut
        assert_eq!(r.delay_to(3), 5.0);
    }

    #[test]
    fn path_extraction() {
        let g = diamond();
        let r = dijkstra(&g, 0);
        assert_eq!(r.path_to(3).unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(r.path_to(0).unwrap(), vec![0]);
    }

    #[test]
    fn bottleneck_capacity() {
        let g = diamond();
        let r = dijkstra(&g, 0);
        // 0→1 (100) →2 (50) →3 (10): bottleneck 10.
        assert_eq!(r.bottleneck_capacity_to(&g, 3).unwrap(), 10.0);
        assert_eq!(r.bottleneck_capacity_to(&g, 1).unwrap(), 100.0);
        assert!(r.bottleneck_capacity_to(&g, 0).unwrap().is_infinite());
    }

    #[test]
    fn unreachable_nodes() {
        let mut g = diamond();
        let iso = g.add_node();
        let r = dijkstra(&g, 0);
        assert!(r.delay_to(iso).is_infinite());
        assert!(r.path_to(iso).is_none());
        assert!(r.bottleneck_capacity_to(&g, iso).is_none());
    }

    #[test]
    fn bottleneck_edge_cases_from_isolated_source() {
        let mut g = diamond();
        let iso = g.add_node();
        let r = dijkstra(&g, iso);
        // Source → source is trivially unconstrained even when isolated.
        assert!(r.bottleneck_capacity_to(&g, iso).unwrap().is_infinite());
        // Everything else is unreachable from the isolated source.
        assert!(r.bottleneck_capacity_to(&g, 0).is_none());
        assert!(r.delay_to(0).is_infinite());
    }

    #[test]
    fn pair_cache_is_direction_preserving() {
        let mut pc = PairDelayCache::new();
        assert!(pc.is_empty());
        pc.insert(0, 3, 5.0);
        assert_eq!(pc.get(0, 3), Some(5.0));
        // The reverse direction was never produced; it must not be served.
        assert_eq!(pc.get(3, 0), None);
        pc.insert(3, 0, 5.0 + 1e-13); // the reverse tree's ulp-sibling
        assert_eq!(pc.get(3, 0), Some(5.0 + 1e-13));
        assert_eq!(pc.get(0, 3), Some(5.0));
        assert_eq!(pc.len(), 1, "both directions share one symmetric entry");
    }

    #[test]
    fn pair_cache_counts_bypasses_separately_from_lookups() {
        let mut pc = PairDelayCache::new();
        pc.insert(0, 1, 2.0);
        assert_eq!(pc.get(0, 1), Some(2.0));
        pc.note_bypass();
        pc.note_bypass();
        assert_eq!(pc.bypasses(), 2);
        // Bypasses are not hits or misses: the memo was never consulted.
        assert_eq!(pc.hits(), 1);
        assert_eq!(pc.misses(), 0);
    }

    #[test]
    fn pair_cache_counts_rejected_inserts_at_cap() {
        let mut pc = PairDelayCache::new();
        assert_eq!(pc.rejected(), 0);
        // Fill to the cap (symmetric keys: (0, 1..=MAX)).
        for i in 0..MAX_CACHED_PAIRS {
            pc.insert(0, i + 1, i as f64);
        }
        assert_eq!(pc.len(), MAX_CACHED_PAIRS);
        assert_eq!(pc.rejected(), 0);
        // New pairs are refused and counted; existing pairs still update.
        pc.insert(1, 2, 9.0);
        pc.insert(2, 3, 9.0);
        assert_eq!(pc.rejected(), 2);
        assert_eq!(pc.get(1, 2), None);
        pc.insert(MAX_CACHED_PAIRS, 0, 7.0); // reverse slot of an existing pair
        assert_eq!(pc.rejected(), 2, "existing symmetric entry must still accept");
        assert_eq!(pc.get(MAX_CACHED_PAIRS, 0), Some(7.0));
    }

    #[test]
    fn dijkstra_matches_bellman_ford_on_random_graphs() {
        let mut rng = rng_for(11, "routing-test");
        for trial in 0..5 {
            let n = 40;
            let mut g = Graph::with_nodes(n);
            // Random connected-ish graph: a ring plus random chords.
            for i in 0..n {
                g.add_edge(i, (i + 1) % n, EdgeAttrs::new(rng.gen_range(1.0..10.0), 100.0));
            }
            for _ in 0..60 {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                if a != b {
                    g.add_edge(a, b, EdgeAttrs::new(rng.gen_range(1.0..10.0), 100.0));
                }
            }
            // Bellman–Ford reference.
            let src = trial % n;
            let mut ref_dist = vec![f64::INFINITY; n];
            ref_dist[src] = 0.0;
            for _ in 0..n {
                for (a, b, e) in g.edges().collect::<Vec<_>>() {
                    if ref_dist[a] + e.delay_ms < ref_dist[b] {
                        ref_dist[b] = ref_dist[a] + e.delay_ms;
                    }
                    if ref_dist[b] + e.delay_ms < ref_dist[a] {
                        ref_dist[a] = ref_dist[b] + e.delay_ms;
                    }
                }
            }
            let r = dijkstra(&g, src);
            for (v, &expect) in ref_dist.iter().enumerate() {
                assert!((r.delay_to(v) - expect).abs() < 1e-9, "node {v}");
            }
        }
    }

    #[test]
    fn oracle_caches_per_source() {
        let g = diamond();
        let mut oracle = RoutingOracle::new(&g);
        assert_eq!(oracle.delay(0, 3), 5.0);
        assert_eq!(oracle.delay(0, 2), 2.0);
        assert_eq!(oracle.cached_sources(), 1);
        assert_eq!(oracle.delay(3, 0), 5.0); // symmetric in an undirected graph
        assert_eq!(oracle.cached_sources(), 2);
    }
}
