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
