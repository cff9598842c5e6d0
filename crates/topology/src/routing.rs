//! Shortest-path routing.
//!
//! The paper's simulator "performs IP-layer and overlay-layer data routing
//! using shortest path routing". This module provides a binary-heap Dijkstra
//! over link delay that records the shortest-path tree as it relaxes edges:
//! each node's predecessor and the [`EdgeId`] of the tree edge into it, so
//! a path is walked as edge ids without a node buffer or an edge lookup.

use crate::graph::{EdgeId, Graph, NodeIndex};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// `u32::MAX`: no predecessor and no tree edge (the source, and nodes the
/// source cannot reach).
const NONE: u32 = u32::MAX;

/// A node's place in the shortest-path tree: its predecessor and the id of
/// the tree edge into it.
#[derive(Clone, Copy, Debug)]
struct TreeLink {
    prev: u32,
    edge: EdgeId,
}

/// Result of a single-source Dijkstra run: 16 bytes per node (a
/// distance, a predecessor and a tree-edge id).
#[derive(Clone, Debug)]
pub struct PathResult {
    source: NodeIndex,
    dist: Vec<f64>,
    tree: Vec<TreeLink>,
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
        while let Some(p) = self.prev_of(cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        debug_assert_eq!(path[0], self.source);
        Some(path)
    }

    /// Predecessor of `v` on its shortest path from the source, or `None`
    /// for the source itself (and for unreachable nodes).
    pub fn prev_of(&self, v: NodeIndex) -> Option<NodeIndex> {
        let prev = self.tree[v].prev;
        (prev != NONE).then_some(prev as usize)
    }

    /// Id of the tree edge into `v`, or `None` for the source itself (and
    /// for unreachable nodes).
    pub fn edge_into(&self, v: NodeIndex) -> Option<EdgeId> {
        let edge = self.tree[v].edge;
        (edge != NONE).then_some(edge)
    }

    /// Passes the id of every edge on the shortest path `source → v` to
    /// `edge`, from `v` back to the source. Returns `false`, passing
    /// nothing, if `v` is unreachable.
    #[inline]
    pub fn walk_to(&self, v: NodeIndex, mut edge: impl FnMut(EdgeId)) -> bool {
        if self.dist[v].is_infinite() {
            return false;
        }
        let mut link = self.tree[v];
        while link.edge != NONE {
            edge(link.edge);
            link = self.tree[link.prev as usize];
        }
        true
    }

    /// Bottleneck capacity (min link capacity) along the shortest path to
    /// `v`. `None` if unreachable; the trivial path to the source itself has
    /// infinite bottleneck.
    pub fn bottleneck_capacity_to(&self, g: &Graph, v: NodeIndex) -> Option<f64> {
        let mut cap = f64::INFINITY;
        self.walk_to(v, |id| cap = cap.min(g.edge_attrs(id).capacity_mbps)).then_some(cap)
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
    let mut tree = vec![TreeLink { prev: NONE, edge: NONE }; n];
    let mut heap = BinaryHeap::with_capacity(n);
    dist[source] = 0.0;
    heap.push(HeapItem { dist: 0.0, node: source });

    while let Some(HeapItem { dist: d, node: v }) = heap.pop() {
        if d > dist[v] {
            continue; // stale entry
        }
        for (u, edge, e) in g.neighbor_edges(v) {
            let nd = d + e.delay_ms;
            if nd < dist[u] {
                dist[u] = nd;
                // `v` has an edge, so it fits in u32 (`Graph::add_edge`).
                tree[u] = TreeLink { prev: v as u32, edge };
                heap.push(HeapItem { dist: nd, node: u });
            }
        }
    }
    PathResult { source, dist, tree }
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
    fn tree_edges_are_the_graph_edges_into_each_node() {
        use crate::inet::{generate_power_law, InetConfig};
        let mut g = generate_power_law(&InetConfig { nodes: 200, ..InetConfig::default() }, 7);
        let iso = g.add_node();
        for src in [0, 57, 199] {
            let r = dijkstra(&g, src);
            assert_eq!((r.prev_of(src), r.edge_into(src)), (None, None), "source");
            assert_eq!((r.prev_of(iso), r.edge_into(iso)), (None, None), "unreachable");
            assert!(!r.walk_to(iso, |_| panic!("an unreachable node has no path")));
            let mut reached = 0;
            for v in (0..g.node_count()).filter(|&v| v != src && r.delay_to(v).is_finite()) {
                let prev = r.prev_of(v).expect("a reachable node has a predecessor");
                assert_eq!(r.edge_into(v), g.edge_id(prev, v), "node {v}");
                let hop = g.edge(prev, v).unwrap().delay_ms;
                assert_eq!((r.delay_to(prev) + hop).to_bits(), r.delay_to(v).to_bits());
                // The walk passes the path's edges from `v` back to the source.
                let path = r.path_to(v).unwrap();
                let mut expect: Vec<EdgeId> =
                    path.windows(2).map(|w| g.edge_id(w[0], w[1]).unwrap()).collect();
                expect.reverse();
                let mut walked = Vec::new();
                assert!(r.walk_to(v, |id| walked.push(id)));
                assert_eq!(walked, expect, "node {v}");
                reached += 1;
            }
            assert_eq!(reached, g.node_count() - 2, "the power-law graph is connected");
        }
    }
}
