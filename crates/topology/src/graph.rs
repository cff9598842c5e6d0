//! Weighted undirected graph shared by the IP layer and the overlay layer.


/// Dense node index into a [`Graph`].
pub type NodeIndex = usize;

/// Dense id of an undirected edge of a [`Graph`]: edges are numbered
/// `0, 1, 2, …` in the order [`Graph::add_edge`] adds them, so per-link
/// state is a plain vector indexed by id.
pub type EdgeId = u32;

/// Attributes of one (undirected) link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeAttrs {
    /// Propagation delay in milliseconds.
    pub delay_ms: f64,
    /// Capacity in Mbit/s.
    pub capacity_mbps: f64,
}

impl EdgeAttrs {
    /// A link with the given delay and capacity.
    pub fn new(delay_ms: f64, capacity_mbps: f64) -> Self {
        EdgeAttrs { delay_ms, capacity_mbps }
    }
}

/// One adjacency entry: the neighbor, the id of the edge to it, and a
/// copy of the edge's attributes (24 bytes).
#[derive(Clone, Copy, Debug)]
struct Adj {
    node: u32,
    edge: EdgeId,
    attrs: EdgeAttrs,
}

/// An undirected graph stored as per-node adjacency lists.
///
/// Both endpoints hold a copy of the edge attributes, so neighbor iteration
/// never chases a separate edge table — the access pattern Dijkstra and the
/// probe simulator hammer. The edge table by [`EdgeId`] serves reads that
/// start from an id.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    adj: Vec<Vec<Adj>>,
    /// Endpoints (in `add_edge` order) and attributes of every edge, by id.
    edges: Vec<(u32, u32, EdgeAttrs)>,
}

impl Graph {
    /// An empty graph with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> Self {
        Graph { adj: vec![Vec::new(); n], edges: Vec::new() }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds a node, returning its index.
    pub fn add_node(&mut self) -> NodeIndex {
        self.adj.push(Vec::new());
        self.adj.len() - 1
    }

    /// Adds an undirected edge with the next [`EdgeId`]. Panics on
    /// out-of-range endpoints or self-loops; silently ignores an exact
    /// duplicate edge.
    pub fn add_edge(&mut self, a: NodeIndex, b: NodeIndex, attrs: EdgeAttrs) {
        assert!(a < self.adj.len() && b < self.adj.len(), "edge endpoint out of range");
        assert_ne!(a, b, "self-loops are not allowed");
        if self.has_edge(a, b) {
            return;
        }
        let edge = EdgeId::try_from(self.edges.len()).expect("edge ids fit in u32");
        let index = |v: NodeIndex| u32::try_from(v).expect("node indices fit in u32");
        let (x, y) = (index(a), index(b));
        self.adj[a].push(Adj { node: y, edge, attrs });
        self.adj[b].push(Adj { node: x, edge, attrs });
        self.edges.push((x, y, attrs));
    }

    /// Returns true if an edge `{a, b}` exists.
    pub fn has_edge(&self, a: NodeIndex, b: NodeIndex) -> bool {
        // Scan the smaller adjacency list.
        let (probe, target) = if self.adj[a].len() <= self.adj[b].len() { (a, b) } else { (b, a) };
        self.adj[probe].iter().any(|e| e.node as usize == target)
    }

    /// Attributes of the edge `{a, b}`, if present.
    pub fn edge(&self, a: NodeIndex, b: NodeIndex) -> Option<EdgeAttrs> {
        self.adj[a].iter().find(|e| e.node as usize == b).map(|e| e.attrs)
    }

    /// Id of the edge `{a, b}`, if present.
    pub fn edge_id(&self, a: NodeIndex, b: NodeIndex) -> Option<EdgeId> {
        self.adj[a].iter().find(|e| e.node as usize == b).map(|e| e.edge)
    }

    /// Endpoints of edge `id`, in the order it was added.
    pub fn endpoints(&self, id: EdgeId) -> (NodeIndex, NodeIndex) {
        let (a, b, _) = self.edges[id as usize];
        (a as usize, b as usize)
    }

    /// Attributes of edge `id`.
    pub fn edge_attrs(&self, id: EdgeId) -> EdgeAttrs {
        self.edges[id as usize].2
    }

    /// Degree of node `v`.
    pub fn degree(&self, v: NodeIndex) -> usize {
        self.adj[v].len()
    }

    /// Iterates over the neighbors of `v` with edge attributes.
    pub fn neighbors(&self, v: NodeIndex) -> impl Iterator<Item = (NodeIndex, EdgeAttrs)> + '_ {
        self.adj[v].iter().map(|e| (e.node as usize, e.attrs))
    }

    /// Iterates over the neighbors of `v` with the id and attributes of
    /// the edge to each.
    pub fn neighbor_edges(
        &self,
        v: NodeIndex,
    ) -> impl Iterator<Item = (NodeIndex, EdgeId, EdgeAttrs)> + '_ {
        self.adj[v].iter().map(|e| (e.node as usize, e.edge, e.attrs))
    }

    /// Iterates over every undirected edge once, as `(a, b, attrs)` with
    /// `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeIndex, NodeIndex, EdgeAttrs)> + '_ {
        self.adj.iter().enumerate().flat_map(|(a, nbrs)| {
            nbrs.iter().filter(move |e| a < e.node as usize).map(move |e| (a, e.node as usize, e.attrs))
        })
    }

    /// Returns true if the graph is connected (or empty).
    pub fn is_connected(&self) -> bool {
        if self.adj.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.adj.len()];
        let mut stack = vec![0];
        seen[0] = true;
        let mut visited = 1;
        while let Some(v) = stack.pop() {
            for e in &self.adj[v] {
                let n = e.node as usize;
                if !seen[n] {
                    seen[n] = true;
                    visited += 1;
                    stack.push(n);
                }
            }
        }
        visited == self.adj.len()
    }

    /// Degree histogram: `hist[d]` = number of nodes of degree `d`.
    pub fn degree_histogram(&self) -> Vec<usize> {
        let max_deg = self.adj.iter().map(Vec::len).max().unwrap_or(0);
        let mut hist = vec![0usize; max_deg + 1];
        for nbrs in &self.adj {
            hist[nbrs.len()] += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut g = Graph::with_nodes(3);
        g.add_edge(0, 1, EdgeAttrs::new(1.0, 100.0));
        g.add_edge(1, 2, EdgeAttrs::new(2.0, 100.0));
        g.add_edge(0, 2, EdgeAttrs::new(5.0, 10.0));
        g
    }

    #[test]
    fn counts_and_degrees() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    fn edges_are_undirected() {
        let g = triangle();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert_eq!(g.edge(2, 0).unwrap().delay_ms, 5.0);
        assert_eq!(g.edge(0, 2).unwrap().delay_ms, 5.0);
    }

    #[test]
    fn edge_ids_are_dense_in_insertion_order() {
        let g = triangle();
        for (id, (a, b)) in [(0u32, (0, 1)), (1, (1, 2)), (2, (0, 2))] {
            assert_eq!(g.edge_id(a, b), Some(id));
            assert_eq!(g.edge_id(b, a), Some(id));
            assert_eq!(g.endpoints(id), (a, b));
            assert_eq!(Some(g.edge_attrs(id)), g.edge(a, b));
        }
        let mut g = triangle();
        g.add_edge(2, 1, EdgeAttrs::new(9.0, 9.0)); // duplicate: no new id
        assert_eq!(g.edge_count(), 3);
        let v = g.add_node();
        assert_eq!(g.edge_id(v, 0), None);
        g.add_edge(v, 0, EdgeAttrs::new(1.0, 1.0));
        assert_eq!(g.edge_id(0, v), Some(3));
        assert_eq!(g.neighbor_edges(v).collect::<Vec<_>>(), vec![(0, 3, EdgeAttrs::new(1.0, 1.0))]);
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut g = triangle();
        g.add_edge(0, 1, EdgeAttrs::new(9.0, 9.0));
        assert_eq!(g.edge_count(), 3);
        // Original attributes kept.
        assert_eq!(g.edge(0, 1).unwrap().delay_ms, 1.0);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loops_panic() {
        let mut g = Graph::with_nodes(1);
        g.add_edge(0, 0, EdgeAttrs::new(1.0, 1.0));
    }

    #[test]
    fn edge_iteration_visits_each_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        for (a, b, _) in edges {
            assert!(a < b);
        }
    }

    #[test]
    fn connectivity() {
        assert!(triangle().is_connected());
        let mut g = Graph::with_nodes(4);
        g.add_edge(0, 1, EdgeAttrs::new(1.0, 1.0));
        g.add_edge(2, 3, EdgeAttrs::new(1.0, 1.0));
        assert!(!g.is_connected());
        assert!(Graph::with_nodes(0).is_connected());
        assert!(Graph::with_nodes(1).is_connected());
    }

    #[test]
    fn degree_histogram_sums_to_node_count() {
        let g = triangle();
        let hist = g.degree_histogram();
        assert_eq!(hist.iter().sum::<usize>(), 3);
        assert_eq!(hist[2], 3);
    }

    #[test]
    fn add_node_extends_graph() {
        let mut g = triangle();
        let v = g.add_node();
        assert_eq!(v, 3);
        assert_eq!(g.degree(v), 0);
        g.add_edge(v, 0, EdgeAttrs::new(1.0, 1.0));
        assert!(g.has_edge(3, 0));
    }
}
