//! Service graphs: a composition pattern instantiated with concrete
//! components (paper §2.2 middle tier, §2.4).

use crate::model::component::Registry;
use crate::model::function_graph::FunctionGraph;
use spidernet_util::id::{ComponentId, PeerId};
use spidernet_util::res::ResourceKind;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One endpoint of a service link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkEnd {
    /// The application sender.
    Source,
    /// The component at the given pattern-node index.
    Node(usize),
    /// The application receiver.
    Dest,
}

/// A service link: one edge of the service graph, mapped at runtime onto an
/// overlay network path between the two endpoints' peers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceLink {
    /// Producing end.
    pub from: LinkEnd,
    /// Consuming end.
    pub to: LinkEnd,
}

/// Eq. 1's bandwidth weight w_{n+1}. Eq. 1 weights its n + 1 terms (one
/// per [`ResourceKind`] plus bandwidth) equally, so the weights sum to 1.
pub(crate) const BANDWIDTH_WEIGHT: f64 = 1.0 / (ResourceKind::COUNT as f64 + 1.0);

/// Eq. 1's end-system resource weights w_1 … w_n, one per
/// [`ResourceKind`].
pub(crate) const RESOURCE_WEIGHTS: [f64; ResourceKind::COUNT] =
    [BANDWIDTH_WEIGHT; ResourceKind::COUNT];

/// Evaluation of a candidate service graph against a request, produced by
/// the selection logic.
#[derive(Clone, Debug)]
pub struct GraphEval {
    /// Accumulated QoS vector (component Q_p plus network delay).
    pub qos: spidernet_util::qos::QosVector,
    /// ψ load-balancing cost (Eq. 1); lower is better.
    pub cost: f64,
    /// Combined failure probability F^λ (independent-peers combinatorial
    /// estimate).
    pub failure_prob: f64,
    /// Whether end-system resources and link bandwidth all fit.
    pub fits_resources: bool,
}

/// A fully instantiated service graph.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceGraph {
    /// The application sender.
    pub source: PeerId,
    /// The application receiver.
    pub dest: PeerId,
    /// The composition pattern (commutation-free function DAG), shared by
    /// every candidate graph a composition builds over it.
    pub pattern: Arc<FunctionGraph>,
    /// One component per pattern node.
    pub assignment: Vec<ComponentId>,
}

impl ServiceGraph {
    /// Builds a service graph; panics if the assignment length does not
    /// match the pattern (a programmer error in composition code).
    pub fn new(
        source: PeerId,
        dest: PeerId,
        pattern: impl Into<Arc<FunctionGraph>>,
        assignment: Vec<ComponentId>,
    ) -> Self {
        let pattern = pattern.into();
        assert_eq!(pattern.len(), assignment.len(), "assignment/pattern size mismatch");
        ServiceGraph { source, dest, pattern, assignment }
    }

    /// The peer hosting pattern node `i`.
    pub fn peer_at(&self, i: usize, reg: &Registry) -> PeerId {
        reg.get(self.assignment[i]).peer
    }

    /// All assigned components.
    pub fn components(&self) -> &[ComponentId] {
        &self.assignment
    }

    /// True if the graph uses `c`.
    pub fn contains_component(&self, c: ComponentId) -> bool {
        self.assignment.contains(&c)
    }

    /// True if any assigned component is hosted on `p`.
    pub fn contains_peer(&self, p: PeerId, reg: &Registry) -> bool {
        self.assignment.iter().any(|&c| reg.get(c).peer == p)
    }

    /// Number of components shared with `other` (the backup-selection
    /// overlap metric, paper §5.2).
    pub fn overlap(&self, other: &ServiceGraph) -> usize {
        self.assignment.iter().filter(|c| other.assignment.contains(c)).count()
    }

    /// All service links: source → entry nodes, dependency edges, exit
    /// nodes → destination.
    pub fn service_links(&self) -> Vec<ServiceLink> {
        pattern_service_links(&self.pattern).collect()
    }

    /// Resolves a link end to its peer.
    pub fn peer_of_end(&self, end: LinkEnd, reg: &Registry) -> PeerId {
        match end {
            LinkEnd::Source => self.source,
            LinkEnd::Dest => self.dest,
            LinkEnd::Node(i) => self.peer_at(i, reg),
        }
    }

    /// Bandwidth demanded on a service link, Mbit/s: the source link
    /// carries the request's stream rate; a component's outgoing links
    /// carry its output bandwidth.
    pub fn link_bandwidth(&self, link: &ServiceLink, reg: &Registry, request_bw: f64) -> f64 {
        match link.from {
            LinkEnd::Source => request_bw,
            LinkEnd::Node(i) => reg.get(self.assignment[i]).out_bandwidth_mbps,
            LinkEnd::Dest => 0.0,
        }
    }

    /// Combined failure probability assuming independent peer failures:
    /// `F = 1 − Π_j (1 − p_j)` over the distinct peers in the graph, each
    /// taken at its worst component failure probability.
    pub fn failure_probability(&self, reg: &Registry) -> f64 {
        // Ordered: the product below is a float reduction, and its result
        // must not depend on map iteration order.
        let mut per_peer: BTreeMap<PeerId, f64> = BTreeMap::new();
        for &c in &self.assignment {
            let comp = reg.get(c);
            let p = per_peer.entry(comp.peer).or_insert(0.0);
            *p = p.max(comp.failure_prob);
        }
        1.0 - per_peer.values().map(|p| 1.0 - p).product::<f64>()
    }
}

/// The service links induced by a pattern alone: source → entry nodes,
/// dependency edges, exit nodes → destination. Equal to
/// [`ServiceGraph::service_links`] for any graph over the pattern, which
/// lets hot evaluation loops walk the link set once per pattern rather
/// than once per candidate assignment, without collecting it.
pub fn pattern_service_links(pattern: &FunctionGraph) -> impl Iterator<Item = ServiceLink> + '_ {
    let nodes = 0..pattern.len();
    let entries = nodes.clone().filter(|&i| pattern.predecessors(i).next().is_none());
    let exits = nodes.filter(|&i| pattern.successors(i).next().is_none());
    entries
        .map(|e| ServiceLink { from: LinkEnd::Source, to: LinkEnd::Node(e) })
        .chain(
            pattern
                .deps()
                .iter()
                .map(|&(a, b)| ServiceLink { from: LinkEnd::Node(a), to: LinkEnd::Node(b) }),
        )
        .chain(exits.map(|x| ServiceLink { from: LinkEnd::Node(x), to: LinkEnd::Dest }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::component::ServiceComponent;
    use spidernet_util::id::FunctionId;
    use spidernet_util::qos::QosVector;
    use spidernet_util::res::ResourceVector;

    fn registry() -> Registry {
        let mut r = Registry::default();
        for (peer, function, fp) in
            [(0u64, 0u64, 0.01), (1, 1, 0.02), (2, 2, 0.03), (1, 2, 0.05)]
        {
            r.add(ServiceComponent {
                id: ComponentId::new(0),
                peer: PeerId::new(peer),
                function: FunctionId::new(function),
                perf_qos: QosVector::from_values(vec![10.0, 0.0]),
                resources: ResourceVector::new(0.1, 16.0),
                out_bandwidth_mbps: 2.0,
                failure_prob: fp,
            });
        }
        r
    }

    fn chain_graph() -> ServiceGraph {
        ServiceGraph::new(
            PeerId::new(10),
            PeerId::new(11),
            FunctionGraph::linear(3),
            vec![ComponentId::new(0), ComponentId::new(1), ComponentId::new(2)],
        )
    }

    #[test]
    fn service_links_of_a_chain() {
        let g = chain_graph();
        let links = g.service_links();
        assert_eq!(links.len(), 4); // src→0, 0→1, 1→2, 2→dst
        assert_eq!(links[0].from, LinkEnd::Source);
        assert_eq!(links.last().unwrap().to, LinkEnd::Dest);
    }

    #[test]
    fn peer_resolution() {
        let reg = registry();
        let g = chain_graph();
        assert_eq!(g.peer_of_end(LinkEnd::Source, &reg), PeerId::new(10));
        assert_eq!(g.peer_of_end(LinkEnd::Dest, &reg), PeerId::new(11));
        assert_eq!(g.peer_of_end(LinkEnd::Node(1), &reg), PeerId::new(1));
        assert!(g.contains_peer(PeerId::new(2), &reg));
        assert!(!g.contains_peer(PeerId::new(9), &reg));
    }

    #[test]
    fn link_bandwidths() {
        let reg = registry();
        let g = chain_graph();
        let links = g.service_links();
        assert_eq!(g.link_bandwidth(&links[0], &reg, 1.5), 1.5); // source rate
        assert_eq!(g.link_bandwidth(&links[1], &reg, 1.5), 2.0); // component output
    }

    #[test]
    fn failure_probability_combines_independent_peers() {
        let reg = registry();
        let g = chain_graph();
        // Peers 0, 1, 2 with probs 0.01, 0.02, 0.03.
        let expect = 1.0 - 0.99 * 0.98 * 0.97;
        assert!((g.failure_probability(&reg) - expect).abs() < 1e-12);
    }

    #[test]
    fn failure_probability_takes_worst_component_per_peer() {
        let reg = registry();
        // Components 1 (p=0.02) and 3 (p=0.05) both on peer 1.
        let g = ServiceGraph::new(
            PeerId::new(10),
            PeerId::new(11),
            FunctionGraph::linear(2),
            vec![ComponentId::new(1), ComponentId::new(3)],
        );
        assert!((g.failure_probability(&reg) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn overlap_counts_shared_components() {
        let a = chain_graph();
        let mut b = chain_graph();
        b.assignment[2] = ComponentId::new(3);
        assert_eq!(a.overlap(&b), 2);
        assert_eq!(a.overlap(&a), 3);
    }

    #[test]
    fn cost_weights_uniform_is_normalized() {
        let sum: f64 = RESOURCE_WEIGHTS.iter().sum::<f64>() + BANDWIDTH_WEIGHT;
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(RESOURCE_WEIGHTS.iter().all(|&w| w == BANDWIDTH_WEIGHT));
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn mismatched_assignment_panics() {
        ServiceGraph::new(
            PeerId::new(0),
            PeerId::new(1),
            FunctionGraph::linear(2),
            vec![ComponentId::new(0)],
        );
    }
}
