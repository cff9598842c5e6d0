//! P2P service overlay construction.
//!
//! The paper describes the overlay as a directed graph `G = (V, E)` of N
//! peers over M application-level links, "either maintained as a
//! topologically-aware overlay mesh or dynamically constructed", and states
//! that the composition system is orthogonal to the overlay topology. We
//! build the topologically-aware mesh over an IP substrate: each overlay
//! link's delay is the IP shortest-path delay between the two peers' hosts
//! and its capacity is the bottleneck capacity of that IP path.

use crate::graph::{EdgeAttrs, EdgeId, Graph, NodeIndex};
use crate::routing::dijkstra;
use spidernet_util::rng::SliceRandom;
use spidernet_util::id::PeerId;
use spidernet_util::rng::rng_for;

/// Attributes of one overlay link: same shape as an IP link.
pub type OverlayLink = EdgeAttrs;

/// One hop of an overlay route, as bandwidth is charged on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Hop {
    /// A link of the overlay graph, by id.
    Link(EdgeId),
    /// A geometric overlay's direct hop, as its `(lo, hi)` peer indices:
    /// it is charged at both endpoints' access links.
    Direct(u32, u32),
}

impl Hop {
    /// The direct hop `{a, b}` of a geometric overlay.
    pub fn direct(a: PeerId, b: PeerId) -> Hop {
        let index = |p: PeerId| u32::try_from(p.raw()).expect("peer indices fit in u32");
        let (x, y) = (index(a), index(b));
        Hop::Direct(x.min(y), x.max(y))
    }
}

/// Overlay construction parameters: a topologically-aware mesh where each
/// peer links to its `neighbors` nearest peers by IP latency (Ratnasamy et
/// al.'s binning idea reduced to kNN).
#[derive(Clone, Debug)]
pub struct OverlayConfig {
    /// Number of peers promoted from the IP graph (the paper uses 1,000
    /// peers out of 10,000 IP nodes).
    pub peers: usize,
    /// Nearest peers each node links to.
    pub neighbors: usize,
}

impl Default for OverlayConfig {
    fn default() -> Self {
        OverlayConfig { peers: 1_000, neighbors: 6 }
    }
}

/// Parameters for the coordinate-space overlay used at 10^5–10^6 peers.
///
/// At that scale the IP substrate + per-peer Dijkstra construction is the
/// bottleneck (O(peers · ip_nodes · log ip_nodes) time, O(peers ·
/// ip_nodes) memory for the SSSP trees). The geometric model instead
/// embeds every peer at a deterministic point in the unit square and
/// derives pairwise delay from Euclidean distance (the Vivaldi/GNP
/// observation that internet latency is well approximated by a low-
/// dimensional embedding), making every delay query O(1) with O(peers)
/// memory and no pairwise state at all.
#[derive(Clone, Debug)]
pub struct GeoConfig {
    /// Number of peers.
    pub peers: usize,
    /// Fixed per-path overhead, ms (last-mile + processing).
    pub base_ms: f64,
    /// Delay per unit of coordinate distance, ms (the unit square's
    /// diagonal maps to `base + stretch·√2`).
    pub stretch_ms: f64,
    /// Per-peer access-link capacity range, Mbit/s (uniform).
    pub access_mbps: (f64, f64),
}

impl Default for GeoConfig {
    fn default() -> Self {
        GeoConfig {
            peers: 100_000,
            base_ms: 5.0,
            stretch_ms: 100.0,
            access_mbps: (20.0, 110.0),
        }
    }
}

/// Coordinate-space peer embedding backing a geometric overlay.
#[derive(Clone, Debug)]
pub struct GeoModel {
    coords: Vec<(f64, f64)>,
    base_ms: f64,
    stretch_ms: f64,
    access_mbps: Vec<f64>,
}

/// A constructed P2P service overlay.
///
/// Two internal models share this interface: the graph model (peers
/// placed on an IP substrate, overlay links with routed delays) and the
/// geometric model ([`Overlay::build_geo`]) where delay is a pure
/// function of peer coordinates and no link state exists. Graph-only
/// accessors ([`Overlay::neighbors`], [`Overlay::link`]) return empty
/// results on a geometric overlay; scale-aware callers check
/// [`Overlay::direct_delay`] first.
#[derive(Clone, Debug)]
pub struct Overlay {
    graph: Graph,
    ip_hosts: Vec<NodeIndex>,
    geo: Option<GeoModel>,
}

impl Overlay {
    /// Builds an overlay over `ip` per `cfg`, seeded by `(seed, "overlay")`.
    ///
    /// Runs one IP-layer Dijkstra per peer to derive overlay link delays and
    /// bottleneck capacities, holding one peer's row at a time.
    pub fn build(ip: &Graph, cfg: &OverlayConfig, seed: u64) -> Overlay {
        assert!(cfg.peers >= 2, "an overlay needs at least two peers");
        assert!(cfg.peers <= ip.node_count(), "more peers than IP nodes");
        let mut rng = rng_for(seed, "overlay");

        // Random peer placement.
        let mut all: Vec<NodeIndex> = (0..ip.node_count()).collect();
        all.shuffle(&mut rng);
        let ip_hosts: Vec<NodeIndex> = all.into_iter().take(cfg.peers).collect();

        let mut graph = Graph::with_nodes(cfg.peers);
        assert!(cfg.neighbors >= 1, "mesh needs at least one neighbor");
        for a in 0..cfg.peers {
            // One SSSP per peer host, dropped once the peer's links are
            // made: a link takes the bits of the row of the peer that
            // creates it.
            let sssp = dijkstra(ip, ip_hosts[a]);
            let mut others: Vec<usize> = (0..cfg.peers).filter(|&b| b != a).collect();
            others.sort_by(|&x, &y| {
                sssp.delay_to(ip_hosts[x])
                    .partial_cmp(&sssp.delay_to(ip_hosts[y]))
                    .expect("finite delays")
            });
            for &b in others.iter().take(cfg.neighbors) {
                if graph.has_edge(a, b) {
                    continue;
                }
                let delay = sssp.delay_to(ip_hosts[b]);
                let cap = sssp.bottleneck_capacity_to(ip, ip_hosts[b]).unwrap_or(0.0);
                graph.add_edge(a, b, EdgeAttrs::new(delay, cap));
            }
        }

        Overlay { graph, ip_hosts, geo: None }
    }

    /// Builds a geometric (coordinate-space) overlay: every peer gets a
    /// deterministic position in the unit square seeded by
    /// `(seed, "geo-overlay")`, and delay between any two peers is
    /// `base_ms + stretch_ms · euclidean_distance` — O(1) per query, no
    /// link or SSSP state. Node index `i` is peer `i` (the identity host
    /// mapping), so path keys double as peer indices downstream.
    pub fn build_geo(cfg: &GeoConfig, seed: u64) -> Overlay {
        assert!(cfg.peers >= 2, "an overlay needs at least two peers");
        let mut rng = rng_for(seed, "geo-overlay");
        let mut coords = Vec::with_capacity(cfg.peers);
        let mut access_mbps = Vec::with_capacity(cfg.peers);
        let (lo, hi) = cfg.access_mbps;
        for _ in 0..cfg.peers {
            let x: f64 = rng.gen_range(0.0..1.0);
            let y: f64 = rng.gen_range(0.0..1.0);
            coords.push((x, y));
            access_mbps.push(lo + (hi - lo) * rng.gen_range(0.0..1.0));
        }
        Overlay {
            graph: Graph::with_nodes(cfg.peers),
            ip_hosts: (0..cfg.peers).collect(),
            geo: Some(GeoModel {
                coords,
                base_ms: cfg.base_ms,
                stretch_ms: cfg.stretch_ms,
                access_mbps,
            }),
        }
    }

    /// True if this overlay uses the geometric model.
    pub fn is_geo(&self) -> bool {
        self.geo.is_some()
    }

    /// O(1) coordinate-space delay between two peers — `Some` only on a
    /// geometric overlay. The scale fast path: `PathTable` checks this
    /// before falling back to SSSP trees.
    #[inline]
    pub fn direct_delay(&self, a: PeerId, b: PeerId) -> Option<f64> {
        let geo = self.geo.as_ref()?;
        if a == b {
            return Some(0.0);
        }
        let (ax, ay) = geo.coords[a.index()];
        let (bx, by) = geo.coords[b.index()];
        let dist = ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt();
        Some(geo.base_ms + geo.stretch_ms * dist)
    }

    /// A peer's access-link capacity, Mbit/s — `Some` only on a
    /// geometric overlay, where bandwidth is constrained at the two
    /// endpoints' access links instead of per overlay link.
    #[inline]
    pub fn access_capacity(&self, p: PeerId) -> Option<f64> {
        self.geo.as_ref().map(|g| g.access_mbps[p.index()])
    }

    /// Number of peers.
    pub fn peer_count(&self) -> usize {
        self.graph.node_count()
    }

    /// All peer ids.
    pub fn peers(&self) -> impl Iterator<Item = PeerId> {
        (0..self.peer_count() as u64).map(PeerId::new)
    }

    /// The IP node hosting a peer.
    pub fn ip_host(&self, p: PeerId) -> NodeIndex {
        self.ip_hosts[p.index()]
    }

    /// The overlay graph (peers as node indices).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Overlay neighbors of `p` with link attributes.
    pub fn neighbors(&self, p: PeerId) -> impl Iterator<Item = (PeerId, OverlayLink)> + '_ {
        self.graph.neighbors(p.index()).map(|(n, e)| (PeerId::from(n), e))
    }

    /// Attributes of the direct overlay link between two peers, if any.
    pub fn link(&self, a: PeerId, b: PeerId) -> Option<OverlayLink> {
        self.graph.edge(a.index(), b.index())
    }

    /// Overlay-routed delay between two peers (shortest overlay path; on
    /// a geometric overlay, the O(1) coordinate delay). Runs one Dijkstra
    /// per call; bulk callers read per-source rows instead.
    pub fn route_delay(&self, a: PeerId, b: PeerId) -> f64 {
        if let Some(d) = self.direct_delay(a, b) {
            return d;
        }
        dijkstra(&self.graph, a.index()).delay_to(b.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inet::{generate_power_law, InetConfig};

    fn ip_graph() -> Graph {
        generate_power_law(&InetConfig { nodes: 300, ..InetConfig::default() }, 5)
    }

    fn build(neighbors: usize) -> Overlay {
        Overlay::build(&ip_graph(), &OverlayConfig { peers: 60, neighbors }, 9)
    }

    #[test]
    fn mesh_overlay_is_connected_with_expected_degree() {
        let o = build(4);
        assert_eq!(o.peer_count(), 60);
        assert!(o.graph().is_connected());
        // kNN guarantees each peer at least k links (mutual selections can
        // add more).
        for p in o.peers() {
            assert!(o.graph().degree(p.index()) >= 4);
        }
    }

    #[test]
    fn overlay_link_delay_matches_ip_shortest_path() {
        let ip = ip_graph();
        let o = Overlay::build(&ip, &OverlayConfig { peers: 40, neighbors: 3 }, 2);
        for (a, b, e) in o.graph().edges() {
            let ha = o.ip_host(PeerId::from(a));
            let hb = o.ip_host(PeerId::from(b));
            let expect = dijkstra(&ip, ha).delay_to(hb);
            assert!((e.delay_ms - expect).abs() < 1e-9, "link {a}-{b}");
        }
    }

    #[test]
    fn peer_hosts_are_distinct() {
        let o = build(3);
        let mut hosts: Vec<_> = o.peers().map(|p| o.ip_host(p)).collect();
        hosts.sort_unstable();
        hosts.dedup();
        assert_eq!(hosts.len(), o.peer_count());
    }

    #[test]
    fn route_delay_uses_overlay_paths() {
        let o = build(4);
        let a = PeerId::new(0);
        let b = PeerId::new(30);
        let d = o.route_delay(a, b);
        assert!(d.is_finite() && d > 0.0);
        // Triangle inequality against any direct link.
        if let Some(l) = o.link(a, b) {
            assert!(d <= l.delay_ms + 1e-9);
        }
    }

    #[test]
    fn deterministic_in_seed() {
        // The seed acts through peer placement; the mesh wiring that
        // follows draws nothing.
        let ip = ip_graph();
        let cfg = OverlayConfig { peers: 50, neighbors: 3 };
        let a = Overlay::build(&ip, &cfg, 3);
        let b = Overlay::build(&ip, &cfg, 3);
        assert_eq!(
            a.graph().edges().map(|(x, y, _)| (x, y)).collect::<Vec<_>>(),
            b.graph().edges().map(|(x, y, _)| (x, y)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn geo_overlay_delay_is_symmetric_and_bounded() {
        let cfg = GeoConfig { peers: 500, ..GeoConfig::default() };
        let o = Overlay::build_geo(&cfg, 42);
        assert!(o.is_geo());
        assert_eq!(o.peer_count(), 500);
        for (a, b) in [(0u64, 1), (7, 450), (123, 123)] {
            let (pa, pb) = (PeerId::new(a), PeerId::new(b));
            let d = o.direct_delay(pa, pb).unwrap();
            assert_eq!(o.direct_delay(pb, pa).unwrap().to_bits(), d.to_bits());
            if a == b {
                assert_eq!(d, 0.0);
            } else {
                assert!(d >= cfg.base_ms && d <= cfg.base_ms + cfg.stretch_ms * 1.5);
            }
            assert_eq!(o.route_delay(pa, pb).to_bits(), d.to_bits());
        }
        let (lo, hi) = cfg.access_mbps;
        for p in [0u64, 1, 499] {
            let cap = o.access_capacity(PeerId::new(p)).unwrap();
            assert!(cap >= lo && cap <= hi);
        }
    }

    #[test]
    fn geo_overlay_is_deterministic_in_seed() {
        let cfg = GeoConfig { peers: 100, ..GeoConfig::default() };
        let a = Overlay::build_geo(&cfg, 5);
        let b = Overlay::build_geo(&cfg, 5);
        for p in 0..100u64 {
            let (x, y) = (PeerId::new(p), PeerId::new((p + 37) % 100));
            assert_eq!(
                a.direct_delay(x, y).unwrap().to_bits(),
                b.direct_delay(x, y).unwrap().to_bits()
            );
        }
    }

    #[test]
    fn graph_overlay_has_no_direct_delay() {
        let o = build(3);
        assert!(!o.is_geo());
        assert!(o.direct_delay(PeerId::new(0), PeerId::new(1)).is_none());
        assert!(o.access_capacity(PeerId::new(0)).is_none());
    }

    #[test]
    #[should_panic(expected = "more peers than IP nodes")]
    fn too_many_peers_rejected() {
        let ip = generate_power_law(&InetConfig { nodes: 10, ..InetConfig::default() }, 1);
        Overlay::build(&ip, &OverlayConfig { peers: 11, neighbors: 2 }, 0);
    }
}
