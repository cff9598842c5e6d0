//! Cached overlay shortest paths.
//!
//! Service links map onto overlay network paths (paper §2.2); pricing a
//! candidate service graph therefore needs, for arbitrary peer pairs, the
//! overlay path's delay, its node sequence (for bandwidth accounting), and
//! its bottleneck capacity. This table keeps one overlay SSSP row per
//! queried source, so every pair query is an array index into that row.

use spidernet_topology::routing::{dijkstra, PathResult};
use spidernet_topology::Overlay;
use spidernet_util::id::PeerId;

/// Per-source shortest-path rows over the overlay graph, indexed by peer.
///
/// `delay(a, b)` reads `b`'s slot of `a`'s SSSP row, so the direction of
/// a query is the direction of the tree that answers it: the two trees of
/// an undirected pair can disagree in the last ulp, and callers that pin
/// bit-exact outputs always get the source's bits. Rows are built on first
/// use (one Dijkstra each) and only for sources that are queried.
///
/// Nothing is ever invalidated: the overlay graph is immutable and routing
/// ignores peer liveness, so built rows stay exact through churn.
///
/// In the geometric (scale) overlay mode every query is answered in O(1)
/// from coordinates — no row is ever built or allocated, which is what
/// lets one machine hold 10^5–10^6 peers.
#[derive(Clone, Debug, Default)]
pub struct PathTable {
    /// Slot `p` holds peer `p`'s SSSP row once a query from `p` built it.
    /// Grows to the overlay's peer count when the first row is built.
    trees: Vec<Option<PathResult>>,
    /// Row reads that found the row already built.
    row_hits: u64,
    /// Rows built (one Dijkstra each).
    row_misses: u64,
}

impl PathTable {
    /// An empty table.
    pub fn new() -> Self {
        PathTable::default()
    }

    /// `from`'s SSSP row, built on first use. Every row read of the table
    /// goes through here and is counted as a hit or a miss.
    fn row(&mut self, overlay: &Overlay, from: PeerId) -> &PathResult {
        if self.trees.is_empty() {
            self.trees.resize_with(overlay.peer_count(), || None);
        }
        let slot = &mut self.trees[from.index()];
        if slot.is_some() {
            self.row_hits += 1;
        } else {
            self.row_misses += 1;
        }
        slot.get_or_insert_with(|| dijkstra(overlay.graph(), from.index()))
    }

    /// Overlay-routed one-way delay `from → to`, ms, read from `from`'s
    /// SSSP row (∞ if the pair is disconnected).
    pub fn delay(&mut self, overlay: &Overlay, from: PeerId, to: PeerId) -> f64 {
        if from == to {
            return 0.0;
        }
        if let Some(d) = overlay.direct_delay(from, to) {
            return d;
        }
        self.row(overlay, from).delay_to(to.index())
    }

    /// The overlay peer path `from → to` (inclusive of both endpoints), or
    /// `None` if disconnected.
    pub fn peer_path(&mut self, overlay: &Overlay, from: PeerId, to: PeerId) -> Option<Vec<PeerId>> {
        if from == to {
            return Some(vec![from]);
        }
        if overlay.is_geo() {
            // Geo paths are direct: every pair is one overlay hop, and
            // bandwidth for that hop is charged at the endpoints' access
            // links by the state layer.
            return Some(vec![from, to]);
        }
        self.row(overlay, from)
            .path_to(to.index())
            .map(|p| p.into_iter().map(PeerId::from).collect())
    }

    /// Writes the overlay peer path `from → to` (inclusive of both
    /// endpoints) into `buf`, clearing it first; returns `false` if the
    /// pair is disconnected. Hop-for-hop identical to
    /// [`PathTable::peer_path`] without the per-call allocations — the hot
    /// candidate-evaluation loop calls this once per service link.
    pub fn peer_path_into(
        &mut self,
        overlay: &Overlay,
        from: PeerId,
        to: PeerId,
        buf: &mut Vec<PeerId>,
    ) -> bool {
        buf.clear();
        if from == to {
            buf.push(from);
            return true;
        }
        if overlay.is_geo() {
            buf.push(from);
            buf.push(to);
            return true;
        }
        let res = self.row(overlay, from);
        if res.delay_to(to.index()).is_infinite() {
            return false;
        }
        let mut cur = to.index();
        buf.push(to);
        while let Some(p) = res.prev_of(cur) {
            buf.push(PeerId::from(p));
            cur = p;
        }
        buf.reverse();
        true
    }

    /// Contention-aware one-way delay `from → to`, ms: the static
    /// per-hop delays inflated by `stress`, the caller's view of each
    /// hop's current load (`ρ ∈ [0, 1]`, e.g.
    /// `OverlayState::link_stress`). Each hop contributes
    /// `delay × (1 + ρ)` — an uncontended hop costs its static delay, a
    /// saturated one twice that. The route comes from `from`'s row, but
    /// the hop delays are summed afresh: the row's distances are
    /// uncongested, and serving them while flows load the route would
    /// report stale QoS.
    pub fn contended_delay(
        &mut self,
        overlay: &Overlay,
        from: PeerId,
        to: PeerId,
        mut stress: impl FnMut(PeerId, PeerId) -> f64,
    ) -> f64 {
        if from == to {
            return 0.0;
        }
        if overlay.is_geo() {
            let base = overlay.direct_delay(from, to).unwrap_or(f64::INFINITY);
            return base * (1.0 + stress(from, to).clamp(0.0, 1.0));
        }
        let Some(path) = self.peer_path(overlay, from, to) else {
            return f64::INFINITY;
        };
        let mut total = 0.0;
        for w in path.windows(2) {
            let hop = overlay.link(w[0], w[1]).map(|l| l.delay_ms).unwrap_or(0.0);
            total += hop * (1.0 + stress(w[0], w[1]).clamp(0.0, 1.0));
        }
        total
    }

    /// Static bottleneck capacity of the path `from → to`, Mbit/s.
    pub fn bottleneck(&mut self, overlay: &Overlay, from: PeerId, to: PeerId) -> Option<f64> {
        if from == to {
            return Some(f64::INFINITY);
        }
        if overlay.is_geo() {
            return overlay.route_bottleneck(from, to);
        }
        // Borrow dance: compute the path first, then inspect edges.
        let path = self.peer_path(overlay, from, to)?;
        let mut cap = f64::INFINITY;
        for w in path.windows(2) {
            cap = cap.min(overlay.link(w[0], w[1]).map(|l| l.capacity_mbps).unwrap_or(0.0));
        }
        Some(cap)
    }

    /// Number of built rows.
    pub fn cached_sources(&self) -> usize {
        self.trees.iter().filter(|t| t.is_some()).count()
    }

    /// Row reads that found the row already built (feeds the
    /// `topology.pair_cache_hits` counter).
    pub fn row_hits(&self) -> u64 {
        self.row_hits
    }

    /// Rows built, one Dijkstra each (feeds the
    /// `topology.pair_cache_misses` counter).
    pub fn row_misses(&self) -> u64 {
        self.row_misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spidernet_topology::inet::{generate_power_law, InetConfig};
    use spidernet_topology::overlay::OverlayConfig;

    fn overlay() -> Overlay {
        let ip = generate_power_law(&InetConfig { nodes: 150, ..InetConfig::default() }, 4);
        Overlay::build(
            &ip,
            &OverlayConfig { peers: 30, neighbors: 4 },
            4,
        )
    }

    #[test]
    fn delay_matches_overlay_route() {
        let ov = overlay();
        let mut pt = PathTable::new();
        let (a, b) = (PeerId::new(0), PeerId::new(17));
        assert!((pt.delay(&ov, a, b) - ov.route_delay(a, b)).abs() < 1e-9);
        assert_eq!(pt.delay(&ov, a, a), 0.0);
    }

    #[test]
    fn path_endpoints_and_adjacency() {
        let ov = overlay();
        let mut pt = PathTable::new();
        let (a, b) = (PeerId::new(3), PeerId::new(25));
        let path = pt.peer_path(&ov, a, b).unwrap();
        assert_eq!(*path.first().unwrap(), a);
        assert_eq!(*path.last().unwrap(), b);
        for w in path.windows(2) {
            assert!(ov.link(w[0], w[1]).is_some(), "non-adjacent hop {w:?}");
        }
    }

    #[test]
    fn bottleneck_matches_overlay() {
        let ov = overlay();
        let mut pt = PathTable::new();
        let (a, b) = (PeerId::new(1), PeerId::new(20));
        let got = pt.bottleneck(&ov, a, b).unwrap();
        let expect = ov.route_bottleneck(a, b).unwrap();
        assert!((got - expect).abs() < 1e-9);
        assert!(pt.bottleneck(&ov, a, a).unwrap().is_infinite());
    }

    #[test]
    fn delay_reads_the_source_row_in_both_directions() {
        let ov = overlay();
        let n = ov.peer_count() as u64;
        let mut pt = PathTable::new();
        let mut asymmetric = 0;
        // Forward queries build rows from the low ids up, reverse queries
        // from the high ids down.
        for lo in 0..n {
            for hi in (lo + 1..n).rev() {
                let (a, b) = (PeerId::new(lo), PeerId::new(hi));
                let ab = pt.delay(&ov, a, b);
                let ba = pt.delay(&ov, b, a);
                assert_eq!(ab.to_bits(), dijkstra(ov.graph(), a.index()).delay_to(b.index()).to_bits());
                assert_eq!(ba.to_bits(), dijkstra(ov.graph(), b.index()).delay_to(a.index()).to_bits());
                if ab.to_bits() != ba.to_bits() {
                    asymmetric += 1;
                }
            }
        }
        assert!(asymmetric > 0, "the fixture must hold a pair whose directions differ in bits");
    }

    #[test]
    fn caches_one_tree_per_source() {
        let ov = overlay();
        let n = ov.peer_count() as u64;
        let mut pt = PathTable::new();
        let sources = [3u64, 11, 29];
        let k = sources.len() as u64;
        let mut buf = Vec::new();
        for &s in &sources {
            for t in 0..n {
                let (a, b) = (PeerId::new(s), PeerId::new(t));
                pt.delay(&ov, a, b);
                pt.peer_path_into(&ov, a, b, &mut buf);
            }
        }
        // One miss builds each source's row; the other reads hit. A
        // self-query reads no row.
        assert_eq!(pt.cached_sources(), sources.len());
        assert_eq!(pt.row_misses(), k);
        assert_eq!(pt.row_hits(), k * (n - 1) * 2 - k);
    }

    #[test]
    fn contended_delay_scales_the_static_hops() {
        let ov = overlay();
        let mut pt = PathTable::new();
        let (a, b) = (PeerId::new(0), PeerId::new(17));
        let base = pt.delay(&ov, a, b);
        // Zero stress reproduces the static path delay.
        let calm = pt.contended_delay(&ov, a, b, |_, _| 0.0);
        assert!((calm - base).abs() < 1e-9);
        // Saturated hops cost double.
        let hot = pt.contended_delay(&ov, a, b, |_, _| 1.0);
        assert!((hot - 2.0 * base).abs() < 1e-9);
        assert_eq!(pt.contended_delay(&ov, a, a, |_, _| 1.0), 0.0);
    }

    #[test]
    fn self_path_is_trivial() {
        let ov = overlay();
        let mut pt = PathTable::new();
        let p = PeerId::new(9);
        assert_eq!(pt.peer_path(&ov, p, p).unwrap(), vec![p]);
    }

    #[test]
    fn geo_mode_answers_without_building_trees() {
        use spidernet_topology::overlay::GeoConfig;
        let ov = Overlay::build_geo(&GeoConfig { peers: 64, ..GeoConfig::default() }, 11);
        let mut pt = PathTable::new();
        let (a, b) = (PeerId::new(4), PeerId::new(40));
        let d = pt.delay(&ov, a, b);
        assert!((d - ov.route_delay(a, b)).abs() < 1e-12);
        assert_eq!(pt.peer_path(&ov, a, b).unwrap(), vec![a, b]);
        let cap = pt.bottleneck(&ov, a, b).unwrap();
        let expect = ov.access_capacity(a).unwrap().min(ov.access_capacity(b).unwrap());
        assert!((cap - expect).abs() < 1e-12);
        assert_eq!(pt.cached_sources(), 0, "geo queries must not build SSSP trees");
        assert!(pt.trees.is_empty(), "geo queries must not allocate the row table");
    }
}
