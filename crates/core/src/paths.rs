//! Cached overlay shortest paths.
//!
//! Service links map onto overlay network paths (paper §2.2); pricing a
//! candidate service graph therefore needs, for arbitrary peer pairs, the
//! overlay path's delay and the overlay links it crosses (for bandwidth
//! accounting). This table keeps one overlay SSSP row per queried source,
//! so every pair query is an array index into that row and a route is a
//! walk of the row's tree edges by link id.

use spidernet_topology::routing::{dijkstra, PathResult};
use spidernet_topology::{Hop, Overlay};
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

/// Delays from one source, answered by one read of its row
/// ([`PathTable::delays_from`]).
pub struct DelayRow<'a> {
    overlay: &'a Overlay,
    from: PeerId,
    row: Option<&'a PathResult>,
}

impl DelayRow<'_> {
    /// Overlay-routed one-way delay from the row's source to `to`, ms: the
    /// bits [`PathTable::delay`] returns.
    #[inline]
    pub fn to(&self, to: PeerId) -> f64 {
        if to == self.from {
            return 0.0;
        }
        match self.row {
            Some(row) => row.delay_to(to.index()),
            None => self
                .overlay
                .direct_delay(self.from, to)
                .expect("`reads` undercounts the batch's queries to other peers"),
        }
    }
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

    /// Delays from `from` for a batch of `reads` queries to peers other
    /// than `from`: one row read serves the batch, and the counters move
    /// as `reads` calls of [`PathTable::delay`] would move them (no row is
    /// built when `reads` is 0).
    pub fn delays_from<'a>(
        &'a mut self,
        overlay: &'a Overlay,
        from: PeerId,
        reads: u64,
    ) -> DelayRow<'a> {
        let row = if reads == 0 || overlay.is_geo() {
            None
        } else {
            self.row_hits += reads - 1;
            Some(self.row(overlay, from))
        };
        DelayRow { overlay, from, row }
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

    /// Walks the overlay route `from → to`, passing each of its hops to
    /// `hop`: on a graph overlay the links of `from`'s shortest-path tree,
    /// from `to` back to `from`; on a geometric overlay the one direct
    /// hop. Returns `false` if the pair is disconnected. A self-route
    /// crosses nothing and reads no row. The links are those of
    /// [`PathTable::peer_path`], read without a path buffer — the hot
    /// candidate-evaluation loop calls this once per service link.
    #[inline]
    pub fn route(
        &mut self,
        overlay: &Overlay,
        from: PeerId,
        to: PeerId,
        mut hop: impl FnMut(Hop),
    ) -> bool {
        if from == to {
            return true;
        }
        if overlay.is_geo() {
            hop(Hop::direct(from, to));
            return true;
        }
        self.row(overlay, from).walk_to(to.index(), |id| hop(Hop::Link(id)))
    }

    /// Contention-aware one-way delay `from → to`, ms: the static
    /// per-hop delays inflated by `stress`, the caller's view of each
    /// hop's current load (`ρ ∈ [0, 1]`, e.g.
    /// `OverlayState::link_stress`). Each hop contributes
    /// `delay × (1 + ρ)` — an uncontended hop costs its static delay, a
    /// saturated one twice that. The route comes from `from`'s row, but
    /// the hop delays are summed afresh, from `from` to `to`: the row's
    /// distances are uncongested, and serving them while flows load the
    /// route would report stale QoS.
    pub fn contended_delay(
        &mut self,
        overlay: &Overlay,
        from: PeerId,
        to: PeerId,
        mut stress: impl FnMut(Hop) -> f64,
    ) -> f64 {
        if from == to {
            return 0.0;
        }
        if overlay.is_geo() {
            let base = overlay.direct_delay(from, to).unwrap_or(f64::INFINITY);
            return base * (1.0 + stress(Hop::direct(from, to)).clamp(0.0, 1.0));
        }
        let mut links = Vec::new();
        if !self.row(overlay, from).walk_to(to.index(), |id| links.push(id)) {
            return f64::INFINITY;
        }
        let mut total = 0.0;
        for &id in links.iter().rev() {
            let hop = overlay.graph().edge_attrs(id).delay_ms;
            total += hop * (1.0 + stress(Hop::Link(id)).clamp(0.0, 1.0));
        }
        total
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
        for &s in &sources {
            for t in 0..n {
                let (a, b) = (PeerId::new(s), PeerId::new(t));
                pt.delay(&ov, a, b);
                pt.route(&ov, a, b, |_| {});
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
        let calm = pt.contended_delay(&ov, a, b, |_| 0.0);
        assert!((calm - base).abs() < 1e-9);
        // Saturated hops cost double.
        let hot = pt.contended_delay(&ov, a, b, |_| 1.0);
        assert!((hot - 2.0 * base).abs() < 1e-9);
        assert_eq!(pt.contended_delay(&ov, a, a, |_| 1.0), 0.0);
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
        let mut hops = Vec::new();
        assert!(pt.route(&ov, b, a, |h| hops.push(h)));
        assert_eq!(hops, vec![Hop::Direct(4, 40)], "one direct hop, keyed (lo, hi)");
        assert_eq!(pt.delays_from(&ov, a, 3).to(b).to_bits(), d.to_bits());
        assert_eq!(pt.cached_sources(), 0, "geo queries must not build SSSP trees");
        assert!(pt.trees.is_empty(), "geo queries must not allocate the row table");
    }

    #[test]
    fn delay_rows_read_and_count_like_single_delays() {
        let ov = overlay();
        let n = ov.peer_count() as u64;
        let (mut one, mut batch) = (PathTable::new(), PathTable::new());
        // A batch of self-queries reads no row, so it builds none.
        let from = PeerId::new(8);
        assert_eq!(batch.delays_from(&ov, from, 0).to(from), 0.0);
        assert_eq!(batch.cached_sources(), 0);
        // Two rounds: the first builds each row, the second hits it.
        for _ in 0..2 {
            for s in [8u64, 2, 21] {
                let from = PeerId::new(s);
                let targets: Vec<PeerId> = (0..n).step_by(3).map(PeerId::new).collect();
                let reads = targets.iter().filter(|&&t| t != from).count() as u64;
                let row = batch.delays_from(&ov, from, reads);
                let got: Vec<u64> = targets.iter().map(|&t| row.to(t).to_bits()).collect();
                let want: Vec<u64> =
                    targets.iter().map(|&t| one.delay(&ov, from, t).to_bits()).collect();
                assert_eq!(got, want, "source {s}");
            }
            assert_eq!((batch.row_hits(), batch.row_misses()), (one.row_hits(), one.row_misses()));
        }
        assert_eq!(batch.row_misses(), 3);
    }

    #[test]
    fn route_walk_matches_the_peer_path_and_its_headroom() {
        use crate::state::OverlayState;
        use spidernet_util::res::ResourceVector;
        let ov = overlay();
        let n = ov.peer_count() as u64;
        let mut pt = PathTable::new();
        let mut state = OverlayState::new(&ov, ResourceVector::new(1.0, 256.0));
        // For every ordered pair, the walk's hops must be the links of the
        // peer path, and its headroom the path's bottleneck under `free`.
        let check = |pt: &mut PathTable, state: &OverlayState, free: &dyn Fn(PeerId, PeerId) -> f64| {
            for (a, b) in (0..n).flat_map(|a| (0..n).map(move |b| (a, b))).filter(|(a, b)| a != b) {
                let (a, b) = (PeerId::new(a), PeerId::new(b));
                let path = pt.peer_path(&ov, a, b).unwrap();
                let mut want: Vec<Hop> = path
                    .windows(2)
                    .map(|w| Hop::Link(ov.graph().edge_id(w[0].index(), w[1].index()).unwrap()))
                    .collect();
                let want_headroom =
                    path.windows(2).map(|w| free(w[0], w[1])).fold(f64::INFINITY, f64::min);
                let mut hops = Vec::new();
                let mut headroom = f64::INFINITY;
                assert!(pt.route(&ov, a, b, |h| {
                    hops.push(h);
                    headroom = headroom.min(state.hop_available(h));
                }));
                hops.sort_unstable();
                want.sort_unstable();
                assert_eq!(hops, want, "{a} -> {b}");
                assert_eq!(headroom.to_bits(), want_headroom.to_bits(), "{a} -> {b}");
            }
        };
        // Untouched links offer their static capacity; a self-route
        // crosses nothing.
        check(&mut pt, &state, &|x, y| ov.link(x, y).unwrap().capacity_mbps);
        assert!(pt.route(&ov, PeerId::new(4), PeerId::new(4), |_| panic!("a self-route crosses no hop")));
        let path = pt.peer_path(&ov, PeerId::new(0), PeerId::new(17)).unwrap();
        assert!(path.len() > 2, "the committed route must cross several links");
        let demand = state.path_demand(&[(path, 7.5)]).unwrap();
        state.commit(&[], &demand).unwrap();
        check(&mut pt, &state, &|x, y| state.link_available(x, y));
        state.fail_peer(PeerId::new(3));
        check(&mut pt, &state, &|x, y| state.link_available(x, y));
        assert!(
            ov.neighbors(PeerId::new(3)).all(|(p, _)| state.link_available(PeerId::new(3), p) == 0.0),
            "a dead peer's links offer nothing"
        );
    }
}
