//! Cached overlay shortest paths.
//!
//! Service links map onto overlay network paths (paper §2.2); pricing a
//! candidate service graph therefore needs, for arbitrary peer pairs, the
//! overlay path's delay, its node sequence (for bandwidth accounting), and
//! its bottleneck capacity. This table memoizes one overlay SSSP per
//! queried source.

use spidernet_topology::routing::{dijkstra, PairDelayCache, PathResult};
use spidernet_topology::Overlay;
use spidernet_util::hash::FxHashMap;
use spidernet_util::id::PeerId;

/// Per-source shortest-path cache over the overlay graph, fronted by a
/// symmetric per-pair delay memo so hot leg lookups (baseline enumeration,
/// BCP leg pricing) skip the tree walk entirely.
///
/// Nothing is ever invalidated: the overlay graph is immutable and routing
/// ignores peer liveness, so cached trees and pair delays stay exact
/// through churn.
///
/// In the geometric (scale) overlay mode every query is answered in O(1)
/// from coordinates — no SSSP tree or pair memo is ever built, which is
/// what lets one machine hold 10^5–10^6 peers.
#[derive(Clone, Debug, Default)]
pub struct PathTable {
    cache: FxHashMap<PeerId, PathResult>,
    pairs: PairDelayCache,
}

impl PathTable {
    /// An empty table.
    pub fn new() -> Self {
        PathTable::default()
    }

    fn sssp(&mut self, overlay: &Overlay, from: PeerId) -> &PathResult {
        self.cache
            .entry(from)
            .or_insert_with(|| dijkstra(overlay.graph(), from.index()))
    }

    /// Overlay-routed one-way delay `from → to`, ms.
    ///
    /// Served from the pair memo when warm; otherwise answered by `from`'s
    /// SSSP tree and memoized. The memo is direction-preserving — a hit
    /// returns the exact bits the producing tree computed, never the
    /// reverse tree's ulp-sibling.
    pub fn delay(&mut self, overlay: &Overlay, from: PeerId, to: PeerId) -> f64 {
        if from == to {
            return 0.0;
        }
        if let Some(d) = overlay.direct_delay(from, to) {
            return d;
        }
        if let Some(d) = self.pairs.get(from.index(), to.index()) {
            return d;
        }
        let d = self.sssp(overlay, from).delay_to(to.index());
        self.pairs.insert(from.index(), to.index(), d);
        d
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
        self.sssp(overlay, from)
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
        let res = self.sssp(overlay, from);
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
    /// saturated one twice that.
    ///
    /// Deliberately **bypasses the pair-delay memo**: the memo caches
    /// *uncongested* shortest-path delays, and serving those while flows
    /// load the route would report stale QoS (the same staleness class
    /// the PR8 compose-cache watermark fixed). Bypasses are counted
    /// ([`PathTable::pair_bypasses`]) so the extra tree walks stay
    /// visible next to the memo's hits/misses.
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
        self.pairs.note_bypass();
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

    /// Number of cached sources.
    pub fn cached_sources(&self) -> usize {
        self.cache.len()
    }

    /// Number of memoized point-to-point delay pairs.
    pub fn cached_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Pair-memo inserts refused because the memo was at capacity. Feeds
    /// the `topology.pair_cache_evictions` counter so a saturated memo
    /// (silent until now) is visible in exported metrics.
    pub fn pair_rejections(&self) -> u64 {
        self.pairs.rejected()
    }

    /// Pair-memo lookups served without a tree walk (feeds the
    /// `topology.pair_cache_hits` counter).
    pub fn pair_hits(&self) -> u64 {
        self.pairs.hits()
    }

    /// Pair-memo lookups that fell through to an SSSP tree (feeds the
    /// `topology.pair_cache_misses` counter).
    pub fn pair_misses(&self) -> u64 {
        self.pairs.misses()
    }

    /// Lookups that skipped the memo for contention-aware delays (feeds
    /// the `topology.pair_cache_bypasses` counter).
    pub fn pair_bypasses(&self) -> u64 {
        self.pairs.bypasses()
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
    fn caches_one_tree_per_source() {
        let ov = overlay();
        let mut pt = PathTable::new();
        pt.delay(&ov, PeerId::new(0), PeerId::new(1));
        pt.delay(&ov, PeerId::new(0), PeerId::new(2));
        assert_eq!(pt.cached_sources(), 1);
    }

    #[test]
    fn contended_delay_bypasses_the_pair_memo() {
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
        assert_eq!(pt.pair_bypasses(), 2, "every contended query bypasses the memo");
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
        assert_eq!(pt.cached_pairs(), 0, "geo queries must not fill the pair memo");
    }
}
