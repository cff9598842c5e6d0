//! Wide-area latency model.
//!
//! The prototype ran on 102 PlanetLab hosts "distributed across U.S. and
//! Europe". We assign each peer to a region and give each message a
//! one-way delay from measured-RTT-scale ranges: intra-region tens of
//! milliseconds, transcontinental ~35–45 ms one-way, transatlantic
//! ~45–75 ms one-way, plus multiplicative jitter keyed by the message's
//! content ([`WanModel::delay_keyed`]). A daemon's `time_scale`
//! compresses wall-clock time without changing reported model-time
//! numbers.

use spidernet_util::id::PeerId;
use spidernet_util::rng::splitmix64;

/// Deployment region of a peer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Region {
    /// US east coast.
    UsEast,
    /// US west coast.
    UsWest,
    /// Europe.
    Europe,
}

impl Region {
    /// All regions.
    pub const ALL: [Region; 3] = [Region::UsEast, Region::UsWest, Region::Europe];
}

/// One-way base delay between two regions, ms (PlanetLab-era RTT/2).
fn base_delay_ms(a: Region, b: Region) -> f64 {
    use Region::*;
    match (a, b) {
        (UsEast, UsEast) | (UsWest, UsWest) => 12.0,
        (Europe, Europe) => 15.0,
        (UsEast, UsWest) | (UsWest, UsEast) => 38.0,
        (UsEast, Europe) | (Europe, UsEast) => 48.0,
        (UsWest, Europe) | (Europe, UsWest) => 72.0,
    }
}

/// The per-deployment latency model: region assignment plus jitter.
#[derive(Clone, Debug)]
pub struct WanModel {
    regions: Vec<Region>,
    /// Multiplicative jitter bound: each message's delay is scaled by a
    /// factor in `[1, 1 + jitter]`, uniform over message keys.
    pub jitter: f64,
    seed: u64,
}

impl WanModel {
    /// Assigns `peers` round-robin across regions (roughly the paper's
    /// US-heavy mix: two US regions to one European).
    pub fn new(peers: usize, jitter: f64, seed: u64) -> Self {
        let regions = (0..peers).map(|i| Region::ALL[i % 3]).collect();
        WanModel { regions, jitter, seed }
    }

    /// Number of modeled peers.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// True if no peers are modeled.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// A peer's region.
    pub fn region(&self, p: PeerId) -> Region {
        self.regions[p.index()]
    }

    /// Deterministic per-pair base one-way delay (no jitter), ms.
    pub fn base_ms(&self, a: PeerId, b: PeerId) -> f64 {
        if a == b {
            return 0.0;
        }
        base_delay_ms(self.region(a), self.region(b))
    }

    /// Content-keyed message delay `a → b`, ms: the jitter factor is a
    /// pure function of `(seed, a, b, salt)` rather than a draw from a
    /// stateful stream. Two transports (or two runs) delivering the same
    /// message between the same pair compute the same delay regardless of
    /// scheduling order — the foundation of cross-transport determinism.
    pub fn delay_keyed(&self, a: PeerId, b: PeerId, salt: u64) -> f64 {
        let base = self.base_ms(a, b);
        if base == 0.0 {
            return 0.0;
        }
        let mut h = splitmix64(self.seed ^ 0x57414e5f44454c59); // "WAN_DELY"
        h = splitmix64(h ^ a.raw());
        h = splitmix64(h ^ b.raw().rotate_left(32));
        h = splitmix64(h ^ salt);
        // Top 53 bits → uniform in [0, 1), same construction as Rng's f64.
        let unit = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        base * (1.0 + unit * self.jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_round_robin() {
        let m = WanModel::new(9, 0.2, 1);
        assert_eq!(m.len(), 9);
        assert_eq!(m.region(PeerId::new(0)), Region::UsEast);
        assert_eq!(m.region(PeerId::new(1)), Region::UsWest);
        assert_eq!(m.region(PeerId::new(2)), Region::Europe);
        assert_eq!(m.region(PeerId::new(3)), Region::UsEast);
    }

    #[test]
    fn base_delays_are_symmetric_and_ordered() {
        let m = WanModel::new(6, 0.0, 1);
        let (e, w, eu) = (PeerId::new(0), PeerId::new(1), PeerId::new(2));
        assert_eq!(m.base_ms(e, w), m.base_ms(w, e));
        // Transatlantic beats transcontinental beats intra-region.
        assert!(m.base_ms(w, eu) > m.base_ms(e, w));
        assert!(m.base_ms(e, w) > m.base_ms(e, PeerId::new(3)));
        assert_eq!(m.base_ms(e, e), 0.0);
    }

    #[test]
    fn keyed_delays_are_pure_and_bounded() {
        let m = WanModel::new(6, 0.4, 11);
        let (a, b) = (PeerId::new(0), PeerId::new(1));
        let base = m.base_ms(a, b);
        for salt in 0..200u64 {
            let d = m.delay_keyed(a, b, salt);
            assert!(d >= base && d <= base * 1.4 + 1e-9);
            // Pure: same inputs, same output.
            assert_eq!(d, m.delay_keyed(a, b, salt));
        }
        // Different salts actually vary the jitter.
        assert_ne!(m.delay_keyed(a, b, 1), m.delay_keyed(a, b, 2));
        // Direction matters (one-way paths jitter independently).
        assert_ne!(m.delay_keyed(a, b, 1), m.delay_keyed(b, a, 1));
        assert_eq!(m.delay_keyed(a, a, 9), 0.0);
    }
}
