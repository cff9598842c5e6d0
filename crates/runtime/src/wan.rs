//! Wide-area latency model.
//!
//! The prototype ran on 102 PlanetLab hosts "distributed across U.S. and
//! Europe". We assign each peer to a region and draw per-message one-way
//! delays from measured-RTT-scale ranges: intra-region tens of
//! milliseconds, transcontinental ~35–45 ms one-way, transatlantic
//! ~45–75 ms one-way, plus multiplicative jitter. A daemon's `time_scale`
//! compresses wall-clock time without changing reported model-time
//! numbers.

use spidernet_util::id::PeerId;
use spidernet_util::rng::{rng_for_indexed, splitmix64, Rng};

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
    /// factor drawn uniformly from `[1, 1 + jitter]`.
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

    /// One sampled message delay `a → b`, ms (jittered).
    pub fn sample_ms(&self, a: PeerId, b: PeerId, rng: &mut Rng) -> f64 {
        let base = self.base_ms(a, b);
        if base == 0.0 {
            return 0.0;
        }
        base * (1.0 + rng.gen::<f64>() * self.jitter)
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

    /// A deterministic RNG for one peer's message stream.
    pub fn rng_for_peer(&self, p: PeerId) -> Rng {
        rng_for_indexed(self.seed, "wan", p.raw())
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
    fn jitter_bounds_hold() {
        let m = WanModel::new(4, 0.5, 2);
        let mut rng = m.rng_for_peer(PeerId::new(0));
        let base = m.base_ms(PeerId::new(0), PeerId::new(1));
        for _ in 0..100 {
            let d = m.sample_ms(PeerId::new(0), PeerId::new(1), &mut rng);
            assert!(d >= base && d <= base * 1.5 + 1e-9);
        }
    }

    #[test]
    fn self_delay_is_zero_even_with_jitter() {
        let m = WanModel::new(4, 0.5, 3);
        let mut rng = m.rng_for_peer(PeerId::new(1));
        assert_eq!(m.sample_ms(PeerId::new(1), PeerId::new(1), &mut rng), 0.0);
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

    #[test]
    fn peer_streams_are_deterministic() {
        let m = WanModel::new(4, 0.3, 4);
        let mut a = m.rng_for_peer(PeerId::new(2));
        let mut b = m.rng_for_peer(PeerId::new(2));
        for _ in 0..10 {
            assert_eq!(
                m.sample_ms(PeerId::new(2), PeerId::new(3), &mut a),
                m.sample_ms(PeerId::new(2), PeerId::new(3), &mut b)
            );
        }
    }
}
