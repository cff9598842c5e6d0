//! Decentralized trust management (the paper's §8 future work:
//! "we will integrate decentralized trust management into the current
//! service composition framework to support secure service composition").
//!
//! Each peer keeps *direct experience* scores about the peers whose
//! components served its sessions, using a beta-reputation model: a peer's
//! trust is `(α + 1) / (α + β + 2)` where α counts positive outcomes
//! (sessions served to completion) and β negative ones (failures,
//! admission lies, bad frames). Scores decay toward the prior so stale
//! history fades — a peer that misbehaved long ago can redeem itself, and
//! a long-idle good reputation is not blindly trusted.
//!
//! BCP's composite next-hop metric takes a `w_trust · (1 − trust)` term
//! ([`crate::bcp::BcpConfig::w_trust`]), steering probes away from
//! distrusted hosts.
//!
//! In the simulator one [`TrustManager`] instance holds every peer's
//! observation table, sharded by observer — semantically the same as each
//! peer storing its own table, since all reads/writes go through an
//! observer argument.

use spidernet_util::id::PeerId;

/// Outcome of one interaction with a peer's component.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Experience {
    /// The component served its session to completion.
    Positive,
    /// The component failed mid-session, rejected a confirmed reservation,
    /// or delivered corrupt output.
    Negative,
}

#[derive(Clone, Copy, Debug, Default)]
struct Record {
    alpha: f64,
    beta: f64,
}

impl Record {
    fn trust(&self) -> f64 {
        (self.alpha + 1.0) / (self.alpha + self.beta + 2.0)
    }
}

/// Beta-reputation trust tables, sharded by observing peer.
///
/// Stored as a structure-of-arrays keyed by dense peer index: each
/// observer's records live in a subject-sorted `Vec`, and a per-subject
/// index lists (in ascending observer order) exactly the observers holding
/// a record on that subject. [`TrustManager::aggregate_trust`] therefore
/// walks only the recording observers — O(#records on subject), not
/// O(population) — while summing in the same ascending-observer order the
/// old map-of-maps layout used. Float addition is not associative, and the
/// aggregate feeds BCP's candidate ranking, so that order is part of the
/// behavior contract.
#[derive(Clone, Debug, Default)]
pub struct TrustManager {
    /// `tables[observer.index()]` = subject-sorted records.
    tables: Vec<Vec<(PeerId, Record)>>,
    /// `by_subject[subject.index()]` = ascending observer indices holding a
    /// record on the subject.
    by_subject: Vec<Vec<u32>>,
    /// Multiplicative decay applied to both counters by [`TrustManager::decay_all`].
    decay: f64,
    /// Marketplace delivery reputations (observed vs promised rates).
    market: Marketplace,
}

impl TrustManager {
    /// A manager with the given per-round decay factor in (0, 1]; 1.0
    /// disables decay.
    pub fn new(decay: f64) -> Self {
        assert!(decay > 0.0 && decay <= 1.0, "decay must be in (0, 1]");
        TrustManager {
            tables: Vec::new(),
            by_subject: Vec::new(),
            decay,
            market: Marketplace::default(),
        }
    }

    /// The marketplace delivery reputations.
    pub fn market(&self) -> &Marketplace {
        &self.market
    }

    /// Mutable marketplace reputations (delivery observations, decay,
    /// pruning). Callers owning a compose cache must count this as a
    /// trust mutation.
    pub fn market_mut(&mut self) -> &mut Marketplace {
        &mut self.market
    }

    /// Records one experience `observer` had with `subject`.
    pub fn record(&mut self, observer: PeerId, subject: PeerId, exp: Experience) {
        let oi = observer.index();
        if oi >= self.tables.len() {
            self.tables.resize_with(oi + 1, Vec::new);
        }
        let row = &mut self.tables[oi];
        let rec = match row.binary_search_by_key(&subject, |&(s, _)| s) {
            Ok(pos) => &mut row[pos].1,
            Err(pos) => {
                row.insert(pos, (subject, Record::default()));
                let si = subject.index();
                if si >= self.by_subject.len() {
                    self.by_subject.resize_with(si + 1, Vec::new);
                }
                let observers = &mut self.by_subject[si];
                let at = observers.partition_point(|&o| (o as usize) < oi);
                observers.insert(at, oi as u32);
                &mut row[pos].1
            }
        };
        match exp {
            Experience::Positive => rec.alpha += 1.0,
            Experience::Negative => rec.beta += 1.0,
        }
    }

    /// `observer`'s direct trust in `subject`, in (0, 1). A peer with no
    /// history gets the neutral prior 0.5.
    pub fn trust(&self, observer: PeerId, subject: PeerId) -> f64 {
        self.tables
            .get(observer.index())
            .and_then(|row| {
                row.binary_search_by_key(&subject, |&(s, _)| s)
                    .ok()
                    .map(|pos| row[pos].1.trust())
            })
            .unwrap_or(0.5)
    }

    /// Network-wide aggregate trust in `subject`: the mean of all
    /// observers' direct scores (neutral 0.5 when nobody has history).
    /// This is the value the composition engine uses, standing in for a
    /// gossip/aggregation protocol.
    pub fn aggregate_trust(&self, subject: PeerId) -> f64 {
        let Some(observers) = self.by_subject.get(subject.index()) else {
            return 0.5;
        };
        if observers.is_empty() {
            return 0.5;
        }
        let mut sum = 0.0;
        for &oi in observers {
            let row = &self.tables[oi as usize];
            let pos = row
                .binary_search_by_key(&subject, |&(s, _)| s)
                .expect("by_subject index out of sync with tables");
            sum += row[pos].1.trust();
        }
        sum / observers.len() as f64
    }

    /// Applies one round of decay to every record (call once per time
    /// unit / maintenance round).
    pub fn decay_all(&mut self) {
        if self.decay >= 1.0 {
            return;
        }
        for row in &mut self.tables {
            for (_, rec) in row.iter_mut() {
                rec.alpha *= self.decay;
                rec.beta *= self.decay;
            }
        }
    }

    /// Records feedback for every peer hosting a component of a finished
    /// session's service graph.
    pub fn record_session_outcome(
        &mut self,
        observer: PeerId,
        peers: impl IntoIterator<Item = PeerId>,
        exp: Experience,
    ) {
        for p in peers {
            self.record(observer, p, exp);
        }
    }

    /// Number of (observer, subject) records held.
    pub fn record_count(&self) -> usize {
        self.tables.iter().map(Vec::len).sum()
    }
}

/// Optimistic prior for peers with no delivery history: new sellers bid
/// at full reputation so the market explores them.
const MARKET_PRIOR: f64 = 1.0;
/// EWMA gain for delivery observations.
const MARKET_GAIN: f64 = 0.3;

#[derive(Clone, Copy, Debug)]
struct RepEntry {
    score: f64,
    observations: u64,
}

/// ICN-style marketplace delivery reputation (planetary-mesh bidding:
/// latency × residual capacity × reputation).
///
/// Each hosting peer is a "seller" whose reputation is an EWMA of
/// *observed vs promised* delivery — the fraction of a session's demanded
/// stream bandwidth its flows actually received
/// ([`crate::state::OverlayState::delivered_fraction`]). A seller that
/// keeps promising bandwidth it cannot deliver under contention sees its
/// bids discounted, steering the marketplace policy off congested
/// hotspots that the paper's static metric cannot see.
#[derive(Clone, Debug, Default)]
pub struct Marketplace {
    /// Dense per-peer entries; absent ⇒ the optimistic prior.
    rep: Vec<RepEntry>,
}

impl Marketplace {
    /// Folds one observed delivery fraction (`delivered / promised`,
    /// clamped to [0, 1]) into `peer`'s reputation. NaN observations are
    /// ignored — a reputation must never be poisoned into unorderable
    /// territory by one bad measurement.
    pub fn observe(&mut self, peer: PeerId, delivered_fraction: f64) {
        if delivered_fraction.is_nan() {
            return;
        }
        let i = peer.index();
        if i >= self.rep.len() {
            self.rep.resize(i + 1, RepEntry { score: MARKET_PRIOR, observations: 0 });
        }
        let e = &mut self.rep[i];
        let obs = delivered_fraction.clamp(0.0, 1.0);
        e.score += MARKET_GAIN * (obs - e.score);
        e.observations += 1;
    }

    /// `peer`'s delivery reputation in [0, 1]; the optimistic prior 1.0
    /// with zero observations.
    pub fn reputation(&self, peer: PeerId) -> f64 {
        self.rep
            .get(peer.index())
            .filter(|e| e.observations > 0)
            .map(|e| e.score)
            .unwrap_or(MARKET_PRIOR)
    }

    /// How many deliveries have been observed for `peer`.
    pub fn observations(&self, peer: PeerId) -> u64 {
        self.rep.get(peer.index()).map(|e| e.observations).unwrap_or(0)
    }

    /// Relaxes every reputation toward the prior by `factor ∈ (0, 1]`:
    /// `score ← prior + (score − prior) · factor`. A factor of exactly
    /// 1.0 is a bitwise no-op (the boundary the unit tests pin) — stale
    /// verdicts only fade when the caller opts in.
    pub fn decay(&mut self, factor: f64) {
        assert!(factor > 0.0 && factor <= 1.0, "decay factor must be in (0, 1]");
        if factor >= 1.0 {
            return;
        }
        for e in &mut self.rep {
            e.score = MARKET_PRIOR + (e.score - MARKET_PRIOR) * factor;
        }
    }

    /// Resets dead peers to the prior with zero observations (a revived
    /// peer restarts its components; stale delivery verdicts against the
    /// old incarnation would misprice the new one). Returns how many
    /// entries were pruned.
    pub fn prune_dead(&mut self, mut is_alive: impl FnMut(PeerId) -> bool) -> usize {
        let mut pruned = 0;
        for (i, e) in self.rep.iter_mut().enumerate() {
            if e.observations > 0 && !is_alive(PeerId::from(i)) {
                *e = RepEntry { score: MARKET_PRIOR, observations: 0 };
                pruned += 1;
            }
        }
        pruned
    }

    /// The marketplace bid for hosting on `peer`: higher is better.
    ///
    /// `bid = reputation × residual-headroom / (1 + delay_ms)` — the
    /// ICN latency × capacity × reputation form with latency inverted so
    /// all three factors point the same way. Non-finite delay or NaN
    /// headroom yield a zero bid (never NaN), so bid lists stay totally
    /// ordered under `f64::total_cmp`.
    pub fn bid(&self, peer: PeerId, delay_ms: f64, headroom: f64) -> f64 {
        if !delay_ms.is_finite() {
            return 0.0;
        }
        let h = if headroom.is_nan() { 0.0 } else { headroom.clamp(0.0, 1.0) };
        self.reputation(peer) * h / (1.0 + delay_ms.max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u64) -> PeerId {
        PeerId::new(i)
    }

    #[test]
    fn unknown_peers_get_neutral_prior() {
        let tm = TrustManager::new(1.0);
        assert_eq!(tm.trust(p(0), p(1)), 0.5);
        assert_eq!(tm.aggregate_trust(p(1)), 0.5);
    }

    #[test]
    fn positive_experience_raises_trust_negative_lowers() {
        let mut tm = TrustManager::new(1.0);
        tm.record(p(0), p(1), Experience::Positive);
        assert!(tm.trust(p(0), p(1)) > 0.5);
        tm.record(p(0), p(2), Experience::Negative);
        assert!(tm.trust(p(0), p(2)) < 0.5);
    }

    #[test]
    fn trust_converges_with_evidence() {
        let mut tm = TrustManager::new(1.0);
        for _ in 0..100 {
            tm.record(p(0), p(1), Experience::Positive);
        }
        assert!(tm.trust(p(0), p(1)) > 0.95);
        for _ in 0..100 {
            tm.record(p(0), p(2), Experience::Negative);
        }
        assert!(tm.trust(p(0), p(2)) < 0.05);
        // Bounded away from 0 and 1 (beta prior).
        assert!(tm.trust(p(0), p(1)) < 1.0);
        assert!(tm.trust(p(0), p(2)) > 0.0);
    }

    #[test]
    fn trust_is_per_observer() {
        let mut tm = TrustManager::new(1.0);
        tm.record(p(0), p(9), Experience::Negative);
        tm.record(p(1), p(9), Experience::Positive);
        assert!(tm.trust(p(0), p(9)) < 0.5);
        assert!(tm.trust(p(1), p(9)) > 0.5);
    }

    #[test]
    fn aggregate_averages_observers() {
        let mut tm = TrustManager::new(1.0);
        tm.record(p(0), p(9), Experience::Negative);
        tm.record(p(1), p(9), Experience::Positive);
        let agg = tm.aggregate_trust(p(9));
        assert!((agg - 0.5).abs() < 1e-12, "symmetric evidence should average to 0.5, got {agg}");
    }

    #[test]
    fn decay_fades_history_toward_prior() {
        let mut tm = TrustManager::new(0.5);
        for _ in 0..20 {
            tm.record(p(0), p(1), Experience::Negative);
        }
        let before = tm.trust(p(0), p(1));
        for _ in 0..10 {
            tm.decay_all();
        }
        let after = tm.trust(p(0), p(1));
        assert!(after > before, "decay should move toward the prior");
        assert!((after - 0.5).abs() < 0.05, "long decay approaches neutral, got {after}");
    }

    #[test]
    fn no_decay_when_factor_is_one() {
        let mut tm = TrustManager::new(1.0);
        tm.record(p(0), p(1), Experience::Positive);
        let before = tm.trust(p(0), p(1));
        tm.decay_all();
        assert_eq!(tm.trust(p(0), p(1)), before);
    }

    #[test]
    fn session_outcome_touches_all_hosts() {
        let mut tm = TrustManager::new(1.0);
        tm.record_session_outcome(p(0), [p(1), p(2), p(3)], Experience::Positive);
        for i in 1..=3 {
            assert!(tm.trust(p(0), p(i)) > 0.5);
        }
        assert_eq!(tm.record_count(), 3);
    }

    #[test]
    #[should_panic(expected = "decay must be in")]
    fn zero_decay_rejected() {
        TrustManager::new(0.0);
    }

    #[test]
    fn market_zero_observations_yield_the_optimistic_prior() {
        let m = Marketplace::default();
        assert_eq!(m.reputation(p(7)), 1.0, "unseen peers bid at full reputation");
        assert_eq!(m.observations(p(7)), 0);
        let mut m = m;
        // An entry allocated by a neighbor's observation still reports
        // the prior until the peer itself is observed.
        m.observe(p(9), 0.5);
        assert_eq!(m.reputation(p(7)), 1.0);
        assert_eq!(m.observations(p(9)), 1);
        assert!(m.reputation(p(9)) < 1.0);
    }

    #[test]
    fn market_nan_observations_are_ignored_and_bids_stay_orderable() {
        let mut m = Marketplace::default();
        m.observe(p(1), 0.25);
        let before = m.reputation(p(1));
        m.observe(p(1), f64::NAN);
        assert_eq!(m.reputation(p(1)).to_bits(), before.to_bits(), "NaN must not poison");
        assert_eq!(m.observations(p(1)), 1, "NaN is not an observation");
        // Bids from pathological inputs are 0, never NaN, so a candidate
        // list sorts deterministically under total_cmp.
        let mut bids = [
            m.bid(p(1), f64::INFINITY, 1.0),
            m.bid(p(1), 10.0, f64::NAN),
            m.bid(p(1), 10.0, 0.5),
            m.bid(p(2), 0.0, 1.0),
        ];
        assert!(bids.iter().all(|b| !b.is_nan()));
        bids.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(bids[0], 0.0);
        assert_eq!(bids[1], 0.0);
        assert!(bids[3] > bids[2]);
    }

    #[test]
    fn market_decay_at_the_boundary_is_a_bitwise_noop() {
        let mut m = Marketplace::default();
        m.observe(p(3), 0.1);
        m.observe(p(3), 0.4);
        let before = m.reputation(p(3));
        m.decay(1.0);
        assert_eq!(m.reputation(p(3)).to_bits(), before.to_bits(), "factor 1.0 must not drift");
        // A real decay relaxes toward the prior from below.
        m.decay(0.5);
        let after = m.reputation(p(3));
        assert!(after > before && after < 1.0, "{before} → {after}");
        for _ in 0..200 {
            m.decay(0.5);
        }
        assert!((m.reputation(p(3)) - 1.0).abs() < 1e-9, "long decay approaches the prior");
    }

    #[test]
    fn market_prunes_dead_peers_back_to_the_prior() {
        let mut m = Marketplace::default();
        m.observe(p(0), 0.2);
        m.observe(p(2), 0.9);
        let alive = [true, true, false];
        assert_eq!(m.prune_dead(|peer| alive[peer.index()]), 1);
        assert_eq!(m.reputation(p(2)), 1.0, "dead peer's verdicts are dropped");
        assert_eq!(m.observations(p(2)), 0);
        assert!(m.reputation(p(0)) < 1.0, "live peers keep their history");
        // Idempotent: nothing left to prune.
        assert_eq!(m.prune_dead(|peer| alive[peer.index()]), 0);
    }

    #[test]
    fn market_bid_combines_latency_capacity_and_reputation() {
        let mut m = Marketplace::default();
        m.observe(p(1), 1.0); // perfect deliverer
        for _ in 0..20 {
            m.observe(p(2), 0.1); // chronic under-deliverer
        }
        // Same latency and headroom: reputation decides.
        assert!(m.bid(p(1), 5.0, 0.8) > m.bid(p(2), 5.0, 0.8));
        // Same peer: closer and emptier wins.
        assert!(m.bid(p(1), 1.0, 0.8) > m.bid(p(1), 5.0, 0.8));
        assert!(m.bid(p(1), 5.0, 0.9) > m.bid(p(1), 5.0, 0.2));
        // Headroom is clamped into [0, 1].
        assert_eq!(m.bid(p(1), 5.0, 7.0).to_bits(), m.bid(p(1), 5.0, 1.0).to_bits());
    }

    #[test]
    fn trust_manager_embeds_the_marketplace() {
        let mut tm = TrustManager::new(0.98);
        assert_eq!(tm.market().reputation(p(4)), 1.0);
        tm.market_mut().observe(p(4), 0.0);
        assert!(tm.market().reputation(p(4)) < 1.0);
    }

    #[test]
    fn aggregate_matches_observer_ordered_reference_sum() {
        // Records arrive in scrambled observer/subject order; the dense
        // by-subject index must still sum in ascending-observer order,
        // bit-identical to the old map-of-maps walk.
        use std::collections::BTreeMap;
        let mut tm = TrustManager::new(1.0);
        let mut reference: BTreeMap<PeerId, BTreeMap<PeerId, (f64, f64)>> = BTreeMap::new();
        let events = [
            (7u64, 3u64, Experience::Positive),
            (2, 3, Experience::Negative),
            (9, 3, Experience::Positive),
            (2, 3, Experience::Positive),
            (0, 5, Experience::Negative),
            (7, 3, Experience::Negative),
            (4, 3, Experience::Positive),
        ];
        for &(o, s, exp) in &events {
            tm.record(p(o), p(s), exp);
            let e = reference.entry(p(o)).or_default().entry(p(s)).or_default();
            match exp {
                Experience::Positive => e.0 += 1.0,
                Experience::Negative => e.1 += 1.0,
            }
        }
        for subject in [3u64, 5, 8] {
            let mut sum = 0.0;
            let mut n = 0u32;
            for table in reference.values() {
                if let Some(&(a, b)) = table.get(&p(subject)) {
                    sum += (a + 1.0) / (a + b + 2.0);
                    n += 1;
                }
            }
            let want = if n == 0 { 0.5 } else { sum / f64::from(n) };
            let got = tm.aggregate_trust(p(subject));
            assert!(got.to_bits() == want.to_bits(), "subject {subject}: {got} vs {want}");
        }
    }
}
