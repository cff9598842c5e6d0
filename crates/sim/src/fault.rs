//! Seeded, replayable fault-injection plans.
//!
//! A [`FaultPlan`] is a deterministic schedule of adversarial actions —
//! peer crashes (individual or correlated), revives, and soft-state
//! expiry storms — keyed by sim time unit. Plans are pure data: the same
//! plan applied to the same world is byte-identical regardless of thread
//! count, per the PR1 determinism contract. Peers are raw `u64` ids so
//! this crate stays independent of the core model types.
//!
//! Plans come from three places: hand-built via the builder methods
//! ([`FaultPlan::crash`] and friends), generated from a seeded random
//! process ([`FaultPlan::churn`], [`FaultPlan::crash_storm`],
//! [`FaultPlan::kill_each`]), or
//! parsed from a CLI spec string ([`FaultPlan::parse`]) so the fig10
//! binary can take `--faults storm:rate=0.05,units=30,revive=5` or an
//! explicit `crash@3:7;revive@8:7;expire@4:16` atom list.

use spidernet_util::rng::{rng_for, Rng, SliceRandom};
use std::collections::{BTreeMap, BTreeSet};

/// One scheduled adversarial action.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Crash a single peer (no-op if already dead).
    Crash {
        /// Raw id of the peer to kill.
        peer: u64,
    },
    /// Crash several peers *simultaneously* — all are marked dead before
    /// any recovery runs, modeling a correlated failure (rack loss,
    /// partition) that can take out a primary component and its backup in
    /// the same instant.
    CrashCorrelated {
        /// Raw ids of the peers to kill together.
        peers: Vec<u64>,
    },
    /// Revive a previously crashed peer (no-op if alive).
    Revive {
        /// Raw id of the peer to bring back.
        peer: u64,
    },
    /// A soft-state expiry storm: place this many short-TTL soft
    /// reservations on deterministically chosen live peers, all expiring
    /// at the end of the current unit, stressing the expiry sweep.
    SoftStorm {
        /// Number of soft reservations to place.
        allocs: u32,
    },
}

/// A deterministic schedule of [`FaultAction`]s keyed by time unit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    horizon: u64,
    steps: BTreeMap<u64, Vec<FaultAction>>,
}

impl FaultPlan {
    /// An empty plan. `seed` feeds any randomness the *driver* needs while
    /// applying the plan (e.g. picking soft-storm target peers).
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, horizon: 0, steps: BTreeMap::new() }
    }

    /// The driver-side randomness seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// One past the last unit with a scheduled action (or the explicit
    /// padding set via [`FaultPlan::with_horizon`]): drivers step units
    /// `0..horizon()`.
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// Extends the horizon to at least `units` (trailing quiet units let
    /// revives and expiry sweeps play out).
    pub fn with_horizon(mut self, units: u64) -> Self {
        self.horizon = self.horizon.max(units);
        self
    }

    /// Total scheduled actions.
    pub fn len(&self) -> usize {
        self.steps.values().map(Vec::len).sum()
    }

    /// True if no action is scheduled.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The actions scheduled at `unit`, in insertion order.
    pub fn actions_at(&self, unit: u64) -> &[FaultAction] {
        self.steps.get(&unit).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Schedules `action` at `unit` (builder-style).
    pub fn at(mut self, unit: u64, action: FaultAction) -> Self {
        self.push(unit, action);
        self
    }

    /// Schedules a single-peer crash at `unit`.
    pub fn crash(self, unit: u64, peer: u64) -> Self {
        self.at(unit, FaultAction::Crash { peer })
    }

    /// Schedules a correlated multi-peer crash at `unit`.
    pub fn crash_correlated(self, unit: u64, peers: Vec<u64>) -> Self {
        self.at(unit, FaultAction::CrashCorrelated { peers })
    }

    /// Schedules a revive at `unit`.
    pub fn revive(self, unit: u64, peer: u64) -> Self {
        self.at(unit, FaultAction::Revive { peer })
    }

    /// Schedules a soft-state expiry storm at `unit`.
    pub fn soft_storm(self, unit: u64, allocs: u32) -> Self {
        self.at(unit, FaultAction::SoftStorm { allocs })
    }

    fn push(&mut self, unit: u64, action: FaultAction) {
        self.steps.entry(unit).or_default().push(action);
        self.horizon = self.horizon.max(unit + 1);
    }

    /// A seeded random crash storm over peers `0..peer_count`: a
    /// [`FaultPlan::churn`] plan drawing from the `"fault-storm"` stream
    /// of `seed`.
    pub fn crash_storm(
        seed: u64,
        peer_count: u64,
        rate: f64,
        units: u64,
        revive_after: Option<u64>,
    ) -> Self {
        FaultPlan::churn(seed, &mut rng_for(seed, "fault-storm"), peer_count, rate, units, revive_after)
    }

    /// Random peer churn over peers `0..peer_count`, drawn from `rng`:
    /// each unit, `rate` of the currently-live population crashes (the
    /// paper's "1% of peers randomly fail during each time unit"). The
    /// count is `floor(rate × live)` plus one on a Bernoulli draw of the
    /// fractional remainder, so fractional expectations are exact in the
    /// long run; victims are a shuffle of the ascending live set. With
    /// `revive_after = Some(k)`, each victim revives `k` units later
    /// (revives come first in their unit); the plan models the live set,
    /// so a dead peer is never crashed twice.
    pub fn churn(
        seed: u64,
        rng: &mut Rng,
        peer_count: u64,
        rate: f64,
        units: u64,
        revive_after: Option<u64>,
    ) -> Self {
        let mut plan = FaultPlan::new(seed).with_horizon(units);
        let mut live: BTreeSet<u64> = (0..peer_count).collect();
        let mut pending_revive: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for unit in 0..units {
            if let Some(back) = pending_revive.remove(&unit) {
                for peer in back {
                    plan.push(unit, FaultAction::Revive { peer });
                    live.insert(peer);
                }
            }
            if rate <= 0.0 || live.is_empty() {
                continue;
            }
            let expected = rate * live.len() as f64;
            let mut count = expected.floor() as usize;
            if rng.gen::<f64>() < expected.fract() {
                count += 1;
            }
            let mut pool: Vec<u64> = live.iter().copied().collect();
            pool.shuffle(rng);
            pool.truncate(count.min(pool.len()));
            for peer in pool {
                live.remove(&peer);
                plan.push(unit, FaultAction::Crash { peer });
                if let Some(k) = revive_after {
                    let back_at = unit + k;
                    if back_at < units {
                        pending_revive.entry(back_at).or_default().push(peer);
                    }
                }
            }
        }
        plan
    }

    /// Kills each listed peer in order, one crash per `spacing` units
    /// starting at `start` — the acceptance scenario that takes out every
    /// component of a primary graph one at a time.
    pub fn kill_each(seed: u64, peers: &[u64], start: u64, spacing: u64) -> Self {
        let mut plan = FaultPlan::new(seed);
        for (i, &peer) in peers.iter().enumerate() {
            plan.push(start + i as u64 * spacing.max(1), FaultAction::Crash { peer });
        }
        plan
    }

    /// Parses a CLI fault spec.
    ///
    /// Two forms:
    /// * `storm:rate=0.05,units=30,revive=5` — a [`FaultPlan::crash_storm`]
    ///   over `peer_count` peers (`units` defaults to 30, `revive` to
    ///   never);
    /// * a `;`-separated atom list: `crash@U:P` (multi-peer with `+`:
    ///   `crash@2:4+9`), `revive@U:P`, `expire@U:N`.
    pub fn parse(spec: &str, seed: u64, peer_count: u64) -> Result<FaultPlan, String> {
        if let Some(params) = spec.strip_prefix("storm:") {
            let mut rate = None;
            let mut units = 30u64;
            let mut revive = None;
            for kv in params.split(',').filter(|s| !s.is_empty()) {
                let (k, v) = kv.split_once('=').ok_or_else(|| format!("bad storm param {kv:?}"))?;
                match k {
                    "rate" => {
                        let r: f64 =
                            v.parse().map_err(|_| format!("bad storm rate {v:?}"))?;
                        if !(0.0..=1.0).contains(&r) {
                            return Err(format!("storm rate {r} outside [0, 1]"));
                        }
                        rate = Some(r);
                    }
                    "units" => {
                        units = v.parse().map_err(|_| format!("bad storm units {v:?}"))?;
                    }
                    "revive" => {
                        revive =
                            Some(v.parse().map_err(|_| format!("bad storm revive {v:?}"))?);
                    }
                    _ => return Err(format!("unknown storm param {k:?}")),
                }
            }
            let rate = rate.ok_or("storm spec requires rate=<fraction>")?;
            return Ok(FaultPlan::crash_storm(seed, peer_count, rate, units, revive));
        }
        let mut plan = FaultPlan::new(seed);
        for atom in spec.split(';').filter(|s| !s.is_empty()) {
            let (kind, rest) =
                atom.split_once('@').ok_or_else(|| format!("bad fault atom {atom:?}"))?;
            let (unit, arg) =
                rest.split_once(':').ok_or_else(|| format!("bad fault atom {atom:?}"))?;
            let unit: u64 = unit.parse().map_err(|_| format!("bad unit in {atom:?}"))?;
            match kind {
                "crash" => {
                    let peers: Vec<u64> = arg
                        .split('+')
                        .map(|p| p.parse().map_err(|_| format!("bad peer in {atom:?}")))
                        .collect::<Result<_, _>>()?;
                    match peers.as_slice() {
                        [] => return Err(format!("empty peer list in {atom:?}")),
                        [peer] => plan.push(unit, FaultAction::Crash { peer: *peer }),
                        _ => plan.push(unit, FaultAction::CrashCorrelated { peers }),
                    }
                }
                "revive" => {
                    let peer = arg.parse().map_err(|_| format!("bad peer in {atom:?}"))?;
                    plan.push(unit, FaultAction::Revive { peer });
                }
                "expire" => {
                    let allocs = arg.parse().map_err(|_| format!("bad count in {atom:?}"))?;
                    plan.push(unit, FaultAction::SoftStorm { allocs });
                }
                _ => return Err(format!("unknown fault kind {kind:?}")),
            }
        }
        if plan.is_empty() {
            return Err(format!("fault spec {spec:?} contains no actions"));
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_horizon_and_order() {
        let plan = FaultPlan::new(7).crash(3, 1).revive(5, 1).soft_storm(3, 8);
        assert_eq!(plan.horizon(), 6);
        assert_eq!(plan.len(), 3);
        assert_eq!(
            plan.actions_at(3),
            &[FaultAction::Crash { peer: 1 }, FaultAction::SoftStorm { allocs: 8 }]
        );
        assert_eq!(plan.actions_at(4), &[]);
        assert_eq!(plan.with_horizon(10).horizon(), 10);
    }

    #[test]
    fn crash_storm_is_deterministic_per_seed() {
        let a = FaultPlan::crash_storm(11, 50, 0.08, 20, Some(4));
        let b = FaultPlan::crash_storm(11, 50, 0.08, 20, Some(4));
        let c = FaultPlan::crash_storm(12, 50, 0.08, 20, Some(4));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn crash_storm_never_kills_a_dead_peer() {
        let plan = FaultPlan::crash_storm(3, 20, 0.2, 30, Some(5));
        let mut dead = BTreeSet::new();
        for unit in 0..plan.horizon() {
            for a in plan.actions_at(unit) {
                match a {
                    FaultAction::Crash { peer } => assert!(dead.insert(*peer), "double crash"),
                    FaultAction::Revive { peer } => assert!(dead.remove(peer), "bogus revive"),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn crash_storm_without_revive_drains_population() {
        let plan = FaultPlan::crash_storm(5, 10, 0.5, 40, None);
        let crashes = (0..plan.horizon())
            .flat_map(|u| plan.actions_at(u))
            .filter(|a| matches!(a, FaultAction::Crash { .. }))
            .count();
        assert!(crashes <= 10);
        assert!(crashes >= 8, "a 50% storm should kill most of 10 peers, got {crashes}");
    }

    fn crashes_at(plan: &FaultPlan, unit: u64) -> usize {
        plan.actions_at(unit).iter().filter(|a| matches!(a, FaultAction::Crash { .. })).count()
    }

    #[test]
    fn churn_one_percent_of_one_thousand_is_ten() {
        let plan = FaultPlan::churn(1, &mut rng_for(1, "churn"), 1000, 0.01, 1, None);
        assert_eq!(crashes_at(&plan, 0), 10);
    }

    #[test]
    fn churn_fractional_rate_is_exact_in_the_long_run() {
        // Expected 1.5 crashes per unit; every victim revives next unit,
        // so the live population stays at 100 when each unit samples.
        let units = 2000;
        let plan = FaultPlan::churn(2, &mut rng_for(2, "churn"), 100, 0.015, units, Some(1));
        let total: usize = (0..units).map(|u| crashes_at(&plan, u)).sum();
        let rate = total as f64 / units as f64;
        assert!((rate - 1.5).abs() < 0.1, "rate {rate}");
    }

    #[test]
    fn churn_rate_at_or_above_one_kills_every_live_peer() {
        for rate in [1.0, 2.0] {
            let plan = FaultPlan::churn(5, &mut rng_for(5, "churn"), 7, rate, 1, None);
            assert_eq!(crashes_at(&plan, 0), 7, "rate {rate}");
        }
    }

    #[test]
    fn churn_rate_zero_and_empty_population_kill_none() {
        let plan = FaultPlan::churn(4, &mut rng_for(4, "churn"), 10, 0.0, 20, Some(2));
        assert!(plan.is_empty());
        assert_eq!(plan.horizon(), 20);
        assert!(FaultPlan::churn(4, &mut rng_for(4, "churn"), 0, 0.5, 20, Some(2)).is_empty());
    }

    #[test]
    fn churn_failures_are_distinct_peers() {
        let plan = FaultPlan::churn(3, &mut rng_for(3, "churn"), 20, 0.5, 1, None);
        let mut ids: Vec<u64> = plan
            .actions_at(0)
            .iter()
            .filter_map(|a| match a {
                FaultAction::Crash { peer } => Some(*peer),
                _ => None,
            })
            .collect();
        let sampled = ids.len();
        assert_eq!(sampled, 10);
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), sampled);
    }

    #[test]
    fn churn_sampling_is_deterministic_in_seed() {
        // The paper's Fig. 9 churn: 1% of peers fail each unit.
        let a = FaultPlan::churn(9, &mut rng_for(9, "churn"), 500, 0.01, 1, None);
        let b = FaultPlan::churn(9, &mut rng_for(9, "churn"), 500, 0.01, 1, None);
        assert_eq!(a, b);
        assert_eq!(crashes_at(&a, 0), 5);
    }

    #[test]
    fn kill_each_spaces_crashes() {
        let plan = FaultPlan::kill_each(1, &[4, 9, 2], 1, 3);
        assert_eq!(plan.actions_at(1), &[FaultAction::Crash { peer: 4 }]);
        assert_eq!(plan.actions_at(4), &[FaultAction::Crash { peer: 9 }]);
        assert_eq!(plan.actions_at(7), &[FaultAction::Crash { peer: 2 }]);
        assert_eq!(plan.horizon(), 8);
    }

    #[test]
    fn parse_storm_spec() {
        let plan = FaultPlan::parse("storm:rate=0.1,units=12,revive=3", 9, 40).unwrap();
        assert_eq!(plan, FaultPlan::crash_storm(9, 40, 0.1, 12, Some(3)));
        assert!(FaultPlan::parse("storm:units=5", 9, 40).is_err(), "rate is required");
        assert!(FaultPlan::parse("storm:rate=1.5", 9, 40).is_err());
        assert!(FaultPlan::parse("storm:rate=0.1,bogus=1", 9, 40).is_err());
    }

    #[test]
    fn parse_atom_list() {
        let plan = FaultPlan::parse("crash@2:4+9;revive@6:4;expire@3:16;crash@8:1", 9, 40).unwrap();
        assert_eq!(plan.actions_at(2), &[FaultAction::CrashCorrelated { peers: vec![4, 9] }]);
        assert_eq!(plan.actions_at(6), &[FaultAction::Revive { peer: 4 }]);
        assert_eq!(plan.actions_at(3), &[FaultAction::SoftStorm { allocs: 16 }]);
        assert_eq!(plan.actions_at(8), &[FaultAction::Crash { peer: 1 }]);
        assert_eq!(plan.horizon(), 9);
        assert!(FaultPlan::parse("crash@x:1", 9, 40).is_err());
        assert!(FaultPlan::parse("melt@2:1", 9, 40).is_err());
        assert!(FaultPlan::parse("", 9, 40).is_err());
    }
}
