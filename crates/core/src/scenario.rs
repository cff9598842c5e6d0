//! One simulator loop (paper §6.1): in each time unit sessions end, peers
//! fail and rejoin, requests arrive, backups are maintained, and the clock
//! advances.
//!
//! Every driver that steps a world unit by unit — Fig. 8, Fig. 9, the
//! recovery-latency and overhead studies, the fault lab, the open-loop
//! load cell and the churn example — steps a [`Scenario`]. A scenario owns
//! one [`SpiderNet`], an [`EventQueue`] of session expiries, a
//! [`FaultPlan`], the [`BcpConfig`] reactive recovery composes under, and
//! the unit counter. [`Scenario::step`] runs one unit in a fixed order:
//!
//! 1. tear down the sessions due by this unit, in the order the queue
//!    pops them (expiry, then admission);
//! 2. apply the plan's actions for this unit, in plan order: crashes go
//!    through [`SpiderNet::fail_peers`] (switch to a backup, else reactive
//!    BCP, else abandon the session) and record one [`Hit`] per session
//!    hit; revives rejoin the ring; soft storms place short-lived
//!    reservations;
//! 3. call the driver's arrival closure, which composes requests and
//!    admits them with [`Arrivals::admit`] at an expiry it chooses;
//! 4. run one maintenance tick;
//! 5. advance the clock by one second, sweeping expired soft state.
//!
//! A scenario is sequential and seeded, so replaying one is byte-identical
//! whatever `SPIDERNET_THREADS` says; drivers fan whole scenarios out per
//! cell.

use crate::bcp::{BcpConfig, BcpStats, CompositionOutcome};
use crate::model::request::CompositionRequest;
use crate::recovery::FailureOutcome;
use crate::system::SpiderNet;
use crate::workload::{random_request, RequestConfig};
use spidernet_sim::fault::{FaultAction, FaultPlan};
use spidernet_sim::queue::EventQueue;
use spidernet_sim::time::{SimDuration, SimTime};
use spidernet_sim::trace::{TraceBuffer, TraceEvent};
use spidernet_util::error::Result;
use spidernet_util::id::{PeerId, SessionId};
use spidernet_util::res::ResourceVector;
use spidernet_util::rng::{rng_for, Rng};

/// How one session hit by a crash came out.
#[derive(Clone, Debug, PartialEq)]
pub enum Recovery {
    /// Switched to maintained backup number `rank` (0 = most preferred)
    /// within `switch_ms`.
    Backup {
        /// Index of the backup used.
        rank: usize,
        /// Recovery latency, ms.
        switch_ms: f64,
    },
    /// No backup could take over; reactive BCP re-placed the session.
    Reactive(BcpStats),
    /// No backup could take over and reactive BCP found nothing; the
    /// session was abandoned.
    Lost,
}

/// One session whose primary graph lost a peer to a crash.
#[derive(Clone, Debug, PartialEq)]
pub struct Hit {
    /// The session hit.
    pub session: SessionId,
    /// How it came out.
    pub recovery: Recovery,
}

/// What one [`Scenario::step`] did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Step {
    /// The unit stepped.
    pub unit: u64,
    /// Sessions torn down at their expiry.
    pub expired: u64,
    /// Peers crashed.
    pub crashes: u64,
    /// Peers revived.
    pub revives: u64,
    /// Sessions hit by this unit's crashes, in the order recovery ran.
    pub hits: Vec<Hit>,
    /// Soft-storm reservations granted.
    pub soft_granted: u64,
    /// Soft reservations reclaimed by the clock advance.
    pub soft_expired: u64,
}

impl Step {
    fn count(&self, f: impl Fn(&Recovery) -> bool) -> u64 {
        self.hits.iter().filter(|h| f(&h.recovery)).count() as u64
    }

    /// Hits recovered by switching to a maintained backup.
    pub fn switches(&self) -> u64 {
        self.count(|r| matches!(r, Recovery::Backup { .. }))
    }

    /// Hits no backup absorbed, so reactive BCP ran.
    pub fn reactive(&self) -> u64 {
        self.hits.len() as u64 - self.switches()
    }

    /// Hits re-placed by reactive BCP.
    pub fn saved(&self) -> u64 {
        self.count(|r| matches!(r, Recovery::Reactive(_)))
    }

    /// Hits lost outright.
    pub fn lost(&self) -> u64 {
        self.count(|r| matches!(r, Recovery::Lost))
    }
}

/// The arrival phase's view of a scenario: the world to compose against,
/// and admission that schedules each session's teardown.
pub struct Arrivals<'a> {
    /// The world under test.
    pub net: &'a mut SpiderNet,
    expiry: &'a mut EventQueue<u64>,
    /// The start of this unit; an expiry before it is due here instead,
    /// so the session ends at the next unit in admission order.
    start: SimTime,
}

impl Arrivals<'_> {
    /// Establishes `outcome` for `req` and schedules its teardown for the
    /// first unit at or after `expires` (the next unit if `expires` is
    /// already past).
    pub fn admit(
        &mut self,
        req: &CompositionRequest,
        outcome: CompositionOutcome,
        expires: SimTime,
    ) -> Result<SessionId> {
        let id = self.net.establish(req, outcome)?;
        self.expiry.push(expires.max(self.start).as_ms(), id.raw());
        Ok(id)
    }
}

/// A world stepped one unit at a time under a fault plan.
pub struct Scenario {
    net: SpiderNet,
    /// Session ids, due at their expiry.
    expiry: EventQueue<u64>,
    plan: FaultPlan,
    bcp: BcpConfig,
    unit: u64,
    /// Soft-storm target picks, seeded from the *plan* so the same plan
    /// replays identically in any world.
    storm_rng: Rng,
}

impl Scenario {
    /// Arms `plan` against `net`; reactive recovery composes under `bcp`.
    pub fn new(net: SpiderNet, plan: FaultPlan, bcp: BcpConfig) -> Scenario {
        let storm_rng = rng_for(plan.seed(), "faultlab-storm");
        Scenario { net, expiry: EventQueue::default(), plan, bcp, unit: 0, storm_rng }
    }

    /// Composes (under the scenario's BCP config) and establishes up to
    /// `sessions` standing sessions, which never expire, drawing requests
    /// from `rng`. Gives up after `20 × sessions` attempts; returns how
    /// many were established.
    pub fn establish_standing(
        &mut self,
        sessions: usize,
        request: &RequestConfig,
        rng: &mut Rng,
    ) -> usize {
        let mut established = 0;
        let mut attempts = 0;
        while established < sessions && attempts < sessions * 20 {
            attempts += 1;
            let req = random_request(self.net.overlay(), self.net.registry(), request, rng);
            if let Ok(outcome) = self.net.compose(&req, &self.bcp) {
                if self.net.establish(&req, outcome).is_ok() {
                    established += 1;
                }
            }
        }
        established
    }

    /// The world under test (sessions, state, metrics).
    pub fn net(&self) -> &SpiderNet {
        &self.net
    }

    /// Runs one unit: expiries, the plan's actions, `arrive`, a
    /// maintenance tick, and a one-second clock advance (module docs).
    pub fn step(&mut self, arrive: impl FnOnce(&mut Arrivals<'_>)) -> Step {
        let mut step = Step { unit: self.unit, ..Step::default() };
        let start = SimTime::from_secs(self.unit);
        while let Some((_, id)) = self.expiry.pop_due(start.as_ms()) {
            if self.net.teardown(SessionId::new(id)).is_ok() {
                step.expired += 1;
            }
        }
        for action in self.plan.actions_at(self.unit).to_vec() {
            match action {
                FaultAction::Crash { peer } => self.crash(&[peer], &mut step),
                FaultAction::CrashCorrelated { peers } => self.crash(&peers, &mut step),
                FaultAction::Revive { peer } => self.revive(peer, &mut step),
                FaultAction::SoftStorm { allocs } => self.soft_storm(allocs, &mut step),
            }
        }
        arrive(&mut Arrivals { net: &mut self.net, expiry: &mut self.expiry, start });
        self.net.maintenance_tick();
        step.soft_expired = self.net.advance(SimDuration::from_secs(1)) as u64;
        self.unit += 1;
        step
    }

    fn is_peer(&self, peer: u64) -> bool {
        peer < self.net.overlay().peer_count() as u64
    }

    fn record_fault(&mut self, peer: u64, crash: bool) {
        let obs = self.net.obs_mut();
        obs.metrics.incr(obs.counters.faults_injected);
        obs.trace.record(TraceEvent::FaultInjected { unit: self.unit, peer, crash });
    }

    /// Crashes the live peers among `peers` as one correlated event, then
    /// recovers every hit session: backup switch, else reactive BCP, else
    /// abandonment.
    fn crash(&mut self, peers: &[u64], step: &mut Step) {
        let victims: Vec<PeerId> = peers
            .iter()
            .copied()
            .filter(|&p| self.is_peer(p))
            .map(PeerId::new)
            .filter(|&p| self.net.state().is_alive(p))
            .collect();
        for v in &victims {
            self.record_fault(v.raw(), true);
        }
        step.crashes += victims.len() as u64;
        for (session, outcome) in self.net.fail_peers(&victims) {
            let recovery = match outcome {
                FailureOutcome::RecoveredByBackup { rank, switch_ms } => {
                    Recovery::Backup { rank, switch_ms }
                }
                FailureOutcome::NeedsReactive => {
                    match self.net.reactive_recover_with_stats(session, &self.bcp) {
                        Some(stats) => Recovery::Reactive(stats),
                        None => Recovery::Lost,
                    }
                }
            };
            step.hits.push(Hit { session, recovery });
        }
    }

    fn revive(&mut self, peer: u64, step: &mut Step) {
        let p = PeerId::new(peer);
        if self.is_peer(peer) && !self.net.state().is_alive(p) {
            self.net.revive_peer(p);
            self.record_fault(peer, false);
            step.revives += 1;
        }
    }

    fn soft_storm(&mut self, allocs: u32, step: &mut Step) {
        // Short-TTL reservations expiring exactly at the end of this unit —
        // the sweep's inclusive `expires <= now` boundary reclaims them in
        // this same step's advance.
        let expires = self.net.now() + SimDuration::from_secs(1);
        let demand = ResourceVector::new(0.05, 4.0);
        // soft_allocate wants a trace buffer alongside `&mut state`; record
        // into a scratch buffer that is dropped afterwards.
        let mut scratch = TraceBuffer::with_capacity(allocs as usize);
        for _ in 0..allocs {
            let live = self.net.state().live_peers();
            if live.is_empty() {
                break;
            }
            let peer = live[(self.storm_rng.gen::<u64>() % live.len() as u64) as usize];
            if self.net.state_mut().soft_allocate(peer, demand, expires, &mut scratch).is_ok() {
                step.soft_granted += 1;
            }
        }
    }

    /// Checks the recovery-path invariants the paper's robustness story
    /// rests on; call between [`Scenario::step`]s. Returns the first
    /// violation as an error string.
    ///
    /// * no dead peer inside any session's *primary* (served) graph;
    /// * no dead peer inside any maintained *backup* graph (maintenance
    ///   ran at the end of the step);
    /// * per-peer committed load equals the sum of the live sessions'
    ///   allocations — no double-release, no leak — and never exceeds
    ///   capacity;
    /// * every peer's soft ledger equals the sum of its live reservations.
    pub fn verify_invariants(&self) -> std::result::Result<(), String> {
        let net = &self.net;
        let reg = net.registry();
        let state = net.state();
        for s in net.sessions().sessions() {
            for &c in s.primary.components() {
                let p = reg.get(c).peer;
                if !state.is_alive(p) {
                    return Err(format!(
                        "session {:?}: dead peer {p} in served primary graph",
                        s.id
                    ));
                }
            }
            for (bi, (g, _)) in s.backups.iter().enumerate() {
                for &c in g.components() {
                    let p = reg.get(c).peer;
                    if !state.is_alive(p) {
                        return Err(format!("session {:?}: dead peer {p} in backup #{bi}", s.id));
                    }
                }
            }
        }
        // Accounting: fold every live session's allocation per peer and
        // compare against the state's committed ledger.
        let mut expected = vec![ResourceVector::ZERO; net.overlay().peer_count()];
        for s in net.sessions().sessions() {
            for &(p, res) in &s.allocation.peers {
                expected[p.index()] = expected[p.index()].add(&res);
            }
        }
        for (i, want) in expected.iter().enumerate() {
            let p = PeerId::new(i as u64);
            let got = state.committed_load(p);
            if (got.cpu() - want.cpu()).abs() > 1e-6 || (got.memory() - want.memory()).abs() > 1e-6
            {
                return Err(format!("peer {p}: committed ledger {got:?} != session sum {want:?}"));
            }
            let cap = state.capacity(p);
            if got.cpu() > cap.cpu() + 1e-9 || got.memory() > cap.memory() + 1e-9 {
                return Err(format!("peer {p}: committed {got:?} exceeds capacity {cap:?}"));
            }
        }
        // Soft (probe-time) books — shared with the model checker's
        // soft-ledger scenario.
        state.verify_soft_accounting()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SpiderNetConfig;
    use crate::workload::PopulationConfig;

    fn scenario(plan: FaultPlan) -> Scenario {
        let mut net =
            SpiderNet::build(&SpiderNetConfig::builder().ip_nodes(300).peers(60).seed(13).build());
        net.populate(&PopulationConfig { functions: 10, ..PopulationConfig::default() });
        Scenario::new(net, plan, BcpConfig::builder().budget(128).merge_cap(256).build())
    }

    fn requests() -> RequestConfig {
        RequestConfig {
            delay_bound_ms: (5_000.0, 5_001.0),
            loss_bound: (0.3, 0.31),
            ..RequestConfig::default()
        }
    }

    fn admit(a: &mut Arrivals<'_>, rng: &mut Rng, expires: SimTime) -> SessionId {
        let req = random_request(a.net.overlay(), a.net.registry(), &requests(), rng);
        let outcome = a.net.compose(&req, &BcpConfig::default()).unwrap();
        a.admit(&req, outcome, expires).unwrap()
    }

    #[test]
    fn admitted_sessions_expire_at_their_unit_in_admission_order() {
        let mut sc = scenario(FaultPlan::new(1));
        let mut rng = rng_for(1, "scenario-test");
        let mut admitted = Vec::new();
        let step = sc.step(|a| {
            for expires in [3, 2, 3] {
                admitted.push(admit(a, &mut rng, SimTime::from_secs(expires)));
            }
        });
        assert_eq!((step.unit, step.expired), (0, 0));
        assert_eq!(sc.net().sessions().len(), 3);
        assert_eq!(sc.step(|_| {}).expired, 0);
        assert_eq!(sc.step(|_| {}).expired, 1, "the unit-2 session ends at unit 2");
        assert!(sc.net().sessions().session(admitted[1]).is_none());
        assert_eq!(sc.step(|_| {}).expired, 2);
        assert!(sc.net().sessions().is_empty());
        assert_eq!(sc.net().now(), SimTime::from_secs(4), "one second per unit");
    }

    #[test]
    fn past_expiry_clamps_to_the_unit_start() {
        let mut sc = scenario(FaultPlan::new(1));
        let mut rng = rng_for(1, "scenario-test");
        let mut admitted = Vec::new();
        sc.step(|a| admitted.push(admit(a, &mut rng, SimTime::from_secs(2))));
        // Admitted during unit 1 with an expiry already before its start.
        let step = sc.step(|a| admitted.push(admit(a, &mut rng, SimTime::from_ms(500.0))));
        assert_eq!((step.unit, step.expired), (1, 0));
        assert_eq!(sc.net().sessions().len(), 2, "a past expiry does not end a session at once");
        assert_eq!(sc.expiry.next_due(), Some(1_000.0), "due at the start of unit 1");
        assert_eq!(sc.step(|_| {}).expired, 2, "the past and the unit-2 expiries end at unit 2");
        assert!(sc.net().sessions().is_empty());
        // Due at the unit start, a past expiry stays behind one admitted
        // earlier for exactly that start.
        sc.step(|a| {
            admitted.push(admit(a, &mut rng, SimTime::from_secs(3)));
            admitted.push(admit(a, &mut rng, SimTime::from_ms(2_500.0)));
        });
        let due: Vec<(f64, u64)> =
            std::iter::from_fn(|| sc.expiry.pop_due(f64::INFINITY)).collect();
        assert_eq!(due, vec![(3_000.0, admitted[2].raw()), (3_000.0, admitted[3].raw())]);
    }

    #[test]
    fn crashes_record_one_hit_per_session_and_skip_dead_or_unknown_peers() {
        let mut probe = scenario(FaultPlan::new(0));
        probe.establish_standing(6, &requests(), &mut rng_for(2, "standing"));
        let s = probe.net().sessions().sessions().next().expect("a standing session");
        let victim = probe.net().registry().get(s.primary.components()[0]).peer.raw();

        let plan =
            FaultPlan::new(0).crash(0, victim).crash(0, victim).crash(0, 10_000).revive(1, victim);
        let mut sc = scenario(plan);
        assert_eq!(sc.establish_standing(6, &requests(), &mut rng_for(2, "standing")), 6);
        let step = sc.step(|_| {});
        assert_eq!(step.crashes, 1, "a dead or unknown peer is not crashed again");
        assert!(!step.hits.is_empty(), "crashing a primary peer must hit its session");
        assert_eq!(
            step.switches() + step.saved() + step.lost(),
            step.hits.len() as u64,
            "every hit has exactly one recovery"
        );
        sc.verify_invariants().unwrap();
        assert_eq!(sc.step(|_| {}).revives, 1);
        assert!(sc.net().state().is_alive(PeerId::new(victim)));
    }
}
