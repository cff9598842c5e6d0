//! Deterministic fault-injection lab driving the proactive recovery path.
//!
//! The lab establishes a population of standing sessions, then replays a
//! seeded [`FaultPlan`] unit by unit on a [`Scenario`]: crashes and
//! revives flow through [`SpiderNet::fail_peers`] /
//! [`SpiderNet::revive_peer`] (exercising
//! `SessionManager::handle_peer_failure` and reactive BCP), soft-state
//! expiry storms stress the `OverlayState` sweep, and every unit ends
//! with a maintenance tick plus a clock advance. [`run_with`] hands the
//! scenario to a check after every unit, so tests can assert the recovery
//! invariants *between* units ([`Scenario::verify_invariants`]). A replay
//! is sequential per plan — replaying the same plan against the same
//! config is byte-identical whatever `SPIDERNET_THREADS` says. The
//! [`churn_sweep`] harness fans whole plans out per churn rate with the
//! parallel harness's contract (per-cell derived seeds, results written
//! back by cell index).
//!
//! [`SpiderNet::fail_peers`]: crate::system::SpiderNet::fail_peers
//! [`SpiderNet::revive_peer`]: crate::system::SpiderNet::revive_peer

use crate::bcp::BcpConfig;
use crate::recovery::RecoveryConfig;
use crate::scenario::{Scenario, Step};
use crate::workload::{PopulationConfig, RequestConfig};
use spidernet_sim::fault::FaultPlan;
use spidernet_sim::metrics::MetricsRegistry;
use spidernet_util::par::par_map_with;
use spidernet_util::rng::{derive_seed, rng_for};
use std::fmt;

/// World and workload parameters of the fault lab.
#[derive(Clone, Debug)]
pub struct FaultLabConfig {
    /// IP-layer nodes.
    pub ip_nodes: usize,
    /// Overlay peers.
    pub peers: usize,
    /// Master seed (world construction + request stream).
    pub seed: u64,
    /// Standing sessions established before the plan starts.
    pub sessions: usize,
    /// Backup bound U (Eq. 2).
    pub backup_upper_bound: f64,
    /// Component population.
    pub population: PopulationConfig,
    /// Request shape for the standing sessions.
    pub request: RequestConfig,
    /// BCP configuration for setup and reactive recovery.
    pub bcp: BcpConfig,
    /// Worker threads for [`churn_sweep`]'s per-rate fan-out (`None` =
    /// environment; results are identical for any value).
    pub threads: Option<usize>,
}

impl Default for FaultLabConfig {
    fn default() -> Self {
        FaultLabConfig {
            ip_nodes: 600,
            peers: 120,
            seed: 10,
            sessions: 40,
            backup_upper_bound: 4.0,
            population: PopulationConfig { functions: 20, ..PopulationConfig::default() },
            request: RequestConfig {
                functions: (2, 4),
                delay_bound_ms: (350.0, 600.0),
                loss_bound: (0.03, 0.06),
                max_failure_prob: 0.12,
                ..RequestConfig::default()
            },
            bcp: BcpConfig { budget: 128, merge_cap: 256, ..BcpConfig::default() },
            threads: None,
        }
    }
}

/// The finished replay: per-unit rows plus end-state summary.
#[derive(Clone, Debug)]
pub struct FaultReport {
    /// Per-unit accounting: the scenario's step record for every plan unit.
    pub rows: Vec<Step>,
    /// Sessions established before the plan started.
    pub established: usize,
    /// Sessions still active after the final unit.
    pub surviving: usize,
    /// Mean backup-switch latency (ms) across all switches (0 if none).
    pub mean_switch_ms: f64,
    /// The world's protocol counters after the replay.
    pub metrics: MetricsRegistry,
}

impl FaultReport {
    fn total(&self, f: impl Fn(&Step) -> u64) -> u64 {
        self.rows.iter().map(f).sum()
    }

    /// Total peers crashed.
    pub fn crashes(&self) -> u64 {
        self.total(|r| r.crashes)
    }

    /// Total peers revived.
    pub fn revives(&self) -> u64 {
        self.total(|r| r.revives)
    }

    /// Total primary-graph hits.
    pub fn hits(&self) -> u64 {
        self.total(|r| r.hits.len() as u64)
    }

    /// Total backup switches.
    pub fn switches(&self) -> u64 {
        self.total(Step::switches)
    }

    /// Total reactive-BCP fallbacks.
    pub fn reactive(&self) -> u64 {
        self.total(Step::reactive)
    }

    /// Total sessions re-placed by reactive BCP.
    pub fn saved(&self) -> u64 {
        self.total(Step::saved)
    }

    /// Total sessions lost outright.
    pub fn lost(&self) -> u64 {
        self.total(Step::lost)
    }

    /// Fraction of hits recovered *proactively* (by a maintained backup,
    /// no reactive BCP). 1.0 when nothing was hit.
    pub fn recovery_success_rate(&self) -> f64 {
        let hits = self.hits();
        if hits == 0 {
            1.0
        } else {
            self.switches() as f64 / hits as f64
        }
    }

    /// CSV rendering, one row per unit — the byte-identity artifact for
    /// the determinism contract.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "unit,crashes,revives,hits,switches,reactive,saved,lost,soft_granted,soft_expired\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{}\n",
                r.unit,
                r.crashes,
                r.revives,
                r.hits.len(),
                r.switches(),
                r.reactive(),
                r.saved(),
                r.lost(),
                r.soft_granted,
                r.soft_expired
            ));
        }
        out
    }
}

impl fmt::Display for FaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# Fault-injection replay — {} units", self.rows.len())?;
        writeln!(
            f,
            "{:>6} {:>8} {:>8} {:>6} {:>9} {:>9} {:>6} {:>6}",
            "unit", "crashes", "revives", "hits", "switches", "reactive", "saved", "lost"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>6} {:>8} {:>8} {:>6} {:>9} {:>9} {:>6} {:>6}",
                r.unit,
                r.crashes,
                r.revives,
                r.hits.len(),
                r.switches(),
                r.reactive(),
                r.saved(),
                r.lost()
            )?;
        }
        writeln!(f, "sessions: {} established, {} surviving", self.established, self.surviving)?;
        writeln!(f, "recovery success rate: {:.3}", self.recovery_success_rate())?;
        writeln!(f, "mean switch latency: {:.1} ms", self.mean_switch_ms)
    }
}

/// Builds the lab's world, arms `plan` on it, and establishes the
/// standing sessions. Entirely deterministic in `(cfg, plan)`.
pub fn scenario(cfg: &FaultLabConfig, plan: FaultPlan) -> Scenario {
    let recovery = RecoveryConfig::builder().backup_upper_bound(cfg.backup_upper_bound).build();
    let net = super::world(cfg.ip_nodes, cfg.peers, cfg.seed, recovery, &cfg.population);
    let mut sc = Scenario::new(net, plan, cfg.bcp.clone());
    sc.establish_standing(cfg.sessions, &cfg.request, &mut rng_for(cfg.seed, "faultlab-requests"));
    sc
}

/// Replays `plan` to its horizon, calling `check` on the scenario after
/// every unit, and returns the report.
pub fn run_with(
    cfg: &FaultLabConfig,
    plan: FaultPlan,
    mut check: impl FnMut(&Scenario),
) -> FaultReport {
    let horizon = plan.horizon();
    let mut sc = scenario(cfg, plan);
    let established = sc.net().sessions().len();
    let mut rows = Vec::with_capacity(horizon as usize);
    for _ in 0..horizon {
        rows.push(sc.step(|_| {}));
        check(&sc);
    }
    let net = sc.net();
    let mean_switch_ms =
        net.metrics().summary(net.obs().counters.switch_ms).map(|s| s.mean()).unwrap_or(0.0);
    FaultReport {
        rows,
        established,
        surviving: net.sessions().len(),
        mean_switch_ms,
        metrics: net.metrics().clone(),
    }
}

/// Replays `plan` to its horizon and returns the report.
pub fn run(cfg: &FaultLabConfig, plan: FaultPlan) -> FaultReport {
    run_with(cfg, plan, |_| {})
}

/// Churn-sweep parameters: one crash-storm replay per rate.
#[derive(Clone, Debug)]
pub struct ChurnSweepConfig {
    /// The world/workload every cell shares.
    pub base: FaultLabConfig,
    /// Crash rates swept (fraction of live peers per unit).
    pub rates: Vec<f64>,
    /// Storm length in units.
    pub units: u64,
    /// Revive delay for storm victims (`None` = permanent).
    pub revive_after: Option<u64>,
}

impl Default for ChurnSweepConfig {
    fn default() -> Self {
        ChurnSweepConfig {
            base: FaultLabConfig::default(),
            rates: vec![0.01, 0.02, 0.05, 0.10],
            units: 30,
            revive_after: Some(5),
        }
    }
}

/// One swept rate's aggregate outcome.
#[derive(Clone, Debug)]
pub struct ChurnSweepRow {
    /// Crash rate of the cell.
    pub rate: f64,
    /// Total crashes injected.
    pub crashes: u64,
    /// Primary-graph hits.
    pub hits: u64,
    /// Backup switches.
    pub switches: u64,
    /// Reactive-BCP fallbacks.
    pub reactive: u64,
    /// Sessions re-placed reactively.
    pub saved: u64,
    /// Sessions lost.
    pub lost: u64,
    /// switches / hits (1.0 when nothing was hit).
    pub recovery_success_rate: f64,
    /// Mean switch latency, ms.
    pub mean_switch_ms: f64,
}

/// The swept figure.
#[derive(Clone, Debug)]
pub struct ChurnSweepResult {
    /// One row per swept rate, in input order.
    pub rows: Vec<ChurnSweepRow>,
}

impl ChurnSweepResult {
    /// CSV rendering (the byte-identity artifact across thread counts).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "rate,crashes,hits,switches,reactive,saved,lost,recovery_success_rate,mean_switch_ms\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:.3},{},{},{},{},{},{},{:.4},{:.2}\n",
                r.rate,
                r.crashes,
                r.hits,
                r.switches,
                r.reactive,
                r.saved,
                r.lost,
                r.recovery_success_rate,
                r.mean_switch_ms
            ));
        }
        out
    }
}

impl fmt::Display for ChurnSweepResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# Churn sweep — recovery under crash storms")?;
        writeln!(
            f,
            "{:>6} {:>8} {:>6} {:>9} {:>9} {:>8} {:>10}",
            "rate", "crashes", "hits", "switches", "reactive", "success", "switch_ms"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>6.3} {:>8} {:>6} {:>9} {:>9} {:>8.3} {:>10.1}",
                r.rate, r.crashes, r.hits, r.switches, r.reactive, r.recovery_success_rate,
                r.mean_switch_ms
            )?;
        }
        Ok(())
    }
}

/// Sweeps crash rates in parallel: each cell derives its own storm seed
/// from the base seed and the cell index, replays sequentially, and
/// writes back by index — bit-identical output for any thread count.
pub fn churn_sweep(cfg: &ChurnSweepConfig) -> ChurnSweepResult {
    let cells: Vec<(usize, f64)> = cfg.rates.iter().copied().enumerate().collect();
    let rows = par_map_with(
        super::resolve_threads(cfg.base.threads),
        cells,
        |_, (i, rate)| {
            let plan_seed = derive_seed(cfg.base.seed, &format!("churn-sweep-{i}"));
            let plan = FaultPlan::crash_storm(
                plan_seed,
                cfg.base.peers as u64,
                rate,
                cfg.units,
                cfg.revive_after,
            );
            let rep = run(&cfg.base, plan);
            ChurnSweepRow {
                rate,
                crashes: rep.crashes(),
                hits: rep.hits(),
                switches: rep.switches(),
                reactive: rep.reactive(),
                saved: rep.saved(),
                lost: rep.lost(),
                recovery_success_rate: rep.recovery_success_rate(),
                mean_switch_ms: rep.mean_switch_ms,
            }
        },
    );
    ChurnSweepResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FaultLabConfig {
        FaultLabConfig {
            ip_nodes: 300,
            peers: 60,
            seed: 13,
            sessions: 8,
            population: PopulationConfig { functions: 10, ..PopulationConfig::default() },
            ..FaultLabConfig::default()
        }
    }

    #[test]
    fn empty_plan_is_a_noop_replay() {
        let cfg = tiny();
        let before = scenario(&cfg, FaultPlan::new(1)).net().sessions().len();
        assert!(before > 0);
        let rep = run_with(&cfg, FaultPlan::new(1).with_horizon(3), |sc| {
            sc.verify_invariants().unwrap();
        });
        assert_eq!(rep.rows.len(), 3);
        assert_eq!(rep.crashes(), 0);
        assert_eq!(rep.established, before);
        assert_eq!(rep.surviving, before);
    }

    #[test]
    fn crash_and_soft_storm_replay_accounts_consistently() {
        let cfg = tiny();
        let plan = FaultPlan::new(2)
            .soft_storm(0, 12)
            .crash(1, 3)
            .crash(1, 7)
            .revive(4, 3)
            .with_horizon(6);
        let rep = run_with(&cfg, plan, |sc| {
            sc.verify_invariants().unwrap();
            assert_eq!(sc.net().state().soft_count(), 0);
        });
        assert_eq!(rep.crashes(), 2);
        assert_eq!(rep.revives(), 1);
        assert_eq!(rep.rows[0].soft_granted, rep.rows[0].soft_expired, "storm must expire in-unit");
        assert!(rep.rows[0].soft_granted > 0);
    }

    #[test]
    fn replay_is_deterministic() {
        let cfg = tiny();
        let plan = FaultPlan::crash_storm(5, cfg.peers as u64, 0.08, 8, Some(3));
        let a = run(&cfg, plan.clone()).to_csv();
        let b = run(&cfg, plan).to_csv();
        assert_eq!(a, b);
    }
}
