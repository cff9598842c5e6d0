//! Fig. 9 — failure frequency over time in a dynamic P2P network, with and
//! without proactive recovery.
//!
//! The paper's setting: 1% of peers randomly fail during each time unit;
//! the y-axis counts failures per time unit over a 60-unit ("minute")
//! horizon. *Without* recovery, every session whose service graph loses a
//! peer suffers a user-visible failure. *With* proactive recovery, a
//! session only counts a failure when no maintained backup can take over
//! (reactive BCP has to run). The paper reports that maintaining on
//! average 2.74 backups per session recovers almost all failures.

use crate::bcp::BcpConfig;
use crate::recovery::RecoveryConfig;
use crate::scenario::Scenario;
use crate::workload::{PopulationConfig, RequestConfig};
use spidernet_sim::metrics::{counter, MetricsRegistry};
use spidernet_sim::FaultPlan;
use spidernet_util::par::par_map_with;
use spidernet_util::rng::rng_for;
use std::fmt;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Fig9Config {
    /// IP-layer nodes.
    pub ip_nodes: usize,
    /// Overlay peers.
    pub peers: usize,
    /// Master seed.
    pub seed: u64,
    /// Long-lived sessions established up front.
    pub sessions: usize,
    /// Time units simulated (paper: 60).
    pub duration_units: u64,
    /// Fraction of live peers failing per time unit (paper: 0.01).
    pub fail_fraction: f64,
    /// Units after which a failed peer rejoins (`None` = never).
    pub rejoin_after_units: Option<u64>,
    /// Backup bound U for the with-recovery mode.
    pub backup_upper_bound: f64,
    /// Component population.
    pub population: PopulationConfig,
    /// Request shape for the standing sessions.
    pub request: RequestConfig,
    /// BCP configuration for setup and reactive recovery.
    pub bcp: BcpConfig,
    /// Worker threads for the arm fan-out (`None` = environment /
    /// all cores; results are identical for any value).
    pub threads: Option<usize>,
}

impl Default for Fig9Config {
    fn default() -> Self {
        Fig9Config {
            ip_nodes: 1_000,
            peers: 200,
            seed: 9,
            sessions: 100,
            duration_units: 60,
            fail_fraction: 0.01,
            rejoin_after_units: Some(10),
            backup_upper_bound: 4.0,
            population: PopulationConfig { functions: 30, ..PopulationConfig::default() },
            // Bounds sized so sessions sit at meaningful fractions of their
            // requirements — Eq. 2 then maintains a few backups each (the
            // paper reports 2.74 on average).
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

/// The regenerated figure.
#[derive(Clone, Debug)]
pub struct Fig9Result {
    /// Failures per time unit without proactive recovery.
    pub without_recovery: Vec<u64>,
    /// Failures per time unit with proactive recovery.
    pub with_recovery: Vec<u64>,
    /// Mean number of backups maintained per session (paper: 2.74).
    pub mean_backups: f64,
    /// Fraction of peer-failure hits recovered by a backup.
    pub recovery_ratio: f64,
    /// Probe transmissions summed across both arms — harness throughput
    /// accounting (for `BENCH_fig9.json`), not part of the figure.
    pub total_probes: u64,
    /// Protocol counters and histograms merged across both arms (baseline
    /// first, proactive second) — the `--trace-json` exporter's input.
    pub metrics: MetricsRegistry,
}

impl fmt::Display for Fig9Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# Fig. 9 — failure frequency in a dynamic P2P network")?;
        writeln!(f, "{:>6} {:>18} {:>18}", "t", "without-recovery", "with-recovery")?;
        for (t, (a, b)) in self.without_recovery.iter().zip(&self.with_recovery).enumerate() {
            writeln!(f, "{t:>6} {a:>18} {b:>18}")?;
        }
        writeln!(f, "mean backups/session: {:.2}", self.mean_backups)?;
        writeln!(f, "backup recovery ratio: {:.3}", self.recovery_ratio)
    }
}

impl Fig9Result {
    /// CSV rendering: `t,without_recovery,with_recovery`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t,without_recovery,with_recovery\n");
        for (t, (a, b)) in self.without_recovery.iter().zip(&self.with_recovery).enumerate() {
            out.push_str(&format!("{t},{a},{b}\n"));
        }
        out
    }
}

/// One simulation mode: standing sessions under a churn plan.
fn run_mode(cfg: &Fig9Config, proactive: bool) -> (Vec<u64>, f64, f64, u64, MetricsRegistry) {
    let bound = if proactive { cfg.backup_upper_bound } else { 0.0 };
    let recovery = RecoveryConfig::builder().backup_upper_bound(bound).build();
    let net = super::world(cfg.ip_nodes, cfg.peers, cfg.seed, recovery, &cfg.population);
    // The failure pattern is seeded independently of the mode so both
    // curves see the same failure schedule. Only churn kills or revives
    // peers here, so the plan's modeled live set is the world's.
    let plan = FaultPlan::churn(
        cfg.seed,
        &mut rng_for(cfg.seed, "fig9-churn"),
        cfg.peers as u64,
        cfg.fail_fraction,
        cfg.duration_units,
        cfg.rejoin_after_units,
    );
    let mut sc = Scenario::new(net, plan, cfg.bcp.clone());
    sc.establish_standing(cfg.sessions, &cfg.request, &mut rng_for(cfg.seed, "fig9-requests"));
    let mean_backups = sc.net().sessions().mean_backup_count();

    // A session fails when no maintained backup absorbs the hit; reactive
    // BCP then re-places it (or abandons it), keeping the population steady.
    let mut failures_per_unit = Vec::with_capacity(cfg.duration_units as usize);
    let (mut hits, mut recovered) = (0u64, 0u64);
    for _ in 0..cfg.duration_units {
        let step = sc.step(|_| {});
        hits += step.hits.len() as u64;
        recovered += step.switches();
        failures_per_unit.push(step.reactive());
    }

    let ratio = if hits > 0 { recovered as f64 / hits as f64 } else { 1.0 };
    let metrics = sc.net().metrics();
    (failures_per_unit, mean_backups, ratio, metrics.value(counter::PROBES), metrics.clone())
}

/// Runs both modes over the same failure schedule.
///
/// The two arms share their seeds *deliberately* (same network, same
/// standing demand, same failure schedule) but are otherwise independent
/// simulations, so they run as two parallel trials.
pub fn run(cfg: &Fig9Config) -> Fig9Result {
    let mut arms = par_map_with(
        super::resolve_threads(cfg.threads),
        vec![false, true],
        |_, proactive| run_mode(cfg, proactive),
    );
    let (with_recovery, mean_backups, recovery_ratio, probes_with, reg_with) =
        arms.pop().expect("proactive arm");
    let (without_recovery, _, _, probes_without, reg_without) = arms.pop().expect("baseline arm");
    let mut metrics = reg_without;
    metrics.merge(&reg_with);
    Fig9Result {
        without_recovery,
        with_recovery,
        mean_backups,
        recovery_ratio,
        total_probes: probes_with + probes_without,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Fig9Config {
        Fig9Config {
            ip_nodes: 300,
            peers: 80,
            sessions: 20,
            duration_units: 15,
            population: PopulationConfig { functions: 10, ..PopulationConfig::default() },
            ..Fig9Config::default()
        }
    }

    #[test]
    fn proactive_recovery_reduces_failures() {
        let res = run(&tiny());
        let without: u64 = res.without_recovery.iter().sum();
        let with: u64 = res.with_recovery.iter().sum();
        assert!(
            with <= without,
            "recovery must not increase failures: {with} vs {without}"
        );
        assert!(res.mean_backups > 0.0, "no backups were maintained");
        assert!((0.0..=1.0).contains(&res.recovery_ratio));
        assert_eq!(res.without_recovery.len(), 15);
        assert!(res.to_string().contains("mean backups"));
    }

    #[test]
    fn csv_has_one_row_per_unit() {
        let res = run(&tiny());
        let csv = res.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "t,without_recovery,with_recovery");
        assert_eq!(lines.len(), 1 + res.without_recovery.len());
    }

    #[test]
    fn without_recovery_mode_maintains_no_backups() {
        let cfg = tiny();
        let (_, mean_backups, ratio, _, _) = run_mode(&cfg, false);
        assert_eq!(mean_backups, 0.0);
        // Either nothing was hit (ratio defaults to 1) or nothing could be
        // backup-recovered.
        assert!(ratio == 0.0 || ratio == 1.0);
    }
}
