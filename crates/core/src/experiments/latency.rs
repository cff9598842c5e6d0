//! E7 — recovery-latency distribution: proactive backup switching vs
//! reactive re-composition.
//!
//! The paper's §5 argument: proactive recovery is "especially important
//! for soft real time applications" because switching to a maintained
//! backup avoids "the delay and overhead of triggering BCP to find a new
//! composition". This experiment quantifies that delay gap. Recovery
//! latency is modeled as:
//!
//! * **proactive**: failure-detection delay + stream switch delay;
//! * **reactive**: failure-detection delay + a full BCP round (discovery +
//!   probing in virtual network time) + session re-initialization (ack
//!   traversal of the new graph).
//!
//! The experiment drives a churn loop, forces both paths to occur (by
//! running one arm with backups and one without), and reports the latency
//! distribution of each.

use crate::bcp::BcpConfig;
use crate::recovery::{RecoveryConfig, DETECTION_DELAY_MS};
use crate::scenario::{Recovery, Scenario};
use crate::workload::{PopulationConfig, RequestConfig};
use spidernet_sim::FaultPlan;
use spidernet_util::par::par_map_with;
use spidernet_util::rng::rng_for;
use spidernet_util::stats::percentile;
use std::fmt;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct LatencyConfig {
    /// IP-layer nodes.
    pub ip_nodes: usize,
    /// Overlay peers.
    pub peers: usize,
    /// Master seed.
    pub seed: u64,
    /// Standing sessions.
    pub sessions: usize,
    /// Churn time units simulated.
    pub duration_units: u64,
    /// Fraction of live peers failing per time unit.
    pub fail_fraction: f64,
    /// Units after which a failed peer rejoins (`None` = never).
    pub rejoin_after_units: Option<u64>,
    /// Backup bound U (Eq. 2) for the proactive arm.
    pub backup_upper_bound: f64,
    /// Component population.
    pub population: PopulationConfig,
    /// Request shape.
    pub request: RequestConfig,
    /// BCP configuration (setup + reactive).
    pub bcp: BcpConfig,
    /// Worker threads for the arm fan-out (`None` = environment /
    /// all cores; results are identical for any value).
    pub threads: Option<usize>,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            ip_nodes: 800,
            peers: 160,
            seed: 77,
            sessions: 80,
            duration_units: 40,
            fail_fraction: 0.02,
            rejoin_after_units: Some(8),
            backup_upper_bound: 4.0,
            population: PopulationConfig { functions: 25, ..PopulationConfig::default() },
            request: RequestConfig {
                functions: (2, 4),
                delay_bound_ms: (350.0, 600.0),
                loss_bound: (0.03, 0.06),
                max_failure_prob: 0.12,
                ..RequestConfig::default()
            },
            bcp: BcpConfig { budget: 96, merge_cap: 256, ..BcpConfig::default() },
            threads: None,
        }
    }
}

/// Latency distribution of one recovery mechanism, ms.
#[derive(Clone, Debug, Default)]
pub struct LatencyDist {
    /// Raw samples.
    pub samples: Vec<f64>,
}

impl LatencyDist {
    /// p50 / p95 / max summary; NaNs for an empty distribution.
    pub fn quantiles(&self) -> (f64, f64, f64) {
        let mut v = self.samples.clone();
        let p50 = percentile(&mut v, 50.0);
        let p95 = percentile(&mut v, 95.0);
        let max = v.last().copied().unwrap_or(f64::NAN);
        (p50, p95, max)
    }
}

/// The measured comparison.
#[derive(Clone, Debug)]
pub struct LatencyResult {
    /// Proactive (backup-switch) recovery latencies.
    pub proactive: LatencyDist,
    /// Reactive (full-BCP) recovery latencies.
    pub reactive: LatencyDist,
}

impl fmt::Display for LatencyResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# E7 — recovery latency: proactive switch vs reactive re-composition (ms)")?;
        writeln!(f, "{:>10} {:>8} {:>10} {:>10} {:>10}", "mechanism", "n", "p50", "p95", "max")?;
        for (name, d) in [("proactive", &self.proactive), ("reactive", &self.reactive)] {
            let (p50, p95, max) = d.quantiles();
            writeln!(
                f,
                "{name:>10} {:>8} {p50:>10.0} {p95:>10.0} {max:>10.0}",
                d.samples.len()
            )?;
        }
        let (p_p50, ..) = self.proactive.quantiles();
        let (r_p50, ..) = self.reactive.quantiles();
        if p_p50.is_finite() && r_p50.is_finite() && p_p50 > 0.0 {
            writeln!(f, "median speedup: {:.1}x", r_p50 / p_p50)?;
        }
        Ok(())
    }
}

impl LatencyResult {
    /// CSV rendering: `mechanism,n,p50_ms,p95_ms,max_ms`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("mechanism,n,p50_ms,p95_ms,max_ms\n");
        for (name, d) in [("proactive", &self.proactive), ("reactive", &self.reactive)] {
            let (p50, p95, max) = d.quantiles();
            out.push_str(&format!("{name},{},{p50:.1},{p95:.1},{max:.1}\n", d.samples.len()));
        }
        out
    }
}

/// One arm: proactive (backups on) or reactive (backups off), standing
/// sessions under a churn plan.
fn run_arm(cfg: &LatencyConfig, proactive: bool) -> LatencyDist {
    let bound = if proactive { cfg.backup_upper_bound } else { 0.0 };
    let recovery = RecoveryConfig::builder().backup_upper_bound(bound).build();
    let net = super::world(cfg.ip_nodes, cfg.peers, cfg.seed, recovery, &cfg.population);
    // Only churn kills or revives peers here, so the plan's modeled live
    // set is the world's.
    let plan = FaultPlan::churn(
        cfg.seed,
        &mut rng_for(cfg.seed, "latency-churn"),
        cfg.peers as u64,
        cfg.fail_fraction,
        cfg.duration_units,
        cfg.rejoin_after_units,
    );
    let mut sc = Scenario::new(net, plan, cfg.bcp.clone());
    sc.establish_standing(cfg.sessions, &cfg.request, &mut rng_for(cfg.seed, "latency-requests"));

    let detection_ms = DETECTION_DELAY_MS;
    let mut dist = LatencyDist::default();
    for _ in 0..cfg.duration_units {
        for hit in sc.step(|_| {}).hits {
            match hit.recovery {
                Recovery::Backup { switch_ms, .. } => dist.samples.push(switch_ms),
                // Reactive latency: detection + BCP protocol time + re-init
                // ack (≈ a quarter of the protocol time, one reversed
                // traversal of the selected graph).
                Recovery::Reactive(stats) => {
                    let protocol = stats.discovery_ms + stats.probing_ms;
                    dist.samples.push(detection_ms + protocol + protocol * 0.25);
                }
                Recovery::Lost => {}
            }
        }
    }
    dist
}

/// Runs both arms in parallel; each arm is an independent simulation
/// with deliberately shared seeds (same network and failure schedule).
pub fn run(cfg: &LatencyConfig) -> LatencyResult {
    let mut arms = par_map_with(
        super::resolve_threads(cfg.threads),
        vec![true, false],
        |_, proactive| run_arm(cfg, proactive),
    );
    let reactive = arms.pop().expect("reactive arm");
    let proactive = arms.pop().expect("proactive arm");
    LatencyResult { proactive, reactive }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LatencyConfig {
        LatencyConfig {
            ip_nodes: 300,
            peers: 70,
            sessions: 20,
            duration_units: 12,
            population: PopulationConfig { functions: 10, ..PopulationConfig::default() },
            ..LatencyConfig::default()
        }
    }

    #[test]
    fn proactive_recovery_is_much_faster() {
        let res = run(&tiny());
        assert!(!res.proactive.samples.is_empty(), "no proactive recoveries observed");
        assert!(!res.reactive.samples.is_empty(), "no reactive recoveries observed");
        let (p50_pro, ..) = res.proactive.quantiles();
        let (p50_re, ..) = res.reactive.quantiles();
        assert!(
            p50_pro < p50_re,
            "proactive median {p50_pro} not below reactive {p50_re}"
        );
        assert!(res.to_string().contains("median speedup"));
    }

    #[test]
    fn csv_lists_both_mechanisms() {
        let res = run(&tiny());
        let csv = res.to_csv();
        assert!(csv.starts_with("mechanism,"));
        assert!(csv.contains("proactive,"));
        assert!(csv.contains("reactive,"));
    }

    #[test]
    fn latencies_include_detection_delay() {
        let cfg = tiny();
        let res = run(&cfg);
        for s in res.proactive.samples.iter().chain(&res.reactive.samples) {
            assert!(
                *s >= DETECTION_DELAY_MS,
                "latency {s} below detection delay"
            );
        }
    }
}
