//! §6.1 claim — "Compared to the global-view-based centralized scheme,
//! SpiderNet can achieve similar performance but with more than one order
//! of magnitude less overhead since SpiderNet does not perform periodical
//! global view maintenance."
//!
//! Both schemes are charged in the same currency: **overlay-level message
//! transmissions per simulated horizon**.
//!
//! * SpiderNet: BCP probes (one transmission per spawned probe), DHT
//!   discovery messages (one per routing hop), session control, and backup
//!   maintenance — all on demand, proportional to the request rate.
//! * Centralized: every peer ships a state update to the central composer
//!   every update period; each update costs the overlay path length (in
//!   hops) from the peer to the composer. This cost is paid regardless of
//!   demand and scales with N — which is exactly why the paper's 1,000-peer
//!   setting yields the order-of-magnitude gap.

use crate::baselines::centralized_state_messages;
use crate::bcp::{BcpConfig, QuotaPolicy};
use crate::paths::PathTable;
use crate::recovery::RecoveryConfig;
use crate::scenario::Scenario;
use crate::workload::{random_request, PopulationConfig, RequestConfig};
use spidernet_sim::metrics::counter;
use spidernet_sim::time::SimTime;
use spidernet_sim::FaultPlan;
use spidernet_util::id::PeerId;
use spidernet_util::par::par_map_with;
use spidernet_util::rng::rng_for;
use std::fmt;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct OverheadConfig {
    /// IP-layer nodes.
    pub ip_nodes: usize,
    /// Overlay peers. The centralized scheme's cost scales with this.
    pub peers: usize,
    /// Function pool size.
    pub functions: usize,
    /// Master seed.
    pub seed: u64,
    /// Time units simulated.
    pub duration_units: u64,
    /// Composition requests per time unit.
    pub requests_per_unit: u64,
    /// Session lifetime, time units (keeps maintenance load steady-state).
    pub session_lifetime_units: u64,
    /// Centralized scheme's state-update period, time units. Dynamic P2P
    /// networks force frequent updates to keep state fresh; 1 is the
    /// faithful setting.
    pub update_period_units: u64,
    /// BCP budget per request.
    pub budget: u32,
    /// Worker threads for the per-peer hop-count fan-out (`None` =
    /// environment / all cores; results are identical for any value).
    pub threads: Option<usize>,
}

impl Default for OverheadConfig {
    fn default() -> Self {
        OverheadConfig {
            ip_nodes: 2_000,
            peers: 1_000,
            functions: 100,
            seed: 5,
            duration_units: 100,
            requests_per_unit: 2,
            session_lifetime_units: 20,
            update_period_units: 1,
            budget: 20,
            threads: None,
        }
    }
}

/// The measured comparison.
#[derive(Clone, Debug)]
pub struct OverheadResult {
    /// BCP probe messages.
    pub probe_messages: u64,
    /// DHT discovery messages.
    pub dht_messages: u64,
    /// Backup maintenance messages.
    pub maintenance_messages: u64,
    /// Session control (ack/teardown) messages.
    pub control_messages: u64,
    /// Total SpiderNet messages.
    pub spidernet_total: u64,
    /// Mean overlay hops from a peer to the central composer.
    pub mean_update_hops: f64,
    /// Centralized global-state update messages over the same horizon.
    pub centralized_total: u64,
    /// centralized / spidernet.
    pub ratio: f64,
    /// Probes spent per composition session `(session id, probes)`,
    /// ascending by session — the per-session rows the `--trace-json`
    /// exporter publishes.
    pub session_probes: Vec<(u64, u64)>,
}

impl fmt::Display for OverheadResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# Overhead — SpiderNet vs centralized global-state scheme")?;
        writeln!(f, "spidernet probes:      {:>12}", self.probe_messages)?;
        writeln!(f, "spidernet dht:         {:>12}", self.dht_messages)?;
        writeln!(f, "spidernet maintenance: {:>12}", self.maintenance_messages)?;
        writeln!(f, "spidernet control:     {:>12}", self.control_messages)?;
        writeln!(f, "spidernet total:       {:>12}", self.spidernet_total)?;
        writeln!(f, "mean update hops:      {:>12.2}", self.mean_update_hops)?;
        writeln!(f, "centralized total:     {:>12}", self.centralized_total)?;
        writeln!(f, "overhead ratio:        {:>12.1}x", self.ratio)
    }
}

impl OverheadResult {
    /// CSV rendering: one `metric,value` pair per line.
    pub fn to_csv(&self) -> String {
        format!(
            "metric,value\nprobes,{}\ndht,{}\nmaintenance,{}\ncontrol,{}\nspidernet_total,{}\ncentralized_total,{}\nratio,{:.3}\n",
            self.probe_messages,
            self.dht_messages,
            self.maintenance_messages,
            self.control_messages,
            self.spidernet_total,
            self.centralized_total,
            self.ratio
        )
    }
}

/// Runs the comparison.
pub fn run(cfg: &OverheadConfig) -> OverheadResult {
    let population = PopulationConfig { functions: cfg.functions, ..PopulationConfig::default() };
    let mut net =
        super::world(cfg.ip_nodes, cfg.peers, cfg.seed, RecoveryConfig::default(), &population);
    net.reset_metrics(); // registration cost excluded from both sides
    net.set_session_tracking(true); // per-session probe rows for the exporter

    // Mean overlay path length from peers to the central composer (peer 0):
    // the per-update transmission cost of the centralized scheme. Each
    // peer's SSSP is independent, so the hop counts fan out across the
    // worker threads (the simulation loop below is inherently sequential —
    // every request mutates the shared resource state).
    let mean_update_hops = {
        let composer = PeerId::new(0);
        let sources: Vec<PeerId> = net.overlay().peers().filter(|&p| p != composer).collect();
        let overlay = net.overlay();
        let hops = par_map_with(super::resolve_threads(cfg.threads), sources, |_, p| {
            let mut paths = PathTable::new();
            paths.peer_path(overlay, p, composer).map(|path| path.len() - 1)
        });
        let counted = hops.iter().flatten().count();
        let total_hops: usize = hops.iter().flatten().sum();
        total_hops as f64 / counted.max(1) as f64
    };

    let req_cfg = RequestConfig { functions: (2, 4), ..RequestConfig::default() };
    let mut rng = rng_for(cfg.seed, "overhead");
    let bcp = BcpConfig { budget: cfg.budget, quota: QuotaPolicy::Uniform(4), ..BcpConfig::default() };

    let mut sc = Scenario::new(net, FaultPlan::new(cfg.seed), bcp.clone());
    for unit in 0..cfg.duration_units {
        sc.step(|a| {
            for _ in 0..cfg.requests_per_unit {
                let req = random_request(a.net.overlay(), a.net.registry(), &req_cfg, &mut rng);
                if let Ok(outcome) = a.net.compose(&req, &bcp) {
                    let expires = SimTime::from_secs(unit + cfg.session_lifetime_units);
                    let _ = a.admit(&req, outcome, expires);
                }
            }
        });
    }

    let net = sc.net();
    let probe_messages = net.metrics().value(counter::PROBES);
    let dht_messages = net.metrics().value(counter::DHT_MESSAGES);
    let maintenance_messages = net.metrics().value(counter::MAINTENANCE);
    let control_messages = net.metrics().value(counter::CONTROL);
    let spidernet_total = probe_messages + dht_messages + maintenance_messages + control_messages;
    let probe_handle = net.obs().counters.probes;
    let session_probes: Vec<(u64, u64)> = net
        .metrics()
        .sessions()
        .map(|(sid, _)| (sid, net.metrics().session_value(sid, probe_handle)))
        .collect();
    let centralized_total = (centralized_state_messages(
        cfg.peers as u64,
        cfg.duration_units,
        cfg.update_period_units,
    ) as f64
        * mean_update_hops)
        .round() as u64;

    OverheadResult {
        probe_messages,
        dht_messages,
        maintenance_messages,
        control_messages,
        spidernet_total,
        mean_update_hops,
        centralized_total,
        ratio: centralized_total as f64 / spidernet_total.max(1) as f64,
        session_probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(peers: usize) -> OverheadConfig {
        OverheadConfig {
            ip_nodes: 600,
            peers,
            functions: 20,
            duration_units: 40,
            requests_per_unit: 1,
            session_lifetime_units: 10,
            budget: 12,
            ..OverheadConfig::default()
        }
    }

    #[test]
    fn centralized_cost_scales_with_peers_spidernet_does_not() {
        let a = run(&small(100));
        let b = run(&small(300));
        // Centralized triples with the population; SpiderNet's demand-driven
        // cost stays in the same ballpark, so the advantage widens.
        assert!(b.centralized_total > 2 * a.centralized_total);
        assert!(
            b.ratio > a.ratio,
            "advantage must widen with N: {:.1}x → {:.1}x",
            a.ratio,
            b.ratio
        );
    }

    #[test]
    fn spidernet_wins_clearly_at_scale() {
        let res = run(&small(300));
        assert!(res.spidernet_total > 0, "no messages accounted");
        assert!(
            res.ratio > 2.0,
            "expected a clear advantage even at 300 peers, got {:.1}x ({} vs {})",
            res.ratio,
            res.centralized_total,
            res.spidernet_total
        );
        assert!(res.mean_update_hops >= 1.0);
        assert!(res.to_string().contains("overhead ratio"));
    }

    #[test]
    fn csv_lists_all_counters() {
        let res = run(&small(100));
        let csv = res.to_csv();
        for key in ["probes", "dht", "maintenance", "control", "spidernet_total", "centralized_total", "ratio"] {
            assert!(csv.contains(key), "missing {key} in csv");
        }
    }

    #[test]
    fn totals_add_up() {
        let res = run(&small(100));
        assert_eq!(
            res.spidernet_total,
            res.probe_messages + res.dht_messages + res.maintenance_messages
                + res.control_messages
        );
        // Every probe was spent inside some composition session.
        assert!(!res.session_probes.is_empty());
        let per_session: u64 = res.session_probes.iter().map(|&(_, p)| p).sum();
        assert_eq!(per_session, res.probe_messages);
    }
}
