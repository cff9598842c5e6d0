//! Congestion figure (beyond the paper) — QoS-violation rate and goodput
//! vs offered load under the shared-bandwidth flow model, for four
//! replica-selection policies.
//!
//! The paper evaluates SpiderNet with hard bandwidth reservations: a
//! stream either fits a link or the candidate is rejected. Real overlay
//! links are *shared* — every admitted stream gets the max-min fair share
//! of each link it crosses, and an overloaded link silently degrades all
//! of them. This experiment switches the overlay onto
//! [`OverlayState::enable_flow_model`](crate::state::OverlayState), sweeps
//! offered load (standing sessions), and compares selection policies:
//!
//! * **paper** — static ψ-aware BCP selection (bandwidth never re-checked
//!   after admission, exactly the paper's model),
//! * **marketplace** — ICN-style bids `reputation × headroom / (1 + delay)`
//!   with reputation earned from observed vs promised delivery,
//! * **random** — deterministic content-hash choice among qualified graphs,
//! * **greedy** — lowest end-to-end delay, ignoring load entirely.
//!
//! A session *violates* its QoS when its delivered fraction of the
//! demanded stream rate drops below `frac_floor`, or when its
//! contention-inflated end-to-end delay exceeds the request's delay bound
//! (those queries re-price every hop under stress: the path rows only
//! store uncongested distances). Goodput sums the fair-share rates actually
//! delivered. Fair-share recomputes ride the simulator's [`EventQueue`]:
//! every establishment schedules a rate-recalc event, and each fired event
//! forces the lazy recompute and checks the flow-model invariants.
//!
//! Cells (policy × load) are independent worlds built from the same seed
//! and fed the identical request stream, fanned out over
//! [`par_map_with`] — results are bit-identical for any thread count.

use crate::bcp::BcpConfig;
use crate::selection::SelectionPolicy;
use crate::system::{SpiderNet, SpiderNetConfig};
use crate::workload::{random_request, PopulationConfig, RequestConfig};
use spidernet_sim::time::{SimDuration, SimTime};
use spidernet_sim::EventQueue;
use spidernet_util::id::SessionId;
use spidernet_util::par::par_map_with;
use spidernet_util::qos::dim;
use spidernet_util::rng::rng_for;
use std::fmt;

/// The four policies swept, in output order.
pub const POLICIES: [SelectionPolicy; 4] = [
    SelectionPolicy::Paper,
    SelectionPolicy::Marketplace,
    SelectionPolicy::Random,
    SelectionPolicy::Greedy,
];

/// Stable lowercase label for a policy (column names in CSV/JSON).
pub fn policy_name(p: SelectionPolicy) -> &'static str {
    match p {
        SelectionPolicy::Paper => "paper",
        SelectionPolicy::Marketplace => "marketplace",
        SelectionPolicy::Random => "random",
        SelectionPolicy::Greedy => "greedy",
    }
}

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct CongestionConfig {
    /// IP-layer nodes.
    pub ip_nodes: usize,
    /// Overlay peers.
    pub peers: usize,
    /// Master seed (worlds and request streams are identical across
    /// cells, so policies face the same demand).
    pub seed: u64,
    /// Offered-load sweep: standing sessions attempted per cell.
    pub loads: Vec<usize>,
    /// Delivered fraction below which a session counts as a QoS
    /// violation.
    pub frac_floor: f64,
    /// Marketplace feedback cadence: delivered fractions are observed
    /// into peer reputations every this many arrivals.
    pub observe_every: usize,
    /// Virtual time between arrivals, milliseconds.
    pub arrival_spacing_ms: f64,
    /// Lag between an establishment and its scheduled rate-recalc event,
    /// milliseconds.
    pub recalc_lag_ms: f64,
    /// Component population.
    pub population: PopulationConfig,
    /// Request shape (bandwidth demands drive the contention).
    pub request: RequestConfig,
    /// Base BCP configuration; each cell overrides `selection_policy`.
    pub bcp: BcpConfig,
    /// Worker threads for the cell fan-out (`None` = environment / all
    /// cores; results are identical for any value).
    pub threads: Option<usize>,
}

impl Default for CongestionConfig {
    fn default() -> Self {
        CongestionConfig {
            ip_nodes: 600,
            peers: 120,
            seed: 10,
            loads: vec![30, 60, 120, 240],
            frac_floor: 0.9,
            observe_every: 4,
            arrival_spacing_ms: 10.0,
            recalc_lag_ms: 5.0,
            // Video-scale streams: with ~100 Mbps edge pipes underneath,
            // a few concurrent sessions sharing a hub link is already
            // contention (the paper's hard-reservation model would simply
            // reject these; the flow model admits and degrades).
            population: PopulationConfig {
                functions: 12,
                out_bandwidth_mbps: (4.0, 12.0),
                ..PopulationConfig::default()
            },
            // Generous bounds: admission should rarely fail on QoS, so the
            // sweep exercises bandwidth contention rather than rejection.
            request: RequestConfig {
                functions: (2, 3),
                delay_bound_ms: (400.0, 700.0),
                loss_bound: (0.04, 0.08),
                bandwidth_mbps: (8.0, 20.0),
                max_failure_prob: 0.2,
                ..RequestConfig::default()
            },
            bcp: BcpConfig { budget: 96, merge_cap: 192, ..BcpConfig::default() },
            threads: None,
        }
    }
}

/// One (policy, offered-load) grid cell.
#[derive(Clone, Debug)]
pub struct CongestionCell {
    /// Selection policy of this cell.
    pub policy: SelectionPolicy,
    /// Sessions attempted.
    pub offered_sessions: usize,
    /// Sessions admitted (composed and established).
    pub admitted: u64,
    /// Sessions rejected at composition or establishment.
    pub rejected: u64,
    /// Admitted sessions violating their QoS at measurement time.
    pub violations: u64,
    /// `violations / admitted` (0 when nothing was admitted).
    pub violation_rate: f64,
    /// Sum of delivered fair-share rates across admitted sessions, Mbps.
    pub goodput_mbps: f64,
    /// Sum of demanded stream bandwidth across admitted sessions, Mbps.
    pub offered_mbps: f64,
    /// Mean delivered fraction across admitted sessions.
    pub mean_delivered: f64,
    /// Rate-recalc events fired through the event queue.
    pub recalc_events: u64,
}

/// The regenerated figure: cells in policy-major order ([`POLICIES`]
/// outer, configured loads inner).
#[derive(Clone, Debug)]
pub struct CongestionResult {
    /// All grid cells.
    pub cells: Vec<CongestionCell>,
    /// The offered-load sweep the cells cover.
    pub loads: Vec<usize>,
    /// The delivered-fraction floor used for violation accounting.
    pub frac_floor: f64,
}

impl CongestionResult {
    /// The cell for (policy index into [`POLICIES`], load index).
    pub fn cell(&self, policy_idx: usize, load_idx: usize) -> &CongestionCell {
        &self.cells[policy_idx * self.loads.len() + load_idx]
    }

    /// CSV rendering, one row per cell.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "policy,offered_sessions,admitted,rejected,violations,violation_rate,\
             goodput_mbps,offered_mbps,mean_delivered,recalc_events\n",
        );
        for c in &self.cells {
            out.push_str(&format!(
                "{},{},{},{},{},{:.6},{:.6},{:.6},{:.6},{}\n",
                policy_name(c.policy),
                c.offered_sessions,
                c.admitted,
                c.rejected,
                c.violations,
                c.violation_rate,
                c.goodput_mbps,
                c.offered_mbps,
                c.mean_delivered,
                c.recalc_events,
            ));
        }
        out
    }
}

impl fmt::Display for CongestionResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# Congestion — QoS violations & goodput vs offered load")?;
        writeln!(
            f,
            "{:>12} {:>8} {:>9} {:>10} {:>13} {:>13}",
            "policy", "offered", "admitted", "violation", "goodput_mbps", "delivered"
        )?;
        for c in &self.cells {
            writeln!(
                f,
                "{:>12} {:>8} {:>9} {:>10.4} {:>13.2} {:>13.4}",
                policy_name(c.policy),
                c.offered_sessions,
                c.admitted,
                c.violation_rate,
                c.goodput_mbps,
                c.mean_delivered,
            )?;
        }
        Ok(())
    }
}

/// Runs one grid cell: fresh world, flow model on, `load` arrivals under
/// `policy`, then a congestion measurement pass over the standing
/// sessions.
fn run_cell(cfg: &CongestionConfig, policy: SelectionPolicy, load: usize) -> CongestionCell {
    let mut net = SpiderNet::build(&SpiderNetConfig {
        ip_nodes: cfg.ip_nodes,
        peers: cfg.peers,
        seed: cfg.seed,
        ..SpiderNetConfig::default()
    });
    net.populate(&cfg.population);
    net.enable_flow_model();

    let mut bcp = cfg.bcp.clone();
    bcp.selection_policy = policy;

    // The event queue drives fair-share recomputes: every establishment
    // schedules a recalc a short lag later, and each fired event forces
    // the (lazy) recompute and re-checks the flow invariants.
    let mut recalcs = EventQueue::default();
    let spacing = SimDuration::from_ms(cfg.arrival_spacing_ms);
    let lag = SimDuration::from_ms(cfg.recalc_lag_ms);
    let mut now = SimTime::ZERO;
    let mut recalc_events = 0u64;

    // Identical request stream in every cell.
    let mut req_rng = rng_for(cfg.seed, "congestion-requests");
    let mut admitted_ids: Vec<SessionId> = Vec::new();
    let mut rejected = 0u64;

    for i in 0..load {
        now += spacing;
        let req = random_request(net.overlay(), net.registry(), &cfg.request, &mut req_rng);
        let established = match net.compose(&req, &bcp) {
            Ok(outcome) => net.establish(&req, outcome).ok(),
            Err(_) => None,
        };
        match established {
            Some(id) => {
                admitted_ids.push(id);
                recalcs.push((now + lag).as_ms(), ());
            }
            None => rejected += 1,
        }
        while recalcs.pop_due(now.as_ms()).is_some() {
            net.state_mut().verify_flow_invariants().expect("flow invariants");
            recalc_events += 1;
        }
        if (i + 1) % cfg.observe_every.max(1) == 0 {
            net.observe_session_deliveries();
        }
    }
    // Drain the tail of scheduled recalcs, then a final reputation pass.
    now += lag;
    now += lag;
    while recalcs.pop_due(now.as_ms()).is_some() {
        net.state_mut().verify_flow_invariants().expect("flow invariants");
        recalc_events += 1;
    }
    net.observe_session_deliveries();

    // Measurement pass over the standing sessions.
    let mut violations = 0u64;
    let mut goodput = 0.0f64;
    let mut offered_mbps = 0.0f64;
    let mut frac_sum = 0.0f64;
    for &id in &admitted_ids {
        let frac = net.session_delivered_fraction(id).unwrap_or(1.0);
        goodput += net.session_goodput(id).unwrap_or(0.0);
        let delay = net.contended_session_delay(id).unwrap_or(0.0);
        let (demand, bound) = net
            .sessions()
            .session(id)
            .map(|s| {
                (
                    net.state().session_demand_mbps(&s.allocation),
                    s.request.qos_req.bounds()[dim::DELAY_MS],
                )
            })
            .unwrap_or((0.0, f64::INFINITY));
        offered_mbps += demand;
        frac_sum += frac;
        if frac < cfg.frac_floor || delay > bound {
            violations += 1;
        }
    }
    let admitted = admitted_ids.len() as u64;
    CongestionCell {
        policy,
        offered_sessions: load,
        admitted,
        rejected,
        violations,
        violation_rate: if admitted > 0 { violations as f64 / admitted as f64 } else { 0.0 },
        goodput_mbps: goodput,
        offered_mbps,
        mean_delivered: if admitted > 0 { frac_sum / admitted as f64 } else { 1.0 },
        recalc_events,
    }
}

/// Runs the full (policy × load) grid.
pub fn run(cfg: &CongestionConfig) -> CongestionResult {
    let mut grid: Vec<(SelectionPolicy, usize)> = Vec::new();
    for &p in &POLICIES {
        for &l in &cfg.loads {
            grid.push((p, l));
        }
    }
    let cells = par_map_with(super::resolve_threads(cfg.threads), grid, |_, (policy, load)| {
        run_cell(cfg, policy, load)
    });
    CongestionResult { cells, loads: cfg.loads.clone(), frac_floor: cfg.frac_floor }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CongestionConfig {
        CongestionConfig {
            ip_nodes: 300,
            peers: 60,
            loads: vec![10, 40],
            population: PopulationConfig { functions: 8, ..PopulationConfig::default() },
            ..CongestionConfig::default()
        }
    }

    #[test]
    fn grid_covers_every_policy_and_load() {
        let res = run(&tiny());
        assert_eq!(res.cells.len(), POLICIES.len() * 2);
        for (i, &p) in POLICIES.iter().enumerate() {
            for (j, &l) in res.loads.iter().enumerate() {
                let c = res.cell(i, j);
                assert_eq!(c.policy, p);
                assert_eq!(c.offered_sessions, l);
                assert_eq!(c.admitted + c.rejected, l as u64);
                assert!((0.0..=1.0).contains(&c.violation_rate));
                assert!((0.0..=1.0 + 1e-9).contains(&c.mean_delivered));
                assert!(c.goodput_mbps <= c.offered_mbps + 1e-6);
            }
        }
        assert!(res.to_string().contains("marketplace"));
        let csv = res.to_csv();
        assert_eq!(csv.lines().count(), 1 + res.cells.len());
    }

    #[test]
    fn congestion_bites_at_higher_load() {
        let res = run(&tiny());
        // Under the paper's static policy the heavier load cell must
        // deliver a strictly worse (or equal) mean fraction.
        let light = res.cell(0, 0);
        let heavy = res.cell(0, 1);
        assert!(heavy.mean_delivered <= light.mean_delivered + 1e-9);
        // Rate-recalc events fired for every admitted session.
        assert_eq!(heavy.recalc_events, heavy.admitted);
    }

    #[test]
    fn marketplace_is_no_worse_than_static_at_peak_load() {
        let res = run(&tiny());
        let last = res.loads.len() - 1;
        let paper = res.cell(0, last);
        let market = res.cell(1, last);
        assert!(
            market.violation_rate <= paper.violation_rate + 1e-9,
            "marketplace {} vs paper {}",
            market.violation_rate,
            paper.violation_rate
        );
    }

    #[test]
    fn cell_fanout_is_thread_invariant() {
        let mut one = tiny();
        one.loads = vec![15];
        let mut four = one.clone();
        one.threads = Some(1);
        four.threads = Some(4);
        let a = run(&one);
        let b = run(&four);
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.admitted, y.admitted);
            assert_eq!(x.violations, y.violations);
            assert_eq!(x.goodput_mbps.to_bits(), y.goodput_mbps.to_bits());
            assert_eq!(x.mean_delivered.to_bits(), y.mean_delivered.to_bits());
        }
    }
}
