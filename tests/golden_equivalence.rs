//! Scale-refactor equivalence suite: the default fig. 8 and fig. 9 runs
//! must render byte-identical CSV to the goldens captured from the
//! pre-refactor (BTreeMap world state, build-per-cell) representation —
//! and must stay identical across worker-thread counts. Small latency,
//! overhead, fault-lab and loadgen runs are pinned by value the same way,
//! and so is the default Fig. 10 run on the in-process runtime.
//!
//! These goldens pin the figure *outputs*, so any arena/SoA or
//! clone-per-cell change that perturbs float accumulation order, RNG
//! stream consumption, or cell fan-out ordering fails here. Re-capture
//! only when the protocol itself changes on purpose:
//! `cargo run --release -p spidernet-bench --bin fig8 -- --csv`.

use spidernet::core::experiments::{ablation, congestion, faults, fig11, fig8, fig9, latency, overhead};
use spidernet::core::loadgen::{run_cell, ArrivalProcess, LoadConfig};
use spidernet::core::system::{SpiderNet, SpiderNetConfig};
use spidernet::core::workload::PopulationConfig;
use spidernet::runtime::experiments as fig10;
use spidernet::sim::fault::FaultPlan;

const FIG8_GOLDEN: &str = include_str!("golden/fig8_default.csv");
const FIG9_GOLDEN: &str = include_str!("golden/fig9_default.csv");

/// Default fig8's work counters: BCP probes sent, and the optimal
/// baseline's leaves evaluated and positions cut. A weaker prune bound
/// leaves the CSV unchanged and only costs time, so these counters are
/// what catches it.
const FIG8_PROBES: u64 = 265_542;
const FIG8_COMBOS_EXAMINED: u64 = 34_753;
const FIG8_COMBOS_PRUNED: u64 = 21_885_927;

#[test]
fn fig8_default_matches_pre_refactor_golden_across_thread_counts() {
    for threads in [1usize, 4, 8] {
        let cfg = fig8::Fig8Config { threads: Some(threads), ..fig8::Fig8Config::default() };
        let res = fig8::run(&cfg);
        assert_eq!(
            res.to_csv(),
            FIG8_GOLDEN,
            "fig8 default CSV drifted from the seed representation at {threads} thread(s)"
        );
        assert_eq!(
            (res.total_probes, res.combos_examined, res.combos_pruned),
            (FIG8_PROBES, FIG8_COMBOS_EXAMINED, FIG8_COMBOS_PRUNED),
            "fig8 optimal work counters drifted at {threads} thread(s)"
        );
    }
}

#[test]
fn fig9_default_matches_pre_refactor_golden_across_thread_counts() {
    for threads in [1usize, 4, 8] {
        let cfg = fig9::Fig9Config { threads: Some(threads), ..fig9::Fig9Config::default() };
        let csv = fig9::run(&cfg).to_csv();
        assert_eq!(
            csv, FIG9_GOLDEN,
            "fig9 default CSV drifted from the seed representation at {threads} thread(s)"
        );
    }
}

// --- drivers pinned by value ---------------------------------------------
//
// The pins below were captured once from the drivers as they stood before
// they moved onto `core::scenario::Scenario`. A refactor that shifts these
// numbers the same way at every thread count would pass a cross-thread
// comparison; it cannot pass these.

const LATENCY_GOLDEN: &str = include_str!("golden/latency_small.csv");
const OVERHEAD_GOLDEN: &str = include_str!("golden/overhead_small.csv");
const FAULT_STORM_GOLDEN: &str = include_str!("golden/fault_storm_small.csv");
const LOAD_CELL_GOLDEN: &str = "arrivals=166 admitted=146 rej_adm=0 rej_qos=20 other=0 \
     expired=102 kills=0 rec_b=0 rec_r=0 abandoned=0 peak=45 shed=0 hits=216 misses=370 inv=0 \
     p50=407cff3c413a2b9a p95=40829f3d65398c2a p99=4085709acc6d025b";

#[test]
fn latency_small_matches_golden_across_thread_counts() {
    for threads in [1usize, 4] {
        let cfg = latency::LatencyConfig {
            ip_nodes: 300,
            peers: 70,
            sessions: 20,
            duration_units: 12,
            population: PopulationConfig { functions: 10, ..PopulationConfig::default() },
            threads: Some(threads),
            ..latency::LatencyConfig::default()
        };
        let csv = latency::run(&cfg).to_csv();
        assert_eq!(csv, LATENCY_GOLDEN, "latency CSV drifted at {threads} thread(s)");
    }
}

#[test]
fn overhead_small_matches_golden_across_thread_counts() {
    for threads in [1usize, 4] {
        let cfg = overhead::OverheadConfig {
            ip_nodes: 600,
            peers: 100,
            functions: 20,
            duration_units: 40,
            requests_per_unit: 1,
            session_lifetime_units: 10,
            budget: 12,
            threads: Some(threads),
            ..overhead::OverheadConfig::default()
        };
        let csv = overhead::run(&cfg).to_csv();
        assert_eq!(csv, OVERHEAD_GOLDEN, "overhead CSV drifted at {threads} thread(s)");
    }
}

#[test]
fn fault_lab_crash_storm_matches_golden() {
    let cfg = faults::FaultLabConfig {
        ip_nodes: 300,
        peers: 60,
        seed: 21,
        sessions: 10,
        population: PopulationConfig { functions: 10, ..PopulationConfig::default() },
        ..faults::FaultLabConfig::default()
    };
    let plan = FaultPlan::crash_storm(33, cfg.peers as u64, 0.08, 12, Some(4));
    assert_eq!(faults::run(&cfg, plan).to_csv(), FAULT_STORM_GOLDEN);
}

#[test]
fn cached_poisson_load_cell_matches_golden() {
    let mut base =
        SpiderNet::build(&SpiderNetConfig::builder().ip_nodes(300).peers(60).seed(17).build());
    base.populate(&PopulationConfig { functions: 12, ..PopulationConfig::default() });
    let cfg = LoadConfig {
        arrivals: ArrivalProcess::Poisson { rate: 9.0 },
        duration_units: 20,
        session_lifetime: (2.0, 8.0),
        seed: 5,
        compose_caching: true,
        ..LoadConfig::default()
    };
    assert_eq!(run_cell(&base, &cfg).deterministic_key(), LOAD_CELL_GOLDEN);
}

// --- Eq. 1 consumers pinned by value --------------------------------------
//
// fig11 runs the optimal baseline with the full qualified pool, congestion
// runs BCP under all four selection policies on a flow-mode geo overlay,
// and the ablation runs commutation patterns, both quota policies and
// trust weighting. The pins were captured while BCP and the optimal still
// priced candidates through two separate Eq. 1 evaluators. The ablation's
// `Display` rounds to 0.1 ms, so its pin is the bits of every result field.

const FIG11_GOLDEN: &str = include_str!("golden/fig11_small.csv");
const CONGESTION_GOLDEN: &str = include_str!("golden/congestion_small.csv");
const ABLATION_GOLDEN: &str = "406f55d3e3877b41 406f449dddea15e9 15 406c8817afa89fb7 \
     406d63904767acb4 3fe3333333333333 0000000000000000";

#[test]
fn fig11_small_matches_golden_across_thread_counts() {
    for threads in [1usize, 4] {
        let res = fig11::run(&fig11::Fig11Config {
            ip_nodes: 300,
            peers: 40,
            functions: 4,
            request_functions: 3,
            budgets: vec![1, 8, 64],
            requests: 10,
            seed: 11,
            threads: Some(threads),
        });
        assert_eq!(res.to_csv(), FIG11_GOLDEN, "fig11 CSV drifted at {threads} thread(s)");
        assert_eq!(res.optimal_probes, 864.0, "optimal probe count drifted");
    }
}

#[test]
fn congestion_small_matches_golden_across_thread_counts() {
    for threads in [1usize, 4] {
        let res = congestion::run(&congestion::CongestionConfig {
            ip_nodes: 300,
            peers: 60,
            loads: vec![10, 40],
            population: PopulationConfig { functions: 8, ..PopulationConfig::default() },
            threads: Some(threads),
            ..congestion::CongestionConfig::default()
        });
        assert_eq!(res.to_csv(), CONGESTION_GOLDEN, "congestion CSV drifted at {threads} thread(s)");
    }
}

#[test]
fn ablation_small_matches_golden_bits_across_thread_counts() {
    for threads in [1usize, 4] {
        let r = ablation::run(&ablation::AblationConfig {
            ip_nodes: 300,
            peers: 60,
            functions: 10,
            requests: 15,
            threads: Some(threads),
            ..ablation::AblationConfig::default()
        });
        let ((with_c, without_c, compared), (uniform, fraction), (blind, aware)) =
            (r.commutation_delay_ms, r.quota_delay_ms, r.trust_adversarial_rate);
        let b = |v: f64| format!("{:016x}", v.to_bits());
        let key = format!(
            "{} {} {compared} {} {} {} {}",
            b(with_c),
            b(without_c),
            b(uniform),
            b(fraction),
            b(blind),
            b(aware)
        );
        assert_eq!(key, ABLATION_GOLDEN, "ablation drifted at {threads} thread(s)");
    }
}

// --- Fig. 10 on the in-process runtime ------------------------------------
//
// Setup times come from content-keyed model timestamps, so the default
// figure is a pure function of its config. Captured with
// `cargo run --release -p spidernet-bench --bin fig10 -- --csv`.

const FIG10_GOLDEN: &str = include_str!("golden/fig10_default.csv");

#[test]
fn fig10_default_matches_golden() {
    let res = fig10::run(&fig10::Fig10Config::default());
    assert_eq!(res.to_csv(), FIG10_GOLDEN, "fig10 default CSV drifted");
}
