//! Regenerates Fig. 10: wide-area session setup time vs function number on
//! the in-process PlanetLab stand-in (102 peers), in model time.
//!
//! `cargo run --release -p spidernet-bench --bin fig10 [--paper] [--csv] [--json [path]] [--trace-json]`
//!
//! `--trace-json` writes `TRACE_fig10.json`: probe transmissions per
//! composition session plus cluster trace-ring statistics.
//!
//! Two fault-injection modes replace the setup-time experiment with the
//! deterministic fault lab (same seed ⇒ byte-identical output at any
//! thread count):
//!
//! * `--faults <spec>` replays one fault plan against a standing-session
//!   population — `storm:rate=0.05,units=30,revive=5` or an atom list
//!   like `crash@3:7;revive@8:7;expire@4:16`;
//! * `--churn-sweep` replays one crash storm per churn rate
//!   (`--rates 0.01,0.05` overrides the default grid).
//!
//! Both honor `--csv` / `--json [path]` (`BENCH_fig10.json` gains
//! recovery fields: success rate, switch latency, reactive-BCP count).

use spidernet_bench::{
    arg_value, churn_sweep_requested, csv_requested, json_spec, paper_scale_requested,
    trace_json_requested, BenchReport,
};
use spidernet_core::experiments::faults::{self, ChurnSweepConfig, FaultLabConfig};
use spidernet_runtime::experiments::{run, Fig10Config};
use spidernet_sim::fault::FaultPlan;
use spidernet_sim::TraceReport;

fn fault_lab_config() -> FaultLabConfig {
    let mut cfg = FaultLabConfig::default();
    if paper_scale_requested() {
        cfg.ip_nodes = 1_000;
        cfg.peers = 200;
        cfg.sessions = 100;
    }
    cfg
}

fn run_fault_plan(spec: &str) {
    let cfg = fault_lab_config();
    let plan = match FaultPlan::parse(spec, cfg.seed, cfg.peers as u64) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("fig10: bad --faults spec: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "fig10: fault lab, {} peers, {} sessions, {} actions over {} units",
        cfg.peers,
        cfg.sessions,
        plan.len(),
        plan.horizon()
    );
    let rep = faults::run(&cfg, plan);
    if let Some(json_path) = json_spec() {
        let mut b = BenchReport::new("fig10");
        b.int("crashes", rep.crashes())
            .int("revives", rep.revives())
            .int("hits", rep.hits())
            .int("recovery_switches", rep.switches())
            .int("reactive_bcp", rep.reactive())
            .int("sessions_established", rep.established as u64)
            .int("sessions_surviving", rep.surviving as u64)
            .num("recovery_success_rate", rep.recovery_success_rate())
            .num("mean_switch_ms", rep.mean_switch_ms);
        match b.write_spec(&json_path) {
            Ok(p) => eprintln!("fig10: wrote {}", p.display()),
            Err(e) => eprintln!("fig10: could not write bench report: {e}"),
        }
    }
    if csv_requested() {
        print!("{}", rep.to_csv());
    } else {
        println!("{rep}");
    }
}

fn run_churn_sweep() {
    let mut cfg = ChurnSweepConfig { base: fault_lab_config(), ..ChurnSweepConfig::default() };
    if let Some(spec) = arg_value("--rates") {
        match spec.split(',').map(str::parse::<f64>).collect::<Result<Vec<_>, _>>() {
            Ok(rates) if !rates.is_empty() => cfg.rates = rates,
            _ => {
                eprintln!("fig10: bad --rates list {spec:?}");
                std::process::exit(2);
            }
        }
    }
    eprintln!(
        "fig10: churn sweep over {:?} ({} units per cell, {} peers)",
        cfg.rates, cfg.units, cfg.base.peers
    );
    let res = faults::churn_sweep(&cfg);
    if let Some(json_path) = json_spec() {
        let crashes: u64 = res.rows.iter().map(|r| r.crashes).sum();
        let hits: u64 = res.rows.iter().map(|r| r.hits).sum();
        let switches: u64 = res.rows.iter().map(|r| r.switches).sum();
        let reactive: u64 = res.rows.iter().map(|r| r.reactive).sum();
        let success = if hits == 0 { 1.0 } else { switches as f64 / hits as f64 };
        // Switch-count-weighted mean across cells (cells without switches
        // contribute nothing).
        let weighted: f64 = res.rows.iter().map(|r| r.mean_switch_ms * r.switches as f64).sum();
        let mean_switch_ms = if switches == 0 { 0.0 } else { weighted / switches as f64 };
        let mut b = BenchReport::new("fig10");
        b.int("sweep_cells", res.rows.len() as u64)
            .int("crashes", crashes)
            .int("hits", hits)
            .int("recovery_switches", switches)
            .int("reactive_bcp", reactive)
            .num("recovery_success_rate", success)
            .num("mean_switch_ms", mean_switch_ms);
        match b.write_spec(&json_path) {
            Ok(p) => eprintln!("fig10: wrote {}", p.display()),
            Err(e) => eprintln!("fig10: could not write bench report: {e}"),
        }
    }
    if csv_requested() {
        print!("{}", res.to_csv());
    } else {
        println!("{res}");
    }
}

fn main() {
    if let Some(spec) = arg_value("--faults") {
        run_fault_plan(&spec);
        return;
    }
    if churn_sweep_requested() {
        run_churn_sweep();
        return;
    }
    let mut cfg = Fig10Config::default();
    if paper_scale_requested() {
        cfg.requests_per_point = 100; // ≥500 requests total, as in the paper
    }
    eprintln!(
        "fig10: {} peers, {} requests per function count",
        cfg.cluster.peers, cfg.requests_per_point
    );
    let res = run(&cfg);
    if let Some(json_path) = json_spec() {
        let successes: u64 = res.rows.iter().map(|r| r.successes as u64).sum();
        let attempts: u64 = res.rows.iter().map(|r| r.attempts as u64).sum();
        let probes: u64 = res.session_probes.iter().map(|&(_, p)| p).sum();
        let mut b = BenchReport::new("fig10");
        b.int("points", res.rows.len() as u64)
            .int("attempts", attempts)
            .int("successes", successes)
            .int("probes", probes);
        if let Some(last) = res.rows.last() {
            b.num("max_chain_total_ms", last.total_ms);
        }
        match b.write_spec(&json_path) {
            Ok(p) => eprintln!("fig10: wrote {}", p.display()),
            Err(e) => eprintln!("fig10: could not write bench report: {e}"),
        }
    }
    if trace_json_requested() {
        let mut rep = TraceReport::new("fig10");
        let total: u64 = res.session_probes.iter().map(|&(_, p)| p).sum();
        rep.counter("bcp.probes", total).session_columns(&["bcp.probes"]);
        for &(session, probes) in &res.session_probes {
            rep.session(session, &[probes]);
        }
        let (recorded, buffered, overwritten) = res.trace_stats;
        rep.trace_stats(recorded, buffered, overwritten);
        match rep.write() {
            Ok(p) => eprintln!("fig10: wrote {}", p.display()),
            Err(e) => eprintln!("fig10: could not write trace report: {e}"),
        }
    }
    if csv_requested() {
        print!("{}", res.to_csv());
    } else {
        println!("{res}");
    }
}
