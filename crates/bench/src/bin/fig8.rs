//! Regenerates Fig. 8: composition success rate vs workload for optimal,
//! probing-0.2, probing-0.1, random, and static.
//!
//! `cargo run --release -p spidernet-bench --bin fig8 [--paper] [--csv] [--json [path]] [--trace-json] [--peers N]`
//!
//! `--json [path]` additionally times the harness sequentially and in parallel
//! (the outputs are bit-identical either way) and writes the wall-time /
//! throughput record to `BENCH_fig8.json`. `--trace-json` writes the
//! merged protocol counters and DAG-shape histograms to `TRACE_fig8.json`.
//!
//! `--peers N` runs the geometric-overlay scale sweep at N peers
//! (10^5–10^6 territory). Alone it prints the sweep summary; combined
//! with `--json` it also runs the figure grid and the report gains a
//! `scale` block (peers, probes/sec, peak RSS).

use spidernet_bench::{
    arg_value, csv_requested, json_requested, json_spec, paper_scale_requested, peak_rss_bytes,
    quick_requested, time_seq_par, trace_json_requested, BenchBlock, BenchReport,
};
use spidernet_core::experiments::fig8::{
    optimal_phase_bench, run, run_scale, Fig8Config, ScaleConfig, ScaleResult,
};
use spidernet_core::workload::{PopulationConfig, RequestConfig};
use spidernet_sim::metrics::counter;
use spidernet_sim::TraceReport;

/// CI smoke configuration: a miniature grid run *uncapped*
/// (`optimal_cap: None`), so the report's enumerator fields reflect the
/// paper-accurate exact-optimal semantics while finishing in seconds.
fn quick_scale() -> Fig8Config {
    Fig8Config {
        ip_nodes: 300,
        peers: 60,
        duration_units: 10,
        workloads: vec![3, 6],
        population: PopulationConfig { functions: 12, ..PopulationConfig::default() },
        request: RequestConfig { functions: (2, 3), ..RequestConfig::default() },
        optimal_cap: None,
        ..Fig8Config::default()
    }
}

/// Runs the geometric-overlay scale sweep at `peers` peers and prints a
/// one-line summary. `--quick` shortens the request stream for CI.
fn scale_sweep(peers: usize) -> ScaleResult {
    let cfg = ScaleConfig {
        peers,
        requests: if quick_requested() { 100 } else { 400 },
        build_threads: spidernet_util::par::configured_threads(),
        ..ScaleConfig::default()
    };
    eprintln!("fig8 scale: {} peers, {} requests...", cfg.peers, cfg.requests);
    let res = run_scale(&cfg);
    eprintln!(
        "fig8 scale: build {:.1}s, {} probes in {:.2}s = {:.0} probes/sec, {}/{} committed",
        res.build_secs, res.probes, res.probe_secs, res.probes_per_sec, res.successes, res.requests
    );
    res
}

fn main() {
    let scale = arg_value("--peers")
        .map(|v| v.parse::<usize>().expect("--peers takes a peer count"))
        .map(scale_sweep);
    if let Some(scale) = &scale {
        if !json_requested() {
            // Scale-only invocation: the sweep summary is the output.
            println!(
                "peers {} probes_per_sec {:.0} peak_rss_bytes {}",
                scale.peers,
                scale.probes_per_sec,
                peak_rss_bytes().unwrap_or(0)
            );
            return;
        }
    }
    let base = if paper_scale_requested() {
        Fig8Config::paper_scale()
    } else if quick_requested() {
        quick_scale()
    } else {
        Fig8Config::default()
    };
    eprintln!(
        "fig8: {} peers, {} units, workloads {:?}{}",
        base.peers,
        base.duration_units,
        base.workloads,
        if paper_scale_requested() { " (paper scale)" } else { " (scaled down; pass --paper for full size)" }
    );
    let res = if let Some(json_path) = json_spec() {
        let trials = (base.workloads.len() * base.algorithms.len()) as u64;
        let (seq, par, threads, out) =
            time_seq_par(|t| run(&Fig8Config { threads: Some(t), ..base.clone() }));
        let mut rep = BenchReport::new("fig8");
        rep.int("trials", trials)
            .int("threads", threads as u64)
            .num("sequential_secs", seq)
            .num("parallel_secs", par)
            .num("speedup", seq / par)
            .num("trials_per_sec", trials as f64 / par)
            .int("probes", out.total_probes)
            // Probing throughput over the time the probing cells actually
            // ran — optimal/random/static cells transmit no probes, so
            // wall-clock-based rates mostly measure the optimal
            // enumerator. The wall-clock variant is kept alongside.
            .num("probes_per_sec", out.total_probes as f64 / out.probing_phase_secs.max(1e-9))
            .num("probes_per_sec_wall", out.total_probes as f64 / par)
            .num("build_secs", out.build_secs)
            .num("probing_phase_secs", out.probing_phase_secs)
            .num("optimal_phase_secs", out.optimal_phase_secs)
            .int("combos_examined", out.combos_examined)
            .int("combos_pruned", out.combos_pruned)
            // Overlay path rows: a miss builds a source's SSSP row (one
            // Dijkstra), a hit reads a row already built. The keys keep
            // their pair-cache names from before the row table.
            .int("pair_cache_hits", out.metrics.value(counter::PAIR_CACHE_HITS))
            .int("pair_cache_misses", out.metrics.value(counter::PAIR_CACHE_MISSES));
        // Head-to-head optimal-phase comparison: the naive reference
        // enumerator vs branch-and-bound over the same request stream and
        // cap (identical considered-combination semantics).
        let phase = optimal_phase_bench(&base, 32);
        rep.num("optimal_naive_secs", phase.naive_secs)
            .num("optimal_bb_secs", phase.bb_secs)
            .num("optimal_speedup", phase.speedup);
        if let Some(scale) = &scale {
            let mut block = BenchBlock::new();
            block
                .int("peers", scale.peers as u64)
                .int("requests", scale.requests)
                .int("successes", scale.successes)
                .num("build_secs", scale.build_secs)
                .num("probe_secs", scale.probe_secs)
                .int("probes", scale.probes)
                .num("probes_per_sec", scale.probes_per_sec)
                .int("peak_rss_bytes", peak_rss_bytes().unwrap_or(0));
            rep.nested("scale", &block);
        }
        match rep.write_spec(&json_path) {
            Ok(p) => eprintln!("fig8: wrote {}", p.display()),
            Err(e) => eprintln!("fig8: could not write report: {e}"),
        }
        out
    } else {
        run(&base)
    };
    if trace_json_requested() {
        let mut rep = TraceReport::new("fig8");
        rep.add_registry(&res.metrics);
        match rep.write() {
            Ok(p) => eprintln!("fig8: wrote {}", p.display()),
            Err(e) => eprintln!("fig8: could not write trace report: {e}"),
        }
    }
    if csv_requested() {
        print!("{}", res.to_csv());
    } else {
        println!("{res}");
    }
}
