//! Open-loop load benchmark: offered-load sweep plus a cached-vs-uncached
//! compose head-to-head on a standing world.
//!
//! `cargo run --release -p spidernet-bench --bin loadbench -- \
//!    [--arrivals poisson:rate=R] [--peers N] [--units U] [--seed S] \
//!    [--rates r1,r2,...] [--quick] [--csv] [--json [path]] \
//!    [--results-json path]`
//!
//! Two outputs:
//!
//! * `BENCH_load.json` (`--json`) — the full report: per-cell goodput,
//!   setup-latency p50/p95/p99, rejection rate, compose-cache hit rate vs
//!   offered load, and the head-to-head block with measured composes/sec
//!   for both modes (wall-clock fields included).
//! * `--results-json <path>` — the model-time subset only: byte-identical
//!   across `SPIDERNET_THREADS` and across processes for a fixed seed,
//!   used by CI to pin determinism (`cmp` of a 1-thread and a 4-thread
//!   run).
//!
//! `--csv` prints the same deterministic per-cell rows to stdout.

use spidernet_bench::{
    arg_value, csv_requested, json_spec, quick_requested, BenchBlock, BenchReport,
};
use spidernet_core::bcp::{BcpConfig, BcpStats};
use spidernet_core::loadgen::{
    run_cell, zipf_request, ArrivalProcess, LoadCellResult, LoadConfig, ZipfSampler,
};
use spidernet_core::system::{SpiderNet, SpiderNetConfig};
use spidernet_core::workload::{provisioned_functions, PopulationConfig, RequestConfig};
use spidernet_core::CompositionRequest;
use spidernet_util::id::PeerId;
use spidernet_util::par::{configured_threads, par_map_with};
use spidernet_util::res::ResourceVector;
use spidernet_util::rng::rng_for;

/// ψ threshold for the sweep cells: overload shows up as shedding plus
/// `AdmissionRejected`, not as unbounded queueing.
const SWEEP_PSI: f64 = 0.85;

struct Cli {
    arrivals: ArrivalProcess,
    peers: usize,
    units: u64,
    seed: u64,
    rates: Vec<f64>,
    results_json: Option<String>,
}

fn cli() -> Cli {
    let arrivals_spec =
        arg_value("--arrivals").unwrap_or_else(|| "poisson:rate=20".to_owned());
    let arrivals = match ArrivalProcess::parse(&arrivals_spec) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadbench: bad --arrivals spec: {e}");
            std::process::exit(2);
        }
    };
    let quick = quick_requested();
    let peers = arg_value("--peers").and_then(|v| v.parse().ok()).unwrap_or(60);
    let units = arg_value("--units")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 25 } else { 40 });
    let seed = arg_value("--seed").and_then(|v| v.parse().ok()).unwrap_or(8);
    let rates = match arg_value("--rates") {
        Some(spec) => match spec.split(',').map(str::parse::<f64>).collect() {
            Ok(r) => r,
            Err(_) => {
                eprintln!("loadbench: bad --rates list {spec:?}");
                std::process::exit(2);
            }
        },
        None if quick => vec![3.0, 12.0],
        None => vec![4.0, 8.0, 16.0, 32.0],
    };
    Cli { arrivals, peers, units, seed, rates, results_json: arg_value("--results-json") }
}

fn sweep_world(cli: &Cli) -> SpiderNet {
    let mut net = SpiderNet::build(
        &SpiderNetConfig::builder()
            .ip_nodes(cli.peers * 5)
            .peers(cli.peers)
            .seed(cli.seed)
            .build(),
    );
    net.populate(&PopulationConfig { functions: 12, ..PopulationConfig::default() });
    net
}

fn sweep_cell(cli: &Cli, arrivals: ArrivalProcess) -> LoadConfig {
    LoadConfig {
        arrivals,
        duration_units: cli.units,
        seed: cli.seed,
        bcp: BcpConfig::builder().shed_utilization(SWEEP_PSI).build(),
        compose_caching: true,
        ..LoadConfig::default()
    }
}

/// One head-to-head run: composes every request in order against `net`,
/// returning (wall seconds, admitted, aggregate stats, per-request setup
/// latency bit fingerprint). An untimed warmup pass precedes the timed
/// one so both modes measure the steady state of a standing world (path
/// caches and memos hot) rather than first-touch Dijkstra costs.
fn drive(net: &mut SpiderNet, reqs: &[CompositionRequest], cfg: &BcpConfig) -> HeadRun {
    for req in reqs {
        let _ = net.compose(req, cfg);
    }
    let mut agg = BcpStats::default();
    let mut admitted = 0u64;
    let mut fingerprint = 0u64;
    let t0 = std::time::Instant::now();
    for req in reqs {
        match net.compose(req, cfg) {
            Ok(out) => {
                admitted += 1;
                let s = &out.stats;
                agg.probes_sent += s.probes_sent;
                agg.dht_lookups += s.dht_lookups;
                agg.dht_messages += s.dht_messages;
                agg.complete_probes += s.complete_probes;
                agg.dropped_qos += s.dropped_qos;
                agg.dropped_admission += s.dropped_admission;
                agg.shed_candidates += s.shed_candidates;
                agg.candidates_examined += s.candidates_examined;
                agg.discovery_ms += s.discovery_ms;
                agg.probing_ms += s.probing_ms;
                let setup = s.discovery_ms + s.probing_ms;
                fingerprint =
                    fingerprint.rotate_left(7) ^ setup.to_bits().wrapping_mul(0x9E37_79B9_7F4A_7C15);
            }
            Err(_) => {
                fingerprint = fingerprint.rotate_left(7) ^ 0x5bd1_e995;
            }
        }
    }
    HeadRun { secs: t0.elapsed().as_secs_f64(), admitted, agg, fingerprint }
}

struct HeadRun {
    secs: f64,
    admitted: u64,
    agg: BcpStats,
    fingerprint: u64,
}

struct HeadToHead {
    requests: u64,
    admitted: u64,
    uncached_secs: f64,
    cached_secs: f64,
    cache_hits: u64,
    cache_misses: u64,
    cache_invalidations: u64,
    setup_metrics_match: bool,
    qualified_fraction: f64,
    shed_per_compose: f64,
}

/// The duplicate-function-pressure head-to-head: a frozen world whose
/// replica lists are long but — thanks to a background load pushing most
/// hosts over ψ — whose *qualified* pools are short. The uncached path
/// re-resolves and re-prefilters every replica list per request; the
/// cached path replays the memoized pool and recorded DHT cost, so only
/// the (identical) probing work remains. Request streams, pools, and all
/// per-request setup metrics are bit-identical between modes.
fn head_to_head(cli: &Cli) -> HeadToHead {
    let peers = cli.peers.max(if quick_requested() { 800 } else { 1_500 });
    let requests = if quick_requested() { 600 } else { 3_000 };
    let psi = 0.5;
    let mut base = SpiderNet::build(
        &SpiderNetConfig::builder()
            .ip_nodes(peers * 5)
            .peers(peers)
            .seed(cli.seed ^ 0x6c6f6164) // "load"
            .build(),
    );
    // Few functions + several components per peer = long replica lists
    // (the duplicate-function pressure); tiny per-session CPU so probe
    // soft-reservations never stack across ψ on the cold hosts (a ψ
    // crossing is a legitimate cache flush, and this experiment wants a
    // steady world).
    base.populate(&PopulationConfig {
        functions: 4,
        components_per_peer: (3, 5),
        cpu: (0.01, 0.03),
        ..PopulationConfig::default()
    });
    // Bimodal background: ~97% of hosts carry a committed load above ψ.
    base.state_mut().set_shed_watermark(psi);
    let mut loaded = 0usize;
    for p in 0..peers {
        if p % 40 < 39 {
            base.state_mut()
                .commit(&[(PeerId::from(p), ResourceVector::new(0.75, 1.0))], &Default::default())
                .expect("background load fits fresh capacity");
            loaded += 1;
        }
    }

    let bcp = BcpConfig::builder().budget(2).shed_utilization(psi).build();
    let pool = provisioned_functions(base.registry());
    let zipf = ZipfSampler::new(pool.len(), 1.1).expect("non-empty catalog");
    let req_cfg = RequestConfig {
        functions: (3, 4),
        delay_bound_ms: (2_000.0, 2_001.0),
        loss_bound: (0.2, 0.21),
        ..RequestConfig::default()
    };
    let mut rng = rng_for(cli.seed, "loadbench-head-to-head");
    // Requests run between a small set of hot gateways so repeat
    // (source, function) lookups — the thing the memo keys on — dominate.
    let hot: Vec<PeerId> = (0..8).map(|i| PeerId::from(i * (peers / 8))).collect();
    let reqs: Vec<CompositionRequest> = (0..requests)
        .map(|i| {
            let mut req = zipf_request(base.overlay(), &pool, &zipf, &req_cfg, &mut rng);
            req.source = hot[i % hot.len()];
            req.dest = hot[(i + 1 + i / hot.len()) % hot.len()];
            if req.dest == req.source {
                req.dest = hot[(i + 1) % hot.len()];
            }
            req
        })
        .collect();

    let mut w_off = base.clone();
    w_off.set_compose_caching(false);
    let mut w_on = base.clone();
    w_on.set_compose_caching(true);

    let off = drive(&mut w_off, &reqs, &bcp);
    let on = drive(&mut w_on, &reqs, &bcp);
    let (hits, misses, invalidations) = w_on.compose_cache_stats();

    let matches = off.admitted == on.admitted
        && off.fingerprint == on.fingerprint
        && off.agg == on.agg;
    let composes = reqs.len() as f64;
    HeadToHead {
        requests: reqs.len() as u64,
        admitted: on.admitted,
        uncached_secs: off.secs,
        cached_secs: on.secs,
        cache_hits: hits,
        cache_misses: misses,
        cache_invalidations: invalidations,
        setup_metrics_match: matches,
        qualified_fraction: 1.0 - loaded as f64 / peers as f64,
        shed_per_compose: on.agg.shed_candidates as f64 / composes,
    }
}

fn cell_block(res: &LoadCellResult, deterministic_only: bool) -> BenchBlock {
    let mut b = BenchBlock::new();
    b.int("arrivals", res.arrivals)
        .int("admitted", res.admitted)
        .int("rejected_admission", res.rejected_admission)
        .int("rejected_qos", res.rejected_qos)
        .int("failed_other", res.failed_other)
        .int("expired", res.expired)
        .int("peak_in_flight", res.peak_in_flight)
        .int("shed_candidates", res.shed_candidates)
        .int("cache_hits", res.cache_hits)
        .int("cache_misses", res.cache_misses)
        .int("cache_invalidations", res.cache_invalidations)
        .num("setup_p50_ms", res.setup_p50_ms)
        .num("setup_p95_ms", res.setup_p95_ms)
        .num("setup_p99_ms", res.setup_p99_ms)
        .num("goodput_per_unit", res.goodput_per_unit)
        .num("rejection_rate", res.rejection_rate)
        .num("cache_hit_rate", cache_hit_rate(res));
    if !deterministic_only {
        b.num("wall_secs", res.wall_secs).num("composes_per_sec", res.composes_per_sec);
    }
    b
}

fn cache_hit_rate(res: &LoadCellResult) -> f64 {
    let total = res.cache_hits + res.cache_misses;
    if total == 0 {
        0.0
    } else {
        res.cache_hits as f64 / total as f64
    }
}

fn cell_key(label: &str) -> String {
    let mut key = String::from("cell_");
    key.extend(label.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }));
    key
}

fn csv(rows: &[(String, LoadCellResult)]) -> String {
    let mut out = String::from(
        "arrivals_spec,arrivals,admitted,rejected_admission,rejected_qos,failed_other,\
         expired,peak_in_flight,shed_candidates,cache_hits,cache_misses,cache_invalidations,\
         setup_p50_ms,setup_p95_ms,setup_p99_ms,goodput_per_unit,rejection_rate\n",
    );
    for (label, r) in rows {
        out.push_str(&format!(
            "{label},{},{},{},{},{},{},{},{},{},{},{},{:.4},{:.4},{:.4},{:.4},{:.4}\n",
            r.arrivals,
            r.admitted,
            r.rejected_admission,
            r.rejected_qos,
            r.failed_other,
            r.expired,
            r.peak_in_flight,
            r.shed_candidates,
            r.cache_hits,
            r.cache_misses,
            r.cache_invalidations,
            r.setup_p50_ms,
            r.setup_p95_ms,
            r.setup_p99_ms,
            r.goodput_per_unit,
            r.rejection_rate,
        ));
    }
    out
}

fn main() {
    let cli = cli();
    let threads = configured_threads();
    eprintln!(
        "loadbench: {} peers, {} units, headline {}, sweep rates {:?}, {} worker threads",
        cli.peers,
        cli.units,
        cli.arrivals.label(),
        cli.rates,
        threads
    );

    // --- offered-load sweep (headline arrivals first, then the rates) ---
    let base = sweep_world(&cli);
    let mut cells: Vec<ArrivalProcess> = vec![cli.arrivals.clone()];
    for &rate in &cli.rates {
        let p = ArrivalProcess::Poisson { rate };
        if p != cli.arrivals {
            cells.push(p);
        }
    }
    let configs: Vec<LoadConfig> = cells.iter().map(|a| sweep_cell(&cli, a.clone())).collect();
    let results = par_map_with(threads, configs, |_, cfg| {
        let label = cfg.arrivals.label();
        (label, run_cell(&base, &cfg))
    });
    for (label, r) in &results {
        eprintln!(
            "loadbench: {label}: {} arrivals, {} admitted (rej {:.3}), p95 setup {:.1} ms, \
             cache {}/{} hit/miss",
            r.arrivals,
            r.admitted,
            r.rejection_rate,
            r.setup_p95_ms,
            r.cache_hits,
            r.cache_misses
        );
    }

    // --- cached vs uncached head-to-head (sequential, for fair timing) --
    let h2h = head_to_head(&cli);
    let uncached_cps = h2h.requests as f64 / h2h.uncached_secs.max(1e-9);
    let cached_cps = h2h.requests as f64 / h2h.cached_secs.max(1e-9);
    let speedup = h2h.uncached_secs / h2h.cached_secs.max(1e-9);
    eprintln!(
        "loadbench: head-to-head: {} composes, uncached {:.0}/s, cached {:.0}/s \
         ({speedup:.1}x), hit rate {:.3}, setup metrics match: {}",
        h2h.requests,
        uncached_cps,
        cached_cps,
        h2h.cache_hits as f64 / (h2h.cache_hits + h2h.cache_misses).max(1) as f64,
        h2h.setup_metrics_match
    );

    if let Some(json_path) = json_spec() {
        let mut rep = BenchReport::new("load");
        rep.int("peers", cli.peers as u64)
            .int("units", cli.units)
            .int("seed", cli.seed)
            .int("threads", threads as u64)
            .str("headline_arrivals", &cells[0].label());
        for (label, r) in &results {
            rep.nested(&cell_key(label), &cell_block(r, false));
        }
        let mut h = BenchBlock::new();
        h.int("requests", h2h.requests)
            .int("admitted", h2h.admitted)
            .num("uncached_secs", h2h.uncached_secs)
            .num("cached_secs", h2h.cached_secs)
            .num("uncached_composes_per_sec", uncached_cps)
            .num("cached_composes_per_sec", cached_cps)
            .num("speedup", speedup)
            .int("cache_hits", h2h.cache_hits)
            .int("cache_misses", h2h.cache_misses)
            .int("cache_invalidations", h2h.cache_invalidations)
            .int("setup_metrics_match", h2h.setup_metrics_match as u64)
            .num("qualified_fraction", h2h.qualified_fraction)
            .num("shed_per_compose", h2h.shed_per_compose);
        rep.nested("head_to_head", &h);
        match rep.write_spec(&json_path) {
            Ok(p) => eprintln!("loadbench: wrote {}", p.display()),
            Err(e) => eprintln!("loadbench: could not write bench report: {e}"),
        }
    }

    if let Some(path) = &cli.results_json {
        // The deterministic subset: model-time fields only, byte-identical
        // across thread counts and processes for a fixed seed.
        let mut rep = BenchReport::new("load_results");
        rep.int("peers", cli.peers as u64).int("units", cli.units).int("seed", cli.seed);
        for (label, r) in &results {
            rep.nested(&cell_key(label), &cell_block(r, true));
        }
        let mut h = BenchBlock::new();
        h.int("requests", h2h.requests)
            .int("admitted", h2h.admitted)
            .int("cache_hits", h2h.cache_hits)
            .int("cache_misses", h2h.cache_misses)
            .int("setup_metrics_match", h2h.setup_metrics_match as u64);
        rep.nested("head_to_head", &h);
        match rep.write_spec(&Some(path.clone())) {
            Ok(p) => eprintln!("loadbench: wrote {}", p.display()),
            Err(e) => eprintln!("loadbench: could not write results json: {e}"),
        }
    }

    if csv_requested() {
        print!("{}", csv(&results));
    }
}
