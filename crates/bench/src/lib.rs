//! Shared scaffolding for the SpiderNet benchmark harness.
//!
//! The `fig8`/`fig9`/`fig10`/`fig11`/`overhead` binaries regenerate the
//! paper's figures (run with `--paper` for the full-size configuration).
//!
//! The report/CLI vocabulary ([`BenchReport`], [`BenchBlock`],
//! [`peak_rss_bytes`], [`arg_value`], [`json_spec`]) lives in
//! `spidernet-util` so non-bench binaries (`spidernet-node deploy`) can
//! emit `BENCH_<name>.json` through the same API; it is re-exported here
//! for existing call sites.

#![warn(missing_docs)]

pub use spidernet_util::bench::{peak_rss_bytes, peak_rss_bytes_for, BenchBlock, BenchReport};
pub use spidernet_util::cli::{arg_value, arg_value_in, flag_present, json_spec, json_spec_in};

/// True if the CLI was invoked with `--paper` (full-scale experiment).
pub fn paper_scale_requested() -> bool {
    flag_present("--paper")
}

/// True if the CLI was invoked with `--csv` (machine-readable output).
pub fn csv_requested() -> bool {
    flag_present("--csv")
}

/// True if the CLI was invoked with `--quick` (CI smoke configuration:
/// a miniature grid that still exercises every field of the bench
/// report, finishing in seconds).
pub fn quick_requested() -> bool {
    flag_present("--quick")
}

/// True if the CLI was invoked with `--json` in any spelling, bare or
/// pathed. Prefer [`json_spec`] + `BenchReport::write_spec`, which also
/// honor an explicit output path; this remains for call sites that only
/// gate work on the flag's presence.
pub fn json_requested() -> bool {
    json_spec().is_some()
}

/// True if the CLI was invoked with `--trace-json` (write a
/// `TRACE_<fig>.json` observability report — merged protocol counters,
/// DAG-shape histograms, and per-session probe rows — alongside the
/// figure output).
pub fn trace_json_requested() -> bool {
    flag_present("--trace-json")
}

/// True if the CLI was invoked with `--churn-sweep` (fig10: sweep crash
/// rates through the deterministic fault lab instead of the setup-time
/// experiment).
pub fn churn_sweep_requested() -> bool {
    flag_present("--churn-sweep")
}

/// Times one figure driver sequentially (1 worker thread) and again at the
/// environment's thread count; returns
/// `(sequential_secs, parallel_secs, threads, parallel_result)`.
///
/// The harness is deterministic by construction, so both runs produce the
/// same figure and only the parallel result is kept.
pub fn time_seq_par<T>(mut run_with_threads: impl FnMut(usize) -> T) -> (f64, f64, usize, T) {
    let threads = spidernet_util::par::configured_threads();
    let t0 = std::time::Instant::now();
    drop(run_with_threads(1));
    let sequential = t0.elapsed().as_secs_f64();
    let t1 = std::time::Instant::now();
    let out = run_with_threads(threads);
    let parallel = t1.elapsed().as_secs_f64();
    (sequential, parallel, threads, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_api_is_reexported_from_util() {
        // The canonical definitions moved to spidernet-util; this pins the
        // re-export so existing `spidernet_bench::BenchReport` call sites
        // keep compiling.
        let mut rep = BenchReport::new("reexport");
        rep.int("x", 1);
        assert!(rep.to_json().contains("\"figure\": \"reexport\""));
        assert!(peak_rss_bytes().is_some());
        let args = vec!["fig8".to_string(), "--seed=7".to_string()];
        assert_eq!(arg_value_in(&args, "--seed").as_deref(), Some("7"));
    }
}
