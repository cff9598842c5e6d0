//! Benchmark entry point.
//!
//! ```text
//! spiderbench --workload <open_steady|open_churn|paper_grid|daemon_stream>
//!             --seed N --seconds S --trace <0|1> [--threads T] [--out-dir DIR]
//!             [--bench BENCHMARK.json]
//! spiderbench compare <a.json|dir> <b.json|dir> [--bench BENCHMARK.json]
//! ```
//!
//! The metric lists, their order and units come from `BENCHMARK.json`.
//!
//! A run checks the program's outputs first: if any check fails it names
//! the check on stderr and exits 1 without printing metrics. Otherwise it
//! writes the full result (stamp, checks, exact counters, metrics) to
//! `<out-dir>/<workload>-s<seed>-t<trace>.json`, the traced run's spans to
//! `<out-dir>/spans-<workload>-s<seed>.jsonl`, and prints one JSON line:
//! end-to-end metrics untraced, per-layer metrics traced.

use spiderbench::json::Json;
use spiderbench::report::{full_json, source_commit, summary_line, Metrics, RunResult, Stamp};
use spiderbench::sim::{self, SimWorkload};
use spiderbench::trace::Tracer;
use spiderbench::{compare, daemon, WORKLOADS};
use std::path::{Path, PathBuf};

fn usage() -> ! {
    eprintln!(
        "usage:\n  spiderbench --workload <{}> --seed N --seconds S --trace <0|1> \
         [--threads T] [--out-dir DIR] [--bench BENCHMARK.json]\n  spiderbench compare <a.json|dir> <b.json|dir> \
         [--bench BENCHMARK.json]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    flag(args, name).map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("invalid value for {name}: {v}");
            usage()
        })
    })
}

/// Puts `metrics` in the order of `BENCHMARK.json`'s `list`, filling
/// layers a workload never calls with 0. Every listed metric must be
/// measured unless `fill`, and with the listed unit.
fn ordered(metrics: &Metrics, bench: &Json, list: &str, fill: bool) -> Result<Metrics, String> {
    let Some(Json::Arr(entries)) = bench.get(list) else {
        return Err(format!("BENCHMARK.json has no {list} list"));
    };
    let mut out = Metrics::default();
    for e in entries {
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or("metric without name")?;
        let unit = e
            .get("unit")
            .and_then(Json::as_str)
            .ok_or("metric without unit")?;
        match metrics.0.iter().find(|m| m.name == name) {
            Some(m) if m.unit == unit => out.0.push(m.clone()),
            Some(m) => {
                return Err(format!(
                    "{name} measured in {} but listed in {unit}",
                    m.unit
                ))
            }
            None if fill => {
                out.put(name, 0.0, unit);
            }
            None => return Err(format!("metric {name} was not measured")),
        }
    }
    if let Some(m) = metrics.0.iter().find(|m| out.value(&m.name).is_none()) {
        return Err(format!(
            "measured metric {} is not listed in {list}",
            m.name
        ));
    }
    Ok(out)
}

fn compare_main(args: &[String]) -> ! {
    let (Some(a), Some(b)) = (args.first(), args.get(1)) else {
        usage()
    };
    let bench = flag(args, "--bench").unwrap_or("BENCHMARK.json");
    match compare::run(Path::new(a), Path::new(b), Path::new(bench)) {
        Ok(true) => std::process::exit(0),
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("compare: {e}");
            std::process::exit(2)
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        compare_main(&args[1..]);
    }
    let Some(workload) = flag(&args, "--workload") else {
        usage()
    };
    if !WORKLOADS.contains(&workload) {
        eprintln!("unknown workload {workload:?}");
        usage()
    }
    let seed: u64 = parsed(&args, "--seed").unwrap_or_else(|| usage());
    let seconds: f64 = parsed(&args, "--seconds").unwrap_or_else(|| usage());
    let traced = match flag(&args, "--trace") {
        Some("0") => false,
        Some("1") => true,
        _ => usage(),
    };
    if !(seconds.is_finite() && seconds > 0.0) {
        eprintln!("--seconds must be positive");
        usage()
    }
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = parsed::<usize>(&args, "--threads")
        .unwrap_or(1)
        .clamp(1, host_cpus);
    let out_dir = PathBuf::from(flag(&args, "--out-dir").unwrap_or("spiderbench/out"));
    let bench_path = flag(&args, "--bench").unwrap_or("BENCHMARK.json");
    let bench = std::fs::read_to_string(bench_path)
        .map_err(|e| e.to_string())
        .and_then(|t| Json::parse(&t))
        .unwrap_or_else(|e| {
            eprintln!("cannot read {bench_path}: {e}");
            std::process::exit(1)
        });

    let mut tracer = Tracer::new(traced);
    let result: Result<RunResult, String> = match workload {
        "open_steady" => Ok(sim::run(
            SimWorkload::OpenSteady,
            seed,
            seconds,
            traced,
            threads,
            &mut tracer,
        )),
        "open_churn" => Ok(sim::run(
            SimWorkload::OpenChurn,
            seed,
            seconds,
            traced,
            threads,
            &mut tracer,
        )),
        "paper_grid" => Ok(sim::run(
            SimWorkload::PaperGrid,
            seed,
            seconds,
            traced,
            threads,
            &mut tracer,
        )),
        _ => std::env::current_exe()
            .and_then(|exe| {
                daemon::run(
                    &exe.with_file_name("spidernet-node"),
                    seed,
                    seconds,
                    traced,
                    &mut tracer,
                )
            })
            .map_err(|e| e.to_string()),
    };
    let mut result = result.unwrap_or_else(|e| {
        eprintln!("{workload}: run failed: {e}");
        std::process::exit(1)
    });
    result.workload = workload.to_owned();
    let metrics = ordered(&result.end_to_end, &bench, "end_to_end", false).and_then(|e2e| {
        let layers = if traced {
            ordered(&result.per_layer, &bench, "per_layer", true)?
        } else {
            Metrics::default()
        };
        Ok((e2e, layers))
    });
    match metrics {
        Ok((e2e, layers)) => {
            result.end_to_end = e2e;
            result.per_layer = layers;
        }
        Err(e) => result.check("every metric measured", false, e),
    }

    let stamp = Stamp {
        host_cpus,
        threads,
        seed,
        seconds,
        traced,
        commit: source_commit(),
        // The repository crates are path dependencies with their default
        // features, and every one of them defaults to `trace`.
        trace_feature: true,
    };
    let written = std::fs::create_dir_all(&out_dir).and_then(|()| {
        let path = out_dir.join(format!("{workload}-s{seed}-t{}.json", traced as u8));
        std::fs::write(&path, full_json(&result, &stamp))?;
        if traced {
            tracer.write_jsonl(&out_dir.join(format!("spans-{workload}-s{seed}.jsonl")))?;
        }
        Ok(path)
    });
    match written {
        Ok(path) => eprintln!("{workload}: wrote {}", path.display()),
        Err(e) => result.check("result file written", false, e.to_string()),
    }

    if !result.correct() {
        for c in result.checks.iter().filter(|c| !c.ok) {
            eprintln!("{workload}: check failed: {}: {}", c.name, c.detail);
        }
        std::process::exit(1);
    }
    println!("{}", summary_line(&result, traced));
}
