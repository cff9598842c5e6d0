//! Compare mode: diffs two result files (or two directories of them,
//! paired by file name). The work-counter block must match exactly; each
//! end-to-end metric may worsen by at most its `BENCHMARK.json` bound.

use crate::json::Json;
use std::path::{Path, PathBuf};

/// One end-to-end metric's regression rule.
struct Rule {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn rules(bench: &Json) -> Result<Vec<Rule>, String> {
    let Some(Json::Arr(list)) = bench.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    list.iter()
        .map(|m| {
            Ok(Rule {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without name")?
                    .to_owned(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// Pairs result files: two files as given, or same-named `.json` files of
/// two directories.
fn pairs(a: &Path, b: &Path) -> Result<Vec<(PathBuf, PathBuf)>, String> {
    if !a.is_dir() {
        return Ok(vec![(a.to_path_buf(), b.to_path_buf())]);
    }
    let mut names: Vec<std::ffi::OsString> = std::fs::read_dir(a)
        .map_err(|e| format!("{}: {e}", a.display()))?
        .filter_map(|e| e.ok().map(|e| e.file_name()))
        .filter(|n| Path::new(n).extension().is_some_and(|x| x == "json") && b.join(n).is_file())
        .collect();
    names.sort();
    Ok(names
        .into_iter()
        .map(|n| (a.join(&n), b.join(&n)))
        .collect())
}

/// Prints one row per (workload, counter) and (workload, metric); returns
/// whether everything held.
pub fn run(a: &Path, b: &Path, bench: &Path) -> Result<bool, String> {
    let rules = rules(&load(bench)?)?;
    let mut ok = true;
    println!(
        "{:<14} {:<34} {:>18} {:>18} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "change", "bound"
    );
    for (pa, pb) in pairs(a, b)? {
        let (ra, rb) = (load(&pa)?, load(&pb)?);
        let workload = ra
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_owned();
        if rb.get("workload").and_then(Json::as_str) != Some(workload.as_str()) {
            return Err(format!(
                "{} and {} hold different workloads",
                pa.display(),
                pb.display()
            ));
        }
        let empty = Json::Obj(Default::default());
        let (ca, cb) = (
            ra.get("counters").unwrap_or(&empty),
            rb.get("counters").unwrap_or(&empty),
        );
        if let (Json::Obj(ma), Json::Obj(mb)) = (ca, cb) {
            let mut keys: Vec<&String> = ma.keys().chain(mb.keys()).collect();
            keys.sort();
            keys.dedup();
            for k in keys {
                let (va, vb) = (ma.get(k).map(Json::render), mb.get(k).map(Json::render));
                let same = va == vb;
                ok &= same;
                println!(
                    "{:<14} {:<34} {:>18} {:>18} {:>9} {:>7}  {}",
                    workload,
                    format!("counter:{k}"),
                    va.unwrap_or_else(|| "-".into()),
                    vb.unwrap_or_else(|| "-".into()),
                    "",
                    "exact",
                    if same { "same" } else { "DIFFERS" }
                );
            }
        }
        for rule in &rules {
            let value = |r: &Json| r.get("metrics")?.get(&rule.name)?.get("value")?.as_f64();
            let (Some(va), Some(vb)) = (value(&ra), value(&rb)) else {
                continue;
            };
            let change = if va == 0.0 { 0.0 } else { (vb - va) / va };
            let worse = if rule.lower_is_better {
                change
            } else {
                -change
            };
            let held = worse <= rule.bound;
            ok &= held;
            println!(
                "{:<14} {:<34} {:>18.6} {:>18.6} {:>+8.1}% {:>6.0}%  {}",
                workload,
                rule.name,
                va,
                vb,
                change * 100.0,
                rule.bound * 100.0,
                if held { "ok" } else { "REGRESSED" }
            );
        }
    }
    Ok(ok)
}
