//! Result records: the exact work-counter block, named metrics, the run
//! stamp, and their JSON renderings (full result file and the one-line
//! summary that ends standard output).

use std::fmt::Write as _;

/// Quotes `s` as a JSON string.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders an f64 as a JSON number with every digit (non-finite → null).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// The exact, machine-independent outputs of a workload: counts and
/// model-time values as raw f64 bits. Two runs of the same code and seed
/// must render byte-identical blocks, at any thread count.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters {
    entries: Vec<(String, String)>,
}

impl Counters {
    /// Adds an exact count.
    pub fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.entries.push((key.to_owned(), v.to_string()));
        self
    }

    /// Adds a model-time value as its f64 bit pattern.
    pub fn bits(&mut self, key: &str, v: f64) -> &mut Self {
        self.hex(key, v.to_bits())
    }

    /// Adds a digest or bit pattern in hex.
    pub fn hex(&mut self, key: &str, v: u64) -> &mut Self {
        self.entries
            .push((key.to_owned(), quote(&format!("{v:#018x}"))));
        self
    }

    /// The block as a JSON object, keys in insertion order.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(k, v)| format!("{}:{}", quote(k), v))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// One named metric with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: String,
}

/// An ordered list of metrics.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &str) -> &mut Self {
        self.0.push(Metric {
            name: name.to_owned(),
            value,
            unit: unit.to_owned(),
        });
        self
    }

    /// Value of a metric by name.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// JSON object `{name: {"value": v, "unit": u}}`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    quote(&m.name),
                    num(m.value),
                    quote(&m.unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// A named correctness check and whether it held.
#[derive(Clone, Debug)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Observed values, for the failure message.
    pub detail: String,
}

/// Everything one workload run produced.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Workload parameters for the stamp, as rendered JSON values.
    pub params: Vec<(String, String)>,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations refused or errored.
    pub failed: u64,
    /// The exact work-counter block.
    pub counters: Counters,
    /// End-to-end metrics (untraced run).
    pub end_to_end: Metrics,
    /// Per-layer metrics (traced run only).
    pub per_layer: Metrics,
}

impl RunResult {
    /// Records a check.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_owned(),
            ok,
            detail,
        });
    }

    /// Records a workload parameter.
    pub fn param(&mut self, key: &str, rendered: String) {
        self.params.push((key.to_owned(), rendered));
    }

    /// True when every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// How and where a run was made.
pub struct Stamp {
    /// CPUs the host offers this process.
    pub host_cpus: usize,
    /// Worker threads the benchmark used.
    pub threads: usize,
    /// Workload seed.
    pub seed: u64,
    /// Seconds measured.
    pub seconds: f64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Source revision, when the checkout records one.
    pub commit: String,
    /// Whether the program was compiled with its `trace` feature.
    pub trace_feature: bool,
}

impl Stamp {
    fn to_json(&self, params: &[(String, String)]) -> String {
        let params: Vec<String> = params
            .iter()
            .map(|(k, v)| format!("{}:{}", quote(k), v))
            .collect();
        format!(
            "{{\"host_cpus\":{},\"threads\":{},\"seed\":{},\"seconds\":{},\"traced\":{},\
             \"commit\":{},\"trace_feature\":{},\"params\":{{{}}}}}",
            self.host_cpus,
            self.threads,
            self.seed,
            num(self.seconds),
            self.traced,
            quote(&self.commit),
            self.trace_feature,
            params.join(",")
        )
    }
}

/// The full result file.
pub fn full_json(r: &RunResult, stamp: &Stamp) -> String {
    let checks: Vec<String> = r
        .checks
        .iter()
        .map(|c| {
            format!(
                "{{\"name\":{},\"ok\":{},\"detail\":{}}}",
                quote(&c.name),
                c.ok,
                quote(&c.detail)
            )
        })
        .collect();
    format!(
        "{{\"workload\":{},\"stamp\":{},\"correct\":{},\"checks\":[{}],\"attempted\":{},\
         \"failed\":{},\"counters\":{},\"metrics\":{},\"per_layer\":{}}}\n",
        quote(&r.workload),
        stamp.to_json(&r.params),
        r.correct(),
        checks.join(","),
        r.attempted,
        r.failed,
        r.counters.to_json(),
        r.end_to_end.to_json(),
        r.per_layer.to_json(),
    )
}

/// The one-line summary: end-to-end metrics untraced, per-layer traced.
pub fn summary_line(r: &RunResult, traced: bool) -> String {
    let metrics = if traced { &r.per_layer } else { &r.end_to_end };
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metrics.to_json()
    )
}

/// The revision recorded in `.git`, read without running git; `unknown`
/// in a plain source checkout.
pub fn source_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}
