//! JSON export for the observability layer.
//!
//! The figure binaries emit a `TRACE_<name>.json` next to their
//! `BENCH_<name>.json` when invoked with `--trace-json`: merged protocol
//! counters, DAG-shape histograms, per-session rows (e.g. probes spent
//! per composition request), and trace-ring statistics. Everything is
//! hand-rolled flat JSON — the workspace deliberately has no external
//! dependencies.

use crate::metrics::MetricsRegistry;
use spidernet_util::stats::Summary;

/// Builder for one `TRACE_<name>.json` report.
///
/// Field order is insertion order; all collection inputs are iterated in
/// deterministic (name / session id) order, so a report built from the
/// same run renders byte-identically.
pub struct TraceReport {
    name: String,
    counters: Vec<(String, u64)>,
    histograms: Vec<(String, Summary)>,
    session_columns: Vec<String>,
    sessions: Vec<(u64, Vec<u64>)>,
    trace_stats: Option<(u64, u64, u64)>, // recorded, buffered, overwritten
}

impl TraceReport {
    /// A report for figure `name` (e.g. `"overhead"`).
    pub fn new(name: &str) -> Self {
        TraceReport {
            name: name.to_owned(),
            counters: Vec::new(),
            histograms: Vec::new(),
            session_columns: Vec::new(),
            sessions: Vec::new(),
            trace_stats: None,
        }
    }

    /// Adds one named counter total.
    pub fn counter(&mut self, name: &str, v: u64) -> &mut Self {
        self.counters.push((name.to_owned(), v));
        self
    }

    /// Adds one named histogram.
    pub fn histogram(&mut self, name: &str, s: &Summary) -> &mut Self {
        self.histograms.push((name.to_owned(), s.clone()));
        self
    }

    /// Declares the per-session columns (must precede
    /// [`TraceReport::session`]).
    pub fn session_columns(&mut self, columns: &[&str]) -> &mut Self {
        self.session_columns = columns.iter().map(|c| (*c).to_owned()).collect();
        self
    }

    /// Adds one per-session row; `values` align with the declared columns.
    pub fn session(&mut self, session: u64, values: &[u64]) -> &mut Self {
        debug_assert_eq!(values.len(), self.session_columns.len());
        self.sessions.push((session, values.to_vec()));
        self
    }

    /// Imports every counter, histogram, and session row of a registry.
    pub fn add_registry(&mut self, reg: &MetricsRegistry) -> &mut Self {
        for (name, v) in reg.counters() {
            self.counter(name, v);
        }
        for (name, s) in reg.histograms() {
            self.histogram(name, s);
        }
        if reg.session_count() > 0 {
            self.session_columns = reg.counters().map(|(n, _)| n.to_owned()).collect();
            self.sessions.extend(reg.session_rows());
        }
        self
    }

    /// Records pre-measured trace-ring statistics `(recorded, buffered,
    /// overwritten)` — for drivers that only carry the numbers, not the
    /// ring itself.
    pub fn trace_stats(&mut self, recorded: u64, buffered: u64, overwritten: u64) -> &mut Self {
        self.trace_stats = Some((recorded, buffered, overwritten));
        self
    }

    /// Renders the report as JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"figure\": \"{}\",\n", self.name));
        s.push_str("  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str(&format!("    \"{k}\": {v}"));
        }
        s.push_str(if self.counters.is_empty() { "},\n" } else { "\n  },\n" });
        s.push_str("  \"histograms\": {");
        for (i, (k, sm)) in self.histograms.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str(&format!(
                "    \"{k}\": {{\"count\": {}, \"mean\": {:.4}, \"min\": {:.4}, \"max\": {:.4}}}",
                sm.count(),
                sm.mean(),
                if sm.count() > 0 { sm.min() } else { 0.0 },
                if sm.count() > 0 { sm.max() } else { 0.0 },
            ));
        }
        s.push_str(if self.histograms.is_empty() { "},\n" } else { "\n  },\n" });
        s.push_str("  \"session_columns\": [");
        for (i, c) in self.session_columns.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{c}\""));
        }
        s.push_str("],\n");
        s.push_str("  \"sessions\": [");
        for (i, (sid, values)) in self.sessions.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str(&format!("    {{\"session\": {sid}, \"values\": ["));
            for (j, v) in values.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push_str(&v.to_string());
            }
            s.push_str("]}");
        }
        s.push_str(if self.sessions.is_empty() { "],\n" } else { "\n  ],\n" });
        let (rec, buf, lost) = self.trace_stats.unwrap_or((0, 0, 0));
        s.push_str(&format!(
            "  \"trace\": {{\"recorded\": {rec}, \"buffered\": {buf}, \"overwritten\": {lost}}}\n"
        ));
        s.push_str("}\n");
        s
    }

    /// Writes `TRACE_<name>.json` into the current directory and returns
    /// the path.
    pub fn write(&self) -> std::io::Result<std::path::PathBuf> {
        let path = std::path::PathBuf::from(format!("TRACE_{}.json", self.name));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_flat_report() {
        let mut rep = TraceReport::new("figX");
        rep.counter("bcp.probes", 42)
            .session_columns(&["probes", "functions"])
            .session(1, &[10, 3])
            .session(2, &[7, 2]);
        let json = rep.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert!(json.contains("\"figure\": \"figX\""));
        assert!(json.contains("\"bcp.probes\": 42"));
        assert!(json.contains("\"session_columns\": [\"probes\", \"functions\"]"));
        assert!(json.contains("{\"session\": 1, \"values\": [10, 3]}"));
        assert!(json.contains("\"trace\": {\"recorded\": 0"));
    }

    #[test]
    fn imports_registry_counters_and_sessions() {
        let mut reg = MetricsRegistry::new();
        reg.set_session_tracking(true);
        // Intern out of name order to exercise the column re-ordering.
        let z = reg.counter("z.second");
        let a = reg.counter("a.first");
        reg.begin_session(5);
        reg.add(z, 2);
        reg.add(a, 9);
        reg.end_session();
        let mut rep = TraceReport::new("t");
        rep.add_registry(&reg);
        let json = rep.to_json();
        assert!(json.contains("\"a.first\": 9"));
        assert!(json.contains("\"session_columns\": [\"a.first\", \"z.second\"]"));
        assert!(json.contains("{\"session\": 5, \"values\": [9, 2]}"));
    }

    #[test]
    fn histogram_rendering_has_stats() {
        let mut s = Summary::new();
        s.record(1.0);
        s.record(3.0);
        let mut rep = TraceReport::new("h");
        rep.histogram("lat", &s);
        let json = rep.to_json();
        assert!(json.contains("\"lat\": {\"count\": 2, \"mean\": 2.0000"));
    }
}
