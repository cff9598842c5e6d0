//! Protocol-overhead accounting.
//!
//! The paper's headline overhead claim ("more than one order of magnitude
//! less overhead" than the centralized global-state scheme) is a message
//! count comparison, so the sink tracks counters — but as a *registry*:
//! names are interned once into cheap [`Counter`]/[`Histogram`] handles,
//! the hot path is an indexed add, per-session rows can be kept for
//! per-request accounting (Fig. 10-style overhead curves), and two
//! registries merge deterministically by name so the parallel experiment
//! harness can fold per-trial sinks in cell order.

use crate::trace::TraceBuffer;
use spidernet_util::stats::Summary;
use std::collections::BTreeMap;

/// Conventional counter names used across the experiments.
pub mod counter {
    /// BCP composition probes sent (per-hop transmissions).
    pub const PROBES: &str = "bcp.probes";
    /// DHT routing messages (registration + discovery hops).
    pub const DHT_MESSAGES: &str = "dht.messages";
    /// Backup-graph maintenance probes.
    pub const MAINTENANCE: &str = "recovery.maintenance";
    /// Session setup/teardown control messages (acks, confirmations).
    pub const CONTROL: &str = "session.control";
    /// Periodic global-state update messages (centralized baseline).
    pub const STATE_UPDATES: &str = "centralized.state_updates";
    /// Optimal-baseline candidate combos fully evaluated.
    pub const COMBOS_EXAMINED: &str = "baseline.combos_examined";
    /// Optimal-baseline candidate combos cut by branch-and-bound pruning.
    pub const COMBOS_PRUNED: &str = "baseline.combos_pruned";
    /// Fault-injection actions applied (crashes + revives).
    pub const FAULTS_INJECTED: &str = "fault.injected";
    /// Sessions recovered by switching to a maintained backup graph.
    pub const RECOVERY_SWITCHES: &str = "recovery.switches";
    /// Sessions that exhausted their backups and needed reactive BCP.
    pub const RECOVERY_REACTIVE: &str = "recovery.reactive";
    /// Candidate replicas dropped pre-probe because the host peer's CPU
    /// utilization sat at or above the shedding watermark ψ.
    pub const LOAD_SHED: &str = "bcp.load_shed";
    /// Compose-cache hits (per-function lookup + qualified pool reused).
    pub const COMPOSE_CACHE_HITS: &str = "bcp.compose_cache_hits";
    /// Compose-cache misses (full DHT lookup + pool build performed).
    pub const COMPOSE_CACHE_MISSES: &str = "bcp.compose_cache_misses";
    /// Compose-cache flushes forced by epoch or config drift.
    pub const COMPOSE_CACHE_INVALIDATIONS: &str = "bcp.compose_cache_invalidations";
    /// Overlay path-row reads that found the source's SSSP row already
    /// built (`core::paths::PathTable`; the name predates the row table).
    pub const PAIR_CACHE_HITS: &str = "topology.pair_cache_hits";
    /// Overlay path rows built: one Dijkstra per queried source, so at most
    /// the peer count per world.
    pub const PAIR_CACHE_MISSES: &str = "topology.pair_cache_misses";
}

/// Conventional histogram names used across the experiments.
pub mod hist {
    /// Backup switchover latency (detection + switch), milliseconds.
    pub const SWITCH_MS: &str = "recovery.switch_ms";
    /// Function-graph node count per composition (DAG shape).
    pub const GRAPH_NODES: &str = "compose.graph_nodes";
    /// Function-graph branch-path count per composition (DAG shape).
    pub const GRAPH_BRANCHES: &str = "compose.graph_branches";
}

/// Handle to an interned counter. Resolve once via
/// [`MetricsRegistry::counter`]; updates are then an indexed add.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counter(u32);

/// Handle to an interned histogram (a [`Summary`] stream).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Histogram(u32);

/// Interned counters + histograms with optional per-session scoping.
///
/// Handles stay valid across [`MetricsRegistry::reset`] and merges into
/// `self`; iteration and merge are name-ordered (`BTreeMap` indices) so
/// output is deterministic regardless of interning order.
#[derive(Default, Debug, Clone)]
pub struct MetricsRegistry {
    counter_names: Vec<String>,
    counter_index: BTreeMap<String, u32>,
    counters: Vec<u64>,
    hist_names: Vec<String>,
    hist_index: BTreeMap<String, u32>,
    hists: Vec<Summary>,
    session_tracking: bool,
    current_session: Option<u64>,
    /// Session id → per-counter values (indexed like `counters`, grown on
    /// demand). `BTreeMap` keeps export order deterministic.
    sessions: BTreeMap<u64, Vec<u64>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Interns `name`, returning its stable handle.
    pub fn counter(&mut self, name: &str) -> Counter {
        if let Some(&id) = self.counter_index.get(name) {
            return Counter(id);
        }
        let id = self.counter_names.len() as u32;
        self.counter_names.push(name.to_owned());
        self.counter_index.insert(name.to_owned(), id);
        self.counters.push(0);
        Counter(id)
    }

    /// Interns histogram `name`, returning its stable handle.
    pub fn histogram(&mut self, name: &str) -> Histogram {
        if let Some(&id) = self.hist_index.get(name) {
            return Histogram(id);
        }
        let id = self.hist_names.len() as u32;
        self.hist_names.push(name.to_owned());
        self.hist_index.insert(name.to_owned(), id);
        self.hists.push(Summary::new());
        Histogram(id)
    }

    /// Adds `n` to counter `c`.
    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        self.counters[c.0 as usize] += n;
        if self.session_tracking {
            if let Some(sid) = self.current_session {
                let row = self.sessions.entry(sid).or_default();
                if row.len() <= c.0 as usize {
                    row.resize(self.counters.len(), 0);
                }
                row[c.0 as usize] += n;
            }
        }
    }

    /// Increments counter `c`.
    #[inline]
    pub fn incr(&mut self, c: Counter) {
        self.add(c, 1);
    }

    /// Current value of counter `c`.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c.0 as usize]
    }

    /// Current value of the counter named `name` (0 if never interned).
    pub fn value(&self, name: &str) -> u64 {
        self.counter_index.get(name).map_or(0, |&id| self.counters[id as usize])
    }

    /// Records an observation into histogram `h`.
    #[inline]
    pub fn observe(&mut self, h: Histogram, value: f64) {
        self.hists[h.0 as usize].record(value);
    }

    /// The summary stream of `h`, if any observation was recorded.
    pub fn summary(&self, h: Histogram) -> Option<&Summary> {
        let s = &self.hists[h.0 as usize];
        (s.count() > 0).then_some(s)
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counter_index.iter().map(|(k, &id)| (k.as_str(), self.counters[id as usize]))
    }

    /// Iterates non-empty histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Summary)> + '_ {
        self.hist_index
            .iter()
            .map(|(k, &id)| (k.as_str(), &self.hists[id as usize]))
            .filter(|(_, s)| s.count() > 0)
    }

    /// Enables or disables per-session rows. Off by default — long
    /// experiment loops that do not export per-session data should not pay
    /// the memory.
    pub fn set_session_tracking(&mut self, on: bool) {
        self.session_tracking = on;
    }

    /// True if per-session rows are being kept.
    pub fn session_tracking(&self) -> bool {
        self.session_tracking
    }

    /// Opens the per-session scope `id`: subsequent counter updates are
    /// additionally attributed to that session (when tracking is on).
    pub fn begin_session(&mut self, id: u64) {
        self.current_session = Some(id);
    }

    /// Closes the current per-session scope.
    pub fn end_session(&mut self) {
        self.current_session = None;
    }

    /// Per-session value of counter `c`.
    pub fn session_value(&self, session: u64, c: Counter) -> u64 {
        self.sessions
            .get(&session)
            .and_then(|row| row.get(c.0 as usize).copied())
            .unwrap_or(0)
    }

    /// Iterates session rows (session id ascending). Each row yields the
    /// session's value for counter `c` via [`MetricsRegistry::session_value`];
    /// this iterator exposes the raw per-counter vectors for exporters.
    pub fn sessions(&self) -> impl Iterator<Item = (u64, &[u64])> + '_ {
        self.sessions.iter().map(|(&sid, row)| (sid, row.as_slice()))
    }

    /// Number of session rows kept.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Session rows (session id ascending) with values re-ordered to match
    /// the name order of [`MetricsRegistry::counters`] — the exporter's
    /// column order.
    pub fn session_rows(&self) -> Vec<(u64, Vec<u64>)> {
        let ids: Vec<usize> = self.counter_index.values().map(|&id| id as usize).collect();
        self.sessions
            .iter()
            .map(|(&sid, row)| {
                (sid, ids.iter().map(|&i| row.get(i).copied().unwrap_or(0)).collect())
            })
            .collect()
    }

    /// Merges another registry into this one, matching by *name* (the two
    /// sides may have interned in different orders). Handles previously
    /// resolved against `self` stay valid. Deterministic: iteration is
    /// name-ordered on both sides, so any fixed merge order of registries
    /// produces identical totals and identical export order.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        // Counter id translation: other id -> self id.
        let mut xlat = vec![0u32; other.counter_names.len()];
        for (name, &oid) in &other.counter_index {
            let Counter(sid) = self.counter(name);
            xlat[oid as usize] = sid;
            self.counters[sid as usize] += other.counters[oid as usize];
        }
        for (name, &oid) in &other.hist_index {
            let Histogram(sid) = self.histogram(name);
            self.hists[sid as usize].merge(&other.hists[oid as usize]);
        }
        for (&session, row) in &other.sessions {
            let mine = self.sessions.entry(session).or_default();
            if mine.len() < self.counters.len() {
                mine.resize(self.counters.len(), 0);
            }
            for (oid, &v) in row.iter().enumerate() {
                if v > 0 {
                    mine[xlat[oid] as usize] += v;
                }
            }
        }
    }

    /// Zeroes every counter and histogram and drops session rows; interned
    /// names (and therefore outstanding handles) are kept.
    pub fn reset(&mut self) {
        self.counters.iter_mut().for_each(|v| *v = 0);
        self.hists.iter_mut().for_each(|s| *s = Summary::new());
        self.sessions.clear();
        self.current_session = None;
    }
}

/// The standard protocol instruments, resolved once per registry.
///
/// `Copy` by design: engines read the handle and call back into the
/// registry (`obs.metrics.add(obs.counters.probes, 1)` borrows cleanly).
#[derive(Clone, Copy, Debug)]
pub struct ProtocolCounters {
    /// BCP probes sent.
    pub probes: Counter,
    /// DHT routing messages.
    pub dht_messages: Counter,
    /// Backup maintenance probes.
    pub maintenance: Counter,
    /// Session control messages.
    pub control: Counter,
    /// Centralized-baseline state updates.
    pub state_updates: Counter,
    /// Optimal-baseline combos fully evaluated.
    pub combos_examined: Counter,
    /// Optimal-baseline combos cut by branch-and-bound pruning.
    pub combos_pruned: Counter,
    /// Fault-injection actions applied.
    pub faults_injected: Counter,
    /// Sessions recovered via a maintained backup.
    pub recovery_switches: Counter,
    /// Sessions that fell through to reactive BCP.
    pub recovery_reactive: Counter,
    /// Backup switchover latency (ms).
    pub switch_ms: Histogram,
    /// Function-graph node count per composition.
    pub graph_nodes: Histogram,
    /// Function-graph branch-path count per composition.
    pub graph_branches: Histogram,
}

impl ProtocolCounters {
    /// Interns the standard names into `reg` and returns the handles.
    pub fn resolve(reg: &mut MetricsRegistry) -> Self {
        ProtocolCounters {
            probes: reg.counter(counter::PROBES),
            dht_messages: reg.counter(counter::DHT_MESSAGES),
            maintenance: reg.counter(counter::MAINTENANCE),
            control: reg.counter(counter::CONTROL),
            state_updates: reg.counter(counter::STATE_UPDATES),
            combos_examined: reg.counter(counter::COMBOS_EXAMINED),
            combos_pruned: reg.counter(counter::COMBOS_PRUNED),
            faults_injected: reg.counter(counter::FAULTS_INJECTED),
            recovery_switches: reg.counter(counter::RECOVERY_SWITCHES),
            recovery_reactive: reg.counter(counter::RECOVERY_REACTIVE),
            switch_ms: reg.histogram(hist::SWITCH_MS),
            graph_nodes: reg.histogram(hist::GRAPH_NODES),
            graph_branches: reg.histogram(hist::GRAPH_BRANCHES),
        }
    }
}

/// The observability bundle one overlay instance owns: the metrics
/// registry, the pre-resolved protocol handles, and the trace ring.
#[derive(Clone, Debug)]
pub struct Instruments {
    /// Counter/histogram storage.
    pub metrics: MetricsRegistry,
    /// Pre-resolved standard handles.
    pub counters: ProtocolCounters,
    /// Typed event ring (no-op when the `trace` feature is off).
    pub trace: TraceBuffer,
}

impl Instruments {
    /// A fresh bundle with the standard handles resolved.
    pub fn new() -> Self {
        let mut metrics = MetricsRegistry::new();
        let counters = ProtocolCounters::resolve(&mut metrics);
        Instruments { metrics, counters, trace: TraceBuffer::new() }
    }

    /// Zeroes metrics and empties the trace ring (handles stay valid).
    pub fn reset(&mut self) {
        self.metrics.reset();
        self.trace.clear();
    }
}

impl Default for Instruments {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_through_handles() {
        let mut m = MetricsRegistry::new();
        let probes = m.counter(counter::PROBES);
        m.incr(probes);
        m.add(probes, 4);
        assert_eq!(m.get(probes), 5);
        assert_eq!(m.value(counter::PROBES), 5);
        assert_eq!(m.value(counter::DHT_MESSAGES), 0);
    }

    #[test]
    fn interning_is_idempotent() {
        let mut m = MetricsRegistry::new();
        let a = m.counter("x");
        let b = m.counter("x");
        assert_eq!(a, b);
        m.incr(a);
        m.incr(b);
        assert_eq!(m.get(a), 2);
        let h1 = m.histogram("y");
        let h2 = m.histogram("y");
        assert_eq!(h1, h2);
    }

    #[test]
    fn histograms_record() {
        let mut m = MetricsRegistry::new();
        let h = m.histogram("setup_ms");
        assert!(m.summary(h).is_none());
        m.observe(h, 10.0);
        m.observe(h, 20.0);
        let s = m.summary(h).unwrap();
        assert_eq!(s.count(), 2);
        assert!((s.mean() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn merge_matches_by_name_not_by_handle_order() {
        // Intern in opposite orders so raw ids disagree.
        let mut a = MetricsRegistry::new();
        let a_p = a.counter("p");
        let _a_q = a.counter("q");
        a.add(a_p, 3);
        let mut b = MetricsRegistry::new();
        let b_q = b.counter("q");
        let b_p = b.counter("p");
        b.add(b_q, 10);
        b.add(b_p, 2);
        a.merge(&b);
        assert_eq!(a.value("p"), 5);
        assert_eq!(a.value("q"), 10);
        // Handle resolved before the merge still reads the right cell.
        assert_eq!(a.get(a_p), 5);
    }

    #[test]
    fn merge_is_deterministic_across_shard_counts() {
        // Simulate the parallel harness: the same 24 increments split
        // across k shards must fold to identical registries for every k.
        let updates: Vec<(&str, u64)> =
            (0..24).map(|i| if i % 3 == 0 { ("a", i) } else { ("b", i * 2) }).collect();
        let render = |reg: &MetricsRegistry| -> Vec<(String, u64)> {
            reg.counters().map(|(k, v)| (k.to_owned(), v)).collect()
        };
        let mut reference = None;
        for shards in [1usize, 2, 8] {
            let mut parts: Vec<MetricsRegistry> =
                (0..shards).map(|_| MetricsRegistry::new()).collect();
            for (i, &(name, v)) in updates.iter().enumerate() {
                let reg = &mut parts[i % shards];
                let c = reg.counter(name);
                reg.add(c, v);
            }
            let mut folded = MetricsRegistry::new();
            for p in &parts {
                folded.merge(p);
            }
            let got = render(&folded);
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(&got, want, "merge diverged at {shards} shards"),
            }
        }
    }

    #[test]
    fn session_rows_attribute_updates() {
        let mut m = MetricsRegistry::new();
        m.set_session_tracking(true);
        let p = m.counter("p");
        m.begin_session(7);
        m.add(p, 3);
        m.end_session();
        m.add(p, 10); // unscoped
        m.begin_session(9);
        m.incr(p);
        m.end_session();
        assert_eq!(m.get(p), 14);
        assert_eq!(m.session_value(7, p), 3);
        assert_eq!(m.session_value(9, p), 1);
        assert_eq!(m.session_value(8, p), 0);
        let ids: Vec<u64> = m.sessions().map(|(sid, _)| sid).collect();
        assert_eq!(ids, vec![7, 9]);
    }

    #[test]
    fn session_rows_merge_by_session_id() {
        let mut a = MetricsRegistry::new();
        a.set_session_tracking(true);
        let ap = a.counter("p");
        a.begin_session(1);
        a.add(ap, 2);
        a.end_session();
        let mut b = MetricsRegistry::new();
        b.set_session_tracking(true);
        let bq = b.counter("q"); // different interning order
        let bp = b.counter("p");
        b.begin_session(1);
        b.add(bp, 5);
        b.incr(bq);
        b.end_session();
        b.begin_session(2);
        b.add(bp, 7);
        b.end_session();
        a.merge(&b);
        assert_eq!(a.session_value(1, ap), 7);
        assert_eq!(a.session_value(2, ap), 7);
        let aq = a.counter("q");
        assert_eq!(a.session_value(1, aq), 1);
    }

    #[test]
    fn reset_keeps_handles_valid() {
        let mut m = MetricsRegistry::new();
        m.set_session_tracking(true);
        let p = m.counter("p");
        let h = m.histogram("h");
        m.begin_session(1);
        m.add(p, 5);
        m.end_session();
        m.observe(h, 1.0);
        m.reset();
        assert_eq!(m.get(p), 0);
        assert!(m.summary(h).is_none());
        assert_eq!(m.session_count(), 0);
        m.incr(p);
        assert_eq!(m.get(p), 1);
        assert_eq!(m.value("p"), 1);
    }

    #[test]
    fn instruments_resolve_standard_handles() {
        let mut obs = Instruments::new();
        obs.metrics.incr(obs.counters.probes);
        obs.metrics.observe(obs.counters.switch_ms, 250.0);
        assert_eq!(obs.metrics.value(counter::PROBES), 1);
        assert_eq!(obs.metrics.summary(obs.counters.switch_ms).unwrap().count(), 1);
        obs.reset();
        assert_eq!(obs.metrics.get(obs.counters.probes), 0);
    }
}
