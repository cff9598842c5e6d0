//! The benchmark's own spans: one record per call into a SpiderNet layer,
//! kept in memory during the traced run and written out when it ends.
//!
//! Spans are recorded only around public API calls made by this
//! benchmark, never inside the program, so an untraced run executes
//! exactly the same calls minus the clock reads and pushes.

use std::io::Write;
use std::time::Instant;

/// The layer a span's call lands in, named by crate and module.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// Root span of one request: generation, composition, commit.
    Request,
    /// Topology generation plus the Pastry ring (`SpiderNet::build`).
    Build,
    /// Component population and DHT registration (`SpiderNet::populate`).
    Populate,
    /// One BCP composition (`core::bcp` through `compose_with`).
    Compose,
    /// One optimal-baseline composition (`core::baselines`).
    Optimal,
    /// Commit plus backup selection (`SpiderNet::establish`).
    Establish,
    /// Session release (`SpiderNet::teardown`).
    Teardown,
    /// Model-time advance and soft-state expiry (`SpiderNet::advance`).
    Advance,
    /// Peer crash handling with backup switching (`SpiderNet::fail_peer`).
    FailPeer,
    /// Reactive re-composition (`SpiderNet::reactive_recover`).
    Reactive,
    /// Backup maintenance round (`SpiderNet::maintenance_tick`).
    Maintenance,
    /// Pastry re-join and directory re-registration (`SpiderNet::revive_peer`).
    Revive,
    /// One whole loopback deployment (`runtime::net::deploy_many`).
    Deploy,
}

impl Layer {
    /// Stable span name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Request => "bench.request",
            Layer::Build => "system.build",
            Layer::Populate => "system.populate",
            Layer::Compose => "bcp.compose",
            Layer::Optimal => "baseline.optimal",
            Layer::Establish => "session.establish",
            Layer::Teardown => "session.teardown",
            Layer::Advance => "state.advance",
            Layer::FailPeer => "recovery.fail_peer",
            Layer::Reactive => "recovery.reactive",
            Layer::Maintenance => "recovery.maintenance",
            Layer::Revive => "dht.revive",
            Layer::Deploy => "runtime.deploy",
        }
    }
}

/// One recorded call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer the call landed in.
    pub layer: Layer,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing request span, if any.
    pub parent: Option<u32>,
    /// Request id the call served (0 for world-level calls).
    pub req: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder; a disabled tracer records nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that encloses later ones; close it with [`Tracer::close`].
    pub fn open(&mut self, layer: Layer, req: u64) -> Option<u32> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns: 0,
            parent: None,
            req,
        });
        Some((self.spans.len() - 1) as u32)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: Option<u32>) {
        if let Some(i) = id {
            let end = self.now_ns();
            self.spans[i as usize].end_ns = end;
        }
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<T>(
        &mut self,
        layer: Layer,
        parent: Option<u32>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns,
            parent,
            req,
        });
        out
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON line: layer, start, end, parent, request.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                parent,
                s.req
            )?;
        }
        out.flush()
    }
}
