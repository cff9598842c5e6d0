//! Protocol model checker: explores delivery interleavings of the real
//! `PeerNode` protocol engine under a fault adversary, plus a soft-state
//! ledger model and the version-negotiation lattice.
//!
//! `cargo run --release -p spidernet-bench --bin mcheck -- \
//!    [--peers N] [--depth D] [--walks W] [--seed S] [--json [path]] \
//!    [--timing]`
//!
//! Six phases, all deterministic for a fixed seed:
//!
//! 1. `setup_reorder` — bounded BFS over session composition with
//!    arbitrary message reordering (no loss). Every terminal state must
//!    have completed request 1, and all terminals must agree on one
//!    outcome digest.
//! 2. `setup_lossy` — the same composition under a drop + duplicate
//!    budget; completion is only required on lossless executions.
//! 3. `stream_walks` — seeded random walks over an established stream
//!    (maintenance probing + primary crash + timer races), exercising
//!    the failover state machine.
//! 4. `soft_ledger` — BFS over `OverlayState` soft reservations
//!    (allocate / release / expiry sweep / crash / revive) checking
//!    exact ledger-vs-reservation accounting after every step.
//! 5. `flow_order` — BFS over stream commit/release orderings in the
//!    shared-bandwidth flow model, re-checking the fair-share
//!    invariants and the soft ledger after every step; all terminals
//!    must agree on one bitwise fair-share outcome.
//! 6. `negotiate` — the exhaustive version-negotiation matrix
//!    (symmetry, highest-common pick, `None` iff disjoint).
//!
//! `BENCH_mc.json` (`--json`) carries per-phase counters and the
//! roll-up (states explored, dedup hit rate, violations). The file is
//! byte-identical across runs and across `SPIDERNET_THREADS` settings;
//! wall-clock throughput (`states_per_sec`) is only included with
//! `--timing`, which trades that reproducibility for the measurement.
//! Any violation also writes `MC_VIOLATIONS_<phase>.json` with
//! minimized replayable schedules.

use spidernet_bench::{arg_value, flag_present, json_spec, BenchBlock, BenchReport};
use spidernet_core::state::{LinkDemand, OverlayState, SoftToken};
use spidernet_runtime::mc::{CheckedWorld, McScenario, NetModel};
use spidernet_sim::mc::{explore, random_walks, violations_to_json, ModelSystem};
use spidernet_sim::{McConfig, McReport, SimTime, TraceBuffer};
use spidernet_topology::overlay::{GeoConfig, Overlay};
use spidernet_topology::Hop;
use spidernet_util::id::PeerId;
use spidernet_util::res::ResourceVector;
use spidernet_wire::negotiate;

// ---------------------------------------------------------------------
// Soft-ledger model: OverlayState reservations under churn
// ---------------------------------------------------------------------

/// splitmix64-style combiner (same shape the runtime digests use).
fn mix(h: u64, v: u64) -> u64 {
    let mut x = h ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Ghost copy of one issued reservation: what the model believes the
/// arena holds, maintained action by action and reconciled against the
/// real [`OverlayState`] in `check`.
#[derive(Clone)]
struct GhostToken {
    token: SoftToken,
    peer: PeerId,
    expires: SimTime,
    live: bool,
}

/// Per-reservation resources (small enough that the budgeted allocs
/// always fit a live peer).
const LEDGER_RES: ResourceVector = ResourceVector::new(0.125, 8.0);
/// Reservation TTL, model ms.
const LEDGER_TTL_MS: f64 = 50.0;
/// Clock step per `Advance` action, model ms (two steps cross a TTL).
const LEDGER_STEP_MS: f64 = 30.0;

/// The soft-state ledger as a [`ModelSystem`]: every interleaving of
/// allocate / release / expiry-sweep / crash / revive over a small peer
/// set, with `verify_soft_accounting` (ledger == sum of live
/// reservations) checked after every action.
#[derive(Clone)]
struct SoftLedger {
    state: OverlayState,
    n_peers: u64,
    now: SimTime,
    tokens: Vec<GhostToken>,
    allocs_left: u32,
    crashes_left: u32,
    /// First model-vs-state divergence (a real bug if ever set).
    violation: Option<String>,
}

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum LedgerAction {
    /// Soft-allocate on a peer.
    Alloc(u64),
    /// Explicitly release token #i.
    Release(usize),
    /// Advance the clock one step and run the expiry sweep.
    Advance,
    /// Fail a peer (books intentionally left alone).
    Crash(u64),
    /// Revive a peer (clean slate: its entries and ledger drop together).
    Revive(u64),
}

impl SoftLedger {
    fn new(peers: usize, seed: u64) -> SoftLedger {
        let ov = Overlay::build_geo(&GeoConfig { peers, ..GeoConfig::default() }, seed);
        SoftLedger {
            state: OverlayState::new(&ov, ResourceVector::new(1.0, 256.0)),
            n_peers: peers as u64,
            now: SimTime::ZERO,
            tokens: Vec::new(),
            allocs_left: 3,
            crashes_left: 1,
            violation: None,
        }
    }

    fn peers(&self) -> u64 {
        self.n_peers
    }

    fn dead_peers(&self) -> Vec<PeerId> {
        (0..self.n_peers).map(PeerId::new).filter(|&p| !self.state.is_alive(p)).collect()
    }
}

impl ModelSystem for SoftLedger {
    type Action = LedgerAction;

    fn enabled(&self) -> Vec<LedgerAction> {
        let mut acts = Vec::new();
        let n = self.peers();
        if self.allocs_left > 0 {
            for p in 0..n {
                let peer = PeerId::new(p);
                if self.state.is_alive(peer) && LEDGER_RES.fits_within(&self.state.available(peer))
                {
                    acts.push(LedgerAction::Alloc(p));
                }
            }
        }
        for (i, g) in self.tokens.iter().enumerate() {
            if g.live {
                acts.push(LedgerAction::Release(i));
            }
        }
        if self.tokens.iter().any(|g| g.live) {
            acts.push(LedgerAction::Advance);
        }
        if self.crashes_left > 0 {
            for p in 0..n {
                if self.state.is_alive(PeerId::new(p)) {
                    acts.push(LedgerAction::Crash(p));
                }
            }
        }
        for p in self.dead_peers() {
            acts.push(LedgerAction::Revive(p.raw()));
        }
        acts
    }

    fn apply(&mut self, action: &LedgerAction) -> bool {
        let mut trace = TraceBuffer::new();
        match *action {
            LedgerAction::Alloc(p) => {
                if self.allocs_left == 0 {
                    return false;
                }
                let expires = self.now + spidernet_sim::time::SimDuration::from_ms(LEDGER_TTL_MS);
                match self.state.soft_allocate(PeerId::new(p), LEDGER_RES, expires, &mut trace) {
                    Ok(token) => {
                        self.allocs_left -= 1;
                        self.tokens.push(GhostToken {
                            token,
                            peer: PeerId::new(p),
                            expires,
                            live: true,
                        });
                        true
                    }
                    Err(_) => false,
                }
            }
            LedgerAction::Release(i) => {
                let Some(g) = self.tokens.get(i).cloned() else { return false };
                if !g.live {
                    return false;
                }
                let credited = self.state.release_soft(g.token, &mut trace);
                if !credited {
                    self.violation = Some(format!(
                        "release of live token #{i} on {:?} credited nothing",
                        g.peer
                    ));
                }
                self.tokens[i].live = false;
                true
            }
            LedgerAction::Advance => {
                self.now += spidernet_sim::time::SimDuration::from_ms(LEDGER_STEP_MS);
                let swept = self.state.expire_soft(self.now, &mut trace);
                let mut expected = 0usize;
                for g in self.tokens.iter_mut() {
                    if g.live && g.expires <= self.now {
                        g.live = false;
                        expected += 1;
                    }
                }
                if swept != expected {
                    self.violation = Some(format!(
                        "expiry sweep at {:?} reclaimed {swept} reservations, model expected \
                         {expected}",
                        self.now
                    ));
                }
                true
            }
            LedgerAction::Crash(p) => {
                if self.crashes_left == 0 || !self.state.is_alive(PeerId::new(p)) {
                    return false;
                }
                self.crashes_left -= 1;
                // Books intentionally left alone: unexpired reservations
                // on a dead peer stay in the arena until swept/revived.
                self.state.fail_peer(PeerId::new(p));
                true
            }
            LedgerAction::Revive(p) => {
                if self.state.is_alive(PeerId::new(p)) {
                    return false;
                }
                self.state.revive_peer(PeerId::new(p));
                for g in self.tokens.iter_mut() {
                    if g.peer == PeerId::new(p) {
                        g.live = false; // clean slate dropped its entries
                    }
                }
                true
            }
        }
    }

    fn digest(&self) -> u64 {
        let mut h = mix(0x50F7, self.now.as_micros());
        for p in 0..self.peers() {
            let peer = PeerId::new(p);
            let load = self.state.soft_load(peer);
            h = mix(h, load.cpu().to_bits());
            h = mix(h, load.memory().to_bits());
            h = mix(h, u64::from(self.state.is_alive(peer)));
        }
        for g in &self.tokens {
            h = mix(h, mix(g.peer.raw(), mix(g.expires.as_micros(), u64::from(g.live))));
        }
        h = mix(h, u64::from(self.allocs_left));
        h = mix(h, u64::from(self.crashes_left));
        mix(h, u64::from(self.violation.is_some()))
    }

    fn check(&self) -> Result<(), String> {
        if let Some(v) = &self.violation {
            return Err(v.clone());
        }
        self.state.verify_soft_accounting()?;
        let ghost_live = self.tokens.iter().filter(|g| g.live).count();
        if ghost_live != self.state.soft_count() {
            return Err(format!(
                "arena holds {} reservations, model says {ghost_live} are live",
                self.state.soft_count()
            ));
        }
        Ok(())
    }

    fn check_terminal(&self) -> Result<(), String> {
        // Terminal means every token is dead: the ledger must be fully
        // credited back on every peer.
        for p in 0..self.peers() {
            let load = self.state.soft_load(PeerId::new(p));
            if load.cpu().abs() > 1e-9 || load.memory().abs() > 1e-9 {
                return Err(format!("terminal state leaks soft load {load:?} on peer {p}"));
            }
        }
        Ok(())
    }

    fn outcome(&self) -> u64 {
        mix(0xD00E, self.tokens.len() as u64)
    }

    fn encode(&self, action: &LedgerAction) -> String {
        match *action {
            LedgerAction::Alloc(p) => format!("alloc:p{p}"),
            LedgerAction::Release(i) => format!("release:#{i}"),
            LedgerAction::Advance => "advance".to_owned(),
            LedgerAction::Crash(p) => format!("crash:p{p}"),
            LedgerAction::Revive(p) => format!("revive:p{p}"),
        }
    }
}

// ---------------------------------------------------------------------
// Flow-order model: fair-share bookkeeping under commit/release orderings
// ---------------------------------------------------------------------

/// Per-stream CPU+memory demand (small enough that every commit fits).
const FLOW_RES: ResourceVector = ResourceVector::new(0.1, 4.0);
/// Per-stream bandwidth demand, Mbps — sized so two streams sharing an
/// access pipe (20–110 Mbps) usually contend.
const FLOW_BW: f64 = 30.0;

/// Stream menu: `(source, dest)` routes over the geo overlay. Streams 0
/// and 1 share peer 0's access pipe; stream 2 shares peer 1 with stream
/// 0's sink. Stream 0 is torn down again before a terminal state.
const FLOW_STREAMS: [(u64, u64); 3] = [(0, 1), (0, 2), (1, 3)];
/// Which streams the adversary must release again (by index).
const FLOW_RELEASES: [bool; 3] = [true, false, false];

/// The shared-bandwidth flow model as a [`ModelSystem`]: a small geo
/// overlay in flow mode, every interleaving of stream commits and
/// releases (plus soft-reservation noise), with the soft ledger and the
/// fair-share invariants (rates within demand, links within capacity)
/// re-checked after every action. Every terminal state holds the same
/// live stream set, so a single terminal outcome digest pins the
/// fair-share computation as add/remove-order independent.
#[derive(Clone)]
struct FlowOrder {
    state: OverlayState,
    now: SimTime,
    committed: Vec<Option<spidernet_core::state::SessionAllocation>>,
    released: Vec<bool>,
    /// Bitwise delivered fraction per live stream, refreshed after every
    /// action (digest/outcome are `&self`, the lazy rates need `&mut`).
    delivered: Vec<u64>,
    soft: Vec<(SoftToken, bool)>,
    soft_left: u32,
    violation: Option<String>,
}

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum FlowAction {
    /// Commit stream #i (its flows join the fair-share computation).
    Commit(usize),
    /// Release committed stream #i (its flows leave).
    Release(usize),
    /// Soft-allocate probe state on peer 0.
    SoftAlloc,
    /// Release soft token #i.
    SoftFree(usize),
}

impl FlowOrder {
    fn new(seed: u64) -> FlowOrder {
        let ov = Overlay::build_geo(&GeoConfig { peers: 4, ..GeoConfig::default() }, seed);
        let mut state = OverlayState::new(&ov, ResourceVector::new(1.0, 256.0));
        state.enable_flow_model();
        FlowOrder {
            state,
            now: SimTime::ZERO,
            committed: vec![None; FLOW_STREAMS.len()],
            released: vec![false; FLOW_STREAMS.len()],
            delivered: vec![u64::MAX; FLOW_STREAMS.len()],
            soft: Vec::new(),
            soft_left: 2,
            violation: None,
        }
    }

    /// Refreshes cached delivered fractions and re-checks the fair-share
    /// invariants (called after every action while `&mut` is available).
    fn settle(&mut self) {
        if let Err(e) = self.state.verify_flow_invariants() {
            self.violation.get_or_insert(format!("flow invariants: {e}"));
        }
        for (i, alloc) in self.committed.iter().enumerate() {
            self.delivered[i] = match alloc {
                Some(a) if !self.released[i] => {
                    let f = self.state.delivered_fraction(a);
                    if !(0.0..=1.0).contains(&f) {
                        self.violation
                            .get_or_insert(format!("stream {i} delivered fraction {f} out of range"));
                    }
                    f.to_bits()
                }
                _ => u64::MAX,
            };
        }
        let live_flows: usize = self
            .committed
            .iter()
            .zip(&self.released)
            .filter_map(|(a, &r)| a.as_ref().filter(|_| !r))
            .map(|a| a.flows.len())
            .sum();
        if live_flows != self.state.flow_count() {
            self.violation.get_or_insert(format!(
                "flow book holds {} flows, model says {live_flows} are live",
                self.state.flow_count()
            ));
        }
    }
}

impl ModelSystem for FlowOrder {
    type Action = FlowAction;

    fn enabled(&self) -> Vec<FlowAction> {
        let mut acts = Vec::new();
        for (i, &must_release) in FLOW_RELEASES.iter().enumerate() {
            if self.committed[i].is_none() {
                acts.push(FlowAction::Commit(i));
            } else if must_release && !self.released[i] {
                acts.push(FlowAction::Release(i));
            }
        }
        if self.soft_left > 0 {
            acts.push(FlowAction::SoftAlloc);
        }
        for (i, &(_, live)) in self.soft.iter().enumerate() {
            if live {
                acts.push(FlowAction::SoftFree(i));
            }
        }
        acts
    }

    fn apply(&mut self, action: &FlowAction) -> bool {
        let mut trace = TraceBuffer::new();
        let ok = match *action {
            FlowAction::Commit(i) => {
                if self.committed[i].is_some() {
                    return false;
                }
                let (s, d) = FLOW_STREAMS[i];
                let mut route = LinkDemand::default();
                route.push_stream([Hop::direct(PeerId::new(s), PeerId::new(d))], FLOW_BW);
                match self.state.commit(&[(PeerId::new(d), FLOW_RES)], &route) {
                    Ok(alloc) => {
                        self.committed[i] = Some(alloc);
                        true
                    }
                    Err(e) => {
                        // Flow mode never gates on bandwidth and the CPU
                        // budget always fits; a rejection is a model bug.
                        self.violation.get_or_insert(format!("commit of stream {i} failed: {e}"));
                        true
                    }
                }
            }
            FlowAction::Release(i) => {
                let Some(alloc) = self.committed[i].clone() else { return false };
                if self.released[i] || !FLOW_RELEASES[i] {
                    return false;
                }
                self.state.release(&alloc);
                self.released[i] = true;
                true
            }
            FlowAction::SoftAlloc => {
                if self.soft_left == 0 {
                    return false;
                }
                self.soft_left -= 1;
                let expires = self.now + spidernet_sim::time::SimDuration::from_ms(1_000.0);
                match self.state.soft_allocate(PeerId::new(0), LEDGER_RES, expires, &mut trace) {
                    Ok(t) => {
                        self.soft.push((t, true));
                        true
                    }
                    Err(_) => false,
                }
            }
            FlowAction::SoftFree(i) => {
                let Some(&(t, live)) = self.soft.get(i) else { return false };
                if !live {
                    return false;
                }
                if !self.state.release_soft(t, &mut trace) {
                    self.violation
                        .get_or_insert(format!("release of live soft token #{i} credited nothing"));
                }
                self.soft[i].1 = false;
                true
            }
        };
        if ok {
            self.settle();
        }
        ok
    }

    fn digest(&self) -> u64 {
        let mut h = mix(0xF10D, self.soft_left.into());
        for (i, alloc) in self.committed.iter().enumerate() {
            h = mix(h, u64::from(alloc.is_some()));
            h = mix(h, u64::from(self.released[i]));
            h = mix(h, self.delivered[i]);
        }
        for &(_, live) in &self.soft {
            h = mix(h, u64::from(live));
        }
        mix(h, u64::from(self.violation.is_some()))
    }

    fn check(&self) -> Result<(), String> {
        if let Some(v) = &self.violation {
            return Err(v.clone());
        }
        self.state.verify_soft_accounting()
    }

    fn check_terminal(&self) -> Result<(), String> {
        // Terminal: all streams committed, flagged releases done, soft
        // tokens drained. The flow book must hold exactly the survivors.
        let live: usize = FLOW_RELEASES.iter().filter(|&&r| !r).count();
        if self.state.flow_count() != live {
            return Err(format!(
                "terminal flow book holds {} flows, expected {live}",
                self.state.flow_count()
            ));
        }
        Ok(())
    }

    fn outcome(&self) -> u64 {
        // Digest the survivors' delivered fractions bit-for-bit: every
        // commit/release interleaving must land on this exact value.
        let mut h = 0xFA1E_u64;
        for (i, &bits) in self.delivered.iter().enumerate() {
            if self.committed[i].is_some() && !self.released[i] {
                h = mix(h, bits);
            }
        }
        h
    }

    fn encode(&self, action: &FlowAction) -> String {
        match *action {
            FlowAction::Commit(i) => format!("commit:s{i}"),
            FlowAction::Release(i) => format!("release:s{i}"),
            FlowAction::SoftAlloc => "soft-alloc".to_owned(),
            FlowAction::SoftFree(i) => format!("soft-free:#{i}"),
        }
    }
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

struct Cli {
    peers: usize,
    depth: usize,
    walks: u64,
    seed: u64,
    timing: bool,
}

fn cli() -> Cli {
    let peers = arg_value("--peers").and_then(|v| v.parse().ok()).unwrap_or(4);
    if peers < 4 {
        eprintln!("mcheck: --peers must be >= 4 (source, dest, two hosts)");
        std::process::exit(2);
    }
    Cli {
        peers,
        depth: arg_value("--depth").and_then(|v| v.parse().ok()).unwrap_or(8),
        walks: arg_value("--walks").and_then(|v| v.parse().ok()).unwrap_or(6),
        seed: arg_value("--seed").and_then(|v| v.parse().ok()).unwrap_or(42),
        timing: flag_present("--timing"),
    }
}

/// Runs one phase, prints its counters, files violations, and folds the
/// report into the totals.
fn phase(
    name: &str,
    rep: McReport,
    report: &mut BenchReport,
    totals: &mut spidernet_sim::McStats,
    violations_total: &mut usize,
    outcome_sets: &mut Vec<(String, usize)>,
) {
    let s = &rep.stats;
    println!(
        "  {name}: {} states, {} transitions, {:.1}% dedup, {} terminal, {} outcome(s), {} \
         violation(s){}",
        s.states_explored,
        s.transitions,
        100.0 * s.dedup_hit_rate(),
        s.terminal_states,
        rep.terminal_outcomes.len(),
        rep.violations.len(),
        if s.truncated { " [truncated]" } else { "" },
    );
    let mut block = BenchBlock::new();
    block
        .int("states_explored", s.states_explored)
        .int("transitions", s.transitions)
        .int("dedup_hits", s.dedup_hits)
        .num("dedup_hit_rate", s.dedup_hit_rate())
        .int("terminal_states", s.terminal_states)
        .int("terminal_outcomes", rep.terminal_outcomes.len() as u64)
        .int("truncated", u64::from(s.truncated))
        .int("violations", rep.violations.len() as u64);
    report.nested(name, &block);
    totals.merge(s);
    *violations_total += rep.violations.len();
    outcome_sets.push((name.to_owned(), rep.terminal_outcomes.len()));
    if !rep.violations.is_empty() {
        let path = format!("MC_VIOLATIONS_{name}.json");
        let json = violations_to_json(name, &rep.violations);
        if std::fs::write(&path, &json).is_ok() {
            eprintln!("  {name}: wrote {} minimized schedule(s) to {path}", rep.violations.len());
        }
        for v in &rep.violations {
            eprintln!("    VIOLATION: {} (schedule: {:?})", v.error, v.schedule);
        }
    }
}

fn main() {
    let cli = cli();
    let t0 = std::time::Instant::now();
    println!(
        "mcheck: peers={} depth={} walks={} seed={}",
        cli.peers, cli.depth, cli.walks, cli.seed
    );

    let mut report = BenchReport::new("mc");
    report
        .int("peers", cli.peers as u64)
        .int("depth", cli.depth as u64)
        .int("walks", cli.walks)
        .int("seed", cli.seed);

    let mut totals = spidernet_sim::McStats::default();
    let mut violations = 0usize;
    let mut outcome_sets: Vec<(String, usize)> = Vec::new();

    // Phase 1: composition under pure reordering.
    let mut scen = McScenario::setup(NetModel::reorder_only());
    scen.peers = cli.peers;
    scen.seed = cli.seed;
    let cfg = McConfig { depth: cli.depth, seed: cli.seed, ..McConfig::default() };
    let root = CheckedWorld::new(scen);
    phase(
        "setup_reorder",
        explore(|| root.clone(), &cfg),
        &mut report,
        &mut totals,
        &mut violations,
        &mut outcome_sets,
    );

    // Phase 2: composition under drop + duplicate budgets.
    let mut scen = McScenario::setup(NetModel::lossy(1, 1));
    scen.peers = cli.peers;
    scen.seed = cli.seed;
    let root = CheckedWorld::new(scen);
    phase(
        "setup_lossy",
        explore(|| root.clone(), &cfg),
        &mut report,
        &mut totals,
        &mut violations,
        &mut outcome_sets,
    );

    // Phase 3: streaming failover under the full adversary, random walks.
    let walk_cfg = McConfig {
        walks: cli.walks,
        walk_steps: 2_000,
        seed: cli.seed,
        ..McConfig::default()
    };
    let root = CheckedWorld::new(McScenario::stream(NetModel::full(1, 1, 1)));
    phase(
        "stream_walks",
        random_walks(|| root.clone(), &walk_cfg),
        &mut report,
        &mut totals,
        &mut violations,
        &mut outcome_sets,
    );

    // Phase 4: the soft-state ledger under churn.
    let root = SoftLedger::new(cli.peers, cli.seed);
    phase(
        "soft_ledger",
        explore(|| root.clone(), &cfg),
        &mut report,
        &mut totals,
        &mut violations,
        &mut outcome_sets,
    );

    // Phase 5: commit/release orderings under the shared-bandwidth model.
    let root = FlowOrder::new(cli.seed);
    phase(
        "flow_order",
        explore(|| root.clone(), &cfg),
        &mut report,
        &mut totals,
        &mut violations,
        &mut outcome_sets,
    );

    // Phase 6: the negotiation lattice, exhaustively.
    let mut pairs = 0u64;
    let mut negotiate_bad = 0u64;
    for a_lo in 0..=4u16 {
        for a_hi in 0..=4u16 {
            for b_lo in 0..=4u16 {
                for b_hi in 0..=4u16 {
                    pairs += 1;
                    let got = negotiate((a_lo, a_hi), (b_lo, b_hi));
                    let want = (0..=4u16)
                        .rfind(|v| a_lo <= *v && *v <= a_hi && b_lo <= *v && *v <= b_hi);
                    if got != want || got != negotiate((b_lo, b_hi), (a_lo, a_hi)) {
                        negotiate_bad += 1;
                    }
                }
            }
        }
    }
    println!("  negotiate: {pairs} pairs, {negotiate_bad} mismatches");
    let mut block = BenchBlock::new();
    block.int("pairs", pairs).int("mismatches", negotiate_bad);
    report.nested("negotiate", &block);
    violations += negotiate_bad as usize;

    // Determinism pin: reordering alone must not change what the
    // application observes.
    let setup_outcomes = outcome_sets
        .iter()
        .find(|(n, _)| n == "setup_reorder")
        .map(|&(_, c)| c)
        .unwrap_or(0);
    if setup_outcomes > 1 {
        eprintln!("  WARNING: setup_reorder observed {setup_outcomes} distinct outcomes");
        violations += 1;
    }

    // Order-independence pin: every commit/release interleaving must
    // settle on bit-identical fair shares.
    let flow_outcomes = outcome_sets
        .iter()
        .find(|(n, _)| n == "flow_order")
        .map(|&(_, c)| c)
        .unwrap_or(0);
    if flow_outcomes > 1 {
        eprintln!("  WARNING: flow_order observed {flow_outcomes} distinct outcomes");
        violations += 1;
    }

    report
        .int("states_explored", totals.states_explored)
        .int("transitions", totals.transitions)
        .int("dedup_hits", totals.dedup_hits)
        .num("dedup_hit_rate", totals.dedup_hit_rate())
        .int("terminal_states", totals.terminal_states)
        .int("violations", violations as u64);
    if cli.timing {
        let wall = t0.elapsed().as_secs_f64();
        report.num("wall_s", wall).num("states_per_sec", totals.states_explored as f64 / wall);
    }
    println!(
        "mcheck: {} states total, {:.1}% dedup, {} violation(s)",
        totals.states_explored,
        100.0 * totals.dedup_hit_rate(),
        violations
    );
    if let Some(spec) = json_spec() {
        match report.write_spec(&spec) {
            Ok(p) => println!("mcheck: wrote {}", p.display()),
            Err(e) => eprintln!("mcheck: failed to write report: {e}"),
        }
    }
    if violations > 0 {
        std::process::exit(1);
    }
}
