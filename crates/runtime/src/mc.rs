//! Model-checker adapter: real `PeerNode`s over a virtual network.
//!
//! [`CheckedWorld`] drives N unmodified [`PeerNode`]s and files every
//! message and timer an engine call leaves in its [`Outbox`] into a
//! virtual network instead of an event queue. The set of
//! captured-but-undelivered messages *is* the network: each
//! [`McAction`] delivers one of them (or fires a
//! timer, drops, duplicates, crashes a peer), so the
//! [`spidernet_sim::mc`] engine can explore delivery interleavings that
//! the cluster's due-ordered event queue never produces and the socket
//! transport would only hit under rare scheduling, loss, or WAN jitter.
//!
//! The adversary is bounded by a [`NetModel`]: arbitrary reorder (or
//! FIFO per channel), a drop budget over the droppable message class, a
//! duplication budget, timer-vs-wire races, and a crash budget over the
//! scenario's crashable peers. Invariants checked after every transition
//! combine [`PeerNode::local_invariants`] with *ghost state* the nodes
//! themselves cannot see — which path each maintenance probe actually
//! walked, and what the failover candidates looked like the instant a
//! switch fired — so a stale `PathProbeAck` credited to the wrong backup
//! or a failover onto a dead-marked slot is caught as a safety
//! violation, not a silent misbehaviour.
//!
//! Action keys are content-based (`mix` over endpoints and the message's
//! delay salt, disambiguated by an occurrence counter), which keeps a
//! minimized schedule replayable: removing an unrelated action does not
//! renumber the survivors.

use crate::media::MediaFunction;
use crate::net::{report_to_wire, setup_to_wire};
use crate::node::{
    delay_salt, mix, ClusterConfig, Outbox, PeerNode, SetupResult, StreamReport, Timer, World,
};
use spidernet_sim::mc::ModelSystem;
use spidernet_util::id::PeerId;
use spidernet_wire::{encode_to_vec, WireMsg};
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Network adversary model: which interleavings and faults the checker
/// may explore.
#[derive(Clone, Debug, Default)]
pub struct NetModel {
    /// Deliver in-flight messages in any order. When false, delivery is
    /// FIFO per `(from, to)` channel — the TCP ordering guarantee.
    pub reorder: bool,
    /// How many droppable-class messages ([`WireMsg::droppable`]) the
    /// adversary may drop.
    pub drops: u32,
    /// How many droppable-class messages the adversary may duplicate.
    pub dups: u32,
    /// Let timers race in-flight deliveries. When false, a peer's timer
    /// fires only once no wire message with an earlier model timestamp
    /// is bound for that peer (deliveries-before-timeouts discipline).
    pub timer_race: bool,
    /// How many peers (from [`McScenario::crashable`]) may crash.
    pub crashes: u32,
}

impl NetModel {
    /// Pure reordering: no loss, no duplication, no crashes, timers
    /// gated behind deliveries. Every terminal outcome must be
    /// identical under this model.
    pub fn reorder_only() -> NetModel {
        NetModel { reorder: true, ..NetModel::default() }
    }

    /// Reordering plus loss and duplication budgets.
    pub fn lossy(drops: u32, dups: u32) -> NetModel {
        NetModel { reorder: true, drops, dups, ..NetModel::default() }
    }

    /// The full adversary: reorder, loss, duplication, timer races, and
    /// peer crashes.
    pub fn full(drops: u32, dups: u32, crashes: u32) -> NetModel {
        NetModel { reorder: true, drops, dups, timer_race: true, crashes }
    }
}

/// One checkable deployment: peers, the request under test, and the
/// adversary. Two stock shapes cover the protocol's phases —
/// [`McScenario::setup`] (composition from cold) and
/// [`McScenario::stream`] (an established session with backups, under
/// failover pressure).
#[derive(Clone, Debug)]
pub struct McScenario {
    /// Cluster size.
    pub peers: usize,
    /// World seed (WAN delays, overlay).
    pub seed: u64,
    /// Requested function chain.
    pub chain: Vec<MediaFunction>,
    /// The composing/streaming source peer.
    pub source: PeerId,
    /// The application receiver.
    pub dest: PeerId,
    /// Probing budget for composition.
    pub budget: u32,
    /// The adversary.
    pub net: NetModel,
    /// Peers the crash budget may be spent on.
    pub crashable: Vec<PeerId>,
    /// Frames to stream (0 = setup only; the `Start` action never
    /// enables).
    pub stream_frames: u64,
    /// Model ms between frames.
    pub frame_interval_ms: f64,
    /// Streaming failover timeout, model ms.
    pub failover_timeout_ms: f64,
    /// Backup maintenance period, model ms (0 disables).
    pub maintenance_period_ms: f64,
    /// Skip composition: start streaming directly over paths derived
    /// from component placement (slot 0 primary, later replicas as
    /// backups).
    pub pre_established: bool,
}

impl McScenario {
    /// Composition from cold at 4 peers: two-function chain, one replica
    /// per function (peers 0 and 1), source 2, destination 3.
    pub fn setup(net: NetModel) -> McScenario {
        McScenario {
            peers: 4,
            seed: 42,
            chain: vec![MediaFunction::ALL[0], MediaFunction::ALL[1]],
            source: PeerId::new(2),
            dest: PeerId::new(3),
            budget: 4,
            net,
            crashable: Vec::new(),
            stream_frames: 0,
            frame_interval_ms: 20.0,
            failover_timeout_ms: 50.0,
            maintenance_period_ms: 0.0,
            pre_established: false,
        }
    }

    /// An established one-function stream at 14 peers with two backup
    /// paths (replica hosts 0, 6, 12), maintenance probing on, and the
    /// primary host crashable — the failover state machine under fire.
    pub fn stream(net: NetModel) -> McScenario {
        McScenario {
            peers: 14,
            seed: 42,
            chain: vec![MediaFunction::ALL[0]],
            source: PeerId::new(2),
            dest: PeerId::new(3),
            budget: 4,
            net,
            crashable: vec![PeerId::new(0)],
            stream_frames: 3,
            frame_interval_ms: 20.0,
            failover_timeout_ms: 50.0,
            maintenance_period_ms: 40.0,
            pre_established: true,
        }
    }

    /// Derives the stable slot list for a pre-established stream from
    /// component placement: path `i` picks replica `i` of every chain
    /// function, excluding the source and destination.
    fn service_paths(&self, world: &World) -> Vec<Vec<PeerId>> {
        let hosts: Vec<Vec<PeerId>> = self
            .chain
            .iter()
            .map(|&f| {
                (0..world.cfg.peers as u64)
                    .map(PeerId::new)
                    .filter(|&p| {
                        world.functions[p.index()] == f && p != self.source && p != self.dest
                    })
                    .collect()
            })
            .collect();
        let replicas = hosts.iter().map(Vec::len).min().unwrap_or(0);
        (0..replicas).map(|i| hosts.iter().map(|h| h[i]).collect()).collect()
    }
}

/// One transition of the checked world. Keys are content-based, so a
/// minimized schedule replays against a fresh world.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum McAction {
    /// Deliver the in-flight wire message with this key.
    Deliver(u64),
    /// Fire the pending timer with this key.
    Timer(u64),
    /// Drop the in-flight droppable message with this key.
    Drop(u64),
    /// Duplicate the in-flight droppable message with this key.
    Duplicate(u64),
    /// Crash the peer with this raw id.
    Crash(u64),
    /// Start streaming over the first successful setup.
    Start,
}

#[derive(Clone, Debug)]
struct InFlight {
    key: u64,
    seq: u64,
    from: PeerId,
    to: PeerId,
    msg: WireMsg,
}

#[derive(Clone, Debug)]
struct TimerEntry {
    key: u64,
    peer: PeerId,
    due_ms: f64,
    timer: Timer,
}

/// What one delivery hands a peer.
enum Input {
    Wire(WireMsg),
    Timer(Timer),
}

/// The model timestamp a wire message carries (0 for kinds without one —
/// they sort as "already due").
fn msg_at(msg: &WireMsg) -> f64 {
    match msg {
        WireMsg::DhtLookup { at_ms, .. }
        | WireMsg::DhtReply { at_ms, .. }
        | WireMsg::SetupAck { at_ms, .. }
        | WireMsg::StreamFrame { at_ms, .. }
        | WireMsg::FrameAck { at_ms, .. } => *at_ms,
        WireMsg::Probe(p) => p.at_ms,
        _ => 0.0,
    }
}

/// Content salt for timer identity (parallels [`delay_salt`] for wire
/// messages).
fn timer_salt(timer: &Timer) -> u64 {
    match *timer {
        Timer::Collect { request } => mix(20, request),
        Timer::Stream { session } => mix(21, session),
        Timer::Maintenance { session } => mix(22, session),
    }
}

fn kind_name(msg: &WireMsg) -> &'static str {
    match msg {
        WireMsg::DhtLookup { .. } => "DhtLookup",
        WireMsg::DhtReply { .. } => "DhtReply",
        WireMsg::Register { .. } => "Register",
        WireMsg::Probe(_) => "Probe",
        WireMsg::SetupAck { .. } => "SetupAck",
        WireMsg::StreamFrame { .. } => "StreamFrame",
        WireMsg::FrameAck { .. } => "FrameAck",
        WireMsg::PathProbe { .. } => "PathProbe",
        WireMsg::PathProbeAck { .. } => "PathProbeAck",
        _ => "Control",
    }
}

fn timer_name(timer: &Timer) -> &'static str {
    match timer {
        Timer::Collect { .. } => "TimerCollect",
        Timer::Stream { .. } => "TimerStream",
        Timer::Maintenance { .. } => "TimerMaintenance",
    }
}

/// Full-content digest of a wire message: its encoding, which carries
/// every field (timestamps, payload bits, carried paths).
fn msg_digest(msg: &WireMsg) -> u64 {
    fold_encoding(0x4d53_4744, msg)
}

/// Folds `msg`'s wire encoding into `h`, 8 bytes at a time.
fn fold_encoding(h: u64, msg: &WireMsg) -> u64 {
    encode_to_vec(msg).chunks(8).fold(h, |h, chunk| {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        mix(h, u64::from_le_bytes(word))
    })
}

/// Digest of a pending timer: its kind and id.
fn timer_digest(timer: &Timer) -> u64 {
    let h = mix(0x4d53_4744, 0);
    match *timer {
        Timer::Collect { request } => mix(h, mix(10, request)),
        Timer::Stream { session } => mix(h, mix(11, session)),
        Timer::Maintenance { session } => mix(h, mix(12, session)),
    }
}

/// Digest of a setup result, through its control-frame encoding.
fn setup_digest(h: u64, s: &SetupResult) -> u64 {
    fold_encoding(h, &WireMsg::CtrlComposeResult(setup_to_wire(s)))
}

/// Digest of a stream report, through its control-frame encoding.
fn report_digest(h: u64, r: &StreamReport) -> u64 {
    fold_encoding(h, &WireMsg::CtrlStreamReport(report_to_wire(r)))
}

/// N real [`PeerNode`]s plus the virtual network between them, as a
/// [`ModelSystem`] the [`spidernet_sim::mc`] engine can explore.
#[derive(Clone)]
pub struct CheckedWorld {
    scenario: McScenario,
    world: Arc<World>,
    nodes: Vec<PeerNode>,
    alive: Vec<bool>,
    wire: Vec<InFlight>,
    timers: Vec<TimerEntry>,
    clock_ms: f64,
    /// Per-base occurrence counters for action-key disambiguation.
    /// Excluded from the digest: merged states replay from the root, so
    /// key naming is always consistent with the replayed path.
    occ: BTreeMap<u64, u64>,
    next_seq: u64,
    drops_used: u32,
    dups_used: u32,
    crashes_used: u32,
    started: bool,
    sent_to_dead: u64,
    setups: Vec<SetupResult>,
    reports: Vec<StreamReport>,
    /// Ghost: the path each `(session, backup_idx)` maintenance probe
    /// walks. Slots are stable, so this must never change — and a
    /// credited ack must resolve to exactly this path.
    ghost_paths: BTreeMap<(u64, usize), Vec<PeerId>>,
    ghost_violation: Option<String>,
}

impl CheckedWorld {
    /// Builds the scenario's world and kicks off its request: a
    /// composition from cold, or a pre-established stream.
    pub fn new(scenario: McScenario) -> CheckedWorld {
        let cfg = ClusterConfig {
            peers: scenario.peers,
            seed: scenario.seed,
            failover_timeout_ms: scenario.failover_timeout_ms,
            maintenance_period_ms: scenario.maintenance_period_ms,
            ..ClusterConfig::default()
        };
        let world = Arc::new(World::build(cfg));
        let nodes: Vec<PeerNode> = world
            .seeded_stores()
            .into_iter()
            .enumerate()
            .map(|(i, st)| PeerNode::new(PeerId::new(i as u64), world.clone(), st))
            .collect();
        let alive = vec![true; scenario.peers];
        let mut cw = CheckedWorld {
            world,
            nodes,
            alive,
            wire: Vec::new(),
            timers: Vec::new(),
            clock_ms: 0.0,
            occ: BTreeMap::new(),
            next_seq: 0,
            drops_used: 0,
            dups_used: 0,
            crashes_used: 0,
            started: false,
            sent_to_dead: 0,
            setups: Vec::new(),
            reports: Vec::new(),
            ghost_paths: BTreeMap::new(),
            ghost_violation: None,
            scenario,
        };
        let sc = cw.scenario.clone();
        let mut out = Outbox::at(0.0);
        if sc.pre_established {
            let mut paths = sc.service_paths(&cw.world);
            assert!(!paths.is_empty(), "no hosts for the scenario chain");
            let primary = paths.remove(0);
            cw.nodes[sc.source.index()].start_stream(
                1,
                primary,
                sc.chain.clone(),
                paths,
                sc.dest,
                sc.stream_frames,
                sc.frame_interval_ms,
                (4, 4),
                &mut out,
            );
            cw.started = true;
        } else {
            cw.nodes[sc.source.index()].compose(1, sc.dest, sc.chain.clone(), sc.budget, &mut out);
        }
        cw.drain(sc.source, out);
        cw
    }

    /// Completed driver setup results captured so far.
    pub fn setup_results(&self) -> &[SetupResult] {
        &self.setups
    }

    /// Completed stream reports captured so far.
    pub fn stream_reports(&self) -> &[StreamReport] {
        &self.reports
    }

    /// Injects an adversarial wire message (as if a rogue peer sent it)
    /// and returns its action key. Exercises handler paths only
    /// reachable over the wire — e.g. a zero-function probe.
    pub fn inject_wire(&mut self, from: PeerId, to: PeerId, msg: WireMsg) -> u64 {
        let base = mix(mix(mix(1, from.raw()), to.raw()), delay_salt(&msg));
        let key = self.next_key(base);
        let seq = self.bump_seq();
        self.wire.push(InFlight { key, seq, from, to, msg });
        key
    }

    fn next_key(&mut self, base: u64) -> u64 {
        let occ = self.occ.entry(base).or_insert(0);
        let key = mix(base, *occ);
        *occ += 1;
        key
    }

    fn bump_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Files one drained outbox into the virtual network: wire sends
    /// become in-flight messages (sends to dead peers vanish, as the
    /// cluster's event loop would lose them), timers become pending
    /// entries due relative to the current clock, and driver results are
    /// recorded for the invariant checks. Maintenance probes leaving the
    /// streaming source also update the ghost path table.
    fn drain(&mut self, from: PeerId, out: Outbox) {
        self.setups.extend(out.setups);
        self.reports.extend(out.reports);
        for (to, msg, _delay) in out.sent {
            if let WireMsg::PathProbe { session, path, idx: 0, origin, backup_idx } = &msg {
                if *origin == from.raw() {
                    let path: Vec<PeerId> = path.iter().map(|&p| PeerId::new(p)).collect();
                    self.ghost_check_probe_send(from, *session, *backup_idx as usize, &path);
                }
            }
            if !self.alive[to.index()] {
                self.sent_to_dead += 1;
                continue;
            }
            let base = mix(mix(mix(1, from.raw()), to.raw()), delay_salt(&msg));
            let key = self.next_key(base);
            let seq = self.bump_seq();
            self.wire.push(InFlight { key, seq, from, to, msg });
        }
        for (timer, delay) in out.timers {
            let base = mix(mix(2, from.raw()), timer_salt(&timer));
            let key = self.next_key(base);
            let due_ms = self.clock_ms + delay;
            self.timers.push(TimerEntry { key, peer: from, due_ms, timer });
        }
    }

    /// Ghost check at maintenance-probe send time: the probed slot must
    /// be a held-in-reserve backup (not consumed, not active), and its
    /// path must match every earlier probe of the same backup — slots
    /// are stable identities.
    fn ghost_check_probe_send(
        &mut self,
        source: PeerId,
        session: u64,
        backup_idx: usize,
        path: &[PeerId],
    ) {
        let Some(snap) = self.nodes[source.index()].stream_snapshot(session) else {
            return;
        };
        let slot = backup_idx + 1;
        if slot >= snap.paths.len() || snap.consumed[slot] || slot == snap.active {
            self.ghost_violation = Some(format!(
                "session {session}: maintenance probes backup {backup_idx} but slot {slot} \
                 is consumed, active, or out of range"
            ));
            return;
        }
        if snap.paths[slot] != path {
            self.ghost_violation = Some(format!(
                "session {session}: maintenance probe for backup {backup_idx} walks a path \
                 that is not slot {slot}'s path"
            ));
            return;
        }
        match self.ghost_paths.get(&(session, backup_idx)) {
            Some(prev) if prev != path => {
                self.ghost_violation = Some(format!(
                    "session {session}: backup {backup_idx} probed along a different path \
                     than an earlier round — slot identity drifted"
                ));
            }
            Some(_) => {}
            None => {
                self.ghost_paths.insert((session, backup_idx), path.to_vec());
            }
        }
    }

    /// Delivers `input` to `to`, running the ghost checks that bracket the
    /// two handlers the stable-slot refactor protects: crediting a
    /// maintenance ack, and choosing a failover target.
    fn deliver(&mut self, to: PeerId, input: Input) {
        let ack_pre = match &input {
            Input::Wire(WireMsg::PathProbeAck { session, backup_idx }) => self.nodes[to.index()]
                .stream_snapshot(*session)
                .map(|s| (*session, *backup_idx as usize, s)),
            _ => None,
        };
        let switch_pre = match &input {
            Input::Timer(Timer::Stream { session }) => {
                self.nodes[to.index()].stream_snapshot(*session).map(|s| (*session, s))
            }
            _ => None,
        };
        let mut out = Outbox::at(self.clock_ms);
        match input {
            Input::Wire(msg) => self.nodes[to.index()].handle(msg, &mut out),
            Input::Timer(timer) => self.nodes[to.index()].on_timer(timer, &mut out),
        }
        if let Some((session, bi, pre)) = ack_pre {
            if let Some(post) = self.nodes[to.index()].stream_snapshot(session) {
                let credited =
                    bi < post.backup_alive.len() && post.backup_alive[bi] && !pre.backup_alive[bi];
                if credited {
                    let slot = bi + 1;
                    if post.consumed[slot] || post.active == slot {
                        self.ghost_violation = Some(format!(
                            "session {session}: maintenance ack credited backup {bi} but \
                             slot {slot} is consumed or active"
                        ));
                    } else if let Some(walked) = self.ghost_paths.get(&(session, bi)) {
                        if *walked != post.paths[slot] {
                            self.ghost_violation = Some(format!(
                                "session {session}: stale maintenance ack credited to \
                                 backup {bi}, whose slot no longer holds the path the \
                                 probe walked"
                            ));
                        }
                    }
                }
            }
        }
        if let Some((session, pre)) = switch_pre {
            if let Some(post) = self.nodes[to.index()].stream_snapshot(session) {
                if post.switches > pre.switches {
                    let had_alive = (1..pre.paths.len())
                        .any(|s| s != pre.active && !pre.consumed[s] && pre.backup_alive[s - 1]);
                    let chose_alive = post.active >= 1
                        && !pre.consumed[post.active]
                        && pre.backup_alive[post.active - 1];
                    if had_alive && !chose_alive {
                        self.ghost_violation = Some(format!(
                            "session {session}: failover chose slot {} while a \
                             maintenance-alive backup existed",
                            post.active
                        ));
                    }
                }
            }
        }
        self.drain(to, out);
    }

    /// Starts streaming over the first successful captured setup.
    fn start_stream_from_setup(&mut self) -> bool {
        let Some(s) = self.setups.iter().find(|s| s.ok).cloned() else {
            return false;
        };
        let sc = self.scenario.clone();
        let mut out = Outbox::at(self.clock_ms);
        self.nodes[sc.source.index()].start_stream(
            s.request,
            s.path,
            s.functions,
            s.backups,
            s.dest,
            sc.stream_frames,
            sc.frame_interval_ms,
            (4, 4),
            &mut out,
        );
        self.drain(sc.source, out);
        self.started = true;
        true
    }
}

impl ModelSystem for CheckedWorld {
    type Action = McAction;

    fn enabled(&self) -> Vec<McAction> {
        let mut acts = Vec::new();
        if self.scenario.net.reorder {
            for e in &self.wire {
                acts.push(McAction::Deliver(e.key));
            }
        } else {
            // FIFO per channel: only the oldest message of each
            // (from, to) pair is deliverable.
            let mut heads: BTreeMap<(u64, u64), (u64, u64)> = BTreeMap::new();
            for e in &self.wire {
                let ch = (e.from.raw(), e.to.raw());
                let cand = (e.seq, e.key);
                let head = heads.entry(ch).or_insert(cand);
                if cand.0 < head.0 {
                    *head = cand;
                }
            }
            for (_, (_, key)) in heads {
                acts.push(McAction::Deliver(key));
            }
        }
        if self.drops_used < self.scenario.net.drops {
            for e in &self.wire {
                if e.msg.droppable() {
                    acts.push(McAction::Drop(e.key));
                }
            }
        }
        if self.dups_used < self.scenario.net.dups {
            for e in &self.wire {
                if e.msg.droppable() {
                    acts.push(McAction::Duplicate(e.key));
                }
            }
        }
        // One timer per peer (its earliest), gated behind wire messages
        // bound for that peer unless the model races timers.
        let mut earliest: BTreeMap<u64, (f64, u64, u64)> = BTreeMap::new();
        for t in &self.timers {
            if !self.alive[t.peer.index()] {
                continue;
            }
            let cand = (t.due_ms, t.key, t.key);
            let e = earliest.entry(t.peer.raw()).or_insert(cand);
            if (cand.0, cand.1) < (e.0, e.1) {
                *e = cand;
            }
        }
        for (peer, (due, _, key)) in earliest {
            let blocked = !self.scenario.net.timer_race
                && self.wire.iter().any(|e| e.to.raw() == peer && msg_at(&e.msg) < due);
            if !blocked {
                acts.push(McAction::Timer(key));
            }
        }
        if self.crashes_used < self.scenario.net.crashes {
            for &p in &self.scenario.crashable {
                if self.alive[p.index()] {
                    acts.push(McAction::Crash(p.raw()));
                }
            }
        }
        if !self.started
            && self.scenario.stream_frames > 0
            && self.setups.iter().any(|s| s.ok)
        {
            acts.push(McAction::Start);
        }
        acts
    }

    fn apply(&mut self, action: &McAction) -> bool {
        match *action {
            McAction::Deliver(key) => {
                let Some(i) = self.wire.iter().position(|e| e.key == key) else {
                    return false;
                };
                let e = self.wire.remove(i);
                if !self.alive[e.to.index()] {
                    return false;
                }
                self.clock_ms = self.clock_ms.max(msg_at(&e.msg));
                self.deliver(e.to, Input::Wire(e.msg));
                true
            }
            McAction::Timer(key) => {
                let Some(i) = self.timers.iter().position(|t| t.key == key) else {
                    return false;
                };
                let t = self.timers.remove(i);
                if !self.alive[t.peer.index()] {
                    return false;
                }
                self.clock_ms = self.clock_ms.max(t.due_ms);
                self.deliver(t.peer, Input::Timer(t.timer));
                true
            }
            McAction::Drop(key) => {
                if self.drops_used >= self.scenario.net.drops {
                    return false;
                }
                let Some(i) =
                    self.wire.iter().position(|e| e.key == key && e.msg.droppable())
                else {
                    return false;
                };
                self.wire.remove(i);
                self.drops_used += 1;
                true
            }
            McAction::Duplicate(key) => {
                if self.dups_used >= self.scenario.net.dups {
                    return false;
                }
                let Some(i) =
                    self.wire.iter().position(|e| e.key == key && e.msg.droppable())
                else {
                    return false;
                };
                let (from, to, msg) =
                    (self.wire[i].from, self.wire[i].to, self.wire[i].msg.clone());
                let base = mix(mix(mix(1, from.raw()), to.raw()), delay_salt(&msg));
                let key = self.next_key(base);
                let seq = self.bump_seq();
                self.wire.push(InFlight { key, seq, from, to, msg });
                self.dups_used += 1;
                true
            }
            McAction::Crash(peer) => {
                let p = PeerId::new(peer);
                if p.index() >= self.alive.len() || !self.alive[p.index()] {
                    return false;
                }
                self.alive[p.index()] = false;
                self.wire.retain(|e| e.to != p);
                self.timers.retain(|t| t.peer != p);
                self.crashes_used += 1;
                true
            }
            McAction::Start => {
                if self.started || self.scenario.stream_frames == 0 {
                    return false;
                }
                self.start_stream_from_setup()
            }
        }
    }

    fn digest(&self) -> u64 {
        let mut h = mix(0x004d_4357_4f52_4c44, self.clock_ms.to_bits());
        for n in &self.nodes {
            h = mix(h, n.state_digest());
        }
        for &a in &self.alive {
            h = mix(h, a as u64);
        }
        let mut wire: Vec<(u64, u64)> = self.wire.iter().map(|e| (e.key, msg_digest(&e.msg))).collect();
        wire.sort_unstable();
        for (k, d) in wire {
            h = mix(h, k);
            h = mix(h, d);
        }
        let mut timers: Vec<(u64, u64, u64)> = self
            .timers
            .iter()
            .map(|t| (t.key, t.due_ms.to_bits(), timer_digest(&t.timer)))
            .collect();
        timers.sort_unstable();
        for (k, due, d) in timers {
            h = mix(h, k);
            h = mix(h, due);
            h = mix(h, d);
        }
        h = mix(h, self.drops_used as u64);
        h = mix(h, self.dups_used as u64);
        h = mix(h, self.crashes_used as u64);
        h = mix(h, self.started as u64);
        h = mix(h, self.sent_to_dead);
        for s in &self.setups {
            h = setup_digest(h, s);
        }
        for r in &self.reports {
            h = report_digest(h, r);
        }
        mix(h, self.ghost_violation.is_some() as u64)
    }

    fn check(&self) -> Result<(), String> {
        if let Some(v) = &self.ghost_violation {
            return Err(v.clone());
        }
        for n in &self.nodes {
            n.local_invariants()?;
        }
        let mut seen = BTreeSet::new();
        for s in &self.setups {
            if !seen.insert(s.request) {
                return Err(format!("request {}: duplicate setup result", s.request));
            }
            if s.discovery_ms < 0.0 || s.probing_ms < 0.0 || s.init_ms < 0.0 || s.total_ms < 0.0 {
                return Err(format!("request {}: negative setup phase time", s.request));
            }
            if !s.ok {
                continue;
            }
            if s.path.is_empty() || s.path.len() != s.functions.len() {
                return Err(format!("request {}: malformed ok setup path", s.request));
            }
            let check_path = |label: &str, path: &[PeerId]| -> Result<(), String> {
                let distinct: BTreeSet<u64> = path.iter().map(|p| p.raw()).collect();
                if distinct.len() != path.len() {
                    return Err(format!("request {}: repeated peer in {label}", s.request));
                }
                if path.contains(&s.dest) {
                    return Err(format!("request {}: destination inside {label}", s.request));
                }
                for (p, f) in path.iter().zip(&s.functions) {
                    if self.world.functions[p.index()] != *f {
                        return Err(format!(
                            "request {}: peer {} in {label} does not host {}",
                            s.request,
                            p.raw(),
                            f.name()
                        ));
                    }
                }
                Ok(())
            };
            check_path("path", &s.path)?;
            for b in &s.backups {
                if b.len() != s.path.len() {
                    return Err(format!("request {}: backup length mismatch", s.request));
                }
                if *b == s.path {
                    return Err(format!("request {}: backup equals the primary", s.request));
                }
                check_path("backup", b)?;
            }
        }
        let mut seen = BTreeSet::new();
        for r in &self.reports {
            if !seen.insert(r.session) {
                return Err(format!("session {}: duplicate stream report", r.session));
            }
            if r.delivered > r.sent {
                return Err(format!(
                    "session {}: report delivered {} exceeds sent {}",
                    r.session, r.delivered, r.sent
                ));
            }
        }
        Ok(())
    }

    fn check_terminal(&self) -> Result<(), String> {
        let lossless = self.drops_used == 0 && self.crashes_used == 0 && self.sent_to_dead == 0;
        if !self.scenario.pre_established && lossless {
            // No loss anywhere: composition must have completed, and
            // with every replica reachable it must have succeeded.
            match self.setups.iter().find(|s| s.request == 1) {
                None => return Err("request 1: composition never completed".into()),
                Some(s) if self.scenario.chain.is_empty() => {
                    // A zero-function chain is unsatisfiable by
                    // construction: the only correct outcome is a fast
                    // failure.
                    if s.ok {
                        return Err("request 1: zero-function chain composed".into());
                    }
                }
                Some(s) if !s.ok => {
                    return Err("request 1: composition failed without loss".into())
                }
                Some(_) => {}
            }
        }
        if self.started {
            let Some(r) = self.reports.first() else {
                return Err("stream started but no report at quiescence".into());
            };
            if lossless && (r.delivered != r.sent || !r.all_valid) {
                return Err(format!(
                    "lossless stream ended with {}/{} delivered (valid: {})",
                    r.delivered, r.sent, r.all_valid
                ));
            }
        }
        Ok(())
    }

    fn outcome(&self) -> u64 {
        let mut h = 0x4f55_5443u64;
        let mut setups: Vec<u64> = self.setups.iter().map(|s| setup_digest(0, s)).collect();
        setups.sort_unstable();
        for d in setups {
            h = mix(h, d);
        }
        let mut reports: Vec<u64> = self.reports.iter().map(|r| report_digest(0, r)).collect();
        reports.sort_unstable();
        for d in reports {
            h = mix(h, d);
        }
        h
    }

    fn encode(&self, action: &McAction) -> String {
        let wire_desc = |key: u64| {
            self.wire
                .iter()
                .find(|e| e.key == key)
                .map(|e| format!("{}:{}->{}", kind_name(&e.msg), e.from.raw(), e.to.raw()))
                .unwrap_or_else(|| "?".into())
        };
        match *action {
            McAction::Deliver(key) => format!("deliver:{}:{key:016x}", wire_desc(key)),
            McAction::Drop(key) => format!("drop:{}:{key:016x}", wire_desc(key)),
            McAction::Duplicate(key) => format!("dup:{}:{key:016x}", wire_desc(key)),
            McAction::Timer(key) => {
                let desc = self
                    .timers
                    .iter()
                    .find(|t| t.key == key)
                    .map(|t| format!("{}:{}", timer_name(&t.timer), t.peer.raw()))
                    .unwrap_or_else(|| "?".into());
                format!("timer:{desc}:{key:016x}")
            }
            McAction::Crash(peer) => format!("crash:{peer}"),
            McAction::Start => "start".into(),
        }
    }
}

/// Parses an encoded action back into an [`McAction`]. The middle
/// segments are informational; identity lives in the first token and
/// the final key.
pub fn decode_action(s: &str) -> Option<McAction> {
    let kind = s.split(':').next()?;
    let last = s.rsplit(':').next()?;
    let key = || u64::from_str_radix(last, 16).ok();
    match kind {
        "deliver" => Some(McAction::Deliver(key()?)),
        "timer" => Some(McAction::Timer(key()?)),
        "drop" => Some(McAction::Drop(key()?)),
        "dup" => Some(McAction::Duplicate(key()?)),
        "crash" => Some(McAction::Crash(last.parse().ok()?)),
        "start" => Some(McAction::Start),
        _ => None,
    }
}

/// Outcome of replaying an encoded schedule against a fresh scenario.
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// Actions that were enabled and applied.
    pub applied: usize,
    /// Actions skipped as stale or undecodable.
    pub skipped: usize,
    /// First invariant violation hit, if any (including the terminal
    /// checks when the replay ends quiescent).
    pub violation: Option<String>,
}

/// Replays an encoded schedule (the regression-test pin format) against
/// a fresh [`CheckedWorld`], checking every invariant along the way.
pub fn replay(scenario: &McScenario, schedule: &[&str]) -> ReplayOutcome {
    let mut sys = CheckedWorld::new(scenario.clone());
    let mut outcome = ReplayOutcome { applied: 0, skipped: 0, violation: None };
    if let Err(e) = sys.check() {
        outcome.violation = Some(e);
        return outcome;
    }
    for s in schedule {
        let Some(a) = decode_action(s) else {
            outcome.skipped += 1;
            continue;
        };
        if !sys.apply(&a) {
            outcome.skipped += 1;
            continue;
        }
        outcome.applied += 1;
        if let Err(e) = sys.check() {
            outcome.violation = Some(e);
            return outcome;
        }
    }
    if sys.enabled().is_empty() {
        if let Err(e) = sys.check_terminal() {
            outcome.violation = Some(e);
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use spidernet_sim::mc::{explore, random_walks, McConfig};

    #[test]
    fn setup_bfs_reorder_only_is_clean() {
        let root = CheckedWorld::new(McScenario::setup(NetModel::reorder_only()));
        let cfg = McConfig { depth: 6, max_states: 20_000, ..McConfig::default() };
        let rep = explore(|| root.clone(), &cfg);
        assert!(rep.violations.is_empty(), "violations: {:?}", rep.violations);
        assert!(rep.stats.states_explored > 10);
        assert!(rep.stats.dedup_hits > 0, "commuting deliveries must dedup");
    }

    #[test]
    fn stream_walks_under_full_adversary_are_clean_and_deterministic() {
        let root = CheckedWorld::new(McScenario::stream(NetModel::full(1, 1, 1)));
        let cfg = McConfig { walks: 3, walk_steps: 250, seed: 7, ..McConfig::default() };
        let a = random_walks(|| root.clone(), &cfg);
        let b = random_walks(|| root.clone(), &cfg);
        assert!(a.violations.is_empty(), "violations: {:?}", a.violations);
        assert_eq!(a.stats.states_explored, b.stats.states_explored);
        assert_eq!(a.stats.dedup_hits, b.stats.dedup_hits);
        assert_eq!(a.terminal_outcomes, b.terminal_outcomes);
    }

    #[test]
    fn replay_skips_stale_actions_instead_of_failing() {
        let sc = McScenario::setup(NetModel::reorder_only());
        let out = replay(&sc, &["deliver:?:0000000000000000", "bogus", "start"]);
        assert_eq!(out.applied, 0);
        assert_eq!(out.skipped, 3);
    }

    #[test]
    fn encoded_actions_decode_to_themselves() {
        let sys = CheckedWorld::new(McScenario::setup(NetModel::lossy(1, 1)));
        for a in sys.enabled() {
            let enc = sys.encode(&a);
            assert_eq!(decode_action(&enc), Some(a), "round-trip of {enc}");
        }
    }
}
