//! The transport-agnostic SpiderNet protocol engine.
//!
//! [`PeerNode`] holds one peer's complete protocol state — DHT shard,
//! composition jobs, destination-side probe collection, streaming
//! sessions with proactive failure recovery — and is driven entirely
//! through [`PeerNode::handle`] (peer frames), [`PeerNode::on_timer`]
//! (its own timers), and the driver commands ([`PeerNode::compose`],
//! [`PeerNode::start_stream`], or their control-frame form
//! [`PeerNode::control`]). It never touches a channel, a clock or a
//! socket: every call writes its effects into one [`Outbox`]. The
//! in-process event loop ([`crate::cluster`]) and each socket daemon's
//! loop ([`crate::net`]) queue its sends and timers on the simulator's
//! one event queue type ([`spidernet_sim::EventQueue`]), and the model
//! checker ([`crate::mc`]) explores them. Protocol logic exists exactly
//! once.
//!
//! Peers exchange [`WireMsg`] values everywhere — the in-process cluster
//! hands them over unencoded, the daemon encodes them onto TCP. A frame
//! that decodes cleanly can still be malformed (a peer id outside the
//! deployment, an index past its own list, a non-finite timestamp); the
//! engine checks every frame once at its entry and drops malformed ones
//! before any handler runs, so hostile input cannot panic a daemon.
//!
//! ## Deterministic model time
//!
//! WAN delays are *content-keyed* ([`WanModel::delay_keyed`]): the jitter
//! of each message is a pure function of `(seed, from, to, salt)`.
//! Messages carry an `at_ms` model timestamp accumulated hop by hop, and
//! every session-setup metric (discovery, probing, init, total) is
//! computed from these timestamps — never from a clock. For a fixed seed
//! the reported metrics are bit-identical across transports and runs.
//! Elapsed time ([`Outbox::now`]) is read only by the streaming
//! failover detector: the in-process cluster reports its event clock, a
//! daemon its wall clock over `time_scale`.
//!
//! The destination filters collected probes to a *model* sub-window
//! (half the collect window) before selecting, so a probe's membership in
//! the selection set depends on its deterministic model arrival, not on
//! how close to the collect deadline a daemon's transport delivered it.

use crate::media::{Frame, MediaFunction};
use crate::wan::WanModel;
use spidernet_dht::{NodeId, PastryNetwork};
use spidernet_sim::trace::{TraceBuffer, TraceEvent};
use spidernet_util::hash::function_key;
use spidernet_util::id::PeerId;
use spidernet_util::qos::QosVector;
use spidernet_util::res::ResourceVector;
use spidernet_util::rng::{splitmix64, Rng};
use spidernet_wire::{WireMsg, WireProbe, WireReplica, MAX_PIXEL_BYTES};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Message-level fault injection applied by the transport's network
/// layer, at the sender side.
///
/// Only peer-protocol frames ([`WireMsg::droppable`]) are affected;
/// control frames, driver commands, and timers always deliver. Each
/// droppable message is considered exactly once: survivors of the drop
/// roll are delivered with their extra jitter and never rolled again.
#[derive(Clone, Copy, Debug, Default)]
#[non_exhaustive]
pub struct NetFaultConfig {
    /// Probability a droppable message is silently lost.
    pub drop_prob: f64,
    /// Upper bound of uniformly-sampled extra delivery delay, model ms.
    pub extra_delay_ms: f64,
}

impl NetFaultConfig {
    /// A builder seeded with the defaults (no faults).
    pub fn builder() -> NetFaultConfigBuilder {
        NetFaultConfigBuilder { cfg: NetFaultConfig::default() }
    }

    /// True when either knob is set.
    pub fn is_active(&self) -> bool {
        self.drop_prob > 0.0 || self.extra_delay_ms > 0.0
    }
}

/// Builder for [`NetFaultConfig`] (the struct is `#[non_exhaustive]`, so
/// out-of-crate construction goes through here; both the in-process
/// cluster and the socket transports consume the resulting config
/// unchanged).
#[derive(Clone, Debug)]
pub struct NetFaultConfigBuilder {
    cfg: NetFaultConfig,
}

impl NetFaultConfigBuilder {
    /// Probability a droppable message is silently lost.
    pub fn drop_prob(mut self, p: f64) -> Self {
        self.cfg.drop_prob = p;
        self
    }

    /// Upper bound of uniformly-sampled extra delivery delay, model ms.
    pub fn extra_delay_ms(mut self, ms: f64) -> Self {
        self.cfg.extra_delay_ms = ms;
        self
    }

    /// Finalizes the config.
    pub fn build(self) -> NetFaultConfig {
        self.cfg
    }
}

/// What the fault injector decided for one outbound wire message.
pub(crate) enum Fault {
    /// Hand it on now.
    Deliver,
    /// Lost (counted in [`World::msgs_dropped`]).
    Drop,
    /// Hold it back this many more model ms, then deliver it without
    /// rolling again.
    Delay(f64),
}

/// The two-step fault rule, the one place a [`NetFaultConfig`] is applied:
/// the cluster's event loop and a daemon's outbound queue each roll every
/// wire message once its WAN delay has passed. A droppable frame
/// ([`WireMsg::droppable`]) is rolled for loss, and a survivor may draw
/// extra uniform delay. Everything else (and every message when the config
/// is inactive) delivers without touching `rng`. Callers must not roll a
/// message they re-queued for [`Fault::Delay`].
pub(crate) fn roll_faults(world: &World, msg: &WireMsg, rng: &mut Rng) -> Fault {
    let faults = world.cfg.faults;
    if !faults.is_active() || !msg.droppable() {
        return Fault::Deliver;
    }
    if faults.drop_prob > 0.0 && rng.gen::<f64>() < faults.drop_prob {
        world.msgs_dropped.fetch_add(1, Ordering::Relaxed);
        return Fault::Drop;
    }
    if faults.extra_delay_ms > 0.0 {
        return Fault::Delay(rng.gen::<f64>() * faults.extra_delay_ms);
    }
    Fault::Deliver
}

/// Cluster construction parameters, shared verbatim by both transports —
/// a socket deployment built from the same config and seed reproduces the
/// in-process cluster's topology, component placement, and model-time
/// behaviour exactly.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of peers (paper: 102 PlanetLab hosts).
    pub peers: usize,
    /// WAN jitter bound (multiplicative).
    pub jitter: f64,
    /// Master seed.
    pub seed: u64,
    /// Wall seconds per model second (0.02 = 50× compression). A daemon
    /// runs at this pace; the in-process cluster, which steps model time,
    /// uses it only to read its call timeouts as model time.
    pub time_scale: f64,
    /// Destination-side probe collection window, model ms.
    pub collect_window_ms: f64,
    /// Per-hop probe fan-out quota.
    pub quota: u32,
    /// A streaming source fails over when no delivery ack has arrived for
    /// this long (model ms). Must exceed the path round-trip time, or
    /// frames legitimately in flight look like loss.
    pub failover_timeout_ms: f64,
    /// Period of backup-path maintenance probing, model ms (0 disables).
    pub maintenance_period_ms: f64,
    /// Wall-deadline slack for destination probe collection, as a
    /// multiple of `collect_window_ms`. Purely a liveness knob — the
    /// model-time filter decides which probes count; this only bounds how
    /// long the destination waits for them to physically land. Must be
    /// ≥ 1.0: a deadline under the window itself would make the collected
    /// set scheduling-dependent ([`ClusterConfig::check`] rejects it).
    pub collect_deadline_slack: f64,
    /// Message-level loss and delay injection (off by default).
    pub faults: NetFaultConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            peers: 102,
            jitter: 0.3,
            seed: 0,
            time_scale: 0.02,
            collect_window_ms: 200.0,
            quota: 3,
            failover_timeout_ms: 400.0,
            maintenance_period_ms: 120.0,
            collect_deadline_slack: 3.0,
            faults: NetFaultConfig::default(),
        }
    }
}

impl ClusterConfig {
    /// Checks every setting a daemon turns into timers, delays, or fan-out
    /// before any of it runs. Rejects non-finite and negative values, and
    /// bounds the rest so every derived wall delay stays a valid
    /// [`std::time::Duration`]: model-ms settings at most
    /// [`MAX_FRAME_INTERVAL_MS`] (one hour), `time_scale` at most 100 wall
    /// seconds per model second, `jitter` at most 10, and
    /// `collect_deadline_slack` in [1, 100]. The time scale, collect window
    /// and failover timeout must be positive, `quota` at least 1, and the
    /// drop probability in [0, 1]. The error (kind
    /// [`std::io::ErrorKind::InvalidInput`]) names the first offending
    /// setting.
    pub fn check(&self) -> std::io::Result<()> {
        let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, msg);
        let ranges = [
            ("time_scale", self.time_scale, 0.0..=100.0),
            ("jitter", self.jitter, 0.0..=10.0),
            ("collect_window_ms", self.collect_window_ms, 0.0..=MAX_FRAME_INTERVAL_MS),
            ("collect_deadline_slack", self.collect_deadline_slack, 1.0..=100.0),
            ("failover_timeout_ms", self.failover_timeout_ms, 0.0..=MAX_FRAME_INTERVAL_MS),
            ("maintenance_period_ms", self.maintenance_period_ms, 0.0..=MAX_FRAME_INTERVAL_MS),
            ("drop_prob", self.faults.drop_prob, 0.0..=1.0),
            ("extra_delay_ms", self.faults.extra_delay_ms, 0.0..=MAX_FRAME_INTERVAL_MS),
        ];
        for (name, v, range) in ranges {
            if !range.contains(&v) {
                return Err(invalid(format!(
                    "{name} must be in [{}, {}], got {v}",
                    range.start(),
                    range.end()
                )));
            }
        }
        // Zero would stop the clock, collect no probe, or fail over on
        // every frame.
        for (name, v) in [
            ("time_scale", self.time_scale),
            ("collect_window_ms", self.collect_window_ms),
            ("failover_timeout_ms", self.failover_timeout_ms),
        ] {
            if v == 0.0 {
                return Err(invalid(format!("{name} must be positive")));
            }
        }
        if self.quota == 0 {
            return Err(invalid("quota must be at least 1".into()));
        }
        Ok(())
    }
}

/// Result of one session setup (all times in model ms, derived from
/// accumulated message timestamps — deterministic for a fixed seed).
#[derive(Clone, Debug)]
pub struct SetupResult {
    /// Request id (doubles as the session id).
    pub request: u64,
    /// Whether a composition was established.
    pub ok: bool,
    /// The application receiver.
    pub dest: PeerId,
    /// Selected component path (composition order).
    pub path: Vec<PeerId>,
    /// Functions along the path.
    pub functions: Vec<MediaFunction>,
    /// Alternative complete paths found by probing (failover backups).
    pub backups: Vec<Vec<PeerId>>,
    /// Decentralized service discovery time.
    pub discovery_ms: f64,
    /// Probing + destination selection time.
    pub probing_ms: f64,
    /// Session initialization (reverse-ack) time.
    pub init_ms: f64,
    /// End-to-end setup time.
    pub total_ms: f64,
}

/// Final report of one streaming session.
#[derive(Clone, Debug)]
pub struct StreamReport {
    /// Session id.
    pub session: u64,
    /// Frames emitted by the source.
    pub sent: u64,
    /// Frames acknowledged by the destination.
    pub delivered: u64,
    /// Whether every delivered frame matched the expected transform chain.
    pub all_valid: bool,
    /// Path failovers performed.
    pub switches: u32,
    /// Low-rate maintenance probes sent along backup paths.
    pub maintenance_probes: u64,
    /// The path in use when the stream ended.
    pub final_path: Vec<PeerId>,
    /// Order-independent digest over all delivered frame pixels (sum of
    /// per-frame digests) — equal across transports when the same frames
    /// arrive.
    pub delivery_digest: u64,
}

/// Read-only view of one streaming session's failover state, exposed for
/// external checkers (the model checker's ghost invariants inspect the
/// slot table around every switchover).
#[derive(Clone, Debug)]
pub struct StreamSnapshot {
    /// The stable slot table: slot 0 the original primary, slots 1.. the
    /// backups in preference order.
    pub paths: Vec<Vec<PeerId>>,
    /// Slot currently serving frames.
    pub active: usize,
    /// Slots abandoned by failover.
    pub consumed: Vec<bool>,
    /// Per-backup maintenance verdict (`backup_alive[i]` ↔ slot `i+1`).
    pub backup_alive: Vec<bool>,
    /// Failovers performed so far.
    pub switches: u32,
    /// Frames emitted so far.
    pub sent: u64,
    /// Frames acknowledged so far.
    pub delivered: u64,
    /// True once the source stopped emitting and is draining acks.
    pub draining: bool,
}

/// Everything all peers of one deployment agree on: the latency model,
/// the Pastry overlay, component placement, configuration, and the shared
/// counters/trace. Built deterministically from a [`ClusterConfig`] —
/// every process of a socket deployment reconstructs an identical World
/// from the same config.
pub struct World {
    /// The wide-area latency model.
    pub wan: WanModel,
    /// The structured overlay used for discovery routing.
    pub pastry: PastryNetwork,
    /// Deployment configuration.
    pub cfg: ClusterConfig,
    /// Media component hosted by each peer (index = peer).
    pub functions: Vec<MediaFunction>,
    /// Total BCP probe transmissions.
    pub probes_sent: AtomicU64,
    /// Total DHT routing steps.
    pub dht_hops: AtomicU64,
    /// Messages lost: droppable messages dropped by fault injection, plus
    /// media frames a daemon shed to a full outbound queue.
    pub msgs_dropped: AtomicU64,
    /// Deployment-wide event ring. Recorded through a mutex — protocol
    /// events are orders of magnitude rarer than frames, and with the
    /// `trace` feature off the buffer is a ZST no-op anyway.
    pub trace: Mutex<TraceBuffer>,
    /// Probe transmissions attributed per composition session.
    pub session_probes: Mutex<BTreeMap<u64, u64>>,
}

impl World {
    /// Builds the deployment environment: WAN model, Pastry overlay over
    /// it, and round-robin component placement (at 102 peers that is the
    /// paper's ≈17 replicas per function).
    pub fn build(cfg: ClusterConfig) -> World {
        let peers: Vec<PeerId> = (0..cfg.peers as u64).map(PeerId::new).collect();
        let wan = WanModel::new(cfg.peers, cfg.jitter, cfg.seed);
        let mut prox = |a: PeerId, b: PeerId| wan.base_ms(a, b);
        let pastry = PastryNetwork::build(&peers, &mut prox);
        let functions: Vec<MediaFunction> =
            (0..cfg.peers).map(|i| MediaFunction::ALL[i % MediaFunction::ALL.len()]).collect();
        World {
            wan,
            pastry,
            cfg,
            functions,
            probes_sent: AtomicU64::new(0),
            dht_hops: AtomicU64::new(0),
            msgs_dropped: AtomicU64::new(0),
            trace: Mutex::new(TraceBuffer::new()),
            session_probes: Mutex::new(BTreeMap::new()),
        }
    }

    /// Startup DHT shards with every component pre-registered at its
    /// key's root — the in-process cluster's shortcut past the wire
    /// bootstrap (socket daemons instead register via
    /// [`WireMsg::Register`]).
    pub fn seeded_stores(&self) -> Vec<HashMap<u128, Vec<WireReplica>>> {
        let mut stores: Vec<HashMap<u128, Vec<WireReplica>>> =
            vec![HashMap::new(); self.cfg.peers];
        for (i, &f) in self.functions.iter().enumerate() {
            let key = function_key(f.name());
            let root = self.pastry.responsible(NodeId::new(key)).expect("non-empty ring");
            stores[root.index()]
                .entry(key)
                .or_default()
                .push(WireReplica { peer: i as u64, function: f.code() });
        }
        stores
    }

    /// The deployment-wide counters `(probes_sent, dht_hops,
    /// msgs_dropped)`.
    pub fn counters(&self) -> (u64, u64, u64) {
        let read = |c: &AtomicU64| c.load(Ordering::Relaxed);
        (read(&self.probes_sent), read(&self.dht_hops), read(&self.msgs_dropped))
    }

    /// Records one trace event.
    pub fn record(&self, ev: TraceEvent) {
        self.trace.lock().unwrap().record(ev);
    }

    fn count_probe(&self, session: u64, depth: u16, budget: u32) {
        self.probes_sent.fetch_add(1, Ordering::Relaxed);
        *self.session_probes.lock().unwrap().entry(session).or_insert(0) += 1;
        self.record(TraceEvent::ProbeSpawned { session, depth, budget });
    }
}

/// A timer a peer schedules for itself through [`Outbox::timers`]; the
/// transport hands it back to [`PeerNode::on_timer`] after its delay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Timer {
    /// Destination-side probe collection deadline.
    Collect {
        /// The request whose probes are due for selection.
        request: u64,
    },
    /// Emit the next stream frame (or finish draining the stream).
    Stream {
        /// The session to advance.
        session: u64,
    },
    /// Run one backup-maintenance round.
    Maintenance {
        /// The streaming session to maintain.
        session: u64,
    },
}

/// Everything one engine call emitted, captured rather than shipped:
/// the in-process cluster and a daemon queue its sends and timers as
/// events, and hand its results to whoever asked; the model checker
/// ([`crate::mc`]) turns the captures into explorable actions.
#[derive(Clone, Debug, Default)]
pub struct Outbox {
    /// Model ms the call runs at, ms since the deployment started: the
    /// cluster's event clock, or a daemon's wall clock over `time_scale`.
    /// Read only by the streaming failover detector.
    pub now: f64,
    /// Wire sends `(to, msg, delay_ms)`: `msg` is due at `to` after
    /// `delay_ms` of model time (the content-keyed WAN delay, already
    /// accumulated into the message's `at_ms`).
    pub sent: Vec<(PeerId, WireMsg, f64)>,
    /// Timers `(timer, delay_ms)` due back at this same peer. Timers are
    /// local bookkeeping: never dropped, never jittered.
    pub timers: Vec<(Timer, f64)>,
    /// Finished setup results, for the cluster's caller or the control
    /// connection that asked.
    pub setups: Vec<SetupResult>,
    /// Finished stream reports, likewise.
    pub reports: Vec<StreamReport>,
}

impl Outbox {
    /// An empty outbox whose clock reads `now`.
    pub fn at(now: f64) -> Outbox {
        Outbox { now, ..Outbox::default() }
    }
}

#[derive(Clone)]
struct ComposeJob {
    dest: PeerId,
    chain: Vec<MediaFunction>,
    budget: u32,
    /// Per-position replica list and the model time its reply arrived.
    replica_lists: Vec<Option<(Vec<WireReplica>, f64)>>,
    /// Model time discovery finished (latest reply), once all are in.
    discovery_done_ms: Option<f64>,
}

#[derive(Clone)]
struct DestJob {
    source: u64,
    /// Function codes of the requested chain.
    chain: Vec<u8>,
    /// Collected complete probes, keyed by model arrival time.
    probes: Vec<(f64, WireProbe)>,
    timer_armed: bool,
}

#[derive(Clone)]
enum StreamPhase {
    Sending,
    Draining,
}

#[derive(Clone)]
struct StreamJob {
    /// Every path known for the session in one *stable* slot list:
    /// slot 0 is the original primary, slots 1.. the backups in
    /// preference order. Slots never move or disappear — maintenance
    /// probes and their acks identify a backup by `backup_idx` (slot
    /// `backup_idx + 1`), so an ack that raced a failover must still
    /// resolve to the path it actually walked. Failover switches
    /// `active` and marks the abandoned slot `consumed` instead of
    /// reshuffling the list.
    paths: Vec<Vec<PeerId>>,
    /// Slot currently serving frames.
    active: usize,
    /// Slots abandoned by a failover; never served or probed again.
    consumed: Vec<bool>,
    /// `backup_alive[i]` mirrors slot `i+1`'s last maintenance verdict
    /// (true until proven dead).
    backup_alive: Vec<bool>,
    /// Maintenance round bookkeeping; an ack for round r-1 arriving late
    /// still counts (liveness, not freshness).
    maintenance_pending: Vec<bool>,
    maintenance_messages: u64,
    /// Function codes along every path.
    functions: Vec<u8>,
    dest: PeerId,
    remaining: u64,
    interval_ms: f64,
    dims: (usize, usize),
    seq: u64,
    delivered: u64,
    /// Frame seqs already credited by a delivery ack. A duplicated or
    /// replayed `FrameAck` (transport retry, model-checker duplication)
    /// must count once, or `delivered` overruns `sent` and the delivery
    /// digest double-folds.
    acked: HashSet<u64>,
    all_valid: bool,
    delivery_digest: u64,
    /// Model ms ([`Outbox::now`]) of the last sign of progress — the
    /// failover detector's baseline.
    last_progress_ms: f64,
    switches: u32,
    phase: StreamPhase,
}

/// One peer's protocol state, transport-agnostic. `Clone` exists for the
/// model checker ([`crate::mc`]), which forks a peer's state at every
/// explored branch; the shared [`World`] stays one `Arc`.
#[derive(Clone)]
pub struct PeerNode {
    /// This peer.
    pub me: PeerId,
    /// The shared deployment environment.
    pub world: Arc<World>,
    /// This peer's DHT shard: key → advertised replicas.
    pub store: HashMap<u128, Vec<WireReplica>>,
    compose_jobs: HashMap<u64, ComposeJob>,
    dest_jobs: HashMap<u64, DestJob>,
    done_requests: HashSet<u64>,
    stream_jobs: HashMap<u64, StreamJob>,
}

impl PeerNode {
    /// A peer with the given starting DHT shard (empty for socket daemons,
    /// pre-seeded for the in-process cluster).
    pub fn new(me: PeerId, world: Arc<World>, store: HashMap<u128, Vec<WireReplica>>) -> PeerNode {
        PeerNode {
            me,
            world,
            store,
            compose_jobs: HashMap::new(),
            dest_jobs: HashMap::new(),
            done_requests: HashSet::new(),
            stream_jobs: HashMap::new(),
        }
    }

    /// Entries currently stored in this peer's DHT shard.
    pub fn store_entries(&self) -> u64 {
        self.store.values().map(|v| v.len() as u64).sum()
    }

    /// Sends `msg` to `to` with the content-keyed WAN delay, accumulating
    /// the delay into the message's model timestamp.
    fn send(&mut self, to: PeerId, mut msg: WireMsg, out: &mut Outbox) {
        let d = self.world.wan.delay_keyed(self.me, to, delay_salt(&msg));
        if let Some(at) = at_ms_mut(&mut msg) {
            *at += d;
        }
        out.sent.push((to, msg, d));
    }

    /// Advertises this peer's own component into the DHT over the wire —
    /// the socket daemon's bootstrap registration. The in-process cluster
    /// doesn't call this (its shards are pre-seeded).
    pub fn announce(&mut self, out: &mut Outbox) {
        let f = self.world.functions[self.me.index()];
        let key = function_key(f.name());
        let replica = WireReplica { peer: self.me.raw(), function: f.code() };
        let qos = QosVector::delay_loss(f.processing_ms(), 0.0);
        let res = ResourceVector::new(1.0, 1.0);
        self.route_register(key, replica, qos, res, 0, out);
    }

    /// Drives the engine with one delivered peer frame. Malformed frames,
    /// handshakes, and control frames are dropped without effect.
    pub fn handle(&mut self, msg: WireMsg, out: &mut Outbox) {
        if !well_formed(&msg, self.world.cfg.peers as u64) {
            return;
        }
        match msg {
            WireMsg::DhtLookup { query, key, origin, hops, at_ms } => {
                self.route_dht(query, key, origin, hops, at_ms, out)
            }
            WireMsg::DhtReply { query, metas, at_ms } => self.on_dht_reply(query, metas, at_ms, out),
            WireMsg::Register { key, replica, qos, res, hops } => {
                self.route_register(key, replica, qos, res, hops, out)
            }
            WireMsg::Probe(p) => self.on_probe(p, out),
            WireMsg::SetupAck { session, path, functions, idx, source, backups, selected_ms, at_ms } => {
                if idx == u32::MAX {
                    self.on_compose_completion(session, path, functions, backups, selected_ms, at_ms, out)
                } else {
                    self.on_setup_ack(session, path, functions, idx, source, backups, selected_ms, at_ms, out)
                }
            }
            WireMsg::PathProbe { session, path, idx, origin, backup_idx } => {
                self.on_path_probe(session, path, idx, origin, backup_idx, out)
            }
            WireMsg::PathProbeAck { session, backup_idx } => {
                if let Some(job) = self.stream_jobs.get_mut(&session) {
                    // Slots are stable, so `backup_idx` always names the
                    // path the probe actually walked. Acks for a consumed
                    // slot (the probe raced a failover) or the now-active
                    // slot carry no maintenance information — crediting
                    // them would mark the wrong path alive.
                    let bi = backup_idx as usize;
                    let slot = bi + 1;
                    if slot < job.paths.len() && !job.consumed[slot] && slot != job.active {
                        job.backup_alive[bi] = true;
                        job.maintenance_pending[bi] = false;
                    }
                }
            }
            WireMsg::StreamFrame {
                session,
                path,
                functions,
                idx,
                dest,
                source,
                orig_w,
                orig_h,
                frame,
                at_ms,
            } => self.on_frame(
                session,
                path,
                functions,
                idx as usize,
                dest,
                source,
                (orig_w as usize, orig_h as usize),
                frame.into(),
                at_ms,
                out,
            ),
            WireMsg::FrameAck { session, seq, valid, digest, at_ms: _ } => {
                let now = out.now;
                if let Some(job) = self.stream_jobs.get_mut(&session) {
                    // Credit each frame seq exactly once: a duplicated ack
                    // must not push `delivered` past `sent` or double-fold
                    // the delivery digest. Any ack — even a duplicate —
                    // still counts as path progress for the failover
                    // detector.
                    if seq > 0 && seq <= job.seq && job.acked.insert(seq) {
                        job.delivered += 1;
                        job.all_valid &= valid;
                        job.delivery_digest = job.delivery_digest.wrapping_add(digest);
                    }
                    job.last_progress_ms = now;
                }
            }
            _ => {}
        }
    }

    /// Fires one of this peer's own timers.
    pub fn on_timer(&mut self, timer: Timer, out: &mut Outbox) {
        match timer {
            Timer::Collect { request } => self.on_collect(request, out),
            Timer::Stream { session } => self.on_stream_timer(session, out),
            Timer::Maintenance { session } => self.on_maintenance_timer(session, out),
        }
    }

    /// Runs a control command in its wire form: `CtrlCompose` starts a
    /// composition, `CtrlStream` a streaming session. Returns false, having
    /// done nothing, for any other frame or a malformed command.
    pub fn control(&mut self, cmd: WireMsg, out: &mut Outbox) -> bool {
        if !well_formed(&cmd, self.world.cfg.peers as u64) {
            return false;
        }
        match cmd {
            WireMsg::CtrlCompose { request, dest, chain, budget } => {
                let chain = chain.into_iter().map(function).collect();
                self.compose(request, PeerId::new(dest), chain, budget, out);
            }
            WireMsg::CtrlStream {
                session,
                path,
                functions,
                backups,
                dest,
                frames,
                interval_ms,
                width,
                height,
            } => self.start_stream(
                session,
                peers(&path),
                functions.into_iter().map(function).collect(),
                backups.iter().map(|b| peers(b)).collect(),
                PeerId::new(dest),
                frames,
                interval_ms,
                (width as usize, height as usize),
                out,
            ),
            _ => return false,
        }
        true
    }

    // --- discovery --------------------------------------------------

    fn route_dht(
        &mut self,
        query: u64,
        key: u128,
        origin: u64,
        hops: u32,
        at_ms: f64,
        out: &mut Outbox,
    ) {
        self.world.dht_hops.fetch_add(1, Ordering::Relaxed);
        match self.world.pastry.next_hop_from(self.me, NodeId::new(key)) {
            Some(Some(next)) => {
                let msg = WireMsg::DhtLookup { query, key, origin, hops: hops + 1, at_ms };
                self.send(next, msg, out);
            }
            _ => {
                // This peer is the key's root.
                self.world.record(TraceEvent::DhtLookup { hops });
                let metas = self.store.get(&key).cloned().unwrap_or_default();
                self.send(PeerId::new(origin), WireMsg::DhtReply { query, metas, at_ms }, out);
            }
        }
    }

    /// Routes a metadata registration toward the key's root; the root
    /// stores the advertisement in its shard.
    fn route_register(
        &mut self,
        key: u128,
        replica: WireReplica,
        qos: QosVector,
        res: ResourceVector,
        hops: u32,
        out: &mut Outbox,
    ) {
        self.world.dht_hops.fetch_add(1, Ordering::Relaxed);
        match self.world.pastry.next_hop_from(self.me, NodeId::new(key)) {
            Some(Some(next)) => {
                self.send(next, WireMsg::Register { key, replica, qos, res, hops: hops + 1 }, out);
            }
            _ => {
                let list = self.store.entry(key).or_default();
                if !list.contains(&replica) {
                    list.push(replica);
                    // Keep shard order deterministic regardless of the
                    // order registrations arrived over the wire.
                    list.sort_by_key(|m| m.peer);
                }
            }
        }
    }

    fn on_dht_reply(&mut self, query: u64, metas: Vec<WireReplica>, at_ms: f64, out: &mut Outbox) {
        let request = query / 64;
        let pos = (query % 64) as usize;
        let Some(job) = self.compose_jobs.get_mut(&request) else { return };
        if pos >= job.replica_lists.len() {
            return;
        }
        if job.replica_lists[pos].is_none() {
            job.replica_lists[pos] = Some((metas, at_ms));
            if job.replica_lists.iter().all(Option::is_some) {
                self.start_probing(request, out);
            }
        }
    }

    // --- composition (source side) ----------------------------------

    /// Starts a composition request: parallel DHT lookups, one per chain
    /// function; query ids encode the chain position. Model time for this
    /// request starts at 0 here.
    pub fn compose(
        &mut self,
        request: u64,
        dest: PeerId,
        chain: Vec<MediaFunction>,
        budget: u32,
        out: &mut Outbox,
    ) {
        let n = chain.len();
        assert!(n < 63, "query encoding supports chains up to 62 functions");
        self.compose_jobs.insert(
            request,
            ComposeJob { dest, chain: chain.clone(), budget, replica_lists: vec![None; n], discovery_done_ms: None },
        );
        if n == 0 || budget == 0 {
            // A zero-function chain sends no lookups, so no reply would
            // ever call `start_probing`; a zero budget lets no probe leave
            // the source, so none would ever reach the destination. Either
            // way the job would wedge forever: fail it immediately.
            self.finish_failure(request, out);
            return;
        }
        for (pos, f) in chain.iter().enumerate() {
            let key = function_key(f.name());
            self.route_dht(request * 64 + pos as u64, key, self.me.raw(), 0, 0.0, out);
        }
    }

    fn start_probing(&mut self, request: u64, out: &mut Outbox) {
        let (dest, chain, lists, budget, failed, discovery_done) = {
            let job = self.compose_jobs.get_mut(&request).expect("caller holds the job");
            // Discovery finishes when the slowest reply lands (model time).
            let discovery_done = job
                .replica_lists
                .iter()
                .map(|l| l.as_ref().expect("all present").1)
                .fold(0.0f64, f64::max);
            job.discovery_done_ms = Some(discovery_done);
            let lists: Vec<Vec<WireReplica>> = job
                .replica_lists
                .iter()
                .map(|l| l.as_ref().expect("all present").0.clone())
                .collect();
            let failed = lists.iter().any(Vec::is_empty);
            let chain = job.chain.iter().map(|f| f.code()).collect();
            (job.dest, chain, lists, job.budget, failed, discovery_done)
        };
        if failed {
            self.finish_failure(request, out);
            return;
        }
        self.spawn_probes(
            WireProbe {
                request,
                source: self.me.raw(),
                dest: dest.raw(),
                chain,
                replica_lists: lists,
                pos: 0,
                path: Vec::new(),
                budget,
                acc_qos: QosVector::zeros(2),
                at_ms: discovery_done,
            },
            out,
        );
    }

    fn finish_failure(&mut self, request: u64, out: &mut Outbox) {
        if let Some(job) = self.compose_jobs.remove(&request) {
            let discovery = job.discovery_done_ms.unwrap_or(0.0);
            out.setups.push(SetupResult {
                request,
                ok: false,
                dest: job.dest,
                path: Vec::new(),
                functions: job.chain,
                backups: Vec::new(),
                discovery_ms: discovery,
                probing_ms: 0.0,
                init_ms: 0.0,
                total_ms: discovery,
            });
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_compose_completion(
        &mut self,
        session: u64,
        path: Vec<u64>,
        functions: Vec<u8>,
        backups: Vec<Vec<u64>>,
        selected_ms: f64,
        at_ms: f64,
        out: &mut Outbox,
    ) {
        let Some(job) = self.compose_jobs.remove(&session) else { return };
        let discovery_end = job.discovery_done_ms.unwrap_or(0.0);
        let ok = !path.is_empty();
        out.setups.push(SetupResult {
            request: session,
            ok,
            dest: job.dest,
            path: peers(&path),
            functions: functions.into_iter().map(function).collect(),
            backups: backups.iter().map(|b| peers(b)).collect(),
            discovery_ms: discovery_end,
            probing_ms: if ok { selected_ms - discovery_end } else { 0.0 },
            init_ms: if ok { at_ms - selected_ms } else { 0.0 },
            total_ms: if ok { at_ms } else { discovery_end },
        });
    }

    // --- probing (all peers) ----------------------------------------

    /// Fans a probe out to the next chain position's candidates, or ships
    /// a completed probe to the destination.
    fn spawn_probes(&mut self, probe: WireProbe, out: &mut Outbox) {
        let pos = probe.pos as usize;
        if pos == probe.chain.len() {
            self.world.count_probe(probe.request, pos as u16, probe.budget);
            let dest = PeerId::new(probe.dest);
            self.send(dest, WireMsg::Probe(probe), out);
            return;
        }
        let mut candidates: Vec<WireReplica> = probe.replica_lists[pos]
            .iter()
            .copied()
            .filter(|m| !probe.path.contains(&m.peer) && m.peer != probe.dest)
            .collect();
        // Composite next-hop metric, runtime flavour: nearest first.
        let me = self.me;
        let base_ms = |m: &WireReplica| self.world.wan.base_ms(me, PeerId::new(m.peer));
        // total_cmp: a non-finite delay (impossible today, but NaN-safe by
        // construction) sorts last instead of panicking.
        candidates.sort_by(|a, b| base_ms(a).total_cmp(&base_ms(b)).then_with(|| a.peer.cmp(&b.peer)));
        let k = (probe.budget.min(self.world.cfg.quota) as usize).min(candidates.len());
        if k == 0 {
            return; // probe dies; the destination window handles silence
        }
        let child_budget = (probe.budget / k as u32).max(1);
        for meta in candidates.into_iter().take(k) {
            let mut child = probe.clone();
            child.pos = probe.pos + 1;
            child.path.push(meta.peer);
            child.budget = child_budget;
            let processing_ms = function(meta.function).processing_ms();
            child.acc_qos.accumulate(&QosVector::delay_loss(processing_ms, 0.0));
            self.world.count_probe(probe.request, pos as u16, child_budget);
            self.send(PeerId::new(meta.peer), WireMsg::Probe(child), out);
        }
    }

    fn on_probe(&mut self, probe: WireProbe, out: &mut Outbox) {
        if probe.pos as usize == probe.chain.len() && probe.dest == self.me.raw() {
            if self.done_requests.contains(&probe.request) {
                return; // stragglers after selection
            }
            let request = probe.request;
            let window = self.world.cfg.collect_window_ms;
            let job = self.dest_jobs.entry(request).or_insert_with(|| DestJob {
                source: probe.source,
                chain: probe.chain.clone(),
                probes: Vec::new(),
                timer_armed: false,
            });
            job.probes.push((probe.at_ms, probe));
            if !job.timer_armed {
                job.timer_armed = true;
                // Selection content is a pure function of the *eligible*
                // probes (model arrival within half a window of the
                // earliest — see `on_collect`), so the wall deadline is
                // free to fire late: it only has to fire after every
                // eligible probe has physically arrived. Arm it with
                // slack — under hundreds of concurrent composes,
                // transport queueing pushes wall arrivals well past the
                // scaled model timestamp, and a tight deadline would
                // make the collected set scheduling-dependent.
                let deadline = window * self.world.cfg.collect_deadline_slack;
                out.timers.push((Timer::Collect { request }, deadline));
            }
            return;
        }
        self.spawn_probes(probe, out);
    }

    fn on_collect(&mut self, request: u64, out: &mut Outbox) {
        let Some(job) = self.dest_jobs.remove(&request) else { return };
        self.done_requests.insert(request);
        if job.probes.is_empty() {
            self.send(
                PeerId::new(job.source),
                WireMsg::SetupAck {
                    session: request,
                    path: Vec::new(),
                    functions: job.chain,
                    idx: u32::MAX,
                    source: job.source,
                    backups: Vec::new(),
                    selected_ms: 0.0,
                    at_ms: 0.0,
                },
                out,
            );
            return;
        }
        // Selection is a pure function of the collected probes' model
        // arrival times: keep only probes within half the collect window
        // of the earliest (probes past that margin may or may not have
        // crossed the wall deadline, depending on transport noise — so
        // they never count), then pick the earliest, tie-broken by path.
        let mut probes = job.probes;
        let min_at = probes.iter().map(|(at, _)| *at).fold(f64::INFINITY, f64::min);
        let window = self.world.cfg.collect_window_ms;
        probes.retain(|(at, _)| *at <= min_at + window * 0.5);
        probes.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.path.cmp(&b.1.path)));
        let best = probes[0].1.clone();
        let mut backups: Vec<Vec<u64>> = Vec::new();
        for (_, p) in probes.iter().skip(1) {
            if p.path != best.path && !backups.contains(&p.path) {
                backups.push(p.path.clone());
            }
        }
        // The selection instant, in model time: the full collect window
        // after the first probe landed.
        let selected_ms = min_at + window;
        if best.path.is_empty() {
            // A zero-function probe (only constructible over the wire —
            // `compose` rejects empty chains) selects an empty path:
            // nothing to initialize, so complete straight back to the
            // source instead of indexing path[len-1] of nothing.
            self.send(
                PeerId::new(best.source),
                WireMsg::SetupAck {
                    session: request,
                    path: Vec::new(),
                    functions: best.chain,
                    idx: u32::MAX,
                    source: best.source,
                    backups: Vec::new(),
                    selected_ms,
                    at_ms: selected_ms,
                },
                out,
            );
            return;
        }
        let last = best.path.len() - 1;
        let to = PeerId::new(best.path[last]);
        self.send(
            to,
            WireMsg::SetupAck {
                session: request,
                path: best.path,
                functions: best.chain,
                idx: last as u32,
                source: best.source,
                backups,
                selected_ms,
                at_ms: selected_ms,
            },
            out,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn on_setup_ack(
        &mut self,
        session: u64,
        path: Vec<u64>,
        functions: Vec<u8>,
        idx: u32,
        source: u64,
        backups: Vec<Vec<u64>>,
        selected_ms: f64,
        at_ms: f64,
        out: &mut Outbox,
    ) {
        // Initialize the local component for this session (soft state made
        // firm), then keep walking toward the head of the path.
        let (to, next_idx) =
            if idx == 0 { (source, u32::MAX) } else { (path[idx as usize - 1], idx - 1) };
        self.send(
            PeerId::new(to),
            WireMsg::SetupAck { session, path, functions, idx: next_idx, source, backups, selected_ms, at_ms },
            out,
        );
    }

    // --- streaming ---------------------------------------------------

    /// Starts a streaming session over an established composition.
    #[allow(clippy::too_many_arguments)]
    pub fn start_stream(
        &mut self,
        session: u64,
        path: Vec<PeerId>,
        functions: Vec<MediaFunction>,
        backups: Vec<Vec<PeerId>>,
        dest: PeerId,
        frames: u64,
        interval_ms: f64,
        dims: (usize, usize),
        out: &mut Outbox,
    ) {
        let mut paths = vec![path];
        paths.extend(backups);
        let n_backups = paths.len() - 1;
        self.stream_jobs.insert(
            session,
            StreamJob {
                consumed: vec![false; paths.len()],
                paths,
                active: 0,
                backup_alive: vec![true; n_backups],
                maintenance_pending: vec![false; n_backups],
                maintenance_messages: 0,
                functions: functions.iter().map(|f| f.code()).collect(),
                dest,
                remaining: frames,
                interval_ms,
                dims,
                seq: 0,
                delivered: 0,
                acked: HashSet::new(),
                all_valid: true,
                delivery_digest: 0,
                last_progress_ms: out.now,
                switches: 0,
                phase: StreamPhase::Sending,
            },
        );
        out.timers.push((Timer::Stream { session }, 0.0));
        if self.world.cfg.maintenance_period_ms > 0.0 {
            out.timers.push((Timer::Maintenance { session }, self.world.cfg.maintenance_period_ms));
        }
    }

    fn on_stream_timer(&mut self, session: u64, out: &mut Outbox) {
        let Some(job) = self.stream_jobs.get_mut(&session) else { return };
        match job.phase {
            StreamPhase::Draining => {
                let job = self.stream_jobs.remove(&session).expect("present");
                out.reports.push(StreamReport {
                    session,
                    sent: job.seq,
                    delivered: job.delivered,
                    all_valid: job.all_valid,
                    switches: job.switches,
                    maintenance_probes: job.maintenance_messages,
                    final_path: job.paths.get(job.active).cloned().unwrap_or_default(),
                    delivery_digest: job.delivery_digest,
                });
            }
            StreamPhase::Sending => {
                // Failover: no delivery ack for longer than the timeout
                // while a backup exists. The baseline resets on switch so
                // one broken path triggers one switch, not a cascade.
                let now = out.now;
                let candidates: Vec<usize> = (0..job.paths.len())
                    .filter(|&s| s != job.active && !job.consumed[s])
                    .collect();
                if job.seq > 0
                    && now - job.last_progress_ms > self.world.cfg.failover_timeout_ms
                    && !candidates.is_empty()
                {
                    // Prefer the first backup slot the maintenance probes
                    // still believe alive; fall back to blind preference
                    // order otherwise. Slots are stable, so
                    // `backup_alive[s-1]` always describes `paths[s]`.
                    let choice = candidates
                        .iter()
                        .copied()
                        .find(|&s| s >= 1 && job.backup_alive[s - 1])
                        .unwrap_or(candidates[0]);
                    let from = job.paths[job.active].first().map(|p| p.raw()).unwrap_or(0);
                    let latency_ms = now - job.last_progress_ms;
                    job.consumed[job.active] = true;
                    job.active = choice;
                    job.switches += 1;
                    job.last_progress_ms = now;
                    let to = job.paths[job.active].first().map(|p| p.raw()).unwrap_or(0);
                    self.world.record(TraceEvent::BackupSwitch { session, from, to, latency_ms });
                }
                if job.remaining == 0 {
                    job.phase = StreamPhase::Draining;
                    let drain = job.interval_ms * 4.0 + 800.0;
                    out.timers.push((Timer::Stream { session }, drain));
                    return;
                }
                job.remaining -= 1;
                job.seq += 1;
                let frame = Frame::synthetic(job.dims.0, job.dims.1, job.seq);
                let path = &job.paths[job.active];
                let first = path[0];
                let msg = WireMsg::StreamFrame {
                    session,
                    path: path.iter().map(|p| p.raw()).collect(),
                    functions: job.functions.clone(),
                    idx: 0,
                    dest: job.dest.raw(),
                    source: self.me.raw(),
                    orig_w: job.dims.0 as u32,
                    orig_h: job.dims.1 as u32,
                    frame: frame.into(),
                    at_ms: 0.0,
                };
                let interval = job.interval_ms;
                self.send(first, msg, out);
                out.timers.push((Timer::Stream { session }, interval));
            }
        }
    }

    /// One maintenance round at the streaming source: probe every backup
    /// path; a backup whose previous probe never returned is marked dead.
    fn on_maintenance_timer(&mut self, session: u64, out: &mut Outbox) {
        let period = self.world.cfg.maintenance_period_ms;
        let Some(job) = self.stream_jobs.get_mut(&session) else { return };
        if matches!(job.phase, StreamPhase::Draining) {
            return; // stream ending: stop maintaining
        }
        let origin = self.me.raw();
        let mut sends: Vec<(PeerId, WireMsg)> = Vec::new();
        for bi in 0..job.backup_alive.len() {
            let slot = bi + 1;
            // Probe only slots still held in reserve: the active slot is
            // monitored by its own frame acks, consumed slots are gone.
            if slot == job.active || job.consumed[slot] {
                continue;
            }
            if job.maintenance_pending[bi] {
                // Last round's probe never came back: declare dead until a
                // late ack revives it.
                job.backup_alive[bi] = false;
            }
            job.maintenance_pending[bi] = true;
            job.maintenance_messages += 1;
            let path = &job.paths[slot];
            if let Some(&first) = path.first() {
                let path = path.iter().map(|p| p.raw()).collect();
                let backup_idx = bi as u32;
                sends.push((first, WireMsg::PathProbe { session, path, idx: 0, origin, backup_idx }));
            }
        }
        for (to, msg) in sends {
            self.send(to, msg, out);
        }
        out.timers.push((Timer::Maintenance { session }, period));
    }

    /// Forwards a maintenance probe along a backup path; the last hop
    /// returns the ack straight to the origin.
    fn on_path_probe(
        &mut self,
        session: u64,
        path: Vec<u64>,
        idx: u32,
        origin: u64,
        backup_idx: u32,
        out: &mut Outbox,
    ) {
        let next = idx as usize + 1;
        if next >= path.len() {
            self.send(PeerId::new(origin), WireMsg::PathProbeAck { session, backup_idx }, out);
        } else {
            let to = PeerId::new(path[next]);
            let idx = next as u32;
            self.send(to, WireMsg::PathProbe { session, path, idx, origin, backup_idx }, out);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_frame(
        &mut self,
        session: u64,
        path: Vec<u64>,
        functions: Vec<u8>,
        idx: usize,
        dest: u64,
        source: u64,
        orig_dims: (usize, usize),
        frame: Frame,
        at_ms: f64,
        out: &mut Outbox,
    ) {
        if idx >= path.len() {
            // Delivery: verify against the expected transform chain.
            let expected = functions.iter().fold(
                Frame::synthetic(orig_dims.0, orig_dims.1, frame.seq),
                |f, &code| function(code).apply(&f),
            );
            let valid = expected == frame;
            let seq = frame.seq;
            let digest = frame.digest();
            self.send(PeerId::new(source), WireMsg::FrameAck { session, seq, valid, digest, at_ms }, out);
            return;
        }
        // Apply this hop's transform and forward. `functions[idx]` is the
        // function of `path[idx]`; backup paths host the same function
        // sequence by construction.
        let out_frame = function(functions[idx]).apply(&frame);
        let next_idx = idx + 1;
        let to = if next_idx >= path.len() { dest } else { path[next_idx] };
        self.send(
            PeerId::new(to),
            WireMsg::StreamFrame {
                session,
                path,
                functions,
                idx: next_idx as u32,
                dest,
                source,
                orig_w: orig_dims.0 as u32,
                orig_h: orig_dims.1 as u32,
                frame: out_frame.into(),
                at_ms,
            },
            out,
        );
    }

    // --- model-checker seams ------------------------------------------

    /// Snapshot of one streaming session's failover state, or `None` when
    /// this peer isn't sourcing `session`.
    pub fn stream_snapshot(&self, session: u64) -> Option<StreamSnapshot> {
        self.stream_jobs.get(&session).map(|job| StreamSnapshot {
            paths: job.paths.clone(),
            active: job.active,
            consumed: job.consumed.clone(),
            backup_alive: job.backup_alive.clone(),
            switches: job.switches,
            sent: job.seq,
            delivered: job.delivered,
            draining: matches!(job.phase, StreamPhase::Draining),
        })
    }

    /// Structural invariants over this peer's own state, checked by the
    /// model checker after every transition. These are safety properties
    /// no interleaving — reorder, drop, duplication, crash — may break.
    pub fn local_invariants(&self) -> Result<(), String> {
        for (&session, job) in &self.stream_jobs {
            let slots = job.paths.len();
            if slots == 0 {
                return Err(format!("session {session}: stream job with zero paths"));
            }
            if job.active >= slots {
                return Err(format!("session {session}: active slot {} of {slots}", job.active));
            }
            if job.consumed.len() != slots
                || job.backup_alive.len() != slots - 1
                || job.maintenance_pending.len() != slots - 1
            {
                return Err(format!("session {session}: slot bookkeeping out of sync"));
            }
            if job.consumed[job.active] {
                return Err(format!("session {session}: serving a consumed slot"));
            }
            if job.delivered > job.seq {
                return Err(format!(
                    "session {session}: delivered {} exceeds sent {}",
                    job.delivered, job.seq
                ));
            }
            if job.acked.len() as u64 != job.delivered {
                return Err(format!(
                    "session {session}: {} acked seqs vs delivered {}",
                    job.acked.len(),
                    job.delivered
                ));
            }
            if let Some(&bad) = job.acked.iter().find(|&&s| s == 0 || s > job.seq) {
                return Err(format!("session {session}: ack for unsent frame seq {bad}"));
            }
        }
        Ok(())
    }

    /// Canonical digest of this peer's complete protocol state. Every
    /// collection folds in sorted order, f64s fold as bits — stable
    /// across runs, platforms, and thread counts. The model checker's
    /// state-dedup key is built from these.
    pub fn state_digest(&self) -> u64 {
        let mut h = mix(0x5049_4545_524e_4f44, self.me.raw());
        let mut keys: Vec<u128> = self.store.keys().copied().collect();
        keys.sort_unstable();
        for k in keys {
            h = mix(h, k as u64);
            h = mix(h, (k >> 64) as u64);
            for m in &self.store[&k] {
                h = mix(h, m.peer);
                h = mix(h, m.function as u64);
            }
        }
        let mut reqs: Vec<u64> = self.compose_jobs.keys().copied().collect();
        reqs.sort_unstable();
        for r in reqs {
            let job = &self.compose_jobs[&r];
            h = mix(h, r);
            h = mix(h, job.dest.raw());
            for f in &job.chain {
                h = mix(h, f.code() as u64);
            }
            h = mix(h, job.budget as u64);
            for l in &job.replica_lists {
                match l {
                    None => h = mix(h, 0),
                    Some((metas, at)) => {
                        h = mix(h, 1 + metas.len() as u64);
                        for m in metas {
                            h = mix(h, m.peer);
                        }
                        h = mix(h, at.to_bits());
                    }
                }
            }
            h = mix(h, job.discovery_done_ms.map(f64::to_bits).unwrap_or(1));
        }
        let mut reqs: Vec<u64> = self.dest_jobs.keys().copied().collect();
        reqs.sort_unstable();
        for r in reqs {
            let job = &self.dest_jobs[&r];
            h = mix(h, r);
            h = mix(h, job.source);
            for &f in &job.chain {
                h = mix(h, f as u64);
            }
            h = mix(h, job.timer_armed as u64);
            for (at, p) in &job.probes {
                h = mix(h, at.to_bits());
                h = probe_digest(h, p);
            }
        }
        let mut done: Vec<u64> = self.done_requests.iter().copied().collect();
        done.sort_unstable();
        for r in done {
            h = mix(h, r);
        }
        let mut sessions: Vec<u64> = self.stream_jobs.keys().copied().collect();
        sessions.sort_unstable();
        for s in sessions {
            let job = &self.stream_jobs[&s];
            h = mix(h, s);
            for p in &job.paths {
                h = mix(h, p.len() as u64);
                for peer in p {
                    h = mix(h, peer.raw());
                }
            }
            h = mix(h, job.active as u64);
            for &b in &job.consumed {
                h = mix(h, b as u64);
            }
            for &b in &job.backup_alive {
                h = mix(h, b as u64);
            }
            for &b in &job.maintenance_pending {
                h = mix(h, b as u64);
            }
            h = mix(h, job.maintenance_messages);
            for &f in &job.functions {
                h = mix(h, f as u64);
            }
            h = mix(h, job.dest.raw());
            h = mix(h, job.remaining);
            h = mix(h, job.interval_ms.to_bits());
            h = mix(h, job.dims.0 as u64);
            h = mix(h, job.dims.1 as u64);
            h = mix(h, job.seq);
            h = mix(h, job.delivered);
            let mut acked: Vec<u64> = job.acked.iter().copied().collect();
            acked.sort_unstable();
            for a in acked {
                h = mix(h, a);
            }
            h = mix(h, job.all_valid as u64);
            h = mix(h, job.delivery_digest);
            h = mix(h, job.last_progress_ms.to_bits());
            h = mix(h, job.switches as u64);
            h = mix(h, matches!(job.phase, StreamPhase::Draining) as u64);
        }
        h
    }
}

/// The function a wire code names. Only called on admitted frames and
/// driver input, whose codes are known.
fn function(code: u8) -> MediaFunction {
    MediaFunction::from_code(code).expect("admitted frames carry known function codes")
}

fn peers(raw: &[u64]) -> Vec<PeerId> {
    raw.iter().map(|&p| PeerId::new(p)).collect()
}

/// Longest model-time span a cluster setting or a control command's frame
/// interval may ask for (one hour): keeps every derived timer delay a
/// valid wall duration.
const MAX_FRAME_INTERVAL_MS: f64 = 3_600_000.0;

/// The checks at the engine's entries ([`PeerNode::handle`] and
/// [`PeerNode::control`]): true when `msg` is a peer-protocol frame or
/// control command that every handler can act on without panicking.
/// Peers must lie inside the deployment (`0..peers`), function codes must
/// be known, indices must fall inside the lists they index, per-position
/// lists must match their chain or path in length, frames must be
/// non-empty and consistent (`pixels.len() == width × height`) and stay
/// within [`MAX_PIXEL_BYTES`] through every transform still ahead of
/// them, and every carried timestamp must be finite. Handshakes and
/// control replies are never admitted. Engine-generated traffic always
/// passes.
fn well_formed(msg: &WireMsg, peers: u64) -> bool {
    let peer = |p: &u64| *p < peers;
    let code = |c: &u8| MediaFunction::from_code(*c).is_some();
    let replica = |m: &WireReplica| peer(&m.peer) && code(&m.function);
    match msg {
        WireMsg::DhtLookup { origin, hops, at_ms, .. } => {
            peer(origin) && *hops < u32::MAX && at_ms.is_finite()
        }
        WireMsg::DhtReply { metas, at_ms, .. } => metas.iter().all(replica) && at_ms.is_finite(),
        WireMsg::Register { replica: r, hops, .. } => replica(r) && *hops < u32::MAX,
        WireMsg::Probe(p) => {
            peer(&p.source)
                && peer(&p.dest)
                && p.chain.iter().all(code)
                && p.replica_lists.len() == p.chain.len()
                && p.replica_lists.iter().flatten().all(replica)
                && p.pos as usize <= p.chain.len()
                && p.path.len() == p.pos as usize
                && p.path.iter().all(peer)
                && p.acc_qos.dims() == 2
                && p.at_ms.is_finite()
        }
        WireMsg::SetupAck { path, functions, idx, source, backups, selected_ms, at_ms, .. } => {
            path.iter().all(peer)
                && functions.iter().all(code)
                && functions.len() == path.len()
                && (*idx == u32::MAX || (*idx as usize) < path.len())
                && peer(source)
                && backups.iter().flatten().all(peer)
                && selected_ms.is_finite()
                && at_ms.is_finite()
        }
        WireMsg::StreamFrame { path, functions, idx, dest, source, orig_w, orig_h, frame, at_ms, .. } => {
            path.iter().all(peer)
                && functions.iter().all(code)
                && functions.len() == path.len()
                && (*idx as usize) <= path.len()
                && peer(dest)
                && peer(source)
                && frame.pixels.len() as u64 == frame.width as u64 * frame.height as u64
                && frames_fit((frame.width, frame.height), &functions[*idx as usize..])
                && frames_fit((*orig_w, *orig_h), functions)
                && at_ms.is_finite()
        }
        WireMsg::FrameAck { at_ms, .. } => at_ms.is_finite(),
        WireMsg::PathProbe { path, idx, origin, .. } => {
            path.iter().all(peer) && (*idx as usize) < path.len() && peer(origin)
        }
        WireMsg::PathProbeAck { .. } => true,
        WireMsg::CtrlCompose { request, dest, chain, .. } => {
            *request <= u64::MAX / 64 && peer(dest) && chain.len() < 63 && chain.iter().all(code)
        }
        WireMsg::CtrlStream { path, functions, backups, dest, interval_ms, width, height, .. } => {
            !path.is_empty()
                && path.iter().all(peer)
                && functions.iter().all(code)
                && functions.len() == path.len()
                && backups.iter().all(|b| b.len() == path.len() && b.iter().all(peer))
                && peer(dest)
                && (0.0..=MAX_FRAME_INTERVAL_MS).contains(interval_ms)
                && frames_fit((*width, *height), functions)
        }
        _ => false,
    }
}

/// True when a `width × height` frame is non-empty and it, and each frame
/// the known `functions` make of it in turn, fits in [`MAX_PIXEL_BYTES`].
fn frames_fit((width, height): (u32, u32), functions: &[u8]) -> bool {
    let fits = |(w, h): (usize, usize)| w > 0 && h > 0 && w * h <= MAX_PIXEL_BYTES as usize;
    let mut dims = (width as usize, height as usize);
    if !fits(dims) {
        return false;
    }
    for &c in functions {
        dims = function(c).output_dims(dims.0, dims.1);
        if !fits(dims) {
            return false;
        }
    }
    true
}

/// Folds one value into a content hash (used for delay salts and the
/// model checker's state digests).
#[inline]
pub(crate) fn mix(h: u64, v: u64) -> u64 {
    splitmix64(h ^ v)
}

/// Content hash keying the deterministic WAN jitter of one message.
/// Excludes `at_ms` (the timestamp depends on the sampled delay) and bulk
/// payloads; includes enough identity that distinct messages between the
/// same pair draw distinct jitter. Kinds the engine never sends salt as 0.
pub(crate) fn delay_salt(msg: &WireMsg) -> u64 {
    match msg {
        WireMsg::DhtLookup { query, hops, .. } => mix(mix(1, *query), *hops as u64),
        WireMsg::DhtReply { query, .. } => mix(2, *query),
        WireMsg::Register { key, hops, .. } => mix(mix(3, *key as u64), *hops as u64),
        WireMsg::Probe(p) => {
            p.path.iter().fold(mix(mix(4, p.request), p.pos as u64), |h, &peer| mix(h, peer))
        }
        WireMsg::SetupAck { session, idx, .. } => {
            // The final-leg sentinel salts as `u64::MAX`, which keeps the
            // recorded setup times and deployment fingerprints.
            let idx = if *idx == u32::MAX { u64::MAX } else { *idx as u64 };
            mix(mix(5, *session), idx)
        }
        WireMsg::StreamFrame { session, idx, frame, .. } => {
            mix(mix(mix(6, *session), frame.seq), *idx as u64)
        }
        WireMsg::FrameAck { session, seq, .. } => mix(mix(7, *session), *seq),
        WireMsg::PathProbe { session, idx, backup_idx, .. } => {
            mix(mix(mix(8, *session), *idx as u64), *backup_idx as u64)
        }
        WireMsg::PathProbeAck { session, backup_idx } => mix(mix(9, *session), *backup_idx as u64),
        _ => 0,
    }
}

/// The accumulated model-time timestamp, when this kind carries one. The
/// sender adds its sampled WAN delay before the message goes out, so the
/// receiver reads "model time at delivery".
fn at_ms_mut(msg: &mut WireMsg) -> Option<&mut f64> {
    match msg {
        WireMsg::DhtLookup { at_ms, .. }
        | WireMsg::DhtReply { at_ms, .. }
        | WireMsg::SetupAck { at_ms, .. }
        | WireMsg::StreamFrame { at_ms, .. }
        | WireMsg::FrameAck { at_ms, .. } => Some(at_ms),
        WireMsg::Probe(p) => Some(&mut p.at_ms),
        _ => None,
    }
}

/// Folds a probe's full content into a digest.
pub(crate) fn probe_digest(mut h: u64, p: &WireProbe) -> u64 {
    h = mix(h, p.request);
    h = mix(h, p.source);
    h = mix(h, p.dest);
    for &f in &p.chain {
        h = mix(h, f as u64);
    }
    for l in &p.replica_lists {
        h = mix(h, l.len() as u64);
        for m in l {
            h = mix(h, m.peer);
            h = mix(h, m.function as u64);
        }
    }
    h = mix(h, p.pos as u64);
    for &peer in &p.path {
        h = mix(h, peer);
    }
    h = mix(h, p.budget as u64);
    for &q in p.acc_qos.values() {
        h = mix(h, q.to_bits());
    }
    mix(h, p.at_ms.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_check_refuses_hostile_settings_without_panicking() {
        assert!(ClusterConfig::default().check().is_ok());
        type Spoil = fn(&mut ClusterConfig);
        let hostile: [(&str, Spoil); 12] = [
            ("time_scale", |c| c.time_scale = f64::INFINITY),
            ("time_scale", |c| c.time_scale = f64::NAN),
            ("time_scale", |c| c.time_scale = 0.0),
            ("jitter", |c| c.jitter = -0.1),
            ("collect_window_ms", |c| c.collect_window_ms = 1e300),
            // Under one window, the collected set depends on scheduling.
            ("collect_deadline_slack", |c| c.collect_deadline_slack = 0.5),
            ("collect_deadline_slack", |c| c.collect_deadline_slack = f64::NAN),
            ("failover_timeout_ms", |c| c.failover_timeout_ms = -1.0),
            ("maintenance_period_ms", |c| c.maintenance_period_ms = f64::INFINITY),
            ("quota", |c| c.quota = 0),
            ("drop_prob", |c| c.faults.drop_prob = f64::NAN),
            ("extra_delay_ms", |c| c.faults.extra_delay_ms = 1e300),
        ];
        for (name, spoil) in hostile {
            let mut cfg = ClusterConfig::default();
            spoil(&mut cfg);
            let err = cfg.check().expect_err(name);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
            assert!(err.to_string().starts_with(name), "{name}: {err}");
        }
        // The floors themselves pass; a zero maintenance period disables it.
        let edge = ClusterConfig {
            collect_deadline_slack: 1.0,
            maintenance_period_ms: 0.0,
            jitter: 0.0,
            quota: 1,
            ..ClusterConfig::default()
        };
        assert!(edge.check().is_ok());
    }
}
