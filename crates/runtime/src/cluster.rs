//! The in-process channel transport: one actor thread per peer, one
//! delay-queue thread injecting WAN delays.
//!
//! All protocol logic lives in [`crate::node::PeerNode`]; this module
//! only moves messages. Each peer actor drains an mpsc inbox and feeds
//! the engine through a channel-backed [`Outbox`] whose `wire` and
//! `timer` go into one shared delay queue (converting model delay to
//! compressed wall time) and whose driver results resolve the caller's
//! reply channels. Peer frames travel as unencoded [`WireMsg`] values. The
//! socket transport ([`crate::net`]) drives the *same* engine over TCP —
//! a deployment built from the same [`ClusterConfig`] and seed behaves
//! identically in model time.
//!
//! Peer failure is modeled by the network dropping all traffic to the
//! dead peer (its timers included); streaming sources detect the
//! resulting ack gap and fail over to a backup path — the proactive
//! recovery data path of §5, exercised with real threads.
//!
//! Wall-clock time is compressed by `time_scale` (wall = model × scale);
//! all reported times are model milliseconds.

use crate::delay::{roll_faults, DelayQueue, Fault};
use crate::media::MediaFunction;
use crate::node::{Outbox, PeerNode, Timer, World};
use spidernet_sim::trace::TraceEvent;
use spidernet_util::id::PeerId;
use spidernet_util::rng::rng_for;
use spidernet_wire::WireMsg;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use crate::node::{ClusterConfig, NetFaultConfig, SetupResult, StreamReport};

/// What a peer actor's inbox receives: traffic released by the delay
/// queue, and the driver's commands.
enum Inbox {
    /// A peer frame.
    Wire(WireMsg),
    /// One of the peer's own timers.
    Timer(Timer),
    /// Driver command: compose a session.
    Compose {
        request: u64,
        dest: PeerId,
        chain: Vec<MediaFunction>,
        budget: u32,
        reply: SyncSender<SetupResult>,
    },
    /// Driver command: stream frames along an established session.
    StartStream {
        setup: SetupResult,
        frames: u64,
        interval_ms: f64,
        dims: (usize, usize),
        reply: SyncSender<StreamReport>,
    },
    /// Stop the peer thread.
    Halt,
}

/// A delay-queue entry: traffic bound for peer `to`.
struct Packet {
    to: PeerId,
    body: Inbox,
    /// Already held back by the fault injector; never rolled twice.
    rolled: bool,
}

// ---------------------------------------------------------------------
// Per-peer actor: inbox pump + channel-backed Outbox.
// ---------------------------------------------------------------------

/// The engine's effects, routed through the in-process transport:
/// `wire` and `timer` go into the delay queue, driver results resolve
/// the pending reply channels.
struct ChannelOutbox<'a> {
    me: PeerId,
    net: &'a DelayQueue<Packet>,
    epoch: Instant,
    scale: f64,
    pending_setups: &'a mut HashMap<u64, SyncSender<SetupResult>>,
    pending_reports: &'a mut HashMap<u64, SyncSender<StreamReport>>,
}

impl Outbox for ChannelOutbox<'_> {
    fn wire(&mut self, to: PeerId, msg: WireMsg, delay_ms: f64) {
        self.net.push(Packet { to, body: Inbox::Wire(msg), rolled: false }, delay_ms);
    }

    fn timer(&mut self, timer: Timer, delay_ms: f64) {
        self.net.push(Packet { to: self.me, body: Inbox::Timer(timer), rolled: false }, delay_ms);
    }

    fn now_ms(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1_000.0 / self.scale
    }

    fn setup_result(&mut self, result: SetupResult) {
        if let Some(reply) = self.pending_setups.remove(&result.request) {
            let _ = reply.send(result);
        }
    }

    fn stream_report(&mut self, report: StreamReport) {
        if let Some(reply) = self.pending_reports.remove(&report.session) {
            let _ = reply.send(report);
        }
    }
}

struct PeerActor {
    me: PeerId,
    inbox: Receiver<Inbox>,
    net: DelayQueue<Packet>,
    epoch: Instant,
    scale: f64,
    node: PeerNode,
    pending_setups: HashMap<u64, SyncSender<SetupResult>>,
    pending_reports: HashMap<u64, SyncSender<StreamReport>>,
}

impl PeerActor {
    fn run(mut self) {
        while let Ok(input) = self.inbox.recv() {
            let mut out = ChannelOutbox {
                me: self.me,
                net: &self.net,
                epoch: self.epoch,
                scale: self.scale,
                pending_setups: &mut self.pending_setups,
                pending_reports: &mut self.pending_reports,
            };
            match input {
                Inbox::Halt => return,
                Inbox::Wire(msg) => self.node.handle(msg, &mut out),
                Inbox::Timer(timer) => self.node.on_timer(timer, &mut out),
                Inbox::Compose { request, dest, chain, budget, reply } => {
                    out.pending_setups.insert(request, reply);
                    self.node.compose(request, dest, chain, budget, &mut out);
                }
                Inbox::StartStream { setup, frames, interval_ms, dims, reply } => {
                    out.pending_reports.insert(setup.request, reply);
                    self.node.start_stream(
                        setup.request,
                        setup.path,
                        setup.functions,
                        setup.backups,
                        setup.dest,
                        frames,
                        interval_ms,
                        dims,
                        &mut out,
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// The cluster facade.
// ---------------------------------------------------------------------

/// A running cluster of peer threads.
pub struct Cluster {
    world: Arc<World>,
    senders: Vec<Sender<Inbox>>,
    dead: Arc<Vec<AtomicBool>>,
    net: DelayQueue<Packet>,
    handles: Vec<JoinHandle<()>>,
    net_handle: Option<JoinHandle<()>>,
    next_request: AtomicU64,
}

impl Cluster {
    /// Builds and starts the cluster: assigns one media component per peer
    /// (round-robin over the six functions — at 102 peers that is the
    /// paper's ≈17 replicas each), registers them into the per-peer DHT
    /// shards, and spawns the actor threads.
    pub fn start(cfg: ClusterConfig) -> Cluster {
        assert!(cfg.peers >= 8, "the runtime needs a handful of peers");
        let world = Arc::new(World::build(cfg));
        let cfg = &world.cfg;
        let mut stores = world.seeded_stores();

        let dead: Arc<Vec<AtomicBool>> =
            Arc::new((0..cfg.peers).map(|_| AtomicBool::new(false)).collect());
        let epoch = Instant::now();

        let mut senders = Vec::with_capacity(cfg.peers);
        let mut receivers = Vec::with_capacity(cfg.peers);
        for _ in 0..cfg.peers {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        // The network: traffic to a dead peer vanishes before the fault
        // injector sees it; survivors are rolled once, then delivered.
        let (net, net_handle) = {
            let peers = senders.clone();
            let world = world.clone();
            let dead = dead.clone();
            let mut rng = rng_for(cfg.seed, "net-faults");
            DelayQueue::start(cfg.time_scale, move |p: Packet| {
                if dead[p.to.index()].load(Ordering::Relaxed) {
                    return None;
                }
                if let (Inbox::Wire(msg), false) = (&p.body, p.rolled) {
                    match roll_faults(&world, msg, &mut rng) {
                        Fault::Drop => return None,
                        Fault::Delay(ms) => return Some((Packet { rolled: true, ..p }, ms)),
                        Fault::Deliver => {}
                    }
                }
                // Channels are unbounded; send only fails at shutdown.
                let _ = peers[p.to.index()].send(p.body);
                None
            })
        };
        let scale = cfg.time_scale;
        let mut handles = Vec::with_capacity(cfg.peers);
        for (i, inbox) in receivers.into_iter().enumerate() {
            let actor = PeerActor {
                me: PeerId::from(i),
                inbox,
                net: net.clone(),
                epoch,
                scale,
                node: PeerNode::new(PeerId::from(i), world.clone(), std::mem::take(&mut stores[i])),
                pending_setups: HashMap::new(),
                pending_reports: HashMap::new(),
            };
            handles.push(std::thread::spawn(move || actor.run()));
        }
        Cluster {
            world,
            senders,
            dead,
            net,
            handles,
            net_handle: Some(net_handle),
            next_request: AtomicU64::new(1),
        }
    }

    /// Number of peers.
    pub fn peers(&self) -> usize {
        self.world.cfg.peers
    }

    /// The media function hosted by a peer.
    pub fn function_of(&self, p: PeerId) -> MediaFunction {
        self.world.functions[p.index()]
    }

    /// Replicas deployed for one function.
    pub fn replica_count(&self, f: MediaFunction) -> usize {
        self.world.functions.iter().filter(|&&g| g == f).count()
    }

    /// Composes a session from `source` to `dest` over `chain`. Blocks up
    /// to `timeout` wall time; `None` means the driver-side timeout hit.
    pub fn compose(
        &self,
        source: PeerId,
        dest: PeerId,
        chain: Vec<MediaFunction>,
        budget: u32,
        timeout: Duration,
    ) -> Option<SetupResult> {
        let request = self.next_request.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = sync_channel(1);
        self.senders[source.index()]
            .send(Inbox::Compose { request, dest, chain, budget, reply: tx })
            .ok()?;
        rx.recv_timeout(timeout).ok()
    }

    /// Streams `frames` synthetic frames along an established composition;
    /// blocks until the source reports (or `timeout`).
    pub fn stream(
        &self,
        source: PeerId,
        setup: &SetupResult,
        frames: u64,
        interval_ms: f64,
        dims: (usize, usize),
        timeout: Duration,
    ) -> Option<StreamReport> {
        assert!(setup.ok, "cannot stream over a failed setup");
        let (tx, rx) = sync_channel(1);
        self.senders[source.index()]
            .send(Inbox::StartStream { setup: setup.clone(), frames, interval_ms, dims, reply: tx })
            .ok()?;
        rx.recv_timeout(timeout).ok()
    }

    /// Kills a peer: the network drops everything addressed to it.
    pub fn kill(&self, peer: PeerId) {
        self.dead[peer.index()].store(true, Ordering::Relaxed);
    }

    /// Revives a killed peer: the network delivers to it again. Messages
    /// dropped while it was dead are gone — state the peer accumulated
    /// before the kill is still there (the actor thread never stopped).
    pub fn revive(&self, peer: PeerId) {
        self.dead[peer.index()].store(false, Ordering::Relaxed);
    }

    /// Droppable messages lost to fault injection so far.
    pub fn messages_dropped(&self) -> u64 {
        self.world.msgs_dropped.load(Ordering::Relaxed)
    }

    /// Total probe transmissions so far.
    pub fn probes_sent(&self) -> u64 {
        self.world.probes_sent.load(Ordering::Relaxed)
    }

    /// Total DHT routing steps so far.
    pub fn dht_hops(&self) -> u64 {
        self.world.dht_hops.load(Ordering::Relaxed)
    }

    /// Snapshot of the cluster-wide trace ring, oldest event first. Empty
    /// when the `trace` feature is compiled out.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.world.trace.lock().unwrap().events()
    }

    /// Trace-ring statistics `(recorded, buffered, overwritten)`.
    pub fn trace_stats(&self) -> (u64, u64, u64) {
        let t = self.world.trace.lock().unwrap();
        (t.recorded(), t.len() as u64, t.overwritten())
    }

    /// Probe transmissions per composition session, ascending by session
    /// id. Kept regardless of the `trace` feature — the figure exporters
    /// publish these rows.
    pub fn session_probe_counts(&self) -> Vec<(u64, u64)> {
        self.world.session_probes.lock().unwrap().iter().map(|(&s, &p)| (s, p)).collect()
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for (i, s) in self.senders.iter().enumerate() {
            self.dead[i].store(false, Ordering::Relaxed);
            let _ = s.send(Inbox::Halt);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        self.net.shutdown();
        if let Some(h) = self.net_handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::media::MediaFunction;

    fn fast_cfg(peers: usize, seed: u64) -> ClusterConfig {
        ClusterConfig {
            peers,
            seed,
            time_scale: 0.004, // 250× compression: 48ms hop → ~0.2ms wall
            collect_window_ms: 250.0,
            // At 250× compression, OS scheduling jitter (~ms wall) becomes
            // hundreds of model ms; an effectively-infinite failover
            // timeout keeps non-failover tests deterministic.
            failover_timeout_ms: 1e9,
            ..ClusterConfig::default()
        }
    }

    const TIMEOUT: Duration = Duration::from_secs(20);

    #[test]
    fn composes_a_three_function_session() {
        let cluster = Cluster::start(fast_cfg(24, 1));
        let chain = vec![
            MediaFunction::StockTicker,
            MediaFunction::DownScale,
            MediaFunction::Requantize,
        ];
        let res = cluster
            .compose(PeerId::new(0), PeerId::new(7), chain.clone(), 8, TIMEOUT)
            .expect("driver timeout");
        assert!(res.ok, "setup failed");
        assert_eq!(res.path.len(), 3);
        // The chosen peers host the right functions in order.
        for (i, &p) in res.path.iter().enumerate() {
            assert_eq!(cluster.function_of(p), chain[i]);
        }
        assert_eq!(res.functions, chain);
        // Phase decomposition is sane.
        assert!(res.discovery_ms > 0.0, "discovery took no time");
        assert!(res.probing_ms > 0.0, "probing took no time");
        assert!(res.init_ms > 0.0, "init took no time");
        assert!(res.total_ms >= res.discovery_ms + res.probing_ms + res.init_ms - 1.0);
        assert!(cluster.probes_sent() > 0);
        assert!(cluster.dht_hops() > 0);
    }

    #[test]
    fn setup_metrics_are_deterministic_across_runs() {
        // Model-time metrics are pure functions of message content: two
        // clusters with the same seed must report bit-identical setup
        // phases regardless of thread scheduling.
        let run = || {
            let cluster = Cluster::start(fast_cfg(24, 42));
            let chain = vec![
                MediaFunction::StockTicker,
                MediaFunction::DownScale,
                MediaFunction::Requantize,
            ];
            cluster
                .compose(PeerId::new(0), PeerId::new(7), chain, 8, TIMEOUT)
                .expect("driver timeout")
        };
        let a = run();
        let b = run();
        assert_eq!(a.path, b.path, "selected paths differ across runs");
        assert_eq!(a.backups, b.backups, "backup sets differ across runs");
        assert_eq!(a.discovery_ms.to_bits(), b.discovery_ms.to_bits());
        assert_eq!(a.probing_ms.to_bits(), b.probing_ms.to_bits());
        assert_eq!(a.init_ms.to_bits(), b.init_ms.to_bits());
        assert_eq!(a.total_ms.to_bits(), b.total_ms.to_bits());
    }

    #[test]
    fn probing_respects_budget_scaling() {
        let cluster = Cluster::start(fast_cfg(24, 2));
        let chain = vec![MediaFunction::UpScale, MediaFunction::DownScale];
        let before = cluster.probes_sent();
        let _ = cluster.compose(PeerId::new(1), PeerId::new(8), chain.clone(), 1, TIMEOUT);
        let small = cluster.probes_sent() - before;
        let before = cluster.probes_sent();
        let _ = cluster.compose(PeerId::new(1), PeerId::new(8), chain, 16, TIMEOUT);
        let large = cluster.probes_sent() - before;
        assert!(large > small, "bigger budget sent no more probes: {large} vs {small}");
    }

    #[test]
    fn streaming_applies_the_transform_chain() {
        let cluster = Cluster::start(fast_cfg(24, 3));
        let chain = vec![MediaFunction::DownScale, MediaFunction::WeatherTicker];
        let setup = cluster
            .compose(PeerId::new(2), PeerId::new(9), chain, 8, TIMEOUT)
            .expect("driver timeout");
        assert!(setup.ok);
        let report = cluster
            .stream(PeerId::new(2), &setup, 20, 30.0, (16, 16), TIMEOUT)
            .expect("stream timeout");
        assert_eq!(report.sent, 20);
        assert!(report.delivered >= 18, "only {} of 20 delivered", report.delivered);
        assert!(report.all_valid, "a delivered frame failed transform verification");
        assert_eq!(report.switches, 0);
        assert_ne!(report.delivery_digest, 0, "delivered frames left no digest");
    }

    #[test]
    fn killed_component_triggers_failover_to_backup() {
        // Gentler time compression than the other tests: failover timing
        // must stay visible even when the whole suite runs in parallel.
        let cluster = Cluster::start(ClusterConfig {
            peers: 30,
            seed: 4,
            time_scale: 0.05, // 20×: failover timeout is ~20ms wall, well
            collect_window_ms: 250.0, // above scheduler jitter
            failover_timeout_ms: 400.0,
            ..ClusterConfig::default()
        });
        let chain = vec![MediaFunction::Requantize, MediaFunction::StockTicker];
        let setup = cluster
            .compose(PeerId::new(3), PeerId::new(11), chain, 16, TIMEOUT)
            .expect("driver timeout");
        assert!(setup.ok);
        assert!(!setup.backups.is_empty(), "probing found no backup paths");
        // Kill the first component of the primary before streaming.
        cluster.kill(setup.path[0]);
        let report = cluster
            .stream(PeerId::new(3), &setup, 80, 25.0, (8, 8), TIMEOUT)
            .expect("stream timeout");
        assert!(report.switches >= 1, "source never failed over");
        assert!(
            report.delivered > 0,
            "no frames delivered after failover (sent {})",
            report.sent
        );
        assert!(report.all_valid);
        assert_ne!(report.final_path.first(), setup.path.first());
    }

    #[test]
    fn maintenance_probes_steer_failover_around_dead_backups() {
        let cluster = Cluster::start(ClusterConfig {
            peers: 36,
            seed: 7,
            time_scale: 0.05,
            collect_window_ms: 250.0,
            failover_timeout_ms: 400.0,
            maintenance_period_ms: 100.0,
            ..ClusterConfig::default()
        });
        let chain = vec![MediaFunction::DownScale, MediaFunction::Requantize];
        let setup = cluster
            .compose(PeerId::new(2), PeerId::new(20), chain, 16, TIMEOUT)
            .expect("driver timeout");
        assert!(setup.ok);
        assert!(setup.backups.len() >= 2, "need ≥2 backups, got {}", setup.backups.len());
        // Kill the primary's head AND the first backup's head (when they
        // differ) before streaming: maintenance should learn the backup is
        // dead and the failover should land on a live one.
        cluster.kill(setup.path[0]);
        if setup.backups[0][0] != setup.path[0] {
            cluster.kill(setup.backups[0][0]);
        }
        let report = cluster
            .stream(PeerId::new(2), &setup, 100, 25.0, (8, 8), TIMEOUT)
            .expect("stream timeout");
        assert!(report.maintenance_probes > 0, "no maintenance probes sent");
        assert!(report.switches >= 1);
        assert!(report.delivered > 0, "never recovered: {report:?}");
        assert!(report.all_valid);
    }

    #[test]
    fn lossy_network_degrades_without_wedging() {
        let cluster = Cluster::start(ClusterConfig {
            faults: NetFaultConfig::builder().drop_prob(0.25).build(),
            ..fast_cfg(24, 8)
        });
        let chain = vec![MediaFunction::DownScale, MediaFunction::StockTicker];
        // With 25% loss any individual setup may fail or time out; what
        // must hold is that every call returns within its timeout and the
        // cluster never wedges.
        let mut completed = 0;
        for r in 0..6u64 {
            let res = cluster.compose(
                PeerId::new(r),
                PeerId::new(12 + r),
                chain.clone(),
                8,
                Duration::from_secs(5),
            );
            if matches!(res, Some(ref s) if s.ok) {
                completed += 1;
            }
        }
        assert!(cluster.messages_dropped() > 0, "fault injector never fired");
        // Shutdown (Drop) must also complete cleanly — implicitly tested
        // by the test not hanging.
        let _ = completed;
    }

    #[test]
    fn kill_and_revive_restores_delivery() {
        let cluster = Cluster::start(fast_cfg(12, 9));
        cluster.kill(PeerId::new(5));
        let dead_res = cluster.compose(
            PeerId::new(0),
            PeerId::new(5),
            vec![MediaFunction::UpScale],
            4,
            Duration::from_millis(400),
        );
        assert!(dead_res.is_none(), "composition toward a dead peer should time out");
        cluster.revive(PeerId::new(5));
        let res = cluster
            .compose(PeerId::new(0), PeerId::new(5), vec![MediaFunction::UpScale], 4, TIMEOUT)
            .expect("revived peer still unreachable");
        assert!(res.ok, "composition toward a revived peer failed");
    }

    #[test]
    fn delay_jitter_preserves_stream_validity() {
        let cluster = Cluster::start(ClusterConfig {
            faults: NetFaultConfig::builder().extra_delay_ms(60.0).build(),
            ..fast_cfg(24, 10)
        });
        let chain = vec![MediaFunction::Requantize, MediaFunction::WeatherTicker];
        let setup = cluster
            .compose(PeerId::new(1), PeerId::new(10), chain, 8, TIMEOUT)
            .expect("driver timeout");
        assert!(setup.ok);
        let report = cluster
            .stream(PeerId::new(1), &setup, 20, 30.0, (8, 8), TIMEOUT)
            .expect("stream timeout");
        assert_eq!(report.sent, 20);
        assert!(report.delivered >= 18, "jitter lost frames: {}", report.delivered);
        assert!(report.all_valid, "a jittered frame failed transform verification");
        assert_eq!(report.switches, 0, "pure delay must not trigger failover");
    }

    #[test]
    fn unknown_source_requests_fail_cleanly() {
        let cluster = Cluster::start(fast_cfg(12, 5));
        // Composing toward a dead destination times out at the driver
        // rather than wedging the cluster.
        cluster.kill(PeerId::new(5));
        let res = cluster.compose(
            PeerId::new(0),
            PeerId::new(5),
            vec![MediaFunction::UpScale],
            4,
            Duration::from_millis(400),
        );
        assert!(res.is_none(), "composition toward a dead peer should time out");
        // The cluster still works afterwards.
        let ok = cluster
            .compose(PeerId::new(0), PeerId::new(6), vec![MediaFunction::UpScale], 4, TIMEOUT)
            .expect("cluster wedged");
        assert!(ok.ok);
    }

    #[test]
    fn zero_budget_compose_fails_at_once() {
        // No probe can leave the source on a zero budget, so the compose
        // must fail instead of waiting out the driver timeout.
        let cluster = Cluster::start(fast_cfg(12, 5));
        let res = cluster
            .compose(PeerId::new(0), PeerId::new(6), vec![MediaFunction::UpScale], 0, TIMEOUT)
            .expect("a zero-budget compose resolves");
        assert!(!res.ok);
    }

    #[test]
    fn setup_times_scale_with_chain_length() {
        let cluster = Cluster::start(fast_cfg(36, 6));
        let chains: Vec<Vec<MediaFunction>> = vec![
            MediaFunction::ALL[..2].to_vec(),
            MediaFunction::ALL[..5].to_vec(),
        ];
        let mut totals = Vec::new();
        for chain in chains {
            let mut sum = 0.0;
            for r in 0..3u64 {
                let res = cluster
                    .compose(PeerId::new(r), PeerId::new(20 + r), chain.clone(), 8, TIMEOUT)
                    .expect("timeout");
                sum += res.total_ms;
            }
            totals.push(sum / 3.0);
        }
        // Longer chains cannot be *faster* on average (more probe hops).
        assert!(
            totals[1] > totals[0] * 0.8,
            "5-function setup implausibly fast: {totals:?}"
        );
    }
}
