//! The in-process runtime: every peer's [`PeerNode`] stepped by one
//! discrete-event loop in model time.
//!
//! All protocol logic lives in [`crate::node::PeerNode`]; this module
//! only moves messages. Each engine call writes into an [`Outbox`], and
//! every send and timer it captured is queued as an event due at the
//! model clock plus its delay. Firing an event sets the clock to its due
//! time and hands the [`WireMsg`] (unencoded) or the [`Timer`] to its
//! peer. Each socket daemon ([`crate::net`]) drives the *same* engine
//! over the same queue type ([`spidernet_sim::EventQueue`]), one per
//! process, reading its clock off the wall and sending due messages over
//! TCP; a deployment built from the same [`ClusterConfig`] and seed
//! reports the same setup metrics.
//!
//! Peer failure is modeled by the network dropping all traffic to the
//! dead peer (its timers included); streaming sources detect the
//! resulting ack gap and fail over to a backup path — the proactive
//! recovery data path of §5.
//!
//! No thread, channel or wall clock is involved. [`Cluster::compose`]
//! and [`Cluster::stream`] fire events on the caller's thread until their
//! result appears, the network goes quiet, or their timeout runs out, so
//! a fixed seed fires the same events in the same order on every run.
//! All reported times are model milliseconds.

use crate::media::MediaFunction;
use crate::node::{roll_faults, Fault, Outbox, PeerNode, Timer, World};
use spidernet_util::id::PeerId;
use spidernet_util::rng::{rng_for, Rng};
use spidernet_wire::WireMsg;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

pub use crate::node::{ClusterConfig, NetFaultConfig, SetupResult, StreamReport};

/// What one event hands to its peer.
pub(crate) enum Body {
    /// A peer frame; `rolled` once the fault injector has seen it, so it
    /// is never rolled twice.
    Wire { msg: WireMsg, rolled: bool },
    /// One of the peer's own timers.
    Timer(Timer),
}

/// The model-time event queue of [`Body`]s, each for its peer: the
/// cluster steps every peer through one, and each socket daemon runs its
/// own. Each owner keeps its own firing policy.
pub(crate) type EventQueue = spidernet_sim::EventQueue<(PeerId, Body)>;

/// Queues what one engine call on `peer` sent (unrolled) and scheduled,
/// each due its delay after the call's clock (negative delays are due at
/// once), and leaves the call's results in `out`.
pub(crate) fn schedule(queue: &mut EventQueue, peer: PeerId, out: &mut Outbox) {
    let now = out.now;
    for (to, msg, delay_ms) in out.sent.drain(..) {
        queue.push(now + delay_ms.max(0.0), (to, Body::Wire { msg, rolled: false }));
    }
    for (timer, delay_ms) in out.timers.drain(..) {
        queue.push(now + delay_ms.max(0.0), (peer, Body::Timer(timer)));
    }
}

/// Everything the event loop mutates, behind the cluster's one lock.
struct Net {
    world: Arc<World>,
    nodes: Vec<PeerNode>,
    dead: Vec<bool>,
    queue: EventQueue,
    /// Model ms: the due time of the last fired event.
    clock: f64,
    /// The `"net-faults"` stream [`roll_faults`] draws from.
    rng: Rng,
    next_request: u64,
}

impl Net {
    /// Runs one engine call on `peer` at the current clock, queues what it
    /// sent and scheduled, and returns the outbox with its driver results.
    fn run(&mut self, peer: PeerId, call: impl FnOnce(&mut PeerNode, &mut Outbox)) -> Outbox {
        let mut out = Outbox::at(self.clock);
        call(&mut self.nodes[peer.index()], &mut out);
        schedule(&mut self.queue, peer, &mut out);
        out
    }

    /// Fires events due by `deadline` until one reaches an engine, and
    /// returns that call's outbox; `None` once nothing is due. Traffic to
    /// a dead peer vanishes before the fault injector sees it; a wire
    /// message is rolled once, then dropped, held back, or delivered.
    fn fire(&mut self, deadline: f64) -> Option<Outbox> {
        while let Some((due, (to, body))) = self.queue.pop_due(deadline) {
            self.clock = due;
            if self.dead[to.index()] {
                continue;
            }
            return Some(match body {
                Body::Wire { msg, rolled: false } => {
                    match roll_faults(&self.world, &msg, &mut self.rng) {
                        Fault::Drop => continue,
                        Fault::Delay(ms) => {
                            let body = Body::Wire { msg, rolled: true };
                            self.queue.push(due + ms.max(0.0), (to, body));
                            continue;
                        }
                        Fault::Deliver => self.run(to, |node, out| node.handle(msg, out)),
                    }
                }
                Body::Wire { msg, rolled: true } => self.run(to, |node, out| node.handle(msg, out)),
                Body::Timer(timer) => self.run(to, |node, out| node.on_timer(timer, out)),
            });
        }
        None
    }

    /// Fires events until `pick` finds the caller's result in an outbox,
    /// starting with `first`. The timeout is read as model time:
    /// `timeout / time_scale`. Results of other requests are discarded;
    /// they belong to calls that already returned.
    fn until<T>(
        &mut self,
        first: Outbox,
        timeout: Duration,
        mut pick: impl FnMut(Outbox) -> Option<T>,
    ) -> Option<T> {
        let deadline = self.clock + timeout.as_secs_f64() * 1_000.0 / self.world.cfg.time_scale;
        let mut out = first;
        loop {
            if let Some(found) = pick(out) {
                return Some(found);
            }
            out = self.fire(deadline)?;
        }
    }
}

/// An in-process deployment of `PeerNode`s over one event queue. Calls
/// from several threads serialize on its lock.
pub struct Cluster {
    world: Arc<World>,
    net: Mutex<Net>,
}

impl Cluster {
    /// Builds the cluster: assigns one media component per peer
    /// (round-robin over the six functions — at 102 peers that is the
    /// paper's ≈17 replicas each) and registers them into the per-peer DHT
    /// shards. Nothing runs until the first call.
    pub fn start(cfg: ClusterConfig) -> Cluster {
        assert!(cfg.peers >= 8, "the runtime needs a handful of peers");
        let world = Arc::new(World::build(cfg));
        let nodes = world
            .seeded_stores()
            .into_iter()
            .enumerate()
            .map(|(i, store)| PeerNode::new(PeerId::from(i), world.clone(), store))
            .collect();
        let net = Net {
            world: world.clone(),
            nodes,
            dead: vec![false; world.cfg.peers],
            queue: EventQueue::default(),
            clock: 0.0,
            rng: rng_for(world.cfg.seed, "net-faults"),
            next_request: 1,
        };
        Cluster { world, net: Mutex::new(net) }
    }

    fn net(&self) -> MutexGuard<'_, Net> {
        self.net.lock().expect("a cluster call panicked")
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

    /// Composes a session from `source` to `dest` over `chain`. `None`
    /// when the network goes quiet without a result (a dead destination,
    /// lost messages), or when `timeout`, scaled by `time_scale` into
    /// model time, runs out first.
    pub fn compose(
        &self,
        source: PeerId,
        dest: PeerId,
        chain: Vec<MediaFunction>,
        budget: u32,
        timeout: Duration,
    ) -> Option<SetupResult> {
        let mut net = self.net();
        let request = net.next_request;
        net.next_request += 1;
        let out = net.run(source, |node, out| node.compose(request, dest, chain, budget, out));
        net.until(out, timeout, |out| out.setups.into_iter().find(|s| s.request == request))
    }

    /// Streams `frames` synthetic frames along an established composition
    /// and returns the source's report; `None` on the same terms as
    /// [`Cluster::compose`].
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
        let SetupResult { request, dest, path, functions, backups, .. } = setup.clone();
        let mut net = self.net();
        let out = net.run(source, |node, out| {
            node.start_stream(request, path, functions, backups, dest, frames, interval_ms, dims, out)
        });
        net.until(out, timeout, |out| out.reports.into_iter().find(|r| r.session == request))
    }

    /// Kills a peer: from the next fired event on, the network drops
    /// everything addressed to it.
    pub fn kill(&self, peer: PeerId) {
        self.net().dead[peer.index()] = true;
    }

    /// Revives a killed peer: the network delivers to it again. Messages
    /// dropped while it was dead are gone; the state the peer held before
    /// the kill is still there.
    pub fn revive(&self, peer: PeerId) {
        self.net().dead[peer.index()] = false;
    }

    /// Droppable messages lost to fault injection so far.
    pub fn messages_dropped(&self) -> u64 {
        self.world.counters().2
    }

    /// Total probe transmissions so far.
    pub fn probes_sent(&self) -> u64 {
        self.world.counters().0
    }

    /// Total DHT routing steps so far.
    pub fn dht_hops(&self) -> u64 {
        self.world.counters().1
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::media::MediaFunction;

    fn config(peers: usize, seed: u64) -> ClusterConfig {
        ClusterConfig {
            peers,
            seed,
            collect_window_ms: 250.0,
            // Tests that do not kill a peer never fail over.
            failover_timeout_ms: 1e9,
            ..ClusterConfig::default()
        }
    }

    const TIMEOUT: Duration = Duration::from_secs(20);

    #[test]
    fn composes_a_three_function_session() {
        let cluster = Cluster::start(config(24, 1));
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
        // Two clusters with the same seed fire the same events in the same
        // order: bit-identical setup phases and identical stream reports.
        let run = || {
            let cluster = Cluster::start(config(24, 42));
            let chain = vec![
                MediaFunction::StockTicker,
                MediaFunction::DownScale,
                MediaFunction::Requantize,
            ];
            let setup = cluster
                .compose(PeerId::new(0), PeerId::new(7), chain, 8, TIMEOUT)
                .expect("driver timeout");
            let report = cluster
                .stream(PeerId::new(0), &setup, 20, 30.0, (16, 16), TIMEOUT)
                .expect("stream timeout");
            (setup, report)
        };
        let (a, ra) = run();
        let (b, rb) = run();
        assert_eq!(a.path, b.path, "selected paths differ across runs");
        assert_eq!(a.backups, b.backups, "backup sets differ across runs");
        assert_eq!(a.discovery_ms.to_bits(), b.discovery_ms.to_bits());
        assert_eq!(a.probing_ms.to_bits(), b.probing_ms.to_bits());
        assert_eq!(a.init_ms.to_bits(), b.init_ms.to_bits());
        assert_eq!(a.total_ms.to_bits(), b.total_ms.to_bits());
        assert_eq!(ra.delivered, rb.delivered, "delivered counts differ across runs");
        assert_eq!(ra.switches, rb.switches, "switch counts differ across runs");
        assert_eq!(ra.final_path, rb.final_path, "final paths differ across runs");
        assert_eq!(ra.delivery_digest, rb.delivery_digest, "delivery digests differ across runs");
    }

    #[test]
    fn probing_respects_budget_scaling() {
        let cluster = Cluster::start(config(24, 2));
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
        let cluster = Cluster::start(config(24, 3));
        let chain = vec![MediaFunction::DownScale, MediaFunction::WeatherTicker];
        let setup = cluster
            .compose(PeerId::new(2), PeerId::new(9), chain, 8, TIMEOUT)
            .expect("driver timeout");
        assert!(setup.ok);
        let report = cluster
            .stream(PeerId::new(2), &setup, 20, 30.0, (16, 16), TIMEOUT)
            .expect("stream timeout");
        assert_eq!(report.sent, 20);
        assert_eq!(report.delivered, 20, "every frame lands on a loss-free network");
        assert!(report.all_valid, "a delivered frame failed transform verification");
        assert_eq!(report.switches, 0);
        assert_ne!(report.delivery_digest, 0, "delivered frames left no digest");
    }

    #[test]
    fn killed_component_triggers_failover_to_backup() {
        let cluster = Cluster::start(ClusterConfig {
            peers: 30,
            seed: 4,
            collect_window_ms: 250.0,
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
            ..config(24, 8)
        });
        let chain = vec![MediaFunction::DownScale, MediaFunction::StockTicker];
        // With 25% loss any individual setup may fail or never complete;
        // what must hold is that every call returns and the cluster never
        // wedges.
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
        let _ = completed;
    }

    #[test]
    fn kill_and_revive_restores_delivery() {
        let cluster = Cluster::start(config(12, 9));
        cluster.kill(PeerId::new(5));
        let dead_res = cluster.compose(
            PeerId::new(0),
            PeerId::new(5),
            vec![MediaFunction::UpScale],
            4,
            Duration::from_millis(400),
        );
        assert!(dead_res.is_none(), "composition toward a dead peer never completes");
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
            ..config(24, 10)
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
        assert_eq!(report.delivered, 20, "jitter lost frames");
        assert!(report.all_valid, "a jittered frame failed transform verification");
        assert_eq!(report.switches, 0, "pure delay must not trigger failover");
    }

    #[test]
    fn unknown_source_requests_fail_cleanly() {
        let cluster = Cluster::start(config(12, 5));
        // Composing toward a dead destination returns `None` once the
        // network goes quiet, rather than wedging the cluster.
        cluster.kill(PeerId::new(5));
        let res = cluster.compose(
            PeerId::new(0),
            PeerId::new(5),
            vec![MediaFunction::UpScale],
            4,
            Duration::from_millis(400),
        );
        assert!(res.is_none(), "composition toward a dead peer never completes");
        // The cluster still works afterwards.
        let ok = cluster
            .compose(PeerId::new(0), PeerId::new(6), vec![MediaFunction::UpScale], 4, TIMEOUT)
            .expect("cluster wedged");
        assert!(ok.ok);
    }

    #[test]
    fn timeout_bounds_a_call_in_model_time() {
        let cluster = Cluster::start(config(24, 3));
        let chain = vec![MediaFunction::DownScale, MediaFunction::WeatherTicker];
        let setup = cluster
            .compose(PeerId::new(2), PeerId::new(9), chain, 8, TIMEOUT)
            .expect("driver timeout");
        // 1 ms at the default 50× time scale is 50 model ms: the stream
        // needs far longer, so the call gives up with the network busy.
        let short = Duration::from_millis(1);
        assert!(cluster.stream(PeerId::new(2), &setup, 20, 30.0, (8, 8), short).is_none());
        // The abandoned stream's events fire during the next call, and its
        // report is not mistaken for that call's result.
        let next = cluster
            .compose(PeerId::new(0), PeerId::new(6), vec![MediaFunction::UpScale], 4, TIMEOUT)
            .expect("driver timeout");
        assert_eq!(next.request, setup.request + 1);
    }

    #[test]
    fn zero_budget_compose_fails_at_once() {
        // No probe can leave the source on a zero budget, so the compose
        // must fail with a result instead of returning `None`.
        let cluster = Cluster::start(config(12, 5));
        let res = cluster
            .compose(PeerId::new(0), PeerId::new(6), vec![MediaFunction::UpScale], 0, TIMEOUT)
            .expect("a zero-budget compose resolves");
        assert!(!res.ok);
    }

    #[test]
    fn setup_times_scale_with_chain_length() {
        let cluster = Cluster::start(config(36, 6));
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
