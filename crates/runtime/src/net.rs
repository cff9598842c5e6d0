//! The socket transport: the `spidernet-node` daemon runtime, its
//! control client, and the loopback `deploy` orchestrator.
//!
//! One OS process per peer. Each daemon rebuilds the shared [`World`]
//! deterministically from `(config, seed)`, runs the same
//! [`PeerNode`] engine as the in-process cluster, and exchanges
//! [`spidernet_wire`] frames over per-pair TCP connections. The whole
//! daemon is one thread: an `epoll` loop (module `evnet`) that owns every
//! connection, the engine, and its model-time event queue. The daemon is
//! Linux-only; [`crate::Cluster`] is the portable path.
//!
//! ## Connection lifecycle
//!
//! Connections are directional: a peer dials on demand when it first
//! sends to a neighbor (outbound connections are write-only after the
//! handshake) and accepts inbound connections for receiving. Every
//! connection opens with a `Hello` carrying the speaker's identity and
//! supported protocol range; the acceptor answers `HelloAck` with the
//! negotiated version ([`spidernet_wire::negotiate`]). Dial failures
//! retry with capped exponential backoff; a peer that stays unreachable
//! is treated as dead — its traffic is dropped, exactly like the
//! in-process network's dead-peer rule.
//!
//! ## Fault injection
//!
//! [`NetFaultConfig`](crate::NetFaultConfig) is honored at the *sender's*
//! network layer, before bytes reach a socket, by the same fault rule
//! the in-process event loop applies (`node::roll_faults`), so a fault
//! config means the same thing in both deployments.
//!
//! ## Model time
//!
//! Every message waits out its content-keyed WAN delay, and every timer
//! its delay, in the daemon's event queue: the in-process cluster's queue
//! type ([`spidernet_sim::EventQueue`]), keyed by due model ms and fired
//! when the wall clock over `time_scale` reaches them. The accumulated
//! `at_ms` timestamps make all reported setup metrics pure functions of
//! message content — a socket deployment reports the same numbers as the
//! in-process cluster for the same seed.

use crate::media::MediaFunction;
use crate::node::{ClusterConfig, SetupResult, StreamReport, World};
use spidernet_sim::trace::TraceEvent;
use spidernet_util::id::PeerId;
use spidernet_util::rng::splitmix64;
use spidernet_wire::{
    encode_to_vec, FrameDecoder, WireMsg, WireSetup, WireStats, WireStreamReport, CONTROL_PEER,
    PROTO_VERSION,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Conversions between engine results and their control-frame forms.
// ---------------------------------------------------------------------

/// The control-frame form of a setup result.
pub fn setup_to_wire(s: &SetupResult) -> WireSetup {
    WireSetup {
        request: s.request,
        ok: s.ok,
        dest: s.dest.raw(),
        path: s.path.iter().map(|p| p.raw()).collect(),
        functions: s.functions.iter().map(|f| f.code()).collect(),
        backups: s.backups.iter().map(|b| b.iter().map(|p| p.raw()).collect()).collect(),
        discovery_ms: s.discovery_ms,
        probing_ms: s.probing_ms,
        init_ms: s.init_ms,
        total_ms: s.total_ms,
    }
}

/// The control-frame form of a stream report.
pub fn report_to_wire(r: &StreamReport) -> WireStreamReport {
    WireStreamReport {
        session: r.session,
        sent: r.sent,
        delivered: r.delivered,
        all_valid: r.all_valid,
        switches: r.switches,
        maintenance_probes: r.maintenance_probes,
        final_path: r.final_path.iter().map(|p| p.raw()).collect(),
        delivery_digest: r.delivery_digest,
    }
}

// ---------------------------------------------------------------------
// Per-daemon transport counters.
// ---------------------------------------------------------------------

/// Socket-layer counters, reported via `CtrlStatsReply`.
#[derive(Default)]
pub struct NetStats {
    /// Wire frames encoded and handed to a connection.
    pub frames_tx: AtomicU64,
    /// Wire frames decoded off connections.
    pub frames_rx: AtomicU64,
    /// Bytes written (headers + payloads).
    pub bytes_tx: AtomicU64,
    /// Bytes read.
    pub bytes_rx: AtomicU64,
    /// Outbound connections successfully established.
    pub conns_opened: AtomicU64,
    /// Failed outbound dial attempts.
    pub conn_retries: AtomicU64,
    /// Frames rejected by the decoder.
    pub decode_errors: AtomicU64,
}

// ---------------------------------------------------------------------
// Outbound connections: dial-on-demand.
// ---------------------------------------------------------------------

/// How long a peer stays blacklisted after its dial budget is exhausted.
/// Traffic queued toward it during the blackout is dropped — the socket
/// equivalent of the in-process network's dead-peer rule.
pub(crate) const PEER_DOWN_COOLDOWN: Duration = Duration::from_millis(500);

/// Dials `to` with capped exponential backoff and performs the
/// client-side handshake (`Hello` out, `HelloAck` back). `None` after the
/// attempt budget — the peer is presumed dead for now. Runs on the event
/// loop's short-lived dial helpers; the connection returned is in
/// blocking mode.
pub(crate) fn dial_peer(
    me: PeerId,
    ports: &[u16],
    to: PeerId,
    stats: &NetStats,
    world: &World,
) -> Option<TcpStream> {
    let addr = SocketAddr::from(([127, 0, 0, 1], ports[to.index()]));
    let mut backoff = Duration::from_millis(20);
    for attempt in 0u32..5 {
        if attempt > 0 {
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(Duration::from_millis(200));
        }
        let Ok(mut stream) = TcpStream::connect_timeout(&addr, Duration::from_millis(250)) else {
            stats.conn_retries.fetch_add(1, Ordering::Relaxed);
            world.record(TraceEvent::ConnRetry { peer: to.raw(), attempt });
            continue;
        };
        let _ = stream.set_nodelay(true);
        let hello = encode_to_vec(&WireMsg::Hello {
            peer: me.raw(),
            node_id: 0,
            proto_min: PROTO_VERSION,
            proto_max: PROTO_VERSION,
            listen_port: ports[me.index()],
        });
        if stream.write_all(&hello).is_err() {
            stats.conn_retries.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        stats.bytes_tx.fetch_add(hello.len() as u64, Ordering::Relaxed);
        stats.frames_tx.fetch_add(1, Ordering::Relaxed);
        // Wait for the HelloAck so a half-open acceptor can't swallow
        // protocol frames.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        let mut dec = FrameDecoder::new();
        let mut buf = [0u8; 256];
        let ack = loop {
            match dec.next_frame() {
                Ok(Some(frame)) => break Some(frame),
                Ok(None) => match stream.read(&mut buf) {
                    Ok(0) | Err(_) => break None,
                    Ok(n) => {
                        stats.bytes_rx.fetch_add(n as u64, Ordering::Relaxed);
                        dec.extend(&buf[..n]);
                    }
                },
                Err(_) => {
                    stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                    break None;
                }
            }
        };
        match ack {
            Some(WireMsg::HelloAck { proto, .. }) if proto == PROTO_VERSION => {
                let _ = stream.set_read_timeout(None);
                stats.conns_opened.fetch_add(1, Ordering::Relaxed);
                world.record(TraceEvent::ConnOpened { peer: to.raw() });
                return Some(stream);
            }
            _ => {
                stats.conn_retries.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    None
}

// ---------------------------------------------------------------------
// The daemon: one event loop per process (module `evnet`).
// ---------------------------------------------------------------------

/// Everything a `spidernet-node` process needs to join a deployment.
pub struct NodeConfig {
    /// This peer's index (also its position in `ports`).
    pub index: usize,
    /// The shared deployment config; every node of a deployment must be
    /// started with identical values.
    pub cluster: ClusterConfig,
    /// Loopback listen port of every peer, by index.
    pub ports: Vec<u16>,
}

/// Runs one peer daemon until a `CtrlShutdown` arrives. Blocks the
/// calling thread: the daemon's event loop, engine included, runs here.
/// Settings that fail [`ClusterConfig::check`] return
/// [`std::io::ErrorKind::InvalidInput`] before anything binds. The loop
/// runs on Linux `epoll`; elsewhere this returns
/// [`std::io::ErrorKind::Unsupported`].
pub fn run_node(cfg: NodeConfig) -> std::io::Result<()> {
    cfg.cluster.check()?;
    #[cfg(target_os = "linux")]
    return serve(cfg);
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cfg;
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "the spidernet-node daemon needs Linux (epoll); use the in-process Cluster elsewhere",
        ))
    }
}

#[cfg(target_os = "linux")]
fn serve(cfg: NodeConfig) -> std::io::Result<()> {
    let listener = TcpListener::bind(("127.0.0.1", cfg.ports[cfg.index]))?;
    let world = Arc::new(World::build(cfg.cluster));
    crate::evnet::serve(listener, PeerId::from(cfg.index), Arc::new(cfg.ports), world)
}

// ---------------------------------------------------------------------
// Control client (used by the deploy orchestrator and tests).
// ---------------------------------------------------------------------

/// A control connection to one daemon.
pub struct CtrlClient {
    stream: TcpStream,
    dec: FrameDecoder,
}

impl CtrlClient {
    /// Dials a daemon's control port, retrying while the process boots.
    pub fn connect(port: u16, timeout: Duration) -> std::io::Result<CtrlClient> {
        let addr = SocketAddr::from(([127, 0, 0, 1], port));
        let deadline = Instant::now() + timeout;
        let stream = loop {
            match TcpStream::connect_timeout(&addr, Duration::from_millis(250)) {
                Ok(s) => break s,
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        };
        let _ = stream.set_nodelay(true);
        let mut client = CtrlClient { stream, dec: FrameDecoder::new() };
        client.send(&WireMsg::Hello {
            peer: CONTROL_PEER,
            node_id: 0,
            proto_min: PROTO_VERSION,
            proto_max: PROTO_VERSION,
            listen_port: 0,
        })?;
        match client.recv(Duration::from_secs(5))? {
            WireMsg::HelloAck { proto, .. } if proto == PROTO_VERSION => Ok(client),
            other => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("handshake failed: {other:?}"),
            )),
        }
    }

    /// Sends one control frame.
    pub fn send(&mut self, msg: &WireMsg) -> std::io::Result<()> {
        self.stream.write_all(&encode_to_vec(msg))
    }

    /// Receives the next frame, waiting up to `timeout`.
    pub fn recv(&mut self, timeout: Duration) -> std::io::Result<WireMsg> {
        let deadline = Instant::now() + timeout;
        let mut buf = [0u8; 64 * 1024];
        loop {
            match self.dec.next_frame() {
                Ok(Some(frame)) => return Ok(frame),
                Ok(None) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(std::io::ErrorKind::TimedOut.into());
                    }
                    self.stream.set_read_timeout(Some(deadline - now))?;
                    match self.stream.read(&mut buf) {
                        Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
                        Ok(n) => self.dec.extend(&buf[..n]),
                        Err(e)
                            if e.kind() == std::io::ErrorKind::WouldBlock
                                || e.kind() == std::io::ErrorKind::TimedOut =>
                        {
                            return Err(std::io::ErrorKind::TimedOut.into())
                        }
                        Err(e) => return Err(e),
                    }
                }
                Err(e) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        e.to_string(),
                    ))
                }
            }
        }
    }

    /// Receives frames until one matches `want` (skipping others, e.g. a
    /// stats reply racing a stream report).
    pub fn recv_matching(
        &mut self,
        timeout: Duration,
        mut want: impl FnMut(&WireMsg) -> bool,
    ) -> std::io::Result<WireMsg> {
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(std::io::ErrorKind::TimedOut.into());
            }
            let frame = self.recv(deadline - now)?;
            if want(&frame) {
                return Ok(frame);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The deploy orchestrator.
// ---------------------------------------------------------------------

/// Parameters of one multi-process loopback deployment.
pub struct DeployConfig {
    /// The shared cluster config every daemon is started with.
    pub cluster: ClusterConfig,
    /// Path to the `spidernet-node` executable.
    pub node_exe: std::path::PathBuf,
    /// Function chain to compose (codes must be valid for the registry).
    pub chain: Vec<MediaFunction>,
    /// Composing peer.
    pub source: PeerId,
    /// Receiving peer.
    pub dest: PeerId,
    /// Probing budget β.
    pub budget: u32,
    /// Frames to stream.
    pub frames: u64,
    /// Model ms between frames.
    pub interval_ms: f64,
    /// Frame dimensions.
    pub dims: (u32, u32),
    /// Kill the primary path's first component mid-stream and require a
    /// backup switchover.
    pub kill_primary: bool,
    /// Overall wall-clock budget.
    pub timeout: Duration,
}

impl DeployConfig {
    /// The standard loopback scenario: chain of the first two registry
    /// functions, source/dest on peers hosting other functions — valid
    /// for any `peers >= 8` (every function keeps ≥1 replica and the
    /// two-function chain keeps ≥2, so kill-primary has a backup).
    pub fn standard(peers: usize, seed: u64, node_exe: std::path::PathBuf) -> DeployConfig {
        DeployConfig {
            cluster: ClusterConfig {
                peers,
                seed,
                time_scale: 0.05,
                collect_window_ms: 250.0,
                failover_timeout_ms: 400.0,
                ..ClusterConfig::default()
            },
            node_exe,
            chain: vec![MediaFunction::ALL[0], MediaFunction::ALL[1]],
            source: PeerId::new(2),
            dest: PeerId::new(3),
            budget: 8,
            frames: 200,
            interval_ms: 25.0,
            dims: (8, 8),
            kill_primary: false,
            timeout: Duration::from_secs(45),
        }
    }
}

impl DeployConfig {
    /// Checks the deployment before any daemon starts: the shared cluster
    /// settings ([`ClusterConfig::check`]), at least the 8 peers the
    /// standard scenario places its chain, source and destination on, and
    /// a probing budget of at least 1. Errors are
    /// [`std::io::ErrorKind::InvalidInput`].
    pub fn check(&self) -> std::io::Result<()> {
        self.cluster.check()?;
        if self.cluster.peers < 8 {
            return Err(invalid_input(format!(
                "a deployment needs at least 8 peers, got {}",
                self.cluster.peers
            )));
        }
        if self.budget == 0 {
            return Err(invalid_input("the probing budget must be at least 1"));
        }
        Ok(())
    }
}

/// What a deployment produced.
pub struct DeployOutcome {
    /// The composition result.
    pub setup: WireSetup,
    /// The streaming report.
    pub report: WireStreamReport,
    /// Per-node counter snapshots (killed nodes report zeros).
    pub stats: Vec<WireStats>,
    /// Order-independent digest of the deterministic outcome (selected
    /// path, backups, model-time metrics, delivered pixels) — equal
    /// across runs with the same seed when no faults/kills perturb
    /// wall-clock behaviour.
    pub fingerprint: u64,
}

impl DeployOutcome {
    /// A small hand-rolled JSON rendering (the repo has no serde).
    pub fn to_json(&self) -> String {
        let path: Vec<String> = self.setup.path.iter().map(|p| p.to_string()).collect();
        let final_path: Vec<String> = self.report.final_path.iter().map(|p| p.to_string()).collect();
        let dropped: u64 = self.stats.iter().map(|s| s.msgs_dropped).sum();
        format!(
            concat!(
                "{{\"ok\":{},\"path\":[{}],\"backups\":{},",
                "\"discovery_ms\":{:.3},\"probing_ms\":{:.3},\"init_ms\":{:.3},\"total_ms\":{:.3},",
                "\"sent\":{},\"delivered\":{},\"all_valid\":{},\"switches\":{},",
                "\"maintenance_probes\":{},\"final_path\":[{}],\"delivery_digest\":{},",
                "\"msgs_dropped\":{},\"recompositions\":0,\"fingerprint\":{}}}"
            ),
            self.setup.ok,
            path.join(","),
            self.setup.backups.len(),
            self.setup.discovery_ms,
            self.setup.probing_ms,
            self.setup.init_ms,
            self.setup.total_ms,
            self.report.sent,
            self.report.delivered,
            self.report.all_valid,
            self.report.switches,
            self.report.maintenance_probes,
            final_path.join(","),
            self.report.delivery_digest,
            dropped,
            self.fingerprint,
        )
    }
}

fn err(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::other(msg.into())
}

fn invalid_input(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidInput, msg.into())
}

/// Grabs `n` currently-free loopback ports by binding ephemeral
/// listeners. There is a small close-to-rebind window; daemons that lose
/// the race fail to bind and the deploy errors out rather than hanging.
fn free_ports(n: usize) -> std::io::Result<Vec<u16>> {
    let mut holders = Vec::with_capacity(n);
    let mut ports = Vec::with_capacity(n);
    for _ in 0..n {
        let l = TcpListener::bind(("127.0.0.1", 0))?;
        ports.push(l.local_addr()?.port());
        holders.push(l);
    }
    drop(holders);
    Ok(ports)
}

fn fold(h: u64, v: u64) -> u64 {
    splitmix64(h ^ v)
}

fn fold_setup(mut h: u64, setup: &WireSetup) -> u64 {
    h = fold(h, setup.ok as u64);
    for &p in &setup.path {
        h = fold(h, p);
    }
    for b in &setup.backups {
        h = fold(h, b.len() as u64);
        for &p in b {
            h = fold(h, p);
        }
    }
    for bits in [
        setup.discovery_ms.to_bits(),
        setup.probing_ms.to_bits(),
        setup.init_ms.to_bits(),
        setup.total_ms.to_bits(),
    ] {
        h = fold(h, bits);
    }
    h
}

fn fingerprint(setup: &WireSetup, report: &WireStreamReport) -> u64 {
    let mut h = fold_setup(0x5350494445524e45, setup); // "SPIDERNE"
    h = fold(h, report.sent);
    h = fold(h, report.delivered);
    h = fold(h, report.all_valid as u64);
    fold(h, report.delivery_digest)
}

/// Order-independent digest of a batch of composition outcomes (sorted by
/// request id, then paths, backups, and f64 metric bits folded in). Pure
/// model-time content — the same value in-process or over sockets,
/// regardless of wall clock or session concurrency, which is what lets
/// `deploy --sessions N` compare a concurrent socket deployment against N
/// sequential in-process compositions.
pub fn setup_fingerprint(setups: &[WireSetup]) -> u64 {
    let mut ordered: Vec<&WireSetup> = setups.iter().collect();
    ordered.sort_by_key(|s| s.request);
    let mut h = fold(0x5350494445524e45, setups.len() as u64);
    for s in ordered {
        h = fold(h, s.request);
        h = fold_setup(h, s);
    }
    h
}

/// Spawns one `serve` child per peer with the deployment's shared
/// config. The caller owns teardown.
fn spawn_children(cfg: &DeployConfig, ports: &[u16]) -> std::io::Result<Vec<Child>> {
    let peers = cfg.cluster.peers;
    let ports_arg = ports.iter().map(|p| p.to_string()).collect::<Vec<_>>().join(",");
    let mut children: Vec<Child> = Vec::with_capacity(peers);
    for i in 0..peers {
        let c = &cfg.cluster;
        let child = Command::new(&cfg.node_exe)
            .arg("serve")
            .args(["--index", &i.to_string()])
            .args(["--peers", &peers.to_string()])
            .args(["--seed", &c.seed.to_string()])
            .args(["--ports", &ports_arg])
            .args(["--jitter", &c.jitter.to_string()])
            .args(["--time-scale", &c.time_scale.to_string()])
            .args(["--collect-window-ms", &c.collect_window_ms.to_string()])
            .args(["--quota", &c.quota.to_string()])
            .args(["--failover-timeout-ms", &c.failover_timeout_ms.to_string()])
            .args(["--maintenance-period-ms", &c.maintenance_period_ms.to_string()])
            .args(["--collect-deadline-slack", &c.collect_deadline_slack.to_string()])
            .args(["--drop-prob", &c.faults.drop_prob.to_string()])
            .args(["--extra-delay-ms", &c.faults.extra_delay_ms.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn();
        match child {
            Ok(child) => children.push(child),
            Err(e) => {
                for mut c in children {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                return Err(e);
            }
        }
    }
    Ok(children)
}

/// Connects a control client to every daemon and waits until every
/// component registered into the DHT (the sum of all shard entries
/// reaches the peer count).
fn connect_and_bootstrap(
    cfg: &DeployConfig,
    ports: &[u16],
    deadline: Instant,
) -> std::io::Result<Vec<CtrlClient>> {
    let peers = cfg.cluster.peers;
    let mut clients: Vec<CtrlClient> = Vec::with_capacity(peers);
    for &port in ports {
        clients.push(CtrlClient::connect(port, Duration::from_secs(10))?);
    }
    loop {
        let mut total = 0u64;
        for client in clients.iter_mut() {
            client.send(&WireMsg::CtrlStatsRequest)?;
            match client.recv_matching(Duration::from_secs(5), |f| {
                matches!(f, WireMsg::CtrlStatsReply(_))
            })? {
                WireMsg::CtrlStatsReply(s) => total += s.store_entries,
                _ => unreachable!("matched above"),
            }
        }
        if total >= peers as u64 {
            return Ok(clients);
        }
        if Instant::now() >= deadline {
            return Err(err(format!(
                "bootstrap registration incomplete: {total}/{peers} entries"
            )));
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Spawns an N-process loopback deployment, drives one composition and
/// one streaming session end-to-end (optionally killing the primary
/// path's head mid-stream), gathers stats, and tears everything down. A
/// config failing [`DeployConfig::check`] is refused before any process
/// starts.
pub fn deploy(cfg: DeployConfig) -> std::io::Result<DeployOutcome> {
    cfg.check()?;
    let (outcome, reports) = run_deployment(&cfg, 1)?;
    let setup = outcome.setups.into_iter().next().expect("one session was composed");
    if !setup.ok {
        return Err(err("composition failed"));
    }
    let report = reports.into_iter().next().expect("a composed session streams");
    let fingerprint = fingerprint(&setup, &report);
    Ok(DeployOutcome { setup, report, stats: outcome.stats, fingerprint })
}

// ---------------------------------------------------------------------
// The many-session deployment benchmark (`deploy --sessions N`).
// ---------------------------------------------------------------------

/// What a many-session deployment produced (`deploy --sessions N`): the
/// raw material for BENCH_daemon.json.
pub struct MultiDeployOutcome {
    /// Sessions requested (= composed; request ids `1..=N`).
    pub sessions: u64,
    /// Sessions whose composition succeeded (and then streamed).
    pub setups_ok: u64,
    /// Per-session compose wall latency in ms, indexed by `request - 1`
    /// (send of `CtrlCompose` → arrival of its result, sessions running
    /// concurrently).
    pub setup_wall_ms: Vec<f64>,
    /// Wall seconds for the whole concurrent compose phase.
    pub compose_secs: f64,
    /// Wall seconds for the whole concurrent stream phase.
    pub stream_secs: f64,
    /// Media frames sent across all sessions.
    pub frames_sent: u64,
    /// Media frames delivered and validated across all sessions.
    pub frames_delivered: u64,
    /// Every delivered frame matched its transform chain.
    pub all_valid: bool,
    /// Backup switches summed over every session's stream report. With
    /// no peer killed, each one is a failover the daemons' own delays
    /// caused.
    pub switches: u64,
    /// Per-node counter snapshots after the stream phase.
    pub stats: Vec<WireStats>,
    /// Largest peak RSS (`VmHWM`) among the daemon processes, bytes.
    pub peak_child_rss_bytes: u64,
    /// [`setup_fingerprint`] over all N compositions — compare against
    /// the in-process cluster run with the same seed.
    pub setup_fingerprint: u64,
    /// The N compositions themselves, indexed by `request - 1` — for
    /// per-session inspection (e.g. diffing against an in-process run
    /// when the aggregate fingerprints disagree).
    pub setups: Vec<WireSetup>,
}

impl MultiDeployOutcome {
    /// The q-th percentile (0..=1) of the per-session setup latencies.
    pub fn setup_percentile_ms(&self, q: f64) -> f64 {
        let mut sorted = self.setup_wall_ms.clone();
        sorted.sort_by(f64::total_cmp);
        if sorted.is_empty() {
            return 0.0;
        }
        let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        sorted[idx]
    }
}

/// Spawns a loopback deployment and drives `sessions` concurrent
/// composition + streaming sessions through it (request ids `1..=N`, all
/// from `cfg.source` to `cfg.dest`), measuring per-session setup latency
/// and aggregate streaming throughput. A set `cfg.kill_primary` (fault
/// runs belong to [`deploy`]), zero sessions, and a config failing
/// [`DeployConfig::check`] are refused with
/// [`std::io::ErrorKind::InvalidInput`] before any process starts.
pub fn deploy_many(cfg: DeployConfig, sessions: u64) -> std::io::Result<MultiDeployOutcome> {
    cfg.check()?;
    if cfg.kill_primary {
        return Err(invalid_input("kill-primary applies to single-session deploys"));
    }
    if sessions == 0 {
        return Err(invalid_input("a deployment needs at least one session"));
    }
    run_deployment(&cfg, sessions).map(|(outcome, _)| outcome)
}

/// Spawns the daemons, [`drive`]s `sessions` sessions through them, and
/// kills and reaps every child whatever the outcome.
fn run_deployment(
    cfg: &DeployConfig,
    sessions: u64,
) -> std::io::Result<(MultiDeployOutcome, Vec<WireStreamReport>)> {
    let ports = free_ports(cfg.cluster.peers)?;
    let mut children = spawn_children(cfg, &ports)?;
    let result = drive(cfg, sessions, &ports, &mut children);
    for child in &mut children {
        let _ = child.kill();
        let _ = child.wait();
    }
    result
}

/// The one deployment driver. It connects and bootstraps, fires all
/// `sessions` composes from `cfg.source` before reading any result, then
/// starts every successful session's stream before reading any report.
/// With `cfg.kill_primary` it kills the first session's primary head a
/// quarter of the way into the stream. Last it sweeps every live
/// daemon's stats and shuts them down. The stream reports come back in
/// arrival order.
fn drive(
    cfg: &DeployConfig,
    sessions: u64,
    ports: &[u16],
    children: &mut [Child],
) -> std::io::Result<(MultiDeployOutcome, Vec<WireStreamReport>)> {
    let deadline = Instant::now() + cfg.timeout;
    let remaining = |deadline: Instant| {
        deadline.checked_duration_since(Instant::now()).ok_or_else(|| {
            std::io::Error::from(std::io::ErrorKind::TimedOut)
        })
    };
    let mut clients = connect_and_bootstrap(cfg, ports, deadline)?;
    let src = cfg.source.index();
    let n = sessions as usize;

    // Compose phase: fire all N requests, then collect all N results
    // (they multiplex over the source daemon's control connection in
    // completion order).
    let chain: Vec<u8> = cfg.chain.iter().map(|f| f.code()).collect();
    let compose_start = Instant::now();
    let mut sent_at: Vec<Instant> = Vec::with_capacity(n);
    for request in 1..=sessions {
        sent_at.push(Instant::now());
        clients[src].send(&WireMsg::CtrlCompose {
            request,
            dest: cfg.dest.raw(),
            chain: chain.clone(),
            budget: cfg.budget,
        })?;
    }
    let mut setups: Vec<Option<WireSetup>> = (0..n).map(|_| None).collect();
    let mut setup_wall_ms = vec![0.0f64; n];
    for _ in 0..n {
        let frame = clients[src].recv_matching(remaining(deadline)?, |f| {
            matches!(f, WireMsg::CtrlComposeResult(_))
        })?;
        let WireMsg::CtrlComposeResult(s) = frame else { unreachable!("matched above") };
        let arrived = Instant::now();
        let idx = (s.request as usize)
            .checked_sub(1)
            .filter(|&i| i < n)
            .ok_or_else(|| err(format!("result for unknown request {}", s.request)))?;
        setup_wall_ms[idx] = (arrived - sent_at[idx]).as_secs_f64() * 1_000.0;
        setups[idx] = Some(s);
    }
    let compose_secs = compose_start.elapsed().as_secs_f64();
    let setups: Vec<WireSetup> = setups
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.ok_or_else(|| err(format!("request {} never resolved", i + 1))))
        .collect::<std::io::Result<_>>()?;
    let setups_ok = setups.iter().filter(|s| s.ok).count() as u64;
    // A kill needs a composed primary and a backup to switch to.
    let first = &setups[0];
    let killed = if cfg.kill_primary && first.ok {
        if first.backups.is_empty() {
            return Err(err("kill-primary requested but probing found no backup path"));
        }
        Some(first.path[0] as usize)
    } else {
        None
    };

    // Stream phase: every successful session streams concurrently.
    let stream_start = Instant::now();
    let mut streaming = 0usize;
    for s in setups.iter().filter(|s| s.ok) {
        clients[src].send(&WireMsg::CtrlStream {
            session: s.request,
            path: s.path.clone(),
            functions: s.functions.clone(),
            backups: s.backups.clone(),
            dest: s.dest,
            frames: cfg.frames,
            interval_ms: cfg.interval_ms,
            width: cfg.dims.0,
            height: cfg.dims.1,
        })?;
        streaming += 1;
    }
    if let Some(head) = killed {
        // Let roughly a quarter of the stream flow, then fail the head.
        let quarter = cfg.frames as f64 * cfg.interval_ms * cfg.cluster.time_scale / 1_000.0 * 0.25;
        std::thread::sleep(Duration::from_secs_f64(quarter.max(0.05)));
        children[head].kill()?;
        children[head].wait()?;
    }
    let mut reports = Vec::with_capacity(streaming);
    for _ in 0..streaming {
        let frame = clients[src].recv_matching(remaining(deadline)?, |f| {
            matches!(f, WireMsg::CtrlStreamReport(_))
        })?;
        let WireMsg::CtrlStreamReport(r) = frame else { unreachable!("matched above") };
        reports.push(r);
    }
    let stream_secs = stream_start.elapsed().as_secs_f64();

    // Peak RSS while the children are still alive (VmHWM survives until
    // process exit, not after).
    let peak_child_rss_bytes = children
        .iter()
        .filter_map(|c| spidernet_util::bench::peak_rss_bytes_for(c.id()))
        .max()
        .unwrap_or(0);

    // Stats sweep (a killed daemon reports zeros), then graceful shutdown
    // for whoever is still alive (the caller reaps).
    let mut stats = Vec::with_capacity(clients.len());
    for (i, client) in clients.iter_mut().enumerate() {
        let snap = (Some(i) != killed).then(|| {
            client.send(&WireMsg::CtrlStatsRequest).and_then(|()| {
                client.recv_matching(Duration::from_secs(5), |f| {
                    matches!(f, WireMsg::CtrlStatsReply(_))
                })
            })
        });
        match snap {
            Some(Ok(WireMsg::CtrlStatsReply(s))) => stats.push(s),
            _ => stats.push(WireStats { peer: i as u64, ..WireStats::default() }),
        }
    }
    for (i, client) in clients.iter_mut().enumerate() {
        if Some(i) != killed {
            let _ = client.send(&WireMsg::CtrlShutdown);
        }
    }

    let outcome = MultiDeployOutcome {
        sessions,
        setups_ok,
        setup_wall_ms,
        compose_secs,
        stream_secs,
        frames_sent: reports.iter().map(|r| r.sent).sum(),
        frames_delivered: reports.iter().map(|r| r.delivered).sum(),
        all_valid: reports.iter().all(|r| r.all_valid),
        switches: reports.iter().map(|r| r.switches as u64).sum(),
        stats,
        peak_child_rss_bytes,
        setup_fingerprint: setup_fingerprint(&setups),
        setups,
    };
    Ok((outcome, reports))
}
