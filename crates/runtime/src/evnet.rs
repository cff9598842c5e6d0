//! The daemon's connection I/O: every connection of a `spidernet-node`
//! process multiplexed over one `epoll` poller thread (see
//! [`crate::poll`]).
//!
//! The engine, delay queues, fault injection, and control protocol live
//! upstream in [`crate::net`]; this module only moves frames between them
//! and sockets. It never inspects frame contents beyond routing: peer
//! frames go to the engine as they decoded, and the engine's entry check
//! drops malformed ones. Everything upstream of a socket behaves as in the
//! in-process cluster, which is what keeps deployment fingerprints
//! bit-equal to it.
//!
//! ## Structure
//!
//! One `evnet` thread owns the listener, every established socket, and
//! all outbound queues. Other threads talk to it through a command
//! channel paired with an eventfd waker:
//!
//! * the outbound delay queue sends `Cmd::Send` (a wire message for a
//!   peer, already WAN-delayed and fault-filtered);
//! * engine reply sinks send `Cmd::Reply` (a control frame back to the
//!   client connection it came from);
//! * transient dial helpers send `Cmd::Dialed`/`Cmd::DialFailed` once a
//!   blocking [`dial_peer`] handshake resolves.
//!
//! Dials stay blocking — on loopback they resolve in microseconds, and
//! running them on short-lived helper threads keeps the retry/backoff/
//! handshake logic a plain loop instead of a poller state machine.
//!
//! ## Backpressure
//!
//! Each connection carries a bounded outbound queue
//! ([`OUTQ_CAP_BYTES`]). When a queue is full, *media frames*
//! (`StreamFrame` — droppable by protocol design, the stream layer
//! tolerates loss) are shed and their buffers recycled; everything else
//! (probes, acks, registrations, control replies) is always queued, so
//! a slow consumer can never change setup or failover outcomes — only
//! delivery counts, exactly like a congested WAN. Shedding records
//! [`TraceEvent::ConnBackpressure`]; crossing the high-water mark (half
//! the cap) records [`TraceEvent::QueueDepth`].
//!
//! ## Buffers
//!
//! All frames are encoded through a shared [`BufPool`] —
//! `encoded_len()`-sized, recycled after the write (or the shed), so
//! steady-state streaming does not allocate per frame.

#![cfg(target_os = "linux")]

use crate::net::{dial_peer, EngineInput, NetStats, ReplySink, PEER_DOWN_COOLDOWN};
use crate::node::World;
use crate::poll::{Poller, Waker};
use spidernet_sim::trace::TraceEvent;
use spidernet_util::id::PeerId;
use spidernet_wire::{negotiate, BufPool, FrameDecoder, WireMsg, CONTROL_PEER, PROTO_VERSION};
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outbound queue budget per connection. At the default 8×8 media frames
/// (~300 B on the wire) this is deep enough that shedding only starts
/// when a peer is genuinely not draining.
pub(crate) const OUTQ_CAP_BYTES: usize = 256 * 1024;

/// Most frames handed to one `writev` call.
const MAX_WRITE_BATCH: usize = 16;

const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKER: u64 = u64::MAX - 1;

// ---------------------------------------------------------------------
// The bounded outbound queue.
// ---------------------------------------------------------------------

/// What happened to a frame offered to an [`OutQueue`].
#[derive(Debug)]
pub(crate) enum Push {
    /// Queued; `crossed_high_water` is true the first time the queue
    /// grows past half its cap (re-armed once it drains back below).
    Queued {
        /// True exactly when this push crossed the high-water mark.
        crossed_high_water: bool,
    },
    /// The queue was full and the frame was droppable media — it never
    /// entered the queue. The buffer comes back for recycling.
    Shed(Vec<u8>),
}

/// A per-connection outbound byte queue with a shed policy: droppable
/// media frames bounce off a full queue, everything else always enters
/// (control traffic must never be lost to backpressure — setup and
/// failover determinism depends on it).
pub(crate) struct OutQueue {
    frames: VecDeque<Vec<u8>>,
    /// Bytes of `frames[0]` already written.
    front_off: usize,
    bytes: usize,
    cap: usize,
    above_high_water: bool,
}

impl OutQueue {
    pub(crate) fn new(cap: usize) -> OutQueue {
        OutQueue { frames: VecDeque::new(), front_off: 0, bytes: 0, cap, above_high_water: false }
    }

    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Offers one encoded frame. `droppable` marks media frames — the
    /// only class the queue may refuse.
    pub(crate) fn push(&mut self, frame: Vec<u8>, droppable: bool) -> Push {
        if droppable && self.bytes + frame.len() > self.cap {
            return Push::Shed(frame);
        }
        self.bytes += frame.len();
        self.frames.push_back(frame);
        let crossed = !self.above_high_water && self.bytes > self.cap / 2;
        if crossed {
            self.above_high_water = true;
        }
        Push::Queued { crossed_high_water: crossed }
    }

    /// Writes as much as the socket takes (vectored, up to
    /// [`MAX_WRITE_BATCH`] frames per call), recycling fully-written
    /// frames into `pool`. `Ok` with a non-empty queue means the socket
    /// is full — keep write interest registered.
    fn flush(&mut self, stream: &mut TcpStream, pool: &BufPool, stats: &NetStats) -> io::Result<()> {
        while !self.frames.is_empty() {
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(MAX_WRITE_BATCH);
            for (i, f) in self.frames.iter().take(MAX_WRITE_BATCH).enumerate() {
                slices.push(IoSlice::new(if i == 0 { &f[self.front_off..] } else { f }));
            }
            match stream.write_vectored(&slices) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(mut n) => {
                    stats.bytes_tx.fetch_add(n as u64, Ordering::Relaxed);
                    self.bytes -= n;
                    while n > 0 {
                        let front_rem = self.frames[0].len() - self.front_off;
                        if n >= front_rem {
                            n -= front_rem;
                            self.front_off = 0;
                            let done = self.frames.pop_front().expect("non-empty");
                            stats.frames_tx.fetch_add(1, Ordering::Relaxed);
                            pool.put(done);
                        } else {
                            self.front_off += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.above_high_water && self.bytes <= self.cap / 2 {
            self.above_high_water = false;
        }
        Ok(())
    }

    /// Recycles every queued buffer (connection teardown).
    fn drain_to_pool(&mut self, pool: &BufPool) {
        self.front_off = 0;
        self.bytes = 0;
        for f in self.frames.drain(..) {
            pool.put(f);
        }
    }
}

// ---------------------------------------------------------------------
// Connections and commands.
// ---------------------------------------------------------------------

enum ConnKind {
    /// Accepted, `Hello` not yet seen.
    Pending,
    /// Inbound peer connection (read side of a neighbor's dial).
    PeerIn(PeerId),
    /// Inbound control client.
    Ctrl,
    /// Outbound peer connection we dialed (write side; read only for
    /// EOF detection).
    PeerOut(PeerId),
}

struct Conn {
    stream: TcpStream,
    kind: ConnKind,
    dec: FrameDecoder,
    outq: OutQueue,
    want_write: bool,
}

impl Conn {
    fn peer_raw(&self) -> u64 {
        match self.kind {
            ConnKind::PeerIn(p) | ConnKind::PeerOut(p) => p.raw(),
            ConnKind::Ctrl => CONTROL_PEER,
            ConnKind::Pending => u64::MAX - 1,
        }
    }
}

/// Where a peer's outbound traffic currently goes.
enum OutState {
    /// A helper thread is dialing; frames queue here meanwhile.
    Dialing(OutQueue),
    /// Established — frames go to this connection token.
    Up(u64),
    /// Dial budget exhausted; traffic dropped until the cooldown ends.
    Down(Instant),
}

enum Cmd {
    /// Encode and send one wire message toward a peer (dialing it first
    /// if needed).
    Send { to: PeerId, msg: WireMsg },
    /// Send a control reply back down the connection it belongs to
    /// (dropped silently if that connection is gone).
    Reply { conn: u64, msg: WireMsg },
    /// A dial helper finished its handshake.
    Dialed { to: PeerId, stream: TcpStream },
    /// A dial helper exhausted its attempt budget.
    DialFailed { to: PeerId },
}

// ---------------------------------------------------------------------
// The public handle.
// ---------------------------------------------------------------------

/// Handle to a running event transport: cheap to clone, safe to use from
/// any thread. Dropping every handle does not stop the poller thread —
/// the daemon's lifetime is the process (shutdown is `CtrlShutdown` →
/// `run_node` returns → process exit).
#[derive(Clone)]
pub(crate) struct EventNet {
    cmds: Sender<Cmd>,
    waker: Arc<Waker>,
}

impl EventNet {
    /// Takes ownership of the daemon's listener and spawns the poller
    /// thread. Decoded peer frames and control inputs flow into
    /// `engine`.
    pub(crate) fn start(
        listener: TcpListener,
        me: PeerId,
        ports: Arc<Vec<u16>>,
        stats: Arc<NetStats>,
        world: Arc<World>,
        engine: Sender<EngineInput>,
    ) -> io::Result<EventNet> {
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        let waker = Arc::new(Waker::new()?);
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, true, false)?;
        poller.add(waker.fd(), TOKEN_WAKER, true, false)?;
        let (cmds, rx) = channel();
        let net = EventNet { cmds, waker };
        let lp = Loop {
            me,
            ports,
            stats,
            world,
            engine,
            net: net.clone(),
            poller,
            listener,
            rx,
            conns: HashMap::new(),
            next_token: 0,
            out: HashMap::new(),
            pool: BufPool::default(),
        };
        std::thread::Builder::new().name("evnet".into()).spawn(move || lp.run())?;
        Ok(net)
    }

    /// Queues one wire message toward `to`.
    pub(crate) fn send(&self, to: PeerId, msg: WireMsg) {
        if self.cmds.send(Cmd::Send { to, msg }).is_ok() {
            self.waker.wake();
        }
    }

    /// A reply sink bound to connection `conn` (for the engine's control
    /// inputs).
    fn reply_sink(&self, conn: u64) -> ReplySink {
        let net = self.clone();
        Arc::new(move |msg| {
            if net.cmds.send(Cmd::Reply { conn, msg }).is_ok() {
                net.waker.wake();
            }
        })
    }
}

// ---------------------------------------------------------------------
// The poller loop.
// ---------------------------------------------------------------------

struct Loop {
    me: PeerId,
    ports: Arc<Vec<u16>>,
    stats: Arc<NetStats>,
    world: Arc<World>,
    engine: Sender<EngineInput>,
    net: EventNet,
    poller: Poller,
    listener: TcpListener,
    rx: Receiver<Cmd>,
    conns: HashMap<u64, Conn>,
    /// Monotonic; tokens are never reused, so a stale reply sink can
    /// never reach a recycled connection slot.
    next_token: u64,
    out: HashMap<PeerId, OutState>,
    pool: BufPool,
}

impl Loop {
    fn run(mut self) {
        let mut events = Vec::new();
        loop {
            loop {
                match self.rx.try_recv() {
                    Ok(cmd) => self.handle_cmd(cmd),
                    Err(TryRecvError::Empty) => break,
                    // Every handle dropped: the daemon is shutting down.
                    Err(TryRecvError::Disconnected) => return,
                }
            }
            // The timeout is a safety valve (Down-state expiry has no
            // dedicated timer); commands arrive via the waker.
            if self.poller.wait(&mut events, Some(Duration::from_millis(500))).is_err() {
                return;
            }
            for ev in std::mem::take(&mut events) {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.net.waker.drain(),
                    token => self.conn_event(token, ev.readable, ev.writable, ev.hangup),
                }
            }
        }
    }

    fn handle_cmd(&mut self, cmd: Cmd) {
        match cmd {
            Cmd::Send { to, msg } => self.send_to_peer(to, msg),
            Cmd::Reply { conn, msg } => {
                let frame = self.pool.encode(&msg);
                self.enqueue(conn, frame, false);
            }
            Cmd::Dialed { to, stream } => self.on_dialed(to, stream),
            Cmd::DialFailed { to } => self.on_dial_failed(to),
        }
    }

    /// Routes one outbound wire message: straight onto an established
    /// connection's queue, into the holding queue of an in-flight dial,
    /// dropped during a peer's down cooldown, or triggering a fresh dial.
    fn send_to_peer(&mut self, to: PeerId, msg: WireMsg) {
        // The only frame class backpressure may shed. This is narrower
        // than `WireMsg::droppable` on purpose: probes/acks tolerate *wire*
        // loss, but shedding them locally under load would couple setup
        // outcomes to scheduling. Media frames are the paper's droppable
        // payload class.
        let droppable = matches!(msg, WireMsg::StreamFrame { .. });
        match self.out.get_mut(&to) {
            Some(OutState::Up(token)) => {
                let token = *token;
                let frame = self.pool.encode(&msg);
                self.enqueue(token, frame, droppable);
            }
            Some(OutState::Dialing(q)) => {
                let frame = self.pool.encode(&msg);
                match q.push(frame, droppable) {
                    Push::Shed(f) => {
                        self.world.record(TraceEvent::ConnBackpressure {
                            peer: to.raw(),
                            shed_bytes: f.len() as u64,
                        });
                        self.pool.put(f);
                    }
                    Push::Queued { crossed_high_water: true } => {
                        let queued_bytes = q.bytes() as u64;
                        self.world.record(TraceEvent::QueueDepth { peer: to.raw(), queued_bytes });
                    }
                    Push::Queued { .. } => {}
                }
            }
            Some(OutState::Down(until)) if Instant::now() < *until => {
                // Peer presumed dead: drop its traffic.
            }
            _ => {
                // No state or an expired cooldown: dial.
                let mut q = OutQueue::new(OUTQ_CAP_BYTES);
                let frame = self.pool.encode(&msg);
                let _ = q.push(frame, droppable); // empty queue always accepts
                self.out.insert(to, OutState::Dialing(q));
                self.spawn_dial(to);
            }
        }
    }

    /// Runs the blocking dial + handshake on a transient helper thread;
    /// the outcome comes back as a command.
    fn spawn_dial(&self, to: PeerId) {
        let me = self.me;
        let ports = self.ports.clone();
        let stats = self.stats.clone();
        let world = self.world.clone();
        let cmds = self.net.cmds.clone();
        let waker = self.net.waker.clone();
        std::thread::spawn(move || {
            let cmd = match dial_peer(me, &ports, to, &stats, &world) {
                Some(stream) => Cmd::Dialed { to, stream },
                None => Cmd::DialFailed { to },
            };
            if cmds.send(cmd).is_ok() {
                waker.wake();
            }
        });
    }

    fn on_dialed(&mut self, to: PeerId, stream: TcpStream) {
        let outq = match self.out.remove(&to) {
            Some(OutState::Dialing(q)) => q,
            other => {
                // A stale dial result (state already moved on): keep the
                // newer state, use the socket with an empty queue.
                if let Some(state) = other {
                    self.out.insert(to, state);
                    return;
                }
                OutQueue::new(OUTQ_CAP_BYTES)
            }
        };
        if stream.set_nonblocking(true).is_err() {
            self.out.insert(to, OutState::Down(Instant::now() + PEER_DOWN_COOLDOWN));
            return;
        }
        let token = self.next_token;
        self.next_token += 1;
        let want_write = !outq.is_empty();
        if self.poller.add(stream.as_raw_fd(), token, true, want_write).is_err() {
            self.out.insert(to, OutState::Down(Instant::now() + PEER_DOWN_COOLDOWN));
            return;
        }
        self.conns.insert(
            token,
            Conn { stream, kind: ConnKind::PeerOut(to), dec: FrameDecoder::new(), outq, want_write },
        );
        self.out.insert(to, OutState::Up(token));
        self.flush_conn(token);
    }

    fn on_dial_failed(&mut self, to: PeerId) {
        self.world.record(TraceEvent::ConnClosed { peer: to.raw() });
        if let Some(OutState::Dialing(mut q)) = self.out.remove(&to) {
            q.drain_to_pool(&self.pool);
        }
        self.out.insert(to, OutState::Down(Instant::now() + PEER_DOWN_COOLDOWN));
    }

    /// Adds `frame` to connection `token`'s queue (recording shed /
    /// high-water traces) and flushes.
    fn enqueue(&mut self, token: u64, frame: Vec<u8>, droppable: bool) {
        let Some(conn) = self.conns.get_mut(&token) else {
            // Connection already gone (e.g. a reply racing a disconnect).
            self.pool.put(frame);
            return;
        };
        let peer = conn.peer_raw();
        match conn.outq.push(frame, droppable) {
            Push::Shed(f) => {
                self.world
                    .record(TraceEvent::ConnBackpressure { peer, shed_bytes: f.len() as u64 });
                self.pool.put(f);
            }
            Push::Queued { crossed_high_water } => {
                if crossed_high_water {
                    let queued_bytes = conn.outq.bytes() as u64;
                    self.world.record(TraceEvent::QueueDepth { peer, queued_bytes });
                }
                self.flush_conn(token);
            }
        }
    }

    /// Flushes a connection's queue and reconciles its write interest.
    fn flush_conn(&mut self, token: u64) {
        let Some(mut conn) = self.conns.remove(&token) else { return };
        match conn.outq.flush(&mut conn.stream, &self.pool, &self.stats) {
            Ok(()) => {
                let want = !conn.outq.is_empty();
                if want != conn.want_write {
                    conn.want_write = want;
                    let _ = self.poller.modify(conn.stream.as_raw_fd(), token, true, want);
                }
                self.conns.insert(token, conn);
            }
            Err(_) => self.drop_conn(token, conn),
        }
    }

    /// Tears down a connection already removed from the map.
    fn drop_conn(&mut self, _token: u64, mut conn: Conn) {
        let _ = self.poller.remove(conn.stream.as_raw_fd());
        conn.outq.drain_to_pool(&self.pool);
        if let ConnKind::PeerOut(peer) = conn.kind {
            self.world.record(TraceEvent::ConnClosed { peer: peer.raw() });
            self.out.insert(peer, OutState::Down(Instant::now() + PEER_DOWN_COOLDOWN));
        }
        // `conn.stream` drops here, closing the fd.
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self.poller.add(stream.as_raw_fd(), token, true, false).is_err() {
                        continue;
                    }
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            kind: ConnKind::Pending,
                            dec: FrameDecoder::new(),
                            outq: OutQueue::new(OUTQ_CAP_BYTES),
                            want_write: false,
                        },
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn conn_event(&mut self, token: u64, readable: bool, writable: bool, hangup: bool) {
        if readable || hangup {
            if !self.read_ready(token) {
                return; // connection closed during the read
            }
            if hangup {
                // ERR/HUP with nothing left to read: tear down.
                if let Some(conn) = self.conns.remove(&token) {
                    self.drop_conn(token, conn);
                }
                return;
            }
        }
        if writable {
            self.flush_conn(token);
        }
    }

    /// Drains the socket's read side, decoding and dispatching frames.
    /// Returns false when the connection was closed.
    fn read_ready(&mut self, token: u64) -> bool {
        let Some(mut conn) = self.conns.remove(&token) else { return false };
        let mut buf = [0u8; 64 * 1024];
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    self.drop_conn(token, conn);
                    return false;
                }
                Ok(n) => {
                    self.stats.bytes_rx.fetch_add(n as u64, Ordering::Relaxed);
                    conn.dec.extend(&buf[..n]);
                    loop {
                        match conn.dec.next_frame() {
                            Ok(Some(frame)) => {
                                self.stats.frames_rx.fetch_add(1, Ordering::Relaxed);
                                if !self.on_frame(token, &mut conn, frame) {
                                    self.drop_conn(token, conn);
                                    return false;
                                }
                            }
                            Ok(None) => break,
                            Err(_) => {
                                self.stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                                self.drop_conn(token, conn);
                                return false;
                            }
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.drop_conn(token, conn);
                    return false;
                }
            }
        }
        self.conns.insert(token, conn);
        true
    }

    /// One decoded frame off a connection. Returns false to close it.
    fn on_frame(&mut self, token: u64, conn: &mut Conn, frame: WireMsg) -> bool {
        match conn.kind {
            ConnKind::Pending => match frame {
                WireMsg::Hello { peer, proto_min, proto_max, .. } => {
                    let Some(proto) =
                        negotiate((PROTO_VERSION, PROTO_VERSION), (proto_min, proto_max))
                    else {
                        return false;
                    };
                    conn.kind = if peer == CONTROL_PEER {
                        ConnKind::Ctrl
                    } else {
                        ConnKind::PeerIn(PeerId::new(peer))
                    };
                    let ack = self.pool.encode(&WireMsg::HelloAck { peer: u64::MAX, proto });
                    match conn.outq.push(ack, false) {
                        Push::Queued { .. } => {}
                        Push::Shed(f) => self.pool.put(f), // unreachable: not droppable
                    }
                    // The conn is checked out of the map; flush directly.
                    if conn.outq.flush(&mut conn.stream, &self.pool, &self.stats).is_err() {
                        return false;
                    }
                    let want = !conn.outq.is_empty();
                    if want != conn.want_write {
                        conn.want_write = want;
                        let _ = self.poller.modify(conn.stream.as_raw_fd(), token, true, want);
                    }
                    true
                }
                _ => {
                    // Anything before the Hello is a protocol violation.
                    self.stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                    false
                }
            },
            ConnKind::PeerIn(_) | ConnKind::PeerOut(_) => {
                self.engine.send(EngineInput::Wire(frame)).is_ok()
            }
            ConnKind::Ctrl => {
                let sink = self.net.reply_sink(token);
                self.engine.send(EngineInput::Ctrl(frame, sink)).is_ok()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::ClusterConfig;
    use spidernet_wire::encode_to_vec;

    /// The backpressure contract the tentpole pins: a full bounded queue
    /// sheds ONLY droppable media frames; control-class traffic always
    /// enters, even past the cap.
    #[test]
    fn full_queue_sheds_only_droppable_media_frames() {
        let mut q = OutQueue::new(1000);
        let media = vec![7u8; 400];
        assert!(matches!(q.push(media.clone(), true), Push::Queued { .. }));
        assert!(matches!(q.push(media.clone(), true), Push::Queued { .. }));
        // 800 + 400 > 1000: the media frame bounces, untouched.
        match q.push(media.clone(), true) {
            Push::Shed(f) => assert_eq!(f.len(), 400),
            other => panic!("expected shed, got {other:?}"),
        }
        assert_eq!(q.bytes(), 800);
        // A control frame of the same size always enters, even over cap.
        assert!(matches!(q.push(vec![1u8; 400], false), Push::Queued { .. }));
        assert!(q.bytes() > 1000, "control frames are never bounded away");
        // And media stays shed while the queue remains over-full.
        assert!(matches!(q.push(media, true), Push::Shed(_)));
    }

    #[test]
    fn high_water_mark_fires_once_per_congestion_episode() {
        let mut q = OutQueue::new(1000);
        match q.push(vec![0u8; 400], false) {
            Push::Queued { crossed_high_water } => assert!(!crossed_high_water),
            other => panic!("{other:?}"),
        }
        match q.push(vec![0u8; 400], false) {
            Push::Queued { crossed_high_water } => assert!(crossed_high_water, "800 > 500"),
            other => panic!("{other:?}"),
        }
        match q.push(vec![0u8; 100], false) {
            Push::Queued { crossed_high_water } => {
                assert!(!crossed_high_water, "already above: no repeat event")
            }
            other => panic!("{other:?}"),
        }
    }

    fn test_world(peers: usize) -> Arc<World> {
        Arc::new(World::build(ClusterConfig { peers, ..ClusterConfig::default() }))
    }

    fn hello(peer: u64) -> WireMsg {
        WireMsg::Hello {
            peer,
            node_id: 0,
            proto_min: PROTO_VERSION,
            proto_max: PROTO_VERSION,
            listen_port: 0,
        }
    }

    fn read_one_frame(stream: &mut TcpStream, dec: &mut FrameDecoder) -> WireMsg {
        let mut buf = [0u8; 4096];
        loop {
            if let Ok(Some(frame)) = dec.next_frame() {
                return frame;
            }
            let n = stream.read(&mut buf).expect("read");
            assert!(n > 0, "unexpected EOF");
            dec.extend(&buf[..n]);
        }
    }

    /// End-to-end through one poller: a blocking control client
    /// handshakes, sends a control frame, the engine replies through the
    /// sink, and the reply comes back over the same connection.
    #[test]
    fn accepts_a_control_client_and_replies_through_the_sink() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let (engine_tx, engine_rx) = channel();
        let _net = EventNet::start(
            listener,
            PeerId::new(0),
            Arc::new(vec![port]),
            Arc::new(NetStats::default()),
            test_world(8),
            engine_tx,
        )
        .unwrap();

        let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut dec = FrameDecoder::new();
        stream.write_all(&encode_to_vec(&hello(CONTROL_PEER))).unwrap();
        match read_one_frame(&mut stream, &mut dec) {
            WireMsg::HelloAck { proto, .. } => assert_eq!(proto, PROTO_VERSION),
            other => panic!("expected HelloAck, got {other:?}"),
        }

        stream.write_all(&encode_to_vec(&WireMsg::CtrlStatsRequest)).unwrap();
        let sink = match engine_rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            EngineInput::Ctrl(WireMsg::CtrlStatsRequest, sink) => sink,
            _ => panic!("expected the control frame at the engine"),
        };
        sink(WireMsg::CtrlShutdown);
        match read_one_frame(&mut stream, &mut dec) {
            WireMsg::CtrlShutdown => {}
            other => panic!("expected the sink's reply, got {other:?}"),
        }
    }

    /// Two pollers: node 0 dials node 1 on demand (helper thread +
    /// handshake) and a protocol frame arrives at node 1's engine.
    #[test]
    fn dials_on_demand_and_delivers_peer_frames() {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let ports = Arc::new(vec![
            l0.local_addr().unwrap().port(),
            l1.local_addr().unwrap().port(),
        ]);
        let world = test_world(8);
        let (tx0, _rx0) = channel();
        let (tx1, rx1) = channel();
        let net0 = EventNet::start(
            l0,
            PeerId::new(0),
            ports.clone(),
            Arc::new(NetStats::default()),
            world.clone(),
            tx0,
        )
        .unwrap();
        let _net1 = EventNet::start(
            l1,
            PeerId::new(1),
            ports,
            Arc::new(NetStats::default()),
            world,
            tx1,
        )
        .unwrap();

        let msg = WireMsg::DhtLookup { query: 9, key: 42, origin: 0, hops: 1, at_ms: 12.5 };
        net0.send(PeerId::new(1), msg);
        match rx1.recv_timeout(Duration::from_secs(5)).unwrap() {
            EngineInput::Wire(WireMsg::DhtLookup { query, hops, .. }) => {
                assert_eq!((query, hops), (9, 1));
            }
            _ => panic!("expected the lookup delivered to node 1's engine"),
        }
    }
}
