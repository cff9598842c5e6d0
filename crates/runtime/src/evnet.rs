//! The daemon's event loop: one `spidernet-node` process runs its whole
//! peer on the thread that called [`crate::net::run_node`].
//!
//! ## Structure
//!
//! One loop owns the listener, every connection, the [`PeerNode`] and
//! one event queue of the engine's sends and timers, ordered by due time
//! in model ms: the in-process cluster's queue type
//! ([`spidernet_sim::EventQueue`]). Model time "now" is the wall time
//! since the loop started over `time_scale`. Each engine call writes into
//! an [`Outbox`] at now; its sends and timers are queued at now plus their
//! delays, and its setup results and stream reports go onto the control
//! connection whose `CtrlCompose`/`CtrlStream` asked for them. A due wire
//! message is rolled once for injected faults (`node::roll_faults`, on
//! this daemon's own `"net-faults"` stream), then dropped, held back, or
//! delivered: into this peer's engine when it is addressed here, else
//! encoded onto the connection to its peer. One turn of the loop:
//!
//! 1. take the results of finished dials;
//! 2. fire every event due by now;
//! 3. re-announce this peer's component every [`ANNOUNCE_EVERY`] (soft
//!    state: registrations are droppable wire traffic);
//! 4. flush each connection that took frames this turn, once;
//! 5. arm a `timerfd` ([`Alarm`]) for the earlier of the queue head and
//!    the next announce;
//! 6. block in `epoll_wait` until a socket is ready or the alarm fires,
//!    then accept, read and dispatch.
//!
//! Frames read off a connection are dispatched once it is back in the
//! connection map, so a control reply finds it there. The engine's entry
//! check drops malformed peer frames; this module never inspects frame
//! contents beyond routing.
//!
//! Dials stay blocking, on short-lived helper threads: a dial to a dead
//! peer retries with backoff for over a second, which would stall the
//! loop. A helper's result comes back over a channel and an eventfd
//! [`Waker`].
//!
//! ## Backpressure
//!
//! Each connection carries a bounded outbound queue
//! ([`OUTQ_CAP_BYTES`]). When a queue is full, *media frames*
//! (`StreamFrame` — droppable by protocol design, the stream layer
//! tolerates loss) are shed and their buffers recycled; everything else
//! (probes, acks, registrations, control replies) is always queued, so
//! a slow consumer can never change setup or failover outcomes — only
//! delivery counts, exactly like a congested WAN. A shed frame is counted
//! in [`World::msgs_dropped`] and recorded as
//! [`TraceEvent::ConnBackpressure`]; crossing the high-water mark (half
//! the cap) records [`TraceEvent::QueueDepth`].
//!
//! ## Buffers
//!
//! All frames are encoded through a shared [`BufPool`] —
//! `encoded_len()`-sized, recycled after the write (or the shed), so
//! steady-state streaming does not allocate per frame.

#![cfg(target_os = "linux")]

use crate::cluster::{schedule, Body, EventQueue};
use crate::net::{dial_peer, report_to_wire, setup_to_wire, NetStats, PEER_DOWN_COOLDOWN};
use crate::node::{roll_faults, Fault, Outbox, PeerNode, World};
use crate::poll::{Alarm, Poller, Waker};
use spidernet_sim::trace::TraceEvent;
use spidernet_util::id::PeerId;
use spidernet_util::rng::{rng_for_indexed, Rng};
use spidernet_wire::{
    negotiate, BufPool, FrameDecoder, WireMsg, WireStats, CONTROL_PEER, PROTO_VERSION,
};
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outbound queue budget per connection. At the default 8×8 media frames
/// (~300 B on the wire) this is deep enough that shedding only starts
/// when a peer is genuinely not draining.
pub(crate) const OUTQ_CAP_BYTES: usize = 256 * 1024;

/// Most frames handed to one `writev` call.
const MAX_WRITE_BATCH: usize = 16;

/// Wall time between announcements of this peer's component.
const ANNOUNCE_EVERY: Duration = Duration::from_millis(250);

const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKER: u64 = u64::MAX - 1;
const TOKEN_ALARM: u64 = u64::MAX - 2;

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
// Connections.
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
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
    /// Took frames this turn; flushed at the turn's end.
    dirty: bool,
}

impl Conn {
    fn new(stream: TcpStream, kind: ConnKind, outq: OutQueue) -> Conn {
        Conn { stream, kind, dec: FrameDecoder::new(), outq, want_write: false, dirty: false }
    }

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

/// What a dial helper reports back to the loop.
enum Cmd {
    /// The handshake completed.
    Dialed { to: PeerId, stream: TcpStream },
    /// The attempt budget ran out.
    DialFailed { to: PeerId },
}

// ---------------------------------------------------------------------
// The loop.
// ---------------------------------------------------------------------

/// Runs peer `me` on the calling thread until a control connection sends
/// `CtrlShutdown`. `listener` is bound to `ports[me]`; model time starts
/// now.
pub(crate) fn serve(
    listener: TcpListener,
    me: PeerId,
    ports: Arc<Vec<u16>>,
    world: Arc<World>,
) -> io::Result<()> {
    start(listener, me, ports, world)?.run()
}

/// Registers the listener, waker and alarm with a fresh poller and
/// builds the loop, without running it.
fn start(
    listener: TcpListener,
    me: PeerId,
    ports: Arc<Vec<u16>>,
    world: Arc<World>,
) -> io::Result<Loop> {
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    let waker = Arc::new(Waker::new()?);
    let alarm = Alarm::new()?;
    poller.add(listener.as_raw_fd(), TOKEN_LISTENER, true, false)?;
    poller.add(waker.fd(), TOKEN_WAKER, true, false)?;
    poller.add(alarm.fd(), TOKEN_ALARM, true, false)?;
    let (dials_tx, dials) = channel();
    let now = Instant::now();
    Ok(Loop {
        me,
        ports,
        stats: Arc::new(NetStats::default()),
        rng: rng_for_indexed(world.cfg.seed, "net-faults", me.index() as u64),
        node: PeerNode::new(me, world.clone(), HashMap::new()),
        world,
        poller,
        listener,
        waker,
        alarm,
        dials_tx,
        dials,
        conns: HashMap::new(),
        next_token: 0,
        out: HashMap::new(),
        pool: BufPool::default(),
        written: Vec::new(),
        queue: EventQueue::default(),
        epoch: now,
        replies: HashMap::new(),
        next_announce: now,
        shutdown: false,
    })
}

/// Everything one daemon owns; see the module docs for one turn.
struct Loop {
    me: PeerId,
    ports: Arc<Vec<u16>>,
    stats: Arc<NetStats>,
    world: Arc<World>,
    poller: Poller,
    listener: TcpListener,
    waker: Arc<Waker>,
    alarm: Alarm,
    dials_tx: Sender<Cmd>,
    dials: Receiver<Cmd>,
    conns: HashMap<u64, Conn>,
    /// Monotonic; tokens are never reused, so a stale reply can never
    /// reach a recycled connection slot.
    next_token: u64,
    out: HashMap<PeerId, OutState>,
    pool: BufPool,
    /// Tokens of the connections that took frames this turn, each listed
    /// once (see `Conn::dirty`).
    written: Vec<u64>,
    node: PeerNode,
    /// The engine's pending sends and timers, due in model ms.
    queue: EventQueue,
    /// The stream this daemon rolls its due wire messages on.
    rng: Rng,
    /// The wall instant of model time zero.
    epoch: Instant,
    /// The control connection awaiting each request's setup result or
    /// stream report.
    replies: HashMap<u64, u64>,
    next_announce: Instant,
    shutdown: bool,
}

impl Loop {
    fn run(mut self) -> io::Result<()> {
        let mut events = Vec::new();
        while !self.shutdown {
            while let Ok(cmd) = self.dials.try_recv() {
                match cmd {
                    Cmd::Dialed { to, stream } => self.on_dialed(to, stream),
                    Cmd::DialFailed { to } => self.on_dial_failed(to),
                }
            }
            let now = self.now_ms();
            while let Some((due, (to, body))) = self.queue.pop_due(now) {
                self.fire(due, to, body);
            }
            let wall = Instant::now();
            if wall >= self.next_announce {
                self.call(|node, out| node.announce(out));
                self.next_announce = wall + ANNOUNCE_EVERY;
            }
            self.flush_written();
            let head = self.queue.next_due().map(|ms| self.epoch + self.wall(ms));
            let wake = head.map_or(self.next_announce, |h| h.min(self.next_announce));
            self.alarm.set(wake.saturating_duration_since(Instant::now()))?;
            self.poller.wait(&mut events, None)?;
            for ev in events.drain(..) {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.waker.drain(),
                    TOKEN_ALARM => self.alarm.drain(),
                    token => self.conn_event(token, ev.readable, ev.writable, ev.hangup),
                }
                if self.shutdown {
                    break;
                }
            }
        }
        Ok(())
    }

    /// Model ms since the loop started.
    fn now_ms(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1_000.0 / self.world.cfg.time_scale
    }

    /// Model ms as wall time.
    fn wall(&self, model_ms: f64) -> Duration {
        Duration::from_secs_f64((model_ms * self.world.cfg.time_scale / 1_000.0).max(0.0))
    }

    /// Runs one engine call at the current model time, queues what it
    /// sent and scheduled, and sends its results to the control
    /// connections that asked for them.
    fn call(&mut self, call: impl FnOnce(&mut PeerNode, &mut Outbox)) {
        let mut out = Outbox::at(self.now_ms());
        call(&mut self.node, &mut out);
        schedule(&mut self.queue, self.me, &mut out);
        for s in out.setups {
            if let Some(token) = self.replies.remove(&s.request) {
                self.reply(token, &WireMsg::CtrlComposeResult(setup_to_wire(&s)));
            }
        }
        for r in out.reports {
            if let Some(token) = self.replies.remove(&r.session) {
                self.reply(token, &WireMsg::CtrlStreamReport(report_to_wire(&r)));
            }
        }
    }

    /// Fires one due event. A wire message not yet rolled for faults is
    /// rolled once: dropped, re-queued `rolled` after its extra delay, or
    /// delivered like a rolled one — into this engine when addressed here,
    /// else onto its peer's connection.
    fn fire(&mut self, due: f64, to: PeerId, body: Body) {
        match body {
            Body::Wire { msg, rolled } => {
                if !rolled {
                    match roll_faults(&self.world, &msg, &mut self.rng) {
                        Fault::Drop => return,
                        Fault::Delay(ms) => {
                            let body = Body::Wire { msg, rolled: true };
                            self.queue.push(due + ms.max(0.0), (to, body));
                            return;
                        }
                        Fault::Deliver => {}
                    }
                }
                if to == self.me {
                    self.call(|node, out| node.handle(msg, out));
                } else {
                    self.send_to_peer(to, msg);
                }
            }
            Body::Timer(timer) => self.call(|node, out| node.on_timer(timer, out)),
        }
    }

    /// One frame off a control connection: a compose or stream command
    /// runs with its result bound to this connection, a stats request is
    /// answered here, and a shutdown ends the loop.
    fn control(&mut self, token: u64, frame: WireMsg) {
        match frame {
            WireMsg::CtrlCompose { request: id, .. } | WireMsg::CtrlStream { session: id, .. } => {
                self.replies.insert(id, token);
                let mut accepted = false;
                self.call(|node, out| accepted = node.control(frame, out));
                if !accepted {
                    self.replies.remove(&id);
                }
            }
            WireMsg::CtrlStatsRequest => {
                let (probes_sent, dht_hops, msgs_dropped) = self.world.counters();
                let read = |c: &AtomicU64| c.load(Ordering::Relaxed);
                let s = &self.stats;
                let reply = WireMsg::CtrlStatsReply(WireStats {
                    peer: self.me.raw(),
                    probes_sent,
                    dht_hops,
                    msgs_dropped,
                    store_entries: self.node.store_entries(),
                    frames_tx: read(&s.frames_tx),
                    frames_rx: read(&s.frames_rx),
                    bytes_tx: read(&s.bytes_tx),
                    bytes_rx: read(&s.bytes_rx),
                    conns_opened: read(&s.conns_opened),
                    conn_retries: read(&s.conn_retries),
                    decode_errors: read(&s.decode_errors),
                });
                self.reply(token, &reply);
            }
            WireMsg::CtrlShutdown => self.shutdown = true,
            _ => {}
        }
    }

    /// Queues a control reply on connection `token` (dropped if it is
    /// gone).
    fn reply(&mut self, token: u64, msg: &WireMsg) {
        let frame = self.pool.encode(msg);
        self.enqueue(token, frame, false);
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
            Some(OutState::Dialing(q)) => match q.push(self.pool.encode(&msg), droppable) {
                Push::Shed(f) => shed(&self.world, &self.pool, to.raw(), f),
                Push::Queued { crossed_high_water: true } => {
                    let queued_bytes = q.bytes() as u64;
                    self.world.record(TraceEvent::QueueDepth { peer: to.raw(), queued_bytes });
                }
                Push::Queued { .. } => {}
            },
            Some(OutState::Down(until)) if Instant::now() < *until => {
                // Peer presumed dead: drop its traffic.
            }
            _ => {
                // No state or an expired cooldown: dial.
                let mut q = OutQueue::new(OUTQ_CAP_BYTES);
                let _ = q.push(self.pool.encode(&msg), droppable); // empty queue always accepts
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
        let cmds = self.dials_tx.clone();
        let waker = self.waker.clone();
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
        let token = self.next_token;
        self.next_token += 1;
        if stream.set_nonblocking(true).is_err()
            || self.poller.add(stream.as_raw_fd(), token, true, false).is_err()
        {
            self.out.insert(to, OutState::Down(Instant::now() + PEER_DOWN_COOLDOWN));
            return;
        }
        let mut conn = Conn::new(stream, ConnKind::PeerOut(to), outq);
        if !conn.outq.is_empty() {
            conn.dirty = true;
            self.written.push(token);
        }
        self.conns.insert(token, conn);
        self.out.insert(to, OutState::Up(token));
    }

    fn on_dial_failed(&mut self, to: PeerId) {
        self.world.record(TraceEvent::ConnClosed { peer: to.raw() });
        if let Some(OutState::Dialing(mut q)) = self.out.remove(&to) {
            q.drain_to_pool(&self.pool);
        }
        self.out.insert(to, OutState::Down(Instant::now() + PEER_DOWN_COOLDOWN));
    }

    /// Adds `frame` to connection `token`'s queue (recording shed /
    /// high-water traces) and marks the connection for this turn's flush.
    fn enqueue(&mut self, token: u64, frame: Vec<u8>, droppable: bool) {
        let Some(conn) = self.conns.get_mut(&token) else {
            // Connection already gone (e.g. a reply racing a disconnect).
            self.pool.put(frame);
            return;
        };
        let peer = conn.peer_raw();
        match conn.outq.push(frame, droppable) {
            Push::Shed(f) => shed(&self.world, &self.pool, peer, f),
            Push::Queued { crossed_high_water } => {
                if crossed_high_water {
                    let queued_bytes = conn.outq.bytes() as u64;
                    self.world.record(TraceEvent::QueueDepth { peer, queued_bytes });
                }
                if !conn.dirty {
                    conn.dirty = true;
                    self.written.push(token);
                }
            }
        }
    }

    fn flush_written(&mut self) {
        for token in std::mem::take(&mut self.written) {
            self.flush_conn(token);
        }
    }

    /// Flushes a connection's queue and reconciles its write interest.
    fn flush_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        conn.dirty = false;
        if conn.outq.flush(&mut conn.stream, &self.pool, &self.stats).is_err() {
            let conn = self.conns.remove(&token).expect("present");
            self.drop_conn(conn);
            return;
        }
        let want = !conn.outq.is_empty();
        if want != conn.want_write {
            conn.want_write = want;
            let _ = self.poller.modify(conn.stream.as_raw_fd(), token, true, want);
        }
    }

    /// Tears down a connection already removed from the map.
    fn drop_conn(&mut self, mut conn: Conn) {
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
                    let token = self.next_token;
                    self.next_token += 1;
                    if stream.set_nonblocking(true).is_err()
                        || self.poller.add(stream.as_raw_fd(), token, true, false).is_err()
                    {
                        continue;
                    }
                    let outq = OutQueue::new(OUTQ_CAP_BYTES);
                    self.conns.insert(token, Conn::new(stream, ConnKind::Pending, outq));
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
                    self.drop_conn(conn);
                }
                return;
            }
        }
        if writable {
            self.flush_conn(token);
        }
    }

    /// Drains the socket's read side, then puts the connection back (or
    /// tears it down) and dispatches the frames it carried: peer frames
    /// into the engine, control frames to [`Loop::control`]. Returns
    /// false when the connection was closed.
    fn read_ready(&mut self, token: u64) -> bool {
        let Some(mut conn) = self.conns.remove(&token) else { return false };
        let mut frames = Vec::new();
        let open = self.read_frames(token, &mut conn, &mut frames);
        let kind = conn.kind;
        if open {
            self.conns.insert(token, conn);
        } else {
            self.drop_conn(conn);
        }
        for frame in frames {
            if self.shutdown {
                break;
            }
            match kind {
                ConnKind::Ctrl => self.control(token, frame),
                _ => self.call(|node, out| node.handle(frame, out)),
            }
        }
        open
    }

    /// Reads until the socket would block, decoding frames into `frames`
    /// (a pending connection's `Hello` is answered in place). Returns
    /// false at EOF, on a read or decode error, or on a refused handshake.
    fn read_frames(&mut self, token: u64, conn: &mut Conn, frames: &mut Vec<WireMsg>) -> bool {
        let mut buf = [0u8; 64 * 1024];
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => return false,
                Ok(n) => {
                    self.stats.bytes_rx.fetch_add(n as u64, Ordering::Relaxed);
                    conn.dec.extend(&buf[..n]);
                    loop {
                        match conn.dec.next_frame() {
                            Ok(Some(frame)) => {
                                self.stats.frames_rx.fetch_add(1, Ordering::Relaxed);
                                if !matches!(conn.kind, ConnKind::Pending) {
                                    frames.push(frame);
                                } else if !self.hello(token, conn, frame) {
                                    return false;
                                }
                            }
                            Ok(None) => break,
                            Err(_) => {
                                self.stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                                return false;
                            }
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// A pending connection's first frame. A `Hello` with a common
    /// protocol version makes it a peer or control connection and queues
    /// the `HelloAck`; anything else is a protocol violation (false).
    fn hello(&mut self, token: u64, conn: &mut Conn, frame: WireMsg) -> bool {
        let WireMsg::Hello { peer, proto_min, proto_max, .. } = frame else {
            self.stats.decode_errors.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        let Some(proto) = negotiate((PROTO_VERSION, PROTO_VERSION), (proto_min, proto_max)) else {
            return false;
        };
        conn.kind =
            if peer == CONTROL_PEER { ConnKind::Ctrl } else { ConnKind::PeerIn(PeerId::new(peer)) };
        let ack = self.pool.encode(&WireMsg::HelloAck { peer: u64::MAX, proto });
        let _ = conn.outq.push(ack, false); // never shed: not droppable
        conn.dirty = true;
        self.written.push(token);
        true
    }
}

/// Refuses one media frame to a full queue: counts it in
/// [`World::msgs_dropped`], traces it, and recycles its buffer.
fn shed(world: &World, pool: &BufPool, peer: u64, frame: Vec<u8>) {
    world.msgs_dropped.fetch_add(1, Ordering::Relaxed);
    world.record(TraceEvent::ConnBackpressure { peer, shed_bytes: frame.len() as u64 });
    pool.put(frame);
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

    /// The loop on its own thread: a blocking control client handshakes,
    /// a stats request is answered on the same connection (the start-up
    /// announce already stored this one-peer deployment's component), and
    /// a shutdown ends the loop with `Ok`.
    #[test]
    fn serves_a_control_client_until_shutdown() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let daemon = std::thread::spawn(move || {
            serve(listener, PeerId::new(0), Arc::new(vec![port]), test_world(1))
        });

        let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut dec = FrameDecoder::new();
        stream.write_all(&encode_to_vec(&hello(CONTROL_PEER))).unwrap();
        match read_one_frame(&mut stream, &mut dec) {
            WireMsg::HelloAck { proto, .. } => assert_eq!(proto, PROTO_VERSION),
            other => panic!("expected HelloAck, got {other:?}"),
        }
        stream.write_all(&encode_to_vec(&WireMsg::CtrlStatsRequest)).unwrap();
        match read_one_frame(&mut stream, &mut dec) {
            WireMsg::CtrlStatsReply(s) => assert_eq!((s.peer, s.store_entries), (0, 1)),
            other => panic!("expected a stats reply, got {other:?}"),
        }
        stream.write_all(&encode_to_vec(&WireMsg::CtrlShutdown)).unwrap();
        daemon.join().expect("the loop did not panic").expect("shutdown returns Ok");
    }

    /// A peer that completes the handshake and then never reads: media
    /// frames past a queue's cap are shed, first at the dial's holding
    /// queue, then at the established connection's, and every frame the
    /// daemon refused is counted in `msgs_dropped`.
    #[test]
    fn shed_media_frames_are_counted_as_dropped() {
        let stalled = TcpListener::bind("127.0.0.1:0").unwrap();
        let ports = Arc::new(vec![0, stalled.local_addr().unwrap().port()]);
        let (held_tx, held) = channel();
        let peer = std::thread::spawn(move || {
            let (mut s, _) = stalled.accept().unwrap();
            let _hello = read_one_frame(&mut s, &mut FrameDecoder::new());
            let ack = WireMsg::HelloAck { peer: 1, proto: PROTO_VERSION };
            s.write_all(&encode_to_vec(&ack)).unwrap();
            held_tx.send(s).unwrap(); // keep the socket open, unread
        });
        let world = test_world(2);
        let me = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut lp = start(me, PeerId::new(0), ports, world.clone()).unwrap();
        let to = PeerId::new(1);
        let media = |seq: u64| WireMsg::StreamFrame {
            session: 1,
            path: vec![1],
            functions: vec![0],
            idx: 0,
            dest: 1,
            source: 0,
            orig_w: 64,
            orig_h: 64,
            frame: spidernet_wire::WirePixels { width: 64, height: 64, seq, pixels: vec![0; 4096] },
            at_ms: 0.0,
        };
        let dropped = || world.counters().2;

        // The dial is still in flight: its holding queue takes what fits.
        let mut offered = 0u64;
        for _ in 0..100 {
            lp.send_to_peer(to, media(offered));
            offered += 1;
        }
        let Some(OutState::Dialing(q)) = lp.out.get(&to) else { panic!("dialing") };
        let held_back = q.frames.len() as u64;
        assert!(held_back < offered, "the holding queue shed nothing");
        assert_eq!(dropped(), offered - held_back, "every shed at the holding queue counts");

        // Established: rounds smaller than the cap fill the kernel
        // buffers first, then the queue, which sheds.
        match lp.dials.recv_timeout(Duration::from_secs(10)).unwrap() {
            Cmd::Dialed { to, stream } => lp.on_dialed(to, stream),
            Cmd::DialFailed { .. } => panic!("the handshake failed"),
        }
        let _held = held.recv_timeout(Duration::from_secs(10)).unwrap();
        peer.join().unwrap();
        lp.flush_written();
        let before = dropped();
        for _ in 0..10_000 {
            for _ in 0..30 {
                lp.send_to_peer(to, media(offered));
                offered += 1;
            }
            lp.flush_written();
            if dropped() > before {
                break;
            }
        }
        assert!(dropped() > before, "the established connection shed nothing");
        let Some(&OutState::Up(token)) = lp.out.get(&to) else { panic!("up") };
        let queued = lp.conns[&token].outq.frames.len() as u64;
        // The dial helper wrote the Hello; every other frame written was media.
        let written = lp.stats.frames_tx.load(Ordering::Relaxed) - 1;
        assert_eq!(dropped(), offered - written - queued, "every refused frame counts");
    }
}
