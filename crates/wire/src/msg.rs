//! The SpiderNet peer-to-peer frame set and its framing layer.
//!
//! ## Frame layout
//!
//! ```text
//! offset  size  field
//! 0       4     magic  = "SPDR"
//! 4       2     protocol version (little-endian u16)
//! 6       1     frame type (see the kind table on [`WireMsg`])
//! 7       1     flags (reserved, must be 0)
//! 8       4     payload length (little-endian u32, <= MAX_PAYLOAD)
//! 12      n     payload (per-type encoding, see `src/codec.rs` primitives)
//! ```
//!
//! Decoding is total: every byte stream maps to `Ok` or a typed
//! [`WireError`]; nothing panics. [`WireError::Truncated`] is the one
//! recoverable error — a stream decoder waits for more bytes and retries.

use crate::codec::{Reader, Writer};
use crate::error::WireError;
use spidernet_util::qos::QosVector;
use spidernet_util::res::ResourceVector;

/// Frame magic, first on the wire.
pub const MAGIC: [u8; 4] = *b"SPDR";

/// The protocol version this build speaks (both bounds of its range).
pub const PROTO_VERSION: u16 = 1;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 12;

/// Ceiling on one frame's payload (64 MiB).
pub const MAX_PAYLOAD: u32 = 1 << 26;

/// Pseudo peer-id used by control clients (the deploy orchestrator) in
/// their [`WireMsg::Hello`]; real peers use their dense overlay index.
pub const CONTROL_PEER: u64 = u64::MAX;

/// Picks the highest protocol version two ranges share, if any —
/// the version-negotiation rule applied to [`WireMsg::Hello`].
pub fn negotiate(a: (u16, u16), b: (u16, u16)) -> Option<u16> {
    let lo = a.0.max(b.0);
    let hi = a.1.min(b.1);
    (lo <= hi).then_some(hi)
}

/// A discovered replica advertisement: which peer hosts which function
/// (functions travel as their dense registry code).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireReplica {
    /// Hosting peer.
    pub peer: u64,
    /// Function code (dense index into the deployment's function registry).
    pub function: u8,
}

/// A media frame payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WirePixels {
    /// Pixels per row.
    pub width: u32,
    /// Rows.
    pub height: u32,
    /// Sequence number within the stream.
    pub seq: u64,
    /// Row-major grayscale bytes.
    pub pixels: Vec<u8>,
}

/// A BCP composition probe walking the function chain: the function
/// graph (`chain` + per-position `replica_lists`), the visited set
/// (`path`), the accumulated QoS vector, the remaining budget β, and the
/// accumulated model-time latency (`at_ms`).
#[derive(Clone, Debug, PartialEq)]
pub struct WireProbe {
    /// Request this probe serves.
    pub request: u64,
    /// The application sender.
    pub source: u64,
    /// The application receiver.
    pub dest: u64,
    /// Required function codes, composition order.
    pub chain: Vec<u8>,
    /// Prefetched replica lists, one per chain position.
    pub replica_lists: Vec<Vec<WireReplica>>,
    /// Next chain position to instantiate.
    pub pos: u32,
    /// Component peers chosen so far (the visited set).
    pub path: Vec<u64>,
    /// Remaining probing budget β.
    pub budget: u32,
    /// Accumulated additive QoS along the partial path.
    pub acc_qos: QosVector,
    /// Accumulated model-time delivery timestamp, ms.
    pub at_ms: f64,
}

/// Result of one session setup, as reported to a control client.
#[derive(Clone, Debug, PartialEq)]
pub struct WireSetup {
    /// Request id (doubles as the session id).
    pub request: u64,
    /// Whether a composition was established.
    pub ok: bool,
    /// The application receiver.
    pub dest: u64,
    /// Selected component path, composition order.
    pub path: Vec<u64>,
    /// Function codes along the path.
    pub functions: Vec<u8>,
    /// Alternative complete paths (failover backups).
    pub backups: Vec<Vec<u64>>,
    /// Decentralized service discovery time, model ms.
    pub discovery_ms: f64,
    /// Probing + destination selection time, model ms.
    pub probing_ms: f64,
    /// Session initialization (reverse-ack) time, model ms.
    pub init_ms: f64,
    /// End-to-end setup time, model ms.
    pub total_ms: f64,
}

/// Final report of one streaming session, as reported to a control client.
#[derive(Clone, Debug, PartialEq)]
pub struct WireStreamReport {
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
    /// Maintenance probes sent along backup paths.
    pub maintenance_probes: u64,
    /// The path in use when the stream ended.
    pub final_path: Vec<u64>,
    /// Order-independent digest over all delivered frame pixels.
    pub delivery_digest: u64,
}

/// One node's counter snapshot, as reported to a control client.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Reporting peer.
    pub peer: u64,
    /// BCP probe transmissions.
    pub probes_sent: u64,
    /// DHT routing steps handled.
    pub dht_hops: u64,
    /// Droppable messages lost to fault injection at this sender, plus
    /// media frames it shed to a full outbound queue.
    pub msgs_dropped: u64,
    /// Replica advertisements stored in this node's DHT shard.
    pub store_entries: u64,
    /// Wire frames encoded and handed to a connection.
    pub frames_tx: u64,
    /// Wire frames decoded off connections.
    pub frames_rx: u64,
    /// Payload + header bytes written.
    pub bytes_tx: u64,
    /// Payload + header bytes read.
    pub bytes_rx: u64,
    /// Outbound connections successfully established.
    pub conns_opened: u64,
    /// Outbound dial attempts that failed (and were retried or gave up).
    pub conn_retries: u64,
    /// Frames rejected by the decoder.
    pub decode_errors: u64,
}

/// Every message that can cross a SpiderNet socket.
///
/// | kind | message | | kind | message |
/// |-----:|---------|-|-----:|---------|
/// | 1 | `Hello` | | 10 | `PathProbe` |
/// | 2 | `HelloAck` | | 11 | `PathProbeAck` |
/// | 3 | `DhtLookup` | | 20 | `CtrlCompose` |
/// | 4 | `DhtReply` | | 21 | `CtrlComposeResult` |
/// | 5 | `Register` | | 22 | `CtrlStream` |
/// | 6 | `Probe` | | 23 | `CtrlStreamReport` |
/// | 7 | `SetupAck` | | 24 | `CtrlStatsRequest` |
/// | 8 | `StreamFrame` | | 25 | `CtrlStatsReply` |
/// | 9 | `FrameAck` | | 26 | `CtrlShutdown` |
#[derive(Clone, Debug, PartialEq)]
pub enum WireMsg {
    /// Connection handshake: always the first frame on a connection, in
    /// both directions. Carries the speaker's identity and supported
    /// protocol range for version negotiation (see [`negotiate`]).
    Hello {
        /// Speaking peer ([`CONTROL_PEER`] for control clients).
        peer: u64,
        /// The peer's 128-bit Pastry ring id (0 for control clients).
        node_id: u128,
        /// Lowest protocol version the speaker accepts.
        proto_min: u16,
        /// Highest protocol version the speaker accepts.
        proto_max: u16,
        /// The speaker's own listening port (0 if it does not listen).
        listen_port: u16,
    },
    /// Handshake acknowledgement with the negotiated version.
    HelloAck {
        /// Responding peer.
        peer: u64,
        /// The negotiated protocol version.
        proto: u16,
    },
    /// DHT lookup being routed hop-by-hop toward `key`'s root.
    DhtLookup {
        /// Query correlation id.
        query: u64,
        /// Target key on the ring.
        key: u128,
        /// Peer awaiting the reply.
        origin: u64,
        /// Hops taken so far.
        hops: u32,
        /// Accumulated model-time timestamp, ms.
        at_ms: f64,
    },
    /// Reply from the key's root back to the querying peer.
    DhtReply {
        /// Query correlation id.
        query: u64,
        /// The stored replica list (possibly empty).
        metas: Vec<WireReplica>,
        /// Accumulated model-time timestamp, ms.
        at_ms: f64,
    },
    /// Metadata registration routed hop-by-hop to the key's root, where
    /// the advertisement is stored in that node's DHT shard.
    Register {
        /// Target key on the ring.
        key: u128,
        /// The replica being advertised.
        replica: WireReplica,
        /// Advertised per-component QoS vector (e.g. processing delay).
        qos: QosVector,
        /// Advertised end-system resource availability.
        res: ResourceVector,
        /// Hops taken so far.
        hops: u32,
    },
    /// A BCP composition probe.
    Probe(WireProbe),
    /// Session-setup acknowledgement travelling the reversed service
    /// path. `idx == u32::MAX` marks the final leg to the source.
    SetupAck {
        /// Session id.
        session: u64,
        /// Component peers, composition order.
        path: Vec<u64>,
        /// Function codes, composition order.
        functions: Vec<u8>,
        /// Position in `path` this hop initializes (moves toward 0;
        /// `u32::MAX` = final leg to the source).
        idx: u32,
        /// The application sender to notify at the end.
        source: u64,
        /// Alternative complete paths carried to the source.
        backups: Vec<Vec<u64>>,
        /// Model ms when the destination selected the composition.
        selected_ms: f64,
        /// Accumulated model-time timestamp, ms.
        at_ms: f64,
    },
    /// A media frame in flight along a composed session.
    StreamFrame {
        /// Session id.
        session: u64,
        /// Component peers, composition order.
        path: Vec<u64>,
        /// Function codes, composition order.
        functions: Vec<u8>,
        /// Next position to process (`path.len()` = deliver to dest).
        idx: u32,
        /// The application receiver.
        dest: u64,
        /// The application sender (for the delivery ack).
        source: u64,
        /// Width of the frame as originally emitted by the source.
        orig_w: u32,
        /// Height of the frame as originally emitted by the source.
        orig_h: u32,
        /// The frame payload.
        frame: WirePixels,
        /// Accumulated model-time timestamp, ms.
        at_ms: f64,
    },
    /// Destination → source delivery acknowledgement.
    FrameAck {
        /// Session id.
        session: u64,
        /// Delivered frame sequence number.
        seq: u64,
        /// Whether the delivered frame matched the expected output.
        valid: bool,
        /// Digest of the delivered frame's pixels.
        digest: u64,
        /// Accumulated model-time timestamp, ms.
        at_ms: f64,
    },
    /// Low-rate maintenance probe (keepalive) walking a backup path.
    PathProbe {
        /// Session whose backup is being checked.
        session: u64,
        /// The backup path under test.
        path: Vec<u64>,
        /// Next hop index; `path.len()` returns to the origin.
        idx: u32,
        /// The probing source.
        origin: u64,
        /// Which backup (index into the source's backup list).
        backup_idx: u32,
    },
    /// Maintenance probe returning alive.
    PathProbeAck {
        /// Session id.
        session: u64,
        /// Backup index confirmed alive.
        backup_idx: u32,
    },
    /// Control: compose a session from the receiving node.
    CtrlCompose {
        /// Request id.
        request: u64,
        /// The application receiver.
        dest: u64,
        /// Required function codes, composition order.
        chain: Vec<u8>,
        /// Probing budget β.
        budget: u32,
    },
    /// Control: the setup result for a [`WireMsg::CtrlCompose`].
    CtrlComposeResult(WireSetup),
    /// Control: stream frames along an established session.
    CtrlStream {
        /// Session id (from the setup result).
        session: u64,
        /// Primary component path.
        path: Vec<u64>,
        /// Function codes along the path.
        functions: Vec<u8>,
        /// Backup paths, preference-ordered.
        backups: Vec<Vec<u64>>,
        /// The application receiver.
        dest: u64,
        /// Frames to send.
        frames: u64,
        /// Model-time between frames, ms.
        interval_ms: f64,
        /// Frame width.
        width: u32,
        /// Frame height.
        height: u32,
    },
    /// Control: the final report for a [`WireMsg::CtrlStream`].
    CtrlStreamReport(WireStreamReport),
    /// Control: request a counter snapshot.
    CtrlStatsRequest,
    /// Control: the counter snapshot.
    CtrlStatsReply(WireStats),
    /// Control: drain and exit.
    CtrlShutdown,
}

impl WireMsg {
    /// The frame-type byte (see the kind table on [`WireMsg`]).
    pub fn kind(&self) -> u8 {
        match self {
            WireMsg::Hello { .. } => 1,
            WireMsg::HelloAck { .. } => 2,
            WireMsg::DhtLookup { .. } => 3,
            WireMsg::DhtReply { .. } => 4,
            WireMsg::Register { .. } => 5,
            WireMsg::Probe(_) => 6,
            WireMsg::SetupAck { .. } => 7,
            WireMsg::StreamFrame { .. } => 8,
            WireMsg::FrameAck { .. } => 9,
            WireMsg::PathProbe { .. } => 10,
            WireMsg::PathProbeAck { .. } => 11,
            WireMsg::CtrlCompose { .. } => 20,
            WireMsg::CtrlComposeResult(_) => 21,
            WireMsg::CtrlStream { .. } => 22,
            WireMsg::CtrlStreamReport(_) => 23,
            WireMsg::CtrlStatsRequest => 24,
            WireMsg::CtrlStatsReply(_) => 25,
            WireMsg::CtrlShutdown => 26,
        }
    }

    /// Exact payload size [`WireMsg::encode_into`] will write, in bytes.
    /// Kept in lockstep with `write_payload` (pinned by the codec tests:
    /// every golden and fuzzed message asserts predicted == written).
    fn payload_len(&self) -> usize {
        match self {
            WireMsg::Hello { .. } => 8 + 16 + 2 + 2 + 2,
            WireMsg::HelloAck { .. } => 8 + 2,
            WireMsg::DhtLookup { .. } => 8 + 16 + 8 + 4 + 8,
            WireMsg::DhtReply { metas, .. } => 8 + replicas_len(metas) + 8,
            WireMsg::Register { qos, .. } => 16 + 9 + qos_len(qos) + res_len() + 4,
            WireMsg::Probe(p) => {
                8 + 8
                    + 8
                    + bytes_len(&p.chain)
                    + 4
                    + p.replica_lists.iter().map(|l| replicas_len(l)).sum::<usize>()
                    + 4
                    + u64s_len(&p.path)
                    + 4
                    + qos_len(&p.acc_qos)
                    + 8
            }
            WireMsg::SetupAck { path, functions, backups, .. } => {
                8 + u64s_len(path) + bytes_len(functions) + 4 + 8 + paths_len(backups) + 8 + 8
            }
            WireMsg::StreamFrame { path, functions, frame, .. } => {
                8 + u64s_len(path)
                    + bytes_len(functions)
                    + 4
                    + 8
                    + 8
                    + 4
                    + 4
                    + (4 + 4 + 8 + bytes_len(&frame.pixels))
                    + 8
            }
            WireMsg::FrameAck { .. } => 8 + 8 + 1 + 8 + 8,
            WireMsg::PathProbe { path, .. } => 8 + u64s_len(path) + 4 + 8 + 4,
            WireMsg::PathProbeAck { .. } => 8 + 4,
            WireMsg::CtrlCompose { chain, .. } => 8 + 8 + bytes_len(chain) + 4,
            WireMsg::CtrlComposeResult(s) => {
                8 + 1
                    + 8
                    + u64s_len(&s.path)
                    + bytes_len(&s.functions)
                    + paths_len(&s.backups)
                    + 8 * 4
            }
            WireMsg::CtrlStream { path, functions, backups, .. } => {
                8 + u64s_len(path) + bytes_len(functions) + paths_len(backups) + 8 + 8 + 8 + 4 + 4
            }
            WireMsg::CtrlStreamReport(r) => 8 + 8 + 8 + 1 + 4 + 8 + u64s_len(&r.final_path) + 8,
            WireMsg::CtrlStatsRequest | WireMsg::CtrlShutdown => 0,
            WireMsg::CtrlStatsReply(_) => 8 * 12,
        }
    }

    /// Exact number of bytes one encoded frame of this message occupies
    /// (header + payload). Lets a sender reserve once — pooled buffers
    /// never reallocate mid-encode.
    pub fn encoded_len(&self) -> usize {
        HEADER_LEN + self.payload_len()
    }

    /// Appends one complete frame (header + payload) onto `out` without
    /// intermediate allocation: the payload length is computed up front
    /// ([`WireMsg::encoded_len`]) and written with the header, and exactly
    /// the missing capacity is reserved. Byte-identical to the historical
    /// patch-up encoder (the golden pins prove it).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let payload = self.payload_len();
        debug_assert!(payload as u64 <= MAX_PAYLOAD as u64);
        out.reserve(HEADER_LEN + payload);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&PROTO_VERSION.to_le_bytes());
        out.push(self.kind());
        out.push(0); // flags
        out.extend_from_slice(&(payload as u32).to_le_bytes());
        let start = out.len();
        write_payload(self, &mut Writer::new(out));
        debug_assert_eq!(
            out.len() - start,
            payload,
            "payload_len out of sync with write_payload for kind {}",
            self.kind()
        );
    }

    /// Whether a fault injector may drop or jitter this frame: the
    /// peer-protocol kinds 3–11 only — handshakes and control-plane
    /// frames always deliver.
    pub fn droppable(&self) -> bool {
        matches!(
            self,
            WireMsg::DhtLookup { .. }
                | WireMsg::DhtReply { .. }
                | WireMsg::Register { .. }
                | WireMsg::Probe(_)
                | WireMsg::SetupAck { .. }
                | WireMsg::StreamFrame { .. }
                | WireMsg::FrameAck { .. }
                | WireMsg::PathProbe { .. }
                | WireMsg::PathProbeAck { .. }
        )
    }
}

// ---------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------

/// Encoded size of a `u32`-length-prefixed byte slice.
#[inline]
fn bytes_len(v: &[u8]) -> usize {
    4 + v.len()
}

/// Encoded size of a `u32`-length-prefixed `u64` list.
#[inline]
fn u64s_len(v: &[u64]) -> usize {
    4 + 8 * v.len()
}

/// Encoded size of a QoS vector (`u32` dims + per-dimension `f64`).
#[inline]
fn qos_len(q: &QosVector) -> usize {
    4 + 8 * q.dims()
}

/// Encoded size of a resource vector (fixed-shape `f64`s, no prefix).
#[inline]
fn res_len() -> usize {
    8 * spidernet_util::res::ResourceKind::ALL.len()
}

/// Encoded size of a length-prefixed replica list.
#[inline]
fn replicas_len(ms: &[WireReplica]) -> usize {
    4 + 9 * ms.len()
}

/// Encoded size of a length-prefixed list of paths.
#[inline]
fn paths_len(paths: &[Vec<u64>]) -> usize {
    4 + paths.iter().map(|p| u64s_len(p)).sum::<usize>()
}

fn write_replica(w: &mut Writer<'_>, m: &WireReplica) {
    w.u64(m.peer);
    w.u8(m.function);
}

fn write_replicas(w: &mut Writer<'_>, ms: &[WireReplica]) {
    w.u32(ms.len() as u32);
    for m in ms {
        write_replica(w, m);
    }
}

fn write_paths(w: &mut Writer<'_>, paths: &[Vec<u64>]) {
    w.u32(paths.len() as u32);
    for p in paths {
        w.u64s(p);
    }
}

fn write_payload(msg: &WireMsg, w: &mut Writer<'_>) {
    match msg {
        WireMsg::Hello { peer, node_id, proto_min, proto_max, listen_port } => {
            w.u64(*peer);
            w.u128(*node_id);
            w.u16(*proto_min);
            w.u16(*proto_max);
            w.u16(*listen_port);
        }
        WireMsg::HelloAck { peer, proto } => {
            w.u64(*peer);
            w.u16(*proto);
        }
        WireMsg::DhtLookup { query, key, origin, hops, at_ms } => {
            w.u64(*query);
            w.u128(*key);
            w.u64(*origin);
            w.u32(*hops);
            w.f64(*at_ms);
        }
        WireMsg::DhtReply { query, metas, at_ms } => {
            w.u64(*query);
            write_replicas(w, metas);
            w.f64(*at_ms);
        }
        WireMsg::Register { key, replica, qos, res, hops } => {
            w.u128(*key);
            write_replica(w, replica);
            w.qos(qos);
            w.res(res);
            w.u32(*hops);
        }
        WireMsg::Probe(p) => {
            w.u64(p.request);
            w.u64(p.source);
            w.u64(p.dest);
            w.bytes(&p.chain);
            w.u32(p.replica_lists.len() as u32);
            for list in &p.replica_lists {
                write_replicas(w, list);
            }
            w.u32(p.pos);
            w.u64s(&p.path);
            w.u32(p.budget);
            w.qos(&p.acc_qos);
            w.f64(p.at_ms);
        }
        WireMsg::SetupAck { session, path, functions, idx, source, backups, selected_ms, at_ms } => {
            w.u64(*session);
            w.u64s(path);
            w.bytes(functions);
            w.u32(*idx);
            w.u64(*source);
            write_paths(w, backups);
            w.f64(*selected_ms);
            w.f64(*at_ms);
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
        } => {
            w.u64(*session);
            w.u64s(path);
            w.bytes(functions);
            w.u32(*idx);
            w.u64(*dest);
            w.u64(*source);
            w.u32(*orig_w);
            w.u32(*orig_h);
            w.u32(frame.width);
            w.u32(frame.height);
            w.u64(frame.seq);
            w.bytes(&frame.pixels);
            w.f64(*at_ms);
        }
        WireMsg::FrameAck { session, seq, valid, digest, at_ms } => {
            w.u64(*session);
            w.u64(*seq);
            w.bool(*valid);
            w.u64(*digest);
            w.f64(*at_ms);
        }
        WireMsg::PathProbe { session, path, idx, origin, backup_idx } => {
            w.u64(*session);
            w.u64s(path);
            w.u32(*idx);
            w.u64(*origin);
            w.u32(*backup_idx);
        }
        WireMsg::PathProbeAck { session, backup_idx } => {
            w.u64(*session);
            w.u32(*backup_idx);
        }
        WireMsg::CtrlCompose { request, dest, chain, budget } => {
            w.u64(*request);
            w.u64(*dest);
            w.bytes(chain);
            w.u32(*budget);
        }
        WireMsg::CtrlComposeResult(s) => {
            w.u64(s.request);
            w.bool(s.ok);
            w.u64(s.dest);
            w.u64s(&s.path);
            w.bytes(&s.functions);
            write_paths(w, &s.backups);
            w.f64(s.discovery_ms);
            w.f64(s.probing_ms);
            w.f64(s.init_ms);
            w.f64(s.total_ms);
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
        } => {
            w.u64(*session);
            w.u64s(path);
            w.bytes(functions);
            write_paths(w, backups);
            w.u64(*dest);
            w.u64(*frames);
            w.f64(*interval_ms);
            w.u32(*width);
            w.u32(*height);
        }
        WireMsg::CtrlStreamReport(r) => {
            w.u64(r.session);
            w.u64(r.sent);
            w.u64(r.delivered);
            w.bool(r.all_valid);
            w.u32(r.switches);
            w.u64(r.maintenance_probes);
            w.u64s(&r.final_path);
            w.u64(r.delivery_digest);
        }
        WireMsg::CtrlStatsRequest | WireMsg::CtrlShutdown => {}
        WireMsg::CtrlStatsReply(s) => {
            w.u64(s.peer);
            w.u64(s.probes_sent);
            w.u64(s.dht_hops);
            w.u64(s.msgs_dropped);
            w.u64(s.store_entries);
            w.u64(s.frames_tx);
            w.u64(s.frames_rx);
            w.u64(s.bytes_tx);
            w.u64(s.bytes_rx);
            w.u64(s.conns_opened);
            w.u64(s.conn_retries);
            w.u64(s.decode_errors);
        }
    }
}

/// Appends one complete frame (header + payload) for `msg` onto `out`.
/// Thin wrapper over [`WireMsg::encode_into`].
pub fn encode(msg: &WireMsg, out: &mut Vec<u8>) {
    msg.encode_into(out);
}

/// Encodes one frame into a fresh, exactly-sized buffer.
pub fn encode_to_vec(msg: &WireMsg) -> Vec<u8> {
    let mut out = Vec::with_capacity(msg.encoded_len());
    msg.encode_into(&mut out);
    out
}

// ---------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------

fn read_replica(r: &mut Reader<'_>) -> Result<WireReplica, WireError> {
    Ok(WireReplica { peer: r.u64()?, function: r.u8()? })
}

fn read_replicas(r: &mut Reader<'_>) -> Result<Vec<WireReplica>, WireError> {
    let n = r.elems(9)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(read_replica(r)?);
    }
    Ok(out)
}

fn read_paths(r: &mut Reader<'_>) -> Result<Vec<Vec<u64>>, WireError> {
    let n = r.elems(4)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.u64s()?);
    }
    Ok(out)
}

fn read_fn_codes(r: &mut Reader<'_>) -> Result<Vec<u8>, WireError> {
    let n = r.elems(1)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.u8()?);
    }
    Ok(out)
}

fn read_payload(kind: u8, r: &mut Reader<'_>) -> Result<WireMsg, WireError> {
    let msg = match kind {
        1 => WireMsg::Hello {
            peer: r.u64()?,
            node_id: r.u128()?,
            proto_min: r.u16()?,
            proto_max: r.u16()?,
            listen_port: r.u16()?,
        },
        2 => WireMsg::HelloAck { peer: r.u64()?, proto: r.u16()? },
        3 => WireMsg::DhtLookup {
            query: r.u64()?,
            key: r.u128()?,
            origin: r.u64()?,
            hops: r.u32()?,
            at_ms: r.f64()?,
        },
        4 => WireMsg::DhtReply { query: r.u64()?, metas: read_replicas(r)?, at_ms: r.f64()? },
        5 => WireMsg::Register {
            key: r.u128()?,
            replica: read_replica(r)?,
            qos: r.qos()?,
            res: r.res()?,
            hops: r.u32()?,
        },
        6 => {
            let request = r.u64()?;
            let source = r.u64()?;
            let dest = r.u64()?;
            let chain = read_fn_codes(r)?;
            let lists = r.elems(4)?;
            let mut replica_lists = Vec::with_capacity(lists);
            for _ in 0..lists {
                replica_lists.push(read_replicas(r)?);
            }
            WireMsg::Probe(WireProbe {
                request,
                source,
                dest,
                chain,
                replica_lists,
                pos: r.u32()?,
                path: r.u64s()?,
                budget: r.u32()?,
                acc_qos: r.qos()?,
                at_ms: r.f64()?,
            })
        }
        7 => WireMsg::SetupAck {
            session: r.u64()?,
            path: r.u64s()?,
            functions: read_fn_codes(r)?,
            idx: r.u32()?,
            source: r.u64()?,
            backups: read_paths(r)?,
            selected_ms: r.f64()?,
            at_ms: r.f64()?,
        },
        8 => WireMsg::StreamFrame {
            session: r.u64()?,
            path: r.u64s()?,
            functions: read_fn_codes(r)?,
            idx: r.u32()?,
            dest: r.u64()?,
            source: r.u64()?,
            orig_w: r.u32()?,
            orig_h: r.u32()?,
            frame: WirePixels {
                width: r.u32()?,
                height: r.u32()?,
                seq: r.u64()?,
                pixels: r.pixel_bytes()?,
            },
            at_ms: r.f64()?,
        },
        9 => WireMsg::FrameAck {
            session: r.u64()?,
            seq: r.u64()?,
            valid: r.bool()?,
            digest: r.u64()?,
            at_ms: r.f64()?,
        },
        10 => WireMsg::PathProbe {
            session: r.u64()?,
            path: r.u64s()?,
            idx: r.u32()?,
            origin: r.u64()?,
            backup_idx: r.u32()?,
        },
        11 => WireMsg::PathProbeAck { session: r.u64()?, backup_idx: r.u32()? },
        20 => WireMsg::CtrlCompose {
            request: r.u64()?,
            dest: r.u64()?,
            chain: read_fn_codes(r)?,
            budget: r.u32()?,
        },
        21 => WireMsg::CtrlComposeResult(WireSetup {
            request: r.u64()?,
            ok: r.bool()?,
            dest: r.u64()?,
            path: r.u64s()?,
            functions: read_fn_codes(r)?,
            backups: read_paths(r)?,
            discovery_ms: r.f64()?,
            probing_ms: r.f64()?,
            init_ms: r.f64()?,
            total_ms: r.f64()?,
        }),
        22 => WireMsg::CtrlStream {
            session: r.u64()?,
            path: r.u64s()?,
            functions: read_fn_codes(r)?,
            backups: read_paths(r)?,
            dest: r.u64()?,
            frames: r.u64()?,
            interval_ms: r.f64()?,
            width: r.u32()?,
            height: r.u32()?,
        },
        23 => WireMsg::CtrlStreamReport(WireStreamReport {
            session: r.u64()?,
            sent: r.u64()?,
            delivered: r.u64()?,
            all_valid: r.bool()?,
            switches: r.u32()?,
            maintenance_probes: r.u64()?,
            final_path: r.u64s()?,
            delivery_digest: r.u64()?,
        }),
        24 => WireMsg::CtrlStatsRequest,
        25 => WireMsg::CtrlStatsReply(WireStats {
            peer: r.u64()?,
            probes_sent: r.u64()?,
            dht_hops: r.u64()?,
            msgs_dropped: r.u64()?,
            store_entries: r.u64()?,
            frames_tx: r.u64()?,
            frames_rx: r.u64()?,
            bytes_tx: r.u64()?,
            bytes_rx: r.u64()?,
            conns_opened: r.u64()?,
            conn_retries: r.u64()?,
            decode_errors: r.u64()?,
        }),
        26 => WireMsg::CtrlShutdown,
        other => return Err(WireError::UnknownFrameType(other)),
    };
    Ok(msg)
}

/// Decodes one frame from the front of `buf`; returns the message and the
/// number of bytes consumed.
///
/// [`WireError::Truncated`] means `buf` holds a valid prefix — feed more
/// bytes and retry. Every other error poisons the stream (the framing can
/// no longer be trusted).
pub fn decode(buf: &[u8]) -> Result<(WireMsg, usize), WireError> {
    if buf.len() < HEADER_LEN {
        return Err(WireError::Truncated { needed: HEADER_LEN - buf.len() });
    }
    let magic: [u8; 4] = buf[0..4].try_into().unwrap();
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(buf[4..6].try_into().unwrap());
    if version != PROTO_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let kind = buf[6];
    if buf[7] != 0 {
        return Err(WireError::Malformed("non-zero flags"));
    }
    let len = u32::from_le_bytes(buf[8..12].try_into().unwrap());
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized { len: len as u64, max: MAX_PAYLOAD as u64 });
    }
    let total = HEADER_LEN + len as usize;
    if buf.len() < total {
        return Err(WireError::Truncated { needed: total - buf.len() });
    }
    let mut r = Reader::new(&buf[HEADER_LEN..total]);
    let msg = read_payload(kind, &mut r)?;
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes { extra: r.remaining() });
    }
    Ok((msg, total))
}

/// Incremental stream decoder: feed raw socket bytes with
/// [`FrameDecoder::extend`], pop complete frames with
/// [`FrameDecoder::next_frame`].
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    start: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes read off a socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact lazily: only when the dead prefix dominates the buffer.
        if self.start > 4096 && self.start * 2 > self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Pops the next complete frame. `Ok(None)` means "need more bytes";
    /// any `Err` poisons the stream and the connection should be closed.
    pub fn next_frame(&mut self) -> Result<Option<WireMsg>, WireError> {
        match decode(&self.buf[self.start..]) {
            Ok((msg, used)) => {
                self.start += used;
                if self.start == self.buf.len() {
                    self.buf.clear();
                    self.start = 0;
                }
                Ok(Some(msg))
            }
            Err(WireError::Truncated { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }
}
