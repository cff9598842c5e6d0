//! Hostile peer input: frames that decode cleanly but lie about their own
//! shape — indices past their lists, mismatched list lengths, peers
//! outside the deployment, empty or oversized frames, non-finite
//! timestamps — must be dropped at the engine's entry. None may panic the
//! engine, which would end a `spidernet-node serve` process.

use spidernet_runtime::{ClusterConfig, MediaFunction, Outbox, PeerNode, Timer, World};
use spidernet_util::id::PeerId;
use spidernet_util::qos::QosVector;
use spidernet_util::rng::rng_for;
use spidernet_wire::{
    encode_to_vec, FrameDecoder, WireMsg, WirePixels, WireProbe, WireReplica, HEADER_LEN,
};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// The receiving peer of every hand-made hostile frame.
const ME: u64 = 3;

fn world() -> Arc<World> {
    Arc::new(World::build(ClusterConfig { peers: 8, seed: 3, ..ClusterConfig::default() }))
}

/// Encodes `msg` and decodes it again through the stream decoder, as a
/// daemon receives it off a socket.
fn off_the_wire(msg: &WireMsg) -> WireMsg {
    let mut dec = FrameDecoder::new();
    dec.extend(&encode_to_vec(msg));
    dec.next_frame().expect("a valid encoding").expect("one complete frame")
}

/// Fires every timer `out` captured (a collected probe is only selected
/// once its collect timer fires, a stream only starts sending on its
/// first stream timer).
fn fire_timers(node: &mut PeerNode, out: &mut Outbox) {
    let timers: Vec<(Timer, f64)> = std::mem::take(&mut out.timers);
    for (timer, _) in timers {
        node.on_timer(timer, out);
    }
}

fn pixels(width: u32, height: u32) -> WirePixels {
    WirePixels { width, height, seq: 1, pixels: vec![7; (width * height) as usize] }
}

fn replica(peer: u64, function: u8) -> WireReplica {
    WireReplica { peer, function }
}

fn probe(chain: Vec<u8>, replica_lists: Vec<Vec<WireReplica>>, pos: u32, path: Vec<u64>) -> WireProbe {
    WireProbe {
        request: 1,
        source: 0,
        dest: 2,
        chain,
        replica_lists,
        pos,
        path,
        budget: 4,
        acc_qos: QosVector::zeros(2),
        at_ms: 10.0,
    }
}

fn stream_frame(path: Vec<u64>, functions: Vec<u8>, idx: u32, orig: (u32, u32)) -> WireMsg {
    WireMsg::StreamFrame {
        session: 1,
        path,
        functions,
        idx,
        dest: ME,
        source: 0,
        orig_w: orig.0,
        orig_h: orig.1,
        frame: pixels(4, 4),
        at_ms: 10.0,
    }
}

fn setup_ack(idx: u32, source: u64) -> WireMsg {
    WireMsg::SetupAck {
        session: 1,
        path: vec![1],
        functions: vec![0],
        idx,
        source,
        backups: Vec::new(),
        selected_ms: 5.0,
        at_ms: 10.0,
    }
}

#[test]
fn hostile_frames_are_dropped_at_the_engine_entry() {
    let up = MediaFunction::UpScale.code();
    let peer_frames: Vec<(&str, WireMsg)> = vec![
        ("SetupAck with idx past its path", setup_ack(5, 0)),
        ("SetupAck naming a peer outside the deployment", setup_ack(0, 1_000)),
        ("StreamFrame with fewer functions than path hops", stream_frame(vec![1, 4], vec![0], 1, (4, 4))),
        (
            "Probe with fewer replica lists than chain functions",
            WireMsg::Probe(probe(vec![0, 1], vec![vec![replica(1, 0)]], 1, vec![1])),
        ),
        ("Probe positioned past its chain", WireMsg::Probe(probe(vec![0], vec![Vec::new()], 5, Vec::new()))),
        ("delivered StreamFrame with orig_w = 0", stream_frame(Vec::new(), Vec::new(), 0, (0, 4))),
        (
            "delivered StreamFrame whose transforms outgrow MAX_PIXEL_BYTES",
            stream_frame(vec![1; 20], vec![up; 20], 20, (1, 1)),
        ),
        ("Probe with at_ms = NaN at its destination", {
            let mut p = probe(vec![0], vec![vec![replica(1, 0)]], 1, vec![1]);
            p.dest = ME;
            p.at_ms = f64::NAN;
            WireMsg::Probe(p)
        }),
        (
            "PathProbe with idx = u32::MAX",
            WireMsg::PathProbe { session: 1, path: vec![1], idx: u32::MAX, origin: 0, backup_idx: 0 },
        ),
    ];
    let control_frames: Vec<(&str, WireMsg)> = vec![
        (
            "CtrlCompose with 63 functions",
            WireMsg::CtrlCompose { request: 1, dest: 2, chain: vec![0; 63], budget: 4 },
        ),
        (
            "CtrlStream with an empty path",
            WireMsg::CtrlStream {
                session: 1,
                path: Vec::new(),
                functions: Vec::new(),
                backups: Vec::new(),
                dest: 2,
                frames: 3,
                interval_ms: 10.0,
                width: 4,
                height: 4,
            },
        ),
    ];

    let world = world();
    let mut failures = Vec::new();
    for (control, (name, msg)) in peer_frames
        .iter()
        .map(|c| (false, c))
        .chain(control_frames.iter().map(|c| (true, c)))
    {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut node = PeerNode::new(PeerId::new(ME), world.clone(), HashMap::new());
            let mut out = Outbox::at(0.0);
            let accepted = if control {
                node.control(off_the_wire(msg), &mut out)
            } else {
                node.handle(off_the_wire(msg), &mut out);
                !out.sent.is_empty() || !out.timers.is_empty()
            };
            fire_timers(&mut node, &mut out);
            accepted
        }));
        match outcome {
            Err(_) => failures.push(format!("{name}: panicked")),
            Ok(true) => failures.push(format!("{name}: reached a handler")),
            Ok(false) => {}
        }
    }
    assert!(failures.is_empty(), "hostile frames were not dropped: {failures:#?}");
}

/// Runs one composition and a three-frame stream over peers driven by a
/// FIFO model network, and records every delivered frame together with
/// the receiving peer's state just before its delivery.
fn recorded_traffic() -> Vec<(PeerNode, WireMsg)> {
    let world = world();
    let mut nodes: Vec<PeerNode> = world
        .seeded_stores()
        .into_iter()
        .enumerate()
        .map(|(i, store)| PeerNode::new(PeerId::from(i), world.clone(), store))
        .collect();
    let (source, dest) = (PeerId::new(2), PeerId::new(3));
    let chain = vec![MediaFunction::ALL[0], MediaFunction::ALL[1]];
    let mut wire: VecDeque<(PeerId, WireMsg)> = VecDeque::new();
    let mut timers: Vec<(f64, PeerId, Timer)> = Vec::new();
    let mut clock = 0.0;
    let mut setups = Vec::new();
    let mut streaming = false;
    let mut recorded = Vec::new();

    let mut out = Outbox::at(clock);
    nodes[source.index()].compose(1, dest, chain, 8, &mut out);
    let mut from = source;
    loop {
        for (to, msg, _) in out.sent.drain(..) {
            wire.push_back((to, msg));
        }
        for (timer, delay) in out.timers.drain(..) {
            timers.push((clock + delay, from, timer));
        }
        setups.append(&mut out.setups);
        out = Outbox::at(clock);
        if let Some((to, msg)) = wire.pop_front() {
            recorded.push((nodes[to.index()].clone(), msg.clone()));
            nodes[to.index()].handle(msg, &mut out);
            from = to;
        } else if let Some(s) = setups.pop().filter(|s| s.ok && !streaming) {
            streaming = true;
            nodes[source.index()]
                .start_stream(s.request, s.path, s.functions, s.backups, s.dest, 3, 20.0, (4, 4), &mut out);
            from = source;
        } else if let Some(i) = (0..timers.len()).min_by(|&a, &b| timers[a].0.total_cmp(&timers[b].0)) {
            let (due, peer, timer) = timers.remove(i);
            clock = due;
            out = Outbox::at(clock);
            nodes[peer.index()].on_timer(timer, &mut out);
            from = peer;
        } else {
            break;
        }
    }
    assert!(streaming, "the composition never succeeded");
    recorded
}

#[test]
fn mutated_engine_traffic_never_panics() {
    let traffic = recorded_traffic();
    assert!(
        traffic.iter().any(|(_, m)| matches!(m, WireMsg::FrameAck { .. })),
        "the recorded run never delivered a frame"
    );
    let mut rng = rng_for(13, "hostile-frame-mutations");
    let mut decoded = 0;
    for round in 0..4_000 {
        let (node, msg) = &traffic[rng.gen_range(0..traffic.len())];
        let mut bytes = encode_to_vec(msg);
        for _ in 0..rng.gen_range(1usize..=4) {
            let at = rng.gen_range(HEADER_LEN..bytes.len());
            bytes[at] = match rng.gen_range(0u32..4) {
                0 => 0x00,
                1 => 0xFF,
                2 => bytes[at] ^ (1 << rng.gen_range(0u32..8)),
                _ => rng.gen::<u8>(),
            };
        }
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        let Ok(Some(mutated)) = dec.next_frame() else { continue };
        decoded += 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut node = node.clone();
            let mut out = Outbox::at(0.0);
            node.handle(mutated.clone(), &mut out);
            fire_timers(&mut node, &mut out);
        }));
        assert!(outcome.is_ok(), "round {round}: mutated {msg:?} into {mutated:?}, which panicked");
    }
    assert!(decoded > 1_000, "only {decoded} mutated frames decoded; the loop exercised too little");
}
