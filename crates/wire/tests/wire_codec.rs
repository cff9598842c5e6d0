//! Wire-codec conformance suite: golden byte pins for representative
//! frames, round-trip property tests over seeded arbitrary messages, and
//! a mutation fuzzer asserting the decoder never panics on hostile input.

use spidernet_util::qos::QosVector;
use spidernet_util::res::ResourceVector;
use spidernet_util::rng::{rng_for_indexed, Rng};
use spidernet_wire::{
    decode, encode_to_vec, negotiate, FrameDecoder, WireError, WireMsg, WirePixels, WireProbe,
    WireReplica, WireSetup, WireStats, WireStreamReport, HEADER_LEN, MAGIC, PROTO_VERSION,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

// ---------------------------------------------------------------------
// Fixtures: one representative message per frame type
// ---------------------------------------------------------------------

fn fixtures() -> Vec<WireMsg> {
    vec![
        WireMsg::Hello {
            peer: 3,
            node_id: 0x00112233_44556677_8899aabb_ccddeeff,
            proto_min: 1,
            proto_max: 1,
            listen_port: 40003,
        },
        WireMsg::HelloAck { peer: 5, proto: 1 },
        WireMsg::DhtLookup {
            query: 42,
            key: 0xdead_beef,
            origin: 7,
            hops: 2,
            at_ms: 36.5,
        },
        WireMsg::DhtReply {
            query: 42,
            metas: vec![
                WireReplica { peer: 11, function: 2 },
                WireReplica { peer: 19, function: 2 },
            ],
            at_ms: 98.25,
        },
        WireMsg::Register {
            key: 0xfeed_f00d,
            replica: WireReplica { peer: 13, function: 4 },
            qos: QosVector::from_values(vec![12.0, 0.5]),
            res: ResourceVector::new(2.0, 256.0),
            hops: 1,
        },
        WireMsg::Probe(WireProbe {
            request: 9,
            source: 0,
            dest: 7,
            chain: vec![2, 4],
            replica_lists: vec![
                vec![WireReplica { peer: 11, function: 2 }],
                vec![WireReplica { peer: 13, function: 4 }, WireReplica { peer: 17, function: 4 }],
            ],
            pos: 1,
            path: vec![11],
            budget: 6,
            acc_qos: QosVector::from_values(vec![27.5]),
            at_ms: 61.125,
        }),
        WireMsg::SetupAck {
            session: 9,
            path: vec![11, 13],
            functions: vec![2, 4],
            idx: u32::MAX,
            source: 0,
            backups: vec![vec![11, 17], vec![19, 13]],
            selected_ms: 140.5,
            at_ms: 188.75,
        },
        WireMsg::StreamFrame {
            session: 9,
            path: vec![11, 13],
            functions: vec![2, 4],
            idx: 1,
            dest: 7,
            source: 0,
            orig_w: 4,
            orig_h: 2,
            frame: WirePixels { width: 4, height: 2, seq: 17, pixels: vec![0, 1, 2, 3, 4, 5, 6, 7] },
            at_ms: 250.0,
        },
        WireMsg::FrameAck { session: 9, seq: 17, valid: true, digest: 0xabc123, at_ms: 300.5 },
        WireMsg::PathProbe { session: 9, path: vec![11, 17], idx: 0, origin: 0, backup_idx: 0 },
        WireMsg::PathProbeAck { session: 9, backup_idx: 0 },
        WireMsg::CtrlCompose { request: 9, dest: 7, chain: vec![2, 4], budget: 6 },
        WireMsg::CtrlComposeResult(WireSetup {
            request: 9,
            ok: true,
            dest: 7,
            path: vec![11, 13],
            functions: vec![2, 4],
            backups: vec![vec![11, 17]],
            discovery_ms: 52.0,
            probing_ms: 88.5,
            init_ms: 48.25,
            total_ms: 188.75,
        }),
        WireMsg::CtrlStream {
            session: 9,
            path: vec![11, 13],
            functions: vec![2, 4],
            backups: vec![vec![11, 17]],
            dest: 7,
            frames: 200,
            interval_ms: 33.0,
            width: 64,
            height: 48,
        },
        WireMsg::CtrlStreamReport(WireStreamReport {
            session: 9,
            sent: 200,
            delivered: 200,
            all_valid: true,
            switches: 1,
            maintenance_probes: 12,
            final_path: vec![11, 17],
            delivery_digest: 0x1234_5678_9abc_def0,
        }),
        WireMsg::CtrlStatsRequest,
        WireMsg::CtrlStatsReply(WireStats {
            peer: 3,
            probes_sent: 14,
            dht_hops: 9,
            msgs_dropped: 1,
            store_entries: 2,
            frames_tx: 321,
            frames_rx: 318,
            bytes_tx: 65536,
            bytes_rx: 65024,
            conns_opened: 4,
            conn_retries: 1,
            decode_errors: 0,
        }),
        WireMsg::CtrlShutdown,
    ]
}

/// Pinned encodings for the fixtures above, index-aligned. Any codec
/// change that rewrites bytes on the wire must bump PROTO_VERSION and
/// re-pin these deliberately.
const GOLDEN: &[&str] = &[
    "53504452010001001e0000000300000000000000ffeeddccbbaa9988776655443322110001000100439c",
    "53504452010002000a00000005000000000000000100",
    "53504452010003002c0000002a00000000000000efbeadde0000000000000000000000000700000000000000020000000000000000404240",
    "5350445201000400260000002a00000000000000020000000b00000000000000021300000000000000020000000000905840",
    "5350445201000500410000000df0edfe0000000000000000000000000d0000000000000004020000000000000000002840000000000000e03f0000000000000040000000000000704001000000",
    "53504452010006006d00000009000000000000000000000000000000070000000000000002000000020402000000010000000b0000000000000002020000000d000000000000000411000000000000000401000000010000000b0000000000000006000000010000000000000000803b400000000000904e40",
    "53504452010007006a0000000900000000000000020000000b000000000000000d00000000000000020000000204ffffffff000000000000000002000000020000000b0000000000000011000000000000000200000013000000000000000d0000000000000000000000009061400000000000986740",
    "5350445201000800620000000900000000000000020000000b000000000000000d0000000000000002000000020401000000070000000000000000000000000000000400000002000000040000000200000011000000000000000800000000010203040506070000000000406f40",
    "535044520100090021000000090000000000000011000000000000000123c1ab00000000000000000000c87240",
    "5350445201000a002c0000000900000000000000020000000b00000000000000110000000000000000000000000000000000000000000000",
    "5350445201000b000c000000090000000000000000000000",
    "53504452010014001a0000000900000000000000070000000000000002000000020406000000",
    "5350445201001500630000000900000000000000010700000000000000020000000b000000000000000d0000000000000002000000020401000000020000000b0000000000000011000000000000000000000000004a40000000000020564000000000002048400000000000986740",
    "53504452010016005a0000000900000000000000020000000b000000000000000d0000000000000002000000020401000000020000000b0000000000000011000000000000000700000000000000c80000000000000000000000008040404000000030000000",
    "5350445201001700410000000900000000000000c800000000000000c80000000000000001010000000c00000000000000020000000b000000000000001100000000000000f0debc9a78563412",
    "535044520100180000000000",
    "53504452010019006000000003000000000000000e0000000000000009000000000000000100000000000000020000000000000041010000000000003e01000000000000000001000000000000fe000000000000040000000000000001000000000000000000000000000000",
    "5350445201001a0000000000",
];

/// Prints a fresh GOLDEN table. Run after a deliberate wire-format
/// change (with a PROTO_VERSION bump) to re-pin:
/// `cargo test -p spidernet-wire regenerate_golden -- --ignored --nocapture`
#[test]
#[ignore]
fn regenerate_golden() {
    for msg in fixtures() {
        println!("    \"{}\",", hex(&encode_to_vec(&msg)));
    }
}

#[test]
fn golden_encodings_are_pinned() {
    let msgs = fixtures();
    assert_eq!(msgs.len(), GOLDEN.len());
    for (i, msg) in msgs.iter().enumerate() {
        let bytes = encode_to_vec(msg);
        assert_eq!(hex(&bytes), GOLDEN[i], "fixture {i} ({:?}) drifted", msg.kind());
        let (back, used) = decode(&bytes).expect("golden frame decodes");
        assert_eq!(used, bytes.len());
        assert_eq!(&back, msg);
    }
}

#[test]
fn every_frame_type_round_trips_bit_exactly() {
    for msg in fixtures() {
        let bytes = encode_to_vec(&msg);
        let (back, used) = decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(back, msg);
        // Re-encoding the decoded value reproduces the same bytes.
        assert_eq!(encode_to_vec(&back), bytes);
    }
}

/// The fault-injection class (DESIGN §12): exactly the peer-protocol
/// kinds 3–11 are droppable; handshakes and the control plane always
/// deliver.
#[test]
fn droppable_is_exactly_kinds_3_through_11() {
    let msgs = fixtures();
    let mut kinds: Vec<u8> = msgs.iter().map(WireMsg::kind).collect();
    kinds.dedup();
    assert_eq!(kinds.len(), msgs.len(), "one fixture per kind");
    for msg in msgs {
        assert_eq!(msg.droppable(), (3..=11).contains(&msg.kind()), "kind {}", msg.kind());
    }
}

// ---------------------------------------------------------------------
// Property tests over seeded arbitrary messages
// ---------------------------------------------------------------------

fn arb_qos(rng: &mut Rng) -> QosVector {
    let dims = rng.gen_range(0..4usize);
    QosVector::from_values((0..dims).map(|_| rng.gen_range(0.0..500.0f64)).collect())
}

fn arb_path(rng: &mut Rng) -> Vec<u64> {
    let n = rng.gen_range(0..5usize);
    (0..n).map(|_| rng.gen_range(0..64u64)).collect()
}

fn arb_paths(rng: &mut Rng) -> Vec<Vec<u64>> {
    let n = rng.gen_range(0..3usize);
    (0..n).map(|_| arb_path(rng)).collect()
}

fn arb_fns(rng: &mut Rng) -> Vec<u8> {
    let n = rng.gen_range(0..4usize);
    (0..n).map(|_| rng.gen_range(0..6u32) as u8).collect()
}

fn arb_replicas(rng: &mut Rng) -> Vec<WireReplica> {
    let n = rng.gen_range(0..4usize);
    (0..n)
        .map(|_| WireReplica { peer: rng.gen_range(0..64u64), function: rng.gen_range(0..6u32) as u8 })
        .collect()
}

fn arb_msg(rng: &mut Rng) -> WireMsg {
    match rng.gen_range(0..17u32) {
        0 => WireMsg::Hello {
            peer: rng.next_u64(),
            node_id: (rng.next_u64() as u128) << 64 | rng.next_u64() as u128,
            proto_min: rng.gen_range(0..4u32) as u16,
            proto_max: rng.gen_range(0..4u32) as u16,
            listen_port: rng.gen_range(0..65536u32) as u16,
        },
        1 => WireMsg::HelloAck { peer: rng.next_u64(), proto: 1 },
        2 => WireMsg::DhtLookup {
            query: rng.next_u64(),
            key: (rng.next_u64() as u128) << 64 | rng.next_u64() as u128,
            origin: rng.gen_range(0..64u64),
            hops: rng.gen_range(0..8u32),
            at_ms: rng.gen_range(0.0..1e4f64),
        },
        3 => WireMsg::DhtReply {
            query: rng.next_u64(),
            metas: arb_replicas(rng),
            at_ms: rng.gen_range(0.0..1e4f64),
        },
        4 => WireMsg::Register {
            key: (rng.next_u64() as u128) << 64 | rng.next_u64() as u128,
            replica: WireReplica { peer: rng.gen_range(0..64u64), function: rng.gen_range(0..6u32) as u8 },
            qos: arb_qos(rng),
            res: ResourceVector::new(rng.gen_range(0.0..16.0f64), rng.gen_range(0.0..4096.0f64)),
            hops: rng.gen_range(0..8u32),
        },
        5 => {
            let chain = arb_fns(rng);
            let replica_lists = (0..chain.len()).map(|_| arb_replicas(rng)).collect();
            WireMsg::Probe(WireProbe {
                request: rng.next_u64(),
                source: rng.gen_range(0..64u64),
                dest: rng.gen_range(0..64u64),
                chain,
                replica_lists,
                pos: rng.gen_range(0..4u32),
                path: arb_path(rng),
                budget: rng.gen_range(1..32u32),
                acc_qos: arb_qos(rng),
                at_ms: rng.gen_range(0.0..1e4f64),
            })
        }
        6 => WireMsg::SetupAck {
            session: rng.next_u64(),
            path: arb_path(rng),
            functions: arb_fns(rng),
            idx: if rng.gen_range(0..4u32) == 0 { u32::MAX } else { rng.gen_range(0..4u32) },
            source: rng.gen_range(0..64u64),
            backups: arb_paths(rng),
            selected_ms: rng.gen_range(0.0..1e4f64),
            at_ms: rng.gen_range(0.0..1e4f64),
        },
        7 => {
            let n = rng.gen_range(0..64usize);
            WireMsg::StreamFrame {
                session: rng.next_u64(),
                path: arb_path(rng),
                functions: arb_fns(rng),
                idx: rng.gen_range(0..4u32),
                dest: rng.gen_range(0..64u64),
                source: rng.gen_range(0..64u64),
                orig_w: rng.gen_range(1..64u32),
                orig_h: rng.gen_range(1..64u32),
                frame: WirePixels {
                    width: rng.gen_range(1..64u32),
                    height: rng.gen_range(1..64u32),
                    seq: rng.next_u64(),
                    pixels: (0..n).map(|_| rng.gen_range(0..256u32) as u8).collect(),
                },
                at_ms: rng.gen_range(0.0..1e4f64),
            }
        }
        8 => WireMsg::FrameAck {
            session: rng.next_u64(),
            seq: rng.next_u64(),
            valid: rng.gen_range(0..2u32) == 1,
            digest: rng.next_u64(),
            at_ms: rng.gen_range(0.0..1e4f64),
        },
        9 => WireMsg::PathProbe {
            session: rng.next_u64(),
            path: arb_path(rng),
            idx: rng.gen_range(0..4u32),
            origin: rng.gen_range(0..64u64),
            backup_idx: rng.gen_range(0..4u32),
        },
        10 => WireMsg::PathProbeAck { session: rng.next_u64(), backup_idx: rng.gen_range(0..4u32) },
        11 => WireMsg::CtrlCompose {
            request: rng.next_u64(),
            dest: rng.gen_range(0..64u64),
            chain: arb_fns(rng),
            budget: rng.gen_range(1..32u32),
        },
        12 => WireMsg::CtrlComposeResult(WireSetup {
            request: rng.next_u64(),
            ok: rng.gen_range(0..2u32) == 1,
            dest: rng.gen_range(0..64u64),
            path: arb_path(rng),
            functions: arb_fns(rng),
            backups: arb_paths(rng),
            discovery_ms: rng.gen_range(0.0..1e4f64),
            probing_ms: rng.gen_range(0.0..1e4f64),
            init_ms: rng.gen_range(0.0..1e4f64),
            total_ms: rng.gen_range(0.0..1e4f64),
        }),
        13 => WireMsg::CtrlStream {
            session: rng.next_u64(),
            path: arb_path(rng),
            functions: arb_fns(rng),
            backups: arb_paths(rng),
            dest: rng.gen_range(0..64u64),
            frames: rng.gen_range(1..512u64),
            interval_ms: rng.gen_range(1.0..100.0f64),
            width: rng.gen_range(1..128u32),
            height: rng.gen_range(1..128u32),
        },
        14 => WireMsg::CtrlStreamReport(WireStreamReport {
            session: rng.next_u64(),
            sent: rng.gen_range(0..512u64),
            delivered: rng.gen_range(0..512u64),
            all_valid: rng.gen_range(0..2u32) == 1,
            switches: rng.gen_range(0..4u32),
            maintenance_probes: rng.gen_range(0..64u64),
            final_path: arb_path(rng),
            delivery_digest: rng.next_u64(),
        }),
        15 => WireMsg::CtrlStatsReply(WireStats {
            peer: rng.gen_range(0..64u64),
            probes_sent: rng.next_u64(),
            dht_hops: rng.next_u64(),
            msgs_dropped: rng.next_u64(),
            store_entries: rng.next_u64(),
            frames_tx: rng.next_u64(),
            frames_rx: rng.next_u64(),
            bytes_tx: rng.next_u64(),
            bytes_rx: rng.next_u64(),
            conns_opened: rng.next_u64(),
            conn_retries: rng.next_u64(),
            decode_errors: rng.next_u64(),
        }),
        _ => {
            if rng.gen_range(0..2u32) == 0 {
                WireMsg::CtrlStatsRequest
            } else {
                WireMsg::CtrlShutdown
            }
        }
    }
}

#[test]
fn arbitrary_messages_round_trip() {
    let mut rng = rng_for_indexed(0xC0DEC, "wire-prop", 0);
    for _ in 0..500 {
        let msg = arb_msg(&mut rng);
        let bytes = encode_to_vec(&msg);
        let (back, used) = decode(&bytes)
            .unwrap_or_else(|e| panic!("round-trip decode failed: {e} for {msg:?}"));
        assert_eq!(used, bytes.len());
        assert_eq!(back, msg);
    }
}

#[test]
fn encoded_len_is_exact_and_encode_into_is_byte_identical() {
    let mut rng = rng_for_indexed(0xC0DEC, "wire-len", 0);
    let mut msgs = fixtures();
    msgs.extend((0..500).map(|_| arb_msg(&mut rng)));
    let pool = spidernet_wire::BufPool::default();
    for msg in &msgs {
        let bytes = encode_to_vec(msg);
        assert_eq!(msg.encoded_len(), bytes.len(), "encoded_len drifted for {:?}", msg.kind());
        // encode_into appends after existing content and matches encode().
        let mut buf = vec![0xAA, 0xBB];
        msg.encode_into(&mut buf);
        assert_eq!(&buf[..2], &[0xAA, 0xBB]);
        assert_eq!(&buf[2..], &bytes[..]);
        // The pooled path produces the same bytes.
        let pooled = pool.encode(msg);
        assert_eq!(pooled, bytes);
        pool.put(pooled);
    }
}

#[test]
fn stream_decoder_handles_a_split_at_every_byte_boundary() {
    // Vectored/partial writes can cut a frame anywhere, including inside
    // the header. Feed [frame_a | frame_b] split at every position k and
    // require the exact two-message sequence back each time.
    let mut rng = rng_for_indexed(0xC0DEC, "wire-split", 0);
    let a = arb_msg(&mut rng);
    let b = arb_msg(&mut rng);
    let mut wire = Vec::new();
    spidernet_wire::encode(&a, &mut wire);
    spidernet_wire::encode(&b, &mut wire);
    for k in 0..=wire.len() {
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for chunk in [&wire[..k], &wire[k..]] {
            dec.extend(chunk);
            while let Some(m) = dec.next_frame().expect("clean stream never poisons") {
                out.push(m);
            }
        }
        assert_eq!(out, vec![a.clone(), b.clone()], "split at byte {k} corrupted the stream");
        assert_eq!(dec.pending(), 0, "split at byte {k} left pending bytes");
    }
}

#[test]
fn stream_decoder_reassembles_byte_by_byte() {
    let mut rng = rng_for_indexed(0xC0DEC, "wire-stream", 0);
    let msgs: Vec<WireMsg> = (0..40).map(|_| arb_msg(&mut rng)).collect();
    let mut wire = Vec::new();
    for m in &msgs {
        spidernet_wire::encode(m, &mut wire);
    }
    // Feed the concatenated stream in ragged chunks; expect the exact
    // message sequence out, regardless of chunk boundaries.
    let mut dec = FrameDecoder::new();
    let mut out = Vec::new();
    let mut i = 0;
    while i < wire.len() {
        let n = (rng.gen_range(1..7usize)).min(wire.len() - i);
        dec.extend(&wire[i..i + n]);
        i += n;
        while let Some(m) = dec.next_frame().expect("clean stream never poisons") {
            out.push(m);
        }
    }
    assert_eq!(out, msgs);
    assert_eq!(dec.pending(), 0);
}

// ---------------------------------------------------------------------
// Typed rejection + mutation fuzz
// ---------------------------------------------------------------------

#[test]
fn decoder_rejects_hostile_frames_with_typed_errors() {
    let good = encode_to_vec(&WireMsg::HelloAck { peer: 5, proto: 1 });

    // Truncated header.
    assert!(matches!(decode(&good[..4]), Err(WireError::Truncated { .. })));
    // Truncated payload.
    assert!(matches!(decode(&good[..good.len() - 1]), Err(WireError::Truncated { .. })));

    // Bad magic.
    let mut bad = good.clone();
    bad[0] = b'X';
    assert!(matches!(decode(&bad), Err(WireError::BadMagic(_))));

    // Unknown version.
    let mut bad = good.clone();
    bad[4] = 0x63;
    assert_eq!(decode(&bad).unwrap_err(), WireError::UnsupportedVersion(0x63));

    // Unknown frame type.
    let mut bad = good.clone();
    bad[6] = 200;
    assert_eq!(decode(&bad).unwrap_err(), WireError::UnknownFrameType(200));

    // Oversized length prefix.
    let mut bad = good.clone();
    bad[8..12].copy_from_slice(&(u32::MAX).to_le_bytes());
    assert!(matches!(decode(&bad), Err(WireError::Oversized { .. })));

    // Trailing payload bytes.
    let mut bad = good.clone();
    bad.push(0);
    let len = (bad.len() - HEADER_LEN) as u32;
    bad[8..12].copy_from_slice(&len.to_le_bytes());
    assert_eq!(decode(&bad).unwrap_err(), WireError::TrailingBytes { extra: 1 });

    // Non-zero reserved flags.
    let mut bad = good.clone();
    bad[7] = 1;
    assert!(matches!(decode(&bad), Err(WireError::Malformed(_))));

    // Only Truncated is recoverable.
    assert!(WireError::Truncated { needed: 1 }.is_recoverable());
    assert!(!WireError::BadMagic([0; 4]).is_recoverable());
}

#[test]
fn mutation_fuzz_never_panics() {
    for trial in 0..200u64 {
        let mut rng = rng_for_indexed(0xF422, "wire-fuzz", trial);
        let mut bytes = encode_to_vec(&arb_msg(&mut rng));
        // Mutate a handful of random bytes, or truncate, or extend.
        match rng.gen_range(0..3u32) {
            0 => {
                for _ in 0..rng.gen_range(1..6usize) {
                    let i = rng.gen_range(0..bytes.len());
                    bytes[i] ^= rng.gen_range(1..256u32) as u8;
                }
            }
            1 => {
                let keep = rng.gen_range(0..bytes.len());
                bytes.truncate(keep);
            }
            _ => {
                for _ in 0..rng.gen_range(1..16usize) {
                    bytes.push(rng.gen_range(0..256u32) as u8);
                }
            }
        }
        // Must decode or return a typed error; never panic.
        let _ = decode(&bytes);
    }
    // Pure byte soup, assorted lengths.
    for trial in 0..64u64 {
        let mut rng = rng_for_indexed(0xF423, "wire-soup", trial);
        let n = rng.gen_range(0..256usize);
        let soup: Vec<u8> = (0..n).map(|_| rng.gen_range(0..256u32) as u8).collect();
        let _ = decode(&soup);
    }
}

#[test]
fn version_negotiation_picks_highest_common() {
    assert_eq!(negotiate((1, 1), (1, 1)), Some(1));
    assert_eq!(negotiate((1, 3), (2, 5)), Some(3));
    assert_eq!(negotiate((2, 4), (1, 9)), Some(4));
    assert_eq!(negotiate((1, 1), (2, 2)), None);
    assert_eq!(negotiate((3, 2), (1, 9)), None);
    let _ = PROTO_VERSION;
    assert_eq!(&MAGIC, b"SPDR");
}

#[test]
fn stream_decoder_accepts_duplicated_and_reordered_frames() {
    // A retransmitting or misbehaving peer may send the same frame twice,
    // or interleave frames in an order the application never produced.
    // Framing is stateless across frames: the decoder must hand every
    // well-formed frame up in feed order and let the protocol layer dedup.
    let msgs = fixtures();
    let frames: Vec<Vec<u8>> = msgs.iter().map(encode_to_vec).collect();

    // Duplication: every fixture frame sent twice back to back.
    let mut dec = FrameDecoder::new();
    for f in &frames {
        dec.extend(f);
        dec.extend(f);
    }
    let mut out = Vec::new();
    while let Some(m) = dec.next_frame().expect("duplicated frames never poison") {
        out.push(m);
    }
    let expect: Vec<WireMsg> = msgs.iter().flat_map(|m| [m.clone(), m.clone()]).collect();
    assert_eq!(out, expect);
    assert_eq!(dec.pending(), 0);

    // Reordering: the same frames in seeded shuffled order, fed in ragged
    // chunks so duplicates may straddle a chunk boundary.
    let mut rng = rng_for_indexed(0xC0DEC, "wire-reorder", 0);
    let mut order: Vec<usize> = (0..frames.len()).collect();
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..(i + 1) as u32) as usize;
        order.swap(i, j);
    }
    let mut wire = Vec::new();
    for &i in &order {
        wire.extend_from_slice(&frames[i]);
        wire.extend_from_slice(&frames[i]); // duplicate in the new order too
    }
    let mut dec = FrameDecoder::new();
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < wire.len() {
        let n = (rng.gen_range(1..9u32) as usize).min(wire.len() - pos);
        dec.extend(&wire[pos..pos + n]);
        pos += n;
        while let Some(m) = dec.next_frame().expect("reordered frames never poison") {
            out.push(m);
        }
    }
    let expect: Vec<WireMsg> =
        order.iter().flat_map(|&i| [msgs[i].clone(), msgs[i].clone()]).collect();
    assert_eq!(out, expect);
    assert_eq!(dec.pending(), 0);
}

#[test]
fn stream_decoder_poisons_on_corruption_between_duplicates() {
    // Valid frames before a corrupt one must still come out; the corrupt
    // frame must surface as its exact typed error; and the stream must
    // stay poisoned afterwards (no resync past garbage).
    let good = encode_to_vec(&WireMsg::HelloAck { peer: 5, proto: 1 });
    let mut bad_magic = good.clone();
    bad_magic[0] = b'X';
    let mut bad_type = good.clone();
    bad_type[6] = 200;

    for (bad, want) in [
        (&bad_magic, WireError::BadMagic(*b"XPDR")),
        (&bad_type, WireError::UnknownFrameType(200)),
    ] {
        let mut dec = FrameDecoder::new();
        dec.extend(&good);
        dec.extend(&good); // duplicate
        dec.extend(bad);
        dec.extend(&good); // a frame the poisoned stream must never yield
        for _ in 0..2 {
            assert_eq!(
                dec.next_frame().expect("valid prefix decodes"),
                Some(WireMsg::HelloAck { peer: 5, proto: 1 })
            );
        }
        assert_eq!(dec.next_frame().unwrap_err(), want);
        // Poisoned: subsequent polls keep failing instead of resyncing.
        assert!(dec.next_frame().is_err(), "decoder resynced past corruption");
    }
}

#[test]
fn version_negotiation_matrix() {
    // Exhaustive over all (min, max) range pairs with bounds <= 4:
    // negotiate is symmetric, picks the highest mutually supported
    // version, and returns None exactly when the ranges are disjoint
    // (or a range is itself empty, min > max).
    for a_lo in 0..=4u16 {
        for a_hi in 0..=4u16 {
            for b_lo in 0..=4u16 {
                for b_hi in 0..=4u16 {
                    let a = (a_lo, a_hi);
                    let b = (b_lo, b_hi);
                    let got = negotiate(a, b);
                    assert_eq!(got, negotiate(b, a), "negotiate not symmetric for {a:?} {b:?}");
                    let common: Vec<u16> = (0..=4)
                        .filter(|v| a_lo <= *v && *v <= a_hi && b_lo <= *v && *v <= b_hi)
                        .collect();
                    assert_eq!(got, common.last().copied(), "wrong pick for {a:?} {b:?}");
                }
            }
        }
    }
}
