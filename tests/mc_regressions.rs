//! Pinned model-checker schedules.
//!
//! Every schedule here was produced by driving `CheckedWorld` through a
//! specific interleaving the checker explores (duplicated acks, stale
//! maintenance acks racing a failover, degenerate requests). Each test
//! regenerates the schedule from the live engine, then replays the
//! encoded form through `spidernet_runtime::mc::replay`, which checks
//! every safety invariant after every step and the liveness invariants
//! at quiescence. A regression in any of these interleavings fails the
//! replay with the violated invariant's text.

use spidernet::runtime::mc::{replay, CheckedWorld, McScenario, NetModel};
use spidernet::sim::mc::ModelSystem;
use spidernet::util::id::PeerId;
use spidernet::util::qos::QosVector;
use spidernet::wire::{WireMsg, WireProbe};

/// Drives `w` until quiescence (or `max` steps), letting `choose` pick
/// among the encoded enabled actions each step. Safety invariants are
/// checked after every action. Returns the encoded schedule.
fn drive(
    w: &mut CheckedWorld,
    mut choose: impl FnMut(&[String]) -> Option<usize>,
    max: usize,
) -> Vec<String> {
    let mut sched = Vec::new();
    for _ in 0..max {
        let mut acts = w.enabled();
        acts.sort();
        if acts.is_empty() {
            return sched;
        }
        let enc: Vec<String> = acts.iter().map(|a| w.encode(a)).collect();
        let Some(i) = choose(&enc) else { return sched };
        assert!(w.apply(&acts[i]), "chosen action {} went stale", enc[i]);
        if let Err(e) = w.check() {
            panic!("invariant violated after {}: {e}\nschedule: {sched:?}", enc[i]);
        }
        sched.push(enc[i].clone());
    }
    panic!("schedule did not quiesce within {max} steps: {sched:?}");
}

/// First enabled action that is not a fault injection.
fn first_clean(enc: &[String]) -> Option<usize> {
    enc.iter().position(|e| {
        !e.starts_with("drop:") && !e.starts_with("dup:") && !e.starts_with("crash:")
    })
}

/// Replays an encoded schedule against a fresh world and asserts it
/// applies fully with no invariant violation.
fn assert_replays_clean(scenario: &McScenario, sched: &[String]) {
    let refs: Vec<&str> = sched.iter().map(String::as_str).collect();
    let out = replay(scenario, &refs);
    assert_eq!(out.violation, None, "pinned schedule violated an invariant");
    assert_eq!(out.applied, sched.len(), "pinned schedule went stale mid-replay");
    assert_eq!(out.skipped, 0);
}

/// Composition under TCP-like FIFO delivery must complete successfully,
/// and the recorded schedule must replay clean.
#[test]
fn pin_setup_fifo_completion() {
    let scen = McScenario::setup(NetModel::default());
    let mut w = CheckedWorld::new(scen.clone());
    let sched = drive(&mut w, first_clean, 300);
    assert!(w.check_terminal().is_ok(), "terminal invariants failed: {:?}", w.check_terminal());
    let setup = &w.setup_results()[0];
    assert!(setup.ok, "lossless FIFO composition must succeed");
    assert_eq!(setup.request, 1);
    assert_replays_clean(&scen, &sched);
}

/// The same composition delivered newest-first — maximal reordering —
/// must reach the same successful outcome.
#[test]
fn pin_setup_reversed_delivery_completion() {
    let scen = McScenario::setup(NetModel::reorder_only());
    let mut w = CheckedWorld::new(scen.clone());
    // Pick the *last* clean action: newest in-flight message first.
    let sched = drive(
        &mut w,
        |enc| {
            enc.iter().rposition(|e| {
                !e.starts_with("drop:") && !e.starts_with("dup:") && !e.starts_with("crash:")
            })
        },
        300,
    );
    assert!(w.check_terminal().is_ok());
    assert!(w.setup_results()[0].ok);
    assert_replays_clean(&scen, &sched);
}

/// A duplicated `FrameAck` must be idempotent at the source: the stream
/// still reports every frame delivered exactly once, with no double
/// credit in the ack accounting.
#[test]
fn pin_duplicated_frame_ack_is_idempotent() {
    let scen = McScenario::stream(NetModel::lossy(0, 1));
    let mut w = CheckedWorld::new(scen.clone());
    let sched = drive(
        &mut w,
        |enc| {
            enc.iter().position(|e| e.starts_with("dup:FrameAck")).or_else(|| first_clean(enc))
        },
        600,
    );
    assert!(sched.iter().any(|e| e.starts_with("dup:FrameAck")), "adversary never duplicated");
    assert!(w.check_terminal().is_ok(), "terminal: {:?}", w.check_terminal());
    let report = &w.stream_reports()[0];
    assert_eq!(report.delivered, report.sent);
    assert!(report.all_valid);
    assert_replays_clean(&scen, &sched);
}

/// A duplicated `StreamFrame` must be deduplicated by sequence number:
/// the destination acks it once and the delivery digest is unchanged.
#[test]
fn pin_duplicated_stream_frame_is_deduped() {
    let scen = McScenario::stream(NetModel::lossy(0, 1));
    let mut w = CheckedWorld::new(scen.clone());
    let sched = drive(
        &mut w,
        |enc| {
            enc.iter().position(|e| e.starts_with("dup:StreamFrame")).or_else(|| first_clean(enc))
        },
        600,
    );
    assert!(sched.iter().any(|e| e.starts_with("dup:StreamFrame")), "adversary never duplicated");
    assert!(w.check_terminal().is_ok(), "terminal: {:?}", w.check_terminal());
    let report = &w.stream_reports()[0];
    assert_eq!(report.delivered, report.sent);
    assert!(report.all_valid);
    assert_replays_clean(&scen, &sched);
}

/// The failover race: a maintenance probe's ack is in flight when the
/// primary host crashes; the source fails over to that same backup, and
/// only then does the stale ack arrive. Crediting it against the now
/// active (consumed) slot would corrupt the backup liveness table — the
/// ghost invariant in `CheckedWorld::check` pins the correct behaviour
/// (the ack is ignored).
#[test]
fn pin_stale_path_probe_ack_after_failover() {
    let mut scen = McScenario::stream(NetModel::full(0, 0, 1));
    scen.stream_frames = 6;
    let mut w = CheckedWorld::new(scen.clone());
    let mut crashed = false;
    let sched = drive(
        &mut w,
        |enc| {
            if !crashed {
                // The moment a maintenance ack is in flight, crash the
                // primary host so the failover races it.
                if enc.iter().any(|e| e.starts_with("deliver:PathProbeAck")) {
                    if let Some(i) = enc.iter().position(|e| e.starts_with("crash:")) {
                        crashed = true;
                        return Some(i);
                    }
                }
                // Otherwise run the stream naturally (deliveries first,
                // then timers), holding any maintenance ack back.
                enc.iter()
                    .position(|e| e.starts_with("deliver:") && !e.contains("PathProbeAck"))
                    .or_else(|| enc.iter().position(|e| e.starts_with("timer:")))
            } else {
                // Post-crash: let the failover state machine run to
                // completion before releasing the stale ack.
                enc.iter()
                    .position(|e| e.starts_with("deliver:") && !e.contains("PathProbeAck"))
                    .or_else(|| enc.iter().position(|e| e.starts_with("timer:")))
                    .or_else(|| enc.iter().position(|e| e.starts_with("deliver:PathProbeAck")))
            }
        },
        800,
    );
    assert!(crashed, "the maintenance ack never raced the crash");
    assert!(sched.iter().any(|e| e.starts_with("deliver:PathProbeAck")), "stale ack never landed");
    assert!(w.check_terminal().is_ok(), "terminal: {:?}", w.check_terminal());
    let report = &w.stream_reports()[0];
    assert!(report.switches >= 1, "failover never happened: {report:?}");
    assert_replays_clean(&scen, &sched);
}

/// A zero-function chain is unsatisfiable: composition must fail
/// immediately (not wedge waiting for replies that can never come), and
/// the empty schedule must replay terminal-clean.
#[test]
fn pin_empty_chain_composition_fails_fast() {
    let mut scen = McScenario::setup(NetModel::reorder_only());
    scen.chain = Vec::new();
    let w = CheckedWorld::new(scen.clone());
    let setups = w.setup_results();
    assert_eq!(setups.len(), 1, "zero-function compose must resolve immediately");
    assert!(!setups[0].ok);
    assert!(w.enabled().is_empty(), "zero-function compose left work in flight");
    assert_replays_clean(&scen, &[]);
}

/// Hostile injections: a degenerate probe (empty chain, empty path) and
/// stray acks for a session that does not exist. Every peer must shrug
/// them off — no panic, no invariant violation, and the real
/// composition still completes.
#[test]
fn injected_degenerate_probe_and_stray_acks_are_harmless() {
    let scen = McScenario::setup(NetModel::reorder_only());
    let mut w = CheckedWorld::new(scen.clone());
    let source = scen.source;
    let dest = scen.dest;
    w.inject_wire(
        source,
        dest,
        WireMsg::Probe(WireProbe {
            request: 7,
            source: source.raw(),
            dest: dest.raw(),
            chain: Vec::new(),
            replica_lists: Vec::new(),
            pos: 0,
            path: Vec::new(),
            budget: 1,
            acc_qos: QosVector::zeros(2),
            at_ms: 0.0,
        }),
    );
    w.inject_wire(dest, source, WireMsg::FrameAck {
        session: 999,
        seq: 0,
        valid: true,
        digest: 0,
        at_ms: 0.0,
    });
    w.inject_wire(PeerId::new(0), source, WireMsg::PathProbeAck { session: 999, backup_idx: 3 });
    let _ = drive(&mut w, first_clean, 400);
    // The injected garbage must not have derailed the real request.
    assert!(w.setup_results().iter().any(|s| s.request == 1 && s.ok));
    assert!(w.check().is_ok());
}
