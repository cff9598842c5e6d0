//! The exact work-counter block is what later changes diff to show that
//! behaviour did not move, so it must not depend on the run: two runs at
//! one seed, and a run with two worker threads, must render the block
//! byte for byte the same.

use spiderbench::daemon;
use spiderbench::sim::{self, SimWorkload};
use spiderbench::trace::Tracer;

const SEED: u64 = 7;

fn sim_block(kind: SimWorkload, threads: usize) -> String {
    // A tiny measuring time still runs one full episode.
    let r = sim::run(kind, SEED, 0.01, false, threads, &mut Tracer::new(false));
    assert!(r.correct(), "{kind:?} checks failed: {:?}", r.checks);
    r.counters.to_json()
}

#[test]
fn simulator_counter_blocks_repeat_across_runs_and_threads() {
    for kind in [
        SimWorkload::OpenSteady,
        SimWorkload::OpenChurn,
        SimWorkload::PaperGrid,
    ] {
        let first = sim_block(kind, 1);
        assert_eq!(first, sim_block(kind, 1), "{kind:?}: second run differs");
        assert_eq!(
            first,
            sim_block(kind, 2),
            "{kind:?}: two-thread run differs"
        );
    }
}

#[test]
fn daemon_counter_block_repeats_across_runs() {
    let exe = std::path::Path::new(env!("CARGO_BIN_EXE_spidernet-node"));
    let block = || {
        let r =
            daemon::run(exe, SEED, 0.01, false, &mut Tracer::new(false)).expect("deployment runs");
        assert!(r.correct(), "daemon checks failed: {:?}", r.checks);
        r.counters.to_json()
    };
    assert_eq!(block(), block());
}
