//! Experiment drivers regenerating the paper's evaluation (§6).
//!
//! Each submodule owns one figure or claim:
//!
//! | module | paper artifact |
//! |---|---|
//! | [`fig8`] | Fig. 8 — composition success rate vs workload, five algorithms |
//! | [`fig9`] | Fig. 9 — failure frequency over time with/without proactive recovery |
//! | [`fig11`] | Fig. 11 — average end-to-end delay vs probing budget |
//! | [`overhead`] | §6.1 claim — BCP vs centralized global-state message overhead |
//! | [`latency`] | §5 claim — recovery latency, backup switch vs reactive BCP |
//! | [`faults`] | beyond the paper — recovery under seeded fault plans and churn sweeps |
//! | [`congestion`] | beyond the paper — QoS violations & goodput vs offered load under shared bandwidth |
//!
//! Fig. 10 (wide-area session setup time) runs on the wide-area runtime and
//! lives in `spidernet-runtime::experiments`. [`ablation`] adds quality
//! ablations of the design choices (commutation, quota policy, trust).
//!
//! # One simulator loop
//!
//! Every driver that simulates time units — [`fig8`], [`fig9`],
//! [`latency`], [`overhead`], [`faults`], and `loadgen`'s load cell —
//! steps a [`Scenario`]: per unit, due sessions end, the fault plan's
//! crashes, revives and soft storms run with full recovery, the driver's
//! arrival closure composes and admits requests, backups are maintained,
//! and the clock advances one second. A driver differs only in its world,
//! its plan, and its arrival closure. [`congestion`] keeps its own loop:
//! it runs one burst of arrivals on a 10 ms cadence, with no unit clock,
//! expiry, churn, or maintenance.
//!
//! # Parallel deterministic harness
//!
//! Every driver decomposes its figure into *independent cells* — a
//! (workload, algorithm) pair for Fig. 8, a budget point for Fig. 11, an
//! arm or study for the two-sided comparisons — and fans the cells out
//! over [`spidernet_util::par::par_map_with`]. Each cell derives its own
//! random streams from the master seed with
//! [`spidernet_util::rng::rng_for`] / [`rng_for_trial`]
//! (SplitMix64-derived, never shared across cells), and results are
//! written back by cell index, so the output is **bit-identical whatever
//! the thread count** — `threads = Some(1)` runs the very same code on
//! the caller's thread. Thread selection: the config's `threads` field,
//! else `SPIDERNET_THREADS` / `RAYON_NUM_THREADS`, else all cores.
//!
//! [`Scenario`]: crate::scenario::Scenario
//! [`rng_for_trial`]: spidernet_util::rng::rng_for_trial

pub mod ablation;
pub mod congestion;
pub mod fig11;
pub mod latency;
pub mod fig8;
pub mod fig9;
pub mod faults;
pub mod overhead;

use crate::recovery::RecoveryConfig;
use crate::system::{SpiderNet, SpiderNetConfig};
use crate::workload::PopulationConfig;

/// Builds a default-style world (generated IP network, mesh overlay) under
/// `recovery` and populates it.
fn world(
    ip_nodes: usize,
    peers: usize,
    seed: u64,
    recovery: RecoveryConfig,
    population: &PopulationConfig,
) -> SpiderNet {
    let mut net = SpiderNet::build(&SpiderNetConfig {
        ip_nodes,
        peers,
        seed,
        recovery,
        ..SpiderNetConfig::default()
    });
    net.populate(population);
    net
}

/// Resolves a config's optional thread override against the environment
/// (see [`spidernet_util::par::configured_threads`]).
pub(crate) fn resolve_threads(threads: Option<usize>) -> usize {
    threads.unwrap_or_else(spidernet_util::par::configured_threads)
}
