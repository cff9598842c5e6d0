//! Golden test for the probe trace: a fixed seed and a fixed request must
//! always produce the exact same sequence of protocol events. Catches any
//! change that silently reorders probing, admission, or soft-state work.
//!
//! The expected sequence below was captured from the current protocol and
//! is intentionally brittle: if you change probing order on purpose,
//! re-capture it (run with `--nocapture` on failure — the test prints the
//! actual sequence).
#![cfg(feature = "trace")]

use spidernet::core::bcp::BcpConfig;
use spidernet::core::system::{CompositionOptions, SpiderNet, SpiderNetConfig};
use spidernet::core::workload::{random_request, PopulationConfig, RequestConfig};
use spidernet::sim::trace::TraceEvent;
use spidernet::util::rng::rng_for;

/// Compact one-line rendering of a trace event, with the session id
/// elided (asserted separately — every event must carry the run's own
/// session).
fn render(ev: &TraceEvent) -> String {
    match ev {
        TraceEvent::ProbeSpawned { depth, budget, .. } => format!("spawn d{depth} b{budget}"),
        TraceEvent::ProbeDropped { reason, .. } => format!("drop {reason:?}"),
        TraceEvent::SoftAlloc { peer } => format!("alloc p{peer}"),
        TraceEvent::SoftRelease { peer } => format!("release p{peer}"),
        TraceEvent::BackupSwitch { from, to, .. } => format!("switch {from}->{to}"),
        TraceEvent::DhtLookup { hops } => format!("dht h{hops}"),
        TraceEvent::FaultInjected { unit, peer, crash } => {
            format!("fault u{unit} p{peer} {}", if *crash { "crash" } else { "revive" })
        }
        TraceEvent::RecoverySwitch { rank, reactive, .. } => {
            format!("rswitch r{rank} reactive={reactive}")
        }
        TraceEvent::BaselinePruned { examined, pruned, .. } => {
            format!("baseline e{examined} p{pruned}")
        }
        TraceEvent::ConnOpened { peer } => format!("conn+ p{peer}"),
        TraceEvent::ConnClosed { peer } => format!("conn- p{peer}"),
        TraceEvent::ConnRetry { peer, attempt } => format!("connr p{peer} a{attempt}"),
        TraceEvent::ConnBackpressure { peer, shed_bytes } => {
            format!("connbp p{peer} shed{shed_bytes}")
        }
        TraceEvent::QueueDepth { peer, queued_bytes } => format!("connq p{peer} q{queued_bytes}"),
    }
}

#[test]
fn probe_event_sequence_is_stable_for_fixed_seed() {
    let mut net =
        SpiderNet::build(&SpiderNetConfig::builder().ip_nodes(300).peers(60).seed(17).build());
    net.populate(&PopulationConfig { functions: 12, ..Default::default() });
    let mut rng = rng_for(17, "trace-golden");
    let req = random_request(
        net.overlay(),
        net.registry(),
        &RequestConfig {
            functions: (2, 3),
            delay_bound_ms: (50_000.0, 60_000.0),
            loss_bound: (0.5, 0.6),
            ..RequestConfig::default()
        },
        &mut rng,
    );

    let opts = CompositionOptions::bcp(BcpConfig::builder().budget(4).build()).with_trace();
    let rep = net.compose_with(&req, &opts).expect("loose request composes");

    // Every traced event belongs to this run's session (or is session-less
    // soft-state / DHT work from the same run).
    for ev in &rep.trace {
        match ev {
            TraceEvent::ProbeSpawned { session, .. }
            | TraceEvent::ProbeDropped { session, .. }
            | TraceEvent::BackupSwitch { session, .. } => {
                assert_eq!(*session, rep.session, "event from a foreign session: {ev:?}");
            }
            _ => {}
        }
    }

    let actual: Vec<String> = rep.trace.iter().map(render).collect();
    let expected: Vec<&str> = GOLDEN.trim().lines().map(str::trim).collect();
    assert_eq!(
        actual, expected,
        "probe event sequence drifted; actual:\n{}",
        actual.join("\n")
    );

    // The same seed in a freshly built world replays the identical stream.
    let mut net2 =
        SpiderNet::build(&SpiderNetConfig::builder().ip_nodes(300).peers(60).seed(17).build());
    net2.populate(&PopulationConfig { functions: 12, ..Default::default() });
    let rep2 = net2.compose_with(&req, &opts).expect("replay composes");
    let replay: Vec<String> = rep2.trace.iter().map(render).collect();
    assert_eq!(actual, replay, "same seed must replay the same event stream");
}

/// Captured from seed 17 / stream "trace-golden" with a probe budget of 4.
const GOLDEN: &str = "
    dht h2
    dht h2
    spawn d0 b1
    alloc p45
    spawn d1 b1
    alloc p52
    spawn d2 b1
    spawn d0 b1
    alloc p26
    spawn d1 b1
    spawn d2 b1
    spawn d0 b1
    alloc p1
    spawn d1 b1
    alloc p6
    spawn d2 b1
    spawn d0 b1
    alloc p33
    spawn d1 b1
    alloc p31
    spawn d2 b1
    release p45
    release p52
    release p26
    release p1
    release p6
    release p33
    release p31
";
