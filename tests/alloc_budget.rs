//! Heap traffic of the steady-state request path, pinned per stage.
//!
//! A counting global allocator tallies, per thread, every `alloc`,
//! `realloc` and `dealloc` call. The test builds an `open_steady`-shaped
//! world through the public API (1,500 IP nodes, 300 peers, 40 functions,
//! world seed 11, compose cache on, ψ = 0.85, U = 10), serves a fixed,
//! pre-generated request stream (Zipf(0.9) function popularity, linear
//! chains of 2–4 functions, loose bounds, 10–30 units of lifetime at 10
//! requests per unit), and after a warm-up batch reports the mean
//! allocator calls per `compose_with`, per `establish` and per `teardown`.
//!
//! The counts are exact work counters: the same code serving the same
//! stream makes the same calls, whatever the host. Each bound is the
//! count the request path reaches plus a little headroom for allocation
//! changes inside `std`; a change that puts heap traffic back on the path
//! fails here.
//!
//! Run `cargo test --release --test alloc_budget -- --nocapture` to see
//! the counts.

use spidernet::core::bcp::BcpConfig;
use spidernet::core::recovery::RecoveryConfig;
use spidernet::core::system::{CompositionOptions, SpiderNet, SpiderNetConfig};
use spidernet::core::workload::PopulationConfig;
use spidernet::core::{CompositionRequest, FunctionGraph};
use spidernet::sim::time::SimDuration;
use spidernet::util::id::{FunctionId, PeerId, SessionId};
use spidernet::util::qos::{loss_to_additive, QosRequirement};
use spidernet::util::res::ResourceVector;
use spidernet::util::rng::{rng_for, Rng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Bounds on the mean allocator calls (alloc + realloc + dealloc) per
/// call of each stage: the path reads 50.43, 20.02 and 42.98 (it read
/// 227.19, 53.21 and 73.87 before the request path stopped rebuilding
/// patterns, cloning replica lists and allocating per subset).
const COMPOSE_BOUND: f64 = 52.0;
const ESTABLISH_BOUND: f64 = 21.0;
const TEARDOWN_BOUND: f64 = 44.0;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
    static DEALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

/// The system allocator, counting calls on the calling thread.
struct Counting;

// SAFETY: every method hands its arguments unchanged to `System`, whose
// methods carry the same contracts, and returns what `System` returns.
// Counting touches only const-initialised thread-locals without
// destructors, so it neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCS);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from this allocator, that is from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&DEALLOCS);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract, and
        // `ptr` came from this allocator, that is from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// (alloc, realloc, dealloc) calls made on this thread so far.
fn calls() -> [u64; 3] {
    [ALLOCS.with(Cell::get), REALLOCS.with(Cell::get), DEALLOCS.with(Cell::get)]
}

/// Allocator calls of one stage, summed over its calls.
#[derive(Default)]
struct Tally {
    calls: u64,
    counts: [u64; 3],
}

impl Tally {
    fn measure<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let before = calls();
        let out = f();
        let after = calls();
        self.calls += 1;
        for i in 0..3 {
            self.counts[i] += after[i] - before[i];
        }
        out
    }

    fn mean(&self) -> f64 {
        self.counts.iter().sum::<u64>() as f64 / self.calls.max(1) as f64
    }

    fn line(&self, stage: &str) -> String {
        let per = |i: usize| self.counts[i] as f64 / self.calls.max(1) as f64;
        format!(
            "{stage:<9} {:>5} calls  {:>7.2} allocator calls each ({:.2} alloc, {:.2} realloc, {:.2} dealloc)",
            self.calls,
            self.mean(),
            per(0),
            per(1),
            per(2)
        )
    }
}

/// One request of the stream, with its lifetime in requests.
struct Arrival {
    req: CompositionRequest,
    lifetime: usize,
}

/// Requests per model time unit (`open_steady`'s Poisson rate).
const RATE: usize = 10;
const WARMUP: usize = 600;
const MEASURED: usize = 1_000;

fn world() -> SpiderNet {
    let cfg = SpiderNetConfig::builder()
        .ip_nodes(1_500)
        .peers(300)
        .seed(11)
        .peer_capacity(ResourceVector::new(1.5, 512.0))
        .recovery(RecoveryConfig::builder().backup_upper_bound(10.0).build())
        .build();
    let mut net = SpiderNet::build(&cfg);
    net.populate(&PopulationConfig { functions: 40, ..PopulationConfig::default() });
    net.set_compose_caching(true);
    net.state_mut().set_shed_watermark(0.85);
    net
}

fn live_peer(net: &SpiderNet, rng: &mut Rng, not: Option<PeerId>) -> PeerId {
    let n = net.overlay().peer_count() as u64;
    loop {
        let p = PeerId::new(rng.gen_range(0..n));
        if net.state().is_alive(p) && Some(p) != not {
            return p;
        }
    }
}

/// The request stream: linear chains of 2–4 distinct functions drawn by
/// Zipf(0.9) popularity over the provisioned functions, between two
/// distinct peers, with loose bounds.
fn stream(net: &SpiderNet, n: usize) -> Vec<Arrival> {
    let reg = net.registry();
    let pool: Vec<FunctionId> = (0..reg.catalog().len())
        .map(FunctionId::from)
        .filter(|&f| !reg.replicas(f).is_empty())
        .collect();
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (0..pool.len())
        .map(|k| {
            acc += 1.0 / ((k + 1) as f64).powf(0.9);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    let mut rng = rng_for(11, "alloc-budget-requests");
    (0..n)
        .map(|_| {
            let k = rng.gen_range(2..=4usize);
            let mut funcs: Vec<FunctionId> = Vec::with_capacity(k);
            while funcs.len() < k {
                let u: f64 = rng.gen();
                let f = pool[cdf.partition_point(|&c| c <= u).min(pool.len() - 1)];
                if !funcs.contains(&f) {
                    funcs.push(f);
                }
            }
            let source = live_peer(net, &mut rng, None);
            let dest = live_peer(net, &mut rng, Some(source));
            let req = CompositionRequest {
                source,
                dest,
                function_graph: FunctionGraph::linear_of(&funcs),
                qos_req: QosRequirement::new(vec![
                    rng.gen_range(2_000.0..4_000.0),
                    loss_to_additive(rng.gen_range(0.2..0.3)),
                ])
                .expect("bounds are positive"),
                bandwidth_mbps: rng.gen_range(0.2..0.6),
                max_failure_prob: 0.5,
            };
            let lifetime = RATE * rng.gen_range(10..=30usize);
            Arrival { req, lifetime }
        })
        .collect()
}

#[test]
fn request_path_allocator_calls_stay_within_budget() {
    let mut net = world();
    let arrivals = stream(&net, WARMUP + MEASURED);
    let opts = CompositionOptions::bcp(BcpConfig::builder().shed_utilization(0.85).build());
    // Sessions due for teardown, by the request index that ends them.
    let mut due: Vec<Vec<SessionId>> = (0..arrivals.len()).map(|_| Vec::new()).collect();
    let (mut compose, mut establish, mut teardown) =
        (Tally::default(), Tally::default(), Tally::default());
    let mut admitted = 0u64;
    for (i, arrival) in arrivals.iter().enumerate() {
        let measured = i >= WARMUP;
        for sid in std::mem::take(&mut due[i]) {
            let out = if measured {
                teardown.measure(|| net.teardown(sid))
            } else {
                net.teardown(sid)
            };
            out.expect("a live session tears down");
        }
        let composed = if measured {
            compose.measure(|| net.compose_with(&arrival.req, &opts))
        } else {
            net.compose_with(&arrival.req, &opts)
        };
        if let Ok(report) = composed {
            let outcome = report.into_outcome();
            let sid = if measured {
                establish.measure(|| net.establish(&arrival.req, outcome))
            } else {
                net.establish(&arrival.req, outcome)
            };
            if let Ok(sid) = sid {
                admitted += 1;
                if let Some(slot) = due.get_mut(i + arrival.lifetime) {
                    slot.push(sid);
                }
            }
        }
        if (i + 1) % RATE == 0 {
            net.advance(SimDuration::from_secs(1));
        }
    }
    println!("{}", compose.line("compose"));
    println!("{}", establish.line("establish"));
    println!("{}", teardown.line("teardown"));
    let per_request = compose.mean() + establish.mean() + teardown.mean();
    println!("per request: {per_request:.2} allocator calls");
    assert!(admitted > (WARMUP + MEASURED) as u64 / 2, "the stream must mostly admit: {admitted}");
    assert!(establish.calls > 0 && teardown.calls > 0);
    assert!(compose.mean() <= COMPOSE_BOUND, "{}", compose.line("compose"));
    assert!(establish.mean() <= ESTABLISH_BOUND, "{}", establish.line("establish"));
    assert!(teardown.mean() <= TEARDOWN_BOUND, "{}", teardown.line("teardown"));
}
