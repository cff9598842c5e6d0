//! Property test: the branch-and-bound optimal enumerator is
//! observationally identical to the naive cartesian-product reference it
//! replaced, across randomized worlds, enumeration caps, and harness
//! thread counts.
//!
//! "Identical" is bitwise: same best assignment, bit-equal evaluation,
//! same qualified pool in the same order, and the same considered-combo
//! count (`probes`) — the naive side counts every combination it fully
//! evaluates, the branch-and-bound side counts `examined + pruned`.

use spidernet::core::system::{CompositionOptions, SpiderNet, SpiderNetConfig};
use spidernet::core::workload::{random_request, PopulationConfig, RequestConfig};
use spidernet::util::rng::{rng_for, Rng};

/// Master seed; change to explore a different slice of the case space.
const SEED: u64 = 0xB0B5_CA1E;

fn build_world(seed: u64) -> SpiderNet {
    let mut net = SpiderNet::build(
        &SpiderNetConfig::builder().ip_nodes(250).peers(50).seed(seed).build(),
    );
    net.populate(&PopulationConfig { functions: 10, ..PopulationConfig::default() });
    net
}

/// Mix of request shapes: chains (the suffix-bound fast path), diamond
/// DAGs (the conservative no-chain-bounds path), and bound tightness from
/// trivially satisfiable down to unsatisfiable.
fn request_config(case: usize) -> RequestConfig {
    let tight = case % 3 == 2;
    RequestConfig {
        functions: (2, 5),
        dag_probability: if case.is_multiple_of(2) { 0.0 } else { 1.0 },
        delay_bound_ms: if tight { (10.0, 20.0) } else { (5_000.0, 50_000.0) },
        loss_bound: if tight { (0.001, 0.002) } else { (0.4, 0.6) },
        ..RequestConfig::default()
    }
}

/// Bit-comparable projection of one qualified graph.
fn fingerprint(graph: &spidernet::core::model::ServiceGraph, eval: &spidernet::core::model::GraphEval) -> (Vec<u64>, Vec<u64>, u64, u64) {
    (
        graph.assignment.iter().map(|c| c.0).collect(),
        eval.qos.values().iter().map(|v| v.to_bits()).collect(),
        eval.cost.to_bits(),
        eval.failure_prob.to_bits(),
    )
}

#[test]
fn branch_and_bound_is_bitwise_identical_to_naive_enumeration() {
    let mut rng: Rng = rng_for(SEED, "optimal-equivalence");
    let mut agreements = 0usize;
    for case in 0..24usize {
        let world_seed = SEED ^ case as u64;
        let cap = match case % 4 {
            0 => None,
            1 => Some(1),
            2 => Some(37),
            _ => Some(100_000),
        };
        let mut net = build_world(world_seed);
        let req = random_request(net.overlay(), net.registry(), &request_config(case), &mut rng);
        let naive = net.compose_optimal_naive(&req, cap);

        for threads in [1usize, 2, 4] {
            let mut net = build_world(world_seed);
            let opts = CompositionOptions::optimal(cap).with_optimal_threads(threads);
            let bb = net.compose_with(&req, &opts);
            match (&naive, &bb) {
                (Ok(n), Ok(b)) => {
                    assert_eq!(
                        fingerprint(&n.best, &n.eval),
                        fingerprint(&b.best, &b.eval),
                        "best graph diverged (case {case}, cap {cap:?}, threads {threads})"
                    );
                    assert_eq!(n.probes, b.probes, "considered-combo count diverged (case {case})");
                    assert_eq!(
                        n.qualified_pool.len(),
                        b.qualified_pool.len(),
                        "pool size diverged (case {case}, threads {threads})"
                    );
                    for (i, ((ng, ne), (bg, be))) in
                        n.qualified_pool.iter().zip(&b.qualified_pool).enumerate()
                    {
                        assert_eq!(
                            fingerprint(ng, ne),
                            fingerprint(bg, be),
                            "pool entry {i} diverged (case {case}, threads {threads})"
                        );
                    }
                    agreements += 1;
                }
                (Err(ne), Err(be)) => {
                    assert_eq!(
                        ne.to_string(),
                        be.to_string(),
                        "error kind diverged (case {case}, cap {cap:?}, threads {threads})"
                    );
                }
                (n, b) => panic!(
                    "composability diverged (case {case}, cap {cap:?}, threads {threads}): \
                     naive {:?} vs branch-and-bound {:?}",
                    n.as_ref().map(|o| o.probes),
                    b.as_ref().map(|o| o.probes),
                ),
            }
        }
    }
    assert!(agreements >= 10, "only {agreements} composable agreement cases — suite too weak");
}

/// Force the admissible QoS prefix bound to fire while the request stays
/// composable: re-ask a loose chain request with the delay budget
/// tightened to just above its own known-best delay, so the best graph
/// survives but most of the combination space is provably infeasible.
#[test]
fn tight_chain_bounds_prune_without_changing_the_answer() {
    use spidernet::util::qos::{dim, QosRequirement};

    let mut rng: Rng = rng_for(SEED, "optimal-prunes");
    let mut pruned_total = 0u64;
    let mut checked = 0usize;
    for case in 0..8usize {
        let world_seed = SEED.rotate_right(13) ^ case as u64;
        let mut net = build_world(world_seed);
        let loose = RequestConfig {
            functions: (3, 4),
            dag_probability: 0.0,
            delay_bound_ms: (5_000.0, 50_000.0),
            loss_bound: (0.4, 0.6),
            ..RequestConfig::default()
        };
        let mut req = random_request(net.overlay(), net.registry(), &loose, &mut rng);
        let Ok(base) = net.compose_with(&req, &CompositionOptions::optimal(None)) else {
            continue;
        };
        let mut bounds = req.qos_req.bounds().to_vec();
        bounds[dim::DELAY_MS] = base.eval.qos[dim::DELAY_MS] + 1.0;
        req.qos_req = QosRequirement::new(bounds).expect("tightened bounds stay valid");

        let mut net_naive = build_world(world_seed);
        let naive = net_naive.compose_optimal_naive(&req, None).expect("best still qualifies");
        let mut net_bb = build_world(world_seed);
        let bb = net_bb
            .compose_with(&req, &CompositionOptions::optimal(None))
            .expect("best still qualifies");
        assert_eq!(fingerprint(&naive.best, &naive.eval), fingerprint(&bb.best, &bb.eval));
        assert_eq!(naive.probes, bb.probes, "considered count diverged (case {case})");
        assert_eq!(naive.qualified_pool.len(), bb.qualified_pool.len());
        pruned_total += bb.combos_pruned;
        checked += 1;
    }
    assert!(checked >= 4, "only {checked} composable tight cases");
    assert!(pruned_total > 0, "tightened chain bounds never pruned");
}

/// `PoolPolicy::BestOnly` against the naive full-pool oracle at every
/// enumeration cap and harness thread count: its greedy incumbent must
/// stay inside the cap window and be thread-count-invariant, and its
/// narrowed leg snapshot must cover every leg the DAG cases (commutation
/// patterns) read.
#[test]
fn best_only_policy_matches_full_pool_best_with_empty_pool() {
    let mut rng: Rng = rng_for(SEED, "optimal-best-only");
    let mut agreements = 0usize;
    for case in 0..12usize {
        let world_seed = SEED.rotate_left(7) ^ case as u64;
        let req = {
            let net = build_world(world_seed);
            random_request(net.overlay(), net.registry(), &request_config(case), &mut rng)
        };
        for cap in [None, Some(1), Some(37), Some(100_000)] {
            let full = build_world(world_seed).compose_optimal_naive(&req, cap);
            for threads in [1usize, 2, 4] {
                let opts = CompositionOptions::optimal_best_only(cap).with_optimal_threads(threads);
                let best_only = build_world(world_seed).compose_with(&req, &opts);
                match (&full, &best_only) {
                    (Ok(f), Ok(b)) => {
                        assert_eq!(
                            fingerprint(&f.best, &f.eval),
                            fingerprint(&b.best, &b.eval),
                            "best-only best diverged from full-pool best \
                             (case {case}, cap {cap:?}, threads {threads})"
                        );
                        assert!(b.qualified_pool.is_empty(), "best-only must not retain a pool");
                        assert_eq!(
                            f.probes, b.probes,
                            "considered count diverged (case {case}, cap {cap:?}, threads {threads})"
                        );
                        assert_eq!(
                            b.combos_examined + b.combos_pruned,
                            b.probes,
                            "examined + pruned is not the considered count (case {case})"
                        );
                        agreements += 1;
                    }
                    (Err(fe), Err(be)) => assert_eq!(fe.to_string(), be.to_string()),
                    _ => panic!(
                        "composability diverged between pool policies \
                         (case {case}, cap {cap:?}, threads {threads})"
                    ),
                }
            }
        }
    }
    assert!(agreements >= 60, "only {agreements} composable (case, cap, threads) points");
}
