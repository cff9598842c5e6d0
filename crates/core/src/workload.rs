//! Workload generation for the simulation study (paper §6.1).
//!
//! "Each node provides \[1,3\] service components whose provisioned tasks are
//! selected from 200 pre-defined functions. … During each time unit,
//! certain number of composition requests are randomly generated on
//! different peers." This module synthesizes those populations and request
//! streams deterministically from a seed.

use crate::model::component::{FunctionCatalog, Registry, ServiceComponent};
use crate::model::function_graph::FunctionGraph;
use crate::model::request::CompositionRequest;
use spidernet_util::rng::SliceRandom;
use spidernet_topology::Overlay;
use spidernet_util::id::{ComponentId, FunctionId, PeerId};
use spidernet_util::qos::{loss_to_additive, QosRequirement, QosVector};
use spidernet_util::res::ResourceVector;
use spidernet_util::rng::Rng;

/// Component-population parameters.
#[derive(Clone, Debug)]
pub struct PopulationConfig {
    /// Size of the pre-defined function pool (paper: 200).
    pub functions: usize,
    /// Inclusive range of components per peer (paper: [1, 3]).
    pub components_per_peer: (usize, usize),
    /// Component processing delay Q_p\[delay\], ms.
    pub perf_delay_ms: (f64, f64),
    /// Component loss contribution Q_p\[loss\], as a probability.
    pub perf_loss: (f64, f64),
    /// Per-session CPU requirement (peers have 1.0 capacity by default).
    pub cpu: (f64, f64),
    /// Per-session memory requirement, MB.
    pub memory: (f64, f64),
    /// Output stream bandwidth, Mbit/s.
    pub out_bandwidth_mbps: (f64, f64),
    /// Per-time-unit component failure probability.
    pub failure_prob: (f64, f64),
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            functions: 200,
            components_per_peer: (1, 3),
            perf_delay_ms: (5.0, 50.0),
            perf_loss: (0.0005, 0.005),
            cpu: (0.05, 0.25),
            memory: (8.0, 64.0),
            out_bandwidth_mbps: (0.5, 2.0),
            failure_prob: (0.005, 0.02),
        }
    }
}

/// Draws uniformly from `[lo, hi)`; a degenerate range yields `lo`.
pub(crate) fn sample(rng: &mut Rng, (lo, hi): (f64, f64)) -> f64 {
    if lo >= hi {
        lo
    } else {
        rng.gen_range(lo..hi)
    }
}

/// Populates every overlay peer with components per `cfg`, seeded by
/// `(seed, "population")`. Returns the filled registry.
pub fn populate(overlay: &Overlay, cfg: &PopulationConfig, seed: u64) -> Registry {
    let mut rng = spidernet_util::rng::rng_for(seed, "population");
    let catalog = FunctionCatalog::synthetic(cfg.functions);
    let mut reg = Registry::new(catalog);
    for peer in overlay.peers() {
        let (lo, hi) = cfg.components_per_peer;
        let count = rng.gen_range(lo..=hi);
        for _ in 0..count {
            let function = FunctionId::from(rng.gen_range(0..cfg.functions));
            reg.add(ServiceComponent {
                id: ComponentId::new(0),
                peer,
                function,
                perf_qos: QosVector::from_values(vec![
                    sample(&mut rng, cfg.perf_delay_ms),
                    loss_to_additive(sample(&mut rng, cfg.perf_loss)),
                ]),
                resources: ResourceVector::new(
                    sample(&mut rng, cfg.cpu),
                    sample(&mut rng, cfg.memory),
                ),
                out_bandwidth_mbps: sample(&mut rng, cfg.out_bandwidth_mbps),
                failure_prob: sample(&mut rng, cfg.failure_prob),
            });
        }
    }
    reg
}

/// Request-stream parameters.
#[derive(Clone, Debug)]
pub struct RequestConfig {
    /// Inclusive range of required functions per request.
    pub functions: (usize, usize),
    /// End-to-end delay bound, ms.
    pub delay_bound_ms: (f64, f64),
    /// End-to-end loss bound, probability.
    pub loss_bound: (f64, f64),
    /// Source stream bandwidth, Mbit/s.
    pub bandwidth_mbps: (f64, f64),
    /// F^req, the failure-probability requirement.
    pub max_failure_prob: f64,
    /// Probability a request uses a diamond DAG with a commutation link
    /// (needs ≥ 4 functions) instead of a linear chain.
    pub dag_probability: f64,
}

impl Default for RequestConfig {
    fn default() -> Self {
        RequestConfig {
            functions: (2, 5),
            delay_bound_ms: (250.0, 600.0),
            loss_bound: (0.02, 0.08),
            bandwidth_mbps: (0.5, 1.5),
            max_failure_prob: 0.2,
            dag_probability: 0.0,
        }
    }
}

/// Functions that have at least one registered replica.
pub fn provisioned_functions(reg: &Registry) -> Vec<FunctionId> {
    (0..reg.catalog().len())
        .map(FunctionId::from)
        .filter(|&f| !reg.replicas(f).is_empty())
        .collect()
}

/// Draws one random composition request. Functions are sampled without
/// replacement from the provisioned pool; source and destination are
/// distinct random peers.
pub fn random_request(
    overlay: &Overlay,
    reg: &Registry,
    cfg: &RequestConfig,
    rng: &mut Rng,
) -> CompositionRequest {
    let pool = provisioned_functions(reg);
    assert!(!pool.is_empty(), "no provisioned functions to request");
    let (lo, hi) = cfg.functions;
    let k = rng.gen_range(lo..=hi).min(pool.len());
    let mut funcs = pool;
    funcs.shuffle(rng);
    funcs.truncate(k);
    request_for(funcs, overlay, cfg, rng)
}

/// Completes a request over the chosen functions, in order: a diamond DAG
/// with probability `cfg.dag_probability` when there are at least four,
/// else a chain; then distinct random source and destination peers, and
/// the QoS bounds and bandwidth drawn from `cfg`.
pub(crate) fn request_for(
    funcs: Vec<FunctionId>,
    overlay: &Overlay,
    cfg: &RequestConfig,
    rng: &mut Rng,
) -> CompositionRequest {
    let k = funcs.len();
    let function_graph = if k >= 4 && rng.gen::<f64>() < cfg.dag_probability {
        // Diamond: f0 → {f1, f2} → f3 (+ tail chain if k > 4), with the two
        // middle functions commutable.
        let mut deps = vec![(0usize, 1usize), (0, 2), (1, 3), (2, 3)];
        for i in 3..(k - 1) {
            deps.push((i, i + 1));
        }
        FunctionGraph::new(funcs, deps, vec![(1, 2)]).expect("diamond construction is valid")
    } else {
        FunctionGraph::linear_of(&funcs)
    };

    let n = overlay.peer_count() as u64;
    let source = PeerId::new(rng.gen_range(0..n));
    let mut dest = PeerId::new(rng.gen_range(0..n));
    while dest == source {
        dest = PeerId::new(rng.gen_range(0..n));
    }

    CompositionRequest {
        source,
        dest,
        function_graph,
        qos_req: QosRequirement::new(vec![
            sample(rng, cfg.delay_bound_ms),
            loss_to_additive(sample(rng, cfg.loss_bound)),
        ])
        .expect("bounds are positive"),
        bandwidth_mbps: sample(rng, cfg.bandwidth_mbps),
        max_failure_prob: cfg.max_failure_prob,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spidernet_topology::inet::{generate_power_law, InetConfig};
    use spidernet_topology::overlay::OverlayConfig;
    use spidernet_util::rng::rng_for;

    fn overlay() -> Overlay {
        let ip = generate_power_law(&InetConfig { nodes: 250, ..InetConfig::default() }, 41);
        Overlay::build(
            &ip,
            &OverlayConfig { peers: 50, neighbors: 4 },
            41,
        )
    }

    #[test]
    fn population_respects_per_peer_bounds() {
        let ov = overlay();
        let cfg = PopulationConfig { functions: 20, ..PopulationConfig::default() };
        let reg = populate(&ov, &cfg, 7);
        for p in ov.peers() {
            let n = reg.on_peer(p).len();
            assert!((1..=3).contains(&n), "peer {p} has {n} components");
        }
        assert!(reg.len() >= 50 && reg.len() <= 150);
    }

    #[test]
    fn population_attribute_domains() {
        let ov = overlay();
        let cfg = PopulationConfig { functions: 20, ..PopulationConfig::default() };
        let reg = populate(&ov, &cfg, 8);
        for c in reg.iter() {
            assert!(c.perf_qos.is_well_formed());
            assert!((5.0..=50.0).contains(&c.perf_qos[0]));
            assert!(c.resources.is_well_formed());
            assert!((0.05..=0.25).contains(&c.resources.cpu()));
            assert!((0.5..=2.0).contains(&c.out_bandwidth_mbps));
            assert!((0.005..=0.02).contains(&c.failure_prob));
            assert!(c.function.index() < 20);
        }
    }

    #[test]
    fn population_is_deterministic() {
        let ov = overlay();
        let cfg = PopulationConfig { functions: 30, ..PopulationConfig::default() };
        let a = populate(&ov, &cfg, 9);
        let b = populate(&ov, &cfg, 9);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x, y);
        }
        let c = populate(&ov, &cfg, 10);
        assert!(a.iter().zip(c.iter()).any(|(x, y)| x != y));
    }

    #[test]
    fn requests_reference_provisioned_functions() {
        let ov = overlay();
        let reg = populate(&ov, &PopulationConfig { functions: 15, ..Default::default() }, 11);
        let mut rng = rng_for(11, "req");
        for _ in 0..50 {
            let req = random_request(&ov, &reg, &RequestConfig::default(), &mut rng);
            req.validate().unwrap();
            for &f in req.function_graph.functions() {
                assert!(!reg.replicas(f).is_empty(), "unprovisioned function requested");
            }
            // No duplicate functions within one request.
            let mut fs: Vec<u64> =
                req.function_graph.functions().iter().map(|f| f.raw()).collect();
            fs.sort_unstable();
            fs.dedup();
            assert_eq!(fs.len(), req.function_graph.len());
        }
    }

    #[test]
    fn request_size_range_respected() {
        let ov = overlay();
        let reg = populate(&ov, &PopulationConfig { functions: 50, ..Default::default() }, 12);
        let cfg = RequestConfig { functions: (3, 3), ..RequestConfig::default() };
        let mut rng = rng_for(12, "req");
        for _ in 0..20 {
            let req = random_request(&ov, &reg, &cfg, &mut rng);
            assert_eq!(req.function_graph.len(), 3);
            assert!(req.function_graph.is_linear());
        }
    }

    #[test]
    fn dag_probability_one_builds_diamonds() {
        let ov = overlay();
        let reg = populate(&ov, &PopulationConfig { functions: 50, ..Default::default() }, 13);
        let cfg = RequestConfig {
            functions: (4, 5),
            dag_probability: 1.0,
            ..RequestConfig::default()
        };
        let mut rng = rng_for(13, "req");
        for _ in 0..10 {
            let req = random_request(&ov, &reg, &cfg, &mut rng);
            assert!(!req.function_graph.is_linear());
            assert_eq!(req.function_graph.commutations().len(), 1);
            assert!(req.function_graph.branch_paths().len() >= 2);
        }
    }

    #[test]
    fn provisioned_functions_filters_empty() {
        let ov = overlay();
        let reg = populate(&ov, &PopulationConfig { functions: 500, ..Default::default() }, 14);
        let provisioned = provisioned_functions(&reg);
        // 50 peers × ≤3 components cannot cover 500 functions.
        assert!(provisioned.len() < 500);
        for f in provisioned {
            assert!(!reg.replicas(f).is_empty());
        }
    }
}
