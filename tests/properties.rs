//! Property-based tests over the core data structures and protocol
//! invariants.
//!
//! Implemented as seeded randomized-case loops over the workspace's own
//! deterministic [`spidernet::util::rng`] streams (no external property
//! framework): every test draws its cases from `rng_for(PROP_SEED, name)`,
//! so failures are reproducible bit-for-bit and the suite needs no network
//! access to build.

use spidernet::core::model::FunctionGraph;
use spidernet::core::recovery::{backup_count, select_backups};
use spidernet::core::selection::merge_branches;
use spidernet::core::state::OverlayState;
use spidernet::dht::{NodeId, PastryNetwork};
use spidernet::sim::time::SimTime;
use spidernet::sim::trace::TraceBuffer;
use spidernet::topology::inet::{generate_power_law, InetConfig};
use spidernet::topology::overlay::{Overlay, OverlayConfig};
use spidernet::topology::routing::dijkstra;
use spidernet::util::hash::sha1;
use spidernet::util::id::{ComponentId, PeerId};
use spidernet::util::qos::{additive_to_loss, loss_to_additive, QosRequirement, QosVector};
use spidernet::util::res::ResourceVector;
use spidernet::util::rng::{rng_for, Rng};

/// Master seed of the property suite; change to explore a different slice
/// of the case space.
const PROP_SEED: u64 = 0x5EED_50DE;

/// Standard case count for cheap properties.
const CASES: usize = 200;

fn prop_rng(name: &str) -> Rng {
    rng_for(PROP_SEED, name)
}

fn random_u128(rng: &mut Rng) -> u128 {
    (u128::from(rng.gen::<u64>()) << 64) | u128::from(rng.gen::<u64>())
}

// ---- hashing --------------------------------------------------

/// SHA-1 is deterministic and length-sensitive.
#[test]
fn sha1_deterministic() {
    let mut rng = prop_rng("sha1");
    for _ in 0..CASES {
        let len = rng.gen_range(0usize..512);
        let data: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
        assert_eq!(sha1(&data).0, sha1(&data).0);
        let mut extended = data.clone();
        extended.push(0);
        assert_ne!(sha1(&data).0, sha1(&extended).0);
    }
}

// ---- QoS ------------------------------------------------------

/// The loss transform is a monotone bijection on [0, 1).
#[test]
fn loss_transform_bijection() {
    let mut rng = prop_rng("loss-bijection");
    for _ in 0..CASES {
        let p = rng.gen_range(0.0f64..0.999);
        let a = loss_to_additive(p);
        assert!(a >= 0.0);
        assert!((additive_to_loss(a) - p).abs() < 1e-9, "p={p}");
    }
}

/// Additive-domain sums equal multiplicative-domain composition.
#[test]
fn loss_composition() {
    let mut rng = prop_rng("loss-composition");
    for _ in 0..CASES {
        let p1 = rng.gen_range(0.0f64..0.9);
        let p2 = rng.gen_range(0.0f64..0.9);
        let composed = 1.0 - (1.0 - p1) * (1.0 - p2);
        let sum = loss_to_additive(p1) + loss_to_additive(p2);
        assert!((loss_to_additive(composed) - sum).abs() < 1e-9, "p1={p1} p2={p2}");
    }
}

/// Accumulation is commutative and order-independent.
#[test]
fn qos_accumulation_commutes() {
    let mut rng = prop_rng("qos-commute");
    for _ in 0..CASES {
        let a: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0f64..1e6)).collect();
        let b: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0f64..1e6)).collect();
        let mut x = QosVector::from_values(a.clone());
        x.accumulate(&QosVector::from_values(b.clone()));
        let mut y = QosVector::from_values(b);
        y.accumulate(&QosVector::from_values(a));
        for (u, v) in x.values().iter().zip(y.values()) {
            assert!((u - v).abs() < 1e-9);
        }
    }
}

/// A requirement satisfied by q stays satisfied by anything dominated by q.
#[test]
fn qos_satisfaction_is_monotone() {
    let mut rng = prop_rng("qos-monotone");
    for _ in 0..CASES {
        let bounds: Vec<f64> = (0..2).map(|_| rng.gen_range(1.0f64..1e3)).collect();
        let frac = rng.gen_range(0.0f64..1.0);
        let req = QosRequirement::new(bounds.clone()).unwrap();
        let at_bound = QosVector::from_values(bounds.clone());
        let scaled = QosVector::from_values(bounds.iter().map(|b| b * frac).collect());
        assert!(req.is_satisfied_by(&at_bound));
        assert!(req.is_satisfied_by(&scaled));
    }
}

// ---- resources -------------------------------------------------

/// fits_within is antisymmetric under strict domination and add/sub
/// round-trips.
#[test]
fn resource_arithmetic() {
    let mut rng = prop_rng("resources");
    for _ in 0..CASES {
        let (c1, m1) = (rng.gen_range(0.0f64..10.0), rng.gen_range(0.0f64..100.0));
        let (c2, m2) = (rng.gen_range(0.0f64..10.0), rng.gen_range(0.0f64..100.0));
        let a = ResourceVector::new(c1, m1);
        let b = ResourceVector::new(c2, m2);
        let sum = a.add(&b);
        assert!(a.fits_within(&sum));
        assert!(b.fits_within(&sum));
        let back = sum.saturating_sub(&b);
        assert!((back.cpu() - c1).abs() < 1e-9);
        assert!((back.memory() - m1).abs() < 1e-9);
    }
}

// ---- function graphs -------------------------------------------

/// Linear chains of any size validate, are linear, and have exactly one
/// branch path covering all nodes in order.
#[test]
fn linear_chains_are_wellformed() {
    for k in 1usize..12 {
        let g = FunctionGraph::linear(k);
        assert!(g.is_linear());
        let paths = g.branch_paths();
        assert_eq!(paths.len(), 1);
        assert_eq!(&paths[0], &(0..k).collect::<Vec<_>>());
        assert_eq!(g.topo_order().unwrap().len(), k);
    }
}

/// Every enumerated pattern is a permutation of the original functions and
/// acyclic.
#[test]
fn patterns_are_acyclic_permutations() {
    let mut rng = prop_rng("patterns");
    for _ in 0..CASES {
        let k = rng.gen_range(2usize..6);
        let n_swaps = rng.gen_range(0usize..3);
        let commutations: Vec<(usize, usize)> = (0..n_swaps)
            .map(|_| (rng.gen_range(0usize..6) % k, rng.gen_range(0usize..6) % k))
            .filter(|(a, b)| a != b)
            .collect();
        let Ok(g) = FunctionGraph::new(
            (0..k as u64).map(spidernet::util::id::FunctionId::new).collect(),
            (0..k - 1).map(|i| (i, i + 1)).collect(),
            commutations,
        ) else {
            continue;
        };
        let mut base: Vec<u64> = g.functions().iter().map(|f| f.raw()).collect();
        base.sort_unstable();
        for p in g.patterns().iter() {
            assert!(p.topo_order().is_some());
            let mut fs: Vec<u64> = p.functions().iter().map(|f| f.raw()).collect();
            fs.sort_unstable();
            assert_eq!(&fs, &base);
        }
    }
}

// ---- merge -----------------------------------------------------

/// Merged assignments agree with some candidate on every branch.
#[test]
fn merge_respects_branch_candidates() {
    for n_cands in 1usize..6 {
        let pattern = FunctionGraph::linear(2);
        let branches = pattern.branch_paths();
        let cands: Vec<Vec<(usize, ComponentId)>> = (0..n_cands)
            .map(|i| vec![(0, ComponentId::new(i as u64)), (1, ComponentId::new(100 + i as u64))])
            .collect();
        let mut merged = Vec::new();
        merge_branches(&pattern, &branches, &[cands.concat()], 100, &mut merged);
        assert_eq!(merged.len(), n_cands * pattern.len());
        for m in merged.chunks(pattern.len()) {
            assert!(cands.iter().any(|c| c[0].1 == m[0] && c[1].1 == m[1]));
        }
    }
}

// ---- Eq. 2 -----------------------------------------------------

/// γ is monotone in U and never exceeds C−1.
#[test]
fn gamma_bounds() {
    let mut rng = prop_rng("gamma");
    for _ in 0..CASES {
        let u = rng.gen_range(0.0f64..10.0);
        let c = rng.gen_range(1usize..50);
        let delay = rng.gen_range(0.0f64..1000.0);
        let fail = rng.gen_range(0.0f64..0.2);
        let req = spidernet::core::CompositionRequest {
            source: PeerId::new(0),
            dest: PeerId::new(1),
            function_graph: FunctionGraph::linear(2),
            qos_req: QosRequirement::new(vec![1_000.0, 1.0]).unwrap(),
            bandwidth_mbps: 1.0,
            max_failure_prob: 0.2,
        };
        let eval = spidernet::core::model::service_graph::GraphEval {
            qos: QosVector::from_values(vec![delay, 0.1]),
            cost: 1.0,
            failure_prob: fail,
            fits_resources: true,
        };
        let g = backup_count(&eval, &req, u, c);
        assert!(g < c);
        let g2 = backup_count(&eval, &req, u + 1.0, c);
        assert!(g2 >= g);
    }
}

// ---- soft allocations -------------------------------------------

/// Arbitrary soft allocate/release interleavings never over-commit a peer
/// and fully restore availability when balanced.
#[test]
fn soft_allocations_never_overbook() {
    let ip = generate_power_law(&InetConfig { nodes: 60, ..InetConfig::default() }, 1);
    let overlay = Overlay::build(
        &ip,
        &OverlayConfig { peers: 10, neighbors: 3 },
        1,
    );
    let mut rng = prop_rng("soft-alloc");
    for _ in 0..40 {
        let mut state = OverlayState::new(&overlay, ResourceVector::new(1.0, 100.0));
        let mut trace = TraceBuffer::new();
        let peer = PeerId::new(0);
        let mut tokens = Vec::new();
        let n_ops = rng.gen_range(1usize..40);
        for _ in 0..n_ops {
            let op = rng.gen_range(0u32..4);
            let amount = rng.gen_range(0.0f64..0.5);
            match op {
                0 | 1 => {
                    if let Ok(t) = state.soft_allocate(
                        peer,
                        ResourceVector::new(amount, amount * 10.0),
                        SimTime::from_secs(10),
                        &mut trace,
                    ) {
                        tokens.push(t);
                    }
                }
                2 => {
                    if let Some(t) = tokens.pop() {
                        state.release_soft(t, &mut trace);
                    }
                }
                _ => {
                    state.expire_soft(SimTime::ZERO, &mut trace); // nothing due yet
                }
            }
            let avail = state.available(peer);
            assert!(avail.cpu() >= -1e-9, "negative availability");
            assert!(avail.cpu() <= 1.0 + 1e-9, "availability above capacity");
        }
        for t in tokens {
            state.release_soft(t, &mut trace);
        }
        // Balanced allocate/release restores availability up to float
        // rounding.
        let avail = state.available(peer);
        let cap = state.capacity(peer);
        assert!((avail.cpu() - cap.cpu()).abs() < 1e-9);
        assert!((avail.memory() - cap.memory()).abs() < 1e-9);
    }
}

// ---- DHT --------------------------------------------------------

/// Routing from any start delivers at the globally responsible node.
#[test]
fn pastry_routes_to_responsible() {
    let peers: Vec<PeerId> = (0..32).map(PeerId::new).collect();
    let net = PastryNetwork::build(&peers, &mut |_, _| 1.0);
    let mut rng = prop_rng("pastry-route");
    for _ in 0..CASES {
        let key = random_u128(&mut rng);
        let start = rng.gen_range(0u64..32);
        let out = net.route(PeerId::new(start), NodeId::new(key), &mut |_, _| 1.0).unwrap();
        assert_eq!(out.destination(), net.responsible(NodeId::new(key)).unwrap());
    }
}

// ---- routing ----------------------------------------------------

/// Dijkstra satisfies the triangle inequality over sampled triples.
#[test]
fn shortest_paths_triangle_inequality() {
    let mut rng = prop_rng("triangle");
    for seed in 0u64..10 {
        let g = generate_power_law(&InetConfig { nodes: 50, ..InetConfig::default() }, seed);
        for _ in 0..8 {
            let (a, b, c) = (
                rng.gen_range(0usize..50),
                rng.gen_range(0usize..50),
                rng.gen_range(0usize..50),
            );
            let from_a = dijkstra(&g, a);
            let from_b = dijkstra(&g, b);
            let ab = from_a.delay_to(b);
            let bc = from_b.delay_to(c);
            let ac = from_a.delay_to(c);
            assert!(ac <= ab + bc + 1e-9);
        }
    }
}

// ---- backup selection (plain test: richer setup) ----------------------

#[test]
fn backups_never_contain_the_excluded_component() {
    // For every primary component, if any pool graph excludes it, the
    // selected backup set contains a graph excluding it (single-failure
    // coverage), and no selected index repeats.
    use spidernet::core::model::component::{Registry, ServiceComponent};
    use spidernet::core::model::service_graph::{GraphEval, ServiceGraph};
    use spidernet::util::id::FunctionId;

    let mut reg = Registry::default();
    for f in 0..2u64 {
        for r in 0..4u64 {
            reg.add(ServiceComponent {
                id: ComponentId::new(0),
                peer: PeerId::new(f * 4 + r),
                function: FunctionId::new(f),
                perf_qos: QosVector::from_values(vec![10.0, 0.0]),
                resources: ResourceVector::new(0.1, 8.0),
                out_bandwidth_mbps: 1.0,
                failure_prob: 0.01 + r as f64 * 0.01,
            });
        }
    }
    let graph = |a: u64, b: u64| {
        ServiceGraph::new(
            PeerId::new(90),
            PeerId::new(91),
            FunctionGraph::linear(2),
            vec![ComponentId::new(a), ComponentId::new(4 + b)],
        )
    };
    let eval = GraphEval {
        qos: QosVector::from_values(vec![10.0, 0.0]),
        cost: 1.0,
        failure_prob: 0.02,
        fits_resources: true,
    };
    let primary = graph(0, 0);
    let pool: Vec<(ServiceGraph, GraphEval)> = (0..4)
        .flat_map(|a| (0..4).map(move |b| (a, b)))
        .filter(|&(a, b)| (a, b) != (0, 0))
        .map(|(a, b)| (graph(a, b), eval.clone()))
        .collect();

    for gamma in 1..=6 {
        let idx = select_backups(&primary, &pool, gamma, &reg, 3);
        assert!(idx.len() <= gamma);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), idx.len(), "duplicate backup indices");
        if gamma >= 2 {
            // Single-failure coverage of both primary components.
            for &comp in primary.components() {
                assert!(
                    idx.iter().any(|&i| !pool[i].0.contains_component(comp)),
                    "γ={gamma}: no backup excludes {comp:?}"
                );
            }
        }
    }
}

// ---- BCP protocol invariants over randomized worlds --------------------

/// Over random small worlds: complete probes never exceed the budget, the
/// selected graph is qualified, and soft reservations never leak.
#[test]
fn bcp_invariants_hold_on_random_worlds() {
    use spidernet::core::bcp::BcpConfig;
    use spidernet::core::selection::is_qualified;
    use spidernet::core::system::{SpiderNet, SpiderNetConfig};
    use spidernet::core::workload::{random_request, PopulationConfig, RequestConfig};

    let mut case_rng = prop_rng("bcp-worlds");
    for _ in 0..12 {
        let seed = case_rng.gen_range(0u64..500);
        let budget = case_rng.gen_range(1u32..40);
        let mut net = SpiderNet::build(
            &SpiderNetConfig::builder().ip_nodes(200).peers(40).seed(seed).build(),
        );
        net.populate(&PopulationConfig { functions: 8, ..PopulationConfig::default() });
        let mut rng = rng_for(seed, "prop-bcp");
        let req = random_request(
            net.overlay(),
            net.registry(),
            &RequestConfig {
                functions: (2, 3),
                delay_bound_ms: (3_000.0, 4_000.0),
                loss_bound: (0.3, 0.4),
                ..RequestConfig::default()
            },
            &mut rng,
        );
        let cfg = BcpConfig::builder().budget(budget).build();
        // Infeasible worlds (Err) are fine; invariants apply on success.
        if let Ok(out) = net.compose(&req, &cfg) {
            assert!(
                out.stats.complete_probes <= u64::from(budget) * 2,
                "complete probes {} vastly exceed budget {budget} (patterns double it at most)",
                out.stats.complete_probes
            );
            assert!(is_qualified(&out.eval, &req));
            assert!(out.stats.probes_sent >= out.stats.complete_probes);
        }
        // No reservation leaks whatever happened.
        assert_eq!(net.state().soft_count(), 0);
    }
}

/// Pastry stays correct through arbitrary interleavings of departures and
/// arrivals: every key routes to the live node with the closest id.
#[test]
fn pastry_correct_under_churn_sequences() {
    let mut rng = prop_rng("pastry-churn");
    for _ in 0..24 {
        let peers: Vec<PeerId> = (0..32).map(PeerId::new).collect();
        let mut net = PastryNetwork::build(&peers, &mut |_, _| 1.0);
        let mut next_new = 100u64;
        let n_ops = rng.gen_range(1usize..24);
        for _ in 0..n_ops {
            let arrive = rng.gen::<bool>();
            let pick = rng.gen_range(0u64..64);
            if arrive {
                net.add_node(PeerId::new(next_new), &mut |_, _| 1.0);
                next_new += 1;
            } else if net.len() > 4 {
                // Remove some live peer deterministically chosen by `pick`.
                let live: Vec<PeerId> = {
                    let mut v: Vec<PeerId> = net.peers().collect();
                    v.sort_unstable();
                    v
                };
                let victim = live[(pick as usize) % live.len()];
                net.remove_node(victim);
            }
        }
        let key = NodeId::new(random_u128(&mut rng));
        let start = {
            let mut v: Vec<PeerId> = net.peers().collect();
            v.sort_unstable();
            v[0]
        };
        let out = net.route(start, key, &mut |_, _| 1.0).expect("routing must terminate");
        assert_eq!(out.destination(), net.responsible(key).unwrap());
    }
}

// ---- shared-bandwidth flow model ---------------------------------------

/// Max-min fair shares never exceed a flow's demand, never go negative,
/// and never oversubscribe any link, over random topologies and flow sets.
#[test]
fn flow_shares_respect_demand_and_capacity() {
    use spidernet::topology::flow::{FlowNet, LinkId};
    let mut rng = prop_rng("flow-caps");
    for _ in 0..CASES {
        let n_links = rng.gen_range(1usize..8);
        let mut net = FlowNet::new();
        let links: Vec<LinkId> =
            (0..n_links).map(|_| net.add_link(rng.gen_range(0.0f64..100.0))).collect();
        let n_flows = rng.gen_range(1usize..20);
        let mut flows = Vec::new();
        for _ in 0..n_flows {
            let k = rng.gen_range(1usize..=n_links);
            let mut subset: Vec<LinkId> =
                (0..k).map(|_| links[rng.gen_range(0usize..n_links)]).collect();
            subset.sort_by_key(|l| l.index());
            subset.dedup();
            let demand = rng.gen_range(0.0f64..50.0);
            let key = net.add_flow(&subset, demand);
            flows.push((key, subset, demand));
        }
        net.verify_invariants().expect("flow invariants");
        let mut per_link = vec![0.0f64; n_links];
        for (key, subset, demand) in &flows {
            let rate = net.rate(*key).expect("live flow");
            assert!(rate >= 0.0, "negative rate");
            assert!(rate <= demand + 1e-9, "rate {rate} above demand {demand}");
            for l in subset {
                per_link[l.index()] += rate;
            }
        }
        for (i, l) in links.iter().enumerate() {
            assert!(
                per_link[i] <= net.link_capacity(*l) + 1e-6,
                "link {i} oversubscribed: {} > {}",
                per_link[i],
                net.link_capacity(*l)
            );
        }
    }
}

/// Fair shares are bitwise independent of flow insertion order: the same
/// flow set added under a random permutation yields identical rates.
#[test]
fn flow_shares_are_insertion_order_invariant() {
    use spidernet::topology::flow::{FlowNet, LinkId};
    let mut rng = prop_rng("flow-order");
    for _ in 0..CASES {
        let n_links = rng.gen_range(1usize..6);
        let caps: Vec<f64> = (0..n_links).map(|_| rng.gen_range(1.0f64..80.0)).collect();
        let n_flows = rng.gen_range(2usize..12);
        let specs: Vec<(Vec<usize>, f64)> = (0..n_flows)
            .map(|_| {
                let k = rng.gen_range(1usize..=n_links);
                let subset: Vec<usize> = (0..k).map(|_| rng.gen_range(0usize..n_links)).collect();
                (subset, rng.gen_range(0.0f64..40.0))
            })
            .collect();
        // Random permutation (Fisher–Yates) of the insertion order.
        let mut perm: Vec<usize> = (0..n_flows).collect();
        for i in (1..n_flows).rev() {
            perm.swap(i, rng.gen_range(0usize..i + 1));
        }
        let build = |order: &[usize]| {
            let mut net = FlowNet::new();
            let links: Vec<LinkId> = caps.iter().map(|&c| net.add_link(c)).collect();
            let mut keys = vec![None; n_flows];
            for &i in order {
                let (subset, demand) = &specs[i];
                let ls: Vec<LinkId> = subset.iter().map(|&j| links[j]).collect();
                keys[i] = Some(net.add_flow(&ls, *demand));
            }
            let rates: Vec<u64> = keys
                .into_iter()
                .map(|k| net.rate(k.expect("added")).expect("live").to_bits())
                .collect();
            rates
        };
        let forward: Vec<usize> = (0..n_flows).collect();
        assert_eq!(build(&forward), build(&perm), "rates depend on insertion order");
    }
}

/// Removing flows is as if they were never added: survivors' rates match a
/// net built from the survivor set alone, bit for bit, and stale keys stay
/// dead.
#[test]
fn flow_removal_is_as_if_never_added() {
    use spidernet::topology::flow::{FlowNet, LinkId};
    let mut rng = prop_rng("flow-removal");
    for _ in 0..CASES {
        let n_links = rng.gen_range(1usize..6);
        let caps: Vec<f64> = (0..n_links).map(|_| rng.gen_range(1.0f64..80.0)).collect();
        let n_flows = rng.gen_range(2usize..12);
        let specs: Vec<(Vec<usize>, f64)> = (0..n_flows)
            .map(|_| {
                let k = rng.gen_range(1usize..=n_links);
                let subset: Vec<usize> = (0..k).map(|_| rng.gen_range(0usize..n_links)).collect();
                (subset, rng.gen_range(0.0f64..40.0))
            })
            .collect();
        let keep: Vec<bool> = (0..n_flows).map(|_| rng.gen::<bool>()).collect();

        let mut net = FlowNet::new();
        let links: Vec<LinkId> = caps.iter().map(|&c| net.add_link(c)).collect();
        let keys: Vec<_> = specs
            .iter()
            .map(|(subset, demand)| {
                let ls: Vec<LinkId> = subset.iter().map(|&j| links[j]).collect();
                net.add_flow(&ls, *demand)
            })
            .collect();
        for (i, &k) in keys.iter().enumerate() {
            if !keep[i] {
                assert!(net.remove_flow(k), "first removal succeeds");
                assert!(!net.remove_flow(k), "stale key is inert");
                assert_eq!(net.rate(k), None);
            }
        }
        net.verify_invariants().expect("flow invariants after removal");

        let mut fresh = FlowNet::new();
        let fresh_links: Vec<LinkId> = caps.iter().map(|&c| fresh.add_link(c)).collect();
        let mut survivors = Vec::new();
        for (i, (subset, demand)) in specs.iter().enumerate() {
            if keep[i] {
                let ls: Vec<LinkId> = subset.iter().map(|&j| fresh_links[j]).collect();
                survivors.push((i, fresh.add_flow(&ls, *demand)));
            }
        }
        for (i, fk) in survivors {
            let survivor = net.rate(keys[i]).expect("survivor live");
            assert_eq!(
                survivor.to_bits(),
                fresh.rate(fk).expect("live").to_bits(),
                "survivor rate differs from a fresh build"
            );
        }
    }
}

/// Media transforms preserve frame well-formedness for arbitrary sizes and
/// chain them safely.
#[test]
fn media_chains_stay_wellformed() {
    use spidernet::runtime::media::{Frame, MediaFunction};
    let mut rng = prop_rng("media-chains");
    for _ in 0..CASES {
        let w = rng.gen_range(1usize..40);
        let h = rng.gen_range(1usize..40);
        let len = rng.gen_range(1usize..5);
        let chain: Vec<usize> = (0..len).map(|_| rng.gen_range(0usize..6)).collect();
        let seq = rng.gen::<u64>();
        let mut f = Frame::synthetic(w, h, seq);
        for &i in &chain {
            f = MediaFunction::ALL[i].apply(&f);
            assert_eq!(f.byte_len(), f.width * f.height);
            assert!(f.width >= 1 && f.height >= 1);
            assert_eq!(f.seq, seq);
        }
    }
}
