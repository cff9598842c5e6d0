//! Destination-side composition selection (paper §4.3).
//!
//! The destination (1) merges per-branch probe results into complete
//! service graphs, (2) filters them against the user's QoS and resource
//! requirements, and (3) picks the qualified graph minimizing the ψ cost
//! aggregation (Eq. 1), which expresses load balancing: a smaller ψ means
//! the graph's peers and paths have more headroom relative to the demand
//! placed on them.
//!
//! Eq. 1 has one implementation, [`evaluate_with`]. It reads the overlay
//! legs between a candidate's peers through a [`Legs`] source: BCP's merge
//! loop and [`evaluate`] use [`LiveLegs`] over the mutable [`PathTable`],
//! and the optimal baseline's worker threads share a per-request
//! [`LegTable`] snapshot. Both sources return the bits the live path cache
//! computes, so BCP and the optimal price every candidate identically.

use crate::model::component::Registry;
use crate::model::function_graph::FunctionGraph;
use crate::model::request::CompositionRequest;
use crate::model::service_graph::{
    pattern_service_links, GraphEval, LinkEnd, ServiceGraph, ServiceLink, BANDWIDTH_WEIGHT,
    RESOURCE_WEIGHTS,
};
use crate::paths::PathTable;
use crate::state::OverlayState;
use spidernet_topology::{Hop, Overlay};
use spidernet_util::hash::FxHashMap;
use spidernet_util::id::{ComponentId, PeerId};
use spidernet_util::qos::{dim, QosVector};
use spidernet_util::res::ResourceVector;
use std::collections::hash_map::Entry;

/// Reusable buffers for [`evaluate_with`].
///
/// Evaluating a candidate needs several small per-candidate aggregation
/// maps; in the BCP destination-side merge those were rebuilt for every
/// candidate of every request and dominated composition time. One
/// scratch, reused across candidates, removes all of that heap churn.
/// Results are bit-identical to a fresh evaluation.
#[derive(Default)]
pub struct GraphEvalScratch {
    /// Per-branch QoS accumulator.
    acc: QosVector,
    /// Per-peer end-system demand, aggregated in assignment order.
    demand: Vec<(PeerId, ResourceVector)>,
    /// Per-peer worst failure probability.
    failure: Vec<(PeerId, f64)>,
    /// Per-hop aggregate bandwidth demand.
    shared_bw: Vec<(Hop, f64)>,
}

/// The assignment-independent shape of one composition pattern: its
/// branch paths and service-link list, computed once per pattern instead
/// of once per candidate graph.
#[derive(Clone, Debug, Default)]
pub struct PatternShape {
    /// Entry→exit branch paths, as [`FunctionGraph::branch_paths`] yields
    /// them.
    pub branches: Vec<Vec<usize>>,
    /// Service links in [`ServiceGraph::service_links`] order, so
    /// evaluation visits overlay legs in the same order.
    pub links: Vec<ServiceLink>,
}

impl PatternShape {
    /// Precomputes the shape of `pattern`.
    pub fn new(pattern: &FunctionGraph) -> Self {
        let mut shape = PatternShape::default();
        shape.refill(pattern);
        shape
    }

    /// Recomputes the shape for `pattern` in place, reusing its buffers.
    pub(crate) fn refill(&mut self, pattern: &FunctionGraph) {
        pattern.branch_paths_into(&mut self.branches);
        self.links.clear();
        self.links.extend(pattern_service_links(pattern));
    }
}

/// Where [`evaluate_with`] reads the overlay legs between a candidate's
/// peers.
pub trait Legs {
    /// Overlay-routed delay `from → to`, ms.
    fn delay(&mut self, from: PeerId, to: PeerId) -> f64;

    /// The overlay route `from → to` (`from != to`): passes each hop on
    /// it to `hop` ([`PathTable::route`]) and returns its bandwidth
    /// headroom, the least [`OverlayState::hop_available`] over its hops,
    /// or `None` when no route exists.
    fn route(&mut self, from: PeerId, to: PeerId, hop: impl FnMut(Hop)) -> Option<f64>;
}

/// [`Legs`] answered by the live path table: every leg is one
/// [`PathTable`] row read, counted by its row hit/miss counters.
pub struct LiveLegs<'a> {
    overlay: &'a Overlay,
    state: &'a OverlayState,
    paths: &'a mut PathTable,
}

impl<'a> LiveLegs<'a> {
    /// Legs over `overlay` with headroom read from `state`.
    pub fn new(overlay: &'a Overlay, state: &'a OverlayState, paths: &'a mut PathTable) -> Self {
        LiveLegs { overlay, state, paths }
    }
}

impl Legs for LiveLegs<'_> {
    fn delay(&mut self, from: PeerId, to: PeerId) -> f64 {
        self.paths.delay(self.overlay, from, to)
    }

    #[inline]
    fn route(&mut self, from: PeerId, to: PeerId, mut hop: impl FnMut(Hop)) -> Option<f64> {
        let state = self.state;
        let mut headroom = f64::INFINITY;
        let found = self.paths.route(self.overlay, from, to, |h| {
            headroom = headroom.min(state.hop_available(h));
            hop(h);
        });
        found.then_some(headroom)
    }
}

/// Evaluates one candidate service graph against a request.
///
/// QoS accumulation follows branch semantics: each additive dimension is
/// summed along every source→…→destination branch path (component Q_p plus
/// overlay path delay into dimension [`dim::DELAY_MS`]), and the
/// user-visible value is the worst branch.
pub fn evaluate(
    graph: &ServiceGraph,
    req: &CompositionRequest,
    reg: &Registry,
    overlay: &Overlay,
    state: &OverlayState,
    paths: &mut PathTable,
) -> GraphEval {
    evaluate_with(
        graph.source,
        graph.dest,
        graph.components(),
        &PatternShape::new(&graph.pattern),
        req,
        reg,
        state,
        &mut LiveLegs::new(overlay, state, paths),
        &mut GraphEvalScratch::default(),
    )
}

/// [`evaluate`] of the assignment `assignment` over a pattern of shape
/// `shape`, reading overlay legs from `legs` and reusing caller-owned
/// scratch. Taking the assignment directly lets hot loops price every
/// candidate *before* paying for a [`ServiceGraph`] (a copy of the
/// assignment) — only qualified candidates get one. No per-call
/// allocation beyond the returned QoS vector.
///
/// Every float aggregation keeps one fixed order: per-peer sums
/// accumulate in assignment order and fold in ascending-peer order (the
/// order of [`ServiceGraph::failure_probability`]'s `BTreeMap` walk), and
/// per-link bandwidth sums follow service-link order. The legs are read in
/// one fixed order too — branch delays first, then one route per service
/// link — so a [`LiveLegs`] caller makes the same [`PathTable`] calls on
/// every run.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_with(
    source: PeerId,
    dest: PeerId,
    assignment: &[ComponentId],
    shape: &PatternShape,
    req: &CompositionRequest,
    reg: &Registry,
    state: &OverlayState,
    legs: &mut impl Legs,
    scratch: &mut GraphEvalScratch,
) -> GraphEval {
    let m = req.qos_req.dims();

    // --- QoS: worst branch of per-branch accumulation ---
    let mut qos = QosVector::zeros(m);
    if scratch.acc.values().len() != m {
        scratch.acc = QosVector::zeros(m);
    }
    for branch in &shape.branches {
        scratch.acc.values_mut().fill(0.0);
        let mut prev_peer = source;
        for &node in branch {
            let comp = reg.get(assignment[node]);
            scratch.acc.values_mut()[dim::DELAY_MS] += legs.delay(prev_peer, comp.peer);
            scratch.acc.accumulate(&comp.perf_qos);
            prev_peer = comp.peer;
        }
        scratch.acc.values_mut()[dim::DELAY_MS] += legs.delay(prev_peer, dest);
        // Element-wise max across branches.
        for (q, a) in qos.values_mut().iter_mut().zip(scratch.acc.values()) {
            *q = q.max(*a);
        }
    }

    // --- resource feasibility + ψ cost ---
    let mut fits = true;
    let mut cost = 0.0;

    // End-system term: Σ_j Σ_i w_i · r_i^{s_j} / ra_i^{v_j}. Aggregated in
    // assignment order per peer, folded in ascending-peer order.
    scratch.demand.clear();
    for &c in assignment {
        let comp = reg.get(c);
        match scratch.demand.iter_mut().find(|(p, _)| *p == comp.peer) {
            Some((_, need)) => *need = need.add(&comp.resources),
            None => scratch.demand.push((comp.peer, ResourceVector::ZERO.add(&comp.resources))),
        }
    }
    scratch.demand.sort_unstable_by_key(|&(p, _)| p);
    for &(peer, ref need) in scratch.demand.iter() {
        let avail = state.available(peer);
        if !need.fits_within(&avail) {
            fits = false;
        }
        cost += need.weighted_usage_ratio(&avail, &RESOURCE_WEIGHTS);
    }

    // Bandwidth term: Σ_links w_{n+1} · b_ℓ / ba_℘ over each service
    // link's overlay path, with feasibility on *aggregate* per-overlay-link
    // demand (branches can share overlay links).
    scratch.shared_bw.clear();
    for link in &shape.links {
        let peer_of = |end: LinkEnd| match end {
            LinkEnd::Source => source,
            LinkEnd::Dest => dest,
            LinkEnd::Node(i) => reg.get(assignment[i]).peer,
        };
        let from = peer_of(link.from);
        let to = peer_of(link.to);
        let bw = match link.from {
            LinkEnd::Source => req.bandwidth_mbps,
            LinkEnd::Node(i) => reg.get(assignment[i]).out_bandwidth_mbps,
            LinkEnd::Dest => 0.0,
        };
        if from == to || bw <= 0.0 {
            continue;
        }
        let shared_bw = &mut scratch.shared_bw;
        let route = legs.route(from, to, |hop| {
            match shared_bw.iter_mut().find(|(h, _)| *h == hop) {
                Some((_, b)) => *b += bw,
                None => shared_bw.push((hop, bw)),
            }
        });
        match route {
            Some(headroom) => cost += link_cost(bw, headroom),
            None => {
                fits = false;
                cost = f64::INFINITY;
            }
        }
    }
    for &(hop, need) in scratch.shared_bw.iter() {
        let avail = state.hop_available(hop);
        if avail + 1e-12 < need {
            fits = false;
        }
    }

    // Dead peers disqualify outright.
    for &c in assignment {
        if !state.is_alive(reg.get(c).peer) {
            fits = false;
            cost = f64::INFINITY;
        }
    }

    // Failure probability: worst component per peer, independence product
    // in ascending-peer order (matches ServiceGraph::failure_probability's
    // BTreeMap walk bit for bit).
    scratch.failure.clear();
    for &c in assignment {
        let comp = reg.get(c);
        match scratch.failure.iter_mut().find(|(p, _)| *p == comp.peer) {
            Some((_, fp)) => *fp = fp.max(comp.failure_prob),
            None => scratch.failure.push((comp.peer, 0.0f64.max(comp.failure_prob))),
        }
    }
    scratch.failure.sort_unstable_by_key(|&(p, _)| p);
    let failure_prob = 1.0 - scratch.failure.iter().map(|&(_, p)| 1.0 - p).product::<f64>();

    GraphEval { qos, cost, failure_prob, fits_resources: fits }
}

/// Eq. 1's bandwidth term of one service link, `w_{n+1} · b_ℓ / ba_℘`:
/// `bw` Mbit/s over a route with `headroom` Mbit/s free, infinite when
/// the route has none.
pub(crate) fn link_cost(bw: f64, headroom: f64) -> f64 {
    BANDWIDTH_WEIGHT * if headroom > 0.0 { bw / headroom } else { f64::INFINITY }
}

/// True if the evaluation satisfies the request's QoS bounds and fits the
/// overlay's resources — the paper's "qualified service graph".
pub fn is_qualified(eval: &GraphEval, req: &CompositionRequest) -> bool {
    eval.fits_resources && req.qos_req.is_satisfied_by(&eval.qos)
}

/// Merges per-branch assignments into complete graph assignments
/// (paper §4.3: "we need to first merge the branches into complete service
/// graphs").
///
/// `per_branch[i]` holds the candidate assignments for branch path
/// `branch_paths[i]` back to back, each as `branch_paths[i].len()`
/// `(node index, component)` pairs. Two branch candidates combine only if
/// they agree on every shared node (e.g. the fork and join functions of a
/// DAG). At most `cap` complete assignments are produced (cartesian growth
/// guard), written to `out` back to back, `pattern.len()` components each
/// in node order.
pub fn merge_branches(
    pattern: &FunctionGraph,
    branch_paths: &[Vec<usize>],
    per_branch: &[Vec<(usize, ComponentId)>],
    cap: usize,
    out: &mut Vec<ComponentId>,
) {
    assert_eq!(branch_paths.len(), per_branch.len());
    out.clear();
    let n = pattern.len();
    if cap == 0 {
        return;
    }
    if let ([path], [candidates]) = (branch_paths, per_branch) {
        if path.len() == n {
            // A lone branch path through every node: each candidate is
            // already complete, and nothing can disagree.
            for candidate in candidates.chunks_exact(n).take(cap) {
                let base = out.len();
                out.resize(base + n, ComponentId::new(0));
                for &(node, comp) in candidate {
                    out[base + node] = comp;
                }
            }
            return;
        }
    }
    // Partial assignments, `n` per-node slots each, back to back.
    let mut partials: Vec<Option<ComponentId>> = vec![None; n];
    let mut next: Vec<Option<ComponentId>> = Vec::new();
    for (path, candidates) in branch_paths.iter().zip(per_branch) {
        next.clear();
        let mut merged = 0;
        'outer: for partial in partials.chunks_exact(n) {
            for candidate in candidates.chunks_exact(path.len()) {
                let base = next.len();
                next.extend_from_slice(partial);
                let slots = &mut next[base..];
                let agrees = candidate.iter().all(|&(node, comp)| match slots[node] {
                    Some(existing) if existing != comp => false,
                    _ => {
                        slots[node] = Some(comp);
                        true
                    }
                });
                if !agrees {
                    next.truncate(base);
                    continue;
                }
                merged += 1;
                if merged >= cap {
                    break 'outer;
                }
            }
        }
        std::mem::swap(&mut partials, &mut next);
        if partials.is_empty() {
            return;
        }
    }
    for partial in partials.chunks_exact(n) {
        if partial.iter().all(Option::is_some) {
            out.extend(partial.iter().flatten());
        }
    }
}

/// Immutable per-request snapshot of the overlay legs a candidate
/// evaluation touches, read through [`Legs`].
///
/// Built once per enumeration from the mutable [`PathTable`] (building
/// any SSSP row it lacks) over the pairs it is given — the
/// optimal baseline passes those its patterns' service links can join —
/// then shared read-only across worker threads: no `&mut` anywhere.
/// Every route's hops sit back to back in one arena, so a leg is a delay,
/// a headroom and a range. Values are the exact bits the
/// live query path returns, so [`evaluate_with`] over the table matches
/// [`evaluate`] bit-for-bit as long as the overlay state is not mutated
/// in between.
///
/// Reading a pair outside the universe it was built for panics.
#[derive(Clone, Debug, Default)]
pub struct LegTable {
    legs: FxHashMap<(PeerId, PeerId), Leg>,
    /// The hops of every route, back to back.
    hops: Vec<Hop>,
}

/// One memoized `from → to` leg of a [`LegTable`].
#[derive(Clone, Debug)]
struct Leg {
    delay: f64,
    /// The route's headroom and its `hops[lo..hi]` hop range; `None`
    /// when it does not exist (or `from == to`, which no caller routes).
    route: Option<(f64, usize, usize)>,
}

impl LegTable {
    /// Snapshots every `(from, to)` pair in `pairs`, each once.
    pub fn build(
        overlay: &Overlay,
        state: &OverlayState,
        paths: &mut PathTable,
        pairs: &[(PeerId, PeerId)],
    ) -> Self {
        let mut table = LegTable::default();
        table.legs.reserve(pairs.len());
        for &(a, b) in pairs {
            let Entry::Vacant(slot) = table.legs.entry((a, b)) else { continue };
            let delay = paths.delay(overlay, a, b);
            let lo = table.hops.len();
            let mut headroom = f64::INFINITY;
            let hops = &mut table.hops;
            let found = a != b
                && paths.route(overlay, a, b, |h| {
                    headroom = headroom.min(state.hop_available(h));
                    hops.push(h);
                });
            let route = found.then_some((headroom, lo, table.hops.len()));
            slot.insert(Leg { delay, route });
        }
        table
    }

    fn leg(&self, from: PeerId, to: PeerId) -> &Leg {
        self.legs.get(&(from, to)).expect("leg outside the precomputed pair universe")
    }
}

impl Legs for &LegTable {
    fn delay(&mut self, from: PeerId, to: PeerId) -> f64 {
        self.leg(from, to).delay
    }

    fn route(&mut self, from: PeerId, to: PeerId, hop: impl FnMut(Hop)) -> Option<f64> {
        let (headroom, lo, hi) = self.leg(from, to).route?;
        self.hops[lo..hi].iter().copied().for_each(hop);
        Some(headroom)
    }
}

/// A candidate with its evaluation.
pub type Candidate = (ServiceGraph, GraphEval);

/// Which score ranks the qualified candidate pool at selection time.
///
/// Every policy selects among the *same* qualified pool (functional
/// correctness, QoS bounds, and resource admission are identical); only
/// the ranking differs. The non-paper policies exist for the congestion
/// experiments: under the shared-bandwidth flow model the paper's static
/// ψ cannot see contention, while [`SelectionPolicy::Marketplace`] prices
/// candidates by live residual capacity and delivery reputation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SelectionPolicy {
    /// The paper's ψ composite cost (static metric).
    #[default]
    Paper,
    /// ICN-style bids: latency × residual capacity × delivery reputation
    /// ([`crate::trust::Marketplace`]); highest aggregate bid wins.
    Marketplace,
    /// Deterministic pseudo-random pick (content-hashed, seed-free).
    Random,
    /// Lowest end-to-end delay, ignoring load and failure risk.
    Greedy,
}

/// Ranks qualified graphs by ψ and returns `(best, best's eval, others)` —
/// the others, still cost-ordered, feed backup selection (paper §5).
pub fn select_best(qualified: Vec<Candidate>) -> Option<(ServiceGraph, GraphEval, Vec<Candidate>)> {
    select_best_by(qualified, |_, e| e.cost)
}

/// Like [`select_best`] but ranks by an arbitrary score (lower is
/// better) instead of ψ. The runner-up pool is returned in score order
/// so backup selection degrades gracefully under the same policy.
/// NaN scores sort last via `total_cmp`; exact ties break on the
/// assignment, keeping every policy deterministic. `score` must give a
/// candidate the same value every time it is asked: the pool is sorted in
/// place, scoring candidates as the sort compares them.
pub fn select_best_by(
    mut qualified: Vec<Candidate>,
    mut score: impl FnMut(&ServiceGraph, &GraphEval) -> f64,
) -> Option<(ServiceGraph, GraphEval, Vec<Candidate>)> {
    if qualified.is_empty() {
        return None;
    }
    qualified.sort_by(|a, b| {
        score(&a.0, &a.1)
            .total_cmp(&score(&b.0, &b.1))
            .then_with(|| a.0.assignment.cmp(&b.0.assignment))
    });
    let (best, eval) = qualified.remove(0);
    Some((best, eval, qualified))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::component::ServiceComponent;
    use spidernet_topology::inet::{generate_power_law, InetConfig};
    use spidernet_topology::overlay::OverlayConfig;
    use spidernet_util::id::{FunctionId, PeerId};
    use spidernet_util::qos::QosRequirement;
    use spidernet_util::res::ResourceVector;

    struct World {
        overlay: Overlay,
        reg: Registry,
        state: OverlayState,
        paths: PathTable,
    }

    fn world() -> World {
        let ip = generate_power_law(&InetConfig { nodes: 150, ..InetConfig::default() }, 6);
        let overlay = Overlay::build(
            &ip,
            &OverlayConfig { peers: 30, neighbors: 4 },
            6,
        );
        let mut reg = Registry::default();
        // Function f on peer f+1 (peers 1, 2, 3) plus a duplicate of
        // function 0 on peer 4.
        for (peer, function) in [(1u64, 0u64), (2, 1), (3, 2), (4, 0)] {
            reg.add(ServiceComponent {
                id: ComponentId::new(0),
                peer: PeerId::new(peer),
                function: FunctionId::new(function),
                perf_qos: QosVector::from_values(vec![10.0, 0.01]),
                resources: ResourceVector::new(0.2, 32.0),
                out_bandwidth_mbps: 1.0,
                failure_prob: 0.01,
            });
        }
        let state = OverlayState::new(&overlay, ResourceVector::new(1.0, 256.0));
        World { overlay, reg, state, paths: PathTable::new() }
    }

    fn request() -> CompositionRequest {
        CompositionRequest {
            source: PeerId::new(0),
            dest: PeerId::new(9),
            function_graph: FunctionGraph::linear(3),
            qos_req: QosRequirement::new(vec![10_000.0, 10.0]).unwrap(),
            bandwidth_mbps: 1.0,
            max_failure_prob: 1.0,
        }
    }

    fn chain_assignment() -> Vec<ComponentId> {
        vec![ComponentId::new(0), ComponentId::new(1), ComponentId::new(2)]
    }

    #[test]
    fn evaluation_accumulates_qos_along_the_chain() {
        let mut w = world();
        let req = request();
        let g = ServiceGraph::new(req.source, req.dest, FunctionGraph::linear(3), chain_assignment());
        let eval = evaluate(&g, &req, &w.reg, &w.overlay, &w.state, &mut w.paths);
        // Delay = 3 component Qp (30ms) + 4 overlay legs.
        let legs = w.paths.delay(&w.overlay, PeerId::new(0), PeerId::new(1))
            + w.paths.delay(&w.overlay, PeerId::new(1), PeerId::new(2))
            + w.paths.delay(&w.overlay, PeerId::new(2), PeerId::new(3))
            + w.paths.delay(&w.overlay, PeerId::new(3), PeerId::new(9));
        assert!((eval.qos[dim::DELAY_MS] - (30.0 + legs)).abs() < 1e-9);
        assert!((eval.qos[dim::LOSS] - 0.03).abs() < 1e-12);
        assert!(eval.fits_resources);
        assert!(eval.cost.is_finite() && eval.cost > 0.0);
        assert!(is_qualified(&eval, &req));
    }

    #[test]
    fn tight_qos_bound_disqualifies() {
        let mut w = world();
        let mut req = request();
        req.qos_req = QosRequirement::new(vec![1.0, 10.0]).unwrap(); // 1ms budget
        let g = ServiceGraph::new(req.source, req.dest, FunctionGraph::linear(3), chain_assignment());
        let eval = evaluate(&g, &req, &w.reg, &w.overlay, &w.state, &mut w.paths);
        assert!(!is_qualified(&eval, &req));
    }

    #[test]
    fn dead_peer_disqualifies_with_infinite_cost() {
        let mut w = world();
        let req = request();
        w.state.fail_peer(PeerId::new(2));
        let g = ServiceGraph::new(req.source, req.dest, FunctionGraph::linear(3), chain_assignment());
        let eval = evaluate(&g, &req, &w.reg, &w.overlay, &w.state, &mut w.paths);
        assert!(!eval.fits_resources);
        assert!(eval.cost.is_infinite());
    }

    #[test]
    fn resource_exhaustion_disqualifies() {
        let mut w = world();
        let req = request();
        w.state.set_capacity(PeerId::new(1), ResourceVector::new(0.1, 8.0));
        let g = ServiceGraph::new(req.source, req.dest, FunctionGraph::linear(3), chain_assignment());
        let eval = evaluate(&g, &req, &w.reg, &w.overlay, &w.state, &mut w.paths);
        assert!(!eval.fits_resources);
    }

    #[test]
    fn loaded_peers_cost_more() {
        let mut w = world();
        let req = request();
        let g = ServiceGraph::new(req.source, req.dest, FunctionGraph::linear(3), chain_assignment());
        let before = evaluate(&g, &req, &w.reg, &w.overlay, &w.state, &mut w.paths);
        // Load peer 1 heavily (committed elsewhere).
        w.state
            .commit(&[(PeerId::new(1), ResourceVector::new(0.7, 200.0))], &Default::default())
            .unwrap();
        let after = evaluate(&g, &req, &w.reg, &w.overlay, &w.state, &mut w.paths);
        assert!(after.cost > before.cost, "ψ must grow with load");
    }

    /// [`merge_branches`] over one `Vec` per branch candidate, returning one
    /// `Vec` per merged assignment.
    fn merge(
        pattern: &FunctionGraph,
        branches: &[Vec<usize>],
        per_branch: &[Vec<Vec<(usize, ComponentId)>>],
        cap: usize,
    ) -> Vec<Vec<ComponentId>> {
        let flat: Vec<Vec<(usize, ComponentId)>> = per_branch.iter().map(|c| c.concat()).collect();
        let mut out = Vec::new();
        merge_branches(pattern, branches, &flat, cap, &mut out);
        out.chunks(pattern.len()).map(<[ComponentId]>::to_vec).collect()
    }

    #[test]
    fn merge_linear_is_direct() {
        let pattern = FunctionGraph::linear(2);
        let branches = pattern.branch_paths();
        let per_branch = vec![vec![
            vec![(0, ComponentId::new(0)), (1, ComponentId::new(1))],
            vec![(0, ComponentId::new(2)), (1, ComponentId::new(3))],
        ]];
        let merged = merge(&pattern, &branches, &per_branch, 100);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0], vec![ComponentId::new(0), ComponentId::new(1)]);
    }

    #[test]
    fn merge_requires_agreement_on_shared_nodes() {
        // Diamond 0→1→3, 0→2→3; node 0 and 3 shared between branches.
        let pattern = FunctionGraph::new(
            (0..4).map(FunctionId::new).collect(),
            vec![(0, 1), (0, 2), (1, 3), (2, 3)],
            vec![],
        )
        .unwrap();
        let branches = pattern.branch_paths(); // [[0,1,3],[0,2,3]]
        let c = ComponentId::new;
        let per_branch = vec![
            vec![
                vec![(0, c(10)), (1, c(11)), (3, c(13))],
                vec![(0, c(20)), (1, c(21)), (3, c(23))],
            ],
            vec![
                vec![(0, c(10)), (2, c(12)), (3, c(13))], // agrees with first
                vec![(0, c(99)), (2, c(12)), (3, c(13))], // disagrees on node 0
            ],
        ];
        let merged = merge(&pattern, &branches, &per_branch, 100);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0], vec![c(10), c(11), c(12), c(13)]);
    }

    #[test]
    fn merge_cap_limits_output() {
        let pattern = FunctionGraph::linear(1);
        let branches = pattern.branch_paths();
        let cands: Vec<Vec<(usize, ComponentId)>> =
            (0..50).map(|i| vec![(0, ComponentId::new(i))]).collect();
        let merged = merge(&pattern, &branches, std::slice::from_ref(&cands), 7);
        assert_eq!(merged.len(), 7);
        assert!(merge(&pattern, &branches, &[cands], 0).is_empty(), "cap 0 merges nothing");
    }

    #[test]
    fn merge_with_no_candidates_is_empty() {
        let pattern = FunctionGraph::linear(2);
        let branches = pattern.branch_paths();
        let merged = merge(&pattern, &branches, &[vec![]], 10);
        assert!(merged.is_empty());
    }

    #[test]
    fn dag_qos_takes_the_worst_branch() {
        let mut w = world();
        let req = CompositionRequest {
            source: PeerId::new(0),
            dest: PeerId::new(9),
            function_graph: FunctionGraph::new(
                (0..3).map(FunctionId::new).collect(),
                vec![(0, 1), (0, 2)], // fork: two exit branches
                vec![],
            )
            .unwrap(),
            qos_req: QosRequirement::new(vec![10_000.0, 10.0]).unwrap(),
            bandwidth_mbps: 1.0,
            max_failure_prob: 1.0,
        };
        let g = ServiceGraph::new(
            req.source,
            req.dest,
            req.function_graph.clone(),
            chain_assignment(),
        );
        let eval = evaluate(&g, &req, &w.reg, &w.overlay, &w.state, &mut w.paths);
        // Compute both branches by hand; the eval must equal the max.
        let mut leg = |a: u64, b: u64| w.paths.delay(&w.overlay, PeerId::new(a), PeerId::new(b));
        let branch1 = leg(0, 1) + 10.0 + leg(1, 2) + 10.0 + leg(2, 9); // 0→n0→n1→dest
        let branch2 = leg(0, 1) + 10.0 + leg(1, 3) + 10.0 + leg(3, 9); // 0→n0→n2→dest
        assert!((eval.qos[dim::DELAY_MS] - branch1.max(branch2)).abs() < 1e-9);
    }

    fn assert_bit_equal(a: &GraphEval, b: &GraphEval) {
        assert_eq!(a.qos.values().len(), b.qos.values().len());
        for (x, y) in a.qos.values().iter().zip(b.qos.values()) {
            assert_eq!(x.to_bits(), y.to_bits(), "qos dims must match bitwise");
        }
        assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "cost must match bitwise");
        assert_eq!(a.failure_prob.to_bits(), b.failure_prob.to_bits());
        assert_eq!(a.fits_resources, b.fits_resources);
    }

    /// A snapshot of only the service-link pairs of `req`'s graph: a leg
    /// the evaluator reads outside them panics.
    fn leg_table_for(w: &mut World, req: &CompositionRequest) -> LegTable {
        let mut pairs = Vec::new();
        crate::baselines::service_link_pairs(
            req.source,
            req.dest,
            &req.function_graph,
            &w.reg,
            &mut pairs,
        );
        LegTable::build(&w.overlay, &w.state, &mut w.paths, &pairs)
    }

    /// Evaluates `assignment` twice through `evaluate_with`, once over the
    /// live path cache and once over a `LegTable` snapshot, and checks the
    /// two agree bit for bit.
    fn assert_leg_sources_agree(
        w: &mut World,
        req: &CompositionRequest,
        legs: &LegTable,
        assignment: &[ComponentId],
    ) -> GraphEval {
        let shape = PatternShape::new(&req.function_graph);
        let mut scratch = GraphEvalScratch::default();
        let live = evaluate_with(
            req.source,
            req.dest,
            assignment,
            &shape,
            req,
            &w.reg,
            &w.state,
            &mut LiveLegs::new(&w.overlay, &w.state, &mut w.paths),
            &mut scratch,
        );
        let mut table = legs;
        let snapshot = evaluate_with(
            req.source,
            req.dest,
            assignment,
            &shape,
            req,
            &w.reg,
            &w.state,
            &mut table,
            &mut scratch,
        );
        assert_bit_equal(&snapshot, &live);
        live
    }

    #[test]
    fn leg_table_evaluation_matches_live_bitwise() {
        let mut w = world();
        let req = request();
        let legs = leg_table_for(&mut w, &req);
        // Both replicas of function 0 (components 0 and 3), so the
        // snapshot is read on more than one assignment.
        for first in [0u64, 3] {
            let mut assignment = chain_assignment();
            assignment[0] = ComponentId::new(first);
            assert_leg_sources_agree(&mut w, &req, &legs, &assignment);
        }
    }

    #[test]
    fn leg_table_evaluation_matches_on_dag_and_dead_peer() {
        let mut w = world();
        let req = CompositionRequest {
            function_graph: FunctionGraph::new(
                (0..3).map(FunctionId::new).collect(),
                vec![(0, 1), (0, 2)],
                vec![],
            )
            .unwrap(),
            ..request()
        };
        w.state.fail_peer(PeerId::new(2));
        let legs = leg_table_for(&mut w, &req);
        let eval = assert_leg_sources_agree(&mut w, &req, &legs, &chain_assignment());
        assert!(!eval.fits_resources, "dead peer must disqualify");
        assert!(eval.cost.is_infinite());
    }

    #[test]
    #[should_panic(expected = "leg outside the precomputed pair universe")]
    fn leg_table_read_outside_its_pairs_panics() {
        let mut w = world();
        let req = request();
        let mut legs = &leg_table_for(&mut w, &req);
        // No service link of the chain joins function 2's peer back to
        // function 0's.
        legs.delay(PeerId::new(3), PeerId::new(1));
    }

    #[test]
    fn select_best_minimizes_cost() {
        let mut w = world();
        let req = request();
        let g1 = ServiceGraph::new(req.source, req.dest, FunctionGraph::linear(3), chain_assignment());
        let mut a2 = chain_assignment();
        a2[0] = ComponentId::new(3); // duplicate of function 0 on peer 4
        let g2 = ServiceGraph::new(req.source, req.dest, FunctionGraph::linear(3), a2);
        let e1 = evaluate(&g1, &req, &w.reg, &w.overlay, &w.state, &mut w.paths);
        let e2 = evaluate(&g2, &req, &w.reg, &w.overlay, &w.state, &mut w.paths);
        let expect_first = if e1.cost <= e2.cost { g1.clone() } else { g2.clone() };
        let (best, _, rest) = select_best(vec![(g1, e1), (g2, e2)]).unwrap();
        assert_eq!(best.assignment, expect_first.assignment);
        assert_eq!(rest.len(), 1);
        assert!(select_best(vec![]).is_none());
    }

    #[test]
    fn select_best_by_ranks_on_the_given_score() {
        let mut w = world();
        let req = request();
        let g1 = ServiceGraph::new(req.source, req.dest, FunctionGraph::linear(3), chain_assignment());
        let mut a2 = chain_assignment();
        a2[0] = ComponentId::new(3);
        let g2 = ServiceGraph::new(req.source, req.dest, FunctionGraph::linear(3), a2);
        let e1 = evaluate(&g1, &req, &w.reg, &w.overlay, &w.state, &mut w.paths);
        let e2 = evaluate(&g2, &req, &w.reg, &w.overlay, &w.state, &mut w.paths);
        // Scoring by ψ reproduces select_best exactly.
        let (a, _, _) = select_best(vec![(g1.clone(), e1.clone()), (g2.clone(), e2.clone())]).unwrap();
        let (b, _, _) = select_best_by(
            vec![(g1.clone(), e1.clone()), (g2.clone(), e2.clone())],
            |_, e| e.cost,
        )
        .unwrap();
        assert_eq!(a.assignment, b.assignment);
        // An inverted score flips the winner; a NaN score loses to any
        // finite one instead of panicking or winning by accident.
        let (c, _, rest) = select_best_by(
            vec![(g1.clone(), e1.clone()), (g2.clone(), e2.clone())],
            |g, e| if g.assignment == a.assignment { f64::NAN } else { e.cost },
        )
        .unwrap();
        assert_ne!(c.assignment, a.assignment);
        assert_eq!(rest.len(), 1);
        assert!(select_best_by(vec![], |_, e| e.cost).is_none());
    }
}
