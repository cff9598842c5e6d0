//! The paper's comparison algorithms (§6.1): optimal (unbounded flooding),
//! random, static, and the centralized global-state scheme's overhead
//! model.

use crate::model::component::Registry;
use crate::model::function_graph::FunctionGraph;
use crate::model::request::CompositionRequest;
use crate::model::service_graph::{
    pattern_service_links, GraphEval, LinkEnd, ServiceGraph, RESOURCE_WEIGHTS,
};
use crate::paths::PathTable;
use crate::selection::{
    evaluate, evaluate_with, is_qualified, link_cost, select_best, GraphEvalScratch, LegTable, Legs,
    PatternShape,
};
use crate::state::OverlayState;
use spidernet_util::rng::SliceRandom;
use spidernet_topology::Overlay;
use spidernet_util::error::{Error, Result};
use spidernet_util::id::{ComponentId, PeerId};
use spidernet_util::par::par_map_with;
use spidernet_util::qos::dim;
use spidernet_util::res::ResourceVector;
use spidernet_util::rng::Rng;
use std::sync::Arc;

/// Result of a baseline composition.
#[derive(Clone, Debug)]
pub struct BaselineOutcome {
    /// The selected service graph.
    pub best: ServiceGraph,
    /// Its evaluation.
    pub eval: GraphEval,
    /// Remaining qualified graphs, cost-ordered (empty for random/static).
    pub qualified_pool: Vec<(ServiceGraph, GraphEval)>,
    /// Probe-equivalent overhead: candidate service graphs *considered*
    /// (fully evaluated or cut by an admissible prefix bound). For the
    /// optimal flooding scheme this is Π_k Z_k — the paper's "average
    /// number of probes required by the optimal algorithm" (17³ = 4913 in
    /// §6.2) — clipped by `combo_cap`; the value is the actual counter,
    /// not a formula, so it is exact when enumeration exhausts early.
    pub probes: u64,
    /// Candidate combos fully evaluated (`probes - combos_pruned`). The
    /// leaves [`PoolPolicy::BestOnly`]'s incumbent descent evaluates (at
    /// most `GREEDY_LEAVES` per pattern) are not considered positions and
    /// are not counted.
    pub combos_examined: u64,
    /// Candidate combos skipped by branch-and-bound pruning.
    pub combos_pruned: u64,
}

/// Shared borrow bundle for baseline runs.
pub struct BaselineContext<'a> {
    /// The service overlay.
    pub overlay: &'a Overlay,
    /// Component ground truth (baselines are centralized: they may read it
    /// wholesale).
    pub reg: &'a Registry,
    /// Live resource state.
    pub state: &'a OverlayState,
    /// Shortest-path cache.
    pub paths: &'a mut PathTable,
}

fn replica_sets(ctx: &BaselineContext<'_>, req: &CompositionRequest) -> Result<Vec<Vec<ComponentId>>> {
    req.function_graph
        .functions()
        .iter()
        .map(|&f| {
            let reps = ctx.reg.replicas(f);
            if reps.is_empty() {
                Err(Error::UnknownFunction(ctx.reg.catalog().name(f).to_owned()))
            } else {
                Ok(reps.to_vec())
            }
        })
        .collect()
}

/// Appends every peer pair a service link of `pattern` can join when each
/// node may run any replica of its function: `source` → an entry node's
/// replica peers, the replica peer pairs along each dependency edge, and
/// an exit node's replica peers → `dest`. [`evaluate_with`] reads no other
/// leg of a candidate of `pattern`: its branch paths walk dependency edges
/// from an entry to an exit node, so their delays fall in the same set.
pub(crate) fn service_link_pairs(
    source: PeerId,
    dest: PeerId,
    pattern: &FunctionGraph,
    reg: &Registry,
    out: &mut Vec<(PeerId, PeerId)>,
) {
    let peers = |end: LinkEnd| -> Vec<PeerId> {
        match end {
            LinkEnd::Source => vec![source],
            LinkEnd::Dest => vec![dest],
            LinkEnd::Node(i) => {
                reg.replicas(pattern.functions()[i]).iter().map(|&c| reg.get(c).peer).collect()
            }
        }
    };
    for link in pattern_service_links(pattern) {
        let tos = peers(link.to);
        for a in peers(link.from) {
            out.extend(tos.iter().map(|&b| (a, b)));
        }
    }
}

/// What the optimal enumerator must retain beyond the single best graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolPolicy {
    /// Keep every qualified candidate (cost-ordered pool for backup
    /// selection). Pruning is restricted to bounds that prove *no*
    /// completion of a prefix can qualify, so the pool is exactly the
    /// naive enumerator's.
    Full,
    /// Keep only the best qualified graph. Additionally prunes prefixes
    /// whose cost lower bound already exceeds the best qualified cost so
    /// far, starting from a greedy incumbent found before the fan-out
    /// (`qualified_pool` comes back empty).
    BestOnly,
}

/// Knobs of [`optimal_with`].
#[derive(Clone, Copy, Debug)]
pub struct OptimalOptions {
    /// Truncates the enumeration after this many considered combos (used
    /// only to bound test/bench runtimes; experiments reproducing paper
    /// numbers run uncapped).
    pub combo_cap: Option<u64>,
    /// Pool retention policy.
    pub pool: PoolPolicy,
    /// Worker threads for the per-pattern combo-space fan-out. Chunk
    /// boundaries are independent of this value, so all results —
    /// including prune counters — are bit-identical whatever the count.
    pub threads: usize,
}

impl Default for OptimalOptions {
    fn default() -> Self {
        OptimalOptions { combo_cap: None, pool: PoolPolicy::Full, threads: 1 }
    }
}

/// The optimal algorithm: "unbounded network flooding, which exhaustively
/// searches all candidate service graphs to find the best qualified
/// service graph". Equivalent to
/// [`optimal_with`]`(ctx, req, combo_cap, PoolPolicy::Full, 1 thread)`.
pub fn optimal(
    ctx: &mut BaselineContext<'_>,
    req: &CompositionRequest,
    combo_cap: Option<u64>,
) -> Result<BaselineOutcome> {
    optimal_with(ctx, req, &OptimalOptions { combo_cap, ..OptimalOptions::default() })
}

/// The reference enumerator: one full [`evaluate`] per cartesian-product
/// combo, no pruning, no incremental state. Kept as the oracle the
/// branch-and-bound rewrite is property-tested against and as the "naive"
/// side of the bench phase comparison.
#[doc(hidden)]
pub fn optimal_naive(
    ctx: &mut BaselineContext<'_>,
    req: &CompositionRequest,
    combo_cap: Option<u64>,
) -> Result<BaselineOutcome> {
    req.validate()?;
    let mut qualified: Vec<(ServiceGraph, GraphEval)> = Vec::new();
    let mut examined: u64 = 0;
    // Validate that every required function has replicas before enumerating.
    replica_sets(ctx, req)?;

    for pattern in req.function_graph.patterns().iter() {
        // One shared copy of the pattern for every enumerated graph.
        let pattern = Arc::new(pattern.clone());
        // Replica sets follow the *pattern's* node order.
        let sets: Vec<Vec<ComponentId>> =
            pattern.functions().iter().map(|&f| ctx.reg.replicas(f).to_vec()).collect();

        // Odometer enumeration of the cartesian product.
        let n = sets.len();
        let mut idx = vec![0usize; n];
        loop {
            if let Some(cap) = combo_cap {
                if examined >= cap {
                    break;
                }
            }
            examined += 1;
            let assignment: Vec<ComponentId> = (0..n).map(|i| sets[i][idx[i]]).collect();
            let graph = ServiceGraph::new(req.source, req.dest, Arc::clone(&pattern), assignment);
            let eval = evaluate(&graph, req, ctx.reg, ctx.overlay, ctx.state, ctx.paths);
            if is_qualified(&eval, req) {
                qualified.push((graph, eval));
            }
            // Advance odometer.
            let mut carry = n;
            for i in (0..n).rev() {
                idx[i] += 1;
                if idx[i] < sets[i].len() {
                    carry = i;
                    break;
                }
                idx[i] = 0;
            }
            if carry == n {
                break;
            }
        }
    }

    match select_best(qualified) {
        Some((best, eval, pool)) => Ok(BaselineOutcome {
            best,
            eval,
            qualified_pool: pool,
            probes: examined,
            combos_examined: examined,
            combos_pruned: 0,
        }),
        None => Err(Error::NoQualifiedComposition),
    }
}

/// Relative float slack added to admissible bounds before pruning on
/// them. Suffix bounds are mathematical lower bounds but their summation
/// order differs from the leaf evaluation's; the slack guarantees a
/// borderline candidate is *evaluated* rather than wrongly pruned (a
/// non-pruned candidate is always evaluated exactly, so slack can only
/// cost work, never correctness).
const PRUNE_SLACK: f64 = 1e-9;

/// Eq. 1's bandwidth term of the chain leg `from → to` carrying `bw`: zero
/// when the leg stays on one peer or carries nothing, infinite when it has
/// no route. The leaf evaluation adds the same term per service link.
fn leg_cost(mut legs: &LegTable, from: PeerId, to: PeerId, bw: f64) -> f64 {
    if from == to || bw <= 0.0 {
        return 0.0;
    }
    legs.route(from, to, |_| {}).map_or(f64::INFINITY, |headroom| link_cost(bw, headroom))
}

/// Per-pattern precomputation for the branch-and-bound walk.
struct PatternPlan {
    /// The pattern, shared by every qualified graph built over it.
    pattern: Arc<FunctionGraph>,
    shape: PatternShape,
    /// Replica sets in pattern-node order.
    sets: Vec<Vec<ComponentId>>,
    /// `subtree[d]` = Π_{j≥d} |sets[j]| — positions spanned by one choice
    /// at depth `d-1`; `subtree[n] == 1`.
    subtree: Vec<u64>,
    combos: u64,
    /// True when the pattern is the single chain `[0, 1, …, n-1]` *and*
    /// all replica QoS vectors are well formed — enables the QoS/delay
    /// suffix bounds (experiment workloads are chains by default).
    chain: bool,
    /// True when every replica's resource demand is non-negative —
    /// enables the monotone partial-demand overflow prune.
    res_nonneg: bool,
    /// `suffix_qos[k][d]` = Σ_{j≥k} min additive QoS of function j, dim d.
    suffix_qos: Vec<Vec<f64>>,
    /// `suffix_delay[k]` = min delay of the legs into nodes k.. plus the
    /// final leg to the destination (chain patterns only).
    suffix_delay: Vec<f64>,
    /// `suffix_cost[k]` = min end-system ψ of functions k.. plus (chain
    /// only) min bandwidth ψ of the remaining legs.
    suffix_cost: Vec<f64>,
}

impl PatternPlan {
    fn build(
        pattern: Arc<FunctionGraph>,
        reg: &Registry,
        req: &CompositionRequest,
        state: &OverlayState,
        mut legs: &LegTable,
    ) -> PatternPlan {
        let sets: Vec<Vec<ComponentId>> =
            pattern.functions().iter().map(|&f| reg.replicas(f).to_vec()).collect();
        let n = sets.len();
        let m = req.qos_req.dims();
        let mut subtree = vec![1u64; n + 1];
        for d in (0..n).rev() {
            subtree[d] = subtree[d + 1].saturating_mul(sets[d].len() as u64);
        }
        let shape = PatternShape::new(&pattern);
        let chain = shape.branches.len() == 1
            && shape.branches[0].iter().copied().eq(0..n)
            && sets
                .iter()
                .flatten()
                .all(|&c| reg.get(c).perf_qos.is_well_formed());
        let res_nonneg = sets
            .iter()
            .flatten()
            .all(|&c| ResourceVector::ZERO.fits_within(&reg.get(c).resources));

        // Per-function minima over each replica set.
        let min_qos: Vec<Vec<f64>> = sets
            .iter()
            .map(|set| {
                (0..m)
                    .map(|d| {
                        set.iter()
                            .map(|&c| reg.get(c).perf_qos.values()[d])
                            .fold(f64::INFINITY, f64::min)
                    })
                    .collect()
            })
            .collect();
        let min_es: Vec<f64> = sets
            .iter()
            .map(|set| {
                set.iter()
                    .map(|&c| {
                        let comp = reg.get(c);
                        comp.resources
                            .weighted_usage_ratio(&state.available(comp.peer), &RESOURCE_WEIGHTS)
                    })
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();

        let mut suffix_qos = vec![vec![0.0; m]; n + 1];
        for k in (0..n).rev() {
            for d in 0..m {
                suffix_qos[k][d] = suffix_qos[k + 1][d] + min_qos[k][d];
            }
        }

        // Chain-only leg minima: the leg *into* node j (j = 0 comes from
        // the source) plus the final leg to the destination.
        let (suffix_delay, bw_leg, bw_dest) = if chain {
            let bw_term = move |from: PeerId, to: PeerId, bw: f64| leg_cost(legs, from, to, bw);
            let mut leg_min = vec![f64::INFINITY; n];
            let mut bw_min = vec![f64::INFINITY; n];
            for j in 0..n {
                if j == 0 {
                    for &b in &sets[0] {
                        let to = reg.get(b).peer;
                        leg_min[0] = leg_min[0].min(legs.delay(req.source, to));
                        bw_min[0] = bw_min[0].min(bw_term(req.source, to, req.bandwidth_mbps));
                    }
                } else {
                    for &a in &sets[j - 1] {
                        let ca = reg.get(a);
                        for &b in &sets[j] {
                            let to = reg.get(b).peer;
                            leg_min[j] = leg_min[j].min(legs.delay(ca.peer, to));
                            bw_min[j] =
                                bw_min[j].min(bw_term(ca.peer, to, ca.out_bandwidth_mbps));
                        }
                    }
                }
            }
            let mut dest_delay = f64::INFINITY;
            let mut dest_bw = f64::INFINITY;
            for &a in &sets[n - 1] {
                let ca = reg.get(a);
                dest_delay = dest_delay.min(legs.delay(ca.peer, req.dest));
                dest_bw = dest_bw.min(bw_term(ca.peer, req.dest, ca.out_bandwidth_mbps));
            }
            let mut suffix_delay = vec![0.0; n + 1];
            suffix_delay[n] = dest_delay;
            for k in (0..n).rev() {
                suffix_delay[k] = leg_min[k] + suffix_delay[k + 1];
            }
            (suffix_delay, bw_min, dest_bw)
        } else {
            (vec![0.0; n + 1], vec![0.0; n], 0.0)
        };

        let mut suffix_cost = vec![0.0; n + 1];
        suffix_cost[n] = bw_dest;
        for k in (0..n).rev() {
            // min_es is admissible because `weighted_usage_ratio` is linear
            // in the demand vector: the leaf's aggregated end-system term
            // equals the sum of standalone per-component ratios.
            suffix_cost[k] = min_es[k] + bw_leg[k] + suffix_cost[k + 1];
        }

        PatternPlan {
            pattern,
            shape,
            combos: subtree[0],
            sets,
            subtree,
            chain,
            res_nonneg,
            suffix_qos,
            suffix_delay,
            suffix_cost,
        }
    }
}

/// Undo record for one pushed digit's demand aggregation.
#[derive(Clone, Copy)]
enum DemandUndo {
    /// The digit's peer was new: pop the last demand slot.
    Pushed,
    /// The digit merged into slot `ix`: restore the saved vector.
    Merged(usize, ResourceVector),
}

/// Mutable prefix state of the branch-and-bound walk. `push` extends the
/// prefix by one digit and `undo` restores it exactly (saved-value
/// restore, not arithmetic inverse — float subtraction would drift).
struct DfsState {
    assignment: Vec<ComponentId>,
    peers: Vec<PeerId>,
    /// Per-peer aggregated demand of the prefix, in first-touch order
    /// (the same aggregation order the leaf evaluation replays).
    demand: Vec<(PeerId, ResourceVector)>,
    undo: Vec<DemandUndo>,
    /// Incremental chain QoS accumulator — bit-identical to the prefix of
    /// the leaf evaluation's branch walk.
    qos_acc: Vec<f64>,
    qos_saved: Vec<f64>,
    es_partial: f64,
    es_saved: Vec<f64>,
    bw_partial: f64,
    bw_saved: Vec<f64>,
}

impl DfsState {
    fn new(n: usize, m: usize) -> DfsState {
        DfsState {
            assignment: vec![ComponentId::new(0); n],
            peers: vec![PeerId::new(0); n],
            demand: Vec::with_capacity(n),
            undo: vec![DemandUndo::Pushed; n],
            qos_acc: vec![0.0; m],
            qos_saved: vec![0.0; m * n],
            es_partial: 0.0,
            es_saved: vec![0.0; n],
            bw_partial: 0.0,
            bw_saved: vec![0.0; n],
        }
    }

    /// Extends the prefix with `comp` at depth `d`. Returns false when the
    /// digit is infeasible on grounds every completion inherits: a dead
    /// peer, or (when demand monotonicity holds) per-peer demand already
    /// overflowing the peer's available resources.
    fn push(&mut self, d: usize, comp: ComponentId, run: &ChunkRun<'_>) -> bool {
        let plan = run.plan;
        let mut legs = run.legs;
        let c = run.reg.get(comp);
        self.assignment[d] = comp;
        self.peers[d] = c.peer;

        let mut ok = run.state.is_alive(c.peer);
        let avail = run.state.available(c.peer);
        let fits = match self.demand.iter().position(|&(p, _)| p == c.peer) {
            Some(ix) => {
                self.undo[d] = DemandUndo::Merged(ix, self.demand[ix].1);
                self.demand[ix].1 = self.demand[ix].1.add(&c.resources);
                self.demand[ix].1.fits_within(&avail)
            }
            None => {
                self.undo[d] = DemandUndo::Pushed;
                self.demand.push((c.peer, ResourceVector::ZERO.add(&c.resources)));
                self.demand.last().expect("just pushed").1.fits_within(&avail)
            }
        };
        if plan.res_nonneg && !fits {
            ok = false;
        }

        self.es_saved[d] = self.es_partial;
        self.es_partial += c.resources.weighted_usage_ratio(&avail, &RESOURCE_WEIGHTS);

        if plan.chain {
            let m = self.qos_acc.len();
            self.qos_saved[d * m..(d + 1) * m].copy_from_slice(&self.qos_acc);
            self.bw_saved[d] = self.bw_partial;
            let prev = if d == 0 { run.req.source } else { self.peers[d - 1] };
            self.qos_acc[dim::DELAY_MS] += legs.delay(prev, c.peer);
            for (a, b) in self.qos_acc.iter_mut().zip(c.perf_qos.values()) {
                *a += b;
            }
            let bw = if d == 0 {
                run.req.bandwidth_mbps
            } else {
                run.reg.get(self.assignment[d - 1]).out_bandwidth_mbps
            };
            self.bw_partial += leg_cost(legs, prev, c.peer, bw);
        }
        ok
    }

    /// Reverts the depth-`d` push.
    fn undo(&mut self, d: usize, plan: &PatternPlan) {
        match self.undo[d] {
            DemandUndo::Pushed => {
                self.demand.pop();
            }
            DemandUndo::Merged(ix, saved) => self.demand[ix].1 = saved,
        }
        self.es_partial = self.es_saved[d];
        if plan.chain {
            let m = self.qos_acc.len();
            self.qos_acc.copy_from_slice(&self.qos_saved[d * m..(d + 1) * m]);
            self.bw_partial = self.bw_saved[d];
        }
    }
}

/// Read-only inputs of one walk over the position window `[lo, hi)` of a
/// pattern.
struct ChunkRun<'a> {
    plan: &'a PatternPlan,
    req: &'a CompositionRequest,
    reg: &'a Registry,
    state: &'a OverlayState,
    /// The per-request leg snapshot every worker shares.
    legs: &'a LegTable,
    /// Per-dimension prune slack: `PRUNE_SLACK · (1 + |bound|)`.
    qos_slack: &'a [f64],
    lo: u64,
    hi: u64,
    best_only: bool,
}

/// Accumulated output of one chunk walk.
struct ChunkOut {
    pattern: usize,
    qualified: Vec<(Vec<ComponentId>, GraphEval)>,
    /// Cost-prune bound: the least of the shared greedy incumbent and the
    /// best qualified cost found in this chunk. Chunks share only the
    /// incumbent, computed once before the fan-out, so results stay
    /// chunk-deterministic. Always `None` under [`PoolPolicy::Full`].
    best_cost: Option<f64>,
    examined: u64,
    pruned: u64,
}

impl ChunkOut {
    fn record(&mut self, assignment: &[ComponentId], eval: GraphEval, best_only: bool) {
        if !best_only {
            self.qualified.push((assignment.to_vec(), eval));
            return;
        }
        // Replicate `select_best` ordering: keep the earlier candidate on
        // exact cost ties (enumeration order is position order).
        let better = match self.qualified.first() {
            None => true,
            Some((ba, be)) => {
                matches!(
                    eval.cost.total_cmp(&be.cost).then_with(|| assignment.cmp(ba)),
                    std::cmp::Ordering::Less
                )
            }
        };
        if better {
            // The chunk's first qualified cost may exceed the incumbent:
            // the bound only ever tightens.
            self.best_cost = Some(self.best_cost.map_or(eval.cost, |b| b.min(eval.cost)));
            self.qualified.clear();
            self.qualified.push((assignment.to_vec(), eval));
        }
    }
}

/// True when the prefix just pushed (`k` digits long) provably holds no
/// leaf worth evaluating: under a chain plan, an admissible QoS suffix
/// bound exceeds the request's bound; or, given an incumbent cost `best`,
/// the ψ lower bound exceeds it. Both cuts are strict with slack, so a
/// completion that qualifies at (or ties) the incumbent is never cut.
fn cut(run: &ChunkRun<'_>, st: &DfsState, k: usize, best: Option<f64>) -> bool {
    let plan = run.plan;
    if plan.chain {
        for (dim_i, &bound) in run.req.qos_req.bounds().iter().enumerate() {
            let mut lb = st.qos_acc[dim_i] + plan.suffix_qos[k][dim_i];
            if dim_i == dim::DELAY_MS {
                lb += plan.suffix_delay[k];
            }
            if lb > bound + run.qos_slack[dim_i] {
                return true;
            }
        }
    }
    best.is_some_and(|bc| {
        st.es_partial + st.bw_partial + plan.suffix_cost[k] > bc + PRUNE_SLACK * (1.0 + bc.abs())
    })
}

/// Evaluates the complete assignment in `st` with the one Eq. 1 evaluator.
fn evaluate_leaf(run: &ChunkRun<'_>, st: &DfsState, scratch: &mut GraphEvalScratch) -> GraphEval {
    let mut legs = run.legs;
    evaluate_with(
        run.req.source,
        run.req.dest,
        &st.assignment,
        &run.plan.shape,
        run.req,
        run.reg,
        run.state,
        &mut legs,
        scratch,
    )
}

/// The recursive branch-and-bound walk over one chunk's position window
/// `[run.lo, run.hi)`. `first` is the global position of the first leaf
/// under the current prefix.
fn bb_walk(
    run: &ChunkRun<'_>,
    st: &mut DfsState,
    scratch: &mut GraphEvalScratch,
    out: &mut ChunkOut,
    d: usize,
    first: u64,
) {
    let plan = run.plan;
    let n = plan.sets.len();
    let width = plan.subtree[d + 1];
    for (i, &comp) in plan.sets[d].iter().enumerate() {
        let child_first = first + i as u64 * width;
        if child_first >= run.hi {
            break;
        }
        let child_end = child_first + width;
        if child_end <= run.lo {
            continue;
        }
        let window = child_end.min(run.hi) - child_first.max(run.lo);

        let k = d + 1;
        let feasible = st.push(d, comp, run);
        if !feasible || cut(run, st, k, out.best_cost) {
            out.pruned += window;
        } else if k == n {
            out.examined += 1;
            let eval = evaluate_leaf(run, st, scratch);
            if is_qualified(&eval, run.req) {
                out.record(&st.assignment, eval, run.best_only);
            }
        } else {
            bb_walk(run, st, scratch, out, k, child_first);
        }
        st.undo(d, plan);
    }
}

/// Leaves the [`PoolPolicy::BestOnly`] incumbent descent evaluates per
/// pattern before giving up on it.
const GREEDY_LEAVES: u32 = 16;

/// Greedy depth-first descent for a [`PoolPolicy::BestOnly`] incumbent
/// over the window `[0, run.hi)`: visits children in increasing
/// incremental ψ (`es_partial + bw_partial` after the push; ties in
/// replica order), skips the children the walk itself would cut as
/// infeasible or QoS-violating, and returns the cost of the first
/// qualified leaf. Gives up once `leaves` reaches [`GREEDY_LEAVES`].
fn greedy_leaf(
    run: &ChunkRun<'_>,
    st: &mut DfsState,
    scratch: &mut GraphEvalScratch,
    leaves: &mut u32,
    d: usize,
    first: u64,
) -> Option<f64> {
    let plan = run.plan;
    let width = plan.subtree[d + 1];
    let k = d + 1;
    let mut order: Vec<(f64, usize)> = Vec::new();
    for (i, &comp) in plan.sets[d].iter().enumerate() {
        if first + i as u64 * width >= run.hi {
            break;
        }
        if st.push(d, comp, run) && !cut(run, st, k, None) {
            order.push((st.es_partial + st.bw_partial, i));
        }
        st.undo(d, plan);
    }
    order.sort_by(|a, b| a.0.total_cmp(&b.0));
    for (_, i) in order {
        if *leaves >= GREEDY_LEAVES {
            return None;
        }
        st.push(d, plan.sets[d][i], run);
        let found = if k == plan.sets.len() {
            *leaves += 1;
            let eval = evaluate_leaf(run, st, scratch);
            is_qualified(&eval, run.req).then_some(eval.cost)
        } else {
            greedy_leaf(run, st, scratch, leaves, k, first + i as u64 * width)
        };
        st.undo(d, plan);
        if found.is_some() {
            return found;
        }
    }
    None
}

/// Split threshold: a pattern window at least this large is fanned across
/// [`CHUNKS_PER_PATTERN`] fixed ranges (fixed, so prune counters and the
/// qualified pool are identical whatever `threads` is).
const CHUNK_SPLIT_MIN: u64 = 4096;
const CHUNKS_PER_PATTERN: u64 = 8;

/// Incremental branch-and-bound optimal enumerator.
///
/// Walks each pattern's cartesian combo space depth-first with push/undo
/// prefix state (mirroring BCP's `probe_branch`), scores leaves with the
/// one Eq. 1 evaluator, [`evaluate_with`], over a per-request [`LegTable`]
/// snapshot of the service-link legs the worker threads share, and cuts
/// prefixes whose admissible suffix lower bounds prove no completion can
/// qualify (plus, under [`PoolPolicy::BestOnly`], none can beat the best
/// qualified cost so far, starting from a greedy incumbent). Position
/// semantics — which combos a `combo_cap` admits, in which order
/// qualified candidates pool, and the resulting best graph — are
/// identical to [`optimal_naive`]'s; pruned subtrees advance the
/// considered-position counter by their clipped window so `probes` stays
/// the exact considered count.
pub fn optimal_with(
    ctx: &mut BaselineContext<'_>,
    req: &CompositionRequest,
    opts: &OptimalOptions,
) -> Result<BaselineOutcome> {
    req.validate()?;
    replica_sets(ctx, req)?;
    let patterns = req.function_graph.patterns();

    // Per-request leg snapshot of the pairs some pattern's service links
    // can join — the only legs the leaf evaluation and the plans' chain
    // bounds read — built once through the mutable path cache then shared
    // read-only by workers. Peer liveness and availability are read from
    // `ctx.state`, which this call holds immutably throughout.
    let mut pairs = Vec::new();
    for pattern in patterns.iter() {
        service_link_pairs(req.source, req.dest, pattern, ctx.reg, &mut pairs);
    }
    let legs = LegTable::build(ctx.overlay, ctx.state, ctx.paths, &pairs);

    let plans: Vec<PatternPlan> = patterns
        .iter()
        .map(|p| PatternPlan::build(Arc::new(p.clone()), ctx.reg, req, ctx.state, &legs))
        .collect();

    let qos_slack: Vec<f64> =
        req.qos_req.bounds().iter().map(|b| PRUNE_SLACK * (1.0 + b.abs())).collect();
    let m = req.qos_req.dims();
    let best_only = opts.pool == PoolPolicy::BestOnly;
    let (reg, state) = (ctx.reg, ctx.state);
    let run_over = |plan, lo, hi| ChunkRun {
        plan,
        req,
        reg,
        state,
        legs: &legs,
        qos_slack: &qos_slack,
        lo,
        hi,
        best_only,
    };

    // The cap admits the first `combo_cap` positions across patterns in
    // order, exactly as the naive odometer does: each pattern's window.
    let cap = opts.combo_cap.unwrap_or(u64::MAX);
    let mut start: u64 = 0;
    let windows: Vec<u64> = plans
        .iter()
        .map(|plan| {
            let window = if start >= cap { 0 } else { plan.combos.min(cap - start) };
            start = start.saturating_add(plan.combos);
            window
        })
        .collect();

    // One deterministic incumbent for every chunk: the cheapest greedy
    // leaf over all windows. It lies inside the cap window and qualifies,
    // so the optimum costs no more and is never cut.
    let incumbent = if best_only {
        let mut scratch = GraphEvalScratch::default();
        plans
            .iter()
            .zip(&windows)
            .filter(|&(_, &window)| window > 0)
            .filter_map(|(plan, &window)| {
                let mut st = DfsState::new(plan.sets.len(), m);
                greedy_leaf(&run_over(plan, 0, window), &mut st, &mut scratch, &mut 0, 0, 0)
            })
            .min_by(f64::total_cmp)
    } else {
        None
    };

    // Chunk each window into fixed ranges.
    struct Chunk {
        pattern: usize,
        lo: u64,
        hi: u64,
    }
    let mut chunks: Vec<Chunk> = Vec::new();
    for (pi, &window) in windows.iter().enumerate().filter(|&(_, &w)| w > 0) {
        let parts = if window >= CHUNK_SPLIT_MIN { CHUNKS_PER_PATTERN.min(window) } else { 1 };
        let (base, rem) = (window / parts, window % parts);
        let mut lo = 0u64;
        for p in 0..parts {
            let len = base + u64::from(p < rem);
            chunks.push(Chunk { pattern: pi, lo, hi: lo + len });
            lo += len;
        }
    }

    let outs: Vec<ChunkOut> = par_map_with(opts.threads.max(1), chunks, |_, chunk| {
        let plan = &plans[chunk.pattern];
        let mut out = ChunkOut {
            pattern: chunk.pattern,
            qualified: Vec::new(),
            best_cost: incumbent,
            examined: 0,
            pruned: 0,
        };
        let mut st = DfsState::new(plan.sets.len(), m);
        let mut scratch = GraphEvalScratch::default();
        bb_walk(&run_over(plan, chunk.lo, chunk.hi), &mut st, &mut scratch, &mut out, 0, 0);
        out
    });

    let mut qualified: Vec<(ServiceGraph, GraphEval)> = Vec::new();
    let (mut examined, mut pruned) = (0u64, 0u64);
    for out in outs {
        examined += out.examined;
        pruned += out.pruned;
        for (assignment, eval) in out.qualified {
            let pattern = Arc::clone(&plans[out.pattern].pattern);
            let graph = ServiceGraph::new(req.source, req.dest, pattern, assignment);
            qualified.push((graph, eval));
        }
    }
    let probes = examined + pruned;

    match select_best(qualified) {
        Some((best, eval, pool)) => Ok(BaselineOutcome {
            best,
            eval,
            qualified_pool: if best_only { Vec::new() } else { pool },
            probes,
            combos_examined: examined,
            combos_pruned: pruned,
        }),
        None => Err(Error::NoQualifiedComposition),
    }
}

/// The random algorithm: "randomly selects a functionally qualified service
/// component for each function node … does not consider the user's QoS and
/// resource requirements". The pick ignores requirements; the returned
/// evaluation reports whether it happened to qualify.
pub fn random(
    ctx: &mut BaselineContext<'_>,
    req: &CompositionRequest,
    rng: &mut Rng,
) -> Result<BaselineOutcome> {
    req.validate()?;
    let sets = replica_sets(ctx, req)?;
    let assignment: Vec<ComponentId> = sets
        .iter()
        .map(|s| *s.choose(rng).expect("replica sets are non-empty"))
        .collect();
    // Random/static use the original function graph order (they do not
    // explore commutations).
    let pattern = req.function_graph.patterns()[0].clone();
    let graph = ServiceGraph::new(req.source, req.dest, pattern, assignment);
    let eval = evaluate(&graph, req, ctx.reg, ctx.overlay, ctx.state, ctx.paths);
    Ok(BaselineOutcome {
        best: graph,
        eval,
        qualified_pool: Vec::new(),
        probes: 1,
        combos_examined: 1,
        combos_pruned: 0,
    })
}

/// The static algorithm: a pre-defined component (the first registered
/// replica) for each function node, regardless of requirements.
pub fn static_(ctx: &mut BaselineContext<'_>, req: &CompositionRequest) -> Result<BaselineOutcome> {
    req.validate()?;
    let sets = replica_sets(ctx, req)?;
    let assignment: Vec<ComponentId> = sets.iter().map(|s| s[0]).collect();
    let pattern = req.function_graph.patterns()[0].clone();
    let graph = ServiceGraph::new(req.source, req.dest, pattern, assignment);
    let eval = evaluate(&graph, req, ctx.reg, ctx.overlay, ctx.state, ctx.paths);
    Ok(BaselineOutcome {
        best: graph,
        eval,
        qualified_pool: Vec::new(),
        probes: 1,
        combos_examined: 1,
        combos_pruned: 0,
    })
}

/// Message overhead of the centralized global-view scheme over a time
/// horizon: every peer pushes a state update to the central composer every
/// `update_period` time units (the "expensive periodical states update" the
/// paper contrasts BCP against).
pub fn centralized_state_messages(peers: u64, duration_units: u64, update_period_units: u64) -> u64 {
    assert!(update_period_units >= 1, "update period must be ≥ 1");
    peers * (duration_units / update_period_units)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::component::{FunctionCatalog, ServiceComponent};
    use crate::model::function_graph::FunctionGraph;
    use spidernet_topology::inet::{generate_power_law, InetConfig};
    use spidernet_topology::overlay::OverlayConfig;
    use spidernet_util::id::{FunctionId, PeerId};
    use spidernet_util::qos::{QosRequirement, QosVector};
    use spidernet_util::res::ResourceVector;
    use spidernet_util::rng::rng_for;

    struct World {
        overlay: Overlay,
        reg: Registry,
        state: OverlayState,
        paths: PathTable,
    }

    fn world(funcs: u64, reps: u64) -> World {
        let ip = generate_power_law(&InetConfig { nodes: 200, ..InetConfig::default() }, 21);
        let overlay = Overlay::build(
            &ip,
            &OverlayConfig { peers: 40, neighbors: 5 },
            21,
        );
        let mut catalog = FunctionCatalog::new();
        for f in 0..funcs {
            catalog.intern(&format!("fn-{f}"));
        }
        let mut reg = Registry::new(catalog);
        for f in 0..funcs {
            for r in 0..reps {
                reg.add(ServiceComponent {
                    id: ComponentId::new(0),
                    peer: PeerId::new(2 + f * reps + r),
                    function: FunctionId::new(f),
                    perf_qos: QosVector::from_values(vec![10.0 + r as f64 * 5.0, 0.01]),
                    resources: ResourceVector::new(0.2, 32.0),
                    out_bandwidth_mbps: 1.0,
                    failure_prob: 0.01,
                });
            }
        }
        let state = OverlayState::new(&overlay, ResourceVector::new(1.0, 256.0));
        World { overlay, reg, state, paths: PathTable::new() }
    }

    fn ctx<'a>(w: &'a mut World) -> BaselineContext<'a> {
        BaselineContext { overlay: &w.overlay, reg: &w.reg, state: &w.state, paths: &mut w.paths }
    }

    fn request(k: usize) -> CompositionRequest {
        CompositionRequest {
            source: PeerId::new(0),
            dest: PeerId::new(1),
            function_graph: FunctionGraph::linear(k),
            qos_req: QosRequirement::new(vec![100_000.0, 10.0]).unwrap(),
            bandwidth_mbps: 1.0,
            max_failure_prob: 1.0,
        }
    }

    #[test]
    fn optimal_probe_count_is_product_of_replicas() {
        let mut w = world(3, 4);
        let out = optimal(&mut ctx(&mut w), &request(3), None).unwrap();
        assert_eq!(out.probes, 64); // 4³
    }

    #[test]
    fn optimal_truly_minimizes_cost() {
        let mut w = world(2, 3);
        let req = request(2);
        let out = optimal(&mut ctx(&mut w), &req, None).unwrap();
        // Brute-force check against every combo.
        let mut best_cost = f64::INFINITY;
        let r0 = w.reg.replicas(FunctionId::new(0)).to_vec();
        let r1 = w.reg.replicas(FunctionId::new(1)).to_vec();
        let c2 = BaselineContext {
            overlay: &w.overlay,
            reg: &w.reg,
            state: &w.state,
            paths: &mut w.paths,
        };
        for &a in &r0 {
            for &b in &r1 {
                let g = ServiceGraph::new(
                    req.source,
                    req.dest,
                    FunctionGraph::linear(2),
                    vec![a, b],
                );
                let e = evaluate(&g, &req, c2.reg, c2.overlay, c2.state, c2.paths);
                if is_qualified(&e, &req) {
                    best_cost = best_cost.min(e.cost);
                }
            }
        }
        assert!((out.eval.cost - best_cost).abs() < 1e-12);
    }

    #[test]
    fn optimal_pool_contains_all_other_qualified() {
        let mut w = world(2, 3);
        let out = optimal(&mut ctx(&mut w), &request(2), None).unwrap();
        // 9 combos, all qualify under the loose requirement.
        assert_eq!(1 + out.qualified_pool.len(), 9);
    }

    #[test]
    fn combo_cap_bounds_enumeration() {
        let mut w = world(3, 4);
        let out = optimal(&mut ctx(&mut w), &request(3), Some(10)).unwrap();
        assert!(out.probes <= 10);
    }

    #[test]
    fn random_is_functionally_correct_but_quality_blind() {
        let mut w = world(3, 4);
        let req = request(3);
        let mut rng = rng_for(5, "baseline");
        let out = random(&mut ctx(&mut w), &req, &mut rng).unwrap();
        for (i, &c) in out.best.assignment.iter().enumerate() {
            assert_eq!(w.reg.get(c).function, FunctionId::new(i as u64));
        }
        assert_eq!(out.probes, 1);
    }

    #[test]
    fn random_varies_with_rng() {
        let mut w = world(2, 8);
        let req = request(2);
        let mut rng = rng_for(6, "baseline");
        let picks: Vec<Vec<ComponentId>> = (0..10)
            .map(|_| random(&mut ctx(&mut w), &req, &mut rng).unwrap().best.assignment)
            .collect();
        assert!(picks.windows(2).any(|w| w[0] != w[1]), "random always picked the same graph");
    }

    #[test]
    fn static_always_picks_first_replica() {
        let mut w = world(2, 3);
        let req = request(2);
        let a = static_(&mut ctx(&mut w), &req).unwrap();
        let b = static_(&mut ctx(&mut w), &req).unwrap();
        assert_eq!(a.best.assignment, b.best.assignment);
        assert_eq!(a.best.assignment[0], w.reg.replicas(FunctionId::new(0))[0]);
    }

    #[test]
    fn random_and_static_ignore_qos_violations() {
        let mut w = world(2, 2);
        let mut req = request(2);
        req.qos_req = QosRequirement::new(vec![0.001, 10.0]).unwrap();
        let mut rng = rng_for(7, "baseline");
        // They still return a graph — just an unqualified one.
        let r = random(&mut ctx(&mut w), &req, &mut rng).unwrap();
        assert!(!is_qualified(&r.eval, &req));
        let s = static_(&mut ctx(&mut w), &req).unwrap();
        assert!(!is_qualified(&s.eval, &req));
        // Optimal, by contrast, reports failure.
        assert!(matches!(
            optimal(&mut ctx(&mut w), &req, None),
            Err(Error::NoQualifiedComposition)
        ));
    }

    #[test]
    fn optimal_beats_or_ties_random_on_cost() {
        let mut w = world(3, 3);
        let req = request(3);
        let opt = optimal(&mut ctx(&mut w), &req, None).unwrap();
        let mut rng = rng_for(8, "baseline");
        for _ in 0..10 {
            let r = random(&mut ctx(&mut w), &req, &mut rng).unwrap();
            assert!(opt.eval.cost <= r.eval.cost + 1e-12);
        }
    }

    fn assert_same_outcome(a: &BaselineOutcome, b: &BaselineOutcome) {
        assert_eq!(a.best.assignment, b.best.assignment);
        assert_eq!(a.eval.cost.to_bits(), b.eval.cost.to_bits());
        for (x, y) in a.eval.qos.values().iter().zip(b.eval.qos.values()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a.qualified_pool.len(), b.qualified_pool.len());
        for ((ga, ea), (gb, eb)) in a.qualified_pool.iter().zip(&b.qualified_pool) {
            assert_eq!(ga.assignment, gb.assignment);
            assert_eq!(ea.cost.to_bits(), eb.cost.to_bits());
        }
        assert_eq!(a.probes, b.probes);
    }

    #[test]
    fn branch_and_bound_matches_naive_across_threads() {
        for cap in [None, Some(7), Some(1_000)] {
            let mut w = world(3, 4);
            let req = request(3);
            let naive = optimal_naive(&mut ctx(&mut w), &req, cap).unwrap();
            for threads in [1, 2, 4] {
                let opts = OptimalOptions { combo_cap: cap, pool: PoolPolicy::Full, threads };
                let bb = optimal_with(&mut ctx(&mut w), &req, &opts).unwrap();
                assert_same_outcome(&bb, &naive);
                assert_eq!(bb.combos_examined + bb.combos_pruned, bb.probes);
            }
        }
    }

    #[test]
    fn best_only_returns_the_same_best_with_empty_pool() {
        let mut w = world(3, 4);
        let req = request(3);
        let full = optimal(&mut ctx(&mut w), &req, None).unwrap();
        for threads in [1, 3] {
            let opts =
                OptimalOptions { combo_cap: None, pool: PoolPolicy::BestOnly, threads };
            let bb = optimal_with(&mut ctx(&mut w), &req, &opts).unwrap();
            assert_eq!(bb.best.assignment, full.best.assignment);
            assert_eq!(bb.eval.cost.to_bits(), full.eval.cost.to_bits());
            assert!(bb.qualified_pool.is_empty());
            assert_eq!(bb.probes, full.probes);
        }
    }

    #[test]
    fn best_only_incumbent_stays_inside_the_cap_window() {
        let mut w = world(3, 4);
        // Load the peers of replicas 0–2 of every function so replica 3 is
        // the cheapest everywhere: the uncapped greedy leaf is (r3, r3, r3)
        // at position 63, past a cap of 10.
        for f in 0..3 {
            for &c in &w.reg.replicas(FunctionId::new(f))[..3] {
                let peer = w.reg.get(c).peer;
                let demand = [(peer, ResourceVector::new(0.6, 128.0))];
                w.state.commit(&demand, &Default::default()).unwrap();
            }
        }
        let req = request(3);
        let cap = Some(10);
        let uncapped = optimal_naive(&mut ctx(&mut w), &req, None).unwrap();
        let naive = optimal_naive(&mut ctx(&mut w), &req, cap).unwrap();
        let cheapest: Vec<ComponentId> =
            (0..3).map(|f| w.reg.replicas(FunctionId::new(f))[3]).collect();
        assert_eq!(uncapped.best.assignment, cheapest);
        assert!(uncapped.eval.cost < naive.eval.cost);
        for threads in [1, 2] {
            let opts = OptimalOptions { combo_cap: cap, pool: PoolPolicy::BestOnly, threads };
            let bb = optimal_with(&mut ctx(&mut w), &req, &opts).unwrap();
            assert_eq!(bb.best.assignment, naive.best.assignment);
            assert_eq!(bb.eval.cost.to_bits(), naive.eval.cost.to_bits());
            assert_eq!(bb.probes, naive.probes);
            assert_eq!(bb.combos_examined + bb.combos_pruned, bb.probes);
        }
    }

    #[test]
    fn tight_qos_bound_prunes_but_agrees_with_naive() {
        let mut w = world(3, 4);
        let mut req = request(3);
        // Tight enough that slower replicas prune, loose enough that some
        // combo still qualifies (replica r adds 10 + 5r ms; legs add more).
        let naive_all = optimal_naive(&mut ctx(&mut w), &req, None).unwrap();
        let budget = naive_all.eval.qos[spidernet_util::qos::dim::DELAY_MS] + 10.0;
        req.qos_req = QosRequirement::new(vec![budget, 10.0]).unwrap();
        let naive = optimal_naive(&mut ctx(&mut w), &req, None).unwrap();
        let bb = optimal(&mut ctx(&mut w), &req, None).unwrap();
        assert_same_outcome(&bb, &naive);
        assert!(bb.combos_pruned > 0, "tight QoS bound must cut subtrees");
        assert_eq!(bb.combos_examined + bb.combos_pruned, 64);
    }

    #[test]
    fn centralized_overhead_formula() {
        // 1000 peers, 2000 units, update every unit.
        assert_eq!(centralized_state_messages(1000, 2000, 1), 2_000_000);
        assert_eq!(centralized_state_messages(1000, 2000, 10), 200_000);
    }

    #[test]
    #[should_panic(expected = "update period")]
    fn centralized_overhead_rejects_zero_period() {
        centralized_state_messages(10, 10, 0);
    }

    #[test]
    fn unknown_function_is_reported() {
        let mut w = world(1, 1);
        let mut req = request(1);
        w.reg.catalog_mut().intern("ghost");
        let ghost = w.reg.catalog().lookup("ghost").unwrap();
        req.function_graph = FunctionGraph::linear_of(&[ghost]);
        assert!(matches!(
            optimal(&mut ctx(&mut w), &req, None),
            Err(Error::UnknownFunction(_))
        ));
    }
}
