//! Proactive failure recovery (paper §5).
//!
//! Each active session keeps a small set of *backup service graphs* chosen
//! from the qualified graphs BCP discovered at setup. The source
//! periodically sends low-rate maintenance probes along the backups to
//! track their liveness (the maintenance overhead); when the primary
//! breaks, it switches to the best surviving backup instead of paying a
//! full BCP round. Reactive re-composition runs only when every backup is
//! gone.
//!
//! Two policy questions (paper §5.1–§5.2):
//! * **how many** — Eq. 2: `γ = min(⌊U·(Σ q_i^λ/q_i^req + F^λ/F^req)⌋, C−1)`
//!   — sessions whose current quality sits close to the user's bounds hold
//!   more backups;
//! * **which** — for each primary component (bottleneck first, i.e.
//!   highest failure probability), the qualified graph *excluding* that
//!   component with the *largest overlap* with the primary; then for every
//!   pair, triple, … of components, under the γ cap.

use crate::model::component::Registry;
use crate::model::request::CompositionRequest;
use crate::model::service_graph::{pattern_service_links, GraphEval, ServiceGraph};
use crate::paths::PathTable;
use crate::selection::{evaluate, Candidate};
use crate::state::{OverlayState, SessionAllocation};
use spidernet_sim::metrics::Instruments;
use spidernet_sim::trace::TraceEvent;
use spidernet_topology::Overlay;
use spidernet_util::error::{Error, Result};
use spidernet_util::id::{ComponentId, PeerId, SessionId};
use spidernet_util::res::ResourceVector;
use std::collections::BTreeMap;

/// Time for the source to *detect* a component failure, ms (missed
/// heartbeats / stream stall). Added to every recovery latency.
pub const DETECTION_DELAY_MS: f64 = 200.0;
/// Time to switch the stream onto a live backup, ms (soft-state
/// re-initialization).
const SWITCH_DELAY_MS: f64 = 50.0;
/// Largest component-subset size the backup selector covers ("every two
/// service components, every three, and so forth").
const MAX_SUBSET_SIZE: usize = 3;

/// Recovery policy knobs.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct RecoveryConfig {
    /// U in Eq. 2: the configurable upper bound scale on backup count.
    pub backup_upper_bound: f64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig { backup_upper_bound: 1.5 }
    }
}

impl RecoveryConfig {
    /// A builder seeded with the defaults.
    pub fn builder() -> RecoveryConfigBuilder {
        RecoveryConfigBuilder { cfg: RecoveryConfig::default() }
    }
}

/// Builder for [`RecoveryConfig`].
#[derive(Clone, Debug)]
pub struct RecoveryConfigBuilder {
    cfg: RecoveryConfig,
}

impl RecoveryConfigBuilder {
    /// U in Eq. 2.
    pub fn backup_upper_bound(mut self, u: f64) -> Self {
        self.cfg.backup_upper_bound = u;
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> RecoveryConfig {
        self.cfg
    }
}

/// Rejects evaluations carrying NaN/infinite cost or failure probability
/// before they are committed as a session's quality — a poisoned replica
/// (e.g. a registration with NaN cost) must surface as a recoverable
/// error, not corrupt Eq. 2 or panic a sort downstream.
fn check_eval_finite(eval: &GraphEval) -> Result<()> {
    if eval.cost.is_finite() && eval.failure_prob.is_finite() {
        Ok(())
    } else {
        Err(Error::InvalidRequirement(format!(
            "non-finite graph evaluation (cost {}, failure prob {})",
            eval.cost, eval.failure_prob
        )))
    }
}

/// Eq. 2: the adaptive number of backup service graphs.
///
/// `c_total` is C, the total number of qualified graphs found at setup
/// (primary included), capping γ at C−1.
pub fn backup_count(
    eval: &GraphEval,
    req: &CompositionRequest,
    u: f64,
    c_total: usize,
) -> usize {
    let qos_term = req.qos_req.relative_usage(&eval.qos);
    let fail_term = if req.max_failure_prob > 0.0 {
        eval.failure_prob / req.max_failure_prob
    } else {
        1.0
    };
    let gamma = (u * (qos_term + fail_term)).floor();
    let cap = c_total.saturating_sub(1);
    (gamma.max(0.0) as usize).min(cap)
}

/// Selects backup indices into `pool` for `primary` (paper §5.2).
pub fn select_backups(
    primary: &ServiceGraph,
    pool: &[(ServiceGraph, GraphEval)],
    gamma: usize,
    reg: &Registry,
    max_subset_size: usize,
) -> Vec<usize> {
    if gamma == 0 || pool.is_empty() {
        return Vec::new();
    }
    // Bottleneck-first: primary components ordered by failure probability,
    // highest first.
    // `total_cmp` keeps this panic-free on NaN inputs: a component whose
    // failure probability is unknown (NaN sorts above every finite value)
    // is treated as the worst bottleneck rather than poisoning the sort.
    let mut comps: Vec<ComponentId> = primary.components().to_vec();
    comps.sort_by(|a, b| {
        reg.get(*b)
            .failure_prob
            .total_cmp(&reg.get(*a).failure_prob)
            .then_with(|| a.cmp(b))
    });

    let mut selected: Vec<usize> = Vec::with_capacity(gamma.min(pool.len()));
    // Subsets of growing size; within one size, lexicographic over the
    // bottleneck-first ordering (so the most failure-prone components are
    // covered first). One index buffer steps through every subset.
    let mut subset: Vec<usize> = Vec::with_capacity(max_subset_size.min(comps.len()));
    'outer: for size in 1..=max_subset_size.min(comps.len()) {
        subset.clear();
        subset.extend(0..size);
        loop {
            // The best backup for this subset: excludes every subset
            // component, maximizes overlap with the primary; ties broken
            // by lower ψ (pool is cost-ordered, stable max keeps first).
            let mut best: Option<(usize, usize)> = None; // (overlap, pool idx)
            for (pi, (g, _)) in pool.iter().enumerate() {
                if selected.contains(&pi) {
                    continue;
                }
                if subset.iter().any(|&i| g.contains_component(comps[i])) {
                    continue;
                }
                let ov = g.overlap(primary);
                if best.is_none_or(|(bov, _)| ov > bov) {
                    best = Some((ov, pi));
                }
            }
            if let Some((_, pi)) = best {
                selected.push(pi);
                if selected.len() >= gamma {
                    break 'outer;
                }
            }
            if !next_subset(&mut subset, comps.len()) {
                break;
            }
        }
    }
    // If subset coverage did not exhaust γ, fill with the cheapest
    // remaining qualified graphs.
    for pi in 0..pool.len() {
        if selected.len() >= gamma {
            break;
        }
        if !selected.contains(&pi) {
            selected.push(pi);
        }
    }
    selected
}

/// Steps `idx`, a k-subset of `0..n` as ascending indices, to the next
/// k-subset in lexicographic order; `false` after the last. Sizes are tiny
/// here (function graphs have a handful of nodes, k ≤ max_subset_size).
fn next_subset(idx: &mut [usize], n: usize) -> bool {
    let k = idx.len();
    // The rightmost index that can still advance.
    let Some(i) = (0..k).rev().find(|&i| idx[i] < i + n - k) else {
        return false;
    };
    idx[i] += 1;
    for j in (i + 1)..k {
        idx[j] = idx[j - 1] + 1;
    }
    true
}

/// The backup-promotion step shared by establishment, backup switchover
/// and reactive re-establishment: sizes the backup set by Eq. 2 (γ, with
/// `C = 1 + pool.len()`), picks it by §5.2, and splits `pool` into
/// `(backups, rest)`, both in pool order; `rest` keeps `pool`'s buffer.
fn promote_backups(
    primary: &ServiceGraph,
    eval: &GraphEval,
    req: &CompositionRequest,
    u: f64,
    mut pool: Vec<Candidate>,
    reg: &Registry,
) -> (Vec<Candidate>, Vec<Candidate>) {
    let gamma = backup_count(eval, req, u, 1 + pool.len());
    let mut chosen = select_backups(primary, &pool, gamma, reg, MAX_SUBSET_SIZE);
    // Lift the chosen graphs out from the back, so every index still
    // names its graph, then restore pool order.
    chosen.sort_unstable_by(|a, b| b.cmp(a));
    let mut backups: Vec<Candidate> = chosen.iter().map(|&i| pool.remove(i)).collect();
    backups.reverse();
    (backups, pool)
}

/// Per-peer end-system demand of a session (commit shape).
pub type PeerDemand = Vec<(PeerId, ResourceVector)>;
/// Per-stream bandwidth demand over overlay routes (commit shape).
pub use crate::state::LinkDemand;

/// Builds the commit-shape demands of a service graph: per-peer resources
/// (summed in assignment order, ascending peer) plus each service link's
/// bandwidth over its overlay route, walked hop by hop in path order.
pub fn session_demands(
    graph: &ServiceGraph,
    req: &CompositionRequest,
    reg: &Registry,
    overlay: &Overlay,
    paths: &mut PathTable,
) -> (PeerDemand, LinkDemand) {
    let mut peer_demand: PeerDemand = Vec::with_capacity(graph.assignment.len());
    for &c in &graph.assignment {
        let comp = reg.get(c);
        match peer_demand.iter_mut().find(|(p, _)| *p == comp.peer) {
            Some((_, need)) => *need = need.add(&comp.resources),
            None => peer_demand.push((comp.peer, ResourceVector::ZERO.add(&comp.resources))),
        }
    }
    peer_demand.sort_unstable_by_key(|&(p, _)| p);
    let mut link_demand = LinkDemand::default();
    for link in pattern_service_links(&graph.pattern) {
        let from = graph.peer_of_end(link.from, reg);
        let to = graph.peer_of_end(link.to, reg);
        let bw = graph.link_bandwidth(&link, reg, req.bandwidth_mbps);
        if from == to || bw <= 0.0 {
            continue;
        }
        link_demand.push_route(overlay, paths, from, to, bw);
    }
    (peer_demand, link_demand)
}

/// One active composed service session.
#[derive(Clone, Debug)]
pub struct Session {
    /// Session id.
    pub id: SessionId,
    /// The originating request.
    pub request: CompositionRequest,
    /// The currently streaming service graph.
    pub primary: ServiceGraph,
    /// Its evaluation at (re)establishment time.
    pub eval: GraphEval,
    /// Committed resources held by the primary.
    pub allocation: SessionAllocation,
    /// Maintained backup service graphs, preference-ordered.
    pub backups: Vec<(ServiceGraph, GraphEval)>,
    /// Remaining qualified graphs not promoted to backups (replenishment
    /// pool).
    pub pool: Vec<(ServiceGraph, GraphEval)>,
}

/// What happened to one session when a peer failed.
#[derive(Clone, Debug, PartialEq)]
pub enum FailureOutcome {
    /// Switched to backup number `rank` (0 = most preferred) within
    /// `switch_ms`.
    RecoveredByBackup {
        /// Index of the backup used.
        rank: usize,
        /// Recovery latency, ms.
        switch_ms: f64,
    },
    /// Every backup was dead or inadmissible; the caller must run reactive
    /// BCP and either [`SessionManager::reestablish`] or tear down.
    NeedsReactive,
}

/// Owns all active sessions and implements the recovery policy.
#[derive(Clone, Debug)]
pub struct SessionManager {
    cfg: RecoveryConfig,
    sessions: BTreeMap<SessionId, Session>,
    next_id: u64,
}

impl SessionManager {
    /// A manager with the given policy.
    pub fn new(cfg: RecoveryConfig) -> Self {
        SessionManager { cfg, sessions: BTreeMap::new(), next_id: 0 }
    }

    /// The policy in force.
    pub fn config(&self) -> &RecoveryConfig {
        &self.cfg
    }

    /// Establishes a session from a composition result: commits the
    /// primary's resources and selects backups per Eq. 2 / §5.2.
    #[allow(clippy::too_many_arguments)]
    pub fn establish(
        &mut self,
        request: CompositionRequest,
        primary: ServiceGraph,
        eval: GraphEval,
        pool: Vec<(ServiceGraph, GraphEval)>,
        reg: &Registry,
        overlay: &Overlay,
        paths: &mut PathTable,
        state: &mut OverlayState,
    ) -> Result<SessionId> {
        check_eval_finite(&eval)?;
        let (peers, links) = session_demands(&primary, &request, reg, overlay, paths);
        let allocation = state.commit(&peers, &links)?;
        let (backups, rest) =
            promote_backups(&primary, &eval, &request, self.cfg.backup_upper_bound, pool, reg);
        let id = SessionId::new(self.next_id);
        self.next_id += 1;
        self.sessions.insert(
            id,
            Session { id, request, primary, eval, allocation, backups, pool: rest },
        );
        Ok(id)
    }

    /// Tears a session down, releasing its resources.
    pub fn teardown(&mut self, id: SessionId, state: &mut OverlayState) -> Result<()> {
        let s = self.sessions.remove(&id).ok_or(Error::UnknownSession(id.raw()))?;
        state.release(&s.allocation);
        Ok(())
    }

    /// One maintenance round: sends a low-rate probe along every backup of
    /// every session (message count = components + destination hop each),
    /// drops backups containing dead peers, and replenishes from the pool.
    /// Returns the number of maintenance messages sent.
    pub fn maintenance_tick(
        &mut self,
        reg: &Registry,
        state: &OverlayState,
        obs: &mut Instruments,
    ) -> u64 {
        let mut messages = 0u64;
        for s in self.sessions.values_mut() {
            // Probe cost: one message per service-graph hop.
            for (g, _) in &s.backups {
                messages += g.assignment.len() as u64 + 1;
            }
            // Liveness filtering.
            let before = s.backups.len();
            s.backups.retain(|(g, _)| {
                g.components().iter().all(|&c| state.is_alive(reg.get(c).peer))
            });
            let lost = before - s.backups.len();
            // Replenish from the pool, preferring low ψ (pool is ordered).
            for _ in 0..lost {
                let next_live = s.pool.iter().position(|(g, _)| {
                    g.components().iter().all(|&c| state.is_alive(reg.get(c).peer))
                });
                match next_live {
                    Some(i) => s.backups.push(s.pool.remove(i)),
                    None => break,
                }
            }
        }
        obs.metrics.add(obs.counters.maintenance, messages);
        messages
    }

    /// Reacts to the failure of `peer`. Sessions whose primary used the
    /// peer try their backups in order (alive + committable); the rest of
    /// the affected sessions return [`FailureOutcome::NeedsReactive`].
    /// Unaffected sessions silently drop dead backups at the next
    /// maintenance tick.
    #[allow(clippy::too_many_arguments)]
    pub fn handle_peer_failure(
        &mut self,
        peer: PeerId,
        reg: &Registry,
        overlay: &Overlay,
        paths: &mut PathTable,
        state: &mut OverlayState,
        obs: &mut Instruments,
    ) -> Vec<(SessionId, FailureOutcome)> {
        let affected: Vec<SessionId> = self
            .sessions
            .values()
            .filter(|s| s.primary.contains_peer(peer, reg))
            .map(|s| s.id)
            .collect();
        let mut outcomes = Vec::with_capacity(affected.len());
        for id in affected {
            let outcome = self.switch_to_backup(id, peer, reg, overlay, paths, state, obs);
            outcomes.push((id, outcome));
        }
        outcomes
    }

    #[allow(clippy::too_many_arguments)]
    fn switch_to_backup(
        &mut self,
        id: SessionId,
        failed: PeerId,
        reg: &Registry,
        overlay: &Overlay,
        paths: &mut PathTable,
        state: &mut OverlayState,
        obs: &mut Instruments,
    ) -> FailureOutcome {
        let s = self.sessions.get_mut(&id).expect("caller verified membership");
        // The broken primary's resources are released (dead peer entries
        // are moot; live-peer entries must be freed).
        state.release(&s.allocation);
        s.allocation = SessionAllocation::default();

        // The failed peer may host components of *other* functions too, so
        // it can sit inside a backup graph that excludes the broken primary
        // component. Prune such backups before qualifying candidates: the
        // overlay's liveness view can lag the failure notification, and the
        // per-component alive check below would then wave the dead peer
        // through.
        s.backups.retain(|(g, _)| !g.contains_peer(failed, reg));

        let mut rank = 0usize;
        while !s.backups.is_empty() {
            let (graph, _) = s.backups.remove(0);
            let alive =
                graph.components().iter().all(|&c| state.is_alive(reg.get(c).peer));
            if alive {
                let (peers, links) = session_demands(&graph, &s.request, reg, overlay, paths);
                if let Ok(alloc) = state.commit(&peers, &links) {
                    let eval = evaluate(&graph, &s.request, reg, overlay, state, paths);
                    s.primary = graph;
                    s.eval = eval;
                    s.allocation = alloc;
                    // Re-cover the *new* primary: the surviving backups were
                    // selected to exclude the old primary's components, so a
                    // follow-up failure of a peer both graphs share would
                    // find no backup avoiding it and fall back to reactive
                    // BCP. Merge backups and pool, and re-run Eq. 2 + §5.2
                    // against the graph now streaming; graphs holding dead
                    // peers stay in the pool (they qualify again on revive)
                    // but are never promoted to maintained backups.
                    let mut merged = std::mem::take(&mut s.backups);
                    merged.append(&mut s.pool);
                    merged.sort_by(|a, b| a.1.cost.total_cmp(&b.1.cost));
                    let (live, dead): (Vec<_>, Vec<_>) =
                        merged.into_iter().partition(|(g, _)| {
                            g.components().iter().all(|&c| state.is_alive(reg.get(c).peer))
                        });
                    let (backups, mut rest) = promote_backups(
                        &s.primary,
                        &s.eval,
                        &s.request,
                        self.cfg.backup_upper_bound,
                        live,
                        reg,
                    );
                    rest.extend(dead);
                    s.backups = backups;
                    s.pool = rest;
                    // Detection precedes the switch; trying dead backups
                    // first costs one maintenance-status check each (they
                    // are known-dead from probing, so no extra round trip).
                    let switch_ms = DETECTION_DELAY_MS + SWITCH_DELAY_MS;
                    let new_head = s
                        .primary
                        .assignment
                        .first()
                        .map(|&c| reg.get(c).peer.raw())
                        .unwrap_or(0);
                    obs.metrics.observe(obs.counters.switch_ms, switch_ms);
                    obs.metrics.incr(obs.counters.recovery_switches);
                    obs.trace.record(TraceEvent::BackupSwitch {
                        session: id.raw(),
                        from: failed.raw(),
                        to: new_head,
                        latency_ms: switch_ms,
                    });
                    obs.trace.record(TraceEvent::RecoverySwitch {
                        session: id.raw(),
                        rank: rank as u32,
                        reactive: false,
                    });
                    return FailureOutcome::RecoveredByBackup { rank, switch_ms };
                }
            }
            rank += 1;
        }
        obs.metrics.incr(obs.counters.recovery_reactive);
        obs.trace.record(TraceEvent::RecoverySwitch {
            session: id.raw(),
            rank: rank as u32,
            reactive: true,
        });
        FailureOutcome::NeedsReactive
    }

    /// Re-establishes a session after reactive BCP found a fresh graph.
    #[allow(clippy::too_many_arguments)]
    pub fn reestablish(
        &mut self,
        id: SessionId,
        primary: ServiceGraph,
        eval: GraphEval,
        pool: Vec<(ServiceGraph, GraphEval)>,
        reg: &Registry,
        overlay: &Overlay,
        paths: &mut PathTable,
        state: &mut OverlayState,
    ) -> Result<()> {
        check_eval_finite(&eval)?;
        let s = self.sessions.get_mut(&id).ok_or(Error::UnknownSession(id.raw()))?;
        state.release(&s.allocation);
        let (peers, links) = session_demands(&primary, &s.request, reg, overlay, paths);
        let allocation = state.commit(&peers, &links)?;
        let (backups, rest) =
            promote_backups(&primary, &eval, &s.request, self.cfg.backup_upper_bound, pool, reg);
        s.primary = primary;
        s.eval = eval;
        s.allocation = allocation;
        s.backups = backups;
        s.pool = rest;
        Ok(())
    }

    /// Drops a session that could not be recovered (releases nothing — the
    /// failed switch already freed its allocation).
    pub fn abandon(&mut self, id: SessionId) {
        self.sessions.remove(&id);
    }

    /// Active session count.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// True if no sessions are active.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Iterates active sessions.
    pub fn sessions(&self) -> impl Iterator<Item = &Session> {
        self.sessions.values()
    }

    /// A session by id.
    pub fn session(&self, id: SessionId) -> Option<&Session> {
        self.sessions.get(&id)
    }

    /// Mean number of maintained backups per session (the paper reports
    /// 2.74 for Fig. 9).
    pub fn mean_backup_count(&self) -> f64 {
        if self.sessions.is_empty() {
            return 0.0;
        }
        self.sessions.values().map(|s| s.backups.len() as f64).sum::<f64>()
            / self.sessions.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::component::{FunctionCatalog, ServiceComponent};
    use crate::model::function_graph::FunctionGraph;
    use spidernet_topology::inet::{generate_power_law, InetConfig};
    use spidernet_topology::overlay::OverlayConfig;
    use spidernet_util::id::FunctionId;
    use spidernet_util::qos::{QosRequirement, QosVector};

    struct World {
        overlay: Overlay,
        reg: Registry,
        state: OverlayState,
        paths: PathTable,
    }

    /// 2 functions × 3 replicas on peers 2..8.
    fn world() -> World {
        let ip = generate_power_law(&InetConfig { nodes: 200, ..InetConfig::default() }, 31);
        let overlay = Overlay::build(
            &ip,
            &OverlayConfig { peers: 40, neighbors: 5 },
            31,
        );
        let mut catalog = FunctionCatalog::new();
        catalog.intern("fn-0");
        catalog.intern("fn-1");
        let mut reg = Registry::new(catalog);
        for f in 0..2u64 {
            for r in 0..3u64 {
                reg.add(ServiceComponent {
                    id: ComponentId::new(0),
                    peer: PeerId::new(2 + f * 3 + r),
                    function: FunctionId::new(f),
                    perf_qos: QosVector::from_values(vec![10.0, 0.01]),
                    resources: ResourceVector::new(0.2, 32.0),
                    out_bandwidth_mbps: 1.0,
                    failure_prob: 0.01 + 0.01 * r as f64,
                });
            }
        }
        let state = OverlayState::new(&overlay, ResourceVector::new(1.0, 256.0));
        World { overlay, reg, state, paths: PathTable::new() }
    }

    fn request() -> CompositionRequest {
        // Bounds sized so Eq. 2's usage ratios are meaningful (~0.5 per
        // term): actual delay ≈ tens of ms + 20ms Q_p, actual loss ≈ 0.02
        // additive, actual graph failure prob ≈ 0.03–0.05.
        CompositionRequest {
            source: PeerId::new(0),
            dest: PeerId::new(1),
            function_graph: FunctionGraph::linear(2),
            qos_req: QosRequirement::new(vec![400.0, 0.05]).unwrap(),
            bandwidth_mbps: 1.0,
            max_failure_prob: 0.08,
        }
    }

    /// All 9 combos as (graph, eval), cost-ordered, first = best.
    fn all_candidates(w: &mut World, req: &CompositionRequest) -> Vec<(ServiceGraph, GraphEval)> {
        let mut out = Vec::new();
        for a in 0..3u64 {
            for b in 0..3u64 {
                let g = ServiceGraph::new(
                    req.source,
                    req.dest,
                    FunctionGraph::linear(2),
                    vec![ComponentId::new(a), ComponentId::new(3 + b)],
                );
                let e = evaluate(&g, req, &w.reg, &w.overlay, &w.state, &mut w.paths);
                out.push((g, e));
            }
        }
        out.sort_by(|x, y| x.1.cost.total_cmp(&y.1.cost));
        out
    }

    #[test]
    fn backup_count_formula() {
        let req = request(); // bounds: delay 400ms, loss 0.05, failure 0.08
        let eval = GraphEval {
            qos: QosVector::from_values(vec![200.0, 0.025]), // usage 0.5+0.5=1.0
            cost: 1.0,
            failure_prob: 0.04, // term 0.5
            fits_resources: true,
        };
        // U=2: floor(2*(1.0+0.5)) = 3.
        assert_eq!(backup_count(&eval, &req, 2.0, 100), 3);
        // C caps it.
        assert_eq!(backup_count(&eval, &req, 2.0, 3), 2);
        assert_eq!(backup_count(&eval, &req, 2.0, 1), 0);
        // Better sessions keep fewer backups.
        let good = GraphEval {
            qos: QosVector::from_values(vec![20.0, 0.0025]),
            cost: 1.0,
            failure_prob: 0.004,
            fits_resources: true,
        };
        assert!(backup_count(&good, &req, 2.0, 100) < 3);
    }

    #[test]
    fn backups_exclude_each_primary_component() {
        let mut w = world();
        let req = request();
        let mut cands = all_candidates(&mut w, &req);
        let (primary, _) = cands.remove(0);
        let idx = select_backups(&primary, &cands, 2, &w.reg, 3);
        assert_eq!(idx.len(), 2);
        // The first backup must exclude the highest-failure-prob primary
        // component (selector tie-break: smaller component id).
        let bottleneck = *primary
            .components()
            .iter()
            .min_by(|a, b| {
                w.reg
                    .get(**b)
                    .failure_prob
                    .total_cmp(&w.reg.get(**a).failure_prob)
                    .then_with(|| a.cmp(b))
            })
            .unwrap();
        assert!(!cands[idx[0]].0.contains_component(bottleneck));
    }

    #[test]
    fn backups_prefer_overlap() {
        let mut w = world();
        let req = request();
        let mut cands = all_candidates(&mut w, &req);
        let (primary, _) = cands.remove(0);
        let idx = select_backups(&primary, &cands, 1, &w.reg, 3);
        let chosen = &cands[idx[0]].0;
        // Max-overlap graph excluding the bottleneck shares 1 of 2
        // components.
        assert_eq!(chosen.overlap(&primary), 1);
    }

    #[test]
    fn gamma_zero_selects_nothing() {
        let mut w = world();
        let req = request();
        let mut cands = all_candidates(&mut w, &req);
        let (primary, _) = cands.remove(0);
        assert!(select_backups(&primary, &cands, 0, &w.reg, 3).is_empty());
        assert!(select_backups(&primary, &[], 3, &w.reg, 3).is_empty());
    }

    fn establish_one(
        w: &mut World,
        mgr: &mut SessionManager,
    ) -> (SessionId, ServiceGraph) {
        let req = request();
        let mut cands = all_candidates(w, &req);
        let (primary, eval) = cands.remove(0);
        let id = mgr
            .establish(
                req,
                primary.clone(),
                eval,
                cands,
                &w.reg,
                &w.overlay,
                &mut w.paths,
                &mut w.state,
            )
            .unwrap();
        (id, primary)
    }

    #[test]
    fn establish_commits_resources_and_selects_backups() {
        let mut w = world();
        let mut mgr = SessionManager::new(RecoveryConfig {
            backup_upper_bound: 5.0,
            ..RecoveryConfig::default()
        });
        let (id, primary) = establish_one(&mut w, &mut mgr);
        let s = mgr.session(id).unwrap();
        assert!(!s.backups.is_empty());
        assert!(mgr.mean_backup_count() > 0.0);
        // Primary's peers are loaded.
        let p0 = w.reg.get(primary.assignment[0]).peer;
        assert!(w.state.available(p0).cpu() < w.state.capacity(p0).cpu());
    }

    #[test]
    fn teardown_releases_resources() {
        let mut w = world();
        let mut mgr = SessionManager::new(RecoveryConfig::default());
        let (id, primary) = establish_one(&mut w, &mut mgr);
        mgr.teardown(id, &mut w.state).unwrap();
        assert!(mgr.is_empty());
        let p0 = w.reg.get(primary.assignment[0]).peer;
        assert_eq!(w.state.available(p0), w.state.capacity(p0));
        assert!(mgr.teardown(id, &mut w.state).is_err());
    }

    #[test]
    fn failure_switches_to_backup() {
        let mut w = world();
        let mut mgr = SessionManager::new(RecoveryConfig {
            backup_upper_bound: 5.0,
            ..RecoveryConfig::default()
        });
        let (id, primary) = establish_one(&mut w, &mut mgr);
        let victim = w.reg.get(primary.assignment[0]).peer;
        w.state.fail_peer(victim);
        let outcomes = mgr.handle_peer_failure(
            victim,
            &w.reg,
            &w.overlay,
            &mut w.paths,
            &mut w.state,
            &mut Instruments::new(),
        );
        assert_eq!(outcomes.len(), 1);
        assert!(matches!(outcomes[0].1, FailureOutcome::RecoveredByBackup { .. }));
        let s = mgr.session(id).unwrap();
        assert!(!s.primary.contains_peer(victim, &w.reg), "new primary still uses dead peer");
        assert!(!s.allocation.peers.is_empty(), "no resources committed after switch");
    }

    #[test]
    fn failure_with_no_backups_needs_reactive() {
        let mut w = world();
        // U = 0 → γ = 0 → no backups.
        let mut mgr = SessionManager::new(RecoveryConfig {
            backup_upper_bound: 0.0,
            ..RecoveryConfig::default()
        });
        let (id, primary) = establish_one(&mut w, &mut mgr);
        assert!(mgr.session(id).unwrap().backups.is_empty());
        let victim = w.reg.get(primary.assignment[1]).peer;
        w.state.fail_peer(victim);
        let outcomes = mgr.handle_peer_failure(
            victim,
            &w.reg,
            &w.overlay,
            &mut w.paths,
            &mut w.state,
            &mut Instruments::new(),
        );
        assert_eq!(outcomes[0].1, FailureOutcome::NeedsReactive);
        // Reactive path: hand it a fresh graph.
        let req = request();
        let mut cands = all_candidates(&mut w, &req);
        cands.retain(|(g, _)| !g.contains_peer(victim, &w.reg));
        let (fresh, eval) = cands.remove(0);
        mgr.reestablish(id, fresh, eval, cands, &w.reg, &w.overlay, &mut w.paths, &mut w.state)
            .unwrap();
        assert!(!mgr.session(id).unwrap().primary.contains_peer(victim, &w.reg));
    }

    #[test]
    fn unaffected_sessions_are_untouched() {
        let mut w = world();
        let mut mgr = SessionManager::new(RecoveryConfig::default());
        let (id, primary) = establish_one(&mut w, &mut mgr);
        // Fail a peer outside the primary.
        let outside = PeerId::new(30);
        assert!(!primary.contains_peer(outside, &w.reg));
        w.state.fail_peer(outside);
        let outcomes = mgr.handle_peer_failure(
            outside,
            &w.reg,
            &w.overlay,
            &mut w.paths,
            &mut w.state,
            &mut Instruments::new(),
        );
        assert!(outcomes.is_empty());
        assert!(mgr.session(id).is_some());
    }

    #[test]
    fn maintenance_drops_dead_backups_and_replenishes() {
        let mut w = world();
        let mut mgr = SessionManager::new(RecoveryConfig {
            backup_upper_bound: 2.0,
            ..RecoveryConfig::default()
        });
        let (id, _) = establish_one(&mut w, &mut mgr);
        let backups_before = mgr.session(id).unwrap().backups.len();
        assert!(backups_before > 0);
        // Kill a peer used by the first backup but not by the primary.
        let s = mgr.session(id).unwrap();
        let victim = s
            .backups
            .iter()
            .flat_map(|(g, _)| g.components().iter())
            .map(|&c| w.reg.get(c).peer)
            .find(|&p| !s.primary.contains_peer(p, &w.reg))
            .expect("some backup peer differs from primary");
        w.state.fail_peer(victim);
        let mut obs = Instruments::new();
        let msgs = mgr.maintenance_tick(&w.reg, &w.state, &mut obs);
        assert!(msgs > 0);
        assert_eq!(obs.metrics.get(obs.counters.maintenance), msgs);
        let s = mgr.session(id).unwrap();
        assert!(
            s.backups.iter().all(|(g, _)| !g.contains_peer(victim, &w.reg)),
            "dead backup survived maintenance"
        );
    }

    #[test]
    fn combinations_enumerate_k_subsets() {
        let subsets = |n: usize, k: usize| {
            let mut idx: Vec<usize> = (0..k).collect();
            let mut out = vec![idx.clone()];
            while next_subset(&mut idx, n) {
                out.push(idx.clone());
            }
            out
        };
        assert_eq!(subsets(4, 1), vec![vec![0], vec![1], vec![2], vec![3]]);
        assert_eq!(
            subsets(4, 2),
            vec![vec![0, 1], vec![0, 2], vec![0, 3], vec![1, 2], vec![1, 3], vec![2, 3]]
        );
        assert_eq!(subsets(3, 3), vec![vec![0, 1, 2]]);
        assert_eq!(subsets(5, 3).len(), 10);
    }

    #[test]
    fn session_demands_aggregate_colocated_components() {
        let w = world();
        let mut paths = PathTable::new();
        let req = request();
        // c0 and c2 share peer 2; c1 sits alone on peer 4.
        let reg = custom_registry(&[(2, 0, 0.01), (4, 0, 0.01), (2, 1, 0.01)]);
        let (peers, _) =
            session_demands(&graph_of(&req, &[0, 2]), &req, &reg, &w.overlay, &mut paths);
        assert_eq!(peers, vec![(PeerId::new(2), ResourceVector::new(0.4, 64.0))]);
        let (peers, _) =
            session_demands(&graph_of(&req, &[1, 2]), &req, &reg, &w.overlay, &mut paths);
        let one = ResourceVector::new(0.2, 32.0);
        assert_eq!(peers, vec![(PeerId::new(2), one), (PeerId::new(4), one)], "ascending peer");
    }

    #[test]
    fn abandon_removes_session() {
        let mut w = world();
        let mut mgr = SessionManager::new(RecoveryConfig::default());
        let (id, _) = establish_one(&mut w, &mut mgr);
        mgr.abandon(id);
        assert!(mgr.session(id).is_none());
    }

    /// A registry where one function's replica sits on a chosen peer and
    /// with chosen failure probabilities: `spec` lists `(peer, function,
    /// failure_prob)` per component, ids assigned in order.
    fn custom_registry(spec: &[(u64, u64, f64)]) -> Registry {
        let mut catalog = FunctionCatalog::new();
        catalog.intern("fn-0");
        catalog.intern("fn-1");
        let mut reg = Registry::new(catalog);
        for &(peer, function, failure_prob) in spec {
            reg.add(ServiceComponent {
                id: ComponentId::new(0),
                peer: PeerId::new(peer),
                function: FunctionId::new(function),
                perf_qos: QosVector::from_values(vec![10.0, 0.01]),
                resources: ResourceVector::new(0.2, 32.0),
                out_bandwidth_mbps: 1.0,
                failure_prob,
            });
        }
        reg
    }

    fn graph_of(req: &CompositionRequest, comps: &[u64]) -> ServiceGraph {
        ServiceGraph::new(
            req.source,
            req.dest,
            FunctionGraph::linear(2),
            comps.iter().map(|&c| ComponentId::new(c)).collect(),
        )
    }

    fn dummy_eval(cost: f64, failure_prob: f64) -> GraphEval {
        GraphEval {
            qos: QosVector::from_values(vec![50.0, 0.02]),
            cost,
            failure_prob,
            fits_resources: true,
        }
    }

    #[test]
    fn nan_failure_prob_does_not_panic_and_ranks_as_bottleneck() {
        // Regression: `select_backups` used `partial_cmp().expect(...)` on
        // failure probabilities and panicked on a NaN replica. With
        // `total_cmp`, the NaN component sorts as the worst bottleneck and
        // selection proceeds.
        let req = request();
        let reg = custom_registry(&[
            (2, 0, f64::NAN), // c0: poisoned replica
            (3, 0, 0.02),     // c1
            (4, 1, 0.01),     // c2
            (5, 1, 0.03),     // c3
        ]);
        let primary = graph_of(&req, &[0, 2]);
        let pool = vec![
            (graph_of(&req, &[1, 2]), dummy_eval(1.0, 0.03)), // excludes c0
            (graph_of(&req, &[0, 3]), dummy_eval(1.1, f64::NAN)), // still has c0
            (graph_of(&req, &[1, 3]), dummy_eval(1.2, 0.05)), // excludes c0
        ];
        let selected = select_backups(&primary, &pool, 2, &reg, 3);
        assert!(!selected.is_empty());
        // The NaN component is the first bottleneck covered, so the first
        // backup must exclude it.
        assert!(!pool[selected[0]].0.contains_component(ComponentId::new(0)));
    }

    #[test]
    fn nan_cost_eval_is_a_recoverable_error() {
        let mut w = world();
        let mut mgr = SessionManager::new(RecoveryConfig::default());
        let req = request();
        let mut cands = all_candidates(&mut w, &req);
        let (primary, _) = cands.remove(0);
        let poisoned = dummy_eval(f64::NAN, 0.02);
        let err = mgr.establish(
            req,
            primary,
            poisoned,
            cands,
            &w.reg,
            &w.overlay,
            &mut w.paths,
            &mut w.state,
        );
        assert!(matches!(err, Err(Error::InvalidRequirement(_))), "got {err:?}");
        assert!(mgr.is_empty(), "poisoned session was registered");
        // A NaN-cost candidate in a cost-ordered list sorts last under
        // total_cmp — it can never displace a finite best.
        let mut costs = [3.0, f64::NAN, 1.0];
        costs.sort_by(f64::total_cmp);
        assert_eq!(costs[0], 1.0);
        assert!(costs[2].is_nan());
    }

    #[test]
    fn backup_count_edge_cases() {
        let req = request(); // bounds: delay 400ms, loss 0.05, failure 0.08
        let eval = GraphEval {
            qos: QosVector::from_values(vec![200.0, 0.025]), // usage 1.0
            cost: 1.0,
            failure_prob: 0.04, // term 0.5 → terms total 1.5
            fits_resources: true,
        };
        // γ capped by U: floor(U · 1.5).
        assert_eq!(backup_count(&eval, &req, 1.0, 100), 1);
        assert_eq!(backup_count(&eval, &req, 0.5, 100), 0);
        assert_eq!(backup_count(&eval, &req, 10.0, 100), 15);
        // γ capped by C−1, including the degenerate pools.
        assert_eq!(backup_count(&eval, &req, 10.0, 4), 3);
        assert_eq!(backup_count(&eval, &req, 10.0, 1), 0); // pool empty: C = 1
        assert_eq!(backup_count(&eval, &req, 10.0, 0), 0); // no qualified graphs
        // Zero pool selects nothing regardless of γ.
        let reg = custom_registry(&[(2, 0, 0.01), (4, 1, 0.01)]);
        let primary = graph_of(&req, &[0, 1]);
        assert!(select_backups(&primary, &[], 5, &reg, 3).is_empty());
    }

    #[test]
    fn bottleneck_ties_break_toward_lower_component_id() {
        // Primary components c0 and c2 tie on failure probability; the
        // selector's deterministic tie-break covers the lower id first, so
        // with γ = 1 the single backup must exclude c0 (not c2).
        let req = request();
        let reg = custom_registry(&[
            (2, 0, 0.05), // c0
            (3, 0, 0.01), // c1
            (4, 1, 0.05), // c2 — ties with c0
            (5, 1, 0.01), // c3
        ]);
        let primary = graph_of(&req, &[0, 2]);
        let pool = vec![
            (graph_of(&req, &[1, 2]), dummy_eval(1.0, 0.06)), // excludes c0
            (graph_of(&req, &[0, 3]), dummy_eval(1.1, 0.06)), // excludes c2
        ];
        let selected = select_backups(&primary, &pool, 1, &reg, 3);
        assert_eq!(selected, vec![0], "tie must cover the lower component id first");
    }

    #[test]
    fn switch_never_lands_on_backup_containing_the_failed_peer() {
        // Regression: peer 2 hosts components of *both* functions (c0 for
        // fn-0 and c2 for fn-1). A backup that excludes the broken primary
        // component c0 can still ride on peer 2 via c2. If the overlay's
        // liveness view lags the failure notification (state not yet
        // updated — exactly what happens with asynchronous detection), the
        // per-component alive check passes and the session would switch
        // onto a graph containing the dead peer.
        let mut w = world();
        let reg = custom_registry(&[
            (2, 0, 0.01), // c0 on peer 2
            (4, 0, 0.01), // c1
            (2, 1, 0.01), // c2 on peer 2 as well
            (5, 1, 0.05), // c3 — bottleneck
        ]);
        let req = request();
        let primary = graph_of(&req, &[0, 3]);
        let eval = evaluate(&primary, &req, &reg, &w.overlay, &w.state, &mut w.paths);
        let pool: Vec<(ServiceGraph, GraphEval)> = [vec![1u64, 2], vec![1, 3]]
            .iter()
            .map(|comps| {
                let g = graph_of(&req, comps);
                let e = evaluate(&g, &req, &reg, &w.overlay, &w.state, &mut w.paths);
                (g, e)
            })
            .collect();
        let mut mgr = SessionManager::new(RecoveryConfig {
            backup_upper_bound: 50.0, // γ caps at C−1 = 2: both pool graphs become backups
            ..RecoveryConfig::default()
        });
        let id = mgr
            .establish(req, primary, eval, pool, &reg, &w.overlay, &mut w.paths, &mut w.state)
            .unwrap();
        // Bottleneck-first selection puts the peer-2-carrying backup
        // [c1, c2] at rank 0 — the trap is armed.
        let s = mgr.session(id).unwrap();
        assert_eq!(s.backups.len(), 2);
        assert!(s.backups[0].0.contains_peer(PeerId::new(2), &reg));
        // Peer 2 dies, but the state's liveness view lags (no fail_peer).
        let outcomes = mgr.handle_peer_failure(
            PeerId::new(2),
            &reg,
            &w.overlay,
            &mut w.paths,
            &mut w.state,
            &mut Instruments::new(),
        );
        assert_eq!(outcomes.len(), 1);
        assert!(matches!(outcomes[0].1, FailureOutcome::RecoveredByBackup { .. }));
        let s = mgr.session(id).unwrap();
        assert!(
            !s.primary.contains_peer(PeerId::new(2), &reg),
            "switched onto a graph containing the dead peer"
        );
    }
}
