//! Bounded Composition Probing (paper §4).
//!
//! Given a composite service request, the source spawns *probes* that walk
//! candidate service graphs hop by hop. A probing budget β caps the total
//! number of probes a request may use; per-function probing quotas α_k
//! steer how the budget is divided among next-hop functions. Each hop
//! (§4.2):
//!
//! 1. checks the accumulated QoS against the user's bounds and drops the
//!    probe on violation;
//! 2. *soft-allocates* the component's resources so concurrent probes
//!    cannot jointly over-admit (reservations expire unless confirmed);
//! 3. derives next-hop functions (the composition-pattern successor — the
//!    source pre-enumerates commutation orders into patterns, see
//!    [`crate::model::function_graph::FunctionGraph::patterns`]);
//! 4. selects up to `I_k = min(β_k, α_k)` next-hop replicas by a composite
//!    local metric (network delay, failure probability, load) and spawns
//!    child probes with budget ⌊β_k / I_k⌋.
//!
//! The destination merges branch probes into complete service graphs,
//! filters by the user's requirements, and returns the ψ-optimal qualified
//! graph plus the remaining qualified graphs for backup selection.

use crate::model::component::Registry;
use crate::model::function_graph::FunctionGraph;
use crate::model::request::CompositionRequest;
use crate::model::service_graph::{GraphEval, ServiceGraph};
use crate::paths::PathTable;
use crate::selection::{
    evaluate_with, is_qualified, merge_branches, select_best, select_best_by, GraphEvalScratch,
    LiveLegs, PatternShape, SelectionPolicy,
};
use crate::state::{OverlayState, SoftToken};
use crate::trust::{Marketplace, TrustManager};
use spidernet_dht::{PastryNetwork, ServiceDirectory, ServiceMeta};
use spidernet_sim::metrics::{counter, Instruments};
use spidernet_sim::time::{SimDuration, SimTime};
use spidernet_sim::trace::{DropReason, TraceEvent};
use spidernet_topology::Overlay;
use spidernet_util::error::{Error, Result};
use spidernet_util::hash::{FxHashMap, FxHashSet};
use spidernet_util::id::{ComponentId, FunctionId, PeerId};
use spidernet_util::qos::{dim, QosVector};
use std::sync::Arc;

/// How probing quota α_k is assigned per function.
#[derive(Clone, Copy, Debug)]
pub enum QuotaPolicy {
    /// The same quota for every function.
    Uniform(u32),
    /// α_k = ⌈fraction · Z_k⌉ — more replicas, more quota (the paper's
    /// differentiated allocation).
    ReplicaFraction(f64),
}

impl QuotaPolicy {
    fn quota(&self, replicas: usize) -> u32 {
        match *self {
            QuotaPolicy::Uniform(a) => a.max(1),
            QuotaPolicy::ReplicaFraction(f) => ((replicas as f64 * f).ceil() as u32).max(1),
        }
    }
}

/// How probes learn the replica lists of next-hop functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookupMode {
    /// The source resolves every function once before probing and attaches
    /// the lists to the probe. Metadata is static, so this is
    /// behaviour-preserving; it matches the prototype's phase split where
    /// "service discovery time" is measured separately from composition
    /// (Fig. 10).
    Prefetch,
    /// Every hop re-queries the DHT, as §4.2 step 2.3 describes literally;
    /// costs extra DHT messages and latency per hop.
    PerHop,
}

/// Soft-reservation lifetime (cancelled earlier at selection).
const SOFT_TTL: SimDuration = SimDuration::from_secs(10);
/// Weight of normalized next-hop network delay in the composite next-hop
/// selection metric.
const W_DELAY: f64 = 0.5;
/// Weight of the candidate's failure probability in the next-hop metric.
const W_FAILURE: f64 = 0.25;
/// Weight of the candidate peer's current load in the next-hop metric.
const W_LOAD: f64 = 0.25;
/// Fixed per-hop probe processing delay, ms.
const HOP_PROCESSING_MS: f64 = 1.0;

/// BCP tuning knobs.
///
/// Construct via [`BcpConfig::builder`] (the struct is `#[non_exhaustive]`
/// so downstream crates stay source-compatible when knobs are added).
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct BcpConfig {
    /// Probing budget β: total probes a request may use.
    pub budget: u32,
    /// Per-function quota policy (α).
    pub quota: QuotaPolicy,
    /// Cap on merged complete graphs per pattern (cartesian guard).
    pub merge_cap: usize,
    /// Replica-list resolution strategy.
    pub lookup: LookupMode,
    /// Weight of `(1 − trust)` in the next-hop metric. 0 disables the
    /// trust extension (paper §8 future work) entirely.
    pub w_trust: f64,
    /// Per-peer load-shedding threshold ψ on CPU utilization
    /// (committed + soft, as a fraction of capacity). Replicas on peers
    /// at or above the threshold are dropped from the qualified pool
    /// before any probe is spent on them; a function whose entire pool is
    /// shed rejects the request with [`Error::AdmissionRejected`] instead
    /// of probing doomed candidates. `1.0` (the default) disables
    /// shedding entirely.
    pub shed_utilization: f64,
    /// How the qualified candidate pool is ranked at selection time
    /// (paper ψ, marketplace bids, deterministic random, or greedy
    /// delay). Probing and qualification are identical across policies.
    pub selection_policy: SelectionPolicy,
}

impl Default for BcpConfig {
    fn default() -> Self {
        BcpConfig {
            budget: 16,
            quota: QuotaPolicy::Uniform(4),
            merge_cap: 64,
            lookup: LookupMode::Prefetch,
            w_trust: 0.0,
            shed_utilization: 1.0,
            selection_policy: SelectionPolicy::Paper,
        }
    }
}

impl BcpConfig {
    /// A builder seeded with the defaults.
    pub fn builder() -> BcpConfigBuilder {
        BcpConfigBuilder { cfg: BcpConfig::default() }
    }

    /// True when the next-hop metric carries a trust term, i.e. for any
    /// non-zero [`BcpConfig::w_trust`]. Pool builds read trust only then,
    /// and the compose cache keys on the trust epoch only then.
    pub fn weighs_trust(&self) -> bool {
        self.w_trust != 0.0
    }
}

/// Builder for [`BcpConfig`]; every setter defaults to the paper's values.
#[derive(Clone, Debug)]
pub struct BcpConfigBuilder {
    cfg: BcpConfig,
}

impl BcpConfigBuilder {
    /// Probing budget β.
    pub fn budget(mut self, budget: u32) -> Self {
        self.cfg.budget = budget;
        self
    }

    /// Per-function quota policy (α).
    pub fn quota(mut self, quota: QuotaPolicy) -> Self {
        self.cfg.quota = quota;
        self
    }

    /// Cap on merged complete graphs per pattern.
    pub fn merge_cap(mut self, cap: usize) -> Self {
        self.cfg.merge_cap = cap;
        self
    }

    /// Replica-list resolution strategy.
    pub fn lookup(mut self, mode: LookupMode) -> Self {
        self.cfg.lookup = mode;
        self
    }

    /// Per-peer ψ load-shedding threshold (`1.0` disables).
    pub fn shed_utilization(mut self, psi: f64) -> Self {
        self.cfg.shed_utilization = psi;
        self
    }

    /// Selection-time ranking policy for the qualified pool.
    pub fn selection_policy(mut self, policy: SelectionPolicy) -> Self {
        self.cfg.selection_policy = policy;
        self
    }

    /// Finishes the configuration, validating knobs whose bad values
    /// would silently corrupt protocol behaviour rather than merely
    /// perform badly.
    pub fn try_build(self) -> Result<BcpConfig> {
        if self.cfg.merge_cap == 0 {
            return Err(Error::InvalidConfig("merge cap must be ≥ 1".into()));
        }
        if !self.cfg.shed_utilization.is_finite()
            || self.cfg.shed_utilization <= 0.0
            || self.cfg.shed_utilization > 1.0
        {
            return Err(Error::InvalidConfig(format!(
                "shed_utilization must be in (0, 1], got {}",
                self.cfg.shed_utilization
            )));
        }
        Ok(self.cfg)
    }

    /// Finishes the configuration, panicking on invalid knobs — the
    /// ergonomic path for literals known good at the call site; use
    /// [`BcpConfigBuilder::try_build`] for values from user input.
    pub fn build(self) -> BcpConfig {
        self.try_build().expect("invalid BcpConfig")
    }
}

/// Counters and timings of one BCP run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BcpStats {
    /// Probe transmissions (per-hop messages).
    pub probes_sent: u64,
    /// DHT lookup queries issued.
    pub dht_lookups: u64,
    /// DHT routing messages (hops) those lookups cost.
    pub dht_messages: u64,
    /// Probes that reached the destination.
    pub complete_probes: u64,
    /// Probes dropped for QoS violation.
    pub dropped_qos: u64,
    /// Probes dropped by soft-allocation admission.
    pub dropped_admission: u64,
    /// Replicas excluded from qualified pools by ψ load shedding (never
    /// probed at all, unlike `dropped_admission`).
    pub shed_candidates: u64,
    /// Complete candidate service graphs examined at the destination.
    pub candidates_examined: u64,
    /// Wall-clock (virtual) time of the discovery phase, ms.
    pub discovery_ms: f64,
    /// Wall-clock (virtual) time of the probing phase: the latest probe
    /// arrival at the destination, ms.
    pub probing_ms: f64,
}

/// A successful composition.
#[derive(Clone, Debug)]
pub struct CompositionOutcome {
    /// The ψ-optimal qualified service graph.
    pub best: ServiceGraph,
    /// Its evaluation.
    pub eval: GraphEval,
    /// Other qualified graphs, cost-ordered — the pool backup selection
    /// draws from (paper §5). `C` = `1 + qualified_pool.len()`.
    pub qualified_pool: Vec<(ServiceGraph, GraphEval)>,
    /// Protocol accounting.
    pub stats: BcpStats,
}

/// One live, unshed replica of a function, prefiltered once per
/// [`BcpEngine::compose`] so per-hop ranking recomputes only what actually
/// varies with the probe's position: distance and load.
#[derive(Clone)]
struct PoolEntry {
    cid: ComponentId,
    peer: PeerId,
    /// Hop-invariant part of the next-hop metric:
    /// `W_FAILURE · p_fail + w_trust · (1 − trust)`.
    static_score: f64,
}

/// The qualified-replica pool of one function.
#[derive(Clone)]
struct FunctionPool {
    /// Directory list length, dead replicas included — quota α_k follows
    /// the advertised replication degree Z_k, not momentary liveness.
    raw_len: usize,
    entries: Vec<PoolEntry>,
    /// Replicas dropped by ψ load shedding when the pool was built.
    shed: u64,
    /// First shed peer — the rejecting peer named by
    /// [`Error::AdmissionRejected`] when shedding empties the pool.
    shed_peer: Option<PeerId>,
}

/// One function's memoized discovery result: the qualified pool plus the
/// DHT cost the lookup originally paid, replayed on every hit so setup
/// accounting stays bit-identical with the uncached path.
#[derive(Clone)]
struct CachedLookup {
    /// DHT routing messages the lookup cost (query hops + reply).
    messages: u64,
    /// Lookup round-trip, ms (discovery runs lookups in parallel, so the
    /// phase lasts as long as the slowest round trip).
    rtt_ms: f64,
}

/// Epoch-invalidated memo of per-function DHT lookups and
/// qualified-replica pools, shared by every compose against a standing
/// world (enable via `SpiderNet::set_compose_caching`).
///
/// Validity is keyed on a *world epoch* (churn, component registration,
/// ψ-watermark crossings of the resource state), a *trust epoch*
/// (consulted only when the active config weights trust — the default
/// config does not, so routine trust feedback never flushes the memo),
/// and the config knobs baked into pool entries. Any mismatch flushes
/// the whole memo and counts one invalidation.
#[derive(Clone)]
pub struct ComposeCache {
    epoch: u64,
    trust_epoch: u64,
    /// Bit patterns of (w_trust, shed_utilization): the knobs that shape
    /// pool membership and static scores.
    fingerprint: [u64; 2],
    /// Qualified-replica pools, keyed by function alone — pool membership
    /// (liveness, ψ shedding, static scores) does not depend on who is
    /// asking.
    pools: FxHashMap<FunctionId, Arc<FunctionPool>>,
    /// Recorded DHT lookup costs, keyed by (requesting peer, function) —
    /// the route and therefore the hop count and round trip DO depend on
    /// the source, so replaying another peer's cost would skew the
    /// per-request discovery latency.
    lookups: FxHashMap<(PeerId, FunctionId), CachedLookup>,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl Default for ComposeCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ComposeCache {
    /// An empty cache at epoch zero.
    pub fn new() -> Self {
        ComposeCache {
            epoch: 0,
            trust_epoch: 0,
            fingerprint: [0; 2],
            pools: FxHashMap::default(),
            lookups: FxHashMap::default(),
            hits: 0,
            misses: 0,
            invalidations: 0,
        }
    }

    fn config_fingerprint(cfg: &BcpConfig) -> [u64; 2] {
        [cfg.w_trust.to_bits(), cfg.shed_utilization.to_bits()]
    }

    /// Flushes the memo if the world moved under it: epoch or config
    /// mismatch, or — when `cfg` weights trust — a trust-table change.
    /// Call once per compose, before the engine runs.
    pub fn ensure_current(&mut self, epoch: u64, trust_epoch: u64, cfg: &BcpConfig) {
        let fingerprint = Self::config_fingerprint(cfg);
        let stale = epoch != self.epoch
            || fingerprint != self.fingerprint
            || (cfg.weighs_trust() && trust_epoch != self.trust_epoch);
        if stale {
            if !self.pools.is_empty() || !self.lookups.is_empty() {
                self.invalidations += 1;
            }
            self.pools.clear();
            self.lookups.clear();
            self.epoch = epoch;
            self.trust_epoch = trust_epoch;
            self.fingerprint = fingerprint;
        }
    }

    /// Lookups served from the memo.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that went to the DHT (and populated the memo).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Whole-memo flushes caused by epoch/config drift.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Functions whose qualified pools are currently memoized.
    pub fn len(&self) -> usize {
        self.pools.len()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.pools.is_empty()
    }
}

/// Reusable per-worker scratch for the compose hot path: the graph
/// evaluation workspace, the probe walk's assignment/undo/ranking
/// buffers, and the per-compose books — the discovered pools, this
/// request's soft reservations, the pattern's shape, its complete probes
/// and their merged assignments. A standing world serving thousands of
/// requests hands the same scratch to every compose, so a compose
/// allocates little beyond what its outcome keeps (each qualified
/// candidate's assignment and QoS vector, one shared pattern, the candidate
/// list): the QoS vector of a candidate that fails to qualify, and what
/// discovery does on a compose-cache miss. `tests/alloc_budget.rs` pins
/// the count.
#[derive(Default)]
pub struct ComposeScratch {
    eval: GraphEvalScratch,
    walk: WalkBuffers,
    /// Each requested function's qualified pool.
    pools: FxHashMap<FunctionId, Arc<FunctionPool>>,
    /// Components this request holds a soft reservation on, per pattern.
    reserved: FxHashSet<ComponentId>,
    /// Those reservations.
    tokens: Vec<SoftToken>,
    /// The shape of the pattern being probed.
    shape: PatternShape,
    /// Each branch's complete probes, `(node, component)` pairs back to
    /// back, one branch length per probe.
    per_branch: Vec<Vec<(usize, ComponentId)>>,
    /// The pattern's merged assignments, one pattern length each.
    merged: Vec<ComponentId>,
}

/// The probe walk's in-place buffers, reused across branches.
#[derive(Default)]
struct WalkBuffers {
    assign: Vec<(usize, ComponentId)>,
    qos: QosVector,
    qos_undo: Vec<f64>,
    depth: Vec<Vec<(f64, f64, ComponentId, PeerId)>>,
}

impl Clone for ComposeScratch {
    /// Scratch content is transient garbage between composes; cloning a
    /// world starts the copy with fresh (empty) buffers.
    fn clone(&self) -> Self {
        ComposeScratch::default()
    }
}

/// In-place state of one branch probe walk. Each hop pushes its
/// contribution and undoes it on backtrack; a probe that reaches the
/// destination appends its assignment to the branch's complete probes.
struct ProbeState<'s> {
    /// Partial assignment `(node, component)` along the current walk.
    assign: Vec<(usize, ComponentId)>,
    /// Accumulated QoS of the walk, mutated in place.
    qos: QosVector,
    /// Saved QoS snapshots for undo, one `dims()`-sized slab per live hop
    /// (floating-point addition has no exact inverse, so undo restores
    /// the saved values rather than subtracting).
    qos_undo: Vec<f64>,
    /// Per-depth candidate scratch `(delay, score, component, peer)`,
    /// reused across sibling subtrees.
    scratch: Vec<Vec<(f64, f64, ComponentId, PeerId)>>,
    /// Assignments of the probes that reached the destination, back to
    /// back.
    complete: &'s mut Vec<(usize, ComponentId)>,
    /// The latest arrival at the destination, ms.
    latest_ms: f64,
}

/// Borrowed world context for one BCP execution.
pub struct BcpEngine<'a> {
    /// The service overlay.
    pub overlay: &'a Overlay,
    /// Component ground truth (accessed via discovery results and
    /// peer-local reads).
    pub reg: &'a Registry,
    /// The Pastry substrate for discovery routing.
    pub pastry: &'a PastryNetwork,
    /// The replica directory.
    pub directory: &'a ServiceDirectory,
    /// Live resource state.
    pub state: &'a mut OverlayState,
    /// Shortest-path cache.
    pub paths: &'a mut PathTable,
    /// Observability bundle: metrics registry, resolved handles, trace ring.
    pub obs: &'a mut Instruments,
    /// Session id trace/session-scoped events are attributed to.
    pub session: u64,
    /// Current virtual time (for soft-reservation expiry).
    pub now: SimTime,
    /// Trust tables, when the trust extension is active.
    pub trust: Option<&'a TrustManager>,
    /// Per-function discovery/pool memo. The caller is responsible for
    /// epoch validation ([`ComposeCache::ensure_current`]) before the
    /// engine runs; `None` composes full price.
    pub cache: Option<&'a mut ComposeCache>,
    /// Reusable compose scratch; `None` allocates a private one per call.
    pub scratch: Option<&'a mut ComposeScratch>,
}

/// Prefilters one function's directory list into its qualified pool:
/// liveness and — when ψ shedding is active — load.
/// Quota α_k still follows the raw (advertised) replication degree Z_k,
/// so the pool remembers the list length it was built from. (A free
/// function rather than a method so the engine can build pools while its
/// compose cache is mutably borrowed.)
fn build_pool(
    reg: &Registry,
    state: &OverlayState,
    trust: Option<&TrustManager>,
    metas: &[ServiceMeta],
    cfg: &BcpConfig,
) -> FunctionPool {
    let mut shed = 0u64;
    let mut shed_peer = None;
    let mut entries = Vec::with_capacity(metas.len());
    entries.extend(metas.iter().filter_map(|m| {
        let comp = reg.get(m.component);
        if !state.is_alive(comp.peer) {
            return None;
        }
        if cfg.shed_utilization < 1.0 && state.cpu_utilization(comp.peer) >= cfg.shed_utilization
        {
            shed += 1;
            shed_peer.get_or_insert(comp.peer);
            return None; // ψ-saturated hosts are shed, not probed
        }
        // Unweighted, the term is +0.0 whatever the trust: skip the walk
        // over every observer of the host.
        let trust_term = if cfg.weighs_trust() {
            let trust = trust.map(|t| t.aggregate_trust(comp.peer)).unwrap_or(0.5);
            cfg.w_trust * (1.0 - trust)
        } else {
            0.0
        };
        let static_score = W_FAILURE * comp.failure_prob + trust_term;
        Some(PoolEntry { cid: m.component, peer: comp.peer, static_score })
    }));
    FunctionPool { raw_len: metas.len(), entries, shed, shed_peer }
}

impl BcpEngine<'_> {
    /// Runs the full BCP protocol for `req`. Returns
    /// [`Error::NoQualifiedComposition`] when no candidate satisfies the
    /// requirements within the probing budget.
    pub fn compose(
        &mut self,
        req: &CompositionRequest,
        cfg: &BcpConfig,
    ) -> Result<CompositionOutcome> {
        req.validate()?;
        if cfg.budget == 0 {
            return Err(Error::InvalidConfig("probing budget must be ≥ 1".into()));
        }
        if cfg.merge_cap == 0 {
            return Err(Error::InvalidConfig("merge cap must be ≥ 1".into()));
        }
        // One scratch bundle for the whole compose (reused across composes
        // when the caller supplies one): per-request map/Vec churn costs
        // more than the protocol arithmetic itself.
        let mut owned = None;
        let mut lent = self.scratch.take();
        let arena = match lent.as_deref_mut() {
            Some(arena) => arena,
            None => owned.insert(ComposeScratch::default()),
        };
        let out = self.compose_in(req, cfg, arena);
        arena.pools.clear();
        self.scratch = lent;
        out
    }

    /// [`BcpEngine::compose`] over `arena`'s buffers.
    fn compose_in(
        &mut self,
        req: &CompositionRequest,
        cfg: &BcpConfig,
        arena: &mut ComposeScratch,
    ) -> Result<CompositionOutcome> {
        let mut stats = BcpStats::default();
        let ComposeScratch { eval, walk, pools, reserved, tokens, shape, per_branch, merged } =
            arena;

        // --- Discovery phase: resolve replica lists into pools ---------
        // Each distinct function costs one DHT lookup plus one pool
        // prefilter pass (liveness and ψ shedding, neither of which
        // changes mid-compose, so the per-hop ranking loop recomputes
        // only distance and load). With a cache attached, both are
        // memoized across composes; hits replay the recorded DHT cost so
        // the per-request stats cannot tell the modes apart.
        pools.clear();
        let mut discovery_ms: f64 = 0.0;
        for &f in req.function_graph.functions() {
            if pools.contains_key(&f) {
                continue;
            }
            // A full hit needs the pool AND this source's recorded lookup
            // cost: pools are source-agnostic, but the DHT route (hops,
            // round trip) depends on who is asking, so another peer's cost
            // must not be replayed into this request's discovery latency.
            let mut cached: Option<Arc<FunctionPool>> = None;
            if let Some(cache) = self.cache.as_deref_mut() {
                if let Some(cost) = cache.lookups.get(&(req.source, f)) {
                    let pool = cache
                        .pools
                        .get(&f)
                        .expect("a recorded lookup implies a memoized pool");
                    cache.hits += 1;
                    stats.dht_lookups += 1;
                    stats.dht_messages += cost.messages;
                    self.obs.metrics.add(self.obs.counters.dht_messages, cost.messages);
                    discovery_ms = discovery_ms.max(cost.rtt_ms);
                    cached = Some(Arc::clone(pool));
                } else {
                    cache.misses += 1;
                }
            }
            let pool = match cached {
                Some(pool) => pool,
                None => {
                    let reg = self.reg;
                    let name = reg.catalog().name(f);
                    let directory = self.directory;
                    let mut transport =
                        |a: PeerId, b: PeerId| self.paths.delay(self.overlay, a, b);
                    let (metas, route) = directory
                        .lookup(self.pastry, req.source, name, &mut transport, &mut self.obs.trace)
                        .ok_or_else(|| Error::Network("source is not a DHT member".into()))?;
                    let messages = route.hops() as u64 + 1; // query hops + reply
                    stats.dht_lookups += 1;
                    stats.dht_messages += messages;
                    self.obs.metrics.add(self.obs.counters.dht_messages, messages);
                    // Lookups run in parallel; the phase lasts as long as
                    // the slowest round trip.
                    let rtt = 2.0 * route.latency_ms;
                    discovery_ms = discovery_ms.max(rtt);
                    if metas.is_empty() {
                        return Err(Error::UnknownFunction(name.to_owned()));
                    }
                    match self.cache.as_deref_mut() {
                        Some(cache) => {
                            cache.lookups.insert(
                                (req.source, f),
                                CachedLookup { messages, rtt_ms: rtt },
                            );
                            // A second source missing on its lookup cost
                            // still reuses the function's memoized pool —
                            // `build_pool` is the O(replicas) part.
                            match cache.pools.get(&f) {
                                Some(pool) => Arc::clone(pool),
                                None => {
                                    let pool = Arc::new(build_pool(
                                        self.reg, self.state, self.trust, metas, cfg,
                                    ));
                                    cache.pools.insert(f, Arc::clone(&pool));
                                    pool
                                }
                            }
                        }
                        None => Arc::new(build_pool(self.reg, self.state, self.trust, metas, cfg)),
                    }
                }
            };
            if pool.shed > 0 {
                stats.shed_candidates += pool.shed;
                let c = self.obs.metrics.counter(counter::LOAD_SHED);
                self.obs.metrics.add(c, pool.shed);
            }
            if pool.entries.is_empty() && pool.shed > 0 {
                // Every surviving replica of this function sits at or
                // above ψ: reject up front rather than probing doomed
                // candidates.
                let peer = pool.shed_peer.expect("shed pool has a shed peer");
                return Err(Error::AdmissionRejected { peer: peer.raw() });
            }
            pools.insert(f, pool);
        }
        stats.discovery_ms = discovery_ms;

        // --- Probing phase ---------------------------------------------
        let patterns = req.function_graph.patterns();
        let per_pattern_budget = (cfg.budget / patterns.len() as u32).max(1);
        let mut candidates: Vec<(ServiceGraph, GraphEval)> = Vec::new();
        for pattern in patterns.iter() {
            shape.refill(pattern);
            let branches = shape.branches.len();
            let per_branch_budget = (per_pattern_budget / branches as u32).max(1);
            if per_branch.len() < branches {
                per_branch.resize_with(branches, Vec::new);
            }
            let mut probing_ms: f64 = 0.0;
            // Soft reservations are per *expected session*, not per probe:
            // a peer recognizes repeat probes of the same request for the
            // same component and shares the reservation (paper §4.2 step
            // 2.1 reserves for "the expected application session").
            reserved.clear();
            for (branch, complete) in shape.branches.iter().zip(per_branch.iter_mut()) {
                complete.clear();
                let latest_ms = self.probe_branch(
                    req,
                    cfg,
                    pattern,
                    branch,
                    per_branch_budget,
                    pools,
                    &mut stats,
                    tokens,
                    reserved,
                    walk,
                    complete,
                );
                probing_ms = probing_ms.max(latest_ms);
            }
            stats.probing_ms = stats.probing_ms.max(probing_ms);

            // Destination-side merge into complete service graphs.
            let probes = &per_branch[..branches];
            merge_branches(pattern, &shape.branches, probes, cfg.merge_cap, merged);
            let n = pattern.len();
            stats.candidates_examined += (merged.len() / n) as u64;

            // Release this request's own reservations before evaluating so
            // availability reflects *other* traffic only (sequential
            // processing makes release-then-commit atomic; the reservations
            // already did their job gating admission during probing).
            for t in tokens.drain(..) {
                self.state.release_soft(t, &mut self.obs.trace);
            }

            candidates.reserve(merged.len() / n);
            let state = &*self.state;
            let mut legs = LiveLegs::new(self.overlay, state, self.paths);
            // One shared copy of the pattern for all of its qualified
            // candidates, made on the first.
            let mut shared: Option<Arc<FunctionGraph>> = None;
            for assignment in merged.chunks_exact(n) {
                let eval = evaluate_with(
                    req.source,
                    req.dest,
                    assignment,
                    shape,
                    req,
                    self.reg,
                    state,
                    &mut legs,
                    eval,
                );
                if is_qualified(&eval, req) {
                    let pattern = shared.get_or_insert_with(|| Arc::new(pattern.clone()));
                    let graph = ServiceGraph::new(
                        req.source,
                        req.dest,
                        Arc::clone(pattern),
                        assignment.to_vec(),
                    );
                    candidates.push((graph, eval));
                }
            }
        }

        // Any tokens from the last pattern iteration were drained above;
        // drain again defensively in case of early exits.
        for t in tokens.drain(..) {
            self.state.release_soft(t, &mut self.obs.trace);
        }

        let selected = match cfg.selection_policy {
            SelectionPolicy::Paper => select_best(candidates),
            SelectionPolicy::Greedy => {
                select_best_by(candidates, |_, e| e.qos[dim::DELAY_MS])
            }
            SelectionPolicy::Random => {
                // Content-hashed score: deterministic for a given request
                // and candidate set, uncorrelated with any quality signal.
                let seed = spidernet_util::rng::splitmix64(
                    req.source.raw() ^ req.dest.raw().rotate_left(32),
                );
                select_best_by(candidates, move |g, _| {
                    let mut h = seed;
                    for &c in &g.assignment {
                        h = spidernet_util::rng::splitmix64(h ^ c.raw());
                    }
                    (h >> 11) as f64 / (1u64 << 53) as f64
                })
            }
            SelectionPolicy::Marketplace => {
                // Each hosting peer bids latency × residual capacity ×
                // delivery reputation; a graph is priced by its *worst*
                // seller (one congested or lying host sinks the whole
                // composition). Negated so lower score = higher bid.
                let fallback = Marketplace::default();
                let market = self.trust.map(|t| t.market()).unwrap_or(&fallback);
                let state = &mut *self.state;
                let reg = self.reg;
                select_best_by(candidates, move |g, e| {
                    let delay = e.qos[dim::DELAY_MS];
                    let mut bid = f64::INFINITY;
                    for &c in &g.assignment {
                        let peer = reg.get(c).peer;
                        let headroom = state.peer_headroom(peer);
                        bid = bid.min(market.bid(peer, delay, headroom));
                    }
                    if !bid.is_finite() {
                        bid = 0.0;
                    }
                    -bid
                })
            }
        };
        match selected {
            Some((best, eval, pool)) => Ok(CompositionOutcome {
                best,
                eval,
                qualified_pool: pool,
                stats,
            }),
            None => Err(Error::NoQualifiedComposition),
        }
    }

    /// Probes one branch path of one pattern, appending the assignment of
    /// every probe that reaches the destination to `complete`; returns the
    /// latest arrival, ms (0 when none arrives). The walk is depth-first
    /// with in-place push/undo state: leaves the engine (resource state
    /// aside — soft reservations are the protocol's job) exactly as it
    /// found it.
    #[allow(clippy::too_many_arguments)]
    fn probe_branch(
        &mut self,
        req: &CompositionRequest,
        cfg: &BcpConfig,
        pattern: &FunctionGraph,
        branch: &[usize],
        budget: u32,
        pools: &FxHashMap<FunctionId, Arc<FunctionPool>>,
        stats: &mut BcpStats,
        tokens: &mut Vec<SoftToken>,
        reserved: &mut FxHashSet<ComponentId>,
        walk: &mut WalkBuffers,
        complete: &mut Vec<(usize, ComponentId)>,
    ) -> f64 {
        let mut depth = std::mem::take(&mut walk.depth);
        while depth.len() < branch.len() {
            depth.push(Vec::new());
        }
        let mut qos = std::mem::take(&mut walk.qos);
        if qos.dims() == req.qos_req.dims() {
            qos.values_mut().fill(0.0);
        } else {
            qos = QosVector::zeros(req.qos_req.dims());
        }
        let mut st = ProbeState {
            assign: std::mem::take(&mut walk.assign),
            qos,
            qos_undo: std::mem::take(&mut walk.qos_undo),
            scratch: depth,
            complete,
            latest_ms: 0.0,
        };
        st.assign.clear();
        st.qos_undo.clear();
        self.probe_step(
            req, cfg, pattern, branch, pools, stats, tokens, reserved, &mut st, req.source, 0,
            budget, 0.0,
        );
        debug_assert!(
            st.assign.is_empty() && st.qos_undo.is_empty(),
            "probe push/undo imbalance"
        );
        debug_assert!(
            st.qos.values().iter().all(|&v| v == 0.0),
            "probe QoS accumulator not restored"
        );
        let ProbeState { assign, qos, qos_undo, scratch, latest_ms, .. } = st;
        walk.assign = assign;
        walk.qos = qos;
        walk.qos_undo = qos_undo;
        walk.depth = scratch;
        latest_ms
    }

    /// One hop of the depth-first branch walk: at `at_peer` having assigned
    /// `branch[..pos]`, spend `budget` probes on the next function.
    #[allow(clippy::too_many_arguments)]
    fn probe_step(
        &mut self,
        req: &CompositionRequest,
        cfg: &BcpConfig,
        pattern: &FunctionGraph,
        branch: &[usize],
        pools: &FxHashMap<FunctionId, Arc<FunctionPool>>,
        stats: &mut BcpStats,
        tokens: &mut Vec<SoftToken>,
        reserved: &mut FxHashSet<ComponentId>,
        st: &mut ProbeState,
        at_peer: PeerId,
        pos: usize,
        budget: u32,
        latency_ms: f64,
    ) {
        if pos == branch.len() {
            // Final leg to the destination.
            let tail = self.paths.delay(self.overlay, at_peer, req.dest);
            stats.probes_sent += 1;
            self.obs.metrics.incr(self.obs.counters.probes);
            self.obs.trace.record(TraceEvent::ProbeSpawned {
                session: self.session,
                depth: pos as u16,
                budget,
            });
            let saved = st.qos.values()[dim::DELAY_MS];
            st.qos.values_mut()[dim::DELAY_MS] += tail;
            if req.qos_req.is_satisfied_by(&st.qos) {
                stats.complete_probes += 1;
                st.complete.extend_from_slice(&st.assign);
                st.latest_ms = st.latest_ms.max(latency_ms + tail);
            } else {
                stats.dropped_qos += 1;
                self.obs.trace.record(TraceEvent::ProbeDropped {
                    session: self.session,
                    reason: DropReason::Qos,
                });
            }
            st.qos.values_mut()[dim::DELAY_MS] = saved;
            return;
        }

        let node = branch[pos];
        let function = pattern.function(node);
        let Some(pool) = pools.get(&function) else { return };

        // Per-hop DHT lookup mode: pay the lookup from the current peer.
        let mut lookup_latency = 0.0;
        if cfg.lookup == LookupMode::PerHop && pos > 0 {
            let reg = self.reg;
            let name = reg.catalog().name(function);
            let mut transport = |a: PeerId, b: PeerId| self.paths.delay(self.overlay, a, b);
            if let Some((_, route)) =
                self.directory.lookup(self.pastry, at_peer, name, &mut transport, &mut self.obs.trace)
            {
                stats.dht_lookups += 1;
                stats.dht_messages += route.hops() as u64 + 1;
                self.obs.metrics.add(self.obs.counters.dht_messages, route.hops() as u64 + 1);
                lookup_latency = 2.0 * route.latency_ms;
            }
        }

        // Rank the prefiltered pool by the composite next-hop metric —
        // liveness and trust were settled once per composition, so only
        // distance and load are recomputed here, into a per-depth scratch
        // buffer reused across sibling subtrees. One read of `at_peer`'s
        // row serves every candidate's delay.
        let mut scored = std::mem::take(&mut st.scratch[pos]);
        scored.clear();
        let mut max_delay: f64 = 0.0;
        let reads = pool.entries.iter().filter(|e| e.peer != at_peer).count() as u64;
        let delays = self.paths.delays_from(self.overlay, at_peer, reads);
        for e in &pool.entries {
            let d = delays.to(e.peer);
            if !d.is_finite() {
                continue;
            }
            max_delay = max_delay.max(d);
            scored.push((d, e.static_score, e.cid, e.peer));
        }
        for s in scored.iter_mut() {
            let load = self.state.cpu_load(s.3);
            let norm_delay = if max_delay > 0.0 { s.0 / max_delay } else { 0.0 };
            s.1 += W_DELAY * norm_delay + W_LOAD * load;
        }
        // Only the top I_k = min(β_k, α_k) candidates spawn probes, so a
        // full sort is wasted work when I_k ≪ Z: partition the top I_k
        // with select_nth, then sort just that prefix. The comparator is
        // a strict total order (`total_cmp` ranks a NaN score worst
        // instead of panicking; ties break on the unique component id),
        // so the selected set and its order are identical to a full
        // sort's.
        let cmp = |a: &(f64, f64, ComponentId, PeerId), b: &(f64, f64, ComponentId, PeerId)| {
            a.1.total_cmp(&b.1).then_with(|| a.2.cmp(&b.2))
        };
        let alpha = cfg.quota.quota(pool.raw_len);
        let i_k = (budget.min(alpha) as usize).min(scored.len());
        if i_k > 0 {
            if i_k < scored.len() {
                scored.select_nth_unstable_by(i_k - 1, cmp);
            }
            scored[..i_k].sort_by(cmp);
            let child_budget = (budget / i_k as u32).max(1);
            for &(link_delay, _, cid, peer) in scored.iter().take(i_k) {
                let comp = self.reg.get(cid);
                stats.probes_sent += 1;
                self.obs.metrics.incr(self.obs.counters.probes);
                self.obs.trace.record(TraceEvent::ProbeSpawned {
                    session: self.session,
                    depth: pos as u16,
                    budget: child_budget,
                });

                // Push this hop's QoS contribution in place, saving the
                // prior values for the undo below.
                let undo_base = st.qos_undo.len();
                st.qos_undo.extend_from_slice(st.qos.values());
                st.qos.values_mut()[dim::DELAY_MS] += link_delay;
                st.qos.accumulate(&comp.perf_qos);

                // QoS check and soft resource allocation (step 2.1) —
                // reservations are once per component per request; repeat
                // probes share them.
                let admitted = if !req.qos_req.is_satisfied_by(&st.qos) {
                    stats.dropped_qos += 1;
                    self.obs.trace.record(TraceEvent::ProbeDropped {
                        session: self.session,
                        reason: DropReason::Qos,
                    });
                    false
                } else if !reserved.contains(&cid) {
                    match self.state.soft_allocate(
                        peer,
                        comp.resources,
                        self.now + SOFT_TTL,
                        &mut self.obs.trace,
                    ) {
                        Ok(tok) => {
                            tokens.push(tok);
                            reserved.insert(cid);
                            true
                        }
                        Err(_) => {
                            stats.dropped_admission += 1;
                            self.obs.trace.record(TraceEvent::ProbeDropped {
                                session: self.session,
                                reason: DropReason::Admission,
                            });
                            false
                        }
                    }
                } else {
                    true
                };

                if admitted {
                    st.assign.push((node, cid));
                    self.probe_step(
                        req,
                        cfg,
                        pattern,
                        branch,
                        pools,
                        stats,
                        tokens,
                        reserved,
                        st,
                        peer,
                        pos + 1,
                        child_budget,
                        latency_ms + lookup_latency + link_delay + HOP_PROCESSING_MS,
                    );
                    st.assign.pop();
                }

                // Undo: restore the saved QoS values.
                let undo_len = st.qos_undo.len();
                st.qos.values_mut().copy_from_slice(&st.qos_undo[undo_base..undo_len]);
                st.qos_undo.truncate(undo_base);
            }
        }
        st.scratch[pos] = scored;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::component::{FunctionCatalog, ServiceComponent};
    use crate::model::function_graph::FunctionGraph;
    use spidernet_topology::inet::{generate_power_law, InetConfig};
    use spidernet_topology::overlay::{Overlay, OverlayConfig};
    use spidernet_util::qos::QosRequirement;
    use spidernet_util::res::ResourceVector;

    /// A self-contained world: 40 peers, `funcs` functions with `reps`
    /// replicas each on distinct peers.
    struct World {
        overlay: Overlay,
        reg: Registry,
        pastry: PastryNetwork,
        directory: ServiceDirectory,
        state: OverlayState,
        paths: PathTable,
        obs: Instruments,
    }

    fn world(funcs: u64, reps: u64) -> World {
        let ip = generate_power_law(&InetConfig { nodes: 200, ..InetConfig::default() }, 12);
        let overlay = Overlay::build(
            &ip,
            &OverlayConfig { peers: 40, neighbors: 5 },
            12,
        );
        let mut catalog = FunctionCatalog::new();
        for f in 0..funcs {
            catalog.intern(&format!("fn-{f}"));
        }
        let mut reg = Registry::new(catalog);
        let peers: Vec<PeerId> = overlay.peers().collect();
        let mut pt = PathTable::new();
        let mut prox = |a: PeerId, b: PeerId| pt.delay(&overlay, a, b);
        let pastry = PastryNetwork::build(&peers, &mut prox);
        let mut directory = ServiceDirectory::new();
        let mut paths = PathTable::new();
        // Replica r of function f on peer 2 + f*reps + r.
        for f in 0..funcs {
            for r in 0..reps {
                let peer = PeerId::new(2 + f * reps + r);
                let cid = reg.add(ServiceComponent {
                    id: ComponentId::new(0),
                    peer,
                    function: FunctionId::new(f),
                    perf_qos: QosVector::from_values(vec![10.0 + r as f64, 0.01]),
                    resources: ResourceVector::new(0.2, 32.0),
                    out_bandwidth_mbps: 1.0,
                    failure_prob: 0.01,
                });
                let mut transport = |a: PeerId, b: PeerId| paths.delay(&overlay, a, b);
                directory
                    .register(
                        &pastry,
                        &format!("fn-{f}"),
                        spidernet_dht::ServiceMeta { component: cid, peer, function: FunctionId::new(f) },
                        &mut transport,
                        &mut spidernet_sim::trace::TraceBuffer::new(),
                    )
                    .unwrap();
            }
        }
        let state = OverlayState::new(&overlay, ResourceVector::new(1.0, 256.0));
        World { overlay, reg, pastry, directory, state, paths, obs: Instruments::new() }
    }

    fn engine<'a>(w: &'a mut World) -> BcpEngine<'a> {
        BcpEngine {
            overlay: &w.overlay,
            reg: &w.reg,
            pastry: &w.pastry,
            directory: &w.directory,
            state: &mut w.state,
            paths: &mut w.paths,
            obs: &mut w.obs,
            session: 0,
            now: SimTime::ZERO,
            trust: None,
            cache: None,
            scratch: None,
        }
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
    fn composes_a_linear_chain() {
        let mut w = world(3, 3);
        let req = request(3);
        let out = engine(&mut w).compose(&req, &BcpConfig::default()).unwrap();
        assert_eq!(out.best.assignment.len(), 3);
        // Each assigned component provides the right function.
        for (i, &c) in out.best.assignment.iter().enumerate() {
            assert_eq!(w.reg.get(c).function, out.best.pattern.function(i));
            assert_eq!(out.best.pattern.function(i), FunctionId::new(i as u64));
        }
        assert!(out.stats.complete_probes >= 1);
        assert!(out.stats.discovery_ms > 0.0);
        assert!(out.stats.probing_ms > 0.0);
    }

    #[test]
    fn probe_count_respects_budget() {
        let mut w = world(3, 4);
        let req = request(3);
        for budget in [1u32, 2, 4, 8] {
            let cfg = BcpConfig {
                budget,
                quota: QuotaPolicy::Uniform(16),
                ..BcpConfig::default()
            };
            let out = engine(&mut w).compose(&req, &cfg).unwrap();
            // Complete end-to-end probes never exceed β.
            assert!(
                out.stats.complete_probes <= budget as u64,
                "budget {budget}: {} complete probes",
                out.stats.complete_probes
            );
        }
    }

    #[test]
    fn larger_budget_examines_no_fewer_candidates() {
        let mut w = world(2, 5);
        let req = request(2);
        let small = engine(&mut w)
            .compose(&req, &BcpConfig { budget: 1, ..BcpConfig::default() })
            .unwrap();
        let big = engine(&mut w)
            .compose(
                &req,
                &BcpConfig { budget: 32, quota: QuotaPolicy::Uniform(8), ..BcpConfig::default() },
            )
            .unwrap();
        assert!(big.stats.candidates_examined >= small.stats.candidates_examined);
        assert!(big.stats.probes_sent > small.stats.probes_sent);
    }

    #[test]
    fn no_replicas_is_unknown_function() {
        let mut w = world(2, 2);
        let mut req = request(2);
        // Reference a function that exists in the catalog but has no
        // registrations.
        w.reg.catalog_mut().intern("fn-ghost");
        let ghost = w.reg.catalog().lookup("fn-ghost").unwrap();
        req.function_graph = FunctionGraph::linear_of(&[FunctionId::new(0), ghost]);
        let err = engine(&mut w).compose(&req, &BcpConfig::default());
        assert!(matches!(err, Err(Error::UnknownFunction(_))));
    }

    #[test]
    fn impossible_qos_returns_no_qualified() {
        let mut w = world(2, 2);
        let mut req = request(2);
        req.qos_req = QosRequirement::new(vec![0.001, 10.0]).unwrap();
        let err = engine(&mut w).compose(&req, &BcpConfig::default());
        assert!(matches!(err, Err(Error::NoQualifiedComposition)));
    }

    #[test]
    fn dead_replicas_are_skipped() {
        let mut w = world(2, 2);
        // Kill one replica of function 0 (peer 2); the other (peer 3)
        // must carry the composition.
        w.state.fail_peer(PeerId::new(2));
        let req = request(2);
        let out = engine(&mut w).compose(&req, &BcpConfig::default()).unwrap();
        assert!(!out.best.contains_peer(PeerId::new(2), &w.reg));
    }

    #[test]
    fn all_replicas_dead_fails() {
        let mut w = world(2, 2);
        w.state.fail_peer(PeerId::new(2));
        w.state.fail_peer(PeerId::new(3));
        let err = engine(&mut w).compose(&request(2), &BcpConfig::default());
        assert!(matches!(err, Err(Error::NoQualifiedComposition)));
    }

    #[test]
    fn soft_reservations_are_all_released() {
        let mut w = world(3, 3);
        let req = request(3);
        let _ = engine(&mut w).compose(&req, &BcpConfig::default()).unwrap();
        assert_eq!(w.state.soft_count(), 0, "leaked soft reservations");
        for p in w.overlay.peers() {
            assert_eq!(w.state.available(p), w.state.capacity(p), "peer {p} not clean");
        }
    }

    #[test]
    fn exhausted_peers_reject_probes_via_admission() {
        let mut w = world(1, 1);
        // The only replica's peer has no headroom.
        let peer = w.reg.get(ComponentId::new(0)).peer;
        w.state.set_capacity(peer, ResourceVector::new(0.05, 1.0));
        let err = engine(&mut w).compose(&request(1), &BcpConfig::default());
        assert!(matches!(err, Err(Error::NoQualifiedComposition)));
    }

    #[test]
    fn dag_with_commutation_composes() {
        let mut w = world(4, 2);
        let mut req = request(4);
        // Diamond with commutable middle functions.
        req.function_graph = FunctionGraph::new(
            (0..4).map(FunctionId::new).collect(),
            vec![(0, 1), (0, 2), (1, 3), (2, 3)],
            vec![(1, 2)],
        )
        .unwrap();
        let cfg = BcpConfig { budget: 32, ..BcpConfig::default() };
        let out = engine(&mut w).compose(&req, &cfg).unwrap();
        assert_eq!(out.best.assignment.len(), 4);
        // Functions covered regardless of pattern chosen.
        let mut provided: Vec<u64> =
            out.best.assignment.iter().map(|&c| w.reg.get(c).function.raw()).collect();
        provided.sort_unstable();
        assert_eq!(provided, vec![0, 1, 2, 3]);
    }

    #[test]
    fn per_hop_lookup_costs_more_dht_messages() {
        let mut w = world(3, 3);
        let req = request(3);
        let pre = engine(&mut w)
            .compose(&req, &BcpConfig { lookup: LookupMode::Prefetch, ..BcpConfig::default() })
            .unwrap();
        let per = engine(&mut w)
            .compose(&req, &BcpConfig { lookup: LookupMode::PerHop, ..BcpConfig::default() })
            .unwrap();
        assert!(per.stats.dht_messages >= pre.stats.dht_messages);
        assert!(per.stats.dht_lookups >= pre.stats.dht_lookups);
    }

    #[test]
    fn zero_budget_is_invalid_config() {
        let mut w = world(1, 1);
        let err = engine(&mut w).compose(&request(1), &BcpConfig { budget: 0, ..BcpConfig::default() });
        assert!(matches!(err, Err(Error::InvalidConfig(_))));
    }

    #[test]
    fn zero_merge_cap_is_invalid_config() {
        // A zero cap merged one candidate per pattern anyway: its bound
        // was checked only after the first merged assignment.
        assert!(matches!(
            BcpConfig::builder().merge_cap(0).try_build(),
            Err(Error::InvalidConfig(_))
        ));
        assert!(BcpConfig::builder().merge_cap(1).try_build().is_ok());
        let mut w = world(1, 5);
        let cfg = BcpConfig { merge_cap: 0, ..BcpConfig::default() };
        let err = engine(&mut w).compose(&request(1), &cfg);
        assert!(matches!(err, Err(Error::InvalidConfig(_))), "got {err:?}");
        assert_eq!(w.state.soft_count(), 0);
    }

    #[test]
    fn quota_policies_bound_fanout() {
        assert_eq!(QuotaPolicy::Uniform(3).quota(100), 3);
        assert_eq!(QuotaPolicy::Uniform(0).quota(100), 1); // floor at 1
        assert_eq!(QuotaPolicy::ReplicaFraction(0.5).quota(10), 5);
        assert_eq!(QuotaPolicy::ReplicaFraction(0.01).quota(10), 1);
    }

    #[test]
    fn distrusted_replicas_are_deprioritized() {
        use crate::trust::{Experience, TrustManager};
        let mut w = world(1, 2);
        // Two replicas of function 0 on peers 2 and 3; poison peer 2's
        // reputation thoroughly.
        let mut tm = TrustManager::new(1.0);
        for observer in 0..5u64 {
            for _ in 0..50 {
                tm.record(PeerId::new(observer), PeerId::new(2), Experience::Negative);
                tm.record(PeerId::new(observer), PeerId::new(3), Experience::Positive);
            }
        }
        let req = request(1);
        let cfg = BcpConfig { budget: 1, w_trust: 10.0, ..BcpConfig::default() };
        let out = {
            let mut e = engine(&mut w);
            e.trust = Some(&tm);
            e.compose(&req, &cfg).unwrap()
        };
        // With budget 1 only the top-ranked candidate is probed; the
        // heavy trust weight must push the distrusted host out of it.
        assert!(!out.best.contains_peer(PeerId::new(2), &w.reg));
        assert!(out.best.contains_peer(PeerId::new(3), &w.reg));
    }

    #[test]
    fn probe_walk_restores_engine_state_on_every_path() {
        let mut rng = spidernet_util::rng::rng_for(0xBC9, "bcp-pushundo");
        for case in 0u64..16 {
            let funcs = 2 + case % 3;
            let reps = 1 + case % 4;
            let mut w = world(funcs, reps);
            // Exercise the success, QoS-drop, and admission-drop paths.
            let delay_bound = match case % 3 {
                0 => 0.001,                          // impossible: every probe drops
                1 => rng.gen_range(20.0..200.0),     // tight: mixed outcomes
                _ => 100_000.0,                      // loose: mostly complete
            };
            if case % 4 == 3 {
                // Starve one replica's host so admission fails too.
                let peer = w.reg.get(ComponentId::new(0)).peer;
                w.state.set_capacity(peer, ResourceVector::new(0.05, 1.0));
            }
            let req = CompositionRequest {
                qos_req: QosRequirement::new(vec![delay_bound, 10.0]).unwrap(),
                ..request(funcs as usize)
            };
            let cfg = BcpConfig { budget: 1 + (case as u32 % 8), ..BcpConfig::default() };
            // The world registers replica r of function f as component
            // f·reps + r, so replica lists are reconstructible without the
            // DHT round trip.
            let lists: FxHashMap<FunctionId, Vec<ComponentId>> = (0..funcs)
                .map(|f| {
                    let cids = (0..reps).map(|r| ComponentId::new(f * reps + r)).collect();
                    (FunctionId::new(f), cids)
                })
                .collect();
            let before: Vec<_> = w.overlay.peers().map(|p| w.state.available(p)).collect();

            {
                let mut e = engine(&mut w);
                let pools: FxHashMap<FunctionId, Arc<FunctionPool>> = lists
                    .iter()
                    .map(|(&f, list)| {
                        let entries = list
                            .iter()
                            .filter_map(|&cid| {
                                let comp = e.reg.get(cid);
                                if !e.state.is_alive(comp.peer) {
                                    return None;
                                }
                                let static_score = W_FAILURE * comp.failure_prob;
                                Some(PoolEntry { cid, peer: comp.peer, static_score })
                            })
                            .collect();
                        let pool =
                            FunctionPool { raw_len: list.len(), entries, shed: 0, shed_peer: None };
                        (f, Arc::new(pool))
                    })
                    .collect();
                let pattern = req.function_graph.patterns()[0].clone();
                let branch = pattern.branch_paths().remove(0);
                let mut stats = BcpStats::default();
                let mut tokens = Vec::new();
                let mut reserved = FxHashSet::default();
                let mut walk = WalkBuffers::default();
                let mut complete = Vec::new();
                // probe_branch's debug_asserts check ProbeState restoration
                // (assignment stack, undo stack, QoS accumulator) on every
                // exit path, including QoS and admission drops.
                let _ = e.probe_branch(
                    &req, &cfg, &pattern, &branch, cfg.budget, &pools, &mut stats, &mut tokens,
                    &mut reserved, &mut walk, &mut complete,
                );
                assert_eq!(complete.len() as u64, stats.complete_probes * branch.len() as u64);
                // Releasing the walk's reservations must restore resource
                // state exactly.
                for t in tokens.drain(..) {
                    e.state.release_soft(t, &mut e.obs.trace);
                }
            }

            assert_eq!(w.state.soft_count(), 0, "case {case}: leaked reservations");
            for (p, avail) in w.overlay.peers().zip(before) {
                assert_eq!(w.state.available(p), avail, "case {case}: peer {p} state changed");
            }
        }
    }

    #[test]
    fn qualified_pool_members_are_distinct_and_qualified() {
        let mut w = world(2, 4);
        let req = request(2);
        let cfg = BcpConfig { budget: 64, quota: QuotaPolicy::Uniform(8), ..BcpConfig::default() };
        let out = engine(&mut w).compose(&req, &cfg).unwrap();
        for (g, e) in &out.qualified_pool {
            assert!(is_qualified(e, &req));
            assert_ne!(g.assignment, out.best.assignment);
        }
        // Pool is cost-ordered.
        for pair in out.qualified_pool.windows(2) {
            assert!(pair[0].1.cost <= pair[1].1.cost);
        }
        // Best beats the pool.
        if let Some((_, e)) = out.qualified_pool.first() {
            assert!(out.eval.cost <= e.cost);
        }
    }

    #[test]
    fn shed_threshold_out_of_domain_is_rejected_at_build() {
        assert!(matches!(
            BcpConfig::builder().shed_utilization(0.0).try_build(),
            Err(Error::InvalidConfig(_))
        ));
        assert!(matches!(
            BcpConfig::builder().shed_utilization(1.5).try_build(),
            Err(Error::InvalidConfig(_))
        ));
        assert!(BcpConfig::builder().shed_utilization(0.5).try_build().is_ok());
    }

    /// Loads `peer` to ~`frac` CPU utilization with a long-lived soft
    /// reservation (capacity in these worlds is 1.0 CPU).
    fn load_peer(w: &mut World, peer: PeerId, frac: f64) {
        w.state
            .soft_allocate(
                peer,
                ResourceVector::new(frac, 1.0),
                SimTime::from_secs(1_000_000),
                &mut w.obs.trace,
            )
            .unwrap();
    }

    #[test]
    fn saturated_peers_are_shed_before_probing() {
        // world(1, 2): replicas of the single function live on peers 2, 3.
        let cfg = BcpConfig { shed_utilization: 0.5, ..BcpConfig::default() };
        // One saturated host: composition avoids it without spending
        // probes on it.
        let mut w = world(1, 2);
        load_peer(&mut w, PeerId::new(2), 0.6);
        let out = engine(&mut w).compose(&request(1), &cfg).unwrap();
        assert!(!out.best.contains_peer(PeerId::new(2), &w.reg));
        assert_eq!(out.stats.shed_candidates, 1);
        assert_eq!(w.obs.metrics.value(counter::LOAD_SHED), 1);

        // Every host saturated: rejected up front, zero probes sent.
        let mut w = world(1, 2);
        load_peer(&mut w, PeerId::new(2), 0.6);
        load_peer(&mut w, PeerId::new(3), 0.6);
        let err = engine(&mut w).compose(&request(1), &cfg);
        assert!(matches!(err, Err(Error::AdmissionRejected { .. })));
        assert_eq!(w.obs.metrics.value(spidernet_sim::metrics::counter::PROBES), 0);

        // Shedding disabled (the default): the loaded hosts are still
        // probed and the request composes.
        let mut w = world(1, 2);
        load_peer(&mut w, PeerId::new(2), 0.6);
        load_peer(&mut w, PeerId::new(3), 0.6);
        let out = engine(&mut w).compose(&request(1), &BcpConfig::default()).unwrap();
        assert_eq!(out.stats.shed_candidates, 0);
    }

    fn stats_key(s: &BcpStats) -> (u64, u64, u64, u64, u64, u64, u64, u64, u64, u64) {
        (
            s.probes_sent,
            s.dht_lookups,
            s.dht_messages,
            s.complete_probes,
            s.dropped_qos,
            s.dropped_admission,
            s.shed_candidates,
            s.candidates_examined,
            s.discovery_ms.to_bits(),
            s.probing_ms.to_bits(),
        )
    }

    #[test]
    fn compose_cache_hits_replay_identical_stats() {
        let cfg = BcpConfig::default();
        let req = request(3);

        // Uncached reference run.
        let mut w = world(3, 3);
        let reference = engine(&mut w).compose(&req, &cfg).unwrap();

        // Same world, cache attached: a cold run populates the memo, a
        // warm run serves every function from it. All three must produce
        // identical outcomes and per-request accounting.
        let mut w = world(3, 3);
        let mut cache = ComposeCache::new();
        cache.ensure_current(0, 0, &cfg);
        let cold = {
            let mut e = engine(&mut w);
            e.cache = Some(&mut cache);
            e.compose(&req, &cfg).unwrap()
        };
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 3);
        let warm = {
            let mut e = engine(&mut w);
            e.cache = Some(&mut cache);
            e.compose(&req, &cfg).unwrap()
        };
        assert_eq!(cache.hits(), 3);
        assert_eq!(cache.misses(), 3);

        assert_eq!(stats_key(&reference.stats), stats_key(&cold.stats));
        assert_eq!(stats_key(&reference.stats), stats_key(&warm.stats));
        assert_eq!(reference.best.assignment, cold.best.assignment);
        assert_eq!(reference.best.assignment, warm.best.assignment);
        assert_eq!(reference.eval.cost.to_bits(), warm.eval.cost.to_bits());
    }

    #[test]
    fn compose_cache_flushes_on_epoch_or_config_drift() {
        let cfg = BcpConfig::default();
        let req = request(2);
        let mut w = world(2, 2);
        let mut cache = ComposeCache::new();
        cache.ensure_current(0, 0, &cfg);
        {
            let mut e = engine(&mut w);
            e.cache = Some(&mut cache);
            e.compose(&req, &cfg).unwrap();
        }
        assert_eq!(cache.len(), 2);

        // Same epoch: nothing flushed.
        cache.ensure_current(0, 0, &cfg);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.invalidations(), 0);

        // Trust feedback alone must NOT flush under a config that ignores
        // trust (the default) — session teardowns would otherwise empty
        // the memo constantly.
        cache.ensure_current(0, 7, &cfg);
        assert_eq!(cache.len(), 2);

        // World epoch moved (churn / registration / watermark crossing).
        cache.ensure_current(1, 7, &cfg);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.invalidations(), 1);

        // Repopulate, then drift the config fingerprint.
        {
            let mut e = engine(&mut w);
            e.cache = Some(&mut cache);
            e.compose(&req, &cfg).unwrap();
        }
        assert_eq!(cache.len(), 2);
        let shed_cfg = BcpConfig { shed_utilization: 0.5, ..BcpConfig::default() };
        cache.ensure_current(1, 7, &shed_cfg);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.invalidations(), 2);

        // A trust-weighted config does key on the trust epoch.
        let trust_cfg = BcpConfig { w_trust: 0.1, ..BcpConfig::default() };
        cache.ensure_current(1, 7, &trust_cfg);
        {
            let mut e = engine(&mut w);
            e.cache = Some(&mut cache);
            e.compose(&req, &trust_cfg).unwrap();
        }
        assert_eq!(cache.len(), 2);
        cache.ensure_current(1, 8, &trust_cfg);
        assert_eq!(cache.len(), 0);

        // So does a negative weight: its trust term is just as live.
        let negative_cfg = BcpConfig { w_trust: -0.1, ..BcpConfig::default() };
        cache.ensure_current(1, 8, &negative_cfg);
        {
            let mut e = engine(&mut w);
            e.cache = Some(&mut cache);
            e.compose(&req, &negative_cfg).unwrap();
        }
        assert_eq!(cache.len(), 2);
        cache.ensure_current(1, 9, &negative_cfg);
        assert_eq!(cache.len(), 0, "a trust change must flush pools priced with trust");
    }

    #[test]
    fn zero_trust_weight_ignores_trust_tables() {
        use crate::trust::Experience;
        let cfg = BcpConfig::default();
        assert!(!cfg.weighs_trust());
        let req = request(3);
        let mut w = world(3, 3);
        let plain = engine(&mut w).compose(&req, &cfg).unwrap();

        // Poison the first replica of every function, vouch for the rest.
        let mut tm = TrustManager::new(1.0);
        for observer in 0..5u64 {
            for host in 2..11u64 {
                let e = if (host - 2) % 3 == 0 { Experience::Negative } else { Experience::Positive };
                for _ in 0..50 {
                    tm.record(PeerId::new(observer), PeerId::new(host), e);
                }
            }
        }
        let mut w = world(3, 3);
        let poisoned = {
            let mut e = engine(&mut w);
            e.trust = Some(&tm);
            e.compose(&req, &cfg).unwrap()
        };
        assert_eq!(stats_key(&plain.stats), stats_key(&poisoned.stats));
        assert_eq!(plain.best.assignment, poisoned.best.assignment);
        assert_eq!(plain.eval.cost.to_bits(), poisoned.eval.cost.to_bits());
    }
}
