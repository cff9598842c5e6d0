//! The `SpiderNet` facade: one object tying together the overlay, the
//! Pastry discovery substrate, live resource state, the BCP protocol,
//! baselines, and session management.
//!
//! This is the API examples and experiment drivers program against:
//!
//! ```
//! use spidernet_core::system::{CompositionOptions, SpiderNet, SpiderNetConfig};
//! use spidernet_core::workload::{self, PopulationConfig, RequestConfig};
//! use spidernet_core::bcp::BcpConfig;
//! use spidernet_util::rng::rng_for;
//!
//! let mut net = SpiderNet::build(
//!     &SpiderNetConfig::builder().ip_nodes(200).peers(40).seed(7).build(),
//! );
//! net.populate(&PopulationConfig { functions: 20, ..Default::default() });
//! let mut rng = rng_for(7, "doc");
//! let req = workload::random_request(net.overlay(), net.registry(), &RequestConfig::default(), &mut rng);
//! match net.compose_with(&req, &CompositionOptions::bcp(BcpConfig::default())) {
//!     Ok(report) => println!("composed over {} components", report.best.assignment.len()),
//!     Err(e) => println!("not composable: {e}"),
//! }
//! ```

use crate::baselines::{self, BaselineContext, OptimalOptions, PoolPolicy};
use crate::bcp::{BcpConfig, BcpEngine, BcpStats, ComposeCache, ComposeScratch, CompositionOutcome};
use crate::model::component::{Registry, ServiceComponent};
use crate::model::request::CompositionRequest;
use crate::model::service_graph::{GraphEval, ServiceGraph};
use crate::paths::PathTable;
use crate::recovery::{FailureOutcome, RecoveryConfig, SessionManager};
use crate::state::OverlayState;
use crate::trust::{Experience, TrustManager};
use crate::workload::{populate, PopulationConfig};
use spidernet_dht::{PastryNetwork, ServiceDirectory, ServiceMeta};
use spidernet_sim::metrics::{counter, Instruments, MetricsRegistry};
use spidernet_sim::time::{SimDuration, SimTime};
use spidernet_sim::trace::TraceEvent;
use spidernet_topology::inet::{generate_power_law, InetConfig};
use spidernet_topology::overlay::{GeoConfig, Overlay, OverlayConfig};
use spidernet_util::error::Result;
use spidernet_util::id::{ComponentId, PeerId, SessionId};
use spidernet_util::res::ResourceVector;
use spidernet_util::rng::{rng_for, Rng};

/// End-to-end construction parameters.
///
/// Construct via [`SpiderNetConfig::builder`]; the struct is
/// `#[non_exhaustive]` so new knobs do not break downstream crates.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct SpiderNetConfig {
    /// IP-layer nodes (paper: 10,000).
    pub ip_nodes: usize,
    /// Overlay peers (paper: 1,000).
    pub peers: usize,
    /// Master seed.
    pub seed: u64,
    /// Uniform peer capacity.
    pub peer_capacity: ResourceVector,
    /// Recovery policy.
    pub recovery: RecoveryConfig,
    /// When set, the overlay is the geometric scale model (coordinates in
    /// the unit square, O(1) delays, per-peer access links) instead of a
    /// generated IP topology — the mode that holds 10^5–10^6 peers.
    /// `peers` above remains the peer-count authority.
    pub geo: Option<GeoConfig>,
    /// Worker threads for world construction (Pastry tables fan out
    /// per-node in geo mode; results are thread-count invariant).
    pub build_threads: usize,
}

impl Default for SpiderNetConfig {
    fn default() -> Self {
        SpiderNetConfig {
            ip_nodes: 10_000,
            peers: 1_000,
            seed: 0,
            peer_capacity: ResourceVector::new(1.0, 256.0),
            recovery: RecoveryConfig::default(),
            geo: None,
            build_threads: 1,
        }
    }
}

impl SpiderNetConfig {
    /// A builder seeded with the defaults (paper-scale topology).
    pub fn builder() -> SpiderNetConfigBuilder {
        SpiderNetConfigBuilder { cfg: SpiderNetConfig::default() }
    }
}

/// Builder for [`SpiderNetConfig`].
#[derive(Clone, Debug)]
pub struct SpiderNetConfigBuilder {
    cfg: SpiderNetConfig,
}

impl SpiderNetConfigBuilder {
    /// IP-layer nodes.
    pub fn ip_nodes(mut self, n: usize) -> Self {
        self.cfg.ip_nodes = n;
        self
    }

    /// Overlay peers.
    pub fn peers(mut self, n: usize) -> Self {
        self.cfg.peers = n;
        self
    }

    /// Master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Uniform peer capacity.
    pub fn peer_capacity(mut self, cap: ResourceVector) -> Self {
        self.cfg.peer_capacity = cap;
        self
    }

    /// Recovery policy.
    pub fn recovery(mut self, r: RecoveryConfig) -> Self {
        self.cfg.recovery = r;
        self
    }

    /// Switches construction to the geometric scale overlay.
    pub fn geo(mut self, g: GeoConfig) -> Self {
        self.cfg.geo = Some(g);
        self
    }

    /// Worker threads for world construction.
    pub fn build_threads(mut self, n: usize) -> Self {
        self.cfg.build_threads = n.max(1);
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> SpiderNetConfig {
        self.cfg
    }
}

/// Which composition algorithm [`SpiderNet::compose_with`] runs.
#[derive(Clone, Debug)]
pub enum CompositionStrategy {
    /// The BCP protocol (the paper's algorithm).
    Bcp(BcpConfig),
    /// Exhaustive flooding via the branch-and-bound enumerator;
    /// `combo_cap` bounds enumeration for tests.
    Optimal {
        /// Optional cap on considered combinations.
        combo_cap: Option<u64>,
        /// Whether the full qualified pool is retained or only the best
        /// graph (enabling cost-bound pruning).
        pool: PoolPolicy,
        /// Worker threads for the combo-space fan-out (results are
        /// thread-count invariant).
        threads: usize,
    },
    /// Random functionally-correct pick (uses the overlay's internal
    /// deterministic baseline stream).
    Random,
    /// First registered replica per function.
    Static,
}

/// Unified parameter object for every composition entry point.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct CompositionOptions {
    /// The algorithm to run.
    pub strategy: CompositionStrategy,
    /// Capture the trace events emitted during this composition into the
    /// returned [`ComposeReport::trace`] (empty when the `trace` cargo
    /// feature is off).
    pub capture_trace: bool,
}

impl CompositionOptions {
    /// BCP with the given tuning.
    pub fn bcp(cfg: BcpConfig) -> Self {
        CompositionOptions { strategy: CompositionStrategy::Bcp(cfg), capture_trace: false }
    }

    /// The optimal (exhaustive flooding) baseline, retaining the full
    /// qualified pool — byte-compatible with the naive enumerator.
    pub fn optimal(combo_cap: Option<u64>) -> Self {
        CompositionOptions {
            strategy: CompositionStrategy::Optimal {
                combo_cap,
                pool: PoolPolicy::Full,
                threads: 1,
            },
            capture_trace: false,
        }
    }

    /// The optimal baseline keeping only the best graph: enables
    /// cost-bound pruning on top of the feasibility bounds and skips pool
    /// retention. The best graph and its evaluation are identical to
    /// [`CompositionOptions::optimal`]'s; `qualified_pool` comes back
    /// empty.
    pub fn optimal_best_only(combo_cap: Option<u64>) -> Self {
        CompositionOptions {
            strategy: CompositionStrategy::Optimal {
                combo_cap,
                pool: PoolPolicy::BestOnly,
                threads: 1,
            },
            capture_trace: false,
        }
    }

    /// Sets the worker-thread count for the optimal enumerator's combo
    /// fan-out (no-op for other strategies).
    pub fn with_optimal_threads(mut self, n: usize) -> Self {
        if let CompositionStrategy::Optimal { threads, .. } = &mut self.strategy {
            *threads = n.max(1);
        }
        self
    }

    /// The random baseline.
    pub fn random() -> Self {
        CompositionOptions { strategy: CompositionStrategy::Random, capture_trace: false }
    }

    /// The static baseline.
    pub fn static_() -> Self {
        CompositionOptions { strategy: CompositionStrategy::Static, capture_trace: false }
    }

    /// Enables trace capture on the report.
    pub fn with_trace(mut self) -> Self {
        self.capture_trace = true;
        self
    }
}

/// What one [`SpiderNet::compose_with`] call produced: the outcome plus
/// the observability snapshot of the run.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct ComposeReport {
    /// Observability session id the run's metrics/trace were scoped to.
    pub session: u64,
    /// The selected service graph.
    pub best: ServiceGraph,
    /// Its evaluation.
    pub eval: GraphEval,
    /// Remaining qualified graphs, cost-ordered (empty for random/static).
    pub qualified_pool: Vec<(ServiceGraph, GraphEval)>,
    /// Full BCP accounting (None for baselines).
    pub stats: Option<BcpStats>,
    /// Probe-equivalent overhead, comparable across strategies.
    pub probes: u64,
    /// Optimal strategy only: candidate combos fully evaluated (0 for
    /// other strategies).
    pub combos_examined: u64,
    /// Optimal strategy only: candidate combos cut by branch-and-bound
    /// pruning (0 for other strategies).
    pub combos_pruned: u64,
    /// Trace events emitted during the run, when
    /// [`CompositionOptions::capture_trace`] was set.
    pub trace: Vec<TraceEvent>,
}

impl ComposeReport {
    /// The composition as an outcome [`SpiderNet::establish`] admits
    /// (baselines carry default BCP stats).
    pub fn into_outcome(self) -> CompositionOutcome {
        CompositionOutcome {
            best: self.best,
            eval: self.eval,
            qualified_pool: self.qualified_pool,
            stats: self.stats.unwrap_or_default(),
        }
    }
}

/// The assembled SpiderNet middleware over one simulated overlay.
///
/// `Clone` duplicates the entire world — overlay, Pastry tables, resource
/// state, caches, RNG streams — bit-for-bit. Experiment drivers exploit
/// this to build a world once and clone it per trial cell instead of
/// re-running construction.
#[derive(Clone)]
pub struct SpiderNet {
    overlay: Overlay,
    reg: Registry,
    pastry: PastryNetwork,
    directory: ServiceDirectory,
    state: OverlayState,
    paths: PathTable,
    obs: Instruments,
    sessions: SessionManager,
    trust: TrustManager,
    now: SimTime,
    seed: u64,
    /// Monotonic observability-session id handed to each composition.
    compose_seq: u64,
    /// Deterministic stream backing the Random strategy.
    baseline_rng: Rng,
    /// Structural world version: bumped whenever directory contents or
    /// peer membership change (registration, failure, revival). Combined
    /// with [`OverlayState::watermark_crossings`] it keys the compose
    /// cache.
    world_epoch: u64,
    /// Trust-table version: bumped whenever trust scores may have moved
    /// (session outcomes, failures, decay, direct mutation). Consulted by
    /// the compose cache only under trust-sensitive configs.
    trust_epoch: u64,
    /// Epoch-invalidated per-function lookup/pool memo. `None` (the
    /// default) composes full-price; enable via
    /// [`SpiderNet::set_compose_caching`].
    compose_cache: Option<ComposeCache>,
    /// Reusable probe arenas handed to every BCP run.
    compose_scratch: ComposeScratch,
    /// Compose-cache (hits, misses, invalidations) already folded into
    /// the metrics registry.
    compose_cache_reported: (u64, u64, u64),
    /// Path-row (hits, misses) already folded into the metrics registry.
    pair_lookups_reported: (u64, u64),
}

impl SpiderNet {
    /// Generates the IP network, promotes peers, builds the Pastry ring,
    /// and wires everything up. Component population is a separate step
    /// ([`SpiderNet::populate`] or [`SpiderNet::add_component`]).
    pub fn build(cfg: &SpiderNetConfig) -> SpiderNet {
        if let Some(geo) = &cfg.geo {
            let geo = GeoConfig { peers: cfg.peers, ..geo.clone() };
            return SpiderNet::from_overlay(Overlay::build_geo(&geo, cfg.seed), cfg);
        }
        let ip = generate_power_law(
            &InetConfig { nodes: cfg.ip_nodes, ..InetConfig::default() },
            cfg.seed,
        );
        let overlay = Overlay::build(
            &ip,
            &OverlayConfig { peers: cfg.peers, ..OverlayConfig::default() },
            cfg.seed,
        );
        SpiderNet::from_overlay(overlay, cfg)
    }

    /// Wires SpiderNet over a pre-built overlay (tests, custom topologies).
    pub fn from_overlay(overlay: Overlay, cfg: &SpiderNetConfig) -> SpiderNet {
        let peers: Vec<PeerId> = overlay.peers().collect();
        let mut paths = PathTable::new();
        let pastry = if overlay.is_geo() {
            // O(1) coordinate delays: no SSSP warming, and node tables can
            // fan out across build threads (results thread-invariant).
            let prox =
                |a: PeerId, b: PeerId| overlay.direct_delay(a, b).expect("geo overlay pair");
            PastryNetwork::build_parallel(&peers, &prox, cfg.build_threads.max(1))
        } else {
            let mut prox = |a: PeerId, b: PeerId| paths.delay(&overlay, a, b);
            PastryNetwork::build(&peers, &mut prox)
        };
        let state = OverlayState::new(&overlay, cfg.peer_capacity);
        SpiderNet {
            overlay,
            reg: Registry::default(),
            pastry,
            directory: ServiceDirectory::new(),
            state,
            paths,
            obs: Instruments::new(),
            sessions: SessionManager::new(cfg.recovery.clone()),
            trust: TrustManager::new(0.98),
            now: SimTime::ZERO,
            seed: cfg.seed,
            compose_seq: 0,
            baseline_rng: rng_for(cfg.seed, "baseline-random"),
            world_epoch: 0,
            trust_epoch: 0,
            compose_cache: None,
            compose_scratch: ComposeScratch::default(),
            compose_cache_reported: (0, 0, 0),
            pair_lookups_reported: (0, 0),
        }
    }

    /// Populates every peer with random components and registers them in
    /// the DHT directory.
    pub fn populate(&mut self, cfg: &PopulationConfig) {
        self.reg = populate(&self.overlay, cfg, self.seed);
        let metas: Vec<(String, ServiceMeta)> = self
            .reg
            .iter()
            .map(|c| {
                (
                    self.reg.catalog().name(c.function).to_owned(),
                    ServiceMeta { component: c.id, peer: c.peer, function: c.function },
                )
            })
            .collect();
        for (name, meta) in metas {
            self.register_meta(&name, meta);
        }
    }

    /// Adds one component (interning its function name) and registers it.
    pub fn add_component(&mut self, function_name: &str, mut proto: ServiceComponent) -> ComponentId {
        proto.function = self.reg.catalog_mut().intern(function_name);
        let id = self.reg.add(proto);
        let c = self.reg.get(id);
        let meta = ServiceMeta { component: id, peer: c.peer, function: c.function };
        self.register_meta(function_name, meta);
        id
    }

    fn register_meta(&mut self, name: &str, meta: ServiceMeta) {
        self.world_epoch += 1;
        let SpiderNet { pastry, directory, paths, overlay, obs, .. } = self;
        let mut transport = |a: PeerId, b: PeerId| paths.delay(overlay, a, b);
        if let Some(route) = directory.register(pastry, name, meta, &mut transport, &mut obs.trace)
        {
            obs.metrics.add(obs.counters.dht_messages, route.hops() as u64);
        }
    }

    // --- composition ---------------------------------------------------

    /// Runs the BCP protocol for `req` under a fresh observability session
    /// scope. Thin wrapper over [`SpiderNet::compose_with`] for callers
    /// that only need the raw BCP outcome.
    pub fn compose(&mut self, req: &CompositionRequest, cfg: &BcpConfig) -> Result<CompositionOutcome> {
        let session = self.next_compose_session();
        self.obs.metrics.begin_session(session);
        let out = self.run_bcp(req, cfg, session);
        self.obs.metrics.end_session();
        out
    }

    /// Runs the strategy selected by `opts` for `req` and returns a
    /// [`ComposeReport`] carrying the outcome plus the run's observability
    /// snapshot. Every composition — BCP or baseline — is scoped to its
    /// own metrics session and records the request's DAG shape.
    pub fn compose_with(
        &mut self,
        req: &CompositionRequest,
        opts: &CompositionOptions,
    ) -> Result<ComposeReport> {
        let session = self.next_compose_session();
        self.obs.metrics.begin_session(session);
        let mark = self.obs.trace.recorded();
        self.obs.metrics.observe(
            self.obs.counters.graph_nodes,
            req.function_graph.functions().len() as f64,
        );
        self.obs.metrics.observe(
            self.obs.counters.graph_branches,
            req.function_graph.branch_count() as f64,
        );
        let result = match &opts.strategy {
            CompositionStrategy::Bcp(cfg) => {
                self.run_bcp(req, cfg, session).map(|out| ComposeReport {
                    session,
                    best: out.best,
                    eval: out.eval,
                    qualified_pool: out.qualified_pool,
                    probes: out.stats.probes_sent,
                    stats: Some(out.stats),
                    combos_examined: 0,
                    combos_pruned: 0,
                    trace: Vec::new(),
                })
            }
            CompositionStrategy::Optimal { combo_cap, pool, threads } => {
                let opt_opts =
                    OptimalOptions { combo_cap: *combo_cap, pool: *pool, threads: *threads };
                let out = {
                    let mut ctx = BaselineContext {
                        overlay: &self.overlay,
                        reg: &self.reg,
                        state: &self.state,
                        paths: &mut self.paths,
                    };
                    baselines::optimal_with(&mut ctx, req, &opt_opts)
                };
                out.map(|out| {
                    self.obs
                        .metrics
                        .add(self.obs.counters.combos_examined, out.combos_examined);
                    self.obs.metrics.add(self.obs.counters.combos_pruned, out.combos_pruned);
                    self.obs.trace.record(TraceEvent::BaselinePruned {
                        session,
                        considered: out.probes,
                        examined: out.combos_examined,
                        pruned: out.combos_pruned,
                    });
                    ComposeReport {
                        session,
                        best: out.best,
                        eval: out.eval,
                        qualified_pool: out.qualified_pool,
                        stats: None,
                        probes: out.probes,
                        combos_examined: out.combos_examined,
                        combos_pruned: out.combos_pruned,
                        trace: Vec::new(),
                    }
                })
            }
            CompositionStrategy::Random => {
                let mut ctx = BaselineContext {
                    overlay: &self.overlay,
                    reg: &self.reg,
                    state: &self.state,
                    paths: &mut self.paths,
                };
                baselines::random(&mut ctx, req, &mut self.baseline_rng).map(|out| {
                    ComposeReport {
                        session,
                        best: out.best,
                        eval: out.eval,
                        qualified_pool: out.qualified_pool,
                        stats: None,
                        probes: out.probes,
                        combos_examined: 0,
                        combos_pruned: 0,
                        trace: Vec::new(),
                    }
                })
            }
            CompositionStrategy::Static => {
                let mut ctx = BaselineContext {
                    overlay: &self.overlay,
                    reg: &self.reg,
                    state: &self.state,
                    paths: &mut self.paths,
                };
                baselines::static_(&mut ctx, req).map(|out| ComposeReport {
                    session,
                    best: out.best,
                    eval: out.eval,
                    qualified_pool: out.qualified_pool,
                    stats: None,
                    probes: out.probes,
                    combos_examined: 0,
                    combos_pruned: 0,
                    trace: Vec::new(),
                })
            }
        };
        self.obs.metrics.end_session();
        self.sync_pair_cache_stats();
        result.map(|mut report| {
            if opts.capture_trace {
                report.trace = self.obs.trace.events_since(mark);
            }
            report
        })
    }

    /// Folds the path table's row reads into the
    /// `topology.pair_cache_hits` / `pair_cache_misses` counters: a miss
    /// is a row built (one Dijkstra), a hit a read of a row already built.
    fn sync_pair_cache_stats(&mut self) {
        let (hits, misses) = (self.paths.row_hits(), self.paths.row_misses());
        let (h0, m0) = self.pair_lookups_reported;
        if hits > h0 {
            let c = self.obs.metrics.counter(counter::PAIR_CACHE_HITS);
            self.obs.metrics.add(c, hits - h0);
        }
        if misses > m0 {
            let c = self.obs.metrics.counter(counter::PAIR_CACHE_MISSES);
            self.obs.metrics.add(c, misses - m0);
        }
        self.pair_lookups_reported = (hits, misses);
    }

    /// Folds compose-cache deltas into the metrics registry. Counters are
    /// interned lazily and only nonzero deltas are added, so worlds that
    /// never enable the cache export nothing new.
    fn sync_compose_cache_stats(&mut self) {
        let Some(cache) = self.compose_cache.as_ref() else { return };
        let (hits, misses, inv) = (cache.hits(), cache.misses(), cache.invalidations());
        let (h0, m0, i0) = self.compose_cache_reported;
        if hits > h0 {
            let c = self.obs.metrics.counter(counter::COMPOSE_CACHE_HITS);
            self.obs.metrics.add(c, hits - h0);
        }
        if misses > m0 {
            let c = self.obs.metrics.counter(counter::COMPOSE_CACHE_MISSES);
            self.obs.metrics.add(c, misses - m0);
        }
        if inv > i0 {
            let c = self.obs.metrics.counter(counter::COMPOSE_CACHE_INVALIDATIONS);
            self.obs.metrics.add(c, inv - i0);
        }
        self.compose_cache_reported = (hits, misses, inv);
    }

    /// Runs the pre-branch-and-bound naive optimal enumerator. Kept only
    /// as a wall-time / equivalence oracle for benches and tests; use
    /// [`SpiderNet::compose_with`] with [`CompositionOptions::optimal`]
    /// for real work.
    #[doc(hidden)]
    pub fn compose_optimal_naive(
        &mut self,
        req: &CompositionRequest,
        combo_cap: Option<u64>,
    ) -> Result<baselines::BaselineOutcome> {
        let mut ctx = BaselineContext {
            overlay: &self.overlay,
            reg: &self.reg,
            state: &self.state,
            paths: &mut self.paths,
        };
        baselines::optimal_naive(&mut ctx, req, combo_cap)
    }

    fn next_compose_session(&mut self) -> u64 {
        let s = self.compose_seq;
        self.compose_seq += 1;
        s
    }

    fn run_bcp(
        &mut self,
        req: &CompositionRequest,
        cfg: &BcpConfig,
        session: u64,
    ) -> Result<CompositionOutcome> {
        if let Some(cache) = self.compose_cache.as_mut() {
            // Soft-alloc watermark crossings fold into the structural epoch
            // so cached pools go stale exactly when a peer's shed
            // classification may have flipped.
            let epoch = self.world_epoch + self.state.watermark_crossings();
            cache.ensure_current(epoch, self.trust_epoch, cfg);
        }
        let mut engine = BcpEngine {
            overlay: &self.overlay,
            reg: &self.reg,
            pastry: &self.pastry,
            directory: &self.directory,
            state: &mut self.state,
            paths: &mut self.paths,
            obs: &mut self.obs,
            session,
            now: self.now,
            trust: Some(&self.trust),
            cache: self.compose_cache.as_mut(),
            scratch: Some(&mut self.compose_scratch),
        };
        let out = engine.compose(req, cfg);
        self.sync_compose_cache_stats();
        out
    }

    // --- sessions --------------------------------------------------------

    /// Establishes a session from a BCP outcome (commits resources, selects
    /// backups) and counts the setup acknowledgement messages.
    pub fn establish(
        &mut self,
        req: &CompositionRequest,
        outcome: CompositionOutcome,
    ) -> Result<SessionId> {
        let id = self.sessions.establish(
            req.clone(),
            outcome.best,
            outcome.eval,
            outcome.qualified_pool,
            &self.reg,
            &self.overlay,
            &mut self.paths,
            &mut self.state,
        )?;
        // The ack travels the reversed service graph: one control message
        // per component plus the final hop to the source.
        if let Some(s) = self.sessions.session(id) {
            let n = s.primary.assignment.len() as u64 + 1;
            self.obs.metrics.add(self.obs.counters.control, n);
        }
        Ok(id)
    }

    /// Tears a session down (normal completion: the hosting peers earn
    /// positive trust feedback from the session's source).
    pub fn teardown(&mut self, id: SessionId) -> Result<()> {
        if let Some(s) = self.sessions.session(id) {
            let reg = &self.reg;
            let hosts = s.primary.components().iter().map(|&c| reg.get(c).peer);
            self.trust.record_session_outcome(s.request.source, hosts, Experience::Positive);
            self.trust_epoch += 1;
        }
        self.sessions.teardown(id, &mut self.state)
    }

    /// Fails a peer: resource state, DHT membership, directory metadata,
    /// and active sessions all react. Returns per-session outcomes for
    /// sessions whose primary was hit.
    pub fn fail_peer(&mut self, peer: PeerId) -> Vec<(SessionId, FailureOutcome)> {
        self.fail_peers(std::slice::from_ref(&peer))
    }

    /// Fails several peers as one correlated event: every peer is marked
    /// dead (state, path cache, DHT, trust) *before* any session recovery
    /// runs, so a session hit by the first peer can never switch onto a
    /// backup containing the second. Outcomes are reported in listed peer
    /// order; a single-element slice behaves exactly like
    /// [`SpiderNet::fail_peer`].
    pub fn fail_peers(&mut self, peers: &[PeerId]) -> Vec<(SessionId, FailureOutcome)> {
        for &peer in peers {
            self.mark_peer_failed(peer);
        }
        let mut outcomes = Vec::new();
        for &peer in peers {
            outcomes.extend(self.sessions.handle_peer_failure(
                peer,
                &self.reg,
                &self.overlay,
                &mut self.paths,
                &mut self.state,
                &mut self.obs,
            ));
        }
        outcomes
    }

    /// Propagates a peer's death to every subsystem except session
    /// recovery (which [`SpiderNet::fail_peers`] runs once all peers of a
    /// correlated event are marked).
    fn mark_peer_failed(&mut self, peer: PeerId) {
        self.world_epoch += 1;
        self.trust_epoch += 1;
        self.state.fail_peer(peer);
        // The path table needs no update: the overlay graph is immutable
        // and shortest paths ignore liveness.
        self.pastry.remove_node(peer);
        self.directory.handle_departure(&self.pastry, peer);
        // Affected sessions' sources lose trust in the failed host.
        let observers: Vec<PeerId> = self
            .sessions
            .sessions()
            .filter(|s| s.primary.contains_peer(peer, &self.reg))
            .map(|s| s.request.source)
            .collect();
        for o in observers {
            self.trust.record(o, peer, Experience::Negative);
        }
    }

    /// Revives a failed peer: rejoins the ring and re-registers its
    /// components.
    pub fn revive_peer(&mut self, peer: PeerId) {
        self.world_epoch += 1;
        self.state.revive_peer(peer);
        {
            let SpiderNet { pastry, paths, overlay, .. } = self;
            let mut prox = |a: PeerId, b: PeerId| paths.delay(overlay, a, b);
            pastry.add_node(peer, &mut prox);
        }
        self.directory.handle_arrival(&self.pastry);
        let metas: Vec<(String, ServiceMeta)> = self
            .reg
            .on_peer(peer)
            .iter()
            .map(|&cid| {
                let c = self.reg.get(cid);
                (
                    self.reg.catalog().name(c.function).to_owned(),
                    ServiceMeta { component: cid, peer: c.peer, function: c.function },
                )
            })
            .collect();
        for (name, meta) in metas {
            self.register_meta(&name, meta);
        }
    }

    /// One backup-maintenance round across all sessions (also decays the
    /// trust tables one step).
    pub fn maintenance_tick(&mut self) -> u64 {
        self.trust_epoch += 1;
        self.trust.decay_all();
        self.sessions.maintenance_tick(&self.reg, &self.state, &mut self.obs)
    }

    /// Advances virtual time, expiring overdue soft reservations. Returns
    /// how many reservations the sweep reclaimed.
    pub fn advance(&mut self, dt: SimDuration) -> usize {
        self.now += dt;
        self.state.expire_soft(self.now, &mut self.obs.trace)
    }

    // --- shared-bandwidth flow model --------------------------------------

    /// Switches the overlay onto the shared-bandwidth flow model: link
    /// bandwidth stops gating admission and every committed stream becomes
    /// an elastic flow whose delivered rate is the max-min fair share of
    /// its route. Idempotent; bumps the world epoch because availability
    /// semantics change under any compose cache.
    pub fn enable_flow_model(&mut self) {
        if self.state.flow_model_enabled() {
            return;
        }
        self.world_epoch += 1;
        self.state.enable_flow_model();
    }

    /// Delivered fraction of a live session's demanded frame rate under
    /// the flow model (1.0 when the model is off or the session is gone).
    pub fn session_delivered_fraction(&mut self, id: SessionId) -> Option<f64> {
        let SpiderNet { sessions, state, .. } = self;
        sessions.session(id).map(|s| state.delivered_fraction(&s.allocation))
    }

    /// Delivered network goodput of a live session in Mbps (sum of its
    /// flows' fair-share rates; 0.0 with the flow model off).
    pub fn session_goodput(&mut self, id: SessionId) -> Option<f64> {
        let SpiderNet { sessions, state, .. } = self;
        sessions.session(id).map(|s| state.session_goodput(&s.allocation))
    }

    /// End-to-end delay of a live session's primary graph with every hop
    /// inflated by current link stress (queueing under contention). Walks
    /// source → hosts → dest and sums contention-aware hop delays; each
    /// hop is re-priced under stress, since the path rows only store
    /// uncongested distances.
    pub fn contended_session_delay(&mut self, id: SessionId) -> Option<f64> {
        let SpiderNet { sessions, state, paths, overlay, reg, .. } = self;
        let s = sessions.session(id)?;
        let mut route: Vec<PeerId> = Vec::with_capacity(s.primary.assignment.len() + 2);
        route.push(s.request.source);
        route.extend(s.primary.components().iter().map(|&c| reg.get(c).peer));
        route.push(s.request.dest);
        let mut total = 0.0;
        for w in route.windows(2) {
            total += paths.contended_delay(overlay, w[0], w[1], |hop| state.link_stress(hop));
        }
        Some(total)
    }

    /// Feeds every live session's delivered fraction into the marketplace
    /// reputation of its hosting peers (sessions visited in id order, so
    /// EWMA updates are deterministic). Returns the number of sessions
    /// observed. No-op unless the flow model is enabled.
    pub fn observe_session_deliveries(&mut self) -> usize {
        if !self.state.flow_model_enabled() {
            return 0;
        }
        let mut observed = 0;
        let SpiderNet { sessions, state, trust, reg, .. } = self;
        for s in sessions.sessions() {
            let frac = state.delivered_fraction(&s.allocation);
            for &c in s.primary.components() {
                trust.market_mut().observe(reg.get(c).peer, frac);
            }
            observed += 1;
        }
        if observed > 0 {
            self.trust_epoch += 1;
        }
        observed
    }

    // --- accessors -------------------------------------------------------

    /// The overlay.
    pub fn overlay(&self) -> &Overlay {
        &self.overlay
    }

    /// The component registry.
    pub fn registry(&self) -> &Registry {
        &self.reg
    }

    /// Live resource state (mutable for experiment setup).
    pub fn state_mut(&mut self) -> &mut OverlayState {
        &mut self.state
    }

    /// Live resource state.
    pub fn state(&self) -> &OverlayState {
        &self.state
    }

    /// Protocol metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.obs.metrics
    }

    /// The full observability bundle (metrics + resolved handles + trace).
    pub fn obs(&self) -> &Instruments {
        &self.obs
    }

    /// Mutable observability bundle (exporters, session-tracking toggles).
    pub fn obs_mut(&mut self) -> &mut Instruments {
        &mut self.obs
    }

    /// Enables or disables per-session metric rows (off by default).
    pub fn set_session_tracking(&mut self, on: bool) {
        self.obs.metrics.set_session_tracking(on);
    }

    /// Enables or disables the epoch-invalidated compose cache (off by
    /// default). Enabling starts cold; disabling drops the cache and its
    /// counters (deltas already folded into metrics are kept).
    pub fn set_compose_caching(&mut self, on: bool) {
        if on {
            if self.compose_cache.is_none() {
                self.compose_cache = Some(ComposeCache::new());
                self.compose_cache_reported = (0, 0, 0);
            }
        } else {
            self.sync_compose_cache_stats();
            self.compose_cache = None;
        }
    }

    /// Compose-cache lifetime totals `(hits, misses, invalidations)`;
    /// zeros while caching is disabled.
    pub fn compose_cache_stats(&self) -> (u64, u64, u64) {
        self.compose_cache
            .as_ref()
            .map(|c| (c.hits(), c.misses(), c.invalidations()))
            .unwrap_or((0, 0, 0))
    }

    /// Structural world epoch (diagnostics; includes soft-alloc watermark
    /// crossings when a finite watermark is set on the state).
    pub fn world_epoch(&self) -> u64 {
        self.world_epoch + self.state.watermark_crossings()
    }

    /// Resets protocol metrics and the trace ring (between experiment
    /// phases). Interned handles stay valid.
    pub fn reset_metrics(&mut self) {
        self.obs.reset();
    }

    /// The session manager.
    pub fn sessions(&self) -> &SessionManager {
        &self.sessions
    }

    /// Mutable session manager (reactive recovery orchestration).
    pub fn sessions_mut(&mut self) -> &mut SessionManager {
        &mut self.sessions
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The trust tables.
    pub fn trust(&self) -> &TrustManager {
        &self.trust
    }

    /// Mutable trust tables (experiments inject adversarial histories).
    /// Conservatively counts as a trust mutation for cache epochs.
    pub fn trust_mut(&mut self) -> &mut TrustManager {
        self.trust_epoch += 1;
        &mut self.trust
    }

    /// Reactive recovery: re-runs BCP for a session that lost all backups
    /// and re-establishes it on success, returning the re-composition's
    /// BCP stats. Abandons the session and returns `None` when nothing
    /// qualified or the new graph could not be committed (also `None`
    /// when the session is gone).
    pub fn reactive_recover_with_stats(
        &mut self,
        id: SessionId,
        cfg: &BcpConfig,
    ) -> Option<BcpStats> {
        let req = self.sessions.session(id).map(|s| s.request.clone())?;
        let reestablished = self.compose(&req, cfg).ok().and_then(|outcome| {
            self.sessions
                .reestablish(
                    id,
                    outcome.best,
                    outcome.eval,
                    outcome.qualified_pool,
                    &self.reg,
                    &self.overlay,
                    &mut self.paths,
                    &mut self.state,
                )
                .ok()
                .map(|_| outcome.stats)
        });
        if reestablished.is_none() {
            self.sessions.abandon(id);
        }
        reestablished
    }

    /// [`SpiderNet::reactive_recover_with_stats`] reporting only whether
    /// the session was saved.
    pub fn reactive_recover(&mut self, id: SessionId, cfg: &BcpConfig) -> bool {
        self.reactive_recover_with_stats(id, cfg).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{random_request, RequestConfig};
    use spidernet_sim::metrics::counter;
    use spidernet_util::rng::rng_for;

    fn small() -> SpiderNet {
        let mut net = SpiderNet::build(&SpiderNetConfig {
            ip_nodes: 300,
            peers: 60,
            seed: 17,
            ..SpiderNetConfig::default()
        });
        net.populate(&PopulationConfig { functions: 12, ..Default::default() });
        net
    }

    fn loose_request(net: &SpiderNet, rng: &mut spidernet_util::rng::Rng) -> CompositionRequest {
        random_request(
            net.overlay(),
            net.registry(),
            &RequestConfig {
                functions: (2, 3),
                delay_bound_ms: (50_000.0, 60_000.0),
                loss_bound: (0.5, 0.6),
                ..RequestConfig::default()
            },
            rng,
        )
    }

    #[test]
    fn end_to_end_compose_and_establish() {
        let mut net = small();
        let mut rng = rng_for(17, "sys");
        let req = loose_request(&net, &mut rng);
        let outcome = net.compose(&req, &BcpConfig::default()).unwrap();
        let id = net.establish(&req, outcome).unwrap();
        assert_eq!(net.sessions().len(), 1);
        assert!(net.metrics().value(counter::PROBES) > 0);
        assert!(net.metrics().value(counter::CONTROL) > 0);
        net.teardown(id).unwrap();
        assert!(net.sessions().is_empty());
    }

    #[test]
    fn dht_registration_costs_messages() {
        let net = small();
        assert!(net.metrics().value(counter::DHT_MESSAGES) > 0);
        assert!(net.registry().len() >= 60);
    }

    #[test]
    fn bcp_agrees_with_optimal_under_large_budget() {
        let mut net = small();
        let mut rng = rng_for(18, "sys");
        for _ in 0..5 {
            let req = loose_request(&net, &mut rng);
            let Ok(opt) = net.compose_with(&req, &CompositionOptions::optimal(None)) else {
                continue;
            };
            let bcp = net
                .compose(
                    &req,
                    &BcpConfig {
                        budget: 4096,
                        quota: crate::bcp::QuotaPolicy::Uniform(64),
                        merge_cap: 4096,
                        ..BcpConfig::default()
                    },
                )
                .unwrap();
            assert!(
                bcp.eval.cost <= opt.eval.cost + 1e-9,
                "unbounded BCP must match optimal: {} vs {}",
                bcp.eval.cost,
                opt.eval.cost
            );
        }
    }

    #[test]
    fn failure_and_reactive_recovery_flow() {
        let mut net = small();
        let mut rng = rng_for(19, "sys");
        let req = loose_request(&net, &mut rng);
        let outcome = net.compose(&req, &BcpConfig::default()).unwrap();
        let id = net.establish(&req, outcome).unwrap();
        // Fail every peer of the primary AND of the backups so reactive
        // recovery is forced... or at least exercise the failure path once.
        let victim = {
            let s = net.sessions().session(id).unwrap();
            net.registry().get(s.primary.assignment[0]).peer
        };
        let outcomes = net.fail_peer(victim);
        assert_eq!(outcomes.len(), 1);
        match &outcomes[0].1 {
            FailureOutcome::RecoveredByBackup { .. } => {
                let s = net.sessions().session(id).unwrap();
                assert!(!s.primary.contains_peer(victim, net.registry()));
            }
            FailureOutcome::NeedsReactive => {
                let saved = net.reactive_recover(id, &BcpConfig::default());
                if saved {
                    let s = net.sessions().session(id).unwrap();
                    assert!(!s.primary.contains_peer(victim, net.registry()));
                } else {
                    assert!(net.sessions().session(id).is_none());
                }
            }
        }
    }

    #[test]
    fn correlated_failure_marks_all_peers_before_recovery() {
        let mut net = small();
        let mut rng = rng_for(29, "sys-corr");
        let req = loose_request(&net, &mut rng);
        let outcome = net.compose(&req, &BcpConfig::default()).unwrap();
        let id = net.establish(&req, outcome).unwrap();
        // Kill a primary peer together with a peer carrying backup state:
        // recovery must not switch onto anything containing either.
        let (victim, buddy) = {
            let s = net.sessions().session(id).unwrap();
            let victim = net.registry().get(s.primary.assignment[0]).peer;
            let buddy = s
                .backups
                .iter()
                .flat_map(|(g, _)| g.components().iter())
                .map(|&c| net.registry().get(c).peer)
                .find(|&p| p != victim)
                .unwrap_or(victim);
            (victim, buddy)
        };
        let outcomes = net.fail_peers(&[victim, buddy]);
        assert!(!outcomes.is_empty());
        assert!(!net.state().is_alive(victim));
        assert!(!net.state().is_alive(buddy));
        for (sid, outcome) in &outcomes {
            if matches!(outcome, FailureOutcome::RecoveredByBackup { .. }) {
                let s = net.sessions().session(*sid).unwrap();
                assert!(!s.primary.contains_peer(victim, net.registry()));
                assert!(!s.primary.contains_peer(buddy, net.registry()));
            }
        }
    }

    #[test]
    fn failed_peer_disappears_from_discovery() {
        let mut net = small();
        let victim = PeerId::new(5);
        let victim_components = net.registry().on_peer(victim).len();
        assert!(victim_components > 0);
        net.fail_peer(victim);
        // Compose requests never land on the dead peer.
        let mut rng = rng_for(20, "sys");
        for _ in 0..5 {
            let req = loose_request(&net, &mut rng);
            if req.source == victim || req.dest == victim {
                continue;
            }
            if let Ok(out) = net.compose(&req, &BcpConfig::default()) {
                assert!(!out.best.contains_peer(victim, net.registry()));
            }
        }
        // Revival restores discoverability.
        net.revive_peer(victim);
        assert!(net.state().is_alive(victim));
    }

    /// Discovery stays exact through churn. On the `open_churn` benchmark's
    /// world shape, after every crash/revive cycle a lookup of any function
    /// from a sample of live peers ends at the key's responsible node and
    /// returns exactly the function's live replicas.
    #[test]
    fn directory_lookups_stay_exact_under_churn() {
        use spidernet_dht::NodeId;
        use spidernet_sim::trace::TraceBuffer;
        use spidernet_util::hash::function_key;
        use spidernet_util::id::FunctionId;

        let mut net = SpiderNet::build(
            &SpiderNetConfig::builder().ip_nodes(1_500).peers(300).seed(11).build(),
        );
        net.populate(&PopulationConfig { functions: 40, ..Default::default() });
        let mut rng = rng_for(11, "sys-directory-churn");
        let mut trace = TraceBuffer::new();
        let mut down: Vec<PeerId> = Vec::new();
        let mut lookups = 0;
        for cycle in 0..40 {
            let mut live: Vec<PeerId> = net.pastry.peers().collect();
            live.sort_unstable();
            let victim = live[rng.gen_range(0..live.len())];
            net.fail_peer(victim);
            down.push(victim);
            // Each victim stays down for two cycles, so up to three peers
            // are dead at once.
            if down.len() > 2 {
                net.revive_peer(down.remove(0));
            }
            let mut live: Vec<PeerId> = net.pastry.peers().collect();
            live.sort_unstable();
            for f in (0..net.reg.catalog().len()).map(FunctionId::from) {
                let name = net.reg.catalog().name(f);
                let root = net.pastry.responsible(NodeId::new(function_key(name)));
                let mut want: Vec<ComponentId> = net
                    .reg
                    .replicas(f)
                    .iter()
                    .copied()
                    .filter(|&c| net.state.is_alive(net.reg.get(c).peer))
                    .collect();
                want.sort_unstable();
                for &from in live.iter().step_by(7) {
                    let (list, route) = net
                        .directory
                        .lookup(&net.pastry, from, name, &mut |_, _| 0.0, &mut trace)
                        .expect("no routing loop");
                    let mut got: Vec<ComponentId> = list.iter().map(|m| m.component).collect();
                    got.sort_unstable();
                    assert_eq!(got, want, "cycle {cycle}: {name} from {from}");
                    assert_eq!(Some(route.destination()), root, "cycle {cycle}: {name} from {from}");
                    lookups += 1;
                }
            }
        }
        assert!(lookups > 60_000, "{lookups} lookups");
    }

    #[test]
    fn advance_expires_soft_state() {
        let mut net = small();
        let p = PeerId::new(3);
        net.state_mut()
            .soft_allocate(
                p,
                ResourceVector::new(0.1, 1.0),
                SimTime::from_ms(100.0),
                &mut spidernet_sim::trace::TraceBuffer::new(),
            )
            .unwrap();
        assert_eq!(net.state().soft_count(), 1);
        net.advance(SimDuration::from_ms(200.0));
        assert_eq!(net.state().soft_count(), 0);
        assert_eq!(net.now(), SimTime::from_ms(200.0));
    }

    #[test]
    fn trust_feedback_flows_from_session_outcomes() {
        let mut net = small();
        let mut rng = rng_for(23, "sys-trust");
        let req = loose_request(&net, &mut rng);
        let outcome = net.compose(&req, &BcpConfig::default()).unwrap();
        let hosts: Vec<PeerId> = outcome
            .best
            .components()
            .iter()
            .map(|&c| net.registry().get(c).peer)
            .collect();
        let observer = req.source;
        let id = net.establish(&req, outcome).unwrap();

        // Normal completion earns positive trust from the source.
        net.teardown(id).unwrap();
        for &h in &hosts {
            assert!(
                net.trust().trust(observer, h) > 0.5,
                "host {h} earned no positive feedback"
            );
        }

        // A failure mid-session earns negative trust.
        let req2 = loose_request(&net, &mut rng);
        let outcome2 = net.compose(&req2, &BcpConfig::default()).unwrap();
        let victim = net.registry().get(outcome2.best.assignment[0]).peer;
        let observer2 = req2.source;
        let before = net.trust().trust(observer2, victim);
        let _ = net.establish(&req2, outcome2).unwrap();
        net.fail_peer(victim);
        assert!(
            net.trust().trust(observer2, victim) < before + 1e-12,
            "failure did not lower trust"
        );
    }

    #[test]
    fn maintenance_counts_messages() {
        let mut net = small();
        let mut rng = rng_for(21, "sys");
        let req = loose_request(&net, &mut rng);
        let outcome = net.compose(&req, &BcpConfig::default()).unwrap();
        let _ = net.establish(&req, outcome).unwrap();
        let msgs = net.maintenance_tick();
        // Messages only flow if backups exist; either way the counter is
        // consistent.
        assert_eq!(net.metrics().value(counter::MAINTENANCE), msgs);
    }

    #[test]
    fn compose_with_scopes_sessions_and_reports() {
        let mut net = small();
        net.set_session_tracking(true);
        let mut rng = rng_for(31, "sys-obs");
        let req = loose_request(&net, &mut rng);
        let opts = CompositionOptions::bcp(BcpConfig::default()).with_trace();
        let a = net.compose_with(&req, &opts).unwrap();
        let b = net.compose_with(&req, &opts).unwrap();
        assert_ne!(a.session, b.session, "session ids must be unique");
        let stats = a.stats.as_ref().expect("BCP runs carry stats");
        assert!(a.probes > 0);
        assert_eq!(a.probes, stats.probes_sent);
        // The per-session probe row matches the run's own accounting.
        let probes = net.obs().counters.probes;
        assert_eq!(net.metrics().session_value(a.session, probes), stats.probes_sent);
        #[cfg(feature = "trace")]
        {
            let spawned = a
                .trace
                .iter()
                .filter(|e| matches!(e, TraceEvent::ProbeSpawned { .. }))
                .count() as u64;
            assert_eq!(spawned, stats.probes_sent, "one ProbeSpawned per probe");
            assert!(a
                .trace
                .iter()
                .all(|e| !matches!(e, TraceEvent::ProbeSpawned { session, .. } if *session != a.session)));
        }
        // Baselines flow through the same entry point.
        let r = net.compose_with(&req, &CompositionOptions::random()).unwrap();
        assert!(r.stats.is_none());
        assert_eq!(r.probes, 1);
        let s = net.compose_with(&req, &CompositionOptions::static_()).unwrap();
        assert_eq!(s.probes, 1);
    }

    #[test]
    fn random_strategy_is_deterministic_per_seed() {
        let pick = |seed: u64| {
            let mut net = SpiderNet::build(&SpiderNetConfig {
                ip_nodes: 300,
                peers: 60,
                seed,
                ..SpiderNetConfig::default()
            });
            net.populate(&PopulationConfig { functions: 12, ..Default::default() });
            let mut rng = rng_for(seed, "sys-rand");
            let req = loose_request(&net, &mut rng);
            net.compose_with(&req, &CompositionOptions::random()).unwrap().best.assignment
        };
        assert_eq!(pick(41), pick(41), "same seed must reproduce the random pick");
    }
}
