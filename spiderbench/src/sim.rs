//! The three simulator workloads, driven through `SpiderNet`'s public
//! entry points only.
//!
//! Each run builds the workload's world several times (set-up time is the
//! median), then replays one deterministic *episode* — a fixed number of
//! model time units of generated requests — on fresh clones of that world
//! until the measuring time is used up. Every episode does identical work,
//! so the exact counter block of the first must equal that of every
//! later one.
//!
//! In wall time each episode is a closed loop with one caller: every call
//! starts when the previous one returns. In model time arrivals are
//! open-loop (Poisson per unit) or a fixed batch per unit (`paper_grid`).
//!
//! The end-to-end times (set-up, each request, each model unit) are the
//! process's CPU time ([`cpu_s`]): the caller never blocks, so on an idle
//! host this is its wall time, and on a shared one it leaves out the time
//! other work held the CPU. Per-layer spans stay in wall time.

use crate::report::{num, Counters, RunResult};
use crate::stats::{mean, median, percentile, ratio};
use crate::trace::{Layer, Tracer};
use crate::{affinity, cpu_s};
use spidernet_core::bcp::{BcpConfig, BcpStats, CompositionOutcome, LookupMode, QuotaPolicy};
use spidernet_core::model::request::CompositionRequest;
use spidernet_core::recovery::{FailureOutcome, RecoveryConfig};
use spidernet_core::selection::is_qualified;
use spidernet_core::system::{CompositionOptions, SpiderNet, SpiderNetConfig};
use spidernet_core::workload::PopulationConfig;
use spidernet_core::FunctionGraph;
use spidernet_sim::metrics::counter;
use spidernet_sim::time::SimDuration;
use spidernet_util::error::Error;
use spidernet_util::id::{FunctionId, PeerId, SessionId};
use spidernet_util::qos::{loss_to_additive, QosRequirement};
use spidernet_util::res::ResourceVector;
use spidernet_util::rng::{rng_for, splitmix64, Rng};
use std::collections::BTreeMap;
use std::time::Instant;

/// World builds per run; set-up time is their median.
const SETUP_REPEATS: usize = 15;

/// The world a workload runs on. Its seed is fixed so every workload seed
/// faces the same network; `--seed` drives only the generated inputs.
#[derive(Clone, Copy, Debug)]
struct WorldSpec {
    ip_nodes: usize,
    peers: usize,
    functions: usize,
    cpu_capacity: f64,
    memory_capacity: f64,
    /// U in Eq. 2, the backup-count scale.
    backup_bound: f64,
    seed: u64,
}

/// Shape of generated requests.
#[derive(Clone, Copy, Debug)]
struct RequestShape {
    functions: (usize, usize),
    delay_bound_ms: (f64, f64),
    loss_bound: (f64, f64),
    bandwidth_mbps: (f64, f64),
    max_failure_prob: f64,
}

/// Parameters of the open-loop workloads.
#[derive(Clone, Copy, Debug)]
struct OpenSpec {
    /// The standing world.
    world: WorldSpec,
    /// Model time units per episode.
    units: u64,
    /// Poisson arrival rate, requests per unit.
    rate: f64,
    /// Session lifetime range, units.
    lifetime: (f64, f64),
    /// Zipf exponent of function popularity.
    zipf: f64,
    /// ψ shedding threshold on peer CPU utilization.
    psi: f64,
    /// One crash every `period` units, revived `revive_after` units later.
    churn: Option<(u64, u64)>,
    shape: RequestShape,
}

/// Parameters of `paper_grid`.
#[derive(Clone, Copy, Debug)]
struct GridSpec {
    /// The Fig. 8 world.
    world: WorldSpec,
    /// Model time units per episode.
    units: u64,
    /// Requests per unit.
    batch: u64,
    /// Session lifetime range, whole units.
    lifetime: (u64, u64),
    shape: RequestShape,
}

/// Loose bounds, so a refusal points at the protocol or at capacity rather
/// than at an unsatisfiable input.
const LOOSE: RequestShape = RequestShape {
    functions: (2, 4),
    delay_bound_ms: (2_000.0, 4_000.0),
    loss_bound: (0.2, 0.3),
    bandwidth_mbps: (0.2, 0.6),
    max_failure_prob: 0.5,
};

/// `open_steady`: a standing 300-peer world under Zipf(0.9) load with ψ
/// shedding and the compose cache on, hundreds of sessions live, no churn.
fn open_steady() -> OpenSpec {
    OpenSpec {
        world: WorldSpec {
            ip_nodes: 1_500,
            peers: 300,
            functions: 40,
            cpu_capacity: 1.5,
            memory_capacity: 512.0,
            // With loose bounds, Eq. 2 at the default U = 1.5 keeps no
            // backups at all, and churn would only ever run reactive BCP.
            backup_bound: 10.0,
            seed: 11,
        },
        units: 400,
        rate: 10.0,
        lifetime: (10.0, 30.0),
        zipf: 0.9,
        psi: 0.85,
        churn: None,
        shape: LOOSE,
    }
}

/// `open_churn`: `open_steady` plus a crash every 3 units (revived 6 units
/// later) and one maintenance round per unit.
fn open_churn() -> OpenSpec {
    OpenSpec {
        churn: Some((3, 6)),
        ..open_steady()
    }
}

/// `paper_grid`: the Fig. 8 closed loop on the default 200-peer,
/// 40-function world, every request composed by the optimal baseline and
/// by BCP at 0.2 and 0.1 × Π Z_k.
fn paper_grid() -> GridSpec {
    GridSpec {
        world: WorldSpec {
            ip_nodes: 1_000,
            peers: 200,
            functions: 40,
            cpu_capacity: 1.0,
            memory_capacity: 256.0,
            backup_bound: 1.5,
            seed: 8,
        },
        units: 400,
        batch: 6,
        lifetime: (3, 9),
        shape: LOOSE,
    }
}

/// Builds and populates a world, returning it with (build, populate) CPU
/// seconds.
fn build_world(w: &WorldSpec, tracer: &mut Tracer) -> (SpiderNet, f64, f64) {
    let cfg = SpiderNetConfig::builder()
        .ip_nodes(w.ip_nodes)
        .peers(w.peers)
        .seed(w.seed)
        .peer_capacity(ResourceVector::new(w.cpu_capacity, w.memory_capacity))
        .recovery(
            RecoveryConfig::builder()
                .backup_upper_bound(w.backup_bound)
                .build(),
        )
        .build();
    let t0 = cpu_s();
    let mut net = tracer.span(Layer::Build, None, 0, || SpiderNet::build(&cfg));
    let t1 = cpu_s();
    let pop = PopulationConfig {
        functions: w.functions,
        ..PopulationConfig::default()
    };
    tracer.span(Layer::Populate, None, 0, || net.populate(&pop));
    let t2 = cpu_s();
    (net, t1 - t0, t2 - t1)
}

/// Set-up times of every world build in a run. The first build yields the
/// base world; the others are spread evenly over the untraced loop so a
/// burst of outside interference cannot skew them all.
#[derive(Default)]
struct Setup {
    build_s: Vec<f64>,
    populate_s: Vec<f64>,
}

impl Setup {
    fn record(&mut self, (b, p): (f64, f64)) {
        self.build_s.push(b);
        self.populate_s.push(p);
    }

    /// Builds a throw-away world when the loop, `elapsed` seconds into a
    /// `budget`-second loop, has reached this build's slot.
    fn maybe_rebuild(&mut self, w: &WorldSpec, elapsed: f64, budget: f64, tracer: &mut Tracer) {
        let done = self.build_s.len();
        if done < SETUP_REPEATS && elapsed >= budget * done as f64 / SETUP_REPEATS as f64 {
            let (_, b, p) = build_world(w, tracer);
            self.record((b, p));
        }
    }

    fn setup_s(&self) -> f64 {
        let total: Vec<f64> = self
            .build_s
            .iter()
            .zip(&self.populate_s)
            .map(|(b, p)| b + p)
            .collect();
        median(&total)
    }
}

fn sample(rng: &mut Rng, (lo, hi): (f64, f64)) -> f64 {
    if lo >= hi {
        lo
    } else {
        rng.gen_range(lo..hi)
    }
}

/// A live peer drawn uniformly (rejection over dead ones), distinct from
/// `not`.
fn live_peer(net: &SpiderNet, rng: &mut Rng, not: Option<PeerId>) -> PeerId {
    let n = net.overlay().peer_count() as u64;
    loop {
        let p = PeerId::new(rng.gen_range(0..n));
        if net.state().is_alive(p) && Some(p) != not {
            return p;
        }
    }
}

/// The benchmark's own request generator: a linear chain of distinct
/// functions drawn by `pick`, between two distinct live peers.
fn make_request(
    net: &SpiderNet,
    shape: &RequestShape,
    rng: &mut Rng,
    mut pick: impl FnMut(&mut Rng) -> FunctionId,
) -> CompositionRequest {
    let k = rng.gen_range(shape.functions.0..=shape.functions.1);
    let mut funcs: Vec<FunctionId> = Vec::with_capacity(k);
    while funcs.len() < k {
        let f = pick(rng);
        if !funcs.contains(&f) {
            funcs.push(f);
        }
    }
    let source = live_peer(net, rng, None);
    let dest = live_peer(net, rng, Some(source));
    CompositionRequest {
        source,
        dest,
        function_graph: FunctionGraph::linear_of(&funcs),
        qos_req: QosRequirement::new(vec![
            sample(rng, shape.delay_bound_ms),
            loss_to_additive(sample(rng, shape.loss_bound)),
        ])
        .expect("bounds are positive"),
        bandwidth_mbps: sample(rng, shape.bandwidth_mbps),
        max_failure_prob: shape.max_failure_prob,
    }
}

/// Functions that have at least one replica, in catalog order.
fn provisioned(net: &SpiderNet) -> Vec<FunctionId> {
    let reg = net.registry();
    (0..reg.catalog().len())
        .map(FunctionId::from)
        .filter(|&f| !reg.replicas(f).is_empty())
        .collect()
}

/// Cumulative Zipf(s) weights over `n` ranks.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (0..n)
        .map(|k| {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

/// Exact per-episode accounting of one composition strategy.
#[derive(Clone, Debug, Default, PartialEq)]
struct Tally {
    attempted: u64,
    admitted: u64,
    /// Refused at compose time: no qualified composition.
    no_qualified: u64,
    /// Refused at compose time by admission (ψ shedding or soft state).
    compose_rejects: u64,
    /// Refused at commit time.
    commit_rejects: u64,
    errored: u64,
    unqualified: u64,
    bcp: BcpStats,
    bcp_calls: u64,
    combos_examined: u64,
    combos_pruned: u64,
    setups_ms: Vec<f64>,
    digest: u64,
}

fn fold(h: u64, v: u64) -> u64 {
    splitmix64(h ^ v)
}

/// Adds the protocol counts of `s` into `acc` (model times are left out).
fn add_stats(acc: &mut BcpStats, s: &BcpStats) {
    acc.probes_sent += s.probes_sent;
    acc.dht_lookups += s.dht_lookups;
    acc.dht_messages += s.dht_messages;
    acc.complete_probes += s.complete_probes;
    acc.dropped_qos += s.dropped_qos;
    acc.dropped_admission += s.dropped_admission;
    acc.shed_candidates += s.shed_candidates;
    acc.candidates_examined += s.candidates_examined;
}

impl Tally {
    fn refused(&self) -> u64 {
        self.no_qualified + self.compose_rejects + self.commit_rejects
    }

    fn record_stats(&mut self, s: &BcpStats) {
        add_stats(&mut self.bcp, s);
        self.bcp_calls += 1;
    }

    fn write(&self, c: &mut Counters, prefix: &str) {
        let mut setups = self.setups_ms.clone();
        c.int(&format!("{prefix}attempted"), self.attempted)
            .int(&format!("{prefix}admitted"), self.admitted)
            .int(&format!("{prefix}refused_no_qualified"), self.no_qualified)
            .int(&format!("{prefix}refused_admission"), self.compose_rejects)
            .int(&format!("{prefix}refused_commit"), self.commit_rejects)
            .int(&format!("{prefix}errored"), self.errored)
            .int(&format!("{prefix}probes"), self.bcp.probes_sent)
            .int(
                &format!("{prefix}complete_probes"),
                self.bcp.complete_probes,
            )
            .int(&format!("{prefix}candidates"), self.bcp.candidates_examined)
            .int(&format!("{prefix}dropped_qos"), self.bcp.dropped_qos)
            .int(
                &format!("{prefix}dropped_admission"),
                self.bcp.dropped_admission,
            )
            .int(&format!("{prefix}shed"), self.bcp.shed_candidates)
            .int(&format!("{prefix}dht_lookups"), self.bcp.dht_lookups)
            .int(&format!("{prefix}dht_messages"), self.bcp.dht_messages)
            .int(&format!("{prefix}combos_examined"), self.combos_examined)
            .int(&format!("{prefix}combos_pruned"), self.combos_pruned)
            .bits(
                &format!("{prefix}model_setup_p50_ms"),
                percentile(&mut setups, 50.0),
            )
            .bits(
                &format!("{prefix}model_setup_p99_ms"),
                percentile(&mut setups, 99.0),
            )
            .hex(&format!("{prefix}digest"), self.digest);
    }
}

/// Composes `req` with `opts`, establishes the result, and accounts for
/// it. Returns the new session on admission.
#[allow(clippy::too_many_arguments)]
fn serve(
    net: &mut SpiderNet,
    req: &CompositionRequest,
    opts: &CompositionOptions,
    layer: Layer,
    rid: u64,
    parent: Option<u32>,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Option<SessionId> {
    tally.attempted += 1;
    let composed = tracer.span(layer, parent, rid, || net.compose_with(req, opts));
    let report = match composed {
        Ok(r) => r,
        Err(Error::NoQualifiedComposition) => {
            tally.no_qualified += 1;
            tally.digest = fold(tally.digest, 1);
            return None;
        }
        Err(Error::AdmissionRejected { .. }) => {
            tally.compose_rejects += 1;
            tally.digest = fold(tally.digest, 3);
            return None;
        }
        Err(_) => {
            tally.errored += 1;
            tally.digest = fold(tally.digest, 2);
            return None;
        }
    };
    tally.combos_examined += report.combos_examined;
    tally.combos_pruned += report.combos_pruned;
    if let Some(s) = &report.stats {
        tally.record_stats(s);
    }
    if !is_qualified(&report.eval, req) {
        tally.unqualified += 1;
    }
    tally.digest = fold(tally.digest, report.eval.cost.to_bits());
    for c in &report.best.assignment {
        tally.digest = fold(tally.digest, c.raw());
    }
    let setup_ms = report.stats.as_ref().map(|s| s.discovery_ms + s.probing_ms);
    let outcome = CompositionOutcome {
        best: report.best,
        eval: report.eval,
        qualified_pool: report.qualified_pool,
        stats: report.stats.unwrap_or_default(),
    };
    match tracer.span(Layer::Establish, parent, rid, || {
        net.establish(req, outcome)
    }) {
        Ok(sid) => {
            tally.admitted += 1;
            if let Some(ms) = setup_ms {
                tally.setups_ms.push(ms);
            }
            Some(sid)
        }
        Err(Error::AdmissionRejected { .. } | Error::Network(_)) => {
            tally.commit_rejects += 1;
            None
        }
        Err(_) => {
            tally.errored += 1;
            None
        }
    }
}

/// Sessions ordered by expiry (model µs, then admission order).
#[derive(Default)]
struct Expiries {
    due: BTreeMap<(u64, u64), SessionId>,
    seq: u64,
}

impl Expiries {
    fn schedule(&mut self, at_units: f64, sid: SessionId) {
        self.seq += 1;
        self.due.insert(((at_units * 1e6) as u64, self.seq), sid);
    }

    /// Pops every session due at or before `unit`.
    fn pop_due(&mut self, unit: u64) -> Vec<SessionId> {
        let later = self.due.split_off(&(unit * 1_000_000 + 1, 0));
        std::mem::replace(&mut self.due, later)
            .into_values()
            .collect()
    }
}

/// Tears every remaining session down and checks the soft ledger again.
/// Returns how many sessions the program still held.
fn drain(net: &mut SpiderNet, checks: &mut Vec<String>, label: &str) -> u64 {
    let ids: Vec<SessionId> = net.sessions().sessions().map(|s| s.id).collect();
    let live = ids.len() as u64;
    for id in ids {
        if let Err(e) = net.teardown(id) {
            checks.push(format!("{label}: teardown of {} failed: {e}", id.raw()));
        }
    }
    if !net.sessions().is_empty() {
        checks.push(format!(
            "{label}: {} sessions survive teardown",
            net.sessions().len()
        ));
    }
    if let Err(e) = net.state().verify_soft_accounting() {
        checks.push(format!("{label}: soft accounting after teardown: {e}"));
    }
    live
}

/// Checks the benchmark's admissions against the program's session table:
/// every admitted session was torn down at its expiry, abandoned after a
/// failed reactive recovery, or is still held when the episode ends.
fn session_balance(
    label: &str,
    admitted: u64,
    expired: u64,
    abandoned: u64,
    live: u64,
) -> Result<(), String> {
    if admitted == expired + abandoned + live {
        Ok(())
    } else {
        Err(format!(
            "{label}: {admitted} admitted, but {expired} expired + {abandoned} abandoned + \
             {live} live at episode end"
        ))
    }
}

/// One episode's outputs.
struct Episode {
    counters: Counters,
    /// CPU µs of every request (compose + establish), in order.
    request_us: Vec<f64>,
    /// CPU seconds of every model time unit, in order.
    unit_s: Vec<f64>,
    /// Wall seconds of the whole episode.
    loop_s: f64,
    attempted: u64,
    admitted: u64,
    failed: u64,
    /// Sessions hit by a crash and sessions saved.
    hit: u64,
    saved: u64,
    setups_ms: Vec<f64>,
    /// Check failures, empty when every check held.
    problems: Vec<String>,
    /// Admissions the program's session table does not account for.
    unbalanced: Vec<String>,
    layer: LayerCounts,
}

/// Exact counts the per-layer metrics are built from.
#[derive(Default)]
struct LayerCounts {
    bcp: BcpStats,
    bcp_calls: u64,
    cache: (u64, u64, u64),
    pair: (u64, u64),
    combos: (u64, u64),
    commit_rejects: u64,
    soft_reclaimed: u64,
    switches: u64,
    reactive: u64,
    maintenance: u64,
}

/// Metric deltas accumulated on a clone since it left the base world.
fn delta(net: &SpiderNet, base: &SpiderNet, name: &str) -> u64 {
    net.metrics().value(name) - base.metrics().value(name)
}

fn open_episode(base: &SpiderNet, spec: &OpenSpec, seed: u64, tracer: &mut Tracer) -> Episode {
    let mut net = base.clone();
    let bcp = BcpConfig::builder().shed_utilization(spec.psi).build();
    let opts = CompositionOptions::bcp(bcp.clone());
    let pool = provisioned(&net);
    let cdf = zipf_cdf(pool.len(), spec.zipf);
    let mut arrivals = rng_for(seed, "spiderbench-arrivals");
    let mut req_rng = rng_for(seed, "spiderbench-requests");
    let mut churn_rng = rng_for(seed, "spiderbench-churn");
    let mut expiries = Expiries::default();
    let mut revivals: BTreeMap<u64, Vec<PeerId>> = BTreeMap::new();
    let mut tally = Tally::default();
    let mut request_us = Vec::new();
    let mut problems = Vec::new();
    let (mut expired, mut kills, mut hit, mut switched, mut reactive_saved, mut abandoned) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut peak_live, mut soft_reclaimed, mut maintenance_msgs) = (0u64, 0u64, 0u64);
    let mut next_arrival = 0.0f64;
    let draw_gap = |rng: &mut Rng| -> f64 {
        let u: f64 = rng.gen();
        -(1.0 - u).ln() / spec.rate
    };
    next_arrival += draw_gap(&mut arrivals);
    let mut rid = 0u64;

    net.set_compose_caching(true);
    net.state_mut().set_shed_watermark(spec.psi);
    let mut unit_s = Vec::with_capacity(spec.units as usize);
    let started = Instant::now();
    let mut mark = cpu_s();
    for unit in 0..spec.units {
        for sid in expiries.pop_due(unit) {
            // Sessions abandoned after a crash are already gone.
            if tracer
                .span(Layer::Teardown, None, sid.raw(), || net.teardown(sid))
                .is_ok()
            {
                expired += 1;
            }
        }
        if let Some((period, revive_after)) = spec.churn {
            for peer in revivals.remove(&unit).unwrap_or_default() {
                tracer.span(Layer::Revive, None, 0, || net.revive_peer(peer));
            }
            if unit > 0 && unit % period == 0 {
                let victim = live_peer(&net, &mut churn_rng, None);
                kills += 1;
                let outcomes = tracer.span(Layer::FailPeer, None, 0, || net.fail_peer(victim));
                for (sid, outcome) in outcomes {
                    hit += 1;
                    match outcome {
                        FailureOutcome::RecoveredByBackup { .. } => switched += 1,
                        FailureOutcome::NeedsReactive => {
                            let saved = tracer.span(Layer::Reactive, None, sid.raw(), || {
                                net.reactive_recover(sid, &bcp)
                            });
                            if saved {
                                reactive_saved += 1;
                            } else {
                                abandoned += 1;
                            }
                        }
                    }
                }
                revivals
                    .entry(unit + revive_after)
                    .or_default()
                    .push(victim);
            }
            maintenance_msgs += tracer.span(Layer::Maintenance, None, 0, || net.maintenance_tick());
        }
        while next_arrival < (unit + 1) as f64 {
            rid += 1;
            let req = make_request(&net, &spec.shape, &mut req_rng, |rng| {
                let u: f64 = rng.gen();
                pool[cdf.partition_point(|&c| c <= u).min(pool.len() - 1)]
            });
            let lifetime = sample(&mut req_rng, spec.lifetime);
            let t0 = cpu_s();
            let root = tracer.open(Layer::Request, rid);
            if let Some(sid) = serve(
                &mut net,
                &req,
                &opts,
                Layer::Compose,
                rid,
                root,
                tracer,
                &mut tally,
            ) {
                expiries.schedule(next_arrival + lifetime, sid);
            }
            tracer.close(root);
            request_us.push((cpu_s() - t0) * 1e6);
            peak_live = peak_live.max(net.sessions().len() as u64);
            next_arrival += draw_gap(&mut arrivals);
        }
        soft_reclaimed += tracer.span(Layer::Advance, None, 0, || {
            net.advance(SimDuration::from_secs(1))
        }) as u64;
        let now = cpu_s();
        unit_s.push(now - mark);
        mark = now;
    }
    let loop_s = started.elapsed().as_secs_f64();

    if let Err(e) = net.state().verify_soft_accounting() {
        problems.push(format!("soft accounting at episode end: {e}"));
    }
    let (cache_hits, cache_misses, cache_inv) = net.compose_cache_stats();
    let pair = (
        delta(&net, base, counter::PAIR_CACHE_HITS),
        delta(&net, base, counter::PAIR_CACHE_MISSES),
    );
    let (switches, reactive) = (
        delta(&net, base, counter::RECOVERY_SWITCHES),
        delta(&net, base, counter::RECOVERY_REACTIVE),
    );
    if (switches, reactive) != (switched, hit - switched) {
        problems.push(format!(
            "recovery counters {switches} switches + {reactive} reactive, but fail_peer \
             reported {switched} backup switches of {hit} sessions hit"
        ));
    }
    let live = drain(&mut net, &mut problems, "episode end");
    let unbalanced: Vec<String> =
        session_balance("episode", tally.admitted, expired, abandoned, live)
            .err()
            .into_iter()
            .collect();

    let mut counters = Counters::default();
    tally.write(&mut counters, "");
    counters
        .int("expired", expired)
        .int("peak_live", peak_live)
        .int("soft_reclaimed", soft_reclaimed)
        .int("cache_hits", cache_hits)
        .int("cache_misses", cache_misses)
        .int("cache_invalidations", cache_inv)
        .int("pair_cache_hits", pair.0)
        .int("pair_cache_misses", pair.1)
        .int("kills", kills)
        .int("sessions_hit", hit)
        .int("backup_switches", switched)
        .int("reactive_saved", reactive_saved)
        .int("abandoned", abandoned)
        .int("recovery_switches", switches)
        .int("recovery_reactive", reactive)
        .int("maintenance_messages", maintenance_msgs);
    if tally.unqualified > 0 {
        problems.push(format!(
            "{} admitted compositions violate their QoS bounds",
            tally.unqualified
        ));
    }
    Episode {
        counters,
        request_us,
        unit_s,
        loop_s,
        attempted: tally.attempted,
        admitted: tally.admitted,
        failed: tally.refused() + tally.errored,
        hit,
        saved: switched + reactive_saved,
        setups_ms: tally.setups_ms.clone(),
        problems,
        unbalanced,
        layer: LayerCounts {
            bcp: tally.bcp.clone(),
            bcp_calls: tally.bcp_calls,
            cache: (cache_hits, cache_misses, cache_inv),
            pair,
            combos: (0, 0),
            commit_rejects: tally.commit_rejects,
            soft_reclaimed,
            switches,
            reactive,
            maintenance: maintenance_msgs,
        },
    }
}

/// Probe budget `fraction × Π Z_k`, floored at 1 (Fig. 8's probing-x).
fn fraction_budget(net: &SpiderNet, req: &CompositionRequest, fraction: f64) -> u32 {
    let combos: f64 = req
        .function_graph
        .functions()
        .iter()
        .map(|&f| net.registry().replicas(f).len() as f64)
        .product();
    ((combos * fraction).round() as u32).max(1)
}

fn probing(net: &SpiderNet, req: &CompositionRequest, fraction: f64) -> CompositionOptions {
    CompositionOptions::bcp(
        BcpConfig::builder()
            .budget(fraction_budget(net, req, fraction))
            .quota(QuotaPolicy::ReplicaFraction(fraction))
            .merge_cap(256)
            .lookup(LookupMode::Prefetch)
            .build(),
    )
}

/// Grid strategies in report order: label and BCP fraction (None = optimal).
const GRID: [(&str, Option<f64>); 3] = [
    ("optimal", None),
    ("probing_0.2", Some(0.2)),
    ("probing_0.1", Some(0.1)),
];

fn grid_episode(
    base: &SpiderNet,
    spec: &GridSpec,
    seed: u64,
    threads: usize,
    tracer: &mut Tracer,
) -> Episode {
    // One world per strategy, all facing the same request stream.
    let mut worlds: Vec<SpiderNet> = GRID.iter().map(|_| base.clone()).collect();
    let mut expiries: Vec<Expiries> = GRID.iter().map(|_| Expiries::default()).collect();
    let mut tallies: Vec<Tally> = GRID.iter().map(|_| Tally::default()).collect();
    let mut expired = [0u64; GRID.len()];
    let pool = provisioned(base);
    let mut req_rng = rng_for(seed, "spiderbench-grid");
    let mut request_us = Vec::new();
    let mut problems = Vec::new();
    let mut rid = 0u64;
    let optimal = CompositionOptions::optimal_best_only(None).with_optimal_threads(threads);

    let mut unit_s = Vec::with_capacity(spec.units as usize);
    let started = Instant::now();
    let mut mark = cpu_s();
    for unit in 0..spec.units {
        for ((net, exp), done) in worlds.iter_mut().zip(&mut expiries).zip(&mut expired) {
            for sid in exp.pop_due(unit) {
                if tracer
                    .span(Layer::Teardown, None, sid.raw(), || net.teardown(sid))
                    .is_ok()
                {
                    *done += 1;
                }
            }
        }
        for _ in 0..spec.batch {
            rid += 1;
            let req = make_request(&worlds[0], &spec.shape, &mut req_rng, |rng| {
                pool[rng.gen_range(0..pool.len())]
            });
            let lifetime = req_rng.gen_range(spec.lifetime.0..=spec.lifetime.1);
            for (i, &(_, fraction)) in GRID.iter().enumerate() {
                let net = &mut worlds[i];
                let (opts, layer) = match fraction {
                    None => (optimal.clone(), Layer::Optimal),
                    Some(f) => (probing(net, &req, f), Layer::Compose),
                };
                let t0 = cpu_s();
                let root = tracer.open(Layer::Request, rid);
                if let Some(sid) =
                    serve(net, &req, &opts, layer, rid, root, tracer, &mut tallies[i])
                {
                    expiries[i].schedule((unit + lifetime) as f64, sid);
                }
                tracer.close(root);
                request_us.push((cpu_s() - t0) * 1e6);
            }
        }
        for net in &mut worlds {
            tracer.span(Layer::Advance, None, 0, || {
                net.advance(SimDuration::from_secs(1))
            });
        }
        let now = cpu_s();
        unit_s.push(now - mark);
        mark = now;
    }
    let loop_s = started.elapsed().as_secs_f64();

    let mut counters = Counters::default();
    let mut layer = LayerCounts::default();
    let mut setups_ms = Vec::new();
    let mut unbalanced = Vec::new();
    for (i, (label, _)) in GRID.iter().enumerate() {
        let net = &mut worlds[i];
        if let Err(e) = net.state().verify_soft_accounting() {
            problems.push(format!("{label}: soft accounting at episode end: {e}"));
        }
        let t = &tallies[i];
        t.write(&mut counters, &format!("{label}."));
        layer.bcp_calls += t.bcp_calls;
        add_stats(&mut layer.bcp, &t.bcp);
        layer.combos.0 += t.combos_examined;
        layer.combos.1 += t.combos_pruned;
        layer.commit_rejects += t.commit_rejects;
        layer.pair.0 += delta(net, base, counter::PAIR_CACHE_HITS);
        layer.pair.1 += delta(net, base, counter::PAIR_CACHE_MISSES);
        setups_ms.extend_from_slice(&t.setups_ms);
        if t.unqualified > 0 {
            problems.push(format!(
                "{label}: {} admitted compositions violate QoS",
                t.unqualified
            ));
        }
        let live = drain(net, &mut problems, label);
        // Nothing crashes here, so nothing is abandoned.
        if let Err(e) = session_balance(label, t.admitted, expired[i], 0, live) {
            unbalanced.push(e);
        }
    }
    let admitted: Vec<u64> = tallies.iter().map(|t| t.admitted).collect();
    if !(admitted[0] >= admitted[1] && admitted[1] >= admitted[2]) {
        problems.push(format!(
            "success ordering optimal >= probing-0.2 >= probing-0.1 broken: {admitted:?}"
        ));
    }
    let attempted: u64 = tallies.iter().map(|t| t.attempted).sum();
    let admitted_all: u64 = admitted.iter().sum();
    Episode {
        counters,
        request_us,
        unit_s,
        loop_s,
        attempted,
        admitted: admitted_all,
        failed: tallies.iter().map(|t| t.refused() + t.errored).sum(),
        hit: 0,
        saved: 0,
        setups_ms,
        problems,
        unbalanced,
        layer,
    }
}

/// Which simulator workload to run.
#[derive(Clone, Copy, Debug)]
pub enum SimWorkload {
    /// Zipf open loop, no churn.
    OpenSteady,
    /// Zipf open loop with crashes and maintenance.
    OpenChurn,
    /// Fig. 8 closed loop over optimal and probing-0.2/0.1.
    PaperGrid,
}

/// Episodes measured in one timed loop. Every episode does identical work,
/// and outside load on a shared host only ever adds time, so end-to-end
/// figures take each piece of work at its fastest repeat: each request's
/// fastest CPU time, and each model unit's fastest CPU time, over the
/// episodes.
#[derive(Default)]
struct Loop {
    /// Wall seconds of each episode.
    episode_s: Vec<f64>,
    /// Each request's fastest CPU µs over the episodes, by request index.
    request_min_us: Vec<f64>,
    /// Each model unit's fastest CPU seconds over the episodes.
    unit_min_s: Vec<f64>,
}

/// Element-wise minimum of `acc` and `v`; `v` itself when `acc` is empty.
fn fold_min(acc: &mut Vec<f64>, v: &[f64]) {
    if acc.is_empty() {
        acc.extend_from_slice(v);
    } else {
        for (m, &x) in acc.iter_mut().zip(v) {
            *m = m.min(x);
        }
    }
}

impl Loop {
    fn push(&mut self, ep: &Episode) {
        self.episode_s.push(ep.loop_s);
        fold_min(&mut self.request_min_us, &ep.request_us);
        fold_min(&mut self.unit_min_s, &ep.unit_s);
    }

    /// Episode CPU seconds with every model unit at its fastest.
    fn fastest_s(&self) -> f64 {
        self.unit_min_s.iter().sum()
    }
}

/// Runs a simulator workload: set-up, the untraced loop for `seconds`
/// (halved and followed by a traced loop of the same length when
/// `traced`), and the checks.
pub fn run(
    kind: SimWorkload,
    seed: u64,
    seconds: f64,
    traced: bool,
    threads: usize,
    tracer: &mut Tracer,
) -> RunResult {
    let mut r = RunResult::default();
    let (world, open) = match kind {
        SimWorkload::OpenSteady => (open_steady().world, Some(open_steady())),
        SimWorkload::OpenChurn => (open_churn().world, Some(open_churn())),
        SimWorkload::PaperGrid => (paper_grid().world, None),
    };
    let mut setup = Setup::default();
    let (base, b, p) = build_world(&world, tracer);
    setup.record((b, p));
    let base = &base;
    r.param("ip_nodes", world.ip_nodes.to_string());
    r.param("peers", world.peers.to_string());
    r.param("functions", world.functions.to_string());
    r.param("world_seed", world.seed.to_string());
    r.param("setup_repeats", SETUP_REPEATS.to_string());
    match &open {
        Some(o) => {
            r.param("units", o.units.to_string());
            r.param("arrival_rate_per_unit", num(o.rate));
            r.param(
                "lifetime_units",
                format!("[{},{}]", num(o.lifetime.0), num(o.lifetime.1)),
            );
            r.param("zipf", num(o.zipf));
            r.param("psi", num(o.psi));
            r.param(
                "churn",
                o.churn.map_or("null".into(), |(p, v)| {
                    format!("{{\"period\":{p},\"revive_after\":{v}}}")
                }),
            );
        }
        None => {
            let g = paper_grid();
            r.param("units", g.units.to_string());
            r.param("batch_per_unit", g.batch.to_string());
            r.param(
                "lifetime_units",
                format!("[{},{}]", g.lifetime.0, g.lifetime.1),
            );
            r.param(
                "strategies",
                "[\"optimal\",\"probing_0.2\",\"probing_0.1\"]".into(),
            );
        }
    }

    let episode = |tracer: &mut Tracer| match &open {
        Some(o) => open_episode(base, o, seed, tracer),
        None => grid_episode(base, &paper_grid(), seed, threads, tracer),
    };
    let mut first: Option<Episode> = None;
    let mut drifted = 0u64;
    // On a shared host each CPU turns slow and fast on its own, in
    // stretches of about a second. With one caller, episodes take turns on
    // every allowed CPU, so the fastest repeat of each piece of work can
    // come from whichever CPU was quick at the time. Worker threads of the
    // optimal baseline would inherit the pin, so `threads > 1` runs free.
    let cpus = if threads == 1 {
        affinity::allowed()
    } else {
        Vec::new()
    };
    let mut turn = 0usize;
    let mut run_loop = |budget: f64, rebuild: bool, tracer: &mut Tracer| {
        let mut l = Loop::default();
        let started = Instant::now();
        // Stop before an episode that would likely overrun the budget.
        while l
            .episode_s
            .last()
            .is_none_or(|&last| started.elapsed().as_secs_f64() + last <= budget)
        {
            if rebuild {
                setup.maybe_rebuild(&world, started.elapsed().as_secs_f64(), budget, tracer);
            }
            if cpus.len() > 1 {
                affinity::set(&[cpus[turn % cpus.len()]]);
                turn += 1;
            }
            let ep = episode(tracer);
            l.push(&ep);
            match &first {
                None => first = Some(ep),
                Some(f)
                    if f.counters != ep.counters
                        || !ep.problems.is_empty()
                        || !ep.unbalanced.is_empty() =>
                {
                    drifted += 1
                }
                Some(_) => {}
            }
        }
        l
    };

    let mut untraced_tracer = Tracer::new(false);
    let plain = run_loop(
        if traced { seconds / 2.0 } else { seconds },
        true,
        &mut untraced_tracer,
    );
    let spans_before = tracer.spans().len();
    let traced_loop = traced.then(|| run_loop(seconds / 2.0, false, tracer));
    if !cpus.is_empty() {
        affinity::set(&cpus);
    }
    let first = first.expect("at least one episode ran");
    while setup.build_s.len() < SETUP_REPEATS {
        setup.maybe_rebuild(&world, 0.0, 0.0, &mut untraced_tracer);
    }

    r.attempted = first.attempted;
    r.failed = first.failed;
    r.counters = first.counters.clone();
    r.check(
        "admitted sessions = expired + abandoned + live at episode end",
        first.unbalanced.is_empty(),
        first.unbalanced.join("; "),
    );
    r.check(
        "soft accounting and output checks",
        first.problems.is_empty(),
        first.problems.join("; "),
    );
    r.check(
        "every episode repeats the first exactly",
        drifted == 0,
        format!("{drifted} episodes diverged"),
    );

    let mut setups = first.setups_ms.clone();
    let e = &mut r.end_to_end;
    e.put("setup_s", setup.setup_s(), "s")
        .put(
            "requests_per_s",
            first.attempted as f64 / plain.fastest_s(),
            "req/s",
        )
        .put(
            "request_p50_us",
            percentile(&mut plain.request_min_us.clone(), 50.0),
            "us",
        )
        .put(
            "request_p99_us",
            percentile(&mut plain.request_min_us.clone(), 99.0),
            "us",
        )
        .put(
            "admit_ratio",
            ratio_or_one(first.admitted, first.attempted),
            "fraction",
        )
        .put("model_setup_p50_ms", percentile(&mut setups, 50.0), "ms")
        .put("model_setup_p99_ms", percentile(&mut setups, 99.0), "ms")
        .put(
            "recovered_ratio",
            ratio_or_one(first.saved, first.hit),
            "fraction",
        )
        .put("frames_per_s", 1.0, "frames/s")
        .put("frame_delivery_ratio", 1.0, "fraction")
        .put("peak_rss_mb", crate::peak_rss_mb(), "MiB");
    r.param("requests_per_episode", first.attempted.to_string());
    r.param("episodes", plain.episode_s.len().to_string());

    if let Some(tl) = traced_loop {
        let spans = &tracer.spans()[spans_before..];
        let n = tl.episode_s.len() as f64;
        let busy = |layer: Layer| -> f64 {
            spans
                .iter()
                .filter(|s| s.layer == layer)
                .map(|s| s.dur_ns())
                .sum::<u64>() as f64
                / 1e3
        };
        let mut compose_calls: Vec<f64> = spans
            .iter()
            .filter(|s| s.layer == Layer::Compose)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        let api_layers = [
            Layer::Compose,
            Layer::Optimal,
            Layer::Establish,
            Layer::Teardown,
            Layer::Advance,
            Layer::FailPeer,
            Layer::Reactive,
            Layer::Maintenance,
            Layer::Revive,
        ];
        let api_us: f64 = api_layers.iter().map(|&l| busy(l)).sum();
        let loop_us = tl.episode_s.iter().sum::<f64>() * 1e6;
        let lc = &first.layer;
        let per_req = |v: u64| ratio(v as f64, lc.bcp_calls as f64);
        let p = &mut r.per_layer;
        p.put("system.build_s", median(&setup.build_s), "s")
            .put("system.populate_s", median(&setup.populate_s), "s")
            .put(
                "dht.populate_messages",
                base.metrics().value(counter::DHT_MESSAGES) as f64,
                "count",
            )
            .put("bcp.compose_us", busy(Layer::Compose) / n, "us")
            .put(
                "bcp.compose_p50_us",
                percentile(&mut compose_calls, 50.0),
                "us",
            )
            .put(
                "bcp.compose_p99_us",
                percentile(&mut compose_calls, 99.0),
                "us",
            )
            .put("bcp.probes_per_req", per_req(lc.bcp.probes_sent), "count")
            .put(
                "bcp.complete_ratio",
                ratio(lc.bcp.complete_probes as f64, lc.bcp.probes_sent as f64),
                "fraction",
            )
            .put(
                "bcp.candidates_per_req",
                per_req(lc.bcp.candidates_examined),
                "count",
            )
            .put(
                "bcp.dropped_qos_per_req",
                per_req(lc.bcp.dropped_qos),
                "count",
            )
            .put(
                "bcp.dropped_admission_per_req",
                per_req(lc.bcp.dropped_admission),
                "count",
            )
            .put(
                "bcp.dht_lookups_per_req",
                per_req(lc.bcp.dht_lookups),
                "count",
            )
            .put(
                "dht.messages_per_req",
                per_req(lc.bcp.dht_messages),
                "count",
            )
            .put("bcp.shed_per_req", per_req(lc.bcp.shed_candidates), "count")
            .put(
                "bcp.compose_cache_hit_ratio",
                ratio(lc.cache.0 as f64, (lc.cache.0 + lc.cache.1) as f64),
                "fraction",
            )
            .put(
                "bcp.compose_cache_invalidations",
                lc.cache.2 as f64,
                "count",
            )
            .put(
                "topology.pair_cache_hit_ratio",
                ratio(lc.pair.0 as f64, (lc.pair.0 + lc.pair.1) as f64),
                "fraction",
            )
            .put("topology.pair_cache_misses", lc.pair.1 as f64, "count")
            .put("baseline.optimal_us", busy(Layer::Optimal) / n, "us")
            .put("baseline.combos_examined", lc.combos.0 as f64, "count")
            .put(
                "baseline.prune_ratio",
                ratio(lc.combos.1 as f64, (lc.combos.0 + lc.combos.1) as f64),
                "fraction",
            )
            .put("session.establish_us", busy(Layer::Establish) / n, "us")
            .put("session.teardown_us", busy(Layer::Teardown) / n, "us")
            .put("state.commit_rejects", lc.commit_rejects as f64, "count")
            .put("state.advance_us", busy(Layer::Advance) / n, "us")
            .put("state.soft_reclaimed", lc.soft_reclaimed as f64, "count")
            .put("recovery.fail_peer_us", busy(Layer::FailPeer) / n, "us")
            .put("recovery.reactive_us", busy(Layer::Reactive) / n, "us")
            .put(
                "recovery.maintenance_us",
                busy(Layer::Maintenance) / n,
                "us",
            )
            .put("recovery.switches", lc.switches as f64, "count")
            .put("recovery.reactive", lc.reactive as f64, "count")
            .put("recovery.maintenance", lc.maintenance as f64, "count")
            .put("dht.revive_us", busy(Layer::Revive) / n, "us")
            .put("bench.gen_us", (loop_us - api_us) / n, "us")
            .put("bench.loop_us", mean(&tl.episode_s) * 1e6, "us")
            .put(
                "bench.trace_overhead_pct",
                (tl.fastest_s() / plain.fastest_s() - 1.0) * 100.0,
                "%",
            );
    }
    r
}

/// `num / den`, or 1 when nothing was attempted (nothing was lost).
fn ratio_or_one(num: u64, den: u64) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_session_lost_behind_the_benchmarks_back_breaks_the_balance() {
        let spec = WorldSpec {
            ip_nodes: 200,
            peers: 40,
            functions: 10,
            cpu_capacity: 1.5,
            memory_capacity: 512.0,
            backup_bound: 1.5,
            seed: 3,
        };
        let mut tracer = Tracer::new(false);
        let (mut net, _, _) = build_world(&spec, &mut tracer);
        let pool = provisioned(&net);
        let opts = CompositionOptions::bcp(BcpConfig::builder().build());
        let mut rng = rng_for(1, "balance-test");
        let mut tally = Tally::default();
        let mut admitted = Vec::new();
        for rid in 0..20 {
            let req = make_request(&net, &LOOSE, &mut rng, |r| pool[r.gen_range(0..pool.len())]);
            let sid = serve(
                &mut net,
                &req,
                &opts,
                Layer::Compose,
                rid,
                None,
                &mut tracer,
                &mut tally,
            );
            admitted.extend(sid);
        }
        assert!(admitted.len() >= 2, "too few admissions to test with");
        // One session expires as the benchmark records; another vanishes
        // from the program without the benchmark seeing it.
        net.teardown(admitted[0]).unwrap();
        net.sessions_mut().abandon(admitted[1]);
        let live = drain(&mut net, &mut Vec::new(), "test");
        assert!(session_balance("test", tally.admitted, 1, 0, live).is_err());
        // Had the benchmark seen the abandonment, the books would balance.
        assert!(session_balance("test", tally.admitted, 1, 1, live).is_ok());
    }
}
