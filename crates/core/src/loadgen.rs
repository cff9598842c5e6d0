//! Open-loop workload engine: arrival processes, Zipf-skewed function
//! popularity, and a standing-world load cell (ROADMAP item 2).
//!
//! The paper evaluates composition closed-loop — a fixed number of
//! requests per time unit, each composed to completion before the next
//! (§6.1). This module adds the heavy-traffic axis: requests arrive on
//! their own clock (Poisson, diurnal, or flash-crowd), function demand is
//! Zipf-skewed the way real service popularity is, and thousands of
//! sessions are admitted, established, expired, and recovered against one
//! standing [`SpiderNet`] world, one [`Scenario`] step per time unit.
//!
//! Everything is deterministic under the derived-RNG discipline: arrival
//! times, request contents and lifetimes come from [`rng_for`] streams
//! labelled off one master seed, and faults from a seeded [`FaultPlan`],
//! so a load cell's model-time results are byte-identical across thread
//! counts and processes (wall-clock throughput fields are measured, not
//! modeled).

use crate::bcp::BcpConfig;
use crate::model::request::CompositionRequest;
use crate::scenario::Scenario;
use crate::system::SpiderNet;
use crate::workload::{provisioned_functions, request_for, sample, RequestConfig};
use spidernet_sim::fault::FaultPlan;
use spidernet_sim::metrics::counter;
use spidernet_sim::time::SimTime;
use spidernet_topology::Overlay;
use spidernet_util::error::{Error, Result};
use spidernet_util::id::FunctionId;
use spidernet_util::rng::{rng_for, Rng};
use spidernet_util::stats::percentile;
use std::time::Instant;

// --- arrival processes --------------------------------------------------

/// A time-varying arrival-rate profile, in requests per model time unit.
#[derive(Clone, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals at `rate` requests/unit.
    Poisson {
        /// Mean arrival rate, requests per time unit.
        rate: f64,
    },
    /// A smooth day/night cycle: the rate swings sinusoidally between
    /// `base` and `peak` with the given period.
    Diurnal {
        /// Off-peak rate, requests per time unit.
        base: f64,
        /// Peak rate, requests per time unit.
        peak: f64,
        /// Cycle length, time units.
        period: f64,
    },
    /// A flash crowd: `base` rate everywhere except a burst window
    /// `[start, start + duration)` at `peak`.
    FlashCrowd {
        /// Background rate, requests per time unit.
        base: f64,
        /// Burst rate, requests per time unit.
        peak: f64,
        /// Burst onset, time units.
        start: f64,
        /// Burst length, time units.
        duration: f64,
    },
}

fn parse_kv(spec: &str) -> Result<Vec<(String, f64)>> {
    let mut out = Vec::new();
    for part in spec.split(',').filter(|p| !p.is_empty()) {
        let (k, v) = part
            .split_once('=')
            .ok_or_else(|| Error::InvalidConfig(format!("expected key=value, got {part:?}")))?;
        let v: f64 = v
            .parse()
            .map_err(|_| Error::InvalidConfig(format!("invalid number for {k}: {v:?}")))?;
        out.push((k.trim().to_owned(), v));
    }
    Ok(out)
}

fn take(kv: &[(String, f64)], key: &str, default: Option<f64>) -> Result<f64> {
    kv.iter()
        .find(|(k, _)| k == key)
        .map(|&(_, v)| v)
        .or(default)
        .ok_or_else(|| Error::InvalidConfig(format!("missing required key {key}")))
}

impl ArrivalProcess {
    /// Parses a CLI spec: `poisson:rate=R`,
    /// `diurnal:base=B,peak=P,period=T`, or
    /// `flash:base=B,peak=P,start=S,duration=D`.
    pub fn parse(spec: &str) -> Result<ArrivalProcess> {
        let (kind, rest) = spec.split_once(':').unwrap_or((spec, ""));
        let kv = parse_kv(rest)?;
        let proc = match kind {
            "poisson" => ArrivalProcess::Poisson { rate: take(&kv, "rate", None)? },
            "diurnal" => ArrivalProcess::Diurnal {
                base: take(&kv, "base", None)?,
                peak: take(&kv, "peak", None)?,
                period: take(&kv, "period", Some(100.0))?,
            },
            "flash" => ArrivalProcess::FlashCrowd {
                base: take(&kv, "base", None)?,
                peak: take(&kv, "peak", None)?,
                start: take(&kv, "start", Some(0.0))?,
                duration: take(&kv, "duration", Some(10.0))?,
            },
            other => {
                return Err(Error::InvalidConfig(format!(
                    "unknown arrival process {other:?} (poisson|diurnal|flash)"
                )))
            }
        };
        for (label, v) in [("rates", proc.peak_rate()), ("rates", proc.rate_at(0.0))] {
            if !v.is_finite() || v < 0.0 {
                return Err(Error::InvalidConfig(format!("{label} must be finite and ≥ 0")));
            }
        }
        if proc.peak_rate() <= 0.0 {
            return Err(Error::InvalidConfig("peak arrival rate must be > 0".into()));
        }
        Ok(proc)
    }

    /// The instantaneous rate λ(t), requests per unit.
    pub fn rate_at(&self, t: f64) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate } => rate,
            ArrivalProcess::Diurnal { base, peak, period } => {
                let phase = (t / period.max(1e-9)) * std::f64::consts::TAU;
                base + (peak - base) * 0.5 * (1.0 - phase.cos())
            }
            ArrivalProcess::FlashCrowd { base, peak, start, duration } => {
                if t >= start && t < start + duration {
                    peak
                } else {
                    base
                }
            }
        }
    }

    /// The rate envelope λ_max used by the thinning sampler.
    pub fn peak_rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate } => rate,
            ArrivalProcess::Diurnal { base, peak, .. } => peak.max(base),
            ArrivalProcess::FlashCrowd { base, peak, .. } => peak.max(base),
        }
    }

    /// Stable label for result rows (round-trips through
    /// [`ArrivalProcess::parse`]).
    pub fn label(&self) -> String {
        match *self {
            ArrivalProcess::Poisson { rate } => format!("poisson:rate={rate}"),
            ArrivalProcess::Diurnal { base, peak, period } => {
                format!("diurnal:base={base},peak={peak},period={period}")
            }
            ArrivalProcess::FlashCrowd { base, peak, start, duration } => {
                format!("flash:base={base},peak={peak},start={start},duration={duration}")
            }
        }
    }
}

/// Draws arrival timestamps from an [`ArrivalProcess`] by thinning: the
/// candidate stream is exponential at the peak-rate envelope, and each
/// candidate survives with probability λ(t)/λ_max. For a homogeneous
/// Poisson process every candidate survives, so the same code path (and
/// the same RNG consumption pattern) serves all three profiles.
#[derive(Clone, Debug)]
pub struct ArrivalSampler {
    process: ArrivalProcess,
    rng: Rng,
    t: f64,
}

impl ArrivalSampler {
    /// A sampler seeded from `(seed, label)` starting at t = 0.
    pub fn new(process: ArrivalProcess, seed: u64, label: &str) -> Self {
        ArrivalSampler { process, rng: rng_for(seed, label), t: 0.0 }
    }

    /// The next arrival timestamp, in time units (strictly increasing).
    pub fn next_arrival(&mut self) -> f64 {
        let lambda_max = self.process.peak_rate();
        loop {
            // Exponential(λ_max) increment; u ∈ [0, 1) keeps ln(1-u) finite.
            let u: f64 = self.rng.gen();
            self.t += -(1.0 - u).ln() / lambda_max;
            let accept: f64 = self.rng.gen();
            if accept * lambda_max < self.process.rate_at(self.t) {
                return self.t;
            }
        }
    }
}

// --- Zipf popularity ----------------------------------------------------

/// Samples ranks `0..n` with Zipf weights `1/(rank+1)^s` via inverse-CDF
/// binary search — rank 0 is the most popular. `s = 0` degenerates to
/// uniform; larger `s` concentrates demand on the head of the catalog.
#[derive(Clone, Debug)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// A sampler over `n` ranks with exponent `s` (`n ≥ 1`, `s ≥ 0`).
    pub fn new(n: usize, s: f64) -> Result<Self> {
        if n == 0 {
            return Err(Error::InvalidConfig("Zipf sampler needs ≥ 1 rank".into()));
        }
        if !s.is_finite() || s < 0.0 {
            return Err(Error::InvalidConfig(format!("Zipf exponent must be ≥ 0, got {s}")));
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Ok(ZipfSampler { cdf })
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if the sampler has exactly one rank (never empty).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draws one rank in `0..len()`.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// Draws one composition request whose functions are sampled (without
/// replacement) by Zipf popularity over `pool` — `pool[0]` is the most
/// popular. Request shape (QoS bounds, bandwidth, endpoints) follows
/// `cfg` exactly like [`crate::workload::random_request`].
pub fn zipf_request(
    overlay: &Overlay,
    pool: &[FunctionId],
    zipf: &ZipfSampler,
    cfg: &RequestConfig,
    rng: &mut Rng,
) -> CompositionRequest {
    assert!(!pool.is_empty(), "no provisioned functions to request");
    assert_eq!(zipf.len(), pool.len(), "Zipf sampler must cover the pool");
    let (lo, hi) = cfg.functions;
    let k = rng.gen_range(lo..=hi).min(pool.len());
    let mut funcs: Vec<FunctionId> = Vec::with_capacity(k);
    // Rejection-sample distinct functions; under heavy skew the head ranks
    // repeat, so cap the attempts and backfill in rank order (still
    // deterministic, still popularity-biased).
    let mut attempts = 0usize;
    while funcs.len() < k && attempts < 64 * k {
        attempts += 1;
        let f = pool[zipf.sample(rng)];
        if !funcs.contains(&f) {
            funcs.push(f);
        }
    }
    let mut rank = 0usize;
    while funcs.len() < k {
        let f = pool[rank];
        if !funcs.contains(&f) {
            funcs.push(f);
        }
        rank += 1;
    }
    request_for(funcs, overlay, cfg, rng)
}

// --- the open-loop load cell --------------------------------------------

/// Parameters of one open-loop load cell.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Arrival profile, requests per time unit.
    pub arrivals: ArrivalProcess,
    /// Cell length, time units (1 unit = 1 model second).
    pub duration_units: u64,
    /// Session lifetime range, time units.
    pub session_lifetime: (f64, f64),
    /// Request shape.
    pub request: RequestConfig,
    /// Zipf exponent for function popularity (0 = uniform).
    pub zipf_exponent: f64,
    /// Master seed; all streams derive from it.
    pub seed: u64,
    /// The BCP configuration requests compose under (shedding rides on
    /// its `shed_utilization`).
    pub bcp: BcpConfig,
    /// Whether the world's epoch-invalidated compose cache is enabled.
    pub compose_caching: bool,
    /// Crashes, revives and soft storms riding along with the load, keyed
    /// by unit (empty by default).
    pub faults: FaultPlan,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            arrivals: ArrivalProcess::Poisson { rate: 20.0 },
            duration_units: 50,
            session_lifetime: (5.0, 20.0),
            request: RequestConfig::default(),
            zipf_exponent: 0.9,
            seed: 8,
            bcp: BcpConfig::default(),
            compose_caching: false,
            faults: FaultPlan::new(0),
        }
    }
}

/// Model-time results of one load cell (deterministic for a fixed
/// config), plus wall-clock throughput fields (measured, excluded from
/// determinism pins).
#[derive(Clone, Debug, Default)]
pub struct LoadCellResult {
    /// Requests that arrived.
    pub arrivals: u64,
    /// Requests admitted end-to-end (composed + established).
    pub admitted: u64,
    /// Requests refused by admission control (ψ shedding or soft-state
    /// resource admission), at probe or commit time.
    pub rejected_admission: u64,
    /// Requests that found no qualified composition.
    pub rejected_qos: u64,
    /// Requests lost to any other error.
    pub failed_other: u64,
    /// Sessions that ran to their natural expiry.
    pub expired: u64,
    /// Peers crashed by the fault plan.
    pub churn_kills: u64,
    /// Sessions saved by a maintained backup after a crash.
    pub recovered_backup: u64,
    /// Sessions saved by reactive re-composition.
    pub recovered_reactive: u64,
    /// Sessions abandoned after a crash.
    pub abandoned: u64,
    /// Largest number of concurrently established sessions.
    pub peak_in_flight: u64,
    /// Replicas dropped pre-probe by ψ shedding (sum over composes).
    pub shed_candidates: u64,
    /// Compose-cache totals for the cell.
    pub cache_hits: u64,
    /// Compose-cache misses.
    pub cache_misses: u64,
    /// Compose-cache epoch/config flushes.
    pub cache_invalidations: u64,
    /// Model-time setup latency (discovery + probing) percentiles over
    /// admitted requests, ms.
    pub setup_p50_ms: f64,
    /// 95th percentile, ms.
    pub setup_p95_ms: f64,
    /// 99th percentile, ms.
    pub setup_p99_ms: f64,
    /// Admitted sessions per time unit.
    pub goodput_per_unit: f64,
    /// `1 - admitted/arrivals`.
    pub rejection_rate: f64,
    /// Wall-clock seconds inside the whole cell loop (measured).
    pub wall_secs: f64,
    /// Compose attempts (one per arrival) per wall second (measured).
    pub composes_per_sec: f64,
}

impl LoadCellResult {
    /// The deterministic fingerprint: every model-time field, no
    /// wall-clock. Byte-identical across thread counts and processes for
    /// a fixed config.
    pub fn deterministic_key(&self) -> String {
        format!(
            "arrivals={} admitted={} rej_adm={} rej_qos={} other={} expired={} kills={} \
             rec_b={} rec_r={} abandoned={} peak={} shed={} hits={} misses={} inv={} \
             p50={:016x} p95={:016x} p99={:016x}",
            self.arrivals,
            self.admitted,
            self.rejected_admission,
            self.rejected_qos,
            self.failed_other,
            self.expired,
            self.churn_kills,
            self.recovered_backup,
            self.recovered_reactive,
            self.abandoned,
            self.peak_in_flight,
            self.shed_candidates,
            self.cache_hits,
            self.cache_misses,
            self.cache_invalidations,
            self.setup_p50_ms.to_bits(),
            self.setup_p95_ms.to_bits(),
            self.setup_p99_ms.to_bits(),
        )
    }
}

/// Drives one open-loop load cell against a clone of `base`.
///
/// Each time unit is one [`Scenario`] step: due sessions expire, the
/// fault plan's crashes run the full recovery path (backup switch, then
/// reactive BCP, then abandonment), and then every arrival in the unit is
/// composed, established (committing resources and selecting backups),
/// and scheduled for expiry. Rejections are counted by cause. All
/// model-time outputs are deterministic for the config.
pub fn run_cell(base: &SpiderNet, cfg: &LoadConfig) -> LoadCellResult {
    let started = Instant::now();
    let mut net = base.clone();
    net.set_compose_caching(cfg.compose_caching);
    if cfg.bcp.shed_utilization < 1.0 {
        net.state_mut().set_shed_watermark(cfg.bcp.shed_utilization);
    }

    let mut arrivals = ArrivalSampler::new(cfg.arrivals.clone(), cfg.seed, "loadgen-arrivals");
    let mut req_rng = rng_for(cfg.seed, "loadgen-requests");
    let pool = provisioned_functions(net.registry());
    let zipf = ZipfSampler::new(pool.len(), cfg.zipf_exponent).expect("pool is non-empty");
    let mut sc = Scenario::new(net, cfg.faults.clone(), cfg.bcp.clone());

    let mut res = LoadCellResult::default();
    let mut setups: Vec<f64> = Vec::new();
    let mut next_arrival = arrivals.next_arrival();

    for unit in 0..cfg.duration_units {
        let step = sc.step(|a| {
            // Arrivals due this unit, in arrival order.
            while next_arrival < (unit + 1) as f64 {
                res.arrivals += 1;
                let req = zipf_request(a.net.overlay(), &pool, &zipf, &cfg.request, &mut req_rng);
                let lifetime = sample(&mut req_rng, cfg.session_lifetime).max(1.0);
                match a.net.compose(&req, &cfg.bcp) {
                    Ok(outcome) => {
                        let setup_ms = outcome.stats.discovery_ms + outcome.stats.probing_ms;
                        let expires = SimTime::from_ms((next_arrival + lifetime) * 1_000.0);
                        match a.admit(&req, outcome, expires) {
                            Ok(_) => {
                                res.admitted += 1;
                                setups.push(setup_ms);
                                let in_flight = a.net.sessions().len() as u64;
                                res.peak_in_flight = res.peak_in_flight.max(in_flight);
                            }
                            Err(Error::AdmissionRejected { .. }) => res.rejected_admission += 1,
                            Err(Error::Network(_)) => res.rejected_admission += 1,
                            Err(_) => res.failed_other += 1,
                        }
                    }
                    Err(Error::AdmissionRejected { .. }) => res.rejected_admission += 1,
                    Err(Error::NoQualifiedComposition) => res.rejected_qos += 1,
                    Err(_) => res.failed_other += 1,
                }
                next_arrival = arrivals.next_arrival();
            }
        });
        res.expired += step.expired;
        res.churn_kills += step.crashes;
        res.recovered_backup += step.switches();
        res.recovered_reactive += step.saved();
        res.abandoned += step.lost();
    }

    let net = sc.net();
    let (hits, misses, invalidations) = net.compose_cache_stats();
    res.cache_hits = hits;
    res.cache_misses = misses;
    res.cache_invalidations = invalidations;
    res.shed_candidates = net.metrics().value(counter::LOAD_SHED);
    res.setup_p50_ms = percentile(&mut setups, 50.0);
    res.setup_p95_ms = percentile(&mut setups, 95.0);
    res.setup_p99_ms = percentile(&mut setups, 99.0);
    if setups.is_empty() {
        // NaN would poison byte-identical JSON; pin empty cells to 0.
        res.setup_p50_ms = 0.0;
        res.setup_p95_ms = 0.0;
        res.setup_p99_ms = 0.0;
    }
    res.goodput_per_unit = res.admitted as f64 / cfg.duration_units.max(1) as f64;
    res.rejection_rate = if res.arrivals > 0 {
        1.0 - res.admitted as f64 / res.arrivals as f64
    } else {
        0.0
    };
    res.wall_secs = started.elapsed().as_secs_f64();
    res.composes_per_sec =
        if res.wall_secs > 0.0 { res.arrivals as f64 / res.wall_secs } else { 0.0 };
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{SpiderNet, SpiderNetConfig};
    use crate::workload::PopulationConfig;

    fn world() -> SpiderNet {
        let mut net = SpiderNet::build(&SpiderNetConfig {
            ip_nodes: 300,
            peers: 60,
            seed: 17,
            ..SpiderNetConfig::default()
        });
        net.populate(&PopulationConfig { functions: 12, ..Default::default() });
        net
    }

    #[test]
    fn arrival_parse_round_trips() {
        for spec in [
            "poisson:rate=25",
            "diurnal:base=5,peak=40,period=100",
            "flash:base=5,peak=80,start=20,duration=10",
        ] {
            let p = ArrivalProcess::parse(spec).unwrap();
            assert_eq!(ArrivalProcess::parse(&p.label()).unwrap(), p);
        }
        assert!(ArrivalProcess::parse("poisson").is_err());
        assert!(ArrivalProcess::parse("poisson:rate=0").is_err());
        assert!(ArrivalProcess::parse("poisson:rate=nope").is_err());
        assert!(ArrivalProcess::parse("storm:rate=3").is_err());
        // Defaults fill in the optional keys.
        assert_eq!(
            ArrivalProcess::parse("flash:base=1,peak=9").unwrap(),
            ArrivalProcess::FlashCrowd { base: 1.0, peak: 9.0, start: 0.0, duration: 10.0 }
        );
    }

    #[test]
    fn poisson_interarrivals_match_rate() {
        let mut s = ArrivalSampler::new(ArrivalProcess::Poisson { rate: 50.0 }, 7, "t");
        let n = 20_000;
        let mut last = 0.0;
        let mut sum = 0.0;
        for _ in 0..n {
            let t = s.next_arrival();
            assert!(t > last);
            sum += t - last;
            last = t;
        }
        let mean = sum / n as f64;
        assert!((mean - 1.0 / 50.0).abs() < 0.002, "mean interarrival {mean}");
    }

    #[test]
    fn flash_crowd_bursts_and_diurnal_oscillates() {
        let flash =
            ArrivalProcess::FlashCrowd { base: 2.0, peak: 60.0, start: 50.0, duration: 10.0 };
        let mut s = ArrivalSampler::new(flash, 9, "t");
        let mut in_burst = 0u32;
        let mut before = 0u32;
        loop {
            let t = s.next_arrival();
            if t >= 60.0 {
                break;
            }
            if t < 50.0 {
                before += 1;
            } else {
                in_burst += 1;
            }
        }
        // 50 units at rate 2 ≈ 100 arrivals; 10 units at 60 ≈ 600.
        assert!(in_burst > before * 2, "burst {in_burst} vs background {before}");

        let diurnal = ArrivalProcess::Diurnal { base: 1.0, peak: 30.0, period: 40.0 };
        assert!(diurnal.rate_at(0.0) < 1.5);
        assert!(diurnal.rate_at(20.0) > 29.0, "mid-period must hit the peak");
        assert!(diurnal.rate_at(40.0) < 1.5, "full period returns to base");
    }

    #[test]
    fn zipf_skews_toward_head_ranks() {
        let z = ZipfSampler::new(50, 1.2).unwrap();
        let mut rng = rng_for(3, "zipf");
        let mut counts = [0u32; 50];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[40]);
        // Uniform degenerates: head and tail within noise of each other.
        let u = ZipfSampler::new(50, 0.0).unwrap();
        let mut counts = [0u32; 50];
        for _ in 0..20_000 {
            counts[u.sample(&mut rng)] += 1;
        }
        let (lo, hi) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(*hi < 2 * *lo, "uniform Zipf is skewed: {lo}..{hi}");
        assert!(ZipfSampler::new(0, 1.0).is_err());
        assert!(ZipfSampler::new(5, -1.0).is_err());
    }

    #[test]
    fn zipf_requests_are_valid_and_deduplicated() {
        let net = world();
        let pool = provisioned_functions(net.registry());
        let zipf = ZipfSampler::new(pool.len(), 1.5).unwrap();
        let mut rng = rng_for(11, "req");
        for _ in 0..100 {
            let req =
                zipf_request(net.overlay(), &pool, &zipf, &RequestConfig::default(), &mut rng);
            req.validate().unwrap();
            let mut fs: Vec<u64> =
                req.function_graph.functions().iter().map(|f| f.raw()).collect();
            fs.sort_unstable();
            fs.dedup();
            assert_eq!(fs.len(), req.function_graph.len(), "duplicate function in request");
        }
    }

    #[test]
    fn load_cell_admits_expires_and_is_deterministic() {
        let base = world();
        let cfg = LoadConfig {
            arrivals: ArrivalProcess::Poisson { rate: 6.0 },
            duration_units: 30,
            session_lifetime: (2.0, 6.0),
            seed: 21,
            ..LoadConfig::default()
        };
        let a = run_cell(&base, &cfg);
        assert!(a.arrivals > 100, "open loop generated almost nothing: {}", a.arrivals);
        assert!(a.admitted > 0, "nothing admitted");
        assert!(a.expired > 0, "no session expired over 30 units");
        assert!(a.peak_in_flight > 1, "sessions never overlapped");
        assert!(a.setup_p50_ms > 0.0 && a.setup_p99_ms >= a.setup_p50_ms);
        assert_eq!(a.arrivals, a.admitted + a.rejected_admission + a.rejected_qos + a.failed_other);
        let b = run_cell(&base, &cfg);
        assert_eq!(a.deterministic_key(), b.deterministic_key());
    }

    #[test]
    fn cached_cell_reproduces_uncached_admissions() {
        let base = world();
        let cfg = LoadConfig {
            arrivals: ArrivalProcess::Poisson { rate: 5.0 },
            duration_units: 20,
            seed: 33,
            ..LoadConfig::default()
        };
        let off = run_cell(&base, &cfg);
        let on = run_cell(&base, &LoadConfig { compose_caching: true, ..cfg });
        // The cache must be invisible in model-time results…
        assert_eq!(off.admitted, on.admitted);
        assert_eq!(off.rejected_admission, on.rejected_admission);
        assert_eq!(off.rejected_qos, on.rejected_qos);
        assert_eq!(off.setup_p50_ms.to_bits(), on.setup_p50_ms.to_bits());
        assert_eq!(off.setup_p99_ms.to_bits(), on.setup_p99_ms.to_bits());
        // …while actually being exercised.
        assert_eq!(off.cache_hits + off.cache_misses, 0, "cache ran while disabled");
        assert!(on.cache_hits > 0, "cache never hit under duplicate-function pressure");
    }

    #[test]
    fn churn_under_load_recovers_sessions() {
        let base = world();
        let cfg = LoadConfig {
            arrivals: ArrivalProcess::Poisson { rate: 6.0 },
            duration_units: 30,
            session_lifetime: (8.0, 15.0),
            seed: 5,
            faults: FaultPlan::churn(5, &mut rng_for(5, "loadgen-churn"), 60, 0.02, 30, Some(3)),
            ..LoadConfig::default()
        };
        let res = run_cell(&base, &cfg);
        assert!(res.churn_kills >= 4, "churn plan barely fired: {}", res.churn_kills);
        assert!(res.admitted > 0);
        assert!(
            res.recovered_backup + res.recovered_reactive > 0,
            "no crash-hit session was recovered"
        );
        // Determinism holds under churn + recovery too.
        assert_eq!(res.deterministic_key(), run_cell(&base, &cfg).deterministic_key());
    }
}
