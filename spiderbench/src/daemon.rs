//! `daemon_stream`: 8 loopback `spidernet-node` daemons driven through
//! `runtime::net::deploy_many`. Each deployment fires a burst of
//! concurrent composes over one control connection, then streams every
//! session concurrently. Deployments repeat until the measuring time is
//! used up; wall figures are medians over deployments.
//!
//! The pacing keeps the offered frame rate well inside what the loopback
//! cluster carries, so a normal run delivers every frame and a drop in
//! `frames_per_s` or `frame_delivery_ratio` means the daemons fell behind.

use crate::report::{Counters, RunResult};
use crate::stats::{median, percentile, ratio};
use crate::trace::{Layer, Tracer};
use spidernet_runtime::net::{
    deploy_many, setup_fingerprint, setup_to_wire, DeployConfig, MultiDeployOutcome,
};
use spidernet_runtime::{Cluster, ClusterConfig};
use spidernet_util::id::PeerId;
use spidernet_wire::{FrameDecoder, WireMsg, WirePixels, WireSetup};
use std::time::{Duration, Instant};

/// Daemons per deployment (the minimum `deploy_many` accepts).
const PEERS: usize = 8;
/// Concurrent sessions per deployment.
const SESSIONS: u64 = 100;
/// Frames each session streams.
const FRAMES: u64 = 100;
/// Model ms between a session's frames.
const INTERVAL_MS: f64 = 200.0;
/// Wall seconds per model second.
const TIME_SCALE: f64 = 0.02;
/// Frame edge, pixels.
const DIMS: (u32, u32) = (8, 8);
/// Destination probe-collection wall deadline of the daemons, in collect
/// windows. It never changes which probes count, but it must outlast
/// transport queueing in a concurrent burst on a slow, shared host, or
/// the collected set (and with it the setup fingerprint) would depend on
/// scheduling. Smaller values failed the fingerprint check on such a host.
const COLLECT_DEADLINE_SLACK: f64 = 20.0;

fn config(seed: u64, node_exe: &std::path::Path) -> DeployConfig {
    let mut cfg = DeployConfig::standard(PEERS, seed, node_exe.to_path_buf());
    cfg.cluster.time_scale = TIME_SCALE;
    cfg.cluster.collect_deadline_slack = COLLECT_DEADLINE_SLACK;
    cfg.frames = FRAMES;
    cfg.interval_ms = INTERVAL_MS;
    cfg.dims = DIMS;
    cfg.timeout = Duration::from_secs(60);
    cfg
}

/// Fingerprint of the same compositions made sequentially in-process.
/// With one request in flight the default collect deadline suffices.
fn inprocess_fingerprint(seed: u64, node_exe: &std::path::Path) -> Option<u64> {
    let cfg = config(seed, node_exe);
    let cluster = Cluster::start(ClusterConfig {
        collect_deadline_slack: ClusterConfig::default().collect_deadline_slack,
        ..cfg.cluster
    });
    let mut wires = Vec::with_capacity(SESSIONS as usize);
    for _ in 0..SESSIONS {
        let setup = cluster.compose(
            cfg.source,
            cfg.dest,
            cfg.chain.clone(),
            cfg.budget,
            cfg.timeout,
        )?;
        wires.push(setup_to_wire(&setup));
    }
    Some(setup_fingerprint(&wires))
}

/// The run's media traffic rebuilt as wire messages: per delivered frame,
/// one `StreamFrame` per hop (source, each component, destination) and
/// one `FrameAck` back.
fn frame_mix(setups: &[WireSetup], source: PeerId, frames: u64) -> Vec<WireMsg> {
    let mut out = Vec::new();
    let source = source.raw();
    for s in setups.iter().filter(|s| s.ok) {
        for seq in 0..frames {
            for idx in 0..=s.path.len() as u32 {
                out.push(WireMsg::StreamFrame {
                    session: s.request,
                    path: s.path.clone(),
                    functions: s.functions.clone(),
                    idx,
                    dest: s.dest,
                    source,
                    orig_w: DIMS.0,
                    orig_h: DIMS.1,
                    frame: WirePixels {
                        width: DIMS.0,
                        height: DIMS.1,
                        seq,
                        pixels: vec![(seq % 251) as u8; (DIMS.0 * DIMS.1) as usize],
                    },
                    at_ms: seq as f64 * INTERVAL_MS,
                });
            }
            out.push(WireMsg::FrameAck {
                session: s.request,
                seq,
                valid: true,
                digest: seq,
                at_ms: seq as f64 * INTERVAL_MS,
            });
        }
    }
    out
}

/// Median µs per media frame to encode the mix with `encode_into` and
/// decode it back through `FrameDecoder`.
fn codec_us_per_frame(mix: &[WireMsg], frames: u64) -> f64 {
    let mut buf = Vec::new();
    let mut times = Vec::new();
    let started = Instant::now();
    while times.len() < 5 || (started.elapsed().as_secs_f64() < 0.2 && times.len() < 200) {
        let t0 = Instant::now();
        buf.clear();
        for m in mix {
            m.encode_into(&mut buf);
        }
        let mut dec = FrameDecoder::new();
        dec.extend(&buf);
        let mut n = 0usize;
        while let Ok(Some(m)) = dec.next_frame() {
            std::hint::black_box(&m);
            n += 1;
        }
        assert_eq!(n, mix.len(), "codec replay lost frames");
        times.push(t0.elapsed().as_secs_f64() * 1e6 / frames.max(1) as f64);
    }
    median(&times)
}

struct Deployment {
    out: MultiDeployOutcome,
    wall_s: f64,
}

impl Deployment {
    fn setup_s(&self) -> f64 {
        self.wall_s - self.out.compose_secs - self.out.stream_secs
    }

    fn frames_per_s(&self) -> f64 {
        self.out.frames_delivered as f64 / self.out.stream_secs
    }
}

fn deployments(
    seed: u64,
    exe: &std::path::Path,
    budget: f64,
    tracer: &mut Tracer,
) -> std::io::Result<Vec<Deployment>> {
    let mut out = Vec::new();
    let started = Instant::now();
    // Stop before a deployment that would likely overrun the budget.
    while out
        .last()
        .is_none_or(|d: &Deployment| started.elapsed().as_secs_f64() + d.wall_s <= budget)
    {
        let id = out.len() as u64 + 1;
        let t0 = Instant::now();
        let res = tracer.span(Layer::Deploy, None, id, || {
            deploy_many(config(seed, exe), SESSIONS)
        })?;
        out.push(Deployment {
            out: res,
            wall_s: t0.elapsed().as_secs_f64(),
        });
    }
    Ok(out)
}

/// Runs `daemon_stream` with the `spidernet-node` executable at `exe`.
pub fn run(
    exe: &std::path::Path,
    seed: u64,
    seconds: f64,
    traced: bool,
    tracer: &mut Tracer,
) -> std::io::Result<RunResult> {
    if !exe.is_file() {
        return Err(std::io::Error::other(format!(
            "daemon binary missing: {}",
            exe.display()
        )));
    }
    let mut r = RunResult::default();
    r.param("peers", PEERS.to_string());
    r.param("sessions", SESSIONS.to_string());
    r.param("frames_per_session", FRAMES.to_string());
    r.param("interval_ms", crate::report::num(INTERVAL_MS));
    r.param("time_scale", crate::report::num(TIME_SCALE));
    r.param("cluster_seed", seed.to_string());
    r.param("transport", "\"loopback tcp\"".into());

    let mut untraced = Tracer::new(false);
    let plain = deployments(
        seed,
        exe,
        if traced { seconds / 2.0 } else { seconds },
        &mut untraced,
    )?;
    let traced_runs = if traced {
        Some(deployments(seed, exe, seconds / 2.0, tracer)?)
    } else {
        None
    };
    let inproc = inprocess_fingerprint(seed, exe);

    let first = &plain[0].out;
    let all: Vec<&Deployment> = plain.iter().chain(traced_runs.iter().flatten()).collect();
    let attempted: u64 = all.iter().map(|d| d.out.sessions).sum();
    let admitted: u64 = all.iter().map(|d| d.out.setups_ok).sum();
    r.attempted = attempted;
    r.failed = attempted - admitted;
    let cfg = config(seed, exe);
    let codes: Vec<u8> = cfg.chain.iter().map(|f| f.code()).collect();
    let malformed = all
        .iter()
        .flat_map(|d| d.out.setups.iter())
        .filter(|s| {
            s.ok && (s.dest != cfg.dest.raw()
                || s.path.len() != codes.len()
                || s.functions != codes)
        })
        .count();
    r.check(
        "every composed session reaches the destination through one hop per chain function",
        malformed == 0,
        format!("{malformed} of {admitted} composed sessions do not match their request"),
    );
    r.check(
        "all_valid on every deployment",
        all.iter()
            .all(|d| d.out.all_valid && d.out.frames_delivered > 0),
        String::new(),
    );
    r.check(
        "every session streamed all its frames",
        all.iter()
            .all(|d| d.out.frames_sent == d.out.setups_ok * FRAMES),
        String::new(),
    );
    r.check(
        "setup fingerprint equals sequential in-process composes",
        all.iter().all(|d| Some(d.out.setup_fingerprint) == inproc),
        format!(
            "socket {:#018x}, in-process {:?}",
            first.setup_fingerprint, inproc
        ),
    );

    let mut model: Vec<f64> = first
        .setups
        .iter()
        .filter(|s| s.ok)
        .map(|s| s.discovery_ms + s.probing_ms)
        .collect();
    let mut c = Counters::default();
    c.int("sessions", first.sessions)
        .int("setups_ok", first.setups_ok)
        .int("frames_sent", first.frames_sent)
        .int(
            "path_hops",
            first.setups.iter().map(|s| s.path.len() as u64).sum(),
        )
        .int(
            "backups",
            first.setups.iter().map(|s| s.backups.len() as u64).sum(),
        )
        .bits("model_setup_p50_ms", percentile(&mut model.clone(), 50.0))
        .bits("model_setup_p99_ms", percentile(&mut model.clone(), 99.0))
        .hex("setup_fingerprint", first.setup_fingerprint);
    r.counters = c;

    let each = |f: &dyn Fn(&Deployment) -> f64| plain.iter().map(f).collect::<Vec<_>>();
    let med = |f: &dyn Fn(&Deployment) -> f64| median(&each(f));
    // Request latency percentiles are taken per deployment (one burst of
    // SESSIONS samples each) and reported as their medians.
    let latency = |d: &Deployment, q: f64| {
        let mut us: Vec<f64> = d.out.setup_wall_ms.iter().map(|ms| ms * 1e3).collect();
        percentile(&mut us, q)
    };
    let sent: u64 = plain.iter().map(|d| d.out.frames_sent).sum();
    let delivered: u64 = plain.iter().map(|d| d.out.frames_delivered).sum();
    r.param("requests_per_deployment", SESSIONS.to_string());
    r.param("deployments", plain.len().to_string());
    r.end_to_end
        .put("setup_s", med(&|d| d.setup_s()), "s")
        .put(
            "requests_per_s",
            med(&|d| d.out.sessions as f64 / d.out.compose_secs),
            "req/s",
        )
        .put("request_p50_us", med(&|d| latency(d, 50.0)), "us")
        .put("request_p99_us", med(&|d| latency(d, 99.0)), "us")
        .put(
            "admit_ratio",
            ratio(admitted as f64, attempted as f64),
            "fraction",
        )
        .put("model_setup_p50_ms", percentile(&mut model, 50.0), "ms")
        .put("model_setup_p99_ms", percentile(&mut model, 99.0), "ms")
        .put("recovered_ratio", 1.0, "fraction")
        .put("frames_per_s", med(&|d| d.frames_per_s()), "frames/s")
        .put(
            "frame_delivery_ratio",
            ratio(delivered as f64, sent as f64),
            "fraction",
        )
        .put(
            "peak_rss_mb",
            med(&|d| d.out.peak_child_rss_bytes as f64) / (1024.0 * 1024.0),
            "MiB",
        );

    if let Some(tr) = traced_runs {
        let tmed = |f: &dyn Fn(&Deployment) -> f64| median(&tr.iter().map(f).collect::<Vec<_>>());
        let delivered: u64 = tr
            .iter()
            .map(|d| d.out.frames_delivered)
            .sum::<u64>()
            .max(1);
        let sum = |f: &dyn Fn(&spidernet_wire::WireStats) -> u64| -> f64 {
            tr.iter()
                .flat_map(|d| d.out.stats.iter())
                .map(f)
                .sum::<u64>() as f64
        };
        let n = tr.len() as f64;
        let mix = frame_mix(&tr[0].out.setups, cfg.source, FRAMES);
        let wall_per_frame =
            tmed(&|d| d.out.stream_secs * 1e6 / d.out.frames_delivered.max(1) as f64);
        // The burst waits at least one collect deadline and the stream at
        // least its pacing, however fast the daemons are; what is left is
        // the daemons' own share of each phase.
        let c = &cfg.cluster;
        let deadline_s = c.collect_window_ms * c.collect_deadline_slack * c.time_scale / 1e3;
        let pacing_s = (FRAMES - 1) as f64 * INTERVAL_MS * TIME_SCALE / 1e3;
        let plain_wall = med(&|d| d.wall_s);
        let traced_wall = tmed(&|d| d.wall_s);
        r.per_layer
            .put("daemon.compose_s", tmed(&|d| d.out.compose_secs), "s")
            .put("daemon.stream_s", tmed(&|d| d.out.stream_secs), "s")
            .put("daemon.setup_s", tmed(&|d| d.setup_s()), "s")
            .put(
                "wire.frames_tx_per_frame",
                sum(&|s| s.frames_tx) / delivered as f64,
                "count",
            )
            .put(
                "wire.bytes_per_frame",
                sum(&|s| s.bytes_tx) / delivered as f64,
                "bytes",
            )
            .put("evnet.frames_shed", sum(&|s| s.msgs_dropped) / n, "count")
            .put("wire.decode_errors", sum(&|s| s.decode_errors) / n, "count")
            .put("net.conn_retries", sum(&|s| s.conn_retries) / n, "count")
            .put(
                "wire.codec_us_per_frame",
                codec_us_per_frame(&mix, tr[0].out.setups_ok * FRAMES),
                "us",
            )
            .put("runtime.probes_sent", sum(&|s| s.probes_sent) / n, "count")
            .put("runtime.dht_hops", sum(&|s| s.dht_hops) / n, "count")
            .put("daemon.wall_us_per_frame", wall_per_frame, "us")
            .put(
                "daemon.compose_own_ms",
                tmed(&|d| d.out.compose_secs - deadline_s) * 1e3,
                "ms",
            )
            .put(
                "daemon.stream_own_ms",
                tmed(&|d| d.out.stream_secs - pacing_s) * 1e3,
                "ms",
            )
            .put("bench.loop_us", traced_wall * 1e6, "us")
            .put(
                "bench.trace_overhead_pct",
                (traced_wall / plain_wall - 1.0) * 100.0,
                "%",
            );
    }
    Ok(r)
}
