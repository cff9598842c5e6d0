//! The SpiderNet node daemon and loopback deploy orchestrator.
//!
//! ```text
//! spidernet-node serve  --index 0 --peers 8 --seed 0 --ports 7000,7001,...
//! spidernet-node deploy --peers 8 --kill-primary
//! ```
//!
//! `serve` runs one peer as an OS process: it joins the overlay, registers
//! its service component in the DHT, and speaks the `spidernet-wire`
//! protocol over TCP until a `CtrlShutdown` control frame arrives. The
//! daemon runs on Linux only (its connections share one `epoll` loop).
//!
//! `deploy` spawns an N-process loopback cluster of `serve` daemons,
//! drives one composition and one streaming session end-to-end
//! (optionally killing the primary path's first component mid-stream to
//! exercise proactive backup switchover), prints a JSON summary, and
//! tears the cluster down.

use spidernet_runtime::net::{
    deploy, deploy_many, run_node, setup_fingerprint, setup_to_wire, DeployConfig,
    MultiDeployOutcome, NodeConfig,
};
use spidernet_runtime::{Cluster, ClusterConfig, NetFaultConfig};
use spidernet_util::{BenchBlock, BenchReport};
use std::collections::HashMap;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         spidernet-node serve --index I --peers N --ports P0,P1,... [--seed S] \
         [--jitter J] [--time-scale T] [--collect-window-ms W] [--quota Q] \
         [--failover-timeout-ms F] [--maintenance-period-ms M] \
         [--collect-deadline-slack K] [--drop-prob D] [--extra-delay-ms E]\n  \
         spidernet-node deploy [--peers N] [--seed S] [--frames F] \
         [--interval-ms I] [--budget B] [--time-scale T] [--timeout-secs T] \
         [--drop-prob D] [--extra-delay-ms E] [--kill-primary]\n  \
         spidernet-node deploy --sessions N [--json [path]] [...same flags as deploy]"
    );
    std::process::exit(2)
}

/// Splits `args` into valued flags (`--key value`) and bare switches.
fn parse_flags(args: &[String]) -> (HashMap<String, String>, Vec<String>) {
    let mut values = HashMap::new();
    let mut switches = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let Some(key) = arg.strip_prefix("--") else {
            eprintln!("unexpected argument: {arg}");
            usage()
        };
        match it.peek() {
            Some(next) if !next.starts_with("--") => {
                values.insert(key.to_string(), it.next().expect("peeked").clone());
            }
            _ => switches.push(key.to_string()),
        }
    }
    (values, switches)
}

fn get<T: std::str::FromStr>(values: &HashMap<String, String>, key: &str, default: T) -> T {
    match values.get(key) {
        Some(raw) => raw.parse().unwrap_or_else(|_| {
            eprintln!("invalid value for --{key}: {raw}");
            usage()
        }),
        None => default,
    }
}

fn require<T: std::str::FromStr>(values: &HashMap<String, String>, key: &str) -> T {
    match values.get(key) {
        Some(raw) => raw.parse().unwrap_or_else(|_| {
            eprintln!("invalid value for --{key}: {raw}");
            usage()
        }),
        None => {
            eprintln!("missing required flag --{key}");
            usage()
        }
    }
}

fn cluster_config(values: &HashMap<String, String>, peers: usize) -> ClusterConfig {
    let defaults = ClusterConfig::default();
    ClusterConfig {
        peers,
        jitter: get(values, "jitter", defaults.jitter),
        seed: get(values, "seed", 0),
        time_scale: get(values, "time-scale", 0.05),
        collect_window_ms: get(values, "collect-window-ms", defaults.collect_window_ms),
        quota: get(values, "quota", defaults.quota),
        failover_timeout_ms: get(values, "failover-timeout-ms", defaults.failover_timeout_ms),
        maintenance_period_ms: get(
            values,
            "maintenance-period-ms",
            defaults.maintenance_period_ms,
        ),
        collect_deadline_slack: get(
            values,
            "collect-deadline-slack",
            defaults.collect_deadline_slack,
        ),
        faults: NetFaultConfig::builder()
            .drop_prob(get(values, "drop-prob", 0.0))
            .extra_delay_ms(get(values, "extra-delay-ms", 0.0))
            .build(),
    }
}

fn serve(args: &[String]) {
    let (values, _switches) = parse_flags(args);
    let index: usize = require(&values, "index");
    let peers: usize = require(&values, "peers");
    let ports_raw: String = require(&values, "ports");
    let ports: Vec<u16> = ports_raw
        .split(',')
        .map(|p| {
            p.trim().parse().unwrap_or_else(|_| {
                eprintln!("invalid port in --ports: {p}");
                usage()
            })
        })
        .collect();
    if ports.len() != peers || index >= peers {
        eprintln!("--ports must list one port per peer and --index must be in range");
        usage()
    }
    let cfg = NodeConfig { index, cluster: cluster_config(&values, peers), ports };
    if let Err(e) = cfg.cluster.check() {
        eprintln!("{e}");
        usage()
    }
    if let Err(e) = run_node(cfg) {
        eprintln!("spidernet-node[{index}]: {e}");
        std::process::exit(1);
    }
}

fn run_deploy(args: &[String]) {
    let (values, switches) = parse_flags(args);
    let peers: usize = get(&values, "peers", 8);
    let seed: u64 = get(&values, "seed", 0);
    let node_exe = std::env::current_exe().expect("own executable path");
    let mut cfg = DeployConfig::standard(peers, seed, node_exe);
    cfg.cluster.time_scale = get(&values, "time-scale", cfg.cluster.time_scale);
    cfg.cluster.faults = NetFaultConfig::builder()
        .drop_prob(get(&values, "drop-prob", 0.0))
        .extra_delay_ms(get(&values, "extra-delay-ms", 0.0))
        .build();
    cfg.interval_ms = get(&values, "interval-ms", cfg.interval_ms);
    cfg.budget = get(&values, "budget", cfg.budget);
    if let Err(e) = cfg.check() {
        eprintln!("{e}");
        usage()
    }

    if values.contains_key("sessions") {
        let sessions: u64 = require(&values, "sessions");
        if sessions == 0 {
            eprintln!("--sessions must be at least 1");
            usage()
        }
        // Many short sessions: a lighter per-session stream at a pace
        // whose aggregate demand the loopback path can actually carry
        // (1k sessions at the single-session 25 ms cadence just measures
        // the shed policy), and a wider wall budget.
        cfg.frames = get(&values, "frames", 20);
        cfg.interval_ms = get(&values, "interval-ms", 200.0);
        cfg.timeout = Duration::from_secs(get(&values, "timeout-secs", 180));
        run_deploy_many(cfg, sessions, &values, &switches);
        return;
    }

    cfg.frames = get(&values, "frames", cfg.frames);
    cfg.timeout = Duration::from_secs(get(&values, "timeout-secs", 45));
    cfg.kill_primary = switches.iter().any(|s| s == "kill-primary");
    let kill = cfg.kill_primary;

    match deploy(cfg) {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            if kill && outcome.report.switches == 0 {
                eprintln!("deploy: primary killed but no backup switch happened");
                std::process::exit(1);
            }
            if outcome.report.delivered == 0 || !outcome.report.all_valid {
                eprintln!("deploy: stream did not deliver valid frames");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("deploy failed: {e}");
            std::process::exit(1);
        }
    }
}

/// `deploy --sessions N`: N concurrent composition + streaming sessions
/// through one loopback deployment, reporting per-session setup-latency
/// percentiles, aggregate frames/sec, backup switches, dropped messages,
/// connection counts, and peak child RSS — as text and (with
/// `--json [path]`) as BENCH_daemon.json. Without
/// injected faults it also replays the N compositions in process and
/// reports whether the two setup fingerprints match.
fn run_deploy_many(
    cfg: DeployConfig,
    sessions: u64,
    values: &HashMap<String, String>,
    switches: &[String],
) {
    // `--json` bare writes the default BENCH_daemon.json; with a value it
    // writes there (mirroring the bench binaries' `--json [path]`).
    let json_spec: Option<Option<String>> = match values.get("json") {
        Some(path) => Some(Some(path.clone())),
        None => switches.iter().any(|s| s == "json").then_some(None),
    };
    if switches.iter().any(|s| s == "kill-primary") {
        eprintln!("--kill-primary applies to single-session deploys");
        usage()
    }
    let peers = cfg.cluster.peers;
    let faults_active = cfg.cluster.faults.is_active();
    let cluster_cfg = cfg.cluster.clone();
    let (source, dest) = (cfg.source, cfg.dest);
    let (chain, budget) = (cfg.chain.clone(), cfg.budget);
    let per_compose_timeout = cfg.timeout;

    let outcome = match deploy_many(cfg, sessions) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("deploy --sessions {sessions} failed: {e}");
            std::process::exit(1);
        }
    };

    // The same N compositions, sequentially, in-process: request ids and
    // message content match, so the setup fingerprints must be bit-equal.
    // Under injected faults the two transports roll different fault
    // streams, so their fingerprints cannot match and the replay is
    // skipped.
    let fingerprint_match = (!faults_active).then(|| {
        let cluster = Cluster::start(cluster_cfg);
        let mut wires = Vec::with_capacity(sessions as usize);
        for request in 1..=sessions {
            match cluster.compose(source, dest, chain.clone(), budget, per_compose_timeout) {
                Some(setup) => wires.push(setup_to_wire(&setup)),
                None => {
                    eprintln!("verify: in-process composition {request} timed out");
                    std::process::exit(1);
                }
            }
        }
        let matched = setup_fingerprint(&wires) == outcome.setup_fingerprint;
        if !matched {
            // Aggregate fingerprints disagree: name the diverging
            // sessions so the report is actionable.
            for (inproc, socket) in wires.iter().zip(outcome.setups.iter()) {
                let metrics = |s: &spidernet_wire::WireSetup| {
                    [s.discovery_ms, s.probing_ms, s.init_ms, s.total_ms].map(f64::to_bits)
                };
                if inproc.path != socket.path
                    || inproc.backups != socket.backups
                    || metrics(inproc) != metrics(socket)
                    || inproc.ok != socket.ok
                {
                    eprintln!(
                        "verify: request {} diverges:\n  in-process ok={} path={:?} backups={:?} \
                         disc/probe/init/total = {}/{}/{}/{}\n  socket     ok={} path={:?} \
                         backups={:?} disc/probe/init/total = {}/{}/{}/{}",
                        socket.request,
                        inproc.ok,
                        inproc.path,
                        inproc.backups,
                        inproc.discovery_ms,
                        inproc.probing_ms,
                        inproc.init_ms,
                        inproc.total_ms,
                        socket.ok,
                        socket.path,
                        socket.backups,
                        socket.discovery_ms,
                        socket.probing_ms,
                        socket.init_ms,
                        socket.total_ms,
                    );
                }
            }
        }
        matched
    });

    let (p50, p90, p99) = (
        outcome.setup_percentile_ms(0.50),
        outcome.setup_percentile_ms(0.90),
        outcome.setup_percentile_ms(0.99),
    );
    let mean = outcome.setup_wall_ms.iter().sum::<f64>() / outcome.setup_wall_ms.len() as f64;
    let max = outcome.setup_wall_ms.iter().cloned().fold(0.0, f64::max);
    let frames_per_sec = outcome.frames_delivered as f64 / outcome.stream_secs.max(1e-9);
    let conns_opened: u64 = outcome.stats.iter().map(|s| s.conns_opened).sum();
    let conn_retries: u64 = outcome.stats.iter().map(|s| s.conn_retries).sum();
    let decode_errors: u64 = outcome.stats.iter().map(|s| s.decode_errors).sum();
    let wire_frames_tx: u64 = outcome.stats.iter().map(|s| s.frames_tx).sum();
    let wire_bytes_tx: u64 = outcome.stats.iter().map(|s| s.bytes_tx).sum();
    let msgs_dropped: u64 = outcome.stats.iter().map(|s| s.msgs_dropped).sum();

    println!(
        "deploy: {}/{} sessions composed over {peers} peers, \
         setup p50/p90/p99 = {p50:.1}/{p90:.1}/{p99:.1} ms, \
         {}/{} frames delivered ({frames_per_sec:.0} frames/s), \
         {} switches, {msgs_dropped} msgs dropped, \
         {conns_opened} conns, peak child RSS {:.1} MB",
        outcome.setups_ok,
        outcome.sessions,
        outcome.frames_delivered,
        outcome.frames_sent,
        outcome.switches,
        outcome.peak_child_rss_bytes as f64 / 1e6,
    );
    if let Some(ok) = fingerprint_match {
        println!(
            "verify: concurrent socket setups {} the in-process cluster (fingerprint {:#018x})",
            if ok { "match" } else { "DIVERGE from" },
            outcome.setup_fingerprint,
        );
    }

    if let Some(json_path) = &json_spec {
        let mut rep = BenchReport::new("daemon");
        rep.int("sessions", outcome.sessions)
            .int("setups_ok", outcome.setups_ok)
            .int("peers", peers as u64)
            .num("compose_secs", outcome.compose_secs)
            .num("stream_secs", outcome.stream_secs)
            .int("frames_sent", outcome.frames_sent)
            .int("frames_delivered", outcome.frames_delivered)
            .bool("all_valid", outcome.all_valid)
            .num("frames_per_sec", frames_per_sec)
            .int("switches", outcome.switches)
            .int("msgs_dropped", msgs_dropped)
            .int("conns_opened", conns_opened)
            .int("conn_retries", conn_retries)
            .int("decode_errors", decode_errors)
            .int("wire_frames_tx", wire_frames_tx)
            .int("wire_bytes_tx", wire_bytes_tx)
            .int("peak_child_rss_bytes", outcome.peak_child_rss_bytes)
            .int("setup_fingerprint", outcome.setup_fingerprint);
        let mut lat = BenchBlock::new();
        lat.num("p50_ms", p50)
            .num("p90_ms", p90)
            .num("p99_ms", p99)
            .num("mean_ms", mean)
            .num("max_ms", max);
        rep.nested("setup_latency", &lat);
        if let Some(ok) = fingerprint_match {
            rep.bool("fingerprint_match", ok);
        }
        match rep.write_spec(json_path) {
            Ok(p) => eprintln!("deploy: wrote {}", p.display()),
            Err(e) => {
                eprintln!("deploy: could not write report: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Err(e) = check_many(&outcome, faults_active, fingerprint_match) {
        eprintln!("deploy: {e}");
        std::process::exit(1);
    }
}

/// The exit rules of `deploy --sessions N`: `Err` names the first one a
/// run breaks. Without injected faults every session must compose and
/// every frame must arrive; with or without them some valid frame must
/// arrive, and the in-process replay (`fingerprint_match`, run only
/// without faults) must reproduce the socket setups.
fn check_many(
    outcome: &MultiDeployOutcome,
    faults_active: bool,
    fingerprint_match: Option<bool>,
) -> Result<(), String> {
    if !faults_active && outcome.setups_ok != outcome.sessions {
        let failed = outcome.sessions - outcome.setups_ok;
        return Err(format!("{failed} sessions failed to compose without faults"));
    }
    if outcome.frames_delivered == 0 || !outcome.all_valid {
        return Err("streams did not deliver valid frames".into());
    }
    if !faults_active && outcome.frames_delivered < outcome.frames_sent {
        let dropped: u64 = outcome.stats.iter().map(|s| s.msgs_dropped).sum();
        return Err(format!(
            "{} of {} frames lost without faults ({dropped} msgs dropped)",
            outcome.frames_sent - outcome.frames_delivered,
            outcome.frames_sent,
        ));
    }
    if fingerprint_match == Some(false) {
        return Err("socket and in-process setup fingerprints diverge".into());
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("deploy") => run_deploy(&args[1..]),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spidernet_wire::WireStats;

    /// 1,000 composed sessions of 20 frames each: `delivered` frames
    /// arrive valid, and the daemons count the rest as shed.
    fn outcome(delivered: u64) -> MultiDeployOutcome {
        let shed = WireStats { msgs_dropped: 20_000 - delivered, ..WireStats::default() };
        MultiDeployOutcome {
            sessions: 1_000,
            setups_ok: 1_000,
            setup_wall_ms: vec![1.0; 1_000],
            compose_secs: 1.0,
            stream_secs: 4.0,
            frames_sent: 20_000,
            frames_delivered: delivered,
            all_valid: true,
            switches: 0,
            stats: vec![shed, WireStats::default()],
            peak_child_rss_bytes: 0,
            setup_fingerprint: 0,
            setups: Vec::new(),
        }
    }

    #[test]
    fn lost_frames_fail_a_run_only_without_faults() {
        let short = outcome(19_453);
        let err = check_many(&short, false, Some(true)).unwrap_err();
        assert!(
            err.contains("547 of 20000 frames lost") && err.contains("547 msgs dropped"),
            "{err}"
        );
        assert_eq!(check_many(&short, true, None), Ok(()), "faults may cost frames");
        assert_eq!(check_many(&outcome(20_000), false, Some(true)), Ok(()));
    }

    #[test]
    fn no_frames_fail_a_run_with_or_without_faults() {
        assert!(check_many(&outcome(0), false, Some(true)).is_err());
        assert!(check_many(&outcome(0), true, None).is_err());
    }

    #[test]
    fn compose_failures_and_diverging_fingerprints_fail_a_run() {
        let full = outcome(20_000);
        assert!(check_many(&full, false, Some(false)).unwrap_err().contains("diverge"));
        let failed = MultiDeployOutcome { setups_ok: 998, ..outcome(20_000) };
        assert!(check_many(&failed, false, Some(true)).unwrap_err().starts_with("2 sessions"));
        assert_eq!(check_many(&failed, true, None), Ok(()), "faults may fail compositions");
    }
}
