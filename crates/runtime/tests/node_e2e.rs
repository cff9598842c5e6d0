//! End-to-end tests of the socket transport: real `spidernet-node`
//! processes on loopback TCP, compared against the in-process cluster.

use spidernet_runtime::net::{deploy, deploy_many, setup_fingerprint, DeployConfig};
use spidernet_runtime::{Cluster, MediaFunction};
use spidernet_util::id::PeerId;
use std::io::ErrorKind;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn node_exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_spidernet-node"))
}

const TIMEOUT: Duration = Duration::from_secs(20);

/// The headline smoke test: an 8-process loopback deployment produces the
/// same composition (path, backups, model-time metrics bit-for-bit) and
/// the same delivered pixels (order-independent digest) as the in-process
/// cluster built from the identical config and seed.
#[test]
fn socket_deploy_matches_in_process_cluster() {
    let cfg = DeployConfig::standard(8, 42, node_exe());
    let cluster_cfg = cfg.cluster.clone();
    let (source, dest) = (cfg.source, cfg.dest);
    let (chain, budget) = (cfg.chain.clone(), cfg.budget);
    let (frames, interval_ms, dims) = (cfg.frames, cfg.interval_ms, cfg.dims);

    let outcome = deploy(cfg).expect("loopback deployment completes");
    assert!(outcome.setup.ok, "socket composition succeeds");
    assert_eq!(outcome.report.sent, frames);
    assert_eq!(outcome.report.delivered, frames, "no faults: every frame lands");
    assert!(outcome.report.all_valid, "delivered frames match the transform chain");

    let cluster = Cluster::start(cluster_cfg);
    let setup = cluster
        .compose(source, dest, chain, budget, TIMEOUT)
        .expect("in-process composition completes");
    assert!(setup.ok);

    // The composition outcome is a pure function of message content, so
    // both transports agree exactly — including the f64 metric bits.
    let path: Vec<u64> = setup.path.iter().map(|p| p.raw()).collect();
    assert_eq!(outcome.setup.path, path, "selected path matches");
    let backups: Vec<Vec<u64>> =
        setup.backups.iter().map(|b| b.iter().map(|p| p.raw()).collect()).collect();
    assert_eq!(outcome.setup.backups, backups, "backup paths match");
    for (name, socket, inproc) in [
        ("discovery", outcome.setup.discovery_ms, setup.discovery_ms),
        ("probing", outcome.setup.probing_ms, setup.probing_ms),
        ("init", outcome.setup.init_ms, setup.init_ms),
        ("total", outcome.setup.total_ms, setup.total_ms),
    ] {
        assert_eq!(
            socket.to_bits(),
            inproc.to_bits(),
            "{name} metric differs: socket {socket} vs in-process {inproc}"
        );
    }

    let report = cluster
        .stream(source, &setup, frames, interval_ms, (dims.0 as usize, dims.1 as usize), TIMEOUT)
        .expect("in-process stream completes");
    assert_eq!(report.delivered, frames);
    assert!(report.all_valid);
    assert_eq!(
        outcome.report.delivery_digest, report.delivery_digest,
        "delivered frame pixels are byte-identical across transports"
    );
}

/// Killing the primary path's head mid-stream forces a proactive switch
/// to a probed backup path — no reactive recomposition.
#[test]
fn kill_primary_switches_to_backup() {
    let mut cfg = DeployConfig::standard(8, 7, node_exe());
    cfg.kill_primary = true;
    let outcome = deploy(cfg).expect("deployment survives the kill");
    assert!(outcome.setup.ok);
    assert!(outcome.report.switches >= 1, "backup switchover happened");
    assert!(outcome.report.delivered > 0, "frames kept flowing after the kill");
    assert!(outcome.report.all_valid, "post-switch frames still transform correctly");
    assert_ne!(
        outcome.report.final_path.first(),
        outcome.setup.path.first(),
        "the final path no longer starts at the killed peer"
    );
}

/// Two deployments with the same seed report the same fingerprint: the
/// selected path, backups, model-time metrics, and delivered pixels are
/// all reproducible even though wall-clock scheduling differs. The values
/// are pinned, so a transport change cannot move them unnoticed.
#[test]
fn deploy_fingerprint_is_deterministic() {
    let a = deploy(DeployConfig::standard(8, 1, node_exe())).expect("first run");
    let b = deploy(DeployConfig::standard(8, 1, node_exe())).expect("second run");
    assert_eq!(a.fingerprint, b.fingerprint, "same seed, same outcome");
    assert_eq!(a.fingerprint, 11339128649239922144, "seed 1 fingerprint moved");
    let c = deploy(DeployConfig::standard(8, 2, node_exe())).expect("seed 2 run");
    assert_eq!(c.fingerprint, 153586704732107688, "seed 2 fingerprint moved");
}

/// `deploy` and `deploy_many` run one driver: a single session composes
/// the same setup through either entry point.
#[test]
fn deploy_and_deploy_many_compose_the_same_single_session() {
    let one = deploy(DeployConfig::standard(8, 11, node_exe())).expect("deploy");
    let many = deploy_many(DeployConfig::standard(8, 11, node_exe()), 1).expect("deploy_many");
    assert_eq!(setup_fingerprint(&[one.setup]), many.setup_fingerprint);
}

/// `NetFaultConfig` means the same thing in both deployments: the socket
/// transport drops droppable traffic at the sender's network layer, the
/// protocol rides out the loss, and the drop counters move in both.
#[test]
fn fault_injection_applies_in_both_transports() {
    // Message loss sits on the composition critical path (a dropped DHT
    // reply fails that setup, by design — see the in-process
    // `lossy_network_degrades_without_wedging`), so any individual
    // deployment may legitimately fail to compose. Retry across seeds;
    // what must hold is that a lossy deployment can still complete and
    // that the drop counters move in BOTH transports.
    let mut outcome = None;
    let mut cluster_cfg = None;
    for seed in [5u64, 105, 205, 305] {
        let mut cfg = DeployConfig::standard(8, seed, node_exe());
        cfg.cluster.faults.drop_prob = 0.04;
        cfg.cluster.faults.extra_delay_ms = 30.0;
        cluster_cfg = Some(cfg.cluster.clone());
        if let Ok(o) = deploy(cfg) {
            outcome = Some(o);
            break;
        }
    }
    let outcome = outcome.expect("a lossy deployment completed within four attempts");
    assert!(outcome.setup.ok, "composition succeeds despite loss");
    assert!(outcome.report.delivered > 0);
    let socket_dropped: u64 = outcome.stats.iter().map(|s| s.msgs_dropped).sum();
    assert!(socket_dropped > 0, "socket transport dropped droppable traffic");

    // Same fault config in the in-process transport: setups may fail, but
    // the injector must fire on the same message classes.
    let cluster = Cluster::start(cluster_cfg.expect("at least one attempt ran"));
    let chain = vec![MediaFunction::ALL[0], MediaFunction::ALL[1]];
    for _ in 0..3 {
        let _ = cluster.compose(PeerId::new(2), PeerId::new(3), chain.clone(), 8, TIMEOUT);
        if cluster.messages_dropped() > 0 {
            break;
        }
    }
    assert!(cluster.messages_dropped() > 0, "in-process transport dropped traffic too");
}

/// Out-of-range settings are refused before a daemon binds or the
/// orchestrator spawns anything: the CLI exits with usage status 2, the
/// library entry points return `InvalidInput`. Without the check,
/// `--time-scale inf` reached the daemon's model-to-wall conversion and
/// panicked it at its first delayed send (its startup registration: peer
/// 0 of 8 has its function key rooted at another peer), `deploy` asserted on too few
/// peers or zero sessions, and a zero budget waited out the timeout.
#[test]
fn hostile_settings_are_refused_before_anything_starts() {
    // The settings check runs before the daemon binds any of these ports.
    let ports = "7001,7002,7003,7004,7005,7006,7007,7008";
    for args in [
        &["serve", "--index", "0", "--peers", "8", "--ports", ports, "--time-scale", "inf"][..],
        &["deploy", "--peers", "4"],
        &["deploy", "--sessions", "0"],
        &["deploy", "--budget", "0"],
    ] {
        let mut child = Command::new(node_exe())
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn spidernet-node");
        let deadline = Instant::now() + TIMEOUT;
        let status = loop {
            if let Some(status) = child.try_wait().expect("wait on spidernet-node") {
                break status;
            }
            if Instant::now() >= deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("{args:?} still running after {TIMEOUT:?}");
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        assert_eq!(status.code(), Some(2), "{args:?} must be a usage error, got {status}");
    }
    let kind = |e: Option<std::io::Error>| e.map(|e| e.kind());
    let invalid = Some(ErrorKind::InvalidInput);
    assert_eq!(kind(deploy(DeployConfig::standard(4, 0, node_exe())).err()), invalid);
    assert_eq!(kind(deploy_many(DeployConfig::standard(8, 0, node_exe()), 0).err()), invalid);
}
