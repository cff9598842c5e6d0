//! Fault-injection suite: deterministic adversarial schedules driving the
//! proactive recovery path end to end.
//!
//! Every scenario here is a seeded [`FaultPlan`] replayed by the core
//! fault lab, with the recovery invariants (no dead peer in a served
//! graph, no dead peer in a maintained backup, committed-resource
//! accounting exact) asserted between steps, and byte-identical output
//! demanded across worker-thread counts per the determinism contract.

use spidernet::core::experiments::faults::{
    churn_sweep, run, run_with, scenario, ChurnSweepConfig, FaultLabConfig,
};
use spidernet::core::workload::PopulationConfig;
use spidernet::sim::fault::{FaultAction, FaultPlan};
use spidernet::sim::metrics::counter;
use spidernet::util::par::par_map_with;

fn tiny() -> FaultLabConfig {
    FaultLabConfig {
        ip_nodes: 300,
        peers: 60,
        seed: 21,
        sessions: 10,
        population: PopulationConfig { functions: 10, ..PopulationConfig::default() },
        ..FaultLabConfig::default()
    }
}

/// The acceptance scenario: a plan that kills every component of the
/// primary service graph, one at a time with recovery time in between,
/// must see each hit recovered by a qualified backup — zero reactive
/// BCP, zero lost sessions — and replay byte-identically under any
/// parallel fan-out.
#[test]
fn killing_every_primary_component_recovers_without_reactive_bcp() {
    let base = tiny();
    let cfg = FaultLabConfig {
        sessions: 1,
        backup_upper_bound: 8.0, // plenty of backups for a lone session
        // A wide probe sweep: the qualified pool is what maintenance
        // replenishes backups from, so the plan's later kills need it deep.
        bcp: spidernet::core::bcp::BcpConfig::builder().budget(512).merge_cap(1024).build(),
        ..base
    };

    // Probe run: discover the primary's hosting peers (deterministic in
    // cfg, so the real run below starts from the identical world).
    let probe = scenario(&cfg, FaultPlan::new(0));
    let primary_peers: Vec<u64> = {
        let s = probe.net().sessions().sessions().next().expect("one session established");
        s.primary
            .components()
            .iter()
            .map(|&c| probe.net().registry().get(c).peer.raw())
            .collect()
    };
    assert!(!primary_peers.is_empty());
    drop(probe);

    let plan = FaultPlan::kill_each(0, &primary_peers, 1, 3).with_horizon(12);
    let rep = run_with(&cfg, plan.clone(), |sc| sc.verify_invariants().unwrap());
    assert!(rep.hits() >= 1, "the first kill must hit the primary");
    assert_eq!(rep.reactive(), 0, "every hit must be absorbed by a backup:\n{}", rep.to_csv());
    assert_eq!(rep.lost(), 0);
    assert_eq!(rep.switches(), rep.hits());
    assert_eq!(rep.surviving, 1, "the session must survive the whole plan");

    // The same plan replayed under parallel fan-outs of 1, 4, and 8
    // workers is byte-identical (each worker replays the full plan; all
    // copies and the sequential reference must agree).
    let reference = rep.to_csv();
    for threads in [1usize, 4, 8] {
        let outs = par_map_with(threads, vec![0u8; threads], |_, _| run(&cfg, plan.clone()).to_csv());
        for out in outs {
            assert_eq!(out, reference, "replay diverged at {threads} threads");
        }
    }
}

/// A random crash storm with revives holds the recovery invariants at
/// every step, and the trace/metrics counters agree with the report.
#[test]
fn crash_storm_with_revives_holds_invariants_every_step() {
    let cfg = tiny();
    let plan = FaultPlan::crash_storm(33, cfg.peers as u64, 0.08, 12, Some(4));
    let rep = run_with(&cfg, plan, |sc| sc.verify_invariants().unwrap());
    assert!(rep.crashes() > 0, "an 8% storm over 12 units must kill someone");
    assert_eq!(
        rep.metrics.value(counter::FAULTS_INJECTED),
        rep.crashes() + rep.revives(),
        "every applied fault action must be counted"
    );
    assert_eq!(rep.metrics.value(counter::RECOVERY_SWITCHES), rep.switches());
    assert_eq!(rep.metrics.value(counter::RECOVERY_REACTIVE), rep.reactive());
}

/// Correlated multi-peer crashes combined with soft-state expiry storms:
/// the expiry sweep reclaims every storm reservation within its unit and
/// the committed-resource ledger stays exact throughout.
#[test]
fn correlated_failures_and_soft_storms_leave_no_residue() {
    let cfg = tiny();
    let plan = FaultPlan::new(44)
        .soft_storm(0, 20)
        .at(2, FaultAction::CrashCorrelated { peers: vec![3, 9, 14] })
        .soft_storm(3, 15)
        .at(5, FaultAction::CrashCorrelated { peers: vec![21, 30] })
        .revive(6, 3)
        .soft_storm(7, 10)
        .with_horizon(9);
    let rep = run_with(&cfg, plan, |sc| {
        sc.verify_invariants().unwrap();
        assert_eq!(sc.net().state().soft_count(), 0, "soft state must drain every unit");
    });
    assert_eq!(rep.crashes(), 5);
    assert_eq!(rep.revives(), 1);
    for row in &rep.rows {
        assert_eq!(
            row.soft_granted, row.soft_expired,
            "unit {}: storm reservations must expire within their unit",
            row.unit
        );
    }
    // Saved + lost partition the reactive fallbacks.
    assert_eq!(rep.reactive(), rep.saved() + rep.lost());
}

/// A correlated crash that takes out a primary component *and* backups
/// simultaneously never lands a session on a graph containing any of the
/// dead peers (driver-level restatement of the core regression tests).
#[test]
fn correlated_crash_never_switches_onto_a_dead_peer() {
    let cfg = tiny();
    let probe = scenario(&cfg, FaultPlan::new(0));
    // Pair every session's first primary peer with one of its backup
    // peers, when it has any — the nastiest correlated pattern.
    let mut pair: Option<Vec<u64>> = None;
    for s in probe.net().sessions().sessions() {
        let pp = probe.net().registry().get(s.primary.components()[0]).peer.raw();
        if let Some((g, _)) = s.backups.first() {
            let bp = probe.net().registry().get(g.components()[0]).peer.raw();
            if bp != pp {
                pair = Some(vec![pp, bp]);
                break;
            }
        }
    }
    drop(probe);
    let Some(peers) = pair else {
        return; // no session maintained a backup in this world: vacuous
    };
    let plan = FaultPlan::new(0).crash_correlated(1, peers).with_horizon(4);
    run_with(&cfg, plan, |sc| sc.verify_invariants().unwrap());
}

/// The churn sweep produces identical CSV whatever the per-cell worker
/// thread count — the fig10 `--churn-sweep` determinism contract.
#[test]
fn churn_sweep_is_byte_identical_across_thread_counts() {
    let base = FaultLabConfig { sessions: 8, ..tiny() };
    let sweep = |threads: usize| {
        churn_sweep(&ChurnSweepConfig {
            base: FaultLabConfig { threads: Some(threads), ..base.clone() },
            rates: vec![0.02, 0.08],
            units: 8,
            revive_after: Some(3),
        })
        .to_csv()
    };
    let reference = sweep(1);
    for threads in [4usize, 8] {
        assert_eq!(sweep(threads), reference, "churn sweep diverged at {threads} threads");
    }
    assert_eq!(reference.lines().count(), 3, "header + one row per rate");
}

/// Replaying the same plan against the same config twice gives identical
/// per-unit rows and identical failure outcomes (not just identical
/// aggregate CSV).
#[test]
fn identical_plans_replay_identically() {
    let cfg = tiny();
    let plan = FaultPlan::parse("crash@1:5;expire@2:8;crash@3:5;revive@4:5;crash@6:12+17", 7, 60)
        .expect("valid spec");
    let a = run(&cfg, plan.clone());
    let b = run(&cfg, plan);
    assert_eq!(a.rows, b.rows);
    assert_eq!(a.to_csv(), b.to_csv());
    assert_eq!(a.surviving, b.surviving);
}

/// Crashing a known primary peer registers exactly the outcomes the
/// session manager produced: hits partition into switches and reactive
/// fallbacks, nothing is dropped on the floor.
#[test]
fn driver_hit_accounting_partitions_outcomes() {
    let cfg = FaultLabConfig { sessions: 3, ..tiny() };
    let probe = scenario(&cfg, FaultPlan::new(0));
    let victim = {
        let s = probe.net().sessions().sessions().next().expect("sessions established");
        probe.net().registry().get(s.primary.components()[0]).peer
    };
    drop(probe);

    let plan = FaultPlan::new(0).crash(0, victim.raw()).with_horizon(2);
    let rep = run(&cfg, plan);
    assert!(rep.hits() >= 1, "crashing a primary peer must register a hit");
    assert_eq!(rep.hits(), rep.switches() + rep.reactive());
}
