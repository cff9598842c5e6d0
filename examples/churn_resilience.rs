//! Long-lived sessions under peer churn: proactive failure recovery in
//! action. Establishes standing sessions, fails 1% of peers per time unit,
//! and reports how failures were absorbed (backup switch vs reactive
//! re-composition vs loss).
//!
//! ```text
//! cargo run --release --example churn_resilience
//! ```

use spidernet::core::bcp::BcpConfig;
use spidernet::core::recovery::FailureOutcome;
use spidernet::core::system::{SpiderNet, SpiderNetConfig};
use spidernet::core::workload::{random_request, PopulationConfig, RequestConfig};
use spidernet::sim::{FaultAction, FaultPlan};
use spidernet::util::id::PeerId;
use spidernet::util::rng::rng_for;

fn main() {
    let (seed, peers) = (2026, 150);
    let mut net =
        SpiderNet::build(&SpiderNetConfig::builder().ip_nodes(800).peers(peers).seed(seed).build());
    net.populate(&PopulationConfig { functions: 25, ..PopulationConfig::default() });

    // Standing streaming sessions with requirements tight enough that
    // Eq. 2 maintains a couple of backups each.
    let req_cfg = RequestConfig {
        functions: (2, 4),
        delay_bound_ms: (350.0, 600.0),
        loss_bound: (0.03, 0.06),
        max_failure_prob: 0.12,
        ..RequestConfig::default()
    };
    let bcp = BcpConfig::builder().budget(64).build();
    let mut rng = rng_for(seed, "sessions");
    let mut established = 0;
    while established < 60 {
        let req = random_request(net.overlay(), net.registry(), &req_cfg, &mut rng);
        if let Ok(outcome) = net.compose(&req, &bcp) {
            if net.establish(&req, outcome).is_ok() {
                established += 1;
            }
        }
    }
    println!(
        "{} sessions established, mean backups per session: {:.2}",
        net.sessions().len(),
        net.sessions().mean_backup_count()
    );

    // 20 time units of churn at the paper's 1%-per-unit rate; failed
    // peers rejoin 8 units later.
    let plan = FaultPlan::churn(seed, &mut rng_for(seed, "churn"), peers as u64, 0.01, 20, Some(8));
    let (mut hits, mut by_backup, mut by_reactive, mut lost) = (0u64, 0u64, 0u64, 0u64);

    for unit in 0..plan.horizon() {
        for action in plan.actions_at(unit) {
            let victim = match *action {
                FaultAction::Revive { peer } => {
                    net.revive_peer(PeerId::new(peer));
                    continue;
                }
                FaultAction::Crash { peer } => PeerId::new(peer),
                _ => continue,
            };
            for (sid, outcome) in net.fail_peer(victim) {
                hits += 1;
                match outcome {
                    FailureOutcome::RecoveredByBackup { rank, switch_ms } => {
                        by_backup += 1;
                        println!(
                            "  t={unit}: session {sid} recovered via backup #{rank} in {switch_ms:.0} ms"
                        );
                    }
                    FailureOutcome::NeedsReactive => {
                        if net.reactive_recover(sid, &bcp) {
                            by_reactive += 1;
                            println!("  t={unit}: session {sid} recovered reactively (full BCP)");
                        } else {
                            lost += 1;
                            println!("  t={unit}: session {sid} LOST");
                        }
                    }
                }
            }
        }
        net.maintenance_tick();
    }

    println!("\nchurn summary over 20 units:");
    println!("  sessions hit:          {hits}");
    println!("  recovered via backup:  {by_backup}");
    println!("  recovered reactively:  {by_reactive}");
    println!("  lost:                  {lost}");
    println!("  surviving sessions:    {}", net.sessions().len());
    if hits > 0 {
        println!("  backup recovery ratio: {:.1}%", 100.0 * by_backup as f64 / hits as f64);
    }
}
