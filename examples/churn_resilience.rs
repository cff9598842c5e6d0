//! Long-lived sessions under peer churn: proactive failure recovery in
//! action. Establishes standing sessions, fails 1% of peers per time unit,
//! and reports how failures were absorbed (backup switch vs reactive
//! re-composition vs loss).
//!
//! ```text
//! cargo run --release --example churn_resilience
//! ```

use spidernet::core::bcp::BcpConfig;
use spidernet::core::scenario::{Recovery, Scenario};
use spidernet::core::system::{SpiderNet, SpiderNetConfig};
use spidernet::core::workload::{PopulationConfig, RequestConfig};
use spidernet::sim::FaultPlan;
use spidernet::util::rng::rng_for;

fn main() {
    let (seed, peers) = (2026, 150);
    let mut net =
        SpiderNet::build(&SpiderNetConfig::builder().ip_nodes(800).peers(peers).seed(seed).build());
    net.populate(&PopulationConfig { functions: 25, ..PopulationConfig::default() });

    // 20 time units of churn at the paper's 1%-per-unit rate; failed
    // peers rejoin 8 units later.
    let plan = FaultPlan::churn(seed, &mut rng_for(seed, "churn"), peers as u64, 0.01, 20, Some(8));
    let mut sc = Scenario::new(net, plan, BcpConfig::builder().budget(64).build());

    // Standing streaming sessions with requirements tight enough that
    // Eq. 2 maintains a couple of backups each.
    let req_cfg = RequestConfig {
        functions: (2, 4),
        delay_bound_ms: (350.0, 600.0),
        loss_bound: (0.03, 0.06),
        max_failure_prob: 0.12,
        ..RequestConfig::default()
    };
    sc.establish_standing(60, &req_cfg, &mut rng_for(seed, "sessions"));
    println!(
        "{} sessions established, mean backups per session: {:.2}",
        sc.net().sessions().len(),
        sc.net().sessions().mean_backup_count()
    );

    let (mut hits, mut by_backup, mut by_reactive, mut lost) = (0u64, 0u64, 0u64, 0u64);
    for unit in 0..20 {
        for hit in sc.step(|_| {}).hits {
            hits += 1;
            let sid = hit.session;
            match hit.recovery {
                Recovery::Backup { rank, switch_ms } => {
                    by_backup += 1;
                    println!(
                        "  t={unit}: session {sid} recovered via backup #{rank} in {switch_ms:.0} ms"
                    );
                }
                Recovery::Reactive(_) => {
                    by_reactive += 1;
                    println!("  t={unit}: session {sid} recovered reactively (full BCP)");
                }
                Recovery::Lost => {
                    lost += 1;
                    println!("  t={unit}: session {sid} LOST");
                }
            }
        }
    }

    println!("\nchurn summary over 20 units:");
    println!("  sessions hit:          {hits}");
    println!("  recovered via backup:  {by_backup}");
    println!("  recovered reactively:  {by_reactive}");
    println!("  lost:                  {lost}");
    println!("  surviving sessions:    {}", sc.net().sessions().len());
    if hits > 0 {
        println!("  backup recovery ratio: {:.1}%", 100.0 * by_backup as f64 / hits as f64);
    }
}
