//! The paper's motivating application (§6.2): customizable wide-area P2P
//! video streaming with desired transformations — on the in-process
//! (PlanetLab stand-in) runtime, surviving a killed component peer.
//!
//! ```text
//! cargo run --release --example video_streaming
//! ```

use spidernet::runtime::cluster::{Cluster, ClusterConfig};
use spidernet::runtime::media::MediaFunction;
use spidernet::util::id::PeerId;
use std::time::Duration;

fn main() {
    // 102 peers across three WAN regions; each hosts one of the six media
    // components (≈17 replicas per function, as in the paper). Reported
    // times are model ms.
    let cluster = Cluster::start(ClusterConfig::default());
    for f in MediaFunction::ALL {
        println!("{:>16}: {} replicas", f.name(), cluster.replica_count(f));
    }

    // The viewer wants a down-scaled stream with a stock ticker burned in.
    let chain = vec![MediaFunction::DownScale, MediaFunction::StockTicker];
    let source = PeerId::new(0);
    let viewer = PeerId::new(55);
    let setup = cluster
        .compose(source, viewer, chain, 16, Duration::from_secs(30))
        .expect("driver timeout");
    assert!(setup.ok, "no composition found");
    println!(
        "\nsession setup in {:.0} ms (discovery {:.0} + probing {:.0} + init {:.0})",
        setup.total_ms, setup.discovery_ms, setup.probing_ms, setup.init_ms
    );
    println!("primary path: {:?}, {} backup paths", setup.path, setup.backups.len());

    // Kill the first component peer, then stream 60 frames at 25 fps
    // (40 ms interval): the source detects the ack gap and fails over.
    let victim = setup.path[0];
    println!("!! killing component peer {victim}");
    cluster.kill(victim);
    let report = cluster
        .stream(source, &setup, 60, 40.0, (64, 48), Duration::from_secs(60))
        .expect("stream timeout");
    println!(
        "\nstream report: sent {}, delivered {}, valid {}, failovers {}",
        report.sent, report.delivered, report.all_valid, report.switches
    );
    println!("final path: {:?}", report.final_path);
    assert!(report.switches >= 1, "expected a failover after the kill");
    assert!(report.all_valid, "delivered frames must match the transform chain");
}
