//! Cross-crate integration on the in-process runtime: compose over the WAN
//! model, stream transformed media, serve several callers.

use spidernet::runtime::cluster::{Cluster, ClusterConfig};
use spidernet::runtime::media::MediaFunction;
use spidernet::util::id::PeerId;
use std::time::Duration;

fn config(peers: usize, seed: u64) -> ClusterConfig {
    ClusterConfig { peers, seed, ..ClusterConfig::default() }
}

const TIMEOUT: Duration = Duration::from_secs(30);

#[test]
fn full_prototype_pipeline() {
    let cluster = Cluster::start(config(36, 11));
    // ≈6 replicas per function at 36 peers.
    for f in MediaFunction::ALL {
        assert_eq!(cluster.replica_count(f), 6);
    }
    let chain =
        vec![MediaFunction::SubImage, MediaFunction::UpScale, MediaFunction::WeatherTicker];
    let setup = cluster
        .compose(PeerId::new(1), PeerId::new(30), chain.clone(), 12, TIMEOUT)
        .expect("driver timeout");
    assert!(setup.ok);
    assert_eq!(setup.functions, chain);
    // Setup decomposition: all phases present, totals consistent.
    assert!(setup.discovery_ms > 0.0 && setup.probing_ms > 0.0 && setup.init_ms > 0.0);

    let report = cluster
        .stream(PeerId::new(1), &setup, 15, 30.0, (20, 20), TIMEOUT)
        .expect("stream timeout");
    assert_eq!(report.sent, 15);
    assert_eq!(report.delivered, 15);
    // (20,20) → sub-image (10,10) → up-scale (20,20) → ticker: verified
    // end-to-end by the destination.
    assert!(report.all_valid);
}

#[test]
fn concurrent_sessions_do_not_interfere() {
    let cluster = Cluster::start(config(36, 12));
    let chains = [
        vec![MediaFunction::DownScale, MediaFunction::Requantize],
        vec![MediaFunction::StockTicker, MediaFunction::SubImage],
        vec![MediaFunction::UpScale],
    ];
    // Issue all three setups from different sources before waiting.
    let setups: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = chains
            .iter()
            .enumerate()
            .map(|(i, chain)| {
                let cluster = &cluster;
                let chain = chain.clone();
                s.spawn(move || {
                    cluster.compose(
                        PeerId::new(i as u64),
                        PeerId::new(30 + i as u64),
                        chain,
                        8,
                        TIMEOUT,
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("no panic")).collect()
    });
    for (i, setup) in setups.iter().enumerate() {
        let setup = setup.as_ref().expect("timeout");
        assert!(setup.ok, "session {i} failed to set up");
        assert_eq!(setup.functions, chains[i]);
    }
}

#[test]
fn dht_and_probe_accounting_grows_with_requests() {
    let cluster = Cluster::start(config(24, 13));
    let h0 = cluster.dht_hops();
    let p0 = cluster.probes_sent();
    for i in 0..3u64 {
        let _ = cluster.compose(
            PeerId::new(i),
            PeerId::new(20),
            vec![MediaFunction::Requantize, MediaFunction::DownScale],
            6,
            TIMEOUT,
        );
    }
    assert!(cluster.dht_hops() > h0);
    assert!(cluster.probes_sent() > p0);
}
