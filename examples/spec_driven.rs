//! Spec-driven composition: author the composite request in the textual
//! specification format (the QoSTalk stand-in), then compose it under
//! parallel DAG semantics, where the worst branch bounds the QoS.
//!
//! ```text
//! cargo run --release --example spec_driven
//! ```

use spidernet::core::bcp::BcpConfig;
use spidernet::core::model::component::ServiceComponent;
use spidernet::core::spec::parse_spec;
use spidernet::core::system::{SpiderNet, SpiderNetConfig};
use spidernet::util::id::{ComponentId, FunctionId, PeerId};
use spidernet::util::qos::QosVector;
use spidernet::util::res::ResourceVector;

const SPEC: &str = "
    # Adaptive content distribution with an optional enrichment branch:
    # classify feeds either enrich (heavy) or passthrough (light), both
    # feed package.
    function classify
    function enrich
    function passthrough
    function package
    dep 0 -> 1
    dep 0 -> 2
    dep 1 -> 3
    dep 2 -> 3
    max_delay_ms 900
    max_loss 0.08
    bandwidth_mbps 1.2
    max_failure_prob 0.3
";

fn main() {
    let mut net =
        SpiderNet::build(&SpiderNetConfig::builder().ip_nodes(400).peers(70).seed(99).build());

    // Provision three replicas of each named function.
    for (fi, name) in ["classify", "enrich", "passthrough", "package"].iter().enumerate() {
        for r in 0..3u64 {
            net.add_component(
                name,
                ServiceComponent {
                    id: ComponentId::new(0),
                    peer: PeerId::new(8 + fi as u64 * 3 + r),
                    function: FunctionId::new(0),
                    perf_qos: QosVector::delay_loss(12.0 + 6.0 * r as f64, 0.002),
                    resources: ResourceVector::new(0.15, 32.0),
                    out_bandwidth_mbps: 1.0,
                    failure_prob: 0.01,
                },
            );
        }
    }

    // Parse the spec against the live catalog and instantiate it.
    let spec = {
        let mut catalog = net.registry().catalog().clone();
        
        parse_spec(SPEC, &mut catalog).expect("spec parses")
    };
    println!(
        "spec: {} functions, {} branch paths, delay bound {} ms",
        spec.function_graph.len(),
        spec.function_graph.branch_paths().len(),
        spec.max_delay_ms
    );
    let request = spec.into_request(PeerId::new(0), PeerId::new(1)).expect("valid request");

    let outcome = net
        .compose(&request, &BcpConfig::builder().budget(32).build())
        .expect("spec-driven composition succeeds");
    println!(
        "\nparallel semantics: worst-branch delay {:.1} ms, ψ {:.4}",
        outcome.eval.qos[0], outcome.eval.cost
    );
}
