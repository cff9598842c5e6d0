//! Wide-area deployment of SpiderNet — the PlanetLab stand-in.
//!
//! The paper's prototype is multi-threaded node software deployed on 102
//! PlanetLab hosts across the US and Europe, populated with six multimedia
//! service components and driven by a customizable video-streaming
//! application (§6.2). This crate reproduces that system twice over one
//! shared protocol engine and one message set, the `spidernet-wire`
//! [`WireMsg`](spidernet_wire::WireMsg) — in-process (one discrete-event
//! loop in model time) and as real networked OS processes (TCP + the wire
//! codec):
//!
//! * [`wan`] — a measured-RTT-scale wide-area delay model (regions, jitter);
//! * [`media`] — the six multimedia components as real byte transforms over
//!   synthetic video frames;
//! * [`node`] — the transport-agnostic protocol engine ([`node::PeerNode`],
//!   each call writing its sends, timers and results into one
//!   [`node::Outbox`]), which checks every frame at its entry, the
//!   sender-side fault rule both transports apply, and the shared
//!   deterministic environment ([`node::World`]);
//! * [`cluster`] — the in-process runtime: every peer's engine stepped by
//!   one event queue keyed by model ms (`spidernet-sim`'s, which each
//!   daemon runs too); DHT lookups, BCP probes, session setup acks, heartbeats, and
//!   media frames all travel hop by hop with injected WAN latencies, and
//!   the caller's thread fires the events;
//! * [`mc`] — the model-checker adapter: `PeerNode`s over a virtual
//!   network filled from their outboxes, exposing every delivery
//!   interleaving (plus drop/duplicate/crash faults) to the
//!   `spidernet-sim` explorer;
//! * [`net`] — the socket transport: the Linux `spidernet-node` daemon (one
//!   OS process and one thread per peer: an `epoll` loop owning every
//!   connection, the engine and its model-time event queue, woken by a
//!   socket or a `timerfd`), its control client, and the loopback
//!   `deploy` orchestrator;
//! * [`experiments`] — the Fig. 10 driver (session setup time vs function
//!   number, decomposed into discovery / probing / session-init phases).

#![warn(missing_docs)]

pub mod cluster;
#[cfg(target_os = "linux")]
pub(crate) mod evnet;
pub mod experiments;
pub mod mc;
pub mod media;
pub mod net;
pub mod node;
#[cfg(target_os = "linux")]
pub(crate) mod poll;
pub mod wan;

pub use cluster::Cluster;
pub use mc::{CheckedWorld, McAction, McScenario, NetModel};
pub use media::{Frame, MediaFunction};
pub use node::{
    ClusterConfig, NetFaultConfig, NetFaultConfigBuilder, Outbox, PeerNode, SetupResult,
    StreamReport, Timer, World,
};
pub use wan::{Region, WanModel};
