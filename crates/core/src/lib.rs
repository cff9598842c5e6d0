//! SpiderNet core: the paper's primary contribution.
//!
//! * [`model`] — service components, function graphs with dependency and
//!   commutation links, service graphs, and composition requests;
//! * [`state`] — the overlay's live resource state: per-peer capacities,
//!   per-link bandwidth, soft (probe-time) and committed (session-time)
//!   allocations, and peer liveness;
//! * [`paths`] — cached overlay shortest-path lookups used to price service
//!   links;
//! * [`bcp`] — the bounded composition probing protocol (paper §4);
//! * [`selection`] — destination-side branch merging, qualification, and
//!   ψ-cost optimal composition selection (paper §4.3, Eq. 1);
//! * [`recovery`] — proactive failure recovery: adaptive backup count
//!   (Eq. 2), backup selection, maintenance probing, and switchover
//!   (paper §5);
//! * [`baselines`] — the paper's comparison algorithms: optimal
//!   (unbounded flooding), random, static, and the centralized
//!   global-state scheme;
//! * [`workload`] — the simulation study's workload generators (§6.1);
//! * [`loadgen`] — the open-loop workload engine: Poisson/diurnal/flash
//!   arrivals, Zipf-skewed function popularity, and load cells with
//!   admission control under a fault plan;
//! * [`system`] — the `SpiderNet` facade tying overlay, DHT discovery,
//!   state, and protocol together;
//! * [`scenario`] — the one simulator loop every unit-stepped driver
//!   runs: session expiry, a fault plan's crashes, revives and soft
//!   storms with recovery, arrivals, backup maintenance, and the clock;
//! * [`experiments`] — drivers regenerating the paper's figures;
//! * [`trust`] — decentralized trust management (§8 future work): beta
//!   reputation feeding the next-hop metric;
//! * [`spec`] — the textual request-specification parser (QoSTalk
//!   stand-in).

#![warn(missing_docs)]

pub mod baselines;
pub mod bcp;
pub mod experiments;
pub mod loadgen;
pub mod model;
pub mod paths;
pub mod recovery;
pub mod scenario;
pub mod selection;
pub mod spec;
pub mod state;
pub mod system;
pub mod trust;
pub mod workload;

pub use model::{
    CompositionRequest, FunctionGraph, Registry, ServiceComponent, ServiceGraph,
};
pub use system::SpiderNet;
