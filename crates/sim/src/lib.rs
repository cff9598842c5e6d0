//! Deterministic discrete-event simulation engine.
//!
//! Reproduces the methodology of the paper's event-driven C++ overlay
//! simulator: virtual time, a total-order event queue, seeded peer churn
//! and fault schedules, and a metrics sink for protocol-overhead
//! accounting.
//!
//! * [`time`] — virtual time as integer microseconds (total order, no
//!   floating-point tie ambiguity);
//! * [`event_core`] — the indexed, allocation-free event queue (u32
//!   handler ids, cancel-by-generation, FIFO tie-breaking);
//! * [`fault`] — seeded, replayable fault-injection plans: random churn
//!   ("1% of peers fail per time unit"), crash/revive schedules,
//!   correlated failures, soft-state expiry storms;
//! * [`mc`] — the message-passing model checker core: bounded BFS and
//!   seeded random walks over any [`mc::ModelSystem`], with state-hash
//!   dedup and minimized counterexample schedules;
//! * [`metrics`] — the interned counter/histogram registry for protocol
//!   messages, with per-session scoping and deterministic merge;
//! * [`trace`] — the typed protocol event ring (compiled out without the
//!   `trace` cargo feature);
//! * [`export`] — `TRACE_<name>.json` report rendering for the figure
//!   binaries.

#![warn(missing_docs)]

pub mod event_core;
pub mod export;
pub mod fault;
pub mod mc;
pub mod metrics;
pub mod time;
pub mod trace;

pub use event_core::{EventCore, EventKey, HandlerId};
pub use export::TraceReport;
pub use fault::{FaultAction, FaultPlan};
pub use mc::{McConfig, McReport, McStats, McViolation, ModelSystem};
pub use metrics::{Counter, Histogram, Instruments, MetricsRegistry, ProtocolCounters};
pub use time::SimTime;
pub use trace::{DropReason, TraceBuffer, TraceEvent};
