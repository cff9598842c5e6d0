//! Deterministic discrete-event simulation engine.
//!
//! Reproduces the methodology of the paper's event-driven C++ overlay
//! simulator: virtual time, one time-ordered event queue, seeded peer
//! churn and fault schedules, and a metrics sink for protocol-overhead
//! accounting.
//!
//! * [`time`] — virtual time as integer microseconds (total order, no
//!   floating-point tie ambiguity);
//! * [`queue`] — the one event queue every simulated clock pops from:
//!   items due at `f64` model ms, earliest first, push order on ties;
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

pub mod export;
pub mod fault;
pub mod mc;
pub mod metrics;
pub mod queue;
pub mod time;
pub mod trace;

pub use export::TraceReport;
pub use fault::{FaultAction, FaultPlan};
pub use mc::{McConfig, McReport, McStats, McViolation, ModelSystem};
pub use metrics::{Counter, Histogram, Instruments, MetricsRegistry, ProtocolCounters};
pub use queue::EventQueue;
pub use time::SimTime;
pub use trace::{DropReason, TraceBuffer, TraceEvent};
