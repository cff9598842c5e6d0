//! Network topology substrate for SpiderNet.
//!
//! The paper's simulator generates a 10,000-node power-law IP network with
//! Inet-3.0, randomly promotes 1,000 nodes to SpiderNet peers, connects them
//! into a latency-aware mesh overlay, and routes both IP-layer and
//! overlay-layer traffic over shortest paths. This crate reproduces that
//! pipeline:
//!
//! * [`graph`] — the weighted undirected graph both layers share;
//! * [`inet`] — a degree-based power-law Internet generator standing in for
//!   Inet-3.0 (see DESIGN.md §2 for the substitution argument);
//! * [`routing`] — Dijkstra single-source shortest paths, recording each
//!   node's tree edge by id;
//! * [`overlay`] — peer selection and overlay construction, with per-link
//!   latency/capacity derived from the underlying IP paths;
//! * [`flow`] — the shared-bandwidth contention model: active streams as
//!   flows over their route's links, with order-independent max-min
//!   fair-share rates recomputed on flow add/remove.

#![warn(missing_docs)]

pub mod flow;
pub mod graph;
pub mod inet;
pub mod overlay;
pub mod routing;

pub use flow::{FlowKey, FlowNet, LinkId};
pub use graph::{EdgeAttrs, EdgeId, Graph, NodeIndex};
pub use inet::{generate_power_law, InetConfig};
pub use overlay::{Hop, Overlay, OverlayConfig, OverlayLink};
pub use routing::{dijkstra, PathResult};
