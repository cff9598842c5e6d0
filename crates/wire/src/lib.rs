//! SpiderNet's wire protocol: a versioned, length-prefixed binary codec
//! for the full peer-to-peer message set — DHT lookup/reply/register,
//! BCP composition probes, session setup acks, maintenance keepalives,
//! media frames, and the control plane the deploy orchestrator speaks.
//!
//! The crate is transport-agnostic and dependency-free: it maps
//! [`WireMsg`] values to byte frames and back, nothing more. [`WireMsg`]
//! is also the message set of `spidernet-runtime`'s protocol engine: the
//! socket daemon layers TCP connections and this codec on top, while the
//! in-process cluster hands the values through channels unencoded.
//!
//! See `DESIGN.md` §12 for the frame layout and version-negotiation
//! rules in one table.

#![warn(missing_docs)]

pub mod codec;
pub mod error;
pub mod msg;
pub mod pool;

pub use codec::{Reader, Writer, MAX_ELEMS, MAX_PIXEL_BYTES};
pub use error::WireError;
pub use pool::BufPool;
pub use msg::{
    decode, encode, encode_to_vec, negotiate, FrameDecoder, WireMsg, WirePixels, WireProbe,
    WireReplica, WireSetup, WireStats, WireStreamReport, CONTROL_PEER, HEADER_LEN, MAGIC,
    MAX_PAYLOAD, PROTO_VERSION,
};
