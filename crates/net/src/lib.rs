//! CityMesh wire format.
//!
//! A CityMesh packet carries its *entire* routing state in the header:
//! the compressed building route (a sequence of waypoint building IDs,
//! paper §3 step 2) plus the conduit width. Relaying APs make the
//! rebroadcast decision from the header and their cached city map
//! alone — no per-flow or per-neighbor state exists anywhere in the
//! network, which is the property that lets CityMesh scale to millions
//! of nodes.
//!
//! Layout goals, in order:
//!
//! 1. **Small route encoding.** The paper reports a median compressed
//!    source-route of 175 bits and a 90th percentile of 225 bits. We
//!    bit-pack waypoint IDs at `⌈log₂(max_id+1)⌉` bits each
//!    ([`RouteEncoding::Absolute`]) and also provide a delta/zigzag
//!    varint mode ([`RouteEncoding::Delta`]) evaluated as an ablation.
//! 2. **Integrity lives in the sealed plane.** The header carries no
//!    checksum of its own: the sealed plane (`citymesh_core::secure`)
//!    authenticates it with an HMAC and the payload with an AEAD, so a
//!    flipped bit is a counted authentication failure at the receiver
//!    (`citymesh_core::TamperMode`), and decoding hostile bytes is
//!    always an `Err`, never a panic.
//! 3. **Forward compatibility.** A 4-bit version plus reserved flag
//!    bits; decoders reject unknown versions loudly.
//!
//! Submodules: [`bitio`] (bit-level codec), [`header`] (the CityMesh
//! header).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitio;
pub mod header;

pub use bitio::{BitReader, BitWriter};
pub use header::{CityMeshHeader, MessageKind, RouteEncoding, MAX_CONDUIT_WIDTH_M};

/// Errors produced while decoding a CityMesh header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetError {
    /// Input ended before the structure was complete.
    Truncated,
    /// Version field is not one this decoder understands.
    UnsupportedVersion(u8),
    /// A length or count field exceeds protocol limits.
    FieldOverflow(&'static str),
    /// A variable-length waypoint field ran past 64 bits.
    VarintOverflow,
    /// Unknown message kind discriminant.
    UnknownKind(u8),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Truncated => write!(f, "frame truncated"),
            NetError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            NetError::FieldOverflow(what) => write!(f, "field overflow: {what}"),
            NetError::VarintOverflow => write!(f, "varint overflow"),
            NetError::UnknownKind(k) => write!(f, "unknown message kind {k}"),
        }
    }
}

impl std::error::Error for NetError {}
