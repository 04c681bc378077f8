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
//! 2. **Self-contained integrity.** A CRC-32C trailer detects
//!    corruption on the lossy broadcast medium; end-to-end authenticity
//!    is layered above by `citymesh-crypto` sealed messages.
//! 3. **Forward compatibility.** A 4-bit version plus reserved flag
//!    bits; decoders reject unknown versions loudly.
//!
//! Submodules: [`bitio`] (bit-level codec), [`varint`] (LEB128),
//! [`crc`] (CRC-32C), [`header`] (the CityMesh header), [`packet`]
//! (framing + payload).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitio;
pub mod crc;
pub mod header;
pub mod packet;
pub mod varint;

pub use bitio::{BitReader, BitWriter};
pub use crc::crc32c;
pub use header::{CityMeshHeader, MessageKind, RouteEncoding, MAX_CONDUIT_WIDTH_M};
pub use packet::{Packet, MAX_PAYLOAD_LEN};

/// Errors produced while decoding CityMesh frames.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetError {
    /// Input ended before the structure was complete.
    Truncated,
    /// Version field is not one this decoder understands.
    UnsupportedVersion(u8),
    /// The CRC-32C trailer did not match the frame contents.
    BadChecksum {
        /// CRC computed over the received bytes.
        computed: u32,
        /// CRC carried in the trailer.
        stored: u32,
    },
    /// A length or count field exceeds protocol limits.
    FieldOverflow(&'static str),
    /// A varint ran past its maximum encoded length.
    VarintOverflow,
    /// Unknown message kind discriminant.
    UnknownKind(u8),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Truncated => write!(f, "frame truncated"),
            NetError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            NetError::BadChecksum { computed, stored } => {
                write!(
                    f,
                    "checksum mismatch: computed {computed:#010x}, stored {stored:#010x}"
                )
            }
            NetError::FieldOverflow(what) => write!(f, "field overflow: {what}"),
            NetError::VarintOverflow => write!(f, "varint overflow"),
            NetError::UnknownKind(k) => write!(f, "unknown message kind {k}"),
        }
    }
}

impl std::error::Error for NetError {}
