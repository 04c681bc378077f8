//! Cryptographic primitives for CityMesh's self-certifying naming and
//! postbox message security.
//!
//! The DFN agenda (paper §1, "Security") calls for *self-certifying
//! names* — each identifier is the hash of the entity's public key,
//! exchanged out-of-band — so that message authenticity and
//! confidentiality never require reaching a certificate authority
//! during an outage. This crate supplies the minimal primitive suite
//! for that design:
//!
//! * [`sha256()`] — the FIPS 180-4 hash (NIST test vectors).
//! * [`hmac`] / [`hkdf`] — RFC 2104 / RFC 5869 keyed MAC and KDF.
//! * [`chacha20`] + [`poly1305`] + [`aead`] — the RFC 8439 AEAD.
//! * [`x25519`] — RFC 7748 Diffie–Hellman over Curve25519.
//! * [`edwards`] — [`PeerTable`]: X25519 against a point met by many
//!   scalars (the base point, a registry key) as a fixed-base comb on
//!   its Edwards25519 image, with the ladder's output bytes, and
//!   [`CombBatch`], which finishes many combs with one field inversion.
//! * [`identity`] — [`identity::NodeId`] (`SHA-256(public key)`),
//!   keypairs, and [`identity::SealedMessage`]: sender-ephemeral
//!   ECDH → HKDF → AEAD, the construction postboxes use to cache
//!   messages they cannot read (§3 step 4).
//! * [`session`] — [`session::SessionKey`]: static-static ECDH → HKDF
//!   derived once per node pair and reused for every message between
//!   them, the amortized construction the secure message plane's hot
//!   path caches like routes.
//!
//! ## Scope
//!
//! Everything here is implemented from scratch because no crypto
//! crates are in this workspace's approved offline dependency set
//! (DESIGN.md §1). The implementations pass the relevant RFC/NIST
//! vectors and are constant-time where the algorithm is naturally so
//! (X25519 Montgomery ladder with conditional swaps, a comb that scans
//! its whole table under a mask, no secret-indexed table lookups
//! anywhere), but they have not been audited; the point
//! of this crate is to exercise the *protocol* code paths of the
//! paper faithfully, not to ship a production TLS stack.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aead;
pub mod chacha20;
pub mod edwards;
pub mod hkdf;
pub mod hmac;
pub mod identity;
pub mod poly1305;
pub mod session;
pub mod sha256;
pub mod x25519;

pub use aead::{open, open_into, seal, seal_into, AeadError};
pub use edwards::{CombBatch, PeerTable};
pub use identity::{Keypair, NodeId, PostboxAddress, SealedMessage};
pub use session::{SessionBatch, SessionKey, HEADER_TAG_LEN};
pub use sha256::sha256;

/// Constant-time byte-slice equality (no early exit on mismatch).
///
/// Slices of different lengths compare unequal, and the length check
/// is allowed to be variable-time (lengths are public).
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_basic() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(ct_eq(b"", b""));
    }
}
