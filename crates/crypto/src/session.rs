//! Per-pair session keys: static-static X25519 → HKDF, amortized.
//!
//! [`identity::SealedMessage`](crate::identity::SealedMessage) runs a
//! *fresh* ephemeral ECDH per message — right for postbox mail that
//! must be readable with nothing but the recipient's long-term key,
//! wrong for a hot path that seals thousands of messages between the
//! same two buildings. A [`SessionKey`] is the amortized alternative:
//! one static-static Diffie–Hellman and one HKDF per *pair*, then
//! nothing but symmetric work (ChaCha20-Poly1305 sealing, truncated
//! HMAC-SHA256 header tags) per message. The derivation is
//! **canonical** — both endpoints sort the two public keys into the
//! HKDF salt, so `(a, b)` and `(b, a)` produce the same key and a
//! shared cache needs only one entry per unordered pair.
//!
//! Nonces are the caller's responsibility: [`SessionKey::seal_into`]
//! builds the 96-bit nonce from the message id, so ids must be unique
//! per pair per key epoch. CityMesh message ids are drawn from
//! per-flow seeded sub-streams that make them unique across the whole
//! run, which over-satisfies that contract.

use crate::aead::{self, AeadError};
use crate::chacha20::{KEY_LEN, NONCE_LEN};
use crate::edwards::PeerTable;
use crate::hkdf;
use crate::hmac::HmacMidstates;
use crate::identity::Keypair;

/// Length of the truncated HMAC-SHA256 header tag, bytes.
pub const HEADER_TAG_LEN: usize = 16;

/// Domain-separation label for session-key HKDF expansion. Distinct
/// from the sealed-postbox label so a session key can never collide
/// with a [`SealedMessage`](crate::identity::SealedMessage) key even
/// if the same Diffie–Hellman output somehow appeared in both flows.
const SESSION_INFO: &[u8] = b"citymesh-v1 session";

/// The symmetric material shared by one unordered pair of nodes: an
/// AEAD key for payloads and an independent MAC key for headers, kept
/// as its two HMAC midstates so a header tag compresses two SHA-256
/// blocks, not four.
///
/// Derive once per pair (expensive: one X25519 scalar multiplication
/// plus an HKDF), cache, and reuse — every per-message operation on
/// this type is allocation-free given reused output buffers.
#[derive(Clone)]
pub struct SessionKey {
    aead_key: [u8; KEY_LEN],
    header_mac: HmacMidstates,
}

impl std::fmt::Debug for SessionKey {
    /// Redacted: key material never reaches logs or panic messages.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SessionKey(..)")
    }
}

impl PartialEq for SessionKey {
    /// Constant-time: both keys are read in full.
    fn eq(&self, other: &Self) -> bool {
        crate::ct_eq(&self.aead_key, &other.aead_key) & (self.header_mac == other.header_mac)
    }
}

impl Eq for SessionKey {}

impl SessionKey {
    /// Derives the pair key from our keypair and their public key.
    ///
    /// Both directions derive the same key: the HKDF salt is the two
    /// public keys in lexicographic order, and X25519 guarantees
    /// `DH(a, B) == DH(b, A)`. Returns `None` when the shared secret
    /// is the all-zero point (a contributory-behavior check — the
    /// peer's public key was a low-order point).
    pub fn derive(ours: &Keypair, their_public: &[u8; 32]) -> Option<SessionKey> {
        let shared = ours.diffie_hellman(their_public)?;
        Some(Self::from_shared(ours, their_public, &shared))
    }

    /// [`SessionKey::derive`] against the public key `theirs` was
    /// built from, with the Diffie–Hellman on its comb: the same key.
    pub fn derive_with(ours: &Keypair, theirs: &PeerTable) -> Option<SessionKey> {
        let shared = ours.diffie_hellman_with(theirs)?;
        Some(Self::from_shared(ours, theirs.point(), &shared))
    }

    /// The HKDF both derivations share: sorted-pubkey salt, the shared
    /// secret as key material, 64 bytes split into the two keys.
    fn from_shared(ours: &Keypair, their_public: &[u8; 32], shared: &[u8; 32]) -> SessionKey {
        let mut salt = [0u8; 64];
        let (lo, hi) = if ours.public <= *their_public {
            (&ours.public, their_public)
        } else {
            (their_public, &ours.public)
        };
        salt[..32].copy_from_slice(lo);
        salt[32..].copy_from_slice(hi);
        let mut okm = [0u8; 64];
        hkdf::derive(&salt, shared, SESSION_INFO, &mut okm);
        let mut aead_key = [0u8; KEY_LEN];
        aead_key.copy_from_slice(&okm[..KEY_LEN]);
        SessionKey {
            aead_key,
            header_mac: HmacMidstates::new(&okm[KEY_LEN..]),
        }
    }

    /// Seals `plaintext` under this session key into `out`
    /// (`ciphertext ‖ tag`), binding `aad` and deriving the nonce from
    /// `msg_id`. Allocation-free once `out`'s capacity is warm.
    pub fn seal_into(&self, msg_id: u64, aad: &[u8], plaintext: &[u8], out: &mut Vec<u8>) {
        aead::seal_into(&self.aead_key, &nonce_for(msg_id), aad, plaintext, out);
    }

    /// Opens a message sealed by [`SessionKey::seal_into`] with the
    /// same `msg_id` and `aad`. The tag is verified in constant time
    /// before any plaintext is produced; on failure `out` stays empty.
    pub fn open_into(
        &self,
        msg_id: u64,
        aad: &[u8],
        sealed: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), AeadError> {
        aead::open_into(&self.aead_key, &nonce_for(msg_id), aad, sealed, out)
    }

    /// Authenticates routing-header bytes: HMAC-SHA256 under the
    /// header key, truncated to [`HEADER_TAG_LEN`]. Headers are
    /// mutated hop-by-hop metadata the AEAD cannot cover, so they get
    /// their own MAC instead of riding in the AAD.
    pub fn header_tag(&self, header: &[u8]) -> [u8; HEADER_TAG_LEN] {
        let full = self.header_hmac(header);
        let mut tag = [0u8; HEADER_TAG_LEN];
        tag.copy_from_slice(&full[..HEADER_TAG_LEN]);
        tag
    }

    /// Verifies a header tag in constant time.
    pub fn verify_header(&self, header: &[u8], tag: &[u8; HEADER_TAG_LEN]) -> bool {
        crate::ct_eq(&self.header_hmac(header)[..HEADER_TAG_LEN], tag)
    }

    /// The full HMAC-SHA256 of `header` under the header key, resumed
    /// from its midstates.
    fn header_hmac(&self, header: &[u8]) -> [u8; 32] {
        let mut mac = self.header_mac.start();
        mac.update(header);
        mac.finalize()
    }
}

/// The 96-bit per-message nonce: message id little-endian in the low
/// eight bytes, a fixed version marker in the rest. Safe exactly
/// because message ids are unique per pair per key epoch.
fn nonce_for(msg_id: u64) -> [u8; NONCE_LEN] {
    let mut nonce = [0u8; NONCE_LEN];
    nonce[..8].copy_from_slice(&msg_id.to_le_bytes());
    nonce[8..].copy_from_slice(b"CMs1");
    nonce
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(seed: u8) -> Keypair {
        Keypair::from_entropy([seed; 32])
    }

    #[test]
    fn both_directions_derive_the_same_key() {
        let a = pair(1);
        let b = pair(2);
        let ab = SessionKey::derive(&a, &b.public).unwrap();
        let ba = SessionKey::derive(&b, &a.public).unwrap();
        // Equal keys ⇒ each side opens what the other seals.
        let mut sealed = Vec::new();
        let mut opened = Vec::new();
        ab.seal_into(7, b"hdr", b"hello from a", &mut sealed);
        ba.open_into(7, b"hdr", &sealed, &mut opened).unwrap();
        assert_eq!(opened, b"hello from a");
        assert_eq!(ab.header_tag(b"route"), ba.header_tag(b"route"));
    }

    #[test]
    fn distinct_pairs_get_distinct_keys() {
        let a = pair(1);
        let b = pair(2);
        let c = pair(3);
        let ab = SessionKey::derive(&a, &b.public).unwrap();
        let ac = SessionKey::derive(&a, &c.public).unwrap();
        let mut sealed = Vec::new();
        let mut opened = Vec::new();
        ab.seal_into(1, b"", b"secret", &mut sealed);
        assert!(ac.open_into(1, b"", &sealed, &mut opened).is_err());
    }

    #[test]
    fn wrong_msg_id_or_aad_fails_open() {
        let a = pair(4);
        let b = pair(5);
        let k = SessionKey::derive(&a, &b.public).unwrap();
        let mut sealed = Vec::new();
        let mut opened = Vec::new();
        k.seal_into(42, b"aad", b"payload", &mut sealed);
        assert!(k.open_into(43, b"aad", &sealed, &mut opened).is_err());
        assert!(k.open_into(42, b"AAD", &sealed, &mut opened).is_err());
        k.open_into(42, b"aad", &sealed, &mut opened).unwrap();
        assert_eq!(opened, b"payload");
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let k = SessionKey::derive(&pair(6), &pair(7).public).unwrap();
        let mut sealed = Vec::new();
        let mut opened = Vec::new();
        k.seal_into(9, b"h", b"message body", &mut sealed);
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 0x80;
            assert!(k.open_into(9, b"h", &bad, &mut opened).is_err(), "byte {i}");
        }
    }

    #[test]
    fn header_tags_verify_and_reject() {
        let k = SessionKey::derive(&pair(8), &pair(9).public).unwrap();
        let tag = k.header_tag(b"src=1 dst=2 route=abc");
        assert!(k.verify_header(b"src=1 dst=2 route=abc", &tag));
        assert!(!k.verify_header(b"src=1 dst=9 route=abc", &tag));
        let mut flipped = tag;
        flipped[0] ^= 1;
        assert!(!k.verify_header(b"src=1 dst=2 route=abc", &flipped));
    }

    #[test]
    fn header_tag_is_the_truncated_hmac_of_the_header_key() {
        // The key schedule written out: the midstates must tag exactly
        // as `hmac_sha256` under the HKDF's second 32 bytes does.
        let (a, b) = (pair(12), pair(13));
        let k = SessionKey::derive(&a, &b.public).unwrap();
        let mut salt = [0u8; 64];
        let (lo, hi) = if a.public <= b.public {
            (a.public, b.public)
        } else {
            (b.public, a.public)
        };
        salt[..32].copy_from_slice(&lo);
        salt[32..].copy_from_slice(&hi);
        let mut okm = [0u8; 64];
        hkdf::derive(
            &salt,
            &a.diffie_hellman(&b.public).unwrap(),
            SESSION_INFO,
            &mut okm,
        );
        for header in [&b""[..], b"src=1 dst=2", &[0xA5; 24], &[7; 200]] {
            let full = crate::hmac::hmac_sha256(&okm[KEY_LEN..], header);
            assert_eq!(k.header_tag(header)[..], full[..HEADER_TAG_LEN]);
        }
        // The midstates grow a session by 32 bytes over a raw key.
        assert_eq!(std::mem::size_of::<SessionKey>(), KEY_LEN + 64);
    }

    #[test]
    fn debug_is_redacted() {
        let k = SessionKey::derive(&pair(10), &pair(11).public).unwrap();
        assert_eq!(format!("{k:?}"), "SessionKey(..)");
    }
}
