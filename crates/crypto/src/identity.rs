//! Self-certifying identities and sealed postbox messages.
//!
//! The DFN security design (paper §1) derives every identifier by
//! hashing the entity's public key, exchanged out-of-band (e.g. as a
//! QR code, §3 step 1). Possession of the ID is then sufficient to
//! verify key ownership with no certificate authority in the loop.
//!
//! [`SealedMessage`] is the construction postboxes store-and-forward
//! without being able to read (§3 step 4): sender-ephemeral X25519 →
//! HKDF-SHA256 → ChaCha20-Poly1305, with the route destination bound
//! in as associated data so a message cannot be silently replayed
//! toward a different postbox.

use crate::edwards::CombBatch;
use crate::hkdf;
use crate::sha256::sha256;
use crate::x25519;
use crate::{aead, AeadError};

/// A self-certifying node identifier: `SHA-256(public key)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub [u8; 32]);

impl NodeId {
    /// Derives the ID for `public_key`.
    pub fn from_public_key(public_key: &[u8; 32]) -> Self {
        NodeId(sha256(public_key))
    }

    /// Verifies that `public_key` hashes to this ID (constant time).
    pub fn certifies(&self, public_key: &[u8; 32]) -> bool {
        crate::ct_eq(&self.0, &sha256(public_key))
    }

    /// Short human-readable prefix, e.g. for logs.
    pub fn short(&self) -> String {
        self.0[..6].iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl std::fmt::Debug for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NodeId({}…)", self.short())
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// An X25519 keypair.
#[derive(Clone)]
pub struct Keypair {
    secret: [u8; 32],
    /// The public key, safe to share.
    pub public: [u8; 32],
}

impl Keypair {
    /// Builds a keypair from 32 bytes of caller-supplied entropy.
    ///
    /// This crate deliberately has no RNG dependency; simulations pass
    /// seeded bytes so experiments stay reproducible, and a deployment
    /// would pass OS entropy.
    pub fn from_entropy(entropy: [u8; 32]) -> Self {
        let secret = x25519::clamp_scalar(entropy);
        let public = x25519::public_key(&secret);
        Keypair { secret, public }
    }

    /// [`Keypair::from_entropy`] of each entropy, in order, with the
    /// public keys finished together on the base point's comb: one
    /// field inversion for the lot instead of one a key.
    pub fn from_entropies(entropies: impl IntoIterator<Item = [u8; 32]>) -> Vec<Keypair> {
        let secrets: Vec<[u8; 32]> = entropies.into_iter().map(x25519::clamp_scalar).collect();
        let mut batch = CombBatch::new();
        for secret in &secrets {
            batch.push(x25519::base_table(), secret);
        }
        secrets
            .into_iter()
            .zip(batch.finish())
            .map(|(secret, public)| Keypair { secret, public })
            .collect()
    }

    /// The clamped secret scalar, for the crate's batched derivations.
    pub(crate) fn secret(&self) -> &[u8; 32] {
        &self.secret
    }

    /// The self-certifying ID of this keypair.
    pub fn node_id(&self) -> NodeId {
        NodeId::from_public_key(&self.public)
    }

    /// Computes the X25519 shared secret with `their_public`;
    /// `None` for degenerate (small-order) peer keys.
    pub fn diffie_hellman(&self, their_public: &[u8; 32]) -> Option<[u8; 32]> {
        x25519::shared_secret(&self.secret, their_public)
    }
}

impl std::fmt::Debug for Keypair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the secret.
        write!(f, "Keypair({})", self.node_id().short())
    }
}

/// Bob's out-of-band postbox information (paper §3 step 1): his public
/// key plus the building that hosts his postbox AP. Small enough for a
/// QR code (68 bytes serialized).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PostboxAddress {
    /// Recipient's long-term public key.
    pub public_key: [u8; 32],
    /// Building ID of the postbox AP's building.
    pub building_id: u32,
}

impl PostboxAddress {
    /// The recipient's self-certifying ID.
    pub fn node_id(&self) -> NodeId {
        NodeId::from_public_key(&self.public_key)
    }

    /// Serializes to `public_key ‖ building_id_le`.
    pub fn to_bytes(&self) -> [u8; 36] {
        let mut out = [0u8; 36];
        out[..32].copy_from_slice(&self.public_key);
        out[32..].copy_from_slice(&self.building_id.to_le_bytes());
        out
    }

    /// Parses the serialization from [`PostboxAddress::to_bytes`].
    pub fn from_bytes(bytes: &[u8; 36]) -> Self {
        PostboxAddress {
            public_key: bytes[..32].try_into().expect("32 bytes"),
            building_id: u32::from_le_bytes(bytes[32..].try_into().expect("4 bytes")),
        }
    }
}

/// HKDF info label binding the protocol version into key derivation.
const SEAL_INFO: &[u8] = b"citymesh-v1 sealed message";

/// An encrypted, integrity-protected message addressed to a recipient
/// public key. Only the recipient's secret key opens it; relaying APs
/// and the postbox see ciphertext.
///
/// ```
/// use citymesh_crypto::{Keypair, PostboxAddress, SealedMessage};
///
/// let bob = Keypair::from_entropy([0xB0; 32]); // use OS entropy in production
/// let address = PostboxAddress { public_key: bob.public, building_id: 42 };
///
/// let sealed = SealedMessage::seal(&address, [0x11; 32], b"msg#1", b"hi bob").unwrap();
/// assert_eq!(sealed.open(&bob, b"msg#1").unwrap(), b"hi bob");
/// // Wrong associated data (replay under another identity) fails.
/// assert!(sealed.open(&bob, b"msg#2").is_err());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SealedMessage {
    /// Sender's ephemeral public key (fresh per message).
    pub ephemeral_public: [u8; 32],
    /// `ciphertext ‖ tag`.
    pub ciphertext: Vec<u8>,
}

impl SealedMessage {
    /// Seals `plaintext` to `recipient`, binding `aad` (typically the
    /// destination building ID and message ID from the packet header).
    ///
    /// `ephemeral_entropy` must be fresh random bytes per message —
    /// reuse would link messages but not break confidentiality, since
    /// the derived key also depends on the recipient.
    ///
    /// Returns `None` only when `recipient`'s key is degenerate.
    pub fn seal(
        recipient: &PostboxAddress,
        ephemeral_entropy: [u8; 32],
        aad: &[u8],
        plaintext: &[u8],
    ) -> Option<Self> {
        let eph = Keypair::from_entropy(ephemeral_entropy);
        let shared = eph.diffie_hellman(&recipient.public_key)?;
        let (key, nonce) = derive_key_nonce(&shared, &eph.public, &recipient.public_key);
        let ciphertext = aead::seal(&key, &nonce, aad, plaintext);
        Some(SealedMessage {
            ephemeral_public: eph.public,
            ciphertext,
        })
    }

    /// Opens with the recipient's keypair. Fails on any tampering with
    /// the ciphertext, the ephemeral key, or the associated data.
    pub fn open(&self, recipient: &Keypair, aad: &[u8]) -> Result<Vec<u8>, AeadError> {
        let shared = recipient
            .diffie_hellman(&self.ephemeral_public)
            .ok_or(AeadError)?;
        let (key, nonce) = derive_key_nonce(&shared, &self.ephemeral_public, &recipient.public);
        aead::open(&key, &nonce, aad, &self.ciphertext)
    }

    /// Serializes to `ephemeral_public ‖ ciphertext`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.ciphertext.len());
        out.extend_from_slice(&self.ephemeral_public);
        out.extend_from_slice(&self.ciphertext);
        out
    }

    /// Parses the serialization from [`SealedMessage::to_bytes`].
    /// `None` when too short to contain key + tag. Never panics: any
    /// longer byte string parses, and [`SealedMessage::open`] decides.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 32 + 16 {
            return None;
        }
        let (key, ciphertext) = bytes.split_at(32);
        Some(SealedMessage {
            ephemeral_public: key.try_into().ok()?,
            ciphertext: ciphertext.to_vec(),
        })
    }

    /// Wire size in bytes.
    pub fn len(&self) -> usize {
        32 + self.ciphertext.len()
    }

    /// Always false (a sealed message carries at least a tag).
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Key schedule: `HKDF(salt = eph_pub ‖ recipient_pub, ikm = shared)`
/// expanded to an AEAD key and nonce. The nonce need not be unique
/// beyond the key (the key is already unique per ephemeral), but
/// deriving it costs nothing and removes a whole failure class.
fn derive_key_nonce(
    shared: &[u8; 32],
    eph_pub: &[u8; 32],
    recipient_pub: &[u8; 32],
) -> ([u8; 32], [u8; 12]) {
    let mut salt = [0u8; 64];
    salt[..32].copy_from_slice(eph_pub);
    salt[32..].copy_from_slice(recipient_pub);
    let mut okm = [0u8; 44];
    hkdf::derive(&salt, shared, SEAL_INFO, &mut okm);
    let key: [u8; 32] = okm[..32].try_into().expect("32 bytes");
    let nonce: [u8; 12] = okm[32..].try_into().expect("12 bytes");
    (key, nonce)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bob() -> Keypair {
        Keypair::from_entropy([0xB0; 32])
    }

    fn bob_address() -> PostboxAddress {
        PostboxAddress {
            public_key: bob().public,
            building_id: 1234,
        }
    }

    #[test]
    fn node_id_certifies_its_key() {
        let kp = bob();
        let id = kp.node_id();
        assert!(id.certifies(&kp.public));
        let other = Keypair::from_entropy([0xA1; 32]);
        assert!(!id.certifies(&other.public));
        assert_eq!(id, NodeId::from_public_key(&kp.public));
    }

    #[test]
    fn node_id_display_and_short() {
        let id = bob().node_id();
        let full = id.to_string();
        assert_eq!(full.len(), 64);
        assert!(full.starts_with(&id.short()));
    }

    #[test]
    fn keypair_debug_hides_secret() {
        let kp = bob();
        let dbg = format!("{kp:?}");
        assert!(!dbg.contains("secret"));
        assert!(dbg.contains(&kp.node_id().short()));
    }

    #[test]
    fn postbox_address_round_trip() {
        let addr = bob_address();
        let back = PostboxAddress::from_bytes(&addr.to_bytes());
        assert_eq!(back, addr);
        assert_eq!(back.node_id(), bob().node_id());
    }

    #[test]
    fn seal_open_round_trip() {
        let addr = bob_address();
        let sealed =
            SealedMessage::seal(&addr, [0x11; 32], b"building:1234", b"hi bob, it's alice")
                .unwrap();
        let opened = sealed.open(&bob(), b"building:1234").unwrap();
        assert_eq!(opened, b"hi bob, it's alice");
    }

    #[test]
    fn wrong_recipient_cannot_open() {
        let addr = bob_address();
        let sealed = SealedMessage::seal(&addr, [0x12; 32], b"", b"secret").unwrap();
        let eve = Keypair::from_entropy([0xEE; 32]);
        assert!(sealed.open(&eve, b"").is_err());
    }

    #[test]
    fn aad_mismatch_rejected() {
        let addr = bob_address();
        let sealed = SealedMessage::seal(&addr, [0x13; 32], b"dest:1234", b"payload").unwrap();
        assert!(sealed.open(&bob(), b"dest:9999").is_err());
        assert!(sealed.open(&bob(), b"dest:1234").is_ok());
    }

    #[test]
    fn tampering_anywhere_rejected() {
        let addr = bob_address();
        let sealed = SealedMessage::seal(&addr, [0x14; 32], b"a", b"msg").unwrap();
        let bytes = sealed.to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 1;
            let parsed = SealedMessage::from_bytes(&bad).unwrap();
            assert!(parsed.open(&bob(), b"a").is_err(), "byte {i}");
        }
    }

    #[test]
    fn serialization_round_trip() {
        let addr = bob_address();
        let sealed = SealedMessage::seal(&addr, [0x15; 32], b"", b"0123456789").unwrap();
        let back = SealedMessage::from_bytes(&sealed.to_bytes()).unwrap();
        assert_eq!(back, sealed);
        assert_eq!(sealed.len(), sealed.to_bytes().len());
        // Too-short inputs rejected.
        assert!(SealedMessage::from_bytes(&[0u8; 47]).is_none());
    }

    #[test]
    fn distinct_ephemerals_give_distinct_ciphertexts() {
        let addr = bob_address();
        let s1 = SealedMessage::seal(&addr, [0x21; 32], b"", b"same plaintext").unwrap();
        let s2 = SealedMessage::seal(&addr, [0x22; 32], b"", b"same plaintext").unwrap();
        assert_ne!(s1.ephemeral_public, s2.ephemeral_public);
        assert_ne!(s1.ciphertext, s2.ciphertext);
        // Both still open correctly.
        assert_eq!(s1.open(&bob(), b"").unwrap(), b"same plaintext");
        assert_eq!(s2.open(&bob(), b"").unwrap(), b"same plaintext");
    }

    #[test]
    fn empty_plaintext_allowed() {
        let addr = bob_address();
        let sealed = SealedMessage::seal(&addr, [0x31; 32], b"ping", b"").unwrap();
        assert_eq!(sealed.open(&bob(), b"ping").unwrap(), b"");
    }
}
