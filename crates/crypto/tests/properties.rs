//! Property-based tests for the crypto crate.

use citymesh_crypto::{
    aead, chacha20, ct_eq, hkdf, hmac::hmac_sha256, poly1305::poly1305, sha256, Keypair,
    PostboxAddress, SealedMessage,
};
use proptest::prelude::*;

proptest! {
    /// Incremental hashing equals one-shot for arbitrary chunkings.
    #[test]
    fn sha256_chunking_invariance(data in proptest::collection::vec(any::<u8>(), 0..2048), chunk in 1usize..97) {
        let mut h = citymesh_crypto::sha256::Sha256::new();
        for c in data.chunks(chunk) {
            h.update(c);
        }
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    /// HMAC differs when either key or message differ (no trivial
    /// collisions in the tested space).
    #[test]
    fn hmac_separates_keys(key1 in proptest::collection::vec(any::<u8>(), 0..64),
                           key2 in proptest::collection::vec(any::<u8>(), 0..64),
                           msg in proptest::collection::vec(any::<u8>(), 0..256)) {
        let t1 = hmac_sha256(&key1, &msg);
        let t2 = hmac_sha256(&key2, &msg);
        if key1 == key2 {
            prop_assert_eq!(t1, t2);
        } else {
            prop_assert_ne!(t1, t2);
        }
    }

    /// HKDF expansions of different lengths agree on the common prefix.
    #[test]
    fn hkdf_prefix_consistency(ikm in proptest::collection::vec(any::<u8>(), 1..64),
                               len1 in 1usize..64, len2 in 1usize..64) {
        let prk = hkdf::extract(b"salt", &ikm);
        let mut a = vec![0u8; len1];
        let mut b = vec![0u8; len2];
        hkdf::expand(&prk, b"info", &mut a);
        hkdf::expand(&prk, b"info", &mut b);
        let common = len1.min(len2);
        prop_assert_eq!(&a[..common], &b[..common]);
    }

    /// ChaCha20 is an involution and position-independent: the stream
    /// starting at block k equals the tail of the stream from block 0.
    #[test]
    fn chacha_stream_consistency(key in any::<[u8; 32]>(), nonce in any::<[u8; 12]>(),
                                 len in 1usize..512) {
        let mut full = vec![0u8; 64 + len];
        chacha20::xor_stream(&key, &nonce, 0, &mut full);
        let mut tail = vec![0u8; len];
        chacha20::xor_stream(&key, &nonce, 1, &mut tail);
        prop_assert_eq!(&full[64..], tail.as_slice());
    }

    /// Poly1305 tag changes under any single-byte perturbation.
    #[test]
    fn poly1305_sensitivity(key in any::<[u8; 32]>(),
                            msg in proptest::collection::vec(any::<u8>(), 1..128),
                            pos_hint in any::<usize>(), bit in 0u8..8) {
        let t1 = poly1305(&key, &msg);
        let mut other = msg.clone();
        other[pos_hint % msg.len()] ^= 1 << bit;
        let t2 = poly1305(&key, &other);
        prop_assert_ne!(t1, t2);
    }

    /// AEAD round trip with arbitrary key/nonce/aad/plaintext.
    #[test]
    fn aead_round_trip(key in any::<[u8; 32]>(), nonce in any::<[u8; 12]>(),
                       aad in proptest::collection::vec(any::<u8>(), 0..64),
                       pt in proptest::collection::vec(any::<u8>(), 0..512)) {
        let sealed = aead::seal(&key, &nonce, &aad, &pt);
        prop_assert_eq!(aead::open(&key, &nonce, &aad, &sealed).unwrap(), pt);
    }

    /// AEAD rejects any single corrupted byte.
    #[test]
    fn aead_rejects_corruption(key in any::<[u8; 32]>(), nonce in any::<[u8; 12]>(),
                               pt in proptest::collection::vec(any::<u8>(), 0..128),
                               pos_hint in any::<usize>(), bit in 0u8..8) {
        let mut sealed = aead::seal(&key, &nonce, b"aad", &pt);
        let pos = pos_hint % sealed.len();
        sealed[pos] ^= 1 << bit;
        prop_assert!(aead::open(&key, &nonce, b"aad", &sealed).is_err());
    }

    /// X25519 Diffie–Hellman commutes for arbitrary entropy.
    #[test]
    fn dh_commutes(e1 in any::<[u8; 32]>(), e2 in any::<[u8; 32]>()) {
        let a = Keypair::from_entropy(e1);
        let b = Keypair::from_entropy(e2);
        let s1 = a.diffie_hellman(&b.public);
        let s2 = b.diffie_hellman(&a.public);
        prop_assert_eq!(s1, s2);
    }

    /// Sealed messages round-trip for arbitrary recipients, entropy,
    /// aad, and plaintext — and the wire form round-trips too.
    #[test]
    fn sealed_message_round_trip(recipient_entropy in any::<[u8; 32]>(),
                                 eph in any::<[u8; 32]>(),
                                 aad in proptest::collection::vec(any::<u8>(), 0..32),
                                 pt in proptest::collection::vec(any::<u8>(), 0..256),
                                 building in any::<u32>()) {
        let recipient = Keypair::from_entropy(recipient_entropy);
        let addr = PostboxAddress { public_key: recipient.public, building_id: building };
        let sealed = SealedMessage::seal(&addr, eph, &aad, &pt).unwrap();
        let wire = sealed.to_bytes();
        let parsed = SealedMessage::from_bytes(&wire).unwrap();
        prop_assert_eq!(parsed.open(&recipient, &aad).unwrap(), pt);
    }

    /// ct_eq agrees with ==.
    #[test]
    fn ct_eq_matches_eq(a in proptest::collection::vec(any::<u8>(), 0..64),
                        b in proptest::collection::vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(ct_eq(&a, &b), a == b);
    }
}
