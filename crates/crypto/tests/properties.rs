//! Property-based tests for the crypto crate.

use citymesh_crypto::x25519::{clamp_scalar, shared_secret, x25519, BASEPOINT};
use citymesh_crypto::{
    aead, chacha20, ct_eq, hkdf, hmac::hmac_sha256, poly1305::poly1305, sha256, Keypair, PeerTable,
    PostboxAddress, SealedMessage, SessionKey,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The comb on a public key's table equals the ladder on the key
    /// for random clamped scalars, and the key itself (the comb on the
    /// base point's table) equals the ladder's.
    #[test]
    fn comb_equals_the_ladder_on_public_keys(
        entropy in any::<[u8; 32]>(),
        scalars in proptest::collection::vec(any::<[u8; 32]>(), 1..4),
    ) {
        let peer = Keypair::from_entropy(entropy);
        prop_assert_eq!(peer.public, x25519(&clamp_scalar(entropy), &BASEPOINT));
        let table = PeerTable::new(&peer.public).expect("a public key is a curve point");
        for scalar in scalars.iter().map(|s| clamp_scalar(*s)) {
            prop_assert_eq!(table.mul(&scalar), x25519(&scalar, &peer.public));
        }
        let ours = Keypair::from_entropy(scalars[0]);
        prop_assert_eq!(ours.diffie_hellman_with(&table), ours.diffie_hellman(&peer.public));
        prop_assert!(SessionKey::derive_with(&ours, &table) == SessionKey::derive(&ours, &peer.public));
    }

    /// Any 32 bytes: either no table (a twist point, or u = -1) or a
    /// comb equal to the ladder for every scalar, unclamped ones too.
    #[test]
    fn a_table_exists_only_where_the_comb_equals_the_ladder(
        u in any::<[u8; 32]>(),
        scalars in proptest::collection::vec(any::<[u8; 32]>(), 1..4),
    ) {
        if let Some(table) = PeerTable::new(&u) {
            prop_assert_eq!(table.point(), &u);
            for scalar in &scalars {
                prop_assert_eq!(table.mul(scalar), x25519(scalar, &u));
            }
        }
    }
}

fn unhex(s: &str) -> [u8; 32] {
    let v: Vec<u8> = (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect();
    v.try_into().unwrap()
}

/// The RFC 7748 §5.2 vectors and the known small-order u-coordinates,
/// canonical or not (below 2^255: bit 255 is masked): wherever a
/// table exists, the comb's
/// Diffie–Hellman equals `shared_secret`'s, all-zero rejection
/// included.
#[test]
fn rfc_vectors_and_small_order_points_agree_with_the_ladder() {
    let vectors = [
        (
            "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
            "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552",
        ),
        (
            "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d",
            "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493",
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957",
        ),
    ];
    for (scalar, u, expected) in vectors.map(|(s, u, e)| (unhex(s), unhex(u), unhex(e))) {
        if let Some(table) = PeerTable::new(&u) {
            assert_eq!(table.mul(&scalar), expected);
        }
        assert_eq!(x25519(&scalar, &u), expected);
    }

    let small_order = [
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0100000000000000000000000000000000000000000000000000000000000000",
        "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
        "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",
        "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
    ];
    let ours = Keypair::from_entropy([0x77; 32]);
    let mut tables = 0;
    for u in small_order.map(unhex) {
        assert_eq!(ours.diffie_hellman(&u), None, "{u:02x?}");
        if let Some(table) = PeerTable::new(&u) {
            tables += 1;
            assert_eq!(ours.diffie_hellman_with(&table), None, "{u:02x?}");
            for seed in 0u8..8 {
                let scalar = [seed.wrapping_mul(91).wrapping_add(1); 32];
                assert_eq!(table.mul(&scalar), x25519(&scalar, &u), "{u:02x?}");
                assert_eq!(shared_secret(&scalar, &u), None);
            }
        }
    }
    // 0, 1, both order-8 points, p (≡ 0) and p + 1 (≡ 1) lie on the
    // curve; only p − 1 (≡ −1) has no Edwards image.
    assert_eq!(tables, 6);
}
