//! Property-based tests for the crypto crate.

use citymesh_crypto::x25519::{clamp_scalar, shared_secret, x25519, BASEPOINT};
use citymesh_crypto::{
    aead, chacha20, ct_eq, hkdf, hmac::hmac_sha256, poly1305::poly1305, sha256, CombBatch, Keypair,
    PeerTable, PostboxAddress, SealedMessage, SessionBatch, SessionKey,
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
        let mut batch = SessionBatch::new();
        batch.push(&ours, &table);
        let batched: Vec<_> = batch.finish().collect();
        prop_assert!(batched == [SessionKey::derive(&ours, &peer.public)]);
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
    let mut batch = SessionBatch::new();
    for u in small_order.map(unhex) {
        assert_eq!(ours.diffie_hellman(&u), None, "{u:02x?}");
        if let Some(table) = PeerTable::new(&u) {
            tables += 1;
            batch.push(&ours, &table);
            assert!(batch.finish().all(|key| key.is_none()), "{u:02x?}");
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

/// The low-order u-coordinates with an Edwards image: 0 (order 2),
/// 1 (order 4) and the two of order 8. Every clamped scalar sends them
/// to the identity, whose X25519 output is all zeros.
const LOW_ORDER: [&str; 4] = [
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0100000000000000000000000000000000000000000000000000000000000000",
    "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
    "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",
];

/// Flips bit `bit` of `bytes`.
fn flipped(bytes: &[u8], bit: usize) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[bit / 8] ^= 1 << (bit % 8);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A batch finishes every entry as the ladder would alone: batches
    /// of 0, 1, 2, 31, 32 and 33 entries drawn from four random peers
    /// and the four low-order points, so peers repeat and identities
    /// sit among ordinary products. Raw combs equal `x25519` entry by
    /// entry; session keys equal `SessionKey::derive`, `None` exactly
    /// where the shared secret is all zeros, and such an entry leaves
    /// its neighbours as they are alone. Batched key generation equals
    /// one key at a time.
    #[test]
    fn a_batch_equals_the_ladder_entry_by_entry(
        len in prop_oneof![Just(0usize), Just(1), Just(2), Just(31), Just(32), Just(33)],
        peer_entropy in proptest::collection::vec(any::<[u8; 32]>(), 4),
        entries in proptest::collection::vec((0usize..8, any::<[u8; 32]>()), 33),
    ) {
        let peers: Vec<[u8; 32]> = peer_entropy
            .iter()
            .map(|e| Keypair::from_entropy(*e).public)
            .chain(LOW_ORDER.map(unhex))
            .collect();
        let tables: Vec<PeerTable> = peers
            .iter()
            .map(|u| PeerTable::new(u).expect("public keys and low-order points have tables"))
            .collect();
        let entries = &entries[..len];

        let mut combs = CombBatch::new();
        for (peer, scalar) in entries {
            combs.push(&tables[*peer], scalar);
        }
        prop_assert_eq!(combs.len(), len);
        let raw: Vec<[u8; 32]> = combs.finish().collect();
        prop_assert!(combs.is_empty());
        prop_assert_eq!(raw.len(), len);
        for ((peer, scalar), u) in entries.iter().zip(&raw) {
            prop_assert_eq!(*u, x25519(scalar, &peers[*peer]));
            prop_assert_eq!(*peer >= 4, *u == [0; 32]);
        }

        let ours = Keypair::from_entropies(entries.iter().map(|&(_, scalar)| scalar));
        prop_assert_eq!(ours.len(), len);
        let mut sessions = SessionBatch::new();
        for (kp, (peer, scalar)) in ours.iter().zip(entries) {
            prop_assert_eq!(kp.public, Keypair::from_entropy(*scalar).public);
            sessions.push(kp, &tables[*peer]);
        }
        let keys: Vec<Option<SessionKey>> = sessions.finish().collect();
        prop_assert_eq!(keys.len(), len);
        for ((key, kp), (peer, _)) in keys.iter().zip(&ours).zip(entries) {
            prop_assert_eq!(key.is_none(), *peer >= 4);
            prop_assert!(*key == SessionKey::derive(kp, &peers[*peer]));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Hostile bytes against every decoder of the secure plane: random
    /// bytes, each truncation and each single-bit flip of a valid
    /// sealed message, session ciphertext and header tag. Nothing
    /// panics; nothing but the untouched original opens or verifies.
    #[test]
    fn hostile_bytes_are_errors_never_panics(
        noise in proptest::collection::vec(any::<u8>(), 0..96),
        plaintext in proptest::collection::vec(any::<u8>(), 0..12),
        aad in proptest::collection::vec(any::<u8>(), 0..8),
        (ephemeral, msg_id) in (any::<[u8; 32]>(), any::<u64>()),
    ) {
        let bob = Keypair::from_entropy([0xB0; 32]);
        let alice = Keypair::from_entropy([0xA1; 32]);
        let session = SessionKey::derive(&alice, &bob.public).expect("ordinary keys");
        let mut out = Vec::new();

        // Random bytes.
        match SealedMessage::from_bytes(&noise) {
            Some(m) => prop_assert!(m.open(&bob, &aad).is_err()),
            None => prop_assert!(noise.len() < 48),
        }
        prop_assert!(session.open_into(msg_id, &aad, &noise, &mut out).is_err());
        prop_assert!(out.is_empty());
        let random_tag: [u8; 16] = noise.get(..16).map_or([0; 16], |t| t.try_into().unwrap());
        prop_assert!(!session.verify_header(&noise, &random_tag));

        // A valid postbox message, truncated and flipped.
        let address = PostboxAddress { public_key: bob.public, building_id: 7 };
        let wire = SealedMessage::seal(&address, ephemeral, &aad, &plaintext)
            .expect("bob's key is ordinary")
            .to_bytes();
        prop_assert_eq!(
            SealedMessage::from_bytes(&wire).expect("valid").open(&bob, &aad).unwrap(),
            plaintext.clone()
        );
        for len in 0..wire.len() {
            if let Some(m) = SealedMessage::from_bytes(&wire[..len]) {
                prop_assert!(m.open(&bob, &aad).is_err(), "truncated to {}", len);
            }
        }
        for bit in 0..wire.len() * 8 {
            let m = SealedMessage::from_bytes(&flipped(&wire, bit)).expect("length kept");
            prop_assert!(m.open(&bob, &aad).is_err(), "bit {} flipped", bit);
        }

        // A valid session ciphertext, truncated and flipped.
        let mut sealed = Vec::new();
        session.seal_into(msg_id, &aad, &plaintext, &mut sealed);
        session.open_into(msg_id, &aad, &sealed, &mut out).unwrap();
        prop_assert_eq!(&out, &plaintext);
        for len in 0..sealed.len() {
            prop_assert!(session.open_into(msg_id, &aad, &sealed[..len], &mut out).is_err());
            prop_assert!(out.is_empty());
        }
        for bit in 0..sealed.len() * 8 {
            let bad = flipped(&sealed, bit);
            prop_assert!(session.open_into(msg_id, &aad, &bad, &mut out).is_err(), "bit {}", bit);
        }

        // A valid header tag: every truncated header, every flip of the
        // header or of the tag.
        let header = [aad.as_slice(), &msg_id.to_le_bytes()].concat();
        let tag = session.header_tag(&header);
        prop_assert!(session.verify_header(&header, &tag));
        for len in 0..header.len() {
            prop_assert!(!session.verify_header(&header[..len], &tag));
        }
        for bit in 0..header.len() * 8 {
            prop_assert!(!session.verify_header(&flipped(&header, bit), &tag));
        }
        for bit in 0..tag.len() * 8 {
            let bad: [u8; 16] = flipped(&tag, bit).try_into().unwrap();
            prop_assert!(!session.verify_header(&header, &bad));
        }
    }
}
