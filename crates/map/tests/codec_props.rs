//! Hostile bytes against the map-cache codec.
//!
//! The codec's trailer is an FNV-1a checksum, not a MAC, so a forger
//! can seal any body. Whatever the body, `decode_map` must return `Ok`
//! or `Err` — never panic, overflow, or reserve memory the input cannot
//! fill.

use std::sync::OnceLock;

use citymesh_map::{decode_map, encode_map, CityArchetype, DEFAULT_QUANTUM_MM};
use citymesh_simcore::Fnv64;
use proptest::prelude::*;

/// `body` with a valid checksum trailer, as a forger would seal it.
fn sealed(mut body: Vec<u8>) -> Vec<u8> {
    let mut h = Fnv64::new();
    for &b in &body {
        h.mix(u64::from(b));
    }
    body.extend_from_slice(&h.value().to_le_bytes());
    body
}

/// LEB128, as the codec writes every count and delta.
fn push_varint(mut v: u64, out: &mut Vec<u8>) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A real encoding, built once per test binary.
fn real_map() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| encode_map(&CityArchetype::SurveyRiver.generate(3), DEFAULT_QUANTUM_MM))
}

proptest! {
    #[test]
    fn random_sealed_bodies_never_panic(
        deep in any::<bool>(),
        tail in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        // Past the magic and version, so the parser gets to the fields;
        // half the time also past the quantum and an empty name.
        let mut body = b"CMAP\x01".to_vec();
        if deep {
            body.extend_from_slice(&[10, 0]);
        }
        body.extend_from_slice(&tail);
        let _ = decode_map(&sealed(body));
    }

    #[test]
    fn forged_coordinates_never_panic(
        deltas in proptest::collection::vec((any::<u64>(), 0u32..64), 12..=12),
    ) {
        // Two triangles whose zigzag deltas span every magnitude: sums
        // that overflow, and buildings farther apart than any city.
        let mut body = b"CMAP\x01\x0a\x00\x02".to_vec();
        for triangle in deltas.chunks(6) {
            push_varint(3, &mut body);
            for &(v, shift) in triangle {
                push_varint(v >> shift, &mut body);
            }
        }
        push_varint(0, &mut body);
        let _ = decode_map(&sealed(body));
    }

    #[test]
    fn resealed_bit_flips_never_panic(flips in proptest::collection::vec(any::<usize>(), 1..4)) {
        let real = real_map();
        let mut body = real[..real.len() - 8].to_vec();
        for flip in flips {
            let bit = flip % (body.len() * 8);
            body[bit / 8] ^= 1 << (bit % 8);
        }
        let _ = decode_map(&sealed(body));
    }
}

#[test]
fn an_unflipped_reseal_decodes() {
    // The harness itself is sound: resealing the untouched body is the
    // original encoding.
    let real = real_map();
    assert_eq!(sealed(real[..real.len() - 8].to_vec()), real);
    assert!(decode_map(real).is_ok());
}
