//! HKDF-SHA256 (RFC 5869).
//!
//! Sealed postbox messages derive their AEAD key from the X25519
//! shared secret through HKDF, binding the sender's ephemeral key and
//! the recipient identity into the key schedule.

use crate::hmac::{hmac_sha256, HmacSha256};

/// `HKDF-Extract(salt, ikm)` → pseudorandom key.
pub fn extract(salt: &[u8], ikm: &[u8]) -> [u8; 32] {
    hmac_sha256(salt, ikm)
}

/// `HKDF-Expand(prk, info, out.len())`, allocation-free: block `i`
/// is `HMAC(prk, T(i−1) ‖ info ‖ i)`, streamed into a copy of the MAC
/// keyed once, with the previous block kept on the stack.
///
/// # Panics
/// Panics when more than `255 × 32` bytes are requested (RFC limit).
pub fn expand(prk: &[u8; 32], info: &[u8], out: &mut [u8]) {
    assert!(out.len() <= 255 * 32, "HKDF output too long");
    let keyed = HmacSha256::new(prk);
    let mut t = [0u8; 32];
    for (i, chunk) in out.chunks_mut(32).enumerate() {
        let mut mac = keyed.clone();
        if i > 0 {
            mac.update(&t);
        }
        mac.update(info);
        // At most 255 chunks (asserted above), so the counter fits.
        mac.update(&[i as u8 + 1]);
        t = mac.finalize();
        chunk.copy_from_slice(&t[..chunk.len()]);
    }
}

/// One-shot extract-then-expand.
pub fn derive(salt: &[u8], ikm: &[u8], info: &[u8], out: &mut [u8]) {
    let prk = extract(salt, ikm);
    expand(&prk, info, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // RFC 5869 Appendix A test vectors.
    #[test]
    fn rfc5869_case_1() {
        let ikm = [0x0bu8; 22];
        let salt = unhex("000102030405060708090a0b0c");
        let info = unhex("f0f1f2f3f4f5f6f7f8f9");
        let prk = extract(&salt, &ikm);
        assert_eq!(
            hex(&prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let mut okm = [0u8; 42];
        expand(&prk, &info, &mut okm);
        assert_eq!(
            hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    #[test]
    fn rfc5869_case_2_long_inputs() {
        let ikm: Vec<u8> = (0x00..=0x4f).collect();
        let salt: Vec<u8> = (0x60..=0xaf).collect();
        let info: Vec<u8> = (0xb0..=0xff).collect();
        let mut okm = [0u8; 82];
        derive(&salt, &ikm, &info, &mut okm);
        assert_eq!(
            hex(&okm),
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c\
             59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71\
             cc30c58179ec3e87c14c01d5c1f3434f1d87"
        );
    }

    #[test]
    fn rfc5869_case_3_empty_salt_info() {
        let ikm = [0x0bu8; 22];
        let mut okm = [0u8; 42];
        derive(&[], &ikm, &[], &mut okm);
        assert_eq!(
            hex(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn different_info_different_keys() {
        let prk = extract(b"salt", b"shared secret");
        let mut k1 = [0u8; 32];
        let mut k2 = [0u8; 32];
        expand(&prk, b"citymesh key", &mut k1);
        expand(&prk, b"citymesh nonce", &mut k2);
        assert_ne!(k1, k2);
    }

    #[test]
    fn multi_block_expand_is_contiguous() {
        // A 100-byte expansion must have its 32-byte prefix equal to a
        // 32-byte expansion with the same inputs.
        let prk = extract(b"s", b"ikm");
        let mut long = [0u8; 100];
        let mut short = [0u8; 32];
        expand(&prk, b"info", &mut long);
        expand(&prk, b"info", &mut short);
        assert_eq!(&long[..32], &short);
    }

    #[test]
    fn expand_reaches_the_rfc_maximum_length() {
        // The 255th block is the last the one-byte counter can number:
        // every length from 254·32 + 1 to 255·32 ends in it.
        let prk = extract(b"s", b"ikm");
        let mut short = [0u8; 32];
        expand(&prk, b"info", &mut short);
        let mut max = vec![0u8; 255 * 32];
        expand(&prk, b"info", &mut max);
        assert_eq!(&max[..32], &short);
        let mut just_over = vec![0u8; 254 * 32 + 1];
        expand(&prk, b"info", &mut just_over);
        assert_eq!(&just_over[..32], &short);
        assert_eq!(just_over[..], max[..just_over.len()]);
    }

    #[test]
    #[should_panic(expected = "HKDF output too long")]
    fn expand_refuses_past_the_rfc_maximum_length() {
        let prk = extract(b"s", b"ikm");
        expand(&prk, b"info", &mut vec![0u8; 255 * 32 + 1]);
    }
}
