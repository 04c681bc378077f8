//! HMAC-SHA256 (RFC 2104 / FIPS 198-1).

use crate::sha256::{Sha256, DIGEST_LEN};

const BLOCK_LEN: usize = 64;

/// Computes `HMAC-SHA256(key, message)`.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    let mut mac = HmacSha256::new(key);
    mac.update(message);
    mac.finalize()
}

/// A key's two HMAC midstates: SHA-256's chaining values after the
/// one block `key ⊕ ipad` and after the one block `key ⊕ opad`. 64
/// bytes whatever the key; a MAC started from them compresses only the
/// message's blocks and the outer block, never the key's two again.
#[derive(Clone, Copy)]
pub(crate) struct HmacMidstates {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl HmacMidstates {
    /// Keys the midstates (any key length; long keys are hashed
    /// first, per the RFC).
    pub(crate) fn new(key: &[u8]) -> Self {
        let mut block_key = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let digest = crate::sha256(key);
            block_key[..DIGEST_LEN].copy_from_slice(&digest);
        } else {
            block_key[..key.len()].copy_from_slice(key);
        }
        let midstate = |pad: u8| {
            let mut h = Sha256::new();
            h.update(&block_key.map(|b| b ^ pad));
            h.midstate()
        };
        HmacMidstates {
            inner: midstate(0x36),
            outer: midstate(0x5c),
        }
    }

    /// A MAC under this key, ready for message bytes.
    pub(crate) fn start(&self) -> HmacSha256 {
        HmacSha256 {
            inner: Sha256::from_midstate(self.inner, 1),
            outer: self.outer,
        }
    }
}

impl PartialEq for HmacMidstates {
    /// Constant-time: every word is compared, with no early exit.
    fn eq(&self, other: &Self) -> bool {
        let words = |m: &HmacMidstates| m.inner.into_iter().chain(m.outer);
        words(self)
            .zip(words(other))
            .fold(0, |acc, (a, b)| acc | (a ^ b))
            == 0
    }
}

/// Incremental HMAC-SHA256.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: [u32; 8],
}

impl HmacSha256 {
    /// Creates a MAC with `key` (any length; long keys are hashed
    /// first, per the RFC).
    pub fn new(key: &[u8]) -> Self {
        HmacMidstates::new(key).start()
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes and returns the tag.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let mut outer = Sha256::from_midstate(self.outer, 1);
        outer.update(&self.inner.finalize());
        outer.finalize()
    }

    /// Verifies `tag` in constant time.
    pub fn verify(self, tag: &[u8]) -> bool {
        crate::ct_eq(&self.finalize(), tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test vectors for HMAC-SHA-256.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let msg = [0xddu8; 50];
        let tag = hmac_sha256(&key, &msg);
        assert_eq!(
            hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_case_7_long_key_and_data() {
        let key = [0xaau8; 131];
        let msg = b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.";
        let tag = hmac_sha256(&key, msg);
        assert_eq!(
            hex(&tag),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn incremental_equals_one_shot() {
        let key = b"citymesh postbox key";
        let msg: Vec<u8> = (0..500u16).map(|i| (i % 256) as u8).collect();
        let mut mac = HmacSha256::new(key);
        for c in msg.chunks(13) {
            mac.update(c);
        }
        assert_eq!(mac.finalize(), hmac_sha256(key, &msg));
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let tag = hmac_sha256(b"k", b"m");
        assert!(HmacSha256::new(b"k").verify_with(b"m", &tag));
        let mut bad = tag;
        bad[0] ^= 1;
        assert!(!HmacSha256::new(b"k").verify_with(b"m", &bad));
        // Different key.
        assert!(!HmacSha256::new(b"k2").verify_with(b"m", &tag));
    }

    impl HmacSha256 {
        fn verify_with(mut self, msg: &[u8], tag: &[u8]) -> bool {
            self.update(msg);
            self.verify(tag)
        }
    }
}
