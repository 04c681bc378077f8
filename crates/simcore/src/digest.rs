//! The FNV-1a word mixer every CityMesh report digest is built on.
//!
//! Reports across the workspace (fleet, stream, placement) fold their
//! deterministic fields into a 64-bit digest with the same tiny
//! algorithm: FNV-1a's offset basis and prime, applied one `u64` word
//! at a time. [`Fnv64`] is that algorithm, extracted here so the copies
//! stay bit-identical — every digest pinned as a golden value in CI was
//! produced by exactly this mixing order, and swapping a local closure
//! for [`Fnv64`] must never change a single bit.
//!
//! This is a *mixer*, not a cryptographic hash: it spreads structured
//! counter/fingerprint words well enough to make accidental collisions
//! between runs implausible, which is all the determinism checks need.

/// Incremental FNV-1a over 64-bit words.
///
/// ```
/// use citymesh_simcore::Fnv64;
/// let mut h = Fnv64::new();
/// h.mix(42);
/// h.mix(7);
/// assert_ne!(h.value(), Fnv64::new().value());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A fresh mixer at the FNV-1a 64-bit offset basis.
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one word in: XOR, then multiply by the FNV-1a prime.
    #[inline]
    pub fn mix(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
    }

    /// Folds one word in a byte at a time, little-endian — textbook
    /// FNV-1a over the word's eight bytes, for digests that predate
    /// the word mixer and are pinned in that form.
    #[inline]
    pub fn mix_bytes(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.mix(u64::from(byte));
        }
    }

    /// Folds `words` in, in order, when `cond` holds, and nothing when
    /// it does not — the rule by which a report's optional block joins
    /// its digest only once the feature behind it ran, so a run without
    /// the feature keeps the digest it had before the feature existed.
    #[inline]
    pub fn mix_when(&mut self, cond: bool, words: &[u64]) {
        if cond {
            for &w in words {
                self.mix(w);
            }
        }
    }

    /// The digest accumulated so far.
    #[inline]
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_inline_closure_idiom() {
        // The exact closure the reports used before extraction; the
        // helper must reproduce it word for word.
        let words = [0u64, 1, 42, u64::MAX, 0xdead_beef, 123.456f64.to_bits()];
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        };
        for &w in &words {
            mix(w);
        }
        let mut f = Fnv64::new();
        for &w in &words {
            f.mix(w);
        }
        assert_eq!(f.value(), h);
    }

    #[test]
    fn mix_bytes_is_textbook_fnv1a() {
        // Reference vectors: FNV-1a("a") = af63dc4c8601ec8c and
        // FNV-1a("foobar") = 85944171f73967e8. The zero high bytes of
        // the little-endian word XOR nothing in and multiply by the
        // prime once each.
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        for (word, prefix, zeros) in [
            (u64::from(b'a'), 0xaf63_dc4c_8601_ec8c_u64, 7),
            (u64::from_le_bytes(*b"foobar\0\0"), 0x8594_4171_f739_67e8, 2),
        ] {
            let mut f = Fnv64::new();
            f.mix_bytes(word);
            assert_eq!(f.value(), prefix.wrapping_mul(PRIME.wrapping_pow(zeros)));
        }
    }

    #[test]
    fn mix_when_false_mixes_nothing() {
        let mut skipped = Fnv64::new();
        skipped.mix(7);
        skipped.mix_when(false, &[1, 2, 3]);
        let mut plain = Fnv64::new();
        plain.mix(7);
        assert_eq!(skipped.value(), plain.value());
        // A true condition is the words mixed one by one, in order.
        skipped.mix_when(true, &[1, 2]);
        plain.mix(1);
        plain.mix(2);
        assert_eq!(skipped.value(), plain.value());
    }

    #[test]
    fn order_matters() {
        let mut a = Fnv64::new();
        a.mix(1);
        a.mix(2);
        let mut b = Fnv64::new();
        b.mix(2);
        b.mix(1);
        assert_ne!(a.value(), b.value());
    }
}
