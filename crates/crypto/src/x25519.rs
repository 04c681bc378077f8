//! X25519 Diffie–Hellman (RFC 7748).
//!
//! Field arithmetic over GF(2²⁵⁵ − 19) with five 51-bit limbs and
//! `u128` intermediate products; scalar multiplication by the
//! Montgomery ladder with constant-time conditional swaps (no
//! secret-dependent branches or indexing). The ladder serves any
//! point; a point met by many scalars — the base point here, a
//! registry key in `citymesh-core` — takes the comb of
//! [`PeerTable`] instead, which returns the same bytes.

use std::sync::OnceLock;

use crate::edwards::PeerTable;

/// Length of scalars, coordinates, and shared secrets, bytes.
pub const KEY_LEN: usize = 32;

/// The base point's u-coordinate (9).
pub const BASEPOINT: [u8; KEY_LEN] = {
    let mut b = [0u8; KEY_LEN];
    b[0] = 9;
    b
};

const MASK51: u64 = (1 << 51) - 1;

/// One limb product, `u64 × u64 → u128`.
#[inline(always)]
fn m(a: u64, b: u64) -> u128 {
    u128::from(a) * u128::from(b)
}

/// A field element in GF(2²⁵⁵ − 19), five radix-2⁵¹ limbs.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fe(pub(crate) [u64; 5]);

impl Fe {
    pub(crate) const ZERO: Fe = Fe([0; 5]);
    pub(crate) const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    /// Parses 32 little-endian bytes, masking the top bit (RFC 7748
    /// §5: the u-coordinate's bit 255 is ignored).
    pub(crate) fn from_bytes(bytes: &[u8; 32]) -> Fe {
        let load = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8 bytes"));
        Fe([
            load(0) & MASK51,
            (load(6) >> 3) & MASK51,
            (load(12) >> 6) & MASK51,
            (load(19) >> 1) & MASK51,
            (load(24) >> 12) & MASK51,
        ])
    }

    /// Serializes to 32 little-endian bytes in canonical (fully
    /// reduced) form.
    pub(crate) fn to_bytes(self) -> [u8; 32] {
        let mut h = self.weak_reduced().0;
        // Compute the quotient of (h + 19) / 2^255 to decide whether
        // h ≥ p, then add 19·q and mask — the standard branch-free
        // canonicalization.
        let mut q = (h[0] + 19) >> 51;
        q = (h[1] + q) >> 51;
        q = (h[2] + q) >> 51;
        q = (h[3] + q) >> 51;
        q = (h[4] + q) >> 51;
        h[0] += 19 * q;
        let mut carry;
        carry = h[0] >> 51;
        h[0] &= MASK51;
        h[1] += carry;
        carry = h[1] >> 51;
        h[1] &= MASK51;
        h[2] += carry;
        carry = h[2] >> 51;
        h[2] &= MASK51;
        h[3] += carry;
        carry = h[3] >> 51;
        h[3] &= MASK51;
        h[4] += carry;
        h[4] &= MASK51;

        let mut out = [0u8; 32];
        let mut acc: u128 = 0;
        let mut acc_bits = 0u32;
        let mut idx = 0;
        for limb in h {
            acc |= (limb as u128) << acc_bits;
            acc_bits += 51;
            while acc_bits >= 8 && idx < 32 {
                out[idx] = acc as u8;
                acc >>= 8;
                acc_bits -= 8;
                idx += 1;
            }
        }
        while idx < 32 {
            out[idx] = acc as u8;
            acc >>= 8;
            idx += 1;
        }
        out
    }

    /// The canonical value as four little-endian 64-bit words: 32
    /// bytes where the limbs take 40, for tables kept in memory.
    pub(crate) fn to_words(self) -> [u64; 4] {
        let bytes = self.to_bytes();
        std::array::from_fn(|i| {
            u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().expect("8 bytes"))
        })
    }

    /// The inverse of [`Fe::to_words`]: limbs < 2^51.
    pub(crate) fn from_words(w: [u64; 4]) -> Fe {
        Fe([
            w[0] & MASK51,
            (w[0] >> 51 | w[1] << 13) & MASK51,
            (w[1] >> 38 | w[2] << 26) & MASK51,
            (w[2] >> 25 | w[3] << 39) & MASK51,
            (w[3] >> 12) & MASK51,
        ])
    }

    /// Carry-propagates so every limb is below 2⁵¹ + ε.
    pub(crate) fn weak_reduced(self) -> Fe {
        let mut h = self.0;
        let mut carry;
        carry = h[0] >> 51;
        h[0] &= MASK51;
        h[1] += carry;
        carry = h[1] >> 51;
        h[1] &= MASK51;
        h[2] += carry;
        carry = h[2] >> 51;
        h[2] &= MASK51;
        h[3] += carry;
        carry = h[3] >> 51;
        h[3] &= MASK51;
        h[4] += carry;
        carry = h[4] >> 51;
        h[4] &= MASK51;
        h[0] += 19 * carry;
        carry = h[0] >> 51;
        h[0] &= MASK51;
        h[1] += carry;
        Fe(h)
    }

    // Limb bounds, which the ladder's call pattern keeps (`add` and
    // `sub` are only ever applied to `from_bytes` / `carry` outputs;
    // `invert` only multiplies). Nothing here branches on them — they
    // are why no limb overflows:
    //
    // * `from_bytes` and every `carry` output: limbs < 2^51 + 2^12;
    // * `add` / `sub` (+2p) outputs, with no carry of their own:
    //   limbs < 2^53;
    // * so `mul` / `square` inputs are < 2^53, a limb times 19 is
    //   < 2^58 (a `u64`), every product < 2^53 · 2^57.3 = 2^110.3, and
    //   a column `c0` (one plain product plus four times-19 ones) is
    //   < 2^113 — its carry `c0 >> 51` fits a `u64`.

    /// `self + rhs`, limb by limb (< 2^53 under the bounds above).
    pub(crate) fn add(self, rhs: Fe) -> Fe {
        let mut h = self.0;
        for (limb, r) in h.iter_mut().zip(rhs.0) {
            *limb += r;
        }
        Fe(h)
    }

    /// `self − rhs + 2p`, limb by limb: `rhs` limbs (< 2^51 + 2^12)
    /// stay below 2p's (≥ 2^52 − 38), so none underflows, and the
    /// result is < 2^53.
    pub(crate) fn sub(self, rhs: Fe) -> Fe {
        const TWO_P: [u64; 5] = [
            0xF_FFFF_FFFF_FFDA,
            0xF_FFFF_FFFF_FFFE,
            0xF_FFFF_FFFF_FFFE,
            0xF_FFFF_FFFF_FFFE,
            0xF_FFFF_FFFF_FFFE,
        ];
        let mut h = [0u64; 5];
        for i in 0..5 {
            h[i] = self.0[i] + TWO_P[i] - rhs.0[i];
        }
        Fe(h)
    }

    pub(crate) fn mul(self, rhs: Fe) -> Fe {
        let [a0, a1, a2, a3, a4] = self.0;
        let [b0, b1, b2, b3, b4] = rhs.0;
        let (b1_19, b2_19, b3_19, b4_19) = (b1 * 19, b2 * 19, b3 * 19, b4 * 19);

        let t0 = m(a0, b0) + m(a1, b4_19) + m(a2, b3_19) + m(a3, b2_19) + m(a4, b1_19);
        let t1 = m(a0, b1) + m(a1, b0) + m(a2, b4_19) + m(a3, b3_19) + m(a4, b2_19);
        let t2 = m(a0, b2) + m(a1, b1) + m(a2, b0) + m(a3, b4_19) + m(a4, b3_19);
        let t3 = m(a0, b3) + m(a1, b2) + m(a2, b1) + m(a3, b0) + m(a4, b4_19);
        let t4 = m(a0, b4) + m(a1, b3) + m(a2, b2) + m(a3, b1) + m(a4, b0);

        Self::carry(t0, t1, t2, t3, t4)
    }

    /// `self²` with the symmetric cross terms folded: 15 limb products
    /// where `mul(self)` spends 25.
    pub(crate) fn square(self) -> Fe {
        let [a0, a1, a2, a3, a4] = self.0;
        let (a0_2, a1_2, a2_2, a3_2) = (a0 * 2, a1 * 2, a2 * 2, a3 * 2);
        let (a3_19, a4_19) = (a3 * 19, a4 * 19);

        let t0 = m(a0, a0) + m(a1_2, a4_19) + m(a2_2, a3_19);
        let t1 = m(a0_2, a1) + m(a2_2, a4_19) + m(a3, a3_19);
        let t2 = m(a0_2, a2) + m(a1, a1) + m(a3_2, a4_19);
        let t3 = m(a0_2, a3) + m(a1_2, a2) + m(a4, a4_19);
        let t4 = m(a0_2, a4) + m(a1_2, a3) + m(a2, a2);

        Self::carry(t0, t1, t2, t3, t4)
    }

    /// `self^(2^k)`: `k` successive squarings.
    fn pow2k(self, k: u32) -> Fe {
        (0..k).fold(self, |x, _| x.square())
    }

    /// Multiplication by the curve constant (A − 2) / 4 = 121665.
    fn mul_small_121665(self) -> Fe {
        let a = self.0.map(|x| x as u128);
        Self::carry(
            a[0] * 121665,
            a[1] * 121665,
            a[2] * 121665,
            a[3] * 121665,
            a[4] * 121665,
        )
    }

    fn carry(t0: u128, t1: u128, t2: u128, t3: u128, t4: u128) -> Fe {
        // Columns are < 2^113 (see the bounds above), so every carry
        // out of one fits a `u64`. `t4` has no times-19 products
        // (< 2^109), so `19 · c4` < 2^62 and limb 1 ends < 2^51 + 2^12.
        let c = (t0 >> 51) as u64;
        let r0 = t0 as u64 & MASK51;
        let t1 = t1 + u128::from(c);
        let c = (t1 >> 51) as u64;
        let r1 = t1 as u64 & MASK51;
        let t2 = t2 + u128::from(c);
        let c = (t2 >> 51) as u64;
        let r2 = t2 as u64 & MASK51;
        let t3 = t3 + u128::from(c);
        let c = (t3 >> 51) as u64;
        let r3 = t3 as u64 & MASK51;
        let t4 = t4 + u128::from(c);
        let c = (t4 >> 51) as u64;
        let r4 = t4 as u64 & MASK51;
        let r0 = r0 + 19 * c;
        Fe([r0 & MASK51, r1 + (r0 >> 51), r2, r3, r4])
    }

    /// `(self^(2²⁵⁰ − 1), self^11)`, the shared prefix of the two
    /// fixed addition chains below. `z_a_b` is self^(2^a − 2^b); the
    /// exponents are public, so the chains have no secret-dependent
    /// branch or index.
    fn pow_2_250_1(self) -> (Fe, Fe) {
        let z2 = self.square();
        let z9 = self.mul(z2.pow2k(2));
        let z11 = z2.mul(z9);
        let z_5_0 = z9.mul(z11.square());
        let z_10_0 = z_5_0.pow2k(5).mul(z_5_0);
        let z_20_0 = z_10_0.pow2k(10).mul(z_10_0);
        let z_40_0 = z_20_0.pow2k(20).mul(z_20_0);
        let z_50_0 = z_40_0.pow2k(10).mul(z_10_0);
        let z_100_0 = z_50_0.pow2k(50).mul(z_50_0);
        let z_200_0 = z_100_0.pow2k(100).mul(z_100_0);
        (z_200_0.pow2k(50).mul(z_50_0), z11)
    }

    /// Inversion via Fermat: self^(p − 2) = self^(2²⁵⁵ − 21) (254
    /// squarings, 11 multiplies). Zero maps to zero.
    pub(crate) fn invert(self) -> Fe {
        let (z_250_0, z11) = self.pow_2_250_1();
        z_250_0.pow2k(5).mul(z11)
    }

    /// self^((p − 5) / 8) = self^(2²⁵² − 3), the exponent of RFC 8032's
    /// square root (§5.1.3).
    pub(crate) fn pow_p58(self) -> Fe {
        self.pow_2_250_1().0.pow2k(2).mul(self)
    }

    /// Constant-time conditional swap of `a` and `b` when `bit == 1`.
    fn cswap(bit: u64, a: &mut Fe, b: &mut Fe) {
        debug_assert!(bit <= 1);
        let mask = 0u64.wrapping_sub(bit);
        for (la, lb) in a.0.iter_mut().zip(b.0.iter_mut()) {
            let x = mask & (*la ^ *lb);
            *la ^= x;
            *lb ^= x;
        }
    }
}

/// Clamps a 32-byte scalar per RFC 7748 §5.
pub fn clamp_scalar(mut scalar: [u8; KEY_LEN]) -> [u8; KEY_LEN] {
    scalar[0] &= 248;
    scalar[31] &= 127;
    scalar[31] |= 64;
    scalar
}

/// X25519 scalar multiplication: `scalar · point`, both as 32-byte
/// strings per RFC 7748. The scalar is clamped internally.
pub fn x25519(scalar: &[u8; KEY_LEN], point: &[u8; KEY_LEN]) -> [u8; KEY_LEN] {
    let k = clamp_scalar(*scalar);
    let x1 = Fe::from_bytes(point);

    let mut x2 = Fe::ONE;
    let mut z2 = Fe::ZERO;
    let mut x3 = x1;
    let mut z3 = Fe::ONE;
    let mut swap = 0u64;

    for t in (0..255).rev() {
        let k_t = ((k[t / 8] >> (t % 8)) & 1) as u64;
        swap ^= k_t;
        Fe::cswap(swap, &mut x2, &mut x3);
        Fe::cswap(swap, &mut z2, &mut z3);
        swap = k_t;

        let a = x2.add(z2);
        let aa = a.square();
        let b = x2.sub(z2);
        let bb = b.square();
        let e = aa.sub(bb);
        let c = x3.add(z3);
        let d = x3.sub(z3);
        let da = d.mul(a);
        let cb = c.mul(b);
        x3 = da.add(cb).square();
        z3 = x1.mul(da.sub(cb).square());
        x2 = aa.mul(bb);
        z2 = e.mul(aa.add(e.mul_small_121665()));
    }
    Fe::cswap(swap, &mut x2, &mut x3);
    Fe::cswap(swap, &mut z2, &mut z3);

    x2.mul(z2.invert()).to_bytes()
}

/// The base point's comb table, built by the first key generation.
static BASE: OnceLock<PeerTable> = OnceLock::new();

/// Derives the public key for `scalar`: `scalar · basepoint`, by the
/// comb on the base point's table (built on first use, once per
/// process). Equal to `x25519(scalar, &BASEPOINT)`.
pub fn public_key(scalar: &[u8; KEY_LEN]) -> [u8; KEY_LEN] {
    BASE.get_or_init(|| PeerTable::new(&BASEPOINT).expect("the base point is on the curve"))
        .mul(scalar)
}

/// Whether this process has built the base point's table — that is,
/// generated a key. A plaintext run never does.
pub fn base_table_built() -> bool {
    BASE.get().is_some()
}

/// Computes the shared secret between `our_scalar` and `their_public`.
///
/// Returns `None` when the result is the all-zero point (inputs in the
/// small-order subgroup) — RFC 7748 §6.1 requires rejecting it.
pub fn shared_secret(
    our_scalar: &[u8; KEY_LEN],
    their_public: &[u8; KEY_LEN],
) -> Option<[u8; KEY_LEN]> {
    nonzero(x25519(our_scalar, their_public))
}

/// `None` for the all-zero output, compared in constant time.
pub(crate) fn nonzero(out: [u8; KEY_LEN]) -> Option<[u8; KEY_LEN]> {
    (!crate::ct_eq(&out, &[0u8; KEY_LEN])).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn unhex(s: &str) -> [u8; 32] {
        let v: Vec<u8> = (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect();
        v.try_into().unwrap()
    }

    #[test]
    fn field_round_trip() {
        let x = unhex("0900000000000000000000000000000000000000000000000000000000000000");
        assert_eq!(Fe::from_bytes(&x).to_bytes(), x);
        // A value just under p must round-trip canonically.
        let near_p = unhex("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");
        assert_eq!(Fe::from_bytes(&near_p).to_bytes(), near_p);
        // p itself reduces to zero.
        let p = unhex("edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");
        assert_eq!(Fe::from_bytes(&p).to_bytes(), [0u8; 32]);
        for bytes in [x, near_p, p, [0xA5; 32]] {
            let f = Fe::from_bytes(&bytes);
            assert_eq!(Fe::from_words(f.to_words()).to_bytes(), f.to_bytes());
        }
    }

    #[test]
    fn field_algebra() {
        let a = Fe::from_bytes(&unhex(
            "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449a44",
        ));
        let b = Fe::from_bytes(&unhex(
            "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
        ));
        // (a + b) - b == a
        assert_eq!(a.add(b).sub(b).to_bytes(), a.to_bytes());
        // a * 1 == a
        assert_eq!(a.mul(Fe::ONE).to_bytes(), a.to_bytes());
        // a * a⁻¹ == 1
        assert_eq!(a.mul(a.invert()).to_bytes(), Fe::ONE.to_bytes());
        // square == mul self, also on unreduced-looking and edge inputs
        for x in [
            a,
            b,
            a.add(b),
            a.sub(b),
            Fe::ZERO,
            Fe::ONE,
            Fe::ZERO.sub(Fe::ONE),
        ] {
            assert_eq!(x.square().to_bytes(), x.mul(x).to_bytes());
        }
        assert_eq!(b.mul(b.invert()).to_bytes(), Fe::ONE.to_bytes());
        assert_eq!(Fe::ZERO.invert().to_bytes(), [0u8; 32]);
        // distributivity: a(b + 1) = ab + a
        assert_eq!(a.mul(b.add(Fe::ONE)).to_bytes(), a.mul(b).add(a).to_bytes());
    }

    #[test]
    fn rfc7748_vector_1() {
        let scalar = unhex("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
        let point = unhex("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
        let expected = unhex("c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
        assert_eq!(x25519(&scalar, &point), expected);
    }

    #[test]
    fn rfc7748_vector_2() {
        let scalar = unhex("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
        let point = unhex("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
        let expected = unhex("95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
        assert_eq!(x25519(&scalar, &point), expected);
    }

    #[test]
    fn rfc7748_iterated_once() {
        // §5.2: one iteration of k := X25519(k, u) starting from the
        // base point.
        let k = BASEPOINT;
        let u = BASEPOINT;
        let expected = unhex("422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079");
        assert_eq!(x25519(&k, &u), expected);
    }

    #[test]
    fn rfc7748_iterated_1000() {
        // §5.2: k, u := X25519(k, u), k — a thousand times.
        let (mut k, mut u) = (BASEPOINT, BASEPOINT);
        for _ in 0..1000 {
            (k, u) = (x25519(&k, &u), k);
        }
        let expected = unhex("684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51");
        assert_eq!(k, expected);
    }

    #[test]
    fn rfc7748_diffie_hellman() {
        // §6.1.
        let alice_priv = unhex("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
        let bob_priv = unhex("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
        let alice_pub = public_key(&alice_priv);
        let bob_pub = public_key(&bob_priv);
        assert_eq!(
            alice_pub,
            unhex("8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a")
        );
        assert_eq!(
            bob_pub,
            unhex("de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f")
        );
        let shared_a = shared_secret(&alice_priv, &bob_pub).unwrap();
        let shared_b = shared_secret(&bob_priv, &alice_pub).unwrap();
        assert_eq!(shared_a, shared_b);
        assert_eq!(
            shared_a,
            unhex("4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742")
        );
    }

    #[test]
    fn small_order_point_rejected() {
        let scalar = unhex("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
        let zero_point = [0u8; 32];
        assert!(shared_secret(&scalar, &zero_point).is_none());
    }

    #[test]
    fn clamping_is_applied() {
        // Clamped and unclamped versions of the same scalar agree.
        let raw = unhex("0101010101010101010101010101010101010101010101010101010101010101");
        let clamped = clamp_scalar(raw);
        assert_eq!(x25519(&raw, &BASEPOINT), x25519(&clamped, &BASEPOINT));
        assert_eq!(clamped[0] & 7, 0);
        assert_eq!(clamped[31] & 0x80, 0);
        assert_eq!(clamped[31] & 0x40, 0x40);
    }

    // The field arithmetic as it was before `add` / `sub` stopped
    // reducing and `mul` / `square` pre-scaled by 19: every sum carried
    // at once, products and the times-19 folds in `u128`. It is the
    // reference the new operations are checked against.

    fn ref_add(a: Fe, b: Fe) -> Fe {
        let mut h = a.0;
        for (limb, r) in h.iter_mut().zip(b.0) {
            *limb += r;
        }
        Fe(h).weak_reduced()
    }

    fn ref_sub(a: Fe, b: Fe) -> Fe {
        const TWO_P: [u64; 5] = [
            0xF_FFFF_FFFF_FFDA,
            0xF_FFFF_FFFF_FFFE,
            0xF_FFFF_FFFF_FFFE,
            0xF_FFFF_FFFF_FFFE,
            0xF_FFFF_FFFF_FFFE,
        ];
        let mut h = [0u64; 5];
        for i in 0..5 {
            h[i] = a.0[i] + TWO_P[i] - b.0[i];
        }
        Fe(h).weak_reduced()
    }

    fn ref_mul(x: Fe, y: Fe) -> Fe {
        let a = x.0.map(|x| x as u128);
        let b = y.0.map(|x| x as u128);
        let t0 = a[0] * b[0] + 19 * (a[1] * b[4] + a[2] * b[3] + a[3] * b[2] + a[4] * b[1]);
        let t1 = a[0] * b[1] + a[1] * b[0] + 19 * (a[2] * b[4] + a[3] * b[3] + a[4] * b[2]);
        let t2 = a[0] * b[2] + a[1] * b[1] + a[2] * b[0] + 19 * (a[3] * b[4] + a[4] * b[3]);
        let t3 = a[0] * b[3] + a[1] * b[2] + a[2] * b[1] + a[3] * b[0] + 19 * (a[4] * b[4]);
        let t4 = a[0] * b[4] + a[1] * b[3] + a[2] * b[2] + a[3] * b[1] + a[4] * b[0];
        ref_carry([t0, t1, t2, t3, t4])
    }

    fn ref_square(x: Fe) -> Fe {
        let a = x.0.map(|x| x as u128);
        let (a0_2, a1_2) = (2 * a[0], 2 * a[1]);
        let (a3_19, a4_19) = (19 * a[3], 19 * a[4]);
        let t0 = a[0] * a[0] + 2 * (a[1] * a4_19 + a[2] * a3_19);
        let t1 = a0_2 * a[1] + 2 * (a[2] * a4_19) + a[3] * a3_19;
        let t2 = a0_2 * a[2] + a[1] * a[1] + 2 * (a[3] * a4_19);
        let t3 = a0_2 * a[3] + a1_2 * a[2] + a[4] * a4_19;
        let t4 = a0_2 * a[4] + a1_2 * a[3] + a[2] * a[2];
        ref_carry([t0, t1, t2, t3, t4])
    }

    fn ref_carry(t: [u128; 5]) -> Fe {
        let m = MASK51 as u128;
        let mut r = [0u64; 5];
        let mut c = 0u128;
        for i in 0..5 {
            let ti = t[i] + c;
            c = ti >> 51;
            r[i] = (ti & m) as u64;
        }
        r[0] += 19 * c as u64;
        let c2 = r[0] >> 51;
        r[0] &= MASK51;
        r[1] += c2;
        Fe(r)
    }

    /// One ladder step (the loop body of [`x25519`]) over a given set
    /// of field operations.
    struct Ops {
        add: fn(Fe, Fe) -> Fe,
        sub: fn(Fe, Fe) -> Fe,
        mul: fn(Fe, Fe) -> Fe,
        square: fn(Fe) -> Fe,
    }

    fn ladder_step(o: &Ops, x1: Fe, [x2, z2, x3, z3]: [Fe; 4]) -> [Fe; 4] {
        let a = (o.add)(x2, z2);
        let aa = (o.square)(a);
        let b = (o.sub)(x2, z2);
        let bb = (o.square)(b);
        let e = (o.sub)(aa, bb);
        let c = (o.add)(x3, z3);
        let d = (o.sub)(x3, z3);
        let da = (o.mul)(d, a);
        let cb = (o.mul)(c, b);
        [
            (o.mul)(aa, bb),
            (o.mul)(e, (o.add)(aa, e.mul_small_121665())),
            (o.square)((o.add)(da, cb)),
            (o.mul)(x1, (o.square)((o.sub)(da, cb))),
        ]
    }

    /// The largest limb a `carry` output (or `from_bytes`) can hold,
    /// plus one: every input below is at most this, so the new
    /// operations run at the top of the bounds their comments claim.
    const REDUCED_END: u64 = (1 << 51) + (1 << 12);

    /// A reduced field element, half the time with every limb within
    /// 2^16 of the bound.
    fn reduced() -> impl Strategy<Value = Fe> {
        let limb = || {
            prop_oneof![
                0..REDUCED_END,
                REDUCED_END - (1 << 16)..REDUCED_END,
                REDUCED_END - 1..REDUCED_END,
            ]
        };
        (limb(), limb(), limb(), limb(), limb()).prop_map(|(a, b, c, d, e)| Fe([a, b, c, d, e]))
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The carry-free `add` / `sub` and the pre-scaled `mul` /
        /// `square` equal the weak-reducing reference as field elements
        /// — alone, on each other's unreduced outputs, and over a whole
        /// ladder step — and stay inside their documented limb bounds.
        #[test]
        fn field_ops_equal_the_weak_reducing_reference(
            (x1, x2, z2) in (reduced(), reduced(), reduced()),
            (x3, z3) in (reduced(), reduced()),
        ) {
            let below = |f: Fe, bound: u64| f.0.iter().all(|&l| l < bound);
            let (sum, diff) = (x2.add(z2), x2.sub(z2));
            prop_assert!(below(sum, 1 << 53) && below(diff, 1 << 53));
            prop_assert_eq!(sum.to_bytes(), ref_add(x2, z2).to_bytes());
            prop_assert_eq!(diff.to_bytes(), ref_sub(x2, z2).to_bytes());
            for (p, q) in [(sum, diff), (diff, diff), (sum, x3), (x1, z3)] {
                let product = p.mul(q);
                prop_assert!(below(product, REDUCED_END));
                prop_assert_eq!(product.to_bytes(), ref_mul(p, q).to_bytes());
                let squared = p.square();
                prop_assert!(below(squared, REDUCED_END));
                prop_assert_eq!(squared.to_bytes(), ref_square(p).to_bytes());
            }

            let new = Ops { add: Fe::add, sub: Fe::sub, mul: Fe::mul, square: Fe::square };
            let reference = Ops { add: ref_add, sub: ref_sub, mul: ref_mul, square: ref_square };
            let got = ladder_step(&new, x1, [x2, z2, x3, z3]);
            let expected = ladder_step(&reference, x1, [x2, z2, x3, z3]);
            for (g, e) in got.iter().zip(&expected) {
                prop_assert!(below(*g, REDUCED_END));
                prop_assert_eq!(g.to_bytes(), e.to_bytes());
            }
        }
    }

    #[test]
    fn dh_agreement_random_keys() {
        // Deterministic "random" keys.
        for seed in 0u8..4 {
            let a = [seed.wrapping_mul(17).wrapping_add(3); 32];
            let b = [seed.wrapping_mul(29).wrapping_add(7); 32];
            let pa = public_key(&a);
            let pb = public_key(&b);
            assert_eq!(
                shared_secret(&a, &pb).unwrap(),
                shared_secret(&b, &pa).unwrap(),
                "seed {seed}"
            );
        }
    }
}
