//! X25519 against a known point by a fixed-base comb on its
//! Edwards25519 image.
//!
//! The Montgomery ladder ([`x25519`](crate::x25519::x25519)) pays 255
//! steps for every product. When one point meets many scalars — a
//! registry public key every sender derives against, or the base point
//! every key generation multiplies — a table of that point's multiples
//! pays once and each product becomes 64 doublings and 64 table
//! additions. The curve is birationally equivalent to Edwards25519
//! (RFC 7748 §4.1): `y = (u − 1) / (u + 1)` and back `u = (1 + y) /
//! (1 − y)`, so [`PeerTable::mul`] returns the ladder's output bytes,
//! bit for bit.
//!
//! Point arithmetic is RFC 8032 §5.1.4 in extended coordinates
//! `(X : Y : Z : T)`, `x = X/Z`, `y = Y/Z`, `xy = T/Z`. Its formulas
//! are complete for `a = −1` and non-square `d`, torsion points
//! included, so no input needs a special case. The comb multiplies by
//! the full clamped scalar with no reduction mod ℓ, so an 8-torsion
//! component cancels exactly as it does in the ladder.

use crate::x25519::{clamp_scalar, Fe, KEY_LEN};

/// The curve constant `d = −121665 / 121666`.
const D: Fe = Fe([
    0x34dca135978a3,
    0x1a8283b156ebd,
    0x5e7a26001c029,
    0x739c663a03cbb,
    0x52036cee2b6ff,
]);

/// `2d`.
const D2: Fe = Fe([
    0x69b9426b2f159,
    0x35050762add7a,
    0x3cf44c0038052,
    0x6738cc7407977,
    0x2406d9dc56dff,
]);

/// `√−1 = 2^((p − 1) / 4)`.
const SQRT_M1: Fe = Fe([
    0x61b274a0ea0b0,
    0xd5a5fc8f189d,
    0x7ef5e9cbd0c60,
    0x78595a6804c9e,
    0x2b8324804fc1d,
]);

/// Teeth of the comb: bit `64·j + c` of the scalar selects the
/// `j`-th tooth in column `c`.
const TEETH: usize = 4;
/// Columns of the comb, one doubling each: `TEETH · COLUMNS` = 256
/// covers the 255-bit clamped scalar.
const COLUMNS: usize = 64;
/// Table entries: every subset of the teeth.
const ENTRIES: usize = 1 << TEETH;

// Limb bounds of the call pattern below, in the terms of the field
// comment in `x25519` (reduced: < 2^51 + 2^12, the output of `mul`,
// `square`, `weak_reduced` and `from_bytes`; `add` / `sub` of two
// reduced values: < 2^53, a valid `mul` / `square` input):
//
// * a point's coordinates are always reduced, and a table entry's
//   affine `x` and `y` are canonical (< 2^51 a limb, read from words),
//   so its niels form is one `add`, one `sub` and a product;
// * `double`: `a`, `b`, `c`, `(x + y)²` are reduced; `h = a + b` is
//   carried back to reduced, so `e = h − (x + y)²` and `g = a − b` are
//   sums of two reduced values; `f = 2c + g` (< 2^54) is carried;
// * `sums` (after `add` / `madd`): `a`, `b`, `c` are products and `d`
//   (`2·Z1·Z2` or `2·Z1`) is carried, so `e`, `f`, `g`, `h` are each
//   one `add` / `sub` of two reduced values;
// * `sub` takes a reduced right-hand side everywhere, which stays
//   below 2p's limbs, so no limb underflows.

/// A point in extended coordinates.
#[derive(Clone, Copy)]
struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// A point in projective coordinates `(X : Y : Z)`: all a doubling
/// reads, and all the comb keeps between columns.
#[derive(Clone, Copy)]
struct Projective {
    x: Fe,
    y: Fe,
    z: Fe,
}

/// An affine point as `(y + x, y − x, 2d·x·y)`, ready for a mixed
/// addition.
struct Niels {
    y_plus_x: Fe,
    y_minus_x: Fe,
    xy2d: Fe,
}

impl Niels {
    fn from_affine(x: Fe, y: Fe) -> Niels {
        Niels {
            y_plus_x: y.add(x),
            y_minus_x: y.sub(x),
            xy2d: x.mul(y).mul(D2),
        }
    }
}

impl Projective {
    /// `2·self` (RFC 8032 §5.1.4 doubling), which never reads `T`.
    fn double(self) -> Point {
        let a = self.x.square();
        let b = self.y.square();
        let c = self.z.square();
        let h = a.add(b).weak_reduced();
        let e = h.sub(self.x.add(self.y).square());
        let g = a.sub(b);
        let f = c.add(c).add(g).weak_reduced();
        Point {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
            t: e.mul(h),
        }
    }
}

impl Point {
    /// The neutral element `(0, 1)`.
    const IDENTITY: Point = Point {
        x: Fe::ZERO,
        y: Fe::ONE,
        z: Fe::ONE,
        t: Fe::ZERO,
    };

    fn projective(self) -> Projective {
        Projective {
            x: self.x,
            y: self.y,
            z: self.z,
        }
    }

    /// `self + q` (RFC 8032 §5.1.4 addition).
    fn add(self, q: &Point) -> Point {
        let a = self.y.sub(self.x).mul(q.y.sub(q.x));
        let b = self.y.add(self.x).mul(q.y.add(q.x));
        let c = self.t.mul(q.t).mul(D2);
        let zz = self.z.mul(q.z);
        let (e, f, g, h) = sums(a, b, c, zz.add(zz).weak_reduced());
        Point {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
            t: e.mul(h),
        }
    }

    /// `self + n`: the addition with `Z2 = 1` and the entry's sums and
    /// product precomputed. It leaves `T` out: a doubling comes next.
    fn madd(self, n: &Niels) -> Projective {
        let a = self.y.sub(self.x).mul(n.y_minus_x);
        let b = self.y.add(self.x).mul(n.y_plus_x);
        let c = self.t.mul(n.xy2d);
        let (e, f, g, h) = sums(a, b, c, self.z.add(self.z).weak_reduced());
        Projective {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
        }
    }
}

/// The addition's `E, F, G, H` from its `A, B, C, D`.
fn sums(a: Fe, b: Fe, c: Fe, d: Fe) -> (Fe, Fe, Fe, Fe) {
    (b.sub(a), d.sub(c), d.add(c), b.add(a))
}

/// `√(num / den)` by RFC 8032 §5.1.3 step 3, or `None` when the ratio
/// is not a square. Either root may come back. `num` must be reduced
/// (it is negated). Variable-time: only ever called on a public point.
fn sqrt_ratio(num: Fe, den: Fe) -> Option<Fe> {
    let den3 = den.square().mul(den);
    let den7 = den3.square().mul(den);
    let x = num.mul(den3).mul(num.mul(den7).pow_p58());
    let check = den.mul(x.square()).to_bytes();
    if check == num.to_bytes() {
        Some(x)
    } else if check == Fe::ZERO.sub(num).to_bytes() {
        Some(x.mul(SQRT_M1))
    } else {
        None
    }
}

/// The comb table of one point: the 16 sums of its four teeth
/// `P, 2⁶⁴P, 2¹²⁸P, 2¹⁹²P`, affine. Entry `i` holds
/// `Σ_j bit_j(i) · 2^(64j) · P`; entry 0 is the identity. Each entry is
/// `(x, y)`, canonical, in four words apiece (`Fe::to_words`): 1 KB
/// a table, where niels entries would take 1.5 KB — a comb forms the
/// selected entry's niels form itself, two products a column. A pure
/// function of the point, so one table serves every scalar that meets
/// it.
#[derive(Clone)]
pub struct PeerTable {
    entries: [[u64; 8]; ENTRIES],
    point: [u8; KEY_LEN],
}

impl std::fmt::Debug for PeerTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PeerTable(..)")
    }
}

impl PeerTable {
    /// Builds the table of the curve point with u-coordinate `point`
    /// (RFC 7748 encoding, top bit ignored). `None` when that `u` has
    /// no Edwards image: a point of the quadratic twist, or `u ≡ −1`.
    /// Variable-time in `u`, which is public.
    pub fn new(point: &[u8; KEY_LEN]) -> Option<PeerTable> {
        // y = (u − 1) / (u + 1), kept projective as Y / Z.
        let u = Fe::from_bytes(point);
        let (y, z) = (u.sub(Fe::ONE).weak_reduced(), u.add(Fe::ONE).weak_reduced());
        if z.to_bytes() == [0; KEY_LEN] {
            return None;
        }
        // x² = (y² − 1) / (d·y² + 1) = (Y² − Z²) / (d·Y² + Z²); either
        // sign of x serves, since [k]P and [k](−P) share a u.
        let (yy, zz) = (y.square(), z.square());
        let x = sqrt_ratio(yy.sub(zz).weak_reduced(), D.mul(yy).add(zz))?;
        let base = Point {
            x: x.mul(z),
            y,
            z,
            t: x.mul(y),
        };
        let mut teeth = [base; TEETH];
        for j in 1..TEETH {
            teeth[j] = (0..COLUMNS).fold(teeth[j - 1], |p, _| p.projective().double());
        }
        let mut sums = [Point::IDENTITY; ENTRIES];
        for i in 1..ENTRIES {
            sums[i] = sums[i & (i - 1)].add(&teeth[i.trailing_zeros() as usize]);
        }

        // One inversion for all sixteen Z (Montgomery's trick): prefix
        // products forward, then peel one inverse off per entry.
        let mut prefix = [Fe::ONE; ENTRIES];
        let mut acc = Fe::ONE;
        for (slot, p) in prefix.iter_mut().zip(&sums) {
            *slot = acc;
            acc = acc.mul(p.z);
        }
        let mut inv = acc.invert();
        let mut entries = [[0; 8]; ENTRIES];
        for i in (0..ENTRIES).rev() {
            let z_inv = inv.mul(prefix[i]);
            inv = inv.mul(sums[i].z);
            entries[i][..4].copy_from_slice(&sums[i].x.mul(z_inv).to_words());
            entries[i][4..].copy_from_slice(&sums[i].y.mul(z_inv).to_words());
        }
        Some(PeerTable {
            entries,
            point: *point,
        })
    }

    /// The u-coordinate the table was built from, as given.
    pub fn point(&self) -> &[u8; KEY_LEN] {
        &self.point
    }

    /// X25519 of `scalar` (clamped here, as the ladder clamps it) and
    /// this table's point: equal to `x25519(scalar, self.point())` for
    /// every scalar.
    ///
    /// Constant-time in the scalar: every column doubles once, reads
    /// all sixteen entries under a mask and adds the selected one, so
    /// no branch and no memory index depends on a secret bit.
    pub fn mul(&self, scalar: &[u8; KEY_LEN]) -> [u8; KEY_LEN] {
        let k = clamp_scalar(*scalar);
        let bit = |i: usize| u64::from((k[i / 8] >> (i % 8)) & 1);
        let mut q = Point::IDENTITY.projective();
        for c in (0..COLUMNS).rev() {
            let index = (0..TEETH).fold(0, |acc, j| acc | bit(COLUMNS * j + c) << j);
            q = q.double().madd(&self.select(index));
        }
        // u = (1 + y) / (1 − y) = (Z + Y) / (Z − Y); the identity
        // (Z = Y) gives 0, as the ladder's point at infinity does.
        q.z.add(q.y).mul(q.z.sub(q.y).invert()).to_bytes()
    }

    /// Entry `index` in niels form, read by a masked scan of all
    /// sixteen.
    fn select(&self, index: u64) -> Niels {
        let mut out = [0u64; 8];
        for (i, entry) in self.entries.iter().enumerate() {
            let diff = i as u64 ^ index;
            // All ones when `diff == 0`, else zero, with no branch.
            let mask = ((diff | diff.wrapping_neg()) >> 63).wrapping_sub(1);
            for (o, w) in out.iter_mut().zip(entry) {
                *o |= mask & w;
            }
        }
        let fe = |i: usize| Fe::from_words(out[i..i + 4].try_into().expect("4 words"));
        Niels::from_affine(fe(0), fe(4))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_the_curve_s() {
        let from = |v: u64| Fe([v, 0, 0, 0, 0]);
        // d · 121666 = −121665, 2d = d + d, √−1² = −1.
        assert_eq!(
            D.mul(from(121666)).to_bytes(),
            Fe::ZERO.sub(from(121665)).to_bytes()
        );
        assert_eq!(D.add(D).to_bytes(), D2.to_bytes());
        assert_eq!(
            SQRT_M1.square().to_bytes(),
            Fe::ZERO.sub(Fe::ONE).to_bytes()
        );
    }

    #[test]
    fn points_without_an_edwards_image_have_no_table() {
        // u = p − 1 ≡ −1, and u = 2, a twist point.
        let mut minus_one = [0xff; 32];
        minus_one[0] = 0xec;
        minus_one[31] = 0x7f;
        assert!(PeerTable::new(&minus_one).is_none());
        let mut two = [0; 32];
        two[0] = 2;
        assert!(PeerTable::new(&two).is_none());
    }
}
