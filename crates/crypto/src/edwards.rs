//! X25519 against a known point by a fixed-base comb on its
//! Edwards25519 image, finished in batches.
//!
//! The Montgomery ladder ([`x25519`](crate::x25519::x25519)) pays 255
//! steps for every product. When one point meets many scalars — a
//! registry public key every sender derives against, or the base point
//! every key generation multiplies — a table of that point's multiples
//! pays once and each product becomes 32 doublings and 64 table
//! additions (Lim–Lee: two tables, the second 2¹²⁸ times the first).
//! The curve is birationally equivalent to Edwards25519 (RFC 7748
//! §4.1): `y = (u − 1) / (u + 1)` and back `u = (1 + y) / (1 − y)`. A
//! comb stops at that fraction, and [`CombBatch`] divides a whole batch
//! of them with one field inversion (Montgomery's trick), so every
//! product returns the ladder's output bytes, bit for bit, and the
//! inversion is paid once per batch. [`PeerTable::mul`] is a batch of
//! one.
//!
//! Point arithmetic is RFC 8032 §5.1.4 in extended coordinates
//! `(X : Y : Z : T)`, `x = X/Z`, `y = Y/Z`, `xy = T/Z`. Its formulas
//! are complete for `a = −1` and non-square `d`, torsion points
//! included, so no input needs a special case. The comb multiplies by
//! the full clamped scalar with no reduction mod ℓ, so an 8-torsion
//! component cancels exactly as it does in the ladder.

use crate::x25519::{clamp_scalar, words, Fe, KEY_LEN};

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

/// Teeth of one table: bit `32·j + c` of the scalar selects the
/// `j`-th tooth of the low table in column `c`, bit `128 + 32·j + c`
/// the `j`-th tooth of the high table.
const TEETH: usize = 4;
/// Columns of the comb, one doubling each: `2 · TEETH · COLUMNS` = 256
/// covers the 255-bit clamped scalar.
const COLUMNS: usize = 32;
/// Bits between the two tables: the high table is the low one times
/// `2^SPAN`.
const SPAN: usize = TEETH * COLUMNS;
/// Entries of one table: every subset of its teeth.
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
// * a fraction's numerator and denominator are one `add` / `sub` of
//   two reduced values, and `finish` only multiplies them;
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
    /// product precomputed. A caller that goes on to double drops `T`
    /// ([`Point::projective`]), and inlining drops its product.
    #[inline(always)]
    fn madd(self, n: &Niels) -> Point {
        let a = self.y.sub(self.x).mul(n.y_minus_x);
        let b = self.y.add(self.x).mul(n.y_plus_x);
        let c = self.t.mul(n.xy2d);
        let (e, f, g, h) = sums(a, b, c, self.z.add(self.z).weak_reduced());
        Point {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
            t: e.mul(h),
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

/// A field element before its division: `num / den`. A comb returns
/// its u-coordinate this way; [`finish`] divides.
#[derive(Clone, Copy)]
struct Fraction {
    num: Fe,
    den: Fe,
}

/// All ones when `x` is zero mod p, else zero, with no branch.
fn zero_mask(x: Fe) -> u64 {
    let folded = x.to_bytes().iter().fold(0u64, |acc, &b| acc | u64::from(b));
    ((folded | folded.wrapping_neg()) >> 63).wrapping_sub(1)
}

/// `if_set` where `mask` is all ones, `otherwise` where it is zero.
fn choose(mask: u64, if_set: Fe, otherwise: Fe) -> Fe {
    let mut out = otherwise.0;
    for (o, s) in out.iter_mut().zip(if_set.0) {
        *o ^= mask & (*o ^ s);
    }
    Fe(out)
}

/// The one finisher: writes `num / den` of every fraction, canonical,
/// into `out`, with one field inversion for the whole batch
/// (Montgomery's trick: a forward pass of prefix products, then one
/// inverse peeled back entry by entry).
///
/// A zero denominator is the comb's identity, whose u the ladder gives
/// as 0. It is masked to `0 / 1` in constant time before it joins the
/// product, so it comes out as zero bytes and leaves every other entry
/// of the batch as it would be alone.
fn finish(batch: &mut [Fraction], out: &mut [[u8; KEY_LEN]]) {
    debug_assert_eq!(batch.len(), out.len());
    let mut acc = Fe::ONE;
    for f in batch.iter_mut() {
        let identity = zero_mask(f.den);
        f.den = choose(identity, Fe::ONE, f.den);
        // The numerator takes the product of the denominators before it.
        f.num = choose(identity, Fe::ZERO, f.num).mul(acc);
        acc = acc.mul(f.den);
    }
    // `inv` is always the inverse of the denominators up to entry `i`.
    let mut inv = acc.invert();
    for (f, u) in batch.iter().zip(out.iter_mut()).rev() {
        *u = f.num.mul(inv).to_bytes();
        inv = inv.mul(f.den);
    }
}

/// The comb tables of one point: the 16 sums of the low teeth
/// `P, 2³²P, 2⁶⁴P, 2⁹⁶P`, and the same sums times 2¹²⁸ (the high teeth
/// `2¹²⁸P … 2²²⁴P`), affine. Entry `i` of the low table holds
/// `Σ_j bit_j(i) · 2^(32j) · P`; entry 0 of each is the identity. Each
/// entry is `(x, y)`, canonical, in four words apiece: 1 KB a table,
/// 2 KB the pair, where niels entries would take 3 KB — a comb forms
/// the two selected entries' niels forms itself, two products each a
/// column. A pure function of the point, so one table serves every
/// scalar that meets it.
#[derive(Clone)]
pub struct PeerTable {
    /// The low table, then the high one.
    entries: [[[u64; 8]; ENTRIES]; 2],
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
        // Tooth `j` is 2^(32j)·P: the low table's four, then the high's.
        let mut teeth = [base; 2 * TEETH];
        for j in 1..2 * TEETH {
            teeth[j] = (0..COLUMNS).fold(teeth[j - 1], |p, _| p.projective().double());
        }
        let mut sums = [[Point::IDENTITY; ENTRIES]; 2];
        for (table, teeth) in sums.iter_mut().zip(teeth.chunks_exact(TEETH)) {
            for i in 1..ENTRIES {
                table[i] = table[i & (i - 1)].add(&teeth[i.trailing_zeros() as usize]);
            }
        }

        // Affine through the finisher: X/Z and Y/Z of all 32 entries,
        // one inversion. No Z is zero, so no entry is masked.
        let mut fractions = [Fraction {
            num: Fe::ZERO,
            den: Fe::ONE,
        }; 4 * ENTRIES];
        for (pair, p) in fractions.chunks_exact_mut(2).zip(sums.iter().flatten()) {
            pair[0] = Fraction { num: p.x, den: p.z };
            pair[1] = Fraction { num: p.y, den: p.z };
        }
        let mut affine = [[0; KEY_LEN]; 4 * ENTRIES];
        finish(&mut fractions, &mut affine);
        let mut entries = [[[0; 8]; ENTRIES]; 2];
        for (entry, xy) in entries.iter_mut().flatten().zip(affine.chunks_exact(2)) {
            entry[..4].copy_from_slice(&words(&xy[0]));
            entry[4..].copy_from_slice(&words(&xy[1]));
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
    /// every scalar. A batch of one; [`CombBatch`] finishes many with
    /// one inversion.
    pub fn mul(&self, scalar: &[u8; KEY_LEN]) -> [u8; KEY_LEN] {
        let mut u = [[0; KEY_LEN]];
        finish(&mut [self.comb(scalar)], &mut u);
        u[0]
    }

    /// The comb: `u` of `scalar · P` as a fraction.
    ///
    /// Constant-time in the scalar: every column doubles once, reads
    /// both tables in full under a mask and adds the two selected
    /// entries, so no branch and no memory index depends on a secret
    /// bit.
    fn comb(&self, scalar: &[u8; KEY_LEN]) -> Fraction {
        let k = clamp_scalar(*scalar);
        let bit = |i: usize| u64::from((k[i / 8] >> (i % 8)) & 1);
        let index = |first: usize| (0..TEETH).fold(0, |acc, j| acc | bit(first + COLUMNS * j) << j);
        let [low, high] = &self.entries;
        let mut q = Point::IDENTITY.projective();
        for c in (0..COLUMNS).rev() {
            let p = q.double().madd(&select(low, index(c)));
            q = p.madd(&select(high, index(SPAN + c))).projective();
        }
        // u = (1 + y) / (1 − y) = (Z + Y) / (Z − Y); the identity
        // (Z = Y) has a zero denominator, which `finish` turns into
        // the ladder's 0.
        Fraction {
            num: q.z.add(q.y),
            den: q.z.sub(q.y),
        }
    }
}

/// Entry `index` of `table` in niels form, read by a masked scan of
/// all sixteen.
fn select(table: &[[u64; 8]; ENTRIES], index: u64) -> Niels {
    let mut out = [0u64; 8];
    for (i, entry) in table.iter().enumerate() {
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

/// Products against comb tables, finished together: each
/// [`CombBatch::push`] runs one comb, and [`CombBatch::finish`]
/// divides them all with one field inversion. The buffers keep their
/// capacity from batch to batch, so a reused batch allocates nothing
/// once warm.
///
/// ```
/// use citymesh_crypto::x25519::{x25519, BASEPOINT};
/// use citymesh_crypto::{CombBatch, PeerTable};
///
/// let table = PeerTable::new(&BASEPOINT).unwrap();
/// let mut batch = CombBatch::new();
/// batch.push(&table, &[1; 32]);
/// batch.push(&table, &[2; 32]);
/// let out: Vec<[u8; 32]> = batch.finish().collect();
/// assert_eq!(out, [x25519(&[1; 32], &BASEPOINT), x25519(&[2; 32], &BASEPOINT)]);
/// assert!(batch.is_empty());
/// ```
#[derive(Default)]
pub struct CombBatch {
    fractions: Vec<Fraction>,
    out: Vec<[u8; KEY_LEN]>,
}

impl CombBatch {
    /// An empty batch.
    pub fn new() -> CombBatch {
        CombBatch::default()
    }

    /// Queues `x25519(scalar, table.point())`: runs the comb now and
    /// leaves its one division to [`CombBatch::finish`].
    pub fn push(&mut self, table: &PeerTable, scalar: &[u8; KEY_LEN]) {
        self.fractions.push(table.comb(scalar));
    }

    /// Products queued since the last finish.
    pub fn len(&self) -> usize {
        self.fractions.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.fractions.is_empty()
    }

    /// Finishes every queued product with one field inversion and
    /// yields them in push order, each equal to the ladder's bytes —
    /// all zeros where the product is the identity. The batch is empty
    /// afterwards.
    pub fn finish(&mut self) -> std::vec::Drain<'_, [u8; KEY_LEN]> {
        self.out.clear();
        self.out.resize(self.fractions.len(), [0; KEY_LEN]);
        finish(&mut self.fractions, &mut self.out);
        self.fractions.clear();
        self.out.drain(..)
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
