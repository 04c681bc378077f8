//! Integer streaming statistics for simulation outputs.
//!
//! Experiments accumulate large numbers of per-message observations
//! (latencies, broadcast counts, hop counts). [`Histogram`] records
//! them as `u64` samples in log-linear buckets with O(1) insertion and
//! bounded memory, supporting approximate quantiles good to its bucket
//! resolution — the right trade for plots whose axes are logarithmic
//! anyway. Every piece of its state is an integer, so recording and
//! [`Histogram::merge`] commute: any split of a sample stream, merged
//! in any order, gives the same bits as recording it whole.

/// Sub-buckets per power of two, as a bit count: values below
/// `2^SUB_BITS` get a bucket each, and every octave above is cut in
/// `2^SUB_BITS` equal buckets (≤ 12.5 % wide).
const SUB_BITS: u32 = 3;
const SUB: u64 = 1 << SUB_BITS;

/// A log-linear histogram over `u64` samples, read in a unit of its
/// own.
///
/// Samples are recorded in a fine integer unit — a latency in
/// nanoseconds, an overhead ratio in thousandths — and `per_unit`
/// samples make one unit of the field the histogram is named for, so
/// [`mean`](Histogram::mean), [`max`](Histogram::max) and
/// [`quantile`](Histogram::quantile) answer in milliseconds or ratios.
/// The sum is a `u128`: 10⁸ samples of 180 s in nanoseconds cannot
/// overflow it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    per_unit: u64,
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    max: u64,
}

/// The bucket holding `v`: `v` itself below `SUB`, else the octave of
/// its top bit and the next `SUB_BITS` bits below it.
fn bucket(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    (u64::from(shift) * SUB + (v >> shift)) as usize
}

/// The smallest value in bucket `i`, and the bucket's width.
fn bucket_range(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, 1);
    }
    let shift = i / SUB - 1;
    ((i % SUB + SUB) << shift, 1 << shift)
}

impl Histogram {
    /// An empty histogram of plain counts (one sample is one unit).
    pub fn new() -> Self {
        Histogram::with_unit(1)
    }

    /// An empty histogram whose samples are `per_unit`ths of the unit
    /// it reports in, e.g. `1_000_000` for milliseconds recorded as
    /// nanoseconds.
    ///
    /// # Panics
    /// Panics when `per_unit` is zero.
    pub fn with_unit(per_unit: u64) -> Self {
        assert!(per_unit > 0, "a unit holds at least one sample step");
        Histogram {
            per_unit,
            counts: Vec::new(),
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = bucket(value);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += u128::from(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    fn to_unit(&self, samples: f64) -> f64 {
        samples / self.per_unit as f64
    }

    /// Mean of all samples, from their exact integer sum, or `None`
    /// when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.to_unit(self.sum as f64 / self.total as f64))
    }

    /// Maximum sample seen (exact), or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.total > 0).then(|| self.to_unit(self.max as f64))
    }

    /// The `q`-quantile (`q ∈ [0, 1]`), approximated at bucket
    /// resolution: the midpoint of the bucket holding the target rank,
    /// never above the largest sample. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        // Rank among all samples, 1-based.
        let target = ((self.total as f64 * q.clamp(0.0, 1.0)).ceil() as u64).max(1);
        let mut seen = 0;
        let i = self
            .counts
            .iter()
            .position(|&c| {
                seen += c;
                seen >= target
            })
            .expect("the buckets hold every sample");
        let (lo, width) = bucket_range(i);
        let mid = (lo as f64 + (width - 1) as f64 / 2.0).min(self.max as f64);
        Some(self.to_unit(mid))
    }

    /// A 64-bit digest of the complete histogram state (unit, every
    /// bucket count, total, exact sum and max).
    ///
    /// Two histograms have equal fingerprints iff they are
    /// bit-identical, which is how the engines prove that a parallel
    /// run aggregated exactly the same distribution as a serial one.
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::Fnv64::new();
        h.mix(self.per_unit);
        h.mix(self.total);
        h.mix(self.sum as u64);
        h.mix((self.sum >> 64) as u64);
        h.mix(self.max);
        for &c in &self.counts {
            h.mix(c);
        }
        h.value()
    }

    /// Merges another histogram with the same unit: buckets, total and
    /// sum add, max takes the larger. Integer addition commutes and
    /// associates, so merging parts in any order equals recording
    /// their samples into one histogram.
    ///
    /// # Panics
    /// Panics when the units differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.per_unit, other.per_unit, "histogram units differ");
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_cover_their_values() {
        let mut last = 0;
        for v in (0..5_000u64).chain([u64::MAX / 3, u64::MAX]) {
            let i = bucket(v);
            assert!(i == last || i == last + 1 || v > 5_000, "gap at {v}");
            last = i;
            let (lo, width) = bucket_range(i);
            assert!(lo <= v && v - lo < width, "{v} outside bucket {i}");
        }
        // Widths stay within 1/SUB of the bucket's low end.
        for i in SUB as usize..400 {
            let (lo, width) = bucket_range(i);
            assert!(width * SUB <= lo, "bucket {i}");
        }
    }

    #[test]
    fn records_and_summarizes() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 4, 8, 100] {
            h.record(v);
        }
        assert_eq!(h.len(), 6);
        assert_eq!(h.max(), Some(100.0));
        assert_eq!(h.mean(), Some(115.0 / 6.0));
    }

    #[test]
    fn integer_mean_is_exact_in_its_unit() {
        // Samples in ns, read in ms: the mean is the exact integer sum
        // over the count, whatever order the samples came in.
        let samples = [1_000_001u64, 2_999_999, 7, 123_456_789, 180_000_000_000];
        let mut h = Histogram::with_unit(1_000_000);
        for &v in &samples {
            h.record(v);
        }
        let sum: u128 = samples.iter().map(|&v| u128::from(v)).sum();
        assert_eq!(sum, 180_127_456_796);
        assert_eq!(h.mean(), Some(sum as f64 / 5.0 / 1e6));
        assert_eq!(h.max(), Some(180_000.0));
        let mut reversed = Histogram::with_unit(1_000_000);
        for &v in samples.iter().rev() {
            reversed.record(v);
        }
        assert_eq!(reversed, h);
        // 10^8 flows of 180 s each still sum exactly.
        let mut big = Histogram::with_unit(1_000_000);
        big.sum = 100_000_000 * 180_000_000_000u128;
        big.total = 100_000_000;
        assert_eq!(big.mean(), Some(180_000.0));
    }

    #[test]
    fn quantiles_at_bucket_resolution() {
        let mut h = Histogram::with_unit(10);
        // 1000 samples uniform over [1, 101), in tenths.
        for i in 0..1000 {
            h.record(10 + i);
        }
        let median = h.quantile(0.5).unwrap();
        assert!(
            (median / 51.0 - 1.0).abs() < 0.07,
            "median {median} too far from 51"
        );
        let p99 = h.quantile(0.99).unwrap();
        assert!((p99 / 100.0 - 1.0).abs() < 0.07, "p99 {p99}");
        assert!(h.quantile(1.0).unwrap() <= h.max().unwrap());
        // Quantile is monotone.
        assert!(h.quantile(0.1).unwrap() <= h.quantile(0.9).unwrap());
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in [1, 1, 2, 3, 4, 4, 4] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(0.5), Some(3.0));
        assert_eq!(h.quantile(1.0), Some(4.0));
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::with_unit(1_000_000);
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn merge_combines_distributions() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [1, 2, 3] {
            a.record(v);
        }
        for v in [50, 60, 70] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.len(), 6);
        assert!(a.quantile(0.25).unwrap() < 10.0);
        assert!(a.quantile(0.9).unwrap() > 30.0);
        assert_eq!(a.max(), Some(70.0));
    }

    #[test]
    fn merge_commutes_and_equals_recording_whole() {
        let samples: Vec<u64> = (0..500u64).map(|i| (i * 7919) % 100_003 * i).collect();
        let mut whole = Histogram::with_unit(1_000);
        for &v in &samples {
            whole.record(v);
        }
        for cut in [0, 1, 250, 499, 500] {
            let (head, tail) = samples.split_at(cut);
            let part = |vs: &[u64]| {
                let mut h = Histogram::with_unit(1_000);
                vs.iter().for_each(|&v| h.record(v));
                h
            };
            let (a, b) = (part(head), part(tail));
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            assert_eq!(ab, ba, "merge commutes at cut {cut}");
            assert_eq!(ab, whole, "merge equals the whole at cut {cut}");
            assert_eq!(ab.fingerprint(), whole.fingerprint());
        }
    }

    #[test]
    fn fingerprint_detects_any_state_difference() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        assert_eq!(a.fingerprint(), b.fingerprint());
        for v in [0, 3, 17] {
            a.record(v);
            b.record(v);
        }
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.record(17);
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Same counts, different unit → different fingerprint.
        assert_ne!(
            Histogram::new().fingerprint(),
            Histogram::with_unit(1_000).fingerprint()
        );
    }

    #[test]
    #[should_panic(expected = "units differ")]
    fn merge_rejects_mismatched_units() {
        let mut a = Histogram::new();
        a.merge(&Histogram::with_unit(1_000));
    }
}
