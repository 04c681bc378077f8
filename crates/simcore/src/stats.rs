//! Lightweight streaming statistics for simulation outputs.
//!
//! Experiments accumulate large numbers of per-message observations
//! (latencies, broadcast counts, hop counts). [`Histogram`] records
//! them in logarithmic buckets with O(1) insertion and bounded memory,
//! supporting approximate quantiles good to its bucket resolution —
//! the right trade for plots whose axes are logarithmic anyway.

/// A log-bucketed histogram over non-negative `f64` samples.
///
/// Buckets grow geometrically from `min_value` by `growth` per bucket;
/// values below `min_value` share an underflow bucket. Quantiles are
/// answered at bucket resolution (relative error ≈ `growth − 1`).
#[derive(Clone, Debug)]
pub struct Histogram {
    min_value: f64,
    inv_log_growth: f64,
    growth: f64,
    counts: Vec<u64>,
    underflow: u64,
    total: u64,
    sum: f64,
    max_seen: f64,
}

impl Histogram {
    /// Creates a histogram with buckets starting at `min_value` and
    /// growing by `growth` (> 1) per bucket, e.g. `(1e-3, 1.2)` for
    /// latencies in seconds with ~20 % resolution.
    ///
    /// # Panics
    /// Panics unless `min_value > 0` and `growth > 1`.
    pub fn new(min_value: f64, growth: f64) -> Self {
        assert!(
            min_value > 0.0 && min_value.is_finite(),
            "min_value must be positive"
        );
        assert!(growth > 1.0 && growth.is_finite(), "growth must exceed 1");
        Histogram {
            min_value,
            inv_log_growth: 1.0 / growth.ln(),
            growth,
            counts: Vec::new(),
            underflow: 0,
            total: 0,
            sum: 0.0,
            max_seen: 0.0,
        }
    }

    /// A configuration suited to network latencies in seconds:
    /// 100 µs floor, ~10 % bucket resolution.
    pub fn for_latency() -> Self {
        Histogram::new(1e-4, 1.1)
    }

    /// Records one sample.
    ///
    /// # Panics
    /// Panics on negative or non-finite samples — statistics over NaN
    /// always indicate an upstream bug.
    pub fn record(&mut self, value: f64) {
        assert!(value.is_finite() && value >= 0.0, "bad sample {value}");
        self.total += 1;
        self.sum += value;
        self.max_seen = self.max_seen.max(value);
        if value < self.min_value {
            self.underflow += 1;
            return;
        }
        let idx = ((value / self.min_value).ln() * self.inv_log_growth) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
    }

    /// Number of samples recorded.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Mean of all samples (exact), or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum / self.total as f64)
    }

    /// Maximum sample seen (exact), or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.total > 0).then_some(self.max_seen)
    }

    /// The `q`-quantile (`q ∈ [0, 1]`), approximated at bucket
    /// resolution: returns the geometric midpoint of the bucket
    /// containing the target rank. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank among all samples, 1-based.
        let target = ((self.total as f64 * q).ceil() as u64).max(1);
        if target <= self.underflow {
            return Some(self.min_value / 2.0);
        }
        let mut seen = self.underflow;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                let lo = self.min_value * self.growth.powi(i as i32);
                let hi = lo * self.growth;
                return Some((lo * hi).sqrt());
            }
        }
        Some(self.max_seen)
    }

    /// A 64-bit digest of the complete histogram state (parameters,
    /// every bucket count, underflow, total, exact sum and max bits).
    ///
    /// Two histograms have equal fingerprints iff they are
    /// bit-identical, which is how the fleet engine proves that a
    /// parallel run aggregated exactly the same distribution as a
    /// serial one.
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::Fnv64::new();
        h.mix(self.min_value.to_bits());
        h.mix(self.growth.to_bits());
        h.mix(self.underflow);
        h.mix(self.total);
        h.mix(self.sum.to_bits());
        h.mix(self.max_seen.to_bits());
        for &c in &self.counts {
            h.mix(c);
        }
        h.value()
    }

    /// Merges another histogram with identical parameters.
    ///
    /// # Panics
    /// Panics when parameters differ (the buckets would not align).
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            (self.min_value - other.min_value).abs() < f64::EPSILON
                && (self.growth - other.growth).abs() < f64::EPSILON,
            "histogram parameters differ"
        );
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.underflow += other.underflow;
        self.total += other.total;
        self.sum += other.sum;
        self.max_seen = self.max_seen.max(other.max_seen);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_summarizes() {
        let mut h = Histogram::new(1.0, 2.0);
        for v in [0.5, 1.0, 2.0, 4.0, 8.0, 100.0] {
            h.record(v);
        }
        assert_eq!(h.len(), 6);
        assert_eq!(h.max(), Some(100.0));
        let mean = h.mean().unwrap();
        assert!((mean - 115.5 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_at_bucket_resolution() {
        let mut h = Histogram::new(1.0, 1.1);
        // 1000 samples uniform over [1, 101).
        for i in 0..1000 {
            h.record(1.0 + i as f64 * 0.1);
        }
        let median = h.quantile(0.5).unwrap();
        assert!(
            (median / 51.0 - 1.0).abs() < 0.12,
            "median {median} too far from 51"
        );
        let p99 = h.quantile(0.99).unwrap();
        assert!((p99 / 100.0 - 1.0).abs() < 0.12, "p99 {p99}");
        // Quantile is monotone.
        assert!(h.quantile(0.1).unwrap() <= h.quantile(0.9).unwrap());
    }

    #[test]
    fn underflow_bucket() {
        let mut h = Histogram::new(1.0, 2.0);
        h.record(0.0);
        h.record(0.001);
        h.record(10.0);
        assert_eq!(h.len(), 3);
        // The 0.33-quantile falls in the underflow bucket.
        assert!(h.quantile(0.33).unwrap() < 1.0);
        assert!(h.quantile(1.0).unwrap() > 1.0);
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::for_latency();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn merge_combines_distributions() {
        let mut a = Histogram::new(1.0, 2.0);
        let mut b = Histogram::new(1.0, 2.0);
        for v in [1.0, 2.0, 3.0] {
            a.record(v);
        }
        for v in [50.0, 60.0, 70.0] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.len(), 6);
        assert!(a.quantile(0.25).unwrap() < 10.0);
        assert!(a.quantile(0.9).unwrap() > 30.0);
        assert_eq!(a.max(), Some(70.0));
    }

    #[test]
    fn fingerprint_detects_any_state_difference() {
        let mut a = Histogram::new(1.0, 2.0);
        let mut b = Histogram::new(1.0, 2.0);
        assert_eq!(a.fingerprint(), b.fingerprint());
        for v in [0.5, 3.0, 17.0] {
            a.record(v);
            b.record(v);
        }
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.record(17.0);
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Same counts, different parameters → different fingerprint.
        assert_ne!(
            Histogram::new(1.0, 2.0).fingerprint(),
            Histogram::new(1.0, 1.5).fingerprint()
        );
    }

    #[test]
    #[should_panic(expected = "parameters differ")]
    fn merge_rejects_mismatched_params() {
        let mut a = Histogram::new(1.0, 2.0);
        let b = Histogram::new(1.0, 1.5);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "bad sample")]
    fn rejects_nan() {
        Histogram::for_latency().record(f64::NAN);
    }
}
