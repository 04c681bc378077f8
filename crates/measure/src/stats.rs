//! Statistics shared by the measurement figures.

/// An empirical CDF over `f64` samples.
#[derive(Clone, Debug)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF; non-finite samples are rejected.
    ///
    /// # Panics
    /// Panics when any sample is non-finite (statistics over NaN are
    /// meaningless and always indicate an upstream bug).
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(
            samples.iter().all(|s| s.is_finite()),
            "CDF samples must be finite"
        );
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        Cdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF has no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The `q`-quantile (nearest-rank on `q ∈ [0, 1]`), or `None` when
    /// empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((self.sorted.len() - 1) as f64 * q).round() as usize;
        Some(self.sorted[idx])
    }

    /// Median shorthand.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Evenly spaced `(value, cumulative fraction)` points for
    /// plotting, at most `n` of them.
    pub fn plot_points(&self, n: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || n == 0 {
            return Vec::new();
        }
        let len = self.sorted.len();
        let step = (len.max(n) / n).max(1);
        let mut points: Vec<(f64, f64)> = self
            .sorted
            .iter()
            .enumerate()
            .step_by(step)
            .map(|(i, v)| (*v, (i + 1) as f64 / len as f64))
            .collect();
        // Always include the maximum.
        points.push((self.sorted[len - 1], 1.0));
        points.dedup_by(|a, b| a == b);
        points
    }
}

/// A distance bin with the whisker percentiles Figure 2 reports
/// (10 / 25 / 50 / 75 / 100).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DistanceBin {
    /// Lower edge, meters (inclusive).
    pub lo_m: f64,
    /// Upper edge, meters (exclusive).
    pub hi_m: f64,
    /// Number of pairs that fell in the bin.
    pub count: usize,
    /// 10th percentile of the binned values.
    pub p10: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// Maximum (the paper's "100%" whisker).
    pub max: f64,
}

/// Bins `(distance, value)` pairs into `edges.len() - 1` bins and
/// computes the whisker percentiles per bin. Pairs outside the edge
/// range are dropped.
///
/// # Panics
/// Panics when `edges` is not strictly increasing or has fewer than
/// two entries.
pub fn bin_by_distance(pairs: &[(f64, f64)], edges: &[f64]) -> Vec<DistanceBin> {
    assert!(edges.len() >= 2, "need at least one bin");
    assert!(
        edges.windows(2).all(|w| w[0] < w[1]),
        "edges must be strictly increasing"
    );
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); edges.len() - 1];
    for (d, v) in pairs {
        if *d < edges[0] {
            continue;
        }
        // partition_point gives the first edge > d; bin = that - 1.
        let idx = edges.partition_point(|e| *e <= *d);
        if idx == 0 || idx >= edges.len() {
            continue;
        }
        buckets[idx - 1].push(*v);
    }
    buckets
        .into_iter()
        .enumerate()
        .map(|(i, mut values)| {
            values.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
            let q = |frac: f64| -> f64 {
                if values.is_empty() {
                    return 0.0;
                }
                values[((values.len() - 1) as f64 * frac).round() as usize]
            };
            DistanceBin {
                lo_m: edges[i],
                hi_m: edges[i + 1],
                count: values.len(),
                p10: q(0.10),
                p25: q(0.25),
                p50: q(0.50),
                p75: q(0.75),
                max: values.last().copied().unwrap_or(0.0),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_quantiles() {
        let cdf = Cdf::new(vec![3.0, 1.0, 2.0, 5.0, 4.0]);
        assert_eq!(cdf.len(), 5);
        assert_eq!(cdf.quantile(0.0), Some(1.0));
        assert_eq!(cdf.median(), Some(3.0));
        assert_eq!(cdf.quantile(1.0), Some(5.0));
    }

    #[test]
    fn cdf_empty() {
        let cdf = Cdf::new(vec![]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.median(), None);
        assert!(cdf.plot_points(10).is_empty());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn cdf_rejects_nan() {
        Cdf::new(vec![1.0, f64::NAN]);
    }

    #[test]
    fn plot_points_monotone_and_bounded() {
        let cdf = Cdf::new((0..1000).map(|i| i as f64).collect());
        let pts = cdf.plot_points(50);
        assert!(pts.len() <= 52);
        assert!(pts.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn binning_assigns_and_summarizes() {
        let pairs: Vec<(f64, f64)> = vec![
            (5.0, 10.0),
            (15.0, 20.0),
            (15.0, 40.0),
            (25.0, 5.0),
            (95.0, 1.0),   // beyond the last edge: dropped
            (-1.0, 100.0), // below the first edge: dropped
        ];
        let bins = bin_by_distance(&pairs, &[0.0, 10.0, 20.0, 30.0]);
        assert_eq!(bins.len(), 3);
        assert_eq!(bins[0].count, 1);
        assert_eq!(bins[0].p50, 10.0);
        assert_eq!(bins[1].count, 2);
        assert_eq!(bins[1].max, 40.0);
        assert_eq!(bins[2].count, 1);
    }

    #[test]
    fn bin_edges_are_half_open() {
        // A value exactly on an interior edge goes to the upper bin.
        let bins = bin_by_distance(&[(10.0, 7.0)], &[0.0, 10.0, 20.0]);
        assert_eq!(bins[0].count, 0);
        assert_eq!(bins[1].count, 1);
    }

    #[test]
    fn empty_bin_is_zeroed() {
        let bins = bin_by_distance(&[], &[0.0, 10.0]);
        assert_eq!(bins[0].count, 0);
        assert_eq!(bins[0].p50, 0.0);
        assert_eq!(bins[0].max, 0.0);
    }

    #[test]
    #[should_panic(expected = "increasing")]
    fn unsorted_edges_panic() {
        bin_by_distance(&[], &[0.0, 10.0, 5.0]);
    }
}
