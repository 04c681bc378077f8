//! Exact order statistics. The engines' own `Histogram::quantile`
//! answers from log buckets about 10 % wide, so a p50 flips between
//! neighbouring bucket centres from seed to seed; every quantile the
//! benchmark reports is instead read from the sorted per-flow sample.

/// Sorts a sample ascending. Inputs are finite by construction (the
/// simulator never produces NaN latencies), so `total_cmp` is a plain
/// numeric order here.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_unstable_by(f64::total_cmp);
    values
}

/// The nearest-rank `q`-quantile of an ascending sample: the smallest
/// element with at least `q·n` of the sample at or below it. Always an
/// element of the sample, never an interpolation. `None` when empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median as Python's `statistics.median` gives it (mean of the
/// two middle elements for an even count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values.to_vec());
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The three quartile cut points as Python's
/// `statistics.quantiles(values, n=4)` gives them (its default
/// "exclusive" method), so `agree` computes the same spread the
/// acceptance procedure does. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values.to_vec());
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the
/// median — the run-to-run spread the benchmark contract bounds.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let q = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q[2] - q[0]) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use citymesh_simcore::SimRng;

    #[test]
    fn nearest_rank_matches_a_counting_oracle() {
        let mut rng = SimRng::new(7);
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000] {
            let s = sorted((0..n).map(|_| rng.uniform_range(0.0, 500.0)).collect());
            for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
                let got = quantile_sorted(&s, q).expect("non-empty");
                // Oracle: the smallest sample element x such that
                // #{v ≤ x} ≥ q·n.
                let want = s
                    .iter()
                    .copied()
                    .find(|&x| s.iter().filter(|&&v| v <= x).count() as f64 >= q * n as f64)
                    .expect("the maximum always qualifies");
                assert_eq!(got, want, "n={n} q={q}");
            }
        }
        assert_eq!(quantile_sorted(&[], 0.5), None);
    }

    #[test]
    fn p99_of_a_thousand_leaves_ten_beyond() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile_sorted(&s, 0.99), Some(990.0));
        assert_eq!(quantile_sorted(&s, 0.5), Some(500.0));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // python3 -c "import statistics as s; print(s.quantiles([1,2,3,4,5,6,7,8,9,10], n=4))"
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // s.quantiles([3.0, 1.0, 2.0], n=4) -> [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // s.quantiles([10, 20], n=4) -> [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        let spread = quartile_spread(&v).expect("ten values");
        assert!(
            (spread - 1.0).abs() < 1e-12,
            "(8.25 - 2.75) / 5.5 = {spread}"
        );
    }
}
