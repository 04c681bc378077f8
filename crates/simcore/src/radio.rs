//! The radio propagation model of the synthetic measurement study.
//!
//! The delivery simulation needs none: the paper connects APs "where
//! the inter-AP distance is below a configurable transmission range",
//! and the AP graph applies that cutoff itself. The wardriving survey
//! draws beacon receptions from a **log-distance path loss** model with
//! lognormal shadowing ([`LogDistance`]), the standard empirical model
//! for 2.4 GHz urban propagation, so that per-scan AP counts and BSSID
//! spreads exhibit the variance visible in the paper's Figures 1–2.

use crate::SimRng;

/// Log-distance path loss with lognormal shadowing.
///
/// `PL(d) = PL(d₀) + 10·n·log₁₀(d/d₀) + Xσ`, received when the link
/// budget covers the loss. Typical 2.4 GHz Wi-Fi values in built-up
/// areas are an exponent of 2.7–3.5 and σ of 4–8 dB.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LogDistance {
    /// Path-loss exponent `n`.
    pub exponent: f64,
    /// Shadowing standard deviation, dB. Zero disables shadowing.
    pub sigma_db: f64,
    /// Path loss at the reference distance (1 m), dB. 40 dB is the
    /// free-space value at 2.4 GHz.
    pub ref_loss_db: f64,
    /// Total link budget, dB: TX power + antenna gains − receiver
    /// sensitivity. 100 dB ≈ 20 dBm TX, −80 dBm sensitivity.
    pub budget_db: f64,
}

impl LogDistance {
    /// A parameterization whose *median* range matches `range` meters,
    /// the reach of a unit-disk cutoff at `range`.
    pub fn with_median_range(range: f64, exponent: f64, sigma_db: f64) -> Self {
        assert!(
            range > 1.0 && range.is_finite(),
            "median range must exceed 1 m"
        );
        // Budget such that mean path loss at `range` exactly exhausts it.
        let ref_loss_db = 40.0;
        let budget_db = ref_loss_db + 10.0 * exponent * range.log10();
        LogDistance {
            exponent,
            sigma_db,
            ref_loss_db,
            budget_db,
        }
    }

    /// Mean path loss at distance `d` meters (no shadowing), dB.
    pub fn mean_path_loss_db(&self, d: f64) -> f64 {
        let d = d.max(1.0); // clamp inside the reference distance
        self.ref_loss_db + 10.0 * self.exponent * d.log10()
    }

    /// The distance at which the mean path loss exhausts the budget.
    pub fn median_range(&self) -> f64 {
        10f64.powf((self.budget_db - self.ref_loss_db) / (10.0 * self.exponent))
    }

    /// Probability that a frame transmitted at distance `d` meters is
    /// received.
    pub fn receive_probability(&self, d: f64) -> f64 {
        let margin = self.budget_db - self.mean_path_loss_db(d);
        if self.sigma_db <= 0.0 {
            return if margin >= 0.0 { 1.0 } else { 0.0 };
        }
        // P(X ≤ margin), X ~ N(0, σ²): Φ(margin/σ).
        phi(margin / self.sigma_db)
    }

    /// Samples link existence at distance `d`.
    pub fn link_exists(&self, d: f64, rng: &mut SimRng) -> bool {
        let p = self.receive_probability(d);
        if p >= 1.0 {
            true
        } else if p <= 0.0 {
            false
        } else {
            rng.chance(p)
        }
    }

    /// A conservative upper bound on the distance at which
    /// `receive_probability` can be nonzero. Spatial queries cull
    /// beyond this.
    pub fn max_range(&self) -> f64 {
        if self.sigma_db <= 0.0 {
            self.median_range()
        } else {
            // 4σ of shadowing margin ≈ receive probability 3×10⁻⁵.
            10f64.powf(
                (self.budget_db + 4.0 * self.sigma_db - self.ref_loss_db) / (10.0 * self.exponent),
            )
        }
    }
}

/// Standard normal CDF via the Abramowitz–Stegun 7.1.26 erf
/// approximation (max abs error 1.5×10⁻⁷ — far below simulation noise).
fn phi(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_distance_median_range_calibration() {
        let m = LogDistance::with_median_range(50.0, 3.0, 6.0);
        assert!((m.median_range() - 50.0).abs() < 1e-9);
        // At the median range, receive probability is exactly 1/2.
        assert!((m.receive_probability(50.0) - 0.5).abs() < 1e-6);
        // Closer in, it climbs; farther out, it falls.
        assert!(m.receive_probability(25.0) > 0.9);
        assert!(m.receive_probability(100.0) < 0.1);
    }

    #[test]
    fn log_distance_monotone_decreasing() {
        let m = LogDistance::with_median_range(100.0, 3.0, 6.0);
        let mut last = 1.0;
        for d in [1.0, 5.0, 20.0, 50.0, 100.0, 300.0, 1000.0] {
            let p = m.receive_probability(d);
            assert!(p <= last + 1e-12, "p({d}) = {p} > {last}");
            last = p;
        }
    }

    #[test]
    fn zero_shadowing_becomes_deterministic() {
        let m = LogDistance {
            sigma_db: 0.0,
            ..LogDistance::with_median_range(50.0, 3.0, 0.0)
        };
        assert_eq!(m.receive_probability(49.0), 1.0);
        assert_eq!(m.receive_probability(51.0), 0.0);
        assert!((m.max_range() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn max_range_bounds_nonzero_probability() {
        let m = LogDistance::with_median_range(100.0, 3.0, 6.0);
        let r = m.max_range();
        assert!(m.receive_probability(r * 1.05) < 1e-4);
    }

    #[test]
    fn shadowing_sampling_matches_probability() {
        let m = LogDistance::with_median_range(50.0, 3.0, 6.0);
        let mut rng = SimRng::new(77);
        let trials = 50_000;
        let hits = (0..trials)
            .filter(|_| m.link_exists(50.0, &mut rng))
            .count();
        let frac = hits as f64 / trials as f64;
        assert!((frac - 0.5).abs() < 0.01, "frac={frac}");
    }

    #[test]
    fn erf_reference_values() {
        // Known values of erf to the approximation's accuracy.
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((erf(2.0) - 0.9953222650).abs() < 1e-6);
    }
}
