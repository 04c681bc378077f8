//! Experiment configuration and its validation (paper §4 defaults).
//!
//! Every number a run depends on enters through [`ExperimentConfig`]
//! and is checked once, by [`ExperimentConfig::validate`], before any
//! world is built; a rejected value is a [`ConfigError`] naming the
//! field.

use citymesh_net::MAX_CONDUIT_WIDTH_M;

use crate::faults::FaultScenario;

/// Which geometry the rebroadcast predicate tests against the conduit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RebroadcastScope {
    /// The AP's **building centroid** must lie in a conduit: every AP
    /// of a covered building relays. This matches the paper's
    /// description ("APs in buildings that fall within the geographic
    /// area of the conduits") and its ~13× overhead accounting, which
    /// it attributes to "all the APs within a building rebroadcast".
    #[default]
    Building,
    /// The AP's **own position** must lie in a conduit. Fewer relays
    /// per building; evaluated as the paper's proposed
    /// overhead-reduction direction.
    ApPosition,
}

/// A rejected experiment or simulation parameter.
///
/// Carries the field path and the offending value so a config loaded
/// from the outside (CLI flags, sweep files) fails with a diagnosis
/// instead of a panic deep inside route compression.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConfigError {
    /// The value was NaN or infinite.
    NotFinite {
        /// Dotted field path.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The value must be strictly positive.
    NotPositive {
        /// Dotted field path.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The value fell outside its legal interval.
    OutOfRange {
        /// Dotted field path.
        field: &'static str,
        /// The offending value.
        value: f64,
        /// Inclusive lower bound.
        min: f64,
        /// Inclusive upper bound.
        max: f64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NotFinite { field, value } => {
                write!(f, "{field} must be finite, got {value}")
            }
            ConfigError::NotPositive { field, value } => {
                write!(f, "{field} must be positive, got {value}")
            }
            ConfigError::OutOfRange {
                field,
                value,
                min,
                max,
            } => write!(f, "{field} must be within [{min}, {max}], got {value}"),
        }
    }
}

impl std::error::Error for ConfigError {}

fn require_finite(field: &'static str, value: f64) -> Result<(), ConfigError> {
    if value.is_finite() {
        Ok(())
    } else {
        Err(ConfigError::NotFinite { field, value })
    }
}

fn require_positive(field: &'static str, value: f64) -> Result<(), ConfigError> {
    require_finite(field, value)?;
    if value > 0.0 {
        Ok(())
    } else {
        Err(ConfigError::NotPositive { field, value })
    }
}

pub(crate) fn require_probability(field: &'static str, value: f64) -> Result<(), ConfigError> {
    require_within(field, value, 0.0, 1.0)
}

/// Finite and inside `[min, max]` (`max` may be infinite).
pub(crate) fn require_within(
    field: &'static str,
    value: f64,
    min: f64,
    max: f64,
) -> Result<(), ConfigError> {
    require_finite(field, value)?;
    if (min..=max).contains(&value) {
        Ok(())
    } else {
        Err(ConfigError::OutOfRange {
            field,
            value,
            min,
            max,
        })
    }
}

/// Experiment parameters (defaults mirror the paper's §4 setup).
#[derive(Clone, Copy, Debug)]
pub struct ExperimentConfig {
    /// Wi-Fi transmission range, meters.
    pub range_m: f64,
    /// Footprint m² per AP.
    pub m2_per_ap: f64,
    /// Conduit width `W`, meters.
    pub conduit_width_m: f64,
    /// Exponent applied to the centroid distance for building-graph
    /// edge weights. The paper cubes it (3); 1, 2 and 4 are ablation
    /// settings. The graph's link gap follows from `range_m`
    /// ([`crate::BuildingGraphParams::for_range`]).
    pub weight_exponent: f64,
    /// Rebroadcast geometry policy.
    pub scope: RebroadcastScope,
    /// Per-frame reception loss probability (0 = the paper's
    /// idealized medium; nonzero for the robustness ablation).
    pub reception_loss: f64,
    /// Pairs sampled for reachability.
    pub reachability_pairs: usize,
    /// Pairs simulated for deliverability (among reachable ones).
    pub delivery_pairs: usize,
    /// Master seed; all randomness derives from it.
    pub seed: u64,
    /// Optional fault scenario (AP outages, blackouts, degradation)
    /// plus the sender's recovery ladder. `None` — the default — is the
    /// healthy world and leaves every RNG stream and fleet digest
    /// untouched.
    pub faults: Option<FaultScenario>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            range_m: crate::DEFAULT_RANGE_M,
            m2_per_ap: crate::DEFAULT_M2_PER_AP,
            conduit_width_m: crate::DEFAULT_CONDUIT_WIDTH_M,
            weight_exponent: 3.0,
            scope: RebroadcastScope::Building,
            reception_loss: 0.0,
            reachability_pairs: 1000,
            delivery_pairs: 50,
            seed: 0,
            faults: None,
        }
    }
}

impl ExperimentConfig {
    /// Validates every numeric field, rejecting NaN, infinities,
    /// non-positive widths/ranges/densities, probabilities outside
    /// [0, 1], widths the header cannot encode, and malformed fault
    /// scenarios. [`crate::CityExperiment::try_prepare`] runs this before
    /// touching the map.
    pub fn validate(&self) -> Result<(), ConfigError> {
        require_positive("range_m", self.range_m)?;
        require_positive("m2_per_ap", self.m2_per_ap)?;
        require_positive("conduit_width_m", self.conduit_width_m)?;
        if self.conduit_width_m > MAX_CONDUIT_WIDTH_M {
            return Err(ConfigError::OutOfRange {
                field: "conduit_width_m",
                value: self.conduit_width_m,
                min: 0.1,
                max: MAX_CONDUIT_WIDTH_M,
            });
        }
        require_positive("weight_exponent", self.weight_exponent)?;
        require_probability("reception_loss", self.reception_loss)?;
        if let Some(f) = &self.faults {
            f.validate()?;
        }
        Ok(())
    }
}

/// The reduced-scale config the crate's unit tests prepare worlds with.
#[cfg(test)]
pub(crate) fn small_config(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        reachability_pairs: 200,
        delivery_pairs: 10,
        seed,
        ..ExperimentConfig::default()
    }
}
