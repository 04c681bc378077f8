//! # citymesh-place — deployment optimization
//!
//! The paper argues a fallback network lives or dies on where its
//! fixed infrastructure sits. This crate makes that placement a
//! *solved output* instead of a generator accident: it searches over
//! [`Deployment`]s — `k` hardened relay/postbox sites under a budget
//! (see [`citymesh_core::Deployment`]) — scoring each candidate by
//! running the real fleet engine over the real fault machinery.
//!
//! Four pieces:
//!
//! * an [`Objective`]: which metric to optimize (delivery rate up, or
//!   p99 latency down), over which seeded workload, across which
//!   scenario worlds (healthy, blackout, …) — evaluated by
//!   [`Evaluator`], which owns one prepared [`CityExperiment`] and one
//!   shared route cache *per scenario* and re-scores a candidate by
//!   applying only the deployment **diff** (churn-style incremental
//!   cache invalidation when a site moves);
//! * two optimizers behind the [`PlacementOptimizer`] trait: a
//!   greedy/k-medoids-style constructive baseline ([`GreedyPlacer`])
//!   and a Metropolis simulated-annealing search ([`Annealer`], after
//!   the rural mesh-router placement literature) whose proposal moves
//!   and acceptance draws come from dedicated seeded sub-streams;
//! * a [`Score`] carrying a deterministic FNV digest, so an entire
//!   anneal is **bit-reproducible**: same seed, same result, across
//!   any evaluation worker count (candidate scoring runs on the fleet
//!   engine's id-order-merged worker pool, whose reports are
//!   worker-count invariant by construction);
//! * the island-bridging planner ([`plan_bridges`], the paper's §4
//!   "small number of well-placed APs"): relay sites chained across the
//!   gaps between AP islands, then added to the map
//!   ([`apply_bridges`]) and the placement ([`extend_placement`]).
//!
//! [`CityExperiment`]: citymesh_core::CityExperiment

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bridge;
mod eval;
mod objective;
mod optimize;

pub use bridge::{
    apply_bridges, extend_placement, plan_bridges, Bridge, BridgePlan, RELAY_HUT_SIDE_M,
};
pub use citymesh_core::{Deployment, DeploymentError};
pub use eval::{Evaluator, ScenarioSpec};
pub use objective::{Metric, Objective, Score, WorldScore};
pub use optimize::{Annealer, GreedyPlacer, PlacementOptimizer, PlacementResult, RandomPlacer};

/// A rejected placement configuration or search.
#[derive(Clone, Debug, PartialEq)]
pub enum PlaceError {
    /// The objective's workload has no flows to score with.
    EmptyWorkload,
    /// No scenario worlds to evaluate against.
    NoScenarios,
    /// Fewer candidate site buildings (buildings owning at least one
    /// AP) than the requested deployment size.
    NotEnoughCandidates {
        /// Candidate buildings available.
        candidates: usize,
        /// Sites requested.
        k: usize,
    },
    /// The experiment config itself was invalid.
    Config(citymesh_core::ConfigError),
    /// A deployment could not be formed.
    Deployment(DeploymentError),
}

impl std::fmt::Display for PlaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlaceError::EmptyWorkload => write!(f, "objective workload has zero flows"),
            PlaceError::NoScenarios => write!(f, "objective has no scenario worlds"),
            PlaceError::NotEnoughCandidates { candidates, k } => {
                write!(
                    f,
                    "{candidates} candidate buildings but k = {k} sites requested"
                )
            }
            PlaceError::Config(e) => write!(f, "invalid experiment config: {e}"),
            PlaceError::Deployment(e) => write!(f, "invalid deployment: {e}"),
        }
    }
}

impl std::error::Error for PlaceError {}

impl From<citymesh_core::ConfigError> for PlaceError {
    fn from(e: citymesh_core::ConfigError) -> Self {
        PlaceError::Config(e)
    }
}

impl From<DeploymentError> for PlaceError {
    fn from(e: DeploymentError) -> Self {
        PlaceError::Deployment(e)
    }
}

/// Sub-stream domain for the random initial deployment.
pub const DOMAIN_PLACE_INIT: u64 = 0x7A1C;
/// Sub-stream domain for annealer proposal moves (which site, where).
pub const DOMAIN_PLACE_MOVE: u64 = 0x7A0E;
/// Sub-stream domain for Metropolis acceptance draws.
pub const DOMAIN_PLACE_ACCEPT: u64 = 0x7ACC;

#[cfg(test)]
mod tests {
    use super::*;
    use citymesh_core::{ExperimentConfig, FaultScenario};
    use citymesh_fleet::FlowModel;
    use citymesh_map::CityArchetype;

    fn small_objective(workers: usize) -> Objective {
        Objective {
            metric: Metric::DeliveryRate,
            flows: 80,
            model: FlowModel::UniformPairs { rate_hz: 200.0 },
            seed: 11,
            workers,
        }
    }

    fn river_evaluator(workers: usize) -> Evaluator {
        let map = CityArchetype::SurveyRiver.generate(11);
        Evaluator::new(
            map,
            ExperimentConfig {
                seed: 11,
                ..ExperimentConfig::default()
            },
            &[
                ScenarioSpec::healthy(),
                ScenarioSpec::faulted("blackout", FaultScenario::district_blackouts(1, 140.0)),
            ],
            small_objective(workers),
        )
        .unwrap()
    }

    #[test]
    fn construction_rejects_bad_objectives() {
        let map = CityArchetype::SurveyRiver.generate(1);
        let base = ExperimentConfig::default();
        let healthy = [ScenarioSpec::healthy()];
        let err = Evaluator::new(
            map.clone(),
            base,
            &healthy,
            Objective {
                flows: 0,
                ..small_objective(1)
            },
        )
        .unwrap_err();
        assert_eq!(err, PlaceError::EmptyWorkload);
        let err = Evaluator::new(map, base, &[], small_objective(1)).unwrap_err();
        assert_eq!(err, PlaceError::NoScenarios);
    }

    #[test]
    fn optimizers_reject_oversized_k() {
        let mut ev = river_evaluator(1);
        let k = ev.candidates().len() + 1;
        assert!(matches!(
            GreedyPlacer.optimize(&mut ev, k, 1),
            Err(PlaceError::NotEnoughCandidates { .. })
        ));
        assert!(matches!(
            RandomPlacer.optimize(&mut ev, 0, 1),
            Err(PlaceError::NotEnoughCandidates { .. })
        ));
    }

    #[test]
    fn scoring_is_deterministic_under_reuse() {
        // Scoring A, then B, then A again must reproduce A's score
        // bit-for-bit: the incremental invalidation on each move keeps
        // the shared cache digest-equal to a fresh world.
        let mut ev = river_evaluator(1);
        let a = Deployment::new(vec![ev.candidates()[0], ev.candidates()[7]], 2).unwrap();
        let b = Deployment::new(vec![ev.candidates()[3], ev.candidates()[11]], 2).unwrap();
        let s1 = ev.score(&a);
        let sb = ev.score(&b);
        let s2 = ev.score(&a);
        assert_eq!(s1, s2);
        assert_ne!(s1.digest, sb.digest);
        assert_eq!(ev.evaluations(), 3);
    }

    #[test]
    fn greedy_is_deterministic_and_spreads_sites() {
        let ev = river_evaluator(1);
        let a = GreedyPlacer::construct(&ev, 4).unwrap();
        let b = GreedyPlacer::construct(&ev, 4).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "greedy sites must be distinct");
    }

    #[test]
    fn anneal_is_bit_reproducible_and_never_worse_than_greedy() {
        let annealer = Annealer {
            iters: 8,
            ..Annealer::default()
        };
        let mut ev = river_evaluator(1);
        let greedy = GreedyPlacer.optimize(&mut ev, 3, 21).unwrap();
        let a = annealer.optimize(&mut ev, 3, 21).unwrap();
        let mut ev2 = river_evaluator(1);
        let b = annealer.optimize(&mut ev2, 3, 21).unwrap();
        assert_eq!(a.deployment, b.deployment);
        assert_eq!(a.score, b.score);
        assert_eq!(a.accepted_moves, b.accepted_moves);
        assert!(
            a.score.value >= greedy.score.value,
            "anneal starts from greedy and keeps the best: {} < {}",
            a.score.value,
            greedy.score.value
        );
    }

    #[test]
    fn random_sites_are_distinct_and_seed_dependent() {
        let ev = river_evaluator(1);
        let a = RandomPlacer::construct(&ev, 5, 1).unwrap();
        let b = RandomPlacer::construct(&ev, 5, 2).unwrap();
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 5);
        assert_ne!(a, b, "different seeds should draw different sites");
    }
}
