//! The evaluation engine behind every optimizer: one prepared world
//! and one shared route cache per scenario, re-scored per candidate
//! deployment with churn-style incremental cache invalidation.

use citymesh_core::{
    CityExperiment, Deployment, DeploymentTransition, ExperimentConfig, FaultScenario,
};
use citymesh_fleet::{
    generate_flows, try_run_fleet_on_cache, FleetConfig, FlowSpec, RouteCache, WorkloadConfig,
};
use citymesh_map::CityMap;
use citymesh_telemetry::TelemetryConfig;

use crate::objective::{world_score, Objective, Score};
use crate::PlaceError;

/// One scenario world the objective is averaged over.
#[derive(Clone, Debug)]
pub struct ScenarioSpec {
    /// Label carried into [`crate::WorldScore::label`] and error
    /// messages.
    pub label: String,
    /// The fault scenario; `None` is the healthy world.
    pub faults: Option<FaultScenario>,
}

impl ScenarioSpec {
    /// The healthy world.
    pub fn healthy() -> Self {
        ScenarioSpec {
            label: "healthy".to_string(),
            faults: None,
        }
    }

    /// A labeled fault scenario.
    pub fn faulted(label: &str, scenario: FaultScenario) -> Self {
        ScenarioSpec {
            label: label.to_string(),
            faults: Some(scenario),
        }
    }
}

/// One scenario's long-lived evaluation state.
struct WorldSlot {
    label: String,
    exp: CityExperiment,
    cache: RouteCache,
}

/// Scores candidate [`Deployment`]s by running the seeded fleet
/// workload over every scenario world.
///
/// The worlds and their route caches persist across evaluations:
/// installing a candidate applies only the *diff* against the
/// previously installed deployment
/// ([`CityExperiment::set_deployment`]), and the cache keeps every
/// plan the move did not touch — evicting exactly the plans whose
/// src/dst was touched or retargeted or whose conduits contain a
/// changed AP, the invalidation rule `citymesh-dynamics` proves
/// digest-equal to a full flush. Candidate scoring itself runs on the
/// fleet worker pool with order-free report merging, so scores (and their
/// digests) are identical at 1, 4, or 8 workers.
pub struct Evaluator {
    worlds: Vec<WorldSlot>,
    flows: Vec<FlowSpec>,
    fleet: FleetConfig,
    objective: Objective,
    candidates: Vec<u32>,
    evaluations: u64,
    routes_evicted: u64,
}

impl std::fmt::Debug for Evaluator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Evaluator")
            .field("scenarios", &self.scenario_labels())
            .field("flows", &self.flows.len())
            .field("candidates", &self.candidates.len())
            .field("evaluations", &self.evaluations)
            .field("routes_evicted", &self.routes_evicted)
            .finish_non_exhaustive()
    }
}

impl Evaluator {
    /// Prepares one world per scenario over `map` (all sharing the
    /// base config's seed, hence the same AP placement) and draws the
    /// objective's workload once.
    pub fn new(
        map: CityMap,
        base: ExperimentConfig,
        scenarios: &[ScenarioSpec],
        objective: Objective,
    ) -> Result<Evaluator, PlaceError> {
        if objective.flows == 0 {
            return Err(PlaceError::EmptyWorkload);
        }
        if scenarios.is_empty() {
            return Err(PlaceError::NoScenarios);
        }
        let flows = generate_flows(
            map.len(),
            &WorkloadConfig {
                flows: objective.flows,
                model: objective.model,
                seed: objective.seed,
            },
        );
        let mut worlds = Vec::with_capacity(scenarios.len());
        for s in scenarios {
            let config = ExperimentConfig {
                faults: s.faults,
                ..base
            };
            let exp = CityExperiment::try_prepare(map.clone(), config)?;
            worlds.push(WorldSlot {
                label: s.label.clone(),
                exp,
                cache: RouteCache::new(),
            });
        }
        let candidates = (0..map.len() as u32)
            .filter(|&b| !worlds[0].exp.ap_graph().aps_of_building(b).is_empty())
            .collect();
        Ok(Evaluator {
            worlds,
            flows,
            fleet: FleetConfig {
                workers: objective.workers,
                seed: objective.seed,
                use_hier_planner: false,
                encrypted: false,
            },
            objective,
            candidates,
            evaluations: 0,
            routes_evicted: 0,
        })
    }

    /// Buildings eligible as sites — those owning at least one AP
    /// (hardening an AP-less building does nothing) — in ascending id
    /// order, so index-based draws from seeded sub-streams are
    /// deterministic.
    pub fn candidates(&self) -> &[u32] {
        &self.candidates
    }

    /// The objective being evaluated.
    pub fn objective(&self) -> &Objective {
        &self.objective
    }

    /// The city all scenario worlds share.
    pub fn map(&self) -> &CityMap {
        self.worlds[0].exp.map()
    }

    /// The scenario world at `index` (evaluation order) — the state
    /// the most recent [`Evaluator::score`] left installed.
    pub fn world(&self, index: usize) -> &CityExperiment {
        &self.worlds[index].exp
    }

    /// Scenario labels, in evaluation order.
    pub fn scenario_labels(&self) -> Vec<&str> {
        self.worlds.iter().map(|w| w.label.as_str()).collect()
    }

    /// Full fleet evaluations run so far.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Cached plans evicted by incremental invalidation so far.
    pub fn routes_evicted(&self) -> u64 {
        self.routes_evicted
    }

    /// Scores `deployment`: installs it in every scenario world
    /// (diffing against whatever was installed before), evicts exactly
    /// the stale cached plans, and runs the seeded workload.
    pub fn score(&mut self, deployment: &Deployment) -> Score {
        let mut worlds = Vec::with_capacity(self.worlds.len());
        for slot in &mut self.worlds {
            let t = slot.exp.set_deployment(Some(deployment.clone()));
            self.routes_evicted += evict_stale(&slot.exp, &slot.cache, &t);
            let (report, _) = try_run_fleet_on_cache(
                &slot.exp,
                &self.flows,
                &self.fleet,
                &slot.cache,
                &TelemetryConfig::off(),
            )
            .expect("fleet config is validated at Evaluator construction");
            worlds.push(world_score(&slot.label, &report));
        }
        self.evaluations += 1;
        Score::from_worlds(self.objective.metric, deployment, worlds)
    }
}

/// Churn-style incremental invalidation after a deployment transition:
/// [`RouteCache::evict_stale`] with the endpoints that were touched (AP
/// health flipped at that building) *or retargeted* (a dark
/// destination's nearest site changed), and the APs the move rewrote.
fn evict_stale(exp: &CityExperiment, cache: &RouteCache, t: &DeploymentTransition) -> u64 {
    if t.epoch.is_none() && t.retargeted_buildings.is_empty() {
        return 0;
    }
    let touched = t.epoch.iter().flat_map(|e| &e.touched_buildings);
    cache.evict_stale(
        exp.ap_graph(),
        t.retargeted_buildings.iter().chain(touched).copied(),
        t.changed_aps.iter().copied(),
    )
}
