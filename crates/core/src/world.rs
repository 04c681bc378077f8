//! The prepared world: everything a city run reads, and the one place
//! its mutable part is written.
//!
//! One [`CityExperiment`] owns the map, a concrete AP placement, the
//! ground-truth AP graph and the map-only building graph — fixed at
//! preparation — plus, under a fault scenario, a private `FaultWorld`:
//! the fault state with the live-postbox table and the survivors
//! derived from it, built by one constructor and moved by one call
//! ([`CityExperiment::apply_world_event`]). Planning ([`crate::plan`])
//! and execution ([`crate::flow`]) read the world through its accessors
//! and cannot write it.

use std::sync::Arc;

use citymesh_graph::HierParams;
use citymesh_map::CityMap;
use citymesh_simcore::{split_seed, SimRng};

use crate::apgraph::ApGraph;
use crate::buildgraph::{BuildingGraph, BuildingGraphParams};
use crate::config::{ConfigError, ExperimentConfig};
use crate::deploy::Deployment;
use crate::faults::{ApHealth, FaultState, RetryPolicy};
use crate::hier::HierPlanner;
use crate::placement::{most_central, place_aps, Ap};
use crate::route::Survivors;
use crate::secure::SecureState;

/// Sub-stream domain for fault materialization (see [`crate::faults`]).
const DOMAIN_FAULTS: u64 = 0xFA17;

/// Summary of one applied world event, returned by
/// [`CityExperiment::apply_world_event`]: what changed and the
/// world's new epoch. The fleet layer uses `touched_buildings` to
/// key incremental route-cache invalidation.
#[derive(Clone, Debug)]
pub struct EpochTransition {
    /// The epoch the world just entered (1 after the first event).
    pub epoch: u64,
    /// Number of APs whose health actually flipped (no-op changes in
    /// the event's list are skipped).
    pub aps_changed: usize,
    /// Buildings owning a flipped AP, sorted and deduplicated.
    pub touched_buildings: Vec<u32>,
    /// [`FaultState::fingerprint`] after the event — the per-epoch
    /// fingerprint churn experiments chain into their timeline digest.
    pub fingerprint: u64,
}

/// Summary of one [`CityExperiment::set_deployment`] call: what the
/// deployment change touched, in exactly the shape the churn-style
/// incremental route-cache invalidation predicate consumes. A plan is
/// stale iff its `src`/`dst` is in `epoch`'s touched buildings or in
/// `retargeted_buildings`, or its conduits contain an AP from
/// `changed_aps` — the same rule `citymesh-dynamics` proves
/// digest-equal to a full flush.
#[derive(Clone, Debug, Default)]
pub struct DeploymentTransition {
    /// The world-event transition from hardening/un-hardening site
    /// APs. `None` when the experiment has no fault state (healthy
    /// world: hardening is a no-op, only the fallback table moves) or
    /// when the site set did not change.
    pub epoch: Option<EpochTransition>,
    /// APs whose health the deployment change rewrote (hardened at new
    /// sites, restored at vacated ones), in site order.
    pub changed_aps: Vec<u32>,
    /// Buildings that are currently dark (no live postbox) and whose
    /// nearest designated site changed — exactly the destinations
    /// whose cached plans may carry a stale redirect. Sorted
    /// ascending.
    pub retargeted_buildings: Vec<u32>,
}

/// The immutable half of a prepared city: fixed at preparation, read
/// by everything, and what every fault-dependent table derives from.
/// Nothing ever writes it, so a world holds it behind an `Arc` and a
/// clone of the world shares it.
#[derive(Debug)]
struct Geometry {
    map: CityMap,
    aps: Vec<Ap>,
    apg: ApGraph,
    bg: BuildingGraph,
}

/// Everything about a prepared city that a world event can change,
/// under one owner: the fault state, the two tables derived from it,
/// and the snapshot a deployment restores from. Built whole by
/// [`FaultWorld::new`] and moved whole by [`FaultWorld::apply`];
/// nothing else writes `state` or a derived table, so they always
/// describe it (the unit tests hold an updated world equal to a
/// rebuilt one).
#[derive(Clone, Debug, PartialEq)]
struct FaultWorld {
    /// The materialized scenario: per-AP health, per-building live-AP
    /// counts, recovery knobs, epoch. Drawn serially at preparation
    /// time from a dedicated sub-stream of the seed, so it is identical
    /// no matter how many workers later share the experiment.
    state: FaultState,
    /// Per-building *live* postbox AP (closest surviving AP to the
    /// centroid); `None` for a dark or AP-less building.
    postbox_live: Vec<Option<u32>>,
    /// `state`'s dark buildings as every detour search reads them —
    /// surviving-component labels that double as the blocked mask —
    /// relabelled only when a building goes dark or comes back.
    survivors: Survivors,
    /// Per-AP health as scenario materialization (plus any churn
    /// applied before the first deployment) drew it, captured the
    /// first time a deployment hardens a site so a later
    /// [`CityExperiment::set_deployment`] can restore a vacated
    /// site's APs to their un-hardened state.
    pristine_health: Option<Vec<ApHealth>>,
}

impl FaultWorld {
    /// Derives the live-postbox table and the survivors from `state`:
    /// one O(APs) pass and one O(V + E) pass.
    fn new(state: FaultState, geo: &Geometry) -> Self {
        FaultWorld {
            postbox_live: postbox_table(geo, Some(&state)),
            survivors: Survivors::new(&geo.bg, state.blocked_buildings()),
            state,
            pristine_health: None,
        }
    }

    /// Lands one event's health changes and brings every derived part
    /// along: the state moves its own tallies and live-AP counts, the
    /// live postbox is re-elected for exactly the touched buildings,
    /// the labels are recomputed only if one of them went dark or came
    /// back (the one O(V + E) cost).
    fn apply(&mut self, changes: &[(u32, ApHealth)], geo: &Geometry) -> EpochTransition {
        let mut touched = Vec::new();
        let aps_changed = self.state.apply_health(changes, &geo.aps, &mut touched);
        for &b in &touched {
            self.postbox_live[b as usize] = bucket_postbox(geo, Some(&self.state), b);
        }
        let state = &self.state;
        self.survivors.update(
            &geo.bg,
            touched.iter().map(|&b| (b, state.building_blocked(b))),
        );
        EpochTransition {
            epoch: self.state.epoch(),
            aps_changed,
            touched_buildings: touched,
            fingerprint: self.state.fingerprint(),
        }
    }
}

/// An installed [`Deployment`] and the table derived from it.
#[derive(Clone, Debug)]
struct ActiveDeployment {
    deployment: Deployment,
    /// Per-building nearest designated site (by centroid distance,
    /// lowest building id on ties). Consulted only for buildings whose
    /// own postbox is dark.
    fallback_site: Vec<Option<u32>>,
}

/// A prepared city: placement + graphs, ready to run pairs.
#[derive(Clone, Debug)]
pub struct CityExperiment {
    /// Shared by every clone (an engine's private world): polygons,
    /// both graphs, audience rows and the building graph's
    /// shortest-path rows exist once however many worlds read them.
    geo: Arc<Geometry>,
    config: ExperimentConfig,
    /// Per-building postbox AP (closest AP to the centroid), healthy
    /// world — [`crate::placement::postbox_ap`]'s answer precomputed
    /// for every building so each plan does an O(1) lookup instead of
    /// an O(APs) scan.
    postbox: Vec<Option<u32>>,
    /// The mutable fault world, when the config carries a scenario or
    /// [`CityExperiment::with_fault_state`] attached one. `None` — the
    /// default — is the healthy world.
    faults: Option<FaultWorld>,
    /// District-overlay planner, built on demand by
    /// [`CityExperiment::enable_hier`]. `None` means
    /// [`CityExperiment::plan_flow_hier_into`] is unavailable; the flat
    /// path never consults it. Immutable once built, so behind an `Arc`
    /// for the reason `geo` is: a clone shares the one hierarchy
    /// (51 MiB at 10×10 tiles) instead of copying it.
    hier: Option<Arc<HierPlanner>>,
    /// Active hardened-site deployment, installed by
    /// [`CityExperiment::set_deployment`]. `None` — the default —
    /// leaves every plan, RNG stream, and digest untouched.
    deployment: Option<ActiveDeployment>,
    /// Secure message plane, installed by
    /// [`CityExperiment::enable_encryption`]. `None` — the default —
    /// leaves every plan, RNG stream, and digest untouched; `Some`
    /// makes [`CityExperiment::simulate_flow_secure_with`] available.
    /// Behind an `Arc` so experiment clones (an engine's private
    /// world) share one key registry and one warm session cache.
    secure: Option<Arc<SecureState>>,
}

impl CityExperiment {
    /// Places APs and builds both graphs for `map`.
    ///
    /// # Panics
    /// Panics on an invalid config ([`ExperimentConfig::validate`]);
    /// use [`CityExperiment::try_prepare`] for a graceful failure.
    pub fn prepare(map: CityMap, config: ExperimentConfig) -> Self {
        Self::try_prepare(map, config).unwrap_or_else(|e| panic!("invalid ExperimentConfig: {e}"))
    }

    /// [`CityExperiment::prepare`] with config validation surfaced as
    /// a value instead of a panic.
    pub fn try_prepare(map: CityMap, config: ExperimentConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let mut placement_rng = SimRng::new(split_seed(config.seed, 0xA9));
        let aps = place_aps(&map, config.m2_per_ap, &mut placement_rng);
        Ok(Self::from_parts(map, aps, config))
    }

    /// Builds both graphs over a caller-supplied placement — used when
    /// the placement must be preserved across map edits (e.g. after
    /// `citymesh_place::apply_bridges` + `extend_placement`).
    ///
    /// # Panics
    /// Panics when any AP references a building outside the map or the
    /// config is invalid.
    pub fn from_parts(map: CityMap, aps: Vec<Ap>, config: ExperimentConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid ExperimentConfig: {e}"));
        assert!(
            aps.iter().all(|a| (a.building as usize) < map.len()),
            "AP references a building outside the map"
        );
        let apg = ApGraph::build(&aps, config.range_m);
        let graph = BuildingGraphParams {
            weight_exponent: config.weight_exponent,
            ..BuildingGraphParams::for_range(config.range_m)
        };
        let bg = BuildingGraph::build(&map, graph);
        let geo = Arc::new(Geometry { map, aps, apg, bg });
        let postbox = postbox_table(&geo, None);
        let faults = config.faults.map(|sc| {
            let seed = split_seed(config.seed, DOMAIN_FAULTS);
            FaultWorld::new(FaultState::materialize(&sc, &geo.aps, &geo.map, seed), &geo)
        });
        CityExperiment {
            geo,
            config,
            postbox,
            faults,
            hier: None,
            deployment: None,
            secure: None,
        }
    }

    /// The fault state and the survivors derived from it, together —
    /// one `Option` holds both.
    pub(crate) fn fault_world(&self) -> Option<(&FaultState, &Survivors)> {
        self.faults.as_ref().map(|w| (&w.state, &w.survivors))
    }

    /// The materialized fault state, when the config carries a
    /// scenario.
    pub fn fault_state(&self) -> Option<&FaultState> {
        self.fault_world().map(|(state, _)| state)
    }

    /// The fault state's dark buildings in the form detour searches
    /// consult — [`crate::route::plan_route_avoiding_into`]'s mask and
    /// labels, current as of the last world event. `None` exactly when
    /// [`CityExperiment::fault_state`] is.
    pub fn survivors(&self) -> Option<&Survivors> {
        self.fault_world().map(|(_, survivors)| survivors)
    }

    /// Replaces the fault state with a caller-built one — the targeted
    /// what-if path (e.g. [`FaultState::with_failed`] killing exactly
    /// the destination's APs), bypassing scenario materialization.
    ///
    /// # Panics
    /// Panics when `state` does not cover exactly this experiment's
    /// APs.
    pub fn with_fault_state(mut self, state: FaultState) -> Self {
        assert_eq!(
            state.len(),
            self.geo.aps.len(),
            "fault state covers {} APs but the experiment has {}",
            state.len(),
            self.geo.aps.len()
        );
        // A caller-built fault state supersedes any hardening a prior
        // deployment applied; drop the deployment so the world holds
        // exactly the state the caller handed in.
        self.faults = Some(FaultWorld::new(state, &self.geo));
        self.deployment = None;
        self
    }

    /// [`FaultState::set_retry`] on the world's own state. Nothing
    /// derived depends on the policy (it is read at simulation time).
    ///
    /// # Panics
    /// Panics when the experiment carries no fault state.
    pub fn set_retry(&mut self, retry: RetryPolicy) {
        self.faults
            .as_mut()
            .expect("set_retry requires a fault state; prepare with a scenario")
            .state
            .set_retry(retry);
    }

    /// Applies one churn event's materialized health changes to the
    /// live world and advances the fault-state epoch. The fault world
    /// moves as one: per-AP health and the per-building live-AP counts
    /// flip together, the live postbox AP is re-elected for exactly the
    /// touched buildings (the incremental counterpart of the full
    /// table pass done at preparation time), and the
    /// surviving-component labels are recomputed if one of them went
    /// dark or came back.
    ///
    /// Everything downstream keys off the epoch: plans cached across
    /// the boundary recompute their lazy ladder geometry on first
    /// escalation, so a kept plan is behaviorally identical to a
    /// freshly planned one. The change list comes from a materialized
    /// event timeline (`citymesh-dynamics`), which is worker-count
    /// independent — so applying it between parallel epochs preserves
    /// the engine's digest invariance.
    ///
    /// # Panics
    /// Panics when the experiment carries no fault state (prepare with
    /// a scenario — the null [`crate::FaultScenario::default`] is enough — or
    /// attach one via [`CityExperiment::with_fault_state`]).
    pub fn apply_world_event(&mut self, changes: &[(u32, ApHealth)]) -> EpochTransition {
        self.faults
            .as_mut()
            .expect("apply_world_event requires a fault state; prepare with a scenario")
            .apply(changes, &self.geo)
    }

    /// Installs (or removes, with `None`) a hardened-site
    /// [`Deployment`] and returns what changed.
    ///
    /// Two effects, both strictly opt-in:
    ///
    /// * **fault layer** — every AP in a designated building is forced
    ///   [`ApHealth::Up`] (hardened sites survive blackout/battery
    ///   scenarios), applied through
    ///   [`CityExperiment::apply_world_event`] so the blocked set,
    ///   live-postbox table, and fault-state epoch stay coherent and
    ///   cached plans recompute their lazy ladder geometry. Vacated
    ///   sites are restored to the health the scenario originally drew
    ///   for them. No-op in the healthy world.
    /// * **planner** — a per-building nearest-site table is rebuilt;
    ///   [`CityExperiment::plan_flow_into`] consults it via
    ///   [`CityExperiment::delivery_target`] to redirect mail for a
    ///   building with no live postbox to its nearest designated site
    ///   (the site's postbox holds it, as the paper's postboxes hold
    ///   sealed messages for offline recipients).
    ///
    /// Calling this repeatedly with different deployments is the
    /// optimizer's move loop: each call applies only the *diff*
    /// against the previous deployment, and the returned
    /// [`DeploymentTransition`] carries exactly what a route cache
    /// must invalidate.
    ///
    /// # Panics
    /// Panics when a site id is outside the map.
    pub fn set_deployment(&mut self, deployment: Option<Deployment>) -> DeploymentTransition {
        if let Some(d) = &deployment {
            assert!(
                d.sites().iter().all(|&b| (b as usize) < self.geo.map.len()),
                "deployment site outside the map"
            );
        }
        let mut changes: Vec<(u32, ApHealth)> = Vec::new();
        if let Some(w) = &mut self.faults {
            let state = &w.state;
            let pristine = w.pristine_health.get_or_insert_with(|| {
                (0..state.len() as u32).map(|ap| state.health(ap)).collect()
            });
            let old = self.deployment.as_ref();
            let old: &[u32] = old.map(|d| d.deployment.sites()).unwrap_or(&[]);
            let new: &[u32] = deployment.as_ref().map(|d| d.sites()).unwrap_or(&[]);
            // Every AP of the sites only `a` names, at `health(ap)`.
            let mut rewrite = |a: &[u32], b: &[u32], health: &dyn Fn(u32) -> ApHealth| {
                for &site in a.iter().filter(|s| b.binary_search(s).is_err()) {
                    let bucket = self.geo.apg.aps_of_building(site);
                    changes.extend(bucket.iter().map(|&ap| (ap, health(ap))));
                }
            };
            rewrite(old, new, &|ap| pristine[ap as usize]);
            rewrite(new, old, &|_| ApHealth::Up);
        }
        let epoch = (!changes.is_empty()).then(|| self.apply_world_event(&changes));
        let old = std::mem::replace(
            &mut self.deployment,
            deployment.map(|deployment| ActiveDeployment {
                fallback_site: fallback_site_table(&self.geo.map, deployment.sites()),
                deployment,
            }),
        );
        // Only destinations that are dark *now* consult the fallback
        // table; buildings whose liveness itself flipped are already in
        // the epoch transition's touched set.
        let site_of =
            |d: &Option<ActiveDeployment>, b: usize| d.as_ref().and_then(|d| d.fallback_site[b]);
        let retargeted = (0..self.geo.map.len())
            .filter(|&b| site_of(&old, b) != site_of(&self.deployment, b))
            .map(|b| b as u32)
            .filter(|&b| self.postbox_for(b).is_none())
            .collect();
        DeploymentTransition {
            epoch,
            changed_aps: changes.iter().map(|&(ap, _)| ap).collect(),
            retargeted_buildings: retargeted,
        }
    }

    /// The active hardened-site deployment, when one is installed.
    pub fn deployment(&self) -> Option<&Deployment> {
        self.deployment.as_ref().map(|d| &d.deployment)
    }

    /// The building's postbox AP in the world currently in effect:
    /// the live table under a fault state, the healthy table otherwise.
    /// Under faults this is the surviving postbox AP — closest live AP
    /// to the centroid, `None` when the building is dark.
    pub(crate) fn postbox_for(&self, building: u32) -> Option<u32> {
        match &self.faults {
            Some(w) => w.postbox_live[building as usize],
            None => self.postbox[building as usize],
        }
    }

    /// Where mail addressed to `dst` is actually delivered: `dst`
    /// itself when its postbox is live (or no deployment is active),
    /// otherwise the nearest designated site of the active
    /// [`Deployment`]. Pure in the prepared world, so redirected plans
    /// remain cacheable by their requested `(src, dst)`.
    pub fn delivery_target(&self, dst: u32) -> u32 {
        match &self.deployment {
            Some(d) if self.postbox_for(dst).is_none() => {
                d.fallback_site[dst as usize].unwrap_or(dst)
            }
            _ => dst,
        }
    }

    /// The city map.
    pub fn map(&self) -> &CityMap {
        &self.geo.map
    }

    /// The AP placement.
    pub fn aps(&self) -> &[Ap] {
        &self.geo.aps
    }

    /// The ground-truth AP graph.
    pub fn ap_graph(&self) -> &ApGraph {
        &self.geo.apg
    }

    /// The map-derived building graph.
    pub fn building_graph(&self) -> &BuildingGraph {
        &self.geo.bg
    }

    /// Builds the district-overlay planner so
    /// [`CityExperiment::plan_flow_hier_into`] becomes available.
    /// This is the one-time prepare-phase cost of hierarchical
    /// planning (partitioning, border discovery, the per-district
    /// distance tables, overlay landmarks); queries afterwards
    /// allocate nothing. Idempotent in effect: rebuilding with the
    /// same params yields an identical planner.
    pub fn enable_hier(&mut self, params: &HierParams) {
        self.hier = Some(Arc::new(HierPlanner::build(&self.geo.bg, params)));
    }

    /// The district-overlay planner, when
    /// [`CityExperiment::enable_hier`] has run.
    pub fn hier_planner(&self) -> Option<&HierPlanner> {
        self.hier.as_deref()
    }

    /// Installs the secure message plane: a deterministic per-building
    /// keypair registry (drawn from the [`DOMAIN_KEYS`] sub-stream of
    /// the experiment seed, so identical across workers and reruns)
    /// plus an empty per-pair session-key cache. This is the one-time
    /// prepare-phase cost of encryption; per-pair key derivation
    /// afterwards is amortized by the cache, and per-message sealing is
    /// symmetric-only. Makes
    /// [`CityExperiment::simulate_flow_secure_with`] available.
    ///
    /// Strictly opt-in: never calling this leaves every RNG stream,
    /// plan field, and digest bit-identical to a pre-encryption build.
    ///
    /// [`DOMAIN_KEYS`]: crate::secure::DOMAIN_KEYS
    pub fn enable_encryption(&mut self) {
        self.secure = Some(Arc::new(SecureState::new(
            self.config.seed,
            self.geo.map.len(),
        )));
    }

    /// The secure message plane, when
    /// [`CityExperiment::enable_encryption`] has run. Clones of this
    /// experiment share the same state (same registry, same warm
    /// cache).
    pub fn secure_state(&self) -> Option<&Arc<SecureState>> {
        self.secure.as_ref()
    }

    /// Rotates one building's keypair — the key-material analogue of a
    /// churn event — evicting every cached session that touches it.
    /// Returns the number of sessions evicted.
    ///
    /// # Panics
    /// Panics when [`CityExperiment::enable_encryption`] has not run.
    pub fn rotate_keys(&self, building: u32) -> usize {
        self.secure
            .as_ref()
            .expect("CityExperiment::rotate_keys requires enable_encryption")
            .rotate_keys(building)
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Samples `n` distinct source/destination building pairs.
    pub fn sample_pairs(&self, n: usize, rng: &mut SimRng) -> Vec<(u32, u32)> {
        let b = self.geo.map.len() as u64;
        if b < 2 {
            return Vec::new();
        }
        let mut pairs = Vec::with_capacity(n);
        let mut seen = std::collections::HashSet::with_capacity(n);
        let mut guard = 0;
        while pairs.len() < n && guard < n * 20 {
            guard += 1;
            let src = rng.below(b) as u32;
            let dst = rng.below(b) as u32;
            if src != dst && seen.insert((src, dst)) {
                pairs.push((src, dst));
            }
        }
        pairs
    }

    /// Ground-truth reachability for one pair.
    pub fn reachable(&self, src: u32, dst: u32) -> bool {
        self.geo.apg.buildings_reachable(src, dst)
    }
}

/// The postbox AP of `building`: its AP closest to the centroid,
/// among those `faults` leaves alive when a fault state is given.
/// Equal to [`crate::placement::postbox_ap`] /
/// [`FaultState::postbox_ap_live`], but read from the AP graph's
/// building→AP bucket — O(APs of the building), not O(APs of the city);
/// buckets hold ids ascending, so an exact tie elects the same AP the
/// whole-placement scans do.
fn bucket_postbox(geo: &Geometry, faults: Option<&FaultState>, building: u32) -> Option<u32> {
    let centroid = geo.map.building(building)?.centroid;
    let bucket = geo.apg.aps_of_building(building).iter();
    most_central(
        bucket
            .map(|&id| &geo.aps[id as usize])
            .filter(|ap| !faults.is_some_and(|f| f.is_failed(ap.id))),
        centroid,
    )
}

/// [`bucket_postbox`] for every building: one O(APs) pass at
/// preparation time replaces a scan per planned flow.
fn postbox_table(geo: &Geometry, faults: Option<&FaultState>) -> Vec<Option<u32>> {
    (0..geo.map.len() as u32)
        .map(|b| bucket_postbox(geo, faults, b))
        .collect()
}

/// Precomputes each building's nearest designated site by centroid
/// distance (lowest site id on exact ties — sites are iterated in
/// sorted order). A building that is itself a site maps to itself, so
/// a redirect through the table is a no-op for hardened buildings.
fn fallback_site_table(map: &CityMap, sites: &[u32]) -> Vec<Option<u32>> {
    let centroid = |b: u32| map.buildings()[b as usize].centroid;
    (0..map.len() as u32)
        .map(|b| {
            let d2 = |s: &u32| centroid(*s).dist2(centroid(b));
            sites.iter().copied().min_by(|s, t| d2(s).total_cmp(&d2(t)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::small_config;
    use crate::faults::FaultScenario;
    use citymesh_map::CityArchetype;

    #[test]
    fn different_seed_changes_placement() {
        let map = CityArchetype::SurveyResidential.generate(3);
        let a = CityExperiment::prepare(map.clone(), small_config(7));
        let b = CityExperiment::prepare(map, small_config(8));
        assert_ne!(a.aps()[0].pos, b.aps()[0].pos);
    }

    #[test]
    fn a_non_positive_weight_exponent_is_a_config_error() {
        let map = CityArchetype::SurveyResidential.generate(3);
        for weight_exponent in [0.0, -1.0] {
            let config = ExperimentConfig {
                weight_exponent,
                ..small_config(3)
            };
            let err = CityExperiment::try_prepare(map.clone(), config).err();
            let field = "weight_exponent";
            let value = weight_exponent;
            assert_eq!(err, Some(ConfigError::NotPositive { field, value }));
        }
    }

    #[test]
    fn the_building_graph_follows_the_range_and_the_exponent() {
        let map = CityArchetype::SurveyResidential.generate(3);
        // The range ablation's ranges, and the exponent ablation's
        // exponents.
        for range_m in [30.0, 50.0, 80.0] {
            for weight_exponent in [1.0, 2.0, 3.0, 4.0] {
                let config = ExperimentConfig {
                    range_m,
                    conduit_width_m: range_m,
                    weight_exponent,
                    ..small_config(3)
                };
                let exp = CityExperiment::prepare(map.clone(), config);
                let expected = BuildingGraphParams {
                    weight_exponent,
                    ..BuildingGraphParams::for_range(range_m)
                };
                assert_eq!(exp.building_graph().params(), expected);
            }
        }
    }

    #[test]
    fn a_clone_shares_the_geometry_and_the_hierarchy() {
        let map = CityArchetype::SurveyDowntown.generate(4);
        let mut exp = CityExperiment::prepare(map, small_config(4));
        exp.enable_hier(&HierParams::default());
        let twin = exp.clone();
        assert!(Arc::ptr_eq(&exp.geo, &twin.geo));
        assert!(Arc::ptr_eq(
            exp.hier.as_ref().unwrap(),
            twin.hier.as_ref().unwrap()
        ));
    }

    #[test]
    fn sample_pairs_distinct_and_in_range() {
        let map = CityArchetype::SurveyDowntown.generate(4);
        let exp = CityExperiment::prepare(map, small_config(4));
        let mut rng = SimRng::new(1);
        let pairs = exp.sample_pairs(300, &mut rng);
        assert_eq!(pairs.len(), 300);
        let n = exp.map().len() as u32;
        let mut seen = std::collections::HashSet::new();
        for (s, d) in &pairs {
            assert!(*s < n && *d < n);
            assert_ne!(s, d);
            assert!(seen.insert((*s, *d)), "pairs must be unique");
        }
    }

    #[test]
    fn no_deployment_plans_are_bit_identical() {
        // `set_deployment(None)` on a world that never had one must be
        // a perfect no-op: no epoch bump, no retargets, identical
        // plans — the guarantee that keeps every pre-placement golden
        // digest pinned in CI bit-identical.
        let map = CityArchetype::SurveyDowntown.generate(6);
        let cfg = ExperimentConfig {
            faults: Some(FaultScenario::district_blackouts(1, 150.0)),
            ..small_config(6)
        };
        let baseline = CityExperiment::prepare(map.clone(), cfg);
        let mut exp = CityExperiment::prepare(map, cfg);
        let t = exp.set_deployment(None);
        assert!(t.epoch.is_none());
        assert!(t.changed_aps.is_empty());
        assert!(t.retargeted_buildings.is_empty());
        let mut rng = SimRng::new(3);
        for (src, dst) in baseline.sample_pairs(40, &mut rng) {
            let a = baseline.plan_flow(src, dst);
            let b = exp.plan_flow(src, dst);
            assert_eq!(a.waypoints, b.waypoints);
            assert_eq!(a.src_ap, b.src_ap);
            assert_eq!(a.reachable, b.reachable);
            assert_eq!(b.redirect(), None);
        }
    }

    #[test]
    fn hardened_sites_survive_blackout_and_catch_redirected_mail() {
        let map = CityArchetype::SurveyDowntown.generate(6);
        let mut exp = CityExperiment::prepare(
            map,
            ExperimentConfig {
                faults: Some(FaultScenario::district_blackouts(2, 150.0)),
                ..small_config(6)
            },
        );
        // Two dark buildings that own APs: one becomes the hardened
        // site, the other's mail must redirect to it.
        let dark: Vec<u32> = (0..exp.map().len() as u32)
            .filter(|&b| {
                !exp.ap_graph().aps_of_building(b).is_empty()
                    && exp
                        .fault_state()
                        .unwrap()
                        .postbox_ap_live(exp.aps(), exp.map(), b)
                        .is_none()
            })
            .collect();
        assert!(dark.len() >= 2, "blackout should darken several buildings");
        let site = dark[0];
        let t = exp.set_deployment(Some(Deployment::new(vec![site], 1).unwrap()));
        let epoch = t.epoch.expect("hardening a dark building flips AP health");
        assert!(epoch.aps_changed > 0);
        assert!(epoch.touched_buildings.contains(&site));
        // The fault layer respects the site: every AP up, not blocked,
        // postbox live again.
        let st = exp.fault_state().unwrap();
        for &ap in exp.ap_graph().aps_of_building(site) {
            assert_eq!(st.health(ap), ApHealth::Up);
        }
        assert!(!st.building_blocked(site));
        assert!(st.postbox_ap_live(exp.aps(), exp.map(), site).is_some());
        // The planner respects it too: a still-dark destination's mail
        // is carried to the site (the only designated one).
        let other = dark[1];
        assert_eq!(exp.delivery_target(other), site);
        let src = (0..exp.map().len() as u32)
            .find(|&b| b != other && st.postbox_ap_live(exp.aps(), exp.map(), b).is_some())
            .expect("some building kept a live postbox");
        let plan = exp.plan_flow(src, other);
        assert_eq!(plan.redirect(), Some(site));
        assert_eq!(plan.delivery_dst(), site);
        assert_eq!(plan.dst, other, "cache key keeps the requested destination");
    }

    #[test]
    fn postbox_tables_equal_the_whole_placement_scans() {
        use crate::placement::postbox_ap;
        let map = CityArchetype::SurveyDowntown.generate(8);
        let cfg = ExperimentConfig {
            faults: Some(FaultScenario::district_blackouts(1, 140.0)),
            ..small_config(8)
        };
        let mut exp = CityExperiment::prepare(map, cfg);
        let live = |exp: &CityExperiment| exp.faults.as_ref().unwrap().postbox_live.clone();
        let assert_tables = |exp: &CityExperiment| {
            let st = exp.fault_state().unwrap();
            for b in 0..exp.map().len() as u32 {
                let (aps, map) = (exp.aps(), exp.map());
                assert_eq!(exp.postbox[b as usize], postbox_ap(aps, map, b));
                assert_eq!(exp.postbox_for(b), st.postbox_ap_live(aps, map, b));
            }
        };
        assert_tables(&exp);
        // The per-touched-building refresh: fail the live postbox of
        // every fifth building, then bring a dark building's APs up.
        let mut changes: Vec<(u32, ApHealth)> = live(&exp)
            .iter()
            .step_by(5)
            .flatten()
            .map(|&ap| (ap, ApHealth::Failed))
            .collect();
        let dark = (0..exp.map().len() as u32)
            .find(|&b| exp.postbox[b as usize].is_some() && exp.postbox_for(b).is_none())
            .expect("the blackout darkens a building");
        for &ap in exp.ap_graph().aps_of_building(dark) {
            changes.push((ap, ApHealth::Up));
        }
        exp.apply_world_event(&changes);
        assert!(exp.postbox_for(dark).is_some());
        assert_tables(&exp);
        // A caller-built fault state rebuilds the live table whole.
        let failed: Vec<u32> = exp.postbox.iter().step_by(3).flatten().copied().collect();
        let state = FaultState::with_failed(exp.aps(), exp.map(), &failed, RetryPolicy::default());
        let exp = exp.with_fault_state(state.unwrap());
        assert_tables(&exp);
    }

    #[test]
    fn fault_world_after_every_update_equals_a_rebuild() {
        let map = CityArchetype::SurveyDowntown.generate(8);
        let cfg = ExperimentConfig {
            faults: Some(FaultScenario::district_blackouts(1, 140.0)),
            ..small_config(8)
        };
        let mut exp = CityExperiment::prepare(map, cfg);
        // State, live postboxes, mask, list and labels against the world
        // built from the state alone. (The pristine snapshot is memory,
        // not derived state: carried over.)
        let assert_rebuilt = |exp: &CityExperiment| {
            let world = exp.faults.as_ref().unwrap();
            let rebuilt = FaultWorld {
                pristine_health: world.pristine_health.clone(),
                ..FaultWorld::new(world.state.clone(), &exp.geo)
            };
            assert_eq!(*world, rebuilt);
        };
        assert_rebuilt(&exp);
        // Dark → repaired → dark, for one building of the blackout.
        let dark = *exp
            .survivors()
            .unwrap()
            .blocked()
            .first()
            .expect("a blackout");
        let bucket = exp.ap_graph().aps_of_building(dark).to_vec();
        let set = |h: ApHealth| bucket.iter().map(|&ap| (ap, h)).collect::<Vec<_>>();
        for (health, blocked) in [(ApHealth::Up, false), (ApHealth::Failed, true)] {
            let labels_before = exp.survivors().cloned();
            exp.apply_world_event(&set(health));
            assert_eq!(exp.survivors().unwrap().is_blocked(dark), blocked);
            assert!(exp.survivors() != labels_before.as_ref());
            assert_rebuilt(&exp);
        }
        // An event that darkens and relights nothing leaves the labels
        // alone and still lands everywhere else.
        let before = exp.survivors().cloned();
        let live = (0..exp.map().len() as u32)
            .find_map(|b| exp.postbox_for(b))
            .expect("a live AP");
        exp.apply_world_event(&[(live, ApHealth::Degraded)]);
        assert!(exp.survivors() == before.as_ref());
        assert_rebuilt(&exp);
        // Hardening a dark site and vacating it both go through the
        // same one call.
        let t = exp.set_deployment(Some(Deployment::new(vec![dark], 1).unwrap()));
        assert!(t.epoch.is_some() && !exp.survivors().unwrap().is_blocked(dark));
        assert_rebuilt(&exp);
        exp.set_deployment(None);
        assert!(exp.survivors().unwrap().is_blocked(dark));
        assert_rebuilt(&exp);
        // A caller-built fault state rebuilds the world whole.
        let failed: Vec<u32> = exp.postbox.iter().step_by(3).flatten().copied().collect();
        let state = FaultState::with_failed(exp.aps(), exp.map(), &failed, RetryPolicy::default());
        assert_rebuilt(&exp.with_fault_state(state.unwrap()));
    }

    #[test]
    fn vacating_a_site_restores_scenario_health() {
        let map = CityArchetype::SurveyDowntown.generate(7);
        let cfg = ExperimentConfig {
            faults: Some(FaultScenario::district_blackouts(1, 140.0)),
            ..small_config(7)
        };
        let pristine = CityExperiment::prepare(map.clone(), cfg);
        let mut exp = CityExperiment::prepare(map, cfg);
        let dark: Vec<u32> = (0..exp.map().len() as u32)
            .filter(|&b| {
                !exp.ap_graph().aps_of_building(b).is_empty()
                    && exp.fault_state().unwrap().building_blocked(b)
            })
            .collect();
        assert!(dark.len() >= 2);
        exp.set_deployment(Some(Deployment::new(vec![dark[0]], 1).unwrap()));
        let t = exp.set_deployment(Some(Deployment::new(vec![dark[1]], 1).unwrap()));
        assert!(t.epoch.is_some(), "relocation flips health at both sites");
        // The vacated site is back to exactly what the scenario drew.
        let st = exp.fault_state().unwrap();
        let want = pristine.fault_state().unwrap();
        for &ap in exp.ap_graph().aps_of_building(dark[0]) {
            assert_eq!(st.health(ap), want.health(ap));
        }
        assert!(st.building_blocked(dark[0]));
        // And dropping the deployment restores the whole world.
        exp.set_deployment(None);
        let st = exp.fault_state().unwrap();
        for ap in 0..st.len() as u32 {
            assert_eq!(st.health(ap), want.health(ap));
        }
    }
}
