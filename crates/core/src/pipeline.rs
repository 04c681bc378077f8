//! End-to-end experiment pipeline (paper §4).
//!
//! One [`CityExperiment`] owns everything a city run needs — the map,
//! a concrete AP placement, the ground-truth AP graph, and the
//! map-only building graph — and produces the three Figure-6 metrics:
//!
//! * **reachability** — fraction of random building pairs connected
//!   through the AP graph (1000 pairs in the paper);
//! * **deliverability** — among reachable pairs, fraction whose packet
//!   the building-routing algorithm actually delivers in the full
//!   event simulation (50 pairs in the paper);
//! * **transmission overhead** — broadcasts ÷ ideal-unicast hops
//!   (≈ 13× in the paper).
//!
//! plus the §4 header statistics (median / 90th-percentile compressed
//! route bits).

use std::sync::{Arc, RwLock};

use citymesh_geo::OrientedRect;
use citymesh_graph::{HierParams, HopScratch, PlannerScratch};
use citymesh_map::CityMap;
use citymesh_net::{CityMeshHeader, MAX_CONDUIT_WIDTH_M};
use citymesh_simcore::{split_seed, SimRng, SimTime};

use crate::agent::RebroadcastScope;
use crate::apgraph::ApGraph;
use crate::buildgraph::{BuildingGraph, BuildingGraphParams};
use crate::conduit::{compress_route_into, reconstruct_conduits_into};
use crate::deploy::Deployment;
use crate::faults::{ApHealth, FaultScenario, FaultState, RecoveryStage, RetryPolicy};
use crate::hier::{HierPlanScratch, HierPlanner};
use crate::placement::{most_central, place_aps, Ap};
use crate::route::{plan_route_avoiding_into, plan_route_into, search_avoiding, Survivors};
use crate::secure::{SecureState, TamperMode};
use crate::sim::{
    placeholder_header, simulate_delivery_faulted, DeliveryParams, DeliveryScratch, DetourScratch,
};
use citymesh_telemetry::{FlowSummary, TraceEvent};

/// Sub-stream domain for fault materialization (see [`crate::faults`]).
const DOMAIN_FAULTS: u64 = 0xFA17;

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
    require_finite(field, value)?;
    if (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(ConfigError::OutOfRange {
            field,
            value,
            min: 0.0,
            max: 1.0,
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
    /// Building-graph construction parameters.
    pub graph: BuildingGraphParams,
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
    /// Optional fault scenario (AP outages, blackouts, degradation,
    /// map staleness) plus the sender's recovery ladder. `None` — the
    /// default — is the healthy world and leaves every RNG stream and
    /// fleet digest untouched.
    pub faults: Option<FaultScenario>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            range_m: crate::DEFAULT_RANGE_M,
            m2_per_ap: crate::DEFAULT_M2_PER_AP,
            conduit_width_m: crate::DEFAULT_CONDUIT_WIDTH_M,
            graph: BuildingGraphParams::for_range(crate::DEFAULT_RANGE_M),
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
    /// scenarios. [`CityExperiment::try_prepare`] runs this before
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
        require_positive("graph.max_gap_m", self.graph.max_gap_m)?;
        require_finite("graph.weight_exponent", self.graph.weight_exponent)?;
        require_probability("reception_loss", self.reception_loss)?;
        if let Some(f) = &self.faults {
            f.validate()?;
        }
        Ok(())
    }
}

/// The deterministic, RNG-free part of one src→dst flow: the planned
/// route, its compressed waypoints, the header size, and the source
/// AP. Planning is a pure function of the prepared world, so a
/// `PlannedFlow` can be computed once and reused for every flow with
/// the same endpoints — this is what the fleet engine's shared route
/// cache stores.
#[derive(Clone, Debug)]
pub struct PlannedFlow {
    /// Source building.
    pub src: u32,
    /// Destination building.
    pub dst: u32,
    /// Ground truth: are the buildings connected through the AP graph?
    pub reachable: bool,
    /// Number of buildings on the planned route (0 when none).
    pub route_len: usize,
    /// Compressed waypoint buildings (empty when no route).
    pub waypoints: Vec<u32>,
    /// The conduit rectangles reconstructed from `waypoints` at the
    /// header's (decimeter-quantized) width — a pure function of
    /// (waypoints, width), so computing them once here lets every
    /// delivery simulation of this plan skip `reconstruct_conduits`,
    /// and the fleet's route cache amortizes them across all flows
    /// sharing the route. Empty when no route.
    pub conduits: Vec<OrientedRect>,
    /// Compressed source-route size in bits (0 when no route).
    pub route_bits: usize,
    /// The AP acting as the sender's uplink, when the source building
    /// has one.
    pub src_ap: Option<u32>,
    /// Ideal-unicast hop count from `src_ap` (ground truth), when
    /// reachable.
    pub ideal_hops: Option<u64>,
    /// The uncompressed primary route, kept only under a fault
    /// scenario: the lazy replan rung must compare its detour against
    /// the *route* (distinct routes can compress to identical
    /// waypoints, and the Replan-vs-Resend rung label feeds the fleet
    /// digest). Empty in the healthy world.
    replan_route: Vec<u32>,
    /// The designated site actually carrying the delivery when the
    /// destination's own postbox is dark and a [`crate::Deployment`]
    /// redirected the flow there (`None` otherwise — including always
    /// when no deployment is active, so the field is digest-inert for
    /// every pre-placement workload). `src`/`dst` keep the *requested*
    /// endpoints: they are the route-cache key, and cache invalidation
    /// reasons about them.
    redirect: Option<u32>,
    /// Retry-ladder geometry (widened conduits, replanned detour),
    /// materialized lazily the first time a simulation climbs to rung
    /// 3 — the healthy path, and every flow that delivers within two
    /// attempts, never pays for the ladder. The cell is interior
    /// mutability over a pure value *keyed by the fault-state epoch*:
    /// the replan detour depends on the current blocked set, so under
    /// world churn a plan kept across an epoch boundary transparently
    /// recomputes its ladder geometry on first escalation in the new
    /// epoch — making a cache-retained plan behaviorally identical to
    /// a freshly planned one. Concurrent workers may race to install a
    /// given epoch's variants, but every initializer computes the same
    /// value, so whichever wins is indistinguishable.
    recovery: RecoveryCell,
}

/// The epoch-keyed memo slot behind [`PlannedFlow::recovery`]: at most
/// one `(epoch, variants)` pair, replaced whenever a simulation
/// escalates under a newer fault-state epoch. Reads on the steady
/// state path are a lock-free-enough `RwLock` read + `Arc` clone —
/// both allocation-free, preserving the zero-alloc per-flow loop.
#[derive(Debug, Default)]
struct RecoveryCell(RwLock<Option<(u64, Arc<RecoveryVariants>)>>);

impl RecoveryCell {
    /// The memoized variants, if they were computed for `epoch`.
    fn get(&self, epoch: u64) -> Option<Arc<RecoveryVariants>> {
        match &*self.0.read().expect("recovery cell poisoned") {
            Some((e, rec)) if *e == epoch => Some(Arc::clone(rec)),
            _ => None,
        }
    }

    /// Installs `rec` for `epoch` unless a racing worker already did;
    /// returns whichever value ends up memoized (the values are equal
    /// by construction — recovery geometry is a pure function of the
    /// plan and the epoch's fault state).
    fn set(&self, epoch: u64, rec: Arc<RecoveryVariants>) -> Arc<RecoveryVariants> {
        let mut slot = self.0.write().expect("recovery cell poisoned");
        match &*slot {
            Some((e, cur)) if *e == epoch => Arc::clone(cur),
            _ => {
                *slot = Some((epoch, Arc::clone(&rec)));
                rec
            }
        }
    }

    /// Drops the memo (plan reuse across `(src, dst)` reassignment).
    fn clear(&self) {
        *self.0.write().expect("recovery cell poisoned") = None;
    }
}

impl Clone for RecoveryCell {
    fn clone(&self) -> Self {
        RecoveryCell(RwLock::new(
            self.0.read().expect("recovery cell poisoned").clone(),
        ))
    }
}

/// The retry ladder's precomputable geometry; see
/// [`PlannedFlow::recovery`].
#[derive(Clone, Debug, Default)]
struct RecoveryVariants {
    /// Width of the widened-conduit retry variant, meters (0 when the
    /// scenario's ladder never widens).
    wide_width_m: f64,
    /// Conduits of the widened variant: same waypoints, fatter
    /// rectangles, clamped to the header-encodable maximum.
    wide_conduits: Vec<OrientedRect>,
    /// Waypoints of the replanned detour around buildings with zero
    /// live APs (empty when the ladder never replans, the map is
    /// fresh, or no distinct detour exists).
    fallback_waypoints: Vec<u32>,
    /// Conduits of the replanned detour.
    fallback_conduits: Vec<OrientedRect>,
}

impl PlannedFlow {
    /// An empty, route-less plan for `src → dst` — the state
    /// [`CityExperiment::plan_flow_into`] starts from, and a buffer
    /// donor whose vectors it reuses.
    pub fn empty(src: u32, dst: u32) -> Self {
        PlannedFlow {
            src,
            dst,
            reachable: false,
            route_len: 0,
            waypoints: Vec::new(),
            conduits: Vec::new(),
            route_bits: 0,
            src_ap: None,
            ideal_hops: None,
            replan_route: Vec::new(),
            redirect: None,
            recovery: RecoveryCell::default(),
        }
    }

    /// Clears every field back to [`PlannedFlow::empty`] semantics
    /// while keeping the vector capacities for reuse.
    fn reset(&mut self, src: u32, dst: u32) {
        self.src = src;
        self.dst = dst;
        self.reachable = false;
        self.route_len = 0;
        self.waypoints.clear();
        self.conduits.clear();
        self.route_bits = 0;
        self.src_ap = None;
        self.ideal_hops = None;
        self.replan_route.clear();
        self.redirect = None;
        self.recovery.clear();
    }

    /// Whether planning produced a usable route.
    pub fn route_found(&self) -> bool {
        !self.waypoints.is_empty()
    }

    /// The uncompressed primary building route, kept only under a
    /// fault scenario (empty in the healthy world, where nothing needs
    /// it). The reactive-repair baseline walks this to locate the
    /// first blocked building after a failure notification.
    pub fn primary_route(&self) -> &[u32] {
        &self.replan_route
    }

    /// The building the route actually ends at: the designated
    /// fallback site when an active [`crate::Deployment`] redirected a
    /// dark destination's mail there, otherwise `dst` itself.
    pub fn delivery_dst(&self) -> u32 {
        self.redirect.unwrap_or(self.dst)
    }

    /// The designated site this flow was redirected to, when the
    /// destination's own postbox was dark under an active
    /// [`crate::Deployment`].
    pub fn redirect(&self) -> Option<u32> {
        self.redirect
    }
}

/// One src→dst delivery attempt, fully annotated.
#[derive(Clone, Debug, PartialEq)]
pub struct PairOutcome {
    /// Source building.
    pub src: u32,
    /// Destination building.
    pub dst: u32,
    /// Ground truth: are the buildings connected through the AP graph?
    pub reachable: bool,
    /// Did the building graph predict a route at all?
    pub route_found: bool,
    /// Number of buildings on the planned route (0 when none).
    pub route_len: usize,
    /// Number of waypoints after compression (0 when no route).
    pub waypoints: usize,
    /// Compressed source-route size in bits (0 when no route).
    pub route_bits: usize,
    /// Did the event simulation deliver the packet?
    pub delivered: bool,
    /// Broadcast count from the simulation.
    pub broadcasts: u64,
    /// Simulated first-delivery latency, when delivered.
    pub latency: Option<citymesh_simcore::SimTime>,
    /// Ideal-unicast hop count (ground truth), when reachable.
    pub ideal_hops: Option<u64>,
    /// Transmission overhead (broadcasts / ideal hops), when delivered.
    pub overhead: Option<f64>,
    /// Delivery attempts actually simulated: 1 in a fault-free run,
    /// up to [`RetryPolicy::max_attempts`] under faults, 0 when the
    /// flow never reached the simulator (no route or no live source
    /// AP).
    pub attempts: u32,
    /// The ladder rung that finally delivered, when delivery needed
    /// more than one attempt. `None` for first-try deliveries and for
    /// failures.
    pub recovered_by: Option<RecoveryStage>,
    /// Was the payload sealed under the secure message plane before
    /// transmission? Always `false` on the plaintext path
    /// ([`CityExperiment::simulate_flow_with`]).
    pub sealed: bool,
    /// Was the sealed payload delivered *and* opened successfully by
    /// the receiver (header tag and AEAD tag both verified)?
    pub opened: bool,
    /// Did receiver-side authentication fail (tampered header or
    /// ciphertext)? An auth failure forces `delivered: false` — a
    /// forged message is never a delivery.
    pub auth_failed: bool,
}

impl PairOutcome {
    /// The outcome of a planned flow nothing has simulated yet: the
    /// plan's fields copied over, zero attempts, not delivered.
    pub fn from_plan(plan: &PlannedFlow) -> Self {
        PairOutcome {
            src: plan.src,
            dst: plan.dst,
            reachable: plan.reachable,
            route_found: plan.route_found(),
            route_len: plan.route_len,
            waypoints: plan.waypoints.len(),
            route_bits: plan.route_bits,
            delivered: false,
            broadcasts: 0,
            latency: None,
            ideal_hops: plan.ideal_hops,
            overhead: None,
            attempts: 0,
            recovered_by: None,
            sealed: false,
            opened: false,
            auth_failed: false,
        }
    }
}

/// Aggregated per-city results.
#[derive(Clone, Debug)]
pub struct CityResult {
    /// City name.
    pub city: String,
    /// Building count.
    pub buildings: usize,
    /// AP count after placement.
    pub aps: usize,
    /// Mean AP-graph degree.
    pub mean_degree: f64,
    /// AP-graph connected components ("islands").
    pub components: usize,
    /// Fraction of sampled pairs reachable through the AP graph.
    pub reachability: f64,
    /// Fraction of simulated reachable pairs that were delivered.
    pub deliverability: f64,
    /// Median transmission overhead among delivered pairs.
    pub median_overhead: Option<f64>,
    /// Median first-delivery latency among delivered pairs, ms.
    pub median_latency_ms: Option<f64>,
    /// Median compressed-route size, bits.
    pub median_route_bits: Option<usize>,
    /// 90th-percentile compressed-route size, bits.
    pub p90_route_bits: Option<usize>,
    /// Every simulated pair, for deeper analysis.
    pub outcomes: Vec<PairOutcome>,
}

/// Reusable buffers for [`CityExperiment::plan_flow_into`]: the route
/// search scratch over the building graph, the ideal-hops search
/// scratch over the AP graph, the uncompressed-route buffer, and a
/// header used to probe route bits without allocating a waypoint vector
/// per plan. One scratch per worker; a warm scratch plans with zero
/// heap allocations.
#[derive(Clone, Debug)]
pub struct PlanScratch {
    search: PlannerScratch,
    hops: HopScratch,
    route: Vec<u32>,
    header: CityMeshHeader,
    /// Hierarchical-planner state, used only by
    /// [`CityExperiment::plan_flow_hier_into`]. Defaults empty, so
    /// flat-planning callers pay nothing for it.
    hier: HierPlanScratch,
}

impl PlanScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        PlanScratch {
            search: PlannerScratch::new(),
            hops: HopScratch::new(),
            route: Vec::new(),
            hier: HierPlanScratch::new(),
            header: placeholder_header(),
        }
    }

    /// Cumulative hierarchical-planner counters accumulated by this
    /// scratch — what the fleet engine folds into worker metrics.
    /// All-zero unless [`CityExperiment::plan_flow_hier_into`] ran.
    pub fn hier_stats(&self) -> citymesh_graph::HierStats {
        self.hier.stats()
    }

    /// Cumulative ideal-hops search counters accumulated by this
    /// scratch: one query per plan that found a route and a live source
    /// AP, and the APs those searches settled.
    pub fn hop_stats(&self) -> citymesh_graph::HopStats {
        self.hops.stats
    }
}

impl Default for PlanScratch {
    fn default() -> Self {
        Self::new()
    }
}

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

/// A prepared city: placement + graphs, ready to run pairs.
#[derive(Clone, Debug)]
pub struct CityExperiment {
    map: CityMap,
    aps: Vec<Ap>,
    apg: ApGraph,
    bg: BuildingGraph,
    config: ExperimentConfig,
    /// Materialized fault scenario, when the config carries one.
    /// Drawn serially at preparation time from a dedicated sub-stream
    /// of the seed, so it is identical no matter how many workers
    /// later share this experiment.
    faults: Option<FaultState>,
    /// Per-building postbox AP (closest AP to the centroid), healthy
    /// world — [`crate::placement::postbox_ap`]'s answer precomputed
    /// for every building so each plan does an O(1) lookup instead of
    /// an O(APs) scan.
    postbox: Vec<Option<u32>>,
    /// Per-building *live* postbox AP under the fault state (closest
    /// surviving AP); empty when no scenario is active. Rebuilt
    /// whenever the fault state changes.
    postbox_live: Vec<Option<u32>>,
    /// The fault state's dark buildings as every detour search reads
    /// them — dense blocked mask, surviving-component labels — `None`
    /// when no scenario is active. Rebuilt with the fault state and
    /// relabelled by a world event only when a building's blocked
    /// membership flips.
    survivors: Option<Survivors>,
    /// District-overlay planner, built on demand by
    /// [`CityExperiment::enable_hier`]. `None` means
    /// [`CityExperiment::plan_flow_hier_into`] is unavailable; the flat
    /// path never consults it.
    hier: Option<HierPlanner>,
    /// Active hardened-site deployment, installed by
    /// [`CityExperiment::set_deployment`]. `None` — the default —
    /// leaves every plan, RNG stream, and digest untouched.
    deployment: Option<Deployment>,
    /// Per-building nearest designated site (by centroid distance,
    /// lowest building id on ties) for the active deployment; empty
    /// when none. Consulted only for buildings whose own postbox is
    /// dark.
    fallback_site: Vec<Option<u32>>,
    /// Per-AP health as scenario materialization (plus any churn
    /// applied before the first deployment) drew it, captured the
    /// first time a deployment hardens a site so a later
    /// [`CityExperiment::set_deployment`] can restore a vacated
    /// site's APs to their un-hardened state.
    pristine_health: Option<Vec<ApHealth>>,
    /// Secure message plane, installed by
    /// [`CityExperiment::enable_encryption`]. `None` — the default —
    /// leaves every plan, RNG stream, and digest untouched; `Some`
    /// makes [`CityExperiment::simulate_flow_secure_with`] available.
    /// Behind an `Arc` so experiment clones (the stream engine's
    /// degraded twin) share one key registry and one warm session
    /// cache.
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
    /// [`crate::apply_bridges`] + [`crate::bridge::extend_placement`]).
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
        let bg = BuildingGraph::build(&map, config.graph);
        let faults = config.faults.map(|sc| {
            FaultState::materialize(&sc, &aps, &map, split_seed(config.seed, DOMAIN_FAULTS))
        });
        let postbox = postbox_table(&map, &aps, &apg, None);
        // Empty (no table) when no scenario is active.
        let postbox_live = faults
            .as_ref()
            .map_or_else(Vec::new, |f| postbox_table(&map, &aps, &apg, Some(f)));
        let survivors = faults.as_ref().map(|f| survivors_of(&bg, f));
        CityExperiment {
            map,
            aps,
            apg,
            bg,
            config,
            faults,
            postbox,
            postbox_live,
            survivors,
            hier: None,
            deployment: None,
            fallback_site: Vec::new(),
            pristine_health: None,
            secure: None,
        }
    }

    /// The materialized fault state, when the config carries a
    /// scenario.
    pub fn fault_state(&self) -> Option<&FaultState> {
        self.faults.as_ref()
    }

    /// The fault state's dark buildings in the form detour searches
    /// consult — [`crate::route::plan_route_avoiding_into`]'s mask and
    /// labels, current as of the last world event. `None` exactly when
    /// [`CityExperiment::fault_state`] is.
    pub fn survivors(&self) -> Option<&Survivors> {
        self.survivors.as_ref()
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
            self.aps.len(),
            "fault state covers {} APs but the experiment has {}",
            state.len(),
            self.aps.len()
        );
        self.postbox_live = postbox_table(&self.map, &self.aps, &self.apg, Some(&state));
        self.survivors = Some(survivors_of(&self.bg, &state));
        self.faults = Some(state);
        // A caller-built fault state supersedes any hardening a prior
        // deployment applied; drop the deployment so the world holds
        // exactly the state the caller handed in.
        self.deployment = None;
        self.fallback_site = Vec::new();
        self.pristine_health = None;
        self
    }

    /// Applies one churn event's materialized health changes to the
    /// live world and advances the fault-state epoch: per-AP health
    /// flips land first, then the derived per-building state — blocked
    /// set membership and live postbox AP — is refreshed for exactly
    /// the touched buildings (the incremental counterpart of the full
    /// `postbox_table` pass done at preparation time), and the
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
    /// a scenario — the null [`FaultScenario::default`] is enough — or
    /// attach one via [`CityExperiment::with_fault_state`]).
    pub fn apply_world_event(&mut self, changes: &[(u32, ApHealth)]) -> EpochTransition {
        let faults = self
            .faults
            .as_mut()
            .expect("apply_world_event requires a fault state; prepare with a scenario");
        let mut touched = Vec::new();
        let aps_changed = faults.apply_health(changes, &self.aps, &mut touched);
        for &b in &touched {
            faults.refresh_building(b, self.apg.aps_of_building(b));
            self.postbox_live[b as usize] =
                bucket_postbox(&self.map, &self.aps, &self.apg, Some(faults), b);
        }
        // Only an event that darkens or relights a whole building pays
        // the O(V + E) label pass.
        self.survivors
            .as_mut()
            .expect("built with the fault state")
            .update(
                &self.bg,
                touched.iter().map(|&b| (b, faults.building_blocked(b))),
            );
        let epoch = faults.advance_epoch();
        EpochTransition {
            epoch,
            aps_changed,
            touched_buildings: touched,
            fingerprint: faults.fingerprint(),
        }
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
                d.sites().iter().all(|&b| (b as usize) < self.map.len()),
                "deployment site outside the map"
            );
        }
        let mut changes: Vec<(u32, ApHealth)> = Vec::new();
        if let Some(st) = &self.faults {
            if self.pristine_health.is_none() {
                self.pristine_health = Some((0..st.len() as u32).map(|ap| st.health(ap)).collect());
            }
            let pristine = self.pristine_health.as_ref().expect("captured above");
            let old: &[u32] = self.deployment.as_ref().map(|d| d.sites()).unwrap_or(&[]);
            let new: &[u32] = deployment.as_ref().map(|d| d.sites()).unwrap_or(&[]);
            for &b in old {
                if new.binary_search(&b).is_err() {
                    for &ap in self.apg.aps_of_building(b) {
                        changes.push((ap, pristine[ap as usize]));
                    }
                }
            }
            for &b in new {
                if old.binary_search(&b).is_err() {
                    for &ap in self.apg.aps_of_building(b) {
                        changes.push((ap, ApHealth::Up));
                    }
                }
            }
        }
        let epoch = (!changes.is_empty()).then(|| self.apply_world_event(&changes));
        let old_fallback = std::mem::take(&mut self.fallback_site);
        self.deployment = deployment;
        self.fallback_site = match &self.deployment {
            Some(d) => fallback_site_table(&self.map, d.sites()),
            None => Vec::new(),
        };
        // Only destinations that are dark *now* consult the fallback
        // table; buildings whose liveness itself flipped are already in
        // the epoch transition's touched set.
        let mut retargeted = Vec::new();
        for b in 0..self.map.len() {
            let old_t = old_fallback.get(b).copied().flatten();
            let new_t = self.fallback_site.get(b).copied().flatten();
            if old_t != new_t && self.postbox_for(b as u32).is_none() {
                retargeted.push(b as u32);
            }
        }
        DeploymentTransition {
            epoch,
            changed_aps: changes.iter().map(|&(ap, _)| ap).collect(),
            retargeted_buildings: retargeted,
        }
    }

    /// The active hardened-site deployment, when one is installed.
    pub fn deployment(&self) -> Option<&Deployment> {
        self.deployment.as_ref()
    }

    /// The building's postbox AP in the world currently in effect:
    /// the live table under a fault state, the healthy table otherwise.
    fn postbox_for(&self, building: u32) -> Option<u32> {
        match &self.faults {
            Some(_) => self.postbox_live[building as usize],
            None => self.postbox[building as usize],
        }
    }

    /// Where mail addressed to `dst` is actually delivered: `dst`
    /// itself when its postbox is live (or no deployment is active),
    /// otherwise the nearest designated site of the active
    /// [`Deployment`]. Pure in the prepared world, so redirected plans
    /// remain cacheable by their requested `(src, dst)`.
    pub fn delivery_target(&self, dst: u32) -> u32 {
        if self.deployment.is_none() || self.postbox_for(dst).is_some() {
            return dst;
        }
        self.fallback_site[dst as usize].unwrap_or(dst)
    }

    /// The city map.
    pub fn map(&self) -> &CityMap {
        &self.map
    }

    /// The AP placement.
    pub fn aps(&self) -> &[Ap] {
        &self.aps
    }

    /// The ground-truth AP graph.
    pub fn ap_graph(&self) -> &ApGraph {
        &self.apg
    }

    /// The map-derived building graph.
    pub fn building_graph(&self) -> &BuildingGraph {
        &self.bg
    }

    /// Builds the district-overlay planner so
    /// [`CityExperiment::plan_flow_hier_into`] becomes available.
    /// This is the one-time prepare-phase cost of hierarchical
    /// planning (partitioning, border discovery, the per-district
    /// distance tables, overlay landmarks); queries afterwards
    /// allocate nothing. Idempotent in effect: rebuilding with the
    /// same params yields an identical planner.
    pub fn enable_hier(&mut self, params: &HierParams) {
        self.hier = Some(HierPlanner::build(&self.bg, params));
    }

    /// The district-overlay planner, when
    /// [`CityExperiment::enable_hier`] has run.
    pub fn hier_planner(&self) -> Option<&HierPlanner> {
        self.hier.as_ref()
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
        self.secure = Some(Arc::new(SecureState::new(self.config.seed, self.map.len())));
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
        let b = self.map.len() as u64;
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
        self.apg.buildings_reachable(src, dst)
    }

    /// The RNG-free planning half of a flow: route, compression,
    /// header size, source AP, and ideal-hops ground truth.
    ///
    /// Pure in the prepared world, so results are safely shareable
    /// across threads and cacheable by `(src, dst)`.
    /// Convenience wrapper over
    /// [`CityExperiment::plan_flow_into`] that allocates one-shot
    /// buffers; planner loops (and the fleet's cache-miss path) hold a
    /// [`PlanScratch`] and call `plan_flow_into` directly.
    pub fn plan_flow(&self, src: u32, dst: u32) -> PlannedFlow {
        let mut scratch = PlanScratch::new();
        let mut plan = PlannedFlow::empty(src, dst);
        self.plan_flow_into(src, dst, &mut scratch, &mut plan);
        plan
    }

    /// The RNG-free planning half of a flow against caller-owned
    /// buffers: resets `plan` and fills it in place, reusing both its
    /// vectors and `scratch`'s search state, so a warm caller plans
    /// with **zero heap allocations** (asserted by the counting
    /// allocator in `crates/fleet/tests/zero_alloc.rs`). Produces
    /// exactly the plan [`CityExperiment::plan_flow`] returns — the
    /// allocating entry point is a wrapper over this kernel.
    pub fn plan_flow_into(
        &self,
        src: u32,
        dst: u32,
        scratch: &mut PlanScratch,
        plan: &mut PlannedFlow,
    ) {
        self.plan_into(src, dst, None, scratch, plan);
    }

    /// Hierarchical counterpart of [`CityExperiment::plan_flow_into`]:
    /// identical plan semantics, but the route comes from the district
    /// overlay (sublinear in city size) instead of the flat ALT/A*
    /// search. Because hierarchical routes are cost-optimal with the
    /// same canonical tie-break, downstream state — compression,
    /// conduits, header bits — is computed by exactly the same code.
    ///
    /// Route-cache keys are unaffected: plans remain keyed by
    /// `(src, dst)` and the planner choice is engine configuration.
    ///
    /// # Panics
    /// Panics when [`CityExperiment::enable_hier`] has not run.
    pub fn plan_flow_hier_into(
        &self,
        src: u32,
        dst: u32,
        scratch: &mut PlanScratch,
        plan: &mut PlannedFlow,
    ) {
        let planner = self
            .hier
            .as_ref()
            .expect("plan_flow_hier_into requires CityExperiment::enable_hier");
        self.plan_into(src, dst, Some(planner), scratch, plan);
    }

    /// The body both planners share; only the router call differs
    /// (`hier: None` is the flat ALT/A* search).
    fn plan_into(
        &self,
        src: u32,
        dst: u32,
        hier: Option<&HierPlanner>,
        scratch: &mut PlanScratch,
        plan: &mut PlannedFlow,
    ) {
        plan.reset(src, dst);
        // Mail for a dark destination is carried to its nearest
        // designated site when a deployment is active; `target == dst`
        // always when none is (the pre-placement fast path).
        let target = self.delivery_target(dst);
        plan.redirect = (target != dst).then_some(target);
        plan.reachable = self.reachable(src, target);
        let faults = self.faults.as_ref();
        // Plan over the map the sender believes in: the cached
        // pre-disaster graph when the map is stale (the paper's
        // static-map assumption under stress), the surviving graph —
        // dark buildings avoided — when it is fresh.
        let fresh = faults.is_some_and(|f| !f.stale_map());
        let survivors = self.survivors.as_ref().filter(|_| fresh);
        let (bg, route) = (&self.bg, &mut scratch.route);
        let routed = match (hier, survivors) {
            (None, None) => plan_route_into(bg, src, target, &mut scratch.search, route).is_ok(),
            (None, Some(s)) => {
                plan_route_avoiding_into(bg, src, target, s, &mut scratch.search, route).is_ok()
            }
            (Some(h), None) => h
                .plan_route_into(bg, src, target, &mut scratch.hier, route)
                .is_ok(),
            (Some(h), Some(s)) => h
                .plan_route_avoiding_into(bg, src, target, s, &mut scratch.hier, route)
                .is_ok(),
        };
        if !routed {
            return;
        }
        // The planner-independent tail: compression, header probing,
        // source-AP lookup, ideal hops, conduit reconstruction.
        plan.route_len = scratch.route.len();
        compress_route_into(
            &self.bg,
            &scratch.route,
            self.config.conduit_width_m,
            &mut plan.waypoints,
        )
        .expect("config width validated at prepare time; route is non-empty");
        // Header size depends only on the waypoints and width; probe it
        // with a placeholder message id (route bits exclude the id).
        scratch
            .header
            .reuse_for(0, self.config.conduit_width_m, &plan.waypoints);
        plan.route_bits = scratch.header.route_bits();
        // Under faults the sender's uplink is the surviving postbox
        // AP: closest live AP to the centroid, `None` when the source
        // building is dark (the flow then fails cleanly, unsimulated).
        // Both lookups hit the tables precomputed at preparation time.
        plan.src_ap = match faults {
            Some(_) => self.postbox_live[src as usize],
            None => self.postbox[src as usize],
        };
        if let Some(src_ap) = plan.src_ap {
            plan.ideal_hops =
                self.apg
                    .ideal_hops_to_building_with(src_ap, target, &mut scratch.hops);
        }
        // Conduits are what every relaying AP reconstructs from the
        // header; using the header's round-tripped width keeps them
        // bit-identical to a relay-side reconstruction.
        reconstruct_conduits_into(
            &self.map,
            &plan.waypoints,
            scratch.header.conduit_width_m(),
            &mut plan.conduits,
        );
        // Keep the uncompressed route for the lazy replan rung's
        // detour comparison; the ladder geometry itself is deferred
        // until a simulation actually climbs that far.
        if faults.is_some() {
            plan.replan_route.extend_from_slice(&scratch.route);
        }
    }

    /// Materializes the retry ladder's geometry for `plan`, computing
    /// it at most once per plan *per fault-state epoch* (the result is
    /// memoized in the plan's [`RecoveryCell`], keyed by
    /// [`FaultState::epoch`]). Called lazily from the simulation loop
    /// the first time a flow escalates to rung 3, so plans that
    /// deliver within two attempts — and the entire healthy world —
    /// never pay for widened conduits or a replanned detour. Under
    /// churn, a plan kept in the route cache across an epoch boundary
    /// recomputes here on its first post-event escalation, because the
    /// replan detour depends on the *current* blocked set — this is
    /// what makes incremental cache invalidation digest-equal to a
    /// full flush.
    fn recovery_variants(
        &self,
        plan: &PlannedFlow,
        faults: &FaultState,
        detour: &mut DetourScratch,
    ) -> Arc<RecoveryVariants> {
        let epoch = faults.epoch();
        if let Some(rec) = plan.recovery.get(epoch) {
            return rec;
        }
        let rec = Arc::new(self.compute_recovery(plan, faults, detour));
        plan.recovery.set(epoch, rec)
    }

    /// The pure computation behind [`CityExperiment::recovery_variants`]:
    /// widen-rung conduits and the replan-rung detour for `plan` under
    /// the current fault state. Everything transient lives in `d`; the
    /// only allocations are the vectors the memo keeps, each made at
    /// its final size.
    fn compute_recovery(
        &self,
        plan: &PlannedFlow,
        faults: &FaultState,
        d: &mut DetourScratch,
    ) -> RecoveryVariants {
        d.stats.materialized += 1;
        let mut rec = RecoveryVariants::default();
        let policy = faults.retry();
        let conduits_at = |waypoints: &[u32], width_m: f64| {
            let mut out = Vec::with_capacity(waypoints.len().saturating_sub(1).max(1));
            reconstruct_conduits_into(&self.map, waypoints, width_m, &mut out);
            out
        };
        // Widen rung: same waypoints, fatter conduits, clamped to
        // the header-encodable width.
        if policy.max_attempts >= 3 && policy.widen_factor > 1.0 {
            let w = (self.config.conduit_width_m * policy.widen_factor).min(MAX_CONDUIT_WIDTH_M);
            d.header.reuse_for(0, w, &plan.waypoints);
            rec.wide_width_m = d.header.conduit_width_m();
            rec.wide_conduits = conduits_at(&plan.waypoints, rec.wide_width_m);
        }
        // Replan rung: detour around buildings with zero live APs.
        // Only meaningful when the primary plan was drawn on a
        // stale map and a genuinely different detour survives. The
        // comparison runs against the *uncompressed* primary route
        // the plan kept for exactly this purpose.
        let survivors = self.survivors.as_ref().expect("built with the fault state");
        if policy.max_attempts >= 4 && faults.stale_map() && !survivors.blocked().is_empty() {
            let (src, dst) = (plan.src, plan.delivery_dst());
            // A destination walled in by dark buildings is the common
            // failure here, and a search only learns it by exhausting
            // the source's whole surviving island.
            if !survivors.connects(&self.bg, src, dst) {
                d.stats.rejected_by_labels += 1;
                return rec;
            }
            d.stats.searches += 1;
            let found = search_avoiding(&self.bg, src, dst, survivors, &mut d.search, &mut d.route);
            if found.is_err() || d.route == plan.replan_route {
                return rec;
            }
            let width = self.config.conduit_width_m;
            if compress_route_into(&self.bg, &d.route, width, &mut d.waypoints).is_err() {
                return rec;
            }
            d.header.reuse_for(0, width, &d.waypoints);
            rec.fallback_conduits = conduits_at(&d.waypoints, d.header.conduit_width_m());
            rec.fallback_waypoints = d.waypoints.clone();
        }
        rec
    }

    /// The stochastic half of a flow: drives the event simulation over
    /// an existing plan and scores the outcome.
    ///
    /// Convenience wrapper around [`CityExperiment::simulate_flow_with`]
    /// that allocates a one-shot [`DeliveryScratch`]; loops should hold
    /// a scratch and call `simulate_flow_with` directly.
    ///
    /// `run_pair` is `plan_flow` + `simulate_flow`; the fleet engine
    /// calls them separately so hotspot destinations replan once.
    pub fn simulate_flow(&self, plan: &PlannedFlow, msg_id: u64, rng: &mut SimRng) -> PairOutcome {
        let mut scratch = DeliveryScratch::new();
        self.simulate_flow_with(plan, msg_id, rng, &mut scratch)
    }

    /// [`CityExperiment::simulate_flow`] against caller-owned scratch
    /// state: the allocation-free steady-state path the fleet engine
    /// runs with one scratch per worker. Reuses the scratch's header
    /// (only the message id varies per flow) and the plan's cached
    /// conduits, so a warmed scratch executes a flow with zero heap
    /// allocations. Bit-identical to `simulate_flow`.
    ///
    /// Under a fault scenario this is also where graceful degradation
    /// happens: a failed delivery escalates through the scenario's
    /// [`RetryPolicy`] ladder — re-send, widened conduit, replanned
    /// detour — each rung riding geometry the plan precomputed, so
    /// retries stay on the zero-allocation path. Each failed attempt
    /// charges one full delivery horizon of latency (the sender only
    /// learns of failure at its timeout).
    ///
    /// When the scratch was built with tracing
    /// ([`DeliveryScratch::with_tracing`]) this is also the flow
    /// tracer's driver: it opens the flow (keyed by `msg_id` unless
    /// the caller pre-set a key), records the plan and every ladder
    /// attempt, and closes the flow with its outcome — all observation
    /// only, so results and RNG draws are bit-identical with tracing
    /// on or off.
    pub fn simulate_flow_with(
        &self,
        plan: &PlannedFlow,
        msg_id: u64,
        rng: &mut SimRng,
        scratch: &mut DeliveryScratch,
    ) -> PairOutcome {
        scratch.tracer.begin_flow(msg_id);
        scratch.tracer.record(TraceEvent::Plan {
            src: plan.src,
            dst: plan.dst,
            route_len: plan.route_len as u32,
            waypoints: plan.waypoints.len() as u32,
            route_bits: plan.route_bits as u32,
            conduits: plan.conduits.len() as u32,
        });
        let mut outcome = PairOutcome::from_plan(plan);
        if !plan.route_found() {
            finish_flow_trace(scratch, &outcome);
            return outcome;
        }
        let Some(src_ap) = plan.src_ap else {
            finish_flow_trace(scratch, &outcome);
            return outcome;
        };
        let faults = self.faults.as_ref();
        let policy = faults.map(|f| f.retry()).unwrap_or_else(RetryPolicy::none);
        let params = DeliveryParams {
            scope: self.config.scope,
            reception_loss: self.config.reception_loss,
            ..DeliveryParams::default()
        };
        // Borrow juggling: the kernel needs `&mut scratch` while
        // reading the header, so lift the header out (the placeholder
        // left behind owns no heap memory) and restore it after.
        let mut header = std::mem::replace(&mut scratch.header, placeholder_header());
        let mut attempts = 0u32;
        let mut total_broadcasts = 0u64;
        let mut penalty = SimTime::ZERO;
        // Holds the plan's ladder geometry across the borrow into the
        // rung-selection match: `recovery_variants` hands back an
        // `Arc`, and the chosen conduit slice must outlive the match.
        let mut rec_holder: Option<Arc<RecoveryVariants>> = None;
        loop {
            attempts += 1;
            // Rung selection: 1 → first send, 2 → re-send, 3 → widen,
            // 4+ → replan; rungs without geometry degrade to a re-send
            // so the ladder is always bounded by `max_attempts`.
            // Reaching rung 3 is what materializes the lazy ladder
            // geometry; attempts only exceed 1 under a fault scenario,
            // so `faults` is always present here.
            let resend = || {
                (
                    RecoveryStage::Resend,
                    &plan.waypoints[..],
                    &plan.conduits[..],
                    self.config.conduit_width_m,
                )
            };
            let (stage, waypoints, conduits, width): (RecoveryStage, &[u32], &[OrientedRect], f64) =
                match (attempts, faults) {
                    (1, _) => (
                        RecoveryStage::First,
                        &plan.waypoints,
                        &plan.conduits,
                        self.config.conduit_width_m,
                    ),
                    (3, Some(f)) => {
                        let rec = self.recovery_variants(plan, f, &mut scratch.detour);
                        let rec = rec_holder.insert(rec);
                        if rec.wide_conduits.is_empty() {
                            resend()
                        } else {
                            (
                                RecoveryStage::Widen,
                                &plan.waypoints,
                                &rec.wide_conduits,
                                rec.wide_width_m,
                            )
                        }
                    }
                    (n, Some(f)) if n >= 4 => {
                        let rec = self.recovery_variants(plan, f, &mut scratch.detour);
                        let rec = rec_holder.insert(rec);
                        if rec.fallback_conduits.is_empty() {
                            resend()
                        } else {
                            (
                                RecoveryStage::Replan,
                                &rec.fallback_waypoints,
                                &rec.fallback_conduits,
                                self.config.conduit_width_m,
                            )
                        }
                    }
                    _ => resend(),
                };
            header.reuse_for(msg_id, width, waypoints);
            scratch.tracer.record(TraceEvent::Attempt {
                attempt: attempts,
                rung: stage.rung(),
                width_dm: u32::from(header.conduit_width_dm),
                conduits: conduits.len() as u32,
            });
            let (delivered, first_delivery, broadcasts) = {
                let report = simulate_delivery_faulted(
                    &self.map, &self.apg, &header, conduits, src_ap, params, faults, rng, scratch,
                );
                (report.delivered, report.first_delivery, report.broadcasts)
            };
            total_broadcasts += broadcasts;
            if delivered {
                outcome.delivered = true;
                outcome.latency = first_delivery.map(|t| penalty + t);
                if attempts > 1 {
                    outcome.recovered_by = Some(stage);
                }
                break;
            }
            scratch.tracer.record(TraceEvent::AttemptFailed {
                attempt: attempts,
                broadcasts,
            });
            if attempts >= policy.max_attempts {
                break;
            }
            penalty += params.horizon;
        }
        outcome.attempts = attempts;
        outcome.broadcasts = total_broadcasts;
        outcome.overhead = crate::sim::OverheadOutcome::measure(
            outcome.delivered,
            total_broadcasts,
            plan.ideal_hops,
        )
        .value();
        scratch.header = header;
        finish_flow_trace(scratch, &outcome);
        outcome
    }

    /// [`CityExperiment::simulate_flow_with`] over the secure message
    /// plane: the payload is sealed under the per-pair session key
    /// (ChaCha20-Poly1305, nonce from the message id) with an
    /// HMAC-authenticated header before the delivery simulation, and
    /// opened + verified by the receiver afterwards.
    ///
    /// **Delivery outcomes are unchanged.** Sealing draws no
    /// randomness — the payload is a pure function of the message id,
    /// the session key a pure function of the pair — so `delivered`,
    /// `broadcasts`, `latency`, and every other plaintext field is
    /// bit-identical to the plaintext path. Encryption adds *work*
    /// (one ECDH + HKDF per pair, amortized by the session cache, plus
    /// symmetric sealing per message) and the three secure outcome
    /// fields (`sealed` / `opened` / `auth_failed`).
    ///
    /// Steady state stays allocation-free: a cache hit is a shard read
    /// plus an `Arc` clone, sealing reuses the scratch's warmed
    /// buffers, and only the per-pair derivation (the amortized cost)
    /// allocates.
    ///
    /// # Panics
    /// Panics when [`CityExperiment::enable_encryption`] has not run —
    /// engines gate on their config's `encrypted` knob and validate
    /// before any worker spawns.
    pub fn simulate_flow_secure_with(
        &self,
        plan: &PlannedFlow,
        msg_id: u64,
        rng: &mut SimRng,
        scratch: &mut DeliveryScratch,
    ) -> PairOutcome {
        self.simulate_flow_secure_tampered(plan, msg_id, rng, scratch, None)
    }

    /// [`CityExperiment::simulate_flow_secure_with`] with adversarial
    /// fault injection: `tamper` corrupts the message between seal and
    /// receiver-side open, exactly where an on-path adversary could.
    /// A tampered flow that the simulation delivered must come back
    /// `auth_failed: true, delivered: false` — a forged message is
    /// never a delivery. `tamper: None` is the production path.
    pub fn simulate_flow_secure_tampered(
        &self,
        plan: &PlannedFlow,
        msg_id: u64,
        rng: &mut SimRng,
        scratch: &mut DeliveryScratch,
        tamper: Option<TamperMode>,
    ) -> PairOutcome {
        let secure = self
            .secure
            .as_ref()
            .expect("CityExperiment::simulate_flow_secure_with requires enable_encryption");
        // Sender side: session key from the sharded cache (the
        // derivation — ECDH + HKDF — runs once per pair), then seal
        // the deterministic payload and authenticate the header.
        let (key, derived) = secure.session(plan.src, plan.dst);
        if derived {
            scratch.keys_derived += 1;
        }
        fill_secure_payload(msg_id, &mut scratch.payload);
        let aad = secure_header(plan.src, plan.dst, msg_id, plan.route_bits);
        key.seal_into(msg_id, &aad, &scratch.payload, &mut scratch.sealed_buf);
        let header_tag = key.header_tag(&aad);

        // The delivery simulation is byte-identical to the plaintext
        // path: sealing added work, not randomness.
        let mut outcome = self.simulate_flow_with(plan, msg_id, rng, scratch);
        outcome.sealed = true;
        if !outcome.delivered {
            // Nothing arrived; there is nothing to open (or forge).
            return outcome;
        }

        // Receiver side: verify the header tag, then open. Tamper
        // injection corrupts what the receiver sees, never what the
        // sender computed.
        let mut rx_header = aad;
        match tamper {
            Some(TamperMode::Header) => rx_header[0] ^= 0x01,
            Some(TamperMode::Ciphertext) => {
                if let Some(byte) = scratch.sealed_buf.first_mut() {
                    *byte ^= 0x01;
                }
            }
            None => {}
        }
        let header_ok = key.verify_header(&rx_header, &header_tag);
        let opened = header_ok
            && key
                .open_into(
                    msg_id,
                    &rx_header,
                    &scratch.sealed_buf,
                    &mut scratch.opened_buf,
                )
                .is_ok();
        if opened {
            debug_assert_eq!(
                scratch.opened_buf, scratch.payload,
                "AEAD round trip must reproduce the payload"
            );
            outcome.opened = true;
        } else {
            // Authentication failed: the transport delivered bytes,
            // but they are not the sender's message. Explicitly not a
            // delivery.
            outcome.auth_failed = true;
            outcome.delivered = false;
            outcome.latency = None;
            outcome.overhead = None;
            outcome.recovered_by = None;
        }
        outcome
    }

    /// Plans, compresses, simulates, and scores one pair.
    pub fn run_pair(&self, src: u32, dst: u32, msg_id: u64, rng: &mut SimRng) -> PairOutcome {
        let plan = self.plan_flow(src, dst);
        self.simulate_flow(&plan, msg_id, rng)
    }

    /// The full §4 evaluation for this city.
    pub fn run(&self) -> CityResult {
        let cfg = &self.config;
        let mut pair_rng = SimRng::new(split_seed(cfg.seed, 0x9A195));
        let mut sim_rng = SimRng::new(split_seed(cfg.seed, 0xDE11FE7));

        // Reachability over many pairs (graph query only: cheap).
        let pairs = self.sample_pairs(cfg.reachability_pairs, &mut pair_rng);
        let reachable_pairs: Vec<(u32, u32)> = pairs
            .iter()
            .copied()
            .filter(|(s, d)| self.reachable(*s, *d))
            .collect();
        let reachability = if pairs.is_empty() {
            0.0
        } else {
            reachable_pairs.len() as f64 / pairs.len() as f64
        };

        // Deliverability over a subset of reachable pairs (event sim:
        // expensive), exactly as the paper does.
        let mut outcomes = Vec::new();
        for (i, (src, dst)) in reachable_pairs.iter().take(cfg.delivery_pairs).enumerate() {
            let msg_id = split_seed(cfg.seed, 0x5EED ^ i as u64);
            outcomes.push(self.run_pair(*src, *dst, msg_id, &mut sim_rng));
        }

        let delivered: Vec<&PairOutcome> = outcomes.iter().filter(|o| o.delivered).collect();
        let deliverability = if outcomes.is_empty() {
            0.0
        } else {
            delivered.len() as f64 / outcomes.len() as f64
        };

        let mut overheads: Vec<f64> = delivered.iter().filter_map(|o| o.overhead).collect();
        overheads.sort_by(|a, b| a.partial_cmp(b).expect("finite overheads"));
        let mut latencies: Vec<f64> = delivered
            .iter()
            .filter_map(|o| o.latency.map(|t| t.as_millis_f64()))
            .collect();
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let mut bits: Vec<usize> = outcomes
            .iter()
            .filter(|o| o.route_found)
            .map(|o| o.route_bits)
            .collect();
        bits.sort_unstable();

        CityResult {
            city: self.map.name().to_string(),
            buildings: self.map.len(),
            aps: self.aps.len(),
            mean_degree: self.apg.mean_degree(),
            components: self.apg.num_components(),
            reachability,
            deliverability,
            median_overhead: percentile_f(&overheads, 0.5),
            median_latency_ms: percentile_f(&latencies, 0.5),
            median_route_bits: percentile_u(&bits, 0.5),
            p90_route_bits: percentile_u(&bits, 0.9),
            outcomes,
        }
    }
}

/// The postbox AP of `building`: its AP closest to the centroid,
/// among those `faults` leaves alive when a fault state is given.
/// Equal to [`crate::placement::postbox_ap`] /
/// [`FaultState::postbox_ap_live`], but read from the AP graph's
/// building→AP bucket — O(APs of the building), not O(APs of the city);
/// buckets hold ids ascending, so an exact tie elects the same AP the
/// whole-placement scans do.
fn bucket_postbox(
    map: &CityMap,
    aps: &[Ap],
    apg: &ApGraph,
    faults: Option<&FaultState>,
    building: u32,
) -> Option<u32> {
    let centroid = map.building(building)?.centroid;
    let bucket = apg.aps_of_building(building).iter();
    most_central(
        bucket
            .map(|&id| &aps[id as usize])
            .filter(|ap| !faults.is_some_and(|f| f.is_failed(ap.id))),
        centroid,
    )
}

/// [`bucket_postbox`] for every building: one O(APs) pass at
/// preparation time replaces a scan per planned flow.
fn postbox_table(
    map: &CityMap,
    aps: &[Ap],
    apg: &ApGraph,
    faults: Option<&FaultState>,
) -> Vec<Option<u32>> {
    (0..map.len() as u32)
        .map(|b| bucket_postbox(map, aps, apg, faults, b))
        .collect()
}

/// The detour searches' view of `faults`' dark buildings: one O(V + E)
/// pass whenever a fault state is installed.
fn survivors_of(bg: &BuildingGraph, faults: &FaultState) -> Survivors {
    Survivors::new(bg, faults.blocked_buildings().iter().copied())
}

/// Precomputes each building's nearest designated site by centroid
/// distance (lowest site id on exact ties — sites are iterated in
/// sorted order). A building that is itself a site maps to itself, so
/// a redirect through the table is a no-op for hardened buildings.
fn fallback_site_table(map: &CityMap, sites: &[u32]) -> Vec<Option<u32>> {
    (0..map.len())
        .map(|b| {
            let here = map.buildings()[b].centroid;
            let mut best: Option<(f64, u32)> = None;
            for &s in sites {
                let c = map.buildings()[s as usize].centroid;
                let d2 = (c.x - here.x).powi(2) + (c.y - here.y).powi(2);
                if best.map(|(bd, _)| d2 < bd).unwrap_or(true) {
                    best = Some((d2, s));
                }
            }
            best.map(|(_, s)| s)
        })
        .collect()
}

/// Bytes of deterministic payload every sealed flow carries.
const SECURE_PAYLOAD_LEN: usize = 64;

/// Fills `out` with the flow's deterministic payload: a SplitMix64
/// expansion of the message id. A pure function of `msg_id` — crucially
/// **not** a draw from the flow's simulation RNG stream, so enabling
/// encryption leaves every delivery outcome bit-identical, and a warm
/// (cached-session) run reproduces a cold run exactly.
fn fill_secure_payload(msg_id: u64, out: &mut Vec<u8>) {
    out.clear();
    let mut x = msg_id;
    for _ in 0..SECURE_PAYLOAD_LEN / 8 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        out.extend_from_slice(&z.to_le_bytes());
    }
}

/// The authenticated header bytes: the flow's identity and routing
/// commitment `(src, dst, msg_id, route_bits)`, fixed-size so the hot
/// path builds it on the stack. Doubles as the AEAD's associated data,
/// binding ciphertext to header — swapping either between flows fails
/// authentication.
fn secure_header(src: u32, dst: u32, msg_id: u64, route_bits: usize) -> [u8; 24] {
    let mut header = [0u8; 24];
    header[..4].copy_from_slice(&src.to_le_bytes());
    header[4..8].copy_from_slice(&dst.to_le_bytes());
    header[8..16].copy_from_slice(&msg_id.to_le_bytes());
    header[16..].copy_from_slice(&(route_bits as u64).to_le_bytes());
    header
}

/// Closes the scratch's active flow trace with the outcome's summary
/// (a branch-only no-op when tracing is off or inactive).
fn finish_flow_trace(scratch: &mut DeliveryScratch, outcome: &PairOutcome) {
    scratch.tracer.finish_flow(FlowSummary {
        src: outcome.src,
        dst: outcome.dst,
        delivered: outcome.delivered,
        attempts: outcome.attempts,
        recovered_by: outcome.recovered_by.map(|s| s.rung()),
        broadcasts: outcome.broadcasts,
        latency_ns: outcome.latency.map(|t| t.as_nanos()),
    });
}

fn percentile_f(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    Some(sorted[idx])
}

fn percentile_u(sorted: &[usize], q: f64) -> Option<usize> {
    if sorted.is_empty() {
        return None;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    Some(sorted[idx])
}

#[cfg(test)]
mod tests {
    use super::*;
    use citymesh_map::CityArchetype;

    fn small_config(seed: u64) -> ExperimentConfig {
        ExperimentConfig {
            reachability_pairs: 200,
            delivery_pairs: 10,
            seed,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn downtown_run_has_high_reachability_and_deliverability() {
        let map = CityArchetype::SurveyDowntown.generate(1);
        let exp = CityExperiment::prepare(map, small_config(1));
        let result = exp.run();
        assert!(
            result.reachability > 0.9,
            "downtown reachability {}",
            result.reachability
        );
        assert!(
            result.deliverability > 0.7,
            "downtown deliverability {}",
            result.deliverability
        );
        assert_eq!(result.outcomes.len(), 10);
        let overhead = result.median_overhead.expect("some deliveries succeeded");
        assert!(
            overhead > 1.0 && overhead < 60.0,
            "overhead {overhead} out of plausible range"
        );
        let bits = result.median_route_bits.unwrap();
        assert!(
            (40..600).contains(&bits),
            "median route bits {bits} out of plausible range"
        );
    }

    #[test]
    fn river_city_fractures() {
        let map = CityArchetype::SurveyRiver.generate(2);
        let exp = CityExperiment::prepare(map, small_config(2));
        let result = exp.run();
        assert!(result.components > 1, "the river must split the AP graph");
        assert!(
            result.reachability < 0.95,
            "cross-river pairs should be unreachable, got {}",
            result.reachability
        );
    }

    #[test]
    fn results_are_deterministic_in_seed() {
        let map = CityArchetype::SurveyResidential.generate(3);
        let a = CityExperiment::prepare(map.clone(), small_config(7)).run();
        let b = CityExperiment::prepare(map, small_config(7)).run();
        assert_eq!(a.reachability, b.reachability);
        assert_eq!(a.deliverability, b.deliverability);
        assert_eq!(a.aps, b.aps);
        assert_eq!(a.outcomes.len(), b.outcomes.len());
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.broadcasts, y.broadcasts);
            assert_eq!(x.delivered, y.delivered);
        }
    }

    #[test]
    fn different_seed_changes_placement() {
        let map = CityArchetype::SurveyResidential.generate(3);
        let a = CityExperiment::prepare(map.clone(), small_config(7));
        let b = CityExperiment::prepare(map, small_config(8));
        assert_ne!(a.aps()[0].pos, b.aps()[0].pos);
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
    fn percentiles() {
        assert_eq!(percentile_f(&[], 0.5), None);
        assert_eq!(percentile_f(&[1.0], 0.5), Some(1.0));
        assert_eq!(percentile_f(&[1.0, 2.0, 3.0], 0.5), Some(2.0));
        assert_eq!(
            percentile_u(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100], 0.9),
            Some(90)
        );
    }

    #[test]
    fn tracing_is_invisible_and_captures_complete_traces() {
        use citymesh_telemetry::TraceConfig;
        let map = CityArchetype::SurveyDowntown.generate(5);
        let exp = CityExperiment::prepare(map, small_config(5));
        let mut pair_rng = SimRng::new(11);
        let pairs = exp.sample_pairs(6, &mut pair_rng);
        let mut plain = DeliveryScratch::new();
        let mut traced = DeliveryScratch::with_tracing(TraceConfig::sampled(1));
        for (i, (src, dst)) in pairs.iter().enumerate() {
            let plan = exp.plan_flow(*src, *dst);
            let msg_id = 1000 + i as u64;
            let mut rng_a = SimRng::new(40 + i as u64);
            let mut rng_b = SimRng::new(40 + i as u64);
            let a = exp.simulate_flow_with(&plan, msg_id, &mut rng_a, &mut plain);
            let b = exp.simulate_flow_with(&plan, msg_id, &mut rng_b, &mut traced);
            assert_eq!(a, b, "tracing must not change outcomes");
        }
        // sample_every=1 captures every flow; each trace opens with the
        // plan and its summary mirrors the outcome structure.
        let pms = traced.tracer_mut().take_postmortems();
        assert_eq!(pms.len(), pairs.len());
        for pm in &pms {
            assert!(
                matches!(pm.events.first(), Some(TraceEvent::Plan { .. })),
                "trace must open with the plan"
            );
            if pm.summary.delivered {
                assert!(pm
                    .events
                    .iter()
                    .any(|e| matches!(e, TraceEvent::Delivered { .. })));
            }
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
        let assert_tables = |exp: &CityExperiment| {
            let st = exp.fault_state().unwrap();
            for b in 0..exp.map().len() as u32 {
                let (aps, map) = (exp.aps(), exp.map());
                assert_eq!(exp.postbox[b as usize], postbox_ap(aps, map, b));
                assert_eq!(
                    exp.postbox_live[b as usize],
                    st.postbox_ap_live(aps, map, b)
                );
            }
        };
        assert_tables(&exp);
        // The per-touched-building refresh: fail the live postbox of
        // every fifth building, then bring a dark building's APs up.
        let mut changes: Vec<(u32, ApHealth)> = (0..exp.map().len())
            .step_by(5)
            .filter_map(|b| exp.postbox_live[b])
            .map(|ap| (ap, ApHealth::Failed))
            .collect();
        let dark = (0..exp.map().len() as u32)
            .find(|&b| exp.postbox[b as usize].is_some() && exp.postbox_live[b as usize].is_none())
            .expect("the blackout darkens a building");
        for &ap in exp.ap_graph().aps_of_building(dark) {
            changes.push((ap, ApHealth::Up));
        }
        exp.apply_world_event(&changes);
        assert!(exp.postbox_live[dark as usize].is_some());
        assert_tables(&exp);
        // A caller-built fault state rebuilds the live table whole.
        let failed: Vec<u32> = exp.postbox.iter().step_by(3).flatten().copied().collect();
        let state = FaultState::with_failed(exp.aps(), exp.map(), &failed, RetryPolicy::default());
        let exp = exp.with_fault_state(state);
        assert_tables(&exp);
    }

    #[test]
    fn survivors_after_world_events_equal_a_rebuild() {
        let map = CityArchetype::SurveyDowntown.generate(8);
        let cfg = ExperimentConfig {
            faults: Some(FaultScenario::district_blackouts(1, 140.0)),
            ..small_config(8)
        };
        let mut exp = CityExperiment::prepare(map, cfg);
        let assert_rebuilt = |exp: &CityExperiment| {
            let rebuilt = survivors_of(&exp.bg, exp.fault_state().unwrap());
            assert!(exp.survivors() == Some(&rebuilt), "stale mask or labels");
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
        // An event that darkens and relights nothing leaves them alone.
        let before = exp.survivors().cloned();
        let live = exp.postbox_live.iter().flatten().next().expect("a live AP");
        exp.apply_world_event(&[(*live, ApHealth::Degraded)]);
        assert!(exp.survivors() == before.as_ref());
        // A caller-built fault state rebuilds them whole.
        let failed: Vec<u32> = exp.postbox.iter().step_by(3).flatten().copied().collect();
        let state = FaultState::with_failed(exp.aps(), exp.map(), &failed, RetryPolicy::default());
        assert_rebuilt(&exp.with_fault_state(state));
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

    #[test]
    fn outcome_fields_are_coherent() {
        let map = CityArchetype::SurveyDowntown.generate(5);
        let exp = CityExperiment::prepare(map, small_config(5));
        let result = exp.run();
        for o in &result.outcomes {
            assert!(o.reachable, "only reachable pairs are simulated");
            if o.delivered {
                assert!(o.route_found);
                assert!(o.broadcasts > 0);
                assert!(o.waypoints >= 1 && o.waypoints <= o.route_len);
                assert!(o.route_bits > 0);
            }
            if let Some(ov) = o.overhead {
                assert!(ov >= 1.0, "cannot beat the ideal unicast: {ov}");
            }
        }
    }
}
