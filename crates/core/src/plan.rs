//! Planning: the deterministic, RNG-free half of a flow.
//!
//! A [`PlannedFlow`] is a pure function of the prepared world
//! ([`crate::world`]) and the endpoints — route, compressed waypoints,
//! conduits and the buildings they cover, header size, source AP, ideal
//! hops — so engines cache it by `(src, dst)`. The retry ladder's extra
//! geometry (the buildings widened conduits and a replanned detour
//! cover) belongs to the flow: each rung builds it in the worker's
//! scratch when a simulation ([`crate::flow`]) first climbs that far.

use citymesh_geo::OrientedRect;
use citymesh_graph::{HopScratch, PlannerScratch};
use citymesh_map::CityMap;
use citymesh_net::{CityMeshHeader, MAX_CONDUIT_WIDTH_M};

use crate::buildgraph::BuildingGraph;
use crate::conduit::{compress_route_into, reconstruct_conduits_into, CoveredSet};
use crate::faults::WIDEN_FACTOR;
use crate::hier::{HierPlanScratch, HierPlanner};
use crate::route::{
    avoid_dark_counted, plan_route_counted, splice_around_dark, RouteStats, Survivors,
};
use crate::sim::{placeholder_header, DetourScratch};
use crate::world::CityExperiment;

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
    /// The buildings `conduits` cover, computed with them by the
    /// planner (see [`PlannedFlow::covered`]).
    covered: CoveredSet,
    /// Whether the planner computed `covered` for these conduits.
    /// False for a plan assembled field by field: a set nobody computed
    /// is not one that covers nothing.
    covered_computed: bool,
    /// Compressed source-route size in bits (0 when no route).
    pub route_bits: usize,
    /// The AP acting as the sender's uplink, when the source building
    /// has one.
    pub src_ap: Option<u32>,
    /// Ideal-unicast hop count from `src_ap` (ground truth), when
    /// reachable.
    pub ideal_hops: Option<u64>,
    /// The uncompressed primary route, kept only under a fault
    /// scenario: the replan rung must compare its detour against
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
            covered: CoveredSet::default(),
            covered_computed: false,
            route_bits: 0,
            src_ap: None,
            ideal_hops: None,
            replan_route: Vec::new(),
            redirect: None,
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
        self.covered_computed = false;
        self.route_bits = 0;
        self.src_ap = None;
        self.ideal_hops = None;
        self.replan_route.clear();
        self.redirect = None;
    }

    /// Whether planning produced a usable route.
    pub fn route_found(&self) -> bool {
        !self.waypoints.is_empty()
    }

    /// The buildings whose centroid lies in one of
    /// [`conduits`](Self::conduits) — under building scope every
    /// building's relay verdict — computed once by the planner right
    /// after the conduits, so that every flow over the plan reads them
    /// instead of testing each building it reaches. `None` for a plan
    /// that did not come from the planner (or found no route): a flow
    /// over it computes the set from `conduits` itself.
    pub fn covered(&self) -> Option<&CoveredSet> {
        self.covered_computed.then_some(&self.covered)
    }

    /// The uncompressed primary building route, kept only under a
    /// fault scenario (empty in the healthy world, where nothing needs
    /// it). Local repair walks it to find the first dark building after
    /// a failed send.
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

/// Reusable buffers for [`CityExperiment::plan_flow_into`]: the route
/// search scratch over the building graph, the ideal-hops search
/// scratch over the AP graph, the uncompressed-route buffer, and a
/// header used to probe route bits without allocating a waypoint vector
/// per plan. One scratch per worker; a warm scratch plans with zero
/// heap allocations.
#[derive(Clone, Debug)]
pub struct PlanScratch {
    search: PlannerScratch,
    routes: RouteStats,
    hops: HopScratch,
    route: Vec<u32>,
    header: CityMeshHeader,
    /// One bit per building, all zero between plans: where the covered
    /// set is gathered before it is encoded into the plan.
    covered_marks: Vec<u64>,
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
            routes: RouteStats::default(),
            hops: HopScratch::new(),
            route: Vec::new(),
            hier: HierPlanScratch::new(),
            header: placeholder_header(),
            covered_marks: Vec::new(),
        }
    }

    /// Cumulative hierarchical-planner counters accumulated by this
    /// scratch — what the fleet engine folds into worker metrics.
    /// All-zero unless [`CityExperiment::plan_flow_hier_into`] ran.
    pub fn hier_stats(&self) -> citymesh_graph::HierStats {
        self.hier.stats()
    }

    /// Cumulative flat-planner counters accumulated by this scratch:
    /// plans answered from a source's shortest-path row, answered by
    /// search, and the rows those plans built. All-zero for a scratch
    /// that only planned hierarchically.
    pub fn route_stats(&self) -> RouteStats {
        self.routes
    }

    /// Cumulative ideal-hops counters accumulated by this scratch: one
    /// query per plan that found a route and a live source AP, however
    /// it was answered; how many of them a destination's stored hop row
    /// answered and the rows they built on the way; and the APs the
    /// rest — the searches — settled.
    pub fn hop_stats(&self) -> citymesh_graph::HopStats {
        self.hops.stats
    }
}

impl Default for PlanScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl CityExperiment {
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
            .hier_planner()
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
        // The sender plans on the cached city map, whatever has failed
        // since, so the route and what is derived from it — waypoints,
        // header, conduits, covered set — never depend on the fault
        // state; only the source AP and ideal hops below read it.
        let (bg, route) = (self.building_graph(), &mut scratch.route);
        let routed = match hier {
            None => {
                let (search, stats) = (&mut scratch.search, &mut scratch.routes);
                plan_route_counted(bg, src, target, search, route, stats).is_ok()
            }
            Some(h) => h
                .plan_route_into(bg, src, target, &mut scratch.hier, route)
                .is_ok(),
        };
        if !routed {
            return;
        }
        // The planner-independent tail: compression, header probing,
        // source-AP lookup, ideal hops, conduit reconstruction and the
        // buildings the conduits cover.
        plan.route_len = scratch.route.len();
        let width = self.config().conduit_width_m;
        compress_route_into(bg, &scratch.route, width, &mut plan.waypoints)
            .expect("config width validated at prepare time; route is non-empty");
        // Header size depends only on the waypoints and width; probe it
        // with a placeholder message id (route bits exclude the id).
        scratch.header.reuse_for(0, width, &plan.waypoints);
        plan.route_bits = scratch.header.route_bits();
        // The sender's uplink is the source's postbox AP in the world
        // in effect; `None` when the source building is dark (the flow
        // then fails cleanly, unsimulated).
        plan.src_ap = self.postbox_for(src);
        if let Some(src_ap) = plan.src_ap {
            plan.ideal_hops =
                self.ap_graph()
                    .ideal_hops_to_building_with(src_ap, target, &mut scratch.hops);
        }
        // Conduits are what every relaying AP reconstructs from the
        // header; using the header's round-tripped width keeps them
        // bit-identical to a relay-side reconstruction.
        reconstruct_conduits_into(
            self.map(),
            &plan.waypoints,
            scratch.header.conduit_width_m(),
            &mut plan.conduits,
        );
        // Every building's relay verdict under building scope, while
        // the conduits are at hand: a pure function of them and the map.
        plan.covered
            .compute(self.map(), &plan.conduits, &mut scratch.covered_marks);
        plan.covered_computed = true;
        // Keep the uncompressed route for the replan rung's detour
        // comparison; the ladder geometry itself is the flow's.
        if self.fault_state().is_some() {
            plan.replan_route.extend_from_slice(&scratch.route);
        }
    }

    /// The widen rung (attempt 3): the plan's waypoints at
    /// [`WIDEN_FACTOR`] times the configured width, clamped to the
    /// header-encodable maximum. Rebuilds their conduits in `d` and
    /// writes the buildings they cover into `covered`; returns the
    /// width as a header rounds it. Allocation-free on a warm scratch.
    pub(crate) fn widen_rung(
        &self,
        plan: &PlannedFlow,
        d: &mut DetourScratch,
        covered: &mut CoveredSet,
    ) -> f64 {
        let map = self.map();
        let w = (self.config().conduit_width_m * WIDEN_FACTOR).min(MAX_CONDUIT_WIDTH_M);
        d.header.reuse_for(0, w, &plan.waypoints);
        let wide = d.header.conduit_width_m();
        reconstruct_conduits_into(map, &plan.waypoints, wide, &mut d.conduits);
        covered.compute(map, &d.conduits, &mut d.covered_marks);
        wide
    }

    /// The replan rung (the first attempt ≥ 4): a detour from the
    /// plan's source to its delivery building around every building
    /// with zero live APs under the current fault state. On a detour
    /// whose *uncompressed* route differs from the plan's (distinct
    /// routes can compress to the same waypoints), `d.waypoints` and
    /// `covered` describe it and this returns true; otherwise the rung
    /// re-sends. Allocation-free on a warm scratch.
    pub(crate) fn detour_rung(
        &self,
        plan: &PlannedFlow,
        survivors: &Survivors,
        d: &mut DetourScratch,
        covered: &mut CoveredSet,
    ) -> bool {
        if survivors.blocked().is_empty() {
            return false;
        }
        let bg = self.building_graph();
        let (src, dst) = (plan.src, plan.delivery_dst());
        let (search, stats) = (&mut d.search, &mut d.stats);
        if !avoid_dark_counted(bg, survivors, src, dst, search, &mut d.route, stats)
            || d.route == plan.primary_route()
        {
            return false;
        }
        d.cover_route(bg, self.map(), self.config().conduit_width_m, covered);
        true
    }

    /// Local repair's rung: splices the route the flow last sent over —
    /// `plan`'s primary route until the first splice (`patched` false),
    /// `detour.route` after it — around its first dark building
    /// ([`splice_around_dark`]). On a change, `detour.waypoints` and
    /// `covered` describe the new route; once patched, `detour.waypoints`
    /// keeps describing `detour.route` either way. Returns whether the
    /// route changed. RNG-free, and a warm scratch allocates nothing.
    pub(crate) fn repair_route(
        &self,
        plan: &PlannedFlow,
        survivors: &Survivors,
        d: &mut DetourScratch,
        patched: bool,
        covered: &mut CoveredSet,
    ) -> bool {
        let (bg, width) = (self.building_graph(), self.config().conduit_width_m);
        if !patched {
            d.route.clear();
            d.route.extend_from_slice(plan.primary_route());
        }
        let (route, search, stats) = (&mut d.route, &mut d.search, &mut d.stats);
        let changed = splice_around_dark(bg, survivors, route, search, &mut d.waypoints, stats);
        if changed {
            d.cover_route(bg, self.map(), width, covered);
        } else if patched {
            // The searches wrote into the waypoint buffer.
            compress_route_into(bg, &d.route, width, &mut d.waypoints)
                .expect("a repaired route is non-empty");
        }
        changed
    }
}

impl DetourScratch {
    /// Compresses `self.route` into `self.waypoints` and writes the
    /// buildings their conduits cover — at `width_m` as a header rounds
    /// it — into `covered`.
    fn cover_route(
        &mut self,
        bg: &BuildingGraph,
        map: &CityMap,
        width_m: f64,
        covered: &mut CoveredSet,
    ) {
        compress_route_into(bg, &self.route, width_m, &mut self.waypoints)
            .expect("config width validated at prepare time; route is non-empty");
        self.header.reuse_for(0, width_m, &self.waypoints);
        let w = self.header.conduit_width_m();
        reconstruct_conduits_into(map, &self.waypoints, w, &mut self.conduits);
        covered.compute(map, &self.conduits, &mut self.covered_marks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{within_conduits, DeliveryScratch, ExperimentConfig, FaultScenario, RecoveryStage};
    use citymesh_fleet::{generate_flows, FlowModel, WorkloadConfig, DOMAIN_MSG, DOMAIN_SIM};
    use citymesh_map::{CityArchetype, CityMap};
    use citymesh_simcore::{substream_seed, Fnv64, SimRng};

    /// The buildings whose centroid lies in `waypoints`' conduits at
    /// `width_m`, tested one by one.
    fn brute_covered(map: &CityMap, waypoints: &[u32], width_m: f64) -> Vec<u32> {
        let conduits = crate::reconstruct_conduits(map, waypoints, width_m);
        let ids = 0..map.len() as u32;
        ids.filter(|&b| within_conduits(&conduits, map.building(b).expect("in map").centroid))
            .collect()
    }

    /// The `churn-ladder` blackout (the benchmark downtown, world seed
    /// 2024, one 60 m disc) under its first 2,000 seed-1 hotspot flows,
    /// each planned into one reused plan. For every flow that climbs to
    /// rung 3, each rung's covered set equals `within_conduits` at
    /// every centroid for that rung's rebuilt conduits, and the outcomes
    /// of those flows hash to what the kernel produced when it decided
    /// those rungs' verdicts on first reception.
    #[test]
    fn ladder_rungs_carry_the_buildings_their_conduits_cover() {
        let config = ExperimentConfig {
            seed: 2024,
            faults: Some(FaultScenario::district_blackouts(1, 60.0)),
            ..ExperimentConfig::default()
        };
        let map = CityArchetype::SurveyDowntown.generate(2024);
        let exp = CityExperiment::try_prepare(map, config).expect("valid config");
        let (_, survivors) = exp.fault_world().expect("faulted");
        let model = FlowModel::Hotspot {
            hotspots: 256,
            exponent: 0.8,
            rate_hz: 1_000.0,
        };
        let workload = WorkloadConfig {
            flows: 2_000,
            model,
            seed: 1,
        };
        let (mut plan_scratch, mut plan) = (PlanScratch::new(), PlannedFlow::empty(0, 0));
        let (mut scratch, mut covered) = (DeliveryScratch::new(), CoveredSet::default());
        let (mut outcomes, mut climbed, mut detours) = (Fnv64::new(), 0, 0);
        for f in generate_flows(exp.map().len(), &workload) {
            exp.plan_flow_into(f.src, f.dst, &mut plan_scratch, &mut plan);
            let msg_id = substream_seed(1, DOMAIN_MSG, f.id);
            let mut rng = SimRng::new(substream_seed(1, DOMAIN_SIM, f.id));
            let o = exp.simulate_flow_with(&plan, msg_id, &mut rng, &mut scratch);
            if o.attempts < 3 {
                continue;
            }
            climbed += 1;
            let latency = o.latency.map_or(u64::MAX, |t| t.as_nanos());
            let rung = o.recovered_by.map_or(9, |s| s as u64);
            for v in [f.id, u64::from(o.delivered), u64::from(o.attempts)] {
                outcomes.mix(v);
            }
            for v in [o.broadcasts, latency, rung] {
                outcomes.mix(v);
            }
            let d = &mut scratch.detour;
            let wide_width = exp.widen_rung(&plan, d, &mut covered);
            assert!(
                wide_width > exp.config().conduit_width_m,
                "the ladder widens"
            );
            let wide = brute_covered(exp.map(), &plan.waypoints, wide_width);
            assert_eq!(covered.iter().collect::<Vec<_>>(), wide, "flow {}", f.id);
            let detoured = exp.detour_rung(&plan, survivors, d, &mut covered);
            if detoured {
                detours += 1;
                let waypoints = d.waypoints.clone();
                let header = CityMeshHeader::new(msg_id, exp.config().conduit_width_m, waypoints);
                let fallback =
                    brute_covered(exp.map(), &header.waypoints, header.conduit_width_m());
                assert_eq!(
                    covered.iter().collect::<Vec<_>>(),
                    fallback,
                    "flow {}",
                    f.id
                );
            }
            if o.recovered_by == Some(RecoveryStage::Replan) {
                assert!(detoured);
            }
        }
        assert_eq!((climbed, outcomes.value()), (214, 0x7fda_ab4e_7fd3_352e));
        assert!(detours > 100, "{detours} detours");
    }
}
