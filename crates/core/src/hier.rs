//! Hierarchical (district-overlay) route planning — the metro-scale
//! fast path (DESIGN.md §12).
//!
//! The flat planner in [`crate::route`] is goal-directed A* under an
//! ALT bound from eight global landmarks. However well the bound
//! guides it, the search still settles every building along the route
//! and relaxes every edge beside it, so a plan's cost grows with the
//! route's length — with the city. [`HierPlanner`] instead routes over
//! a district overlay — Netsukuku-style "route at the higher level
//! first, then locally": an ALT A* between district border nodes
//! (thousands, not hundreds of thousands) whose seeds, terminals and
//! in-district arcs are lookups in the per-district border × member
//! distance tables the build keeps, then one table walk per district
//! the winning route actually crosses.
//!
//! Exactness is inherited from [`citymesh_graph::Hierarchy`]: overlay
//! arc weights are true shortest-path costs, so the hierarchical route
//! cost equals the flat-optimal cost (proptested in
//! `tests/hier_props.rs` and, against an independent Dijkstra, in
//! `tests/route_oracle.rs`). The hierarchy plans on the healthy map
//! only — the sender always plans on the cached city map — so every
//! district's table is trusted; a detour around dark buildings is a
//! flat search over [`crate::route::Survivors`], whichever planner drew
//! the primary route.

use citymesh_graph::{HierParams, HierScratch, HierStats, Hierarchy, Partition};

use crate::buildgraph::BuildingGraph;
use crate::route::{check_endpoints, RouteError};

/// Reusable state for hierarchical planning: the overlay search and
/// route-assembly scratch. One per worker; a warm caller plans with
/// zero heap allocations.
#[derive(Clone, Debug, Default)]
pub struct HierPlanScratch {
    search: HierScratch,
}

impl HierPlanScratch {
    /// Fresh scratch; buffers grow to steady-state sizes on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cumulative query counters (never reset by the planner) — the
    /// telemetry feed for overlay work.
    pub fn stats(&self) -> HierStats {
        self.search.stats
    }
}

/// District-overlay planner over a [`BuildingGraph`].
///
/// Built once per experiment (partitioning and overlay construction
/// allocate; queries do not) and queried through
/// [`plan_route_into`](HierPlanner::plan_route_into), which mirrors
/// the flat planner's error contract exactly. Routes are
/// cost-optimal: equal to flat Dijkstra cost, with the crate-wide
/// canonical tie-break (ties resolve toward the direct same-district
/// route, then toward smaller parent ids).
#[derive(Clone, Debug)]
pub struct HierPlanner {
    hierarchy: Hierarchy,
}

impl HierPlanner {
    /// Partitions `bg` into districts by centroid grid and builds the
    /// border-node overlay. Deterministic in `(bg, params)`.
    pub fn build(bg: &BuildingGraph, params: &HierParams) -> Self {
        let positions: Vec<(f64, f64)> = (0..bg.len() as u32)
            .map(|v| {
                let c = bg.centroid(v);
                (c.x, c.y)
            })
            .collect();
        let part = Partition::grid(&positions, params.target_district_size);
        let hierarchy = Hierarchy::build(bg.graph(), part, params);
        HierPlanner { hierarchy }
    }

    /// The underlying overlay structure (districts, border nodes,
    /// distance tables).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Heap bytes held by the partition and overlay tables — what the
    /// hierarchy costs on top of the building graph.
    pub fn memory_bytes(&self) -> usize {
        self.hierarchy.memory_bytes()
    }

    /// Hierarchical counterpart of [`crate::route::plan_route`]:
    /// allocates its own scratch, returns the route.
    ///
    /// # Errors
    /// Same contract as [`crate::route::plan_route`].
    pub fn plan_route(
        &self,
        bg: &BuildingGraph,
        src: u32,
        dst: u32,
    ) -> Result<Vec<u32>, RouteError> {
        let mut scratch = HierPlanScratch::new();
        let mut out = Vec::new();
        self.plan_route_into(bg, src, dst, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Hierarchical counterpart of [`crate::route::plan_route_into`]:
    /// plans `src → dst` into `out` against caller-owned scratch, with
    /// zero heap allocations once warm.
    ///
    /// # Errors
    /// Same contract as [`crate::route::plan_route_into`]; `out` is
    /// left cleared on error.
    pub fn plan_route_into(
        &self,
        bg: &BuildingGraph,
        src: u32,
        dst: u32,
        scratch: &mut HierPlanScratch,
        out: &mut Vec<u32>,
    ) -> Result<(), RouteError> {
        out.clear();
        check_endpoints(bg, src, dst)?;
        let lb = |a: u32, b: u32| bg.cost_lower_bound(a, b);
        if self
            .hierarchy
            .plan_path_into(bg.graph(), src, dst, lb, &mut scratch.search, out)
        {
            Ok(())
        } else {
            Err(RouteError::NoPredictedPath { src, dst })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buildgraph::BuildingGraphParams;
    use crate::route;
    use citymesh_graph::PlannerScratch;

    fn downtown_bg() -> BuildingGraph {
        let map = citymesh_map::CityArchetype::SurveyDowntown.generate(11);
        BuildingGraph::build(&map, BuildingGraphParams::default())
    }

    /// Cost of a route: per consecutive pair, the cheapest parallel
    /// edge (the one every planner uses).
    fn route_cost(bg: &BuildingGraph, route: &[u32]) -> f64 {
        route
            .windows(2)
            .map(|w| {
                bg.graph()
                    .neighbors(w[0])
                    .iter()
                    .filter(|e| e.to == w[1])
                    .map(|e| e.weight)
                    .fold(f64::INFINITY, f64::min)
            })
            .sum()
    }

    fn assert_cost_eq(a: f64, b: f64) {
        let tol = 1e-9 * a.abs().max(b.abs()).max(1.0);
        assert!((a - b).abs() <= tol, "costs differ: {a} vs {b}");
    }

    #[test]
    fn hier_cost_matches_flat_on_a_survey_city() {
        let bg = downtown_bg();
        let planner = HierPlanner::build(
            &bg,
            &HierParams {
                target_district_size: 48,
                ..HierParams::default()
            },
        );
        assert!(planner.hierarchy().partition().num_districts() > 4);
        let mut hs = HierPlanScratch::new();
        let mut fs = PlannerScratch::new();
        let (mut hier_route, mut flat_route) = (Vec::new(), Vec::new());
        let n = bg.len() as u32;
        for (src, dst) in [(0, n - 1), (3, n / 2), (n / 3, n - 7), (n - 1, 1)] {
            let h = planner.plan_route_into(&bg, src, dst, &mut hs, &mut hier_route);
            let f = route::plan_route_into(&bg, src, dst, &mut fs, &mut flat_route);
            assert_eq!(h.is_ok(), f.is_ok(), "{src}→{dst}");
            if h.is_ok() {
                assert_eq!(hier_route.first(), Some(&src));
                assert_eq!(hier_route.last(), Some(&dst));
                assert_cost_eq(route_cost(&bg, &hier_route), route_cost(&bg, &flat_route));
            }
        }
        assert!(hs.stats().queries >= 4);
    }

    #[test]
    fn error_contract_matches_flat_planner() {
        let bg = downtown_bg();
        let planner = HierPlanner::build(&bg, &HierParams::default());
        let n = bg.len() as u32;
        assert_eq!(
            planner.plan_route(&bg, n, 0).unwrap_err(),
            RouteError::UnknownBuilding(n)
        );
        assert_eq!(planner.plan_route(&bg, 4, 4).unwrap(), vec![4]);
    }
}
