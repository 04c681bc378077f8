//! The allocating detour: what production's `plan_route_avoiding_into`
//! (dense survivor mask, reused scratch, refused up front by the
//! surviving-component labels) must equal route for route and error for
//! error.

use std::collections::HashSet;

use citymesh_core::{BuildingGraph, RouteError};
use citymesh_graph::{astar_path_filtered_into, PlannerScratch};

/// The cheapest building route `src → dst` whose interior avoids every
/// building in `blocked` (endpoints are exempt) — the detour primitive
/// the DFN security requirement calls for (paper §1: "find a path
/// between two nodes wishing to communicate if there exists a path that
/// does not traverse a compromised node").
///
/// It allocates its search state per call, looks every relaxed building
/// up in the set, and learns that no route survives only by exhausting
/// the source's island.
///
/// # Errors
/// [`RouteError::UnknownBuilding`] for the first endpoint outside `bg`,
/// [`RouteError::NoPredictedPath`] when no such route exists.
pub fn plan_route_avoiding(
    bg: &BuildingGraph,
    src: u32,
    dst: u32,
    blocked: &HashSet<u32>,
) -> Result<Vec<u32>, RouteError> {
    if let Some(id) = [src, dst].into_iter().find(|&id| id as usize >= bg.len()) {
        return Err(RouteError::UnknownBuilding(id));
    }
    let mut out = Vec::new();
    let found = astar_path_filtered_into(
        bg.graph(),
        src,
        dst,
        |v| bg.cost_lower_bound(v, dst),
        |v| !blocked.contains(&v),
        &mut PlannerScratch::new(),
        &mut out,
    );
    found
        .then_some(out)
        .ok_or(RouteError::NoPredictedPath { src, dst })
}
