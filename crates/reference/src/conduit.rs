//! The greedy conduit cover as the paper states it: what production's
//! `compress_route_into` (farthest endpoint first, the building that
//! last broke coverage asked first) must equal waypoint for waypoint.

use citymesh_core::BuildingGraph;
use citymesh_geo::{OrientedRect, Segment};

/// Compresses `route` into waypoints (paper §3 step 2): from each
/// waypoint, the farthest later building whose conduit of width
/// `width_m` covers every building of the route in between becomes the
/// next waypoint.
///
/// Every candidate endpoint is tried, nearest first, and each one
/// re-tests every building between from the start.
///
/// # Panics
/// Panics on an empty route.
pub fn compress_route(bg: &BuildingGraph, route: &[u32], width_m: f64) -> Vec<u32> {
    let mut waypoints = vec![route[0]];
    let mut start = 0;
    while start + 1 < route.len() {
        let a = bg.centroid(route[start]);
        let mut best = start + 1;
        for j in start + 1..route.len() {
            let conduit = OrientedRect::new(Segment::new(a, bg.centroid(route[j])), width_m);
            if route[start + 1..j]
                .iter()
                .all(|&b| conduit.contains(bg.centroid(b)))
            {
                best = j;
            }
        }
        waypoints.push(route[best]);
        start = best;
    }
    waypoints
}
