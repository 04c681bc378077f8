//! Island bridging: planning the "small number of well-placed APs"
//! the paper proposes for cities that fracture (§4).
//!
//! When large features (rivers, parks, highways) split a city's AP
//! fabric into islands, CityMesh cannot deliver across the gap. The
//! planner finds, for each secondary island, the closest AP pair to
//! the main island and recommends relay AP positions along that
//! segment, spaced within radio range. [`apply_bridges`] then
//! materializes the relays as small "relay hut" footprints in the
//! *map* — crucial, because CityMesh routes from the map: a relay the
//! map does not know about can carry radio traffic but can never be a
//! routed waypoint or a building-scope rebroadcaster.

use citymesh_core::{Ap, ApGraph};
use citymesh_geo::{Point, Polygon, Rect};
use citymesh_map::CityMap;

/// A planned bridge between two islands.
#[derive(Clone, Debug)]
pub struct Bridge {
    /// AP on the main (growing) island side.
    pub from_ap: u32,
    /// AP on the island being attached.
    pub to_ap: u32,
    /// Gap between the two APs, meters.
    pub gap_m: f64,
    /// Relay positions to place, in order from `from_ap` to `to_ap`
    /// (empty when the APs are already within range — possible when
    /// islands are radio-separate only through unlucky placement).
    pub relays: Vec<Point>,
}

/// The full plan for one city.
#[derive(Clone, Debug, Default)]
pub struct BridgePlan {
    /// One bridge per island attached, in attachment order (largest
    /// secondary island first).
    pub bridges: Vec<Bridge>,
}

impl BridgePlan {
    /// All relay positions across all bridges.
    pub fn relay_positions(&self) -> Vec<Point> {
        self.bridges
            .iter()
            .flat_map(|b| b.relays.iter().copied())
            .collect()
    }

    /// Total relays recommended.
    pub fn relay_count(&self) -> usize {
        self.bridges.iter().map(|b| b.relays.len()).sum()
    }
}

/// Plans bridges until the AP graph would be one island or the relay
/// budget is exhausted. Islands are attached largest-first, each by
/// its closest AP pair to the already-connected mass.
///
/// `spacing_factor` (0 < f ≤ 1) scales the relay spacing relative to
/// the radio range; 0.8 leaves margin for fading.
pub fn plan_bridges(apg: &ApGraph, max_relays: usize, spacing_factor: f64) -> BridgePlan {
    assert!(
        spacing_factor > 0.0 && spacing_factor <= 1.0,
        "spacing factor must be in (0, 1]"
    );
    let n = apg.len();
    let mut plan = BridgePlan::default();
    if n == 0 || apg.num_components() <= 1 {
        return plan;
    }

    // Group APs by component, keyed by the first AP seen in each
    // (ApGraph caches component labels, so `reachable` is O(1)).
    let mut reps: Vec<u32> = Vec::new();
    let mut groups: Vec<Vec<u32>> = Vec::new();
    for ap in 0..n as u32 {
        match reps.iter().position(|r| apg.reachable(*r, ap)) {
            Some(i) => groups[i].push(ap),
            None => {
                reps.push(ap);
                groups.push(vec![ap]);
            }
        }
    }
    let mut islands: Vec<Vec<u32>> = groups;
    islands.sort_by_key(|v| std::cmp::Reverse(v.len()));

    let spacing = apg.range_m() * spacing_factor;
    let mut main: Vec<u32> = islands.remove(0);
    let mut budget = max_relays;

    for island in islands {
        // Closest pair between `main` and `island`.
        let mut best: Option<(u32, u32, f64)> = None;
        for &a in &main {
            let pa = apg.position(a);
            for &b in &island {
                let d = pa.dist(apg.position(b));
                if best.is_none_or(|(_, _, bd)| d < bd) {
                    best = Some((a, b, d));
                }
            }
        }
        let (from_ap, to_ap, gap_m) = best.expect("islands are non-empty");
        let relays_needed = if gap_m <= spacing {
            0
        } else {
            (gap_m / spacing).ceil() as usize - 1
        };
        if relays_needed > budget {
            continue; // cannot afford this island; try cheaper ones
        }
        budget -= relays_needed;
        let pa = apg.position(from_ap);
        let pb = apg.position(to_ap);
        let relays: Vec<Point> = (1..=relays_needed)
            .map(|i| pa.lerp(pb, i as f64 / (relays_needed + 1) as f64))
            .collect();
        plan.bridges.push(Bridge {
            from_ap,
            to_ap,
            gap_m,
            relays,
        });
        main.extend(island);
    }
    plan
}

/// Side length of the synthetic relay-hut footprint, meters.
pub const RELAY_HUT_SIDE_M: f64 = 4.0;

/// Materializes a plan into a new map: each relay becomes a
/// [`RELAY_HUT_SIDE_M`]-square "relay hut" footprint (a pole-mounted
/// AP cabinet) **appended** after the existing buildings, so every
/// pre-existing building keeps its ID — devices caching the old map
/// remain compatible. Routes planned on the new map may pass through
/// the huts.
///
/// Relay positions may fall inside obstacle regions (a pole on a
/// bridge or riverbank) — that is the point of the exercise.
pub fn apply_bridges(map: &CityMap, relay_positions: &[Point]) -> CityMap {
    let half = RELAY_HUT_SIDE_M / 2.0;
    let huts: Vec<Polygon> = relay_positions
        .iter()
        .map(|p| {
            Polygon::rect(Rect::from_corners(
                Point::new(p.x - half, p.y - half),
                Point::new(p.x + half, p.y + half),
            ))
        })
        .collect();
    map.extended_with(huts, "+bridged")
}

/// Extends an existing AP placement with one AP per relay hut, placed
/// exactly at the hut center. `bridged_map` must be the output of
/// [`apply_bridges`] for the same `relay_positions`, and `aps` the
/// placement the plan was computed against — existing APs keep their
/// positions, so the planned relay chain is within range by
/// construction.
pub fn extend_placement(aps: &[Ap], bridged_map: &CityMap, relay_positions: &[Point]) -> Vec<Ap> {
    let original_buildings = bridged_map.len() - relay_positions.len();
    let mut out = aps.to_vec();
    for (i, p) in relay_positions.iter().enumerate() {
        out.push(Ap {
            id: out.len() as u32,
            pos: *p,
            building: (original_buildings + i) as u32,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use citymesh_core::{
        place_aps, BuildingGraph, BuildingGraphParams, CityExperiment, ExperimentConfig,
    };
    use citymesh_simcore::SimRng;

    fn ap(id: u32, x: f64, building: u32) -> Ap {
        Ap {
            id,
            pos: Point::new(x, 0.0),
            building,
        }
    }

    /// Two islands 200 m apart along x.
    fn two_islands() -> ApGraph {
        let aps = vec![
            ap(0, 0.0, 0),
            ap(1, 40.0, 1),
            ap(2, 240.0, 2),
            ap(3, 280.0, 3),
        ];
        ApGraph::build(&aps, 50.0)
    }

    #[test]
    fn plans_relays_across_the_gap() {
        let apg = two_islands();
        let plan = plan_bridges(&apg, 100, 0.8);
        assert_eq!(plan.bridges.len(), 1);
        let b = &plan.bridges[0];
        assert_eq!(b.gap_m, 200.0);
        // 200 m gap at 40 m spacing: ceil(200/40) - 1 = 4 relays.
        assert_eq!(b.relays.len(), 4);
        // Relays are evenly spaced strictly between the endpoints and
        // every consecutive hop is within the radio range.
        let mut chain = vec![apg.position(b.from_ap)];
        chain.extend(b.relays.iter().copied());
        chain.push(apg.position(b.to_ap));
        for w in chain.windows(2) {
            assert!(w[0].dist(w[1]) <= 50.0 + 1e-9);
        }
    }

    #[test]
    fn connected_graph_needs_no_plan() {
        let aps = vec![ap(0, 0.0, 0), ap(1, 40.0, 1)];
        let apg = ApGraph::build(&aps, 50.0);
        let plan = plan_bridges(&apg, 100, 0.8);
        assert!(plan.bridges.is_empty());
        assert_eq!(plan.relay_count(), 0);
    }

    #[test]
    fn budget_limits_the_plan() {
        let apg = two_islands();
        // The 200 m gap needs 4 relays; a budget of 3 affords none.
        let plan = plan_bridges(&apg, 3, 0.8);
        assert!(plan.bridges.is_empty());
    }

    #[test]
    fn three_islands_attach_largest_first() {
        let aps = vec![
            // Main island: 3 APs.
            ap(0, 0.0, 0),
            ap(1, 40.0, 1),
            ap(2, 80.0, 2),
            // Medium island: 2 APs, 120 m east of main's edge.
            ap(3, 200.0, 3),
            ap(4, 240.0, 4),
            // Tiny island: 1 AP, farther east.
            ap(5, 400.0, 5),
        ];
        let apg = ApGraph::build(&aps, 50.0);
        assert_eq!(apg.num_components(), 3);
        let plan = plan_bridges(&apg, 100, 0.8);
        assert_eq!(plan.bridges.len(), 2);
        // First bridge attaches the 2-AP island, second the singleton.
        assert_eq!(plan.bridges[0].to_ap, 3);
        assert_eq!(plan.bridges[1].to_ap, 5);
        // Second bridge launches from the *extended* main (AP 4 is
        // closest to AP 5).
        assert_eq!(plan.bridges[1].from_ap, 4);
    }

    #[test]
    fn applying_bridges_reconnects_a_river_city() {
        // End-to-end: a river-split survey area becomes one island
        // after planning + applying bridges, and reachability jumps.
        // The original AP placement is preserved so the planned relay
        // chain stays valid by construction.
        let map = citymesh_map::CityArchetype::SurveyRiver.generate(5);
        let config = ExperimentConfig {
            seed: 5,
            reachability_pairs: 150,
            delivery_pairs: 0,
            ..ExperimentConfig::default()
        };
        let before = CityExperiment::prepare(map.clone(), config);
        let components_before = before.ap_graph().num_components();
        assert!(components_before > 1, "the river must split the fabric");
        let reach_before = before.run().reachability;

        let plan = plan_bridges(before.ap_graph(), 200, 0.8);
        assert!(plan.relay_count() > 0);
        let relays = plan.relay_positions();
        let bridged_map = apply_bridges(&map, &relays);
        assert_eq!(bridged_map.len(), map.len() + plan.relay_count());
        // Existing building IDs are preserved.
        for b in map.buildings() {
            assert_eq!(bridged_map.building(b.id).unwrap().centroid, b.centroid);
        }

        let aps = extend_placement(before.aps(), &bridged_map, &relays);
        let after = CityExperiment::from_parts(bridged_map, aps, config);
        assert!(
            after.ap_graph().num_components() < components_before,
            "bridging must reduce island count"
        );
        let reach_after = after.run().reachability;
        assert!(
            reach_after > reach_before + 0.1,
            "reachability should jump: {reach_before} → {reach_after}"
        );
    }

    #[test]
    fn bridged_map_routes_through_huts() {
        // The building graph of the bridged map must link across the
        // gap (huts become route waypoints).
        let map = citymesh_map::CityArchetype::SurveyRiver.generate(6);
        let mut rng = SimRng::new(6);
        let aps = place_aps(&map, 200.0, &mut rng);
        let apg = ApGraph::build(&aps, 50.0);
        if apg.num_components() == 1 {
            return; // seed produced a connected city; nothing to test
        }
        let plan = plan_bridges(&apg, 200, 0.8);
        let bridged = apply_bridges(&map, &plan.relay_positions());
        let bg_before = BuildingGraph::build(&map, BuildingGraphParams::default());
        let bg_after = BuildingGraph::build(&bridged, BuildingGraphParams::default());
        let (_, comps_before) = bg_before.components();
        let (_, comps_after) = bg_after.components();
        assert!(
            comps_after <= comps_before,
            "hut footprints must not fragment the building graph"
        );
    }

    #[test]
    #[should_panic(expected = "spacing factor")]
    fn zero_spacing_panics() {
        let apg = two_islands();
        plan_bridges(&apg, 10, 0.0);
    }
}
