//! Differential oracle for what a plan derives from its route once and
//! every flow over it then relies on: the compressed waypoints and the
//! buildings their conduits cover.
//!
//! Production compression (`compress_route_into`) asks candidate
//! endpoints from the far end down, stops at the first that covers, and
//! asks the building that last broke coverage first. The reference
//! ([`citymesh_reference::compress_route`]) tries every endpoint nearest
//! first and re-tests every building between. They must give the same
//! waypoints on every route.
//!
//! The covered set ([`CoveredSet`], [`PlannedFlow::covered`]) is
//! gathered through the map's centroid index and stored as deltas. The
//! reference is [`within_conduits`] at every building's centroid. They
//! must name the same buildings, including centroids a micrometer either
//! side of the conduit's edge. (The kernel that reads its verdicts from
//! the set is graded in `kernel_oracle.rs`.)

use citymesh_core::{
    compress_route_into, plan_route, plan_route_into, reconstruct_conduits, within_conduits,
    BuildingGraph, BuildingGraphParams, CityExperiment, CoveredSet, ExperimentConfig, HierParams,
    HierPlanScratch, PlanScratch, PlannedFlow,
};
use citymesh_fleet::{generate_flows, FlowModel, WorkloadConfig};
use citymesh_geo::{OrientedRect, Point, Polygon, Rect, EPS};
use citymesh_graph::PlannerScratch;
use citymesh_map::{generate_metro, CityArchetype, CityMap, MetroParams};
use citymesh_reference::compress_route as reference_compress;
use citymesh_simcore::SimRng;
use proptest::prelude::*;

/// The reference covered set: every building whose centroid lies in
/// one of `conduits`, ascending.
fn brute_covered(map: &CityMap, conduits: &[OrientedRect]) -> Vec<u32> {
    let ids = 0..map.len() as u32;
    ids.filter(|&b| within_conduits(conduits, map.buildings()[b as usize].centroid))
        .collect()
}

fn square_around(c: Point, half: f64) -> Polygon {
    Polygon::rect(Rect::from_corners(
        Point::new(c.x - half, c.y - half),
        Point::new(c.x + half, c.y + half),
    ))
}

/// A `cols × rows` lattice of 14 m buildings, each nudged up to
/// `jitter` meters, with some removed (at least two always remain).
fn jittered_city(cols: usize, rows: usize, pitch: f64, jitter: f64, seed: u64) -> CityMap {
    let mut rng = SimRng::new(seed);
    let mut footprints = Vec::new();
    for y in 0..rows {
        for x in 0..cols {
            let removed = rng.chance(0.15);
            let (dx, dy) = (rng.uniform() * jitter, rng.uniform() * jitter);
            if footprints.len() >= 2 && removed {
                continue;
            }
            let c = Point::new(x as f64 * pitch + dx, y as f64 * pitch + dy);
            footprints.push(square_around(c, 7.0));
        }
    }
    CityMap::new("plan-oracle", footprints, vec![])
}

fn city() -> impl Strategy<Value = CityMap> {
    (
        3usize..12,
        2usize..10,
        18.0..45.0f64,
        0.0..12.0f64,
        any::<u64>(),
    )
        .prop_map(|(cols, rows, pitch, jitter, seed)| {
            jittered_city(cols, rows, pitch, jitter, seed)
        })
}

/// Conduit widths from much narrower than the building pitch to wider
/// than the radio range.
fn width() -> impl Strategy<Value = f64> {
    prop_oneof![2.0..15.0f64, 15.0..60.0f64, 60.0..102.3f64]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Production compression ≡ the exhaustive reference, on planned
    /// routes and on random walks over arbitrary buildings (revisits
    /// included), where coverage swings in and out as the endpoint moves.
    #[test]
    fn compression_equals_the_reference(
        map in city(),
        seed in any::<u64>(),
        width in width(),
    ) {
        let bg = BuildingGraph::build(&map, BuildingGraphParams::default());
        let mut rng = SimRng::new(seed);
        let n = map.len() as u64;
        let mut waypoints = Vec::new();
        for _ in 0..6 {
            let (src, dst) = (rng.below(n) as u32, rng.below(n) as u32);
            let walk: Vec<u32> = (0..1 + rng.below(24)).map(|_| rng.below(n) as u32).collect();
            for route in plan_route(&bg, src, dst).into_iter().chain([walk]) {
                compress_route_into(&bg, &route, width, &mut waypoints).unwrap();
                prop_assert_eq!(&waypoints, &reference_compress(&bg, &route, width), "{:?}", route);
            }
        }
    }

    /// The covered set ≡ `within_conduits` at every centroid, for random
    /// waypoint lists (one waypoint is the disc around it) at narrow and
    /// wide widths.
    #[test]
    fn covered_set_equals_every_centroid_tested(
        map in city(),
        seed in any::<u64>(),
        width in width(),
    ) {
        let mut rng = SimRng::new(seed);
        let n = map.len() as u64;
        for _ in 0..6 {
            let waypoints: Vec<u32> = (0..1 + rng.below(5)).map(|_| rng.below(n) as u32).collect();
            let conduits = reconstruct_conduits(&map, &waypoints, width);
            let covered: Vec<u32> = CoveredSet::of(&map, &conduits).iter().collect();
            prop_assert_eq!(covered, brute_covered(&map, &conduits), "{:?} at {} m", waypoints, width);
        }
    }

    /// Centroids half a micrometer inside and outside the tolerance
    /// `contains` grants past `W/2`, beside the long sides and the end
    /// caps of a spine laid along either axis or diagonally, anywhere on
    /// the map's 100 m grid.
    #[test]
    fn covered_set_holds_the_tolerance_edge(
        origin in (0.0..400.0f64, 0.0..400.0f64),
        length in 30.0..350.0f64,
        orientation in 0usize..3,
        half_width in 5.0..50.0f64,
    ) {
        let o = Point::new(origin.0, origin.1);
        let (along, across) = match orientation {
            0 => ((1.0, 0.0), (0.0, 1.0)),
            1 => ((0.0, 1.0), (-1.0, 0.0)),
            _ => {
                let s = std::f64::consts::FRAC_1_SQRT_2;
                ((s, s), (-s, s))
            }
        };
        let at = |t: f64, off: f64| {
            Point::new(o.x + along.0 * t + across.0 * off, o.y + along.1 * t + across.1 * off)
        };
        let reach = half_width + EPS;
        let mut centers = vec![at(0.0, 0.0), at(length, 0.0)];
        for off in [reach - EPS / 2.0, reach + EPS / 2.0, reach - 2.0 * EPS, reach + 2.0 * EPS] {
            for t in [0.3 * length, 0.8 * length] {
                centers.extend([at(t, off), at(t, -off)]);
            }
            centers.extend([at(-off, 0.0), at(length + off, 0.0)]);
        }
        let map = CityMap::new(
            "tolerance-edge",
            centers.iter().map(|&c| square_around(c, 0.5)).collect(),
            vec![],
        );
        let id_at = |c: Point| map.nearest_building(c).expect("placed").id;
        let waypoints = [id_at(centers[0]), id_at(centers[1])];
        let conduits = reconstruct_conduits(&map, &waypoints, 2.0 * half_width);
        let want = brute_covered(&map, &conduits);
        // Both sides of the edge are really there: the two endpoints and
        // the 12 probes inside it.
        prop_assert_eq!(want.len(), 14, "{:?}", want);
        let covered: Vec<u32> = CoveredSet::of(&map, &conduits).iter().collect();
        prop_assert_eq!(covered, want);
    }
}

/// Every ordered pair of the benchmark downtown (`SurveyDowntown`, world
/// seed 2024 — `fleet-hot`, `secure-cold`, `stream-surge` and
/// `churn-ladder` all run on it): the plan's waypoints ≡ the reference
/// compression of the pair's route, and its covered set ≡ every centroid
/// tested. Release only (CI runs it).
#[test]
#[cfg_attr(debug_assertions, ignore = "280,900 plans: run with --release")]
fn every_downtown_plan_equals_the_references() {
    let map = CityArchetype::SurveyDowntown.generate(2024);
    let config = ExperimentConfig {
        seed: 2024,
        ..ExperimentConfig::default()
    };
    let exp = CityExperiment::try_prepare(map, config).expect("the benchmark's config is valid");
    let (bg, width) = (exp.building_graph(), exp.config().conduit_width_m);
    let n = exp.map().len() as u32;
    let (mut scratch, mut plan) = (PlanScratch::new(), PlannedFlow::empty(0, 0));
    let (mut search, mut route) = (PlannerScratch::new(), Vec::new());
    let (mut routed, mut covered_total) = (0u64, 0u64);
    for src in 0..n {
        for dst in 0..n {
            exp.plan_flow_into(src, dst, &mut scratch, &mut plan);
            let found = plan_route_into(bg, src, dst, &mut search, &mut route).is_ok();
            assert_eq!(plan.route_found(), found, "{src} -> {dst}");
            if !found {
                assert_eq!(plan.covered(), None, "{src} -> {dst} has no conduits");
                continue;
            }
            routed += 1;
            assert_eq!(
                plan.waypoints,
                reference_compress(bg, &route, width),
                "{src} -> {dst}"
            );
            let covered: Vec<u32> = plan.covered().expect("planned").iter().collect();
            assert_eq!(
                covered,
                brute_covered(exp.map(), &plan.conduits),
                "{src} -> {dst}"
            );
            covered_total += covered.len() as u64;
        }
    }
    assert_eq!(routed, 280_900, "the benchmark downtown is one island");
    let mean = covered_total as f64 / routed as f64;
    assert!(
        (10.0..60.0).contains(&mean),
        "{mean:.1} buildings covered a plan"
    );
}

/// The `metro-hier` benchmark's 3,000 seed-1 pairs on the 2×2 metro,
/// planned hierarchically as the benchmark plans them: waypoints ≡ the
/// reference compression of the route, covered set ≡ every centroid
/// tested. Release only (CI runs it).
#[test]
#[cfg_attr(debug_assertions, ignore = "metro-scale: run with --release")]
fn metro_benchmark_plans_equal_the_references() {
    let map = generate_metro(&MetroParams::with_tiles(2, 2), 2024);
    let config = ExperimentConfig {
        seed: 2024,
        ..ExperimentConfig::default()
    };
    let mut exp = CityExperiment::try_prepare(map, config).expect("default config is valid");
    exp.enable_hier(&HierParams::default());
    let flows = generate_flows(
        exp.map().len(),
        &WorkloadConfig {
            flows: 3_000,
            model: FlowModel::UniformPairs { rate_hz: 1_000.0 },
            seed: 1,
        },
    );
    let (bg, width) = (exp.building_graph(), exp.config().conduit_width_m);
    let planner = exp.hier_planner().expect("enabled");
    let (mut scratch, mut plan) = (PlanScratch::new(), PlannedFlow::empty(0, 0));
    let (mut search, mut route) = (HierPlanScratch::new(), Vec::new());
    let mut routed = 0;
    for f in &flows {
        exp.plan_flow_hier_into(f.src, f.dst, &mut scratch, &mut plan);
        if planner
            .plan_route_into(bg, f.src, f.dst, &mut search, &mut route)
            .is_err()
        {
            assert!(!plan.route_found(), "flow {}", f.id);
            continue;
        }
        routed += 1;
        assert_eq!(
            plan.waypoints,
            reference_compress(bg, &route, width),
            "flow {}",
            f.id
        );
        let covered: Vec<u32> = plan.covered().expect("planned").iter().collect();
        assert_eq!(
            covered,
            brute_covered(exp.map(), &plan.conduits),
            "flow {}",
            f.id
        );
    }
    assert!(routed > 2_900, "only {routed} flows found a route");
}
