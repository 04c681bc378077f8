//! Property-based tests for the core routing invariants.

use citymesh_core::{
    compress_route, place_aps, plan_route, reconstruct_conduits, within_conduits, BuildingGraph,
    BuildingGraphParams, CityExperiment, DeliveryScratch, ExperimentConfig, FaultScenario,
    PlanScratch, PlannedFlow,
};
use citymesh_geo::{Point, Polygon, Rect};
use citymesh_map::CityMap;
use citymesh_net::{BitReader, BitWriter, CityMeshHeader};
use citymesh_simcore::SimRng;
use proptest::prelude::*;

/// A random small grid city: `cols × rows` buildings on a `pitch`
/// spacing with some randomly removed.
#[derive(Debug, Clone)]
struct GridCity {
    cols: usize,
    rows: usize,
    pitch: f64,
    removed_seed: u64,
    removal: f64,
}

fn grid_city() -> impl Strategy<Value = GridCity> {
    (
        3usize..10,
        3usize..10,
        25.0..45.0f64,
        any::<u64>(),
        0.0..0.3f64,
    )
        .prop_map(|(cols, rows, pitch, removed_seed, removal)| GridCity {
            cols,
            rows,
            pitch,
            removed_seed,
            removal,
        })
}

fn build_map(g: &GridCity) -> CityMap {
    let mut rng = SimRng::new(g.removed_seed);
    let mut footprints = Vec::new();
    for y in 0..g.rows {
        for x in 0..g.cols {
            if rng.chance(g.removal) {
                continue;
            }
            let ox = x as f64 * g.pitch;
            let oy = y as f64 * g.pitch;
            footprints.push(Polygon::rect(Rect::from_corners(
                Point::new(ox, oy),
                Point::new(ox + 12.0, oy + 12.0),
            )));
        }
    }
    // Guarantee at least two buildings.
    if footprints.len() < 2 {
        footprints = vec![
            Polygon::rect(Rect::from_corners(
                Point::new(0.0, 0.0),
                Point::new(12.0, 12.0),
            )),
            Polygon::rect(Rect::from_corners(
                Point::new(30.0, 0.0),
                Point::new(42.0, 12.0),
            )),
        ];
    }
    CityMap::new("prop-grid", footprints, vec![])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The paper's central compression invariant: every building on
    /// the planned route lies inside some reconstructed conduit.
    #[test]
    fn conduit_cover_invariant(g in grid_city(), pair_seed in any::<u64>(), width in 20.0..90.0f64) {
        let map = build_map(&g);
        let bg = BuildingGraph::build(&map, BuildingGraphParams::default());
        let mut rng = SimRng::new(pair_seed);
        let n = map.len() as u64;
        let src = rng.below(n) as u32;
        let dst = rng.below(n) as u32;
        let Ok(route) = plan_route(&bg, src, dst) else { return Ok(()) };
        let compressed = compress_route(&bg, &route, width).unwrap();
        let conduits = reconstruct_conduits(&map, &compressed.waypoints, width);
        for &b in &route {
            prop_assert!(
                within_conduits(&conduits, bg.centroid(b)),
                "building {} escaped the cover (width {})", b, width
            );
        }
    }

    /// Compression structure: endpoints preserved, waypoints form a
    /// subsequence of the route, and never grow past it.
    #[test]
    fn compression_structure(g in grid_city(), pair_seed in any::<u64>()) {
        let map = build_map(&g);
        let bg = BuildingGraph::build(&map, BuildingGraphParams::default());
        let mut rng = SimRng::new(pair_seed);
        let n = map.len() as u64;
        let src = rng.below(n) as u32;
        let dst = rng.below(n) as u32;
        let Ok(route) = plan_route(&bg, src, dst) else { return Ok(()) };
        let compressed = compress_route(&bg, &route, 50.0).unwrap();
        prop_assert_eq!(compressed.waypoints[0], route[0]);
        prop_assert_eq!(*compressed.waypoints.last().unwrap(), *route.last().unwrap());
        prop_assert!(compressed.waypoints.len() <= route.len());
        // Subsequence check.
        let mut it = route.iter();
        for wp in &compressed.waypoints {
            prop_assert!(
                it.any(|r| r == wp),
                "waypoints must be a subsequence of the route"
            );
        }
    }

    /// Planned routes only use predicted links.
    #[test]
    fn routes_follow_graph_edges(g in grid_city(), pair_seed in any::<u64>()) {
        let map = build_map(&g);
        let bg = BuildingGraph::build(&map, BuildingGraphParams::default());
        let mut rng = SimRng::new(pair_seed);
        let n = map.len() as u64;
        let src = rng.below(n) as u32;
        let dst = rng.below(n) as u32;
        let Ok(route) = plan_route(&bg, src, dst) else { return Ok(()) };
        for w in route.windows(2) {
            prop_assert!(bg.graph().has_edge(w[0], w[1]), "route used non-edge {}–{}", w[0], w[1]);
        }
    }

    /// Real compressed routes survive header encoding exactly, in both
    /// encodings.
    #[test]
    fn real_routes_survive_wire_encoding(g in grid_city(), pair_seed in any::<u64>(), delta in any::<bool>()) {
        let map = build_map(&g);
        let bg = BuildingGraph::build(&map, BuildingGraphParams::default());
        let mut rng = SimRng::new(pair_seed);
        let n = map.len() as u64;
        let src = rng.below(n) as u32;
        let dst = rng.below(n) as u32;
        let Ok(route) = plan_route(&bg, src, dst) else { return Ok(()) };
        let compressed = compress_route(&bg, &route, 50.0).unwrap();
        let mut header = CityMeshHeader::new(pair_seed, 50.0, compressed.waypoints.clone());
        if delta {
            header.encoding = citymesh_net::RouteEncoding::Delta;
        }
        let mut w = BitWriter::new();
        header.encode(&mut w).unwrap();
        let bytes = w.into_bytes();
        let decoded = CityMeshHeader::decode(&mut BitReader::new(&bytes)).unwrap();
        prop_assert_eq!(decoded.waypoints, compressed.waypoints);
    }

    /// AP placement invariants on random densities: every AP inside
    /// its building, ids sequential, every building populated.
    #[test]
    fn placement_invariants(g in grid_city(), density in 50.0..2000.0f64, seed in any::<u64>()) {
        let map = build_map(&g);
        let mut rng = SimRng::new(seed);
        let aps = place_aps(&map, density, &mut rng);
        prop_assert!(aps.len() >= map.len(), "min one AP per building");
        let mut populated = vec![false; map.len()];
        for (i, ap) in aps.iter().enumerate() {
            prop_assert_eq!(ap.id as usize, i);
            let b = map.building(ap.building).unwrap();
            prop_assert!(b.footprint.contains(ap.pos));
            populated[ap.building as usize] = true;
        }
        prop_assert!(populated.iter().all(|p| *p));
    }

    /// Scratch reuse is bit-for-bit equivalent to fresh allocation:
    /// replaying the same flows through one dirtied `DeliveryScratch`
    /// must reproduce every `PairOutcome` the allocate-per-call
    /// `simulate_flow` path yields, on any random city. This is the
    /// contract that lets the fleet engine reuse one scratch per
    /// worker without perturbing the fleet digest.
    #[test]
    fn scratch_reuse_equals_fresh_allocation(
        g in grid_city(),
        world_seed in any::<u64>(),
        pair_seed in any::<u64>(),
        loss in 0.0..0.4f64,
    ) {
        let map = build_map(&g);
        let exp = CityExperiment::prepare(
            map,
            ExperimentConfig {
                seed: world_seed,
                reception_loss: loss,
                reachability_pairs: 10,
                delivery_pairs: 4,
                ..ExperimentConfig::default()
            },
        );
        let n = exp.map().len() as u64;
        let mut pick = SimRng::new(pair_seed);
        let mut scratch = DeliveryScratch::new();
        for i in 0..6u64 {
            let src = pick.below(n) as u32;
            let dst = pick.below(n) as u32;
            let plan = exp.plan_flow(src, dst);
            let msg_id = 0x5EED_0000 + i;
            // Same RNG stream for both paths: equivalence must hold
            // draw-for-draw, not just in distribution.
            let mut rng_fresh = SimRng::new(pair_seed ^ i);
            let mut rng_scratch = rng_fresh.clone();
            let fresh = exp.simulate_flow(&plan, msg_id, &mut rng_fresh);
            let reused = exp.simulate_flow_with(&plan, msg_id, &mut rng_scratch, &mut scratch);
            prop_assert_eq!(&fresh, &reused, "flow {} diverged under scratch reuse", i);
            prop_assert_eq!(rng_fresh.below(u64::MAX), rng_scratch.below(u64::MAX),
                "RNG streams desynchronized on flow {}", i);
        }
    }

    /// The goal-directed A* behind `plan_route` is optimal: its path
    /// cost equals the full-Dijkstra distance. Grid cities matter here
    /// — their uniform pitch produces *exact* floating-point cost
    /// ties, the regime where an inadmissible heuristic or sloppy
    /// tie-breaking would first surface as a longer route.
    #[test]
    fn plan_route_cost_is_optimal(
        g in grid_city(),
        pair_seed in any::<u64>(),
        exponent in 1.0..4.0f64,
    ) {
        let map = build_map(&g);
        let params = BuildingGraphParams { max_gap_m: 40.0, weight_exponent: exponent };
        let bg = BuildingGraph::build(&map, params);
        let mut rng = SimRng::new(pair_seed);
        let n = map.len() as u64;
        let src = rng.below(n) as u32;
        let dst = rng.below(n) as u32;
        let truth = citymesh_reference::dijkstra(bg.graph(), src);
        match plan_route(&bg, src, dst) {
            Ok(route) => {
                prop_assert_eq!(route[0], src);
                prop_assert_eq!(*route.last().unwrap(), dst);
                let mut cost = 0.0;
                for w in route.windows(2) {
                    let e = bg.graph().neighbors(w[0]).iter().find(|e| e.to == w[1]);
                    prop_assert!(e.is_some(), "route used non-edge {}–{}", w[0], w[1]);
                    cost += e.unwrap().weight;
                }
                let best = truth.dist[dst as usize];
                prop_assert!(
                    (cost - best).abs() <= 1e-9 * best.max(1.0),
                    "A* route cost {} is not the shortest distance {}", cost, best
                );
            }
            Err(_) => prop_assert!(
                truth.dist[dst as usize].is_infinite(),
                "plan_route failed on a connected pair"
            ),
        }
    }

    /// Planning into one dirtied `PlanScratch` + reused `PlannedFlow`
    /// is field-for-field equivalent to a fresh `plan_flow`, and the
    /// resulting plans simulate identically draw-for-draw — including
    /// under faults, where the lazy recovery rungs
    /// (widen, replan-around-casualties) are exercised. This is the
    /// contract that lets the fleet engine plan through one scratch
    /// per worker without perturbing any digest.
    #[test]
    fn plan_scratch_reuse_equals_fresh_plan(
        g in grid_city(),
        world_seed in any::<u64>(),
        pair_seed in any::<u64>(),
        failure_p in 0.0..0.35f64,
    ) {
        let map = build_map(&g);
        let scenario = FaultScenario::iid(failure_p);
        let exp = CityExperiment::prepare(
            map,
            ExperimentConfig {
                seed: world_seed,
                reachability_pairs: 10,
                delivery_pairs: 4,
                faults: Some(scenario),
                ..ExperimentConfig::default()
            },
        );
        let n = exp.map().len() as u64;
        let mut pick = SimRng::new(pair_seed);
        let mut plan_scratch = PlanScratch::new();
        let mut reused = PlannedFlow::empty(0, 0);
        let mut sim_scratch = DeliveryScratch::new();
        for i in 0..6u64 {
            let src = pick.below(n) as u32;
            let dst = pick.below(n) as u32;
            let fresh = exp.plan_flow(src, dst);
            exp.plan_flow_into(src, dst, &mut plan_scratch, &mut reused);
            prop_assert_eq!(fresh.src, reused.src);
            prop_assert_eq!(fresh.dst, reused.dst);
            prop_assert_eq!(fresh.reachable, reused.reachable);
            prop_assert_eq!(fresh.route_len, reused.route_len);
            prop_assert_eq!(&fresh.waypoints, &reused.waypoints);
            prop_assert_eq!(&fresh.conduits, &reused.conduits);
            prop_assert_eq!(fresh.covered(), reused.covered());
            prop_assert_eq!(fresh.route_bits, reused.route_bits);
            prop_assert_eq!(fresh.src_ap, reused.src_ap);
            prop_assert_eq!(fresh.ideal_hops, reused.ideal_hops);
            let msg_id = 0x5EED_1000 + i;
            let mut rng_fresh = SimRng::new(pair_seed ^ i);
            let mut rng_reused = rng_fresh.clone();
            let out_fresh = exp.simulate_flow(&fresh, msg_id, &mut rng_fresh);
            let out_reused =
                exp.simulate_flow_with(&reused, msg_id, &mut rng_reused, &mut sim_scratch);
            prop_assert_eq!(&out_fresh, &out_reused, "flow {} diverged under plan reuse", i);
        }
    }

    /// Building-graph symmetry: edges are undirected and weights obey
    /// the configured exponent against centroid distances.
    #[test]
    fn building_graph_weight_law(g in grid_city(), exponent in 1.0..4.0f64) {
        let map = build_map(&g);
        let params = BuildingGraphParams { max_gap_m: 40.0, weight_exponent: exponent };
        let bg = BuildingGraph::build(&map, params);
        for u in 0..map.len() as u32 {
            for e in bg.graph().neighbors(u) {
                prop_assert!(bg.graph().has_edge(e.to, u), "undirected symmetry");
                let d = bg.centroid(u).dist(bg.centroid(e.to)).max(1.0);
                let expect = d.powf(exponent);
                prop_assert!(
                    (e.weight - expect).abs() <= 1e-6 * expect.max(1.0),
                    "weight law violated: {} vs {}", e.weight, expect
                );
            }
        }
    }
}
