//! Core's production paths against the allocating references in
//! `citymesh-reference`: the building graph's ALT landmark table
//! against a textbook Dijkstra, production detours against the
//! set-filtered reference detour, and ideal hops against a full BFS.

use std::collections::HashSet;

use citymesh_core::{
    plan_route, plan_route_avoiding_into, Ap, ApGraph, BuildingGraph, BuildingGraphParams,
    HopScratch, RouteError, Survivors,
};
use citymesh_geo::{Point, Polygon, Rect};
use citymesh_graph::{CsrGraph, PlannerScratch};
use citymesh_map::{CityArchetype, CityMap};
use citymesh_reference::{bfs, dijkstra, plan_route_avoiding};
use citymesh_simcore::SimRng;
use proptest::prelude::*;

fn square_at(x: f64, y: f64, side: f64) -> Polygon {
    Polygon::rect(Rect::from_corners(
        Point::new(x, y),
        Point::new(x + side, y + side),
    ))
}

/// Asserts every column of `bg`'s landmark table is the reference
/// Dijkstra's distance array from that column's landmark, bit for bit,
/// and returns the number of landmarks. Edge weights are at least 1, so
/// the landmark is the one building at distance 0.
fn assert_landmarks_equal_reference(bg: &BuildingGraph) -> usize {
    let n = bg.len() as u32;
    let k = bg.landmark_costs(0).len();
    for ki in 0..k {
        let column: Vec<f64> = (0..n).map(|v| bg.landmark_costs(v)[ki]).collect();
        let zeros: Vec<u32> = (0..n).filter(|&v| column[v as usize] == 0.0).collect();
        assert_eq!(zeros.len(), 1, "landmark {ki} has one source: {zeros:?}");
        let reference = dijkstra(bg.graph(), zeros[0]).dist;
        for v in 0..n as usize {
            assert_eq!(
                column[v].to_bits(),
                reference[v].to_bits(),
                "landmark {ki} (building {}), building {v}: {} vs {}",
                zeros[0],
                column[v],
                reference[v]
            );
        }
    }
    k
}

/// A `cols × rows` lattice with some buildings removed (at least one
/// always remains) and `stray` buildings 1 km east: islands of every
/// size, so some landmarks see some buildings at infinity.
fn grid_city(
    cols: usize,
    rows: usize,
    pitch: f64,
    removal: f64,
    stray: usize,
    seed: u64,
) -> CityMap {
    let mut rng = SimRng::new(seed);
    let mut footprints = Vec::new();
    for y in 0..rows {
        for x in 0..cols {
            if !footprints.is_empty() && rng.chance(removal) {
                continue;
            }
            let side = rng.uniform_range(8.0, 16.0);
            footprints.push(square_at(x as f64 * pitch, y as f64 * pitch, side));
        }
    }
    for i in 0..stray {
        footprints.push(square_at(1_000.0 + i as f64 * 30.0, 0.0, 12.0));
    }
    CityMap::new("landmark-grid", footprints, vec![])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The landmark table is the reference Dijkstra's, bit for bit, on
    /// random cities (exact-tie grids, holes, islands) at every weight
    /// exponent the planner admits.
    #[test]
    fn landmark_table_equals_reference_dijkstra_on_random_cities(
        (cols, rows) in (1usize..12, 1usize..9),
        pitch in 22.0..45.0f64,
        removal in 0.0..0.4f64,
        stray in 0usize..4,
        exponent in 1.0..4.0f64,
        seed in any::<u64>(),
    ) {
        let map = grid_city(cols, rows, pitch, removal, stray, seed);
        let params = BuildingGraphParams { max_gap_m: 40.0, weight_exponent: exponent };
        assert_landmarks_equal_reference(&BuildingGraph::build(&map, params));
    }
}

/// The benchmark's downtown (`SurveyDowntown` at world seed 2024, every
/// `citymesh-perf` workload but the metro): all eight landmark columns.
#[test]
fn landmark_table_equals_reference_dijkstra_on_the_benchmark_downtown() {
    let map = CityArchetype::SurveyDowntown.generate(2024);
    let bg = BuildingGraph::build(&map, BuildingGraphParams::default());
    assert_eq!(bg.len(), 530);
    assert_eq!(assert_landmarks_equal_reference(&bg), 8);
}

#[test]
fn production_detours_equal_the_reference() {
    // A 3×3 grid of buildings; block the center column's middle
    // and the route must arc around it.
    let mut footprints = Vec::new();
    for y in 0..3 {
        for x in 0..3 {
            footprints.push(square_at(x as f64 * 30.0, y as f64 * 30.0, 10.0));
        }
    }
    let map = CityMap::new("grid3", footprints, vec![]);
    let bg = BuildingGraph::build(
        &map,
        BuildingGraphParams {
            max_gap_m: 25.0,
            weight_exponent: 3.0,
        },
    );
    // West-middle → east-middle; center building sits between.
    let west = map.nearest_building(Point::new(5.0, 35.0)).unwrap().id;
    let east = map.nearest_building(Point::new(65.0, 35.0)).unwrap().id;
    let center = map.nearest_building(Point::new(35.0, 35.0)).unwrap().id;
    let direct = plan_route(&bg, west, east).unwrap();
    assert!(direct.contains(&center), "cheapest route passes the center");
    let blocked: HashSet<u32> = [center].into_iter().collect();
    let detour = plan_route_avoiding(&bg, west, east, &blocked).unwrap();
    assert!(!detour.contains(&center));
    assert!(detour.len() > direct.len(), "the detour is longer");
    // Blocking the whole middle column severs the grid.
    let all_mid: HashSet<u32> = map
        .buildings()
        .iter()
        .filter(|b| (b.centroid.x - 35.0).abs() < 10.0)
        .map(|b| b.id)
        .collect();
    let cut = Err(RouteError::NoPredictedPath {
        src: west,
        dst: east,
    });
    assert_eq!(plan_route_avoiding(&bg, west, east, &all_mid), cut);

    // The production detour: same routes, and the labels refuse the
    // severed pair before any search.
    let (mut scratch, mut out) = (PlannerScratch::new(), Vec::new());
    let one = Survivors::new(&bg, blocked.iter().copied());
    assert!(one.connects(&bg, west, east));
    plan_route_avoiding_into(&bg, west, east, &one, &mut scratch, &mut out).unwrap();
    assert_eq!(out, detour);
    let column = Survivors::new(&bg, all_mid.iter().copied());
    assert!(!column.connects(&bg, west, east));
    assert_eq!(
        plan_route_avoiding_into(&bg, west, east, &column, &mut scratch, &mut out).map(|()| vec![]),
        cut
    );
    // Endpoints are exempt: a dark building reaches its live
    // neighbour, and a dark neighbour by their direct edge alone.
    let north = map.nearest_building(Point::new(35.0, 65.0)).unwrap().id;
    assert!(column.connects(&bg, center, west) && column.connects(&bg, north, center));
    // Flipping memberships one event at a time ends where a rebuild
    // starts; an event that flips none reports so.
    let mut grown = one.clone();
    assert!(grown.update(&bg, all_mid.iter().map(|&b| (b, true))));
    assert_eq!(grown, column);
    assert!(!grown.update(&bg, [(center, true)]));
    assert!(grown.update(&bg, column.blocked().iter().map(|&b| (b, b == center))));
    assert_eq!(grown, one);
}

#[test]
fn ideal_hops_match_full_bfs() {
    // Two clusters 40 m apart internally, 500 m between clusters.
    let aps: Vec<Ap> = [(0.0, 0), (40.0, 0), (80.0, 1), (500.0, 2), (540.0, 2)]
        .into_iter()
        .enumerate()
        .map(|(id, (x, building))| Ap {
            id: id as u32,
            pos: Point::new(x, 0.0),
            building,
        })
        .collect();
    let g = ApGraph::build(&aps, 50.0);
    // The two clusters' links, written out by hand.
    let links = CsrGraph::from_edges(5, &[(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)]);
    let mut scratch = HopScratch::new();
    for src in 0..5u32 {
        let result = bfs(&links, src);
        for b in 0..4u32 {
            let best = (0..g.len())
                .filter(|&id| g.building_of(id as u32) == b)
                .map(|id| result.dist[id])
                .fold(f64::INFINITY, f64::min);
            let full = best.is_finite().then_some(best as u64);
            assert_eq!(
                g.ideal_hops_to_building_with(src, b, &mut scratch),
                full,
                "src={src} building={b}"
            );
        }
    }
}
