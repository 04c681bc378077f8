//! Differential oracle for route planning.
//!
//! Both planners are optimised searches: the flat one is an A* under
//! an ALT + Euclidean bound over reused scratch, the hierarchical one
//! ([`HierPlanner`]) an overlay search over precomputed distance
//! tables whose legs are table walks. The reference below is neither:
//! a textbook Dijkstra over the building graph's adjacency that
//! allocates its distance array and heap per query, knows no
//! heuristic, no landmark and no district, and skips blocked buildings
//! by looking them up in the set. All three must agree on whether a
//! route exists and on its **cost** (to 1e-9 relative: they sum the
//! same weights in different orders); which of several equal-cost
//! routes a planner returns is its own business.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use citymesh_core::{
    plan_route_avoiding_into, BuildingGraph, BuildingGraphParams, CityExperiment, ExperimentConfig,
    HierParams, HierPlanScratch, HierPlanner, RouteError,
};
use citymesh_fleet::{generate_flows, FlowModel, WorkloadConfig};
use citymesh_geo::{Point, Polygon, Rect};
use citymesh_graph::PlannerScratch;
use citymesh_map::{generate_metro, CityArchetype, CityMap, MetroParams};
use citymesh_simcore::SimRng;
use proptest::prelude::*;

/// The reference: cheapest `src → dst` cost avoiding `blocked`
/// (endpoints exempt), or `None` when there is no such route.
fn oracle_cost(bg: &BuildingGraph, src: u32, dst: u32, blocked: &HashSet<u32>) -> Option<f64> {
    let g = bg.graph();
    let mut dist = vec![f64::INFINITY; bg.len()];
    let mut done = vec![false; bg.len()];
    // Costs are non-negative, so their bit patterns order as they do.
    let mut heap = BinaryHeap::new();
    dist[src as usize] = 0.0;
    heap.push(Reverse((0.0f64.to_bits(), src)));
    while let Some(Reverse((_, u))) = heap.pop() {
        if std::mem::replace(&mut done[u as usize], true) {
            continue;
        }
        if u == dst {
            return Some(dist[u as usize]);
        }
        for e in g.neighbors(u) {
            if e.to != dst && e.to != src && blocked.contains(&e.to) {
                continue;
            }
            let nd = dist[u as usize] + e.weight;
            if nd < dist[e.to as usize] {
                dist[e.to as usize] = nd;
                heap.push(Reverse((nd.to_bits(), e.to)));
            }
        }
    }
    None
}

/// Cost of `route`, which must run `src → dst` over real edges and
/// through no blocked building.
fn checked_cost(
    bg: &BuildingGraph,
    route: &[u32],
    src: u32,
    dst: u32,
    blocked: &HashSet<u32>,
) -> f64 {
    assert_eq!((route[0], *route.last().unwrap()), (src, dst));
    for &b in route.iter().filter(|&&b| b != src && b != dst) {
        assert!(!blocked.contains(&b), "route crosses blocked building {b}");
    }
    let hop = |w: &[u32]| {
        let edges = bg.graph().neighbors(w[0]).iter().filter(|e| e.to == w[1]);
        let cost = edges.map(|e| e.weight).fold(f64::INFINITY, f64::min);
        assert!(cost.is_finite(), "{} -> {} is not an edge", w[0], w[1]);
        cost
    };
    route.windows(2).map(hop).sum()
}

/// One city under test with both planners' scratch, warm across every
/// query made of it.
struct Bench {
    bg: BuildingGraph,
    planner: HierPlanner,
    flat: PlannerScratch,
    hier: HierPlanScratch,
    route: Vec<u32>,
}

impl Bench {
    fn new(map: &CityMap, district_size: usize) -> Self {
        let bg = BuildingGraph::build(map, BuildingGraphParams::default());
        let params = HierParams {
            target_district_size: district_size,
            ..HierParams::default()
        };
        Bench {
            planner: HierPlanner::build(&bg, &params),
            bg,
            flat: PlannerScratch::new(),
            hier: HierPlanScratch::new(),
            route: Vec::new(),
        }
    }

    fn district_of(&self, b: u32) -> u32 {
        self.planner.hierarchy().partition().district_of(b)
    }

    /// Whether `b` has a predicted link into another district.
    fn is_border(&self, b: u32) -> bool {
        let edges = self.bg.graph().neighbors(b).iter();
        edges
            .map(|e| self.district_of(e.to))
            .any(|d| d != self.district_of(b))
    }

    /// Flat ≡ hier ≡ oracle for one query; returns the hierarchical
    /// route when there is one.
    fn check(&mut self, src: u32, dst: u32, blocked: &HashSet<u32>) -> Option<&[u32]> {
        let want = oracle_cost(&self.bg, src, dst, blocked);
        let what = format!("{src} -> {dst}, {} blocked", blocked.len());
        let bg = &self.bg;
        let flat = plan_route_avoiding_into(bg, src, dst, blocked, &mut self.flat, &mut self.route);
        let flat_cost = flat.map(|()| checked_cost(bg, &self.route, src, dst, blocked));
        let hier = self.planner.plan_route_avoiding_into(
            bg,
            src,
            dst,
            blocked,
            &mut self.hier,
            &mut self.route,
        );
        let hier_cost = hier.map(|()| checked_cost(bg, &self.route, src, dst, blocked));
        for (planner, got) in [("flat", flat_cost), ("hier", hier_cost)] {
            match (want, got) {
                (Some(w), Ok(c)) => assert!(
                    (w - c).abs() <= 1e-9 * w.max(1.0),
                    "{what}: {planner} cost {c}, oracle {w}"
                ),
                (None, Err(e)) => assert_eq!(e, RouteError::NoPredictedPath { src, dst }),
                (w, g) => panic!("{what}: {planner} says {g:?}, oracle {w:?}"),
            }
        }
        if src == dst {
            assert_eq!(self.route, [src]);
        }
        want.map(|_| self.route.as_slice())
    }
}

fn rect_at(x: f64, y: f64, w: f64, h: f64) -> Polygon {
    Polygon::rect(Rect::from_corners(
        Point::new(x, y),
        Point::new(x + w, y + h),
    ))
}

/// A `cols × rows` lattice of buildings of mixed size with some
/// removed — the holes bend districts into hooks a route must leave to
/// get around — plus `stray` buildings 1 km east, an island.
fn grid_with_island(
    cols: usize,
    rows: usize,
    pitch: f64,
    removal: f64,
    stray: usize,
    seed: u64,
) -> CityMap {
    let mut rng = SimRng::new(seed);
    let mut footprints = vec![rect_at(0.0, 0.0, 12.0, 12.0)];
    for y in 0..rows {
        for x in 0..cols {
            if (x, y) == (0, 0) || rng.chance(removal) {
                continue;
            }
            let side = rng.uniform_range(10.0, 20.0);
            footprints.push(rect_at(x as f64 * pitch, y as f64 * pitch, side, side));
        }
    }
    for i in 0..stray {
        footprints.push(rect_at(1_000.0 + i as f64 * 30.0, 0.0, 14.0, 14.0));
    }
    CityMap::new("route-oracle-grid", footprints, vec![])
}

/// What a batch of checked queries exercised.
#[derive(Debug, Default)]
struct Seen {
    routed: usize,
    unroutable: usize,
    border_endpoint: usize,
    /// Same-district pairs whose route visits another district.
    left_and_returned: usize,
}

/// Every ordered pair of `bench`'s city (the diagonal included),
/// healthy.
fn check_all_pairs(bench: &mut Bench, seen: &mut Seen) {
    let n = bench.bg.len() as u32;
    let nothing = HashSet::new();
    let district: Vec<u32> = (0..n).map(|b| bench.district_of(b)).collect();
    let border: Vec<bool> = (0..n).map(|b| bench.is_border(b)).collect();
    for src in 0..n {
        for dst in 0..n {
            let (ds, dt) = (district[src as usize], district[dst as usize]);
            match bench.check(src, dst, &nothing) {
                Some(route) => {
                    seen.routed += 1;
                    seen.border_endpoint +=
                        usize::from(border[src as usize] || border[dst as usize]);
                    let strayed = route.iter().any(|&b| district[b as usize] != ds);
                    seen.left_and_returned += usize::from(ds == dt && strayed);
                }
                None => seen.unroutable += 1,
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Healthy: all pairs of random small cities — `src == dst`,
    /// endpoints that are border nodes, neighbours, pairs across the
    /// island gap.
    #[test]
    fn planners_equal_the_oracle_on_every_pair(
        (cols, rows) in (2usize..8, 2usize..7),
        pitch in 25.0..50.0f64,
        removal in 0.0..0.35f64,
        stray in 0usize..3,
        district_size in 4usize..20,
        seed in any::<u64>(),
    ) {
        let map = grid_with_island(cols, rows, pitch, removal, stray, seed);
        let mut bench = Bench::new(&map, district_size);
        check_all_pairs(&mut bench, &mut Seen::default());
        prop_assert_eq!(bench.hier.floods(), 0, "healthy queries flooded a district");
    }

    /// Faulted: random blocked sets that may include the endpoints
    /// (exempt) and, every other case, one whole district.
    #[test]
    fn planners_equal_the_oracle_around_blocked_buildings(
        (cols, rows) in (3usize..10, 3usize..8),
        pitch in 25.0..50.0f64,
        removal in 0.0..0.25f64,
        district_size in 4usize..20,
        block_p in 0.0..0.3f64,
        whole_district in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let map = grid_with_island(cols, rows, pitch, removal, 2, seed);
        let mut bench = Bench::new(&map, district_size);
        let mut rng = SimRng::new(seed ^ 0xB10C);
        let n = map.len() as u64;
        for _ in 0..12 {
            let src = rng.below(n) as u32;
            let dst = rng.below(n) as u32;
            let gone = bench.district_of(rng.below(n) as u32);
            let blocked: HashSet<u32> = (0..n as u32)
                .filter(|&b| rng.chance(block_p) || (whole_district && bench.district_of(b) == gone))
                .collect();
            bench.check(src, dst, &blocked);
        }
    }
}

/// Fixed cities whose all-pairs sweep is known to reach the corners a
/// random draw may miss, with the counts to prove it did.
#[test]
fn the_sweep_reaches_detours_borders_and_islands() {
    let mut seen = Seen::default();
    for seed in 1..=6 {
        let map = grid_with_island(7, 6, 34.0, 0.3, 2, seed);
        check_all_pairs(&mut Bench::new(&map, 6), &mut seen);
    }
    assert!(seen.routed > 3_000 && seen.unroutable > 300, "{seen:?}");
    assert!(seen.border_endpoint > 1_000, "{seen:?}");
    assert!(seen.left_and_returned > 0, "{seen:?}");
}

/// The river archetype: several predicted islands of real size, pairs
/// across the water unroutable, healthy and with a tenth of the
/// buildings blocked.
#[test]
fn planners_equal_the_oracle_across_a_river() {
    for seed in 1..=3 {
        let map = CityArchetype::SurveyRiver.generate(seed);
        let mut bench = Bench::new(&map, 24);
        let mut rng = SimRng::new(seed ^ 0x51);
        let n = map.len() as u64;
        let (mut routed, mut cut) = (0, 0);
        for i in 0..120 {
            let src = rng.below(n) as u32;
            let dst = rng.below(n) as u32;
            let blocked: HashSet<u32> = (0..n as u32)
                .filter(|_| i % 2 == 1 && rng.chance(0.1))
                .collect();
            match bench.check(src, dst, &blocked) {
                Some(_) => routed += 1,
                None => cut += 1,
            }
        }
        assert!(
            routed > 20 && cut > 5,
            "seed {seed}: {routed} routed, {cut} cut"
        );
    }
}

/// The work guard: on a one-tile metro, healthy queries — cross- and
/// same-district — run no whole-district search at all; their endpoint
/// distances and legs are read from the tables the build kept. A count,
/// so it holds on every machine. One blocked building then shows the
/// counter is live.
#[test]
fn healthy_queries_search_no_district() {
    let map = generate_metro(&MetroParams::with_tiles(1, 1), 2024);
    let mut bench = Bench::new(&map, HierParams::default().target_district_size);
    let mut rng = SimRng::new(7);
    let n = map.len() as u64;
    let nothing = HashSet::new();
    let (mut routed, mut longest) = (0, Vec::new());
    for _ in 0..200 {
        let (src, dst) = (rng.below(n) as u32, rng.below(n) as u32);
        if let Some(route) = bench.check(src, dst, &nothing) {
            routed += 1;
            if route.len() > longest.len() {
                longest = route.to_vec();
            }
        }
    }
    let stats = bench.hier.stats();
    assert_eq!(stats.queries, 200);
    assert!(routed > 150 && stats.expansions > 0 && stats.direct_routes < 150);
    assert_eq!((bench.hier.floods(), stats.dirty_rescans), (0, 0));

    let blocked = HashSet::from([longest[longest.len() / 2]]);
    bench.check(longest[0], *longest.last().unwrap(), &blocked);
    assert!(bench.hier.floods() > 0, "a dirty district must be searched");
}

/// The benchmark's own queries: on every `UniformPairs` seed-1 pair of
/// the 2×2 metro that `metro-hier` plans, the hierarchical route is the
/// flat route vertex for vertex (cubed-distance weights over jittered
/// geometry leave no exact ties to break differently). Release only
/// (CI's `figures` job runs it).
#[test]
#[cfg_attr(debug_assertions, ignore = "metro-scale: run with --release")]
fn metro_benchmark_routes_equal_the_flat_planner() {
    let map = generate_metro(&MetroParams::with_tiles(2, 2), 2024);
    let config = ExperimentConfig {
        seed: 2024,
        ..ExperimentConfig::default()
    };
    let mut exp = CityExperiment::try_prepare(map, config).expect("default config is valid");
    exp.enable_hier(&HierParams::default());
    let (bg, planner) = (exp.building_graph(), exp.hier_planner().expect("enabled"));
    let flows = generate_flows(
        exp.map().len(),
        &WorkloadConfig {
            flows: 3_000,
            model: FlowModel::UniformPairs { rate_hz: 1_000.0 },
            seed: 1,
        },
    );
    let (mut flat_scratch, mut hier_scratch) = (PlannerScratch::new(), HierPlanScratch::new());
    let (mut flat, mut hier) = (Vec::new(), Vec::new());
    let nothing = HashSet::new();
    let mut routed = 0;
    for f in &flows {
        let a = plan_route_avoiding_into(bg, f.src, f.dst, &nothing, &mut flat_scratch, &mut flat);
        let b = planner.plan_route_into(bg, f.src, f.dst, &mut hier_scratch, &mut hier);
        assert_eq!(a, b, "flow {}: {} -> {}", f.id, f.src, f.dst);
        assert_eq!(flat, hier, "flow {}: {} -> {}", f.id, f.src, f.dst);
        routed += usize::from(a.is_ok());
    }
    assert!(routed > 2_900, "only {routed} flows found a route");
    assert_eq!(hier_scratch.floods(), 0);
}
