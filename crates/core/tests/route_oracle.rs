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
//! routes a planner returns is its own business. The hierarchy plans on
//! the healthy map only (a sender always plans on the cached map), so
//! around blocked buildings only the flat detour is held to the oracle.
//!
//! Detours are held to more. What production plans around dark
//! buildings ([`plan_route_avoiding_into`]: dense mask, reused scratch,
//! refused up front when the surviving-component labels show no route)
//! must equal the allocating reference [`plan_route_avoiding`] vertex
//! for vertex and error for error, and [`Survivors::connects`] must say
//! "no" on exactly the pairs the reference exhausts its search on. On
//! the `churn-ladder` benchmark's own world the counters then show the
//! labels refusing every pathless detour, with the run's digest equal
//! to a ladder that plans its detours with the reference.
//!
//! So is the flat planner's second route source. Once a source has been
//! asked sixteen times [`plan_route_into`] answers it by walking a
//! stored shortest-path row instead of searching; the walk must return
//! the search's route vertex for vertex and its error for error, both
//! must equal the reference tree's route wherever that tree is the only
//! cheapest one, and a source with equal-cost routes to choose between
//! must never get a row.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use citymesh_core::faults::WIDEN_FACTOR;
use citymesh_core::sim::HORIZON;
use citymesh_core::{
    compress_route, plan_route_avoiding_into, plan_route_into, reconstruct_conduits,
    simulate_delivery_faulted, BuildingGraph, BuildingGraphParams, CityExperiment, CoveredSet,
    DeliveryScratch, ExperimentConfig, FaultScenario, HierParams, HierPlanScratch, HierPlanner,
    OverheadOutcome, PairOutcome, PlannedFlow, RebroadcastScope, RecoveryStage, Relays,
    RetryPolicy, RouteError, Survivors,
};
use citymesh_dynamics::{
    try_run_churn, ChurnConfig, ChurnEngineConfig, ChurnReport, EpochStat, InvalidationPolicy,
    Strategy as Churn, Timeline,
};
use citymesh_fleet::{
    generate_flows, FleetReport, FlowModel, FlowSpec, WorkloadConfig, DOMAIN_MSG, DOMAIN_SIM,
};
use citymesh_geo::{Point, Polygon, Rect};
use citymesh_graph::{astar_path_filtered_into, PlannerScratch};
use citymesh_map::{generate_metro, CityArchetype, CityMap, MetroParams};
use citymesh_net::{CityMeshHeader, MAX_CONDUIT_WIDTH_M};
use citymesh_reference::plan_route_avoiding;
use citymesh_simcore::{split_seed, substream_seed, SimRng, SimTime};
use citymesh_telemetry::{metrics as tm, TelemetryConfig};
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

/// The reference tree: textbook Dijkstra from `src` over everything it
/// reaches, strict improvements only. Returns each building's
/// predecessor (`None` for `src` and the unreached) and whether the
/// tree is one of several — some building has two predecessors that
/// give it the same cost, summed as the planners sum it.
fn oracle_tree(bg: &BuildingGraph, src: u32) -> (Vec<Option<u32>>, bool) {
    let g = bg.graph();
    let mut dist = vec![f64::INFINITY; bg.len()];
    let mut parent = vec![None; bg.len()];
    let mut done = vec![false; bg.len()];
    let mut heap = BinaryHeap::new();
    dist[src as usize] = 0.0;
    heap.push(Reverse((0.0f64.to_bits(), src)));
    while let Some(Reverse((_, u))) = heap.pop() {
        if std::mem::replace(&mut done[u as usize], true) {
            continue;
        }
        for e in g.neighbors(u) {
            let nd = dist[u as usize] + e.weight;
            if nd < dist[e.to as usize] {
                dist[e.to as usize] = nd;
                parent[e.to as usize] = Some(u);
                heap.push(Reverse((nd.to_bits(), e.to)));
            }
        }
    }
    let optimal_predecessors = |v: u32| {
        let into = g.neighbors(v).iter();
        into.filter(|e| dist[e.to as usize] + e.weight == dist[v as usize])
            .count()
    };
    let tied =
        (0..bg.len() as u32).any(|v| dist[v as usize].is_finite() && optimal_predecessors(v) > 1);
    (parent, tied)
}

/// What [`rows_equal_search_equal_reference`] saw of one city.
#[derive(Debug, PartialEq, Eq)]
struct RowSweep {
    /// Ordered pairs with a route / without one.
    routed: usize,
    unroutable: usize,
    /// Sources whose reference tree has an equal-cost alternative.
    tied_sources: usize,
}

/// Every ordered pair of `bg`, three ways: the A* search called
/// directly (the table bypassed — what `plan_route_into` was before it
/// had rows), `plan_route_into` before and after every source has been
/// asked the sixteen times that earn it a row, and the reference tree.
/// The first two must agree on every pair, route for route and error for
/// error; where the reference tree is the only cheapest one it must
/// agree too, and where it is not, no row may exist for that source.
fn rows_equal_search_equal_reference(bg: &BuildingGraph) -> RowSweep {
    let n = bg.len() as u32;
    let (mut scratch, mut route, mut searched) = (PlannerScratch::new(), Vec::new(), Vec::new());
    let mut search = |src: u32, dst: u32, out: &mut Vec<u32>| {
        let h = |v: u32| bg.cost_lower_bound(v, dst);
        let found = astar_path_filtered_into(bg.graph(), src, dst, h, |_| true, &mut scratch, out);
        found
            .then_some(())
            .ok_or(RouteError::NoPredictedPath { src, dst })
    };
    let mut planner = PlannerScratch::new();
    // Cold: fifteen rented searches per source and the request that
    // buys the row.
    for src in 0..n {
        for dst in (0..16).map(|i| (src + i) % n) {
            let planned = plan_route_into(bg, src, dst, &mut planner, &mut route);
            assert_eq!(
                planned,
                search(src, dst, &mut searched),
                "cold {src} -> {dst}"
            );
            assert_eq!(route, searched, "cold {src} -> {dst}");
        }
    }
    let mut seen = RowSweep {
        routed: 0,
        unroutable: 0,
        tied_sources: 0,
    };
    for src in 0..n {
        let (parent, tied) = oracle_tree(bg, src);
        seen.tied_sources += usize::from(tied);
        for dst in 0..n {
            let planned = plan_route_into(bg, src, dst, &mut planner, &mut route);
            assert_eq!(planned, search(src, dst, &mut searched), "{src} -> {dst}");
            assert_eq!(route, searched, "{src} -> {dst}");
            let reachable = dst == src || parent[dst as usize].is_some();
            assert_eq!(planned.is_ok(), reachable, "{src} -> {dst}");
            seen.routed += usize::from(reachable);
            seen.unroutable += usize::from(!reachable);
            if reachable && !tied {
                let mut reference = vec![dst];
                while let Some(before) = parent[*reference.last().unwrap() as usize] {
                    reference.push(before);
                }
                reference.reverse();
                assert_eq!(
                    route, reference,
                    "{src} -> {dst} against the reference tree"
                );
            }
        }
    }
    assert!(
        bg.route_rows_built() <= bg.len() - seen.tied_sources,
        "a source with equal-cost routes got a row: {seen:?}, {} rows",
        bg.route_rows_built()
    );
    seen
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

    /// Flat ≡ oracle for one query, and the flat detour ≡ the reference
    /// detour, labels included; on a healthy map hier ≡ oracle too.
    /// Returns the route when there is one — the hierarchical one when
    /// nothing is dark.
    fn check(&mut self, src: u32, dst: u32, dark: &Dark) -> Option<&[u32]> {
        let Dark { blocked, survivors } = dark;
        let want = oracle_cost(&self.bg, src, dst, blocked);
        let what = format!("{src} -> {dst}, {} blocked", blocked.len());
        let bg = &self.bg;
        let flat =
            plan_route_avoiding_into(bg, src, dst, survivors, &mut self.flat, &mut self.route);
        let reference = plan_route_avoiding(bg, src, dst, blocked);
        assert_eq!(flat.map(|()| self.route.clone()), reference, "{what}");
        assert_eq!(
            survivors.connects(bg, src, dst),
            reference.is_ok(),
            "{what}: labels against the exhaustive search"
        );
        let flat_cost = flat.map(|()| checked_cost(bg, &self.route, src, dst, blocked));
        let mut costs = vec![("flat", flat_cost)];
        if blocked.is_empty() {
            let hier = self
                .planner
                .plan_route_into(bg, src, dst, &mut self.hier, &mut self.route);
            costs.push((
                "hier",
                hier.map(|()| checked_cost(bg, &self.route, src, dst, blocked)),
            ));
        }
        for (planner, got) in costs {
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

/// One blocked set in both forms: the set the references probe and the
/// mask and labels production searches read.
struct Dark {
    blocked: HashSet<u32>,
    survivors: Survivors,
}

impl Dark {
    fn new(bg: &BuildingGraph, blocked: HashSet<u32>) -> Self {
        let survivors = Survivors::new(bg, blocked.iter().copied());
        Dark { blocked, survivors }
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
    /// Pairs a healthy city routes and the blocked set cuts.
    cut_by_the_dark: usize,
    /// Pairs with a dark source.
    dark_src: usize,
    /// Pairs with a dark destination, by its live neighbours: none,
    /// one, several.
    dark_dst_live_neighbours: [usize; 3],
    /// Adjacent pairs, both dark.
    adjacent_dark_pair: usize,
}

/// Every ordered pair of `bench`'s city (the diagonal included) around
/// `blocked`.
fn check_all_pairs(bench: &mut Bench, blocked: HashSet<u32>, seen: &mut Seen) {
    let n = bench.bg.len() as u32;
    let dark = Dark::new(&bench.bg, blocked);
    let healthy = Dark::new(&bench.bg, HashSet::new());
    let district: Vec<u32> = (0..n).map(|b| bench.district_of(b)).collect();
    let border: Vec<bool> = (0..n).map(|b| bench.is_border(b)).collect();
    let live_neighbours: Vec<usize> = (0..n)
        .map(|b| {
            let edges = bench.bg.graph().neighbors(b).iter();
            edges.filter(|e| !dark.blocked.contains(&e.to)).count()
        })
        .collect();
    for src in 0..n {
        for dst in 0..n {
            let (ds, dt) = (district[src as usize], district[dst as usize]);
            let (src_dark, dst_dark) = (dark.blocked.contains(&src), dark.blocked.contains(&dst));
            seen.dark_src += usize::from(src_dark);
            if dst_dark {
                seen.dark_dst_live_neighbours[live_neighbours[dst as usize].min(2)] += 1;
            }
            let adjacent = bench.bg.graph().has_edge(src, dst);
            seen.adjacent_dark_pair += usize::from(src_dark && dst_dark && adjacent);
            match bench.check(src, dst, &dark) {
                Some(route) => {
                    seen.routed += 1;
                    seen.border_endpoint +=
                        usize::from(border[src as usize] || border[dst as usize]);
                    let strayed = route.iter().any(|&b| district[b as usize] != ds);
                    seen.left_and_returned += usize::from(ds == dt && strayed);
                }
                None => {
                    seen.unroutable += 1;
                    if !dark.blocked.is_empty() && healthy.survivors.connects(&bench.bg, src, dst) {
                        seen.cut_by_the_dark += 1;
                    }
                }
            }
        }
    }
}

/// Every building of `map` dark with probability `p`.
fn random_dark(map: &CityMap, p: f64, rng: &mut SimRng) -> HashSet<u32> {
    (0..map.len() as u32).filter(|_| rng.chance(p)).collect()
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
        check_all_pairs(&mut bench, HashSet::new(), &mut Seen::default());
    }

    /// Detours: all pairs again, around a random dark set — dark
    /// sources, dark destinations however many of their neighbours
    /// live, adjacent dark pairs, blocked cut vertices — and around the
    /// two extremes, nothing dark and everything dark.
    #[test]
    fn detours_equal_the_reference_on_every_pair(
        (cols, rows) in (2usize..7, 2usize..6),
        pitch in 25.0..50.0f64,
        removal in 0.0..0.35f64,
        stray in 0usize..3,
        block_p in 0.05..0.6f64,
        seed in any::<u64>(),
    ) {
        let map = grid_with_island(cols, rows, pitch, removal, stray, seed);
        let mut bench = Bench::new(&map, 8);
        let mut rng = SimRng::new(seed ^ 0xDA2C);
        for p in [0.0, block_p, 1.0] {
            check_all_pairs(&mut bench, random_dark(&map, p, &mut rng), &mut Seen::default());
        }
    }

    /// Faulted: random blocked sets that may include the endpoints
    /// (exempt) and, every other case, one whole district.
    #[test]
    fn detours_equal_the_oracle_around_blocked_buildings(
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
            bench.check(src, dst, &Dark::new(&bench.bg, blocked));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Rows: every pair of random small cities with islands, every
    /// source past its sixteenth request.
    #[test]
    fn rows_equal_the_search_on_every_pair(
        (cols, rows) in (2usize..8, 2usize..7),
        pitch in 25.0..50.0f64,
        removal in 0.0..0.35f64,
        stray in 0usize..3,
        seed in any::<u64>(),
    ) {
        let map = grid_with_island(cols, rows, pitch, removal, stray, seed);
        let bg = BuildingGraph::build(&map, BuildingGraphParams::default());
        let seen = rows_equal_search_equal_reference(&bg);
        // Random sides leave no two routes the same cost: every source
        // earned its row, the ones that reach nothing included.
        prop_assert_eq!((seen.tied_sources, bg.route_rows_built()), (0, bg.len()));
    }
}

/// The exact-tie case: equal squares on an exact lattice give every
/// source equal-cost routes to choose between. Every one of them is
/// refused a row, so all 1,296 answers stay the search's — the ones
/// this planner gave before it had a table.
#[test]
fn a_lattice_of_ties_gets_no_rows() {
    let squares =
        (0..36).map(|i| rect_at((i % 6) as f64 * 30.0, (i / 6) as f64 * 30.0, 10.0, 10.0));
    let map = CityMap::new("route-oracle-lattice", squares.collect(), vec![]);
    let bg = BuildingGraph::build(&map, BuildingGraphParams::default());
    let seen = rows_equal_search_equal_reference(&bg);
    assert_eq!(
        seen,
        RowSweep {
            routed: 36 * 36,
            unroutable: 0,
            tied_sources: 36
        }
    );
    assert_eq!(bg.route_rows_built(), 0);
}

/// The benchmark's own city: all 280,900 ordered pairs of the downtown
/// every `citymesh-perf` workload but the metro runs on. Release only
/// (CI's `figures` job runs it).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "280,900 pairs three ways: run with --release"
)]
fn downtown_rows_equal_the_search_on_all_pairs() {
    let map = CityArchetype::SurveyDowntown.generate(2024);
    let bg = BuildingGraph::build(&map, BuildingGraphParams::default());
    assert_eq!(bg.len(), 530);
    let seen = rows_equal_search_equal_reference(&bg);
    assert_eq!(seen.routed + seen.unroutable, 280_900);
    assert_eq!((seen.tied_sources, bg.route_rows_built()), (0, 530));
}

/// Fixed cities whose all-pairs sweep is known to reach the corners a
/// random draw may miss, with the counts to prove it did.
#[test]
fn the_sweep_reaches_detours_borders_and_islands() {
    let mut seen = Seen::default();
    for seed in 1..=6 {
        let map = grid_with_island(7, 6, 34.0, 0.3, 2, seed);
        check_all_pairs(&mut Bench::new(&map, 6), HashSet::new(), &mut seen);
    }
    assert!(seen.routed > 3_000 && seen.unroutable > 300, "{seen:?}");
    assert!(seen.border_endpoint > 1_000, "{seen:?}");
    assert!(seen.left_and_returned > 0, "{seen:?}");
}

/// The same for detours: the dark sets of the sweep wall destinations
/// in, leave them one door or several, darken sources and adjacent
/// pairs, and cut pairs a healthy city connects.
#[test]
fn the_detour_sweep_reaches_walled_in_and_cut_pairs() {
    let mut seen = Seen::default();
    for seed in 1..=6 {
        let map = grid_with_island(7, 6, 34.0, 0.3, 2, seed);
        let mut rng = SimRng::new(seed ^ 0xDA2C);
        for p in [0.2, 0.5] {
            let dark = random_dark(&map, p, &mut rng);
            check_all_pairs(&mut Bench::new(&map, 6), dark, &mut seen);
        }
    }
    assert!(
        seen.routed > 3_000 && seen.cut_by_the_dark > 300,
        "{seen:?}"
    );
    assert!(seen.dark_src > 1_000, "{seen:?}");
    assert!(
        seen.dark_dst_live_neighbours.iter().all(|&n| n > 100),
        "{seen:?}"
    );
    assert!(seen.adjacent_dark_pair > 50, "{seen:?}");
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
            match bench.check(src, dst, &Dark::new(&bench.bg, blocked)) {
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

/// A one-tile metro: 200 random queries, cross- and same-district, equal
/// the oracle, and most of them are answered over the overlay with
/// their legs unpacked from the tables the build kept.
#[test]
fn metro_tile_queries_equal_the_oracle() {
    let map = generate_metro(&MetroParams::with_tiles(1, 1), 2024);
    let mut bench = Bench::new(&map, HierParams::default().target_district_size);
    let mut rng = SimRng::new(7);
    let n = map.len() as u64;
    let nothing = Dark::new(&bench.bg, HashSet::new());
    let mut routed = 0;
    for _ in 0..200 {
        let (src, dst) = (rng.below(n) as u32, rng.below(n) as u32);
        routed += usize::from(bench.check(src, dst, &nothing).is_some());
    }
    let stats = bench.hier.stats();
    assert_eq!(stats.queries, 200);
    assert!(routed > 150 && stats.expansions > 0 && stats.direct_routes < 150);
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
    let mut routed = 0;
    for f in &flows {
        let a = plan_route_into(bg, f.src, f.dst, &mut flat_scratch, &mut flat);
        let b = planner.plan_route_into(bg, f.src, f.dst, &mut hier_scratch, &mut hier);
        assert_eq!(a, b, "flow {}: {} -> {}", f.id, f.src, f.dst);
        assert_eq!(flat, hier, "flow {}: {} -> {}", f.id, f.src, f.dst);
        routed += usize::from(a.is_ok());
    }
    assert!(routed > 2_900, "only {routed} flows found a route");
}

/// `simulate_flow_with`'s retry ladder with nothing kept and nothing
/// reused: every attempt builds its header and conduits afresh and runs
/// on a fresh scratch, on the key the flow body derives for it (every
/// resend is run, none skipped), and the replan rung's detour is the reference
/// [`plan_route_avoiding`] over the fault state's own blocked set.
/// Returns the outcome and, when the flow climbed to the rung that
/// materializes the ladder, whether a detour survives.
fn reference_ladder(
    world: &CityExperiment,
    plan: &PlannedFlow,
    msg_id: u64,
    rng: &mut SimRng,
) -> (PairOutcome, Option<bool>) {
    let mut outcome = PairOutcome::from_plan(plan);
    let (true, Some(src_ap)) = (plan.route_found(), plan.src_ap) else {
        return (outcome, None);
    };
    let flow_key = rng.next_u64();
    let faults = world.fault_state().expect("the churn world is faulted");
    let (policy, cfg) = (faults.retry(), world.config());
    assert_eq!(cfg.scope, RebroadcastScope::Building);
    let loss = cfg.reception_loss;
    let width = cfg.conduit_width_m;
    // `Some(Err)` once a search has exhausted the source's island.
    let mut detour: Option<Result<Vec<u32>, RouteError>> = None;
    let mut penalty = SimTime::ZERO;
    while outcome.attempts < policy.max_attempts {
        outcome.attempts += 1;
        if outcome.attempts >= 3 && detour.is_none() {
            let (src, dst) = (plan.src, plan.delivery_dst());
            let blocked: HashSet<u32> = faults.blocked_buildings().collect();
            detour = Some(plan_route_avoiding(
                world.building_graph(),
                src,
                dst,
                &blocked,
            ));
        }
        let resend = (RecoveryStage::Resend, width, plan.waypoints.clone());
        let (stage, width, waypoints) = match (outcome.attempts, &detour) {
            (1, _) => (RecoveryStage::First, width, plan.waypoints.clone()),
            (3, _) if WIDEN_FACTOR > 1.0 => {
                let wide = (width * WIDEN_FACTOR).min(MAX_CONDUIT_WIDTH_M);
                (RecoveryStage::Widen, wide, plan.waypoints.clone())
            }
            (4.., Some(Ok(route))) if route != plan.primary_route() => {
                let compressed = compress_route(world.building_graph(), route, width);
                let compressed = compressed.expect("a found route is not empty");
                (RecoveryStage::Replan, width, compressed.waypoints)
            }
            _ => resend,
        };
        let header = CityMeshHeader::new(msg_id, width, waypoints);
        let conduits =
            reconstruct_conduits(world.map(), &header.waypoints, header.conduit_width_m());
        let mut scratch = DeliveryScratch::new();
        let report = simulate_delivery_faulted(
            world.ap_graph(),
            &header,
            Relays::Covered(&CoveredSet::of(world.map(), &conduits)),
            src_ap,
            loss,
            Some(faults),
            split_seed(flow_key, u64::from(outcome.attempts)),
            &mut scratch,
        );
        outcome.broadcasts += report.broadcasts;
        if report.delivered {
            outcome.delivered = true;
            outcome.latency = report.first_delivery.map(|t| penalty + t);
            outcome.recovered_by = (outcome.attempts > 1).then_some(stage);
            break;
        }
        penalty += HORIZON;
    }
    let measured = OverheadOutcome::measure(outcome.delivered, outcome.broadcasts, plan.ideal_hops);
    outcome.overhead = measured.value();
    (outcome, detour.map(|d| d.is_ok()))
}

/// The `churn-ladder` benchmark's world (`crates/perf/src/workload.rs`):
/// the 60 m blackout downtown and its 8-event timeline over two
/// seconds, carrying `flows` seed-1 hotspot flows.
fn churn_benchmark_world(flows: usize) -> (CityExperiment, Vec<FlowSpec>, Timeline) {
    const WORLD_SEED: u64 = 2024;
    const HORIZON_MS: f64 = 2_000.0;
    let map = CityArchetype::SurveyDowntown.generate(WORLD_SEED);
    let config = ExperimentConfig {
        seed: WORLD_SEED,
        faults: Some(FaultScenario::district_blackouts(1, 60.0)),
        ..ExperimentConfig::default()
    };
    let exp = CityExperiment::try_prepare(map, config).expect("the benchmark's config is valid");
    let flows = generate_flows(
        exp.map().len(),
        &WorkloadConfig {
            flows,
            model: FlowModel::Hotspot {
                hotspots: 256,
                exponent: 0.8,
                rate_hz: flows as f64 / (HORIZON_MS / 1e3),
            },
            seed: CHURN_SEED,
        },
    );
    let timeline = Timeline::materialize(
        &exp,
        &ChurnConfig {
            aftershocks: 4,
            battery_waves: 2,
            crew_repairs: 2,
            aftershock_radius_m: 80.0,
            horizon_ms: HORIZON_MS,
            seed: WORLD_SEED,
            ..ChurnConfig::default()
        },
    );
    assert_eq!(timeline.len(), 8);
    (exp, flows, timeline)
}

/// The churn runs' traffic seed.
const CHURN_SEED: u64 = 1;

/// Runs `flows` through the churn engine (retry ladder, one worker,
/// incremental invalidation) and through a never-caching run that
/// plans every detour with the exhaustive reference search, and holds
/// the engine to it: the two digests are equal, and the engine's
/// detour counters equal, flow for flow, what the reference sees —
/// every flow at rung 4 whose detour the reference finds no path for
/// was refused by the labels, and every other one searched, so no
/// search ended without one. Every flow that reaches rung 4 puts its
/// own pair to the labels, so the counters are per flow. Returns
/// `(refused, searched)`.
fn assert_detours_match_the_reference(
    exp: &CityExperiment,
    flows: &[FlowSpec],
    timeline: &Timeline,
) -> (u64, u64) {
    let cfg = ChurnEngineConfig {
        workers: 1,
        seed: CHURN_SEED,
        invalidation: InvalidationPolicy::Incremental,
        ..ChurnEngineConfig::default()
    };
    let tel = TelemetryConfig::metrics_only();
    let (engine, telemetry) = try_run_churn(exp, flows, timeline, Churn::RetryLadder, &cfg, &tel)
        .expect("a faulted world");
    let metrics = telemetry.expect("metrics were asked for").metrics;

    // The reference run, shaped into the engine's report type.
    let mut fs = exp.fault_state().expect("faulted").clone();
    fs.set_retry(RetryPolicy::ladder());
    let mut world = exp.clone().with_fault_state(fs);
    let mut reference = ChurnReport {
        timeline_fingerprint: timeline.fingerprint(),
        ..ChurnReport::default()
    };
    let (mut pathless, mut with_path) = (0u64, 0u64);
    let mut rest = flows;
    for k in 0..=timeline.len() {
        let event = timeline.events().get(k);
        let (slice, later) = match event {
            Some(ev) => rest.split_at(rest.partition_point(|f| f.arrival_ms < ev.at_ms)),
            None => (rest, &rest[rest.len()..]),
        };
        rest = later;
        let state = world.fault_state().expect("faulted");
        let mut fleet = FleetReport::empty();
        for flow in slice {
            let plan = world.plan_flow(flow.src, flow.dst);
            let msg_id = substream_seed(CHURN_SEED, DOMAIN_MSG, flow.id);
            let mut rng = SimRng::new(substream_seed(CHURN_SEED, DOMAIN_SIM, flow.id));
            let (outcome, detour) = reference_ladder(&world, &plan, msg_id, &mut rng);
            fleet.absorb_outcome(flow, &outcome);
            if outcome.attempts >= 4 {
                match detour.expect("a flow at rung 4 has planned its detour") {
                    true => with_path += 1,
                    false => pathless += 1,
                }
            }
        }
        let mut stat = EpochStat {
            epoch: state.epoch(),
            flows: fleet.flows,
            fleet_digest: fleet.digest(),
            fault_fingerprint: state.fingerprint(),
            aps_changed: 0,
            evicted: 0,
        };
        reference.flows += fleet.flows;
        reference.delivered += fleet.delivered;
        reference.retried += fleet.retried;
        reference.recovered += fleet.recovered;
        reference.epochs += 1;
        if let Some(ev) = event {
            let transition = world.apply_world_event(&ev.changes);
            reference.events_applied += 1;
            reference.aps_changed += transition.aps_changed as u64;
            stat.aps_changed = transition.aps_changed as u64;
            stat.fault_fingerprint = transition.fingerprint;
        }
        reference.epoch_stats.push(stat);
    }

    assert_eq!(engine.digest(), reference.digest());
    let rejected = metrics.counter(tm::DETOURS_REJECTED_BY_LABELS);
    let searches = metrics.counter(tm::DETOUR_SEARCHES);
    assert_eq!(rejected, pathless, "every pathless detour is refused");
    assert_eq!(searches, with_path, "every search finds one");
    (rejected, searches)
}

/// The work guard, on the `churn-ladder` benchmark's own world and its
/// 10,000 flows. Counts, so they hold on every machine. Release only
/// (CI's `figures` job runs it); the debug-sized run below holds the
/// same checks on 400 of the flows.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "10,000 ladder flows twice: run with --release"
)]
fn churn_benchmark_detours_search_only_where_a_route_survives() {
    let (exp, flows, timeline) = churn_benchmark_world(10_000);
    let (rejected, searches) = assert_detours_match_the_reference(&exp, &flows, &timeline);
    assert!(
        rejected > 100 && searches > 2_000,
        "{rejected} refused, {searches} searched: the world must exercise both"
    );
}

/// The same checks on 400 flows over the same world and timeline, so a
/// debug `cargo test` holds every detour to the reference across the
/// events: a detour rung that read the darkness of an earlier epoch
/// plans routes the reference does not.
#[test]
fn churn_detours_search_only_where_a_route_survives() {
    let (exp, flows, timeline) = churn_benchmark_world(400);
    let (rejected, searches) = assert_detours_match_the_reference(&exp, &flows, &timeline);
    assert!(
        rejected > 0 && searches > 50,
        "{rejected} refused, {searches} searched: the world must exercise both"
    );
}
