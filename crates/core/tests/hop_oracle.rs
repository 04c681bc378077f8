//! Differential oracle for the ideal-hops kernel.
//!
//! `ApGraph::ideal_hops_to_building_with` answers "fewest hops from
//! this AP to any AP of that building" with a landmark-guided search
//! over the audience rows (`citymesh_graph::HopLandmarks`). The
//! reference is the flood it replaced: [`bfs_distance_to`] over a
//! unit-disk [`CsrGraph`] this file builds itself from the AP positions
//! and the range ([`unit_disk`]), which shares neither the grid index,
//! the adjacency rows, the landmark table nor the queue with the
//! kernel. The two must agree on every query — the answer is the
//! denominator of the paper's §4 overhead metric and is mixed into
//! every planner digest.
//!
//! On a city small enough to table, a destination building that keeps
//! being asked stops searching: its sixteenth query floods the city once
//! from the building's APs and every later one reads the stored row.
//! [`sweep`] holds the three ways a query can be answered — rented
//! (search), buying (the flood) and warm (the row) — to the same flood
//! reference and to the search called directly, and checks from the
//! counters that each query went the way its request count says.

use citymesh_core::{place_aps, ApGraph, CityExperiment, ExperimentConfig, PlanScratch};
use citymesh_core::{PlannedFlow, DEFAULT_RANGE_M};
use citymesh_fleet::{generate_flows, FlowModel, WorkloadConfig};
use citymesh_geo::{Point, Polygon, Rect};
use citymesh_graph::{label_components, CsrGraph, HopLandmarks, HopScratch, HOP_LANDMARKS};
use citymesh_map::{generate_metro, CityArchetype, CityMap, MetroParams};
use citymesh_reference::{bfs_distance_to, FloodScratch as PlannerScratch};
use citymesh_simcore::SimRng;
use proptest::prelude::*;

/// The AP graph's definition, taken literally: an edge between every
/// two APs at most `range_m` apart, found by a sweep over the APs in
/// `x` order.
fn unit_disk(apg: &ApGraph) -> CsrGraph {
    let (n, r) = (apg.len() as u32, apg.range_m());
    let mut by_x: Vec<u32> = (0..n).collect();
    by_x.sort_by(|&a, &b| apg.position(a).x.total_cmp(&apg.position(b).x));
    let mut links = Vec::new();
    for (i, &a) in by_x.iter().enumerate() {
        let pa = apg.position(a);
        for &b in &by_x[i + 1..] {
            let pb = apg.position(b);
            if pb.x - pa.x > r {
                break;
            }
            if pa.dist2(pb) <= r * r {
                links.push((a, b, 1.0));
            }
        }
    }
    CsrGraph::from_edges(n as usize, &links)
}

/// `(component labels, component count)` of `links`.
fn components_of(links: &CsrGraph) -> (Vec<u32>, usize) {
    let mut labels = Vec::new();
    let rows = |u: u32| links.neighbors(u).iter().map(|e| e.to);
    let count = label_components(links.num_vertices(), |_| true, rows, &mut labels);
    (labels, count)
}

/// The flood: hops from `src` to the first AP of `building` a BFS over
/// `links` touches, and how many APs it stamped on the way (`found` is
/// probed exactly once per stamped vertex).
fn reference(
    apg: &ApGraph,
    links: &CsrGraph,
    src: u32,
    building: u32,
    scratch: &mut PlannerScratch,
) -> (Option<u64>, u64) {
    let mut stamped = 0;
    let hops = bfs_distance_to(
        links,
        src,
        |ap| {
            stamped += 1;
            apg.building_of(ap) == building
        },
        scratch,
    );
    (hops, stamped)
}

/// Asserts kernel ≡ flood for `(src, building)`, through the warm
/// `scratch` and through a fresh one.
fn assert_agrees(
    apg: &ApGraph,
    links: &CsrGraph,
    src: u32,
    building: u32,
    scratch: &mut HopScratch,
    flood: &mut PlannerScratch,
) {
    let (want, _) = reference(apg, links, src, building, flood);
    assert_eq!(
        apg.ideal_hops_to_building_with(src, building, scratch),
        want,
        "warm scratch: src AP {src} -> building {building}"
    );
    assert_eq!(
        apg.ideal_hops_to_building(src, building),
        want,
        "fresh scratch: src AP {src} -> building {building}"
    );
}

/// Every AP as a source against its own building (0 hops) and against
/// `samples` random building ids, the id one past the map among them
/// (no APs: `None`).
fn check_city(map: &CityMap, apg: &ApGraph, samples: usize, rng: &mut SimRng) {
    let links = unit_disk(apg);
    let mut scratch = HopScratch::new();
    let mut flood = PlannerScratch::new();
    let buildings = map.len() as u64;
    for src in 0..apg.len() as u32 {
        assert_eq!(
            apg.ideal_hops_to_building_with(src, apg.building_of(src), &mut scratch),
            Some(0),
            "AP {src} stands in its own building"
        );
        for _ in 0..samples {
            let building = rng.below(buildings + 1) as u32;
            assert_agrees(apg, &links, src, building, &mut scratch, &mut flood);
        }
    }
}

fn rect_at(x: f64, y: f64, w: f64, h: f64) -> Polygon {
    Polygon::rect(Rect::from_corners(
        Point::new(x, y),
        Point::new(x + w, y + h),
    ))
}

/// A `cols × rows` lattice of buildings of mixed size (so placement
/// gives some several APs) with some removed, plus `stray` buildings
/// 1 km east — an island, usually too small to earn a landmark.
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
            let side = rng.uniform_range(10.0, 24.0);
            footprints.push(rect_at(x as f64 * pitch, y as f64 * pitch, side, side));
        }
    }
    for i in 0..stray {
        footprints.push(rect_at(1_000.0 + i as f64 * 30.0, 0.0, 14.0, 14.0));
    }
    CityMap::new("hop-oracle-grid", footprints, vec![])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Kernel ≡ flood on random small cities: one to a few hundred APs
    /// (fewer than `HOP_LANDMARKS` at the low end), single- and
    /// multi-AP destination buildings, holes that disconnect the grid,
    /// and a stray island.
    #[test]
    fn kernel_equals_flood_on_random_cities(
        (cols, rows) in (1usize..12, 1usize..9),
        pitch in 25.0..55.0f64,
        removal in 0.0..0.35f64,
        stray in 0usize..4,
        m2_per_ap in 50.0..400.0f64,
        seed in any::<u64>(),
    ) {
        let map = grid_with_island(cols, rows, pitch, removal, stray, seed);
        let mut rng = SimRng::new(seed ^ 0xA9);
        let aps = place_aps(&map, m2_per_ap, &mut rng);
        let apg = ApGraph::build(&aps, DEFAULT_RANGE_M);
        check_city(&map, &apg, 5, &mut rng);
    }
}

/// The river archetype splits the AP graph into banks big enough to
/// each earn landmarks: cross-river queries are `None`, and same-bank
/// ones are steered past landmarks that cannot see them.
#[test]
fn kernel_equals_flood_across_a_river() {
    for seed in 1..=4 {
        let map = CityArchetype::SurveyRiver.generate(seed);
        let mut rng = SimRng::new(seed ^ 0xA9);
        let aps = place_aps(&map, 200.0, &mut rng);
        let apg = ApGraph::build(&aps, DEFAULT_RANGE_M);
        let (labels, islands) = components_of(&unit_disk(&apg));
        let mut sizes = vec![0; islands];
        labels.iter().for_each(|&l| sizes[l as usize] += 1);
        let earns = |&size: &usize| size * HOP_LANDMARKS >= apg.len();
        assert!(
            sizes.iter().filter(|s| earns(s)).count() >= 2 && !sizes.iter().all(earns),
            "seed {seed}: islands {sizes:?} should mix landmarked banks and strays"
        );
        check_city(&map, &apg, 2, &mut rng);
    }
}

#[test]
fn fewer_aps_than_landmarks() {
    // Three one-AP buildings in a row, 40 m apart, and a fourth out of
    // range of all of them.
    let footprints = [0.0, 40.0, 80.0, 400.0].map(|x| rect_at(x, 0.0, 10.0, 10.0));
    let map = CityMap::new("tiny", footprints.to_vec(), vec![]);
    let aps = place_aps(&map, 10_000.0, &mut SimRng::new(1));
    assert!(aps.len() < HOP_LANDMARKS);
    let apg = ApGraph::build(&aps, DEFAULT_RANGE_M);
    assert_eq!(apg.ideal_hops_to_building(0, 2), Some(2));
    assert_eq!(apg.ideal_hops_to_building(0, 3), None);
    check_city(&map, &apg, 8, &mut SimRng::new(2));
}

/// The work guard: on a one-tile metro the kernel settles at most a
/// fifth of the APs the flood stamps for the same 200 queries. Both
/// sides are counts, so the ratio is the same on every machine.
#[test]
fn kernel_settles_a_fraction_of_what_the_flood_stamps() {
    let map = generate_metro(&MetroParams::with_tiles(1, 1), 2024);
    let mut rng = SimRng::new(7);
    let aps = place_aps(&map, 200.0, &mut rng);
    let apg = ApGraph::build(&aps, DEFAULT_RANGE_M);
    let links = unit_disk(&apg);
    let mut scratch = HopScratch::new();
    let mut flood = PlannerScratch::new();
    let mut stamped = 0;
    for _ in 0..200 {
        let src = rng.below(apg.len() as u64) as u32;
        let building = rng.below(map.len() as u64) as u32;
        let (want, n) = reference(&apg, &links, src, building, &mut flood);
        stamped += n;
        assert_eq!(
            apg.ideal_hops_to_building_with(src, building, &mut scratch),
            want
        );
    }
    assert_eq!(scratch.stats.queries, 200);
    assert!(
        scratch.stats.settled * 5 <= stamped,
        "kernel settled {} APs, the flood stamped {stamped}",
        scratch.stats.settled
    );
}

/// The benchmark's own queries: every `UniformPairs` seed-1 pair of the
/// 2×2 metro `metro-hier` plans, through `plan_flow_into` on one warm
/// `PlanScratch`. Release only (CI's `figures` job runs it).
#[test]
#[cfg_attr(debug_assertions, ignore = "metro-scale: run with --release")]
fn metro_benchmark_pairs_equal_the_flood() {
    let map = generate_metro(&MetroParams::with_tiles(2, 2), 2024);
    let config = ExperimentConfig {
        seed: 2024,
        ..ExperimentConfig::default()
    };
    let exp = CityExperiment::try_prepare(map, config).expect("default config is valid");
    let flows = generate_flows(
        exp.map().len(),
        &WorkloadConfig {
            flows: 3_000,
            model: FlowModel::UniformPairs { rate_hz: 1_000.0 },
            seed: 1,
        },
    );
    let links = unit_disk(exp.ap_graph());
    let mut scratch = PlanScratch::new();
    let mut flood = PlannerScratch::new();
    let mut plan = PlannedFlow::empty(0, 0);
    let (mut answered, mut unreachable) = (0, 0);
    for f in &flows {
        exp.plan_flow_into(f.src, f.dst, &mut scratch, &mut plan);
        let Some(src_ap) = plan.src_ap else { continue };
        let (want, _) = reference(exp.ap_graph(), &links, src_ap, f.dst, &mut flood);
        assert_eq!(
            plan.ideal_hops, want,
            "flow {}: {} -> {}",
            f.id, f.src, f.dst
        );
        answered += 1;
        unreachable += usize::from(want.is_none());
    }
    assert!(answered > 2_900, "only {answered} flows found a route");
    assert!(unreachable > 0, "the metro's stray islands must be sampled");
    assert_eq!(scratch.hop_stats().queries, answered as u64);
}

/// How a [`sweep`]'s queries were answered.
#[derive(Debug, Default, PartialEq, Eq)]
struct Swept {
    /// By search: a destination's first fifteen queries, and every
    /// query for a building without APs.
    rented: usize,
    /// By the flood that wrote the destination's row: its sixteenth.
    bought: usize,
    /// From the stored row.
    warm: usize,
    /// `None` answers among the warm ones: `u16::MAX` row entries.
    warm_unreachable: usize,
}

/// Puts `queries` — `(source AP, building)` — to a **fresh** `apg`, in
/// order, and asserts each answer three ways equal: the graph's own
/// (rented, buying or warm), a landmark search this function builds and
/// calls directly (never a row), and the flood. The counters must show
/// each query answered the way the building's request count says.
fn sweep(apg: &ApGraph, queries: impl IntoIterator<Item = (u32, u32)>) -> Swept {
    assert_eq!(
        apg.hop_rows_built(),
        0,
        "the sweep counts requests from zero"
    );
    let links = unit_disk(apg);
    let (labels, islands) = components_of(&links);
    let search = HopLandmarks::build(|a| apg.audience(a), &labels, islands);
    let (mut scratch, mut direct) = (HopScratch::new(), HopScratch::new());
    let mut flood = PlannerScratch::new();
    let mut asked: Vec<u32> = Vec::new();
    let mut seen = Swept::default();
    for (src, building) in queries {
        let (want, _) = reference(apg, &links, src, building, &mut flood);
        let targets = apg.aps_of_building(building);
        assert_eq!(
            search.hops_to_set(|a| apg.audience(a), &labels, src, targets, &mut direct),
            want,
            "search: src AP {src} -> building {building}"
        );
        let before = scratch.stats;
        assert_eq!(
            apg.ideal_hops_to_building_with(src, building, &mut scratch),
            want,
            "graph: src AP {src} -> building {building}"
        );
        let after = scratch.stats;
        assert_eq!(after.queries, before.queries + 1);
        if asked.len() <= building as usize {
            asked.resize(building as usize + 1, 0);
        }
        let nth = &mut asked[building as usize];
        *nth += 1;
        let way = (
            after.rows_built - before.rows_built,
            after.from_rows - before.from_rows,
        );
        match (targets.is_empty(), *nth) {
            (true, _) | (false, ..=15) => {
                assert_eq!(way, (0, 0), "request {nth} for {building} rents");
                seen.rented += 1;
            }
            (false, 16) => {
                assert_eq!(way, (1, 1), "request 16 for {building} buys");
                assert_eq!(after.settled, before.settled, "a flood settles nothing");
                seen.bought += 1;
            }
            (false, _) => {
                assert_eq!(way, (0, 1), "request {nth} for {building} reads");
                assert_eq!(after.settled, before.settled, "a read settles nothing");
                seen.warm += 1;
                seen.warm_unreachable += usize::from(want.is_none());
            }
        }
    }
    assert_eq!(apg.hop_rows_built(), seen.bought);
    seen
}

/// Every AP against every building, `rounds` times over, the source
/// order rotated by building so the fifteen rented and the one buying
/// request fall on different APs from one building to the next.
fn all_pairs(apg: &ApGraph, buildings: u32, rounds: usize) -> impl Iterator<Item = (u32, u32)> {
    let n = apg.len() as u32;
    (0..buildings)
        .flat_map(move |b| (0..rounds as u32 * n).map(move |i| ((i + b.wrapping_mul(7)) % n, b)))
}

/// The benchmark's own city: all 962 × 531 (AP, building) pairs of the
/// downtown every `citymesh-perf` workload but the metro runs on, the
/// id one past the map included — about 510k reference floods. Release
/// only (CI's `figures` job runs it).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "510,822 pairs three ways: run with --release"
)]
fn rows_equal_search_equal_flood() {
    let map = CityArchetype::SurveyDowntown.generate(2024);
    let config = ExperimentConfig {
        seed: 2024,
        ..ExperimentConfig::default()
    };
    let exp = CityExperiment::try_prepare(map, config).expect("default config is valid");
    let (apg, buildings) = (exp.ap_graph(), exp.map().len() as u32);
    assert_eq!((apg.len(), buildings), (962, 530));
    let with_ap = (0..buildings)
        .filter(|&b| !apg.aps_of_building(b).is_empty())
        .count();
    let empty = apg.memory_bytes();
    let seen = sweep(apg, all_pairs(apg, buildings + 1, 1));
    assert_eq!(seen.rented + seen.bought + seen.warm, 962 * 531, "{seen:?}");
    assert_eq!(
        seen.rented,
        15 * with_ap + 962 * (531 - with_ap),
        "{seen:?}"
    );
    assert_eq!((seen.bought, apg.hop_rows_built()), (with_ap, with_ap));
    // Downtown's AP graph is one component: the only `None`s are the
    // id past the map. Rows with `u16::MAX` entries are the proptest's.
    assert_eq!((apg.num_components(), seen.warm_unreachable), (1, 0));
    // The rows written are accounted, and a clone reads the same table.
    assert_eq!(apg.memory_bytes(), empty + with_ap * 962 * 2);
    assert_eq!(apg.clone().hop_rows_built(), with_ap);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The same three-way equality on random small cities, every pair
    /// asked until each building with an AP has bought its row and read
    /// it. The stray island is always there, so every row holds
    /// `u16::MAX` entries and the warm answers include `None`.
    #[test]
    fn rows_equal_search_equal_flood_on_random_cities(
        (cols, rows) in (1usize..10, 1usize..7),
        pitch in 25.0..55.0f64,
        removal in 0.0..0.35f64,
        stray in 1usize..4,
        m2_per_ap in 50.0..400.0f64,
        seed in any::<u64>(),
    ) {
        let map = grid_with_island(cols, rows, pitch, removal, stray, seed);
        let aps = place_aps(&map, m2_per_ap, &mut SimRng::new(seed ^ 0xA9));
        let apg = ApGraph::build(&aps, DEFAULT_RANGE_M);
        let rounds = 18usize.div_ceil(apg.len());
        let seen = sweep(&apg, all_pairs(&apg, map.len() as u32 + 1, rounds));
        prop_assert_eq!(seen.bought, map.len(), "every building hosts an AP");
        prop_assert!(seen.warm_unreachable > 0, "{:?}", seen);
    }
}

/// The one-tile metro's table (6.9 MB at full occupancy) is under the
/// ceiling: sampled destinations, each asked from forty random APs,
/// buy their rows and read them.
#[test]
fn metro_tile_rows_equal_the_search() {
    let map = generate_metro(&MetroParams::with_tiles(1, 1), 2024);
    let mut rng = SimRng::new(7);
    let aps = place_aps(&map, 200.0, &mut rng);
    let apg = ApGraph::build(&aps, DEFAULT_RANGE_M);
    assert!(2 * apg.len() * map.len() <= 8 << 20);
    let destinations: Vec<u32> = (0..12)
        .map(|_| rng.below(map.len() as u64) as u32)
        .collect();
    let queries: Vec<(u32, u32)> = (0..40 * destinations.len())
        .map(|i| {
            let src = rng.below(apg.len() as u64) as u32;
            (src, destinations[i % destinations.len()])
        })
        .collect();
    let seen = sweep(&apg, queries);
    assert!(
        seen.bought >= 10 && seen.warm >= 24 * seen.bought,
        "{seen:?}"
    );
}

/// The 2×2 metro's table would be 140 MB: it gets none. The benchmark's
/// pairs — and one destination asked 3,000 times from forty sources —
/// build no row, read none, and leave the graph's memory where it was. Release only,
/// beside the metro case above.
#[test]
#[cfg_attr(debug_assertions, ignore = "metro-scale: run with --release")]
fn a_metro_over_the_ceiling_gets_no_table() {
    let map = generate_metro(&MetroParams::with_tiles(2, 2), 2024);
    let config = ExperimentConfig {
        seed: 2024,
        ..ExperimentConfig::default()
    };
    let exp = CityExperiment::try_prepare(map, config).expect("default config is valid");
    let apg = exp.ap_graph();
    assert!(2 * apg.len() * exp.map().len() > 8 << 20);
    let empty = apg.memory_bytes();
    let flows = generate_flows(
        exp.map().len(),
        &WorkloadConfig {
            flows: 3_000,
            model: FlowModel::UniformPairs { rate_hz: 1_000.0 },
            seed: 1,
        },
    );
    let mut scratch = PlanScratch::new();
    let mut plan = PlannedFlow::empty(0, 0);
    for f in &flows {
        exp.plan_flow_into(f.src, f.dst, &mut scratch, &mut plan);
        exp.plan_flow_into(f.src % 40, flows[0].dst, &mut scratch, &mut plan);
    }
    let stats = scratch.hop_stats();
    assert!(stats.queries > 5_800 && stats.settled > stats.queries);
    assert_eq!((stats.rows_built, stats.from_rows), (0, 0));
    assert_eq!((apg.hop_rows_built(), apg.memory_bytes()), (0, empty));
}
