//! Differential oracle for the ideal-hops kernel.
//!
//! `ApGraph::ideal_hops_to_building_with` answers "fewest hops from
//! this AP to any AP of that building" with a landmark-guided search
//! over the audience rows (`citymesh_graph::HopLandmarks`). The
//! reference is the flood it replaced: [`bfs_distance_to`] over a
//! unit-disk [`Graph`] this file builds itself from the AP positions
//! and the range ([`unit_disk`]), which shares neither the grid index,
//! the adjacency rows, the landmark table nor the queue with the
//! kernel. The two must agree on every query — the answer is the
//! denominator of the paper's §4 overhead metric and is mixed into
//! every planner digest.

use citymesh_core::{place_aps, ApGraph, CityExperiment, ExperimentConfig, PlanScratch};
use citymesh_core::{PlannedFlow, DEFAULT_RANGE_M};
use citymesh_fleet::{generate_flows, FlowModel, WorkloadConfig};
use citymesh_geo::{Point, Polygon, Rect};
use citymesh_graph::{
    bfs_distance_to, connected_components, Graph, HopScratch, PlannerScratch, HOP_LANDMARKS,
};
use citymesh_map::{generate_metro, CityArchetype, CityMap, MetroParams};
use citymesh_simcore::SimRng;
use proptest::prelude::*;

/// The AP graph's definition, taken literally: an edge between every
/// two APs at most `range_m` apart, found by a sweep over the APs in
/// `x` order.
fn unit_disk(apg: &ApGraph) -> Graph {
    let (n, r) = (apg.len() as u32, apg.range_m());
    let mut by_x: Vec<u32> = (0..n).collect();
    by_x.sort_by(|&a, &b| apg.position(a).x.total_cmp(&apg.position(b).x));
    let mut links = Graph::new(n as usize);
    for (i, &a) in by_x.iter().enumerate() {
        let pa = apg.position(a);
        for &b in &by_x[i + 1..] {
            let pb = apg.position(b);
            if pb.x - pa.x > r {
                break;
            }
            if pa.dist2(pb) <= r * r {
                links.add_edge(a, b, 1.0);
            }
        }
    }
    links
}

/// The flood: hops from `src` to the first AP of `building` a BFS over
/// `links` touches, and how many APs it stamped on the way (`found` is
/// probed exactly once per stamped vertex).
fn reference(
    apg: &ApGraph,
    links: &Graph,
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
    links: &Graph,
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
        let (labels, islands) = connected_components(&unit_disk(&apg));
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
