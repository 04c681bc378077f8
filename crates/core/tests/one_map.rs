//! One map: the sender always plans on the cached city map.
//!
//! A plan's route, waypoints, conduits, covered buildings and header
//! size are a pure function of the map and the endpoints, so a dark
//! building never bends a route — only the replan rung detours, and it
//! does so outside the plan. What a plan reads from the world in effect
//! is the source's live postbox (`src_ap`), the hop count from it
//! (`ideal_hops`) and a redirect to a designated site (`redirect`).
//!
//! The check: a downtown under district blackouts, walked through every
//! event of a materialized churn timeline, plans sampled pairs exactly
//! as the same downtown with nothing failed does — flat and
//! hierarchical — in every field but those three. The counts at the end
//! show the worlds really differed: some routes run through dark
//! buildings, and some sources lost their postbox.

use std::collections::HashSet;

use citymesh_core::{
    CityExperiment, ExperimentConfig, FaultScenario, HierParams, PlanScratch, PlannedFlow,
};
use citymesh_dynamics::{ChurnConfig, Timeline};
use citymesh_map::CityArchetype;
use citymesh_simcore::SimRng;

const SEED: u64 = 2024;
const PAIRS: usize = 300;

fn world(faults: Option<FaultScenario>) -> CityExperiment {
    let config = ExperimentConfig {
        seed: SEED,
        faults,
        ..ExperimentConfig::default()
    };
    let map = CityArchetype::SurveyDowntown.generate(SEED);
    let mut exp = CityExperiment::try_prepare(map, config).expect("default config is valid");
    exp.enable_hier(&HierParams::default());
    exp
}

/// The flat and the hierarchical plan of `src → dst` on `exp`.
fn plans(exp: &CityExperiment, src: u32, dst: u32, scratch: &mut PlanScratch) -> [PlannedFlow; 2] {
    let (mut flat, mut hier) = (PlannedFlow::empty(src, dst), PlannedFlow::empty(src, dst));
    exp.plan_flow_into(src, dst, scratch, &mut flat);
    exp.plan_flow_hier_into(src, dst, scratch, &mut hier);
    [flat, hier]
}

#[derive(Debug, Default)]
struct Seen {
    compared: usize,
    routed: usize,
    through_the_dark: usize,
    src_ap_moved: usize,
}

/// Sampled pairs of `faulted` equal the same pairs of `healthy` in
/// every field the map alone decides.
fn check(healthy: &CityExperiment, faulted: &CityExperiment, rng: &mut SimRng, seen: &mut Seen) {
    let dark: HashSet<u32> = faulted
        .fault_state()
        .expect("faulted")
        .blocked_buildings()
        .collect();
    let n = healthy.map().len() as u64;
    let (mut a, mut b) = (PlanScratch::new(), PlanScratch::new());
    for _ in 0..PAIRS {
        let (src, dst) = (rng.below(n) as u32, rng.below(n) as u32);
        let want = plans(healthy, src, dst, &mut a);
        let got = plans(faulted, src, dst, &mut b);
        for (planner, (w, g)) in ["flat", "hier"].into_iter().zip(want.iter().zip(&got)) {
            let what = format!("{planner} {src} -> {dst}, {} dark", dark.len());
            assert_eq!(
                (g.src, g.dst, g.reachable),
                (w.src, w.dst, w.reachable),
                "{what}"
            );
            assert_eq!(g.route_len, w.route_len, "{what}");
            assert_eq!(g.waypoints, w.waypoints, "{what}");
            assert_eq!(g.conduits, w.conduits, "{what}");
            assert_eq!(g.covered(), w.covered(), "{what}");
            assert_eq!(g.route_bits, w.route_bits, "{what}");
            seen.compared += 1;
            seen.routed += usize::from(g.route_found());
            let inner = g.primary_route().iter().filter(|&&v| v != src && v != dst);
            seen.through_the_dark += usize::from(inner.clone().any(|v| dark.contains(v)));
            seen.src_ap_moved += usize::from(g.src_ap != w.src_ap);
        }
    }
}

#[test]
fn plans_read_the_cached_map_through_every_event() {
    let healthy = world(None);
    let mut faulted = world(Some(FaultScenario::district_blackouts(2, 120.0)));
    let timeline = Timeline::materialize(
        &faulted,
        &ChurnConfig {
            seed: SEED,
            ..ChurnConfig::default()
        },
    );
    assert!(timeline.len() >= 4, "{} events", timeline.len());
    let mut rng = SimRng::new(7);
    let mut seen = Seen::default();
    check(&healthy, &faulted, &mut rng, &mut seen);
    for event in timeline.events() {
        faulted.apply_world_event(&event.changes);
        check(&healthy, &faulted, &mut rng, &mut seen);
    }
    assert_eq!(seen.compared, 2 * PAIRS * (timeline.len() + 1));
    assert!(seen.routed > seen.compared * 9 / 10, "{seen:?}");
    assert!(seen.through_the_dark > 1_000, "{seen:?}");
    assert!(seen.src_ap_moved > 200, "{seen:?}");
}
