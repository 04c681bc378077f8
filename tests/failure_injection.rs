//! Failure injection: AP outages and compromised regions.
//!
//! DFNs exist for duress conditions, so the evaluation must cover
//! degraded meshes: random AP loss (power outage patterns) and
//! region-wide loss (a compromised or destroyed neighborhood). These
//! tests exercise the paper's §1 security requirement — delivery
//! should track what the surviving topology permits — and pin the
//! monotone relationship between loss and deliverability.

use citymesh::core::{
    compress_route, plan_route, plan_route_avoiding_into, postbox_ap, reconstruct_conduits,
    simulate_delivery_faulted, Ap, ApGraph, BuildingGraph, BuildingGraphParams, CoveredSet,
    DeliveryReport, DeliveryScratch, Relays, Survivors,
};
use citymesh::graph::PlannerScratch;
use citymesh::net::CityMeshHeader;
use citymesh::prelude::*;

/// One healthy delivery of `header` from `src_ap` through a fresh
/// scratch.
fn simulate(
    map: &CityMap,
    apg: &ApGraph,
    header: &CityMeshHeader,
    src_ap: u32,
    rng: &mut SimRng,
) -> DeliveryReport {
    let conduits = reconstruct_conduits(map, &header.waypoints, header.conduit_width_m());
    let mut scratch = DeliveryScratch::new();
    simulate_delivery_faulted(
        apg,
        header,
        Relays::Covered(&CoveredSet::of(map, &conduits)),
        src_ap,
        0.0,
        None,
        rng.next_u64(),
        &mut scratch,
    )
    .clone()
}

/// A small faulted experiment with exactly the APs in `kill(aps)`
/// failed, ladder policy active.
fn targeted_experiment(
    seed: u64,
    retry: RetryPolicy,
    kill: impl Fn(&CityExperiment) -> Vec<u32>,
) -> CityExperiment {
    let map = CityArchetype::SurveyDowntown.generate(seed);
    let exp = CityExperiment::prepare(
        map,
        ExperimentConfig {
            seed,
            ..ExperimentConfig::default()
        },
    );
    let failed = kill(&exp);
    let state = citymesh::core::FaultState::with_failed(exp.aps(), exp.map(), &failed, retry);
    exp.with_fault_state(state.expect("the casualties are this placement's own APs"))
}

fn aps_of_building(exp: &CityExperiment, building: u32) -> Vec<u32> {
    exp.aps()
        .iter()
        .filter(|a| a.building == building)
        .map(|a| a.id)
        .collect()
}

#[test]
fn source_building_fully_failed_fails_cleanly() {
    // Every AP in the source building is dead: the sender has no
    // uplink, so the flow must fail with zero attempts — no RNG draws,
    // no hang, no panic.
    let exp = targeted_experiment(51, RetryPolicy::ladder(), |e| aps_of_building(e, 0));
    let plan = exp.plan_flow(0, (exp.map().len() - 1) as u32);
    assert!(
        plan.src_ap.is_none(),
        "a dark building cannot host the uplink"
    );
    let mut rng = SimRng::new(51);
    let outcome = exp.simulate_flow(&plan, 1, &mut rng);
    assert!(!outcome.delivered);
    assert_eq!(outcome.attempts, 0, "never simulated: no attempts charged");
    assert_eq!(outcome.recovered_by, None);
    assert_eq!(outcome.broadcasts, 0);
}

#[test]
fn destination_building_fully_failed_fails_cleanly() {
    // The destination's APs are all dead: every rung of the ladder
    // runs, every rung fails, and the flow terminates at the attempt
    // cap instead of hanging.
    let dst = 40u32;
    let exp = targeted_experiment(52, RetryPolicy::ladder(), |e| aps_of_building(e, dst));
    let plan = exp.plan_flow(0, dst);
    assert!(plan.route_found());
    let mut rng = SimRng::new(52);
    let outcome = exp.simulate_flow(&plan, 2, &mut rng);
    assert!(
        !outcome.delivered,
        "no live AP can receive at the destination"
    );
    assert_eq!(
        outcome.attempts,
        RetryPolicy::ladder().max_attempts,
        "the ladder must run to its cap and stop"
    );
    assert_eq!(outcome.recovered_by, None);
}

#[test]
fn every_conduit_ap_failed_fails_cleanly() {
    // Kill everything except the source building's own APs: the packet
    // leaves the source and dies immediately. The simulation must
    // terminate (bounded event queue), not spin.
    let src = 0u32;
    let exp = targeted_experiment(53, RetryPolicy::ladder(), |e| {
        e.aps()
            .iter()
            .filter(|a| a.building != src)
            .map(|a| a.id)
            .collect()
    });
    let plan = exp.plan_flow(src, (exp.map().len() / 2) as u32);
    let mut rng = SimRng::new(53);
    let outcome = exp.simulate_flow(&plan, 3, &mut rng);
    assert!(!outcome.delivered);
    assert_eq!(outcome.attempts, RetryPolicy::ladder().max_attempts);
    // Only the source building's handful of APs can ever transmit.
    let live = exp.aps().iter().filter(|a| a.building == src).count() as u64;
    assert!(
        outcome.broadcasts <= outcome.attempts as u64 * live,
        "a dead mesh must not generate broadcast storms ({} broadcasts, {} live APs)",
        outcome.broadcasts,
        live
    );
}

#[test]
fn retry_ladder_recovers_flows_a_single_attempt_loses() {
    // Under 30% i.i.d. AP loss, some flows that fail their first
    // attempt are saved by a later rung — and the outcome says which.
    let map = CityArchetype::SurveyDowntown.generate(54);
    let mut scenario = FaultScenario::iid(0.3);
    scenario.retry = RetryPolicy::ladder();
    let exp = CityExperiment::prepare(
        map,
        ExperimentConfig {
            seed: 54,
            faults: Some(scenario),
            ..ExperimentConfig::default()
        },
    );
    let n = exp.map().len() as u32;
    let mut rng = SimRng::new(54);
    let mut recovered = 0u32;
    for i in 0..120u32 {
        let (src, dst) = ((i * 7) % n, (i * 13 + 5) % n);
        if src == dst {
            continue;
        }
        let plan = exp.plan_flow(src, dst);
        let outcome = exp.simulate_flow(&plan, i as u64, &mut rng);
        if let Some(stage) = outcome.recovered_by {
            assert!(outcome.delivered);
            assert!(outcome.attempts > 1);
            assert!(!stage.label().is_empty());
            recovered += 1;
        }
    }
    assert!(
        recovered > 0,
        "120 flows over a 30%-dead downtown must include ladder recoveries"
    );
}

/// Rebuilds the AP graph with a deterministic `fraction` of APs
/// removed (re-indexing ids), returning the survivors.
fn knock_out(aps: &[Ap], fraction: f64, rng: &mut SimRng) -> Vec<Ap> {
    let mut survivors: Vec<Ap> = aps
        .iter()
        .filter(|_| !rng.chance(fraction))
        .copied()
        .collect();
    for (i, ap) in survivors.iter_mut().enumerate() {
        ap.id = i as u32;
    }
    survivors
}

/// Removes every AP whose position falls inside a circular compromised
/// region.
fn knock_out_region(aps: &[Ap], center: Point, radius: f64) -> Vec<Ap> {
    let mut survivors: Vec<Ap> = aps
        .iter()
        .filter(|a| a.pos.dist(center) > radius)
        .copied()
        .collect();
    for (i, ap) in survivors.iter_mut().enumerate() {
        ap.id = i as u32;
    }
    survivors
}

struct Scenario {
    map: CityMap,
    bg: BuildingGraph,
    aps: Vec<Ap>,
    src: u32,
    dst: u32,
}

fn scenario() -> Scenario {
    let map = CityArchetype::SurveyDowntown.generate(31);
    let mut rng = SimRng::new(31);
    let aps = citymesh::core::place_aps(&map, 150.0, &mut rng);
    let bg = BuildingGraph::build(&map, BuildingGraphParams::default());
    let src = map.nearest_building(Point::new(60.0, 60.0)).unwrap().id;
    let dst = map.nearest_building(Point::new(700.0, 700.0)).unwrap().id;
    Scenario {
        map,
        bg,
        aps,
        src,
        dst,
    }
}

/// Runs one delivery over a given AP subset; returns (delivered,
/// broadcasts).
fn deliver(s: &Scenario, aps: &[Ap], seed: u64) -> (bool, u64) {
    let apg = ApGraph::build(aps, 50.0);
    let Ok(route) = plan_route(&s.bg, s.src, s.dst) else {
        return (false, 0);
    };
    let compressed = compress_route(&s.bg, &route, 50.0).unwrap();
    let header = CityMeshHeader::new(seed, 50.0, compressed.waypoints);
    let Some(src_ap) = postbox_ap(aps, &s.map, s.src) else {
        return (false, 0);
    };
    let report = simulate(&s.map, &apg, &header, src_ap, &mut SimRng::new(seed));
    (report.delivered, report.broadcasts)
}

#[test]
fn healthy_mesh_delivers() {
    let s = scenario();
    let (delivered, broadcasts) = deliver(&s, &s.aps, 1);
    assert!(delivered);
    assert!(broadcasts > 0);
}

#[test]
fn deliverability_degrades_monotonically_with_outage() {
    let s = scenario();
    // Delivery success rate over several seeds at increasing loss.
    let rate_at = |loss: f64| -> f64 {
        let mut ok = 0;
        let trials = 8;
        for seed in 0..trials {
            let mut rng = SimRng::new(1000 + seed);
            let survivors = knock_out(&s.aps, loss, &mut rng);
            if deliver(&s, &survivors, seed).0 {
                ok += 1;
            }
        }
        ok as f64 / trials as f64
    };
    let healthy = rate_at(0.0);
    let moderate = rate_at(0.4);
    let severe = rate_at(0.9);
    assert_eq!(healthy, 1.0, "no-loss runs must all deliver");
    assert!(
        moderate >= severe,
        "40% loss ({moderate}) should deliver at least as often as 90% loss ({severe})"
    );
    assert!(
        severe < 0.5,
        "at 90% AP loss the conduit should usually break (got {severe})"
    );
}

#[test]
fn compromised_region_on_the_route_blocks_delivery() {
    let s = scenario();
    // The route is roughly the diagonal; destroy a disc over its
    // midpoint. CityMesh's fixed conduit cannot route around it.
    let mid = Point::new(380.0, 380.0);
    let survivors = knock_out_region(&s.aps, mid, 150.0);
    assert!(survivors.len() < s.aps.len());
    let (delivered, _) = deliver(&s, &survivors, 3);
    assert!(
        !delivered,
        "a destroyed region astride the conduit must break this route"
    );
}

#[test]
fn compromised_region_off_the_route_is_harmless() {
    let s = scenario();
    // Destroy a corner far from the src→dst diagonal.
    let corner = Point::new(700.0, 60.0);
    let survivors = knock_out_region(&s.aps, corner, 120.0);
    assert!(survivors.len() < s.aps.len());
    let (delivered, _) = deliver(&s, &survivors, 4);
    assert!(delivered, "losing an off-conduit corner must not matter");
}

#[test]
fn detour_routing_recovers_from_a_destroyed_region() {
    // The direct conduit dies when a disc astride it is destroyed; a
    // sender that learns of the outage replans around the region
    // (paper §1: find a path avoiding compromised nodes when one
    // exists) and delivery succeeds over the surviving topology.
    let s = scenario();
    let mid = Point::new(380.0, 380.0);
    let radius = 150.0;
    let survivors = knock_out_region(&s.aps, mid, radius);
    let apg = ApGraph::build(&survivors, 50.0);

    // Direct attempt fails (same setup as the blocking test).
    let direct_route = plan_route(&s.bg, s.src, s.dst).unwrap();
    let direct = compress_route(&s.bg, &direct_route, 50.0).unwrap();
    let src_ap = postbox_ap(&survivors, &s.map, s.src).unwrap();
    let mut rng = SimRng::new(77);
    let direct_header = CityMeshHeader::new(1, 50.0, direct.waypoints);
    let direct_report = simulate(&s.map, &apg, &direct_header, src_ap, &mut rng);
    assert!(!direct_report.delivered);

    // Retry: exclude every building in the destroyed disc (the sender
    // learned the outage region, e.g. from a failed-probe report).
    let blocked: std::collections::HashSet<u32> = s
        .map
        .buildings()
        .iter()
        .filter(|b| b.centroid.dist(mid) <= radius + 30.0)
        .map(|b| b.id)
        .collect();
    let survivors = Survivors::new(&s.bg, blocked.iter().copied());
    let mut detour_route = Vec::new();
    plan_route_avoiding_into(
        &s.bg,
        s.src,
        s.dst,
        &survivors,
        &mut PlannerScratch::new(),
        &mut detour_route,
    )
    .expect("a detour exists around the disc");
    assert!(
        detour_route.iter().all(|b| !blocked.contains(b)),
        "detour must avoid the destroyed region"
    );
    let detour = compress_route(&s.bg, &detour_route, 50.0).unwrap();
    let detour_header = CityMeshHeader::new(2, 50.0, detour.waypoints);
    let detour_report = simulate(&s.map, &apg, &detour_header, src_ap, &mut rng);
    assert!(
        detour_report.delivered,
        "the detour conduit must deliver over the surviving topology"
    );
}

#[test]
fn healthy_network_send_succeeds_first_attempt() {
    let map = CityArchetype::SurveyDowntown.generate(41);
    let mut net = citymesh::DfnNetwork::new(map, citymesh::core::ExperimentConfig::default(), 41)
        .expect("valid config");
    let bob = net.register_user([0xB0; 32], 10).unwrap();
    let receipt = net.send_text(300, &bob.address(), b"retry me");
    assert_eq!(receipt.attempts, 1, "healthy network needs one attempt");
    assert!(receipt.delivered);
    assert_eq!(net.check_mailbox(&bob, 10).len(), 1);
}

#[test]
fn reachability_tracks_outage_in_ground_truth() {
    let s = scenario();
    let full = ApGraph::build(&s.aps, 50.0);
    let mut rng = SimRng::new(5);
    let half = knock_out(&s.aps, 0.5, &mut rng);
    let degraded = ApGraph::build(&half, 50.0);
    assert!(degraded.mean_degree() < full.mean_degree());
    assert!(degraded.num_components() >= full.num_components());
}
