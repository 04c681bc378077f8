//! Differential oracle for the delivery kernel.
//!
//! `simulate_delivery_faulted` finds each broadcast's receivers in a
//! precomputed audience row, treats the report's role vector as every
//! AP's duplicate-suppression memory and reads each building's verdict
//! from the route's covered set. The reference below does none of it:
//! it owns one real deployed [`ApAgent`] (4096-id
//! [`citymesh_reference::SeenCache`]) per AP, which tests the conduits
//! itself on every new message, asks the spatial index who is in range
//! on every broadcast, keeps its events in a plain `Vec`, and allocates
//! everything freshly. The two must agree field for field and leave
//! the RNG at the same stream position.

use citymesh_core::faults::combined_loss;
use citymesh_core::sim::{HORIZON, MAX_JITTER, MIN_JITTER};
use citymesh_core::{
    compress_route, place_aps, plan_route, postbox_ap, reconstruct_conduits,
    simulate_delivery_faulted, Ap, ApGraph, ApRole, BuildingGraph, BuildingGraphParams,
    CityExperiment, CoveredSet, DeliveryReport, DeliveryScratch, ExperimentConfig, FaultScenario,
    FaultState, PlanScratch, PlannedFlow, RebroadcastScope, Relays,
};
use citymesh_fleet::{generate_flows, FlowModel, FlowSpec, WorkloadConfig, DOMAIN_MSG, DOMAIN_SIM};
use citymesh_geo::{OrientedRect, Point, Polygon, Rect};
use citymesh_map::{CityArchetype, CityMap};
use citymesh_net::CityMeshHeader;
use citymesh_reference::{Action, ApAgent};
use citymesh_simcore::{substream_seed, SimRng, SimTime};
use citymesh_telemetry::{FlowSummary, TraceConfig};
use proptest::prelude::*;

/// The naive reference kernel (see the module docs).
#[allow(clippy::too_many_arguments)]
fn reference_delivery(
    map: &CityMap,
    apg: &ApGraph,
    header: &CityMeshHeader,
    conduits: &[OrientedRect],
    scope: RebroadcastScope,
    src_ap: u32,
    reception_loss: f64,
    faults: Option<&FaultState>,
    rng: &mut SimRng,
) -> DeliveryReport {
    let mut report = DeliveryReport {
        delivered: false,
        first_delivery: None,
        broadcasts: 0,
        receptions: 0,
        duplicates: 0,
        roles: vec![ApRole::Silent; apg.len()],
    };
    if faults.is_some_and(|f| f.is_failed(src_ap)) {
        return report;
    }
    let mut agents: Vec<ApAgent> = (0..apg.len() as u32)
        .map(|id| ApAgent::new(apg.position(id), apg.building_of(id), scope))
        .collect();
    agents[src_ap as usize].seen.check_and_insert(header.msg_id);
    report.roles[src_ap as usize] = ApRole::Relayed;
    if apg.building_of(src_ap) == header.destination() {
        report.delivered = true;
        report.first_delivery = Some(SimTime::ZERO);
    }
    let jitter_span = MAX_JITTER.saturating_since(MIN_JITTER).as_nanos().max(1);

    // (time, push sequence, transmitter): earliest first, FIFO on ties.
    let mut events = vec![(SimTime::ZERO, 0u64, src_ap)];
    let mut pushed = 1u64;
    while let Some(next) = (0..events.len()).min_by_key(|&i| (events[i].0, events[i].1)) {
        let (now, _, ap) = events.swap_remove(next);
        if now > HORIZON {
            break;
        }
        report.broadcasts += 1;
        let mut audience = Vec::new();
        apg.for_each_in_range(apg.position(ap), |rx, _| audience.push(rx));
        for rx in audience {
            if rx == ap || faults.is_some_and(|f| f.is_failed(rx)) {
                continue;
            }
            let loss = match faults {
                Some(f) => combined_loss(reception_loss, f.extra_loss(rx)),
                None => reception_loss,
            };
            if loss > 0.0 && rng.chance(loss) {
                continue;
            }
            report.receptions += 1;
            let agent = &mut agents[rx as usize];
            let remembered = agent.seen.len();
            let action = agent.handle_with_conduits(header, map, conduits);
            if agent.seen.len() == remembered {
                assert_eq!(action, Action::IGNORE);
                report.duplicates += 1;
                continue;
            }
            report.roles[rx as usize] = ApRole::HeardOnly;
            if action.deliver && report.first_delivery.is_none() {
                report.delivered = true;
                report.first_delivery = Some(now);
            }
            if action.rebroadcast {
                report.roles[rx as usize] = ApRole::Relayed;
                let delay = SimTime::from_nanos(MIN_JITTER.as_nanos() + rng.below(jitter_span));
                events.push((now + delay, pushed, rx));
                pushed += 1;
            }
        }
    }
    report
}

fn square_at(x: f64, y: f64, side: f64) -> Polygon {
    Polygon::rect(Rect::from_corners(
        Point::new(x, y),
        Point::new(x + side, y + side),
    ))
}

/// A `cols × rows` lattice of 14 m buildings with some removed (at
/// least two always remain).
fn grid_map(cols: usize, rows: usize, pitch: f64, removal: f64, seed: u64) -> CityMap {
    let mut rng = SimRng::new(seed);
    let mut footprints = Vec::new();
    for y in 0..rows {
        for x in 0..cols {
            if footprints.len() >= 2 && rng.chance(removal) {
                continue;
            }
            footprints.push(square_at(x as f64 * pitch, y as f64 * pitch, 14.0));
        }
    }
    CityMap::new("oracle-grid", footprints, vec![])
}

#[derive(Clone, Copy, Debug)]
enum World {
    Healthy,
    IidFailed,
    DegradedLossy,
}

fn world() -> impl Strategy<Value = World> {
    prop_oneof![
        Just(World::Healthy),
        Just(World::IidFailed),
        Just(World::DegradedLossy)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Kernel ≡ naive reference on random small cities × {healthy,
    /// iid-failed, degraded/lossy} × both scopes, several flows through
    /// one dirty scratch (so a leaked role or verdict would show as a
    /// lost reception or a stray relay), the last at TTL 0.
    #[test]
    fn kernel_equals_naive_reference(
        (cols, rows) in (3usize..9, 2usize..7),
        pitch in 25.0..45.0f64,
        removal in 0.0..0.3f64,
        seed in any::<u64>(),
        m2_per_ap in 60.0..250.0f64,
        world in world(),
        by_position in any::<bool>(),
    ) {
        let map = grid_map(cols, rows, pitch, removal, seed);
        let mut rng = SimRng::new(seed ^ 0xA9);
        let aps = place_aps(&map, m2_per_ap, &mut rng);
        let apg = ApGraph::build(&aps, 50.0);
        let bg = BuildingGraph::build(&map, BuildingGraphParams::default());
        let scenario = match world {
            World::Healthy => None,
            World::IidFailed => Some(FaultScenario::iid(0.2)),
            World::DegradedLossy => Some(FaultScenario {
                degraded_p: 0.4,
                degraded_loss: 0.5,
                ..FaultScenario::default()
            }),
        };
        let faults = scenario.map(|s| FaultState::materialize(&s, &aps, &map, seed));
        let scope = if by_position { RebroadcastScope::ApPosition } else { RebroadcastScope::Building };
        let loss = if matches!(world, World::DegradedLossy) { 0.15 } else { 0.0 };

        let mut scratch = DeliveryScratch::new();
        let n = map.len() as u64;
        for flow in 0..4u64 {
            let src = rng.below(n) as u32;
            let dst = rng.below(n) as u32;
            // A planned route when one exists, else a header straight
            // across the gap (the flood must then die out cleanly).
            let waypoints = match plan_route(&bg, src, dst) {
                Ok(route) => compress_route(&bg, &route, 50.0).unwrap().waypoints,
                Err(_) => vec![src, dst],
            };
            // One constant msg id: a scratch that leaked "seen" state
            // between flows would suppress the next flow's receptions.
            let header = CityMeshHeader::new(7, 50.0, waypoints);
            let conduits = reconstruct_conduits(&map, &header.waypoints, header.conduit_width_m());
            let covered = CoveredSet::of(&map, &conduits);
            let relays = if by_position { Relays::Conduits(&conduits) } else { Relays::Covered(&covered) };
            let src_ap = postbox_ap(&aps, &map, src).unwrap();

            let mut rng_ref = SimRng::new(seed ^ flow);
            let mut rng_kernel = rng_ref.clone();
            let expected = reference_delivery(
                &map, &apg, &header, &conduits, scope, src_ap, loss, faults.as_ref(), &mut rng_ref,
            );
            let got = simulate_delivery_faulted(
                &apg, &header, relays, src_ap, loss, faults.as_ref(), &mut rng_kernel, &mut scratch,
            );
            prop_assert_eq!(got, &expected, "flow {} ({}->{}) diverged", flow, src, dst);
            prop_assert_eq!(
                rng_kernel.below(u64::MAX), rng_ref.below(u64::MAX),
                "RNG streams desynchronized on flow {}", flow
            );
        }
    }

    /// `ApGraph::audience(ap)` is exactly what the spatial index yields
    /// at the AP's position minus the AP itself, in the same order —
    /// including co-located APs, exact-range boundaries (coordinates
    /// are multiples of 12.5 m, range 50 m) and an AP nobody hears.
    #[test]
    fn audience_rows_equal_the_grid_query(
        cells in proptest::collection::vec((0u32..24, 0u32..24), 1..60),
    ) {
        let aps: Vec<Ap> = cells
            .iter()
            .map(|&(x, y)| Point::new(x as f64 * 12.5, y as f64 * 12.5))
            // A twin on top of the first AP, and a hermit far away.
            .chain([Point::new(cells[0].0 as f64 * 12.5, cells[0].1 as f64 * 12.5)])
            .chain([Point::new(5_000.0, 5_000.0)])
            .enumerate()
            .map(|(id, pos)| Ap { id: id as u32, pos, building: id as u32 / 2 })
            .collect();
        let apg = ApGraph::build(&aps, 50.0);
        for ap in &aps {
            let mut expected = Vec::new();
            apg.for_each_in_range(apg.position(ap.id), |rx, _| {
                if rx != ap.id {
                    expected.push(rx);
                }
            });
            prop_assert_eq!(apg.audience(ap.id), &expected[..], "AP {}", ap.id);
        }
        let twin = aps.len() as u32 - 2;
        let hermit = aps.len() as u32 - 1;
        prop_assert!(apg.audience(0).contains(&twin) && apg.audience(twin).contains(&0));
        prop_assert!(apg.audience(hermit).is_empty());

    }
}

/// The benchmark's downtown (`crates/perf/src/workload.rs`: the
/// `SurveyDowntown` archetype at world seed 2024) under `faults`.
fn benchmark_downtown(faults: Option<FaultScenario>) -> CityExperiment {
    let config = ExperimentConfig {
        seed: 2024,
        faults,
        ..ExperimentConfig::default()
    };
    let map = CityArchetype::SurveyDowntown.generate(2024);
    CityExperiment::try_prepare(map, config).expect("the benchmark's config is valid")
}

/// The first `n` of the benchmark's seed-1 hotspot flows (`fleet-hot`
/// and `churn-ladder` share the model: 256 hotspots, Zipf 0.8).
fn hotspot_flows(exp: &CityExperiment, n: usize) -> Vec<FlowSpec> {
    let model = FlowModel::Hotspot {
        hotspots: 256,
        exponent: 0.8,
        rate_hz: 1_000.0,
    };
    let cfg = WorkloadConfig {
        flows: n,
        model,
        seed: 1,
    };
    generate_flows(exp.map().len(), &cfg)
}

/// What a fleet worker hands the kernel for `flow` on `world`: the
/// flow planned into `plan` (its conduits and covered set), the plan's
/// header, the flow's message id and its jitter sub-stream (seed 1).
/// `None` when nothing would be sent.
fn kernel_input(
    world: &CityExperiment,
    flow: &FlowSpec,
    scratch: &mut PlanScratch,
    plan: &mut PlannedFlow,
) -> Option<(CityMeshHeader, u32, SimRng)> {
    world.plan_flow_into(flow.src, flow.dst, scratch, plan);
    let src_ap = plan.src_ap.filter(|_| plan.route_found())?;
    let msg_id = substream_seed(1, DOMAIN_MSG, flow.id);
    let width = world.config().conduit_width_m;
    let header = CityMeshHeader::new(msg_id, width, plan.waypoints.clone());
    let rng = SimRng::new(substream_seed(1, DOMAIN_SIM, flow.id));
    Some((header, src_ap, rng))
}

/// What [`kernel_equals_reference_on`] ran.
#[derive(Debug, Default)]
struct Tally {
    simulated: u64,
    delivered: u64,
}

/// Runs `flows` on `world` under `scope` through `scratch` — handing
/// the kernel the plan's covered set, or under AP-position scope its
/// conduits, as the engines do — and through the reference; every
/// report must be equal field for field and leave the RNG at the same
/// position.
fn kernel_equals_reference_on(
    world: &CityExperiment,
    flows: &[FlowSpec],
    scope: RebroadcastScope,
    loss: f64,
    scratch: &mut DeliveryScratch,
) -> Tally {
    let (map, apg, faults) = (world.map(), world.ap_graph(), world.fault_state());
    let mut tally = Tally::default();
    let (mut plan_scratch, mut plan) = (PlanScratch::new(), PlannedFlow::empty(0, 0));
    for flow in flows {
        let Some((header, src_ap, mut rng_ref)) =
            kernel_input(world, flow, &mut plan_scratch, &mut plan)
        else {
            continue;
        };
        let mut rng_kernel = rng_ref.clone();
        let expected = reference_delivery(
            map,
            apg,
            &header,
            &plan.conduits,
            scope,
            src_ap,
            loss,
            faults,
            &mut rng_ref,
        );
        let relays = match scope {
            RebroadcastScope::Building => Relays::Covered(plan.covered().expect("planned")),
            RebroadcastScope::ApPosition => Relays::Conduits(&plan.conduits),
        };
        let got = simulate_delivery_faulted(
            apg,
            &header,
            relays,
            src_ap,
            loss,
            faults,
            &mut rng_kernel,
            scratch,
        );
        assert_eq!(
            got, &expected,
            "flow {} ({} -> {})",
            flow.id, flow.src, flow.dst
        );
        assert_eq!(
            rng_kernel.below(u64::MAX),
            rng_ref.below(u64::MAX),
            "RNG streams desynchronized on flow {}",
            flow.id
        );
        tally.simulated += 1;
        tally.delivered += u64::from(got.delivered);
    }
    tally
}

/// Kernel ≡ naive reference at benchmark scale, through ONE dirty
/// scratch carried across four worlds of the benchmark downtown, every
/// plan through one kept `PlanScratch` and `PlannedFlow`: the
/// `fleet-hot` flows (the healthy instantiation), the `churn-ladder`
/// blackout (failed APs, the general instantiation), a lossy medium
/// over degraded APs, and AP-position scope. A verdict table that
/// leaked between flows, a covered set that named the wrong buildings
/// or a verdict keyed by anything but the receiver's building (or, by
/// position, the receiver) changes a report here.
/// Release only (CI runs it).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "4,000 downtown flows against the reference: run with --release"
)]
fn kernel_equals_reference_at_benchmark_scale() {
    let mut scratch = DeliveryScratch::new();
    let healthy = benchmark_downtown(None);
    let (loss, building) = (0.0, RebroadcastScope::Building);
    assert_eq!(healthy.config().scope, building);
    let flows = hotspot_flows(&healthy, 1_000);
    let t = kernel_equals_reference_on(&healthy, &flows, building, loss, &mut scratch);
    assert!(t.simulated > 950 && t.delivered > 900, "{t:?}");

    let blackout = benchmark_downtown(Some(FaultScenario::district_blackouts(1, 60.0)));
    let failed = blackout.fault_state().expect("faulted").failed_count();
    assert!(failed > 10, "the blackout darkens {failed} APs");
    let t = kernel_equals_reference_on(&blackout, &flows, building, loss, &mut scratch);
    assert!(t.delivered > 100 && t.simulated - t.delivered > 50, "{t:?}");

    let lossy = benchmark_downtown(Some(FaultScenario {
        degraded_p: 0.4,
        degraded_loss: 0.5,
        ..FaultScenario::default()
    }));
    assert!(lossy.fault_state().expect("faulted").degraded_count() > 200);
    let lossy_medium = 0.15;
    let t = kernel_equals_reference_on(&lossy, &flows, building, lossy_medium, &mut scratch);
    assert!(t.delivered > 100 && t.simulated - t.delivered > 5, "{t:?}");

    let by_position = RebroadcastScope::ApPosition;
    let t = kernel_equals_reference_on(&healthy, &flows, by_position, loss, &mut scratch);
    assert!(t.simulated > 950, "{t:?}");
}

/// The two instantiations of the kernel's loop are one kernel: the same
/// healthy flows through a scratch whose tracer records (the general
/// loop, every branch and tracer call kept) and through a plain one
/// (the healthy loop) give identical reports, RNG positions and queue
/// high water.
#[test]
fn healthy_and_general_instantiations_agree() {
    let world = benchmark_downtown(None);
    let apg = world.ap_graph();
    let loss = 0.0;
    let mut plain = DeliveryScratch::new();
    let mut traced = DeliveryScratch::with_tracing(TraceConfig::sampled(1));
    assert!(traced.tracer().is_enabled() && !plain.tracer().is_enabled());
    let mut simulated = 0;
    let (mut plan_scratch, mut plan) = (PlanScratch::new(), PlannedFlow::empty(0, 0));
    for flow in hotspot_flows(&world, 300) {
        let Some((header, src_ap, mut rng_plain)) =
            kernel_input(&world, &flow, &mut plan_scratch, &mut plan)
        else {
            continue;
        };
        let relays = Relays::Covered(plan.covered().expect("planned"));
        let mut rng_traced = rng_plain.clone();
        let expected = simulate_delivery_faulted(
            apg,
            &header,
            relays,
            src_ap,
            loss,
            None,
            &mut rng_plain,
            &mut plain,
        );
        traced.tracer_mut().trace_next(flow.id);
        traced.tracer_mut().begin_flow();
        assert!(traced.tracer().is_active());
        let got = simulate_delivery_faulted(
            apg,
            &header,
            relays,
            src_ap,
            loss,
            None,
            &mut rng_traced,
            &mut traced,
        );
        assert_eq!(got, expected, "flow {}", flow.id);
        assert_eq!(rng_traced.below(u64::MAX), rng_plain.below(u64::MAX));
        simulated += 1;
    }
    assert!(simulated > 280);
    // The last flow's trace is still open: close it and read its ring.
    let tracer = traced.tracer_mut();
    tracer.finish_flow(FlowSummary {
        src: 0,
        dst: 0,
        delivered: true,
        attempts: 1,
        recovered_by: None,
        broadcasts: 0,
        latency_ns: None,
    });
    let last = tracer.take_postmortems();
    assert!(!last[0].events.is_empty(), "the general loop traced");
    assert_eq!(traced.kernel_stats(), plain.kernel_stats());
}

/// What the kernel does on the `fleet-hot` benchmark's 30,000 seed-1
/// flows, each handed its plan's covered set as the engines hand it:
/// the broadcasts and receptions a flow costs — one verdict per heard
/// building, read from the table the set fills, where the flood itself
/// is the work left — and never more than 24 events pending. Counts, so
/// they hold on every machine. Release only (CI runs it).
#[test]
#[cfg_attr(debug_assertions, ignore = "30,000 downtown flows: run with --release")]
fn one_verdict_per_heard_building_on_the_benchmark_flows() {
    let world = benchmark_downtown(None);
    let apg = world.ap_graph();
    let mut scratch = DeliveryScratch::new();
    let (mut plan_scratch, mut plan) = (PlanScratch::new(), PlannedFlow::empty(0, 0));
    let flows = hotspot_flows(&world, 30_000);
    let (mut broadcasts, mut receptions, mut first_receptions) = (0u64, 0u64, 0u64);
    for flow in &flows {
        let Some((header, src_ap, mut rng)) =
            kernel_input(&world, flow, &mut plan_scratch, &mut plan)
        else {
            continue;
        };
        let relays = Relays::Covered(plan.covered().expect("planned"));
        let loss = 0.0;
        let report = simulate_delivery_faulted(
            apg,
            &header,
            relays,
            src_ap,
            loss,
            None,
            &mut rng,
            &mut scratch,
        );
        broadcasts += report.broadcasts;
        receptions += report.receptions;
        assert_eq!(report.receptions - report.duplicates, {
            let heard = report.roles.iter().enumerate();
            heard
                .filter(|&(ap, r)| *r != ApRole::Silent && ap as u32 != src_ap)
                .count() as u64
        });
        first_receptions += report.receptions - report.duplicates;
    }
    let stats = scratch.kernel_stats();
    let per_flow = |n: u64| n as f64 / flows.len() as f64;
    eprintln!(
        "a flow: {:.1} broadcasts, {:.1} receptions, {:.1} first receptions; queue high water {}",
        per_flow(broadcasts),
        per_flow(receptions),
        per_flow(first_receptions),
        stats.queue_high_water
    );
    assert_eq!((broadcasts, receptions), (1_505_187, 20_511_087));
    assert!(stats.queue_high_water <= 24, "{stats:?}");
}
