//! Differential oracles for the delivery kernel.
//!
//! `simulate_delivery_faulted` finds each broadcast's receivers in a
//! precomputed audience row, treats the report's role vector as every
//! AP's duplicate-suppression memory, reads each building's verdict
//! from the route's covered set and orders its transmissions through
//! the simcore event queue. Two referees do none of it:
//!
//! * the **agent reference** owns one real deployed [`ApAgent`]
//!   (4096-id [`citymesh_reference::SeenCache`]) per AP, which tests the
//!   conduits itself on every new message, asks the spatial index who
//!   is in range on every broadcast, keeps its events in a plain `Vec`,
//!   and allocates everything freshly;
//! * the **graph referee** has no event list at all. Every draw is
//!   keyed by what it decides — a frame's loss by (transmitter,
//!   receiver), a relay's jitter by the relay — so which frames survive
//!   is known before the flood: a FIFO BFS over the surviving frames
//!   gives roles, broadcasts, receptions and duplicates, and a
//!   label-correcting relaxation over the keyed jitters gives the first
//!   delivery.
//!
//! Both take the attempt's key, as the kernel does, and must agree with
//! it field for field.

use std::collections::{HashSet, VecDeque};

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
use citymesh_simcore::{keyed_chance, keyed_jitter, split_seed, substream_seed, SimRng, SimTime};
use citymesh_telemetry::{FlowSummary, TraceConfig};
use proptest::prelude::*;

/// The agent reference (see the module docs).
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
    key: u64,
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
            if loss > 0.0 && keyed_chance(key, ap, rx, loss) {
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
                let delay = keyed_jitter(key, rx, MIN_JITTER, MAX_JITTER);
                events.push((now + delay, pushed, rx));
                pushed += 1;
            }
        }
    }
    report
}

/// The graph referee (see the module docs): the flood with no event
/// list and no RNG stream. `relays(ap)` says whether `ap` rebroadcasts
/// on first hearing the packet; `destination` is the header's
/// destination building.
fn graph_referee(
    apg: &ApGraph,
    destination: u32,
    relays: impl Fn(u32) -> bool,
    src_ap: u32,
    reception_loss: f64,
    faults: Option<&FaultState>,
    key: u64,
) -> DeliveryReport {
    let n = apg.len();
    let mut report = DeliveryReport {
        delivered: false,
        first_delivery: None,
        broadcasts: 0,
        receptions: 0,
        duplicates: 0,
        roles: vec![ApRole::Silent; n],
    };
    let live = |ap: u32| !faults.is_some_and(|f| f.is_failed(ap));
    if !live(src_ap) {
        return report;
    }
    let lost = |tx: u32, rx: u32| {
        let loss = match faults {
            Some(f) => combined_loss(reception_loss, f.extra_loss(rx)),
            None => reception_loss,
        };
        loss > 0.0 && keyed_chance(key, tx, rx, loss)
    };

    // Reach: a FIFO BFS from the source over the surviving frames,
    // relaying only through the APs `relays` names. `heard_from[tx]`
    // keeps the receivers of `tx`'s broadcast for the relaxation.
    let mut heard_from: Vec<Vec<u32>> = vec![Vec::new(); n];
    report.roles[src_ap as usize] = ApRole::Relayed;
    let mut frontier = VecDeque::from([src_ap]);
    while let Some(tx) = frontier.pop_front() {
        report.broadcasts += 1;
        let mut receivers = Vec::new();
        apg.for_each_in_range(apg.position(tx), |rx, _| {
            if rx != tx && live(rx) && !lost(tx, rx) {
                receivers.push(rx);
            }
        });
        for &rx in &receivers {
            report.receptions += 1;
            let role = &mut report.roles[rx as usize];
            if *role != ApRole::Silent {
                report.duplicates += 1;
            } else if relays(rx) {
                *role = ApRole::Relayed;
                frontier.push_back(rx);
            } else {
                *role = ApRole::HeardOnly;
            }
        }
        heard_from[tx as usize] = receivers;
    }

    // Timing: an AP first hears the packet when the earliest of its
    // transmitters sends, and a relay sends its keyed jitter later —
    // a shortest-path problem over the surviving frames, relaxed until
    // no label improves (label-correcting, FIFO).
    let mut first_heard: Vec<Option<SimTime>> = vec![None; n];
    let mut sends_at = vec![SimTime::ZERO; n];
    let mut queued = vec![false; n];
    let mut pending = VecDeque::from([src_ap]);
    queued[src_ap as usize] = true;
    while let Some(tx) = pending.pop_front() {
        queued[tx as usize] = false;
        let at = sends_at[tx as usize];
        for &rx in &heard_from[tx as usize] {
            if first_heard[rx as usize].is_some_and(|t| t <= at) {
                continue;
            }
            first_heard[rx as usize] = Some(at);
            if rx != src_ap && report.roles[rx as usize] == ApRole::Relayed {
                sends_at[rx as usize] = at + keyed_jitter(key, rx, MIN_JITTER, MAX_JITTER);
                if !std::mem::replace(&mut queued[rx as usize], true) {
                    pending.push_back(rx);
                }
            }
        }
    }
    // The kernel stops at its horizon; a flood never comes near it.
    assert!(
        sends_at.iter().all(|&t| t <= HORIZON),
        "a flood past the horizon"
    );

    report.first_delivery = if apg.building_of(src_ap) == destination {
        Some(SimTime::ZERO)
    } else {
        let in_destination = (0..n as u32).filter(|&ap| apg.building_of(ap) == destination);
        in_destination
            .filter_map(|ap| first_heard[ap as usize])
            .min()
    };
    report.delivered = report.first_delivery.is_some();
    report
}

/// Which referee a check grades the kernel against.
#[derive(Clone, Copy, Debug)]
enum Referee {
    Agents,
    Graph,
}

/// `referee`'s report for one flow, handed what the kernel is handed
/// plus the conduits the covered set came from.
#[allow(clippy::too_many_arguments)]
fn referee_report(
    referee: Referee,
    map: &CityMap,
    apg: &ApGraph,
    header: &CityMeshHeader,
    conduits: &[OrientedRect],
    relays: Relays,
    src_ap: u32,
    loss: f64,
    faults: Option<&FaultState>,
    key: u64,
) -> DeliveryReport {
    match (referee, relays) {
        (Referee::Agents, Relays::Covered(_)) => {
            let scope = RebroadcastScope::Building;
            reference_delivery(map, apg, header, conduits, scope, src_ap, loss, faults, key)
        }
        (Referee::Agents, Relays::Conduits(_)) => {
            let scope = RebroadcastScope::ApPosition;
            reference_delivery(map, apg, header, conduits, scope, src_ap, loss, faults, key)
        }
        (Referee::Graph, Relays::Covered(covered)) => {
            let covered: HashSet<u32> = covered.iter().collect();
            let relays = |ap| covered.contains(&apg.building_of(ap));
            let dst = header.destination();
            graph_referee(apg, dst, relays, src_ap, loss, faults, key)
        }
        (Referee::Graph, Relays::Conduits(conduits)) => {
            let relays = |ap| conduits.iter().any(|c| c.contains(apg.position(ap)));
            let dst = header.destination();
            graph_referee(apg, dst, relays, src_ap, loss, faults, key)
        }
    }
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
    IidLossy,
}

fn world() -> impl Strategy<Value = World> {
    prop_oneof![
        Just(World::Healthy),
        Just(World::IidFailed),
        Just(World::DegradedLossy),
        Just(World::IidLossy),
    ]
}

/// One random small city of the proptests below.
#[derive(Clone, Debug)]
struct City {
    cols: usize,
    rows: usize,
    pitch: f64,
    removal: f64,
    seed: u64,
    m2_per_ap: f64,
    world: World,
    by_position: bool,
}

fn city() -> impl Strategy<Value = City> {
    (
        (3usize..9, 2usize..7),
        25.0..45.0f64,
        0.0..0.3f64,
        any::<u64>(),
        60.0..250.0f64,
        world(),
        any::<bool>(),
    )
        .prop_map(
            |((cols, rows), pitch, removal, seed, m2_per_ap, world, by_position)| City {
                cols,
                rows,
                pitch,
                removal,
                seed,
                m2_per_ap,
                world,
                by_position,
            },
        )
}

/// Kernel ≡ `referee` on `city` × both scopes, several flows through
/// one dirty scratch (so a leaked role or verdict would show as a lost
/// reception or a stray relay).
fn kernel_equals_referee_on_city(city: &City, referee: Referee) {
    let map = grid_map(city.cols, city.rows, city.pitch, city.removal, city.seed);
    let mut rng = SimRng::new(city.seed ^ 0xA9);
    let aps = place_aps(&map, city.m2_per_ap, &mut rng);
    let apg = ApGraph::build(&aps, 50.0);
    let bg = BuildingGraph::build(&map, BuildingGraphParams::default());
    let (scenario, loss) = match city.world {
        World::Healthy => (None, 0.0),
        World::IidFailed => (Some(FaultScenario::iid(0.2)), 0.0),
        World::DegradedLossy => {
            let degraded = FaultScenario {
                degraded_p: 0.4,
                degraded_loss: 0.5,
                ..FaultScenario::default()
            };
            (Some(degraded), 0.15)
        }
        World::IidLossy => (Some(FaultScenario::iid(0.3)), 0.3),
    };
    let faults = scenario.map(|s| FaultState::materialize(&s, &aps, &map, city.seed));

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
        let relays = if city.by_position {
            Relays::Conduits(&conduits)
        } else {
            Relays::Covered(&covered)
        };
        let src_ap = postbox_ap(&aps, &map, src).unwrap();
        let key = split_seed(city.seed, flow);
        let faults = faults.as_ref();
        let expected = referee_report(
            referee, &map, &apg, &header, &conduits, relays, src_ap, loss, faults, key,
        );
        let got = simulate_delivery_faulted(
            &apg,
            &header,
            relays,
            src_ap,
            loss,
            faults,
            key,
            &mut scratch,
        );
        assert_eq!(got, &expected, "flow {flow} ({src}->{dst}) diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Kernel ≡ agent reference on random small cities × {healthy,
    /// iid-failed, degraded/lossy, iid-failed/lossy} × both scopes.
    #[test]
    fn kernel_equals_naive_reference(city in city()) {
        kernel_equals_referee_on_city(&city, Referee::Agents);
    }

    /// Kernel ≡ graph referee on the same random cities.
    #[test]
    fn kernel_equals_graph_referee(city in city()) {
        kernel_equals_referee_on_city(&city, Referee::Graph);
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

/// What a fleet worker hands the kernel for `flow`'s first send on
/// `world`: the flow planned into `plan` (its conduits and covered
/// set), the plan's header, and the first attempt's key — the flow key
/// its seed-1 sub-stream yields, split by attempt 1. `None` when
/// nothing would be sent.
fn kernel_input(
    world: &CityExperiment,
    flow: &FlowSpec,
    scratch: &mut PlanScratch,
    plan: &mut PlannedFlow,
) -> Option<(CityMeshHeader, u32, u64)> {
    world.plan_flow_into(flow.src, flow.dst, scratch, plan);
    let src_ap = plan.src_ap.filter(|_| plan.route_found())?;
    let msg_id = substream_seed(1, DOMAIN_MSG, flow.id);
    let width = world.config().conduit_width_m;
    let header = CityMeshHeader::new(msg_id, width, plan.waypoints.clone());
    let flow_key = SimRng::new(substream_seed(1, DOMAIN_SIM, flow.id)).next_u64();
    Some((header, src_ap, split_seed(flow_key, 1)))
}

/// What [`kernel_equals_referee_on`] ran.
#[derive(Debug, Default)]
struct Tally {
    simulated: u64,
    delivered: u64,
}

/// Runs `flows` on `world` under `scope` through `scratch` — handing
/// the kernel the plan's covered set, or under AP-position scope its
/// conduits, as the engines do — and through `referee`; every report
/// must be equal field for field.
fn kernel_equals_referee_on(
    world: &CityExperiment,
    flows: &[FlowSpec],
    scope: RebroadcastScope,
    loss: f64,
    scratch: &mut DeliveryScratch,
    referee: Referee,
) -> Tally {
    let (map, apg, faults) = (world.map(), world.ap_graph(), world.fault_state());
    let mut tally = Tally::default();
    let (mut plan_scratch, mut plan) = (PlanScratch::new(), PlannedFlow::empty(0, 0));
    for flow in flows {
        let Some((header, src_ap, key)) = kernel_input(world, flow, &mut plan_scratch, &mut plan)
        else {
            continue;
        };
        let relays = match scope {
            RebroadcastScope::Building => Relays::Covered(plan.covered().expect("planned")),
            RebroadcastScope::ApPosition => Relays::Conduits(&plan.conduits),
        };
        let expected = referee_report(
            referee,
            map,
            apg,
            &header,
            &plan.conduits,
            relays,
            src_ap,
            loss,
            faults,
            key,
        );
        let got =
            simulate_delivery_faulted(apg, &header, relays, src_ap, loss, faults, key, scratch);
        assert_eq!(
            got, &expected,
            "flow {} ({} -> {}) against the {referee:?} referee",
            flow.id, flow.src, flow.dst
        );
        tally.simulated += 1;
        tally.delivered += u64::from(got.delivered);
    }
    tally
}

/// One world of the benchmark-scale checks: the benchmark downtown
/// under a fault scenario, its medium loss, and a bound on what the
/// flows must do there, so no world is vacuous.
struct BenchWorld {
    name: &'static str,
    world: CityExperiment,
    loss: f64,
    enough: fn(&Tally) -> bool,
}

/// The four worlds both benchmark-scale checks run (the same 1,000
/// `fleet-hot` flows on each): healthy; the `churn-ladder` 60 m
/// blackout; degraded APs (40 % at 50 % extra loss) over a 15 % lossy
/// medium; and i.i.d. failures (30 %) over a 30 % lossy medium.
fn benchmark_worlds() -> [BenchWorld; 4] {
    let degraded = FaultScenario {
        degraded_p: 0.4,
        degraded_loss: 0.5,
        ..FaultScenario::default()
    };
    [
        BenchWorld {
            name: "healthy",
            world: benchmark_downtown(None),
            loss: 0.0,
            enough: |t| t.simulated > 950 && t.delivered > 900,
        },
        BenchWorld {
            name: "60 m blackout",
            world: benchmark_downtown(Some(FaultScenario::district_blackouts(1, 60.0))),
            loss: 0.0,
            enough: |t| t.delivered > 100 && t.simulated - t.delivered > 50,
        },
        BenchWorld {
            name: "degraded, 15 % loss",
            world: benchmark_downtown(Some(degraded)),
            loss: 0.15,
            enough: |t| t.delivered > 100 && t.simulated - t.delivered > 5,
        },
        BenchWorld {
            name: "iid(0.3), 30 % loss",
            world: benchmark_downtown(Some(FaultScenario::iid(0.3))),
            loss: 0.3,
            enough: |t| t.delivered > 50 && t.simulated - t.delivered > 100,
        },
    ]
}

/// Kernel ≡ `referee` at benchmark scale, through ONE dirty scratch
/// carried across the four [`benchmark_worlds`] and then AP-position
/// scope of the healthy one, every plan through one kept `PlanScratch`
/// and `PlannedFlow`. A verdict table that leaked between flows, a
/// covered set that named the wrong buildings, a verdict keyed by
/// anything but the receiver's building (or, by position, the
/// receiver), or a draw keyed by anything but what it decides changes
/// a report here.
fn kernel_equals_referee_at_benchmark_scale(referee: Referee) {
    let mut scratch = DeliveryScratch::new();
    let worlds = benchmark_worlds();
    let building = RebroadcastScope::Building;
    let flows = hotspot_flows(&worlds[0].world, 1_000);
    for w in &worlds {
        assert_eq!(w.world.config().scope, building);
        let t = kernel_equals_referee_on(&w.world, &flows, building, w.loss, &mut scratch, referee);
        eprintln!("{referee:?} referee, {}: {t:?}", w.name);
        assert!((w.enough)(&t), "{}: {t:?}", w.name);
    }
    let blackout = worlds[1].world.fault_state().expect("faulted");
    assert!(blackout.failed_count() > 10, "the blackout darkens APs");
    assert!(
        worlds[2]
            .world
            .fault_state()
            .expect("faulted")
            .degraded_count()
            > 200
    );

    let (healthy, by_position) = (&worlds[0].world, RebroadcastScope::ApPosition);
    let t = kernel_equals_referee_on(healthy, &flows, by_position, 0.0, &mut scratch, referee);
    assert!(t.simulated > 950, "{t:?}");
}

/// Kernel ≡ agent reference at benchmark scale. Release only (CI runs
/// it).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "5,000 downtown flows against the agent reference: run with --release"
)]
fn kernel_equals_reference_at_benchmark_scale() {
    kernel_equals_referee_at_benchmark_scale(Referee::Agents);
}

/// Kernel ≡ graph referee at benchmark scale. Release only (CI runs
/// it).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "5,000 downtown flows against the graph referee: run with --release"
)]
fn kernel_equals_graph_referee_at_benchmark_scale() {
    kernel_equals_referee_at_benchmark_scale(Referee::Graph);
}

/// The two instantiations of the kernel's loop are one kernel: the same
/// healthy flows through a scratch whose tracer records (the general
/// loop, every branch and tracer call kept) and through a plain one
/// (the healthy loop) give identical reports and queue high water.
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
        let Some((header, src_ap, key)) = kernel_input(&world, &flow, &mut plan_scratch, &mut plan)
        else {
            continue;
        };
        let relays = Relays::Covered(plan.covered().expect("planned"));
        let expected =
            simulate_delivery_faulted(apg, &header, relays, src_ap, loss, None, key, &mut plain);
        traced.tracer_mut().trace_next(flow.id);
        traced.tracer_mut().begin_flow();
        assert!(traced.tracer().is_active());
        let got =
            simulate_delivery_faulted(apg, &header, relays, src_ap, loss, None, key, &mut traced);
        assert_eq!(got, expected, "flow {}", flow.id);
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
        let Some((header, src_ap, key)) = kernel_input(&world, flow, &mut plan_scratch, &mut plan)
        else {
            continue;
        };
        let relays = Relays::Covered(plan.covered().expect("planned"));
        let loss = 0.0;
        let report =
            simulate_delivery_faulted(apg, &header, relays, src_ap, loss, None, key, &mut scratch);
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
