//! Differential oracle for the three flow engines.
//!
//! `try_run_fleet`, `try_run_stream` and `try_run_churn` all plan
//! through a shared route cache with per-worker scratch buffers, run on
//! a worker pool and merge per-worker reports; the churn and stream
//! engines additionally keep cached plans across world events and evict
//! only the ones an event could touch. The reference below does none of
//! that: one thread, flows in id order, every flow planned from scratch
//! with fresh buffers (`plan_flow`) and simulated on a fresh
//! `DeliveryScratch`, every world event applied with
//! `apply_world_event` at the same `arrival_ms < at_ms` boundary, and
//! **no plan ever cached**. Reactive local repair gets a reference of
//! its own, [`reference_reactive`]: its retry loop written out with a
//! fresh header, conduits and covered set per attempt and its own splice
//! over the allocating reference detour. The engines must agree with
//! them counter for counter and digest for digest on random small
//! cities.

use std::collections::HashSet;

use citymesh_core::sim::HORIZON;
use citymesh_core::{
    reconstruct_conduits, simulate_delivery_faulted, BuildingGraph, CityExperiment, CoveredSet,
    DeliveryScratch, ExperimentConfig, FaultScenario, HierParams, OverheadOutcome, PairOutcome,
    RebroadcastScope, RecoveryStage, Relays, RetryPolicy,
};
use citymesh_dynamics::{
    try_run_churn, ChurnConfig, ChurnEngineConfig, ChurnReport, EpochStat, InvalidationPolicy,
    Strategy as Churn, Timeline,
};
use citymesh_fleet::{
    generate_flows, try_run_fleet, FleetConfig, FleetReport, FlowModel, FlowSpec, WorkloadConfig,
    DOMAIN_MSG, DOMAIN_SIM,
};
use citymesh_map::synth::generate;
use citymesh_map::{CityArchetype, CityMap};
use citymesh_net::CityMeshHeader;
use citymesh_reference::{compress_route, plan_route_avoiding};
use citymesh_simcore::{split_seed, substream_seed, SimRng, SimTime};
use citymesh_stream::{try_run_stream, StreamConfig};
use citymesh_telemetry::TelemetryConfig;
use proptest::prelude::*;

/// A random small city: a 260–420 m square of downtown-style blocks.
/// Position and size jitter keep route costs untied, which is what the
/// hierarchical planner's route-for-route equality with the flat one
/// rests on.
#[derive(Clone, Debug)]
struct SmallCity {
    side_m: f64,
    fill: f64,
    seed: u64,
}

fn small_city() -> impl Strategy<Value = SmallCity> {
    (260.0..420.0f64, 0.7..0.95f64, any::<u64>()).prop_map(|(side_m, fill, seed)| SmallCity {
        side_m,
        fill,
        seed,
    })
}

fn build_map(city: &SmallCity) -> CityMap {
    let params = citymesh_map::CityParams {
        name: "oracle-city".to_string(),
        width_m: city.side_m,
        height_m: city.side_m,
        fill: city.fill,
        ..CityArchetype::SurveyDowntown.params()
    };
    generate(&params, city.seed)
}

fn prepare(city: &SmallCity, faults: Option<FaultScenario>) -> CityExperiment {
    CityExperiment::prepare(
        build_map(city),
        ExperimentConfig {
            seed: city.seed,
            faults,
            ..ExperimentConfig::default()
        },
    )
}

/// Few hotspots over few buildings: pairs repeat constantly, so the
/// engines serve most flows from cached plans — exactly the state the
/// never-caching reference cannot share a bug with.
fn workload(exp: &CityExperiment, flows: usize, seed: u64) -> Vec<FlowSpec> {
    generate_flows(
        exp.map().len(),
        &WorkloadConfig {
            flows,
            model: FlowModel::Hotspot {
                hotspots: 5,
                exponent: 1.1,
                rate_hz: 200.0,
            },
            seed,
        },
    )
}

/// The naive per-flow pipeline: nothing reused, nothing cached.
fn reference_outcome(
    world: &CityExperiment,
    flow: &FlowSpec,
    seed: u64,
    encrypted: bool,
) -> PairOutcome {
    let plan = world.plan_flow(flow.src, flow.dst);
    let msg_id = substream_seed(seed, DOMAIN_MSG, flow.id);
    let mut rng = SimRng::new(substream_seed(seed, DOMAIN_SIM, flow.id));
    if encrypted {
        world.simulate_flow_secure_with(&plan, msg_id, &mut rng, &mut DeliveryScratch::new())
    } else {
        world.simulate_flow(&plan, msg_id, &mut rng)
    }
}

/// Reactive local repair, naively: the flow's route (planned afresh)
/// is sent over; after each timeout the first dark building on the
/// route last sent over is spliced out — a detour from the building
/// before it to the first live one after it — or, with no splice, the
/// whole route is replanned around the dark buildings, and the next
/// attempt sends over the patched route. Every attempt builds its own
/// header, conduits, covered set and kernel scratch, and runs the
/// kernel on the key the flow body derives for it — resends included,
/// which the flow body skips when no frame can be lost. A delivery on
/// a patched route is a replan however many sends after the splice.
fn reference_reactive(
    world: &CityExperiment,
    flow: &FlowSpec,
    seed: u64,
    max_attempts: u32,
) -> PairOutcome {
    let plan = world.plan_flow(flow.src, flow.dst);
    let msg_id = substream_seed(seed, DOMAIN_MSG, flow.id);
    let flow_key = SimRng::new(substream_seed(seed, DOMAIN_SIM, flow.id)).next_u64();
    let mut outcome = PairOutcome::from_plan(&plan);
    let Some(src_ap) = plan.src_ap.filter(|_| plan.route_found()) else {
        return outcome;
    };
    let faults = world.fault_state().expect("churn worlds are faulted");
    let blocked: HashSet<u32> = faults.blocked_buildings().collect();
    let (bg, map, config) = (world.building_graph(), world.map(), world.config());
    let width = config.conduit_width_m;
    let mut route = plan.primary_route().to_vec();
    let (mut attempts, mut broadcasts, mut penalty) = (0u32, 0u64, SimTime::ZERO);
    let mut repaired = false;
    loop {
        attempts += 1;
        let header = CityMeshHeader::new(msg_id, width, compress_route(bg, &route, width));
        let conduits = reconstruct_conduits(map, &header.waypoints, header.conduit_width_m());
        let covered = CoveredSet::of(map, &conduits);
        let relays = match config.scope {
            RebroadcastScope::Building => Relays::Covered(&covered),
            RebroadcastScope::ApPosition => Relays::Conduits(&conduits),
        };
        let report = simulate_delivery_faulted(
            world.ap_graph(),
            &header,
            relays,
            src_ap,
            config.reception_loss,
            Some(faults),
            split_seed(flow_key, u64::from(attempts)),
            &mut DeliveryScratch::new(),
        )
        .clone();
        broadcasts += report.broadcasts;
        if report.delivered {
            outcome.delivered = true;
            outcome.latency = report.first_delivery.map(|t| penalty + t);
            if attempts > 1 {
                outcome.recovered_by = Some(if repaired {
                    RecoveryStage::Replan
                } else {
                    RecoveryStage::Resend
                });
            }
            break;
        }
        if attempts >= max_attempts {
            break;
        }
        penalty += HORIZON;
        if let Some(patched) = splice(bg, &route, &blocked) {
            route = patched;
            repaired = true;
        }
    }
    outcome.attempts = attempts;
    outcome.broadcasts = broadcasts;
    outcome.overhead =
        OverheadOutcome::measure(outcome.delivered, broadcasts, plan.ideal_hops).value();
    outcome
}

/// The reference's repair step: `route` with its first dark building
/// spliced out, else a full detour around every dark building; `None`
/// when the route has no dark building, its source is dark, or nothing
/// new survives.
fn splice(bg: &BuildingGraph, route: &[u32], blocked: &HashSet<u32>) -> Option<Vec<u32>> {
    let first_dark = route.iter().position(|b| blocked.contains(b))?;
    if first_dark == 0 {
        return None;
    }
    let anchor = first_dark - 1;
    if let Some(rejoin) = (first_dark + 1..route.len()).find(|&k| !blocked.contains(&route[k])) {
        if let Ok(detour) = plan_route_avoiding(bg, route[anchor], route[rejoin], blocked) {
            return Some([&route[..anchor], &detour, &route[rejoin + 1..]].concat());
        }
    }
    let detour = plan_route_avoiding(bg, route[0], route[route.len() - 1], blocked).ok()?;
    (detour != route).then_some(detour)
}

/// Folds `outcome` of every flow, in order.
fn fold(flows: &[FlowSpec], mut outcome: impl FnMut(&FlowSpec) -> PairOutcome) -> FleetReport {
    let mut report = FleetReport::empty();
    for flow in flows {
        report.absorb_outcome(flow, &outcome(flow));
    }
    report
}

fn reference_report(
    world: &CityExperiment,
    flows: &[FlowSpec],
    seed: u64,
    encrypted: bool,
) -> FleetReport {
    fold(flows, |flow| {
        reference_outcome(world, flow, seed, encrypted)
    })
}

/// Every digest-bearing field of two fleet reports, then the digest.
fn assert_fleet_eq(engine: &FleetReport, reference: &FleetReport, what: &str) {
    assert_eq!(engine.flows, reference.flows, "{what}: flows");
    assert_eq!(engine.reachable, reference.reachable, "{what}: reachable");
    assert_eq!(
        engine.route_found, reference.route_found,
        "{what}: route_found"
    );
    assert_eq!(engine.delivered, reference.delivered, "{what}: delivered");
    assert_eq!(engine.checkins, reference.checkins, "{what}: checkins");
    assert_eq!(engine.retried, reference.retried, "{what}: retried");
    assert_eq!(engine.recovered, reference.recovered, "{what}: recovered");
    assert_eq!(engine.sealed, reference.sealed, "{what}: sealed");
    assert_eq!(engine.opened, reference.opened, "{what}: opened");
    assert_eq!(
        engine.auth_failures, reference.auth_failures,
        "{what}: auth_failures"
    );
    assert_eq!(
        engine.span_ms.to_bits(),
        reference.span_ms.to_bits(),
        "{what}: span_ms"
    );
    for (name, e, r) in [
        ("latency_ms", &engine.latency_ms(), &reference.latency_ms()),
        ("broadcasts", &engine.broadcasts, &reference.broadcasts),
        ("hops", &engine.hops, &reference.hops),
        ("header_bits", &engine.header_bits, &reference.header_bits),
        (
            "retry_attempts",
            &engine.retry_attempts,
            &reference.retry_attempts,
        ),
    ] {
        assert_eq!(e.fingerprint(), r.fingerprint(), "{what}: {name}");
    }
    assert_eq!(engine.rungs, reference.rungs, "{what}: rungs");
    assert_eq!(engine.digest(), reference.digest(), "{what}: digest");
}

/// What distinguishes the four fleet/stream oracle worlds.
#[derive(Clone, Copy, Debug)]
enum Mode {
    Flat,
    Hier,
    Encrypted,
    /// i.i.d. AP failures under `RetryPolicy::ladder()`.
    Faulted,
}

const MODES: [Mode; 4] = [Mode::Flat, Mode::Hier, Mode::Encrypted, Mode::Faulted];

fn mode_world(city: &SmallCity, mode: Mode, p: f64) -> CityExperiment {
    let mut exp = match mode {
        Mode::Faulted => {
            let mut scenario = FaultScenario::iid(p);
            scenario.retry = RetryPolicy::ladder();
            prepare(city, Some(scenario))
        }
        _ => prepare(city, None),
    };
    match mode {
        Mode::Hier => exp.enable_hier(&HierParams {
            target_district_size: 12,
            ..HierParams::default()
        }),
        Mode::Encrypted => exp.enable_encryption(),
        Mode::Flat | Mode::Faulted => {}
    }
    exp
}

/// The reference's churn run: per-epoch outcome folds with the world
/// mutated between them, shaped into the engine's own report type so
/// fields and digest compare directly, plus how many deliveries each
/// rung made (in [`RecoveryStage::ALL`] order), which no digest holds.
/// The cost fields no reference can know (evictions, planner
/// invocations) stay zero; the digest excludes them.
fn reference_churn(
    exp: &CityExperiment,
    flows: &[FlowSpec],
    timeline: &Timeline,
    strategy: Churn,
    seed: u64,
) -> (ChurnReport, [u64; 4]) {
    let mut world = exp.clone();
    world.set_retry(match strategy {
        Churn::RetryLadder => RetryPolicy::ladder(),
        // Reactive repair climbs `reference_reactive`'s own rungs.
        Churn::StaticPlan | Churn::ReactiveRepair => RetryPolicy::none(),
    });
    let mut report = ChurnReport {
        timeline_fingerprint: timeline.fingerprint(),
        ..ChurnReport::default()
    };
    let mut rungs = [0u64; 4];
    let mut rest = flows;
    for k in 0..=timeline.len() {
        let event = timeline.events().get(k);
        let (slice, later) = match event {
            Some(ev) => rest.split_at(rest.partition_point(|f| f.arrival_ms < ev.at_ms)),
            None => (rest, &rest[rest.len()..]),
        };
        rest = later;
        let fleet = fold(slice, |flow| {
            let outcome = match strategy {
                Churn::ReactiveRepair => reference_reactive(&world, flow, seed, 4),
                Churn::StaticPlan | Churn::RetryLadder => {
                    reference_outcome(&world, flow, seed, false)
                }
            };
            if outcome.delivered {
                let rung = outcome.recovered_by.unwrap_or(RecoveryStage::First);
                rungs[RecoveryStage::ALL.iter().position(|&s| s == rung).unwrap()] += 1;
            }
            outcome
        });
        let state = world.fault_state().expect("churn worlds are faulted");
        let mut stat = EpochStat {
            epoch: state.epoch(),
            flows: fleet.flows,
            fleet_digest: fleet.digest(),
            fault_fingerprint: state.fingerprint(),
            aps_changed: 0,
            evicted: 0,
        };
        report.flows += fleet.flows;
        report.delivered += fleet.delivered;
        report.retried += fleet.retried;
        report.recovered += fleet.recovered;
        report.epochs += 1;
        if let Some(ev) = event {
            let transition = world.apply_world_event(&ev.changes);
            report.events_applied += 1;
            report.aps_changed += transition.aps_changed as u64;
            stat.aps_changed = transition.aps_changed as u64;
            stat.fault_fingerprint = transition.fingerprint;
        }
        report.epoch_stats.push(stat);
    }
    (report, rungs)
}

/// The churn engine ≡ [`reference_churn`] for `strategy` at 1, 2, 4
/// and 8 workers under both invalidation policies: every outcome
/// counter, every epoch, the digest, and the deliveries of each rung. Returns the reference's rung counts.
fn assert_churn_matches(
    exp: &CityExperiment,
    flows: &[FlowSpec],
    tl: &Timeline,
    strategy: Churn,
    seed: u64,
) -> [u64; 4] {
    let (reference, rungs) = reference_churn(exp, flows, tl, strategy, seed);
    for invalidation in [
        InvalidationPolicy::Incremental,
        InvalidationPolicy::FullFlush,
    ] {
        for workers in [1usize, 2, 4, 8] {
            let cfg = ChurnEngineConfig {
                workers,
                seed,
                invalidation,
                reactive_max_attempts: 4,
            };
            let (engine, _) =
                try_run_churn(exp, flows, tl, strategy, &cfg, &TelemetryConfig::off())
                    .expect("the world is faulted");
            let what = format!("churn {strategy:?} {invalidation:?} x{workers}");
            assert_eq!(engine.flows, reference.flows, "{what}: flows");
            assert_eq!(engine.delivered, reference.delivered, "{what}: delivered");
            assert_eq!(engine.retried, reference.retried, "{what}: retried");
            assert_eq!(engine.recovered, reference.recovered, "{what}: recovered");
            assert_eq!(engine.epochs, reference.epochs, "{what}: epochs");
            assert_eq!(
                engine.events_applied, reference.events_applied,
                "{what}: events"
            );
            assert_eq!(
                engine.aps_changed, reference.aps_changed,
                "{what}: aps_changed"
            );
            for (e, r) in engine.epoch_stats.iter().zip(&reference.epoch_stats) {
                assert_eq!(e.epoch, r.epoch, "{what}: epoch id");
                assert_eq!(e.flows, r.flows, "{what}: epoch flows");
                assert_eq!(
                    e.fleet_digest, r.fleet_digest,
                    "{what}: epoch {} digest",
                    e.epoch
                );
                assert_eq!(
                    e.fault_fingerprint, r.fault_fingerprint,
                    "{what}: fingerprint"
                );
                assert_eq!(e.aps_changed, r.aps_changed, "{what}: epoch flips");
            }
            assert_eq!(engine.digest(), reference.digest(), "{what}: digest");
            assert_eq!(engine.rung_deliveries, rungs, "{what}: rung deliveries");
        }
    }
    rungs
}

fn random_timeline(
    exp: &CityExperiment,
    flows: &[FlowSpec],
    seed: u64,
    counts: (usize, usize, usize),
    radius_m: f64,
) -> Timeline {
    Timeline::materialize(
        exp,
        &ChurnConfig {
            aftershocks: counts.0,
            battery_waves: counts.1,
            crew_repairs: counts.2,
            horizon_ms: flows.last().expect("non-empty workload").arrival_ms,
            aftershock_radius_m: radius_m,
            drain_p: 0.15,
            repair_radius_m: radius_m * 1.25,
            seed,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Fleet ≡ reference at 1, 2, 4 and 8 workers, in every mode.
    #[test]
    fn fleet_matches_the_naive_reference(
        city in small_city(),
        seed in any::<u64>(),
        flows in 60usize..140,
        p in 0.1..0.3f64,
    ) {
        for mode in MODES {
            let exp = mode_world(&city, mode, p);
            let flows = workload(&exp, flows, seed);
            let encrypted = matches!(mode, Mode::Encrypted);
            let reference = reference_report(&exp, &flows, seed, encrypted);
            for workers in [1usize, 2, 4, 8] {
                let cfg = FleetConfig {
                    workers,
                    seed,
                    use_hier_planner: matches!(mode, Mode::Hier),
                    encrypted,
                };
                let engine = try_run_fleet(&exp, &flows, &cfg).expect("mode prerequisites enabled");
                assert_fleet_eq(&engine, &reference, &format!("fleet {mode:?} x{workers}"));
            }
        }
    }

    /// An underloaded stream — queues deep enough that nothing sheds
    /// and no degradation rung fires — serves exactly the reference's
    /// outcomes, over more than one fold window.
    #[test]
    fn underloaded_stream_matches_the_naive_reference(
        city in small_city(),
        seed in any::<u64>(),
        flows in 60usize..600,
        p in 0.1..0.3f64,
        servers in 1usize..5,
    ) {
        for mode in MODES {
            let exp = mode_world(&city, mode, p);
            let flows = workload(&exp, flows, seed);
            let encrypted = matches!(mode, Mode::Encrypted);
            let reference = reference_report(&exp, &flows, seed, encrypted);
            let empty = random_timeline(&exp, &flows, seed, (0, 0, 0), 1.0);
            for workers in [1usize, 2, 4, 8] {
                let cfg = StreamConfig {
                    workers,
                    servers,
                    seed,
                    use_hier_planner: matches!(mode, Mode::Hier),
                    encrypted,
                    // Depth never exceeds the flow count, so no rung
                    // (cap/2, 3cap/4, cap) is ever reached.
                    queue_capacity: 2 * flows.len() + 2,
                    deadline_ms: f64::INFINITY,
                    ..StreamConfig::default()
                };
                let (report, _) = try_run_stream(&exp, &flows, &empty, &cfg, &TelemetryConfig::off())
                    .expect("mode prerequisites enabled");
                prop_assert_eq!(report.shed(), 0);
                prop_assert_eq!(report.degraded_retry, 0);
                prop_assert_eq!(report.admitted, flows.len() as u64);
                assert_fleet_eq(&report.fleet, &reference, &format!("stream {mode:?} x{workers}"));
            }
        }
    }

    /// Churn (static, ladder and reactive) under both invalidation
    /// policies ≡ a reference that never caches a plan — incremental
    /// eviction checked against "no cache at all" rather than against a
    /// flush, and reactive repair against its naive loop. The same
    /// reference also pins an underloaded stream replaying the timeline
    /// mid-run.
    #[test]
    fn churn_matches_the_never_caching_reference(
        city in small_city(),
        seed in any::<u64>(),
        flows in 80usize..160,
        aftershocks in 0usize..4,
        battery_waves in 0usize..3,
        crew_repairs in 0usize..3,
        radius_m in 40.0..110.0f64,
    ) {
        let exp = prepare(&city, Some(FaultScenario::district_blackouts(1, 70.0)));
        let flows = workload(&exp, flows, seed);
        let tl = random_timeline(
            &exp, &flows, seed, (aftershocks, battery_waves, crew_repairs), radius_m,
        );
        for strategy in [Churn::StaticPlan, Churn::RetryLadder, Churn::ReactiveRepair] {
            assert_churn_matches(&exp, &flows, &tl, strategy, seed);
        }

        // The stream engine replays the same timeline at its own
        // barriers; underloaded, its embedded fleet report is the fold
        // of the reference's epochs end to end. The blackout scenario's
        // retry policy is the ladder, so the single-attempt twin exists
        // here — and must never be simulated on.
        let mut world = exp.clone();
        let mut whole = FleetReport::empty();
        let mut next = 0usize;
        for k in 0..=tl.len() {
            let end = match tl.events().get(k) {
                Some(ev) => next + flows[next..].partition_point(|f| f.arrival_ms < ev.at_ms),
                None => flows.len(),
            };
            for flow in &flows[next..end] {
                whole.absorb_outcome(flow, &reference_outcome(&world, flow, seed, false));
            }
            next = end;
            if let Some(ev) = tl.events().get(k) {
                world.apply_world_event(&ev.changes);
            }
        }
        let cfg = StreamConfig {
            workers: 2,
            servers: 3,
            seed,
            queue_capacity: 2 * flows.len() + 2,
            deadline_ms: f64::INFINITY,
            ..StreamConfig::default()
        };
        let (report, _) = try_run_stream(&exp, &flows, &tl, &cfg, &TelemetryConfig::off())
            .expect("blackout world is faulted");
        prop_assert_eq!(report.shed(), 0);
        prop_assert_eq!(report.events_applied, tl.len() as u64);
        assert_fleet_eq(&report.fleet, &whole, "stream+timeline");
    }
}

/// Reactive repair on a world where it works: the benchmark downtown
/// under a 100 m blackout and three aftershocks, where repaired routes
/// deliver flows the first send lost. The random small cities above
/// seldom give a splice anything to win, so without this case an engine
/// that mislabelled or misplaced its splices could pass unseen.
#[test]
fn reactive_churn_matches_the_naive_loop_on_a_blacked_out_downtown() {
    let exp = CityExperiment::prepare(
        CityArchetype::SurveyDowntown.generate(36),
        ExperimentConfig {
            seed: 36,
            faults: Some(FaultScenario::district_blackouts(1, 100.0)),
            ..ExperimentConfig::default()
        },
    );
    let flows = workload(&exp, 300, 36);
    let tl = Timeline::materialize(
        &exp,
        &ChurnConfig {
            aftershocks: 3,
            seed: 36,
            horizon_ms: flows.last().expect("non-empty workload").arrival_ms,
            ..ChurnConfig::default()
        },
    );
    let rungs = assert_churn_matches(&exp, &flows, &tl, Churn::ReactiveRepair, 36);
    let [_, resend, widen, replan] = rungs;
    assert!(replan > 0, "repaired routes deliver ({rungs:?})");
    assert!(
        resend + replan > 0 && widen == 0,
        "local repair never widens"
    );
}
