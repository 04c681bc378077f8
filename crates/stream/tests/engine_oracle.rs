//! Differential oracle for the three flow engines.
//!
//! `try_run_fleet`, `try_run_stream` and `try_run_churn` all plan
//! through a shared route cache with per-worker scratch buffers, run on
//! a worker pool and fold in flow-id order as parts finish; the churn and stream
//! engines additionally keep cached plans across world events and evict
//! only the ones an event could touch. The reference below does none of
//! that: one thread, flows in id order, every flow planned from scratch
//! with fresh buffers (`plan_flow`) and simulated on a fresh
//! `DeliveryScratch`, every world event applied with
//! `apply_world_event` at the same `arrival_ms < at_ms` boundary, and
//! **no plan ever cached**. The engines must agree with it counter for
//! counter and digest for digest on random small cities.

use citymesh_core::{
    CityExperiment, DeliveryScratch, ExperimentConfig, FaultScenario, HierParams, PairOutcome,
    RetryPolicy,
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
use citymesh_simcore::{substream_seed, SimRng};
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

fn reference_report(
    world: &CityExperiment,
    flows: &[FlowSpec],
    seed: u64,
    encrypted: bool,
) -> FleetReport {
    let mut report = FleetReport::empty();
    for flow in flows {
        report.absorb_outcome(flow, &reference_outcome(world, flow, seed, encrypted));
    }
    report
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
        ("latency_ms", &engine.latency_ms, &reference.latency_ms),
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
/// fields and digest compare directly. The cost fields no reference can
/// know (evictions, planner invocations) stay zero; the digest excludes
/// them.
fn reference_churn(
    exp: &CityExperiment,
    flows: &[FlowSpec],
    timeline: &Timeline,
    retry: RetryPolicy,
    seed: u64,
) -> ChurnReport {
    let mut fs = exp.fault_state().expect("churn worlds are faulted").clone();
    fs.set_retry(retry);
    let mut world = exp.clone().with_fault_state(fs);
    // Spelled out field by field so this file also compiles against
    // the commit before the executor refactor, where it must pass too.
    let mut report = ChurnReport {
        flows: 0,
        delivered: 0,
        retried: 0,
        recovered: 0,
        epochs: 0,
        events_applied: 0,
        aps_changed: 0,
        routes_evicted: 0,
        routes_planned: 0,
        cache_hits: 0,
        repairs: 0,
        full_replans: 0,
        repair_buildings: 0,
        timeline_fingerprint: timeline.fingerprint(),
        epoch_stats: Vec::new(),
    };
    let mut rest = flows;
    for k in 0..=timeline.len() {
        let event = timeline.events().get(k);
        let (slice, later) = match event {
            Some(ev) => rest.split_at(rest.partition_point(|f| f.arrival_ms < ev.at_ms)),
            None => (rest, &rest[rest.len()..]),
        };
        rest = later;
        let fleet = reference_report(&world, slice, seed, false);
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
    report
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

    /// Churn (static and ladder) under both invalidation policies ≡ a
    /// reference that never caches a plan — incremental eviction
    /// checked against "no cache at all" rather than against a flush.
    /// The same reference also pins an underloaded stream replaying the
    /// timeline mid-run.
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
        for (strategy, retry) in [
            (Churn::StaticPlan, RetryPolicy::none()),
            (Churn::RetryLadder, RetryPolicy::ladder()),
        ] {
            let reference = reference_churn(&exp, &flows, &tl, retry, seed);
            for invalidation in [InvalidationPolicy::Incremental, InvalidationPolicy::FullFlush] {
                for workers in [1usize, 2, 4, 8] {
                    let cfg = ChurnEngineConfig {
                        workers,
                        seed,
                        invalidation,
                        reactive_max_attempts: 4,
                    };
                    let (engine, _) =
                        try_run_churn(&exp, &flows, &tl, strategy, &cfg, &TelemetryConfig::off())
                            .expect("blackout world is faulted");
                    let what = format!("churn {strategy:?} {invalidation:?} x{workers}");
                    prop_assert_eq!(engine.flows, reference.flows, "{}: flows", &what);
                    prop_assert_eq!(engine.delivered, reference.delivered, "{}: delivered", &what);
                    prop_assert_eq!(engine.retried, reference.retried, "{}: retried", &what);
                    prop_assert_eq!(engine.recovered, reference.recovered, "{}: recovered", &what);
                    prop_assert_eq!(engine.epochs, reference.epochs, "{}: epochs", &what);
                    prop_assert_eq!(
                        engine.events_applied, reference.events_applied, "{}: events", &what
                    );
                    prop_assert_eq!(
                        engine.aps_changed, reference.aps_changed, "{}: aps_changed", &what
                    );
                    for (e, r) in engine.epoch_stats.iter().zip(&reference.epoch_stats) {
                        prop_assert_eq!(e.epoch, r.epoch, "{}: epoch id", &what);
                        prop_assert_eq!(e.flows, r.flows, "{}: epoch flows", &what);
                        prop_assert_eq!(
                            e.fleet_digest, r.fleet_digest, "{}: epoch {} digest", &what, e.epoch
                        );
                        prop_assert_eq!(
                            e.fault_fingerprint, r.fault_fingerprint, "{}: fingerprint", &what
                        );
                        prop_assert_eq!(e.aps_changed, r.aps_changed, "{}: epoch flips", &what);
                    }
                    prop_assert_eq!(engine.digest(), reference.digest(), "{}: digest", &what);
                }
            }
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
