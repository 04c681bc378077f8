//! Differential oracle for the stream engine's second degradation rung
//! under churn.
//!
//! A flow admitted at depth ≥ ¾ capacity runs with its retry ladder
//! capped to one attempt. `engine_oracle.rs` only ever drives the
//! stream engine underloaded (`degraded_retry == 0`), and the engine's
//! own unit tests that do overload it compare the engine with itself.
//! This file holds the capped path to an independent reference while
//! the world is also changing: a ladder world (i.i.d. failures plus a
//! blackout), a timeline of aftershocks, battery waves and
//! repairs, and arrivals far above capacity.
//!
//! The reference is one thread over the public queue
//! (`ServerQueue::offer_class` / `commit`). Every admitted flow is
//! planned fresh with fresh buffers and nothing is cached; a capped
//! flow is simulated on a **second world this file builds itself** —
//! the same fault state under `RetryPolicy::none()` — and every
//! timeline event is applied to both worlds by hand. However the engine
//! caps a flow, it must produce what a world that cannot retry
//! produces, on everything `citymesh-perf`'s stream signature compares:
//! the fleet digest and the ten admission counters.

use citymesh_core::{CityExperiment, ExperimentConfig, FaultScenario, PairOutcome, RetryPolicy};
use citymesh_dynamics::{ChurnConfig, Timeline};
use citymesh_fleet::{FleetReport, FlowSpec, DOMAIN_MSG, DOMAIN_SIM};
use citymesh_map::CityArchetype;
use citymesh_simcore::{substream_seed, SimRng};
use citymesh_stream::{
    generate_stream_flows, try_run_stream, Admission, ArrivalProcess, FlowClass, ServerQueue,
    ShedReason, StreamConfig, StreamReport, StreamWorkload, DOMAIN_CLASS,
};
use citymesh_telemetry::TelemetryConfig;

const SEED: u64 = 41;

/// What `citymesh-perf`'s `stream_signature` compares: the fleet
/// digest and the ten admission counters.
#[derive(Debug, Default, PartialEq)]
struct Signature {
    fleet_digest: u64,
    offered: u64,
    admitted: u64,
    shed_backpressure: u64,
    shed_deadline: u64,
    degraded_tracing: u64,
    degraded_retry: u64,
    offered_emergency: u64,
    shed_emergency: u64,
    max_depth: u64,
    makespan_ms_bits: u64,
}

fn signature(r: &StreamReport) -> Signature {
    Signature {
        fleet_digest: r.fleet.digest(),
        offered: r.offered,
        admitted: r.admitted,
        shed_backpressure: r.shed_backpressure,
        shed_deadline: r.shed_deadline,
        degraded_tracing: r.degraded_tracing,
        degraded_retry: r.degraded_retry,
        offered_emergency: r.offered_emergency,
        shed_emergency: r.shed_emergency,
        max_depth: r.max_depth,
        makespan_ms_bits: r.makespan_ms.to_bits(),
    }
}

/// Nothing reused, nothing cached: a fresh plan and a fresh scratch.
fn naive_outcome(world: &CityExperiment, flow: &FlowSpec) -> PairOutcome {
    let plan = world.plan_flow(flow.src, flow.dst);
    let msg_id = substream_seed(SEED, DOMAIN_MSG, flow.id);
    let mut rng = SimRng::new(substream_seed(SEED, DOMAIN_SIM, flow.id));
    world.simulate_flow(&plan, msg_id, &mut rng)
}

/// The reference run; returns the signature and how many capped flows
/// a full ladder would have served differently.
fn reference(
    exp: &CityExperiment,
    flows: &[FlowSpec],
    timeline: &Timeline,
    cfg: &StreamConfig,
) -> (Signature, u64) {
    let mut world = exp.clone();
    // The single-attempt world: same health, same epoch, no ladder.
    let mut single = exp.fault_state().expect("a faulted world").clone();
    single.set_retry(RetryPolicy::none());
    let mut single = exp.clone().with_fault_state(single);

    let mut queues: Vec<ServerQueue> = (0..cfg.servers).map(|_| ServerQueue::new(cfg)).collect();
    let mut fleet = FleetReport::empty();
    let mut sig = Signature::default();
    let (mut makespan_ms, mut cap_mattered) = (0.0_f64, 0u64);
    let mut next = 0usize;
    for k in 0..=timeline.len() {
        let event = timeline.events().get(k);
        let end = match event {
            Some(ev) => next + flows[next..].partition_point(|f| f.arrival_ms < ev.at_ms),
            None => flows.len(),
        };
        // Queues are independent, so flow-id order across servers is
        // arrival order within each.
        for flow in &flows[next..end] {
            sig.offered += 1;
            let mut class_rng = SimRng::new(substream_seed(cfg.seed, DOMAIN_CLASS, flow.id));
            let class = if class_rng.chance(cfg.emergency_fraction) {
                sig.offered_emergency += 1;
                FlowClass::Emergency
            } else {
                FlowClass::Bulk
            };
            let q = &mut queues[(flow.id % cfg.servers as u64) as usize];
            match q.offer_class(flow.arrival_ms, class) {
                Admission::Shed { reason, .. } => {
                    match reason {
                        ShedReason::Backpressure => sig.shed_backpressure += 1,
                        ShedReason::Deadline => sig.shed_deadline += 1,
                    }
                    sig.shed_emergency += u64::from(class == FlowClass::Emergency);
                }
                Admission::Admit {
                    start_ms,
                    shed_tracing,
                    cap_retries,
                    ..
                } => {
                    sig.admitted += 1;
                    sig.degraded_tracing += u64::from(shed_tracing);
                    sig.degraded_retry += u64::from(cap_retries);
                    let outcome = if cap_retries {
                        let capped = naive_outcome(&single, flow);
                        assert!(capped.attempts <= 1, "flow {}: a capped retry", flow.id);
                        cap_mattered += u64::from(capped != naive_outcome(&world, flow));
                        capped
                    } else {
                        naive_outcome(&world, flow)
                    };
                    let service_ms = cfg.service.base_ms
                        + cfg.service.per_broadcast_ms * outcome.broadcasts as f64;
                    q.commit(start_ms, service_ms);
                    makespan_ms = makespan_ms.max(start_ms + service_ms);
                    fleet.absorb_outcome(flow, &outcome);
                }
            }
        }
        next = end;
        if let Some(ev) = event {
            world.apply_world_event(&ev.changes);
            single.apply_world_event(&ev.changes);
        }
    }
    sig.fleet_digest = fleet.digest();
    sig.max_depth = queues.iter().map(|q| q.high_water() as u64).max().unwrap();
    sig.makespan_ms_bits = makespan_ms.to_bits();
    (sig, cap_mattered)
}

#[test]
fn capped_flows_under_churn_equal_a_single_attempt_world() {
    let scenario = FaultScenario {
        blackouts: 1,
        blackout_radius_m: 90.0,
        ..FaultScenario::iid(0.25)
    };
    assert_eq!(scenario.retry, RetryPolicy::ladder());
    let exp = CityExperiment::prepare(
        CityArchetype::SurveyDowntown.generate(SEED),
        ExperimentConfig {
            seed: SEED,
            faults: Some(scenario),
            ..ExperimentConfig::default()
        },
    );
    let flows = generate_stream_flows(
        exp.map().len(),
        &StreamWorkload {
            flows: 1_500,
            process: ArrivalProcess::Poisson { rate_hz: 3_000.0 },
            seed: SEED,
        },
    );
    let timeline = Timeline::materialize(
        &exp,
        &ChurnConfig {
            aftershocks: 2,
            battery_waves: 1,
            crew_repairs: 2,
            horizon_ms: flows.last().unwrap().arrival_ms,
            seed: SEED,
            ..ChurnConfig::default()
        },
    );
    assert!(timeline.len() >= 3, "{} events", timeline.len());

    let cfg = StreamConfig {
        servers: 3,
        seed: SEED,
        queue_capacity: 16,
        deadline_ms: 60.0,
        emergency_fraction: 0.2,
        priority_reserve: 2,
        ..StreamConfig::default()
    };
    let (want, cap_mattered) = reference(&exp, &flows, &timeline, &cfg);
    assert!(
        cap_mattered > 0,
        "no capped flow would have retried: the cap is untested"
    );
    for workers in [1usize, 3] {
        let cfg = StreamConfig { workers, ..cfg };
        let (report, _) = try_run_stream(&exp, &flows, &timeline, &cfg, &TelemetryConfig::off())
            .expect("a faulted world");
        assert!(report.degraded_retry > 0, "rung 2 never fired");
        assert!(report.shed_backpressure > 0, "the queues never filled");
        assert_eq!(report.events_applied, timeline.len() as u64);
        assert!(report.events_applied > 0);
        assert_eq!(signature(&report), want, "{workers} workers");
    }
}
