//! Property tests for the fleet engine's determinism machinery.

use std::collections::HashSet;
use std::sync::OnceLock;

use citymesh_core::{
    CityExperiment, DeliveryScratch, ExperimentConfig, FaultScenario, PairOutcome, PlannedFlow,
    RecoveryStage, RetryPolicy,
};
use citymesh_dynamics::{ChurnConfig, Timeline};
use citymesh_fleet::{
    generate_flows, try_run_fleet, try_run_fleet_traced, FleetConfig, FleetReport, FlowKind,
    FlowModel, FlowSpec, RouteCache, WorkloadConfig, DOMAIN_MSG, DOMAIN_SIM,
};
use citymesh_geo::{OrientedRect, Point, Segment};
use citymesh_map::CityArchetype;
use citymesh_simcore::{substream_seed, SimRng, SimTime};
use citymesh_stream::{
    generate_stream_flows, try_run_stream, ArrivalProcess, StreamConfig, StreamReport,
    StreamWorkload,
};
use citymesh_telemetry::{metrics as tm, TelemetryConfig, TraceConfig};
use proptest::prelude::*;

/// One prepared world shared by all digest-invariance cases: building
/// the AP fabric dominates each case's cost and the property is about
/// the engine, not the city.
fn shared_world() -> &'static CityExperiment {
    static WORLD: OnceLock<CityExperiment> = OnceLock::new();
    WORLD.get_or_init(|| {
        let map = CityArchetype::SurveyDowntown.generate(3);
        CityExperiment::prepare(
            map,
            ExperimentConfig {
                seed: 3,
                ..ExperimentConfig::default()
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The engine's headline invariant, now with per-worker scratch
    /// reuse in the mix: 1, 2, 4, and 8 workers must produce the same
    /// digest for any workload. Worker count changes which scratch
    /// simulates which flow (and how dirty it is when it does), and in
    /// which order the fold receives the chunks, so equality here
    /// proves neither can leak into the report.
    #[test]
    fn digest_is_invariant_under_worker_count(
        seed in any::<u64>(),
        flows in 24usize..320,
        rate_hz in 10.0..400.0f64,
    ) {
        let exp = shared_world();
        let workload = generate_flows(
            exp.map().len(),
            &WorkloadConfig {
                flows,
                model: FlowModel::UniformPairs { rate_hz },
                seed,
            },
        );
        for workers in [2usize, 4, 8] {
            let run = |workers| {
                try_run_fleet(exp, &workload, &FleetConfig { workers, seed, ..FleetConfig::default() }).unwrap().digest()
            };
            prop_assert_eq!(run(1), run(workers), "1 vs {} workers diverged", workers);
        }
    }
}

/// A synthetic flow and outcome drawn from `seed`: every field a
/// report folds — check-ins, routes, hops, every rung, exhausted and
/// unroutable flows, sealing — takes varied values.
fn synthetic_flow(id: u64, seed: u64) -> (FlowSpec, PairOutcome) {
    let mut rng = SimRng::new(seed);
    let attempts = rng.below(5) as u32;
    let delivered = attempts > 0 && rng.chance(0.7);
    let recovered_by =
        (delivered && attempts > 1).then(|| RecoveryStage::ALL[attempts as usize - 1]);
    let sealed = attempts > 0 && rng.chance(0.3);
    let spec = FlowSpec {
        id,
        src: rng.below(40) as u32,
        dst: rng.below(40) as u32,
        kind: if rng.chance(0.2) {
            FlowKind::PostboxCheckin
        } else {
            FlowKind::Data
        },
        arrival_ms: rng.uniform_range(0.0, 1e4),
    };
    let outcome = PairOutcome {
        src: spec.src,
        dst: spec.dst,
        reachable: rng.chance(0.9),
        route_found: attempts > 0 || rng.chance(0.5),
        route_len: rng.below(30) as usize,
        waypoints: rng.below(8) as usize,
        route_bits: rng.below(400) as usize,
        delivered,
        broadcasts: rng.below(5_000),
        latency: delivered.then(|| SimTime::from_nanos(rng.below(180_000_000_000))),
        ideal_hops: rng.chance(0.9).then(|| rng.below(60)),
        overhead: delivered.then(|| rng.uniform_range(1.0, 40.0)),
        attempts,
        recovered_by,
        sealed,
        opened: sealed && delivered,
        auth_failed: sealed && !delivered && rng.chance(0.5),
    };
    (spec, outcome)
}

/// `items` cut at `cuts` (taken modulo `len + 1`) into contiguous parts,
/// empty ones included.
fn split_at_cuts<'a, T>(items: &'a [T], cuts: &[usize]) -> Vec<&'a [T]> {
    let mut at: Vec<usize> = cuts.iter().map(|c| c % (items.len() + 1)).collect();
    at.sort_unstable();
    let mut parts = Vec::new();
    let mut start = 0;
    for end in at.into_iter().chain([items.len()]) {
        parts.push(&items[start..end]);
        start = end;
    }
    parts
}

/// One prepared world with the secure message plane on, so the stream
/// engine's sealed counters take values.
fn encrypted_world() -> &'static CityExperiment {
    static WORLD: OnceLock<CityExperiment> = OnceLock::new();
    WORLD.get_or_init(|| {
        let mut exp = shared_world().clone();
        exp.enable_encryption();
        exp
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reports merge in any order: cut a flow list into parts anywhere,
    /// fold each part into its own report and merge the parts in a
    /// shuffled order — the digest and every field equal folding the
    /// whole list into one report, bit for bit.
    #[test]
    fn fleet_reports_merge_like_the_whole_fold(
        seeds in proptest::collection::vec(any::<u64>(), 0..80),
        cuts in proptest::collection::vec(any::<usize>(), 0..6),
        shuffle_seed in any::<u64>(),
    ) {
        let flows: Vec<_> = (0u64..).zip(&seeds).map(|(id, &s)| synthetic_flow(id, s)).collect();
        let fold = |part: &[(FlowSpec, PairOutcome)]| {
            let mut report = FleetReport::empty();
            for (spec, outcome) in part {
                report.absorb_outcome(spec, outcome);
            }
            report
        };
        let whole = fold(&flows);
        let mut parts: Vec<FleetReport> = split_at_cuts(&flows, &cuts).into_iter().map(fold).collect();
        SimRng::new(shuffle_seed).shuffle(&mut parts);
        let mut merged = FleetReport::empty();
        for part in &parts {
            merged.merge(part);
        }
        prop_assert_eq!(merged.digest(), whole.digest());
        prop_assert_eq!(merged.span_ms.to_bits(), whole.span_ms.to_bits());
        prop_assert_eq!(merged, whole);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The stream engine's half. A server's queue sees the same
    /// arrivals whichever other servers' flows share the run, so
    /// serving the flows of any grouping of servers in separate runs
    /// and merging the reports in a shuffled order equals serving them
    /// all in one run: the digest and every field but the wall-clock
    /// and route-cache ones, bit for bit. One worker and one epoch, so
    /// each run returns its one part unmerged and only the test merges.
    #[test]
    fn stream_reports_merge_like_the_whole_run(
        seed in any::<u64>(),
        flows in 40usize..200,
        groups in proptest::collection::vec(0usize..3, 6),
        shuffle_seed in any::<u64>(),
    ) {
        let exp = encrypted_world();
        let workload = generate_stream_flows(
            exp.map().len(),
            &StreamWorkload { flows, process: ArrivalProcess::Poisson { rate_hz: 3000.0 }, seed },
        );
        let timeline = Timeline::materialize(
            exp,
            &ChurnConfig { aftershocks: 0, battery_waves: 0, crew_repairs: 0, ..ChurnConfig::default() },
        );
        let cfg = StreamConfig {
            workers: 1,
            servers: groups.len(),
            seed,
            queue_capacity: 8,
            deadline_ms: 20.0,
            emergency_fraction: 0.3,
            priority_reserve: 2,
            encrypted: true,
            ..StreamConfig::default()
        };
        let run = |flows: &[FlowSpec]| {
            try_run_stream(exp, flows, &timeline, &cfg, &TelemetryConfig::off()).unwrap().0
        };
        let whole = run(&workload);
        let mut parts: Vec<StreamReport> = (0..3)
            .map(|g| {
                let mine: Vec<FlowSpec> = workload
                    .iter()
                    .filter(|f| groups[(f.id % groups.len() as u64) as usize] == g)
                    .cloned()
                    .collect();
                run(&mine)
            })
            .collect();
        SimRng::new(shuffle_seed).shuffle(&mut parts);
        let mut merged = parts[0].clone();
        for part in &parts[1..] {
            merged.merge(part);
        }
        merged.fleet.elapsed_secs = whole.fleet.elapsed_secs;
        merged.fleet.workers = whole.fleet.workers;
        merged.fleet.cache_hits = whole.fleet.cache_hits;
        merged.fleet.cache_misses = whole.fleet.cache_misses;
        prop_assert!(whole.shed() > 0 && whole.offered_emergency > 0 && whole.fleet.sealed > 0);
        prop_assert_eq!(merged.digest(), whole.digest());
        prop_assert_eq!(merged, whole);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The same invariant with fault injection and the retry ladder
    /// active. Faults add a second RNG consumer (the materialized
    /// outage map) and variable per-flow attempt counts, both of which
    /// must stay schedule-independent: the fault state is drawn once at
    /// prepare time from its own sub-streams and the ladder's geometry
    /// is precomputed per plan, so 1, 4, and 8 workers must agree
    /// bit-for-bit on the full report, retry stats included.
    #[test]
    fn faulted_digest_is_invariant_under_worker_count(
        seed in any::<u64>(),
        flows in 24usize..72,
        failure_p in 0.05f64..0.45,
    ) {
        let mut scenario = FaultScenario::iid(failure_p);
        scenario.retry = RetryPolicy::ladder();
        let map = CityArchetype::SurveyDowntown.generate(3);
        let exp = CityExperiment::prepare(
            map,
            ExperimentConfig {
                seed,
                faults: Some(scenario),
                ..ExperimentConfig::default()
            },
        );
        let workload = generate_flows(
            exp.map().len(),
            &WorkloadConfig {
                flows,
                model: FlowModel::UniformPairs { rate_hz: 100.0 },
                seed,
            },
        );
        let reports: Vec<_> = [1usize, 4, 8]
            .iter()
            .map(|&workers| try_run_fleet(&exp, &workload, &FleetConfig { workers, seed, ..FleetConfig::default() }).unwrap())
            .collect();
        prop_assert_eq!(reports[0].digest(), reports[1].digest(), "1 vs 4 workers diverged");
        prop_assert_eq!(reports[0].digest(), reports[2].digest(), "1 vs 8 workers diverged");
        prop_assert_eq!(reports[0].retried, reports[1].retried);
        prop_assert_eq!(reports[0].recovered, reports[2].recovered);
        prop_assert_eq!(
            reports[0].retry_attempts.fingerprint(),
            reports[2].retry_attempts.fingerprint(),
            "attempt histogram diverged across worker counts"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Telemetry's own determinism invariant: per-flow event sequences
    /// (postmortems, complete with their trace events) and the merged
    /// metric fingerprint must be identical across 1, 4, and 8
    /// workers. Worker count changes which tracer records which flow
    /// and how full each ring is when it does, so equality here proves
    /// trace capture is keyed purely by flow identity and ring state
    /// cannot leak across flows.
    #[test]
    fn traces_are_invariant_under_worker_count(
        seed in any::<u64>(),
        flows in 24usize..60,
        failure_p in 0.1f64..0.4,
        sample_every in 1u64..9,
    ) {
        let mut scenario = FaultScenario::iid(failure_p);
        scenario.retry = RetryPolicy::ladder();
        let map = CityArchetype::SurveyDowntown.generate(3);
        let exp = CityExperiment::prepare(
            map,
            ExperimentConfig {
                seed,
                faults: Some(scenario),
                ..ExperimentConfig::default()
            },
        );
        let workload = generate_flows(
            exp.map().len(),
            &WorkloadConfig {
                flows,
                model: FlowModel::UniformPairs { rate_hz: 100.0 },
                seed,
            },
        );
        let tel = TelemetryConfig::full(sample_every);
        let runs: Vec<_> = [1usize, 4, 8]
            .iter()
            .map(|&workers| {
                try_run_fleet_traced(&exp, &workload, &FleetConfig { workers, seed, ..FleetConfig::default() }, &tel).unwrap()
                    .1
                    .expect("telemetry requested")
            })
            .collect();
        prop_assert_eq!(
            runs[0].metrics.fingerprint(),
            runs[1].metrics.fingerprint(),
            "metric fingerprint diverged, 1 vs 4 workers"
        );
        prop_assert_eq!(
            runs[0].metrics.fingerprint(),
            runs[2].metrics.fingerprint(),
            "metric fingerprint diverged, 1 vs 8 workers"
        );
        prop_assert_eq!(&runs[0].postmortems, &runs[1].postmortems, "postmortems diverged, 1 vs 4 workers");
        prop_assert_eq!(&runs[0].postmortems, &runs[2].postmortems, "postmortems diverged, 1 vs 8 workers");
    }

    /// A reused traced scratch must capture exactly the trace a fresh
    /// scratch captures: ring reuse, the reused role vector,
    /// and leftover postmortem buffers may not bleed one flow's events
    /// into the next. This mirrors the executor's replay (same
    /// sub-stream domains, the tracer armed under the flow id) for every
    /// flow, so every flow is captured and compared.
    #[test]
    fn scratch_reuse_does_not_perturb_traces(
        seed in any::<u64>(),
        flows in 8usize..24,
        failure_p in 0.1f64..0.4,
    ) {
        let mut scenario = FaultScenario::iid(failure_p);
        scenario.retry = RetryPolicy::ladder();
        let map = CityArchetype::SurveyDowntown.generate(3);
        let exp = CityExperiment::prepare(
            map,
            ExperimentConfig {
                seed,
                faults: Some(scenario),
                ..ExperimentConfig::default()
            },
        );
        let workload = generate_flows(
            exp.map().len(),
            &WorkloadConfig {
                flows,
                model: FlowModel::UniformPairs { rate_hz: 100.0 },
                seed,
            },
        );
        let trace = TraceConfig::sampled(1);
        let mut reused = DeliveryScratch::with_tracing(trace);
        for flow in &workload {
            let plan = exp.plan_flow(flow.src, flow.dst);
            let msg_id = substream_seed(seed, DOMAIN_MSG, flow.id);

            let mut rng = SimRng::new(substream_seed(seed, DOMAIN_SIM, flow.id));
            reused.tracer_mut().trace_next(flow.id);
            let a = exp.simulate_flow_with(&plan, msg_id, &mut rng, &mut reused);

            let mut fresh = DeliveryScratch::with_tracing(trace);
            let mut rng = SimRng::new(substream_seed(seed, DOMAIN_SIM, flow.id));
            fresh.tracer_mut().trace_next(flow.id);
            let b = exp.simulate_flow_with(&plan, msg_id, &mut rng, &mut fresh);

            prop_assert_eq!(a, b, "outcome diverged between reused and fresh scratch");
            let captured_fresh = fresh.tracer_mut().take_postmortems();
            prop_assert_eq!(captured_fresh.len(), 1, "an armed flow is captured");
            let captured_reused = reused.tracer_mut().take_postmortems();
            prop_assert_eq!(captured_reused, captured_fresh, "events included");
        }
    }

    /// Trace by replay against trace by capture: the engine runs every
    /// flow untraced and re-simulates the flows the policy keeps; the
    /// reference traces every flow as it runs and applies the same
    /// policy to what it recorded. The postmortem sets must be equal,
    /// events included, at 1 and 3 workers, and the engine's trace
    /// totals must be the reference set's own.
    #[test]
    fn replayed_traces_equal_tracing_every_flow(
        seed in any::<u64>(),
        flows in 24usize..60,
        failure_p in 0.1f64..0.4,
        sample_every in 0u64..9,
    ) {
        let mut scenario = FaultScenario::iid(failure_p);
        scenario.retry = RetryPolicy::ladder();
        let map = CityArchetype::SurveyDowntown.generate(3);
        let exp = CityExperiment::prepare(
            map,
            ExperimentConfig {
                seed,
                faults: Some(scenario),
                ..ExperimentConfig::default()
            },
        );
        let workload = generate_flows(
            exp.map().len(),
            &WorkloadConfig {
                flows,
                model: FlowModel::UniformPairs { rate_hz: 100.0 },
                seed,
            },
        );
        let tel = TelemetryConfig::full(sample_every);
        let mut scratch = DeliveryScratch::with_tracing(tel.trace);
        let mut reference = Vec::new();
        for flow in &workload {
            let plan = exp.plan_flow(flow.src, flow.dst);
            let msg_id = substream_seed(seed, DOMAIN_MSG, flow.id);
            let mut rng = SimRng::new(substream_seed(seed, DOMAIN_SIM, flow.id));
            scratch.tracer_mut().trace_next(flow.id);
            exp.simulate_flow_with(&plan, msg_id, &mut rng, &mut scratch);
            reference.extend(
                scratch
                    .tracer_mut()
                    .take_postmortems()
                    .into_iter()
                    .filter(|p| tel.trace.keeps(p.key, p.summary.delivered, p.summary.attempts)),
            );
        }
        prop_assert!(reference.iter().any(|p| !p.summary.delivered), "a faulted run fails some flow");
        for workers in [1usize, 3] {
            let cfg = FleetConfig { workers, seed, ..FleetConfig::default() };
            let t = try_run_fleet_traced(&exp, &workload, &cfg, &tel).unwrap().1.expect("telemetry requested");
            prop_assert_eq!(&t.postmortems, &reference, "postmortems at {} workers", workers);
            let m = &t.metrics;
            prop_assert_eq!(m.counter(tm::POSTMORTEMS), reference.len() as u64);
            prop_assert_eq!(m.counter(tm::TRACE_DROPPED), reference.iter().map(|p| p.dropped_events).sum::<u64>());
            let high = reference.iter().map(|p| p.events.len() as u64).max().unwrap_or(0);
            prop_assert_eq!(m.gauge(tm::TRACE_HIGH_WATER), high);
        }
    }
}

proptest! {
    /// Distinct flow ids must never share an RNG sub-stream — a
    /// collision would correlate two flows' randomness and make the
    /// aggregate depend on which flows co-occur in a workload.
    #[test]
    fn substreams_never_collide_for_distinct_flow_ids(
        root in any::<u64>(),
        domain in any::<u64>(),
        a in 0u64..1_000_000,
        b in 0u64..1_000_000,
    ) {
        if a != b {
            prop_assert_ne!(
                substream_seed(root, domain, a),
                substream_seed(root, domain, b),
            );
        }
    }

    /// Sub-streams must also stay distinct across domains for the
    /// same index (workload vs simulation vs message-id draws).
    #[test]
    fn substreams_never_collide_across_domains(
        root in any::<u64>(),
        index in any::<u64>(),
        d1 in 0u64..10_000,
        d2 in 0u64..10_000,
    ) {
        if d1 != d2 {
            prop_assert_ne!(
                substream_seed(root, d1, index),
                substream_seed(root, d2, index),
            );
        }
    }

    /// Workload generation is a pure function of its config: same
    /// `(seed, flows, model)` twice gives identical specs, and flow
    /// `i` does not depend on how many flows follow it.
    #[test]
    fn workload_is_pure_and_prefix_stable(
        seed in any::<u64>(),
        flows in 1usize..60,
        extra in 0usize..60,
        buildings in 2usize..200,
    ) {
        let model = FlowModel::UniformPairs { rate_hz: 50.0 };
        let short = generate_flows(buildings, &WorkloadConfig { flows, model, seed });
        let long = generate_flows(
            buildings,
            &WorkloadConfig { flows: flows + extra, model, seed },
        );
        prop_assert_eq!(short.len(), flows);
        for (a, b) in short.iter().zip(&long) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(a.src, b.src);
            prop_assert_eq!(a.dst, b.dst);
            prop_assert_eq!(a.arrival_ms, b.arrival_ms);
        }
    }

    /// Every generated flow has valid, distinct endpoints.
    #[test]
    fn generated_endpoints_are_valid(
        seed in any::<u64>(),
        buildings in 2usize..300,
        checkin_fraction in 0.0f64..1.0,
    ) {
        let flows = generate_flows(
            buildings,
            &WorkloadConfig {
                flows: 50,
                model: FlowModel::PostboxMix { checkin_fraction, rate_hz: 10.0 },
                seed,
            },
        );
        for f in &flows {
            prop_assert!(f.src != f.dst);
            prop_assert!((f.src as usize) < buildings);
            prop_assert!((f.dst as usize) < buildings);
            prop_assert!(f.arrival_ms.is_finite() && f.arrival_ms >= 0.0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `RouteCache::evict_stale` evicts exactly the plans the predicate
    /// it replaced evicts — an endpoint among the touched buildings, or
    /// a changed AP among those `for_each_ap_in_conduits` enumerates —
    /// plan for plan, over random conduits (thin, wide, overlapping,
    /// off the map), touched sets and changed sets from none to all.
    /// The benchmark's replay still evaluates the old predicate, and
    /// holds the engine to its per-event counts.
    #[test]
    fn evict_stale_equals_the_enumerating_predicate(
        seed in any::<u64>(),
        plans in 1usize..120,
        touched_p in 0.0..0.2f64,
        changed in 0usize..4,
    ) {
        let exp = shared_world();
        let (apg, bounds) = (exp.ap_graph(), exp.map().bounds());
        let mut rng = SimRng::new(seed);
        let n_buildings = exp.map().len() as u64;
        let point = |rng: &mut SimRng| {
            // A tenth of the spine ends lie outside the city.
            let x = rng.uniform_range(bounds.min.x - 60.0, bounds.max.x + 60.0);
            let y = rng.uniform_range(bounds.min.y - 60.0, bounds.max.y + 60.0);
            Point::new(x, y)
        };
        let planned: Vec<PlannedFlow> = (0..plans)
            .map(|i| {
                // Distinct keys; endpoints spread over the buildings.
                let mut plan = PlannedFlow::empty(i as u32, rng.below(n_buildings) as u32);
                let from = point(&mut rng);
                plan.conduits = (0..rng.below(4))
                    .scan(from, |a, _| {
                        let b = point(&mut rng);
                        let spine = Segment::new(std::mem::replace(a, b), b);
                        Some(OrientedRect::new(spine, rng.uniform_range(1.0, 90.0)))
                    })
                    .collect();
                plan
            })
            .collect();
        let touched: Vec<u32> = (0..n_buildings as u32).filter(|_| rng.chance(touched_p)).collect();
        let changed_p = [0.0, 0.02, 0.3, 1.0][changed];
        let changed: Vec<u32> = (0..apg.len() as u32).filter(|_| rng.chance(changed_p)).collect();

        // Each pair is asked twice, so both caches store every plan.
        let (new, old) = (RouteCache::new(), RouteCache::new());
        for plan in planned.iter().chain(&planned) {
            new.get_or_plan(plan.src, plan.dst, || plan.clone());
            old.get_or_plan(plan.src, plan.dst, || plan.clone());
        }
        prop_assert_eq!(new.len(), plans);
        let evicted = new.evict_stale(apg, touched.iter().copied(), changed.iter().copied());
        let (touched_set, changed_set): (HashSet<u32>, HashSet<u32>) =
            (touched.into_iter().collect(), changed.into_iter().collect());
        let mut candidates = Vec::new();
        let expected = old.evict_where(|plan| {
            if touched_set.contains(&plan.src) || touched_set.contains(&plan.dst) {
                return true;
            }
            let mut hit = false;
            apg.for_each_ap_in_conduits(&plan.conduits, &mut candidates, |id, _| {
                hit |= changed_set.contains(&id);
            });
            hit
        });
        prop_assert_eq!(evicted, expected);
        for plan in &planned {
            let kept = |cache: &RouteCache| {
                let mut kept = true;
                cache.get_or_plan(plan.src, plan.dst, || {
                    kept = false;
                    plan.clone()
                });
                kept
            };
            prop_assert_eq!(kept(&new), kept(&old), "plan {} -> {}", plan.src, plan.dst);
        }
    }
}
