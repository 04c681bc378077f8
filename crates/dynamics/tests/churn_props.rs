//! Property tests for the churn engine's determinism claims.
//!
//! Three invariants, each over *random event timelines* (counts,
//! radii, drain probabilities, horizon) and random workloads:
//!
//! 1. incremental cache invalidation is digest-equal to a full flush
//!    (and never evicts more),
//! 2. worker count does not change any churn digest,
//! 3. telemetry does not perturb churn outcomes.

use std::sync::OnceLock;

use citymesh_core::{CityExperiment, ExperimentConfig, FaultScenario};
use citymesh_dynamics::{
    try_run_churn, ChurnConfig, ChurnEngineConfig, InvalidationPolicy, Strategy as Churn, Timeline,
};
use citymesh_fleet::{generate_flows, FlowModel, FlowSpec, WorkloadConfig};
use citymesh_map::CityArchetype;
use citymesh_telemetry::TelemetryConfig;
use proptest::prelude::*;

/// One blacked-out world shared by every case: preparing the AP
/// fabric dominates each case's cost and the properties are about the
/// churn engine, not the city.
fn shared_world() -> &'static CityExperiment {
    static WORLD: OnceLock<CityExperiment> = OnceLock::new();
    WORLD.get_or_init(|| {
        let map = CityArchetype::SurveyDowntown.generate(5);
        CityExperiment::prepare(
            map,
            ExperimentConfig {
                seed: 5,
                faults: Some(FaultScenario::district_blackouts(1, 100.0)),
                ..ExperimentConfig::default()
            },
        )
    })
}

fn workload(exp: &CityExperiment, flows: usize, seed: u64) -> Vec<FlowSpec> {
    generate_flows(
        exp.map().len(),
        &WorkloadConfig {
            flows,
            model: FlowModel::UniformPairs { rate_hz: 150.0 },
            seed,
        },
    )
}

/// A random timeline whose events actually land inside the workload's
/// arrival span (so epochs are non-trivial partitions).
fn random_timeline(
    exp: &CityExperiment,
    flows: &[FlowSpec],
    seed: u64,
    counts: (usize, usize, usize),
    radius_m: f64,
    drain_p: f64,
) -> Timeline {
    let (aftershocks, battery_waves, crew_repairs) = counts;
    Timeline::materialize(
        exp,
        &ChurnConfig {
            aftershocks,
            battery_waves,
            crew_repairs,
            horizon_ms: flows.last().expect("non-empty workload").arrival_ms,
            aftershock_radius_m: radius_m,
            drain_p,
            repair_radius_m: radius_m * 1.25,
            seed,
        },
    )
}

fn engine_cfg(workers: usize, seed: u64, invalidation: InvalidationPolicy) -> ChurnEngineConfig {
    ChurnEngineConfig {
        workers,
        seed,
        invalidation,
        reactive_max_attempts: 4,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole equivalence: over random event timelines,
    /// evicting only what an event could touch produces bit-identical
    /// outcome digests to flushing the whole cache — while never
    /// evicting more entries.
    #[test]
    fn incremental_eviction_matches_full_flush(
        seed in any::<u64>(),
        flows in 80usize..200,
        aftershocks in 0usize..4,
        battery_waves in 0usize..3,
        crew_repairs in 0usize..3,
        radius_m in 60.0..180.0f64,
        drain_p in 0.0..0.25f64,
        strategy in prop_oneof![
            Just(Churn::StaticPlan),
            Just(Churn::RetryLadder),
            Just(Churn::ReactiveRepair),
        ],
    ) {
        let exp = shared_world();
        let workload = workload(exp, flows, seed);
        let tl = random_timeline(
            exp, &workload, seed, (aftershocks, battery_waves, crew_repairs), radius_m, drain_p,
        );
        let (incremental, _) = try_run_churn(
            exp, &workload, &tl, strategy,
            &engine_cfg(2, seed, InvalidationPolicy::Incremental),
            &TelemetryConfig::off(),
        ).unwrap();
        let (flush, _) = try_run_churn(
            exp, &workload, &tl, strategy,
            &engine_cfg(2, seed, InvalidationPolicy::FullFlush),
            &TelemetryConfig::off(),
        ).unwrap();
        prop_assert_eq!(
            incremental.digest(), flush.digest(),
            "invalidation policy changed outcomes ({})", strategy.label()
        );
        prop_assert!(
            incremental.routes_evicted <= flush.routes_evicted,
            "incremental evicted more than a flush ({} vs {})",
            incremental.routes_evicted, flush.routes_evicted
        );
        prop_assert!(
            incremental.routes_planned <= flush.routes_planned,
            "fewer evictions cannot mean more replans"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Worker-count invariance survives a mutating world: 1 and 4
    /// workers (and the serial reference) agree on the churn digest,
    /// on the deterministic work accounting, on the per-rung delivery
    /// split (the replan rung included) and on the metric registry's
    /// schedule-independent fingerprint for every strategy.
    #[test]
    fn churn_digest_is_invariant_under_worker_count(
        seed in any::<u64>(),
        flows in 80usize..180,
        aftershocks in 1usize..4,
        crew_repairs in 0usize..3,
        strategy in prop_oneof![
            Just(Churn::StaticPlan),
            Just(Churn::RetryLadder),
            Just(Churn::ReactiveRepair),
        ],
    ) {
        let exp = shared_world();
        let workload = workload(exp, flows, seed);
        let tl = random_timeline(exp, &workload, seed, (aftershocks, 1, crew_repairs), 120.0, 0.1);
        let runs: Vec<_> = [1usize, 4]
            .iter()
            .map(|&workers| {
                let (report, telemetry) = try_run_churn(
                    exp, &workload, &tl, strategy,
                    &engine_cfg(workers, seed, InvalidationPolicy::Incremental),
                    &TelemetryConfig::metrics_only(),
                ).unwrap();
                (report, telemetry.expect("metrics were requested").metrics)
            })
            .collect();
        prop_assert_eq!(
            runs[0].0.digest(), runs[1].0.digest(),
            "1 vs 4 workers diverged ({})", strategy.label()
        );
        prop_assert_eq!(runs[0].0.routes_evicted, runs[1].0.routes_evicted);
        prop_assert_eq!(runs[0].0.rung_deliveries, runs[1].0.rung_deliveries);
        prop_assert_eq!(
            runs[0].1.fingerprint(), runs[1].1.fingerprint(),
            "1 vs 4 workers: registry ({})", strategy.label()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Telemetry must observe churn without perturbing it, and the
    /// report's rungs must split its deliveries.
    #[test]
    fn telemetry_does_not_perturb_churn(
        seed in any::<u64>(),
        flows in 60usize..140,
        aftershocks in 1usize..3,
        strategy in prop_oneof![Just(Churn::RetryLadder), Just(Churn::ReactiveRepair)],
    ) {
        let exp = shared_world();
        let workload = workload(exp, flows, seed);
        let tl = random_timeline(exp, &workload, seed, (aftershocks, 1, 1), 120.0, 0.1);
        let cfg = engine_cfg(2, seed, InvalidationPolicy::Incremental);
        let (untraced, _) =
            try_run_churn(exp, &workload, &tl, strategy, &cfg, &TelemetryConfig::off()).unwrap();
        let (traced, telemetry) =
            try_run_churn(exp, &workload, &tl, strategy, &cfg, &TelemetryConfig::metrics_only()).unwrap();
        prop_assert_eq!(
            untraced.digest(), traced.digest(),
            "telemetry perturbed churn outcomes ({})", strategy.label()
        );
        prop_assert!(telemetry.is_some(), "metrics were requested");
        prop_assert_eq!(traced.rung_deliveries, untraced.rung_deliveries);
        prop_assert_eq!(traced.rung_deliveries.iter().sum::<u64>(), traced.delivered);
    }
}
