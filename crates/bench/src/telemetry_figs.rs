//! Telemetry sweep (`figures -- telemetry`).
//!
//! The observability layer's contract is "measure everything, perturb
//! nothing", and this sweep is where that contract is demonstrated on
//! real workloads rather than unit fixtures. Two phases:
//!
//! 1. **Healthy**: the exact fleet-smoke recipe (downtown hotspot
//!    workload) runs once plain and once fully traced; the aggregate
//!    digests must be bit-identical. At the CI smoke's `(seed, flows)`
//!    this digest is the pinned golden 500-flow digest, so the check
//!    proves tracing cannot move a pinned result.
//! 2. **Faulted**: the same workload against a 25% i.i.d. AP-casualty
//!    scenario with the retry ladder on, traced at every worker count.
//!    Digests, metric fingerprints, and postmortem sets must agree
//!    across worker counts and with the untraced faulted run.
//!
//! The per-rung latency/overhead breakdown — what each extra ladder
//! rung buys and what it costs — lands in `BENCH_telemetry.json` via
//! [`to_json`]; one captured flow trace is exported separately by the
//! `figures` binary as `figures/postmortem_sample.json`.

use citymesh_core::{CityExperiment, ExperimentConfig, FaultScenario, RetryPolicy};
use citymesh_fleet::{
    generate_flows, try_run_fleet, try_run_fleet_traced, FleetConfig, FlowModel, WorkloadConfig,
};
use citymesh_map::CityArchetype;
use citymesh_telemetry::{
    metrics as tm, rung_delivery_counter, rung_latency_histogram, rung_overhead_histogram,
    Postmortem, Rung, TelemetryConfig,
};

use crate::text::json::Value;

/// Trace sampling period used by the sweep: every 16th flow plus every
/// failure/retry. Dense enough that the healthy phase exercises the
/// ring on ordinary flows, sparse enough that capture stays far from
/// dominating a 500-flow run.
pub const SAMPLE_EVERY: u64 = 16;

/// Per-rung delivery statistics from the faulted run's metric registry.
pub struct RungStats {
    /// Rung label (`first`, `resend`, `widen`, `replan`).
    pub rung: &'static str,
    /// Flows this rung delivered.
    pub deliveries: u64,
    /// Median end-to-end latency of those deliveries, ms.
    pub latency_ms_p50: Option<f64>,
    /// 90th-percentile latency of those deliveries, ms.
    pub latency_ms_p90: Option<f64>,
    /// Mean transmission overhead (broadcasts / ideal hops).
    pub mean_overhead: Option<f64>,
}

/// Everything one telemetry sweep measures.
pub struct TelemetryFigures {
    /// Root seed of the sweep.
    pub seed: u64,
    /// Generated city name.
    pub city: String,
    /// Building count.
    pub buildings: usize,
    /// Flows in the workload.
    pub flows: usize,
    /// Trace sampling period ([`SAMPLE_EVERY`]).
    pub sample_every: u64,
    /// Healthy-phase digest, identical plain vs traced (the golden
    /// 500-flow digest at the CI smoke's seed and flow count).
    pub healthy_digest: u64,
    /// Configured i.i.d. AP-failure probability of the faulted phase.
    pub failure_p: f64,
    /// Faulted-phase digest, identical across worker counts and
    /// identical plain vs traced.
    pub faulted_digest: u64,
    /// Fingerprint of the materialized casualty map.
    pub fault_fingerprint: u64,
    /// Fingerprint of the merged metric registry (faulted run),
    /// identical across worker counts.
    pub metrics_fingerprint: u64,
    /// Every counter of the faulted run, registry order.
    pub counters: Vec<(&'static str, u64)>,
    /// Per-rung breakdown of the faulted run.
    pub rungs: Vec<RungStats>,
    /// Postmortem traces the faulted run captured.
    pub postmortems: usize,
    /// Trace events evicted from full rings (faulted run).
    pub trace_dropped: u64,
    /// Highest ring occupancy any tracer reached (faulted run).
    pub ring_high_water: u64,
    /// One exported postmortem, rendered JSON: an exhausted flow when
    /// the scenario produced one, else a ladder-recovered flow.
    pub sample_postmortem: Option<String>,
}

/// Runs the sweep at one `(seed, flows, failure_p)` point.
///
/// # Panics
/// Panics if telemetry breaks any determinism invariant: the traced
/// healthy digest diverging from the plain one, traced faulted runs
/// disagreeing with each other or with the untraced faulted run
/// across `worker_counts`, or metric fingerprints / postmortem sets
/// varying with worker count. A benchmark that measures a perturbed
/// system must not report at all.
pub fn run_telemetry(
    seed: u64,
    flows: usize,
    failure_p: f64,
    worker_counts: &[usize],
) -> TelemetryFigures {
    assert!(!worker_counts.is_empty(), "need at least one worker count");
    let map = CityArchetype::SurveyDowntown.generate(seed);
    let city = map.name().to_string();
    let buildings = map.len();
    // The fleet smoke's exact workload recipe: at (seed 2024, 500
    // flows) the healthy digest below is CI's pinned golden digest.
    let model = FlowModel::Hotspot {
        hotspots: 8,
        exponent: 1.1,
        rate_hz: 500.0,
    };
    let workload = generate_flows(buildings, &WorkloadConfig { flows, model, seed });
    let tel = TelemetryConfig::full(SAMPLE_EVERY);

    // Phase 1 — healthy: tracing on vs off, same digest.
    let exp = CityExperiment::prepare(
        map,
        ExperimentConfig {
            seed,
            ..ExperimentConfig::default()
        },
    );
    let base_cfg = FleetConfig {
        workers: worker_counts[0],
        seed,
        ..FleetConfig::default()
    };
    let plain = try_run_fleet(&exp, &workload, &base_cfg)
        .expect("sweep config matches the world it prepared");
    let (traced, _) = try_run_fleet_traced(&exp, &workload, &base_cfg, &tel)
        .expect("sweep config matches the world it prepared");
    assert_eq!(
        plain.digest(),
        traced.digest(),
        "tracing perturbed the healthy digest: {:016x} != {:016x}",
        traced.digest(),
        plain.digest()
    );
    let healthy_digest = plain.digest();

    // Phase 2 — faulted: casualty scenario + retry ladder, traced at
    // every worker count.
    let mut scenario = FaultScenario::iid(failure_p);
    scenario.retry = RetryPolicy::ladder();
    let fexp = CityExperiment::prepare(
        CityArchetype::SurveyDowntown.generate(seed),
        ExperimentConfig {
            seed,
            faults: Some(scenario),
            ..ExperimentConfig::default()
        },
    );
    let plain_faulted = try_run_fleet(&fexp, &workload, &base_cfg)
        .expect("sweep config matches the world it prepared");
    let mut runs: Vec<_> = worker_counts
        .iter()
        .map(|&workers| {
            let (report, telem) = try_run_fleet_traced(
                &fexp,
                &workload,
                &FleetConfig {
                    workers,
                    seed,
                    ..FleetConfig::default()
                },
                &tel,
            )
            .expect("sweep config matches the world it prepared");
            (workers, report, telem.expect("telemetry was requested"))
        })
        .collect();
    for (workers, report, telem) in &runs {
        assert_eq!(
            report.digest(),
            plain_faulted.digest(),
            "tracing perturbed the faulted digest at {workers} workers"
        );
        assert_eq!(
            telem.metrics.fingerprint(),
            runs[0].2.metrics.fingerprint(),
            "metric fingerprint diverged at {workers} workers"
        );
        assert_eq!(
            telem.postmortems, runs[0].2.postmortems,
            "postmortem set diverged at {workers} workers"
        );
    }
    let (_, report, telem) = runs.swap_remove(0);
    let m = &telem.metrics;
    assert_eq!(
        m.counter(tm::FLOWS),
        flows as u64,
        "every flow is counted exactly once"
    );
    assert_eq!(
        m.counter(tm::DELIVERED) + m.counter(tm::FAILED),
        m.counter(tm::FLOWS),
        "delivered + failed covers every flow"
    );
    assert_eq!(
        m.counter(tm::POSTMORTEMS),
        telem.postmortems.len() as u64,
        "postmortem counter matches captured traces"
    );

    let counters = vec![
        ("flows_total", m.counter(tm::FLOWS)),
        ("delivered_total", m.counter(tm::DELIVERED)),
        ("failed_total", m.counter(tm::FAILED)),
        ("retried_total", m.counter(tm::RETRIED)),
        ("recovered_total", m.counter(tm::RECOVERED)),
        ("attempts_total", m.counter(tm::ATTEMPTS)),
        ("broadcasts_total", m.counter(tm::BROADCASTS)),
        ("exhausted_total", m.counter(tm::EXHAUSTED)),
        ("unroutable_total", m.counter(tm::UNROUTABLE)),
        ("postmortems_total", m.counter(tm::POSTMORTEMS)),
        ("trace_dropped_total", m.counter(tm::TRACE_DROPPED)),
    ];
    let rungs = Rung::ALL
        .iter()
        .map(|&rung| RungStats {
            rung: rung.label(),
            deliveries: m.counter(rung_delivery_counter(rung)),
            latency_ms_p50: m
                .histo_quantile(rung_latency_histogram(rung), 0.5)
                .map(|us| us as f64 / 1_000.0),
            latency_ms_p90: m
                .histo_quantile(rung_latency_histogram(rung), 0.9)
                .map(|us| us as f64 / 1_000.0),
            mean_overhead: m
                .histo_mean(rung_overhead_histogram(rung))
                .map(|milli| milli / 1_000.0),
        })
        .collect();

    // The exported sample: the most interesting complete trace — an
    // exhausted flow if the scenario produced one, else a recovery.
    // Complete (nothing evicted) beats low flow id.
    let pick = |pred: &dyn Fn(&Postmortem) -> bool| {
        telem
            .postmortems
            .iter()
            .filter(|p| pred(p))
            .min_by_key(|p| (p.dropped_events, p.key))
    };
    let sample_postmortem = pick(&|p| !p.summary.delivered && p.summary.attempts > 0)
        .or_else(|| pick(&|p| p.summary.recovered_by.is_some()))
        .or_else(|| telem.postmortems.first())
        .map(Postmortem::to_json);

    let fault = fexp
        .fault_state()
        .expect("experiment was prepared with a fault scenario");
    TelemetryFigures {
        seed,
        city,
        buildings,
        flows,
        sample_every: SAMPLE_EVERY,
        healthy_digest,
        failure_p,
        faulted_digest: report.digest(),
        fault_fingerprint: fault.fingerprint(),
        metrics_fingerprint: m.fingerprint(),
        counters,
        rungs,
        postmortems: telem.postmortems.len(),
        trace_dropped: m.counter(tm::TRACE_DROPPED),
        ring_high_water: m.gauge(tm::TRACE_HIGH_WATER),
        sample_postmortem,
    }
}

/// Serializes the sweep for `BENCH_telemetry.json`.
pub fn to_json(figs: &TelemetryFigures) -> Value {
    let opt_num = |v: Option<f64>| v.map(Value::Num).unwrap_or(Value::Null);
    Value::Obj(vec![
        ("seed".into(), Value::Int(figs.seed as i64)),
        ("city".into(), Value::Str(figs.city.clone())),
        ("buildings".into(), Value::Int(figs.buildings as i64)),
        ("flows".into(), Value::Int(figs.flows as i64)),
        ("sample_every".into(), Value::Int(figs.sample_every as i64)),
        (
            "healthy_digest".into(),
            Value::Str(format!("{:016x}", figs.healthy_digest)),
        ),
        ("failure_p".into(), Value::Num(figs.failure_p)),
        (
            "faulted_digest".into(),
            Value::Str(format!("{:016x}", figs.faulted_digest)),
        ),
        (
            "fault_fingerprint".into(),
            Value::Str(format!("{:016x}", figs.fault_fingerprint)),
        ),
        (
            "metrics_fingerprint".into(),
            Value::Str(format!("{:016x}", figs.metrics_fingerprint)),
        ),
        (
            "counters".into(),
            Value::Obj(
                figs.counters
                    .iter()
                    .map(|&(name, v)| (name.into(), Value::Int(v as i64)))
                    .collect(),
            ),
        ),
        (
            "rungs".into(),
            Value::Arr(
                figs.rungs
                    .iter()
                    .map(|r| {
                        Value::Obj(vec![
                            ("rung".into(), Value::Str(r.rung.into())),
                            ("deliveries".into(), Value::Int(r.deliveries as i64)),
                            ("latency_ms_p50".into(), opt_num(r.latency_ms_p50)),
                            ("latency_ms_p90".into(), opt_num(r.latency_ms_p90)),
                            ("mean_overhead".into(), opt_num(r.mean_overhead)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("postmortems".into(), Value::Int(figs.postmortems as i64)),
        (
            "trace_dropped".into(),
            Value::Int(figs.trace_dropped as i64),
        ),
        (
            "ring_high_water".into(),
            Value::Int(figs.ring_high_water as i64),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_invariant_and_serializes() {
        let figs = run_telemetry(7, 60, 0.3, &[1, 2]);
        assert_eq!(figs.flows, 60);
        assert_eq!(figs.rungs.len(), 4);
        let total: u64 = figs.rungs.iter().map(|r| r.deliveries).sum();
        let delivered = figs
            .counters
            .iter()
            .find(|(n, _)| *n == "delivered_total")
            .map(|&(_, v)| v)
            .expect("delivered counter present");
        assert_eq!(total, delivered, "rung deliveries partition deliveries");
        assert!(figs.postmortems > 0, "a 30% casualty run captures traces");
        let sample = figs.sample_postmortem.as_deref().expect("sample exported");
        assert!(sample.contains("\"outcome\":\""));
        assert!(sample.contains("\"events\":["));
        let rendered = to_json(&figs).render();
        assert!(rendered.contains("\"healthy_digest\""));
        assert!(rendered.contains("\"metrics_fingerprint\""));
        assert!(rendered.contains("\"rungs\""));
        assert!(rendered.starts_with('{') && rendered.ends_with('}'));
    }
}
