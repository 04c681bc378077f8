//! Heavy-traffic throughput figures (`figures -- fleet`).
//!
//! Runs the `citymesh-fleet` engine over a hotspot disaster workload
//! at several flow counts and worker counts, verifying at every flow
//! count that all worker counts aggregate to the same digest (the
//! engine's determinism invariant) and reporting flows/sec. The data
//! lands in `BENCH_fleet.json` via [`to_json`].

use citymesh_core::{CityExperiment, ExperimentConfig};
use citymesh_fleet::{
    generate_flows, try_run_fleet, FleetConfig, FleetReport, FlowModel, WorkloadConfig,
};
use citymesh_map::CityArchetype;

use crate::text::json::Value;

/// One engine run at a `(flow count, worker count)` point.
pub struct FleetRun {
    /// Flows in the workload.
    pub flows: usize,
    /// Worker threads requested.
    pub workers: usize,
    /// The full aggregate report.
    pub report: FleetReport,
}

/// All runs of one fleet benchmark sweep.
pub struct FleetFigures {
    /// City the workload ran against.
    pub city: String,
    /// Building count of that city.
    pub buildings: usize,
    /// Workload model label.
    pub model: &'static str,
    /// Every `(flows, workers)` run, in sweep order.
    pub runs: Vec<FleetRun>,
}

/// Runs the sweep: for each flow count, one run per worker count.
///
/// `warmup` controls whether an unmeasured full-scale run precedes the
/// sweep. Pass `false` (`figures -- fleet --cold`) to measure the
/// process-cold path — the number a disaster-recovery operator
/// actually sees on first launch, and the one the zero-allocation
/// kernel is designed to keep close to the warm figure.
///
/// # Panics
/// Panics if any two worker counts at the same flow count disagree on
/// the aggregate digest — that would falsify the engine's core
/// "parallel == serial" guarantee, and a benchmark must not report
/// throughput for results that are wrong.
pub fn run_fleet_figs(
    seed: u64,
    flow_counts: &[usize],
    worker_counts: &[usize],
    warmup: bool,
) -> FleetFigures {
    let map = CityArchetype::SurveyDowntown.generate(seed);
    let city = map.name().to_string();
    let buildings = map.len();
    let exp = CityExperiment::prepare(
        map,
        ExperimentConfig {
            seed,
            ..ExperimentConfig::default()
        },
    );

    let model = FlowModel::Hotspot {
        hotspots: 8,
        exponent: 1.1,
        rate_hz: 500.0,
    };

    // Warm-up: run the largest workload once, unmeasured. Allocator
    // state (heap size, glibc's adaptive mmap threshold) only settles
    // after a run at full scale; without this, whichever measured run
    // goes first pays the heap-growth syscall churn for everyone
    // after it and reads several times slower than the same
    // configuration measured warm.
    let warm_flows = if warmup {
        flow_counts.iter().copied().max().unwrap_or(0)
    } else {
        0
    };
    if warm_flows > 0 {
        let warm = generate_flows(
            buildings,
            &WorkloadConfig {
                flows: warm_flows,
                model,
                seed,
            },
        );
        try_run_fleet(
            &exp,
            &warm,
            &FleetConfig {
                workers: 1,
                seed,
                ..FleetConfig::default()
            },
        )
        .expect("sweep config matches the world it prepared");
    }

    let mut runs = Vec::new();
    for &flows in flow_counts {
        let specs = generate_flows(buildings, &WorkloadConfig { flows, model, seed });
        let mut digests: Vec<u64> = Vec::new();
        for &workers in worker_counts {
            let report = try_run_fleet(
                &exp,
                &specs,
                &FleetConfig {
                    workers,
                    seed,
                    ..FleetConfig::default()
                },
            )
            .expect("sweep config matches the world it prepared");
            digests.push(report.digest());
            runs.push(FleetRun {
                flows,
                workers,
                report,
            });
        }
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "determinism violated at {flows} flows: digests {digests:x?}"
        );
    }
    FleetFigures {
        city,
        buildings,
        model: model.label(),
        runs,
    }
}

/// Serializes the sweep for `BENCH_fleet.json`.
pub fn to_json(figs: &FleetFigures) -> Value {
    let quant = |h: &citymesh_simcore::stats::Histogram, q: f64| {
        h.quantile(q).map(Value::Num).unwrap_or(Value::Null)
    };
    Value::Obj(vec![
        ("city".into(), Value::Str(figs.city.clone())),
        ("buildings".into(), Value::Int(figs.buildings as i64)),
        ("model".into(), Value::Str(figs.model.into())),
        (
            "runs".into(),
            Value::Arr(
                figs.runs
                    .iter()
                    .map(|r| {
                        Value::Obj(vec![
                            ("flows".into(), Value::Int(r.flows as i64)),
                            ("workers".into(), Value::Int(r.workers as i64)),
                            ("flows_per_sec".into(), Value::Num(r.report.flows_per_sec())),
                            ("elapsed_secs".into(), Value::Num(r.report.elapsed_secs)),
                            ("delivered".into(), Value::Int(r.report.delivered as i64)),
                            ("delivery_rate".into(), Value::Num(r.report.delivery_rate())),
                            ("checkins".into(), Value::Int(r.report.checkins as i64)),
                            ("cache_hits".into(), Value::Int(r.report.cache_hits as i64)),
                            (
                                "cache_misses".into(),
                                Value::Int(r.report.cache_misses as i64),
                            ),
                            (
                                "digest".into(),
                                Value::Str(format!("{:016x}", r.report.digest())),
                            ),
                            ("latency_ms_p50".into(), quant(&r.report.latency_ms, 0.5)),
                            ("latency_ms_p99".into(), quant(&r.report.latency_ms, 0.99)),
                            ("broadcasts_p50".into(), quant(&r.report.broadcasts, 0.5)),
                            ("header_bits_p50".into(), quant(&r.report.header_bits, 0.5)),
                            ("header_bits_p90".into(), quant(&r.report.header_bits, 0.9)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_runs_and_serializes() {
        let figs = run_fleet_figs(5, &[40], &[1, 2], true);
        assert_eq!(figs.runs.len(), 2);
        assert_eq!(
            figs.runs[0].report.digest(),
            figs.runs[1].report.digest(),
            "run_fleet_figs must have asserted this already"
        );
        let rendered = to_json(&figs).render();
        assert!(rendered.contains("\"flows_per_sec\""));
        assert!(rendered.contains("\"digest\""));
        assert!(rendered.starts_with('{') && rendered.ends_with('}'));
    }
}
