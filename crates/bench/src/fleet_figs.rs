//! Heavy-traffic throughput figures (`figures -- fleet`).
//!
//! Runs the `citymesh-fleet` engine over a hotspot disaster workload
//! at several flow counts and worker counts, verifying at every flow
//! count that all worker counts aggregate to the same digest (the
//! engine's determinism invariant) and reporting flows/sec.

use citymesh_fleet::{generate_flows, FleetReport, FlowModel, WorkloadConfig};
use citymesh_map::CityArchetype;

use crate::sweep::{
    assert_unanimous, fleet_config, prepare, run_fleet, Scale, Sweep, SweepOpts, SEED,
};
use crate::text;

/// The sweep's hotspot disaster workload. The telemetry sweep traces
/// this same recipe, so the two share one golden digest.
pub const HOTSPOT_WORKLOAD: FlowModel = FlowModel::Hotspot {
    hotspots: 8,
    exponent: 1.1,
    rate_hz: 500.0,
};

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
    let exp = prepare(map, seed, None);

    let model = HOTSPOT_WORKLOAD;

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
        let flows = warm_flows;
        let warm = generate_flows(buildings, &WorkloadConfig { flows, model, seed });
        run_fleet(&exp, &warm, &fleet_config(seed, 1));
    }

    let mut runs = Vec::new();
    for &flows in flow_counts {
        let specs = generate_flows(buildings, &WorkloadConfig { flows, model, seed });
        let mut digests: Vec<u64> = Vec::new();
        for &workers in worker_counts {
            let report = run_fleet(&exp, &specs, &fleet_config(seed, workers));
            digests.push(report.digest());
            runs.push(FleetRun {
                flows,
                workers,
                report,
            });
        }
        assert_unanimous(format_args!("{flows} flows across workers"), &digests);
    }
    FleetFigures {
        city,
        buildings,
        model: model.label(),
        runs,
    }
}

impl Sweep for FleetFigures {
    const NAME: &'static str = "fleet";
    const SCALES: &'static [Scale] = &[Scale::Full, Scale::Fast];
    const PINNED: Scale = Scale::Fast;

    fn run(opts: &SweepOpts) -> Self {
        let flow_counts = match (opts.flows, opts.scale) {
            (Some(n), _) => vec![n],
            (None, Scale::Full) => vec![1_000, 10_000, 100_000],
            (None, _) => vec![500, 2_000],
        };
        run_fleet_figs(SEED, &flow_counts, &opts.worker_counts(), !opts.cold)
    }

    fn print(&self) {
        println!(
            "== fleet: heavy-traffic throughput ({}, {} buildings, {} workload) ==",
            self.city, self.buildings, self.model
        );
        let hits = |r: &FleetReport| {
            100.0 * r.cache_hits as f64 / (r.cache_hits + r.cache_misses).max(1) as f64
        };
        println!(
            "{}",
            text::columns(
                &self.runs,
                &[
                    ("flows", &|r| r.flows.to_string()),
                    ("workers", &|r| r.workers.to_string()),
                    ("flows/s", &|r| format!("{:.0}", r.report.flows_per_sec())),
                    ("delivered", &|r| format!(
                        "{:.1}%",
                        r.report.delivery_rate() * 100.0
                    )),
                    ("cache hits", &|r| format!("{:.0}%", hits(&r.report))),
                    ("digest", &|r| format!("{:016x}", r.report.digest())),
                ]
            )
        );
        println!("all worker counts agree on every digest: parallel == serial, bit for bit\n");
    }

    /// The 500-flow digest (every worker count agrees on it).
    fn pins(&self) -> Vec<(&'static str, u64)> {
        let run = self.runs.iter().find(|r| r.flows == 500);
        run.map(|r| ("500-flow digest", r.report.digest()))
            .into_iter()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_runs_and_agrees() {
        let figs = run_fleet_figs(5, &[40], &[1, 2], true);
        assert_eq!(figs.runs.len(), 2);
        assert_eq!(
            figs.runs[0].report.digest(),
            figs.runs[1].report.digest(),
            "run_fleet_figs must have asserted this already"
        );
        assert!(figs.pins().is_empty(), "no 500-flow run, no pin observed");
    }
}
