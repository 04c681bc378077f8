//! Resilience sweep (`figures -- resilience`).
//!
//! The paper's whole premise is a disaster that takes infrastructure
//! down — this sweep measures how gracefully CityMesh degrades when
//! the mesh itself is a casualty. For each survey archetype it
//! materializes i.i.d. AP-failure scenarios at increasing failure
//! probability and runs the fleet engine twice per point: once with
//! the sender's recovery ladder enabled and once with it disabled
//! (single send attempt), and draws one delivery-rate-vs-failed-fraction
//! SVG per archetype via [`curve_svg`].
//!
//! Determinism is checked, not assumed: every ladder run is repeated
//! across the given worker counts and the digests must agree — fault
//! injection must not cost the engine its "parallel == serial"
//! guarantee.

use citymesh_core::{FaultScenario, RetryPolicy};
use citymesh_fleet::{generate_flows, FlowModel, WorkloadConfig};
use citymesh_map::CityArchetype;

use crate::render::{ticks, LineChart, Series};
use crate::sweep::{
    assert_unanimous, fleet_config, prepare, run_fleet, write_figure, Scale, Sweep, SweepOpts, SEED,
};
use crate::text;

/// One `(archetype, failure probability)` measurement.
pub struct ResiliencePoint {
    /// Configured i.i.d. per-AP failure probability.
    pub failure_p: f64,
    /// Fraction of APs the scenario actually killed once materialized.
    pub failed_fraction: f64,
    /// Delivered fraction with the recovery ladder enabled.
    pub delivery_rate: f64,
    /// Delivered fraction with a single send attempt (ladder off).
    pub delivery_rate_no_retry: f64,
    /// Ladder runs: flows that needed more than one attempt.
    pub retried: u64,
    /// Ladder runs: retried flows a later rung delivered.
    pub recovered: u64,
    /// Aggregate digest of the ladder run (identical across all
    /// checked worker counts, asserted by [`run_resilience`]).
    pub digest: u64,
    /// Fingerprint of the materialized fault state (which APs are
    /// down/degraded) — pins the scenario itself, not just outcomes.
    pub fault_fingerprint: u64,
}

/// The delivery-degradation curve of one archetype.
pub struct ResilienceCurve {
    /// Archetype label (`downtown`, `campus`, …).
    pub archetype: &'static str,
    /// Building count.
    pub buildings: usize,
    /// One point per failure probability, in sweep order.
    pub points: Vec<ResiliencePoint>,
}

/// All four archetype curves of one sweep.
pub struct ResilienceFigures {
    /// One curve per archetype.
    pub curves: Vec<ResilienceCurve>,
}

/// Runs the sweep: `failure_ps` must start at `0.0` (the fault-free
/// baseline every curve is normalized against mentally).
///
/// # Panics
/// Panics if ladder runs disagree on the digest across `worker_counts`
/// (fault injection broke engine determinism), if the ladder delivers
/// less than a single attempt at any point, or if a curve fails to
/// degrade monotonically (delivery rate rising by more than a small
/// stochastic slack as more APs die — that would mean the fault state
/// is not actually nested across probabilities).
pub fn run_resilience(
    seed: u64,
    failure_ps: &[f64],
    flows: usize,
    worker_counts: &[usize],
) -> ResilienceFigures {
    assert!(
        !failure_ps.is_empty() && failure_ps[0] == 0.0,
        "sweep starts fault-free"
    );
    let mut curves = Vec::new();
    for arch in CityArchetype::survey_areas() {
        let mut points = Vec::new();
        for &p in failure_ps {
            points.push(run_point(seed, arch, p, flows, worker_counts));
        }
        // i.i.d. casualties are drawn from per-AP sub-streams, so the
        // failure sets are nested across probabilities and the curve
        // must degrade monotonically up to per-flow retry noise.
        for w in points.windows(2) {
            assert!(
                w[1].delivery_rate <= w[0].delivery_rate + 0.02,
                "{}: delivery rate rose from {:.3} to {:.3} as failures grew",
                arch.label(),
                w[0].delivery_rate,
                w[1].delivery_rate
            );
        }
        curves.push(ResilienceCurve {
            archetype: arch.label(),
            buildings: arch.generate(seed).len(),
            points,
        });
    }
    ResilienceFigures { curves }
}

fn run_point(
    seed: u64,
    arch: CityArchetype,
    failure_p: f64,
    flows: usize,
    worker_counts: &[usize],
) -> ResiliencePoint {
    let world = |retry: RetryPolicy| {
        let mut scenario = FaultScenario::iid(failure_p);
        scenario.retry = retry;
        prepare(arch.generate(seed), seed, Some(scenario))
    };

    let ladder = world(RetryPolicy::ladder());
    let workload = generate_flows(
        ladder.map().len(),
        &WorkloadConfig {
            flows,
            model: FlowModel::UniformPairs { rate_hz: 200.0 },
            seed,
        },
    );

    let reports: Vec<_> = worker_counts
        .iter()
        .map(|&workers| run_fleet(&ladder, &workload, &fleet_config(seed, workers)))
        .collect();
    let digests: Vec<u64> = reports.iter().map(|r| r.digest()).collect();
    assert_unanimous(
        format_args!("{} p={failure_p} across workers", arch.label()),
        &digests,
    );
    let report = &reports[0];

    let single = world(RetryPolicy::none());
    let no_retry = run_fleet(&single, &workload, &fleet_config(seed, worker_counts[0]));

    assert!(
        report.delivery_rate() >= no_retry.delivery_rate() - 1e-12,
        "{} p={failure_p}: the retry ladder underperformed a single attempt",
        arch.label()
    );

    let fault = ladder
        .fault_state()
        .expect("experiment was prepared with a fault scenario");
    ResiliencePoint {
        failure_p,
        failed_fraction: fault.failed_fraction(),
        delivery_rate: report.delivery_rate(),
        delivery_rate_no_retry: no_retry.delivery_rate(),
        retried: report.retried,
        recovered: report.recovered,
        digest: report.digest(),
        fault_fingerprint: fault.fingerprint(),
    }
}

/// Renders one archetype's delivery-rate-vs-failed-fraction curve:
/// ladder on (solid) vs off (dashed).
pub fn curve_svg(curve: &ResilienceCurve) -> String {
    let xs: Vec<f64> = curve.points.iter().map(|p| p.failed_fraction).collect();
    let x_ticks: Vec<String> = xs.iter().map(|f| format!("{:.0}%", f * 100.0)).collect();
    let ys = |f: fn(&ResiliencePoint) -> f64| curve.points.iter().map(f).collect();
    LineChart {
        title: &format!("{}: delivery vs failed APs", curve.archetype),
        x_label: "failed AP fraction",
        y_label: None,
        xs: &xs,
        x_ticks: &x_ticks,
        y_ticks: &ticks(&[0.0, 0.5, 1.0], 1),
        series: &[
            Series {
                label: "retry ladder",
                color: "#1f77b4",
                dash: None,
                ys: ys(|p| p.delivery_rate),
            },
            Series {
                label: "single attempt",
                color: "#d62728",
                dash: Some("5,4"),
                ys: ys(|p| p.delivery_rate_no_retry),
            },
        ],
        marker: None,
    }
    .render()
}

impl Sweep for ResilienceFigures {
    const NAME: &'static str = "resilience";
    const SCALES: &'static [Scale] = &[Scale::Full, Scale::Fast];
    const PINNED: Scale = Scale::Fast;

    fn run(opts: &SweepOpts) -> Self {
        let failure_ps = [0.0, 0.1, 0.2, 0.3, 0.4];
        let flows = opts.flows_or(500, 150, 150);
        run_resilience(SEED, &failure_ps, flows, &opts.worker_counts())
    }

    fn print(&self) {
        println!("== resilience: delivery under injected AP failures ==");
        for curve in &self.curves {
            println!(
                "-- {} ({} buildings) --\n{}",
                curve.archetype,
                curve.buildings,
                text::columns(
                    &curve.points,
                    &[
                        ("fail p", &|p| format!("{:.0}%", p.failure_p * 100.0)),
                        ("APs down", &|p| format!(
                            "{:.1}%",
                            p.failed_fraction * 100.0
                        )),
                        ("ladder", &|p| format!("{:.1}%", p.delivery_rate * 100.0)),
                        ("single", &|p| format!(
                            "{:.1}%",
                            p.delivery_rate_no_retry * 100.0
                        )),
                        ("retried", &|p| p.retried.to_string()),
                        ("recovered", &|p| p.recovered.to_string()),
                        ("digest", &|p| format!("{:016x}", p.digest)),
                    ]
                )
            );
            write_figure(
                &format!("figures/resilience_{}.svg", curve.archetype),
                &curve_svg(curve),
            );
        }
        println!("every curve degrades monotonically; all worker counts agree on every digest\n");
    }

    /// The downtown p = 0.2 point: the ladder digest pins the
    /// fault-injected pipeline end to end (scenario materialization,
    /// retry ladder, aggregation); the fingerprint pins the casualty
    /// map alone.
    fn pins(&self) -> Vec<(&'static str, u64)> {
        let downtown = self.curves.iter().find(|c| c.archetype == "downtown");
        let point = downtown.and_then(|c| c.points.iter().find(|p| p.failure_p == 0.2));
        point.map_or(vec![], |p| {
            vec![
                ("downtown p=0.2 digest", p.digest),
                ("downtown p=0.2 fault fingerprint", p.fault_fingerprint),
            ]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_degrades_and_draws() {
        let figs = run_resilience(9, &[0.0, 0.3], 60, &[1, 2]);
        assert_eq!(figs.curves.len(), 4);
        for c in &figs.curves {
            assert_eq!(c.points.len(), 2);
            let (clean, hurt) = (&c.points[0], &c.points[1]);
            assert_eq!(clean.failed_fraction, 0.0);
            assert!(
                hurt.failed_fraction > 0.1,
                "{}: 30% i.i.d. must kill APs",
                c.archetype
            );
            assert!(hurt.delivery_rate <= clean.delivery_rate + 0.02);
            assert!(
                hurt.delivery_rate >= hurt.delivery_rate_no_retry,
                "{}: the ladder can only help ({} vs {})",
                c.archetype,
                hurt.delivery_rate,
                hurt.delivery_rate_no_retry
            );
        }
        let svg = curve_svg(&figs.curves[0]);
        assert!(svg.starts_with("<svg") && svg.contains("polyline"));
    }
}
