//! Resilience sweep (`figures -- resilience`).
//!
//! The paper's whole premise is a disaster that takes infrastructure
//! down — this sweep measures how gracefully CityMesh degrades when
//! the mesh itself is a casualty. For each survey archetype it
//! materializes i.i.d. AP-failure scenarios at increasing failure
//! probability and runs the fleet engine twice per point: once with
//! the sender's recovery ladder enabled and once with it disabled
//! (single send attempt). The data lands in `BENCH_resilience.json`
//! via [`to_json`] plus one delivery-rate-vs-failed-fraction SVG per
//! archetype via [`curve_svg`].
//!
//! Determinism is checked, not assumed: every ladder run is repeated
//! across the given worker counts and the digests must agree — fault
//! injection must not cost the engine its "parallel == serial"
//! guarantee.

use citymesh_core::{CityExperiment, ExperimentConfig, FaultScenario, RetryPolicy};
use citymesh_fleet::{generate_flows, try_run_fleet, FleetConfig, FlowModel, WorkloadConfig};
use citymesh_map::CityArchetype;

use crate::text::json::Value;

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
    /// Generated city name.
    pub city: String,
    /// Archetype label (`downtown`, `campus`, …).
    pub archetype: &'static str,
    /// Building count.
    pub buildings: usize,
    /// One point per failure probability, in sweep order.
    pub points: Vec<ResiliencePoint>,
}

/// All four archetype curves of one sweep.
pub struct ResilienceFigures {
    /// Root seed of the sweep.
    pub seed: u64,
    /// Flows per point.
    pub flows: usize,
    /// One curve per archetype.
    pub curves: Vec<ResilienceCurve>,
}

/// The four §2 survey archetypes, the cities the paper measures.
pub fn survey_archetypes() -> [CityArchetype; 4] {
    [
        CityArchetype::SurveyDowntown,
        CityArchetype::SurveyCampus,
        CityArchetype::SurveyResidential,
        CityArchetype::SurveyRiver,
    ]
}

/// Runs the sweep: `failure_ps` must start at `0.0` (the fault-free
/// baseline every curve is normalized against mentally).
///
/// # Panics
/// Panics if ladder runs disagree on the digest across `worker_counts`
/// (fault injection broke engine determinism) or if a curve fails to
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
    for arch in survey_archetypes() {
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
        let map = arch.generate(seed);
        curves.push(ResilienceCurve {
            city: map.name().to_string(),
            archetype: arch.label(),
            buildings: map.len(),
            points,
        });
    }
    ResilienceFigures {
        seed,
        flows,
        curves,
    }
}

fn run_point(
    seed: u64,
    arch: CityArchetype,
    failure_p: f64,
    flows: usize,
    worker_counts: &[usize],
) -> ResiliencePoint {
    let scenario = |retry: RetryPolicy| {
        let mut s = FaultScenario::iid(failure_p);
        s.retry = retry;
        s
    };
    let prepare = |retry: RetryPolicy| {
        CityExperiment::prepare(
            arch.generate(seed),
            ExperimentConfig {
                seed,
                faults: Some(scenario(retry)),
                ..ExperimentConfig::default()
            },
        )
    };

    let ladder = prepare(RetryPolicy::ladder());
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
        .map(|&workers| {
            try_run_fleet(
                &ladder,
                &workload,
                &FleetConfig {
                    workers,
                    seed,
                    ..FleetConfig::default()
                },
            )
            .expect("sweep config matches the world it prepared")
        })
        .collect();
    let digests: Vec<u64> = reports.iter().map(|r| r.digest()).collect();
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "{} p={failure_p}: fault-injected digests diverged across workers {worker_counts:?}: {digests:x?}",
        arch.label()
    );
    let report = &reports[0];

    let single = prepare(RetryPolicy::none());
    let no_retry = try_run_fleet(
        &single,
        &workload,
        &FleetConfig {
            workers: worker_counts[0],
            seed,
            ..FleetConfig::default()
        },
    )
    .expect("sweep config matches the world it prepared");

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

/// Serializes the sweep for `BENCH_resilience.json`.
pub fn to_json(figs: &ResilienceFigures) -> Value {
    Value::Obj(vec![
        ("seed".into(), Value::Int(figs.seed as i64)),
        ("flows".into(), Value::Int(figs.flows as i64)),
        (
            "curves".into(),
            Value::Arr(
                figs.curves
                    .iter()
                    .map(|c| {
                        Value::Obj(vec![
                            ("city".into(), Value::Str(c.city.clone())),
                            ("archetype".into(), Value::Str(c.archetype.into())),
                            ("buildings".into(), Value::Int(c.buildings as i64)),
                            (
                                "points".into(),
                                Value::Arr(c.points.iter().map(point_json).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn point_json(p: &ResiliencePoint) -> Value {
    Value::Obj(vec![
        ("failure_p".into(), Value::Num(p.failure_p)),
        ("failed_fraction".into(), Value::Num(p.failed_fraction)),
        ("delivery_rate".into(), Value::Num(p.delivery_rate)),
        (
            "delivery_rate_no_retry".into(),
            Value::Num(p.delivery_rate_no_retry),
        ),
        ("retried".into(), Value::Int(p.retried as i64)),
        ("recovered".into(), Value::Int(p.recovered as i64)),
        ("digest".into(), Value::Str(format!("{:016x}", p.digest))),
        (
            "fault_fingerprint".into(),
            Value::Str(format!("{:016x}", p.fault_fingerprint)),
        ),
    ])
}

/// Renders one archetype's delivery-rate-vs-failed-fraction curve as a
/// small standalone SVG line chart: ladder on (solid) vs off (dashed).
pub fn curve_svg(curve: &ResilienceCurve) -> String {
    const W: f64 = 420.0;
    const H: f64 = 280.0;
    const M: f64 = 40.0; // margin on every side
    let x = |frac: f64| M + frac.min(1.0) * (W - 2.0 * M) / 0.5_f64.max(max_frac(curve));
    let y = |rate: f64| H - M - rate.clamp(0.0, 1.0) * (H - 2.0 * M);
    let path = |rates: &dyn Fn(&ResiliencePoint) -> f64| {
        curve
            .points
            .iter()
            .map(|p| format!("{:.1},{:.1}", x(p.failed_fraction), y(rates(p))))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let mut s = String::new();
    s.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{W}\" height=\"{H}\" \
         viewBox=\"0 0 {W} {H}\" font-family=\"sans-serif\" font-size=\"11\">\n"
    ));
    s.push_str(&format!(
        "<text x=\"{}\" y=\"16\" text-anchor=\"middle\" font-size=\"13\">{}: delivery vs failed APs</text>\n",
        W / 2.0,
        curve.archetype
    ));
    // Axes.
    s.push_str(&format!(
        "<line x1=\"{M}\" y1=\"{0}\" x2=\"{1}\" y2=\"{0}\" stroke=\"#444\"/>\n\
         <line x1=\"{M}\" y1=\"{M}\" x2=\"{M}\" y2=\"{0}\" stroke=\"#444\"/>\n",
        H - M,
        W - M
    ));
    for tick in [0.0, 0.5, 1.0] {
        s.push_str(&format!(
            "<text x=\"{}\" y=\"{}\" text-anchor=\"end\">{:.1}</text>\n",
            M - 4.0,
            y(tick) + 4.0,
            tick
        ));
    }
    s.push_str(&format!(
        "<polyline points=\"{}\" fill=\"none\" stroke=\"#1f77b4\" stroke-width=\"2\"/>\n",
        path(&|p| p.delivery_rate)
    ));
    s.push_str(&format!(
        "<polyline points=\"{}\" fill=\"none\" stroke=\"#d62728\" stroke-width=\"2\" \
         stroke-dasharray=\"5,4\"/>\n",
        path(&|p| p.delivery_rate_no_retry)
    ));
    s.push_str(&format!(
        "<text x=\"{0}\" y=\"{1}\" fill=\"#1f77b4\">retry ladder</text>\n\
         <text x=\"{0}\" y=\"{2}\" fill=\"#d62728\">single attempt</text>\n",
        W - M - 110.0,
        M + 14.0,
        M + 28.0
    ));
    s.push_str(&format!(
        "<text x=\"{}\" y=\"{}\" text-anchor=\"middle\">failed AP fraction</text>\n",
        W / 2.0,
        H - 8.0
    ));
    s.push_str("</svg>\n");
    s
}

fn max_frac(curve: &ResilienceCurve) -> f64 {
    curve
        .points
        .iter()
        .map(|p| p.failed_fraction)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_degrades_and_serializes() {
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
        let rendered = to_json(&figs).render();
        assert!(rendered.contains("\"failed_fraction\""));
        assert!(rendered.contains("\"fault_fingerprint\""));
        let svg = curve_svg(&figs.curves[0]);
        assert!(svg.starts_with("<svg") && svg.contains("polyline"));
    }
}
