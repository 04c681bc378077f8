//! Churn sweep (`figures -- churn`).
//!
//! The resilience sweep hurts the world once, before the first flow;
//! this sweep keeps hurting it *during* the run. For each survey
//! archetype it materializes a deterministic event timeline —
//! aftershock discs, battery-drain waves, crew repairs — at increasing
//! churn levels and drives the epoch-barrier engine from
//! `citymesh-dynamics` with all three sender populations: the paper's
//! static plan, the retry ladder, and the Babel/QSPN-style reactive
//! local repair. The data lands in `BENCH_churn.json` via [`to_json`]
//! plus one delivery-vs-churn SVG per archetype via [`curve_svg`].
//!
//! Two claims are checked, not assumed, at every point:
//!
//! 1. **Determinism**: each strategy's churn digest is identical
//!    across every checked worker count — a mutating world must not
//!    cost the engine its "parallel == serial" guarantee.
//! 2. **Incremental invalidation**: evicting only the plans an event
//!    could observably touch is digest-equal to flushing the whole
//!    route cache, while evicting strictly fewer entries in aggregate
//!    (per-point counts are recorded in the JSON).

use citymesh_core::{CityExperiment, ExperimentConfig, FaultScenario};
use citymesh_dynamics::{
    try_run_churn, ChurnConfig, ChurnEngineConfig, InvalidationPolicy, Strategy, Timeline,
};
use citymesh_fleet::{generate_flows, FlowModel, WorkloadConfig};
use citymesh_telemetry::TelemetryConfig;

use crate::resilience_figs::survey_archetypes;
use crate::text::json::Value;

/// One strategy's outcome at one `(archetype, churn level)` point.
pub struct StrategyResult {
    /// Stable strategy label (`static`, `ladder`, `reactive`).
    pub strategy: &'static str,
    /// Delivered fraction under churn.
    pub delivery_rate: f64,
    /// Flows that needed more than one attempt (ladder) or at least
    /// one repair splice (reactive).
    pub retried: u64,
    /// Retried flows that a later rung / repaired route delivered.
    pub recovered: u64,
    /// Reactive only: local repair splices performed.
    pub repairs: u64,
    /// Churn digest, identical across all checked worker counts and
    /// across both invalidation policies (asserted by
    /// [`run_churn_figs`]).
    pub digest: u64,
    /// Cache entries evicted by incremental (spatial) invalidation.
    pub evicted_incremental: u64,
    /// Cache entries evicted by the full-flush policy on the same
    /// timeline — the replan-cost baseline.
    pub evicted_flush: u64,
    /// Route plans computed (cache misses) under incremental eviction.
    pub planned_incremental: u64,
    /// Route plans computed under full flushes.
    pub planned_flush: u64,
}

/// One churn level of one archetype.
pub struct ChurnPoint {
    /// Scheduled events in the timeline at this level.
    pub events: usize,
    /// Events per simulated second of the workload span.
    pub churn_rate_hz: f64,
    /// Fingerprint of the materialized timeline (times, mechanisms,
    /// and every per-AP health flip) — pins the scenario itself.
    pub timeline_fingerprint: u64,
    /// Total AP health flips the timeline performs.
    pub aps_changed: u64,
    /// One result per strategy, in [`strategies`](crate::churn_figs)
    /// order: static, ladder, reactive.
    pub strategies: Vec<StrategyResult>,
}

/// The churn-degradation curve of one archetype.
pub struct ChurnCurve {
    /// Generated city name.
    pub city: String,
    /// Archetype label (`downtown`, `campus`, …).
    pub archetype: &'static str,
    /// Building count.
    pub buildings: usize,
    /// One point per churn level, in sweep order.
    pub points: Vec<ChurnPoint>,
}

/// All four archetype curves of one churn sweep.
pub struct ChurnFigures {
    /// Root seed of the sweep.
    pub seed: u64,
    /// Flows per point.
    pub flows: usize,
    /// Total incremental evictions over every point with events.
    pub total_evicted_incremental: u64,
    /// Total full-flush evictions over the same points.
    pub total_evicted_flush: u64,
    /// One curve per archetype.
    pub curves: Vec<ChurnCurve>,
}

/// The three sender populations the sweep compares, in report order.
fn strategies() -> [Strategy; 3] {
    [
        Strategy::StaticPlan,
        Strategy::RetryLadder,
        Strategy::ReactiveRepair,
    ]
}

/// Splits a total event budget into the three mechanisms: half
/// aftershocks, a quarter battery waves, the rest crew repairs.
fn event_mix(events: usize) -> (usize, usize, usize) {
    let aftershocks = events.div_ceil(2);
    let battery_waves = events / 4;
    let crew_repairs = events - aftershocks - battery_waves;
    (aftershocks, battery_waves, crew_repairs)
}

/// Runs the sweep: `event_levels` must start at `0` (the churn-free
/// baseline; with an empty timeline the engine degenerates to one
/// epoch and the ladder strategy reproduces the plain fleet digest).
///
/// # Panics
/// Panics if any strategy's digests diverge across `worker_counts`,
/// if incremental and full-flush eviction disagree on any digest, or
/// if — summed over every point that has events — incremental
/// invalidation fails to evict strictly fewer entries than flushing.
pub fn run_churn_figs(
    seed: u64,
    event_levels: &[usize],
    flows: usize,
    worker_counts: &[usize],
) -> ChurnFigures {
    assert!(
        !event_levels.is_empty() && event_levels[0] == 0,
        "sweep starts churn-free"
    );
    let mut curves = Vec::new();
    let mut total_incremental = 0u64;
    let mut total_flush = 0u64;
    for arch in survey_archetypes() {
        let exp = CityExperiment::prepare(
            arch.generate(seed),
            ExperimentConfig {
                seed,
                faults: Some(FaultScenario::district_blackouts(1, 100.0)),
                ..ExperimentConfig::default()
            },
        );
        let workload = generate_flows(
            exp.map().len(),
            &WorkloadConfig {
                flows,
                model: FlowModel::UniformPairs { rate_hz: 200.0 },
                seed,
            },
        );
        let span_ms = workload.last().expect("non-empty workload").arrival_ms;
        let mut points = Vec::new();
        for &events in event_levels {
            let point = run_point(&exp, &workload, seed, events, span_ms, worker_counts);
            if events > 0 {
                for s in &point.strategies {
                    total_incremental += s.evicted_incremental;
                    total_flush += s.evicted_flush;
                }
            }
            points.push(point);
        }
        curves.push(ChurnCurve {
            city: exp.map().name().to_string(),
            archetype: arch.label(),
            buildings: exp.map().len(),
            points,
        });
    }
    assert!(
        total_incremental < total_flush,
        "incremental invalidation must beat a flush in aggregate \
         ({total_incremental} vs {total_flush} evictions)"
    );
    ChurnFigures {
        seed,
        flows,
        total_evicted_incremental: total_incremental,
        total_evicted_flush: total_flush,
        curves,
    }
}

fn run_point(
    exp: &CityExperiment,
    workload: &[citymesh_fleet::FlowSpec],
    seed: u64,
    events: usize,
    span_ms: f64,
    worker_counts: &[usize],
) -> ChurnPoint {
    let (aftershocks, battery_waves, crew_repairs) = event_mix(events);
    let timeline = Timeline::materialize(
        exp,
        &ChurnConfig {
            aftershocks,
            battery_waves,
            crew_repairs,
            horizon_ms: span_ms,
            seed,
            ..ChurnConfig::default()
        },
    );
    let aps_changed: u64 = timeline
        .events()
        .iter()
        .map(|e| e.changes.len() as u64)
        .sum();

    let mut results = Vec::new();
    for strategy in strategies() {
        let cfg = |workers: usize, invalidation: InvalidationPolicy| ChurnEngineConfig {
            workers,
            seed,
            invalidation,
            ..ChurnEngineConfig::default()
        };
        let reports: Vec<_> = worker_counts
            .iter()
            .map(|&workers| {
                try_run_churn(
                    exp,
                    workload,
                    &timeline,
                    strategy,
                    &cfg(workers, InvalidationPolicy::Incremental),
                    &TelemetryConfig::off(),
                )
                .expect("sweep config matches the world it prepared")
                .0
            })
            .collect();
        let digests: Vec<u64> = reports.iter().map(|r| r.digest()).collect();
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "{} under churn: digests diverged across workers {worker_counts:?}: {digests:x?}",
            strategy.label()
        );
        let incremental = &reports[0];

        let (flush, _) = try_run_churn(
            exp,
            workload,
            &timeline,
            strategy,
            &cfg(worker_counts[0], InvalidationPolicy::FullFlush),
            &TelemetryConfig::off(),
        )
        .expect("sweep config matches the world it prepared");
        assert_eq!(
            incremental.digest(),
            flush.digest(),
            "{}: incremental invalidation changed outcomes",
            strategy.label()
        );
        assert!(
            incremental.routes_evicted <= flush.routes_evicted,
            "{}: incremental evicted more than a flush",
            strategy.label()
        );

        results.push(StrategyResult {
            strategy: strategy.label(),
            delivery_rate: incremental.delivery_rate(),
            retried: incremental.retried,
            recovered: incremental.recovered,
            repairs: incremental.repairs,
            digest: incremental.digest(),
            evicted_incremental: incremental.routes_evicted,
            evicted_flush: flush.routes_evicted,
            planned_incremental: incremental.routes_planned,
            planned_flush: flush.routes_planned,
        });
    }

    ChurnPoint {
        events,
        churn_rate_hz: if span_ms > 0.0 {
            events as f64 / (span_ms / 1000.0)
        } else {
            0.0
        },
        timeline_fingerprint: timeline.fingerprint(),
        aps_changed,
        strategies: results,
    }
}

/// Serializes the sweep for `BENCH_churn.json`.
pub fn to_json(figs: &ChurnFigures) -> Value {
    Value::Obj(vec![
        ("seed".into(), Value::Int(figs.seed as i64)),
        ("flows".into(), Value::Int(figs.flows as i64)),
        (
            "total_evicted_incremental".into(),
            Value::Int(figs.total_evicted_incremental as i64),
        ),
        (
            "total_evicted_flush".into(),
            Value::Int(figs.total_evicted_flush as i64),
        ),
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

fn point_json(p: &ChurnPoint) -> Value {
    Value::Obj(vec![
        ("events".into(), Value::Int(p.events as i64)),
        ("churn_rate_hz".into(), Value::Num(p.churn_rate_hz)),
        (
            "timeline_fingerprint".into(),
            Value::Str(format!("{:016x}", p.timeline_fingerprint)),
        ),
        ("aps_changed".into(), Value::Int(p.aps_changed as i64)),
        (
            "strategies".into(),
            Value::Arr(
                p.strategies
                    .iter()
                    .map(|s| {
                        Value::Obj(vec![
                            ("strategy".into(), Value::Str(s.strategy.into())),
                            ("delivery_rate".into(), Value::Num(s.delivery_rate)),
                            ("retried".into(), Value::Int(s.retried as i64)),
                            ("recovered".into(), Value::Int(s.recovered as i64)),
                            ("repairs".into(), Value::Int(s.repairs as i64)),
                            ("digest".into(), Value::Str(format!("{:016x}", s.digest))),
                            (
                                "evicted_incremental".into(),
                                Value::Int(s.evicted_incremental as i64),
                            ),
                            ("evicted_flush".into(), Value::Int(s.evicted_flush as i64)),
                            (
                                "planned_incremental".into(),
                                Value::Int(s.planned_incremental as i64),
                            ),
                            ("planned_flush".into(), Value::Int(s.planned_flush as i64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Renders one archetype's delivery-vs-churn curve as a small
/// standalone SVG line chart, one line per strategy.
pub fn curve_svg(curve: &ChurnCurve) -> String {
    const W: f64 = 420.0;
    const H: f64 = 280.0;
    const M: f64 = 40.0; // margin on every side
    let max_events = curve
        .points
        .iter()
        .map(|p| p.events as f64)
        .fold(1.0, f64::max);
    let x = |events: usize| M + events as f64 * (W - 2.0 * M) / max_events;
    let y = |rate: f64| H - M - rate.clamp(0.0, 1.0) * (H - 2.0 * M);
    let path = |idx: usize| {
        curve
            .points
            .iter()
            .map(|p| {
                format!(
                    "{:.1},{:.1}",
                    x(p.events),
                    y(p.strategies[idx].delivery_rate)
                )
            })
            .collect::<Vec<_>>()
            .join(" ")
    };
    let series = [
        ("static plan", "#d62728", Some("5,4")),
        ("retry ladder", "#1f77b4", None),
        ("reactive repair", "#2ca02c", None),
    ];
    let mut s = String::new();
    s.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{W}\" height=\"{H}\" \
         viewBox=\"0 0 {W} {H}\" font-family=\"sans-serif\" font-size=\"11\">\n"
    ));
    s.push_str(&format!(
        "<text x=\"{}\" y=\"16\" text-anchor=\"middle\" font-size=\"13\">{}: delivery vs churn</text>\n",
        W / 2.0,
        curve.archetype
    ));
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
    for (idx, (label, color, dash)) in series.iter().enumerate() {
        let dash_attr = dash
            .map(|d| format!(" stroke-dasharray=\"{d}\""))
            .unwrap_or_default();
        s.push_str(&format!(
            "<polyline points=\"{}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"2\"{dash_attr}/>\n",
            path(idx)
        ));
        s.push_str(&format!(
            "<text x=\"{}\" y=\"{}\" fill=\"{color}\">{label}</text>\n",
            W - M - 120.0,
            M + 14.0 * (idx as f64 + 1.0)
        ));
    }
    s.push_str(&format!(
        "<text x=\"{}\" y=\"{}\" text-anchor=\"middle\">scheduled world events</text>\n",
        W / 2.0,
        H - 8.0
    ));
    s.push_str("</svg>\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_mix_exhausts_the_budget() {
        for n in 0..20 {
            let (a, b, r) = event_mix(n);
            assert_eq!(a + b + r, n);
        }
    }

    #[test]
    fn sweep_checks_invariants_and_serializes() {
        let figs = run_churn_figs(9, &[0, 4], 80, &[1, 2]);
        assert_eq!(figs.curves.len(), 4);
        assert!(
            figs.total_evicted_incremental < figs.total_evicted_flush,
            "aggregate incremental advantage is asserted inside the run"
        );
        for c in &figs.curves {
            assert_eq!(c.points.len(), 2);
            let (calm, churned) = (&c.points[0], &c.points[1]);
            assert_eq!(calm.events, 0);
            assert_eq!(calm.aps_changed, 0);
            assert_eq!(churned.events, 4);
            assert_eq!(churned.strategies.len(), 3);
            for s in &churned.strategies {
                assert!(s.evicted_incremental <= s.evicted_flush);
                assert!(s.planned_incremental <= s.planned_flush);
            }
        }
        let rendered = to_json(&figs).render();
        assert!(rendered.contains("\"timeline_fingerprint\""));
        assert!(rendered.contains("\"evicted_flush\""));
        let svg = curve_svg(&figs.curves[1]);
        assert!(svg.starts_with("<svg") && svg.contains("polyline"));
    }
}
