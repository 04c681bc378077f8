//! Churn sweep (`figures -- churn`).
//!
//! The resilience sweep hurts the world once, before the first flow;
//! this sweep keeps hurting it *during* the run. For each survey
//! archetype it materializes a deterministic event timeline —
//! aftershock discs, battery-drain waves, crew repairs — at increasing
//! churn levels and drives the epoch-barrier engine from
//! `citymesh-dynamics` with all three sender populations: the paper's
//! static plan, the retry ladder, and the Babel/QSPN-style reactive
//! local repair, and draws one delivery-vs-churn SVG per archetype
//! via [`curve_svg`].
//!
//! Two claims are checked, not assumed, at every point:
//!
//! 1. **Determinism**: each strategy's churn digest is identical
//!    across every checked worker count — a mutating world must not
//!    cost the engine its "parallel == serial" guarantee.
//! 2. **Incremental invalidation**: evicting only the plans an event
//!    could observably touch is digest-equal to flushing the whole
//!    route cache, while evicting strictly fewer entries in aggregate
//!    (per-point counts are in the printed table). Each run starts
//!    from a cache that has seen the workload's pairs once, so it
//!    stores every pair it asks for (see `warmed`).

use citymesh_core::{CityExperiment, FaultScenario};
use citymesh_dynamics::{
    try_run_churn_on_cache, ChurnConfig, ChurnEngineConfig, InvalidationPolicy, Strategy, Timeline,
};
use citymesh_fleet::{generate_flows, FlowModel, FlowSpec, RouteCache, WorkloadConfig};
use citymesh_map::CityArchetype;
use citymesh_telemetry::TelemetryConfig;

use crate::render::{ticks, LineChart, Series};
use crate::sweep::{assert_unanimous, prepare, write_figure, Scale, Sweep, SweepOpts, SEED};
use crate::text;

/// One strategy's outcome at one `(archetype, churn level)` point.
pub struct StrategyResult {
    /// Stable strategy label (`static`, `ladder`, `reactive`).
    pub strategy: &'static str,
    /// Delivered fraction under churn.
    pub delivery_rate: f64,
    /// Flows a later ladder rung or a repaired route delivered after
    /// the first attempt failed.
    pub recovered: u64,
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
    /// One result per strategy: static, ladder, reactive.
    pub strategies: Vec<StrategyResult>,
}

/// The churn-degradation curve of one archetype.
pub struct ChurnCurve {
    /// Archetype label (`downtown`, `campus`, …).
    pub archetype: &'static str,
    /// Building count.
    pub buildings: usize,
    /// One point per churn level, in sweep order.
    pub points: Vec<ChurnPoint>,
}

/// All four archetype curves of one churn sweep.
pub struct ChurnFigures {
    /// Total incremental evictions over every point with events.
    pub total_evicted_incremental: u64,
    /// Total full-flush evictions over the same points.
    pub total_evicted_flush: u64,
    /// One curve per archetype.
    pub curves: Vec<ChurnCurve>,
}

/// The three sender populations the sweep compares, in report order.
const STRATEGIES: [Strategy; 3] = [
    Strategy::StaticPlan,
    Strategy::RetryLadder,
    Strategy::ReactiveRepair,
];

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
    for arch in CityArchetype::survey_areas() {
        let blackout = FaultScenario::district_blackouts(1, 100.0);
        let exp = prepare(arch.generate(seed), seed, Some(blackout));
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
        total_evicted_incremental: total_incremental,
        total_evicted_flush: total_flush,
        curves,
    }
}

/// A route cache that has seen every distinct pair of `workload`
/// once. The cache stores a pair on its second request, and uniform
/// traffic seldom repeats one, so a cold run would hold almost nothing
/// for the invalidation policies to differ on; after this pass the run
/// stores every pair on its first request, as in a network whose pairs
/// recur. Outcomes, and so every digest, are the same either way.
fn warmed(exp: &CityExperiment, workload: &[FlowSpec]) -> RouteCache {
    let mut pairs: Vec<(u32, u32)> = workload.iter().map(|f| (f.src, f.dst)).collect();
    pairs.sort_unstable();
    pairs.dedup();
    let cache = RouteCache::new();
    for (src, dst) in pairs {
        cache.get_or_plan(src, dst, || exp.plan_flow(src, dst));
    }
    cache
}

fn run_point(
    exp: &CityExperiment,
    workload: &[FlowSpec],
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
    for strategy in STRATEGIES {
        let run = |workers: usize, invalidation: InvalidationPolicy| {
            let cfg = ChurnEngineConfig {
                workers,
                seed,
                invalidation,
                ..ChurnEngineConfig::default()
            };
            try_run_churn_on_cache(
                exp,
                workload,
                &timeline,
                strategy,
                &cfg,
                &warmed(exp, workload),
                &TelemetryConfig::off(),
            )
            .expect("sweep config matches the world it prepared")
            .0
        };
        let reports: Vec<_> = worker_counts
            .iter()
            .map(|&workers| run(workers, InvalidationPolicy::Incremental))
            .collect();
        let digests: Vec<u64> = reports.iter().map(|r| r.digest()).collect();
        assert_unanimous(
            format_args!("{} under churn across workers", strategy.label()),
            &digests,
        );
        let incremental = &reports[0];
        let flush = run(worker_counts[0], InvalidationPolicy::FullFlush);
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
            recovered: incremental.recovered,
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

/// Renders one archetype's delivery-vs-churn curve, one line per
/// strategy.
pub fn curve_svg(curve: &ChurnCurve) -> String {
    let xs: Vec<f64> = curve.points.iter().map(|p| p.events as f64).collect();
    let x_ticks: Vec<String> = curve.points.iter().map(|p| p.events.to_string()).collect();
    let series: Vec<Series> = [
        ("static plan", "#d62728", Some("5,4")),
        ("retry ladder", "#1f77b4", None),
        ("reactive repair", "#2ca02c", None),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (label, color, dash))| Series {
        label,
        color,
        dash,
        ys: curve
            .points
            .iter()
            .map(|p| p.strategies[i].delivery_rate)
            .collect(),
    })
    .collect();
    LineChart {
        title: &format!("{}: delivery vs churn", curve.archetype),
        x_label: "scheduled world events",
        y_label: None,
        xs: &xs,
        x_ticks: &x_ticks,
        y_ticks: &ticks(&[0.0, 0.5, 1.0], 1),
        series: &series,
        marker: None,
    }
    .render()
}

impl Sweep for ChurnFigures {
    const NAME: &'static str = "churn";
    const SCALES: &'static [Scale] = &[Scale::Full, Scale::Fast];
    const PINNED: Scale = Scale::Fast;

    fn run(opts: &SweepOpts) -> Self {
        // Total scheduled events per point; the mechanism mix is fixed
        // by `event_mix`.
        let event_levels = [0usize, 2, 4, 8];
        let flows = opts.flows_or(400, 150, 150);
        run_churn_figs(SEED, &event_levels, flows, &opts.worker_counts())
    }

    fn print(&self) {
        println!("== churn: delivery and replan cost under a mutating world ==");
        for curve in &self.curves {
            let rows: Vec<(&ChurnPoint, &StrategyResult)> = curve
                .points
                .iter()
                .flat_map(|p| p.strategies.iter().map(move |s| (p, s)))
                .collect();
            println!(
                "-- {} ({} buildings) --\n{}",
                curve.archetype,
                curve.buildings,
                text::columns(
                    &rows,
                    &[
                        ("events", &|(p, _)| p.events.to_string()),
                        ("rate/s", &|(p, _)| format!("{:.1}", p.churn_rate_hz)),
                        ("strategy", &|(_, s)| s.strategy.to_string()),
                        ("delivered", &|(_, s)| format!(
                            "{:.1}%",
                            s.delivery_rate * 100.0
                        )),
                        ("recovered", &|(_, s)| s.recovered.to_string()),
                        ("evict inc/flush", &|(_, s)| format!(
                            "{}/{}",
                            s.evicted_incremental, s.evicted_flush
                        )),
                        ("plan inc/flush", &|(_, s)| format!(
                            "{}/{}",
                            s.planned_incremental, s.planned_flush
                        )),
                        ("digest", &|(_, s)| format!("{:016x}", s.digest)),
                    ]
                )
            );
            write_figure(
                &format!("figures/churn_{}.svg", curve.archetype),
                &curve_svg(curve),
            );
        }
        println!(
            "all worker counts and both invalidation policies agree on every digest; \
             incremental eviction cost {} entries vs {} for full flushes\n",
            self.total_evicted_incremental, self.total_evicted_flush
        );
    }

    /// The downtown 8-event point: the timeline fingerprint pins the
    /// materialized event schedule (times, mechanisms, every per-AP
    /// health flip); the ladder and reactive digests pin the
    /// epoch-barrier pipeline over it — partitioning, serial event
    /// application, incremental invalidation, aggregation — under both
    /// escalations of the retry policy.
    fn pins(&self) -> Vec<(&'static str, u64)> {
        let downtown = self.curves.iter().find(|c| c.archetype == "downtown");
        let Some(point) = downtown.and_then(|c| c.points.iter().find(|p| p.events == 8)) else {
            return vec![];
        };
        let mut pins = vec![("downtown 8-event timeline", point.timeline_fingerprint)];
        for s in &point.strategies {
            match s.strategy {
                "ladder" => pins.push(("downtown 8-event ladder digest", s.digest)),
                "reactive" => pins.push(("downtown 8-event reactive digest", s.digest)),
                _ => {}
            }
        }
        pins
    }
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
    fn sweep_checks_invariants_and_draws() {
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
        let svg = curve_svg(&figs.curves[1]);
        assert!(svg.starts_with("<svg") && svg.contains("polyline"));
    }
}
