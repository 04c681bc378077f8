//! Streaming latency-under-load figures (`figures -- streaming`).
//!
//! Drives the always-on engine ([`citymesh_stream::try_run_stream`])
//! through an offered-load sweep: a Poisson arrival stream at a
//! multiple of the modeled server fleet's estimated capacity, from
//! deep underload to well past saturation. Two scenarios run the same
//! protocol:
//!
//! * `downtown-flat` — the survey downtown archetype, flat planner;
//! * `metro-hier` — a tiled metropolis with the district-overlay
//!   hierarchical planner ([`StreamConfig::use_hier_planner`]).
//!
//! Capacity is *estimated, not assumed*: an unmeasured underload probe
//! records the modeled mean service time, and
//! `capacity ≈ servers / mean_service` anchors the multiplier axis, so
//! the knee lands near 1.0× by construction and drift in the service
//! model shows up as a shifted knee rather than a silently mislabeled
//! axis. Per point the sweep records p50/p99 sojourn of admitted
//! flows, explicit shed counts (backpressure vs deadline), degradation
//! rung counts, and the stream digest — asserted bit-identical across
//! every swept worker count. The saturation knee — the first
//! multiplier that sheds or blows p99 past 4x the underload baseline —
//! is reported per curve.
//!
//! The data lands in `BENCH_streaming.json` via [`to_json`]; the
//! binary renders one latency/shed chart per scenario via
//! [`curve_svg`].

use std::time::Instant;

use citymesh_core::{CityExperiment, ExperimentConfig, HierParams};
use citymesh_dynamics::{ChurnConfig, Timeline};
use citymesh_map::{generate_metro, CityArchetype, MetroParams};
use citymesh_stream::{
    generate_stream_flows, try_run_stream, ArrivalProcess, StreamConfig, StreamWorkload,
};
use citymesh_telemetry::TelemetryConfig;

use crate::sweep::SweepTimer;
use crate::text::json::Value;

/// One scenario of the sweep: which world, and how many flows per
/// load point.
pub struct StreamScenario {
    /// Stable label for tables/JSON (`downtown-flat`, `metro-hier`).
    pub label: &'static str,
    /// `None` = the survey downtown archetype with the flat planner;
    /// `Some((tx, ty))` = a tiled metro with the hierarchical planner.
    pub metro_tiles: Option<(usize, usize)>,
    /// Flows offered per load point.
    pub flows: usize,
}

/// One measured offered-load point.
pub struct StreamPoint {
    /// Offered load as a multiple of the estimated capacity.
    pub multiplier: f64,
    /// The Poisson arrival rate actually offered, flows/sec.
    pub rate_hz: f64,
    /// Flows the arrival stream offered.
    pub offered: u64,
    /// Flows admitted and served.
    pub admitted: u64,
    /// Flows shed because a server queue was full.
    pub shed_backpressure: u64,
    /// Flows shed because their queue wait would exceed the deadline.
    pub shed_deadline: u64,
    /// Admitted flows that ran with trace capture shed (rung 1).
    pub degraded_tracing: u64,
    /// Admitted flows that ran with the retry ladder capped (rung 2).
    pub degraded_retry: u64,
    /// Median sojourn (queue wait + service) of admitted flows, ms.
    pub p50_sojourn_ms: f64,
    /// 99th-percentile sojourn of admitted flows, ms.
    pub p99_sojourn_ms: f64,
    /// Worst sojourn of any admitted flow, ms.
    pub max_sojourn_ms: f64,
    /// Deepest any server queue ever got.
    pub max_depth: u64,
    /// Wall-clock processing throughput at the first swept worker
    /// count, offered flows/sec.
    pub flows_per_sec: f64,
    /// [`StreamReport::digest`](citymesh_stream::StreamReport::digest),
    /// asserted equal across all worker counts.
    pub digest: u64,
}

impl StreamPoint {
    /// Total flows shed, either reason.
    pub fn shed(&self) -> u64 {
        self.shed_backpressure + self.shed_deadline
    }

    /// Shed flows as a fraction of offered.
    pub fn shed_rate(&self) -> f64 {
        self.shed() as f64 / self.offered.max(1) as f64
    }
}

/// One scenario's full load curve.
pub struct StreamCurve {
    /// Scenario label.
    pub label: &'static str,
    /// Buildings in the scenario's map.
    pub buildings: usize,
    /// Modeled servers.
    pub servers: usize,
    /// Bounded queue depth per server.
    pub queue_capacity: usize,
    /// Deadline for queue wait, ms.
    pub deadline_ms: f64,
    /// Mean modeled service time from the underload probe, ms.
    pub mean_service_ms: f64,
    /// Estimated saturation rate, flows/sec
    /// (`servers * 1000 / mean_service_ms`).
    pub capacity_hz: f64,
    /// First multiplier that sheds flows or blows p99 sojourn past 4x
    /// the underload baseline — the saturation knee.
    pub knee_multiplier: Option<f64>,
    /// Load points in sweep order (ascending multiplier).
    pub points: Vec<StreamPoint>,
    /// Wall time of this whole curve, ms.
    pub wall_ms: f64,
    /// Process peak RSS after this curve, KiB (0 where unavailable).
    pub peak_rss_kb: u64,
}

/// Both scenarios' curves.
pub struct StreamingFigures {
    /// Curves in scenario order.
    pub curves: Vec<StreamCurve>,
    /// Worker counts every point was digest-checked across.
    pub worker_counts: Vec<usize>,
}

/// The sweep's fixed queueing configuration: small enough queues and a
/// tight enough deadline that a few thousand flows reach shedding
/// steady state past the knee.
fn sweep_config(seed: u64, workers: usize, use_hier: bool) -> StreamConfig {
    StreamConfig {
        workers,
        servers: 4,
        seed,
        use_hier_planner: use_hier,
        queue_capacity: 16,
        deadline_ms: 60.0,
        ..StreamConfig::default()
    }
}

/// Builds one scenario's experiment (and its empty timeline).
fn build_world(seed: u64, scenario: &StreamScenario) -> (CityExperiment, Timeline) {
    let map = match scenario.metro_tiles {
        Some((tx, ty)) => generate_metro(&MetroParams::with_tiles(tx, ty), seed),
        None => CityArchetype::SurveyDowntown.generate(seed),
    };
    let mut exp = CityExperiment::prepare(
        map,
        ExperimentConfig {
            seed,
            ..ExperimentConfig::default()
        },
    );
    if scenario.metro_tiles.is_some() {
        exp.enable_hier(&HierParams::default());
    }
    let timeline = Timeline::materialize(
        &exp,
        &ChurnConfig {
            aftershocks: 0,
            battery_waves: 0,
            crew_repairs: 0,
            ..ChurnConfig::default()
        },
    );
    (exp, timeline)
}

/// Measures the modeled mean service time with an underload probe:
/// unbounded-ish queue, no deadline, so every probe flow is admitted
/// and the service histogram covers the whole sample. The result is a
/// pure function of the seed (service time is modeled, not timed).
fn probe_mean_service_ms(exp: &CityExperiment, timeline: &Timeline, cfg: &StreamConfig) -> f64 {
    let probe_cfg = StreamConfig {
        queue_capacity: 4096,
        deadline_ms: f64::INFINITY,
        ..*cfg
    };
    let flows = generate_stream_flows(
        exp.map().len(),
        &StreamWorkload {
            flows: 256,
            process: ArrivalProcess::Poisson { rate_hz: 200.0 },
            seed: cfg.seed,
        },
    );
    let (report, _) = try_run_stream(exp, &flows, timeline, &probe_cfg, &TelemetryConfig::off())
        .expect("sweep config matches the world it prepared");
    report
        .service_ms
        .mean()
        .unwrap_or(probe_cfg.service.base_ms)
}

/// First multiplier that sheds, or whose p99 sojourn exceeds 4x the
/// first (deep-underload) point's p99.
fn detect_knee(points: &[StreamPoint]) -> Option<f64> {
    let base_p99 = points.first()?.p99_sojourn_ms.max(1e-9);
    points
        .iter()
        .find(|p| p.shed() > 0 || p.p99_sojourn_ms > 4.0 * base_p99)
        .map(|p| p.multiplier)
}

/// Runs the sweep: for each scenario, probes capacity once, then
/// offers `multiplier x capacity` Poisson streams and measures the
/// engine at every worker count.
///
/// # Panics
/// Panics when any two worker counts disagree on a point's digest,
/// when a point's accounting does not balance
/// (`offered == admitted + shed`), or when an admitted flow's sojourn
/// exceeds the deadline-plus-service bound the engine guarantees by
/// construction.
pub fn run_streaming_figs(
    seed: u64,
    scenarios: &[StreamScenario],
    multipliers: &[f64],
    worker_counts: &[usize],
) -> StreamingFigures {
    assert!(!worker_counts.is_empty(), "need at least one worker count");
    let mut curves = Vec::new();
    for scenario in scenarios {
        let curve = SweepTimer::start();
        let (exp, timeline) = build_world(seed, scenario);
        let use_hier = scenario.metro_tiles.is_some();
        let base_cfg = sweep_config(seed, worker_counts[0], use_hier);
        let mean_service_ms = probe_mean_service_ms(&exp, &timeline, &base_cfg);
        let capacity_hz = base_cfg.servers as f64 * 1000.0 / mean_service_ms.max(1e-9);

        let mut points = Vec::new();
        for &multiplier in multipliers {
            let rate_hz = multiplier * capacity_hz;
            let flows = generate_stream_flows(
                exp.map().len(),
                &StreamWorkload {
                    flows: scenario.flows,
                    process: ArrivalProcess::Poisson { rate_hz },
                    seed,
                },
            );
            let mut first: Option<StreamPoint> = None;
            for &w in worker_counts {
                let cfg = StreamConfig {
                    workers: w,
                    ..base_cfg
                };
                let started = Instant::now();
                let (r, _) = try_run_stream(&exp, &flows, &timeline, &cfg, &TelemetryConfig::off())
                    .expect("sweep config matches the world it prepared");
                let secs = started.elapsed().as_secs_f64().max(1e-9);
                assert_eq!(
                    r.offered,
                    r.admitted + r.shed(),
                    "{} x{multiplier}: accounting must balance",
                    scenario.label
                );
                // Exact maxima (quantiles are bucket-resolution and
                // can overshoot the true max by the bucket growth).
                let sojourn_max = r.sojourn_ms.max().unwrap_or(0.0);
                let service_max = r.service_ms.max().unwrap_or(0.0);
                assert!(
                    sojourn_max <= cfg.deadline_ms + service_max + 1e-6,
                    "{} x{multiplier}: admitted sojourn {sojourn_max:.3} ms escapes the \
                     deadline+service bound",
                    scenario.label
                );
                match &first {
                    None => {
                        first = Some(StreamPoint {
                            multiplier,
                            rate_hz,
                            offered: r.offered,
                            admitted: r.admitted,
                            shed_backpressure: r.shed_backpressure,
                            shed_deadline: r.shed_deadline,
                            degraded_tracing: r.degraded_tracing,
                            degraded_retry: r.degraded_retry,
                            p50_sojourn_ms: r.sojourn_quantile(0.5).unwrap_or(0.0),
                            p99_sojourn_ms: r.sojourn_quantile(0.99).unwrap_or(0.0),
                            max_sojourn_ms: sojourn_max,
                            max_depth: r.max_depth,
                            flows_per_sec: r.offered as f64 / secs,
                            digest: r.digest(),
                        });
                    }
                    Some(p) => assert_eq!(
                        p.digest,
                        r.digest(),
                        "{} x{multiplier}: digest differs between {} and {w} workers",
                        scenario.label,
                        worker_counts[0]
                    ),
                }
            }
            points.push(first.expect("worker_counts is non-empty"));
        }

        let (wall_ms, peak_rss_kb) = curve.point_stats();
        curves.push(StreamCurve {
            label: scenario.label,
            buildings: exp.map().len(),
            servers: base_cfg.servers,
            queue_capacity: base_cfg.queue_capacity,
            deadline_ms: base_cfg.deadline_ms,
            mean_service_ms,
            capacity_hz,
            knee_multiplier: detect_knee(&points),
            points,
            wall_ms,
            peak_rss_kb,
        });
    }
    StreamingFigures {
        curves,
        worker_counts: worker_counts.to_vec(),
    }
}

/// Serializes the sweep for `BENCH_streaming.json`.
pub fn to_json(figs: &StreamingFigures) -> Value {
    Value::Obj(vec![
        (
            "worker_counts".into(),
            Value::Arr(
                figs.worker_counts
                    .iter()
                    .map(|&w| Value::Int(w as i64))
                    .collect(),
            ),
        ),
        (
            "curves".into(),
            Value::Arr(
                figs.curves
                    .iter()
                    .map(|c| {
                        Value::Obj(vec![
                            ("label".into(), Value::Str(c.label.into())),
                            ("buildings".into(), Value::Int(c.buildings as i64)),
                            ("servers".into(), Value::Int(c.servers as i64)),
                            ("queue_capacity".into(), Value::Int(c.queue_capacity as i64)),
                            ("deadline_ms".into(), Value::Num(c.deadline_ms)),
                            ("mean_service_ms".into(), Value::Num(c.mean_service_ms)),
                            ("capacity_hz".into(), Value::Num(c.capacity_hz)),
                            (
                                "knee_multiplier".into(),
                                c.knee_multiplier.map(Value::Num).unwrap_or(Value::Null),
                            ),
                            ("wall_ms".into(), Value::Num(c.wall_ms)),
                            ("peak_rss_kb".into(), Value::Int(c.peak_rss_kb as i64)),
                            (
                                "points".into(),
                                Value::Arr(
                                    c.points
                                        .iter()
                                        .map(|p| {
                                            Value::Obj(vec![
                                                ("multiplier".into(), Value::Num(p.multiplier)),
                                                ("rate_hz".into(), Value::Num(p.rate_hz)),
                                                ("offered".into(), Value::Int(p.offered as i64)),
                                                ("admitted".into(), Value::Int(p.admitted as i64)),
                                                (
                                                    "shed_backpressure".into(),
                                                    Value::Int(p.shed_backpressure as i64),
                                                ),
                                                (
                                                    "shed_deadline".into(),
                                                    Value::Int(p.shed_deadline as i64),
                                                ),
                                                (
                                                    "degraded_tracing".into(),
                                                    Value::Int(p.degraded_tracing as i64),
                                                ),
                                                (
                                                    "degraded_retry".into(),
                                                    Value::Int(p.degraded_retry as i64),
                                                ),
                                                ("shed_rate".into(), Value::Num(p.shed_rate())),
                                                (
                                                    "p50_sojourn_ms".into(),
                                                    Value::Num(p.p50_sojourn_ms),
                                                ),
                                                (
                                                    "p99_sojourn_ms".into(),
                                                    Value::Num(p.p99_sojourn_ms),
                                                ),
                                                (
                                                    "max_sojourn_ms".into(),
                                                    Value::Num(p.max_sojourn_ms),
                                                ),
                                                (
                                                    "max_depth".into(),
                                                    Value::Int(p.max_depth as i64),
                                                ),
                                                (
                                                    "flows_per_sec".into(),
                                                    Value::Num(p.flows_per_sec),
                                                ),
                                                (
                                                    "digest".into(),
                                                    Value::Str(format!("{:016x}", p.digest)),
                                                ),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// One scenario's latency-under-load chart: p50/p99 sojourn (left
/// scale) and shed fraction (scaled to the same height) vs offered
/// load, with a dashed marker at the detected knee.
pub fn curve_svg(curve: &StreamCurve) -> String {
    const W: f64 = 420.0;
    const H: f64 = 280.0;
    const M: f64 = 48.0;
    let xs: Vec<f64> = curve.points.iter().map(|p| p.multiplier).collect();
    let (x0, x1) = (
        xs.iter().copied().fold(f64::MAX, f64::min),
        xs.iter().copied().fold(0.0, f64::max),
    );
    let y1 = curve
        .points
        .iter()
        .map(|p| p.p99_sojourn_ms)
        .fold(0.0, f64::max)
        .max(1e-3);
    let x = |m: f64| M + (m - x0) / (x1 - x0).max(1e-9) * (W - 2.0 * M);
    let y = |v: f64| H - M - (v / y1).clamp(0.0, 1.0) * (H - 2.0 * M);
    let path = |f: &dyn Fn(&StreamPoint) -> f64| {
        curve
            .points
            .iter()
            .map(|p| format!("{:.1},{:.1}", x(p.multiplier), y(f(p))))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let mut s = String::new();
    s.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{W}\" height=\"{H}\" \
         viewBox=\"0 0 {W} {H}\" font-family=\"sans-serif\" font-size=\"11\">\n"
    ));
    s.push_str(&format!(
        "<text x=\"{}\" y=\"16\" text-anchor=\"middle\" font-size=\"13\">sojourn under load \
         ({})</text>\n",
        W / 2.0,
        curve.label
    ));
    s.push_str(&format!(
        "<line x1=\"{M}\" y1=\"{0}\" x2=\"{1}\" y2=\"{0}\" stroke=\"#444\"/>\n\
         <line x1=\"{M}\" y1=\"{M}\" x2=\"{M}\" y2=\"{0}\" stroke=\"#444\"/>\n",
        H - M,
        W - M
    ));
    for p in &curve.points {
        s.push_str(&format!(
            "<text x=\"{:.1}\" y=\"{}\" text-anchor=\"middle\">{:.2}x</text>\n",
            x(p.multiplier),
            H - M + 14.0,
            p.multiplier
        ));
    }
    s.push_str(&format!(
        "<text x=\"{}\" y=\"{}\" text-anchor=\"end\">{y1:.0} ms</text>\n",
        M - 4.0,
        y(y1) + 4.0
    ));
    if let Some(knee) = curve.knee_multiplier {
        s.push_str(&format!(
            "<line x1=\"{0:.1}\" y1=\"{M}\" x2=\"{0:.1}\" y2=\"{1}\" stroke=\"#999\" \
             stroke-dasharray=\"4 3\"/>\n\
             <text x=\"{0:.1}\" y=\"{2}\" text-anchor=\"middle\" fill=\"#666\">knee</text>\n",
            x(knee),
            H - M,
            M - 6.0
        ));
    }
    s.push_str(&format!(
        "<polyline points=\"{}\" fill=\"none\" stroke=\"#1f77b4\" stroke-width=\"2\"/>\n",
        path(&|p| p.p50_sojourn_ms)
    ));
    s.push_str(&format!(
        "<polyline points=\"{}\" fill=\"none\" stroke=\"#d62728\" stroke-width=\"2\"/>\n",
        path(&|p| p.p99_sojourn_ms)
    ));
    s.push_str(&format!(
        "<polyline points=\"{}\" fill=\"none\" stroke=\"#7f7f7f\" stroke-width=\"1.5\" \
         stroke-dasharray=\"2 3\"/>\n",
        path(&|p| p.shed_rate() * y1)
    ));
    s.push_str(&format!(
        "<text x=\"{0}\" y=\"{1}\" fill=\"#1f77b4\">p50</text>\n\
         <text x=\"{0}\" y=\"{2}\" fill=\"#d62728\">p99</text>\n\
         <text x=\"{0}\" y=\"{3}\" fill=\"#7f7f7f\">shed%</text>\n",
        M + 8.0,
        M + 14.0,
        M + 28.0,
        M + 42.0
    ));
    s.push_str(&format!(
        "<text x=\"{}\" y=\"{}\" text-anchor=\"middle\">offered load (x estimated \
         capacity)</text>\n",
        W / 2.0,
        H - 8.0
    ));
    s.push_str(&format!(
        "<text x=\"14\" y=\"{}\" transform=\"rotate(-90 14 {0})\" text-anchor=\"middle\">sojourn \
         (ms)</text>\n",
        H / 2.0
    ));
    s.push_str("</svg>\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_finds_a_knee_and_serializes() {
        let scenarios = [
            StreamScenario {
                label: "downtown-flat",
                metro_tiles: None,
                flows: 150,
            },
            StreamScenario {
                label: "metro-hier",
                metro_tiles: Some((1, 1)),
                flows: 150,
            },
        ];
        let figs = run_streaming_figs(5, &scenarios, &[0.4, 2.5], &[1, 2]);
        assert_eq!(figs.curves.len(), 2);
        for c in &figs.curves {
            assert!(c.capacity_hz > 0.0 && c.mean_service_ms > 0.0);
            assert_eq!(c.points.len(), 2);
            let under = &c.points[0];
            let over = &c.points[1];
            assert_eq!(under.shed(), 0, "{}: 0.4x must not shed", c.label);
            assert!(over.shed() > 0, "{}: 2.5x must shed explicitly", c.label);
            assert!(
                over.p99_sojourn_ms >= under.p99_sojourn_ms,
                "{}: overload cannot have lower p99 than underload",
                c.label
            );
            assert_eq!(c.knee_multiplier, Some(2.5));
        }
        let rendered = to_json(&figs).render();
        assert!(rendered.contains("\"p99_sojourn_ms\""));
        assert!(rendered.contains("\"knee_multiplier\""));
        assert!(rendered.contains("\"metro-hier\""));
        let svg = curve_svg(&figs.curves[0]);
        assert!(svg.starts_with("<svg") && svg.ends_with("</svg>\n"));
        assert!(svg.contains("knee"));
    }

    #[test]
    fn knee_detection_prefers_the_first_saturated_point() {
        let p = |multiplier: f64, shed: u64, p99: f64| StreamPoint {
            multiplier,
            rate_hz: 0.0,
            offered: 100,
            admitted: 100 - shed,
            shed_backpressure: shed,
            shed_deadline: 0,
            degraded_tracing: 0,
            degraded_retry: 0,
            p50_sojourn_ms: p99 / 2.0,
            p99_sojourn_ms: p99,
            max_sojourn_ms: p99,
            max_depth: 0,
            flows_per_sec: 0.0,
            digest: 0,
        };
        // Sheds at 2.0x: that's the knee even though p99 jumped later.
        let pts = [p(0.5, 0, 3.0), p(2.0, 10, 9.0), p(3.0, 20, 50.0)];
        assert_eq!(detect_knee(&pts), Some(2.0));
        // No shedding anywhere, but p99 blows past 4x baseline at 1.5x.
        let pts = [p(0.5, 0, 3.0), p(1.5, 0, 20.0)];
        assert_eq!(detect_knee(&pts), Some(1.5));
        // Flat and shed-free: no knee in range.
        let pts = [p(0.5, 0, 3.0), p(0.8, 0, 3.5)];
        assert_eq!(detect_knee(&pts), None);
    }
}
