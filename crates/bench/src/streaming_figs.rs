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
//! is reported per curve, with one latency/shed chart per scenario via
//! [`curve_svg`].

use citymesh_core::{CityExperiment, HierParams};
use citymesh_dynamics::{ChurnConfig, Timeline};
use citymesh_map::{generate_metro, CityArchetype, MetroParams};
use citymesh_stream::{
    generate_stream_flows, try_run_stream, ArrivalProcess, StreamConfig, StreamWorkload,
};
use citymesh_telemetry::TelemetryConfig;

use crate::render::{LineChart, Series};
use crate::sweep::{assert_unanimous, prepare, write_figure, Scale, Sweep, SweepOpts, SEED};
use crate::text;

/// One scenario of the sweep: which world, and how many flows per
/// load point.
pub struct StreamScenario {
    /// Stable label for tables (`downtown-flat`, `metro-hier`).
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
    /// Deepest any server queue ever got.
    pub max_depth: u64,
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
}

/// Both scenarios' curves.
pub struct StreamingFigures {
    /// Curves in scenario order.
    pub curves: Vec<StreamCurve>,
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
    let mut exp = prepare(map, seed, None);
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
/// (`offered == admitted + shed`), when an admitted flow's sojourn
/// exceeds the deadline-plus-service bound the engine guarantees by
/// construction, when the first (underload) point sheds, or when a
/// last point at 2x capacity or more does not shed or is not at or
/// past the knee.
pub fn run_streaming_figs(
    seed: u64,
    scenarios: &[StreamScenario],
    multipliers: &[f64],
    worker_counts: &[usize],
) -> StreamingFigures {
    assert!(!worker_counts.is_empty(), "need at least one worker count");
    let mut curves = Vec::new();
    for scenario in scenarios {
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
            let reports: Vec<_> = worker_counts
                .iter()
                .map(|&workers| {
                    let cfg = StreamConfig {
                        workers,
                        ..base_cfg
                    };
                    try_run_stream(&exp, &flows, &timeline, &cfg, &TelemetryConfig::off())
                        .expect("sweep config matches the world it prepared")
                        .0
                })
                .collect();
            let digests: Vec<u64> = reports.iter().map(|r| r.digest()).collect();
            assert_unanimous(
                format_args!("{} x{multiplier} across workers", scenario.label),
                &digests,
            );
            for r in &reports {
                assert_eq!(
                    r.offered,
                    r.admitted + r.shed(),
                    "{} x{multiplier}: accounting must balance",
                    scenario.label
                );
                // Exact maxima (quantiles are bucket-resolution), each
                // rounded to the ns the histograms record.
                let sojourn_max = r.sojourn_ms.max().unwrap_or(0.0);
                let service_max = r.service_ms.max().unwrap_or(0.0);
                assert!(
                    sojourn_max <= base_cfg.deadline_ms + service_max + 1e-6,
                    "{} x{multiplier}: admitted sojourn {sojourn_max:.3} ms escapes the \
                     deadline+service bound",
                    scenario.label
                );
            }
            let r = &reports[0];
            points.push(StreamPoint {
                multiplier,
                rate_hz,
                offered: r.offered,
                shed_backpressure: r.shed_backpressure,
                shed_deadline: r.shed_deadline,
                degraded_tracing: r.degraded_tracing,
                degraded_retry: r.degraded_retry,
                p50_sojourn_ms: r.sojourn_quantile(0.5).unwrap_or(0.0),
                p99_sojourn_ms: r.sojourn_quantile(0.99).unwrap_or(0.0),
                max_depth: r.max_depth,
                digest: r.digest(),
            });
        }

        let (under, over) = (&points[0], points.last().expect("sweep has points"));
        assert_eq!(
            under.shed(),
            0,
            "{}: the underload point ({:.2}x) must not shed",
            scenario.label,
            under.multiplier
        );
        let knee_multiplier = detect_knee(&points);
        if over.multiplier >= 2.0 {
            assert!(
                over.shed() > 0,
                "{}: must shed explicitly at {:.1}x capacity",
                scenario.label,
                over.multiplier
            );
            // Between a clean underload point and a shedding overload
            // point; on the two-point smoke that is the overload point.
            assert!(
                knee_multiplier.is_some_and(|k| k > under.multiplier && k <= over.multiplier),
                "{}: knee {knee_multiplier:?} must land past the underload point, \
                 at or before the overload point",
                scenario.label
            );
        }
        curves.push(StreamCurve {
            label: scenario.label,
            buildings: exp.map().len(),
            servers: base_cfg.servers,
            queue_capacity: base_cfg.queue_capacity,
            deadline_ms: base_cfg.deadline_ms,
            mean_service_ms,
            capacity_hz,
            knee_multiplier,
            points,
        });
    }
    StreamingFigures { curves }
}

/// One scenario's latency-under-load chart: p50/p99 sojourn and shed
/// fraction (scaled to the same height) vs offered load, with a dashed
/// marker at the detected knee.
pub fn curve_svg(curve: &StreamCurve) -> String {
    let xs: Vec<f64> = curve.points.iter().map(|p| p.multiplier).collect();
    let x_ticks: Vec<String> = xs.iter().map(|m| format!("{m:.2}x")).collect();
    let y1 = curve
        .points
        .iter()
        .map(|p| p.p99_sojourn_ms)
        .fold(1e-3, f64::max);
    let series = |label, color, dash, f: &dyn Fn(&StreamPoint) -> f64| Series {
        label,
        color,
        dash,
        ys: curve.points.iter().map(f).collect(),
    };
    LineChart {
        title: &format!("sojourn under load ({})", curve.label),
        x_label: "offered load (x estimated capacity)",
        y_label: Some("sojourn (ms)"),
        xs: &xs,
        x_ticks: &x_ticks,
        y_ticks: &[(y1, format!("{y1:.0} ms"))],
        series: &[
            series("p50", "#1f77b4", None, &|p| p.p50_sojourn_ms),
            series("p99", "#d62728", None, &|p| p.p99_sojourn_ms),
            series("shed%", "#7f7f7f", Some("2 3"), &|p| p.shed_rate() * y1),
        ],
        marker: curve.knee_multiplier.map(|k| (k, "knee")),
    }
    .render()
}

impl Sweep for StreamingFigures {
    const NAME: &'static str = "streaming";
    const SCALES: &'static [Scale] = &[Scale::Full, Scale::Fast, Scale::Smoke];
    const PINNED: Scale = Scale::Smoke;

    fn run(opts: &SweepOpts) -> Self {
        // Offered load as multiples of the per-scenario estimated
        // capacity; flow counts keep overload points long enough to
        // reach shedding steady state.
        let (multipliers, tiles): (&[f64], _) = match opts.scale {
            Scale::Full => (&[0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0], (2, 2)),
            Scale::Fast => (&[0.25, 0.75, 1.5, 3.0], (2, 2)),
            Scale::Smoke => (&[0.4, 2.5], (1, 1)),
        };
        let scenarios = [
            StreamScenario {
                label: "downtown-flat",
                metro_tiles: None,
                flows: opts.flows_or(4_000, 1_500, 400),
            },
            StreamScenario {
                label: "metro-hier",
                metro_tiles: Some(tiles),
                flows: opts.flows_or(1_500, 800, 300),
            },
        ];
        run_streaming_figs(SEED, &scenarios, multipliers, &opts.worker_counts())
    }

    fn print(&self) {
        println!(
            "== streaming: sojourn, shedding, and the saturation knee under open-loop load =="
        );
        for curve in &self.curves {
            println!(
                "-- {} ({} buildings, {} servers x {} queue, {:.0} ms deadline, \
                 capacity ~{:.0}/s) --\n{}",
                curve.label,
                curve.buildings,
                curve.servers,
                curve.queue_capacity,
                curve.deadline_ms,
                curve.capacity_hz,
                text::columns(
                    &curve.points,
                    &[
                        ("load", &|p| format!("{:.2}x", p.multiplier)),
                        ("rate/s", &|p| format!("{:.0}", p.rate_hz)),
                        ("offered", &|p| p.offered.to_string()),
                        ("shed", &|p| format!("{:.1}%", p.shed_rate() * 100.0)),
                        ("bp/ddl", &|p| format!(
                            "{}/{}",
                            p.shed_backpressure, p.shed_deadline
                        )),
                        ("rung1/2", &|p| format!(
                            "{}/{}",
                            p.degraded_tracing, p.degraded_retry
                        )),
                        ("p50 ms", &|p| format!("{:.2}", p.p50_sojourn_ms)),
                        ("p99 ms", &|p| format!("{:.2}", p.p99_sojourn_ms)),
                        ("depth", &|p| p.max_depth.to_string()),
                        ("digest", &|p| format!("{:016x}", p.digest)),
                    ]
                )
            );
            match curve.knee_multiplier {
                Some(k) => println!("saturation knee at {k:.2}x estimated capacity"),
                None => println!("no saturation knee inside the swept range"),
            }
            write_figure(
                &format!("figures/streaming_{}.svg", curve.label),
                &curve_svg(curve),
            );
        }
        println!(
            "all worker counts agree on every digest; every shed flow is counted, \
             p99 stays inside the deadline+service bound\n"
        );
    }

    /// Each scenario's overload-point digest: the thinned Poisson
    /// arrival stream, server assignment, bounded admission
    /// (backpressure + deadline shedding), both degradation rungs,
    /// planning (flat and hierarchical) and per-flow simulation.
    fn pins(&self) -> Vec<(&'static str, u64)> {
        let overload = |label: &str| {
            let curve = self.curves.iter().find(|c| c.label == label);
            curve.and_then(|c| c.points.last()).map(|p| p.digest)
        };
        [
            ("downtown-flat overload digest", overload("downtown-flat")),
            ("metro-hier overload digest", overload("metro-hier")),
        ]
        .into_iter()
        .filter_map(|(name, digest)| Some((name, digest?)))
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_finds_a_knee_and_draws() {
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
            shed_backpressure: shed,
            shed_deadline: 0,
            degraded_tracing: 0,
            degraded_retry: 0,
            p50_sojourn_ms: p99 / 2.0,
            p99_sojourn_ms: p99,
            max_depth: 0,
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
