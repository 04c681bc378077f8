//! Telemetry sweep (`figures -- telemetry`).
//!
//! The observability layer's contract is "measure everything, perturb
//! nothing", and this sweep is where that contract is demonstrated on
//! real workloads rather than unit fixtures. Two phases:
//!
//! 1. **Healthy**: the fleet sweep's workload (downtown hotspot) runs
//!    once plain and once fully traced; the aggregate digests must be
//!    bit-identical. At the pinned `(seed, flows)` this digest is the
//!    golden 500-flow fleet digest, so the check proves tracing cannot
//!    move a pinned result.
//! 2. **Faulted**: the same workload against a 25% i.i.d. AP-casualty
//!    scenario with the retry ladder on, traced at every worker count.
//!    Digests, metric fingerprints, and postmortem sets must agree
//!    across worker counts and with the untraced faulted run.
//!
//! The per-rung latency/overhead breakdown — what each extra ladder
//! rung buys and what it costs — is printed as a table; one captured
//! flow trace is exported as `figures/postmortem_sample.json`.

use citymesh_core::{FaultScenario, RetryPolicy};
use citymesh_fleet::{generate_flows, try_run_fleet_traced, WorkloadConfig};
use citymesh_map::CityArchetype;
use citymesh_telemetry::{metrics as tm, Postmortem, RecoveryStage, TelemetryConfig, TraceEvent};

use crate::fleet_figs::HOTSPOT_WORKLOAD;
use crate::sweep::{fleet_config, prepare, run_fleet, write_figure, Scale, Sweep, SweepOpts, SEED};
use crate::text;

/// Trace sampling period used by the sweep: every 16th flow plus every
/// failure/retry. Dense enough that the healthy phase exercises the
/// ring on ordinary flows, sparse enough that capture stays far from
/// dominating a 500-flow run.
pub const SAMPLE_EVERY: u64 = 16;

/// Per-rung delivery statistics from the faulted run's report.
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
    /// Generated city name.
    pub city: String,
    /// Building count.
    pub buildings: usize,
    /// Flows in the workload.
    pub flows: usize,
    /// Worker counts the faulted phase was traced at.
    pub worker_counts: Vec<usize>,
    /// Healthy-phase digest, identical plain vs traced (the golden
    /// 500-flow fleet digest at the pinned seed and flow count).
    pub healthy_digest: u64,
    /// Configured i.i.d. AP-failure probability of the faulted phase.
    pub failure_p: f64,
    /// Faulted-phase digest, identical across worker counts and
    /// identical plain vs traced.
    pub faulted_digest: u64,
    /// Fingerprint of the merged metric registry (faulted run),
    /// identical across worker counts.
    pub metrics_fingerprint: u64,
    /// The faulted run's counter table: its outcome counts from the
    /// report, then the registry's attempt and trace counters.
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
    pub sample_postmortem: String,
}

/// Runs the sweep at one `(seed, flows, failure_p)` point.
///
/// # Panics
/// Panics if telemetry breaks any determinism invariant: the traced
/// healthy digest diverging from the plain one, traced faulted runs
/// disagreeing with each other or with the untraced faulted run
/// across `worker_counts`, or metric fingerprints / postmortem sets
/// varying with worker count; or if the report's rungs do not
/// partition its deliveries, at any worker count; or if the run
/// captured no complete failure/recovery trace to export. A
/// benchmark that measures a perturbed system must not report at all.
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
    // The fleet sweep's own workload: at (seed 2024, 500 flows) the
    // healthy digest below is the goldens table's fleet row.
    let model = HOTSPOT_WORKLOAD;
    let workload = generate_flows(buildings, &WorkloadConfig { flows, model, seed });
    let tel = TelemetryConfig::full(SAMPLE_EVERY);

    // Phase 1 — healthy: tracing on vs off, same digest.
    let exp = prepare(map, seed, None);
    let base_cfg = fleet_config(seed, worker_counts[0]);
    let plain = run_fleet(&exp, &workload, &base_cfg);
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
    let fexp = prepare(
        CityArchetype::SurveyDowntown.generate(seed),
        seed,
        Some(scenario),
    );
    let plain_faulted = run_fleet(&fexp, &workload, &base_cfg);
    let mut runs: Vec<_> = worker_counts
        .iter()
        .map(|&workers| {
            let cfg = fleet_config(seed, workers);
            let (report, telem) = try_run_fleet_traced(&fexp, &workload, &cfg, &tel)
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
            report.rungs.iter().map(|r| r.delivered).sum::<u64>(),
            report.delivered,
            "the rungs must partition the deliveries at {workers} workers"
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
    assert_eq!(report.flows, flows as u64, "every flow is counted once");
    assert_eq!(
        m.counter(tm::POSTMORTEMS),
        telem.postmortems.len() as u64,
        "postmortem counter matches captured traces"
    );

    let counters = vec![
        ("flows_total", report.flows),
        ("delivered_total", report.delivered),
        ("failed_total", report.flows - report.delivered),
        ("retried_total", report.retried),
        ("recovered_total", report.recovered),
        ("attempts_total", m.counter(tm::ATTEMPTS)),
        ("broadcasts_total", m.counter(tm::BROADCASTS)),
        ("exhausted_total", report.exhausted()),
        ("unroutable_total", report.unroutable()),
        ("postmortems_total", m.counter(tm::POSTMORTEMS)),
        ("trace_dropped_total", m.counter(tm::TRACE_DROPPED)),
    ];
    let rungs: Vec<RungStats> = RecoveryStage::ALL
        .iter()
        .map(|&stage| {
            let rung = report.rung_report(stage);
            RungStats {
                rung: stage.label(),
                deliveries: rung.delivered,
                latency_ms_p50: rung.latency_ms.quantile(0.5),
                latency_ms_p90: rung.latency_ms.quantile(0.9),
                mean_overhead: rung.overhead.mean(),
            }
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
    let sample = pick(&|p| !p.summary.delivered && p.summary.attempts > 0)
        .or_else(|| pick(&|p| p.summary.recovered_by.is_some()))
        .expect("a casualty run captures a failure or a recovery");
    let outcome = sample.summary.outcome_label();
    assert!(
        outcome == "exhausted" || outcome.starts_with("recovered-"),
        "sample must be a failure/recovery trace, got {outcome:?}"
    );
    assert_eq!(sample.dropped_events, 0, "sample trace must be complete");
    assert!(
        sample
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::Attempt { .. })),
        "postmortem must name its retry-ladder attempts"
    );

    TelemetryFigures {
        city,
        buildings,
        flows,
        worker_counts: worker_counts.to_vec(),
        healthy_digest,
        failure_p,
        faulted_digest: report.digest(),
        metrics_fingerprint: m.fingerprint(),
        counters,
        rungs,
        postmortems: telem.postmortems.len(),
        trace_dropped: m.counter(tm::TRACE_DROPPED),
        ring_high_water: m.gauge(tm::TRACE_HIGH_WATER),
        sample_postmortem: sample.to_json(),
    }
}

impl Sweep for TelemetryFigures {
    const NAME: &'static str = "telemetry";
    const SCALES: &'static [Scale] = &[Scale::Full, Scale::Fast];
    const PINNED: Scale = Scale::Full;

    fn run(opts: &SweepOpts) -> Self {
        let flows = opts.flows_or(500, 150, 150);
        run_telemetry(SEED, flows, 0.25, &opts.worker_counts())
    }

    fn print(&self) {
        println!(
            "== telemetry: zero-perturbation proof + per-rung breakdown ({}, {} buildings) ==",
            self.city, self.buildings
        );
        println!(
            "healthy digest {:016x} — identical with tracing off and on",
            self.healthy_digest
        );
        println!(
            "faulted digest {:016x} (p={:.2}) — identical across workers {:?}, \
             traced and untraced; metric fingerprint {:016x}",
            self.faulted_digest, self.failure_p, self.worker_counts, self.metrics_fingerprint
        );
        let opt = |v: Option<f64>, unit: &str| {
            v.map(|x| format!("{x:.1}{unit}"))
                .unwrap_or_else(|| "-".into())
        };
        println!(
            "{}",
            text::columns(
                &self.rungs,
                &[
                    ("rung", &|r| r.rung.to_string()),
                    ("deliveries", &|r| r.deliveries.to_string()),
                    ("lat p50", &|r| opt(r.latency_ms_p50, " ms")),
                    ("lat p90", &|r| opt(r.latency_ms_p90, " ms")),
                    ("overhead", &|r| opt(r.mean_overhead, "x")),
                ]
            )
        );
        println!(
            "{}",
            text::columns(
                &self.counters,
                &[
                    ("counter", &|c| c.0.to_string()),
                    ("value", &|c| c.1.to_string()),
                ]
            )
        );
        println!(
            "{} postmortems captured ({} ring evictions, high water {})",
            self.postmortems, self.trace_dropped, self.ring_high_water
        );
        write_figure("figures/postmortem_sample.json", &self.sample_postmortem);
    }

    /// The healthy phase is the fleet sweep's 500-flow workload run
    /// fully traced: observability may not move that pin by one bit.
    fn pins(&self) -> Vec<(&'static str, u64)> {
        vec![("traced 500-flow digest", self.healthy_digest)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_invariant_and_exports_a_sample() {
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
        let sample = &figs.sample_postmortem;
        assert!(sample.contains("\"outcome\":\""));
        assert!(sample.contains("\"events\":["));
    }
}
