//! The run protocol: one workload, one seed, one process.
//!
//! set-up (timed, repeated, median → `setup_s`) → one untimed replay
//! round (warm-up; its per-flow outcomes give the simulated metrics
//! and the signature every later round must reproduce) → timed engine
//! rounds of the **same** flows from the same starting cache state on
//! **one worker** until the budget is spent → one 2-worker round for
//! the determinism check. `--seconds` bounds the whole process.
//!
//! Why one worker: on a 2-vCPU box a 2-worker wall-clock rate halved
//! between two sets of runs of identical code when a neighbour took a
//! core, so no multi-worker wall-clock number is an end-to-end metric.
//! Why the same flows every round: simulated metrics then are a pure
//! function of (workload, seed), and `flows_per_s` varies only with
//! the host.

use std::path::PathBuf;
use std::time::Instant;

use citymesh_core::{plan_route_into, DeliveryScratch, HierPlanScratch, PlanScratch, PlannedFlow};
use citymesh_graph::PlannerScratch;
use citymesh_simcore::{Fnv64, SimRng};
use citymesh_telemetry::TelemetryConfig;

use crate::host;
use crate::json::Value;
use crate::span::{write_spans, Layer, LayerTotals, Span, Tracer};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::workload::{EngineRound, Kind, LayerCounts, Prepared, Replay, Scale};

/// Timed rounds every untraced run makes at least, whatever the
/// budget: `flows_per_s` is their median.
const MIN_TIMED_ROUNDS: usize = 5;
/// Set-ups every run makes at most; it stops earlier once they have
/// used [`SETUP_BUDGET_SHARE`] of the budget.
const MAX_SETUPS: usize = 5;
/// Share of `--seconds` repeated set-ups may use.
const SETUP_BUDGET_SHARE: f64 = 0.15;
/// Every how many flows the telemetry-overhead round traces one.
const TRACE_SAMPLE_EVERY: u64 = 64;

/// What to run.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// The workload.
    pub kind: Kind,
    /// The traffic seed.
    pub seed: u64,
    /// Budget for the whole process, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// Full scale, or the tests' small one.
    pub scale: Scale,
    /// Where the traced run writes its spans and summary (`None`:
    /// nowhere).
    pub out_dir: Option<PathBuf>,
    /// Fault injection for the benchmark's own tests: the replay
    /// simulates this flow with its neighbour's RNG sub-stream, which
    /// the checks must catch.
    pub corrupt_replay_flow: Option<u64>,
}

/// One named correctness check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Check {
    /// What was compared.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, from [`crate::spec`].
    pub name: &'static str,
    /// Value, as measured.
    pub value: f64,
    /// Unit, from [`crate::spec`].
    pub unit: &'static str,
    /// Smallest and largest per-round value, for metrics that are a
    /// median over rounds.
    pub range: Option<(f64, f64)>,
}

/// Everything one run reports.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The options it ran with.
    pub options: RunOptions,
    /// Whether every check held.
    pub correct: bool,
    /// Flows offered in timed and verification rounds.
    pub attempted: u64,
    /// Flows of rounds that broke a check or whose engine call failed.
    pub failed: u64,
    /// The run digest: FNV over the round-0 signature. Bit-identical
    /// between two runs of one (workload, seed), and between any two
    /// commits that claim only a speed-up.
    pub digest: u64,
    /// The five simulated end-to-end metrics of round 0, in
    /// [`END_TO_END`] order (all 0 when nothing was delivered). Traced
    /// or not, they are the same pure function of (workload, seed).
    pub simulated: [f64; 5],
    /// End-to-end metrics (untraced run) or per-layer ones (traced).
    pub metrics: Vec<Metric>,
    /// Every check made.
    pub checks: Vec<Check>,
    /// Timed rounds made.
    pub rounds: usize,
    /// Flows per round.
    pub flows: u64,
    /// Wall time of the whole run, seconds.
    pub wall_s: f64,
}

/// Accumulates checks and the attempted/failed flow counts.
struct Ledger {
    flows: u64,
    attempted: u64,
    failed: u64,
    checks: Vec<Check>,
}

impl Ledger {
    /// Records checks that concern one round of `flows` flows: any
    /// broken one fails the whole round.
    fn round(&mut self, checks: Vec<(String, bool)>) {
        self.attempted += self.flows;
        if checks.iter().any(|(_, ok)| !ok) {
            self.failed += self.flows;
        }
        self.note(checks);
    }

    /// Records checks that concern no round in particular.
    fn note(&mut self, checks: Vec<(String, bool)>) {
        self.checks
            .extend(checks.into_iter().map(|(name, ok)| Check { name, ok }));
    }

    /// An engine round compared against the replay's signature; `Err`
    /// counts all its flows as failed.
    fn engine(
        &mut self,
        label: &str,
        round: Result<EngineRound, String>,
        want: &[u64],
    ) -> Option<EngineRound> {
        match round {
            Ok(r) => {
                self.round(vec![(
                    format!("{label}: engine signature == replay signature"),
                    r.signature == want,
                )]);
                Some(r)
            }
            Err(e) => {
                self.round(vec![(format!("{label}: engine call failed: {e}"), false)]);
                None
            }
        }
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// Tracks the whole-process budget.
struct Budget {
    started: Instant,
    seconds: f64,
}

impl Budget {
    fn spent(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Whether `more` seconds of work still fit.
    fn fits(&self, more: f64) -> bool {
        self.spent() + more <= self.seconds
    }
}

struct SetupStats {
    /// Wall time of each set-up, seconds.
    times: Vec<f64>,
    /// Stage totals over all set-ups.
    stages: LayerTotals,
    /// Spans of the last set-up.
    spans: Vec<Span>,
}

/// Sets the workload up repeatedly (dropping each world before
/// building the next, so peak memory stays that of one) and keeps the
/// last. One set-up time is a single sample of a 5 ms to 0.2 s
/// quantity; the median of several is what `setup_s` reports.
fn setups(opts: &RunOptions, budget: &Budget) -> Result<(Prepared, SetupStats), String> {
    let mut times = Vec::new();
    let mut stages = LayerTotals::default();
    loop {
        let mut tracer = Tracer::on();
        let started = Instant::now();
        let prepared = Prepared::setup(opts.kind, opts.seed, opts.scale, &mut tracer)?;
        let took = started.elapsed().as_secs_f64();
        times.push(took);
        let spans = tracer.take_spans();
        stages.absorb(&spans);
        let used: f64 = times.iter().sum();
        if times.len() >= MAX_SETUPS || used + took > SETUP_BUDGET_SHARE * budget.seconds {
            return Ok((
                prepared,
                SetupStats {
                    times,
                    stages,
                    spans,
                },
            ));
        }
        drop(prepared);
    }
}

/// On the metro workload: flat and hierarchical planners must find
/// routes of equal cost on the sampled pairs (they may differ only
/// where costs tie).
fn hier_matches_flat(prepared: &Prepared) -> Vec<(String, bool)> {
    let world = prepared.world();
    let Some(planner) = world.hier_planner() else {
        return Vec::new();
    };
    let bg = world.building_graph();
    let cost = |route: &[u32]| -> f64 {
        route
            .windows(2)
            .map(|w| {
                bg.graph()
                    .neighbors(w[0])
                    .iter()
                    .find(|e| e.to == w[1])
                    .map_or(f64::INFINITY, |e| e.weight)
            })
            .sum()
    };
    let mut flat_scratch = PlannerScratch::new();
    let mut hier_scratch = HierPlanScratch::new();
    let (mut flat, mut hier) = (Vec::new(), Vec::new());
    let pairs = prepared.sample_pairs();
    let agree = pairs
        .iter()
        .filter(|&&(s, d)| {
            let f = plan_route_into(bg, s, d, &mut flat_scratch, &mut flat);
            let h = planner.plan_route_into(bg, s, d, &mut hier_scratch, &mut hier);
            match (f, h) {
                (Ok(()), Ok(())) => {
                    let (cf, ch) = (cost(&flat), cost(&hier));
                    (cf - ch).abs() <= 1e-9 * cf.max(ch)
                }
                (Err(_), Err(_)) => true,
                _ => false,
            }
        })
        .count();
    vec![(
        format!(
            "hier route cost == flat route cost on {} sampled pairs ({agree} agree)",
            pairs.len()
        ),
        agree == pairs.len(),
    )]
}

/// Checks on the round-0 replay itself.
fn replay_checks(prepared: &Prepared, replay: &Replay) -> Vec<(String, bool)> {
    let mut checks: Vec<(String, bool)> = replay
        .tally
        .identities()
        .into_iter()
        .map(|(name, ok)| (format!("round 0: {name}"), ok))
        .collect();
    checks.push((
        "round 0: offered == flows of the workload".into(),
        replay.tally.offered == prepared.flows(),
    ));
    if prepared.encrypted() {
        checks.push((
            "round 0: cold keys_derived == distinct unordered pairs".into(),
            replay.counts.keys_derived == prepared.distinct_unordered_pairs(),
        ));
    }
    checks
}

fn run_digest(signature: &[u64]) -> u64 {
    let mut h = Fnv64::new();
    for &v in signature {
        h.mix(v);
    }
    h.value()
}

/// Runs one workload under `opts`; `started` is when the process
/// began, so that the budget covers all of it.
pub fn run(opts: &RunOptions, started: Instant) -> Result<RunResult, String> {
    let budget = Budget {
        started,
        seconds: opts.seconds,
    };
    let (mut prepared, setup) = setups(opts, &budget)?;
    let mut ledger = Ledger {
        flows: prepared.flows(),
        attempted: 0,
        failed: 0,
        checks: Vec::new(),
    };

    // Round 0: the untimed replay. Warms caches, allocator and CPU,
    // and yields the per-flow sample and the signature.
    let round0 = prepared.replay(&mut Tracer::off(), opts.corrupt_replay_flow);
    ledger.round(replay_checks(&prepared, &round0));
    ledger.note(hier_matches_flat(&prepared));
    let simulated = round0.tally.sim_metrics();
    ledger.note(vec![(
        "round 0: something was routed, simulated and delivered".into(),
        simulated.is_some(),
    )]);
    let simulated = simulated.unwrap_or([0.0; 5]);

    let (metrics, rounds) = if opts.trace {
        traced(opts, &budget, &mut prepared, &setup, &round0, &mut ledger)
    } else {
        untraced(&budget, &prepared, &setup, &round0, simulated, &mut ledger)
    };

    Ok(RunResult {
        options: opts.clone(),
        correct: ledger.correct(),
        attempted: ledger.attempted,
        failed: ledger.failed,
        digest: run_digest(&round0.signature),
        simulated,
        metrics,
        checks: ledger.checks,
        rounds,
        flows: prepared.flows(),
        wall_s: budget.spent(),
    })
}

/// The end-to-end run: timed 1-worker engine rounds, then one
/// 2-worker round whose signature must equal the 1-worker one.
fn untraced(
    budget: &Budget,
    prepared: &Prepared,
    setup: &SetupStats,
    round0: &Replay,
    sim: [f64; 5],
    ledger: &mut Ledger,
) -> (Vec<Metric>, usize) {
    let off = TelemetryConfig::off();
    let mut walls: Vec<f64> = Vec::new();
    // Stop while one more timed round and the 2-worker round (about a
    // round long when cores are short) still fit.
    let mut estimate = round0.wall_s;
    let mut cold_sessions_ok = true;
    while walls.len() < MIN_TIMED_ROUNDS || budget.fits(2.0 * estimate) {
        let misses0 = prepared.session_misses();
        let label = format!("round {}", walls.len() + 1);
        let Some(r) = ledger.engine(&label, prepared.engine_round(1, &off), &round0.signature)
        else {
            break;
        };
        if prepared.encrypted() {
            cold_sessions_ok &=
                prepared.session_misses() - misses0 == prepared.distinct_unordered_pairs();
        }
        estimate = r.wall_s;
        walls.push(r.wall_s);
    }
    if prepared.encrypted() {
        ledger.note(vec![(
            "every timed round derived one key per distinct unordered pair".into(),
            cold_sessions_ok,
        )]);
    }
    // Read before the 2-worker round: worker threads get allocator
    // arenas of their own, whose size depends on scheduling.
    let peak_rss_mib = host::peak_rss_mib().unwrap_or(0.0);
    ledger.engine(
        "2-worker round",
        prepared.engine_round(2, &off),
        &round0.signature,
    );

    let flows = prepared.flows() as f64;
    let rate = |wall: f64| flows / wall;
    let fastest = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let slowest = walls.iter().copied().fold(0.0, f64::max);
    let setup_min = setup.times.iter().copied().fold(f64::INFINITY, f64::min);
    let setup_max = setup.times.iter().copied().fold(0.0, f64::max);
    let host = [
        (
            median(&walls).map_or(0.0, rate),
            Some((rate(slowest), rate(fastest))),
        ),
        (
            median(&setup.times).unwrap_or(0.0),
            Some((setup_min, setup_max)),
        ),
        (peak_rss_mib, None),
    ];
    let values = host.into_iter().chain(sim.into_iter().map(|v| (v, None)));
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(spec, (value, range))| Metric {
            name: spec.name,
            value,
            unit: spec.unit,
            range,
        })
        .collect();
    (metrics, walls.len())
}

/// Runs `f` on this thread and adds its wall and CPU time to `busy`.
fn busy<R>(busy: &mut (f64, f64), f: impl FnOnce() -> R) -> R {
    let cpu0 = host::thread_cpu_ns();
    let started = Instant::now();
    let out = f();
    let wall = started.elapsed().as_secs_f64();
    if let (Some(a), Some(b)) = (cpu0, host::thread_cpu_ns()) {
        busy.0 += wall;
        busy.1 += (b - a) as f64 / 1e9;
    }
    out
}

/// Probes of the secure plane the replay's spans cannot separate:
/// session derivation against a cold cache, the same lookups against
/// the warmed cache, and seal/open as the difference between the
/// secure and the plaintext simulation of one flow on warm keys.
/// Returns `(session_miss_us, session_hit_ns, seal_open_us)`.
fn secure_probes(prepared: &Prepared, ledger: &mut Ledger) -> (f64, f64, f64) {
    let world = prepared.world();
    let Some(secure) = world.secure_state() else {
        return (0.0, 0.0, 0.0);
    };
    let pairs = prepared.sample_pairs();
    secure.clear_sessions();
    let started = Instant::now();
    let derived = pairs
        .iter()
        .filter(|&&(s, d)| secure.session(s, d).1)
        .count();
    let miss_us = started.elapsed().as_secs_f64() * 1e6 / derived.max(1) as f64;
    let started = Instant::now();
    let rederived = pairs
        .iter()
        .filter(|&&(s, d)| secure.session(s, d).1)
        .count();
    let hit_ns = started.elapsed().as_secs_f64() * 1e9 / pairs.len().max(1) as f64;
    ledger.note(vec![(
        "warm session cache derives no key".into(),
        rederived == 0 && derived > 0,
    )]);

    let mut plan_scratch = PlanScratch::new();
    let mut scratch = DeliveryScratch::new();
    let mut plan = PlannedFlow::empty(0, 0);
    let (mut secure_s, mut plain_s) = (0.0, 0.0);
    for (i, &(s, d)) in pairs.iter().enumerate() {
        world.plan_flow_into(s, d, &mut plan_scratch, &mut plan);
        let msg_id = i as u64;
        let mut rng = SimRng::new(msg_id);
        let started = Instant::now();
        let a = world.simulate_flow_secure_with(&plan, msg_id, &mut rng, &mut scratch);
        secure_s += started.elapsed().as_secs_f64();
        let mut rng = SimRng::new(msg_id);
        let started = Instant::now();
        let b = world.simulate_flow_with(&plan, msg_id, &mut rng, &mut scratch);
        plain_s += started.elapsed().as_secs_f64();
        std::hint::black_box((a, b));
    }
    let seal_open_us = (secure_s - plain_s) * 1e6 / pairs.len().max(1) as f64;
    (miss_us, hit_ns, seal_open_us)
}

/// Mean time of `plan_flow_into` (the flat planner) on the sampled
/// metro pairs, µs — the base of the hier/flat ratio. 0 off the metro.
fn flat_metro_us(prepared: &Prepared) -> f64 {
    if prepared.world().hier_planner().is_none() {
        return 0.0;
    }
    let pairs = prepared.sample_pairs();
    let mut scratch = PlanScratch::new();
    let mut plan = PlannedFlow::empty(0, 0);
    let started = Instant::now();
    for &(s, d) in &pairs {
        prepared
            .world()
            .plan_flow_into(s, d, &mut scratch, &mut plan);
        std::hint::black_box(&plan);
    }
    started.elapsed().as_secs_f64() * 1e6 / pairs.len().max(1) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The traced run: replay rounds with a span around every layer call,
/// untraced replay rounds for the tracing cost, engine rounds for the
/// engines' own overhead and the telemetry contract.
fn traced(
    opts: &RunOptions,
    budget: &Budget,
    prepared: &mut Prepared,
    setup: &SetupStats,
    round0: &Replay,
    ledger: &mut Ledger,
) -> (Vec<Metric>, usize) {
    let off = TelemetryConfig::off();
    let mut cpu = (0.0, 0.0);

    // Traced replay rounds: at least two (their spans are written
    // out), more while they fit in the first 40 % of the budget.
    let mut totals = LayerTotals::default();
    let mut kept: Vec<Vec<Span>> = Vec::new();
    let mut traced_walls = Vec::new();
    let mut counts = LayerCounts::default();
    let mut tally = round0.tally.clone();
    while traced_walls.len() < 2 || budget.spent() + round0.wall_s < 0.4 * budget.seconds {
        let mut tracer = Tracer::on();
        let r = busy(&mut cpu, || {
            prepared.replay(&mut tracer, opts.corrupt_replay_flow)
        });
        ledger.round(vec![(
            format!(
                "traced round {}: signature == round 0",
                traced_walls.len() + 1
            ),
            r.signature == round0.signature,
        )]);
        let spans = tracer.take_spans();
        totals.absorb(&spans);
        if kept.len() < 2 {
            kept.push(spans);
        }
        traced_walls.push(r.wall_s);
        counts = r.counts;
        tally = r.tally;
    }
    let rounds = traced_walls.len() as f64;

    // The same rounds with the tracer off: the difference is the
    // tracing cost.
    let mut plain_walls = Vec::new();
    while plain_walls.is_empty() || (plain_walls.len() < 2 && budget.fits(8.0 * round0.wall_s)) {
        let r = busy(&mut cpu, || {
            prepared.replay(&mut Tracer::off(), opts.corrupt_replay_flow)
        });
        ledger.round(vec![(
            format!(
                "untraced replay {}: signature == round 0",
                plain_walls.len() + 1
            ),
            r.signature == round0.signature,
        )]);
        plain_walls.push(r.wall_s);
    }
    let plain_wall = median(&plain_walls).unwrap_or(0.0);

    // Engine rounds: telemetry off (the engine's own overhead over
    // the replay), metrics on, tracing on, two workers.
    let mut engine_walls = Vec::new();
    while engine_walls.is_empty() || (engine_walls.len() < 2 && budget.fits(6.0 * round0.wall_s)) {
        let label = format!("engine round {}", engine_walls.len() + 1);
        let round = busy(&mut cpu, || prepared.engine_round(1, &off));
        match ledger.engine(&label, round, &round0.signature) {
            Some(r) => engine_walls.push(r.wall_s),
            None => break,
        }
    }
    let engine_wall = median(&engine_walls).unwrap_or(0.0);
    let mut engine_with = |label: &str, workers: usize, tel: TelemetryConfig| {
        let round = if workers == 1 {
            busy(&mut cpu, || prepared.engine_round(workers, &tel))
        } else {
            prepared.engine_round(workers, &tel)
        };
        ledger
            .engine(label, round, &round0.signature)
            .map_or(0.0, |r| r.wall_s)
    };
    let metrics_wall = engine_with("metrics-on round", 1, TelemetryConfig::metrics_only());
    let trace_wall = engine_with(
        "tracing-on round",
        1,
        TelemetryConfig::full(TRACE_SAMPLE_EVERY),
    );
    let par_wall = engine_with("2-worker round", 2, off);

    let (session_miss_us, session_hit_ns, seal_open_us) = secure_probes(prepared, ledger);
    let flat_metro = flat_metro_us(prepared);

    let flows = prepared.flows() as f64;
    let stage_ms = |layer: Layer| setup.stages.get(layer).mean_ns() / 1e6;
    let mean_ns = |layer: Layer| totals.get(layer).mean_ns();
    let plans = [totals.get(Layer::PlanFlat), totals.get(Layer::PlanHier)];
    let plan_calls = plans[0].calls + plans[1].calls;
    let overhead_us = (engine_wall - plain_wall) * 1e6 / flows;
    let engine_is = |kinds: &[Kind]| {
        if kinds.contains(&opts.kind) {
            overhead_us
        } else {
            0.0
        }
    };
    let proven = host::available_parallelism() >= 2;
    let shed = tally.shed_backpressure + tally.shed_deadline;
    let value = |name: &str| -> f64 {
        match name {
            "map.generate_ms" => stage_ms(Layer::MapGenerate),
            "core.prepare_ms" => stage_ms(Layer::CorePrepare),
            "graph.hier.build_ms" => stage_ms(Layer::HierBuild),
            "core.secure.registry_ms" => stage_ms(Layer::SecureRegistry),
            "fleet.workload.generate_ms" => stage_ms(Layer::WorkloadGenerate),
            "dynamics.timeline.materialize_ms" => stage_ms(Layer::TimelineMaterialize),
            "stream.capacity_probe_ms" => stage_ms(Layer::CapacityProbe),
            "fleet.cache.lookup_ns" => mean_ns(Layer::Cache),
            "fleet.cache.hit_share" => ratio(
                counts.cache_hits as f64,
                (counts.cache_hits + counts.cache_misses) as f64,
            ),
            "fleet.cache.entries" => counts.cache_entries as f64,
            "fleet.cache.evict_us" => mean_ns(Layer::Evict) / 1e3,
            "fleet.cache.evicted" => counts.evicted as f64,
            "core.plan.flat_us" => mean_ns(Layer::PlanFlat) / 1e3,
            "core.plan.hier_us" => mean_ns(Layer::PlanHier) / 1e3,
            "core.plan.flat_metro_us" => flat_metro,
            "graph.hier.overlay_settled_mean" => ratio(
                counts.hier.overlay_settled as f64,
                counts.hier.queries as f64,
            ),
            "graph.hier.expansions_mean" => {
                ratio(counts.hier.expansions as f64, counts.hier.queries as f64)
            }
            "core.plan.allocs_per_miss" => ratio(
                (plans[0].self_allocs + plans[1].self_allocs) as f64,
                plan_calls as f64,
            ),
            "core.sim.allocs_per_flow" => totals.get(Layer::Sim).mean_allocs(),
            "core.sim.flow_us" => mean_ns(Layer::Sim) / 1e3,
            "core.sim.broadcast_ns" => ratio(
                totals.get(Layer::Sim).self_ns as f64,
                tally.broadcasts as f64 * rounds,
            ),
            "core.sim.attempts_mean" => ratio(tally.attempts as f64, tally.simulated as f64),
            "core.sim.recovered_share" => ratio(tally.recovered as f64, tally.retried as f64),
            "core.secure.session_miss_us" => session_miss_us,
            "core.secure.session_hit_ns" => session_hit_ns,
            "core.secure.seal_open_us" => seal_open_us,
            "core.secure.keys_derived" => counts.keys_derived as f64,
            "fleet.report.absorb_ns" => mean_ns(Layer::Absorb),
            "fleet.engine.overhead_us" => {
                engine_is(&[Kind::FleetHot, Kind::SecureCold, Kind::MetroHier])
            }
            "fleet.engine.par2_speedup" if proven => ratio(engine_wall, par_wall),
            "fleet.engine.par2_speedup" => 0.0,
            "stream.queue.offer_ns" => mean_ns(Layer::QueueOffer),
            "stream.queue.commit_ns" => mean_ns(Layer::QueueCommit),
            "stream.queue.shed_share" => ratio(shed as f64, tally.offered as f64),
            "stream.queue.shed_deadline_share" => {
                ratio(tally.shed_deadline as f64, tally.offered as f64)
            }
            "stream.queue.emergency_shed_share" => ratio(
                counts.shed_emergency as f64,
                counts.offered_emergency as f64,
            ),
            "stream.queue.max_depth" => counts.max_depth as f64,
            "stream.degraded_retry_share" => {
                ratio(counts.degraded_retry as f64, tally.admitted as f64)
            }
            "stream.degraded_tracing_share" => {
                ratio(counts.degraded_tracing as f64, tally.admitted as f64)
            }
            "stream.engine.overhead_us" => engine_is(&[Kind::StreamSurge]),
            "dynamics.event_apply_us" => mean_ns(Layer::EventApply) / 1e3,
            "dynamics.routes_replanned" if opts.kind == Kind::ChurnLadder => {
                counts.cache_misses as f64
            }
            "dynamics.routes_replanned" => 0.0,
            "dynamics.engine.overhead_us" => engine_is(&[Kind::ChurnLadder]),
            "telemetry.metrics_overhead_ratio" => ratio(metrics_wall, engine_wall),
            "telemetry.trace_overhead_ratio" => ratio(trace_wall, engine_wall),
            "bench.span_overhead_ratio" => ratio(median(&traced_walls).unwrap_or(0.0), plain_wall),
            "bench.cpu_busy_share" => ratio(cpu.1, cpu.0),
            "bench.replay_flows_per_s" => ratio(flows, plain_wall),
            other => unreachable!("per-layer metric {other} has no definition"),
        }
    };
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|spec| Metric {
            name: spec.name,
            value: value(spec.name),
            unit: spec.unit,
            range: None,
        })
        .collect();

    if let Some(dir) = &opts.out_dir {
        let stem = format!("{}.seed{}", opts.kind.name(), opts.seed);
        let written = write_trace_files(dir, &stem, &setup.spans, &kept);
        if let Err(e) = written {
            eprintln!(
                "citymesh-perf: could not write spans under {}: {e}",
                dir.display()
            );
        }
    }
    (metrics, traced_walls.len())
}

fn write_trace_files(
    dir: &std::path::Path,
    stem: &str,
    setup: &[Span],
    rounds: &[Vec<Span>],
) -> std::io::Result<()> {
    use std::io::Write;
    std::fs::create_dir_all(dir)?;
    let titles: Vec<String> = (1..=rounds.len()).map(|i| format!("replay {i}")).collect();
    let mut titled: Vec<(&str, &[Span])> = vec![("set-up", setup)];
    titled.extend(
        titles
            .iter()
            .map(String::as_str)
            .zip(rounds.iter().map(Vec::as_slice)),
    );
    let mut out =
        std::io::BufWriter::new(std::fs::File::create(dir.join(format!("{stem}.spans")))?);
    write_spans(&mut out, &titled)?;
    out.flush()
}

impl RunResult {
    /// The metrics as a JSON object keyed by name; `ranges` adds the
    /// per-round `min` / `max` where a metric has them.
    fn metrics_json(&self, ranges: bool) -> Value {
        let metric = |m: &Metric| {
            let mut fields = vec![
                ("value".into(), Value::Num(m.value)),
                ("unit".into(), Value::Str(m.unit.into())),
            ];
            if let (true, Some((min, max))) = (ranges, m.range) {
                fields.push(("min".into(), Value::Num(min)));
                fields.push(("max".into(), Value::Num(max)));
            }
            (m.name.to_owned(), Value::Obj(fields))
        };
        Value::Obj(self.metrics.iter().map(metric).collect())
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn contract_json(&self) -> Value {
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::Int(self.attempted as i64)),
            ("failed".into(), Value::Int(self.failed as i64)),
            ("metrics".into(), self.metrics_json(false)),
        ])
    }

    /// The full result row `run --seeds` collects and `agree` reads:
    /// the contract's fields plus workload, seed, digest, per-round
    /// ranges, the checks and the machine note.
    pub fn row_json(&self) -> Value {
        let checks = self
            .checks
            .iter()
            .map(|c| {
                Value::Obj(vec![
                    ("name".into(), Value::Str(c.name.clone())),
                    ("ok".into(), Value::Bool(c.ok)),
                ])
            })
            .collect();
        let o = &self.options;
        Value::Obj(vec![
            ("workload".into(), Value::Str(o.kind.name().into())),
            ("seed".into(), Value::Int(o.seed as i64)),
            ("trace".into(), Value::Bool(o.trace)),
            ("seconds".into(), Value::Num(o.seconds)),
            ("rounds".into(), Value::Int(self.rounds as i64)),
            ("flows".into(), Value::Int(self.flows as i64)),
            ("digest".into(), Value::Str(format!("{:016x}", self.digest))),
            ("wall_s".into(), Value::Num(self.wall_s)),
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::Int(self.attempted as i64)),
            ("failed".into(), Value::Int(self.failed as i64)),
            ("machine".into(), host::machine_note()),
            ("metrics".into(), self.metrics_json(true)),
            ("checks".into(), Value::Arr(checks)),
        ])
    }

    /// One line per metric, by name with its unit, then the checks
    /// that failed — what a person reads.
    pub fn human(&self) -> String {
        let o = &self.options;
        let mut out = format!(
            "citymesh-perf {} seed {} trace {} - {} flows/round, {} rounds, {:.2} s, digest {:016x}\n",
            o.kind.name(),
            o.seed,
            u8::from(o.trace),
            self.flows,
            self.rounds,
            self.wall_s,
            self.digest
        );
        for m in &self.metrics {
            let unproven =
                m.name == "fleet.engine.par2_speedup" && host::available_parallelism() < 2;
            if unproven {
                out.push_str(&format!("  {:<36} unproven (one CPU available)\n", m.name));
                continue;
            }
            out.push_str(&format!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit));
            if let Some((min, max)) = m.range {
                out.push_str(&format!("   (rounds: min {min:.6}, max {max:.6})"));
            }
            out.push('\n');
        }
        let broken: Vec<&Check> = self.checks.iter().filter(|c| !c.ok).collect();
        out.push_str(&format!(
            "  checks: {} made, {} failed; attempted {} flows, failed {}\n",
            self.checks.len(),
            broken.len(),
            self.attempted,
            self.failed
        ));
        for c in broken {
            out.push_str(&format!("  FAILED: {}\n", c.name));
        }
        out
    }
}
