//! The parallel flow-execution engine.
//!
//! [`run_fleet`] drives a generated workload through a prepared
//! [`CityExperiment`] on a pool of worker threads and aggregates the
//! outcomes into a [`FleetReport`]. The headline property is
//! **schedule-independent determinism**: for a fixed world and root
//! seed, the aggregate report (histograms, counters, digest) is
//! byte-identical whether the flows run on 1 worker or 8, in any
//! interleaving. Three mechanisms deliver it:
//!
//! 1. every flow's stochastic choices come from its own RNG
//!    sub-stream, `substream_seed(seed, DOMAIN_SIM, flow.id)` — no
//!    shared RNG state to race on;
//! 2. route planning is RNG-free and memoized in a shared
//!    [`RouteCache`]; racing planners compute identical values, so
//!    insertion order cannot matter;
//! 3. workers only *record* `(flow id, outcome)`; aggregation happens
//!    after the pool joins, folding outcomes in ascending flow-id
//!    order so floating-point sums see one canonical operand order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use citymesh_core::{CityExperiment, DeliveryScratch, PairOutcome, PlanScratch, PlannedFlow};
use citymesh_simcore::stats::Histogram;
use citymesh_simcore::{substream_seed, Fnv64, SimRng};
use citymesh_telemetry::{metrics as tm, MetricSet, Postmortem, Rung, TelemetryConfig};

use crate::cache::RouteCache;
use crate::workload::{FlowKind, FlowSpec};

/// Sub-stream domain for per-flow delivery simulation randomness.
/// Public so engines layered on top (the churn engine's
/// reactive-repair strategy, the zero-alloc guard tests) replay the
/// exact per-flow streams this engine uses.
pub const DOMAIN_SIM: u64 = 0x51D3;
/// Sub-stream domain for per-flow message ids (public for the same
/// reason as [`DOMAIN_SIM`]).
pub const DOMAIN_MSG: u64 = 0x3564;

/// How many flows a worker claims per counter increment. Large enough
/// to amortize the atomic, small enough to balance tail stragglers.
const CLAIM_CHUNK: usize = 32;

/// Engine parameters.
#[derive(Clone, Copy, Debug, Default)]
pub struct FleetConfig {
    /// Worker threads. `0` means one per available CPU.
    pub workers: usize,
    /// Root seed for all simulation sub-streams (typically the same
    /// seed the workload was generated from).
    pub seed: u64,
    /// Plan cache misses with the district-overlay hierarchical
    /// planner ([`CityExperiment::plan_flow_hier_into`]) instead of
    /// the flat ALT/A* path. Requires `CityExperiment::enable_hier`
    /// to have run on the experiment. Route-cache keys are unchanged
    /// (`(src, dst)`), and because hierarchical routes are
    /// cost-optimal with the same canonical tie-break, reports and
    /// digests are expected to match the flat planner's bit for bit
    /// whenever route costs are untied. Defaults to `false`.
    pub use_hier_planner: bool,
    /// Run every flow through the secure message plane: payloads are
    /// sealed with the per-pair session key (ChaCha20-Poly1305 +
    /// HMAC-authenticated header) before the delivery simulation and
    /// opened by the receiver afterwards. Requires
    /// `CityExperiment::enable_encryption` to have run on the
    /// experiment. Delivery outcomes (and therefore the plaintext
    /// digest fields) are unchanged — encryption adds work, not
    /// randomness — but the report's sealed/opened counters join the
    /// digest once nonzero. Defaults to `false`.
    pub encrypted: bool,
}

impl FleetConfig {
    /// The effective worker count (resolves `0` to the CPU count).
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Checks this config against the experiment it is about to run
    /// on. The `try_run_fleet*` entry points call this; the panicking
    /// entry points panic with the same error's message.
    pub fn validate(&self, exp: &CityExperiment) -> Result<(), FleetError> {
        if self.use_hier_planner && exp.hier_planner().is_none() {
            return Err(FleetError::HierPlannerNotEnabled);
        }
        if self.encrypted && exp.secure_state().is_none() {
            return Err(FleetError::EncryptionNotEnabled);
        }
        Ok(())
    }
}

/// A rejected fleet configuration: the engine refuses to start rather
/// than panicking mid-run deep inside a worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FleetError {
    /// [`FleetConfig::use_hier_planner`] was set but
    /// [`CityExperiment::enable_hier`] never ran on the experiment, so
    /// there is no district overlay to query.
    HierPlannerNotEnabled,
    /// [`FleetConfig::encrypted`] was set but
    /// `CityExperiment::enable_encryption` never ran on the experiment,
    /// so there is no key registry or session cache to seal with.
    EncryptionNotEnabled,
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::HierPlannerNotEnabled => write!(
                f,
                "FleetConfig::use_hier_planner requires CityExperiment::enable_hier \
                 to have run on the experiment"
            ),
            FleetError::EncryptionNotEnabled => write!(
                f,
                "FleetConfig::encrypted requires CityExperiment::enable_encryption \
                 to have run on the experiment"
            ),
        }
    }
}

impl std::error::Error for FleetError {}

/// Aggregated results of one fleet run.
///
/// Everything except the wall-clock fields ([`elapsed_secs`] and the
/// cache counters, which depend on scheduling) is deterministic in
/// `(world, workload, seed)` and covered by [`digest`].
///
/// **Conditional digest mixing for retry statistics.** The three
/// retry fields ([`retried`], [`recovered`], [`retry_attempts`]) join
/// the digest **only when `retried > 0`** — i.e. only on runs where
/// the recovery ladder actually fired. Fault-free runs never retry,
/// so their digests are computed exactly as before the retry fields
/// existed, which keeps golden digests pinned prior to fault
/// injection (the CI 500-flow pin among them) valid forever. The
/// corollary: on a fault-free run, mutating the retry fields does not
/// perturb the digest (see `fault_free_digest_ignores_retry_fields`).
///
/// [`elapsed_secs`]: FleetReport::elapsed_secs
/// [`digest`]: FleetReport::digest
/// [`retried`]: FleetReport::retried
/// [`recovered`]: FleetReport::recovered
/// [`retry_attempts`]: FleetReport::retry_attempts
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Flows executed.
    pub flows: u64,
    /// Flows whose endpoints are reachable through the AP graph.
    pub reachable: u64,
    /// Flows for which the building graph produced a route.
    pub route_found: u64,
    /// Flows whose packet the event simulation delivered.
    pub delivered: u64,
    /// Flows that were postbox check-ins.
    pub checkins: u64,
    /// First-delivery latency, milliseconds (delivered flows).
    pub latency_ms: Histogram,
    /// Broadcast count per flow (delivered flows).
    pub broadcasts: Histogram,
    /// Ideal-unicast hop count (reachable flows with a source AP).
    pub hops: Histogram,
    /// Compressed source-route header size, bits (routed flows).
    pub header_bits: Histogram,
    /// Flows that needed more than one send attempt (fault runs only;
    /// always `0` when the experiment has no fault scenario).
    ///
    /// Joins [`FleetReport::digest`] only when nonzero — see the
    /// struct docs for the conditional digest-mixing rule.
    pub retried: u64,
    /// Retried flows that were ultimately delivered by a later rung of
    /// the recovery ladder.
    ///
    /// Joins the digest only when `retried > 0` (see the struct docs).
    pub recovered: u64,
    /// Send attempts per flow (flows that were actually simulated).
    /// Degenerate (all-ones) on fault-free runs.
    ///
    /// Joins the digest only when `retried > 0` (see the struct docs).
    pub retry_attempts: Histogram,
    /// Flows whose payload was sealed before transmission (encrypted
    /// runs only; always `0` when [`FleetConfig::encrypted`] is off).
    ///
    /// Joins [`FleetReport::digest`] only when nonzero, exactly like
    /// the retry fields — plaintext runs keep their historical digests.
    pub sealed: u64,
    /// Sealed flows that were delivered *and* opened successfully by
    /// the receiver (tag verified, payload decrypted).
    ///
    /// Joins the digest only when `sealed > 0`.
    pub opened: u64,
    /// Sealed flows whose header or ciphertext failed authentication at
    /// the receiver. Always `0` outside tamper-injection tests: the
    /// simulation itself never corrupts a sealed message.
    ///
    /// Joins the digest only when `sealed > 0`.
    pub auth_failures: u64,
    /// Workload span: the last flow's arrival offset, ms.
    pub span_ms: f64,
    /// Wall-clock run time, seconds. **Not** covered by the digest.
    pub elapsed_secs: f64,
    /// Worker threads used. **Not** covered by the digest.
    pub workers: usize,
    /// Route-cache hits. **Not** covered by the digest (racing
    /// planners may double-plan a pair).
    pub cache_hits: u64,
    /// Route-cache misses. **Not** covered by the digest.
    pub cache_misses: u64,
}

impl FleetReport {
    /// An all-zero report with empty histograms: the accumulator that
    /// engines layered on top of this crate (the churn engine's
    /// reactive-repair strategy) fold their own outcome streams into
    /// via [`FleetReport::absorb_outcome`], producing digests on the
    /// same footing as [`run_fleet`]'s.
    pub fn empty() -> Self {
        Self::new()
    }

    fn new() -> Self {
        FleetReport {
            flows: 0,
            reachable: 0,
            route_found: 0,
            delivered: 0,
            checkins: 0,
            // Latencies in ms: 10 µs floor, ~10 % resolution.
            latency_ms: Histogram::new(1e-2, 1.1),
            broadcasts: Histogram::new(1.0, 1.2),
            hops: Histogram::new(1.0, 1.2),
            header_bits: Histogram::new(8.0, 1.1),
            retried: 0,
            recovered: 0,
            retry_attempts: Histogram::new(1.0, 1.2),
            sealed: 0,
            opened: 0,
            auth_failures: 0,
            span_ms: 0.0,
            elapsed_secs: 0.0,
            workers: 0,
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    /// Folds one flow's outcome in. Must be called in ascending
    /// flow-id order to keep floating-point accumulation canonical —
    /// external engines sort their merged `(id, outcome)` records
    /// exactly like [`run_fleet`] does before folding.
    pub fn absorb_outcome(&mut self, spec: &FlowSpec, outcome: &PairOutcome) {
        self.absorb(spec, outcome);
    }

    fn absorb(&mut self, spec: &FlowSpec, outcome: &PairOutcome) {
        self.flows += 1;
        if spec.kind == FlowKind::PostboxCheckin {
            self.checkins += 1;
        }
        if outcome.reachable {
            self.reachable += 1;
        }
        if outcome.route_found {
            self.route_found += 1;
            self.header_bits.record(outcome.route_bits as f64);
        }
        if let Some(h) = outcome.ideal_hops {
            self.hops.record(h as f64);
        }
        if outcome.delivered {
            self.delivered += 1;
            self.broadcasts.record(outcome.broadcasts as f64);
            if let Some(t) = outcome.latency {
                self.latency_ms.record(t.as_millis_f64());
            }
        }
        if outcome.attempts > 0 {
            self.retry_attempts.record(outcome.attempts as f64);
        }
        if outcome.attempts > 1 {
            self.retried += 1;
            if outcome.delivered {
                self.recovered += 1;
            }
        }
        if outcome.sealed {
            self.sealed += 1;
            if outcome.opened {
                self.opened += 1;
            }
            if outcome.auth_failed {
                self.auth_failures += 1;
            }
        }
        self.span_ms = self.span_ms.max(spec.arrival_ms);
    }

    /// Delivered fraction over all flows.
    pub fn delivery_rate(&self) -> f64 {
        if self.flows == 0 {
            return 0.0;
        }
        self.delivered as f64 / self.flows as f64
    }

    /// Flows executed per wall-clock second.
    pub fn flows_per_sec(&self) -> f64 {
        if self.elapsed_secs <= 0.0 {
            return 0.0;
        }
        self.flows as f64 / self.elapsed_secs
    }

    /// A 64-bit digest over every deterministic field: the counters,
    /// the span, and the full state of all four histograms. Equal
    /// digests ⇒ byte-identical aggregate results; the engine's
    /// "N workers == serial" invariant is checked by comparing these.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.mix(self.flows);
        h.mix(self.reachable);
        h.mix(self.route_found);
        h.mix(self.delivered);
        h.mix(self.checkins);
        h.mix(self.span_ms.to_bits());
        h.mix(self.latency_ms.fingerprint());
        h.mix(self.broadcasts.fingerprint());
        h.mix(self.hops.fingerprint());
        h.mix(self.header_bits.fingerprint());
        // Retry statistics join the digest only once a retry actually
        // happened: fault-free runs (where the ladder never fires and
        // `retry_attempts` is degenerate) keep their historical digests,
        // so golden values pinned before fault injection stay valid.
        if self.retried > 0 {
            h.mix(self.retried);
            h.mix(self.recovered);
            h.mix(self.retry_attempts.fingerprint());
        }
        // Sealed-message statistics join only when encryption actually
        // ran, by the same rule: plaintext runs digest exactly as they
        // did before the secure message plane existed.
        if self.sealed > 0 {
            h.mix(self.sealed);
            h.mix(self.opened);
            h.mix(self.auth_failures);
        }
        h.value()
    }

    /// Fraction of retried flows that a later ladder rung recovered.
    pub fn recovery_rate(&self) -> f64 {
        if self.retried == 0 {
            return 0.0;
        }
        self.recovered as f64 / self.retried as f64
    }
}

/// Telemetry harvested from one traced fleet run: the merged metric
/// set plus every captured postmortem, both schedule-independent.
///
/// Per-worker metric sets are merged in worker-id order, and all
/// metric values are integers (addition commutes), so the merged set —
/// and its [`MetricSet::fingerprint`] — is identical across worker
/// counts. Postmortems are sorted by flow id, and each flow's capture
/// decision depends only on the flow itself, so the postmortem vector
/// is identical too.
#[derive(Clone, Debug)]
pub struct FleetTelemetry {
    /// The merged metric registry snapshot.
    pub metrics: MetricSet,
    /// Every captured flow trace, ascending flow id.
    pub postmortems: Vec<Postmortem>,
}

/// What one worker brings home: outcome records, its metric set (when
/// metrics are on), and the postmortems its tracer captured.
#[derive(Default)]
struct WorkerYield {
    records: Vec<(u64, PairOutcome)>,
    metrics: Option<MetricSet>,
    postmortems: Vec<Postmortem>,
}

/// Executes `flows` against `exp` on a worker pool and aggregates.
///
/// Workers claim chunks of the flow vector from an atomic cursor,
/// plan through the shared route cache, simulate with per-flow RNG
/// sub-streams, and stash `(id, outcome)` records locally. After the
/// pool joins, records are merged and folded in flow-id order.
///
/// Telemetry is fully off on this path — byte-identical behavior and
/// allocations to the pre-telemetry engine. Use [`run_fleet_traced`]
/// to also collect metrics and flow traces.
///
/// # Panics
/// Panics on a rejected configuration ([`FleetConfig::validate`] — use
/// [`try_run_fleet`] for a `Result` instead) or when a worker thread
/// panics (the underlying simulation asserted), propagating the
/// failure rather than reporting a truncated aggregate.
pub fn run_fleet(exp: &CityExperiment, flows: &[FlowSpec], cfg: &FleetConfig) -> FleetReport {
    try_run_fleet(exp, flows, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_fleet`] with the config misuse panic turned into a typed
/// error: returns [`FleetError`] instead of starting the pool when the
/// configuration cannot run against this experiment.
///
/// # Panics
/// Still panics when a worker thread panics mid-run.
pub fn try_run_fleet(
    exp: &CityExperiment,
    flows: &[FlowSpec],
    cfg: &FleetConfig,
) -> Result<FleetReport, FleetError> {
    Ok(try_run_fleet_traced(exp, flows, cfg, &TelemetryConfig::off())?.0)
}

/// [`run_fleet`] with observability: per-worker metric sets merged in
/// worker-id order plus flow-trace postmortems, per `tel`.
///
/// The [`FleetReport`] (and its digest) is **bit-identical** to the
/// untraced run — telemetry draws no randomness and feeds nothing
/// back — and the returned [`FleetTelemetry`] is itself deterministic
/// across worker counts. Returns `None` telemetry when `tel` is fully
/// off.
///
/// # Panics
/// Panics on a rejected configuration or when a worker thread panics,
/// as [`run_fleet`] does.
pub fn run_fleet_traced(
    exp: &CityExperiment,
    flows: &[FlowSpec],
    cfg: &FleetConfig,
    tel: &TelemetryConfig,
) -> (FleetReport, Option<FleetTelemetry>) {
    try_run_fleet_traced(exp, flows, cfg, tel).unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_fleet_traced`] with configuration misuse as a typed error.
///
/// # Panics
/// Still panics when a worker thread panics mid-run.
pub fn try_run_fleet_traced(
    exp: &CityExperiment,
    flows: &[FlowSpec],
    cfg: &FleetConfig,
    tel: &TelemetryConfig,
) -> Result<(FleetReport, Option<FleetTelemetry>), FleetError> {
    try_run_fleet_on_cache(exp, flows, cfg, &RouteCache::new(), tel)
}

/// [`run_fleet_traced`] against a caller-owned [`RouteCache`] instead
/// of a run-private one — the churn engine's building block: the cache
/// (and its warm plans) persists across epochs while the world mutates
/// between them, with invalidation handled by the caller
/// ([`RouteCache::evict_where`] / [`RouteCache::clear`]).
///
/// `flows` must be sorted by ascending flow id (every generated
/// workload is, and any contiguous epoch slice of one stays so); the
/// report's cache counters are the cache's *cumulative* totals, so
/// per-epoch deltas are the caller's bookkeeping.
///
/// # Panics
/// Panics on a rejected configuration or when a worker thread panics,
/// as [`run_fleet`] does.
pub fn run_fleet_on_cache(
    exp: &CityExperiment,
    flows: &[FlowSpec],
    cfg: &FleetConfig,
    cache: &RouteCache,
    tel: &TelemetryConfig,
) -> (FleetReport, Option<FleetTelemetry>) {
    try_run_fleet_on_cache(exp, flows, cfg, cache, tel).unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_fleet_on_cache`] with configuration misuse as a typed error:
/// the config is checked against the experiment before any worker
/// spawns, so a bad combination never panics mid-pool.
///
/// # Panics
/// Still panics when a worker thread panics mid-run.
pub fn try_run_fleet_on_cache(
    exp: &CityExperiment,
    flows: &[FlowSpec],
    cfg: &FleetConfig,
    cache: &RouteCache,
    tel: &TelemetryConfig,
) -> Result<(FleetReport, Option<FleetTelemetry>), FleetError> {
    cfg.validate(exp)?;
    let workers = cfg.effective_workers().max(1);
    let started = Instant::now();

    let yields: Vec<WorkerYield> = if workers == 1 {
        // Serial reference path: no threads, same per-flow code.
        vec![execute_range(
            exp,
            flows,
            cfg,
            cache,
            &AtomicUsize::new(0),
            tel,
        )]
    } else {
        let cursor = AtomicUsize::new(0);
        let mut slots: Vec<WorkerYield> = Vec::new();
        slots.resize_with(workers, WorkerYield::default);
        crossbeam::thread::scope(|s| {
            for slot in slots.iter_mut() {
                let cursor = &cursor;
                s.spawn(move |_| {
                    *slot = execute_range(exp, flows, cfg, cache, cursor, tel);
                });
            }
        })
        .expect("fleet worker panicked");
        slots
    };

    // Telemetry merge, in worker-id (slot) order. Counter/bucket adds
    // commute and gauges take max, so the result does not depend on
    // which worker claimed which chunk.
    let telemetry = (!tel.is_off()).then(|| {
        let mut metrics = MetricSet::new();
        let mut postmortems = Vec::new();
        for y in &yields {
            if let Some(m) = &y.metrics {
                metrics.merge(m);
            }
        }
        for y in &yields {
            postmortems.extend(y.postmortems.iter().cloned());
        }
        // Flow ids are unique, so this is a total order.
        postmortems.sort_by_key(|p: &Postmortem| (p.key, p.summary.src, p.summary.dst));
        FleetTelemetry {
            metrics,
            postmortems,
        }
    });

    // Deterministic merge: flatten, order by flow id, fold serially.
    // Every flow yields exactly one record, so the sorted records zip
    // 1:1 with the (ascending-id) flow slice — which keeps the fold
    // correct for epoch sub-slices whose ids don't start at zero.
    let mut merged: Vec<(u64, PairOutcome)> = yields.into_iter().flat_map(|y| y.records).collect();
    merged.sort_unstable_by_key(|(id, _)| *id);

    let mut report = FleetReport::new();
    for ((id, outcome), spec) in merged.iter().zip(flows) {
        debug_assert_eq!(*id, spec.id, "flows must be sorted by ascending id");
        report.absorb(spec, outcome);
    }
    report.elapsed_secs = started.elapsed().as_secs_f64();
    report.workers = workers;
    report.cache_hits = cache.hits();
    report.cache_misses = cache.misses();
    Ok((report, telemetry))
}

/// Folds one flow's outcome into a worker's metric set. Pure per-flow
/// arithmetic on integers, so per-worker sums merge deterministically.
/// Public so custom per-flow engines (the churn engine's reactive
/// strategy) feed the same registry the same way, keeping the
/// traced-vs-untraced digest-equality invariant intact for them too.
pub fn record_flow_metrics(m: &mut MetricSet, o: &PairOutcome) {
    m.inc(tm::FLOWS);
    m.add(tm::BROADCASTS, o.broadcasts);
    if o.attempts == 0 {
        // Never reached the simulator: no route, or the source
        // building went dark.
        m.inc(tm::UNROUTABLE);
    } else {
        m.add(tm::ATTEMPTS, u64::from(o.attempts));
        m.observe(tm::ATTEMPTS_PER_FLOW, u64::from(o.attempts));
        m.gauge_max(tm::MAX_ATTEMPTS, u64::from(o.attempts));
    }
    if o.attempts > 1 {
        m.inc(tm::RETRIED);
        if o.delivered {
            m.inc(tm::RECOVERED);
        }
    }
    if o.delivered {
        m.inc(tm::DELIVERED);
        let rung = o.recovered_by.map(|s| s.rung()).unwrap_or(Rung::First);
        m.inc(tm::rung_delivery_counter(rung));
        if let Some(t) = o.latency {
            m.observe(tm::rung_latency_histogram(rung), t.as_nanos() / 1_000);
        }
        if let Some(ov) = o.overhead {
            m.observe(
                tm::rung_overhead_histogram(rung),
                (ov * 1000.0).round() as u64,
            );
        }
    } else {
        m.inc(tm::FAILED);
        if o.attempts > 0 {
            m.inc(tm::EXHAUSTED);
        }
    }
    if o.sealed {
        m.inc(tm::MSGS_SEALED);
        if o.opened {
            m.inc(tm::MSGS_OPENED);
        }
        if o.auth_failed {
            m.inc(tm::AUTH_FAILURES);
        }
    }
}

/// One worker's loop: claim chunks until the cursor passes the end.
///
/// Each worker owns one [`DeliveryScratch`] reused across every flow
/// it claims, so the steady-state per-flow path performs no heap
/// allocations (the scratch's buffers warm up over the first few flows
/// and are retained after that). Because per-flow RNG sub-streams make
/// outcomes independent of which worker simulates which flow, the
/// scratch reuse is invisible in the fleet digest.
fn execute_range(
    exp: &CityExperiment,
    flows: &[FlowSpec],
    cfg: &FleetConfig,
    cache: &RouteCache,
    cursor: &AtomicUsize,
    tel: &TelemetryConfig,
) -> WorkerYield {
    let seed = cfg.seed;
    let mut out = Vec::with_capacity(flows.len().min(CLAIM_CHUNK * 4));
    let mut scratch = if tel.trace.enabled {
        DeliveryScratch::with_tracing(tel.trace)
    } else {
        DeliveryScratch::new()
    };
    // Planner scratch for cache misses: the search buffers warm up on
    // the first few unseen pairs and are reused for every miss after
    // that (only the cached `PlannedFlow`'s own vectors still
    // allocate — they outlive the worker inside the shared cache).
    let mut plan_scratch = PlanScratch::new();
    let mut metrics = tel.metrics.then(MetricSet::new);
    loop {
        let start = cursor.fetch_add(CLAIM_CHUNK, Ordering::Relaxed);
        if start >= flows.len() {
            break;
        }
        let end = (start + CLAIM_CHUNK).min(flows.len());
        out.reserve(end - start);
        for flow in &flows[start..end] {
            let plan = cache.get_or_plan(flow.src, flow.dst, || {
                let mut plan = PlannedFlow::empty(flow.src, flow.dst);
                if cfg.use_hier_planner {
                    exp.plan_flow_hier_into(flow.src, flow.dst, &mut plan_scratch, &mut plan);
                } else {
                    exp.plan_flow_into(flow.src, flow.dst, &mut plan_scratch, &mut plan);
                }
                plan
            });
            let msg_id = substream_seed(seed, DOMAIN_MSG, flow.id);
            let mut rng = SimRng::new(substream_seed(seed, DOMAIN_SIM, flow.id));
            // Key the trace by the flow's workload identity (not the
            // derived msg_id) so sampling and captures are stable and
            // schedule-independent.
            scratch.tracer_mut().set_next_key(flow.id);
            let outcome = if cfg.encrypted {
                exp.simulate_flow_secure_with(&plan, msg_id, &mut rng, &mut scratch)
            } else {
                exp.simulate_flow_with(&plan, msg_id, &mut rng, &mut scratch)
            };
            if let Some(m) = metrics.as_mut() {
                record_flow_metrics(m, &outcome);
            }
            out.push((flow.id, outcome));
        }
    }
    // Fold tracer bookkeeping into this worker's metric set: the
    // captured/dropped totals are sums of per-flow values and the
    // high-water mark is a max over flows, so both stay schedule-
    // independent after the worker-order merge.
    let keys_derived = scratch.keys_derived();
    let tracer = scratch.tracer_mut();
    if let Some(m) = metrics.as_mut() {
        m.add(tm::POSTMORTEMS, tracer.captured());
        m.add(tm::TRACE_DROPPED, tracer.dropped_total());
        m.gauge_max(tm::TRACE_HIGH_WATER, tracer.high_water() as u64);
        // Hier planner work counters. Like the route cache's hit/miss
        // totals these are schedule-dependent (racing workers may
        // double-plan a pair), so they are informational only and
        // excluded from digests. All zero when the flat planner runs.
        let h = plan_scratch.hier_stats();
        m.add(tm::HIER_QUERIES, h.queries);
        m.add(tm::HIER_DIRECT_ROUTES, h.direct_routes);
        m.add(tm::HIER_OVERLAY_SETTLED, h.overlay_settled);
        m.add(tm::HIER_EXPANSIONS, h.expansions);
        // Session-key derivations this worker performed on cache
        // misses. Schedule-dependent for the same reason as the route
        // cache's counters (racing workers may double-derive a pair),
        // so informational only and excluded from digests.
        m.add(tm::KEYS_DERIVED, keys_derived);
    }
    WorkerYield {
        records: out,
        metrics,
        postmortems: tracer.take_postmortems(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate_flows, FlowModel, WorkloadConfig};
    use citymesh_core::{ExperimentConfig, FaultScenario, RetryPolicy};
    use citymesh_map::CityArchetype;

    fn world(seed: u64) -> CityExperiment {
        let map = CityArchetype::SurveyDowntown.generate(seed);
        CityExperiment::prepare(
            map,
            ExperimentConfig {
                seed,
                ..ExperimentConfig::default()
            },
        )
    }

    fn faulted_world(seed: u64, scenario: FaultScenario) -> CityExperiment {
        let map = CityArchetype::SurveyDowntown.generate(seed);
        CityExperiment::prepare(
            map,
            ExperimentConfig {
                seed,
                faults: Some(scenario),
                ..ExperimentConfig::default()
            },
        )
    }

    fn workload(exp: &CityExperiment, flows: usize, seed: u64) -> Vec<FlowSpec> {
        generate_flows(
            exp.map().len(),
            &WorkloadConfig {
                flows,
                model: FlowModel::Hotspot {
                    hotspots: 6,
                    exponent: 1.2,
                    rate_hz: 200.0,
                },
                seed,
            },
        )
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let exp = world(1);
        let flows = workload(&exp, 120, 1);
        let serial = run_fleet(
            &exp,
            &flows,
            &FleetConfig {
                workers: 1,
                seed: 1,
                ..FleetConfig::default()
            },
        );
        let parallel = run_fleet(
            &exp,
            &flows,
            &FleetConfig {
                workers: 4,
                seed: 1,
                ..FleetConfig::default()
            },
        );
        assert_eq!(serial.digest(), parallel.digest());
        assert_eq!(serial.flows, 120);
        assert_eq!(serial.delivered, parallel.delivered);
        assert_eq!(
            serial.latency_ms.fingerprint(),
            parallel.latency_ms.fingerprint()
        );
    }

    #[test]
    fn different_seed_changes_digest() {
        let exp = world(2);
        let flows = workload(&exp, 60, 2);
        let a = run_fleet(
            &exp,
            &flows,
            &FleetConfig {
                workers: 2,
                seed: 2,
                ..FleetConfig::default()
            },
        );
        let b = run_fleet(
            &exp,
            &flows,
            &FleetConfig {
                workers: 2,
                seed: 3,
                ..FleetConfig::default()
            },
        );
        assert_ne!(
            a.digest(),
            b.digest(),
            "simulation seed must reach the outcomes"
        );
    }

    #[test]
    fn report_counters_are_coherent() {
        let exp = world(3);
        let flows = workload(&exp, 100, 3);
        let r = run_fleet(
            &exp,
            &flows,
            &FleetConfig {
                workers: 2,
                seed: 3,
                ..FleetConfig::default()
            },
        );
        assert_eq!(r.flows, 100);
        assert!(r.delivered <= r.route_found);
        assert!(r.route_found <= r.flows);
        assert!(r.reachable <= r.flows);
        assert!(r.delivered > 0, "downtown should deliver something");
        assert_eq!(r.broadcasts.len(), r.delivered);
        assert_eq!(r.header_bits.len(), r.route_found);
        assert!(r.delivery_rate() > 0.0 && r.delivery_rate() <= 1.0);
        assert!(r.span_ms > 0.0);
        assert!(r.elapsed_secs > 0.0 && r.flows_per_sec() > 0.0);
    }

    #[test]
    fn repeated_pairs_hit_the_route_cache() {
        let exp = world(4);
        // 200 flows cycling through 10 distinct pairs: the cache must
        // plan each pair once and serve the rest as hits.
        let flows: Vec<FlowSpec> = (0..200u64)
            .map(|id| FlowSpec {
                id,
                src: (id % 10) as u32,
                dst: 10 + (id % 10) as u32,
                kind: crate::workload::FlowKind::Data,
                arrival_ms: id as f64,
            })
            .collect();
        let r = run_fleet(
            &exp,
            &flows,
            &FleetConfig {
                workers: 2,
                seed: 4,
                ..FleetConfig::default()
            },
        );
        assert_eq!(r.cache_hits + r.cache_misses, 200);
        assert!(
            r.cache_misses <= 10 * 2,
            "at most one plan per pair (plus benign races): {} misses",
            r.cache_misses
        );
        assert!(r.cache_hits >= 180, "{} hits", r.cache_hits);
    }

    #[test]
    fn faulted_fleet_is_worker_count_invariant() {
        let mut scenario = FaultScenario::iid(0.25);
        scenario.retry = RetryPolicy::ladder();
        let exp = faulted_world(6, scenario);
        let flows = workload(&exp, 150, 6);
        let digests: Vec<u64> = [1usize, 4, 8]
            .iter()
            .map(|&w| {
                run_fleet(
                    &exp,
                    &flows,
                    &FleetConfig {
                        workers: w,
                        seed: 6,
                        ..FleetConfig::default()
                    },
                )
                .digest()
            })
            .collect();
        assert_eq!(digests[0], digests[1], "1 vs 4 workers");
        assert_eq!(digests[0], digests[2], "1 vs 8 workers");
    }

    #[test]
    fn faulted_run_records_retries_in_digest() {
        let mut scenario = FaultScenario::iid(0.3);
        scenario.retry = RetryPolicy::ladder();
        let exp = faulted_world(7, scenario);
        let flows = workload(&exp, 150, 7);
        let r = run_fleet(
            &exp,
            &flows,
            &FleetConfig {
                workers: 2,
                seed: 7,
                ..FleetConfig::default()
            },
        );
        assert!(
            r.retried > 0,
            "a quarter of APs dark must force some retries"
        );
        assert!(r.recovered <= r.retried);
        assert!(r.recovery_rate() >= 0.0 && r.recovery_rate() <= 1.0);
        assert!(
            r.retry_attempts.len() <= flows.len() as u64 && r.retry_attempts.len() >= r.retried,
            "attempt histogram covers simulated flows: {} entries",
            r.retry_attempts.len()
        );
        // The conditional digest block must actually fire.
        let mut clean = r.clone();
        clean.retried = 0;
        assert_ne!(
            r.digest(),
            clean.digest(),
            "retry stats must reach the digest when retries happened"
        );
    }

    #[test]
    fn fault_free_digest_ignores_retry_fields() {
        // Fault-free runs never retry, so the retry block must stay out
        // of the digest — this is what keeps pre-fault golden digests
        // (e.g. the CI 500-flow pin) valid.
        let exp = world(8);
        let flows = workload(&exp, 80, 8);
        let r = run_fleet(
            &exp,
            &flows,
            &FleetConfig {
                workers: 2,
                seed: 8,
                ..FleetConfig::default()
            },
        );
        assert_eq!(r.retried, 0);
        let mut tweaked = r.clone();
        tweaked.recovered = 99;
        assert_eq!(
            r.digest(),
            tweaked.digest(),
            "with zero retries the retry fields must not perturb the digest"
        );
    }

    #[test]
    fn telemetry_never_perturbs_the_digest() {
        // Healthy world: traced and untraced digests must be equal.
        let exp = world(1);
        let flows = workload(&exp, 120, 1);
        let cfg = FleetConfig {
            workers: 2,
            seed: 1,
            ..FleetConfig::default()
        };
        let plain = run_fleet(&exp, &flows, &cfg);
        let (traced, telem) = run_fleet_traced(&exp, &flows, &cfg, &TelemetryConfig::full(5));
        assert_eq!(plain.digest(), traced.digest(), "healthy world");
        let telem = telem.expect("telemetry requested");
        assert_eq!(telem.metrics.counter(tm::FLOWS), 120);
        assert_eq!(telem.metrics.counter(tm::DELIVERED), traced.delivered);

        // Faulted world: same invariant under the full retry ladder.
        let mut scenario = FaultScenario::iid(0.25);
        scenario.retry = RetryPolicy::ladder();
        let fexp = faulted_world(6, scenario);
        let fflows = workload(&fexp, 150, 6);
        let fcfg = FleetConfig {
            workers: 4,
            seed: 6,
            ..FleetConfig::default()
        };
        let fplain = run_fleet(&fexp, &fflows, &fcfg);
        let (ftraced, ftel) = run_fleet_traced(&fexp, &fflows, &fcfg, &TelemetryConfig::full(7));
        assert_eq!(fplain.digest(), ftraced.digest(), "faulted world");
        let ftel = ftel.expect("telemetry requested");
        assert_eq!(ftel.metrics.counter(tm::RETRIED), ftraced.retried);
        assert_eq!(ftel.metrics.counter(tm::RECOVERED), ftraced.recovered);
        assert!(
            !ftel.postmortems.is_empty(),
            "a faulted run must capture failed/retried flows"
        );
    }

    #[test]
    fn telemetry_is_worker_count_invariant() {
        let mut scenario = FaultScenario::iid(0.25);
        scenario.retry = RetryPolicy::ladder();
        let exp = faulted_world(6, scenario);
        let flows = workload(&exp, 150, 6);
        let runs: Vec<FleetTelemetry> = [1usize, 4, 8]
            .iter()
            .map(|&w| {
                run_fleet_traced(
                    &exp,
                    &flows,
                    &FleetConfig {
                        workers: w,
                        seed: 6,
                        ..FleetConfig::default()
                    },
                    &TelemetryConfig::full(5),
                )
                .1
                .expect("telemetry requested")
            })
            .collect();
        for (i, t) in runs.iter().enumerate().skip(1) {
            assert_eq!(
                runs[0].metrics.fingerprint(),
                t.metrics.fingerprint(),
                "metric fingerprint, 1 vs {} workers",
                [1, 4, 8][i]
            );
            assert_eq!(
                runs[0].postmortems,
                t.postmortems,
                "postmortems, 1 vs {} workers",
                [1, 4, 8][i]
            );
        }
        // Registry coherence on the merged set.
        let m = &runs[0].metrics;
        assert_eq!(
            m.counter(tm::DELIVERED) + m.counter(tm::FAILED),
            m.counter(tm::FLOWS)
        );
        assert_eq!(
            m.counter(tm::RUNG_FIRST)
                + m.counter(tm::RUNG_RESEND)
                + m.counter(tm::RUNG_WIDEN)
                + m.counter(tm::RUNG_REPLAN),
            m.counter(tm::DELIVERED)
        );
        assert_eq!(m.counter(tm::POSTMORTEMS), runs[0].postmortems.len() as u64);
    }

    #[test]
    fn postmortem_json_names_the_resolving_rung() {
        let mut scenario = FaultScenario::iid(0.3);
        scenario.retry = RetryPolicy::ladder();
        let exp = faulted_world(7, scenario);
        let flows = workload(&exp, 150, 7);
        let (report, telem) = run_fleet_traced(
            &exp,
            &flows,
            &FleetConfig {
                workers: 2,
                seed: 7,
                ..FleetConfig::default()
            },
            &TelemetryConfig::full(0),
        );
        assert!(report.retried > 0, "scenario must force retries");
        let telem = telem.expect("telemetry requested");
        // Prefer a complete (no-eviction) recovered trace; every run of
        // this scenario has many.
        let recovered = telem
            .postmortems
            .iter()
            .find(|p| p.summary.recovered_by.is_some() && p.dropped_events == 0)
            .expect("some retried flow recovered with a complete trace");
        let json = recovered.to_json();
        let rung = recovered.summary.recovered_by.unwrap().label();
        assert!(
            json.contains(&format!("\"outcome\":\"recovered-{rung}\"")),
            "postmortem must name the recovering rung: {json}"
        );
        assert!(json.contains("\"type\":\"attempt\""));
        if let Some(exhausted) = telem
            .postmortems
            .iter()
            .find(|p| !p.summary.delivered && p.summary.attempts > 0)
        {
            assert!(
                exhausted.to_json().contains("\"outcome\":\"exhausted\""),
                "an exhausted flow must say so"
            );
        }
    }

    #[test]
    fn metrics_only_config_skips_tracing() {
        let exp = world(3);
        let flows = workload(&exp, 60, 3);
        let (_, telem) = run_fleet_traced(
            &exp,
            &flows,
            &FleetConfig {
                workers: 2,
                seed: 3,
                ..FleetConfig::default()
            },
            &TelemetryConfig::metrics_only(),
        );
        let telem = telem.expect("metrics requested");
        assert_eq!(telem.metrics.counter(tm::FLOWS), 60);
        assert!(telem.postmortems.is_empty());
        assert_eq!(telem.metrics.counter(tm::POSTMORTEMS), 0);
    }

    #[test]
    fn hier_planner_matches_flat_digest() {
        use citymesh_core::HierParams;
        let mut exp = world(9);
        exp.enable_hier(&HierParams::default());
        let flows = workload(&exp, 150, 9);
        let flat = run_fleet_traced(
            &exp,
            &flows,
            &FleetConfig {
                workers: 1,
                seed: 9,
                ..FleetConfig::default()
            },
            &TelemetryConfig::metrics_only(),
        );
        let hier = run_fleet_traced(
            &exp,
            &flows,
            &FleetConfig {
                workers: 1,
                seed: 9,
                use_hier_planner: true,
                ..FleetConfig::default()
            },
            &TelemetryConfig::metrics_only(),
        );
        // The hierarchical planner is exact, so swapping it in changes
        // no route and no outcome: the reports are bit-identical.
        assert_eq!(flat.0.digest(), hier.0.digest());
        let fm = flat.1.expect("metrics requested").metrics;
        let hm = hier.1.expect("metrics requested").metrics;
        assert_eq!(fm.counter(tm::HIER_QUERIES), 0, "flat run plans flat");
        assert!(hm.counter(tm::HIER_QUERIES) > 0, "hier run must use hier");
        assert!(hm.counter(tm::HIER_EXPANSIONS) > 0);
        // Parallel hier runs still merge to the same digest.
        let par = run_fleet(
            &exp,
            &flows,
            &FleetConfig {
                workers: 4,
                seed: 9,
                use_hier_planner: true,
                ..FleetConfig::default()
            },
        );
        assert_eq!(par.digest(), hier.0.digest());
    }

    #[test]
    #[should_panic(expected = "enable_hier")]
    fn hier_flag_without_enable_hier_panics() {
        let exp = world(10);
        let flows = workload(&exp, 4, 10);
        run_fleet(
            &exp,
            &flows,
            &FleetConfig {
                workers: 1,
                seed: 10,
                use_hier_planner: true,
                ..FleetConfig::default()
            },
        );
    }

    #[test]
    fn hier_flag_without_enable_hier_is_a_typed_error() {
        let exp = world(10);
        let flows = workload(&exp, 4, 10);
        let cfg = FleetConfig {
            workers: 1,
            seed: 10,
            use_hier_planner: true,
            ..FleetConfig::default()
        };
        assert_eq!(cfg.validate(&exp), Err(FleetError::HierPlannerNotEnabled));
        let err = try_run_fleet(&exp, &flows, &cfg).unwrap_err();
        assert_eq!(err, FleetError::HierPlannerNotEnabled);
        assert!(
            err.to_string().contains("enable_hier"),
            "the error message must name the missing prerequisite"
        );
        // The same config runs fine once the overlay exists, and the
        // typed path returns the same report as the panicking one.
        let mut hier_exp = world(10);
        hier_exp.enable_hier(&citymesh_core::HierParams::default());
        assert_eq!(cfg.validate(&hier_exp), Ok(()));
        let ok = try_run_fleet(&hier_exp, &flows, &cfg).expect("hier enabled");
        assert_eq!(ok.digest(), run_fleet(&hier_exp, &flows, &cfg).digest());
    }

    #[test]
    fn zero_workers_resolves_to_available_parallelism() {
        let cfg = FleetConfig::default();
        assert!(cfg.effective_workers() >= 1);
    }

    #[test]
    fn empty_workload_yields_empty_report() {
        let exp = world(5);
        let r = run_fleet(
            &exp,
            &[],
            &FleetConfig {
                workers: 3,
                seed: 5,
                ..FleetConfig::default()
            },
        );
        assert_eq!(r.flows, 0);
        assert_eq!(r.delivery_rate(), 0.0);
        assert!(r.latency_ms.is_empty());
    }
}
