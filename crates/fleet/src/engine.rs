//! The parallel flow-execution engine.
//!
//! [`try_run_fleet`] drives a generated workload through a prepared
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
//! 3. every report field is an integer count, an integer histogram or
//!    a maximum, so each worker folds the flows it ran into its own
//!    report and [`FleetReport::merge`] adds the parts in any order.
//!
//! The per-flow pipeline and the pool live in [`crate::exec`]; this
//! module is "executor over a slice".

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use citymesh_core::{CityExperiment, PairOutcome};
use citymesh_simcore::stats::Histogram;
use citymesh_simcore::Fnv64;
use citymesh_telemetry::{MetricSet, Postmortem, RecoveryStage, TelemetryConfig};

use crate::cache::RouteCache;
use crate::exec::{resolve_workers, run_pool, FlowExecutor};
use crate::workload::{FlowKind, FlowSpec};

/// How many flows a worker claims per counter increment. Large enough
/// to amortize the atomic, small enough to balance tail stragglers. On
/// the secure plane it is also the session batch: a claimed chunk's
/// keys are derived together ([`FlowExecutor::derive_sessions`]).
const CLAIM_CHUNK: usize = 32;

/// Nanoseconds per millisecond: latency histograms record integer ns
/// and read in ms.
const NS_PER_MS: u64 = 1_000_000;

/// Overhead histograms record broadcasts per ideal hop in thousandths.
const OVERHEAD_PER_UNIT: u64 = 1_000;

/// Engine parameters.
#[derive(Clone, Copy, Debug, Default)]
pub struct FleetConfig {
    /// Worker threads. `0` means one per available CPU
    /// ([`resolve_workers`]).
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
    /// Checks this config against the experiment it is about to run
    /// on — the one hier/encryption prerequisite check every engine's
    /// entry point goes through.
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

/// What one rung of the recovery ladder delivered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RungReport {
    /// Flows this rung delivered.
    pub delivered: u64,
    /// First-delivery latency of those flows, ms (recorded in ns).
    pub latency_ms: Histogram,
    /// Transmission overhead (broadcasts / ideal hops) of those flows,
    /// recorded in thousandths.
    pub overhead: Histogram,
}

impl RungReport {
    fn empty() -> Self {
        RungReport {
            delivered: 0,
            latency_ms: Histogram::with_unit(NS_PER_MS),
            overhead: Histogram::with_unit(OVERHEAD_PER_UNIT),
        }
    }

    fn merge(&mut self, other: &RungReport) {
        self.delivered += other.delivered;
        self.latency_ms.merge(&other.latency_ms);
        self.overhead.merge(&other.overhead);
    }
}

/// Aggregated results of one fleet run.
///
/// Everything except the wall-clock fields ([`elapsed_secs`] and the
/// cache counters, which depend on scheduling) is deterministic in
/// `(world, workload, seed)` and covered by [`digest`].
///
/// **Conditional digest mixing for retry statistics.** The retry
/// fields ([`retried`], [`recovered`], [`retry_attempts`]) and the
/// per-rung split ([`rungs`]) join the digest **only when `retried >
/// 0`** — i.e. only on runs where the recovery ladder actually fired.
/// Fault-free runs never retry, so their digests keep the shape they
/// had before the retry fields existed. The corollary: on a fault-free
/// run, mutating the retry fields does not perturb the digest (see
/// `fault_free_digest_ignores_retry_fields`).
///
/// [`elapsed_secs`]: FleetReport::elapsed_secs
/// [`digest`]: FleetReport::digest
/// [`retried`]: FleetReport::retried
/// [`recovered`]: FleetReport::recovered
/// [`retry_attempts`]: FleetReport::retry_attempts
/// [`rungs`]: FleetReport::rungs
#[derive(Clone, Debug, PartialEq)]
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
    /// The delivered flows split by the rung that delivered them,
    /// indexed by [`RecoveryStage`] in ladder order
    /// ([`FleetReport::rung_report`]). Fault-free runs deliver on
    /// [`RecoveryStage::First`] alone.
    pub rungs: [RungReport; 4],
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
    /// An all-zero report with empty histograms: the accumulator every
    /// engine worker folds its flows into via
    /// [`FleetReport::absorb_outcome`], so all digests stand on the same
    /// footing.
    pub fn empty() -> Self {
        FleetReport {
            flows: 0,
            reachable: 0,
            route_found: 0,
            delivered: 0,
            checkins: 0,
            rungs: std::array::from_fn(|_| RungReport::empty()),
            broadcasts: Histogram::new(),
            hops: Histogram::new(),
            header_bits: Histogram::new(),
            retried: 0,
            recovered: 0,
            retry_attempts: Histogram::new(),
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

    /// Folds one flow's outcome in. Every field is a count, an integer
    /// histogram or a maximum, so flows may be absorbed in any order.
    pub fn absorb_outcome(&mut self, spec: &FlowSpec, outcome: &PairOutcome) {
        self.flows += 1;
        if spec.kind == FlowKind::PostboxCheckin {
            self.checkins += 1;
        }
        if outcome.reachable {
            self.reachable += 1;
        }
        if outcome.route_found {
            self.route_found += 1;
            self.header_bits.record(outcome.route_bits as u64);
        }
        if let Some(h) = outcome.ideal_hops {
            self.hops.record(h);
        }
        if outcome.delivered {
            self.delivered += 1;
            self.broadcasts.record(outcome.broadcasts);
            let stage = outcome.recovered_by.unwrap_or(RecoveryStage::First);
            let rung = &mut self.rungs[stage as usize];
            rung.delivered += 1;
            if let Some(t) = outcome.latency {
                rung.latency_ms.record(t.as_nanos());
            }
            if let Some(ov) = outcome.overhead {
                let thousandths = ov * OVERHEAD_PER_UNIT as f64;
                rung.overhead.record(thousandths.round() as u64);
            }
        }
        if outcome.attempts > 0 {
            self.retry_attempts.record(u64::from(outcome.attempts));
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

    /// Folds another report in: counters and histogram buckets add,
    /// and `span_ms` takes the maximum, so merging per-worker parts in
    /// any order equals absorbing all their flows into one report.
    /// `elapsed_secs` and `workers` describe the engine call, not its
    /// flows; the call sets them after the merge.
    pub fn merge(&mut self, other: &FleetReport) {
        let FleetReport {
            flows,
            reachable,
            route_found,
            delivered,
            checkins,
            rungs,
            broadcasts,
            hops,
            header_bits,
            retried,
            recovered,
            retry_attempts,
            sealed,
            opened,
            auth_failures,
            span_ms,
            elapsed_secs: _,
            workers: _,
            cache_hits,
            cache_misses,
        } = other;
        self.flows += flows;
        self.reachable += reachable;
        self.route_found += route_found;
        self.delivered += delivered;
        self.checkins += checkins;
        for (mine, theirs) in self.rungs.iter_mut().zip(rungs) {
            mine.merge(theirs);
        }
        self.broadcasts.merge(broadcasts);
        self.hops.merge(hops);
        self.header_bits.merge(header_bits);
        self.retried += retried;
        self.recovered += recovered;
        self.retry_attempts.merge(retry_attempts);
        self.sealed += sealed;
        self.opened += opened;
        self.auth_failures += auth_failures;
        self.span_ms = self.span_ms.max(*span_ms);
        self.cache_hits += cache_hits;
        self.cache_misses += cache_misses;
    }

    /// What `stage` delivered.
    pub fn rung_report(&self, stage: RecoveryStage) -> &RungReport {
        &self.rungs[stage as usize]
    }

    /// First-delivery latency of every delivered flow, ms: the merge of
    /// the per-rung histograms.
    pub fn latency_ms(&self) -> Histogram {
        let mut all = Histogram::with_unit(NS_PER_MS);
        for rung in &self.rungs {
            all.merge(&rung.latency_ms);
        }
        all
    }

    /// Simulated flows that exhausted every rung they were allowed.
    pub fn exhausted(&self) -> u64 {
        self.retry_attempts.len() - self.delivered
    }

    /// Flows that never reached the simulator: no route, or the source
    /// building went dark.
    pub fn unroutable(&self) -> u64 {
        self.flows - self.retry_attempts.len()
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
    /// the span, and the full state of every histogram. Equal digests
    /// ⇒ byte-identical aggregate results; the engine's "N workers ==
    /// serial" invariant is checked by comparing these.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.mix(self.flows);
        h.mix(self.reachable);
        h.mix(self.route_found);
        h.mix(self.delivered);
        h.mix(self.checkins);
        h.mix(self.span_ms.to_bits());
        h.mix(self.latency_ms().fingerprint());
        h.mix(self.broadcasts.fingerprint());
        h.mix(self.hops.fingerprint());
        h.mix(self.header_bits.fingerprint());
        // Retry statistics and the rung split join the digest only once
        // a retry actually happened: fault-free runs (where the ladder
        // never fires, `retry_attempts` is degenerate and every
        // delivery is a first-rung one) keep their digest's shape.
        let mut rungs = Fnv64::new();
        for rung in &self.rungs {
            rungs.mix(rung.delivered);
            rungs.mix(rung.latency_ms.fingerprint());
            rungs.mix(rung.overhead.fingerprint());
        }
        h.mix_when(
            self.retried > 0,
            &[
                self.retried,
                self.recovered,
                self.retry_attempts.fingerprint(),
                rungs.value(),
            ],
        );
        // Sealed-message statistics join only when encryption actually
        // ran, by the same rule: plaintext runs digest exactly as they
        // did before the secure message plane existed.
        h.mix_when(
            self.sealed > 0,
            &[self.sealed, self.opened, self.auth_failures],
        );
        h.value()
    }
}

/// Telemetry harvested from one traced fleet run: the merged metric
/// set plus every captured postmortem, both schedule-independent.
///
/// Per-worker metric sets are merged after the pool joins, and all
/// metric values are integers (addition commutes), so the merged set —
/// and its [`MetricSet::fingerprint`] — is identical across worker
/// counts. Postmortems are sorted by flow id, and each flow's capture
/// decision depends only on the flow itself, so the postmortem vector
/// is identical too.
#[derive(Clone, Debug, Default)]
pub struct FleetTelemetry {
    /// The merged metric registry snapshot.
    pub metrics: MetricSet,
    /// Every captured flow trace, ascending flow id.
    pub postmortems: Vec<Postmortem>,
}

impl FleetTelemetry {
    /// Merges what executors (or whole epochs) brought home. Counter
    /// and bucket adds commute and gauges take max, so the result does
    /// not depend on which worker ran which flow; postmortems are
    /// re-sorted by flow id (unique, so a total order).
    pub fn absorb(
        &mut self,
        parts: impl IntoIterator<Item = (Option<MetricSet>, Vec<Postmortem>)>,
    ) {
        for (metrics, postmortems) in parts {
            if let Some(m) = &metrics {
                self.metrics.merge(m);
            }
            self.postmortems.extend(postmortems);
        }
        self.postmortems
            .sort_by_key(|p| (p.key, p.summary.src, p.summary.dst));
    }
}

/// Executes `flows` against `exp` on a worker pool and aggregates,
/// with telemetry fully off — byte-identical behavior and allocations
/// to the pre-telemetry engine. Returns [`FleetError`] instead of
/// starting the pool when `cfg` cannot run against this experiment.
///
/// # Panics
/// Panics when a worker thread panics (the underlying simulation
/// asserted), propagating the failure rather than reporting a
/// truncated aggregate.
pub fn try_run_fleet(
    exp: &CityExperiment,
    flows: &[FlowSpec],
    cfg: &FleetConfig,
) -> Result<FleetReport, FleetError> {
    Ok(try_run_fleet_traced(exp, flows, cfg, &TelemetryConfig::off())?.0)
}

/// [`try_run_fleet`] with observability: per-worker metric sets merged
/// plus flow-trace postmortems, per `tel`.
///
/// The [`FleetReport`] (and its digest) is **bit-identical** to the
/// untraced run — telemetry draws no randomness and feeds nothing
/// back — and the returned [`FleetTelemetry`] is itself deterministic
/// across worker counts. Returns `None` telemetry when `tel` is fully
/// off.
///
/// # Panics
/// Panics when a worker thread panics mid-run.
pub fn try_run_fleet_traced(
    exp: &CityExperiment,
    flows: &[FlowSpec],
    cfg: &FleetConfig,
    tel: &TelemetryConfig,
) -> Result<(FleetReport, Option<FleetTelemetry>), FleetError> {
    try_run_fleet_on_cache(exp, flows, cfg, &RouteCache::new(), tel)
}

/// [`try_run_fleet_traced`] against a caller-owned [`RouteCache`]
/// instead of a run-private one — the churn engine's building block:
/// the cache (and its warm plans) persists across epochs while the
/// world mutates between them, with invalidation handled by the caller
/// ([`RouteCache::evict_stale`] / [`RouteCache::clear`]).
///
/// The engine proper: workers claim chunks of `flows` from an atomic
/// cursor, derive an encrypted chunk's session keys in one batch, run
/// each flow on their own [`FlowExecutor`] and fold its outcome into
/// their own [`FleetReport`]; the call merges the parts.
///
/// The report's cache counters are the cache's *cumulative* totals, so
/// per-epoch deltas are the caller's bookkeeping.
///
/// # Panics
/// Panics when a worker thread panics mid-run.
pub fn try_run_fleet_on_cache(
    exp: &CityExperiment,
    flows: &[FlowSpec],
    cfg: &FleetConfig,
    cache: &RouteCache,
    tel: &TelemetryConfig,
) -> Result<(FleetReport, Option<FleetTelemetry>), FleetError> {
    cfg.validate(exp)?;
    let workers = resolve_workers(cfg.workers, flows.len().div_ceil(CLAIM_CHUNK));
    let started = Instant::now();

    let cursor = AtomicUsize::new(0);
    let (parts, harvests): (Vec<FleetReport>, Vec<_>) = run_pool(0..workers, |_| {
        let mut exec = FlowExecutor::new(cache, cfg, tel);
        let mut part = FleetReport::empty();
        loop {
            let start = cursor.fetch_add(CLAIM_CHUNK, Ordering::Relaxed);
            if start >= flows.len() {
                break;
            }
            let chunk = &flows[start..(start + CLAIM_CHUNK).min(flows.len())];
            exec.derive_sessions(exp, chunk);
            for flow in chunk {
                part.absorb_outcome(flow, &exec.run(exp, flow));
            }
        }
        (part, exec.finish())
    })
    .into_iter()
    .unzip();
    let mut report = parts
        .into_iter()
        .reduce(|mut all, part| {
            all.merge(&part);
            all
        })
        .expect("the pool runs at least one worker");
    debug_assert_eq!(report.flows, flows.len() as u64, "one outcome per flow");

    let telemetry = (!tel.is_off()).then(|| {
        let mut t = FleetTelemetry::default();
        t.absorb(harvests);
        t
    });
    report.elapsed_secs = started.elapsed().as_secs_f64();
    report.workers = workers;
    report.cache_hits = cache.hits();
    report.cache_misses = cache.misses();
    Ok((report, telemetry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate_flows, FlowModel, WorkloadConfig};
    use crate::{DOMAIN_MSG, DOMAIN_SIM};
    use citymesh_core::{ExperimentConfig, FaultScenario, RetryPolicy};
    use citymesh_map::CityArchetype;
    use citymesh_simcore::{substream_seed, SimRng};
    use citymesh_telemetry::metrics as tm;

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

    /// The report's rungs partition its deliveries, with one latency
    /// sample each: first-rung deliveries are the unretried ones, and
    /// every recovered flow sits on a later rung.
    fn assert_rungs_split_deliveries(r: &FleetReport) {
        let on = |stage| r.rung_report(stage).delivered;
        let total: u64 = RecoveryStage::ALL.into_iter().map(on).sum();
        assert_eq!(total, r.delivered, "rungs partition the deliveries");
        assert_eq!(on(RecoveryStage::First), r.delivered - r.recovered);
        assert_eq!(r.latency_ms().len(), r.delivered);
        assert_eq!(r.exhausted() + r.unroutable(), r.flows - r.delivered);
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
        let serial = try_run_fleet(
            &exp,
            &flows,
            &FleetConfig {
                workers: 1,
                seed: 1,
                ..FleetConfig::default()
            },
        )
        .unwrap();
        let parallel = try_run_fleet(
            &exp,
            &flows,
            &FleetConfig {
                workers: 4,
                seed: 1,
                ..FleetConfig::default()
            },
        )
        .unwrap();
        assert_eq!(serial.digest(), parallel.digest());
        assert_eq!(serial.flows, 120);
        assert_eq!(serial.delivered, parallel.delivered);
        assert_eq!(serial.rungs, parallel.rungs);
    }

    #[test]
    fn different_seed_changes_digest() {
        let exp = world(2);
        let flows = workload(&exp, 60, 2);
        let a = try_run_fleet(
            &exp,
            &flows,
            &FleetConfig {
                workers: 2,
                seed: 2,
                ..FleetConfig::default()
            },
        )
        .unwrap();
        let b = try_run_fleet(
            &exp,
            &flows,
            &FleetConfig {
                workers: 2,
                seed: 3,
                ..FleetConfig::default()
            },
        )
        .unwrap();
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
        let r = try_run_fleet(
            &exp,
            &flows,
            &FleetConfig {
                workers: 2,
                seed: 3,
                ..FleetConfig::default()
            },
        )
        .unwrap();
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
        // plan each pair twice — its first request is not stored, its
        // second is — and serve the rest as hits.
        let flows: Vec<FlowSpec> = (0..200u64)
            .map(|id| FlowSpec {
                id,
                src: (id % 10) as u32,
                dst: 10 + (id % 10) as u32,
                kind: crate::workload::FlowKind::Data,
                arrival_ms: id as f64,
            })
            .collect();
        let r = try_run_fleet(
            &exp,
            &flows,
            &FleetConfig {
                workers: 2,
                seed: 4,
                ..FleetConfig::default()
            },
        )
        .unwrap();
        assert_eq!(r.cache_hits + r.cache_misses, 200);
        // A racing second request on each of the two workers is the
        // most a pair can add.
        assert!(
            (10 * 2..=10 * 3).contains(&r.cache_misses),
            "two plans per pair (plus benign races): {} misses",
            r.cache_misses
        );
        assert!(r.cache_hits >= 170, "{} hits", r.cache_hits);
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
                try_run_fleet(
                    &exp,
                    &flows,
                    &FleetConfig {
                        workers: w,
                        seed: 6,
                        ..FleetConfig::default()
                    },
                )
                .unwrap()
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
        let r = try_run_fleet(
            &exp,
            &flows,
            &FleetConfig {
                workers: 2,
                seed: 7,
                ..FleetConfig::default()
            },
        )
        .unwrap();
        assert!(
            r.retried > 0,
            "a quarter of APs dark must force some retries"
        );
        assert!(r.recovered <= r.retried);
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
        let r = try_run_fleet(
            &exp,
            &flows,
            &FleetConfig {
                workers: 2,
                seed: 8,
                ..FleetConfig::default()
            },
        )
        .unwrap();
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
        let plain = try_run_fleet(&exp, &flows, &cfg).unwrap();
        let (traced, telem) =
            try_run_fleet_traced(&exp, &flows, &cfg, &TelemetryConfig::full(5)).unwrap();
        assert_eq!(plain.digest(), traced.digest(), "healthy world");
        let telem = telem.expect("telemetry requested");
        let detours = [tm::DETOUR_SEARCHES, tm::DETOURS_REJECTED_BY_LABELS];
        assert_eq!(detours.map(|id| telem.metrics.counter(id)), [0, 0]);

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
        let fplain = try_run_fleet(&fexp, &fflows, &fcfg).unwrap();
        let (ftraced, ftel) =
            try_run_fleet_traced(&fexp, &fflows, &fcfg, &TelemetryConfig::full(7)).unwrap();
        assert_eq!(fplain.digest(), ftraced.digest(), "faulted world");
        let ftel = ftel.expect("telemetry requested");
        assert_rungs_split_deliveries(&ftraced);
        // Every flow that reached rung 4 put its pair to the labels once:
        // refused when they show no route around the dark buildings,
        // searched otherwise. Such a flow was retried, so the trace kept
        // it, and its replay counted its detour a second time.
        let (bg, survivors) = (fexp.building_graph(), fexp.survivors().expect("faulted"));
        let (mut searched, mut refused) = (0, 0);
        for f in &fflows {
            let plan = fexp.plan_flow(f.src, f.dst);
            let msg_id = substream_seed(6, DOMAIN_MSG, f.id);
            let mut rng = SimRng::new(substream_seed(6, DOMAIN_SIM, f.id));
            if fexp.simulate_flow(&plan, msg_id, &mut rng).attempts >= 4 {
                match survivors.connects(bg, plan.src, plan.delivery_dst()) {
                    true => searched += 1,
                    false => refused += 1,
                }
            }
        }
        assert!(!survivors.blocked().is_empty() && searched > 0);
        let counted = detours.map(|id| ftel.metrics.counter(id));
        assert_eq!(
            counted,
            [2 * searched, 2 * refused],
            "a replay counts again"
        );
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
                let (report, telem) = try_run_fleet_traced(
                    &exp,
                    &flows,
                    &FleetConfig {
                        workers: w,
                        seed: 6,
                        ..FleetConfig::default()
                    },
                    &TelemetryConfig::full(5),
                )
                .unwrap();
                assert_rungs_split_deliveries(&report);
                telem.expect("telemetry requested")
            })
            .collect();
        let detours = |t: &FleetTelemetry| {
            [tm::DETOUR_SEARCHES, tm::DETOURS_REJECTED_BY_LABELS].map(|id| t.metrics.counter(id))
        };
        assert!(
            detours(&runs[0])[0] > 0,
            "the ladder world searches for detours"
        );
        for (i, t) in runs.iter().enumerate().skip(1) {
            assert_eq!(
                detours(&runs[0]),
                detours(t),
                "detours, 1 vs {} workers",
                [1, 4, 8][i]
            );
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
        let m = &runs[0].metrics;
        assert_eq!(m.counter(tm::POSTMORTEMS), runs[0].postmortems.len() as u64);
    }

    #[test]
    fn postmortem_json_names_the_resolving_rung() {
        let mut scenario = FaultScenario::iid(0.3);
        scenario.retry = RetryPolicy::ladder();
        let exp = faulted_world(7, scenario);
        let flows = workload(&exp, 150, 7);
        let (report, telem) = try_run_fleet_traced(
            &exp,
            &flows,
            &FleetConfig {
                workers: 2,
                seed: 7,
                ..FleetConfig::default()
            },
            &TelemetryConfig::full(0),
        )
        .unwrap();
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
        let (report, telem) = try_run_fleet_traced(
            &exp,
            &flows,
            &FleetConfig {
                workers: 2,
                seed: 3,
                ..FleetConfig::default()
            },
            &TelemetryConfig::metrics_only(),
        )
        .unwrap();
        let telem = telem.expect("metrics requested");
        assert_rungs_split_deliveries(&report);
        assert!(telem.postmortems.is_empty());
        assert_eq!(telem.metrics.counter(tm::POSTMORTEMS), 0);
    }

    #[test]
    fn hier_planner_matches_flat_digest() {
        use citymesh_core::HierParams;
        let mut exp = world(9);
        exp.enable_hier(&HierParams::default());
        let flows = workload(&exp, 150, 9);
        let flat = try_run_fleet_traced(
            &exp,
            &flows,
            &FleetConfig {
                workers: 1,
                seed: 9,
                ..FleetConfig::default()
            },
            &TelemetryConfig::metrics_only(),
        )
        .unwrap();
        let hier = try_run_fleet_traced(
            &exp,
            &flows,
            &FleetConfig {
                workers: 1,
                seed: 9,
                use_hier_planner: true,
                ..FleetConfig::default()
            },
            &TelemetryConfig::metrics_only(),
        )
        .unwrap();
        // The hierarchical planner is exact, so swapping it in changes
        // no route and no outcome: the reports are bit-identical.
        assert_eq!(flat.0.digest(), hier.0.digest());
        let fm = flat.1.expect("metrics requested").metrics;
        let hm = hier.1.expect("metrics requested").metrics;
        assert_eq!(fm.counter(tm::HIER_QUERIES), 0, "flat run plans flat");
        assert!(hm.counter(tm::HIER_QUERIES) > 0, "hier run must use hier");
        assert!(hm.counter(tm::HIER_EXPANSIONS) > 0);
        // Either planner asks the AP graph for ideal hops once per
        // planned flow that has a live source AP (one worker, so no
        // pair is planned twice).
        let queries = fm.counter(tm::IDEAL_HOPS_QUERIES);
        assert!(queries > 0 && queries <= 150);
        assert_eq!(hm.counter(tm::IDEAL_HOPS_QUERIES), queries);
        assert!(fm.counter(tm::IDEAL_HOPS_SETTLED) > queries);
        // Parallel hier runs still merge to the same digest.
        let par = try_run_fleet(
            &exp,
            &flows,
            &FleetConfig {
                workers: 4,
                seed: 9,
                use_hier_planner: true,
                ..FleetConfig::default()
            },
        )
        .unwrap();
        assert_eq!(par.digest(), hier.0.digest());
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
        // The same config runs fine once the overlay exists.
        let mut hier_exp = world(10);
        hier_exp.enable_hier(&citymesh_core::HierParams::default());
        assert_eq!(cfg.validate(&hier_exp), Ok(()));
        let ok = try_run_fleet(&hier_exp, &flows, &cfg).expect("hier enabled");
        assert_eq!(ok.flows, flows.len() as u64);
    }

    #[test]
    fn empty_workload_yields_empty_report() {
        let exp = world(5);
        let r = try_run_fleet(
            &exp,
            &[],
            &FleetConfig {
                workers: 3,
                seed: 5,
                ..FleetConfig::default()
            },
        )
        .unwrap();
        assert_eq!(r.flows, 0);
        assert_eq!(r.delivery_rate(), 0.0);
        assert!(r.latency_ms().is_empty());
    }
}
