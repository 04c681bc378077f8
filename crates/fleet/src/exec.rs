//! The one flow executor and the one worker pool.
//!
//! Every engine in the workspace runs flows the same way: cache
//! hit-or-plan, derive the flow's private sub-streams, simulate, and
//! fold the outcome into the worker's own report, which the call merges
//! with the other workers' once the pool joins. [`FlowExecutor`] is the
//! per-worker half of that (it owns the scratch buffers and the
//! worker's metric set), [`run_pool`] the threads. The fleet engine is
//! "executor over a slice", the stream engine "executor behind
//! admission", the churn engine "executor between barriers".

use std::sync::Arc;

use citymesh_core::{
    CityExperiment, DeliveryScratch, FlowOpts, PairOutcome, PlanScratch, PlannedFlow,
    SessionScratch,
};
use citymesh_simcore::{substream_seed, SimRng};
use citymesh_telemetry::{metrics as tm, MetricSet, Postmortem, TelemetryConfig, TraceConfig};

use crate::cache::RouteCache;
use crate::engine::FleetConfig;
use crate::workload::FlowSpec;

/// Sub-stream domain for per-flow delivery simulation randomness.
/// Public so guard tests and external replays derive the exact per-flow
/// streams every engine's [`FlowExecutor`] simulates with.
pub const DOMAIN_SIM: u64 = 0x51D3;
/// Sub-stream domain for per-flow message ids (public for the same
/// reason as [`DOMAIN_SIM`]).
pub const DOMAIN_MSG: u64 = 0x3564;

/// The worker count every engine runs with: `configured`, with `0`
/// meaning one per available CPU, capped by the `work` units there are
/// to hand out (claim chunks, modeled servers) and never below one.
pub fn resolve_workers(configured: usize, work: usize) -> usize {
    let wanted = match configured {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    wanted.min(work).max(1)
}

/// Runs `job` once per input, each on its own thread, and returns the
/// results in input order. A single input runs on the caller's thread —
/// the serial reference path, same per-flow code.
///
/// This is the workspace's one fork-join: every engine and every bench
/// sweep that runs work on several threads runs it here.
///
/// # Panics
/// Re-raises a worker's panic, with its own payload, once every worker
/// has stopped, rather than returning a truncated result.
pub fn run_pool<I: Send, T: Send>(
    inputs: impl IntoIterator<Item = I>,
    job: impl Fn(I) -> T + Sync,
) -> Vec<T> {
    let inputs: Vec<I> = inputs.into_iter().collect();
    if inputs.len() <= 1 {
        return inputs.into_iter().map(job).collect();
    }
    let job = &job;
    std::thread::scope(|s| {
        let workers: Vec<_> = inputs
            .into_iter()
            .map(|input| s.spawn(move || job(input)))
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

/// One worker's flow pipeline: the planner scratch, the plan buffer a
/// pair's first request plans into, the delivery scratch, the session
/// batch's buffers, the worker's metric set, the trace retention
/// policy, and the choices every flow shares (cache, seed, planner,
/// plane).
///
/// Per-flow RNG sub-streams make outcomes independent of which worker
/// runs which flow, so the scratch reuse is invisible in every digest;
/// a warm executor runs a cache-hit flow with zero heap allocations,
/// and a first-request flow with none beyond the cache's marker.
/// The same sub-streams make a flow replayable, which is how it is
/// traced: every flow runs untraced, and only one the policy keeps is
/// simulated a second time with the tracer armed.
pub struct FlowExecutor<'a> {
    cache: &'a RouteCache,
    cfg: FleetConfig,
    trace: TraceConfig,
    plan_scratch: PlanScratch,
    plan_buffer: Arc<PlannedFlow>,
    scratch: DeliveryScratch,
    sessions: SessionScratch,
    /// Session keys [`FlowExecutor::derive_sessions`] derived; the
    /// delivery scratch counts the flows' own.
    keys_derived: u64,
    metrics: Option<MetricSet>,
}

impl<'a> FlowExecutor<'a> {
    /// A cold executor; its buffers warm up over the first few flows.
    /// `cfg` must have passed [`FleetConfig::validate`] for the worlds
    /// this executor will be handed.
    pub fn new(cache: &'a RouteCache, cfg: &FleetConfig, tel: &TelemetryConfig) -> Self {
        FlowExecutor {
            cache,
            cfg: *cfg,
            trace: tel.trace,
            plan_scratch: PlanScratch::new(),
            plan_buffer: Arc::new(PlannedFlow::empty(0, 0)),
            scratch: DeliveryScratch::with_tracing(tel.trace),
            sessions: SessionScratch::new(),
            keys_derived: 0,
            metrics: tel.metrics.then(MetricSet::new),
        }
    }

    /// On the secure plane, derives the session keys `flows` will seal
    /// with in one batch ([`SecureState::derive_sessions`]: one field
    /// inversion for the lot), so each flow's own lookup hits. The
    /// fleet engine calls it on every chunk it claims. Keys are pure
    /// functions of their pairs, so no outcome changes; only the
    /// schedule-dependent derivation counters see who derived. A warm
    /// executor derives nothing here without allocating. A no-op on the
    /// plaintext plane.
    ///
    /// [`SecureState::derive_sessions`]: citymesh_core::SecureState::derive_sessions
    pub fn derive_sessions(&mut self, world: &CityExperiment, flows: &[FlowSpec]) {
        if !self.cfg.encrypted {
            return;
        }
        let secure = world
            .secure_state()
            .expect("a validated encrypted config has a secure plane");
        let pairs = flows.iter().map(|f| (f.src, f.dst));
        self.keys_derived += secure.derive_sessions(pairs, &mut self.sessions);
    }

    /// Cache hit-or-plan; a pair's first request plans into the
    /// executor's own buffer ([`RouteCache::get_or_plan_into`]), so the
    /// returned plan should be dropped before the next call. Planning is
    /// RNG-free and a pure function of `(world, src, dst)`, so racing
    /// planners compute identical values.
    pub fn plan(&mut self, world: &CityExperiment, flow: &FlowSpec) -> Arc<PlannedFlow> {
        let (hier, scratch) = (self.cfg.use_hier_planner, &mut self.plan_scratch);
        let buffer = &mut self.plan_buffer;
        self.cache
            .get_or_plan_into(flow.src, flow.dst, buffer, |plan| {
                if hier {
                    world.plan_flow_hier_into(flow.src, flow.dst, scratch, plan);
                } else {
                    world.plan_flow_into(flow.src, flow.dst, scratch, plan);
                }
            })
    }

    /// The flow's message id and its private simulation stream — the
    /// one place [`DOMAIN_MSG`] and [`DOMAIN_SIM`] are applied.
    fn substreams(&self, flow: &FlowSpec) -> (u64, SimRng) {
        let seed = self.cfg.seed;
        (
            substream_seed(seed, DOMAIN_MSG, flow.id),
            SimRng::new(substream_seed(seed, DOMAIN_SIM, flow.id)),
        )
    }

    /// Simulates `plan` on `world` — plain or sealed per the config —
    /// with at most `max_attempts` sends (`None` leaves the fault
    /// state's retry policy uncapped; the stream engine's second
    /// degradation rung passes `Some(1)`), and records the outcome in
    /// the worker's metrics.
    ///
    /// Trace by replay: the flow runs untraced, and when `trace` is set
    /// and the retention policy ([`TraceConfig::keeps`]) keeps its
    /// outcome, it runs once more from fresh copies of the same
    /// sub-streams with the tracer armed under the flow's workload id.
    /// A flow's outcome is a pure function of its plan, the world and
    /// those streams, so the replay records exactly the flow that ran,
    /// and captures are keyed by flow identity, never by scheduling.
    /// `trace: false` (the stream engine's first degradation rung)
    /// never replays.
    pub fn simulate(
        &mut self,
        world: &CityExperiment,
        plan: &PlannedFlow,
        flow: &FlowSpec,
        trace: bool,
        max_attempts: Option<u32>,
    ) -> PairOutcome {
        let opts = FlowOpts {
            sealed: self.cfg.encrypted,
            tamper: None,
            max_attempts,
        };
        let (msg_id, mut rng) = self.substreams(flow);
        let outcome = world.simulate_flow_opts(plan, msg_id, &mut rng, &mut self.scratch, opts);
        if trace
            && self
                .trace
                .keeps(flow.id, outcome.delivered, outcome.attempts)
        {
            let (msg_id, mut rng) = self.substreams(flow);
            self.scratch.tracer_mut().trace_next(flow.id);
            let replayed =
                world.simulate_flow_opts(plan, msg_id, &mut rng, &mut self.scratch, opts);
            debug_assert_eq!(replayed, outcome, "flow {} replayed differently", flow.id);
        }
        if let Some(m) = self.metrics.as_mut() {
            record_flow_metrics(m, &outcome);
        }
        outcome
    }

    /// Plan + simulate, traceable, uncapped: the common case.
    pub fn run(&mut self, world: &CityExperiment, flow: &FlowSpec) -> PairOutcome {
        let plan = self.plan(world, flow);
        self.simulate(world, &plan, flow, true, None)
    }

    /// Folds the worker's bookkeeping into its metric set and hands back
    /// the set plus the captured postmortems. The trace totals are read
    /// off those postmortems (sums and maxima over kept flows), so they
    /// stay schedule-independent after the merge, and so do the detour
    /// counters, which every flow (a replay included) counts for
    /// itself; the hier-planner, ideal-hops, route-source and
    /// key-derivation counters are schedule-dependent like the route
    /// cache's hit/miss totals (racing workers may double-plan or
    /// double-derive a pair, and whose request builds a source's or a
    /// destination's row is a race), so they are informational only
    /// and in no digest ([`tm::SCHEDULE_DEPENDENT`]).
    pub fn finish(mut self) -> (Option<MetricSet>, Vec<Postmortem>) {
        let postmortems = self.scratch.tracer_mut().take_postmortems();
        if let Some(m) = self.metrics.as_mut() {
            m.add(
                tm::KEYS_DERIVED,
                self.scratch.keys_derived() + self.keys_derived,
            );
            let d = self.scratch.detour_stats();
            m.add(tm::DETOURS_REJECTED_BY_LABELS, d.rejected_by_labels);
            m.add(tm::DETOUR_SEARCHES, d.searches);
            m.add(tm::POSTMORTEMS, postmortems.len() as u64);
            let dropped = postmortems.iter().map(|p| p.dropped_events).sum();
            m.add(tm::TRACE_DROPPED, dropped);
            let ring_high = postmortems.iter().map(|p| p.events.len()).max();
            m.gauge_max(tm::TRACE_HIGH_WATER, ring_high.unwrap_or(0) as u64);
            let h = self.plan_scratch.hier_stats();
            m.add(tm::HIER_QUERIES, h.queries);
            m.add(tm::HIER_DIRECT_ROUTES, h.direct_routes);
            m.add(tm::HIER_OVERLAY_SETTLED, h.overlay_settled);
            m.add(tm::HIER_EXPANSIONS, h.expansions);
            let hops = self.plan_scratch.hop_stats();
            m.add(tm::IDEAL_HOPS_QUERIES, hops.queries);
            m.add(tm::IDEAL_HOPS_SETTLED, hops.settled);
            m.add(tm::HOP_ROWS_BUILT, hops.rows_built);
            m.add(tm::HOPS_FROM_ROWS, hops.from_rows);
            let routes = self.plan_scratch.route_stats();
            m.add(tm::ROUTE_ROWS_BUILT, routes.rows_built);
            m.add(tm::ROUTES_FROM_ROWS, routes.from_rows);
            m.add(tm::ROUTE_SEARCHES, routes.searches);
        }
        (self.metrics, postmortems)
    }
}

/// Folds one flow's work into a worker's metric set: the attempts it
/// took and the broadcasts they cost. Which rung delivered it, how fast
/// and at what overhead are the report's (DESIGN §9). Integer adds and
/// maxima, so per-worker sets merge deterministically.
fn record_flow_metrics(m: &mut MetricSet, o: &PairOutcome) {
    m.add(tm::BROADCASTS, o.broadcasts);
    m.add(tm::ATTEMPTS, u64::from(o.attempts));
    m.gauge_max(tm::MAX_ATTEMPTS, u64::from(o.attempts));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_workers_maps_zero_to_cpus_and_caps_by_work() {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(resolve_workers(0, usize::MAX), cpus);
        assert_eq!(resolve_workers(3, usize::MAX), 3);
        assert_eq!(resolve_workers(8, 5), 5, "never more workers than work");
        assert_eq!(resolve_workers(0, 1), 1);
        assert_eq!(resolve_workers(4, 0), 1, "an empty run still has a worker");
    }

    #[test]
    fn run_pool_keeps_input_order_serial_and_threaded() {
        assert_eq!(run_pool([7u32], |x| x * 2), vec![14]);
        assert_eq!(run_pool(0..6u32, |x| x * x), vec![0, 1, 4, 9, 16, 25]);
        assert!(run_pool(0..0u32, |x| x).is_empty());
    }

    #[test]
    fn run_pool_re_raises_a_worker_panic() {
        let caught = std::panic::catch_unwind(|| {
            run_pool(0..3u32, |x| {
                assert_ne!(x, 1, "worker one fails");
                x
            })
        });
        let payload = caught.expect_err("the caller sees the panic");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(message.contains("worker one fails"), "{message}");
    }
}
