//! The one flow executor, the one worker pool, the one fold.
//!
//! Every engine in the workspace runs flows the same way: cache
//! hit-or-plan, derive the flow's private sub-streams, simulate, and
//! hand the outcomes of a run of consecutive flows to a fold that
//! absorbs them in ascending flow-id order as soon as every earlier
//! flow's are in. [`FlowExecutor`] is the per-worker half of that (it
//! owns the scratch buffers and the worker's metric set), [`run_pool`]
//! the threads, [`OrderedFold`] the canonical order. The fleet engine
//! is "executor over a slice", the stream engine "executor behind
//! admission", the churn engine "executor between barriers".

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use citymesh_core::{
    CityExperiment, DeliveryScratch, FlowOpts, PairOutcome, PlanScratch, PlannedFlow,
};
use citymesh_simcore::{substream_seed, SimRng};
use citymesh_telemetry::{
    metrics as tm, MetricSet, Postmortem, RecoveryStage, TelemetryConfig, TraceConfig,
};

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

/// The one in-order fold: workers hand in parts of a call's outcome
/// stream as they finish them, and the sink absorbs them in sequence
/// order, whichever worker finished first.
///
/// A part is keyed by a sequence number and a slot `0..slots`. The sink
/// is called once per sequence `k`, with that sequence's `slots` parts
/// in slot order, as soon as every slot of `k` and of every sequence
/// before it has been handed in — so a sink that walks its parts in
/// flow-id order folds every flow in ascending id, and floating-point
/// sums see one operand order at any worker count. The fleet engine
/// hands in one part per claimed chunk (`slots == 1`); the stream
/// engine one part per worker per window of flows.
///
/// Parts that arrive early wait in a queue of sequences until the gap
/// before them closes, and no further ahead than `ahead` sequences: a
/// worker handing in a part for sequence `next + ahead` or later, where
/// `next` is the sequence the sink sees next, waits until the gap
/// closes. So a call holds at most `ahead × slots` parts, however
/// slow its slowest worker. The worker that owes sequence `next` has
/// handed in everything it finished before it, so it never waits, and
/// the fold always moves. With one worker every part arrives in order
/// and is absorbed at once. Submitting trades the worker's buffer for a
/// cleared one with its capacity, so after the first few parts the fold
/// allocates nothing.
///
/// A worker that may panic holds a [`OrderedFold::worker`] guard: if
/// it unwinds, the fold is abandoned, every waiting submitter returns,
/// and the pool can join and re-raise the panic.
pub struct OrderedFold<R, S> {
    slots: usize,
    ahead: usize,
    state: Mutex<FoldState<R, S>>,
    /// Signalled when the sink moves past a sequence, or the fold is
    /// abandoned.
    moved: Condvar,
}

struct FoldState<R, S> {
    /// The sequence the sink sees next.
    next: usize,
    /// The parts of sequences `next..`, `slots` per sequence, slot
    /// order within each.
    parts: VecDeque<Vec<R>>,
    /// How many slots of each sequence in `parts` have been handed in.
    arrived: VecDeque<usize>,
    /// Cleared buffers, capacity kept, handed back to submitters.
    spare: Vec<Vec<R>>,
    /// A worker panicked: nothing more is absorbed.
    abandoned: bool,
    sink: S,
}

impl<R, S: FnMut(usize, &mut [Vec<R>])> OrderedFold<R, S> {
    /// A fold expecting `slots` parts per sequence, starting at
    /// sequence 0, holding parts at most `ahead` sequences past the
    /// next one the sink sees.
    pub fn new(slots: usize, ahead: usize, sink: S) -> Self {
        assert!(slots > 0, "a sequence has at least one part");
        assert!(ahead > 0, "the next sequence is always accepted");
        OrderedFold {
            slots,
            ahead,
            state: Mutex::new(FoldState {
                next: 0,
                parts: VecDeque::new(),
                arrived: VecDeque::new(),
                spare: Vec::new(),
                abandoned: false,
                sink,
            }),
            moved: Condvar::new(),
        }
    }

    /// Hands in the part for `(seq, slot)` and absorbs every sequence
    /// that is now complete and next in line, first waiting while `seq`
    /// is `ahead` or more sequences past the next one. `part` comes
    /// back empty. Each `(seq, slot)` must be handed in exactly once.
    /// On an abandoned fold it returns at once and absorbs nothing.
    ///
    /// # Panics
    /// Panics when `slot` is out of range or `seq` was already
    /// absorbed.
    pub fn submit(&self, seq: usize, slot: usize, part: &mut Vec<R>) {
        assert!(slot < self.slots, "slot {slot} of {}", self.slots);
        // A poisoned lock is a sink that panicked, an abandoned fold a
        // worker that did: either way the call is over.
        let waited = self.state.lock().and_then(|guard| {
            self.moved.wait_while(guard, |st| {
                !st.abandoned && seq >= st.next.saturating_add(self.ahead)
            })
        });
        let mut guard = match waited {
            Ok(guard) if !guard.abandoned => guard,
            _ => return part.clear(),
        };
        let st = &mut *guard;
        let ahead = seq
            .checked_sub(st.next)
            .expect("a sequence is not handed in after it was absorbed");
        while st.arrived.len() <= ahead {
            st.arrived.push_back(0);
            for _ in 0..self.slots {
                st.parts.push_back(st.spare.pop().unwrap_or_default());
            }
        }
        std::mem::swap(&mut st.parts[ahead * self.slots + slot], part);
        st.arrived[ahead] += 1;
        let was = st.next;
        while st.arrived.front() == Some(&self.slots) {
            let done = &mut st.parts.make_contiguous()[..self.slots];
            (st.sink)(st.next, done);
            for mut buf in st.parts.drain(..self.slots) {
                buf.clear();
                st.spare.push(buf);
            }
            st.arrived.pop_front();
            st.next += 1;
        }
        if st.next != was {
            self.moved.notify_all();
        }
    }

    /// Ends the fold, releasing whatever the sink borrows.
    ///
    /// # Panics
    /// Panics when a handed-in part still waits for an earlier one: a
    /// sequence was skipped, so the fold would silently miss flows.
    pub fn finish(self) {
        let st = self
            .state
            .into_inner()
            .expect("no worker panics while absorbing");
        assert!(
            st.arrived.is_empty(),
            "sequence {} was never handed in",
            st.next
        );
    }
}

impl<R, S> OrderedFold<R, S> {
    /// A guard for one worker feeding this fold: if the worker unwinds
    /// while holding it, the fold is abandoned.
    pub fn worker(&self) -> FoldWorker<'_, R, S> {
        FoldWorker(self)
    }
}

/// See [`OrderedFold::worker`]. Dropped while its thread panics, it
/// marks the fold abandoned and wakes every waiting submitter, which
/// would otherwise wait for a part that never comes.
pub struct FoldWorker<'a, R, S>(&'a OrderedFold<R, S>);

impl<R, S> Drop for FoldWorker<'_, R, S> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let fold = self.0;
            fold.state
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .abandoned = true;
            fold.moved.notify_all();
        }
    }
}

/// One worker's flow pipeline: the planner scratch, the delivery
/// scratch, the worker's metric set, the trace retention policy, and
/// the choices every flow shares (cache, seed, planner, plane).
///
/// Per-flow RNG sub-streams make outcomes independent of which worker
/// runs which flow, so the scratch reuse is invisible in every digest;
/// a warm executor runs a cache-hit flow with zero heap allocations.
/// The same sub-streams make a flow replayable, which is how it is
/// traced: every flow runs untraced, and only one the policy keeps is
/// simulated a second time with the tracer armed.
pub struct FlowExecutor<'a> {
    cache: &'a RouteCache,
    cfg: FleetConfig,
    trace: TraceConfig,
    plan_scratch: PlanScratch,
    scratch: DeliveryScratch,
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
            scratch: DeliveryScratch::with_tracing(tel.trace),
            metrics: tel.metrics.then(MetricSet::new),
        }
    }

    /// Cache hit-or-plan. Planning is RNG-free and a pure function of
    /// `(world, src, dst)`, so racing planners compute identical values.
    pub fn plan(&mut self, world: &CityExperiment, flow: &FlowSpec) -> Arc<PlannedFlow> {
        let (hier, scratch) = (self.cfg.use_hier_planner, &mut self.plan_scratch);
        self.cache.get_or_plan(flow.src, flow.dst, || {
            let mut plan = PlannedFlow::empty(flow.src, flow.dst);
            if hier {
                world.plan_flow_hier_into(flow.src, flow.dst, scratch, &mut plan);
            } else {
                world.plan_flow_into(flow.src, flow.dst, scratch, &mut plan);
            }
            plan
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
    /// stay schedule-independent after the worker-order merge; the
    /// hier-planner, ideal-hops, route-source, detour and
    /// key-derivation counters are schedule-dependent like
    /// the route cache's hit/miss totals (racing workers may
    /// double-plan, double-materialize or double-derive a pair, and
    /// whose request builds a source's or a destination's row is a
    /// race), so they are
    /// informational only and in no digest
    /// ([`tm::SCHEDULE_DEPENDENT`]).
    pub fn finish(mut self) -> (Option<MetricSet>, Vec<Postmortem>) {
        let postmortems = self.scratch.tracer_mut().take_postmortems();
        if let Some(m) = self.metrics.as_mut() {
            m.add(tm::KEYS_DERIVED, self.scratch.keys_derived());
            let d = self.scratch.detour_stats();
            m.add(tm::LADDERS_MATERIALIZED, d.materialized);
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

/// Folds one flow's outcome into a worker's metric set: which rung
/// delivered it, or whether it exhausted the ladder or never reached
/// the simulator, plus its attempts and broadcasts. The flow, delivery,
/// retry and sealing counts are the report's (DESIGN §9). Pure per-flow
/// arithmetic on integers, so per-worker sums merge deterministically.
fn record_flow_metrics(m: &mut MetricSet, o: &PairOutcome) {
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
    if o.delivered {
        let rung = o.recovered_by.unwrap_or(RecoveryStage::First);
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
    } else if o.attempts > 0 {
        m.inc(tm::EXHAUSTED);
    }
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

    /// Parts handed in and not yet absorbed.
    fn held<R, S>(fold: &OrderedFold<R, S>) -> usize {
        fold.state.lock().unwrap().arrived.iter().sum()
    }

    /// Polls `done` for up to ten seconds.
    fn eventually(done: impl Fn() -> bool) -> bool {
        (0..1_000).any(|_| {
            std::thread::sleep(std::time::Duration::from_millis(10));
            done()
        })
    }

    #[test]
    fn a_stalled_part_holds_the_others_at_the_cap() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        const AHEAD: usize = 4;
        let seen = Mutex::new(Vec::new());
        let fold = OrderedFold::new(1, AHEAD, |seq, parts: &mut [Vec<usize>]| {
            seen.lock()
                .unwrap()
                .extend(parts[0].iter().map(|&x| (seq, x)));
        });
        let sent = AtomicUsize::new(0);
        std::thread::scope(|s| {
            // Sequence 0 stalls; another worker finishes 1, 2, 3, ….
            s.spawn(|| {
                for seq in 1..=3 * AHEAD {
                    fold.submit(seq, 0, &mut vec![seq]);
                    sent.fetch_add(1, Ordering::SeqCst);
                }
            });
            assert!(eventually(|| held(&fold) == AHEAD - 1));
            std::thread::sleep(std::time::Duration::from_millis(50));
            assert_eq!(held(&fold), AHEAD - 1, "nothing past the cap is held");
            assert_eq!(sent.load(Ordering::SeqCst), AHEAD - 1, "the worker waits");
            fold.submit(0, 0, &mut vec![0]);
        });
        fold.finish();
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen, (0..=3 * AHEAD).map(|s| (s, s)).collect::<Vec<_>>());
    }

    #[test]
    fn a_panic_wakes_the_workers_waiting_behind_it() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let fold = OrderedFold::new(1, 2, |_, _: &mut [Vec<u32>]| {});
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_pool(0..2u32, |w| {
                    let _worker = fold.worker();
                    if w == 0 {
                        // Owes sequence 0; dies once the other waits.
                        assert!(eventually(|| held(&fold) == 1));
                        panic!("worker zero fails");
                    }
                    for seq in 1..6 {
                        fold.submit(seq, 0, &mut vec![0]);
                    }
                })
            }));
            let _ = tx.send(caught.map_err(|p| p.downcast_ref::<&str>().map(|m| m.to_string())));
        });
        let caught = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("run_pool returns instead of hanging");
        assert_eq!(caught.unwrap_err().as_deref(), Some("worker zero fails"));
    }
}
