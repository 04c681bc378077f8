//! The epoch-barrier churn engine.
//!
//! [`try_run_churn`] drives one workload through a mutating world. The
//! flow set is partitioned by arrival time against the timeline's
//! event instants; each partition (an *epoch*) runs on the fleet
//! engine's worker pool against a frozen fault state, then the next
//! event is applied serially at the barrier — health flips, blocked
//! set, postbox table, fault-state epoch counter — and the shared
//! route cache is invalidated before the next epoch starts. Because
//! events are pre-materialized ([`Timeline`]) and flows carry per-flow
//! RNG sub-streams keyed by their global workload id, the whole run is
//! schedule-independent: 1 worker and 8 fold to the same
//! [`ChurnReport::digest`].
//!
//! # Invalidation
//!
//! The cache survives the barrier; the [`InvalidationPolicy`] decides
//! what must go:
//!
//! * [`InvalidationPolicy::FullFlush`] — drop everything, the safe
//!   baseline: every post-event flow replans.
//! * [`InvalidationPolicy::Incremental`] — evict only plans the event
//!   could observably touch: those whose source or destination
//!   building changed state (the sender's postbox uplink is baked into
//!   the cached plan), plus those with a changed AP inside one of
//!   their conduit rectangles (found through the AP graph's spatial
//!   bucket index, not a city scan). Everything else stays warm.
//!
//! Incremental eviction is digest-equal to a full flush — asserted by
//! proptests and the churn bench — because a kept plan's simulation
//! only consults the *live* fault state: route geometry is planned on
//! the stale pre-disaster map (the paper's assumption, enforced here),
//! per-AP health is read at delivery time, and the lazy retry-ladder
//! geometry is keyed by fault-state epoch inside the plan itself. The
//! only fault-dependent value a plan caches is its source postbox
//! uplink, and any event that changes it touches the source building —
//! which is exactly the first eviction criterion. The conduit-overlap
//! criterion is a deliberate conservative superset (it keeps the
//! policy honest if delivery ever grows a plan-time dependence on
//! conduit AP health), and the bench verifies it still evicts strictly
//! less than a flush.

use std::borrow::Cow;

use citymesh_core::{CityExperiment, FaultState, RetryPolicy};
use citymesh_fleet::{try_run_fleet_on_cache, FleetConfig, FleetTelemetry, FlowSpec, RouteCache};
use citymesh_simcore::Fnv64;
use citymesh_telemetry::TelemetryConfig;

use crate::timeline::Timeline;

/// How the sender population reacts to failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// One send over the pre-planned conduits; no reaction at all.
    /// The paper's static plan, the floor every reactive scheme must
    /// beat under churn.
    StaticPlan,
    /// The sender's full retry ladder: resend, widen, end-to-end
    /// replan (the PR-5 graceful-degradation machinery, unchanged).
    RetryLadder,
    /// Babel/QSPN-style reactive local repair
    /// ([`RetryPolicy::local_repair`]): splice a detour around the first
    /// dark building on each failure notification instead of
    /// re-planning end to end.
    ReactiveRepair,
}

impl Strategy {
    /// Stable lowercase label for reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::StaticPlan => "static",
            Strategy::RetryLadder => "ladder",
            Strategy::ReactiveRepair => "reactive",
        }
    }
}

/// What to evict from the route cache when an event lands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InvalidationPolicy {
    /// Evict only plans the event could observably touch (see the
    /// module docs for the exact criteria).
    Incremental,
    /// Drop the whole cache at every event.
    FullFlush,
}

/// Churn-engine execution knobs.
#[derive(Clone, Copy, Debug)]
pub struct ChurnEngineConfig {
    /// Worker threads per epoch (the fleet pool size). `0` means one
    /// per available CPU ([`citymesh_fleet::resolve_workers`]).
    pub workers: usize,
    /// Root seed for per-flow message-id and simulation sub-streams —
    /// use the same seed as the plain fleet runs you compare against.
    pub seed: u64,
    /// Cache invalidation policy at event barriers.
    pub invalidation: InvalidationPolicy,
    /// Send attempts for [`Strategy::ReactiveRepair`] (the ladder's
    /// budget is [`RetryPolicy::ladder`]'s).
    pub reactive_max_attempts: u32,
}

impl Default for ChurnEngineConfig {
    fn default() -> Self {
        ChurnEngineConfig {
            workers: 1,
            seed: 0,
            invalidation: InvalidationPolicy::Incremental,
            reactive_max_attempts: 4,
        }
    }
}

/// One epoch's summary inside a [`ChurnReport`].
#[derive(Clone, Debug)]
pub struct EpochStat {
    /// Fault-state epoch the flows of this slice simulated against.
    pub epoch: u64,
    /// Flows simulated in this epoch.
    pub flows: u64,
    /// Aggregate digest of this epoch's flow outcomes.
    pub fleet_digest: u64,
    /// Fault-state fingerprint *after* the event closing this epoch
    /// (equal to the pre-event fingerprint for the final epoch, which
    /// no event closes).
    pub fault_fingerprint: u64,
    /// APs whose health the closing event actually flipped (0 for the
    /// final epoch).
    pub aps_changed: u64,
    /// Cached routes evicted at the closing barrier (0 for the final
    /// epoch).
    pub evicted: u64,
}

/// Aggregate result of one churn run.
///
/// The digest-bearing fields describe *outcomes* (what was delivered,
/// under which world) and are identical across worker counts and
/// invalidation policies; the cost fields (evictions, planner
/// invocations) describe *work* and are exactly what the policies
/// trade off.
#[derive(Clone, Debug, Default)]
pub struct ChurnReport {
    /// Flows simulated across all epochs.
    pub flows: u64,
    /// Flows delivered.
    pub delivered: u64,
    /// Flows that needed more than one send attempt.
    pub retried: u64,
    /// Retried flows ultimately delivered.
    pub recovered: u64,
    /// Deliveries by the rung that made them, in
    /// [`RecoveryStage::ALL`](citymesh_core::RecoveryStage::ALL) order.
    /// Covered by the digest through the epochs' fleet digests, which
    /// carry the rung split whenever a flow retried.
    pub rung_deliveries: [u64; 4],
    /// Epochs executed (`timeline.len() + 1`).
    pub epochs: u64,
    /// World events applied.
    pub events_applied: u64,
    /// Total per-AP health flips across all events.
    pub aps_changed: u64,
    /// Cached routes evicted across all barriers. **Not** covered by
    /// the digest (it is the policy cost being measured).
    pub routes_evicted: u64,
    /// Planner invocations (the run's route-cache misses). **Not**
    /// covered by the digest.
    pub routes_planned: u64,
    /// The run's route-cache hits. **Not** covered by the digest.
    pub cache_hits: u64,
    /// Fingerprint of the timeline this run replayed.
    pub timeline_fingerprint: u64,
    /// Per-epoch summaries, in execution order.
    pub epoch_stats: Vec<EpochStat>,
}

impl ChurnReport {
    /// Delivered fraction over all flows.
    pub fn delivery_rate(&self) -> f64 {
        if self.flows == 0 {
            return 0.0;
        }
        self.delivered as f64 / self.flows as f64
    }

    /// FNV-1a over the outcome-bearing state: per-epoch fleet digests
    /// and fault fingerprints in order, the timeline fingerprint, and
    /// the aggregate outcome counters. Work-accounting fields
    /// (evictions, planner invocations, repair bills) are excluded —
    /// equal digests across invalidation policies is the correctness
    /// claim, differing work is the point.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.mix(self.flows);
        h.mix(self.delivered);
        h.mix(self.retried);
        h.mix(self.recovered);
        h.mix(self.epochs);
        h.mix(self.events_applied);
        h.mix(self.aps_changed);
        h.mix(self.timeline_fingerprint);
        for e in &self.epoch_stats {
            h.mix(e.epoch);
            h.mix(e.flows);
            h.mix(e.fleet_digest);
            h.mix(e.fault_fingerprint);
        }
        h.value()
    }
}

/// A churn run rejected before any epoch started: the experiment is
/// missing a prerequisite the engine's correctness argument needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnError {
    /// The experiment carries no fault state, so there is nothing for
    /// world events to mutate.
    MissingFaultState,
}

impl std::fmt::Display for ChurnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnError::MissingFaultState => write!(
                f,
                "world events require a fault state; prepare the experiment with a scenario"
            ),
        }
    }
}

impl std::error::Error for ChurnError {}

/// The prerequisite every engine that replays world events checks
/// before its first epoch: a fault state to mutate.
pub fn require_fault_state(exp: &CityExperiment) -> Result<&FaultState, ChurnError> {
    exp.fault_state().ok_or(ChurnError::MissingFaultState)
}

/// What one event barrier did to the world and the route cache.
#[derive(Clone, Copy, Debug)]
pub struct Barrier {
    /// APs whose health the event actually flipped.
    pub aps_changed: u64,
    /// Fault-state fingerprint after the event.
    pub fault_fingerprint: u64,
    /// Cached routes the invalidation policy evicted.
    pub evicted: u64,
}

/// The one epoch/barrier driver. Partitions `flows` at each `timeline`
/// event by `arrival_ms < at_ms` (ties go to the event: the flow sees
/// the post-event world), hands every slice to `epoch` together with
/// the world frozen for it, then applies the event serially at the
/// barrier — health flips, blocked set, postbox table, fault-state
/// epoch counter — and invalidates `cache` per `invalidation`. Returns
/// each epoch's result with the barrier that closed it (`None` for the
/// final epoch).
///
/// `world` is cloned only when an event actually mutates it. `flows`
/// must be sorted by ascending id with nondecreasing `arrival_ms`.
pub fn run_epochs<T>(
    flows: &[FlowSpec],
    timeline: &Timeline,
    invalidation: InvalidationPolicy,
    cache: &RouteCache,
    mut world: Cow<'_, CityExperiment>,
    mut epoch: impl FnMut(&CityExperiment, &[FlowSpec]) -> T,
) -> Vec<(T, Option<Barrier>)> {
    debug_assert!(
        flows.windows(2).all(|w| w[0].id < w[1].id),
        "flows must be sorted by ascending id"
    );
    debug_assert!(
        flows.windows(2).all(|w| w[0].arrival_ms <= w[1].arrival_ms),
        "flow arrivals must be nondecreasing"
    );
    let mut out = Vec::with_capacity(timeline.len() + 1);
    let mut rest = flows;
    for k in 0..=timeline.len() {
        let event = timeline.events().get(k);
        let (slice, later) = match event {
            Some(ev) => rest.split_at(rest.partition_point(|f| f.arrival_ms < ev.at_ms)),
            None => (rest, &rest[rest.len()..]),
        };
        rest = later;
        let result = epoch(&world, slice);
        let barrier = event.map(|ev| {
            let transition = world.to_mut().apply_world_event(&ev.changes);
            let evicted = match invalidation {
                InvalidationPolicy::FullFlush => cache.clear(),
                InvalidationPolicy::Incremental => cache.evict_stale(
                    world.ap_graph(),
                    transition.touched_buildings.iter().copied(),
                    ev.changes.iter().map(|&(ap, _)| ap),
                ),
            };
            Barrier {
                aps_changed: transition.aps_changed as u64,
                fault_fingerprint: transition.fingerprint,
                evicted,
            }
        });
        out.push((result, barrier));
    }
    out
}

/// Runs `flows` through the mutating world described by `timeline`.
///
/// `exp` must carry a fault state (prepare it with a scenario — the
/// engine mutates a private clone, the caller's world is untouched);
/// without one the run is a typed [`ChurnError`]. Epoch boundaries are
/// [`run_epochs`]'s.
///
/// Returns the report plus merged telemetry when `tel` asks for any —
/// the per-epoch metric sets, merged commutatively. What the barriers
/// did (events applied, APs changed, routes evicted) is the report's
/// alone. The report digest is identical traced or untraced, exactly
/// like the fleet engine's.
///
/// # Panics
/// Panics when a worker thread panics mid-run.
pub fn try_run_churn(
    exp: &CityExperiment,
    flows: &[FlowSpec],
    timeline: &Timeline,
    strategy: Strategy,
    cfg: &ChurnEngineConfig,
    tel: &TelemetryConfig,
) -> Result<(ChurnReport, Option<FleetTelemetry>), ChurnError> {
    try_run_churn_on_cache(exp, flows, timeline, strategy, cfg, &RouteCache::new(), tel)
}

/// [`try_run_churn`] against a caller-owned [`RouteCache`], which must
/// hold nothing but plans of `exp`'s pre-event world (or markers). A
/// cache that has seen the run's pairs once stores each on its first
/// request in the run, where a fresh one stores only pairs the run
/// repeats. Outcomes and digest are the same either way; the report's
/// `routes_planned` and `cache_hits` count this run's requests only.
pub fn try_run_churn_on_cache(
    exp: &CityExperiment,
    flows: &[FlowSpec],
    timeline: &Timeline,
    strategy: Strategy,
    cfg: &ChurnEngineConfig,
    cache: &RouteCache,
    tel: &TelemetryConfig,
) -> Result<(ChurnReport, Option<FleetTelemetry>), ChurnError> {
    // The engine's private world; the sender population's reaction is
    // the fault state's retry policy.
    require_fault_state(exp)?;
    let mut world = exp.clone();
    world.set_retry(match strategy {
        Strategy::StaticPlan => RetryPolicy::none(),
        Strategy::RetryLadder => RetryPolicy::ladder(),
        Strategy::ReactiveRepair => RetryPolicy::local_repair(cfg.reactive_max_attempts.max(1)),
    });

    let (misses0, hits0) = (cache.misses(), cache.hits());
    let fleet_cfg = FleetConfig {
        workers: cfg.workers,
        seed: cfg.seed,
        ..FleetConfig::default()
    };
    let mut report = ChurnReport {
        timeline_fingerprint: timeline.fingerprint(),
        epoch_stats: Vec::with_capacity(timeline.len() + 1),
        ..ChurnReport::default()
    };
    let mut telemetry = (!tel.is_off()).then(FleetTelemetry::default);

    let epochs = run_epochs(
        flows,
        timeline,
        cfg.invalidation,
        cache,
        Cow::Owned(world),
        |world, slice| {
            let state = world
                .fault_state()
                .expect("world was prepared with a fault state");
            let (fleet, epoch_tel) = try_run_fleet_on_cache(world, slice, &fleet_cfg, cache, tel)
                .expect("the flat plaintext fleet config has no prerequisites");
            (state.epoch(), state.fingerprint(), fleet, epoch_tel)
        },
    );
    let mut harvests = Vec::new();
    for ((epoch, fault_fingerprint, fleet, epoch_tel), barrier) in epochs {
        harvests.extend(epoch_tel.map(|e| (Some(e.metrics), e.postmortems)));
        report.flows += fleet.flows;
        report.delivered += fleet.delivered;
        report.retried += fleet.retried;
        report.recovered += fleet.recovered;
        for (total, rung) in report.rung_deliveries.iter_mut().zip(&fleet.rungs) {
            *total += rung.delivered;
        }
        report.epochs += 1;
        // The final epoch, which no event closes, keeps its pre-event
        // fingerprint and zero barrier costs.
        let mut stat = EpochStat {
            epoch,
            flows: fleet.flows,
            fleet_digest: fleet.digest(),
            fault_fingerprint,
            aps_changed: 0,
            evicted: 0,
        };
        if let Some(b) = barrier {
            report.events_applied += 1;
            report.aps_changed += b.aps_changed;
            report.routes_evicted += b.evicted;
            stat.aps_changed = b.aps_changed;
            stat.evicted = b.evicted;
            stat.fault_fingerprint = b.fault_fingerprint;
        }
        report.epoch_stats.push(stat);
    }

    if let Some(t) = telemetry.as_mut() {
        t.absorb(harvests);
    }
    report.routes_planned = cache.misses() - misses0;
    report.cache_hits = cache.hits() - hits0;
    Ok((report, telemetry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::ChurnConfig;
    use citymesh_core::{ExperimentConfig, FaultScenario, RecoveryStage};
    use citymesh_fleet::{generate_flows, FlowModel, WorkloadConfig};
    use citymesh_map::CityArchetype;
    use citymesh_telemetry::{metrics as tm, TraceEvent};

    fn world(seed: u64) -> CityExperiment {
        CityExperiment::prepare(
            CityArchetype::SurveyDowntown.generate(seed),
            ExperimentConfig {
                seed,
                faults: Some(FaultScenario::district_blackouts(1, 100.0)),
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
                    rate_hz: 150.0,
                },
                seed,
            },
        )
    }

    fn run(
        exp: &CityExperiment,
        flows: &[FlowSpec],
        tl: &Timeline,
        strategy: Strategy,
        workers: usize,
        invalidation: InvalidationPolicy,
    ) -> ChurnReport {
        try_run_churn(
            exp,
            flows,
            tl,
            strategy,
            &ChurnEngineConfig {
                workers,
                seed: 33,
                invalidation,
                reactive_max_attempts: 4,
            },
            &TelemetryConfig::off(),
        )
        .unwrap()
        .0
    }

    #[test]
    fn epochs_partition_the_workload_and_events_apply() {
        let exp = world(33);
        let flows = workload(&exp, 300, 33);
        let tl = Timeline::materialize(
            &exp,
            &ChurnConfig {
                seed: 33,
                horizon_ms: flows.last().unwrap().arrival_ms,
                ..ChurnConfig::default()
            },
        );
        assert!(!tl.is_empty());
        for strategy in [
            Strategy::StaticPlan,
            Strategy::RetryLadder,
            Strategy::ReactiveRepair,
        ] {
            let r = run(
                &exp,
                &flows,
                &tl,
                strategy,
                1,
                InvalidationPolicy::Incremental,
            );
            assert_eq!(r.flows, flows.len() as u64, "{}", strategy.label());
            assert_eq!(r.epochs, tl.len() as u64 + 1);
            assert_eq!(r.events_applied, tl.len() as u64);
            assert!(r.aps_changed > 0, "events must flip some APs");
            assert_eq!(
                r.epoch_stats.iter().map(|e| e.flows).sum::<u64>(),
                r.flows,
                "epochs partition the workload"
            );
            assert!(r.delivered > 0);
        }
    }

    #[test]
    fn digests_are_worker_count_invariant() {
        let exp = world(34);
        let flows = workload(&exp, 240, 34);
        let tl = Timeline::materialize(
            &exp,
            &ChurnConfig {
                seed: 34,
                horizon_ms: flows.last().unwrap().arrival_ms,
                ..ChurnConfig::default()
            },
        );
        for strategy in [
            Strategy::StaticPlan,
            Strategy::RetryLadder,
            Strategy::ReactiveRepair,
        ] {
            let serial = run(
                &exp,
                &flows,
                &tl,
                strategy,
                1,
                InvalidationPolicy::Incremental,
            );
            let parallel = run(
                &exp,
                &flows,
                &tl,
                strategy,
                4,
                InvalidationPolicy::Incremental,
            );
            assert_eq!(
                serial.digest(),
                parallel.digest(),
                "{}: serial and 4-worker churn runs must agree",
                strategy.label()
            );
            assert_eq!(serial.routes_evicted, parallel.routes_evicted);
            // `workers: 0` is "one per CPU" for every strategy (they all
            // resolve through `citymesh_fleet::resolve_workers`).
            let per_cpu = run(
                &exp,
                &flows,
                &tl,
                strategy,
                0,
                InvalidationPolicy::Incremental,
            );
            assert_eq!(serial.digest(), per_cpu.digest(), "{}", strategy.label());
        }
    }

    #[test]
    fn incremental_eviction_is_digest_equal_and_cheaper() {
        let exp = world(35);
        // The cache stores a pair on its second request, so the traffic
        // must repeat pairs for there to be plans the events could spare:
        // at 300 of these flows a dozen plans are stored and every event
        // stales all of them.
        let flows = workload(&exp, 1_200, 35);
        let tl = Timeline::materialize(
            &exp,
            &ChurnConfig {
                aftershocks: 2,
                battery_waves: 1,
                crew_repairs: 1,
                seed: 35,
                horizon_ms: flows.last().unwrap().arrival_ms,
                ..ChurnConfig::default()
            },
        );
        for strategy in [Strategy::RetryLadder, Strategy::ReactiveRepair] {
            let incremental = run(
                &exp,
                &flows,
                &tl,
                strategy,
                2,
                InvalidationPolicy::Incremental,
            );
            let flush = run(
                &exp,
                &flows,
                &tl,
                strategy,
                2,
                InvalidationPolicy::FullFlush,
            );
            assert_eq!(
                incremental.digest(),
                flush.digest(),
                "{}: invalidation policy must not change outcomes",
                strategy.label()
            );
            assert!(
                incremental.routes_evicted < flush.routes_evicted,
                "{}: incremental must evict strictly fewer ({} vs {})",
                strategy.label(),
                incremental.routes_evicted,
                flush.routes_evicted
            );
            assert!(
                incremental.routes_planned <= flush.routes_planned,
                "{}: fewer evictions cannot mean more replans",
                strategy.label()
            );
        }
    }

    #[test]
    fn a_cache_that_has_seen_the_pairs_stores_them_at_once() {
        let exp = world(37);
        let flows = workload(&exp, 200, 37);
        let tl = Timeline::materialize(
            &exp,
            &ChurnConfig {
                seed: 37,
                horizon_ms: flows.last().unwrap().arrival_ms,
                ..ChurnConfig::default()
            },
        );
        let cfg = ChurnEngineConfig {
            workers: 2,
            seed: 37,
            ..ChurnEngineConfig::default()
        };
        let tel = TelemetryConfig::off();
        let cold = try_run_churn(&exp, &flows, &tl, Strategy::RetryLadder, &cfg, &tel)
            .unwrap()
            .0;
        let seen = RouteCache::new();
        for f in &flows {
            seen.get_or_plan(f.src, f.dst, || exp.plan_flow(f.src, f.dst));
        }
        let (misses, hits) = (seen.misses(), seen.hits());
        let warm =
            try_run_churn_on_cache(&exp, &flows, &tl, Strategy::RetryLadder, &cfg, &seen, &tel)
                .unwrap()
                .0;
        assert_eq!(warm.digest(), cold.digest(), "the cache changes no outcome");
        assert_eq!(warm.routes_planned, seen.misses() - misses);
        assert_eq!(warm.cache_hits, seen.hits() - hits);
        assert!(
            warm.routes_planned < cold.routes_planned,
            "a pair seen before is planned once, not twice ({} vs {})",
            warm.routes_planned,
            cold.routes_planned
        );
        assert!(warm.routes_evicted > cold.routes_evicted);
    }

    #[test]
    fn reactive_repairs_recover_flows_on_the_replan_rung() {
        let exp = world(36);
        let flows = workload(&exp, 300, 36);
        let tl = Timeline::materialize(
            &exp,
            &ChurnConfig {
                aftershocks: 3,
                seed: 36,
                horizon_ms: flows.last().unwrap().arrival_ms,
                ..ChurnConfig::default()
            },
        );
        let cfg = ChurnEngineConfig {
            workers: 2,
            seed: 36,
            ..ChurnEngineConfig::default()
        };
        let tel = TelemetryConfig::metrics_only();
        let run = |strategy| try_run_churn(&exp, &flows, &tl, strategy, &cfg, &tel).unwrap();
        let (reactive, telemetry) = run(Strategy::ReactiveRepair);
        let m = telemetry.expect("metrics were requested").metrics;
        assert!(
            m.counter(tm::DETOUR_SEARCHES) > 0,
            "aftershocks on a blacked-out downtown must trigger repairs"
        );
        let [_, _, widen, replan] = reactive.rung_deliveries;
        assert!(replan > 0, "a repaired route delivers");
        assert_eq!(widen, 0, "local repair never widens");
        assert!(reactive.recovered > 0);
        let (ladder, _) = run(Strategy::RetryLadder);
        let (r#static, _) = run(Strategy::StaticPlan);
        assert_eq!(r#static.retried, 0, "static never retries");
        assert!(
            ladder.delivered >= r#static.delivered && reactive.delivered >= r#static.delivered,
            "retrying can only help"
        );
    }

    #[test]
    fn reactive_runs_are_traced() {
        let exp = world(39);
        let flows = workload(&exp, 300, 39);
        let tl = Timeline::materialize(
            &exp,
            &ChurnConfig {
                aftershocks: 3,
                seed: 39,
                horizon_ms: flows.last().unwrap().arrival_ms,
                ..ChurnConfig::default()
            },
        );
        let cfg = ChurnEngineConfig {
            workers: 2,
            seed: 39,
            ..ChurnEngineConfig::default()
        };
        let strategy = Strategy::ReactiveRepair;
        let (untraced, _) =
            try_run_churn(&exp, &flows, &tl, strategy, &cfg, &TelemetryConfig::off()).unwrap();
        let (traced, telemetry) =
            try_run_churn(&exp, &flows, &tl, strategy, &cfg, &TelemetryConfig::full(7)).unwrap();
        assert_eq!(
            untraced.digest(),
            traced.digest(),
            "tracing is observation only"
        );
        let postmortems = telemetry.expect("tracing was requested").postmortems;
        let on_replan = |e: &TraceEvent| {
            matches!(
                e,
                TraceEvent::Attempt {
                    rung: RecoveryStage::Replan,
                    ..
                }
            )
        };
        assert!(
            postmortems.iter().any(|p| p.events.iter().any(on_replan)),
            "a repaired flow's trace shows its patched send"
        );
    }

    #[test]
    fn traced_runs_keep_the_digest_and_split_deliveries() {
        let exp = world(37);
        let flows = workload(&exp, 200, 37);
        let tl = Timeline::materialize(
            &exp,
            &ChurnConfig {
                seed: 37,
                horizon_ms: flows.last().unwrap().arrival_ms,
                ..ChurnConfig::default()
            },
        );
        let cfg = ChurnEngineConfig {
            workers: 2,
            seed: 37,
            ..ChurnEngineConfig::default()
        };
        for strategy in [Strategy::RetryLadder, Strategy::ReactiveRepair] {
            let (untraced, none) =
                try_run_churn(&exp, &flows, &tl, strategy, &cfg, &TelemetryConfig::off()).unwrap();
            assert!(none.is_none());
            let (traced, telemetry) = try_run_churn(
                &exp,
                &flows,
                &tl,
                strategy,
                &cfg,
                &TelemetryConfig::metrics_only(),
            )
            .unwrap();
            assert_eq!(
                untraced.digest(),
                traced.digest(),
                "{}: telemetry must not perturb churn outcomes",
                strategy.label()
            );
            assert!(telemetry.is_some(), "metrics were requested");
            assert_eq!(
                traced.rung_deliveries.iter().sum::<u64>(),
                traced.delivered,
                "{}: the rungs split the report's deliveries",
                strategy.label()
            );
        }
    }

    #[test]
    fn try_run_churn_types_every_rejection() {
        let flows = {
            let exp = world(40);
            workload(&exp, 20, 40)
        };
        // No fault state at all.
        let healthy = CityExperiment::prepare(
            CityArchetype::SurveyDowntown.generate(40),
            ExperimentConfig {
                seed: 40,
                ..ExperimentConfig::default()
            },
        );
        let tl = Timeline::materialize(&healthy, &ChurnConfig::default());
        let err = try_run_churn(
            &healthy,
            &flows,
            &tl,
            Strategy::RetryLadder,
            &ChurnEngineConfig::default(),
            &TelemetryConfig::off(),
        )
        .unwrap_err();
        assert_eq!(err, ChurnError::MissingFaultState);
        assert!(err.to_string().contains("fault state"));
    }

    #[test]
    fn empty_timeline_ladder_matches_plain_fleet() {
        // With no events, the churn engine is the fleet engine: one
        // epoch, same digest as try_run_fleet on the same world/workload.
        let exp = world(38);
        let flows = workload(&exp, 200, 38);
        let tl = Timeline::materialize(
            &exp,
            &ChurnConfig {
                aftershocks: 0,
                battery_waves: 0,
                crew_repairs: 0,
                seed: 38,
                ..ChurnConfig::default()
            },
        );
        let churn = run(
            &exp,
            &flows,
            &tl,
            Strategy::RetryLadder,
            2,
            InvalidationPolicy::Incremental,
        );
        assert_eq!(churn.epochs, 1);
        let fleet = citymesh_fleet::try_run_fleet(
            &exp,
            &flows,
            &FleetConfig {
                workers: 2,
                seed: 33,
                ..FleetConfig::default()
            },
        )
        .unwrap();
        assert_eq!(
            churn.epoch_stats[0].fleet_digest,
            fleet.digest(),
            "an event-free churn run is exactly a fleet run"
        );
    }
}
