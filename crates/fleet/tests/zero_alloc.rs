//! Proof that the steady-state per-flow path — route planning *and*
//! delivery simulation — performs zero heap allocations once a
//! worker's [`PlanScratch`] and [`DeliveryScratch`] have warmed up.
//!
//! A counting `#[global_allocator]` wraps the system allocator and
//! tallies every `alloc` / `realloc` / `alloc_zeroed` issued by *this*
//! thread (thread-local counters keep the tally immune to the test
//! harness's other threads). The test runs every flow once to warm the
//! scratch — first-ever touches of AP slots, heap growth to the
//! high-water mark — then replays the identical flow set with counting
//! enabled and asserts the count is exactly zero.
//!
//! This is an integration test (not a unit test in the lib) because a
//! crate can have only one global allocator and the libs are built
//! with `#![forbid(unsafe_code)]`; `GlobalAlloc` is an unsafe trait.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use citymesh_core::{CityExperiment, DeliveryScratch, ExperimentConfig, PlanScratch, PlannedFlow};
use citymesh_fleet::{generate_flows, FlowModel, WorkloadConfig};
use citymesh_map::CityArchetype;
use citymesh_simcore::{substream_seed, SimRng};

thread_local! {
    // `const` initializer: the TLS slot needs no lazy-init bookkeeping,
    // so reading/updating it from inside the allocator cannot recurse
    // into the allocator.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn tally() {
        COUNTING.with(|on| {
            if on.get() {
                ALLOCS.with(|n| n.set(n.get() + 1));
            }
        });
    }
}

// SAFETY: defers all memory management to `System`; only adds counter
// updates, which allocate nothing themselves (const-init thread-locals).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::tally();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::tally();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::tally();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with this thread's allocation counter armed and returns
/// how many heap allocations it performed.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (ALLOCS.with(|n| n.get()), out)
}

const DOMAIN_SIM: u64 = 0x51D3;
const DOMAIN_MSG: u64 = 0x3564;

#[test]
fn steady_state_flow_loop_allocates_nothing() {
    let map = CityArchetype::SurveyDowntown.generate(11);
    let exp = CityExperiment::prepare(
        map,
        ExperimentConfig {
            seed: 11,
            ..ExperimentConfig::default()
        },
    );
    let flows = generate_flows(
        exp.map().len(),
        &WorkloadConfig {
            flows: 64,
            model: FlowModel::UniformPairs { rate_hz: 200.0 },
            seed: 11,
        },
    );

    // Planning is measured too: a worker's steady-state loop is
    // plan-into-scratch followed by simulate, so the counted region
    // covers both halves with the buffers reused across flows.
    let mut plan_scratch = PlanScratch::new();
    let mut plan = PlannedFlow::empty(0, 0);
    let mut scratch = DeliveryScratch::new();

    // Warm-up: one full pass grows every scratch buffer to its
    // high-water mark for this flow set.
    let mut warm_broadcasts = 0u64;
    for flow in &flows {
        exp.plan_flow_into(flow.src, flow.dst, &mut plan_scratch, &mut plan);
        let msg_id = substream_seed(11, DOMAIN_MSG, flow.id);
        let mut rng = SimRng::new(substream_seed(11, DOMAIN_SIM, flow.id));
        let outcome = exp.simulate_flow_with(&plan, msg_id, &mut rng, &mut scratch);
        warm_broadcasts += outcome.broadcasts;
    }
    assert!(
        warm_broadcasts > 0,
        "workload must actually exercise the simulator"
    );

    // Measured pass: identical flows, identical RNG sub-streams, warm
    // scratch. Per-flow sub-streams make each flow's trace independent
    // of history, so this pass retraces the warm-up exactly and must
    // stay within the warmed capacity everywhere.
    let (allocs, measured_broadcasts) = count_allocs(|| {
        let mut total = 0u64;
        for flow in &flows {
            exp.plan_flow_into(flow.src, flow.dst, &mut plan_scratch, &mut plan);
            let msg_id = substream_seed(11, DOMAIN_MSG, flow.id);
            let mut rng = SimRng::new(substream_seed(11, DOMAIN_SIM, flow.id));
            let outcome = exp.simulate_flow_with(&plan, msg_id, &mut rng, &mut scratch);
            total += outcome.broadcasts;
        }
        total
    });

    assert_eq!(
        measured_broadcasts, warm_broadcasts,
        "measured pass must replay the warm-up exactly"
    );
    assert_eq!(
        allocs,
        0,
        "steady-state plan+simulate path must perform zero heap \
         allocations (counted {allocs} over {} flows)",
        flows.len()
    );
}

#[test]
fn a_source_crossing_the_row_threshold_allocates_its_row_and_nothing_after() {
    // The cases around this one never ask one source sixteen times, so
    // they never leave the search. Here five sources do. The request
    // that buys a source's row runs the full tree on the caller's warm
    // `PlanScratch` and allocates one thing — the row, `2 × buildings`
    // bytes, which the building graph keeps for good; every flow after
    // that is a row walk and allocates nothing.
    let map = CityArchetype::SurveyDowntown.generate(37);
    let exp = CityExperiment::prepare(
        map,
        ExperimentConfig {
            seed: 37,
            ..ExperimentConfig::default()
        },
    );
    let n = exp.map().len() as u32;
    let flow = |src: u32, i: u32| (src, (src + 1 + i * 31) % n);
    let sources = [3u32, 140, 277, 401, 512];
    let first_fifteen = || {
        sources
            .iter()
            .flat_map(|&s| (0..15).map(move |i| flow(s, i)))
    };
    // A repeat of the source's first flow, so that everything
    // downstream of the route is as warm as the route search is.
    let sixteenth = || sources.iter().map(|&s| flow(s, 0));

    let mut plan_scratch = PlanScratch::new();
    let mut plan = PlannedFlow::empty(0, 0);
    let mut scratch = DeliveryScratch::new();
    let mut pass = |flows: &mut dyn Iterator<Item = (u32, u32)>| {
        let mut broadcasts = 0u64;
        for (src, dst) in flows {
            exp.plan_flow_into(src, dst, &mut plan_scratch, &mut plan);
            let id = u64::from(src) << 32 | u64::from(dst);
            let msg_id = substream_seed(37, DOMAIN_MSG, id);
            let mut rng = SimRng::new(substream_seed(37, DOMAIN_SIM, id));
            broadcasts += exp
                .simulate_flow_with(&plan, msg_id, &mut rng, &mut scratch)
                .broadcasts;
        }
        (broadcasts, plan_scratch.route_stats())
    };

    // Warm-up: fifteen searches a source, then the first source's
    // sixteenth — its tree grows the search heap to whole-graph size,
    // once per scratch like every other buffer.
    let (warm_broadcasts, warm) = pass(&mut first_fifteen().chain(sixteenth().take(1)));
    assert!(warm_broadcasts > 0, "the flows must reach the simulator");
    assert_eq!((warm.rows_built, warm.from_rows, warm.searches), (1, 1, 75));

    // The other four cross the line inside the counted region.
    let (allocs, (_, crossed)) = count_allocs(|| pass(&mut sixteenth().skip(1)));
    assert_eq!((crossed.rows_built, crossed.from_rows), (5, 5));
    assert_eq!(
        allocs, 4,
        "building a row may allocate the row and nothing else \
         (counted {allocs} over 4 rows)"
    );

    // After the line: the same flows again, every one a row walk.
    let (allocs, (replayed, after)) =
        count_allocs(|| pass(&mut first_fifteen().chain(sixteenth().take(1))));
    assert_eq!(
        replayed, warm_broadcasts,
        "the replay must retrace the warm-up"
    );
    assert_eq!((after.from_rows, after.searches), (5 + 76, 75));
    assert_eq!(
        allocs, 0,
        "flows served from a row must perform zero heap allocations \
         (counted {allocs} over 76 flows)"
    );
}

#[test]
fn a_destination_crossing_the_row_threshold_allocates_its_row_and_nothing_after() {
    // The twin of the case above, for the plan's other table: the AP
    // graph's per-destination hop rows. Five destinations are asked
    // sixteen times, from sources that are each asked once or twice (so
    // the route stays a search throughout). The query that buys a
    // destination's row floods the AP graph on the caller's warm
    // `PlanScratch` and allocates one thing — the row, `2 × APs` bytes,
    // which the AP graph keeps for good; every flow after that reads
    // its ideal hops from the row and allocates nothing.
    let map = CityArchetype::SurveyDowntown.generate(37);
    let exp = CityExperiment::prepare(
        map,
        ExperimentConfig {
            seed: 37,
            ..ExperimentConfig::default()
        },
    );
    let n = exp.map().len() as u32;
    let flow = |dst: u32, i: u32| ((dst + 1 + i * 31) % n, dst);
    let destinations = [3u32, 140, 277, 401, 512];
    let first_fifteen = || {
        destinations
            .iter()
            .flat_map(|&d| (0..15).map(move |i| flow(d, i)))
    };
    let sixteenth = || destinations.iter().map(|&d| flow(d, 0));

    let mut plan_scratch = PlanScratch::new();
    let mut plan = PlannedFlow::empty(0, 0);
    let mut scratch = DeliveryScratch::new();
    let mut pass = |flows: &mut dyn Iterator<Item = (u32, u32)>| {
        let mut broadcasts = 0u64;
        for (src, dst) in flows {
            exp.plan_flow_into(src, dst, &mut plan_scratch, &mut plan);
            let id = u64::from(src) << 32 | u64::from(dst);
            let msg_id = substream_seed(37, DOMAIN_MSG, id);
            let mut rng = SimRng::new(substream_seed(37, DOMAIN_SIM, id));
            broadcasts += exp
                .simulate_flow_with(&plan, msg_id, &mut rng, &mut scratch)
                .broadcasts;
        }
        (broadcasts, plan_scratch.hop_stats())
    };

    // Warm-up: fifteen searches a destination, then the first
    // destination's sixteenth — its flood grows the queue to whole-graph
    // size, once per scratch like every other buffer.
    let (warm_broadcasts, warm) = pass(&mut first_fifteen().chain(sixteenth().take(1)));
    assert!(warm_broadcasts > 0, "the flows must reach the simulator");
    assert_eq!((warm.rows_built, warm.from_rows, warm.queries), (1, 1, 76));
    let searched = warm.settled;

    // The other four cross the line inside the counted region.
    let (allocs, (_, crossed)) = count_allocs(|| pass(&mut sixteenth().skip(1)));
    assert_eq!((crossed.rows_built, crossed.from_rows), (5, 5));
    assert_eq!(exp.ap_graph().hop_rows_built(), 5);
    assert_eq!(
        allocs, 4,
        "building a hop row may allocate the row and nothing else \
         (counted {allocs} over 4 rows)"
    );

    // After the line: the same flows again, every one a row read.
    let (allocs, (replayed, after)) =
        count_allocs(|| pass(&mut first_fifteen().chain(sixteenth().take(1))));
    assert_eq!(
        replayed, warm_broadcasts,
        "the replay must retrace the warm-up"
    );
    assert_eq!((after.from_rows, after.queries), (5 + 76, 80 + 76));
    assert_eq!(after.settled, searched, "no query searched after the line");
    assert_eq!(plan_scratch.route_stats().rows_built, 0);
    assert_eq!(
        allocs, 0,
        "flows whose ideal hops come from a row must perform zero heap \
         allocations (counted {allocs} over 76 flows)"
    );
}

#[test]
fn steady_state_hier_flow_loop_allocates_nothing() {
    // The hierarchical planner's steady state must match the flat
    // planner's zero-allocation guarantee: building the hierarchy
    // (`enable_hier`) is prepare-time and may allocate freely, but a
    // warm plan+simulate loop through `plan_flow_hier_into` — overlay
    // A*, border × member table descents, border stitching — must
    // stay inside the warmed `PlanScratch` buffers.
    let map = CityArchetype::SurveyDowntown.generate(19);
    let mut exp = CityExperiment::prepare(
        map,
        ExperimentConfig {
            seed: 19,
            ..ExperimentConfig::default()
        },
    );
    exp.enable_hier(&citymesh_core::HierParams::default());
    let flows = generate_flows(
        exp.map().len(),
        &WorkloadConfig {
            flows: 64,
            model: FlowModel::UniformPairs { rate_hz: 200.0 },
            seed: 19,
        },
    );

    let mut plan_scratch = PlanScratch::new();
    let mut plan = PlannedFlow::empty(0, 0);
    let mut scratch = DeliveryScratch::new();

    let mut warm_broadcasts = 0u64;
    for flow in &flows {
        exp.plan_flow_hier_into(flow.src, flow.dst, &mut plan_scratch, &mut plan);
        let msg_id = substream_seed(19, DOMAIN_MSG, flow.id);
        let mut rng = SimRng::new(substream_seed(19, DOMAIN_SIM, flow.id));
        let outcome = exp.simulate_flow_with(&plan, msg_id, &mut rng, &mut scratch);
        warm_broadcasts += outcome.broadcasts;
    }
    assert!(
        warm_broadcasts > 0,
        "workload must actually exercise the simulator"
    );
    assert!(
        plan_scratch.hier_stats().queries >= flows.len() as u64,
        "every plan must have gone through the hierarchical planner"
    );

    let (allocs, measured_broadcasts) = count_allocs(|| {
        let mut total = 0u64;
        for flow in &flows {
            exp.plan_flow_hier_into(flow.src, flow.dst, &mut plan_scratch, &mut plan);
            let msg_id = substream_seed(19, DOMAIN_MSG, flow.id);
            let mut rng = SimRng::new(substream_seed(19, DOMAIN_SIM, flow.id));
            let outcome = exp.simulate_flow_with(&plan, msg_id, &mut rng, &mut scratch);
            total += outcome.broadcasts;
        }
        total
    });

    assert_eq!(
        measured_broadcasts, warm_broadcasts,
        "measured pass must replay the warm-up exactly"
    );
    assert_eq!(
        allocs,
        0,
        "steady-state hierarchical plan+simulate path must perform zero \
         heap allocations (counted {allocs} over {} flows)",
        flows.len()
    );
}

#[test]
fn steady_state_encrypted_flow_loop_allocates_nothing() {
    // The secure message plane's per-flow hot path — session-key cache
    // hit, deterministic payload fill, AEAD seal into the scratch
    // buffer, header MAC, receiver-side verify + open — must stay
    // zero-alloc once warm. Key *derivation* (X25519 + HKDF) allocates,
    // but it is amortized: the warm-up pass derives every pair's
    // session key into the shared cache, so the counted replay is all
    // cache hits (a shard read-lock plus an `Arc` clone).
    let map = CityArchetype::SurveyDowntown.generate(29);
    let mut exp = CityExperiment::prepare(
        map,
        ExperimentConfig {
            seed: 29,
            ..ExperimentConfig::default()
        },
    );
    exp.enable_encryption();
    let flows = generate_flows(
        exp.map().len(),
        &WorkloadConfig {
            flows: 64,
            model: FlowModel::UniformPairs { rate_hz: 200.0 },
            seed: 29,
        },
    );

    let mut plan_scratch = PlanScratch::new();
    let mut plan = PlannedFlow::empty(0, 0);
    let mut scratch = DeliveryScratch::new();

    // Warm-up: derives each pair's session key (allowed to allocate)
    // and grows the seal/open scratch buffers to their final size.
    let mut warm_opened = 0u64;
    for flow in &flows {
        exp.plan_flow_into(flow.src, flow.dst, &mut plan_scratch, &mut plan);
        let msg_id = substream_seed(29, DOMAIN_MSG, flow.id);
        let mut rng = SimRng::new(substream_seed(29, DOMAIN_SIM, flow.id));
        let outcome = exp.simulate_flow_secure_with(&plan, msg_id, &mut rng, &mut scratch);
        assert!(outcome.sealed, "encrypted path must seal every flow");
        assert!(!outcome.auth_failed, "untampered flows must authenticate");
        warm_opened += outcome.opened as u64;
    }
    assert!(
        warm_opened > 0,
        "workload must deliver and open at least one sealed message"
    );
    let derived_in_warmup = scratch.keys_derived();
    assert!(
        derived_in_warmup > 0,
        "warm-up must have paid the key derivations"
    );

    // Measured pass: every session key is cached, every buffer warm.
    let (allocs, measured_opened) = count_allocs(|| {
        let mut total = 0u64;
        for flow in &flows {
            exp.plan_flow_into(flow.src, flow.dst, &mut plan_scratch, &mut plan);
            let msg_id = substream_seed(29, DOMAIN_MSG, flow.id);
            let mut rng = SimRng::new(substream_seed(29, DOMAIN_SIM, flow.id));
            let outcome = exp.simulate_flow_secure_with(&plan, msg_id, &mut rng, &mut scratch);
            total += outcome.opened as u64;
        }
        total
    });

    assert_eq!(
        measured_opened, warm_opened,
        "measured pass must replay the warm-up exactly"
    );
    assert_eq!(
        scratch.keys_derived(),
        derived_in_warmup,
        "the measured pass must be pure cache hits — no new derivations"
    );
    assert_eq!(
        allocs,
        0,
        "steady-state encrypted plan+seal+simulate+open path must \
         perform zero heap allocations (counted {allocs} over {} flows)",
        flows.len()
    );
}

#[test]
fn steady_state_flow_loop_allocates_nothing_under_faults() {
    // Each ladder rung (wide conduits, the replan detour) builds its
    // geometry in the `DeliveryScratch` when a flow reaches it, and a
    // plan holds nothing that escalation fills in. So once the warm-up
    // has grown the buffers, re-planning each flow into one reused
    // `PlannedFlow` and simulating it must allocate nothing, even when
    // flows escalate through every rung.
    let mut scenario = citymesh_core::FaultScenario::iid(0.3);
    scenario.retry = citymesh_core::RetryPolicy::ladder();
    let map = CityArchetype::SurveyDowntown.generate(13);
    let exp = CityExperiment::prepare(
        map,
        ExperimentConfig {
            seed: 13,
            faults: Some(scenario),
            ..ExperimentConfig::default()
        },
    );
    let flows = generate_flows(
        exp.map().len(),
        &WorkloadConfig {
            flows: 64,
            model: FlowModel::UniformPairs { rate_hz: 200.0 },
            seed: 13,
        },
    );
    let mut plan_scratch = PlanScratch::new();
    let mut plan = PlannedFlow::empty(0, 0);
    let mut scratch = DeliveryScratch::new();
    let mut pass = || {
        let mut total = 0u64;
        for flow in &flows {
            exp.plan_flow_into(flow.src, flow.dst, &mut plan_scratch, &mut plan);
            let msg_id = substream_seed(13, DOMAIN_MSG, flow.id);
            let mut rng = SimRng::new(substream_seed(13, DOMAIN_SIM, flow.id));
            let outcome = exp.simulate_flow_with(&plan, msg_id, &mut rng, &mut scratch);
            total += outcome.attempts as u64;
        }
        total
    };
    let warm_attempts = pass();
    assert!(
        warm_attempts > flows.len() as u64,
        "30% AP loss must force the retry ladder to fire at least once \
         ({warm_attempts} attempts over {} flows)",
        flows.len()
    );

    let (allocs, measured_attempts) = count_allocs(&mut pass);

    assert_eq!(
        measured_attempts, warm_attempts,
        "measured pass must replay the warm-up exactly"
    );
    assert_eq!(
        allocs, 0,
        "fault-injected steady-state plan+simulate path must perform \
         zero heap allocations (counted {allocs})"
    );
}

#[test]
fn first_escalation_allocates_nothing() {
    // A district blackout pushes many flows up the whole ladder, each
    // re-planned into one reused `PlannedFlow` as a route-cache miss
    // is. Every flow that climbs to rung 3 builds the widened conduits
    // and their covered set, and at rung 4 searches for its detour,
    // compresses it and covers it, all in the `DeliveryScratch` and
    // inside the counted region: a warm scratch allocates nothing.
    let scenario = citymesh_core::FaultScenario::district_blackouts(1, 100.0);
    assert_eq!(scenario.retry, citymesh_core::RetryPolicy::ladder());
    let map = CityArchetype::SurveyDowntown.generate(31);
    let exp = CityExperiment::prepare(
        map,
        ExperimentConfig {
            seed: 31,
            faults: Some(scenario),
            ..ExperimentConfig::default()
        },
    );
    let flows = generate_flows(
        exp.map().len(),
        &WorkloadConfig {
            flows: 256,
            model: FlowModel::UniformPairs { rate_hz: 200.0 },
            seed: 31,
        },
    );

    let mut plan_scratch = PlanScratch::new();
    let mut plan = PlannedFlow::empty(0, 0);
    let mut scratch = DeliveryScratch::new();
    let mut pass = || {
        let (mut attempts, mut climbed, mut replanned) = (0u64, 0u64, 0u64);
        for flow in &flows {
            exp.plan_flow_into(flow.src, flow.dst, &mut plan_scratch, &mut plan);
            let msg_id = substream_seed(31, DOMAIN_MSG, flow.id);
            let mut rng = SimRng::new(substream_seed(31, DOMAIN_SIM, flow.id));
            let outcome = exp.simulate_flow_with(&plan, msg_id, &mut rng, &mut scratch);
            attempts += outcome.attempts as u64;
            climbed += u64::from(outcome.attempts >= 3);
            let by_detour = outcome.recovered_by == Some(citymesh_core::RecoveryStage::Replan);
            replanned += by_detour as u64;
        }
        (attempts, climbed, replanned, scratch.detour_stats())
    };

    let warm = pass();
    let (allocs, measured) = count_allocs(&mut pass);

    assert_eq!(
        (measured.0, measured.1, measured.2),
        (warm.0, warm.1, warm.2),
        "measured pass must replay the warm-up exactly"
    );
    let searched = measured.3.searches - warm.3.searches;
    assert!(
        measured.1 >= 20 && searched >= 20 && measured.2 > 0,
        "the blackout must push flows up the whole ladder: {} climbed \
         to rung 3, {searched} searched, {} delivered by detour",
        measured.1,
        measured.2
    );
    assert_eq!(
        allocs, 0,
        "a first escalation must allocate nothing (counted {allocs} over \
         {} flows that climbed to rung 3)",
        measured.1
    );
}

#[test]
fn steady_state_is_alloc_free_between_churn_events() {
    // The churn engine's epoch model promises that *event application*
    // may allocate (health flips, postbox refresh, surviving-component
    // labels) but the steady state between events must stay on the
    // zero-alloc path. With plans held across the event, the sequence
    // is: warm pass at epoch 0, apply a mid-run aftershock (uncounted),
    // one re-warm pass that grows the scratch to the new world's
    // detours, then a counted replay that must allocate nothing.
    let mut scenario = citymesh_core::FaultScenario::iid(0.15);
    scenario.retry = citymesh_core::RetryPolicy::ladder();
    let map = CityArchetype::SurveyDowntown.generate(17);
    let mut exp = CityExperiment::prepare(
        map,
        ExperimentConfig {
            seed: 17,
            faults: Some(scenario),
            ..ExperimentConfig::default()
        },
    );
    let flows = generate_flows(
        exp.map().len(),
        &WorkloadConfig {
            flows: 64,
            model: FlowModel::UniformPairs { rate_hz: 200.0 },
            seed: 17,
        },
    );
    let plans: Vec<_> = flows.iter().map(|f| exp.plan_flow(f.src, f.dst)).collect();
    let mut scratch = DeliveryScratch::new();

    // Warm pass at the initial epoch.
    for (flow, plan) in flows.iter().zip(&plans) {
        let msg_id = substream_seed(17, DOMAIN_MSG, flow.id);
        let mut rng = SimRng::new(substream_seed(17, DOMAIN_SIM, flow.id));
        exp.simulate_flow_with(plan, msg_id, &mut rng, &mut scratch);
    }

    // A mid-run event: fail a slice of APs outright. Application is
    // allowed to allocate — it happens at an epoch barrier, off the
    // per-flow hot path.
    let changes: Vec<(u32, citymesh_core::ApHealth)> = (0..40)
        .map(|ap| (ap * 7, citymesh_core::ApHealth::Failed))
        .collect();
    let transition = exp.apply_world_event(&changes);
    assert!(
        transition.aps_changed > 0,
        "the event must actually flip APs"
    );

    // Re-warm at the new epoch: the new world's rungs may need larger
    // scratch buffers than the old one's.
    let mut warm_attempts = 0u64;
    for (flow, plan) in flows.iter().zip(&plans) {
        let msg_id = substream_seed(17, DOMAIN_MSG, flow.id);
        let mut rng = SimRng::new(substream_seed(17, DOMAIN_SIM, flow.id));
        let outcome = exp.simulate_flow_with(plan, msg_id, &mut rng, &mut scratch);
        warm_attempts += outcome.attempts as u64;
    }

    // Counted replay at the post-event epoch: zero allocations.
    let (allocs, measured_attempts) = count_allocs(|| {
        let mut total = 0u64;
        for (flow, plan) in flows.iter().zip(&plans) {
            let msg_id = substream_seed(17, DOMAIN_MSG, flow.id);
            let mut rng = SimRng::new(substream_seed(17, DOMAIN_SIM, flow.id));
            let outcome = exp.simulate_flow_with(plan, msg_id, &mut rng, &mut scratch);
            total += outcome.attempts as u64;
        }
        total
    });

    assert_eq!(
        measured_attempts, warm_attempts,
        "measured pass must replay the post-event warm-up exactly"
    );
    assert_eq!(
        allocs, 0,
        "steady state between churn events must perform zero heap \
         allocations (counted {allocs})"
    );
}

#[test]
fn streaming_steady_state_allocates_nothing() {
    // The always-on engine's per-flow path adds admission control on
    // top of plan+simulate: retire completions from the ring, decide
    // admit/shed, then (when admitted) plan into the scratch, simulate,
    // and commit the modeled completion. The ring is preallocated at
    // construction, so a warm streaming loop — including the overload
    // sheds and the degradation rungs — must allocate exactly nothing.
    use citymesh_stream::{
        generate_stream_flows, Admission, ArrivalProcess, ServerQueue, StreamConfig, StreamWorkload,
    };

    let map = CityArchetype::SurveyDowntown.generate(23);
    let exp = CityExperiment::prepare(
        map,
        ExperimentConfig {
            seed: 23,
            ..ExperimentConfig::default()
        },
    );
    // ~2000 flows/s against one modeled ~2 ms server: sustained
    // overload, so the counted region exercises admit, backpressure
    // shed, and both degradation rungs.
    let flows = generate_stream_flows(
        exp.map().len(),
        &StreamWorkload {
            flows: 96,
            process: ArrivalProcess::Poisson { rate_hz: 2000.0 },
            seed: 23,
        },
    );
    let cfg = StreamConfig {
        seed: 23,
        queue_capacity: 16,
        deadline_ms: f64::INFINITY,
        ..StreamConfig::default()
    };

    let mut plan_scratch = PlanScratch::new();
    let mut plan = PlannedFlow::empty(0, 0);
    let mut scratch = DeliveryScratch::new();

    // One serial server, exactly the engine's per-server loop body.
    let pass = |q: &mut ServerQueue,
                plan_scratch: &mut PlanScratch,
                plan: &mut PlannedFlow,
                scratch: &mut DeliveryScratch| {
        let (mut admitted, mut shed, mut broadcasts) = (0u64, 0u64, 0u64);
        for flow in &flows {
            match q.offer(flow.arrival_ms) {
                Admission::Shed { .. } => shed += 1,
                Admission::Admit { start_ms, .. } => {
                    exp.plan_flow_into(flow.src, flow.dst, plan_scratch, plan);
                    let msg_id = substream_seed(23, DOMAIN_MSG, flow.id);
                    let mut rng = SimRng::new(substream_seed(23, DOMAIN_SIM, flow.id));
                    let outcome = exp.simulate_flow_with(plan, msg_id, &mut rng, scratch);
                    let service_ms = cfg.service.base_ms
                        + cfg.service.per_broadcast_ms * outcome.broadcasts as f64;
                    q.commit(start_ms, service_ms);
                    admitted += 1;
                    broadcasts += outcome.broadcasts;
                }
            }
        }
        (admitted, shed, broadcasts)
    };

    // Warm pass: scratch buffers grow to their high-water mark.
    let mut warm_queue = ServerQueue::new(&cfg);
    let warm = pass(&mut warm_queue, &mut plan_scratch, &mut plan, &mut scratch);
    assert!(warm.0 > 0, "overloaded stream must still admit flows");
    assert!(warm.1 > 0, "overloaded stream must shed flows");
    assert!(warm.2 > 0, "workload must exercise the simulator");

    // Counted replay: a fresh ring (constructed before counting — the
    // one-time ring allocation is setup, not steady state) and the warm
    // scratches. Per-flow sub-streams make the replay exact.
    let mut queue = ServerQueue::new(&cfg);
    let (allocs, measured) =
        count_allocs(|| pass(&mut queue, &mut plan_scratch, &mut plan, &mut scratch));

    assert_eq!(
        measured, warm,
        "measured pass must replay the warm-up exactly"
    );
    assert_eq!(
        allocs,
        0,
        "steady-state streaming path (admission + plan + simulate + \
         commit) must perform zero heap allocations (counted {allocs} \
         over {} flows)",
        flows.len()
    );
}

#[test]
fn counter_actually_counts() {
    // Guard against the test silently passing because the counter is
    // broken: an obvious allocation must register.
    let (allocs, v) = count_allocs(|| {
        let v: Vec<u64> = Vec::with_capacity(1024);
        std::hint::black_box(&v);
        v.capacity()
    });
    assert_eq!(v, 1024);
    assert!(
        allocs >= 1,
        "Vec::with_capacity must be counted, got {allocs}"
    );
}
