//! Proof that a pair's first request — planned into the worker's own
//! buffer and not stored — allocates nothing once the worker is warm,
//! beyond what the route cache's marker map grows by.
//!
//! The route cache stores a plan on its pair's second request
//! ([`RouteCache::get_or_plan_into`]); the first plans into a buffer the
//! [`FlowExecutor`] keeps. A counting `#[global_allocator]` (its own
//! binary, like `zero_alloc.rs`, because a crate has one global
//! allocator and the libs forbid `unsafe`) tallies this thread's
//! allocations. A warm executor then runs flows whose pairs it has
//! never seen, and the count must equal what the same first requests
//! cost a twin marker map that plans nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use citymesh_core::{Admission, CityExperiment, ExperimentConfig, PairCache, PlannedFlow};
use citymesh_fleet::{
    generate_flows, FleetConfig, FlowExecutor, FlowModel, FlowSpec, RouteCache, WorkloadConfig,
};
use citymesh_map::CityArchetype;
use citymesh_telemetry::TelemetryConfig;

thread_local! {
    // `const` initializers: reading them from inside the allocator
    // cannot recurse into it.
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

#[test]
fn a_warm_executors_first_request_allocates_only_its_marker() {
    let map = CityArchetype::SurveyDowntown.generate(11);
    let exp = CityExperiment::prepare(
        map,
        ExperimentConfig {
            seed: 11,
            ..ExperimentConfig::default()
        },
    );
    // Distinct pairs only, so every request is its pair's first.
    let mut seen = std::collections::HashSet::new();
    let flows: Vec<FlowSpec> = generate_flows(
        exp.map().len(),
        &WorkloadConfig {
            flows: 640,
            model: FlowModel::UniformPairs { rate_hz: 200.0 },
            seed: 11,
        },
    )
    .into_iter()
    .filter(|f| seen.insert((f.src, f.dst)))
    .collect();
    let (warm_up, measured) = flows.split_at(flows.len() - 64);

    let cfg = FleetConfig {
        workers: 1,
        seed: 11,
        ..FleetConfig::default()
    };
    let cache = RouteCache::new();
    let mut exec = FlowExecutor::new(&cache, &cfg, &TelemetryConfig::off());
    // Warm-up: several hundred first requests grow the plan buffer,
    // the planner and delivery scratch to their high-water marks.
    let warm_broadcasts: u64 = warm_up.iter().map(|f| exec.run(&exp, f).broadcasts).sum();
    assert!(warm_broadcasts > 0, "the flows must reach the simulator");

    let (allocs, broadcasts) = count_allocs(|| {
        measured
            .iter()
            .map(|f| exec.run(&exp, f).broadcasts)
            .sum::<u64>()
    });
    assert!(broadcasts > 0);
    assert!(cache.is_empty(), "first requests store no plan");
    assert_eq!(cache.misses(), flows.len() as u64);

    // The marker map's growth: the same requests, in the same order, on
    // a twin map that plans nothing. Entries are a key and an
    // `Option<Arc>` whatever the value type, so the maps grow alike.
    let twin = PairCache::<PlannedFlow>::new();
    let first = |f: &FlowSpec| matches!(twin.admit((f.src, f.dst)), Admission::First);
    assert!(warm_up.iter().all(first));
    let (growth, all_first) = count_allocs(|| measured.iter().all(first));
    assert!(all_first);
    assert_eq!(
        allocs,
        growth,
        "a warm first request may allocate the marker map's growth and \
         nothing else (counted {allocs} over {} flows, the map grew {growth} times)",
        measured.len()
    );
}
