//! Proof that an engine call's memory does not grow with its flow
//! count: the in-order fold absorbs each claimed chunk as it finishes,
//! so a call holds a few chunks' outcomes, never one record per flow.
//!
//! A counting `#[global_allocator]` tracks live heap bytes and their
//! high-water mark. The test warms one route cache with every flow,
//! then runs a one-worker round over the first 1,000 flows and one over
//! all 8,000, and requires the larger round's peak to exceed the
//! smaller's by less than 64 KiB. Keeping a 112-byte record per flow
//! until the pool joins would add about 0.8 MB.
//!
//! An integration test of its own because a crate can have only one
//! global allocator, and this one counts every thread's bytes: the file
//! holds a single test so nothing else allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use citymesh_core::{CityExperiment, ExperimentConfig};
use citymesh_fleet::{
    generate_flows, try_run_fleet_on_cache, FleetConfig, FlowModel, RouteCache, WorkloadConfig,
};
use citymesh_map::CityArchetype;
use citymesh_telemetry::TelemetryConfig;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct PeakAlloc;

impl PeakAlloc {
    fn grew(bytes: usize) {
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    fn shrank(bytes: usize) {
        LIVE.fetch_sub(bytes, Ordering::Relaxed);
    }
}

// SAFETY: defers all memory management to `System`; only adds atomic
// counter updates, which allocate nothing themselves.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Self::shrank(layout.size());
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            Self::shrank(layout.size());
            Self::grew(new_size);
        }
        p
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// Runs `f` and returns how far live heap bytes rose above where they
/// stood when it started.
fn peak_growth<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (PEAK.load(Ordering::Relaxed) - base, out)
}

#[test]
fn a_warm_rounds_peak_heap_does_not_grow_with_its_flows() {
    let map = CityArchetype::SurveyDowntown.generate(1);
    let exp = CityExperiment::prepare(
        map,
        ExperimentConfig {
            seed: 1,
            ..ExperimentConfig::default()
        },
    );
    let flows = generate_flows(
        exp.map().len(),
        &WorkloadConfig {
            flows: 8_000,
            model: FlowModel::Hotspot {
                hotspots: 6,
                exponent: 1.2,
                rate_hz: 1_000.0,
            },
            seed: 1,
        },
    );
    let cfg = FleetConfig {
        workers: 1,
        seed: 1,
        ..FleetConfig::default()
    };
    let cache = RouteCache::new();
    let tel = TelemetryConfig::off();
    let round = |flows| try_run_fleet_on_cache(&exp, flows, &cfg, &cache, &tel).unwrap();
    // Warm-up: two rounds ask every pair twice, so the cache stores
    // every plan (a pair is admitted on its second request) and the
    // world builds whatever rows it keeps; the measured rounds are all
    // cache hits.
    round(&flows);
    let warm = round(&flows);
    assert_eq!(warm.0.flows, 8_000);

    let (small, r_small) = peak_growth(|| round(&flows[..1_000]));
    let (large, r_large) = peak_growth(|| round(&flows));
    assert_eq!((r_small.0.flows, r_large.0.flows), (1_000, 8_000));
    assert_eq!(r_large.0.digest(), warm.0.digest(), "a warm round repeats");
    assert_eq!(
        r_large.0.cache_misses, warm.0.cache_misses,
        "the measured rounds plan nothing"
    );
    let gap = large.saturating_sub(small);
    assert!(
        gap < 64 * 1024,
        "peak heap at 8,000 flows exceeds 1,000 flows' by {gap} bytes \
         ({large} vs {small}): the call keeps per-flow records"
    );
}
