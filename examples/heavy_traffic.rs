//! Heavy traffic: the whole city messages at once.
//!
//! The paper evaluates 50 pairs per city; a real disaster brings six
//! figures of simultaneous flows, skewed toward a few destinations
//! (shelters, hospitals, city hall). This example generates a
//! 20 000-flow hotspot workload with `citymesh-fleet`, runs it through
//! the full routing + delivery simulation on a worker pool, and prints
//! the aggregate distributions — then re-runs it serially to show the
//! engine's determinism guarantee: both runs produce byte-identical
//! aggregates (equal digests), so parallelism never costs
//! reproducibility.
//!
//! Run with:
//! ```text
//! cargo run --release --example heavy_traffic
//! ```

use citymesh::prelude::*;

const SEED: u64 = 2024;
const FLOWS: usize = 20_000;

fn main() {
    let map = CityArchetype::SurveyDowntown.generate(SEED);
    println!("city: {} ({} buildings)", map.name(), map.len());
    let exp = CityExperiment::prepare(
        map,
        ExperimentConfig {
            seed: SEED,
            ..ExperimentConfig::default()
        },
    );

    // Disaster traffic: Zipf-skewed destinations over 8 hotspot
    // buildings (shelters, hospitals, city hall).
    let workload = WorkloadConfig {
        flows: FLOWS,
        model: FlowModel::Hotspot {
            hotspots: 8,
            exponent: 1.1,
            rate_hz: 500.0,
        },
        seed: SEED,
    };
    let flows = generate_flows(exp.map().len(), &workload);
    println!(
        "workload: {FLOWS} flows (hotspot model), spanning {:.1} s",
        flows.last().map(|f| f.arrival_ms / 1e3).unwrap_or(0.0)
    );

    let parallel = try_run_fleet(
        &exp,
        &flows,
        &FleetConfig {
            workers: 0, // one per CPU
            seed: SEED,
            ..FleetConfig::default()
        },
    )
    .unwrap();
    println!(
        "\nparallel run ({} workers): {:.0} flows/s, {:.1} s wall",
        parallel.workers,
        parallel.flows_per_sec(),
        parallel.elapsed_secs
    );
    println!(
        "  delivered {}/{} ({:.1} %), route cache {} hits / {} misses",
        parallel.delivered,
        parallel.flows,
        100.0 * parallel.delivery_rate(),
        parallel.cache_hits,
        parallel.cache_misses
    );
    let fmt = |v: Option<f64>| v.map(|x| format!("{x:.2}")).unwrap_or_else(|| "—".into());
    let latency_ms = parallel.latency_ms();
    println!(
        "  latency ms: p50 {}  p90 {}  p99 {}",
        fmt(latency_ms.quantile(0.5)),
        fmt(latency_ms.quantile(0.9)),
        fmt(latency_ms.quantile(0.99))
    );
    println!(
        "  broadcasts: p50 {}  p99 {}   header bits: p50 {}  p90 {}",
        fmt(parallel.broadcasts.quantile(0.5)),
        fmt(parallel.broadcasts.quantile(0.99)),
        fmt(parallel.header_bits.quantile(0.5)),
        fmt(parallel.header_bits.quantile(0.9))
    );

    // The determinism check: a serial run of the same workload must
    // aggregate to exactly the same distributions.
    let serial = try_run_fleet(
        &exp,
        &flows,
        &FleetConfig {
            workers: 1,
            seed: SEED,
            ..FleetConfig::default()
        },
    )
    .unwrap();
    println!(
        "\nserial run: {:.0} flows/s, digest {:016x}",
        serial.flows_per_sec(),
        serial.digest()
    );
    println!("parallel digest:          {:016x}", parallel.digest());
    assert_eq!(
        serial.digest(),
        parallel.digest(),
        "parallel aggregation diverged from serial"
    );
    println!("digests match: parallel == serial, bit for bit");
}
