//! Integration test for the fleet engine's headline invariant:
//! N workers produce byte-identical aggregate results to serial
//! execution for the same root seed.

use citymesh::fleet::{
    generate_flows, try_run_fleet, try_run_fleet_traced, FleetConfig, FlowModel, WorkloadConfig,
};
use citymesh::prelude::*;
use citymesh::telemetry::metrics as tm;

fn prepared_city(seed: u64) -> CityExperiment {
    let map = CityArchetype::SurveyDowntown.generate(seed);
    CityExperiment::prepare(
        map,
        ExperimentConfig {
            seed,
            ..ExperimentConfig::default()
        },
    )
}

#[test]
fn one_worker_equals_eight_workers() {
    let seed = 2024;
    let exp = prepared_city(seed);
    let flows = generate_flows(
        exp.map().len(),
        &WorkloadConfig {
            flows: 400,
            model: FlowModel::Hotspot {
                hotspots: 8,
                exponent: 1.1,
                rate_hz: 200.0,
            },
            seed,
        },
    );

    let serial = try_run_fleet(
        &exp,
        &flows,
        &FleetConfig {
            workers: 1,
            seed,
            ..FleetConfig::default()
        },
    )
    .unwrap();
    let parallel = try_run_fleet(
        &exp,
        &flows,
        &FleetConfig {
            workers: 8,
            seed,
            ..FleetConfig::default()
        },
    )
    .unwrap();

    // The digest covers every deterministic field; equality means the
    // complete aggregate state (every histogram bucket-for-bucket,
    // all counters, the span) is identical.
    assert_eq!(serial.digest(), parallel.digest());

    // Spot-check the fields directly so a digest bug can't mask a
    // divergence.
    assert_eq!(serial.flows, parallel.flows);
    assert_eq!(serial.reachable, parallel.reachable);
    assert_eq!(serial.route_found, parallel.route_found);
    assert_eq!(serial.delivered, parallel.delivered);
    assert_eq!(serial.checkins, parallel.checkins);
    assert_eq!(serial.span_ms, parallel.span_ms);
    assert_eq!(
        serial.latency_ms().fingerprint(),
        parallel.latency_ms().fingerprint()
    );
    assert_eq!(
        serial.broadcasts.fingerprint(),
        parallel.broadcasts.fingerprint()
    );
    assert_eq!(serial.hops.fingerprint(), parallel.hops.fingerprint());
    assert_eq!(
        serial.header_bits.fingerprint(),
        parallel.header_bits.fingerprint()
    );
    assert_eq!(serial.latency_ms().mean(), parallel.latency_ms().mean());
    assert_eq!(serial.latency_ms().max(), parallel.latency_ms().max());
}

#[test]
fn determinism_holds_across_worker_counts_and_models() {
    let seed = 7;
    let exp = prepared_city(seed);
    for model in [
        FlowModel::UniformPairs { rate_hz: 100.0 },
        FlowModel::PoissonBatches {
            mean_batch: 6.0,
            rate_hz: 20.0,
        },
        FlowModel::PostboxMix {
            checkin_fraction: 0.4,
            rate_hz: 100.0,
        },
    ] {
        let flows = generate_flows(
            exp.map().len(),
            &WorkloadConfig {
                flows: 150,
                model,
                seed,
            },
        );
        let digests: Vec<u64> = [1usize, 2, 5]
            .iter()
            .map(|&workers| {
                try_run_fleet(
                    &exp,
                    &flows,
                    &FleetConfig {
                        workers,
                        seed,
                        ..FleetConfig::default()
                    },
                )
                .unwrap()
                .digest()
            })
            .collect();
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "digests diverged across worker counts for {model:?}: {digests:x?}"
        );
    }
}

#[test]
fn same_city_different_seeds_diverge() {
    let exp = prepared_city(11);
    let mk = |seed: u64| {
        let flows = generate_flows(
            exp.map().len(),
            &WorkloadConfig {
                flows: 100,
                model: FlowModel::UniformPairs { rate_hz: 50.0 },
                seed,
            },
        );
        try_run_fleet(
            &exp,
            &flows,
            &FleetConfig {
                workers: 2,
                seed,
                ..FleetConfig::default()
            },
        )
        .unwrap()
        .digest()
    };
    assert_ne!(mk(1), mk(2), "seeds must reach workload and simulation");
}

/// The flat planner changes how it finds a source's routes mid-run — by
/// search for the first fifteen requests, from the source's stored
/// shortest-path row after — and the row outlives the run. Neither may
/// show: a workload whose sources cross that line, on a fresh world at
/// one worker, on another fresh world at four, and again on the first,
/// now warm, world at one and at four, gives one digest and one metric
/// fingerprint.
#[test]
fn crossing_the_row_threshold_shows_in_no_digest() {
    const SOURCES: u32 = 12;
    let seed = 2024;
    let mut flows = generate_flows(
        prepared_city(seed).map().len(),
        &WorkloadConfig {
            flows: 600,
            model: FlowModel::UniformPairs { rate_hz: 100.0 },
            seed,
        },
    );
    // Fifty requests a source, nearly all for distinct destinations
    // (a repeated pair plans on its first two requests, then hits the
    // route cache).
    for f in &mut flows {
        f.src = f.id as u32 % SOURCES;
        f.dst = f.dst.max(SOURCES);
    }
    let tel = TelemetryConfig::metrics_only();
    let run = |exp: &CityExperiment, workers: usize| {
        let cfg = FleetConfig {
            workers,
            seed,
            ..FleetConfig::default()
        };
        let (report, telemetry) = try_run_fleet_traced(exp, &flows, &cfg, &tel).unwrap();
        let metrics = telemetry.expect("metrics were asked for").metrics;
        let routes = [
            tm::ROUTE_ROWS_BUILT,
            tm::ROUTES_FROM_ROWS,
            tm::ROUTE_SEARCHES,
        ];
        let [built, walked, searched] = routes.map(|id| metrics.counter(id));
        (
            (report.digest(), metrics.fingerprint()),
            (built, walked, searched),
        )
    };

    let (serial_world, parallel_world) = (prepared_city(seed), prepared_city(seed));
    let (cold_serial, (built, walked, searched)) = run(&serial_world, 1);
    // One worker: exactly fifteen searches a source, then its row.
    assert_eq!((built, searched), (12, 12 * 15));
    assert!(walked > 300, "{walked} plans after the line");
    let (cold_parallel, (built, walked, _)) = run(&parallel_world, 4);
    assert_eq!(built, 12);
    assert!(walked > 250, "{walked} plans after the line");
    for world in [&serial_world, &parallel_world] {
        assert_eq!(world.building_graph().route_rows_built(), 12);
    }
    // Warm: every plan is a row walk; engine clones share the table.
    let (warm_serial, counts) = run(&serial_world, 1);
    assert_eq!((counts.0, counts.2), (0, 0));
    let (warm_parallel, counts) = run(&serial_world.clone(), 4);
    assert_eq!((counts.0, counts.2), (0, 0));

    assert_eq!(cold_serial, cold_parallel);
    assert_eq!(cold_serial, warm_serial);
    assert_eq!(cold_serial, warm_parallel);
}

/// The same for the plan's other table: the AP graph answers a
/// destination's ideal hops by search for its first fifteen queries and
/// from the destination's stored hop row after, and the row outlives the
/// run. A workload whose destinations cross that line gives one digest
/// and one metric fingerprint on a fresh world at one worker, on another
/// fresh world at four, and on the first, now warm, world at one and —
/// cloned — at four.
#[test]
fn crossing_the_hop_row_threshold_shows_in_no_digest() {
    const DESTINATIONS: u32 = 12;
    let seed = 2024;
    let mut flows = generate_flows(
        prepared_city(seed).map().len(),
        &WorkloadConfig {
            flows: 600,
            model: FlowModel::UniformPairs { rate_hz: 100.0 },
            seed,
        },
    );
    // Fifty requests a destination, nearly all from distinct sources: a
    // source asked a few times never leaves the route search, even over
    // the three runs on one world below and counting a repeated pair's
    // two plans (the route cache stores a pair on its second request).
    // Only a flow that would send to itself moves its source.
    for f in &mut flows {
        f.dst = f.id as u32 % DESTINATIONS;
        if f.src == f.dst {
            f.src += DESTINATIONS;
        }
    }
    let tel = TelemetryConfig::metrics_only();
    let run = |exp: &CityExperiment, workers: usize| {
        let cfg = FleetConfig {
            workers,
            seed,
            ..FleetConfig::default()
        };
        let (report, telemetry) = try_run_fleet_traced(exp, &flows, &cfg, &tel).unwrap();
        let metrics = telemetry.expect("metrics were asked for").metrics;
        let hops = [
            tm::HOP_ROWS_BUILT,
            tm::HOPS_FROM_ROWS,
            tm::IDEAL_HOPS_QUERIES,
            tm::ROUTE_ROWS_BUILT,
        ];
        let [built, read, queries, route_rows] = hops.map(|id| metrics.counter(id));
        assert_eq!(route_rows, 0, "no source is asked sixteen times");
        (
            (report.digest(), metrics.fingerprint()),
            (built, read, queries - read),
        )
    };

    let (serial_world, parallel_world) = (prepared_city(seed), prepared_city(seed));
    let (cold_serial, (built, read, searched)) = run(&serial_world, 1);
    // One worker: exactly fifteen searches a destination, then its row.
    assert_eq!((built, searched), (12, 12 * 15));
    assert!(read > 300, "{read} queries after the line");
    let (cold_parallel, (built, read, _)) = run(&parallel_world, 4);
    assert_eq!(built, 12);
    assert!(read > 250, "{read} queries after the line");
    for world in [&serial_world, &parallel_world] {
        assert_eq!(world.ap_graph().hop_rows_built(), 12);
    }
    // Warm: every query is a row read; engine clones share the table.
    let (warm_serial, counts) = run(&serial_world, 1);
    assert_eq!((counts.0, counts.2), (0, 0));
    let (warm_parallel, counts) = run(&serial_world.clone(), 4);
    assert_eq!((counts.0, counts.2), (0, 0));

    assert_eq!(cold_serial, cold_parallel);
    assert_eq!(cold_serial, warm_serial);
    assert_eq!(cold_serial, warm_parallel);
}

/// The fleet golden through the facade's own engine call: the fleet
/// sweep's 500-flow workload at one worker must land on the goldens
/// table's fleet row (`tests/goldens.rs` checks the same row through
/// the sweep, at 1/4/8 workers).
#[test]
fn fleet_golden_500_flow_digest() {
    let seed = 2024;
    let exp = prepared_city(seed);
    let flows = generate_flows(
        exp.map().len(),
        &WorkloadConfig {
            flows: 500,
            model: citymesh_bench::fleet_figs::HOTSPOT_WORKLOAD,
            seed,
        },
    );
    let report = try_run_fleet(
        &exp,
        &flows,
        &FleetConfig {
            workers: 1,
            seed,
            ..FleetConfig::default()
        },
    )
    .unwrap();
    assert_eq!(
        report.digest(),
        citymesh_bench::goldens::pinned("fleet", "500-flow digest")
    );
}
