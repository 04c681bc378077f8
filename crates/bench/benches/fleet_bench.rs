//! Fleet engine benches: workload generation throughput, the route
//! cache under repeated pairs, and end-to-end flow execution at one
//! and several workers (the parallel-speedup measurement behind
//! `figures -- fleet`).

use citymesh_core::{CityExperiment, ExperimentConfig};
use citymesh_fleet::{generate_flows, try_run_fleet, FleetConfig, FlowModel, WorkloadConfig};
use citymesh_map::CityArchetype;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

const SEED: u64 = 2024;
const FLOWS: usize = 1_000;

fn prepared() -> CityExperiment {
    let map = CityArchetype::SurveyDowntown.generate(SEED);
    CityExperiment::prepare(
        map,
        ExperimentConfig {
            seed: SEED,
            ..ExperimentConfig::default()
        },
    )
}

fn bench_workload_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet/generate");
    group.throughput(Throughput::Elements(FLOWS as u64));
    for (name, model) in [
        ("uniform", FlowModel::UniformPairs { rate_hz: 500.0 }),
        (
            "hotspot",
            FlowModel::Hotspot {
                hotspots: 8,
                exponent: 1.1,
                rate_hz: 500.0,
            },
        ),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                std::hint::black_box(generate_flows(
                    600,
                    &WorkloadConfig {
                        flows: FLOWS,
                        model,
                        seed: SEED,
                    },
                ))
            })
        });
    }
    group.finish();
}

fn bench_fleet_execution(c: &mut Criterion) {
    let exp = prepared();
    let flows = generate_flows(
        exp.map().len(),
        &WorkloadConfig {
            flows: FLOWS,
            model: FlowModel::Hotspot {
                hotspots: 8,
                exponent: 1.1,
                rate_hz: 500.0,
            },
            seed: SEED,
        },
    );
    let mut group = c.benchmark_group("fleet/run");
    group.sample_size(10);
    group.throughput(Throughput::Elements(FLOWS as u64));
    for workers in [1usize, 4] {
        group.bench_function(format!("{FLOWS}flows/{workers}w"), |b| {
            b.iter(|| {
                std::hint::black_box(
                    try_run_fleet(
                        &exp,
                        &flows,
                        &FleetConfig {
                            workers,
                            seed: SEED,
                            ..FleetConfig::default()
                        },
                    )
                    .unwrap(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_workload_generation, bench_fleet_execution);
criterion_main!(benches);
