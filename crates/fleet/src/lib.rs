//! citymesh-fleet: a parallel city-scale traffic engine with
//! deterministic sharded workloads.
//!
//! The paper's evaluation (§4) simulates 50 pairs per city — enough
//! for Figure 6, far from the "heavy traffic from millions of users"
//! a real disaster brings. This crate closes that gap: it generates
//! large synthetic flow sets from configurable traffic models and
//! pushes them through the full CityMesh routing + delivery
//! simulation on a pool of worker threads, producing aggregate
//! latency / broadcast / hop / header-size distributions.
//!
//! The design constraint everything else bends around is
//! **schedule-independent determinism**: the same `(world, workload,
//! seed)` triple yields a byte-identical [`FleetReport`] on 1 worker
//! or 8 (see [`FleetReport::digest`]). Workloads get it from per-flow
//! RNG sub-streams ([`citymesh_simcore::substream_seed`]); execution
//! gets it by keeping shared state RNG-free (the memoized route
//! cache) and every report field an integer count, an integer
//! histogram or a maximum, so per-worker reports merge in any order.
//!
//! [`exec`] holds the pieces every engine in the workspace shares — the
//! per-worker [`FlowExecutor`] and the one worker pool ([`run_pool`]);
//! the stream and churn engines are thin callers of them. Each worker
//! folds the flows it ran into its own report as it finishes them, and
//! the call merges the workers' reports ([`FleetReport::merge`]), so no
//! call keeps a record per flow.
//!
//! ```
//! use citymesh_core::{CityExperiment, ExperimentConfig};
//! use citymesh_fleet::{try_run_fleet, FleetConfig, FlowModel, WorkloadConfig};
//! use citymesh_map::CityArchetype;
//!
//! let map = CityArchetype::SurveyDowntown.generate(1);
//! let exp = CityExperiment::prepare(map, ExperimentConfig::default());
//! let flows = citymesh_fleet::generate_flows(
//!     exp.map().len(),
//!     &WorkloadConfig {
//!         flows: 200,
//!         model: FlowModel::Hotspot { hotspots: 6, exponent: 1.2, rate_hz: 100.0 },
//!         seed: 42,
//!     },
//! );
//! let serial = try_run_fleet(&exp, &flows, &FleetConfig { workers: 1, seed: 42, ..FleetConfig::default() })?;
//! let parallel = try_run_fleet(&exp, &flows, &FleetConfig { workers: 4, seed: 42, ..FleetConfig::default() })?;
//! assert_eq!(serial.digest(), parallel.digest());
//! # Ok::<(), citymesh_fleet::FleetError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod exec;
pub mod workload;

pub use cache::RouteCache;
pub use engine::{
    try_run_fleet, try_run_fleet_on_cache, try_run_fleet_traced, FleetConfig, FleetError,
    FleetReport, FleetTelemetry, RungReport,
};
pub use exec::{resolve_workers, run_pool, FlowExecutor, DOMAIN_MSG, DOMAIN_SIM};
pub use workload::{
    generate_flows, try_generate_flows, FlowKind, FlowModel, FlowSpec, WorkloadConfig,
    WorkloadError,
};
