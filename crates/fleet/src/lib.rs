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
//! cache) and folding outcomes in canonical flow-id order.
//!
//! [`exec`] holds the pieces every engine in the workspace shares — the
//! per-worker [`FlowExecutor`], the one worker pool ([`run_pool`]) and
//! the one in-order fold ([`OrderedFold`]); the stream and churn
//! engines are thin callers of them. Workers hand the fold the
//! outcomes of a run of consecutive flows (a claimed chunk, or their
//! share of a stream window) as they finish it, and the fold absorbs
//! each run once every earlier one is in, so a call holds the runs its
//! fastest workers finished early — at most [`FOLD_AHEAD`] flows'
//! worth — never a record per flow.
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
    FleetReport, FleetTelemetry, FOLD_AHEAD, FOLD_WINDOW,
};
pub use exec::{resolve_workers, run_pool, FlowExecutor, OrderedFold, DOMAIN_MSG, DOMAIN_SIM};
pub use workload::{
    generate_flows, try_generate_flows, FlowKind, FlowModel, FlowSpec, WorkloadConfig,
    WorkloadError,
};
