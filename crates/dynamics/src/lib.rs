//! citymesh-dynamics: the dynamic-world churn engine.
//!
//! Every layer below this crate evaluates CityMesh against a world
//! that fails *once*: a fault scenario is materialized before the
//! first flow and never changes. Real disasters churn — aftershocks
//! take more districts down mid-run, backup batteries drain in waves,
//! repair crews bring access points back — and a routing scheme's
//! worth under churn is exactly what the paper's static-plan critique
//! is about. This crate makes the world move:
//!
//! * [`events`] / [`Timeline`] — a deterministic schedule of world
//!   events inside the simulation horizon, materialized from seeded
//!   sub-streams into exact per-AP health flips before any flow runs,
//!   so any worker count replays the identical event sequence.
//! * [`try_run_churn`] — the epoch-barrier engine: flows partitioned by
//!   arrival time run in parallel against a frozen world, events apply
//!   serially at the barriers, and the shared route cache survives
//!   with [`InvalidationPolicy::Incremental`] eviction (only plans the
//!   event could observably touch, found through the spatial conduit
//!   index) proven digest-equal to a [`InvalidationPolicy::FullFlush`].
//! * [`Strategy`] — the three sender populations the churn bench
//!   compares: the paper's static plan, the retry ladder, and the
//!   Babel/QSPN-style reactive local repair — each a
//!   [`citymesh_core::RetryPolicy`] of the one flow body.
//!
//! ```
//! use citymesh_core::{CityExperiment, ExperimentConfig, FaultScenario};
//! use citymesh_dynamics::{
//!     try_run_churn, ChurnConfig, ChurnEngineConfig, Strategy, Timeline,
//! };
//! use citymesh_fleet::{generate_flows, WorkloadConfig};
//! use citymesh_map::CityArchetype;
//! use citymesh_telemetry::TelemetryConfig;
//!
//! let exp = CityExperiment::prepare(
//!     CityArchetype::SurveyDowntown.generate(7),
//!     ExperimentConfig {
//!         seed: 7,
//!         faults: Some(FaultScenario::district_blackouts(1, 100.0)),
//!         ..ExperimentConfig::default()
//!     },
//! );
//! let flows = generate_flows(
//!     exp.map().len(),
//!     &WorkloadConfig { flows: 120, seed: 7, ..WorkloadConfig::default() },
//! );
//! let timeline = Timeline::materialize(
//!     &exp,
//!     &ChurnConfig { seed: 7, ..ChurnConfig::default() },
//! );
//! let (serial, _) = try_run_churn(
//!     &exp, &flows, &timeline, Strategy::RetryLadder,
//!     &ChurnEngineConfig { workers: 1, seed: 7, ..ChurnEngineConfig::default() },
//!     &TelemetryConfig::off(),
//! )?;
//! let (parallel, _) = try_run_churn(
//!     &exp, &flows, &timeline, Strategy::RetryLadder,
//!     &ChurnEngineConfig { workers: 4, seed: 7, ..ChurnEngineConfig::default() },
//!     &TelemetryConfig::off(),
//! )?;
//! assert_eq!(serial.digest(), parallel.digest());
//! # Ok::<(), citymesh_dynamics::ChurnError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod events;
pub mod timeline;

pub use engine::{
    require_fault_state, run_epochs, try_run_churn, try_run_churn_on_cache, Barrier,
    ChurnEngineConfig, ChurnError, ChurnReport, EpochStat, InvalidationPolicy, Strategy,
};
pub use events::{WorldEvent, WorldEventKind};
pub use timeline::{
    ChurnConfig, Timeline, DOMAIN_CHURN_AFTERSHOCK, DOMAIN_CHURN_BATTERY, DOMAIN_CHURN_REPAIR,
};
