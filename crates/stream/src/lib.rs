//! citymesh-stream: the always-on streaming engine.
//!
//! Every engine below this crate is a *batch*: materialize a workload,
//! run it to completion, report. A fallback network that matters is a
//! *service*: flows arrive open-loop — at whatever rate the disaster
//! dictates, not at whatever rate the mesh can absorb — and the system
//! must stay up through sustained overload. This crate models exactly
//! that regime, deterministically:
//!
//! * [`arrivals`] — open-loop Poisson arrival streams
//!   ([`ArrivalProcess`]) materialized from per-arrival RNG
//!   sub-streams, so streams are reproducible and prefix-stable at any
//!   length.
//! * [`try_run_stream`] — the engine: flows are dealt to a fixed set of
//!   modeled servers, each a bounded virtual-time FIFO
//!   ([`ServerQueue`]). Arrivals that would overflow the queue or
//!   outwait their deadline are **shed with an explicit, counted
//!   outcome** before any planning or simulation work is spent on
//!   them — overload degrades service, never correctness or
//!   accounting.
//! * a **graceful degradation ladder**: as a queue deepens the engine
//!   sheds *optional* work first — trace capture at half capacity,
//!   retry-ladder rungs at three quarters — and whole flows only at
//!   the top. Load shedding is the last rung, not the first.
//! * **two-class priority admission**: an optional per-server headroom
//!   ([`StreamConfig::priority_reserve`]) that only
//!   [`FlowClass::Emergency`] arrivals may occupy. Class is drawn per
//!   flow from a seeded sub-stream, so under overload emergency
//!   traffic keeps getting through while bulk sheds first —
//!   deterministically.
//! * **mid-stream churn**: a [`Timeline`](citymesh_dynamics::Timeline)
//!   of world events applies at epoch barriers exactly as in
//!   `citymesh-dynamics`, with incremental route-cache eviction;
//!   server queues survive the barrier.
//!
//! Reports embed a standard fleet report for the admitted flows plus
//! sojourn/wait/service/depth histograms, and the whole
//! [`StreamReport::digest`] is bit-identical across worker counts —
//! the modeled server count is a capacity knob, the thread count a
//! speed knob, and the two never mix.
//!
//! ```
//! use citymesh_core::{CityExperiment, ExperimentConfig};
//! use citymesh_dynamics::{ChurnConfig, Timeline};
//! use citymesh_map::CityArchetype;
//! use citymesh_stream::{
//!     generate_stream_flows, try_run_stream, ArrivalProcess, StreamConfig, StreamWorkload,
//! };
//! use citymesh_telemetry::TelemetryConfig;
//!
//! let exp = CityExperiment::prepare(
//!     CityArchetype::SurveyDowntown.generate(7),
//!     ExperimentConfig { seed: 7, ..ExperimentConfig::default() },
//! );
//! let flows = generate_stream_flows(
//!     exp.map().len(),
//!     &StreamWorkload {
//!         flows: 300,
//!         process: ArrivalProcess::Poisson { rate_hz: 2000.0 },
//!         seed: 7,
//!     },
//! );
//! let timeline = Timeline::materialize(
//!     &exp,
//!     &ChurnConfig { aftershocks: 0, battery_waves: 0, crew_repairs: 0, ..ChurnConfig::default() },
//! );
//! let cfg = StreamConfig { servers: 2, seed: 7, queue_capacity: 8, ..StreamConfig::default() };
//! let serial = try_run_stream(&exp, &flows, &timeline, &cfg, &TelemetryConfig::off())?.0;
//! let parallel = try_run_stream(
//!     &exp, &flows, &timeline,
//!     &StreamConfig { workers: 4, ..cfg }, &TelemetryConfig::off(),
//! )?.0;
//! assert_eq!(serial.digest(), parallel.digest());
//! assert_eq!(serial.offered, serial.admitted + serial.shed());
//! # Ok::<(), citymesh_stream::StreamError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod engine;

pub use arrivals::{
    generate_stream_flows, try_generate_stream_flows, ArrivalProcess, StreamWorkload,
};
pub use engine::{
    try_run_stream, Admission, FlowClass, ServerQueue, ServiceModel, ShedReason, StreamConfig,
    StreamError, StreamReport, DOMAIN_CLASS,
};
