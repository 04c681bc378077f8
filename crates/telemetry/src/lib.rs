//! # citymesh-telemetry
//!
//! Deterministic, zero-overhead-when-disabled observability for the
//! citymesh stack: a static metric registry, a per-worker flow tracer
//! that captures the flows it is armed for as postmortems, and a JSON
//! exporter.
//!
//! Three invariants govern the whole crate:
//!
//! 1. **Zero overhead when off.** A disabled [`FlowTracer`] allocates
//!    nothing and every call on it is a branch; the metric paths live
//!    outside the delivery kernel entirely. The fleet's counting-
//!    allocator tests pass with telemetry compiled in but disabled.
//! 2. **Observation only.** Telemetry never draws randomness and never
//!    feeds back into routing or simulation, so every RNG sub-stream,
//!    flow outcome, and fleet digest is bit-identical with tracing on
//!    or off.
//! 3. **Schedule independence.** All metric values are integers whose
//!    merge commutes, and which flows are traced is decided by flow
//!    identity and outcome ([`TraceConfig::keeps`]) — aggregate
//!    metrics, fingerprints, and postmortem sets are identical across 1, 4, or 8 workers. (The few counters of
//!    work racing workers may repeat — [`metrics::SCHEDULE_DEPENDENT`]
//!    — are informational and outside the fingerprint.)
//!
//! The crate sits at the bottom of the workspace dependency graph (no
//! dependencies), so simcore, core, fleet, and bench can all use it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod metrics;
pub mod trace;

pub use metrics::{CounterDef, CounterId, GaugeDef, GaugeId, MetricSet, COUNTERS, GAUGES};
pub use trace::{
    FlowSummary, FlowTracer, Postmortem, RecoveryStage, TelemetryConfig, TraceConfig, TraceEvent,
    DEFAULT_RING_CAPACITY,
};
