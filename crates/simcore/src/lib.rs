//! Deterministic discrete-event simulation engine for CityMesh.
//!
//! The paper's preliminary evaluation (§4) drives a SimPy event
//! simulation over a static AP graph. This crate is the Rust
//! equivalent, designed around three requirements:
//!
//! 1. **Determinism** — a run is a pure function of its seed. The event
//!    queue breaks timestamp ties by insertion sequence number, and all
//!    randomness flows through explicitly-seeded generators
//!    ([`SimRng`], [`split_seed`]) or keyed draws ([`keyed_jitter`],
//!    [`keyed_chance`]). Every figure in EXPERIMENTS.md can
//!    be regenerated bit-for-bit.
//! 2. **Scale** — city simulations schedule millions of packet
//!    broadcast events; the scheduler is one `Vec` kept sorted by
//!    `(time, seq)` (the few dozen events a conduit flood keeps pending
//!    shift faster than a heap sifts) with no per-event allocation
//!    beyond the event payload itself.
//! 3. **Explicit radio modeling** — [`radio`] provides the
//!    log-distance/shadowing model the synthetic measurement study
//!    draws beacon receptions from. The delivery simulation uses the
//!    paper's "symmetric transmission range cutoff of 50 m", which the
//!    AP graph applies directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
mod event_queue;
pub mod radio;
mod rng;
pub mod stats;
mod time;

pub use digest::Fnv64;
pub use event_queue::{EventQueue, Simulation};
pub use rng::{keyed_chance, keyed_jitter, split_seed, substream_seed, SimRng};
pub use stats::Histogram;
pub use time::SimTime;
