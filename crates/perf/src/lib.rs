//! citymesh-perf: the repository's benchmark.
//!
//! One command runs one of five named workloads for one seed and
//! reports eight end-to-end metrics — the simulator's speed (host
//! time) beside the modelled network's behaviour (simulated) — or,
//! with `--trace 1`, per-layer metrics from in-memory spans around
//! every call into a layer. Every run checks that what it measured is
//! correct: the engines' digests must equal those of an independent
//! replay of the same flows through the public layer calls.
//!
//! The definition — workloads, metrics, bounds, what each layer metric
//! is expected to move — lives in [`spec`] and, for tools, in
//! `BENCHMARK.json` at the repository root; `README.md` beside this
//! crate explains the protocol and why each rule exists.

#![warn(missing_docs)]

pub mod agree;
pub mod alloc;
pub mod host;
pub mod json;
pub mod run;
pub mod span;
pub mod spec;
pub mod stats;
pub mod workload;
