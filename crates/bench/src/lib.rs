//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (see DESIGN.md §3 for the index and
//! EXPERIMENTS.md for recorded paper-vs-measured comparisons).
//!
//! Each figure is a pure function from a seed to a data structure, so
//! integration tests can assert on the numbers and the `figures`
//! binary is a dispatch table. The nine extension sweeps share one
//! shape ([`sweep::Sweep`]): parameters per named scale, a run that
//! asserts its own invariants, its stdout tables and charts, and the
//! values [`goldens`] pins — checked by `figures -- check` and by the
//! root crate's `tests/goldens.rs`. The split per module:
//!
//! * [`survey_figs`] — Table 1, Figure 1a, Figure 1b, Figure 2 (§2).
//! * [`eval_figs`] — Figure 6 (reachability / deliverability /
//!   overhead per city) and the §4 header-size statistics.
//! * [`render`] — Figure 5 and Figure 7 (map renders, SVG + ASCII).
//! * [`scaling`] — the §5 control-overhead scaling comparison and the
//!   flooding-vs-CityMesh transmission comparison.
//! * [`ablation`] — sweeps over the design choices DESIGN.md calls
//!   out: weight exponent, conduit width, AP density, range, and
//!   route encoding.
//! * [`fleet_figs`] — heavy-traffic throughput (flows/sec) and the
//!   parallel-vs-serial determinism check.
//! * [`planner_figs`] — planner fast-path throughput: live
//!   pre-fast-path baseline vs cold vs warm scratch-reuse planning,
//!   digest-checked bit-identical.
//! * [`resilience_figs`] — graceful degradation under injected AP
//!   failures: delivery rate vs failed fraction per archetype, retry
//!   ladder on vs off.
//! * [`churn_figs`] — the dynamic-world sweep: delivery rate and
//!   replan cost vs churn level per archetype for static-plan vs
//!   retry-ladder vs reactive-repair senders, with incremental cache
//!   invalidation digest-checked against full flushes.
//! * [`telemetry_figs`] — the observability layer's zero-perturbation
//!   proof plus per-rung latency/overhead breakdowns and a sample
//!   failure postmortem.
//! * [`metro_figs`] — metro-scale hierarchical routing: flat vs
//!   district-overlay planner throughput and per-AP routing-state
//!   size over tiled 100k-building cities.
//! * [`streaming_figs`] — always-on engine latency under load: p50/p99
//!   sojourn, explicit shed counts, and the saturation knee vs offered
//!   load, flat downtown and hierarchical metro.
//! * [`placement_figs`] — deployment optimization: random vs greedy vs
//!   annealed hardened-site placement per archetype, healthy and
//!   blackout.
//! * [`crypto_figs`] — secure message plane cost: plaintext vs
//!   encrypted-cold vs encrypted-warm fleet throughput with
//!   digest-checked outcome equality.
//! * [`sweep`] — the [`sweep::Sweep`] shape, the named scales, and the
//!   wall-time/peak-RSS footer every sweep reports through.
//! * [`goldens`] — the one table of golden pins and its `verify`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod churn_figs;
pub mod crypto_figs;
pub mod eval_figs;
pub mod fleet_figs;
pub mod goldens;
pub mod metro_figs;
pub mod placement_figs;
pub mod planner_figs;
pub mod render;
pub mod resilience_figs;
pub mod scaling;
pub mod streaming_figs;
pub mod survey_figs;
pub mod sweep;
pub mod telemetry_figs;
pub mod text;
