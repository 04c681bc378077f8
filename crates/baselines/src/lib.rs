//! Baseline routing algorithms and MANET cost models.
//!
//! The paper's related-work argument (§5) is that existing approaches
//! fail at city scale for different reasons: flooding for transmission
//! cost, proactive/reactive MANET protocols for control-traffic cost,
//! and geographic routing for dead-end fragility when positions are
//! imprecise. This crate makes those arguments *measurable*:
//!
//! * [`flooding`] — global and TTL-scoped flooding over the true AP
//!   graph: the delivery-guarantee upper bound and the transmission
//!   cost to beat.
//! * [`greedy`] — greedy geographic forwarding (with and without a
//!   backtracking escape): the stateless-per-node baseline whose
//!   dead-end failures motivate building routing.
//! * [`face`] — full GPSR: greedy + perimeter-mode recovery over a
//!   Gabriel-planarized graph, the §5 geographic-routing baseline
//!   with its dead-end machinery actually implemented.
//! * [`manet`] — closed-form control-overhead models for DSDV-style
//!   proactive and AODV-style reactive protocols, used in the N-sweep
//!   scaling comparison (CityMesh's control traffic is identically
//!   zero).
//!
//! The churn benchmarks' Babel/QSPN-style reactive local repair is not
//! here: it is a retry policy of CityMesh's own flow body
//! (`citymesh_core::RetryPolicy::local_repair`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod face;
pub mod flooding;
pub mod greedy;
pub mod manet;

pub use face::{gabriel_adjacency, gpsr_route, gpsr_route_on, GpsrOutcome};
pub use flooding::{flood, FloodOutcome};
pub use greedy::{greedy_route, GreedyOutcome, GreedyPolicy};
pub use manet::{aodv_discovery_cost, dsdv_update_cost, olsr_update_cost, ManetScale};
