//! Graph algorithms for CityMesh.
//!
//! Two graphs drive the system (paper §3–§4):
//!
//! * the **building graph** — vertices are buildings, edges are
//!   predicted inter-building AP connectivity, weighted by
//!   *cubed* distance; routes are computed with
//!   [`astar_path_filtered_into`], and whole shortest-path trees (route
//!   rows, ALT landmark distances) with [`dijkstra_tree_with`];
//! * the **AP graph** — vertices are access points, edges connect APs
//!   within transmission range, stored by its owner as plain neighbour
//!   rows; reachability is answered with [`label_components`], and the
//!   *ideal unicast* denominator of the paper's transmission-overhead
//!   metric is the BFS hop count, answered without a flood by
//!   [`HopLandmarks`] (the `citymesh-reference` crate holds the BFS it
//!   is tested against).
//!
//! The building graph is a [`CsrGraph`]: built once from an edge list
//! by [`CsrGraph::from_edges`] into compressed sparse rows with `u32`
//! vertex ids, and read by every weighted search here. Those searches
//! share one relaxation, and so one tie-break (see [`PlannerScratch`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod components;
mod csr;
mod hierarchy;
mod hops;
mod landmarks;
mod scratch;

pub use components::label_components;
pub use csr::{bucket_by_key, CsrGraph, Edge};
pub use hierarchy::{
    HierParams, HierScratch, HierStats, Hierarchy, Partition, MAX_OVERLAY_LANDMARKS,
};
pub use hops::{hops_to_set_row, HopLandmarks, HopScratch, HopStats, HOP_LANDMARKS};
pub use landmarks::{landmark_candidates, FarthestPoint};
pub use scratch::{astar_path_filtered_into, dijkstra_tree_with, PlannerScratch, INFINITY};
