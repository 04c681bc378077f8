//! Naive references for the CityMesh oracles.
//!
//! Each production kernel is graded against something simpler that
//! computes the same answer the slow way: the delivery kernel against
//! one stateful [`ApAgent`] per AP, the scratch searches and the
//! building graph's landmark table against an allocating [`dijkstra`],
//! the ideal-hops search against a BFS flood ([`bfs_distance_to`]),
//! production detours against [`plan_route_avoiding`], and route
//! compression against the exhaustive greedy cover
//! ([`compress_route`]). The answers
//! are the paper's §4 numbers — deliverability, and overhead as
//! broadcasts over BFS ideal hops — so the references live here, where
//! no production path can call them: only tests, oracles and the
//! bench's pre-fast-path planner baseline depend on this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agent;
mod conduit;
mod route;
mod search;

pub use agent::{decide, Action, ApAgent, SeenCache};
pub use conduit::compress_route;
pub use route::plan_route_avoiding;
pub use search::{
    astar, bfs, bfs_distance_to, bfs_path, dijkstra, dijkstra_path, dijkstra_path_filtered,
    FloodScratch, PathResult,
};
