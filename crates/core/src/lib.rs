//! CityMesh: building routing for decentralized fallback networks.
//!
//! This crate is the paper's primary contribution (HotNets '24,
//! "The Case for Decentralized Fallback Networks"): a routing system
//! for city-scale Wi-Fi AP meshes that exchanges **no routing
//! metadata** between nodes. All shared state is a static geospatial
//! building map; a sender source-routes by picking a sequence of
//! buildings, compresses the route into *conduits*, and every AP
//! independently decides from the packet header plus its cached map
//! whether to rebroadcast.
//!
//! The pieces, in paper order (§3):
//!
//! 1. [`buildgraph`] — predict inter-building AP connectivity from
//!    footprints alone and weight edges by cubed distance.
//! 2. [`route`] — plan the building route (Dijkstra over the building
//!    graph); [`hier`] is its metro-scale counterpart, routing over a
//!    district overlay so planning stays sublinear in city size.
//! 3. [`conduit`] — compress the route into waypoint buildings whose
//!    connecting conduits (width `W`) cover every routed building
//!    (Figure 4), and reconstruct conduits at relay time.
//! 4. [`sim`] — the per-AP verdict, one per route: deliver in the
//!    destination, rebroadcast while the TTL lasts in the buildings
//!    ([`CoveredSet`]) or at the positions the conduits cover.
//! 5. [`postbox`] — destination-side store-and-forward with sealed
//!    (encrypted) messages, retrieval, and push notifications.
//!
//! The evaluation machinery (§4) lives alongside:
//!
//! * [`placement`] — AP placement inside footprints at a configurable
//!   density (the paper uses 1 AP / 200 m²).
//! * [`apgraph`] — the ground-truth AP connectivity graph (unit disk,
//!   50 m) used for reachability and the ideal-unicast hop count.
//! * [`sim`] — the event-driven broadcast simulation measuring
//!   deliverability and transmission overhead.
//! * [`faults`] — deterministic fault injection (AP outages, district
//!   blackouts, degraded radios) and the sender's graceful-degradation
//!   retry ladder.
//! * [`secure`] — the secure message plane: deterministic per-building
//!   keypairs (`NodeId = SHA-256(pubkey)`), the amortized per-pair
//!   session-key cache, and key rotation with churn-style session
//!   invalidation.
//! * [`pair_cache`] — the sharded building-pair memo under both the
//!   session-key cache and the fleet's route cache.
//!
//! The experiment itself is four modules, split along the state each
//! owns:
//!
//! * [`config`] — [`ExperimentConfig`] and its validation; a rejected
//!   value is a [`ConfigError`] naming the field.
//! * [`world`] — the prepared [`CityExperiment`]: map, placement, both
//!   graphs, and the one owner of everything a world event mutates
//!   (fault state, live postboxes, survivors; the deployment).
//! * [`plan`] — the RNG-free half of a flow: [`PlannedFlow`],
//!   [`PlanScratch`], the per-epoch retry-ladder memo.
//! * [`flow`] — the stochastic half: the one flow body behind
//!   [`FlowOpts`], `run_pair`, and `run`, which produces the numbers
//!   behind every figure (reachability, deliverability, overhead,
//!   header sizes).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apgraph;
pub mod buildgraph;
pub mod conduit;
pub mod config;
pub mod deploy;
pub mod faults;
pub mod flow;
pub mod hier;
pub mod pair_cache;
pub mod placement;
pub mod plan;
pub mod postbox;
pub mod route;
mod rows;
pub mod secure;
pub mod sim;
pub mod world;

pub use apgraph::ApGraph;
pub use buildgraph::{BuildingGraph, BuildingGraphParams};
pub use conduit::{
    compress_route, compress_route_into, reconstruct_conduits, reconstruct_conduits_into,
    within_conduits, CompressedRoute, ConduitError, CoveredSet,
};
pub use deploy::{Deployment, DeploymentError};
pub use faults::{ApHealth, FaultScenario, FaultState, RecoveryStage, RetryPolicy};
pub use hier::{HierPlanScratch, HierPlanner};
// Hier tuning/stats types and the ideal-hops scratch live in
// `citymesh-graph`; re-exported here so downstream crates (fleet,
// bench) can configure the hierarchical planner and read planner
// counters without a direct graph dependency.
pub use citymesh_graph::{HierParams, HierStats, HopScratch, HopStats};
pub use config::{ConfigError, ExperimentConfig, RebroadcastScope};
pub use flow::{CityResult, FlowOpts, PairOutcome};
pub use pair_cache::{Admission, PairCache};
pub use placement::{place_aps, postbox_ap, Ap};
pub use plan::{PlanScratch, PlannedFlow};
pub use postbox::{Postbox, PostboxError, StoredMessage};
pub use route::{
    plan_route, plan_route_avoiding_into, plan_route_into, RouteError, RouteStats, Survivors,
};
pub use secure::{SecureState, SessionScratch, TamperMode, DOMAIN_KEYS};
pub use sim::{
    simulate_delivery_faulted, ApRole, DeliveryReport, DeliveryScratch, DetourStats, KernelStats,
    OverheadOutcome, Relays,
};
pub use world::{CityExperiment, DeploymentTransition, EpochTransition};

/// The paper's default Wi-Fi transmission range, meters (§4).
pub const DEFAULT_RANGE_M: f64 = 50.0;
/// The paper's default AP density: one AP per this many m² of building
/// footprint (§4).
pub const DEFAULT_M2_PER_AP: f64 = 200.0;
/// The paper's default conduit width `W`, meters (§3: "comparable to
/// the Wi-Fi transmission range, 50 m in our implementation").
pub const DEFAULT_CONDUIT_WIDTH_M: f64 = 50.0;
