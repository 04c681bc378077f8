//! # CityMesh — decentralized fallback networks
//!
//! A Rust implementation of **CityMesh** from *"The Case for
//! Decentralized Fallback Networks"* (HotNets '24): city-scale
//! messaging over existing Wi-Fi access points, routed by geospatial
//! *building maps* instead of any distributed routing protocol.
//!
//! ## The idea in one paragraph
//!
//! When disasters or attacks take down ISPs and clouds, a city still
//! contains hundreds of thousands of powered Wi-Fi APs clustered
//! inside buildings. CityMesh turns them into a fallback network with
//! **zero routing state**: a sender plans a *building route* over a
//! graph derived from a cached city map (cubed-distance shortest
//! path), compresses it into a handful of *waypoint buildings* whose
//! connecting `W`-wide *conduits* cover the route, and puts only those
//! waypoint IDs in the packet header. Every AP that hears the packet
//! independently reconstructs the conduits from its own map copy and
//! rebroadcasts iff it lies inside one. Delivery ends at the
//! recipient's *postbox* AP, which stores sealed (end-to-end
//! encrypted) messages until the recipient checks in.
//!
//! ## Quick start
//!
//! ```
//! use citymesh::prelude::*;
//!
//! // A deterministic synthetic downtown (stand-in for an OSM extract).
//! let map = CityArchetype::SurveyDowntown.generate(42);
//! let mut net = DfnNetwork::new(map, ExperimentConfig::default(), 42)?;
//!
//! // Bob publishes his postbox address out-of-band (e.g. a QR code).
//! let bob = net.register_user([7u8; 32], 10).expect("building 10 is on the map");
//!
//! // Alice, in building 200, sends him a message through the mesh.
//! let receipt = net.send_text(200, &bob.address(), b"meet at the library");
//! assert!(receipt.delivered);
//! assert_eq!(receipt.attempts, 1); // a healthy city needs no retry
//!
//! // Bob's device checks in at his postbox and decrypts.
//! let inbox = net.check_mailbox(&bob, 10);
//! assert_eq!(inbox[0].1, b"meet at the library");
//! # Ok::<(), ConfigError>(())
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`geo`] | points, polygons, conduit rectangles, spatial index |
//! | [`map`] | city model, synthetic city generator, OSM loader |
//! | [`graph`] | the CSR graph, scratch A* / Dijkstra, components, hop ALT, district-overlay hierarchy |
//! | [`simcore`] | deterministic discrete-event engine, radio models |
//! | [`net`] | wire format: the bit-packed routing header |
//! | [`crypto`] | self-certifying IDs, X25519 + ChaCha20-Poly1305 |
//! | [`core`] | building routing, conduits, agents, postboxes, sim |
//! | [`fleet`] | parallel heavy-traffic engine, deterministic workloads |
//! | [`telemetry`] | metrics registry, flow tracer, failure postmortems |
//! | [`baselines`] | flooding, greedy geographic, reactive repair, MANET cost models |
//! | [`dynamics`] | churn engine: event timelines, epoch barriers, cache invalidation |
//! | [`stream`] | always-on engine: open-loop arrivals, backpressure, load shedding, priority classes |
//! | [`place`] | deployment optimization: hardened-site placement via greedy / simulated annealing |
//! | [`measure`] | the synthetic §2 wardriving study |
//!
//! The [`DfnNetwork`] type in this crate wires all of it into a
//! whole-network, in-memory harness used by the examples and
//! integration tests. Each mesh traversal it makes is one
//! [`core::CityExperiment::run_pair`] call — the pipeline the fleet,
//! stream and churn engines drive — so an
//! [`ExperimentConfig`](core::ExperimentConfig) carrying a
//! [`FaultScenario`](core::FaultScenario) damages the facade's city
//! too, and [`SendReceipt::attempts`] reports how far the scenario's
//! retry ladder climbed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use citymesh_baselines as baselines;
pub use citymesh_core as core;
pub use citymesh_crypto as crypto;
pub use citymesh_dynamics as dynamics;
pub use citymesh_fleet as fleet;
pub use citymesh_geo as geo;
pub use citymesh_graph as graph;
pub use citymesh_map as map;
pub use citymesh_measure as measure;
pub use citymesh_net as net;
pub use citymesh_place as place;
pub use citymesh_simcore as simcore;
pub use citymesh_stream as stream;
pub use citymesh_telemetry as telemetry;

mod network;

pub use network::{DfnNetwork, SendReceipt, User};

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use crate::network::{DfnNetwork, SendReceipt, User};
    pub use citymesh_core::{
        CityExperiment, ConfigError, Deployment, ExperimentConfig, FaultScenario, FaultState,
        HierParams, HierPlanScratch, HierPlanner, HierStats, Postbox, RebroadcastScope,
        RecoveryStage, RetryPolicy,
    };
    pub use citymesh_crypto::{Keypair, NodeId, PostboxAddress};
    pub use citymesh_dynamics::{
        try_run_churn, ChurnConfig, ChurnEngineConfig, ChurnReport, InvalidationPolicy, Timeline,
    };
    pub use citymesh_fleet::{
        generate_flows, try_run_fleet, try_run_fleet_traced, FleetConfig, FleetReport,
        FleetTelemetry, FlowModel, WorkloadConfig,
    };
    pub use citymesh_geo::{Point, Polygon};
    pub use citymesh_map::{generate_metro, CityArchetype, CityMap, MetroParams};
    pub use citymesh_net::CityMeshHeader;
    pub use citymesh_place::{
        Annealer, Evaluator, GreedyPlacer, Metric, Objective, PlacementOptimizer, PlacementResult,
        RandomPlacer, ScenarioSpec, Score,
    };
    pub use citymesh_simcore::{SimRng, SimTime};
    pub use citymesh_stream::{
        generate_stream_flows, try_run_stream, ArrivalProcess, FlowClass, ShedReason, StreamConfig,
        StreamReport, StreamWorkload,
    };
    pub use citymesh_telemetry::{MetricSet, Postmortem, TelemetryConfig, TraceConfig};
}
