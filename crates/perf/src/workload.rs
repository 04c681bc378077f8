//! The five workloads: world construction, traffic generation, the
//! engine call a round times, and the *replay* — the same flows
//! re-executed from outside the engines through the public layer
//! calls, with a span around each call.
//!
//! The world of a workload (map seed, fault scenario, event timeline,
//! server count, capacity probe) is a constant of the workload;
//! `--seed` draws only the traffic and the per-flow simulation
//! sub-streams. With the world also drawn from the seed, run-to-run
//! differences would be workload variance, not noise.

use std::collections::HashSet;
use std::time::Instant;

use citymesh_core::{
    CityExperiment, DeliveryScratch, ExperimentConfig, FaultScenario, HierParams, PairOutcome,
    PlanScratch, PlannedFlow, RetryPolicy,
};
use citymesh_dynamics::{
    try_run_churn, ChurnConfig, ChurnEngineConfig, InvalidationPolicy, Strategy, Timeline,
};
use citymesh_fleet::{
    generate_flows, try_run_fleet_on_cache, try_run_fleet_traced, FleetConfig, FleetReport,
    FlowModel, FlowSpec, RouteCache, WorkloadConfig, DOMAIN_MSG, DOMAIN_SIM,
};
use citymesh_graph::HierStats;
use citymesh_map::{generate_metro, CityArchetype, MetroParams};
use citymesh_simcore::{substream_seed, SimRng};
use citymesh_stream::{
    generate_stream_flows, try_run_stream, Admission, ArrivalProcess, FlowClass, ServerQueue,
    ShedReason, StreamConfig, StreamReport, StreamWorkload, DOMAIN_CLASS,
};
use citymesh_telemetry::TelemetryConfig;

use crate::span::{Layer, Tracer, NO_FLOW};
use crate::stats::{quantile_sorted, sorted};

/// Seed of everything that is part of a workload's world rather than
/// its traffic: map, AP placement, fault scenario, timeline, capacity
/// probe.
pub const WORLD_SEED: u64 = 2024;

/// The five workloads, by name in [`crate::spec::WORKLOADS`] order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Hotspot traffic on a warm route cache.
    FleetHot,
    /// Uniform pairs, encrypted, cold caches.
    SecureCold,
    /// Tiled metro, hierarchical planner, cold cache.
    MetroHier,
    /// Poisson arrivals at twice the probed capacity.
    StreamSurge,
    /// Blackout world, mid-run events, retry ladder.
    ChurnLadder,
}

impl Kind {
    /// Every workload, in [`crate::spec::WORKLOADS`] order.
    pub const ALL: [Kind; 5] = [
        Kind::FleetHot,
        Kind::SecureCold,
        Kind::MetroHier,
        Kind::StreamSurge,
        Kind::ChurnLadder,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        crate::spec::WORKLOADS[self as usize].name
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Flows per round at full scale. Sized so that every workload
    /// delivers at least 1 000 flows (ten samples lie beyond the p99)
    /// and a round takes one to two seconds on the reference machine.
    fn full_flows(self) -> usize {
        match self {
            Kind::FleetHot => 30_000,
            Kind::SecureCold => 8_000,
            Kind::MetroHier => 3_000,
            Kind::StreamSurge => 30_000,
            Kind::ChurnLadder => 10_000,
        }
    }
}

/// How much of a workload to run: the benchmark runs [`Scale::FULL`];
/// the crate's tests run the same code on [`Scale::SMALL`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Flows per round are the full count divided by this.
    pub flows_div: usize,
    /// The metro is this many tiles on a side.
    pub metro_tiles: usize,
}

impl Scale {
    /// The benchmark proper. The metro is 2 x 2 tiles (5 574 buildings,
    /// ~20 MiB): on 4 x 4 (22 018 buildings, ~59 MiB) the working set
    /// lies far outside the core's own cache, and when a neighbour on
    /// the shared host was busy `flows_per_s` fell 19 % for minutes
    /// (3 x 3: 12 %, 2 x 2: 7 %, downtown: 1 %), which no estimator
    /// inside one run can remove.
    pub const FULL: Scale = Scale {
        flows_div: 1,
        metro_tiles: 2,
    };
    /// 1/100 of the flows on a one-tile metro, for tests (1/50 takes an
    /// unoptimised build twice the 15 s the suite may use).
    pub const SMALL: Scale = Scale {
        flows_div: 100,
        metro_tiles: 1,
    };
}

/// Hotspot buildings of the two hotspot workloads. With 8 or 64 the
/// seed-to-seed spread of `flows_per_s` was 13 % / 6 %; 256 of the 530
/// downtown buildings keeps the pair population, and so the work per
/// round, steady across seeds.
const HOTSPOTS: usize = 256;
/// Zipf exponent of the hotspot workloads.
const HOTSPOT_EXPONENT: f64 = 0.8;
/// Simulated span of the churn workload's traffic and timeline, ms.
const CHURN_HORIZON_MS: f64 = 2_000.0;
/// Radius of the churn world's initial blackout disc, and of each of
/// its aftershocks, meters. Sized so that about a third of the flows
/// retry and three quarters of the delivered ones deliver first try:
/// with the delivered flows split evenly between first-try and
/// recovered (100 m / 120 m), the median latency flipped between
/// ~38 ms and ~120 s (two timed-out attempts) from seed to seed.
const CHURN_BLACKOUT_RADIUS_M: f64 = 60.0;
const CHURN_AFTERSHOCK_RADIUS_M: f64 = 80.0;
/// Offered load of the stream workload, as a multiple of the probed
/// capacity.
const SURGE_LOAD: f64 = 2.0;
/// Flows of the stream workload's fixed-seed underload probe.
const PROBE_FLOWS: usize = 256;
/// Endpoint pairs the point probes sample: flat against hierarchical
/// routes on the metro, session derivation and seal/open on the secure
/// plane.
pub const SAMPLE_PAIRS: usize = 200;

/// Which engine a workload drives, with its configuration.
enum Engine {
    Fleet {
        cfg: FleetConfig,
        /// Keep the benchmark-owned route cache across rounds (every
        /// timed flow a hit) instead of starting each round cold.
        warm: bool,
    },
    Stream {
        cfg: StreamConfig,
        timeline: Timeline,
    },
    Churn {
        cfg: ChurnEngineConfig,
        timeline: Timeline,
    },
}

/// A workload ready to run: world built, traffic generated.
pub struct Prepared {
    /// The traffic seed.
    seed: u64,
    exp: CityExperiment,
    flows: Vec<FlowSpec>,
    engine: Engine,
    /// The benchmark-owned cache warm workloads keep across rounds.
    cache: RouteCache,
    /// The replay's planner and delivery scratch, kept across rounds:
    /// after round 0 they are warm, so the traced rounds read the
    /// steady-state allocation counts (an engine call builds its own
    /// per worker, which shows as engine overhead).
    scratches: Scratches,
}

struct Scratches {
    plan: PlanScratch,
    delivery: DeliveryScratch,
}

/// One engine call, timed.
#[derive(Clone, Debug)]
pub struct EngineRound {
    /// Wall time of the call, seconds.
    pub wall_s: f64,
    /// Everything outcome-bearing the engine reported, for comparison
    /// with [`Replay::signature`].
    pub signature: Vec<u64>,
}

/// Counters a replay round reads at the layer boundaries.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerCounts {
    /// `RouteCache::get_or_plan` calls that found the plan.
    pub cache_hits: u64,
    /// `RouteCache::get_or_plan` calls that planned.
    pub cache_misses: u64,
    /// `RouteCache::len` at round end.
    pub cache_entries: u64,
    /// Plans `RouteCache::evict_where` dropped, all events.
    pub evicted: u64,
    /// `DeliveryScratch::keys_derived` at round end.
    pub keys_derived: u64,
    /// `PlanScratch::hier_stats` at round end.
    pub hier: HierStats,
    /// Deepest any server queue got.
    pub max_depth: u64,
    /// Admitted flows past degradation rung 1.
    pub degraded_tracing: u64,
    /// Admitted flows past degradation rung 2.
    pub degraded_retry: u64,
    /// Offered flows classed emergency.
    pub offered_emergency: u64,
    /// Emergency flows shed.
    pub shed_emergency: u64,
}

/// What the flows of one round became, folded flow by flow from the
/// per-flow [`PairOutcome`]s — the sample every simulated metric is
/// computed from, exactly.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Flows offered.
    pub offered: u64,
    /// Flows admitted (all of them outside the stream workload).
    pub admitted: u64,
    /// Flows shed on a full queue.
    pub shed_backpressure: u64,
    /// Flows shed on the deadline.
    pub shed_deadline: u64,
    /// Admitted flows whose endpoints the AP graph connects.
    pub reachable: u64,
    /// Admitted flows the planner routed.
    pub route_found: u64,
    /// Flows delivered.
    pub delivered: u64,
    /// Flows that reached the simulator (`attempts > 0`).
    pub simulated: u64,
    /// Radio broadcasts over simulated flows, retries included.
    pub broadcasts: u64,
    /// Send attempts over simulated flows.
    pub attempts: u64,
    /// Flows that needed more than one attempt.
    pub retried: u64,
    /// Retried flows a later rung delivered.
    pub recovered: u64,
    /// Compressed-route header bits over routed flows.
    pub header_bits: u64,
    /// Flows sealed before transmission.
    pub sealed: u64,
    /// Sealed flows the receiver opened.
    pub opened: u64,
    /// Sealed flows that failed authentication.
    pub auth_failures: u64,
    /// The latency sample, ms: first-delivery latency of delivered
    /// flows; on the stream workload, sojourn (queue wait + modelled
    /// service) of admitted flows.
    pub latencies_ms: Vec<f64>,
}

impl Tally {
    fn shed(&mut self, reason: ShedReason) {
        self.offered += 1;
        match reason {
            ShedReason::Backpressure => self.shed_backpressure += 1,
            ShedReason::Deadline => self.shed_deadline += 1,
        }
    }

    /// Folds one admitted flow in. `sojourn_ms` replaces the delivery
    /// latency as the latency sample where the workload queues.
    fn served(&mut self, o: &PairOutcome, sojourn_ms: Option<f64>) {
        self.offered += 1;
        self.admitted += 1;
        self.reachable += u64::from(o.reachable);
        if o.route_found {
            self.route_found += 1;
            self.header_bits += o.route_bits as u64;
        }
        if o.attempts > 0 {
            self.simulated += 1;
            self.broadcasts += o.broadcasts;
            self.attempts += u64::from(o.attempts);
        }
        if o.attempts > 1 {
            self.retried += 1;
            self.recovered += u64::from(o.delivered);
        }
        if o.sealed {
            self.sealed += 1;
            self.opened += u64::from(o.opened);
            self.auth_failures += u64::from(o.auth_failed);
        }
        self.delivered += u64::from(o.delivered);
        match sojourn_ms {
            Some(ms) => self.latencies_ms.push(ms),
            None => {
                if let (true, Some(t)) = (o.delivered, o.latency) {
                    self.latencies_ms.push(t.as_millis_f64());
                }
            }
        }
    }

    /// The five simulated end-to-end metrics, in
    /// [`crate::spec::END_TO_END`] order. `None` when nothing was
    /// delivered, simulated or routed — no workload is sized for that.
    pub fn sim_metrics(&self) -> Option<[f64; 5]> {
        let lat = sorted(self.latencies_ms.clone());
        if self.offered == 0 || self.simulated == 0 || self.route_found == 0 {
            return None;
        }
        Some([
            self.delivered as f64 / self.offered as f64,
            quantile_sorted(&lat, 0.5)?,
            quantile_sorted(&lat, 0.99)?,
            self.broadcasts as f64 / self.simulated as f64,
            self.header_bits as f64 / self.route_found as f64,
        ])
    }

    /// The accounting identities every round must satisfy, by name.
    pub fn identities(&self) -> Vec<(&'static str, bool)> {
        vec![
            (
                "offered == admitted + shed",
                self.offered == self.admitted + self.shed_backpressure + self.shed_deadline,
            ),
            (
                "delivered <= route_found <= admitted",
                self.delivered <= self.route_found && self.route_found <= self.admitted,
            ),
            (
                "delivered <= reachable <= admitted",
                self.delivered <= self.reachable && self.reachable <= self.admitted,
            ),
            // Only a delivered message reaches the receiver, and one
            // that fails authentication stops counting as delivered.
            (
                "sealed runs: opened == delivered, opened + auth_failures <= sealed",
                self.sealed == 0
                    || (self.opened == self.delivered
                        && self.sealed == self.admitted
                        && self.opened + self.auth_failures <= self.sealed),
            ),
            (
                "recovered <= retried <= simulated <= route_found",
                self.recovered <= self.retried
                    && self.retried <= self.simulated
                    && self.simulated <= self.route_found,
            ),
        ]
    }
}

/// One replay round: the flows of the workload pushed through the
/// public layer calls on one thread.
#[derive(Clone, Debug)]
pub struct Replay {
    /// Wall time of the round, seconds.
    pub wall_s: f64,
    /// What an engine round must report to agree with this replay.
    pub signature: Vec<u64>,
    /// The per-flow outcomes, folded.
    pub tally: Tally,
    /// Counters read at the layer boundaries.
    pub counts: LayerCounts,
}

/// The per-flow body all three engines share, called from outside:
/// cache hit-or-plan, then simulate.
struct FlowExec<'a> {
    cache: &'a RouteCache,
    hier: bool,
    encrypted: bool,
    seed: u64,
    /// Fault injection for the benchmark's own tests: simulate this
    /// flow with its neighbour's RNG sub-stream.
    corrupt_flow: Option<u64>,
    scratches: &'a mut Scratches,
    /// Cumulative counters of cache and scratches when the round began.
    before: LayerCounts,
}

impl<'a> FlowExec<'a> {
    fn new(
        cache: &'a RouteCache,
        scratches: &'a mut Scratches,
        seed: u64,
        corrupt_flow: Option<u64>,
    ) -> Self {
        let before = LayerCounts {
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            keys_derived: scratches.delivery.keys_derived(),
            hier: scratches.plan.hier_stats(),
            ..LayerCounts::default()
        };
        FlowExec {
            cache,
            hier: false,
            encrypted: false,
            seed,
            corrupt_flow,
            scratches,
            before,
        }
    }

    fn run(&mut self, world: &CityExperiment, flow: &FlowSpec, t: &mut Tracer) -> PairOutcome {
        let lookup = t.enter(Layer::Cache, flow.id);
        let plan = self.cache.get_or_plan(flow.src, flow.dst, || {
            let planning = t.enter(
                if self.hier {
                    Layer::PlanHier
                } else {
                    Layer::PlanFlat
                },
                flow.id,
            );
            let mut plan = PlannedFlow::empty(flow.src, flow.dst);
            let scratch = &mut self.scratches.plan;
            if self.hier {
                world.plan_flow_hier_into(flow.src, flow.dst, scratch, &mut plan);
            } else {
                world.plan_flow_into(flow.src, flow.dst, scratch, &mut plan);
            }
            t.exit(planning);
            plan
        });
        t.exit(lookup);
        let msg_id = substream_seed(self.seed, DOMAIN_MSG, flow.id);
        let stream = if self.corrupt_flow == Some(flow.id) {
            flow.id + 1
        } else {
            flow.id
        };
        let mut rng = SimRng::new(substream_seed(self.seed, DOMAIN_SIM, stream));
        let scratch = &mut self.scratches.delivery;
        let sim = t.enter(Layer::Sim, flow.id);
        let outcome = if self.encrypted {
            world.simulate_flow_secure_with(&plan, msg_id, &mut rng, scratch)
        } else {
            world.simulate_flow_with(&plan, msg_id, &mut rng, scratch)
        };
        t.exit(sim);
        outcome
    }

    /// The counters this round added to the cache and the scratches.
    fn counts(&self) -> LayerCounts {
        let (now, was) = (self.scratches.plan.hier_stats(), self.before.hier);
        LayerCounts {
            cache_hits: self.cache.hits() - self.before.cache_hits,
            cache_misses: self.cache.misses() - self.before.cache_misses,
            cache_entries: self.cache.len() as u64,
            keys_derived: self.scratches.delivery.keys_derived() - self.before.keys_derived,
            hier: HierStats {
                queries: now.queries - was.queries,
                direct_routes: now.direct_routes - was.direct_routes,
                overlay_settled: now.overlay_settled - was.overlay_settled,
                expansions: now.expansions - was.expansions,
                dirty_rescans: now.dirty_rescans - was.dirty_rescans,
            },
            ..LayerCounts::default()
        }
    }
}

fn absorb(report: &mut FleetReport, flow: &FlowSpec, o: &PairOutcome, t: &mut Tracer) {
    let span = t.enter(Layer::Absorb, flow.id);
    report.absorb_outcome(flow, o);
    t.exit(span);
}

fn downtown(faults: Option<FaultScenario>, t: &mut Tracer) -> Result<CityExperiment, String> {
    let span = t.enter(Layer::MapGenerate, NO_FLOW);
    let map = CityArchetype::SurveyDowntown.generate(WORLD_SEED);
    t.exit(span);
    prepare(map, faults, t)
}

fn prepare(
    map: citymesh_map::CityMap,
    faults: Option<FaultScenario>,
    t: &mut Tracer,
) -> Result<CityExperiment, String> {
    let span = t.enter(Layer::CorePrepare, NO_FLOW);
    let exp = CityExperiment::try_prepare(
        map,
        ExperimentConfig {
            seed: WORLD_SEED,
            faults,
            ..ExperimentConfig::default()
        },
    )
    .map_err(|e| e.to_string());
    t.exit(span);
    exp
}

fn batch_flows(exp: &CityExperiment, cfg: &WorkloadConfig, t: &mut Tracer) -> Vec<FlowSpec> {
    let span = t.enter(Layer::WorkloadGenerate, NO_FLOW);
    let flows = generate_flows(exp.map().len(), cfg);
    t.exit(span);
    flows
}

/// A timeline with no events: the stream workload's world is static.
fn no_events(exp: &CityExperiment) -> Timeline {
    Timeline::materialize(
        exp,
        &ChurnConfig {
            aftershocks: 0,
            battery_waves: 0,
            crew_repairs: 0,
            ..ChurnConfig::default()
        },
    )
}

impl Prepared {
    /// Builds the world of `kind` and generates its traffic from
    /// `seed`, with a span around each stage. Everything a user waits
    /// for before the first flow can run happens in here.
    pub fn setup(kind: Kind, seed: u64, scale: Scale, t: &mut Tracer) -> Result<Prepared, String> {
        let n = (kind.full_flows() / scale.flows_div.max(1)).max(8);
        let fleet_cfg = FleetConfig {
            workers: 1,
            seed,
            ..FleetConfig::default()
        };
        // Fleet arrival times feed only the digest's span field; the
        // rate is arbitrary.
        let rate_hz = 1_000.0;
        let (exp, flows, engine) = match kind {
            Kind::FleetHot => {
                let exp = downtown(None, t)?;
                let flows = batch_flows(
                    &exp,
                    &WorkloadConfig {
                        flows: n,
                        model: FlowModel::Hotspot {
                            hotspots: HOTSPOTS,
                            exponent: HOTSPOT_EXPONENT,
                            rate_hz,
                        },
                        seed,
                    },
                    t,
                );
                let engine = Engine::Fleet {
                    cfg: fleet_cfg,
                    warm: true,
                };
                (exp, flows, engine)
            }
            Kind::SecureCold => {
                let mut exp = downtown(None, t)?;
                let span = t.enter(Layer::SecureRegistry, NO_FLOW);
                exp.enable_encryption();
                t.exit(span);
                let flows = batch_flows(
                    &exp,
                    &WorkloadConfig {
                        flows: n,
                        model: FlowModel::UniformPairs { rate_hz },
                        seed,
                    },
                    t,
                );
                let engine = Engine::Fleet {
                    cfg: FleetConfig {
                        encrypted: true,
                        ..fleet_cfg
                    },
                    warm: false,
                };
                (exp, flows, engine)
            }
            Kind::MetroHier => {
                let span = t.enter(Layer::MapGenerate, NO_FLOW);
                let map = generate_metro(
                    &MetroParams::with_tiles(scale.metro_tiles, scale.metro_tiles),
                    WORLD_SEED,
                );
                t.exit(span);
                let mut exp = prepare(map, None, t)?;
                let span = t.enter(Layer::HierBuild, NO_FLOW);
                exp.enable_hier(&HierParams::default());
                t.exit(span);
                let flows = batch_flows(
                    &exp,
                    &WorkloadConfig {
                        flows: n,
                        model: FlowModel::UniformPairs { rate_hz },
                        seed,
                    },
                    t,
                );
                let engine = Engine::Fleet {
                    cfg: FleetConfig {
                        use_hier_planner: true,
                        ..fleet_cfg
                    },
                    warm: false,
                };
                (exp, flows, engine)
            }
            Kind::StreamSurge => {
                let exp = downtown(None, t)?;
                let cfg = StreamConfig {
                    workers: 1,
                    servers: 16,
                    seed,
                    queue_capacity: 16,
                    deadline_ms: 60.0,
                    emergency_fraction: 0.1,
                    priority_reserve: 4,
                    ..StreamConfig::default()
                };
                let timeline = no_events(&exp);
                let span = t.enter(Layer::CapacityProbe, NO_FLOW);
                let capacity_hz = probe_capacity_hz(&exp, &timeline, &cfg);
                t.exit(span);
                let capacity_hz = capacity_hz?;
                let span = t.enter(Layer::WorkloadGenerate, NO_FLOW);
                let flows = generate_stream_flows(
                    exp.map().len(),
                    &StreamWorkload {
                        flows: n,
                        process: ArrivalProcess::Poisson {
                            rate_hz: SURGE_LOAD * capacity_hz,
                        },
                        seed,
                    },
                );
                t.exit(span);
                (exp, flows, Engine::Stream { cfg, timeline })
            }
            Kind::ChurnLadder => {
                let scenario = FaultScenario::district_blackouts(1, CHURN_BLACKOUT_RADIUS_M);
                let exp = downtown(Some(scenario), t)?;
                // The traffic spans the timeline's horizon, so events
                // land among the flows at every scale.
                let flows = batch_flows(
                    &exp,
                    &WorkloadConfig {
                        flows: n,
                        model: FlowModel::Hotspot {
                            hotspots: HOTSPOTS,
                            exponent: HOTSPOT_EXPONENT,
                            rate_hz: n as f64 / (CHURN_HORIZON_MS / 1e3),
                        },
                        seed,
                    },
                    t,
                );
                let span = t.enter(Layer::TimelineMaterialize, NO_FLOW);
                let timeline = Timeline::materialize(
                    &exp,
                    &ChurnConfig {
                        aftershocks: 4,
                        battery_waves: 2,
                        crew_repairs: 2,
                        aftershock_radius_m: CHURN_AFTERSHOCK_RADIUS_M,
                        horizon_ms: CHURN_HORIZON_MS,
                        seed: WORLD_SEED,
                        ..ChurnConfig::default()
                    },
                );
                t.exit(span);
                let cfg = ChurnEngineConfig {
                    workers: 1,
                    seed,
                    invalidation: InvalidationPolicy::Incremental,
                    ..ChurnEngineConfig::default()
                };
                (exp, flows, Engine::Churn { cfg, timeline })
            }
        };
        Ok(Prepared {
            seed,
            exp,
            flows,
            engine,
            cache: RouteCache::new(),
            scratches: Scratches {
                plan: PlanScratch::new(),
                delivery: DeliveryScratch::new(),
            },
        })
    }

    /// Flows offered per round.
    pub fn flows(&self) -> u64 {
        self.flows.len() as u64
    }

    /// The prepared world.
    pub fn world(&self) -> &CityExperiment {
        &self.exp
    }

    /// Distinct unordered endpoint pairs among the flows: the number
    /// of session keys a cold encrypted round must derive.
    pub fn distinct_unordered_pairs(&self) -> u64 {
        self.flows
            .iter()
            .map(|f| (f.src.min(f.dst), f.src.max(f.dst)))
            .collect::<HashSet<_>>()
            .len() as u64
    }

    /// Whether rounds run on the secure message plane.
    pub fn encrypted(&self) -> bool {
        matches!(self.engine, Engine::Fleet { cfg, .. } if cfg.encrypted)
    }

    /// Session keys derived since the experiment was built (0 on a
    /// plaintext workload).
    pub fn session_misses(&self) -> u64 {
        self.exp.secure_state().map_or(0, |s| s.session_misses())
    }

    /// One engine call on `workers` threads through the engine's
    /// public entry point, timed from outside. Cold workloads start
    /// from an empty route cache (and session cache) every call.
    pub fn engine_round(
        &self,
        workers: usize,
        tel: &TelemetryConfig,
    ) -> Result<EngineRound, String> {
        match &self.engine {
            Engine::Fleet { cfg, warm } => {
                let cfg = FleetConfig { workers, ..*cfg };
                if let Some(secure) = self.exp.secure_state() {
                    secure.clear_sessions();
                }
                let started = Instant::now();
                let report = if *warm {
                    try_run_fleet_on_cache(&self.exp, &self.flows, &cfg, &self.cache, tel)
                } else {
                    try_run_fleet_traced(&self.exp, &self.flows, &cfg, tel)
                }
                .map_err(|e| e.to_string())?
                .0;
                Ok(EngineRound {
                    wall_s: started.elapsed().as_secs_f64(),
                    signature: vec![report.digest()],
                })
            }
            Engine::Stream { cfg, timeline } => {
                let cfg = StreamConfig { workers, ..*cfg };
                let started = Instant::now();
                let (report, _) = try_run_stream(&self.exp, &self.flows, timeline, &cfg, tel)
                    .map_err(|e| e.to_string())?;
                Ok(EngineRound {
                    wall_s: started.elapsed().as_secs_f64(),
                    signature: stream_signature(&report),
                })
            }
            Engine::Churn { cfg, timeline } => {
                let cfg = ChurnEngineConfig { workers, ..*cfg };
                let started = Instant::now();
                let (report, _) = try_run_churn(
                    &self.exp,
                    &self.flows,
                    timeline,
                    Strategy::RetryLadder,
                    &cfg,
                    tel,
                )
                .map_err(|e| e.to_string())?;
                let wall_s = started.elapsed().as_secs_f64();
                let signature = report
                    .epoch_stats
                    .iter()
                    .flat_map(|e| [e.flows, e.fleet_digest, e.fault_fingerprint, e.evicted])
                    .collect();
                Ok(EngineRound { wall_s, signature })
            }
        }
    }

    /// One replay round: the same flows from the same starting cache
    /// state, executed on this thread through the public layer calls
    /// with a span around each (when `t` is on).
    pub fn replay(&mut self, t: &mut Tracer, corrupt_flow: Option<u64>) -> Replay {
        t.reserve(self.flows.len() * 6 + 64);
        let started = Instant::now();
        let Prepared {
            exp,
            flows,
            engine,
            cache,
            scratches,
            ..
        } = self;
        let fresh = RouteCache::new();
        let warm = matches!(engine, Engine::Fleet { warm: true, .. });
        let exec = FlowExec::new(
            if warm { cache } else { &fresh },
            scratches,
            self.seed,
            corrupt_flow,
        );
        let (signature, tally, counts) = match engine {
            Engine::Fleet { cfg, .. } => replay_fleet(exp, flows, cfg, exec, t),
            Engine::Stream { cfg, .. } => replay_stream(exp, flows, cfg, exec, t),
            Engine::Churn { timeline, .. } => replay_churn(exp, flows, timeline, exec, t),
        };
        Replay {
            wall_s: started.elapsed().as_secs_f64(),
            signature,
            tally,
            counts,
        }
    }

    /// The first [`SAMPLE_PAIRS`] distinct endpoint pairs of the
    /// traffic — the sample on which flat and hierarchical planning
    /// are compared.
    pub fn sample_pairs(&self) -> Vec<(u32, u32)> {
        let mut seen = HashSet::new();
        self.flows
            .iter()
            .map(|f| (f.src, f.dst))
            .filter(|p| seen.insert(*p))
            .take(SAMPLE_PAIRS)
            .collect()
    }
}

/// The fleet engine's per-flow loop on one worker. A cold workload
/// starts from an empty route cache and session cache.
fn replay_fleet(
    exp: &CityExperiment,
    flows: &[FlowSpec],
    cfg: &FleetConfig,
    mut exec: FlowExec<'_>,
    t: &mut Tracer,
) -> (Vec<u64>, Tally, LayerCounts) {
    if let Some(secure) = exp.secure_state() {
        secure.clear_sessions();
    }
    exec.hier = cfg.use_hier_planner;
    exec.encrypted = cfg.encrypted;
    let mut report = FleetReport::empty();
    let mut tally = Tally::default();
    for flow in flows {
        let o = exec.run(exp, flow, t);
        absorb(&mut report, flow, &o, t);
        tally.served(&o, None);
    }
    (vec![report.digest()], tally, exec.counts())
}

/// The stream engine's epoch loop on one worker and a static
/// world: flows dealt to servers by `id % servers`, each server
/// processed serially in arrival order, records folded in flow-id
/// order afterwards.
fn replay_stream(
    exp: &CityExperiment,
    flows: &[FlowSpec],
    cfg: &StreamConfig,
    mut exec: FlowExec<'_>,
    t: &mut Tracer,
) -> (Vec<u64>, Tally, LayerCounts) {
    enum Record {
        Shed(ShedReason),
        Served {
            outcome: PairOutcome,
            sojourn_ms: f64,
        },
    }
    let mut counts = LayerCounts::default();
    let mut records: Vec<(usize, Record)> = Vec::with_capacity(flows.len());
    let mut makespan_ms = 0.0_f64;
    let servers = cfg.servers as u64;
    for s in 0..servers {
        let mut q = ServerQueue::new(cfg);
        for (i, flow) in flows.iter().enumerate() {
            if flow.id % servers != s {
                continue;
            }
            let mut rng = SimRng::new(substream_seed(cfg.seed, DOMAIN_CLASS, flow.id));
            let class = if rng.chance(cfg.emergency_fraction) {
                counts.offered_emergency += 1;
                FlowClass::Emergency
            } else {
                FlowClass::Bulk
            };
            let span = t.enter(Layer::QueueOffer, flow.id);
            let admission = q.offer_class(flow.arrival_ms, class);
            t.exit(span);
            match admission {
                Admission::Shed { reason, .. } => {
                    counts.shed_emergency += u64::from(class == FlowClass::Emergency);
                    records.push((i, Record::Shed(reason)));
                }
                Admission::Admit {
                    start_ms,
                    shed_tracing,
                    cap_retries,
                    ..
                } => {
                    counts.degraded_tracing += u64::from(shed_tracing);
                    counts.degraded_retry += u64::from(cap_retries);
                    // A healthy world has no ladder to cap, so the
                    // engine simulates rung-2 flows on the primary
                    // world too.
                    let outcome = exec.run(exp, flow, t);
                    let service_ms = cfg.service.base_ms
                        + cfg.service.per_broadcast_ms * outcome.broadcasts as f64;
                    let span = t.enter(Layer::QueueCommit, flow.id);
                    q.commit(start_ms, service_ms);
                    t.exit(span);
                    let wait_ms = start_ms - flow.arrival_ms;
                    makespan_ms = makespan_ms.max(flow.arrival_ms + wait_ms + service_ms);
                    records.push((
                        i,
                        Record::Served {
                            outcome,
                            sojourn_ms: wait_ms + service_ms,
                        },
                    ));
                }
            }
        }
        counts.max_depth = counts.max_depth.max(q.high_water() as u64);
    }
    records.sort_unstable_by_key(|(i, _)| *i);
    let mut report = FleetReport::empty();
    let mut tally = Tally::default();
    for (i, record) in &records {
        match record {
            Record::Shed(reason) => tally.shed(*reason),
            Record::Served {
                outcome,
                sojourn_ms,
            } => {
                absorb(&mut report, &flows[*i], outcome, t);
                tally.served(outcome, Some(*sojourn_ms));
            }
        }
    }
    let signature = vec![
        report.digest(),
        tally.offered,
        tally.admitted,
        tally.shed_backpressure,
        tally.shed_deadline,
        counts.degraded_tracing,
        counts.degraded_retry,
        counts.offered_emergency,
        counts.shed_emergency,
        counts.max_depth,
        makespan_ms.to_bits(),
    ];
    let lookups = exec.counts();
    (
        signature,
        tally,
        LayerCounts {
            cache_hits: lookups.cache_hits,
            cache_misses: lookups.cache_misses,
            cache_entries: lookups.cache_entries,
            ..counts
        },
    )
}

/// The churn engine's epoch-barrier loop on one worker: flows of
/// an epoch against a frozen world, then the event applied and the
/// cache invalidated incrementally.
fn replay_churn(
    exp: &CityExperiment,
    flows: &[FlowSpec],
    timeline: &Timeline,
    mut exec: FlowExec<'_>,
    t: &mut Tracer,
) -> (Vec<u64>, Tally, LayerCounts) {
    let mut faults = exp
        .fault_state()
        .expect("the churn world is prepared with a fault scenario")
        .clone();
    faults.set_retry(RetryPolicy::ladder());
    let mut world = exp.clone().with_fault_state(faults);
    let mut tally = Tally::default();
    let mut signature = Vec::with_capacity(4 * (timeline.len() + 1));
    let mut evicted_total = 0u64;
    let mut next = 0usize;
    for k in 0..=timeline.len() {
        let event = timeline.events().get(k);
        let end = match event {
            Some(ev) => next + flows[next..].partition_point(|f| f.arrival_ms < ev.at_ms),
            None => flows.len(),
        };
        let mut report = FleetReport::empty();
        for flow in &flows[next..end] {
            let o = exec.run(&world, flow, t);
            absorb(&mut report, flow, &o, t);
            tally.served(&o, None);
        }
        next = end;
        let mut fingerprint = world
            .fault_state()
            .expect("fault state installed above")
            .fingerprint();
        let mut evicted = 0;
        if let Some(ev) = event {
            let span = t.enter(Layer::EventApply, NO_FLOW);
            let transition = world.apply_world_event(&ev.changes);
            t.exit(span);
            fingerprint = transition.fingerprint;
            // The engine's incremental policy: a plan goes when an
            // endpoint building changed state or a changed AP lies
            // inside one of its conduits.
            let touched: HashSet<u32> = transition.touched_buildings.iter().copied().collect();
            let changed: HashSet<u32> = ev.changes.iter().map(|&(ap, _)| ap).collect();
            let apg = world.ap_graph();
            let mut candidates = Vec::new();
            let span = t.enter(Layer::Evict, NO_FLOW);
            evicted = exec.cache.evict_where(|plan| {
                if touched.contains(&plan.src) || touched.contains(&plan.dst) {
                    return true;
                }
                let mut hit = false;
                apg.for_each_ap_in_conduits(&plan.conduits, &mut candidates, |id, _| {
                    hit |= changed.contains(&id);
                });
                hit
            });
            t.exit(span);
        }
        evicted_total += evicted;
        signature.extend([report.flows, report.digest(), fingerprint, evicted]);
    }
    let counts = LayerCounts {
        evicted: evicted_total,
        ..exec.counts()
    };
    (signature, tally, counts)
}

/// Everything outcome-bearing a [`StreamReport`] carries that the
/// replay can recompute: the embedded fleet digest plus the admission
/// counters by reason and class.
fn stream_signature(r: &StreamReport) -> Vec<u64> {
    vec![
        r.fleet.digest(),
        r.offered,
        r.admitted,
        r.shed_backpressure,
        r.shed_deadline,
        r.degraded_tracing,
        r.degraded_retry,
        r.offered_emergency,
        r.shed_emergency,
        r.max_depth,
        r.makespan_ms.to_bits(),
    ]
}

/// Capacity of the modelled server fleet, flows per second, from a
/// fixed-seed underload probe: a queue deep enough and a deadline lax
/// enough that every probe flow is admitted, so the mean modelled
/// service time covers the whole sample. A pure function of the world.
fn probe_capacity_hz(
    exp: &CityExperiment,
    timeline: &Timeline,
    cfg: &StreamConfig,
) -> Result<f64, String> {
    let probe_cfg = StreamConfig {
        seed: WORLD_SEED,
        queue_capacity: 4096,
        deadline_ms: f64::INFINITY,
        ..*cfg
    };
    let flows = generate_stream_flows(
        exp.map().len(),
        &StreamWorkload {
            flows: PROBE_FLOWS,
            process: ArrivalProcess::Poisson { rate_hz: 200.0 },
            seed: WORLD_SEED,
        },
    );
    let (report, _) = try_run_stream(exp, &flows, timeline, &probe_cfg, &TelemetryConfig::off())
        .map_err(|e| e.to_string())?;
    let mean_service_ms = report
        .service_ms
        .mean()
        .ok_or("the capacity probe admitted no flow")?;
    Ok(cfg.servers as f64 * 1e3 / mean_service_ms)
}
