//! The always-on streaming engine.
//!
//! [`try_run_stream`] drives an open-loop arrival stream through a
//! prepared [`CityExperiment`] as a *queueing system*, not a batch:
//! flows arrive when the [arrival process](crate::arrivals) says they
//! do, are admitted to one of a fixed set of bounded per-server
//! queues, and are either served (planned through the shared
//! [`RouteCache`], simulated with the flow's own RNG sub-stream) or
//! **shed with an explicit, counted outcome** — never silently
//! dropped. Overload is a first-class regime with a graceful
//! degradation ladder (see [`ServerQueue`]), and the whole run keeps
//! the fleet engine's headline property: the report digest is
//! bit-identical across worker counts.
//!
//! # Determinism under parallelism
//!
//! Queueing state is *shared mutable state over time* — exactly what
//! the fleet engine's free-for-all chunk claiming cannot parallelize
//! deterministically. The engine therefore splits the thread count
//! from the **modeled server count** ([`StreamConfig::servers`]):
//!
//! * flows are assigned to servers by `flow.id % servers` — a pure
//!   function of the workload;
//! * each server's sub-stream is processed strictly serially, in
//!   arrival order, against that server's own [`ServerQueue`];
//! * worker threads claim whole servers, never slices of one.
//!
//! Admission, shedding, and the degradation rungs are then pure
//! functions of `(workload, config)`, independent of how many threads
//! raced over the servers — so 1 worker and 8 fold to the same
//! [`StreamReport::digest`], and `servers` (a digest-bearing modeling
//! knob) is free to exceed or trail the physical core count.
//!
//! # Virtual time
//!
//! The engine runs *faster than real time*: service is modeled, not
//! slept. Each queue is a ring of modeled completion instants; an
//! arrival at `t` first retires every completion `≤ t`, then admits or
//! sheds based on the depth that remains. A flow's modeled service
//! time is `base_ms + per_broadcast_ms × broadcasts`, tying queueing
//! pressure to the *actual* flooding work the delivery simulation
//! performed — congested conduits back the queue up more than clean
//! ones, which is what produces the saturation knee the streaming
//! bench sweeps for.

use std::borrow::Cow;
use std::time::Instant;

use citymesh_core::CityExperiment;
use citymesh_dynamics::{
    require_fault_state, run_epochs, ChurnError, InvalidationPolicy, Timeline,
};
use citymesh_fleet::{
    resolve_workers, run_pool, FleetConfig, FleetError, FleetReport, FleetTelemetry, FlowExecutor,
    FlowSpec, RouteCache,
};
use citymesh_simcore::stats::Histogram;
use citymesh_simcore::{substream_seed, Fnv64, SimRng};
use citymesh_telemetry::TelemetryConfig;

/// The modeled per-flow service-time law: `base_ms +
/// per_broadcast_ms × broadcasts`. Broadcast count comes from the
/// delivery simulation, so heavier flooding occupies a server longer.
#[derive(Clone, Copy, Debug)]
pub struct ServiceModel {
    /// Fixed service cost per admitted flow, milliseconds.
    pub base_ms: f64,
    /// Additional service cost per broadcast the delivery performed,
    /// milliseconds.
    pub per_broadcast_ms: f64,
}

impl Default for ServiceModel {
    fn default() -> Self {
        ServiceModel {
            base_ms: 2.0,
            per_broadcast_ms: 0.05,
        }
    }
}

/// Streaming-engine parameters.
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// Worker threads. `0` means one per available CPU. Threads claim
    /// whole servers, so the effective pool never exceeds `servers`
    /// ([`resolve_workers`]). **Not** digest-bearing.
    pub workers: usize,
    /// Modeled queueing servers. Flows map to servers by
    /// `flow.id % servers`; each server is one bounded FIFO processed
    /// serially. Digest-bearing: changing the server count changes
    /// admission outcomes (it is a capacity knob, not a thread knob).
    pub servers: usize,
    /// Root seed for per-flow simulation sub-streams (use the seed the
    /// stream workload was generated from).
    pub seed: u64,
    /// Plan cache misses with the district-overlay hierarchical
    /// planner. Requires [`CityExperiment::enable_hier`].
    pub use_hier_planner: bool,
    /// Bounded admission-queue depth per server. An arrival finding
    /// this many flows already queued is shed with
    /// [`ShedReason::Backpressure`].
    pub queue_capacity: usize,
    /// Maximum tolerable queue wait, milliseconds. An arrival whose
    /// modeled wait would exceed this is shed with
    /// [`ShedReason::Deadline`] *before* any planning or simulation
    /// work is spent on it. `f64::INFINITY` disables deadline shedding
    /// (backpressure still bounds the queue).
    pub deadline_ms: f64,
    /// The modeled service-time law.
    pub service: ServiceModel,
    /// Fraction of offered flows classed [`FlowClass::Emergency`],
    /// drawn per flow from a dedicated seeded sub-stream
    /// ([`DOMAIN_CLASS`]) — a pure function of `(seed, flow.id)`, so
    /// class assignment is worker-count invariant. `0.0` (the default)
    /// keeps every flow [`FlowClass::Bulk`] and the engine
    /// byte-identical to its single-class behavior.
    pub emergency_fraction: f64,
    /// Queue slots per server reserved for emergency flows: bulk
    /// arrivals shed [`ShedReason::Backpressure`] at depth
    /// `queue_capacity − priority_reserve`, emergency arrivals only at
    /// the full capacity. `0` (the default) disables the reservation.
    /// Must be strictly less than `queue_capacity`.
    pub priority_reserve: usize,
    /// Run every admitted flow through the secure message plane (seal
    /// with the per-pair session key, receiver-side open + auth
    /// check). Requires [`CityExperiment::enable_encryption`]. Shed
    /// decisions and delivery outcomes are unchanged — encryption adds
    /// work, not randomness — but the per-class sealed counters join
    /// the digest once nonzero. Defaults to `false`.
    pub encrypted: bool,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            workers: 1,
            servers: 4,
            seed: 0,
            use_hier_planner: false,
            queue_capacity: 64,
            deadline_ms: 250.0,
            service: ServiceModel::default(),
            emergency_fraction: 0.0,
            priority_reserve: 0,
            encrypted: false,
        }
    }
}

impl StreamConfig {
    /// What the shared flow executor needs of this config.
    fn fleet(&self) -> FleetConfig {
        FleetConfig {
            workers: self.workers,
            seed: self.seed,
            use_hier_planner: self.use_hier_planner,
            encrypted: self.encrypted,
        }
    }

    /// Checks this config against the experiment it is about to run
    /// on; every degenerate knob is a typed [`StreamError`] instead of
    /// a divide-by-zero or a hang deep inside a worker.
    pub fn validate(&self, exp: &CityExperiment) -> Result<(), StreamError> {
        if self.servers == 0 {
            return Err(StreamError::ZeroServers);
        }
        if self.queue_capacity == 0 {
            return Err(StreamError::ZeroQueueCapacity);
        }
        if self.deadline_ms.is_nan() || self.deadline_ms <= 0.0 {
            return Err(StreamError::InvalidDeadline {
                value: self.deadline_ms,
            });
        }
        if !self.service.base_ms.is_finite() || self.service.base_ms <= 0.0 {
            return Err(StreamError::InvalidServiceModel {
                field: "base_ms",
                value: self.service.base_ms,
            });
        }
        if !self.service.per_broadcast_ms.is_finite() || self.service.per_broadcast_ms < 0.0 {
            return Err(StreamError::InvalidServiceModel {
                field: "per_broadcast_ms",
                value: self.service.per_broadcast_ms,
            });
        }
        self.fleet().validate(exp)?;
        if !self.emergency_fraction.is_finite() || !(0.0..=1.0).contains(&self.emergency_fraction) {
            return Err(StreamError::InvalidEmergencyFraction {
                value: self.emergency_fraction,
            });
        }
        if self.priority_reserve >= self.queue_capacity {
            return Err(StreamError::ReserveExceedsCapacity {
                reserve: self.priority_reserve,
                capacity: self.queue_capacity,
            });
        }
        Ok(())
    }
}

/// A rejected streaming run: configuration or workload misuse caught
/// before any worker spawns.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StreamError {
    /// [`StreamConfig::servers`] was zero — there is nowhere to queue.
    ZeroServers,
    /// [`StreamConfig::queue_capacity`] was zero — every arrival would
    /// be shed and the run would measure nothing.
    ZeroQueueCapacity,
    /// [`StreamConfig::deadline_ms`] was zero, negative, or NaN
    /// (`f64::INFINITY` is the sanctioned "no deadline" value).
    InvalidDeadline {
        /// The rejected deadline.
        value: f64,
    },
    /// A [`ServiceModel`] knob was non-finite or out of range
    /// (`base_ms` must be positive — a zero-cost server never queues —
    /// and `per_broadcast_ms` nonnegative).
    InvalidServiceModel {
        /// Which knob.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// [`StreamConfig::use_hier_planner`] or [`StreamConfig::encrypted`]
    /// was set without its prerequisite on the experiment
    /// ([`FleetConfig::validate`]).
    Fleet(FleetError),
    /// [`StreamConfig::emergency_fraction`] was non-finite or outside
    /// `[0, 1]`.
    InvalidEmergencyFraction {
        /// The rejected fraction.
        value: f64,
    },
    /// [`StreamConfig::priority_reserve`] was at least
    /// [`StreamConfig::queue_capacity`] — bulk flows would have no
    /// admissible depth at all.
    ReserveExceedsCapacity {
        /// The rejected reservation.
        reserve: usize,
        /// The queue capacity it must stay under.
        capacity: usize,
    },
    /// The timeline carries events but the experiment has no fault
    /// state for them to mutate ([`require_fault_state`]).
    Churn(ChurnError),
    /// An arrival-stream workload needs at least two buildings to draw
    /// distinct endpoints from.
    TooFewBuildings {
        /// The offending building count.
        buildings: usize,
    },
    /// The [`ArrivalProcess`](crate::ArrivalProcess) rate was
    /// non-finite or not positive.
    InvalidArrivals {
        /// Which knob.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::ZeroServers => {
                write!(f, "StreamConfig::servers must be at least 1")
            }
            StreamError::ZeroQueueCapacity => {
                write!(
                    f,
                    "StreamConfig::queue_capacity must be at least 1 \
                     (a zero-depth queue sheds every arrival)"
                )
            }
            StreamError::InvalidDeadline { value } => {
                write!(
                    f,
                    "StreamConfig::deadline_ms must be positive (or infinite \
                     to disable deadline shedding), got {value}"
                )
            }
            StreamError::InvalidServiceModel { field, value } => {
                write!(f, "invalid service model: `{field}` = {value}")
            }
            StreamError::Fleet(e) => write!(f, "{e}"),
            StreamError::Churn(e) => write!(f, "{e}"),
            StreamError::InvalidEmergencyFraction { value } => {
                write!(
                    f,
                    "StreamConfig::emergency_fraction must lie in [0, 1], got {value}"
                )
            }
            StreamError::ReserveExceedsCapacity { reserve, capacity } => {
                write!(
                    f,
                    "StreamConfig::priority_reserve ({reserve}) must be strictly less \
                     than queue_capacity ({capacity}); bulk flows need at least one \
                     admissible slot"
                )
            }
            StreamError::TooFewBuildings { buildings } => {
                write!(
                    f,
                    "stream workloads need at least two buildings to draw distinct \
                     endpoints, got {buildings}"
                )
            }
            StreamError::InvalidArrivals { field, value } => {
                write!(f, "invalid arrival process: `{field}` = {value}")
            }
        }
    }
}

impl std::error::Error for StreamError {}

impl From<FleetError> for StreamError {
    fn from(e: FleetError) -> Self {
        StreamError::Fleet(e)
    }
}

impl From<ChurnError> for StreamError {
    fn from(e: ChurnError) -> Self {
        StreamError::Churn(e)
    }
}

/// Sub-stream domain for per-flow admission-class draws
/// ([`StreamConfig::emergency_fraction`]).
pub const DOMAIN_CLASS: u64 = 0xC1A5;

/// An offered flow's admission class. Class is decided per flow from a
/// seeded sub-stream of its id ([`DOMAIN_CLASS`]), never from queue
/// state, so it is a pure function of `(workload, config)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowClass {
    /// Priority traffic (SOS check-ins, dispatch): admitted up to the
    /// full queue capacity, including the reserved headroom.
    Emergency,
    /// Everything else: sheds backpressure once depth reaches
    /// `queue_capacity − priority_reserve`, leaving the reserve for
    /// emergency arrivals.
    Bulk,
}

impl FlowClass {
    /// Stable lowercase label for reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            FlowClass::Emergency => "emergency",
            FlowClass::Bulk => "bulk",
        }
    }
}

/// Why an arrival was turned away. Shedding is always explicit: every
/// offered flow ends up in exactly one of
/// [`admitted`](StreamReport::admitted),
/// [`shed_backpressure`](StreamReport::shed_backpressure), or
/// [`shed_deadline`](StreamReport::shed_deadline).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The server's bounded queue was full.
    Backpressure,
    /// The modeled queue wait would have exceeded
    /// [`StreamConfig::deadline_ms`] — the flow would be stale by the
    /// time a server got to it, so no work is spent on it at all.
    Deadline,
}

impl ShedReason {
    /// Stable lowercase label for reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            ShedReason::Backpressure => "backpressure",
            ShedReason::Deadline => "deadline",
        }
    }
}

/// An admission decision from [`ServerQueue::offer`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Admission {
    /// Admitted: service begins at `start_ms` (modeled virtual time).
    Admit {
        /// When a server frees up for this flow, ms.
        start_ms: f64,
        /// Queue depth found on arrival (after retiring completions).
        depth: u32,
        /// Degradation rung 1 fired: optional tracing work is shed for
        /// this flow.
        shed_tracing: bool,
        /// Degradation rung 2 fired: the retry ladder is capped to a
        /// single attempt for this flow.
        cap_retries: bool,
    },
    /// Turned away, with the reason and the depth that forced it.
    Shed {
        /// Why.
        reason: ShedReason,
        /// Queue depth found on arrival.
        depth: u32,
    },
}

/// One server's bounded admission queue in modeled virtual time: a
/// preallocated ring of completion instants.
///
/// An arrival at `t` first retires every completion `≤ t` (those
/// flows have left the system), then decides from the surviving depth:
///
/// 1. **depth ≥ the class cap** → shed,
///    [`ShedReason::Backpressure`]. The cap is the full capacity for
///    [`FlowClass::Emergency`] arrivals and `capacity −
///    priority_reserve` for [`FlowClass::Bulk`] — with a nonzero
///    reserve the last slots are headroom only priority traffic may
///    occupy, so emergency preempts bulk at the admission door;
/// 2. **wait > deadline** → shed, [`ShedReason::Deadline`] — decided
///    *before* planning or simulating, so overload never wastes work
///    on flows that would be discarded anyway;
/// 3. otherwise **admit**, flagging the degradation rungs: at depth
///    `≥ ⌈capacity/2⌉` optional work (trace capture) is shed first; at
///    depth `≥ ⌈3·capacity/4⌉` the retry ladder is capped to one
///    attempt. Load shedding of whole flows is the ladder's last rung,
///    not its first.
///
/// The ring never reallocates after construction — this type is what
/// the fleet crate's zero-allocation guard test drives.
#[derive(Clone, Debug)]
pub struct ServerQueue {
    /// Modeled completion instants, ms, a FIFO ring.
    completions: Vec<f64>,
    head: usize,
    len: usize,
    deadline_ms: f64,
    bulk_cap: usize,
    rung_trace: usize,
    rung_retry: usize,
    high_water: usize,
}

impl ServerQueue {
    /// A fresh empty queue sized and tuned by `cfg`.
    pub fn new(cfg: &StreamConfig) -> Self {
        let cap = cfg.queue_capacity;
        ServerQueue {
            completions: vec![0.0; cap],
            head: 0,
            len: 0,
            deadline_ms: cfg.deadline_ms,
            // Validation rejects reserve ≥ capacity; clamp anyway so a
            // hand-built queue still admits at least one bulk flow.
            bulk_cap: cap.saturating_sub(cfg.priority_reserve).max(1),
            rung_trace: cap.div_ceil(2),
            rung_retry: (3 * cap).div_ceil(4),
            high_water: 0,
        }
    }

    /// The bounded capacity.
    pub fn capacity(&self) -> usize {
        self.completions.len()
    }

    /// Flows currently queued (as of the last `offer`).
    pub fn depth(&self) -> usize {
        self.len
    }

    /// The deepest the queue has ever been.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Offers a [`FlowClass::Bulk`] arrival at modeled time
    /// `arrival_ms` — with a zero reserve this is the whole admission
    /// story; see [`ServerQueue::offer_class`].
    pub fn offer(&mut self, arrival_ms: f64) -> Admission {
        self.offer_class(arrival_ms, FlowClass::Bulk)
    }

    /// Offers an arrival of `class` at modeled time `arrival_ms`; see
    /// the type docs for the decision ladder. Arrivals must be offered
    /// in nondecreasing time order.
    pub fn offer_class(&mut self, arrival_ms: f64, class: FlowClass) -> Admission {
        let cap = self.capacity();
        while self.len > 0 && self.completions[self.head] <= arrival_ms {
            self.head = (self.head + 1) % cap;
            self.len -= 1;
        }
        let depth = self.len;
        let class_cap = match class {
            FlowClass::Emergency => cap,
            FlowClass::Bulk => self.bulk_cap,
        };
        if depth >= class_cap {
            return Admission::Shed {
                reason: ShedReason::Backpressure,
                depth: depth as u32,
            };
        }
        let start_ms = if depth == 0 {
            arrival_ms
        } else {
            self.completions[(self.head + depth - 1) % cap]
        };
        if start_ms - arrival_ms > self.deadline_ms {
            return Admission::Shed {
                reason: ShedReason::Deadline,
                depth: depth as u32,
            };
        }
        self.high_water = self.high_water.max(depth + 1);
        Admission::Admit {
            start_ms,
            depth: depth as u32,
            shed_tracing: depth >= self.rung_trace,
            cap_retries: depth >= self.rung_retry,
        }
    }

    /// Commits an admitted flow's service: records its completion
    /// instant and returns it. `start_ms` must be the value `offer`
    /// handed back for this flow.
    pub fn commit(&mut self, start_ms: f64, service_ms: f64) -> f64 {
        debug_assert!(self.len < self.capacity(), "commit without admission");
        let completion = start_ms + service_ms;
        let tail = (self.head + self.len) % self.capacity();
        self.completions[tail] = completion;
        self.len += 1;
        completion
    }
}

/// Nanoseconds per millisecond: the wait, service and sojourn
/// histograms record each time rounded to integer ns and read in ms.
const NS_PER_MS: u64 = 1_000_000;

/// `ms` rounded to integer nanoseconds, once, as it is recorded.
fn ns(ms: f64) -> u64 {
    (ms * NS_PER_MS as f64).round() as u64
}

/// Aggregated results of one streaming run.
///
/// Everything except the work field `routes_evicted` (and the
/// embedded fleet report's wall-clock fields) is deterministic in
/// `(world, workload, timeline, config)` and covered by
/// [`digest`](StreamReport::digest).
#[derive(Clone, Debug, PartialEq)]
pub struct StreamReport {
    /// Flows the arrival stream offered.
    pub offered: u64,
    /// Flows admitted and served.
    pub admitted: u64,
    /// Flows shed because a bounded queue was full.
    pub shed_backpressure: u64,
    /// Flows shed because their modeled wait would exceed the
    /// deadline.
    pub shed_deadline: u64,
    /// Admitted flows that crossed degradation rung 1 (trace capture
    /// suppressed).
    pub degraded_tracing: u64,
    /// Admitted flows that crossed degradation rung 2 (retry ladder
    /// capped to one attempt).
    pub degraded_retry: u64,
    /// Offered flows classed [`FlowClass::Emergency`]. Zero unless
    /// [`StreamConfig::emergency_fraction`] is set; the per-class
    /// counters join the digest only when this is nonzero, so
    /// single-class runs keep their historical digests.
    pub offered_emergency: u64,
    /// Offered flows classed [`FlowClass::Bulk`].
    pub offered_bulk: u64,
    /// Emergency flows shed (either reason).
    pub shed_emergency: u64,
    /// Bulk flows shed (either reason).
    pub shed_bulk: u64,
    /// Emergency-class flows whose payload was sealed (encrypted runs
    /// only). Joins the digest only when `fleet.sealed > 0`.
    pub sealed_emergency: u64,
    /// Bulk-class flows whose payload was sealed (encrypted runs
    /// only). Joins the digest only when `fleet.sealed > 0`.
    pub sealed_bulk: u64,
    /// Delivery outcomes of the *admitted* flows, folded exactly as
    /// the fleet engine folds a batch — on an underloaded stream this
    /// digest equals a plain `try_run_fleet` over the same flows and seed.
    pub fleet: FleetReport,
    /// Sojourn time (queue wait + service) of admitted flows, ms.
    pub sojourn_ms: Histogram,
    /// Queue wait of admitted flows, ms.
    pub wait_ms: Histogram,
    /// Modeled service time of admitted flows, ms.
    pub service_ms: Histogram,
    /// Queue depth observed by every offered flow (admitted or shed).
    pub queue_depth: Histogram,
    /// Deepest any server queue ever got.
    pub max_depth: u64,
    /// Completion instant of the last served flow, ms.
    pub makespan_ms: f64,
    /// Modeled servers.
    pub servers: usize,
    /// Epochs executed (`timeline.len() + 1`).
    pub epochs: u64,
    /// Mid-stream world events applied.
    pub events_applied: u64,
    /// Cached routes evicted at event barriers. **Not** covered by the
    /// digest.
    pub routes_evicted: u64,
}

impl StreamReport {
    fn new(servers: usize) -> Self {
        StreamReport {
            offered: 0,
            admitted: 0,
            shed_backpressure: 0,
            shed_deadline: 0,
            degraded_tracing: 0,
            degraded_retry: 0,
            offered_emergency: 0,
            offered_bulk: 0,
            shed_emergency: 0,
            shed_bulk: 0,
            sealed_emergency: 0,
            sealed_bulk: 0,
            fleet: FleetReport::empty(),
            sojourn_ms: Histogram::with_unit(NS_PER_MS),
            wait_ms: Histogram::with_unit(NS_PER_MS),
            service_ms: Histogram::with_unit(NS_PER_MS),
            queue_depth: Histogram::new(),
            max_depth: 0,
            makespan_ms: 0.0,
            servers,
            epochs: 0,
            events_applied: 0,
            routes_evicted: 0,
        }
    }

    /// Folds another report in: counters and histogram buckets add,
    /// and `max_depth` and `makespan_ms` take the maximum, so merging
    /// per-worker parts in any order equals serving all their flows
    /// into one report. `servers`, `epochs`, `events_applied` and
    /// `routes_evicted` describe the run's servers and barriers, not
    /// its flows; the call sets them.
    pub fn merge(&mut self, other: &StreamReport) {
        let StreamReport {
            offered,
            admitted,
            shed_backpressure,
            shed_deadline,
            degraded_tracing,
            degraded_retry,
            offered_emergency,
            offered_bulk,
            shed_emergency,
            shed_bulk,
            sealed_emergency,
            sealed_bulk,
            fleet,
            sojourn_ms,
            wait_ms,
            service_ms,
            queue_depth,
            max_depth,
            makespan_ms,
            servers: _,
            epochs: _,
            events_applied: _,
            routes_evicted: _,
        } = other;
        self.offered += offered;
        self.admitted += admitted;
        self.shed_backpressure += shed_backpressure;
        self.shed_deadline += shed_deadline;
        self.degraded_tracing += degraded_tracing;
        self.degraded_retry += degraded_retry;
        self.offered_emergency += offered_emergency;
        self.offered_bulk += offered_bulk;
        self.shed_emergency += shed_emergency;
        self.shed_bulk += shed_bulk;
        self.sealed_emergency += sealed_emergency;
        self.sealed_bulk += sealed_bulk;
        self.fleet.merge(fleet);
        self.sojourn_ms.merge(sojourn_ms);
        self.wait_ms.merge(wait_ms);
        self.service_ms.merge(service_ms);
        self.queue_depth.merge(queue_depth);
        self.max_depth = self.max_depth.max(*max_depth);
        self.makespan_ms = self.makespan_ms.max(*makespan_ms);
    }

    /// Total flows shed (both reasons).
    pub fn shed(&self) -> u64 {
        self.shed_backpressure + self.shed_deadline
    }

    /// Shed fraction over all offered flows.
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.shed() as f64 / self.offered as f64
    }

    /// A sojourn-time quantile of the admitted flows, ms.
    pub fn sojourn_quantile(&self, q: f64) -> Option<f64> {
        self.sojourn_ms.quantile(q)
    }

    /// Shed fraction among emergency-class flows (0 when none were
    /// offered).
    pub fn emergency_shed_rate(&self) -> f64 {
        if self.offered_emergency == 0 {
            return 0.0;
        }
        self.shed_emergency as f64 / self.offered_emergency as f64
    }

    /// Shed fraction among bulk-class flows (0 when none were
    /// offered).
    pub fn bulk_shed_rate(&self) -> f64 {
        if self.offered_bulk == 0 {
            return 0.0;
        }
        self.shed_bulk as f64 / self.offered_bulk as f64
    }

    /// A 64-bit digest over every deterministic field. Equal digests ⇒
    /// byte-identical aggregate results; the engine's "N workers ==
    /// serial" invariant is checked by comparing these.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.mix(self.offered);
        h.mix(self.admitted);
        h.mix(self.shed_backpressure);
        h.mix(self.shed_deadline);
        h.mix(self.degraded_tracing);
        h.mix(self.degraded_retry);
        // Two-class admission is strictly opt-in: the class counters
        // join the digest only when emergency traffic exists, so
        // single-class runs keep their historical digests bit-for-bit.
        h.mix_when(
            self.offered_emergency > 0,
            &[
                self.offered_emergency,
                self.offered_bulk,
                self.shed_emergency,
                self.shed_bulk,
            ],
        );
        // Encryption is opt-in by the same rule: the per-class sealed
        // counters join only when the run actually sealed something
        // (the embedded fleet digest grows its own sealed block then).
        h.mix_when(
            self.fleet.sealed > 0,
            &[self.sealed_emergency, self.sealed_bulk],
        );
        h.mix(self.fleet.digest());
        h.mix(self.sojourn_ms.fingerprint());
        h.mix(self.wait_ms.fingerprint());
        h.mix(self.service_ms.fingerprint());
        h.mix(self.queue_depth.fingerprint());
        h.mix(self.max_depth);
        h.mix(self.makespan_ms.to_bits());
        h.mix(self.servers as u64);
        h.mix(self.epochs);
        h.mix(self.events_applied);
        h.value()
    }
}

/// Runs an arrival stream through `exp`, shedding under overload.
/// Configuration and prerequisite misuse is a typed [`StreamError`]
/// caught before any worker spawns.
///
/// `flows` must be sorted by ascending id with nondecreasing
/// `arrival_ms` (streams from
/// [`generate_stream_flows`](crate::generate_stream_flows) are). A
/// timeline event at time `t` is applied before flows with
/// `arrival_ms ≥ t`, exactly like the churn engine (both run on
/// [`run_epochs`]); pass an empty timeline (e.g. a zero-event
/// [`Timeline::materialize`]) for a static world. Server queues
/// persist across event barriers — an event does not flush in-flight
/// work, only routes.
///
/// Each worker walks each epoch's flows and serves its own servers'
/// ones in id order — so every queue still sees its flows in arrival
/// order — folding them into its own report; the call merges the
/// workers' reports ([`StreamReport::merge`]).
///
/// Returns the report plus merged telemetry when `tel` asks for any.
/// The report digest is identical traced or untraced and across
/// worker counts.
///
/// # Panics
/// Panics when a worker thread panics mid-run.
pub fn try_run_stream(
    exp: &CityExperiment,
    flows: &[FlowSpec],
    timeline: &Timeline,
    cfg: &StreamConfig,
    tel: &TelemetryConfig,
) -> Result<(StreamReport, Option<FleetTelemetry>), StreamError> {
    cfg.validate(exp)?;
    if !timeline.is_empty() {
        require_fault_state(exp)?;
    }
    let started = Instant::now();

    let cache = RouteCache::new();
    let fleet_cfg = cfg.fleet();
    let mut queues: Vec<ServerQueue> = (0..cfg.servers).map(|_| ServerQueue::new(cfg)).collect();
    // Threads claim whole servers, `chunk` of them each, so
    // `servers.div_ceil(chunk)` threads run — fewer than the workers
    // resolved when the servers split unevenly (6 servers at 4
    // workers: 2 each, 3 threads). The queues deliberately survive the
    // barriers: an aftershock does not un-queue flows already admitted.
    let chunk = cfg
        .servers
        .div_ceil(resolve_workers(cfg.workers, cfg.servers));
    let threads = cfg.servers.div_ceil(chunk);
    let server = |flow: &FlowSpec| (flow.id % cfg.servers as u64) as usize;
    let epochs = run_epochs(
        flows,
        timeline,
        InvalidationPolicy::Incremental,
        &cache,
        Cow::Borrowed(exp),
        |world, slice| {
            run_pool(queues.chunks_mut(chunk).enumerate(), |(i, qs)| {
                let mut exec = FlowExecutor::new(&cache, &fleet_cfg, tel);
                let mut part = StreamReport::new(cfg.servers);
                for flow in slice.iter().filter(|f| server(f) / chunk == i) {
                    let q = &mut qs[server(flow) - i * chunk];
                    serve(&mut exec, world, flow, cfg, q, &mut part);
                }
                (part, exec.finish())
            })
        },
    );

    let epochs_run = epochs.len() as u64;
    let (mut events_applied, mut routes_evicted) = (0, 0);
    let mut merged: Option<StreamReport> = None;
    let mut harvests = Vec::new();
    for (parts, barrier) in epochs {
        for (part, harvest) in parts {
            match merged.as_mut() {
                Some(all) => all.merge(&part),
                None => merged = Some(part),
            }
            harvests.push(harvest);
        }
        if let Some(b) = barrier {
            events_applied += 1;
            routes_evicted += b.evicted;
        }
    }
    let mut report = merged.expect("every epoch runs at least one worker");
    report.epochs = epochs_run;
    report.events_applied = events_applied;
    report.routes_evicted = routes_evicted;
    debug_assert_eq!(report.offered, flows.len() as u64, "one offer per flow");
    report.max_depth = queues
        .iter()
        .map(|q| q.high_water() as u64)
        .max()
        .unwrap_or(0);
    report.fleet.workers = threads;
    report.fleet.cache_hits = cache.hits();
    report.fleet.cache_misses = cache.misses();
    report.fleet.elapsed_secs = started.elapsed().as_secs_f64();

    let telemetry = (!tel.is_off()).then(|| {
        let mut t = FleetTelemetry::default();
        t.absorb(harvests);
        t
    });
    Ok((report, telemetry))
}

/// One flow at its server's queue `q`, folded into `report`: admission
/// first, and only an admitted flow reaches the executor.
fn serve(
    exec: &mut FlowExecutor<'_>,
    world: &CityExperiment,
    flow: &FlowSpec,
    cfg: &StreamConfig,
    q: &mut ServerQueue,
    report: &mut StreamReport,
) {
    // Class is a pure function of (seed, flow.id) — never of queue
    // state — so it survives any worker layout.
    let class = if cfg.emergency_fraction > 0.0 {
        let mut rng = SimRng::new(substream_seed(cfg.seed, DOMAIN_CLASS, flow.id));
        if rng.chance(cfg.emergency_fraction) {
            FlowClass::Emergency
        } else {
            FlowClass::Bulk
        }
    } else {
        FlowClass::Bulk
    };
    let emergency = class == FlowClass::Emergency;
    report.offered += 1;
    report.offered_emergency += u64::from(emergency);
    report.offered_bulk += u64::from(!emergency);
    match q.offer_class(flow.arrival_ms, class) {
        Admission::Shed { reason, depth } => {
            match reason {
                ShedReason::Backpressure => report.shed_backpressure += 1,
                ShedReason::Deadline => report.shed_deadline += 1,
            }
            report.shed_emergency += u64::from(emergency);
            report.shed_bulk += u64::from(!emergency);
            report.queue_depth.record(u64::from(depth));
        }
        Admission::Admit {
            start_ms,
            depth,
            shed_tracing,
            cap_retries,
        } => {
            // Rung 2 stops the retry ladder after the first send (the
            // cap never reaches the planner, so the shared cache serves
            // capped and uncapped flows alike); rung 1 tells the
            // executor not to replay the flow for a trace — same
            // simulation, no capture work.
            let plan = exec.plan(world, flow);
            let cap = cap_retries.then_some(1);
            let outcome = exec.simulate(world, &plan, flow, !shed_tracing, cap);
            let service_ms =
                cfg.service.base_ms + cfg.service.per_broadcast_ms * outcome.broadcasts as f64;
            q.commit(start_ms, service_ms);
            let wait_ms = start_ms - flow.arrival_ms;
            report.admitted += 1;
            report.sealed_emergency += u64::from(outcome.sealed && emergency);
            report.sealed_bulk += u64::from(outcome.sealed && !emergency);
            report.fleet.absorb_outcome(flow, &outcome);
            report.wait_ms.record(ns(wait_ms));
            report.service_ms.record(ns(service_ms));
            report.sojourn_ms.record(ns(wait_ms + service_ms));
            report.queue_depth.record(u64::from(depth));
            report.degraded_tracing += u64::from(shed_tracing);
            report.degraded_retry += u64::from(cap_retries);
            report.makespan_ms = report
                .makespan_ms
                .max(flow.arrival_ms + wait_ms + service_ms);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{generate_stream_flows, ArrivalProcess, StreamWorkload};
    use citymesh_core::{ExperimentConfig, FaultScenario, HierParams, RetryPolicy};
    use citymesh_dynamics::ChurnConfig;
    use citymesh_fleet::{try_run_fleet, FleetConfig};
    use citymesh_map::CityArchetype;
    use citymesh_telemetry::metrics as tm;

    fn world(seed: u64) -> CityExperiment {
        CityExperiment::prepare(
            CityArchetype::SurveyDowntown.generate(seed),
            ExperimentConfig {
                seed,
                ..ExperimentConfig::default()
            },
        )
    }

    fn faulted_world(seed: u64, scenario: FaultScenario) -> CityExperiment {
        CityExperiment::prepare(
            CityArchetype::SurveyDowntown.generate(seed),
            ExperimentConfig {
                seed,
                faults: Some(scenario),
                ..ExperimentConfig::default()
            },
        )
    }

    fn poisson_flows(exp: &CityExperiment, flows: usize, rate_hz: f64, seed: u64) -> Vec<FlowSpec> {
        generate_stream_flows(
            exp.map().len(),
            &StreamWorkload {
                flows,
                process: ArrivalProcess::Poisson { rate_hz },
                seed,
            },
        )
    }

    fn empty_timeline(exp: &CityExperiment) -> Timeline {
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

    #[test]
    fn digest_is_worker_count_invariant() {
        let exp = world(21);
        let flows = poisson_flows(&exp, 600, 900.0, 21);
        let tl = empty_timeline(&exp);
        let digests: Vec<u64> = [1usize, 2, 4, 8]
            .iter()
            .map(|&w| {
                let cfg = StreamConfig {
                    workers: w,
                    servers: 8,
                    seed: 21,
                    queue_capacity: 16,
                    deadline_ms: 60.0,
                    ..StreamConfig::default()
                };
                try_run_stream(&exp, &flows, &tl, &cfg, &TelemetryConfig::off())
                    .unwrap()
                    .0
                    .digest()
            })
            .collect();
        assert!(
            digests.iter().all(|&d| d == digests[0]),
            "1/2/4/8 workers diverged: {digests:x?}"
        );
    }

    #[test]
    fn report_counts_the_threads_that_ran() {
        // Six servers split into chunks of ceil(6 / workers): at 4
        // workers each thread takes 2, so 3 threads run, not 4.
        let exp = world(23);
        let flows = poisson_flows(&exp, 60, 900.0, 23);
        let tl = empty_timeline(&exp);
        for (workers, threads) in [(1, 1), (2, 2), (4, 3), (5, 3), (6, 6), (8, 6)] {
            let cfg = StreamConfig {
                workers,
                servers: 6,
                seed: 23,
                ..StreamConfig::default()
            };
            let (r, _) = try_run_stream(&exp, &flows, &tl, &cfg, &TelemetryConfig::off()).unwrap();
            assert_eq!(r.fleet.workers, threads, "{workers} workers");
        }
    }

    #[test]
    fn encrypted_stream_is_worker_count_invariant() {
        // The encrypted always-on engine inherits the determinism
        // contract: racing workers share one session-key cache, yet the
        // digest — which now folds the per-class sealed counters — must
        // not move with the worker count.
        let mut exp = world(29);
        exp.enable_encryption();
        let flows = poisson_flows(&exp, 400, 600.0, 29);
        let tl = empty_timeline(&exp);
        let reports: Vec<StreamReport> = [1usize, 4, 8]
            .iter()
            .map(|&w| {
                let cfg = StreamConfig {
                    workers: w,
                    servers: 8,
                    seed: 29,
                    queue_capacity: 16,
                    deadline_ms: 60.0,
                    encrypted: true,
                    ..StreamConfig::default()
                };
                try_run_stream(&exp, &flows, &tl, &cfg, &TelemetryConfig::off())
                    .unwrap()
                    .0
            })
            .collect();
        assert_eq!(reports[0].digest(), reports[1].digest(), "1 vs 4 workers");
        assert_eq!(reports[0].digest(), reports[2].digest(), "1 vs 8 workers");
        let r = &reports[0];
        assert!(r.fleet.sealed > 0, "admitted flows must be sealed");
        assert_eq!(
            r.sealed_emergency + r.sealed_bulk,
            r.fleet.sealed,
            "per-class sealed counts must partition the sealed total"
        );
        assert_eq!(r.fleet.auth_failures, 0);
    }

    #[test]
    fn encrypted_stream_counts_every_key_derivation() {
        // One worker on a cold session cache derives exactly one key per
        // distinct unordered pair it admits — whether the flow was
        // replayed for its trace (the replay finds its key cached) or
        // rung 1 left it untraced.
        let mut exp = world(33);
        exp.enable_encryption();
        let flows = poisson_flows(&exp, 300, 5000.0, 33);
        let cfg = StreamConfig {
            workers: 1,
            servers: 1,
            seed: 33,
            queue_capacity: flows.len(),
            deadline_ms: f64::INFINITY,
            encrypted: true,
            ..StreamConfig::default()
        };
        let (report, telem) = try_run_stream(
            &exp,
            &flows,
            &empty_timeline(&exp),
            &cfg,
            &TelemetryConfig::full(1),
        )
        .unwrap();
        assert_eq!(report.admitted, flows.len() as u64, "nothing may shed");
        assert!(
            report.degraded_tracing > 0 && report.degraded_tracing < report.admitted,
            "traced and untraced flows must both have run: {} of {} untraced",
            report.degraded_tracing,
            report.admitted
        );
        let pairs: std::collections::HashSet<(u32, u32)> = flows
            .iter()
            .map(|f| (f.src.min(f.dst), f.src.max(f.dst)))
            .collect();
        let metrics = telem.expect("metrics requested").metrics;
        assert_eq!(metrics.counter(tm::KEYS_DERIVED), pairs.len() as u64);
    }

    #[test]
    fn encrypted_stream_off_matches_plain_digest() {
        // Holding a key registry without opting in must be invisible:
        // same digest as a world that never called enable_encryption.
        let plain = world(34);
        let mut keyed = world(34);
        keyed.enable_encryption();
        let flows = poisson_flows(&plain, 300, 200.0, 34);
        let cfg = StreamConfig {
            workers: 2,
            servers: 4,
            seed: 34,
            ..StreamConfig::default()
        };
        let (a, _) = try_run_stream(
            &plain,
            &flows,
            &empty_timeline(&plain),
            &cfg,
            &TelemetryConfig::off(),
        )
        .unwrap();
        let (b, _) = try_run_stream(
            &keyed,
            &flows,
            &empty_timeline(&keyed),
            &cfg,
            &TelemetryConfig::off(),
        )
        .unwrap();
        assert_eq!(a.digest(), b.digest());
        assert_eq!(b.sealed_emergency, 0);
        assert_eq!(b.sealed_bulk, 0);
    }

    #[test]
    fn underloaded_stream_matches_plain_fleet() {
        // Far below saturation nothing queues long and nothing sheds,
        // and the embedded fleet report is exactly a batch run of the
        // same flows: same seed, same sub-stream domains, same plans.
        let exp = world(22);
        let flows = poisson_flows(&exp, 300, 30.0, 22);
        let tl = empty_timeline(&exp);
        let cfg = StreamConfig {
            workers: 2,
            servers: 4,
            seed: 22,
            ..StreamConfig::default()
        };
        let (r, _) = try_run_stream(&exp, &flows, &tl, &cfg, &TelemetryConfig::off()).unwrap();
        assert_eq!(r.offered, 300);
        assert_eq!(r.admitted, 300);
        assert_eq!(r.shed(), 0);
        let batch = try_run_fleet(
            &exp,
            &flows,
            &FleetConfig {
                workers: 2,
                seed: 22,
                ..FleetConfig::default()
            },
        )
        .unwrap();
        assert_eq!(
            r.fleet.digest(),
            batch.digest(),
            "an underloaded stream is a batch in disguise"
        );
    }

    #[test]
    fn overload_sheds_explicitly_and_bounds_sojourn() {
        // 2 servers at ~2 ms base service ≈ 1000 flows/s of capacity;
        // offer ~4000/s. The engine must stay up, account for every
        // flow, and bound the admitted flows' sojourn by construction.
        let exp = world(23);
        let flows = poisson_flows(&exp, 1500, 4000.0, 23);
        let tl = empty_timeline(&exp);
        let cfg = StreamConfig {
            workers: 2,
            servers: 2,
            seed: 23,
            queue_capacity: 16,
            deadline_ms: 40.0,
            ..StreamConfig::default()
        };
        let (r, _) = try_run_stream(&exp, &flows, &tl, &cfg, &TelemetryConfig::off()).unwrap();
        assert_eq!(r.offered, 1500);
        assert_eq!(
            r.offered,
            r.admitted + r.shed_backpressure + r.shed_deadline,
            "every offered flow is accounted for"
        );
        assert!(r.shed() > 0, "2-4x overload must shed");
        assert!(r.admitted > 0, "overload must not collapse to zero service");
        // Wait is bounded by the deadline at admission, so sojourn is
        // bounded by deadline + the longest service time.
        let p99 = r.sojourn_quantile(0.99).expect("admitted flows exist");
        let service_max = r.service_ms.max().expect("admitted flows exist");
        assert!(
            p99 <= cfg.deadline_ms + service_max + 1e-9,
            "p99 sojourn {p99} ms must stay under deadline {} + max service {service_max}",
            cfg.deadline_ms
        );
        assert!(r.wait_ms.max().expect("served") <= cfg.deadline_ms + 1e-9);
        // The depth histogram saw every offered flow.
        assert_eq!(r.queue_depth.len(), r.offered);
        assert!(r.max_depth as usize <= cfg.queue_capacity);
    }

    #[test]
    fn degradation_ladder_sheds_optional_work_before_flows() {
        // Moderate overload: queues climb through the tracing rung and
        // the retry rung before backpressure bites.
        let mut scenario = FaultScenario::iid(0.25);
        scenario.retry = RetryPolicy::ladder();
        let exp = faulted_world(24, scenario);
        let flows = poisson_flows(&exp, 1200, 3000.0, 24);
        let tl = empty_timeline(&exp);
        let cfg = StreamConfig {
            workers: 2,
            servers: 2,
            seed: 24,
            queue_capacity: 32,
            deadline_ms: 200.0,
            ..StreamConfig::default()
        };
        let (r, _) = try_run_stream(&exp, &flows, &tl, &cfg, &TelemetryConfig::off()).unwrap();
        assert!(
            r.degraded_tracing > 0,
            "rung 1 (shed tracing) must fire under sustained overload"
        );
        assert!(
            r.degraded_retry > 0,
            "rung 2 (cap retries) must fire under sustained overload"
        );
        assert!(
            r.degraded_tracing >= r.degraded_retry,
            "rung 1 triggers at a shallower depth than rung 2"
        );
        // Tracing is optional work: shedding it must not perturb
        // outcomes. Traced and untraced digests agree even while the
        // ladder is firing.
        let (traced, telemetry) =
            try_run_stream(&exp, &flows, &tl, &cfg, &TelemetryConfig::full(5)).unwrap();
        assert_eq!(
            r.digest(),
            traced.digest(),
            "telemetry must not perturb outcomes"
        );
        let telemetry = telemetry.expect("telemetry requested");
        let m = &telemetry.metrics;
        // The admitted flows' fleet report splits their deliveries by
        // the rung that made them.
        let on_rungs: u64 = traced.fleet.rungs.iter().map(|r| r.delivered).sum();
        assert_eq!(on_rungs, traced.fleet.delivered);
        // Rung-1 flows produce no postmortems, so captures can only
        // come from the still-traced majority.
        assert_eq!(
            m.counter(tm::POSTMORTEMS),
            telemetry.postmortems.len() as u64
        );
    }

    #[test]
    fn retry_capping_actually_caps_attempts() {
        // Deep overload with a retry ladder: rung-2 flows must be
        // observable as single-attempt outcomes. Compare against the
        // same stream with an effectively infinite queue (no rungs
        // fire) — fewer total attempts under pressure.
        let mut scenario = FaultScenario::iid(0.3);
        scenario.retry = RetryPolicy::ladder();
        let exp = faulted_world(25, scenario);
        let flows = poisson_flows(&exp, 800, 4000.0, 25);
        let tl = empty_timeline(&exp);
        let pressured = StreamConfig {
            servers: 2,
            seed: 25,
            queue_capacity: 24,
            deadline_ms: f64::INFINITY,
            ..StreamConfig::default()
        };
        let relaxed = StreamConfig {
            queue_capacity: 100_000,
            ..pressured
        };
        let (p, _) =
            try_run_stream(&exp, &flows, &tl, &pressured, &TelemetryConfig::off()).unwrap();
        let (rl, _) = try_run_stream(&exp, &flows, &tl, &relaxed, &TelemetryConfig::off()).unwrap();
        assert!(p.degraded_retry > 0, "pressured run must cap retries");
        assert_eq!(rl.degraded_retry, 0, "relaxed run must not");
        assert_eq!(rl.admitted, rl.offered, "unbounded queue admits everything");
        // Same admitted flow under capping can only spend fewer (or
        // equal) attempts; with hundreds of capped flows the totals
        // must strictly separate.
        let attempts = |r: &StreamReport| {
            r.fleet.retry_attempts.len() as f64 * r.fleet.retry_attempts.mean().unwrap_or(0.0)
        };
        assert!(
            attempts(&p) / p.admitted as f64 <= attempts(&rl) / rl.admitted as f64,
            "capped streams must average fewer attempts per admitted flow"
        );
    }

    #[test]
    fn mid_stream_events_apply_at_epoch_barriers() {
        let exp = faulted_world(26, FaultScenario::district_blackouts(1, 100.0));
        let flows = poisson_flows(&exp, 900, 600.0, 26);
        let tl = Timeline::materialize(
            &exp,
            &ChurnConfig {
                seed: 26,
                horizon_ms: flows.last().unwrap().arrival_ms,
                ..ChurnConfig::default()
            },
        );
        assert!(!tl.is_empty(), "churn config must produce events");
        let cfg = StreamConfig {
            workers: 3,
            servers: 6,
            seed: 26,
            queue_capacity: 32,
            deadline_ms: 100.0,
            ..StreamConfig::default()
        };
        let (r, _) = try_run_stream(&exp, &flows, &tl, &cfg, &TelemetryConfig::off()).unwrap();
        assert_eq!(r.epochs, tl.len() as u64 + 1);
        assert_eq!(r.events_applied, tl.len() as u64);
        assert_eq!(r.offered, 900);
        // Worker-count invariance holds across event barriers too,
        // including layouts where the six servers split unevenly (4
        // workers take 2 each, so only three of them have servers).
        for workers in [1, 2, 4, 8] {
            let other = try_run_stream(
                &exp,
                &flows,
                &tl,
                &StreamConfig { workers, ..cfg },
                &TelemetryConfig::off(),
            )
            .unwrap()
            .0;
            assert_eq!(
                r.digest(),
                other.digest(),
                "3 vs {workers} workers with churn"
            );
        }
    }

    #[test]
    fn hier_stream_matches_flat_digest() {
        let mut exp = world(27);
        exp.enable_hier(&HierParams::default());
        let flows = poisson_flows(&exp, 400, 1500.0, 27);
        let tl = empty_timeline(&exp);
        let flat = StreamConfig {
            servers: 3,
            seed: 27,
            queue_capacity: 16,
            deadline_ms: 50.0,
            ..StreamConfig::default()
        };
        let hier = StreamConfig {
            use_hier_planner: true,
            ..flat
        };
        let (rf, _) = try_run_stream(&exp, &flows, &tl, &flat, &TelemetryConfig::off()).unwrap();
        let (rh, _) = try_run_stream(&exp, &flows, &tl, &hier, &TelemetryConfig::off()).unwrap();
        // The hierarchical planner is exact, so identical routes feed
        // identical service times and identical queueing decisions.
        assert_eq!(rf.digest(), rh.digest());
    }

    #[test]
    fn server_queue_ring_sheds_and_drains() {
        let cfg = StreamConfig {
            queue_capacity: 2,
            deadline_ms: 10.0,
            ..StreamConfig::default()
        };
        let mut q = ServerQueue::new(&cfg);
        // Two 5 ms jobs arriving back-to-back fill the queue.
        for t in [0.0, 1.0] {
            match q.offer(t) {
                Admission::Admit { start_ms, .. } => {
                    q.commit(start_ms, 5.0);
                }
                other => panic!("expected admit at t={t}, got {other:?}"),
            }
        }
        assert_eq!(q.depth(), 2);
        // A third immediate arrival hits backpressure.
        assert_eq!(
            q.offer(1.5),
            Admission::Shed {
                reason: ShedReason::Backpressure,
                depth: 2
            }
        );
        // At t=6 the first job (0..5) has completed: depth drains to 1
        // and the wait (10-6=4 ms... job 2 completes at 10) fits the
        // 10 ms deadline.
        match q.offer(6.0) {
            Admission::Admit {
                start_ms, depth, ..
            } => {
                assert_eq!(depth, 1);
                assert!((start_ms - 10.0).abs() < 1e-12, "starts when job 2 ends");
                q.commit(start_ms, 30.0);
            }
            other => panic!("expected admit at t=6, got {other:?}"),
        }
        // At t=11 job 2 (done at 10) has retired, leaving only the
        // 30 ms job (10..40): an arrival would wait 29 ms > 10 ms.
        assert_eq!(
            q.offer(11.0),
            Admission::Shed {
                reason: ShedReason::Deadline,
                depth: 1
            }
        );
        assert_eq!(q.high_water(), 2);
    }

    #[test]
    fn degradation_rungs_order_by_depth() {
        let cfg = StreamConfig {
            queue_capacity: 8,
            deadline_ms: f64::INFINITY,
            ..StreamConfig::default()
        };
        let mut q = ServerQueue::new(&cfg);
        let mut saw = Vec::new();
        // Back-to-back arrivals with long service build depth 0..=7.
        for t in 0..8 {
            match q.offer(t as f64) {
                Admission::Admit {
                    start_ms,
                    depth,
                    shed_tracing,
                    cap_retries,
                } => {
                    saw.push((depth, shed_tracing, cap_retries));
                    q.commit(start_ms, 1000.0);
                }
                other => panic!("unexpected shed: {other:?}"),
            }
        }
        // capacity 8 → rung 1 at depth ≥ 4, rung 2 at depth ≥ 6.
        for (depth, shed_tracing, cap_retries) in saw {
            assert_eq!(shed_tracing, depth >= 4, "rung 1 at depth {depth}");
            assert_eq!(cap_retries, depth >= 6, "rung 2 at depth {depth}");
            if cap_retries {
                assert!(shed_tracing, "rung 2 implies rung 1");
            }
        }
        assert_eq!(
            q.offer(7.5),
            Admission::Shed {
                reason: ShedReason::Backpressure,
                depth: 8
            }
        );
    }

    #[test]
    fn reserved_headroom_admits_emergency_after_bulk_sheds() {
        let cfg = StreamConfig {
            queue_capacity: 4,
            priority_reserve: 2,
            deadline_ms: f64::INFINITY,
            ..StreamConfig::default()
        };
        let mut q = ServerQueue::new(&cfg);
        // Two long jobs fill the bulk share (capacity 4 − reserve 2).
        for t in [0.0, 0.5] {
            match q.offer_class(t, FlowClass::Bulk) {
                Admission::Admit { start_ms, .. } => {
                    q.commit(start_ms, 1000.0);
                }
                other => panic!("expected bulk admit at t={t}, got {other:?}"),
            }
        }
        // The next bulk arrival sheds; an emergency arrival at the very
        // same instant still gets a reserved slot.
        assert_eq!(
            q.offer_class(1.0, FlowClass::Bulk),
            Admission::Shed {
                reason: ShedReason::Backpressure,
                depth: 2
            }
        );
        match q.offer_class(1.0, FlowClass::Emergency) {
            Admission::Admit {
                start_ms, depth, ..
            } => {
                assert_eq!(depth, 2);
                q.commit(start_ms, 1000.0);
            }
            other => panic!("expected emergency admit, got {other:?}"),
        }
        match q.offer_class(1.5, FlowClass::Emergency) {
            Admission::Admit {
                start_ms, depth, ..
            } => {
                assert_eq!(depth, 3);
                q.commit(start_ms, 1000.0);
            }
            other => panic!("expected emergency admit, got {other:?}"),
        }
        // Full is full, even for emergency traffic.
        assert_eq!(
            q.offer_class(2.0, FlowClass::Emergency),
            Admission::Shed {
                reason: ShedReason::Backpressure,
                depth: 4
            }
        );
    }

    #[test]
    fn priority_classes_shed_bulk_before_emergency_at_overload() {
        // 2 servers at ~2 ms base service ≈ 1000 flows/s of capacity,
        // offered ~4000/s: sustained backpressure. With a quarter of
        // the queue reserved, emergency flows must shed at a strictly
        // lower rate than bulk.
        let exp = world(31);
        let flows = poisson_flows(&exp, 1500, 4000.0, 31);
        let tl = empty_timeline(&exp);
        let cfg = StreamConfig {
            workers: 1,
            servers: 2,
            seed: 31,
            queue_capacity: 16,
            priority_reserve: 4,
            emergency_fraction: 0.25,
            deadline_ms: f64::INFINITY,
            ..StreamConfig::default()
        };
        let (r, _) = try_run_stream(&exp, &flows, &tl, &cfg, &TelemetryConfig::off()).unwrap();
        assert_eq!(r.offered_emergency + r.offered_bulk, r.offered);
        assert_eq!(r.shed_emergency + r.shed_bulk, r.shed());
        assert!(r.offered_emergency > 100, "fraction 0.25 of 1500 flows");
        assert!(r.shed_bulk > 0, "4x overload must shed bulk");
        assert!(
            r.emergency_shed_rate() < r.bulk_shed_rate(),
            "reserved headroom must protect emergency traffic: \
             emergency {:.3} vs bulk {:.3}",
            r.emergency_shed_rate(),
            r.bulk_shed_rate()
        );
        // Class assignment is a pure function of (seed, flow.id), so
        // the invariance headline survives the two-class path.
        let parallel = try_run_stream(
            &exp,
            &flows,
            &tl,
            &StreamConfig { workers: 4, ..cfg },
            &TelemetryConfig::off(),
        )
        .unwrap()
        .0;
        assert_eq!(r.digest(), parallel.digest(), "1 vs 4 workers with classes");
    }

    #[test]
    fn class_split_with_zero_reserve_keeps_outcomes() {
        // With no reserved headroom both classes share one cap, so
        // classing flows changes only the accounting: every legacy
        // field matches the single-class run bit-for-bit, and only the
        // per-class counters (which then join the digest) differ.
        let exp = world(32);
        let flows = poisson_flows(&exp, 800, 3000.0, 32);
        let tl = empty_timeline(&exp);
        let plain = StreamConfig {
            servers: 2,
            seed: 32,
            queue_capacity: 16,
            deadline_ms: 50.0,
            ..StreamConfig::default()
        };
        let classed = StreamConfig {
            emergency_fraction: 0.3,
            ..plain
        };
        let (p, _) = try_run_stream(&exp, &flows, &tl, &plain, &TelemetryConfig::off()).unwrap();
        let (c, _) = try_run_stream(&exp, &flows, &tl, &classed, &TelemetryConfig::off()).unwrap();
        assert_eq!(p.offered_emergency, 0, "default config stays single-class");
        assert!(c.offered_emergency > 0);
        assert_eq!(p.admitted, c.admitted);
        assert_eq!(p.shed_backpressure, c.shed_backpressure);
        assert_eq!(p.shed_deadline, c.shed_deadline);
        assert_eq!(p.fleet.digest(), c.fleet.digest());
        assert_ne!(
            p.digest(),
            c.digest(),
            "emergency traffic folds the class counters into the digest"
        );
    }

    #[test]
    fn config_validation_types_every_rejection() {
        let exp = world(28);
        let ok = StreamConfig::default();
        assert_eq!(ok.validate(&exp), Ok(()));
        let cases: Vec<(StreamConfig, StreamError)> = vec![
            (StreamConfig { servers: 0, ..ok }, StreamError::ZeroServers),
            (
                StreamConfig {
                    queue_capacity: 0,
                    ..ok
                },
                StreamError::ZeroQueueCapacity,
            ),
            (
                StreamConfig {
                    deadline_ms: 0.0,
                    ..ok
                },
                StreamError::InvalidDeadline { value: 0.0 },
            ),
            (
                StreamConfig {
                    deadline_ms: -5.0,
                    ..ok
                },
                StreamError::InvalidDeadline { value: -5.0 },
            ),
            (
                StreamConfig {
                    service: ServiceModel {
                        base_ms: 0.0,
                        per_broadcast_ms: 0.05,
                    },
                    ..ok
                },
                StreamError::InvalidServiceModel {
                    field: "base_ms",
                    value: 0.0,
                },
            ),
            (
                StreamConfig {
                    service: ServiceModel {
                        base_ms: 2.0,
                        per_broadcast_ms: -1.0,
                    },
                    ..ok
                },
                StreamError::InvalidServiceModel {
                    field: "per_broadcast_ms",
                    value: -1.0,
                },
            ),
            (
                StreamConfig {
                    use_hier_planner: true,
                    ..ok
                },
                StreamError::Fleet(FleetError::HierPlannerNotEnabled),
            ),
            (
                StreamConfig {
                    emergency_fraction: 1.5,
                    ..ok
                },
                StreamError::InvalidEmergencyFraction { value: 1.5 },
            ),
            (
                StreamConfig {
                    emergency_fraction: -0.1,
                    ..ok
                },
                StreamError::InvalidEmergencyFraction { value: -0.1 },
            ),
            (
                StreamConfig {
                    queue_capacity: 8,
                    priority_reserve: 8,
                    ..ok
                },
                StreamError::ReserveExceedsCapacity {
                    reserve: 8,
                    capacity: 8,
                },
            ),
        ];
        for (cfg, want) in cases {
            assert_eq!(cfg.validate(&exp), Err(want));
        }
        // NaN deadline (can't use assert_eq: NaN != NaN).
        assert!(matches!(
            StreamConfig {
                deadline_ms: f64::NAN,
                ..ok
            }
            .validate(&exp),
            Err(StreamError::InvalidDeadline { .. })
        ));
        // Infinite deadline is the sanctioned "no deadline" spelling.
        assert_eq!(
            StreamConfig {
                deadline_ms: f64::INFINITY,
                ..ok
            }
            .validate(&exp),
            Ok(())
        );
        // Timeline prerequisites surface as typed errors too.
        let flows = poisson_flows(&exp, 50, 100.0, 28);
        let faulted = faulted_world(28, FaultScenario::district_blackouts(1, 100.0));
        let tl = Timeline::materialize(
            &faulted,
            &ChurnConfig {
                seed: 28,
                horizon_ms: 2000.0,
                ..ChurnConfig::default()
            },
        );
        assert!(!tl.is_empty());
        let err = try_run_stream(&exp, &flows, &tl, &ok, &TelemetryConfig::off()).unwrap_err();
        assert_eq!(err, StreamError::Churn(ChurnError::MissingFaultState));
        // Error messages surface the prerequisite by name.
        assert!(StreamError::Fleet(FleetError::HierPlannerNotEnabled)
            .to_string()
            .contains("enable_hier"));
        assert!(StreamError::Churn(ChurnError::MissingFaultState)
            .to_string()
            .contains("fault state"));
    }

    #[test]
    fn server_count_is_a_modeling_knob_not_a_thread_knob() {
        // Changing workers never changes the digest; changing servers
        // legitimately does (it is capacity).
        let exp = world(29);
        let flows = poisson_flows(&exp, 500, 2500.0, 29);
        let tl = empty_timeline(&exp);
        let base = StreamConfig {
            servers: 2,
            seed: 29,
            queue_capacity: 8,
            deadline_ms: 30.0,
            ..StreamConfig::default()
        };
        let two = try_run_stream(&exp, &flows, &tl, &base, &TelemetryConfig::off())
            .unwrap()
            .0;
        let eight = try_run_stream(
            &exp,
            &flows,
            &tl,
            &StreamConfig { servers: 8, ..base },
            &TelemetryConfig::off(),
        )
        .unwrap()
        .0;
        assert_ne!(
            two.digest(),
            eight.digest(),
            "4x the servers must change admission outcomes"
        );
        assert!(
            eight.shed() < two.shed(),
            "more servers shed less ({} vs {})",
            eight.shed(),
            two.shed()
        );
    }
}
