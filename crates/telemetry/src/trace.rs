//! The flow tracer: a fixed-capacity ring buffer of structured events,
//! filled for the flows it is told to trace.
//!
//! One [`FlowTracer`] lives inside each delivery scratch (one per
//! fleet worker). It traces a flow only when armed for it beforehand
//! ([`FlowTracer::trace_next`]); the simulation kernel and the retry
//! ladder then push [`TraceEvent`]s into it as that flow executes, and
//! [`FlowTracer::finish_flow`] copies the ring out as a [`Postmortem`].
//!
//! Which flows are worth a postmortem is not the tracer's call. The
//! fleet's flow executor runs every flow untraced, asks
//! [`TraceConfig::keeps`] of the outcome (failed, retried, or on the
//! every-Nth sample by flow id), and re-simulates only a kept flow from
//! its own RNG sub-stream with the tracer armed. A flow's outcome is a
//! pure function of its plan, the world and that sub-stream, so the
//! replay records exactly the flow that ran, and the captured set is
//! identical on 1 worker or 8.
//!
//! Cost model:
//!
//! * **disabled** (the default, a zero ring capacity):
//!   [`FlowTracer::begin_flow`] and [`FlowTracer::record`] are a
//!   load + branch; no memory is ever allocated. The steady-state
//!   zero-allocation guarantee of the delivery kernel is preserved bit
//!   for bit.
//! * **enabled**: the ring is allocated once at construction. A flow
//!   nobody armed records nothing, so the kernel runs it on its healthy
//!   loop; only a kept flow pays, once for its replay and once for the
//!   copy out of the ring.
//!
//! Tracing is observation only: it draws no randomness and feeds
//! nothing back into the simulation, so every RNG sub-stream and every
//! fleet digest is bit-identical with tracing on or off.

/// Default ring capacity when a [`TraceConfig`] constructor does not
/// specify one. City-scale conduits generate thousands of broadcast +
/// duplicate events per attempt (every reception in the conduit is an
/// event), and a full retry ladder multiplies that by up to four
/// attempts — 32Ki events (~768 KiB per worker, allocated once) keeps
/// virtually every postmortem complete. Flows that still overflow
/// keep their newest events and report the eviction count in
/// [`Postmortem::dropped_events`].
pub const DEFAULT_RING_CAPACITY: usize = 32 * 1024;

/// Which rung of the sender's retry ladder an attempt rode, or a
/// delivery succeeded on.
///
/// Defined here, the lowest crate that names it (trace events and the
/// per-rung metrics both do); `citymesh-core` re-exports it beside its
/// `RetryPolicy`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RecoveryStage {
    /// The first send (no recovery involved).
    First,
    /// A plain re-send over the original conduit.
    Resend,
    /// The widened-conduit variant.
    Widen,
    /// The replanned detour around known-dark buildings.
    Replan,
}

impl RecoveryStage {
    /// All stages, ladder order.
    pub const ALL: [RecoveryStage; 4] = [
        RecoveryStage::First,
        RecoveryStage::Resend,
        RecoveryStage::Widen,
        RecoveryStage::Replan,
    ];

    /// Stable lowercase label for reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            RecoveryStage::First => "first",
            RecoveryStage::Resend => "resend",
            RecoveryStage::Widen => "widen",
            RecoveryStage::Replan => "replan",
        }
    }
}

/// One structured event in a flow's trace. All variants are `Copy` and
/// fixed-size so the ring buffer never allocates per event.
///
/// Times are simulation nanoseconds within the current attempt (each
/// attempt restarts the simulated clock at zero; the `attempt` field
/// of the preceding [`TraceEvent::Attempt`] disambiguates).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// The RNG-free planning half of the flow, recorded once at start.
    Plan {
        /// Source building.
        src: u32,
        /// Destination building.
        dst: u32,
        /// Buildings on the planned route (0 = no route).
        route_len: u32,
        /// Waypoints after conduit compression.
        waypoints: u32,
        /// Compressed source-route header size, bits.
        route_bits: u32,
        /// Conduit rectangles covering the route.
        conduits: u32,
    },
    /// One send attempt begins on the given ladder rung.
    Attempt {
        /// 1-based attempt number.
        attempt: u32,
        /// The ladder rung this attempt rides.
        rung: RecoveryStage,
        /// Conduit width of this attempt, decimeters.
        width_dm: u32,
        /// Conduit rectangles of this attempt's geometry.
        conduits: u32,
    },
    /// An AP transmitted the packet.
    Broadcast {
        /// Transmitting AP id.
        ap: u32,
        /// Simulation time of the transmission, ns.
        at_ns: u64,
    },
    /// An AP suppressed a duplicate reception.
    Duplicate {
        /// Suppressing AP id.
        ap: u32,
        /// Simulation time of the reception, ns.
        at_ns: u64,
    },
    /// A destination-building AP received the packet (first delivery
    /// of the current attempt).
    Delivered {
        /// Receiving AP id.
        ap: u32,
        /// Simulation time of the reception, ns.
        at_ns: u64,
    },
    /// An attempt ran to its horizon without delivering.
    AttemptFailed {
        /// 1-based attempt number that failed.
        attempt: u32,
        /// Broadcasts spent by this attempt alone.
        broadcasts: u64,
    },
}

/// Flow-level outcome handed to [`FlowTracer::finish_flow`]; becomes
/// the header of a captured [`Postmortem`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowSummary {
    /// Source building.
    pub src: u32,
    /// Destination building.
    pub dst: u32,
    /// Whether any attempt delivered.
    pub delivered: bool,
    /// Attempts actually simulated (0 = never reached the simulator).
    pub attempts: u32,
    /// The rung that finally delivered, when delivery needed more than
    /// one attempt.
    pub recovered_by: Option<RecoveryStage>,
    /// Total broadcasts across all attempts.
    pub broadcasts: u64,
    /// End-to-end latency (timeout penalties included), ns.
    pub latency_ns: Option<u64>,
}

impl FlowSummary {
    /// Stable outcome label: `delivered`, `recovered-<rung>`,
    /// `exhausted` (simulated but never delivered), or `unroutable`
    /// (never reached the simulator — no route or dark source).
    pub fn outcome_label(&self) -> &'static str {
        match (self.delivered, self.recovered_by, self.attempts) {
            (true, Some(RecoveryStage::Resend), _) => "recovered-resend",
            (true, Some(RecoveryStage::Widen), _) => "recovered-widen",
            (true, Some(RecoveryStage::Replan), _) => "recovered-replan",
            (true, Some(RecoveryStage::First), _) | (true, None, _) => "delivered",
            (false, _, 0) => "unroutable",
            (false, _, _) => "exhausted",
        }
    }
}

/// A captured flow trace: the summary plus every ring event, exported
/// for post-hoc analysis of *why* a flow failed or which rung saved it.
#[derive(Clone, Debug, PartialEq)]
pub struct Postmortem {
    /// Deterministic flow identity: the key the tracer was armed with
    /// (the workload flow id under the fleet engine).
    pub key: u64,
    /// Why this trace was kept.
    pub summary: FlowSummary,
    /// Events that fell off the ring (oldest-first eviction) before
    /// capture; 0 means `events` is the complete trace.
    pub dropped_events: u64,
    /// The event trace, oldest first.
    pub events: Vec<TraceEvent>,
}

impl Postmortem {
    /// Serializes the full postmortem as a standalone JSON document.
    pub fn to_json(&self) -> String {
        let s = &self.summary;
        let mut out = String::with_capacity(256 + self.events.len() * 64);
        out.push_str(&format!(
            "{{\"flow\":{},\"src\":{},\"dst\":{},\"outcome\":\"{}\",\"delivered\":{},\
             \"attempts\":{},\"recovered_by\":{},\"broadcasts\":{},\"latency_ms\":{},\
             \"dropped_events\":{},\"events\":[",
            self.key,
            s.src,
            s.dst,
            s.outcome_label(),
            s.delivered,
            s.attempts,
            match s.recovered_by {
                Some(r) => format!("\"{}\"", r.label()),
                None => "null".into(),
            },
            s.broadcasts,
            match s.latency_ns {
                Some(ns) => format!("{:?}", ns as f64 / 1e6),
                None => "null".into(),
            },
            self.dropped_events,
        ));
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&event_json(ev));
        }
        out.push_str("]}");
        out
    }
}

fn event_json(ev: &TraceEvent) -> String {
    match ev {
        TraceEvent::Plan {
            src,
            dst,
            route_len,
            waypoints,
            route_bits,
            conduits,
        } => format!(
            "{{\"type\":\"plan\",\"src\":{src},\"dst\":{dst},\"route_len\":{route_len},\
             \"waypoints\":{waypoints},\"route_bits\":{route_bits},\"conduits\":{conduits}}}"
        ),
        TraceEvent::Attempt {
            attempt,
            rung,
            width_dm,
            conduits,
        } => format!(
            "{{\"type\":\"attempt\",\"attempt\":{attempt},\"rung\":\"{}\",\
             \"width_dm\":{width_dm},\"conduits\":{conduits}}}",
            rung.label()
        ),
        TraceEvent::Broadcast { ap, at_ns } => {
            format!("{{\"type\":\"broadcast\",\"ap\":{ap},\"t_ns\":{at_ns}}}")
        }
        TraceEvent::Duplicate { ap, at_ns } => {
            format!("{{\"type\":\"duplicate\",\"ap\":{ap},\"t_ns\":{at_ns}}}")
        }
        TraceEvent::Delivered { ap, at_ns } => {
            format!("{{\"type\":\"delivered\",\"ap\":{ap},\"t_ns\":{at_ns}}}")
        }
        TraceEvent::AttemptFailed {
            attempt,
            broadcasts,
        } => format!(
            "{{\"type\":\"attempt_failed\",\"attempt\":{attempt},\"broadcasts\":{broadcasts}}}"
        ),
    }
}

/// Tracer configuration. The default is fully disabled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Steady-state sampling: keep every flow whose key is a multiple
    /// of this (0 = keep failures/retries only).
    pub sample_every: u64,
    /// Ring capacity in events; allocated once at tracer construction.
    /// 0 disables tracing: every tracer call is then a no-op branch.
    pub ring_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::off()
    }
}

impl TraceConfig {
    /// Tracing fully disabled (the zero-overhead default).
    pub fn off() -> Self {
        TraceConfig {
            sample_every: 0,
            ring_capacity: 0,
        }
    }

    /// Keep failures/retries plus every `n`-th flow by key (`n == 0`
    /// keeps failed and retried flows only).
    pub fn sampled(n: u64) -> Self {
        TraceConfig {
            sample_every: n,
            ring_capacity: DEFAULT_RING_CAPACITY,
        }
    }

    /// The retention policy: whether the flow keyed `key` is worth a
    /// postmortem, judged from its outcome — it failed, needed more
    /// than one attempt, or fell on the every-Nth sample. Keyed by flow
    /// identity, never by scheduling. Always `false` when the tracer
    /// this config builds could not record.
    pub fn keeps(&self, key: u64, delivered: bool, attempts: u32) -> bool {
        let sampled = self.sample_every > 0 && key.is_multiple_of(self.sample_every);
        self.ring_capacity > 0 && (sampled || !delivered || attempts > 1)
    }
}

/// Top-level telemetry switchboard consumed by the fleet engine:
/// metric recording and flow tracing toggle independently.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Record per-flow metrics into the worker's metric set.
    pub metrics: bool,
    /// Flow tracer configuration.
    pub trace: TraceConfig,
}

impl TelemetryConfig {
    /// Everything off — byte-for-byte the legacy engine behavior.
    pub fn off() -> Self {
        TelemetryConfig::default()
    }

    /// Metrics only, no tracing.
    pub fn metrics_only() -> Self {
        TelemetryConfig {
            metrics: true,
            trace: TraceConfig::off(),
        }
    }

    /// Metrics plus tracing with an every-`n`-th-flow sample.
    pub fn full(sample_every: u64) -> Self {
        TelemetryConfig {
            metrics: true,
            trace: TraceConfig::sampled(sample_every),
        }
    }

    /// Whether every subsystem is disabled.
    pub fn is_off(&self) -> bool {
        !self.metrics && self.trace.ring_capacity == 0
    }
}

/// The per-scratch flow tracer. See the module docs for the cost
/// model; the per-flow protocol is [`FlowTracer::trace_next`], then
/// [`FlowTracer::begin_flow`] / [`FlowTracer::record`] /
/// [`FlowTracer::finish_flow`].
#[derive(Debug)]
pub struct FlowTracer {
    /// Ring capacity in events; 0 when disabled.
    capacity: usize,
    /// Ring storage; grows by `push` up to `capacity` on the first
    /// traced flows, then is written in place forever after.
    ring: Vec<TraceEvent>,
    /// Index of the oldest live event.
    start: usize,
    /// Live event count (≤ capacity).
    len: usize,
    /// Events evicted from the ring during the current flow.
    dropped: u64,
    /// The key of the flow being traced, between `begin_flow` and
    /// `finish_flow`.
    active: Option<u64>,
    /// The key the next `begin_flow` traces under, set by `trace_next`.
    next: Option<u64>,
    postmortems: Vec<Postmortem>,
}

impl Default for FlowTracer {
    fn default() -> Self {
        FlowTracer::new(TraceConfig::off())
    }
}

impl FlowTracer {
    /// Builds a tracer, pre-allocating the ring when enabled so that
    /// recording is allocation-free from the first event on.
    pub fn new(cfg: TraceConfig) -> Self {
        FlowTracer {
            capacity: cfg.ring_capacity,
            ring: Vec::with_capacity(cfg.ring_capacity),
            start: 0,
            len: 0,
            dropped: 0,
            active: None,
            next: None,
            postmortems: Vec::new(),
        }
    }

    /// Whether this tracer can ever record.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Whether a flow is being traced: between a `begin_flow` that
    /// [`FlowTracer::trace_next`] armed and its `finish_flow`.
    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }

    /// Arms the *next* `begin_flow` to trace its flow under `key` (the
    /// fleet executor passes the workload flow id, so postmortems are
    /// keyed by flow identity, not by the message id). Every other flow
    /// records nothing. No-op when disabled.
    pub fn trace_next(&mut self, key: u64) {
        if self.is_enabled() {
            self.next = Some(key);
        }
    }

    /// Starts tracing one flow when [`FlowTracer::trace_next`] armed
    /// it; otherwise the flow stays inactive.
    pub fn begin_flow(&mut self) {
        self.active = self.next.take();
        self.start = 0;
        self.len = 0;
        self.dropped = 0;
    }

    /// Appends one event to the active flow's ring; evicts the oldest
    /// event when full. No-op (a branch) when no flow is active.
    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        if self.active.is_none() {
            return;
        }
        if self.len < self.capacity {
            // Not wrapped yet this flow, so `start` is 0.
            if self.len == self.ring.len() {
                self.ring.push(ev); // first fill only; capacity reserved
            } else {
                self.ring[self.len] = ev;
            }
            self.len += 1;
        } else {
            self.ring[self.start] = ev;
            self.start += 1;
            if self.start == self.capacity {
                self.start = 0;
            }
            self.dropped += 1;
        }
    }

    /// Ends the active flow and captures its trace as a [`Postmortem`]
    /// headed by `summary`. No-op when no flow is active.
    pub fn finish_flow(&mut self, summary: FlowSummary) {
        let Some(key) = self.active.take() else {
            return;
        };
        let mut events = Vec::with_capacity(self.len);
        events.extend_from_slice(&self.ring[self.start..self.len]);
        events.extend_from_slice(&self.ring[..self.start]);
        self.postmortems.push(Postmortem {
            key,
            summary,
            dropped_events: self.dropped,
            events,
        });
    }

    /// Drains every postmortem captured so far.
    pub fn take_postmortems(&mut self) -> Vec<Postmortem> {
        std::mem::take(&mut self.postmortems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(delivered: bool, attempts: u32) -> FlowSummary {
        FlowSummary {
            src: 1,
            dst: 2,
            delivered,
            attempts,
            recovered_by: None,
            broadcasts: 10,
            latency_ns: delivered.then_some(5_000_000),
        }
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let mut t = FlowTracer::default();
        t.trace_next(7);
        t.begin_flow();
        assert!(!t.is_active());
        t.record(TraceEvent::Broadcast { ap: 1, at_ns: 0 });
        t.finish_flow(summary(false, 3));
        assert!(t.take_postmortems().is_empty());
        assert_eq!(t.ring.capacity(), 0, "disabled tracer must not allocate");
    }

    #[test]
    fn failures_and_retries_are_always_kept() {
        let cfg = TraceConfig::sampled(0);
        assert!(!cfg.keeps(1, true, 1), "a clean first-try delivery is not");
        assert!(cfg.keeps(2, false, 1), "a failure is");
        assert!(cfg.keeps(3, true, 2), "a retried delivery is");
        assert!(cfg.keeps(4, false, 0), "an unroutable flow is");
        assert!(
            !TraceConfig::off().keeps(5, false, 1),
            "nothing is kept when off"
        );
        let no_ring = TraceConfig {
            ring_capacity: 0,
            ..TraceConfig::sampled(1)
        };
        assert!(
            !no_ring.keeps(6, false, 1),
            "nor without a ring to record in, whatever the sample"
        );
    }

    #[test]
    fn sampling_is_keyed_not_scheduled() {
        let cfg = TraceConfig::sampled(10);
        let keys: Vec<u64> = [5u64, 10, 15, 20, 25]
            .into_iter()
            .filter(|&key| cfg.keeps(key, true, 1))
            .collect();
        assert_eq!(keys, vec![10, 20], "keys divisible by 10 are sampled");
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let mut t = FlowTracer::new(TraceConfig {
            sample_every: 1,
            ring_capacity: 4,
        });
        t.trace_next(0);
        t.begin_flow();
        for i in 0..10u32 {
            t.record(TraceEvent::Broadcast {
                ap: i,
                at_ns: i as u64,
            });
        }
        t.finish_flow(summary(true, 1));
        let pms = t.take_postmortems();
        let p = &pms[0];
        assert_eq!(p.dropped_events, 6);
        assert_eq!(p.events.len(), 4);
        // The ring keeps the newest events, oldest first.
        let aps: Vec<u32> = p
            .events
            .iter()
            .map(|e| match e {
                TraceEvent::Broadcast { ap, .. } => *ap,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(aps, vec![6, 7, 8, 9]);
    }

    #[test]
    fn ring_storage_never_regrows_after_first_fill() {
        let mut t = FlowTracer::new(TraceConfig {
            sample_every: 0,
            ring_capacity: 8,
        });
        for flow in 0..5u64 {
            t.trace_next(flow);
            t.begin_flow();
            for i in 0..20u32 {
                t.record(TraceEvent::Duplicate {
                    ap: i,
                    at_ns: i as u64,
                });
            }
            t.finish_flow(summary(true, 1));
        }
        assert_eq!(t.ring.len(), 8);
        assert_eq!(t.ring.capacity(), 8, "ring must stay at its reservation");
    }

    #[test]
    fn only_an_armed_flow_is_traced() {
        let mut t = FlowTracer::new(TraceConfig::sampled(1));
        t.trace_next(42);
        t.begin_flow();
        assert!(t.is_active());
        t.finish_flow(summary(true, 1));
        // Nobody armed this one: it records and captures nothing.
        t.begin_flow();
        assert!(!t.is_active());
        t.record(TraceEvent::Broadcast { ap: 0, at_ns: 0 });
        t.finish_flow(summary(false, 4));
        let keys: Vec<u64> = t.take_postmortems().iter().map(|p| p.key).collect();
        assert_eq!(keys, vec![42]);
    }

    #[test]
    fn postmortem_json_names_the_recovering_rung() {
        let mut s = summary(true, 3);
        s.recovered_by = Some(RecoveryStage::Widen);
        let p = Postmortem {
            key: 17,
            summary: s,
            dropped_events: 0,
            events: vec![
                TraceEvent::Plan {
                    src: 1,
                    dst: 2,
                    route_len: 5,
                    waypoints: 3,
                    route_bits: 96,
                    conduits: 2,
                },
                TraceEvent::Attempt {
                    attempt: 3,
                    rung: RecoveryStage::Widen,
                    width_dm: 1000,
                    conduits: 2,
                },
                TraceEvent::Delivered { ap: 9, at_ns: 123 },
            ],
        };
        let json = p.to_json();
        assert!(json.contains("\"outcome\":\"recovered-widen\""), "{json}");
        assert!(json.contains("\"recovered_by\":\"widen\""));
        assert!(json.contains("\"type\":\"plan\""));
        assert!(json.contains("\"rung\":\"widen\""));
        assert!(json.contains("\"type\":\"delivered\""));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn exhausted_and_unroutable_labels() {
        assert_eq!(summary(false, 4).outcome_label(), "exhausted");
        assert_eq!(summary(false, 0).outcome_label(), "unroutable");
        assert_eq!(summary(true, 1).outcome_label(), "delivered");
    }
}
