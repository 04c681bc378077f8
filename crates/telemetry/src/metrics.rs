//! The static metric registry and the per-worker [`MetricSet`].
//!
//! Metrics are declared once, at compile time, as `const` definition
//! tables; a [`MetricSet`] is just three flat arrays indexed by the
//! typed ids those tables hand out. Recording is an array index plus
//! an integer add — no locking, no hashing, no allocation — so a set
//! can live inside each fleet worker's hot loop.
//!
//! Every value is an integer (`u64`): latencies are recorded in
//! microseconds and overhead ratios in milli-units (×1000). Integer
//! addition commutes, so merging per-worker sets in worker-id order
//! yields bit-identical aggregates no matter which worker claimed
//! which flow chunk — the same schedule-independence argument the
//! fleet digest relies on.
//!
//! The registry counts each outcome once, and not where a report
//! already does: how many flows ran, delivered, retried, were shed or
//! sealed is a field of the engine's report (`FleetReport`,
//! `StreamReport`, `ChurnReport`), folded in flow-id order and
//! digested. What the registry holds is what no report carries: the
//! per-rung split of those deliveries with its latency and overhead
//! histograms, the attempts and broadcasts behind them, the
//! exhausted/unroutable split of the failures, the trace totals and
//! the [`SCHEDULE_DEPENDENT`] work counters. [`MetricSet::outcome_split`]
//! is the identity that ties the two together.

use crate::trace::RecoveryStage;

/// Definition of one monotonically increasing counter.
#[derive(Clone, Copy, Debug)]
pub struct CounterDef {
    /// Stable snake_case metric name (`citymesh_` prefix implied by
    /// exporters).
    pub name: &'static str,
    /// One-line human description.
    pub help: &'static str,
}

/// Definition of one gauge. Fleet gauges are high-water marks and
/// merge by `max`.
#[derive(Clone, Copy, Debug)]
pub struct GaugeDef {
    /// Stable snake_case metric name.
    pub name: &'static str,
    /// One-line human description.
    pub help: &'static str,
}

/// Definition of one fixed-bucket histogram over integer samples.
#[derive(Clone, Copy, Debug)]
pub struct HistogramDef {
    /// Stable snake_case metric name.
    pub name: &'static str,
    /// One-line human description.
    pub help: &'static str,
    /// Unit of the recorded samples (informational; exporters print it).
    pub unit: &'static str,
    /// Inclusive upper bounds of the finite buckets, ascending. An
    /// implicit overflow bucket catches everything above the last.
    pub bounds: &'static [u64],
}

/// Typed handle into [`COUNTERS`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(pub(crate) usize);

/// Typed handle into [`GAUGES`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(pub(crate) usize);

/// Typed handle into [`HISTOGRAMS`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramId(pub(crate) usize);

/// Send attempts simulated, all flows.
pub const ATTEMPTS: CounterId = CounterId(0);
/// AP broadcasts, all flows and attempts.
pub const BROADCASTS: CounterId = CounterId(1);
/// Deliveries won on the first rung.
pub const RUNG_FIRST: CounterId = CounterId(2);
/// Deliveries won by a plain resend.
pub const RUNG_RESEND: CounterId = CounterId(3);
/// Deliveries won by the widened conduit.
pub const RUNG_WIDEN: CounterId = CounterId(4);
/// Deliveries won by a replanned detour.
pub const RUNG_REPLAN: CounterId = CounterId(5);
/// Flows that exhausted every ladder rung.
pub const EXHAUSTED: CounterId = CounterId(6);
/// Flows that never reached the simulator (no route / dark source).
pub const UNROUTABLE: CounterId = CounterId(7);
/// Postmortem traces captured.
pub const POSTMORTEMS: CounterId = CounterId(8);
/// Trace events evicted from full rings, over the captured flows.
pub const TRACE_DROPPED: CounterId = CounterId(9);
/// Hierarchical planner queries answered (one per cache-miss plan when
/// the hierarchical fast path is enabled).
///
/// Like the route-cache hit/miss counts, hier planner counters are
/// *schedule-dependent*: racing workers may double-plan a pair, so the
/// totals vary with worker count. They are excluded from digests.
pub const HIER_QUERIES: CounterId = CounterId(10);
/// Hier queries answered entirely inside one district (no overlay
/// search). Schedule-dependent; excluded from digests.
pub const HIER_DIRECT_ROUTES: CounterId = CounterId(11);
/// Border nodes settled by overlay Dijkstra across all hier queries.
/// Schedule-dependent; excluded from digests.
pub const HIER_OVERLAY_SETTLED: CounterId = CounterId(12);
/// Vertex expansions performed by hier intra-district searches.
/// Schedule-dependent; excluded from digests.
pub const HIER_EXPANSIONS: CounterId = CounterId(13);
/// Per-pair session keys derived on cache misses (X25519 + HKDF — the
/// amortized cost).
///
/// Like the route-cache and hier counters this is *schedule-dependent*:
/// racing workers may both miss and double-derive a pair, so the total
/// varies with worker count. Excluded from digests.
pub const KEYS_DERIVED: CounterId = CounterId(14);
/// Ideal-hops queries over the AP graph (one per planned flow with a
/// route and a live source AP — the §4 overhead denominator), whether
/// a search or a destination's hop row answered.
/// Schedule-dependent like the hier counters: racing workers may
/// double-plan a pair. Excluded from digests.
pub const IDEAL_HOPS_QUERIES: CounterId = CounterId(15);
/// APs settled by the queries that searched (a row read settles none).
/// Schedule-dependent; excluded from digests.
pub const IDEAL_HOPS_SETTLED: CounterId = CounterId(16);
/// Retry-ladder geometries materialized (widened conduits plus the
/// replan detour): once per plan per fault-state epoch, on the first
/// flow that reaches rung 3. Schedule-dependent: racing workers may
/// both materialize one cached plan. Excluded from digests.
pub const LADDERS_MATERIALIZED: CounterId = CounterId(17);
/// Replan detours refused before any search because the
/// surviving-component labels show no route around the dark buildings.
/// Schedule-dependent; excluded from digests.
pub const DETOURS_REJECTED_BY_LABELS: CounterId = CounterId(18);
/// Replan detour searches run (each finds a route: the labels refuse
/// the rest). Schedule-dependent; excluded from digests.
pub const DETOUR_SEARCHES: CounterId = CounterId(19);
/// Per-source shortest-path rows the flat planner built (one full
/// Dijkstra tree each, on a source's sixteenth request).
/// Schedule-dependent: which worker's request is the sixteenth, and
/// whether an earlier run already built the row, vary. Excluded from
/// digests.
pub const ROUTE_ROWS_BUILT: CounterId = CounterId(20);
/// Flat plans whose route was walked out of the source's row.
/// Schedule-dependent; excluded from digests.
pub const ROUTES_FROM_ROWS: CounterId = CounterId(21);
/// Flat plans whose route came from the A* search (no row yet, a
/// tie-flagged source, or a map too large to table).
/// Schedule-dependent; excluded from digests.
pub const ROUTE_SEARCHES: CounterId = CounterId(22);
/// Per-destination-building hop rows the AP graph built (one flood
/// each, on a destination's sixteenth ideal-hops query).
/// Schedule-dependent like [`ROUTE_ROWS_BUILT`]; excluded from digests.
pub const HOP_ROWS_BUILT: CounterId = CounterId(23);
/// Ideal-hops queries read out of the destination's hop row; the rest
/// of [`IDEAL_HOPS_QUERIES`] searched. Schedule-dependent; excluded
/// from digests.
pub const HOPS_FROM_ROWS: CounterId = CounterId(24);

/// The counters whose totals depend on which worker planned or derived
/// what (racing workers may both miss a cache and repeat the work).
/// Informational only: [`MetricSet::fingerprint`] skips them, so the
/// fingerprint stays worker-count invariant.
pub const SCHEDULE_DEPENDENT: &[CounterId] = &[
    HIER_QUERIES,
    HIER_DIRECT_ROUTES,
    HIER_OVERLAY_SETTLED,
    HIER_EXPANSIONS,
    KEYS_DERIVED,
    IDEAL_HOPS_QUERIES,
    IDEAL_HOPS_SETTLED,
    LADDERS_MATERIALIZED,
    DETOURS_REJECTED_BY_LABELS,
    DETOUR_SEARCHES,
    ROUTE_ROWS_BUILT,
    ROUTES_FROM_ROWS,
    ROUTE_SEARCHES,
    HOP_ROWS_BUILT,
    HOPS_FROM_ROWS,
];

/// The counter registry; indexed by [`CounterId`].
pub const COUNTERS: &[CounterDef] = &[
    CounterDef {
        name: "attempts_total",
        help: "Send attempts simulated",
    },
    CounterDef {
        name: "broadcasts_total",
        help: "AP broadcasts across all attempts",
    },
    CounterDef {
        name: "rung_first_total",
        help: "Deliveries won on the first send",
    },
    CounterDef {
        name: "rung_resend_total",
        help: "Deliveries won by a plain resend",
    },
    CounterDef {
        name: "rung_widen_total",
        help: "Deliveries won by the widened conduit",
    },
    CounterDef {
        name: "rung_replan_total",
        help: "Deliveries won by a replanned detour",
    },
    CounterDef {
        name: "exhausted_total",
        help: "Flows that exhausted every ladder rung",
    },
    CounterDef {
        name: "unroutable_total",
        help: "Flows that never reached the simulator",
    },
    CounterDef {
        name: "postmortems_total",
        help: "Postmortem traces captured",
    },
    CounterDef {
        name: "trace_dropped_total",
        help: "Trace events evicted from full rings of captured flows",
    },
    CounterDef {
        name: "hier_queries_total",
        help: "Hierarchical planner queries answered",
    },
    CounterDef {
        name: "hier_direct_routes_total",
        help: "Hier queries resolved inside one district",
    },
    CounterDef {
        name: "hier_overlay_settled_total",
        help: "Border nodes settled by overlay Dijkstra",
    },
    CounterDef {
        name: "hier_expansions_total",
        help: "Vertex expansions in hier intra-district searches",
    },
    CounterDef {
        name: "secure_keys_derived_total",
        help: "Per-pair session keys derived on cache misses",
    },
    CounterDef {
        name: "ideal_hops_queries_total",
        help: "Ideal-hops queries over the AP graph, answered by search or from a hop row",
    },
    CounterDef {
        name: "ideal_hops_settled_total",
        help: "APs settled by the ideal-hops queries that searched (row reads settle none)",
    },
    CounterDef {
        name: "ladders_materialized_total",
        help: "Retry-ladder geometries materialized on first escalation",
    },
    CounterDef {
        name: "detours_rejected_by_labels_total",
        help: "Replan detours refused by the surviving-component labels",
    },
    CounterDef {
        name: "detour_searches_total",
        help: "Replan detour searches run",
    },
    CounterDef {
        name: "route_rows_built_total",
        help: "Per-source shortest-path rows built by the flat planner",
    },
    CounterDef {
        name: "routes_from_rows_total",
        help: "Flat plans routed by walking the source's row",
    },
    CounterDef {
        name: "route_searches_total",
        help: "Flat plans routed by the A* search",
    },
    CounterDef {
        name: "hop_rows_built_total",
        help: "Per-destination-building hop rows built by the AP graph",
    },
    CounterDef {
        name: "hops_from_rows_total",
        help: "Ideal-hops queries read out of the destination's hop row",
    },
];

/// Highest ring occupancy any captured flow reached.
pub const TRACE_HIGH_WATER: GaugeId = GaugeId(0);
/// Most attempts any single flow consumed.
pub const MAX_ATTEMPTS: GaugeId = GaugeId(1);

/// The gauge registry; indexed by [`GaugeId`]. All fleet gauges are
/// high-water marks (merged by `max`).
pub const GAUGES: &[GaugeDef] = &[
    GaugeDef {
        name: "trace_ring_high_water",
        help: "Most ring events any captured flow held",
    },
    GaugeDef {
        name: "max_attempts_per_flow",
        help: "Most attempts any single flow consumed",
    },
];

/// Latency buckets, µs. The horizon-timeout penalty adds a full
/// simulated minute per failed attempt, so the tail reaches 300 s.
const LATENCY_BOUNDS_US: &[u64] = &[
    100,
    300,
    1_000,
    3_000,
    10_000,
    30_000,
    100_000,
    300_000,
    1_000_000,
    3_000_000,
    10_000_000,
    30_000_000,
    60_000_000,
    120_000_000,
    300_000_000,
];

/// Overhead buckets, milli-units (1000 = one broadcast per flow).
const OVERHEAD_BOUNDS_MILLI: &[u64] = &[
    1_000, 2_000, 4_000, 8_000, 16_000, 32_000, 64_000, 128_000, 256_000, 512_000, 1_024_000,
];

/// Latency of flows delivered on the first rung, µs.
pub const LATENCY_FIRST: HistogramId = HistogramId(0);
/// Latency of flows recovered by a resend, µs.
pub const LATENCY_RESEND: HistogramId = HistogramId(1);
/// Latency of flows recovered by the widened conduit, µs.
pub const LATENCY_WIDEN: HistogramId = HistogramId(2);
/// Latency of flows recovered by a replan, µs.
pub const LATENCY_REPLAN: HistogramId = HistogramId(3);
/// Broadcast overhead of first-rung deliveries, milli-units.
pub const OVERHEAD_FIRST: HistogramId = HistogramId(4);
/// Broadcast overhead of resend recoveries, milli-units.
pub const OVERHEAD_RESEND: HistogramId = HistogramId(5);
/// Broadcast overhead of widen recoveries, milli-units.
pub const OVERHEAD_WIDEN: HistogramId = HistogramId(6);
/// Broadcast overhead of replan recoveries, milli-units.
pub const OVERHEAD_REPLAN: HistogramId = HistogramId(7);
/// Attempts each flow consumed before resolution.
pub const ATTEMPTS_PER_FLOW: HistogramId = HistogramId(8);

/// The histogram registry; indexed by [`HistogramId`].
pub const HISTOGRAMS: &[HistogramDef] = &[
    HistogramDef {
        name: "latency_first_us",
        help: "Latency of first-rung deliveries",
        unit: "us",
        bounds: LATENCY_BOUNDS_US,
    },
    HistogramDef {
        name: "latency_resend_us",
        help: "Latency of resend recoveries",
        unit: "us",
        bounds: LATENCY_BOUNDS_US,
    },
    HistogramDef {
        name: "latency_widen_us",
        help: "Latency of widen recoveries",
        unit: "us",
        bounds: LATENCY_BOUNDS_US,
    },
    HistogramDef {
        name: "latency_replan_us",
        help: "Latency of replan recoveries",
        unit: "us",
        bounds: LATENCY_BOUNDS_US,
    },
    HistogramDef {
        name: "overhead_first_milli",
        help: "Broadcast overhead of first-rung deliveries",
        unit: "milli",
        bounds: OVERHEAD_BOUNDS_MILLI,
    },
    HistogramDef {
        name: "overhead_resend_milli",
        help: "Broadcast overhead of resend recoveries",
        unit: "milli",
        bounds: OVERHEAD_BOUNDS_MILLI,
    },
    HistogramDef {
        name: "overhead_widen_milli",
        help: "Broadcast overhead of widen recoveries",
        unit: "milli",
        bounds: OVERHEAD_BOUNDS_MILLI,
    },
    HistogramDef {
        name: "overhead_replan_milli",
        help: "Broadcast overhead of replan recoveries",
        unit: "milli",
        bounds: OVERHEAD_BOUNDS_MILLI,
    },
    HistogramDef {
        name: "attempts_per_flow",
        help: "Attempts each flow consumed",
        unit: "attempts",
        bounds: &[1, 2, 3, 4],
    },
];

/// The delivery counter credited to a rung.
pub fn rung_delivery_counter(rung: RecoveryStage) -> CounterId {
    match rung {
        RecoveryStage::First => RUNG_FIRST,
        RecoveryStage::Resend => RUNG_RESEND,
        RecoveryStage::Widen => RUNG_WIDEN,
        RecoveryStage::Replan => RUNG_REPLAN,
    }
}

/// The latency histogram credited to a rung.
pub fn rung_latency_histogram(rung: RecoveryStage) -> HistogramId {
    match rung {
        RecoveryStage::First => LATENCY_FIRST,
        RecoveryStage::Resend => LATENCY_RESEND,
        RecoveryStage::Widen => LATENCY_WIDEN,
        RecoveryStage::Replan => LATENCY_REPLAN,
    }
}

/// The overhead histogram credited to a rung.
pub fn rung_overhead_histogram(rung: RecoveryStage) -> HistogramId {
    match rung {
        RecoveryStage::First => OVERHEAD_FIRST,
        RecoveryStage::Resend => OVERHEAD_RESEND,
        RecoveryStage::Widen => OVERHEAD_WIDEN,
        RecoveryStage::Replan => OVERHEAD_REPLAN,
    }
}

/// State of one histogram: finite buckets plus overflow, all integer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct HistoState {
    /// `bounds.len() + 1` bucket counts (last = overflow).
    pub(crate) buckets: Vec<u64>,
    pub(crate) count: u64,
    pub(crate) sum: u64,
    pub(crate) max: u64,
}

impl HistoState {
    fn new(def: &HistogramDef) -> Self {
        HistoState {
            buckets: vec![0; def.bounds.len() + 1],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

/// One worker's (or one merged run's) metric values, indexed by the
/// registry ids. Built once per worker; recording never allocates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricSet {
    counters: Vec<u64>,
    gauges: Vec<u64>,
    histograms: Vec<HistoState>,
}

impl Default for MetricSet {
    fn default() -> Self {
        MetricSet::new()
    }
}

impl MetricSet {
    /// A zeroed set covering the whole registry.
    pub fn new() -> Self {
        MetricSet {
            counters: vec![0; COUNTERS.len()],
            gauges: vec![0; GAUGES.len()],
            histograms: HISTOGRAMS.iter().map(HistoState::new).collect(),
        }
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0] += 1;
    }

    /// Adds to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, delta: u64) {
        self.counters[id.0] += delta;
    }

    /// Raises a high-water gauge to at least `value`.
    #[inline]
    pub fn gauge_max(&mut self, id: GaugeId, value: u64) {
        let g = &mut self.gauges[id.0];
        *g = (*g).max(value);
    }

    /// Records one sample into a histogram.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: u64) {
        let def = &HISTOGRAMS[id.0];
        let h = &mut self.histograms[id.0];
        let idx = def
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(def.bounds.len());
        h.buckets[idx] += 1;
        h.count += 1;
        h.sum += value;
        h.max = h.max.max(value);
    }

    /// Current value of a counter.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id.0]
    }

    /// Current value of a gauge.
    pub fn gauge(&self, id: GaugeId) -> u64 {
        self.gauges[id.0]
    }

    /// Sample count of a histogram.
    pub fn histo_count(&self, id: HistogramId) -> u64 {
        self.histograms[id.0].count
    }

    /// Sample sum of a histogram (in its recorded unit).
    pub fn histo_sum(&self, id: HistogramId) -> u64 {
        self.histograms[id.0].sum
    }

    /// Largest sample a histogram has seen.
    pub fn histo_max(&self, id: HistogramId) -> u64 {
        self.histograms[id.0].max
    }

    /// Mean sample of a histogram, or `None` when empty.
    pub fn histo_mean(&self, id: HistogramId) -> Option<f64> {
        let h = &self.histograms[id.0];
        (h.count > 0).then(|| h.sum as f64 / h.count as f64)
    }

    /// Approximate quantile: the upper bound of the bucket containing
    /// the `q`-quantile sample (the recorded max for the overflow
    /// bucket). `None` when the histogram is empty.
    pub fn histo_quantile(&self, id: HistogramId, q: f64) -> Option<u64> {
        let def = &HISTOGRAMS[id.0];
        let h = &self.histograms[id.0];
        if h.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * h.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in h.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(if i < def.bounds.len() {
                    def.bounds[i]
                } else {
                    h.max
                });
            }
        }
        Some(h.max)
    }

    /// Folds another set into this one: counters and buckets add,
    /// gauges take the max. Integer addition commutes, so merging the
    /// per-worker sets in worker-id order is deterministic regardless
    /// of which worker executed which flows.
    pub fn merge(&mut self, other: &MetricSet) {
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        for (a, b) in self.gauges.iter_mut().zip(&other.gauges) {
            *a = (*a).max(*b);
        }
        for (a, b) in self.histograms.iter_mut().zip(&other.histograms) {
            for (x, y) in a.buckets.iter_mut().zip(&b.buckets) {
                *x += y;
            }
            a.count += b.count;
            a.sum += b.sum;
            a.max = a.max.max(b.max);
        }
    }

    /// The registry's split of a run's flows: `(Σ rung deliveries,
    /// exhausted + unroutable)`. Every flow lands in exactly one of
    /// those counters, so this equals the report's `(delivered, flows −
    /// delivered)` for the same run.
    pub fn outcome_split(&self) -> (u64, u64) {
        let delivered = RecoveryStage::ALL
            .iter()
            .map(|&stage| self.counter(rung_delivery_counter(stage)))
            .sum();
        (
            delivered,
            self.counter(EXHAUSTED) + self.counter(UNROUTABLE),
        )
    }

    /// FNV-1a digest over every schedule-independent counter (all but
    /// [`SCHEDULE_DEPENDENT`]), gauge, and histogram bucket — the
    /// telemetry analogue of the fleet report digest, pinned by
    /// determinism tests across worker counts.
    pub fn fingerprint(&self) -> u64 {
        const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut h = BASIS;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        for (i, &c) in self.counters.iter().enumerate() {
            if !SCHEDULE_DEPENDENT.contains(&CounterId(i)) {
                mix(c);
            }
        }
        for &g in &self.gauges {
            mix(g);
        }
        for hist in &self.histograms {
            mix(hist.count);
            mix(hist.sum);
            mix(hist.max);
            for &b in &hist.buckets {
                mix(b);
            }
        }
        h
    }

    pub(crate) fn counters(&self) -> &[u64] {
        &self.counters
    }

    pub(crate) fn gauges(&self) -> &[u64] {
        &self.gauges
    }

    pub(crate) fn histograms(&self) -> &[HistoState] {
        &self.histograms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_line_up() {
        assert_eq!((COUNTERS.len(), GAUGES.len(), HISTOGRAMS.len()), (25, 2, 9));
        assert_eq!(COUNTERS[HOP_ROWS_BUILT.0].name, "hop_rows_built_total");
        assert_eq!(COUNTERS[HOPS_FROM_ROWS.0].name, "hops_from_rows_total");
        assert_eq!(COUNTERS[ROUTE_ROWS_BUILT.0].name, "route_rows_built_total");
        assert_eq!(COUNTERS[ROUTES_FROM_ROWS.0].name, "routes_from_rows_total");
        assert_eq!(COUNTERS[ROUTE_SEARCHES.0].name, "route_searches_total");
        assert_eq!(COUNTERS[HIER_QUERIES.0].name, "hier_queries_total");
        assert_eq!(
            COUNTERS[IDEAL_HOPS_QUERIES.0].name,
            "ideal_hops_queries_total"
        );
        assert_eq!(
            COUNTERS[IDEAL_HOPS_SETTLED.0].name,
            "ideal_hops_settled_total"
        );
        assert_eq!(
            COUNTERS[LADDERS_MATERIALIZED.0].name,
            "ladders_materialized_total"
        );
        assert_eq!(
            COUNTERS[DETOURS_REJECTED_BY_LABELS.0].name,
            "detours_rejected_by_labels_total"
        );
        assert_eq!(COUNTERS[DETOUR_SEARCHES.0].name, "detour_searches_total");
        assert_eq!(COUNTERS[KEYS_DERIVED.0].name, "secure_keys_derived_total");
        assert_eq!(COUNTERS[HIER_EXPANSIONS.0].name, "hier_expansions_total");
        assert_eq!(COUNTERS[EXHAUSTED.0].name, "exhausted_total");
        assert_eq!(COUNTERS[UNROUTABLE.0].name, "unroutable_total");
        assert_eq!(COUNTERS[TRACE_DROPPED.0].name, "trace_dropped_total");
        assert_eq!(GAUGES[MAX_ATTEMPTS.0].name, "max_attempts_per_flow");
        assert_eq!(HISTOGRAMS[ATTEMPTS_PER_FLOW.0].name, "attempts_per_flow");
        for stage in RecoveryStage::ALL {
            let c = rung_delivery_counter(stage);
            assert!(COUNTERS[c.0].name.contains(stage.label()));
            let l = rung_latency_histogram(stage);
            assert!(HISTOGRAMS[l.0].name.contains(stage.label()));
            let o = rung_overhead_histogram(stage);
            assert!(HISTOGRAMS[o.0].name.contains(stage.label()));
        }
    }

    #[test]
    fn counters_and_gauges_record() {
        let mut m = MetricSet::new();
        m.inc(UNROUTABLE);
        m.add(BROADCASTS, 41);
        m.inc(BROADCASTS);
        m.gauge_max(MAX_ATTEMPTS, 3);
        m.gauge_max(MAX_ATTEMPTS, 2);
        assert_eq!(m.counter(UNROUTABLE), 1);
        assert_eq!(m.counter(BROADCASTS), 42);
        assert_eq!(m.gauge(MAX_ATTEMPTS), 3);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut m = MetricSet::new();
        for v in [1u64, 2, 2, 3, 4, 9] {
            m.observe(ATTEMPTS_PER_FLOW, v);
        }
        assert_eq!(m.histo_count(ATTEMPTS_PER_FLOW), 6);
        assert_eq!(m.histo_sum(ATTEMPTS_PER_FLOW), 21);
        assert_eq!(m.histo_max(ATTEMPTS_PER_FLOW), 9);
        // p50 falls in the `<= 2` bucket; p99 falls in overflow → max.
        assert_eq!(m.histo_quantile(ATTEMPTS_PER_FLOW, 0.5), Some(2));
        assert_eq!(m.histo_quantile(ATTEMPTS_PER_FLOW, 0.99), Some(9));
        assert_eq!(m.histo_quantile(LATENCY_FIRST, 0.5), None);
    }

    #[test]
    fn merge_is_commutative_on_disjoint_workers() {
        let mut a = MetricSet::new();
        a.inc(ATTEMPTS);
        a.observe(LATENCY_FIRST, 250);
        a.gauge_max(TRACE_HIGH_WATER, 7);
        let mut b = MetricSet::new();
        b.add(ATTEMPTS, 2);
        b.observe(LATENCY_FIRST, 5_000);
        b.gauge_max(TRACE_HIGH_WATER, 3);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.fingerprint(), ba.fingerprint());
        assert_eq!(ab.counter(ATTEMPTS), 3);
        assert_eq!(ab.gauge(TRACE_HIGH_WATER), 7);
        assert_eq!(ab.histo_count(LATENCY_FIRST), 2);
    }

    #[test]
    fn outcome_split_sums_the_rungs_and_the_failures() {
        let mut m = MetricSet::new();
        m.inc(RUNG_FIRST);
        m.add(RUNG_REPLAN, 2);
        m.inc(EXHAUSTED);
        m.add(UNROUTABLE, 3);
        m.add(ATTEMPTS, 9);
        assert_eq!(m.outcome_split(), (3, 4));
    }

    #[test]
    fn fingerprint_skips_schedule_dependent_counters() {
        let mut m = MetricSet::new();
        let before = m.fingerprint();
        for &id in SCHEDULE_DEPENDENT {
            assert!(COUNTERS[id.0].name.ends_with("_total"));
            m.add(id, 7);
        }
        assert_eq!(m.fingerprint(), before);
        assert_eq!(m.counter(IDEAL_HOPS_SETTLED), 7);
    }

    #[test]
    fn fingerprint_tracks_any_change() {
        let mut m = MetricSet::new();
        let empty = m.fingerprint();
        m.inc(RUNG_WIDEN);
        let one = m.fingerprint();
        assert_ne!(empty, one);
        m.observe(OVERHEAD_WIDEN, 12_345);
        assert_ne!(one, m.fingerprint());
    }
}
