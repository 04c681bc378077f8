//! The static metric registry and the per-worker [`MetricSet`].
//!
//! Metrics are declared once, at compile time, as `const` definition
//! tables; a [`MetricSet`] is just two flat arrays indexed by the typed
//! ids those tables hand out. Recording is an array index plus an
//! integer add — no locking, no hashing, no allocation — so a set can
//! live inside each fleet worker's hot loop.
//!
//! Every value is an integer (`u64`). Integer addition commutes, so
//! merging per-worker sets yields bit-identical aggregates no matter
//! which worker claimed which flow chunk — the same
//! schedule-independence argument the fleet digest relies on.
//!
//! The registry counts work, not outcomes: how many flows ran,
//! delivered, retried, were shed or sealed, and which rung delivered
//! them how fast and at what overhead, is the engine's report
//! (`FleetReport`, `StreamReport`, `ChurnReport`), merged and digested.
//! What the registry holds is what no report carries: the attempts and
//! broadcasts the flows cost, the trace totals, the detour counters
//! and the [`SCHEDULE_DEPENDENT`] work counters.

/// Definition of one monotonically increasing counter.
#[derive(Clone, Copy, Debug)]
pub struct CounterDef {
    /// Stable snake_case metric name.
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

/// Typed handle into [`COUNTERS`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(pub(crate) usize);

/// Typed handle into [`GAUGES`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(pub(crate) usize);

/// Send attempts simulated, all flows.
pub const ATTEMPTS: CounterId = CounterId(0);
/// AP broadcasts, all flows and attempts.
pub const BROADCASTS: CounterId = CounterId(1);
/// Postmortem traces captured.
pub const POSTMORTEMS: CounterId = CounterId(2);
/// Trace events evicted from full rings, over the captured flows.
pub const TRACE_DROPPED: CounterId = CounterId(3);
/// Hierarchical planner queries answered (one per cache-miss plan when
/// the hierarchical fast path is enabled).
///
/// Like the route-cache hit/miss counts, hier planner counters are
/// *schedule-dependent*: racing workers may double-plan a pair, so the
/// totals vary with worker count. They are excluded from digests.
pub const HIER_QUERIES: CounterId = CounterId(4);
/// Hier queries answered entirely inside one district (no overlay
/// search). Schedule-dependent; excluded from digests.
pub const HIER_DIRECT_ROUTES: CounterId = CounterId(5);
/// Border nodes settled by overlay Dijkstra across all hier queries.
/// Schedule-dependent; excluded from digests.
pub const HIER_OVERLAY_SETTLED: CounterId = CounterId(6);
/// Vertex expansions performed by hier intra-district searches.
/// Schedule-dependent; excluded from digests.
pub const HIER_EXPANSIONS: CounterId = CounterId(7);
/// Per-pair session keys derived on cache misses (X25519 + HKDF — the
/// amortized cost).
///
/// Like the route-cache and hier counters this is *schedule-dependent*:
/// racing workers may both miss and double-derive a pair, so the total
/// varies with worker count. Excluded from digests.
pub const KEYS_DERIVED: CounterId = CounterId(8);
/// Ideal-hops queries over the AP graph (one per planned flow with a
/// route and a live source AP — the §4 overhead denominator), whether
/// a search or a destination's hop row answered.
/// Schedule-dependent like the hier counters: racing workers may
/// double-plan a pair. Excluded from digests.
pub const IDEAL_HOPS_QUERIES: CounterId = CounterId(9);
/// APs settled by the queries that searched (a row read settles none).
/// Schedule-dependent; excluded from digests.
pub const IDEAL_HOPS_SETTLED: CounterId = CounterId(10);
/// Detours (the replan rung's and local repair's splices) refused
/// before any search because the surviving-component labels show no
/// route around the dark buildings. Every flow computes its own, so
/// the total is per flow and schedule-independent.
pub const DETOURS_REJECTED_BY_LABELS: CounterId = CounterId(11);
/// Detour searches run (each finds a route: the labels refuse the
/// rest). Per flow, like [`DETOURS_REJECTED_BY_LABELS`].
pub const DETOUR_SEARCHES: CounterId = CounterId(12);
/// Per-source shortest-path rows the flat planner built (one full
/// Dijkstra tree each, on a source's sixteenth request).
/// Schedule-dependent: which worker's request is the sixteenth, and
/// whether an earlier run already built the row, vary. Excluded from
/// digests.
pub const ROUTE_ROWS_BUILT: CounterId = CounterId(13);
/// Flat plans whose route was walked out of the source's row.
/// Schedule-dependent; excluded from digests.
pub const ROUTES_FROM_ROWS: CounterId = CounterId(14);
/// Flat plans whose route came from the A* search (no row yet, a
/// tie-flagged source, or a map too large to table).
/// Schedule-dependent; excluded from digests.
pub const ROUTE_SEARCHES: CounterId = CounterId(15);
/// Per-destination-building hop rows the AP graph built (one flood
/// each, on a destination's sixteenth ideal-hops query).
/// Schedule-dependent like [`ROUTE_ROWS_BUILT`]; excluded from digests.
pub const HOP_ROWS_BUILT: CounterId = CounterId(16);
/// Ideal-hops queries read out of the destination's hop row; the rest
/// of [`IDEAL_HOPS_QUERIES`] searched. Schedule-dependent; excluded
/// from digests.
pub const HOPS_FROM_ROWS: CounterId = CounterId(17);

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
        name: "detours_rejected_by_labels_total",
        help: "Detours refused by the surviving-component labels",
    },
    CounterDef {
        name: "detour_searches_total",
        help: "Detour searches run",
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

/// One worker's (or one merged run's) metric values, indexed by the
/// registry ids. Built once per worker; recording never allocates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricSet {
    counters: Vec<u64>,
    gauges: Vec<u64>,
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

    /// Current value of a counter.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id.0]
    }

    /// Current value of a gauge.
    pub fn gauge(&self, id: GaugeId) -> u64 {
        self.gauges[id.0]
    }

    /// Folds another set into this one: counters add, gauges take the
    /// max. Both commute, so merging the per-worker sets is
    /// deterministic regardless of which worker executed which flows.
    pub fn merge(&mut self, other: &MetricSet) {
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        for (a, b) in self.gauges.iter_mut().zip(&other.gauges) {
            *a = (*a).max(*b);
        }
    }

    /// FNV-1a digest over every schedule-independent counter (all but
    /// [`SCHEDULE_DEPENDENT`]) and gauge — the
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
        h
    }

    pub(crate) fn counters(&self) -> &[u64] {
        &self.counters
    }

    pub(crate) fn gauges(&self) -> &[u64] {
        &self.gauges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_line_up() {
        let ids = [
            (ATTEMPTS, "attempts_total"),
            (BROADCASTS, "broadcasts_total"),
            (POSTMORTEMS, "postmortems_total"),
            (TRACE_DROPPED, "trace_dropped_total"),
            (HIER_QUERIES, "hier_queries_total"),
            (HIER_DIRECT_ROUTES, "hier_direct_routes_total"),
            (HIER_OVERLAY_SETTLED, "hier_overlay_settled_total"),
            (HIER_EXPANSIONS, "hier_expansions_total"),
            (KEYS_DERIVED, "secure_keys_derived_total"),
            (IDEAL_HOPS_QUERIES, "ideal_hops_queries_total"),
            (IDEAL_HOPS_SETTLED, "ideal_hops_settled_total"),
            (
                DETOURS_REJECTED_BY_LABELS,
                "detours_rejected_by_labels_total",
            ),
            (DETOUR_SEARCHES, "detour_searches_total"),
            (ROUTE_ROWS_BUILT, "route_rows_built_total"),
            (ROUTES_FROM_ROWS, "routes_from_rows_total"),
            (ROUTE_SEARCHES, "route_searches_total"),
            (HOP_ROWS_BUILT, "hop_rows_built_total"),
            (HOPS_FROM_ROWS, "hops_from_rows_total"),
        ];
        assert_eq!((COUNTERS.len(), GAUGES.len()), (ids.len(), 2));
        for (i, (id, name)) in ids.into_iter().enumerate() {
            assert_eq!((id.0, COUNTERS[id.0].name), (i, name));
        }
        assert_eq!(GAUGES[TRACE_HIGH_WATER.0].name, "trace_ring_high_water");
        assert_eq!(GAUGES[MAX_ATTEMPTS.0].name, "max_attempts_per_flow");
    }

    #[test]
    fn counters_and_gauges_record() {
        let mut m = MetricSet::new();
        m.inc(POSTMORTEMS);
        m.add(BROADCASTS, 41);
        m.inc(BROADCASTS);
        m.gauge_max(MAX_ATTEMPTS, 3);
        m.gauge_max(MAX_ATTEMPTS, 2);
        assert_eq!(m.counter(POSTMORTEMS), 1);
        assert_eq!(m.counter(BROADCASTS), 42);
        assert_eq!(m.gauge(MAX_ATTEMPTS), 3);
    }

    #[test]
    fn merge_is_commutative_on_disjoint_workers() {
        let mut a = MetricSet::new();
        a.inc(ATTEMPTS);
        a.gauge_max(TRACE_HIGH_WATER, 7);
        let mut b = MetricSet::new();
        b.add(ATTEMPTS, 2);
        b.gauge_max(TRACE_HIGH_WATER, 3);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.fingerprint(), ba.fingerprint());
        assert_eq!(ab.counter(ATTEMPTS), 3);
        assert_eq!(ab.gauge(TRACE_HIGH_WATER), 7);
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
        m.inc(TRACE_DROPPED);
        let one = m.fingerprint();
        assert_ne!(empty, one);
        m.gauge_max(MAX_ATTEMPTS, 4);
        assert_ne!(one, m.fingerprint());
    }
}
