//! The benchmark's definition as data: workload names, end-to-end
//! metrics with their regression bounds, per-layer metrics with the
//! end-to-end metric each is expected to move. `BENCHMARK.json` at the
//! repository root lists the same names (a test keeps the two equal);
//! later changes refer to metrics and workloads by these names.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// `"higher"` / `"lower"`, as `BENCHMARK.json` spells it.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named workload and the reason it exists.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// One line: which layers it stresses and which it bypasses.
    pub why: &'static str,
}

/// The five workloads.
pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "fleet-hot",
        why: "hotspot traffic on a warm route cache: every flow is a hit, so delivery simulation, \
              cache lookup and report merge do all the work and planning none",
    },
    WorkloadSpec {
        name: "secure-cold",
        why: "uniform pairs, encrypted, cold caches: every flow misses route and session cache, \
              so flat planning, X25519/HKDF derivation and seal/open dominate",
    },
    WorkloadSpec {
        name: "metro-hier",
        why:
            "5.6k-building tiled metro, hierarchical planner, cold cache: the only workload where \
              hierarchy search, long routes, world construction and memory matter",
    },
    WorkloadSpec {
        name: "stream-surge",
        why: "Poisson arrivals at 2x probed capacity: admission must shed half the flows before \
              any planning, exercising the server queues and the stream engine's own loop",
    },
    WorkloadSpec {
        name: "churn-ladder",
        why: "blackout world with 8 mid-run events: cache evictions and replans beside reads, \
              and the retry/widen/replan ladder a healthy world never climbs",
    },
];

/// One end-to-end metric: what a user of the system would see.
#[derive(Clone, Copy, Debug)]
pub struct EndToEndSpec {
    /// Metric name, the same on every workload.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    /// Whether the value is a pure function of (workload, seed) — a
    /// property of the modelled network — rather than a host time.
    pub simulated: bool,
}

/// The eight end-to-end metrics. Host-time metrics measure the
/// simulator; `sim_*` and `delivered_share` measure the modelled
/// network and must repeat bit for bit for one seed.
pub const END_TO_END: [EndToEndSpec; 8] = [
    EndToEndSpec {
        name: "flows_per_s",
        unit: "flows/s",
        better: Better::Higher,
        bound: 0.15,
        simulated: false,
    },
    EndToEndSpec {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        simulated: false,
    },
    EndToEndSpec {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
        simulated: false,
    },
    EndToEndSpec {
        name: "delivered_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.10,
        simulated: true,
    },
    EndToEndSpec {
        name: "sim_latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.18,
        simulated: true,
    },
    EndToEndSpec {
        name: "sim_latency_p99_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.12,
        simulated: true,
    },
    EndToEndSpec {
        name: "sim_broadcasts_mean",
        unit: "broadcasts",
        better: Better::Lower,
        bound: 0.14,
        simulated: true,
    },
    EndToEndSpec {
        name: "sim_header_bits_mean",
        unit: "bits",
        better: Better::Lower,
        bound: 0.10,
        simulated: true,
    },
];

/// One per-layer metric, with the prediction written down before any
/// measurement: which end-to-end metric it should move, on which
/// workload.
#[derive(Clone, Copy, Debug)]
pub struct LayerSpec {
    /// Metric name, `crate.module.quantity`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// The end-to-end metric this one should move.
    pub moves: &'static str,
    /// The workload(s) on which it should.
    pub on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static str,
) -> LayerSpec {
    LayerSpec {
        name,
        unit,
        better,
        moves,
        on,
    }
}

use Better::{Higher, Lower};

/// The per-layer metrics. Times are means over the spans of the
/// traced run; counts are exact and repeat per seed. A metric whose
/// layer a workload never calls reads 0 there.
pub const PER_LAYER: [LayerSpec; 47] = [
    layer("map.generate_ms", "ms", Lower, "setup_s", "metro-hier"),
    layer("core.prepare_ms", "ms", Lower, "setup_s", "metro-hier"),
    layer("graph.hier.build_ms", "ms", Lower, "setup_s", "metro-hier"),
    layer(
        "core.secure.registry_ms",
        "ms",
        Lower,
        "setup_s",
        "secure-cold",
    ),
    layer(
        "fleet.workload.generate_ms",
        "ms",
        Lower,
        "setup_s",
        "the four downtown workloads",
    ),
    layer(
        "dynamics.timeline.materialize_ms",
        "ms",
        Lower,
        "setup_s",
        "churn-ladder",
    ),
    layer(
        "stream.capacity_probe_ms",
        "ms",
        Lower,
        "setup_s",
        "stream-surge",
    ),
    layer(
        "fleet.cache.lookup_ns",
        "ns",
        Lower,
        "flows_per_s",
        "fleet-hot",
    ),
    layer(
        "fleet.cache.hit_share",
        "ratio",
        Higher,
        "flows_per_s (explains it)",
        "1.0 fleet-hot, ~0 secure-cold",
    ),
    layer(
        "fleet.cache.entries",
        "count",
        Lower,
        "peak_rss_mib",
        "fleet-hot, metro-hier",
    ),
    layer(
        "fleet.cache.evict_us",
        "us",
        Lower,
        "flows_per_s",
        "churn-ladder",
    ),
    layer(
        "fleet.cache.evicted",
        "count",
        Lower,
        "dynamics.routes_replanned",
        "churn-ladder",
    ),
    layer(
        "core.plan.flat_us",
        "us",
        Lower,
        "flows_per_s",
        "secure-cold, churn-ladder, stream-surge",
    ),
    layer(
        "core.plan.hier_us",
        "us",
        Lower,
        "flows_per_s",
        "metro-hier",
    ),
    layer(
        "core.plan.flat_metro_us",
        "us",
        Lower,
        "none (gives the hier/flat ratio)",
        "metro-hier",
    ),
    layer(
        "graph.hier.overlay_settled_mean",
        "count",
        Lower,
        "core.plan.hier_us",
        "metro-hier",
    ),
    layer(
        "graph.hier.expansions_mean",
        "count",
        Lower,
        "core.plan.hier_us",
        "metro-hier",
    ),
    layer(
        "core.plan.allocs_per_miss",
        "count",
        Lower,
        "flows_per_s",
        "secure-cold",
    ),
    layer(
        "core.sim.allocs_per_flow",
        "count",
        Lower,
        "flows_per_s",
        "fleet-hot (must read 0)",
    ),
    layer(
        "core.sim.flow_us",
        "us",
        Lower,
        "flows_per_s",
        "all; ~95 % of fleet-hot",
    ),
    layer(
        "core.sim.broadcast_ns",
        "ns",
        Lower,
        "flows_per_s",
        "fleet-hot vs metro-hier",
    ),
    layer(
        "core.sim.attempts_mean",
        "count",
        Lower,
        "sim_broadcasts_mean, sim_latency_p99_ms",
        "churn-ladder",
    ),
    layer(
        "core.sim.recovered_share",
        "ratio",
        Higher,
        "delivered_share",
        "churn-ladder",
    ),
    layer(
        "core.secure.session_miss_us",
        "us",
        Lower,
        "flows_per_s",
        "secure-cold",
    ),
    layer(
        "core.secure.session_hit_ns",
        "ns",
        Lower,
        "none here",
        "secure-cold",
    ),
    layer(
        "core.secure.seal_open_us",
        "us",
        Lower,
        "flows_per_s",
        "secure-cold",
    ),
    layer(
        "core.secure.keys_derived",
        "count",
        Lower,
        "flows_per_s (times session_miss_us)",
        "secure-cold",
    ),
    layer(
        "fleet.report.absorb_ns",
        "ns",
        Lower,
        "flows_per_s",
        "fleet-hot",
    ),
    layer(
        "fleet.engine.overhead_us",
        "us",
        Lower,
        "flows_per_s",
        "fleet-hot",
    ),
    layer(
        "fleet.engine.par2_speedup",
        "ratio",
        Higher,
        "none (never gated)",
        "fleet-hot",
    ),
    layer(
        "stream.queue.offer_ns",
        "ns",
        Lower,
        "flows_per_s",
        "stream-surge",
    ),
    layer(
        "stream.queue.commit_ns",
        "ns",
        Lower,
        "flows_per_s",
        "stream-surge",
    ),
    layer(
        "stream.queue.shed_share",
        "ratio",
        Lower,
        "delivered_share",
        "stream-surge",
    ),
    layer(
        "stream.queue.shed_deadline_share",
        "ratio",
        Lower,
        "sim_latency_p99_ms",
        "stream-surge",
    ),
    layer(
        "stream.queue.emergency_shed_share",
        "ratio",
        Lower,
        "delivered_share",
        "stream-surge",
    ),
    layer(
        "stream.queue.max_depth",
        "count",
        Lower,
        "sim_latency_p99_ms",
        "stream-surge",
    ),
    layer(
        "stream.degraded_retry_share",
        "ratio",
        Lower,
        "sim_broadcasts_mean",
        "stream-surge",
    ),
    layer(
        "stream.degraded_tracing_share",
        "ratio",
        Lower,
        "sim_broadcasts_mean",
        "stream-surge",
    ),
    layer(
        "stream.engine.overhead_us",
        "us",
        Lower,
        "flows_per_s",
        "stream-surge",
    ),
    layer(
        "dynamics.event_apply_us",
        "us",
        Lower,
        "flows_per_s",
        "churn-ladder",
    ),
    layer(
        "dynamics.routes_replanned",
        "count",
        Lower,
        "flows_per_s",
        "churn-ladder",
    ),
    layer(
        "dynamics.engine.overhead_us",
        "us",
        Lower,
        "flows_per_s",
        "churn-ladder",
    ),
    layer(
        "telemetry.metrics_overhead_ratio",
        "ratio",
        Lower,
        "the <= 1.02 telemetry contract",
        "fleet-hot",
    ),
    layer(
        "telemetry.trace_overhead_ratio",
        "ratio",
        Lower,
        "the <= 1.02 telemetry contract",
        "fleet-hot",
    ),
    layer(
        "bench.span_overhead_ratio",
        "ratio",
        Lower,
        "none (cost of the benchmark's own tracing)",
        "all",
    ),
    layer(
        "bench.cpu_busy_share",
        "ratio",
        Higher,
        "none (flags a descheduled run)",
        "all",
    ),
    layer(
        "bench.replay_flows_per_s",
        "flows/s",
        Higher,
        "none (base of the overhead figures)",
        "all",
    ),
];

/// Whether `name` is well-formed for `BENCHMARK.json`: starts with a
/// letter or digit, at most 64 of letters, digits, `_`, `.`, `-`.
pub fn well_formed_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Whether `unit` is well-formed: at most 16 of letters, digits, `_`,
/// `/`, `%`, `.`, `-`.
pub fn well_formed_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}
