//! What a deployment is optimized *for*: the metric, the seeded
//! workload it is measured on, and the deterministic [`Score`] an
//! evaluation produces.

use citymesh_core::Deployment;
use citymesh_fleet::{FleetReport, FlowModel};
use citymesh_simcore::Fnv64;

/// The quantity a placement search optimizes. Both are folded into a
/// scalar [`Score::value`] where **higher is better**, so the
/// optimizers are metric-agnostic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// Maximize the fraction of flows delivered (mean across scenario
    /// worlds).
    DeliveryRate,
    /// Minimize the 99th-percentile first-delivery latency of
    /// delivered flows (mean across scenario worlds; the value is the
    /// negated latency in seconds so higher stays better).
    P99LatencyMs,
}

impl Metric {
    /// Stable label for tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Metric::DeliveryRate => "delivery-rate",
            Metric::P99LatencyMs => "p99-latency-ms",
        }
    }
}

/// The seeded evaluation a [`crate::Evaluator`] runs per candidate:
/// metric, workload shape, and the worker knob (a speed knob only —
/// fleet reports are worker-count invariant, so scores and digests
/// are too).
#[derive(Clone, Debug)]
pub struct Objective {
    /// What to optimize.
    pub metric: Metric,
    /// Flows per evaluation (per scenario world).
    pub flows: usize,
    /// Workload shape the flows are drawn from.
    pub model: FlowModel,
    /// Seed for workload generation and the fleet's simulation
    /// sub-streams.
    pub seed: u64,
    /// Fleet worker threads per evaluation (`0` = one per CPU).
    pub workers: usize,
}

impl Default for Objective {
    fn default() -> Self {
        Objective {
            metric: Metric::DeliveryRate,
            flows: 400,
            model: FlowModel::UniformPairs { rate_hz: 200.0 },
            seed: 0,
            workers: 1,
        }
    }
}

/// One scenario world's contribution to a [`Score`].
#[derive(Clone, Debug, PartialEq)]
pub struct WorldScore {
    /// The scenario's label (e.g. `healthy`, `blackout`).
    pub label: String,
    /// Delivered / total flows in this world.
    pub delivery_rate: f64,
    /// 99th-percentile first-delivery latency among delivered flows,
    /// ms (0 when nothing was delivered).
    pub p99_latency_ms: f64,
    /// Flows delivered.
    pub delivered: u64,
    /// Flows evaluated.
    pub flows: u64,
    /// The underlying [`FleetReport::digest`] — worker-count
    /// invariant, the determinism anchor of the whole search.
    pub fleet_digest: u64,
}

/// A deployment's evaluated quality: the scalar the optimizers
/// compare, the per-world breakdown, and a deterministic FNV digest
/// chaining the deployment identity with every world's fleet digest.
#[derive(Clone, Debug, PartialEq)]
pub struct Score {
    /// Scalar objective value, higher is better (see [`Metric`]).
    pub value: f64,
    /// Mean delivery rate across scenario worlds.
    pub delivery_rate: f64,
    /// Mean p99 first-delivery latency across scenario worlds, ms.
    pub p99_latency_ms: f64,
    /// Per-world breakdown, in scenario order.
    pub worlds: Vec<WorldScore>,
    /// FNV-1a over the metric, the deployment digest, and each world's
    /// fleet digest. Equal digests ⇒ bit-identical evaluations.
    pub digest: u64,
}

impl Score {
    /// Folds per-world reports into a score for `deployment`.
    pub(crate) fn from_worlds(
        metric: Metric,
        deployment: &Deployment,
        worlds: Vec<WorldScore>,
    ) -> Score {
        let n = worlds.len().max(1) as f64;
        let delivery_rate = worlds.iter().map(|w| w.delivery_rate).sum::<f64>() / n;
        let p99_latency_ms = worlds.iter().map(|w| w.p99_latency_ms).sum::<f64>() / n;
        let value = match metric {
            Metric::DeliveryRate => delivery_rate,
            // Negated seconds: higher is better, and deltas land on a
            // scale an annealer temperature of ~1e-2 can reason about.
            Metric::P99LatencyMs => -p99_latency_ms / 1e3,
        };
        let mut h = Fnv64::new();
        h.mix(metric as u64);
        h.mix(deployment.digest());
        h.mix(worlds.len() as u64);
        for w in &worlds {
            h.mix(w.fleet_digest);
        }
        Score {
            value,
            delivery_rate,
            p99_latency_ms,
            worlds,
            digest: h.value(),
        }
    }
}

/// Extracts one world's score row from a fleet report.
pub(crate) fn world_score(label: &str, report: &FleetReport) -> WorldScore {
    WorldScore {
        label: label.to_string(),
        delivery_rate: report.delivery_rate(),
        p99_latency_ms: report.latency_ms().quantile(0.99).unwrap_or(0.0),
        delivered: report.delivered,
        flows: report.flows,
        fleet_digest: report.digest(),
    }
}
