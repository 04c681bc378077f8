//! Planner fast-path throughput figures (`figures -- planner`).
//!
//! Measures route-planning throughput (plans/sec) on the downtown
//! archetype in three modes over the identical pair set:
//!
//! * **baseline** — a faithful re-implementation of the pre-fast-path
//!   planner: full allocating Dijkstra per route, per-plan linear
//!   postbox scan, full BFS for the ideal hop count, fresh vectors
//!   everywhere. Measured live so the speedup is relative to *this*
//!   machine, not to a number recorded on different hardware.
//! * **cold** — the shipped allocating entry point
//!   ([`CityExperiment::plan_flow`]), which wraps the fast kernels in
//!   one-shot scratch buffers.
//! * **warm** — [`CityExperiment::plan_flow_into`] against per-worker
//!   reused scratch: the goal-directed A* + landmark heuristic,
//!   precomputed postbox tables, early-exit BFS, and zero steady-state
//!   allocations.
//!
//! Every `(mode, workers)` run folds each plan into an order-independent
//! FNV-1a digest; all digests must agree, which proves on every CI run
//! that the A* + spatial fast path returns plans bit-identical to the
//! Dijkstra/linear-scan baseline.

use std::collections::VecDeque;

use citymesh_core::{
    compress_route, postbox_ap, reconstruct_conduits, CityExperiment, PlanScratch, PlannedFlow,
};
use citymesh_map::CityArchetype;
use citymesh_net::CityMeshHeader;
use citymesh_simcore::{Fnv64, SimRng};

use crate::sweep::{assert_unanimous, prepare, timed_chunks, Scale, Sweep, SweepOpts, SEED};
use crate::text;

/// How a run plans each pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlannerMode {
    /// Pre-fast-path planner, re-implemented allocate-per-call.
    Baseline,
    /// Shipped allocating wrapper over the fast kernels.
    Cold,
    /// Fast kernels against reused per-worker scratch.
    Warm,
}

impl PlannerMode {
    /// Stable label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            PlannerMode::Baseline => "baseline",
            PlannerMode::Cold => "cold",
            PlannerMode::Warm => "warm",
        }
    }
}

/// One measured `(mode, workers)` point.
pub struct PlannerRun {
    /// Planning mode.
    pub mode: PlannerMode,
    /// Worker threads used.
    pub workers: usize,
    /// Pairs planned per wall-clock second.
    pub plans_per_sec: f64,
    /// Order-independent digest over every produced plan.
    pub digest: u64,
}

/// The full planner sweep.
pub struct PlannerFigures {
    /// City the pairs were drawn from.
    pub city: String,
    /// Building count of that city.
    pub buildings: usize,
    /// Pairs planned per run.
    pub pairs: usize,
    /// Every `(mode, workers)` run, in sweep order.
    pub runs: Vec<PlannerRun>,
}

/// Hashes the observable planning outputs of one pair. XOR-folding
/// these per-pair hashes is order-independent, so the sweep digest is
/// invariant under worker count and work sharding.
fn plan_digest(plan: &PlannedFlow) -> u64 {
    let mut h = Fnv64::new();
    h.mix_bytes(plan.src as u64);
    h.mix_bytes(plan.dst as u64);
    h.mix_bytes(plan.reachable as u64);
    h.mix_bytes(plan.route_len as u64);
    h.mix_bytes(plan.route_bits as u64);
    for &w in &plan.waypoints {
        h.mix_bytes(w as u64);
    }
    h.mix_bytes(plan.src_ap.map_or(u64::MAX, u64::from));
    h.mix_bytes(plan.ideal_hops.unwrap_or(u64::MAX));
    h.mix_bytes(plan.conduits.len() as u64);
    h.value()
}

/// The pre-fast-path planner: every step allocates and scans exactly
/// as `plan_flow` did before the scratch kernels, landmark heuristic,
/// postbox tables, and bucket index existed. Field-for-field it must
/// produce the same plan the fast path does — [`run_planner_figs`]
/// asserts that through the digests.
fn baseline_plan(exp: &CityExperiment, src: u32, dst: u32) -> PlannedFlow {
    let mut plan = PlannedFlow::empty(src, dst);
    let apg = exp.ap_graph();

    // Reachability by materialized AP lists + pairwise probes.
    let src_aps = apg.aps_of_building(src).to_vec();
    let dst_aps = apg.aps_of_building(dst).to_vec();
    plan.reachable = src_aps
        .iter()
        .any(|&a| dst_aps.iter().any(|&b| apg.reachable(a, b)));

    // Full allocating Dijkstra for the route.
    let bg = exp.building_graph();
    let route = if src == dst {
        Some(vec![src])
    } else {
        citymesh_reference::dijkstra_path(bg.graph(), src, dst)
    };
    let Some(route) = route else {
        return plan;
    };
    plan.route_len = route.len();

    let width = exp.config().conduit_width_m;
    let compressed = compress_route(bg, &route, width).expect("width validated; route non-empty");
    plan.waypoints = compressed.waypoints;
    let header = CityMeshHeader::new(0, width, plan.waypoints.clone());
    plan.route_bits = header.route_bits();

    // Per-plan linear scan for the postbox AP.
    plan.src_ap = postbox_ap(exp.aps(), exp.map(), src);

    // Full BFS over the AP graph for the ideal hop count.
    if let Some(src_ap) = plan.src_ap {
        let mut dist: Vec<u64> = vec![u64::MAX; apg.len()];
        let mut queue = VecDeque::new();
        dist[src_ap as usize] = 0;
        queue.push_back(src_ap);
        while let Some(u) = queue.pop_front() {
            for &v in apg.audience(u) {
                if dist[v as usize] == u64::MAX {
                    dist[v as usize] = dist[u as usize] + 1;
                    queue.push_back(v);
                }
            }
        }
        plan.ideal_hops = dst_aps
            .iter()
            .map(|&a| dist[a as usize])
            .filter(|&d| d != u64::MAX)
            .min();
    }

    plan.conduits = reconstruct_conduits(exp.map(), &header.waypoints, header.conduit_width_m());
    plan
}

/// Plans every pair in `chunk` and XOR-folds the per-pair digests.
fn plan_chunk(exp: &CityExperiment, chunk: &[(u32, u32)], mode: PlannerMode) -> u64 {
    let mut acc = 0u64;
    match mode {
        PlannerMode::Baseline => {
            for &(src, dst) in chunk {
                acc ^= plan_digest(&baseline_plan(exp, src, dst));
            }
        }
        PlannerMode::Cold => {
            for &(src, dst) in chunk {
                acc ^= plan_digest(&exp.plan_flow(src, dst));
            }
        }
        PlannerMode::Warm => {
            let mut scratch = PlanScratch::new();
            let mut plan = PlannedFlow::empty(0, 0);
            for &(src, dst) in chunk {
                exp.plan_flow_into(src, dst, &mut scratch, &mut plan);
                acc ^= plan_digest(&plan);
            }
        }
    }
    acc
}

/// One timed `(mode, workers)` run over `pairs`.
fn run_mode(
    exp: &CityExperiment,
    pairs: &[(u32, u32)],
    mode: PlannerMode,
    workers: usize,
) -> PlannerRun {
    let (digests, secs) = timed_chunks(pairs, workers, |_, chunk| plan_chunk(exp, chunk, mode));
    PlannerRun {
        mode,
        workers,
        plans_per_sec: pairs.len() as f64 / secs,
        digest: digests.iter().fold(0, |acc, d| acc ^ d),
    }
}

/// Runs the planner sweep: for each mode, one run per worker count,
/// over one shared deterministic pair set.
///
/// # Panics
/// Panics if any two runs disagree on the digest — the fast path would
/// then not be bit-identical to the baseline planner (or a worker
/// count would be perturbing plans), and a benchmark must not report
/// throughput for results that are wrong.
pub fn run_planner_figs(seed: u64, n_pairs: usize, worker_counts: &[usize]) -> PlannerFigures {
    let map = CityArchetype::SurveyDowntown.generate(seed);
    let city = map.name().to_string();
    let buildings = map.len();
    let exp = prepare(map, seed, None);
    let mut rng = SimRng::new(seed ^ 0x504C_414E);
    let pairs: Vec<(u32, u32)> = (0..n_pairs)
        .map(|_| {
            (
                rng.below(buildings as u64) as u32,
                rng.below(buildings as u64) as u32,
            )
        })
        .collect();

    // Unmeasured warm-up: settle the allocator and fault in every
    // lazily-touched table before the first timed run.
    plan_chunk(&exp, &pairs[..pairs.len().min(500)], PlannerMode::Warm);

    let mut runs = Vec::new();
    for mode in [PlannerMode::Baseline, PlannerMode::Cold, PlannerMode::Warm] {
        for &workers in worker_counts {
            runs.push(run_mode(&exp, &pairs, mode, workers));
        }
    }
    let digests: Vec<u64> = runs.iter().map(|r| r.digest).collect();
    assert_unanimous("planner modes and workers", &digests);
    PlannerFigures {
        city,
        buildings,
        pairs: n_pairs,
        runs,
    }
}

impl PlannerFigures {
    /// plans/sec of `mode` at the first swept worker count.
    fn rate(&self, mode: PlannerMode) -> f64 {
        let run = self.runs.iter().find(|r| r.mode == mode);
        run.map_or(0.0, |r| r.plans_per_sec)
    }

    /// Warm fast path over the live pre-fast-path baseline.
    fn warm_speedup(&self) -> f64 {
        self.rate(PlannerMode::Warm) / self.rate(PlannerMode::Baseline).max(1e-9)
    }
}

impl Sweep for PlannerFigures {
    const NAME: &'static str = "planner";
    const SCALES: &'static [Scale] = &[Scale::Full, Scale::Fast];
    const PINNED: Scale = Scale::Full;

    fn run(opts: &SweepOpts) -> Self {
        let pairs = opts.flows_or(4_000, 1_500, 1_500);
        run_planner_figs(SEED, pairs, &opts.worker_counts())
    }

    fn print(&self) {
        println!(
            "== planner: fast-path throughput ({}, {} buildings, {} pairs) ==",
            self.city, self.buildings, self.pairs
        );
        println!(
            "{}",
            text::columns(
                &self.runs,
                &[
                    ("mode", &|r| r.mode.label().to_string()),
                    ("workers", &|r| r.workers.to_string()),
                    ("plans/s", &|r| format!("{:.0}", r.plans_per_sec)),
                    ("digest", &|r| format!("{:016x}", r.digest)),
                ]
            )
        );
        println!(
            "all modes and worker counts agree on every digest: fast path == baseline, bit for bit"
        );
        println!(
            "warm fast path: {:.1}x the pre-fast-path baseline at {} worker(s)\n",
            self.warm_speedup(),
            self.runs[0].workers
        );
    }

    /// The one digest every `(mode, workers)` run folds to: route
    /// selection, compression, header sizing, postbox choice and ideal
    /// hop counts over the pair set.
    fn pins(&self) -> Vec<(&'static str, u64)> {
        vec![("plan digest", self.runs[0].digest)]
    }

    fn throughput_gate(&self) {
        let speedup = self.warm_speedup();
        assert!(
            speedup >= 3.0,
            "warm fast path must be >= 3x the live baseline, got {speedup:.2}x"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_agrees_across_modes() {
        let figs = run_planner_figs(7, 64, &[1, 2]);
        assert_eq!(figs.runs.len(), 6, "3 modes × 2 worker counts");
        let first = figs.runs[0].digest;
        assert!(
            figs.runs.iter().all(|r| r.digest == first),
            "run_planner_figs must have asserted digest agreement"
        );
        assert_eq!(figs.pins(), [("plan digest", first)]);
        assert!(
            figs.warm_speedup() > 0.0,
            "both ends of the ratio were timed"
        );
    }
}
