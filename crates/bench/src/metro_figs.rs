//! Metro-scale hierarchical routing figures (`figures -- metro`).
//!
//! Tiles the eight full-city archetypes into metropolises of growing
//! size ([`citymesh_map::generate_metro`]), builds the flat building
//! graph and the district-overlay hierarchy over each, then measures
//! raw routing-kernel throughput — flat ALT/A* ([`plan_route_into`])
//! vs the hierarchical planner ([`HierPlanner::plan_route_into`]) —
//! over the same deterministic pair sample at several worker counts.
//!
//! One invariant is asserted, not just reported: per size, every
//! `(mode, workers)` run folds to the same route digest and finds the
//! same number of routable pairs — routing is pure, so scheduling must
//! be invisible, and the hierarchy is exact, so the planner must be too
//! (pathwise exactness on random cities is the `hier_props` proptests).
//!
//! Plans/sec and bytes/AP vs city size are drawn as SVG charts via
//! [`throughput_svg`] / [`memory_svg`].

use std::time::Instant;

use citymesh_core::{
    place_aps, plan_route_into, BuildingGraph, BuildingGraphParams, HierParams, HierPlanScratch,
    HierPlanner,
};
use citymesh_graph::PlannerScratch;
use citymesh_map::{generate_metro, MetroParams};
use citymesh_simcore::{substream_seed, Fnv64, SimRng};

use crate::render::{LineChart, Series};
use crate::sweep::{assert_unanimous, timed_chunks, write_figure, Scale, Sweep, SweepOpts, SEED};
use crate::text;

/// Sub-stream domain for metro benchmark pair sampling.
const DOMAIN_METRO_PAIRS: u64 = 0x4D50;

/// Which routing kernel a [`MetroRun`] measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetroMode {
    /// The flat ALT/A* planner over the whole building graph.
    Flat,
    /// The district-overlay hierarchical planner.
    Hier,
}

impl MetroMode {
    /// Stable lowercase label for tables.
    pub fn label(self) -> &'static str {
        match self {
            MetroMode::Flat => "flat",
            MetroMode::Hier => "hier",
        }
    }
}

/// One measured `(mode, workers)` routing sweep at one city size.
pub struct MetroRun {
    /// Which kernel ran.
    pub mode: MetroMode,
    /// Worker threads used.
    pub workers: usize,
    /// Planned pairs per wall-clock second.
    pub plans_per_sec: f64,
    /// Pairs for which a route exists.
    pub routes_found: usize,
    /// Order-independent FNV fold of every planned route; equal
    /// across worker counts by construction of the kernel.
    pub digest: u64,
}

/// Everything measured at one metro size.
pub struct MetroSize {
    /// Tile grid (x, y) handed to [`MetroParams::with_tiles`].
    pub tiles: (usize, usize),
    /// Buildings in the generated metropolis.
    pub buildings: usize,
    /// APs a default-density placement puts on it.
    pub aps: usize,
    /// Districts the partition produced.
    pub districts: usize,
    /// Border nodes in the overlay graph.
    pub border_nodes: usize,
    /// Map synthesis time, ms.
    pub gen_ms: f64,
    /// Building-graph (CSR + landmarks) build time, ms.
    pub graph_ms: f64,
    /// Hierarchy (partition + overlay) build time, ms.
    pub hier_build_ms: f64,
    /// Resident bytes of the flat routing state (CSR graph +
    /// centroids + landmark tables).
    pub graph_bytes: usize,
    /// Additional resident bytes of the hierarchy.
    pub hier_bytes: usize,
    /// Every `(mode, workers)` run, in sweep order.
    pub runs: Vec<MetroRun>,
}

impl MetroSize {
    /// Flat routing state per AP, bytes.
    pub fn flat_bytes_per_ap(&self) -> f64 {
        self.graph_bytes as f64 / self.aps.max(1) as f64
    }

    /// Flat + hierarchy routing state per AP, bytes.
    pub fn hier_bytes_per_ap(&self) -> f64 {
        (self.graph_bytes + self.hier_bytes) as f64 / self.aps.max(1) as f64
    }

    /// plans/sec of `mode` at the first swept worker count.
    pub fn rate(&self, mode: MetroMode) -> f64 {
        self.runs
            .iter()
            .find(|r| r.mode == mode)
            .map(|r| r.plans_per_sec)
            .unwrap_or(0.0)
    }
}

/// All size points of one metro sweep.
pub struct MetroFigures {
    /// Size points in sweep order (ascending building count).
    pub sizes: Vec<MetroSize>,
    /// Whether [`Sweep::throughput_gate`] holds hier ≥ flat at every
    /// size (the `Full` and `Fast` ladders) or at the largest only
    /// (`Smoke`, whose 48 plans at one tile are too few to time).
    pub gate_every_size: bool,
}

/// FNV-1a over one pair's outcome, keyed by the pair index so the
/// XOR fold cannot cancel identical routes from different pairs.
fn pair_fingerprint(index: u64, route: &[u32]) -> u64 {
    let mut h = Fnv64::new();
    h.mix_bytes(index);
    h.mix_bytes(route.len() as u64);
    for &v in route {
        h.mix_bytes(u64::from(v));
    }
    h.value()
}

/// Draws `pairs` deterministic src/dst samples over `n` buildings.
fn sample_pairs(seed: u64, ordinal: u64, n: usize, pairs: usize) -> Vec<(u32, u32)> {
    let mut rng = SimRng::new(substream_seed(seed, DOMAIN_METRO_PAIRS, ordinal));
    let mut out = Vec::with_capacity(pairs);
    while out.len() < pairs {
        let src = rng.below(n as u64) as u32;
        let dst = rng.below(n as u64) as u32;
        if src != dst {
            out.push((src, dst));
        }
    }
    out
}

/// Plans every pair once with the given kernel across `workers`
/// threads and returns `(plans_per_sec, routes_found, digest)`. The
/// digest XOR-folds per-pair fingerprints, so it cannot depend on
/// which worker planned which pair.
fn run_mode(
    bg: &BuildingGraph,
    hier: Option<&HierPlanner>,
    pairs: &[(u32, u32)],
    workers: usize,
) -> (f64, usize, u64) {
    let (parts, secs) = timed_chunks(pairs, workers, |base, slice| {
        let mut flat_scratch = PlannerScratch::new();
        let mut hier_scratch = HierPlanScratch::new();
        let mut route: Vec<u32> = Vec::new();
        let mut found = 0usize;
        let mut digest = 0u64;
        for (i, &(src, dst)) in slice.iter().enumerate() {
            let ok = match hier {
                Some(h) => h
                    .plan_route_into(bg, src, dst, &mut hier_scratch, &mut route)
                    .is_ok(),
                None => plan_route_into(bg, src, dst, &mut flat_scratch, &mut route).is_ok(),
            };
            if !ok {
                route.clear();
            }
            found += usize::from(ok);
            digest ^= pair_fingerprint((base + i) as u64, &route);
        }
        (found, digest)
    });
    let found = parts.iter().map(|p| p.0).sum();
    let digest = parts.iter().fold(0, |acc, p| acc ^ p.1);
    (pairs.len() as f64 / secs, found, digest)
}

/// Runs the sweep: for each `(tiles_x, tiles_y, pairs)` spec, builds
/// the metro world once and measures both kernels at every worker
/// count.
///
/// # Panics
/// Panics when any two `(mode, workers)` runs at the same size disagree
/// on the route digest or on how many of the sampled pairs are routable.
pub fn run_metro_figs(
    seed: u64,
    specs: &[(usize, usize, usize)],
    worker_counts: &[usize],
) -> MetroFigures {
    let mut sizes = Vec::new();
    for (ordinal, &(tx, ty, pairs)) in specs.iter().enumerate() {
        let params = MetroParams::with_tiles(tx, ty);
        let t = Instant::now();
        let map = generate_metro(&params, seed);
        let gen_ms = t.elapsed().as_secs_f64() * 1e3;
        let buildings = map.len();

        let t = Instant::now();
        let bg = BuildingGraph::build(&map, BuildingGraphParams::default());
        let graph_ms = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        let planner = HierPlanner::build(&bg, &HierParams::default());
        let hier_build_ms = t.elapsed().as_secs_f64() * 1e3;

        // AP count from placement alone: the full AP mesh graph is
        // deliberately NOT built here (at metro scale its adjacency
        // dwarfs the routing state this sweep is sizing).
        let mut rng = SimRng::new(substream_seed(
            seed,
            DOMAIN_METRO_PAIRS,
            0x1000 + ordinal as u64,
        ));
        let aps = place_aps(&map, 200.0, &mut rng).len();

        let pair_sample = sample_pairs(seed, ordinal as u64, buildings, pairs);
        // Unmeasured warm pass: settles allocator state (and the
        // scratch slabs of this thread) before any timed run, same
        // rationale as the fleet sweep's warm-up.
        let warm = &pair_sample[..pair_sample.len().min(16)];
        run_mode(&bg, None, warm, 1);
        run_mode(&bg, Some(&planner), warm, 1);

        let mut runs = Vec::new();
        for mode in [MetroMode::Flat, MetroMode::Hier] {
            let hier = (mode == MetroMode::Hier).then_some(&planner);
            for &w in worker_counts {
                let (rate, found, digest) = run_mode(&bg, hier, &pair_sample, w);
                runs.push(MetroRun {
                    mode,
                    workers: w,
                    plans_per_sec: rate,
                    routes_found: found,
                    digest,
                });
            }
        }
        let digests: Vec<u64> = runs.iter().map(|r| r.digest).collect();
        assert_unanimous(
            format_args!("{tx}x{ty} across flat/hier and workers"),
            &digests,
        );
        assert!(
            runs.windows(2)
                .all(|r| r[0].routes_found == r[1].routes_found),
            "{tx}x{ty}: routable counts differ across flat/hier or workers"
        );

        sizes.push(MetroSize {
            tiles: (tx, ty),
            buildings,
            aps,
            districts: planner.hierarchy().partition().num_districts(),
            border_nodes: planner.hierarchy().num_border_nodes(),
            gen_ms,
            graph_ms,
            hier_build_ms,
            graph_bytes: bg.memory_bytes(),
            hier_bytes: planner.memory_bytes(),
            runs,
        });
    }
    MetroFigures {
        sizes,
        gate_every_size: false,
    }
}

/// One flat-vs-hier chart over city size (log x).
fn chart_svg(
    title: &str,
    y_label: &str,
    figs: &MetroFigures,
    flat_y: fn(&MetroSize) -> f64,
    hier_y: fn(&MetroSize) -> f64,
) -> String {
    let xs: Vec<f64> = figs
        .sizes
        .iter()
        .map(|s| (s.buildings.max(1) as f64).log10())
        .collect();
    let x_ticks: Vec<String> = figs
        .sizes
        .iter()
        .map(|s| format!("{}k", s.buildings / 1000))
        .collect();
    let flat: Vec<f64> = figs.sizes.iter().map(flat_y).collect();
    let hier: Vec<f64> = figs.sizes.iter().map(hier_y).collect();
    let y1 = flat.iter().chain(&hier).copied().fold(1.0, f64::max);
    LineChart {
        title,
        x_label: "buildings (log scale)",
        y_label: Some(y_label),
        xs: &xs,
        x_ticks: &x_ticks,
        y_ticks: &[(y1, format!("{y1:.0}"))],
        series: &[
            Series {
                label: "flat",
                color: "#d62728",
                dash: None,
                ys: flat,
            },
            Series {
                label: "hier",
                color: "#1f77b4",
                dash: None,
                ys: hier,
            },
        ],
        marker: None,
    }
    .render()
}

/// Plans/sec vs city size, flat vs hier (single-worker rates).
pub fn throughput_svg(figs: &MetroFigures) -> String {
    chart_svg(
        "metro routing throughput",
        "plans / sec",
        figs,
        |s| s.rate(MetroMode::Flat),
        |s| s.rate(MetroMode::Hier),
    )
}

/// Routing-state bytes per AP vs city size, flat vs flat+hier.
pub fn memory_svg(figs: &MetroFigures) -> String {
    chart_svg(
        "routing state per AP",
        "bytes / AP",
        figs,
        MetroSize::flat_bytes_per_ap,
        MetroSize::hier_bytes_per_ap,
    )
}

impl MetroSize {
    /// Hier over flat plans/sec at the first worker count.
    fn hier_speedup(&self) -> f64 {
        self.rate(MetroMode::Hier) / self.rate(MetroMode::Flat).max(1e-9)
    }
}

impl Sweep for MetroFigures {
    const NAME: &'static str = "metro";
    const SCALES: &'static [Scale] = &[Scale::Full, Scale::Fast, Scale::Smoke];
    const PINNED: Scale = Scale::Smoke;

    fn run(opts: &SweepOpts) -> Self {
        // (tiles_x, tiles_y, sampled pairs). Pair counts shrink as the
        // flat planner's per-query cost grows with city size.
        let specs: &[(usize, usize, usize)] = match opts.scale {
            Scale::Full => &[(2, 2, 256), (4, 4, 128), (7, 7, 96), (10, 10, 64)],
            Scale::Fast => &[(2, 2, 128), (4, 4, 64)],
            Scale::Smoke => &[(1, 1, 48), (4, 4, 24)],
        };
        MetroFigures {
            gate_every_size: opts.scale != Scale::Smoke,
            ..run_metro_figs(SEED, specs, &opts.worker_counts())
        }
    }

    fn print(&self) {
        println!("== metro: flat vs district-overlay hierarchical routing ==");
        let tiles = |s: &MetroSize| format!("{}x{}", s.tiles.0, s.tiles.1);
        let runs: Vec<(&MetroSize, &MetroRun)> = self
            .sizes
            .iter()
            .flat_map(|s| s.runs.iter().map(move |r| (s, r)))
            .collect();
        println!(
            "{}",
            text::columns(
                &runs,
                &[
                    ("tiles", &|(s, _)| tiles(s)),
                    ("buildings", &|(s, _)| s.buildings.to_string()),
                    ("districts", &|(s, _)| s.districts.to_string()),
                    ("mode", &|(_, r)| r.mode.label().to_string()),
                    ("workers", &|(_, r)| r.workers.to_string()),
                    ("plans/s", &|(_, r)| format!("{:.0}", r.plans_per_sec)),
                    ("digest", &|(_, r)| format!("{:016x}", r.digest)),
                ]
            )
        );
        println!(
            "{}",
            text::columns(
                &self.sizes,
                &[
                    ("tiles", &tiles),
                    ("buildings", &|s| s.buildings.to_string()),
                    ("APs", &|s| s.aps.to_string()),
                    ("flat B/AP", &|s| format!("{:.1}", s.flat_bytes_per_ap())),
                    ("hier B/AP", &|s| format!("{:.1}", s.hier_bytes_per_ap())),
                    ("gen ms", &|s| format!("{:.0}", s.gen_ms)),
                    ("graph ms", &|s| format!("{:.0}", s.graph_ms)),
                    ("hier ms", &|s| format!("{:.0}", s.hier_build_ms)),
                ]
            )
        );
        let largest = self.sizes.last().expect("sweep has sizes");
        println!(
            "largest city ({} buildings): hier {:.1}x the flat planner at {} worker(s)",
            largest.buildings,
            largest.hier_speedup(),
            largest.runs[0].workers
        );
        println!("all worker counts agree on every digest; flat and hier agree on every route\n");
        write_figure("figures/metro_throughput.svg", &throughput_svg(self));
        write_figure("figures/metro_memory.svg", &memory_svg(self));
    }

    /// The digest every `(mode, workers)` run at the largest size folds
    /// to: district partitioning, overlay construction, both planners'
    /// route selection (including the shared tie-break), and the pair
    /// sample itself.
    fn pins(&self) -> Vec<(&'static str, u64)> {
        let largest = self.sizes.last().expect("sweep has sizes");
        vec![("largest-size route digest", largest.runs[0].digest)]
    }

    /// The hierarchy is never worse than the flat planner: at every
    /// size of the sweep, or at the largest when the small ones are too
    /// short to time.
    fn throughput_gate(&self) {
        let skip = if self.gate_every_size {
            0
        } else {
            self.sizes.len() - 1
        };
        for s in &self.sizes[skip..] {
            let speedup = s.hier_speedup();
            assert!(
                speedup >= 1.0,
                "hier must not be slower than flat at {}x{}, got {speedup:.2}x",
                s.tiles.0,
                s.tiles.1
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_runs_and_draws() {
        let figs = run_metro_figs(5, &[(1, 1, 24)], &[1, 2]);
        assert_eq!(figs.sizes.len(), 1);
        let s = &figs.sizes[0];
        assert!(s.buildings > 200, "one tile must hold a real city");
        assert!(s.aps > 0 && s.districts > 1 && s.border_nodes > 0);
        assert_eq!(s.runs.len(), 4);
        let flat = s.runs.iter().find(|r| r.mode == MetroMode::Flat).unwrap();
        let hier = s.runs.iter().find(|r| r.mode == MetroMode::Hier).unwrap();
        assert!(flat.routes_found > 0);
        assert_eq!(flat.routes_found, hier.routes_found);
        let svg = throughput_svg(&figs);
        assert!(svg.starts_with("<svg") && svg.ends_with("</svg>\n"));
        assert!(memory_svg(&figs).contains("bytes / AP"));
    }

    #[test]
    fn pair_fingerprint_is_index_keyed() {
        let r = [1u32, 2, 3];
        assert_ne!(pair_fingerprint(0, &r), pair_fingerprint(1, &r));
        assert_ne!(pair_fingerprint(0, &r), pair_fingerprint(0, &[1, 2]));
    }
}
