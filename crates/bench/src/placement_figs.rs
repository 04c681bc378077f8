//! Deployment-optimization sweep: where should the hardened
//! relay/postbox sites go?
//!
//! For each survey archetype the sweep builds one [`Evaluator`] over a
//! healthy world and a district-blackout world, then runs the three
//! placement strategies of `citymesh-place` — uniform random (the
//! baseline any optimizer must beat), the greedy k-median
//! constructive, and Metropolis simulated annealing — under the same
//! site budget and the same seeded workload. The headline comparison
//! is **blackout delivery rate**: hardened sites earn their budget
//! when the lights are out, not when the mesh is healthy.
//!
//! Determinism is load-bearing twice over: every strategy is a pure
//! function of `(seed, k)`, and after the anneal the winning
//! deployment is re-scored through *fresh* evaluators at several
//! fleet worker counts — the sweep asserts all of them reproduce the
//! anneal's score digest bit-for-bit. And the optimizer must earn its
//! budget: annealed may not trail random on blackout delivery (on a
//! four-archetype sweep, it must beat it on at least three).
//!
//! The per-archetype strategy comparison is drawn by
//! [`placement_svg`].

use citymesh_core::{ExperimentConfig, FaultScenario};
use citymesh_fleet::FlowModel;
use citymesh_map::CityArchetype;
use citymesh_place::{
    Annealer, Evaluator, GreedyPlacer, Metric, Objective, PlacementOptimizer, RandomPlacer,
    ScenarioSpec, Score,
};

use crate::render::{chart_frame, chart_y, ticks, CHART_H};
use crate::sweep::{write_figure, Scale, Sweep, SweepOpts, SEED};
use crate::text;

/// Knobs of one placement sweep.
#[derive(Clone, Debug)]
pub struct PlacementSweepConfig {
    /// Archetypes to optimize over.
    pub archetypes: Vec<CityArchetype>,
    /// Hardened sites per deployment (the budget).
    pub k: usize,
    /// Flows per evaluation, per scenario world.
    pub flows: usize,
    /// Annealer proposal iterations.
    pub anneal_iters: usize,
    /// Districts darkened by the blackout scenario.
    pub blackout_districts: usize,
    /// Blackout district radius, metres.
    pub blackout_radius_m: f64,
    /// Fleet worker counts the annealed winner is re-scored at (all
    /// must reproduce the same score digest).
    pub worker_checks: Vec<usize>,
}

/// One strategy's result on one archetype.
#[derive(Clone, Debug)]
pub struct PlacementCell {
    /// Strategy label (`random`, `greedy`, `annealed`).
    pub strategy: &'static str,
    /// The chosen site buildings, ascending.
    pub sites: Vec<u32>,
    /// Delivery rate in the healthy world.
    pub healthy_delivery: f64,
    /// Delivery rate in the blackout world.
    pub blackout_delivery: f64,
    /// p99 first-delivery latency in the blackout world, ms.
    pub blackout_p99_ms: f64,
    /// Full fleet evaluations this strategy spent.
    pub evaluations: u64,
    /// Annealer proposals evaluated (0 for the constructives).
    pub proposed_moves: u64,
    /// Annealer proposals accepted (0 for the constructives).
    pub accepted_moves: u64,
    /// The deterministic score digest.
    pub digest: u64,
}

/// One archetype's strategy comparison.
#[derive(Clone, Debug)]
pub struct PlacementRow {
    /// Archetype label.
    pub label: &'static str,
    /// Buildings in the map.
    pub buildings: usize,
    /// Candidate site buildings (those owning at least one AP).
    pub candidates: usize,
    /// Site budget.
    pub k: usize,
    /// Strategy results, in `random, greedy, annealed` order.
    pub cells: Vec<PlacementCell>,
    /// Cached routes evicted by incremental invalidation across the
    /// whole archetype's search.
    pub routes_evicted: u64,
    /// Total fleet evaluations across the whole archetype's search.
    pub evaluations: u64,
}

impl PlacementRow {
    /// The cell for `strategy`, if the sweep ran it.
    pub fn cell(&self, strategy: &str) -> Option<&PlacementCell> {
        self.cells.iter().find(|c| c.strategy == strategy)
    }

    /// Annealed minus random blackout delivery rate — the headline
    /// "did the optimizer earn its budget" gap.
    pub fn blackout_gap(&self) -> f64 {
        let annealed = self.cell("annealed").map(|c| c.blackout_delivery);
        let random = self.cell("random").map(|c| c.blackout_delivery);
        annealed.unwrap_or(0.0) - random.unwrap_or(0.0)
    }
}

/// All archetypes of one placement sweep.
pub struct PlacementFigures {
    /// Per-archetype comparisons, in sweep order.
    pub rows: Vec<PlacementRow>,
    /// Worker counts every annealed winner's digest was verified at.
    pub worker_checks: Vec<usize>,
}

impl PlacementFigures {
    /// Archetypes where annealed strictly beats random on blackout
    /// delivery rate.
    pub fn archetypes_where_annealed_beats_random(&self) -> usize {
        self.rows.iter().filter(|r| r.blackout_gap() > 0.0).count()
    }
}

fn world_field(score: &Score, label: &str, f: impl Fn(&citymesh_place::WorldScore) -> f64) -> f64 {
    score
        .worlds
        .iter()
        .find(|w| w.label == label)
        .map(f)
        .unwrap_or(0.0)
}

fn evaluator(
    archetype: CityArchetype,
    seed: u64,
    cfg: &PlacementSweepConfig,
    workers: usize,
) -> Evaluator {
    Evaluator::new(
        archetype.generate(seed),
        ExperimentConfig {
            seed,
            ..ExperimentConfig::default()
        },
        &[
            ScenarioSpec::healthy(),
            ScenarioSpec::faulted(
                "blackout",
                FaultScenario::district_blackouts(cfg.blackout_districts, cfg.blackout_radius_m),
            ),
        ],
        Objective {
            metric: Metric::DeliveryRate,
            flows: cfg.flows,
            model: FlowModel::UniformPairs { rate_hz: 200.0 },
            seed,
            workers,
        },
    )
    .expect("placement sweep objective is well-formed")
}

/// Runs the sweep.
///
/// # Panics
/// Panics when the annealed winner's score digest fails to reproduce
/// at any checked worker count — the subsystem's determinism headline
/// — or when annealed trails random on blackout delivery (strictly
/// beating it on fewer than 3 archetypes of a 4-archetype sweep).
pub fn run_placement_figs(seed: u64, cfg: &PlacementSweepConfig) -> PlacementFigures {
    let mut rows = Vec::new();
    for &archetype in &cfg.archetypes {
        let mut ev = evaluator(
            archetype,
            seed,
            cfg,
            cfg.worker_checks.first().copied().unwrap_or(1),
        );
        let annealer = Annealer {
            iters: cfg.anneal_iters,
            ..Annealer::default()
        };
        let strategies: [&dyn PlacementOptimizer; 3] = [&RandomPlacer, &GreedyPlacer, &annealer];
        let mut cells = Vec::new();
        for strategy in strategies {
            let r = strategy
                .optimize(&mut ev, cfg.k, seed)
                .expect("placement sweep k fits every archetype");
            cells.push(PlacementCell {
                strategy: strategy.name(),
                sites: r.deployment.sites().to_vec(),
                healthy_delivery: world_field(&r.score, "healthy", |w| w.delivery_rate),
                blackout_delivery: world_field(&r.score, "blackout", |w| w.delivery_rate),
                blackout_p99_ms: world_field(&r.score, "blackout", |w| w.p99_latency_ms),
                evaluations: r.evaluations,
                proposed_moves: r.proposed_moves,
                accepted_moves: r.accepted_moves,
                digest: r.score.digest,
            });
        }
        // Determinism gate: the annealed winner, re-scored through a
        // fresh evaluator at every checked worker count, must
        // reproduce the exact score digest the search recorded.
        let annealed = cells.last().expect("three strategies ran");
        let winner = citymesh_place::Deployment::new(annealed.sites.clone(), cfg.k)
            .expect("recorded sites form a valid deployment");
        for &w in &cfg.worker_checks {
            let fresh = evaluator(archetype, seed, cfg, w).score(&winner);
            assert_eq!(
                fresh.digest,
                annealed.digest,
                "{}: annealed score digest must reproduce at {w} workers",
                archetype.label()
            );
        }
        rows.push(PlacementRow {
            label: archetype.label(),
            buildings: ev.map().len(),
            candidates: ev.candidates().len(),
            k: cfg.k,
            cells,
            routes_evicted: ev.routes_evicted(),
            evaluations: ev.evaluations(),
        });
    }
    let figs = PlacementFigures {
        rows,
        worker_checks: cfg.worker_checks.clone(),
    };
    if figs.rows.len() >= 4 {
        let wins = figs.archetypes_where_annealed_beats_random();
        assert!(
            wins >= 3,
            "annealed must beat random on blackout delivery in at least 3 of {} archetypes, \
             got {wins}",
            figs.rows.len()
        );
    } else {
        for row in &figs.rows {
            assert!(
                row.blackout_gap() >= 0.0,
                "{}: annealed blackout delivery must not trail random (gap {:+.3})",
                row.label,
                row.blackout_gap()
            );
        }
    }
    figs
}

/// Grouped bars of blackout delivery rate per archetype × strategy,
/// with the healthy-world rate of the annealed deployment as a dashed
/// reference line per group.
pub fn placement_svg(figs: &PlacementFigures) -> String {
    const W: f64 = 460.0;
    const M: f64 = 48.0;
    const COLORS: [&str; 3] = ["#bbbbbb", "#6699cc", "#cc3333"];
    let base = CHART_H - M;
    let group_w = (W - 2.0 * M) / figs.rows.len().max(1) as f64;
    let bar_w = group_w / 4.0;
    let y_ticks = ticks(&[0.0, 0.25, 0.5, 0.75, 1.0], 2);
    let y = |rate: f64| chart_y(M, &y_ticks, rate);
    let mut s = chart_frame(
        W,
        M,
        "blackout delivery rate by placement strategy",
        &y_ticks,
    );
    for (g, row) in figs.rows.iter().enumerate() {
        let gx = M + g as f64 * group_w;
        for (i, cell) in row.cells.iter().enumerate() {
            let x = gx + (i as f64 + 0.5) * bar_w;
            let top = y(cell.blackout_delivery);
            s.push_str(&format!(
                "<rect x=\"{x:.1}\" y=\"{top:.1}\" width=\"{:.1}\" height=\"{:.1}\" \
                 fill=\"{}\"><title>{} {}: blackout {:.3}</title></rect>\n",
                bar_w * 0.9,
                base - top,
                COLORS[i.min(COLORS.len() - 1)],
                row.label,
                cell.strategy,
                cell.blackout_delivery
            ));
        }
        if let Some(annealed) = row.cell("annealed") {
            let hy = y(annealed.healthy_delivery);
            s.push_str(&format!(
                "<line x1=\"{:.1}\" y1=\"{hy:.1}\" x2=\"{:.1}\" y2=\"{hy:.1}\" \
                 stroke=\"#338833\" stroke-dasharray=\"3,2\"/>\n",
                gx + 0.25 * bar_w,
                gx + 3.65 * bar_w
            ));
        }
        s.push_str(&format!(
            "<text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"middle\">{}</text>\n",
            gx + group_w / 2.0,
            base + 14.0,
            row.label
        ));
    }
    for (i, name) in ["random", "greedy", "annealed"].iter().enumerate() {
        let lx = M + i as f64 * 90.0;
        s.push_str(&format!(
            "<rect x=\"{lx:.1}\" y=\"{:.1}\" width=\"10\" height=\"10\" fill=\"{}\"/>\n\
             <text x=\"{:.1}\" y=\"{:.1}\">{name}</text>\n",
            CHART_H - 18.0,
            COLORS[i],
            lx + 14.0,
            CHART_H - 9.0
        ));
    }
    s.push_str("</svg>\n");
    s
}

impl Sweep for PlacementFigures {
    const NAME: &'static str = "placement";
    const SCALES: &'static [Scale] = &[Scale::Full, Scale::Fast, Scale::Smoke];
    const PINNED: Scale = Scale::Smoke;

    fn run(opts: &SweepOpts) -> Self {
        // The smoke is downtown only, under a short anneal.
        let survey = CityArchetype::survey_areas().to_vec();
        let (archetypes, flows, anneal_iters) = match opts.scale {
            Scale::Full => (survey, 320, 40),
            Scale::Fast => (survey, 200, 24),
            Scale::Smoke => (vec![CityArchetype::SurveyDowntown], 160, 10),
        };
        let cfg = PlacementSweepConfig {
            archetypes,
            k: 4,
            flows,
            anneal_iters,
            blackout_districts: 2,
            blackout_radius_m: 150.0,
            worker_checks: vec![1, 4, 8],
        };
        run_placement_figs(SEED, &cfg)
    }

    fn print(&self) {
        println!("== placement: hardened-site deployment, random vs greedy vs annealed ==");
        for row in &self.rows {
            let sites = |c: &PlacementCell| {
                let ids: Vec<String> = c.sites.iter().map(|s| s.to_string()).collect();
                ids.join(",")
            };
            println!(
                "-- {} ({} buildings, {} candidates, k={}, {} evals, {} routes evicted) --\n{}",
                row.label,
                row.buildings,
                row.candidates,
                row.k,
                row.evaluations,
                row.routes_evicted,
                text::columns(
                    &row.cells,
                    &[
                        ("strategy", &|c| c.strategy.to_string()),
                        ("sites", &sites),
                        ("healthy", &|c| format!("{:.3}", c.healthy_delivery)),
                        ("blackout", &|c| format!("{:.3}", c.blackout_delivery)),
                        ("bo p99 ms", &|c| format!("{:.1}", c.blackout_p99_ms)),
                        ("evals", &|c| c.evaluations.to_string()),
                        ("acc/prop", &|c| format!(
                            "{}/{}",
                            c.accepted_moves, c.proposed_moves
                        )),
                        ("digest", &|c| format!("{:016x}", c.digest)),
                    ]
                )
            );
            println!(
                "blackout delivery gap, annealed - random: {:+.3}",
                row.blackout_gap()
            );
        }
        println!(
            "annealed beats random on blackout delivery in {} of {} archetype(s); \
             every annealed digest reproduced at {:?} workers\n",
            self.archetypes_where_annealed_beats_random(),
            self.rows.len(),
            self.worker_checks
        );
        write_figure("figures/placement_blackout.svg", &placement_svg(self));
    }

    /// The annealed downtown deployment's score digest chains the
    /// chosen sites with every world's fleet digest: greedy
    /// construction, the seeded move/accept sub-streams, incremental
    /// route-cache reuse between candidates, hardened AP health,
    /// postbox redirect and multi-world fleet scoring.
    fn pins(&self) -> Vec<(&'static str, u64)> {
        let downtown = self.rows.iter().find(|r| r.label == "downtown");
        let annealed = downtown.and_then(|r| r.cell("annealed"));
        annealed
            .map(|c| ("annealed-downtown score digest", c.digest))
            .into_iter()
            .collect()
    }
}
