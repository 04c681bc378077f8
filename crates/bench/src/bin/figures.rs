//! Regenerates every table and figure of the paper, runs the nine
//! extension sweeps, and checks the golden pins.
//!
//! ```text
//! cargo run --release -p citymesh-bench --bin figures -- all          # every artifact
//! cargo run --release -p citymesh-bench --bin figures -- table1       # one artifact
//! cargo run --release -p citymesh-bench --bin figures -- fig6 --fast  # reduced pair counts
//! cargo run --release -p citymesh-bench --bin figures -- check        # every golden pin
//! ```
//!
//! [`ARTIFACTS`] is the dispatch, the target list, the usage string
//! and the flag validation at once: a target outside it, a scale flag
//! (`--fast`, `--smoke`) an artifact has no parameters for, an unknown
//! flag, or a malformed `--flows N` / `--workers N` exits 2 before
//! anything runs. Text goes to stdout; charts and exports are written
//! to `figures/`.
//!
//! `--flows N` runs one flow (or pair) count instead of the sweep's
//! own, `--workers N` one worker count instead of 1/4/8, `--cold`
//! skips the fleet sweep's unmeasured warm-up pass so the recorded
//! throughput includes scratch/cache warm-up costs, and `--json` makes
//! `fig6` write `figures/fig6.json`. Every sweep asserts its own
//! invariants as it runs and ends with a `[sweep …]` line reporting
//! its wall time and the process peak RSS. A release build — the only
//! kind whose timings mean anything — also holds each sweep to its
//! within-run throughput ratio ([`Sweep::throughput_gate`]): planner
//! warm ≥ 3× the live baseline, metro hier ≥ flat at every size of the
//! `Full` and `Fast` ladders (the largest at `--smoke`), crypto warm
//! ≥ 0.5× plaintext.
//!
//! `check` runs each sweep at the scale its pins are taken at, prints
//! one line per row of [`goldens::PINS`], and holds the same three
//! ratios. Any mismatch exits 1.

use std::fs;
use std::time::Instant;

use citymesh_bench::churn_figs::ChurnFigures;
use citymesh_bench::crypto_figs::CryptoFigures;
use citymesh_bench::fleet_figs::FleetFigures;
use citymesh_bench::goldens::{self, Mismatch};
use citymesh_bench::metro_figs::MetroFigures;
use citymesh_bench::placement_figs::PlacementFigures;
use citymesh_bench::planner_figs::PlannerFigures;
use citymesh_bench::resilience_figs::ResilienceFigures;
use citymesh_bench::streaming_figs::StreamingFigures;
use citymesh_bench::sweep::{print_footer, write_figure, Scale, Sweep, SweepOpts, SEED};
use citymesh_bench::telemetry_figs::TelemetryFigures;
use citymesh_bench::text::json::Value;
use citymesh_bench::{ablation, eval_figs, render, scaling, survey_figs, text};
use citymesh_core::{
    compress_route, place_aps, plan_route, postbox_ap, reconstruct_conduits,
    simulate_delivery_faulted, ApGraph, BuildingGraph, BuildingGraphParams, CoveredSet,
    DeliveryScratch, Relays,
};
use citymesh_map::CityArchetype;
use citymesh_net::CityMeshHeader;
use citymesh_simcore::SimRng;

/// One `figures` target.
struct Artifact {
    name: &'static str,
    /// The scales it has parameters for; any other scale flag is an
    /// error, not a no-op.
    scales: &'static [Scale],
    run: fn(&mut Ctx),
}

const fn artifact(name: &'static str, scales: &'static [Scale], run: fn(&mut Ctx)) -> Artifact {
    Artifact { name, scales, run }
}

/// The paper's own artifacts: the §4 protocol, or reduced pair counts.
const PAPER: &[Scale] = &[Scale::Full, Scale::Fast];

const fn sweep_artifact<S: Sweep>() -> Artifact {
    artifact(S::NAME, S::SCALES, sweep::<S>)
}

/// Every target, in run order. `all` (or no target) is all of them
/// but `check`, which regenerates nothing.
const ARTIFACTS: &[Artifact] = &[
    artifact("table1", PAPER, table1),
    artifact("fig1a", PAPER, fig1a),
    artifact("fig1b", PAPER, fig1b),
    artifact("fig2", PAPER, fig2),
    artifact("fig5", PAPER, fig5),
    artifact("fig6", PAPER, fig6),
    artifact("headers", PAPER, headers),
    artifact("fig7", PAPER, fig7),
    artifact("mapsize", PAPER, mapsize),
    artifact("headers-large", PAPER, headers_large),
    artifact("scaling", PAPER, scaling_tables),
    artifact("ablations", PAPER, ablations),
    sweep_artifact::<FleetFigures>(),
    sweep_artifact::<PlannerFigures>(),
    sweep_artifact::<ResilienceFigures>(),
    sweep_artifact::<ChurnFigures>(),
    sweep_artifact::<TelemetryFigures>(),
    sweep_artifact::<MetroFigures>(),
    sweep_artifact::<StreamingFigures>(),
    sweep_artifact::<CryptoFigures>(),
    sweep_artifact::<PlacementFigures>(),
    artifact("check", &[Scale::Full], check),
];

/// The parsed command line plus the two computations artifacts share.
struct Ctx {
    opts: SweepOpts,
    json: bool,
    survey: Option<survey_figs::SurveyFigures>,
    fig6: Option<eval_figs::Fig6>,
}

impl Ctx {
    fn fast(&self) -> bool {
        self.opts.scale == Scale::Fast
    }

    /// The four-area survey behind table 1 and figures 1a, 1b and 2.
    fn survey(&mut self) -> &survey_figs::SurveyFigures {
        let scale = if self.fast() { 0.1 } else { 1.0 };
        self.survey.get_or_insert_with(|| {
            eprintln!("[running four-area survey…]");
            survey_figs::run_surveys(SEED, scale)
        })
    }

    /// The eight-city evaluation behind figure 6 and the §4 header
    /// statistics: 1000 / 50 pairs per city is the paper's protocol.
    fn fig6(&mut self) -> &eval_figs::Fig6 {
        let (rpairs, dpairs) = if self.fast() { (200, 10) } else { (1000, 50) };
        self.fig6.get_or_insert_with(|| {
            eprintln!("[running the eight-city evaluation: {rpairs} reachability / {dpairs} delivery pairs per city…]");
            eval_figs::run_fig6(SEED, rpairs, dpairs)
        })
    }
}

fn usage() -> String {
    let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
    format!(
        "targets: all {}\nflags: --fast --smoke --json --cold --flows N --workers N",
        names.join(" ")
    )
}

/// Parses the command line into what to run and how, or says what it
/// does not understand.
fn parse(args: &[String]) -> Result<(Vec<&'static Artifact>, Ctx), String> {
    let mut ctx = Ctx {
        opts: SweepOpts::at(Scale::Full),
        json: false,
        survey: None,
        fig6: None,
    };
    let mut targets: Vec<&'static Artifact> = Vec::new();
    let everything = || ARTIFACTS.iter().filter(|a| a.name != "check");
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut count = || -> Result<Option<usize>, String> {
            let value = args.next().ok_or(format!("`{arg}` needs a number"))?;
            let parsed = value.parse();
            parsed
                .map(Some)
                .map_err(|_| format!("`{arg}` needs a number, got `{value}`"))
        };
        match arg.as_str() {
            "--fast" | "--smoke" if ctx.opts.scale != Scale::Full => {
                return Err("`--fast` and `--smoke` are one choice, given twice".into());
            }
            "--fast" => ctx.opts.scale = Scale::Fast,
            "--smoke" => ctx.opts.scale = Scale::Smoke,
            "--json" => ctx.json = true,
            "--cold" => ctx.opts.cold = true,
            "--flows" => ctx.opts.flows = count()?,
            "--workers" => ctx.opts.workers = count()?,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            "all" => targets.extend(everything()),
            name => match ARTIFACTS.iter().find(|a| a.name == name) {
                Some(artifact) => targets.push(artifact),
                None => return Err(format!("unknown target `{name}`")),
            },
        }
    }
    if targets.is_empty() {
        targets.extend(everything());
    }
    match targets.iter().find(|a| !a.scales.contains(&ctx.opts.scale)) {
        Some(a) => Err(format!(
            "`{}` has no {:?} scale (it has {:?})",
            a.name, ctx.opts.scale, a.scales
        )),
        None => Ok((targets, ctx)),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (targets, mut ctx) = parse(&args).unwrap_or_else(|problem| {
        eprintln!("{problem}; {}", usage());
        std::process::exit(2);
    });
    fs::create_dir_all("figures").expect("cannot create figures/");
    for (i, artifact) in targets.iter().enumerate() {
        // `all fig6` runs fig6 once.
        if !targets[..i].iter().any(|a| a.name == artifact.name) {
            (artifact.run)(&mut ctx);
        }
    }
}

/// One extension sweep: run, print, footer — and, in a release build
/// (the only kind whose timings mean anything), the sweep's
/// throughput gate at the scale it just ran at.
fn sweep<S: Sweep>(ctx: &mut Ctx) {
    eprintln!(
        "[running the {} sweep at {:?} scale…]",
        S::NAME,
        ctx.opts.scale
    );
    let started = Instant::now();
    let figs = S::run(&ctx.opts);
    figs.print();
    if !cfg!(debug_assertions) {
        figs.throughput_gate();
    }
    print_footer(S::NAME, started);
}

/// `goldens::verify::<S>` for one sweep `S`.
type Verify = fn(bool) -> Vec<Mismatch>;

/// Every sweep at its pinned scale against [`goldens::PINS`].
fn check(_: &mut Ctx) {
    let sweeps: [(&str, Verify); 9] = [
        (FleetFigures::NAME, goldens::verify::<FleetFigures>),
        (PlannerFigures::NAME, goldens::verify::<PlannerFigures>),
        (
            ResilienceFigures::NAME,
            goldens::verify::<ResilienceFigures>,
        ),
        (ChurnFigures::NAME, goldens::verify::<ChurnFigures>),
        (TelemetryFigures::NAME, goldens::verify::<TelemetryFigures>),
        (MetroFigures::NAME, goldens::verify::<MetroFigures>),
        (StreamingFigures::NAME, goldens::verify::<StreamingFigures>),
        (PlacementFigures::NAME, goldens::verify::<PlacementFigures>),
        (CryptoFigures::NAME, goldens::verify::<CryptoFigures>),
    ];
    let started = Instant::now();
    let mut missed: Vec<Mismatch> = Vec::new();
    for (_, verify) in sweeps {
        missed.extend(verify(true));
    }
    println!("== check: golden pins (seed {SEED}) ==");
    for pin in &goldens::PINS {
        assert!(
            sweeps.iter().any(|(name, _)| *name == pin.sweep),
            "no sweep verifies pin `{}` of `{}`",
            pin.name,
            pin.sweep
        );
        match missed.iter().find(|m| m.pin == pin) {
            None => println!("ok        {:016x}  {}: {}", pin.value, pin.sweep, pin.name),
            Some(mismatch) => println!("MISMATCH  {mismatch}"),
        }
    }
    println!(
        "throughput gates held: planner warm >= 3x baseline, metro hier >= flat, \
         crypto warm >= 0.5x plaintext"
    );
    print_footer("check", started);
    if !missed.is_empty() {
        eprintln!("{} of {} pins moved", missed.len(), goldens::PINS.len());
        std::process::exit(1);
    }
}

fn table1(ctx: &mut Ctx) {
    let rows = ctx.survey().table1();
    println!("== Table 1: summary of collected (synthetic) survey data ==");
    println!(
        "{}",
        text::columns(
            &rows,
            &[
                ("Dataset", &|r| r.area.clone()),
                ("# Measurements", &|r| r.measurements.to_string()),
                ("# Unique APs", &|r| r.unique_aps.to_string()),
            ]
        )
    );
}

fn fig1a(ctx: &mut Ctx) {
    println!("== Figure 1a: CDF of MAC addresses seen per measurement ==");
    for (area, cdf) in ctx.survey().fig1a() {
        println!(
            "{}",
            text::ascii_cdf(
                &format!("{area} (median {:.0})", cdf.median().unwrap_or(0.0)),
                &cdf.plot_points(12),
                40
            )
        );
    }
}

fn fig1b(ctx: &mut Ctx) {
    println!("== Figure 1b: CDF of per-BSSID location spread (m) ==");
    for (area, cdf) in ctx.survey().fig1b() {
        println!(
            "{}",
            text::ascii_cdf(
                &format!("{area} (median {:.0} m)", cdf.median().unwrap_or(0.0)),
                &cdf.plot_points(12),
                40
            )
        );
    }
}

fn fig2(ctx: &mut Ctx) {
    println!("== Figure 2: common APs between measurement pairs vs distance ==");
    let pairs = if ctx.fast() { 20_000 } else { 2_000_000 };
    for (area, bins) in ctx.survey().fig2(pairs) {
        println!("-- {area} --\n{}", text::whisker_table(&bins));
    }
}

fn fig5(_: &mut Ctx) {
    println!("== Figure 5: downtown section render ==");
    let map = CityArchetype::SurveyDowntown.generate(SEED);
    let mut rng = SimRng::new(SEED);
    let aps = place_aps(&map, 200.0, &mut rng);
    let apg = ApGraph::build(&aps, 50.0);
    write_figure(
        "figures/fig5_downtown.svg",
        &render::fig5_svg(&map, &aps, &apg),
    );
    println!(
        "{} buildings, {} APs, mean degree {:.1}\n",
        map.len(),
        aps.len(),
        apg.mean_degree()
    );
}

fn fig6(ctx: &mut Ctx) {
    let json = ctx.json;
    let fig6 = ctx.fig6();
    println!("== Figure 6: reachability, deliverability, transmission overhead ==");
    let percent = |v: f64| format!("{:.1}%", v * 100.0);
    println!(
        "{}",
        text::columns(
            &fig6.cities,
            &[
                ("city", &|c| c.city.clone()),
                ("buildings", &|c| c.buildings.to_string()),
                ("APs", &|c| c.aps.to_string()),
                ("islands", &|c| c.components.to_string()),
                ("reachable", &|c| percent(c.reachability)),
                ("deliverable", &|c| percent(c.deliverability)),
                ("overhead", &|c| c
                    .median_overhead
                    .map_or("-".into(), |o| format!("{o:.1}x"))),
                ("latency", &|c| c
                    .median_latency_ms
                    .map_or("-".into(), |l| format!("{l:.0} ms"))),
            ]
        )
    );
    if let Some(pooled) = fig6.pooled_median_overhead() {
        println!("pooled median transmission overhead: {pooled:.1}x  (paper: ~13x)\n");
    }
    if json {
        let city = |c: &citymesh_core::CityResult| {
            Value::Obj(vec![
                ("city".into(), Value::Str(c.city.clone())),
                ("buildings".into(), Value::Int(c.buildings as i64)),
                ("aps".into(), Value::Int(c.aps as i64)),
                ("islands".into(), Value::Int(c.components as i64)),
                ("reachability".into(), Value::Num(c.reachability)),
                ("deliverability".into(), Value::Num(c.deliverability)),
                (
                    "median_overhead".into(),
                    c.median_overhead.map_or(Value::Null, Value::Num),
                ),
            ])
        };
        let doc = Value::Arr(fig6.cities.iter().map(city).collect());
        write_figure("figures/fig6.json", &doc.render());
        println!();
    }
}

fn print_header_stats(title: &str, h: &eval_figs::HeaderStats) {
    println!("== §4 header statistics{title} ==");
    println!(
        "{} routes: median {} bits, 90%ile {} bits, median {} waypoints  (paper: 175 / 225 bits)\n",
        h.routes, h.median_bits, h.p90_bits, h.median_waypoints
    );
}

fn headers(ctx: &mut Ctx) {
    if let Some(h) = ctx.fig6().header_stats() {
        print_header_stats(": compressed source-route size", &h);
    }
}

fn fig7(_: &mut Ctx) {
    println!("== Figure 7: one simulated delivery ==");
    let map = CityArchetype::SurveyDowntown.generate(SEED);
    let mut rng = SimRng::new(SEED);
    let aps = place_aps(&map, 200.0, &mut rng);
    let apg = ApGraph::build(&aps, 50.0);
    let bg = BuildingGraph::build(&map, BuildingGraphParams::default());
    // A corner-to-corner pair for a long, interesting route.
    let corner = |x: f64, y: f64| {
        let nearest = map.nearest_building(citymesh_geo::Point::new(x, y));
        nearest.expect("non-empty map").id
    };
    let (src, dst) = (corner(50.0, 50.0), corner(700.0, 700.0));
    let route = plan_route(&bg, src, dst).expect("downtown is connected");
    let compressed = compress_route(&bg, &route, 50.0).expect("valid width and route");
    let header = CityMeshHeader::new(7, 50.0, compressed.waypoints.clone());
    let src_ap = postbox_ap(&aps, &map, src).expect("source building has APs");
    let conduits = reconstruct_conduits(&map, &header.waypoints, header.conduit_width_m());
    let mut scratch = DeliveryScratch::new();
    let report = simulate_delivery_faulted(
        &apg,
        &header,
        Relays::Covered(&CoveredSet::of(&map, &conduits)),
        src_ap,
        0.0,
        None,
        rng.next_u64(),
        &mut scratch,
    );
    write_figure(
        "figures/fig7_delivery.svg",
        &render::fig7_svg(&map, &apg, &header, report),
    );
    println!(
        "route {} buildings → {} waypoints; delivered={}, {} broadcasts, {} relays",
        route.len(),
        compressed.len(),
        report.delivered,
        report.broadcasts,
        report.relay_count()
    );
    println!("{}\n", render::ascii_map(&map, &route, 72));
}

/// The §2 premise quantified: how big is the on-device map cache a
/// phone or AP must hold?
fn mapsize(_: &mut Ctx) {
    println!("== device map-cache size (10 mm quantization) ==");
    let rows: Vec<(&str, usize, usize)> = CityArchetype::cities()
        .iter()
        .map(|arch| {
            let map = arch.generate(SEED);
            let bytes = citymesh_map::encode_map(&map, citymesh_map::DEFAULT_QUANTUM_MM);
            (arch.label(), map.len(), bytes.len())
        })
        .collect();
    println!(
        "{}",
        text::columns(
            &rows,
            &[
                ("city", &|r| r.0.to_string()),
                ("buildings", &|r| r.1.to_string()),
                ("cache size", &|r| format!("{:.1} KiB", r.2 as f64 / 1024.0)),
                ("bytes/building", &|r| format!(
                    "{:.1}",
                    r.2 as f64 / r.1 as f64
                )),
            ]
        )
    );
    println!(
        "At these rates a 500k-building metropolis caches in ~15 MB — \
         \"today's devices can easily cache\" it, as §2 claims.\n"
    );
}

fn headers_large(ctx: &mut Ctx) {
    let routes = if ctx.fast() { 30 } else { 150 };
    eprintln!("[generating a 3.6 km metropolitan map and routing {routes} pairs…]");
    let h = eval_figs::header_stats_at_scale(SEED, routes);
    print_header_stats(" at metropolitan scale (~17k buildings)", &h);
}

fn scaling_tables(ctx: &mut Ctx) {
    println!("== §5 scaling: control transmissions per interval/discovery ==");
    println!(
        "{}",
        text::columns(
            &scaling::control_scaling(),
            &[
                ("nodes", &|r| r.nodes.to_string()),
                ("DSDV", &|r| r.dsdv.to_string()),
                ("OLSR", &|r| r.olsr.to_string()),
                ("AODV/discovery", &|r| r.aodv.to_string()),
                ("CityMesh", &|r| r.citymesh.to_string()),
            ]
        )
    );

    println!("== data plane: delivery rate and mean transmissions per scheme ==");
    let pairs = if ctx.fast() { 12 } else { 40 };
    println!(
        "{}",
        text::columns(
            &scaling::data_plane_comparison(SEED, pairs),
            &[
                ("scheme", &|r| r.scheme.clone()),
                ("delivered", &|r| format!("{:.0}%", r.delivery_rate * 100.0)),
                ("mean tx", &|r| format!("{:.1}", r.mean_tx)),
            ]
        )
    );
}

fn ablations(ctx: &mut Ctx) {
    let pairs = if ctx.fast() { 8 } else { 25 };
    println!("== ablations (Cambridge archetype) ==");
    let overhead =
        |p: &ablation::SweepPoint| p.median_overhead.map_or("-".into(), |o| format!("{o:.1}x"));
    let deliverable = |p: &ablation::SweepPoint| format!("{:.1}%", p.deliverability * 100.0);
    let sweep_table = |name: &str, points: &[ablation::SweepPoint]| {
        println!(
            "-- {name} --\n{}",
            text::columns(
                points,
                &[
                    ("value", &|p| format!("{:.0}", p.knob)),
                    ("deliverable", &deliverable),
                    ("overhead", &overhead),
                    ("route bits", &|p| p
                        .median_route_bits
                        .map_or("-".into(), |b| b.to_string())),
                ]
            )
        );
    };
    sweep_table(
        "weight exponent (paper: 3)",
        &ablation::sweep_weight_exponent(SEED, pairs),
    );
    sweep_table(
        "conduit width W, m (paper: 50)",
        &ablation::sweep_conduit_width(SEED, pairs),
    );
    sweep_table(
        "AP density, m²/AP (paper: 200)",
        &ablation::sweep_ap_density(SEED, pairs),
    );
    sweep_table(
        "transmission range, m (paper: 50)",
        &ablation::sweep_range(SEED, pairs),
    );
    println!(
        "-- per-frame reception loss (redundancy robustness) --\n{}",
        text::columns(
            &ablation::sweep_reception_loss(SEED, pairs),
            &[
                ("loss", &|p| format!("{:.0}%", p.knob * 100.0)),
                ("deliverable", &deliverable),
                ("overhead", &overhead),
            ]
        )
    );
    println!(
        "-- rebroadcast scope (same pairs, same placement) --\n{}",
        text::columns(
            &ablation::sweep_scope(SEED, pairs),
            &[
                ("scope", &|r| format!("{:?}", r.scope)),
                ("deliverable", &|r| format!(
                    "{:.1}%",
                    r.deliverability * 100.0
                )),
                ("total broadcasts", &|r| r.total_broadcasts.to_string()),
            ]
        )
    );

    let enc = ablation::encoding_comparison(SEED, if ctx.fast() { 25 } else { 100 });
    println!(
        "-- route encoding (median bits over {} routes) --",
        enc.routes
    );
    let encodings = [
        ("absolute (paper)", enc.absolute_median_bits),
        ("delta varbits", enc.delta_median_bits),
        ("uncompressed route", enc.uncompressed_median_bits),
    ];
    let cols: [text::Column<(&str, usize)>; 2] = [
        ("encoding", &|e| e.0.to_string()),
        ("median bits", &|e| e.1.to_string()),
    ];
    println!("{}", text::columns(&encodings, &cols));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse(&args).err().expect("the command line is rejected")
    }

    #[test]
    fn usage_lists_exactly_the_table() {
        let usage = usage();
        let listed = usage.lines().next().expect("targets line");
        let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
        assert_eq!(listed, format!("targets: all {}", names.join(" ")));
        for (i, a) in ARTIFACTS.iter().enumerate() {
            assert!(!a.scales.is_empty(), "`{}` runs at no scale", a.name);
            assert!(ARTIFACTS[..i].iter().all(|b| b.name != a.name));
        }
    }

    #[test]
    fn what_the_parser_does_not_understand_is_an_error() {
        assert_eq!(problem(&["streeming"]), "unknown target `streeming`");
        assert_eq!(problem(&["metro", "--smok"]), "unknown flag `--smok`");
        assert_eq!(
            problem(&["fleet", "--flows", "abc"]),
            "`--flows` needs a number, got `abc`"
        );
        assert_eq!(problem(&["fleet", "--flows"]), "`--flows` needs a number");
        assert!(problem(&["fleet", "--smoke"]).starts_with("`fleet` has no Smoke scale"));
        assert!(problem(&["all", "--smoke"]).starts_with("`table1` has no Smoke scale"));
        assert!(problem(&["check", "--fast"]).starts_with("`check` has no Fast scale"));
        assert!(problem(&["metro", "--fast", "--smoke"]).contains("one choice"));
    }

    #[test]
    fn all_is_every_artifact_but_check() {
        for args in [&["all", "--fast"][..], &["--fast"]] {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            let (targets, ctx) = parse(&args).expect("valid");
            assert_eq!(targets.len(), ARTIFACTS.len() - 1);
            assert!(targets.iter().all(|a| a.name != "check"));
            assert!(ctx.fast());
        }
        let args = [
            "crypto".to_string(),
            "--smoke".into(),
            "--workers".into(),
            "2".into(),
        ];
        let (targets, ctx) = parse(&args).expect("valid");
        assert_eq!(targets.len(), 1);
        assert_eq!(ctx.opts.worker_counts(), [2]);
    }
}
