//! Regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release --bin figures -- all          # everything
//! cargo run --release --bin figures -- table1       # one artifact
//! cargo run --release --bin figures -- fig6 --fast  # reduced pair counts
//! ```
//!
//! Artifacts: `table1 fig1a fig1b fig2 fig5 fig6 fig7 headers scaling
//! ablations fleet planner resilience churn telemetry metro
//! streaming placement crypto`. Text goes to stdout; SVGs are written to `figures/`;
//! the fleet sweep writes `BENCH_fleet.json`, the planner sweep
//! `BENCH_planner.json`, the resilience sweep `BENCH_resilience.json`,
//! the churn sweep `BENCH_churn.json`, the telemetry sweep
//! `BENCH_telemetry.json` plus one captured flow trace in
//! `figures/postmortem_sample.json`, the metro sweep
//! `BENCH_metro.json`, the streaming sweep `BENCH_streaming.json`,
//! and the placement sweep `BENCH_placement.json`.
//!
//! The `fleet` artifact takes value flags: `--flows N` runs one flow
//! count instead of the default 1k/10k/100k sweep, `--workers N` one
//! worker count instead of 1/4/8, and `--cold` skips the unmeasured
//! warm-up pass so the recorded throughput includes scratch/cache
//! warm-up costs (the default, warmed numbers measure steady state).
//! The `metro` artifact takes `--smoke`: a CI-sized sweep that also
//! *asserts* the hierarchical planner is at least as fast as the flat
//! one at the largest smoke size. The `streaming` artifact takes
//! `--smoke` too: a CI-sized load sweep that *asserts* the engine
//! sheds explicitly (and keeps accounting balanced) past 2x the
//! estimated capacity on both the flat and the hierarchical scenario.
//! The `placement` artifact takes `--smoke` as well: a downtown-only
//! deployment search that *asserts* the annealed placement does not
//! trail the random baseline on blackout delivery rate and prints the
//! annealed score digest CI pins. The `crypto` artifact writes
//! `BENCH_crypto.json` and under `--smoke` *asserts* that warm
//! encrypted throughput stays within 2x of plaintext at every worker
//! count. Every sweep ends with a `[sweep …]`
//! line reporting its wall time
//! and the process peak RSS so regressions in either are visible from
//! the log alone.

use std::fs;
use std::path::Path;

use citymesh_bench::sweep::SweepTimer;
use citymesh_bench::{
    ablation, churn_figs, crypto_figs, eval_figs, fleet_figs, metro_figs, placement_figs,
    planner_figs, render, resilience_figs, scaling, streaming_figs, survey_figs, telemetry_figs,
    text,
};
use citymesh_core::{
    compress_route, place_aps, plan_route, postbox_ap, simulate_delivery, ApGraph, BuildingGraph,
    BuildingGraphParams, DeliveryParams,
};
use citymesh_map::CityArchetype;
use citymesh_net::CityMeshHeader;
use citymesh_simcore::SimRng;

const SEED: u64 = 2024;

/// Every artifact name `main` dispatches on (besides `all`). A
/// positional argument outside this list is a typo, not a no-op.
const TARGETS: &[&str] = &[
    "table1",
    "fig1a",
    "fig1b",
    "fig2",
    "fig5",
    "fig6",
    "headers",
    "fig7",
    "mapsize",
    "headers-large",
    "scaling",
    "ablations",
    "fleet",
    "planner",
    "resilience",
    "churn",
    "telemetry",
    "metro",
    "streaming",
    "crypto",
    "placement",
];

struct Opts {
    fast: bool,
}

impl Opts {
    /// (survey scale, reachability pairs, delivery pairs)
    fn scales(&self) -> (f64, usize, usize) {
        if self.fast {
            (0.1, 200, 10)
        } else {
            (1.0, 1000, 50) // the paper's §4 protocol
        }
    }
}

/// Removes `name <value>` from `args` and returns the parsed value.
fn take_value(args: &mut Vec<String>, name: &str) -> Option<usize> {
    let i = args.iter().position(|a| a == name)?;
    if i + 1 >= args.len() {
        args.remove(i);
        return None;
    }
    let v = args.remove(i + 1).parse().ok();
    args.remove(i);
    v
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let flows_override = take_value(&mut args, "--flows");
    let workers_override = take_value(&mut args, "--workers");
    let args = args;
    let fast = args.iter().any(|a| a == "--fast");
    let json = args.iter().any(|a| a == "--json");
    let opts = Opts { fast };
    let targets: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    if let Some(bad) = targets
        .iter()
        .find(|t| **t != "all" && !TARGETS.contains(t))
    {
        eprintln!("unknown target `{bad}`; targets: all {}", TARGETS.join(" "));
        std::process::exit(2);
    }
    let want =
        |name: &str| targets.is_empty() || targets.contains(&name) || targets.contains(&"all");

    fs::create_dir_all("figures").expect("cannot create figures/");

    let mut survey_cache: Option<survey_figs::SurveyFigures> = None;
    let mut survey = |opts: &Opts| -> survey_figs::SurveyFigures {
        survey_cache
            .get_or_insert_with(|| {
                eprintln!("[running four-area survey…]");
                survey_figs::run_surveys(SEED, opts.scales().0)
            })
            .clone()
    };

    if want("table1") {
        let rows: Vec<Vec<String>> = survey(&opts)
            .table1()
            .into_iter()
            .map(|r| vec![r.area, r.measurements.to_string(), r.unique_aps.to_string()])
            .collect();
        println!("== Table 1: summary of collected (synthetic) survey data ==");
        println!(
            "{}",
            text::table(&["Dataset", "# Measurements", "# Unique APs"], &rows)
        );
    }

    if want("fig1a") {
        println!("== Figure 1a: CDF of MAC addresses seen per measurement ==");
        for (area, cdf) in survey(&opts).fig1a() {
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

    if want("fig1b") {
        println!("== Figure 1b: CDF of per-BSSID location spread (m) ==");
        for (area, cdf) in survey(&opts).fig1b() {
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

    if want("fig2") {
        println!("== Figure 2: common APs between measurement pairs vs distance ==");
        for (area, bins) in survey(&opts).fig2(if opts.fast { 20_000 } else { 2_000_000 }) {
            println!("-- {area} --\n{}", text::whisker_table(&bins));
        }
    }

    if want("fig5") {
        println!("== Figure 5: downtown section render ==");
        let map = CityArchetype::SurveyDowntown.generate(SEED);
        let mut rng = SimRng::new(SEED);
        let aps = place_aps(&map, 200.0, &mut rng);
        let apg = ApGraph::build(&aps, 50.0);
        let svg = render::fig5_svg(&map, &aps, &apg);
        write_svg("figures/fig5_downtown.svg", &svg);
        println!(
            "{} buildings, {} APs, mean degree {:.1} — figures/fig5_downtown.svg\n",
            map.len(),
            aps.len(),
            apg.mean_degree()
        );
    }

    if want("fig6") {
        let (_, rpairs, dpairs) = opts.scales();
        eprintln!("[running the eight-city evaluation: {rpairs} reachability / {dpairs} delivery pairs per city…]");
        let fig6 = eval_figs::run_fig6(SEED, rpairs, dpairs);
        println!("== Figure 6: reachability, deliverability, transmission overhead ==");
        let rows: Vec<Vec<String>> = fig6
            .cities
            .iter()
            .map(|c| {
                vec![
                    c.city.clone(),
                    c.buildings.to_string(),
                    c.aps.to_string(),
                    c.components.to_string(),
                    format!("{:.1}%", c.reachability * 100.0),
                    format!("{:.1}%", c.deliverability * 100.0),
                    c.median_overhead
                        .map(|o| format!("{o:.1}x"))
                        .unwrap_or_else(|| "-".into()),
                    c.median_latency_ms
                        .map(|l| format!("{l:.0} ms"))
                        .unwrap_or_else(|| "-".into()),
                ]
            })
            .collect();
        println!(
            "{}",
            text::table(
                &[
                    "city",
                    "buildings",
                    "APs",
                    "islands",
                    "reachable",
                    "deliverable",
                    "overhead",
                    "latency"
                ],
                &rows
            )
        );
        if let Some(pooled) = fig6.pooled_median_overhead() {
            println!("pooled median transmission overhead: {pooled:.1}x  (paper: ~13x)\n");
        }
        if json {
            let doc = citymesh_bench::text::json::Value::Arr(
                fig6.cities
                    .iter()
                    .map(|c| {
                        citymesh_bench::text::json::Value::Obj(vec![
                            (
                                "city".into(),
                                citymesh_bench::text::json::Value::Str(c.city.clone()),
                            ),
                            (
                                "buildings".into(),
                                citymesh_bench::text::json::Value::Int(c.buildings as i64),
                            ),
                            (
                                "aps".into(),
                                citymesh_bench::text::json::Value::Int(c.aps as i64),
                            ),
                            (
                                "islands".into(),
                                citymesh_bench::text::json::Value::Int(c.components as i64),
                            ),
                            (
                                "reachability".into(),
                                citymesh_bench::text::json::Value::Num(c.reachability),
                            ),
                            (
                                "deliverability".into(),
                                citymesh_bench::text::json::Value::Num(c.deliverability),
                            ),
                            (
                                "median_overhead".into(),
                                c.median_overhead
                                    .map(citymesh_bench::text::json::Value::Num)
                                    .unwrap_or(citymesh_bench::text::json::Value::Null),
                            ),
                        ])
                    })
                    .collect(),
            );
            fs::write("figures/fig6.json", doc.render()).expect("write fig6.json");
            println!("wrote figures/fig6.json\n");
        }
        if want("headers") {
            print_headers(&fig6);
        }
    } else if want("headers") {
        let (_, rpairs, dpairs) = opts.scales();
        let fig6 = eval_figs::run_fig6(SEED, rpairs, dpairs);
        print_headers(&fig6);
    }

    if want("fig7") {
        println!("== Figure 7: one simulated delivery ==");
        let map = CityArchetype::SurveyDowntown.generate(SEED);
        let mut rng = SimRng::new(SEED);
        let aps = place_aps(&map, 200.0, &mut rng);
        let apg = ApGraph::build(&aps, 50.0);
        let bg = BuildingGraph::build(&map, BuildingGraphParams::default());
        // A corner-to-corner pair for a long, interesting route.
        let src = map
            .nearest_building(citymesh_geo::Point::new(50.0, 50.0))
            .expect("non-empty map")
            .id;
        let dst = map
            .nearest_building(citymesh_geo::Point::new(700.0, 700.0))
            .expect("non-empty map")
            .id;
        let route = plan_route(&bg, src, dst).expect("downtown is connected");
        let compressed = compress_route(&bg, &route, 50.0).expect("valid width and route");
        let header = CityMeshHeader::new(7, 50.0, compressed.waypoints.clone());
        let src_ap = postbox_ap(&aps, &map, src).expect("source building has APs");
        let report = simulate_delivery(
            &map,
            &apg,
            &header,
            src_ap,
            DeliveryParams::default(),
            &mut rng,
        );
        let svg = render::fig7_svg(&map, &apg, &header, &report);
        write_svg("figures/fig7_delivery.svg", &svg);
        println!(
            "route {} buildings → {} waypoints; delivered={}, {} broadcasts, {} relays — figures/fig7_delivery.svg",
            route.len(),
            compressed.len(),
            report.delivered,
            report.broadcasts,
            report.relay_count()
        );
        println!("{}\n", render::ascii_map(&map, &route, 72));
    }

    if want("mapsize") {
        // The §2 premise quantified: how big is the on-device map
        // cache a phone or AP must hold?
        println!("== device map-cache size (10 mm quantization) ==");
        let mut rows = Vec::new();
        for arch in CityArchetype::cities() {
            let map = arch.generate(SEED);
            let bytes = citymesh_map::encode_map(&map, citymesh_map::DEFAULT_QUANTUM_MM);
            rows.push(vec![
                arch.label().to_string(),
                map.len().to_string(),
                format!("{:.1} KiB", bytes.len() as f64 / 1024.0),
                format!("{:.1}", bytes.len() as f64 / map.len() as f64),
            ]);
        }
        println!(
            "{}",
            text::table(
                &["city", "buildings", "cache size", "bytes/building"],
                &rows
            )
        );
        println!(
            "At these rates a 500k-building metropolis caches in ~15 MB — \
             \"today's devices can easily cache\" it, as §2 claims.\n"
        );
    }

    if want("headers-large") {
        let routes = if opts.fast { 30 } else { 150 };
        eprintln!("[generating a 3.6 km metropolitan map and routing {routes} pairs…]");
        let h = eval_figs::header_stats_at_scale(SEED, routes);
        println!("== §4 header statistics at metropolitan scale (~17k buildings) ==");
        println!(
            "{} routes: median {} bits, 90%ile {} bits, median {} waypoints  (paper: 175 / 225 bits)\n",
            h.routes, h.median_bits, h.p90_bits, h.median_waypoints
        );
    }

    if want("scaling") {
        println!("== §5 scaling: control transmissions per interval/discovery ==");
        let rows: Vec<Vec<String>> = scaling::control_scaling()
            .into_iter()
            .map(|r| {
                vec![
                    r.nodes.to_string(),
                    r.dsdv.to_string(),
                    r.olsr.to_string(),
                    r.aodv.to_string(),
                    r.citymesh.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            text::table(
                &["nodes", "DSDV", "OLSR", "AODV/discovery", "CityMesh"],
                &rows
            )
        );

        println!("== data plane: delivery rate and mean transmissions per scheme ==");
        let pairs = if opts.fast { 12 } else { 40 };
        let rows: Vec<Vec<String>> = scaling::data_plane_comparison(SEED, pairs)
            .into_iter()
            .map(|r| {
                vec![
                    r.scheme,
                    format!("{:.0}%", r.delivery_rate * 100.0),
                    format!("{:.1}", r.mean_tx),
                ]
            })
            .collect();
        println!(
            "{}",
            text::table(&["scheme", "delivered", "mean tx"], &rows)
        );
    }

    if want("ablations") {
        let pairs = if opts.fast { 8 } else { 25 };
        println!("== ablations (Cambridge archetype) ==");
        let sweep_table = |name: &str, points: &[ablation::SweepPoint]| {
            let rows: Vec<Vec<String>> = points
                .iter()
                .map(|p| {
                    vec![
                        format!("{:.0}", p.knob),
                        format!("{:.1}%", p.deliverability * 100.0),
                        p.median_overhead
                            .map(|o| format!("{o:.1}x"))
                            .unwrap_or_else(|| "-".into()),
                        p.median_route_bits
                            .map(|b| b.to_string())
                            .unwrap_or_else(|| "-".into()),
                    ]
                })
                .collect();
            println!(
                "-- {name} --\n{}",
                text::table(&["value", "deliverable", "overhead", "route bits"], &rows)
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
        let loss_points = ablation::sweep_reception_loss(SEED, pairs);
        let rows: Vec<Vec<String>> = loss_points
            .iter()
            .map(|p| {
                vec![
                    format!("{:.0}%", p.knob * 100.0),
                    format!("{:.1}%", p.deliverability * 100.0),
                    p.median_overhead
                        .map(|o| format!("{o:.1}x"))
                        .unwrap_or_else(|| "-".into()),
                ]
            })
            .collect();
        println!(
            "-- per-frame reception loss (redundancy robustness) --\n{}",
            text::table(&["loss", "deliverable", "overhead"], &rows)
        );

        let rows: Vec<Vec<String>> = ablation::sweep_scope(SEED, pairs)
            .into_iter()
            .map(|r| {
                vec![
                    format!("{:?}", r.scope),
                    format!("{:.1}%", r.deliverability * 100.0),
                    r.total_broadcasts.to_string(),
                ]
            })
            .collect();
        println!(
            "-- rebroadcast scope (same pairs, same placement) --\n{}",
            text::table(&["scope", "deliverable", "total broadcasts"], &rows)
        );

        let enc = ablation::encoding_comparison(SEED, if opts.fast { 25 } else { 100 });
        println!(
            "-- route encoding (median bits over {} routes) --",
            enc.routes
        );
        println!(
            "{}",
            text::table(
                &["encoding", "median bits"],
                &[
                    vec![
                        "absolute (paper)".into(),
                        enc.absolute_median_bits.to_string()
                    ],
                    vec!["delta varbits".into(), enc.delta_median_bits.to_string()],
                    vec![
                        "uncompressed route".into(),
                        enc.uncompressed_median_bits.to_string()
                    ],
                ]
            )
        );
    }

    if want("fleet") {
        let sweep = SweepTimer::start();
        let flow_counts: Vec<usize> = match flows_override {
            Some(n) => vec![n],
            None if opts.fast => vec![500, 2_000],
            None => vec![1_000, 10_000, 100_000],
        };
        let worker_counts: Vec<usize> = match workers_override {
            Some(w) => vec![w.max(1)],
            None => vec![1, 4, 8],
        };
        let cold = args.iter().any(|a| a == "--cold");
        eprintln!(
            "[running the fleet heavy-traffic sweep: flows {flow_counts:?} × workers {worker_counts:?}{}…]",
            if cold { ", cold (no warm-up)" } else { "" }
        );
        let figs = fleet_figs::run_fleet_figs(SEED, &flow_counts, &worker_counts, !cold);
        println!(
            "== fleet: heavy-traffic throughput ({}, {} buildings, {} workload) ==",
            figs.city, figs.buildings, figs.model
        );
        let rows: Vec<Vec<String>> = figs
            .runs
            .iter()
            .map(|r| {
                vec![
                    r.flows.to_string(),
                    r.workers.to_string(),
                    format!("{:.0}", r.report.flows_per_sec()),
                    format!("{:.1}%", r.report.delivery_rate() * 100.0),
                    format!(
                        "{:.0}%",
                        100.0 * r.report.cache_hits as f64
                            / (r.report.cache_hits + r.report.cache_misses).max(1) as f64
                    ),
                    format!("{:016x}", r.report.digest()),
                ]
            })
            .collect();
        println!(
            "{}",
            text::table(
                &[
                    "flows",
                    "workers",
                    "flows/s",
                    "delivered",
                    "cache hits",
                    "digest"
                ],
                &rows
            )
        );
        println!("all worker counts agree on every digest: parallel == serial, bit for bit\n");
        fs::write("BENCH_fleet.json", fleet_figs::to_json(&figs).render())
            .expect("write BENCH_fleet.json");
        println!("wrote BENCH_fleet.json");
        sweep.finish("fleet");
    }

    if want("planner") {
        let sweep = SweepTimer::start();
        let pairs = match flows_override {
            Some(n) => n,
            None if opts.fast => 1_500,
            None => 4_000,
        };
        let worker_counts: Vec<usize> = match workers_override {
            Some(w) => vec![w.max(1)],
            None => vec![1, 4, 8],
        };
        eprintln!(
            "[running the planner fast-path sweep: {pairs} pairs × workers {worker_counts:?} \
             × baseline/cold/warm…]"
        );
        let figs = planner_figs::run_planner_figs(SEED, pairs, &worker_counts);
        println!(
            "== planner: fast-path throughput ({}, {} buildings, {} pairs) ==",
            figs.city, figs.buildings, figs.pairs
        );
        let rows: Vec<Vec<String>> = figs
            .runs
            .iter()
            .map(|r| {
                vec![
                    r.mode.label().to_string(),
                    r.workers.to_string(),
                    format!("{:.0}", r.plans_per_sec),
                    format!("{:016x}", r.digest),
                ]
            })
            .collect();
        println!(
            "{}",
            text::table(&["mode", "workers", "plans/s", "digest"], &rows)
        );
        let rate = |mode: planner_figs::PlannerMode| {
            figs.runs
                .iter()
                .find(|r| r.mode == mode && r.workers == worker_counts[0])
                .map(|r| r.plans_per_sec)
                .unwrap_or(0.0)
        };
        let base = rate(planner_figs::PlannerMode::Baseline);
        let warm = rate(planner_figs::PlannerMode::Warm);
        println!(
            "all modes and worker counts agree on every digest: fast path == baseline, bit for bit"
        );
        println!(
            "warm fast path: {:.1}x the pre-fast-path baseline at {} worker(s)\n",
            if base > 0.0 { warm / base } else { 0.0 },
            worker_counts[0]
        );
        fs::write("BENCH_planner.json", planner_figs::to_json(&figs).render())
            .expect("write BENCH_planner.json");
        println!("wrote BENCH_planner.json");
        sweep.finish("planner");
    }

    if want("resilience") {
        let sweep = SweepTimer::start();
        // Failure probabilities swept per archetype; flows per point.
        let failure_ps = [0.0, 0.1, 0.2, 0.3, 0.4];
        let flows = flows_override.unwrap_or(if opts.fast { 150 } else { 500 });
        let worker_counts: Vec<usize> = match workers_override {
            Some(w) => vec![w.max(1)],
            None => vec![1, 4, 8],
        };
        eprintln!(
            "[running the resilience sweep: failure p {failure_ps:?} × 4 archetypes, \
             {flows} flows/point, workers {worker_counts:?}…]"
        );
        let figs = resilience_figs::run_resilience(SEED, &failure_ps, flows, &worker_counts);
        println!("== resilience: delivery under injected AP failures ==");
        for curve in &figs.curves {
            let rows: Vec<Vec<String>> = curve
                .points
                .iter()
                .map(|p| {
                    vec![
                        format!("{:.0}%", p.failure_p * 100.0),
                        format!("{:.1}%", p.failed_fraction * 100.0),
                        format!("{:.1}%", p.delivery_rate * 100.0),
                        format!("{:.1}%", p.delivery_rate_no_retry * 100.0),
                        p.retried.to_string(),
                        p.recovered.to_string(),
                        format!("{:016x}", p.digest),
                    ]
                })
                .collect();
            println!(
                "-- {} ({} buildings) --\n{}",
                curve.archetype,
                curve.buildings,
                text::table(
                    &[
                        "fail p",
                        "APs down",
                        "ladder",
                        "single",
                        "retried",
                        "recovered",
                        "digest"
                    ],
                    &rows
                )
            );
            let path = format!("figures/resilience_{}.svg", curve.archetype);
            write_svg(&path, &resilience_figs::curve_svg(curve));
            println!("wrote {path}");
        }
        println!("every curve degrades monotonically; all worker counts agree on every digest\n");
        fs::write(
            "BENCH_resilience.json",
            resilience_figs::to_json(&figs).render(),
        )
        .expect("write BENCH_resilience.json");
        println!("wrote BENCH_resilience.json");
        sweep.finish("resilience");
    }

    if want("churn") {
        let sweep = SweepTimer::start();
        // Total scheduled events per point; mechanism mix is fixed
        // inside the sweep (half aftershocks, a quarter battery waves,
        // the rest crew repairs).
        let event_levels = [0usize, 2, 4, 8];
        let flows = flows_override.unwrap_or(if opts.fast { 150 } else { 400 });
        let worker_counts: Vec<usize> = match workers_override {
            Some(w) => vec![w.max(1)],
            None => vec![1, 4, 8],
        };
        eprintln!(
            "[running the churn sweep: events {event_levels:?} × 4 archetypes × 3 strategies, \
             {flows} flows/point, workers {worker_counts:?}…]"
        );
        let figs = churn_figs::run_churn_figs(SEED, &event_levels, flows, &worker_counts);
        println!("== churn: delivery and replan cost under a mutating world ==");
        for curve in &figs.curves {
            let rows: Vec<Vec<String>> = curve
                .points
                .iter()
                .flat_map(|p| {
                    p.strategies.iter().map(move |s| {
                        vec![
                            p.events.to_string(),
                            format!("{:.1}", p.churn_rate_hz),
                            s.strategy.to_string(),
                            format!("{:.1}%", s.delivery_rate * 100.0),
                            s.recovered.to_string(),
                            format!("{}/{}", s.evicted_incremental, s.evicted_flush),
                            format!("{}/{}", s.planned_incremental, s.planned_flush),
                            format!("{:016x}", s.digest),
                        ]
                    })
                })
                .collect();
            println!(
                "-- {} ({} buildings) --\n{}",
                curve.archetype,
                curve.buildings,
                text::table(
                    &[
                        "events",
                        "rate/s",
                        "strategy",
                        "delivered",
                        "recovered",
                        "evict inc/flush",
                        "plan inc/flush",
                        "digest"
                    ],
                    &rows
                )
            );
            let path = format!("figures/churn_{}.svg", curve.archetype);
            write_svg(&path, &churn_figs::curve_svg(curve));
            println!("wrote {path}");
        }
        println!(
            "all worker counts and both invalidation policies agree on every digest; \
             incremental eviction cost {} entries vs {} for full flushes\n",
            figs.total_evicted_incremental, figs.total_evicted_flush
        );
        fs::write("BENCH_churn.json", churn_figs::to_json(&figs).render())
            .expect("write BENCH_churn.json");
        println!("wrote BENCH_churn.json");
        sweep.finish("churn");
    }

    if want("telemetry") {
        let sweep = SweepTimer::start();
        let flows = flows_override.unwrap_or(if opts.fast { 150 } else { 500 });
        let worker_counts: Vec<usize> = match workers_override {
            Some(w) => vec![w.max(1)],
            None => vec![1, 4, 8],
        };
        eprintln!(
            "[running the telemetry sweep: {flows} flows, traced at workers {worker_counts:?}…]"
        );
        let figs = telemetry_figs::run_telemetry(SEED, flows, 0.25, &worker_counts);
        println!(
            "== telemetry: zero-perturbation proof + per-rung breakdown ({}, {} buildings) ==",
            figs.city, figs.buildings
        );
        println!(
            "healthy digest {:016x} — identical with tracing off and on",
            figs.healthy_digest
        );
        println!(
            "faulted digest {:016x} (p={:.2}) — identical across workers {worker_counts:?}, \
             traced and untraced; metric fingerprint {:016x}",
            figs.faulted_digest, figs.failure_p, figs.metrics_fingerprint
        );
        let rows: Vec<Vec<String>> = figs
            .rungs
            .iter()
            .map(|r| {
                vec![
                    r.rung.to_string(),
                    r.deliveries.to_string(),
                    r.latency_ms_p50
                        .map(|l| format!("{l:.1} ms"))
                        .unwrap_or_else(|| "-".into()),
                    r.latency_ms_p90
                        .map(|l| format!("{l:.1} ms"))
                        .unwrap_or_else(|| "-".into()),
                    r.mean_overhead
                        .map(|o| format!("{o:.1}x"))
                        .unwrap_or_else(|| "-".into()),
                ]
            })
            .collect();
        println!(
            "{}",
            text::table(
                &["rung", "deliveries", "lat p50", "lat p90", "overhead"],
                &rows
            )
        );
        let rows: Vec<Vec<String>> = figs
            .counters
            .iter()
            .map(|&(name, v)| vec![name.to_string(), v.to_string()])
            .collect();
        println!("{}", text::table(&["counter", "value"], &rows));
        println!(
            "{} postmortems captured ({} ring evictions, high water {})",
            figs.postmortems, figs.trace_dropped, figs.ring_high_water
        );
        if let Some(sample) = &figs.sample_postmortem {
            fs::write("figures/postmortem_sample.json", sample)
                .expect("write figures/postmortem_sample.json");
            println!("wrote figures/postmortem_sample.json");
        }
        fs::write(
            "BENCH_telemetry.json",
            telemetry_figs::to_json(&figs).render(),
        )
        .expect("write BENCH_telemetry.json");
        println!("wrote BENCH_telemetry.json");
        sweep.finish("telemetry");
    }

    if want("metro") {
        let sweep = SweepTimer::start();
        let smoke = args.iter().any(|a| a == "--smoke");
        // (tiles_x, tiles_y, sampled pairs). Pair counts shrink as the
        // flat planner's per-query cost grows with city size.
        // The smoke's largest size is 4x4 (~22k buildings), safely past
        // the flat/hier crossover (up to ~12k buildings the two
        // planners trade within noise) so the hier >= flat gate below
        // cannot flake: the full sweep measures hier at 5.4x there.
        let specs: Vec<(usize, usize, usize)> = if smoke {
            vec![(1, 1, 48), (4, 4, 24)]
        } else if opts.fast {
            vec![(2, 2, 128), (4, 4, 64)]
        } else {
            vec![(2, 2, 256), (4, 4, 128), (7, 7, 96), (10, 10, 64)]
        };
        let worker_counts: Vec<usize> = match workers_override {
            Some(w) => vec![w.max(1)],
            None => vec![1, 4, 8],
        };
        eprintln!(
            "[running the metro hierarchical-routing sweep: tiles {:?} × flat/hier × workers {worker_counts:?}…]",
            specs.iter().map(|s| format!("{}x{}", s.0, s.1)).collect::<Vec<_>>()
        );
        let figs = metro_figs::run_metro_figs(SEED, &specs, &worker_counts);
        println!("== metro: flat vs district-overlay hierarchical routing ==");
        let rows: Vec<Vec<String>> = figs
            .sizes
            .iter()
            .flat_map(|s| {
                s.runs.iter().map(move |r| {
                    vec![
                        format!("{}x{}", s.tiles.0, s.tiles.1),
                        s.buildings.to_string(),
                        s.districts.to_string(),
                        r.mode.label().to_string(),
                        r.workers.to_string(),
                        format!("{:.0}", r.plans_per_sec),
                        format!("{:016x}", r.digest),
                    ]
                })
            })
            .collect();
        println!(
            "{}",
            text::table(
                &[
                    "tiles",
                    "buildings",
                    "districts",
                    "mode",
                    "workers",
                    "plans/s",
                    "digest"
                ],
                &rows
            )
        );
        let rows: Vec<Vec<String>> = figs
            .sizes
            .iter()
            .map(|s| {
                vec![
                    format!("{}x{}", s.tiles.0, s.tiles.1),
                    s.buildings.to_string(),
                    s.aps.to_string(),
                    format!("{:.1}", s.flat_bytes_per_ap()),
                    format!("{:.1}", s.hier_bytes_per_ap()),
                    format!("{:.0}", s.gen_ms),
                    format!("{:.0}", s.graph_ms),
                    format!("{:.0}", s.hier_build_ms),
                ]
            })
            .collect();
        println!(
            "{}",
            text::table(
                &[
                    "tiles",
                    "buildings",
                    "APs",
                    "flat B/AP",
                    "hier B/AP",
                    "gen ms",
                    "graph ms",
                    "hier ms"
                ],
                &rows
            )
        );
        if let Some(largest) = figs.sizes.last() {
            let flat = largest.rate(metro_figs::MetroMode::Flat);
            let hier = largest.rate(metro_figs::MetroMode::Hier);
            println!(
                "largest city ({} buildings): hier {:.1}x the flat planner at {} worker(s)",
                largest.buildings,
                if flat > 0.0 { hier / flat } else { 0.0 },
                worker_counts[0]
            );
            if smoke {
                assert!(
                    hier >= flat,
                    "smoke gate: hier ({hier:.0}/s) must not be slower than flat ({flat:.0}/s) \
                     at the largest smoke size"
                );
                println!("smoke gate passed: hier >= flat at the largest smoke size");
            }
        }
        println!("all worker counts agree on every digest; flat and hier agree on routability\n");
        write_svg(
            "figures/metro_throughput.svg",
            &metro_figs::throughput_svg(&figs),
        );
        write_svg("figures/metro_memory.svg", &metro_figs::memory_svg(&figs));
        println!("wrote figures/metro_throughput.svg and figures/metro_memory.svg");
        fs::write("BENCH_metro.json", metro_figs::to_json(&figs).render())
            .expect("write BENCH_metro.json");
        println!("wrote BENCH_metro.json");
        sweep.finish("metro");
    }

    if want("streaming") {
        let sweep = SweepTimer::start();
        let smoke = args.iter().any(|a| a == "--smoke");
        // Offered load as multiples of the per-scenario estimated
        // capacity; flow counts keep overload points long enough to
        // reach shedding steady state.
        let (multipliers, flat_flows, metro_flows, tiles): (
            Vec<f64>,
            usize,
            usize,
            (usize, usize),
        ) = if smoke {
            (vec![0.4, 2.5], 400, 300, (1, 1))
        } else if opts.fast {
            (vec![0.25, 0.75, 1.5, 3.0], 1_500, 800, (2, 2))
        } else {
            (
                vec![0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0],
                4_000,
                1_500,
                (2, 2),
            )
        };
        let flat_flows = flows_override.unwrap_or(flat_flows);
        let metro_flows = flows_override.unwrap_or(metro_flows);
        let worker_counts: Vec<usize> = match workers_override {
            Some(w) => vec![w.max(1)],
            None => vec![1, 4, 8],
        };
        let scenarios = [
            streaming_figs::StreamScenario {
                label: "downtown-flat",
                metro_tiles: None,
                flows: flat_flows,
            },
            streaming_figs::StreamScenario {
                label: "metro-hier",
                metro_tiles: Some(tiles),
                flows: metro_flows,
            },
        ];
        eprintln!(
            "[running the streaming latency-under-load sweep: load {multipliers:?} x capacity, \
             downtown {flat_flows} / metro-{}x{} {metro_flows} flows per point, \
             workers {worker_counts:?}…]",
            tiles.0, tiles.1
        );
        let figs =
            streaming_figs::run_streaming_figs(SEED, &scenarios, &multipliers, &worker_counts);
        println!(
            "== streaming: sojourn, shedding, and the saturation knee under open-loop load =="
        );
        for curve in &figs.curves {
            let rows: Vec<Vec<String>> = curve
                .points
                .iter()
                .map(|p| {
                    vec![
                        format!("{:.2}x", p.multiplier),
                        format!("{:.0}", p.rate_hz),
                        p.offered.to_string(),
                        format!("{:.1}%", p.shed_rate() * 100.0),
                        format!("{}/{}", p.shed_backpressure, p.shed_deadline),
                        format!("{}/{}", p.degraded_tracing, p.degraded_retry),
                        format!("{:.2}", p.p50_sojourn_ms),
                        format!("{:.2}", p.p99_sojourn_ms),
                        p.max_depth.to_string(),
                        format!("{:016x}", p.digest),
                    ]
                })
                .collect();
            println!(
                "-- {} ({} buildings, {} servers x {} queue, {:.0} ms deadline, \
                 capacity ~{:.0}/s) --\n{}",
                curve.label,
                curve.buildings,
                curve.servers,
                curve.queue_capacity,
                curve.deadline_ms,
                curve.capacity_hz,
                text::table(
                    &[
                        "load", "rate/s", "offered", "shed", "bp/ddl", "rung1/2", "p50 ms",
                        "p99 ms", "depth", "digest"
                    ],
                    &rows
                )
            );
            match curve.knee_multiplier {
                Some(k) => println!("saturation knee at {k:.2}x estimated capacity"),
                None => println!("no saturation knee inside the swept range"),
            }
            let path = format!("figures/streaming_{}.svg", curve.label);
            write_svg(&path, &streaming_figs::curve_svg(curve));
            println!("wrote {path}");
            if smoke {
                let over = curve.points.last().expect("sweep has points");
                assert!(
                    over.multiplier >= 2.0 && over.shed() > 0,
                    "smoke gate: {} must shed explicitly at {:.1}x capacity",
                    curve.label,
                    over.multiplier
                );
                assert_eq!(
                    over.offered,
                    over.admitted + over.shed(),
                    "smoke gate: {} accounting must balance under overload",
                    curve.label
                );
                println!(
                    "smoke gate passed: shed {} of {} offered at {:.1}x, accounting balanced",
                    over.shed(),
                    over.offered,
                    over.multiplier
                );
            }
        }
        println!(
            "all worker counts agree on every digest; every shed flow is counted, \
             p99 stays inside the deadline+service bound\n"
        );
        fs::write(
            "BENCH_streaming.json",
            streaming_figs::to_json(&figs).render(),
        )
        .expect("write BENCH_streaming.json");
        println!("wrote BENCH_streaming.json");
        sweep.finish("streaming");
    }

    if want("crypto") {
        let sweep = SweepTimer::start();
        let smoke = args.iter().any(|a| a == "--smoke");
        let flows = flows_override.unwrap_or(if smoke {
            400
        } else if opts.fast {
            1_000
        } else {
            10_000
        });
        let worker_counts: Vec<usize> = match workers_override {
            Some(w) => vec![w.max(1)],
            None => vec![1, 4, 8],
        };
        eprintln!(
            "[running the secure-message-plane sweep: {flows} flows × workers {worker_counts:?} \
             × plaintext/encrypted-cold/encrypted-warm…]"
        );
        let figs = crypto_figs::run_crypto_figs(SEED, flows, &worker_counts);
        println!(
            "== crypto: secure message plane cost ({}, {} buildings, {} flows) ==",
            figs.city, figs.buildings, figs.flows
        );
        let rows: Vec<Vec<String>> = figs
            .runs
            .iter()
            .map(|r| {
                vec![
                    r.mode.label().to_string(),
                    r.workers.to_string(),
                    format!("{:.0}", r.flows_per_sec),
                    r.keys_derived.to_string(),
                    format!("{:016x}", r.digest),
                ]
            })
            .collect();
        println!(
            "{}",
            text::table(
                &["mode", "workers", "flows/s", "keys derived", "digest"],
                &rows
            )
        );
        let plain = figs.rate(crypto_figs::CryptoMode::Plaintext, worker_counts[0]);
        let warm = figs.rate(crypto_figs::CryptoMode::EncryptedWarm, worker_counts[0]);
        println!(
            "all plaintext digests agree; all encrypted digests agree across cache \
             temperature and workers; both modes deliver the same flow set"
        );
        println!(
            "warm encrypted: {:.2}x plaintext throughput at {} worker(s) \
             (encrypted-downtown digest {:016x})\n",
            if plain > 0.0 { warm / plain } else { 0.0 },
            worker_counts[0],
            figs.encrypted_digest
        );
        if smoke {
            for &w in &worker_counts {
                let plain = figs.rate(crypto_figs::CryptoMode::Plaintext, w);
                let warm = figs.rate(crypto_figs::CryptoMode::EncryptedWarm, w);
                assert!(
                    warm >= 0.5 * plain,
                    "smoke gate: warm encrypted throughput ({warm:.0}/s) must stay within \
                     2x of plaintext ({plain:.0}/s) at {w} worker(s)"
                );
            }
            println!(
                "smoke gate passed: warm encrypted within 2x of plaintext at every worker count"
            );
        }
        fs::write("BENCH_crypto.json", crypto_figs::to_json(&figs).render())
            .expect("write BENCH_crypto.json");
        println!("wrote BENCH_crypto.json");
        sweep.finish("crypto");
    }

    if want("placement") {
        let sweep = SweepTimer::start();
        let smoke = args.iter().any(|a| a == "--smoke");
        let cfg = if smoke {
            placement_figs::PlacementSweepConfig::smoke()
        } else if opts.fast {
            placement_figs::PlacementSweepConfig {
                flows: 200,
                anneal_iters: 24,
                ..placement_figs::PlacementSweepConfig::full()
            }
        } else {
            placement_figs::PlacementSweepConfig::full()
        };
        eprintln!(
            "[running the placement sweep: {} archetype(s), k={}, {} flows/eval, \
             {} anneal iters, digest checks at {:?} workers…]",
            cfg.archetypes.len(),
            cfg.k,
            cfg.flows,
            cfg.anneal_iters,
            cfg.worker_checks
        );
        let figs = placement_figs::run_placement_figs(SEED, &cfg);
        println!("== placement: hardened-site deployment, random vs greedy vs annealed ==");
        for row in &figs.rows {
            let rows: Vec<Vec<String>> = row
                .cells
                .iter()
                .map(|c| {
                    vec![
                        c.strategy.to_string(),
                        c.sites
                            .iter()
                            .map(|s| s.to_string())
                            .collect::<Vec<_>>()
                            .join(","),
                        format!("{:.3}", c.healthy_delivery),
                        format!("{:.3}", c.blackout_delivery),
                        format!("{:.1}", c.blackout_p99_ms),
                        c.evaluations.to_string(),
                        format!("{}/{}", c.accepted_moves, c.proposed_moves),
                        format!("{:016x}", c.digest),
                    ]
                })
                .collect();
            println!(
                "-- {} ({} buildings, {} candidates, k={}, {} evals, {} routes evicted) --\n{}",
                row.label,
                row.buildings,
                row.candidates,
                row.k,
                row.evaluations,
                row.routes_evicted,
                text::table(
                    &[
                        "strategy",
                        "sites",
                        "healthy",
                        "blackout",
                        "bo p99 ms",
                        "evals",
                        "acc/prop",
                        "digest"
                    ],
                    &rows
                )
            );
            println!(
                "blackout delivery gap, annealed - random: {:+.3}",
                row.blackout_gap()
            );
        }
        let wins = figs.archetypes_where_annealed_beats_random();
        println!(
            "annealed beats random on blackout delivery in {wins} of {} archetype(s); \
             every annealed digest reproduced at {:?} workers\n",
            figs.rows.len(),
            figs.worker_checks
        );
        if !smoke && figs.rows.len() >= 4 {
            assert!(
                wins >= 3,
                "placement gate: annealed must beat random on blackout delivery \
                 in at least 3 of {} archetypes, got {wins}",
                figs.rows.len()
            );
        }
        if smoke {
            let row = figs.rows.first().expect("smoke sweeps downtown");
            let annealed = row.cell("annealed").expect("annealed ran");
            let random = row.cell("random").expect("random ran");
            assert!(
                annealed.blackout_delivery >= random.blackout_delivery,
                "smoke gate: annealed blackout delivery {:.3} must not trail random {:.3}",
                annealed.blackout_delivery,
                random.blackout_delivery
            );
            println!(
                "smoke gate passed: annealed blackout delivery {:.3} >= random {:.3}; \
                 annealed-downtown digest {:016x}",
                annealed.blackout_delivery, random.blackout_delivery, annealed.digest
            );
        }
        write_svg(
            "figures/placement_blackout.svg",
            &placement_figs::placement_svg(&figs),
        );
        println!("wrote figures/placement_blackout.svg");
        fs::write(
            "BENCH_placement.json",
            placement_figs::to_json(&figs).render(),
        )
        .expect("write BENCH_placement.json");
        println!("wrote BENCH_placement.json");
        sweep.finish("placement");
    }
}

fn print_headers(fig6: &eval_figs::Fig6) {
    if let Some(h) = fig6.header_stats() {
        println!("== §4 header statistics: compressed source-route size ==");
        println!(
            "{} routes: median {} bits, 90%ile {} bits, median {} waypoints  (paper: 175 / 225 bits)\n",
            h.routes, h.median_bits, h.p90_bits, h.median_waypoints
        );
    }
}

fn write_svg(path: &str, svg: &str) {
    fs::write(Path::new(path), svg).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
}
