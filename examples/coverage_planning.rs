//! Coverage planning: sweep the deployment knobs for one city.
//!
//! A civil-preparedness office asking "would CityMesh work here, and
//! what does it take?" needs the trade-off surfaces behind the paper's
//! Figure 6: how reachability, deliverability, and transmission
//! overhead respond to AP density, transmission range, and the conduit
//! width `W`. This example sweeps each knob and prints the tables.
//!
//! Run with:
//! ```text
//! cargo run --release --example coverage_planning
//! ```

use citymesh::core::{CityExperiment, ExperimentConfig};
use citymesh::prelude::*;

fn run(config: ExperimentConfig, map: &CityMap) -> (f64, f64, Option<f64>) {
    let exp = CityExperiment::prepare(map.clone(), config);
    let result = exp.run();
    (
        result.reachability,
        result.deliverability,
        result.median_overhead,
    )
}

fn fmt_overhead(o: Option<f64>) -> String {
    o.map(|v| format!("{v:.1}×")).unwrap_or_else(|| "—".into())
}

fn main() {
    let map = CityArchetype::Cambridge.generate(11);
    println!(
        "== coverage planning for {} ({} buildings) ==\n",
        map.name(),
        map.len()
    );
    let base = ExperimentConfig {
        reachability_pairs: 400,
        delivery_pairs: 25,
        seed: 11,
        ..ExperimentConfig::default()
    };

    println!("-- AP density sweep (range 50 m, W 50 m) --");
    println!(
        "{:>12} {:>12} {:>14} {:>10}",
        "m²/AP", "reachable", "deliverable", "overhead"
    );
    for m2_per_ap in [100.0, 200.0, 400.0, 800.0] {
        let (r, d, o) = run(ExperimentConfig { m2_per_ap, ..base }, &map);
        println!(
            "{m2_per_ap:>12.0} {:>11.1}% {:>13.1}% {:>10}",
            r * 100.0,
            d * 100.0,
            fmt_overhead(o)
        );
    }

    println!("\n-- transmission range sweep (1 AP / 200 m², W = range) --");
    println!(
        "{:>12} {:>12} {:>14} {:>10}",
        "range (m)", "reachable", "deliverable", "overhead"
    );
    for range_m in [30.0, 50.0, 80.0] {
        let cfg = ExperimentConfig {
            range_m,
            conduit_width_m: range_m,
            ..base
        };
        let (r, d, o) = run(cfg, &map);
        println!(
            "{range_m:>12.0} {:>11.1}% {:>13.1}% {:>10}",
            r * 100.0,
            d * 100.0,
            fmt_overhead(o)
        );
    }

    println!("\n-- conduit width sweep (range 50 m, 1 AP / 200 m²) --");
    println!(
        "{:>12} {:>14} {:>10}   (wider = more tolerant, more broadcasts)",
        "W (m)", "deliverable", "overhead"
    );
    for conduit_width_m in [25.0, 50.0, 75.0, 100.0] {
        let (_, d, o) = run(
            ExperimentConfig {
                conduit_width_m,
                ..base
            },
            &map,
        );
        println!(
            "{conduit_width_m:>12.0} {:>13.1}% {:>10}",
            d * 100.0,
            fmt_overhead(o)
        );
    }

    println!(
        "\nReading the tables: reachability is a property of the AP fabric \
         (density × range); deliverability is what the building-routing \
         algorithm extracts from it; overhead is the price in duplicate \
         broadcasts. The paper's operating point — 1 AP / 200 m², 50 m range, \
         W = 50 m — sits where deliverability saturates."
    );
}
