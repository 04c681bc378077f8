//! Island bridging: the paper's §4 fix for fractured cities.
//!
//! Washington D.C.'s park mall, diagonal corridor, and river split the
//! mesh into islands, capping reachability around 50%. The paper
//! proposes that "the addition of a small number of well-placed APs
//! would serve to bridge connectivity between these islands." This
//! example runs that proposal: plan the bridges, deploy the relay
//! huts, and measure reachability before and after.
//!
//! Run with:
//! ```text
//! cargo run --release --example island_bridging
//! ```

use citymesh::place::{apply_bridges, extend_placement, plan_bridges};
use citymesh::prelude::*;

fn main() {
    let map = CityArchetype::WashingtonDc.generate(13);
    let config = ExperimentConfig {
        seed: 13,
        reachability_pairs: 600,
        delivery_pairs: 20,
        ..ExperimentConfig::default()
    };

    println!("== island bridging: {} ==\n", map.name());
    let before = CityExperiment::prepare(map.clone(), config);
    let result_before = before.run();
    println!(
        "before: {} islands, reachability {:.1}%, deliverability {:.1}%",
        result_before.components,
        result_before.reachability * 100.0,
        result_before.deliverability * 100.0
    );

    // Plan: attach every secondary island to the main one, relays
    // spaced at 80% of the radio range.
    let plan = plan_bridges(before.ap_graph(), 100, 0.8);
    println!(
        "\nplanned {} bridge(s), {} relay AP(s):",
        plan.bridges.len(),
        plan.relay_count()
    );
    for (i, b) in plan.bridges.iter().enumerate() {
        println!(
            "  bridge {}: {:.0} m gap, {} relays ({:?} → {:?})",
            i + 1,
            b.gap_m,
            b.relays.len(),
            before.ap_graph().position(b.from_ap),
            before.ap_graph().position(b.to_ap),
        );
    }

    // Deploy: relay huts join the map (old building IDs preserved, so
    // devices with cached maps stay compatible); the existing AP
    // placement is extended with one AP per hut.
    let relays = plan.relay_positions();
    let bridged_map = apply_bridges(&map, &relays);
    let aps = extend_placement(before.aps(), &bridged_map, &relays);
    let after = CityExperiment::from_parts(bridged_map, aps, config);
    let result_after = after.run();

    println!(
        "\nafter:  {} islands, reachability {:.1}%, deliverability {:.1}%",
        result_after.components,
        result_after.reachability * 100.0,
        result_after.deliverability * 100.0
    );
    println!(
        "\n{} relay APs raised reachability by {:.1} percentage points — the \
         paper's 'small number of well-placed APs', quantified.",
        plan.relay_count(),
        (result_after.reachability - result_before.reachability) * 100.0
    );
}
