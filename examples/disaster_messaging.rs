//! Disaster-scenario messaging: the paper's §2 motivating workload.
//!
//! A storm has taken down backhaul across a Washington-D.C.-like city
//! — the archetype the paper highlights because its park mall, river,
//! and a highway corridor fracture the mesh into islands — and the
//! storm itself has blacked out one district and knocked out a fifth
//! of the remaining APs (the `FaultScenario` below). Residents use
//! CityMesh for exactly the traffic the paper describes: safety
//! check-ins with family, and push-notified urgent messages. Senders
//! plan on their pre-storm map, so a message through the damage climbs
//! the retry ladder (re-send → widen → replan; `attempts` in each
//! receipt). The example shows island-internal delivery, recovery by
//! retry, and honest failures — across island boundaries and into the
//! dark.
//!
//! Run with:
//! ```text
//! cargo run --release --example disaster_messaging
//! ```

use citymesh::prelude::*;

fn main() {
    let map = CityArchetype::WashingtonDc.generate(7);
    println!("== CityMesh disaster messaging: {} ==", map.name());

    let storm = FaultScenario {
        ap_failure_p: 0.2,
        ..FaultScenario::district_blackouts(1, 300.0)
    };
    let config = ExperimentConfig {
        faults: Some(storm),
        ..ExperimentConfig::default()
    };
    let mut net = DfnNetwork::new(map, config, 7).expect("valid config");
    let exp = net.experiment();
    let islands = exp.ap_graph().num_components();
    let damage = exp.fault_state().expect("the config carries a scenario");
    println!(
        "{} buildings, {} APs — the obstacles fracture the mesh into {} island(s)",
        exp.map().len(),
        exp.aps().len(),
        islands
    );
    println!(
        "the storm: {} APs down ({:.0}%), {} buildings fully dark\n",
        damage.failed_count(),
        100.0 * damage.failed_fraction(),
        damage.blocked_buildings().count()
    );

    // A family spread across the city. Mom anchors the NW quarter;
    // dad is picked on *her* island but far away (deliverable), and
    // the kid is picked on a *different* island (honest failure — the
    // paper's bridge-AP motivation).
    let mom_building = net
        .experiment()
        .map()
        .nearest_building(Point::new(150.0, 1350.0))
        .expect("map is non-empty")
        .id;
    let mom_pos = net
        .experiment()
        .map()
        .building(mom_building)
        .unwrap()
        .centroid;
    let same_island_far = net
        .experiment()
        .map()
        .buildings()
        .iter()
        .filter(|b| {
            net.experiment()
                .ap_graph()
                .buildings_reachable(mom_building, b.id)
        })
        .max_by(|a, b| {
            a.centroid
                .dist(mom_pos)
                .partial_cmp(&b.centroid.dist(mom_pos))
                .expect("finite distances")
        })
        .expect("island has buildings")
        .id;
    let other_island = net
        .experiment()
        .map()
        .buildings()
        .iter()
        .find(|b| {
            !net.experiment()
                .ap_graph()
                .buildings_reachable(mom_building, b.id)
        })
        .map(|b| b.id);
    let dad_building = same_island_far;
    let kid_building = other_island.unwrap_or(dad_building);

    let mom = net
        .register_user([1; 32], mom_building)
        .expect("on the map");
    let dad = net
        .register_user([2; 32], dad_building)
        .expect("on the map");
    let kid = net
        .register_user([3; 32], kid_building)
        .expect("on the map");

    println!("mom  @ building {mom_building}");
    println!("dad  @ building {dad_building}");
    println!("kid  @ building {kid_building}\n");

    // Everyone checks in once so postboxes know where to push.
    net.check_mailbox(&mom, mom_building);
    net.check_mailbox(&dad, dad_building);
    net.check_mailbox(&kid, kid_building);

    // Safety check-ins fan out.
    let exchanges: Vec<(&str, u32, &User, &[u8])> = vec![
        (
            "mom → dad",
            mom_building,
            &dad,
            b"power is out but we are fine",
        ),
        (
            "mom → kid",
            mom_building,
            &kid,
            b"stay at school until dark",
        ),
        (
            "kid → mom",
            kid_building,
            &mom,
            b"ok. gym has water + charging",
        ),
        (
            "dad → mom",
            dad_building,
            &mom,
            b"bridge closed, walking north",
        ),
    ];

    let mut receipts = Vec::new();
    for (label, from, to_user, body) in exchanges {
        let receipt = net.send_text(from, &to_user.address(), body);
        println!(
            "{label:<10}  delivered={:<5}  attempts={}  broadcasts={:>4}  header={:>3} bits  latency={}",
            receipt.delivered,
            receipt.attempts,
            receipt.broadcasts,
            receipt.route_bits,
            receipt
                .latency
                .map(|t| format!("{:.1} ms", t.as_millis_f64()))
                .unwrap_or_else(|| "—".into()),
        );
        receipts.push((from, to_user.address().building_id, receipt));
    }

    println!();
    for (user, name, building) in [
        (&mom, "mom", mom_building),
        (&dad, "dad", dad_building),
        (&kid, "kid", kid_building),
    ] {
        let inbox = net.check_mailbox(user, building);
        for (_, body) in &inbox {
            println!("{name} reads: {}", String::from_utf8_lossy(body));
        }
        if inbox.is_empty() {
            println!("{name}: inbox empty");
        }
    }

    // Where would an urgent push for each user go?
    println!();
    for (user, name) in [(&mom, "mom"), (&dad, "dad"), (&kid, "kid")] {
        match net.push_target(user) {
            Some(b) => println!("urgent pushes for {name} route to building {b}"),
            None => println!("{name} has pushes disabled"),
        }
    }

    // Ground truth for each failure: were the two buildings ever
    // connected (the pre-storm AP graph), or is this the storm?
    let apg = net.experiment().ap_graph();
    let failed: Vec<_> = receipts.iter().filter(|(_, _, r)| !r.delivered).collect();
    let across_islands = failed
        .iter()
        .filter(|(from, to, _)| !apg.buildings_reachable(*from, *to))
        .count();
    let retried = receipts
        .iter()
        .filter(|(_, _, r)| r.delivered && r.attempts > 1)
        .count();
    println!(
        "\n{} of {} messages delivered, {} of them only after a retry.",
        receipts.len() - failed.len(),
        receipts.len(),
        retried
    );
    if across_islands > 0 {
        println!(
            "{across_islands} failure(s) cross island boundaries — no retry can help; the \
             paper's proposed fix is a handful of bridge APs across the park/river gaps (§4)."
        );
    }
    if failed.len() > across_islands {
        println!(
            "{} failure(s) are storm damage on a connected island: the ladder ran out \
             (attempts = 4) or an endpoint building is dark (attempts = 0).",
            failed.len() - across_islands
        );
    }
}
