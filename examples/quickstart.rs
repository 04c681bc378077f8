//! Quickstart: Alice sends Bob a message across a synthetic downtown.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use citymesh::prelude::*;

fn main() {
    // 1. A city map. In a deployment this comes from OpenStreetMap;
    //    here we generate a deterministic synthetic downtown.
    let map = CityArchetype::SurveyDowntown.generate(42);
    println!(
        "city: {} — {} buildings over {:.0} m × {:.0} m",
        map.name(),
        map.len(),
        map.bounds().width(),
        map.bounds().height()
    );

    // 2. Deploy CityMesh over it: APs are placed inside footprints at
    //    the paper's density (1 AP / 200 m²), and both graphs are built.
    let mut net = DfnNetwork::new(map, ExperimentConfig::default(), 42).expect("valid config");
    let exp = net.experiment();
    println!(
        "mesh: {} APs, mean radio degree {:.1}, {} island(s)",
        exp.aps().len(),
        exp.ap_graph().mean_degree(),
        exp.ap_graph().num_components()
    );

    // 3. Bob registers a postbox in building 10 and hands Alice his
    //    address out-of-band (it fits in a QR code).
    let bob = net
        .register_user([0xB0; 32], 10)
        .expect("building 10 is on the map");
    let address = bob.address();
    println!(
        "bob: postbox in building {}, self-certifying id {}…",
        address.building_id,
        &bob.node_id().short()
    );

    // 4. Alice, across town in building 200, sends a message. The
    //    sender plans a building route from its cached map, compresses
    //    it into conduit waypoints, seals the payload to Bob's key, and
    //    the event simulation carries it AP to AP.
    let receipt = net.send_text(200, &address, b"safe at the library, meet at 6");
    println!(
        "send: delivered={} attempts={} broadcasts={} waypoints={} header={} bits latency={:?}",
        receipt.delivered,
        receipt.attempts,
        receipt.broadcasts,
        receipt.waypoints,
        receipt.route_bits,
        receipt.latency
    );

    // 5. Bob's phone checks in at the postbox and decrypts.
    for (msg_id, body) in net.check_mailbox(&bob, 10) {
        println!(
            "bob received (msg {:x}): {}",
            msg_id,
            String::from_utf8_lossy(&body)
        );
    }
}
