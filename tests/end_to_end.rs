//! End-to-end integration: the full Alice → Bob pipeline across every
//! crate — map generation, routing, conduit compression, the wire
//! header, the event simulation, sealed-message crypto, and postboxes.

use citymesh::core::{
    compress_route, plan_route, postbox_ap, reconstruct_conduits, simulate_delivery_faulted,
    CityExperiment, CoveredSet, DeliveryScratch, ExperimentConfig, Relays,
};
use citymesh::crypto::Keypair;
use citymesh::net::{BitReader, BitWriter, CityMeshHeader};
use citymesh::prelude::*;

fn downtown() -> DfnNetwork {
    let map = CityArchetype::SurveyDowntown.generate(99);
    DfnNetwork::new(map, ExperimentConfig::default(), 99).expect("valid config")
}

#[test]
fn message_crosses_the_city_and_decrypts() {
    let mut net = downtown();
    let bob = net.register_user([0xB0; 32], 5).unwrap();
    let far_building = (net.experiment().map().len() - 5) as u32;
    let receipt = net.send_text(far_building, &bob.address(), b"corner to corner");
    assert!(receipt.delivered);
    assert!(receipt.waypoints >= 2, "a cross-city route needs waypoints");
    assert!(receipt.broadcasts > 10, "a cross-city route needs relays");
    let inbox = net.check_mailbox(&bob, 5);
    assert_eq!(inbox.len(), 1);
    assert_eq!(inbox[0].1, b"corner to corner");
}

#[test]
fn payload_survives_wire_framing_end_to_end() {
    // Serialize the exact header a sender would emit, decode it as a
    // relay would, and verify it drives identical conduits.
    let map = CityArchetype::SurveyDowntown.generate(7);
    let exp = CityExperiment::prepare(
        map,
        ExperimentConfig {
            seed: 7,
            ..ExperimentConfig::default()
        },
    );
    let route = plan_route(exp.building_graph(), 0, (exp.map().len() - 1) as u32)
        .expect("downtown is connected");
    let compressed = compress_route(exp.building_graph(), &route, 50.0).unwrap();
    let header = CityMeshHeader::new(424242, 50.0, compressed.waypoints.clone());
    let mut w = BitWriter::new();
    header.encode(&mut w).expect("encodes");
    let wire = w.into_bytes();
    let decoded = CityMeshHeader::decode(&mut BitReader::new(&wire)).expect("decodes");
    assert_eq!(decoded, header);

    let sender_conduits = reconstruct_conduits(exp.map(), &header.waypoints, 50.0);
    let relay_conduits = reconstruct_conduits(exp.map(), &decoded.waypoints, 50.0);
    assert_eq!(sender_conduits.len(), relay_conduits.len());
    for (a, b) in sender_conduits.iter().zip(&relay_conduits) {
        assert_eq!(a.spine, b.spine);
        assert_eq!(a.width, b.width);
    }
}

#[test]
fn full_pipeline_is_deterministic() {
    let run = || {
        let mut net = downtown();
        let bob = net.register_user([0xB0; 32], 5).unwrap();
        let r = net.send_text(100, &bob.address(), b"det");
        (r.delivered, r.broadcasts, r.route_bits, r.latency)
    };
    assert_eq!(run(), run());
}

#[test]
fn tampered_ciphertext_is_rejected_but_stored() {
    // A compromised relay flips payload bits. The postbox (which
    // cannot read the message) still stores it; the recipient's
    // integrity check rejects it.
    let bob_keys = Keypair::from_entropy([0xB0; 32]);
    let addr = PostboxAddress {
        public_key: bob_keys.public,
        building_id: 3,
    };
    let sealed =
        citymesh::crypto::SealedMessage::seal(&addr, [0x11; 32], b"aad", b"the real message")
            .unwrap();
    let mut tampered = sealed.clone();
    tampered.ciphertext[4] ^= 0x40;

    let mut pb = Postbox::with_defaults();
    pb.register(bob_keys.node_id());
    pb.deposit(bob_keys.node_id(), 1, tampered, SimTime::ZERO)
        .unwrap();
    let (opened, failed) = pb
        .retrieve_and_open(&bob_keys, 3, |_| b"aad".to_vec())
        .unwrap();
    assert!(opened.is_empty());
    assert_eq!(failed, vec![1]);

    // The untampered copy arrives later (network retry) and opens.
    pb.deposit(bob_keys.node_id(), 2, sealed, SimTime::ZERO)
        .unwrap();
    let (opened, _) = pb
        .retrieve_and_open(&bob_keys, 3, |_| b"aad".to_vec())
        .unwrap();
    assert_eq!(opened.len(), 1);
    assert_eq!(opened[0].1, b"the real message");
}

#[test]
fn delivery_report_roles_are_consistent_with_counts() {
    let map = CityArchetype::SurveyDowntown.generate(11);
    let exp = CityExperiment::prepare(
        map,
        ExperimentConfig {
            seed: 11,
            ..ExperimentConfig::default()
        },
    );
    let dst = (exp.map().len() / 2) as u32;
    let route = plan_route(exp.building_graph(), 0, dst).unwrap();
    let compressed = compress_route(exp.building_graph(), &route, 50.0).unwrap();
    let header = CityMeshHeader::new(1, 50.0, compressed.waypoints);
    let src_ap = postbox_ap(exp.aps(), exp.map(), 0).unwrap();
    let conduits = reconstruct_conduits(exp.map(), &header.waypoints, header.conduit_width_m());
    let mut scratch = DeliveryScratch::new();
    let report = simulate_delivery_faulted(
        exp.ap_graph(),
        &header,
        Relays::Covered(&CoveredSet::of(exp.map(), &conduits)),
        src_ap,
        0.0,
        None,
        SimRng::new(1).next_u64(),
        &mut scratch,
    );
    assert!(report.delivered);
    // Broadcast count equals the number of APs with the Relayed role:
    // every relay transmits exactly once (duplicate suppression).
    assert_eq!(report.relay_count() as u64, report.broadcasts);
    // Receptions ≥ broadcasts (each broadcast reaches ≥ 0 neighbors,
    // and the mesh is dense).
    assert!(report.receptions > report.broadcasts);
}

#[test]
fn many_users_share_the_network() {
    let mut net = downtown();
    let users: Vec<User> = (0..8u8)
        .map(|i| net.register_user([i + 1; 32], (i as u32) * 20).unwrap())
        .collect();
    // Everyone messages the next user around the ring.
    let mut delivered = 0;
    for i in 0..users.len() {
        let to = &users[(i + 1) % users.len()];
        let from_building = (i as u32) * 20;
        let r = net.send_text(
            from_building,
            &to.address(),
            format!("hi from {i}").as_bytes(),
        );
        if r.delivered {
            delivered += 1;
        }
    }
    assert!(
        delivered >= 7,
        "downtown ring should mostly deliver, got {delivered}/8"
    );
    // Everyone reads their mail.
    let mut read = 0;
    for (i, u) in users.iter().enumerate() {
        read += net.check_mailbox(u, (i as u32) * 20).len();
    }
    assert_eq!(read, delivered);
}
