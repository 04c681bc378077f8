//! Scale stress: a full-city deployment under sustained traffic.
//!
//! Complements the per-feature tests with one long soak: many users,
//! many messages, retries, pushes, and mailbox churn on a city-sized
//! topology — asserting global invariants (conservation of messages,
//! determinism, no postbox leaks) rather than single behaviours.

use citymesh::prelude::*;

fn city_net(seed: u64) -> DfnNetwork {
    let map = CityArchetype::Cambridge.generate(seed);
    DfnNetwork::new(map, ExperimentConfig::default(), seed).expect("valid config")
}

#[test]
fn soak_many_users_many_messages() {
    let mut net = city_net(1001);
    let n_buildings = net.experiment().map().len() as u32;

    // 20 users spread deterministically across the city.
    let users: Vec<User> = (0..20u32)
        .map(|i| {
            let building = (i * (n_buildings / 20)).min(n_buildings - 1);
            net.register_user([i as u8 + 1; 32], building).unwrap()
        })
        .collect();
    let home = |i: usize| (i as u32 * (n_buildings / 20)).min(n_buildings - 1);

    // 60 messages around the user ring; latencies feed a histogram
    // recorded in ns and read in seconds.
    let mut latencies = citymesh::simcore::Histogram::with_unit(1_000_000_000);
    let mut sent = 0usize;
    let mut delivered = 0usize;
    for round in 0..3usize {
        for i in 0..users.len() {
            let to = &users[(i + round + 1) % users.len()];
            let body = format!("round {round} from {i}");
            let r = net.send_text(home(i), &to.address(), body.as_bytes());
            sent += 1;
            if r.delivered {
                delivered += 1;
                latencies.record(r.latency.expect("delivered has latency").as_nanos());
            }
        }
    }
    assert_eq!(sent, 60);
    // Latency distribution sanity: city-scale deliveries land in the
    // tens-of-milliseconds band and the tail stays bounded.
    let p50 = latencies.quantile(0.5).expect("deliveries happened");
    let p95 = latencies.quantile(0.95).unwrap();
    assert!((0.001..1.0).contains(&p50), "median latency {p50}s");
    assert!(p95 >= p50 && p95 < 10.0, "p95 latency {p95}s");
    // Cambridge is ~95% reachable; most ring messages should land.
    assert!(delivered >= sent / 2, "only {delivered}/{sent} delivered");
    // Conservation: every delivered message is stored exactly once.
    assert_eq!(net.stored_messages(), delivered);

    // Everyone drains their mailbox; totals must reconcile.
    let mut read = 0usize;
    for (i, u) in users.iter().enumerate() {
        for (_, body) in net.check_mailbox(u, home(i)) {
            assert!(std::str::from_utf8(&body).unwrap().starts_with("round"));
            read += 1;
        }
    }
    assert_eq!(
        read, delivered,
        "mailboxes must hold exactly the delivered set"
    );
    assert_eq!(net.stored_messages(), 0, "drained mailboxes must be empty");
}

#[test]
fn soak_is_deterministic() {
    let run = || {
        let mut net = city_net(2002);
        let a = net.register_user([1; 32], 5).unwrap();
        let b = net.register_user([2; 32], 400).unwrap();
        let mut log = Vec::new();
        for i in 0..10 {
            let (from, to) = if i % 2 == 0 { (5, &b) } else { (400, &a) };
            let r = net.send_text(from, &to.address(), b"ping");
            log.push((r.delivered, r.broadcasts, r.route_bits));
        }
        log
    };
    assert_eq!(run(), run());
}

#[test]
fn retry_budget_is_respected_under_impossible_routes() {
    // A recipient on an unreachable island, in a damaged city whose
    // scenario carries the full ladder: retries must stop at the
    // budget, not spin.
    let map = CityArchetype::Houston.generate(3003); // many islands
    let config = ExperimentConfig {
        faults: Some(FaultScenario::iid(0.1)),
        ..ExperimentConfig::default()
    };
    let mut net = DfnNetwork::new(map, config, 3003).expect("valid config");
    // Find a cross-island pair.
    let exp = net.experiment();
    let src = 0u32;
    let Some(dst) =
        (1..exp.map().len() as u32).find(|b| !exp.ap_graph().buildings_reachable(src, *b))
    else {
        return; // this seed produced a connected Houston; nothing to do
    };
    let bob = net.register_user([9; 32], dst).unwrap();
    let receipt = net.send_text(src, &bob.address(), b"into the void");
    assert!(receipt.attempts <= RetryPolicy::ladder().max_attempts);
    assert!(!receipt.delivered);
    assert_eq!(net.stored_messages(), 0);
}
