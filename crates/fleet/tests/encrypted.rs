//! Property and invariant tests for the encrypted flow mode.
//!
//! The secure message plane is strictly opt-in and must never perturb
//! the simulation itself: delivery outcomes are decided by the same
//! seeded sub-streams whether or not messages are sealed, the sealed
//! counters join the digest only once nonzero, and the warm session-key
//! cache is a pure performance artifact — a warm replay must match a
//! cold run outcome for outcome, bit for bit.

use std::sync::OnceLock;

use citymesh_core::{
    CityExperiment, DeliveryScratch, ExperimentConfig, FlowOpts, PlanScratch, PlannedFlow,
    TamperMode,
};
use citymesh_fleet::{generate_flows, try_run_fleet, FleetConfig, FlowModel, WorkloadConfig};
use citymesh_map::CityArchetype;
use citymesh_simcore::{substream_seed, SimRng};
use proptest::prelude::*;

const DOMAIN_SIM: u64 = 0x51D3;
const DOMAIN_MSG: u64 = 0x3564;

/// One encryption-enabled world shared by all digest-invariance cases:
/// preparing the AP fabric (and the keypair registry) dominates each
/// case's cost and the properties are about the engine, not the city.
fn secure_world() -> &'static CityExperiment {
    static WORLD: OnceLock<CityExperiment> = OnceLock::new();
    WORLD.get_or_init(|| {
        let map = CityArchetype::SurveyDowntown.generate(3);
        let mut exp = CityExperiment::prepare(
            map,
            ExperimentConfig {
                seed: 3,
                ..ExperimentConfig::default()
            },
        );
        exp.enable_encryption();
        exp
    })
}

fn workload(exp: &CityExperiment, flows: usize, seed: u64) -> Vec<citymesh_fleet::FlowSpec> {
    generate_flows(
        exp.map().len(),
        &WorkloadConfig {
            flows,
            model: FlowModel::UniformPairs { rate_hz: 200.0 },
            seed,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline invariant extended to the encrypted mode: 1, 4, and
    /// 8 workers must produce the same digest for any workload even
    /// though the racing workers share one session-key cache (and may
    /// double-derive a pair on a miss race). Equality proves the cache
    /// affects only *when* keys are derived, never what is delivered.
    #[test]
    fn encrypted_digest_is_invariant_under_worker_count(
        seed in any::<u64>(),
        flows in 24usize..96,
    ) {
        let exp = secure_world();
        let wl = workload(exp, flows, seed);
        let digests: Vec<u64> = [1usize, 4, 8]
            .iter()
            .map(|&workers| {
                try_run_fleet(
                    exp,
                    &wl,
                    &FleetConfig {
                        workers,
                        seed,
                        encrypted: true,
                        ..FleetConfig::default()
                    },
                ).unwrap()
                .digest()
            })
            .collect();
        prop_assert_eq!(digests[0], digests[1]);
        prop_assert_eq!(digests[1], digests[2]);
    }

    /// Sealing must not perturb the simulation: an encrypted run and a
    /// plaintext run over the same flows agree on every delivery
    /// statistic. Only the sealed counters (and therefore the digest)
    /// may differ, and the sealed run's rungs deliver what the plain
    /// run's do, as fast and at the same overhead.
    #[test]
    fn encryption_never_perturbs_delivery(
        seed in any::<u64>(),
        flows in 24usize..72,
    ) {
        let exp = secure_world();
        let wl = workload(exp, flows, seed);
        let cfg = FleetConfig { workers: 4, seed, ..FleetConfig::default() };
        let plain = try_run_fleet(exp, &wl, &cfg).unwrap();
        let sealed = try_run_fleet(exp, &wl, &FleetConfig { encrypted: true, ..cfg }).unwrap();
        prop_assert_eq!(plain.delivered, sealed.delivered);
        prop_assert_eq!(&plain.rungs, &sealed.rungs);
        prop_assert_eq!(plain.broadcasts.fingerprint(), sealed.broadcasts.fingerprint());
        prop_assert_eq!(sealed.sealed, wl.len() as u64);
        prop_assert_eq!(sealed.opened, sealed.delivered);
        prop_assert_eq!(sealed.auth_failures, 0);
    }
}

/// A warm session-key cache is invisible to outcomes: replaying the
/// identical flow set against the already-warm cache reproduces the
/// cold run outcome for outcome, and derives no new keys.
#[test]
fn warm_cache_replays_cold_run_outcome_for_outcome() {
    let map = CityArchetype::SurveyDowntown.generate(31);
    let mut exp = CityExperiment::prepare(
        map,
        ExperimentConfig {
            seed: 31,
            ..ExperimentConfig::default()
        },
    );
    exp.enable_encryption();
    let flows = workload(&exp, 64, 31);

    let mut plan_scratch = PlanScratch::new();
    let mut plan = PlannedFlow::empty(0, 0);
    let mut scratch = DeliveryScratch::new();
    let pass = |exp: &CityExperiment,
                plan_scratch: &mut PlanScratch,
                plan: &mut PlannedFlow,
                scratch: &mut DeliveryScratch| {
        flows
            .iter()
            .map(|flow| {
                exp.plan_flow_into(flow.src, flow.dst, plan_scratch, plan);
                let msg_id = substream_seed(31, DOMAIN_MSG, flow.id);
                let mut rng = SimRng::new(substream_seed(31, DOMAIN_SIM, flow.id));
                exp.simulate_flow_secure_with(plan, msg_id, &mut rng, scratch)
            })
            .collect::<Vec<_>>()
    };

    let secure = exp.secure_state().expect("encryption enabled").clone();
    secure.clear_sessions();
    let cold = pass(&exp, &mut plan_scratch, &mut plan, &mut scratch);
    let derived_cold = scratch.keys_derived();
    assert!(derived_cold > 0, "cold pass must derive session keys");

    let warm = pass(&exp, &mut plan_scratch, &mut plan, &mut scratch);
    assert_eq!(
        scratch.keys_derived(),
        derived_cold,
        "warm pass must be pure cache hits"
    );
    assert_eq!(cold, warm, "warm cache must not change any outcome");
}

/// The session cache stores every key it derives; only the route cache
/// waits for a pair's second request. So a cold encrypted round derives
/// exactly one key per distinct unordered pair, whether a pair comes
/// once, again, or reversed.
#[test]
fn a_cold_round_derives_one_key_per_distinct_pair() {
    // Its own world: the shared one's session cache is in use by the
    // cases running beside this one.
    let mut exp = CityExperiment::prepare(
        CityArchetype::SurveyDowntown.generate(41),
        ExperimentConfig {
            seed: 41,
            ..ExperimentConfig::default()
        },
    );
    exp.enable_encryption();
    let flows = generate_flows(
        exp.map().len(),
        &WorkloadConfig {
            flows: 400,
            model: FlowModel::Hotspot {
                hotspots: 8,
                exponent: 1.2,
                rate_hz: 200.0,
            },
            seed: 5,
        },
    );
    let pairs: std::collections::HashSet<(u32, u32)> = flows
        .iter()
        .map(|f| (f.src.min(f.dst), f.src.max(f.dst)))
        .collect();
    assert!(pairs.len() < flows.len(), "the traffic must repeat pairs");
    let cfg = FleetConfig {
        workers: 1,
        seed: 5,
        encrypted: true,
        ..FleetConfig::default()
    };
    let secure = exp.secure_state().expect("encryption enabled");
    for _ in 0..2 {
        secure.clear_sessions();
        let before = secure.session_misses();
        let report = try_run_fleet(&exp, &flows, &cfg).unwrap();
        assert_eq!(report.flows, 400);
        assert_eq!(secure.session_misses() - before, pairs.len() as u64);
        assert_eq!(secure.sessions(), pairs.len());
    }
}

/// Tampering — with the header or the ciphertext — turns a delivered
/// flow into an authentication failure, never into a delivery. Flows
/// the transport loses stay plain losses (nothing reached the receiver
/// to authenticate).
#[test]
fn tampering_yields_auth_failure_never_delivery() {
    let map = CityArchetype::SurveyDowntown.generate(37);
    let mut exp = CityExperiment::prepare(
        map,
        ExperimentConfig {
            seed: 37,
            ..ExperimentConfig::default()
        },
    );
    exp.enable_encryption();
    let flows = workload(&exp, 48, 37);

    let mut scratch = DeliveryScratch::new();
    let mut plan_scratch = PlanScratch::new();
    let mut plan = PlannedFlow::empty(0, 0);
    let mut tampered_any = 0u32;
    for flow in &flows {
        exp.plan_flow_into(flow.src, flow.dst, &mut plan_scratch, &mut plan);
        let msg_id = substream_seed(37, DOMAIN_MSG, flow.id);

        let mut rng = SimRng::new(substream_seed(37, DOMAIN_SIM, flow.id));
        let honest = exp.simulate_flow_secure_with(&plan, msg_id, &mut rng, &mut scratch);

        for mode in [TamperMode::Header, TamperMode::Ciphertext] {
            let mut rng = SimRng::new(substream_seed(37, DOMAIN_SIM, flow.id));
            let opts = FlowOpts {
                sealed: true,
                tamper: Some(mode),
                ..FlowOpts::default()
            };
            let bad = exp.simulate_flow_opts(&plan, msg_id, &mut rng, &mut scratch, opts);
            assert!(bad.sealed);
            assert!(!bad.opened, "tampered messages must never open");
            if honest.delivered {
                assert!(bad.auth_failed, "{mode:?}: tampering must be detected");
                assert!(!bad.delivered, "{mode:?}: auth failure is not delivery");
                assert!(bad.latency.is_none() && bad.overhead.is_none());
                tampered_any += 1;
            } else {
                assert!(
                    !bad.auth_failed,
                    "undelivered flows never reach authentication"
                );
            }
        }
    }
    assert!(
        tampered_any > 0,
        "workload must include delivered flows to exercise tamper detection"
    );
}

/// With encryption enabled on the world but `encrypted: false` in the
/// fleet config, the report is field-identical to a run against a world
/// that never heard of the secure plane — the opt-in surface is the
/// config flag, and merely holding a key registry changes nothing.
#[test]
fn encryption_off_is_field_identical_to_a_plain_world() {
    let seed = 41;
    let map = CityArchetype::SurveyDowntown.generate(seed);
    let plain_exp = CityExperiment::prepare(
        map.clone(),
        ExperimentConfig {
            seed,
            ..ExperimentConfig::default()
        },
    );
    let mut keyed_exp = CityExperiment::prepare(
        map,
        ExperimentConfig {
            seed,
            ..ExperimentConfig::default()
        },
    );
    keyed_exp.enable_encryption();

    let flows = workload(&plain_exp, 96, seed);
    let cfg = FleetConfig {
        workers: 4,
        seed,
        ..FleetConfig::default()
    };
    let plain = try_run_fleet(&plain_exp, &flows, &cfg).unwrap();
    let keyed = try_run_fleet(&keyed_exp, &flows, &cfg).unwrap();

    assert_eq!(plain.digest(), keyed.digest());
    assert_eq!(plain.delivered, keyed.delivered);
    assert_eq!(
        plain.broadcasts.fingerprint(),
        keyed.broadcasts.fingerprint()
    );
    assert_eq!(keyed.sealed, 0);
    assert_eq!(keyed.opened, 0);
    assert_eq!(keyed.auth_failures, 0);
}

/// Plaintext runs never seal, so the sealed block must stay out of the
/// digest — this is what keeps every pre-encryption golden digest
/// (fleet, fault, churn, metro, stream, placement) valid bit for bit.
#[test]
fn plaintext_digest_ignores_sealed_fields() {
    let exp = secure_world();
    let flows = workload(exp, 64, 7);
    let r = try_run_fleet(
        exp,
        &flows,
        &FleetConfig {
            workers: 2,
            seed: 7,
            ..FleetConfig::default()
        },
    )
    .unwrap();
    assert_eq!(r.sealed, 0);
    let mut tweaked = r.clone();
    tweaked.opened = 99;
    tweaked.auth_failures = 7;
    assert_eq!(
        r.digest(),
        tweaked.digest(),
        "with zero sealed messages the secure fields must not perturb the digest"
    );
}

/// Key rotation invalidates exactly the rotated building's sessions:
/// the next encrypted run re-derives those pairs (and only those),
/// while outcomes stay bit-identical — rotation is a key-management
/// event, not a simulation event.
#[test]
fn rotation_re_derives_without_changing_outcomes() {
    let map = CityArchetype::SurveyDowntown.generate(43);
    let mut exp = CityExperiment::prepare(
        map,
        ExperimentConfig {
            seed: 43,
            ..ExperimentConfig::default()
        },
    );
    exp.enable_encryption();
    let flows = workload(&exp, 64, 43);
    let cfg = FleetConfig {
        workers: 2,
        seed: 43,
        encrypted: true,
        ..FleetConfig::default()
    };

    let before = try_run_fleet(&exp, &flows, &cfg).unwrap();
    let victim = flows[0].src;
    let evicted = exp.rotate_keys(victim);
    assert!(evicted > 0, "the victim building must have had sessions");

    let after = try_run_fleet(&exp, &flows, &cfg).unwrap();
    assert_eq!(
        before.digest(),
        after.digest(),
        "rotation must not change what is delivered"
    );
}
