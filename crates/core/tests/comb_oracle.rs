//! The registry's comb against the ladder, at benchmark scale.
//!
//! A session derivation runs X25519 on the peer's comb table
//! (`citymesh_crypto::PeerTable`) instead of the Montgomery ladder. On
//! the benchmark downtown (the `SurveyDowntown` archetype at world seed
//! 2024, 530 buildings) every unordered registry pair's session key
//! must equal `SessionKey::derive`'s, which runs the ladder: 140,185
//! pairs in release (≈ 12 s on 2 threads), every 97th in debug. Each
//! pair is derived twice: alone (`SecureState::session`, a batch of
//! one) and in a batch of 32 (`SecureState::derive_sessions`, the
//! fleet engine's claim chunk) on a second registry from the same seed.
//!
//! The same world shows where key generation happens: a plaintext run
//! never builds the base point's table, and `enable_encryption` does.
//!
//! ```bash
//! cargo test --release -p citymesh-core --test comb_oracle
//! ```

use citymesh_core::{CityExperiment, ExperimentConfig, SecureState, SessionScratch};
use citymesh_crypto::{x25519::base_table_built, SessionKey};
use citymesh_fleet::{generate_flows, try_run_fleet, FleetConfig, FlowModel, WorkloadConfig};
use citymesh_map::CityArchetype;

/// One test, so nothing else in this process generates a key before
/// the plaintext half has looked.
#[test]
fn plaintext_generates_no_key_and_every_registry_pair_takes_the_comb() {
    let map = CityArchetype::SurveyDowntown.generate(2024);
    let config = ExperimentConfig {
        seed: 2024,
        ..ExperimentConfig::default()
    };
    let mut exp =
        CityExperiment::try_prepare(map, config).expect("the benchmark's config is valid");
    let flows = generate_flows(
        exp.map().len(),
        &WorkloadConfig {
            flows: 200,
            model: FlowModel::UniformPairs { rate_hz: 1_000.0 },
            seed: 1,
        },
    );
    let plaintext = try_run_fleet(&exp, &flows, &FleetConfig::default()).expect("plaintext run");
    assert_eq!(plaintext.flows, 200);
    assert!(
        !base_table_built(),
        "a plaintext set-up or run generated a key"
    );
    exp.enable_encryption();
    assert!(
        base_table_built(),
        "enable_encryption generates the registry"
    );

    let state = exp.secure_state().expect("encryption enabled");
    let n = state.buildings() as u32;
    assert_eq!(n, 530);
    let stride = if cfg!(debug_assertions) { 97 } else { 1 };
    let pairs: Vec<(u32, u32)> = (0..n)
        .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
        .step_by(stride)
        .collect();
    if stride == 1 {
        assert_eq!(pairs.len(), 140_185);
    }
    let keys: Vec<_> = (0..n).map(|b| state.keypair(b)).collect();
    let batched = SecureState::new(2024, n as usize);
    assert!(
        (0..n).all(|b| batched.public_key(b) == keys[b as usize].public),
        "a second registry from the same seed holds the same keys"
    );
    let threads = std::thread::available_parallelism()
        .map_or(1, |t| t.get())
        .min(4);
    let mismatches: usize = std::thread::scope(|scope| {
        let workers: Vec<_> = pairs
            .chunks(pairs.len().div_ceil(threads))
            .map(|part| {
                let (keys, batched) = (&keys, &batched);
                scope.spawn(move || {
                    let mut scratch = SessionScratch::new();
                    part.chunks(32)
                        .map(|chunk| {
                            let fresh =
                                batched.derive_sessions(chunk.iter().copied(), &mut scratch);
                            let wrong = chunk
                                .iter()
                                .filter(|&&(a, b)| {
                                    let ladder = SessionKey::derive(
                                        &keys[a as usize],
                                        &keys[b as usize].public,
                                    )
                                    .expect("registry keys are never degenerate");
                                    let (alone, derived) = state.session(a, b);
                                    let (in_batch, again) = batched.session(a, b);
                                    !derived || again || *alone != ladder || *in_batch != ladder
                                })
                                .count();
                            wrong + chunk.len() - fresh as usize
                        })
                        .sum::<usize>()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("oracle worker"))
            .sum()
    });
    assert_eq!(
        mismatches, 0,
        "pairs whose comb key differs from the ladder's"
    );
    assert_eq!(state.sessions(), pairs.len());
    assert_eq!(batched.sessions(), pairs.len());
    assert_eq!(batched.session_misses(), pairs.len() as u64);
}
