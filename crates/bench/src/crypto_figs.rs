//! Secure message plane cost figures (`figures -- crypto`).
//!
//! Measures fleet throughput (flows/sec) on the downtown archetype in
//! three modes over the identical flow set:
//!
//! * **plaintext** — the ordinary pipeline; no sealing anywhere.
//! * **encrypted-cold** — `FleetConfig::encrypted` with the session-key
//!   cache cleared immediately before the timed run, so every pair pays
//!   its X25519 + HKDF derivation inside the measurement.
//! * **encrypted-warm** — the same encrypted run against the
//!   already-warm cache: the steady state, where sealing costs one
//!   ChaCha20-Poly1305 seal + open and two header MACs per flow and the
//!   key schedule is a shard read-lock plus an `Arc` clone.
//!
//! Every run records the fleet report digest. All plaintext digests
//! must agree with each other, all encrypted digests (cold *and* warm)
//! must agree with each other, and both modes must deliver identical
//! flow sets — proving on every CI run that sealing, cache temperature,
//! and worker count never perturb what the simulation decides. The data
//! lands in `BENCH_crypto.json` via [`to_json`].

use std::time::Instant;

use citymesh_core::{CityExperiment, ExperimentConfig};
use citymesh_fleet::{generate_flows, try_run_fleet, FleetConfig, FlowModel, WorkloadConfig};
use citymesh_map::CityArchetype;

use crate::text::json::Value;

/// How a run treats the message plane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CryptoMode {
    /// No sealing: the pre-existing pipeline.
    Plaintext,
    /// Encrypted with an empty session-key cache (derivation on-path).
    EncryptedCold,
    /// Encrypted against the warm cache (the steady state).
    EncryptedWarm,
}

impl CryptoMode {
    /// Stable label used in JSON and tables.
    pub fn label(self) -> &'static str {
        match self {
            CryptoMode::Plaintext => "plaintext",
            CryptoMode::EncryptedCold => "encrypted-cold",
            CryptoMode::EncryptedWarm => "encrypted-warm",
        }
    }
}

/// One measured `(mode, workers)` point.
pub struct CryptoRun {
    /// Message-plane mode.
    pub mode: CryptoMode,
    /// Worker threads used.
    pub workers: usize,
    /// Flows simulated per wall-clock second.
    pub flows_per_sec: f64,
    /// Session keys derived during this run (0 in plaintext and — bar
    /// a rare miss race — in warm runs; one per active pair when cold).
    pub keys_derived: u64,
    /// Fleet report digest of the run.
    pub digest: u64,
}

/// The full crypto-cost sweep.
pub struct CryptoFigures {
    /// City the flows were drawn from.
    pub city: String,
    /// Building count of that city.
    pub buildings: usize,
    /// Flows per run.
    pub flows: usize,
    /// Digest shared by every plaintext run.
    pub plaintext_digest: u64,
    /// Digest shared by every encrypted run, cold or warm.
    pub encrypted_digest: u64,
    /// Every `(mode, workers)` run, in sweep order.
    pub runs: Vec<CryptoRun>,
}

impl CryptoFigures {
    /// Throughput of `(mode, workers)`, or 0 when that run is absent.
    pub fn rate(&self, mode: CryptoMode, workers: usize) -> f64 {
        self.runs
            .iter()
            .find(|r| r.mode == mode && r.workers == workers)
            .map(|r| r.flows_per_sec)
            .unwrap_or(0.0)
    }
}

/// Runs the crypto-cost sweep: for each mode, one run per worker
/// count, over one shared deterministic flow set.
///
/// # Panics
/// Panics if any two same-mode runs disagree on the digest, or if the
/// encrypted runs do not deliver exactly the plaintext flow set — a
/// benchmark must not report throughput for results that are wrong.
pub fn run_crypto_figs(seed: u64, n_flows: usize, worker_counts: &[usize]) -> CryptoFigures {
    let map = CityArchetype::SurveyDowntown.generate(seed);
    let city = map.name().to_string();
    let buildings = map.len();
    let mut exp = CityExperiment::prepare(
        map,
        ExperimentConfig {
            seed,
            ..ExperimentConfig::default()
        },
    );
    exp.enable_encryption();
    let flows = generate_flows(
        exp.map().len(),
        &WorkloadConfig {
            flows: n_flows,
            model: FlowModel::UniformPairs { rate_hz: 200.0 },
            seed,
        },
    );
    let cfg_for = |mode: CryptoMode, workers: usize| FleetConfig {
        workers,
        seed,
        encrypted: mode != CryptoMode::Plaintext,
        ..FleetConfig::default()
    };

    // Unmeasured warm-up: settle the allocator, fault in the lazily
    // built tables, and derive every active pair's session key so the
    // first warm run really is warm.
    let secure = exp.secure_state().expect("encryption enabled").clone();
    try_run_fleet(
        &exp,
        &flows,
        &cfg_for(CryptoMode::Plaintext, worker_counts[0]),
    )
    .expect("sweep config matches the world it prepared");
    try_run_fleet(
        &exp,
        &flows,
        &cfg_for(CryptoMode::EncryptedWarm, worker_counts[0]),
    )
    .expect("sweep config matches the world it prepared");

    let mut runs = Vec::new();
    let mut plaintext = None;
    let mut encrypted: Option<(u64, u64)> = None; // (digest, delivered)
    for mode in [
        CryptoMode::Plaintext,
        CryptoMode::EncryptedCold,
        CryptoMode::EncryptedWarm,
    ] {
        for &workers in worker_counts {
            if mode == CryptoMode::EncryptedCold {
                secure.clear_sessions();
            } else if mode == CryptoMode::EncryptedWarm {
                assert!(
                    secure.sessions() > 0,
                    "warm runs must start with a populated session cache"
                );
            }
            let misses_before = secure.session_misses();
            let start = Instant::now();
            let report = try_run_fleet(&exp, &flows, &cfg_for(mode, workers))
                .expect("sweep config matches the world it prepared");
            let elapsed = start.elapsed().as_secs_f64();
            let digest = report.digest();
            match mode {
                CryptoMode::Plaintext => {
                    let d = *plaintext.get_or_insert((digest, report.delivered));
                    assert_eq!(d, (digest, report.delivered), "plaintext runs disagree");
                }
                CryptoMode::EncryptedCold | CryptoMode::EncryptedWarm => {
                    assert_eq!(report.sealed, flows.len() as u64, "every flow must seal");
                    assert_eq!(report.auth_failures, 0, "honest runs never fail auth");
                    let d = *encrypted.get_or_insert((digest, report.delivered));
                    assert_eq!(
                        d,
                        (digest, report.delivered),
                        "encrypted runs disagree across cache temperature or workers"
                    );
                }
            }
            runs.push(CryptoRun {
                mode,
                workers,
                flows_per_sec: flows.len() as f64 / elapsed.max(1e-9),
                keys_derived: secure.session_misses() - misses_before,
                digest,
            });
        }
    }
    let (plaintext_digest, plain_delivered) = plaintext.expect("plaintext ran");
    let (encrypted_digest, sealed_delivered) = encrypted.expect("encrypted ran");
    assert_eq!(
        plain_delivered, sealed_delivered,
        "sealing must not change which flows deliver"
    );
    CryptoFigures {
        city,
        buildings,
        flows: n_flows,
        plaintext_digest,
        encrypted_digest,
        runs,
    }
}

/// Serializes the sweep for `BENCH_crypto.json`.
pub fn to_json(figs: &CryptoFigures) -> Value {
    Value::Obj(vec![
        ("city".into(), Value::Str(figs.city.clone())),
        ("buildings".into(), Value::Int(figs.buildings as i64)),
        ("flows".into(), Value::Int(figs.flows as i64)),
        (
            "plaintext_digest".into(),
            Value::Str(format!("{:016x}", figs.plaintext_digest)),
        ),
        (
            "encrypted_digest".into(),
            Value::Str(format!("{:016x}", figs.encrypted_digest)),
        ),
        (
            "runs".into(),
            Value::Arr(
                figs.runs
                    .iter()
                    .map(|r| {
                        Value::Obj(vec![
                            ("mode".into(), Value::Str(r.mode.label().into())),
                            ("workers".into(), Value::Int(r.workers as i64)),
                            ("flows_per_sec".into(), Value::Num(r.flows_per_sec)),
                            ("keys_derived".into(), Value::Int(r.keys_derived as i64)),
                            ("digest".into(), Value::Str(format!("{:016x}", r.digest))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_agrees_and_serializes() {
        let figs = run_crypto_figs(7, 96, &[1, 2]);
        assert_eq!(figs.runs.len(), 6, "3 modes × 2 worker counts");
        for r in &figs.runs {
            let expected = match r.mode {
                CryptoMode::Plaintext => figs.plaintext_digest,
                _ => figs.encrypted_digest,
            };
            assert_eq!(r.digest, expected);
        }
        let cold = figs.rate(CryptoMode::EncryptedCold, 1);
        assert!(cold > 0.0, "cold runs must be timed");
        let rendered = to_json(&figs).render();
        assert!(rendered.contains("\"encrypted-warm\""));
        assert!(rendered.contains("\"keys_derived\""));
        assert!(rendered.contains("\"encrypted_digest\""));
    }
}
