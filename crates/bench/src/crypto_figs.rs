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
//! and worker count never perturb what the simulation decides.

use std::time::Instant;

use citymesh_fleet::{generate_flows, FleetConfig, FlowModel, WorkloadConfig};
use citymesh_map::CityArchetype;

use crate::sweep::{fleet_config, prepare, run_fleet, Scale, Sweep, SweepOpts, SEED};
use crate::text;

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
    /// Stable label used in tables.
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
    /// Session keys derived during this run (0 in plaintext and warm
    /// runs; at least one per active pair when cold).
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
/// Panics if any two same-mode runs disagree on the digest, if the
/// encrypted runs do not deliver exactly the plaintext flow set, if a
/// cold run derives no key on-path, or if a warm run derives any — a
/// benchmark must not report throughput for results that are wrong.
pub fn run_crypto_figs(seed: u64, n_flows: usize, worker_counts: &[usize]) -> CryptoFigures {
    let map = CityArchetype::SurveyDowntown.generate(seed);
    let city = map.name().to_string();
    let buildings = map.len();
    let mut exp = prepare(map, seed, None);
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
        encrypted: mode != CryptoMode::Plaintext,
        ..fleet_config(seed, workers)
    };

    // Unmeasured warm-up: settle the allocator, fault in the lazily
    // built tables, and derive every active pair's session key so the
    // first warm run really is warm.
    let secure = exp.secure_state().expect("encryption enabled").clone();
    for mode in [CryptoMode::Plaintext, CryptoMode::EncryptedWarm] {
        run_fleet(&exp, &flows, &cfg_for(mode, worker_counts[0]));
    }

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
            let report = run_fleet(&exp, &flows, &cfg_for(mode, workers));
            let elapsed = start.elapsed().as_secs_f64();
            let digest = report.digest();
            let keys_derived = secure.session_misses() - misses_before;
            match mode {
                CryptoMode::Plaintext => {
                    let d = *plaintext.get_or_insert((digest, report.delivered));
                    assert_eq!(d, (digest, report.delivered), "plaintext runs disagree");
                }
                CryptoMode::EncryptedCold | CryptoMode::EncryptedWarm => {
                    assert_eq!(report.sealed, flows.len() as u64, "every flow must seal");
                    assert_eq!(report.auth_failures, 0, "honest runs never fail auth");
                    assert_eq!(
                        keys_derived > 0,
                        mode == CryptoMode::EncryptedCold,
                        "cold runs must derive keys on-path, warm runs be pure cache hits"
                    );
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
                keys_derived,
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

impl Sweep for CryptoFigures {
    const NAME: &'static str = "crypto";
    const SCALES: &'static [Scale] = &[Scale::Full, Scale::Fast, Scale::Smoke];
    const PINNED: Scale = Scale::Smoke;

    fn run(opts: &SweepOpts) -> Self {
        let flows = opts.flows_or(10_000, 1_000, 400);
        run_crypto_figs(SEED, flows, &opts.worker_counts())
    }

    fn print(&self) {
        println!(
            "== crypto: secure message plane cost ({}, {} buildings, {} flows) ==",
            self.city, self.buildings, self.flows
        );
        println!(
            "{}",
            text::columns(
                &self.runs,
                &[
                    ("mode", &|r| r.mode.label().to_string()),
                    ("workers", &|r| r.workers.to_string()),
                    ("flows/s", &|r| format!("{:.0}", r.flows_per_sec)),
                    ("keys derived", &|r| r.keys_derived.to_string()),
                    ("digest", &|r| format!("{:016x}", r.digest)),
                ]
            )
        );
        let workers = self.runs[0].workers;
        let plain = self.rate(CryptoMode::Plaintext, workers);
        let warm = self.rate(CryptoMode::EncryptedWarm, workers);
        println!(
            "all plaintext digests agree; all encrypted digests agree across cache \
             temperature and workers; both modes deliver the same flow set"
        );
        println!(
            "warm encrypted: {:.2}x plaintext throughput at {workers} worker(s) \
             (encrypted-downtown digest {:016x})\n",
            warm / plain.max(1e-9),
            self.encrypted_digest
        );
    }

    /// The encrypted pin covers every encrypted run — cold or warm
    /// cache, any worker count — and differs from the plaintext pin
    /// only through the sealed counters folded into the report.
    fn pins(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("plaintext digest", self.plaintext_digest),
            ("encrypted digest", self.encrypted_digest),
        ]
    }

    fn throughput_gate(&self) {
        for run in self.runs.iter().filter(|r| r.mode == CryptoMode::Plaintext) {
            let warm = self.rate(CryptoMode::EncryptedWarm, run.workers);
            assert!(
                warm >= 0.5 * run.flows_per_sec,
                "warm encrypted throughput ({warm:.0}/s) must stay within 2x of plaintext \
                 ({:.0}/s) at {} worker(s)",
                run.flows_per_sec,
                run.workers
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_agrees_across_modes() {
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
        assert_eq!(figs.pins().len(), 2);
    }
}
