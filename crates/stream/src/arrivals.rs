//! Deterministic open-loop arrival streams.
//!
//! A batch workload materializes a fixed flow count and stops; an
//! always-on engine is fed by an *arrival process* — flows keep
//! coming at rate λ, and the engine must keep up or shed. This module
//! generates those streams deterministically as a homogeneous Poisson
//! process (a running sum of exponential gaps): arrival `k`'s gap and
//! endpoints come from its own SplitMix64 sub-streams
//! `substream_seed(seed, DOMAIN, k)`, so the stream is
//! *prefix-stable*: asking for 1 000 flows or 1 000 000 yields the
//! same first 1 000, bit for bit, and every downstream digest stays
//! reproducible.

use citymesh_fleet::{FlowKind, FlowSpec};
use citymesh_simcore::{substream_seed, SimRng};

use crate::engine::StreamError;

/// Sub-stream domain for per-arrival gaps.
pub(crate) const DOMAIN_STREAM_ARRIVAL: u64 = 0xA77A;
/// Sub-stream domain for per-flow endpoint sampling.
pub(crate) const DOMAIN_STREAM_FLOW: u64 = 0xF70B;

/// The arrival-rate profile: homogeneous Poisson arrivals at
/// `rate_hz`.
#[derive(Clone, Copy, Debug)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals: λ(t) = `rate_hz`.
    Poisson {
        /// Mean arrival rate, flows per second.
        rate_hz: f64,
    },
}

impl ArrivalProcess {
    /// Rejects a degenerate profile with a typed error: the rate must
    /// be finite and positive.
    pub fn validate(&self) -> Result<(), StreamError> {
        let ArrivalProcess::Poisson { rate_hz } = *self;
        if !rate_hz.is_finite() || rate_hz <= 0.0 {
            return Err(StreamError::InvalidArrivals {
                field: "rate_hz",
                value: rate_hz,
            });
        }
        Ok(())
    }
}

/// A complete open-loop workload description: how many flows to
/// materialize and the arrival profile they follow. Endpoints are
/// uniform distinct pairs, each drawn from the flow's own sub-stream.
#[derive(Clone, Copy, Debug)]
pub struct StreamWorkload {
    /// Number of flows to materialize from the (conceptually endless)
    /// stream.
    pub flows: usize,
    /// The arrival-rate profile.
    pub process: ArrivalProcess,
    /// Root seed; all stream randomness derives from it.
    pub seed: u64,
}

impl Default for StreamWorkload {
    fn default() -> Self {
        StreamWorkload {
            flows: 1000,
            process: ArrivalProcess::Poisson { rate_hz: 200.0 },
            seed: 0,
        }
    }
}

/// Materializes the next `cfg.flows` arrivals of the stream for a city
/// of `buildings` buildings.
///
/// # Panics
/// Panics on a rejected workload ([`ArrivalProcess::validate`], or
/// `buildings < 2`). Use [`try_generate_stream_flows`] for a `Result`.
pub fn generate_stream_flows(buildings: usize, cfg: &StreamWorkload) -> Vec<FlowSpec> {
    try_generate_stream_flows(buildings, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// [`generate_stream_flows`] with degenerate inputs as a typed error.
pub fn try_generate_stream_flows(
    buildings: usize,
    cfg: &StreamWorkload,
) -> Result<Vec<FlowSpec>, StreamError> {
    if buildings < 2 {
        return Err(StreamError::TooFewBuildings { buildings });
    }
    cfg.process.validate()?;
    let b = buildings as u64;
    let ArrivalProcess::Poisson { rate_hz } = cfg.process;

    let mut flows = Vec::with_capacity(cfg.flows);
    let mut t_s = 0.0_f64;
    for id in 0..cfg.flows as u64 {
        // Each arrival's gap comes from its own sub-stream, so the prefix
        // never moves when more flows are requested.
        let mut rng = SimRng::new(substream_seed(cfg.seed, DOMAIN_STREAM_ARRIVAL, id));
        t_s += -(1.0 - rng.uniform()).ln() / rate_hz;
        let mut frng = SimRng::new(substream_seed(cfg.seed, DOMAIN_STREAM_FLOW, id));
        let src = frng.below(b) as u32;
        let dst = distinct_dst(&mut frng, b, src);
        flows.push(FlowSpec {
            id,
            src,
            dst,
            kind: FlowKind::Data,
            arrival_ms: t_s * 1e3,
        });
    }
    Ok(flows)
}

/// Uniform destination ≠ `src` (the fleet workload's branch-free
/// shift-over-the-gap trick).
fn distinct_dst(rng: &mut SimRng, buildings: u64, src: u32) -> u32 {
    let d = rng.below(buildings - 1) as u32;
    if d >= src {
        d + 1
    } else {
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poisson(flows: usize, rate_hz: f64, seed: u64) -> Vec<FlowSpec> {
        generate_stream_flows(
            100,
            &StreamWorkload {
                flows,
                process: ArrivalProcess::Poisson { rate_hz },
                seed,
            },
        )
    }

    #[test]
    fn generation_is_deterministic_and_prefix_stable() {
        let mk = |flows| {
            generate_stream_flows(
                64,
                &StreamWorkload {
                    flows,
                    process: ArrivalProcess::Poisson { rate_hz: 120.0 },
                    seed: 11,
                },
            )
        };
        let a = mk(300);
        let b = mk(300);
        assert_eq!(a, b);
        // The first 300 flows of a 900-flow stream are the same 300.
        let longer = mk(900);
        assert_eq!(a[..], longer[..300]);
        for (i, f) in a.iter().enumerate() {
            assert_eq!(f.id, i as u64);
            assert_ne!(f.src, f.dst);
            assert!(f.src < 64 && f.dst < 64);
        }
        for w in a.windows(2) {
            assert!(w[0].arrival_ms <= w[1].arrival_ms);
        }
    }

    #[test]
    fn poisson_interarrival_mean_and_cv_are_in_tolerance() {
        // 20k exponential gaps at 100 Hz: the sample mean must sit
        // within 5% of 10 ms and the coefficient of variation within
        // 5% of 1 (the exponential's signature).
        let flows = poisson(20_000, 100.0, 42);
        let gaps: Vec<f64> = flows
            .windows(2)
            .map(|w| w[1].arrival_ms - w[0].arrival_ms)
            .collect();
        let n = gaps.len() as f64;
        let mean = gaps.iter().sum::<f64>() / n;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / (n - 1.0);
        let cv = var.sqrt() / mean;
        assert!(
            (mean - 10.0).abs() < 0.5,
            "mean interarrival {mean} ms, want ~10 ms"
        );
        assert!((cv - 1.0).abs() < 0.05, "interarrival CV {cv}, want ~1");
    }

    #[test]
    fn arrival_validation_types_every_rejection() {
        let gen = |process| {
            try_generate_stream_flows(
                10,
                &StreamWorkload {
                    flows: 5,
                    process,
                    seed: 0,
                },
            )
        };
        assert!(matches!(
            try_generate_stream_flows(1, &StreamWorkload::default()),
            Err(StreamError::TooFewBuildings { buildings: 1 })
        ));
        // Zero / negative / non-finite rates.
        for bad in [0.0, -1.0, f64::NAN] {
            assert!(matches!(
                gen(ArrivalProcess::Poisson { rate_hz: bad }),
                Err(StreamError::InvalidArrivals {
                    field: "rate_hz",
                    ..
                })
            ));
        }
        // And a valid profile generates.
        assert_eq!(
            gen(ArrivalProcess::Poisson { rate_hz: 10.0 })
                .unwrap()
                .len(),
            5
        );
    }
}
