//! The one table of golden pins, and the check that reads them.
//!
//! Every value here is a digest or fingerprint one of the nine sweeps
//! produces at seed [`SEED`](crate::sweep::SEED) and the sweep's
//! [`Sweep::PINNED`] scale. They are constants of the *behaviour*:
//! change one only in a commit that means to change what the
//! simulation decides, and say so. `figures -- check` (release) and the
//! root `tests/goldens.rs` (tier-1) both go through [`verify`], so no
//! pin lives anywhere else.

use std::fmt;

use crate::sweep::{Sweep, SweepOpts};

/// One pinned value of one sweep.
#[derive(Debug, PartialEq, Eq)]
pub struct Pin {
    /// [`Sweep::NAME`] of the sweep that produces it.
    pub sweep: &'static str,
    /// What it is, as [`Sweep::pins`] names it.
    pub name: &'static str,
    /// The value.
    pub value: u64,
}

/// The fleet sweep's 500-flow hotspot digest. The telemetry sweep runs
/// the same workload fully traced and must land on it too.
const FLEET_500: u64 = 0x19ea3ddd799598cf;

const fn pin(sweep: &'static str, name: &'static str, value: u64) -> Pin {
    Pin { sweep, name, value }
}

/// Every pin, in `figures -- check` order.
pub const PINS: [Pin; 14] = [
    pin("fleet", "500-flow digest", FLEET_500),
    pin("planner", "plan digest", 0x225e8143b580e73a),
    pin("resilience", "downtown p=0.2 digest", 0xcfa2c98a461d5e08),
    pin(
        "resilience",
        "downtown p=0.2 fault fingerprint",
        0xca535a4447760dd5,
    ),
    pin("churn", "downtown 8-event timeline", 0x30e0f8b78dd46592),
    pin(
        "churn",
        "downtown 8-event ladder digest",
        0x3822384776311b7b,
    ),
    pin(
        "churn",
        "downtown 8-event reactive digest",
        0xba29f37cc2604796,
    ),
    pin("telemetry", "traced 500-flow digest", FLEET_500),
    pin("metro", "largest-size route digest", 0xc020ea31821080c9),
    pin(
        "streaming",
        "downtown-flat overload digest",
        0xcf51862631d45783,
    ),
    pin(
        "streaming",
        "metro-hier overload digest",
        0xdee35c386253b5dd,
    ),
    pin(
        "placement",
        "annealed-downtown score digest",
        0x13961c0799ca51a0,
    ),
    pin("crypto", "plaintext digest", 0xb5c11dd0ade98a29),
    pin("crypto", "encrypted digest", 0x670d3dddda0834cb),
];

/// The pinned value of `sweep`'s row `name`.
///
/// # Panics
/// Panics when the table has no such row.
pub fn pinned(sweep: &str, name: &str) -> u64 {
    let row = PINS.iter().find(|p| p.sweep == sweep && p.name == name);
    row.unwrap_or_else(|| panic!("no pin `{name}` for sweep `{sweep}`"))
        .value
}

/// A pin a run did not reproduce.
#[derive(Debug, PartialEq, Eq)]
pub struct Mismatch {
    /// The row that failed.
    pub pin: &'static Pin,
    /// What the sweep produced; `None` when it produced no such value.
    pub observed: Option<u64>,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Pin { sweep, name, value } = self.pin;
        write!(f, "{sweep}: pin `{name}` expected {value:016x}, observed ")?;
        match self.observed {
            Some(v) => write!(f, "{v:016x}"),
            None => write!(f, "nothing"),
        }
    }
}

/// Every row of `sweep` that `observed` does not reproduce. A row the
/// observation lacks is a mismatch, not a pass.
pub fn compare(sweep: &str, observed: &[(&str, u64)]) -> Vec<Mismatch> {
    PINS.iter()
        .filter(|pin| pin.sweep == sweep)
        .filter_map(|pin| {
            let seen = observed.iter().find(|(name, _)| *name == pin.name);
            let observed = seen.map(|&(_, v)| v);
            (observed != Some(pin.value)).then_some(Mismatch { pin, observed })
        })
        .collect()
}

/// Runs sweep `S` at its pinned scale — every invariant the sweep
/// asserts on itself included — and returns the pins it missed.
/// `throughput_gates` adds [`Sweep::throughput_gate`]; pass it only
/// from a release build.
pub fn verify<S: Sweep>(throughput_gates: bool) -> Vec<Mismatch> {
    let figs = S::run(&SweepOpts::at(S::PINNED));
    if throughput_gates {
        figs.throughput_gate();
    }
    compare(S::NAME, &figs.pins())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observation(sweep: &str) -> Vec<(&'static str, u64)> {
        let rows = PINS.iter().filter(|p| p.sweep == sweep);
        rows.map(|p| (p.name, p.value)).collect()
    }

    #[test]
    fn a_faithful_observation_passes() {
        for pin in &PINS {
            assert_eq!(compare(pin.sweep, &observation(pin.sweep)), []);
        }
    }

    #[test]
    fn one_flipped_bit_names_exactly_that_row() {
        let mut seen = observation("churn");
        seen[1].1 ^= 1 << 17;
        let bad = compare("churn", &seen);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].pin.name, "downtown 8-event ladder digest");
        assert_eq!(bad[0].observed, Some(seen[1].1));
        let line = bad[0].to_string();
        assert!(line.starts_with("churn: pin `downtown 8-event ladder digest`"));
        assert!(line.contains("expected 3822384776311b7b, observed 3822384776331b7b"));
    }

    #[test]
    fn a_missing_row_is_an_error_not_a_pass() {
        let mut seen = observation("crypto");
        seen.remove(0);
        let bad = compare("crypto", &seen);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].pin.name, "plaintext digest");
        assert_eq!(bad[0].observed, None);
        assert!(bad[0].to_string().ends_with("observed nothing"));
        assert_eq!(compare("fleet", &[]).len(), 1);
    }

    #[test]
    fn rows_are_unique_and_lookups_find_them() {
        for (i, a) in PINS.iter().enumerate() {
            assert_eq!(pinned(a.sweep, a.name), a.value);
            for b in &PINS[i + 1..] {
                assert!((a.sweep, a.name) != (b.sweep, b.name), "duplicate row");
            }
        }
    }
}
