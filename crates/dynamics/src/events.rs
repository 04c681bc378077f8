//! World events: what can happen to the mesh mid-run.
//!
//! A [`WorldEvent`] is one scheduled mutation of the live fault state,
//! carrying both its *mechanism* (the [`WorldEventKind`]) and its
//! fully materialized effect: the exact per-AP health flips the event
//! performs when it lands. Materialization happens once, serially, in
//! [`Timeline::materialize`](crate::Timeline::materialize) — by the
//! time the churn engine sees an event, every stochastic draw has
//! already been spent, so applying the event is pure bookkeeping and
//! identical no matter how many workers are simulating flows around
//! it.

use citymesh_core::ApHealth;
use citymesh_geo::Point;
use citymesh_simcore::Fnv64;

/// The mechanism behind one scheduled world event.
#[derive(Clone, Debug, PartialEq)]
pub enum WorldEventKind {
    /// An aftershock: every AP inside the disc fails outright — the
    /// correlated-damage mechanism, a mid-run sibling of the initial
    /// scenario's district blackouts.
    Aftershock {
        /// Disc center.
        center: Point,
        /// Disc radius, meters.
        radius_m: f64,
    },
    /// A battery-drain wave: each currently healthy AP independently
    /// drops to [`ApHealth::Degraded`] with probability `drain_p` —
    /// the uncorrelated, city-wide decay mechanism (backup batteries
    /// giving out hours into the outage).
    BatteryWave {
        /// Independent per-AP drain probability.
        drain_p: f64,
    },
    /// A repair crew sweeps one district: every non-healthy AP inside
    /// the disc comes back [`ApHealth::Up`] — the only mechanism that
    /// *revives* capacity, which is what makes churn different from
    /// monotone decay.
    CrewRepair {
        /// Disc center.
        center: Point,
        /// Disc radius, meters.
        radius_m: f64,
    },
}

impl WorldEventKind {
    /// Stable lowercase label for reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            WorldEventKind::Aftershock { .. } => "aftershock",
            WorldEventKind::BatteryWave { .. } => "battery-wave",
            WorldEventKind::CrewRepair { .. } => "crew-repair",
        }
    }

    /// A stable small integer used as the same-instant tiebreaker in
    /// timeline ordering and as the kind tag in fingerprints.
    pub fn code(&self) -> u8 {
        match self {
            WorldEventKind::Aftershock { .. } => 0,
            WorldEventKind::BatteryWave { .. } => 1,
            WorldEventKind::CrewRepair { .. } => 2,
        }
    }
}

/// One materialized world event: when it lands, what mechanism it is,
/// and the exact health flips it performs.
///
/// `changes` is computed against the world state *as evolved by every
/// earlier event on the timeline*, so events compose: a crew repair
/// scheduled after an aftershock revives the APs that aftershock
/// killed. Changes list APs in ascending id order and never contain a
/// no-op flip (the AP already held the target health when the event
/// was materialized).
#[derive(Clone, Debug)]
pub struct WorldEvent {
    /// When the event lands, milliseconds from the start of the run.
    /// Flows arriving strictly before this instant simulate against
    /// the pre-event world; flows at or after it see the post-event
    /// world.
    pub at_ms: f64,
    /// The mechanism.
    pub kind: WorldEventKind,
    /// The materialized per-AP health flips, ascending AP id.
    pub changes: Vec<(u32, ApHealth)>,
}

impl WorldEvent {
    /// Folds this event into an FNV-1a accumulator: arrival time bits,
    /// kind code, and every `(ap, health)` flip. Used by the timeline
    /// fingerprint that CI pins.
    pub(crate) fn mix_into(&self, h: &mut Fnv64) {
        h.mix(self.at_ms.to_bits());
        h.mix(u64::from(self.kind.code()));
        h.mix(self.changes.len() as u64);
        for &(ap, health) in &self.changes {
            let tag = match health {
                ApHealth::Up => 0u64,
                ApHealth::Degraded => 1,
                ApHealth::Failed => 2,
            };
            h.mix((u64::from(ap) << 2) | tag);
        }
    }
}
