//! Deterministic fault injection: the disaster the paper is about.
//!
//! The paper's premise (§1, the fractured-city case) is message
//! delivery *while infrastructure is failing* — yet a flat per-frame
//! `reception_loss` cannot express an AP that is simply gone, a
//! district knocked dark by a grid failure, or a sender planning on a
//! map that no longer matches reality. This module gives those
//! scenarios first-class, reproducible form:
//!
//! * **i.i.d. AP failure** — every AP fails independently with
//!   probability `p` (the disaster-recovery paper's
//!   delivery-rate-vs-failed-fraction axis);
//! * **district blackouts** — seeded disc outages over the city map,
//!   mimicking power-grid failure domains (failures are spatially
//!   *correlated*, which stresses conduits far harder than i.i.d.
//!   loss of the same magnitude);
//! * **degraded-AP mode** — APs that still run but drop an elevated
//!   fraction of frames (brown-outs, battery backup, damaged
//!   antennas);
//!
//! Whatever fails, the sender plans on the cached city map — the only
//! shared knowledge the paper assumes — so a plan's route and conduits
//! never depend on the fault state; only the replan rung below sees
//! which buildings went dark.
//!
//! A [`FaultScenario`] is pure configuration. [`FaultState`] is its
//! materialization against one concrete AP placement, drawn from
//! dedicated [`SimRng`] sub-streams of the experiment seed — so a
//! scenario is bit-reproducible, independent of worker count, and
//! cheap to fingerprint for golden digests.
//!
//! Recovery lives in [`RetryPolicy`]: the sender's bounded escalation —
//! the ladder (re-send → widen the conduit → replan around known-dark
//! buildings) or local repair (splice the route around its first dark
//! building) — climbed by [`crate::CityExperiment::simulate_flow_opts`].

use citymesh_geo::Point;
use citymesh_map::CityMap;
use citymesh_simcore::{substream_seed, Fnv64, SimRng};

use crate::config::{require_probability, require_within, ConfigError};
use crate::placement::{most_central, Ap};

/// Sub-stream domain for i.i.d. per-AP failure draws.
pub const DOMAIN_FAULT_IID: u64 = 0xFA11;
/// Sub-stream domain for blackout disc centers.
pub const DOMAIN_FAULT_BLACKOUT: u64 = 0xB1AC;
/// Sub-stream domain for degraded-AP draws.
pub const DOMAIN_FAULT_DEGRADE: u64 = 0xDE64;

/// What the sender does when a simulated delivery times out: a first
/// send, then up to `max_attempts − 1` more, each on the next rung of
/// one of two escalations.
///
/// The ladder ([`RetryPolicy::ladder`]):
///
/// 1. first send (always);
/// 2. **re-send** over the same conduit (the next attempt's jitter and
///    loss draws);
/// 3. **widen** the conduit by [`WIDEN_FACTOR`], reusing the cached
///    waypoints (recruits off-spine APs around dead ones);
/// 4. **replan** over the surviving building graph, detouring around
///    buildings with zero live APs (recovers from a cached map that no
///    longer matches the world).
///
/// Local repair ([`RetryPolicy::local_repair`]), the Babel/QSPN
/// discipline: after each failed send, splice the route the sender
/// last used around its first dark building, falling back to a full
/// avoid-replan when no splice exists, and send over the patched
/// route; with no dark building on it, re-send.
///
/// Rungs whose geometry is unavailable (nothing to widen to, no
/// surviving detour) fall back to a re-send, so every escalation is
/// bounded by `max_attempts` and never blocks on missing state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total delivery attempts, including the first send (≥ 1).
    pub max_attempts: u32,
    /// Which rungs follow the first send.
    pub(crate) escalation: Escalation,
}

/// The rungs a [`RetryPolicy`] climbs after the first send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Escalation {
    /// Re-send, widen, replan end to end.
    Ladder,
    /// Splice the current route around its first dark building.
    LocalRepair,
}

/// Conduit width multiplier of the widen rung, which every ladder with
/// at least three attempts climbs (the result is clamped to the
/// header-encodable maximum).
pub const WIDEN_FACTOR: f64 = 2.0;

impl RetryPolicy {
    /// No recovery: exactly one send. This is the implicit policy of
    /// every fault-free run, so enabling the fault subsystem with
    /// `RetryPolicy::none()` leaves RNG streams and fleet digests of
    /// healthy worlds untouched.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            escalation: Escalation::Ladder,
        }
    }

    /// The full four-rung ladder: send, re-send, widen ×2, replan.
    pub fn ladder() -> Self {
        RetryPolicy {
            max_attempts: 4,
            escalation: Escalation::Ladder,
        }
    }

    /// Local repair with `max_attempts` sends in all.
    pub fn local_repair(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            escalation: Escalation::LocalRepair,
        }
    }

    /// Validates the policy's invariants.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let attempts = f64::from(self.max_attempts);
        require_within("retry.max_attempts", attempts, 1.0, f64::INFINITY)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::ladder()
    }
}

/// Which rung of the [`RetryPolicy`] ladder a delivery succeeded on —
/// the telemetry crate's enum, which the trace events and per-rung
/// metrics name too.
pub use citymesh_telemetry::RecoveryStage;

/// A fault scenario: pure configuration, materialized per world by
/// [`FaultState::materialize`]. The default is the null scenario
/// (nothing fails, one send) — attaching it to an experiment changes
/// no observable behavior.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultScenario {
    /// Independent per-AP failure probability.
    pub ap_failure_p: f64,
    /// Number of correlated blackout discs.
    pub blackouts: usize,
    /// Radius of each blackout disc, meters.
    pub blackout_radius_m: f64,
    /// Probability that a surviving AP runs degraded.
    pub degraded_p: f64,
    /// Extra per-frame reception loss at a degraded AP, combined with
    /// the medium's base loss as `1 − (1−base)(1−extra)`.
    pub degraded_loss: f64,
    /// The sender's recovery ladder.
    pub retry: RetryPolicy,
}

impl Default for FaultScenario {
    fn default() -> Self {
        FaultScenario {
            ap_failure_p: 0.0,
            blackouts: 0,
            blackout_radius_m: 0.0,
            degraded_p: 0.0,
            degraded_loss: 0.0,
            retry: RetryPolicy::none(),
        }
    }
}

impl FaultScenario {
    /// i.i.d. AP failure at probability `p`, full recovery ladder.
    pub fn iid(p: f64) -> Self {
        FaultScenario {
            ap_failure_p: p,
            retry: RetryPolicy::ladder(),
            ..FaultScenario::default()
        }
    }

    /// `n` correlated blackout discs of radius `radius_m`, full
    /// recovery ladder.
    pub fn district_blackouts(n: usize, radius_m: f64) -> Self {
        FaultScenario {
            blackouts: n,
            blackout_radius_m: radius_m,
            retry: RetryPolicy::ladder(),
            ..FaultScenario::default()
        }
    }

    /// Validates probabilities, radii, and the retry policy.
    pub fn validate(&self) -> Result<(), ConfigError> {
        require_probability("faults.ap_failure_p", self.ap_failure_p)?;
        require_probability("faults.degraded_p", self.degraded_p)?;
        require_probability("faults.degraded_loss", self.degraded_loss)?;
        let radius = self.blackout_radius_m;
        require_within("faults.blackout_radius_m", radius, 0.0, f64::INFINITY)?;
        self.retry.validate()
    }
}

/// Health of one AP under a materialized scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ApHealth {
    /// Fully operational.
    Up,
    /// Running, but dropping extra frames.
    Degraded,
    /// Gone: never transmits, never receives.
    Failed,
}

/// How many APs a building owns and how many of them have not failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Census {
    aps: u32,
    live: u32,
}

/// A [`FaultScenario`] materialized against one AP placement: the
/// per-AP health vector, each building's live-AP count (a building
/// that owns APs and has none live is *dark*), and the scenario's
/// recovery knobs.
///
/// The counts are the one home of "which buildings are dark": built by
/// the one private constructor and moved by [`FaultState::apply_health`]
/// together with the health flip that changes them, so no caller ever
/// sees one without the other. What searches read — mask, labels, live
/// postboxes — the world derives from here
/// ([`crate::CityExperiment::survivors`]).
///
/// Materialization is serial and driven by dedicated sub-streams of
/// the experiment seed, so the state — and everything downstream of
/// it — is bit-identical regardless of how many fleet workers later
/// replay flows against it.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultState {
    health: Vec<ApHealth>,
    census: Vec<Census>,
    degraded_loss: f64,
    failed: usize,
    degraded: usize,
    retry: RetryPolicy,
    blackout_centers: Vec<Point>,
    /// Monotone world-mutation counter: 0 at materialization, bumped
    /// by [`FaultState::apply_health`] every time a churn event lands.
    /// Deliberately excluded from [`FaultState::fingerprint`] so the
    /// golden fingerprints of static (epoch-0) scenarios are unchanged;
    /// callers who want "fingerprint per epoch" simply call
    /// `fingerprint()` after each application.
    epoch: u64,
}

impl FaultState {
    /// Draws the scenario against `aps` over `map`, using sub-streams
    /// of `root_seed` (one per fault mechanism, so adding blackout
    /// discs never perturbs the i.i.d. draws and vice versa).
    ///
    /// # Panics
    /// Panics when `aps` is not a placement over `map`: an AP id that
    /// is not its index, or a building outside the map.
    pub fn materialize(
        scenario: &FaultScenario,
        aps: &[Ap],
        map: &CityMap,
        root_seed: u64,
    ) -> Self {
        let mut health = vec![ApHealth::Up; aps.len()];

        // Blackout discs: centers uniform over the map bounds.
        let bounds = map.bounds();
        let mut blackout_rng = SimRng::new(substream_seed(root_seed, DOMAIN_FAULT_BLACKOUT, 0));
        let mut centers = Vec::with_capacity(scenario.blackouts);
        for _ in 0..scenario.blackouts {
            let x = uniform_or_lo(&mut blackout_rng, bounds.min.x, bounds.max.x);
            let y = uniform_or_lo(&mut blackout_rng, bounds.min.y, bounds.max.y);
            centers.push(Point::new(x, y));
        }
        let r2 = scenario.blackout_radius_m * scenario.blackout_radius_m;

        let mut iid_rng = SimRng::new(substream_seed(root_seed, DOMAIN_FAULT_IID, 0));
        let mut degrade_rng = SimRng::new(substream_seed(root_seed, DOMAIN_FAULT_DEGRADE, 0));
        for ap in aps {
            // Draw every stream for every AP so each mechanism's
            // stream position depends only on the AP index, never on
            // another mechanism's outcome.
            let iid_hit = iid_rng.chance(scenario.ap_failure_p);
            let degrade_hit = degrade_rng.chance(scenario.degraded_p);
            let dark = centers.iter().any(|c| ap.pos.dist2(*c) <= r2);
            let slot = &mut health[ap.id as usize];
            if iid_hit || dark {
                *slot = ApHealth::Failed;
            } else if degrade_hit && scenario.degraded_loss > 0.0 {
                *slot = ApHealth::Degraded;
            }
        }
        Self::from_health(health, aps, map, scenario, centers)
            .unwrap_or_else(|e| panic!("placement does not fit the map: {e}"))
    }

    /// A state with an explicit casualty list — the targeted what-if
    /// counterpart of the stochastic [`materialize`]: kill exactly the
    /// APs in `failed_aps`, leave everything else up. Dark buildings
    /// are derived from the casualty list the same way materialization
    /// does; the sender plans on the cached map (it does not know who
    /// died). An empty list is the healthy baseline.
    ///
    /// # Errors
    /// [`ConfigError::OutOfRange`] naming the first id in `failed_aps`
    /// outside the placement, or the first AP whose building is outside
    /// the map.
    ///
    /// [`materialize`]: FaultState::materialize
    pub fn with_failed(
        aps: &[Ap],
        map: &CityMap,
        failed_aps: &[u32],
        retry: RetryPolicy,
    ) -> Result<Self, ConfigError> {
        let mut health = vec![ApHealth::Up; aps.len()];
        for &id in failed_aps {
            require_id("failed_aps", id, aps.len())?;
            health[id as usize] = ApHealth::Failed;
        }
        let scenario = FaultScenario {
            retry,
            ..FaultScenario::default()
        };
        Self::from_health(health, aps, map, &scenario, Vec::new())
    }

    /// The one place a health vector becomes a state: tallies the
    /// casualties and counts every building's APs and live APs.
    fn from_health(
        health: Vec<ApHealth>,
        aps: &[Ap],
        map: &CityMap,
        scenario: &FaultScenario,
        blackout_centers: Vec<Point>,
    ) -> Result<Self, ConfigError> {
        let mut census = vec![Census::default(); map.len()];
        for ap in aps {
            require_id("aps.building", ap.building, map.len())?;
            require_id("aps.id", ap.id, aps.len())?;
            let at = &mut census[ap.building as usize];
            at.aps += 1;
            at.live += u32::from(health[ap.id as usize] != ApHealth::Failed);
        }
        let count = |h: ApHealth| health.iter().filter(|&&x| x == h).count();
        Ok(FaultState {
            failed: count(ApHealth::Failed),
            degraded: count(ApHealth::Degraded),
            health,
            census,
            degraded_loss: scenario.degraded_loss,
            retry: scenario.retry,
            blackout_centers,
            epoch: 0,
        })
    }

    /// Number of APs covered by this state.
    pub fn len(&self) -> usize {
        self.health.len()
    }

    /// Whether the state covers zero APs.
    pub fn is_empty(&self) -> bool {
        self.health.is_empty()
    }

    /// Health of AP `ap`.
    pub fn health(&self, ap: u32) -> ApHealth {
        self.health[ap as usize]
    }

    /// Whether AP `ap` is gone.
    #[inline]
    pub fn is_failed(&self, ap: u32) -> bool {
        self.health[ap as usize] == ApHealth::Failed
    }

    /// Extra per-frame reception loss at AP `ap` (0 unless degraded).
    #[inline]
    pub fn extra_loss(&self, ap: u32) -> f64 {
        if self.health[ap as usize] == ApHealth::Degraded {
            self.degraded_loss
        } else {
            0.0
        }
    }

    /// Whether some live AP receives through a lossier radio: a
    /// degraded AP with a positive [`FaultScenario::degraded_loss`].
    pub fn adds_loss(&self) -> bool {
        self.degraded > 0 && self.degraded_loss > 0.0
    }

    /// Count of failed APs.
    pub fn failed_count(&self) -> usize {
        self.failed
    }

    /// Count of degraded APs.
    pub fn degraded_count(&self) -> usize {
        self.degraded
    }

    /// Fraction of APs failed (0 when the placement is empty).
    pub fn failed_fraction(&self) -> f64 {
        if self.health.is_empty() {
            0.0
        } else {
            self.failed as f64 / self.health.len() as f64
        }
    }

    /// Buildings that own APs and have none live, ascending.
    pub fn blocked_buildings(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.census.len() as u32).filter(|&b| self.building_blocked(b))
    }

    /// Whether `building` has APs but no live one (`false` for an id
    /// outside the map).
    pub fn building_blocked(&self, building: u32) -> bool {
        self.census
            .get(building as usize)
            .is_some_and(|c| c.aps > 0 && c.live == 0)
    }

    /// The scenario's recovery ladder.
    pub fn retry(&self) -> RetryPolicy {
        self.retry
    }

    /// Swaps the recovery ladder attached to this state. Churn
    /// experiments use this to run the *same* materialized world under
    /// different sender strategies without re-drawing any randomness.
    pub fn set_retry(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// The world-mutation epoch (0 until the first churn event).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Applies a batch of per-AP health transitions (one churn event's
    /// materialized change list), updating the failed/degraded tallies
    /// and each owning building's live-AP count with every flip — so a
    /// building goes dark exactly when its last AP dies and comes back
    /// with its first — collecting the buildings whose AP population
    /// changed into `touched` (sorted, deduplicated), and advancing the
    /// epoch: one call is one world event, and the state is whole again
    /// when it returns. Returns how many APs actually changed state.
    /// No-op entries (an AP already in the target state) are skipped
    /// and do not touch their building.
    ///
    /// What the *world* derives from this state (live postboxes, the
    /// searches' mask and labels) is
    /// [`crate::CityExperiment::apply_world_event`]'s to move.
    ///
    /// # Panics
    /// Panics when `aps` is not the placement this state was built
    /// over or a change names an AP outside it.
    pub fn apply_health(
        &mut self,
        changes: &[(u32, ApHealth)],
        aps: &[Ap],
        touched: &mut Vec<u32>,
    ) -> usize {
        assert_eq!(
            aps.len(),
            self.health.len(),
            "AP placement does not match this fault state"
        );
        touched.clear();
        for &(ap, next) in changes {
            let prev = std::mem::replace(&mut self.health[ap as usize], next);
            if prev == next {
                continue;
            }
            let building = aps[ap as usize].building;
            let live = &mut self.census[building as usize].live;
            match prev {
                ApHealth::Failed => {
                    self.failed -= 1;
                    *live += 1;
                }
                ApHealth::Degraded => self.degraded -= 1,
                ApHealth::Up => {}
            }
            match next {
                ApHealth::Failed => {
                    self.failed += 1;
                    *live -= 1;
                }
                ApHealth::Degraded => self.degraded += 1,
                ApHealth::Up => {}
            }
            touched.push(building);
        }
        let applied = touched.len();
        touched.sort_unstable();
        touched.dedup();
        self.epoch += 1;
        applied
    }

    /// Materialized blackout disc centers (for rendering).
    pub fn blackout_centers(&self) -> &[Point] {
        &self.blackout_centers
    }

    /// The postbox AP of `building` among *live* APs: closest
    /// surviving AP to the footprint centroid, mirroring
    /// [`crate::placement::postbox_ap`] under faults. `None` when the
    /// building is dark.
    pub fn postbox_ap_live(&self, aps: &[Ap], map: &CityMap, building: u32) -> Option<u32> {
        let b = map.building(building)?;
        most_central(
            aps.iter()
                .filter(|ap| ap.building == building && !self.is_failed(ap.id)),
            b.centroid,
        )
    }

    /// FNV-1a fingerprint of the materialized health vector — the
    /// golden value CI pins to detect any drift in fault
    /// materialization (RNG, ordering, or geometry changes).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        for (i, st) in self.health.iter().enumerate() {
            let code = match st {
                ApHealth::Up => 0u64,
                ApHealth::Degraded => 1,
                ApHealth::Failed => 2,
            };
            h.mix(i as u64 ^ (code << 32));
        }
        h.mix(self.blocked_buildings().count() as u64);
        h.value()
    }
}

/// `id` is one of the `len` ids `field` ranges over.
fn require_id(field: &'static str, id: u32, len: usize) -> Result<(), ConfigError> {
    require_within(field, f64::from(id), 0.0, len as f64 - 1.0)
}

/// Combines two independent per-frame loss probabilities.
#[inline]
pub fn combined_loss(base: f64, extra: f64) -> f64 {
    if extra <= 0.0 {
        base
    } else {
        1.0 - (1.0 - base) * (1.0 - extra)
    }
}

/// `uniform_range` that tolerates a degenerate interval (single-point
/// map bounds) by returning `lo`.
fn uniform_or_lo(rng: &mut SimRng, lo: f64, hi: f64) -> f64 {
    if hi > lo {
        rng.uniform_range(lo, hi)
    } else {
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::place_aps;
    use citymesh_map::CityArchetype;

    fn world(seed: u64) -> (CityMap, Vec<Ap>) {
        let map = CityArchetype::SurveyDowntown.generate(seed);
        let mut rng = SimRng::new(seed);
        let aps = place_aps(&map, 200.0, &mut rng);
        (map, aps)
    }

    fn healthy(aps: &[Ap], map: &CityMap) -> FaultState {
        FaultState::with_failed(aps, map, &[], RetryPolicy::none()).unwrap()
    }

    #[test]
    fn null_scenario_fails_nothing() {
        let (map, aps) = world(1);
        let st = FaultState::materialize(&FaultScenario::default(), &aps, &map, 1);
        assert_eq!(st.failed_count(), 0);
        assert_eq!(st.degraded_count(), 0);
        assert_eq!(st.blocked_buildings().count(), 0);
        assert_eq!(st.failed_fraction(), 0.0);
        assert!((0..aps.len() as u32).all(|a| st.health(a) == ApHealth::Up));
    }

    #[test]
    fn iid_failure_rate_tracks_p() {
        let (map, aps) = world(2);
        let st = FaultState::materialize(&FaultScenario::iid(0.3), &aps, &map, 2);
        let f = st.failed_fraction();
        assert!((0.2..0.4).contains(&f), "30% i.i.d. gave {f}");
        // Everything failed ⇒ every building with APs is blocked.
        let all = FaultState::materialize(&FaultScenario::iid(1.0), &aps, &map, 2);
        assert_eq!(all.failed_count(), aps.len());
        let owners: std::collections::BTreeSet<u32> = aps.iter().map(|a| a.building).collect();
        assert!(all.blocked_buildings().eq(owners.iter().copied()));
    }

    #[test]
    fn materialization_is_deterministic_in_seed() {
        let (map, aps) = world(3);
        let sc = FaultScenario {
            ap_failure_p: 0.15,
            blackouts: 2,
            blackout_radius_m: 120.0,
            degraded_p: 0.2,
            degraded_loss: 0.3,
            ..FaultScenario::default()
        };
        let a = FaultState::materialize(&sc, &aps, &map, 7);
        let b = FaultState::materialize(&sc, &aps, &map, 7);
        assert_eq!(a.health, b.health);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = FaultState::materialize(&sc, &aps, &map, 8);
        assert_ne!(a.fingerprint(), c.fingerprint(), "seed must matter");
    }

    #[test]
    fn mechanisms_use_independent_substreams() {
        // Adding blackouts must not change which APs the i.i.d. draw
        // fails (they read different sub-streams).
        let (map, aps) = world(4);
        let iid_only = FaultState::materialize(&FaultScenario::iid(0.2), &aps, &map, 5);
        let with_blackout = FaultState::materialize(
            &FaultScenario {
                blackouts: 1,
                blackout_radius_m: 100.0,
                ..FaultScenario::iid(0.2)
            },
            &aps,
            &map,
            5,
        );
        for ap in &aps {
            if iid_only.is_failed(ap.id) {
                assert!(
                    with_blackout.is_failed(ap.id),
                    "i.i.d. casualty {} must persist when blackouts are added",
                    ap.id
                );
            }
        }
        assert!(with_blackout.failed_count() >= iid_only.failed_count());
    }

    #[test]
    fn blackout_is_spatially_correlated() {
        let (map, aps) = world(6);
        let st =
            FaultState::materialize(&FaultScenario::district_blackouts(1, 150.0), &aps, &map, 9);
        assert_eq!(st.blackout_centers().len(), 1);
        let c = st.blackout_centers()[0];
        for ap in &aps {
            let inside = ap.pos.dist2(c) <= 150.0 * 150.0;
            assert_eq!(
                st.is_failed(ap.id),
                inside,
                "blackout failure must be exactly the disc"
            );
        }
    }

    #[test]
    fn degraded_aps_survive_with_extra_loss() {
        let (map, aps) = world(7);
        let st = FaultState::materialize(
            &FaultScenario {
                degraded_p: 0.5,
                degraded_loss: 0.4,
                ..FaultScenario::default()
            },
            &aps,
            &map,
            11,
        );
        assert_eq!(st.failed_count(), 0);
        assert!(st.degraded_count() > 0);
        let d = (0..aps.len() as u32)
            .find(|&a| st.health(a) == ApHealth::Degraded)
            .unwrap();
        assert_eq!(st.extra_loss(d), 0.4);
        let up = (0..aps.len() as u32)
            .find(|&a| st.health(a) == ApHealth::Up)
            .unwrap();
        assert_eq!(st.extra_loss(up), 0.0);
    }

    #[test]
    fn postbox_ap_live_skips_casualties() {
        let (map, aps) = world(8);
        let healthy = healthy(&aps, &map);
        let b = aps[0].building;
        let pb = crate::placement::postbox_ap(&aps, &map, b).unwrap();
        assert_eq!(healthy.postbox_ap_live(&aps, &map, b), Some(pb));

        // Fail exactly the postbox AP: the live postbox must move to
        // another AP of the same building, or None if it was alone.
        let mut st = healthy.clone();
        st.health[pb as usize] = ApHealth::Failed;
        match st.postbox_ap_live(&aps, &map, b) {
            Some(alt) => {
                assert_ne!(alt, pb);
                assert_eq!(aps[alt as usize].building, b);
            }
            None => {
                assert_eq!(
                    aps.iter().filter(|a| a.building == b).count(),
                    1,
                    "None is only valid when the postbox was the sole AP"
                );
            }
        }
    }

    #[test]
    fn combined_loss_math() {
        assert_eq!(combined_loss(0.2, 0.0), 0.2);
        assert!((combined_loss(0.0, 0.3) - 0.3).abs() < 1e-12);
        let c = combined_loss(0.5, 0.5);
        assert!((c - 0.75).abs() < 1e-12);
        assert_eq!(combined_loss(1.0, 0.5), 1.0);
    }

    #[test]
    fn scenario_validation_rejects_garbage() {
        assert!(FaultScenario::default().validate().is_ok());
        assert!(FaultScenario::iid(0.5).validate().is_ok());
        let bad_p = FaultScenario {
            ap_failure_p: f64::NAN,
            ..FaultScenario::default()
        };
        assert!(bad_p.validate().is_err());
        let neg = FaultScenario {
            degraded_loss: -0.1,
            ..FaultScenario::default()
        };
        assert!(neg.validate().is_err());
        let bad_r = FaultScenario {
            blackout_radius_m: f64::INFINITY,
            ..FaultScenario::default()
        };
        assert!(bad_r.validate().is_err());
        let zero_attempts = FaultScenario {
            retry: RetryPolicy {
                max_attempts: 0,
                ..RetryPolicy::none()
            },
            ..FaultScenario::default()
        };
        assert!(zero_attempts.validate().is_err());
    }

    #[test]
    fn apply_health_keeps_tallies_and_darkness_consistent() {
        let (map, aps) = world(12);
        let mut st = healthy(&aps, &map);
        assert_eq!(st.epoch(), 0);

        // Kill every AP of one building: the tallies must move and the
        // building must go dark in the same call; reviving one AP must
        // relight it.
        let b = aps[0].building;
        let bucket: Vec<u32> = aps
            .iter()
            .filter(|a| a.building == b)
            .map(|a| a.id)
            .collect();
        let kill: Vec<(u32, ApHealth)> = bucket.iter().map(|&ap| (ap, ApHealth::Failed)).collect();
        let mut touched = Vec::new();
        let applied = st.apply_health(&kill, &aps, &mut touched);
        assert_eq!(applied, bucket.len());
        assert_eq!(touched, vec![b]);
        assert_eq!(st.failed_count(), bucket.len());
        assert!(st.building_blocked(b));
        assert_eq!(st.epoch(), 1);

        // Re-applying the same changes is a no-op: nothing flips twice.
        assert_eq!(st.apply_health(&kill, &aps, &mut touched), 0);
        assert!(touched.is_empty());

        let revive = [(bucket[0], ApHealth::Up)];
        assert_eq!(st.apply_health(&revive, &aps, &mut touched), 1);
        assert_eq!(touched, vec![b]);
        assert!(!st.building_blocked(b));
        assert_eq!(st.failed_count(), bucket.len() - 1);
    }

    #[test]
    fn any_change_list_leaves_the_state_a_recount_would_build() {
        // Random lists — repeats of one AP, kill-then-revive inside one
        // list, no-ops, degradations — and after each the state must
        // equal the one built from scratch over its health vector, with
        // the caller doing nothing in between.
        let (map, aps) = world(13);
        let mut st = healthy(&aps, &map);
        let mut rng = SimRng::new(13);
        let mut touched = Vec::new();
        for round in 0..60 {
            let changes: Vec<(u32, ApHealth)> = (0..rng.below(40))
                .map(|_| {
                    // A third of the placement, so buildings do go dark.
                    let ap = rng.below(aps.len() as u64 / 3) as u32;
                    let health = match rng.below(4) {
                        0 => ApHealth::Up,
                        1 => ApHealth::Degraded,
                        _ => ApHealth::Failed,
                    };
                    (ap, health)
                })
                .collect();
            st.apply_health(&changes, &aps, &mut touched);
            let recount = FaultState::from_health(
                st.health.clone(),
                &aps,
                &map,
                &FaultScenario::default(),
                Vec::new(),
            )
            .unwrap();
            assert_eq!(st.epoch(), round + 1, "one call, one event");
            let recount = FaultState {
                epoch: st.epoch,
                ..recount
            };
            assert_eq!(st, recount, "round {round}");
            let scan: Vec<u32> = (0..map.len() as u32)
                .filter(|&b| {
                    let mut own = aps.iter().filter(|a| a.building == b).peekable();
                    own.peek().is_some() && own.all(|a| st.is_failed(a.id))
                })
                .collect();
            assert!(st.blocked_buildings().eq(scan.iter().copied()));
            assert!(touched.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
        }
        assert!(
            st.blocked_buildings().count() > 0,
            "some building went dark"
        );
    }

    #[test]
    fn with_failed_rejects_ids_outside_the_world() {
        let (map, aps) = world(15);
        let n = aps.len() as u32;
        assert_eq!(
            FaultState::with_failed(&aps, &map, &[0, n, n + 7], RetryPolicy::none()),
            Err(ConfigError::OutOfRange {
                field: "failed_aps",
                value: f64::from(n),
                min: 0.0,
                max: f64::from(n - 1),
            })
        );
        let mut stray = aps.clone();
        stray[3].building = map.len() as u32 + 2;
        assert_eq!(
            FaultState::with_failed(&stray, &map, &[], RetryPolicy::none()),
            Err(ConfigError::OutOfRange {
                field: "aps.building",
                value: f64::from(stray[3].building),
                min: 0.0,
                max: map.len() as f64 - 1.0,
            })
        );
        // A repeated casualty is one casualty.
        let st = FaultState::with_failed(&aps, &map, &[2, 2, 5], RetryPolicy::none()).unwrap();
        assert_eq!(st.failed_count(), 2);
    }

    #[test]
    fn epoch_does_not_perturb_fingerprint() {
        let (map, aps) = world(14);
        let mut st = healthy(&aps, &map);
        let before = st.fingerprint();
        st.apply_health(&[], &aps, &mut Vec::new());
        assert_eq!(st.epoch(), 1);
        assert_eq!(
            st.fingerprint(),
            before,
            "epoch is bookkeeping, not world state: golden fingerprints \
             of static scenarios must not move"
        );
    }

    #[test]
    fn fingerprint_distinguishes_scenarios() {
        let (map, aps) = world(10);
        let a = FaultState::materialize(&FaultScenario::iid(0.1), &aps, &map, 3);
        let b = FaultState::materialize(&FaultScenario::iid(0.2), &aps, &map, 3);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), healthy(&aps, &map).fingerprint());
    }
}
