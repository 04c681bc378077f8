//! Deterministic event timelines.
//!
//! A [`Timeline`] is the complete, pre-materialized schedule of world
//! events inside one simulation horizon. Every stochastic decision —
//! when each event lands, where its disc sits, which APs a battery
//! wave drains — is drawn from dedicated sub-streams of the churn
//! seed during [`Timeline::materialize`], *before* any flow is
//! simulated. The churn engine then replays the schedule as pure
//! bookkeeping between its epoch barriers, which is what lets a run
//! with 8 workers see bit-identical events (and therefore bit-identical
//! outcomes) to a serial one.
//!
//! Materialization is sequential by construction: events are first
//! scheduled (time + geometry drawn per mechanism from that
//! mechanism's own sub-stream), then sorted into their canonical
//! order, then walked once while an evolving scratch copy of the
//! per-AP health vector turns each event into the concrete
//! `(ap, health)` flips it will perform. Later events therefore see
//! the world as earlier ones left it — a crew repair revives exactly
//! what the preceding aftershock killed — and the whole timeline
//! reduces to one [`Timeline::fingerprint`] that CI pins.

use citymesh_core::{ApHealth, CityExperiment};
use citymesh_simcore::{substream_seed, Fnv64, SimRng};

use crate::events::{WorldEvent, WorldEventKind};

/// Sub-stream domain for aftershock scheduling (time + disc).
pub const DOMAIN_CHURN_AFTERSHOCK: u64 = 0xA57E;
/// Sub-stream domain for battery-wave scheduling (time + per-AP draws).
pub const DOMAIN_CHURN_BATTERY: u64 = 0xBA77;
/// Sub-stream domain for crew-repair scheduling (time + disc).
pub const DOMAIN_CHURN_REPAIR: u64 = 0xC4E3;

/// How much churn to schedule inside one horizon.
///
/// Event *counts* are the sweep knob (the bench's "churn rate" is
/// events per horizon); radii and probabilities shape each mechanism.
#[derive(Clone, Copy, Debug)]
pub struct ChurnConfig {
    /// Aftershock discs to schedule.
    pub aftershocks: usize,
    /// Battery-drain waves to schedule.
    pub battery_waves: usize,
    /// Crew-repair sweeps to schedule.
    pub crew_repairs: usize,
    /// Simulation horizon: events land uniformly in `(0, horizon_ms)`.
    pub horizon_ms: f64,
    /// Aftershock disc radius, meters.
    pub aftershock_radius_m: f64,
    /// Battery-wave per-AP drain probability.
    pub drain_p: f64,
    /// Crew-repair disc radius, meters.
    pub repair_radius_m: f64,
    /// Root seed; every timeline draw derives from it through the
    /// `DOMAIN_CHURN_*` sub-streams.
    pub seed: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            aftershocks: 2,
            battery_waves: 2,
            crew_repairs: 1,
            horizon_ms: 2_000.0,
            aftershock_radius_m: 120.0,
            drain_p: 0.05,
            repair_radius_m: 150.0,
            seed: 0,
        }
    }
}

impl ChurnConfig {
    /// Total events this config schedules.
    pub fn events(&self) -> usize {
        self.aftershocks + self.battery_waves + self.crew_repairs
    }
}

/// A materialized, canonically ordered schedule of world events.
#[derive(Clone, Debug)]
pub struct Timeline {
    events: Vec<WorldEvent>,
}

impl Timeline {
    /// Materializes a timeline for `exp` under `cfg`.
    ///
    /// Scheduling draws come from per-mechanism sub-streams indexed by
    /// event ordinal, so adding a third aftershock does not move the
    /// first two, and the three mechanisms never perturb each other —
    /// the same nested-stream discipline the fault scenarios use.
    /// Events are ordered by `(arrival time, kind code, ordinal)`; the
    /// float time is compared by bit pattern, which is a total order
    /// here because every drawn time is finite and non-negative.
    ///
    /// The effect lists are computed against a scratch health vector
    /// seeded from the experiment's *current* fault state (or a fully
    /// healthy vector when it has none), evolved event by event.
    pub fn materialize(exp: &CityExperiment, cfg: &ChurnConfig) -> Timeline {
        let aps = exp.aps();
        let mut scratch: Vec<ApHealth> = match exp.fault_state() {
            Some(f) => (0..aps.len()).map(|i| f.health(i as u32)).collect(),
            None => vec![ApHealth::Up; aps.len()],
        };
        let bounds = exp.map().bounds();

        // Phase 1: schedule. Each mechanism draws (time, geometry)
        // skeletons from its own sub-stream; battery waves keep their
        // RNG alive for the per-AP draws in phase 2 (the draw count is
        // fixed at one per AP, independent of world state, so the
        // stream stays aligned no matter what earlier events did).
        struct Skeleton {
            at_ms: f64,
            kind: WorldEventKind,
            ordinal: u64,
            rng: Option<SimRng>,
        }
        let mut skeletons: Vec<Skeleton> = Vec::with_capacity(cfg.events());
        for i in 0..cfg.aftershocks {
            let mut rng = SimRng::new(substream_seed(cfg.seed, DOMAIN_CHURN_AFTERSHOCK, i as u64));
            let at_ms = rng.uniform_range(0.0, cfg.horizon_ms);
            let center = citymesh_geo::Point::new(
                rng.uniform_range(bounds.min.x, bounds.max.x),
                rng.uniform_range(bounds.min.y, bounds.max.y),
            );
            skeletons.push(Skeleton {
                at_ms,
                kind: WorldEventKind::Aftershock {
                    center,
                    radius_m: cfg.aftershock_radius_m,
                },
                ordinal: i as u64,
                rng: None,
            });
        }
        for i in 0..cfg.battery_waves {
            let mut rng = SimRng::new(substream_seed(cfg.seed, DOMAIN_CHURN_BATTERY, i as u64));
            let at_ms = rng.uniform_range(0.0, cfg.horizon_ms);
            skeletons.push(Skeleton {
                at_ms,
                kind: WorldEventKind::BatteryWave {
                    drain_p: cfg.drain_p,
                },
                ordinal: i as u64,
                rng: Some(rng),
            });
        }
        for i in 0..cfg.crew_repairs {
            let mut rng = SimRng::new(substream_seed(cfg.seed, DOMAIN_CHURN_REPAIR, i as u64));
            let at_ms = rng.uniform_range(0.0, cfg.horizon_ms);
            let center = citymesh_geo::Point::new(
                rng.uniform_range(bounds.min.x, bounds.max.x),
                rng.uniform_range(bounds.min.y, bounds.max.y),
            );
            skeletons.push(Skeleton {
                at_ms,
                kind: WorldEventKind::CrewRepair {
                    center,
                    radius_m: cfg.repair_radius_m,
                },
                ordinal: i as u64,
                rng: None,
            });
        }
        skeletons.sort_by_key(|s| (s.at_ms.to_bits(), s.kind.code(), s.ordinal));

        // Phase 2: materialize effects against the evolving scratch
        // health, in canonical order.
        let events = skeletons
            .into_iter()
            .map(|mut s| {
                let mut changes: Vec<(u32, ApHealth)> = Vec::new();
                match &s.kind {
                    WorldEventKind::Aftershock { center, radius_m } => {
                        let r2 = radius_m * radius_m;
                        for ap in aps {
                            if ap.pos.dist2(*center) <= r2
                                && scratch[ap.id as usize] != ApHealth::Failed
                            {
                                changes.push((ap.id, ApHealth::Failed));
                            }
                        }
                    }
                    WorldEventKind::BatteryWave { drain_p } => {
                        let rng = s.rng.as_mut().expect("battery waves carry their stream");
                        for ap in aps {
                            // One draw per AP regardless of state keeps
                            // the stream aligned with the schedule.
                            let drained = rng.chance(*drain_p);
                            if drained && scratch[ap.id as usize] == ApHealth::Up {
                                changes.push((ap.id, ApHealth::Degraded));
                            }
                        }
                    }
                    WorldEventKind::CrewRepair { center, radius_m } => {
                        let r2 = radius_m * radius_m;
                        for ap in aps {
                            if ap.pos.dist2(*center) <= r2
                                && scratch[ap.id as usize] != ApHealth::Up
                            {
                                changes.push((ap.id, ApHealth::Up));
                            }
                        }
                    }
                }
                for &(ap, next) in &changes {
                    scratch[ap as usize] = next;
                }
                WorldEvent {
                    at_ms: s.at_ms,
                    kind: s.kind,
                    changes,
                }
            })
            .collect();
        Timeline { events }
    }

    /// The schedule, in canonical (time, kind, ordinal) order.
    pub fn events(&self) -> &[WorldEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the timeline schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// FNV-1a over every event's time, kind, and materialized effect
    /// list — the single value CI pins to detect any drift in churn
    /// scheduling or materialization.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.mix(self.events.len() as u64);
        for ev in &self.events {
            ev.mix_into(&mut h);
        }
        h.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use citymesh_core::{ExperimentConfig, FaultScenario};
    use citymesh_map::CityArchetype;

    fn world(seed: u64) -> CityExperiment {
        CityExperiment::prepare(
            CityArchetype::SurveyDowntown.generate(seed),
            ExperimentConfig {
                seed,
                faults: Some(FaultScenario::district_blackouts(1, 100.0)),
                ..ExperimentConfig::default()
            },
        )
    }

    #[test]
    fn materialization_is_deterministic_and_ordered() {
        let exp = world(7);
        let cfg = ChurnConfig {
            seed: 7,
            ..ChurnConfig::default()
        };
        let a = Timeline::materialize(&exp, &cfg);
        let b = Timeline::materialize(&exp, &cfg);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.len(), cfg.events());
        assert!(a
            .events()
            .windows(2)
            .all(|w| w[0].at_ms.to_bits() <= w[1].at_ms.to_bits()));
        for ev in a.events() {
            assert!(ev.at_ms >= 0.0 && ev.at_ms <= cfg.horizon_ms);
            assert!(
                ev.changes.windows(2).all(|w| w[0].0 < w[1].0),
                "changes must list APs in ascending order"
            );
        }
    }

    #[test]
    fn events_compose_against_the_evolving_world() {
        // A repair disc covering the whole city scheduled *after* the
        // aftershocks must revive every AP they killed (and the ones
        // the initial blackout killed), never a no-op flip.
        let exp = world(9);
        let bounds = exp.map().bounds();
        let diag = bounds.min.dist(bounds.max);
        let cfg = ChurnConfig {
            aftershocks: 2,
            battery_waves: 0,
            crew_repairs: 0,
            seed: 9,
            ..ChurnConfig::default()
        };
        let quakes_only = Timeline::materialize(&exp, &cfg);
        let killed: usize = quakes_only.events().iter().map(|e| e.changes.len()).sum();
        assert!(killed > 0, "two 120 m discs must kill some APs");

        // Same quakes + one city-wide repair. The repair lands at some
        // drawn time; whatever is dead *at that point* comes back.
        let with_repair = Timeline::materialize(
            &exp,
            &ChurnConfig {
                crew_repairs: 1,
                repair_radius_m: diag,
                ..cfg
            },
        );
        let repair = with_repair
            .events()
            .iter()
            .find(|e| matches!(e.kind, WorldEventKind::CrewRepair { .. }))
            .expect("one repair scheduled");
        assert!(
            repair.changes.iter().all(|&(_, h)| h == ApHealth::Up),
            "repairs only revive"
        );
        assert!(
            !repair.changes.is_empty(),
            "a city-wide repair after a blackout must revive something"
        );
    }

    #[test]
    fn adding_events_does_not_move_existing_ones() {
        let exp = world(11);
        let base = ChurnConfig {
            aftershocks: 1,
            battery_waves: 1,
            crew_repairs: 0,
            seed: 11,
            ..ChurnConfig::default()
        };
        let small = Timeline::materialize(&exp, &base);
        let big = Timeline::materialize(
            &exp,
            &ChurnConfig {
                aftershocks: 3,
                ..base
            },
        );
        // Every event of the small schedule appears at the same time
        // in the big one (sub-streams are indexed, not sequential).
        for ev in small.events() {
            assert!(
                big.events()
                    .iter()
                    .any(|e| e.at_ms == ev.at_ms && e.kind == ev.kind),
                "schedule times must be stable under event-count growth"
            );
        }
    }
}
