//! Reactive local-repair delivery: the Babel/QSPN-style baseline.
//!
//! Distance-vector protocols built for churn — Babel (RFC 8966) and
//! Netsukuku's QSPN among them — do not re-run end-to-end route
//! discovery when a link dies. The node that *notices* the failure
//! repairs the route locally: it splices a detour from the last good
//! hop around the dead segment and rejoins the old path downstream,
//! falling back to a full re-discovery only when no local splice
//! exists. This module transplants that repair discipline onto
//! CityMesh's building routes, giving the churn benchmarks a reactive
//! strategy to weigh against the paper's static plan and the
//! retry-ladder's end-to-end replan rung:
//!
//! * **static plan** — resend over the original conduits and hope;
//! * **retry ladder** — widen, then replan the whole route over the
//!   surviving graph (an end-to-end re-discovery);
//! * **reactive repair (this module)** — on each failure
//!   notification, find the first building on the route that has gone
//!   dark, splice a local detour from the preceding building to the
//!   first live building downstream, keep the rest of the route, and
//!   retry. The *replan cost* — how many buildings get recomputed —
//!   is proportional to the damage, not the route length.
//!
//! The failure signal itself is the sender's delivery timeout (one
//! horizon of latency per failed attempt, exactly like the ladder),
//! and "which building died" comes from the materialized fault
//! state's blocked set: the same knowledge the ladder's replan rung
//! consumes, used surgically instead of wholesale.

use citymesh_core::{
    compress_route, plan_route, plan_route_avoiding_into, reconstruct_conduits, sim::HORIZON,
    simulate_delivery_faulted, CityExperiment, CoveredSet, DeliveryScratch, OverheadOutcome,
    PairOutcome, PlannedFlow, RebroadcastScope, RecoveryStage, Relays,
};
use citymesh_graph::PlannerScratch;
use citymesh_net::CityMeshHeader;
use citymesh_simcore::{SimRng, SimTime};

/// One flow delivered with reactive local repair, plus the repair
/// bill: how often the route was patched and how much of it was
/// recomputed. The [`PairOutcome`] is aggregate-compatible with the
/// fleet engine's, so churn reports fold reactive flows with
/// `citymesh_fleet::FleetReport::absorb_outcome`-style machinery and
/// compare digests across strategies.
#[derive(Clone, Debug)]
pub struct RepairOutcome {
    /// The flow outcome, shaped exactly like the pipeline's.
    pub outcome: PairOutcome,
    /// Local splices performed (the repair succeeded around the first
    /// dark building).
    pub repairs: u64,
    /// Full end-to-end replans performed when no local splice existed
    /// (the Babel fallback to route re-discovery).
    pub full_replans: u64,
    /// Buildings recomputed across all repairs — the reactive
    /// strategy's *replan cost*, comparable against a full replan's
    /// route length.
    pub replanned_buildings: u64,
}

/// Delivers one planned flow with Babel/QSPN-style reactive repair:
/// send, and on every timeout patch the route *locally* around the
/// first dark building before retrying, up to `max_attempts` total
/// sends.
///
/// Mirrors [`CityExperiment::simulate_flow_with`]'s accounting —
/// horizon-latency penalty per failed attempt, overhead against
/// ideal-unicast hops, `recovered_by` labeling (a repaired delivery
/// reports [`RecoveryStage::Replan`], an unrepaired retry
/// [`RecoveryStage::Resend`]) — so outcomes aggregate on the same
/// footing as the static and ladder strategies. Unlike the pipeline's
/// hot path this allocates per attempt (header, conduits, the buildings
/// they cover); the churn engine's zero-alloc guarantee covers only the
/// static/ladder loop.
///
/// Determinism: the repair consults only the materialized fault
/// state's blocked set (no RNG), and the delivery draws come from the
/// caller's per-flow sub-stream, so outcomes are independent of
/// worker scheduling exactly like the fleet engine's.
pub fn deliver_with_local_repair(
    exp: &CityExperiment,
    plan: &PlannedFlow,
    msg_id: u64,
    max_attempts: u32,
    rng: &mut SimRng,
    scratch: &mut DeliveryScratch,
) -> RepairOutcome {
    let mut result = RepairOutcome {
        outcome: PairOutcome::from_plan(plan),
        repairs: 0,
        full_replans: 0,
        replanned_buildings: 0,
    };
    if !plan.route_found() {
        return result;
    }
    let Some(src_ap) = plan.src_ap else {
        return result;
    };
    // The working route: the plan's uncompressed primary route when
    // the world kept it (any fault scenario does), re-derived from
    // the building graph otherwise.
    let mut route: Vec<u32> = if plan.primary_route().is_empty() {
        match plan_route(exp.building_graph(), plan.src, plan.dst) {
            Ok(r) => r,
            Err(_) => return result,
        }
    } else {
        plan.primary_route().to_vec()
    };
    let faults = exp.fault_state();
    let (width, loss) = (exp.config().conduit_width_m, exp.config().reception_loss);
    let max_attempts = max_attempts.max(1);
    let mut attempts = 0u32;
    let mut total_broadcasts = 0u64;
    let mut penalty = SimTime::ZERO;
    let mut repaired = false;
    let mut search = PlannerScratch::new();
    loop {
        attempts += 1;
        let Ok(compressed) = compress_route(exp.building_graph(), &route, width) else {
            break;
        };
        let header = CityMeshHeader::new(msg_id, width, compressed.waypoints);
        let conduits = reconstruct_conduits(exp.map(), &header.waypoints, header.conduit_width_m());
        let covered;
        let relays = match exp.config().scope {
            RebroadcastScope::Building => {
                covered = CoveredSet::of(exp.map(), &conduits);
                Relays::Covered(&covered)
            }
            RebroadcastScope::ApPosition => Relays::Conduits(&conduits),
        };
        let (delivered, first_delivery, broadcasts) = {
            let report = simulate_delivery_faulted(
                exp.ap_graph(),
                &header,
                relays,
                src_ap,
                loss,
                faults,
                rng,
                scratch,
            );
            (report.delivered, report.first_delivery, report.broadcasts)
        };
        total_broadcasts += broadcasts;
        if delivered {
            result.outcome.delivered = true;
            result.outcome.latency = first_delivery.map(|t| penalty + t);
            if attempts > 1 {
                result.outcome.recovered_by = Some(if repaired {
                    RecoveryStage::Replan
                } else {
                    RecoveryStage::Resend
                });
            }
            break;
        }
        if attempts >= max_attempts {
            break;
        }
        // The sender learns of failure at its timeout, exactly like
        // the ladder: one full horizon of latency per failed attempt.
        penalty += HORIZON;
        if let Some(patched) = repair_locally(exp, &route, &mut search, &mut result) {
            route = patched;
            repaired = true;
        }
    }
    result.outcome.attempts = attempts;
    result.outcome.broadcasts = total_broadcasts;
    result.outcome.overhead =
        OverheadOutcome::measure(result.outcome.delivered, total_broadcasts, plan.ideal_hops)
            .value();
    result
}

/// One Babel-style repair step: locate the first dark building on
/// `route`, splice a detour from the building before it to the first
/// live building after it, and keep everything else. Falls back to a
/// full avoid-replan when no local splice exists; returns `None` when
/// the route has no dark building (the failure was stochastic loss —
/// a plain resend is the right response) or no repair is possible.
/// Reads the world's own blocked mask and surviving-component labels
/// ([`CityExperiment::survivors`]), so a splice no surviving route can
/// make costs no search.
fn repair_locally(
    exp: &CityExperiment,
    route: &[u32],
    search: &mut PlannerScratch,
    stats: &mut RepairOutcome,
) -> Option<Vec<u32>> {
    let survivors = exp.survivors()?;
    let bg = exp.building_graph();
    let first_dark = route.iter().position(|&b| survivors.is_blocked(b))?;
    if first_dark == 0 {
        // The source building itself went dark mid-run; no local
        // anchor exists to repair from.
        return None;
    }
    let anchor = first_dark - 1;
    let rejoin = (first_dark + 1..route.len()).find(|&k| !survivors.is_blocked(route[k]));
    let mut detour = Vec::new();
    if let Some(rejoin) = rejoin {
        let (from, to) = (route[anchor], route[rejoin]);
        if plan_route_avoiding_into(bg, from, to, survivors, search, &mut detour).is_ok() {
            stats.repairs += 1;
            stats.replanned_buildings += detour.len() as u64;
            let mut patched = Vec::with_capacity(anchor + detour.len() + route.len() - rejoin - 1);
            patched.extend_from_slice(&route[..anchor]);
            patched.extend_from_slice(&detour);
            patched.extend_from_slice(&route[rejoin + 1..]);
            return Some(patched);
        }
    }
    // No local splice (the damage reaches the route's tail, or the
    // detour endpoints are disconnected): fall back to re-discovery,
    // like a distance-vector node whose feasible-successor set is
    // empty.
    let (src, dst) = (route[0], *route.last().expect("routes are non-empty"));
    plan_route_avoiding_into(bg, src, dst, survivors, search, &mut detour).ok()?;
    if detour == route {
        return None;
    }
    stats.full_replans += 1;
    stats.replanned_buildings += detour.len() as u64;
    Some(detour)
}

#[cfg(test)]
mod tests {
    use super::*;
    use citymesh_core::{ExperimentConfig, FaultScenario, RetryPolicy};
    use citymesh_map::CityArchetype;
    use citymesh_simcore::substream_seed;

    fn faulted_world(seed: u64, p: f64) -> CityExperiment {
        let map = CityArchetype::SurveyDowntown.generate(seed);
        let mut scenario = FaultScenario::iid(p);
        scenario.retry = RetryPolicy::none();
        CityExperiment::prepare(
            map,
            ExperimentConfig {
                seed,
                faults: Some(scenario),
                ..ExperimentConfig::default()
            },
        )
    }

    fn deliver(
        exp: &CityExperiment,
        src: u32,
        dst: u32,
        seed: u64,
        max_attempts: u32,
    ) -> RepairOutcome {
        let plan = exp.plan_flow(src, dst);
        let mut rng = SimRng::new(substream_seed(seed, 0x51D3, 1));
        let mut scratch = DeliveryScratch::new();
        deliver_with_local_repair(
            exp,
            &plan,
            substream_seed(seed, 0x3564, 1),
            max_attempts,
            &mut rng,
            &mut scratch,
        )
    }

    #[test]
    fn healthy_single_attempt_matches_the_pipeline() {
        // With no dark buildings and one attempt allowed, reactive
        // delivery is exactly the pipeline's first send: same RNG
        // stream, same conduits, same outcome.
        let map = CityArchetype::SurveyDowntown.generate(21);
        let scenario = FaultScenario {
            retry: RetryPolicy::none(),
            ..FaultScenario::default()
        };
        let exp = CityExperiment::prepare(
            map,
            ExperimentConfig {
                seed: 21,
                faults: Some(scenario),
                ..ExperimentConfig::default()
            },
        );
        let (src, dst) = (5, 180);
        let plan = exp.plan_flow(src, dst);
        let msg_id = substream_seed(21, 0x3564, 0);
        let mut rng_a = SimRng::new(substream_seed(21, 0x51D3, 0));
        let baseline = exp.simulate_flow(&plan, msg_id, &mut rng_a);
        let mut rng_b = SimRng::new(substream_seed(21, 0x51D3, 0));
        let mut scratch = DeliveryScratch::new();
        let reactive = deliver_with_local_repair(&exp, &plan, msg_id, 1, &mut rng_b, &mut scratch);
        assert_eq!(reactive.outcome, baseline);
        assert_eq!(reactive.repairs, 0);
        assert_eq!(reactive.replanned_buildings, 0);
    }

    fn zero_stats() -> RepairOutcome {
        RepairOutcome {
            outcome: PairOutcome {
                src: 0,
                dst: 0,
                reachable: false,
                route_found: false,
                route_len: 0,
                waypoints: 0,
                route_bits: 0,
                delivered: false,
                broadcasts: 0,
                latency: None,
                ideal_hops: None,
                overhead: None,
                attempts: 0,
                recovered_by: None,
                sealed: false,
                opened: false,
                auth_failed: false,
            },
            repairs: 0,
            full_replans: 0,
            replanned_buildings: 0,
        }
    }

    #[test]
    fn repair_splices_around_the_first_dark_building() {
        let exp = faulted_world(22, 0.0);
        // Find a pair with a long route, then kill a mid-route
        // building's APs so the repair has something to do.
        let plan = (0..exp.map().len() as u32)
            .map(|d| exp.plan_flow(3, d))
            .find(|p| p.route_found() && p.primary_route().len() >= 6)
            .expect("downtown has long routes");
        let route = plan.primary_route().to_vec();
        let victim = route[route.len() / 2];
        let kill: Vec<(u32, citymesh_core::ApHealth)> = exp
            .aps()
            .iter()
            .filter(|a| a.building == victim)
            .map(|a| (a.id, citymesh_core::ApHealth::Failed))
            .collect();
        let mut exp = exp;
        exp.apply_world_event(&kill);
        let faults = exp.fault_state().unwrap();
        assert!(faults.building_blocked(victim));

        let mut stats = zero_stats();
        let mut search = PlannerScratch::new();
        let patched = repair_locally(&exp, &route, &mut search, &mut stats)
            .expect("a mid-route casualty must be repairable");
        assert!(
            !patched.contains(&victim),
            "the patched route must avoid the dark building"
        );
        assert_eq!(patched[0], route[0], "repair must keep the source");
        assert_eq!(
            patched.last(),
            route.last(),
            "repair must keep the destination"
        );
        assert_eq!(
            stats.repairs + stats.full_replans,
            1,
            "exactly one repair action"
        );
        assert!(stats.replanned_buildings > 0);

        // A route with no dark building on it is not repaired: the
        // right response to stochastic loss is a plain resend.
        let mut noop = zero_stats();
        assert!(repair_locally(&exp, &patched, &mut search, &mut noop).is_none());
        assert_eq!(noop.repairs + noop.full_replans, 0);
    }

    #[test]
    fn repair_is_deterministic_and_bounded() {
        let exp = faulted_world(23, 0.35);
        let a = deliver(&exp, 2, 150, 23, 5);
        let b = deliver(&exp, 2, 150, 23, 5);
        assert_eq!(a.outcome, b.outcome, "same streams, same outcome");
        assert_eq!(a.repairs, b.repairs);
        assert!(a.outcome.attempts >= 1 && a.outcome.attempts <= 5);
    }

    #[test]
    fn repairs_fire_under_blackouts_and_label_recoveries() {
        // District blackouts darken whole buildings (i.i.d. loss
        // rarely kills every AP of one), so routes through the discs
        // must fail, get patched, and often deliver on the repair.
        // The radius is deliberately moderate: catastrophic discs
        // (160 m+) also strand the *detours* — the conduits skirting
        // the disc edge lose too many relay APs — and then no repair
        // strategy wins, the ladder's replan rung included.
        let map = CityArchetype::SurveyDowntown.generate(24);
        let mut scenario = FaultScenario::district_blackouts(2, 120.0);
        scenario.retry = RetryPolicy::none();
        let exp = CityExperiment::prepare(
            map,
            ExperimentConfig {
                seed: 24,
                faults: Some(scenario),
                ..ExperimentConfig::default()
            },
        );
        assert!(
            exp.fault_state().unwrap().blocked_buildings().count() > 0,
            "blackouts must darken some buildings"
        );
        let mut repairs = 0u64;
        let mut repaired_buildings = 0u64;
        let mut recovered_by_repair = 0u64;
        for src in [2u32, 30, 75] {
            for dst in 100..220u32 {
                let r = deliver(&exp, src, dst, 24, 4);
                repairs += r.repairs + r.full_replans;
                repaired_buildings += r.replanned_buildings;
                if r.outcome.delivered && r.outcome.recovered_by == Some(RecoveryStage::Replan) {
                    recovered_by_repair += 1;
                }
            }
        }
        assert!(repairs > 0, "blackouts must trigger some repairs");
        assert!(
            repaired_buildings > 0,
            "repairs must recompute some buildings"
        );
        assert!(
            recovered_by_repair > 0,
            "some deliveries must be won by a repaired route"
        );
    }
}
