//! Execution: the stochastic half of a flow, and the §4 evaluation.
//!
//! [`CityExperiment::simulate_flow_opts`] is the one flow body — seal,
//! climb the retry policy's rungs over the delivery kernel
//! ([`crate::sim`]), open — and every other `simulate_flow*` name is a
//! one-line wrapper choosing its [`FlowOpts`]. [`CityExperiment::run`]
//! produces the three Figure-6 metrics for a city:
//!
//! * **reachability** — fraction of random building pairs connected
//!   through the AP graph (1000 pairs in the paper);
//! * **deliverability** — among reachable pairs, fraction whose packet
//!   the building-routing algorithm actually delivers in the full
//!   event simulation (50 pairs in the paper);
//! * **transmission overhead** — broadcasts ÷ ideal-unicast hops
//!   (≈ 13× in the paper).
//!
//! plus the §4 header statistics (median / 90th-percentile compressed
//! route bits).

use citymesh_simcore::{split_seed, SimRng, SimTime};
use citymesh_telemetry::{FlowSummary, TraceEvent};

use crate::conduit::{reconstruct_conduits_into, CoveredSet};
use crate::config::RebroadcastScope;
use crate::faults::{Escalation, RecoveryStage, RetryPolicy};
use crate::plan::PlannedFlow;
use crate::secure::TamperMode;
use crate::sim::{
    frames_can_be_lost, placeholder_header, simulate_delivery_faulted, DeliveryScratch, Relays,
    HORIZON,
};
use crate::world::CityExperiment;

/// One src→dst delivery attempt, fully annotated.
#[derive(Clone, Debug, PartialEq)]
pub struct PairOutcome {
    /// Source building.
    pub src: u32,
    /// Destination building.
    pub dst: u32,
    /// Ground truth: are the buildings connected through the AP graph?
    pub reachable: bool,
    /// Did the building graph predict a route at all?
    pub route_found: bool,
    /// Number of buildings on the planned route (0 when none).
    pub route_len: usize,
    /// Number of waypoints after compression (0 when no route).
    pub waypoints: usize,
    /// Compressed source-route size in bits (0 when no route).
    pub route_bits: usize,
    /// Did the event simulation deliver the packet?
    pub delivered: bool,
    /// Broadcast count from the simulation.
    pub broadcasts: u64,
    /// Simulated first-delivery latency, when delivered.
    pub latency: Option<citymesh_simcore::SimTime>,
    /// Ideal-unicast hop count (ground truth), when reachable.
    pub ideal_hops: Option<u64>,
    /// Transmission overhead (broadcasts / ideal hops), when delivered.
    pub overhead: Option<f64>,
    /// Delivery attempts actually simulated: 1 in a fault-free run,
    /// up to [`RetryPolicy::max_attempts`] under faults, 0 when the
    /// flow never reached the simulator (no route or no live source
    /// AP).
    pub attempts: u32,
    /// The ladder rung that finally delivered, when delivery needed
    /// more than one attempt. `None` for first-try deliveries and for
    /// failures.
    pub recovered_by: Option<RecoveryStage>,
    /// Was the payload sealed under the secure message plane before
    /// transmission? Always `false` on the plaintext path
    /// ([`CityExperiment::simulate_flow_with`]).
    pub sealed: bool,
    /// Was the sealed payload delivered *and* opened successfully by
    /// the receiver (header tag and AEAD tag both verified)?
    pub opened: bool,
    /// Did receiver-side authentication fail (tampered header or
    /// ciphertext)? An auth failure forces `delivered: false` — a
    /// forged message is never a delivery.
    pub auth_failed: bool,
}

impl PairOutcome {
    /// The outcome of a planned flow nothing has simulated yet: the
    /// plan's fields copied over, zero attempts, not delivered.
    pub fn from_plan(plan: &PlannedFlow) -> Self {
        PairOutcome {
            src: plan.src,
            dst: plan.dst,
            reachable: plan.reachable,
            route_found: plan.route_found(),
            route_len: plan.route_len,
            waypoints: plan.waypoints.len(),
            route_bits: plan.route_bits,
            delivered: false,
            broadcasts: 0,
            latency: None,
            ideal_hops: plan.ideal_hops,
            overhead: None,
            attempts: 0,
            recovered_by: None,
            sealed: false,
            opened: false,
            auth_failed: false,
        }
    }
}

/// How one planned flow is run — the argument that tells
/// [`CityExperiment::simulate_flow_opts`]'s callers apart. The default
/// is the plaintext plane under the fault state's full retry ladder.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlowOpts {
    /// Seal the payload under the secure message plane before sending
    /// and open it on receipt. Requires
    /// [`CityExperiment::enable_encryption`].
    pub sealed: bool,
    /// Adversarial fault injection for a sealed flow: corrupt the
    /// message between seal and receiver-side open, exactly where an
    /// on-path adversary could. A tampered flow that the simulation
    /// delivered must come back `auth_failed: true, delivered: false`
    /// — a forged message is never a delivery. `None` is the
    /// production path; a plaintext flow has nothing to tamper with.
    pub tamper: Option<TamperMode>,
    /// Cap on delivery attempts, applied on top of the fault state's
    /// [`RetryPolicy::max_attempts`] — `Some(1)` is the stream engine's
    /// second degradation rung (one send, no ladder).
    pub max_attempts: Option<u32>,
}

/// Aggregated per-city results.
#[derive(Clone, Debug)]
pub struct CityResult {
    /// City name.
    pub city: String,
    /// Building count.
    pub buildings: usize,
    /// AP count after placement.
    pub aps: usize,
    /// Mean AP-graph degree.
    pub mean_degree: f64,
    /// AP-graph connected components ("islands").
    pub components: usize,
    /// Fraction of sampled pairs reachable through the AP graph.
    pub reachability: f64,
    /// Fraction of simulated reachable pairs that were delivered.
    pub deliverability: f64,
    /// Median transmission overhead among delivered pairs.
    pub median_overhead: Option<f64>,
    /// Median first-delivery latency among delivered pairs, ms.
    pub median_latency_ms: Option<f64>,
    /// Median compressed-route size, bits.
    pub median_route_bits: Option<usize>,
    /// 90th-percentile compressed-route size, bits.
    pub p90_route_bits: Option<usize>,
    /// Every simulated pair, for deeper analysis.
    pub outcomes: Vec<PairOutcome>,
}

impl CityExperiment {
    /// The stochastic half of a flow: drives the event simulation over
    /// an existing plan and scores the outcome.
    ///
    /// Convenience wrapper around [`CityExperiment::simulate_flow_with`]
    /// that allocates a one-shot [`DeliveryScratch`]; loops should hold
    /// a scratch and call `simulate_flow_with` directly.
    ///
    /// `run_pair` is `plan_flow` + `simulate_flow`; the fleet engine
    /// calls them separately so hotspot destinations replan once.
    pub fn simulate_flow(&self, plan: &PlannedFlow, msg_id: u64, rng: &mut SimRng) -> PairOutcome {
        let mut scratch = DeliveryScratch::new();
        self.simulate_flow_with(plan, msg_id, rng, &mut scratch)
    }

    /// [`CityExperiment::simulate_flow_opts`] on the plaintext plane
    /// with the fault state's full retry ladder: the allocation-free
    /// steady-state path the fleet engine runs with one scratch per
    /// worker. Bit-identical to `simulate_flow`.
    pub fn simulate_flow_with(
        &self,
        plan: &PlannedFlow,
        msg_id: u64,
        rng: &mut SimRng,
        scratch: &mut DeliveryScratch,
    ) -> PairOutcome {
        self.simulate_flow_opts(plan, msg_id, rng, scratch, FlowOpts::default())
    }

    /// [`CityExperiment::simulate_flow_opts`] over the secure message
    /// plane ([`FlowOpts::sealed`]), full retry ladder, no tampering.
    ///
    /// # Panics
    /// Panics when [`CityExperiment::enable_encryption`] has not run —
    /// engines gate on their config's `encrypted` knob and validate
    /// before any worker spawns.
    pub fn simulate_flow_secure_with(
        &self,
        plan: &PlannedFlow,
        msg_id: u64,
        rng: &mut SimRng,
        scratch: &mut DeliveryScratch,
    ) -> PairOutcome {
        let opts = FlowOpts {
            sealed: true,
            ..FlowOpts::default()
        };
        self.simulate_flow_opts(plan, msg_id, rng, scratch, opts)
    }

    /// The one flow body: drives the event simulation over `plan`
    /// against caller-owned scratch state and scores the outcome.
    /// Reuses the scratch's header (only the message id varies per
    /// flow) and the plan's cached relay set — its covered buildings,
    /// or under AP-position scope its conduits — so a warmed scratch
    /// executes a flow with zero heap allocations.
    ///
    /// Under a fault scenario this is also where graceful degradation
    /// happens: a failed delivery escalates through the scenario's
    /// [`RetryPolicy`]. On the ladder — re-send, widened conduit,
    /// replanned detour — each rung rides the covered set the plan
    /// memoized for it, so retries stay on the zero-allocation path.
    /// Under local repair each failure splices the route last sent over
    /// around its first dark building, and the next send rides the
    /// patched route's waypoints and covered set, computed in the
    /// scratch's detour buffers. Each failed attempt charges one full
    /// delivery horizon of latency (the sender only learns of failure
    /// at its timeout). [`FlowOpts::max_attempts`] stops the climb
    /// early.
    ///
    /// The flow draws one word from `rng`, its key, before the first
    /// attempt and nothing after; attempt `k` runs the kernel on
    /// `split_seed(flow key, k)`, so every attempt's jitter and loss are
    /// a pure function of the flow and the attempt index. That makes a
    /// futile resend skippable: a [`RecoveryStage::Resend`] rides the
    /// first send's header and relays past the same dark radios, so in
    /// a world where no frame can be lost (zero reception loss, no live
    /// AP adding loss) it reaches exactly what the first send reached
    /// and fails the same way. Such a rung is charged the first send's
    /// broadcasts and a horizon without running the kernel — the same
    /// outcome, and no draw is consumed either way. A traced flow runs
    /// every rung, so its trace holds every attempt's events.
    ///
    /// With [`FlowOpts::sealed`] the payload is sealed under the
    /// per-pair session key (ChaCha20-Poly1305, nonce from the message
    /// id) with an HMAC-authenticated header before the delivery
    /// simulation, and opened + verified by the receiver afterwards.
    /// **Delivery outcomes are unchanged.** Sealing draws no
    /// randomness — the payload is a pure function of the message id,
    /// the session key a pure function of the pair — so `delivered`,
    /// `broadcasts`, `latency`, and every other plaintext field is
    /// bit-identical to the plaintext path. Encryption adds *work*
    /// (one ECDH + HKDF per pair, amortized by the session cache, plus
    /// symmetric sealing per message) and the three secure outcome
    /// fields (`sealed` / `opened` / `auth_failed`). Steady state stays
    /// allocation-free: a cache hit is a shard read plus an `Arc`
    /// clone, sealing reuses the scratch's warmed buffers, and only
    /// the per-pair derivation (the amortized cost) allocates.
    ///
    /// When the caller armed the scratch's tracer for this flow
    /// ([`DeliveryScratch::with_tracing`], then
    /// `FlowTracer::trace_next`) this is also the tracer's driver: it
    /// opens the flow, records the plan and every ladder attempt, and
    /// closes the flow with its transport outcome — all observation
    /// only, so results are bit-identical with tracing on or off. An
    /// unarmed flow records nothing.
    ///
    /// # Panics
    /// Panics when `opts.sealed` and
    /// [`CityExperiment::enable_encryption`] has not run.
    pub fn simulate_flow_opts(
        &self,
        plan: &PlannedFlow,
        msg_id: u64,
        rng: &mut SimRng,
        scratch: &mut DeliveryScratch,
        opts: FlowOpts,
    ) -> PairOutcome {
        // Sender side: session key from the sharded cache (the
        // derivation — ECDH + HKDF — runs once per pair), then seal
        // the deterministic payload and authenticate the header.
        let sealed = opts.sealed.then(|| {
            let secure = self
                .secure_state()
                .expect("a sealed flow requires CityExperiment::enable_encryption");
            let (key, derived) = secure.session(plan.src, plan.dst);
            if derived {
                scratch.keys_derived += 1;
            }
            fill_secure_payload(msg_id, &mut scratch.payload);
            let aad = secure_header(plan.src, plan.dst, msg_id, plan.route_bits);
            key.seal_into(msg_id, &aad, &scratch.payload, &mut scratch.sealed_buf);
            let header_tag = key.header_tag(&aad);
            (key, aad, header_tag)
        });

        scratch.tracer.begin_flow();
        scratch.tracer.record(TraceEvent::Plan {
            src: plan.src,
            dst: plan.dst,
            route_len: plan.route_len as u32,
            waypoints: plan.waypoints.len() as u32,
            route_bits: plan.route_bits as u32,
            conduits: plan.conduits.len() as u32,
        });
        let mut outcome = PairOutcome::from_plan(plan);
        outcome.sealed = opts.sealed;
        // No route, or a dark source building: nothing is sent, so
        // nothing arrives to be opened either.
        let Some(src_ap) = plan.src_ap.filter(|_| plan.route_found()) else {
            finish_flow_trace(scratch, &outcome);
            return outcome;
        };
        let world = self.fault_world();
        let faults = world.map(|(state, _)| state);
        let policy = faults.map(|f| f.retry()).unwrap_or_else(RetryPolicy::none);
        let local_repair = policy.escalation == Escalation::LocalRepair;
        let max_attempts = policy
            .max_attempts
            .min(opts.max_attempts.unwrap_or(u32::MAX));
        let config = self.config();
        let (width, scope, loss) = (config.conduit_width_m, config.scope, config.reception_loss);
        let lossless = !frames_can_be_lost(loss, faults);
        // A plan assembled field by field carries no covered set; it is
        // computed here rather than read as "covers nothing".
        let computed;
        let plan_covered = match plan.covered() {
            Some(set) => set,
            None => {
                computed = CoveredSet::of(self.map(), &plan.conduits);
                &computed
            }
        };
        // Borrow juggling: the kernel needs `&mut scratch` while
        // reading the header and a rung's rebuilt conduits and covered
        // set, so lift them out (what is left behind owns no heap
        // memory) and restore them after.
        let mut header = std::mem::replace(&mut scratch.header, placeholder_header());
        let mut rung_conduits = std::mem::take(&mut scratch.rung_conduits);
        let mut rung_covered = std::mem::take(&mut scratch.detour.covered);
        let flow_key = rng.next_u64();
        let mut attempts = 0u32;
        let mut total_broadcasts = 0u64;
        let mut first_broadcasts = 0u64;
        let mut penalty = SimTime::ZERO;
        // The widen rung's width, once the flow has reached it.
        let mut wide_width = None;
        // Whether a detour — the ladder's replan, or a local-repair
        // splice — has replaced the plan's route; its waypoints are
        // `scratch.detour.waypoints`, its covered set `rung_covered`.
        let mut patched = false;
        loop {
            attempts += 1;
            // Rung selection. The ladder: 1 → first send, 2 → re-send,
            // 3 → widen, 4+ → replan, each rung's geometry built when
            // the flow reaches it (below); a replan with no distinct
            // detour degrades to a re-send, so the ladder is always
            // bounded by `max_attempts`. Local repair: every send after
            // the first splice rides the patched route, and is a replan
            // however many sends later.
            let (stage, waypoints, rung_width, covered): (_, &[u32], f64, &CoveredSet) =
                match (attempts, wide_width) {
                    (1, _) => (RecoveryStage::First, &plan.waypoints, width, plan_covered),
                    _ if patched => (
                        RecoveryStage::Replan,
                        &scratch.detour.waypoints,
                        width,
                        &rung_covered,
                    ),
                    (3, Some(wide)) => (RecoveryStage::Widen, &plan.waypoints, wide, &rung_covered),
                    _ => (RecoveryStage::Resend, &plan.waypoints, width, plan_covered),
                };
            header.reuse_for(msg_id, rung_width, waypoints);
            scratch.tracer.record(TraceEvent::Attempt {
                attempt: attempts,
                rung: stage,
                width_dm: u32::from(header.conduit_width_dm),
                conduits: waypoints.len().saturating_sub(1).max(1) as u32,
            });
            let relays = match (scope, stage) {
                (RebroadcastScope::Building, _) => Relays::Covered(covered),
                (RebroadcastScope::ApPosition, RecoveryStage::First | RecoveryStage::Resend) => {
                    Relays::Conduits(&plan.conduits)
                }
                // The ablation alone: a ladder rung keeps no conduits,
                // so they are rebuilt from the header, as a relay would.
                (RebroadcastScope::ApPosition, _) => {
                    let w = header.conduit_width_m();
                    reconstruct_conduits_into(self.map(), &header.waypoints, w, &mut rung_conduits);
                    Relays::Conduits(&rung_conduits)
                }
            };
            // A futile resend (the method docs) repeats the first send.
            let futile = stage == RecoveryStage::Resend && lossless && !scratch.tracer.is_active();
            let (delivered, first_delivery, broadcasts) = if futile {
                (false, None, first_broadcasts)
            } else {
                let report = simulate_delivery_faulted(
                    self.ap_graph(),
                    &header,
                    relays,
                    src_ap,
                    loss,
                    faults,
                    split_seed(flow_key, u64::from(attempts)),
                    scratch,
                );
                (report.delivered, report.first_delivery, report.broadcasts)
            };
            if attempts == 1 {
                first_broadcasts = broadcasts;
            }
            total_broadcasts += broadcasts;
            if delivered {
                outcome.delivered = true;
                outcome.latency = first_delivery.map(|t| penalty + t);
                if attempts > 1 {
                    outcome.recovered_by = Some(stage);
                }
                break;
            }
            scratch.tracer.record(TraceEvent::AttemptFailed {
                attempt: attempts,
                broadcasts,
            });
            if attempts >= max_attempts {
                break;
            }
            // The sender learns of the failure at its timeout. Attempts
            // only exceed 1 under a fault scenario, so the fault world
            // is present here; the next rung's geometry is built now,
            // once per flow.
            penalty += HORIZON;
            if let Some((_, survivors)) = world {
                let (d, covered) = (&mut scratch.detour, &mut rung_covered);
                match attempts + 1 {
                    _ if local_repair => {
                        patched |= self.repair_route(plan, survivors, d, patched, covered);
                    }
                    3 => wide_width = Some(self.widen_rung(plan, d, covered)),
                    4 => patched = self.detour_rung(plan, survivors, d, covered),
                    _ => {}
                }
            }
        }
        outcome.attempts = attempts;
        outcome.broadcasts = total_broadcasts;
        outcome.overhead = crate::sim::OverheadOutcome::measure(
            outcome.delivered,
            total_broadcasts,
            plan.ideal_hops,
        )
        .value();
        scratch.header = header;
        scratch.rung_conduits = rung_conduits;
        scratch.detour.covered = rung_covered;
        finish_flow_trace(scratch, &outcome);

        // Receiver side: verify the header tag, then open. Tamper
        // injection corrupts what the receiver sees, never what the
        // sender computed. When nothing arrived there is nothing to
        // open (or forge).
        if let Some((key, aad, header_tag)) = sealed.filter(|_| outcome.delivered) {
            let mut rx_header = aad;
            match opts.tamper {
                Some(TamperMode::Header) => rx_header[0] ^= 0x01,
                Some(TamperMode::Ciphertext) => {
                    if let Some(byte) = scratch.sealed_buf.first_mut() {
                        *byte ^= 0x01;
                    }
                }
                None => {}
            }
            let header_ok = key.verify_header(&rx_header, &header_tag);
            let opened = header_ok
                && key
                    .open_into(
                        msg_id,
                        &rx_header,
                        &scratch.sealed_buf,
                        &mut scratch.opened_buf,
                    )
                    .is_ok();
            if opened {
                debug_assert_eq!(
                    scratch.opened_buf, scratch.payload,
                    "AEAD round trip must reproduce the payload"
                );
                outcome.opened = true;
            } else {
                // Authentication failed: the transport delivered bytes,
                // but they are not the sender's message. Explicitly not a
                // delivery.
                outcome.auth_failed = true;
                outcome.delivered = false;
                outcome.latency = None;
                outcome.overhead = None;
                outcome.recovered_by = None;
            }
        }
        outcome
    }

    /// Plans, compresses, simulates, and scores one pair.
    pub fn run_pair(&self, src: u32, dst: u32, msg_id: u64, rng: &mut SimRng) -> PairOutcome {
        let plan = self.plan_flow(src, dst);
        self.simulate_flow(&plan, msg_id, rng)
    }

    /// The full §4 evaluation for this city.
    pub fn run(&self) -> CityResult {
        let cfg = self.config();
        let mut pair_rng = SimRng::new(split_seed(cfg.seed, 0x9A195));
        let mut sim_rng = SimRng::new(split_seed(cfg.seed, 0xDE11FE7));

        // Reachability over many pairs (graph query only: cheap).
        let pairs = self.sample_pairs(cfg.reachability_pairs, &mut pair_rng);
        let reachable_pairs: Vec<(u32, u32)> = pairs
            .iter()
            .copied()
            .filter(|(s, d)| self.reachable(*s, *d))
            .collect();
        let reachability = if pairs.is_empty() {
            0.0
        } else {
            reachable_pairs.len() as f64 / pairs.len() as f64
        };

        // Deliverability over a subset of reachable pairs (event sim:
        // expensive), exactly as the paper does.
        let mut outcomes = Vec::new();
        for (i, (src, dst)) in reachable_pairs.iter().take(cfg.delivery_pairs).enumerate() {
            let msg_id = split_seed(cfg.seed, 0x5EED ^ i as u64);
            outcomes.push(self.run_pair(*src, *dst, msg_id, &mut sim_rng));
        }

        let delivered: Vec<&PairOutcome> = outcomes.iter().filter(|o| o.delivered).collect();
        let deliverability = if outcomes.is_empty() {
            0.0
        } else {
            delivered.len() as f64 / outcomes.len() as f64
        };

        let mut overheads: Vec<f64> = delivered.iter().filter_map(|o| o.overhead).collect();
        overheads.sort_by(|a, b| a.partial_cmp(b).expect("finite overheads"));
        let mut latencies: Vec<f64> = delivered
            .iter()
            .filter_map(|o| o.latency.map(|t| t.as_millis_f64()))
            .collect();
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let mut bits: Vec<usize> = outcomes
            .iter()
            .filter(|o| o.route_found)
            .map(|o| o.route_bits)
            .collect();
        bits.sort_unstable();

        CityResult {
            city: self.map().name().to_string(),
            buildings: self.map().len(),
            aps: self.aps().len(),
            mean_degree: self.ap_graph().mean_degree(),
            components: self.ap_graph().num_components(),
            reachability,
            deliverability,
            median_overhead: percentile(&overheads, 0.5),
            median_latency_ms: percentile(&latencies, 0.5),
            median_route_bits: percentile(&bits, 0.5),
            p90_route_bits: percentile(&bits, 0.9),
            outcomes,
        }
    }
}

/// Bytes of deterministic payload every sealed flow carries.
const SECURE_PAYLOAD_LEN: usize = 64;

/// Fills `out` with the flow's deterministic payload: a SplitMix64
/// expansion of the message id. A pure function of `msg_id` — crucially
/// **not** a draw from the flow's simulation RNG stream, so enabling
/// encryption leaves every delivery outcome bit-identical, and a warm
/// (cached-session) run reproduces a cold run exactly.
fn fill_secure_payload(msg_id: u64, out: &mut Vec<u8>) {
    out.clear();
    let mut x = msg_id;
    for _ in 0..SECURE_PAYLOAD_LEN / 8 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        out.extend_from_slice(&z.to_le_bytes());
    }
}

/// The authenticated header bytes: the flow's identity and routing
/// commitment `(src, dst, msg_id, route_bits)`, fixed-size so the hot
/// path builds it on the stack. Doubles as the AEAD's associated data,
/// binding ciphertext to header — swapping either between flows fails
/// authentication.
fn secure_header(src: u32, dst: u32, msg_id: u64, route_bits: usize) -> [u8; 24] {
    let mut header = [0u8; 24];
    header[..4].copy_from_slice(&src.to_le_bytes());
    header[4..8].copy_from_slice(&dst.to_le_bytes());
    header[8..16].copy_from_slice(&msg_id.to_le_bytes());
    header[16..].copy_from_slice(&(route_bits as u64).to_le_bytes());
    header
}

/// Closes the scratch's active flow trace with the outcome's summary
/// (a branch-only no-op when no flow is being traced).
fn finish_flow_trace(scratch: &mut DeliveryScratch, outcome: &PairOutcome) {
    scratch.tracer.finish_flow(FlowSummary {
        src: outcome.src,
        dst: outcome.dst,
        delivered: outcome.delivered,
        attempts: outcome.attempts,
        recovered_by: outcome.recovered_by,
        broadcasts: outcome.broadcasts,
        latency_ns: outcome.latency.map(|t| t.as_nanos()),
    });
}

fn percentile<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    Some(sorted[idx])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::small_config;
    use crate::{ExperimentConfig, FaultScenario};
    use citymesh_map::CityArchetype;

    #[test]
    fn downtown_run_has_high_reachability_and_deliverability() {
        let map = CityArchetype::SurveyDowntown.generate(1);
        let exp = CityExperiment::prepare(map, small_config(1));
        let result = exp.run();
        assert!(
            result.reachability > 0.9,
            "downtown reachability {}",
            result.reachability
        );
        assert!(
            result.deliverability > 0.7,
            "downtown deliverability {}",
            result.deliverability
        );
        assert_eq!(result.outcomes.len(), 10);
        let overhead = result.median_overhead.expect("some deliveries succeeded");
        assert!(
            overhead > 1.0 && overhead < 60.0,
            "overhead {overhead} out of plausible range"
        );
        let bits = result.median_route_bits.unwrap();
        assert!(
            (40..600).contains(&bits),
            "median route bits {bits} out of plausible range"
        );
    }

    #[test]
    fn river_city_fractures() {
        let map = CityArchetype::SurveyRiver.generate(2);
        let exp = CityExperiment::prepare(map, small_config(2));
        let result = exp.run();
        assert!(result.components > 1, "the river must split the AP graph");
        assert!(
            result.reachability < 0.95,
            "cross-river pairs should be unreachable, got {}",
            result.reachability
        );
    }

    #[test]
    fn results_are_deterministic_in_seed() {
        let map = CityArchetype::SurveyResidential.generate(3);
        let a = CityExperiment::prepare(map.clone(), small_config(7)).run();
        let b = CityExperiment::prepare(map, small_config(7)).run();
        assert_eq!(a.reachability, b.reachability);
        assert_eq!(a.deliverability, b.deliverability);
        assert_eq!(a.aps, b.aps);
        assert_eq!(a.outcomes.len(), b.outcomes.len());
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.broadcasts, y.broadcasts);
            assert_eq!(x.delivered, y.delivered);
        }
    }

    #[test]
    fn percentiles() {
        assert_eq!(percentile::<f64>(&[], 0.5), None);
        assert_eq!(percentile(&[1.0], 0.5), Some(1.0));
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.5), Some(2.0));
        assert_eq!(
            percentile(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100], 0.9),
            Some(90)
        );
    }

    #[test]
    fn tracing_is_invisible_and_captures_complete_traces() {
        use citymesh_telemetry::TraceConfig;
        let map = CityArchetype::SurveyDowntown.generate(5);
        let exp = CityExperiment::prepare(map, small_config(5));
        let mut pair_rng = SimRng::new(11);
        let pairs = exp.sample_pairs(6, &mut pair_rng);
        let mut plain = DeliveryScratch::new();
        let mut traced = DeliveryScratch::with_tracing(TraceConfig::sampled(1));
        for (i, (src, dst)) in pairs.iter().enumerate() {
            let plan = exp.plan_flow(*src, *dst);
            let msg_id = 1000 + i as u64;
            let mut rng_a = SimRng::new(40 + i as u64);
            let mut rng_b = SimRng::new(40 + i as u64);
            let a = exp.simulate_flow_with(&plan, msg_id, &mut rng_a, &mut plain);
            traced.tracer_mut().trace_next(msg_id);
            let b = exp.simulate_flow_with(&plan, msg_id, &mut rng_b, &mut traced);
            assert_eq!(a, b, "tracing must not change outcomes");
        }
        // Every flow was armed, so every flow is captured under its key;
        // each trace opens with the plan and its summary mirrors the
        // outcome structure.
        let pms = traced.tracer_mut().take_postmortems();
        assert_eq!(pms.len(), pairs.len());
        for (i, pm) in pms.iter().enumerate() {
            assert_eq!(pm.key, 1000 + i as u64);
            assert!(
                matches!(pm.events.first(), Some(TraceEvent::Plan { .. })),
                "trace must open with the plan"
            );
            if pm.summary.delivered {
                assert!(pm
                    .events
                    .iter()
                    .any(|e| matches!(e, TraceEvent::Delivered { .. })));
            }
        }
    }

    /// The benchmark downtown (world seed 2024) under `faults`, and its
    /// first `n` seed-1 hotspot flows with each flow's message id and
    /// simulation sub-stream, as a fleet worker derives them.
    fn downtown_flows(
        faults: FaultScenario,
        n: usize,
    ) -> (CityExperiment, Vec<(PlannedFlow, u64, SimRng)>) {
        use citymesh_fleet::{generate_flows, FlowModel, WorkloadConfig, DOMAIN_MSG, DOMAIN_SIM};
        use citymesh_simcore::substream_seed;
        let config = ExperimentConfig {
            seed: 2024,
            faults: Some(faults),
            ..ExperimentConfig::default()
        };
        let map = CityArchetype::SurveyDowntown.generate(2024);
        let exp = CityExperiment::try_prepare(map, config).expect("valid config");
        let model = FlowModel::Hotspot {
            hotspots: 256,
            exponent: 0.8,
            rate_hz: 1_000.0,
        };
        let workload = WorkloadConfig {
            flows: n,
            model,
            seed: 1,
        };
        let flows = generate_flows(exp.map().len(), &workload)
            .into_iter()
            .map(|f| {
                let msg_id = substream_seed(1, DOMAIN_MSG, f.id);
                let rng = SimRng::new(substream_seed(1, DOMAIN_SIM, f.id));
                (exp.plan_flow(f.src, f.dst), msg_id, rng)
            })
            .collect();
        (exp, flows)
    }

    /// In a world where no frame can be lost — the `churn-ladder` 60 m
    /// blackout, under the ladder and under local repair — every flow
    /// that climbs gives the same outcome, field for field, untraced
    /// (its futile resends skipped) and traced (every rung run through
    /// the kernel, which the trace shows as broadcasts after each
    /// resend's attempt event).
    #[test]
    fn skipping_futile_resends_changes_no_outcome() {
        use citymesh_telemetry::TraceConfig;
        for retry in [RetryPolicy::ladder(), RetryPolicy::local_repair(4)] {
            let blackout = FaultScenario {
                retry,
                ..FaultScenario::district_blackouts(1, 60.0)
            };
            let (exp, flows) = downtown_flows(blackout, 1_000);
            assert!(!exp.fault_state().expect("faulted").adds_loss());
            let mut plain = DeliveryScratch::new();
            let mut traced = DeliveryScratch::with_tracing(TraceConfig::sampled(1));
            let (mut climbed, mut resends) = (0, 0);
            for (plan, msg_id, rng) in &flows {
                let untraced = exp.simulate_flow_with(plan, *msg_id, &mut rng.clone(), &mut plain);
                if untraced.attempts < 2 {
                    continue;
                }
                climbed += 1;
                traced.tracer_mut().trace_next(*msg_id);
                let outcome = exp.simulate_flow_with(plan, *msg_id, &mut rng.clone(), &mut traced);
                assert_eq!(outcome, untraced, "{retry:?}: {} -> {}", plan.src, plan.dst);
                let [trace] = &traced.tracer_mut().take_postmortems()[..] else {
                    panic!("one armed flow, one trace");
                };
                assert_eq!(trace.dropped_events, 0);
                let events = &trace.events;
                for (at, event) in events.iter().enumerate() {
                    if let TraceEvent::Attempt {
                        rung: RecoveryStage::Resend,
                        ..
                    } = event
                    {
                        resends += 1;
                        let ran = matches!(events[at + 1], TraceEvent::Broadcast { .. });
                        assert!(ran, "a traced resend runs the kernel");
                    }
                }
            }
            eprintln!("{retry:?}: {climbed} flows climbed, {resends} resends run when traced");
            assert!(
                climbed > 50 && resends > 50,
                "{retry:?}: {climbed} climbed, {resends} resends"
            );
        }
    }

    /// Where a live AP drops frames (ROADMAP 8(a)'s probe world: i.i.d.
    /// failures at 0.2, 30 % of APs degraded at 30 % extra loss, a
    /// lossless medium), a resend is a fresh draw, is run, and wins
    /// flows back.
    #[test]
    fn resends_still_recover_where_frames_can_be_lost() {
        let lossy = FaultScenario {
            degraded_p: 0.3,
            degraded_loss: 0.3,
            ..FaultScenario::iid(0.2)
        };
        let (exp, flows) = downtown_flows(lossy, 1_000);
        assert!(exp.fault_state().expect("faulted").adds_loss());
        let mut scratch = DeliveryScratch::new();
        let recovered_by_resend = flows
            .iter()
            .map(|(plan, msg_id, rng)| {
                exp.simulate_flow_with(plan, *msg_id, &mut rng.clone(), &mut scratch)
            })
            .filter(|o| o.recovered_by == Some(RecoveryStage::Resend))
            .count();
        eprintln!("{recovered_by_resend} flows recovered by a resend");
        assert!(recovered_by_resend > 0, "no resend recovered a flow");
    }

    #[test]
    fn outcome_fields_are_coherent() {
        let map = CityArchetype::SurveyDowntown.generate(5);
        let exp = CityExperiment::prepare(map, small_config(5));
        let result = exp.run();
        for o in &result.outcomes {
            assert!(o.reachable, "only reachable pairs are simulated");
            if o.delivered {
                assert!(o.route_found);
                assert!(o.broadcasts > 0);
                assert!(o.waypoints >= 1 && o.waypoints <= o.route_len);
                assert!(o.route_bits > 0);
            }
            if let Some(ov) = o.overhead {
                assert!(ov >= 1.0, "cannot beat the ideal unicast: {ov}");
            }
        }
    }
}
