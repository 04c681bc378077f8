//! Event-driven delivery simulation (paper §4).
//!
//! Replays one CityMesh message through a concrete AP placement: the
//! source AP broadcasts, every AP in its precomputed audience
//! ([`ApGraph::audience`]) receives, each first-time receiver delivers
//! when it sits in the destination building and relays when the
//! flow's [`Relays`] name it — under building scope a
//! plan's [`CoveredSet`], read into a per-building table before the
//! flood, under AP-position scope the conduits tested at the receiver's
//! own position — and relays fire after a small random MAC jitter. A
//! flow carries one message id, so the report's role vector doubles as
//! every AP's duplicate-suppression memory: an AP has seen the packet
//! exactly when its role is no longer [`ApRole::Silent`]. The run
//! records everything the paper's metrics need: whether a
//! destination-building AP ever received the packet
//! (*deliverability*), how many broadcasts happened (the overhead
//! numerator), and the per-AP roles for Figure-7-style renders.
//!
//! Every random number of a run is a keyed draw on the attempt's key:
//! a relay's jitter is `keyed_jitter(key, relay)` and a frame's loss
//! trial `keyed_chance(key, transmitter, receiver, p)`
//! ([`citymesh_simcore::keyed_jitter`]). Neither depends on when, or
//! whether, any other draw was made, so which frames survive and when
//! each AP transmits are fixed before the flood starts; the event queue
//! only finds the order. A run is therefore a graph computation — a
//! BFS over the surviving frames gives roles, broadcasts, receptions
//! and duplicates, a shortest-path relaxation over the jitters gives
//! the first delivery — and `crates/core/tests/kernel_oracle.rs` holds
//! the kernel equal to exactly that.
//!
//! The kernel has one entry point, [`simulate_delivery_faulted`]. It
//! runs against a caller-owned [`DeliveryScratch`] and an optional
//! fault state (`None` is the healthy world), touching the heap **zero
//! times** in steady state. The fleet engine keeps one scratch per
//! worker and replays millions of flows through it. A one-off run hands
//! it a fresh scratch and clones the report it returns.

use citymesh_geo::OrientedRect;
use citymesh_graph::PlannerScratch;
use citymesh_net::{CityMeshHeader, MessageKind, RouteEncoding};
use citymesh_simcore::{keyed_chance, keyed_jitter, SimTime, Simulation};
use citymesh_telemetry::{FlowTracer, TraceConfig, TraceEvent};

use crate::apgraph::ApGraph;
use crate::conduit::{within_conduits, CoveredSet};
use crate::faults::{combined_loss, FaultState};

/// Minimum per-relay MAC jitter (the processing-latency floor): each
/// relay waits `U(MIN_JITTER, MAX_JITTER)` before transmitting, drawn
/// by [`keyed_jitter`] on the attempt's key and the relay's id.
pub const MIN_JITTER: SimTime = SimTime::from_micros(500);
/// Maximum per-relay MAC jitter.
pub const MAX_JITTER: SimTime = SimTime::from_millis(5);
/// Hard stop: a message undelivered after this long has failed, and
/// every failed attempt of the retry ladder charges it as latency.
pub const HORIZON: SimTime = SimTime::from_millis(60_000);

/// Explicit transmission-overhead semantics, replacing the ambiguous
/// bare `Option` (which conflated "the flow failed" with "there is no
/// ideal-hops baseline to divide by").
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OverheadOutcome {
    /// Delivered with a baseline: broadcasts ÷ ideal hops (or the raw
    /// broadcast count for a same-building flow whose baseline is 0).
    Measured(f64),
    /// The message was never delivered; overhead is undefined because
    /// the broadcasts bought nothing.
    NotDelivered,
    /// Delivered, but no ideal-unicast baseline exists (ground truth
    /// found no AP-graph path to divide by).
    NoBaseline,
}

impl OverheadOutcome {
    /// Classifies one measurement.
    pub fn measure(delivered: bool, broadcasts: u64, ideal_hops: Option<u64>) -> Self {
        match (delivered, ideal_hops) {
            (false, _) => OverheadOutcome::NotDelivered,
            (true, None) => OverheadOutcome::NoBaseline,
            (true, Some(h)) if h > 0 => OverheadOutcome::Measured(broadcasts as f64 / h as f64),
            (true, Some(_)) => OverheadOutcome::Measured(broadcasts as f64),
        }
    }

    /// The measured ratio, `None` for both non-measured cases (the
    /// legacy `Option` view).
    pub fn value(&self) -> Option<f64> {
        match self {
            OverheadOutcome::Measured(v) => Some(*v),
            _ => None,
        }
    }
}

/// What one AP did during the run (for rendering and assertions).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ApRole {
    /// Never received the packet.
    Silent,
    /// Received at least once but never transmitted (outside every
    /// conduit).
    HeardOnly,
    /// Transmitted the packet (source or relay).
    Relayed,
}

/// The outcome of one simulated message.
#[derive(Clone, Debug, PartialEq)]
pub struct DeliveryReport {
    /// Whether an AP in the destination building received the packet.
    pub delivered: bool,
    /// When the first destination-building AP received it.
    pub first_delivery: Option<SimTime>,
    /// Total packet broadcasts (the overhead numerator; includes the
    /// source's initial transmission).
    pub broadcasts: u64,
    /// Total frame receptions across all APs.
    pub receptions: u64,
    /// Receptions dropped as duplicates.
    pub duplicates: u64,
    /// Per-AP role, indexed by AP id.
    pub roles: Vec<ApRole>,
}

impl DeliveryReport {
    /// Transmission overhead versus an ideal unicast path of
    /// `ideal_hops` transmissions (paper §4: "the ratio of the number
    /// of packet broadcasts … to the minimum number of transmissions
    /// necessary"), with the two non-measurable cases kept distinct:
    /// [`OverheadOutcome::NotDelivered`] (the flow failed, so the
    /// broadcasts bought nothing) versus [`OverheadOutcome::NoBaseline`]
    /// (delivered, but ground truth has no ideal path to divide by).
    pub fn overhead_outcome(&self, ideal_hops: Option<u64>) -> OverheadOutcome {
        OverheadOutcome::measure(self.delivered, self.broadcasts, ideal_hops)
    }

    /// Flattened view of [`DeliveryReport::overhead_outcome`].
    ///
    /// Contract: `None` means *either* the message was not delivered
    /// *or* no ideal-hops baseline exists — callers that must tell
    /// the two apart use `overhead_outcome` instead. Aggregations that
    /// only average measured overheads (the paper's ≈13× figure) can
    /// keep filter-mapping on this.
    pub fn overhead(&self, ideal_hops: Option<u64>) -> Option<f64> {
        self.overhead_outcome(ideal_hops).value()
    }

    /// Number of APs that relayed.
    pub fn relay_count(&self) -> usize {
        self.roles.iter().filter(|r| **r == ApRole::Relayed).count()
    }
}

/// The only event: an AP transmits the packet.
#[derive(Debug)]
struct Tx(u32);

/// What the delivery kernel did through one [`DeliveryScratch`],
/// cumulative over every flow it ran. Telemetry for tests and
/// profiling: in no digest and no registry metric.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// The most events ever pending in the scratch's queue at once.
    pub queue_high_water: usize,
}

/// The two bits of a building's verdict for the current flow.
const DELIVER: u8 = 1;
const REBROADCAST: u8 = 2;

/// Which APs relay a flow: the header's conduits in the form its
/// [`RebroadcastScope`](crate::RebroadcastScope) reads them.
#[derive(Clone, Copy, Debug)]
pub enum Relays<'a> {
    /// Building scope: every AP of a building in the set relays — the
    /// buildings whose centroid the conduits cover
    /// ([`CoveredSet::of`]; a plan carries them as
    /// [`PlannedFlow::covered`](crate::PlannedFlow::covered)).
    Covered(&'a CoveredSet),
    /// AP-position scope: an AP relays when its own position lies in
    /// one of the conduits.
    Conduits(&'a [OrientedRect]),
}

/// What the detours of the replan rung and of local repair cost a
/// worker, cumulative over the [`DeliveryScratch`] that counted them.
/// Every flow computes its own detours, so totals over a fleet are
/// per flow and do not depend on which worker ran what.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DetourStats {
    /// Detours refused by the surviving-component labels before any
    /// search: every route between the pair crosses a dark building.
    pub rejected_by_labels: u64,
    /// Detour searches run. The labels admit exactly the pairs a search
    /// connects, so each of these found a route.
    pub searches: u64,
}

/// Buffers of the rungs after the first send — detour search state, the
/// uncompressed detour (the replan rung's, or local repair's patched
/// route between attempts), its waypoints, a header to probe the
/// round-tripped width with, the conduits and building bitset a rung's
/// covered set is gathered through, and that covered set — so that a
/// warm scratch climbs every rung without allocating.
#[derive(Debug)]
pub(crate) struct DetourScratch {
    pub(crate) search: PlannerScratch,
    pub(crate) route: Vec<u32>,
    pub(crate) waypoints: Vec<u32>,
    pub(crate) header: CityMeshHeader,
    pub(crate) conduits: Vec<OrientedRect>,
    pub(crate) covered_marks: Vec<u64>,
    pub(crate) covered: CoveredSet,
    pub(crate) stats: DetourStats,
}

/// A header that owns no heap memory and is never observed:
/// [`CityMeshHeader::reuse_for`] rewrites every field before use.
pub(crate) fn placeholder_header() -> CityMeshHeader {
    CityMeshHeader {
        kind: MessageKind::Data,
        msg_id: 0,
        conduit_width_dm: 0,
        waypoints: Vec::new(),
        encoding: RouteEncoding::Absolute,
    }
}

/// Reusable working state for [`simulate_delivery_faulted`]:
/// everything the delivery kernel would otherwise allocate per call.
///
/// One scratch serves any number of sequential flows (even against
/// different worlds). Buffers grow to the high-water mark of the flows
/// seen and are then reused, so a warmed scratch runs the kernel with
/// **zero heap allocations**:
///
/// * the event-queue storage ([`Simulation::reset`] keeps the queue's
///   allocation);
/// * the [`DeliveryReport`] role vector — one byte per AP, refilled
///   with [`ApRole::Silent`] at the start of every flow, which is also
///   what forgets the previous flow's duplicate-suppression state;
/// * the verdict table — one byte per building of the AP graph,
///   refilled at the start of every flow from its destination and, under
///   building scope, its [`CoveredSet`] (a verdict depends on the
///   header, so it never outlives one).
///
/// Reuse is invisible in the results: a dirty scratch and a fresh one
/// produce bit-identical [`DeliveryReport`]s (property-tested in
/// `crates/core/tests/properties.rs`, and against a naive per-AP-agent
/// reference in `crates/core/tests/kernel_oracle.rs`).
#[derive(Debug)]
pub struct DeliveryScratch {
    sim: Simulation<Tx>,
    report: DeliveryReport,
    /// Per-building verdicts of the current flow: [`DELIVER`], and
    /// [`REBROADCAST`] when its [`Relays`] are a covered set.
    verdicts: Vec<u8>,
    stats: KernelStats,
    /// Reusable header for `CityExperiment::simulate_flow_with` (the
    /// per-flow message id varies, the waypoint buffer is recycled).
    pub(crate) header: CityMeshHeader,
    /// Where `CityExperiment::simulate_flow_with` rebuilds a ladder
    /// rung's conduits under AP-position scope, once per attempt.
    pub(crate) rung_conduits: Vec<OrientedRect>,
    /// Flow tracer (disabled by default). For a flow it was armed for,
    /// the kernel records per-event telemetry into its pre-allocated
    /// ring; for any other flow every tracer call is a branch,
    /// preserving the zero-allocation steady state.
    pub(crate) tracer: FlowTracer,
    /// Secure-plane buffers, used only by
    /// `CityExperiment::simulate_flow_secure_with`: the deterministic
    /// plaintext payload, the sealed ciphertext‖tag, and the
    /// receiver-side opened plaintext. Their capacities warm up on the
    /// first sealed flow and are reused after that, keeping the
    /// encrypted steady state allocation-free.
    pub(crate) payload: Vec<u8>,
    pub(crate) sealed_buf: Vec<u8>,
    pub(crate) opened_buf: Vec<u8>,
    /// Session keys this scratch's owner derived on cache misses —
    /// the amortized cost. Schedule-dependent (racing workers may
    /// double-derive), so telemetry-only.
    pub(crate) keys_derived: u64,
    /// Buffers and counters of the rungs after the first send, used only
    /// when `CityExperiment::simulate_flow_opts` climbs past a re-send.
    pub(crate) detour: DetourScratch,
}

impl Default for DeliveryScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl DeliveryScratch {
    /// Creates an empty scratch. All buffers start unallocated and
    /// grow on first use. Tracing is disabled (zero overhead); use
    /// [`DeliveryScratch::with_tracing`] to record flow telemetry.
    pub fn new() -> Self {
        Self::with_tracing(TraceConfig::off())
    }

    /// Creates a scratch whose embedded [`FlowTracer`] follows `cfg`.
    /// The tracer's ring is allocated here, once, so tracing itself is
    /// allocation-free in steady state (captures still copy the ring).
    pub fn with_tracing(cfg: TraceConfig) -> Self {
        DeliveryScratch {
            sim: Simulation::new(),
            report: DeliveryReport {
                delivered: false,
                first_delivery: None,
                broadcasts: 0,
                receptions: 0,
                duplicates: 0,
                roles: Vec::new(),
            },
            verdicts: Vec::new(),
            stats: KernelStats::default(),
            header: placeholder_header(),
            rung_conduits: Vec::new(),
            tracer: FlowTracer::new(cfg),
            payload: Vec::new(),
            sealed_buf: Vec::new(),
            opened_buf: Vec::new(),
            keys_derived: 0,
            detour: DetourScratch {
                search: PlannerScratch::new(),
                route: Vec::new(),
                waypoints: Vec::new(),
                header: placeholder_header(),
                conduits: Vec::new(),
                covered_marks: Vec::new(),
                covered: CoveredSet::default(),
                stats: DetourStats::default(),
            },
        }
    }

    /// What the replan rung's and local repair's detours cost through
    /// this scratch so far (all zero in a healthy world).
    pub fn detour_stats(&self) -> DetourStats {
        self.detour.stats
    }

    /// Session-key derivations performed through this scratch by the
    /// secure flow path — the amortized (cache-miss) cost. Schedule-
    /// dependent across workers, so engines report it as digest-
    /// excluded telemetry only. `0` on the plaintext path.
    pub fn keys_derived(&self) -> u64 {
        self.keys_derived
    }

    /// What the delivery kernel did through this scratch so far: the
    /// event queue's high-water mark.
    pub fn kernel_stats(&self) -> KernelStats {
        self.stats
    }

    /// The report of the most recent [`simulate_delivery_faulted`] run.
    pub fn report(&self) -> &DeliveryReport {
        &self.report
    }

    /// Read access to the embedded flow tracer.
    pub fn tracer(&self) -> &FlowTracer {
        &self.tracer
    }

    /// Mutable access to the embedded flow tracer (used by callers to
    /// arm the next flow or drain captured postmortems).
    pub fn tracer_mut(&mut self) -> &mut FlowTracer {
        &mut self.tracer
    }

    /// Prepares the scratch for a fresh flow of `header` over `apg`:
    /// rewinds the simulation clock, resets the report in place and
    /// writes every building's verdict — deliver in the destination,
    /// and under building scope rebroadcast in a covered building. A
    /// building outside the set never relays; one
    /// past `apg`'s range hosts no AP and is never read.
    fn begin(&mut self, apg: &ApGraph, header: &CityMeshHeader, relays: Relays) {
        self.sim.reset();
        self.sim.set_horizon(Some(HORIZON));
        self.verdicts.clear();
        self.verdicts.resize(apg.buildings(), 0);
        if let Relays::Covered(covered) = relays {
            for b in covered.iter() {
                if let Some(v) = self.verdicts.get_mut(b as usize) {
                    *v |= REBROADCAST;
                }
            }
        }
        if let Some(v) = self.verdicts.get_mut(header.destination() as usize) {
            *v |= DELIVER;
        }
        let r = &mut self.report;
        r.delivered = false;
        r.first_delivery = None;
        r.broadcasts = 0;
        r.receptions = 0;
        r.duplicates = 0;
        r.roles.clear();
        r.roles.resize(apg.len(), ApRole::Silent);
    }
}

/// The allocation-free delivery kernel: simulates one message from
/// `src_ap` using caller-owned working state, under a materialized
/// fault scenario or none.
///
/// `key` decides MAC jitter and reception loss only, by keyed draws
/// (module docs); topology comes fixed from `apg`. A flow derives one
/// key per attempt (`CityExperiment::simulate_flow_opts`); a one-off
/// run may pass any word. `reception_loss` is the probability that any
/// one frame reception is lost to collisions or fading (0 is the
/// paper's idealized medium); a receiver usually hears the packet from
/// several relays, which is what absorbs it. `relays` are `header`'s
/// conduits as the flow's
/// scope reads them: the buildings they cover, which the kernel writes
/// into its per-building table before the flood, or the conduits
/// themselves, tested at each first-time receiver's position. Either is
/// computed once per route and amortized across every flow sharing it
/// (`PlannedFlow` caches both). The returned reference points into
/// `scratch` and is valid until the next run.
///
/// Steady state (scratch warmed past the workload's high-water marks)
/// performs **zero heap allocations**; `tests/zero_alloc.rs` in
/// `citymesh-fleet` enforces this with a counting global allocator.
///
/// Fault semantics, chosen so `faults == None` (or an all-`Up` state)
/// replays the healthy kernel **bit for bit**:
///
/// * a **failed** AP neither transmits nor receives — frames to it are
///   never tried; a failed source produces an immediate clean failure
///   (zero broadcasts, empty event queue — the run terminates, it does
///   not hang);
/// * a **degraded** AP receives through a lossier radio: its
///   per-frame loss is `1 − (1−base)(1−extra)`;
/// * delivery still means "an AP in the destination building received
///   the packet" — but only *live* APs can receive, so a dark
///   destination building can never report delivery.
///
/// Where no frame can be lost — a lossless medium and no live
/// degraded AP that adds loss — the flood makes no loss trial at all,
/// and a frame whose loss is 0 draws nothing; with keyed draws both are
/// only savings, since no draw moves another.
///
/// Faults are read-only state shared by every worker; all scheduling
/// stays inside `scratch`, so the zero-allocation steady state is
/// preserved (enforced with faults enabled in
/// `crates/fleet/tests/zero_alloc.rs`).
///
/// # Panics
/// Panics when `src_ap` is outside `apg`.
#[allow(clippy::too_many_arguments)]
pub fn simulate_delivery_faulted<'a>(
    apg: &ApGraph,
    header: &CityMeshHeader,
    relays: Relays,
    src_ap: u32,
    reception_loss: f64,
    faults: Option<&FaultState>,
    key: u64,
    scratch: &'a mut DeliveryScratch,
) -> &'a DeliveryReport {
    assert!((src_ap as usize) < apg.len(), "source AP out of range");
    scratch.begin(apg, header, relays);
    // A dead source cannot even make the first transmission: fail
    // cleanly with an empty schedule.
    if faults.is_some_and(|f| f.is_failed(src_ap)) {
        return &scratch.report;
    }

    // The source transmits unconditionally at t = 0; its `Relayed` role
    // makes it treat its own message as seen.
    scratch.report.roles[src_ap as usize] = ApRole::Relayed;
    scratch.sim.schedule_at(SimTime::ZERO, Tx(src_ap));

    // If the source already sits in the destination building, the
    // local postbox is reached immediately.
    if apg.building_of(src_ap) == header.destination() {
        scratch.report.delivered = true;
        scratch.report.first_delivery = Some(SimTime::ZERO);
        scratch.tracer.record(TraceEvent::Delivered {
            ap: src_ap,
            at_ns: 0,
        });
    }

    let flood = Flood {
        apg,
        relays,
        reception_loss,
        faults,
        lossy: frames_can_be_lost(reception_loss, faults),
        key,
    };
    // Chosen from what the call itself shows, never configured: with no
    // fault state, a lossless medium and no flow being traced, no
    // reception is ever dropped and nothing is ever recorded, so the
    // loop that omits those branches is the same kernel.
    if faults.is_none() && reception_loss == 0.0 && !scratch.tracer.is_active() {
        flood.run::<true>(scratch);
    } else {
        flood.run::<false>(scratch);
    }
    &scratch.report
}

/// Whether any frame of a flood can be lost: the medium is lossy, or a
/// live AP's degraded radio adds loss. When none can, a flood's reach
/// is the same on every key, so the flood makes no loss trial and the
/// flow body skips a resend that could only repeat its first send.
pub(crate) fn frames_can_be_lost(reception_loss: f64, faults: Option<&FaultState>) -> bool {
    reception_loss > 0.0 || faults.is_some_and(FaultState::adds_loss)
}

/// What one flow's flood reads and never writes.
struct Flood<'a> {
    apg: &'a ApGraph,
    relays: Relays<'a>,
    reception_loss: f64,
    faults: Option<&'a FaultState>,
    /// [`frames_can_be_lost`] for this flood.
    lossy: bool,
    /// The attempt's key: every jitter and loss draw is keyed on it.
    key: u64,
}

impl Flood<'_> {
    /// The event loop, one body compiled twice. `HEALTHY` promises what
    /// [`simulate_delivery_faulted`] checked before choosing it — no
    /// fault state, zero reception loss, no flow traced — so that
    /// instantiation drops the failed and loss branches (which would
    /// never fire) and every tracer call (each a no-op); the other
    /// keeps them all, testing loss only when `lossy`. Both are the
    /// same kernel bit for bit.
    fn run<const HEALTHY: bool>(&self, scratch: &mut DeliveryScratch) {
        let Flood {
            apg,
            relays,
            reception_loss,
            faults,
            lossy,
            key,
        } = *self;
        let DeliveryScratch {
            sim,
            report,
            verdicts,
            tracer,
            stats,
            ..
        } = scratch;
        let (mut broadcasts, mut receptions, mut duplicates) = (0u64, 0u64, 0u64);
        let mut high_water = stats.queue_high_water.max(sim.pending());

        sim.run(|sim, Tx(ap)| {
            broadcasts += 1;
            let now = sim.now();
            if !HEALTHY {
                tracer.record(TraceEvent::Broadcast {
                    ap,
                    at_ns: now.as_nanos(),
                });
            }
            for &rx in apg.audience(ap) {
                if !HEALTHY {
                    // Failed radios are gone from the air, not merely
                    // lossy: no frame reaches them.
                    if faults.is_some_and(|f| f.is_failed(rx)) {
                        continue;
                    }
                    if lossy {
                        let loss = match faults {
                            Some(f) => combined_loss(reception_loss, f.extra_loss(rx)),
                            None => reception_loss,
                        };
                        if loss > 0.0 && keyed_chance(key, ap, rx, loss) {
                            continue; // frame lost to collision/fading
                        }
                    }
                }
                receptions += 1;
                // One message id per flow: a non-silent role is "seen".
                if report.roles[rx as usize] != ApRole::Silent {
                    duplicates += 1;
                    if !HEALTHY {
                        tracer.record(TraceEvent::Duplicate {
                            ap: rx,
                            at_ns: now.as_nanos(),
                        });
                    }
                    continue;
                }
                report.roles[rx as usize] = ApRole::HeardOnly;
                let verdict = verdicts[apg.building_of(rx) as usize];
                if verdict & DELIVER != 0 && report.first_delivery.is_none() {
                    report.delivered = true;
                    report.first_delivery = Some(now);
                    if !HEALTHY {
                        tracer.record(TraceEvent::Delivered {
                            ap: rx,
                            at_ns: now.as_nanos(),
                        });
                    }
                }
                let rebroadcast = match relays {
                    Relays::Covered(_) => verdict & REBROADCAST != 0,
                    Relays::Conduits(conduits) => within_conduits(conduits, apg.position(rx)),
                };
                if rebroadcast {
                    report.roles[rx as usize] = ApRole::Relayed;
                    let delay = keyed_jitter(key, rx, MIN_JITTER, MAX_JITTER);
                    sim.schedule_at(now + delay, Tx(rx));
                    high_water = high_water.max(sim.pending());
                }
            }
        });

        report.broadcasts = broadcasts;
        report.receptions = receptions;
        report.duplicates = duplicates;
        stats.queue_high_water = high_water;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{place_aps, postbox_ap};
    use crate::{reconstruct_conduits, BuildingGraph, BuildingGraphParams, RebroadcastScope};
    use citymesh_geo::{Point, Polygon, Rect};
    use citymesh_map::CityMap;
    use citymesh_simcore::SimRng;

    /// One healthy flow through `scratch`, the conduits reconstructed
    /// from the header and handed to the kernel as `scope` reads them.
    #[allow(clippy::too_many_arguments)]
    fn run<'a>(
        map: &CityMap,
        apg: &ApGraph,
        header: &CityMeshHeader,
        scope: RebroadcastScope,
        src_ap: u32,
        loss: f64,
        key: u64,
        scratch: &'a mut DeliveryScratch,
    ) -> &'a DeliveryReport {
        let conduits = reconstruct_conduits(map, &header.waypoints, header.conduit_width_m());
        let covered = CoveredSet::of(map, &conduits);
        let relays = match scope {
            RebroadcastScope::Building => Relays::Covered(&covered),
            RebroadcastScope::ApPosition => Relays::Conduits(&conduits),
        };
        simulate_delivery_faulted(apg, header, relays, src_ap, loss, None, key, scratch)
    }

    /// [`run`] under building scope through a fresh scratch.
    fn simulate(
        map: &CityMap,
        apg: &ApGraph,
        header: &CityMeshHeader,
        src_ap: u32,
        loss: f64,
        key: u64,
    ) -> DeliveryReport {
        let mut scratch = DeliveryScratch::new();
        let scope = RebroadcastScope::Building;
        run(map, apg, header, scope, src_ap, loss, key, &mut scratch).clone()
    }

    fn square_at(x: f64, y: f64, side: f64) -> Polygon {
        Polygon::rect(Rect::from_corners(
            Point::new(x, y),
            Point::new(x + side, y + side),
        ))
    }

    /// A straight street of 10 buildings, 30 m pitch; range 50 m.
    fn street() -> (CityMap, ApGraph, BuildingGraph, Vec<crate::Ap>) {
        let map = CityMap::new(
            "street",
            (0..10)
                .map(|i| square_at(i as f64 * 30.0, 0.0, 12.0))
                .collect(),
            vec![],
        );
        let mut rng = SimRng::new(1);
        let aps = place_aps(&map, 100.0, &mut rng);
        let apg = ApGraph::build(&aps, 50.0);
        let bg = BuildingGraph::build(
            &map,
            BuildingGraphParams {
                max_gap_m: 25.0,
                weight_exponent: 3.0,
            },
        );
        (map, apg, bg, aps)
    }

    fn route_header(bg: &BuildingGraph, src: u32, dst: u32) -> CityMeshHeader {
        let route = crate::plan_route(bg, src, dst).unwrap();
        let compressed = crate::compress_route(bg, &route, 50.0);
        CityMeshHeader::new(777, 50.0, compressed.unwrap().waypoints)
    }

    #[test]
    fn straight_street_delivers() {
        let (map, apg, bg, aps) = street();
        let header = route_header(&bg, 0, 9);
        let src = postbox_ap(&aps, &map, 0).unwrap();
        let report = simulate(&map, &apg, &header, src, 0.0, 2);
        assert!(report.delivered);
        assert!(report.first_delivery.is_some());
        assert!(report.broadcasts >= 5, "a 270 m street needs several hops");
        assert!(report.receptions > report.broadcasts);
        // Every relay transmitted exactly once.
        assert_eq!(report.relay_count() as u64, report.broadcasts);
    }

    #[test]
    fn simulation_is_deterministic() {
        let (map, apg, bg, aps) = street();
        let header = route_header(&bg, 0, 9);
        let src = postbox_ap(&aps, &map, 0).unwrap();
        let run = |key| simulate(&map, &apg, &header, src, 0.0, key);
        let a = run(5);
        let b = run(5);
        assert_eq!(a.broadcasts, b.broadcasts);
        assert_eq!(a.receptions, b.receptions);
        assert_eq!(a.first_delivery, b.first_delivery);
        assert_eq!(a.roles, b.roles);
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_allocation() {
        let (map, apg, bg, aps) = street();
        let mut scratch = DeliveryScratch::new();
        // Several distinct flows through ONE scratch, each compared to
        // a run through a fresh scratch on the same key.
        for (src_b, dst_b, key) in [(0u32, 9u32, 5u64), (9, 0, 6), (2, 7, 7), (0, 9, 5)] {
            let header = route_header(&bg, src_b, dst_b);
            let src = postbox_ap(&aps, &map, src_b).unwrap();
            let fresh = simulate(&map, &apg, &header, src, 0.0, key);
            let scope = RebroadcastScope::Building;
            let reused = run(&map, &apg, &header, scope, src, 0.0, key, &mut scratch);
            assert_eq!(
                *reused, fresh,
                "scratch reuse diverged for {src_b}->{dst_b}"
            );
        }
    }

    #[test]
    fn dirty_scratch_cannot_leak_seen_or_role_state() {
        let (map, apg, bg, aps) = street();
        // Flow A reaches the whole street and marks most APs as relays,
        // leaving msg_id 777 "seen" at every AP it reached.
        let header_a = route_header(&bg, 0, 9);
        let src_a = postbox_ap(&aps, &map, 0).unwrap();
        let mut scratch = DeliveryScratch::new();
        let scope = RebroadcastScope::Building;
        run(&map, &apg, &header_a, scope, src_a, 0.0, 1, &mut scratch);
        assert!(
            scratch.report().relay_count() > 3,
            "flow A must dirty state"
        );

        // Flow B reuses the SAME msg_id (777, from route_header) on a
        // different pair. Leaked seen state would suppress every
        // reception; leaked roles would show as phantom relays.
        let header_b = route_header(&bg, 5, 2);
        assert_eq!(header_a.msg_id, header_b.msg_id, "test needs a reused id");
        let src_b = postbox_ap(&aps, &map, 5).unwrap();
        let fresh = simulate(&map, &apg, &header_b, src_b, 0.0, 2);
        let reused = run(&map, &apg, &header_b, scope, src_b, 0.0, 2, &mut scratch);
        assert!(reused.delivered, "leaked seen state would kill delivery");
        assert_eq!(*reused, fresh);
        // APs the narrow B-conduit never reaches must read Silent even
        // though flow A marked them Relayed in the same buffer.
        assert!(
            fresh.roles.contains(&ApRole::Silent),
            "sanity: flow B leaves some APs silent"
        );
    }

    #[test]
    fn one_scratch_serves_different_worlds() {
        // A scratch warmed on the 10-building street keeps working on
        // a larger city (role vector regrows) and back again (it shrinks).
        let (map, apg, bg, aps) = street();
        let big_map = {
            let footprints = (0..30)
                .map(|i| square_at(i as f64 * 30.0, 0.0, 12.0))
                .collect();
            CityMap::new("long-street", footprints, vec![])
        };
        let mut rng = SimRng::new(9);
        let big_aps = place_aps(&big_map, 100.0, &mut rng);
        let big_apg = ApGraph::build(&big_aps, 50.0);
        let big_bg = BuildingGraph::build(
            &big_map,
            BuildingGraphParams {
                max_gap_m: 25.0,
                weight_exponent: 3.0,
            },
        );

        let mut scratch = DeliveryScratch::new();
        for (map, apg, bg, aps) in [
            (&map, &apg, &bg, &aps),
            (&big_map, &big_apg, &big_bg, &big_aps),
            (&map, &apg, &bg, &aps),
        ] {
            let dst = (map.len() - 1) as u32;
            let header = route_header(bg, 0, dst);
            let src = postbox_ap(aps, map, 0).unwrap();
            let fresh = simulate(map, apg, &header, src, 0.0, 3);
            let scope = RebroadcastScope::Building;
            let reused = run(map, apg, &header, scope, src, 0.0, 3, &mut scratch);
            assert_eq!(*reused, fresh, "world {} diverged", map.name());
            assert_eq!(reused.roles.len(), apg.len(), "roles sized to this world");
        }
    }

    #[test]
    fn unreachable_destination_fails_cleanly() {
        // Two street islands 500 m apart.
        let mut footprints: Vec<Polygon> = (0..3)
            .map(|i| square_at(i as f64 * 30.0, 0.0, 12.0))
            .collect();
        footprints.extend((0..3).map(|i| square_at(700.0 + i as f64 * 30.0, 0.0, 12.0)));
        let map = CityMap::new("islands", footprints, vec![]);
        let mut rng = SimRng::new(3);
        let aps = place_aps(&map, 100.0, &mut rng);
        let apg = ApGraph::build(&aps, 50.0);
        let src_building = map.nearest_building(Point::new(0.0, 0.0)).unwrap().id;
        let dst_building = map.nearest_building(Point::new(760.0, 0.0)).unwrap().id;
        // Force a header straight across the gap (a sender with a map
        // would not even try; this exercises network behaviour).
        let header = CityMeshHeader::new(1, 50.0, vec![src_building, dst_building]);
        let src = postbox_ap(&aps, &map, src_building).unwrap();
        let report = simulate(&map, &apg, &header, src, 0.0, 3);
        assert!(!report.delivered);
        assert!(report.first_delivery.is_none());
        assert!(report.overhead(None).is_none());
        // Only the source island ever transmits.
        assert!(report.broadcasts <= aps.len() as u64 / 2 + 1);
    }

    #[test]
    fn conduit_confines_the_flood() {
        // A wide field of buildings; route along the bottom edge. APs
        // far above the conduit must stay silent.
        let mut footprints = Vec::new();
        for y in 0..6 {
            for x in 0..8 {
                footprints.push(square_at(x as f64 * 30.0, y as f64 * 30.0, 12.0));
            }
        }
        let map = CityMap::new("field", footprints, vec![]);
        let mut rng = SimRng::new(4);
        let aps = place_aps(&map, 100.0, &mut rng);
        let apg = ApGraph::build(&aps, 50.0);
        let bg = BuildingGraph::build(
            &map,
            BuildingGraphParams {
                max_gap_m: 25.0,
                weight_exponent: 3.0,
            },
        );
        let src = map.nearest_building(Point::new(6.0, 6.0)).unwrap().id;
        let dst = map.nearest_building(Point::new(216.0, 6.0)).unwrap().id;
        let header = route_header(&bg, src, dst);
        let src_ap = postbox_ap(&aps, &map, src).unwrap();
        let report = simulate(&map, &apg, &header, src_ap, 0.0, 4);
        assert!(report.delivered);
        // APs in the top rows (y > 120 m: > 2 building rows above the
        // conduit) never relay.
        for ap in &aps {
            if ap.pos.y > 120.0 {
                assert_ne!(
                    report.roles[ap.id as usize],
                    ApRole::Relayed,
                    "AP {} at {:?} should be outside the conduit",
                    ap.id,
                    ap.pos
                );
            }
        }
        // But the flood did not cover everything either.
        assert!(report.relay_count() < aps.len());
    }

    #[test]
    fn ap_scope_relays_no_more_than_building_scope() {
        let (map, apg, bg, aps) = street();
        let header = route_header(&bg, 0, 9);
        let src = postbox_ap(&aps, &map, 0).unwrap();
        let by = |scope| {
            let mut scratch = DeliveryScratch::new();
            run(&map, &apg, &header, scope, src, 0.0, 6, &mut scratch).clone()
        };
        let by_building = by(RebroadcastScope::Building);
        let by_pos = by(RebroadcastScope::ApPosition);
        assert!(by_building.delivered);
        assert!(by_pos.broadcasts <= by_building.broadcasts);
    }

    #[test]
    fn same_building_delivery_is_instant() {
        let (map, apg, _, aps) = street();
        let header = CityMeshHeader::new(9, 50.0, vec![3]);
        let src = postbox_ap(&aps, &map, 3).unwrap();
        let report = simulate(&map, &apg, &header, src, 0.0, 7);
        assert!(report.delivered);
        assert_eq!(report.first_delivery, Some(SimTime::ZERO));
    }

    #[test]
    fn broadcast_redundancy_absorbs_moderate_loss() {
        // The conduit's multi-relay redundancy should keep delivering
        // under substantial per-frame loss, and total loss must fail.
        let (map, apg, bg, aps) = street();
        let header = route_header(&bg, 0, 9);
        let src = postbox_ap(&aps, &map, 0).unwrap();
        let delivered_at = |loss: f64| -> usize {
            (0..10)
                .filter(|key| simulate(&map, &apg, &header, src, loss, 100 + key).delivered)
                .count()
        };
        assert_eq!(delivered_at(0.0), 10);
        // The single-street topology is minimally redundant (1–2 APs
        // per building), so only mild loss is absorbed here; denser
        // conduits tolerate far more (see the experiments).
        assert!(delivered_at(0.1) >= 6, "10% loss should mostly deliver");
        assert!(delivered_at(0.1) >= delivered_at(0.5));
        assert_eq!(delivered_at(1.0), 0, "total loss cannot deliver");
    }

    #[test]
    fn overhead_math() {
        let report = DeliveryReport {
            delivered: true,
            first_delivery: Some(SimTime::ZERO),
            broadcasts: 26,
            receptions: 100,
            duplicates: 60,
            roles: vec![],
        };
        assert_eq!(report.overhead(Some(2)), Some(13.0));
        assert_eq!(report.overhead(Some(0)), Some(26.0));
        assert_eq!(report.overhead(None), None);
        let failed = DeliveryReport {
            delivered: false,
            ..report
        };
        assert_eq!(failed.overhead(Some(2)), None);
    }

    #[test]
    fn overhead_outcome_distinguishes_the_two_none_cases() {
        // The legacy `overhead` Option conflated these; the enum must
        // keep them apart.
        let delivered = DeliveryReport {
            delivered: true,
            first_delivery: Some(SimTime::ZERO),
            broadcasts: 26,
            receptions: 100,
            duplicates: 60,
            roles: vec![],
        };
        assert_eq!(
            delivered.overhead_outcome(None),
            OverheadOutcome::NoBaseline,
            "delivered without a ground-truth path"
        );
        assert_eq!(
            delivered.overhead_outcome(Some(2)),
            OverheadOutcome::Measured(13.0)
        );
        let failed = DeliveryReport {
            delivered: false,
            ..delivered
        };
        assert_eq!(
            failed.overhead_outcome(Some(2)),
            OverheadOutcome::NotDelivered,
            "failure dominates even when a baseline exists"
        );
        assert_eq!(failed.overhead_outcome(None), OverheadOutcome::NotDelivered);
        // Both non-measured variants flatten to None identically.
        assert_eq!(OverheadOutcome::NotDelivered.value(), None);
        assert_eq!(OverheadOutcome::NoBaseline.value(), None);
        assert_eq!(OverheadOutcome::Measured(2.5).value(), Some(2.5));
    }
}
