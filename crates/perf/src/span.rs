//! In-memory spans around the calls into each layer.
//!
//! The benchmark owns the tracing: the engines are untouched, and the
//! traced run re-executes their per-flow work from outside through
//! the public layer calls with a [`Tracer::enter`] / [`Tracer::exit`]
//! pair around each. A span records `{layer, flow id, start, end,
//! parent}` plus the heap allocations the call made; a layer's *self*
//! time is its span's duration minus the part its child spans cover
//! (`core.plan` is a child of `fleet.cache`, so the cache's self time
//! is the lookup and insert alone).
//!
//! Spans stay in memory until the run ends; nothing is written or
//! formatted inside a timed region.

use std::io::Write;
use std::time::Instant;

use crate::alloc::thread_allocs;

/// The layers spans are recorded around, named `crate.module`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// `CityArchetype::generate` / `generate_metro`.
    MapGenerate,
    /// `CityExperiment::try_prepare`.
    CorePrepare,
    /// `CityExperiment::enable_hier`.
    HierBuild,
    /// `CityExperiment::enable_encryption`.
    SecureRegistry,
    /// `generate_flows` / `generate_stream_flows`.
    WorkloadGenerate,
    /// `Timeline::materialize`.
    TimelineMaterialize,
    /// The stream workload's underload capacity probe.
    CapacityProbe,
    /// `RouteCache::get_or_plan`.
    Cache,
    /// `CityExperiment::plan_flow_into` (child of [`Layer::Cache`]).
    PlanFlat,
    /// `CityExperiment::plan_flow_hier_into` (child of [`Layer::Cache`]).
    PlanHier,
    /// `simulate_flow_with` / `simulate_flow_secure_with`.
    Sim,
    /// `FleetReport::absorb_outcome`.
    Absorb,
    /// `ServerQueue::offer_class`.
    QueueOffer,
    /// `ServerQueue::commit`.
    QueueCommit,
    /// `CityExperiment::apply_world_event`.
    EventApply,
    /// `RouteCache::evict_where`.
    Evict,
}

impl Layer {
    /// Every layer, in discriminant order.
    pub const ALL: [Layer; 16] = [
        Layer::MapGenerate,
        Layer::CorePrepare,
        Layer::HierBuild,
        Layer::SecureRegistry,
        Layer::WorkloadGenerate,
        Layer::TimelineMaterialize,
        Layer::CapacityProbe,
        Layer::Cache,
        Layer::PlanFlat,
        Layer::PlanHier,
        Layer::Sim,
        Layer::Absorb,
        Layer::QueueOffer,
        Layer::QueueCommit,
        Layer::EventApply,
        Layer::Evict,
    ];

    /// The layer's `crate.module` name, as written to `.spans` files.
    pub fn name(self) -> &'static str {
        match self {
            Layer::MapGenerate => "map.generate",
            Layer::CorePrepare => "core.prepare",
            Layer::HierBuild => "graph.hier.build",
            Layer::SecureRegistry => "core.secure.registry",
            Layer::WorkloadGenerate => "fleet.workload.generate",
            Layer::TimelineMaterialize => "dynamics.timeline.materialize",
            Layer::CapacityProbe => "stream.capacity_probe",
            Layer::Cache => "fleet.cache",
            Layer::PlanFlat => "core.plan.flat",
            Layer::PlanHier => "core.plan.hier",
            Layer::Sim => "core.sim",
            Layer::Absorb => "fleet.report",
            Layer::QueueOffer => "stream.queue.offer",
            Layer::QueueCommit => "stream.queue.commit",
            Layer::EventApply => "dynamics.event_apply",
            Layer::Evict => "fleet.cache.evict",
        }
    }
}

/// `flow` value of spans that belong to no single flow (set-up stages,
/// world events).
pub const NO_FLOW: u64 = u64::MAX;
/// `parent` value of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// The layer called.
    pub layer: Layer,
    /// The flow the call served ([`NO_FLOW`] when none); spans of one
    /// flow share it.
    pub flow: u64,
    /// Nanoseconds from the tracer's origin to the call.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's origin to the return.
    pub end_ns: u64,
    /// Index, in the same span list, of the span that caused this one
    /// ([`NO_PARENT`] for a root).
    pub parent: u32,
    /// Heap allocations made between call and return, children's
    /// included.
    pub allocs: u32,
}

/// Handle for an open span, returned by [`Tracer::enter`].
#[derive(Clone, Copy, Debug)]
pub struct Open(u32);

/// An in-memory span recorder. A tracer that is off records nothing
/// and never reads the clock, so the same replay code runs traced and
/// untraced and the difference between the two is the tracing cost.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A recording tracer whose timestamps count from now.
    pub fn on() -> Self {
        Tracer {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::with_capacity(8),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            ..Tracer::on()
        }
    }

    /// Makes room for `additional` more spans, so that recording them
    /// never reallocates (a reallocation inside an open span would be
    /// charged to that span's allocation count).
    pub fn reserve(&mut self, additional: usize) {
        if self.on {
            self.spans.reserve(additional);
        }
    }

    /// Opens a span around a call into `layer` on behalf of `flow`;
    /// the innermost open span becomes its parent.
    #[inline]
    pub fn enter(&mut self, layer: Layer, flow: u64) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            layer,
            flow,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            allocs: 0,
        });
        self.stack.push(id);
        // Read the counters last, so the bookkeeping above is charged
        // to the parent, not to this span.
        let span = &mut self.spans[id as usize];
        span.allocs = thread_allocs() as u32;
        span.start_ns = self.origin.elapsed().as_nanos() as u64;
        Open(id)
    }

    /// Closes the span `open` (spans close innermost first).
    #[inline]
    pub fn exit(&mut self, open: Open) {
        if !self.on {
            return;
        }
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let allocs = thread_allocs() as u32;
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(open.0), "spans must close innermost first");
        let span = &mut self.spans[open.0 as usize];
        span.end_ns = end_ns;
        span.allocs = allocs.wrapping_sub(span.allocs);
    }

    /// Takes the recorded spans, leaving the tracer empty (and still
    /// counting from the same origin).
    pub fn take_spans(&mut self) -> Vec<Span> {
        debug_assert!(self.stack.is_empty(), "take_spans with a span still open");
        std::mem::take(&mut self.spans)
    }
}

/// Per-layer totals over a span list.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTotal {
    /// Calls into the layer.
    pub calls: u64,
    /// Summed self time: each span's duration minus its children's.
    pub self_ns: u64,
    /// Summed self allocations, by the same rule.
    pub self_allocs: u64,
}

impl LayerTotal {
    /// Mean self time per call, nanoseconds (0 with no calls: a layer
    /// a workload never enters spent no time).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        self.self_ns as f64 / self.calls as f64
    }

    /// Mean self allocations per call (0 with no calls).
    pub fn mean_allocs(&self) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        self.self_allocs as f64 / self.calls as f64
    }
}

/// Totals per [`Layer`], indexed by discriminant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTotals([LayerTotal; Layer::ALL.len()]);

impl LayerTotals {
    /// Folds a span list in. `parent` indices must refer to `spans`.
    pub fn absorb(&mut self, spans: &[Span]) {
        let mut child_ns = vec![0u64; spans.len()];
        let mut child_allocs = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
                child_allocs[s.parent as usize] += u64::from(s.allocs);
            }
        }
        for (i, s) in spans.iter().enumerate() {
            let t = &mut self.0[s.layer as usize];
            t.calls += 1;
            t.self_ns += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            t.self_allocs += u64::from(s.allocs).saturating_sub(child_allocs[i]);
        }
    }

    /// The totals of one layer.
    pub fn get(&self, layer: Layer) -> LayerTotal {
        self.0[layer as usize]
    }
}

/// Writes a span list as text, one span per line:
/// `index layer flow start_ns end_ns parent allocs`, with `-` for
/// [`NO_FLOW`] and [`NO_PARENT`]. `rounds` holds one list per round;
/// indices (and therefore parents) restart in each.
pub fn write_spans(out: &mut impl Write, rounds: &[(&str, &[Span])]) -> std::io::Result<()> {
    writeln!(out, "# index layer flow start_ns end_ns parent allocs")?;
    for (title, spans) in rounds {
        writeln!(out, "# round {title}: {} spans", spans.len())?;
        for (i, s) in spans.iter().enumerate() {
            let dash = |v: u64, none: u64| {
                if v == none {
                    "-".to_string()
                } else {
                    v.to_string()
                }
            };
            writeln!(
                out,
                "{i} {} {} {} {} {} {}",
                s.layer.name(),
                dash(s.flow, NO_FLOW),
                s.start_ns,
                s.end_ns,
                dash(u64::from(s.parent), u64::from(NO_PARENT)),
                s.allocs
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start_ns: u64, end_ns: u64, parent: u32, allocs: u32) -> Span {
        Span {
            layer,
            flow: 7,
            start_ns,
            end_ns,
            parent,
            allocs,
        }
    }

    #[test]
    fn self_time_subtracts_children_on_a_hand_built_trace() {
        // cache [0, 100) ── plan [10, 70) ;  sim [100, 400) ; cache [400, 420)
        let spans = [
            span(Layer::Cache, 0, 100, NO_PARENT, 5),
            span(Layer::PlanFlat, 10, 70, 0, 4),
            span(Layer::Sim, 100, 400, NO_PARENT, 0),
            span(Layer::Cache, 400, 420, NO_PARENT, 0),
        ];
        let mut totals = LayerTotals::default();
        totals.absorb(&spans);
        assert_eq!(
            totals.get(Layer::Cache),
            LayerTotal {
                calls: 2,
                self_ns: 40 + 20,
                self_allocs: 1
            }
        );
        assert_eq!(
            totals.get(Layer::PlanFlat),
            LayerTotal {
                calls: 1,
                self_ns: 60,
                self_allocs: 4
            }
        );
        assert_eq!(totals.get(Layer::Sim).mean_ns(), 300.0);
        assert_eq!(totals.get(Layer::Absorb).mean_ns(), 0.0, "never entered");
        // Folding a second round accumulates.
        totals.absorb(&spans);
        assert_eq!(totals.get(Layer::Cache).calls, 4);
        assert_eq!(totals.get(Layer::Cache).mean_ns(), 30.0);
    }

    #[test]
    fn tracer_nests_and_counts_allocations() {
        let mut t = Tracer::on();
        t.reserve(4);
        let outer = t.enter(Layer::Cache, 3);
        let inner = t.enter(Layer::PlanFlat, 3);
        let v: Vec<u8> = Vec::with_capacity(64);
        t.exit(inner);
        t.exit(outer);
        let lone = t.enter(Layer::Sim, 4);
        t.exit(lone);
        drop(v);
        let spans = t.take_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, NO_PARENT);
        assert_eq!(
            (spans[1].allocs, spans[0].allocs, spans[2].allocs),
            (1, 1, 0)
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let mut totals = LayerTotals::default();
        totals.absorb(&spans);
        assert_eq!(
            totals.get(Layer::Cache).self_allocs,
            0,
            "the Vec is the plan's"
        );
        assert_eq!(totals.get(Layer::PlanFlat).self_allocs, 1);
        assert!(t.take_spans().is_empty());
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::off();
        let o = t.enter(Layer::Sim, 1);
        t.exit(o);
        assert!(t.take_spans().is_empty());
    }

    #[test]
    fn spans_file_is_one_line_per_span() {
        let spans = [
            span(Layer::Cache, 0, 100, NO_PARENT, 5),
            span(Layer::PlanFlat, 10, 70, 0, 4),
        ];
        let mut buf = Vec::new();
        write_spans(&mut buf, &[("0", &spans)]).expect("write to a Vec");
        let text = String::from_utf8(buf).expect("ascii");
        assert_eq!(
            text,
            "# index layer flow start_ns end_ns parent allocs\n\
             # round 0: 2 spans\n\
             0 fleet.cache 7 0 100 - 5\n\
             1 core.plan.flat 7 10 70 0 4\n"
        );
    }

    #[test]
    fn layer_table_is_in_discriminant_order() {
        for (i, l) in Layer::ALL.iter().enumerate() {
            assert_eq!(*l as usize, i);
        }
    }
}
