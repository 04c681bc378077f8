//! The event scheduler.

use crate::SimTime;

/// A priority queue of timestamped events with deterministic FIFO
/// tie-breaking: events scheduled for the same instant pop in the
/// order they were pushed.
///
/// The pending events are one `Vec` kept sorted by `(time, push
/// order)` **descending**, so the next event is the last element: a
/// pop is a `Vec::pop`, a push a binary search plus a shift of the
/// later-popping tail. The push order is never stored — a new event is
/// inserted *before* every pending event of equal time, which is where
/// its larger sequence number would sort it. The delivery kernel keeps
/// at most a few dozen events pending (its flood is confined to a
/// conduit), where this beats a binary heap's sift-down on every pop;
/// the shift makes a push O(n), so a queue holding many thousands of
/// events would want the heap back.
#[derive(Debug)]
pub struct EventQueue<E> {
    pending: Vec<(SimTime, E)>,
    popped: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            pending: Vec::new(),
            popped: 0,
        }
    }

    /// Schedules `event` at absolute time `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        // Everything strictly later stays in front; everything at or
        // before `at` — equal times were pushed earlier — pops first.
        let slot = self.pending.partition_point(|&(t, _)| t > at);
        self.pending.insert(slot, (at, event));
    }

    /// Removes and returns the earliest event with its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let next = self.pending.pop()?;
        self.popped += 1;
        Some(next)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Total events processed so far (for run statistics).
    pub fn processed(&self) -> u64 {
        self.popped
    }

    /// Empties the queue and resets the processed counter (and with it
    /// the FIFO order, which is only ever relative to what is pending),
    /// **keeping the storage's allocation** so a reused queue schedules
    /// without touching the allocator.
    pub fn clear(&mut self) {
        self.pending.clear();
        self.popped = 0;
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// A minimal simulation driver: a clock plus an [`EventQueue`].
///
/// Handlers receive `(&mut Simulation, event)` and may schedule more
/// events at or after [`Simulation::now`]. The loop guards against
/// scheduling into the past, which would silently corrupt causality.
///
/// ```
/// use citymesh_simcore::{SimTime, Simulation};
///
/// struct Tick(u32);
/// let mut sim: Simulation<Tick> = Simulation::new();
/// sim.schedule_at(SimTime::from_millis(1), Tick(0));
/// let mut count = 0;
/// sim.run(|sim, Tick(n)| {
///     count += 1;
///     if n < 2 {
///         sim.schedule_at(sim.now() + SimTime::from_millis(1), Tick(n + 1));
///     }
/// });
/// assert_eq!(count, 3);
/// assert_eq!(sim.now(), SimTime::from_millis(3));
/// ```
#[derive(Debug)]
pub struct Simulation<E> {
    queue: EventQueue<E>,
    now: SimTime,
    /// Optional hard stop; events after the horizon are discarded at
    /// pop time.
    horizon: Option<SimTime>,
}

impl<E> Simulation<E> {
    /// Creates a simulation starting at time zero.
    pub fn new() -> Self {
        Simulation {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            horizon: None,
        }
    }

    /// Sets (or, with `None`, removes) a hard time horizon: events
    /// scheduled after it never run. Survives [`Simulation::reset`].
    pub fn set_horizon(&mut self, horizon: Option<SimTime>) {
        self.horizon = horizon;
    }

    /// Rewinds the clock to zero and discards all pending events while
    /// **retaining the event queue's allocation**. A reset simulation
    /// behaves exactly like a freshly constructed one (the horizon is
    /// kept; change it with [`Simulation::set_horizon`]), so hot loops
    /// can run many back-to-back simulations with zero steady-state
    /// heap traffic.
    pub fn reset(&mut self) {
        self.queue.clear();
        self.now = SimTime::ZERO;
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.queue.processed()
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics when `at` is before the current time: an event in the
    /// past is always a simulation bug, never recoverable.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past ({at} < {})",
            self.now
        );
        self.queue.push(at, event);
    }

    /// Runs until the queue drains (or the horizon passes), calling
    /// `handler` for each event in timestamp order. Inlined, so a
    /// handler's captured counters can live in registers across the
    /// loop.
    #[inline]
    pub fn run(&mut self, mut handler: impl FnMut(&mut Simulation<E>, E)) {
        while let Some((t, ev)) = self.queue.pop() {
            if let Some(h) = self.horizon {
                if t > h {
                    // Horizon reached: drop this and everything later.
                    return;
                }
            }
            debug_assert!(t >= self.now, "event queue returned non-monotonic time");
            self.now = t;
            handler(self, ev);
        }
    }
}

impl<E> Default for Simulation<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn horizon_at<E>(ms: u64) -> Simulation<E> {
        let mut sim = Simulation::new();
        sim.set_horizon(Some(SimTime::from_millis(ms)));
        sim
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), "c");
        q.push(SimTime::from_millis(10), "a");
        q.push(SimTime::from_millis(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.processed(), 3);
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn simulation_advances_clock_and_cascades() {
        #[derive(Debug)]
        enum Ev {
            Ping(u32),
        }
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_millis(1), Ev::Ping(0));
        let mut seen = Vec::new();
        sim.run(|sim, Ev::Ping(k)| {
            seen.push((sim.now(), k));
            if k < 4 {
                sim.schedule_at(sim.now() + SimTime::from_millis(1), Ev::Ping(k + 1));
            }
        });
        assert_eq!(seen.len(), 5);
        assert_eq!(seen[4].0, SimTime::from_millis(5));
        assert_eq!(sim.processed(), 5);
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    fn horizon_stops_processing() {
        let mut sim = horizon_at(10);
        for i in 1..=20u64 {
            sim.schedule_at(SimTime::from_millis(i), i);
        }
        let mut count = 0;
        sim.run(|_, _| count += 1);
        assert_eq!(count, 10);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_millis(5), ());
        sim.run(|sim, ()| {
            sim.schedule_at(SimTime::from_millis(1), ());
        });
    }

    #[test]
    fn cleared_queue_is_fresh_but_keeps_capacity() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.push(SimTime::from_millis(i), i);
        }
        q.pop();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.processed(), 0);
        // FIFO tie-breaking restarts from sequence zero.
        q.push(SimTime::from_millis(1), 7);
        q.push(SimTime::from_millis(1), 8);
        assert_eq!(q.pop().map(|(_, e)| e), Some(7));
        assert_eq!(q.pop().map(|(_, e)| e), Some(8));
    }

    #[test]
    fn reset_simulation_matches_fresh_one() {
        let run = |sim: &mut Simulation<u64>| {
            for i in 1..=20u64 {
                sim.schedule_at(SimTime::from_millis(i), i);
            }
            let mut seen = Vec::new();
            sim.run(|sim, e| seen.push((sim.now(), e)));
            seen
        };
        let mut fresh = horizon_at(10);
        let expect = run(&mut fresh);

        let mut reused = horizon_at(10);
        run(&mut reused); // dirty it
        reused.reset();
        assert_eq!(reused.now(), SimTime::ZERO);
        assert_eq!(reused.pending(), 0);
        assert_eq!(run(&mut reused), expect, "reset run must be identical");
    }

    #[test]
    fn set_horizon_changes_cutoff_on_reuse() {
        let mut sim: Simulation<u64> = horizon_at(5);
        for i in 1..=20u64 {
            sim.schedule_at(SimTime::from_millis(i), i);
        }
        let mut count = 0;
        sim.run(|_, _| count += 1);
        assert_eq!(count, 5);
        sim.reset();
        sim.set_horizon(Some(SimTime::from_millis(12)));
        for i in 1..=20u64 {
            sim.schedule_at(SimTime::from_millis(i), i);
        }
        let mut count = 0;
        sim.run(|_, _| count += 1);
        assert_eq!(count, 12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Pops interleaved with pushes, then a full drain, read exactly
        /// what a stable sort of the pending events by `(time, push
        /// sequence)` says comes next — with 64 distinct times for
        /// 2,000+ events, so nearly every pop breaks a tie, and at
        /// least 1,000 events pending by the end of the pushes.
        #[test]
        fn pop_order_is_a_stable_sort_by_time_then_push_order(
            times in proptest::collection::vec(0u64..64, 2_000..2_500),
            pop_every in 2usize..8,
        ) {
            let mut q = EventQueue::new();
            let mut reference: Vec<(SimTime, usize)> = Vec::new();
            let reference_pop = |reference: &mut Vec<(SimTime, usize)>| {
                reference.sort_by_key(|&(t, seq)| (t, seq));
                (!reference.is_empty()).then(|| reference.remove(0))
            };
            for (seq, &t) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(t), seq);
                reference.push((SimTime::from_nanos(t), seq));
                if seq % pop_every == 0 {
                    prop_assert_eq!(q.pop(), reference_pop(&mut reference));
                }
            }
            prop_assert!(q.len() >= 1_000);
            prop_assert_eq!(q.len(), reference.len());
            while !reference.is_empty() {
                prop_assert_eq!(q.pop(), reference_pop(&mut reference));
            }
            prop_assert_eq!(q.pop(), None);
            prop_assert_eq!(q.processed(), times.len() as u64);
        }
    }

    #[test]
    fn clear_keeps_the_storage_allocation() {
        let mut q = EventQueue::new();
        let fill = |q: &mut EventQueue<u64>| {
            for i in 0..1_000u64 {
                q.push(SimTime::from_nanos(i % 7), i);
            }
        };
        fill(&mut q);
        let (capacity, storage) = (q.pending.capacity(), q.pending.as_ptr());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pending.capacity(), capacity);
        // Refilling to the same depth reuses the same buffer.
        fill(&mut q);
        assert_eq!(
            (q.pending.capacity(), q.pending.as_ptr()),
            (capacity, storage)
        );
    }

    #[test]
    fn stress_random_order_pops_sorted() {
        use crate::SimRng;
        let mut rng = SimRng::new(8);
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            q.push(SimTime::from_nanos(rng.below(1_000_000)), i);
        }
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
    }
}
