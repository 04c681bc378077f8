//! The fleet's route cache.
//!
//! Route planning (Dijkstra + conduit compression) dominates per-flow
//! cost, yet is a pure function of the `(src, dst)` pair — hotspot
//! workloads repeat pairs constantly, uniform ones almost never.
//! [`RouteCache`] memoizes [`PlannedFlow`]s in a [`PairCache`] and
//! admits a pair on its second request: the first plans into a buffer
//! that is not stored, so a pair asked once costs the map a marker, not
//! a plan. Admission is decided under the shard lock, so the stored set
//! is the pairs asked at least twice, whatever the schedule. Concurrent
//! workers mostly take uncontended shard read locks, and two workers
//! racing to plan the same admitted pair both succeed (the first insert
//! wins — the value is identical by purity, so the race is benign and
//! determinism is unaffected).

use std::sync::Arc;

use citymesh_core::{Admission, ApGraph, PairCache, PlannedFlow};

/// A concurrent `(src, dst) → Arc<PlannedFlow>` map that stores a pair
/// on its second request.
#[derive(Default)]
pub struct RouteCache(PairCache<PlannedFlow>);

impl RouteCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        RouteCache(PairCache::new())
    }

    /// Returns the plan for `(src, dst)`, computing it with `plan` when
    /// none is stored: a pair's first request returns the plan without
    /// storing it, a later one stores it. The planner runs *outside*
    /// any lock, so a slow Dijkstra never blocks readers of the same
    /// shard.
    #[inline]
    pub fn get_or_plan(
        &self,
        src: u32,
        dst: u32,
        plan: impl FnOnce() -> PlannedFlow,
    ) -> Arc<PlannedFlow> {
        self.serve(src, dst, None, |p| *p = plan())
    }

    /// [`RouteCache::get_or_plan`] for a caller that keeps a plan
    /// buffer: a pair's first request runs `plan` on `buffer` and
    /// returns it, so a one-shot pair allocates nothing once the
    /// buffer's vectors have grown. `plan` must overwrite every field
    /// (`plan_flow_into` does). When the buffer is still shared — the
    /// caller holds a plan it returned — it is replaced by a fresh one
    /// first; either way a first request never stores anything.
    #[inline]
    pub fn get_or_plan_into(
        &self,
        src: u32,
        dst: u32,
        buffer: &mut Arc<PlannedFlow>,
        plan: impl FnOnce(&mut PlannedFlow),
    ) -> Arc<PlannedFlow> {
        self.serve(src, dst, Some(buffer), plan)
    }

    /// The one admission path both entry points take, so the executor
    /// and a serial replay store exactly the same pairs: a first
    /// request plans into `buffer` (or, without one, a fresh plan) and
    /// stores nothing; a second plans a fresh plan and stores it.
    #[inline]
    fn serve(
        &self,
        src: u32,
        dst: u32,
        buffer: Option<&mut Arc<PlannedFlow>>,
        plan: impl FnOnce(&mut PlannedFlow),
    ) -> Arc<PlannedFlow> {
        match self.0.admit((src, dst)) {
            Admission::Hit(found) => found,
            Admission::First => match buffer {
                None => Arc::new(planned(src, dst, plan)),
                Some(buffer) => {
                    if Arc::get_mut(buffer).is_none() {
                        *buffer = Arc::new(PlannedFlow::empty(src, dst));
                    }
                    plan(Arc::get_mut(buffer).expect("the buffer is unshared"));
                    Arc::clone(buffer)
                }
            },
            Admission::Second => self.0.insert((src, dst), planned(src, dst, plan)),
        }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.0.hits()
    }

    /// Cache misses (= plans computed; a pair repeated is planned on
    /// its first request and again on its second).
    pub fn misses(&self) -> u64 {
        self.0.misses()
    }

    /// Plans stored across all shards (pairs asked once are not).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Evicts every cached plan matching `pred` and returns how many
    /// were dropped — the incremental-invalidation primitive for world
    /// churn: after an event, only plans whose geometry the event
    /// could have touched need to go; everything else stays warm. An
    /// evicted pair has been asked twice, so its next request plans and
    /// stores it again.
    ///
    /// Shards are drained one at a time under their own write locks,
    /// so concurrent readers of other shards are unaffected. Callers
    /// running between parallel epochs (the churn engine's barrier)
    /// see a fully quiesced cache anyway, which is what makes the
    /// eviction count deterministic.
    pub fn evict_where(&self, mut pred: impl FnMut(&PlannedFlow) -> bool) -> u64 {
        self.0.retain(|_, plan| !pred(plan))
    }

    /// The incremental-invalidation predicate, applied after a world
    /// change: evicts every plan the change could observably touch —
    /// those whose source or destination is in `touched_buildings` (the
    /// sender's postbox uplink and a redirected destination are baked
    /// into the cached plan), plus those with one of `changed_aps`
    /// inside a conduit rectangle (found through the AP graph's spatial
    /// bucket index, not a city scan). Everything else stays warm, and
    /// the outcome digests equal a full [`RouteCache::clear`]'s.
    ///
    /// Both id sets become dense masks once per call, so a cached plan
    /// costs two loads and, per AP its conduits' bounding boxes cover,
    /// one more — the exact rectangle test runs only for changed APs
    /// and stops at the plan's first hit.
    pub fn evict_stale(
        &self,
        apg: &ApGraph,
        touched_buildings: impl IntoIterator<Item = u32>,
        changed_aps: impl IntoIterator<Item = u32>,
    ) -> u64 {
        let touched = dense_mask(touched_buildings);
        let changed = dense_mask(changed_aps);
        let is_set = |mask: &[bool], id: u32| mask.get(id as usize).copied().unwrap_or(false);
        self.evict_where(|plan| {
            is_set(&touched, plan.src)
                || is_set(&touched, plan.dst)
                || (!changed.is_empty()
                    && apg.any_ap_in_conduits(&plan.conduits, |ap| is_set(&changed, ap)))
        })
    }

    /// Drops every cached plan and returns how many there were — the
    /// blunt full-flush invalidation baseline that
    /// [`RouteCache::evict_stale`] is measured against. Like an
    /// eviction, a flushed pair is stored again on its next request.
    pub fn clear(&self) -> u64 {
        self.0.clear()
    }
}

/// A fresh plan for `(src, dst)`, filled by `plan`.
fn planned(src: u32, dst: u32, plan: impl FnOnce(&mut PlannedFlow)) -> PlannedFlow {
    let mut planned = PlannedFlow::empty(src, dst);
    plan(&mut planned);
    planned
}

/// `mask[id]` for every id in `ids`, sized by the largest.
fn dense_mask(ids: impl IntoIterator<Item = u32>) -> Vec<bool> {
    let mut mask = Vec::new();
    for id in ids {
        let i = id as usize;
        if mask.len() <= i {
            mask.resize(i + 1, false);
        }
        mask[i] = true;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dummy_plan(src: u32, dst: u32) -> PlannedFlow {
        let mut plan = PlannedFlow::empty(src, dst);
        plan.reachable = true;
        plan.route_len = 2;
        plan.waypoints = vec![src, dst];
        plan.route_bits = 64;
        plan
    }

    /// Asks for every ordered pair of `0..n` twice, so each is stored.
    fn filled(n: u32) -> RouteCache {
        let cache = RouteCache::new();
        for _ in 0..2 {
            for src in 0..n {
                for dst in (0..n).filter(|&dst| dst != src) {
                    cache.get_or_plan(src, dst, || dummy_plan(src, dst));
                }
            }
        }
        cache
    }

    /// The stored pairs, read without asking for any.
    fn stored(cache: &RouteCache) -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        cache.evict_where(|p| {
            pairs.push((p.src, p.dst));
            false
        });
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn a_pair_is_stored_on_its_second_request() {
        let cache = RouteCache::new();
        let first = cache.get_or_plan(1, 2, || dummy_plan(1, 2));
        assert_eq!((first.src, first.dst), (1, 2));
        assert!(cache.is_empty(), "a first request stores nothing");
        let second = cache.get_or_plan(1, 2, || dummy_plan(1, 2));
        let third = cache.get_or_plan(1, 2, || unreachable!("must be cached"));
        assert!(Arc::ptr_eq(&second, &third));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 2, 1));
    }

    #[test]
    fn distinct_pairs_get_distinct_entries() {
        let cache = filled(20);
        assert_eq!(cache.len(), 20 * 19);
        assert_eq!(cache.misses(), 2 * 20 * 19);
        // Directionality matters: (a, b) and (b, a) are separate.
        let p = cache.get_or_plan(3, 4, || unreachable!("must be cached"));
        assert_eq!((p.src, p.dst), (3, 4));
    }

    #[test]
    fn eviction_is_targeted_and_counted() {
        let cache = filled(10);
        let total = 10 * 9;
        assert_eq!(cache.len(), total);

        // Evict everything touching building 3 (as src or dst).
        let evicted = cache.evict_where(|p| p.src == 3 || p.dst == 3);
        assert_eq!(evicted, 18, "9 routes out of 3 plus 9 routes into 3");
        assert_eq!(cache.len(), total - 18);
        // Survivors are still served from cache; victims re-plan, and
        // having repeated before, are stored again at once.
        cache.get_or_plan(1, 2, || unreachable!("must have survived"));
        let mut replanned = false;
        cache.get_or_plan(3, 4, || {
            replanned = true;
            dummy_plan(3, 4)
        });
        assert!(replanned, "evicted pair must be planned again");
        cache.get_or_plan(3, 4, || unreachable!("re-admitted on replanning"));

        let flushed = cache.clear();
        assert_eq!(flushed as usize, total - 18 + 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn concurrent_access_shares_one_allocation() {
        let cache = Arc::new(RouteCache::new());
        cache.get_or_plan(7, 9, || dummy_plan(7, 9));
        let ptrs: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    s.spawn(move || {
                        let p = cache.get_or_plan(7, 9, || dummy_plan(7, 9));
                        Arc::as_ptr(&p) as usize
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(
            ptrs.windows(2).all(|w| w[0] == w[1]),
            "all threads must share the winning insertion"
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_first_request_plans_into_the_buffer_and_never_stores() {
        let cache = RouteCache::new();
        let plan_into = |p: &mut PlannedFlow, src, dst| *p = dummy_plan(src, dst);
        let mut buffer = Arc::new(PlannedFlow::empty(0, 0));
        let unshared = Arc::as_ptr(&buffer);
        let got = cache.get_or_plan_into(1, 2, &mut buffer, |p| plan_into(p, 1, 2));
        assert_eq!(Arc::as_ptr(&got), unshared, "planned into the buffer");
        assert!(cache.is_empty());

        // The caller still holds that plan: the buffer is shared, so the
        // next first request plans into a fresh one, stores nothing and
        // leaves the held plan alone.
        let held = got;
        let got = cache.get_or_plan_into(3, 4, &mut buffer, |p| plan_into(p, 3, 4));
        assert!(!Arc::ptr_eq(&got, &held));
        assert_eq!((held.src, held.dst), (1, 2));
        assert_eq!((got.src, got.dst), (3, 4));
        assert!(
            Arc::ptr_eq(&got, &buffer),
            "the fresh plan is the new buffer"
        );
        assert!(cache.is_empty(), "a first request never stores");

        // Second requests store a plan of their own, never the buffer.
        drop(got);
        let stored = cache.get_or_plan_into(1, 2, &mut buffer, |p| plan_into(p, 1, 2));
        assert!(!Arc::ptr_eq(&stored, &buffer));
        assert_eq!(stored.waypoints, vec![1, 2]);
        assert_eq!(self::stored(&cache), vec![(1, 2)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Whatever the split of a request sequence over 1, 2 or 4
        /// threads, the pairs stored are exactly those asked twice or
        /// more.
        #[test]
        fn stored_pairs_are_those_asked_twice(
            requests in proptest::collection::vec((0u32..12, 0u32..12), 0..200),
            threads in prop_oneof![Just(1usize), Just(2), Just(4)],
        ) {
            let cache = RouteCache::new();
            let chunk = requests.len().div_ceil(threads).max(1);
            std::thread::scope(|s| {
                for part in requests.chunks(chunk) {
                    let cache = &cache;
                    s.spawn(move || {
                        let mut buffer = Arc::new(PlannedFlow::empty(0, 0));
                        for &(src, dst) in part {
                            let p = cache.get_or_plan_into(src, dst, &mut buffer, |p| {
                                *p = dummy_plan(src, dst);
                            });
                            assert_eq!((p.src, p.dst), (src, dst));
                        }
                    });
                }
            });
            let mut asked = std::collections::HashMap::<(u32, u32), u32>::new();
            for &pair in &requests {
                *asked.entry(pair).or_default() += 1;
            }
            let mut twice: Vec<(u32, u32)> =
                asked.into_iter().filter(|&(_, n)| n >= 2).map(|(p, _)| p).collect();
            twice.sort_unstable();
            prop_assert_eq!(stored(&cache), twice);
            prop_assert_eq!(cache.hits() + cache.misses(), requests.len() as u64);
        }
    }
}
