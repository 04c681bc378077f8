//! The fleet's route cache.
//!
//! Route planning (Dijkstra + conduit compression) dominates per-flow
//! cost, yet is a pure function of the `(src, dst)` pair — hotspot
//! workloads repeat pairs constantly. [`RouteCache`] memoizes
//! [`PlannedFlow`]s in a [`PairCache`], so concurrent workers mostly
//! take uncontended shard read locks, and two workers racing to plan
//! the same missing pair both succeed (the first insert wins — the
//! value is identical by purity, so the race is benign and determinism
//! is unaffected).

use std::sync::Arc;

use citymesh_core::{ApGraph, PairCache, PlannedFlow};

/// A concurrent `(src, dst) → Arc<PlannedFlow>` map.
#[derive(Default)]
pub struct RouteCache(PairCache<PlannedFlow>);

impl RouteCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        RouteCache(PairCache::new())
    }

    /// Returns the plan for `(src, dst)`, computing it with `plan` on
    /// a miss. The planner runs *outside* any lock, so a slow Dijkstra
    /// never blocks readers of the same shard.
    #[inline]
    pub fn get_or_plan(
        &self,
        src: u32,
        dst: u32,
        plan: impl FnOnce() -> PlannedFlow,
    ) -> Arc<PlannedFlow> {
        self.0.get_or_insert_with((src, dst), plan).0
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.0.hits()
    }

    /// Cache misses (= distinct pairs planned, absent races).
    pub fn misses(&self) -> u64 {
        self.0.misses()
    }

    /// Total cached entries across all shards.
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
    /// could have touched need to go; everything else stays warm.
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
    /// [`RouteCache::evict_stale`] is measured against.
    pub fn clear(&self) -> u64 {
        self.0.clear()
    }
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

    fn dummy_plan(src: u32, dst: u32) -> PlannedFlow {
        let mut plan = PlannedFlow::empty(src, dst);
        plan.reachable = true;
        plan.route_len = 2;
        plan.waypoints = vec![src, dst];
        plan.route_bits = 64;
        plan
    }

    #[test]
    fn distinct_pairs_get_distinct_entries() {
        let cache = RouteCache::new();
        for src in 0..20u32 {
            for dst in 0..20u32 {
                if src != dst {
                    cache.get_or_plan(src, dst, || dummy_plan(src, dst));
                }
            }
        }
        assert_eq!(cache.len(), 20 * 19);
        assert_eq!(cache.misses(), 20 * 19);
        // Directionality matters: (a, b) and (b, a) are separate.
        let p = cache.get_or_plan(3, 4, || unreachable!("must be cached"));
        assert_eq!((p.src, p.dst), (3, 4));
    }

    #[test]
    fn eviction_is_targeted_and_counted() {
        let cache = RouteCache::new();
        for src in 0..10u32 {
            for dst in 0..10u32 {
                if src != dst {
                    cache.get_or_plan(src, dst, || dummy_plan(src, dst));
                }
            }
        }
        let total = 10 * 9;
        assert_eq!(cache.len(), total);

        // Evict everything touching building 3 (as src or dst).
        let evicted = cache.evict_where(|p| p.src == 3 || p.dst == 3);
        assert_eq!(evicted, 18, "9 routes out of 3 plus 9 routes into 3");
        assert_eq!(cache.len(), total - 18);
        // Survivors are still served from cache; victims re-plan.
        cache.get_or_plan(1, 2, || unreachable!("must have survived"));
        let mut replanned = false;
        cache.get_or_plan(3, 4, || {
            replanned = true;
            dummy_plan(3, 4)
        });
        assert!(replanned, "evicted pair must be planned again");

        let flushed = cache.clear();
        assert_eq!(flushed as usize, total - 18 + 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn concurrent_access_shares_one_allocation() {
        let cache = Arc::new(RouteCache::new());
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
}
