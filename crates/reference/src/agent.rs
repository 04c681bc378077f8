//! The deployed AP agent as the paper describes it (§3 step 3): one
//! program per AP, whose only memory is a bounded duplicate-suppression
//! cache of recently seen message IDs. The delivery kernel keeps no
//! such per-AP state — its role vector is every AP's memory for the one
//! message a flow carries — so this stateful form is what the kernel
//! oracle runs one of per AP.

use std::collections::{HashSet, VecDeque};

use citymesh_core::agent::{decide, Action, RebroadcastScope};
use citymesh_core::reconstruct_conduits;
use citymesh_geo::{OrientedRect, Point};
use citymesh_map::CityMap;
use citymesh_net::CityMeshHeader;

/// A bounded recently-seen-message cache (FIFO eviction).
///
/// Real APs cannot keep unbounded state; bounding it also caps how
/// long a stale duplicate can be recognized, which the TTL backstops.
#[derive(Clone, Debug)]
pub struct SeenCache {
    set: HashSet<u64>,
    order: VecDeque<u64>,
    capacity: usize,
}

impl SeenCache {
    /// Creates a cache remembering up to `capacity` message IDs.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        SeenCache {
            set: HashSet::with_capacity(capacity),
            order: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Records `id`; returns `true` when it was already present.
    pub fn check_and_insert(&mut self, id: u64) -> bool {
        if self.set.contains(&id) {
            return true;
        }
        if self.order.len() == self.capacity {
            if let Some(evicted) = self.order.pop_front() {
                self.set.remove(&evicted);
            }
        }
        self.order.push_back(id);
        self.set.insert(id);
        false
    }

    /// Number of remembered IDs.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }
}

/// The stateful part of one AP's agent.
#[derive(Clone, Debug)]
pub struct ApAgent {
    /// This AP's location.
    pub pos: Point,
    /// The building containing this AP.
    pub building: u32,
    /// Duplicate-suppression memory.
    pub seen: SeenCache,
    /// Rebroadcast geometry policy.
    pub scope: RebroadcastScope,
}

impl ApAgent {
    /// The seen-cache capacity of a deployed AP: 4096 IDs ≈ a few
    /// minutes of city-wide traffic; small enough for router RAM,
    /// large enough that duplicates die out long before eviction.
    pub const DEPLOYED_SEEN_CAPACITY: usize = 4096;

    /// Creates an agent for an AP at `pos` inside `building` with the
    /// deployed-AP seen-cache capacity.
    pub fn new(pos: Point, building: u32, scope: RebroadcastScope) -> Self {
        ApAgent {
            pos,
            building,
            seen: SeenCache::new(Self::DEPLOYED_SEEN_CAPACITY),
            scope,
        }
    }

    /// Processes a received packet header against `map`, reconstructing
    /// conduits itself.
    pub fn handle(&mut self, header: &CityMeshHeader, map: &CityMap) -> Action {
        let conduits = reconstruct_conduits(map, &header.waypoints, header.conduit_width_m());
        self.handle_with_conduits(header, map, &conduits)
    }

    /// Processing core with caller-supplied conduits (identical for
    /// every AP handling the same message): the duplicate check, then
    /// the stateless verdict [`decide`].
    pub fn handle_with_conduits(
        &mut self,
        header: &CityMeshHeader,
        map: &CityMap,
        conduits: &[OrientedRect],
    ) -> Action {
        if self.seen.check_and_insert(header.msg_id) {
            return Action::IGNORE; // duplicate
        }
        decide(self.pos, self.building, self.scope, header, map, conduits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use citymesh_geo::{Polygon, Rect};

    fn square_at(x: f64, y: f64, side: f64) -> Polygon {
        Polygon::rect(Rect::from_corners(
            Point::new(x, y),
            Point::new(x + side, y + side),
        ))
    }

    /// Buildings every 30 m along x; route goes 0 → 4.
    fn test_map() -> CityMap {
        CityMap::new(
            "agent-test",
            (0..5)
                .map(|i| square_at(i as f64 * 30.0, 0.0, 10.0))
                .collect(),
            vec![],
        )
    }

    #[test]
    fn seen_cache_dedup_and_eviction() {
        let mut c = SeenCache::new(2);
        assert!(!c.check_and_insert(1));
        assert!(c.check_and_insert(1));
        assert!(!c.check_and_insert(2));
        assert!(!c.check_and_insert(3)); // evicts 1
        assert!(!c.check_and_insert(1), "evicted id is forgotten");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn on_route_ap_rebroadcasts() {
        let map = test_map();
        let h = CityMeshHeader::new(99, 50.0, vec![0, 4]);
        // AP in building 2, squarely on the straight conduit.
        let mut agent = ApAgent::new(Point::new(65.0, 5.0), 2, RebroadcastScope::Building);
        let action = agent.handle(&h, &map);
        assert!(action.rebroadcast);
        assert!(!action.deliver);
    }

    #[test]
    fn duplicates_ignored_entirely() {
        let map = test_map();
        let h = CityMeshHeader::new(3, 50.0, vec![0, 4]);
        let mut agent = ApAgent::new(Point::new(65.0, 5.0), 2, RebroadcastScope::Building);
        assert!(agent.handle(&h, &map).rebroadcast);
        assert_eq!(agent.handle(&h, &map), Action::IGNORE);
    }
}
