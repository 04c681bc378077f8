//! The deployed AP agent as the paper describes it (§3 step 3): one
//! program per AP, whose only memory is a bounded duplicate-suppression
//! cache of recently seen message IDs, deciding each new message from
//! its header and the cached map alone ([`decide`]). The delivery
//! kernel keeps no such per-AP state — its role vector is every AP's
//! memory for the one message a flow carries, and it reads each
//! verdict from the route's covered buildings — so this stateful form
//! is what the kernel oracle runs one of per AP.

use std::collections::{HashSet, VecDeque};

use citymesh_core::{reconstruct_conduits, within_conduits, RebroadcastScope};
use citymesh_geo::{OrientedRect, Point};
use citymesh_map::CityMap;
use citymesh_net::CityMeshHeader;

/// The agent's verdict for one received packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Action {
    /// Hand the payload to the postbox service on this AP (we are in
    /// the destination building).
    pub deliver: bool,
    /// Schedule a rebroadcast.
    pub rebroadcast: bool,
}

impl Action {
    /// Neither deliver nor rebroadcast.
    pub const IGNORE: Action = Action {
        deliver: false,
        rebroadcast: false,
    };
}

/// The stateless verdict for a packet an AP at `pos` in `building`
/// has **not** seen before: deliver when in the destination building,
/// rebroadcast when the scope's probe point lies in one of `conduits`
/// (the header's waypoints reconstructed at its width). A building `map` lacks fails closed: it never relays.
pub fn decide(
    pos: Point,
    building: u32,
    scope: RebroadcastScope,
    header: &CityMeshHeader,
    map: &CityMap,
    conduits: &[OrientedRect],
) -> Action {
    let deliver = building == header.destination();
    let probe = match scope {
        RebroadcastScope::ApPosition => Some(pos),
        RebroadcastScope::Building => map.building(building).map(|b| b.centroid),
    };
    Action {
        deliver,
        rebroadcast: probe.is_some_and(|p| within_conduits(conduits, p)),
    }
}

/// A bounded recently-seen-message cache (FIFO eviction).
///
/// Real APs cannot keep unbounded state; bounding it also caps how
/// long a stale duplicate can be recognized.
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

    /// [`decide`] against the header's own conduits.
    fn verdict(
        pos: Point,
        building: u32,
        scope: RebroadcastScope,
        h: &CityMeshHeader,
        map: &CityMap,
    ) -> Action {
        let conduits = reconstruct_conduits(map, &h.waypoints, h.conduit_width_m());
        decide(pos, building, scope, h, map, &conduits)
    }

    #[test]
    fn off_conduit_ap_stays_silent() {
        let mut footprints: Vec<Polygon> = (0..5)
            .map(|i| square_at(i as f64 * 30.0, 0.0, 10.0))
            .collect();
        footprints.push(square_at(60.0, 200.0, 10.0)); // far off the route
        let map = CityMap::new("with-outlier", footprints, vec![]);
        let outlier = map.nearest_building(Point::new(65.0, 205.0)).unwrap().id;
        let route_src = map.nearest_building(Point::new(5.0, 5.0)).unwrap().id;
        let route_dst = map.nearest_building(Point::new(125.0, 5.0)).unwrap().id;
        let h = CityMeshHeader::new(1, 50.0, vec![route_src, route_dst]);
        let pos = Point::new(65.0, 205.0);
        let action = verdict(pos, outlier, RebroadcastScope::Building, &h, &map);
        assert_eq!(action, Action::IGNORE);
    }

    #[test]
    fn destination_building_delivers() {
        let map = test_map();
        let h = CityMeshHeader::new(2, 50.0, vec![0, 4]);
        let pos = Point::new(125.0, 5.0);
        let action = verdict(pos, 4, RebroadcastScope::Building, &h, &map);
        assert!(action.deliver);
        assert!(
            action.rebroadcast,
            "destination building is inside the last conduit"
        );
    }

    #[test]
    fn scope_changes_the_predicate() {
        let map = test_map();
        let h = CityMeshHeader::new(5, 20.0, vec![0, 4]);
        // The spine runs along y = 5 (building centroids). An AP at
        // y = 20 sits 15 m off it, in an on-route building: building
        // scope relays (centroid on spine), position scope does not
        // (15 > W/2 = 10).
        let pos = Point::new(65.0, 20.0);
        assert!(verdict(pos, 2, RebroadcastScope::Building, &h, &map).rebroadcast);
        assert!(!verdict(pos, 2, RebroadcastScope::ApPosition, &h, &map).rebroadcast);
    }

    #[test]
    fn unknown_building_fails_closed() {
        let map = test_map();
        let h = CityMeshHeader::new(6, 50.0, vec![0, 4]);
        let pos = Point::new(65.0, 5.0);
        let action = verdict(pos, 77, RebroadcastScope::Building, &h, &map);
        assert_eq!(action, Action::IGNORE);
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
