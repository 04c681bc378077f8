//! The per-AP software agent's verdict (paper §3 step 3).
//!
//! Each AP runs the same small program: on receiving a packet, decide
//! — from the packet header and the AP's cached city map only —
//! whether to deliver it to a local postbox and whether to rebroadcast
//! it. The agent keeps *no* routing state; its only memory is which
//! message IDs it has already seen. [`decide`] is everything it does
//! for a message it has not seen. The delivery kernel tracks "seen"
//! itself (an AP's role in the flow) and calls [`decide`] once per
//! building a flow reaches; the stateful agent with its bounded
//! seen-cache, one per AP, is the kernel oracle's reference and lives
//! in the `citymesh-reference` crate.

use citymesh_geo::{OrientedRect, Point};
use citymesh_map::CityMap;
use citymesh_net::CityMeshHeader;

use crate::conduit::within_conduits;

/// Which geometry the rebroadcast predicate tests against the conduit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RebroadcastScope {
    /// The AP's **building centroid** must lie in a conduit: every AP
    /// of a covered building relays. This matches the paper's
    /// description ("APs in buildings that fall within the geographic
    /// area of the conduits") and its ~13× overhead accounting, which
    /// it attributes to "all the APs within a building rebroadcast".
    #[default]
    Building,
    /// The AP's **own position** must lie in a conduit. Fewer relays
    /// per building; evaluated as the paper's proposed
    /// overhead-reduction direction.
    ApPosition,
}

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
/// rebroadcast when the TTL allows and the scope's probe point lies in
/// one of `conduits` (the header's waypoints reconstructed at its
/// width).
pub fn decide(
    pos: Point,
    building: u32,
    scope: RebroadcastScope,
    header: &CityMeshHeader,
    map: &CityMap,
    conduits: &[OrientedRect],
) -> Action {
    let deliver = building == header.destination();
    if header.ttl == 0 {
        return Action {
            deliver,
            rebroadcast: false,
        };
    }
    let probe = match scope {
        RebroadcastScope::ApPosition => pos,
        RebroadcastScope::Building => match map.building(building) {
            Some(b) => b.centroid,
            // Map disagreement: this AP's building is unknown to its
            // own cache — fail closed (no relay storm).
            None => {
                return Action {
                    deliver,
                    rebroadcast: false,
                }
            }
        },
    };
    let rebroadcast = within_conduits(conduits, probe);
    Action {
        deliver,
        rebroadcast,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conduit::reconstruct_conduits;
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
    fn on_route_ap_rebroadcasts() {
        let map = test_map();
        let h = CityMeshHeader::new(99, 50.0, vec![0, 4]);
        // AP in building 2, squarely on the straight conduit.
        let action = verdict(
            Point::new(65.0, 5.0),
            2,
            RebroadcastScope::Building,
            &h,
            &map,
        );
        assert!(action.rebroadcast);
        assert!(!action.deliver);
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
        let action = verdict(
            Point::new(125.0, 5.0),
            4,
            RebroadcastScope::Building,
            &h,
            &map,
        );
        assert!(action.deliver);
        assert!(
            action.rebroadcast,
            "destination building is inside the last conduit"
        );
    }

    #[test]
    fn ttl_zero_delivers_but_never_relays() {
        let map = test_map();
        let mut h = CityMeshHeader::new(4, 50.0, vec![0, 4]);
        h.ttl = 0;
        let action = verdict(
            Point::new(125.0, 5.0),
            4,
            RebroadcastScope::Building,
            &h,
            &map,
        );
        assert!(action.deliver);
        assert!(!action.rebroadcast);
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
        let action = verdict(
            Point::new(65.0, 5.0),
            77,
            RebroadcastScope::Building,
            &h,
            &map,
        );
        assert_eq!(action, Action::IGNORE);
    }
}
