//! Flooding baselines.
//!
//! Flooding delivers whenever delivery is possible at all, so it is
//! the deliverability ceiling; its transmission count is what naive
//! broadcast costs and what CityMesh's conduits are meant to undercut
//! on long routes.

use std::collections::VecDeque;

use citymesh_core::ApGraph;

/// Outcome of one flood.
#[derive(Clone, Debug, PartialEq)]
pub struct FloodOutcome {
    /// Whether any AP of the destination building was reached.
    pub delivered: bool,
    /// Total broadcasts (every AP transmits at most once).
    pub broadcasts: u64,
    /// Hops at which the destination was first reached.
    pub delivery_hops: Option<u64>,
    /// Number of distinct APs that received the packet.
    pub reached: usize,
}

/// Floods from `src_ap` toward `dst_building` with an optional TTL
/// (`None` = unbounded, classic flooding).
///
/// Every AP rebroadcasts exactly once (perfect duplicate suppression),
/// so the broadcast count equals the number of APs reached within the
/// TTL — the best case for flooding; a real MAC would add collisions
/// and retries on top.
pub fn flood(apg: &ApGraph, src_ap: u32, dst_building: u32, ttl: Option<u64>) -> FloodOutcome {
    assert!((src_ap as usize) < apg.len(), "source AP out of range");
    let n = apg.len();
    let mut hops: Vec<Option<u64>> = vec![None; n];
    hops[src_ap as usize] = Some(0);
    let mut queue = VecDeque::from([src_ap]);
    let mut broadcasts = 0u64;
    let mut delivery_hops: Option<u64> = None;

    if apg.building_of(src_ap) == dst_building {
        delivery_hops = Some(0);
    }

    while let Some(ap) = queue.pop_front() {
        let h = hops[ap as usize].expect("queued APs have hop counts");
        if let Some(limit) = ttl {
            if h >= limit {
                continue; // TTL exhausted: receive but do not relay
            }
        }
        broadcasts += 1;
        for &rx in apg.audience(ap) {
            if hops[rx as usize].is_none() {
                hops[rx as usize] = Some(h + 1);
                if apg.building_of(rx) == dst_building && delivery_hops.is_none() {
                    delivery_hops = Some(h + 1);
                }
                queue.push_back(rx);
            }
        }
    }

    FloodOutcome {
        delivered: delivery_hops.is_some(),
        broadcasts,
        delivery_hops,
        reached: hops.iter().filter(|h| h.is_some()).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use citymesh_core::{place_aps, Ap, ApGraph};
    use citymesh_geo::Point;
    use citymesh_simcore::SimRng;

    fn ap(id: u32, x: f64, building: u32) -> Ap {
        Ap {
            id,
            pos: Point::new(x, 0.0),
            building,
        }
    }

    /// A line of 6 APs, 40 m apart, one per building.
    fn line() -> ApGraph {
        let aps: Vec<Ap> = (0..6).map(|i| ap(i, i as f64 * 40.0, i)).collect();
        ApGraph::build(&aps, 50.0)
    }

    #[test]
    fn unbounded_flood_reaches_everything() {
        let g = line();
        let out = flood(&g, 0, 5, None);
        assert!(out.delivered);
        assert_eq!(out.delivery_hops, Some(5));
        assert_eq!(out.reached, 6);
        assert_eq!(out.broadcasts, 6, "every AP transmits once");
    }

    #[test]
    fn ttl_scopes_the_flood() {
        let g = line();
        let out = flood(&g, 0, 5, Some(3));
        assert!(!out.delivered, "destination is 5 hops away, TTL 3");
        // APs at hops 0–2 transmit; the hop-3 AP receives but stays
        // quiet, so the packet reaches exactly TTL + 1 nodes.
        assert_eq!(out.broadcasts, 3);
        assert_eq!(out.reached, 4);
        let exact = flood(&g, 0, 5, Some(5));
        assert!(exact.delivered);
    }

    #[test]
    fn same_building_is_immediate() {
        let g = line();
        let out = flood(&g, 2, 2, Some(0));
        assert!(out.delivered);
        assert_eq!(out.delivery_hops, Some(0));
    }

    #[test]
    fn disconnected_flood_fails() {
        let aps = vec![ap(0, 0.0, 0), ap(1, 500.0, 1)];
        let g = ApGraph::build(&aps, 50.0);
        let out = flood(&g, 0, 1, None);
        assert!(!out.delivered);
        assert_eq!(out.reached, 1);
        assert_eq!(out.broadcasts, 1);
    }

    #[test]
    fn flood_cost_scales_with_component_not_route() {
        // In a real city, flooding pays for the whole component even
        // for a short route.
        let map = citymesh_map::CityArchetype::SurveyDowntown.generate(1);
        let mut rng = SimRng::new(1);
        let aps = place_aps(&map, 200.0, &mut rng);
        let g = ApGraph::build(&aps, 50.0);
        // Short route: two adjacent buildings.
        let src = aps
            .iter()
            .find(|a| a.building == 0)
            .expect("building 0 has an AP")
            .id;
        let out = flood(&g, src, 1, None);
        assert!(out.delivered);
        assert!(
            out.broadcasts as usize > g.len() / 2,
            "flood covers most of the component ({} of {})",
            out.broadcasts,
            g.len()
        );
    }
}
