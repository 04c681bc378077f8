//! The ideal-unicast baseline.
//!
//! A hop-minimal path over the true AP graph, computed with global
//! knowledge no deployable protocol has. The paper uses its length as
//! the denominator of the transmission-overhead metric ("the absolute
//! best case as it does not account for link-layer retransmissions",
//! §4).

use std::collections::VecDeque;

use citymesh_core::ApGraph;

/// An ideal path and its cost.
#[derive(Clone, Debug, PartialEq)]
pub struct IdealPath {
    /// AP ids from source to the first-reached destination-building AP.
    pub path: Vec<u32>,
    /// Number of transmissions = hops = `path.len() - 1`.
    pub hops: u64,
}

/// Computes the hop-minimal path from `src_ap` to the nearest AP of
/// `dst_building`, or `None` when unreachable.
pub fn ideal_path(apg: &ApGraph, src_ap: u32, dst_building: u32) -> Option<IdealPath> {
    assert!((src_ap as usize) < apg.len(), "source AP out of range");
    // Breadth-first over the audience rows, so the first destination
    // AP dequeued is a nearest one.
    let mut parent = vec![u32::MAX; apg.len()];
    parent[src_ap as usize] = src_ap;
    let mut queue = VecDeque::from([src_ap]);
    while let Some(ap) = queue.pop_front() {
        if apg.building_of(ap) == dst_building {
            let (mut at, mut path) = (ap, vec![ap]);
            while at != src_ap {
                at = parent[at as usize];
                path.push(at);
            }
            path.reverse();
            let hops = (path.len() - 1) as u64;
            return Some(IdealPath { path, hops });
        }
        for &next in apg.audience(ap) {
            if parent[next as usize] == u32::MAX {
                parent[next as usize] = ap;
                queue.push_back(next);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use citymesh_core::Ap;
    use citymesh_geo::Point;

    fn ap(id: u32, x: f64, building: u32) -> Ap {
        Ap {
            id,
            pos: Point::new(x, 0.0),
            building,
        }
    }

    fn line() -> ApGraph {
        let aps: Vec<Ap> = (0..6).map(|i| ap(i, i as f64 * 40.0, i)).collect();
        ApGraph::build(&aps, 50.0)
    }

    #[test]
    fn straight_line_path() {
        let g = line();
        let p = ideal_path(&g, 0, 5).unwrap();
        assert_eq!(p.path, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(p.hops, 5);
    }

    #[test]
    fn same_building_zero_hops() {
        let g = line();
        let p = ideal_path(&g, 2, 2).unwrap();
        assert_eq!(p.hops, 0);
        assert_eq!(p.path, vec![2]);
    }

    #[test]
    fn picks_nearest_destination_ap() {
        // Destination building 9 has APs at both ends of the line.
        let aps = vec![
            ap(0, 0.0, 9),
            ap(1, 40.0, 1),
            ap(2, 80.0, 2),
            ap(3, 120.0, 9),
        ];
        let g = ApGraph::build(&aps, 50.0);
        let p = ideal_path(&g, 1, 9).unwrap();
        assert_eq!(p.hops, 1, "AP0 is one hop away; AP3 is two");
        assert_eq!(*p.path.last().unwrap(), 0);
    }

    #[test]
    fn unreachable_is_none() {
        let aps = vec![ap(0, 0.0, 0), ap(1, 500.0, 1)];
        let g = ApGraph::build(&aps, 50.0);
        assert!(ideal_path(&g, 0, 1).is_none());
        assert!(ideal_path(&g, 0, 42).is_none());
    }

    #[test]
    fn agrees_with_apgraph_helper() {
        let g = line();
        for dst in 0..6u32 {
            let hops = ideal_path(&g, 0, dst).map(|p| p.hops);
            assert_eq!(hops, g.ideal_hops_to_building(0, dst));
        }
    }
}
