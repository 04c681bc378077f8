//! Greedy geographic forwarding (GPSR-style greedy mode).
//!
//! Each hop forwards to the neighbor geographically closest to the
//! destination; the packet fails at a *local minimum* — a node with no
//! neighbor closer than itself. The paper's critique (§5): recovering
//! from such dead ends needs perimeter/face machinery that degrades
//! with imprecise indoor positions and per-neighbor beaconing. We
//! implement greedy plus an explicit backtracking escape so the bench
//! can quantify both the failure rate of pure greedy and the path
//! stretch of the rescue.
//!
//! Positions come from the AP placement — i.e. this baseline gets
//! *perfect* location information and per-neighbor state for free,
//! a strictly generous comparison for it.

use citymesh_core::ApGraph;
use citymesh_geo::Point;

/// Dead-end handling policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GreedyPolicy {
    /// Fail at the first local minimum (pure greedy).
    Pure,
    /// Depth-first backtracking at local minima: mark the stuck node
    /// visited, step back, and try the next-best neighbor. Guarantees
    /// delivery within a connected component at the cost of long
    /// detours — a stand-in for perimeter-mode recovery.
    Backtrack,
}

/// Result of a greedy routing attempt.
#[derive(Clone, Debug, PartialEq)]
pub struct GreedyOutcome {
    /// Whether the packet reached an AP of the destination building.
    pub delivered: bool,
    /// Transmissions made (forwarding steps, including detours).
    pub transmissions: u64,
    /// The node where pure greedy got stuck, when it did.
    pub stuck_at: Option<u32>,
}

/// Routes greedily from `src_ap` toward the centroid-closest AP of
/// `dst_building`.
pub fn greedy_route(
    apg: &ApGraph,
    src_ap: u32,
    dst_building: u32,
    policy: GreedyPolicy,
) -> GreedyOutcome {
    assert!((src_ap as usize) < apg.len(), "source AP out of range");
    // Destination target point: nearest AP in the destination building
    // (geographic routing needs a coordinate for the destination; the
    // paper's GLS-style location services would provide it).
    let dst_aps = apg.aps_of_building(dst_building);
    let Some(&target_ap) = dst_aps.first() else {
        return GreedyOutcome {
            delivered: false,
            transmissions: 0,
            stuck_at: None,
        };
    };
    let target: Point = apg.position(target_ap);

    let arrived = |ap: u32| -> bool { apg.building_of(ap) == dst_building };

    if arrived(src_ap) {
        return GreedyOutcome {
            delivered: true,
            transmissions: 0,
            stuck_at: None,
        };
    }

    let mut visited = vec![false; apg.len()];
    visited[src_ap as usize] = true;
    let mut stack = vec![src_ap];
    let mut transmissions = 0u64;
    let mut first_stuck: Option<u32> = None;
    // Transmission budget: in the worst case backtracking touches every
    // edge twice; 4×N is a generous cap that still halts runaways.
    let budget = (apg.len() as u64) * 4 + 16;

    while let Some(&current) = stack.last() {
        if transmissions > budget {
            break;
        }
        // Choose the unvisited neighbor closest to the target, but
        // only if it improves on the current distance (greedy rule).
        let current_d = apg.position(current).dist(target);
        let mut best: Option<(u32, f64)> = None;
        for &next in apg.audience(current) {
            if visited[next as usize] {
                continue;
            }
            let d = apg.position(next).dist(target);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((next, d));
            }
        }
        match best {
            Some((next, d)) if d < current_d || policy == GreedyPolicy::Backtrack => {
                // Backtrack mode explores even non-improving neighbors,
                // which is what makes it complete.
                visited[next as usize] = true;
                transmissions += 1;
                if arrived(next) {
                    return GreedyOutcome {
                        delivered: true,
                        transmissions,
                        stuck_at: first_stuck,
                    };
                }
                if d >= current_d && first_stuck.is_none() {
                    first_stuck = Some(current);
                }
                stack.push(next);
            }
            _ => {
                // Local minimum (or exhausted neighbors).
                if first_stuck.is_none() {
                    first_stuck = Some(current);
                }
                if policy == GreedyPolicy::Pure {
                    return GreedyOutcome {
                        delivered: false,
                        transmissions,
                        stuck_at: first_stuck,
                    };
                }
                stack.pop();
                if !stack.is_empty() {
                    transmissions += 1; // stepping back is a real transmission
                }
            }
        }
    }

    GreedyOutcome {
        delivered: false,
        transmissions,
        stuck_at: first_stuck,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use citymesh_core::Ap;

    fn ap(id: u32, x: f64, y: f64, building: u32) -> Ap {
        Ap {
            id,
            pos: Point::new(x, y),
            building,
        }
    }

    /// A straight line: greedy trivially succeeds.
    fn line() -> ApGraph {
        let aps: Vec<Ap> = (0..6).map(|i| ap(i, i as f64 * 40.0, 0.0, i)).collect();
        ApGraph::build(&aps, 50.0)
    }

    /// A C-shaped void: the greedy path walks into the dead end.
    ///
    /// ```text
    ///   src → a → deadend        target is east of the dead end but
    ///        ↓                   only reachable around the south arm
    ///        b → c → target
    /// ```
    fn c_trap() -> ApGraph {
        let aps = vec![
            ap(0, 0.0, 40.0, 0),  // src
            ap(1, 40.0, 40.0, 1), // a — junction
            ap(2, 80.0, 60.0, 2), // dead end: looks closest, leads nowhere
            ap(3, 0.0, 0.0, 3),   // unused west spur
            ap(4, 40.0, 0.0, 4),  // the detour south of the void
            ap(5, 80.0, 0.0, 5),
            ap(6, 120.0, 0.0, 6),
            ap(7, 160.0, 20.0, 7), // target building, east of dead end
        ];
        ApGraph::build(&aps, 50.0)
    }

    #[test]
    fn line_delivery() {
        let g = line();
        let out = greedy_route(&g, 0, 5, GreedyPolicy::Pure);
        assert!(out.delivered);
        assert_eq!(out.transmissions, 5);
        assert_eq!(out.stuck_at, None);
    }

    #[test]
    fn same_building_needs_no_transmission() {
        let g = line();
        let out = greedy_route(&g, 3, 3, GreedyPolicy::Pure);
        assert!(out.delivered);
        assert_eq!(out.transmissions, 0);
    }

    #[test]
    fn pure_greedy_dies_in_the_trap() {
        let g = c_trap();
        let out = greedy_route(&g, 0, 7, GreedyPolicy::Pure);
        assert!(!out.delivered, "pure greedy must fail at the dead end");
        assert_eq!(out.stuck_at, Some(2), "stuck at the dead-end AP");
    }

    #[test]
    fn backtracking_escapes_the_trap() {
        let g = c_trap();
        let out = greedy_route(&g, 0, 7, GreedyPolicy::Backtrack);
        assert!(out.delivered);
        // Detour costs more than the ideal path (stretch).
        let ideal = g.ideal_hops_to_building(0, 7).unwrap();
        assert!(
            out.transmissions > ideal,
            "{} vs ideal {}",
            out.transmissions,
            ideal
        );
        assert!(out.stuck_at.is_some());
    }

    #[test]
    fn disconnected_fails_both_policies() {
        let aps = vec![ap(0, 0.0, 0.0, 0), ap(1, 500.0, 0.0, 1)];
        let g = ApGraph::build(&aps, 50.0);
        for policy in [GreedyPolicy::Pure, GreedyPolicy::Backtrack] {
            let out = greedy_route(&g, 0, 1, policy);
            assert!(!out.delivered, "{policy:?}");
        }
    }

    #[test]
    fn missing_destination_building() {
        let g = line();
        let out = greedy_route(&g, 0, 99, GreedyPolicy::Backtrack);
        assert!(!out.delivered);
        assert_eq!(out.transmissions, 0);
    }
}
