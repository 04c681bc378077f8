//! Analytic control-overhead models for classic MANET protocols.
//!
//! The paper's scaling argument (§5) is qualitative: proactive
//! protocols ship routing tables that grow with N, reactive protocols
//! flood route requests, and either way control traffic crowds out
//! data at city scale — while CityMesh's control traffic is exactly
//! zero (all shared state is the offline map). These closed-form
//! models put numbers on that argument for the scaling bench. They are
//! first-order textbook models (per-interval message counts, not
//! byte-accurate protocol traces); the *shape* — linear / quadratic
//! growth versus a flat zero — is what the comparison needs.

/// A network scale point for the models.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ManetScale {
    /// Number of nodes.
    pub nodes: u64,
    /// Mean neighbor count (radio degree).
    pub mean_degree: f64,
    /// Network diameter in hops (flood depth).
    pub diameter: u64,
}

impl ManetScale {
    /// A scale estimate for a uniform disk deployment: N nodes, degree
    /// from density, diameter ≈ √N / √degree network hops.
    pub fn uniform(nodes: u64, mean_degree: f64) -> Self {
        assert!(mean_degree > 0.0, "degree must be positive");
        let diameter = ((nodes as f64).sqrt() / mean_degree.sqrt()).ceil().max(1.0) as u64 * 2;
        ManetScale {
            nodes,
            mean_degree,
            diameter,
        }
    }
}

/// DSDV-style proactive cost: every node periodically broadcasts its
/// full routing table (N entries) to its neighbors. Returns
/// **table-entry transmissions per update interval** across the whole
/// network: `N nodes × N entries` broadcast once each (each broadcast
/// reaches `degree` neighbors but is a single transmission).
///
/// Grows as **O(N²)** in entries shipped — the core reason the paper
/// rules proactive protocols out at "many millions of nodes".
pub fn dsdv_update_cost(scale: ManetScale) -> u64 {
    scale.nodes.saturating_mul(scale.nodes)
}

/// OLSR-style proactive cost with multipoint relays: topology control
/// messages are flooded only by the MPR subset (≈ `N / degree`
/// relays), each carrying the selector set. Per interval:
/// `N TC originators × (N / degree) relays`.
///
/// Better constants than DSDV, still **O(N²/degree)**.
pub fn olsr_update_cost(scale: ManetScale) -> u64 {
    let relays = (scale.nodes as f64 / scale.mean_degree).ceil() as u64;
    scale.nodes.saturating_mul(relays.max(1))
}

/// AODV-style reactive cost for **one** route discovery: the route
/// request is flooded through the network (every node rebroadcasts
/// once — N transmissions) and the reply unicasts back along ≤ diameter
/// hops.
///
/// Per discovery the cost is **O(N)**; a city where everyone opens a
/// conversation pays an `O(N)` flood *per flow*, which is the "burst of
/// control packets … quickly wasting the bandwidth" the paper
/// describes.
pub fn aodv_discovery_cost(scale: ManetScale) -> u64 {
    scale.nodes.saturating_add(scale.diameter)
}

/// CityMesh's control-plane cost at any scale, for symmetric tables:
/// no keepalives, no beacons, no tables, no discovery. (The map is
/// distributed offline, before the outage.)
pub fn citymesh_control_cost(_scale: ManetScale) -> u64 {
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_scale_construction() {
        let s = ManetScale::uniform(10_000, 25.0);
        assert_eq!(s.nodes, 10_000);
        assert!(s.diameter >= 2);
        // Diameter shrinks with density.
        let dense = ManetScale::uniform(10_000, 100.0);
        assert!(dense.diameter <= s.diameter);
    }

    #[test]
    fn dsdv_is_quadratic() {
        let small = dsdv_update_cost(ManetScale::uniform(1_000, 20.0));
        let large = dsdv_update_cost(ManetScale::uniform(10_000, 20.0));
        assert_eq!(small, 1_000_000);
        assert_eq!(large, 100_000_000);
        assert_eq!(large / small, 100, "10× nodes ⇒ 100× cost");
    }

    #[test]
    fn olsr_beats_dsdv_but_still_superlinear() {
        let s = ManetScale::uniform(10_000, 20.0);
        assert!(olsr_update_cost(s) < dsdv_update_cost(s));
        let s10 = ManetScale::uniform(100_000, 20.0);
        let ratio = olsr_update_cost(s10) as f64 / olsr_update_cost(s) as f64;
        assert!(
            ratio > 50.0,
            "OLSR should grow ~quadratically, grew {ratio}×"
        );
    }

    #[test]
    fn aodv_is_linear_per_discovery() {
        let small = aodv_discovery_cost(ManetScale::uniform(1_000, 20.0));
        let large = aodv_discovery_cost(ManetScale::uniform(100_000, 20.0));
        let ratio = large as f64 / small as f64;
        assert!(
            (80.0..120.0).contains(&ratio),
            "expected ~100×, got {ratio}×"
        );
    }

    #[test]
    fn citymesh_is_zero_at_every_scale() {
        for n in [100u64, 10_000, 1_000_000, 100_000_000] {
            assert_eq!(citymesh_control_cost(ManetScale::uniform(n, 25.0)), 0);
        }
    }

    #[test]
    fn no_overflow_at_extreme_scale() {
        let huge = ManetScale::uniform(u64::MAX / 2, 25.0);
        // Saturates instead of wrapping.
        assert_eq!(dsdv_update_cost(huge), u64::MAX);
    }
}
