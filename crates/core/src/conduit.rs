//! Route compression into conduits (paper §3 step 2, Figure 4).
//!
//! Instead of shipping the full building list, the sender keeps only
//! *waypoint* buildings. Between consecutive waypoints lies a conduit:
//! an oriented rectangle of width `W` whose spine joins the waypoint
//! centroids. The compression invariant is that **every building on
//! the original route falls inside some conduit**, so the rebroadcast
//! region always covers the planned path — and, because the region is
//! wider than the path, the scheme tolerates mispredicted
//! inter-building links (nearby off-route buildings also relay).

use citymesh_geo::{OrientedRect, Point, Segment};
use citymesh_map::CityMap;

use crate::buildgraph::BuildingGraph;

/// Route-compression input failures.
///
/// Both conditions used to be `panic!`s; they are data conditions in
/// any pipeline that accepts external configuration (a NaN width from
/// a config file must not crash a relay), so they now surface as
/// values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConduitError {
    /// The route to compress contained no buildings.
    EmptyRoute,
    /// The conduit width was NaN, zero, or negative.
    NonPositiveWidth(
        /// The offending width, meters.
        f64,
    ),
}

impl std::fmt::Display for ConduitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConduitError::EmptyRoute => write!(f, "cannot compress an empty route"),
            ConduitError::NonPositiveWidth(w) => {
                write!(f, "conduit width must be positive and finite, got {w}")
            }
        }
    }
}

impl std::error::Error for ConduitError {}

/// A compressed route: the waypoint buildings plus the conduit width
/// they were compressed against.
#[derive(Clone, Debug, PartialEq)]
pub struct CompressedRoute {
    /// Waypoint building IDs; first is the source's building, last the
    /// destination postbox building. Never empty.
    pub waypoints: Vec<u32>,
    /// Conduit width `W`, meters.
    pub width_m: f64,
}

impl CompressedRoute {
    /// Number of waypoints.
    pub fn len(&self) -> usize {
        self.waypoints.len()
    }

    /// Always false (a route has at least one waypoint).
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Compresses `route` (building IDs from [`crate::plan_route`]) into
/// waypoints using the paper's greedy cover algorithm:
///
/// > place the starting edge of the first conduit on the centroid of
/// > the first building in the route. We then find the latest building
/// > in the route at which we can place the ending edge of the conduit
/// > and cover all buildings in the route that precede it.
///
/// ```
/// use citymesh_core::{compress_route, plan_route, BuildingGraph, BuildingGraphParams};
/// use citymesh_map::CityArchetype;
///
/// let map = CityArchetype::SurveyDowntown.generate(1);
/// let bg = BuildingGraph::build(&map, BuildingGraphParams::default());
/// let route = plan_route(&bg, 0, 100).unwrap();
/// let compressed = compress_route(&bg, &route, 50.0).unwrap();
/// assert!(compressed.waypoints.len() <= route.len());
/// assert_eq!(compressed.waypoints[0], route[0]);
///
/// assert!(compress_route(&bg, &route, 0.0).is_err());
/// assert!(compress_route(&bg, &[], 50.0).is_err());
/// ```
///
/// # Errors
/// [`ConduitError::EmptyRoute`] on an empty route;
/// [`ConduitError::NonPositiveWidth`] when `width_m` is NaN, zero, or
/// negative.
pub fn compress_route(
    bg: &BuildingGraph,
    route: &[u32],
    width_m: f64,
) -> Result<CompressedRoute, ConduitError> {
    let mut waypoints = Vec::new();
    compress_route_into(bg, route, width_m, &mut waypoints)?;
    Ok(CompressedRoute { waypoints, width_m })
}

/// [`compress_route`] against a caller-owned waypoint buffer: clears
/// `out` and fills it with the waypoint ids, allocating only when the
/// buffer must grow. The steady-state planner reuses one buffer across
/// flows, so compression becomes allocation-free once warm.
///
/// # Errors
/// Same contract as [`compress_route`]; `out` is left cleared on error.
pub fn compress_route_into(
    bg: &BuildingGraph,
    route: &[u32],
    width_m: f64,
    out: &mut Vec<u32>,
) -> Result<(), ConduitError> {
    out.clear();
    if route.is_empty() {
        return Err(ConduitError::EmptyRoute);
    }
    // NaN fails `is_finite`, so this rejects NaN, ±inf, zero, and
    // negatives together.
    if width_m <= 0.0 || !width_m.is_finite() {
        return Err(ConduitError::NonPositiveWidth(width_m));
    }

    let waypoints = out;
    waypoints.push(route[0]);
    let mut start = 0usize; // index of the current waypoint within `route`

    while start + 1 < route.len() {
        let a = bg.centroid(route[start]);
        // Find the farthest j > start whose conduit covers all
        // intermediate buildings. Coverage is not monotone in j (a
        // farther endpoint can swing the spine back over a missed
        // building), so j is asked from the far end down and the first
        // that covers is the answer; the adjacent `start + 1`, with
        // nothing between, always covers.
        let mut best = start + 1;
        // The route index of the building that last broke coverage. A
        // spine that missed it usually still does, so while it lies
        // between it is asked first; `all` does not care in which order
        // the buildings between are asked, so the answer is the same.
        let mut witness = None;
        for j in (start + 2..route.len()).rev() {
            let spine = Segment::new(a, bg.centroid(route[j]));
            let conduit = OrientedRect::new(spine, width_m);
            let covers = |k: usize| conduit.contains(bg.centroid(route[k]));
            if witness.is_some_and(|k| k < j && !covers(k)) {
                continue;
            }
            match (start + 1..j).find(|&k| !covers(k)) {
                Some(k) => witness = Some(k),
                None => {
                    best = j;
                    break;
                }
            }
        }
        waypoints.push(route[best]);
        start = best;
    }

    Ok(())
}

/// Reconstructs the conduit rectangles for a waypoint list — the
/// operation every relaying AP performs from the packet header and its
/// cached map (paper §3 step 3).
///
/// A single-waypoint route yields one degenerate conduit (a disc of
/// radius `W/2` around the destination building's centroid).
pub fn reconstruct_conduits(map: &CityMap, waypoints: &[u32], width_m: f64) -> Vec<OrientedRect> {
    let mut out = Vec::new();
    reconstruct_conduits_into(map, waypoints, width_m, &mut out);
    out
}

/// [`reconstruct_conduits`] against a caller-owned buffer: clears `out`
/// and fills it with the conduit rectangles, allocating only when the
/// buffer must grow.
pub fn reconstruct_conduits_into(
    map: &CityMap,
    waypoints: &[u32],
    width_m: f64,
    out: &mut Vec<OrientedRect>,
) {
    out.clear();
    let centroid = |id: u32| -> Point {
        map.building(id)
            .unwrap_or_else(|| panic!("waypoint {id} not in map"))
            .centroid
    };
    if waypoints.len() == 1 {
        let c = centroid(waypoints[0]);
        out.push(OrientedRect::new(Segment::new(c, c), width_m));
        return;
    }
    out.extend(
        waypoints
            .windows(2)
            .map(|w| OrientedRect::new(Segment::new(centroid(w[0]), centroid(w[1])), width_m)),
    );
}

/// Whether `p` lies within any of `conduits` (the rebroadcast
/// predicate's geometric core).
pub fn within_conduits(conduits: &[OrientedRect], p: Point) -> bool {
    conduits.iter().any(|c| c.contains(p))
}

/// The buildings of a map whose centroid lies in one of a route's
/// conduits: [`within_conduits`] at every building's centroid, found
/// through the map's centroid index instead of a city scan. Under
/// [`RebroadcastScope::Building`](crate::RebroadcastScope) these
/// are the buildings whose APs relay while the TTL lasts, so a planner
/// computes the set once per route and the delivery kernel reads every
/// building's verdict from it.
///
/// Stored as the ascending ids' LEB128 deltas (the first from 0) —
/// about one byte a building, since nearby buildings have nearby ids.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CoveredSet {
    deltas: Vec<u8>,
}

impl CoveredSet {
    /// The buildings of `map` that `conduits` cover.
    pub fn of(map: &CityMap, conduits: &[OrientedRect]) -> Self {
        let mut set = CoveredSet::default();
        set.compute(map, conduits, &mut Vec::new());
        set
    }

    /// Recomputes the set in place for `conduits`. `marks` is a
    /// caller-owned bitset, all zero between calls; the set's own
    /// buffer grows at most once, to its exact final size, so a warm
    /// caller allocates nothing and a fresh set allocates once.
    pub(crate) fn compute(
        &mut self,
        map: &CityMap,
        conduits: &[OrientedRect],
        marks: &mut Vec<u64>,
    ) {
        let words = map.len().div_ceil(64);
        if marks.len() < words {
            marks.resize(words, 0);
        }
        let marks = &mut marks[..words];
        for c in conduits {
            map.centroid_index().for_each_in_conduit(
                c,
                |_| true,
                |id| marks[id as usize / 64] |= 1 << (id % 64),
            );
        }
        let mut len = 0;
        for_each_delta(marks, |delta| len += leb128_len(delta));
        self.deltas.clear();
        self.deltas.reserve_exact(len);
        for_each_delta(marks, |mut delta| {
            while delta >= 0x80 {
                self.deltas.push(delta as u8 | 0x80);
                delta >>= 7;
            }
            self.deltas.push(delta as u8);
        });
        marks.fill(0);
    }

    /// The covered building ids, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        let mut bytes = self.deltas.iter();
        let mut id = 0u32;
        std::iter::from_fn(move || {
            let (mut delta, mut shift) = (0u32, 0);
            loop {
                let &byte = bytes.next()?;
                delta |= u32::from(byte & 0x7F) << shift;
                if byte & 0x80 == 0 {
                    break;
                }
                shift += 7;
            }
            id += delta;
            Some(id)
        })
    }
}

/// Calls `f` with the gap from each set bit of `marks` to the one
/// before it (the first from bit 0), in ascending order.
fn for_each_delta(marks: &[u64], mut f: impl FnMut(u32)) {
    let mut prev = 0;
    for (i, &word) in marks.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let id = i as u32 * 64 + bits.trailing_zeros();
            f(id - prev);
            prev = id;
            bits &= bits - 1;
        }
    }
}

/// Bytes of `v`'s LEB128 encoding.
fn leb128_len(v: u32) -> usize {
    (32 - (v | 1).leading_zeros()).div_ceil(7) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buildgraph::{BuildingGraph, BuildingGraphParams};
    use citymesh_geo::{Polygon, Rect};
    use citymesh_map::CityMap;

    fn square_at(x: f64, y: f64, side: f64) -> Polygon {
        Polygon::rect(Rect::from_corners(
            Point::new(x, y),
            Point::new(x + side, y + side),
        ))
    }

    /// A straight row of buildings every 30 m plus helpers.
    fn straight_city(n: usize) -> (CityMap, BuildingGraph) {
        let footprints = (0..n)
            .map(|i| square_at(i as f64 * 30.0, 0.0, 10.0))
            .collect();
        let map = CityMap::new("straight", footprints, vec![]);
        let bg = BuildingGraph::build(
            &map,
            BuildingGraphParams {
                max_gap_m: 25.0,
                weight_exponent: 3.0,
            },
        );
        (map, bg)
    }

    #[test]
    fn straight_route_compresses_to_two_waypoints() {
        let (_, bg) = straight_city(12);
        let route: Vec<u32> = (0..12).collect();
        let c = compress_route(&bg, &route, 50.0).unwrap();
        assert_eq!(
            c.waypoints,
            vec![0, 11],
            "a collinear route needs only its endpoints"
        );
    }

    #[test]
    fn every_routed_building_is_covered() {
        // An L-shaped route cannot compress to two waypoints.
        let mut footprints: Vec<Polygon> = (0..6)
            .map(|i| square_at(i as f64 * 30.0, 0.0, 10.0))
            .collect();
        footprints.extend((1..6).map(|i| square_at(150.0, i as f64 * 30.0, 10.0)));
        let map = CityMap::new("l", footprints, vec![]);
        let bg = BuildingGraph::build(
            &map,
            BuildingGraphParams {
                max_gap_m: 25.0,
                weight_exponent: 3.0,
            },
        );
        let src = map.nearest_building(Point::new(0.0, 0.0)).unwrap().id;
        let dst = map.nearest_building(Point::new(150.0, 150.0)).unwrap().id;
        let route = crate::plan_route(&bg, src, dst).unwrap();
        let c = compress_route(&bg, &route, 40.0).unwrap();
        assert!(c.waypoints.len() >= 3, "an L needs a corner waypoint");
        assert!(c.waypoints.len() < route.len(), "compression must compress");

        let conduits = reconstruct_conduits(&map, &c.waypoints, c.width_m);
        for &b in &route {
            assert!(
                within_conduits(&conduits, bg.centroid(b)),
                "building {b} escaped the conduit cover"
            );
        }
    }

    #[test]
    fn narrower_width_needs_more_waypoints() {
        // A gently zig-zagging route.
        let footprints: Vec<Polygon> = (0..20)
            .map(|i| {
                let y = if i % 2 == 0 { 0.0 } else { 18.0 };
                square_at(i as f64 * 28.0, y, 10.0)
            })
            .collect();
        let map = CityMap::new("zigzag", footprints, vec![]);
        let bg = BuildingGraph::build(
            &map,
            BuildingGraphParams {
                max_gap_m: 30.0,
                weight_exponent: 3.0,
            },
        );
        let route = crate::plan_route(&bg, 0, (map.len() - 1) as u32).unwrap();
        let wide = compress_route(&bg, &route, 80.0).unwrap();
        let narrow = compress_route(&bg, &route, 22.0).unwrap();
        assert!(
            narrow.len() >= wide.len(),
            "narrow ({}) should need at least as many waypoints as wide ({})",
            narrow.len(),
            wide.len()
        );
    }

    #[test]
    fn endpoints_always_kept() {
        let (_, bg) = straight_city(5);
        for width in [10.0, 50.0, 100.0] {
            let c = compress_route(&bg, &[0, 1, 2, 3, 4], width).unwrap();
            assert_eq!(c.waypoints[0], 0);
            assert_eq!(*c.waypoints.last().unwrap(), 4);
        }
    }

    #[test]
    fn single_building_route() {
        let (map, bg) = straight_city(3);
        let c = compress_route(&bg, &[1], 50.0).unwrap();
        assert_eq!(c.waypoints, vec![1]);
        let conduits = reconstruct_conduits(&map, &c.waypoints, 50.0);
        assert_eq!(conduits.len(), 1);
        assert!(within_conduits(&conduits, bg.centroid(1)));
        // The disc covers W/2 around the building.
        assert!(within_conduits(
            &conduits,
            bg.centroid(1) + citymesh_geo::Vec2::new(24.0, 0.0)
        ));
        assert!(!within_conduits(
            &conduits,
            bg.centroid(1) + citymesh_geo::Vec2::new(26.0, 0.0)
        ));
    }

    #[test]
    fn covered_set_is_within_conduits_at_every_centroid() {
        let (map, bg) = straight_city(300);
        let route: Vec<u32> = (0..300).collect();
        // One long conduit, two discs far apart (a 299-id gap: a
        // two-byte delta), and nothing at all.
        for (waypoints, width) in [(vec![0, 299], 50.0), (vec![0], 10.0), (vec![299], 10.0)] {
            let conduits = reconstruct_conduits(&map, &waypoints, width);
            let want: Vec<u32> = route
                .iter()
                .copied()
                .filter(|&b| within_conduits(&conduits, bg.centroid(b)))
                .collect();
            assert_eq!(
                CoveredSet::of(&map, &conduits).iter().collect::<Vec<_>>(),
                want
            );
        }
        let far_apart = [
            reconstruct_conduits(&map, &[0], 10.0),
            reconstruct_conduits(&map, &[299], 10.0),
        ]
        .concat();
        let set = CoveredSet::of(&map, &far_apart);
        assert_eq!(set.iter().collect::<Vec<_>>(), [0, 299]);
        assert_eq!(set.deltas, [0, 0xAB, 0x02], "LEB128 of 0 and 299");
        assert_eq!(CoveredSet::of(&map, &[]).iter().count(), 0);
    }

    #[test]
    fn two_building_route() {
        let (map, bg) = straight_city(2);
        let c = compress_route(&bg, &[0, 1], 50.0).unwrap();
        assert_eq!(c.waypoints, vec![0, 1]);
        let conduits = reconstruct_conduits(&map, &c.waypoints, 50.0);
        assert_eq!(conduits.len(), 1);
    }

    #[test]
    fn conduits_connect_consecutive_waypoints() {
        let (map, bg) = straight_city(12);
        let c = compress_route(&bg, &(0..12).collect::<Vec<u32>>(), 50.0).unwrap();
        let conduits = reconstruct_conduits(&map, &c.waypoints, c.width_m);
        assert_eq!(conduits.len(), c.waypoints.len() - 1);
        for (i, conduit) in conduits.iter().enumerate() {
            assert_eq!(conduit.spine.a, bg.centroid(c.waypoints[i]));
            assert_eq!(conduit.spine.b, bg.centroid(c.waypoints[i + 1]));
            assert_eq!(conduit.width, 50.0);
        }
    }

    #[test]
    fn empty_route_is_an_error() {
        let (_, bg) = straight_city(2);
        assert_eq!(
            compress_route(&bg, &[], 50.0),
            Err(ConduitError::EmptyRoute)
        );
    }

    #[test]
    fn bad_widths_are_errors_not_panics() {
        let (_, bg) = straight_city(2);
        for w in [0.0, -3.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = compress_route(&bg, &[0, 1], w).unwrap_err();
            assert!(
                matches!(err, ConduitError::NonPositiveWidth(_)),
                "width {w} must be rejected, got {err}"
            );
        }
        // Errors render usefully for config diagnostics.
        let msg = compress_route(&bg, &[0, 1], -1.0).unwrap_err().to_string();
        assert!(msg.contains("-1"), "message should carry the value: {msg}");
    }
}
