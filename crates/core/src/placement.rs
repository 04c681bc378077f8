//! AP placement inside building footprints (paper §4).
//!
//! "Randomly places APs in a 2D plane, inside building footprints at a
//! configurable AP density." Each building receives
//! `area / m2_per_ap` APs in expectation (fractional remainders are
//! resolved by a Bernoulli draw, and every building gets at least one
//! AP — a building with zero APs could never host a postbox).

use citymesh_geo::Point;
use citymesh_map::CityMap;
use citymesh_simcore::SimRng;

/// A placed access point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ap {
    /// AP index (position in the placement vector).
    pub id: u32,
    /// Location, meters.
    pub pos: Point,
    /// The building containing this AP.
    pub building: u32,
}

/// Places APs in every building of `map` at the given density
/// (`m2_per_ap` square meters of footprint per AP; the paper's default
/// is 200).
///
/// Positions are uniform within each footprint via rejection sampling
/// in the bounding box. Deterministic in `(map, m2_per_ap, rng state)`.
///
/// # Panics
/// Panics on a non-positive density.
pub fn place_aps(map: &CityMap, m2_per_ap: f64, rng: &mut SimRng) -> Vec<Ap> {
    assert!(m2_per_ap > 0.0, "m2_per_ap must be positive");
    let mut aps = Vec::new();
    for b in map.buildings() {
        let expected = b.area / m2_per_ap;
        let mut n = expected.floor() as usize;
        if rng.chance(expected - expected.floor()) {
            n += 1;
        }
        n = n.max(1);
        let bbox = b.footprint.bbox();
        for _ in 0..n {
            // Rejection sampling: footprints are convex-ish lot
            // rectangles, so acceptance is high; cap attempts and fall
            // back to the centroid for pathological shapes.
            let mut pos = b.centroid;
            for _ in 0..64 {
                let candidate = Point::new(
                    rng.uniform_range(bbox.min.x, bbox.max.x),
                    rng.uniform_range(bbox.min.y, bbox.max.y),
                );
                if b.footprint.contains(candidate) {
                    pos = candidate;
                    break;
                }
            }
            aps.push(Ap {
                id: aps.len() as u32,
                pos,
                building: b.id,
            });
        }
    }
    aps
}

/// Selects one AP per building to act as the postbox AP: the one
/// closest to the footprint centroid, matching the intuition that a
/// postbox should be the building's most "central" AP.
///
/// This is the whole-placement scan, O(APs) per call; a prepared
/// [`crate::CityExperiment`] reads the same answer for every building
/// out of the AP graph's building→AP buckets instead.
pub fn postbox_ap(aps: &[Ap], map: &CityMap, building: u32) -> Option<u32> {
    let b = map.building(building)?;
    most_central(aps.iter().filter(|ap| ap.building == building), b.centroid)
}

/// The candidate closest to `centroid` — the first such on an exact
/// tie, so candidates in ascending id order elect the lowest id.
pub(crate) fn most_central<'a>(
    candidates: impl Iterator<Item = &'a Ap>,
    centroid: Point,
) -> Option<u32> {
    candidates
        .min_by(|x, y| {
            let dx = x.pos.dist2(centroid);
            let dy = y.pos.dist2(centroid);
            dx.partial_cmp(&dy).expect("finite distances")
        })
        .map(|ap| ap.id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use citymesh_geo::{Polygon, Rect};
    use citymesh_map::CityArchetype;

    fn big_square_map(side: f64) -> CityMap {
        CityMap::new(
            "one",
            vec![Polygon::rect(Rect::from_corners(
                Point::new(0.0, 0.0),
                Point::new(side, side),
            ))],
            vec![],
        )
    }

    #[test]
    fn density_controls_expected_count() {
        let map = big_square_map(200.0); // 40 000 m²
        let mut rng = SimRng::new(5);
        let aps = place_aps(&map, 200.0, &mut rng);
        // Expectation 200 APs; Bernoulli slack is tiny here.
        assert_eq!(aps.len(), 200);
        let mut rng = SimRng::new(5);
        let sparse = place_aps(&map, 800.0, &mut rng);
        assert_eq!(sparse.len(), 50);
    }

    #[test]
    fn all_aps_inside_their_footprint() {
        let map = CityArchetype::SurveyDowntown.generate(3);
        let mut rng = SimRng::new(9);
        let aps = place_aps(&map, 200.0, &mut rng);
        assert!(!aps.is_empty());
        for ap in &aps {
            let b = map.building(ap.building).unwrap();
            assert!(
                b.footprint.contains(ap.pos),
                "AP {} at {:?} escaped building {}",
                ap.id,
                ap.pos,
                ap.building
            );
            assert_eq!(aps[ap.id as usize].id, ap.id, "ids must index the vector");
        }
    }

    #[test]
    fn every_building_gets_at_least_one_ap() {
        let map = CityArchetype::SurveyResidential.generate(4);
        let mut rng = SimRng::new(4);
        // Density so sparse that expectation per building is < 1.
        let aps = place_aps(&map, 1e6, &mut rng);
        let mut seen = vec![false; map.len()];
        for ap in &aps {
            seen[ap.building as usize] = true;
        }
        assert!(seen.iter().all(|s| *s));
        assert_eq!(aps.len(), map.len());
    }

    #[test]
    fn placement_is_deterministic_per_seed() {
        let map = CityArchetype::SurveyDowntown.generate(3);
        let a = place_aps(&map, 200.0, &mut SimRng::new(7));
        let b = place_aps(&map, 200.0, &mut SimRng::new(7));
        assert_eq!(a, b);
        let c = place_aps(&map, 200.0, &mut SimRng::new(8));
        assert_ne!(a, c);
    }

    #[test]
    fn positions_spread_through_the_footprint() {
        let map = big_square_map(100.0);
        let aps = place_aps(&map, 100.0, &mut SimRng::new(11));
        // Mean position ≈ centroid for uniform placement.
        let n = aps.len() as f64;
        let mx: f64 = aps.iter().map(|a| a.pos.x).sum::<f64>() / n;
        let my: f64 = aps.iter().map(|a| a.pos.y).sum::<f64>() / n;
        assert!((mx - 50.0).abs() < 10.0, "mean x {mx}");
        assert!((my - 50.0).abs() < 10.0, "mean y {my}");
    }

    #[test]
    fn postbox_ap_is_most_central() {
        let map = big_square_map(100.0);
        let aps = place_aps(&map, 500.0, &mut SimRng::new(2));
        let pb = postbox_ap(&aps, &map, 0).unwrap();
        let centroid = map.building(0).unwrap().centroid;
        let pb_dist = aps[pb as usize].pos.dist(centroid);
        for ap in &aps {
            assert!(ap.pos.dist(centroid) >= pb_dist - 1e-9);
        }
        assert!(postbox_ap(&aps, &map, 99).is_none());
    }

    #[test]
    #[should_panic(expected = "m2_per_ap")]
    fn zero_density_panics() {
        let map = big_square_map(10.0);
        place_aps(&map, 0.0, &mut SimRng::new(1));
    }
}
