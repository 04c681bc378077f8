//! The simulated wardriving survey.

use citymesh_geo::Point;
use citymesh_map::CityMap;
use citymesh_simcore::radio::LogDistance;
use citymesh_simcore::{split_seed, SimRng};

use crate::stats::{bin_by_distance, Cdf, DistanceBin};

/// How the surveyor moves (paper §2: "walking or bicycling").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TravelMode {
    /// ≈ 1.4 m/s.
    Walk,
    /// ≈ 4.0 m/s.
    Bicycle,
}

impl TravelMode {
    /// Travel speed, m/s.
    pub fn speed(self) -> f64 {
        match self {
            TravelMode::Walk => 1.4,
            TravelMode::Bicycle => 4.0,
        }
    }
}

/// Slowest scan cadence, Hz. Each scan interval is drawn uniformly
/// from the paper's 0.2–0.4 Hz band.
pub(crate) const MIN_HZ: f64 = 0.2;
/// Fastest scan cadence, Hz.
pub(crate) const MAX_HZ: f64 = 0.4;
/// Square meters of footprint per advertised BSSID. Wardriving counts
/// BSSIDs, and one physical AP advertises several, so this sits well
/// below the routing density (≈ 10 BSSIDs per 200 m² physical AP).
const M2_PER_BSSID: f64 = 20.0;
/// GPS error (σ of a 2-D normal), meters.
const GPS_SIGMA_M: f64 = 4.0;

/// The radio model for beacon reception: median decode range 50 m with
/// a steep urban exponent (3.5) and 5 dB of shadowing. The paper's
/// observed per-BSSID spreads (54–168 m, i.e. transmission radii
/// 27–84 m) pin the decode range well below free-space; the high
/// per-scan MAC counts are then explained by density, not range.
pub(crate) fn radio() -> LogDistance {
    LogDistance::with_median_range(50.0, 3.5, 5.0)
}

/// Survey parameters. The scan cadence, BSSID density, GPS error and
/// radio model are the paper's §2 setup, fixed for every survey.
#[derive(Clone, Copy, Debug)]
pub struct SurveyConfig {
    /// Movement mode.
    pub mode: TravelMode,
    /// Number of scans to record.
    pub scans: usize,
    /// Random seed.
    pub seed: u64,
}

impl Default for SurveyConfig {
    fn default() -> Self {
        SurveyConfig {
            mode: TravelMode::Walk,
            scans: 500,
            seed: 0,
        }
    }
}

/// One scan: where the surveyor stood and which BSSIDs they heard.
#[derive(Clone, Debug)]
pub struct Scan {
    /// Reported (GPS-noised) position.
    pub pos: Point,
    /// Time since survey start, seconds.
    pub t_s: f64,
    /// Indices (into the survey's BSSID table) heard in this scan.
    pub heard: Vec<u32>,
}

/// A completed survey of one area.
#[derive(Clone, Debug)]
pub struct Survey {
    /// Area name (from the map).
    pub area: String,
    /// All scans in time order.
    pub scans: Vec<Scan>,
    /// True BSSID positions (not visible to the analysis, which only
    /// uses sighting locations — but kept for validation).
    pub bssids: Vec<Point>,
}

impl Survey {
    /// Runs the survey over `map`: plants BSSID radios inside
    /// footprints, drives a boustrophedon trajectory across the area,
    /// and records beacon receptions per scan.
    ///
    /// ```
    /// use citymesh_map::CityArchetype;
    /// use citymesh_measure::{Survey, SurveyConfig};
    ///
    /// let map = CityArchetype::SurveyDowntown.generate(1);
    /// let cfg = SurveyConfig { scans: 50, seed: 1, ..SurveyConfig::default() };
    /// let survey = Survey::run(&map, &cfg);
    /// assert_eq!(survey.num_scans(), 50);
    /// assert!(survey.unique_aps() > 100, "downtown is BSSID-dense");
    /// ```
    pub fn run(map: &CityMap, cfg: &SurveyConfig) -> Survey {
        assert!(cfg.scans > 0, "a survey needs at least one scan");
        let radio = radio();
        let mut place_rng = SimRng::new(split_seed(cfg.seed, 0xB551D));
        let mut radio_rng = SimRng::new(split_seed(cfg.seed, 0x3AD10));
        let mut gps_rng = SimRng::new(split_seed(cfg.seed, 0x6E5));

        // Plant BSSIDs uniformly inside footprints.
        let mut bssids = Vec::new();
        for b in map.buildings() {
            let expected = b.area / M2_PER_BSSID;
            let mut n = expected.floor() as usize;
            if place_rng.chance(expected - expected.floor()) {
                n += 1;
            }
            let bbox = b.footprint.bbox();
            for _ in 0..n.max(1) {
                let mut pos = b.centroid;
                for _ in 0..64 {
                    let cand = Point::new(
                        place_rng.uniform_range(bbox.min.x, bbox.max.x),
                        place_rng.uniform_range(bbox.min.y, bbox.max.y),
                    );
                    if b.footprint.contains(cand) {
                        pos = cand;
                        break;
                    }
                }
                bssids.push(pos);
            }
        }
        let index = citymesh_geo::GridIndex::build(&bssids, radio.max_range().max(1.0));

        // Boustrophedon trajectory over the map bounds: rows spaced so
        // the requested number of scans roughly covers the area once.
        let bounds = map.bounds();
        let speed = cfg.mode.speed();
        let mean_period = 2.0 / (MIN_HZ + MAX_HZ);
        let total_path = cfg.scans as f64 * speed * mean_period;
        let rows = ((total_path / bounds.width().max(1.0)).ceil() as usize).clamp(1, 200);
        let row_spacing = bounds.height() / rows as f64;

        let pos_at = |s: f64| -> Point {
            // Arc-length position along the lawnmower path.
            let row_len = bounds.width();
            let row = ((s / row_len) as usize).min(rows - 1);
            let along = s - row as f64 * row_len;
            let x = if row.is_multiple_of(2) {
                bounds.min.x + along
            } else {
                bounds.max.x - along
            };
            let y = bounds.min.y + (row as f64 + 0.5) * row_spacing;
            Point::new(x.clamp(bounds.min.x, bounds.max.x), y)
        };

        let mut scans = Vec::with_capacity(cfg.scans);
        let mut t = 0.0;
        let mut dist = 0.0;
        let max_range = radio.max_range();
        for _ in 0..cfg.scans {
            let hz = radio_rng.uniform_range(MIN_HZ, MAX_HZ);
            t += 1.0 / hz;
            dist += speed / hz;
            // Wrap around if the path is exhausted (re-walk the area).
            let path_len = rows as f64 * bounds.width();
            let true_pos = pos_at(dist % path_len.max(1.0));
            let mut heard = Vec::new();
            index.for_each_in_circle(true_pos, max_range, |id, bpos| {
                if radio.link_exists(true_pos.dist(bpos), &mut radio_rng) {
                    heard.push(id);
                }
            });
            heard.sort_unstable();
            let gps = Point::new(
                true_pos.x + GPS_SIGMA_M * gps_rng.std_normal(),
                true_pos.y + GPS_SIGMA_M * gps_rng.std_normal(),
            );
            scans.push(Scan {
                pos: gps,
                t_s: t,
                heard,
            });
        }

        Survey {
            area: map.name().to_string(),
            scans,
            bssids,
        }
    }

    /// Number of scans (Table 1 "# Measurements").
    pub fn num_scans(&self) -> usize {
        self.scans.len()
    }

    /// Number of distinct BSSIDs ever heard (Table 1 "# Unique APs").
    pub fn unique_aps(&self) -> usize {
        let mut seen = std::collections::HashSet::new();
        for s in &self.scans {
            seen.extend(s.heard.iter().copied());
        }
        seen.len()
    }

    /// Figure 1a: the CDF of BSSIDs heard per scan.
    pub fn macs_per_scan_cdf(&self) -> Cdf {
        Cdf::new(self.scans.iter().map(|s| s.heard.len() as f64).collect())
    }

    /// Figure 1b: the CDF of per-BSSID sighting spread (max pairwise
    /// distance among the scan positions where it was heard). BSSIDs
    /// sighted once have spread 0, as in the paper's definition.
    pub fn spread_cdf(&self) -> Cdf {
        let mut sightings: std::collections::HashMap<u32, Vec<Point>> =
            std::collections::HashMap::new();
        for s in &self.scans {
            for id in &s.heard {
                sightings.entry(*id).or_default().push(s.pos);
            }
        }
        let spreads = sightings
            .values()
            .map(|pts| {
                let mut max = 0.0f64;
                for i in 0..pts.len() {
                    for j in i + 1..pts.len() {
                        max = max.max(pts[i].dist(pts[j]));
                    }
                }
                max
            })
            .collect();
        Cdf::new(spreads)
    }

    /// Figure 2: for every scan pair, the distance between them and
    /// the number of co-observed BSSIDs, binned by distance with
    /// whisker percentiles. `max_pairs` caps the quadratic pair count
    /// by deterministic subsampling of scans.
    pub fn common_aps_by_distance(&self, edges: &[f64], max_pairs: usize) -> Vec<DistanceBin> {
        // Subsample scans so pairs ≲ max_pairs.
        let n = self.scans.len();
        let need = ((2.0 * max_pairs as f64).sqrt().ceil() as usize).max(2);
        let step = (n / need.min(n)).max(1);
        let sample: Vec<&Scan> = self.scans.iter().step_by(step).collect();

        let sets: Vec<std::collections::HashSet<u32>> = sample
            .iter()
            .map(|s| s.heard.iter().copied().collect())
            .collect();
        let mut pairs = Vec::new();
        for i in 0..sample.len() {
            for j in i + 1..sample.len() {
                let d = sample[i].pos.dist(sample[j].pos);
                let common = sets[i].intersection(&sets[j]).count();
                pairs.push((d, common as f64));
            }
        }
        bin_by_distance(&pairs, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use citymesh_map::CityArchetype;

    fn quick_cfg(seed: u64) -> SurveyConfig {
        SurveyConfig {
            scans: 150,
            seed,
            ..SurveyConfig::default()
        }
    }

    fn downtown_survey(seed: u64) -> Survey {
        let map = CityArchetype::SurveyDowntown.generate(seed);
        Survey::run(&map, &quick_cfg(seed))
    }

    #[test]
    fn survey_is_deterministic() {
        let a = downtown_survey(1);
        let b = downtown_survey(1);
        assert_eq!(a.num_scans(), b.num_scans());
        assert_eq!(a.unique_aps(), b.unique_aps());
        for (x, y) in a.scans.iter().zip(&b.scans) {
            assert_eq!(x.heard, y.heard);
            assert_eq!(x.pos, y.pos);
        }
    }

    #[test]
    fn scan_cadence_matches_config() {
        let s = downtown_survey(2);
        assert_eq!(s.num_scans(), 150);
        // Inter-scan periods must lie in [1/0.4, 1/0.2] = [2.5, 5] s.
        let mut last = 0.0;
        for scan in &s.scans {
            let dt = scan.t_s - last;
            assert!((2.5..=5.0).contains(&dt), "period {dt}");
            last = scan.t_s;
        }
    }

    #[test]
    fn downtown_hears_many_aps_per_scan() {
        let s = downtown_survey(3);
        let cdf = s.macs_per_scan_cdf();
        let median = cdf.median().unwrap();
        assert!(
            median > 30.0,
            "downtown median BSSIDs per scan should be large, got {median}"
        );
        assert!(s.unique_aps() > 500, "unique APs {}", s.unique_aps());
    }

    #[test]
    fn density_ordering_downtown_vs_river() {
        // Paper Figure 1a: downtown median 218, river median 60 —
        // downtown well above river.
        let downtown = downtown_survey(4).macs_per_scan_cdf().median().unwrap();
        let river_map = CityArchetype::SurveyRiver.generate(4);
        let river = Survey::run(&river_map, &quick_cfg(4))
            .macs_per_scan_cdf()
            .median()
            .unwrap();
        assert!(
            downtown > 1.5 * river,
            "downtown ({downtown}) should dominate river ({river})"
        );
    }

    #[test]
    fn spreads_are_plausible_transmission_diameters() {
        let s = downtown_survey(5);
        let cdf = s.spread_cdf();
        let median = cdf.median().unwrap();
        // Paper medians: 54–168 m across areas. Anything in tens to a
        // couple hundred meters is the right physics.
        assert!(
            (20.0..300.0).contains(&median),
            "median spread {median} m out of plausible range"
        );
    }

    #[test]
    fn common_aps_decay_with_distance() {
        let s = downtown_survey(6);
        let edges: Vec<f64> = (0..=6).map(|i| i as f64 * 50.0).collect();
        let bins = s.common_aps_by_distance(&edges, 20_000);
        assert_eq!(bins.len(), 6);
        let near = bins[0].p50;
        let far = bins[5].p50;
        assert!(
            near > far,
            "common APs at <50 m ({near}) should exceed those at >250 m ({far})"
        );
        // Paper: "a significant number of common APs beyond 100 m".
        assert!(bins[2].max > 0.0, "some pairs beyond 100 m share APs");
    }

    #[test]
    fn bicycle_covers_more_ground_per_scan() {
        let map = CityArchetype::SurveyResidential.generate(7);
        let walk = Survey::run(&map, &quick_cfg(7));
        let bike = Survey::run(
            &map,
            &SurveyConfig {
                mode: TravelMode::Bicycle,
                ..quick_cfg(7)
            },
        );
        let path_len =
            |s: &Survey| -> f64 { s.scans.windows(2).map(|w| w[0].pos.dist(w[1].pos)).sum() };
        assert!(path_len(&bike) > 1.5 * path_len(&walk));
    }

    #[test]
    fn all_heard_ids_are_valid() {
        let s = downtown_survey(8);
        for scan in &s.scans {
            for id in &scan.heard {
                assert!((*id as usize) < s.bssids.len());
            }
            // heard lists are sorted and deduplicated
            assert!(scan.heard.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
