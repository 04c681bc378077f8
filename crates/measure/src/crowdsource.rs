//! Crowdsourced survey simulation — the paper's footnote-1 argument.
//!
//! The paper collects its own data because "AP survey databases, like
//! wigle.net, are sporadically collected via crowdsourcing and thus
//! are non-uniform, and often lack precise locations." This module
//! makes that methodological claim testable: it simulates a
//! wigle-style crowd of contributors — short walks clustered around
//! personal hotspots, with sloppier positioning — and produces the
//! same [`Survey`] structure the systematic survey does, so the two
//! collection methods can be compared artifact for artifact.

use citymesh_geo::Point;
use citymesh_map::CityMap;
use citymesh_simcore::{split_seed, SimRng};

use crate::survey::{radio, Scan, Survey, SurveyConfig, MAX_HZ, MIN_HZ};

/// Crowdsourcing parameters layered on a base [`SurveyConfig`] (the
/// radio, cadence and BSSID density are the survey's own, so
/// differences come from *collection*, not physics).
#[derive(Clone, Copy, Debug)]
pub struct CrowdsourceConfig {
    /// Number of contributors; total scans are split among them.
    pub contributors: usize,
    /// Radius of each contributor's activity cluster, meters (their
    /// commute/neighborhood bubble).
    pub cluster_radius_m: f64,
    /// Reported-position noise σ, meters — crowdsourced locations are
    /// phone-positioning artifacts, far worse than a survey GPS.
    pub location_noise_m: f64,
}

impl Default for CrowdsourceConfig {
    fn default() -> Self {
        CrowdsourceConfig {
            contributors: 12,
            cluster_radius_m: 120.0,
            location_noise_m: 25.0,
        }
    }
}

/// Runs a crowdsourced collection over `map`: contributors random-walk
/// inside personal clusters centered at random hotspots, scanning at
/// the same cadence and radio as the systematic survey.
pub fn run_crowdsourced(map: &CityMap, base: &SurveyConfig, crowd: &CrowdsourceConfig) -> Survey {
    assert!(crowd.contributors > 0, "need at least one contributor");
    assert!(
        crowd.cluster_radius_m > 0.0,
        "cluster radius must be positive"
    );

    // Plant the same BSSID field the systematic survey would see by
    // delegating to it with zero scans... placement is coupled to the
    // survey run, so replicate the planting here with the same seed
    // stream to keep the field identical across collection methods.
    let reference = Survey::run(map, &SurveyConfig { scans: 1, ..*base });
    let bssids = reference.bssids.clone();
    let radio = radio();
    let index = citymesh_geo::GridIndex::build(&bssids, radio.max_range().max(1.0));

    let mut rng = SimRng::new(split_seed(base.seed, 0xC20D));
    let bounds = map.bounds();
    let max_range = radio.max_range();

    let scans_each = (base.scans / crowd.contributors).max(1);
    let mut scans: Vec<Scan> = Vec::with_capacity(scans_each * crowd.contributors);
    let mut t = 0.0;
    for _ in 0..crowd.contributors {
        // A personal hotspot somewhere in the city.
        let center = Point::new(
            rng.uniform_range(bounds.min.x, bounds.max.x),
            rng.uniform_range(bounds.min.y, bounds.max.y),
        );
        let mut pos = center;
        for _ in 0..scans_each {
            let hz = rng.uniform_range(MIN_HZ, MAX_HZ);
            t += 1.0 / hz;
            // Random walk with a pull back toward the hotspot.
            let step = base.mode.speed() / hz;
            let drift = (center - pos) * 0.1;
            let angle = rng.uniform_range(0.0, std::f64::consts::TAU);
            pos = pos + citymesh_geo::Vec2::from_angle(angle) * step + drift;
            // Clamp inside the cluster and the map.
            let off = pos - center;
            if off.norm() > crowd.cluster_radius_m {
                pos = center + off.normalized().expect("nonzero") * crowd.cluster_radius_m;
            }
            pos = Point::new(
                pos.x.clamp(bounds.min.x, bounds.max.x),
                pos.y.clamp(bounds.min.y, bounds.max.y),
            );

            let mut heard = Vec::new();
            index.for_each_in_circle(pos, max_range, |id, bpos| {
                if radio.link_exists(pos.dist(bpos), &mut rng) {
                    heard.push(id);
                }
            });
            heard.sort_unstable();
            let reported = Point::new(
                pos.x + crowd.location_noise_m * rng.std_normal(),
                pos.y + crowd.location_noise_m * rng.std_normal(),
            );
            scans.push(Scan {
                pos: reported,
                t_s: t,
                heard,
            });
        }
    }

    Survey {
        area: format!("{}-crowdsourced", map.name()),
        scans,
        bssids,
    }
}

/// Fraction of `cell_m`-sized map cells visited by at least one scan —
/// the uniformity metric behind "sporadically collected … non-uniform".
pub fn coverage_fraction(survey: &Survey, map: &CityMap, cell_m: f64) -> f64 {
    assert!(cell_m > 0.0, "cell size must be positive");
    let bounds = map.bounds();
    let nx = ((bounds.width() / cell_m).ceil() as usize).max(1);
    let ny = ((bounds.height() / cell_m).ceil() as usize).max(1);
    let mut visited = vec![false; nx * ny];
    for scan in &survey.scans {
        let cx = (((scan.pos.x - bounds.min.x) / cell_m) as isize).clamp(0, nx as isize - 1);
        let cy = (((scan.pos.y - bounds.min.y) / cell_m) as isize).clamp(0, ny as isize - 1);
        visited[cy as usize * nx + cx as usize] = true;
    }
    visited.iter().filter(|v| **v).count() as f64 / (nx * ny) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use citymesh_map::CityArchetype;

    fn setup() -> (CityMap, SurveyConfig) {
        let map = CityArchetype::SurveyDowntown.generate(21);
        let cfg = SurveyConfig {
            scans: 240,
            seed: 21,
            ..SurveyConfig::default()
        };
        (map, cfg)
    }

    #[test]
    fn crowdsourced_run_is_deterministic() {
        let (map, cfg) = setup();
        let crowd = CrowdsourceConfig::default();
        let a = run_crowdsourced(&map, &cfg, &crowd);
        let b = run_crowdsourced(&map, &cfg, &crowd);
        assert_eq!(a.num_scans(), b.num_scans());
        assert_eq!(a.unique_aps(), b.unique_aps());
    }

    #[test]
    fn crowdsourcing_is_less_uniform_than_a_systematic_survey() {
        // The paper's claim: same scan budget, same radio — but
        // clustered contributors cover far less of the city. Uses a
        // paper-scale scan budget (the boustrophedon needs enough path
        // length to sweep every row of the area).
        let (map, mut cfg) = setup();
        cfg.scans = 1500;
        let systematic = Survey::run(&map, &cfg);
        let crowd = run_crowdsourced(&map, &cfg, &CrowdsourceConfig::default());
        let sys_cov = coverage_fraction(&systematic, &map, 100.0);
        let crowd_cov = coverage_fraction(&crowd, &map, 100.0);
        assert!(
            sys_cov > 1.5 * crowd_cov,
            "systematic {sys_cov:.2} should dwarf crowdsourced {crowd_cov:.2}"
        );
        // And discovers fewer unique APs for the same effort.
        assert!(
            systematic.unique_aps() > crowd.unique_aps(),
            "systematic {} vs crowdsourced {}",
            systematic.unique_aps(),
            crowd.unique_aps()
        );
    }

    #[test]
    fn location_noise_inflates_spread_estimates() {
        // "often lack precise locations": per-BSSID spread estimates
        // grow with reported-position noise even though the radio
        // field is identical.
        let (map, cfg) = setup();
        let tight = run_crowdsourced(
            &map,
            &cfg,
            &CrowdsourceConfig {
                location_noise_m: 1.0,
                ..CrowdsourceConfig::default()
            },
        );
        let sloppy = run_crowdsourced(
            &map,
            &cfg,
            &CrowdsourceConfig {
                location_noise_m: 60.0,
                ..CrowdsourceConfig::default()
            },
        );
        let m_tight = tight.spread_cdf().quantile(0.75).unwrap();
        let m_sloppy = sloppy.spread_cdf().quantile(0.75).unwrap();
        assert!(
            m_sloppy > m_tight,
            "noisier positions must inflate spreads: {m_tight} vs {m_sloppy}"
        );
    }

    #[test]
    fn scans_stay_inside_the_map() {
        let (map, cfg) = setup();
        let crowd = run_crowdsourced(&map, &cfg, &CrowdsourceConfig::default());
        // True positions are clamped; reported ones may stray by the
        // noise, so allow that much slack.
        let bounds = map.bounds().inflated(5.0 * 25.0);
        for s in &crowd.scans {
            assert!(bounds.contains(s.pos), "scan at {:?} escaped", s.pos);
        }
    }

    #[test]
    fn coverage_fraction_bounds() {
        let (map, cfg) = setup();
        let s = Survey::run(&map, &cfg);
        let f = coverage_fraction(&s, &map, 100.0);
        assert!(f > 0.0 && f <= 1.0);
        // One-cell grid is trivially covered.
        assert_eq!(coverage_fraction(&s, &map, 1e6), 1.0);
    }
}
