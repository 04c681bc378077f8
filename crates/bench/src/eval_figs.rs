//! §4 evaluation reproductions: Figure 6 and the header statistics.

use citymesh_core::{
    compress_route, plan_route, BuildingGraph, BuildingGraphParams, CityExperiment, CityResult,
    ExperimentConfig,
};
use citymesh_fleet::run_pool;
use citymesh_map::{synth, CityArchetype, CityParams};
use citymesh_net::CityMeshHeader;
use citymesh_simcore::{split_seed, SimRng};

/// Figure-6 data: one [`CityResult`] per city archetype.
#[derive(Clone, Debug)]
pub struct Fig6 {
    /// Per-city results, in [`CityArchetype::cities`] order.
    pub cities: Vec<CityResult>,
}

/// The §4 aggregate header statistics across all cities.
#[derive(Clone, Debug, PartialEq)]
pub struct HeaderStats {
    /// Median compressed-route size, bits (paper: 175).
    pub median_bits: usize,
    /// 90th-percentile size, bits (paper: 225).
    pub p90_bits: usize,
    /// Median waypoint count behind those sizes.
    pub median_waypoints: usize,
    /// Number of routes in the sample.
    pub routes: usize,
}

/// The experiment configuration used for the headline figures, scaled
/// by `(reachability_pairs, delivery_pairs)`.
pub fn paper_config(
    seed: u64,
    reachability_pairs: usize,
    delivery_pairs: usize,
) -> ExperimentConfig {
    ExperimentConfig {
        seed,
        reachability_pairs,
        delivery_pairs,
        ..ExperimentConfig::default()
    }
}

/// Runs Figure 6 across the eight city archetypes, one [`run_pool`]
/// worker per city (each city run is independent and deterministic in
/// the seed, so parallelism cannot change any number). With
/// `reachability_pairs = 1000, delivery_pairs = 50` this is the
/// paper's exact protocol; tests pass smaller numbers.
pub fn run_fig6(seed: u64, reachability_pairs: usize, delivery_pairs: usize) -> Fig6 {
    let config = paper_config(seed, reachability_pairs, delivery_pairs);
    let cities = run_pool(CityArchetype::cities(), |arch| {
        CityExperiment::prepare(arch.generate(seed), config).run()
    });
    Fig6 { cities }
}

impl Fig6 {
    /// Pools every successful route across cities and computes the §4
    /// header statistics.
    pub fn header_stats(&self) -> Option<HeaderStats> {
        let mut bits: Vec<usize> = Vec::new();
        let mut waypoints: Vec<usize> = Vec::new();
        for city in &self.cities {
            for o in &city.outcomes {
                if o.route_found {
                    bits.push(o.route_bits);
                    waypoints.push(o.waypoints);
                }
            }
        }
        if bits.is_empty() {
            return None;
        }
        bits.sort_unstable();
        waypoints.sort_unstable();
        let q = |v: &[usize], f: f64| v[((v.len() - 1) as f64 * f).round() as usize];
        Some(HeaderStats {
            median_bits: q(&bits, 0.5),
            p90_bits: q(&bits, 0.9),
            median_waypoints: q(&waypoints, 0.5),
            routes: bits.len(),
        })
    }

    /// Median transmission overhead pooled across cities (paper: ~13×).
    pub fn pooled_median_overhead(&self) -> Option<f64> {
        let mut all: Vec<f64> = self
            .cities
            .iter()
            .flat_map(|c| c.outcomes.iter().filter_map(|o| o.overhead))
            .collect();
        if all.is_empty() {
            return None;
        }
        all.sort_by(|a, b| a.partial_cmp(b).expect("finite overheads"));
        Some(all[(all.len() - 1) / 2])
    }
}

/// The §4 header claim at the paper's true city scale.
///
/// Our Figure-6 archetypes span 1.5 km and hold ~1–2k buildings, which
/// yields 11-bit IDs and ~85-bit medians. The paper's cities hold tens
/// of thousands of buildings over several kilometers: this experiment
/// generates a metropolitan-scale map (~20k+ buildings, 15-bit IDs)
/// and measures the same statistic, where the absolute-encoding cost
/// formula lands on the paper's numbers (median 175 / 90%ile 225).
pub fn header_stats_at_scale(seed: u64, routes: usize) -> HeaderStats {
    let params = CityParams {
        name: "metropolis".into(),
        width_m: 3600.0,
        height_m: 3600.0,
        ..CityArchetype::NewYork.params()
    };
    let map = synth::generate(&params, seed);
    let bg = BuildingGraph::build(&map, BuildingGraphParams::default());
    let mut rng = SimRng::new(split_seed(seed, 0x1A26E));
    let n = map.len() as u64;

    let mut bits = Vec::new();
    let mut waypoints = Vec::new();
    let mut guard = 0;
    while bits.len() < routes && guard < routes * 20 {
        guard += 1;
        let src = rng.below(n) as u32;
        let dst = rng.below(n) as u32;
        if src == dst {
            continue;
        }
        let Ok(route) = plan_route(&bg, src, dst) else {
            continue;
        };
        let compressed = compress_route(&bg, &route, 50.0).expect("valid width and route");
        let header = CityMeshHeader::new(1, 50.0, compressed.waypoints.clone());
        bits.push(header.route_bits());
        waypoints.push(compressed.len());
    }
    bits.sort_unstable();
    waypoints.sort_unstable();
    let q = |v: &[usize], f: f64| {
        if v.is_empty() {
            0
        } else {
            v[((v.len() - 1) as f64 * f).round() as usize]
        }
    };
    HeaderStats {
        median_bits: q(&bits, 0.5),
        p90_bits: q(&bits, 0.9),
        median_waypoints: q(&waypoints, 0.5),
        routes: bits.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_fig6() -> Fig6 {
        run_fig6(3, 150, 8)
    }

    #[test]
    fn eight_cities_with_sane_metrics() {
        let f = small_fig6();
        assert_eq!(f.cities.len(), 8);
        for c in &f.cities {
            assert!(c.buildings > 300, "{}: {} buildings", c.city, c.buildings);
            assert!(
                c.aps > c.buildings,
                "{}: APs should outnumber buildings",
                c.city
            );
            assert!(
                (0.0..=1.0).contains(&c.reachability),
                "{} reachability {}",
                c.city,
                c.reachability
            );
            assert!((0.0..=1.0).contains(&c.deliverability));
        }
    }

    #[test]
    fn most_cities_have_high_deliverability() {
        // Paper: "most cities surveyed having high deliverability".
        let f = small_fig6();
        let high = f.cities.iter().filter(|c| c.deliverability >= 0.75).count();
        assert!(high >= 5, "only {high}/8 cities had deliverability ≥ 75%");
    }

    #[test]
    fn dc_fractures_more_than_chicago() {
        // Paper: obstacles "fracture some cities, like Washington
        // D.C., into multiple islands".
        let f = small_fig6();
        let by_name = |n: &str| f.cities.iter().find(|c| c.city == n).unwrap();
        let dc = by_name("washington-dc");
        let chicago = by_name("chicago");
        assert!(dc.components > chicago.components);
        assert!(dc.reachability < chicago.reachability);
    }

    #[test]
    fn header_stats_in_paper_ballpark() {
        let f = small_fig6();
        let h = f.header_stats().expect("routes were found");
        assert!(h.routes > 20);
        // Paper: 175 / 225 bits. Same order of magnitude required
        // (absolute values depend on city size via id width).
        assert!(
            (40..=400).contains(&h.median_bits),
            "median bits {}",
            h.median_bits
        );
        assert!(h.p90_bits >= h.median_bits);
        assert!(h.median_waypoints >= 2);
    }

    #[test]
    fn metropolitan_header_stats_match_paper() {
        // At the paper's city scale the absolute numbers, not just the
        // shape, should land near 175/225 bits.
        let h = header_stats_at_scale(3, 15);
        assert!(h.routes >= 10);
        assert!(
            (110..=260).contains(&h.median_bits),
            "metropolitan median bits {} too far from the paper's 175",
            h.median_bits
        );
        assert!(h.p90_bits >= h.median_bits);
    }

    #[test]
    fn pooled_overhead_in_paper_ballpark() {
        let f = small_fig6();
        let overhead = f.pooled_median_overhead().expect("some deliveries");
        // Paper: 13×. Anything in the high-single-digit to tens band
        // preserves the claim's shape.
        assert!(
            (2.0..40.0).contains(&overhead),
            "pooled overhead {overhead}"
        );
    }
}
