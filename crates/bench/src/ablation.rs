//! Ablation sweeps over the design choices DESIGN.md §4 calls out:
//! weight exponent, conduit width, AP density, transmission range, and
//! route encoding.

use citymesh_core::{
    compress_route, plan_route, BuildingGraph, BuildingGraphParams, CityExperiment,
    ExperimentConfig, RebroadcastScope,
};
use citymesh_map::{CityArchetype, CityMap};
use citymesh_net::{CityMeshHeader, RouteEncoding};
use citymesh_simcore::{split_seed, SimRng};

/// One sweep point: the knob value plus the resulting metrics.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// The knob value (meaning depends on the sweep).
    pub knob: f64,
    /// Deliverability among simulated reachable pairs.
    pub deliverability: f64,
    /// Median overhead among delivered pairs.
    pub median_overhead: Option<f64>,
    /// Median compressed-route bits.
    pub median_route_bits: Option<usize>,
}

fn run_point(map: &CityMap, config: ExperimentConfig, knob: f64) -> SweepPoint {
    let result = CityExperiment::prepare(map.clone(), config).run();
    SweepPoint {
        knob,
        deliverability: result.deliverability,
        median_overhead: result.median_overhead,
        median_route_bits: result.median_route_bits,
    }
}

fn base_config(seed: u64, pairs: usize) -> ExperimentConfig {
    ExperimentConfig {
        seed,
        reachability_pairs: pairs * 5,
        delivery_pairs: pairs,
        ..ExperimentConfig::default()
    }
}

/// Sweep the building-graph weight exponent (paper: cubed).
pub fn sweep_weight_exponent(seed: u64, pairs: usize) -> Vec<SweepPoint> {
    let map = CityArchetype::Cambridge.generate(seed);
    [1.0, 2.0, 3.0, 4.0]
        .into_iter()
        .map(|exp| {
            let config = ExperimentConfig {
                weight_exponent: exp,
                ..base_config(seed, pairs)
            };
            run_point(&map, config, exp)
        })
        .collect()
}

/// Sweep the conduit width `W` (paper: 50 m ≈ Wi-Fi range).
pub fn sweep_conduit_width(seed: u64, pairs: usize) -> Vec<SweepPoint> {
    let map = CityArchetype::Cambridge.generate(seed);
    [25.0, 50.0, 75.0, 100.0]
        .into_iter()
        .map(|w| {
            let config = ExperimentConfig {
                conduit_width_m: w,
                ..base_config(seed, pairs)
            };
            run_point(&map, config, w)
        })
        .collect()
}

/// Sweep AP density (paper: 1 AP / 200 m²).
pub fn sweep_ap_density(seed: u64, pairs: usize) -> Vec<SweepPoint> {
    let map = CityArchetype::Cambridge.generate(seed);
    [100.0, 200.0, 400.0, 800.0]
        .into_iter()
        .map(|m2| {
            let config = ExperimentConfig {
                m2_per_ap: m2,
                ..base_config(seed, pairs)
            };
            run_point(&map, config, m2)
        })
        .collect()
}

/// Sweep the transmission range (paper: 50 m), keeping `W = range`.
pub fn sweep_range(seed: u64, pairs: usize) -> Vec<SweepPoint> {
    let map = CityArchetype::Cambridge.generate(seed);
    [30.0, 50.0, 80.0]
        .into_iter()
        .map(|range| {
            let config = ExperimentConfig {
                range_m: range,
                conduit_width_m: range,
                ..base_config(seed, pairs)
            };
            run_point(&map, config, range)
        })
        .collect()
}

/// One row of the rebroadcast-scope ablation.
#[derive(Clone, Debug)]
pub struct ScopeRow {
    /// The policy measured.
    pub scope: RebroadcastScope,
    /// Delivered fraction over the shared pair set.
    pub deliverability: f64,
    /// Total broadcasts summed over the shared pair set (comparable
    /// across scopes because the pairs are identical).
    pub total_broadcasts: u64,
}

/// Sweep per-frame reception loss: the conduit's broadcast redundancy
/// is what absorbs a lossy medium; this measures how much.
pub fn sweep_reception_loss(seed: u64, pairs: usize) -> Vec<SweepPoint> {
    let map = CityArchetype::Cambridge.generate(seed);
    [0.0, 0.1, 0.3, 0.5]
        .into_iter()
        .map(|loss| {
            let config = ExperimentConfig {
                reception_loss: loss,
                ..base_config(seed, pairs)
            };
            run_point(&map, config, loss)
        })
        .collect()
}

/// Rebroadcast-scope ablation: building-level (the paper's overhead
/// accounting) versus AP-position (its proposed reduction). Both
/// policies run over the *same* reachable pairs on the same placement,
/// so broadcast totals compare directly.
pub fn sweep_scope(seed: u64, pairs: usize) -> Vec<ScopeRow> {
    let map = CityArchetype::Cambridge.generate(seed);
    [RebroadcastScope::Building, RebroadcastScope::ApPosition]
        .into_iter()
        .map(|scope| {
            let config = ExperimentConfig {
                scope,
                ..base_config(seed, pairs)
            };
            let exp = CityExperiment::prepare(map.clone(), config);
            let mut pair_rng = SimRng::new(split_seed(seed, 0x5C09E));
            let mut sim_rng = SimRng::new(split_seed(seed, 0x5C09F));
            let sampled = exp.sample_pairs(pairs * 5, &mut pair_rng);
            let reachable: Vec<(u32, u32)> = sampled
                .into_iter()
                .filter(|(s, d)| exp.reachable(*s, *d))
                .take(pairs)
                .collect();
            let mut delivered = 0usize;
            let mut total_broadcasts = 0u64;
            for (i, (src, dst)) in reachable.iter().enumerate() {
                let o = exp.run_pair(*src, *dst, i as u64 + 1, &mut sim_rng);
                if o.delivered {
                    delivered += 1;
                }
                total_broadcasts += o.broadcasts;
            }
            ScopeRow {
                scope,
                deliverability: delivered as f64 / reachable.len().max(1) as f64,
                total_broadcasts,
            }
        })
        .collect()
}

/// Route-encoding comparison on real routes: absolute bit-packing
/// versus delta varbits, plus the uncompressed-route baseline
/// ("waypoint compression off").
#[derive(Clone, Debug)]
pub struct EncodingStats {
    /// Median bits for the absolute fixed-width encoding.
    pub absolute_median_bits: usize,
    /// Median bits for the delta varbit encoding.
    pub delta_median_bits: usize,
    /// Median bits for shipping the *full uncompressed* building route
    /// (absolute encoding, no waypoint compression).
    pub uncompressed_median_bits: usize,
    /// Routes measured.
    pub routes: usize,
}

/// Measures encoding sizes over random routes in one city.
pub fn encoding_comparison(seed: u64, routes: usize) -> EncodingStats {
    let map = CityArchetype::Cambridge.generate(seed);
    let bg = BuildingGraph::build(&map, BuildingGraphParams::default());
    let mut rng = SimRng::new(split_seed(seed, 0xE2C));
    let n = map.len() as u64;

    let mut absolute = Vec::new();
    let mut delta = Vec::new();
    let mut uncompressed = Vec::new();
    let mut guard = 0;
    while absolute.len() < routes && guard < routes * 30 {
        guard += 1;
        let src = rng.below(n) as u32;
        let dst = rng.below(n) as u32;
        if src == dst {
            continue;
        }
        let Ok(route) = plan_route(&bg, src, dst) else {
            continue;
        };
        if route.len() < 3 {
            continue;
        }
        let compressed = compress_route(&bg, &route, 50.0).expect("valid width and route");

        let header = CityMeshHeader::new(1, 50.0, compressed.waypoints.clone());
        absolute.push(header.route_bits());

        let mut d = header.clone();
        d.encoding = RouteEncoding::Delta;
        delta.push(d.route_bits());

        // "Compression off": ship every building on the route. Routes
        // longer than the header's 255-waypoint cap are truncated to
        // keep the measurement defined.
        let full: Vec<u32> = route.iter().copied().take(255).collect();
        let raw = CityMeshHeader::new(1, 50.0, full);
        uncompressed.push(raw.route_bits());
    }

    let med = |v: &mut Vec<usize>| -> usize {
        v.sort_unstable();
        if v.is_empty() {
            0
        } else {
            v[(v.len() - 1) / 2]
        }
    };
    EncodingStats {
        absolute_median_bits: med(&mut absolute),
        delta_median_bits: med(&mut delta),
        uncompressed_median_bits: med(&mut uncompressed),
        routes: absolute.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wider_conduits_do_not_reduce_deliverability() {
        let points = sweep_conduit_width(1, 8);
        assert_eq!(points.len(), 4);
        let narrow = points[0].deliverability;
        let wide = points[3].deliverability;
        assert!(
            wide >= narrow - 0.15,
            "wider conduits should not hurt delivery: {narrow} → {wide}"
        );
    }

    #[test]
    fn sparser_aps_reduce_deliverability() {
        let points = sweep_ap_density(2, 8);
        let dense = points[0].deliverability;
        let sparse = points[3].deliverability;
        assert!(
            dense >= sparse,
            "1/100 m² ({dense}) should beat 1/800 m² ({sparse})"
        );
    }

    #[test]
    fn ap_scope_cuts_broadcasts() {
        let rows = sweep_scope(3, 8);
        let building = rows
            .iter()
            .find(|r| r.scope == RebroadcastScope::Building)
            .unwrap();
        let position = rows
            .iter()
            .find(|r| r.scope == RebroadcastScope::ApPosition)
            .unwrap();
        // Same pairs, same placement: AP-position relays a subset of
        // what Building relays.
        assert!(
            position.total_broadcasts <= building.total_broadcasts,
            "AP-position scope must not relay more: {} vs {}",
            position.total_broadcasts,
            building.total_broadcasts
        );
        // The narrower relay set cannot deliver more.
        assert!(position.deliverability <= building.deliverability + 1e-9);
    }

    #[test]
    fn compression_beats_uncompressed() {
        let stats = encoding_comparison(4, 25);
        assert!(stats.routes >= 20);
        assert!(
            stats.absolute_median_bits < stats.uncompressed_median_bits,
            "waypoint compression must shrink the header: {} vs {}",
            stats.absolute_median_bits,
            stats.uncompressed_median_bits
        );
        assert!(stats.delta_median_bits > 0);
    }

    #[test]
    fn loss_sweep_degrades_monotonically_ish() {
        let points = sweep_reception_loss(7, 8);
        assert_eq!(points.len(), 4);
        let clean = points[0].deliverability;
        let harsh = points[3].deliverability;
        assert!(
            clean >= harsh,
            "0% loss ({clean}) must beat 50% loss ({harsh})"
        );
        // Moderate loss is largely absorbed by relay redundancy.
        assert!(
            points[1].deliverability >= clean - 0.3,
            "10% loss should be mostly absorbed: {} vs {}",
            points[1].deliverability,
            clean
        );
    }

    #[test]
    fn exponent_sweep_runs() {
        let points = sweep_weight_exponent(5, 6);
        assert_eq!(points.len(), 4);
        for p in &points {
            assert!((0.0..=1.0).contains(&p.deliverability));
        }
    }

    #[test]
    fn range_sweep_monotone_deliverability() {
        let points = sweep_range(6, 6);
        assert!(
            points[0].deliverability <= points[2].deliverability + 0.2,
            "80 m range should be at least roughly as good as 30 m"
        );
    }
}
