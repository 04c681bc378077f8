//! §2 measurement-study reproductions: Table 1, Figures 1a, 1b, 2.

use citymesh_map::CityArchetype;
use citymesh_measure::{Cdf, DistanceBin, Survey, SurveyConfig, TravelMode};

/// One Table-1 row.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Area label (downtown / campus / residential / river).
    pub area: String,
    /// Number of scans ("# Measurements").
    pub measurements: usize,
    /// Distinct BSSIDs observed ("# Unique APs").
    pub unique_aps: usize,
}

/// A completed survey of all four areas plus the derived figures.
#[derive(Clone, Debug)]
pub struct SurveyFigures {
    /// Per-area surveys in paper order.
    pub surveys: Vec<Survey>,
}

/// Scan counts per area, scaled to the paper's ratios (downtown 2691,
/// campus 726, residential 461, river 550) by `scale` (1.0 = paper
/// size; tests use a smaller scale).
pub fn scan_counts(scale: f64) -> [(CityArchetype, usize, TravelMode); 4] {
    let n = |paper: usize| ((paper as f64 * scale).round() as usize).max(20);
    [
        (CityArchetype::SurveyDowntown, n(2691), TravelMode::Walk),
        (CityArchetype::SurveyCampus, n(726), TravelMode::Walk),
        (
            CityArchetype::SurveyResidential,
            n(461),
            TravelMode::Bicycle,
        ),
        (CityArchetype::SurveyRiver, n(550), TravelMode::Bicycle),
    ]
}

/// Runs the four-area survey.
pub fn run_surveys(seed: u64, scale: f64) -> SurveyFigures {
    let surveys = scan_counts(scale)
        .into_iter()
        .map(|(arch, scans, mode)| {
            let map = arch.generate(seed);
            let cfg = SurveyConfig { scans, mode, seed };
            Survey::run(&map, &cfg)
        })
        .collect();
    SurveyFigures { surveys }
}

impl SurveyFigures {
    /// Table 1: per-area measurement and unique-AP counts, plus the
    /// "all" total row the paper includes.
    pub fn table1(&self) -> Vec<Table1Row> {
        let mut rows: Vec<Table1Row> = self
            .surveys
            .iter()
            .map(|s| Table1Row {
                area: s.area.clone(),
                measurements: s.num_scans(),
                unique_aps: s.unique_aps(),
            })
            .collect();
        rows.push(Table1Row {
            area: "all".into(),
            measurements: rows.iter().map(|r| r.measurements).sum(),
            unique_aps: rows.iter().map(|r| r.unique_aps).sum(),
        });
        rows
    }

    /// Figure 1a: per-area CDFs of BSSIDs per scan.
    pub fn fig1a(&self) -> Vec<(String, Cdf)> {
        self.surveys
            .iter()
            .map(|s| (s.area.clone(), s.macs_per_scan_cdf()))
            .collect()
    }

    /// Figure 1b: per-area CDFs of per-BSSID sighting spread.
    pub fn fig1b(&self) -> Vec<(String, Cdf)> {
        self.surveys
            .iter()
            .map(|s| (s.area.clone(), s.spread_cdf()))
            .collect()
    }

    /// Figure 2: co-observed APs vs pair distance, 50 m bins to 400 m,
    /// per area.
    pub fn fig2(&self, max_pairs: usize) -> Vec<(String, Vec<DistanceBin>)> {
        let edges: Vec<f64> = (0..=8).map(|i| i as f64 * 50.0).collect();
        self.surveys
            .iter()
            .map(|s| (s.area.clone(), s.common_aps_by_distance(&edges, max_pairs)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SurveyFigures {
        run_surveys(1, 0.08) // ~215 downtown scans: fast but meaningful
    }

    #[test]
    fn table1_shape_matches_paper() {
        let figs = small();
        let rows = figs.table1();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].area, "downtown");
        assert_eq!(rows[4].area, "all");
        // Paper orderings: downtown has the most measurements and the
        // most unique APs; campus has the fewest unique APs.
        let by_area = |name: &str| rows.iter().find(|r| r.area == name).unwrap();
        assert!(by_area("downtown").unique_aps > by_area("river").unique_aps);
        assert!(by_area("downtown").unique_aps > by_area("campus").unique_aps);
        assert_eq!(
            rows[4].measurements,
            rows[..4].iter().map(|r| r.measurements).sum::<usize>()
        );
    }

    #[test]
    fn fig1a_medians_ordered_like_paper() {
        let figs = small();
        let medians: std::collections::HashMap<String, f64> = figs
            .fig1a()
            .into_iter()
            .map(|(area, cdf)| (area, cdf.median().unwrap()))
            .collect();
        // Paper: downtown median 218 (best), river 60 (worst).
        assert!(medians["downtown"] > medians["river"]);
        assert!(medians["river"] > 1.0, "even the river hears some APs");
    }

    #[test]
    fn fig1b_spreads_in_paper_band() {
        let figs = small();
        for (area, cdf) in figs.fig1b() {
            // At this reduced scan count many BSSIDs are sighted once
            // (spread 0), so check an upper quantile: multi-sighting
            // APs must show transmission-diameter-scale spreads
            // (paper medians: 54–168 m across areas).
            let p75 = cdf.quantile(0.75).unwrap();
            assert!(
                (10.0..400.0).contains(&p75),
                "{area} spread p75 {p75} outside the plausible band"
            );
        }
    }

    #[test]
    fn fig2_bins_decay() {
        let figs = small();
        for (area, bins) in figs.fig2(5_000) {
            assert_eq!(bins.len(), 8);
            let near = bins[0].p50;
            let far = bins[7].p50;
            assert!(
                near >= far,
                "{area}: common APs should not grow with distance ({near} vs {far})"
            );
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let a = small().table1();
        let b = small().table1();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.unique_aps, y.unique_aps);
            assert_eq!(x.measurements, y.measurements);
        }
    }
}
