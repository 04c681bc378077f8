//! The building graph: predicted inter-building connectivity.
//!
//! Built from footprints alone — no information from the network
//! (paper §3 step 2). Two buildings get an edge when the gap between
//! their footprints is small enough that APs inside them are likely to
//! hear each other; edges are weighted by the **cubed** centroid
//! distance so route planning strongly prefers short hops, the ones
//! most likely to have real AP coverage.

use std::sync::Arc;

use citymesh_geo::{Point, Rect, EPS};
use citymesh_graph::{
    dijkstra_tree_with, label_components, landmark_candidates, CsrGraph, FarthestPoint,
    PlannerScratch, INFINITY,
};
use citymesh_map::CityMap;

use crate::rows::LazyRows;

/// Number of ALT landmarks embedded in every building graph (fewer on
/// maps with fewer eligible buildings). Eight is the classic sweet
/// spot: the per-relaxation heuristic cost is eight loads and compares,
/// while the corridor A* explores shrinks by an order of magnitude.
const NUM_LANDMARKS: usize = 8;

/// Parameters for building-graph construction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BuildingGraphParams {
    /// Maximum footprint-to-footprint gap, meters, for a predicted
    /// link. The default is `0.8 ×` the transmission range: APs sit
    /// inside buildings, not on facing walls, so the usable range
    /// across a street is discounted.
    pub max_gap_m: f64,
    /// Exponent applied to the centroid distance for edge weights.
    /// The paper uses 3 (cubed); 1 and 2 are ablation settings.
    pub weight_exponent: f64,
}

impl BuildingGraphParams {
    /// The paper's defaults for a given transmission range.
    pub fn for_range(range_m: f64) -> Self {
        BuildingGraphParams {
            max_gap_m: 0.8 * range_m,
            weight_exponent: 3.0,
        }
    }
}

impl Default for BuildingGraphParams {
    fn default() -> Self {
        Self::for_range(crate::DEFAULT_RANGE_M)
    }
}

/// The predicted-connectivity graph over a city's buildings.
///
/// Wraps a [`CsrGraph`] with the map-derived context route planning
/// needs (centroids for heuristics and conduit geometry). Construction
/// collects the links into one flat edge list and builds the CSR rows
/// from it directly: no per-building `Vec` is ever allocated.
#[derive(Clone, Debug)]
pub struct BuildingGraph {
    graph: CsrGraph,
    centroids: Vec<Point>,
    params: BuildingGraphParams,
    /// ALT landmark distances, vertex-major: `lm_dist[v * lm_count + k]`
    /// is the shortest-path cost from landmark `k` to building `v`
    /// (infinite across predicted islands).
    lm_dist: Vec<f64>,
    /// Number of landmarks actually embedded (≤ [`NUM_LANDMARKS`]).
    lm_count: usize,
    /// Per-source shortest-path rows — `row(s)[v]` is the building
    /// before `v` on the canonical cheapest route `s → v` — filled as
    /// sources earn them and shared by every clone; `None` on a map too
    /// large to table. The graph never changes after `build` (no world
    /// event touches predicted connectivity), so a row, once written, is
    /// right for as long as the graph lives. [`crate::route`] is the
    /// only reader: it decides what a row must be to go in here and
    /// what a query does with it.
    route_rows: Option<Arc<LazyRows>>,
}

impl BuildingGraph {
    /// Builds the graph for `map`.
    ///
    /// Candidate pairs come from a spatial query (centroids within
    /// `max_gap + 2 × max building radius`); a pair whose bounding boxes
    /// are already further apart than `max_gap` is dropped, and the
    /// exact footprint gap decides the rest. O(B · k) where k is the
    /// candidate count per building.
    pub fn build(map: &CityMap, params: BuildingGraphParams) -> Self {
        assert!(params.max_gap_m >= 0.0, "max_gap_m must be non-negative");
        assert!(
            params.weight_exponent > 0.0,
            "weight_exponent must be positive"
        );
        let n = map.len();
        let mut links = Vec::new();
        let centroids: Vec<Point> = map.buildings().iter().map(|b| b.centroid).collect();

        // Conservative query radius: centroid distance can exceed the
        // footprint gap by both buildings' "radius" (bbox half-diagonal).
        let bboxes: Vec<Rect> = map.buildings().iter().map(|b| b.footprint.bbox()).collect();
        let max_radius = bboxes
            .iter()
            .map(|bb| bb.width().hypot(bb.height()) / 2.0)
            .fold(0.0, f64::max);
        let query_r = params.max_gap_m + 2.0 * max_radius;

        for b in map.buildings() {
            for other_id in map.buildings_within(b.centroid, query_r) {
                // Each unordered pair once.
                if other_id <= b.id {
                    continue;
                }
                // The largest footprint in the map sets `query_r`, so
                // most candidates of an ordinary building are far off.
                // Two footprints are never closer than their boxes, so
                // this drops no pair the exact test would link (`EPS`
                // covers the two computations rounding differently).
                if bbox_gap(&bboxes[b.id as usize], &bboxes[other_id as usize])
                    > params.max_gap_m + EPS
                {
                    continue;
                }
                let other = map.building(other_id).expect("index yields valid ids");
                let gap = b.footprint.dist_to_polygon(&other.footprint);
                if gap <= params.max_gap_m {
                    let d = b.centroid.dist(other.centroid).max(1.0);
                    links.push((b.id, other_id, d.powf(params.weight_exponent)));
                }
            }
        }

        let graph = CsrGraph::from_edges(n, &links);
        let (lm_dist, lm_count) = build_landmarks(&graph);
        BuildingGraph {
            graph,
            centroids,
            params,
            lm_dist,
            lm_count,
            route_rows: LazyRows::new(n, n),
        }
    }

    /// An admissible lower bound on the cheapest route cost between
    /// `v` and `dst`, used as the A* heuristic by
    /// [`crate::route::plan_route`].
    ///
    /// The bound is the max of two estimates:
    ///
    /// * **ALT landmarks** — `|d(k, dst) − d(k, v)|` for each embedded
    ///   landmark `k`, by the triangle inequality over the *actual*
    ///   weight metric. This is the sharp one on cubed-distance graphs,
    ///   where straight-line distance wildly under-estimates cost.
    /// * **Euclidean** — the straight-line centroid distance, valid
    ///   only for weight exponents ≥ 1 (each edge then costs at least
    ///   its length `max(d, 1)^e ≥ d`); skipped otherwise.
    ///
    /// Both bounds only shrink when vertices are removed, so the same
    /// heuristic stays admissible for detour planning around blocked
    /// buildings.
    pub fn cost_lower_bound(&self, v: u32, dst: u32) -> f64 {
        let mut h = if self.params.weight_exponent >= 1.0 {
            self.centroids[v as usize].dist(self.centroids[dst as usize])
        } else {
            0.0
        };
        if self.lm_count > 0 {
            let (a, b) = (self.landmark_costs(v), self.landmark_costs(dst));
            for (dv, dt) in a.iter().zip(b) {
                // `inf − inf` is NaN (landmark sees neither endpoint);
                // `NaN > h` is false, so such landmarks contribute
                // nothing. A finite/infinite mix means the endpoints
                // sit on different islands, and `h = inf` is exact.
                let d = (dv - dt).abs();
                if d > h {
                    h = d;
                }
            }
        }
        h
    }

    /// The ALT landmark distances of building `v`: entry `k` is the
    /// cheapest route cost from landmark `k` to `v`, infinite across
    /// predicted islands. Empty on a map with no eligible landmark.
    #[inline]
    pub fn landmark_costs(&self, v: u32) -> &[f64] {
        let k = self.lm_count;
        &self.lm_dist[v as usize * k..(v as usize + 1) * k]
    }

    /// The underlying weighted graph, in CSR form.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// The per-source shortest-path rows, on a map small enough to
    /// have them. Read by [`crate::route`] and nothing else: one route
    /// source per query.
    pub(crate) fn route_rows(&self) -> Option<&LazyRows> {
        self.route_rows.as_deref()
    }

    /// Shortest-path rows written so far (each `2 × len()` bytes), over
    /// every clone of this graph.
    pub fn route_rows_built(&self) -> usize {
        self.route_rows.as_ref().map_or(0, |rows| rows.built())
    }

    /// Heap bytes held by the graph, centroids, landmark tables and the
    /// shortest-path rows written so far — the metro sweep's memory
    /// accounting.
    pub fn memory_bytes(&self) -> usize {
        self.graph.memory_bytes()
            + self.centroids.capacity() * std::mem::size_of::<Point>()
            + self.lm_dist.capacity() * std::mem::size_of::<f64>()
            + self.route_rows.as_ref().map_or(0, |r| r.memory_bytes())
    }

    /// Construction parameters.
    pub fn params(&self) -> BuildingGraphParams {
        self.params
    }

    /// Centroid of building `id`.
    pub fn centroid(&self, id: u32) -> Point {
        self.centroids[id as usize]
    }

    /// Number of buildings (vertices).
    pub fn len(&self) -> usize {
        self.centroids.len()
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.centroids.is_empty()
    }

    /// Number of predicted links.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// `(component labels, component count)` over predicted links —
    /// how the *map* expects the city to fragment.
    pub fn components(&self) -> (Vec<u32>, usize) {
        components(&self.graph)
    }
}

/// `(component labels, component count)` of `graph`.
fn components(graph: &CsrGraph) -> (Vec<u32>, usize) {
    let mut labels = Vec::new();
    let rows = |u: u32| graph.neighbors(u).iter().map(|e| e.to);
    let count = label_components(graph.num_vertices(), |_| true, rows, &mut labels);
    (labels, count)
}

/// Distance between two axis-aligned boxes (zero when they overlap): a
/// lower bound on the distance between anything inside them.
fn bbox_gap(a: &Rect, b: &Rect) -> f64 {
    let dx = (a.min.x - b.max.x).max(b.min.x - a.max.x).max(0.0);
    let dy = (a.min.y - b.max.y).max(b.min.y - a.max.y).max(0.0);
    dx.hypot(dy)
}

/// Selects up to [`NUM_LANDMARKS`] landmarks by [`FarthestPoint`]
/// sampling over the weight metric (the first candidate seeds, first
/// maximum wins) and returns their full distance arrays flattened
/// vertex-major, `(lm_dist, lm_count)`. Each array is one
/// [`dijkstra_tree_with`] run from the landmark, the planner's own
/// tree kernel.
///
/// Candidates are the [`landmark_candidates`]: predicted islands
/// holding at least a `1 / NUM_LANDMARKS` share of the buildings. A
/// handful of stray buildings would otherwise draw most of the
/// landmarks (seven of eight on the 4×4 metro). Their rows read
/// infinite everywhere, which [`BuildingGraph::cost_lower_bound`]
/// already treats as "this landmark says nothing".
fn build_landmarks(graph: &CsrGraph) -> (Vec<f64>, usize) {
    let n = graph.num_vertices();
    let (components, count) = components(graph);
    let candidates = landmark_candidates(&components, count, NUM_LANDMARKS);
    let k = NUM_LANDMARKS.min(candidates.len());
    let mut flat = vec![0.0; n * k];
    let mut sampler = FarthestPoint::new(candidates.len());
    let (mut scratch, mut dist) = (PlannerScratch::new(), vec![INFINITY; n]);
    for ki in 0..k {
        dist.fill(INFINITY);
        let source = candidates[sampler.pick()];
        dijkstra_tree_with(
            graph,
            source,
            |_| true,
            &mut scratch,
            |v, _, d| dist[v as usize] = d,
        );
        for (v, d) in dist.iter().enumerate() {
            flat[v * k + ki] = *d;
        }
        sampler.observe(|c| dist[candidates[c] as usize]);
    }
    (flat, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use citymesh_geo::{Polygon, Rect};
    use citymesh_map::CityMap;

    fn square_at(x: f64, y: f64, side: f64) -> Polygon {
        Polygon::rect(Rect::from_corners(
            Point::new(x, y),
            Point::new(x + side, y + side),
        ))
    }

    /// Three buildings in a row, 20 m gaps, plus one isolated 500 m away.
    fn row_map() -> CityMap {
        CityMap::new(
            "row",
            vec![
                square_at(0.0, 0.0, 10.0),
                square_at(30.0, 0.0, 10.0),
                square_at(60.0, 0.0, 10.0),
                square_at(500.0, 0.0, 10.0),
            ],
            vec![],
        )
    }

    #[test]
    fn links_neighbors_within_gap() {
        let map = row_map();
        let bg = BuildingGraph::build(
            &map,
            BuildingGraphParams {
                max_gap_m: 25.0,
                weight_exponent: 3.0,
            },
        );
        assert_eq!(bg.len(), 4);
        // Adjacent pairs (gap 20) link; skip-one pairs (gap 50) do not.
        assert!(bg.graph().has_edge(0, 1));
        assert!(bg.graph().has_edge(1, 2));
        assert!(!bg.graph().has_edge(0, 2));
        assert_eq!(bg.graph().degree(3), 0, "distant building stays isolated");
        let (_, count) = bg.components();
        assert_eq!(count, 2);
    }

    #[test]
    fn weights_are_cubed_centroid_distance() {
        let map = row_map();
        let bg = BuildingGraph::build(
            &map,
            BuildingGraphParams {
                max_gap_m: 25.0,
                weight_exponent: 3.0,
            },
        );
        let e = bg
            .graph()
            .neighbors(0)
            .iter()
            .find(|e| e.to == 1)
            .expect("edge 0-1");
        // Centroid distance 30 m → weight 27000.
        assert!((e.weight - 27_000.0).abs() < 1e-6);
    }

    #[test]
    fn weight_exponent_ablation() {
        let map = row_map();
        let linear = BuildingGraph::build(
            &map,
            BuildingGraphParams {
                max_gap_m: 25.0,
                weight_exponent: 1.0,
            },
        );
        let e = linear
            .graph()
            .neighbors(0)
            .iter()
            .find(|e| e.to == 1)
            .unwrap();
        assert!((e.weight - 30.0).abs() < 1e-6);
    }

    #[test]
    fn zero_gap_touching_buildings_link() {
        let map = CityMap::new(
            "touching",
            vec![square_at(0.0, 0.0, 10.0), square_at(10.0, 0.0, 10.0)],
            vec![],
        );
        let bg = BuildingGraph::build(
            &map,
            BuildingGraphParams {
                max_gap_m: 0.0,
                weight_exponent: 3.0,
            },
        );
        assert!(bg.graph().has_edge(0, 1));
        // Weight floor: centroid distance clamps at 1 m so zero-weight
        // edges cannot make Dijkstra prefer arbitrarily long chains.
        let e = bg.graph().neighbors(0)[0];
        assert!(e.weight >= 1.0);
    }

    #[test]
    fn synthetic_city_is_mostly_connected() {
        let map = citymesh_map::CityArchetype::SurveyDowntown.generate(1);
        let bg = BuildingGraph::build(&map, BuildingGraphParams::default());
        assert!(
            bg.num_edges() > map.len(),
            "downtown should be densely linked"
        );
        let (labels, _) = bg.components();
        let mut sizes = std::collections::HashMap::new();
        for l in &labels {
            *sizes.entry(*l).or_insert(0usize) += 1;
        }
        let largest = sizes.values().copied().max().unwrap();
        assert!(
            largest as f64 / map.len() as f64 > 0.95,
            "downtown largest component covers {largest}/{}",
            map.len()
        );
    }

    #[test]
    fn bounding_box_filter_drops_no_link_and_reorders_none() {
        // The candidate loop without the filter: every candidate goes
        // to the exact footprint test.
        let map = citymesh_map::generate_metro(&citymesh_map::MetroParams::with_tiles(1, 1), 2024);
        let params = BuildingGraphParams::default();
        let bboxes: Vec<Rect> = map.buildings().iter().map(|b| b.footprint.bbox()).collect();
        let radius = |bb: &Rect| bb.width().hypot(bb.height()) / 2.0;
        let query_r = params.max_gap_m + 2.0 * bboxes.iter().map(radius).fold(0.0, f64::max);
        let mut unfiltered = Vec::new();
        let (mut exact_tests, mut kept) = (0, 0);
        for b in map.buildings() {
            for other_id in map.buildings_within(b.centroid, query_r) {
                if other_id <= b.id {
                    continue;
                }
                exact_tests += 1;
                let box_gap = bbox_gap(&bboxes[b.id as usize], &bboxes[other_id as usize]);
                kept += usize::from(box_gap <= params.max_gap_m + EPS);
                let other = map.building(other_id).unwrap();
                let gap = b.footprint.dist_to_polygon(&other.footprint);
                assert!(box_gap <= gap + EPS, "a box gap bounds the footprint gap");
                if gap <= params.max_gap_m {
                    let d = b.centroid.dist(other.centroid).max(1.0);
                    unfiltered.push((b.id, other_id, d.powf(params.weight_exponent)));
                }
            }
        }
        let unfiltered = CsrGraph::from_edges(map.len(), &unfiltered);
        let bg = BuildingGraph::build(&map, params);
        assert_eq!(bg.num_edges(), unfiltered.num_edges());
        for v in 0..map.len() as u32 {
            assert_eq!(bg.graph().neighbors(v), unfiltered.neighbors(v), "row {v}");
        }
        assert!(
            kept < exact_tests * 3 / 4 && kept >= bg.num_edges(),
            "{kept} of {exact_tests} candidates pass the boxes, {} link",
            bg.num_edges()
        );
    }

    #[test]
    fn empty_map_builds_empty_graph() {
        let map = CityMap::new("empty", vec![], vec![]);
        let bg = BuildingGraph::build(&map, BuildingGraphParams::default());
        assert!(bg.is_empty());
        assert_eq!(bg.num_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "max_gap_m")]
    fn negative_gap_panics() {
        let map = row_map();
        BuildingGraph::build(
            &map,
            BuildingGraphParams {
                max_gap_m: -1.0,
                weight_exponent: 3.0,
            },
        );
    }
}
