//! Building-route planning (paper §3 step 2).
//!
//! Planning is goal-directed A* over the cubed-distance building
//! graph, driven by [`BuildingGraph::cost_lower_bound`]: the max of
//! the straight-line Euclidean centroid distance (admissible for
//! weight exponents ≥ 1, where every edge costs `max(d, 1)^e ≥ d`)
//! and the ALT landmark bound `|d(k, dst) − d(k, v)|`, which is
//! admissible in the actual weight metric for any exponent and is the
//! estimate that actually prunes cubed-distance graphs — straight-line
//! meters wildly under-state costs that grow as distance *cubed*.
//! Combined with the canonical tie-breaking rule in
//! [`citymesh_graph`]'s scratch kernels, A* returns the same
//! minimum-cost routes as plain Dijkstra (bit-identical whenever route
//! costs are untied, which is the generic case on surveyed
//! coordinates) while expanding only the corridor toward the target.
//!
//! On a map small enough to table (`BuildingGraph::route_rows`), a
//! source that keeps being asked stops searching: on its sixteenth
//! request [`plan_route_into`] runs the whole canonical Dijkstra tree
//! from it once, keeps the parents as a row, and answers that source
//! from then on by walking the row back from the destination. A row is
//! kept only if its tree met no exact cost tie — then it holds the one
//! cheapest route to every building, which is the route the search
//! returns — so which of the two answered a query never shows in the
//! answer (DESIGN.md §10, "Routes from rows"). This module is the only
//! reader of the table: one route source per query.

use citymesh_graph::{
    astar_path_filtered_into, dijkstra_tree_with, label_components, PlannerScratch,
};

use crate::buildgraph::BuildingGraph;
use crate::rows::{LazyRows, NO_ENTRY};
use crate::sim::DetourStats;

/// Route-planning failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteError {
    /// Source or destination building ID is out of range for the map.
    UnknownBuilding(u32),
    /// The building graph predicts no path between the endpoints —
    /// the endpoints sit on different predicted islands.
    NoPredictedPath {
        /// Source building.
        src: u32,
        /// Destination building.
        dst: u32,
    },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::UnknownBuilding(id) => write!(f, "unknown building {id}"),
            RouteError::NoPredictedPath { src, dst } => {
                write!(f, "no predicted building path {src} → {dst}")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// Label of a blocked building in [`Survivors`]: it belongs to no
/// surviving component ([`label_components`]' mark for a vertex it was
/// told to leave out).
const NO_LABEL: u32 = u32::MAX;

/// What a detour search consults about the dark buildings: the
/// connected-component labels of the building graph restricted to the
/// buildings that are not blocked — `u32::MAX` marks a blocked one,
/// so the labels double as the mask a search filters by (one load per
/// relaxation) — and the blocked buildings as a list. "No surviving
/// route" is decided from the labels before any search runs
/// ([`Survivors::connects`]). Derived state: built from a blocked set
/// in one O(V + E) pass and relabelled only when a building's
/// membership flips.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Survivors {
    /// The blocked buildings, ascending.
    dark: Vec<u32>,
    /// Component of each unblocked building among the unblocked ones;
    /// [`NO_LABEL`] for a blocked building.
    label: Vec<u32>,
}

impl Survivors {
    /// Labels `bg` with every building of `blocked` dark. Ids outside
    /// the graph are ignored.
    pub fn new(bg: &BuildingGraph, blocked: impl IntoIterator<Item = u32>) -> Self {
        let mut dark: Vec<u32> = blocked.into_iter().collect();
        dark.retain(|&b| (b as usize) < bg.len());
        dark.sort_unstable();
        dark.dedup();
        let mut s = Survivors {
            dark,
            label: Vec::new(),
        };
        s.relabel(bg);
        s
    }

    /// Whether building `b` is dark.
    #[inline]
    pub fn is_blocked(&self, b: u32) -> bool {
        self.label[b as usize] == NO_LABEL
    }

    /// The dark buildings, ascending.
    pub fn blocked(&self) -> &[u32] {
        &self.dark
    }

    /// Sets the membership of each `(building, blocked)` pair and, when
    /// any of them flipped, recomputes the labels. Returns whether one
    /// did.
    pub fn update(
        &mut self,
        bg: &BuildingGraph,
        changes: impl IntoIterator<Item = (u32, bool)>,
    ) -> bool {
        let mut flipped = false;
        for (b, now) in changes {
            match (self.dark.binary_search(&b), now) {
                (Err(at), true) => self.dark.insert(at, b),
                (Ok(at), false) => {
                    self.dark.remove(at);
                }
                _ => continue,
            }
            flipped = true;
        }
        if flipped {
            self.relabel(bg);
        }
        flipped
    }

    /// One pass over the graph: components of the unblocked buildings,
    /// numbered in order of their smallest member.
    fn relabel(&mut self, bg: &BuildingGraph) {
        let g = bg.graph();
        let mut blocked = vec![false; bg.len()];
        self.dark.iter().for_each(|&b| blocked[b as usize] = true);
        label_components(
            bg.len(),
            |b| !blocked[b as usize],
            |u| g.neighbors(u).iter().map(|e| e.to),
            &mut self.label,
        );
    }

    /// Whether a route `src → dst` exists whose interior avoids every
    /// blocked building (the endpoints are exempt, as in
    /// [`plan_route_avoiding_into`]) — exactly the pairs on which a
    /// detour search succeeds, in O(deg) instead of a search that exhausts the
    /// source's surviving island before it can say no.
    ///
    /// Every interior building of such a route is unblocked, so they
    /// share one label; an unblocked endpoint carries that label
    /// itself, a blocked one borders it. The one route with no interior
    /// is a direct edge, which the labels already cover unless both
    /// endpoints are blocked.
    pub fn connects(&self, bg: &BuildingGraph, src: u32, dst: u32) -> bool {
        if src == dst {
            return true;
        }
        let g = bg.graph();
        // Blocked neighbours carry `NO_LABEL`, which is no component's.
        let borders = |v: u32, l: u32| {
            g.neighbors(v)
                .iter()
                .any(|e| self.label[e.to as usize] == l)
        };
        let (ls, ld) = (self.label[src as usize], self.label[dst as usize]);
        match (ls != NO_LABEL, ld != NO_LABEL) {
            (true, true) => ls == ld,
            (true, false) => borders(dst, ls),
            (false, true) => borders(src, ld),
            (false, false) => g.neighbors(src).iter().any(|e| {
                let l = self.label[e.to as usize];
                e.to == dst || (l != NO_LABEL && borders(dst, l))
            }),
        }
    }
}

/// `UnknownBuilding` for the first endpoint outside `bg`.
pub(crate) fn check_endpoints(bg: &BuildingGraph, src: u32, dst: u32) -> Result<(), RouteError> {
    let n = bg.len() as u32;
    match [src, dst].into_iter().find(|&id| id >= n) {
        Some(id) => Err(RouteError::UnknownBuilding(id)),
        None => Ok(()),
    }
}

/// Plans the building route from `src` to `dst` over the predicted
/// connectivity graph: the cubed-distance-shortest path, as a sequence
/// of building IDs including both endpoints.
///
/// `src == dst` yields the single-building route `[src]`.
pub fn plan_route(bg: &BuildingGraph, src: u32, dst: u32) -> Result<Vec<u32>, RouteError> {
    let mut out = Vec::new();
    plan_route_into(bg, src, dst, &mut PlannerScratch::new(), &mut out)?;
    Ok(out)
}

/// [`plan_route`] against caller-owned buffers: writes the route into
/// `out` and reuses `scratch` for the search state, so a warm caller
/// plans with zero heap allocations — except on the one request per
/// source that builds its row, which allocates the row (`2 × bg.len()`
/// bytes, kept by the graph). Returns the same routes as [`plan_route`]
/// — the allocating entry point is a wrapper over this kernel.
///
/// # Errors
/// Same contract as [`plan_route`]; `out` is left cleared on error.
pub fn plan_route_into(
    bg: &BuildingGraph,
    src: u32,
    dst: u32,
    scratch: &mut PlannerScratch,
    out: &mut Vec<u32>,
) -> Result<(), RouteError> {
    plan_route_counted(bg, src, dst, scratch, out, &mut RouteStats::default())
}

/// How the flat planner answered the queries one scratch made: by
/// walking a source's row or by searching, and the rows those queries
/// built on the way. Which of the two serves a query depends on how many
/// requests the source had seen — on every worker — so the split is
/// schedule-dependent; the routes are not.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouteStats {
    /// Rows this scratch's queries built and installed.
    pub rows_built: u64,
    /// Queries answered by a row walk.
    pub from_rows: u64,
    /// Queries answered by the A* search.
    pub searches: u64,
}

/// [`plan_route_into`], counting into `stats` which way the query went.
pub(crate) fn plan_route_counted(
    bg: &BuildingGraph,
    src: u32,
    dst: u32,
    scratch: &mut PlannerScratch,
    out: &mut Vec<u32>,
    stats: &mut RouteStats,
) -> Result<(), RouteError> {
    out.clear();
    check_endpoints(bg, src, dst)?;
    if let Some(rows) = bg.route_rows() {
        let mut row = rows.row(src);
        if row.is_none() && rows.due(src) {
            row = build_row(bg, rows, src, scratch, stats);
        }
        if let Some(row) = row {
            stats.from_rows += 1;
            return walk_row(row, src, dst, out);
        }
    }
    stats.searches += 1;
    search(bg, src, dst, |_| true, scratch, out)
}

/// Runs the full canonical tree from `src` on the caller's scratch,
/// installs its parents as the source's row and returns it — unless the
/// tree met an exact tie. Ties are the one case in which the A* under the ALT bound
/// and Dijkstra may return different equal-cost routes (DESIGN.md §10);
/// serving such a source from its row would make the answer depend on
/// whether the query came before or after the sixteenth, so it stays
/// search-only for good.
fn build_row<'a>(
    bg: &BuildingGraph,
    rows: &'a LazyRows,
    src: u32,
    scratch: &mut PlannerScratch,
    stats: &mut RouteStats,
) -> Option<&'a [u16]> {
    let mut row = rows.blank_row();
    let tied = dijkstra_tree_with(
        bg.graph(),
        src,
        |_| true,
        scratch,
        |v, parent, _| {
            // The source's own `u32::MAX` is the only parent that does not
            // fit: the table's ceiling keeps every id below `NO_ENTRY`.
            row[v as usize] = u16::try_from(parent).unwrap_or(NO_ENTRY);
        },
    );
    if tied {
        return None;
    }
    stats.rows_built += 1;
    Some(rows.install(src, row))
}

/// Reads the route `src → dst` out of `src`'s row: parents from `dst`
/// back to `src`, reversed. The forward tree sums each route's weights
/// in the order the search does, so row and search agree on every `g`
/// value bit for bit.
fn walk_row(row: &[u16], src: u32, dst: u32, out: &mut Vec<u32>) -> Result<(), RouteError> {
    let mut at = dst;
    out.push(at);
    while at != src {
        let parent = row[at as usize];
        if parent == NO_ENTRY {
            out.clear();
            return Err(RouteError::NoPredictedPath { src, dst });
        }
        at = u32::from(parent);
        out.push(at);
    }
    out.reverse();
    Ok(())
}

/// Like [`plan_route_into`], but treating every building `survivors`
/// marks blocked as unusable (endpoints are exempt). This is the detour
/// primitive the DFN security requirement calls for (paper §1: the
/// protocol should "find a path between two nodes wishing to
/// communicate if there exists a path that does not traverse a
/// compromised node") — a sender that learns a region is compromised
/// or destroyed replans around it.
///
/// A pair the labels say no surviving route connects is refused before
/// any search; the rest run the planner's A* with the mask as its
/// filter. The allocating reference detour in `citymesh-reference`
/// must return the same route, and the same error, on every query
/// (`tests/route_oracle.rs`).
///
/// # Errors
/// [`RouteError::UnknownBuilding`] for an endpoint outside `bg`, and
/// [`RouteError::NoPredictedPath`] when every route crosses a blocked
/// building; `out` is left cleared on error.
pub fn plan_route_avoiding_into(
    bg: &BuildingGraph,
    src: u32,
    dst: u32,
    survivors: &Survivors,
    scratch: &mut PlannerScratch,
    out: &mut Vec<u32>,
) -> Result<(), RouteError> {
    out.clear();
    check_endpoints(bg, src, dst)?;
    if !survivors.connects(bg, src, dst) {
        return Err(RouteError::NoPredictedPath { src, dst });
    }
    search(bg, src, dst, |v| !survivors.is_blocked(v), scratch, out)
}

/// The one detour of the rungs after the first send — the replan rung's
/// and each of local repair's — counted: [`plan_route_avoiding_into`]
/// puts the pair to the labels first, and a refusal counts in
/// `stats.rejected_by_labels`, a search in `stats.searches` (the labels
/// admit exactly the pairs a search connects, so a search finds a
/// route). Returns whether `out` holds a detour.
pub(crate) fn avoid_dark_counted(
    bg: &BuildingGraph,
    survivors: &Survivors,
    src: u32,
    dst: u32,
    search: &mut PlannerScratch,
    out: &mut Vec<u32>,
    stats: &mut DetourStats,
) -> bool {
    let found = plan_route_avoiding_into(bg, src, dst, survivors, search, out).is_ok();
    if found {
        stats.searches += 1;
    } else {
        stats.rejected_by_labels += 1;
    }
    found
}

/// One local-repair step, the Babel/QSPN discipline: the first dark
/// building on `route` is spliced out by a detour from the building
/// before it to the first live building after it, and the rest of the
/// route is kept; when no such splice exists (the damage reaches the
/// route's end, or the two are cut apart), the whole route is replaced
/// by a detour from its source to its end around every dark building.
///
/// Returns whether `route` changed. It does not when no building on it
/// is dark (the failure was loss, and a re-send is the answer), when
/// its source is (nothing to repair from), or when no detour survives
/// or the only one is the route itself. `detour` is the searches'
/// output buffer, left unspecified. Each search is
/// [`avoid_dark_counted`].
pub(crate) fn splice_around_dark(
    bg: &BuildingGraph,
    survivors: &Survivors,
    route: &mut Vec<u32>,
    search: &mut PlannerScratch,
    detour: &mut Vec<u32>,
    stats: &mut DetourStats,
) -> bool {
    let mut avoid = |src: u32, dst: u32, out: &mut Vec<u32>| {
        avoid_dark_counted(bg, survivors, src, dst, search, out, stats)
    };
    let Some(first_dark) = route.iter().position(|&b| survivors.is_blocked(b)) else {
        return false;
    };
    if first_dark == 0 {
        return false;
    }
    let anchor = first_dark - 1;
    let rejoin = (first_dark + 1..route.len()).find(|&k| !survivors.is_blocked(route[k]));
    if let Some(rejoin) = rejoin {
        if avoid(route[anchor], route[rejoin], detour) {
            route.splice(anchor..=rejoin, detour.iter().copied());
            return true;
        }
    }
    let (src, dst) = (route[0], route[route.len() - 1]);
    if !avoid(src, dst, detour) || detour == route {
        return false;
    }
    std::mem::swap(route, detour);
    true
}

/// Goal-directed A* under the landmark/Euclidean cost lower bound (see
/// the module docs). Blocked buildings only remove options, so the
/// same bound stays admissible for detours.
fn search(
    bg: &BuildingGraph,
    src: u32,
    dst: u32,
    allowed: impl Fn(u32) -> bool,
    scratch: &mut PlannerScratch,
    out: &mut Vec<u32>,
) -> Result<(), RouteError> {
    let h = |v: u32| bg.cost_lower_bound(v, dst);
    if astar_path_filtered_into(bg.graph(), src, dst, h, allowed, scratch, out) {
        Ok(())
    } else {
        Err(RouteError::NoPredictedPath { src, dst })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buildgraph::BuildingGraphParams;
    use citymesh_geo::{Point, Polygon, Rect};
    use citymesh_map::CityMap;

    fn square_at(x: f64, y: f64, side: f64) -> Polygon {
        Polygon::rect(Rect::from_corners(
            Point::new(x, y),
            Point::new(x + side, y + side),
        ))
    }

    /// An L-shaped city: a direct diagonal is impossible, the route
    /// must go through the corner building.
    ///
    /// ```text
    ///   2
    ///   1
    ///   0  3  4
    /// ```
    fn l_map() -> (CityMap, BuildingGraph) {
        let map = CityMap::new(
            "l",
            vec![
                square_at(0.0, 0.0, 10.0),  // 0 corner
                square_at(0.0, 30.0, 10.0), // up
                square_at(0.0, 60.0, 10.0), // up-up
                square_at(30.0, 0.0, 10.0), // right
                square_at(60.0, 0.0, 10.0), // right-right
            ],
            vec![],
        );
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
    fn routes_through_the_corner() {
        let (map, bg) = l_map();
        // Identify top (y≈60) and right (x≈60) endpoints by centroid.
        let top = map
            .buildings()
            .iter()
            .find(|b| b.centroid.y > 50.0)
            .unwrap()
            .id;
        let right = map
            .buildings()
            .iter()
            .find(|b| b.centroid.x > 50.0)
            .unwrap()
            .id;
        let corner = map
            .buildings()
            .iter()
            .find(|b| b.centroid.x < 20.0 && b.centroid.y < 20.0)
            .unwrap()
            .id;
        let route = plan_route(&bg, top, right).unwrap();
        assert_eq!(route.len(), 5);
        assert_eq!(route[0], top);
        assert_eq!(*route.last().unwrap(), right);
        assert!(route.contains(&corner));
    }

    #[test]
    fn trivial_route_to_self() {
        let (_, bg) = l_map();
        assert_eq!(plan_route(&bg, 2, 2).unwrap(), vec![2]);
    }

    #[test]
    fn unknown_building_rejected() {
        let (_, bg) = l_map();
        assert_eq!(plan_route(&bg, 0, 99), Err(RouteError::UnknownBuilding(99)));
        assert_eq!(plan_route(&bg, 99, 0), Err(RouteError::UnknownBuilding(99)));
    }

    #[test]
    fn disconnected_endpoints_error() {
        let map = CityMap::new(
            "islands",
            vec![square_at(0.0, 0.0, 10.0), square_at(500.0, 0.0, 10.0)],
            vec![],
        );
        let bg = BuildingGraph::build(&map, BuildingGraphParams::default());
        assert_eq!(
            plan_route(&bg, 0, 1),
            Err(RouteError::NoPredictedPath { src: 0, dst: 1 })
        );
    }

    /// `plan_route_counted` on throwaway buffers: the route and what
    /// the query added to the counters.
    fn counted(
        bg: &BuildingGraph,
        src: u32,
        dst: u32,
    ) -> (Result<Vec<u32>, RouteError>, RouteStats) {
        let (mut out, mut stats) = (Vec::new(), RouteStats::default());
        let found = plan_route_counted(
            bg,
            src,
            dst,
            &mut PlannerScratch::new(),
            &mut out,
            &mut stats,
        );
        (found.map(|()| out), stats)
    }

    #[test]
    fn a_source_rents_fifteen_searches_then_buys_its_row() {
        // The river cuts the map into islands: some pairs have no route.
        let map = citymesh_map::CityArchetype::SurveyRiver.generate(1);
        let bg = BuildingGraph::build(&map, BuildingGraphParams::default());
        let n = bg.len() as u32;
        let searched = RouteStats {
            searches: 1,
            ..RouteStats::default()
        };
        let first_pass: Vec<_> = (0..n).map(|dst| counted(&bg, 7, dst)).collect();
        assert!(first_pass.iter().take(15).all(|(_, s)| *s == searched));
        assert!(
            first_pass.iter().any(|(r, _)| r.is_err()),
            "the river cuts pairs"
        );
        // Requests 1..=15 searched; the 16th built the row and walked
        // it, and so does everything after — same answers, errors too.
        let built = RouteStats {
            rows_built: 1,
            from_rows: 1,
            searches: 0,
        };
        assert_eq!(first_pass[15].1, built);
        assert_eq!(bg.route_rows_built(), 1);
        let walked = RouteStats {
            from_rows: 1,
            ..RouteStats::default()
        };
        let clone = bg.clone();
        for dst in 0..n {
            let (route, stats) = counted(&clone, 7, dst);
            assert_eq!(stats, walked, "a clone reads the same table");
            let mut by_astar = Vec::new();
            let found = search(
                &bg,
                7,
                dst,
                |_| true,
                &mut PlannerScratch::new(),
                &mut by_astar,
            );
            assert_eq!(route, found.map(|()| by_astar), "7 -> {dst}");
            assert_eq!(route, first_pass[dst as usize].0);
        }
        // Other sources are where they were.
        assert_eq!(counted(&bg, 8, 7).1, searched);
        // Bad endpoints are refused before anything is counted.
        let unknown = (Err(RouteError::UnknownBuilding(n)), RouteStats::default());
        assert_eq!(counted(&bg, 7, n), unknown);
        assert_eq!(counted(&bg, n, 7), unknown);
    }

    #[test]
    fn cubed_weights_prefer_many_short_hops() {
        // A chain of short hops vs one long direct edge: with cubed
        // weights the chain wins even though it has more hops.
        //
        //  0 -10m- 1 -10m- 2 -10m- 3    and a direct 0–3 edge (gap 50m)
        let map = CityMap::new(
            "chain",
            vec![
                square_at(0.0, 0.0, 10.0),
                square_at(20.0, 0.0, 10.0),
                square_at(40.0, 0.0, 10.0),
                square_at(60.0, 0.0, 10.0),
            ],
            vec![],
        );
        let bg = BuildingGraph::build(
            &map,
            // Gap 50 still links 0–3 directly.
            BuildingGraphParams {
                max_gap_m: 50.0,
                weight_exponent: 3.0,
            },
        );
        assert!(
            bg.graph().has_edge(0, 3),
            "long edge must exist for the test"
        );
        let route = plan_route(&bg, 0, 3).unwrap();
        assert_eq!(
            route,
            vec![0, 1, 2, 3],
            "cubed weights should take the chain"
        );

        // Ablation: with linear weights the direct edge wins.
        let bg1 = BuildingGraph::build(
            &map,
            BuildingGraphParams {
                max_gap_m: 50.0,
                weight_exponent: 1.0,
            },
        );
        let route1 = plan_route(&bg1, 0, 3).unwrap();
        assert_eq!(route1, vec![0, 3], "linear weights should go direct");
    }

    /// The benchmark downtown with one mid-route building of a long
    /// route gone dark, and that route.
    fn downtown_with_a_dark_building() -> (crate::CityExperiment, Vec<u32>, u32) {
        use crate::{ApHealth, CityExperiment, ExperimentConfig, FaultScenario};
        let map = citymesh_map::CityArchetype::SurveyDowntown.generate(22);
        let config = ExperimentConfig {
            seed: 22,
            faults: Some(FaultScenario::iid(0.0)),
            ..ExperimentConfig::default()
        };
        let mut exp = CityExperiment::prepare(map, config);
        let plan = (0..exp.map().len() as u32)
            .map(|d| exp.plan_flow(3, d))
            .find(|p| p.route_found() && p.primary_route().len() >= 6)
            .expect("downtown has long routes");
        let route = plan.primary_route().to_vec();
        let victim = route[route.len() / 2];
        let kill: Vec<(u32, ApHealth)> = exp
            .aps()
            .iter()
            .filter(|a| a.building == victim)
            .map(|a| (a.id, ApHealth::Failed))
            .collect();
        exp.apply_world_event(&kill);
        (exp, route, victim)
    }

    #[test]
    fn splice_avoids_the_dark_building_and_keeps_both_ends() {
        let (exp, route, victim) = downtown_with_a_dark_building();
        let (bg, survivors) = (exp.building_graph(), exp.survivors().unwrap());
        assert!(survivors.is_blocked(victim));
        let (mut search, mut detour) = (PlannerScratch::new(), Vec::new());
        let mut stats = DetourStats::default();
        let mut patched = route.clone();
        assert!(splice_around_dark(
            bg,
            survivors,
            &mut patched,
            &mut search,
            &mut detour,
            &mut stats
        ));
        assert!(
            !patched.contains(&victim),
            "the splice avoids the dark building"
        );
        assert_eq!(patched[0], route[0], "the splice keeps the source");
        assert_eq!(patched.last(), route.last(), "and the destination");
        assert!(
            patched.windows(2).all(|w| bg.graph().has_edge(w[0], w[1])),
            "the patched route is a walk of the building graph"
        );
        assert_eq!(
            stats.searches + stats.rejected_by_labels,
            1,
            "one repair action"
        );
        // Only a first dark building is repaired around: on a clean
        // route the answer to a failure is a re-send.
        let clean = patched.clone();
        let before = stats;
        assert!(!splice_around_dark(
            bg,
            survivors,
            &mut patched,
            &mut search,
            &mut detour,
            &mut stats
        ));
        assert_eq!(patched, clean);
        assert_eq!(stats, before, "a clean route costs no search");
    }

    /// A flow under local repair is a pure function of its plan and
    /// streams, and never sends more than its policy allows.
    #[test]
    fn local_repair_is_deterministic_and_bounded() {
        use crate::{CityExperiment, DeliveryScratch, ExperimentConfig, FaultScenario};
        use crate::{RecoveryStage, RetryPolicy};
        use citymesh_simcore::SimRng;
        let map = citymesh_map::CityArchetype::SurveyDowntown.generate(24);
        let mut scenario = FaultScenario::district_blackouts(2, 120.0);
        scenario.retry = RetryPolicy::local_repair(4);
        let config = ExperimentConfig {
            seed: 24,
            faults: Some(scenario),
            ..ExperimentConfig::default()
        };
        let exp = CityExperiment::prepare(map, config);
        let mut scratch = DeliveryScratch::new();
        let mut by_replan = 0;
        for (src, dst) in [2u32, 30, 75]
            .into_iter()
            .flat_map(|s| (100..220).map(move |d| (s, d)))
        {
            let plan = exp.plan_flow(src, dst);
            let run = |scratch: &mut DeliveryScratch| {
                let mut rng = SimRng::new(u64::from(src) << 32 | u64::from(dst));
                exp.simulate_flow_with(&plan, 7, &mut rng, scratch)
            };
            let (a, b) = (run(&mut scratch), run(&mut DeliveryScratch::new()));
            assert_eq!(a, b, "{src}->{dst}: same streams, same outcome");
            assert!(a.attempts <= 4);
            assert_ne!(a.recovered_by, Some(RecoveryStage::Widen));
            by_replan += usize::from(a.recovered_by == Some(RecoveryStage::Replan));
        }
        assert!(by_replan > 0, "some deliveries are won by a repaired route");
        assert!(scratch.detour_stats().searches > 0);
    }
}
