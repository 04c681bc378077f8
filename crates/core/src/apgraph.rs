//! The ground-truth AP connectivity graph (paper §4).
//!
//! "Connects these APs into a graph where the inter-AP distance is
//! below a configurable transmission range." This graph is the
//! *simulation's truth*: reachability is membership in the same
//! connected component, and the fewest-hops count between endpoints is
//! the paper's ideal-unicast lower bound for transmission overhead.
//!
//! CityMesh itself never sees this graph — routing uses only the
//! building map. Keeping the two rigidly separated is what makes the
//! evaluation honest.

use std::cell::Cell;
use std::sync::Arc;

use citymesh_geo::{GridIndex, OrientedRect, Point};
use citymesh_graph::{bucket_by_key, hops_to_set_row, label_components, HopLandmarks, HopScratch};

use crate::placement::Ap;
use crate::rows::{LazyRows, NO_ENTRY};

/// AP graph plus the indexes the simulator needs.
///
/// The adjacency is stored once, as the CSR audience rows (4 bytes per
/// directed edge; every edge is one hop, so there is no weight to
/// keep): the delivery kernel, the ideal-hops search, the component
/// labels and the baselines all read the same rows.
#[derive(Clone, Debug)]
pub struct ApGraph {
    index: GridIndex,
    range_m: f64,
    building_of: Vec<u32>,
    components: Vec<u32>,
    num_components: usize,
    /// CSR building→AP buckets: `bucket_starts[b]..bucket_starts[b+1]`
    /// indexes into `bucket_items`, which holds AP ids in ascending
    /// order within each building. Sized by the largest building id
    /// referenced by any AP; queries beyond that yield empty slices.
    bucket_starts: Vec<u32>,
    bucket_items: Vec<u32>,
    /// CSR broadcast audiences: `audience_starts[a]..audience_starts[a+1]`
    /// indexes into `audience_items`, which holds every *other* AP
    /// within `range_m` of AP `a`, in grid-enumeration order.
    audience_starts: Vec<u32>,
    audience_items: Vec<u32>,
    /// Hop-count ALT landmarks over the audience rows: what answers
    /// [`ideal_hops_to_building_with`](Self::ideal_hops_to_building_with)
    /// without flooding the city.
    hop_landmarks: HopLandmarks,
    /// Per-destination-building hop rows — `row(d)[ap]` is the fewest
    /// hops from `ap` to any AP of building `d` — filled as
    /// destinations earn them and shared by every clone; `None` on a
    /// city too large to table. Keyed by destination because a
    /// building's AP set is fixed at build time, while a flow's source
    /// AP is whichever postbox AP the fault epoch left alive: no world
    /// event touches a row.
    hop_rows: Option<Arc<LazyRows>>,
}

impl ApGraph {
    /// Builds the unit-disk graph over `aps` with cutoff `range_m`.
    ///
    /// # Panics
    /// Panics on a non-positive range.
    pub fn build(aps: &[Ap], range_m: f64) -> Self {
        assert!(range_m > 0.0, "range must be positive");
        let positions: Vec<Point> = aps.iter().map(|a| a.pos).collect();
        let index = GridIndex::build(&positions, range_m.max(1.0));
        // One grid pass records each AP's broadcast audience (AP ids
        // are indices into `aps`).
        let mut audience_starts = Vec::with_capacity(aps.len() + 1);
        let mut audience_items = Vec::new();
        audience_starts.push(0);
        for ap in aps {
            index.for_each_in_circle(ap.pos, range_m, |other, _| {
                if other != ap.id {
                    audience_items.push(other);
                }
            });
            let end = u32::try_from(audience_items.len()).expect("audience index fits u32");
            audience_starts.push(end);
        }
        audience_items.shrink_to_fit();
        let mut components = Vec::new();
        let num_components = label_components(
            aps.len(),
            |_| true,
            |a| {
                audience_row(&audience_starts, &audience_items, a)
                    .iter()
                    .copied()
            },
            &mut components,
        );
        let building_of: Vec<u32> = aps.iter().map(|a| a.building).collect();
        // CSR buckets by building. The sort is stable, so each bucket's
        // AP ids stay ascending.
        let n_buildings = building_of
            .iter()
            .map(|b| *b as usize + 1)
            .max()
            .unwrap_or(0);
        let by_building = building_of
            .iter()
            .enumerate()
            .map(|(id, &b)| (b, id as u32));
        let (bucket_starts, bucket_items) = bucket_by_key(n_buildings, by_building);
        let hop_landmarks = HopLandmarks::build(
            |a| audience_row(&audience_starts, &audience_items, a),
            &components,
            num_components,
        );
        ApGraph {
            index,
            range_m,
            building_of,
            components,
            num_components,
            bucket_starts,
            bucket_items,
            audience_starts,
            audience_items,
            hop_landmarks,
            hop_rows: LazyRows::new(n_buildings, aps.len()),
        }
    }

    /// Number of APs.
    pub fn len(&self) -> usize {
        self.building_of.len()
    }

    /// Whether there are no APs.
    pub fn is_empty(&self) -> bool {
        self.building_of.is_empty()
    }

    /// One past the largest building id any AP sits in: the size of a
    /// table indexed by [`building_of`](Self::building_of).
    pub fn buildings(&self) -> usize {
        self.bucket_starts.len() - 1
    }

    /// Heap bytes held by the graph, its simulator-facing indexes and
    /// the hop rows written so far — the metro sweep's memory
    /// accounting.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.index.memory_bytes()
            + self.building_of.capacity() * size_of::<u32>()
            + self.components.capacity() * size_of::<u32>()
            + self.bucket_starts.capacity() * size_of::<u32>()
            + self.bucket_items.capacity() * size_of::<u32>()
            + self.audience_starts.capacity() * size_of::<u32>()
            + self.audience_items.capacity() * size_of::<u32>()
            + self.hop_landmarks.memory_bytes()
            + self.hop_rows.as_ref().map_or(0, |r| r.memory_bytes())
    }

    /// Hop rows written so far (each `2 × len()` bytes), over every
    /// clone of this graph.
    pub fn hop_rows_built(&self) -> usize {
        self.hop_rows.as_ref().map_or(0, |rows| rows.built())
    }

    /// The transmission range used to build the graph.
    pub fn range_m(&self) -> f64 {
        self.range_m
    }

    /// Position of AP `id`.
    pub fn position(&self, id: u32) -> Point {
        self.index.position(id)
    }

    /// Building containing AP `id`.
    pub fn building_of(&self, id: u32) -> u32 {
        self.building_of[id as usize]
    }

    /// Calls `f(id, pos)` for every AP within the transmission range
    /// of an arbitrary point `p` (an AP standing at `p` is included).
    pub fn for_each_in_range(&self, p: Point, f: impl FnMut(u32, Point)) {
        self.index.for_each_in_circle(p, self.range_m, f);
    }

    /// The broadcast audience of AP `id`: every other AP within range,
    /// precomputed at build time. Set and order are exactly what
    /// [`for_each_in_range`](Self::for_each_in_range) at the AP's
    /// position yields minus the AP itself, which keeps the delivery
    /// kernel's event order (and so its traces) independent of how the
    /// audience is found.
    pub fn audience(&self, id: u32) -> &[u32] {
        audience_row(&self.audience_starts, &self.audience_items, id)
    }

    /// Number of connected components.
    pub fn num_components(&self) -> usize {
        self.num_components
    }

    /// Whether APs `a` and `b` are in the same component — the paper's
    /// *reachability* predicate.
    pub fn reachable(&self, a: u32, b: u32) -> bool {
        self.components[a as usize] == self.components[b as usize]
    }

    /// Whether any AP of `building_a` can reach any AP of
    /// `building_b`. Buildings host ≥ 1 AP each by placement
    /// construction, and all APs of one building share a component in
    /// practice; this checks all pairs for robustness.
    pub fn buildings_reachable(&self, building_a: u32, building_b: u32) -> bool {
        // O(|APs of a| × |APs of b|) over the CSR buckets — a handful
        // of comparisons in practice (placement puts 1–3 APs per
        // building), with no allocation and no whole-city scan.
        self.aps_of_building(building_a).iter().any(|&a| {
            self.aps_of_building(building_b)
                .iter()
                .any(|&b| self.components[a as usize] == self.components[b as usize])
        })
    }

    /// Minimum hop count from AP `src` to **any** AP inside
    /// `dst_building` — the ideal-unicast transmission count (§4's
    /// overhead denominator). `None` when unreachable.
    ///
    /// Convenience wrapper over
    /// [`ideal_hops_to_building_with`](Self::ideal_hops_to_building_with)
    /// that allocates a one-shot scratch; planner loops hold one and
    /// call the `_with` form directly.
    pub fn ideal_hops_to_building(&self, src: u32, dst_building: u32) -> Option<u64> {
        let mut scratch = HopScratch::new();
        self.ideal_hops_to_building_with(src, dst_building, &mut scratch)
    }

    /// [`ideal_hops_to_building`](Self::ideal_hops_to_building) against
    /// caller-owned scratch buffers. A destination's first fifteen
    /// queries — and every query on a city too large to table — are a
    /// landmark-guided search over the audience rows toward the
    /// building's APs as one target set ([`HopLandmarks::hops_to_set`]):
    /// a few hundred settled APs instead of most of the city, no
    /// allocation once warm. The sixteenth runs one flood of the city
    /// from those APs ([`hops_to_set_row`]) and keeps the result as the
    /// destination's row — the one allocation — and every query after it
    /// is one load. Search and row both give exactly the count a BFS
    /// from `src` reports on first touching the building, so which of
    /// them answered never shows in the answer; `scratch.stats` says
    /// which did.
    pub fn ideal_hops_to_building_with(
        &self,
        src: u32,
        dst_building: u32,
        scratch: &mut HopScratch,
    ) -> Option<u64> {
        let targets = self.aps_of_building(dst_building);
        // A building without APs is `None` from the labels alone: it
        // earns no row.
        if let Some(rows) = self.hop_rows.as_deref().filter(|_| !targets.is_empty()) {
            let mut row = rows.row(dst_building);
            if row.is_none() && rows.due(dst_building) {
                let mut built = rows.blank_row();
                hops_to_set_row(|a| self.audience(a), targets, &mut built, scratch);
                scratch.stats.rows_built += 1;
                row = Some(rows.install(dst_building, built));
            }
            if let Some(row) = row {
                scratch.stats.queries += 1;
                scratch.stats.from_rows += 1;
                let hops = row[src as usize];
                return (hops != NO_ENTRY).then_some(u64::from(hops));
            }
        }
        self.hop_landmarks.hops_to_set(
            |a| self.audience(a),
            &self.components,
            src,
            targets,
            scratch,
        )
    }

    /// All AP ids belonging to `building` as a borrowed slice
    /// (ascending, possibly empty) — an O(1) lookup into the static
    /// CSR building→AP bucket index.
    pub fn aps_of_building(&self, building: u32) -> &[u32] {
        let b = building as usize;
        if b + 1 >= self.bucket_starts.len() {
            return &[];
        }
        let lo = self.bucket_starts[b] as usize;
        let hi = self.bucket_starts[b + 1] as usize;
        &self.bucket_items[lo..hi]
    }

    /// Calls `f(ap, pos)` for every AP inside any of `conduits`, in
    /// ascending AP id order, each AP at most once. Cost is
    /// O(items in grid cells touched by the conduit bounding boxes),
    /// not O(city): each conduit is one
    /// [`GridIndex::for_each_in_conduit`] over the spatial bucket index
    /// (the enumeration a plan's covered buildings come from too). The
    /// conduit membership audit a relay region analysis needs, without
    /// a full-placement scan.
    pub fn for_each_ap_in_conduits(
        &self,
        conduits: &[OrientedRect],
        candidates: &mut Vec<u32>,
        mut f: impl FnMut(u32, Point),
    ) {
        candidates.clear();
        for c in conduits {
            self.index
                .for_each_in_conduit(c, |_| true, |id| candidates.push(id));
        }
        // Overlapping conduits surface an AP once per containing
        // rectangle; sort + dedup restores the canonical order.
        candidates.sort_unstable();
        candidates.dedup();
        for &id in candidates.iter() {
            f(id, self.index.position(id));
        }
    }

    /// Whether some AP that `pred` admits lies inside any of
    /// `conduits` — [`for_each_ap_in_conduits`](Self::for_each_ap_in_conduits)
    /// for a caller that wants one bit: `pred` runs before the
    /// oriented-rectangle test, no conduit after the first hit is
    /// looked at, and nothing is collected, sorted or deduplicated.
    pub fn any_ap_in_conduits(
        &self,
        conduits: &[OrientedRect],
        mut pred: impl FnMut(u32) -> bool,
    ) -> bool {
        let hit = Cell::new(false);
        conduits.iter().any(|c| {
            let admit = |id| !hit.get() && pred(id);
            self.index.for_each_in_conduit(c, admit, |_| hit.set(true));
            hit.get()
        })
    }

    /// Mean node degree (a connectivity health indicator reported in
    /// experiment summaries).
    pub fn mean_degree(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.audience_items.len() as f64 / self.len() as f64
    }
}

/// Row `id` of a CSR audience table.
fn audience_row<'a>(starts: &[u32], items: &'a [u32], id: u32) -> &'a [u32] {
    &items[starts[id as usize] as usize..starts[id as usize + 1] as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::Ap;

    fn ap(id: u32, x: f64, y: f64, building: u32) -> Ap {
        Ap {
            id,
            pos: Point::new(x, y),
            building,
        }
    }

    /// Two clusters 40 m apart internally, 500 m between clusters.
    fn two_cluster_aps() -> Vec<Ap> {
        vec![
            ap(0, 0.0, 0.0, 0),
            ap(1, 40.0, 0.0, 0),
            ap(2, 80.0, 0.0, 1),
            ap(3, 500.0, 0.0, 2),
            ap(4, 540.0, 0.0, 2),
        ]
    }

    #[test]
    fn edges_respect_range_cutoff() {
        let g = ApGraph::build(&two_cluster_aps(), 50.0);
        assert!(g.audience(0).contains(&1));
        assert!(g.audience(1).contains(&2));
        assert!(!g.audience(0).contains(&2)); // 80 m
        assert!(g.audience(3).contains(&4));
        assert!(!g.audience(2).contains(&3)); // 420 m
        assert_eq!(g.mean_degree(), 6.0 / 5.0);
    }

    #[test]
    fn components_and_reachability() {
        let g = ApGraph::build(&two_cluster_aps(), 50.0);
        assert_eq!(g.num_components(), 2);
        assert!(g.reachable(0, 2));
        assert!(!g.reachable(0, 3));
        assert!(g.buildings_reachable(0, 1));
        assert!(!g.buildings_reachable(0, 2));
        assert!(g.buildings_reachable(2, 2));
    }

    #[test]
    fn ideal_hops() {
        let g = ApGraph::build(&two_cluster_aps(), 50.0);
        // AP0 → building 1 (AP2): 0→1→2 = 2 hops.
        assert_eq!(g.ideal_hops_to_building(0, 1), Some(2));
        // AP0 → its own building: AP0 is already there, 0 hops.
        assert_eq!(g.ideal_hops_to_building(0, 0), Some(0));
        // Unreachable cluster.
        assert_eq!(g.ideal_hops_to_building(0, 2), None);
    }

    #[test]
    fn a_destination_rents_fifteen_searches_then_buys_its_row() {
        let g = ApGraph::build(&two_cluster_aps(), 50.0);
        let empty = g.memory_bytes();
        let mut scratch = HopScratch::new();
        // To building 1 (AP 2) from each AP; the far cluster has no path.
        let want = [Some(2), Some(1), Some(0), None, None];
        let mut ask = |g: &ApGraph, i: usize| {
            let before = scratch.stats;
            let src = i % want.len();
            assert_eq!(
                g.ideal_hops_to_building_with(src as u32, 1, &mut scratch),
                want[src]
            );
            assert_eq!(scratch.stats.queries, before.queries + 1);
            (
                scratch.stats.rows_built - before.rows_built,
                scratch.stats.from_rows - before.from_rows,
            )
        };
        assert!((0..15).all(|i| ask(&g, i) == (0, 0)));
        assert_eq!((g.hop_rows_built(), g.memory_bytes()), (0, empty));
        // The sixteenth builds the row and reads it; everything after
        // reads, a clone included.
        assert_eq!(ask(&g, 15), (1, 1));
        assert_eq!((g.hop_rows_built(), g.memory_bytes()), (1, empty + 5 * 2));
        let twin = g.clone();
        assert!((16..40).all(|i| ask(&twin, i) == (0, 1)));
        assert_eq!(twin.hop_rows_built(), 1);
        // A building without APs is `None` by search every time: no row.
        for _ in 0..40 {
            assert_eq!(g.ideal_hops_to_building(0, 9), None);
        }
        assert_eq!(g.hop_rows_built(), 1);
    }

    #[test]
    fn building_ap_lookup() {
        let g = ApGraph::build(&two_cluster_aps(), 50.0);
        assert_eq!(g.aps_of_building(0), [0, 1]);
        assert_eq!(g.aps_of_building(2), [3, 4]);
        assert!(g.aps_of_building(9).is_empty());
        assert_eq!(g.building_of(2), 1);
    }

    #[test]
    fn bucket_index_matches_linear_scan() {
        let aps = two_cluster_aps();
        let g = ApGraph::build(&aps, 50.0);
        for building in 0..10u32 {
            let linear: Vec<u32> = aps
                .iter()
                .filter(|a| a.building == building)
                .map(|a| a.id)
                .collect();
            assert_eq!(
                g.aps_of_building(building),
                &linear[..],
                "building {building}"
            );
        }
    }

    #[test]
    fn conduit_membership_matches_linear_scan() {
        use citymesh_geo::Segment;
        let aps = two_cluster_aps();
        let g = ApGraph::build(&aps, 50.0);
        // A conduit down the first cluster plus an overlapping one.
        let conduits = [
            OrientedRect::new(
                Segment::new(Point::new(0.0, 0.0), Point::new(80.0, 0.0)),
                30.0,
            ),
            OrientedRect::new(
                Segment::new(Point::new(40.0, 0.0), Point::new(540.0, 0.0)),
                30.0,
            ),
        ];
        let linear: Vec<u32> = aps
            .iter()
            .filter(|a| conduits.iter().any(|c| c.contains(a.pos)))
            .map(|a| a.id)
            .collect();
        let mut candidates = Vec::new();
        let mut got = Vec::new();
        g.for_each_ap_in_conduits(&conduits, &mut candidates, |id, pos| {
            assert_eq!(pos, aps[id as usize].pos);
            got.push(id);
        });
        assert_eq!(got, linear, "spatial index must equal the full scan");
        // The one-bit form agrees AP by AP, and asks `pred` first.
        for a in &aps {
            let inside = linear.contains(&a.id);
            assert_eq!(g.any_ap_in_conduits(&conduits, |id| id == a.id), inside);
        }
        assert!(!g.any_ap_in_conduits(&conduits, |_| false));
        assert!(!g.any_ap_in_conduits(&[], |_| true));
    }

    #[test]
    fn broadcast_audience_query() {
        let g = ApGraph::build(&two_cluster_aps(), 50.0);
        let mut heard = Vec::new();
        g.for_each_in_range(Point::new(40.0, 0.0), |id, _| heard.push(id));
        heard.sort_unstable();
        // Within 50 m of (40,0): APs 0, 1, 2. (Note: includes self.)
        assert_eq!(heard, vec![0, 1, 2]);
    }

    #[test]
    fn audience_rows_exclude_self_and_are_accounted() {
        let g = ApGraph::build(&two_cluster_aps(), 50.0);
        assert_eq!(g.audience(1), &[0, 2]);
        assert_eq!(g.audience(0), &[1]);
        assert_eq!(g.audience(4), &[3]);
        let mut stripped = g.clone();
        stripped.audience_starts = Vec::new();
        stripped.audience_items = Vec::new();
        // 6 audience entries + 6 row starts, 4 bytes each.
        assert!(g.memory_bytes() - stripped.memory_bytes() >= 12 * 4);
    }

    #[test]
    fn exact_range_boundary_is_connected() {
        let aps = vec![ap(0, 0.0, 0.0, 0), ap(1, 50.0, 0.0, 1)];
        let g = ApGraph::build(&aps, 50.0);
        assert_eq!(g.audience(0), &[1], "d == range must connect");
    }

    #[test]
    fn empty_input() {
        let g = ApGraph::build(&[], 50.0);
        assert!(g.is_empty());
        assert_eq!(g.num_components(), 0);
        assert_eq!(g.mean_degree(), 0.0);
    }
}
