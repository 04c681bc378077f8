//! Uniform-grid spatial index.
//!
//! CityMesh simulations place 10⁴–10⁶ APs on a city plane and need fast
//! "who hears this broadcast" queries (all points within the radio
//! range `r`). A uniform bucket grid with cell size ≈ `r` answers these
//! in O(points in 3×3 cells) which is near-optimal for the roughly
//! uniform densities produced by building-constrained placement.

use crate::{OrientedRect, Point, Rect};

/// Cells an index may always have: 4 MiB of bucket offsets, a
/// 100 km square at 100 m cells.
const MIN_CELL_BUDGET: usize = 1 << 20;
/// Cells an index may have per item beyond that floor.
const CELLS_PER_ITEM: usize = 16;

/// A spatial index mapping `u32` item ids to fixed positions.
///
/// Build once with [`GridIndex::build`], then query circles/rects. The
/// index is immutable after construction — simulation topology is
/// static for the duration of a run (APs do not move).
///
/// ```
/// use citymesh_geo::{GridIndex, Point};
///
/// let aps = vec![Point::new(0.0, 0.0), Point::new(40.0, 0.0), Point::new(500.0, 0.0)];
/// let index = GridIndex::build(&aps, 50.0);
/// // Who hears a broadcast from the first AP at 50 m range?
/// let heard = index.query_circle(aps[0], 50.0);
/// assert_eq!(heard, vec![0, 1]);
/// ```
#[derive(Clone, Debug)]
pub struct GridIndex {
    bounds: Rect,
    cell: f64,
    nx: usize,
    ny: usize,
    /// CSR layout: `starts[c]..starts[c+1]` indexes into `items`.
    starts: Vec<u32>,
    items: Vec<u32>,
    positions: Vec<Point>,
}

impl GridIndex {
    /// Builds an index over `positions`; item ids are the indices into
    /// the slice. `cell_size` should be close to the typical query
    /// radius (the Wi-Fi range, e.g. 50 m).
    ///
    /// The grid holds at most `max(2^20, 16 × positions.len())` cells:
    /// when the positions span more, the cell is doubled until they fit,
    /// so a few far-flung points cannot size a huge grid. Queries stay
    /// exact either way; only their cost and visit order change.
    ///
    /// # Panics
    /// Panics if `cell_size` is not strictly positive or any position
    /// is non-finite.
    pub fn build(positions: &[Point], cell_size: f64) -> Self {
        assert!(cell_size > 0.0, "cell_size must be positive");
        assert!(
            positions.iter().all(|p| p.is_finite()),
            "positions must be finite"
        );
        let bounds = Rect::bounding(positions.iter().copied()).unwrap_or(Rect {
            min: Point::ORIGIN,
            max: Point::ORIGIN,
        });
        // Cells along one side; NaN (an infinite span over an infinite
        // cell) counts as one.
        let side = |span: f64, cell: f64| (span / cell).ceil().max(1.0);
        let budget = MIN_CELL_BUDGET.max(CELLS_PER_ITEM.saturating_mul(positions.len())) as f64;
        let mut cell_size = cell_size;
        while side(bounds.width(), cell_size) * side(bounds.height(), cell_size) > budget {
            cell_size *= 2.0;
        }
        let nx = side(bounds.width(), cell_size) as usize;
        let ny = side(bounds.height(), cell_size) as usize;

        // Counting sort into CSR buckets.
        let ncells = nx * ny;
        let mut counts = vec![0u32; ncells + 1];
        let cell_of = |p: Point| -> usize {
            let cx = (((p.x - bounds.min.x) / cell_size) as usize).min(nx - 1);
            let cy = (((p.y - bounds.min.y) / cell_size) as usize).min(ny - 1);
            cy * nx + cx
        };
        for p in positions {
            counts[cell_of(*p) + 1] += 1;
        }
        for i in 1..=ncells {
            counts[i] += counts[i - 1];
        }
        let starts = counts.clone();
        let mut cursor = counts;
        let mut items = vec![0u32; positions.len()];
        for (i, p) in positions.iter().enumerate() {
            let c = cell_of(*p);
            items[cursor[c] as usize] = i as u32;
            cursor[c] += 1;
        }

        GridIndex {
            bounds,
            cell: cell_size,
            nx,
            ny,
            starts,
            items,
            positions: positions.to_vec(),
        }
    }

    /// Number of indexed items.
    #[inline]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Heap bytes held by the index (capacity, not length) — feeds
    /// the metro sweep's memory accounting.
    pub fn memory_bytes(&self) -> usize {
        self.starts.capacity() * std::mem::size_of::<u32>()
            + self.items.capacity() * std::mem::size_of::<u32>()
            + self.positions.capacity() * std::mem::size_of::<Point>()
    }

    /// Whether the index is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Position of item `id`.
    #[inline]
    pub fn position(&self, id: u32) -> Point {
        self.positions[id as usize]
    }

    /// Calls `f(id, pos)` for every item within `radius` of `center`
    /// (inclusive).
    pub fn for_each_in_circle(&self, center: Point, radius: f64, mut f: impl FnMut(u32, Point)) {
        if self.positions.is_empty() || radius < 0.0 {
            return;
        }
        let r2 = radius * radius;
        self.for_each_cell_overlapping(
            Rect::from_corners(center, center).inflated(radius),
            |id, pos| {
                if center.dist2(pos) <= r2 {
                    f(id, pos);
                }
            },
        );
    }

    /// Collects ids of every item within `radius` of `center`.
    pub fn query_circle(&self, center: Point, radius: f64) -> Vec<u32> {
        let mut out = Vec::new();
        self.for_each_in_circle(center, radius, |id, _| out.push(id));
        out
    }

    /// Calls `f(id, pos)` for every item inside `rect` (boundary
    /// inclusive) without allocating — the alloc-free core of
    /// [`query_rect`](Self::query_rect), sized O(items in cells
    /// overlapping `rect`). Visit order follows the bucket layout
    /// (row-major cells, insertion order within a cell), so callers
    /// needing a canonical order must impose it themselves.
    pub fn for_each_in_rect(&self, rect: Rect, mut f: impl FnMut(u32, Point)) {
        self.for_each_cell_overlapping(rect, |id, pos| {
            if rect.contains(pos) {
                f(id, pos);
            }
        });
    }

    /// Calls `f(id)` for every item inside `conduit` — exactly the
    /// items [`OrientedRect::contains`] accepts — that `admit` lets
    /// through. Only the cells under the conduit's bounding box are
    /// visited; `admit` is asked about items there (those outside the
    /// box included) before any containment test, so a cheap filter
    /// spares it. Visit order is the bucket layout's, as in
    /// [`for_each_in_rect`](Self::for_each_in_rect). This is the one
    /// conduit enumeration: conduit membership of APs and of building
    /// centroids both run through it.
    pub fn for_each_in_conduit(
        &self,
        conduit: &OrientedRect,
        mut admit: impl FnMut(u32) -> bool,
        mut f: impl FnMut(u32),
    ) {
        let bbox = conduit.bbox();
        if self.positions.is_empty() || !bbox.intersects(&self.bounds) {
            return;
        }
        // Which items pass the box and then the exact test is data, so
        // each stage keeps its survivors in `kept` by a count, not by a
        // branch: a mispredicted branch costs more than either test.
        let mut kept = [0u32; 64];
        let (cx0, cx1) = (self.col_of(bbox.min.x), self.col_of(bbox.max.x));
        for cy in self.row_of(bbox.min.y)..=self.row_of(bbox.max.y) {
            for run in self.row_items(cy, cx0, cx1).chunks(kept.len()) {
                let mut boxed = 0;
                for &id in run {
                    kept[boxed] = id;
                    boxed += usize::from(bbox.contains(self.positions[id as usize]) & admit(id));
                }
                let mut inside = 0;
                for i in 0..boxed {
                    let id = kept[i];
                    kept[inside] = id;
                    inside += usize::from(conduit.contains(self.positions[id as usize]));
                }
                kept[..inside].iter().for_each(|&id| f(id));
            }
        }
    }

    /// Collects ids of every item inside `rect` (boundary inclusive).
    pub fn query_rect(&self, rect: Rect) -> Vec<u32> {
        let mut out = Vec::new();
        self.for_each_in_rect(rect, |id, _| out.push(id));
        out
    }

    /// The id and distance of the item nearest to `p`, or `None` when
    /// the index is empty. Ties break toward the lower id.
    pub fn nearest(&self, p: Point) -> Option<(u32, f64)> {
        if self.positions.is_empty() {
            return None;
        }
        // Expanding ring search over cells, in units of the cell size.
        // Once the search radius covers the distance from `p` to the
        // far corner of the extent, every item has been examined.
        let mut radius = self.cell;
        let diag = self.bounds.width().hypot(self.bounds.height());
        let max_span = self.bounds.dist_to_point(p) + diag + self.cell;
        loop {
            let mut best: Option<(u32, f64)> = None;
            self.for_each_in_circle(p, radius, |id, pos| {
                let d = p.dist(pos);
                match best {
                    Some((bid, bd)) if d > bd || (d == bd && id > bid) => {}
                    _ => best = Some((id, d)),
                }
            });
            if let Some(hit) = best {
                return Some(hit);
            }
            if radius > max_span {
                // All items examined (radius covers the whole extent).
                return None;
            }
            radius *= 2.0;
        }
    }

    fn for_each_cell_overlapping(&self, rect: Rect, mut f: impl FnMut(u32, Point)) {
        if self.positions.is_empty() || !rect.intersects(&self.bounds) {
            return;
        }
        let (cx0, cx1) = (self.col_of(rect.min.x), self.col_of(rect.max.x));
        for cy in self.row_of(rect.min.y)..=self.row_of(rect.max.y) {
            for &id in self.row_items(cy, cx0, cx1) {
                f(id, self.positions[id as usize]);
            }
        }
    }

    /// The grid column holding abscissa `x`, clamped to the grid.
    fn col_of(&self, x: f64) -> usize {
        cell_along(x - self.bounds.min.x, self.cell, self.nx)
    }

    /// The grid row holding ordinate `y`, clamped to the grid.
    fn row_of(&self, y: f64) -> usize {
        cell_along(y - self.bounds.min.y, self.cell, self.ny)
    }

    /// The items of columns `cx0..=cx1` of row `cy`, cell by cell: the
    /// cells of a row are adjacent in the bucket layout.
    fn row_items(&self, cy: usize, cx0: usize, cx1: usize) -> &[u32] {
        let lo = self.starts[cy * self.nx + cx0] as usize;
        let hi = self.starts[cy * self.nx + cx1 + 1] as usize;
        &self.items[lo..hi]
    }
}

/// The cell `offset` meters along an axis of `n` cells of size `cell`
/// falls in, clamped to `0..n`.
fn cell_along(offset: f64, cell: f64, n: usize) -> usize {
    ((offset / cell).floor().max(0.0) as usize).min(n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_of_points() -> (Vec<Point>, GridIndex) {
        // 10×10 lattice with 10 m spacing.
        let mut pts = Vec::new();
        for y in 0..10 {
            for x in 0..10 {
                pts.push(Point::new(x as f64 * 10.0, y as f64 * 10.0));
            }
        }
        let idx = GridIndex::build(&pts, 25.0);
        (pts, idx)
    }

    #[test]
    fn circle_query_matches_brute_force() {
        let (pts, idx) = grid_of_points();
        for (center, radius) in [
            (Point::new(45.0, 45.0), 15.0),
            (Point::new(0.0, 0.0), 10.0),
            (Point::new(95.0, 5.0), 30.0),
            (Point::new(-50.0, -50.0), 20.0), // fully outside
            (Point::new(50.0, 50.0), 500.0),  // covers everything
        ] {
            let mut expect: Vec<u32> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| center.dist(**p) <= radius)
                .map(|(i, _)| i as u32)
                .collect();
            let mut got = idx.query_circle(center, radius);
            expect.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, expect, "center={center:?} r={radius}");
        }
    }

    #[test]
    fn rect_query_matches_brute_force() {
        let (pts, idx) = grid_of_points();
        let rect = Rect::from_corners(Point::new(15.0, 15.0), Point::new(60.0, 40.0));
        let mut expect: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| rect.contains(**p))
            .map(|(i, _)| i as u32)
            .collect();
        let mut got = idx.query_rect(rect);
        expect.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn for_each_in_rect_passes_matching_positions() {
        let (pts, idx) = grid_of_points();
        let rect = Rect::from_corners(Point::new(0.0, 0.0), Point::new(25.0, 25.0));
        let mut seen = 0usize;
        idx.for_each_in_rect(rect, |id, pos| {
            assert_eq!(pos, pts[id as usize]);
            assert!(rect.contains(pos));
            seen += 1;
        });
        assert_eq!(seen, 9); // 3×3 lattice corner
    }

    #[test]
    fn conduit_query_matches_brute_force() {
        use crate::{Segment, EPS};
        let (mut pts, _) = grid_of_points();
        // Two points straddling the `contains` tolerance of the first
        // conduit's long side.
        pts.push(Point::new(50.0, 20.0 + 7.5 + EPS / 2.0));
        pts.push(Point::new(50.0, 20.0 + 7.5 + 2.0 * EPS));
        let idx = GridIndex::build(&pts, 25.0);
        for conduit in [
            OrientedRect::new(
                Segment::new(Point::new(0.0, 20.0), Point::new(90.0, 20.0)),
                15.0,
            ),
            OrientedRect::new(
                Segment::new(Point::new(5.0, 5.0), Point::new(80.0, 60.0)),
                22.0,
            ),
            OrientedRect::new(
                Segment::new(Point::new(40.0, 40.0), Point::new(40.0, 40.0)),
                30.0,
            ),
        ] {
            let expect: Vec<u32> = (0..pts.len() as u32)
                .filter(|&id| conduit.contains(pts[id as usize]))
                .collect();
            let mut got = Vec::new();
            idx.for_each_in_conduit(&conduit, |_| true, |id| got.push(id));
            got.sort_unstable();
            assert_eq!(got, expect, "{conduit:?}");
            // `admit` filters before the exact test.
            let mut odd = Vec::new();
            idx.for_each_in_conduit(&conduit, |id| id % 2 == 1, |id| odd.push(id));
            odd.sort_unstable();
            let want: Vec<u32> = expect.iter().copied().filter(|id| id % 2 == 1).collect();
            assert_eq!(odd, want);
        }
    }

    #[test]
    fn boundary_radius_is_inclusive() {
        let pts = [Point::new(0.0, 0.0), Point::new(50.0, 0.0)];
        let idx = GridIndex::build(&pts, 50.0);
        let got = idx.query_circle(Point::new(0.0, 0.0), 50.0);
        assert_eq!(got.len(), 2, "point at exactly r must be included");
    }

    #[test]
    fn nearest_finds_closest_point() {
        let (_, idx) = grid_of_points();
        let (id, d) = idx.nearest(Point::new(42.0, 38.0)).unwrap();
        assert_eq!(idx.position(id), Point::new(40.0, 40.0));
        assert!((d - (2.0f64 * 2.0 + 2.0 * 2.0).sqrt()).abs() < 1e-12);
        // Far away still terminates and finds something.
        let (_, d_far) = idx.nearest(Point::new(1e5, 1e5)).unwrap();
        assert!(d_far > 0.0);
    }

    #[test]
    fn empty_and_single_item_index() {
        let idx = GridIndex::build(&[], 10.0);
        assert!(idx.is_empty());
        assert!(idx.nearest(Point::ORIGIN).is_none());
        assert!(idx.query_circle(Point::ORIGIN, 100.0).is_empty());

        let one = GridIndex::build(&[Point::new(3.0, 4.0)], 10.0);
        assert_eq!(one.len(), 1);
        assert_eq!(one.nearest(Point::ORIGIN), Some((0, 5.0)));
    }

    #[test]
    fn identical_positions_all_returned() {
        let p = Point::new(7.0, 7.0);
        let idx = GridIndex::build(&[p, p, p], 10.0);
        let got = idx.query_circle(p, 0.0);
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn far_flung_points_widen_the_cell_not_the_grid() {
        // 1,000 km apart at 1 m cells would be 10^12 cells.
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(1.0e6, 1.0e6),
        ];
        let idx = GridIndex::build(&pts, 1.0);
        assert!(idx.nx * idx.ny <= MIN_CELL_BUDGET);
        assert_eq!(idx.cell, 1024.0);
        let mut near = idx.query_circle(Point::ORIGIN, 3.0);
        near.sort_unstable();
        assert_eq!(near, vec![0, 1]);
        assert_eq!(idx.nearest(Point::new(9.9e5, 1.0e6)), Some((2, 1.0e4)));

        // Even a span no finite cell covers builds, and answers.
        let extreme = [Point::new(-1.0e308, -1.0e308), Point::new(1.0e308, 1.0e308)];
        let idx = GridIndex::build(&extreme, 100.0);
        assert_eq!(idx.nx * idx.ny, 1);
        assert_eq!(idx.query_circle(extreme[1], 0.0), vec![1]);
    }

    #[test]
    fn dense_grids_keep_the_requested_cell() {
        let (_, idx) = grid_of_points();
        assert_eq!(idx.cell, 25.0);
        assert_eq!((idx.nx, idx.ny), (4, 4));
    }

    #[test]
    #[should_panic(expected = "cell_size")]
    fn zero_cell_size_panics() {
        GridIndex::build(&[Point::ORIGIN], 0.0);
    }
}
