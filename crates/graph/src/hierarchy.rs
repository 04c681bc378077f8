//! District partition + border-node overlay: hierarchical routing.
//!
//! Flat point-to-point search is linear in the searched corridor, and
//! the corridor grows with the city. At metro scale (100k+ buildings)
//! even a well-guided A* touches tens of thousands of vertices per
//! query. This module collapses that cost the way Netsukuku's fractal
//! levels collapse routing state: split the graph into **districts**,
//! precompute how each district is crossed, and answer queries on a
//! much smaller **overlay** of district border nodes.
//!
//! # Construction
//!
//! * [`Partition::grid`] deterministically assigns every vertex to a
//!   grid cell ("district") of roughly `target_district_size` members.
//! * [`Hierarchy::build`] finds the **border nodes** — vertices with at
//!   least one edge into another district — and runs one Dijkstra
//!   *restricted to the district* from each of them. What those
//!   searches compute is kept whole, as each district's **border ×
//!   member table**: row `b` holds the restricted distance from border
//!   `b` to every member, borders first. Netsukuku's rule — a group's
//!   border nodes hold the group's internal map — in array form.
//! * The overlay's arcs are then
//!   * **crossing arcs**: the original inter-district edges, verbatim,
//!     stored per node;
//!   * **intra arcs**: for every pair of borders of one district, their
//!     restricted distance — the first `|borders|` entries of a row,
//!     not stored a second time.
//!
//! # Exactness
//!
//! Any shortest path decomposes at its district crossings into maximal
//! in-district segments. Each segment's endpoints are the query
//! endpoints or border nodes, each segment is a restricted path (no
//! crossing edge inside it, so it never leaves the district), and the
//! precomputed intra arc can only be cheaper or equal. Conversely every
//! overlay arc expands into a real path of exactly its weight. Hence
//!
//! ```text
//! d(s, t) = min( d_restricted(s, t)            — same district only,
//!                min over borders b_s of D(s), b_t of D(t) of
//!                  d_restricted(s, b_s) + d_overlay(b_s, b_t)
//!                                      + d_restricted(b_t, t) )
//! ```
//!
//! and hierarchical cost **equals** flat-optimal cost (the proptests in
//! `citymesh-core` assert this).
//!
//! # A query is lookups, one small search, and walks
//!
//! The two endpoint terms above are table *columns*: the overlay
//! search is seeded with `d(b, src)` for every border `b` of `D(src)`
//! and closed with `d(b, dst)` for every border of `D(dst)`, both read,
//! not searched for. Only a same-district pair runs a search of the
//! graph itself — one early-exit restricted A* for the direct
//! candidate.
//!
//! The overlay search is an ALT A*: overlay distances between border
//! nodes equal *true graph distances* (by the argument above), so
//! farthest-point landmarks over the overlay yield the classic
//! triangle-inequality bound. The landmark-to-target values are
//! assembled per query from the target-side column
//! (`L̂_k(t) = min over borders b of D(t) of L_k(b) + d(b, t)`), which
//! is exact; the caller's own lower bound is the other half of the
//! heuristic.
//!
//! **Intra arcs are relaxed only out of a node the search entered by a
//! crossing arc.** Restricted distances inside one district obey the
//! triangle inequality, so a node reached by an intra arc from `y`
//! offers its district-mates nothing `y` did not already offer them,
//! and a seed — whose key already *is* a restricted distance from the
//! source — offers nothing the other seeds lack. A node relaxes the
//! whole border clique of its district only when its overlay parent
//! lies in another district. There is no exemption for the
//! destination's district: a route may pass *through* it.
//!
//! The winning node sequence is unpacked by **row descent**. Row `b`
//! was written by `T[v] = T[u] + w(u, v)` along a Dijkstra tree rooted
//! at `b`, so from any member `v` the step to the smallest-id
//! in-district neighbour `u` with `T[u] + w(u, v) == T[v]` (bit for
//! bit) retraces that tree, and the smallest such `u` is the parent
//! the crate's canonical tie-break chose. The source leg, the
//! destination leg and every intra arc are one such walk each — no
//! search, no scratch. The walk needs `T[u] < T[v]` along every tree
//! edge to terminate, which [`Hierarchy::build`] checks as it writes
//! each row (a zero-weight edge, or a weight lost to rounding, fails
//! it).
//!
//! # Canonical tie-breaks
//!
//! All sub-searches (restricted Dijkstras, the overlay A*, the direct
//! same-district A*) use the crate-wide canonical rule: pop by *(key, vertex
//! id)* ascending, and relax through [`PlannerScratch::relax`] — update
//! on strict improvement or an exact tie with a smaller-id parent, never
//! update settled vertices. Two further rules
//! are specific to this module and documented on
//! [`Hierarchy::plan_path_into`]: an exact cost tie between the direct
//! same-district route and an overlay route resolves to the **direct**
//! route, and ties between overlay terminal candidates resolve to the
//! candidate settled first (smallest key, then smallest node id).
//!
//! # The graph the tables describe
//!
//! A query trusts every district's table, so it answers on the graph
//! the hierarchy was built over and nothing else: there is no vertex
//! filter. A caller routing around failed vertices searches the flat
//! graph instead ([`crate::astar_path_filtered_into`]).

use crate::landmarks::FarthestPoint;
use crate::scratch::{astar_path_filtered_into, dijkstra_tree_with, PlannerScratch};
use crate::{bucket_by_key, CsrGraph, INFINITY};

/// Upper bound on [`HierParams::overlay_landmarks`] (a per-query
/// stack-array of landmark-to-target bounds is sized by it).
pub const MAX_OVERLAY_LANDMARKS: usize = 16;

/// Tuning knobs for [`Partition::grid`] and [`Hierarchy::build`].
#[derive(Clone, Copy, Debug)]
pub struct HierParams {
    /// Rough vertex count per district. A district of `m` members has
    /// about `√m` borders: larger districts shrink the overlay and
    /// widen each node's border clique, and the table grows as
    /// `n · √m` entries.
    pub target_district_size: usize,
    /// Farthest-point ALT landmarks over the overlay graph
    /// (≤ [`MAX_OVERLAY_LANDMARKS`]).
    pub overlay_landmarks: usize,
}

impl Default for HierParams {
    fn default() -> Self {
        HierParams {
            target_district_size: 128,
            overlay_landmarks: 8,
        }
    }
}

/// A deterministic assignment of vertices to districts, with CSR
/// member lists.
#[derive(Clone, Debug, Default)]
pub struct Partition {
    num_districts: u32,
    district_of: Vec<u32>,
    member_start: Vec<u32>,
    members: Vec<u32>,
}

impl Partition {
    /// Grid partition over vertex positions: the bounding box is split
    /// into `cx × cy` cells whose aspect follows the box and whose
    /// count targets `n / target_district_size` districts. Cell ids are
    /// row-major; the construction is a pure function of the inputs.
    ///
    /// # Panics
    /// Panics when `target_district_size` is zero or any coordinate is
    /// non-finite.
    pub fn grid(positions: &[(f64, f64)], target_district_size: usize) -> Partition {
        assert!(target_district_size > 0, "district size must be positive");
        let n = positions.len();
        if n == 0 {
            return Partition::default();
        }
        let (mut min_x, mut max_x) = (INFINITY, -INFINITY);
        let (mut min_y, mut max_y) = (INFINITY, -INFINITY);
        for &(x, y) in positions {
            assert!(x.is_finite() && y.is_finite(), "non-finite position");
            min_x = min_x.min(x);
            max_x = max_x.max(x);
            min_y = min_y.min(y);
            max_y = max_y.max(y);
        }
        let want = n.div_ceil(target_district_size);
        let w = (max_x - min_x).max(1e-9);
        let h = (max_y - min_y).max(1e-9);
        let cx = ((want as f64 * w / h).sqrt().round() as usize).max(1);
        let cy = want.div_ceil(cx).max(1);
        let mut district_of = Vec::with_capacity(n);
        for &(x, y) in positions {
            let ix = ((((x - min_x) / w) * cx as f64) as usize).min(cx - 1);
            let iy = ((((y - min_y) / h) * cy as f64) as usize).min(cy - 1);
            district_of.push((iy * cx + ix) as u32);
        }
        // The sort is stable, so members stay ascending in each district.
        let by_district = district_of.iter().enumerate().map(|(v, &d)| (d, v as u32));
        let (member_start, members) = bucket_by_key(cx * cy, by_district);
        Partition {
            num_districts: (cx * cy) as u32,
            district_of,
            member_start,
            members,
        }
    }

    /// Number of districts (grid cells; some may be empty).
    #[inline]
    pub fn num_districts(&self) -> usize {
        self.num_districts as usize
    }

    /// The district containing vertex `v`.
    #[inline]
    pub fn district_of(&self, v: u32) -> u32 {
        self.district_of[v as usize]
    }

    /// The member vertices of district `d`, ascending.
    #[inline]
    pub fn members(&self, d: u32) -> &[u32] {
        let i = d as usize;
        &self.members[self.member_start[i] as usize..self.member_start[i + 1] as usize]
    }

    /// Heap bytes held by the partition tables.
    pub fn memory_bytes(&self) -> usize {
        (self.district_of.capacity() + self.member_start.capacity() + self.members.capacity())
            * std::mem::size_of::<u32>()
    }
}

/// Cumulative counters a [`HierScratch`] keeps across queries — the
/// telemetry feed for the hierarchical planner (overlay work, route
/// unpacking).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HierStats {
    /// Queries answered (including trivial `src == dst`).
    pub queries: u64,
    /// Queries won by the direct same-district route.
    pub direct_routes: u64,
    /// Overlay nodes settled across all queries.
    pub overlay_settled: u64,
    /// Intra-district arcs unpacked into vertex paths while
    /// reconstructing winning routes.
    pub expansions: u64,
    /// Always zero: a query trusts every district's table, so nothing
    /// is rescanned. Kept only because `citymesh-perf` builds
    /// `HierStats` field by field; it goes when that code does.
    pub dirty_rescans: u64,
}

/// Reusable buffers for [`Hierarchy::plan_path_into`]: two
/// [`PlannerScratch`]es (the overlay search, and a same-district pair's
/// direct A*), the per-query terminal distances, and path-assembly
/// buffers. Warm queries allocate nothing.
#[derive(Clone, Debug, Default)]
pub struct HierScratch {
    overlay: PlannerScratch,
    district: PlannerScratch,
    /// `d(b, dst)` for the borders `b` of the destination's district,
    /// in `borders` order.
    term: Vec<f64>,
    node_seq: Vec<u32>,
    leg: Vec<u32>,
    /// Cumulative query counters (never reset by the planner).
    pub stats: HierStats,
}

impl HierScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The hierarchical routing structure: a [`Partition`] plus the border
/// overlay (nodes, crossing arcs, the border × member distance tables,
/// overlay landmarks).
///
/// Built once per graph by [`Hierarchy::build`]; queries run through
/// [`Hierarchy::plan_path_into`] against a reusable [`HierScratch`].
#[derive(Clone, Debug)]
pub struct Hierarchy {
    part: Partition,
    /// overlay node id → vertex id, ascending.
    node_vertex: Vec<u32>,
    /// overlay node id → district.
    node_district: Vec<u32>,
    /// CSR of crossing arcs per node.
    arc_start: Vec<u32>,
    arc_to: Vec<u32>,
    arc_weight: Vec<f64>,
    /// CSR of border node ids per district, ascending.
    border_start: Vec<u32>,
    border_nodes: Vec<u32>,
    /// vertex → its column in the rows of its district: borders first,
    /// in `borders` order, then the other members ascending.
    col: Vec<u32>,
    /// overlay node id → offset of its row in `table`.
    row_start: Vec<usize>,
    /// Every district's border × member block, row-major:
    /// `table[row_start[b] + col[v]]` is the distance from border `b`
    /// to member `v` of its district over paths that stay inside it
    /// (infinite when there is none). A row's first `|borders|` entries
    /// are the weights of `b`'s intra arcs.
    table: Vec<f64>,
    /// Overlay ALT landmarks: `lm_dist[node * lm_count + k]`.
    lm_count: usize,
    lm_dist: Vec<f64>,
}

impl Hierarchy {
    /// Builds the overlay for `g` under `part`.
    ///
    /// Costs one restricted Dijkstra per border node (its table row)
    /// and one overlay Dijkstra per overlay landmark. This is
    /// prepare-time work; the query path allocates nothing once warm.
    ///
    /// # Panics
    /// Panics when `part` does not cover `g`'s vertices, `params`
    /// exceed the landmark maximum, or some restricted distance does
    /// not strictly grow along its shortest-path tree — an in-district
    /// edge of weight zero (or so small that a sum absorbs it), which
    /// row descent cannot walk.
    pub fn build(g: &CsrGraph, part: Partition, params: &HierParams) -> Hierarchy {
        let n = g.num_vertices();
        assert_eq!(part.district_of.len(), n, "partition does not cover graph");
        assert!(
            params.overlay_landmarks <= MAX_OVERLAY_LANDMARKS,
            "at most {MAX_OVERLAY_LANDMARKS} overlay landmarks"
        );
        let nd = part.num_districts();

        // Border nodes, ascending by vertex id.
        let mut node_of = vec![u32::MAX; n];
        let mut node_vertex = Vec::new();
        let mut crossings = 0;
        for v in 0..n as u32 {
            let d = part.district_of[v as usize];
            let edges = g.neighbors(v).iter();
            let leaving = edges
                .filter(|e| part.district_of[e.to as usize] != d)
                .count();
            if leaving > 0 {
                node_of[v as usize] = node_vertex.len() as u32;
                node_vertex.push(v);
                crossings += leaving;
            }
        }
        node_vertex.shrink_to_fit();
        let nodes = node_vertex.len();
        let node_district: Vec<u32> = node_vertex
            .iter()
            .map(|&v| part.district_of[v as usize])
            .collect();

        // Borders per district (the sort is stable, so node ids stay
        // ascending within each district).
        let by_district = node_district
            .iter()
            .enumerate()
            .map(|(nb, &d)| (d, nb as u32));
        let (border_start, border_nodes) = bucket_by_key(nd, by_district);

        // Table columns: a district's borders in `border_nodes` order
        // (ascending vertex id, so the order `members` lists them in),
        // then everyone else.
        let mut col = vec![0u32; n];
        let mut row_start = vec![0usize; nodes];
        let mut table_len = 0;
        for d in 0..nd {
            let ms = part.members(d as u32);
            let (b0, b1) = (border_start[d] as usize, border_start[d + 1] as usize);
            let (mut next_border, mut next_inner) = (0, (b1 - b0) as u32);
            for &m in ms {
                let next = if node_of[m as usize] != u32::MAX {
                    &mut next_border
                } else {
                    &mut next_inner
                };
                col[m as usize] = *next;
                *next += 1;
            }
            for &nb in &border_nodes[b0..b1] {
                row_start[nb as usize] = table_len;
                table_len += ms.len();
            }
        }

        // Crossing arcs verbatim, and one restricted Dijkstra per
        // border — bounded by the district boundary itself — kept whole
        // as that border's row. A parent settles before its child, so
        // its entry in the row is already written when the child's is
        // checked against it.
        let mut arc_start = vec![0u32; nodes + 1];
        let mut arc_to = Vec::with_capacity(crossings);
        let mut arc_weight = Vec::with_capacity(crossings);
        let mut table = vec![INFINITY; table_len];
        let mut scratch = PlannerScratch::new();
        for nb in 0..nodes {
            let v = node_vertex[nb];
            let d = node_district[nb];
            for e in g.neighbors(v) {
                if part.district_of[e.to as usize] != d {
                    arc_to.push(node_of[e.to as usize]);
                    arc_weight.push(e.weight);
                }
            }
            arc_start[nb + 1] = arc_to.len() as u32;
            let row = &mut table[row_start[nb]..];
            let in_district = |u: u32| part.district_of[u as usize] == d;
            dijkstra_tree_with(g, v, in_district, &mut scratch, |m, parent, dist| {
                assert!(
                    parent == u32::MAX || row[col[parent as usize] as usize] < dist,
                    "restricted distance from {v} does not grow along edge {parent} -> {m}: \
                     in-district edge weights must be positive"
                );
                row[col[m as usize] as usize] = dist;
            });
        }

        let mut hier = Hierarchy {
            part,
            node_vertex,
            node_district,
            arc_start,
            arc_to,
            arc_weight,
            border_start,
            border_nodes,
            col,
            row_start,
            table,
            lm_count: params.overlay_landmarks.min(nodes),
            lm_dist: Vec::new(),
        };

        // Overlay ALT landmarks: farthest-point over overlay nodes,
        // seeded at node 0, first-maximum ties — the same discipline as
        // the flat planner's global landmarks.
        let k = hier.lm_count;
        let mut lm_dist = vec![INFINITY; nodes * k];
        let mut sampler = FarthestPoint::new(nodes);
        for ki in 0..k {
            hier.overlay_sssp(sampler.pick() as u32, &mut scratch);
            for nb in 0..nodes {
                lm_dist[nb * k + ki] = scratch.entry(nb as u32).0;
            }
            sampler.observe(|nb| scratch.entry(nb as u32).0);
        }
        hier.lm_dist = lm_dist;
        hier
    }

    /// The partition the overlay was built over.
    #[inline]
    pub fn partition(&self) -> &Partition {
        &self.part
    }

    /// Number of overlay (border) nodes.
    #[inline]
    pub fn num_border_nodes(&self) -> usize {
        self.node_vertex.len()
    }

    /// Heap bytes held by the overlay (partition included).
    pub fn memory_bytes(&self) -> usize {
        let u32s = self.node_vertex.capacity()
            + self.node_district.capacity()
            + self.arc_start.capacity()
            + self.arc_to.capacity()
            + self.border_start.capacity()
            + self.border_nodes.capacity()
            + self.col.capacity();
        let f64s = self.arc_weight.capacity() + self.lm_dist.capacity() + self.table.capacity();
        self.part.memory_bytes()
            + u32s * std::mem::size_of::<u32>()
            + self.row_start.capacity() * std::mem::size_of::<usize>()
            + f64s * std::mem::size_of::<f64>()
    }

    #[inline]
    fn borders(&self, d: u32) -> &[u32] {
        let i = d as usize;
        &self.border_nodes[self.border_start[i] as usize..self.border_start[i + 1] as usize]
    }

    /// Row of border node `nb`, from its first column to the end of the
    /// table: `row(nb)[col[v]]` for any member `v` of its district.
    #[inline]
    fn row(&self, nb: u32) -> &[f64] {
        &self.table[self.row_start[nb as usize]..]
    }

    /// `nb`'s crossing arcs, `(target node, weight)`.
    #[inline]
    fn crossing_arcs(&self, nb: u32) -> impl Iterator<Item = (u32, f64)> + '_ {
        let arcs = self.arc_start[nb as usize] as usize..self.arc_start[nb as usize + 1] as usize;
        let weights = &self.arc_weight[arcs.clone()];
        self.arc_to[arcs]
            .iter()
            .copied()
            .zip(weights.iter().copied())
    }

    /// Single-source Dijkstra over the whole overlay — crossing arcs
    /// plus every district's border × border block — from node
    /// `source` (build-time helper for the overlay landmark tables).
    fn overlay_sssp(&self, source: u32, scratch: &mut PlannerScratch) {
        scratch.begin(self.node_vertex.len());
        scratch.write(source, 0.0, u32::MAX);
        scratch.push(0.0, source);
        while let Some((_, u)) = scratch.pop() {
            if scratch.is_settled(u) {
                continue;
            }
            scratch.settle(u);
            let (du, _) = scratch.entry(u);
            for (to, w) in self.crossing_arcs(u) {
                scratch.relax(u, to, du + w, |_| 0.0);
            }
            let borders = self.borders(self.node_district[u as usize]);
            for (&to, &w) in borders.iter().zip(self.row(u)) {
                if w.is_finite() {
                    scratch.relax(u, to, du + w, |_| 0.0);
                }
            }
        }
    }

    /// Writes the restricted shortest path from member `v` of border
    /// node `nb`'s district to that border, `v` first, into `out`, by
    /// row descent (module docs): from each vertex to its parent in the
    /// Dijkstra tree `nb`'s row was written along.
    fn path_to_border(&self, g: &CsrGraph, nb: u32, v: u32, out: &mut Vec<u32>) {
        let district_of = &self.part.district_of;
        let d = self.node_district[nb as usize];
        let root = self.node_vertex[nb as usize];
        let row = self.row(nb);
        let t = |u: u32| row[self.col[u as usize] as usize];
        out.clear();
        out.push(v);
        let (mut cur, mut t_cur) = (v, t(v));
        while cur != root {
            let (mut parent, mut t_parent) = (u32::MAX, INFINITY);
            for e in g.neighbors(cur) {
                if e.to < parent && district_of[e.to as usize] == d {
                    let tu = t(e.to);
                    if tu < t_cur && tu + e.weight == t_cur {
                        (parent, t_parent) = (e.to, tu);
                    }
                }
            }
            assert!(parent != u32::MAX, "row descent left the tree at {cur}");
            (cur, t_cur) = (parent, t_parent);
            out.push(cur);
        }
    }

    /// Hierarchical point-to-point search: writes the path into `out`
    /// and returns `false` (with `out` cleared) when `dst` is
    /// unreachable. The returned route's cost equals the flat-optimal
    /// cost exactly (see the module docs for the argument; the exact
    /// vertex sequence may differ from the flat planner's on cost
    /// ties).
    ///
    /// `lb(a, b)` must be an admissible, consistent lower bound on the
    /// true cost between any two vertices (`|_, _| 0.0` is always
    /// valid; the building graph passes its ALT + Euclidean bound).
    ///
    /// Tie-breaks: an exact cost tie between the direct same-district
    /// route and any overlay route resolves to the direct route; ties
    /// between overlay candidates resolve to the one settled first
    /// (smallest key, then smallest node id); every sub-search uses the
    /// crate's canonical (key, id, min-parent) rule.
    ///
    /// # Panics
    /// Panics when `src` or `dst` is out of range.
    pub fn plan_path_into(
        &self,
        g: &CsrGraph,
        src: u32,
        dst: u32,
        lb: impl Fn(u32, u32) -> f64,
        scratch: &mut HierScratch,
        out: &mut Vec<u32>,
    ) -> bool {
        let n = g.num_vertices();
        assert!(
            (src as usize) < n && (dst as usize) < n,
            "vertex out of range"
        );
        out.clear();
        scratch.stats.queries += 1;
        if src == dst {
            out.push(src);
            scratch.stats.direct_routes += 1;
            return true;
        }
        let district_of = &self.part.district_of;
        let ds = district_of[src as usize];
        let dt = district_of[dst as usize];

        // Terminals d(b, dst), and from them the per-query
        // landmark-to-target bounds
        // L̂_k(dst) = min over target-side borders of L_k(b) + d(b, dst).
        let k = self.lm_count;
        let mut lm_t = [INFINITY; MAX_OVERLAY_LANDMARKS];
        let dst_col = self.col[dst as usize] as usize;
        scratch.term.clear();
        for &bt in self.borders(dt) {
            let dtv = self.row(bt)[dst_col];
            scratch.term.push(dtv);
            if !dtv.is_finite() {
                continue;
            }
            for (ki, slot) in lm_t.iter_mut().take(k).enumerate() {
                let l = self.lm_dist[bt as usize * k + ki];
                if l.is_finite() && l + dtv < *slot {
                    *slot = l + dtv;
                }
            }
        }
        let h = |nb: u32| -> f64 {
            let v = self.node_vertex[nb as usize];
            let mut best_h = lb(v, dst).max(0.0);
            let base = nb as usize * k;
            for (ki, &t) in lm_t.iter().take(k).enumerate() {
                let l = self.lm_dist[base + ki];
                if l.is_finite() && t.is_finite() {
                    let diff = (l - t).abs();
                    if diff > best_h {
                        best_h = diff;
                    }
                }
            }
            best_h
        };

        // The direct candidate of a same-district pair: restricted to
        // the district, so an overlay route must beat it strictly.
        let mut best = INFINITY;
        if ds == dt {
            astar_path_filtered_into(
                g,
                src,
                dst,
                |v| lb(v, dst).max(0.0),
                |v| district_of[v as usize] == ds,
                &mut scratch.district,
                out,
            );
        }
        if !out.is_empty() {
            best = scratch.district.entry(dst).0;
        }
        let mut best_node = u32::MAX;

        // Overlay A*, seeded with every reachable source-side border.
        let src_col = self.col[src as usize] as usize;
        scratch.overlay.begin(self.node_vertex.len());
        for &b in self.borders(ds) {
            let d0 = self.row(b)[src_col];
            if d0.is_finite() {
                scratch.overlay.write(b, d0, u32::MAX);
                scratch.overlay.push(d0 + h(b), b);
            }
        }
        while let Some((key, nb)) = scratch.overlay.pop() {
            if scratch.overlay.is_settled(nb) {
                continue;
            }
            if key >= best {
                // The heuristic is consistent, so keys pop in
                // nondecreasing order and no later candidate can beat
                // the incumbent.
                break;
            }
            scratch.overlay.settle(nb);
            scratch.stats.overlay_settled += 1;
            let (dnb, parent) = scratch.overlay.entry(nb);
            let v = self.node_vertex[nb as usize];
            let d_here = self.node_district[nb as usize];
            if d_here == dt {
                let via = dnb + scratch.term[self.col[v as usize] as usize];
                if via < best {
                    best = via;
                    best_node = nb;
                }
            }
            for (to, w) in self.crossing_arcs(nb) {
                scratch.overlay.relax(nb, to, dnb + w, h);
            }
            // Intra arcs only out of a node entered by a crossing arc:
            // by the triangle inequality a node entered from inside its
            // district — or a seed — cannot improve on what its
            // predecessor already offered the same borders.
            if parent == u32::MAX || self.node_district[parent as usize] == d_here {
                continue;
            }
            for (&to, &w) in self.borders(d_here).iter().zip(self.row(nb)) {
                if w.is_finite() {
                    scratch.overlay.relax(nb, to, dnb + w, h);
                }
            }
        }

        if best_node == u32::MAX {
            // Overlay never beat the direct candidate (or found
            // nothing). Cost ties resolve here, to the direct route.
            scratch.stats.direct_routes += u64::from(!out.is_empty());
            return !out.is_empty();
        }

        // Reconstruct: source leg, overlay node sequence (crossing
        // arcs verbatim, intra arcs unpacked), target leg.
        scratch.node_seq.clear();
        let mut cur = best_node;
        loop {
            scratch.node_seq.push(cur);
            let (_, p) = scratch.overlay.entry(cur);
            if p == u32::MAX {
                break;
            }
            cur = p;
        }
        scratch.node_seq.reverse();
        self.path_to_border(g, scratch.node_seq[0], src, out);
        for i in 1..scratch.node_seq.len() {
            let (a, b) = (scratch.node_seq[i - 1], scratch.node_seq[i]);
            let d = self.node_district[a as usize];
            let vb = self.node_vertex[b as usize];
            if d != self.node_district[b as usize] {
                out.push(vb); // a crossing arc is one original edge
            } else {
                // Row `a`, walked back from `b`: the tree the arc's
                // weight was measured along.
                scratch.stats.expansions += 1;
                self.path_to_border(g, a, vb, &mut scratch.leg);
                out.extend(scratch.leg.iter().rev().skip(1));
            }
        }
        self.path_to_border(g, best_node, dst, &mut scratch.leg);
        out.extend(scratch.leg.iter().rev().skip(1));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path cost under `g`'s weights.
    fn path_cost(g: &CsrGraph, path: &[u32]) -> f64 {
        path.windows(2)
            .map(|w| {
                g.neighbors(w[0])
                    .iter()
                    .filter(|e| e.to == w[1])
                    .map(|e| e.weight)
                    .fold(INFINITY, f64::min)
            })
            .sum()
    }

    /// A deterministic pseudo-random lattice: `nx × ny` grid positions
    /// with 4-neighbor edges whose weights vary by a hash.
    fn lattice(nx: u32, ny: u32) -> (CsrGraph, Vec<(f64, f64)>) {
        let (edges, pos) = lattice_edges(nx, ny);
        (CsrGraph::from_edges(pos.len(), &edges), pos)
    }

    type Edges = Vec<(u32, u32, f64)>;

    /// [`lattice`] as its edge list.
    fn lattice_edges(nx: u32, ny: u32) -> (Edges, Vec<(f64, f64)>) {
        let n = (nx * ny) as usize;
        let mut edges = Vec::new();
        let mut pos = Vec::with_capacity(n);
        let w = |a: u32, b: u32| {
            let mut z = ((a as u64) << 32 | b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z ^= z >> 29;
            1.0 + (z % 97) as f64
        };
        for y in 0..ny {
            for x in 0..nx {
                let v = y * nx + x;
                pos.push((x as f64 * 10.0, y as f64 * 10.0));
                if x + 1 < nx {
                    edges.push((v, v + 1, w(v, v + 1)));
                }
                if y + 1 < ny {
                    edges.push((v, v + nx, w(v, v + nx)));
                }
            }
        }
        (edges, pos)
    }

    fn assert_same_cost(g: &CsrGraph, hier: &[u32], flat: &[u32], what: &str) {
        let (hc, fc) = (path_cost(g, hier), path_cost(g, flat));
        assert!(
            (hc - fc).abs() <= 1e-9 * fc.max(1.0),
            "{what}: hier cost {hc} != flat cost {fc}"
        );
    }

    #[test]
    fn grid_partition_is_deterministic_and_covers() {
        let (_, pos) = lattice(12, 9);
        let p1 = Partition::grid(&pos, 10);
        let p2 = Partition::grid(&pos, 10);
        let mut seen = 0usize;
        for d in 0..p1.num_districts() as u32 {
            for &m in p1.members(d) {
                assert_eq!(p1.district_of(m), d);
                seen += 1;
            }
            assert!(p1.members(d).windows(2).all(|w| w[0] < w[1]));
            assert_eq!(p1.members(d), p2.members(d));
        }
        assert_eq!(seen, pos.len());
        assert!(p1.num_districts() >= pos.len() / 10);
    }

    #[test]
    fn hier_matches_flat_cost_on_lattice() {
        let (g, pos) = lattice(16, 12);
        let part = Partition::grid(&pos, 20);
        let hier = Hierarchy::build(&g, part, &HierParams::default());
        let mut hs = HierScratch::new();
        let mut ps = PlannerScratch::new();
        let (mut hp, mut fp) = (Vec::new(), Vec::new());
        for (src, dst) in [
            (0u32, 191u32),
            (5, 186),
            (0, 15),
            (100, 101),
            (37, 37),
            (191, 0),
        ] {
            let hok = hier.plan_path_into(&g, src, dst, |_, _| 0.0, &mut hs, &mut hp);
            let fok = astar_path_filtered_into(&g, src, dst, |_| 0.0, |_| true, &mut ps, &mut fp);
            assert_eq!(hok, fok, "({src},{dst}) reachability");
            assert_eq!(hp.first(), Some(&src));
            assert_eq!(hp.last(), Some(&dst));
            assert_same_cost(&g, &hp, &fp, "healthy");
        }
    }

    #[test]
    fn disconnected_pairs_fail_honestly() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]);
        let pos = vec![(0.0, 0.0), (1.0, 0.0), (50.0, 50.0), (51.0, 50.0)];
        let part = Partition::grid(&pos, 2);
        let hier = Hierarchy::build(&g, part, &HierParams::default());
        let mut hs = HierScratch::new();
        let mut out = vec![9];
        assert!(!hier.plan_path_into(&g, 0, 3, |_, _| 0.0, &mut hs, &mut out));
        assert!(out.is_empty());
        assert!(hier.plan_path_into(&g, 0, 1, |_, _| 0.0, &mut hs, &mut out));
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn scratch_reuse_is_equivalent_to_fresh() {
        let (g, pos) = lattice(10, 10);
        let part = Partition::grid(&pos, 15);
        let hier = Hierarchy::build(&g, part, &HierParams::default());
        let mut warm = HierScratch::new();
        let mut warm_path = Vec::new();
        // Warm the scratch on unrelated pairs.
        for (s, d) in [(0u32, 99u32), (42, 57), (7, 93)] {
            hier.plan_path_into(&g, s, d, |_, _| 0.0, &mut warm, &mut warm_path);
        }
        for (s, d) in [(0u32, 99u32), (13, 88), (99, 0), (50, 55)] {
            let mut fresh = HierScratch::new();
            let mut fresh_path = Vec::new();
            let a = hier.plan_path_into(&g, s, d, |_, _| 0.0, &mut warm, &mut warm_path);
            let b = hier.plan_path_into(&g, s, d, |_, _| 0.0, &mut fresh, &mut fresh_path);
            assert_eq!(a, b);
            assert_eq!(warm_path, fresh_path, "({s},{d}) reuse changed the route");
        }
    }

    #[test]
    fn stats_accumulate() {
        let (g, pos) = lattice(12, 12);
        let part = Partition::grid(&pos, 16);
        let hier = Hierarchy::build(&g, part, &HierParams::default());
        let mut hs = HierScratch::new();
        let mut out = Vec::new();
        hier.plan_path_into(&g, 0, 143, |_, _| 0.0, &mut hs, &mut out);
        hier.plan_path_into(&g, 5, 5, |_, _| 0.0, &mut hs, &mut out);
        assert_eq!(hs.stats.queries, 2);
        assert!(hs.stats.direct_routes >= 1);
        assert!(hs.stats.overlay_settled > 0);
    }

    #[test]
    fn overlay_shape_is_sane() {
        let (g, pos) = lattice(12, 12);
        let part = Partition::grid(&pos, 16);
        let hier = Hierarchy::build(&g, part, &HierParams::default());
        assert!(hier.num_border_nodes() > 0);
        assert!(hier.num_border_nodes() < g.num_vertices());
        assert!(!hier.arc_to.is_empty());
        assert!(hier.memory_bytes() > hier.table.len() * 8);
        assert_eq!(hier.arc_to.capacity(), hier.arc_to.len());
        // Every border node really has a cross-district edge.
        for nb in 0..hier.num_border_nodes() {
            let v = hier.node_vertex[nb];
            let d = hier.partition().district_of(v);
            assert!(g
                .neighbors(v)
                .iter()
                .any(|e| hier.partition().district_of(e.to) != d));
        }
    }

    /// A unit-weight lattice: every pair of vertices more than a step
    /// apart is joined by several equal-cost paths.
    fn tied_lattice(nx: u32, ny: u32) -> (CsrGraph, Vec<(f64, f64)>) {
        let (mut edges, mut pos) = (Vec::new(), Vec::new());
        for y in 0..ny {
            for x in 0..nx {
                let v = y * nx + x;
                pos.push((x as f64, y as f64));
                if x + 1 < nx {
                    edges.push((v, v + 1, 1.0));
                }
                if y + 1 < ny {
                    edges.push((v, v + nx, 1.0));
                }
            }
        }
        (CsrGraph::from_edges(pos.len(), &edges), pos)
    }

    /// The Dijkstra from `root` restricted to district `d`, left in
    /// `scratch`.
    fn district_tree(
        hier: &Hierarchy,
        g: &CsrGraph,
        d: u32,
        root: u32,
        scratch: &mut PlannerScratch,
    ) {
        let in_district = |u: u32| hier.partition().district_of(u) == d;
        dijkstra_tree_with(g, root, in_district, scratch, |_, _, _| {});
    }

    #[test]
    fn row_descent_is_the_dijkstra_parent_chain() {
        for (g, pos) in [tied_lattice(14, 11), lattice(14, 11)] {
            let hier = Hierarchy::build(&g, Partition::grid(&pos, 24), &HierParams::default());
            let part = hier.partition();
            let mut reference = PlannerScratch::new();
            let (mut chain, mut walk) = (Vec::new(), Vec::new());
            let mut walked = 0;
            for nb in 0..hier.num_border_nodes() as u32 {
                let (root, d) = (
                    hier.node_vertex[nb as usize],
                    hier.node_district[nb as usize],
                );
                district_tree(&hier, &g, d, root, &mut reference);
                for &m in part.members(d) {
                    let (dist, _) = reference.entry(m);
                    assert_eq!(hier.row(nb)[hier.col[m as usize] as usize], dist);
                    if !dist.is_finite() {
                        continue;
                    }
                    reference.trace_into(m, &mut chain);
                    chain.reverse();
                    hier.path_to_border(&g, nb, m, &mut walk);
                    assert_eq!(walk, chain, "row {root}, member {m}");
                    walked += 1;
                }
            }
            assert!(walked > 1_000, "only {walked} descents compared");
        }
    }

    #[test]
    fn border_block_of_a_row_is_the_intra_arc_weights() {
        let (g, pos) = lattice(12, 12);
        let hier = Hierarchy::build(&g, Partition::grid(&pos, 16), &HierParams::default());
        let mut reference = PlannerScratch::new();
        for d in 0..hier.partition().num_districts() as u32 {
            let borders = hier.borders(d);
            for (rank, &nb) in borders.iter().enumerate() {
                let v = hier.node_vertex[nb as usize];
                assert_eq!(hier.col[v as usize] as usize, rank, "borders come first");
                district_tree(&hier, &g, d, v, &mut reference);
                // An intra arc weighs the restricted distance between
                // its two borders.
                let arcs: Vec<f64> = borders
                    .iter()
                    .map(|&b2| reference.entry(hier.node_vertex[b2 as usize]).0)
                    .collect();
                assert_eq!(&hier.row(nb)[..borders.len()], &arcs[..]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "edge weights must be positive")]
    fn a_zero_weight_edge_inside_a_district_is_rejected() {
        // Descent cannot tell parent from child across a free edge.
        let (mut edges, pos) = lattice_edges(6, 6);
        edges.push((14, 15, 0.0));
        let g = CsrGraph::from_edges(pos.len(), &edges);
        Hierarchy::build(&g, Partition::grid(&pos, 18), &HierParams::default());
    }

    #[test]
    fn queries_unpack_rows_and_rescan_nothing() {
        let (g, pos) = lattice(16, 12);
        let hier = Hierarchy::build(&g, Partition::grid(&pos, 20), &HierParams::default());
        let mut hs = HierScratch::new();
        let mut out = Vec::new();
        let n = g.num_vertices() as u32;
        for src in (0..n).step_by(7) {
            for dst in (0..n).step_by(11) {
                assert!(hier.plan_path_into(&g, src, dst, |_, _| 0.0, &mut hs, &mut out));
            }
        }
        assert!(hs.stats.expansions > 0 && hs.stats.direct_routes > 0);
        assert_eq!(hs.stats.dirty_rescans, 0);
    }
}
