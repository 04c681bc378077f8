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
//!   least one edge into another district — and connects them with two
//!   kinds of overlay arcs:
//!   * **crossing arcs**: the original inter-district edges, verbatim;
//!   * **intra arcs**: for every pair of borders of one district, the
//!     shortest-path cost *restricted to that district*, precomputed by
//!     one bounded Dijkstra per border.
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
//! `citymesh-core` assert this, healthy and faulted).
//!
//! # Goal direction
//!
//! The overlay search is an ALT A*: overlay distances between border
//! nodes equal *true graph distances* (by the argument above), so
//! farthest-point landmarks over the overlay yield the classic
//! triangle-inequality bound. The landmark-to-target values are
//! assembled per query from the target-side restricted distances
//! (`L̂_k(t) = min over borders b of D(t) of L_k(b) + d(b, t)`), which
//! is exact when healthy and a valid lower bound under faults (blocked
//! vertices only lengthen true distances). Intra-district expansions
//! use **per-district landmarks** the same way; because those landmarks
//! are chosen among the district's borders and expansions always target
//! a border, the heuristic is frequently exact and the expansion
//! settles little more than the path itself.
//!
//! # Canonical tie-breaks
//!
//! All sub-searches (restricted Dijkstras, the overlay A*, expansions)
//! use the crate-wide canonical rule: pop by *(key, vertex id)*
//! ascending, update on strict improvement or an exact tie with a
//! smaller-id parent, never update settled vertices. Two further rules
//! are specific to this module and documented on
//! [`Hierarchy::plan_path_into`]: an exact cost tie between the direct
//! same-district route and an overlay route resolves to the **direct**
//! route, and ties between overlay terminal candidates resolve to the
//! candidate settled first (smallest key, then smallest node id).
//!
//! # Faults
//!
//! Blocked vertices are handled exactly, not approximately: the caller
//! names the **dirty districts** (those containing a blocked vertex);
//! precomputed intra arcs of dirty districts are ignored and replaced,
//! at the moment a border of that district is settled, by an on-the-fly
//! filtered restricted Dijkstra. Clean districts — the vast majority —
//! keep their precomputed arcs.

use crate::landmarks::FarthestPoint;
use crate::scratch::PlannerScratch;
use crate::search::HeapItem;
use crate::{Adjacency, INFINITY};

/// Upper bound on [`HierParams::overlay_landmarks`] (a per-query
/// stack-array of landmark-to-target bounds is sized by it).
pub const MAX_OVERLAY_LANDMARKS: usize = 16;

/// Upper bound on [`HierParams::district_landmarks`].
pub const MAX_DISTRICT_LANDMARKS: usize = 8;

/// Tuning knobs for [`Partition::grid`] and [`Hierarchy::build`].
#[derive(Clone, Copy, Debug)]
pub struct HierParams {
    /// Rough vertex count per district. Districts trade endpoint-search
    /// cost (grows with size) against overlay size (shrinks with it).
    pub target_district_size: usize,
    /// Farthest-point ALT landmarks over the overlay graph
    /// (≤ [`MAX_OVERLAY_LANDMARKS`]).
    pub overlay_landmarks: usize,
    /// Farthest-point landmarks per district, chosen among its borders,
    /// guiding intra-district expansions (≤ [`MAX_DISTRICT_LANDMARKS`]).
    pub district_landmarks: usize,
}

impl Default for HierParams {
    fn default() -> Self {
        HierParams {
            target_district_size: 192,
            overlay_landmarks: 8,
            district_landmarks: 4,
        }
    }
}

/// A deterministic assignment of vertices to districts, with CSR
/// member lists and per-vertex local indices (the key into per-district
/// landmark tables).
#[derive(Clone, Debug, Default)]
pub struct Partition {
    num_districts: u32,
    district_of: Vec<u32>,
    member_start: Vec<u32>,
    members: Vec<u32>,
    local_index: Vec<u32>,
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
        Partition::from_assignment(district_of, (cx * cy) as u32)
    }

    /// Builds the CSR member lists from an explicit assignment
    /// (vertices keep ascending order within each district).
    fn from_assignment(district_of: Vec<u32>, num_districts: u32) -> Partition {
        let n = district_of.len();
        let nd = num_districts as usize;
        let mut member_start = vec![0u32; nd + 1];
        for &d in &district_of {
            member_start[d as usize + 1] += 1;
        }
        for i in 0..nd {
            member_start[i + 1] += member_start[i];
        }
        let mut cursor = member_start.clone();
        let mut members = vec![0u32; n];
        let mut local_index = vec![0u32; n];
        for (v, &d) in district_of.iter().enumerate() {
            let slot = cursor[d as usize];
            members[slot as usize] = v as u32;
            local_index[v] = slot - member_start[d as usize];
            cursor[d as usize] += 1;
        }
        Partition {
            num_districts,
            district_of,
            member_start,
            members,
            local_index,
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
        (self.district_of.capacity()
            + self.member_start.capacity()
            + self.members.capacity()
            + self.local_index.capacity())
            * std::mem::size_of::<u32>()
    }
}

/// Cumulative counters a [`HierScratch`] keeps across queries — the
/// telemetry feed for the hierarchical planner (overlay work, landmark
/// expansions, fault rescans).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HierStats {
    /// Queries answered (including trivial `src == dst`).
    pub queries: u64,
    /// Queries won by the direct same-district route.
    pub direct_routes: u64,
    /// Overlay nodes settled across all queries.
    pub overlay_settled: u64,
    /// Intra-district arc expansions performed (per-district-landmark
    /// A* runs while reconstructing winning routes).
    pub expansions: u64,
    /// On-the-fly filtered rescans of dirty (faulted) districts.
    pub dirty_rescans: u64,
}

/// Reusable buffers for [`Hierarchy::plan_path_into`]: four
/// [`PlannerScratch`]es (endpoint searches, overlay search, expansion),
/// a dirty-district stamp table, and path-assembly buffers. Warm
/// queries allocate nothing.
#[derive(Clone, Debug, Default)]
pub struct HierScratch {
    src_side: PlannerScratch,
    dst_side: PlannerScratch,
    overlay: PlannerScratch,
    expand: PlannerScratch,
    dirty_stamp: Vec<u32>,
    dirty_gen: u32,
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

    /// Invalidates all dirty marks and sizes the table for `nd`
    /// districts (O(1) amortized via generation stamps).
    fn begin_dirty(&mut self, nd: usize) {
        if self.dirty_stamp.len() < nd {
            self.dirty_stamp.resize(nd, 0);
        }
        self.dirty_gen = self.dirty_gen.wrapping_add(1);
        if self.dirty_gen == 0 {
            self.dirty_stamp.fill(0);
            self.dirty_gen = 1;
        }
    }

    #[inline]
    fn mark_dirty(&mut self, d: u32) {
        self.dirty_stamp[d as usize] = self.dirty_gen;
    }

    #[inline]
    fn is_dirty(&self, d: u32) -> bool {
        self.dirty_stamp[d as usize] == self.dirty_gen
    }
}

/// The hierarchical routing structure: a [`Partition`] plus the border
/// overlay (nodes, arcs, overlay landmarks, per-district landmarks).
///
/// Built once per graph by [`Hierarchy::build`]; queries run through
/// [`Hierarchy::plan_path_into`] against a reusable [`HierScratch`].
#[derive(Clone, Debug)]
pub struct Hierarchy {
    part: Partition,
    /// vertex → overlay node id, or `u32::MAX` for non-borders.
    node_of: Vec<u32>,
    /// overlay node id → vertex id, ascending.
    node_vertex: Vec<u32>,
    /// overlay node id → district.
    node_district: Vec<u32>,
    /// CSR arc ranges per node: `arc_start[n]..arc_mid[n]` are crossing
    /// arcs, `arc_mid[n]..arc_start[n + 1]` are precomputed intra arcs.
    arc_start: Vec<u32>,
    arc_mid: Vec<u32>,
    arc_to: Vec<u32>,
    arc_weight: Vec<f64>,
    /// CSR of border node ids per district, ascending.
    border_start: Vec<u32>,
    border_nodes: Vec<u32>,
    /// Overlay ALT landmarks: `lm_dist[node * lm_count + k]`.
    lm_count: usize,
    lm_dist: Vec<f64>,
    /// Per-district landmarks: district `d` stores `dlm_k[d]` rows of
    /// `|members(d)|` distances at
    /// `dlm_dist[dlm_start[d] + row * |members| + local_index]`.
    dlm_start: Vec<u32>,
    dlm_k: Vec<u32>,
    dlm_dist: Vec<f64>,
}

/// Single-source Dijkstra restricted to district `d` (all members, no
/// early exit), with the crate's canonical tie-break. `exempt_a` /
/// `exempt_b` bypass `allowed`, mirroring the flat kernels' endpoint
/// exemption. Results stay in `scratch` for the caller to read.
#[allow(clippy::too_many_arguments)]
fn district_dijkstra<G: Adjacency + ?Sized>(
    g: &G,
    district_of: &[u32],
    d: u32,
    source: u32,
    exempt_a: u32,
    exempt_b: u32,
    allowed: &impl Fn(u32) -> bool,
    scratch: &mut PlannerScratch,
) {
    scratch.begin(g.num_vertices());
    scratch.write(source, 0.0, u32::MAX);
    scratch.heap.push(HeapItem {
        dist: 0.0,
        vertex: source,
    });
    while let Some(HeapItem { vertex: u, .. }) = scratch.heap.pop() {
        if scratch.is_settled(u) {
            continue;
        }
        scratch.settle(u);
        let (du, _) = scratch.entry(u);
        for e in g.neighbors(u) {
            if district_of[e.to as usize] != d || scratch.is_settled(e.to) {
                continue;
            }
            if e.to != exempt_a && e.to != exempt_b && !allowed(e.to) {
                continue;
            }
            let nd = du + e.weight;
            let (cur, cur_parent) = scratch.entry(e.to);
            if nd < cur {
                scratch.write(e.to, nd, u);
                scratch.heap.push(HeapItem {
                    dist: nd,
                    vertex: e.to,
                });
            } else if nd == cur && u < cur_parent {
                scratch.write(e.to, nd, u);
            }
        }
    }
}

/// Single-source Dijkstra over the overlay arc arrays (build-time
/// helper for overlay landmark tables).
fn overlay_sssp(
    arc_start: &[u32],
    arc_to: &[u32],
    arc_weight: &[f64],
    num_nodes: usize,
    source: u32,
    scratch: &mut PlannerScratch,
) {
    scratch.begin(num_nodes);
    scratch.write(source, 0.0, u32::MAX);
    scratch.heap.push(HeapItem {
        dist: 0.0,
        vertex: source,
    });
    while let Some(HeapItem { vertex: u, .. }) = scratch.heap.pop() {
        if scratch.is_settled(u) {
            continue;
        }
        scratch.settle(u);
        let (du, _) = scratch.entry(u);
        let (s, e) = (
            arc_start[u as usize] as usize,
            arc_start[u as usize + 1] as usize,
        );
        for i in s..e {
            let to = arc_to[i];
            if scratch.is_settled(to) {
                continue;
            }
            let nd = du + arc_weight[i];
            let (cur, cur_parent) = scratch.entry(to);
            if nd < cur {
                scratch.write(to, nd, u);
                scratch.heap.push(HeapItem {
                    dist: nd,
                    vertex: to,
                });
            } else if nd == cur && u < cur_parent {
                scratch.write(to, nd, u);
            }
        }
    }
}

impl Hierarchy {
    /// Builds the overlay for `g` under `part`.
    ///
    /// Costs one restricted Dijkstra per border node (intra arcs), one
    /// overlay Dijkstra per overlay landmark, and one restricted
    /// Dijkstra per district landmark. This is prepare-time work; the
    /// query path allocates nothing once warm.
    ///
    /// # Panics
    /// Panics when `part` does not cover `g`'s vertices or `params`
    /// exceed the landmark maxima.
    pub fn build<G: Adjacency + ?Sized>(g: &G, part: Partition, params: &HierParams) -> Hierarchy {
        let n = g.num_vertices();
        assert_eq!(part.district_of.len(), n, "partition does not cover graph");
        assert!(
            params.overlay_landmarks <= MAX_OVERLAY_LANDMARKS,
            "at most {MAX_OVERLAY_LANDMARKS} overlay landmarks"
        );
        assert!(
            params.district_landmarks <= MAX_DISTRICT_LANDMARKS,
            "at most {MAX_DISTRICT_LANDMARKS} district landmarks"
        );
        let nd = part.num_districts();

        // Border nodes, ascending by vertex id.
        let mut node_of = vec![u32::MAX; n];
        let mut node_vertex = Vec::new();
        for v in 0..n as u32 {
            let d = part.district_of[v as usize];
            if g.neighbors(v)
                .iter()
                .any(|e| part.district_of[e.to as usize] != d)
            {
                node_of[v as usize] = node_vertex.len() as u32;
                node_vertex.push(v);
            }
        }
        let nodes = node_vertex.len();
        let node_district: Vec<u32> = node_vertex
            .iter()
            .map(|&v| part.district_of[v as usize])
            .collect();

        // Borders per district (stable counting sort keeps node ids
        // ascending within each district).
        let mut border_start = vec![0u32; nd + 1];
        for &d in &node_district {
            border_start[d as usize + 1] += 1;
        }
        for i in 0..nd {
            border_start[i + 1] += border_start[i];
        }
        let mut cursor = border_start.clone();
        let mut border_nodes = vec![0u32; nodes];
        for (nb, &d) in node_district.iter().enumerate() {
            border_nodes[cursor[d as usize] as usize] = nb as u32;
            cursor[d as usize] += 1;
        }
        let borders = |d: u32| {
            &border_nodes[border_start[d as usize] as usize..border_start[d as usize + 1] as usize]
        };

        // Arcs: crossing edges verbatim, then precomputed intra arcs
        // (one restricted Dijkstra per border, early-terminated by the
        // district boundary itself).
        let mut arc_start = vec![0u32; nodes + 1];
        let mut arc_mid = vec![0u32; nodes];
        let mut arc_to = Vec::new();
        let mut arc_weight = Vec::new();
        let mut scratch = PlannerScratch::new();
        for nb in 0..nodes {
            let v = node_vertex[nb];
            let d = node_district[nb];
            arc_start[nb] = arc_to.len() as u32;
            for e in g.neighbors(v) {
                if part.district_of[e.to as usize] != d {
                    debug_assert_ne!(node_of[e.to as usize], u32::MAX);
                    arc_to.push(node_of[e.to as usize]);
                    arc_weight.push(e.weight);
                }
            }
            arc_mid[nb] = arc_to.len() as u32;
            district_dijkstra(
                g,
                &part.district_of,
                d,
                v,
                u32::MAX,
                u32::MAX,
                &|_| true,
                &mut scratch,
            );
            for &b2 in borders(d) {
                if b2 as usize == nb {
                    continue;
                }
                let (dist, _) = scratch.entry(node_vertex[b2 as usize]);
                if dist.is_finite() {
                    arc_to.push(b2);
                    arc_weight.push(dist);
                }
            }
        }
        arc_start[nodes] = arc_to.len() as u32;

        // Overlay ALT landmarks: farthest-point over overlay nodes,
        // seeded at node 0, first-maximum ties — the same discipline as
        // the flat planner's global landmarks.
        let lm_count = params.overlay_landmarks.min(nodes);
        let mut lm_dist = vec![INFINITY; nodes * lm_count];
        let mut sampler = FarthestPoint::new(nodes);
        for ki in 0..lm_count {
            let lm = sampler.pick() as u32;
            overlay_sssp(&arc_start, &arc_to, &arc_weight, nodes, lm, &mut scratch);
            for nb in 0..nodes {
                lm_dist[nb * lm_count + ki] = scratch.entry(nb as u32).0;
            }
            sampler.observe(|nb| scratch.entry(nb as u32).0);
        }

        // Per-district landmarks among each district's borders.
        let mut dlm_start = vec![0u32; nd + 1];
        let mut dlm_k = vec![0u32; nd];
        for d in 0..nd {
            let k_d = params.district_landmarks.min(borders(d as u32).len());
            dlm_k[d] = k_d as u32;
            let block = k_d * part.members(d as u32).len();
            dlm_start[d + 1] = dlm_start[d] + block as u32;
        }
        let mut dlm_dist = vec![INFINITY; dlm_start[nd] as usize];
        for d in 0..nd as u32 {
            let k_d = dlm_k[d as usize] as usize;
            if k_d == 0 {
                continue;
            }
            let bs = borders(d);
            let ms = part.members(d);
            let base = dlm_start[d as usize] as usize;
            let mut sampler = FarthestPoint::new(bs.len());
            for j in 0..k_d {
                district_dijkstra(
                    g,
                    &part.district_of,
                    d,
                    node_vertex[bs[sampler.pick()] as usize],
                    u32::MAX,
                    u32::MAX,
                    &|_| true,
                    &mut scratch,
                );
                let row = base + j * ms.len();
                for (li, &m) in ms.iter().enumerate() {
                    let (dist, _) = scratch.entry(m);
                    dlm_dist[row + li] = dist;
                }
                sampler.observe(|bi| scratch.entry(node_vertex[bs[bi] as usize]).0);
            }
        }

        Hierarchy {
            part,
            node_of,
            node_vertex,
            node_district,
            arc_start,
            arc_mid,
            arc_to,
            arc_weight,
            border_start,
            border_nodes,
            lm_count,
            lm_dist,
            dlm_start,
            dlm_k,
            dlm_dist,
        }
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

    /// Total overlay arcs (crossing + precomputed intra).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.arc_to.len()
    }

    /// Heap bytes held by the overlay (partition included).
    pub fn memory_bytes(&self) -> usize {
        let u32s = self.node_of.capacity()
            + self.node_vertex.capacity()
            + self.node_district.capacity()
            + self.arc_start.capacity()
            + self.arc_mid.capacity()
            + self.arc_to.capacity()
            + self.border_start.capacity()
            + self.border_nodes.capacity()
            + self.dlm_start.capacity()
            + self.dlm_k.capacity();
        let f64s = self.arc_weight.capacity() + self.lm_dist.capacity() + self.dlm_dist.capacity();
        self.part.memory_bytes()
            + u32s * std::mem::size_of::<u32>()
            + f64s * std::mem::size_of::<f64>()
    }

    #[inline]
    fn borders(&self, d: u32) -> &[u32] {
        let i = d as usize;
        &self.border_nodes[self.border_start[i] as usize..self.border_start[i + 1] as usize]
    }

    /// Expands one intra arc `from → to` inside district `d` into the
    /// actual vertex path, via per-district-landmark A* (filtered the
    /// same way the arc weight was computed, so a path always exists
    /// and costs exactly the arc weight).
    #[allow(clippy::too_many_arguments)]
    fn expand_arc<G: Adjacency + ?Sized>(
        &self,
        g: &G,
        d: u32,
        from: u32,
        to: u32,
        exempt_a: u32,
        exempt_b: u32,
        allowed: &impl Fn(u32) -> bool,
        lb: &impl Fn(u32, u32) -> f64,
        scratch: &mut PlannerScratch,
        out: &mut Vec<u32>,
    ) {
        let ms_len = self.part.members(d).len();
        let k_d = self.dlm_k[d as usize] as usize;
        let base = self.dlm_start[d as usize] as usize;
        let lt = self.part.local_index[to as usize] as usize;
        let mut tvals = [INFINITY; MAX_DISTRICT_LANDMARKS];
        for (j, tv) in tvals.iter_mut().take(k_d).enumerate() {
            *tv = self.dlm_dist[base + j * ms_len + lt];
        }
        let district_of = &self.part.district_of;
        let local_index = &self.part.local_index;
        let h = |v: u32| {
            let mut best = lb(v, to).max(0.0);
            let lv = local_index[v as usize] as usize;
            for (j, tv) in tvals.iter().take(k_d).enumerate() {
                let a = self.dlm_dist[base + j * ms_len + lv];
                if a.is_finite() && tv.is_finite() {
                    let diff = (a - tv).abs();
                    if diff > best {
                        best = diff;
                    }
                }
            }
            best
        };
        let ok = crate::scratch::astar_path_filtered_into(
            g,
            from,
            to,
            h,
            |v| district_of[v as usize] == d && (v == exempt_a || v == exempt_b || allowed(v)),
            scratch,
            out,
        );
        assert!(ok, "overlay intra arc without an expandable path");
    }

    /// Hierarchical point-to-point search: writes the path into `out`
    /// and returns `false` (with `out` cleared) when `dst` is
    /// unreachable. The returned route's cost equals the flat-optimal
    /// cost exactly (see the module docs for the argument; the exact
    /// vertex sequence may differ from the flat planner's on cost
    /// ties).
    ///
    /// * `lb(a, b)` must be an admissible lower bound on the true cost
    ///   between any two vertices (`|_, _| 0.0` is always valid; the
    ///   building graph passes its Euclidean bound).
    /// * `allowed` filters intermediate vertices; `src`/`dst` are
    ///   exempt, mirroring the flat filtered kernels.
    /// * `dirty_districts` must contain the district of **every**
    ///   vertex `allowed` rejects (duplicates and extra districts are
    ///   harmless; omissions are not — precomputed arcs of unlisted
    ///   districts are trusted).
    ///
    /// Tie-breaks: an exact cost tie between the direct same-district
    /// route and any overlay route resolves to the direct route; ties
    /// between overlay candidates resolve to the one settled first
    /// (smallest key, then smallest node id); every sub-search uses the
    /// crate's canonical (key, id, min-parent) rule.
    ///
    /// # Panics
    /// Panics when `src` or `dst` is out of range.
    #[allow(clippy::too_many_arguments)]
    pub fn plan_path_into<G: Adjacency + ?Sized>(
        &self,
        g: &G,
        src: u32,
        dst: u32,
        lb: impl Fn(u32, u32) -> f64,
        allowed: impl Fn(u32) -> bool,
        dirty_districts: &[u32],
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
        let ds = self.part.district_of[src as usize];
        let dt = self.part.district_of[dst as usize];
        scratch.begin_dirty(self.part.num_districts());
        for &d in dirty_districts {
            scratch.mark_dirty(d);
        }

        // Endpoint searches: filtered Dijkstra over each endpoint's
        // whole district.
        district_dijkstra(
            g,
            &self.part.district_of,
            ds,
            src,
            src,
            dst,
            &allowed,
            &mut scratch.src_side,
        );
        district_dijkstra(
            g,
            &self.part.district_of,
            dt,
            dst,
            src,
            dst,
            &allowed,
            &mut scratch.dst_side,
        );

        let mut best = INFINITY;
        let mut best_node = u32::MAX;
        if ds == dt {
            let (direct, _) = scratch.src_side.entry(dst);
            best = direct; // may be INFINITY; overlay must beat it strictly
        }

        // Per-query landmark-to-target bounds:
        // L̂_k(dst) = min over target-side borders of L_k(b) + d(b, dst).
        let k = self.lm_count;
        let mut lm_t = [INFINITY; MAX_OVERLAY_LANDMARKS];
        for &bt in self.borders(dt) {
            let v = self.node_vertex[bt as usize];
            if v != src && v != dst && !allowed(v) {
                continue;
            }
            let (dtv, _) = scratch.dst_side.entry(v);
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

        // Overlay A*, seeded with every reachable source-side border.
        scratch.overlay.begin(self.node_vertex.len());
        for &b in self.borders(ds) {
            let v = self.node_vertex[b as usize];
            if v != src && v != dst && !allowed(v) {
                continue;
            }
            let (d0, _) = scratch.src_side.entry(v);
            if d0.is_finite() {
                scratch.overlay.write(b, d0, u32::MAX);
                scratch.overlay.heap.push(HeapItem {
                    dist: d0 + h(b),
                    vertex: b,
                });
            }
        }
        while let Some(HeapItem {
            dist: key,
            vertex: nb,
        }) = scratch.overlay.heap.pop()
        {
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
            let (dnb, _) = scratch.overlay.entry(nb);
            let d_here = self.node_district[nb as usize];
            if d_here == dt {
                let v = self.node_vertex[nb as usize];
                let (dtv, _) = scratch.dst_side.entry(v);
                if dtv.is_finite() && dnb + dtv < best {
                    best = dnb + dtv;
                    best_node = nb;
                }
            }
            let dirty = scratch.is_dirty(d_here);
            let s = self.arc_start[nb as usize] as usize;
            let e = if dirty {
                self.arc_mid[nb as usize] as usize // skip stale intra arcs
            } else {
                self.arc_start[nb as usize + 1] as usize
            };
            for i in s..e {
                let to = self.arc_to[i];
                if scratch.overlay.is_settled(to) {
                    continue;
                }
                let v2 = self.node_vertex[to as usize];
                if v2 != src && v2 != dst && !allowed(v2) {
                    continue;
                }
                let nd2 = dnb + self.arc_weight[i];
                let (cur, cur_parent) = scratch.overlay.entry(to);
                if nd2 < cur {
                    scratch.overlay.write(to, nd2, nb);
                    scratch.overlay.heap.push(HeapItem {
                        dist: nd2 + h(to),
                        vertex: to,
                    });
                } else if nd2 == cur && nb < cur_parent {
                    scratch.overlay.write(to, nd2, nb);
                }
            }
            if dirty {
                // Replace this district's precomputed arcs with a
                // filtered restricted search from the settled border.
                scratch.stats.dirty_rescans += 1;
                let v = self.node_vertex[nb as usize];
                district_dijkstra(
                    g,
                    &self.part.district_of,
                    d_here,
                    v,
                    src,
                    dst,
                    &allowed,
                    &mut scratch.expand,
                );
                for &b2 in self.borders(d_here) {
                    if b2 == nb || scratch.overlay.is_settled(b2) {
                        continue;
                    }
                    let v2 = self.node_vertex[b2 as usize];
                    if v2 != src && v2 != dst && !allowed(v2) {
                        continue;
                    }
                    let (dd, _) = scratch.expand.entry(v2);
                    if !dd.is_finite() {
                        continue;
                    }
                    let nd2 = dnb + dd;
                    let (cur, cur_parent) = scratch.overlay.entry(b2);
                    if nd2 < cur {
                        scratch.overlay.write(b2, nd2, nb);
                        scratch.overlay.heap.push(HeapItem {
                            dist: nd2 + h(b2),
                            vertex: b2,
                        });
                    } else if nd2 == cur && nb < cur_parent {
                        scratch.overlay.write(b2, nd2, nb);
                    }
                }
            }
        }

        if best_node == u32::MAX {
            // Overlay never beat the direct candidate (or found
            // nothing). Cost ties resolve here, to the direct route.
            if best.is_finite() {
                scratch.src_side.trace_into(dst, out);
                scratch.stats.direct_routes += 1;
                return true;
            }
            out.clear();
            return false;
        }

        // Reconstruct: source leg, overlay node sequence (crossing
        // arcs verbatim, intra arcs expanded), target leg.
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
        scratch
            .src_side
            .trace_into(self.node_vertex[scratch.node_seq[0] as usize], out);
        for i in 1..scratch.node_seq.len() {
            let a = scratch.node_seq[i - 1];
            let b = scratch.node_seq[i];
            let (va, vb) = (self.node_vertex[a as usize], self.node_vertex[b as usize]);
            if self.node_district[a as usize] != self.node_district[b as usize] {
                out.push(vb); // a crossing arc is one original edge
            } else {
                scratch.stats.expansions += 1;
                self.expand_arc(
                    g,
                    self.node_district[a as usize],
                    va,
                    vb,
                    src,
                    dst,
                    &allowed,
                    &lb,
                    &mut scratch.expand,
                    &mut scratch.leg,
                );
                out.extend_from_slice(&scratch.leg[1..]);
            }
        }
        scratch
            .dst_side
            .trace_into(self.node_vertex[best_node as usize], &mut scratch.leg);
        for &v in scratch.leg.iter().rev().skip(1) {
            out.push(v);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dijkstra_path_filtered_into, dijkstra_path_into, Graph};

    /// Path cost under `g`'s weights.
    fn path_cost(g: &Graph, path: &[u32]) -> f64 {
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
    /// with 4-neighbor edges whose weights vary by a hash, plus a few
    /// long chords to make districts non-trivial.
    fn lattice(nx: u32, ny: u32) -> (Graph, Vec<(f64, f64)>) {
        let n = (nx * ny) as usize;
        let mut g = Graph::new(n);
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
                    g.add_edge(v, v + 1, w(v, v + 1));
                }
                if y + 1 < ny {
                    g.add_edge(v, v + nx, w(v, v + nx));
                }
            }
        }
        (g, pos)
    }

    fn assert_same_cost(g: &Graph, hier: &[u32], flat: &[u32], what: &str) {
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
            for (i, &m) in p1.members(d).iter().enumerate() {
                assert_eq!(p1.district_of(m), d);
                assert_eq!(p1.local_index[m as usize] as usize, i);
                seen += 1;
            }
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
            let hok =
                hier.plan_path_into(&g, src, dst, |_, _| 0.0, |_| true, &[], &mut hs, &mut hp);
            let fok = dijkstra_path_into(&g, src, dst, &mut ps, &mut fp);
            assert_eq!(hok, fok, "({src},{dst}) reachability");
            assert_eq!(hp.first(), Some(&src));
            assert_eq!(hp.last(), Some(&dst));
            assert_same_cost(&g, &hp, &fp, "healthy");
        }
    }

    #[test]
    fn hier_matches_flat_cost_with_blocked_vertices() {
        let (g, pos) = lattice(16, 12);
        let part = Partition::grid(&pos, 20);
        let hier = Hierarchy::build(&g, part, &HierParams::default());
        let mut hs = HierScratch::new();
        let mut ps = PlannerScratch::new();
        let (mut hp, mut fp) = (Vec::new(), Vec::new());
        // Block a diagonal band of vertices.
        let blocked = |v: u32| v % 17 == 3;
        let mut dirty = Vec::new();
        for v in 0..g.num_vertices() as u32 {
            if blocked(v) {
                dirty.push(hier.partition().district_of(v));
            }
        }
        for (src, dst) in [(0u32, 191u32), (3, 188), (20, 160), (54, 54)] {
            let hok = hier.plan_path_into(
                &g,
                src,
                dst,
                |_, _| 0.0,
                |v| !blocked(v),
                &dirty,
                &mut hs,
                &mut hp,
            );
            let fok = dijkstra_path_filtered_into(&g, src, dst, |v| !blocked(v), &mut ps, &mut fp);
            assert_eq!(hok, fok, "({src},{dst}) reachability under faults");
            if hok {
                for &v in hp.iter().filter(|&&v| v != src && v != dst) {
                    assert!(!blocked(v), "hier route crosses blocked vertex {v}");
                }
                assert_same_cost(&g, &hp, &fp, "faulted");
            }
        }
    }

    #[test]
    fn disconnected_pairs_fail_honestly() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(2, 3, 1.0);
        let pos = vec![(0.0, 0.0), (1.0, 0.0), (50.0, 50.0), (51.0, 50.0)];
        let part = Partition::grid(&pos, 2);
        let hier = Hierarchy::build(&g, part, &HierParams::default());
        let mut hs = HierScratch::new();
        let mut out = vec![9];
        assert!(!hier.plan_path_into(&g, 0, 3, |_, _| 0.0, |_| true, &[], &mut hs, &mut out));
        assert!(out.is_empty());
        assert!(hier.plan_path_into(&g, 0, 1, |_, _| 0.0, |_| true, &[], &mut hs, &mut out));
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
            hier.plan_path_into(
                &g,
                s,
                d,
                |_, _| 0.0,
                |_| true,
                &[],
                &mut warm,
                &mut warm_path,
            );
        }
        for (s, d) in [(0u32, 99u32), (13, 88), (99, 0), (50, 55)] {
            let mut fresh = HierScratch::new();
            let mut fresh_path = Vec::new();
            let a = hier.plan_path_into(
                &g,
                s,
                d,
                |_, _| 0.0,
                |_| true,
                &[],
                &mut warm,
                &mut warm_path,
            );
            let b = hier.plan_path_into(
                &g,
                s,
                d,
                |_, _| 0.0,
                |_| true,
                &[],
                &mut fresh,
                &mut fresh_path,
            );
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
        hier.plan_path_into(&g, 0, 143, |_, _| 0.0, |_| true, &[], &mut hs, &mut out);
        hier.plan_path_into(&g, 5, 5, |_, _| 0.0, |_| true, &[], &mut hs, &mut out);
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
        assert!(hier.num_arcs() > 0);
        assert!(hier.memory_bytes() > 0);
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
}
