//! Reusable planner scratch: the graph crate's two weighted searches.
//!
//! An allocating search pays `dist`/`parent`/`settled` vectors sized
//! `|V|` plus a fresh binary heap on every call, although almost every
//! call touches only a tiny corridor of the graph. A [`PlannerScratch`]
//! owns every buffer a search needs and clears them in O(touched) via
//! generation stamps, so after a warm-up call a search performs **zero
//! heap allocations**. Two kernels run on it:
//!
//! * [`astar_path_filtered_into`] — point to point, goal-directed,
//!   blocked vertices filtered out, the path written into a
//!   caller-owned buffer. With `h ≡ 0` and a filter that admits
//!   everything it is plain Dijkstra;
//! * [`dijkstra_tree_with`] — the whole shortest-path tree from one
//!   source, reported vertex by vertex, optionally fenced by a vertex
//!   filter: route rows, the building graph's landmark table and, one
//!   district at a time, the hierarchy's border rows.
//!
//! # Deterministic tie-breaking (the A* ≡ Dijkstra contract)
//!
//! Both kernels — and the hierarchy's overlay searches — share one
//! canonical tie-breaking rule, written once, in
//! [`PlannerScratch::relax`]:
//!
//! 1. the heap pops by *(key ascending, vertex id ascending)* — key is
//!    `dist` for Dijkstra and `dist + h` for A*;
//! 2. a relaxation `u → v` updates `v` when it strictly improves
//!    `dist[v]`, **or** when it exactly ties `dist[v]` and `u` has a
//!    smaller id than the current parent;
//! 3. settled vertices are never updated.
//!
//! Under rule 2 the final parent of every settled vertex is the
//! minimum-id optimal predecessor among those settled before it — a
//! quantity independent of settle *order*. Dijkstra and A* settle
//! vertices in different orders, but with a *strictly consistent*
//! heuristic (`h(u) − h(v) < w(u,v)` on every edge, which includes
//! `h ≡ 0` on graphs with positive weights) every optimal predecessor
//! of a vertex has a strictly smaller heap key and therefore settles
//! first in **both** algorithms. Both parent trees then agree on every
//! vertex they share, so [`astar_path_filtered_into`] under such a
//! heuristic returns paths **bit-identical** to the same kernel with
//! `h ≡ 0`. The building graph's cubed-distance weights satisfy strict
//! consistency for the Euclidean heuristic because every weight is
//! `max(d, 1)^e ≥ max(d, 1) > h`-drop for exponents `e ≥ 1` (see
//! `citymesh-core`'s route planner).
//!
//! # The queue: one integer key per entry
//!
//! Every key a search pushes is non-negative and never NaN — weights
//! are non-negative, and every heuristic is a distance, an `abs` or a
//! `max(0.0)`, possibly `+∞` — and for such floats the IEEE bit pattern
//! orders exactly as the number does. So the queue holds one `u128` per entry, the key's bits
//! above the vertex id, and an integer min-heap over it pops by
//! *(key, vertex id)*: the same total order a float comparator with an
//! id tie-break defines, hence the same settle sequence.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::CsrGraph;

/// Distance value for unreachable vertices.
pub const INFINITY: f64 = f64::INFINITY;

/// One vertex's search state. `stamp` is the generation that last
/// touched the slot (the slot is untouched this run unless `stamp & !1
/// == gen`), its low bit the settled flag.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    dist: f64,
    parent: u32,
    stamp: u32,
}

/// Reusable buffers for search over a [`CsrGraph`] (or, inside the
/// crate, the hierarchy's overlay).
///
/// One scratch serves searches over graphs of *different* sizes (the
/// route planner shares one between the building graph and the AP
/// graph): buffers grow to the largest vertex count seen and are
/// logically cleared per run by bumping a generation counter, so a
/// warm scratch performs no allocation and no O(|V|) clearing.
///
/// ```
/// use citymesh_graph::{astar_path_filtered_into, CsrGraph, PlannerScratch};
///
/// let g = CsrGraph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 10.0)]);
/// let mut scratch = PlannerScratch::new();
/// let mut path = Vec::new();
/// let dijkstra = |s, t, scratch: &mut _, path: &mut _| {
///     astar_path_filtered_into(&g, s, t, |_| 0.0, |_| true, scratch, path)
/// };
/// assert!(dijkstra(0, 2, &mut scratch, &mut path));
/// assert_eq!(path, vec![0, 1, 2]);
/// // Reuse: the second call allocates nothing.
/// assert!(dijkstra(2, 0, &mut scratch, &mut path));
/// assert_eq!(path, vec![2, 1, 0]);
/// ```
///
/// Both kernels taking a `PlannerScratch` break ties by the one
/// canonical rule in the module docs; DESIGN.md §10 carries the full
/// argument.
#[derive(Clone, Debug, Default)]
pub struct PlannerScratch {
    slots: Vec<Slot>,
    /// Even; advances by 2 per search.
    gen: u32,
    /// `Reverse((key bits << 32) | vertex)`: a min-queue by (key, id).
    heap: BinaryHeap<Reverse<u128>>,
}

impl PlannerScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Largest vertex count the buffers currently cover.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Prepares for a search over `n` vertices: grows the slots if this
    /// is the largest graph seen, invalidates every slot by advancing
    /// the generation (O(1); a full re-stamp happens only when the
    /// `u32` generation wraps, once per ~2 billion searches), and
    /// clears the retained heap without releasing capacity.
    pub(crate) fn begin(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, Slot::default());
        }
        self.gen = self.gen.wrapping_add(2);
        if self.gen == 0 {
            self.slots.fill(Slot::default());
            self.gen = 2;
        }
        self.heap.clear();
    }

    /// `(dist, parent)` of `v`, defaulting to (∞, MAX) when untouched
    /// this run.
    #[inline]
    pub(crate) fn entry(&self, v: u32) -> (f64, u32) {
        let s = self.slots[v as usize];
        if s.stamp & !1 == self.gen {
            (s.dist, s.parent)
        } else {
            (INFINITY, u32::MAX)
        }
    }

    /// Writes `(dist, parent)` for the unsettled `v`, stamping the slot.
    #[inline]
    pub(crate) fn write(&mut self, v: u32, dist: f64, parent: u32) {
        debug_assert!(!self.is_settled(v), "a settled vertex is final");
        self.slots[v as usize] = Slot {
            dist,
            parent,
            stamp: self.gen,
        };
    }

    #[inline]
    pub(crate) fn is_settled(&self, v: u32) -> bool {
        self.slots[v as usize].stamp == self.gen | 1
    }

    #[inline]
    pub(crate) fn settle(&mut self, v: u32) {
        // Popped vertices were always written first, so the slot is
        // already stamped.
        let stamp = &mut self.slots[v as usize].stamp;
        debug_assert_eq!(*stamp, self.gen);
        *stamp = self.gen | 1;
    }

    /// Queues `v` under `key`.
    ///
    /// `key` must be non-negative and not NaN: then its bits order as
    /// its value (the sign bit is dropped, so `-0.0` queues as `0.0`,
    /// which it equals).
    #[inline]
    pub(crate) fn push(&mut self, key: f64, v: u32) {
        debug_assert!(key >= 0.0, "queue key {key} is negative or NaN");
        let bits = key.abs().to_bits();
        self.heap
            .push(Reverse((u128::from(bits) << 32) | u128::from(v)));
    }

    /// The canonical relaxation of edge or arc `from → to` at tentative
    /// distance `nd`, and the one place its tie-break is written. A
    /// settled `to` is final and left alone. A strict improvement
    /// writes `to` and queues it under `nd + h(to)`. An exact tie keeps
    /// the smaller-id parent — the key is unchanged, so nothing is
    /// queued — and returns `true`, whichever parent won.
    #[inline]
    pub(crate) fn relax(&mut self, from: u32, to: u32, nd: f64, h: impl Fn(u32) -> f64) -> bool {
        if self.is_settled(to) {
            return false;
        }
        let (cur, cur_parent) = self.entry(to);
        if nd < cur {
            self.write(to, nd, from);
            self.push(nd + h(to), to);
        } else if nd == cur {
            if from < cur_parent {
                self.write(to, nd, from);
            }
            return true;
        }
        false
    }

    /// Pops the entry with the smallest `(key, vertex id)`.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(f64, u32)> {
        self.heap
            .pop()
            .map(|Reverse(k)| (f64::from_bits((k >> 32) as u64), k as u32))
    }

    /// Traces the parent chain from `target` into `out` (reversed into
    /// source→target order). The chain was written this generation.
    pub(crate) fn trace_into(&self, target: u32, out: &mut Vec<u32>) {
        out.clear();
        out.push(target);
        let mut cur = target;
        loop {
            let p = self.slots[cur as usize].parent;
            if p == u32::MAX {
                break;
            }
            out.push(p);
            cur = p;
            debug_assert!(out.len() <= self.slots.len(), "parent cycle");
        }
        out.reverse();
    }
}

/// A* from `source` to `target` restricted to vertices `allowed`
/// admits (endpoints are always allowed), writing the path into `out`.
/// Returns `false` — with `out` cleared — when no path exists.
///
/// `h ≡ 0` makes it Dijkstra and `allowed ≡ true` an unfiltered search;
/// see the module docs for the canonical tie-breaking rule and the
/// conditions under which every heuristic returns the same path.
///
/// `h` must be admissible (`h(v) ≤` cheapest remaining cost) for the
/// result to be a shortest path, and strictly consistent for the
/// bit-identity guarantee. `h(target)` is ignored (taken as 0).
///
/// # Panics
/// Panics when `source` or `target` is out of range.
pub fn astar_path_filtered_into(
    g: &CsrGraph,
    source: u32,
    target: u32,
    h: impl Fn(u32) -> f64,
    allowed: impl Fn(u32) -> bool,
    scratch: &mut PlannerScratch,
    out: &mut Vec<u32>,
) -> bool {
    let n = g.num_vertices();
    assert!(
        (source as usize) < n && (target as usize) < n,
        "vertex out of range"
    );
    out.clear();
    if source == target {
        out.push(source);
        return true;
    }
    scratch.begin(n);
    scratch.write(source, 0.0, u32::MAX);
    scratch.push(h(source), source);
    while let Some((_, u)) = scratch.pop() {
        if scratch.is_settled(u) {
            continue; // stale lazy-deleted entry
        }
        scratch.settle(u);
        if u == target {
            scratch.trace_into(target, out);
            return true;
        }
        let (d, _) = scratch.entry(u);
        for e in g.neighbors(u) {
            if e.to == target || e.to == source || allowed(e.to) {
                scratch.relax(u, e.to, d + e.weight, &h);
            }
        }
    }
    out.clear();
    false
}

/// The whole canonical shortest-path tree from `source` over the
/// vertices `allowed` admits (`source` always): Dijkstra under the
/// [`PlannerScratch`] tie-breaking rule, run until the heap is empty.
/// `settle(v, parent, dist)` is called once per reachable vertex, in
/// settle order, with the vertex's final parent (`u32::MAX` for
/// `source`) and its shortest distance from `source`; a vertex never
/// reported is unreachable. The parent of `v` is the vertex before `v`
/// on the path [`astar_path_filtered_into`] returns for `source → v`
/// with `h ≡ 0` under the same filter — an early-stopped search and
/// the full tree agree on every vertex the search settled. Each
/// distance is the minimum over the same relaxations, summed in the
/// same order, as a textbook lazy-deletion Dijkstra's, so the two agree
/// bit for bit.
///
/// Returns whether any relaxation met an **exact tie** (`nd ==
/// dist[v]` on an unsettled `v`, whichever parent then won). A tree
/// that met none holds the only shortest path to every vertex, so every
/// cost-optimal search from `source` — whatever its heuristic — returns
/// that path; a tree that met one is canonical for Dijkstra only.
///
/// # Panics
/// Panics when `source` is out of range.
pub fn dijkstra_tree_with(
    g: &CsrGraph,
    source: u32,
    allowed: impl Fn(u32) -> bool,
    scratch: &mut PlannerScratch,
    mut settle: impl FnMut(u32, u32, f64),
) -> bool {
    let n = g.num_vertices();
    assert!((source as usize) < n, "vertex out of range");
    scratch.begin(n);
    scratch.write(source, 0.0, u32::MAX);
    scratch.push(0.0, source);
    let mut tied = false;
    while let Some((_, u)) = scratch.pop() {
        if scratch.is_settled(u) {
            continue; // stale lazy-deleted entry
        }
        scratch.settle(u);
        let (d, parent) = scratch.entry(u);
        settle(u, parent, d);
        for e in g.neighbors(u) {
            if allowed(e.to) {
                tied |= scratch.relax(u, e.to, d + e.weight, |_| 0.0);
            }
        }
    }
    tied
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Keys at the edges of the packing: both zeros, a subnormal, the
    /// extremes of the finite range and `+∞`.
    const EDGE_KEYS: [f64; 6] = [0.0, -0.0, 5e-324, 1e-300, f64::MAX, INFINITY];

    /// Edge keys, a coarse grid (exact ties) and arbitrary values.
    fn queue_key() -> impl Strategy<Value = f64> {
        prop_oneof![
            (0..EDGE_KEYS.len()).prop_map(|i| EDGE_KEYS[i]),
            (0u32..24).prop_map(|k| f64::from(k) * 0.25),
            0.0..1e12f64,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Pushes interleaved with pops, then a full drain, pop exactly
        /// what a sort of the pending entries by `(key, vertex id)`
        /// says comes next: ties in key, repeated vertices, duplicate
        /// entries and `+∞` included.
        #[test]
        fn queue_pops_by_key_then_vertex_id(
            ops in proptest::collection::vec((0u32..10, queue_key(), 0u32..24), 0..400),
        ) {
            let mut s = PlannerScratch::new();
            s.begin(24);
            let mut model: Vec<(f64, u32)> = Vec::new();
            let model_pop = |model: &mut Vec<(f64, u32)>| {
                model.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("no NaN").then(b.1.cmp(&a.1)));
                model.pop()
            };
            for &(op, key, v) in &ops {
                if op < 3 {
                    prop_assert_eq!(s.pop(), model_pop(&mut model));
                } else {
                    s.push(key, v);
                    model.push((key, v));
                }
            }
            while let Some(popped) = s.pop() {
                prop_assert_eq!(Some(popped), model_pop(&mut model));
            }
            prop_assert!(model.is_empty());
        }
    }

    /// The kernel as plain Dijkstra: no heuristic, nothing filtered.
    fn dijkstra_into(
        g: &CsrGraph,
        source: u32,
        target: u32,
        s: &mut PlannerScratch,
        out: &mut Vec<u32>,
    ) -> bool {
        astar_path_filtered_into(g, source, target, |_| 0.0, |_| true, s, out)
    }

    fn diamond() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 10.0)])
    }

    /// An `nx × nx` lattice, every edge of weight `w`: many exact
    /// equal-cost Manhattan paths between far corners.
    fn lattice(nx: u32, w: f64) -> CsrGraph {
        let mut edges = Vec::new();
        for v in 0..nx * nx {
            if v % nx + 1 < nx {
                edges.push((v, v + 1, w));
            }
            if v / nx + 1 < nx {
                edges.push((v, v + nx, w));
            }
        }
        CsrGraph::from_edges((nx * nx) as usize, &edges)
    }

    #[test]
    fn scratch_reuse_across_runs_and_graph_sizes() {
        let g = diamond();
        let chain: Vec<_> = (0..99).map(|i| (i, i + 1, 1.0)).collect();
        let big = CsrGraph::from_edges(100, &chain);
        let mut s = PlannerScratch::new();
        let mut path = Vec::new();
        for _ in 0..5 {
            assert!(dijkstra_into(&big, 0, 99, &mut s, &mut path));
            assert_eq!(path.len(), 100);
            assert!(dijkstra_into(&g, 0, 2, &mut s, &mut path));
            assert_eq!(path, vec![0, 1, 2]);
        }
        assert!(!dijkstra_into(&g, 0, 3, &mut s, &mut path));
        assert!(path.is_empty(), "no path leaves the buffer cleared");
        assert_eq!(s.capacity(), 100);
    }

    #[test]
    fn source_equals_target() {
        let g = diamond();
        let mut s = PlannerScratch::new();
        let mut path = vec![9, 9];
        assert!(dijkstra_into(&g, 3, 3, &mut s, &mut path));
        assert_eq!(path, vec![3]);
    }

    #[test]
    fn filter_detours_and_exempts_the_endpoints() {
        // 0 — 1 — 2 with an expensive bypass 0 — 3 — 2.
        let g = CsrGraph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (0, 3, 5.0), (3, 2, 5.0)]);
        let (mut s, mut path) = (PlannerScratch::new(), Vec::new());
        let mut filtered = |allowed: fn(u32) -> bool, path: &mut Vec<u32>| {
            astar_path_filtered_into(&g, 0, 2, |_| 0.0, allowed, &mut s, path)
        };
        assert!(filtered(|v| v != 1, &mut path));
        assert_eq!(path, vec![0, 3, 2]);
        assert!(!filtered(|v| v != 1 && v != 3, &mut path));
        assert!(filtered(|v| v != 0 && v != 2 && v != 1, &mut path));
        assert_eq!(path, vec![0, 3, 2]);
    }

    #[test]
    fn equal_cost_ties_resolve_to_smallest_parent_id() {
        // Two equal-cost two-hop paths 0→{1,2}→3. The canonical rule
        // must pick the via-1 path regardless of relaxation order.
        let g = CsrGraph::from_edges(4, &[(0, 2, 1.0), (2, 3, 1.0), (0, 1, 1.0), (1, 3, 1.0)]);
        let mut s = PlannerScratch::new();
        let mut d_path = Vec::new();
        let mut a_path = Vec::new();
        assert!(dijkstra_into(&g, 0, 3, &mut s, &mut d_path));
        assert_eq!(d_path, vec![0, 1, 3]);
        // A* with an admissible, strictly consistent heuristic (every
        // drop is at most 0.5 < the unit weights) settles the same way.
        let h = |v: u32| if v == 3 { 0.0 } else { 0.5 };
        assert!(astar_path_filtered_into(
            &g,
            0,
            3,
            h,
            |_| true,
            &mut s,
            &mut a_path
        ));
        assert_eq!(a_path, d_path);
    }

    #[test]
    fn astar_euclidean_matches_dijkstra_on_a_lattice_with_ties() {
        // 8×8 unit lattice, cubed weights (w = 8 per edge). Strict
        // consistency holds (8 > 1 ≥ h-drop per edge), so A* must be
        // bit-identical to Dijkstra, including on ties.
        let nx = 8u32;
        let pos = |v: u32| ((v % nx) as f64, (v / nx) as f64);
        let g = lattice(nx, 2.0f64.powi(3));
        let mut s = PlannerScratch::new();
        let mut d_path = Vec::new();
        let mut a_path = Vec::new();
        for (src, dst) in [(0, nx * nx - 1), (3, 60), (7, 56), (0, 63), (21, 42)] {
            let (tx, ty) = pos(dst);
            assert!(dijkstra_into(&g, src, dst, &mut s, &mut d_path));
            assert!(astar_path_filtered_into(
                &g,
                src,
                dst,
                |v| {
                    let (x, y) = pos(v);
                    ((x - tx).powi(2) + (y - ty).powi(2)).sqrt()
                },
                |_| true,
                &mut s,
                &mut a_path
            ));
            assert_eq!(a_path, d_path, "pair ({src},{dst}) diverged");
        }
    }

    /// Parents of the full tree from `source` over the vertices
    /// `allowed` admits, `u32::MAX` where unreached, and whether the run
    /// met a tie.
    fn tree_within(
        g: &CsrGraph,
        source: u32,
        allowed: impl Fn(u32) -> bool,
        s: &mut PlannerScratch,
    ) -> (Vec<u32>, bool) {
        let mut parent = vec![u32::MAX; g.num_vertices()];
        let mut order = Vec::new();
        let tied = dijkstra_tree_with(g, source, allowed, s, |v, p, _| {
            parent[v as usize] = p;
            order.push(v);
        });
        assert_eq!(order[0], source, "the source settles first");
        (parent, tied)
    }

    fn tree(g: &CsrGraph, source: u32, s: &mut PlannerScratch) -> (Vec<u32>, bool) {
        tree_within(g, source, |_| true, s)
    }

    #[test]
    fn tree_parents_are_the_point_to_point_paths_ties_included() {
        // The 8×8 equal-weight lattice: every interior vertex has two
        // equal-cost predecessors, so the parents below are right only
        // if the tree breaks ties exactly as the early-stopped search.
        let nx = 8u32;
        let g = lattice(nx, 8.0);
        let (mut s, mut path) = (PlannerScratch::new(), Vec::new());
        for source in [0, 7, 27, 63] {
            let (parent, tied) = tree(&g, source, &mut s);
            assert!(tied, "a lattice ties");
            for target in 0..nx * nx {
                assert!(dijkstra_into(&g, source, target, &mut s, &mut path));
                let before = path.len().checked_sub(2).map_or(u32::MAX, |i| path[i]);
                assert_eq!(parent[target as usize], before, "{source} -> {target}");
            }
        }
    }

    #[test]
    fn filtered_tree_parents_are_the_filtered_paths() {
        // The lattice with its middle two columns' lower half removed:
        // the tree from a corner walks round the hole, like the
        // filtered point-to-point search.
        let nx = 8u32;
        let g = lattice(nx, 8.0);
        let open = |v: u32| !(3..5).contains(&(v % nx)) || v / nx < 4;
        let (mut s, mut path) = (PlannerScratch::new(), Vec::new());
        let (parent, _) = tree_within(&g, 56, open, &mut s);
        for target in (0..nx * nx).filter(|&v| open(v)) {
            assert!(astar_path_filtered_into(
                &g,
                56,
                target,
                |_| 0.0,
                open,
                &mut s,
                &mut path
            ));
            let before = path.len().checked_sub(2).map_or(u32::MAX, |i| path[i]);
            assert_eq!(parent[target as usize], before, "56 -> {target}");
        }
        for v in (0..nx * nx).filter(|&v| !open(v)) {
            assert_eq!(parent[v as usize], u32::MAX, "{v} is filtered out");
        }
    }

    #[test]
    fn tree_reports_ties_only_where_costs_tie() {
        // 0–1–2 with a dear chord, 3 apart: one path each, no tie, and
        // the unreachable vertex is never reported.
        let (mut s, g) = (PlannerScratch::new(), diamond());
        assert_eq!(tree(&g, 0, &mut s), (vec![u32::MAX, 0, 1, u32::MAX], false));
        // Price the chord at the two-hop cost: a tie, won by the
        // smaller predecessor whichever is relaxed first.
        let tie = CsrGraph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 2.0)]);
        assert_eq!(tree(&tie, 0, &mut s), (vec![u32::MAX, 0, 0], true));
        assert_eq!(tree(&tie, 2, &mut s), (vec![1, 2, u32::MAX], true));
    }

    #[test]
    fn tree_reports_each_settled_distance() {
        let (mut s, g) = (PlannerScratch::new(), diamond());
        let mut dist = vec![INFINITY; 4];
        dijkstra_tree_with(&g, 0, |_| true, &mut s, |v, _, d| dist[v as usize] = d);
        assert_eq!(dist, [0.0, 1.0, 2.0, INFINITY]);
    }
}
