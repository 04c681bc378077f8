//! The textbook searches: allocate per call, reuse nothing, break no
//! ties on purpose (one lazy-deletion A* loop serves every weighted
//! search; `h ≡ 0` is Dijkstra). `citymesh-graph`'s scratch kernels
//! and the hop landmarks are graded against these.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use citymesh_graph::{CsrGraph, INFINITY};

/// The result of a single-source search: per-vertex distance and the
/// predecessor tree for path reconstruction.
#[derive(Clone, Debug)]
pub struct PathResult {
    /// `dist[v]` is the shortest distance from the source, or
    /// [`INFINITY`] when unreachable.
    pub dist: Vec<f64>,
    /// `parent[v]` is the predecessor of `v` on a shortest path, or
    /// `u32::MAX` for the source and unreachable vertices.
    pub parent: Vec<u32>,
}

impl PathResult {
    /// Reconstructs the path from the search source to `target`, or
    /// `None` when `target` is unreachable. The path includes both
    /// endpoints.
    pub fn path_to(&self, target: u32) -> Option<Vec<u32>> {
        if !self.dist[target as usize].is_finite() {
            return None;
        }
        let mut path = vec![target];
        let mut cur = target;
        while self.parent[cur as usize] != u32::MAX {
            cur = self.parent[cur as usize];
            path.push(cur);
            debug_assert!(path.len() <= self.dist.len(), "parent cycle");
        }
        path.reverse();
        Some(path)
    }
}

/// A heap entry ordered by *smallest* distance first, then smallest id.
#[derive(Clone, Debug, PartialEq)]
struct HeapItem {
    dist: f64,
    vertex: u32,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap. Distances are finite,
        // non-NaN by construction (weights validated by CsrGraph).
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.vertex.cmp(&self.vertex))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra's algorithm from `source`.
///
/// With cubed-distance weights (paper §3 step 2) this computes the
/// *building route*: short inter-building hops are strongly preferred
/// because they are the hops most likely to have actual AP coverage.
///
/// `O((V + E) log V)` with a binary heap and lazy deletion.
///
/// ```
/// use citymesh_graph::CsrGraph;
/// use citymesh_reference::dijkstra;
///
/// // The direct hop 0 — 2 is expensive.
/// let g = CsrGraph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 10.0)]);
/// let result = dijkstra(&g, 0);
/// assert_eq!(result.dist[2], 2.0);
/// assert_eq!(result.path_to(2), Some(vec![0, 1, 2]));
/// ```
pub fn dijkstra(g: &CsrGraph, source: u32) -> PathResult {
    search(g, source, None, |_| 0.0, |_| true)
}

/// Like [`dijkstra`] but may stop early once `target` is settled,
/// which is the common case for point-to-point route planning.
pub fn dijkstra_path(g: &CsrGraph, source: u32, target: u32) -> Option<Vec<u32>> {
    astar(g, source, target, |_| 0.0)
}

/// Dijkstra restricted to vertices for which `allowed` returns `true`
/// (the source and target are always allowed). Used for detour
/// planning around failed or compromised regions: blocked vertices are
/// simply invisible to the search.
pub fn dijkstra_path_filtered(
    g: &CsrGraph,
    source: u32,
    target: u32,
    allowed: impl Fn(u32) -> bool,
) -> Option<Vec<u32>> {
    assert!((target as usize) < g.num_vertices(), "vertex out of range");
    search(g, source, Some(target), |_| 0.0, allowed).path_to(target)
}

/// A* from `source` to `target` with an admissible heuristic
/// `h(v) ≤ true remaining cost`. Returns the path, or `None` when
/// disconnected.
pub fn astar(g: &CsrGraph, source: u32, target: u32, h: impl Fn(u32) -> f64) -> Option<Vec<u32>> {
    assert!((target as usize) < g.num_vertices(), "vertex out of range");
    search(g, source, Some(target), h, |_| true).path_to(target)
}

/// Lazy-deletion A* from `source` under `h` (`h ≡ 0` is Dijkstra) over
/// the vertices `allowed` admits (`source` and `target` always),
/// stopping once `target` is settled.
fn search(
    g: &CsrGraph,
    source: u32,
    target: Option<u32>,
    h: impl Fn(u32) -> f64,
    allowed: impl Fn(u32) -> bool,
) -> PathResult {
    let n = g.num_vertices();
    assert!((source as usize) < n, "source out of range");
    let mut dist = vec![INFINITY; n];
    let mut parent = vec![u32::MAX; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[source as usize] = 0.0;
    heap.push(HeapItem {
        dist: h(source),
        vertex: source,
    });

    while let Some(HeapItem { vertex: u, .. }) = heap.pop() {
        if settled[u as usize] {
            continue; // stale lazy-deleted entry
        }
        settled[u as usize] = true;
        if target == Some(u) {
            break;
        }
        let d = dist[u as usize];
        for e in g.neighbors(u) {
            if Some(e.to) != target && e.to != source && !allowed(e.to) {
                continue;
            }
            let nd = d + e.weight;
            if nd < dist[e.to as usize] {
                dist[e.to as usize] = nd;
                parent[e.to as usize] = u;
                heap.push(HeapItem {
                    dist: nd + h(e.to),
                    vertex: e.to,
                });
            }
        }
    }
    PathResult { dist, parent }
}

/// Breadth-first search from `source`: hop counts ignoring weights.
///
/// The BFS hop count over the AP graph is the paper's "minimum number
/// of transmissions necessary" — the denominator of the transmission-
/// overhead metric (§4).
pub fn bfs(g: &CsrGraph, source: u32) -> PathResult {
    let n = g.num_vertices();
    assert!((source as usize) < n, "source out of range");
    let mut dist = vec![INFINITY; n];
    let mut parent = vec![u32::MAX; n];
    let mut queue = VecDeque::new();
    dist[source as usize] = 0.0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let d = dist[u as usize];
        for e in g.neighbors(u) {
            if !dist[e.to as usize].is_finite() {
                dist[e.to as usize] = d + 1.0;
                parent[e.to as usize] = u;
                queue.push_back(e.to);
            }
        }
    }
    PathResult { dist, parent }
}

/// Hop-minimal path from `source` to `target`, or `None` when
/// disconnected.
pub fn bfs_path(g: &CsrGraph, source: u32, target: u32) -> Option<Vec<u32>> {
    bfs(g, source).path_to(target)
}

/// The visited set and queue of [`bfs_distance_to`], kept from one
/// flood to the next so an oracle running hundreds of thousands of them does not
/// time the allocator.
#[derive(Clone, Debug, Default)]
pub struct FloodScratch {
    hops: Vec<u64>,
    queue: VecDeque<u32>,
}

impl FloodScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Breadth-first hop count from `source` to the nearest vertex for
/// which `found` returns `true`, or `None` when no such vertex is
/// reachable. `found` is probed exactly once per vertex the flood
/// reaches, in nondecreasing hop order, so the first hit is minimal and
/// the flood stops there.
///
/// This is the ideal-unicast query (paper §4's overhead denominator):
/// "hops from this AP to any AP of the destination building".
///
/// # Panics
/// Panics when `source` is out of range.
pub fn bfs_distance_to(
    g: &CsrGraph,
    source: u32,
    mut found: impl FnMut(u32) -> bool,
    scratch: &mut FloodScratch,
) -> Option<u64> {
    let n = g.num_vertices();
    assert!((source as usize) < n, "source out of range");
    let FloodScratch { hops, queue } = scratch;
    hops.clear();
    hops.resize(n, u64::MAX);
    queue.clear();
    hops[source as usize] = 0;
    if found(source) {
        return Some(0);
    }
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let d = hops[u as usize] + 1;
        for e in g.neighbors(u) {
            if hops[e.to as usize] == u64::MAX {
                hops[e.to as usize] = d;
                if found(e.to) {
                    return Some(d);
                }
                queue.push_back(e.to);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small weighted graph with a known shortest-path structure:
    ///
    /// ```text
    ///   0 --1-- 1 --1-- 2
    ///    \             /
    ///     ----10------
    ///   3 (isolated)
    /// ```
    fn diamond() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 10.0)])
    }

    #[test]
    fn dijkstra_prefers_cheap_two_hop_path() {
        let r = dijkstra(&diamond(), 0);
        assert_eq!(r.dist[2], 2.0);
        assert_eq!(r.path_to(2), Some(vec![0, 1, 2]));
        assert_eq!(r.dist[3], INFINITY);
        assert_eq!(r.path_to(3), None);
    }

    #[test]
    fn dijkstra_source_path_is_itself() {
        let r = dijkstra(&diamond(), 0);
        assert_eq!(r.dist[0], 0.0);
        assert_eq!(r.path_to(0), Some(vec![0]));
    }

    #[test]
    fn dijkstra_path_early_exit_matches_full_run() {
        let g = diamond();
        assert_eq!(dijkstra_path(&g, 0, 2), Some(vec![0, 1, 2]));
        assert_eq!(dijkstra_path(&g, 0, 3), None);
    }

    #[test]
    fn filtered_dijkstra_detours_and_fails_honestly() {
        // 0 — 1 — 2 with an expensive bypass 0 — 3 — 2.
        let g = CsrGraph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (0, 3, 5.0), (3, 2, 5.0)]);
        // Unfiltered: takes the cheap middle.
        assert_eq!(
            dijkstra_path_filtered(&g, 0, 2, |_| true),
            Some(vec![0, 1, 2])
        );
        // Vertex 1 blocked: detours through 3.
        assert_eq!(
            dijkstra_path_filtered(&g, 0, 2, |v| v != 1),
            Some(vec![0, 3, 2])
        );
        // Both intermediates blocked: no path.
        assert_eq!(dijkstra_path_filtered(&g, 0, 2, |v| v != 1 && v != 3), None);
        // Blocking the endpoints themselves is ignored.
        assert_eq!(
            dijkstra_path_filtered(&g, 0, 2, |v| v != 0 && v != 2 && v != 1),
            Some(vec![0, 3, 2])
        );
    }

    #[test]
    fn bfs_counts_hops_not_weights() {
        let r = bfs(&diamond(), 0);
        // One hop via the heavy direct edge.
        assert_eq!(r.dist[2], 1.0);
        assert_eq!(bfs_path(&diamond(), 0, 2), Some(vec![0, 2]));
    }

    #[test]
    fn astar_with_zero_heuristic_matches_dijkstra() {
        let g = diamond();
        assert_eq!(astar(&g, 0, 2, |_| 0.0), Some(vec![0, 1, 2]));
        assert_eq!(astar(&g, 0, 3, |_| 0.0), None);
    }

    #[test]
    fn astar_on_line_graph_with_admissible_heuristic() {
        // Vertices 0..10 in a line, weight 1 each; heuristic = remaining
        // count, which is exactly admissible.
        let n = 10u32;
        let line: Vec<_> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        let g = CsrGraph::from_edges(n as usize, &line);
        let path = astar(&g, 0, n - 1, |v| (n - 1 - v) as f64).unwrap();
        assert_eq!(path.len(), n as usize);
        assert_eq!(path[0], 0);
        assert_eq!(*path.last().unwrap(), n - 1);
    }

    #[test]
    fn zero_weight_edges_are_legal() {
        let g = CsrGraph::from_edges(3, &[(0, 1, 0.0), (1, 2, 0.0)]);
        let r = dijkstra(&g, 0);
        assert_eq!(r.dist[2], 0.0);
        assert_eq!(r.path_to(2).unwrap().len(), 3);
    }

    #[test]
    fn bfs_distance_to_matches_full_bfs() {
        // 0 — 1 — 2 — 3, and the disconnected pair 4 — 5.
        let links = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (4, 5, 1.0)];
        let g = CsrGraph::from_edges(6, &links);
        let mut s = FloodScratch::new();
        let full = bfs(&g, 0);
        assert_eq!(
            bfs_distance_to(&g, 0, |v| v == 3, &mut s),
            Some(full.dist[3] as u64)
        );
        assert_eq!(bfs_distance_to(&g, 0, |v| v == 0, &mut s), Some(0));
        assert_eq!(bfs_distance_to(&g, 0, |v| v >= 4, &mut s), None);
        // Predicate over a set: nearest of {2, 3} is 2 hops away.
        assert_eq!(
            bfs_distance_to(&g, 0, |v| v == 2 || v == 3, &mut s),
            Some(2)
        );
    }
}
