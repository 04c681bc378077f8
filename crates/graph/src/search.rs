//! Shortest-path and connectivity algorithms.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

use crate::Adjacency;

/// Distance value for unreachable vertices.
pub const INFINITY: f64 = f64::INFINITY;

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

/// A heap entry ordered by *smallest* distance first.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct HeapItem {
    pub(crate) dist: f64,
    pub(crate) vertex: u32,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap. Distances are finite,
        // non-NaN by construction (weights validated by Graph).
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
/// use citymesh_graph::{dijkstra, Graph};
///
/// let mut g = Graph::new(3);
/// g.add_edge(0, 1, 1.0);
/// g.add_edge(1, 2, 1.0);
/// g.add_edge(0, 2, 10.0); // expensive direct hop
/// let result = dijkstra(&g, 0);
/// assert_eq!(result.dist[2], 2.0);
/// assert_eq!(result.path_to(2), Some(vec![0, 1, 2]));
/// ```
pub fn dijkstra<G: Adjacency + ?Sized>(g: &G, source: u32) -> PathResult {
    dijkstra_bounded(g, source, None)
}

/// Like [`dijkstra`] but may stop early once `target` is settled,
/// which is the common case for point-to-point route planning.
pub fn dijkstra_path<G: Adjacency + ?Sized>(g: &G, source: u32, target: u32) -> Option<Vec<u32>> {
    dijkstra_bounded(g, source, Some(target)).path_to(target)
}

/// Dijkstra restricted to vertices for which `allowed` returns `true`
/// (the source and target are always allowed). Used for detour
/// planning around failed or compromised regions: blocked vertices are
/// simply invisible to the search.
pub fn dijkstra_path_filtered<G: Adjacency + ?Sized>(
    g: &G,
    source: u32,
    target: u32,
    allowed: impl Fn(u32) -> bool,
) -> Option<Vec<u32>> {
    let n = g.num_vertices();
    assert!(
        (source as usize) < n && (target as usize) < n,
        "vertex out of range"
    );
    let mut dist = vec![INFINITY; n];
    let mut parent = vec![u32::MAX; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[source as usize] = 0.0;
    heap.push(HeapItem {
        dist: 0.0,
        vertex: source,
    });

    while let Some(HeapItem { dist: d, vertex: u }) = heap.pop() {
        if settled[u as usize] {
            continue;
        }
        settled[u as usize] = true;
        if u == target {
            return PathResult { dist, parent }.path_to(target);
        }
        for e in g.neighbors(u) {
            if e.to != target && e.to != source && !allowed(e.to) {
                continue;
            }
            let nd = d + e.weight;
            if nd < dist[e.to as usize] {
                dist[e.to as usize] = nd;
                parent[e.to as usize] = u;
                heap.push(HeapItem {
                    dist: nd,
                    vertex: e.to,
                });
            }
        }
    }
    None
}

fn dijkstra_bounded<G: Adjacency + ?Sized>(g: &G, source: u32, target: Option<u32>) -> PathResult {
    let n = g.num_vertices();
    assert!((source as usize) < n, "source out of range");
    let mut dist = vec![INFINITY; n];
    let mut parent = vec![u32::MAX; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[source as usize] = 0.0;
    heap.push(HeapItem {
        dist: 0.0,
        vertex: source,
    });

    while let Some(HeapItem { dist: d, vertex: u }) = heap.pop() {
        if settled[u as usize] {
            continue; // stale lazy-deleted entry
        }
        settled[u as usize] = true;
        if target == Some(u) {
            break;
        }
        for e in g.neighbors(u) {
            let nd = d + e.weight;
            if nd < dist[e.to as usize] {
                dist[e.to as usize] = nd;
                parent[e.to as usize] = u;
                heap.push(HeapItem {
                    dist: nd,
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
pub fn bfs<G: Adjacency + ?Sized>(g: &G, source: u32) -> PathResult {
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
pub fn bfs_path<G: Adjacency + ?Sized>(g: &G, source: u32, target: u32) -> Option<Vec<u32>> {
    bfs(g, source).path_to(target)
}

/// A* from `source` to `target` with an admissible heuristic
/// `h(v) ≤ true remaining cost`. Returns the path, or `None` when
/// disconnected.
///
/// Used by route planning over large building graphs where the
/// Euclidean lower bound prunes most of the city.
pub fn astar<G: Adjacency + ?Sized>(
    g: &G,
    source: u32,
    target: u32,
    h: impl Fn(u32) -> f64,
) -> Option<Vec<u32>> {
    let n = g.num_vertices();
    assert!(
        (source as usize) < n && (target as usize) < n,
        "vertex out of range"
    );
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
            continue;
        }
        settled[u as usize] = true;
        if u == target {
            return PathResult { dist, parent }.path_to(target);
        }
        let d = dist[u as usize];
        for e in g.neighbors(u) {
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
    None
}

/// Labels each vertex with its connected-component id (0-based,
/// assigned in order of discovery) and returns `(labels, count)`.
///
/// The paper's *reachability* metric is "source and destination share
/// a component of the AP graph" (§4).
pub fn connected_components<G: Adjacency + ?Sized>(g: &G) -> (Vec<u32>, usize) {
    let mut labels = Vec::new();
    let count = label_components(
        g.num_vertices(),
        |_| true,
        |u| g.neighbors(u).iter().map(|e| e.to),
        &mut labels,
    );
    (labels, count)
}

/// [`connected_components`] in neighbour-row form, for adjacency that
/// is not an [`Adjacency`] (the AP graph's audience rows) or that must
/// be read with some vertices removed (a city's dark buildings): labels
/// the components of vertices `0..n` that `keep` admits, numbered by
/// smallest member, into `labels` — `u32::MAX` for a vertex it rejects
/// — and returns their count.
pub fn label_components<I: IntoIterator<Item = u32>>(
    n: usize,
    keep: impl Fn(u32) -> bool,
    neighbors: impl Fn(u32) -> I,
    labels: &mut Vec<u32>,
) -> usize {
    labels.clear();
    labels.resize(n, u32::MAX);
    let mut count = 0u32;
    let mut stack = Vec::new();
    for start in 0..n as u32 {
        if labels[start as usize] != u32::MAX || !keep(start) {
            continue;
        }
        labels[start as usize] = count;
        stack.push(start);
        while let Some(u) = stack.pop() {
            for v in neighbors(u) {
                if labels[v as usize] == u32::MAX && keep(v) {
                    labels[v as usize] = count;
                    stack.push(v);
                }
            }
        }
        count += 1;
    }
    count as usize
}

/// Returns `(component_label, size)` of the largest connected
/// component, or `None` for an empty graph. Used to report how badly a
/// city fractures into islands (paper §4: the Washington D.C. case).
pub fn largest_component<G: Adjacency + ?Sized>(g: &G) -> Option<(u32, usize)> {
    let (labels, count) = connected_components(g);
    if count == 0 {
        return None;
    }
    let mut sizes = vec![0usize; count];
    for &l in &labels {
        sizes[l as usize] += 1;
    }
    sizes
        .iter()
        .enumerate()
        .max_by_key(|(_, s)| **s)
        .map(|(i, s)| (i as u32, *s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    /// A small weighted graph with a known shortest-path structure:
    ///
    /// ```text
    ///   0 --1-- 1 --1-- 2
    ///    \             /
    ///     ----10------
    ///   3 (isolated)
    /// ```
    fn diamond() -> Graph {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(0, 2, 10.0);
        g
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
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(0, 3, 5.0);
        g.add_edge(3, 2, 5.0);
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
        let mut g = Graph::new(n as usize);
        for i in 0..n - 1 {
            g.add_edge(i, i + 1, 1.0);
        }
        let path = astar(&g, 0, n - 1, |v| (n - 1 - v) as f64).unwrap();
        assert_eq!(path.len(), n as usize);
        assert_eq!(path[0], 0);
        assert_eq!(*path.last().unwrap(), n - 1);
    }

    #[test]
    fn components_and_largest() {
        let mut g = Graph::new(6);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(3, 4, 1.0);
        // 5 isolated.
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert_ne!(labels[0], labels[5]);
        let (label, size) = largest_component(&g).unwrap();
        assert_eq!(size, 3);
        assert_eq!(label, labels[0]);
        // Removing the middle vertex splits the chain; labels are
        // numbered by smallest member and reuse the caller's vector.
        let mut labels = vec![7; 2];
        let rows = |u: u32| g.neighbors(u).iter().map(|e| e.to);
        assert_eq!(label_components(6, |v| v != 1, rows, &mut labels), 4);
        assert_eq!(labels, [0, u32::MAX, 1, 2, 2, 3]);
    }

    #[test]
    fn empty_graph_components() {
        let g = Graph::new(0);
        let (labels, count) = connected_components(&g);
        assert!(labels.is_empty());
        assert_eq!(count, 0);
        assert!(largest_component(&g).is_none());
    }

    #[test]
    fn zero_weight_edges_are_legal() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 0.0);
        g.add_edge(1, 2, 0.0);
        let r = dijkstra(&g, 0);
        assert_eq!(r.dist[2], 0.0);
        assert_eq!(r.path_to(2).unwrap().len(), 3);
    }

    #[test]
    fn directed_arcs_respected_by_search() {
        let mut g = Graph::new(3);
        g.add_arc(0, 1, 1.0);
        g.add_arc(1, 2, 1.0);
        assert_eq!(dijkstra(&g, 0).dist[2], 2.0);
        assert_eq!(dijkstra(&g, 2).dist[0], INFINITY);
    }
}
