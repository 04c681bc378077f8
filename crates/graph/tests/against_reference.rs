//! The graph crate's kernels against the allocating references they
//! replaced: the scratch search against a textbook Dijkstra, and the
//! hop landmarks (search and rows) against a BFS flood.

use citymesh_graph::{
    astar_path_filtered_into, hops_to_set_row, label_components, CsrGraph, HopLandmarks,
    HopScratch, PlannerScratch,
};
use citymesh_reference::{bfs_distance_to, dijkstra_path, dijkstra_path_filtered, FloodScratch};

fn diamond() -> CsrGraph {
    CsrGraph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 10.0)])
}

#[test]
fn scratch_search_matches_allocating_dijkstra() {
    let g = diamond();
    let (mut s, mut path) = (PlannerScratch::new(), Vec::new());
    let mut search = |target, path: &mut Vec<u32>| {
        astar_path_filtered_into(&g, 0, target, |_| 0.0, |_| true, &mut s, path)
    };
    assert!(search(2, &mut path));
    assert_eq!(Some(path.clone()), dijkstra_path(&g, 0, 2));
    assert!(!search(3, &mut path));
    assert!(path.is_empty());
    assert_eq!(dijkstra_path(&g, 0, 3), None);
}

#[test]
fn filtered_matches_allocating_filtered() {
    let g = CsrGraph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (0, 3, 5.0), (3, 2, 5.0)]);
    let (mut s, mut path) = (PlannerScratch::new(), Vec::new());
    let mut search = |allowed: fn(u32) -> bool, path: &mut Vec<u32>| {
        astar_path_filtered_into(&g, 0, 2, |_| 0.0, allowed, &mut s, path)
    };
    assert!(search(|v| v != 1, &mut path));
    assert_eq!(
        Some(path.clone()),
        dijkstra_path_filtered(&g, 0, 2, |v| v != 1)
    );
    assert!(!search(|v| v != 1 && v != 3, &mut path));
    assert_eq!(dijkstra_path_filtered(&g, 0, 2, |v| v != 1 && v != 3), None);
    // Endpoints exempt from the filter, like the allocating kernel.
    assert!(search(|v| v != 0 && v != 2 && v != 1, &mut path));
    assert_eq!(path, vec![0, 3, 2]);
}

/// Rows of `g` in the callback form the hop index reads.
fn rows(g: &CsrGraph) -> Vec<Vec<u32>> {
    (0..g.num_vertices() as u32)
        .map(|v| g.neighbors(v).iter().map(|e| e.to).collect())
        .collect()
}

/// Every (source, target set) on `g` against the reference BFS,
/// through one warm scratch — by search, and from the set's row.
fn assert_matches_bfs(g: &CsrGraph, sets: &[&[u32]]) {
    let adj = rows(g);
    let neighbors = |v: u32| adj[v as usize].as_slice();
    let mut components = Vec::new();
    let count = label_components(
        adj.len(),
        |_| true,
        |v| neighbors(v).iter().copied(),
        &mut components,
    );
    let index = HopLandmarks::build(neighbors, &components, count);
    let mut scratch = HopScratch::new();
    let mut reference = FloodScratch::new();
    let mut row = vec![0u16; adj.len()];
    for set in sets {
        hops_to_set_row(neighbors, set, &mut row, &mut scratch);
        for src in 0..adj.len() as u32 {
            let want = bfs_distance_to(g, src, |v| set.contains(&v), &mut reference);
            assert_eq!(
                index.hops_to_set(neighbors, &components, src, set, &mut scratch),
                want,
                "src {src} set {set:?}"
            );
            let from_row = row[src as usize];
            assert_eq!(
                (from_row != u16::MAX).then_some(u64::from(from_row)),
                want,
                "row of {set:?} at {src}"
            );
        }
    }
}

/// The links of an `nx × ny` unit lattice.
fn lattice(nx: u32, ny: u32) -> Vec<(u32, u32, f64)> {
    let mut links = Vec::new();
    for y in 0..ny {
        for x in 0..nx {
            let v = y * nx + x;
            if x + 1 < nx {
                links.push((v, v + 1, 1.0));
            }
            if y + 1 < ny {
                links.push((v, v + nx, 1.0));
            }
        }
    }
    links
}

#[test]
fn hops_lattice_matches_bfs_for_single_and_multi_vertex_targets() {
    // 40 × 12 = 480 vertices: more than HOP_LANDMARKS, long enough
    // for the bound to steer, and full of equal-length paths.
    assert_matches_bfs(
        &CsrGraph::from_edges(480, &lattice(40, 12)),
        &[&[479], &[0], &[200, 201, 37], &[39, 440]],
    );
}

#[test]
fn hops_with_fewer_vertices_than_landmarks() {
    let g = CsrGraph::from_edges(5, &[(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)]);
    assert_matches_bfs(&g, &[&[2], &[4], &[0, 3], &[]]);
    assert_matches_bfs(&CsrGraph::from_edges(1, &[]), &[&[0], &[]]);
}

#[test]
fn hops_on_an_island_without_landmarks_answer_exactly() {
    // A 300-vertex lattice plus a 6-vertex path too small to earn a
    // landmark: the path is searched with a zero bound.
    let mut links = lattice(30, 10);
    let base = 300;
    for i in 0..5 {
        links.push((base + i, base + i + 1, 1.0));
    }
    let g = CsrGraph::from_edges(306, &links);
    assert_matches_bfs(&g, &[&[base + 5], &[base, 299], &[150]]);
}
