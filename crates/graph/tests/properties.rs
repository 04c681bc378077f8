//! Property-based tests for the graph crate.

use citymesh_graph::{
    astar_path_filtered_into, dijkstra_tree_with, label_components, CsrGraph, PlannerScratch,
};
use citymesh_reference::{
    astar, bfs, bfs_distance_to, dijkstra, dijkstra_path_filtered, FloodScratch,
};
use proptest::prelude::*;

/// A random undirected graph as (n, edge list).
fn random_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32, f64)>)> {
    (2usize..40).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 0.0..100.0f64), 0..120);
        (Just(n), edges)
    })
}

fn build(n: usize, edges: &[(u32, u32, f64)]) -> CsrGraph {
    CsrGraph::from_edges(n, edges)
}

proptest! {
    /// On unit weights, Dijkstra and BFS agree everywhere.
    #[test]
    fn dijkstra_equals_bfs_on_unit_weights((n, edges) in random_graph()) {
        let unit: Vec<_> = edges.iter().map(|&(u, v, _)| (u, v, 1.0)).collect();
        let g = build(n, &unit);
        let d = dijkstra(&g, 0);
        let b = bfs(&g, 0);
        for v in 0..n {
            prop_assert_eq!(d.dist[v], b.dist[v], "vertex {}", v);
        }
    }

    /// Dijkstra distances satisfy the triangle inequality over edges:
    /// dist[v] ≤ dist[u] + w(u,v) for every edge.
    #[test]
    fn dijkstra_relaxed_fixpoint((n, edges) in random_graph()) {
        let g = build(n, &edges);
        let r = dijkstra(&g, 0);
        for u in 0..n as u32 {
            if !r.dist[u as usize].is_finite() { continue; }
            for e in g.neighbors(u) {
                prop_assert!(
                    r.dist[e.to as usize] <= r.dist[u as usize] + e.weight + 1e-9,
                    "edge {}->{} violates fixpoint", u, e.to
                );
            }
        }
    }

    /// Reconstructed path edge weights sum to the reported distance.
    #[test]
    fn dijkstra_path_cost_matches_distance((n, edges) in random_graph(), target in 0u32..40) {
        let g = build(n, &edges);
        let target = target % n as u32;
        let r = dijkstra(&g, 0);
        if let Some(path) = r.path_to(target) {
            let mut cost = 0.0;
            for w in path.windows(2) {
                // Minimum-weight parallel edge is what Dijkstra used.
                let best = g
                    .neighbors(w[0])
                    .iter()
                    .filter(|e| e.to == w[1])
                    .map(|e| e.weight)
                    .fold(f64::INFINITY, f64::min);
                prop_assert!(best.is_finite(), "path uses a non-edge");
                cost += best;
            }
            prop_assert!((cost - r.dist[target as usize]).abs() < 1e-6);
        }
    }

    /// A* with the zero heuristic returns a path of the same cost as
    /// Dijkstra whenever one exists.
    #[test]
    fn astar_zero_heuristic_cost_matches((n, edges) in random_graph(), target in 0u32..40) {
        let g = build(n, &edges);
        let target = target % n as u32;
        let d = dijkstra(&g, 0);
        let a = astar(&g, 0, target, |_| 0.0);
        prop_assert_eq!(a.is_some(), d.dist[target as usize].is_finite());
    }

    /// Component labels match BFS reachability: two vertices share a
    /// label exactly when a BFS from one reaches the other, and labels
    /// are numbered by smallest member.
    #[test]
    fn components_match_bfs_reachability((n, edges) in random_graph()) {
        let g = build(n, &edges);
        let mut labels = Vec::new();
        let rows = |u: u32| g.neighbors(u).iter().map(|e| e.to);
        let count = label_components(n, |_| true, rows, &mut labels);
        let mut next = 0;
        for u in 0..n as u32 {
            let reach = bfs(&g, u);
            for v in 0..n as u32 {
                prop_assert_eq!(
                    labels[u as usize] == labels[v as usize],
                    reach.dist[v as usize].is_finite(),
                    "u={} v={}", u, v
                );
            }
            if labels[u as usize] == next {
                next += 1;
            }
            prop_assert!(labels[u as usize] < next, "label {} before {}", labels[u as usize], next);
        }
        prop_assert_eq!(next as usize, count);
    }

    /// A filtered tree reports exactly the admitted vertices the
    /// source reaches through admitted vertices, each at the distance a
    /// textbook Dijkstra gives on the admitted subgraph, bit for bit —
    /// and the filtered reference search finds a path to exactly those.
    #[test]
    fn filtered_tree_matches_reference_over_the_admitted_set(
        (n, edges) in random_graph(),
        source in 0u32..40,
        blocked_mod in 2u32..6,
    ) {
        let source = source % n as u32;
        let allowed = |v: u32| v == source || v % blocked_mod != 1;
        let g = build(n, &edges);
        let mut tree = vec![f64::INFINITY; n];
        let mut scratch = PlannerScratch::new();
        dijkstra_tree_with(&g, source, allowed, &mut scratch, |v, _, d| {
            assert!(allowed(v), "{v} is filtered out");
            tree[v as usize] = d;
        });
        let admitted: Vec<_> = edges
            .iter()
            .copied()
            .filter(|&(u, v, _)| allowed(u) && allowed(v))
            .collect();
        let reference = dijkstra(&build(n, &admitted), source);
        for v in (0..n as u32).filter(|&v| allowed(v)) {
            prop_assert_eq!(
                tree[v as usize].to_bits(),
                reference.dist[v as usize].to_bits(),
                "vertex {}", v
            );
            prop_assert_eq!(
                tree[v as usize].is_finite(),
                dijkstra_path_filtered(&g, source, v, allowed).is_some(),
                "vertex {}", v
            );
        }
    }

    /// A synthetic city: random building centroids joined within a gap
    /// radius with cubed-distance weights (exactly how `BuildingGraph`
    /// weighs edges). Goal-directed A* with the Euclidean heuristic
    /// must return paths *bit-identical* to Dijkstra — same vertices in
    /// the same order — for every reachable pair, and `None`-equivalent
    /// otherwise. One shared scratch serves every query.
    #[test]
    fn astar_bit_identical_to_dijkstra_on_synthetic_cities(
        pts in proptest::collection::vec((0.0..400.0f64, 0.0..400.0f64), 2..40),
        exponent in 1.0..4.0f64,
        pairs in proptest::collection::vec((0usize..40, 0usize..40), 1..12),
    ) {
        let n = pts.len();
        let mut links = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let d = ((pts[i].0 - pts[j].0).powi(2) + (pts[i].1 - pts[j].1).powi(2)).sqrt();
                if d <= 120.0 {
                    links.push((i as u32, j as u32, d.max(1.0).powf(exponent)));
                }
            }
        }
        let g = build(n, &links);
        let mut scratch = PlannerScratch::new();
        let mut d_path = Vec::new();
        let mut a_path = Vec::new();
        for (s, t) in pairs {
            let (s, t) = ((s % n) as u32, (t % n) as u32);
            let found =
                astar_path_filtered_into(&g, s, t, |_| 0.0, |_| true, &mut scratch, &mut d_path);
            // Euclidean straight-line distance: admissible and strictly
            // consistent for exponent ≥ 1 (weights are max(d,1)^e ≥ d).
            let (tx, ty) = pts[t as usize];
            let h = |v: u32| {
                let (x, y) = pts[v as usize];
                ((x - tx).powi(2) + (y - ty).powi(2)).sqrt()
            };
            let a_found = astar_path_filtered_into(&g, s, t, h, |_| true, &mut scratch, &mut a_path);
            prop_assert_eq!(found, a_found, "reachability diverged for {}->{}", s, t);
            prop_assert_eq!(&d_path, &a_path, "path diverged for {}->{}", s, t);
        }
    }

    /// The scratch kernels agree with the allocating baselines on
    /// arbitrary graphs (parallel edges, self-loops, zero weights):
    /// same path cost and same reachability, and `bfs_distance_to`
    /// equals the full-BFS minimum over the accepting set.
    #[test]
    fn scratch_kernels_match_allocating_baselines(
        (n, edges) in random_graph(),
        target in 0u32..40,
        accept_mod in 2u32..5,
    ) {
        let g = build(n, &edges);
        let target = target % n as u32;
        let d = dijkstra(&g, 0);
        let mut scratch = PlannerScratch::new();
        let mut path = Vec::new();
        let found = astar_path_filtered_into(&g, 0, target, |_| 0.0, |_| true, &mut scratch, &mut path);
        prop_assert_eq!(found, d.dist[target as usize].is_finite());
        if found {
            let mut cost = 0.0;
            for w in path.windows(2) {
                let best = g
                    .neighbors(w[0])
                    .iter()
                    .filter(|e| e.to == w[1])
                    .map(|e| e.weight)
                    .fold(f64::INFINITY, f64::min);
                prop_assert!(best.is_finite(), "path uses a non-edge");
                cost += best;
            }
            prop_assert!((cost - d.dist[target as usize]).abs() < 1e-6);
        }
        let b = bfs(&g, 0);
        let expected = (0..n as u32)
            .filter(|v| v % accept_mod == 0 && b.dist[*v as usize].is_finite())
            .map(|v| b.dist[v as usize] as u64)
            .min();
        prop_assert_eq!(
            bfs_distance_to(&g, 0, |v| v % accept_mod == 0, &mut FloodScratch::new()),
            expected
        );
    }

    /// BFS distance from the source to itself is 0 and every reachable
    /// vertex has a parent chain back to the source.
    #[test]
    fn bfs_parent_chains_terminate((n, edges) in random_graph()) {
        let g = build(n, &edges);
        let r = bfs(&g, 0);
        prop_assert_eq!(r.dist[0], 0.0);
        for v in 0..n as u32 {
            if r.dist[v as usize].is_finite() {
                let path = r.path_to(v).expect("reachable");
                prop_assert_eq!(path[0], 0);
                prop_assert_eq!(*path.last().unwrap(), v);
                prop_assert_eq!(path.len() as f64 - 1.0, r.dist[v as usize]);
            }
        }
    }
}
