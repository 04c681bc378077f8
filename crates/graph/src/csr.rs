//! The one graph: compressed sparse rows built straight from an edge
//! list, and the stable counting sort that builds it (and every other
//! CSR table in the workspace).

/// A weighted edge out of some vertex.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Edge {
    /// Target vertex.
    pub to: u32,
    /// Non-negative weight. For the building graph this is the *cubed*
    /// centroid distance (paper §3 step 2).
    pub weight: f64,
}

/// Stable counting sort of `(key, item)` pairs into CSR buckets:
/// returns `(starts, items)`, where bucket `k` is
/// `items[starts[k]..starts[k + 1]]` and holds its items in the order
/// `pairs` yielded them. `pairs` is walked twice (count, then place).
///
/// # Panics
/// Panics when a key is `num_keys` or more, or when there are more
/// items than a `u32` offset can index.
pub fn bucket_by_key<T: Copy + Default>(
    num_keys: usize,
    pairs: impl Iterator<Item = (u32, T)> + Clone,
) -> (Vec<u32>, Vec<T>) {
    let mut starts = vec![0u32; num_keys + 1];
    for (k, _) in pairs.clone() {
        starts[k as usize + 1] += 1;
    }
    for k in 0..num_keys {
        starts[k + 1] = starts[k + 1]
            .checked_add(starts[k])
            .expect("bucket offsets fit u32");
    }
    let mut cursor = starts.clone();
    let mut items = vec![T::default(); starts[num_keys] as usize];
    for (k, item) in pairs {
        let at = &mut cursor[k as usize];
        items[*at as usize] = item;
        *at += 1;
    }
    (starts, items)
}

/// An undirected weighted graph with `u32` vertex ids `0..n`, stored as
/// compressed sparse rows: every vertex's edges packed into one flat
/// array behind an offsets table — two allocations whatever the vertex
/// count.
///
/// Built once by [`CsrGraph::from_edges`] and never changed; every
/// search in the crate reads it.
#[derive(Clone, Debug, Default)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v + 1]` indexes `edges` for vertex `v`.
    offsets: Vec<u32>,
    edges: Vec<Edge>,
}

impl CsrGraph {
    /// The graph on vertices `0..n` with one undirected edge per
    /// `(u, v, weight)` of `edges`. Self-loops are dropped — neither
    /// graph in CityMesh is meaningful with them — and parallel edges
    /// are kept (searches consider all of them). Row `u` holds one
    /// entry per edge touching `u`, in list order.
    ///
    /// # Panics
    /// Panics when an endpoint is `n` or more or a weight is negative
    /// or non-finite.
    pub fn from_edges(n: usize, edges: &[(u32, u32, f64)]) -> Self {
        let links = edges.iter().filter(|&&(u, v, _)| u != v);
        for &(u, v, weight) in links.clone() {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "vertex out of range: {u} or {v} (n = {n})"
            );
            assert!(
                weight.is_finite() && weight >= 0.0,
                "edge weight must be finite and non-negative, got {weight}"
            );
        }
        let arcs = links
            .flat_map(|&(u, v, weight)| [(u, Edge { to: v, weight }), (v, Edge { to: u, weight })]);
        let (offsets, edges) = bucket_by_key(n, arcs);
        CsrGraph { offsets, edges }
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len() / 2
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The edges of `u`, in edge-list order.
    #[inline]
    pub fn neighbors(&self, u: u32) -> &[Edge] {
        let i = u as usize;
        &self.edges[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Degree (number of edges) of `u`.
    #[inline]
    pub fn degree(&self, u: u32) -> usize {
        self.neighbors(u).len()
    }

    /// Whether an edge `u — v` exists.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.neighbors(u).iter().any(|e| e.to == v)
    }

    /// Heap bytes held by the structure (capacity, not length) — the
    /// metro sweep's memory accounting.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.edges.capacity() * std::mem::size_of::<Edge>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_graph() {
        for g in [CsrGraph::from_edges(0, &[]), CsrGraph::default()] {
            assert_eq!(g.num_vertices(), 0);
            assert_eq!(g.num_edges(), 0);
        }
    }

    #[test]
    fn undirected_edges_visible_from_both_ends() {
        let g = CsrGraph::from_edges(3, &[(0, 1, 2.0), (1, 2, 3.0)]);
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(0), &[Edge { to: 1, weight: 2.0 }]);
        assert!(g.memory_bytes() > 0);
    }

    #[test]
    fn self_loops_dropped_parallel_edges_kept() {
        let g = CsrGraph::from_edges(2, &[(1, 1, 5.0), (0, 1, 1.0), (0, 1, 9.0)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(1)[1], Edge { to: 0, weight: 9.0 });
    }

    #[test]
    #[should_panic(expected = "vertex out of range")]
    fn out_of_range_vertex_panics() {
        CsrGraph::from_edges(2, &[(0, 2, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "weight")]
    fn negative_weight_panics() {
        CsrGraph::from_edges(2, &[(0, 1, -1.0)]);
    }

    #[test]
    fn buckets_are_stable_and_may_be_empty() {
        let pairs = [(2, 'a'), (0, 'b'), (2, 'c'), (0, 'd')];
        let (starts, items) = bucket_by_key(4, pairs.iter().copied());
        assert_eq!(starts, [0, 2, 2, 4, 4]);
        assert_eq!(items, ['b', 'd', 'a', 'c']);
    }

    proptest! {
        /// Every row equals the one a growable adjacency list builds by
        /// appending `(v, w)` to `u` and then `(u, w)` to `v`, edge by
        /// edge in list order: parallel edges and self-loops included.
        #[test]
        fn rows_are_the_appended_adjacency_lists(
            (n, edges) in (1usize..30).prop_flat_map(|n| {
                let edge = (0..n as u32, 0..n as u32, 0.0..100.0f64);
                (Just(n), proptest::collection::vec(edge, 0..120))
            }),
        ) {
            let mut naive = vec![Vec::new(); n];
            let mut links = 0;
            for &(u, v, weight) in &edges {
                if u != v {
                    naive[u as usize].push(Edge { to: v, weight });
                    naive[v as usize].push(Edge { to: u, weight });
                    links += 1;
                }
            }
            let g = CsrGraph::from_edges(n, &edges);
            prop_assert_eq!(g.num_vertices(), n);
            prop_assert_eq!(g.num_edges(), links);
            for (v, row) in naive.iter().enumerate() {
                prop_assert_eq!(g.neighbors(v as u32), &row[..], "row {}", v);
            }
        }
    }
}
