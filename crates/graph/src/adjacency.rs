//! Compact adjacency-list graph, its frozen CSR form, and the
//! [`Adjacency`] trait every search kernel is generic over.

/// A weighted edge out of some vertex.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Edge {
    /// Target vertex.
    pub to: u32,
    /// Non-negative weight. For the building graph this is the *cubed*
    /// centroid distance (paper §3 step 2).
    pub weight: f64,
}

/// An undirected-by-default weighted graph with `u32` vertex ids.
///
/// Vertices are implicit: `0..num_vertices`. Edges are stored per
/// vertex in insertion order. Parallel edges are permitted (search
/// algorithms simply consider all of them); self-loops are ignored by
/// `add_edge`.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    adj: Vec<Vec<Edge>>,
    num_edges: usize,
}

impl Graph {
    /// Creates a graph with `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            num_edges: 0,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges added via [`Graph::add_edge`]
    /// (directed arcs added via [`Graph::add_arc`] count once each).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Adds an undirected edge `u — v` with `weight`.
    ///
    /// Self-loops are silently ignored: neither graph in CityMesh is
    /// meaningful with them, and the synthetic generators occasionally
    /// produce coincident endpoints.
    ///
    /// # Panics
    /// Panics when either endpoint is out of range or the weight is
    /// negative/non-finite.
    pub fn add_edge(&mut self, u: u32, v: u32, weight: f64) {
        if u == v {
            return;
        }
        self.check(u, v, weight);
        self.adj[u as usize].push(Edge { to: v, weight });
        self.adj[v as usize].push(Edge { to: u, weight });
        self.num_edges += 1;
    }

    /// Adds a directed arc `u → v` with `weight`.
    pub fn add_arc(&mut self, u: u32, v: u32, weight: f64) {
        if u == v {
            return;
        }
        self.check(u, v, weight);
        self.adj[u as usize].push(Edge { to: v, weight });
        self.num_edges += 1;
    }

    fn check(&self, u: u32, v: u32, weight: f64) {
        assert!(
            (u as usize) < self.adj.len() && (v as usize) < self.adj.len(),
            "vertex out of range: {u} or {v} (n = {})",
            self.adj.len()
        );
        assert!(
            weight.is_finite() && weight >= 0.0,
            "edge weight must be finite and non-negative, got {weight}"
        );
    }

    /// The outgoing edges of `u`.
    #[inline]
    pub fn neighbors(&self, u: u32) -> &[Edge] {
        &self.adj[u as usize]
    }

    /// Degree (number of outgoing edges) of `u`.
    #[inline]
    pub fn degree(&self, u: u32) -> usize {
        self.adj[u as usize].len()
    }

    /// Whether an edge/arc `u → v` exists.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.adj[u as usize].iter().any(|e| e.to == v)
    }
}

/// Read-only adjacency access: the interface every search kernel in
/// this crate is generic over.
///
/// Two implementations exist: [`Graph`] (growable, one `Vec` per
/// vertex — the build-time form) and [`CsrGraph`] (frozen, two flat
/// arrays — the query-time form). Both present identical neighbor
/// *order*, so a search over a frozen graph is bit-identical to the
/// same search over the graph it was frozen from.
pub trait Adjacency {
    /// Number of vertices (`0..n` are the valid ids).
    fn num_vertices(&self) -> usize;
    /// The outgoing edges of `u`, in insertion order.
    fn neighbors(&self, u: u32) -> &[Edge];
}

impl Adjacency for Graph {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.adj.len()
    }
    #[inline]
    fn neighbors(&self, u: u32) -> &[Edge] {
        &self.adj[u as usize]
    }
}

/// A frozen compressed-sparse-row graph: per-vertex edge lists packed
/// into one flat array behind an offsets table.
///
/// [`Graph`] spends one heap allocation (and a 24-byte `Vec` header)
/// per vertex — at metro scale (100k buildings, ~1M APs) that
/// per-vertex fan-out dominates memory and shreds cache locality.
/// Freezing to CSR keeps exactly two allocations regardless of vertex
/// count while preserving per-vertex edge *order*, so every search
/// result (including tie-breaks) is bit-identical to the source graph.
#[derive(Clone, Debug, Default)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v + 1]` indexes `edges` for vertex `v`.
    offsets: Vec<u32>,
    edges: Vec<Edge>,
    num_edges: usize,
}

impl CsrGraph {
    /// Freezes `g` into CSR form, preserving per-vertex edge order.
    ///
    /// # Panics
    /// Panics when `g` has ≥ `u32::MAX` directed edges (far beyond any
    /// city this system models).
    pub fn from_graph(g: &Graph) -> Self {
        let n = g.adj.len();
        let total: usize = g.adj.iter().map(Vec::len).sum();
        assert!(
            total < u32::MAX as usize,
            "graph too large to freeze: {total} directed edges"
        );
        let mut offsets = Vec::with_capacity(n + 1);
        let mut edges = Vec::with_capacity(total);
        offsets.push(0u32);
        for adj in &g.adj {
            edges.extend_from_slice(adj);
            offsets.push(edges.len() as u32);
        }
        CsrGraph {
            offsets,
            edges,
            num_edges: g.num_edges,
        }
    }

    /// Number of undirected edges in the source graph (directed arcs
    /// counted once each), mirroring [`Graph::num_edges`].
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The outgoing edges of `u`, in the source graph's order.
    #[inline]
    pub fn neighbors(&self, u: u32) -> &[Edge] {
        let i = u as usize;
        &self.edges[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Degree (number of outgoing edges) of `u`.
    #[inline]
    pub fn degree(&self, u: u32) -> usize {
        self.neighbors(u).len()
    }

    /// Whether an edge/arc `u → v` exists.
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

impl Adjacency for CsrGraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        CsrGraph::num_vertices(self)
    }
    #[inline]
    fn neighbors(&self, u: u32) -> &[Edge] {
        CsrGraph::neighbors(self, u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::new(0);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn undirected_edges_visible_from_both_ends() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 2.0);
        g.add_edge(1, 2, 3.0);
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(0), &[Edge { to: 1, weight: 2.0 }]);
    }

    #[test]
    fn directed_arc_is_one_way() {
        let mut g = Graph::new(2);
        g.add_arc(0, 1, 1.0);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
    }

    #[test]
    fn self_loops_ignored() {
        let mut g = Graph::new(2);
        g.add_edge(1, 1, 5.0);
        g.add_arc(0, 0, 5.0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(1), 0);
    }

    #[test]
    fn parallel_edges_allowed() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1, 1.0);
        g.add_edge(0, 1, 9.0);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    #[should_panic(expected = "vertex out of range")]
    fn out_of_range_vertex_panics() {
        let mut g = Graph::new(2);
        g.add_edge(0, 2, 1.0);
    }

    #[test]
    #[should_panic(expected = "weight")]
    fn negative_weight_panics() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1, -1.0);
    }

    #[test]
    fn csr_freeze_preserves_everything() {
        let mut g = Graph::new(5);
        g.add_edge(0, 1, 2.0);
        g.add_edge(1, 2, 3.0);
        g.add_edge(0, 1, 9.0); // parallel edge, later in order
        g.add_arc(3, 4, 1.0);
        let c = CsrGraph::from_graph(&g);
        assert_eq!(c.num_vertices(), g.num_vertices());
        assert_eq!(c.num_edges(), g.num_edges());
        for v in 0..g.num_vertices() as u32 {
            assert_eq!(c.neighbors(v), g.neighbors(v), "vertex {v} order");
            assert_eq!(c.degree(v), g.degree(v));
        }
        assert!(c.has_edge(3, 4));
        assert!(!c.has_edge(4, 3));
        assert!(c.memory_bytes() > 0);
    }

    #[test]
    fn csr_empty_graph() {
        let c = CsrGraph::from_graph(&Graph::new(0));
        assert_eq!(c.num_vertices(), 0);
        assert_eq!(c.num_edges(), 0);
        let d = CsrGraph::default();
        assert_eq!(d.num_vertices(), 0);
    }
}
