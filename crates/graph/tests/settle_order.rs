//! Settle-order pin: the exact stream the weighted searches produce on
//! one fixed random graph, hashed.
//!
//! `dijkstra_tree_with` reports `(vertex, parent, dist bits)` in settle
//! order, and `Hierarchy::plan_path_into` returns whole vertex paths.
//! Both depend on the queue popping by `(key, vertex id)` and on the
//! canonical min-parent tie-break, so a queue or slot layout that moves
//! any settle, parent, distance bit or route changes the hash. The
//! graph has integer weights, so exact ties are everywhere.

use citymesh_graph::{
    dijkstra_tree_with, CsrGraph, HierParams, HierScratch, Hierarchy, Partition, PlannerScratch,
};

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A 30 × 24 jittered lattice with 4-neighbour edges and random
/// chords. Every weight is an integer at least the Euclidean length of
/// its edge, so the Euclidean bound is consistent and ties abound.
fn fixed_graph() -> (CsrGraph, Vec<(f64, f64)>) {
    let (nx, ny) = (30u32, 24u32);
    let mut rng = Rng(0x5e77_1e0d);
    let pos: Vec<(f64, f64)> = (0..nx * ny)
        .map(|v| {
            let jx = rng.below(5) as f64;
            let jy = rng.below(5) as f64;
            (f64::from(v % nx) * 10.0 + jx, f64::from(v / nx) * 10.0 + jy)
        })
        .collect();
    let mut edges = Vec::new();
    let edge = |edges: &mut Vec<_>, rng: &mut Rng, u: u32, v: u32| {
        let (a, b) = (pos[u as usize], pos[v as usize]);
        let len = ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt();
        edges.push((u, v, len.ceil().max(1.0) + rng.below(3) as f64));
    };
    for y in 0..ny {
        for x in 0..nx {
            let v = y * nx + x;
            if x + 1 < nx {
                edge(&mut edges, &mut rng, v, v + 1);
            }
            if y + 1 < ny {
                edge(&mut edges, &mut rng, v, v + nx);
            }
        }
    }
    for _ in 0..120 {
        let u = rng.below(u64::from(nx * ny)) as u32;
        let v = rng.below(u64::from(nx * ny)) as u32;
        edge(&mut edges, &mut rng, u, v);
    }
    (CsrGraph::from_edges(pos.len(), &edges), pos)
}

#[test]
fn settle_order_and_routes_are_pinned() {
    let (g, pos) = fixed_graph();
    let n = g.num_vertices() as u32;
    let mut h = Fnv::new();

    let mut scratch = PlannerScratch::new();
    let mut settled = 0usize;
    for source in [0, 17, 359, 360, n - 1] {
        let tied = dijkstra_tree_with(
            &g,
            source,
            |_| true,
            &mut scratch,
            |v, parent, dist| {
                h.word(u64::from(v) << 32 | u64::from(parent));
                h.word(dist.to_bits());
                settled += 1;
            },
        );
        h.word(u64::from(tied));
    }
    assert_eq!(settled, 5 * n as usize, "the fixed graph is connected");

    let hier = Hierarchy::build(&g, Partition::grid(&pos, 48), &HierParams::default());
    let euclid = |u: u32, v: u32| {
        let (a, b) = (pos[u as usize], pos[v as usize]);
        ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
    };
    let (mut hs, mut path) = (HierScratch::new(), Vec::new());
    let mut rng = Rng(0xa11_9a15);
    for _ in 0..400 {
        let src = rng.below(u64::from(n)) as u32;
        let dst = rng.below(u64::from(n)) as u32;
        assert!(hier.plan_path_into(&g, src, dst, euclid, &mut hs, &mut path));
        h.word(path.len() as u64);
        for &v in &path {
            h.word(u64::from(v));
        }
    }
    assert!(hs.stats.direct_routes < hs.stats.queries && hs.stats.expansions > 0);
    h.word(hs.stats.overlay_settled);
    h.word(hs.stats.expansions);

    assert_eq!(
        h.0, 0x6c37_5931_8cb1_fac1,
        "settle order, parents, distances or routes moved"
    );
}
