//! Hop-count ALT: exact "fewest hops from a vertex to a vertex *set*"
//! on an unweighted graph without flooding it.
//!
//! A breadth-first search answers the same query by expanding rings
//! around the source until one touches the set — work linear in the
//! component for a far target. [`HopLandmarks`]
//! stores, per vertex, its hop distance from a constant number of
//! landmarks and runs A* under the set-target landmark bound
//!
//! ```text
//! h(v) = max_k max(lo_k − L_k(v), L_k(v) − hi_k, 0)
//! ```
//!
//! where `L_k(v)` is the hop distance from landmark `k` to `v` and
//! `lo_k` / `hi_k` are the minimum / maximum of `L_k` over the target
//! set. Every `L_k` is 1-Lipschitz along an edge, so for each target
//! `t` both terms are at most `|L_k(v) − L_k(t)| ≤ d(v, t)`: the bound
//! is admissible, it is zero on the targets, and it changes by at most
//! one per hop (consistent). The first target settled is therefore at
//! its true distance, and the answer — a hop *count* — cannot depend on
//! the order equal keys are served in.
//!
//! Unit edges plus a consistent bound mean a relaxation from a vertex
//! with key `f` produces key `f`, `f + 1` or `f + 2`, so the priority
//! queue is three reusable vertex stacks indexed by `key mod 3`.

use crate::landmarks::{landmark_candidates, FarthestPoint};
use crate::INFINITY;

/// Landmark columns per vertex row. A measured constant, not a knob:
/// sixteen `u16`s are one 32-byte row the bound reads branch-free, and
/// on the 2×2 metro's 12.6k-AP graph they settle ~300 vertices per
/// query where eight settle ~440.
pub const HOP_LANDMARKS: usize = 16;

/// Row entry of a vertex the landmark cannot reach.
const UNREACHED: u16 = u16::MAX;
/// Largest stored hop distance; longer ones clamp here, which keeps
/// rows 1-Lipschitz and so keeps the bound valid.
const MAX_HOPS: u16 = u16::MAX - 1;

type Row = [u16; HOP_LANDMARKS];

/// Per-vertex hop distances from up to [`HOP_LANDMARKS`] landmarks,
/// and the exact set-target search they guide.
///
/// The graph itself is not stored: [`build`](Self::build) and
/// [`hops_to_set`](Self::hops_to_set) read it through a
/// `neighbors(v) -> &[u32]` callback, so an owner that already holds
/// compact adjacency rows shares them.
///
/// ```
/// use citymesh_graph::{HopLandmarks, HopScratch};
///
/// // A path 0 — 1 — 2 — 3 and an isolated vertex 4.
/// let adj: Vec<Vec<u32>> = vec![vec![1], vec![0, 2], vec![1, 3], vec![2], vec![]];
/// let neighbors = |v: u32| adj[v as usize].as_slice();
/// let components = [0, 0, 0, 0, 1];
/// let index = HopLandmarks::build(neighbors, &components, 2);
/// let mut scratch = HopScratch::new();
/// assert_eq!(index.hops_to_set(neighbors, &components, 0, &[2, 3], &mut scratch), Some(2));
/// assert_eq!(index.hops_to_set(neighbors, &components, 0, &[4], &mut scratch), None);
/// ```
#[derive(Clone, Debug)]
pub struct HopLandmarks {
    /// `rows[v][k]`: hops from landmark `k` to `v`, clamped at
    /// [`MAX_HOPS`], or [`UNREACHED`]. Columns past the embedded
    /// landmark count are all zero and contribute nothing to the bound.
    rows: Vec<Row>,
}

impl HopLandmarks {
    /// Embeds landmarks for the graph `neighbors` describes, given its
    /// component labelling (one label per vertex, `num_components`
    /// distinct).
    ///
    /// Landmarks are drawn by [`FarthestPoint`] sampling over hop
    /// distance among the [`landmark_candidates`] — components holding
    /// at least a `1 / HOP_LANDMARKS` share of the graph. Smaller
    /// islands get none: their rows read "unreached" everywhere, the
    /// bound is zero, and the search degenerates to a plain BFS that
    /// can cost at most that share of the graph.
    pub fn build<'g>(
        neighbors: impl Fn(u32) -> &'g [u32],
        components: &[u32],
        num_components: usize,
    ) -> Self {
        let n = components.len();
        let candidates = landmark_candidates(components, num_components, HOP_LANDMARKS);
        let mut rows = vec![[0u16; HOP_LANDMARKS]; n];
        let mut sampler = FarthestPoint::new(candidates.len());
        let mut hops = vec![UNREACHED; n];
        let mut queue = Vec::with_capacity(n);
        for k in 0..HOP_LANDMARKS.min(candidates.len()) {
            bfs_hops(
                &neighbors,
                &[candidates[sampler.pick()]],
                &mut hops,
                &mut queue,
            );
            for (row, &h) in rows.iter_mut().zip(&hops) {
                row[k] = h;
            }
            sampler.observe(|c| match hops[candidates[c] as usize] {
                UNREACHED => INFINITY,
                h => f64::from(h),
            });
        }
        HopLandmarks { rows }
    }

    /// Heap bytes held by the landmark rows.
    pub fn memory_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<Row>()
    }

    /// Fewest hops from `source` to any vertex of `targets`, or `None`
    /// when none shares `source`'s component — decided up front from
    /// the labels, as a BFS decides it by exhausting the component.
    /// Equal to the hop count a BFS from `source` reports on first
    /// touching `targets`; allocates nothing once `scratch` is warm.
    ///
    /// `neighbors` and `components` must describe the graph the index
    /// was built for.
    ///
    /// # Panics
    /// Panics when `source` or a target is out of range.
    pub fn hops_to_set<'g>(
        &self,
        neighbors: impl Fn(u32) -> &'g [u32],
        components: &[u32],
        source: u32,
        targets: &[u32],
        scratch: &mut HopScratch,
    ) -> Option<u64> {
        scratch.stats.queries += 1;
        let home = components[source as usize];
        if !targets.iter().any(|&t| components[t as usize] == home) {
            return None;
        }
        // Targets on other islands only loosen `lo` / `hi` (their
        // entries read "unreached" or sit under a landmark the source's
        // island cannot see, and both terms saturate to zero), so the
        // bound stays admissible without filtering them out.
        let (mut lo, mut hi) = ([u16::MAX; HOP_LANDMARKS], [0u16; HOP_LANDMARKS]);
        scratch.begin(self.rows.len());
        for &t in targets {
            let row = &self.rows[t as usize];
            for k in 0..HOP_LANDMARKS {
                lo[k] = lo[k].min(row[k]);
                hi[k] = hi[k].max(row[k]);
            }
            scratch.slots[t as usize] = Slot {
                gen: scratch.gen,
                state: UNSEEN | TARGET,
            };
        }
        let bound = |v: u32| {
            let row = &self.rows[v as usize];
            let mut h = 0u16;
            for k in 0..HOP_LANDMARKS {
                h = h
                    .max(lo[k].saturating_sub(row[k]))
                    .max(row[k].saturating_sub(hi[k]));
            }
            u32::from(h)
        };

        let mut key = bound(source);
        scratch.slot(source).state &= !HOPS; // g(source) = 0
        scratch.buckets[key as usize % 3].push(source);
        loop {
            while let Some(u) = scratch.buckets[key as usize % 3].pop() {
                let slot = &mut scratch.slots[u as usize];
                if slot.state & SETTLED != 0 {
                    continue; // superseded by a shorter discovery
                }
                slot.state |= SETTLED;
                scratch.stats.settled += 1;
                let g = slot.state & HOPS;
                if slot.state & TARGET != 0 {
                    return Some(u64::from(g));
                }
                for &v in neighbors(u) {
                    let slot = scratch.slot(v);
                    // Settled vertices are final; `HOPS` sits in the
                    // low bits, so the flag bits never make a seen
                    // vertex look closer than it is.
                    if slot.state & SETTLED != 0 || slot.state & HOPS <= g + 1 {
                        continue;
                    }
                    slot.state = (slot.state & !HOPS) | (g + 1);
                    // Consistency puts f in {key, key + 1, key + 2}:
                    // three buckets never alias a live key.
                    let f = g + 1 + bound(v);
                    debug_assert!((key..=key + 2).contains(&f), "inconsistent bound");
                    scratch.buckets[f as usize % 3].push(v);
                }
            }
            key += 1;
            if scratch.buckets.iter().all(Vec::is_empty) {
                // Unreachable in practice: a target shares the
                // component. Kept so a caller passing mismatched
                // `components` gets `None`, not a spin.
                return None;
            }
        }
    }
}

/// Fewest hops from every vertex to the nearest vertex of `targets`,
/// written into `row` (one entry per vertex; `u16::MAX` where no target
/// shares the vertex's component): the answers
/// [`HopLandmarks::hops_to_set`] gives one source at a time, for every
/// source at once, by one level-order flood out of the whole set. On a
/// graph of at most `u16::MAX` vertices every entry is exact; on a
/// larger one longer distances clamp at `u16::MAX - 1`. The flood's
/// queue is `scratch`'s, so a warm scratch allocates nothing.
///
/// ```
/// use citymesh_graph::{hops_to_set_row, HopScratch};
///
/// // A path 0 — 1 — 2 — 3 and an isolated vertex 4.
/// let adj: Vec<Vec<u32>> = vec![vec![1], vec![0, 2], vec![1, 3], vec![2], vec![]];
/// let mut row = [0u16; 5];
/// hops_to_set_row(|v| adj[v as usize].as_slice(), &[2, 3], &mut row, &mut HopScratch::new());
/// assert_eq!(row, [2, 1, 0, 0, u16::MAX]);
/// ```
///
/// # Panics
/// Panics when a target or a neighbour is out of `row`'s range.
pub fn hops_to_set_row<'g>(
    neighbors: impl Fn(u32) -> &'g [u32],
    targets: &[u32],
    row: &mut [u16],
    scratch: &mut HopScratch,
) {
    bfs_hops(&neighbors, targets, row, &mut scratch.buckets[0]);
}

/// Level-order BFS out of `sources` together, writing clamped hop
/// counts into `hops` ([`UNREACHED`] elsewhere). `queue` is scratch.
fn bfs_hops<'g>(
    neighbors: &impl Fn(u32) -> &'g [u32],
    sources: &[u32],
    hops: &mut [u16],
    queue: &mut Vec<u32>,
) {
    hops.fill(UNREACHED);
    queue.clear();
    for &s in sources {
        hops[s as usize] = 0;
    }
    queue.extend_from_slice(sources);
    let (mut head, mut level) = (0, 0u16);
    while head < queue.len() {
        let end = queue.len();
        level = level.saturating_add(1).min(MAX_HOPS);
        for i in head..end {
            for &v in neighbors(queue[i]) {
                if hops[v as usize] == UNREACHED {
                    hops[v as usize] = level;
                    queue.push(v);
                }
            }
        }
        head = end;
    }
}

/// `Slot::state` layout: hop count so far in the low 30 bits, two flags
/// above it.
const HOPS: u32 = (1 << 30) - 1;
const UNSEEN: u32 = HOPS;
const TARGET: u32 = 1 << 30;
const SETTLED: u32 = 1 << 31;

/// One vertex's search state; valid for the current query iff
/// `gen` matches the scratch's.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    gen: u32,
    state: u32,
}

/// Cumulative counters a [`HopScratch`] keeps across queries. The
/// kernel counts `queries` and `settled`; an owner that answers some
/// queries from stored [`hops_to_set_row`] rows instead of searching
/// counts those in all of `queries`, `from_rows` and `rows_built`
/// itself.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HopStats {
    /// Queries answered, however: by search, by the component labels
    /// alone, or from a stored row.
    pub queries: u64,
    /// Vertices settled by the queries that searched — the work a BFS
    /// would have spent stamping most of the component. A row's flood
    /// is not counted here.
    pub settled: u64,
    /// Rows the owner built and stored on this scratch.
    pub rows_built: u64,
    /// Queries the owner answered from a stored row.
    pub from_rows: u64,
}

/// Reusable buffers for [`HopLandmarks::hops_to_set`]: generation-
/// stamped per-vertex slots and the three key buckets (the first of
/// which doubles as [`hops_to_set_row`]'s queue). Warm queries allocate
/// nothing.
#[derive(Clone, Debug, Default)]
pub struct HopScratch {
    slots: Vec<Slot>,
    gen: u32,
    buckets: [Vec<u32>; 3],
    /// Cumulative query counters (never reset by the kernel).
    pub stats: HopStats,
}

impl HopScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes the slots for `n` vertices, invalidates them all by
    /// bumping the generation (a full re-stamp only when the `u32`
    /// wraps) and empties the buckets, keeping their capacity.
    fn begin(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, Slot::default());
        }
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.slots.fill(Slot::default());
            self.gen = 1;
        }
        for b in &mut self.buckets {
            b.clear();
        }
    }

    /// `v`'s slot, freshly initialized if this query has not touched it.
    fn slot(&mut self, v: u32) -> &mut Slot {
        let slot = &mut self.slots[v as usize];
        if slot.gen != self.gen {
            *slot = Slot {
                gen: self.gen,
                state: UNSEEN,
            };
        }
        slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label_components;

    /// Neighbour rows of the unit-weight graph on `0..n` with `links`.
    fn rows(n: usize, links: &[(u32, u32)]) -> Vec<Vec<u32>> {
        let mut adj = vec![Vec::new(); n];
        for &(u, v) in links {
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
        adj
    }

    /// `(labels, count)` of the components of `adj`.
    fn islands(adj: &[Vec<u32>]) -> (Vec<u32>, usize) {
        let mut labels = Vec::new();
        let rows = |v: u32| adj[v as usize].iter().copied();
        let count = label_components(adj.len(), |_| true, rows, &mut labels);
        (labels, count)
    }

    /// The links of an `nx × ny` unit lattice.
    fn lattice(nx: u32, ny: u32) -> Vec<(u32, u32)> {
        let mut links = Vec::new();
        for v in 0..nx * ny {
            if v % nx + 1 < nx {
                links.push((v, v + 1));
            }
            if v / nx + 1 < ny {
                links.push((v, v + nx));
            }
        }
        links
    }

    #[test]
    fn small_islands_get_no_landmark() {
        // A 300-vertex lattice plus a 6-vertex path: 6 × 16 < 306, so
        // the path is searched with a zero bound (its answers are held
        // to a BFS in `tests/against_reference.rs`).
        let mut links = lattice(30, 10);
        let base = 300;
        for i in 0..5 {
            links.push((base + i, base + i + 1));
        }
        let adj = rows(306, &links);
        let (components, count) = islands(&adj);
        let index = HopLandmarks::build(|v| adj[v as usize].as_slice(), &components, count);
        for v in base..base + 6 {
            assert_eq!(index.rows[v as usize], [UNREACHED; HOP_LANDMARKS]);
        }
    }

    #[test]
    fn the_bound_prunes_and_the_counters_say_so() {
        let adj = rows(60 * 60, &lattice(60, 60));
        let neighbors = |v: u32| adj[v as usize].as_slice();
        let (components, count) = islands(&adj);
        let index = HopLandmarks::build(neighbors, &components, count);
        let mut scratch = HopScratch::new();
        let far = 60 * 60 - 1;
        assert_eq!(
            index.hops_to_set(neighbors, &components, 0, &[far], &mut scratch),
            Some(118)
        );
        assert_eq!(scratch.stats.queries, 1);
        // A BFS stamps all 3,600 vertices to reach the far corner.
        assert!(
            scratch.stats.settled < 3_600 / 4,
            "settled {}",
            scratch.stats.settled
        );
    }

    #[test]
    fn hop_counts_clamp_without_breaking_exactness() {
        // A path longer than a row entry can count: rows clamp, the
        // answer does not.
        let n = usize::from(MAX_HOPS) + 40;
        let path: Vec<_> = (0..n as u32 - 1).map(|v| (v, v + 1)).collect();
        let adj = rows(n, &path);
        let neighbors = |v: u32| adj[v as usize].as_slice();
        let components = vec![0u32; n];
        let index = HopLandmarks::build(neighbors, &components, 1);
        let mut scratch = HopScratch::new();
        let last = n as u32 - 1;
        assert_eq!(
            index.hops_to_set(neighbors, &components, 0, &[last], &mut scratch),
            Some(u64::from(last))
        );
        assert_eq!(
            index.hops_to_set(neighbors, &components, last, &[3, 9], &mut scratch),
            Some(u64::from(last) - 9)
        );
    }
}
