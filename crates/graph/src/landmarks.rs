//! Farthest-point landmark selection — the one sampler loop, and the
//! one island rule, every ALT table in the workspace is built with (the
//! building graph's global landmarks, the hierarchy's overlay landmarks,
//! and the AP graph's hop landmarks).

use crate::INFINITY;

/// Deterministic farthest-point sampling over candidates `0..len`.
///
/// Candidate 0 seeds. After each landmark is embedded the caller
/// reports its distance to every candidate through
/// [`observe`](Self::observe), and the next landmark is the candidate
/// maximizing its distance to the *nearest* landmark so far — first
/// maximum wins, so ties break toward the smallest candidate index.
/// Candidates no landmark has reached look infinitely far, so sampling
/// spreads landmarks across islands before refining within them. An
/// embedded landmark sits at distance 0 from itself and is never drawn
/// again while any candidate at positive distance remains.
///
/// ```
/// use citymesh_graph::FarthestPoint;
///
/// // Five points on a line; distance is |i − j|.
/// let mut sampler = FarthestPoint::new(5);
/// let mut picked = Vec::new();
/// for _ in 0..3 {
///     let lm = sampler.pick();
///     picked.push(lm);
///     sampler.observe(|c| (c as f64 - lm as f64).abs());
/// }
/// assert_eq!(picked, vec![0, 4, 2]);
/// ```
#[derive(Clone, Debug)]
pub struct FarthestPoint {
    /// Distance from each candidate to its nearest landmark so far.
    nearest: Vec<f64>,
    next: usize,
}

impl FarthestPoint {
    /// A sampler over `candidates` candidates, seeded at candidate 0.
    pub fn new(candidates: usize) -> Self {
        FarthestPoint {
            nearest: vec![INFINITY; candidates],
            next: 0,
        }
    }

    /// The candidate to embed as the next landmark.
    pub fn pick(&self) -> usize {
        self.next
    }

    /// Records `dist(c)` — the distance from the landmark just embedded
    /// to candidate `c`, [`INFINITY`] when unreachable — for every
    /// candidate, and draws the next landmark.
    pub fn observe(&mut self, dist: impl Fn(usize) -> f64) {
        let mut best = -INFINITY;
        for (c, nearest) in self.nearest.iter_mut().enumerate() {
            let d = dist(c);
            if d < *nearest {
                *nearest = d;
            }
            if *nearest > best {
                best = *nearest;
                self.next = c;
            }
        }
    }
}

/// The island rule: the vertices eligible to host one of `landmarks`
/// landmarks, ascending — those whose component holds at least a
/// `1 / landmarks` share of the graph, one landmark's fair share.
///
/// [`FarthestPoint`] sampling covers islands before it refines any, so
/// over every vertex of a city with a few stray buildings it spends
/// most of its budget on them and leaves the component nearly every
/// query runs in almost unguided. Smaller islands get no landmark: no
/// landmark reaches them, the ALT bound inside them is zero, and a
/// search there can cost at most that share of the graph.
///
/// `components` labels every vertex with one of `num_components`
/// component ids.
pub fn landmark_candidates(
    components: &[u32],
    num_components: usize,
    landmarks: usize,
) -> Vec<u32> {
    let n = components.len();
    let mut size = vec![0usize; num_components];
    for &c in components {
        size[c as usize] += 1;
    }
    (0..n as u32)
        .filter(|&v| size[components[v as usize] as usize] * landmarks >= n)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn islands_are_covered_before_any_is_refined() {
        // Two islands {0, 1, 2} and {3, 4}; unreachable is infinite.
        let dist = |a: usize, b: usize| {
            if (a < 3) == (b < 3) {
                (a as f64 - b as f64).abs()
            } else {
                INFINITY
            }
        };
        let mut s = FarthestPoint::new(5);
        let mut picked = Vec::new();
        for _ in 0..4 {
            let lm = s.pick();
            picked.push(lm);
            s.observe(|c| dist(lm, c));
        }
        // 0 seeds; 3 is the first infinitely-far candidate; then the
        // farthest finite candidates, smallest index on the tie.
        assert_eq!(picked, vec![0, 3, 2, 1]);
    }

    #[test]
    fn stray_islands_host_no_landmark() {
        // Components of 6, 2 and 1 vertices, interleaved.
        let components = [0, 1, 0, 0, 2, 0, 1, 0, 0];
        // A fair share of 4 landmarks is 9/4 vertices: only component 0.
        assert_eq!(
            landmark_candidates(&components, 3, 4),
            vec![0, 2, 3, 5, 7, 8]
        );
        // At 8 landmarks the pair qualifies (2 * 8 >= 9), the single
        // vertex still does not.
        assert_eq!(
            landmark_candidates(&components, 3, 8),
            vec![0, 1, 2, 3, 5, 6, 7, 8]
        );
        assert!(landmark_candidates(&[], 0, 8).is_empty());
    }

    #[test]
    fn ties_break_to_the_smallest_index() {
        let mut s = FarthestPoint::new(4);
        s.observe(|c| if c == 0 { 0.0 } else { 7.0 });
        assert_eq!(s.pick(), 1);
    }
}
