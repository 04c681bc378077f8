//! Farthest-point landmark selection — the one sampler loop every ALT
//! table in the workspace is built with (the building graph's global
//! landmarks, the hierarchy's overlay and per-district landmarks, and
//! the AP graph's hop landmarks).

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
    fn ties_break_to_the_smallest_index() {
        let mut s = FarthestPoint::new(4);
        s.observe(|c| if c == 0 { 0.0 } else { 7.0 });
        assert_eq!(s.pick(), 1);
    }
}
