//! Connected components: the paper's *reachability* metric.

/// Labels the connected components of vertices `0..n` that `keep`
/// admits, numbered in order of their smallest member, into `labels` —
/// `u32::MAX` for a vertex it rejects — and returns their count.
///
/// Adjacency comes as neighbour rows, so the AP graph's audience rows,
/// a [`CsrGraph`](crate::CsrGraph)'s edges and a city read with its
/// dark buildings removed all go through this one labeler. The paper's
/// *reachability* metric is "source and destination share a component
/// of the AP graph" (§4).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrGraph;

    #[test]
    fn components_by_smallest_member() {
        // 0 — 1 — 2, 3 — 4, 5 isolated.
        let g = CsrGraph::from_edges(6, &[(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)]);
        let rows = |u: u32| g.neighbors(u).iter().map(|e| e.to);
        let mut labels = vec![7; 2];
        assert_eq!(label_components(6, |_| true, rows, &mut labels), 3);
        assert_eq!(labels, [0, 0, 0, 1, 1, 2]);
        // Removing the middle vertex splits the chain; the caller's
        // vector is reused.
        assert_eq!(label_components(6, |v| v != 1, rows, &mut labels), 4);
        assert_eq!(labels, [0, u32::MAX, 1, 2, 2, 3]);
        assert_eq!(label_components(0, |_| true, rows, &mut labels), 0);
        assert!(labels.is_empty());
    }
}
