//! Connected components: the paper's *reachability* metric.

use crate::Adjacency;

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
}
