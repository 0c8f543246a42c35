//! Connected components and structural statistics.
//!
//! These are support algorithms: connected components validate the
//! synthetic dataset generators (a power grid must be connected), the
//! common-neighbour merge gives StrucEqu its adjacency-row distances,
//! and the clustering coefficient distinguishes the Holme–Kim stand-in
//! (clustered, like Arxiv) from plain Barabási–Albert.

use crate::graph::{Graph, NodeId};

/// Connected-component labels (`0..k`) for every node, plus the count.
pub fn connected_components(g: &Graph) -> (Vec<u32>, usize) {
    let n = g.num_nodes();
    let mut label = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut stack = Vec::new();
    for start in 0..n {
        if label[start] != u32::MAX {
            continue;
        }
        label[start] = next;
        stack.push(start as NodeId);
        while let Some(v) = stack.pop() {
            for &u in g.neighbors(v) {
                if label[u as usize] == u32::MAX {
                    label[u as usize] = next;
                    stack.push(u);
                }
            }
        }
        next += 1;
    }
    (label, next as usize)
}

/// True when the graph is connected (vacuously true when empty).
pub fn is_connected(g: &Graph) -> bool {
    g.num_nodes() == 0 || connected_components(g).1 == 1
}

/// Number of common neighbours of `u` and `v` via sorted-list merge.
pub fn common_neighbor_count(g: &Graph, u: NodeId, v: NodeId) -> usize {
    let (mut a, mut b) = (
        g.neighbors(u).iter().peekable(),
        g.neighbors(v).iter().peekable(),
    );
    let mut count = 0;
    while let (Some(&&x), Some(&&y)) = (a.peek(), b.peek()) {
        match x.cmp(&y) {
            std::cmp::Ordering::Less => {
                a.next();
            }
            std::cmp::Ordering::Greater => {
                b.next();
            }
            std::cmp::Ordering::Equal => {
                count += 1;
                a.next();
                b.next();
            }
        }
    }
    count
}

/// Global clustering coefficient: `3 * triangles / wedges`.
///
/// Returns `0.0` when the graph has no wedge (path of length two).
pub fn global_clustering_coefficient(g: &Graph) -> f64 {
    let mut triangles = 0usize; // each counted 3 times, once per vertex pair ordering below
    let mut wedges = 0usize;
    for v in 0..g.num_nodes() as NodeId {
        let d = g.degree(v);
        wedges += d * d.saturating_sub(1) / 2;
        // Count triangles through v's neighbour pairs using the sorted merge.
        let nb = g.neighbors(v);
        for (idx, &u) in nb.iter().enumerate() {
            for &w in &nb[idx + 1..] {
                if g.has_edge(u, w) {
                    triangles += 1;
                }
            }
        }
    }
    if wedges == 0 {
        return 0.0;
    }
    // `triangles` here counts each triangle once per apex vertex = 3 times.
    triangles as f64 / wedges as f64
}

/// Exact triangle count.
pub fn triangle_count(g: &Graph) -> usize {
    let mut t = 0usize;
    for &(u, v) in g.edges() {
        t += common_neighbor_count(g, u, v);
    }
    t / 3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn triangle_plus_isolate() -> Graph {
        // Triangle 0-1-2 plus isolated node 3.
        Graph::from_edges(4, [(0, 1), (1, 2), (0, 2)])
    }

    #[test]
    fn components_counted() {
        let g = triangle_plus_isolate();
        let (labels, k) = connected_components(&g);
        assert_eq!(k, 2);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_ne!(labels[0], labels[3]);
        assert!(!is_connected(&g));
        assert!(is_connected(&Graph::from_edges(2, [(0, 1)])));
        assert!(is_connected(&Graph::from_edges(0, std::iter::empty())));
    }

    #[test]
    fn common_neighbors_merge() {
        let g = Graph::from_edges(5, [(0, 2), (0, 3), (1, 2), (1, 3), (1, 4)]);
        assert_eq!(common_neighbor_count(&g, 0, 1), 2); // {2, 3}
        assert_eq!(common_neighbor_count(&g, 0, 4), 0);
    }

    #[test]
    fn clustering_of_triangle_is_one() {
        let g = triangle_plus_isolate();
        assert!((global_clustering_coefficient(&g) - 1.0).abs() < 1e-12);
        assert_eq!(triangle_count(&g), 1);
    }

    #[test]
    fn clustering_of_star_is_zero() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]);
        assert_eq!(global_clustering_coefficient(&g), 0.0);
        assert_eq!(triangle_count(&g), 0);
    }
}
