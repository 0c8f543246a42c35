//! Neighbourhood-overlap proximities: common neighbours, Adamic–Adar,
//! resource allocation.
//!
//! All three share the same support (pairs of nodes at distance ≤ 2)
//! and the same computation pattern: enumerate *wedges* — for every
//! centre node `w`, every pair of distinct neighbours `(i, j)` of `w`
//! receives a contribution `f(w)`. The work is `Σ_w d_w (d_w - 1) / 2`,
//! which is fine for the sparse/medium graphs these measures are meant
//! for; for hub-heavy graphs prefer the degree or DeepWalk proximities,
//! whose cost does not grow with the square of a hub's degree.
//!
//! The enumeration is **row-partitioned**: row `i` of the output is
//! `p_i· = Σ_{w ∈ N(i)} weight(w) · 𝟙[j ∈ N(w), j ≠ i]`, accumulated
//! into a per-worker dense scratch row (`wedge_row`, the wedge half
//! of the row kernel in [`crate::band`]). Every row sums its wedge
//! centres in ascending-neighbour order regardless of how rows are
//! chunked over threads, so the matrix and the edge weights are
//! bit-identical for any thread count.

use crate::band::DenseRow;
use crate::ProximityKind;
use sp_graph::{Graph, NodeId};

/// Per-node wedge-centre weights of a wedge-family `kind`: `w[c]` is
/// what centre `c` contributes to each of its neighbour pairs, or
/// `None` when `kind` is not CN/AA/RA. All weights are non-negative,
/// and [`wedge_row`] skips the zero ones.
///
/// Adamic–Adar skips centres of degree 1: they cannot close a wedge,
/// and `ln(1) = 0` would divide by zero anyway.
pub(crate) fn wedge_weights(g: &Graph, kind: ProximityKind) -> Option<Vec<f64>> {
    let weight: fn(usize) -> f64 = match kind {
        ProximityKind::CommonNeighbors => |_| 1.0,
        ProximityKind::AdamicAdar => |d| if d >= 2 { 1.0 / (d as f64).ln() } else { 0.0 },
        ProximityKind::ResourceAllocation => |d| if d >= 1 { 1.0 / d as f64 } else { 0.0 },
        _ => return None,
    };
    Some(
        (0..g.num_nodes() as NodeId)
            .map(|c| weight(g.degree(c)))
            .collect(),
    )
}

/// Accumulates output row `i` of a wedge measure into `row`:
/// `p_ij = Σ_{w ∈ N(i)∩N(j)} weight(w)`, summed over the centres
/// `w ∈ N(i)` in ascending order. The row reads only `g` and `w`, so
/// it is the same for every band height and thread count.
pub(crate) fn wedge_row(g: &Graph, w: &[f64], i: usize, row: &mut DenseRow) {
    for &c in g.neighbors(i as NodeId) {
        let cw = w[c as usize];
        if cw == 0.0 {
            continue;
        }
        for &j in g.neighbors(c) {
            if j as usize != i {
                row.add(j, cw);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::proximity_matrix;
    use crate::ProximityKind::{AdamicAdar, CommonNeighbors, ResourceAllocation};
    use sp_graph::{algo, Graph};

    /// 4-cycle: 0-1-2-3-0. Opposite corners share exactly 2 neighbours.
    fn cycle4() -> Graph {
        Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    }

    #[test]
    fn common_neighbors_on_cycle() {
        let g = cycle4();
        let m = proximity_matrix(&g, CommonNeighbors);
        assert_eq!(m.get(0, 2), 2.0); // via 1 and 3
        assert_eq!(m.get(1, 3), 2.0); // via 0 and 2
        assert_eq!(m.get(0, 1), 0.0); // adjacent but no triangle
        assert_eq!(m.get(0, 0), 0.0); // no diagonal
        assert!(m.is_symmetric());
    }

    #[test]
    fn common_neighbors_agrees_with_merge_count() {
        let g = Graph::from_edges(
            7,
            [
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (2, 6),
            ],
        );
        let m = proximity_matrix(&g, CommonNeighbors);
        for i in 0..7u32 {
            for j in 0..7u32 {
                if i == j {
                    continue;
                }
                let expect = algo::common_neighbor_count(&g, i, j) as f64;
                assert_eq!(m.get(i as usize, j as usize), expect, "pair ({i},{j})");
            }
        }
    }

    #[test]
    fn adamic_adar_weights_by_inverse_log_degree() {
        // Star with centre 0 of degree 3: every leaf pair gets 1/ln 3.
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]);
        let m = proximity_matrix(&g, AdamicAdar);
        let w = 1.0 / 3.0f64.ln();
        assert!((m.get(1, 2) - w).abs() < 1e-12);
        assert!((m.get(1, 3) - w).abs() < 1e-12);
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn adamic_adar_skips_degree_one_and_would_be_infinite_centres() {
        // Path 0-1-2: centre 1 has degree 2 -> weight 1/ln 2, finite.
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let m = proximity_matrix(&g, AdamicAdar);
        assert!((m.get(0, 2) - 1.0 / 2.0f64.ln()).abs() < 1e-12);
        assert!(m.iter().all(|(_, _, v)| v.is_finite()));
    }

    #[test]
    fn resource_allocation_on_star() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]);
        let m = proximity_matrix(&g, ResourceAllocation);
        assert!((m.get(1, 2) - 1.0 / 3.0).abs() < 1e-12);
        assert!(m.is_symmetric());
    }

    #[test]
    fn ra_dominated_by_cn() {
        // RA weight 1/d_w <= 1 = CN weight per wedge, so RA <= CN entrywise.
        let g = Graph::from_edges(
            6,
            [
                (0, 1),
                (0, 2),
                (1, 2),
                (1, 3),
                (2, 4),
                (3, 4),
                (4, 5),
                (3, 5),
            ],
        );
        let cn = proximity_matrix(&g, CommonNeighbors);
        let ra = proximity_matrix(&g, ResourceAllocation);
        for (i, j, v) in ra.iter() {
            assert!(v <= cn.get(i, j) + 1e-12, "RA > CN at ({i},{j})");
        }
    }

    #[test]
    fn empty_graph_yields_empty_matrix() {
        let g = Graph::from_edges(3, std::iter::empty());
        assert_eq!(proximity_matrix(&g, CommonNeighbors).nnz(), 0);
        assert_eq!(proximity_matrix(&g, AdamicAdar).nnz(), 0);
        assert_eq!(proximity_matrix(&g, ResourceAllocation).nnz(), 0);
    }
}
