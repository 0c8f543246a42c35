//! Embedding-quality diagnostics.
//!
//! Quantities that explain *why* an embedding scores the way it does
//! on the headline metrics — chiefly the norm/degree correlation that
//! drives the degree-norm artifact (measured by the `norm_artifact`
//! study, item 3 of `sp_bench`'s `experiments::ablation`, run by the
//! `ablation_theory` bin), plus precision@k for the link-prediction
//! task.

use sp_graph::{Graph, NodeId};
use sp_linalg::{stats, vector, DenseMatrix};

/// Pearson correlation between each node's embedding norm and its
/// degree. Near 1 means the embedding encodes degree in its norms —
/// legitimate signal in skip-gram (frequent nodes grow longer
/// vectors), but under DP noise it also grows mechanically with touch
/// counts; see `ablation_theory`.
pub fn norm_degree_correlation(g: &Graph, emb: &DenseMatrix) -> Option<f64> {
    assert_eq!(emb.rows(), g.num_nodes(), "embedding shape mismatch");
    let norms: Vec<f64> = (0..emb.rows()).map(|r| vector::norm2(emb.row(r))).collect();
    let degrees: Vec<f64> = (0..g.num_nodes())
        .map(|v| g.degree(v as NodeId) as f64)
        .collect();
    stats::pearson(&norms, &degrees)
}

/// Mean and standard deviation of the row norms.
pub fn norm_summary(emb: &DenseMatrix) -> (f64, f64) {
    let norms: Vec<f64> = (0..emb.rows()).map(|r| vector::norm2(emb.row(r))).collect();
    (stats::mean(&norms), stats::std_dev(&norms))
}

/// Precision@k for link prediction: among the `k` highest-scored
/// candidate pairs (union of test positives and negatives, scored by
/// inner product), the fraction that are true positives.
///
/// Returns `None` when `k == 0` or there are no candidates.
pub fn precision_at_k(
    emb: &DenseMatrix,
    test_pos: &[(NodeId, NodeId)],
    test_neg: &[(NodeId, NodeId)],
    k: usize,
) -> Option<f64> {
    if k == 0 || (test_pos.is_empty() && test_neg.is_empty()) {
        return None;
    }
    let mut scored: Vec<(f64, bool)> = Vec::with_capacity(test_pos.len() + test_neg.len());
    for &(u, v) in test_pos {
        scored.push((vector::dot(emb.row(u as usize), emb.row(v as usize)), true));
    }
    for &(u, v) in test_neg {
        scored.push((vector::dot(emb.row(u as usize), emb.row(v as usize)), false));
    }
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("scores must not be NaN"));
    let k = k.min(scored.len());
    let hits = scored[..k].iter().filter(|(_, pos)| *pos).count();
    Some(hits as f64 / k as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sp_graph::Graph;

    #[test]
    fn norm_degree_correlation_detects_planted_signal() {
        let g = Graph::from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2)]);
        let mut rng = StdRng::seed_from_u64(1);
        let mut emb = DenseMatrix::zeros(6, 4);
        for v in 0..6 {
            let target = (g.degree(v as u32) as f64).sqrt();
            let row = emb.row_mut(v);
            for x in row.iter_mut() {
                *x = rng.gen_range(-1.0..1.0);
            }
            let n = vector::norm2(row);
            vector::scale(target / n, row);
        }
        let r = norm_degree_correlation(&g, &emb).unwrap();
        assert!(r > 0.9, "planted degree-norm signal not detected: {r}");
    }

    #[test]
    fn norm_degree_correlation_none_for_constant_norms() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let mut emb = DenseMatrix::zeros(3, 2);
        for v in 0..3 {
            emb.set(v, 0, 1.0); // every row has norm 1
        }
        assert_eq!(norm_degree_correlation(&g, &emb), None);
    }

    #[test]
    fn norm_summary_values() {
        let emb = DenseMatrix::from_vec(2, 2, vec![3.0, 4.0, 0.0, 0.0]);
        let (mean, sd) = norm_summary(&emb);
        assert!((mean - 2.5).abs() < 1e-12);
        assert!(sd > 0.0);
    }

    #[test]
    fn precision_at_k_perfect_and_inverted() {
        // Embedding where positives score high.
        let emb = DenseMatrix::from_vec(4, 1, vec![1.0, 1.0, -1.0, 1.0]);
        let pos = [(0u32, 1u32)]; // score 1
        let neg = [(0u32, 2u32)]; // score -1
        assert_eq!(precision_at_k(&emb, &pos, &neg, 1), Some(1.0));
        // Inverted labels: top-1 is a negative.
        assert_eq!(precision_at_k(&emb, &neg, &pos, 1), Some(0.0));
    }

    #[test]
    fn precision_at_k_caps_at_candidate_count() {
        let emb = DenseMatrix::from_vec(3, 1, vec![1.0, 1.0, 1.0]);
        let pos = [(0u32, 1u32)];
        let neg = [(0u32, 2u32)];
        // k larger than candidates: uses all, half are positive.
        assert_eq!(precision_at_k(&emb, &pos, &neg, 10), Some(0.5));
        assert_eq!(precision_at_k(&emb, &pos, &neg, 0), None);
        assert_eq!(precision_at_k(&emb, &[], &[], 3), None);
    }
}
