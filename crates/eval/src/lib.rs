//! # sp-eval
//!
//! The paper's two downstream tasks (§VI-A):
//!
//! - [`strucequ`]: **structural equivalence** — the Pearson
//!   correlation between adjacency-row distances and embedding-row
//!   distances over node pairs
//!   (`StrucEqu = pearson(dist(A_i, A_j), dist(Y_i, Y_j))`, Euclidean);
//! - [`linkpred`]: **link prediction** — 90/10 edge split, equal-size
//!   non-edge negatives, inner-product scoring, area under the ROC
//!   curve computed by the Mann–Whitney rank statistic;
//! - [`auc`]: the rank-based AUC kernel, shared by any scorer.
//!
//! Both metrics take any `|V| × r` embedding matrix, so the same
//! harness evaluates SE-PrivGEmb and every baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auc;
pub mod linkpred;
pub mod strucequ;

pub use auc::auc_from_scores;
pub use linkpred::{sample_non_edges, score_dot, LinkSplit};
pub use strucequ::{struc_equ, PairSelection};

use sp_linalg::{vector, DenseMatrix};

/// Returns a copy of `emb` with every row scaled to unit ℓ2 norm
/// (zero rows stay zero).
///
/// Why it matters: under noisy training, a node's embedding norm grows
/// with how often its row was touched — i.e. with its degree — so
/// *raw* Euclidean distances let any DP method score on accumulated
/// noise magnitude alone, an artifact rather than learned structure
/// (cosine-style evaluation is the node-embedding literature's standard
/// guard against exactly this).
///
/// Only the `norm_artifact` study (item 3 of `sp_bench`'s
/// `experiments::ablation`, run by the `ablation_theory` bin) scores
/// row-normalised embeddings, next to raw ones, to measure the effect.
/// The `fig3`, `fig4`, `table6` and `param_tables` experiments score
/// raw rows; reporting both there is open work (ROADMAP.md, "Make the
/// reproduction show the paper's utility").
pub fn normalize_rows(emb: &DenseMatrix) -> DenseMatrix {
    let mut out = emb.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let n = vector::norm2(row);
        if n > 0.0 {
            vector::scale(1.0 / n, row);
        }
    }
    out
}

#[cfg(test)]
mod normalize_tests {
    use super::*;

    #[test]
    fn rows_become_unit_norm() {
        let m = DenseMatrix::from_vec(3, 2, vec![3.0, 4.0, 0.0, 0.0, -5.0, 12.0]);
        let n = normalize_rows(&m);
        assert!((vector::norm2(n.row(0)) - 1.0).abs() < 1e-12);
        assert_eq!(n.row(1), &[0.0, 0.0], "zero rows preserved");
        assert!((vector::norm2(n.row(2)) - 1.0).abs() < 1e-12);
        // Direction preserved.
        assert!((n.get(0, 0) - 0.6).abs() < 1e-12);
        assert!((n.get(0, 1) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn degree_norm_artifact_is_removed() {
        // Construct an "embedding" that is pure noise with norms
        // proportional to sqrt(node degree) on a star graph: raw
        // StrucEqu is high (artifact), normalised StrucEqu collapses.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use sp_graph::Graph;
        let n = 60usize;
        let g = Graph::from_edges(
            n,
            (1..n as u32)
                .map(|i| (0u32, i))
                .chain((1..(n as u32 - 1)).map(|i| (i, i + 1))),
        );
        let mut rng = StdRng::seed_from_u64(5);
        let mut emb = DenseMatrix::zeros(n, 16);
        for v in 0..n {
            let norm = (g.degree(v as u32) as f64).sqrt();
            let row = emb.row_mut(v);
            for x in row.iter_mut() {
                *x = rng.gen_range(-1.0..1.0);
            }
            let cur = vector::norm2(row);
            vector::scale(norm / cur, row);
        }
        let raw = struc_equ(&g, &emb, PairSelection::All).unwrap();
        let norm = struc_equ(&g, &normalize_rows(&emb), PairSelection::All).unwrap_or(0.0);
        assert!(
            raw > 0.5,
            "the artifact should inflate raw StrucEqu, got {raw}"
        );
        assert!(
            norm < raw / 2.0,
            "normalisation should collapse it: raw {raw} vs normalised {norm}"
        );
    }
}
