//! Walk-based (high-order) proximities: truncated Katz, personalised
//! PageRank, and the DeepWalk proximity.
//!
//! All three are truncated matrix power series `Σ_{l=1..L} c_l M^l`:
//!
//! - **Katz** (Katz 1953): `Σ_{l=1..max_len} β^l A^l`. The infinite
//!   series converges only for `β < 1/λ_max`; the truncation is always
//!   finite, and for link-type tasks lengths beyond 3–4 contribute
//!   little.
//! - **Personalised PageRank**: `α Σ_{t=1..iters} (1-α)^t Â^t` with
//!   row-normalised `Â` (the `t = 0` identity term is omitted —
//!   self-proximity carries no structural information and would put
//!   `α` on every diagonal).
//! - **DeepWalk** (Yang et al. \[22\]): `M = (1/T) Σ_{t=1..T} Â^t`.
//!   `M_ij` is the probability that a uniform random walk from `v_i`,
//!   with its step count drawn uniformly from `1..=T`, sits at `v_j` —
//!   exactly the co-occurrence statistic DeepWalk's skip-gram window
//!   samples. The paper's `SE-PrivGEmb_DW` uses `T = 2`.
//!
//! They share one engine, `WalkSeries`, which the row-band builder
//! ([`crate::band::RowBands`]) calls. It evaluates the series **row by
//! row**: row `i` of `M^l` is row `i` of `M^{l-1}` times `M`, so a band
//! of output rows needs only its own rows of each power plus the whole
//! (sparse, `O(|E|)`) base. Entries below a drop tolerance are pruned
//! after each multiplication to keep fill-in bounded (the classic
//! approximate-SpGEMM trick; the tolerance is zero — exact — on small
//! graphs, see [`DEFAULT_DROP_TOL`]).

use crate::ProximityKind;
use sp_graph::Graph;
use sp_linalg::{CsrMatrix, CsrRowBlock};
use std::ops::Range;

/// Default drop tolerance applied by the walk proximities on graphs
/// above ~100k edges; keeps `Â^t` fill-in bounded on hub-heavy graphs
/// while perturbing entries by at most the tolerance per term.
pub const DEFAULT_DROP_TOL: f64 = 1e-6;

/// A truncated walk series `Σ_{l=1..L} coeffs[l-1] · base^l`, served
/// one row range at a time.
pub(crate) struct WalkSeries {
    base: CsrMatrix,
    coeffs: Vec<f64>,
    drop_tol: f64,
}

impl WalkSeries {
    /// The series of a walk-family `kind` on `g`, or `None` for the
    /// other kinds.
    ///
    /// # Panics
    /// On a parameter outside its range: Katz `β ∉ (0,1)` or
    /// `max_len == 0`, PPR `α ∉ (0,1)` or `iters == 0`, DeepWalk
    /// `window == 0`.
    pub(crate) fn new(g: &Graph, kind: ProximityKind) -> Option<Self> {
        let (base, coeffs): (CsrMatrix, Vec<f64>) = match kind {
            ProximityKind::Katz { beta, max_len } => {
                assert!(beta > 0.0 && beta < 1.0, "katz: beta must be in (0,1)");
                assert!(max_len >= 1, "katz: max_len must be >= 1");
                let coeffs = (1..=max_len).map(|l| beta.powi(l as i32)).collect();
                (crate::adjacency(g), coeffs)
            }
            ProximityKind::Ppr { alpha, iters } => {
                assert!(alpha > 0.0 && alpha < 1.0, "ppr: alpha must be in (0,1)");
                assert!(iters >= 1, "ppr: iters must be >= 1");
                let coeffs = (1..=iters)
                    .map(|t| alpha * (1.0 - alpha).powi(t as i32))
                    .collect();
                (crate::normalized_adjacency(g), coeffs)
            }
            ProximityKind::DeepWalk { window } => {
                assert!(window >= 1, "deepwalk: window must be >= 1");
                (
                    crate::normalized_adjacency(g),
                    vec![1.0 / window as f64; window],
                )
            }
            _ => return None,
        };
        Some(Self {
            base,
            coeffs,
            drop_tol: auto_tol(g),
        })
    }

    /// The series' output rows `rows`:
    ///
    /// 1. start from the rows of the base, pruned to `|v| >= drop_tol`;
    /// 2. each further power is one [`CsrMatrix::spgemm_rows`] of the
    ///    previous power's rows against the unpruned base;
    /// 3. each power is folded in as `acc + c·power`.
    ///
    /// Every row depends only on the base and the coefficients, so any
    /// partition of `0..n` concatenates to the bit-identical matrix.
    pub(crate) fn rows(&self, rows: Range<usize>) -> CsrRowBlock {
        let height = rows.len();
        let mut power = CsrRowBlock {
            row_nnz: Vec::with_capacity(height),
            ..CsrRowBlock::default()
        };
        for i in rows {
            let before = power.indices.len();
            let (idx, val) = self.base.row(i);
            for (&j, &v) in idx.iter().zip(val) {
                if self.drop_tol <= 0.0 || v.abs() >= self.drop_tol {
                    power.indices.push(j);
                    power.data.push(v);
                }
            }
            power.row_nnz.push(power.indices.len() - before);
        }
        let mut acc = power.clone();
        acc.data.iter_mut().for_each(|v| *v *= self.coeffs[0]);
        for &c in &self.coeffs[1..] {
            let prev = CsrMatrix::from_row_blocks(height, self.base.cols(), vec![power]);
            power = prev.spgemm_rows(&self.base, 0..height, self.drop_tol);
            acc = add_scaled(&acc, &power, c);
        }
        acc
    }
}

/// `acc + c·term` for two blocks over the same rows, under the rules of
/// `CooBuilder::build`: entries at the same column are summed, and
/// exact-zero results are dropped wherever they come from.
fn add_scaled(acc: &CsrRowBlock, term: &CsrRowBlock, c: f64) -> CsrRowBlock {
    let mut out = CsrRowBlock {
        row_nnz: Vec::with_capacity(acc.rows()),
        indices: Vec::with_capacity(acc.indices.len() + term.indices.len()),
        data: Vec::with_capacity(acc.indices.len() + term.indices.len()),
    };
    let (mut a, mut t) = (0usize, 0usize);
    for (&acc_nnz, &term_nnz) in acc.row_nnz.iter().zip(&term.row_nnz) {
        let (a_end, t_end) = (a + acc_nnz, t + term_nnz);
        let before = out.indices.len();
        while a < a_end || t < t_end {
            // Take the smaller column next; both cursors on a tie.
            let take_acc = t == t_end || (a < a_end && acc.indices[a] <= term.indices[t]);
            let take_term = a == a_end || (t < t_end && term.indices[t] <= acc.indices[a]);
            let (j, v) = match (take_acc, take_term) {
                (true, true) => (acc.indices[a], acc.data[a] + term.data[t] * c),
                (true, false) => (acc.indices[a], acc.data[a]),
                (false, _) => (term.indices[t], term.data[t] * c),
            };
            a += usize::from(take_acc);
            t += usize::from(take_term);
            if v != 0.0 {
                out.indices.push(j);
                out.data.push(v);
            }
        }
        out.row_nnz.push(out.indices.len() - before);
    }
    out
}

/// Exact on small graphs, pruned on large ones.
fn auto_tol(g: &Graph) -> f64 {
    if g.num_edges() > 100_000 {
        DEFAULT_DROP_TOL
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{proximity_matrix, EdgeProximity};
    use sp_graph::Graph;

    fn path3() -> Graph {
        Graph::from_edges(3, [(0, 1), (1, 2)])
    }

    fn series(base: CsrMatrix, coeffs: &[f64], drop_tol: f64) -> CsrMatrix {
        let n = base.rows();
        let s = WalkSeries {
            base,
            coeffs: coeffs.to_vec(),
            drop_tol,
        };
        CsrMatrix::from_row_blocks(n, n, vec![s.rows(0..n)])
    }

    #[test]
    fn series_single_term_is_scaled_base() {
        let a = crate::adjacency(&path3());
        let s = series(a.clone(), &[2.0], 0.0);
        for (i, j, v) in s.iter() {
            assert_eq!(v, 2.0 * a.get(i, j));
        }
    }

    #[test]
    fn series_two_terms_matches_manual() {
        let a = crate::adjacency(&path3());
        let s = series(a.clone(), &[1.0, 1.0], 0.0);
        let a2 = a.spgemm(&a);
        for i in 0..3 {
            for j in 0..3 {
                assert!((s.get(i, j) - (a.get(i, j) + a2.get(i, j))).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn prune_drops_small_entries() {
        let a = crate::normalized_adjacency(&path3());
        // With a huge tolerance everything is dropped.
        let s = series(a, &[1.0], 10.0);
        assert_eq!(s.nnz(), 0);
    }

    #[test]
    fn add_scaled_sums_shared_columns_and_drops_zeros() {
        let acc = CsrRowBlock {
            row_nnz: vec![2, 1, 0],
            indices: vec![0, 2, 1],
            data: vec![1.0, 4.0, 3.0],
        };
        let term = CsrRowBlock {
            row_nnz: vec![2, 0, 1],
            indices: vec![1, 2, 0],
            data: vec![5.0, -2.0, 7.0],
        };
        let out = add_scaled(&acc, &term, 2.0);
        assert_eq!(out.row_nnz, vec![2, 1, 1]);
        assert_eq!(out.indices, vec![0, 1, 1, 0]);
        assert_eq!(out.data, vec![1.0, 10.0, 3.0, 14.0]);
    }

    #[test]
    fn katz_on_path_counts_walks() {
        let m = proximity_matrix(
            &path3(),
            ProximityKind::Katz {
                beta: 0.5,
                max_len: 2,
            },
        );
        // (0,1): one walk of length 1, zero of length 2 -> 0.5.
        assert!((m.get(0, 1) - 0.5).abs() < 1e-12);
        // (0,2): one walk of length 2 -> 0.25.
        assert!((m.get(0, 2) - 0.25).abs() < 1e-12);
        // (0,0): one closed walk of length 2 (0-1-0) -> 0.25.
        assert!((m.get(0, 0) - 0.25).abs() < 1e-12);
        assert!(m.is_symmetric());
    }

    #[test]
    fn deepwalk_window1_is_transition_matrix_halved_no_wait() {
        // T = 1: M = Â exactly.
        let g = path3();
        let m = proximity_matrix(&g, ProximityKind::DeepWalk { window: 1 });
        let a = crate::normalized_adjacency(&g);
        for i in 0..3 {
            for j in 0..3 {
                assert!((m.get(i, j) - a.get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn deepwalk_window2_known_values() {
        // Path 0-1-2. Â: 0->1 w.p. 1; 1->0,2 w.p. 0.5; 2->1 w.p. 1.
        // Â²: 0->{0,2} w.p. 0.5; 1->1 w.p. 1; 2->{0,2} w.p. 0.5.
        // M = (Â + Â²)/2.
        let m = proximity_matrix(&path3(), ProximityKind::DeepWalk { window: 2 });
        assert!((m.get(0, 1) - 0.5).abs() < 1e-12);
        assert!((m.get(0, 2) - 0.25).abs() < 1e-12);
        assert!((m.get(0, 0) - 0.25).abs() < 1e-12);
        assert!((m.get(1, 0) - 0.25).abs() < 1e-12);
        assert!((m.get(1, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn deepwalk_rows_remain_stochastic() {
        // Each Â^t is row-stochastic, so the average is too.
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]);
        let m = proximity_matrix(&g, ProximityKind::DeepWalk { window: 3 });
        for i in 0..5 {
            assert!((m.row_sum(i) - 1.0).abs() < 1e-10, "row {i}");
        }
    }

    #[test]
    fn ppr_mass_is_bounded_by_one() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let m = proximity_matrix(
            &g,
            ProximityKind::Ppr {
                alpha: 0.15,
                iters: 8,
            },
        );
        for i in 0..5 {
            let s = m.row_sum(i);
            assert!(s > 0.0 && s < 1.0, "row {i} mass {s}");
        }
    }

    #[test]
    fn ppr_decays_with_distance_on_path() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let m = proximity_matrix(
            &g,
            ProximityKind::Ppr {
                alpha: 0.15,
                iters: 6,
            },
        );
        assert!(m.get(0, 1) > m.get(0, 2));
        assert!(m.get(0, 2) > m.get(0, 3));
    }

    #[test]
    #[should_panic(expected = "beta must be in (0,1)")]
    fn katz_rejects_bad_beta() {
        proximity_matrix(
            &path3(),
            ProximityKind::Katz {
                beta: 1.5,
                max_len: 2,
            },
        );
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0,1)")]
    fn ppr_rejects_bad_alpha() {
        EdgeProximity::compute(
            &path3(),
            ProximityKind::Ppr {
                alpha: 0.0,
                iters: 4,
            },
        );
    }

    #[test]
    #[should_panic(expected = "window must be >= 1")]
    fn deepwalk_rejects_zero_window() {
        EdgeProximity::compute(&path3(), ProximityKind::DeepWalk { window: 0 });
    }
}
