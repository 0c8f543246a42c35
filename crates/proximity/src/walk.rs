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
//! They share one engine, `WalkSeries`, the walk half of the row kernel
//! in [`crate::band`]. It evaluates the series **row by row** in dense
//! scratch: row `i` of `M^l` is row `i` of `M^{l-1}` times `M`, so a row
//! needs only its own row of each power plus the (sparse, `O(|E|)`)
//! base. Entries below a drop tolerance are pruned after each
//! multiplication to bound fill-in (exact on small graphs, see
//! [`DEFAULT_DROP_TOL`]).

use crate::band::Scratch;
use crate::ProximityKind;
use sp_graph::Graph;
use sp_linalg::CsrMatrix;

/// Drop tolerance the walk proximities apply on graphs above 100k
/// edges, to bound `Â^t` fill-in on hub-heavy graphs.
///
/// It prunes no entry of DeepWalk window 2 on the BlogCatalog stand-in,
/// the benchmark's one graph past 100k edges: an entry of `Â²` is at
/// least `1/(d_i·d_k)` for some edge `(i, k)`, and the stand-in's
/// maximum degree is 828 at seed 1 and 900 at seed 7. It prunes where
/// the degrees along a walk multiply past 10⁶: two adjacent hubs for
/// window 2, three moderate degrees for a longer `Â` series (DeepWalk
/// windows above 2, PPR). Katz never prunes: its entries count walks.
pub const DEFAULT_DROP_TOL: f64 = 1e-6;

/// A truncated walk series `Σ_{l=1..L} coeffs[l-1] · base^l`, served
/// one row at a time.
pub(crate) struct WalkSeries {
    base: CsrMatrix,
    coeffs: Vec<f64>,
    drop_tol: f64,
}

impl WalkSeries {
    /// The series of a walk-family `kind` on `g`, or `None` for the
    /// other kinds. Panics on a parameter outside its range.
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
                let coeffs = vec![1.0 / window as f64; window];
                (crate::normalized_adjacency(g), coeffs)
            }
            _ => return None,
        };
        let drop_tol = if g.num_edges() > 100_000 {
            DEFAULT_DROP_TOL
        } else {
            0.0
        };
        Some(Self {
            base,
            coeffs,
            drop_tol,
        })
    }

    /// Accumulates output row `i` of the series into `s.row`; the
    /// scratch must be clear, and is left clear but for `s.row`.
    /// Starting from `e_i`, each power scatters the previous power's kept
    /// entries, in ascending column order, against the base into
    /// `s.power` — the `acc[c] += a·b` order of [`CsrMatrix::spgemm`] —
    /// and keeps its non-zero entries with `|v| >= drop_tol`. Each kept
    /// entry folds into the row as `row[c] + c_l·v`, the bits of a sparse
    /// `acc + c_l·power` merge: an untouched column holds `0.0`, and
    /// `0.0 + x == x`. Only a power a later multiplication reads is
    /// sorted; power 1 is the base row, already ascending, so DeepWalk
    /// window 2 sorts nothing.
    pub(crate) fn row(&self, i: usize, s: &mut Scratch) {
        let keep = |v: f64| v != 0.0 && (self.drop_tol <= 0.0 || v.abs() >= self.drop_tol);
        s.prev.push((i as u32, 1.0));
        for (l, &c) in self.coeffs.iter().enumerate() {
            for &(j, a) in &s.prev {
                let (idx, val) = self.base.row(j as usize);
                for (&k, &b) in idx.iter().zip(val) {
                    s.power.add(k, a * b);
                }
            }
            let read_again = l + 1 < self.coeffs.len();
            s.prev.clear();
            s.power.drain(read_again && l > 0, |k, v| {
                if keep(v) {
                    s.row.add(k, v * c);
                    if read_again {
                        s.prev.push((k, v));
                    }
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::band::{RowBands, Source};
    use crate::{proximity_matrix, EdgeProximity};
    use sp_graph::Graph;

    fn path3() -> Graph {
        Graph::from_edges(3, [(0, 1), (1, 2)])
    }

    /// The rows of `series` on `g`, so both finishes run it.
    fn rows_of(g: &Graph, series: WalkSeries) -> RowBands<'_> {
        RowBands {
            g,
            source: Source::Walk(series),
        }
    }

    /// The whole matrix of `series` through the matrix finish.
    fn matrix(g: &Graph, series: WalkSeries) -> CsrMatrix {
        let n = g.num_nodes();
        CsrMatrix::from_row_blocks(n, n, vec![rows_of(g, series).band(0..n, Some(1))])
    }

    /// The series of `base` on `path3()`, the graph every caller's base
    /// is built from.
    fn series(base: CsrMatrix, coeffs: &[f64], drop_tol: f64) -> CsrMatrix {
        let s = WalkSeries {
            base,
            coeffs: coeffs.to_vec(),
            drop_tol,
        };
        matrix(&path3(), s)
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

    /// A degree-6 hub on a ring of six, with a three-edge tail: row
    /// degrees from 1 to 6, so `Â`'s entries range from 1/6 to 1.
    fn hub_with_tail() -> Graph {
        let spokes = (1..=6).map(|v| (0, v));
        let ring = (1..=6).map(|v| (v, v % 6 + 1));
        Graph::from_edges(10, spokes.chain(ring).chain([(6, 7), (7, 8), (8, 9)]))
    }

    /// `(nnz, FNV-1a over (row, col, value bits))` of a matrix.
    fn digest(m: &CsrMatrix) -> (usize, u64) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (i, j, v) in m.iter() {
            for w in [i as u64, j as u64, v.to_bits()] {
                for b in w.to_le_bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        (m.nnz(), h)
    }

    /// `(kind, drop tolerance, pinned digest)`. The `Â` series keep
    /// every base entry (all ≥ 1/6) and prune the intermediate powers'
    /// entries below 0.1. Katz's powers count walks, so each entry is
    /// ≥ 1: a tolerance above 1 empties its series at the base, and
    /// one at or below 1 prunes nothing.
    const PRUNED: [(ProximityKind, f64, (usize, u64)); 3] = [
        (
            ProximityKind::Katz {
                beta: 0.5,
                max_len: 3,
            },
            1.5,
            (0, 0xcbf2_9ce4_8422_2325),
        ),
        (
            ProximityKind::Ppr {
                alpha: 0.15,
                iters: 4,
            },
            0.1,
            (66, 0x3dba_e0e5_1806_4b07),
        ),
        (
            ProximityKind::DeepWalk { window: 3 },
            0.1,
            (66, 0x9c81_b744_b9d4_1682),
        ),
    ];

    #[test]
    fn explicit_tolerance_prunes_intermediate_powers() {
        // Every test graph is below the 100k edges past which
        // WalkSeries::new prunes, so this is the only test that drops
        // an entry.
        let g = hub_with_tail();
        for (kind, drop_tol, golden) in PRUNED {
            let exact = proximity_matrix(&g, kind);
            let pruned_series = || {
                let mut s = WalkSeries::new(&g, kind).unwrap();
                assert_eq!(s.drop_tol, 0.0);
                s.drop_tol = drop_tol;
                s
            };
            let pruned = matrix(&g, pruned_series());
            assert_ne!(pruned, exact, "{kind:?}: nothing pruned");
            assert_eq!(digest(&pruned), golden, "{kind:?}");
            // The edge finish reads the same pruned rows.
            let lookups: Vec<u64> = g
                .edges()
                .iter()
                .map(|&(u, v)| pruned.get(u as usize, v as usize).to_bits())
                .collect();
            for threads in [1, 4] {
                let (weights, min) = rows_of(&g, pruned_series()).edge_weights(Some(threads));
                let weights: Vec<u64> = weights.iter().map(|w| w.to_bits()).collect();
                assert_eq!(weights, lookups, "{kind:?} threads={threads}");
                let matrix_min = pruned.min_positive().unwrap_or(1.0);
                assert_eq!(
                    min.to_bits(),
                    matrix_min.to_bits(),
                    "{kind:?} threads={threads}"
                );
            }
        }
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
