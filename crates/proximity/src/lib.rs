//! # sp-proximity
//!
//! Node-proximity measures (Definition 4 of the paper): the
//! "structure preference" knob of SE-PrivGEmb. A proximity `p_ij`
//! quantifies a structural relationship between nodes; the trainer
//! weights each observed edge's skip-gram loss by `p_ij` (Eq. 5) and
//! Theorem 3 shows the learned inner products converge to
//! `log(p_ij / (k·min(P)))`.
//!
//! Implemented measures, following the paper's taxonomy (§II-D):
//!
//! - **first-order** (one-hop): common neighbours, preferential
//!   attachment;
//! - **second-order** (two-hop): Adamic–Adar, resource allocation;
//! - **high-order** (whole graph): truncated Katz, personalised
//!   PageRank, and the DeepWalk proximity of Yang et al. \[22\]
//!   (`M = (1/T) Σ_{t=1..T} Â^t` with row-normalised `Â`), which is
//!   the `SE-PrivGEmb_DW` configuration of the experiments;
//! - **degree** proximity (`SE-PrivGEmb_Deg`): `p_ij = d_i d_j / 2|E|`,
//!   computable in `O(|V|)` as the paper's complexity analysis states.
//!
//! Every matrix-backed measure is built by one per-row kernel
//! ([`band`]) with two finishes: [`EdgeProximity`] reads the training
//! edges' weights and the `min(P)` constant — all the trainer needs —
//! straight off each row's scratch, and [`proximity_matrix`] emits the
//! full sparse matrix, for the Theorem 3 machinery and for analysis on
//! small/medium graphs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod band;
pub mod degree;
pub mod neighborhood;
pub mod walk;

use sp_graph::Graph;
use sp_linalg::{CooBuilder, CsrMatrix};

/// Which proximity measure to use (the "structure preference").
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProximityKind {
    /// `|N(i) ∩ N(j)|` — first-order.
    CommonNeighbors,
    /// `d_i · d_j / 2|E|` over all pairs — first-order. Dense in
    /// principle; only edge weights / `min(P)` are materialised.
    PreferentialAttachment,
    /// `Σ_{w ∈ N(i)∩N(j)} 1/ln d_w` — second-order.
    AdamicAdar,
    /// `Σ_{w ∈ N(i)∩N(j)} 1/d_w` — second-order.
    ResourceAllocation,
    /// Truncated Katz index `Σ_{l=1..max_len} β^l (A^l)_ij` — high-order.
    Katz {
        /// Attenuation factor (must satisfy `β < 1/λ_max` for the full
        /// series; the truncation keeps any `β ∈ (0,1)` finite).
        beta: f64,
        /// Path-length truncation (≥ 1).
        max_len: usize,
    },
    /// Personalised-PageRank matrix `α Σ_t (1-α)^t Â^t`, truncated.
    Ppr {
        /// Restart probability `α ∈ (0,1)`.
        alpha: f64,
        /// Number of power-iteration terms (≥ 1).
        iters: usize,
    },
    /// DeepWalk proximity `M = (1/T) Σ_{t=1..T} Â^t` (Yang et al.).
    DeepWalk {
        /// Walk window `T ≥ 1` (the paper's experiments use `T = 2`).
        window: usize,
    },
    /// Degree proximity `d_i d_j / 2|E|`, the `O(|V|)` preference.
    Degree,
}

impl ProximityKind {
    /// The paper's `SE-PrivGEmb_DW` preference (window-2 DeepWalk).
    pub fn deepwalk_default() -> Self {
        ProximityKind::DeepWalk { window: 2 }
    }

    /// Short label used in experiment outputs (`DW`, `Deg`, ...).
    pub fn label(&self) -> &'static str {
        match self {
            ProximityKind::CommonNeighbors => "CN",
            ProximityKind::PreferentialAttachment => "PA",
            ProximityKind::AdamicAdar => "AA",
            ProximityKind::ResourceAllocation => "RA",
            ProximityKind::Katz { .. } => "Katz",
            ProximityKind::Ppr { .. } => "PPR",
            ProximityKind::DeepWalk { .. } => "DW",
            ProximityKind::Degree => "Deg",
        }
    }
}

/// Per-edge proximity weights for a graph, plus the constants the
/// trainer and Theorem 3 need.
///
/// Weights are **mean-normalised**: the raw measure is rescaled so
/// the average edge weight is 1. Scaling a proximity matrix by a
/// positive constant is theory-neutral — Theorem 3's optimum
/// `log(p_ij / (k·min(P)))` is invariant because `min(P)` scales by
/// the same constant — but it decouples the *effective learning rate*
/// from the measure's arbitrary magnitude (DeepWalk-proximity entries
/// are `O(1/degree)`, degree-proximity entries `O(avg degree)`), which
/// is what lets the paper use a single `η = 0.1` for both variants.
#[derive(Clone, Debug)]
pub struct EdgeProximity {
    /// `weights[e]` is the normalised `p_ij` for `g.edges()[e]`.
    pub weights: Vec<f64>,
    /// `min(P) = min{p_ij > 0}` over the *full* proximity matrix
    /// support (not just the edges), normalised by the same factor —
    /// Theorem 3's constant.
    pub min_positive: f64,
    /// Which measure produced this.
    pub kind: ProximityKind,
}

impl EdgeProximity {
    /// Computes mean-normalised edge weights for `kind` on `g`.
    ///
    /// Matrix-backed measures read the edge entries off each row as the
    /// row kernel builds it; the degree family is a closed form.
    pub fn compute(g: &Graph, kind: ProximityKind) -> Self {
        Self::compute_threads(g, kind, None)
    }

    /// [`EdgeProximity::compute`] with an explicit worker-thread count
    /// for the matrix-backed measures (`None` resolves via
    /// [`sp_parallel::resolve_threads`]).
    ///
    /// One pass of the row kernel's edge finish ([`band`]) over all
    /// rows: no band or matrix is built, so the transient is the edge
    /// weights plus one scratch row set per worker
    /// ([`band::RowBands::scratch_bytes`]). Bit-identical to edge
    /// lookups into [`proximity_matrix_threads`] for any thread count.
    pub fn compute_threads(g: &Graph, kind: ProximityKind, threads: Option<usize>) -> Self {
        let (weights, raw_min) = match band::RowBands::new(g, kind) {
            Some(rows) => rows.edge_weights(threads),
            None => degree::degree_edge_weights(g),
        };
        Self::from_raw(weights, raw_min, kind)
    }

    /// Mean-normalises raw weights (exposed for tests and custom
    /// proximity measures).
    pub fn from_raw(raw_weights: Vec<f64>, raw_min: f64, kind: ProximityKind) -> Self {
        let mean = if raw_weights.is_empty() {
            1.0
        } else {
            raw_weights.iter().sum::<f64>() / raw_weights.len() as f64
        };
        let scale = if mean > 0.0 { 1.0 / mean } else { 1.0 };
        let weights = raw_weights.iter().map(|&w| w * scale).collect();
        Self {
            weights,
            min_positive: raw_min * scale,
            kind,
        }
    }

    /// Number of weighted edges.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True when the graph had no edges.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }
}

/// Builds the full sparse proximity matrix for `kind`.
///
/// # Panics
/// Panics for [`ProximityKind::PreferentialAttachment`] and
/// [`ProximityKind::Degree`], whose matrices are dense by construction
/// — use [`EdgeProximity::compute`] or [`degree::degree_score`].
pub fn proximity_matrix(g: &Graph, kind: ProximityKind) -> CsrMatrix {
    proximity_matrix_threads(g, kind, None)
}

/// [`proximity_matrix`] with an explicit worker-thread count (`None`
/// resolves via [`sp_parallel::resolve_threads`]): all rows as one
/// [`band::RowBands`] band.
///
/// Every row is built with a fixed reduction order, so the matrix is
/// **bit-identical for any thread count** — the determinism contract
/// the DP pipeline and the paper tables rely on (see
/// `tests/parallel_determinism.rs`).
///
/// # Panics
/// Same contract as [`proximity_matrix`].
pub fn proximity_matrix_threads(
    g: &Graph,
    kind: ProximityKind,
    threads: Option<usize>,
) -> CsrMatrix {
    let bands = band::RowBands::new(g, kind).unwrap_or_else(|| {
        panic!("{kind:?} has a dense matrix; use EdgeProximity::compute or degree::degree_score")
    });
    let n = bands.rows();
    CsrMatrix::from_row_blocks(n, n, vec![bands.band(0..n, threads)])
}

/// Binary adjacency matrix of `g` as CSR.
pub fn adjacency(g: &Graph) -> CsrMatrix {
    let n = g.num_nodes();
    let mut b = CooBuilder::new(n, n);
    for &(u, v) in g.edges() {
        b.push(u as usize, v as usize, 1.0);
        b.push(v as usize, u as usize, 1.0);
    }
    b.build()
}

/// Row-normalised adjacency (random-walk transition matrix `Â`).
pub fn normalized_adjacency(g: &Graph) -> CsrMatrix {
    let mut a = adjacency(g);
    a.normalize_rows();
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_graph::Graph;

    fn karate_ish() -> Graph {
        // Small fixed graph: two triangles bridged by an edge.
        //   0-1, 1-2, 0-2   3-4, 4-5, 3-5   2-3
        Graph::from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    }

    /// Ring plus one chord per node: large enough to span several
    /// bands of [`band::BAND_ROWS`] rows.
    fn ring_with_chords(n: usize) -> Graph {
        let ring = (0..n).map(|i| (i as u32, ((i + 1) % n) as u32));
        let chords = (0..n).map(|i| (i as u32, ((i + n / 3) % n) as u32));
        Graph::from_edges(n, ring.chain(chords))
    }

    /// Every kind with a band builder.
    const MATRIX_KINDS: [ProximityKind; 6] = [
        ProximityKind::CommonNeighbors,
        ProximityKind::AdamicAdar,
        ProximityKind::ResourceAllocation,
        ProximityKind::Katz {
            beta: 0.5,
            max_len: 3,
        },
        ProximityKind::Ppr {
            alpha: 0.15,
            iters: 4,
        },
        ProximityKind::DeepWalk { window: 2 },
    ];

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn adjacency_is_symmetric_binary() {
        let g = karate_ish();
        let a = adjacency(&g);
        assert!(a.is_symmetric());
        assert_eq!(a.nnz(), 2 * g.num_edges());
        for (_, _, v) in a.iter() {
            assert_eq!(v, 1.0);
        }
    }

    #[test]
    fn normalized_adjacency_is_stochastic() {
        let g = karate_ish();
        let a = normalized_adjacency(&g);
        for i in 0..g.num_nodes() {
            let s = a.row_sum(i);
            assert!((s - 1.0).abs() < 1e-12, "row {i} sums to {s}");
        }
    }

    #[test]
    fn edge_proximity_positive_on_deepwalk() {
        let g = karate_ish();
        let p = EdgeProximity::compute(&g, ProximityKind::deepwalk_default());
        assert_eq!(p.len(), g.num_edges());
        // Every edge (i,j) has Â_ij ≥ 1/d_i > 0, so DW weights are positive.
        assert!(p.weights.iter().all(|&w| w > 0.0));
        assert!(p.min_positive > 0.0);
        assert!(p.weights.iter().all(|&w| w >= p.min_positive));
    }

    #[test]
    fn edge_proximity_degree_matches_closed_form_up_to_normalisation() {
        let g = karate_ish();
        let p = EdgeProximity::compute(&g, ProximityKind::Degree);
        // Mean weight is 1 after normalisation.
        let mean: f64 = p.weights.iter().sum::<f64>() / p.weights.len() as f64;
        assert!((mean - 1.0).abs() < 1e-12);
        // Ratios match the closed form exactly.
        let raw: Vec<f64> = g
            .edges()
            .iter()
            .map(|&(u, v)| g.degree(u) as f64 * g.degree(v) as f64)
            .collect();
        for e in 1..raw.len() {
            assert!(
                (p.weights[e] / p.weights[0] - raw[e] / raw[0]).abs() < 1e-12,
                "edge {e}: ratio mismatch"
            );
        }
    }

    #[test]
    fn normalisation_preserves_theorem3_optimum() {
        // x* = log(p / (k min P)) must be identical before and after
        // mean-normalisation.
        let g = karate_ish();
        let p = EdgeProximity::compute(&g, ProximityKind::deepwalk_default());
        let m = proximity_matrix(&g, ProximityKind::deepwalk_default());
        let raw_min = m.min_positive().unwrap();
        let k = 5.0;
        for (e, &(u, v)) in g.edges().iter().enumerate() {
            let raw = m.get(u as usize, v as usize);
            let x_raw = (raw / (k * raw_min)).ln();
            let x_norm = (p.weights[e] / (k * p.min_positive)).ln();
            assert!(
                (x_raw - x_norm).abs() < 1e-12,
                "edge {e}: {x_raw} vs {x_norm}"
            );
        }
    }

    #[test]
    fn compute_blocked_is_bit_identical_to_materialised() {
        // The edge path, which reads each row's edges off its scratch
        // row, equals edge lookups into the whole matrix, bit for bit:
        // on a graph smaller than `BAND_ROWS` (karate_ish) and on one
        // spanning several `BAND_ROWS` plus a remainder (the ring).
        for g in [karate_ish(), ring_with_chords(2 * band::BAND_ROWS + 3)] {
            for kind in MATRIX_KINDS {
                let m = proximity_matrix_threads(&g, kind, Some(1));
                let lookups = g
                    .edges()
                    .iter()
                    .map(|&(u, v)| m.get(u as usize, v as usize))
                    .collect();
                let full = EdgeProximity::from_raw(lookups, m.min_positive().unwrap(), kind);
                for threads in [1, 4] {
                    let banded = EdgeProximity::compute_threads(&g, kind, Some(threads));
                    let n = g.num_nodes();
                    assert_eq!(
                        bits(&banded.weights),
                        bits(&full.weights),
                        "{kind:?} n={n} threads={threads}"
                    );
                    assert_eq!(
                        banded.min_positive.to_bits(),
                        full.min_positive.to_bits(),
                        "{kind:?} n={n} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn compute_blocked_falls_back_for_non_wedge_kinds() {
        // PA and Degree have no band builder: the edge path falls back
        // to the closed form in the degrees, for any thread count.
        let g = karate_ish();
        let (_, raw_min) = degree::degree_edge_weights(&g);
        for kind in [ProximityKind::PreferentialAttachment, ProximityKind::Degree] {
            assert!(band::RowBands::new(&g, kind).is_none(), "{kind:?}");
            let raw = g
                .edges()
                .iter()
                .map(|&(u, v)| degree::degree_score(&g, u, v))
                .collect();
            let closed = EdgeProximity::from_raw(raw, raw_min, kind);
            for threads in [1, 4] {
                let p = EdgeProximity::compute_threads(&g, kind, Some(threads));
                assert_eq!(p.kind, kind);
                assert_eq!(bits(&p.weights), bits(&closed.weights), "{kind:?}");
                assert_eq!(p.min_positive.to_bits(), closed.min_positive.to_bits());
            }
        }
    }

    #[test]
    fn compute_blocked_accounts_transient_bands() {
        // The matrix finish's bands account for the whole matrix —
        // their entries add up to its nnz — while each one, resident
        // alone, holds less than the whole matrix.
        let g = ring_with_chords(4 * band::BAND_ROWS + 3);
        let n = g.num_nodes();
        for kind in [
            ProximityKind::CommonNeighbors,
            ProximityKind::deepwalk_default(),
        ] {
            let full = proximity_matrix_threads(&g, kind, Some(1));
            let bands = band::RowBands::new(&g, kind).expect("matrix-backed kind");
            let mut nnz = 0usize;
            let mut largest = 0u64;
            for start in (0..n).step_by(band::BAND_ROWS) {
                let block = bands.band(start..(start + band::BAND_ROWS).min(n), Some(1));
                nnz += block.data.len();
                largest = largest.max(block.heap_bytes());
            }
            assert_eq!(nnz, full.nnz(), "{kind:?}");
            assert!(largest > 0, "{kind:?}");
            assert!(
                largest < full.heap_bytes(),
                "{kind:?}: largest band {largest} bytes vs whole matrix {}",
                full.heap_bytes()
            );
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ProximityKind::deepwalk_default().label(), "DW");
        assert_eq!(ProximityKind::Degree.label(), "Deg");
        assert_eq!(ProximityKind::CommonNeighbors.label(), "CN");
    }

    #[test]
    #[should_panic(expected = "dense matrix")]
    fn dense_kinds_refuse_matrix_form() {
        proximity_matrix(&karate_ish(), ProximityKind::Degree);
    }

    #[test]
    fn min_positive_is_global_not_edge_restricted() {
        // Path 0-1-2: DW window 2 gives positive proximity to the
        // non-edge (0,2); min(P) must consider it. Compare in ratio
        // form since EdgeProximity is mean-normalised.
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let m = proximity_matrix(&g, ProximityKind::deepwalk_default());
        let p = EdgeProximity::compute(&g, ProximityKind::deepwalk_default());
        assert!(m.get(0, 2) > 0.0);
        // min over the full support is <= the smallest *edge* weight.
        let min_edge = p.weights.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(p.min_positive <= min_edge + 1e-12);
        // And the normalised min reflects the raw global min ratio.
        let raw_min = m.min_positive().unwrap();
        let raw_edge0 = m.get(g.edges()[0].0 as usize, g.edges()[0].1 as usize);
        assert!((p.min_positive / p.weights[0] - raw_min / raw_edge0).abs() < 1e-12);
    }
}
