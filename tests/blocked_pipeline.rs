//! Determinism contract of the banded proximity path.
//!
//! Every matrix-backed proximity comes from one row kernel
//! (`sp_proximity::band::RowBands`) with two finishes:
//! `proximity_matrix_threads` emits all rows as one band, and
//! `EdgeProximity::compute_threads` builds no band at all — it reads
//! each row's edge weights straight off the row's per-worker scratch.
//! This suite pins three promises:
//!
//! - bands of *any* height and *any* thread count reassemble into the
//!   bit-identical matrix, over `heights {1, 7, 64, n} × threads {1, 4}`
//!   for all six matrix kinds;
//! - the edge weights and `min(P)` read off the rows equal lookups
//!   into the whole matrix, on graphs whose row count is one short of,
//!   equal to, one over, and two and a bit times `BAND_ROWS`;
//! - the memory claim itself: the largest band fits a cap that the
//!   whole matrix exceeds.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sp_datasets::generators;
use sp_graph::Graph;
use sp_linalg::CsrMatrix;
use sp_proximity::band::{RowBands, BAND_ROWS};
use sp_proximity::{proximity_matrix_threads, EdgeProximity, ProximityKind};

/// Band heights exercised: degenerate (1), odd (7), round (64), and
/// "everything in one band" (n, substituted per test).
const HEIGHTS: [usize; 3] = [1, 7, 64];
const THREADS: [usize; 2] = [1, 4];

const WEDGE_KINDS: [ProximityKind; 3] = [
    ProximityKind::CommonNeighbors,
    ProximityKind::AdamicAdar,
    ProximityKind::ResourceAllocation,
];

const WALK_KINDS: [ProximityKind; 3] = [
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

/// Small fixed scale-free graph: enough hub structure that rows have
/// very uneven nnz, which is what makes band boundaries interesting.
fn scale_free_graph(n: usize) -> Graph {
    let mut rng = StdRng::seed_from_u64(7);
    generators::barabasi_albert(n, 3, &mut rng)
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Structural + bitwise equality of two CSR matrices (CsrMatrix's
/// `PartialEq` uses float value equality, which would call `-0.0` and
/// `0.0` equal; the banded contract is stronger).
fn matrices_bit_identical(a: &CsrMatrix, b: &CsrMatrix) -> bool {
    a.nnz() == b.nnz()
        && a.iter().zip(b.iter()).all(|((i1, j1, v1), (i2, j2, v2))| {
            i1 == i2 && j1 == j2 && v1.to_bits() == v2.to_bits()
        })
}

fn assemble_banded(g: &Graph, kind: ProximityKind, band_rows: usize, threads: usize) -> CsrMatrix {
    let bands = RowBands::new(g, kind).expect("matrix-backed kind");
    let n = bands.rows();
    let blocks = (0..n)
        .step_by(band_rows)
        .map(|start| bands.band(start..(start + band_rows).min(n), Some(threads)))
        .collect();
    CsrMatrix::from_row_blocks(n, n, blocks)
}

fn assert_bands_match_materialized(kinds: &[ProximityKind]) {
    let g = scale_free_graph(40);
    let n = g.num_nodes();
    for &kind in kinds {
        let full = proximity_matrix_threads(&g, kind, Some(1));
        for band_rows in HEIGHTS.into_iter().chain([n]) {
            for threads in THREADS {
                let assembled = assemble_banded(&g, kind, band_rows, threads);
                assert!(
                    matrices_bit_identical(&full, &assembled),
                    "{kind:?}: bands of {band_rows} rows with {threads} threads diverged"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Row-banded proximity matrices

#[test]
fn banded_wedge_matrices_match_materialized_for_all_heights_and_threads() {
    assert_bands_match_materialized(&WEDGE_KINDS);
}

#[test]
fn banded_walk_matrices_match_materialized_for_all_heights_and_threads() {
    assert_bands_match_materialized(&WALK_KINDS);
}

// ---------------------------------------------------------------------------
// Edge weights read off the rows

#[test]
fn blocked_edge_proximity_matches_materialized_for_all_heights_and_threads() {
    // Last-band heights: one row short of a band, exactly one band, one
    // row over, and two bands plus a remainder.
    for n in [BAND_ROWS - 1, BAND_ROWS, BAND_ROWS + 1, 2 * BAND_ROWS + 37] {
        let g = scale_free_graph(n);
        for kind in WEDGE_KINDS.into_iter().chain(WALK_KINDS) {
            let m = proximity_matrix_threads(&g, kind, Some(1));
            let lookups = g
                .edges()
                .iter()
                .map(|&(u, v)| m.get(u as usize, v as usize))
                .collect();
            let full = EdgeProximity::from_raw(lookups, m.min_positive().unwrap_or(1.0), kind);
            for threads in THREADS {
                let banded = EdgeProximity::compute_threads(&g, kind, Some(threads));
                assert!(
                    bits_equal(&full.weights, &banded.weights),
                    "{kind:?}: weights on {n} nodes with {threads} threads diverged"
                );
                assert_eq!(
                    full.min_positive.to_bits(),
                    banded.min_positive.to_bits(),
                    "{kind:?}: min_positive on {n} nodes with {threads} threads diverged"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The memory claim itself

#[test]
fn blocked_proximity_fits_a_budget_the_materialized_matrix_exceeds() {
    // Ring + 2 chords per node: degree 6, so the CN matrix holds
    // roughly n·d² ≈ 200k entries and the DW matrix ≈ n·(1+d+d²) — a
    // few MiB materialised, while one band is a few tens of KiB.
    let n = 6000usize;
    let mut edges: Vec<(u32, u32)> = (0..n).map(|i| (i as u32, ((i + 1) % n) as u32)).collect();
    for i in 0..n {
        edges.push((i as u32, ((i + n / 3) % n) as u32));
        edges.push((i as u32, ((i + 2 * n / 5 + 1) % n) as u32));
    }
    let g = Graph::from_edges(n, edges);

    const CAP_BYTES: u64 = 1 << 20; // 1 MiB working-set budget

    for kind in [
        ProximityKind::CommonNeighbors,
        ProximityKind::deepwalk_default(),
    ] {
        let materialized = proximity_matrix_threads(&g, kind, Some(1));
        assert!(
            materialized.heap_bytes() > CAP_BYTES,
            "materialised {kind:?} matrix ({} bytes) no longer exceeds the {CAP_BYTES} byte \
             cap — grow the fixture",
            materialized.heap_bytes()
        );
        let bands = RowBands::new(&g, kind).expect("matrix-backed kind");
        let largest = (0..n)
            .step_by(BAND_ROWS)
            .map(|start| {
                bands
                    .band(start..(start + BAND_ROWS).min(n), Some(1))
                    .heap_bytes()
            })
            .max()
            .expect("at least one band");
        assert!(
            largest <= CAP_BYTES,
            "{kind:?}: the largest band of {BAND_ROWS} rows holds {largest} bytes, over the \
             {CAP_BYTES} byte cap"
        );
    }
}
