//! Row-band proximity builder: the one way `sp_proximity` builds a
//! matrix-backed proximity.
//!
//! A *band* is a contiguous range of output rows, produced as a
//! [`CsrRowBlock`] and dropped as soon as its consumer has drained it.
//! [`EdgeProximity::compute_threads`](crate::EdgeProximity::compute_threads)
//! drains bands of [`BAND_ROWS`] rows, so its peak is one band instead
//! of the whole matrix; [`proximity_matrix`](crate::proximity_matrix)
//! is all rows as one band.
//!
//! Determinism: every output row depends only on the graph and the
//! measure — the per-centre weights of a wedge measure
//! ([`crate::neighborhood`]), the base matrix and coefficients of a walk
//! series ([`crate::walk`]) — so concatenating bands of *any* height,
//! including 1, reproduces the whole matrix bit for bit, for any thread
//! count. `tests/blocked_pipeline.rs` pins this contract.

use crate::neighborhood::{wedge_rows, wedge_weights};
use crate::walk::WalkSeries;
use crate::ProximityKind;
use sp_graph::Graph;
use sp_linalg::CsrRowBlock;
use sp_parallel::{default_chunk_size, par_map_chunks, resolve_threads};
use std::ops::Range;

/// Rows per band in
/// [`EdgeProximity::compute_threads`](crate::EdgeProximity::compute_threads).
///
/// Chosen by measurement on the BlogCatalog stand-in (10,312 nodes,
/// 333,983 edges, DeepWalk window 2: ~4,600 entries per row; 2-CPU
/// Xeon, 2 threads). Every height from 32 to 512 rows took 2.3–2.6 s,
/// while the process peak grew with the height: 35 MiB at 32 rows,
/// 61–65 MiB at 128, 98 MiB at 256, 145 MiB at 512 and 437 MiB at
/// 4,096. 128 rows keeps a band small next to the trainer's own
/// matrices and still gives each of 2–4 workers several chunks.
pub const BAND_ROWS: usize = 128;

/// Band builder for the six matrix-backed measures (CN, AA, RA, Katz,
/// PPR, DeepWalk): precomputes what every row reads once, then serves
/// arbitrary row bands on demand.
pub struct RowBands<'g> {
    g: &'g Graph,
    source: Source,
}

/// What a band's rows are computed from.
enum Source {
    /// Wedge measures: the per-centre weights.
    Wedge(Vec<f64>),
    /// Walk measures: the truncated series.
    Walk(WalkSeries),
}

impl<'g> RowBands<'g> {
    /// A band builder for `kind` on `g`, or `None` for
    /// [`ProximityKind::PreferentialAttachment`] and
    /// [`ProximityKind::Degree`], whose matrices are dense by
    /// construction and which have a closed form instead.
    ///
    /// # Panics
    /// On a walk parameter outside its range: Katz `β ∉ (0,1)` or
    /// `max_len == 0`, PPR `α ∉ (0,1)` or `iters == 0`, DeepWalk
    /// `window == 0`.
    pub fn new(g: &'g Graph, kind: ProximityKind) -> Option<Self> {
        let source = match wedge_weights(g, kind) {
            Some(w) => Source::Wedge(w),
            None => Source::Walk(WalkSeries::new(g, kind)?),
        };
        Some(Self { g, source })
    }

    /// Number of matrix rows (`|V|`).
    pub fn rows(&self) -> usize {
        self.g.num_nodes()
    }

    /// Builds the band of output rows `rows`, parallelised over
    /// `threads` workers within the band. Bit-identical to the same
    /// rows of the whole matrix for any band height and thread count.
    pub fn band(&self, rows: Range<usize>, threads: Option<usize>) -> CsrRowBlock {
        assert!(rows.end <= self.rows(), "band out of bounds");
        let len = rows.len();
        let threads = resolve_threads(threads);
        let start = rows.start;
        let chunks = par_map_chunks(len, default_chunk_size(len, threads), threads, |r| {
            let r = start + r.start..start + r.end;
            match &self.source {
                Source::Wedge(w) => wedge_rows(self.g, w, r),
                Source::Walk(series) => series.rows(r),
            }
        });
        let mut band = CsrRowBlock::default();
        for c in chunks {
            band.append(c);
        }
        band
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proximity_matrix_threads;
    use sp_linalg::CsrMatrix;

    fn bridged_triangles() -> Graph {
        Graph::from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    }

    fn reassemble(g: &Graph, kind: ProximityKind, band_rows: usize) -> CsrMatrix {
        let bands = RowBands::new(g, kind).unwrap();
        let n = bands.rows();
        let blocks = (0..n)
            .step_by(band_rows)
            .map(|start| bands.band(start..(start + band_rows).min(n), Some(2)))
            .collect();
        CsrMatrix::from_row_blocks(n, n, blocks)
    }

    #[test]
    fn bands_of_any_height_match_materialised_bitwise() {
        let g = bridged_triangles();
        for kind in [
            ProximityKind::CommonNeighbors,
            ProximityKind::AdamicAdar,
            ProximityKind::ResourceAllocation,
            ProximityKind::Katz {
                beta: 0.3,
                max_len: 3,
            },
            ProximityKind::Ppr {
                alpha: 0.15,
                iters: 3,
            },
            ProximityKind::DeepWalk { window: 2 },
        ] {
            let full = proximity_matrix_threads(&g, kind, Some(1));
            for band_rows in [1, 2, 4, g.num_nodes()] {
                let blocked = reassemble(&g, kind, band_rows);
                assert_eq!(blocked, full, "{kind:?} band_rows={band_rows}");
            }
        }
    }

    #[test]
    fn degree_kinds_have_no_bands() {
        let g = bridged_triangles();
        assert!(RowBands::new(&g, ProximityKind::Degree).is_none());
        assert!(RowBands::new(&g, ProximityKind::PreferentialAttachment).is_none());
        assert!(RowBands::new(&g, ProximityKind::deepwalk_default()).is_some());
    }

    #[test]
    #[should_panic(expected = "band out of bounds")]
    fn band_rejects_out_of_range() {
        let g = bridged_triangles();
        RowBands::new(&g, ProximityKind::CommonNeighbors)
            .unwrap()
            .band(0..7, Some(1));
    }
}
