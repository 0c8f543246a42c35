//! The row kernel of every matrix-backed proximity (CN, AA, RA, Katz,
//! PPR, DeepWalk) and its two finishes.
//!
//! The kernel accumulates output row `i` into a dense per-worker scratch
//! row: the wedge sum of [`crate::neighborhood`] or the truncated series
//! of [`crate::walk`]. The **matrix finish** ([`RowBands::band`]) sorts
//! the row's columns and emits CSR; the **edge finish**
//! ([`EdgeProximity::compute_threads`](crate::EdgeProximity::compute_threads))
//! reads the row's canonical edges straight off the scratch, folds its
//! positive minimum and clears it, so no matrix entry is ever stored.
//! Every row depends only on the graph and the measure and is summed in
//! a fixed order, so bands of any height concatenate to the whole matrix
//! and both finishes give the same bits for any thread count
//! (`tests/blocked_pipeline.rs`).

use crate::neighborhood::{wedge_row, wedge_weights};
use crate::walk::WalkSeries;
use crate::ProximityKind;
use sp_graph::{Graph, NodeId};
use sp_linalg::CsrRowBlock;
use sp_parallel::{default_chunk_size, par_map_chunks, resolve_threads};
use std::ops::Range;

/// Band height the scale bench and the tests sweep to cut a matrix into
/// several bands plus a remainder. No production path uses it:
/// [`EdgeProximity`](crate::EdgeProximity) builds no band, and
/// [`proximity_matrix`](crate::proximity_matrix) is one band.
pub const BAND_ROWS: usize = 128;

/// The rows of the six matrix-backed measures: precomputes what every
/// row reads once, then serves row bands or edge weights.
pub struct RowBands<'g> {
    pub(crate) g: &'g Graph,
    pub(crate) source: Source,
}

/// What a row is computed from.
pub(crate) enum Source {
    /// Wedge measures: the per-centre weights.
    Wedge(Vec<f64>),
    /// Walk measures: the truncated series.
    Walk(WalkSeries),
}

/// A dense row over every column, plus the columns touched since it was
/// last drained, in first-touch order. Each column is touched at most
/// once per row, so `cols` never outgrows the row.
pub(crate) struct DenseRow {
    vals: Vec<f64>,
    cols: Vec<u32>,
}

impl DenseRow {
    fn new(n: usize) -> Self {
        Self {
            vals: vec![0.0; n],
            cols: Vec::with_capacity(n),
        }
    }

    /// `row[c] += v`. Exact zero marks an untouched column, so every
    /// partial sum must be strictly positive. All six kinds add only
    /// positive terms: the wedge kernel skips zero-weight centres, and
    /// walk base entries and coefficients are positive.
    #[inline]
    pub(crate) fn add(&mut self, c: u32, v: f64) {
        let slot = &mut self.vals[c as usize];
        if *slot == 0.0 {
            self.cols.push(c);
        }
        *slot += v;
    }

    /// Visits each touched column with its value — in ascending column
    /// order if `ascending`, else in first-touch order — and clears the
    /// row.
    pub(crate) fn drain(&mut self, ascending: bool, mut f: impl FnMut(u32, f64)) {
        if ascending {
            self.cols.sort_unstable();
        }
        for &c in &self.cols {
            f(c, std::mem::take(&mut self.vals[c as usize]));
        }
        self.cols.clear();
    }
}

/// One worker's scratch: the output row, plus the walk kernel's current
/// power and the previous power's kept entries (empty for wedges).
pub(crate) struct Scratch {
    pub(crate) row: DenseRow,
    pub(crate) power: DenseRow,
    pub(crate) prev: Vec<(u32, f64)>,
}

impl<'g> RowBands<'g> {
    /// The rows of `kind` on `g`, or `None` for
    /// [`ProximityKind::PreferentialAttachment`] and
    /// [`ProximityKind::Degree`], whose matrices are dense by
    /// construction and which have a closed form instead.
    ///
    /// # Panics
    /// On a walk parameter outside its range: Katz `β ∉ (0,1)`, PPR
    /// `α ∉ (0,1)`, or a zero `max_len`, `iters` or `window`.
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

    /// Columns of the walk kernel's scratch: `|V|`, or 0 for a wedge.
    fn walk_cols(&self) -> usize {
        match self.source {
            Source::Wedge(_) => 0,
            Source::Walk(_) => self.rows(),
        }
    }

    /// Heap bytes of one worker's scratch, which never grows: 12 per
    /// dense-row column (value and touched slot), 16 per previous entry.
    pub fn scratch_bytes(&self) -> u64 {
        (12 * self.rows() + 28 * self.walk_cols()) as u64
    }

    fn scratch(&self) -> Scratch {
        let (n, w) = (self.rows(), self.walk_cols());
        Scratch {
            row: DenseRow::new(n),
            power: DenseRow::new(w),
            prev: Vec::with_capacity(w),
        }
    }

    /// Accumulates output row `i` into `s.row`, which must be clear.
    fn accumulate(&self, i: usize, s: &mut Scratch) {
        match &self.source {
            Source::Wedge(w) => wedge_row(self.g, w, i, &mut s.row),
            Source::Walk(series) => series.row(i, s),
        }
    }

    /// The matrix finish for output rows `rows`, parallelised over
    /// `threads` workers. Bit-identical to the same rows of the whole
    /// matrix for any band height and thread count.
    pub fn band(&self, rows: Range<usize>, threads: Option<usize>) -> CsrRowBlock {
        assert!(rows.end <= self.rows(), "band out of bounds");
        let (start, len) = (rows.start, rows.len());
        let threads = resolve_threads(threads);
        let chunks = par_map_chunks(len, default_chunk_size(len, threads), threads, |r| {
            let mut s = self.scratch();
            let mut block = CsrRowBlock::default();
            for i in start + r.start..start + r.end {
                self.accumulate(i, &mut s);
                let before = block.indices.len();
                s.row.drain(true, |c, v| {
                    block.indices.push(c);
                    block.data.push(v);
                });
                block.row_nnz.push(block.indices.len() - before);
            }
            block
        });
        let mut band = CsrRowBlock::default();
        for c in chunks {
            band.append(c);
        }
        band
    }

    /// The edge finish: the raw weight of every canonical edge in
    /// `g.edges()` order, and the matrix's smallest positive entry, or
    /// 1.0 if it has none. Row `i`'s canonical edges are its neighbours
    /// `j > i` in neighbour order, their order in `g.edges()`; an
    /// untouched entry reads as `0.0`, as a failed matrix lookup does.
    /// Chunks concatenate in row order and `f64::min` over positives is
    /// exact and order-free, so any thread count gives the same bits.
    pub(crate) fn edge_weights(&self, threads: Option<usize>) -> (Vec<f64>, f64) {
        let (n, edges) = (self.rows(), self.g.edges());
        let threads = resolve_threads(threads);
        let first_edge = |i: usize| edges.partition_point(|&(u, _)| (u as usize) < i);
        let parts = par_map_chunks(n, default_chunk_size(n, threads), threads, |rows| {
            let mut s = self.scratch();
            let mut weights = Vec::with_capacity(first_edge(rows.end) - first_edge(rows.start));
            let mut min = f64::INFINITY;
            for i in rows {
                self.accumulate(i, &mut s);
                let nb = self.g.neighbors(i as NodeId);
                let above = nb.partition_point(|&j| j as usize <= i);
                weights.extend(nb[above..].iter().map(|&j| s.row.vals[j as usize]));
                // Every touched entry is positive (see `DenseRow::add`).
                s.row.drain(false, |_, v| min = min.min(v));
            }
            (weights, min)
        });
        let (parts, mins): (Vec<Vec<f64>>, Vec<f64>) = parts.into_iter().unzip();
        let min = mins.into_iter().fold(f64::INFINITY, f64::min);
        (parts.concat(), if min < f64::INFINITY { min } else { 1.0 })
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
    fn scratch_bytes_is_what_a_worker_holds() {
        // Capacities after every row has been accumulated and drained:
        // the scratch never grew past its up-front size.
        let g = bridged_triangles();
        for kind in [
            ProximityKind::CommonNeighbors,
            ProximityKind::DeepWalk { window: 3 },
        ] {
            let rows = RowBands::new(&g, kind).unwrap();
            let mut s = rows.scratch();
            for i in 0..rows.rows() {
                rows.accumulate(i, &mut s);
                s.row.drain(false, |_, _| {});
            }
            let held = |r: &DenseRow| r.vals.capacity() * 8 + r.cols.capacity() * 4;
            let bytes = held(&s.row) + held(&s.power) + s.prev.capacity() * 16;
            assert_eq!(bytes as u64, rows.scratch_bytes(), "{kind:?}");
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
