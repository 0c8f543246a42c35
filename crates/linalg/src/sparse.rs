//! Compressed sparse row (CSR) matrices.
//!
//! CSR backs two central objects of the paper: the graph adjacency
//! matrix `A` and the node-proximity matrix `P` (Definition 4). Both
//! are `|V| x |V|` and far too large to store densely beyond toy
//! graphs, but all the operations the system needs — row iteration
//! (neighbour lists, per-source proximity rows), SpMV (Katz / PageRank
//! power iterations), and SpGEMM (`A^2` for the DeepWalk window-2
//! proximity) — are natural in CSR.

use crate::dense::DenseMatrix;

/// One contiguous block of CSR rows — per-row non-zero counts plus the
/// concatenated column indices and values — produced by row-partitioned
/// kernels (the proximity row kernel's matrix finish) and stitched back
/// together with [`CsrMatrix::from_row_blocks`].
#[derive(Clone, Debug, Default)]
pub struct CsrRowBlock {
    /// Number of stored entries in each row of the block, in row order.
    pub row_nnz: Vec<usize>,
    /// Column indices, concatenated across the block's rows.
    pub indices: Vec<u32>,
    /// Values parallel to `indices`.
    pub data: Vec<f64>,
}

impl CsrRowBlock {
    /// Number of rows in the block.
    #[inline]
    pub fn rows(&self) -> usize {
        self.row_nnz.len()
    }

    /// Appends `other`'s rows after this block's rows, preserving row
    /// order — how a band assembled from per-thread chunks (or a
    /// matrix assembled from bands) grows without an intermediate
    /// `Vec<CsrRowBlock>`.
    pub fn append(&mut self, mut other: CsrRowBlock) {
        debug_assert_eq!(other.indices.len(), other.data.len());
        self.row_nnz.append(&mut other.row_nnz);
        self.indices.append(&mut other.indices);
        self.data.append(&mut other.data);
    }

    /// Heap bytes held by the block's three arrays — what an
    /// out-of-core builder accounts against its memory budget while
    /// the block is resident.
    pub fn heap_bytes(&self) -> u64 {
        (self.row_nnz.capacity() * std::mem::size_of::<usize>()
            + self.indices.capacity() * std::mem::size_of::<u32>()
            + self.data.capacity() * std::mem::size_of::<f64>()) as u64
    }
}

/// A CSR sparse matrix with `f64` values.
///
/// Invariants (checked by [`CsrMatrix::validate`] and maintained by all
/// constructors):
/// - `indptr.len() == rows + 1`, `indptr[0] == 0`, non-decreasing;
/// - `indices.len() == data.len() == indptr[rows]`;
/// - column indices within each row are strictly increasing and `< cols`.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    data: Vec<f64>,
}

/// Coordinate-format accumulator used to build a [`CsrMatrix`].
///
/// Duplicate `(row, col)` entries are summed at build time, matching
/// the semantics of scipy's `coo_matrix -> csr`.
#[derive(Clone, Debug, Default)]
pub struct CooBuilder {
    rows: usize,
    cols: usize,
    entries: Vec<(u32, u32, f64)>,
}

impl CooBuilder {
    /// New builder for a `rows x cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Queues `(i, j) += v`. Zero values are kept until `build`, where
    /// exact-zero sums are dropped.
    pub fn push(&mut self, i: usize, j: usize, v: f64) {
        assert!(
            i < self.rows && j < self.cols,
            "coo entry ({i},{j}) out of bounds"
        );
        self.entries.push((i as u32, j as u32, v));
    }

    /// Number of queued entries (before duplicate merging).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sorts, merges duplicates, drops exact zeros, and produces the CSR.
    pub fn build(mut self) -> CsrMatrix {
        self.entries.sort_unstable_by_key(|a| (a.0, a.1));
        let mut indptr = vec![0usize; self.rows + 1];
        let mut indices = Vec::with_capacity(self.entries.len());
        let mut data: Vec<f64> = Vec::with_capacity(self.entries.len());
        let mut iter = self.entries.into_iter().peekable();
        while let Some((r, c, mut v)) = iter.next() {
            while let Some(&(r2, c2, v2)) = iter.peek() {
                if r2 == r && c2 == c {
                    v += v2;
                    iter.next();
                } else {
                    break;
                }
            }
            if v != 0.0 {
                indptr[r as usize + 1] += 1;
                indices.push(c);
                data.push(v);
            }
        }
        for i in 0..self.rows {
            indptr[i + 1] += indptr[i];
        }
        let m = CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            indptr,
            indices,
            data,
        };
        debug_assert!(m.validate().is_ok());
        m
    }
}

impl CsrMatrix {
    /// Empty (all-zero) matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
            data: Vec::new(),
        }
    }

    /// Builds directly from raw CSR arrays.
    ///
    /// # Errors
    /// Returns a description of the first violated invariant.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        data: Vec<f64>,
    ) -> Result<Self, String> {
        let m = Self {
            rows,
            cols,
            indptr,
            indices,
            data,
        };
        m.validate()?;
        Ok(m)
    }

    /// Checks all structural invariants; `Ok(())` when well-formed.
    pub fn validate(&self) -> Result<(), String> {
        if self.indptr.len() != self.rows + 1 {
            return Err(format!(
                "indptr length {} != rows+1 = {}",
                self.indptr.len(),
                self.rows + 1
            ));
        }
        if self.indptr[0] != 0 {
            return Err("indptr[0] != 0".into());
        }
        if *self.indptr.last().unwrap() != self.indices.len() {
            return Err("indptr[rows] != nnz".into());
        }
        if self.indices.len() != self.data.len() {
            return Err("indices/data length mismatch".into());
        }
        for i in 0..self.rows {
            if self.indptr[i] > self.indptr[i + 1] {
                return Err(format!("indptr decreasing at row {i}"));
            }
            let row = &self.indices[self.indptr[i]..self.indptr[i + 1]];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("row {i}: column indices not strictly increasing"));
                }
            }
            if let Some(&last) = row.last() {
                if last as usize >= self.cols {
                    return Err(format!("row {i}: column {last} out of bounds"));
                }
            }
        }
        Ok(())
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (structurally non-zero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    /// Column indices of row `i`.
    #[inline]
    pub fn row_indices(&self, i: usize) -> &[u32] {
        &self.indices[self.indptr[i]..self.indptr[i + 1]]
    }

    /// Values of row `i` (parallel to [`Self::row_indices`]).
    #[inline]
    pub fn row_values(&self, i: usize) -> &[f64] {
        &self.data[self.indptr[i]..self.indptr[i + 1]]
    }

    /// Mutable values of row `i`.
    #[inline]
    pub fn row_values_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[self.indptr[i]..self.indptr[i + 1]]
    }

    /// `(indices, values)` of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        (self.row_indices(i), self.row_values(i))
    }

    /// Value at `(i, j)` via binary search over row `i` (`0.0` when absent).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let idx = self.row_indices(i);
        match idx.binary_search(&(j as u32)) {
            Ok(pos) => self.row_values(i)[pos],
            Err(_) => 0.0,
        }
    }

    /// Iterator over `(row, col, value)` triplets in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |i| {
            self.row_indices(i)
                .iter()
                .zip(self.row_values(i))
                .map(move |(&j, &v)| (i, j as usize, v))
        })
    }

    /// Sparse matrix–vector product `y = A x`.
    #[allow(clippy::needless_range_loop)] // index arithmetic is the point here
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "spmv: x length mismatch");
        let mut y = vec![0.0; self.rows];
        for i in 0..self.rows {
            let mut acc = 0.0;
            for (k, &j) in self.row_indices(i).iter().enumerate() {
                acc += self.row_values(i)[k] * x[j as usize];
            }
            y[i] = acc;
        }
        y
    }

    /// Transposed sparse matrix–vector product `y = A^T x`.
    pub fn spmv_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "spmv_t: x length mismatch");
        let mut y = vec![0.0; self.cols];
        for (i, &xi) in x.iter().enumerate().take(self.rows) {
            if xi == 0.0 {
                continue;
            }
            for (k, &j) in self.row_indices(i).iter().enumerate() {
                y[j as usize] += self.row_values(i)[k] * xi;
            }
        }
        y
    }

    /// Sparse–dense product `A * D` where `D` is `cols x r` dense;
    /// the GNN aggregation kernel (`Â H`).
    pub fn spmm_dense(&self, d: &DenseMatrix) -> DenseMatrix {
        assert_eq!(d.rows(), self.cols, "spmm_dense: shape mismatch");
        let mut out = DenseMatrix::zeros(self.rows, d.cols());
        for i in 0..self.rows {
            for (k, &j) in self.row_indices(i).iter().enumerate() {
                let v = self.row_values(i)[k];
                crate::vector::axpy(v, d.row(j as usize), out.row_mut(i));
            }
        }
        out
    }

    /// Sparse–sparse product `A * B` (classic Gustavson SpGEMM with a
    /// dense accumulator row): the reference the proximity row kernel's
    /// walk series is checked against.
    pub fn spgemm(&self, other: &CsrMatrix) -> CsrMatrix {
        assert_eq!(self.cols, other.rows, "spgemm: inner dimension mismatch");
        let mut indptr = Vec::with_capacity(self.rows + 1);
        indptr.push(0usize);
        let mut indices: Vec<u32> = Vec::new();
        let mut data: Vec<f64> = Vec::new();
        let mut acc = vec![0.0f64; other.cols];
        let mut touched: Vec<u32> = Vec::new();
        for i in 0..self.rows {
            for (k, &j) in self.row_indices(i).iter().enumerate() {
                let a = self.row_values(i)[k];
                let jr = j as usize;
                for (k2, &c) in other.row_indices(jr).iter().enumerate() {
                    let b = other.row_values(jr)[k2];
                    let cu = c as usize;
                    if acc[cu] == 0.0 {
                        touched.push(c);
                    }
                    acc[cu] += a * b;
                }
            }
            touched.sort_unstable();
            for &c in &touched {
                let v = acc[c as usize];
                if v != 0.0 {
                    indices.push(c);
                    data.push(v);
                }
                acc[c as usize] = 0.0;
            }
            touched.clear();
            indptr.push(indices.len());
        }
        CsrMatrix {
            rows: self.rows,
            cols: other.cols,
            indptr,
            indices,
            data,
        }
    }

    /// Assembles a CSR matrix from contiguous row blocks (in row
    /// order, jointly covering `0..rows`), as produced by any
    /// row-partitioned builder.
    ///
    /// # Panics
    /// Panics if the blocks' row counts do not sum to `rows` or a block
    /// is internally inconsistent.
    pub fn from_row_blocks(rows: usize, cols: usize, blocks: Vec<CsrRowBlock>) -> CsrMatrix {
        let total_rows: usize = blocks.iter().map(|b| b.row_nnz.len()).sum();
        assert_eq!(total_rows, rows, "row blocks must cover every row");
        let nnz: usize = blocks.iter().map(|b| b.indices.len()).sum();
        let mut indptr = Vec::with_capacity(rows + 1);
        indptr.push(0usize);
        let mut indices: Vec<u32> = Vec::with_capacity(nnz);
        let mut data: Vec<f64> = Vec::with_capacity(nnz);
        for block in blocks {
            assert_eq!(
                block.indices.len(),
                block.data.len(),
                "row block indices/data length mismatch"
            );
            assert_eq!(
                block.row_nnz.iter().sum::<usize>(),
                block.indices.len(),
                "row block nnz counts inconsistent"
            );
            let base = *indptr.last().unwrap();
            for &n in &block.row_nnz {
                indptr.push(indptr.last().unwrap() + n);
            }
            debug_assert_eq!(base + block.indices.len(), *indptr.last().unwrap());
            indices.extend(block.indices);
            data.extend(block.data);
        }
        let m = CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            data,
        };
        debug_assert!(m.validate().is_ok());
        m
    }

    /// Transposed copy (two-pass counting transpose).
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.cols + 1];
        for &j in &self.indices {
            counts[j as usize + 1] += 1;
        }
        for j in 0..self.cols {
            counts[j + 1] += counts[j];
        }
        let indptr = counts.clone();
        let mut cursor = counts;
        let mut indices = vec![0u32; self.nnz()];
        let mut data = vec![0.0f64; self.nnz()];
        for i in 0..self.rows {
            for (k, &j) in self.row_indices(i).iter().enumerate() {
                let pos = cursor[j as usize];
                indices[pos] = i as u32;
                data[pos] = self.row_values(i)[k];
                cursor[j as usize] += 1;
            }
        }
        let m = CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            indptr,
            indices,
            data,
        };
        debug_assert!(m.validate().is_ok());
        m
    }

    /// Scales every stored value in place.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Sum of the stored values of row `i`.
    pub fn row_sum(&self, i: usize) -> f64 {
        self.row_values(i).iter().sum()
    }

    /// Sum of every stored value.
    pub fn total_sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Minimum strictly-positive stored value, if any.
    ///
    /// This is exactly the paper's `min(P) = min{p_ij | p_ij > 0}`
    /// constant from Theorem 3.
    pub fn min_positive(&self) -> Option<f64> {
        self.data
            .iter()
            .copied()
            .filter(|&v| v > 0.0)
            .fold(None, |acc, v| match acc {
                None => Some(v),
                Some(m) => Some(m.min(v)),
            })
    }

    /// Row-normalises in place so that each non-empty row sums to 1
    /// (the random-walk transition matrix used by the DeepWalk
    /// proximity and personalised PageRank).
    pub fn normalize_rows(&mut self) {
        for i in 0..self.rows {
            let s = self.row_sum(i);
            if s != 0.0 {
                let inv = 1.0 / s;
                for v in self.row_values_mut(i) {
                    *v *= inv;
                }
            }
        }
    }

    /// Materialises as dense (test/debug helper; asserts smallness).
    pub fn to_dense(&self) -> DenseMatrix {
        assert!(
            self.rows * self.cols <= 16_000_000,
            "to_dense: refusing to densify a {}x{} matrix",
            self.rows,
            self.cols
        );
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for (i, j, v) in self.iter() {
            d.set(i, j, v);
        }
        d
    }

    /// Heap bytes held by the CSR arrays — the cost an out-of-core
    /// pipeline avoids by never materialising the matrix.
    pub fn heap_bytes(&self) -> u64 {
        (self.indptr.capacity() * std::mem::size_of::<usize>()
            + self.indices.capacity() * std::mem::size_of::<u32>()
            + self.data.capacity() * std::mem::size_of::<f64>()) as u64
    }

    /// True when the matrix equals its transpose (up to exact float
    /// equality; proximity matrices are built symmetrically).
    pub fn is_symmetric(&self) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let t = self.transpose();
        self == &t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::Range;

    fn sample() -> CsrMatrix {
        // [1 0 2]
        // [0 0 0]
        // [3 4 0]
        let mut b = CooBuilder::new(3, 3);
        b.push(0, 0, 1.0);
        b.push(0, 2, 2.0);
        b.push(2, 0, 3.0);
        b.push(2, 1, 4.0);
        b.build()
    }

    #[test]
    fn coo_build_sorts_and_merges() {
        let mut b = CooBuilder::new(2, 2);
        b.push(1, 1, 1.0);
        b.push(0, 0, 2.0);
        b.push(1, 1, 3.0);
        b.push(0, 1, 5.0);
        b.push(0, 1, -5.0); // cancels to zero -> dropped
        let m = b.build();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(1, 1), 4.0);
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(0, 1), 0.0);
        m.validate().unwrap();
    }

    #[test]
    fn get_and_rows() {
        let m = sample();
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 1), 0.0);
        assert_eq!(m.row_indices(2), &[0, 1]);
        assert_eq!(m.row_values(2), &[3.0, 4.0]);
        assert_eq!(m.nnz(), 4);
    }

    #[test]
    fn spmv_matches_dense() {
        let m = sample();
        let y = m.spmv(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![7.0, 0.0, 11.0]);
    }

    #[test]
    fn spmv_t_matches_transpose_spmv() {
        let m = sample();
        let x = [1.0, 2.0, 3.0];
        assert_eq!(m.spmv_t(&x), m.transpose().spmv(&x));
    }

    #[test]
    fn spgemm_against_dense_product() {
        let m = sample();
        let prod = m.spgemm(&m);
        let dense = m.to_dense().matmul(&m.to_dense());
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    (prod.get(i, j) - dense.get(i, j)).abs() < 1e-12,
                    "mismatch at ({i},{j})"
                );
            }
        }
        prod.validate().unwrap();
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn row_sums_total_and_min_positive() {
        let m = sample();
        let sums: Vec<f64> = (0..3).map(|i| m.row_sum(i)).collect();
        assert_eq!(sums, vec![3.0, 0.0, 7.0]);
        assert_eq!(m.total_sum(), 10.0);
        assert_eq!(m.min_positive(), Some(1.0));
        assert_eq!(CsrMatrix::zeros(2, 2).min_positive(), None);
    }

    #[test]
    fn normalize_rows_gives_stochastic_rows() {
        let mut m = sample();
        m.normalize_rows();
        assert!((m.row_sum(0) - 1.0).abs() < 1e-12);
        assert_eq!(m.row_sum(1), 0.0);
        assert!((m.row_sum(2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn symmetry_detection() {
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 1, 2.0);
        b.push(1, 0, 2.0);
        assert!(b.build().is_symmetric());
        assert!(!sample().is_symmetric());
    }

    #[test]
    fn spmm_dense_matches_manual() {
        let m = sample();
        let d = DenseMatrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let out = m.spmm_dense(&d);
        // Row 0 of m = [1,0,2] -> 1*[1,0] + 2*[1,1] = [3,2]
        assert_eq!(out.row(0), &[3.0, 2.0]);
        assert_eq!(out.row(1), &[0.0, 0.0]);
        // Row 2 = [3,4,0] -> 3*[1,0] + 4*[0,1] = [3,4]
        assert_eq!(out.row(2), &[3.0, 4.0]);
    }

    #[test]
    fn from_raw_validates() {
        assert!(CsrMatrix::from_raw(1, 2, vec![0, 1], vec![1], vec![5.0]).is_ok());
        // decreasing indptr
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]).is_err());
        // column out of bounds
        assert!(CsrMatrix::from_raw(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
        // unsorted columns
        assert!(CsrMatrix::from_raw(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]).is_err());
    }

    /// `m`'s rows in `rows`, cut out as a row block.
    fn row_block(m: &CsrMatrix, rows: Range<usize>) -> CsrRowBlock {
        let span = m.indptr[rows.start]..m.indptr[rows.end];
        CsrRowBlock {
            row_nnz: rows.map(|i| m.indptr[i + 1] - m.indptr[i]).collect(),
            indices: m.indices[span.clone()].to_vec(),
            data: m.data[span].to_vec(),
        }
    }

    #[test]
    fn row_block_append_matches_two_block_assembly() {
        let m = sample();
        let top = row_block(&m, 0..2);
        let bottom = row_block(&m, 2..3);
        let via_vec = CsrMatrix::from_row_blocks(3, 3, vec![top.clone(), bottom.clone()]);
        let mut merged = top;
        assert_eq!(merged.rows(), 2);
        merged.append(bottom);
        assert_eq!(merged.rows(), 3);
        assert!(merged.heap_bytes() > 0);
        let via_append = CsrMatrix::from_row_blocks(3, 3, vec![merged]);
        assert_eq!(via_vec, via_append);
        assert_eq!(via_vec, m);
    }

    #[test]
    fn heap_bytes_counts_all_arrays() {
        let m = sample();
        let expect = (m.indptr.capacity() * std::mem::size_of::<usize>()
            + m.indices.capacity() * std::mem::size_of::<u32>()
            + m.data.capacity() * std::mem::size_of::<f64>()) as u64;
        assert_eq!(m.heap_bytes(), expect);
        assert!(m.heap_bytes() >= (m.nnz() * 12) as u64);
    }

    #[test]
    fn iter_yields_row_major_triplets() {
        let m = sample();
        let tr: Vec<_> = m.iter().collect();
        assert_eq!(tr, vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)]);
    }
}
