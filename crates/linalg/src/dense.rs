//! Row-major dense matrices.
//!
//! [`DenseMatrix`] backs the skip-gram embedding matrices `W_in` and
//! `W_out` (`|V| x r`) and the small MLP/GCN weights of the baseline
//! models. Rows are the unit of access everywhere in this workspace
//! (a node's embedding vector, a per-example gradient row), so the API
//! is row-oriented and row views are plain slices.

use crate::vector;
use rand::Rng;

/// A row-major dense `rows x cols` matrix of `f64`.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: buffer length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Matrix with every entry drawn i.i.d. uniformly from `[lo, hi)`.
    ///
    /// Skip-gram draws both `W_in` and `W_out` uniformly in
    /// `[-1/√r, 1/√r)`; the baselines use Xavier-style ranges. Both are
    /// expressed with this constructor.
    pub fn uniform<R: Rng + ?Sized>(
        rows: usize,
        cols: usize,
        lo: f64,
        hi: f64,
        rng: &mut R,
    ) -> Self {
        assert!(lo < hi, "uniform: empty range [{lo}, {hi})");
        let data = (0..rows * cols).map(|_| rng.gen_range(lo..hi)).collect();
        Self { rows, cols, data }
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

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows, "row {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows, "row {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Entry accessor (row, col).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Entry setter (row, col).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] = v;
    }

    /// The whole backing buffer, row-major.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the whole backing buffer, row-major.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Sets every entry to zero, keeping the allocation (the
    /// gradient-buffer reuse pattern: one workhorse matrix per trainer).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        vector::norm2(&self.data)
    }

    /// `self += alpha * other`, shape-checked.
    pub fn add_scaled(&mut self, alpha: f64, other: &DenseMatrix) {
        assert_eq!(self.shape(), other.shape(), "add_scaled: shape mismatch");
        vector::axpy(alpha, &other.data, &mut self.data);
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Dense matrix product `self * other` (used only on small MLP
    /// weights; embedding-scale code never forms dense products).
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul: inner dimensions differ ({} vs {})",
            self.cols, other.rows
        );
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        // ikj loop order: streams over `other` rows, cache-friendly for
        // row-major layouts.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = out.row_mut(i);
                vector::axpy(a, orow, out_row);
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Iterator over row slices.
    pub fn row_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Mean Euclidean norm of the rows (a cheap embedding-health
    /// diagnostic used by the trainer's logging hook).
    pub fn mean_row_norm(&self) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        self.row_iter().map(vector::norm2).sum::<f64>() / self.rows as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_shape_and_content() {
        let m = DenseMatrix::zeros(3, 2);
        assert_eq!(m.shape(), (3, 2));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_round_trip() {
        let m = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_rejects_bad_length() {
        DenseMatrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn uniform_respects_range_and_seed() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = DenseMatrix::uniform(10, 10, -0.5, 0.5, &mut rng);
        assert!(m.as_slice().iter().all(|&v| (-0.5..0.5).contains(&v)));
        let mut rng2 = StdRng::seed_from_u64(7);
        let m2 = DenseMatrix::uniform(10, 10, -0.5, 0.5, &mut rng2);
        assert_eq!(m, m2, "same seed must give identical matrices");
    }

    #[test]
    fn row_mut_updates_entries() {
        let mut m = DenseMatrix::zeros(2, 3);
        m.row_mut(1).copy_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(m.get(1, 2), 3.0);
        assert_eq!(m.row(0), &[0.0; 3]);
    }

    #[test]
    fn matmul_small_known_product() {
        let a = DenseMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = DenseMatrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let id = DenseMatrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&id), a);
        assert_eq!(id.matmul(&a), a);
    }

    #[test]
    fn transpose_round_trip() {
        let a = DenseMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn add_scaled_and_fill_zero() {
        let mut a = DenseMatrix::zeros(2, 2);
        let b = DenseMatrix::from_vec(2, 2, vec![1.0, 1.0, 1.0, 1.0]);
        a.add_scaled(2.0, &b);
        assert_eq!(a.as_slice(), &[2.0; 4]);
        a.fill_zero();
        assert_eq!(a.as_slice(), &[0.0; 4]);
    }

    #[test]
    fn frobenius_and_mean_row_norm() {
        let m = DenseMatrix::from_vec(2, 2, vec![3.0, 4.0, 0.0, 0.0]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
        assert!((m.mean_row_norm() - 2.5).abs() < 1e-12);
    }
}
