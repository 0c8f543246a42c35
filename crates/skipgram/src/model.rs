//! The skip-gram model: embedding matrices, proximity-weighted loss,
//! and per-example gradients.
//!
//! Following Fig. 1 of the paper, the model is two matrices: the input
//! (centre) embeddings `W_in ∈ R^{|V|×r}` and the output (context)
//! embeddings `W_out ∈ R^{|V|×r}`. For one subgraph
//! `S = {(v_i, v_j)} ∪ {(v_i, v_n)}_k` and proximity weight `p_ij`,
//! the objective (Eq. 5) is
//!
//! ```text
//! L_nov = -p_ij [ log σ(v_j·v_i) + Σ_n log σ(-v_n·v_i) ]
//! ```
//!
//! with gradients (Eq. 7, 8; `I[n]` = 1 for the positive, 0 otherwise)
//!
//! ```text
//! ∂L/∂v_i = p_ij Σ_n (σ(v_n·v_i) - I[n]) v_n      (one row of W_in)
//! ∂L/∂v_n = p_ij (σ(v_n·v_i) - I[n]) v_i          (k+1 rows of W_out)
//! ```
//!
//! The one-hot input layer is why only these rows are non-zero — the
//! observation behind the paper's non-zero perturbation mechanism.

use crate::subgraph::Subgraph;
use rand::Rng;
use sp_graph::NodeId;
use sp_linalg::{vector, DenseMatrix};

/// The two skip-gram embedding matrices.
#[derive(Clone, Debug)]
pub struct SkipGramModel {
    /// Centre embeddings (`W_in`); the published node vectors.
    pub w_in: DenseMatrix,
    /// Context embeddings (`W_out`).
    pub w_out: DenseMatrix,
}

impl SkipGramModel {
    /// Initialises both matrices uniformly in `[-1/√r, 1/√r)`, giving
    /// rows of expected norm `≈ 0.58` and inner products of order 1.
    ///
    /// word2vec's classic zero-`W_out` init relies on billions of
    /// updates to bootstrap; at the paper's scale (a few thousand
    /// batches) a zero `W_out` makes the `W_in` gradient — a weighted
    /// sum of `W_out` rows (Eq. 7) — vanish for many epochs. A
    /// symmetric `O(1/√r)` init puts gradients in a healthy range from
    /// step one while keeping initial inner products near zero in
    /// expectation.
    pub fn new<R: Rng + ?Sized>(num_nodes: usize, dim: usize, rng: &mut R) -> Self {
        assert!(dim >= 1, "embedding dimension must be >= 1");
        let half = 1.0 / (dim as f64).sqrt();
        Self {
            w_in: DenseMatrix::uniform(num_nodes, dim, -half, half, rng),
            w_out: DenseMatrix::uniform(num_nodes, dim, -half, half, rng),
        }
    }

    /// Embedding dimension `r`.
    pub fn dim(&self) -> usize {
        self.w_in.cols()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.w_in.rows()
    }

    /// Inner product `v_i · v_j` between a centre row of `W_in` and a
    /// context row of `W_out` — the `x_ij` of Theorem 3.
    #[inline]
    pub fn inner(&self, center: NodeId, context: NodeId) -> f64 {
        vector::dot(
            self.w_in.row(center as usize),
            self.w_out.row(context as usize),
        )
    }

    /// The proximity-weighted SGNS loss of one subgraph (Eq. 5).
    pub fn loss(&self, sg: &Subgraph, p: f64) -> f64 {
        let mut l = -p * vector::log_sigmoid(self.inner(sg.center, sg.positive));
        for &n in &sg.negatives {
            l -= p * vector::log_sigmoid(-self.inner(sg.center, n));
        }
        l
    }

    /// Computes the per-example gradient of Eq. 5 into `buf`.
    ///
    /// The `k+1` inner products are taken once, three rows to a pass
    /// ([`vector::dot_rows`]); the loss ([`GradBuffer::loss`]), the
    /// gradient and the clip all read them. Duplicate negative rows
    /// (and a negative equal to the positive under degree-proportional
    /// sampling) are accumulated into a single context row, so `buf`
    /// holds the *true* sparse gradient and the joint clip in the
    /// trainer bounds the true sensitivity.
    pub fn example_grad(&self, sg: &Subgraph, p: f64, buf: &mut GradBuffer) {
        let term = |t: usize| match t {
            0 => sg.positive,
            _ => sg.negatives[t - 1],
        };
        let terms = 1 + sg.negatives.len();
        let vi = self.w_in.row(sg.center as usize);
        buf.reset(sg.center, vi, p, terms);
        vector::dot_rows(vi, |t| self.w_out.row(term(t) as usize), &mut buf.inner);
        for t in 0..terms {
            let row = term(t);
            let s = vector::sigmoid(buf.inner[t]);
            // The positive pair has label 1, the negatives label 0.
            let err = if t == 0 { p * (s - 1.0) } else { p * s };
            vector::axpy(err, self.w_out.row(row as usize), &mut buf.grad_center);
            buf.add_term(row, err);
        }
    }
}

/// Reusable per-example gradient buffer: the `W_in` row of Eq. 7 and
/// the up to `k+1` unique `W_out` rows of Eq. 8. Each Eq. 8 row is a
/// multiple of `v_i`, so a row is kept as its coefficient and written
/// out only when it is added into the trainer's slabs. Allocation-free
/// across examples once the capacity is warm.
#[derive(Clone, Debug, Default)]
pub struct GradBuffer {
    /// The centre row index (into `W_in`).
    pub center: NodeId,
    /// `∂L/∂v_center` (Eq. 7), unclipped.
    pub grad_center: Vec<f64>,
    /// `v_i`: the centre row the gradient was taken at.
    v_center: Vec<f64>,
    /// The example's proximity weight `p_ij`.
    p: f64,
    /// Each term's inner product `v_t·v_i`: the positive's, then the
    /// negatives' in order.
    inner: Vec<f64>,
    /// Unique `W_out` rows touched, in first-appearance order.
    ctx_rows: Vec<NodeId>,
    /// Their unclipped gradients (Eq. 8), parallel to `ctx_rows`.
    ctx: Vec<CtxGrad>,
    /// `dim`-rows of the context rows that several terms share.
    merged: Vec<f64>,
    /// The clip factor: 1 until [`GradBuffer::clip`] scales.
    factor: f64,
}

/// One unique context row's unclipped gradient.
#[derive(Clone, Copy, Debug)]
enum CtxGrad {
    /// One term's row, `err · v_i`.
    Scaled(f64),
    /// A row several terms share: row `m` of `merged`, the sum
    /// `0 + e₁·v_i + e₂·v_i + …` an axpy per term writes.
    Merged(usize),
}

impl GradBuffer {
    /// Fresh empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, center: NodeId, vi: &[f64], p: f64, terms: usize) {
        self.center = center;
        self.grad_center.clear();
        self.grad_center.resize(vi.len(), 0.0);
        self.v_center.clear();
        self.v_center.extend_from_slice(vi);
        self.p = p;
        self.inner.resize(terms, 0.0);
        self.ctx_rows.clear();
        self.ctx.clear();
        self.merged.clear();
        self.factor = 1.0;
    }

    /// Adds one term's Eq. 8 gradient `err · v_i` to context row `row`:
    /// a new row keeps `err`; a repeated one is written out.
    fn add_term(&mut self, row: NodeId, err: f64) {
        // Linear scan over ≤ k+1 entries beats a hash map at k ≈ 5.
        let Some(u) = self.ctx_rows.iter().position(|&r| r == row) else {
            self.ctx_rows.push(row);
            self.ctx.push(CtxGrad::Scaled(err));
            return;
        };
        let dim = self.v_center.len();
        let m = match self.ctx[u] {
            CtxGrad::Merged(m) => m,
            CtxGrad::Scaled(first) => {
                let m = self.merged.len() / dim;
                self.merged.resize((m + 1) * dim, 0.0);
                vector::axpy(first, &self.v_center, &mut self.merged[m * dim..]);
                self.ctx[u] = CtxGrad::Merged(m);
                m
            }
        };
        vector::axpy(
            err,
            &self.v_center,
            &mut self.merged[m * dim..(m + 1) * dim],
        );
    }

    /// Row `u`'s unclipped gradient as `coef · source`.
    fn ctx_grad(&self, u: usize) -> (f64, &[f64]) {
        let dim = self.v_center.len();
        match self.ctx[u] {
            CtxGrad::Scaled(err) => (err, &self.v_center),
            CtxGrad::Merged(m) => (1.0, &self.merged[m * dim..(m + 1) * dim]),
        }
    }

    /// Touched `W_out` rows.
    pub fn ctx_rows(&self) -> &[NodeId] {
        &self.ctx_rows
    }

    /// The example's proximity-weighted loss (Eq. 5), from the inner
    /// products the gradient was taken with: bit for bit
    /// [`SkipGramModel::loss`] at that model.
    ///
    /// # Panics
    /// Panics if no example has been computed into the buffer.
    pub fn loss(&self) -> f64 {
        let (&pos, negs) = self
            .inner
            .split_first()
            .expect("loss of an example: call example_grad first");
        let p = self.p;
        let mut l = -p * vector::log_sigmoid(pos);
        for &x in negs {
            l -= p * vector::log_sigmoid(-x);
        }
        l
    }

    /// Squared joint ℓ2 norm of the unclipped gradient: the centre
    /// row's partial sum, then each context row's in
    /// [`GradBuffer::ctx_rows`] order, each as [`vector::norm2_sq`]
    /// sums the written-out row.
    fn norm_sq(&self) -> f64 {
        let mut sq = vector::norm2_sq(&self.grad_center);
        for u in 0..self.ctx.len() {
            let (coef, source) = self.ctx_grad(u);
            sq += vector::norm2_sq_scaled(coef, source);
        }
        sq
    }

    /// Joint ℓ2 norm of the whole per-example gradient, clipped.
    pub fn joint_norm(&self) -> f64 {
        self.factor * self.norm_sq().sqrt()
    }

    /// Clips the whole per-example gradient to joint norm `c`
    /// (DPSGD's `Clip`, applied to the multi-row gradient). Returns
    /// the scale factor, which the `add_*` methods apply.
    pub fn clip(&mut self, c: f64) -> f64 {
        assert!(c > 0.0, "clip threshold must be positive");
        let norm = self.norm_sq().sqrt();
        self.factor = if norm > c { c / norm } else { 1.0 };
        self.factor
    }

    /// Adds the clipped `∂L/∂v_center` to `out`.
    pub fn add_center(&self, out: &mut [f64]) {
        vector::axpy(self.factor, &self.grad_center, out);
    }

    /// Adds the clipped gradient of context row `u` (an index into
    /// [`GradBuffer::ctx_rows`]) to `out`. Each element is the
    /// written-out row's element times the clip factor, as if the row
    /// had been scaled in place and then added.
    pub fn add_ctx(&self, u: usize, out: &mut [f64]) {
        let (coef, source) = self.ctx_grad(u);
        let f = self.factor;
        debug_assert_eq!(out.len(), source.len(), "add_ctx: length mismatch");
        for (o, v) in out.iter_mut().zip(source) {
            *o += (coef * v) * f;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subgraph::Subgraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (SkipGramModel, Subgraph) {
        let mut rng = StdRng::seed_from_u64(11);
        let mut m = SkipGramModel::new(6, 4, &mut rng);
        // Give W_out non-zero content so gradients flow both ways.
        for i in 0..6 {
            for d in 0..4 {
                m.w_out.set(i, d, 0.1 * (i as f64 + 1.0) * (d as f64 - 1.5));
            }
        }
        let sg = Subgraph {
            center: 0,
            positive: 1,
            negatives: vec![2, 3, 2], // duplicate on purpose
            edge_index: 0,
        };
        (m, sg)
    }

    /// Context row `idx`'s gradient, clipped, written out.
    fn ctx_grad(buf: &GradBuffer, idx: usize) -> Vec<f64> {
        let mut out = vec![0.0; buf.grad_center.len()];
        buf.add_ctx(idx, &mut out);
        out
    }

    #[test]
    fn buffer_matches_the_written_out_gradient_bit_for_bit() {
        // dim 7: every dot and norm has a tail past its lane chunk. One
        // subgraph repeats a negative; the other repeats its positive
        // twice among the negatives, merging three terms into a row.
        let mut rng = StdRng::seed_from_u64(5);
        let m = SkipGramModel::new(6, 7, &mut rng);
        let sgs = [
            Subgraph {
                center: 0,
                positive: 1,
                negatives: vec![2, 3, 2, 4],
                edge_index: 0,
            },
            Subgraph {
                center: 5,
                positive: 1,
                negatives: vec![1, 3, 1],
                edge_index: 1,
            },
        ];
        let mut buf = GradBuffer::new();
        for sg in &sgs {
            for (p, c) in [(0.8, 100.0), (40.0, 0.05)] {
                m.example_grad(sg, p, &mut buf);
                assert_eq!(buf.loss().to_bits(), m.loss(sg, p).to_bits());
                // The reference: every context row materialised as an
                // axpy per term onto zeros, then the joint norm over the
                // centre row and those rows.
                let vi = m.w_in.row(sg.center as usize);
                let terms = std::iter::once((sg.positive, 1.0))
                    .chain(sg.negatives.iter().map(|&n| (n, 0.0)));
                let mut rows: Vec<(NodeId, Vec<f64>)> = Vec::new();
                for (row, label) in terms {
                    let err = p * (vector::sigmoid(m.inner(sg.center, row)) - label);
                    if !rows.iter().any(|(r, _)| *r == row) {
                        rows.push((row, vec![0.0; m.dim()]));
                    }
                    let (_, g) = rows.iter_mut().find(|(r, _)| *r == row).unwrap();
                    vector::axpy(err, vi, g);
                }
                let mut sq = vector::norm2_sq(&buf.grad_center);
                for (_, g) in &rows {
                    sq += vector::norm2_sq(g);
                }
                let norm = sq.sqrt();
                let f = if norm > c { c / norm } else { 1.0 };
                assert_eq!(buf.clip(c).to_bits(), f.to_bits(), "p={p}");
                assert_eq!(buf.ctx_rows().len(), rows.len());
                for (idx, (row, g)) in rows.iter().enumerate() {
                    assert_eq!(buf.ctx_rows()[idx], *row);
                    // Scaled in place only when clipped, then added.
                    let want: Vec<u64> = g
                        .iter()
                        .map(|&v| (0.0 + if f < 1.0 { v * f } else { v }).to_bits())
                        .collect();
                    let got: Vec<u64> = ctx_grad(&buf, idx).iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "row {row}, p={p}");
                }
            }
        }
    }

    #[test]
    fn init_is_symmetric_inv_sqrt_dim() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = SkipGramModel::new(10, 8, &mut rng);
        let half = 1.0 / 8.0f64.sqrt();
        for mat in [&m.w_in, &m.w_out] {
            assert!(mat.as_slice().iter().all(|&v| (-half..half).contains(&v)));
        }
        // Both matrices are random (no zero init) and distinct.
        assert_ne!(m.w_in.as_slice(), m.w_out.as_slice());
        // Expected row norm ≈ sqrt(r · (2h)²/12) = sqrt(1/3) ≈ 0.577.
        let mean_norm = m.w_in.mean_row_norm();
        assert!(
            (0.4..0.75).contains(&mean_norm),
            "mean row norm {mean_norm}"
        );
        assert_eq!(m.dim(), 8);
        assert_eq!(m.num_nodes(), 10);
    }

    #[test]
    fn loss_is_positive_and_weighted_linearly() {
        let (m, sg) = setup();
        let l1 = m.loss(&sg, 1.0);
        let l2 = m.loss(&sg, 2.0);
        assert!(l1 > 0.0);
        assert!((l2 - 2.0 * l1).abs() < 1e-12);
        assert_eq!(m.loss(&sg, 0.0), 0.0);
    }

    #[test]
    fn duplicate_negatives_merge_into_one_ctx_row() {
        let (m, sg) = setup();
        let mut buf = GradBuffer::new();
        m.example_grad(&sg, 1.0, &mut buf);
        // Unique rows: positive 1, negatives {2, 3}.
        let mut rows = buf.ctx_rows().to_vec();
        rows.sort_unstable();
        assert_eq!(rows, vec![1, 2, 3]);
    }

    #[test]
    fn gradient_matches_finite_differences_on_w_in() {
        let (mut m, sg) = setup();
        let p = 1.7;
        let mut buf = GradBuffer::new();
        m.example_grad(&sg, p, &mut buf);
        let h = 1e-6;
        for d in 0..m.dim() {
            let orig = m.w_in.get(0, d);
            m.w_in.set(0, d, orig + h);
            let lp = m.loss(&sg, p);
            m.w_in.set(0, d, orig - h);
            let lm = m.loss(&sg, p);
            m.w_in.set(0, d, orig);
            let fd = (lp - lm) / (2.0 * h);
            assert!(
                (fd - buf.grad_center[d]).abs() < 1e-6,
                "dim {d}: fd {fd} vs analytic {}",
                buf.grad_center[d]
            );
        }
    }

    #[test]
    fn gradient_matches_finite_differences_on_w_out() {
        let (mut m, sg) = setup();
        let p = 0.9;
        let mut buf = GradBuffer::new();
        m.example_grad(&sg, p, &mut buf);
        let h = 1e-6;
        for (idx, &row) in buf.ctx_rows().iter().enumerate() {
            for (d, &analytic) in ctx_grad(&buf, idx).iter().enumerate() {
                let orig = m.w_out.get(row as usize, d);
                m.w_out.set(row as usize, d, orig + h);
                let lp = m.loss(&sg, p);
                m.w_out.set(row as usize, d, orig - h);
                let lm = m.loss(&sg, p);
                m.w_out.set(row as usize, d, orig);
                let fd = (lp - lm) / (2.0 * h);
                assert!(
                    (fd - analytic).abs() < 1e-6,
                    "row {row} dim {d}: fd {fd} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn clip_bounds_joint_norm() {
        let (m, sg) = setup();
        let mut buf = GradBuffer::new();
        m.example_grad(&sg, 50.0, &mut buf); // big p -> big gradient
        let before = buf.joint_norm();
        assert!(before > 0.1);
        let f = buf.clip(0.1);
        assert!(f < 1.0);
        assert!((buf.joint_norm() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn clip_noop_when_under_threshold() {
        let (m, sg) = setup();
        let mut buf = GradBuffer::new();
        m.example_grad(&sg, 1e-3, &mut buf);
        assert_eq!(buf.clip(100.0), 1.0);
    }

    #[test]
    fn sgd_step_decreases_loss() {
        let (mut m, sg) = setup();
        let p = 1.0;
        let before = m.loss(&sg, p);
        let mut buf = GradBuffer::new();
        for _ in 0..20 {
            m.example_grad(&sg, p, &mut buf);
            vector::axpy(-0.1, &buf.grad_center, m.w_in.row_mut(buf.center as usize));
            for (idx, &row) in buf.ctx_rows().iter().enumerate() {
                vector::axpy(-0.1, &ctx_grad(&buf, idx), m.w_out.row_mut(row as usize));
            }
        }
        let after = m.loss(&sg, p);
        assert!(
            after < before,
            "20 SGD steps should reduce the loss ({before} -> {after})"
        );
    }

    #[test]
    fn buffer_reuse_is_clean_across_examples() {
        let (m, sg) = setup();
        let sg2 = Subgraph {
            center: 4,
            positive: 5,
            negatives: vec![0],
            edge_index: 1,
        };
        let mut buf = GradBuffer::new();
        m.example_grad(&sg, 1.0, &mut buf);
        m.example_grad(&sg2, 1.0, &mut buf);
        assert_eq!(buf.center, 4);
        let mut rows = buf.ctx_rows().to_vec();
        rows.sort_unstable();
        assert_eq!(rows, vec![0, 5]);
    }
}
