//! The in-memory embedding store and the exact query oracle.

use sp_linalg::DenseMatrix;
use sp_model::{F32Matrix, ModelError, ModelFile, ModelPayload, Provenance};
use sp_skipgram::SkipGramModel;
use std::cmp::Ordering;
use std::fmt;
use std::path::Path;

/// Typed rejection of an invalid query. The serving front-end maps
/// these to protocol errors; nothing on the query path panics on bad
/// client input. In particular a wrong-dimension query vector is
/// rejected here, at the public [`EmbeddingStore`] boundary — the
/// internal fixed-order `dot` would otherwise silently zip-truncate in
/// release builds and return plausible-but-wrong scores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The query vector's length differs from the store dimension.
    DimensionMismatch {
        /// The store's embedding dimension.
        expected: usize,
        /// The query vector's length.
        found: usize,
    },
    /// A node id at or beyond the store's node count.
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// Number of nodes the store serves.
        nodes: usize,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::DimensionMismatch { expected, found } => {
                write!(
                    f,
                    "query dimension {found} does not match model dimension {expected}"
                )
            }
            QueryError::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node} out of range (model has {nodes} nodes)")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// One ranked answer: a node and its (inner-product) score.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    /// Dense node id (row index of the published matrix).
    pub node: u32,
    /// Inner-product score against the query vector.
    pub score: f32,
}

impl Neighbor {
    /// The total ranking order: score descending ([`f32::total_cmp`],
    /// so NaN scores sort deterministically too), node id ascending on
    /// ties. Every ranked result in this crate uses this order.
    pub fn rank_cmp(&self, other: &Neighbor) -> Ordering {
        other
            .score
            .total_cmp(&self.score)
            .then_with(|| self.node.cmp(&other.node))
    }
}

/// Bounded accumulator keeping the best `k` neighbours under
/// [`Neighbor::rank_cmp`]. Insertion keeps the buffer sorted, so the
/// scan order of candidates never changes the result — only the set of
/// candidates does.
#[derive(Clone, Debug)]
pub(crate) struct TopK {
    k: usize,
    items: Vec<Neighbor>,
}

impl TopK {
    pub(crate) fn new(k: usize) -> Self {
        Self {
            k,
            items: Vec::with_capacity(k + 1),
        }
    }

    pub(crate) fn push(&mut self, cand: Neighbor) {
        if self.k == 0 {
            return;
        }
        if self.items.len() == self.k {
            // Full: reject anything not better than the current worst.
            if cand.rank_cmp(self.items.last().expect("non-empty")) != Ordering::Less {
                return;
            }
            self.items.pop();
        }
        let at = self
            .items
            .partition_point(|n| n.rank_cmp(&cand) == Ordering::Less);
        self.items.insert(at, cand);
    }

    pub(crate) fn into_sorted(self) -> Vec<Neighbor> {
        self.items
    }
}

/// Numerically plain f32 logistic; the serve path never touches f64.
#[inline]
pub(crate) fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// f32 dot product with a fixed canonical accumulation order (part of
/// the bit-for-bit query reproducibility contract). Delegates to the
/// lane-structured [`sp_linalg::vector::dot_f32`] kernel: every score
/// in this crate — exact oracle, IVF rerank, TCP front-end — routes
/// through this one function, so all paths see the identical order.
#[inline]
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    sp_linalg::vector::dot_f32(a, b)
}

/// The published embedding matrices, resident in memory, plus their
/// provenance. This is the object a serving process holds per model
/// generation.
#[derive(Clone, Debug)]
pub struct EmbeddingStore {
    vectors: F32Matrix,
    context: Option<F32Matrix>,
    provenance: Provenance,
}

impl EmbeddingStore {
    /// Wraps a parsed model file.
    pub fn from_model_file(file: ModelFile) -> Self {
        let provenance = file.provenance;
        let (vectors, context) = match file.payload {
            ModelPayload::Dense(m) => (m, None),
            ModelPayload::SkipGram { w_in, w_out } => (w_in, Some(w_out)),
        };
        Self {
            vectors,
            context,
            provenance,
        }
    }

    /// Bulk-reads a published `.spm` file. (The format is mmap-ready —
    /// 64-byte-aligned payload — but the workspace forbids `unsafe`,
    /// so the std-only reader copies once instead of mapping.)
    pub fn open(path: &Path) -> Result<Self, ModelError> {
        Ok(Self::from_model_file(ModelFile::read(path)?))
    }

    /// Builds a store from a just-trained model **through the same f32
    /// rounding the on-disk writer applies**, which is what makes
    /// `train → save → load → query` bit-identical to
    /// `train → query` (pinned by `tests/serve_roundtrip.rs`).
    pub fn from_skipgram(model: &SkipGramModel, provenance: Provenance) -> Self {
        Self::from_model_file(ModelFile::from_skipgram(model, provenance))
    }

    /// Builds a vectors-only store from an `f64` embedding matrix (same
    /// rounding guarantee as [`EmbeddingStore::from_skipgram`]).
    pub fn from_dense(m: &DenseMatrix, provenance: Provenance) -> Self {
        Self::from_model_file(ModelFile::from_dense(m, provenance))
    }

    /// Builds a vectors-only store directly from f32 rows.
    pub fn from_f32(m: F32Matrix, provenance: Provenance) -> Self {
        Self {
            vectors: m,
            context: None,
            provenance,
        }
    }

    /// Number of served nodes.
    pub fn num_nodes(&self) -> usize {
        self.vectors.rows()
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.vectors.cols()
    }

    /// Provenance recorded at publication.
    pub fn provenance(&self) -> Provenance {
        self.provenance
    }

    /// The published vector of one node.
    #[inline]
    pub fn embedding(&self, node: u32) -> &[f32] {
        self.vectors.row(node as usize)
    }

    /// The full published matrix.
    pub fn vectors(&self) -> &F32Matrix {
        &self.vectors
    }

    /// Validates a query vector's length against the store dimension.
    #[inline]
    pub fn check_dim(&self, query: &[f32]) -> Result<(), QueryError> {
        if query.len() == self.dim() {
            Ok(())
        } else {
            Err(QueryError::DimensionMismatch {
                expected: self.dim(),
                found: query.len(),
            })
        }
    }

    /// Validates a node id against the store's node count.
    #[inline]
    pub fn check_node(&self, node: u32) -> Result<(), QueryError> {
        if (node as usize) < self.num_nodes() {
            Ok(())
        } else {
            Err(QueryError::NodeOutOfRange {
                node,
                nodes: self.num_nodes(),
            })
        }
    }

    /// Link-probability score `σ(W_in[u] · W_out[v])` — the model's
    /// edge likelihood (Eq. 5's positive term). Falls back to the
    /// symmetric `σ(W_in[u] · W_in[v])` when the published file carried
    /// only the node vectors.
    ///
    /// # Panics
    /// Panics if either node is out of range; servers use
    /// [`EmbeddingStore::try_link_score`].
    pub fn link_score(&self, u: u32, v: u32) -> f32 {
        self.try_link_score(u, v).expect("node out of range")
    }

    /// [`EmbeddingStore::link_score`] with typed validation instead of
    /// a panic.
    pub fn try_link_score(&self, u: u32, v: u32) -> Result<f32, QueryError> {
        self.check_node(u)?;
        self.check_node(v)?;
        let ctx_row = match &self.context {
            Some(ctx) => ctx.row(v as usize),
            None => self.vectors.row(v as usize),
        };
        Ok(sigmoid(dot(self.embedding(u), ctx_row)))
    }

    /// Brute-force top-k by inner product of `query` over every node;
    /// a query of the wrong length is a typed error, not a truncated
    /// scan.
    pub fn try_exact_top_k(&self, query: &[f32], k: usize) -> Result<Vec<Neighbor>, QueryError> {
        self.check_dim(query)?;
        let mut top = TopK::new(k);
        for node in 0..self.num_nodes() as u32 {
            top.push(Neighbor {
                node,
                score: dot(query, self.vectors.row(node as usize)),
            });
        }
        Ok(top.into_sorted())
    }

    /// Exact top-k neighbours of a stored node (the node itself is
    /// excluded from its own answer).
    ///
    /// # Panics
    /// Panics if `node` is out of range; servers use
    /// [`EmbeddingStore::try_exact_top_k_node`].
    pub fn exact_top_k_node(&self, node: u32, k: usize) -> Vec<Neighbor> {
        self.try_exact_top_k_node(node, k)
            .expect("node out of range")
    }

    /// [`EmbeddingStore::exact_top_k_node`] with typed validation
    /// instead of a panic: the brute-force scan over the node's own
    /// row for `k + 1`, the node dropped, the answer cut to `k` — the
    /// shape of [`crate::IvfIndex::top_k_node`].
    pub fn try_exact_top_k_node(&self, node: u32, k: usize) -> Result<Vec<Neighbor>, QueryError> {
        self.check_node(node)?;
        let mut out = self.try_exact_top_k(self.embedding(node), k + 1)?;
        out.retain(|n| n.node != node);
        out.truncate(k);
        Ok(out)
    }
}

/// Fraction of the oracle's ids the approximate answer recovered —
/// `|approx ∩ exact| / |exact|` (1.0 when the oracle returns nothing).
pub fn recall_at_k(approx: &[Neighbor], exact: &[Neighbor]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    let hit = exact
        .iter()
        .filter(|e| approx.iter().any(|a| a.node == e.node))
        .count();
    hit as f64 / exact.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_store() -> EmbeddingStore {
        // 4 nodes in 2-d with hand-checkable inner products.
        let m = F32Matrix::from_vec(4, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0, -1.0, 0.0]);
        EmbeddingStore::from_f32(m, Provenance::non_private(1))
    }

    #[test]
    fn exact_top_k_orders_by_score_then_id() {
        let s = tiny_store();
        let got = s.try_exact_top_k(&[1.0, 0.0], 4).unwrap();
        // Scores: n0=1, n1=0, n2=1, n3=-1 -> 0 before 2 on the tie.
        let ids: Vec<u32> = got.iter().map(|n| n.node).collect();
        assert_eq!(ids, vec![0, 2, 1, 3]);
        assert_eq!(got[0].score, 1.0);
        assert_eq!(got[3].score, -1.0);
    }

    #[test]
    fn top_k_truncates_and_k_zero_is_empty() {
        let s = tiny_store();
        assert_eq!(s.try_exact_top_k(&[1.0, 0.0], 2).unwrap().len(), 2);
        assert!(s.try_exact_top_k(&[1.0, 0.0], 0).unwrap().is_empty());
        // k beyond n returns everything, still ordered.
        assert_eq!(s.try_exact_top_k(&[1.0, 0.0], 99).unwrap().len(), 4);
    }

    #[test]
    fn node_query_excludes_self() {
        let s = tiny_store();
        let got = s.exact_top_k_node(2, 4);
        assert!(got.iter().all(|n| n.node != 2));
        assert_eq!(got.len(), 3);
        // Node 2 = (1,1): best other node by inner product is 0 or 1
        // (both score 1) -> 0 wins the tie.
        assert_eq!(got[0].node, 0);
    }

    #[test]
    fn node_query_matches_a_sorted_reference() {
        // Reference: score every other node, sort by the ranking order,
        // cut to k. Covers ties, ±0, ±∞ and NaN scores, and k of 0, 1,
        // n − 1 and beyond n.
        let inf = f32::INFINITY;
        let rows = [
            [1.0, 0.0],
            [0.0, 1.0],
            [1.0, 1.0],
            [1.0, 1.0],
            [-0.0, 0.0],
            [inf, 0.0],
            [-inf, 1.0],
            [f32::NAN, 0.0],
            [0.0, -inf],
        ];
        let special = F32Matrix::from_vec(rows.len(), 2, rows.concat());
        let clustered = crate::synthetic::clustered_embedding(60, 16, 4, 0xC1);
        for m in [special, clustered] {
            let s = EmbeddingStore::from_f32(m, Provenance::non_private(0));
            let n = s.num_nodes();
            for node in 0..n as u32 {
                for k in [0, 1, 5, n - 1, n + 3] {
                    let mut reference: Vec<Neighbor> = (0..n as u32)
                        .filter(|&c| c != node)
                        .map(|c| Neighbor {
                            node: c,
                            score: dot(s.embedding(node), s.embedding(c)),
                        })
                        .collect();
                    reference.sort_by(Neighbor::rank_cmp);
                    reference.truncate(k);
                    let bits = |v: &[Neighbor]| -> Vec<(u32, u32)> {
                        v.iter().map(|x| (x.node, x.score.to_bits())).collect()
                    };
                    assert_eq!(
                        bits(&s.exact_top_k_node(node, k)),
                        bits(&reference),
                        "node {node}, k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn link_score_uses_context_when_present() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = SkipGramModel::new(5, 4, &mut rng);
        let s = EmbeddingStore::from_skipgram(&model, Provenance::non_private(3));
        let expected = {
            let a: Vec<f32> = model.w_in.row(1).iter().map(|&v| v as f32).collect();
            let b: Vec<f32> = model.w_out.row(2).iter().map(|&v| v as f32).collect();
            sigmoid(dot(&a, &b))
        };
        assert_eq!(s.link_score(1, 2).to_bits(), expected.to_bits());
        // Vectors-only store: symmetric fallback.
        let sv = EmbeddingStore::from_dense(&model.w_in, Provenance::non_private(3));
        assert_eq!(sv.link_score(1, 2).to_bits(), sv.link_score(2, 1).to_bits());
    }

    #[test]
    fn recall_helper_counts_overlap() {
        let exact = vec![
            Neighbor {
                node: 1,
                score: 3.0,
            },
            Neighbor {
                node: 2,
                score: 2.0,
            },
            Neighbor {
                node: 3,
                score: 1.0,
            },
            Neighbor {
                node: 4,
                score: 0.5,
            },
        ];
        let approx = vec![
            Neighbor {
                node: 2,
                score: 2.0,
            },
            Neighbor {
                node: 9,
                score: 1.5,
            },
            Neighbor {
                node: 3,
                score: 1.0,
            },
            Neighbor {
                node: 8,
                score: 0.1,
            },
        ];
        assert_eq!(recall_at_k(&approx, &exact), 0.5);
        assert_eq!(recall_at_k(&approx, &[]), 1.0);
    }

    #[test]
    fn wrong_dimension_query_is_rejected_not_truncated() {
        // Regression: `dot` only debug_asserts lengths, so in release a
        // short query used to zip-truncate and come back with plausible
        // scores. The public boundary must reject it typed.
        let s = tiny_store();
        let err = s.try_exact_top_k(&[1.0], 4).unwrap_err();
        assert_eq!(
            err,
            QueryError::DimensionMismatch {
                expected: 2,
                found: 1
            }
        );
        let err = s.try_exact_top_k(&[1.0, 0.0, 3.0], 4).unwrap_err();
        assert!(matches!(
            err,
            QueryError::DimensionMismatch { found: 3, .. }
        ));
        assert!(err.to_string().contains("dimension"));
    }

    #[test]
    fn out_of_range_node_is_rejected_typed() {
        let s = tiny_store();
        assert_eq!(
            s.try_exact_top_k_node(4, 2).unwrap_err(),
            QueryError::NodeOutOfRange { node: 4, nodes: 4 }
        );
        assert!(s.try_link_score(0, 99).is_err());
        assert!(s.try_link_score(99, 0).is_err());
        assert_eq!(
            s.try_link_score(0, 1).unwrap().to_bits(),
            s.link_score(0, 1).to_bits()
        );
    }

    #[test]
    fn nan_scores_rank_deterministically() {
        let m = F32Matrix::from_vec(3, 1, vec![f32::NAN, 1.0, 2.0]);
        let s = EmbeddingStore::from_f32(m, Provenance::non_private(0));
        let a = s.try_exact_top_k(&[1.0], 3).unwrap();
        let b = s.try_exact_top_k(&[1.0], 3).unwrap();
        assert_eq!(
            a.iter()
                .map(|n| (n.node, n.score.to_bits()))
                .collect::<Vec<_>>(),
            b.iter()
                .map(|n| (n.node, n.score.to_bits()))
                .collect::<Vec<_>>(),
        );
        // total_cmp puts +NaN above +inf: the NaN row ranks first, and
        // the real scores keep their relative order after it.
        assert_eq!(a[0].node, 0);
        assert_eq!(a[1].node, 2);
        assert_eq!(a[2].node, 1);
    }
}
