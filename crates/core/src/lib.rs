//! # se-privgemb
//!
//! **SE-PrivGEmb**: Structure-Preference Enabled Graph Embedding
//! Generation under Differential Privacy — a Rust implementation of
//! Zhang, Ye & Hu (ICDE 2025).
//!
//! SE-PrivGEmb learns low-dimensional node vectors with three
//! guarantees:
//!
//! 1. **Rényi DP over the training examples**: the published embedding
//!    matrices are the output of noisy SGD over skip-gram subgraphs,
//!    accounted with the subsampled-Gaussian RDP bound (Theorem 4, at
//!    `γ = B/|E|`) and converted to `(ε, δ)`-DP. The neighbouring
//!    relation is *replace one element of `G_S`* — one edge's subgraph
//!    with its pre-drawn negatives and proximity weight — with `|E|` and
//!    every other element fixed. The paper claims node-level DP; the
//!    accountant does not cover removing an edge or a node from the
//!    input graph (see [`sp_dp::accountant`]);
//! 2. **Noise tolerance**: only gradient rows actually touched by a
//!    batch are perturbed (sensitivity `C` instead of the naive
//!    `B·C`), which is what keeps utility alive at single-digit ε;
//! 3. **Structure preference**: the skip-gram objective is weighted by
//!    an arbitrary node proximity `p_ij`, and with Algorithm 1's
//!    negative sampling the optimal inner products are provably
//!    `log(p_ij / (k·min(P)))` (Theorem 3) — pick the proximity that
//!    matches your mining objective and the embedding preserves it.
//!
//! ## Quickstart
//!
//! ```
//! use se_privgemb::{SePrivGEmb, ProximityKind};
//! use sp_graph::Graph;
//!
//! // A toy graph: two triangles joined by a bridge.
//! let g = Graph::from_edges(6, [(0, 1), (1, 2), (0, 2),
//!                               (3, 4), (4, 5), (3, 5), (2, 3)]);
//!
//! let result = SePrivGEmb::builder()
//!     .dim(16)
//!     .proximity(ProximityKind::deepwalk_default())
//!     .epsilon(3.5)
//!     .epochs(20)
//!     .seed(7)
//!     .build()
//!     .fit(&g);
//!
//! assert_eq!(result.embeddings().rows(), 6);
//! assert!(result.report.epsilon_spent <= 3.5);
//! ```
//!
//! The heavy lifting lives in the substrate crates, re-exported here:
//! [`sp_skipgram`] (model/trainer), [`sp_proximity`] (preferences),
//! [`sp_dp`] (noise + accounting), [`sp_eval`] (StrucEqu, link
//! prediction), [`sp_graph`] (graph type).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pipeline;
pub mod presets;

pub use pipeline::{CheckpointedEmbedding, EmbeddingResult, SePrivGEmb, SePrivGEmbBuilder};
pub use sp_proximity::ProximityKind;
pub use sp_skipgram::{NegativeSampling, PerturbStrategy, TrainConfig, TrainReport};

// Substrate re-exports, so `se-privgemb` is a one-stop dependency.
pub use sp_dp as dp;
pub use sp_eval as eval;
pub use sp_graph as graph;
pub use sp_linalg as linalg;
pub use sp_proximity as proximity;
pub use sp_skipgram as skipgram;
