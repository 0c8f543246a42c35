//! # sp-skipgram
//!
//! The skip-gram-with-negative-sampling (SGNS) engine at the centre of
//! SE-PrivGEmb (§IV of the paper):
//!
//! - [`alias`]: O(1) discrete sampling (Walker alias method), used for
//!   the degree-proportional negative sampling of the prior-work
//!   comparison (Eq. 14/15);
//! - [`subgraph`]: Algorithm 1 — pre-computed disjoint subgraphs, one
//!   per edge, each holding the positive pair and `k` negatives;
//! - [`model`]: the two embedding matrices and the proximity-weighted
//!   SGNS loss/gradients (Eq. 5, 7, 8);
//! - [`perturb`]: the three gradient-perturbation strategies — none
//!   (non-private `SE-GEmb`), naive full-matrix noise with sensitivity
//!   `B·C` (Eq. 6, the first-cut solution §III-B), and the paper's
//!   non-zero-row noise with sensitivity `C` (Eq. 9);
//! - [`trainer`]: Algorithm 2 — mini-batch SGD with per-example joint
//!   clipping, strategy-dependent noise, and RDP budget tracking with
//!   early stop;
//! - [`theory`]: Theorem 3 — the closed-form optimal inner products
//!   `x_ij = log(p_ij / (k·min(P)))`, a direct optimiser of the
//!   deterministic objective (Eq. 13) to verify convergence, and the
//!   prior-work optimum (Eq. 15) for comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alias;
pub mod model;
pub mod perturb;
pub mod subgraph;
pub mod theory;
pub mod trainer;
pub mod walks;

pub use alias::AliasTable;
pub use model::SkipGramModel;
pub use perturb::PerturbStrategy;
pub use subgraph::{generate_subgraphs, NegativeSampling, Subgraph, SubgraphGen};
pub use trainer::{CheckpointSink, TrainConfig, TrainReport, Trainer, TrainerState};
