//! # sp-baselines
//!
//! Rust stand-ins for the four private graph-learning baselines the
//! paper compares against (§VI-A), all exposing the same
//! [`Embedder`] interface so the experiment harness treats every
//! method uniformly:
//!
//! - [`dpggan`]: **DPGGAN** (Yang et al., IJCAI'21) — an adversarially
//!   regularised graph autoencoder trained with DP-SGD and a moments-
//!   style accountant; converges prematurely at small ε, as the paper
//!   observes;
//! - [`dpgvae`]: **DPGVAE** (same work) — the variational variant:
//!   per-node Gaussian posteriors, reparameterised samples, KL to the
//!   prior, inner-product decoder, DP-SGD;
//! - [`gap`]: **GAP** (Sajadmanesh et al., USENIX Sec'23) —
//!   aggregation perturbation: Gaussian noise injected into every hop
//!   of multi-hop neighbourhood aggregation, re-perturbed each
//!   training epoch (the compatibility issue the paper describes),
//!   with a non-private post-processing head;
//! - [`progap`]: **ProGAP** (Sajadmanesh & Gatica-Perez, WSDM'24) —
//!   the progressive variant: each stage's noisy aggregate is computed
//!   once and cached, so the budget divides over `L` mechanisms
//!   instead of `L × epochs`, buying slightly better utility than GAP.
//!
//! These are faithful *small-scale* reimplementations, not ports of
//! the official TensorFlow/PyTorch code: the mechanism type, noise
//! calibration (same RDP accountant as SE-PrivGEmb), model family,
//! and embedding dimension match; absolute utilities differ (each
//! module's docs state what it substitutes). Graphs carry no node features in
//! the paper's setting, so — "similar to prior research \[32\]" — GAP
//! and ProGAP receive randomly generated features.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod dpggan;
pub mod dpgvae;
pub mod gap;
pub mod progap;

pub use common::{BaselineConfig, EmbedReport, Embedder};
pub use dpggan::DpgGan;
pub use dpgvae::DpgVae;
pub use gap::Gap;
pub use progap::ProGap;
