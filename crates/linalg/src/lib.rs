//! # sp-linalg
//!
//! Dense and sparse linear-algebra kernels used throughout the
//! SE-PrivGEmb workspace.
//!
//! The paper's data shapes are small-but-hot: embedding matrices are
//! `|V| x r` dense row-major buffers (at most a few tens of MB), and
//! proximity matrices are `|V| x |V|` but sparse. Everything here is
//! `f64`: the differential-privacy accounting and the Gaussian noise
//! path benefit from the extra precision, and at these sizes the memory
//! cost is irrelevant.
//!
//! Modules:
//! - [`vector`]: flat `&[f64]` kernels (dot, axpy, norms) used in the
//!   innermost skip-gram loops;
//! - [`dense`]: row-major [`dense::DenseMatrix`] with row views, the
//!   embedding-matrix workhorse;
//! - [`sparse`]: [`sparse::CsrMatrix`] with SpMV/SpGEMM, used for
//!   adjacency and proximity matrices;
//! - [`stats`]: scalar statistics (Pearson, Welford, log-space helpers)
//!   shared by the evaluation metrics and the RDP accountant.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod sparse;
pub mod stats;
pub mod vector;

pub use dense::DenseMatrix;
pub use sparse::{CooBuilder, CsrMatrix, CsrRowBlock};
pub use stats::{log_binomial, logsumexp, pearson, RunningStats};
