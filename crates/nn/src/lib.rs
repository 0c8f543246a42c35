//! # sp-nn
//!
//! A minimal neural-network substrate for the DPGGAN and DPGVAE
//! baseline stand-ins, which are small MLPs (GAP and ProGAP need no
//! trained layers). The substrate is deliberately compact: dense
//! layers with manual backprop, a few element-wise activations,
//! Adam/SGD, and the DP-SGD bookkeeping (per-example clipping + batch
//! noise) the two baselines share.
//!
//! What this is *not*: a general autograd. Every baseline's backward
//! pass is written out explicitly against these layers — matching how
//! the reference implementations hand-roll their training loops, and
//! keeping every gradient auditable (finite-difference tests cover
//! each layer against the MSE loss).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod linear;
pub mod loss;
pub mod mlp;

pub use activation::Activation;
pub use linear::Linear;
pub use mlp::Mlp;
