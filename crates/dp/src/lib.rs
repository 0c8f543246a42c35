//! # sp-dp
//!
//! Differential-privacy substrate for SE-PrivGEmb.
//!
//! Implements the full privacy stack of the paper's §II-B/§II-C/§V:
//!
//! - [`noise`]: a 256-layer ziggurat standard-normal sampler, the
//!   Gaussian mechanism that perturbs slices/rows, and counter-keyed
//!   noise rows ([`NoiseKeys`]);
//! - [`rdp`]: Rényi-DP curves of the Gaussian mechanism and of the
//!   *subsampled* Gaussian mechanism under sampling **without
//!   replacement** (Wang, Balle, Kasiviswanathan 2019 — the paper's
//!   Theorem 4), evaluated entirely in log space;
//! - [`accountant`]: per-order RDP composition over training epochs,
//!   RDP→(ε, δ) conversion (the paper's Theorem 1), and the budgeted
//!   accountant implementing Algorithm 2's stop condition
//!   (`δ̂ ≥ δ` ⇒ stop).
//!
//! All randomness flows through caller-provided `rand::Rng` values so
//! experiments are reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accountant;
pub mod noise;
pub mod rdp;

pub use accountant::{
    calibrate_noise_multiplier, BudgetedAccountant, PrivacyBudget, RdpAccountant,
    DEFAULT_ORDERS_MAX,
};
pub use noise::{GaussianSampler, NoiseKeys};
pub use rdp::{gaussian_rdp, subsampled_gaussian_rdp};
