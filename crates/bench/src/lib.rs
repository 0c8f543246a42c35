//! # sp-bench
//!
//! The experiment harness reproducing every table and figure of the
//! paper's evaluation (§VI). Each `table*`/`fig*` binary regenerates
//! one artefact; `run_all` regenerates everything; results are printed
//! as paper-style rows and mirrored as TSV under
//! `crates/bench/results/`.
//!
//! Two modes (see [`harness::BenchMode`]):
//! - **quick** (default): scaled-down dataset stand-ins and fewer
//!   repetitions, sized so the whole suite finishes in minutes on a
//!   2-core machine;
//! - **full** (`--full` or `SP_BENCH_FULL=1`): the paper's published
//!   dataset sizes, epochs, and 10 repetitions.
//!
//! Two more bins are CI regression gates: `sp_kernel_bench` times the
//! training and serving kernels against references timed in the same
//! run and gates the ratios ([`kernels`]), and `sp_scale_bench`
//! byte-accounts the out-of-core proximity → Alg. 1 → Alg. 2 pipeline.
//! Each writes one `metric unit value gate` TSV and compares it with its
//! committed baseline through [`gate`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod gate;
pub mod harness;
pub mod kernels;
pub mod methods;
pub mod scale;
