//! # sp-datasets
//!
//! Synthetic graph generators and seeded stand-ins for the paper's six
//! evaluation datasets.
//!
//! The real datasets (Chameleon, PPI, Power, Arxiv, BlogCatalog, DBLP)
//! are external downloads; this crate both generates stand-ins with
//! the *same node and edge counts* and matching topology family, and
//! ingests the real files when they are on disk — every downstream
//! API takes a plain [`sp_graph::Graph`].
//!
//! - [`generators`]: Erdős–Rényi, Barabási–Albert, Holme–Kim
//!   (power-law + clustering), Watts–Strogatz, and random-tree-plus-
//!   shortcuts, all steerable to an exact edge count;
//! - [`inflate`]: the RFC 1951/1952 DEFLATE + gzip format in pure
//!   Rust (the build has no registry, so `flate2` cannot be vendored):
//!   typed errors, Huffman decode tables, [`inflate::gunzip`];
//! - [`loaders`]: SNAP / KONECT edge-list parsing, gzip-transparent,
//!   with typed [`LoadError`]s and per-dataset filename manifests;
//! - [`paper`]: the six named datasets — synthetic stand-ins with a
//!   scale knob, plus [`PaperDataset::load`] /
//!   [`PaperDataset::resolve`] for running on the real graphs;
//! - [`stream`]: the one gzip decoder, streaming behind `io::Read` in
//!   constant memory, and the openers every edge list goes through.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generators;
pub mod inflate;
pub mod loaders;
pub mod paper;
pub mod stream;

pub use loaders::LoadError;
pub use paper::PaperDataset;
pub use stream::{open_edge_stream, GzipStreamReader};
