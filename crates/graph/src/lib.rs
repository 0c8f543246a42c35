//! # sp-graph
//!
//! The graph substrate: an undirected, unweighted, simple graph stored
//! as a CSR adjacency structure (§II-A of the paper), plus edge-list
//! I/O and the traversal algorithms the rest of the workspace builds
//! on (BFS, connected components, degree/clustering statistics).
//!
//! Node identifiers are dense `u32` indices `0..|V|`; the paper's
//! graphs top out at a few million nodes, so 32-bit ids halve the
//! adjacency footprint versus `usize` with no loss.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod graph;
pub mod io;

pub use graph::{Graph, GraphBuilder, NodeId};
