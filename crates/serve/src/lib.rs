//! # sp-serve
//!
//! The inference-side counterpart of the DP training pipeline: *train
//! once, serve millions of queries*. A model published in the
//! [`sp_model`] format is pure post-processing under the paper's
//! guarantee (Theorem 2), so everything in this crate — loading,
//! indexing, and answering top-k nearest-neighbour or link-score
//! queries — happens at **zero marginal privacy cost**.
//!
//! Three layers:
//!
//! - [`store::EmbeddingStore`]: the published f32 matrices in memory
//!   (bulk-read from an `.spm` file, or built from a just-trained model
//!   through the *same* f32 rounding the writer applies, so in-memory
//!   and loaded-from-disk stores answer queries bit-identically), plus
//!   the **brute-force exact top-k oracle** every approximate answer is
//!   verified against in the test suites;
//! - [`ivf::IvfIndex`]: an IVF-style coarse quantizer — seeded k-means
//!   centroids built deterministically with [`sp_parallel::par_map`],
//!   per-list **exact** rerank at query time — trading a tunable probe
//!   count for sublinear scans;
//! - [`swap::ServingStore`]: the atomic-republish seam behind
//!   `RELOAD`. Queries run against an [`std::sync::Arc`] snapshot of
//!   one *generation* (store + index + version); a republish swaps the
//!   generation pointer, so in-flight queries see the old or the new
//!   model in full, never a torn mix. A [`swap::Generation`] decides
//!   how a query is answered (exact or through its index) for both
//!   `sp_served` and `se_privgemb_cli query`.
//!
//! On top of those sits the network boundary: [`server::Server`] (the
//! `sp_served` binary) speaks the versioned [`protocol`] line protocol
//! over std TCP — thread-per-connection, bounded concurrency, typed
//! rejection of malformed input, graceful drain — with [`metrics`]
//! counters behind the `STATS` command and a [`client::ServeClient`]
//! for programmatic access. Every response carries scores as raw f32
//! bit patterns, so TCP answers are bit-identical to in-process ones.
//!
//! ## Determinism contract
//!
//! Index construction inherits the workspace-wide guarantee: for a
//! fixed seed the centroids, inverted lists, and therefore every query
//! answer are **bit-identical for any thread count**. Query execution
//! itself is serial per query (concurrency is across queries), and all
//! ranking uses a total order — score descending by [`f32::total_cmp`],
//! node id ascending on ties — so result sets are reproducible
//! everywhere, including across the `SP_THREADS` CI matrix.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod ivf;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod store;
pub mod swap;
pub mod synthetic;

pub use client::{ClientError, ServeClient, ServerInfo};
pub use ivf::{IvfConfig, IvfIndex};
pub use metrics::{MetricsSnapshot, ServerMetrics};
pub use server::{Server, ServerConfig, ShutdownHandle};
pub use store::{recall_at_k, EmbeddingStore, Neighbor, QueryError};
pub use swap::{Generation, ServingStore};

// The republish path end to end: an atomic `.spm` write
// (`sp_model::ModelFile::write_atomic`) followed by
// `swap::ServingStore::reload_from`, under real thread interleaving.
#[cfg(test)]
mod tests {
    use crate::{EmbeddingStore, ServingStore};
    use sp_linalg::DenseMatrix;
    use sp_model::{ModelFile, Provenance};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sp_serve_swap_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn concurrent_queries_see_old_or_new_model_never_torn() {
        // The torn-read detector: version v's model has EVERY entry
        // equal to v as f32, so any mix of two versions inside one
        // answer is immediately visible. A publisher thread republishes
        // through the real path (atomic .spm write + reload_from) while
        // reader threads hammer snapshot queries.
        use std::sync::atomic::{AtomicBool, Ordering};

        let dir = temp_dir("torn");
        let path = dir.join("model.spm");
        let n = 50usize;
        let dim = 8usize;
        let constant_model = |v: f64| {
            let m = DenseMatrix::from_vec(n, dim, vec![v; n * dim]);
            EmbeddingStore::from_dense(&m, Provenance::non_private(v as u64))
        };
        let serving = ServingStore::new(constant_model(1.0), None);
        let done = AtomicBool::new(false);
        let versions = 40u64;

        std::thread::scope(|scope| {
            let serving = &serving;
            let done = &done;
            let path = &path;
            let publisher = scope.spawn(move || {
                for v in 2..=versions {
                    let m = DenseMatrix::from_vec(n, dim, vec![v as f64; n * dim]);
                    ModelFile::from_dense(&m, Provenance::non_private(v))
                        .write_atomic(path)
                        .unwrap();
                    serving.reload_from(path, Some(1)).unwrap();
                }
                done.store(true, Ordering::Release);
            });
            let mut readers = Vec::new();
            for _ in 0..3 {
                readers.push(scope.spawn(move || {
                    let mut observed = 0u64;
                    while !done.load(Ordering::Acquire) {
                        let generation = serving.snapshot();
                        // Every value of the snapshot must agree on one
                        // version — a torn read would mix constants.
                        let first = generation.store.embedding(0)[0];
                        for node in 0..n as u32 {
                            for &x in generation.store.embedding(node) {
                                assert_eq!(
                                    x.to_bits(),
                                    first.to_bits(),
                                    "torn read: {x} and {first} in one snapshot"
                                );
                            }
                        }
                        // Provenance travels with the payload.
                        assert_eq!(
                            generation.store.provenance().seed,
                            first as u64,
                            "provenance does not match payload version"
                        );
                        observed += 1;
                    }
                    observed
                }));
            }
            publisher.join().unwrap();
            let total: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
            assert!(total > 0, "readers never observed a snapshot");
        });
        // After the dust settles the newest version is served.
        assert_eq!(serving.version(), versions);
        assert_eq!(serving.snapshot().store.embedding(0)[0], versions as f32);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn republished_file_is_always_complete_on_disk() {
        // Interleave atomic writes with reads of the same path: every
        // read must parse as a complete, checksum-valid model (the
        // temp-file + rename protocol never exposes a prefix).
        let dir = temp_dir("complete");
        let path = dir.join("model.spm");
        let make = |v: u64| {
            let m = DenseMatrix::from_vec(20, 4, vec![v as f64; 80]);
            ModelFile::from_dense(&m, Provenance::non_private(v))
        };
        make(1).write_atomic(&path).unwrap();
        std::thread::scope(|scope| {
            let path = &path;
            let writer = scope.spawn(move || {
                for v in 2..=60 {
                    make(v).write_atomic(path).unwrap();
                }
            });
            let reader = scope.spawn(move || {
                let mut seen = 0u64;
                for _ in 0..200 {
                    let f = ModelFile::read(path).expect("mid-republish read must be complete");
                    let value = f.payload.vectors().row(0)[0];
                    assert_eq!(f.provenance.seed, value as u64);
                    seen = seen.max(value as u64);
                }
                seen
            });
            writer.join().unwrap();
            assert!(reader.join().unwrap() >= 1);
        });
        std::fs::remove_dir_all(&dir).ok();
    }
}
