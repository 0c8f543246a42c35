//! Atomic model republishing for continuously-updated serving.
//!
//! A publisher retrains and rewrites the `.spm` file as the graph
//! evolves; the serving side ([`ServingStore::reload_from`], behind
//! `sp_served`'s `RELOAD`) must pick each new model up **without**
//! pausing or corrupting in-flight queries, and serve it the way it
//! served the old one: a reload rebuilds the index the served
//! generation has, from that index's own [`crate::IvfConfig`]. The
//! mechanism is generational: a [`ServingStore`] holds an `Arc` to the
//! current [`Generation`] (store + optional index + version counter)
//! behind an `RwLock` that is only ever held long enough to clone or
//! replace the `Arc`. A query clones the `Arc` once and runs entirely
//! against that snapshot, so it observes one complete model — the old
//! one or the new one, never a torn mix (asserted under real thread
//! interleaving by the republish tests at the crate root).

use crate::ivf::IvfIndex;
use crate::store::{EmbeddingStore, Neighbor, QueryError};
use sp_model::ModelError;
use std::path::Path;
use std::sync::{Arc, RwLock};

/// One immutable published model generation.
#[derive(Clone, Debug)]
pub struct Generation {
    /// The embedding store of this generation.
    pub store: EmbeddingStore,
    /// Optional ANN index over the store.
    pub index: Option<IvfIndex>,
    /// Monotone publication counter (1 for the first generation).
    pub version: u64,
}

impl Generation {
    /// Top-k neighbours of `node` within this generation: through the
    /// index when one is attached, exact otherwise.
    ///
    /// # Panics
    /// Panics if `node` is out of range; servers use
    /// [`Generation::try_top_k_node`].
    pub fn top_k_node(&self, node: u32, k: usize) -> Vec<Neighbor> {
        self.try_top_k_node(node, k).expect("node out of range")
    }

    /// [`Generation::top_k_node`] with typed validation instead of a
    /// panic — the entry point `sp_served` answers `TOPK` and `TOPKN`
    /// from, and `se_privgemb_cli query` answers `--node` from.
    pub fn try_top_k_node(&self, node: u32, k: usize) -> Result<Vec<Neighbor>, QueryError> {
        match &self.index {
            Some(idx) => {
                self.store.check_node(node)?;
                Ok(idx.top_k_node(&self.store, node, k, idx.nprobe_default()))
            }
            None => self.store.try_exact_top_k_node(node, k),
        }
    }

    /// Link score within this generation, with typed validation — the
    /// entry point `sp_served` answers `LINK` from, and
    /// `se_privgemb_cli query` answers `--link` from.
    pub fn try_link_score(&self, u: u32, v: u32) -> Result<f32, QueryError> {
        self.store.try_link_score(u, v)
    }
}

/// The swap point between the republishing loop and concurrent query
/// threads.
#[derive(Debug)]
pub struct ServingStore {
    current: RwLock<Arc<Generation>>,
}

impl ServingStore {
    /// Serves an initial model (version 1).
    pub fn new(store: EmbeddingStore, index: Option<IvfIndex>) -> Self {
        Self {
            current: RwLock::new(Arc::new(Generation {
                store,
                index,
                version: 1,
            })),
        }
    }

    /// A consistent snapshot: queries against the returned generation
    /// never observe a concurrent republish.
    pub fn snapshot(&self) -> Arc<Generation> {
        self.current.read().expect("serving lock poisoned").clone()
    }

    /// Currently served version.
    pub fn version(&self) -> u64 {
        self.snapshot().version
    }

    /// Atomically replaces the served generation; returns the new
    /// version. In-flight queries keep their snapshot; new queries see
    /// the new model.
    pub fn publish(&self, store: EmbeddingStore, index: Option<IvfIndex>) -> u64 {
        let mut slot = self.current.write().expect("serving lock poisoned");
        let version = slot.version + 1;
        *slot = Arc::new(Generation {
            store,
            index,
            version,
        });
        version
    }

    /// Loads a published `.spm` file and swaps it in. When the served
    /// generation has an IVF index, an index of the configuration that
    /// one was built from is built over the new store first, on
    /// `threads` workers (`None`: `SP_THREADS` / available
    /// parallelism), outside the lock — queries keep flowing against
    /// the old generation during the build. An exact generation
    /// reloads exact.
    pub fn reload_from(&self, path: &Path, threads: Option<usize>) -> Result<u64, ModelError> {
        let ivf = self.snapshot().index.as_ref().map(IvfIndex::config);
        let store = EmbeddingStore::open(path)?;
        let index = ivf.map(|cfg| IvfIndex::build(&store, cfg, threads));
        Ok(self.publish(store, index))
    }

    /// Snapshot-consistent convenience query: `(version, top-k)`.
    pub fn top_k_node(&self, node: u32, k: usize) -> (u64, Vec<Neighbor>) {
        let generation = self.snapshot();
        (generation.version, generation.top_k_node(node, k))
    }

    /// Snapshot-consistent link score: `(version, score)`.
    pub fn link_score(&self, u: u32, v: u32) -> (u64, f32) {
        let generation = self.snapshot();
        (generation.version, generation.store.link_score(u, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_model::{F32Matrix, Provenance};

    fn constant_store(n: usize, dim: usize, value: f32) -> EmbeddingStore {
        EmbeddingStore::from_f32(
            F32Matrix::from_vec(n, dim, vec![value; n * dim]),
            Provenance::non_private(0),
        )
    }

    #[test]
    fn publish_bumps_version_and_swaps_content() {
        let serving = ServingStore::new(constant_store(4, 2, 1.0), None);
        assert_eq!(serving.version(), 1);
        let (v, s) = serving.link_score(0, 1);
        assert_eq!(v, 1);
        let first = s;
        let v2 = serving.publish(constant_store(4, 2, 2.0), None);
        assert_eq!(v2, 2);
        let (v, s) = serving.link_score(0, 1);
        assert_eq!(v, 2);
        assert!(s > first, "new model must be visible after publish");
    }

    #[test]
    fn snapshot_outlives_a_publish() {
        let serving = ServingStore::new(constant_store(3, 2, 1.0), None);
        let held = serving.snapshot();
        serving.publish(constant_store(3, 2, 5.0), None);
        // The held snapshot still answers from the old generation…
        assert_eq!(held.version, 1);
        assert_eq!(held.store.embedding(0)[0], 1.0);
        // …while fresh queries see the new one.
        assert_eq!(serving.snapshot().version, 2);
        assert_eq!(serving.snapshot().store.embedding(0)[0], 5.0);
    }

    #[test]
    fn reload_from_missing_file_is_typed_and_keeps_serving() {
        let serving = ServingStore::new(constant_store(3, 2, 1.0), None);
        let err = serving
            .reload_from(Path::new("/nonexistent/model.spm"), Some(1))
            .unwrap_err();
        assert!(matches!(err, ModelError::Io(_)));
        // A failed reload never tears down the current generation.
        assert_eq!(serving.version(), 1);
        assert_eq!(serving.top_k_node(0, 2).1.len(), 2);
    }
}
