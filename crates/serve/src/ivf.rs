//! IVF-style coarse quantizer: seeded k-means centroids, inverted
//! lists, exact per-list rerank.
//!
//! The index answers maximum-inner-product top-k by probing the
//! `nprobe` inverted lists whose centroids are nearest (L2) to the
//! query and reranking their members with the **exact** scoring used by
//! the brute-force oracle. `nprobe = nlist` therefore degenerates to
//! the oracle itself — recall 1.0 by construction — which is the
//! property the smoke tests lean on for tiny models.
//!
//! Construction is deterministic for any thread count: the per-node
//! centroid assignment runs through [`sp_parallel::par_map`] (order
//! preserving), and the centroid update folds the assignments serially
//! in node order with f64 accumulators. Ties in nearest-centroid
//! selection break toward the lower centroid id via a total order.

use crate::store::{EmbeddingStore, Neighbor, TopK};
use sp_parallel::{par_map, resolve_threads, splitmix64};

/// Index construction and default-query parameters.
#[derive(Clone, Copy, Debug)]
pub struct IvfConfig {
    /// Number of coarse centroids (inverted lists). Clamped to the
    /// node count at build time.
    pub nlist: usize,
    /// Default number of lists probed per query (clamped to `nlist`).
    pub nprobe: usize,
    /// Lloyd iterations for the k-means training.
    pub iters: usize,
    /// Seed for the centroid initialisation.
    pub seed: u64,
}

impl Default for IvfConfig {
    fn default() -> Self {
        Self {
            nlist: 64,
            nprobe: 8,
            iters: 6,
            seed: 0x1DF5EED,
        }
    }
}

/// The built index: coarse centroids plus one node list per centroid.
#[derive(Clone, Debug)]
pub struct IvfIndex {
    dim: usize,
    nprobe_default: usize,
    /// `nlist * dim`, row-major.
    centroids: Vec<f32>,
    /// Node ids per list, ascending within each list.
    lists: Vec<Vec<u32>>,
}

/// Squared L2 distance with a fixed canonical accumulation order —
/// the lane-structured [`sp_linalg::vector::dist2_sq_f32`] kernel
/// (k-means assignment and probe ordering both route through here, so
/// build and query see the identical order).
#[inline]
fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    sp_linalg::vector::dist2_sq_f32(a, b)
}

/// The seeded distinct-node pick sequence used to initialise the
/// k-means centroids: walk a splitmix64 stream over node indices,
/// skipping repeats via a seen-bitmap (O(1) per candidate; the old
/// `picked.contains` scan was O(nlist) each, O(nlist²) total, which
/// hurt at `nlist >= 512`). Falls back to a plain sweep if the stream
/// is unlucky (tiny n). The sequence is pinned by a golden test: the
/// bitmap rewrite must keep it bit-identical to the original scan.
fn seed_centroid_nodes(seed: u64, n: usize, nlist: usize) -> Vec<u32> {
    let mut picked: Vec<u32> = Vec::with_capacity(nlist);
    if n == 0 {
        return picked;
    }
    let mut seen = vec![false; n];
    let mut state = seed;
    let mut guard = 0usize;
    while picked.len() < nlist {
        state = splitmix64(state);
        let cand = (state % n as u64) as u32;
        if !seen[cand as usize] {
            seen[cand as usize] = true;
            picked.push(cand);
        }
        guard += 1;
        if guard > 64 * nlist {
            for cand in 0..n as u32 {
                if picked.len() == nlist {
                    break;
                }
                if !seen[cand as usize] {
                    seen[cand as usize] = true;
                    picked.push(cand);
                }
            }
        }
    }
    picked
}

/// Nearest centroid of `v` under L2, ties toward the lower id.
fn nearest_centroid(v: &[f32], centroids: &[f32], dim: usize) -> u32 {
    let mut best = 0u32;
    let mut best_d = f32::INFINITY;
    for (c, row) in centroids.chunks_exact(dim.max(1)).enumerate() {
        let d = l2_sq(v, row);
        if d.total_cmp(&best_d) == std::cmp::Ordering::Less {
            best = c as u32;
            best_d = d;
        }
    }
    best
}

impl IvfIndex {
    /// Builds the index over every node of `store`. `threads = None`
    /// resolves via `SP_THREADS` / available parallelism; the built
    /// index is bit-identical for every thread count.
    pub fn build(store: &EmbeddingStore, cfg: IvfConfig, threads: Option<usize>) -> Self {
        let n = store.num_nodes();
        let dim = store.dim();
        let nlist = cfg.nlist.clamp(1, n.max(1));
        let threads = resolve_threads(threads);

        // Seeded distinct-node initialisation (seen-bitmap, see
        // `seed_centroid_nodes`).
        let picked = seed_centroid_nodes(cfg.seed, n, nlist);
        let mut centroids: Vec<f32> = Vec::with_capacity(nlist * dim);
        for &node in &picked {
            centroids.extend_from_slice(store.embedding(node));
        }

        let nodes: Vec<u32> = (0..n as u32).collect();
        let mut assignment: Vec<u32> = Vec::new();
        for _ in 0..cfg.iters.max(1) {
            // Deterministic parallel assignment (order-preserving map).
            assignment = par_map(&nodes, threads, |&node| {
                nearest_centroid(store.embedding(node), &centroids, dim)
            });
            // Serial fixed-order update with f64 accumulators.
            let mut sums = vec![0.0f64; nlist * dim];
            let mut counts = vec![0u64; nlist];
            for (node, &c) in assignment.iter().enumerate() {
                counts[c as usize] += 1;
                let row = store.embedding(node as u32);
                let acc = &mut sums[c as usize * dim..(c as usize + 1) * dim];
                for (a, &v) in acc.iter_mut().zip(row) {
                    *a += v as f64;
                }
            }
            for c in 0..nlist {
                if counts[c] == 0 {
                    continue; // empty list keeps its previous centroid
                }
                let inv = 1.0 / counts[c] as f64;
                for d in 0..dim {
                    centroids[c * dim + d] = (sums[c * dim + d] * inv) as f32;
                }
            }
        }

        // Final inverted lists from the last assignment, node-ascending
        // within each list by construction.
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); nlist];
        for (node, &c) in assignment.iter().enumerate() {
            lists[c as usize].push(node as u32);
        }

        Self {
            dim,
            nprobe_default: cfg.nprobe.clamp(1, nlist),
            centroids,
            lists,
        }
    }

    /// Number of inverted lists.
    pub fn nlist(&self) -> usize {
        self.lists.len()
    }

    /// The default probe count baked in at build time.
    pub fn nprobe_default(&self) -> usize {
        self.nprobe_default
    }

    /// Inverted-list sizes (diagnostics; sums to the node count).
    pub fn list_sizes(&self) -> Vec<usize> {
        self.lists.iter().map(|l| l.len()).collect()
    }

    /// The `nprobe` list ids nearest the query (L2 to centroid,
    /// ascending; ties toward the lower list id).
    fn probe_order(&self, query: &[f32], nprobe: usize) -> Vec<u32> {
        let mut order: Vec<(u32, f32)> = self
            .centroids
            .chunks_exact(self.dim.max(1))
            .enumerate()
            .map(|(c, row)| (c as u32, l2_sq(query, row)))
            .collect();
        order.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        order.truncate(nprobe.clamp(1, self.nlist()));
        order.into_iter().map(|(c, _)| c).collect()
    }

    /// Approximate top-k by inner product: probe the nearest `nprobe`
    /// lists, exact-rerank their members.
    ///
    /// # Panics
    /// Panics if `query.len()` differs from the store dimension, or if
    /// the index was built over a different store size.
    pub fn top_k(
        &self,
        store: &EmbeddingStore,
        query: &[f32],
        k: usize,
        nprobe: usize,
    ) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        assert_eq!(store.dim(), self.dim, "store dimension mismatch");
        let mut top = TopK::new(k);
        for c in self.probe_order(query, nprobe) {
            for &node in &self.lists[c as usize] {
                top.push(Neighbor {
                    node,
                    score: store.score(query, node),
                });
            }
        }
        top.into_sorted()
    }

    /// [`IvfIndex::top_k`] with the build-time default probe count.
    pub fn top_k_default(&self, store: &EmbeddingStore, query: &[f32], k: usize) -> Vec<Neighbor> {
        self.top_k(store, query, k, self.nprobe_default)
    }

    /// Approximate top-k neighbours of a stored node, excluding the
    /// node itself.
    pub fn top_k_node(
        &self,
        store: &EmbeddingStore,
        node: u32,
        k: usize,
        nprobe: usize,
    ) -> Vec<Neighbor> {
        let query = store.embedding(node).to_vec();
        let mut out = self.top_k(store, &query, k + 1, nprobe);
        out.retain(|n| n.node != node);
        out.truncate(k);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::recall_at_k;
    use crate::synthetic::clustered_embedding;
    use sp_model::Provenance;

    fn clustered_store(n: usize, dim: usize, clusters: usize) -> EmbeddingStore {
        EmbeddingStore::from_f32(
            clustered_embedding(n, dim, clusters, 0xBEEF),
            Provenance::non_private(0),
        )
    }

    #[test]
    fn lists_partition_the_nodes() {
        let store = clustered_store(500, 8, 10);
        let idx = IvfIndex::build(&store, IvfConfig::default(), Some(1));
        let sizes = idx.list_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 500);
        let mut seen = vec![false; 500];
        for c in 0..idx.nlist() {
            for &node in &idx.lists[c] {
                assert!(!seen[node as usize], "node {node} in two lists");
                seen[node as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn full_probe_equals_the_oracle() {
        let store = clustered_store(300, 6, 8);
        let cfg = IvfConfig {
            nlist: 16,
            ..IvfConfig::default()
        };
        let idx = IvfIndex::build(&store, cfg, Some(1));
        for node in [0u32, 7, 123, 299] {
            let exact = store.exact_top_k_node(node, 10);
            let approx = idx.top_k_node(&store, node, 10, idx.nlist());
            assert_eq!(
                approx
                    .iter()
                    .map(|n| (n.node, n.score.to_bits()))
                    .collect::<Vec<_>>(),
                exact
                    .iter()
                    .map(|n| (n.node, n.score.to_bits()))
                    .collect::<Vec<_>>(),
                "node {node}: nprobe=nlist must reproduce the oracle exactly"
            );
        }
    }

    #[test]
    fn partial_probe_recall_is_high_on_clustered_data() {
        let store = clustered_store(2000, 12, 16);
        let cfg = IvfConfig {
            nlist: 16,
            nprobe: 4,
            ..IvfConfig::default()
        };
        let idx = IvfIndex::build(&store, cfg, Some(1));
        let mut total = 0.0;
        let queries = 40;
        for q in 0..queries {
            let node = (q * 47) as u32 % 2000;
            let exact = store.exact_top_k_node(node, 10);
            let approx = idx.top_k_node(&store, node, 10, 4);
            total += recall_at_k(&approx, &exact);
        }
        let recall = total / queries as f64;
        assert!(recall >= 0.95, "recall@10 {recall} below 0.95");
    }

    #[test]
    fn build_is_thread_count_invariant() {
        let store = clustered_store(400, 8, 8);
        let cfg = IvfConfig {
            nlist: 8,
            ..IvfConfig::default()
        };
        let one = IvfIndex::build(&store, cfg, Some(1));
        let four = IvfIndex::build(&store, cfg, Some(4));
        assert_eq!(
            one.centroids
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            four.centroids
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
        );
        assert_eq!(one.lists, four.lists);
    }

    /// Pre-bitmap reference: the original `picked.contains` scan.
    fn seed_centroid_nodes_reference(seed: u64, n: usize, nlist: usize) -> Vec<u32> {
        let mut picked: Vec<u32> = Vec::with_capacity(nlist);
        let mut state = seed;
        let mut guard = 0usize;
        while picked.len() < nlist && n > 0 {
            state = splitmix64(state);
            let cand = (state % n as u64) as u32;
            if !picked.contains(&cand) {
                picked.push(cand);
            }
            guard += 1;
            if guard > 64 * nlist {
                for cand in 0..n as u32 {
                    if picked.len() == nlist {
                        break;
                    }
                    if !picked.contains(&cand) {
                        picked.push(cand);
                    }
                }
            }
        }
        picked
    }

    #[test]
    fn bitmap_seeding_is_bit_identical_to_the_contains_scan() {
        // The O(n) bitmap must reproduce the O(nlist²) original
        // exactly — same candidates accepted in the same order —
        // including the unlucky-stream sweep fallback (n == nlist).
        for (seed, n, nlist) in [
            (IvfConfig::default().seed, 10_312, 64),
            (IvfConfig::default().seed, 1000, 512),
            (0, 7, 7),
            (42, 100, 100),
            (0xDEAD_BEEF, 3, 1),
            (1, 2048, 1024),
        ] {
            assert_eq!(
                seed_centroid_nodes(seed, n, nlist),
                seed_centroid_nodes_reference(seed, n, nlist),
                "seeding diverged for seed={seed:#x} n={n} nlist={nlist}"
            );
        }
        assert!(seed_centroid_nodes(1, 0, 4).is_empty());
    }

    #[test]
    fn seeding_golden_on_default_seed() {
        // Golden pin for the default seed at the acceptance-gate scale
        // (10,312 nodes, 64 lists): FNV-1a over the picked sequence.
        let picked = seed_centroid_nodes(IvfConfig::default().seed, 10_312, 64);
        assert_eq!(picked.len(), 64);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &node in &picked {
            for b in (node as u64).to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(
            h, 0x1257_fc66_aa61_2c38,
            "centroid pick sequence drifted from the pinned golden"
        );
    }

    #[test]
    fn nlist_larger_than_n_is_clamped() {
        let store = clustered_store(5, 4, 2);
        let cfg = IvfConfig {
            nlist: 64,
            ..IvfConfig::default()
        };
        let idx = IvfIndex::build(&store, cfg, Some(1));
        assert_eq!(idx.nlist(), 5);
        assert_eq!(idx.list_sizes().iter().sum::<usize>(), 5);
    }
}
