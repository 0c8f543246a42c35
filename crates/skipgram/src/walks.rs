//! Random-walk corpus generation (the DeepWalk substrate, §II-A).
//!
//! DeepWalk treats truncated random walks as sentences and feeds
//! window co-occurrences to skip-gram. SE-PrivGEmb replaces the
//! sampled corpus with the *analytic* walk proximity
//! `M = (1/T) Σ_t Â^t` (see `sp_proximity::walk`),
//! which is what makes the per-edge sensitivity analysis tractable.
//! Nothing trains on a walk corpus. This module is the sampled
//! reference the analytic matrix is checked against: the empirical
//! co-occurrence frequency of `(start, end)` pairs converges to `M`
//! (tested below).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sp_graph::{Graph, NodeId};
use sp_linalg::{CooBuilder, CsrMatrix};
use sp_parallel::splitmix64;

/// Configuration of a walk corpus.
#[derive(Clone, Copy, Debug)]
pub struct WalkConfig {
    /// Walks started per node.
    pub walks_per_node: usize,
    /// Length of each walk (number of steps).
    pub walk_length: usize,
    /// Skip-gram window: pairs `(w_i, w_j)` with `0 < j - i <= window`
    /// are emitted.
    pub window: usize,
}

impl Default for WalkConfig {
    fn default() -> Self {
        Self {
            walks_per_node: 10,
            walk_length: 40,
            window: 2,
        }
    }
}

/// One uniform random walk of `length` steps starting at `start`
/// (stops early at an isolated node; the start node is included).
pub fn random_walk<R: Rng + ?Sized>(
    g: &Graph,
    start: NodeId,
    length: usize,
    rng: &mut R,
) -> Vec<NodeId> {
    let mut walk = Vec::with_capacity(length + 1);
    walk.push(start);
    let mut cur = start;
    for _ in 0..length {
        let nb = g.neighbors(cur);
        if nb.is_empty() {
            break;
        }
        cur = nb[rng.gen_range(0..nb.len())];
        walk.push(cur);
    }
    walk
}

/// Emits the forward-window co-occurrence pairs of one walk into `out`.
fn emit_window_pairs(walk: &[NodeId], window: usize, out: &mut Vec<(NodeId, NodeId)>) {
    for i in 0..walk.len() {
        for j in (i + 1)..walk.len().min(i + 1 + window) {
            out.push((walk[i], walk[j]));
        }
    }
}

/// The RNG that drives walk number `walk_index` of a seeded corpus:
/// `SmallRng` seeded with `splitmix64(seed) ⊕ walk_index`.
///
/// Deriving each walk's stream from its *index* rather than threading
/// one RNG through the corpus is what makes the sampled corpus
/// **thread-count-invariant**: a walk's randomness no longer depends on
/// how many walks some other worker drew first. The seed is passed
/// through SplitMix64 *before* the XOR so that related seeds (XOR is
/// linear: `s ⊕ i` and `(s ⊕ 1) ⊕ (i ⊕ 1)` collide) still yield
/// disjoint stream families — consecutive seeds must behave as
/// independent replicates, not permutations of the same walk set.
pub fn walk_rng(seed: u64, walk_index: u64) -> SmallRng {
    SmallRng::seed_from_u64(splitmix64(seed) ^ walk_index)
}

/// Generates the full corpus of window co-occurrence pairs
/// `(center, context)` (directed: context follows center in the walk,
/// matching the forward window used by the analytic proximity).
///
/// Walk `w` of node `v` (walk index `v · walks_per_node + w`) is drawn
/// from [`walk_rng`]`(seed, index)`, walks fan out over the worker
/// pool, and pairs are concatenated in walk-index order — so for a
/// fixed seed the corpus is byte-identical for every thread count
/// (`None` resolves via [`sp_parallel::resolve_threads`]).
pub fn corpus_pairs_seeded(
    g: &Graph,
    cfg: WalkConfig,
    seed: u64,
    threads: Option<usize>,
) -> Vec<(NodeId, NodeId)> {
    assert!(cfg.window >= 1 && cfg.walk_length >= 1 && cfg.walks_per_node >= 1);
    let total = g.num_nodes() * cfg.walks_per_node;
    let threads = sp_parallel::resolve_threads(threads);
    let chunk = sp_parallel::default_chunk_size(total, threads);
    let blocks = sp_parallel::par_map_chunks(total, chunk, threads, |walks| {
        let mut pairs = Vec::new();
        for widx in walks {
            let start = (widx / cfg.walks_per_node) as NodeId;
            let mut rng = walk_rng(seed, widx as u64);
            let walk = random_walk(g, start, cfg.walk_length, &mut rng);
            emit_window_pairs(&walk, cfg.window, &mut pairs);
        }
        pairs
    });
    blocks.concat()
}

/// Empirical walk-proximity matrix: row-normalised co-occurrence
/// counts from the corpus of [`corpus_pairs_seeded`], whose
/// thread-count invariance it inherits. As the corpus grows this
/// converges to the analytic DeepWalk proximity with the same window
/// (law of large numbers over walk transitions) — the property test
/// that ties the sampled and analytic pipelines together.
pub fn empirical_proximity_seeded(
    g: &Graph,
    cfg: WalkConfig,
    seed: u64,
    threads: Option<usize>,
) -> CsrMatrix {
    let n = g.num_nodes();
    let mut b = CooBuilder::new(n, n);
    for (u, v) in corpus_pairs_seeded(g, cfg, seed, threads) {
        b.push(u as usize, v as usize, 1.0);
    }
    let mut m = b.build();
    m.normalize_rows();
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sp_graph::Graph;

    fn cycle(n: usize) -> Graph {
        Graph::from_edges(n, (0..n).map(|i| (i as NodeId, ((i + 1) % n) as NodeId)))
    }

    #[test]
    fn walk_stays_on_graph() {
        let g = cycle(10);
        let mut rng = StdRng::seed_from_u64(1);
        let w = random_walk(&g, 3, 50, &mut rng);
        assert_eq!(w.len(), 51);
        assert_eq!(w[0], 3);
        for pair in w.windows(2) {
            assert!(g.has_edge(pair[0], pair[1]), "non-edge step {pair:?}");
        }
    }

    #[test]
    fn walk_stops_at_isolated_node() {
        let g = Graph::from_edges(3, [(0, 1)]);
        let mut rng = StdRng::seed_from_u64(2);
        let w = random_walk(&g, 2, 10, &mut rng);
        assert_eq!(w, vec![2]);
    }

    #[test]
    fn empirical_rows_are_stochastic() {
        let g = cycle(12);
        let m = empirical_proximity_seeded(&g, WalkConfig::default(), 5, None);
        for i in 0..12 {
            let s = m.row_sum(i);
            assert!((s - 1.0).abs() < 1e-9, "row {i} sums to {s}");
        }
    }

    #[test]
    fn seeded_corpus_is_thread_count_invariant() {
        let g = Graph::from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0)]);
        let cfg = WalkConfig {
            walks_per_node: 4,
            walk_length: 12,
            window: 2,
        };
        let one = corpus_pairs_seeded(&g, cfg, 0xFEED, Some(1));
        for threads in [2, 4, 8] {
            assert_eq!(
                one,
                corpus_pairs_seeded(&g, cfg, 0xFEED, Some(threads)),
                "threads={threads}"
            );
        }
        // 13-node walks, window 2: 11 positions emit 2 pairs, one emits 1.
        assert_eq!(one.len(), 7 * 4 * 23);
        // Walks stay on the graph regardless of which worker drew them.
        for (u, v) in &one {
            let d = (*u as i64 - *v as i64)
                .rem_euclid(7)
                .min((*v as i64 - *u as i64).rem_euclid(7));
            assert!(d <= 2, "pair ({u},{v}) at ring distance {d}");
        }
    }

    #[test]
    fn seeded_corpus_differs_across_seeds() {
        let g = cycle(10);
        let cfg = WalkConfig::default();
        assert_ne!(
            corpus_pairs_seeded(&g, cfg, 1, Some(2)),
            corpus_pairs_seeded(&g, cfg, 2, Some(2))
        );
    }

    #[test]
    fn consecutive_seeds_are_not_walk_permutations() {
        // Regression: with a raw `seed ^ index` derivation, seeds s and
        // s ⊕ 1 reuse each other's walk streams (adjacent walks swap),
        // so replicate runs over consecutive seeds had zero corpus
        // variance. The SplitMix64 premix must break that linearity.
        let g = cycle(10);
        let cfg = WalkConfig::default();
        for s in [0u64, 7, 42, 1000] {
            let a = corpus_pairs_seeded(&g, cfg, s, Some(1));
            let b = corpus_pairs_seeded(&g, cfg, s ^ 1, Some(1));
            let mut a_sorted = a.clone();
            let mut b_sorted = b.clone();
            a_sorted.sort_unstable();
            b_sorted.sort_unstable();
            assert_ne!(
                a_sorted,
                b_sorted,
                "seeds {s} and {} produced the same walk multiset",
                s ^ 1
            );
        }
    }

    #[test]
    fn seeded_empirical_proximity_converges_to_analytic() {
        // The strongest cross-validation in the crate: the sampled
        // corpus statistics must converge to (Â + Â²)/2.
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)]);
        let cfg = WalkConfig {
            walks_per_node: 600,
            walk_length: 30,
            window: 2,
        };
        let empirical = empirical_proximity_seeded(&g, cfg, 4, Some(4));
        let analytic =
            sp_proximity::proximity_matrix(&g, sp_proximity::ProximityKind::DeepWalk { window: 2 });
        for i in 0..6 {
            for j in 0..6 {
                let e = empirical.get(i, j);
                let a = analytic.get(i, j);
                assert!(
                    (e - a).abs() < 0.02,
                    "({i},{j}): empirical {e:.4} vs analytic {a:.4}"
                );
            }
        }
    }
}
