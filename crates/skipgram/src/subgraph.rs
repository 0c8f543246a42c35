//! Algorithm 1: generating disjoint subgraphs.
//!
//! The paper pre-computes, for every edge `(v_i, v_j) ∈ E`, a
//! "subgraph" `S` containing the positive pair plus `k` negative pairs
//! `(v_i, v_n)` where each `v_n` is a uniformly random node that is
//! *not* adjacent to `v_i` (rejection-sampled, footnote 2: negatives
//! are collected **prior to training** to keep the privacy analysis a
//! clean subsampled mechanism over a fixed set `G_S` of `|E|`
//! elements).
//!
//! [`NegativeSampling::DegreeProportional`] implements the
//! conventional unigram sampler of prior skip-gram work (negatives
//! drawn ∝ degree, Eq. 14) so the ablation harness can contrast
//! Theorem 3's design against it.

use crate::alias::AliasTable;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sp_graph::{Graph, NodeId};
use sp_parallel::splitmix64;
use std::ops::Range;

/// One element of `G_S`: an edge with its pre-drawn negatives.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Subgraph {
    /// Centre node `v_i` (the edge's first endpoint).
    pub center: NodeId,
    /// Positive context `v_j` (the edge's second endpoint).
    pub positive: NodeId,
    /// `k` negative contexts `v_n`.
    pub negatives: Vec<NodeId>,
    /// Index of the source edge in `g.edges()` (for proximity lookup).
    pub edge_index: usize,
}

/// How negatives are drawn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NegativeSampling {
    /// Algorithm 1: uniform over non-neighbours of the centre
    /// (the sampler under which Theorem 3 holds).
    UniformNonNeighbor,
    /// Prior-work unigram sampler: ∝ degree over all nodes except the
    /// centre (used by the Eq. 15 comparison; may hit true neighbours,
    /// as in word2vec-style implementations).
    DegreeProportional,
}

/// Algorithm 1 as an *indexable generator*: subgraph `e` is a pure
/// function of `(graph, k, sampling, base_seed, e)`, derived from a
/// per-edge `SmallRng` exactly like the seeded walk corpus derives
/// per-walk streams (see [`crate::walks::walk_rng`]).
///
/// Two consequences:
/// - **memory**: a consumer can regenerate any subgraph on demand —
///   O(k) transient per sample — instead of holding the `O(|E|·k)`
///   set `G_S`; the trainer regenerates every sampled subgraph this
///   way;
/// - **sharding**: [`SubgraphGen::range`] yields any edge-partitioned
///   shard of `G_S`, and concatenating shards in index order is
///   identical to [`generate_subgraphs`] over the full edge set.
#[derive(Clone, Debug)]
pub struct SubgraphGen<'g> {
    g: &'g Graph,
    k: usize,
    sampling: NegativeSampling,
    alias: Option<AliasTable>,
    /// `splitmix64(base_seed)`, XORed with the edge index per draw.
    premixed: u64,
}

impl<'g> SubgraphGen<'g> {
    /// A generator over the edges of `g` with `k` negatives per edge
    /// (for [`NegativeSampling::DegreeProportional`], plus the degree
    /// alias table).
    ///
    /// # Panics
    /// Panics when `k == 0` or the graph has fewer than two nodes.
    pub fn new(g: &'g Graph, k: usize, sampling: NegativeSampling, base_seed: u64) -> Self {
        assert!(k >= 1, "need at least one negative sample");
        assert!(g.num_nodes() >= 2, "need at least two nodes");
        let alias = match sampling {
            NegativeSampling::DegreeProportional => {
                let degrees: Vec<f64> = (0..g.num_nodes() as NodeId)
                    .map(|v| g.degree(v) as f64)
                    .collect();
                Some(AliasTable::new(&degrees))
            }
            NegativeSampling::UniformNonNeighbor => None,
        };
        Self {
            g,
            k,
            sampling,
            alias,
            premixed: splitmix64(base_seed),
        }
    }

    /// Number of subgraphs (`|E|`).
    pub fn len(&self) -> usize {
        self.g.num_edges()
    }

    /// True when the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.g.num_edges() == 0
    }

    /// Regenerates subgraph `edge_index` — always the same output for
    /// the same generator, no matter what was generated before.
    ///
    /// For [`NegativeSampling::UniformNonNeighbor`], a centre adjacent
    /// to every other node has no valid negative; such (pathological,
    /// complete-graph-ish) centres fall back to a uniform node
    /// `≠ centre` so the procedure always terminates — on the paper's
    /// sparse graphs the fallback never triggers.
    pub fn generate(&self, edge_index: usize) -> Subgraph {
        let (u, v) = self.g.edges()[edge_index];
        let mut rng = SmallRng::seed_from_u64(self.premixed ^ edge_index as u64);
        let mut negatives = Vec::with_capacity(self.k);
        for _ in 0..self.k {
            let n = match self.sampling {
                NegativeSampling::UniformNonNeighbor => {
                    self.g.random_non_neighbor(u, &mut rng).unwrap_or_else(|| {
                        // Fallback: any node != centre.
                        loop {
                            let c = self.g.random_node(&mut rng);
                            if c != u {
                                break c;
                            }
                        }
                    })
                }
                NegativeSampling::DegreeProportional => {
                    let table = self.alias.as_ref().expect("alias table built in new");
                    loop {
                        let c = table.sample(&mut rng);
                        if c != u {
                            break c;
                        }
                    }
                }
            };
            negatives.push(n);
        }
        Subgraph {
            center: u,
            positive: v,
            negatives,
            edge_index,
        }
    }

    /// One edge-partitioned shard of `G_S`: the subgraphs of the edges
    /// in `edges`, in index order.
    pub fn range(&self, edges: Range<usize>) -> Vec<Subgraph> {
        assert!(edges.end <= self.len(), "edge shard out of bounds");
        edges.map(|e| self.generate(e)).collect()
    }
}

/// Runs Algorithm 1: one subgraph per edge of `g`, each with `k`
/// negatives drawn per `sampling`.
///
/// Draws a single base seed from `rng` and delegates to
/// [`SubgraphGen`], so each subgraph's randomness depends only on its
/// edge index — regenerating any shard later (out-of-core training)
/// reproduces exactly the subgraphs materialised here.
pub fn generate_subgraphs<R: Rng + ?Sized>(
    g: &Graph,
    k: usize,
    sampling: NegativeSampling,
    rng: &mut R,
) -> Vec<Subgraph> {
    let base_seed: u64 = rng.gen();
    let gen = SubgraphGen::new(g, k, sampling, base_seed);
    gen.range(0..g.num_edges())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ring(n: usize) -> Graph {
        Graph::from_edges(n, (0..n).map(|i| (i as NodeId, ((i + 1) % n) as NodeId)))
    }

    #[test]
    fn one_subgraph_per_edge_with_k_negatives() {
        let g = ring(10);
        let mut rng = StdRng::seed_from_u64(1);
        let gs = generate_subgraphs(&g, 5, NegativeSampling::UniformNonNeighbor, &mut rng);
        assert_eq!(gs.len(), g.num_edges());
        for (i, s) in gs.iter().enumerate() {
            assert_eq!(s.negatives.len(), 5);
            assert_eq!(s.edge_index, i);
            let (u, v) = g.edges()[i];
            assert_eq!((s.center, s.positive), (u, v));
        }
    }

    #[test]
    fn uniform_negatives_are_non_neighbors() {
        let g = ring(12);
        let mut rng = StdRng::seed_from_u64(2);
        let gs = generate_subgraphs(&g, 4, NegativeSampling::UniformNonNeighbor, &mut rng);
        for s in &gs {
            for &n in &s.negatives {
                assert_ne!(n, s.center);
                assert!(
                    !g.has_edge(s.center, n),
                    "negative {n} adjacent to centre {}",
                    s.center
                );
            }
        }
    }

    #[test]
    fn saturated_centre_falls_back_gracefully() {
        // K4: every node is adjacent to every other; Algorithm 1's
        // rejection loop would never terminate, our fallback must.
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let mut rng = StdRng::seed_from_u64(3);
        let gs = generate_subgraphs(&g, 3, NegativeSampling::UniformNonNeighbor, &mut rng);
        for s in &gs {
            for &n in &s.negatives {
                assert_ne!(n, s.center);
            }
        }
    }

    #[test]
    fn degree_proportional_prefers_hubs() {
        // Star: hub 0 has degree 9, leaves degree 1. Negatives for
        // leaf-centred edges should be the hub overwhelmingly often.
        let g = Graph::from_edges(10, (1..10).map(|i| (0, i as NodeId)));
        let mut rng = StdRng::seed_from_u64(4);
        let gs = generate_subgraphs(&g, 20, NegativeSampling::DegreeProportional, &mut rng);
        let mut hub = 0usize;
        let mut total = 0usize;
        for s in &gs {
            if s.center != 0 {
                for &n in &s.negatives {
                    total += 1;
                    if n == 0 {
                        hub += 1;
                    }
                }
            }
        }
        // Hub mass is 9/18 = 0.5 of total degree; among draws != centre
        // the hub share is at least ~0.5.
        if total > 0 {
            let share = hub as f64 / total as f64;
            assert!(share > 0.4, "hub share {share}");
        }
    }

    #[test]
    fn degree_proportional_never_returns_centre() {
        let g = ring(8);
        let mut rng = StdRng::seed_from_u64(5);
        let gs = generate_subgraphs(&g, 6, NegativeSampling::DegreeProportional, &mut rng);
        for s in &gs {
            assert!(s.negatives.iter().all(|&n| n != s.center));
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let g = ring(16);
        let a = generate_subgraphs(
            &g,
            5,
            NegativeSampling::UniformNonNeighbor,
            &mut StdRng::seed_from_u64(7),
        );
        let b = generate_subgraphs(
            &g,
            5,
            NegativeSampling::UniformNonNeighbor,
            &mut StdRng::seed_from_u64(7),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn shards_concatenate_to_full_set() {
        let g = ring(14);
        let m = g.num_edges();
        for sampling in [
            NegativeSampling::UniformNonNeighbor,
            NegativeSampling::DegreeProportional,
        ] {
            let full = generate_subgraphs(&g, 4, sampling, &mut StdRng::seed_from_u64(9));
            // Same base seed as generate_subgraphs drew.
            let base: u64 = StdRng::seed_from_u64(9).gen();
            let gen = SubgraphGen::new(&g, 4, sampling, base);
            assert_eq!(gen.len(), m);
            for shard in [1usize, 5, m] {
                let mut streamed = Vec::new();
                let mut start = 0;
                while start < m {
                    let end = (start + shard).min(m);
                    streamed.extend(gen.range(start..end));
                    start = end;
                }
                assert_eq!(streamed, full, "{sampling:?} shard={shard}");
            }
        }
    }

    #[test]
    fn regeneration_is_idempotent_and_order_free() {
        let g = ring(10);
        let gen = SubgraphGen::new(&g, 3, NegativeSampling::UniformNonNeighbor, 0xABCD);
        let forward: Vec<Subgraph> = (0..gen.len()).map(|e| gen.generate(e)).collect();
        let backward: Vec<Subgraph> = (0..gen.len()).rev().map(|e| gen.generate(e)).collect();
        for (e, sg) in forward.iter().enumerate() {
            assert_eq!(*sg, backward[gen.len() - 1 - e]);
            assert_eq!(*sg, gen.generate(e));
        }
    }

    #[test]
    #[should_panic(expected = "edge shard out of bounds")]
    fn range_rejects_out_of_bounds() {
        let g = ring(5);
        let gen = SubgraphGen::new(&g, 2, NegativeSampling::UniformNonNeighbor, 1);
        gen.range(0..99);
    }

    #[test]
    #[should_panic(expected = "at least one negative")]
    fn rejects_zero_k() {
        let g = ring(4);
        let mut rng = StdRng::seed_from_u64(1);
        generate_subgraphs(&g, 0, NegativeSampling::UniformNonNeighbor, &mut rng);
    }
}
