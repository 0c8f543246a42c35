//! Determinism contract of the `sp_parallel`-backed hot paths.
//!
//! For each of the trainer, the sampled walk corpus, and every sparse
//! proximity kind, this suite asserts that
//!
//! 1. `threads = 1` output is **bit-identical** to `threads = 4`
//!    output under the same seed (parallelism never perturbs a seeded
//!    run, so it cannot perturb the privacy accounting either), and
//! 2. `threads = 1` matches the **pre-refactor serial path**, pinned
//!    as golden value digests captured on small fixed graphs before
//!    the parallel refactor.
//!
//! One documented exception to (2): Adamic–Adar and resource
//! allocation. Their pre-refactor builder summed wedge contributions
//! in the equal-key order of `sort_unstable` — an unspecified order,
//! so those matrices were only ever defined up to float-summation
//! order. The row-partitioned builder fixes a canonical
//! ascending-centre order; the suite pins the new canonical digests
//! and separately asserts ≤ 1 ulp agreement with an inline reference
//! implementation of the pre-refactor algorithm.

use rand::rngs::{SmallRng, StdRng};
use rand::SeedableRng;
use se_privgemb::{NegativeSampling, PerturbStrategy, ProximityKind, SePrivGEmb};
use se_privgemb_suite::model::Provenance;
use se_privgemb_suite::serve::{self, EmbeddingStore, IvfConfig, IvfIndex};
use sp_datasets::generators;
use sp_graph::Graph;
use sp_linalg::CsrMatrix;
use sp_proximity::{proximity_matrix_threads, EdgeProximity};
use sp_skipgram::walks::{corpus_pairs_seeded, WalkConfig};

// ---------------------------------------------------------------------------
// Fixtures and digests

fn fnv1a64(words: impl Iterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn matrix_digest(m: &CsrMatrix) -> (usize, u64) {
    let h = fnv1a64(
        m.iter()
            .flat_map(|(i, j, v)| [i as u64, j as u64, v.to_bits()]),
    );
    (m.nnz(), h)
}

/// Small fixed scale-free graph (40 nodes, 114 edges) used for every
/// proximity golden.
fn golden_graph() -> Graph {
    let mut rng = StdRng::seed_from_u64(7);
    generators::barabasi_albert(40, 3, &mut rng)
}

/// Ring + chords (60 nodes, 72 edges) used for the trainer goldens.
fn ring_with_chords(n: usize) -> Graph {
    let mut edges: Vec<(u32, u32)> = (0..n).map(|i| (i as u32, ((i + 1) % n) as u32)).collect();
    for i in (0..n).step_by(5) {
        edges.push((i as u32, ((i + n / 2) % n) as u32));
    }
    Graph::from_edges(n, edges)
}

/// The trainer golden fixture: 60 nodes, dim 16, k = 3, B = 64 (two
/// steps an epoch), three epochs.
fn golden_fit(
    threads: usize,
    strategy: PerturbStrategy,
    sampling: NegativeSampling,
) -> se_privgemb::EmbeddingResult {
    SePrivGEmb::builder()
        .dim(16)
        .negatives(3)
        .batch_size(64)
        .learning_rate(0.1)
        .clip(1.0)
        .sigma(5.0)
        .epsilon(3.5)
        .delta(1e-5)
        .epochs(3)
        .strategy(strategy)
        .negative_sampling(sampling)
        .proximity(ProximityKind::deepwalk_default())
        .seed(0xD5EED)
        .threads(threads)
        .build()
        .fit(&ring_with_chords(60))
}

/// A fit shaped to split every per-example kernel of the step: dim 13
/// (three 4-lane chunks and a one-element tail in every inner product
/// and norm), k = 4 (five context rows per example: a group of three
/// inner products, then two), degree-proportional negatives (repeated
/// context rows) and `NonZero` noise over two epochs of three steps.
fn odd_shape_fit(threads: usize) -> se_privgemb::EmbeddingResult {
    SePrivGEmb::builder()
        .dim(13)
        .negatives(4)
        .batch_size(32)
        .learning_rate(0.1)
        .clip(1.0)
        .sigma(5.0)
        .epsilon(3.5)
        .delta(1e-5)
        .epochs(2)
        .strategy(PerturbStrategy::NonZero)
        .negative_sampling(NegativeSampling::DegreeProportional)
        .proximity(ProximityKind::deepwalk_default())
        .seed(0x0DD5)
        .threads(threads)
        .build()
        .fit(&ring_with_chords(60))
}

fn golden_trainer(threads: usize) -> se_privgemb::EmbeddingResult {
    golden_fit(
        threads,
        PerturbStrategy::NonZero,
        NegativeSampling::UniformNonNeighbor,
    )
}

fn weights_digest(m: &sp_linalg::DenseMatrix) -> u64 {
    fnv1a64(m.as_slice().iter().map(|v| v.to_bits()))
}

const SPARSE_KINDS: [ProximityKind; 6] = [
    ProximityKind::CommonNeighbors,
    ProximityKind::AdamicAdar,
    ProximityKind::ResourceAllocation,
    ProximityKind::Katz {
        beta: 0.5,
        max_len: 3,
    },
    ProximityKind::Ppr {
        alpha: 0.15,
        iters: 4,
    },
    ProximityKind::DeepWalk { window: 2 },
];

// ---------------------------------------------------------------------------
// Golden values. Captured on the pre-refactor serial implementations
// (commit 6568724) except AA/RA, whose canonical fixed-order values
// were re-pinned as described in the module docs.

const GOLDEN_CN: (usize, u64) = (1162, 0xe65d9daa87e1ddc5);
const GOLDEN_AA: (usize, u64) = (1162, 0xdd8b232de269c295);
const GOLDEN_RA: (usize, u64) = (1162, 0x95a725b0ab070a8d);
const GOLDEN_KATZ: (usize, u64) = (1600, 0xca3db464325353ab);
const GOLDEN_PPR: (usize, u64) = (1600, 0xd919854661277fb3);
const GOLDEN_DW: (usize, u64) = (1242, 0x838f656cef350957);
const GOLDEN_DEG_LEN: usize = 114;
const GOLDEN_DEG_HASH: u64 = 0xcf60a6f040830e5a;
const GOLDEN_DEG_MIN_BITS: u64 = 0x3fbde27703a412ea;
/// `(edge-weight digest, min_positive bits)` of `EdgeProximity` for
/// each of `SPARSE_KINDS`, in order. Pinned on the banded edge path,
/// which read every edge weight back out of sorted CSR bands.
const GOLDEN_EDGE: [(u64, u64); 6] = [
    (0xefac1e7aef697d66, 0x3fe0a8542a150a85),
    (0xef787f97cef41bf4, 0x3fd4bd6cdbf4144d),
    (0x2e01e8d6fa0948b4, 0x3fc39e0b57b92e46),
    (0xdcf964b8e9559e52, 0x3f9af5b673a4b70b),
    (0x3c748b9277890ead, 0x3fa2573a0eea45f5),
    (0x942dc136505bc259, 0x3f984877d395747a),
];
// W_IN/W_OUT were re-pinned once when `sp_linalg::vector` moved to
// lane-shaped reduction kernels (4 accumulators, fixed tree fold):
// dot/norm2_sq now sum in a different — still deterministic —
// canonical order, which shifts trained weights by a few ulps per
// element (sampled elementwise deltas <= 4 ulps vs the previous
// left-to-right order; elementwise kernels axpy/scale are
// bit-identical, so the drift enters only through dot-product scores
// and clip norms). STEPS and EPS are order-independent and unchanged.
// Re-pinned again when `generate_subgraphs` switched to the
// shard-addressable `SubgraphGen` scheme: the run RNG now yields one
// base seed up front and each edge derives its own splitmix64-mixed
// stream, which legitimately changes every negative-sample draw (and
// hence the trained weights) while keeping the determinism contract —
// materialised and streamed shards of any height stay bit-identical.
// STEPS and EPS depend only on the accountant schedule and are
// unchanged.
// Re-pinned once more when noise moved from Marsaglia polar draws on
// the run RNG to ziggurat rows keyed by (seed, step, matrix, row):
// every noise value changes, and so does the batch sequence, which no
// longer interleaves with noise draws on the run RNG. STEPS and EPS
// are unchanged.
const GOLDEN_TRAIN_W_IN: u64 = 0xc32f1c24be4f5e99;
const GOLDEN_TRAIN_W_OUT: u64 = 0x64734194be18b896;
const GOLDEN_TRAIN_STEPS: u64 = 6;
const GOLDEN_TRAIN_EPS_BITS: u64 = 0x4003c53506d06d1a;
/// `final_loss` bits of the same fit, pinned on the trainer that
/// recomputed each final-epoch loss with `SkipGramModel::loss`.
const GOLDEN_TRAIN_LOSS_BITS: u64 = 0x400652eb152537aa;
/// `(strategy, negative sampling, W_in digest, W_out digest, steps,
/// final_loss bits)` of the update paths `GOLDEN_TRAIN_*` does not
/// cover: the non-private step, the `Naive` all-rows update, and
/// degree-proportional negatives, whose duplicate negatives (and
/// negatives equal to the positive) go through `GradBuffer`'s row
/// merge. The digests and steps were pinned on the dense-accumulator
/// trainer, before batches were reduced into touched-row slabs; the
/// loss bits on the trainer that recomputed each final-epoch loss with
/// `SkipGramModel::loss`.
type UpdatePath = (PerturbStrategy, NegativeSampling, u64, u64, u64, u64);
const GOLDEN_UPDATE_PATHS: [UpdatePath; 3] = [
    (
        PerturbStrategy::None,
        NegativeSampling::UniformNonNeighbor,
        0xff039af450ce2f30,
        0x89a54799a845c434,
        6,
        0x40065265d6b3757a,
    ),
    (
        PerturbStrategy::Naive,
        NegativeSampling::UniformNonNeighbor,
        0xe116ec6a9e25f70c,
        0x00fd34de3af59231,
        6,
        0x401ca04de62d82ce,
    ),
    (
        PerturbStrategy::NonZero,
        NegativeSampling::DegreeProportional,
        0x8c51240c3780ee6c,
        0x9c23075f8ee41782,
        6,
        0x40064deab842c2e1,
    ),
];
/// `(W_in digest, W_out digest, steps, ε bits, final_loss bits)` of
/// `odd_shape_fit`, pinned on the trainer that materialised every
/// context gradient row and recomputed each final-epoch loss with
/// `SkipGramModel::loss`.
const GOLDEN_ODD_SHAPE: (u64, u64, u64, u64, u64) = (
    0x2770b169de383b70,
    0x7894265b0e5a209d,
    6,
    0x4003c53506d06d1a,
    0x400b8ee76014799d,
);
// Pinned at introduction of the seeded corpus (threads=1 == threads=4
// by construction; the constant guards against future drift).
const GOLDEN_WALK_PAIRS: usize = 2280;
const GOLDEN_WALK_HASH: u64 = 0x5061ec67ddfb8ed5;

// ---------------------------------------------------------------------------
// Proximity

#[test]
fn proximity_threads1_matches_pre_refactor_goldens() {
    let g = golden_graph();
    for (kind, golden) in SPARSE_KINDS.iter().zip([
        GOLDEN_CN,
        GOLDEN_AA,
        GOLDEN_RA,
        GOLDEN_KATZ,
        GOLDEN_PPR,
        GOLDEN_DW,
    ]) {
        let m = proximity_matrix_threads(&g, *kind, Some(1));
        assert_eq!(
            matrix_digest(&m),
            golden,
            "{} drifted from the pinned serial output",
            kind.label()
        );
    }
    let p = EdgeProximity::compute_threads(&g, ProximityKind::Degree, Some(1));
    assert_eq!(p.weights.len(), GOLDEN_DEG_LEN);
    assert_eq!(
        fnv1a64(p.weights.iter().map(|v| v.to_bits())),
        GOLDEN_DEG_HASH
    );
    assert_eq!(p.min_positive.to_bits(), GOLDEN_DEG_MIN_BITS);
}

#[test]
fn edge_proximity_matches_goldens_at_1_and_4_threads() {
    let g = golden_graph();
    for (kind, (hash, min_bits)) in SPARSE_KINDS.iter().zip(GOLDEN_EDGE) {
        for threads in [1, 4] {
            let p = EdgeProximity::compute_threads(&g, *kind, Some(threads));
            let at = format!("{} at threads={threads}", kind.label());
            assert_eq!(p.weights.len(), GOLDEN_DEG_LEN, "edge count: {at}");
            assert_eq!(
                fnv1a64(p.weights.iter().map(|v| v.to_bits())),
                hash,
                "weights: {at}"
            );
            assert_eq!(p.min_positive.to_bits(), min_bits, "min_positive: {at}");
        }
    }
}

#[test]
fn proximity_bit_identical_for_1_and_4_threads() {
    let g = golden_graph();
    for kind in SPARSE_KINDS {
        let one = proximity_matrix_threads(&g, kind, Some(1));
        let four = proximity_matrix_threads(&g, kind, Some(4));
        // CsrMatrix equality is structural + exact on the f64 payload.
        assert_eq!(one, four, "{} differs across thread counts", kind.label());
    }
    for kind in [ProximityKind::Degree, ProximityKind::deepwalk_default()] {
        let one = EdgeProximity::compute_threads(&g, kind, Some(1));
        let four = EdgeProximity::compute_threads(&g, kind, Some(4));
        assert_eq!(
            one.weights.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            four.weights.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(one.min_positive.to_bits(), four.min_positive.to_bits());
    }
}

#[test]
fn neighborhood_matches_pre_refactor_reference_within_one_ulp() {
    // Inline reference: the pre-refactor CooBuilder wedge enumeration
    // (centre-outer loop, duplicate summation at build time).
    fn reference(g: &Graph, weight: impl Fn(u32) -> f64) -> CsrMatrix {
        let n = g.num_nodes();
        let mut b = sp_linalg::CooBuilder::new(n, n);
        for w in 0..n as u32 {
            let cw = weight(w);
            if cw == 0.0 {
                continue;
            }
            let nb = g.neighbors(w);
            for (a, &i) in nb.iter().enumerate() {
                for &j in &nb[a + 1..] {
                    b.push(i as usize, j as usize, cw);
                    b.push(j as usize, i as usize, cw);
                }
            }
        }
        b.build()
    }

    type WedgeWeight<'a> = Box<dyn Fn(u32) -> f64 + 'a>;
    let g = golden_graph();
    let cases: [(ProximityKind, WedgeWeight); 3] = [
        (ProximityKind::CommonNeighbors, Box::new(|_| 1.0)),
        (
            ProximityKind::AdamicAdar,
            Box::new(|w| {
                let d = g.degree(w);
                if d >= 2 {
                    1.0 / (d as f64).ln()
                } else {
                    0.0
                }
            }),
        ),
        (
            ProximityKind::ResourceAllocation,
            Box::new(|w| {
                let d = g.degree(w);
                if d >= 1 {
                    1.0 / d as f64
                } else {
                    0.0
                }
            }),
        ),
    ];
    for (kind, weight) in &cases {
        let old = reference(&g, weight);
        let new = proximity_matrix_threads(&g, *kind, Some(1));
        assert_eq!(old.nnz(), new.nnz(), "{}: support changed", kind.label());
        for (i, j, v) in old.iter() {
            let w = new.get(i, j);
            let ulp = (v.to_bits() as i64 - w.to_bits() as i64).unsigned_abs();
            assert!(
                ulp <= 1,
                "{} at ({i},{j}): {v} vs {w} ({ulp} ulps)",
                kind.label()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Trainer

#[test]
fn trainer_threads1_matches_pre_refactor_golden() {
    let r = golden_trainer(1);
    assert_eq!(weights_digest(&r.model.w_in), GOLDEN_TRAIN_W_IN);
    assert_eq!(weights_digest(&r.model.w_out), GOLDEN_TRAIN_W_OUT);
    assert_eq!(r.report.steps_run, GOLDEN_TRAIN_STEPS);
    assert_eq!(r.report.epsilon_spent.to_bits(), GOLDEN_TRAIN_EPS_BITS);
    assert_eq!(r.report.final_loss.to_bits(), GOLDEN_TRAIN_LOSS_BITS);
}

#[test]
fn trainer_bit_identical_for_1_and_4_threads() {
    // 1 runs the step producer inline; 2 and 4 run it up to three
    // steps ahead on its own thread.
    let one = golden_trainer(1);
    for threads in [2, 4] {
        let many = golden_trainer(threads);
        assert_eq!(
            one.model.w_in.as_slice(),
            many.model.w_in.as_slice(),
            "W_in differs at threads={threads}"
        );
        assert_eq!(
            one.model.w_out.as_slice(),
            many.model.w_out.as_slice(),
            "W_out differs at threads={threads}"
        );
        assert_eq!(
            one.report.final_loss.to_bits(),
            many.report.final_loss.to_bits(),
            "loss differs at threads={threads}"
        );
    }
}

#[test]
fn every_update_path_matches_its_golden_at_1_and_2_threads() {
    for (strategy, sampling, w_in, w_out, steps, loss) in GOLDEN_UPDATE_PATHS {
        for threads in [1, 2] {
            let r = golden_fit(threads, strategy, sampling);
            let at = format!("{strategy:?}/{sampling:?} at threads={threads}");
            assert_eq!(weights_digest(&r.model.w_in), w_in, "W_in: {at}");
            assert_eq!(weights_digest(&r.model.w_out), w_out, "W_out: {at}");
            assert_eq!(r.report.steps_run, steps, "steps: {at}");
            assert_eq!(r.report.final_loss.to_bits(), loss, "loss: {at}");
        }
    }
}

#[test]
fn odd_shape_matches_its_golden_at_1_and_2_threads() {
    let (w_in, w_out, steps, eps, loss) = GOLDEN_ODD_SHAPE;
    for threads in [1, 2] {
        let r = odd_shape_fit(threads);
        let at = format!("threads={threads}");
        assert_eq!(weights_digest(&r.model.w_in), w_in, "W_in: {at}");
        assert_eq!(weights_digest(&r.model.w_out), w_out, "W_out: {at}");
        assert_eq!(r.report.steps_run, steps, "steps: {at}");
        assert_eq!(r.report.epsilon_spent.to_bits(), eps, "ε: {at}");
        assert_eq!(r.report.final_loss.to_bits(), loss, "loss: {at}");
    }
}

#[test]
fn odd_shape_golden_repeats_context_rows() {
    // As for the degree-proportional update path above: the golden
    // only guards the merge of repeated context rows if its G_S has
    // both kinds of repeat.
    let g = ring_with_chords(60);
    let gs = sp_skipgram::generate_subgraphs(
        &g,
        4,
        NegativeSampling::DegreeProportional,
        &mut SmallRng::seed_from_u64(0x0DD5),
    );
    assert!(
        gs.iter().any(|sg| {
            let n = &sg.negatives;
            (1..n.len()).any(|i| n[..i].contains(&n[i]))
        }),
        "no duplicate negatives"
    );
    assert!(
        gs.iter().any(|sg| sg.negatives.contains(&sg.positive)),
        "no negative equals its positive"
    );
}

#[test]
fn degree_proportional_golden_exercises_the_row_merge() {
    // The trainer draws Alg. 1's base seed first from the run RNG, so
    // this is the fixture's G_S. Its six steps sample nearly every
    // edge; the golden above only guards the merge if G_S has both
    // kinds of repeated context row.
    let g = ring_with_chords(60);
    let gs = sp_skipgram::generate_subgraphs(
        &g,
        3,
        NegativeSampling::DegreeProportional,
        &mut SmallRng::seed_from_u64(0xD5EED),
    );
    assert!(
        gs.iter().any(|sg| {
            let n = &sg.negatives;
            (1..n.len()).any(|i| n[..i].contains(&n[i]))
        }),
        "no duplicate negatives"
    );
    assert!(
        gs.iter().any(|sg| sg.negatives.contains(&sg.positive)),
        "no negative equals its positive"
    );
}

#[test]
fn accountant_charges_identical_steps_for_any_thread_count() {
    // The RDP accountant must see the same subsampled-Gaussian step
    // sequence no matter how the step pipeline is scheduled: identical
    // step counts AND identical (bitwise) budget spend.
    let one = golden_trainer(1);
    let four = golden_trainer(4);
    assert_eq!(one.report.steps_run, four.report.steps_run);
    assert_eq!(one.report.epochs_run, four.report.epochs_run);
    assert_eq!(one.report.stopped_by_budget, four.report.stopped_by_budget);
    assert_eq!(
        one.report.epsilon_spent.to_bits(),
        four.report.epsilon_spent.to_bits()
    );
    assert_eq!(
        one.report.delta_spent.to_bits(),
        four.report.delta_spent.to_bits()
    );
}

// ---------------------------------------------------------------------------
// IVF serving index

/// BlogCatalog-scale seeded store (10,312 nodes, dim 16): the corpus
/// size the serving acceptance gate is specified against.
fn blogcatalog_scale_store() -> EmbeddingStore {
    EmbeddingStore::from_f32(
        serve::synthetic::clustered_embedding(10_312, 16, 40, 0xB10C),
        Provenance::non_private(0xB10C),
    )
}

#[test]
fn ivf_recall_at_10_meets_floor_on_blogcatalog_scale() {
    // Recall regression gate: the coarse-quantised index probing a
    // quarter of its lists must keep recall@10 >= 0.95 against the
    // brute-force oracle. A quantiser or rerank regression shows up
    // here before it shows up in production metrics.
    let store = blogcatalog_scale_store();
    let cfg = IvfConfig {
        nlist: 64,
        nprobe: 16,
        ..IvfConfig::default()
    };
    let index = IvfIndex::build(&store, cfg, Some(4));
    let queries: Vec<u32> = (0..200).map(|i| (i * 51) % 10_312).collect();
    let mut recall = 0.0;
    for &q in &queries {
        let approx = index.top_k_node(&store, q, 10, cfg.nprobe);
        let exact = store.exact_top_k_node(q, 10);
        recall += serve::recall_at_k(&approx, &exact);
    }
    recall /= queries.len() as f64;
    assert!(
        recall >= 0.95,
        "recall@10 regression: {recall:.4} < 0.95 (nlist=64, nprobe=16)"
    );
}

#[test]
fn ivf_index_bit_identical_for_1_and_4_threads() {
    // The index build uses par_map for assignment; like every other
    // hot path in the workspace, thread count must never change the
    // result. Identical centroids, identical lists, identical answers.
    let store = blogcatalog_scale_store();
    let cfg = IvfConfig {
        nlist: 32,
        nprobe: 8,
        ..IvfConfig::default()
    };
    let one = IvfIndex::build(&store, cfg, Some(1));
    let four = IvfIndex::build(&store, cfg, Some(4));
    for q in (0..10_312u32).step_by(97) {
        assert_eq!(
            one.top_k_node(&store, q, 10, cfg.nprobe),
            four.top_k_node(&store, q, 10, cfg.nprobe),
            "IVF answers for node {q} differ across build thread counts"
        );
    }
    assert_eq!(
        one.list_sizes(),
        four.list_sizes(),
        "inverted-list partition differs across thread counts"
    );
}

// ---------------------------------------------------------------------------
// Walk corpus

#[test]
fn walk_corpus_bit_identical_and_pinned() {
    let g = golden_graph();
    let cfg = WalkConfig {
        walks_per_node: 3,
        walk_length: 10,
        window: 2,
    };
    let one = corpus_pairs_seeded(&g, cfg, 0xC0FFEE, Some(1));
    let four = corpus_pairs_seeded(&g, cfg, 0xC0FFEE, Some(4));
    assert_eq!(one, four, "corpus differs across thread counts");
    assert_eq!(one.len(), GOLDEN_WALK_PAIRS);
    assert_eq!(
        fnv1a64(one.iter().flat_map(|&(u, v)| [u as u64, v as u64])),
        GOLDEN_WALK_HASH
    );
}
