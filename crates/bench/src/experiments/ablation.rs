//! Ablations beyond the paper's tables — studies of the design choices
//! behind the trainer and the evaluation:
//!
//! 1. **Theorem 3 verification**: the closed-form optimum
//!    `x* = log(p_ij/(k·min P))` against a direct gradient-descent
//!    minimisation of the deterministic objective (Eq. 13), per
//!    proximity measure;
//! 2. **Negative-sampling design**: Theorem-3 alignment
//!    (`corr(x_ij, log p_ij)`) of models trained with the paper's
//!    uniform non-neighbour sampler vs the prior-work
//!    degree-proportional sampler (Eq. 14/15);
//! 3. **Evaluation-norm artifact**: raw vs row-normalised StrucEqu for
//!    noisy and noiseless models (the degree-norm effect);
//! 4. **Sensitivity scaling**: StrucEqu of the naive strategy as the
//!    batch size grows (its `S = B·C` noise scales linearly with `B`,
//!    the non-zero strategy's does not).

use crate::harness::{banner, write_tsv, BenchMode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use se_privgemb::{NegativeSampling, PerturbStrategy, ProximityKind, SePrivGEmb};
use sp_datasets::generators;
use sp_eval::{normalize_rows, struc_equ, PairSelection};
use sp_graph::Graph;
use sp_proximity::proximity_matrix;
use sp_skipgram::theory;

fn study_graph() -> Graph {
    let mut rng = StdRng::seed_from_u64(11);
    generators::barabasi_albert(400, 4, &mut rng)
}

/// Runs all four ablations.
pub fn run(mode: BenchMode) {
    theorem3_convergence(mode);
    sampling_design(mode);
    norm_artifact(mode);
    naive_sensitivity_scaling(mode);
}

/// Ablation 1: GD on Eq. 13 lands on the closed form, per measure.
fn theorem3_convergence(mode: BenchMode) {
    banner(
        "Ablation 1: Theorem 3 closed form vs direct optimisation",
        mode,
    );
    let g = {
        let mut rng = StdRng::seed_from_u64(5);
        generators::barabasi_albert(60, 3, &mut rng)
    };
    let kinds = [
        ProximityKind::DeepWalk { window: 2 },
        ProximityKind::Ppr {
            alpha: 0.15,
            iters: 6,
        },
        ProximityKind::Katz {
            beta: 0.2,
            max_len: 3,
        },
        ProximityKind::ResourceAllocation,
    ];
    let k = 5;
    let mut rows = Vec::new();
    println!(
        "{:>10}  {:>14}  {:>12}",
        "proximity", "max |gd - x*|", "pairs"
    );
    for kind in kinds {
        let p = proximity_matrix(&g, kind);
        let min_p = match p.min_positive() {
            Some(m) => m,
            None => continue,
        };
        let gd = theory::optimize_objective(&p, k, 6000, 0.4);
        let mut max_err: f64 = 0.0;
        for &(i, j, x) in &gd {
            let x_star = theory::theorem3_optimal(p.get(i, j), k, min_p);
            max_err = max_err.max((x - x_star).abs());
        }
        println!("{:>10}  {:>14.6}  {:>12}", kind.label(), max_err, gd.len());
        rows.push(vec![
            kind.label().to_string(),
            format!("{max_err:.6}"),
            gd.len().to_string(),
        ]);
    }
    write_tsv(
        "ablation1_theorem3",
        &["proximity", "max_err", "pairs"],
        &rows,
    );
}

/// Ablation 2: the paper's sampler aligns embeddings with log p; the
/// degree-proportional sampler distorts them by endpoint degrees.
fn sampling_design(mode: BenchMode) {
    banner(
        "Ablation 2: negative-sampling design (Thm 3 vs Eq. 15)",
        mode,
    );
    let g = study_graph();
    let p = proximity_matrix(&g, ProximityKind::DeepWalk { window: 2 });
    let mut rows = Vec::new();
    println!("{:>22}  {:>12}", "sampler", "corr(x, log p)");
    for (label, sampling) in [
        ("uniform-non-neighbor", NegativeSampling::UniformNonNeighbor),
        ("degree-proportional", NegativeSampling::DegreeProportional),
    ] {
        let result = SePrivGEmb::builder()
            .dim(64)
            .epochs(mode.strucequ_epochs() * 4)
            .learning_rate(0.3)
            .strategy(PerturbStrategy::None)
            .negative_sampling(sampling)
            .proximity(ProximityKind::DeepWalk { window: 2 })
            .seed(77)
            .build()
            .fit(&g);
        let corr = theory::proximity_alignment(&result.model, &p, 50_000).unwrap_or(0.0);
        println!("{label:>22}  {corr:>12.4}");
        rows.push(vec![label.to_string(), format!("{corr:.4}")]);
    }
    write_tsv("ablation2_sampling", &["sampler", "alignment"], &rows);
}

/// Ablation 3: raw vs row-normalised StrucEqu under noise.
fn norm_artifact(mode: BenchMode) {
    banner(
        "Ablation 3: degree-norm artifact (raw vs normalised eval)",
        mode,
    );
    let g = study_graph();
    let mut rows = Vec::new();
    println!(
        "{:>12}  {:>10}  {:>12}  {:>12}",
        "strategy", "epsilon", "raw", "normalised"
    );
    for (label, strategy, eps) in [
        ("non-private", PerturbStrategy::None, 3.5),
        ("non-zero", PerturbStrategy::NonZero, 3.5),
        ("non-zero", PerturbStrategy::NonZero, 1.0),
    ] {
        let result = SePrivGEmb::builder()
            .dim(mode.dim())
            .epochs(mode.strucequ_epochs())
            .strategy(strategy)
            .epsilon(eps)
            .proximity(ProximityKind::DeepWalk { window: 2 })
            .seed(88)
            .build()
            .fit(&g);
        let raw = struc_equ(&g, result.embeddings(), PairSelection::All).unwrap_or(0.0);
        let norm =
            struc_equ(&g, &normalize_rows(result.embeddings()), PairSelection::All).unwrap_or(0.0);
        println!("{label:>12}  {eps:>10}  {raw:>12.4}  {norm:>12.4}");
        rows.push(vec![
            label.to_string(),
            eps.to_string(),
            format!("{raw:.4}"),
            format!("{norm:.4}"),
        ]);
    }
    write_tsv(
        "ablation3_norm_artifact",
        &["strategy", "epsilon", "raw", "normalized"],
        &rows,
    );
}

/// Ablation 4: the naive strategy's utility collapses as B grows
/// (S = B·C), while non-zero is stable.
fn naive_sensitivity_scaling(mode: BenchMode) {
    banner("Ablation 4: sensitivity scaling with batch size", mode);
    let g = study_graph();
    let mut rows = Vec::new();
    println!("{:>6}  {:>14}  {:>14}", "B", "naive", "non-zero");
    for batch in [16usize, 64, 256] {
        let mut cells = Vec::new();
        for strategy in [PerturbStrategy::Naive, PerturbStrategy::NonZero] {
            let result = SePrivGEmb::builder()
                .dim(mode.dim())
                .epochs(mode.strucequ_epochs())
                .batch_size(batch)
                .strategy(strategy)
                .epsilon(3.5)
                .proximity(ProximityKind::Degree)
                .seed(99)
                .build()
                .fit(&g);
            let s = struc_equ(&g, result.embeddings(), PairSelection::All).unwrap_or(0.0);
            cells.push(s);
        }
        println!("{batch:>6}  {:>14.4}  {:>14.4}", cells[0], cells[1]);
        rows.push(vec![
            batch.to_string(),
            format!("{:.4}", cells[0]),
            format!("{:.4}", cells[1]),
        ]);
    }
    write_tsv(
        "ablation4_sensitivity",
        &["batch", "naive", "nonzero"],
        &rows,
    );
}
