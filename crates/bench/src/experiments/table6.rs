//! Table VI: impact of the perturbation strategy (naive Eq. 6 vs
//! non-zero Eq. 9) on structural equivalence, at ε ∈ {0.5, 2, 3.5} on
//! Chameleon, Power, and Arxiv, for both proximity variants.

use super::param_tables::{cells, VARIANTS};
use crate::harness::{banner, dataset_graph, fmt_stats, sweep_threads, write_tsv, BenchMode};
use se_privgemb::{PerturbStrategy, SePrivGEmb};
use sp_datasets::PaperDataset;
use sp_eval::{struc_equ, PairSelection};
use sp_graph::Graph;
use sp_linalg::RunningStats;

/// The ε grid of Table VI.
pub fn epsilons() -> [f64; 3] {
    [0.5, 2.0, 3.5]
}

struct Job {
    cell: usize,
    eps: f64,
    strategy: PerturbStrategy,
    rep: usize,
}

/// Runs Table VI.
pub fn run(mode: BenchMode) {
    banner(
        "Table VI: perturbation strategies (naive vs non-zero)",
        mode,
    );
    let reps = mode.reps();
    let datasets = PaperDataset::parameter_study();
    let strategies = [PerturbStrategy::Naive, PerturbStrategy::NonZero];

    let prepared: Vec<(PaperDataset, Graph)> = datasets
        .iter()
        .map(|&ds| (ds, dataset_graph(mode, ds, 7)))
        .collect();
    let cells = cells(&prepared);

    let mut jobs = Vec::new();
    for cell in 0..cells.len() {
        for &eps in &epsilons() {
            for &strategy in &strategies {
                for rep in 0..reps {
                    jobs.push(Job {
                        cell,
                        eps,
                        strategy,
                        rep,
                    });
                }
            }
        }
    }

    let scores = sp_parallel::par_map(&jobs, sweep_threads(jobs.len()), |job| {
        let (kind, g, prox) = &cells[job.cell];
        // Inner parallelism stays at 1: the sweep is the pool.
        let result = SePrivGEmb::builder()
            .dim(mode.dim())
            .epsilon(job.eps)
            .epochs(mode.strucequ_epochs())
            .strategy(job.strategy)
            .proximity(*kind)
            .threads(1)
            .seed(2000 + job.rep as u64)
            .build()
            .fit_with_proximity(g, prox.clone());
        struc_equ(
            g,
            result.embeddings(),
            PairSelection::Auto {
                seed: job.rep as u64,
            },
        )
        .unwrap_or(0.0)
    });

    let mut tsv_rows = Vec::new();
    let mut cursor = 0usize;
    for &(vname, _) in &VARIANTS {
        println!("\n{vname}");
        println!("{:>18}  {:>16}  {:>16}", "config", "Naive", "Non-zero");
        for &(ds, _) in &prepared {
            for &eps in &epsilons() {
                let mut cells = Vec::new();
                for _ in &strategies {
                    let mut st = RunningStats::new();
                    for _ in 0..reps {
                        st.push(scores[cursor]);
                        cursor += 1;
                    }
                    cells.push(fmt_stats(&st));
                }
                let label = format!("{}(eps={eps})", ds.name());
                println!("{label:>18}  {:>16}  {:>16}", cells[0], cells[1]);
                tsv_rows.push(vec![
                    vname.to_string(),
                    ds.name().to_string(),
                    eps.to_string(),
                    cells[0].clone(),
                    cells[1].clone(),
                ]);
            }
        }
    }
    write_tsv(
        "table6_perturb",
        &["variant", "dataset", "epsilon", "naive", "nonzero"],
        &tsv_rows,
    );
}

#[cfg(test)]
mod tests {
    #[test]
    fn epsilon_grid_matches_paper() {
        assert_eq!(super::epsilons(), [0.5, 2.0, 3.5]);
    }
}
