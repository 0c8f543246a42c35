//! Tables II–V: parameter studies of SE-PrivGEmb on Chameleon, Power,
//! and Arxiv at ε = 3.5, for both the DW and Deg variants.
//!
//! Each table sweeps one hyper-parameter around the paper's defaults
//! (B = 128, η = 0.1, C = 2, k = 5) and reports `StrucEqu ± SD` over
//! repeated seeded runs.

use crate::harness::{banner, dataset_graph, fmt_stats, sweep_threads, write_tsv, BenchMode};
use se_privgemb::{ProximityKind, SePrivGEmb, SePrivGEmbBuilder};
use sp_datasets::PaperDataset;
use sp_eval::{struc_equ, PairSelection};
use sp_graph::Graph;
use sp_linalg::RunningStats;
use sp_proximity::EdgeProximity;

/// Which parameter a table sweeps.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SweepParam {
    /// Table II: batch size `B`.
    Batch(usize),
    /// Table III: learning rate `η`.
    LearningRate(f64),
    /// Table IV: clipping threshold `C`.
    Clip(f64),
    /// Table V: negative-sample count `k`.
    Negatives(usize),
}

impl SweepParam {
    fn apply(&self, b: SePrivGEmbBuilder) -> SePrivGEmbBuilder {
        match *self {
            SweepParam::Batch(v) => b.batch_size(v),
            SweepParam::LearningRate(v) => b.learning_rate(v),
            SweepParam::Clip(v) => b.clip(v),
            SweepParam::Negatives(v) => b.negatives(v),
        }
    }

    fn value_label(&self) -> String {
        match *self {
            SweepParam::Batch(v) => v.to_string(),
            SweepParam::LearningRate(v) => format!("{v}"),
            SweepParam::Clip(v) => format!("{v}"),
            SweepParam::Negatives(v) => v.to_string(),
        }
    }
}

/// The two SE-PrivGEmb variants of Tables II–VI.
pub(crate) const VARIANTS: [(&str, ProximityKind); 2] = [
    ("SE-PrivGEmbDW", ProximityKind::DeepWalk { window: 2 }),
    ("SE-PrivGEmbDeg", ProximityKind::Degree),
];

/// Every (variant, dataset) cell of a table: its proximity kind, graph
/// and edge proximity, variant-major in [`VARIANTS`] order, then in
/// `prepared` order. Each proximity is computed once for all the jobs
/// of its cell, on one thread: the cells are the pool.
pub(crate) fn cells(
    prepared: &[(PaperDataset, Graph)],
) -> Vec<(ProximityKind, &Graph, EdgeProximity)> {
    let pairs: Vec<(ProximityKind, &Graph)> = VARIANTS
        .iter()
        .flat_map(|&(_, kind)| prepared.iter().map(move |(_, g)| (kind, g)))
        .collect();
    sp_parallel::par_map(&pairs, sweep_threads(pairs.len()), |&(kind, g)| {
        (kind, g, EdgeProximity::compute_threads(g, kind, Some(1)))
    })
}

/// One (cell, parameter value, repetition) work item.
struct Job {
    cell: usize,
    param: SweepParam,
    rep: usize,
}

/// Runs one parameter-study table and prints/mirrors it.
pub fn run(mode: BenchMode, table_name: &str, title: &str, values: &[SweepParam]) {
    banner(title, mode);
    let reps = mode.reps();
    let datasets = PaperDataset::parameter_study();

    // Pre-generate graphs once per dataset and proximities once per
    // (variant, dataset).
    let prepared: Vec<(PaperDataset, Graph)> = datasets
        .iter()
        .map(|&ds| (ds, dataset_graph(mode, ds, 7)))
        .collect();
    let cells = cells(&prepared);

    let mut jobs = Vec::new();
    for cell in 0..cells.len() {
        for &param in values {
            for rep in 0..reps {
                jobs.push(Job { cell, param, rep });
            }
        }
    }

    let scores = sp_parallel::par_map(&jobs, sweep_threads(jobs.len()), |job| {
        let (kind, g, prox) = &cells[job.cell];
        // Inner parallelism stays at 1: the sweep is the pool.
        let builder = SePrivGEmb::builder()
            .dim(mode.dim())
            .epsilon(3.5)
            .epochs(mode.strucequ_epochs())
            .proximity(*kind)
            .threads(1)
            .seed(1000 + job.rep as u64);
        let model = job.param.apply(builder).build();
        let result = model.fit_with_proximity(g, prox.clone());
        struc_equ(
            g,
            result.embeddings(),
            PairSelection::Auto {
                seed: job.rep as u64,
            },
        )
        .unwrap_or(0.0)
    });

    // Aggregate back into (variant, dataset, value) cells.
    let mut tsv_rows: Vec<Vec<String>> = Vec::new();
    let mut cursor = 0usize;
    for &(vname, _) in &VARIANTS {
        println!("\n{vname}");
        println!(
            "{:>8}  {:>16}  {:>16}  {:>16}",
            "value", "Chameleon", "Power", "Arxiv"
        );
        // scores are laid out variant-major, then dataset, value, rep.
        let mut per_value: Vec<Vec<RunningStats>> =
            vec![vec![RunningStats::new(); datasets.len()]; values.len()];
        for (di, _) in datasets.iter().enumerate() {
            for (vi, _) in values.iter().enumerate() {
                for _ in 0..reps {
                    per_value[vi][di].push(scores[cursor]);
                    cursor += 1;
                }
            }
        }
        for (vi, param) in values.iter().enumerate() {
            let cells: Vec<String> = per_value[vi].iter().map(fmt_stats).collect();
            println!(
                "{:>8}  {:>16}  {:>16}  {:>16}",
                param.value_label(),
                cells[0],
                cells[1],
                cells[2]
            );
            tsv_rows.push(vec![
                vname.to_string(),
                param.value_label(),
                cells[0].clone(),
                cells[1].clone(),
                cells[2].clone(),
            ]);
        }
    }
    write_tsv(
        table_name,
        &["variant", "value", "Chameleon", "Power", "Arxiv"],
        &tsv_rows,
    );
}

/// Table II values (batch size).
pub fn table2_values() -> Vec<SweepParam> {
    [32usize, 64, 128, 256, 512, 1024]
        .iter()
        .map(|&b| SweepParam::Batch(b))
        .collect()
}

/// Table III values (learning rate).
pub fn table3_values() -> Vec<SweepParam> {
    [0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3]
        .iter()
        .map(|&v| SweepParam::LearningRate(v))
        .collect()
}

/// Table IV values (clipping threshold).
pub fn table4_values() -> Vec<SweepParam> {
    (1..=6).map(|c| SweepParam::Clip(c as f64)).collect()
}

/// Table V values (negative-sample count).
pub fn table5_values() -> Vec<SweepParam> {
    (1..=7).map(SweepParam::Negatives).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_grids_match_paper() {
        assert_eq!(table2_values().len(), 6);
        assert_eq!(table3_values().len(), 7);
        assert_eq!(table4_values().len(), 6);
        assert_eq!(table5_values().len(), 7);
        assert_eq!(table2_values()[2], SweepParam::Batch(128));
        assert_eq!(table4_values()[1], SweepParam::Clip(2.0));
    }

    #[test]
    fn sweep_param_applies_to_builder() {
        let b = SePrivGEmb::builder();
        let m = SweepParam::Batch(256).apply(b).build();
        assert_eq!(m.train_config().batch_size, 256);
        let m = SweepParam::LearningRate(0.25)
            .apply(SePrivGEmb::builder())
            .build();
        assert_eq!(m.train_config().learning_rate, 0.25);
        let m = SweepParam::Clip(4.0).apply(SePrivGEmb::builder()).build();
        assert_eq!(m.train_config().clip, 4.0);
        let m = SweepParam::Negatives(7)
            .apply(SePrivGEmb::builder())
            .build();
        assert_eq!(m.train_config().negatives, 7);
    }

    #[test]
    fn labels_render() {
        assert_eq!(SweepParam::Batch(64).value_label(), "64");
        assert_eq!(SweepParam::LearningRate(0.05).value_label(), "0.05");
    }
}
