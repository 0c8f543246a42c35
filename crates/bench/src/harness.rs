//! Run-mode handling, dataset provisioning, and TSV output.
//!
//! Parallel experiment sweeps run on the shared [`sp_parallel`]
//! worker-pool crate (this module's original `parallel_map` was
//! generalised into it); see [`sweep_threads`] for how the sweeps pick
//! their thread count.
//!
//! Every experiment bin accepts `--data-dir <dir>` (or `SP_DATA_DIR`):
//! when set, [`dataset_graph`] loads the real SNAP/KONECT edge lists
//! from that directory via [`PaperDataset::resolve`] and only falls
//! back to the synthetic stand-ins for datasets that are not present.
//! Without it, behaviour is bit-identical to the synthetic-only runs.

use sp_datasets::PaperDataset;
use sp_graph::Graph;
use sp_linalg::RunningStats;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Quick (default) vs full (paper-scale) execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BenchMode {
    /// Scaled stand-ins, few repetitions: minutes on a laptop.
    Quick,
    /// Published sizes, paper epochs, 10 repetitions: hours.
    Full,
}

impl BenchMode {
    /// Resolves the mode from CLI args (`--full`) or `SP_BENCH_FULL`.
    pub fn from_env() -> Self {
        let full_flag = std::env::args().any(|a| a == "--full");
        let full_env = std::env::var("SP_BENCH_FULL")
            .map(|v| v == "1")
            .unwrap_or(false);
        if full_flag || full_env {
            BenchMode::Full
        } else {
            BenchMode::Quick
        }
    }

    /// Repetitions per configuration (paper: 10). Overridable with
    /// `SP_REPS`.
    pub fn reps(&self) -> usize {
        if let Ok(v) = std::env::var("SP_REPS") {
            if let Ok(n) = v.parse::<usize>() {
                return n.max(1);
            }
        }
        match self {
            BenchMode::Quick => 2,
            BenchMode::Full => 10,
        }
    }

    /// Dataset scale factor for a given dataset (1.0 = published size).
    pub fn scale(&self, ds: PaperDataset) -> f64 {
        match self {
            BenchMode::Full => match ds {
                // Even in full mode DBLP (2.2M nodes) is scaled to 10%:
                // the full graph is supported but takes hours per run.
                PaperDataset::Dblp => 0.1,
                _ => 1.0,
            },
            BenchMode::Quick => match ds {
                PaperDataset::Chameleon => 0.15,
                PaperDataset::Ppi => 0.10,
                PaperDataset::Power => 0.12,
                PaperDataset::Arxiv => 0.12,
                PaperDataset::BlogCatalog => 0.05,
                PaperDataset::Dblp => 0.002,
            },
        }
    }

    /// Training epochs for the structural-equivalence task
    /// (paper: 200).
    pub fn strucequ_epochs(&self) -> usize {
        match self {
            BenchMode::Quick => 60,
            BenchMode::Full => 200,
        }
    }

    /// Training epochs for link prediction (paper: 2000).
    pub fn linkpred_epochs(&self) -> usize {
        match self {
            BenchMode::Quick => 150,
            BenchMode::Full => 2000,
        }
    }

    /// Embedding dimension (paper: 128).
    pub fn dim(&self) -> usize {
        match self {
            BenchMode::Quick => 64,
            BenchMode::Full => 128,
        }
    }

    /// Human label.
    pub fn label(&self) -> &'static str {
        match self {
            BenchMode::Quick => "quick",
            BenchMode::Full => "full",
        }
    }
}

/// Directory holding real dataset files, from `--data-dir <dir>` on
/// the command line or the `SP_DATA_DIR` environment variable (the
/// flag wins).
pub fn data_dir() -> Option<PathBuf> {
    let argv: Vec<String> = std::env::args().collect();
    if let Some(i) = argv.iter().position(|a| a == "--data-dir") {
        if let Some(dir) = argv.get(i + 1) {
            return Some(PathBuf::from(dir));
        }
    }
    std::env::var_os("SP_DATA_DIR").map(PathBuf::from)
}

/// Provisions the graph for `ds` under this mode: the real edge list
/// when [`data_dir`] is configured and holds one, the synthetic
/// stand-in (scaled per mode) otherwise.
pub fn dataset_graph(mode: BenchMode, ds: PaperDataset, seed: u64) -> Graph {
    dataset_graph_from(data_dir().as_deref(), mode, ds, seed)
}

/// [`dataset_graph`] with an explicit data directory instead of the
/// process-wide flag/env lookup (`None` = always synthetic).
pub fn dataset_graph_from(
    dir: Option<&std::path::Path>,
    mode: BenchMode,
    ds: PaperDataset,
    seed: u64,
) -> Graph {
    ds.resolve(dir, mode.scale(ds), seed)
}

/// `mean ± sd` formatting used in every table row (paper style:
/// 4 decimals).
pub fn fmt_stats(s: &RunningStats) -> String {
    format!("{:.4}±{:.4}", s.mean(), s.std_dev())
}

/// Thread count for experiment sweeps: `SP_THREADS` wins, then the
/// available parallelism, capped at the sweep's config count (each
/// config is an independent training run, so more workers than configs
/// buys nothing).
pub fn sweep_threads(num_configs: usize) -> usize {
    sp_parallel::resolve_threads(None).min(num_configs.max(1))
}

/// Directory where TSV mirrors of the tables land.
pub fn results_dir() -> PathBuf {
    let base = std::env::var("SP_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results"));
    std::fs::create_dir_all(&base).ok();
    base
}

/// Path of the TSV mirror `results/<name>.tsv` that [`write_tsv`]
/// writes.
pub fn tsv_path(name: &str) -> PathBuf {
    results_dir().join(format!("{name}.tsv"))
}

/// Writes header + rows as TSV into `results/<name>.tsv`.
pub fn write_tsv(name: &str, header: &[&str], rows: &[Vec<String>]) {
    let path = tsv_path(name);
    let mut out = match std::fs::File::create(&path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("warning: cannot write {}: {e}", path.display());
            return;
        }
    };
    let _ = writeln!(out, "{}", header.join("\t"));
    for row in rows {
        let _ = writeln!(out, "{}", row.join("\t"));
    }
    println!("[tsv] {}", path.display());
}

/// Reads a regression gate's committed baseline before the bench writes
/// its fresh `output`. Refuses a `baseline` that resolves to `output`
/// itself: the run would overwrite the baseline and then compare it
/// with itself, so the gate could never fail.
///
/// # Errors
/// The refusal, or the error reading `baseline`.
pub fn read_baseline(baseline: &Path, output: &Path) -> Result<String, String> {
    // `output` need not exist yet: then resolve its directory instead.
    let resolve = |p: &Path| -> Option<PathBuf> {
        p.canonicalize().ok().or_else(|| {
            let dir = p.parent().filter(|d| !d.as_os_str().is_empty());
            let dir = dir.unwrap_or(Path::new(".")).canonicalize().ok()?;
            Some(dir.join(p.file_name()?))
        })
    };
    if let (Some(b), Some(o)) = (resolve(baseline), resolve(output)) {
        if b == o {
            return Err(format!(
                "baseline {} is the file this run writes; point SP_RESULTS_DIR elsewhere",
                baseline.display()
            ));
        }
    }
    std::fs::read_to_string(baseline)
        .map_err(|e| format!("cannot read baseline {}: {e}", baseline.display()))
}

/// Prints a section banner.
pub fn banner(title: &str, mode: BenchMode) {
    println!();
    println!("=== {title} [{} mode] ===", mode.label());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_threads_is_capped_by_configs() {
        assert_eq!(sweep_threads(1), 1);
        assert!(sweep_threads(64) >= 1);
        // Zero configs still yields a valid pool size.
        assert_eq!(sweep_threads(0), 1);
    }

    #[test]
    fn baseline_that_resolves_to_the_output_is_refused() {
        let dir = std::env::temp_dir().join(format!("sp_bench_gate_{}", std::process::id()));
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        let output = dir.join("scale.tsv");
        std::fs::write(&output, "metric\tunit\tvalue\n").unwrap();
        // The same file, spelled directly and through `..`.
        let err = read_baseline(&output, &output).unwrap_err();
        assert!(err.contains("is the file this run writes"), "{err}");
        assert!(read_baseline(&dir.join("sub/../scale.tsv"), &output).is_err());
        // An output that does not exist yet still resolves.
        let fresh = dir.join("fresh.tsv");
        assert!(read_baseline(&fresh, &fresh).is_err());
        // A different file is read.
        let other = dir.join("sub/scale.tsv");
        std::fs::write(&other, "baseline").unwrap();
        assert_eq!(read_baseline(&other, &output).unwrap(), "baseline");
        // A missing baseline is an error, not an empty gate.
        assert!(read_baseline(&dir.join("missing.tsv"), &output).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quick_mode_scales_are_small() {
        for ds in PaperDataset::all() {
            let s = BenchMode::Quick.scale(ds);
            assert!(s > 0.0 && s <= 0.2, "{:?} scale {s}", ds);
        }
    }

    #[test]
    fn fmt_stats_shape() {
        let mut s = RunningStats::new();
        s.push(0.5);
        s.push(0.7);
        let txt = fmt_stats(&s);
        assert!(txt.starts_with("0.6000±"), "{txt}");
    }

    #[test]
    fn dataset_graph_is_deterministic() {
        let a = dataset_graph(BenchMode::Quick, PaperDataset::Power, 3);
        let b = dataset_graph(BenchMode::Quick, PaperDataset::Power, 3);
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn dataset_graph_loads_real_file_from_data_dir() {
        // Exercises the same path `--data-dir`/`SP_DATA_DIR` feeds into
        // dataset_graph, without mutating the process environment
        // (setenv races the other tests on this multithreaded harness).
        let dir = std::env::temp_dir().join(format!("sp_bench_data_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("blogcatalog.txt"), "1 2\n2 3\n3 1\n4 1\n").unwrap();
        let g = dataset_graph_from(Some(&dir), BenchMode::Quick, PaperDataset::BlogCatalog, 3);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        // And without a directory it is the synthetic stand-in.
        let synth = dataset_graph_from(None, BenchMode::Quick, PaperDataset::BlogCatalog, 3);
        assert_eq!(
            synth.edges(),
            PaperDataset::BlogCatalog
                .generate(BenchMode::Quick.scale(PaperDataset::BlogCatalog), 3)
                .edges()
        );
    }
}
