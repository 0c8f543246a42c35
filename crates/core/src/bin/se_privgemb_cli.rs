//! Command-line front end: train SE-PrivGEmb on an edge-list file and
//! publish the private embeddings — then query them back.
//!
//! ```text
//! # Train and publish (TSV dump, or the binary .spm model format):
//! se_privgemb_cli --input graph.txt --output emb.tsv \
//!     --dim 128 --epsilon 3.5 --epochs 200 --proximity dw --seed 1
//! se_privgemb_cli --dataset arxiv --output model.spm --output-format model
//!
//! # Serve queries against a published model (zero privacy cost):
//! se_privgemb_cli query --model model.spm --node 3 --k 10
//! se_privgemb_cli query --model model.spm --node 3 --k 10 \
//!     --ivf-nlist 32 --nprobe 4 --check-recall 0.9
//! se_privgemb_cli query --model model.spm --link 3 17
//! ```
//!
//! To serve a published model over TCP, run `sp_served` (crate
//! `sp_serve`).
//!
//! `--input` takes a SNAP/KONECT-style edge list — `u v` pairs split
//! by spaces, tabs, or commas; `#`/`%` comments; arbitrary integer
//! ids (compacted on load); `.gz` files are decompressed
//! transparently. Alternatively `--dataset` names one of the six
//! paper graphs: the real edge list is loaded from `--data-dir` when
//! present there, and the seeded synthetic stand-in (at `--scale`) is
//! generated otherwise. TSV output is one row per node:
//! `node_id \t x_1 \t ... \t x_r`, using the original ids; model
//! output is the versioned, checksummed `sp_model` format holding both
//! skip-gram matrices and the run's provenance (seed, ε, δ spent),
//! addressed by dense node index.

use se_privgemb::{PerturbStrategy, ProximityKind, SePrivGEmb};
use sp_datasets::PaperDataset;
use sp_graph::io::ReadOptions;
use sp_graph::Graph;
use sp_model::{ModelFile, Provenance};
use sp_serve::{recall_at_k, EmbeddingStore, Generation, IvfConfig, IvfIndex};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

/// `eprintln!` that ignores a failed write: a status note or error line
/// lost to a closed pipe or a full disk must not turn the exit status
/// into a panic.
macro_rules! note {
    ($($arg:tt)*) => {{
        let _ = writeln!(std::io::stderr(), $($arg)*);
    }};
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum OutputFormat {
    Tsv,
    Model,
}

struct Args {
    input: String,
    dataset: Option<PaperDataset>,
    data_dir: Option<PathBuf>,
    scale: f64,
    output: String,
    output_format: OutputFormat,
    dim: usize,
    epsilon: f64,
    delta: f64,
    epochs: usize,
    proximity: ProximityKind,
    seed: u64,
    non_private: bool,
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every: Option<u64>,
    resume: bool,
}

struct QueryArgs {
    model: PathBuf,
    node: Option<u32>,
    k: usize,
    link: Option<(u32, u32)>,
    ivf_nlist: Option<usize>,
    nprobe: Option<usize>,
    check_recall: Option<f64>,
}

fn usage() -> &'static str {
    "usage: se_privgemb_cli (--input <edge-list[.gz]> | --dataset <name>) --output <file>\n\
     \t[--output-format tsv|model] [--data-dir <dir>] [--scale 1.0] [--dim 128]\n\
     \t[--epsilon 3.5] [--delta 1e-5] [--epochs 200] [--proximity dw|deg|cn|aa|ra|pa]\n\
     \t[--seed 1] [--non-private]\n\
     \t[--checkpoint-dir <dir> [--checkpoint-every 1000] [--resume]]\n\
     \t<name>: chameleon|ppi|power|arxiv|blogcatalog|dblp (real file from\n\
     \t--data-dir when present, seeded synthetic stand-in otherwise)\n\
     \t--checkpoint-dir persists crash-safe .spc training checkpoints every\n\
     \t--checkpoint-every optimizer steps; --resume continues from the newest\n\
     \tvalid checkpoint and produces a bit-identical model and ε to an\n\
     \tuninterrupted run.\n\
     \n\
     usage: se_privgemb_cli query --model <file.spm> (--node <id> | --link <u> <v>)\n\
     \t[--k 10] [--ivf-nlist <n> [--nprobe <p>]] [--check-recall <min>]\n\
     \tTop-k nearest neighbours (or a link score) from a published model;\n\
     \t--check-recall compares the ANN answer against the exact oracle and\n\
     \tfails the process when recall@k drops below <min>. --nprobe and\n\
     \t--check-recall only apply to the IVF path, so both require --ivf-nlist."
}

fn parse_dataset(name: &str) -> Result<PaperDataset, String> {
    match name.to_ascii_lowercase().as_str() {
        "chameleon" => Ok(PaperDataset::Chameleon),
        "ppi" => Ok(PaperDataset::Ppi),
        "power" => Ok(PaperDataset::Power),
        "arxiv" => Ok(PaperDataset::Arxiv),
        "blogcatalog" => Ok(PaperDataset::BlogCatalog),
        "dblp" => Ok(PaperDataset::Dblp),
        other => Err(format!("unknown dataset {other:?}\n{}", usage())),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        input: String::new(),
        dataset: None,
        data_dir: None,
        scale: 1.0,
        output: String::new(),
        output_format: OutputFormat::Tsv,
        dim: 128,
        epsilon: 3.5,
        delta: 1e-5,
        epochs: 200,
        proximity: ProximityKind::deepwalk_default(),
        seed: 1,
        non_private: false,
        checkpoint_dir: None,
        checkpoint_every: None,
        resume: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            argv.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag {
            "--input" => args.input = value(&mut i)?,
            "--dataset" => args.dataset = Some(parse_dataset(&value(&mut i)?)?),
            "--data-dir" => args.data_dir = Some(PathBuf::from(value(&mut i)?)),
            "--scale" => {
                args.scale = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?
            }
            "--output" => args.output = value(&mut i)?,
            "--output-format" => {
                args.output_format = match value(&mut i)?.as_str() {
                    "tsv" => OutputFormat::Tsv,
                    "model" => OutputFormat::Model,
                    other => return Err(format!("unknown output format {other:?}\n{}", usage())),
                }
            }
            "--dim" => args.dim = value(&mut i)?.parse().map_err(|e| format!("--dim: {e}"))?,
            "--epsilon" => {
                args.epsilon = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--epsilon: {e}"))?
            }
            "--delta" => {
                args.delta = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--delta: {e}"))?
            }
            "--epochs" => {
                args.epochs = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--epochs: {e}"))?
            }
            "--seed" => args.seed = value(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--proximity" => {
                args.proximity = match value(&mut i)?.as_str() {
                    "dw" => ProximityKind::deepwalk_default(),
                    "deg" => ProximityKind::Degree,
                    "cn" => ProximityKind::CommonNeighbors,
                    "aa" => ProximityKind::AdamicAdar,
                    "ra" => ProximityKind::ResourceAllocation,
                    "pa" => ProximityKind::PreferentialAttachment,
                    other => return Err(format!("unknown proximity {other:?}")),
                }
            }
            "--non-private" => args.non_private = true,
            "--checkpoint-dir" => args.checkpoint_dir = Some(PathBuf::from(value(&mut i)?)),
            "--checkpoint-every" => {
                args.checkpoint_every = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--checkpoint-every: {e}"))?,
                )
            }
            "--resume" => args.resume = true,
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
        i += 1;
    }
    if args.checkpoint_dir.is_none() {
        for (flag, set) in [
            ("--checkpoint-every", args.checkpoint_every.is_some()),
            ("--resume", args.resume),
        ] {
            if set {
                return Err(format!(
                    "{flag} requires --checkpoint-dir (where checkpoints live)\n{}",
                    usage()
                ));
            }
        }
    }
    if args.checkpoint_every == Some(0) {
        return Err("--checkpoint-every must be at least 1".to_string());
    }
    if args.input.is_empty() == args.dataset.is_none() {
        return Err(format!(
            "exactly one of --input and --dataset is required\n{}",
            usage()
        ));
    }
    if args.output.is_empty() {
        return Err(format!("--output is required\n{}", usage()));
    }
    Ok(args)
}

fn parse_query_args(argv: &[String]) -> Result<QueryArgs, String> {
    let mut args = QueryArgs {
        model: PathBuf::new(),
        node: None,
        k: 10,
        link: None,
        ivf_nlist: None,
        nprobe: None,
        check_recall: None,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            argv.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag {
            "--model" => args.model = PathBuf::from(value(&mut i)?),
            "--node" => {
                args.node = Some(value(&mut i)?.parse().map_err(|e| format!("--node: {e}"))?)
            }
            "--k" => args.k = value(&mut i)?.parse().map_err(|e| format!("--k: {e}"))?,
            "--link" => {
                let u: u32 = value(&mut i)?.parse().map_err(|e| format!("--link: {e}"))?;
                let v: u32 = value(&mut i)?.parse().map_err(|e| format!("--link: {e}"))?;
                args.link = Some((u, v));
            }
            "--ivf-nlist" => {
                args.ivf_nlist = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--ivf-nlist: {e}"))?,
                )
            }
            "--nprobe" => {
                args.nprobe = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--nprobe: {e}"))?,
                )
            }
            "--check-recall" => {
                args.check_recall = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--check-recall: {e}"))?,
                )
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
        i += 1;
    }
    if args.model.as_os_str().is_empty() {
        return Err(format!("--model is required\n{}", usage()));
    }
    if args.node.is_none() == args.link.is_none() {
        return Err(format!(
            "exactly one of --node and --link is required\n{}",
            usage()
        ));
    }
    if args.ivf_nlist.is_none() && args.nprobe.is_some() {
        return Err(format!(
            "--nprobe requires --ivf-nlist (it is the IVF probe count)\n{}",
            usage()
        ));
    }
    if args.ivf_nlist.is_none() && args.check_recall.is_some() {
        return Err(format!(
            "--check-recall requires --ivf-nlist (the exact path always has recall 1)\n{}",
            usage()
        ));
    }
    Ok(args)
}

/// The graph to train on plus each dense id's original label.
fn provision(args: &Args) -> Result<(Graph, Vec<u64>, String), String> {
    let opts = ReadOptions {
        enforce_declared_counts: true,
        skip_column_header: true,
    };
    let from_file = |path: &std::path::Path| -> Result<(Graph, Vec<u64>, String), String> {
        let doc = sp_datasets::loaders::load_edge_list_path(path, opts)
            .map_err(|e| format!("failed to read {}: {e}", path.display()))?;
        let mut original: Vec<u64> = vec![0; doc.id_map.len()];
        for (&orig, &dense) in &doc.id_map {
            original[dense as usize] = orig;
        }
        Ok((doc.graph, original, path.display().to_string()))
    };
    match args.dataset {
        None => from_file(std::path::Path::new(&args.input)),
        Some(ds) => {
            if let Some(dir) = &args.data_dir {
                if let Some(path) = ds.locate(dir) {
                    return from_file(&path);
                }
                note!(
                    "note: no {} edge list under {}; generating the synthetic stand-in",
                    ds.name(),
                    dir.display()
                );
            }
            let g = ds.generate(args.scale, args.seed);
            let original = (0..g.num_nodes() as u64).collect();
            let label = format!("{} (synthetic, scale {})", ds.name(), args.scale);
            Ok((g, original, label))
        }
    }
}

fn write_tsv(
    args: &Args,
    g: &Graph,
    original: &[u64],
    emb: &sp_linalg::DenseMatrix,
) -> Result<(), String> {
    let out = std::fs::File::create(&args.output)
        .map_err(|e| format!("cannot create {}: {e}", args.output))?;
    let mut w = std::io::BufWriter::new(out);
    for (v, id) in original.iter().enumerate().take(g.num_nodes()) {
        let mut line = id.to_string();
        for x in emb.row(v) {
            line.push('\t');
            line.push_str(&format!("{x:.6}"));
        }
        writeln!(w, "{line}").map_err(|e| format!("write error on {}: {e}", args.output))?;
    }
    w.flush()
        .map_err(|e| format!("flush error on {}: {e}", args.output))
}

/// The configured model. The budget checks apply only to private runs:
/// `--non-private` ignores `--epsilon` and `--delta`.
///
/// # Errors
/// `TrainConfig::validate`'s reason for an invalid parameter, with the
/// usage text.
fn configure(args: &Args) -> Result<SePrivGEmb, String> {
    let mut builder = SePrivGEmb::builder()
        .dim(args.dim)
        .epochs(args.epochs)
        .proximity(args.proximity)
        .seed(args.seed);
    if args.non_private {
        builder = builder.strategy(PerturbStrategy::None);
    } else {
        builder = builder.epsilon(args.epsilon).delta(args.delta);
    }
    if let Some(dir) = &args.checkpoint_dir {
        builder = builder
            .checkpoint_every(args.checkpoint_every.unwrap_or(1000))
            .checkpoint_dir(dir.clone());
    }
    builder
        .try_build()
        .map_err(|e| format!("invalid configuration: {e}\n{}", usage()))
}

fn run_train(argv: &[String]) -> Result<(), String> {
    let args = parse_args(argv)?;
    // Before the graph loads: a bad parameter is a usage error.
    let model = configure(&args)?;
    let (g, original, source) = provision(&args)?;
    note!(
        "loaded {source}: {} nodes, {} edges",
        g.num_nodes(),
        g.num_edges()
    );

    let result = match &args.checkpoint_dir {
        None => model.fit(&g),
        Some(dir) => {
            let run = model
                .fit_checkpointed(&g, args.resume)
                .map_err(|e| format!("checkpointed training failed: {e}"))?;
            match &run.resumed_from {
                Some(path) => note!("resumed from {}", path.display()),
                None if args.resume => {
                    note!("no checkpoint under {}; starting fresh", dir.display())
                }
                None => {}
            }
            run.result
        }
    };
    note!(
        "trained: {} epochs ({} steps), ε spent = {:.4}, stopped by budget: {}",
        result.report.epochs_run,
        result.report.steps_run,
        result.report.epsilon_spent,
        result.report.stopped_by_budget
    );

    match args.output_format {
        OutputFormat::Tsv => {
            write_tsv(&args, &g, &original, result.embeddings())?;
            note!(
                "wrote {} embeddings of dimension {} to {}",
                g.num_nodes(),
                args.dim,
                args.output
            );
        }
        OutputFormat::Model => {
            let provenance = if args.non_private {
                Provenance::non_private(args.seed)
            } else {
                Provenance {
                    seed: args.seed,
                    epsilon: result.report.epsilon_spent,
                    delta: result.report.delta_spent,
                }
            };
            let file = ModelFile::from_skipgram(&result.model, provenance);
            file.write_atomic(std::path::Path::new(&args.output))
                .map_err(|e| format!("cannot write {}: {e}", args.output))?;
            note!(
                "published {} node vectors of dimension {} to {} (.spm, seed {}, ε {:.4})",
                g.num_nodes(),
                args.dim,
                args.output,
                provenance.seed,
                provenance.epsilon
            );
        }
    }
    Ok(())
}

fn run_query(argv: &[String]) -> Result<(), String> {
    let args = parse_query_args(argv)?;
    let store = EmbeddingStore::open(&args.model)
        .map_err(|e| format!("cannot load {}: {e}", args.model.display()))?;
    let p = store.provenance();
    note!(
        "serving {}: {} nodes, dim {}, seed {}, ε {:.4}, δ {:.2e}",
        args.model.display(),
        store.num_nodes(),
        store.dim(),
        p.seed,
        p.epsilon,
        p.delta
    );

    // A node query builds its index only for a node the model has.
    let index = match (args.node, args.ivf_nlist) {
        (Some(node), Some(nlist)) => {
            store.check_node(node).map_err(|e| e.to_string())?;
            let cfg = IvfConfig::with_lists(nlist, args.nprobe);
            Some(IvfIndex::build(&store, cfg, None))
        }
        _ => None,
    };
    let generation = Generation {
        store,
        index,
        version: 1,
    };

    // The answer is the command's output: failing to write it is an
    // error, unlike failing to write a note.
    let mut out = std::io::stdout().lock();
    let write_err = |e: std::io::Error| format!("cannot write the answer: {e}");
    if let Some((u, v)) = args.link {
        let score = generation.try_link_score(u, v).map_err(|e| e.to_string())?;
        writeln!(out, "{u}\t{v}\t{score:.6}").map_err(write_err)?;
        return out.flush().map_err(write_err);
    }

    let node = args.node.expect("node xor link enforced by the parser");
    let answer = generation
        .try_top_k_node(node, args.k)
        .map_err(|e| e.to_string())?;
    if let Some(min_recall) = args.check_recall {
        let exact = generation.store.exact_top_k_node(node, args.k);
        let recall = recall_at_k(&answer, &exact);
        note!(
            "recall@{} vs exact oracle: {recall:.4} (threshold {min_recall})",
            args.k
        );
        if recall < min_recall {
            return Err(format!(
                "ANN recall@{} {recall:.4} below required {min_recall}",
                args.k
            ));
        }
    }
    for (rank, n) in answer.iter().enumerate() {
        writeln!(out, "{}\t{}\t{:.6}", rank + 1, n.node, n.score).map_err(write_err)?;
    }
    out.flush().map_err(write_err)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("query") => run_query(&argv[1..]),
        _ => run_train(&argv),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            note!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn configured(flags: &str) -> Result<SePrivGEmb, String> {
        let argv: Vec<String> = format!("--input g.txt --output e.tsv {flags}")
            .split_whitespace()
            .map(String::from)
            .collect();
        configure(&parse_args(&argv)?)
    }

    #[test]
    fn each_invalid_training_parameter_is_a_usage_error() {
        for (flags, reason) in [
            ("--dim 0", "dim must be >= 1"),
            ("--epsilon 0", "epsilon must be positive"),
            ("--delta 2", "delta must be in (0,1)"),
        ] {
            let err = configured(flags).map(|_| ()).unwrap_err();
            assert!(
                err.starts_with(&format!("invalid configuration: {reason}\n")),
                "{flags}: {err}"
            );
            assert!(err.contains(usage()), "{flags}: {err}");
        }
    }

    #[test]
    fn defaults_configure_the_paper_run() {
        let model = configured("").unwrap();
        let cfg = model.train_config();
        assert_eq!((cfg.dim, cfg.epochs, cfg.seed), (128, 200, 1));
        assert_eq!((cfg.epsilon, cfg.delta), (3.5, 1e-5));
        assert_eq!(cfg.strategy, PerturbStrategy::NonZero);
        assert_eq!(model.proximity_kind(), ProximityKind::deepwalk_default());
        // Every other trajectory parameter keeps the builder's §VI-A value.
        let paper = SePrivGEmb::builder().seed(1).build();
        assert_eq!(
            cfg.fingerprint(10, 20),
            paper.train_config().fingerprint(10, 20)
        );
        assert_eq!(cfg.checkpoint_dir, None);
    }

    #[test]
    fn checkpoint_flags_without_a_directory_are_usage_errors() {
        for (flags, flag) in [
            ("--checkpoint-every 5", "--checkpoint-every"),
            ("--resume", "--resume"),
        ] {
            let err = configured(flags).map(|_| ()).unwrap_err();
            assert!(
                err.starts_with(&format!("{flag} requires --checkpoint-dir")),
                "{flags}: {err}"
            );
            assert!(err.contains(usage()), "{flags}: {err}");
        }
        let model = configured("--checkpoint-dir ckpts --checkpoint-every 5").unwrap();
        assert_eq!(model.train_config().checkpoint_every, Some(5));
        let model = configured("--checkpoint-dir ckpts").unwrap();
        assert_eq!(model.train_config().checkpoint_every, Some(1000));
    }

    #[test]
    fn non_private_runs_skip_the_budget_checks() {
        let model = configured("--non-private --epsilon 0").unwrap();
        assert_eq!(model.train_config().strategy, PerturbStrategy::None);
    }
}
