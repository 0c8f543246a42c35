//! The fit stage: edge-list file → durable `.spm`, run in a child
//! process of its own so that its `VmHWM` is the fit's alone.
//!
//! The child prints one `name value` line per result on stdout; the
//! parent collects them with [`parse_report`]. With tracing on, every
//! layer call is wrapped in a span and the child also runs the
//! per-layer probes (1-thread and non-private trainer runs, the noise
//! and accountant kernels, example gradients, Alg. 1 alone, the
//! proximity matrix) after the fit.

use crate::procfs;
use crate::stats::median;
use crate::trace::Tracer;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sp_datasets::PaperDataset;
use sp_dp::{BudgetedAccountant, GaussianSampler, PrivacyBudget};
use sp_eval::{struc_equ, PairSelection};
use sp_graph::io::ReadOptions;
use sp_graph::Graph;
use sp_model::checkpoint::{checkpoint_file_name, prune_checkpoints, write_checkpoint_atomic};
use sp_model::{ModelFile, Provenance};
use sp_proximity::{proximity_matrix_threads, EdgeProximity, ProximityKind};
use sp_skipgram::model::GradBuffer;
use sp_skipgram::{
    generate_subgraphs, PerturbStrategy, SkipGramModel, TrainConfig, TrainReport, Trainer,
    TrainerState,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

const MIB: f64 = 1024.0 * 1024.0;

/// Epoch cap of the 1-thread and non-private probe runs in the traced
/// run (the full private Power fit is ≈97 epochs).
const PROBE_EPOCHS: usize = 20;

/// Rows of r = 128 the noise probe perturbs.
const NOISE_ROWS: usize = 50_000;

/// One fit configuration. Everything not named here is the paper's
/// §VI-A default (`TrainConfig::default()`: r=128, k=5, B=128, η=0.1,
/// C=2, σ=5, ε=3.5, δ=1e-5) with window-2 DeepWalk proximity.
#[derive(Clone, Copy, Debug)]
pub struct FitSpec {
    /// Name passed to the child.
    pub name: &'static str,
    /// Which seeded stand-in the input edge list holds.
    pub dataset: PaperDataset,
    /// `NonZero` (SE-PrivGEmb) or `None` (SE-GEmb).
    pub strategy: PerturbStrategy,
    /// Epoch cap; a private run stops earlier when the budget binds.
    pub epochs: usize,
    /// `.spc` checkpoint cadence in steps, `None` for no checkpoints.
    pub checkpoint_every: Option<u64>,
}

/// The paper's product run: a crash-safe private Power fit, stopped by
/// the budget (the CLI's 200-epoch cap and 1,000-step cadence).
pub const POWER_PRIVATE: FitSpec = FitSpec {
    name: "power-private",
    dataset: PaperDataset::Power,
    strategy: PerturbStrategy::NonZero,
    epochs: 200,
    checkpoint_every: Some(1_000),
};

/// The structure-preference stage at BlogCatalog scale: DW proximity
/// and one non-private epoch, no checkpoints.
pub const BLOGCATALOG_PREP: FitSpec = FitSpec {
    name: "blogcatalog-prep",
    dataset: PaperDataset::BlogCatalog,
    strategy: PerturbStrategy::None,
    epochs: 1,
    checkpoint_every: None,
};

/// The non-private counterpart of [`POWER_PRIVATE`] for as many whole
/// epochs as the budget allows the private run (97 of 52 steps); no
/// noise, accountant or checkpoints run.
pub const POWER_NONPRIVATE: FitSpec = FitSpec {
    name: "power-nonprivate",
    dataset: PaperDataset::Power,
    strategy: PerturbStrategy::None,
    epochs: 97,
    checkpoint_every: None,
};

/// Looks a spec up by name.
pub fn spec(name: &str) -> Option<FitSpec> {
    [POWER_PRIVATE, BLOGCATALOG_PREP, POWER_NONPRIVATE]
        .into_iter()
        .find(|s| s.name == name)
}

/// The proximity every fit uses (window-2 DeepWalk).
pub fn proximity_kind() -> ProximityKind {
    ProximityKind::deepwalk_default()
}

fn train_config(spec: &FitSpec, seed: u64, threads: Option<usize>) -> TrainConfig {
    TrainConfig {
        strategy: spec.strategy,
        epochs: spec.epochs,
        seed,
        threads,
        checkpoint_every: spec.checkpoint_every,
        ..TrainConfig::default()
    }
}

/// Writes the seeded stand-in of `dataset` as an edge-list file;
/// returns `(nodes, edges)`.
pub fn write_input(
    dataset: PaperDataset,
    seed: u64,
    path: &Path,
) -> Result<(usize, usize), String> {
    let g = dataset.generate_full(seed);
    sp_graph::io::write_edge_list_file(&g, path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok((g.num_nodes(), g.num_edges()))
}

/// Arguments of the fit child.
pub struct ChildArgs {
    /// Fit configuration.
    pub spec: FitSpec,
    /// Input edge list.
    pub graph: PathBuf,
    /// Output `.spm`.
    pub out: PathBuf,
    /// Scratch directory for `.spc` checkpoints (fresh, no resume).
    pub ckpt_dir: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Record spans and run the per-layer probes.
    pub trace: bool,
    /// Where the spans go at exit.
    pub spans: Option<PathBuf>,
}

/// Results of one fit, in print order.
type Report = Vec<(String, f64)>;

fn put(report: &mut Report, name: &str, value: f64) {
    report.push((name.to_string(), value));
}

/// Runs one fit and prints its report on stdout.
pub fn run_child(args: ChildArgs) -> Result<(), String> {
    let tracer = Tracer::new(args.trace);
    let report = fit_and_check(&args, &tracer)?;
    if let Some(path) = &args.spans {
        tracer
            .write_jsonl(path)
            .map_err(|e| format!("cannot write spans to {}: {e}", path.display()))?;
    }
    for (name, value) in report {
        println!("{name} {value}");
    }
    Ok(())
}

fn fit_and_check(args: &ChildArgs, tracer: &Tracer) -> Result<Report, String> {
    let spec = args.spec;
    let cfg = train_config(&spec, args.seed, None);
    let kind = proximity_kind();
    let opts = ReadOptions {
        enforce_declared_counts: true,
        skip_column_header: true,
        ..ReadOptions::default()
    };
    std::fs::create_dir_all(&args.ckpt_dir).map_err(|e| e.to_string())?;
    // Sizes of the checkpoints the sink wrote, bytes.
    let ckpt_bytes: RefCell<Vec<u64>> = RefCell::new(Vec::new());

    // ---- The measured fit: edge-list file → durable .spm. ----
    let (fitted, fit_s) = tracer.time("fit", None, |root| -> Result<_, String> {
        let (doc, _) = tracer.time("ingest.load", Some(root), |_| {
            sp_datasets::loaders::load_edge_list_path(&args.graph, opts)
        });
        let g = doc
            .map_err(|e| format!("cannot load {}: {e}", args.graph.display()))?
            .graph;
        let (prox, _) = tracer.time("proximity.compute", Some(root), |_| {
            EdgeProximity::compute_threads(&g, kind, cfg.threads)
        });
        let trainer = Trainer::new(cfg.clone());
        let (trained, _) = tracer.time("trainer.train", Some(root), |train| {
            if spec.checkpoint_every.is_none() {
                return Ok(trainer.train(&g, &prox));
            }
            let mut sink = |st: &TrainerState| -> std::io::Result<()> {
                let path = args.ckpt_dir.join(checkpoint_file_name(st.steps_run));
                tracer
                    .time("checkpoint.write", Some(train), |_| {
                        write_checkpoint_atomic(&path, st)
                    })
                    .0
                    .map_err(|e| std::io::Error::other(format!("checkpoint write: {e}")))?;
                ckpt_bytes
                    .borrow_mut()
                    .push(std::fs::metadata(&path)?.len());
                prune_checkpoints(&args.ckpt_dir);
                Ok(())
            };
            trainer.train_checkpointed(&g, &prox, None, None, &mut sink)
        });
        let (model, report) = trained.map_err(|e| format!("training failed: {e}"))?;
        let provenance = provenance(&spec, args.seed, &report);
        let file = ModelFile::from_skipgram(&model, provenance);
        tracer
            .time("publish.write", Some(root), |_| {
                file.write_atomic(&args.out)
            })
            .0
            .map_err(|e| format!("cannot publish {}: {e}", args.out.display()))?;
        Ok((g, prox, model, report, file))
    });
    let (g, prox, model, report, file) = fitted?;
    let peak_rss = procfs::self_peak_rss_mib().ok_or("cannot read VmHWM")?;

    // ---- Output checks (not timed). ----
    let read = ModelFile::read(&args.out).map_err(|e| format!("published .spm: {e}"))?;
    check_published(&spec, &read, &file, args.seed)?;
    // The file parsed, so it ends in its CRC32 trailer.
    let bytes = std::fs::read(&args.out).map_err(|e| e.to_string())?;
    let crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    let strucequ = struc_equ(
        &g,
        &read.payload.vectors().to_dense(),
        PairSelection::Auto { seed: args.seed },
    )
    .ok_or("StrucEqu is undefined on this graph")?;

    let mut out = Report::new();
    put(&mut out, "fit_s", fit_s);
    put(&mut out, "peak_rss_mib", peak_rss);
    put(&mut out, "strucequ", strucequ);
    put(&mut out, "steps", report.steps_run as f64);
    put(&mut out, "epochs", report.epochs_run as f64);
    put(&mut out, "epsilon", report.epsilon_spent);
    put(&mut out, "delta", report.delta_spent);
    put(&mut out, "crc", crc as f64);
    put(&mut out, "nodes", g.num_nodes() as f64);
    put(&mut out, "edges", g.num_edges() as f64);
    put(
        &mut out,
        "threads",
        sp_parallel::resolve_threads(cfg.threads) as f64,
    );
    if tracer.enabled() {
        let probes = Probes {
            spec,
            seed: args.seed,
            g: &g,
            prox: &prox,
            model: &model,
            report: &report,
            ckpt_dir: &args.ckpt_dir,
            publish_bytes: bytes.len() as u64,
            ckpt_bytes: ckpt_bytes.into_inner(),
        };
        probes.run(tracer, &mut out)?;
    }
    Ok(out)
}

fn provenance(spec: &FitSpec, seed: u64, report: &TrainReport) -> Provenance {
    if spec.strategy.is_private() {
        Provenance {
            seed,
            epsilon: report.epsilon_spent,
            delta: report.delta_spent,
        }
    } else {
        Provenance::non_private(seed)
    }
}

/// The published file must parse (CRC-checked), carry a provenance
/// within the configured budget, and hold exactly the in-memory f32
/// rounding of the trained matrices.
fn check_published(
    spec: &FitSpec,
    read: &ModelFile,
    written: &ModelFile,
    seed: u64,
) -> Result<(), String> {
    let budget = TrainConfig::default();
    let p = read.provenance;
    if spec.strategy.is_private() {
        if !(p.epsilon > 0.0 && p.epsilon <= budget.epsilon && p.delta <= budget.delta) {
            return Err(format!(
                "provenance (ε {}, δ {}) exceeds the budget (ε {}, δ {})",
                p.epsilon, p.delta, budget.epsilon, budget.delta
            ));
        }
    } else if p != Provenance::non_private(seed) {
        return Err(format!("non-private provenance expected, read {p:?}"));
    }
    if p.seed != seed {
        return Err(format!("provenance seed {} != {seed}", p.seed));
    }
    let bits = |m: &ModelFile| -> Vec<Vec<u32>> {
        [Some(m.payload.vectors()), m.payload.context()]
            .into_iter()
            .flatten()
            .map(|b| b.as_slice().iter().map(|v| v.to_bits()).collect())
            .collect()
    };
    if bits(read) != bits(written) {
        return Err("published payload differs from the in-memory f32 rounding".into());
    }
    Ok(())
}

/// Parses the child's `name value` lines.
pub fn parse_report(stdout: &str) -> Result<BTreeMap<String, f64>, String> {
    stdout
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let (name, value) = line
                .split_once(' ')
                .ok_or_else(|| format!("bad report line {line:?}"))?;
            let value: f64 = value
                .trim()
                .parse()
                .map_err(|e| format!("bad value in {line:?}: {e}"))?;
            Ok((name.to_string(), value))
        })
        .collect()
}

/// The traced run's per-layer probes over one finished fit.
struct Probes<'a> {
    spec: FitSpec,
    seed: u64,
    g: &'a Graph,
    prox: &'a EdgeProximity,
    model: &'a SkipGramModel,
    report: &'a TrainReport,
    ckpt_dir: &'a Path,
    publish_bytes: u64,
    ckpt_bytes: Vec<u64>,
}

impl Probes<'_> {
    fn run(self, tracer: &Tracer, out: &mut Report) -> Result<(), String> {
        let cfg = train_config(&self.spec, self.seed, None);
        let steps = self.report.steps_run.max(1);

        // Spans of the measured fit.
        let t = tracer.totals();
        let self_s = |name: &str| t.get(name).map_or(0.0, |v| v.2 as f64 * 1e-9);
        let count = |name: &str| t.get(name).map_or(0, |v| v.0);
        put(out, "ingest.load_s", self_s("ingest.load"));
        put(out, "ingest.edges", self.g.num_edges() as f64);
        put(out, "proximity.compute_s", self_s("proximity.compute"));
        let step_us = self_s("trainer.train") * 1e6 / steps as f64;
        put(out, "trainer.steps", steps as f64);
        put(out, "trainer.step_us", step_us);
        put(out, "publish.write_ms", self_s("publish.write") * 1e3);
        put(out, "publish.mib", self.publish_bytes as f64 / MIB);

        // Checkpoint writes: the fit's own sink when it checkpoints,
        // otherwise three writes of the final state from here.
        let ckpt_bytes = if count("checkpoint.write") > 0 {
            self.ckpt_bytes.clone()
        } else {
            let state = final_state(&cfg, self.g, self.model, self.report);
            let mut bytes = Vec::new();
            for i in 0..3u64 {
                let path = self.ckpt_dir.join(checkpoint_file_name(i + 1));
                tracer
                    .time("checkpoint.write", None, |_| {
                        write_checkpoint_atomic(&path, &state)
                    })
                    .0
                    .map_err(|e| format!("checkpoint write: {e}"))?;
                bytes.push(std::fs::metadata(&path).map_err(|e| e.to_string())?.len());
            }
            bytes
        };
        let writes: Vec<f64> = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "checkpoint.write")
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-6)
            .collect();
        put(out, "checkpoint.write_ms", median(&writes));
        put(
            out,
            "checkpoint.mib",
            median(&ckpt_bytes.iter().map(|&b| b as f64).collect::<Vec<_>>()) / MIB,
        );

        // Proximity matrix shape (nnz and bytes of the full matrix).
        let (shape, _) = tracer.time("proximity.matrix", None, |_| {
            let m = proximity_matrix_threads(self.g, proximity_kind(), None);
            (m.nnz(), m.heap_bytes())
        });
        put(out, "proximity.nnz", shape.0 as f64);
        put(out, "proximity.matrix_mib", shape.1 as f64 / MIB);

        // Alg. 1 alone, then example gradients + clipping over its G_S.
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let (subgraphs, gen_s) = tracer.time("subgraph.generate", None, |_| {
            generate_subgraphs(self.g, cfg.negatives, cfg.negative_sampling, &mut rng)
        });
        put(out, "subgraph.generate_s", gen_s);
        let mut buf = GradBuffer::new();
        let (norm_sum, grad_s) = tracer.time("trainer.grad_clip", None, |_| {
            let mut acc = 0.0;
            for sg in &subgraphs {
                self.model
                    .example_grad(sg, self.prox.weights[sg.edge_index], &mut buf);
                acc += buf.clip(cfg.clip);
            }
            acc
        });
        std::hint::black_box(norm_sum);
        put(
            out,
            "trainer.grad_clip_us_per_example",
            grad_s * 1e6 / subgraphs.len() as f64,
        );
        drop(subgraphs);

        // The Gaussian sampler on r = 128 rows.
        let mut noise = GaussianSampler::new();
        let mut noise_rng = SmallRng::seed_from_u64(self.seed ^ 0x004E_015E);
        let mut row = vec![0.0f64; cfg.dim];
        let (_, noise_s) = tracer.time("dp.noise", None, |_| {
            for _ in 0..NOISE_ROWS {
                noise.perturb_slice(&mut row, cfg.clip * cfg.sigma, &mut noise_rng);
            }
        });
        std::hint::black_box(&row);
        put(
            out,
            "dp.noise_ns_per_draw",
            noise_s * 1e9 / (NOISE_ROWS * cfg.dim) as f64,
        );

        // The accountant, stepped as often as the fit stepped.
        let gamma = cfg.batch_size.min(self.g.num_edges()) as f64 / self.g.num_edges() as f64;
        let mut acc =
            BudgetedAccountant::new(PrivacyBudget::new(cfg.epsilon, cfg.delta), gamma, cfg.sigma);
        let (granted, acc_s) = tracer.time("dp.accountant", None, |_| {
            (0..steps).filter(|_| acc.try_step()).count()
        });
        std::hint::black_box(granted);
        put(out, "dp.accountant_us_per_step", acc_s * 1e6 / steps as f64);

        // 1-thread trainer runs, private and non-private, same epochs.
        let probe_epochs = self.spec.epochs.min(PROBE_EPOCHS);
        let t1_step_us = |name: &'static str, strategy: PerturbStrategy| {
            let cfg = TrainConfig {
                strategy,
                epochs: probe_epochs,
                checkpoint_every: None,
                ..train_config(&self.spec, self.seed, Some(1))
            };
            let ((_, rep), secs) =
                tracer.time(name, None, |_| Trainer::new(cfg).train(self.g, self.prox));
            secs * 1e6 / rep.steps_run.max(1) as f64
        };
        let private_t1 = t1_step_us("trainer.t1.private", PerturbStrategy::NonZero);
        let nonprivate_t1 = t1_step_us("trainer.t1.nonprivate", PerturbStrategy::None);
        let own_t1 = if self.spec.strategy.is_private() {
            private_t1
        } else {
            nonprivate_t1
        };
        put(out, "trainer.step_us.t1", own_t1);
        put(out, "trainer.thread_speedup", own_t1 / step_us);
        put(out, "trainer.nonprivate_step_us", nonprivate_t1);
        put(out, "dp.noise_step_us", private_t1 - nonprivate_t1);
        Ok(())
    }
}

/// A checkpoint-shaped snapshot of a finished run, for timing
/// `.spc` writes on fits that do not checkpoint.
fn final_state(
    cfg: &TrainConfig,
    g: &Graph,
    model: &SkipGramModel,
    report: &TrainReport,
) -> TrainerState {
    TrainerState {
        fingerprint: cfg.fingerprint(g.num_nodes(), g.num_edges()),
        steps_run: report.steps_run,
        epochs_run: report.epochs_run as u64,
        step_in_epoch: 0,
        rng: SmallRng::seed_from_u64(cfg.seed).state(),
        noise_spare: None,
        loss_sum: 0.0,
        loss_count: 0,
        w_in: model.w_in.clone(),
        w_out: model.w_out.clone(),
        accountant_orders_max: 0,
        accountant_rdp: Vec::new(),
        accountant_steps: 0,
    }
}

/// Runs `perfbench fit-child …` and returns its report.
pub fn spawn_child(exe: &Path, args: &ChildArgs) -> Result<BTreeMap<String, f64>, String> {
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("fit-child")
        .arg("--spec")
        .arg(args.spec.name)
        .arg("--graph")
        .arg(&args.graph)
        .arg("--out")
        .arg(&args.out)
        .arg("--ckpt-dir")
        .arg(&args.ckpt_dir)
        .arg("--seed")
        .arg(args.seed.to_string())
        .arg("--trace")
        .arg(if args.trace { "1" } else { "0" });
    if let Some(spans) = &args.spans {
        cmd.arg("--spans").arg(spans);
    }
    let started = Instant::now();
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the fit child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "fit child {} failed after {:.1}s ({})",
            args.spec.name,
            started.elapsed().as_secs_f64(),
            output.status
        ));
    }
    parse_report(&String::from_utf8_lossy(&output.stdout))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_lines_round_trip() {
        let r = parse_report("fit_s 14.25\ncrc 305419896\n\n").unwrap();
        assert_eq!(r["fit_s"], 14.25);
        assert_eq!(r["crc"], 305_419_896.0);
        assert!(parse_report("fit_s\n").is_err());
        assert!(parse_report("fit_s fast\n").is_err());
    }

    #[test]
    fn specs_keep_the_paper_defaults() {
        let cfg = train_config(&POWER_PRIVATE, 1, None);
        assert_eq!((cfg.dim, cfg.negatives, cfg.batch_size), (128, 5, 128));
        assert_eq!((cfg.learning_rate, cfg.clip, cfg.sigma), (0.1, 2.0, 5.0));
        assert_eq!((cfg.epsilon, cfg.delta), (3.5, 1e-5));
        assert_eq!(cfg.checkpoint_every, Some(1_000));
        assert_eq!(proximity_kind(), ProximityKind::DeepWalk { window: 2 });
        assert!(spec("blogcatalog-prep").is_some());
        assert!(spec("nope").is_none());
    }
}
