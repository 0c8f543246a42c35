//! # sp-dynamic
//!
//! Dynamic graph embedding under **continual differential privacy** —
//! the extension the paper names as future work (§VIII):
//!
//! > "we also plan to extend our method to dynamic graph embedding
//! > while obeying differential privacy. Addressing dynamic graphs
//! > will face two significant challenges: allocating privacy budgets
//! > to each data element at each version and managing noise
//! > accumulation during continuous data publishing."
//!
//! This crate addresses exactly those two challenges:
//!
//! 1. **Budget allocation** ([`BudgetAllocation`]): the total
//!    `(ε, δ)` is split across the `T` published snapshots — uniformly
//!    or with geometric decay (recent snapshots, which dominate
//!    analytics, get more budget). Sequential composition bounds the
//!    total spend by the sum of the per-snapshot budgets.
//! 2. **Noise management via warm starts** ([`DynamicEmbedder`]):
//!    snapshot `t` initialises from snapshot `t-1`'s *published*
//!    model. Because the previous model is already DP, the warm start
//!    is post-processing and costs nothing — but it means each
//!    snapshot only needs to learn the *delta*, so the per-snapshot
//!    budget goes further and noise does not restart from scratch.
//!
//! [`DynamicEmbedder::fit`] returns each snapshot's model with the
//! seed and budget it trained under, ready to publish in the
//! [`sp_model`] format. With `base.checkpoint_dir` set, every snapshot
//! trains crash-safely into its own checkpoint subdirectory, and a
//! failed checkpoint write comes back as a [`ModelError`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sp_graph::Graph;
use sp_model::checkpoint::train_with_checkpoints;
use sp_model::ModelError;
use sp_proximity::{EdgeProximity, ProximityKind};
use sp_skipgram::{SkipGramModel, TrainConfig, TrainReport, Trainer};

/// How the total privacy budget is divided across snapshots.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BudgetAllocation {
    /// Every snapshot gets `ε/T`, `δ/T`.
    Uniform,
    /// Snapshot `t` (0-based) gets budget proportional to `rho^(T-1-t)`
    /// — later snapshots get more. `rho ∈ (0, 1]`; `rho = 1` is
    /// uniform.
    GeometricDecay {
        /// Decay factor per step back in time.
        rho: f64,
    },
}

impl BudgetAllocation {
    /// Per-snapshot ε shares summing to `total_eps` (δ is always split
    /// uniformly; it is a failure probability, not a utility knob).
    pub fn split(&self, total_eps: f64, snapshots: usize) -> Vec<f64> {
        assert!(snapshots > 0, "need at least one snapshot");
        assert!(total_eps > 0.0, "epsilon must be positive");
        match *self {
            BudgetAllocation::Uniform => {
                vec![total_eps / snapshots as f64; snapshots]
            }
            BudgetAllocation::GeometricDecay { rho } => {
                assert!(rho > 0.0 && rho <= 1.0, "rho must be in (0,1]");
                let weights: Vec<f64> = (0..snapshots)
                    .map(|t| rho.powi((snapshots - 1 - t) as i32))
                    .collect();
                let total_w: f64 = weights.iter().sum();
                weights
                    .into_iter()
                    .map(|w| total_eps * w / total_w)
                    .collect()
            }
        }
    }
}

/// Configuration of the continual embedder.
#[derive(Clone, Debug)]
pub struct DynamicConfig {
    /// Base training configuration applied to each snapshot (its
    /// `epsilon`/`delta` fields are overwritten by the allocation).
    pub base: TrainConfig,
    /// The structure preference used at every snapshot.
    pub proximity: ProximityKind,
    /// Total ε across all published snapshots.
    pub total_epsilon: f64,
    /// Total δ across all published snapshots.
    pub total_delta: f64,
    /// The allocation rule.
    pub allocation: BudgetAllocation,
    /// Warm-start each snapshot from the previous published model.
    pub warm_start: bool,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        Self {
            base: TrainConfig::default(),
            proximity: ProximityKind::deepwalk_default(),
            total_epsilon: 3.5,
            total_delta: 1e-5,
            allocation: BudgetAllocation::Uniform,
            warm_start: true,
        }
    }
}

/// One published snapshot's artefacts.
#[derive(Clone, Debug)]
pub struct SnapshotResult {
    /// The DP model published at this version.
    pub model: SkipGramModel,
    /// Training telemetry.
    pub report: TrainReport,
    /// ε allocated to this snapshot.
    pub epsilon_allocated: f64,
    /// ℓ2 drift of `W_in` from the previous published version
    /// (`0.0` for the first snapshot).
    pub drift: f64,
    /// The seed this snapshot trained under (base seed + snapshot
    /// index), recorded so publication carries full provenance.
    pub seed: u64,
}

/// Continual embedder over a sequence of graph snapshots.
#[derive(Clone, Debug)]
pub struct DynamicEmbedder {
    config: DynamicConfig,
}

impl DynamicEmbedder {
    /// New embedder; panics on invalid configuration.
    pub fn new(config: DynamicConfig) -> Self {
        assert!(config.total_epsilon > 0.0, "total epsilon must be positive");
        assert!(
            config.total_delta > 0.0 && config.total_delta < 1.0,
            "total delta must be in (0,1)"
        );
        if let Err(e) = config.base.validate() {
            panic!("invalid base TrainConfig: {e}");
        }
        Self { config }
    }

    /// Trains every snapshot in order. All snapshots must share the
    /// node universe (same `num_nodes`).
    ///
    /// Total privacy: by sequential composition the published sequence
    /// satisfies `(Σ ε_t, Σ δ_t) = (total_epsilon, total_delta)`
    /// node-level DP.
    ///
    /// # Errors
    /// [`ModelError`] when `base.checkpoint_dir` is set and a
    /// checkpoint cannot be written; in-memory-only training is
    /// otherwise infallible.
    ///
    /// # Panics
    /// On an empty sequence, or snapshots with different node counts.
    pub fn fit(&self, snapshots: &[Graph]) -> Result<Vec<SnapshotResult>, ModelError> {
        assert!(!snapshots.is_empty(), "need at least one snapshot");
        let n = snapshots[0].num_nodes();
        for (t, g) in snapshots.iter().enumerate() {
            assert_eq!(
                g.num_nodes(),
                n,
                "snapshot {t} has a different node universe"
            );
        }
        let eps_shares = self
            .config
            .allocation
            .split(self.config.total_epsilon, snapshots.len());
        let delta_share = self.config.total_delta / snapshots.len() as f64;

        let mut results: Vec<SnapshotResult> = Vec::with_capacity(snapshots.len());
        let mut previous: Option<SkipGramModel> = None;
        for (t, g) in snapshots.iter().enumerate() {
            let mut cfg = self.config.base.clone();
            cfg.epsilon = eps_shares[t];
            cfg.delta = delta_share;
            cfg.seed = self.config.base.seed.wrapping_add(t as u64);
            // Each snapshot trains under its own seed, ε share, and
            // warm start, so checkpoints from different snapshots are
            // never interchangeable: give each its own subdirectory.
            if let Some(base_dir) = &self.config.base.checkpoint_dir {
                cfg.checkpoint_dir = Some(base_dir.join(format!("snapshot-{t:04}")));
            }
            let snapshot_seed = cfg.seed;
            // Honour the configured thread knob for the per-snapshot
            // proximity build too (publishers often run inside their
            // own pool with base.threads pinned to 1).
            let prox =
                EdgeProximity::compute_threads(g, self.config.proximity, self.config.base.threads);
            let trainer = Trainer::new(cfg);
            let initial = match (&previous, self.config.warm_start) {
                (Some(prev), true) => Some(prev.clone()),
                _ => None,
            };
            let (model, report) = if trainer.config().checkpoint_dir.is_some() {
                let run = train_with_checkpoints(&trainer, g, &prox, initial, true)?;
                (run.model, run.report)
            } else {
                match initial {
                    Some(prev) => trainer.train_from(g, &prox, prev),
                    None => trainer.train(g, &prox),
                }
            };
            let drift = previous
                .as_ref()
                .map(|prev| {
                    let mut d = model.w_in.clone();
                    d.add_scaled(-1.0, &prev.w_in);
                    d.frobenius_norm()
                })
                .unwrap_or(0.0);
            previous = Some(model.clone());
            results.push(SnapshotResult {
                model,
                report,
                epsilon_allocated: eps_shares[t],
                drift,
                seed: snapshot_seed,
            });
        }
        Ok(results)
    }

    /// The configuration.
    pub fn config(&self) -> &DynamicConfig {
        &self.config
    }
}

/// Generates an evolving snapshot sequence: starts from `initial` and
/// adds `edges_per_step` random new edges (preferentially attached)
/// per snapshot — a growing-network simulator for continual-publishing
/// experiments.
pub fn evolve_graph<R: rand::Rng + ?Sized>(
    initial: &Graph,
    steps: usize,
    edges_per_step: usize,
    rng: &mut R,
) -> Vec<Graph> {
    let n = initial.num_nodes();
    let mut snapshots = vec![initial.clone()];
    let mut edges: Vec<(u32, u32)> = initial.edges().to_vec();
    // Degree-weighted endpoint pool (preferential attachment growth).
    let mut pool: Vec<u32> = edges.iter().flat_map(|&(u, v)| [u, v]).collect();
    for _ in 0..steps {
        let mut added = 0usize;
        let mut guard = 0usize;
        while added < edges_per_step && guard < edges_per_step * 100 {
            guard += 1;
            let u = if pool.is_empty() || rng.gen_bool(0.2) {
                rng.gen_range(0..n as u32)
            } else {
                pool[rng.gen_range(0..pool.len())]
            };
            let v = rng.gen_range(0..n as u32);
            if u == v {
                continue;
            }
            let key = (u.min(v), u.max(v));
            if edges.contains(&key) {
                continue;
            }
            edges.push(key);
            pool.push(u);
            pool.push(v);
            added += 1;
        }
        snapshots.push(Graph::from_edges(n, edges.iter().copied()));
    }
    snapshots
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sp_datasets::generators;
    use sp_eval::{struc_equ, PairSelection};
    use sp_skipgram::PerturbStrategy;

    fn base_cfg() -> TrainConfig {
        TrainConfig {
            dim: 16,
            epochs: 10,
            batch_size: 16,
            negatives: 3,
            ..TrainConfig::default()
        }
    }

    fn snapshots() -> Vec<Graph> {
        let mut rng = StdRng::seed_from_u64(1);
        let g0 = generators::barabasi_albert(100, 3, &mut rng);
        evolve_graph(&g0, 3, 40, &mut rng)
    }

    #[test]
    fn uniform_split_sums_to_total() {
        let shares = BudgetAllocation::Uniform.split(3.5, 7);
        assert_eq!(shares.len(), 7);
        assert!((shares.iter().sum::<f64>() - 3.5).abs() < 1e-12);
        assert!(shares.iter().all(|&s| (s - 0.5).abs() < 1e-12));
    }

    #[test]
    fn decay_split_favours_recent_snapshots() {
        let shares = BudgetAllocation::GeometricDecay { rho: 0.5 }.split(2.0, 4);
        assert!((shares.iter().sum::<f64>() - 2.0).abs() < 1e-12);
        for w in shares.windows(2) {
            assert!(w[1] > w[0], "later snapshots must get more budget");
        }
        // rho = 1 degenerates to uniform.
        let flat = BudgetAllocation::GeometricDecay { rho: 1.0 }.split(2.0, 4);
        assert!(flat.iter().all(|&s| (s - 0.5).abs() < 1e-12));
    }

    #[test]
    fn evolve_graph_grows_monotonically() {
        let snaps = snapshots();
        assert_eq!(snaps.len(), 4);
        for w in snaps.windows(2) {
            assert!(w[1].num_edges() > w[0].num_edges());
            // Old edges are never removed.
            for &(u, v) in w[0].edges() {
                assert!(w[1].has_edge(u, v));
            }
        }
    }

    #[test]
    fn fit_publishes_every_snapshot_within_budget() {
        let snaps = snapshots();
        let embedder = DynamicEmbedder::new(DynamicConfig {
            base: base_cfg(),
            total_epsilon: 2.0,
            ..DynamicConfig::default()
        });
        let results = embedder.fit(&snaps).unwrap();
        assert_eq!(results.len(), snaps.len());
        let mut total_spent = 0.0;
        for (t, r) in results.iter().enumerate() {
            assert_eq!(r.model.w_in.rows(), 100);
            assert!(
                r.report.epsilon_spent <= r.epsilon_allocated + 1e-9,
                "snapshot {t} overspent"
            );
            total_spent += r.report.epsilon_spent;
        }
        assert!(
            total_spent <= 2.0 + 1e-9,
            "sequence overspent: {total_spent}"
        );
    }

    #[test]
    fn first_snapshot_has_zero_drift_and_later_ones_positive() {
        let snaps = snapshots();
        let embedder = DynamicEmbedder::new(DynamicConfig {
            base: base_cfg(),
            ..DynamicConfig::default()
        });
        let results = embedder.fit(&snaps).unwrap();
        assert_eq!(results[0].drift, 0.0);
        for r in &results[1..] {
            assert!(r.drift > 0.0);
        }
    }

    #[test]
    fn warm_start_reduces_drift() {
        let snaps = snapshots();
        let run = |warm: bool| {
            DynamicEmbedder::new(DynamicConfig {
                base: base_cfg(),
                warm_start: warm,
                ..DynamicConfig::default()
            })
            .fit(&snaps)
            .unwrap()
            .iter()
            .skip(1)
            .map(|r| r.drift)
            .sum::<f64>()
        };
        let warm_drift = run(true);
        let cold_drift = run(false);
        assert!(
            warm_drift < cold_drift,
            "warm starts must reduce version-to-version drift: {warm_drift} vs {cold_drift}"
        );
    }

    #[test]
    fn warm_start_non_private_improves_late_snapshot_utility() {
        // With no noise, warm starting accumulates training across
        // snapshots, so the last snapshot beats a cold-started run of
        // the same per-snapshot length.
        let snaps = snapshots();
        let mut cfg = base_cfg();
        cfg.strategy = PerturbStrategy::None;
        cfg.epochs = 15;
        let run = |warm: bool| {
            let results = DynamicEmbedder::new(DynamicConfig {
                base: cfg.clone(),
                warm_start: warm,
                ..DynamicConfig::default()
            })
            .fit(&snaps)
            .unwrap();
            let last = results.last().unwrap();
            struc_equ(snaps.last().unwrap(), &last.model.w_in, PairSelection::All).unwrap_or(0.0)
        };
        let warm = run(true);
        let cold = run(false);
        assert!(
            warm > cold,
            "warm start should help the final snapshot: {warm} vs {cold}"
        );
    }

    #[test]
    #[should_panic(expected = "different node universe")]
    fn mismatched_node_universe_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = generators::erdos_renyi(50, 100, &mut rng);
        let b = generators::erdos_renyi(60, 100, &mut rng);
        DynamicEmbedder::new(DynamicConfig {
            base: base_cfg(),
            ..DynamicConfig::default()
        })
        .fit(&[a, b])
        .unwrap();
    }

    #[test]
    fn unwritable_checkpoint_dir_is_a_typed_error() {
        // A regular file where the checkpoint directory should be:
        // creating the per-snapshot subdirectory fails for any user.
        let blocker =
            std::env::temp_dir().join(format!("sp_dynamic_ckpt_blocker_{}", std::process::id()));
        std::fs::write(&blocker, b"not a directory").unwrap();
        let embedder = DynamicEmbedder::new(DynamicConfig {
            base: TrainConfig {
                checkpoint_every: Some(1),
                checkpoint_dir: Some(blocker.join("ckpts")),
                ..base_cfg()
            },
            ..DynamicConfig::default()
        });
        let err = embedder.fit(&snapshots()).unwrap_err();
        std::fs::remove_file(&blocker).ok();
        assert!(matches!(err, ModelError::Io(_)), "{err:?}");
    }

    #[test]
    #[should_panic(expected = "rho must be in")]
    fn bad_rho_rejected() {
        BudgetAllocation::GeometricDecay { rho: 1.5 }.split(1.0, 3);
    }

    #[test]
    fn snapshot_seeds_are_recorded_per_version() {
        let snaps = snapshots();
        let base = base_cfg();
        let base_seed = base.seed;
        let results = DynamicEmbedder::new(DynamicConfig {
            base,
            ..DynamicConfig::default()
        })
        .fit(&snaps)
        .unwrap();
        for (t, r) in results.iter().enumerate() {
            assert_eq!(r.seed, base_seed.wrapping_add(t as u64));
        }
    }
}
