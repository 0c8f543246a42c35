//! The high-level fit pipeline: proximity → Algorithm 1 → Algorithm 2.

use sp_graph::Graph;
use sp_linalg::DenseMatrix;
use sp_model::checkpoint::train_with_checkpoints;
use sp_model::ModelError;
use sp_proximity::{EdgeProximity, ProximityKind};
use sp_skipgram::{
    NegativeSampling, PerturbStrategy, SkipGramModel, TrainConfig, TrainReport, Trainer,
};
use std::path::PathBuf;

/// A configured SE-PrivGEmb instance. Construct with
/// [`SePrivGEmb::builder`]; run with [`SePrivGEmb::fit`].
#[derive(Clone, Debug)]
pub struct SePrivGEmb {
    train: TrainConfig,
    proximity: ProximityKind,
}

/// Builder over every paper parameter; unset fields keep the paper's
/// §VI-A defaults.
#[derive(Clone, Debug)]
pub struct SePrivGEmbBuilder {
    train: TrainConfig,
    proximity: ProximityKind,
}

impl Default for SePrivGEmbBuilder {
    fn default() -> Self {
        Self {
            train: TrainConfig::default(),
            proximity: ProximityKind::deepwalk_default(),
        }
    }
}

impl SePrivGEmbBuilder {
    /// Embedding dimension `r` (default 128).
    pub fn dim(mut self, dim: usize) -> Self {
        self.train.dim = dim;
        self
    }

    /// Structure preference (default: DeepWalk proximity, window 2).
    pub fn proximity(mut self, kind: ProximityKind) -> Self {
        self.proximity = kind;
        self
    }

    /// Negative samples per edge `k` (default 5).
    pub fn negatives(mut self, k: usize) -> Self {
        self.train.negatives = k;
        self
    }

    /// Batch size `B` (default 128).
    pub fn batch_size(mut self, b: usize) -> Self {
        self.train.batch_size = b;
        self
    }

    /// Learning rate `η` (default 0.1).
    pub fn learning_rate(mut self, lr: f64) -> Self {
        self.train.learning_rate = lr;
        self
    }

    /// Clipping threshold `C` (default 2).
    pub fn clip(mut self, c: f64) -> Self {
        self.train.clip = c;
        self
    }

    /// Noise multiplier `σ` (default 5).
    pub fn sigma(mut self, s: f64) -> Self {
        self.train.sigma = s;
        self
    }

    /// Privacy budget ε (default 3.5).
    pub fn epsilon(mut self, e: f64) -> Self {
        self.train.epsilon = e;
        self
    }

    /// Failure probability δ (default 1e-5).
    pub fn delta(mut self, d: f64) -> Self {
        self.train.delta = d;
        self
    }

    /// Maximum epochs (default 200; the paper uses 2000 for link
    /// prediction — see [`crate::presets`]).
    pub fn epochs(mut self, n: usize) -> Self {
        self.train.epochs = n;
        self
    }

    /// Perturbation strategy (default: the paper's non-zero
    /// perturbation; [`PerturbStrategy::None`] gives the non-private
    /// SE-GEmb).
    pub fn strategy(mut self, s: PerturbStrategy) -> Self {
        self.train.strategy = s;
        self
    }

    /// Negative-sampling scheme (default: Algorithm 1's uniform
    /// non-neighbour sampling, required for Theorem 3).
    pub fn negative_sampling(mut self, ns: NegativeSampling) -> Self {
        self.train.negative_sampling = ns;
        self
    }

    /// RNG seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.train.seed = s;
        self
    }

    /// Persist a `.spc` training checkpoint every `steps` optimizer
    /// steps (unset by default). Takes effect through
    /// [`SePrivGEmb::fit_checkpointed`] together with
    /// [`SePrivGEmbBuilder::checkpoint_dir`]; cadence never changes
    /// the fitted model — only how often progress is made durable.
    pub fn checkpoint_every(mut self, steps: u64) -> Self {
        self.train.checkpoint_every = Some(steps);
        self
    }

    /// Directory that receives `.spc` checkpoints (and is scanned on
    /// resume). Created on first use.
    pub fn checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.train.checkpoint_dir = Some(dir.into());
        self
    }

    /// Worker threads for the proximity build and the training step
    /// pipeline (default: the `SP_THREADS` environment variable, then
    /// the available parallelism; see `TrainConfig::threads`). The
    /// fitted model is byte-identical for every thread count —
    /// parallelism never perturbs a seeded run or its privacy
    /// accounting.
    pub fn threads(mut self, t: usize) -> Self {
        self.train.threads = Some(t);
        self
    }

    /// Finalises; panics on invalid parameter combinations.
    pub fn build(self) -> SePrivGEmb {
        if let Err(e) = self.train.validate() {
            panic!("invalid SE-PrivGEmb configuration: {e}");
        }
        SePrivGEmb {
            train: self.train,
            proximity: self.proximity,
        }
    }
}

/// The trained artefacts.
#[derive(Clone, Debug)]
pub struct EmbeddingResult {
    /// The trained skip-gram model (`Θ = {W_in, W_out}`, both DP).
    pub model: SkipGramModel,
    /// Training telemetry (epochs run, budget spent, early stop).
    pub report: TrainReport,
    /// The proximity weighting used (edge weights + `min(P)`).
    pub proximity: EdgeProximity,
}

impl EmbeddingResult {
    /// The published node vectors (`W_in`), one row per node — the
    /// matrix downstream tasks consume (Theorem 2: any
    /// post-processing of it stays `(ε, δ)`-DP).
    pub fn embeddings(&self) -> &DenseMatrix {
        &self.model.w_in
    }
}

/// A crash-safe fit's artefacts: the trained result plus where (if
/// anywhere) the run resumed from.
#[derive(Clone, Debug)]
pub struct CheckpointedEmbedding {
    /// The trained artefacts — bit-identical to an uninterrupted
    /// [`SePrivGEmb::fit`] of the same configuration.
    pub result: EmbeddingResult,
    /// The `.spc` checkpoint this run resumed from, when one existed.
    pub resumed_from: Option<PathBuf>,
}

impl SePrivGEmb {
    /// Entry point: a builder pre-loaded with the paper's defaults.
    ///
    /// ```
    /// use se_privgemb::{ProximityKind, SePrivGEmb};
    /// use sp_graph::Graph;
    ///
    /// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
    /// let result = SePrivGEmb::builder()
    ///     .dim(8)
    ///     .epochs(5)
    ///     .proximity(ProximityKind::Degree)
    ///     .epsilon(2.0)
    ///     .seed(42)
    ///     .build()
    ///     .fit(&g);
    /// assert_eq!(result.embeddings().rows(), 4);
    /// assert!(result.report.epsilon_spent <= 2.0);
    /// ```
    pub fn builder() -> SePrivGEmbBuilder {
        SePrivGEmbBuilder::default()
    }

    /// The underlying training configuration.
    pub fn train_config(&self) -> &TrainConfig {
        &self.train
    }

    /// The configured structure preference.
    pub fn proximity_kind(&self) -> ProximityKind {
        self.proximity
    }

    /// Computes the proximity weighting and runs Algorithm 2.
    pub fn fit(&self, g: &Graph) -> EmbeddingResult {
        let prox = EdgeProximity::compute_threads(g, self.proximity, self.train.threads);
        self.fit_with_proximity(g, prox)
    }

    /// Runs Algorithm 2 with a pre-computed proximity (lets callers
    /// amortise the proximity matrix across repeated runs, as the
    /// experiment sweeps do).
    pub fn fit_with_proximity(&self, g: &Graph, prox: EdgeProximity) -> EmbeddingResult {
        let (model, report) = Trainer::new(self.train.clone()).train(g, &prox);
        EmbeddingResult {
            model,
            report,
            proximity: prox,
        }
    }

    /// Crash-safe [`SePrivGEmb::fit`]: persists a `.spc` checkpoint
    /// every [`SePrivGEmbBuilder::checkpoint_every`] steps into
    /// [`SePrivGEmbBuilder::checkpoint_dir`], and — when `resume` is
    /// set — continues from the newest valid checkpoint found there.
    ///
    /// Resumed runs are bit-identical to an uninterrupted fit of the
    /// same configuration, including the privacy accountant: the raw
    /// RDP curve is restored from the snapshot, never re-spent, so the
    /// composed ε across any crash/resume sequence equals the
    /// uninterrupted run's and stays within budget.
    ///
    /// # Errors
    /// `Io(InvalidInput)` when no `checkpoint_dir` was configured;
    /// otherwise checkpoint IO failures or an `InvalidData` fingerprint
    /// mismatch (resuming against a different config or graph).
    pub fn fit_checkpointed(
        &self,
        g: &Graph,
        resume: bool,
    ) -> Result<CheckpointedEmbedding, ModelError> {
        let prox = EdgeProximity::compute_threads(g, self.proximity, self.train.threads);
        let trainer = Trainer::new(self.train.clone());
        let run = train_with_checkpoints(&trainer, g, &prox, None, resume)?;
        Ok(CheckpointedEmbedding {
            result: EmbeddingResult {
                model: run.model,
                report: run.report,
                proximity: prox,
            },
            resumed_from: run.resumed_from,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_eval::{struc_equ, PairSelection};

    fn two_cliques_bridge(k: usize) -> Graph {
        let mut edges = Vec::new();
        let k = k as u32;
        for i in 0..k {
            for j in (i + 1)..k {
                edges.push((i, j));
                edges.push((i + k, j + k));
            }
        }
        edges.push((0, k));
        Graph::from_edges(2 * k as usize, edges)
    }

    fn quick_builder() -> SePrivGEmbBuilder {
        SePrivGEmb::builder()
            .dim(16)
            .negatives(3)
            .batch_size(16)
            .epochs(30)
            .seed(42)
    }

    #[test]
    fn fit_produces_embeddings_within_budget() {
        let g = two_cliques_bridge(8);
        let result = quick_builder().epsilon(3.5).build().fit(&g);
        assert_eq!(result.embeddings().rows(), 16);
        assert_eq!(result.embeddings().cols(), 16);
        assert!(result.report.epsilon_spent <= 3.5);
        assert!(result.report.delta_spent < 1e-5);
    }

    #[test]
    fn nonzero_beats_naive_on_structure() {
        // Table VI's headline: the non-zero perturbation strategy
        // preserves far more structure than the naive B·C-sensitivity
        // strategy at the same budget. The cliques must be large
        // enough for the budget to admit real training: on two
        // 10-cliques (γ = 16/91) it binds after 19 steps, where
        // neither strategy has moved off its random init and the
        // comparison is a coin flip. On two 25-cliques (γ = 16/601)
        // all 1,520 steps run and non-zero wins on every seed tried.
        let g = two_cliques_bridge(25);
        let nz = quick_builder()
            .strategy(PerturbStrategy::NonZero)
            .epochs(40)
            .seed(11)
            .build()
            .fit(&g);
        let naive = quick_builder()
            .strategy(PerturbStrategy::Naive)
            .epochs(40)
            .seed(11)
            .build()
            .fit(&g);
        let s_nz = struc_equ(&g, nz.embeddings(), PairSelection::All).unwrap();
        let s_naive = struc_equ(&g, naive.embeddings(), PairSelection::All).unwrap();
        assert!(
            s_nz > s_naive,
            "non-zero ({s_nz}) should beat naive ({s_naive})"
        );
    }

    #[test]
    fn nonprivate_training_learns_structure() {
        let g = two_cliques_bridge(10);
        let nonpriv = quick_builder()
            .strategy(PerturbStrategy::None)
            .epochs(120)
            .build()
            .fit(&g);
        let s = struc_equ(&g, nonpriv.embeddings(), PairSelection::All).unwrap();
        assert!(s > 0.2, "non-private StrucEqu too weak: {s}");
    }

    #[test]
    fn proximity_kind_flows_through() {
        let g = two_cliques_bridge(6);
        let model = quick_builder().proximity(ProximityKind::Degree).build();
        assert_eq!(model.proximity_kind(), ProximityKind::Degree);
        let result = model.fit(&g);
        assert_eq!(result.proximity.kind, ProximityKind::Degree);
        assert_eq!(result.proximity.len(), g.num_edges());
    }

    #[test]
    fn fit_with_precomputed_proximity_matches_fit() {
        let g = two_cliques_bridge(6);
        let model = quick_builder().build();
        let prox = EdgeProximity::compute(&g, model.proximity_kind());
        let a = model.fit(&g);
        let b = model.fit_with_proximity(&g, prox);
        assert_eq!(a.embeddings().as_slice(), b.embeddings().as_slice());
    }

    #[test]
    fn builder_covers_every_paper_parameter() {
        let m = SePrivGEmb::builder()
            .dim(64)
            .negatives(7)
            .batch_size(256)
            .learning_rate(0.15)
            .clip(3.0)
            .sigma(4.0)
            .epsilon(2.0)
            .delta(1e-6)
            .epochs(100)
            .strategy(PerturbStrategy::Naive)
            .negative_sampling(NegativeSampling::DegreeProportional)
            .seed(5)
            .threads(2)
            .checkpoint_every(500)
            .checkpoint_dir("/tmp/ckpts")
            .proximity(ProximityKind::Degree)
            .build();
        let c = m.train_config();
        assert_eq!(c.dim, 64);
        assert_eq!(c.negatives, 7);
        assert_eq!(c.batch_size, 256);
        assert_eq!(c.learning_rate, 0.15);
        assert_eq!(c.clip, 3.0);
        assert_eq!(c.sigma, 4.0);
        assert_eq!(c.epsilon, 2.0);
        assert_eq!(c.delta, 1e-6);
        assert_eq!(c.epochs, 100);
        assert_eq!(c.strategy, PerturbStrategy::Naive);
        assert_eq!(c.negative_sampling, NegativeSampling::DegreeProportional);
        assert_eq!(c.seed, 5);
        assert_eq!(c.threads, Some(2));
        assert_eq!(c.checkpoint_every, Some(500));
        assert_eq!(
            c.checkpoint_dir.as_deref(),
            Some(std::path::Path::new("/tmp/ckpts"))
        );
    }

    #[test]
    fn fit_checkpointed_matches_fit_bit_for_bit() {
        let g = two_cliques_bridge(6);
        let dir = std::env::temp_dir().join(format!("se_privgemb_ckpt_{}", std::process::id()));
        let model = quick_builder()
            .checkpoint_every(2)
            .checkpoint_dir(&dir)
            .build();
        let plain = quick_builder().build().fit(&g);
        let checkpointed = model.fit_checkpointed(&g, false).unwrap();
        assert!(checkpointed.resumed_from.is_none());
        assert_eq!(
            plain.embeddings().as_slice(),
            checkpointed.result.embeddings().as_slice(),
            "checkpoint cadence must never change the fitted model"
        );
        assert_eq!(
            plain.report.epsilon_spent.to_bits(),
            checkpointed.result.report.epsilon_spent.to_bits()
        );
        // A second run resumes from the durable trail and still lands
        // on the identical model.
        let resumed = model.fit_checkpointed(&g, true).unwrap();
        assert!(resumed.resumed_from.is_some());
        assert_eq!(
            plain.embeddings().as_slice(),
            resumed.result.embeddings().as_slice()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "invalid SE-PrivGEmb configuration")]
    fn builder_rejects_nonsense() {
        SePrivGEmb::builder().dim(0).build();
    }
}
