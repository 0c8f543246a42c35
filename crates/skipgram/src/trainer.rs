//! Algorithm 2: the SE-PrivGEmb training loop.
//!
//! Per *step*, the trainer samples `B` subgraphs uniformly without
//! replacement from the pre-computed `G_S` (Algorithm 1), computes the
//! per-example gradients (Eq. 7/8), clips each example's joint
//! gradient to `C`, sums, perturbs according to the
//! [`PerturbStrategy`], and applies the averaged update with learning
//! rate `η`. An *epoch* is `⌈|E|/B⌉` steps (one expected pass over the
//! edge set); the RDP accountant charges each step as one subsampled
//! Gaussian mechanism with rate `γ = B/|E|` and stops training the
//! moment the next step would exceed the `(ε, δ)` budget (lines 8–10).
//!
//! Randomness: the hot loop (noise + batch sampling) uses `SmallRng`
//! seeded from the config — fast and reproducible. A cryptographic
//! generator would be required for a production DP deployment; for
//! reproducing the paper's utility the statistical quality of
//! xoshiro256++ is more than sufficient (see DESIGN.md).

use crate::model::{GradBuffer, SkipGramModel};
use crate::perturb::PerturbStrategy;
use crate::subgraph::{NegativeSampling, SubgraphGen};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sp_dp::{BudgetedAccountant, GaussianSampler, PrivacyBudget};
use sp_graph::{Graph, NodeId};
use sp_linalg::{vector, DenseMatrix};
use sp_proximity::EdgeProximity;
use std::io;
use std::path::PathBuf;

/// Hyper-parameters of Algorithm 2. Defaults are the paper's §VI-A
/// settings (r=128, k=5, B=128, η=0.1, C=2, σ=5, δ=1e-5, ε=3.5,
/// 200 epochs).
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Embedding dimension `r`.
    pub dim: usize,
    /// Negative samples per edge `k`.
    pub negatives: usize,
    /// Batch size `B`.
    pub batch_size: usize,
    /// Learning rate `η`.
    pub learning_rate: f64,
    /// Gradient clipping threshold `C`.
    pub clip: f64,
    /// Noise multiplier `σ`.
    pub sigma: f64,
    /// Target privacy budget ε.
    pub epsilon: f64,
    /// Target failure probability δ.
    pub delta: f64,
    /// Maximum number of epochs (`n_epoch`); an epoch is `⌈|E|/B⌉`
    /// steps.
    pub epochs: usize,
    /// Noise strategy.
    pub strategy: PerturbStrategy,
    /// Negative-sampling scheme for Algorithm 1.
    pub negative_sampling: NegativeSampling,
    /// RNG seed (drives initialisation, sampling, and noise).
    pub seed: u64,
    /// Worker threads for the per-example gradient pass (`None`
    /// resolves via [`sp_parallel::resolve_threads`]: the `SP_THREADS`
    /// environment variable, then the available parallelism).
    ///
    /// An explicit `Some(n > 1)` always routes the gradient pass
    /// through the worker pool; an auto-resolved count engages it only
    /// when the batch carries enough arithmetic to amortise the
    /// per-step pool spawn (so toy configs stay on the serial path).
    ///
    /// **Determinism contract:** gradients are computed and clipped in
    /// parallel but reduced into the batch accumulator serially, in
    /// batch-sample order, and the batch sampler, noise generator, and
    /// RDP accountant stay on the caller thread — so for a fixed seed
    /// the trained model and the privacy spend are byte-identical for
    /// every thread count (asserted by `tests/parallel_determinism.rs`).
    pub threads: Option<usize>,
    /// Crash safety: emit a [`TrainerState`] snapshot to the checkpoint
    /// sink every this many completed steps (`None` disables). The
    /// cadence is not part of the run's identity — changing it between
    /// crash and resume still reproduces the uninterrupted run
    /// bit-for-bit, because snapshots capture the full loop state at a
    /// step boundary.
    pub checkpoint_every: Option<u64>,
    /// Directory the checkpoint layer (`sp_model::checkpoint`) writes
    /// `.spc` files into. The trainer itself never touches the
    /// filesystem; this setting rides along so pipeline layers
    /// ([`crate::Trainer::train_checkpointed`] callers, the CLI,
    /// `sp_dynamic`) know where to persist and resume from.
    pub checkpoint_dir: Option<PathBuf>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            dim: 128,
            negatives: 5,
            batch_size: 128,
            learning_rate: 0.1,
            clip: 2.0,
            sigma: 5.0,
            epsilon: 3.5,
            delta: 1e-5,
            epochs: 200,
            strategy: PerturbStrategy::NonZero,
            negative_sampling: NegativeSampling::UniformNonNeighbor,
            seed: 0x5EED,
            threads: None,
            checkpoint_every: None,
            checkpoint_dir: None,
        }
    }
}

impl TrainConfig {
    /// Validates parameter ranges; returns the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.dim == 0 {
            return Err("dim must be >= 1".into());
        }
        if self.negatives == 0 {
            return Err("negatives must be >= 1".into());
        }
        if self.batch_size == 0 {
            return Err("batch_size must be >= 1".into());
        }
        if self.learning_rate.is_nan() || self.learning_rate <= 0.0 {
            return Err("learning_rate must be positive".into());
        }
        if self.clip.is_nan() || self.clip <= 0.0 {
            return Err("clip must be positive".into());
        }
        if self.threads == Some(0) {
            return Err("threads must be >= 1 when set".into());
        }
        if self.checkpoint_every == Some(0) {
            return Err("checkpoint_every must be >= 1 when set".into());
        }
        if self.strategy.is_private() {
            if self.sigma.is_nan() || self.sigma <= 0.0 {
                return Err("sigma must be positive for private training".into());
            }
            if self.epsilon.is_nan() || self.epsilon <= 0.0 {
                return Err("epsilon must be positive".into());
            }
            if self.delta.is_nan() || self.delta <= 0.0 || self.delta >= 1.0 {
                return Err("delta must be in (0,1)".into());
            }
        }
        Ok(())
    }

    /// FNV-1a hash over every parameter that determines the training
    /// trajectory, plus the graph shape. A checkpoint records this and
    /// resume refuses a mismatch — replaying a snapshot under a
    /// different config would silently produce garbage (or, worse,
    /// mis-account privacy).
    ///
    /// Deliberately excluded, because they never change results:
    /// `threads` (a crash on a 4-core box may resume on 1 core) and the
    /// checkpoint cadence/location themselves.
    pub fn fingerprint(&self, num_nodes: usize, num_edges: usize) -> u64 {
        let strategy = match self.strategy {
            PerturbStrategy::None => 0u64,
            PerturbStrategy::Naive => 1,
            PerturbStrategy::NonZero => 2,
        };
        let sampling = match self.negative_sampling {
            NegativeSampling::UniformNonNeighbor => 0u64,
            NegativeSampling::DegreeProportional => 1,
        };
        let words = [
            0x5350_4345_4B50_5431u64, // "SPCEKPT1": format discriminator
            self.dim as u64,
            self.negatives as u64,
            self.batch_size as u64,
            self.learning_rate.to_bits(),
            self.clip.to_bits(),
            self.sigma.to_bits(),
            self.epsilon.to_bits(),
            self.delta.to_bits(),
            self.epochs as u64,
            strategy,
            sampling,
            self.seed,
            num_nodes as u64,
            num_edges as u64,
        ];
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for w in words {
            for b in w.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }
}

/// What happened during training.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Full epochs completed.
    pub epochs_run: usize,
    /// Batch steps completed.
    pub steps_run: u64,
    /// True when the privacy budget, not the epoch cap, ended training.
    pub stopped_by_budget: bool,
    /// ε spent at the target δ (0 for non-private runs).
    pub epsilon_spent: f64,
    /// δ̂ at the target ε (0 for non-private runs).
    pub delta_spent: f64,
    /// Mean per-example loss over the final epoch's sampled batches.
    pub final_loss: f64,
}

/// A bit-exact snapshot of the training loop at a step boundary — the
/// payload of a `.spc` checkpoint (serialised by `sp_model`).
///
/// Everything the loop consumes after a step boundary is either (a)
/// derived deterministically from the config and the graph (subgraph
/// base seed, proximity weights, batch schedule *shape*) or (b)
/// captured here: the counters, the run RNG, the Marsaglia sampler's
/// cached spare, the loss accumulator, both embedding matrices at full
/// `f64` precision, and the raw RDP curve. Restoring (b) and replaying
/// from the boundary therefore reproduces the uninterrupted run
/// bit-for-bit — including the privacy spend, which is restored (not
/// recomputed), so ε can never be double-spent across crashes.
#[derive(Clone, Debug)]
pub struct TrainerState {
    /// Binds the snapshot to a (config, graph shape) pair — see
    /// [`TrainConfig::fingerprint`]. Resume refuses a mismatch.
    pub fingerprint: u64,
    /// Batch steps completed.
    pub steps_run: u64,
    /// Epochs fully completed.
    pub epochs_run: u64,
    /// Steps completed inside the current epoch (the shard cursor of
    /// an out-of-core walk: step `s` covers sampled edge indices of
    /// batch `s`).
    pub step_in_epoch: u64,
    /// xoshiro256++ state of the run RNG.
    pub rng: [u64; 4],
    /// Cached spare deviate of the Gaussian sampler, if present.
    pub noise_spare: Option<f64>,
    /// Final-epoch loss accumulator: sum of per-example losses.
    pub loss_sum: f64,
    /// Final-epoch loss accumulator: number of examples.
    pub loss_count: u64,
    /// Centre embeddings `W_in`, full `f64` precision.
    pub w_in: DenseMatrix,
    /// Context embeddings `W_out`, full `f64` precision.
    pub w_out: DenseMatrix,
    /// Largest order of the accountant's RDP grid (0 when the run is
    /// non-private and carries no accountant).
    pub accountant_orders_max: u64,
    /// Raw accumulated RDP curve (empty for non-private runs).
    pub accountant_rdp: Vec<f64>,
    /// Steps recorded by the accountant.
    pub accountant_steps: u64,
}

/// Receives each boundary [`TrainerState`] during
/// [`Trainer::train_checkpointed`] and persists it; an `Err` aborts
/// the run (a run that cannot checkpoint must not continue past its
/// durability guarantee).
pub type CheckpointSink<'a> = &'a mut dyn FnMut(&TrainerState) -> io::Result<()>;

/// Minimum per-batch work (examples × contexts × dim) before an
/// *auto-resolved* thread count fans the gradient pass out over the
/// worker pool. `sp_parallel` spawns a fresh scoped pool every step
/// (~100 µs for 4 workers), so the batch must carry on the order of
/// that much gradient math before parallelism pays; the paper's §VI-A
/// configuration (B=128, k=5, r=128 ⇒ 98 304) crosses the bar, toy and
/// test configs do not. An explicit `TrainConfig::threads = Some(n>1)`
/// bypasses the heuristic — the caller asked for the pool. The cutover
/// never changes results — only which path computes them.
const PAR_GRAD_MIN_WORK: usize = 65_536;

/// Runs Algorithm 2 on a graph + proximity weighting.
#[derive(Clone, Debug)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer; panics on invalid configuration (the
    /// experiments construct configs programmatically — a typo should
    /// fail fast, not silently train garbage).
    pub fn new(config: TrainConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid TrainConfig: {e}");
        }
        Self { config }
    }

    /// Access to the configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains and returns the model (both embedding matrices — the
    /// published `Θ = {W_in, W_out}`) and a report.
    ///
    /// # Panics
    /// Panics if the graph has no edges (there is nothing to embed).
    pub fn train(&self, g: &Graph, prox: &EdgeProximity) -> (SkipGramModel, TrainReport) {
        self.train_impl(g, prox, None, None, None)
            .expect("training without a checkpoint sink cannot fail")
    }

    /// Trains starting from an existing model (warm start) — the
    /// continual-publishing pattern: the initial model is a previously
    /// *published* (already-DP) artefact, so reusing it is
    /// post-processing and costs no additional budget.
    ///
    /// # Panics
    /// Panics if `initial` does not match the graph's node count or
    /// the configured dimension.
    pub fn train_from(
        &self,
        g: &Graph,
        prox: &EdgeProximity,
        initial: SkipGramModel,
    ) -> (SkipGramModel, TrainReport) {
        assert_eq!(
            initial.num_nodes(),
            g.num_nodes(),
            "warm-start model node count mismatch"
        );
        assert_eq!(
            initial.dim(),
            self.config.dim,
            "warm-start model dimension mismatch"
        );
        self.train_impl(g, prox, Some(initial), None, None)
            .expect("training without a checkpoint sink cannot fail")
    }

    /// Checkpointed (and optionally resumed) training.
    ///
    /// Every [`TrainConfig::checkpoint_every`] completed steps, a
    /// [`TrainerState`] snapshot is handed to `sink` (which persists it
    /// — the trainer itself never touches the filesystem). A sink
    /// error aborts training and is returned: a run that cannot
    /// checkpoint must not silently continue past its durability
    /// guarantee. Passing `resume = Some(state)` restores a snapshot
    /// and continues the run; the final model, report, and privacy
    /// spend are bit-identical to an uninterrupted run of the same
    /// config (see [`TrainerState`]).
    ///
    /// # Errors
    /// `InvalidData` when `resume` does not match this config and
    /// graph; otherwise only errors returned by `sink`.
    pub fn train_checkpointed(
        &self,
        g: &Graph,
        prox: &EdgeProximity,
        initial: Option<SkipGramModel>,
        resume: Option<&TrainerState>,
        sink: CheckpointSink<'_>,
    ) -> io::Result<(SkipGramModel, TrainReport)> {
        self.train_impl(g, prox, initial, resume, Some(sink))
    }

    fn train_impl(
        &self,
        g: &Graph,
        prox: &EdgeProximity,
        initial: Option<SkipGramModel>,
        resume: Option<&TrainerState>,
        mut sink: Option<CheckpointSink<'_>>,
    ) -> io::Result<(SkipGramModel, TrainReport)> {
        let cfg = &self.config;
        assert!(g.num_edges() > 0, "cannot train on an edgeless graph");
        assert_eq!(
            prox.len(),
            g.num_edges(),
            "proximity weights must cover every edge"
        );

        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        // Line 2: G_S via Algorithm 1, as a generator that regenerates
        // each sampled subgraph on demand from its edge index — the
        // same subgraphs `generate_subgraphs` would materialise from
        // this one base-seed draw, in O(B·k) memory instead of O(|E|·k).
        let base_seed: u64 = rng.gen();
        let subgraphs = SubgraphGen::new(g, cfg.negatives, cfg.negative_sampling, base_seed);
        // Line 3: initialise Θ (or warm-start from a published model;
        // the fresh init is still drawn to keep the RNG stream — and
        // therefore batch/noise sequences — identical in both paths).
        let fresh = SkipGramModel::new(g.num_nodes(), cfg.dim, &mut rng);
        let mut model = initial.unwrap_or(fresh);

        let num_edges = g.num_edges();
        let batch = cfg.batch_size.min(num_edges);
        let steps_per_epoch = num_edges.div_ceil(batch);
        let gamma = (batch as f64 / num_edges as f64).min(1.0);

        let mut accountant = if cfg.strategy.is_private() {
            Some(BudgetedAccountant::new(
                PrivacyBudget::new(cfg.epsilon, cfg.delta),
                gamma,
                cfg.sigma,
            ))
        } else {
            None
        };

        let mut state = BatchState::new(g.num_nodes(), cfg.dim);
        let mut noise = GaussianSampler::new();
        let mut buf = GradBuffer::new();

        // The per-example pass fans out over the worker pool when the
        // caller asked for threads explicitly, or when an auto-resolved
        // count meets the per-batch work bar; both paths clip and
        // accumulate in batch-sample order, so the result is
        // byte-identical either way (see `TrainConfig::threads`).
        let threads = sp_parallel::resolve_threads(cfg.threads);
        let par_grads = threads > 1
            && (cfg.threads.is_some()
                || batch * (cfg.negatives + 1) * cfg.dim >= PAR_GRAD_MIN_WORK);

        let mut steps_run: u64 = 0;
        let mut epochs_run = 0usize;
        let mut stopped_by_budget = false;
        let mut loss_stats = (0.0f64, 0u64);

        // Resume: the prefix above replayed the same seeded draws as
        // the original run (subgraph source, fresh init), so the
        // derived subgraph streams are identical; now overwrite every
        // piece of live loop state with the snapshot.
        let fingerprint = cfg.fingerprint(g.num_nodes(), g.num_edges());
        let mut resume_step = 0usize;
        if let Some(st) = resume {
            if st.fingerprint != fingerprint {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "checkpoint fingerprint does not match this config and graph \
                     (refusing to resume: the trajectory would diverge)",
                ));
            }
            model = SkipGramModel {
                w_in: st.w_in.clone(),
                w_out: st.w_out.clone(),
            };
            rng = SmallRng::from_state(st.rng);
            noise = GaussianSampler::from_spare(st.noise_spare);
            if let Some(acc) = accountant.as_mut() {
                *acc = BudgetedAccountant::resume(
                    PrivacyBudget::new(cfg.epsilon, cfg.delta),
                    gamma,
                    cfg.sigma,
                    st.accountant_orders_max,
                    st.accountant_rdp.clone(),
                    st.accountant_steps,
                )
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            }
            steps_run = st.steps_run;
            epochs_run = st.epochs_run as usize;
            loss_stats = (st.loss_sum, st.loss_count);
            resume_step = st.step_in_epoch as usize;
        }
        let start_epoch = epochs_run;

        'training: for epoch in start_epoch..cfg.epochs {
            let final_epoch = epoch + 1 == cfg.epochs;
            // First (possibly resumed) epoch starts at the snapshot's
            // step cursor; all later epochs start at 0.
            let first_step = std::mem::take(&mut resume_step);
            for step in first_step..steps_per_epoch {
                // Lines 8–10: stop when the budget would be exceeded.
                if let Some(acc) = accountant.as_mut() {
                    if !acc.try_step() {
                        stopped_by_budget = true;
                        break 'training;
                    }
                }
                // Line 5: B subgraphs uniformly without replacement
                // (the sampler stays serial: one RNG stream per run).
                let idx = rand::seq::index::sample(&mut rng, num_edges, batch);
                if par_grads {
                    let picked: Vec<usize> = idx.iter().collect();
                    // Compute + clip per-example gradients in parallel,
                    // then reduce serially in batch-sample order.
                    let grads = sp_parallel::par_map(&picked, threads, |&i| {
                        let sg = subgraphs.generate(i);
                        let p = prox.weights[sg.edge_index];
                        let loss = if final_epoch { model.loss(&sg, p) } else { 0.0 };
                        let mut ebuf = GradBuffer::new();
                        model.example_grad(&sg, p, &mut ebuf);
                        ebuf.clip(cfg.clip);
                        (ebuf, loss)
                    });
                    for (ebuf, loss) in &grads {
                        if final_epoch {
                            loss_stats.0 += loss;
                            loss_stats.1 += 1;
                        }
                        state.accumulate(ebuf);
                    }
                } else {
                    for i in idx.iter() {
                        let sg = subgraphs.generate(i);
                        let p = prox.weights[sg.edge_index];
                        if final_epoch {
                            loss_stats.0 += model.loss(&sg, p);
                            loss_stats.1 += 1;
                        }
                        model.example_grad(&sg, p, &mut buf);
                        buf.clip(cfg.clip);
                        state.accumulate(&buf);
                    }
                }
                // Lines 6–7: perturb and apply (serial — the noise
                // stream is part of the seeded RNG sequence).
                self.apply_update(&mut model, &mut state, batch, &mut noise, &mut rng);
                steps_run += 1;
                // Checkpoint at the step boundary: the batch
                // accumulators are zeroed here, so the loop state is
                // exactly (counters, RNG, noise spare, loss, model,
                // accountant) — everything TrainerState captures.
                if let (Some(every), Some(sink)) = (cfg.checkpoint_every, sink.as_mut()) {
                    if steps_run % every == 0 {
                        let snapshot = TrainerState {
                            fingerprint,
                            steps_run,
                            epochs_run: epochs_run as u64,
                            step_in_epoch: (step + 1) as u64,
                            rng: rng.state(),
                            noise_spare: noise.spare(),
                            loss_sum: loss_stats.0,
                            loss_count: loss_stats.1,
                            w_in: model.w_in.clone(),
                            w_out: model.w_out.clone(),
                            accountant_orders_max: accountant
                                .as_ref()
                                .map(|a| a.max_order())
                                .unwrap_or(0),
                            accountant_rdp: accountant
                                .as_ref()
                                .map(|a| a.rdp_raw().to_vec())
                                .unwrap_or_default(),
                            accountant_steps: accountant.as_ref().map(|a| a.steps()).unwrap_or(0),
                        };
                        sink(&snapshot)?;
                    }
                }
            }
            epochs_run += 1;
        }

        let (epsilon_spent, delta_spent) =
            accountant.as_ref().map(|a| a.spent()).unwrap_or((0.0, 0.0));
        let final_loss = if loss_stats.1 > 0 {
            loss_stats.0 / loss_stats.1 as f64
        } else {
            f64::NAN
        };
        Ok((
            model,
            TrainReport {
                epochs_run,
                steps_run,
                stopped_by_budget,
                epsilon_spent,
                delta_spent,
                final_loss,
            },
        ))
    }

    /// Noise + SGD application for one batch, per the strategy.
    fn apply_update(
        &self,
        model: &mut SkipGramModel,
        state: &mut BatchState,
        batch: usize,
        noise: &mut GaussianSampler,
        rng: &mut SmallRng,
    ) {
        let cfg = &self.config;
        let scale = -cfg.learning_rate / batch as f64;
        let noise_std = cfg.strategy.sensitivity(batch, cfg.clip) * cfg.sigma;

        match cfg.strategy {
            PerturbStrategy::None | PerturbStrategy::NonZero => {
                // Update (and, for NonZero, perturb) only touched rows.
                for &row in &state.touched_in {
                    let acc = state.acc_in.row_mut(row as usize);
                    if noise_std > 0.0 {
                        noise.perturb_slice(acc, noise_std, rng);
                    }
                    vector::axpy(scale, acc, model.w_in.row_mut(row as usize));
                    acc.iter_mut().for_each(|v| *v = 0.0);
                }
                for &row in &state.touched_out {
                    let acc = state.acc_out.row_mut(row as usize);
                    if noise_std > 0.0 {
                        noise.perturb_slice(acc, noise_std, rng);
                    }
                    vector::axpy(scale, acc, model.w_out.row_mut(row as usize));
                    acc.iter_mut().for_each(|v| *v = 0.0);
                }
            }
            PerturbStrategy::Naive => {
                // Every row of both gradient matrices is perturbed
                // (Fig. 2(c)), including rows whose gradient is zero.
                let n = model.num_nodes();
                let dim = model.dim();
                let mut noise_row = vec![0.0f64; dim];
                for row in 0..n {
                    noise.fill_slice(&mut noise_row, noise_std, rng);
                    let acc = state.acc_in.row_mut(row);
                    vector::axpy(1.0, acc, &mut noise_row);
                    vector::axpy(scale, &noise_row, model.w_in.row_mut(row));
                    acc.iter_mut().for_each(|v| *v = 0.0);

                    noise.fill_slice(&mut noise_row, noise_std, rng);
                    let acc = state.acc_out.row_mut(row);
                    vector::axpy(1.0, acc, &mut noise_row);
                    vector::axpy(scale, &noise_row, model.w_out.row_mut(row));
                    acc.iter_mut().for_each(|v| *v = 0.0);
                }
            }
        }
        state.clear_touched();
    }
}

/// Batch gradient accumulators with touched-row tracking: reused
/// across every step of a run, zeroed row-by-row (only touched rows
/// are ever dirty).
struct BatchState {
    acc_in: DenseMatrix,
    acc_out: DenseMatrix,
    touched_in: Vec<NodeId>,
    touched_out: Vec<NodeId>,
    in_flags: Vec<bool>,
    out_flags: Vec<bool>,
}

impl BatchState {
    fn new(num_nodes: usize, dim: usize) -> Self {
        Self {
            acc_in: DenseMatrix::zeros(num_nodes, dim),
            acc_out: DenseMatrix::zeros(num_nodes, dim),
            touched_in: Vec::new(),
            touched_out: Vec::new(),
            in_flags: vec![false; num_nodes],
            out_flags: vec![false; num_nodes],
        }
    }

    fn accumulate(&mut self, buf: &GradBuffer) {
        let c = buf.center as usize;
        if !self.in_flags[c] {
            self.in_flags[c] = true;
            self.touched_in.push(buf.center);
        }
        vector::axpy(1.0, &buf.grad_center, self.acc_in.row_mut(c));
        for (row, grad) in buf.ctx_rows().iter().zip(buf.ctx_grads()) {
            let r = *row as usize;
            if !self.out_flags[r] {
                self.out_flags[r] = true;
                self.touched_out.push(*row);
            }
            vector::axpy(1.0, grad, self.acc_out.row_mut(r));
        }
    }

    fn clear_touched(&mut self) {
        for &r in &self.touched_in {
            self.in_flags[r as usize] = false;
        }
        for &r in &self.touched_out {
            self.out_flags[r as usize] = false;
        }
        self.touched_in.clear();
        self.touched_out.clear();
    }
}

/// Convenience: builds the default-config trainer, computes the
/// proximity, and trains — the one-liner used by examples.
pub fn train_with_defaults(
    g: &Graph,
    kind: sp_proximity::ProximityKind,
) -> (SkipGramModel, TrainReport) {
    let prox = EdgeProximity::compute(g, kind);
    Trainer::new(TrainConfig::default()).train(g, &prox)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_proximity::ProximityKind;

    fn ring_with_chords(n: usize) -> Graph {
        let mut edges: Vec<(u32, u32)> = (0..n).map(|i| (i as u32, ((i + 1) % n) as u32)).collect();
        for i in (0..n).step_by(5) {
            edges.push((i as u32, ((i + n / 2) % n) as u32));
        }
        Graph::from_edges(n, edges)
    }

    fn quick_config(strategy: PerturbStrategy) -> TrainConfig {
        TrainConfig {
            dim: 16,
            negatives: 3,
            batch_size: 16,
            learning_rate: 0.1,
            clip: 1.0,
            sigma: 5.0,
            epsilon: 3.5,
            delta: 1e-5,
            epochs: 5,
            strategy,
            negative_sampling: NegativeSampling::UniformNonNeighbor,
            seed: 99,
            threads: None,
            checkpoint_every: None,
            checkpoint_dir: None,
        }
    }

    #[test]
    fn nonprivate_training_reduces_loss() {
        let g = ring_with_chords(60);
        let prox = EdgeProximity::compute(&g, ProximityKind::deepwalk_default());
        let mut cfg = quick_config(PerturbStrategy::None);
        cfg.epochs = 1;
        let (_, early) = Trainer::new(cfg.clone()).train(&g, &prox);
        cfg.epochs = 40;
        let (_, late) = Trainer::new(cfg).train(&g, &prox);
        assert!(
            late.final_loss < early.final_loss,
            "loss should fall with more epochs: {} -> {}",
            early.final_loss,
            late.final_loss
        );
    }

    #[test]
    fn report_counts_epochs_and_steps() {
        let g = ring_with_chords(40);
        let prox = EdgeProximity::compute(&g, ProximityKind::Degree);
        let cfg = quick_config(PerturbStrategy::None);
        let (_, rep) = Trainer::new(cfg.clone()).train(&g, &prox);
        assert_eq!(rep.epochs_run, 5);
        let steps_per_epoch = g.num_edges().div_ceil(cfg.batch_size);
        assert_eq!(rep.steps_run, (5 * steps_per_epoch) as u64);
        assert!(!rep.stopped_by_budget);
        assert_eq!(rep.epsilon_spent, 0.0);
    }

    #[test]
    fn private_training_spends_budget() {
        let g = ring_with_chords(40);
        let prox = EdgeProximity::compute(&g, ProximityKind::Degree);
        let (_, rep) = Trainer::new(quick_config(PerturbStrategy::NonZero)).train(&g, &prox);
        assert!(rep.epsilon_spent > 0.0);
        assert!(rep.delta_spent < 1e-5);
    }

    #[test]
    fn tiny_budget_stops_training_early() {
        let g = ring_with_chords(40);
        let prox = EdgeProximity::compute(&g, ProximityKind::Degree);
        let mut cfg = quick_config(PerturbStrategy::NonZero);
        // γ = 16/48 = 1/3 is large; ε = 0.05 is minuscule: the budget
        // must bind almost immediately.
        cfg.epsilon = 0.05;
        cfg.epochs = 100;
        let (_, rep) = Trainer::new(cfg).train(&g, &prox);
        assert!(rep.stopped_by_budget);
        assert!(rep.epochs_run < 100);
    }

    #[test]
    fn deterministic_under_seed() {
        let g = ring_with_chords(30);
        let prox = EdgeProximity::compute(&g, ProximityKind::deepwalk_default());
        let cfg = quick_config(PerturbStrategy::NonZero);
        let (m1, _) = Trainer::new(cfg.clone()).train(&g, &prox);
        let (m2, _) = Trainer::new(cfg).train(&g, &prox);
        assert_eq!(m1.w_in.as_slice(), m2.w_in.as_slice());
        assert_eq!(m1.w_out.as_slice(), m2.w_out.as_slice());
    }

    #[test]
    fn different_seeds_differ() {
        let g = ring_with_chords(30);
        let prox = EdgeProximity::compute(&g, ProximityKind::deepwalk_default());
        let mut cfg = quick_config(PerturbStrategy::NonZero);
        let (m1, _) = Trainer::new(cfg.clone()).train(&g, &prox);
        cfg.seed = 123;
        let (m2, _) = Trainer::new(cfg).train(&g, &prox);
        assert_ne!(m1.w_in.as_slice(), m2.w_in.as_slice());
    }

    #[test]
    fn naive_noise_floods_untouched_rows() {
        // With naive perturbation every row of both matrices receives
        // noise with the B× larger sensitivity each step; with
        // non-zero only touched rows receive C-scaled noise. Compare
        // the *drift* from the (identical, same-seed) initialisation.
        let g = ring_with_chords(30);
        let prox = EdgeProximity::compute(&g, ProximityKind::Degree);
        let mut cfg = quick_config(PerturbStrategy::Naive);
        cfg.epochs = 2;
        let (naive_model, _) = Trainer::new(cfg.clone()).train(&g, &prox);
        cfg.strategy = PerturbStrategy::NonZero;
        let (nz_model, _) = Trainer::new(cfg.clone()).train(&g, &prox);
        cfg.strategy = PerturbStrategy::None;
        cfg.epochs = 1; // init reference: same seed => same init
        let init = {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(cfg.seed);
            let _ = crate::subgraph::generate_subgraphs(
                &g,
                cfg.negatives,
                cfg.negative_sampling,
                &mut rng,
            );
            SkipGramModel::new(g.num_nodes(), cfg.dim, &mut rng)
        };
        let drift = |m: &SkipGramModel| {
            let mut d = m.w_out.clone();
            d.add_scaled(-1.0, &init.w_out);
            d.frobenius_norm()
        };
        let naive_drift = drift(&naive_model);
        let nz_drift = drift(&nz_model);
        assert!(
            naive_drift > 5.0 * nz_drift,
            "naive noise should dominate: drift {naive_drift} vs {nz_drift}"
        );
    }

    #[test]
    fn batch_larger_than_edge_count_is_capped() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let prox = EdgeProximity::compute(&g, ProximityKind::Degree);
        let mut cfg = quick_config(PerturbStrategy::None);
        cfg.batch_size = 1000;
        let (_, rep) = Trainer::new(cfg).train(&g, &prox);
        assert_eq!(rep.steps_run, 5); // one step per epoch, 5 epochs
    }

    #[test]
    #[should_panic(expected = "edgeless")]
    fn refuses_empty_graph() {
        let g = Graph::from_edges(3, std::iter::empty());
        let prox = EdgeProximity {
            weights: vec![],
            min_positive: 1.0,
            kind: ProximityKind::Degree,
        };
        Trainer::new(quick_config(PerturbStrategy::None)).train(&g, &prox);
    }

    #[test]
    #[should_panic(expected = "invalid TrainConfig")]
    fn invalid_config_fails_fast() {
        let mut cfg = quick_config(PerturbStrategy::NonZero);
        cfg.sigma = 0.0;
        Trainer::new(cfg);
    }
}
