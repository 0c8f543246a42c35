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
//! # Randomness
//!
//! One run RNG (`SmallRng`, xoshiro256++ seeded from
//! [`TrainConfig::seed`]) draws the Alg. 1 base seed, the initial
//! model, and then each step's batch — nothing else. Noise is
//! counter-based: row `row` of `W_in` (matrix 0) or `W_out` (matrix 1)
//! at global step `s` draws from its own stream keyed by
//! `(seed, s, matrix, row)` ([`sp_dp::NoiseKeys`]), so a noise row
//! depends on neither the model nor any other draw. Neither generator
//! is cryptographic: a production DP deployment would need a CSPRNG
//! (and see the floating-point caveat in [`sp_dp::noise`]); for
//! reproducing the paper's utility their statistical quality is more
//! than sufficient.
//!
//! # Step pipeline
//!
//! Keyed noise lets each step split in two:
//!
//! - a model-independent **producer**: sample the batch from the run
//!   RNG, regenerate its subgraphs from [`SubgraphGen`], give each
//!   touched row of `W_in`/`W_out` a *slot* (its first-touch index in
//!   the step), record every example's centre slot and context slots,
//!   write the `NonZero` noise rows into recycled slabs in slot order,
//!   and record the RNG state after the draw;
//! - a model-dependent **consumer**: charge the accountant, compute and
//!   clip each example's gradient, reduce them in batch order into two
//!   *slabs* of one `r`-row per slot, add the noise, update, and
//!   checkpoint (with the consumed step's RNG state).
//!
//! A per-example gradient is non-zero on one `W_in` row and at most
//! `k+1` `W_out` rows, so a step touches at most `B·(k+2)` rows and
//! its slabs stay small (896 KiB at the paper's defaults) whatever
//! `|V|`. Each slab row starts at zero and takes its row's additions
//! in batch order, so no slot assignment changes a bit of the update.
//!
//! With two or more threads the producer runs on a scoped thread up
//! to three steps ahead, behind a two-slot channel; with one thread
//! the consumer calls it inline. Either way the consumer sees the same
//! step bundles in the same order, so every output is bit-identical
//! for any thread count. The `Naive` ablation perturbs all `|V|` rows,
//! so the consumer draws its keyed rows inline rather than have the
//! producer fill an `O(|V|·r)` slab per step.

use crate::model::{GradBuffer, SkipGramModel};
use crate::perturb::PerturbStrategy;
use crate::subgraph::{NegativeSampling, Subgraph, SubgraphGen};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sp_dp::{BudgetedAccountant, NoiseKeys, PrivacyBudget};
use sp_graph::{Graph, NodeId};
use sp_linalg::{vector, DenseMatrix};
use sp_proximity::EdgeProximity;
use std::io;
use std::path::PathBuf;
use std::sync::mpsc;

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
    /// RNG seed (drives initialisation, sampling, and the noise keys).
    pub seed: u64,
    /// Threads for the step pipeline (`None` resolves via
    /// [`sp_parallel::resolve_threads`]: the `SP_THREADS` environment
    /// variable, then the available parallelism).
    ///
    /// With `≥ 2` the model-independent half of each step (batch
    /// sampling, subgraph regeneration, touched-row slots, keyed noise
    /// rows) runs up to three steps ahead on a second thread while the
    /// caller's thread computes gradients and applies the update; with
    /// `1` both halves run inline. The pipeline has two stages, so
    /// counts above two behave like two (see the module docs).
    ///
    /// **Determinism contract:** the run RNG is drawn only by the
    /// producer, in step order; noise rows are keyed by
    /// `(seed, step, matrix, row)`; and gradients are reduced in batch
    /// order on the consumer — so for a fixed seed the trained model
    /// and the privacy spend are byte-identical for every thread count
    /// (asserted by `tests/parallel_determinism.rs`).
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
            // "SPCEKPT2": format discriminator. Bumped from "SPCEKPT1"
            // when noise became keyed ziggurat rows, so a snapshot of a
            // polar-noise run is refused rather than resumed on a
            // different noise stream.
            0x5350_4345_4B50_5432u64,
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

    /// Upper bound on the heap bytes a fit of this config holds for
    /// its whole run on a graph of `num_nodes` nodes, at any thread
    /// count: both model matrices, the producer's two `u32` row → slot
    /// maps, and the step slabs. A step touches at most `B·(k+2)` rows;
    /// the consumer's gradient slabs hold one `r`-row per touched row,
    /// and so do the `NonZero` noise slabs of each of the (at most
    /// four) step bundles in flight. The bundles' `O(B·k)` row indices
    /// are left out.
    pub fn resident_bytes(&self, num_nodes: usize) -> u64 {
        let row = self.dim * 8;
        let slab = self.batch_size * (self.negatives + 2) * row;
        let noise_slabs = match self.strategy {
            PerturbStrategy::NonZero => 4 * slab,
            PerturbStrategy::None | PerturbStrategy::Naive => 0,
        };
        (2 * num_nodes * row + 2 * num_nodes * 4 + slab + noise_slabs) as u64
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
/// base seed, proximity weights, batch schedule *shape*, the keyed
/// noise rows) or (b) captured here: the counters, the run RNG, the
/// loss accumulator, both embedding matrices at full `f64` precision,
/// and the raw RDP curve. Restoring (b) and replaying
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
    /// Always `None`: noise rows are keyed by `(seed, step, matrix,
    /// row)` and carry no sampler state. The field stays only for the
    /// `.spc` layout and existing struct literals; resume ignores it.
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

/// Noise-key matrix index of `W_in`.
const W_IN: u64 = 0;
/// Noise-key matrix index of `W_out`.
const W_OUT: u64 = 1;

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
        sink: Option<CheckpointSink<'_>>,
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
        // therefore the batch sequence — identical in both paths).
        let fresh = SkipGramModel::new(g.num_nodes(), cfg.dim, &mut rng);

        let num_edges = g.num_edges();
        let batch = cfg.batch_size.min(num_edges);
        let steps_per_epoch = num_edges.div_ceil(batch);
        let gamma = (batch as f64 / num_edges as f64).min(1.0);
        let keys = NoiseKeys::new(cfg.seed);
        let noise_std = cfg.strategy.sensitivity(batch, cfg.clip) * cfg.sigma;

        let mut consumer = Consumer {
            cfg,
            prox,
            keys,
            noise_std,
            scale: -cfg.learning_rate / batch as f64,
            steps_per_epoch: steps_per_epoch as u64,
            fingerprint: cfg.fingerprint(g.num_nodes(), g.num_edges()),
            model: initial.unwrap_or(fresh),
            slab_in: Vec::new(),
            slab_out: Vec::new(),
            buf: GradBuffer::new(),
            accountant: cfg.strategy.is_private().then(|| {
                BudgetedAccountant::new(
                    PrivacyBudget::new(cfg.epsilon, cfg.delta),
                    gamma,
                    cfg.sigma,
                )
            }),
            sink,
            steps_run: 0,
            stopped_by_budget: false,
            loss: (0.0, 0),
        };

        // Resume: the prefix above replayed the same seeded draws as
        // the original run (subgraph source, fresh init), so the
        // derived subgraph streams are identical; now overwrite every
        // piece of live loop state with the snapshot. Every epoch runs
        // `steps_per_epoch` steps, so `steps_run` alone is the cursor.
        if let Some(st) = resume {
            if st.fingerprint != consumer.fingerprint {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "checkpoint fingerprint does not match this config and graph \
                     (refusing to resume: the trajectory would diverge)",
                ));
            }
            consumer.model = SkipGramModel {
                w_in: st.w_in.clone(),
                w_out: st.w_out.clone(),
            };
            rng = SmallRng::from_state(st.rng);
            if let Some(acc) = consumer.accountant.as_mut() {
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
            consumer.steps_run = st.steps_run;
            consumer.loss = (st.loss_sum, st.loss_count);
        }

        let mut producer = Producer {
            subgraphs,
            rng,
            keys,
            // Only `NonZero` noise goes through the producer's slabs.
            slab_std: (cfg.strategy == PerturbStrategy::NonZero).then_some(noise_std),
            dim: cfg.dim,
            num_edges,
            batch,
            step: consumer.steps_run,
            end: (cfg.epochs * steps_per_epoch) as u64,
            in_slots: vec![NO_SLOT; g.num_nodes()],
            out_slots: vec![NO_SLOT; g.num_nodes()],
        };

        if sp_parallel::resolve_threads(cfg.threads) > 1 {
            std::thread::scope(|scope| -> io::Result<()> {
                // Two slots: while the consumer works on step s, steps
                // s + 1 and s + 2 may wait in the channel while the
                // producer fills s + 3, so it runs at most three steps
                // ahead. The halves of a `NonZero` step take about as
                // long, so a direct handoff would pass every stall of
                // one thread (a descheduled CPU, a wake-up) on to the
                // other; the slots let each run on through the other's
                // short stalls. Spent bundles flow back for reuse, so
                // at most four exist; a stop (budget, sink error,
                // panic) drops the receiver, which fails the producer's
                // next send and ends its thread.
                let (ahead_tx, ahead_rx) = mpsc::sync_channel::<StepBundle>(2);
                let (spent_tx, spent_rx) = mpsc::channel::<StepBundle>();
                scope.spawn(move || loop {
                    let mut bundle = spent_rx.try_recv().unwrap_or_default();
                    if !producer.produce(&mut bundle) || ahead_tx.send(bundle).is_err() {
                        return;
                    }
                });
                for bundle in ahead_rx {
                    if !consumer.consume(&bundle)? {
                        break;
                    }
                    // The producer may already be done; then the
                    // bundle is simply dropped.
                    let _ = spent_tx.send(bundle);
                }
                Ok(())
            })?;
        } else {
            let mut bundle = StepBundle::default();
            while producer.produce(&mut bundle) && consumer.consume(&bundle)? {}
        }

        let (epsilon_spent, delta_spent) = consumer
            .accountant
            .as_ref()
            .map(|a| a.spent())
            .unwrap_or((0.0, 0.0));
        let final_loss = if consumer.loss.1 > 0 {
            consumer.loss.0 / consumer.loss.1 as f64
        } else {
            f64::NAN
        };
        Ok((
            consumer.model,
            TrainReport {
                epochs_run: (consumer.steps_run / consumer.steps_per_epoch) as usize,
                steps_run: consumer.steps_run,
                stopped_by_budget: consumer.stopped_by_budget,
                epsilon_spent,
                delta_spent,
                final_loss,
            },
        ))
    }
}

/// Everything one step needs that does not depend on the model: the
/// producer's output, recycled across steps.
#[derive(Default)]
struct StepBundle {
    /// Global step index: the noise key's step, and `epoch ·
    /// steps_per_epoch + position`.
    step: u64,
    /// Line 5: the `B` sampled subgraphs, in sample order.
    batch: Vec<Subgraph>,
    /// `W_in` rows the batch touches, in first-touch order: row
    /// `touched_in[j]` owns slot `j` of the `W_in` slabs.
    touched_in: Vec<NodeId>,
    /// `W_out` rows the batch touches, in first-touch order.
    touched_out: Vec<NodeId>,
    /// Each example's centre slot, in batch order.
    center_slots: Vec<u32>,
    /// Each example's unique context slots, in batch order and, within
    /// an example, in [`GradBuffer::ctx_rows`] order: the positive,
    /// then each negative's first appearance.
    ctx_slots: Vec<u32>,
    /// `NonZero` noise, one `dim`-row per `touched_in` slot (empty for
    /// the other strategies).
    noise_in: Vec<f64>,
    /// `NonZero` noise, one `dim`-row per `touched_out` slot.
    noise_out: Vec<f64>,
    /// Run RNG state after this step's batch draw.
    rng: [u64; 4],
}

/// The model-independent half of a step: owns the run RNG and walks
/// the step schedule from a (possibly resumed) start.
struct Producer<'g> {
    subgraphs: SubgraphGen<'g>,
    rng: SmallRng,
    keys: NoiseKeys,
    /// Noise std of the slab rows; `None` when no slab is filled.
    slab_std: Option<f64>,
    dim: usize,
    num_edges: usize,
    batch: usize,
    /// Global index of the next step to produce.
    step: u64,
    /// `epochs · steps_per_epoch`: the schedule's end.
    end: u64,
    /// Row → slot maps of the step being produced; every row is
    /// [`NO_SLOT`] again once the step is done.
    in_slots: Vec<u32>,
    out_slots: Vec<u32>,
}

/// A row with no slot in the step being produced.
const NO_SLOT: u32 = u32::MAX;

impl Producer<'_> {
    /// Fills `b` with the next step of the schedule; `false` once the
    /// epoch cap is reached.
    fn produce(&mut self, b: &mut StepBundle) -> bool {
        if self.step >= self.end {
            return false;
        }
        b.step = self.step;
        // Line 5: B subgraphs uniformly without replacement.
        let idx = rand::seq::index::sample(&mut self.rng, self.num_edges, self.batch);
        b.rng = self.rng.state();
        b.batch.clear();
        b.touched_in.clear();
        b.touched_out.clear();
        b.center_slots.clear();
        b.ctx_slots.clear();
        for i in idx.iter() {
            let sg = self.subgraphs.generate(i);
            b.center_slots
                .push(slot(&mut self.in_slots, &mut b.touched_in, sg.center));
            b.ctx_slots
                .push(slot(&mut self.out_slots, &mut b.touched_out, sg.positive));
            for (t, &n) in sg.negatives.iter().enumerate() {
                // `GradBuffer` merges a repeated context row into its
                // first appearance; skip repeats so the slots line up
                // with its rows.
                if n != sg.positive && !sg.negatives[..t].contains(&n) {
                    b.ctx_slots
                        .push(slot(&mut self.out_slots, &mut b.touched_out, n));
                }
            }
            b.batch.push(sg);
        }
        for (slots, touched) in [
            (&mut self.in_slots, &b.touched_in),
            (&mut self.out_slots, &b.touched_out),
        ] {
            for &r in touched {
                slots[r as usize] = NO_SLOT;
            }
        }
        b.noise_in.clear();
        b.noise_out.clear();
        if let Some(std) = self.slab_std {
            let (dim, step) = (self.dim, b.step);
            for (matrix, rows, slab) in [
                (W_IN, &b.touched_in, &mut b.noise_in),
                (W_OUT, &b.touched_out, &mut b.noise_out),
            ] {
                slab.resize(rows.len() * dim, 0.0);
                for (&row, out) in rows.iter().zip(slab.chunks_exact_mut(dim)) {
                    self.keys.fill_row(step, matrix, row as u64, out, std);
                }
            }
        }
        self.step += 1;
        true
    }
}

/// `row`'s slot this step, appending `row` to `touched` (and so
/// giving it the next slot) on its first touch.
fn slot(slots: &mut [u32], touched: &mut Vec<NodeId>, row: NodeId) -> u32 {
    let s = &mut slots[row as usize];
    if *s == NO_SLOT {
        *s = touched.len() as u32;
        touched.push(row);
    }
    *s
}

/// The model-dependent half of a step, and the loop state a
/// [`TrainerState`] snapshots.
struct Consumer<'a, 's> {
    cfg: &'a TrainConfig,
    prox: &'a EdgeProximity,
    keys: NoiseKeys,
    /// Per-coordinate noise std (0 for non-private runs).
    noise_std: f64,
    /// `-η / B`: the averaged SGD step.
    scale: f64,
    steps_per_epoch: u64,
    fingerprint: u64,
    model: SkipGramModel,
    /// The step's summed clipped gradients, one `dim`-row per slot of
    /// `touched_in` / `touched_out`; zeroed at the start of each step.
    slab_in: Vec<f64>,
    slab_out: Vec<f64>,
    buf: GradBuffer,
    accountant: Option<BudgetedAccountant>,
    sink: Option<CheckpointSink<'s>>,
    steps_run: u64,
    stopped_by_budget: bool,
    /// Final-epoch loss accumulator: (sum, examples).
    loss: (f64, u64),
}

impl Consumer<'_, '_> {
    /// Runs one produced step; `Ok(false)` when the budget stops
    /// training before it.
    fn consume(&mut self, b: &StepBundle) -> io::Result<bool> {
        let cfg = self.cfg;
        // Lines 8–10: stop when the budget would be exceeded.
        if let Some(acc) = self.accountant.as_mut() {
            if !acc.try_step() {
                self.stopped_by_budget = true;
                return Ok(false);
            }
        }
        let epoch = b.step / self.steps_per_epoch;
        let final_epoch = epoch + 1 == cfg.epochs as u64;
        let dim = self.model.dim();
        for (slab, rows) in [
            (&mut self.slab_in, b.touched_in.len()),
            (&mut self.slab_out, b.touched_out.len()),
        ] {
            slab.clear();
            slab.resize(rows * dim, 0.0);
        }
        // Per-example gradients, clipped, reduced in batch order.
        let mut ctx_slots = b.ctx_slots.iter();
        for (sg, &center) in b.batch.iter().zip(&b.center_slots) {
            let p = self.prox.weights[sg.edge_index];
            if final_epoch {
                self.loss.0 += self.model.loss(sg, p);
                self.loss.1 += 1;
            }
            let buf = &mut self.buf;
            self.model.example_grad(sg, p, buf);
            buf.clip(cfg.clip);
            vector::axpy(
                1.0,
                &buf.grad_center,
                slab_row(&mut self.slab_in, center, dim),
            );
            let ctx = buf.ctx_rows().iter().zip(buf.ctx_grads());
            for ((&row, grad), &slot) in ctx.zip(ctx_slots.by_ref()) {
                debug_assert_eq!(b.touched_out[slot as usize], row, "slot of another row");
                vector::axpy(1.0, grad, slab_row(&mut self.slab_out, slot, dim));
            }
        }
        debug_assert_eq!(ctx_slots.len(), 0, "unused context slots");
        // Lines 6–7: perturb and apply.
        self.apply_update(b);
        self.steps_run += 1;
        // Checkpoint at the step boundary: the slabs hold only this
        // step's gradients and are re-zeroed before the next one, so
        // the loop state is exactly (counters, RNG, loss, model,
        // accountant) — everything TrainerState captures. `epochs_run`
        // counts epochs finished before this step's, and
        // `step_in_epoch` steps done inside it.
        if let (Some(every), Some(sink)) = (cfg.checkpoint_every, self.sink.as_mut()) {
            if self.steps_run % every == 0 {
                let accountant = self.accountant.as_ref();
                let snapshot = TrainerState {
                    fingerprint: self.fingerprint,
                    steps_run: self.steps_run,
                    epochs_run: epoch,
                    step_in_epoch: b.step % self.steps_per_epoch + 1,
                    rng: b.rng,
                    noise_spare: None,
                    loss_sum: self.loss.0,
                    loss_count: self.loss.1,
                    w_in: self.model.w_in.clone(),
                    w_out: self.model.w_out.clone(),
                    accountant_orders_max: accountant.map(|a| a.max_order()).unwrap_or(0),
                    accountant_rdp: accountant.map(|a| a.rdp_raw().to_vec()).unwrap_or_default(),
                    accountant_steps: accountant.map(|a| a.steps()).unwrap_or(0),
                };
                sink(&snapshot)?;
            }
        }
        Ok(true)
    }

    /// Noise + SGD application for one batch, per the strategy.
    fn apply_update(&mut self, b: &StepBundle) {
        let (scale, std, dim) = (self.scale, self.noise_std, self.model.dim());
        let model = &mut self.model;
        let matrices = [
            (
                W_IN,
                &b.touched_in,
                &b.noise_in,
                &mut self.slab_in,
                &mut model.w_in,
            ),
            (
                W_OUT,
                &b.touched_out,
                &b.noise_out,
                &mut self.slab_out,
                &mut model.w_out,
            ),
        ];
        match self.cfg.strategy {
            PerturbStrategy::None | PerturbStrategy::NonZero => {
                // Update (and, for NonZero, perturb) only touched rows;
                // the noise slabs are empty without noise.
                for (_, rows, noise, slab, w) in matrices {
                    let grads = slab.chunks_exact_mut(dim);
                    for (j, (&row, grad)) in rows.iter().zip(grads).enumerate() {
                        if let Some(noise) = noise.get(j * dim..(j + 1) * dim) {
                            vector::axpy(1.0, noise, grad);
                        }
                        vector::axpy(scale, grad, w.row_mut(row as usize));
                    }
                }
            }
            PerturbStrategy::Naive => {
                // Every row of both gradient matrices is perturbed
                // (Fig. 2(c)), including rows whose gradient is zero.
                // Those take their noise alone: adding a zero gradient
                // row would change no bit, as no ziggurat deviate is
                // -0.0.
                let mut noise_row = vec![0.0f64; dim];
                for (matrix, rows, _, slab, w) in matrices {
                    let mut by_row: Vec<(NodeId, u32)> = rows.iter().copied().zip(0..).collect();
                    by_row.sort_unstable();
                    let mut touched = by_row.into_iter().peekable();
                    for row in 0..w.rows() {
                        self.keys
                            .fill_row(b.step, matrix, row as u64, &mut noise_row, std);
                        if let Some((_, j)) = touched.next_if(|&(r, _)| r as usize == row) {
                            vector::axpy(1.0, slab_row(slab, j, dim), &mut noise_row);
                        }
                        vector::axpy(scale, &noise_row, w.row_mut(row));
                    }
                }
            }
        }
    }
}

/// Slot `j`'s row of a `dim`-wide slab.
fn slab_row(slab: &mut [f64], j: u32, dim: usize) -> &mut [f64] {
    let start = j as usize * dim;
    &mut slab[start..start + dim]
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
        // must bind almost immediately. With two threads the producer
        // is ahead when the budget binds: training must still return,
        // with the same report.
        cfg.epsilon = 0.05;
        cfg.epochs = 100;
        let mut steps = Vec::new();
        for threads in [1, 2] {
            cfg.threads = Some(threads);
            let (_, rep) = Trainer::new(cfg.clone()).train(&g, &prox);
            assert!(rep.stopped_by_budget);
            assert!(rep.epochs_run < 100);
            steps.push(rep.steps_run);
        }
        assert_eq!(steps[0], steps[1]);
    }

    #[test]
    fn sink_error_stops_training_with_producer_ahead() {
        // A failing checkpoint write must end the run with its error,
        // also when the producer thread is blocked handing over the
        // next step.
        let g = ring_with_chords(40);
        let prox = EdgeProximity::compute(&g, ProximityKind::Degree);
        let mut cfg = quick_config(PerturbStrategy::NonZero);
        cfg.checkpoint_every = Some(1);
        for threads in [1, 2] {
            cfg.threads = Some(threads);
            let mut written = Vec::new();
            let mut sink = |st: &TrainerState| {
                written.push(st.steps_run);
                if st.steps_run == 3 {
                    return Err(io::Error::other("disk full"));
                }
                Ok(())
            };
            let err = Trainer::new(cfg.clone())
                .train_checkpointed(&g, &prox, None, None, &mut sink)
                .expect_err("the sink failed");
            assert_eq!(err.to_string(), "disk full");
            assert_eq!(written, vec![1, 2, 3], "threads={threads}");
        }
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
