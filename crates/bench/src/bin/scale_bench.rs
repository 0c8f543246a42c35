//! Out-of-core pipeline scale bench + CI memory-regression gate.
//!
//! Drives the training pipeline end to end on a synthetic
//! bounded-degree graph: CSR construction through [`GraphBuilder`],
//! proximity edge weights ([`EdgeProximity::compute_threads`], which
//! reads each row's edges off a per-worker scratch row and builds no
//! band; the matrix finish's band of [`BAND_ROWS`] rows is measured
//! beside it), the degree alias table of Alg. 1's degree-proportional
//! sampler, and the trainer, which regenerates every sampled subgraph
//! on demand instead of holding `G_S`. Every resident and transient
//! buffer is byte-accounted through one [`ByteTally`] — the
//! "self-tracked peak RSS" reported here, chosen over `/proc` because
//! byte accounting is deterministic enough to gate in CI.
//!
//! Modes:
//! - `--smoke` (CI): a 60k-node graph under a 64 MiB budget.
//! - default (full): a 1.25M-node graph under a 3 GiB budget the
//!   materialised path provably cannot meet; the materialised side is
//!   a len-based byte estimate, not an allocation.
//!
//! Either mode exits non-zero when the tracked peak exceeds the budget,
//! when the materialised estimate fits it, or when the gate fails.
//!
//! Flags / env:
//! - `--baseline <tsv>`: gate the deterministic byte metrics against
//!   this committed baseline (`crates/bench/results/scale.tsv`). It is
//!   read before the run and refused when it is the `scale.tsv` this
//!   run writes, i.e. when `SP_RESULTS_DIR` is not set elsewhere.
//! - `SP_BENCH_GATE_TOLERANCE`: fractional gate tolerance
//!   (default `0.15`). Read before the run; a value that is not a
//!   finite number ≥ 0 (`50%`, `0,5`, `NaN`) exits 1.
//! - `SP_RESULTS_DIR`: where `scale.tsv` lands, in the shared
//!   [`sp_bench::gate`] schema with the `bytes` rows gated.

use sp_bench::gate::{self, Row};
use sp_bench::scale::{self, ByteTally};
use sp_graph::{Graph, GraphBuilder};
use sp_parallel::resolve_threads;
use sp_proximity::band::{RowBands, BAND_ROWS};
use sp_proximity::{EdgeProximity, ProximityKind};
use sp_skipgram::{NegativeSampling, PerturbStrategy, Subgraph, TrainConfig, Trainer};
use std::time::Instant;

/// One scale-bench scenario.
struct Scenario {
    label: &'static str,
    nodes: usize,
    /// Chord strides per node on top of the ring (degree ≈ 2·(1+chords)).
    chords: usize,
    dim: usize,
    batch_size: usize,
    budget_bytes: u64,
}

impl Scenario {
    fn smoke() -> Self {
        Self {
            label: "smoke",
            nodes: 60_000,
            chords: 7,
            dim: 8,
            batch_size: 128,
            budget_bytes: 64 << 20,
        }
    }

    fn full() -> Self {
        Self {
            label: "full",
            nodes: 1_250_000,
            chords: 15,
            dim: 16,
            batch_size: 256,
            // The tracked peak is 0.78 GiB and the materialised
            // estimate 3.74 GiB: the budget sits between them.
            budget_bytes: 3 << 30,
        }
    }

    fn train_config(&self) -> TrainConfig {
        TrainConfig {
            dim: self.dim,
            negatives: 3,
            batch_size: self.batch_size,
            learning_rate: 0.1,
            clip: 1.0,
            sigma: 5.0,
            epsilon: 2.0,
            delta: 1e-5,
            epochs: 1,
            strategy: PerturbStrategy::NonZero,
            negative_sampling: NegativeSampling::DegreeProportional,
            seed: 0x5CA1E,
            threads: None,
            checkpoint_every: None,
            checkpoint_dir: None,
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let sc = if argv.iter().any(|a| a == "--smoke") {
        Scenario::smoke()
    } else {
        Scenario::full()
    };
    // Read the baseline and the tolerance before this run writes its
    // own scale.tsv; either exits 1 when it is bad.
    let baseline = gate::baseline(&argv, "scale");
    let tolerance = gate::tolerance();

    println!(
        "=== sp_scale_bench [{}]: {} nodes, budget {} MiB, bands of {} rows ===",
        sc.label,
        sc.nodes,
        sc.budget_bytes >> 20,
        BAND_ROWS
    );

    let mut failures: Vec<String> = Vec::new();
    let mut tally = ByteTally::default();
    let t_start = Instant::now();

    // --- 1. Ingestion: edges arrive one at a time. ---
    let t0 = Instant::now();
    let g = synthetic_graph(sc.nodes, sc.chords, &mut tally);
    let ingest_ms = t0.elapsed().as_millis();
    let graph_bytes = g.heap_bytes();
    println!(
        "[ingest] {} nodes, {} edges, {:.1} MiB resident, {} ms",
        g.num_nodes(),
        g.num_edges(),
        mib(graph_bytes),
        ingest_ms
    );

    // --- 2. Materialised-path size (len-based, no allocation). ---
    let t0 = Instant::now();
    let bands = RowBands::new(&g, ProximityKind::CommonNeighbors)
        .expect("common neighbours is a matrix-backed measure");
    let (p_nnz, band_peak_bytes) = banded_nnz(&bands);
    let materialized_p_bytes = (p_nnz * (8 + 4) + (g.num_nodes() + 1) * 8) as u64;
    let materialized_gs_bytes = (g.num_edges() * (std::mem::size_of::<Subgraph>() + 3 * 4)) as u64;
    println!(
        "[estimate] P nnz {} -> materialised P {:.1} MiB, G_S {:.1} MiB ({} ms)",
        p_nnz,
        mib(materialized_p_bytes),
        mib(materialized_gs_bytes),
        t0.elapsed().as_millis()
    );

    // --- 3. Proximity edge weights: the weights vector plus, while it
    //        runs, the per-chunk weight parts and one scratch row set
    //        per worker. ---
    let t0 = Instant::now();
    let workers = resolve_threads(None) as u64;
    let edge_transient_bytes = (g.num_edges() * 8) as u64 + workers * bands.scratch_bytes();
    tally.add((g.num_edges() * 8) as u64);
    tally.add(edge_transient_bytes);
    let prox = EdgeProximity::compute_threads(&g, ProximityKind::CommonNeighbors, None);
    tally.release(edge_transient_bytes);
    let proximity_ms = t0.elapsed().as_millis();
    let weights_bytes = (prox.len() * 8) as u64;
    println!(
        "[proximity] {} edge weights in {} ms ({:.1} MiB transient over {} workers)",
        prox.len(),
        proximity_ms,
        mib(edge_transient_bytes),
        workers
    );

    // --- 4. Training: the degree alias table Alg. 1's
    //        degree-proportional sampler builds (prob f64 + alias u32
    //        per node), what the trainer holds (the model, its row →
    //        slot maps and the step slabs), and subgraphs regenerated
    //        on demand. ---
    let t0 = Instant::now();
    let alias_bytes = (g.num_nodes() * (8 + 4)) as u64;
    tally.add(alias_bytes);
    let cfg = sc.train_config();
    let trainer_resident_bytes = cfg.resident_bytes(g.num_nodes());
    tally.add(trainer_resident_bytes);
    let (_, report) = Trainer::new(cfg).train(&g, &prox);
    let train_ms = t0.elapsed().as_millis();
    println!(
        "[train] {} steps, {} epochs, eps {:.4}, {} ms",
        report.steps_run, report.epochs_run, report.epsilon_spent, train_ms
    );

    let blocked_peak_bytes = tally.peak();
    let wall_ns = t_start.elapsed().as_nanos() as u64;
    let bytes_per_edge = blocked_peak_bytes as f64 / g.num_edges() as f64;
    let materialized_peak_bytes = blocked_peak_bytes + materialized_p_bytes + materialized_gs_bytes;
    println!(
        "[rss] blocked peak {:.1} MiB ({:.1} bytes/edge); materialised path needs \
         >= {:.1} MiB; budget {:.1} MiB",
        mib(blocked_peak_bytes),
        bytes_per_edge,
        mib(materialized_peak_bytes),
        mib(sc.budget_bytes)
    );

    // --- 5. Budget assertions. ---
    if blocked_peak_bytes > sc.budget_bytes {
        failures.push(format!(
            "blocked peak {} bytes exceeds the {} byte budget",
            blocked_peak_bytes, sc.budget_bytes
        ));
    }
    if materialized_peak_bytes <= sc.budget_bytes {
        failures.push(format!(
            "materialised estimate {} bytes fits the {} byte budget — the scenario \
             no longer demonstrates the out-of-core path",
            materialized_peak_bytes, sc.budget_bytes
        ));
    }

    // --- 6. The record: scale.tsv, byte counts gated. ---
    let rows: Vec<Row> = [
        ("nodes", "count", g.num_nodes() as f64),
        ("edges", "count", g.num_edges() as f64),
        ("p_nnz", "count", p_nnz as f64),
        ("graph_bytes", "bytes", graph_bytes as f64),
        ("weights_bytes", "bytes", weights_bytes as f64),
        ("alias_bytes", "bytes", alias_bytes as f64),
        (
            "trainer_resident_bytes",
            "bytes",
            trainer_resident_bytes as f64,
        ),
        ("band_peak_bytes", "bytes", band_peak_bytes as f64),
        ("blocked_peak_bytes", "bytes", blocked_peak_bytes as f64),
        ("bytes_per_edge", "bytes", bytes_per_edge),
        ("materialized_p_bytes", "bytes", materialized_p_bytes as f64),
        (
            "materialized_gs_bytes",
            "bytes",
            materialized_gs_bytes as f64,
        ),
        (
            "materialized_peak_bytes",
            "bytes",
            materialized_peak_bytes as f64,
        ),
        ("wall_ns", "ns", wall_ns as f64),
    ]
    .into_iter()
    .map(|(metric, unit, value)| scale::row(metric, unit, value))
    .collect();
    gate::write("scale", &rows);

    // --- 7. Gate against the committed baseline. ---
    if let Some(baseline) = baseline {
        if !gate::check(&baseline, &rows, tolerance) {
            failures.push("memory baseline gate failed".to_string());
        }
    }

    if failures.is_empty() {
        println!("[scale] PASS");
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Ring + chords: node `i` connects to `i+1` and to `i + stride_j`
/// for `chords` fixed strides — bounded degree ≈ `2·(1 + chords)`,
/// deterministic, and generated edge-by-edge so no edge list
/// materialises outside the builder. `tally` holds the builder's
/// queued edges until the graph is built, then the graph's heap.
fn synthetic_graph(n: usize, chords: usize, tally: &mut ByteTally) -> Graph {
    let mut b = GraphBuilder::new(n);
    let strides: Vec<usize> = (1..=chords)
        .map(|j| ((j * n) / (chords + 3)).max(2) + j)
        .collect();
    for i in 0..n {
        b.add_edge(i as u32, ((i + 1) % n) as u32);
        for &s in &strides {
            b.add_edge(i as u32, ((i + s) % n) as u32);
        }
    }
    let queued = (b.pending_edges() * std::mem::size_of::<(u32, u32)>()) as u64;
    tally.add(queued);
    let g = b.build();
    tally.release(queued);
    tally.add(g.heap_bytes());
    g
}

/// Sweeps the matrix in bands of [`BAND_ROWS`] rows without keeping
/// any of them: returns the total nnz the materialised P would hold and
/// the largest single band's heap footprint (what the matrix finish
/// holds per band).
fn banded_nnz(bands: &RowBands) -> (usize, u64) {
    let n = bands.rows();
    let mut nnz = 0usize;
    let mut peak = 0u64;
    for start in (0..n).step_by(BAND_ROWS) {
        let block = bands.band(start..(start + BAND_ROWS).min(n), None);
        nnz += block.indices.len();
        peak = peak.max(block.heap_bytes());
    }
    (nnz, peak)
}
