//! Hot-path kernel bench + CI regression gate.
//!
//! Times the kernels the trainer and the server run, the vector
//! kernels at the paper's r = 128 and the checksum over 64 KiB, each
//! against a reference timed in the same run:
//!
//! | kernel | reference | shipping |
//! |---|---|---|
//! | `dot_f64` | plain indexed loop | `vector::dot` |
//! | `dot_rows_f64` | three `vector::dot` calls | `vector::dot_rows` over three rows |
//! | `grad_clip_f64` | plain loop over the example's k + 2 = 7 written-out rows | `GradBuffer::clip` on one k = 5 example |
//! | `dot_f32` | plain loop | `vector::dot_f32` |
//! | `dist2_sq_f32` | plain loop | `vector::dist2_sq_f32` |
//! | `dist2_rows_f32` | four `vector::dist2_sq_f32` calls | `vector::dist2_sq_f32_rows` over four rows |
//! | `noise_row` | floor: a `SmallRng` seeded per row, 128 raw words to `f64` | `NoiseKeys::fill_row` |
//! | `crc32` | the `crc32_step` fold, one byte per step | `sp_parallel::crc32` (slicing-by-16) |
//!
//! Each kernel writes three rows of `kernels.tsv` in the shared
//! [`sp_bench::gate`] schema (`SP_RESULTS_DIR` respected): the
//! reference and shipping medians in `ns`, ungated, and their ratio,
//! gated. A slow box slows both sides of a ratio, so it cancels; a
//! kernel that loses its lane shape moves it. With `--baseline <tsv>`
//! the bin exits non-zero when any gated ratio exceeds its pin by more
//! than the gate tolerance.
//!
//! Flags / env:
//! - `--baseline <tsv>`: run the regression gate against this file
//!   (read before the run; refused when it is the `kernels.tsv` this
//!   run writes, i.e. when `SP_RESULTS_DIR` is not set elsewhere).
//! - `SP_BENCH_GATE_TOLERANCE`: fractional gate tolerance
//!   (default `0.15` = 15%). Read before the run; a value that is not
//!   a finite number ≥ 0 (`50%`, `0,5`, `NaN`) exits 1.
//!
//! Methodology: each sample times a batch of kernel calls and divides
//! by the batch size. The size is calibrated by doubling until one
//! batch spans [`TARGET_SAMPLE_NS`]: thousands of calls of a vector
//! kernel, which keeps the timer overhead negligible, and one or a
//! few of a 64 KiB checksum. Samples are taken **round-robin
//! across all kernels**, each reference right before its shipping
//! kernel — a noisy scheduling window on a shared runner then inflates
//! one sample of many kernels instead of every sample of one kernel —
//! and the reported number is the median of an odd count of rounds.

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use sp_bench::gate::{self, Row};
use sp_bench::kernels;
use sp_dp::NoiseKeys;
use sp_linalg::vector;
use sp_parallel::{crc32, crc32_step};
use sp_skipgram::model::GradBuffer;
use sp_skipgram::{SkipGramModel, Subgraph, TrainConfig};
use std::hint::black_box;
use std::time::Instant;

/// Paper embedding dimension: the trainer's rows and the served ones.
const DIM: usize = 128;
/// Bytes per checksum call.
const CRC_BYTES: usize = 64 << 10;
/// Negatives per example, as the trainer's default.
const NEGATIVES: usize = 5;
/// Rounds, an odd count so the median is a real observation. A round
/// takes ~4 ms. The box sometimes slows the table-driven kernels
/// (`crc32`, `noise_row`) alone for 40–60 ms while their references
/// hold; at 101 rounds such a burst must last ~0.2 s to move a median.
const SAMPLES: usize = 101;
/// Target wall-clock span of one timed batch; the per-kernel batch
/// size is calibrated to hit it.
const TARGET_SAMPLE_NS: f64 = 250_000.0;

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    // Read the baseline and the tolerance before this run writes its
    // own kernels.tsv; either exits 1 when it is bad.
    let baseline = gate::baseline(&argv, "kernels");
    let tolerance = gate::tolerance();

    println!(
        "=== sp_kernel_bench: {SAMPLES} interleaved samples x ~{}us per batch ===",
        TARGET_SAMPLE_NS as u64 / 1000
    );
    let rows = run_all();
    print_table(&rows);
    gate::write("kernels", &rows);

    if let Some(baseline) = baseline {
        if !gate::check(&baseline, &rows, tolerance) {
            std::process::exit(1);
        }
    }
}

/// A batch of `n` calls of one kernel, operands pre-bound.
type Body<'a> = Box<dyn FnMut(usize) + 'a>;

/// One kernel: its reference and its shipping form, at one size.
struct Kernel<'a> {
    name: &'static str,
    /// Vector length, or bytes for the checksum.
    dim: usize,
    reference: Body<'a>,
    shipping: Body<'a>,
}

/// Wraps one kernel call into a boxed batch; the kernel is
/// monomorphised and inlined inside the loop, so only the batch
/// boundary pays the dynamic dispatch.
fn batched<'a>(mut f: impl FnMut() + 'a) -> Body<'a> {
    Box::new(move |n| {
        for _ in 0..n {
            f();
        }
    })
}

/// Runs every kernel and returns the rows in TSV order.
fn run_all() -> Vec<Row> {
    let mut rng = 0x5EED_CAFE_u64;
    let mut row = || -> Vec<f64> { (0..DIM).map(|_| unit_f64(&mut rng)).collect() };
    let (xa, ya, za, wa) = (row(), row(), row(), row());
    let mut row_f32 = || -> Vec<f32> { row().iter().map(|&v| v as f32).collect() };
    let (xf, yf) = (row_f32(), row_f32());
    let (c0, c1, c2, c3) = (row_f32(), row_f32(), row_f32(), row_f32());
    let bytes: Vec<u8> = (0..CRC_BYTES as u64)
        .map(|i| sp_parallel::splitmix64(i) as u8)
        .collect();

    // One trainer example: a centre, its positive and k distinct
    // negatives, so the gradient has k + 2 rows, as in a typical step.
    let model = SkipGramModel::new(NEGATIVES + 2, DIM, &mut SmallRng::seed_from_u64(0x5EED));
    let sg = Subgraph {
        center: 0,
        positive: 1,
        negatives: (2..NEGATIVES as u32 + 2).collect(),
        edge_index: 0,
    };
    let mut buf = GradBuffer::new();
    model.example_grad(&sg, 1.0, &mut buf);
    let mut written = vec![buf.grad_center.clone()];
    for u in 0..buf.ctx_rows().len() {
        let mut out = vec![0.0; DIM];
        buf.add_ctx(u, &mut out);
        written.push(out);
    }
    assert_eq!(written.len(), NEGATIVES + 2, "one row per touched node");
    let clip = TrainConfig::default().clip;

    let keys = NoiseKeys::new(0x5EED);
    let (mut noise, mut floor) = (vec![0.0f64; DIM], vec![0.0f64; DIM]);
    let (mut noise_key, mut floor_key) = (0u64, 0u64);

    let (x, ctx) = (&xa[..], [&ya[..], &za[..], &wa[..]]);
    let (q, cs) = (&xf[..], [&c0[..], &c1[..], &c2[..], &c3[..]]);
    let mut kernels = vec![
        // The trainer's score/gradient inner product.
        Kernel {
            name: "dot_f64",
            dim: DIM,
            reference: batched(|| {
                black_box(dot_scalar(black_box(&xa), black_box(&ya)));
            }),
            shipping: batched(|| {
                black_box(vector::dot(black_box(&xa), black_box(&ya)));
            }),
        },
        // The trainer's inner products of one centre row with three
        // context rows in one pass.
        Kernel {
            name: "dot_rows_f64",
            dim: DIM,
            reference: batched(move || {
                let x = black_box(x);
                black_box(ctx.map(|y| vector::dot(x, black_box(y))));
            }),
            shipping: batched(move || {
                let mut out = [0.0; 3];
                vector::dot_rows(black_box(x), |j| black_box(ctx[j]), &mut out);
                black_box(out);
            }),
        },
        // Per-example DP clipping of the joint k + 2-row gradient.
        Kernel {
            name: "grad_clip_f64",
            dim: DIM,
            reference: batched(|| {
                black_box(clip_scalar(black_box(&written), clip));
            }),
            shipping: batched(move || {
                black_box(black_box(&mut buf).clip(clip));
            }),
        },
        // The serving score path: exact oracle, IVF rerank and TCP.
        Kernel {
            name: "dot_f32",
            dim: DIM,
            reference: batched(|| {
                black_box(dot_f32_scalar(black_box(&xf), black_box(&yf)));
            }),
            shipping: batched(|| {
                black_box(vector::dot_f32(black_box(&xf), black_box(&yf)));
            }),
        },
        // IVF query-to-centroid and k-means assignment distance.
        Kernel {
            name: "dist2_sq_f32",
            dim: DIM,
            reference: batched(|| {
                black_box(dist2_sq_f32_scalar(black_box(&xf), black_box(&yf)));
            }),
            shipping: batched(|| {
                black_box(vector::dist2_sq_f32(black_box(&xf), black_box(&yf)));
            }),
        },
        // IVF k-means assignment and probe ordering: one vector's
        // distances to four centroids in one pass.
        Kernel {
            name: "dist2_rows_f32",
            dim: DIM,
            reference: batched(move || {
                let q = black_box(q);
                black_box(cs.map(|c| vector::dist2_sq_f32(q, black_box(c))));
            }),
            shipping: batched(move || {
                let mut out = [0.0; 4];
                vector::dist2_sq_f32_rows(black_box(q), |j| black_box(cs[j]), &mut out);
                black_box(out);
            }),
        },
        // The trainer's per-row Gaussian noise, keyed by (seed, step,
        // matrix, row): a fresh row every call, as in a step.
        Kernel {
            name: "noise_row",
            dim: DIM,
            reference: batched(move || {
                floor_key += 1;
                noise_floor(black_box(floor_key), &mut floor);
                black_box(floor[0]);
            }),
            shipping: batched(move || {
                noise_key += 1;
                keys.fill_row(1, 1, black_box(noise_key), &mut noise, 10.0);
                black_box(noise[0]);
            }),
        },
        // The checksum of every .spm and .spc written and read.
        Kernel {
            name: "crc32",
            dim: CRC_BYTES,
            reference: batched(|| {
                black_box(crc32_bytewise(black_box(&bytes)));
            }),
            shipping: batched(|| {
                black_box(crc32(black_box(&bytes)));
            }),
        },
    ];

    let medians = measure(&mut kernels);
    kernels
        .iter()
        .zip(medians.chunks_exact(2))
        .flat_map(|(k, m)| {
            [
                kernels::row(k.name, "reference", k.dim, m[0]),
                kernels::row(k.name, "shipping", k.dim, m[1]),
                kernels::ratio(k.name, k.dim, m[0], m[1]),
            ]
        })
        .collect()
}

/// Calibrates a batch size per body, then samples all bodies
/// round-robin: round `r` times one batch of every body before any
/// body sees round `r + 1`, so a noisy scheduling window perturbs one
/// sample of many kernels instead of every sample of one. Returns each
/// kernel's reference and shipping medians, in that order, rounded to
/// 0.01 ns.
fn measure(kernels: &mut [Kernel]) -> Vec<f64> {
    let mut bodies: Vec<&mut Body> = kernels
        .iter_mut()
        .flat_map(|k| [&mut k.reference, &mut k.shipping])
        .collect();
    // Calibration doubles as warm-up: double a body's call count until
    // one batch spans the target, then scale the count to it.
    let calls: Vec<usize> = bodies
        .iter_mut()
        .map(|body| {
            let mut n = 1;
            loop {
                let t0 = Instant::now();
                body(n);
                let ns = t0.elapsed().as_nanos() as f64;
                if ns >= TARGET_SAMPLE_NS {
                    break ((n as f64 * TARGET_SAMPLE_NS / ns) as usize).max(1);
                }
                n *= 2;
            }
        })
        .collect();

    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(SAMPLES); bodies.len()];
    for _ in 0..SAMPLES {
        for (i, body) in bodies.iter_mut().enumerate() {
            let t0 = Instant::now();
            body(calls[i]);
            samples[i].push(t0.elapsed().as_nanos() as f64 / calls[i] as f64);
        }
    }
    samples
        .iter_mut()
        .map(|s| (gate::median(s) * 100.0).round() / 100.0)
        .collect()
}

// --- references (plain indexed code, no lane shaping) ---

fn dot_scalar(x: &[f64], y: &[f64]) -> f64 {
    let mut s = 0.0;
    for i in 0..x.len().min(y.len()) {
        s += x[i] * y[i];
    }
    s
}

/// The clip factor of the joint gradient made of `rows`: sum of
/// squares, `sqrt`, compare.
fn clip_scalar(rows: &[Vec<f64>], c: f64) -> f64 {
    let mut sq = 0.0;
    for row in rows {
        for &v in row {
            sq += v * v;
        }
    }
    let norm = sq.sqrt();
    if norm > c {
        c / norm
    } else {
        1.0
    }
}

/// CRC-32 one byte per step: [`crc32_step`] folded over `data`.
fn crc32_bytewise(data: &[u8]) -> u32 {
    !data.iter().fold(!0u32, |c, &b| crc32_step(c, b))
}

fn dot_f32_scalar(x: &[f32], y: &[f32]) -> f32 {
    let mut s = 0.0f32;
    for i in 0..x.len().min(y.len()) {
        s += x[i] * y[i];
    }
    s
}

fn dist2_sq_f32_scalar(x: &[f32], y: &[f32]) -> f32 {
    let mut s = 0.0f32;
    for i in 0..x.len().min(y.len()) {
        let d = x[i] - y[i];
        s += d * d;
    }
    s
}

/// The floor under a keyed noise row: the generator seeded per row
/// and one raw word per element, converted as the ziggurat converts
/// its position bits, with no Gaussian transform.
fn noise_floor(row: u64, out: &mut [f64]) {
    let mut rng = SmallRng::seed_from_u64(row);
    for v in out {
        *v = (rng.next_u64() >> 11) as f64;
    }
}

/// splitmix64-fed uniform in [-1, 1): deterministic operand fill.
fn unit_f64(state: &mut u64) -> f64 {
    let z = sp_parallel::splitmix64(*state);
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    (z >> 11) as f64 / (1u64 << 52) as f64 * 2.0 - 1.0
}

// --- reporting ---

fn print_table(rows: &[Row]) {
    println!(
        "{:<28} {:>10} {:>6} {:>4}",
        "metric", "value", "unit", "gate"
    );
    for r in rows {
        println!(
            "{:<28} {:>10.3} {:>6} {:>4}",
            r.metric,
            r.value,
            r.unit,
            u8::from(r.gate)
        );
    }
}
