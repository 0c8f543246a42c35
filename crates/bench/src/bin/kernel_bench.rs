//! Hot-path kernel microbench + CI regression gate.
//!
//! Measures the shipping lane-shaped kernels in `sp_linalg::vector`
//! (and the serving f32 score path that delegates to them) against
//! plain scalar reference loops, the trainer's three-row inner products
//! (`dot_rows_f64`: one `dot_rows` pass against three `dot` calls),
//! plus the trainer's keyed Gaussian
//! noise row (`noise_row`: one r = 128 row through
//! `sp_dp::NoiseKeys::fill_row`, gated with no scalar reference),
//! writes the per-kernel medians as `kernels.tsv` in the shared
//! [`sp_bench::gate`] schema (`SP_RESULTS_DIR` respected; one
//! `<kernel>.<variant>.<dim>` metric per row, the `lanes` rows gated),
//! and — with `--baseline <tsv>` — exits non-zero when any gated median
//! regressed more than the gate tolerance versus the committed
//! baseline.
//!
//! Flags / env:
//! - `--baseline <tsv>`: run the regression gate against this file
//!   (read before the run; refused when it is the `kernels.tsv` this
//!   run writes, i.e. when `SP_RESULTS_DIR` is not set elsewhere).
//! - `SP_BENCH_GATE_TOLERANCE`: fractional gate tolerance
//!   (default `0.15` = 15%).
//!
//! Methodology: each sample times a calibrated batch of kernel calls
//! (sized so one batch spans roughly [`TARGET_SAMPLE_NS`], keeping
//! the timer overhead negligible even for single-digit-ns kernels)
//! and divides by the batch size. Samples are taken **round-robin
//! across all kernels** — a noisy scheduling window on a shared
//! runner then inflates one sample of many kernels instead of every
//! sample of one kernel — and the reported number is the median of an
//! odd count of rounds. Scalar rows are reference points only — the
//! gate compares lanes medians against the committed lanes medians,
//! never scalar vs lanes.

use sp_bench::gate::{self, Row};
use sp_bench::kernels;
use sp_dp::NoiseKeys;
use sp_linalg::vector;
use std::hint::black_box;
use std::time::Instant;

/// Paper embedding dimension — the trainer's gradient/clip width.
const DIM_F64: usize = 128;
/// Narrow f32 point: a dim-16 serving store, as in the IVF recall
/// test, where `dist2_sq_f32` assigns nodes to k-means centroids.
const DIM_F32: usize = 16;
/// Second f32 point: full-width embeddings served without quantising.
const DIM_F32_WIDE: usize = 128;
/// Odd sample count -> median is a real observation.
const SAMPLES: usize = 31;
/// Target wall-clock span of one timed batch; the per-kernel batch
/// size is calibrated to hit it.
const TARGET_SAMPLE_NS: f64 = 250_000.0;
/// Kernel calls per closure invocation: amortises the dynamic
/// dispatch to ~0.03 ns/call so single-digit-ns kernels measure the
/// kernel, not the call.
const UNROLL: usize = 64;
/// Closure invocations used for the calibration pass itself.
const CALIBRATION_BATCHES: usize = 64;

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    // Read the baseline before this run writes its own kernels.tsv.
    let baseline = gate::baseline(&argv, "kernels");

    println!(
        "=== sp_kernel_bench: {SAMPLES} interleaved samples x ~{}us per batch ===",
        TARGET_SAMPLE_NS as u64 / 1000
    );
    let rows = run_all();
    print_table(&rows);
    gate::write("kernels", &rows);

    if let Some(baseline) = baseline {
        if !gate::check(&baseline, &rows, gate::tolerance()) {
            std::process::exit(1);
        }
    }
}

/// One kernel/variant/dim measurement candidate: `body` performs
/// [`UNROLL`] kernel calls (operands pre-bound).
struct Candidate<'a> {
    kernel: &'static str,
    variant: &'static str,
    dim: usize,
    body: Box<dyn FnMut() + 'a>,
}

/// Wraps one kernel call into an [`UNROLL`]-call boxed batch; the
/// kernel is monomorphised and inlined inside the loop, so only the
/// batch boundary pays the dynamic dispatch.
fn batched<'a>(mut f: impl FnMut() + 'a) -> Box<dyn FnMut() + 'a> {
    Box::new(move || {
        for _ in 0..UNROLL {
            f();
        }
    })
}

/// Runs every kernel/variant/dim combination and returns the rows in
/// TSV order.
fn run_all() -> Vec<Row> {
    let mut rng = 0x5EED_CAFE_u64;
    let xa: Vec<f64> = (0..DIM_F64).map(|_| unit_f64(&mut rng)).collect();
    let ya: Vec<f64> = (0..DIM_F64).map(|_| unit_f64(&mut rng)).collect();
    let xf: Vec<f32> = (0..DIM_F32_WIDE)
        .map(|_| unit_f64(&mut rng) as f32)
        .collect();
    let yf: Vec<f32> = (0..DIM_F32_WIDE)
        .map(|_| unit_f64(&mut rng) as f32)
        .collect();
    // Two more context rows for `dot_rows_f64`, drawn after every
    // other operand so those keep their values.
    let za: Vec<f64> = (0..DIM_F64).map(|_| unit_f64(&mut rng)).collect();
    let wa: Vec<f64> = (0..DIM_F64).map(|_| unit_f64(&mut rng)).collect();
    let mut acc = ya.clone();
    let mut acc2 = ya.clone();
    let mut ga = xa.clone();
    let mut gb = xa.clone();

    let mut cands: Vec<Candidate> = Vec::new();

    // dot (f64): the trainer's score/gradient inner product.
    cands.push(Candidate {
        kernel: "dot_f64",
        variant: "scalar",
        dim: DIM_F64,
        body: batched(|| {
            black_box(dot_scalar(black_box(&xa), black_box(&ya)));
        }),
    });
    cands.push(Candidate {
        kernel: "dot_f64",
        variant: "lanes",
        dim: DIM_F64,
        body: batched(|| {
            black_box(vector::dot(black_box(&xa), black_box(&ya)));
        }),
    });

    // dot_rows (f64): the trainer's inner products of one centre row
    // with three context rows in one pass, against three `dot` calls.
    let (x, ctx) = (&xa[..], [&ya[..], &za[..], &wa[..]]);
    cands.push(Candidate {
        kernel: "dot_rows_f64",
        variant: "scalar",
        dim: DIM_F64,
        body: batched(move || {
            let x = black_box(x);
            black_box(ctx.map(|y| vector::dot(x, black_box(y))));
        }),
    });
    cands.push(Candidate {
        kernel: "dot_rows_f64",
        variant: "lanes",
        dim: DIM_F64,
        body: batched(move || {
            let mut out = [0.0; 3];
            vector::dot_rows(black_box(x), |j| black_box(ctx[j]), &mut out);
            black_box(out);
        }),
    });

    // axpy (f64): the gradient accumulate/apply step.
    cands.push(Candidate {
        kernel: "axpy_f64",
        variant: "scalar",
        dim: DIM_F64,
        body: batched(|| {
            axpy_scalar(black_box(&mut acc), 1.0e-9, black_box(&xa));
            black_box(acc[0]);
        }),
    });
    cands.push(Candidate {
        kernel: "axpy_f64",
        variant: "lanes",
        dim: DIM_F64,
        body: batched(|| {
            vector::axpy(1.0e-9, black_box(&xa), black_box(&mut acc2));
            black_box(acc2[0]);
        }),
    });

    // clip_norm (f64): per-example DP gradient clipping
    // (norm2_sq + conditional scale through the lane kernels).
    cands.push(Candidate {
        kernel: "clip_norm_f64",
        variant: "scalar",
        dim: DIM_F64,
        body: batched(|| {
            black_box(clip_norm_scalar(black_box(&mut ga), 1.0));
        }),
    });
    cands.push(Candidate {
        kernel: "clip_norm_f64",
        variant: "lanes",
        dim: DIM_F64,
        body: batched(|| {
            black_box(vector::clip_norm(black_box(&mut gb), 1.0));
        }),
    });

    // dot (f32): the single serving score path (exact oracle, IVF
    // rerank, and the TCP front-end all route through it).
    for dim in [DIM_F32, DIM_F32_WIDE] {
        let (x, y) = (&xf[..dim], &yf[..dim]);
        cands.push(Candidate {
            kernel: "dot_f32",
            variant: "scalar",
            dim,
            body: batched(move || {
                black_box(dot_f32_scalar(black_box(x), black_box(y)));
            }),
        });
        cands.push(Candidate {
            kernel: "dot_f32",
            variant: "lanes",
            dim,
            body: batched(move || {
                black_box(vector::dot_f32(black_box(x), black_box(y)));
            }),
        });
    }

    // dist2_sq (f32): IVF k-means assignment distance.
    let (x, y) = (&xf[..DIM_F32], &yf[..DIM_F32]);
    cands.push(Candidate {
        kernel: "dist2_sq_f32",
        variant: "scalar",
        dim: DIM_F32,
        body: batched(move || {
            black_box(dist2_sq_f32_scalar(black_box(x), black_box(y)));
        }),
    });
    cands.push(Candidate {
        kernel: "dist2_sq_f32",
        variant: "lanes",
        dim: DIM_F32,
        body: batched(move || {
            black_box(vector::dist2_sq_f32(black_box(x), black_box(y)));
        }),
    });

    // noise_row: the trainer's per-row Gaussian noise, keyed by
    // (seed, step, matrix, row) — a fresh row every call, as in a step.
    let keys = NoiseKeys::new(0x5EED);
    let mut noise = vec![0.0f64; DIM_F64];
    let mut row = 0u64;
    cands.push(Candidate {
        kernel: "noise_row",
        variant: "lanes",
        dim: DIM_F64,
        body: batched(move || {
            row += 1;
            keys.fill_row(1, 1, black_box(row), &mut noise, 10.0);
            black_box(noise[0]);
        }),
    });

    measure(&mut cands)
}

/// Calibrates a batch size per candidate, then samples all candidates
/// round-robin: round `r` times one batch of every kernel before any
/// kernel sees round `r + 1`, so a noisy scheduling window perturbs
/// one sample of many kernels instead of every sample of one. Medians
/// are rounded to 0.01 ns.
fn measure(cands: &mut [Candidate]) -> Vec<Row> {
    // Calibration doubles as warm-up. `reps` counts UNROLL-call
    // batches per timed sample.
    let reps: Vec<usize> = cands
        .iter_mut()
        .map(|c| {
            let t0 = Instant::now();
            for _ in 0..CALIBRATION_BATCHES {
                (c.body)();
            }
            let per_batch = t0.elapsed().as_nanos() as f64 / CALIBRATION_BATCHES as f64;
            ((TARGET_SAMPLE_NS / per_batch.max(1.0)) as usize).clamp(16, 100_000)
        })
        .collect();

    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(SAMPLES); cands.len()];
    for _ in 0..SAMPLES {
        for (i, c) in cands.iter_mut().enumerate() {
            let t0 = Instant::now();
            for _ in 0..reps[i] {
                (c.body)();
            }
            samples[i].push(t0.elapsed().as_nanos() as f64 / (reps[i] * UNROLL) as f64);
        }
    }

    cands
        .iter()
        .zip(samples.iter_mut())
        .map(|(c, s)| {
            let median_ns = (gate::median(s) * 100.0).round() / 100.0;
            kernels::row(c.kernel, c.variant, c.dim, median_ns)
        })
        .collect()
}

// --- scalar reference loops (plain indexed code, no lane shaping) ---

fn dot_scalar(x: &[f64], y: &[f64]) -> f64 {
    let mut s = 0.0;
    for i in 0..x.len().min(y.len()) {
        s += x[i] * y[i];
    }
    s
}

fn axpy_scalar(y: &mut [f64], a: f64, x: &[f64]) {
    for i in 0..y.len().min(x.len()) {
        y[i] += a * x[i];
    }
}

fn clip_norm_scalar(x: &mut [f64], max_norm: f64) -> f64 {
    let mut n2 = 0.0;
    for &v in x.iter() {
        n2 += v * v;
    }
    let n = n2.sqrt();
    if n > max_norm {
        let f = max_norm / n;
        for v in x.iter_mut() {
            *v *= f;
        }
        f
    } else {
        1.0
    }
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

/// splitmix64-fed uniform in [-1, 1): deterministic operand fill.
fn unit_f64(state: &mut u64) -> f64 {
    let z = sp_parallel::splitmix64(*state);
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    (z >> 11) as f64 / (1u64 << 52) as f64 * 2.0 - 1.0
}

// --- reporting ---

fn print_table(rows: &[Row]) {
    println!("{:<24} {:>12} {:>4}", "metric", "median_ns", "gate");
    for r in rows {
        println!("{:<24} {:>12.2} {:>4}", r.metric, r.value, u8::from(r.gate));
    }
    for r in rows.iter().filter(|r| r.metric.contains(".lanes.")) {
        let scalar = r.metric.replace(".lanes.", ".scalar.");
        if let Some(s) = rows.iter().find(|s| s.metric == scalar) {
            println!(
                "  {}: lanes {:.2} ns vs scalar {:.2} ns ({:.2}x)",
                r.metric,
                r.value,
                s.value,
                s.value / r.value
            );
        }
    }
}
