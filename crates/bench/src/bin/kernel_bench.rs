//! Hot-path kernel microbench + CI regression gate.
//!
//! Measures the shipping lane-shaped kernels in `sp_linalg::vector`
//! (and the serving f32 score path that delegates to them) against
//! plain scalar reference loops, plus the trainer's keyed Gaussian
//! noise row (`noise_row`: one r = 128 row through
//! `sp_dp::NoiseKeys::fill_row`, gated with no scalar reference),
//! writes the per-kernel medians as
//! `kernels.tsv` via the shared harness (`SP_RESULTS_DIR` respected)
//! plus a `BENCH_kernels.json` summary, and — with `--baseline
//! <tsv>` — exits non-zero when any `lanes` median regressed more
//! than the gate tolerance versus the committed baseline.
//!
//! Flags / env:
//! - `--out <path>`: JSON summary path (default `BENCH_kernels.json`).
//! - `--baseline <tsv>`: run the regression gate against this file
//!   (read before the run; refused when it is the `kernels.tsv` this
//!   run writes, i.e. when `SP_RESULTS_DIR` is not set elsewhere).
//! - `SP_BENCH_GATE_TOLERANCE`: fractional gate tolerance
//!   (default `0.15` = 15%).
//! - `SP_KERNEL_BENCH_SLOW=1`: honestly slow the lanes variants down
//!   (each timed call runs the kernel twice) — used once to prove the
//!   gate trips; never set in CI.
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

use sp_bench::harness::{read_baseline, tsv_path, write_tsv};
use sp_bench::kernels::{compare, median_ns, parse_tsv, GateOutcome, KernelRow, TSV_HEADER};
use sp_dp::NoiseKeys;
use sp_linalg::vector;
use std::hint::black_box;
use std::io::Write as _;
use std::time::Instant;

/// Paper embedding dimension — the trainer's gradient/clip width.
const DIM_F64: usize = 128;
/// Serving dimension (BlogCatalog-scale store in `sp_serve_bench`).
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
    let out_path = flag_value(&argv, "--out").unwrap_or_else(|| "BENCH_kernels.json".to_string());
    // Read the baseline before this run writes its own kernels.tsv.
    let baseline = flag_value(&argv, "--baseline").map(|path| {
        let parsed = read_baseline(path.as_ref(), &tsv_path("kernels")).and_then(|text| {
            parse_tsv(&text).map_err(|e| format!("cannot parse baseline {path}: {e}"))
        });
        parsed.unwrap_or_else(|e| {
            eprintln!("FAIL: {e}");
            std::process::exit(1);
        })
    });
    let slow = std::env::var("SP_KERNEL_BENCH_SLOW")
        .map(|v| v == "1")
        .unwrap_or(false);
    let tolerance = std::env::var("SP_BENCH_GATE_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.15);

    println!(
        "=== sp_kernel_bench: {SAMPLES} interleaved samples x ~{}us per batch ===",
        TARGET_SAMPLE_NS as u64 / 1000
    );
    if slow {
        println!("[slow] SP_KERNEL_BENCH_SLOW=1: lanes variants run twice per call");
    }

    let rows = run_all(slow);
    print_table(&rows);

    let tsv_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.kernel.clone(),
                r.variant.clone(),
                r.dim.to_string(),
                format!("{:.2}", r.median_ns),
            ]
        })
        .collect();
    write_tsv("kernels", &TSV_HEADER, &tsv_rows);
    write_json(&out_path, &rows, tolerance);

    if let Some(baseline) = baseline {
        let outcome = compare(&baseline, &rows, tolerance);
        report_gate(&outcome, tolerance);
        if !outcome.pass() {
            std::process::exit(1);
        }
    }
}

fn flag_value(argv: &[String], flag: &str) -> Option<String> {
    argv.iter()
        .position(|a| a == flag)
        .and_then(|i| argv.get(i + 1).cloned())
}

/// One kernel/variant/dim measurement candidate: `body` performs
/// [`UNROLL`] kernel calls (operands pre-bound; with the slowdown
/// injection the driver calls it twice per iteration).
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
fn run_all(slow: bool) -> Vec<KernelRow> {
    let mut rng = 0x5EED_CAFE_u64;
    let xa: Vec<f64> = (0..DIM_F64).map(|_| unit_f64(&mut rng)).collect();
    let ya: Vec<f64> = (0..DIM_F64).map(|_| unit_f64(&mut rng)).collect();
    let xf: Vec<f32> = (0..DIM_F32_WIDE)
        .map(|_| unit_f64(&mut rng) as f32)
        .collect();
    let yf: Vec<f32> = (0..DIM_F32_WIDE)
        .map(|_| unit_f64(&mut rng) as f32)
        .collect();
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

    measure(&mut cands, slow)
}

/// Calibrates a batch size per candidate, then samples all candidates
/// round-robin: round `r` times one batch of every kernel before any
/// kernel sees round `r + 1`, so a noisy scheduling window perturbs
/// one sample of many kernels instead of every sample of one. With
/// `slow`, `lanes` bodies run twice per iteration — an honest ~2x
/// slowdown for the gate demonstration.
fn measure(cands: &mut [Candidate], slow: bool) -> Vec<KernelRow> {
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
            let double = slow && c.variant == "lanes";
            let t0 = Instant::now();
            for _ in 0..reps[i] {
                (c.body)();
                if double {
                    (c.body)();
                }
            }
            samples[i].push(t0.elapsed().as_nanos() as f64 / (reps[i] * UNROLL) as f64);
        }
    }

    cands
        .iter()
        .zip(samples.iter_mut())
        .map(|(c, s)| KernelRow {
            kernel: c.kernel.to_string(),
            variant: c.variant.to_string(),
            dim: c.dim,
            median_ns: median_ns(s),
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

fn print_table(rows: &[KernelRow]) {
    println!(
        "{:<14} {:<7} {:>4} {:>12}",
        "kernel", "variant", "dim", "median_ns"
    );
    for r in rows {
        println!(
            "{:<14} {:<7} {:>4} {:>12.2}",
            r.kernel, r.variant, r.dim, r.median_ns
        );
    }
    for r in rows.iter().filter(|r| r.variant == "lanes") {
        if let Some(s) = rows
            .iter()
            .find(|s| s.variant == "scalar" && s.kernel == r.kernel && s.dim == r.dim)
        {
            println!(
                "  {} dim={}: lanes {:.2} ns vs scalar {:.2} ns ({:.2}x)",
                r.kernel,
                r.dim,
                r.median_ns,
                s.median_ns,
                s.median_ns / r.median_ns
            );
        }
    }
}

fn write_json(path: &str, rows: &[KernelRow], tolerance: f64) {
    let mut body = String::new();
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            body.push_str(",\n");
        }
        body.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"variant\": \"{}\", \"dim\": {}, \"median_ns\": {:.2}}}",
            r.kernel, r.variant, r.dim, r.median_ns
        ));
    }
    let json = format!(
        r#"{{
  "bench": "sp_kernel_bench",
  "config": {{
    "samples": {SAMPLES},
    "target_sample_us": {target_us},
    "gate_tolerance": {tolerance}
  }},
  "results": [
{body}
  ]
}}
"#,
        target_us = TARGET_SAMPLE_NS as u64 / 1000,
    );
    match std::fs::File::create(path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("[json] {path}"),
        Err(e) => eprintln!("warning: cannot write {path}: {e}"),
    }
}

fn report_gate(outcome: &GateOutcome, tolerance: f64) {
    println!(
        "[gate] compared {} lanes kernels against baseline (tolerance +{:.0}%)",
        outcome.compared,
        100.0 * tolerance
    );
    for m in &outcome.missing {
        eprintln!("FAIL: {m}");
    }
    for r in &outcome.regressions {
        eprintln!("FAIL: regression: {r}");
    }
    if outcome.pass() {
        println!("[gate] PASS");
    }
}
