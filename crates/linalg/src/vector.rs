//! Flat slice kernels, SIMD-shaped.
//!
//! These functions sit in the innermost loops of skip-gram training
//! (`dot_rows` + `axpy` per example per step) and of the serving hot
//! path (per-candidate `dot_f32`, and `dist2_sq_f32_rows` for the
//! centroid distances of the IVF build and probe).
//! The reduction kernels are written as **chunked fixed-width-lane
//! loops**: the main loop walks exact `LANES`-wide chunks keeping one
//! independent accumulator per lane (no loop-carried dependency on a
//! single accumulator), the lanes are folded in a fixed tree order,
//! and a scalar tail handles the remainder. This is the shape LLVM's
//! autovectorizer reliably turns into packed SIMD without `unsafe` or
//! nightly `std::simd` — and the seam where `std::simd` can slot in
//! later without changing results. Element-wise kernels instead use
//! plain bounds-check-free zip loops, which LLVM vectorizes widest
//! for streaming stores (see [`axpy`]).
//!
//! **Determinism contract:** every kernel's result depends only on its
//! inputs — the lane count and fold order are compile-time constants,
//! so results are bit-identical across runs, thread counts, and call
//! sites. Reduction kernels (`dot`, `dot_rows`, `norm2_sq`,
//! `norm2_sq_scaled`, `dist2_sq`, and in `f32` `dot_f32`,
//! `dist2_sq_f32` and `dist2_sq_f32_rows`) define a *canonical*
//! summation order: lane-strided partial sums folded as a fixed tree,
//! then the scalar tail left to right. The multi-row kernels
//! (`dot_rows`, `dist2_sq_f32_rows`) give each row exactly the order of
//! their one-row kernel, whatever the row count. This order differs
//! from the pre-lane single-accumulator order, so goldens pinned on the
//! old order were re-pinned once (see `tests/parallel_determinism.rs`);
//! per call the two orders agree to a few ulps (asserted below).
//! Element-wise kernels (`axpy`, `scale`) are bit-identical to their
//! scalar forms for every input.

/// Lane width of the `f64` kernels: 4 × 64 bit = one AVX2 register,
/// two SSE2 registers — wide enough to hide FP-add latency, narrow
/// enough that the scalar tail stays cheap at the paper's `r = 128`.
const LANES_F64: usize = 4;

/// Lane width of the `f32` kernels (serving path): 8 × 32 bit = one
/// AVX2 register.
const LANES_F32: usize = 8;

/// Inner product of two equal-length slices.
///
/// Canonical summation order: four lane-strided partial sums folded as
/// `(l0 + l1) + (l2 + l3)`, then the scalar tail in index order.
///
/// # Panics
/// Panics in debug builds if the lengths differ.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let n = x.len().min(y.len());
    let split = n - (n % LANES_F64);
    let (xm, xt) = x[..n].split_at(split);
    let (ym, yt) = y[..n].split_at(split);
    let [lanes] = lane_sums(xm, [ym]);
    fold_lanes(lanes, xt, yt)
}

/// Inner products of `x` with `out.len()` rows: `out[j] = dot(x,
/// row(j))`, bit for bit.
///
/// The rows go three to a pass over `x`. A lone [`dot`] at `r = 128`
/// waits on its lanes' add chains; three rows' chains interleave, so a
/// pass costs little more than one `dot`. Each row keeps `dot`'s four
/// lanes, fold and tail, so the grouping changes no bit.
///
/// # Panics
/// Panics in debug builds if a row's length differs from `x`'s.
#[inline]
pub fn dot_rows<'a>(x: &[f64], row: impl Fn(usize) -> &'a [f64], out: &mut [f64]) {
    for (g, o) in out.chunks_mut(3).enumerate() {
        let j = 3 * g;
        match o {
            [a, b, c] => [*a, *b, *c] = dot_group(x, [row(j), row(j + 1), row(j + 2)]),
            [a, b] => [*a, *b] = dot_group(x, [row(j), row(j + 1)]),
            [a] => *a = dot(x, row(j)),
            _ => unreachable!("chunks_mut yields 1..=3 rows"),
        }
    }
}

/// [`dot`] of `x` with each of `R` rows, in one pass over `x`.
#[inline]
fn dot_group<const R: usize>(x: &[f64], rows: [&[f64]; R]) -> [f64; R] {
    let mut n = x.len();
    for y in rows {
        debug_assert_eq!(x.len(), y.len(), "dot: length mismatch");
        n = n.min(y.len());
    }
    let split = n - (n % LANES_F64);
    let (xm, xt) = x[..n].split_at(split);
    let rows = rows.map(|y| y[..n].split_at(split));
    let lanes = lane_sums_apart(xm, rows.map(|(ym, _)| ym));
    let mut out = [0.0; R];
    for ((o, lanes), (_, yt)) in out.iter_mut().zip(lanes).zip(rows) {
        *o = fold_lanes(lanes, xt, yt);
    }
    out
}

/// [`lane_sums`] behind a call boundary. Inlined, LLVM's SLP
/// vectoriser packs lanes of *different* rows into one register to
/// match the adjacent results, and the shuffles that takes made three
/// rows cost as much as three [`dot`] calls; apart, each row keeps its
/// lanes in its own registers.
#[inline(never)]
fn lane_sums_apart<const R: usize>(xm: &[f64], rows: [&[f64]; R]) -> [[f64; LANES_F64]; R] {
    lane_sums(xm, rows)
}

/// Each row's four lane-strided partial sums of `x[i] * row[i]` over
/// `xm`, a whole number of lane chunks: the main loop of [`dot`].
#[inline(always)]
fn lane_sums<const R: usize>(xm: &[f64], rows: [&[f64]; R]) -> [[f64; LANES_F64]; R] {
    let mut chunks = rows.map(|ym| ym[..xm.len()].chunks_exact(LANES_F64));
    let mut lanes = [[0.0f64; LANES_F64]; R];
    for xs in xm.chunks_exact(LANES_F64) {
        // Fixed-size views let LLVM drop the chunk-length bookkeeping
        // and emit one packed multiply-add per iteration.
        let xs: &[f64; LANES_F64] = xs.try_into().expect("exact chunk");
        for (acc, ym) in lanes.iter_mut().zip(&mut chunks) {
            let ys: &[f64; LANES_F64] = ym
                .next()
                .and_then(|ys| ys.try_into().ok())
                .expect("rows as long as x");
            for l in 0..LANES_F64 {
                acc[l] += xs[l] * ys[l];
            }
        }
    }
    lanes
}

/// `dot`'s canonical finish: the lanes folded as `(l0 + l1) + (l2 +
/// l3)`, then the scalar tail in index order.
#[inline(always)]
fn fold_lanes(lanes: [f64; LANES_F64], xt: &[f64], yt: &[f64]) -> f64 {
    let mut s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for (a, b) in xt.iter().zip(yt) {
        s += a * b;
    }
    s
}

/// `y += alpha * x` (the BLAS `axpy` kernel).
///
/// Element-wise, so there is no summation order to pin: results are
/// bit-identical in any loop shape. The bounds-check-free zip over
/// `[..n]` is the shape LLVM vectorizes widest for streaming
/// map-stores — measurably faster here than a hand-chunked lane loop
/// (the chunk-of-4 shape ran ~2x slower than this at `n = 128`).
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    let n = x.len().min(y.len());
    for (yv, xv) in y[..n].iter_mut().zip(&x[..n]) {
        *yv += alpha * xv;
    }
}

/// `x *= alpha` in place (element-wise, bit-identical in any loop
/// shape; see [`axpy`] on why the plain loop is the fast one).
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for v in x {
        *v *= alpha;
    }
}

/// Squared Euclidean norm (canonical [`dot`] order).
#[inline]
pub fn norm2_sq(x: &[f64]) -> f64 {
    dot(x, x)
}

/// [`norm2_sq`] of the row `alpha·x`, without writing the row: each
/// lane squares `alpha * x[i]`, so the result equals `norm2_sq` of the
/// materialised row bit for bit.
#[inline]
pub fn norm2_sq_scaled(alpha: f64, x: &[f64]) -> f64 {
    let (xm, xt) = x.split_at(x.len() - x.len() % LANES_F64);
    let mut lanes = [0.0f64; LANES_F64];
    for xs in xm.chunks_exact(LANES_F64) {
        let xs: &[f64; LANES_F64] = xs.try_into().expect("exact chunk");
        for (l, acc) in lanes.iter_mut().enumerate() {
            let t = alpha * xs[l];
            *acc += t * t;
        }
    }
    let mut s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for a in xt {
        let t = alpha * a;
        s += t * t;
    }
    s
}

/// Euclidean norm.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    norm2_sq(x).sqrt()
}

/// Squared Euclidean distance between two equal-length slices
/// (canonical lane order, like [`dot`]).
#[inline]
pub fn dist2_sq(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len(), "dist2_sq: length mismatch");
    let n = x.len().min(y.len());
    let split = n - (n % LANES_F64);
    let (xm, xt) = x[..n].split_at(split);
    let (ym, yt) = y[..n].split_at(split);
    let mut lanes = [0.0f64; LANES_F64];
    for (xs, ys) in xm.chunks_exact(LANES_F64).zip(ym.chunks_exact(LANES_F64)) {
        let xs: &[f64; LANES_F64] = xs.try_into().expect("exact chunk");
        let ys: &[f64; LANES_F64] = ys.try_into().expect("exact chunk");
        for (l, acc) in lanes.iter_mut().enumerate() {
            let d = xs[l] - ys[l];
            *acc += d * d;
        }
    }
    let mut s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for (a, b) in xt.iter().zip(yt) {
        let d = a - b;
        s += d * d;
    }
    s
}

/// Euclidean distance between two equal-length slices.
#[inline]
pub fn dist2(x: &[f64], y: &[f64]) -> f64 {
    dist2_sq(x, y).sqrt()
}

/// `f32` inner product — the serving hot path (one call per candidate
/// per query). Eight lane-strided partial sums folded as
/// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`, scalar tail in index
/// order. Part of the serving layer's bit-for-bit reproducibility
/// contract: TCP and in-process answers route through this same
/// function, so both see the identical canonical order.
///
/// # Panics
/// Panics in debug builds if the lengths differ.
#[inline]
pub fn dot_f32(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len(), "dot_f32: length mismatch");
    let n = x.len().min(y.len());
    let split = n - (n % LANES_F32);
    let (xm, xt) = x[..n].split_at(split);
    let (ym, yt) = y[..n].split_at(split);
    let mut lanes = [0.0f32; LANES_F32];
    for (xs, ys) in xm.chunks_exact(LANES_F32).zip(ym.chunks_exact(LANES_F32)) {
        let xs: &[f32; LANES_F32] = xs.try_into().expect("exact chunk");
        let ys: &[f32; LANES_F32] = ys.try_into().expect("exact chunk");
        for (l, acc) in lanes.iter_mut().enumerate() {
            *acc += xs[l] * ys[l];
        }
    }
    let mut s = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    for (a, b) in xt.iter().zip(yt) {
        s += a * b;
    }
    s
}

/// `f32` squared Euclidean distance — the IVF coarse-quantizer kernel
/// (query-to-centroid and k-means assignment distances). Same lane
/// shape and canonical order as [`dot_f32`].
///
/// # Panics
/// Panics in debug builds if the lengths differ.
#[inline]
pub fn dist2_sq_f32(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len(), "dist2_sq_f32: length mismatch");
    let n = x.len().min(y.len());
    let split = n - (n % LANES_F32);
    let (xm, xt) = x[..n].split_at(split);
    let (ym, yt) = y[..n].split_at(split);
    let [lanes] = dist2_lanes_f32(xm, [ym]);
    fold_dist2_f32(lanes, xt, yt)
}

/// Squared distances of `x` to `out.len()` rows: `out[j] =
/// dist2_sq_f32(x, row(j))`, bit for bit.
///
/// The rows go four to a pass over `x`, and a short last group goes
/// row by row through [`dist2_sq_f32`]. A lone distance at `r = 128`
/// waits on its lanes' add chains; four rows' chains interleave, so
/// 64 distances take less than half the time of 64 one-row calls. Four
/// measured faster than two, three, five, six and eight. Each row
/// keeps [`dist2_sq_f32`]'s eight lanes, fold and tail, so the grouping
/// changes no bit.
///
/// # Panics
/// Panics in debug builds if a row's length differs from `x`'s.
#[inline]
pub fn dist2_sq_f32_rows<'a>(x: &[f32], row: impl Fn(usize) -> &'a [f32], out: &mut [f32]) {
    for (g, o) in out.chunks_mut(4).enumerate() {
        let j = 4 * g;
        match o {
            [a, b, c, d] => {
                [*a, *b, *c, *d] = dist2_group_f32(x, [row(j), row(j + 1), row(j + 2), row(j + 3)])
            }
            short => {
                for (i, o) in short.iter_mut().enumerate() {
                    *o = dist2_sq_f32(x, row(j + i));
                }
            }
        }
    }
}

/// [`dist2_sq_f32`] of `x` to each of `R` rows, in one pass over `x`.
#[inline]
fn dist2_group_f32<const R: usize>(x: &[f32], rows: [&[f32]; R]) -> [f32; R] {
    let mut n = x.len();
    for y in rows {
        debug_assert_eq!(x.len(), y.len(), "dist2_sq_f32: length mismatch");
        n = n.min(y.len());
    }
    let split = n - (n % LANES_F32);
    let (xm, xt) = x[..n].split_at(split);
    let rows = rows.map(|y| y[..n].split_at(split));
    let lanes = dist2_lanes_f32_apart(xm, rows.map(|(ym, _)| ym));
    let mut out = [0.0; R];
    for ((o, lanes), (_, yt)) in out.iter_mut().zip(lanes).zip(rows) {
        *o = fold_dist2_f32(lanes, xt, yt);
    }
    out
}

/// [`dist2_lanes_f32`] behind a call boundary, for the same reason as
/// [`lane_sums_apart`]: inlined, the SLP vectoriser packs lanes of
/// different rows together, and four rows then cost as much as four
/// [`dist2_sq_f32`] calls, or more.
#[inline(never)]
fn dist2_lanes_f32_apart<const R: usize>(xm: &[f32], rows: [&[f32]; R]) -> [[f32; LANES_F32]; R] {
    dist2_lanes_f32(xm, rows)
}

/// Each row's eight lane-strided partial sums of `(x[i] - row[i])²`
/// over `xm`, a whole number of lane chunks: the main loop of
/// [`dist2_sq_f32`].
#[inline(always)]
fn dist2_lanes_f32<const R: usize>(xm: &[f32], rows: [&[f32]; R]) -> [[f32; LANES_F32]; R] {
    let mut chunks = rows.map(|ym| ym[..xm.len()].chunks_exact(LANES_F32));
    let mut lanes = [[0.0f32; LANES_F32]; R];
    for xs in xm.chunks_exact(LANES_F32) {
        let xs: &[f32; LANES_F32] = xs.try_into().expect("exact chunk");
        for (acc, ym) in lanes.iter_mut().zip(&mut chunks) {
            let ys: &[f32; LANES_F32] = ym
                .next()
                .and_then(|ys| ys.try_into().ok())
                .expect("rows as long as x");
            for l in 0..LANES_F32 {
                let d = xs[l] - ys[l];
                acc[l] += d * d;
            }
        }
    }
    lanes
}

/// [`dist2_sq_f32`]'s canonical finish: the lanes folded as
/// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`, then the scalar tail in
/// index order.
#[inline(always)]
fn fold_dist2_f32(lanes: [f32; LANES_F32], xt: &[f32], yt: &[f32]) -> f32 {
    let mut s = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    for (a, b) in xt.iter().zip(yt) {
        let d = a - b;
        s += d * d;
    }
    s
}

/// Numerically-stable logistic sigmoid `1 / (1 + e^{-x})`.
///
/// For large `|x|` the naive expression overflows `exp`; the two-branch
/// form never evaluates `exp` on a positive argument.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        let z = (-x).exp();
        1.0 / (1.0 + z)
    } else {
        let z = x.exp();
        z / (1.0 + z)
    }
}

/// `log(sigmoid(x))` computed without intermediate overflow/underflow.
///
/// Used by the skip-gram loss: `log σ(x) = -log(1 + e^{-x})` for
/// `x >= 0` and `x - log(1 + e^{x})` otherwise (the "softplus" trick).
#[inline]
pub fn log_sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        -(-x).exp().ln_1p()
    } else {
        x - x.exp().ln_1p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pre-lane reference: single accumulator, strict index order.
    fn dot_scalar(x: &[f64], y: &[f64]) -> f64 {
        let mut acc = 0.0;
        for i in 0..x.len().min(y.len()) {
            acc += x[i] * y[i];
        }
        acc
    }

    fn dist2_sq_scalar(x: &[f64], y: &[f64]) -> f64 {
        let mut acc = 0.0;
        for i in 0..x.len().min(y.len()) {
            let d = x[i] - y[i];
            acc += d * d;
        }
        acc
    }

    fn dot_f32_scalar(x: &[f32], y: &[f32]) -> f32 {
        let mut s = 0.0f32;
        for (a, b) in x.iter().zip(y) {
            s += a * b;
        }
        s
    }

    fn ulp_diff_f64(a: f64, b: f64) -> u64 {
        (a.to_bits() as i64)
            .wrapping_sub(b.to_bits() as i64)
            .unsigned_abs()
    }

    fn ulp_diff_f32(a: f32, b: f32) -> u32 {
        (a.to_bits() as i32)
            .wrapping_sub(b.to_bits() as i32)
            .unsigned_abs()
    }

    fn test_vec(len: usize, salt: u64) -> Vec<f64> {
        (0..len)
            .map(|i| ((i as f64) * 0.7310 + salt as f64 * 0.137).sin() * 3.0)
            .collect()
    }

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn dot_every_tail_length_matches_scalar_within_ulps() {
        // The lane kernel must agree with the pre-lane single-accumulator
        // order to within a few ulps for every main-loop/tail split.
        // (Documented drift bound for the one-time golden re-pin: at
        // r = 128 with O(1) entries the observed delta is <= 4 ulps.)
        for n in 0..40 {
            let x = test_vec(n, 1);
            let y = test_vec(n, 2);
            let lanes = dot(&x, &y);
            let scalar = dot_scalar(&x, &y);
            assert!(
                ulp_diff_f64(lanes, scalar) <= 4,
                "n={n}: {lanes} vs {scalar}"
            );
        }
        let x = test_vec(128, 3);
        let y = test_vec(128, 4);
        assert!(ulp_diff_f64(dot(&x, &y), dot_scalar(&x, &y)) <= 4);
    }

    #[test]
    fn dot_is_deterministic_across_calls() {
        let x = test_vec(131, 5);
        let y = test_vec(131, 6);
        assert_eq!(dot(&x, &y).to_bits(), dot(&x, &y).to_bits());
    }

    #[test]
    fn dot_rows_is_bit_identical_to_dot_for_every_length_and_row_count() {
        for n in 0..40 {
            let x = test_vec(n, 20);
            let rows: Vec<Vec<f64>> = (0..7).map(|j| test_vec(n, 21 + j)).collect();
            for count in 0..=rows.len() {
                let mut out = vec![f64::NAN; count];
                dot_rows(&x, |j| &rows[j], &mut out);
                for (j, got) in out.iter().enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        dot(&x, &rows[j]).to_bits(),
                        "n={n} rows={count} row {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn dist2_sq_f32_rows_is_bit_identical_to_dist2_sq_f32_for_every_length_and_row_count() {
        let f32s = |n: usize, salt: u64| -> Vec<f32> {
            test_vec(n, salt).iter().map(|&v| v as f32).collect()
        };
        for n in 0..40 {
            let x = f32s(n, 40);
            let rows: Vec<Vec<f32>> = (0..9).map(|j| f32s(n, 41 + j)).collect();
            for count in 0..=rows.len() {
                let mut out = vec![f32::NAN; count];
                dist2_sq_f32_rows(&x, |j| &rows[j], &mut out);
                for (j, got) in out.iter().enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        dist2_sq_f32(&x, &rows[j]).to_bits(),
                        "n={n} rows={count} row {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn dist2_sq_f32_bits_are_pinned() {
        // FNV-1a over the bits of `dist2_sq_f32` at every length
        // 0..=136, every tail past r = 128 included: the lanes, fold
        // and tail order are pinned, so a rewrite of the loop cannot
        // move a distance by an ulp.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for n in 0..=136 {
            let x: Vec<f32> = test_vec(n, 50).iter().map(|&v| v as f32).collect();
            let y: Vec<f32> = test_vec(n, 51).iter().map(|&v| v as f32).collect();
            for b in dist2_sq_f32(&x, &y).to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(h, 0x8553_6c82_499f_c9d5);
    }

    #[test]
    fn norm2_sq_scaled_is_bit_identical_to_the_materialised_row() {
        for n in 0..40 {
            let x = test_vec(n, 30);
            for alpha in [0.0, -0.0, 1.0, -0.37, 2.5e-3, 7.0] {
                // The row as an axpy onto zeros would write it.
                let row: Vec<f64> = x.iter().map(|v| 0.0 + alpha * v).collect();
                assert_eq!(
                    norm2_sq_scaled(alpha, &x).to_bits(),
                    norm2_sq(&row).to_bits(),
                    "n={n} alpha={alpha}"
                );
            }
        }
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn axpy_bit_identical_to_scalar_for_every_length() {
        // axpy is element-wise: chunking must never change a single bit.
        for n in 0..20 {
            let x = test_vec(n, 7);
            let mut y_lanes = test_vec(n, 8);
            let mut y_scalar = y_lanes.clone();
            axpy(0.37, &x, &mut y_lanes);
            for i in 0..n {
                y_scalar[i] += 0.37 * x[i];
            }
            assert_eq!(
                y_lanes.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                y_scalar.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "axpy diverged at n={n}"
            );
        }
    }

    #[test]
    fn scale_in_place() {
        let mut x = vec![1.0, -2.0];
        scale(-3.0, &mut x);
        assert_eq!(x, vec![-3.0, 6.0]);
    }

    #[test]
    fn scale_bit_identical_to_scalar_for_every_length() {
        for n in 0..20 {
            let mut x_lanes = test_vec(n, 9);
            let mut x_scalar = x_lanes.clone();
            scale(-1.618, &mut x_lanes);
            x_scalar.iter_mut().for_each(|v| *v *= -1.618);
            assert_eq!(
                x_lanes.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                x_scalar.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "scale diverged at n={n}"
            );
        }
    }

    #[test]
    fn norms() {
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(norm2_sq(&[3.0, 4.0]), 25.0);
        assert_eq!(norm2(&[]), 0.0);
    }

    #[test]
    fn distances() {
        assert_eq!(dist2(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(dist2_sq(&[1.0], &[4.0]), 9.0);
    }

    #[test]
    fn dist2_sq_every_tail_length_matches_scalar_within_ulps() {
        for n in 0..40 {
            let x = test_vec(n, 10);
            let y = test_vec(n, 11);
            let lanes = dist2_sq(&x, &y);
            let scalar = dist2_sq_scalar(&x, &y);
            assert!(
                ulp_diff_f64(lanes, scalar) <= 4,
                "n={n}: {lanes} vs {scalar}"
            );
        }
    }

    #[test]
    fn f32_kernels_match_scalar_within_ulps() {
        for n in 0..40 {
            let x: Vec<f32> = test_vec(n, 12).iter().map(|&v| v as f32).collect();
            let y: Vec<f32> = test_vec(n, 13).iter().map(|&v| v as f32).collect();
            assert!(
                ulp_diff_f32(dot_f32(&x, &y), dot_f32_scalar(&x, &y)) <= 4,
                "dot_f32 drifted at n={n}"
            );
            let mut scalar_d = 0.0f32;
            for (a, b) in x.iter().zip(&y) {
                let d = a - b;
                scalar_d += d * d;
            }
            assert!(
                ulp_diff_f32(dist2_sq_f32(&x, &y), scalar_d) <= 4,
                "dist2_sq_f32 drifted at n={n}"
            );
        }
        // dim = 16 (the serving bench shape) exercises two full chunks.
        let x: Vec<f32> = (0..16).map(|i| (i as f32 * 0.3).cos()).collect();
        let y: Vec<f32> = (0..16).map(|i| (i as f32 * 0.7).sin()).collect();
        assert_eq!(dot_f32(&x, &y).to_bits(), dot_f32(&x, &y).to_bits());
        assert!(dist2_sq_f32(&x, &y) >= 0.0);
    }

    #[test]
    fn f32_dot_handles_empty_and_single() {
        assert_eq!(dot_f32(&[], &[]), 0.0);
        assert_eq!(dot_f32(&[2.0], &[3.0]), 6.0);
        assert_eq!(dist2_sq_f32(&[1.0], &[4.0]), 9.0);
    }

    #[test]
    fn sigmoid_symmetry_and_range() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-15);
        for &x in &[-50.0, -3.0, -0.1, 0.1, 3.0, 50.0] {
            let s = sigmoid(x);
            // Note sigmoid(50) rounds to exactly 1.0 in f64; only the
            // closed interval is guaranteed at the extremes.
            assert!((0.0..=1.0).contains(&s), "sigmoid({x}) = {s} out of [0,1]");
            assert!((s + sigmoid(-x) - 1.0).abs() < 1e-12);
        }
        for &x in &[-3.0, -0.1, 0.1, 3.0] {
            let s = sigmoid(x);
            assert!(
                s > 0.0 && s < 1.0,
                "sigmoid({x}) = {s} not strictly interior"
            );
        }
    }

    #[test]
    fn sigmoid_extremes_do_not_overflow() {
        assert!((sigmoid(1000.0) - 1.0).abs() < 1e-12);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!(sigmoid(-1000.0) < 1e-12);
    }

    #[test]
    fn log_sigmoid_matches_naive_in_safe_range() {
        for &x in &[-20.0, -1.0, 0.0, 1.0, 20.0] {
            let naive = sigmoid(x).ln();
            assert!(
                (log_sigmoid(x) - naive).abs() < 1e-10,
                "x={x}: {} vs {}",
                log_sigmoid(x),
                naive
            );
        }
        // And stays finite where the naive form underflows to ln(0).
        assert!(log_sigmoid(-800.0).is_finite());
        assert!((log_sigmoid(-800.0) - (-800.0)).abs() < 1e-6);
    }
}
