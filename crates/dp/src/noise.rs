//! Gaussian noise generation.
//!
//! The Gaussian mechanism (Definition 3 context, §II-B) adds
//! `N(0, S²σ²)` noise per coordinate. We implement our own
//! standard-normal sampler instead of pulling in `rand_distr`: the noise
//! path is the security-critical part of a DP system, and one auditable
//! page beats a transitive dependency.
//!
//! # Transform
//!
//! Every standard normal in the workspace comes from one 256-layer
//! ziggurat (Marsaglia & Tsang, "The Ziggurat Method for Generating
//! Random Variables", JSS 2000) over the unnormalised density
//! `f(x) = exp(-x²/2)`. The half-density is covered by 256 horizontal
//! layers of equal area `V`: a base strip (the rectangle `[0, R] ×
//! [0, f(R)]` plus the tail beyond `R ≈ 3.654`) and 255 rectangles
//! stacked above it. One 64-bit word per attempt picks a layer (low
//! 8 bits) and a signed position in it (top 53 bits). About 98.5% of
//! attempts land inside the part of a layer that lies wholly under the
//! curve and return at once; the rest take the wedge test against `f`,
//! or, in the base strip, Marsaglia's exponential tail sampler.
//!
//! # Keyed rows
//!
//! [`NoiseKeys`] makes noise *counter-based*: row `row` of matrix
//! `matrix` at step `step` of the run seeded `seed` draws from a
//! `SmallRng` seeded with
//!
//! ```text
//! key = splitmix64(splitmix64(splitmix64(splitmix64(seed ⊕ D) ⊕ step) ⊕ matrix) ⊕ row)
//! ```
//!
//! (`D` a fixed domain separator). A row's noise is therefore a pure
//! function of its coordinates: the same bits whichever thread fills it,
//! in whatever order, and independent of every other random stream of
//! the run, so the trainer can draw it ahead of the update that uses it.
//! Chaining the coordinates through the SplitMix64 bijection (rather
//! than XORing them into one word) keeps related seeds, steps and rows
//! from landing on related keys.
//!
//! # Floating point
//!
//! Mironov ("On Significance of the Least Significant Bits for
//! Differential Privacy", CCS 2012) shows that a textbook floating-point
//! sampler does not realise the real-valued mechanism an accountant
//! certifies: which doubles `x + noise` can reach, and how likely each
//! is, depends on `x` itself, so low-order bits can tell neighbouring
//! inputs apart. Like the Marsaglia polar method it replaces,
//! this ziggurat only approximates `N(0, 1)` — to 53-bit uniform
//! resolution, with outputs beyond `R` drawn through `ln` — and adding
//! it to a gradient rounds again. The ε the accountant reports is the
//! ε of the idealised mechanism; a deployment that must hold against an
//! adversary reading low-order bits needs a discrete or snapping
//! mechanism instead. Moment, quantile and tail-mass tests below assert
//! the statistical quality this reproduction relies on.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use sp_parallel::splitmix64;
use std::sync::OnceLock;

/// Number of ziggurat layers (the low byte of a draw picks one).
const LAYERS: usize = 256;
/// Right edge of the base strip: where the tail begins.
const R: f64 = 3.654_152_885_361_009;
/// Area of every layer under `exp(-x²/2)`: `R·f(R)` plus the tail mass
/// `∫_R^∞ f = √(π/2)·erfc(R/√2)`.
const V: f64 = 0.004_928_673_233_974_658;
/// Domain separator of [`NoiseKeys`] ("SPNOISE1").
const NOISE_DOMAIN: u64 = 0x5350_4E4F_4953_4531;

/// The ziggurat's layer table.
struct Ziggurat {
    /// Layer right edges, strictly decreasing: `x[0] = V / f(R)` (the
    /// base strip as a rectangle of area `V`), `x[1] = R`, and
    /// `x[i + 1] = f⁻¹(f(x[i]) + V / x[i])` up to `x[256] = 0`. Layer
    /// `i` spans `[0, x[i]] × [f(x[i]), f(x[i + 1])]`.
    x: [f64; LAYERS + 1],
    /// `f[i] = f(x[i])`.
    f: [f64; LAYERS + 1],
}

fn density(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

impl Ziggurat {
    fn build() -> Self {
        let mut x = [0.0; LAYERS + 1];
        x[0] = V / density(R);
        x[1] = R;
        for i in 1..LAYERS - 1 {
            x[i + 1] = (-2.0 * (density(x[i]) + V / x[i]).ln()).sqrt();
        }
        // x[256] = 0 closes the top layer at f = 1.
        let mut f = [0.0; LAYERS + 1];
        for (fi, &xi) in f.iter_mut().zip(&x) {
            *fi = density(xi);
        }
        Self { x, f }
    }

    fn get() -> &'static Self {
        static TABLE: OnceLock<Ziggurat> = OnceLock::new();
        TABLE.get_or_init(Self::build)
    }

    /// One `N(0, 1)` deviate.
    #[inline]
    fn standard<G: RngCore + ?Sized>(&self, rng: &mut G) -> f64 {
        loop {
            let bits = rng.next_u64();
            let i = (bits & 0xFF) as usize;
            // Top 53 bits → u uniform on [-1, 1); disjoint from the
            // layer byte.
            let u = (bits >> 11) as f64 * (1.0 / (1u64 << 52) as f64) - 1.0;
            let x = u * self.x[i];
            if x.abs() < self.x[i + 1] {
                return x;
            }
            if i == 0 {
                return tail(u, rng);
            }
            let y = self.f[i] + (self.f[i + 1] - self.f[i]) * rng.gen::<f64>();
            if y < density(x) {
                return x;
            }
        }
    }
}

/// Marsaglia's tail sampler: a deviate of `f` conditioned on `|x| > R`,
/// carrying the sign of `u`. Rare (one draw in ~3,900), but inlined
/// rather than `#[cold]`: an out-of-line call taking the generator
/// would force its state through memory on every draw of a row.
#[inline(always)]
fn tail<G: RngCore + ?Sized>(u: f64, rng: &mut G) -> f64 {
    loop {
        let a = -open_unit(rng).ln() / R;
        let b = -open_unit(rng).ln();
        if 2.0 * b >= a * a {
            return if u < 0.0 { -(R + a) } else { R + a };
        }
    }
}

/// Uniform on `(0, 1]` (never 0, so `ln` stays finite).
fn open_unit<G: RngCore + ?Sized>(rng: &mut G) -> f64 {
    ((rng.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Standard-normal sampler: the ziggurat above over a caller-provided
/// bit source. It holds no state — every deviate is a function of the
/// words it reads — so resuming a stream needs only the generator's
/// state.
#[derive(Clone, Copy, Debug, Default)]
pub struct GaussianSampler;

impl GaussianSampler {
    /// A sampler.
    pub fn new() -> Self {
        Self
    }

    /// Adds i.i.d. `N(0, std²)` noise to every element of `x`
    /// (the Gaussian mechanism applied to a vector-valued function).
    pub fn perturb_slice<G: Rng + ?Sized>(&mut self, x: &mut [f64], std: f64, rng: &mut G) {
        debug_assert!(std >= 0.0, "negative std");
        if std == 0.0 {
            return;
        }
        let zig = Ziggurat::get();
        for v in x.iter_mut() {
            *v += std * zig.standard(rng);
        }
    }

    /// Fills `out` with i.i.d. `N(0, std²)` samples.
    pub fn fill_slice<G: Rng + ?Sized>(&mut self, out: &mut [f64], std: f64, rng: &mut G) {
        debug_assert!(std >= 0.0, "negative std");
        let zig = Ziggurat::get();
        for v in out.iter_mut() {
            *v = std * zig.standard(rng);
        }
    }
}

/// Counter-based noise for one run: every row's deviates are keyed by
/// `(seed, step, matrix, row)` (see the module docs), not drawn from a
/// shared stream.
#[derive(Clone, Copy, Debug)]
pub struct NoiseKeys {
    /// `splitmix64(seed ⊕ NOISE_DOMAIN)`.
    run: u64,
}

impl NoiseKeys {
    /// Keys of the run seeded `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            run: splitmix64(seed ^ NOISE_DOMAIN),
        }
    }

    /// The key of row `row` of matrix `matrix` (a caller-chosen index)
    /// at step `step`.
    fn key(&self, step: u64, matrix: u64, row: u64) -> u64 {
        splitmix64(splitmix64(splitmix64(self.run ^ step) ^ matrix) ^ row)
    }

    /// Fills `out` with `N(0, std²)` deviates of keyed row
    /// `(step, matrix, row)`: identical bits on every call, thread and
    /// fill order.
    pub fn fill_row(&self, step: u64, matrix: u64, row: u64, out: &mut [f64], std: f64) {
        let mut rng = SmallRng::seed_from_u64(self.key(step, matrix, row));
        GaussianSampler.fill_slice(out, std, &mut rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;

    /// `n` i.i.d. `N(0, std²)` samples.
    fn gaussian_vec<G: Rng + ?Sized>(n: usize, std: f64, rng: &mut G) -> Vec<f64> {
        let mut out = vec![0.0; n];
        GaussianSampler.fill_slice(&mut out, std, rng);
        out
    }

    fn samples(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        gaussian_vec(n, 1.0, &mut rng)
    }

    /// `P(|Z| > t)` for `Z ~ N(0, 1)`, by composite Simpson over
    /// `[t, t + 12]` (the mass beyond is below 1e-30).
    fn two_sided_tail(t: f64) -> f64 {
        let n = 20_000;
        let h = 12.0 / n as f64;
        let mut s = density(t) + density(t + 12.0);
        for k in 1..n {
            s += density(t + k as f64 * h) * if k % 2 == 1 { 4.0 } else { 2.0 };
        }
        2.0 * s * h / 3.0 / (2.0 * std::f64::consts::PI).sqrt()
    }

    #[test]
    fn ziggurat_layers_have_equal_area_and_close_at_the_top() {
        let z = Ziggurat::get();
        // Strictly decreasing edges from the base strip down to x = 0.
        assert!(z.x.windows(2).all(|w| w[0] > w[1]), "x not decreasing");
        assert_eq!(z.x[1], R);
        assert_eq!(z.x[LAYERS], 0.0);
        assert_eq!(z.f[LAYERS], 1.0);
        let close = |area: f64, rel: f64, what: &str| {
            assert!((area - V).abs() <= rel * V, "{what}: area {area} vs V {V}");
        };
        // Base strip: as a rectangle, and as rectangle + true tail.
        close(z.x[0] * z.f[1], 1e-15, "base strip");
        let tail_area = two_sided_tail(R) / 2.0 * (2.0 * std::f64::consts::PI).sqrt();
        close(R * density(R) + tail_area, 1e-9, "base rectangle + tail");
        // Every stacked layer, the top one (closed by x[256] = 0,
        // f = 1) included.
        for i in 1..LAYERS {
            close(z.x[i] * (z.f[i + 1] - z.f[i]), 1e-12, &format!("layer {i}"));
        }
    }

    /// Draws `n` deviates seeded `seed` and asserts, for each `t`, that
    /// the count of `|x| > t` is within 5 binomial standard deviations
    /// of `n · P(|Z| > t)`.
    fn assert_masses_beyond(n: usize, seed: u64, ts: &[f64]) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut buf = vec![0.0; 1000];
        let mut beyond = vec![0usize; ts.len()];
        for _ in 0..n / buf.len() {
            GaussianSampler.fill_slice(&mut buf, 1.0, &mut rng);
            for (count, &t) in beyond.iter_mut().zip(ts) {
                *count += buf.iter().filter(|x| x.abs() > t).count();
            }
        }
        for (&count, &t) in beyond.iter().zip(ts) {
            let p = two_sided_tail(t);
            let mean = n as f64 * p;
            let sd = (mean * (1.0 - p)).sqrt();
            assert!(
                (count as f64 - mean).abs() < 5.0 * sd,
                "{count} draws beyond {t}, expected {mean:.1} ± {sd:.1}"
            );
        }
    }

    #[test]
    fn tail_mass_beyond_base_strip_is_binomially_right() {
        // Only the tail branch returns |x| > R, so this count exercises
        // it: 2M draws expect ~516 beyond R.
        assert_masses_beyond(2_000_000, 0x7A11, &[R]);
    }

    #[test]
    fn wedge_decided_masses_are_binomially_right() {
        // The wedges between the layer rectangles and the curve hold
        // ~0.7% of the ziggurat's area, relatively most in the low
        // layers where the density is small: accepting every wedge
        // candidate would overshoot P(|Z| > 3) by ~14% (~10 sd here).
        assert_masses_beyond(2_000_000, 0x3ED6E, &[1.0, 2.0, 2.5, 3.0]);
    }

    #[test]
    fn keyed_row_is_independent_of_fill_order_and_thread() {
        let keys = NoiseKeys::new(17);
        let coords: Vec<(u64, u64, u64)> =
            (0..40).map(|i| (i % 5, i % 2, (i * 7919) % 101)).collect();
        let fill = |order: &mut dyn Iterator<Item = &(u64, u64, u64)>| {
            let mut out = std::collections::BTreeMap::new();
            for &(step, matrix, row) in order {
                let mut buf = vec![0.0; 128];
                keys.fill_row(step, matrix, row, &mut buf, 2.5);
                let bits: Vec<u64> = buf.iter().map(|v| v.to_bits()).collect();
                out.insert((step, matrix, row), bits);
            }
            out
        };
        let forward = fill(&mut coords.iter());
        let backward = fill(&mut coords.iter().rev());
        let threaded = std::thread::scope(|s| s.spawn(|| fill(&mut coords.iter())).join().unwrap());
        assert_eq!(forward, backward);
        assert_eq!(forward, threaded);
        // Each coordinate of the key, and the seed, changes the row.
        let row = |keys: NoiseKeys, step, matrix, row| {
            let mut out = vec![0.0; 8];
            keys.fill_row(step, matrix, row, &mut out, 1.0);
            out
        };
        let base = row(keys, 3, 0, 9);
        assert_ne!(base, row(keys, 4, 0, 9));
        assert_ne!(base, row(keys, 3, 1, 9));
        assert_ne!(base, row(keys, 3, 0, 10));
        assert_ne!(base, row(NoiseKeys::new(18), 3, 0, 9));
    }

    #[test]
    fn moments_match_standard_normal() {
        let xs = samples(200_000, 42);
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>() / n;
        let skew = xs.iter().map(|&x| (x - mean).powi(3)).sum::<f64>() / n / var.powf(1.5);
        let kurt = xs.iter().map(|&x| (x - mean).powi(4)).sum::<f64>() / n / (var * var);
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
        assert!(skew.abs() < 0.03, "skew {skew}");
        assert!((kurt - 3.0).abs() < 0.1, "kurtosis {kurt}");
    }

    #[test]
    fn quantiles_match_standard_normal() {
        let mut xs = samples(200_000, 7);
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let q = |p: f64| xs[(p * xs.len() as f64) as usize];
        // Φ^{-1}(0.5)=0, Φ^{-1}(0.8413)≈1, Φ^{-1}(0.9772)≈2
        assert!(q(0.5).abs() < 0.02, "median {}", q(0.5));
        assert!((q(0.8413) - 1.0).abs() < 0.03, "q84 {}", q(0.8413));
        assert!((q(0.9772) - 2.0).abs() < 0.06, "q97.7 {}", q(0.9772));
    }

    #[test]
    fn scaled_std_is_linear() {
        let mut rng = StdRng::seed_from_u64(3);
        let xs = gaussian_vec(100_000, 5.0, &mut rng);
        let n = xs.len() as f64;
        let var = xs.iter().map(|&x| x * x).sum::<f64>() / n;
        assert!((var.sqrt() - 5.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn deterministic_under_seed() {
        assert_eq!(samples(100, 9), samples(100, 9));
        assert_ne!(samples(100, 9), samples(100, 10));
    }

    #[test]
    fn zero_std_is_noop() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = GaussianSampler::new();
        let mut x = vec![1.0, 2.0, 3.0];
        s.perturb_slice(&mut x, 0.0, &mut rng);
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn perturb_changes_values_with_positive_std() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = GaussianSampler::new();
        let mut x = vec![0.0; 16];
        s.perturb_slice(&mut x, 1.0, &mut rng);
        assert!(x.iter().any(|&v| v != 0.0));
    }
}
