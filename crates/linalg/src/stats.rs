//! Scalar statistics and log-space helpers.
//!
//! Two consumers: the evaluation metrics (Pearson correlation is the
//! definition of the paper's StrucEqu score; Welford aggregation powers
//! the "mean ± SD over 10 runs" rows of Tables II–VI) and the RDP
//! accountant (log-binomials and `logsumexp` keep Wang et al.'s
//! subsampling bound finite at large α).

/// Pearson correlation coefficient of two equal-length samples.
///
/// Returns `None` when fewer than two points are given or either sample
/// has zero variance (the coefficient is undefined there — callers
/// treat that as "no structural signal").
pub fn pearson(x: &[f64], y: &[f64]) -> Option<f64> {
    assert_eq!(x.len(), y.len(), "pearson: length mismatch");
    let n = x.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let mx = x.iter().sum::<f64>() / nf;
    let my = y.iter().sum::<f64>() / nf;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for i in 0..n {
        let dx = x[i] - mx;
        let dy = y[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return None;
    }
    Some(sxy / (sxx.sqrt() * syy.sqrt()))
}

/// Sample mean. Returns `0.0` for an empty slice.
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        x.iter().sum::<f64>() / x.len() as f64
    }
}

/// Unbiased sample standard deviation (`n-1` denominator). Returns
/// `0.0` for fewer than two points.
pub fn std_dev(x: &[f64]) -> f64 {
    if x.len() < 2 {
        return 0.0;
    }
    let m = mean(x);
    let ss = x.iter().map(|&v| (v - m) * (v - m)).sum::<f64>();
    (ss / (x.len() - 1) as f64).sqrt()
}

/// Welford online mean/variance accumulator.
///
/// The experiment binaries repeat every configuration several times
/// and report `mean ± SD`; this accumulator lets them do so without
/// retaining per-run vectors.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (`0.0` before any observation).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (`0.0` with fewer than two points).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Unbiased sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// `log(C(n, k))` computed stably as a sum of logs.
///
/// Exact enough for the accountant's `n <= 1024` range and never
/// overflows, unlike computing the binomial itself.
pub fn log_binomial(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    let k = k.min(n - k);
    let mut acc = 0.0;
    for i in 1..=k {
        acc += ((n - k + i) as f64).ln() - (i as f64).ln();
    }
    acc
}

/// `log(sum_i exp(x_i))` with the max-shift trick.
///
/// Empty input yields `-inf` (the log of an empty sum). `-inf` entries
/// are handled transparently.
pub fn logsumexp(xs: &[f64]) -> f64 {
    let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    let s: f64 = xs.iter().map(|&x| (x - m).exp()).sum();
    m + s.ln()
}

/// `log(exp(a) + exp(b))` for streaming accumulation.
pub fn log_add_exp(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY {
        return b;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    let m = a.max(b);
    m + ((a - m).exp() + (b - m).exp()).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect_correlations() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let yneg = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&x, &yneg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_undefined_cases() {
        assert_eq!(pearson(&[1.0], &[2.0]), None);
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), None); // zero variance in x
        assert_eq!(pearson(&[], &[]), None);
    }

    #[test]
    fn pearson_known_value() {
        // Hand-checked small example.
        let x = [1.0, 2.0, 3.0];
        let y = [1.0, 2.0, 2.0];
        let r = pearson(&x, &y).unwrap();
        assert!((r - 0.866_025_403_784_438_6).abs() < 1e-12);
    }

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        assert!((std_dev(&[2.0, 4.0]) - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn running_stats_matches_batch() {
        let xs = [0.3, -1.2, 4.5, 2.2, 0.0, 7.7];
        let mut rs = RunningStats::new();
        for &x in &xs {
            rs.push(x);
        }
        assert_eq!(rs.count(), xs.len() as u64);
        assert!((rs.mean() - mean(&xs)).abs() < 1e-12);
        assert!((rs.std_dev() - std_dev(&xs)).abs() < 1e-12);
    }

    #[test]
    fn log_binomial_small_exact() {
        assert!((log_binomial(5, 2) - (10.0f64).ln()).abs() < 1e-12);
        assert!((log_binomial(10, 0) - 0.0).abs() < 1e-12);
        assert!((log_binomial(10, 10) - 0.0).abs() < 1e-12);
        assert_eq!(log_binomial(3, 5), f64::NEG_INFINITY);
    }

    #[test]
    fn log_binomial_large_no_overflow() {
        // C(1024, 512) overflows f64 (~1e307 < C(1024,512) ~ 1e306.. close),
        // the log form must stay finite and match Stirling to ~1%.
        let lb = log_binomial(1024, 512);
        assert!(lb.is_finite());
        // log C(2n,n) ≈ 2n ln 2 - 0.5 ln(pi n)
        let approx = 1024.0 * std::f64::consts::LN_2 - 0.5 * (std::f64::consts::PI * 512.0).ln();
        assert!((lb - approx).abs() / approx < 0.01);
    }

    #[test]
    fn logsumexp_matches_naive_and_handles_extremes() {
        let xs = [0.1, 0.2, 0.3];
        let naive = xs.iter().map(|x: &f64| x.exp()).sum::<f64>().ln();
        assert!((logsumexp(&xs) - naive).abs() < 1e-12);
        assert_eq!(logsumexp(&[]), f64::NEG_INFINITY);
        assert_eq!(logsumexp(&[f64::NEG_INFINITY]), f64::NEG_INFINITY);
        // Huge values that would overflow exp().
        let big = [710.0, 711.0];
        assert!((logsumexp(&big) - (711.0 + (1.0 + (-1.0f64).exp()).ln())).abs() < 1e-9);
    }

    #[test]
    fn log_add_exp_consistency() {
        assert!((log_add_exp(0.0, 0.0) - std::f64::consts::LN_2).abs() < 1e-12);
        assert_eq!(log_add_exp(f64::NEG_INFINITY, 3.0), 3.0);
        assert_eq!(log_add_exp(3.0, f64::NEG_INFINITY), 3.0);
        let via_lse = logsumexp(&[1.5, -2.0]);
        assert!((log_add_exp(1.5, -2.0) - via_lse).abs() < 1e-12);
    }
}
