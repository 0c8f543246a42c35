//! RDP composition and conversion to (ε, δ)-DP.
//!
//! Algorithm 2 tracks privacy per epoch (lines 8–10): each epoch is a
//! subsampled Gaussian mechanism with rate `γ = B/|E|`; RDP composes
//! additively per order (Sequential Composition, §II-B); and the spent
//! budget is reported back in (ε, δ) terms via the paper's Theorem 1:
//! `(α, ε)-RDP ⇒ (ε + log(1/δ)/(α-1), δ)-DP`, optimised over a grid of
//! integer orders.

use crate::rdp::subsampled_gaussian_rdp;

/// Largest RDP order kept on the default grid. Orders 2..=64 cover the
/// paper's regime (σ=5, γ≈10⁻³..10⁻²) with slack; pushing further adds
/// cost without tightening ε.
pub const DEFAULT_ORDERS_MAX: u64 = 64;

/// A target (ε, δ) privacy budget.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PrivacyBudget {
    /// Target ε.
    pub epsilon: f64,
    /// Target δ (the paper fixes `δ = 10⁻⁵`).
    pub delta: f64,
}

impl PrivacyBudget {
    /// New budget; both parameters must be positive and `δ < 1`.
    pub fn new(epsilon: f64, delta: f64) -> Self {
        assert!(epsilon > 0.0, "epsilon must be positive");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
        Self { epsilon, delta }
    }
}

/// Composes RDP losses over a grid of integer orders.
#[derive(Clone, Debug)]
pub struct RdpAccountant {
    orders: Vec<u64>,
    /// Accumulated RDP ε at each order (parallel to `orders`).
    rdp: Vec<f64>,
    steps: u64,
}

impl Default for RdpAccountant {
    fn default() -> Self {
        Self::new(DEFAULT_ORDERS_MAX)
    }
}

impl RdpAccountant {
    /// Accountant with integer orders `2..=max_order`.
    pub fn new(max_order: u64) -> Self {
        assert!(max_order >= 2, "need at least order 2");
        let orders: Vec<u64> = (2..=max_order).collect();
        let rdp = vec![0.0; orders.len()];
        Self {
            orders,
            rdp,
            steps: 0,
        }
    }

    /// Records one epoch of the subsampled Gaussian mechanism with
    /// sampling rate `gamma` and noise multiplier `sigma`.
    pub fn step_subsampled_gaussian(&mut self, gamma: f64, sigma: f64) {
        for (i, &a) in self.orders.iter().enumerate() {
            self.rdp[i] += subsampled_gaussian_rdp(a, gamma, sigma);
        }
        self.steps += 1;
    }

    /// Records `n` identical epochs at once (composition is additive,
    /// so this is exact, not an approximation).
    pub fn step_many(&mut self, gamma: f64, sigma: f64, n: u64) {
        if n == 0 {
            return;
        }
        for (i, &a) in self.orders.iter().enumerate() {
            self.rdp[i] += n as f64 * subsampled_gaussian_rdp(a, gamma, sigma);
        }
        self.steps += n;
    }

    /// Number of recorded steps.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Converts the accumulated RDP to the smallest ε achievable at
    /// failure probability `delta`, returning `(ε, best α)`.
    ///
    /// Uses Theorem 1: `ε(δ) = min_α [ ε_rdp(α) + ln(1/δ)/(α-1) ]`.
    pub fn epsilon(&self, delta: f64) -> (f64, u64) {
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
        let log_inv_delta = (1.0 / delta).ln();
        let mut best = (f64::INFINITY, self.orders[0]);
        for (i, &a) in self.orders.iter().enumerate() {
            let eps = self.rdp[i] + log_inv_delta / (a as f64 - 1.0);
            if eps < best.0 {
                best = (eps, a);
            }
        }
        best
    }

    /// Converts the accumulated RDP to the smallest δ achievable at
    /// privacy level `epsilon` ("get privacy spent given the target ε",
    /// Algorithm 2 line 9), returning `(δ̂, best α)`.
    ///
    /// Inverting Theorem 1: `δ(ε) = min_α exp((α-1)(ε_rdp(α) - ε))`.
    pub fn delta(&self, epsilon: f64) -> (f64, u64) {
        assert!(epsilon > 0.0, "epsilon must be positive");
        let mut best = (f64::INFINITY, self.orders[0]);
        for (i, &a) in self.orders.iter().enumerate() {
            let log_delta = (a as f64 - 1.0) * (self.rdp[i] - epsilon);
            let delta = log_delta.exp().min(1.0);
            if delta < best.0 {
                best = (delta, a);
            }
        }
        best
    }

    /// The raw accumulated RDP curve as `(order, ε_rdp)` pairs.
    pub fn curve(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.orders.iter().copied().zip(self.rdp.iter().copied())
    }

    /// Largest order on the grid.
    pub fn max_order(&self) -> u64 {
        *self.orders.last().expect("non-empty grid")
    }

    /// The raw accumulated RDP values, parallel to orders `2..=max`.
    /// Together with [`RdpAccountant::steps`] this is the accountant's
    /// full state — the checkpoint layer serialises these bits so a
    /// resumed run never re-spends privacy already accounted for.
    pub fn rdp_raw(&self) -> &[f64] {
        &self.rdp
    }

    /// Rebuilds an accountant bit-exactly from [`RdpAccountant::rdp_raw`]
    /// and [`RdpAccountant::steps`] snapshots. Fails if the vector does
    /// not match the `2..=max_order` grid.
    pub fn from_raw(max_order: u64, rdp: Vec<f64>, steps: u64) -> Result<Self, String> {
        let fresh = Self::new(max_order);
        if rdp.len() != fresh.orders.len() {
            return Err(format!(
                "rdp state has {} entries, grid 2..={max_order} needs {}",
                rdp.len(),
                fresh.orders.len()
            ));
        }
        Ok(Self {
            orders: fresh.orders,
            rdp,
            steps,
        })
    }
}

/// An [`RdpAccountant`] bound to a target budget, implementing the
/// stop rule of Algorithm 2: *before* each step, ask whether spending
/// one more step would push `δ̂(ε_target)` past `δ_target`.
///
/// The per-step RDP curve is computed once at construction (it depends
/// only on `γ` and `σ`), so [`BudgetedAccountant::try_step`] is a
/// cheap vector add plus one conversion — it sits inside the training
/// loop and runs tens of thousands of times per run.
#[derive(Clone, Debug)]
pub struct BudgetedAccountant {
    inner: RdpAccountant,
    per_step: Vec<f64>,
    budget: PrivacyBudget,
    gamma: f64,
    sigma: f64,
}

impl BudgetedAccountant {
    /// Binds a fresh accountant to `budget` for a mechanism with
    /// sampling rate `gamma` and noise multiplier `sigma`.
    pub fn new(budget: PrivacyBudget, gamma: f64, sigma: f64) -> Self {
        assert!((0.0..=1.0).contains(&gamma), "gamma must be in [0,1]");
        assert!(sigma > 0.0, "sigma must be positive");
        let inner = RdpAccountant::default();
        let per_step: Vec<f64> = inner
            .orders
            .iter()
            .map(|&a| subsampled_gaussian_rdp(a, gamma, sigma))
            .collect();
        Self {
            inner,
            per_step,
            budget,
            gamma,
            sigma,
        }
    }

    /// Whether one more step keeps `δ̂(ε) < δ`. If yes, the step is
    /// recorded and `true` is returned; otherwise the accountant is
    /// left unchanged and `false` is returned (the caller stops
    /// training — Algorithm 2 line 10).
    pub fn try_step(&mut self) -> bool {
        for (r, &s) in self.inner.rdp.iter_mut().zip(&self.per_step) {
            *r += s;
        }
        self.inner.steps += 1;
        let (delta_hat, _) = self.inner.delta(self.budget.epsilon);
        if delta_hat >= self.budget.delta {
            // Roll back the trial step.
            for (r, &s) in self.inner.rdp.iter_mut().zip(&self.per_step) {
                *r -= s;
            }
            self.inner.steps -= 1;
            return false;
        }
        true
    }

    /// Maximum number of epochs that fit the budget, computed without
    /// mutating this accountant. Used by experiments to pre-size runs.
    pub fn max_epochs(&self, cap: u64) -> u64 {
        // Per-step RDP is constant, so binary search over n.
        let mut per_step = RdpAccountant::default();
        per_step.step_subsampled_gaussian(self.gamma, self.sigma);
        let fits = |n: u64| -> bool {
            let mut acc = RdpAccountant::default();
            acc.step_many(self.gamma, self.sigma, n);
            acc.delta(self.budget.epsilon).0 < self.budget.delta
        };
        if !fits(1) {
            return 0;
        }
        let (mut lo, mut hi) = (1u64, cap.max(1));
        if fits(hi) {
            return hi;
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if fits(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Privacy spent so far as `(ε at target δ, δ̂ at target ε)`.
    pub fn spent(&self) -> (f64, f64) {
        let (eps, _) = self.inner.epsilon(self.budget.delta);
        let (delta, _) = self.inner.delta(self.budget.epsilon);
        (eps, delta)
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.inner.steps()
    }

    /// The bound budget.
    pub fn budget(&self) -> PrivacyBudget {
        self.budget
    }

    /// The raw RDP state, for checkpointing (see
    /// [`RdpAccountant::rdp_raw`]).
    pub fn rdp_raw(&self) -> &[f64] {
        self.inner.rdp_raw()
    }

    /// Largest order on the inner grid.
    pub fn max_order(&self) -> u64 {
        self.inner.max_order()
    }

    /// Rebinds a checkpointed accountant state to `(budget, gamma,
    /// sigma)`, bit-exactly. Restoring the exact accumulated RDP vector
    /// (rather than replaying `steps` additions) is what guarantees a
    /// crash/resume sequence composes to exactly the ε of the
    /// uninterrupted run — budget can never be double-spent.
    pub fn resume(
        budget: PrivacyBudget,
        gamma: f64,
        sigma: f64,
        max_order: u64,
        rdp: Vec<f64>,
        steps: u64,
    ) -> Result<Self, String> {
        let mut acc = Self::new(budget, gamma, sigma);
        let inner = RdpAccountant::from_raw(max_order, rdp, steps)?;
        if inner.rdp.len() != acc.per_step.len() {
            // `new` builds its per-step curve on the default grid; a
            // snapshot from a different grid would zip against it.
            return Err(format!(
                "checkpointed grid 2..={max_order} does not match the default grid 2..={DEFAULT_ORDERS_MAX}"
            ));
        }
        acc.inner = inner;
        Ok(acc)
    }
}

/// Smallest noise multiplier `σ` such that composing `mechanisms`
/// (unsubsampled) Gaussian mechanisms satisfies `(ε, δ)`-DP, found by
/// bisection on the RDP conversion. Used by the aggregation-
/// perturbation baselines (GAP/ProGAP) to calibrate per-hop noise.
///
/// # Panics
/// Panics if `mechanisms == 0`.
pub fn calibrate_noise_multiplier(mechanisms: u64, epsilon: f64, delta: f64) -> f64 {
    assert!(mechanisms > 0, "need at least one mechanism");
    assert!(epsilon > 0.0 && delta > 0.0 && delta < 1.0);
    let fits = |sigma: f64| -> bool {
        let mut acc = RdpAccountant::default();
        // γ = 1: the whole dataset participates in every aggregate.
        acc.step_many(1.0, sigma, mechanisms);
        acc.epsilon(delta).0 <= epsilon
    };
    let mut lo = 1e-3;
    let mut hi = 1.0;
    while !fits(hi) {
        hi *= 2.0;
        assert!(hi < 1e9, "calibration diverged");
    }
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if fits(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_meets_budget_tightly() {
        for &(m, eps) in &[(1u64, 1.0), (4, 0.5), (16, 3.5), (64, 2.0)] {
            let sigma = calibrate_noise_multiplier(m, eps, 1e-5);
            let mut acc = RdpAccountant::default();
            acc.step_many(1.0, sigma, m);
            let (spent, _) = acc.epsilon(1e-5);
            assert!(spent <= eps * 1.0001, "m={m} eps={eps}: spent {spent}");
            // Tight: 1% less noise should break the budget.
            let mut acc2 = RdpAccountant::default();
            acc2.step_many(1.0, sigma * 0.99, m);
            assert!(acc2.epsilon(1e-5).0 > eps, "calibration not tight");
        }
    }

    #[test]
    fn calibration_monotone_in_mechanism_count_and_epsilon() {
        let s1 = calibrate_noise_multiplier(1, 1.0, 1e-5);
        let s4 = calibrate_noise_multiplier(4, 1.0, 1e-5);
        assert!(s4 > s1, "more mechanisms need more noise");
        let tight = calibrate_noise_multiplier(4, 0.5, 1e-5);
        assert!(tight > s4, "smaller ε needs more noise");
    }

    #[test]
    fn composition_is_additive() {
        let mut a = RdpAccountant::new(16);
        a.step_subsampled_gaussian(0.01, 5.0);
        a.step_subsampled_gaussian(0.01, 5.0);
        let mut b = RdpAccountant::new(16);
        b.step_many(0.01, 5.0, 2);
        for ((o1, e1), (o2, e2)) in a.curve().zip(b.curve()) {
            assert_eq!(o1, o2);
            assert!((e1 - e2).abs() < 1e-15);
        }
    }

    #[test]
    fn epsilon_grows_with_steps() {
        let mut acc = RdpAccountant::default();
        let mut last = 0.0;
        for _ in 0..5 {
            acc.step_many(0.01, 5.0, 100);
            let (eps, _) = acc.epsilon(1e-5);
            assert!(eps > last);
            last = eps;
        }
    }

    #[test]
    fn delta_and_epsilon_are_consistent_inverses() {
        let mut acc = RdpAccountant::default();
        acc.step_many(0.004, 5.0, 500);
        let (eps, _) = acc.epsilon(1e-5);
        // δ̂ at that ε must be ≤ the δ we asked for.
        let (delta_hat, _) = acc.delta(eps);
        assert!(
            delta_hat <= 1e-5 * 1.0001,
            "delta({eps}) = {delta_hat} exceeds 1e-5"
        );
    }

    #[test]
    fn zero_steps_spends_nothing() {
        let acc = RdpAccountant::default();
        let (delta, _) = acc.delta(0.5);
        // exp((α-1)(0 - 0.5)) is minimised at the largest order; tiny.
        assert!(delta < 1e-8);
    }

    #[test]
    fn budgeted_accountant_stops_eventually() {
        // Moderate γ/σ: the budget affords a few hundred epochs, then binds.
        let b = PrivacyBudget::new(1.0, 1e-5);
        let mut acc = BudgetedAccountant::new(b, 0.01, 2.0);
        let mut n = 0;
        while acc.try_step() {
            n += 1;
            assert!(n < 100_000, "never stopped");
        }
        assert!(n > 0, "should allow at least one step");
        // After stopping, spent δ̂ is still within budget (the step that
        // would overflow was rolled back).
        let (_, delta_hat) = acc.spent();
        assert!(delta_hat < 1e-5);
    }

    #[test]
    fn budgeted_accountant_can_refuse_immediately() {
        // γ=0.5 with σ=0.7 is hopeless at ε=1: even one epoch of the
        // WBK bound overshoots, so try_step must refuse from the start.
        let b = PrivacyBudget::new(1.0, 1e-5);
        let mut acc = BudgetedAccountant::new(b, 0.5, 0.7);
        assert!(!acc.try_step());
        assert_eq!(acc.steps(), 0);
        assert_eq!(acc.max_epochs(1000), 0);
    }

    #[test]
    fn budgeted_accountant_larger_epsilon_allows_more_epochs() {
        let gamma = 128.0 / 31421.0;
        let sigma = 5.0;
        let small = BudgetedAccountant::new(PrivacyBudget::new(0.5, 1e-5), gamma, sigma);
        let large = BudgetedAccountant::new(PrivacyBudget::new(3.5, 1e-5), gamma, sigma);
        let n_small = small.max_epochs(1_000_000);
        let n_large = large.max_epochs(1_000_000);
        assert!(
            n_large > n_small,
            "ε=3.5 must buy more epochs than ε=0.5 ({n_large} vs {n_small})"
        );
        assert!(
            n_small > 0,
            "even ε=0.5 affords some epochs in paper regime"
        );
    }

    #[test]
    fn max_epochs_matches_try_step_loop() {
        let b = PrivacyBudget::new(0.8, 1e-5);
        let mut stepper = BudgetedAccountant::new(b, 0.05, 1.5);
        let predicted = stepper.max_epochs(100_000);
        let mut n = 0;
        while stepper.try_step() {
            n += 1;
        }
        assert_eq!(n, predicted);
    }

    #[test]
    fn paper_regime_fits_full_training() {
        // σ=5, δ=1e-5, γ=128/31421: the paper trains 200 epochs for
        // StrucEqu and 2000 for link prediction. Even ε=3.5 should
        // allow well beyond 2000 epochs in this regime — the budget
        // binds at small ε (this is what Figs. 3–4 vary).
        let gamma = 128.0 / 31421.0;
        let acc = BudgetedAccountant::new(PrivacyBudget::new(3.5, 1e-5), gamma, 5.0);
        assert!(acc.max_epochs(1_000_000) >= 2000);
    }

    #[test]
    #[should_panic(expected = "delta must be in (0,1)")]
    fn budget_rejects_bad_delta() {
        PrivacyBudget::new(1.0, 1.5);
    }
}
