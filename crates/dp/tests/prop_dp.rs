//! Property-based tests for the DP substrate: RDP curve and accountant
//! monotonicity over randomly drawn parameter ranges.

use proptest::prelude::*;
use sp_dp::{gaussian_rdp, subsampled_gaussian_rdp, RdpAccountant};

proptest! {
    #[test]
    fn gaussian_rdp_scales_linearly_in_alpha(alpha in 2.0f64..128.0, sigma in 0.5f64..20.0) {
        let e1 = gaussian_rdp(alpha, sigma);
        let e2 = gaussian_rdp(2.0 * alpha, sigma);
        prop_assert!((e2 - 2.0 * e1).abs() < 1e-12);
    }

    #[test]
    fn subsampled_bound_below_unsubsampled(
        alpha in 2u64..64,
        gamma in 0.0001f64..1.0,
        sigma in 0.5f64..10.0,
    ) {
        let sub = subsampled_gaussian_rdp(alpha, gamma, sigma);
        let plain = gaussian_rdp(alpha as f64, sigma);
        prop_assert!(sub <= plain + 1e-12);
        prop_assert!(sub >= 0.0);
        prop_assert!(sub.is_finite());
    }

    #[test]
    fn rdp_monotone_in_gamma(
        alpha in 2u64..32,
        g1 in 0.001f64..0.5,
        sigma in 1.0f64..10.0,
    ) {
        let g2 = (g1 * 1.5).min(1.0);
        let e1 = subsampled_gaussian_rdp(alpha, g1, sigma);
        let e2 = subsampled_gaussian_rdp(alpha, g2, sigma);
        prop_assert!(e2 >= e1 - 1e-12, "γ {g1}->{g2}: {e1} -> {e2}");
    }

    #[test]
    fn epsilon_conversion_monotone_in_steps(
        gamma in 0.001f64..0.1,
        sigma in 1.0f64..10.0,
        n1 in 1u64..500,
    ) {
        let n2 = n1 * 2;
        let eps_of = |n: u64| {
            let mut acc = RdpAccountant::default();
            acc.step_many(gamma, sigma, n);
            acc.epsilon(1e-5).0
        };
        prop_assert!(eps_of(n2) >= eps_of(n1));
    }

    #[test]
    fn epsilon_conversion_monotone_in_delta(
        gamma in 0.001f64..0.1,
        sigma in 1.0f64..10.0,
        steps in 1u64..500,
    ) {
        let mut acc = RdpAccountant::default();
        acc.step_many(gamma, sigma, steps);
        // Weaker δ requirement ⇒ smaller ε.
        let (eps_strict, _) = acc.epsilon(1e-8);
        let (eps_loose, _) = acc.epsilon(1e-3);
        prop_assert!(eps_loose <= eps_strict);
    }

    #[test]
    fn delta_and_epsilon_conversions_are_consistent(
        gamma in 0.001f64..0.1,
        sigma in 1.0f64..10.0,
        steps in 1u64..300,
    ) {
        let mut acc = RdpAccountant::default();
        acc.step_many(gamma, sigma, steps);
        let (eps, _) = acc.epsilon(1e-5);
        let (delta_hat, _) = acc.delta(eps * 1.000001);
        prop_assert!(delta_hat <= 1e-5 * 1.01, "δ({eps}) = {delta_hat}");
    }
}
