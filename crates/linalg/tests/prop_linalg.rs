//! Property-based tests for the linear-algebra kernels.

use proptest::prelude::*;
use sp_linalg::{dense::DenseMatrix, sparse::CooBuilder, stats, vector};

fn vec_strategy(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-100.0f64..100.0, len)
}

proptest! {
    #[test]
    fn dot_is_commutative(x in vec_strategy(16), y in vec_strategy(16)) {
        prop_assert!((vector::dot(&x, &y) - vector::dot(&y, &x)).abs() < 1e-9);
    }

    #[test]
    fn dot_is_bilinear(x in vec_strategy(8), y in vec_strategy(8), a in -10.0f64..10.0) {
        let ax: Vec<f64> = x.iter().map(|&v| a * v).collect();
        let lhs = vector::dot(&ax, &y);
        let rhs = a * vector::dot(&x, &y);
        prop_assert!((lhs - rhs).abs() < 1e-6 * (1.0 + rhs.abs()));
    }

    #[test]
    fn cauchy_schwarz(x in vec_strategy(12), y in vec_strategy(12)) {
        let lhs = vector::dot(&x, &y).abs();
        let rhs = vector::norm2(&x) * vector::norm2(&y);
        prop_assert!(lhs <= rhs + 1e-6);
    }

    #[test]
    fn sigmoid_monotone(a in -30.0f64..30.0, b in -30.0f64..30.0) {
        if a < b {
            prop_assert!(vector::sigmoid(a) <= vector::sigmoid(b));
        }
    }

    #[test]
    fn pearson_is_scale_invariant(x in vec_strategy(20), shift in -5.0f64..5.0, s in 0.1f64..10.0) {
        let y: Vec<f64> = x.iter().map(|&v| s * v + shift).collect();
        if let Some(r) = stats::pearson(&x, &y) {
            prop_assert!((r - 1.0).abs() < 1e-6, "pearson of affine image should be 1, got {r}");
        }
    }

    #[test]
    fn pearson_bounded(x in vec_strategy(20), y in vec_strategy(20)) {
        if let Some(r) = stats::pearson(&x, &y) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
        }
    }

    #[test]
    fn running_stats_agrees_with_batch(xs in proptest::collection::vec(-1e3f64..1e3, 2..64)) {
        let mut rs = stats::RunningStats::new();
        xs.iter().for_each(|&x| rs.push(x));
        prop_assert!((rs.mean() - stats::mean(&xs)).abs() < 1e-7);
        prop_assert!((rs.std_dev() - stats::std_dev(&xs)).abs() < 1e-7);
    }

    #[test]
    fn logsumexp_ge_max(xs in proptest::collection::vec(-500.0f64..500.0, 1..32)) {
        let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let lse = stats::logsumexp(&xs);
        prop_assert!(lse >= m - 1e-9);
        prop_assert!(lse <= m + (xs.len() as f64).ln() + 1e-9);
    }

    #[test]
    fn log_binomial_pascal_rule(n in 2u64..200, k in 1u64..199) {
        prop_assume!(k < n);
        // C(n,k) = C(n-1,k-1) + C(n-1,k), verified in log space.
        let lhs = stats::log_binomial(n, k);
        let rhs = stats::log_add_exp(
            stats::log_binomial(n - 1, k - 1),
            stats::log_binomial(n - 1, k),
        );
        prop_assert!((lhs - rhs).abs() < 1e-8 * (1.0 + lhs.abs()));
    }
}

/// Strategy producing a random small CSR matrix together with its dense twin.
fn coo_entries(rows: usize, cols: usize) -> impl Strategy<Value = Vec<(usize, usize, f64)>> {
    proptest::collection::vec(
        (0..rows, 0..cols, -10.0f64..10.0).prop_map(|(i, j, v)| (i, j, v)),
        0..40,
    )
}

proptest! {
    #[test]
    fn csr_matches_dense_semantics(entries in coo_entries(8, 8)) {
        let mut b = CooBuilder::new(8, 8);
        let mut dense = DenseMatrix::zeros(8, 8);
        for &(i, j, v) in &entries {
            b.push(i, j, v);
            dense.set(i, j, dense.get(i, j) + v);
        }
        let csr = b.build();
        csr.validate().unwrap();
        for i in 0..8 {
            for j in 0..8 {
                prop_assert!((csr.get(i, j) - dense.get(i, j)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn csr_spmv_matches_dense(entries in coo_entries(6, 6), x in vec_strategy(6)) {
        let mut b = CooBuilder::new(6, 6);
        for &(i, j, v) in &entries {
            b.push(i, j, v);
        }
        let csr = b.build();
        let y = csr.spmv(&x);
        let dense = csr.to_dense();
        for (i, &yi) in y.iter().enumerate().take(6) {
            let expect = vector::dot(dense.row(i), &x);
            prop_assert!((yi - expect).abs() < 1e-8);
        }
    }

    #[test]
    fn csr_spgemm_matches_dense(e1 in coo_entries(5, 5), e2 in coo_entries(5, 5)) {
        let mut b1 = CooBuilder::new(5, 5);
        e1.iter().for_each(|&(i, j, v)| b1.push(i, j, v));
        let mut b2 = CooBuilder::new(5, 5);
        e2.iter().for_each(|&(i, j, v)| b2.push(i, j, v));
        let a = b1.build();
        let b = b2.build();
        let p = a.spgemm(&b);
        p.validate().unwrap();
        let pd = a.to_dense().matmul(&b.to_dense());
        for i in 0..5 {
            for j in 0..5 {
                prop_assert!((p.get(i, j) - pd.get(i, j)).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn csr_transpose_involution(entries in coo_entries(7, 4)) {
        let mut b = CooBuilder::new(7, 4);
        entries.iter().for_each(|&(i, j, v)| b.push(i, j, v));
        let m = b.build();
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn csr_normalize_rows_stochastic(entries in coo_entries(6, 6)) {
        let mut b = CooBuilder::new(6, 6);
        // force positive values so row sums are positive when non-empty
        entries.iter().for_each(|&(i, j, v)| b.push(i, j, v.abs() + 0.1));
        let mut m = b.build();
        m.normalize_rows();
        for i in 0..6 {
            let s = m.row_sum(i);
            prop_assert!(s == 0.0 || (s - 1.0).abs() < 1e-9);
        }
    }
}
