//! Property tests for the NN substrate: gradient correctness over
//! random architectures and inputs, DP bookkeeping invariants.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sp_linalg::DenseMatrix;
use sp_nn::{loss, Activation, Linear, Mlp};

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-2.0f64..2.0, rows * cols)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn linear_dx_matches_fd(seed in 0u64..1000, xs in matrix(2, 3)) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layer = Linear::new(3, 2, &mut rng);
        let x = DenseMatrix::from_vec(2, 3, xs);
        let dy = DenseMatrix::from_vec(2, 2, vec![1.0; 4]);
        let dx = layer.backward(&x, &dy);
        let h = 1e-6;
        let loss_of = |layer: &Linear, x: &DenseMatrix| -> f64 {
            layer.forward(x).as_slice().iter().sum()
        };
        for r in 0..2 {
            for c in 0..3 {
                let mut xp = x.clone();
                xp.set(r, c, x.get(r, c) + h);
                let mut xm = x.clone();
                xm.set(r, c, x.get(r, c) - h);
                let fd = (loss_of(&layer, &xp) - loss_of(&layer, &xm)) / (2.0 * h);
                prop_assert!((dx.get(r, c) - fd).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn mlp_grad_clip_invariant(seed in 0u64..1000, c in 0.01f64..5.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Mlp::new(&[3, 6, 2], &[Activation::Tanh, Activation::Identity], &mut rng);
        let x = DenseMatrix::uniform(2, 3, -1.0, 1.0, &mut rng);
        let target = DenseMatrix::uniform(2, 2, -5.0, 5.0, &mut rng);
        let y = m.forward(&x);
        let (_, dy) = loss::mse(&y, &target);
        m.backward(&dy);
        m.clip_grads(c);
        prop_assert!(m.grad_norm() <= c + 1e-9);
    }

    #[test]
    fn sgd_with_zero_grads_is_identity(seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Mlp::new(&[2, 3, 1], &[Activation::Relu, Activation::Identity], &mut rng);
        let before: Vec<f64> = m.layer(0).w.as_slice().to_vec();
        m.flush_grads(); // nothing accumulated
        m.step_sgd(0.5, 4);
        prop_assert_eq!(m.layer(0).w.as_slice().to_vec(), before);
    }
}
