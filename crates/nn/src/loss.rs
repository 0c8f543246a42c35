//! A loss with its analytic gradient, returned as
//! `(loss, d_loss/d_pred)`: the loss that `Mlp`'s gradient tests
//! differentiate.
//!
//! The loss is a *mean* over every element (not a sum), so gradient
//! magnitudes are insensitive to batch/width choices.

use sp_linalg::DenseMatrix;

/// Mean squared error: `L = mean((pred - target)²)`.
pub fn mse(pred: &DenseMatrix, target: &DenseMatrix) -> (f64, DenseMatrix) {
    assert_eq!(pred.shape(), target.shape(), "mse: shape mismatch");
    let n = pred.as_slice().len().max(1) as f64;
    let mut grad = DenseMatrix::zeros(pred.rows(), pred.cols());
    let mut loss = 0.0;
    for (idx, (&p, &t)) in pred.as_slice().iter().zip(target.as_slice()).enumerate() {
        let d = p - t;
        loss += d * d;
        grad.as_mut_slice()[idx] = 2.0 * d / n;
    }
    (loss / n, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_zero_at_perfect_prediction() {
        let a = DenseMatrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let (l, g) = mse(&a, &a);
        assert_eq!(l, 0.0);
        assert!(g.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn mse_known_value_and_grad() {
        let p = DenseMatrix::from_vec(1, 2, vec![1.0, 3.0]);
        let t = DenseMatrix::from_vec(1, 2, vec![0.0, 1.0]);
        let (l, g) = mse(&p, &t);
        assert!((l - 2.5).abs() < 1e-12); // (1 + 4)/2
        assert_eq!(g.as_slice(), &[1.0, 2.0]); // 2d/n
    }
}
