//! Multi-layer perceptron: a stack of [`Linear`] + [`Activation`]
//! pairs with cached forward state for backprop.

use crate::activation::Activation;
use crate::linear::Linear;
use rand::Rng;
use sp_dp::GaussianSampler;
use sp_linalg::DenseMatrix;

/// An MLP; layer `i` maps `dims[i] -> dims[i+1]` through `acts[i]`.
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
    acts: Vec<Activation>,
    /// Cached per-layer inputs (x of each linear) from the last forward.
    cache_inputs: Vec<DenseMatrix>,
    /// Cached activation outputs from the last forward.
    cache_outputs: Vec<DenseMatrix>,
}

impl Mlp {
    /// Builds an MLP with the given layer widths and activations
    /// (`acts.len() == dims.len() - 1`).
    pub fn new<R: Rng + ?Sized>(dims: &[usize], acts: &[Activation], rng: &mut R) -> Self {
        assert!(dims.len() >= 2, "need at least input and output widths");
        assert_eq!(acts.len(), dims.len() - 1, "one activation per layer");
        let layers = dims
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect();
        Self {
            layers,
            acts: acts.to_vec(),
            cache_inputs: Vec::new(),
            cache_outputs: Vec::new(),
        }
    }

    /// Immutable access to a layer (weights inspection in tests).
    pub fn layer(&self, i: usize) -> &Linear {
        &self.layers[i]
    }

    /// Forward pass, caching intermediates for [`Mlp::backward`].
    pub fn forward(&mut self, x: &DenseMatrix) -> DenseMatrix {
        self.cache_inputs.clear();
        self.cache_outputs.clear();
        let mut h = x.clone();
        for (layer, act) in self.layers.iter().zip(&self.acts) {
            self.cache_inputs.push(h.clone());
            let mut y = layer.forward(&h);
            act.forward(&mut y);
            self.cache_outputs.push(y.clone());
            h = y;
        }
        h
    }

    /// Inference-only forward (no caches touched).
    pub fn predict(&self, x: &DenseMatrix) -> DenseMatrix {
        let mut h = x.clone();
        for (layer, act) in self.layers.iter().zip(&self.acts) {
            let mut y = layer.forward(&h);
            act.forward(&mut y);
            h = y;
        }
        h
    }

    /// Backward pass from upstream gradient `dy` (w.r.t. the final
    /// activation output); accumulates per-example gradients in every
    /// layer and returns the gradient w.r.t. the input.
    ///
    /// # Panics
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dy: &DenseMatrix) -> DenseMatrix {
        assert_eq!(
            self.cache_inputs.len(),
            self.layers.len(),
            "backward called before forward"
        );
        let mut grad = dy.clone();
        for i in (0..self.layers.len()).rev() {
            self.acts[i].backward(&self.cache_outputs[i], &mut grad);
            grad = self.layers[i].backward(&self.cache_inputs[i], &grad);
        }
        grad
    }

    /// Joint per-example gradient norm across all layers.
    pub fn grad_norm(&self) -> f64 {
        self.layers
            .iter()
            .map(|l| l.grad_norm_sq())
            .sum::<f64>()
            .sqrt()
    }

    /// Clips the joint per-example gradient to `c`; returns the factor.
    pub fn clip_grads(&mut self, c: f64) -> f64 {
        assert!(c > 0.0, "clip threshold must be positive");
        let n = self.grad_norm();
        if n > c {
            let f = c / n;
            for l in &mut self.layers {
                l.scale_grads(f);
            }
            f
        } else {
            1.0
        }
    }

    /// Flushes per-example gradients into the batch accumulators.
    pub fn flush_grads(&mut self) {
        for l in &mut self.layers {
            l.flush_grads();
        }
    }

    /// Zeroes per-example gradients.
    pub fn zero_grads(&mut self) {
        for l in &mut self.layers {
            l.zero_grads();
        }
    }

    /// Adds Gaussian noise to every batch accumulator (DP-SGD).
    pub fn add_noise<R: Rng + ?Sized>(
        &mut self,
        std: f64,
        sampler: &mut GaussianSampler,
        rng: &mut R,
    ) {
        for l in &mut self.layers {
            l.add_noise_to_acc(std, sampler, rng);
        }
    }

    /// SGD step for all layers from the batch accumulators.
    pub fn step_sgd(&mut self, lr: f64, batch: usize) {
        for l in &mut self.layers {
            l.step_sgd(lr, batch);
        }
    }

    /// Adam step for all layers from the batch accumulators.
    pub fn step_adam(&mut self, lr: f64, batch: usize, t: u64) {
        for l in &mut self.layers {
            l.step_adam(lr, batch, t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mlp(seed: u64) -> Mlp {
        let mut rng = StdRng::seed_from_u64(seed);
        Mlp::new(
            &[3, 8, 2],
            &[Activation::Tanh, Activation::Identity],
            &mut rng,
        )
    }

    #[test]
    fn forward_shapes() {
        let mut m = mlp(1);
        let y = m.forward(&DenseMatrix::zeros(5, 3));
        assert_eq!(y.shape(), (5, 2));
    }

    #[test]
    fn predict_matches_forward() {
        let mut m = mlp(2);
        let mut rng = StdRng::seed_from_u64(3);
        let x = DenseMatrix::uniform(4, 3, -1.0, 1.0, &mut rng);
        let a = m.forward(&x);
        let b = m.predict(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn end_to_end_gradient_matches_fd() {
        let mut m = mlp(4);
        let mut rng = StdRng::seed_from_u64(5);
        let x = DenseMatrix::uniform(2, 3, -1.0, 1.0, &mut rng);
        let target = DenseMatrix::uniform(2, 2, -1.0, 1.0, &mut rng);

        let y = m.forward(&x);
        let (_, dy) = loss::mse(&y, &target);
        let dx = m.backward(&dy);

        // FD on the input.
        let h = 1e-6;
        for r in 0..2 {
            for c in 0..3 {
                let mut xp = x.clone();
                xp.set(r, c, x.get(r, c) + h);
                let (lp, _) = loss::mse(&m.predict(&xp), &target);
                let mut xm = x.clone();
                xm.set(r, c, x.get(r, c) - h);
                let (lm, _) = loss::mse(&m.predict(&xm), &target);
                let fd = (lp - lm) / (2.0 * h);
                assert!(
                    (dx.get(r, c) - fd).abs() < 1e-5,
                    "dx({r},{c}): {} vs {fd}",
                    dx.get(r, c)
                );
            }
        }
    }

    #[test]
    fn training_reduces_mse() {
        let mut m = mlp(6);
        let mut rng = StdRng::seed_from_u64(7);
        let x = DenseMatrix::uniform(16, 3, -1.0, 1.0, &mut rng);
        let target = DenseMatrix::uniform(16, 2, -0.5, 0.5, &mut rng);
        let (initial, _) = loss::mse(&m.forward(&x), &target);
        for t in 1..=200u64 {
            let y = m.forward(&x);
            let (_, dy) = loss::mse(&y, &target);
            m.backward(&dy);
            m.flush_grads();
            m.step_adam(0.01, 1, t);
        }
        let (fin, _) = loss::mse(&m.predict(&x), &target);
        assert!(fin < initial / 4.0, "MSE {initial} -> {fin}");
    }

    #[test]
    fn clip_bounds_joint_norm() {
        let mut m = mlp(8);
        let mut rng = StdRng::seed_from_u64(9);
        let x = DenseMatrix::uniform(1, 3, -1.0, 1.0, &mut rng);
        let y = m.forward(&x);
        let big_target = DenseMatrix::from_vec(1, 2, vec![100.0, -100.0]);
        let (_, dy) = loss::mse(&y, &big_target);
        m.backward(&dy);
        assert!(m.grad_norm() > 1.0);
        m.clip_grads(1.0);
        assert!((m.grad_norm() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "before forward")]
    fn backward_requires_forward() {
        let mut m = mlp(10);
        m.backward(&DenseMatrix::zeros(1, 2));
    }
}
