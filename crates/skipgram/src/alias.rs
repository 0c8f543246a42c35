//! Walker alias method: O(1) sampling from an arbitrary discrete
//! distribution after O(n) setup.
//!
//! SGNS implementations conventionally draw negatives from a unigram
//! distribution (∝ degree, possibly raised to 3/4). The paper replaces
//! that with uniform non-neighbour sampling (Algorithm 1) to obtain
//! Theorem 3; the alias table remains in the toolbox for the
//! prior-work comparison (Eq. 14/15) and for the dataset generators'
//! preferential attachment.

use rand::Rng;

/// Pre-processed alias table over `0..n`.
#[derive(Clone, Debug)]
pub struct AliasTable {
    /// Acceptance probability of each bucket's "own" outcome.
    prob: Vec<f64>,
    /// Fallback outcome of each bucket.
    alias: Vec<u32>,
}

impl AliasTable {
    /// Builds a table for the distribution proportional to `weights`.
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative/non-finite
    /// value, or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(
            !weights.is_empty(),
            "alias table needs at least one outcome"
        );
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0 && total.is_finite(),
            "weights must sum to a positive finite value"
        );
        for &w in weights {
            assert!(w >= 0.0 && w.is_finite(), "weight {w} invalid");
        }
        let n = weights.len();
        let scale = n as f64 / total;
        let mut prob: Vec<f64> = weights.iter().map(|&w| w * scale).collect();
        let mut alias = vec![0u32; n];

        // Partition buckets into under- and over-full.
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s as usize] = l;
            // Donate the slack of `s` from `l`.
            prob[l as usize] -= 1.0 - prob[s as usize];
            if prob[l as usize] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Remaining buckets are numerically full.
        for i in small.into_iter().chain(large) {
            prob[i as usize] = 1.0;
        }
        Self { prob, alias }
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True when the table has no outcomes (never: constructor panics).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws one outcome in O(1).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        let i = rng.gen_range(0..self.prob.len());
        if rng.gen::<f64>() < self.prob[i] {
            i as u32
        } else {
            self.alias[i]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn empirical(weights: &[f64], draws: usize, seed: u64) -> Vec<f64> {
        let t = AliasTable::new(weights);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = vec![0usize; weights.len()];
        for _ in 0..draws {
            counts[t.sample(&mut rng) as usize] += 1;
        }
        counts
            .into_iter()
            .map(|c| c as f64 / draws as f64)
            .collect()
    }

    #[test]
    fn uniform_weights_give_uniform_samples() {
        let freq = empirical(&[1.0; 8], 400_000, 1);
        for f in freq {
            assert!((f - 0.125).abs() < 0.005, "freq {f}");
        }
    }

    #[test]
    fn skewed_weights_match_distribution() {
        let w = [1.0, 2.0, 3.0, 4.0];
        let freq = empirical(&w, 400_000, 2);
        let total: f64 = w.iter().sum();
        for (i, f) in freq.iter().enumerate() {
            let expect = w[i] / total;
            assert!((f - expect).abs() < 0.01, "outcome {i}: {f} vs {expect}");
        }
    }

    #[test]
    fn zero_weight_outcomes_never_sampled() {
        let freq = empirical(&[0.0, 1.0, 0.0, 1.0], 100_000, 3);
        assert_eq!(freq[0], 0.0);
        assert_eq!(freq[2], 0.0);
        assert!((freq[1] - 0.5).abs() < 0.01);
    }

    #[test]
    fn single_outcome_always_chosen() {
        let t = AliasTable::new(&[42.0]);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            assert_eq!(t.sample(&mut rng), 0);
        }
    }

    #[test]
    fn power_law_tail_is_respected() {
        // Zipf-ish weights: the head outcome should dominate exactly
        // in proportion.
        let w: Vec<f64> = (1..=50).map(|i| 1.0 / i as f64).collect();
        let freq = empirical(&w, 500_000, 5);
        let total: f64 = w.iter().sum();
        assert!((freq[0] - 1.0 / total).abs() < 0.01);
        assert!((freq[1] - 0.5 / total).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "at least one outcome")]
    fn rejects_empty() {
        AliasTable::new(&[]);
    }

    #[test]
    #[should_panic(expected = "positive finite")]
    fn rejects_all_zero() {
        AliasTable::new(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn rejects_negative() {
        AliasTable::new(&[1.0, -0.5]);
    }
}
