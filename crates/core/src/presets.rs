//! The paper's experimental setups (§VI-A).
//!
//! The common parameter block (r=128, k=5, B=128, η=0.1, C=2, σ=5,
//! δ=1e-5, DeepWalk proximity, 200 epochs for structural equivalence)
//! is the default of [`SePrivGEmb::builder`](crate::SePrivGEmb::builder);
//! link prediction differs only in its epoch count: "we set the same
//! parameters for structural equivalence and link prediction except for
//! the training epochs (200 vs 2000)". This module holds the ε grid the
//! figures sweep.

/// The ε grid of Figs. 3–4: `{0.5, 1, 1.5, 2, 2.5, 3, 3.5}`.
pub fn epsilon_grid() -> [f64; 7] {
    [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SePrivGEmb;
    use sp_proximity::ProximityKind;
    use sp_skipgram::PerturbStrategy;

    #[test]
    fn presets_match_paper_parameters() {
        let m = SePrivGEmb::builder().build();
        let c = m.train_config();
        assert_eq!(c.dim, 128);
        assert_eq!(c.negatives, 5);
        assert_eq!(c.batch_size, 128);
        assert_eq!(c.learning_rate, 0.1);
        assert_eq!(c.clip, 2.0);
        assert_eq!(c.sigma, 5.0);
        assert_eq!(c.delta, 1e-5);
        assert_eq!(c.epochs, 200);
        assert_eq!(c.strategy, PerturbStrategy::NonZero);
        assert_eq!(m.proximity_kind(), ProximityKind::deepwalk_default());
    }

    #[test]
    fn epsilon_grid_matches_paper() {
        let g = epsilon_grid();
        assert_eq!(g.len(), 7);
        assert_eq!(g[0], 0.5);
        assert_eq!(g[6], 3.5);
        for w in g.windows(2) {
            assert!((w[1] - w[0] - 0.5).abs() < 1e-12);
        }
    }
}
