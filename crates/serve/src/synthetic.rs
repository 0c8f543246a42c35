//! Seeded synthetic embeddings for serving benchmarks and recall
//! regression tests.
//!
//! Real published embeddings are clustered (communities end up in
//! cones of the embedding space — that is what makes IVF work), so the
//! stand-in plants `clusters` seeded centres and scatters nodes around
//! them. Generation is a pure function of the arguments: no `rand`
//! dependency, just a splitmix64 stream, so the bench harness and the
//! CI matrix reproduce identical stores everywhere.

use sp_model::F32Matrix;
use sp_parallel::splitmix64;

/// Uniform in `[-1, 1)` from the top 24 bits of a hash word.
fn unit(x: u64) -> f32 {
    ((x >> 40) as f32) / 8_388_608.0 - 1.0
}

/// `n x dim` matrix of `clusters` Gaussian-ish blobs: node `i` sits at
/// centre `i % clusters` plus small seeded jitter. Deterministic in
/// `(n, dim, clusters, seed)`.
pub fn clustered_embedding(n: usize, dim: usize, clusters: usize, seed: u64) -> F32Matrix {
    let clusters = clusters.max(1);
    let mut centres = vec![0.0f32; clusters * dim];
    for c in 0..clusters {
        for d in 0..dim {
            centres[c * dim + d] = unit(splitmix64(
                seed ^ (c as u64).wrapping_mul(0x9E37_79B9) ^ ((d as u64) << 32),
            ));
        }
    }
    let mut data = vec![0.0f32; n * dim];
    for i in 0..n {
        let c = i % clusters;
        for d in 0..dim {
            let jitter = unit(splitmix64(
                seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ ((i as u64) << 20) ^ d as u64,
            ));
            data[i * dim + d] = centres[c * dim + d] + 0.15 * jitter;
        }
    }
    F32Matrix::from_vec(n, dim, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = clustered_embedding(50, 8, 5, 7);
        let b = clustered_embedding(50, 8, 5, 7);
        assert_eq!(
            a.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
        let c = clustered_embedding(50, 8, 5, 8);
        assert_ne!(a.as_slice(), c.as_slice(), "seed must matter");
    }

    #[test]
    fn clusters_are_tighter_than_the_space() {
        let m = clustered_embedding(200, 6, 4, 11);
        // Two nodes of the same cluster sit closer than two nodes of
        // different clusters, on average.
        let dist =
            |a: &[f32], b: &[f32]| -> f32 { a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum() };
        let same = dist(m.row(0), m.row(4));
        let cross = dist(m.row(0), m.row(1));
        assert!(same < cross, "intra {same} vs inter {cross}");
    }

    #[test]
    fn values_are_finite_and_bounded() {
        let m = clustered_embedding(100, 16, 8, 3);
        assert!(m.as_slice().iter().all(|v| v.is_finite() && v.abs() < 2.0));
    }
}
