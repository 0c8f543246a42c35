//! Continual publishing of a growing graph under one total privacy
//! budget — the paper's named future-work scenario (§VIII).
//!
//! A data owner re-publishes node embeddings as the network grows.
//! Each version must be private, and the *sequence* must respect one
//! total (ε, δ). This example compares uniform vs decayed budget
//! allocation and shows the warm-start trick keeping versions stable.
//!
//! ```text
//! cargo run --release --example dynamic_publishing
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use se_privgemb_suite::datasets::generators;
use se_privgemb_suite::dynamic::{evolve_graph, BudgetAllocation, DynamicConfig, DynamicEmbedder};
use se_privgemb_suite::eval::{struc_equ, PairSelection};
use se_privgemb_suite::skipgram::TrainConfig;

fn main() {
    let mut rng = StdRng::seed_from_u64(41);
    let g0 = generators::barabasi_albert(300, 3, &mut rng);
    let snapshots = evolve_graph(&g0, 4, 150, &mut rng);
    println!(
        "publishing {} versions of a growing graph:",
        snapshots.len()
    );
    for (t, s) in snapshots.iter().enumerate() {
        println!("  v{t}: {} edges", s.num_edges());
    }

    let base = TrainConfig {
        dim: 48,
        epochs: 40,
        ..TrainConfig::default()
    };

    for (label, allocation, warm) in [
        ("uniform + warm start", BudgetAllocation::Uniform, true),
        ("uniform + cold start", BudgetAllocation::Uniform, false),
        (
            "decay(0.6) + warm start",
            BudgetAllocation::GeometricDecay { rho: 0.6 },
            true,
        ),
    ] {
        let embedder = DynamicEmbedder::new(DynamicConfig {
            base: base.clone(),
            total_epsilon: 3.5,
            allocation,
            warm_start: warm,
            ..DynamicConfig::default()
        });
        let results = embedder
            .fit(&snapshots)
            .expect("no checkpoint directory is set, so training does no IO");
        println!("\n--- {label} (total ε = 3.5, δ = 1e-5) ---");
        println!(
            "{:>4}  {:>8}  {:>10}  {:>10}  {:>10}",
            "ver", "ε alloc", "ε spent", "StrucEqu", "drift"
        );
        let mut total_spent = 0.0;
        for (t, r) in results.iter().enumerate() {
            let s = struc_equ(
                &snapshots[t],
                &r.model.w_in,
                PairSelection::Auto { seed: 1 },
            )
            .unwrap_or(f64::NAN);
            total_spent += r.report.epsilon_spent;
            println!(
                "{t:>4}  {:>8.3}  {:>10.3}  {:>10.4}  {:>10.4}",
                r.epsilon_allocated, r.report.epsilon_spent, s, r.drift
            );
        }
        println!("total ε spent across versions: {total_spent:.3} ≤ 3.5");
    }

    println!();
    println!("Warm starts reuse the previous *published* (already-DP) model,");
    println!("which is free post-processing — versions drift less and later");
    println!("snapshots keep improving instead of relearning from scratch.");
}
