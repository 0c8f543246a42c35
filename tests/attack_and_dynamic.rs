//! Integration tests for the two extension crates working against the
//! full pipeline: privacy auditing and continual publishing.

use rand::rngs::StdRng;
use rand::SeedableRng;
use se_privgemb_suite::attack::{edge_membership, edge_membership_scored, node_membership};
use se_privgemb_suite::core::{PerturbStrategy, ProximityKind, SePrivGEmb};
use se_privgemb_suite::datasets::generators;
use se_privgemb_suite::dynamic::{evolve_graph, BudgetAllocation, DynamicConfig, DynamicEmbedder};
use se_privgemb_suite::eval::{struc_equ, PairSelection};
use se_privgemb_suite::skipgram::TrainConfig;

fn graph() -> sp_graph::Graph {
    let mut rng = StdRng::seed_from_u64(1);
    generators::barabasi_albert(200, 4, &mut rng)
}

#[test]
fn attack_reports_are_well_formed_on_trained_models() {
    let g = graph();
    let result = SePrivGEmb::builder()
        .dim(16)
        .epochs(20)
        .seed(2)
        .build()
        .fit(&g);
    let mut rng = StdRng::seed_from_u64(3);
    let edge = edge_membership(&g, result.embeddings(), 100, &mut rng);
    assert!((0.0..=1.0).contains(&edge.auc));
    assert_eq!(edge.members, 100);
    let node = node_membership(&g, result.embeddings(), 80, &mut rng);
    assert!((0.0..=1.0).contains(&node.auc));
    assert!(node.advantage() <= 1.0);
}

#[test]
fn whitebox_attack_dominates_embedding_only_attack_on_nonprivate_model() {
    // The Θ-aware scorer (in·out products) sees the fitted statistic;
    // the embedding-only scorer sees it indirectly. On a well-trained
    // non-private model the white-box attack should be at least as
    // strong.
    let g = graph();
    let result = SePrivGEmb::builder()
        .dim(32)
        .epochs(250)
        .learning_rate(0.3)
        .strategy(PerturbStrategy::None)
        .proximity(ProximityKind::deepwalk_default())
        .seed(4)
        .build()
        .fit(&g);
    let model = result.model.clone();
    let mut rng = StdRng::seed_from_u64(5);
    let whitebox = edge_membership_scored(
        &g,
        |u, v| model.inner(u, v) + model.inner(v, u),
        300,
        &mut rng,
    );
    let mut rng = StdRng::seed_from_u64(5);
    let embonly = edge_membership(&g, result.embeddings(), 300, &mut rng);
    assert!(
        whitebox.auc >= embonly.auc - 0.05,
        "white-box {} should not trail embedding-only {}",
        whitebox.auc,
        embonly.auc
    );
    assert!(
        whitebox.auc > 0.6,
        "non-private must leak: {}",
        whitebox.auc
    );
}

#[test]
fn dynamic_sequence_respects_total_budget_and_produces_usable_embeddings() {
    let mut rng = StdRng::seed_from_u64(6);
    let g0 = generators::barabasi_albert(120, 3, &mut rng);
    let snaps = evolve_graph(&g0, 2, 60, &mut rng);
    let embedder = DynamicEmbedder::new(DynamicConfig {
        base: TrainConfig {
            dim: 16,
            epochs: 15,
            batch_size: 16,
            ..TrainConfig::default()
        },
        total_epsilon: 3.0,
        allocation: BudgetAllocation::GeometricDecay { rho: 0.7 },
        ..DynamicConfig::default()
    });
    let results = embedder.fit(&snaps).unwrap();
    let total: f64 = results.iter().map(|r| r.report.epsilon_spent).sum();
    assert!(total <= 3.0 + 1e-9, "sequence overspent: {total}");
    for (t, r) in results.iter().enumerate() {
        let s = struc_equ(&snaps[t], &r.model.w_in, PairSelection::All);
        assert!(s.is_some(), "snapshot {t} produced degenerate embeddings");
    }
}

#[test]
fn decayed_allocation_gives_final_snapshot_more_budget_than_uniform() {
    let shares_u = BudgetAllocation::Uniform.split(3.5, 5);
    let shares_d = BudgetAllocation::GeometricDecay { rho: 0.5 }.split(3.5, 5);
    assert!(shares_d[4] > shares_u[4]);
    assert!(shares_d[0] < shares_u[0]);
}
