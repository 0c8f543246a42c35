//! Quickstart: embed a small graph under differential privacy and
//! evaluate both downstream tasks.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use se_privgemb_suite::core::{PerturbStrategy, ProximityKind, SePrivGEmb};
use se_privgemb_suite::datasets::generators;
use se_privgemb_suite::eval::{struc_equ, LinkSplit, PairSelection};

fn main() {
    // 1. A synthetic scale-free graph (stand-in for any edge list you
    //    might load with sp_datasets::loaders::load_edge_list_path).
    let mut rng = StdRng::seed_from_u64(7);
    let g = generators::barabasi_albert(500, 5, &mut rng);
    println!(
        "graph: {} nodes, {} edges, max degree {}",
        g.num_nodes(),
        g.num_edges(),
        g.max_degree()
    );

    // 2. Train SE-PrivGEmb with the paper's defaults at ε = 3.5.
    let result = SePrivGEmb::builder()
        .dim(64)
        .proximity(ProximityKind::deepwalk_default())
        .epsilon(3.5)
        .delta(1e-5)
        .epochs(100)
        .seed(42)
        .build()
        .fit(&g);

    println!(
        "training: {} epochs run ({} steps), stopped by budget: {}",
        result.report.epochs_run, result.report.steps_run, result.report.stopped_by_budget
    );
    println!(
        "privacy:  ε spent = {:.3} (target 3.5), δ̂ = {:.2e} (target 1e-5)",
        result.report.epsilon_spent, result.report.delta_spent
    );

    // 3. Task 1: structural equivalence.
    let strucequ =
        struc_equ(&g, result.embeddings(), PairSelection::Auto { seed: 1 }).unwrap_or(f64::NAN);
    println!("StrucEqu: {strucequ:.4}");

    // 4. Task 2: link prediction on a fresh 90/10 split.
    //    (Retrain on the train graph so no test edge leaks.)
    let split = LinkSplit::new(&g, 0.1, &mut rng);
    let lp = SePrivGEmb::builder()
        .dim(64)
        .epsilon(3.5)
        .epochs(100)
        .seed(42)
        .build()
        .fit(&split.train);
    println!(
        "link-prediction AUC: {:.4}",
        split.auc(lp.embeddings()).unwrap()
    );

    // 5. The non-private reference (SE-GEmb) for comparison —
    //    trained to convergence since it has no budget to respect.
    let nonpriv = SePrivGEmb::builder()
        .dim(64)
        .strategy(PerturbStrategy::None)
        .epochs(400)
        .learning_rate(0.3)
        .seed(42)
        .build()
        .fit(&g);
    let s_np =
        struc_equ(&g, nonpriv.embeddings(), PairSelection::Auto { seed: 1 }).unwrap_or(f64::NAN);
    println!("non-private StrucEqu reference: {s_np:.4}");
}
