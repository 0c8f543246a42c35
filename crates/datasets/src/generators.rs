//! Random-graph generators.
//!
//! Every generator takes an explicit RNG and produces a simple
//! undirected [`Graph`]. Where the paper's datasets have a published
//! edge count, [`adjust_to_edge_count`] steers any generated graph to
//! the exact target by adding uniform non-edges or removing uniform
//! edges — a small perturbation that preserves the family's degree
//! shape while making `γ = B/|E|` in the privacy accounting match the
//! paper's setting exactly.

use rand::seq::SliceRandom;
use rand::Rng;
use sp_graph::{Graph, GraphBuilder, NodeId};

/// Erdős–Rényi `G(n, m)`: exactly `m` distinct uniform edges.
///
/// # Panics
/// Panics if `m` exceeds `n(n-1)/2`.
pub fn erdos_renyi<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> Graph {
    let max = n * n.saturating_sub(1) / 2;
    assert!(m <= max, "G({n}, {m}): too many edges (max {max})");
    let mut set = std::collections::HashSet::with_capacity(m * 2);
    let mut b = GraphBuilder::new(n);
    while set.len() < m {
        let u = rng.gen_range(0..n as NodeId);
        let v = rng.gen_range(0..n as NodeId);
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if set.insert(key) {
            b.add_edge(key.0, key.1);
        }
    }
    b.build()
}

/// Barabási–Albert preferential attachment: start from an `m`-clique,
/// each new node attaches to `m` distinct existing nodes chosen with
/// probability proportional to degree (the classic repeated-nodes
/// implementation).
///
/// # Panics
/// Panics if `m == 0` or `n <= m`.
pub fn barabasi_albert<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> Graph {
    assert!(m >= 1, "BA: m must be >= 1");
    assert!(n > m, "BA: need n > m");
    let mut b = GraphBuilder::new(n);
    // Seed clique on nodes 0..=m.
    let mut repeated: Vec<NodeId> = Vec::new();
    for u in 0..=m {
        for v in (u + 1)..=m {
            b.add_edge(u as NodeId, v as NodeId);
            repeated.push(u as NodeId);
            repeated.push(v as NodeId);
        }
    }
    let mut targets: Vec<NodeId> = Vec::with_capacity(m);
    for new in (m + 1)..n {
        targets.clear();
        while targets.len() < m {
            let t = repeated[rng.gen_range(0..repeated.len())];
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            b.add_edge(new as NodeId, t);
            repeated.push(new as NodeId);
            repeated.push(t);
        }
    }
    b.build()
}

/// Holme–Kim "power-law cluster" model: BA attachment where, after
/// each preferential step, with probability `p_triad` the next link
/// closes a triangle with a neighbour of the previous target. Produces
/// heavy-tailed degrees *and* clustering — the collaboration-network
/// shape (Arxiv).
pub fn holme_kim<R: Rng + ?Sized>(n: usize, m: usize, p_triad: f64, rng: &mut R) -> Graph {
    assert!(m >= 1 && n > m, "HK: need n > m >= 1");
    assert!((0.0..=1.0).contains(&p_triad), "HK: p_triad in [0,1]");
    let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let mut repeated: Vec<NodeId> = Vec::new();
    let add = |adj: &mut Vec<Vec<NodeId>>, repeated: &mut Vec<NodeId>, u: NodeId, v: NodeId| {
        adj[u as usize].push(v);
        adj[v as usize].push(u);
        repeated.push(u);
        repeated.push(v);
    };
    for u in 0..=m {
        for v in (u + 1)..=m {
            add(&mut adj, &mut repeated, u as NodeId, v as NodeId);
        }
    }
    for new in (m + 1)..n {
        let mut last_target: Option<NodeId> = None;
        let mut added = 0usize;
        while added < m {
            // Triad-formation step when possible.
            let mut linked = false;
            if let (Some(lt), true) = (last_target, rng.gen::<f64>() < p_triad) {
                let nb = &adj[lt as usize];
                if !nb.is_empty() {
                    let cand = nb[rng.gen_range(0..nb.len())];
                    if cand != new as NodeId && !adj[new].contains(&cand) {
                        add(&mut adj, &mut repeated, new as NodeId, cand);
                        last_target = Some(cand);
                        added += 1;
                        linked = true;
                    }
                }
            }
            if !linked {
                // Preferential-attachment step.
                let t = repeated[rng.gen_range(0..repeated.len())];
                if t != new as NodeId && !adj[new].contains(&t) {
                    add(&mut adj, &mut repeated, new as NodeId, t);
                    last_target = Some(t);
                    added += 1;
                }
            }
        }
    }
    let mut b = GraphBuilder::new(n);
    for (u, nb) in adj.iter().enumerate() {
        for &v in nb {
            if (u as NodeId) < v {
                b.add_edge(u as NodeId, v);
            }
        }
    }
    b.build()
}

/// Random recursive tree plus uniform shortcut edges: a connected,
/// sparse, high-diameter graph — the power-grid shape.
pub fn tree_plus_shortcuts<R: Rng + ?Sized>(n: usize, total_edges: usize, rng: &mut R) -> Graph {
    assert!(n >= 2, "need at least two nodes");
    assert!(
        total_edges >= n - 1,
        "need at least n-1 edges for a connected tree"
    );
    let mut b = GraphBuilder::new(n);
    let mut set = std::collections::HashSet::new();
    for v in 1..n as NodeId {
        let parent = rng.gen_range(0..v);
        b.add_edge(parent, v);
        set.insert((parent.min(v), parent.max(v)));
    }
    while set.len() < total_edges {
        let u = rng.gen_range(0..n as NodeId);
        let v = rng.gen_range(0..n as NodeId);
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if set.insert(key) {
            b.add_edge(key.0, key.1);
        }
    }
    b.build()
}

/// Adds uniform non-edges or removes uniform edges until `g` has
/// exactly `target` edges. Removal protects connectivity only
/// statistically (uniform choice); the stand-ins remove ≤ a few
/// percent of edges so fragmentation is negligible.
pub fn adjust_to_edge_count<R: Rng + ?Sized>(g: &Graph, target: usize, rng: &mut R) -> Graph {
    let n = g.num_nodes();
    let max = n * n.saturating_sub(1) / 2;
    assert!(target <= max, "target {target} exceeds max edges {max}");
    let current = g.num_edges();
    if current == target {
        return g.clone();
    }
    if current < target {
        let mut set: std::collections::HashSet<(NodeId, NodeId)> =
            g.edges().iter().copied().collect();
        let mut b = GraphBuilder::new(n);
        for &(u, v) in g.edges() {
            b.add_edge(u, v);
        }
        while set.len() < target {
            let u = rng.gen_range(0..n as NodeId);
            let v = rng.gen_range(0..n as NodeId);
            if u == v {
                continue;
            }
            let key = (u.min(v), u.max(v));
            if set.insert(key) {
                b.add_edge(key.0, key.1);
            }
        }
        b.build()
    } else {
        let mut edges: Vec<(NodeId, NodeId)> = g.edges().to_vec();
        edges.shuffle(rng);
        edges.truncate(target);
        Graph::from_edges(n, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sp_graph::algo;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn er_has_exact_edges() {
        let g = erdos_renyi(100, 250, &mut rng(1));
        assert_eq!(g.num_nodes(), 100);
        assert_eq!(g.num_edges(), 250);
    }

    #[test]
    fn er_is_deterministic() {
        let a = erdos_renyi(50, 100, &mut rng(2));
        let b = erdos_renyi(50, 100, &mut rng(2));
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn ba_degree_tail_is_heavy() {
        let g = barabasi_albert(2000, 4, &mut rng(3));
        // Edge count: C(m+1,2) + (n-m-1)*m.
        assert_eq!(g.num_edges(), 10 + (2000 - 5) * 4);
        // Hub check: max degree far above the mean for BA.
        let avg = g.avg_degree();
        assert!(
            g.max_degree() as f64 > 5.0 * avg,
            "max {} vs avg {avg}",
            g.max_degree()
        );
        assert!(algo::is_connected(&g));
    }

    #[test]
    fn hk_clusters_more_than_ba() {
        let ba = barabasi_albert(800, 3, &mut rng(4));
        let hk = holme_kim(800, 3, 0.8, &mut rng(4));
        let c_ba = algo::global_clustering_coefficient(&ba);
        let c_hk = algo::global_clustering_coefficient(&hk);
        assert!(
            c_hk > 2.0 * c_ba,
            "HK clustering {c_hk} should far exceed BA {c_ba}"
        );
    }

    #[test]
    fn tree_plus_shortcuts_is_connected_with_exact_edges() {
        let g = tree_plus_shortcuts(500, 660, &mut rng(7));
        assert_eq!(g.num_edges(), 660);
        assert!(algo::is_connected(&g));
    }

    #[test]
    fn pure_tree_when_target_is_minimum() {
        let g = tree_plus_shortcuts(100, 99, &mut rng(8));
        assert_eq!(g.num_edges(), 99);
        assert!(algo::is_connected(&g));
        assert_eq!(algo::triangle_count(&g), 0);
    }

    #[test]
    fn adjust_up_and_down() {
        let g = erdos_renyi(60, 100, &mut rng(9));
        let up = adjust_to_edge_count(&g, 140, &mut rng(10));
        assert_eq!(up.num_edges(), 140);
        // All original edges survive an upward adjustment.
        for &(u, v) in g.edges() {
            assert!(up.has_edge(u, v));
        }
        let down = adjust_to_edge_count(&g, 70, &mut rng(11));
        assert_eq!(down.num_edges(), 70);
        // Downward adjustment only removes.
        for &(u, v) in down.edges() {
            assert!(g.has_edge(u, v));
        }
        let same = adjust_to_edge_count(&g, 100, &mut rng(12));
        assert_eq!(same.edges(), g.edges());
    }

    #[test]
    #[should_panic(expected = "too many edges")]
    fn er_rejects_impossible_density() {
        erdos_renyi(4, 10, &mut rng(13));
    }

    #[test]
    #[should_panic(expected = "n-1 edges")]
    fn tree_rejects_too_few_edges() {
        tree_plus_shortcuts(10, 5, &mut rng(14));
    }
}
