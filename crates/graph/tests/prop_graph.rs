//! Property tests for the graph substrate.

use proptest::prelude::*;
use sp_graph::{algo, Graph};

fn edge_list(n: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0..n as u32, 0..n as u32), 0..60)
}

proptest! {
    #[test]
    fn adjacency_symmetry(edges in edge_list(12)) {
        let g = Graph::from_edges(12, edges);
        for v in 0..12u32 {
            for &u in g.neighbors(v) {
                prop_assert!(g.has_edge(u, v));
                prop_assert!(g.has_edge(v, u));
            }
        }
    }

    #[test]
    fn handshake_lemma(edges in edge_list(12)) {
        let g = Graph::from_edges(12, edges);
        let total: usize = g.degrees().iter().sum();
        prop_assert_eq!(total, 2 * g.num_edges());
    }

    #[test]
    fn no_self_loops_or_duplicates(edges in edge_list(10)) {
        let g = Graph::from_edges(10, edges);
        for v in 0..10u32 {
            let nb = g.neighbors(v);
            prop_assert!(!nb.contains(&v), "self loop at {v}");
            prop_assert!(nb.windows(2).all(|w| w[0] < w[1]), "dup/unsorted at {v}");
        }
    }

    #[test]
    fn edges_are_canonical(edges in edge_list(10)) {
        let g = Graph::from_edges(10, edges);
        for &(u, v) in g.edges() {
            prop_assert!(u < v);
            prop_assert!(g.has_edge(u, v));
        }
        prop_assert!(g.edges().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn component_labels_consistent_with_edges(edges in edge_list(10)) {
        let g = Graph::from_edges(10, edges);
        let (labels, k) = algo::connected_components(&g);
        prop_assert!(k >= 1 || g.num_nodes() == 0);
        for &(u, v) in g.edges() {
            prop_assert_eq!(labels[u as usize], labels[v as usize]);
        }
        // Label count equals number of distinct labels.
        let mut distinct: Vec<u32> = labels.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(distinct.len(), k);
    }

    #[test]
    fn common_neighbors_symmetric(edges in edge_list(10)) {
        let g = Graph::from_edges(10, edges);
        for u in 0..10u32 {
            for v in 0..10u32 {
                prop_assert_eq!(
                    algo::common_neighbor_count(&g, u, v),
                    algo::common_neighbor_count(&g, v, u)
                );
            }
        }
    }

    #[test]
    fn io_round_trip_up_to_relabeling(edges in edge_list(12)) {
        let g = Graph::from_edges(12, edges);
        let mut buf = Vec::new();
        sp_graph::io::write_edge_list(&g, &mut buf).unwrap();
        let doc = sp_graph::io::read_edge_list_doc(
            std::io::Cursor::new(buf),
            sp_graph::io::ReadOptions::default(),
        )
        .unwrap();
        let (g2, map) = (doc.graph, doc.id_map);
        prop_assert_eq!(g2.num_edges(), g.num_edges());
        for &(u, v) in g.edges() {
            prop_assert!(g2.has_edge(map[&(u as u64)], map[&(v as u64)]));
        }
    }
}
