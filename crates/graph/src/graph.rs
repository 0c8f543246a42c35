//! Core graph type.
//!
//! [`Graph`] is immutable after construction: the training pipeline
//! never mutates the input graph, and immutability lets the adjacency
//! arrays be shared freely across threads in the experiment sweeps.
//! Use [`GraphBuilder`] (or [`Graph::from_edges`]) to construct one;
//! self-loops and duplicate edges are dropped, matching the paper's
//! preprocessing ("all datasets are preprocessed to remove self-loops",
//! §VI-A).

use rand::Rng;

/// Dense node identifier.
pub type NodeId = u32;

/// An undirected, unweighted simple graph in CSR form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` indexes `neighbors` for node `v`.
    offsets: Vec<usize>,
    /// Concatenated sorted neighbour lists.
    neighbors: Vec<NodeId>,
    /// Canonical edge list with `u < v`, sorted lexicographically.
    edges: Vec<(NodeId, NodeId)>,
}

/// Incremental builder that deduplicates edges and drops self-loops.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    num_nodes: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Builder for a graph with `num_nodes` nodes (ids `0..num_nodes`).
    pub fn new(num_nodes: usize) -> Self {
        assert!(
            num_nodes <= u32::MAX as usize,
            "node count {num_nodes} exceeds u32 id space"
        );
        Self {
            num_nodes,
            edges: Vec::new(),
        }
    }

    /// Adds an undirected edge; self-loops are silently ignored,
    /// duplicates are removed at [`GraphBuilder::build`] time.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(
            (u as usize) < self.num_nodes && (v as usize) < self.num_nodes,
            "edge ({u},{v}) out of bounds for {} nodes",
            self.num_nodes
        );
        if u == v {
            return;
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a, b));
    }

    /// Number of queued (possibly duplicate) edges.
    pub fn pending_edges(&self) -> usize {
        self.edges.len()
    }

    /// Finalises into an immutable [`Graph`].
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        self.edges.dedup();
        Graph::from_canonical_edges(self.num_nodes, self.edges)
    }
}

impl Graph {
    /// Builds a graph from an arbitrary edge iterator (orientation and
    /// duplicates are normalised away).
    pub fn from_edges<I>(num_nodes: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        let mut b = GraphBuilder::new(num_nodes);
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// `edges` must already be canonical: `u < v`, sorted, deduplicated.
    /// The graph keeps it without spare capacity.
    pub(crate) fn from_canonical_edges(num_nodes: usize, mut edges: Vec<(NodeId, NodeId)>) -> Self {
        edges.shrink_to_fit();
        let mut degree = vec![0usize; num_nodes];
        for &(u, v) in &edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = vec![0usize; num_nodes + 1];
        for v in 0..num_nodes {
            offsets[v + 1] = offsets[v] + degree[v];
        }
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0 as NodeId; offsets[num_nodes]];
        for &(u, v) in &edges {
            neighbors[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        // Each neighbour list is filled in sorted order because `edges`
        // is sorted, except that a node's smaller neighbours arrive via
        // the (u, v) entries where it plays the `v` role; sort to be safe.
        for v in 0..num_nodes {
            neighbors[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        Self {
            offsets,
            neighbors,
            edges,
        }
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Sorted neighbour list of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.neighbors[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// All degrees as a vector (index = node id).
    pub fn degrees(&self) -> Vec<usize> {
        (0..self.num_nodes())
            .map(|v| self.degree(v as NodeId))
            .collect()
    }

    /// Membership test via binary search on the sorted neighbour list.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        // Search from the lower-degree endpoint.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Canonical edge list (`u < v`, lexicographically sorted).
    #[inline]
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// Uniformly random node id.
    pub fn random_node<R: Rng + ?Sized>(&self, rng: &mut R) -> NodeId {
        assert!(self.num_nodes() > 0, "random_node on empty graph");
        rng.gen_range(0..self.num_nodes() as NodeId)
    }

    /// Uniformly random node that is neither `v` nor one of its
    /// neighbours — the negative-sampling primitive of Algorithm 1
    /// (rejection loop, identical to the paper's `while True` block).
    ///
    /// Returns `None` if `v` is adjacent to every other node (no valid
    /// negative exists), rather than looping forever.
    pub fn random_non_neighbor<R: Rng + ?Sized>(&self, v: NodeId, rng: &mut R) -> Option<NodeId> {
        let n = self.num_nodes();
        if self.degree(v) + 1 >= n {
            return None;
        }
        loop {
            let c = rng.gen_range(0..n as NodeId);
            if c != v && !self.has_edge(v, c) {
                return Some(c);
            }
        }
    }

    /// Returns the subgraph induced by keeping exactly `keep` edges
    /// (same node set), used by the link-prediction train/test split.
    pub fn with_edges(&self, keep: &[(NodeId, NodeId)]) -> Graph {
        Graph::from_edges(self.num_nodes(), keep.iter().copied())
    }

    /// Average degree `2|E| / |V|`.
    pub fn avg_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            2.0 * self.num_edges() as f64 / self.num_nodes() as f64
        }
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes())
            .map(|v| self.degree(v as NodeId))
            .max()
            .unwrap_or(0)
    }

    /// Heap bytes held by the adjacency arrays — what a byte-accounting
    /// tracker entry for a resident graph should account.
    pub fn heap_bytes(&self) -> u64 {
        (self.offsets.capacity() * std::mem::size_of::<usize>()
            + self.neighbors.capacity() * std::mem::size_of::<NodeId>()
            + self.edges.capacity() * std::mem::size_of::<(NodeId, NodeId)>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn path4() -> Graph {
        // 0 - 1 - 2 - 3
        Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn builder_dedups_and_drops_self_loops() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 0); // duplicate in reverse orientation
        b.add_edge(2, 2); // self-loop, dropped
        b.add_edge(0, 1); // exact duplicate
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edges(), &[(0, 1)]);
    }

    #[test]
    fn adjacency_is_symmetric_and_sorted() {
        let g = Graph::from_edges(5, [(3, 1), (4, 0), (1, 0), (2, 4)]);
        for v in 0..5u32 {
            let nb = g.neighbors(v);
            assert!(nb.windows(2).all(|w| w[0] < w[1]), "unsorted list for {v}");
            for &u in nb {
                assert!(g.neighbors(u).contains(&v), "asymmetry {v}<->{u}");
            }
        }
    }

    #[test]
    fn degrees_and_counts() {
        let g = path4();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degrees(), vec![1, 2, 2, 1]);
        assert!((g.avg_degree() - 1.5).abs() < 1e-12);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn has_edge_both_orientations() {
        let g = path4();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn random_non_neighbor_is_valid() {
        let g = path4();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let c = g.random_non_neighbor(1, &mut rng).unwrap();
            assert_ne!(c, 1);
            assert!(!g.has_edge(1, c));
        }
    }

    #[test]
    fn random_non_neighbor_none_when_saturated() {
        // Complete graph on 3 nodes: node 0 neighbours everyone.
        let g = Graph::from_edges(3, [(0, 1), (0, 2), (1, 2)]);
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(g.random_non_neighbor(0, &mut rng), None);
    }

    #[test]
    fn with_edges_keeps_node_set() {
        let g = path4();
        let sub = g.with_edges(&[(0, 1)]);
        assert_eq!(sub.num_nodes(), 4);
        assert_eq!(sub.num_edges(), 1);
        assert_eq!(sub.degree(3), 0);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = Graph::from_edges(0, std::iter::empty());
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn builder_rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 5);
    }
}
