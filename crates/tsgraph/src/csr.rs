//! Compressed-sparse-row graph storage — the workspace's *query-time*
//! graph representation.
//!
//! A [`CsrGraph`] is an immutable directed graph whose out-adjacency lives
//! in flat arrays (`offsets`, `targets`, weights, plus each edge's source),
//! the layout popularised by high-performance graph frameworks (and the
//! neo4j-labs `graph_builder` lineage). Every reader in the workspace
//! follows outgoing edges only, so there is no in-edge index:
//!
//! * O(1) out-degree (offset subtraction),
//! * neighbour access as a contiguous `&[NodeId]` **slice** — traversal is
//!   cache-linear instead of chasing per-node `Vec<EdgeId>` allocations,
//! * neighbours sorted by id within each node's slice, so iteration order
//!   is deterministic and `edge_id(u, v)` is a binary search over the
//!   out-slice (O(log deg)),
//! * edge ids are positions in the out-adjacency, so per-edge payloads of
//!   one node are a contiguous `&[E]` slice too ([`CsrGraph::out_weights`]).
//!
//! Parallel edges do not exist at this layer: construction (via
//! [`GraphBuilder`](crate::GraphBuilder)) aggregates duplicate `(src, dst)` pairs with a
//! caller-supplied merge.

/// Opaque node identifier (index into the node arrays).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Opaque edge identifier (position in the out-adjacency).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Immutable CSR-backed directed graph with node payloads `N` and edge
/// payloads `E`. Build one with [`GraphBuilder`](crate::GraphBuilder).
#[derive(Debug, Clone)]
pub struct CsrGraph<N, E> {
    pub(crate) nodes: Vec<N>,
    /// `out_offsets[u]..out_offsets[u+1]` indexes `u`'s out-slice; length
    /// `n + 1`. Edge ids are exactly these positions.
    pub(crate) out_offsets: Vec<u32>,
    /// Targets of all edges, grouped by source, sorted within each group.
    pub(crate) out_targets: Vec<NodeId>,
    /// Edge payloads, aligned with `out_targets` (edge-id order).
    pub(crate) edge_weights: Vec<E>,
    /// Source of each edge, aligned with `out_targets` (edge-id order).
    pub(crate) edge_sources: Vec<NodeId>,
}

impl<N, E> CsrGraph<N, E> {
    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of (deduplicated) edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.out_targets.len()
    }

    /// Node payload by id.
    #[inline]
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.index()]
    }

    /// Edge payload by id.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> &E {
        &self.edge_weights[id.index()]
    }

    /// Endpoints `(source, target)` of an edge.
    #[inline]
    pub fn endpoints(&self, id: EdgeId) -> (NodeId, NodeId) {
        (self.edge_sources[id.index()], self.out_targets[id.index()])
    }

    /// Out-neighbours of `u` as a sorted contiguous slice.
    #[inline]
    pub fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.out_targets[self.out_range(u)]
    }

    /// Payloads of `u`'s outgoing edges, aligned with
    /// [`out_neighbors`](Self::out_neighbors).
    #[inline]
    pub fn out_weights(&self, u: NodeId) -> &[E] {
        &self.edge_weights[self.out_range(u)]
    }

    /// The contiguous edge-id range of `u`'s outgoing edges.
    #[inline]
    pub fn out_range(&self, u: NodeId) -> std::ops::Range<usize> {
        self.out_offsets[u.index()] as usize..self.out_offsets[u.index() + 1] as usize
    }

    /// Out-degree, O(1).
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        (self.out_offsets[u.index() + 1] - self.out_offsets[u.index()]) as usize
    }

    /// Edge id of `u → v`, if present — binary search over `u`'s sorted
    /// out-slice, O(log deg).
    #[inline]
    pub fn edge_id(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let range = self.out_range(u);
        let slice = &self.out_targets[range.clone()];
        slice
            .binary_search(&v)
            .ok()
            .map(|pos| EdgeId((range.start + pos) as u32))
    }

    /// Payload of `u → v`, if present.
    #[inline]
    pub fn weight_between(&self, u: NodeId, v: NodeId) -> Option<&E> {
        self.edge_id(u, v).map(|e| &self.edge_weights[e.index()])
    }

    /// Ids of all nodes.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterator over `(id, payload)` for all nodes.
    pub fn nodes_iter(&self) -> impl Iterator<Item = (NodeId, &N)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Iterator over `(id, source, target, payload)` for all edges, in
    /// edge-id order (grouped by source, targets ascending).
    pub fn edges_iter(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId, &E)> {
        self.edge_weights.iter().enumerate().map(move |(i, w)| {
            (
                EdgeId(i as u32),
                self.edge_sources[i],
                self.out_targets[i],
                w,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// a → b → d, a → c → d with distinct weights, plus a duplicate a → b
    /// to exercise aggregation.
    fn diamond_csr() -> CsrGraph<&'static str, f64> {
        let (a, b, c, d) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
        let mut g = GraphBuilder::new();
        g.add_edge(a, b, 1.0);
        g.add_edge(a, c, 2.0);
        g.add_edge(b, d, 3.0);
        g.add_edge(c, d, 4.0);
        g.add_edge(a, b, 10.0); // parallel: aggregates to 11.0
        g.build(vec!["a", "b", "c", "d"], |acc, w| *acc += w)
    }

    #[test]
    fn counts_and_payloads() {
        let g = diamond_csr();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4, "parallel edge aggregated");
        assert_eq!(*g.node(NodeId(0)), "a");
        let e = g.edge_id(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(*g.edge(e), 11.0);
        assert_eq!(g.endpoints(e), (NodeId(0), NodeId(1)));
    }

    #[test]
    fn out_degrees_o1() {
        let g = diamond_csr();
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.out_degree(NodeId(1)), 1);
        assert_eq!(g.out_degree(NodeId(3)), 0);
    }

    #[test]
    fn neighbor_slices_sorted() {
        let g = diamond_csr();
        assert_eq!(g.out_neighbors(NodeId(0)), &[NodeId(1), NodeId(2)]);
        assert_eq!(g.out_weights(NodeId(0)), &[11.0, 2.0]);
        assert!(g.out_neighbors(NodeId(3)).is_empty());
    }

    #[test]
    fn edge_lookup() {
        let g = diamond_csr();
        assert_eq!(g.weight_between(NodeId(0), NodeId(2)), Some(&2.0));
        assert_eq!(g.weight_between(NodeId(2), NodeId(0)), None);
        assert!(g.edge_id(NodeId(1), NodeId(3)).is_some());
        assert!(g.edge_id(NodeId(0), NodeId(3)).is_none());
    }

    #[test]
    fn edge_id_order_groups_by_source() {
        let g = diamond_csr();
        let triples: Vec<(u32, u32)> = g.edges_iter().map(|(_, s, t, _)| (s.0, t.0)).collect();
        let mut sorted = triples.clone();
        sorted.sort_unstable();
        assert_eq!(triples, sorted, "edge ids are (src, dst)-sorted");
        // Per-node edge-id ranges are contiguous.
        assert_eq!(g.out_range(NodeId(0)), 0..2);
        assert_eq!(g.out_range(NodeId(1)), 2..3);
    }

    #[test]
    fn self_loops_preserved() {
        let a = NodeId(0);
        let mut g = GraphBuilder::new();
        g.add_edge(a, a, 2.0);
        let csr = g.build(vec![()], |acc, w| *acc += w);
        assert_eq!(csr.edge_count(), 1);
        assert_eq!(csr.out_degree(a), 1);
        assert_eq!(csr.weight_between(a, a), Some(&2.0));
    }
}
