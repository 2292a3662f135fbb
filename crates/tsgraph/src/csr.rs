//! Compressed-sparse-row graph storage — the workspace's *query-time*
//! graph representation.
//!
//! A [`CsrGraph`] is an immutable directed graph whose adjacency lives in
//! three flat arrays per direction (`offsets`, `targets`/`sources`,
//! weights), the layout popularised by high-performance graph frameworks
//! (and the neo4j-labs `graph_builder` lineage):
//!
//! * O(1) in/out degree (offset subtraction),
//! * neighbour access as a contiguous `&[NodeId]` **slice** — traversal is
//!   cache-linear instead of chasing per-node `Vec<EdgeId>` allocations,
//! * neighbours sorted by id within each node's slice, so iteration order
//!   is deterministic and `edge_id(u, v)` is a binary search over the
//!   out-slice (O(log deg)),
//! * edge ids are positions in the out-adjacency, so per-edge payloads of
//!   one node are a contiguous `&[E]` slice too ([`CsrGraph::out_weights`]).
//!
//! Parallel edges do not exist at this layer: construction (via
//! [`GraphBuilder`]) aggregates duplicate `(src, dst)` pairs with a
//! caller-supplied merge.

use crate::builder::GraphBuilder;

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
/// payloads `E`. Build one with [`GraphBuilder`].
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
    /// In-adjacency: `in_offsets[v]..in_offsets[v+1]` indexes `v`'s
    /// in-slice; length `n + 1`.
    pub(crate) in_offsets: Vec<u32>,
    /// Sources of incoming edges, grouped by target, sorted within groups.
    pub(crate) in_sources: Vec<NodeId>,
    /// Edge id of each in-adjacency entry (position into the out arrays).
    pub(crate) in_edge_ids: Vec<EdgeId>,
}

impl<N, E> CsrGraph<N, E> {
    /// Graph with `nodes` payloads and no edges.
    pub fn vertices_only(nodes: Vec<N>) -> Self {
        let n = nodes.len();
        CsrGraph {
            nodes,
            out_offsets: vec![0; n + 1],
            out_targets: Vec::new(),
            edge_weights: Vec::new(),
            edge_sources: Vec::new(),
            in_offsets: vec![0; n + 1],
            in_sources: Vec::new(),
            in_edge_ids: Vec::new(),
        }
    }

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

    /// Mutable node payload by id (payloads stay mutable; topology does
    /// not).
    #[inline]
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        &mut self.nodes[id.index()]
    }

    /// Edge payload by id.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> &E {
        &self.edge_weights[id.index()]
    }

    /// Mutable edge payload by id.
    #[inline]
    pub fn edge_mut(&mut self, id: EdgeId) -> &mut E {
        &mut self.edge_weights[id.index()]
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

    /// In-neighbours of `v` as a sorted contiguous slice.
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        let lo = self.in_offsets[v.index()] as usize;
        let hi = self.in_offsets[v.index() + 1] as usize;
        &self.in_sources[lo..hi]
    }

    /// Edge ids of `v`'s incoming edges, aligned with
    /// [`in_neighbors`](Self::in_neighbors).
    #[inline]
    pub fn in_edge_ids(&self, v: NodeId) -> &[EdgeId] {
        let lo = self.in_offsets[v.index()] as usize;
        let hi = self.in_offsets[v.index() + 1] as usize;
        &self.in_edge_ids[lo..hi]
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

    /// In-degree, O(1).
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        (self.in_offsets[v.index() + 1] - self.in_offsets[v.index()]) as usize
    }

    /// Total degree (in + out), O(1).
    #[inline]
    pub fn degree(&self, id: NodeId) -> usize {
        self.in_degree(id) + self.out_degree(id)
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

    /// Whether the edge `u → v` exists.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_id(u, v).is_some()
    }

    /// Ids of all nodes.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Ids of all edges.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.out_targets.len() as u32).map(EdgeId)
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

    /// Successor nodes of `u` (each once; sorted).
    pub fn successors(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_neighbors(u).iter().copied()
    }

    /// Predecessor nodes of `v` (each once; sorted).
    pub fn predecessors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.in_neighbors(v).iter().copied()
    }

    /// Undirected neighbours (successors ∪ predecessors; a mutual pair
    /// appears in both halves).
    pub fn neighbors_undirected(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.successors(id).chain(self.predecessors(id))
    }
}

impl<N: Clone, E: Clone> CsrGraph<N, E> {
    /// Sub-graph induced by the nodes satisfying `keep`; returns the new
    /// graph plus the old-id → new-id mapping (`None` for dropped nodes).
    /// Edges survive iff both endpoints do.
    pub fn filter_nodes(
        &self,
        mut keep: impl FnMut(NodeId, &N) -> bool,
    ) -> (Self, Vec<Option<NodeId>>)
    where
        E: Send,
    {
        let mut mapping: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        let mut kept_nodes = Vec::new();
        for (id, payload) in self.nodes_iter() {
            if keep(id, payload) {
                mapping[id.index()] = Some(NodeId(kept_nodes.len() as u32));
                kept_nodes.push(payload.clone());
            }
        }
        let mut builder = GraphBuilder::new();
        for (_, s, t, w) in self.edges_iter() {
            if let (Some(ns), Some(nt)) = (mapping[s.index()], mapping[t.index()]) {
                builder.add_edge(ns, nt, w.clone());
            }
        }
        // Input edges are already unique per (src, dst); the merge closure
        // never fires.
        (builder.build(kept_nodes, |_, _| {}), mapping)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn degrees_o1() {
        let g = diamond_csr();
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.in_degree(NodeId(0)), 0);
        assert_eq!(g.in_degree(NodeId(3)), 2);
        assert_eq!(g.degree(NodeId(1)), 2);
    }

    #[test]
    fn neighbor_slices_sorted() {
        let g = diamond_csr();
        assert_eq!(g.out_neighbors(NodeId(0)), &[NodeId(1), NodeId(2)]);
        assert_eq!(g.in_neighbors(NodeId(3)), &[NodeId(1), NodeId(2)]);
        assert_eq!(g.out_weights(NodeId(0)), &[11.0, 2.0]);
        assert!(g.out_neighbors(NodeId(3)).is_empty());
    }

    #[test]
    fn edge_lookup() {
        let g = diamond_csr();
        assert_eq!(g.weight_between(NodeId(0), NodeId(2)), Some(&2.0));
        assert_eq!(g.weight_between(NodeId(2), NodeId(0)), None);
        assert!(g.has_edge(NodeId(1), NodeId(3)));
        assert!(!g.has_edge(NodeId(0), NodeId(3)));
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
    fn in_edge_ids_point_back() {
        let g = diamond_csr();
        for v in g.node_ids() {
            for (&s, &e) in g.in_neighbors(v).iter().zip(g.in_edge_ids(v)) {
                assert_eq!(g.endpoints(e), (s, v));
            }
        }
    }

    #[test]
    fn successors_predecessors_undirected() {
        let g = diamond_csr();
        assert_eq!(g.successors(NodeId(0)).count(), 2);
        assert_eq!(g.predecessors(NodeId(3)).count(), 2);
        let und: Vec<NodeId> = g.neighbors_undirected(NodeId(1)).collect();
        assert_eq!(und, vec![NodeId(3), NodeId(0)]);
    }

    #[test]
    fn payload_mutation() {
        let mut g = diamond_csr();
        *g.node_mut(NodeId(0)) = "alpha";
        assert_eq!(*g.node(NodeId(0)), "alpha");
        let e = g.edge_id(NodeId(1), NodeId(3)).unwrap();
        *g.edge_mut(e) += 1.0;
        assert_eq!(*g.edge(e), 4.0);
    }

    #[test]
    fn filter_nodes_keeps_induced_edges() {
        let g = diamond_csr();
        let (sub, mapping) = g.filter_nodes(|id, _| id != NodeId(1));
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 2); // a→c and c→d survive
        assert!(mapping[1].is_none());
        let new_a = mapping[0].unwrap();
        assert_eq!(*sub.node(new_a), "a");
        let new_c = mapping[2].unwrap();
        let new_d = mapping[3].unwrap();
        assert!(sub.has_edge(new_a, new_c));
        assert!(sub.has_edge(new_c, new_d));
    }

    #[test]
    fn vertices_only_and_empty() {
        let g: CsrGraph<u8, f64> = CsrGraph::vertices_only(vec![7, 8]);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.out_degree(NodeId(0)), 0);
        assert!(g.edge_id(NodeId(0), NodeId(1)).is_none());
        let empty: CsrGraph<u8, f64> = CsrGraph::vertices_only(Vec::new());
        assert_eq!(empty.node_count(), 0);
        assert_eq!(empty.node_ids().count(), 0);
    }

    #[test]
    fn self_loops_preserved() {
        let a = NodeId(0);
        let mut g = GraphBuilder::new();
        g.add_edge(a, a, 2.0);
        let csr = g.build(vec![()], |acc, w| *acc += w);
        assert_eq!(csr.edge_count(), 1);
        assert_eq!(csr.out_degree(a), 1);
        assert_eq!(csr.in_degree(a), 1);
        assert_eq!(csr.weight_between(a, a), Some(&2.0));
    }
}
