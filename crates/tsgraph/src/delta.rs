//! Incremental CSR maintenance: a key-sorted edge buffer next to a frozen
//! base [`CsrGraph`].
//!
//! The serving story (`graphserve`) publishes models as immutable `Arc`
//! snapshots — mutating a CSR in place would put a lock on the read path.
//! Instead, newly observed transitions accumulate in a [`DeltaGraph`]: one
//! key-sorted, deduplicated `(src, dst, weight)` buffer holding *only* the
//! new edges, merged with each batch on [`DeltaGraph::ingest`]. Nothing
//! reads the delta edge by edge: [`DeltaGraph::compact`] folds base and
//! delta into a fresh CSR via the same assembly pass the batch builder
//! uses, so the result is bit-identical to a from-scratch build of the full
//! stream (for exact weight aggregation such as integer-valued `f64`
//! counts). A caller that must score against fresh transitions compacts
//! into a temporary graph; one that publishes the result as a new `Arc`
//! snapshot leaves readers of the old one untouched.

use crate::builder::{assemble_csr, pack_key};
use crate::csr::{CsrGraph, NodeId};

/// A sorted, deduplicated buffer of edges observed *after* a base CSR was
/// built. Node ids refer to the base's node set.
///
/// ```
/// use tsgraph::builder::GraphBuilder;
/// use tsgraph::delta::DeltaGraph;
/// use tsgraph::NodeId;
///
/// let mut b = GraphBuilder::new();
/// b.add_edge(NodeId(0), NodeId(1), 2.0);
/// let base = b.build(vec![(), ()], |acc, w| *acc += w);
///
/// let mut delta = DeltaGraph::new(base.node_count());
/// delta.ingest([(NodeId(0), NodeId(1), 1.0), (NodeId(1), NodeId(0), 1.0)], |a, w| *a += w);
///
/// let merged = delta.compact(&base, |a, w| *a += w);
/// assert_eq!(merged.weight_between(NodeId(0), NodeId(1)), Some(&3.0));
/// assert_eq!(merged.weight_between(NodeId(1), NodeId(0)), Some(&1.0));
/// ```
#[derive(Debug, Clone)]
pub struct DeltaGraph<E> {
    /// `(src << 32 | dst, weight)`, strictly increasing by key.
    edges: Vec<(u64, E)>,
    /// Node count of the base graph this delta extends.
    n: usize,
}

impl<E> DeltaGraph<E> {
    /// Empty delta over a base graph of `node_count` nodes.
    pub fn new(node_count: usize) -> Self {
        DeltaGraph {
            edges: Vec::new(),
            n: node_count,
        }
    }

    /// Node count of the base graph this delta extends.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Distinct `(src, dst)` pairs currently buffered.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Whether the delta holds no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// All delta edges in `(src, dst)` order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId, &E)> + '_ {
        self.edges
            .iter()
            .map(|(k, w)| (NodeId((k >> 32) as u32), NodeId(*k as u32), w))
    }

    /// Absorbs new `(src, dst, weight)` triples: the batch is sorted, then
    /// merged into the buffer, folding equal keys with `merge` (existing
    /// entries before new ones). Panics if an endpoint is out of range.
    pub fn ingest(
        &mut self,
        triples: impl IntoIterator<Item = (NodeId, NodeId, E)>,
        merge: impl Fn(&mut E, E),
    ) {
        let mut batch: Vec<(u64, E)> = triples
            .into_iter()
            .map(|(s, t, w)| {
                assert!(
                    s.index() < self.n && t.index() < self.n,
                    "delta edge endpoint out of range: ({}, {}) vs n={}",
                    s.index(),
                    t.index(),
                    self.n
                );
                (pack_key(s, t), w)
            })
            .collect();
        if batch.is_empty() {
            return;
        }
        batch.sort_unstable_by_key(|(k, _)| *k);
        let old = std::mem::take(&mut self.edges);
        let mut edges: Vec<(u64, E)> = Vec::with_capacity(old.len() + batch.len());
        for (k, w) in merge_sorted(old.into_iter(), batch.into_iter()) {
            match edges.last_mut() {
                Some((lk, lw)) if *lk == k => merge(lw, w),
                _ => edges.push((k, w)),
            }
        }
        self.edges = edges;
    }

    /// Folds `base` and this delta into a fresh CSR via the same assembly
    /// pass the batch builder uses; shared edges fold base-then-delta with
    /// `merge`. The result is bit-identical to a from-scratch build over
    /// the full edge stream whenever `merge` is exact (integer-valued
    /// counts). Panics if node counts disagree.
    pub fn compact<N: Clone>(
        &self,
        base: &CsrGraph<N, E>,
        merge: impl Fn(&mut E, E),
    ) -> CsrGraph<N, E>
    where
        E: Clone,
    {
        assert_eq!(
            base.node_count(),
            self.n,
            "delta must cover the base's node set"
        );
        let base_edges = base
            .edges_iter()
            .map(|(_, s, t, w)| (pack_key(s, t), w.clone()));
        let delta_edges = self.edges.iter().cloned();
        assemble_csr(
            base.nodes.clone(),
            merge_sorted(base_edges, delta_edges),
            merge,
        )
    }
}

/// 2-way merge of two key-sorted streams; on equal keys `a`'s entry comes
/// first.
fn merge_sorted<E>(
    a: impl Iterator<Item = (u64, E)>,
    b: impl Iterator<Item = (u64, E)>,
) -> impl Iterator<Item = (u64, E)> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    std::iter::from_fn(move || match (a.peek(), b.peek()) {
        (Some((ka, _)), Some((kb, _))) if ka <= kb => a.next(),
        (Some(_), None) => a.next(),
        _ => b.next(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn sum(acc: &mut f64, w: f64) {
        *acc += w;
    }

    fn build(n: usize, edges: &[(u32, u32)]) -> CsrGraph<(), f64> {
        let mut b = GraphBuilder::new();
        for &(s, t) in edges {
            b.add_edge(NodeId(s), NodeId(t), 1.0);
        }
        b.build(vec![(); n], sum)
    }

    #[test]
    fn equal_keys_fold_base_then_existing_then_new() {
        // An order-sensitive merge: concatenation records the fold order.
        let cat = |acc: &mut Vec<u8>, w: Vec<u8>| acc.extend(w);
        let mut b = GraphBuilder::new();
        b.add_edge(NodeId(0), NodeId(1), vec![0]);
        let base = b.build(vec![(); 3], cat);
        let mut delta = DeltaGraph::new(3);
        delta.ingest([(NodeId(0), NodeId(1), vec![1])], cat);
        delta.ingest(
            [
                (NodeId(2), NodeId(0), vec![9]),
                (NodeId(0), NodeId(1), vec![2]),
            ],
            cat,
        );
        let edges: Vec<_> = delta
            .iter()
            .map(|(s, t, w)| (s.0, t.0, w.clone()))
            .collect();
        assert_eq!(edges, vec![(0, 1, vec![1, 2]), (2, 0, vec![9])]);
        let merged = delta.compact(&base, cat);
        assert_eq!(
            merged.weight_between(NodeId(0), NodeId(1)),
            Some(&vec![0, 1, 2])
        );
        assert_eq!(merged.weight_between(NodeId(2), NodeId(0)), Some(&vec![9]));
        assert_eq!(merged.edge_count(), 2);
    }

    #[test]
    fn repeated_ingest_stays_sorted_and_deduped() {
        let mut delta: DeltaGraph<f64> = DeltaGraph::new(6);
        let mut s = 11u64;
        for _ in 0..40 {
            let batch: Vec<_> = (0..25)
                .map(|_| {
                    s = s
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (
                        NodeId(((s >> 33) % 6) as u32),
                        NodeId(((s >> 13) % 6) as u32),
                        1.0,
                    )
                })
                .collect();
            delta.ingest(batch, sum);
        }
        let total: f64 = delta.iter().map(|(_, _, w)| *w).sum();
        assert_eq!(total as u64, 1000, "every triple accounted for");
        let keys: Vec<u64> = delta.iter().map(|(s, t, _)| pack_key(s, t)).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "sorted, deduplicated");
        assert!(delta.edge_count() <= 36);
    }

    #[test]
    fn compaction_is_bit_identical_to_full_rebuild() {
        // Split one edge stream at an arbitrary point: prefix → base,
        // suffix → delta; compaction must equal a build of the whole.
        let mut s = 3u64;
        let edges: Vec<(u32, u32)> = (0..5_000)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (((s >> 33) % 40) as u32, ((s >> 13) % 40) as u32)
            })
            .collect();
        for split in [0usize, 1, 2_499, 4_999, 5_000] {
            let base = build(40, &edges[..split]);
            let mut delta = DeltaGraph::new(40);
            delta.ingest(
                edges[split..]
                    .iter()
                    .map(|&(a, b)| (NodeId(a), NodeId(b), 1.0)),
                sum,
            );
            let compacted = delta.compact(&base, sum);
            let full = build(40, &edges);
            assert_eq!(compacted.edge_count(), full.edge_count(), "split {split}");
            for (e, s_, t, w) in full.edges_iter() {
                assert_eq!(compacted.endpoints(e), (s_, t));
                assert_eq!(compacted.edge(e).to_bits(), w.to_bits(), "split {split}");
            }
            for u in full.node_ids() {
                assert_eq!(compacted.out_range(u), full.out_range(u), "split {split}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_ingest_panics() {
        let mut delta: DeltaGraph<f64> = DeltaGraph::new(2);
        delta.ingest([(NodeId(0), NodeId(7), 1.0)], sum);
    }
}
