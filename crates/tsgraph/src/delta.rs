//! Incremental CSR maintenance: a sorted, run-length-deduped edge delta
//! alongside a frozen base [`CsrGraph`].
//!
//! The serving story (`graphserve`) publishes models as immutable `Arc`
//! snapshots — mutating a CSR in place would put a lock on the read path.
//! Instead, newly observed transitions accumulate in a [`DeltaGraph`]: a
//! compact (offsets, targets, weights) mini-CSR holding *only* the new
//! edges, re-sorted and re-aggregated on every [`DeltaGraph::ingest`].
//! Reads that must see fresh data go through a [`DeltaView`], which merges
//! the base's sorted adjacency with the delta's sorted adjacency on the fly
//! — a 2-way merge per node, no locks, no base mutation. Periodically the
//! delta is [compacted](DeltaView::compact) into a fresh base CSR via the
//! same assembly pass the batch builder uses, so the compacted graph is
//! bit-identical to a from-scratch build of the full stream (for exact
//! weight aggregation such as integer-valued `f64` counts), and the result
//! is published as a new `Arc` snapshot while readers of the old one are
//! untouched.

use crate::builder::{assemble_csr, pack_key};
use crate::csr::{CsrGraph, NodeId};

/// A sorted, deduplicated buffer of edges observed *after* a base CSR was
/// built. Node ids refer to the base's node set.
///
/// ```
/// use tsgraph::builder::GraphBuilder;
/// use tsgraph::delta::{DeltaGraph, DeltaView};
/// use tsgraph::NodeId;
///
/// let mut b = GraphBuilder::new();
/// b.add_edge(NodeId(0), NodeId(1), 2.0);
/// let base = b.build(vec![(), ()], |acc, w| *acc += w);
///
/// let mut delta = DeltaGraph::new(base.node_count());
/// delta.ingest([(NodeId(0), NodeId(1), 1.0), (NodeId(1), NodeId(0), 1.0)], |a, w| *a += w);
///
/// let view = DeltaView::new(&base, &delta);
/// assert_eq!(view.weight_between(NodeId(0), NodeId(1), |a, w| *a += w), Some(3.0));
/// assert_eq!(view.weight_between(NodeId(1), NodeId(0), |a, w| *a += w), Some(1.0));
/// ```
#[derive(Debug, Clone)]
pub struct DeltaGraph<E> {
    /// Per-node offsets into `targets`/`weights`, length `n + 1`.
    offsets: Vec<u32>,
    /// Delta edge targets, sorted within each node's slice.
    targets: Vec<NodeId>,
    /// Aggregated delta edge weights, parallel to `targets`.
    weights: Vec<E>,
    /// Node count of the base graph this delta extends.
    n: usize,
    /// Raw (pre-aggregation) triples ingested over the delta's lifetime.
    raw: u64,
}

impl<E> DeltaGraph<E> {
    /// Empty delta over a base graph of `node_count` nodes.
    pub fn new(node_count: usize) -> Self {
        DeltaGraph {
            offsets: vec![0; node_count + 1],
            targets: Vec::new(),
            weights: Vec::new(),
            n: node_count,
            raw: 0,
        }
    }

    /// Node count of the base graph this delta extends.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Distinct `(src, dst)` pairs currently buffered.
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Whether the delta holds no edges.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Raw triples ingested since construction (before deduplication).
    pub fn raw_len(&self) -> u64 {
        self.raw
    }

    /// The delta's own weight for `(src, dst)` (ignores the base).
    pub fn weight_between(&self, src: NodeId, dst: NodeId) -> Option<&E> {
        let (lo, hi) = self.out_range(src)?;
        let slice = &self.targets[lo..hi];
        let pos = slice.binary_search(&dst).ok()?;
        Some(&self.weights[lo + pos])
    }

    /// The delta's out-slice of `src`: sorted `(target, weight)` pairs.
    pub fn out_slice(&self, src: NodeId) -> (&[NodeId], &[E]) {
        match self.out_range(src) {
            Some((lo, hi)) => (&self.targets[lo..hi], &self.weights[lo..hi]),
            None => (&[], &[]),
        }
    }

    /// All delta edges in `(src, dst)` order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId, &E)> + '_ {
        (0..self.n).flat_map(move |u| {
            let lo = self.offsets[u] as usize;
            let hi = self.offsets[u + 1] as usize;
            (lo..hi).map(move |i| (NodeId(u as u32), self.targets[i], &self.weights[i]))
        })
    }

    fn out_range(&self, src: NodeId) -> Option<(usize, usize)> {
        if src.index() >= self.n {
            return None;
        }
        Some((
            self.offsets[src.index()] as usize,
            self.offsets[src.index() + 1] as usize,
        ))
    }

    /// Absorbs new `(src, dst, weight)` triples: the batch is sorted,
    /// run-length aggregated with `merge`, then 2-way merged into the
    /// existing delta. Panics if an endpoint is out of range.
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
        self.raw += batch.len() as u64;
        batch.sort_unstable_by_key(|(k, _)| *k);

        // Rebuild the three arrays as a 2-way merge of the existing sorted
        // delta and the sorted batch; duplicates fold with `merge`.
        let old_targets = std::mem::take(&mut self.targets);
        let old_weights = std::mem::take(&mut self.weights);
        let old_offsets = std::mem::replace(&mut self.offsets, vec![0; self.n + 1]);
        let mut merged: Vec<(u64, E)> = Vec::with_capacity(old_targets.len() + batch.len());
        {
            let mut old_iter = {
                let mut keys = Vec::with_capacity(old_targets.len());
                for u in 0..self.n {
                    let span = old_offsets[u] as usize..old_offsets[u + 1] as usize;
                    for &t in &old_targets[span] {
                        keys.push(pack_key(NodeId(u as u32), t));
                    }
                }
                keys.into_iter().zip(old_weights).peekable()
            };
            let mut new_iter = batch.into_iter().peekable();
            loop {
                let take_old = match (old_iter.peek(), new_iter.peek()) {
                    (Some((ko, _)), Some((kn, _))) => ko <= kn,
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (None, None) => break,
                };
                let (k, w) = if take_old {
                    old_iter.next().expect("peeked")
                } else {
                    new_iter.next().expect("peeked")
                };
                match merged.last_mut() {
                    Some((lk, lw)) if *lk == k => merge(lw, w),
                    _ => merged.push((k, w)),
                }
            }
        }

        let mut offsets = vec![0u32; self.n + 1];
        let mut targets = Vec::with_capacity(merged.len());
        let mut weights = Vec::with_capacity(merged.len());
        for (k, w) in merged {
            let src = (k >> 32) as usize;
            offsets[src + 1] += 1;
            targets.push(NodeId((k & 0xffff_ffff) as u32));
            weights.push(w);
        }
        for i in 1..=self.n {
            offsets[i] += offsets[i - 1];
        }
        self.offsets = offsets;
        self.targets = targets;
        self.weights = weights;
    }
}

/// A read view merging a frozen base CSR with a [`DeltaGraph`] on the fly.
/// Borrowed, allocation-free, and lock-free: both sides are immutable for
/// the view's lifetime.
pub struct DeltaView<'a, N, E> {
    base: &'a CsrGraph<N, E>,
    delta: &'a DeltaGraph<E>,
}

impl<'a, N, E: Clone> DeltaView<'a, N, E> {
    /// View over `base` + `delta`. Panics if node counts disagree.
    pub fn new(base: &'a CsrGraph<N, E>, delta: &'a DeltaGraph<E>) -> Self {
        assert_eq!(
            base.node_count(),
            delta.node_count(),
            "delta must cover the base's node set"
        );
        DeltaView { base, delta }
    }

    /// The base graph.
    pub fn base(&self) -> &'a CsrGraph<N, E> {
        self.base
    }

    /// The delta.
    pub fn delta(&self) -> &'a DeltaGraph<E> {
        self.delta
    }

    /// Merged weight of `(src, dst)`: base and delta contributions folded
    /// with `merge`, or `None` if neither side has the edge.
    pub fn weight_between(&self, src: NodeId, dst: NodeId, merge: impl Fn(&mut E, E)) -> Option<E> {
        let base = self.base.weight_between(src, dst).cloned();
        let delta = self.delta.weight_between(src, dst).cloned();
        match (base, delta) {
            (Some(mut b), Some(d)) => {
                merge(&mut b, d);
                Some(b)
            }
            (Some(b), None) => Some(b),
            (None, Some(d)) => Some(d),
            (None, None) => None,
        }
    }

    /// Visits `src`'s merged out-adjacency in target order: a 2-way merge
    /// of the base's and the delta's sorted out-slices, folding shared
    /// targets with `merge`. Allocation-free.
    pub fn for_each_out(
        &self,
        src: NodeId,
        merge: impl Fn(&mut E, E),
        mut f: impl FnMut(NodeId, E),
    ) {
        let (bt, bw) = (self.base.out_neighbors(src), self.base.out_weights(src));
        let (dt, dw) = self.delta.out_slice(src);
        let (mut i, mut j) = (0usize, 0usize);
        while i < bt.len() || j < dt.len() {
            if j >= dt.len() || (i < bt.len() && bt[i] < dt[j]) {
                f(bt[i], bw[i].clone());
                i += 1;
            } else if i >= bt.len() || dt[j] < bt[i] {
                f(dt[j], dw[j].clone());
                j += 1;
            } else {
                let mut w = bw[i].clone();
                merge(&mut w, dw[j].clone());
                f(bt[i], w);
                i += 1;
                j += 1;
            }
        }
    }

    /// Merged out-degree of `src` (distinct targets across base + delta).
    pub fn out_degree(&self, src: NodeId) -> usize {
        let bt = self.base.out_neighbors(src);
        let (dt, _) = self.delta.out_slice(src);
        let mut shared = 0usize;
        let (mut i, mut j) = (0usize, 0usize);
        while i < bt.len() && j < dt.len() {
            match bt[i].cmp(&dt[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    shared += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        bt.len() + dt.len() - shared
    }

    /// Compacts base + delta into a fresh, fully indexed CSR via the same
    /// assembly pass the batch builder uses. The result is bit-identical to
    /// a from-scratch build over the full edge stream whenever `merge` is
    /// exact (integer-valued counts).
    pub fn compact(&self, merge: impl Fn(&mut E, E)) -> CsrGraph<N, E>
    where
        N: Clone,
    {
        let base = self.base;
        let mut base_iter = base
            .edges_iter()
            .map(|(_, s, t, w)| (pack_key(s, t), w.clone()))
            .peekable();
        let mut delta_iter = self
            .delta
            .iter()
            .map(|(s, t, w)| (pack_key(s, t), w.clone()))
            .peekable();
        let stream = std::iter::from_fn(move || {
            let take_base = match (base_iter.peek(), delta_iter.peek()) {
                (Some((kb, _)), Some((kd, _))) => kb <= kd,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => return None,
            };
            if take_base {
                base_iter.next()
            } else {
                delta_iter.next()
            }
        });
        assemble_csr(base.nodes.clone(), stream, merge)
    }
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
    fn merged_reads_see_base_plus_delta() {
        let base = build(4, &[(0, 1), (0, 1), (1, 2)]);
        let mut delta = DeltaGraph::new(4);
        delta.ingest(
            [
                (NodeId(0), NodeId(1), 1.0),
                (NodeId(2), NodeId(3), 1.0),
                (NodeId(2), NodeId(3), 1.0),
            ],
            sum,
        );
        let view = DeltaView::new(&base, &delta);
        assert_eq!(view.weight_between(NodeId(0), NodeId(1), sum), Some(3.0));
        assert_eq!(view.weight_between(NodeId(1), NodeId(2), sum), Some(1.0));
        assert_eq!(view.weight_between(NodeId(2), NodeId(3), sum), Some(2.0));
        assert_eq!(view.weight_between(NodeId(3), NodeId(0), sum), None);
        assert_eq!(view.out_degree(NodeId(0)), 1);
        assert_eq!(view.out_degree(NodeId(2)), 1);
    }

    #[test]
    fn for_each_out_merges_in_target_order() {
        let base = build(5, &[(0, 1), (0, 3)]);
        let mut delta = DeltaGraph::new(5);
        delta.ingest(
            [
                (NodeId(0), NodeId(0), 1.0),
                (NodeId(0), NodeId(3), 1.0),
                (NodeId(0), NodeId(4), 1.0),
            ],
            sum,
        );
        let view = DeltaView::new(&base, &delta);
        let mut seen = Vec::new();
        view.for_each_out(NodeId(0), sum, |t, w| seen.push((t.0, w)));
        assert_eq!(
            seen,
            vec![(0, 1.0), (1, 1.0), (3, 2.0), (4, 1.0)],
            "sorted, shared target folded"
        );
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
        assert_eq!(delta.raw_len(), 1000);
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
            let compacted = DeltaView::new(&base, &delta).compact(sum);
            let full = build(40, &edges);
            assert_eq!(compacted.edge_count(), full.edge_count(), "split {split}");
            for (e, s_, t, w) in full.edges_iter() {
                assert_eq!(compacted.endpoints(e), (s_, t));
                assert_eq!(compacted.edge(e).to_bits(), w.to_bits(), "split {split}");
            }
            for u in full.node_ids() {
                assert_eq!(compacted.in_neighbors(u), full.in_neighbors(u));
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
