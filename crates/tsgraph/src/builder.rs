//! Deduplicating graph builder: `(src, dst, weight)` triples in, CSR out.
//!
//! The k-Graph pipeline emits one triple per observed node transition —
//! millions for long series. Instead of probing for an existing edge on
//! every triple (an O(E·deg) loop of pointer-chasing scans), the builder
//! uses the sort-based scheme of CSR graph frameworks:
//!
//! 1. collect raw triples (append-only, no lookups),
//! 2. sort them by `(src, dst)` — **parallel chunked sort**: the triple
//!    array is split into per-thread chunks, each chunk sorted on its own
//!    scoped thread, then the sorted runs are merged,
//! 3. one linear **run-length aggregation** pass combines duplicate
//!    `(src, dst)` pairs with the caller's merge function and writes the
//!    offset/target/weight arrays directly.
//!
//! The merge function must be commutative and associative (e.g. `+` on
//! counts); the sort is unstable and chunking varies with thread count, so
//! the *order* in which duplicates reach the merge is unspecified, while
//! the resulting graph is identical either way.

use crate::csr::{CsrGraph, EdgeId, NodeId};

/// Triples below this count are sorted on the calling thread; the scoped
/// thread fan-out only pays for itself on bulk loads.
const PARALLEL_SORT_THRESHOLD: usize = 1 << 15;

/// Packs `(src, dst)` into the sort key used throughout the builder and
/// delta layers: `src << 32 | dst`, so key order is exactly
/// `(src, dst)` lexicographic order.
#[inline]
pub(crate) fn pack_key(src: NodeId, dst: NodeId) -> u64 {
    ((src.0 as u64) << 32) | dst.0 as u64
}

/// Accumulates `(src, dst, weight)` triples and builds a [`CsrGraph`].
///
/// ```
/// use tsgraph::builder::GraphBuilder;
/// use tsgraph::NodeId;
///
/// let mut b = GraphBuilder::new();
/// b.add_edge(NodeId(0), NodeId(1), 1.0);
/// b.add_edge(NodeId(0), NodeId(1), 1.0); // duplicate: aggregated
/// b.add_edge(NodeId(1), NodeId(0), 1.0);
/// let g = b.build(vec![(), ()], |acc, w| *acc += w);
/// assert_eq!(g.edge_count(), 2);
/// assert_eq!(g.weight_between(NodeId(0), NodeId(1)), Some(&2.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder<E> {
    /// `(src << 32 | dst, weight)` — a single u64 key keeps the sort hot.
    triples: Vec<(u64, E)>,
}

#[inline]
fn key(src: NodeId, dst: NodeId) -> u64 {
    pack_key(src, dst)
}

impl<E> GraphBuilder<E> {
    /// Empty builder.
    pub fn new() -> Self {
        GraphBuilder {
            triples: Vec::new(),
        }
    }

    /// Empty builder with capacity for `edges` triples.
    pub fn with_capacity(edges: usize) -> Self {
        GraphBuilder {
            triples: Vec::with_capacity(edges),
        }
    }

    /// Records one `src → dst` observation. No deduplication happens here;
    /// duplicates are aggregated at [`build`](Self::build) time.
    #[inline]
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, weight: E) {
        self.triples.push((key(src, dst), weight));
    }

    /// Number of raw (pre-aggregation) triples recorded so far.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// Whether no triples were recorded.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }
}

impl<E: Send> GraphBuilder<E> {
    /// Builds the CSR graph over `node_count = nodes.len()` vertices,
    /// aggregating duplicate `(src, dst)` pairs with `merge` (called as
    /// `merge(&mut acc, next)`; must be commutative + associative).
    ///
    /// Panics if any endpoint is out of `0..nodes.len()`.
    pub fn build<N>(self, nodes: Vec<N>, merge: impl Fn(&mut E, E)) -> CsrGraph<N, E> {
        let n = nodes.len();
        let mut triples = self.triples;
        if let Some(&(max_key, _)) = triples.iter().max_by_key(|(k, _)| *k) {
            let max_src = (max_key >> 32) as usize;
            // dst of the max key is not necessarily the max dst; check all.
            let max_dst = triples
                .iter()
                .map(|(k, _)| (*k & 0xffff_ffff) as usize)
                .max()
                .unwrap();
            assert!(
                max_src < n && max_dst < n,
                "edge endpoint out of range: ({max_src} or {max_dst}) >= {n}"
            );
        }

        parallel_sort_by_key(&mut triples);
        assemble_csr(nodes, triples.into_iter(), merge)
    }
}

/// Run-length aggregation + CSR assembly in one pass over a *key-sorted*
/// `(key, weight)` stream. Duplicate keys must be adjacent (guaranteed by
/// sorting) and are combined with `merge`. Shared by [`GraphBuilder`] and
/// delta compaction ([`crate::delta`]), so both construction paths produce
/// bit-identical CSR layouts from the same logical edge set.
///
/// Panics if any endpoint is out of `0..nodes.len()`.
pub(crate) fn assemble_csr<N, E>(
    nodes: Vec<N>,
    sorted: impl Iterator<Item = (u64, E)>,
    merge: impl Fn(&mut E, E),
) -> CsrGraph<N, E> {
    let n = nodes.len();
    let mut out_offsets = vec![0u32; n + 1];
    let mut out_targets: Vec<NodeId> = Vec::new();
    let mut edge_weights: Vec<E> = Vec::new();
    let mut edge_sources: Vec<NodeId> = Vec::new();
    let mut iter = sorted;
    if let Some((first_key, first_w)) = iter.next() {
        let mut cur_key = first_key;
        let mut cur_w = first_w;
        for (k, w) in iter {
            debug_assert!(k >= cur_key, "assemble_csr input must be key-sorted");
            if k == cur_key {
                merge(&mut cur_w, w);
            } else {
                push_edge(
                    cur_key,
                    cur_w,
                    n,
                    &mut out_offsets,
                    &mut out_targets,
                    &mut edge_weights,
                    &mut edge_sources,
                );
                cur_key = k;
                cur_w = w;
            }
        }
        push_edge(
            cur_key,
            cur_w,
            n,
            &mut out_offsets,
            &mut out_targets,
            &mut edge_weights,
            &mut edge_sources,
        );
    }
    // out_offsets currently holds per-node counts (shifted by one);
    // prefix-sum into offsets.
    let mut acc = 0u32;
    for o in out_offsets.iter_mut() {
        acc += *o;
        *o = acc;
    }
    // Counts were accumulated at index u+1, so after the prefix sum
    // out_offsets[u]..out_offsets[u+1] is exactly u's edge range.

    // In-adjacency: counting sort over targets keeps each in-slice
    // sorted by source for free (edge ids are (src, dst)-sorted).
    let m = out_targets.len();
    let mut in_offsets = vec![0u32; n + 1];
    for t in &out_targets {
        in_offsets[t.index() + 1] += 1;
    }
    for i in 1..=n {
        in_offsets[i] += in_offsets[i - 1];
    }
    let mut cursor: Vec<u32> = in_offsets[..n].to_vec();
    let mut in_sources = vec![NodeId(0); m];
    let mut in_edge_ids = vec![EdgeId(0); m];
    for (e, &t) in out_targets.iter().enumerate() {
        let slot = cursor[t.index()] as usize;
        cursor[t.index()] += 1;
        in_sources[slot] = edge_sources[e];
        in_edge_ids[slot] = EdgeId(e as u32);
    }

    CsrGraph {
        nodes,
        out_offsets,
        out_targets,
        edge_weights,
        edge_sources,
        in_offsets,
        in_sources,
        in_edge_ids,
    }
}

#[inline]
fn push_edge<E>(
    key: u64,
    w: E,
    n: usize,
    out_offsets: &mut [u32],
    out_targets: &mut Vec<NodeId>,
    edge_weights: &mut Vec<E>,
    edge_sources: &mut Vec<NodeId>,
) {
    let src = (key >> 32) as u32;
    let dst = (key & 0xffff_ffff) as u32;
    assert!(
        (src as usize) < n && (dst as usize) < n,
        "edge endpoint out of range: ({src} or {dst}) >= {n}"
    );
    // Count at src+1 so the later in-place prefix sum lands offsets[u]
    // at the start of u's range.
    out_offsets[src as usize + 1] += 1;
    out_targets.push(NodeId(dst));
    edge_weights.push(w);
    edge_sources.push(NodeId(src));
}

/// A key-sorted run of triples awaiting merge.
type Run<E> = Vec<(u64, E)>;

/// Unstable sort by the u64 key; large inputs are split into owned runs
/// sorted on scoped threads, then the runs are merged pairwise (also in
/// parallel) until one remains.
fn parallel_sort_by_key<E: Send>(triples: &mut Vec<(u64, E)>) {
    let len = triples.len();
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    if len < PARALLEL_SORT_THRESHOLD || threads < 2 {
        triples.sort_unstable_by_key(|(k, _)| *k);
        return;
    }
    let n_chunks = threads.min(8).min(len);
    let chunk_len = len.div_ceil(n_chunks);

    // Split into owned runs so merged rounds can move elements freely.
    let mut rest = std::mem::take(triples);
    let mut runs: Vec<Run<E>> = Vec::with_capacity(n_chunks);
    while rest.len() > chunk_len {
        let tail = rest.split_off(chunk_len);
        runs.push(rest);
        rest = tail;
    }
    runs.push(rest);

    std::thread::scope(|scope| {
        for run in runs.iter_mut() {
            scope.spawn(move || run.sort_unstable_by_key(|(k, _)| *k));
        }
    });

    while runs.len() > 1 {
        let mut pairs: Vec<(Run<E>, Run<E>)> = Vec::with_capacity(runs.len().div_ceil(2));
        let mut it = runs.into_iter();
        while let Some(a) = it.next() {
            pairs.push((a, it.next().unwrap_or_default()));
        }
        runs = std::thread::scope(|scope| {
            let handles: Vec<_> = pairs
                .into_iter()
                .map(|(a, b)| scope.spawn(move || merge_two(a, b)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("merge thread"))
                .collect()
        });
    }
    *triples = runs.pop().unwrap_or_default();
}

/// Two-pointer merge of two key-sorted runs.
fn merge_two<E>(a: Vec<(u64, E)>, b: Vec<(u64, E)>) -> Vec<(u64, E)> {
    if a.is_empty() {
        return b;
    }
    if b.is_empty() {
        return a;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut ia = a.into_iter().peekable();
    let mut ib = b.into_iter().peekable();
    loop {
        let take_a = match (ia.peek(), ib.peek()) {
            (Some(x), Some(y)) => x.0 <= y.0,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        let next = if take_a { ia.next() } else { ib.next() };
        out.push(next.expect("peeked element present"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_duplicates_deterministically() {
        let mut b = GraphBuilder::new();
        for _ in 0..5 {
            b.add_edge(NodeId(2), NodeId(1), 1.0f64);
        }
        b.add_edge(NodeId(0), NodeId(2), 1.0);
        let g = b.build(vec![(); 3], |acc, w| *acc += w);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.weight_between(NodeId(2), NodeId(1)), Some(&5.0));
        assert_eq!(g.weight_between(NodeId(0), NodeId(2)), Some(&1.0));
    }

    #[test]
    fn insertion_order_irrelevant() {
        let edges = [(0u32, 1u32), (3, 2), (1, 1), (0, 1), (2, 3), (3, 2), (0, 3)];
        let mut fwd = GraphBuilder::new();
        for &(s, t) in &edges {
            fwd.add_edge(NodeId(s), NodeId(t), 1.0f64);
        }
        let mut rev = GraphBuilder::new();
        for &(s, t) in edges.iter().rev() {
            rev.add_edge(NodeId(s), NodeId(t), 1.0f64);
        }
        let a = fwd.build(vec![(); 4], |acc, w| *acc += w);
        let b = rev.build(vec![(); 4], |acc, w| *acc += w);
        assert_eq!(a.edge_count(), b.edge_count());
        for (e, s, t, w) in a.edges_iter() {
            assert_eq!(b.endpoints(e), (s, t));
            assert_eq!(b.edge(e), w);
        }
    }

    #[test]
    fn empty_builder_builds_vertices_only() {
        let b: GraphBuilder<f64> = GraphBuilder::new();
        assert!(b.is_empty());
        let g = b.build(vec![(); 4], |acc, w| *acc += w);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn large_input_takes_parallel_path() {
        // Above PARALLEL_SORT_THRESHOLD triples over a small node set →
        // heavy duplication; totals must be exact.
        let n = 64u32;
        let total = super::PARALLEL_SORT_THRESHOLD + 12_345;
        let mut b = GraphBuilder::with_capacity(total);
        let mut s = 1u64;
        for _ in 0..total {
            // LCG-ish stream, deterministic.
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let src = ((s >> 33) % n as u64) as u32;
            let dst = ((s >> 13) % n as u64) as u32;
            b.add_edge(NodeId(src), NodeId(dst), 1.0f64);
        }
        assert_eq!(b.len(), total);
        let g = b.build(vec![(); n as usize], |acc, w| *acc += w);
        let sum: f64 = g.edges_iter().map(|(_, _, _, &w)| w).sum();
        assert_eq!(sum as usize, total, "every triple accounted for");
        // Sorted adjacency.
        for u in g.node_ids() {
            let nb = g.out_neighbors(u);
            assert!(nb.windows(2).all(|w| w[0] < w[1]), "sorted, deduplicated");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_endpoint_panics() {
        let mut b = GraphBuilder::new();
        b.add_edge(NodeId(0), NodeId(9), 1.0f64);
        let _ = b.build(vec![(); 2], |acc, w| *acc += w);
    }
}
