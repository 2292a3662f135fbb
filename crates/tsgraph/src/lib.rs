//! # tsgraph — directed weighted graphs for k-Graph
//!
//! Graph substrate of the Graphint / k-Graph reproduction. It covers
//! exactly what the pipeline and the Graph frame run: build one
//! transition graph per subsequence length, query it for graphoid
//! statistics, rank nodes, lay the graph out and maintain it as new
//! transitions stream in.
//!
//! ## Architecture: `GraphBuilder` builds, `CsrGraph` queries, `DeltaGraph` buffers
//!
//! * [`CsrGraph`] (module [`csr`]) — the **query-time** representation
//!   every consumer reads from. Compressed sparse row over outgoing edges
//!   only (no consumer follows an edge backwards): offset/target/weight
//!   arrays, O(1) out-degree, successors and per-node edge payloads as
//!   contiguous sorted slices, O(log deg) edge lookup
//!   ([`CsrGraph::edge_id`]) and deterministic iteration order. The
//!   k-Graph pipeline stores every `G_ℓ` in this form; features, graphoid
//!   statistics (node and edge id sets over the one graph), anomaly
//!   scoring, PageRank and the Graphint Graph frame all run against it.
//! * [`builder::GraphBuilder`] — the **construction** path. Consumers emit
//!   raw `(src, dst, weight)` triples (one per observed transition, no
//!   lookups), and `build` produces the CSR graph via one sort of packed
//!   `(src, dst)` keys followed by a run-length aggregation of duplicate
//!   edges.
//! * [`delta`] — the **maintenance** path. [`DeltaGraph`] buffers
//!   transitions observed after a base CSR froze, as one key-sorted edge
//!   list, and [compacts](DeltaGraph::compact) base + delta into a fresh
//!   CSR, bit-identical to a from-scratch build. There is no merged read
//!   path: readers of fresh transitions read a compacted graph.
//!
//! Supporting modules:
//!
//! * [`algo`] — CSR-native weighted PageRank,
//! * [`layout`] — 2-D layouts over CSR graphs for the Graph frame:
//!   circular, the exact Fruchterman–Reingold layout
//!   ([`layout::exact`]) and the Barnes–Hut approximation
//!   ([`layout::barnes_hut`]) for 10k+-node layers, selected by
//!   [`layout::LayoutEngine`],
//! * [`quadtree`] — the reusable Barnes–Hut quadtree backing the
//!   approximate layout.
//!
//! This replaces `petgraph` (kept out deliberately; the dependency budget
//! of the reproduction is limited to the local shims plus the std
//! library, and the required surface is tiny).

pub mod algo;
pub mod builder;
pub mod csr;
pub mod delta;
pub mod layout;
pub mod quadtree;

pub use builder::GraphBuilder;
pub use csr::{CsrGraph, EdgeId, NodeId};
pub use delta::DeltaGraph;
