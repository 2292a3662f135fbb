//! # tsgraph — directed weighted graphs for k-Graph
//!
//! Graph substrate of the Graphint / k-Graph reproduction. It covers
//! exactly what the pipeline and the Graph frame run: build one
//! transition graph per subsequence length, query it, extract graphoid
//! sub-graphs, rank nodes, lay the graph out and maintain it as new
//! transitions stream in.
//!
//! ## Architecture: `GraphBuilder` builds, `CsrGraph` queries, `DeltaGraph`/`DeltaView` maintain
//!
//! * [`CsrGraph`] (module [`csr`]) — the **query-time** representation
//!   every consumer reads from. Compressed sparse row: per-direction
//!   offset/target/weight arrays, O(1) degrees, neighbours and per-node
//!   edge payloads as contiguous sorted slices, O(log deg) edge lookup
//!   ([`CsrGraph::edge_id`]) and deterministic iteration order. The
//!   k-Graph pipeline stores every `G_ℓ` in this form; features, graphoid
//!   statistics ([`CsrGraph::filter_nodes`]), anomaly scoring, PageRank
//!   and the Graphint Graph frame all run against it.
//! * [`builder::GraphBuilder`] — the **construction** path. Consumers emit
//!   raw `(src, dst, weight)` triples (one per observed transition, no
//!   lookups), and `build` produces the CSR graph via a parallel chunked
//!   sort followed by a run-length aggregation of duplicate edges.
//! * [`delta`] — the **maintenance** path. [`DeltaGraph`] buffers
//!   transitions observed after a base CSR froze; [`DeltaView`] serves
//!   merged base+delta reads (2-way merge per node, lock-free) and
//!   compacts into a fresh CSR, bit-identical to a from-scratch build.
//!
//! Supporting modules:
//!
//! * [`algo`] — CSR-native weighted PageRank,
//! * [`layout`] — 2-D layouts over CSR graphs for the Graph frame:
//!   circular, the exact Fruchterman–Reingold reference
//!   (`layout::reference`) and the Barnes–Hut approximation
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
pub use delta::{DeltaGraph, DeltaView};
