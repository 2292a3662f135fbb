//! # tsgraph — directed weighted graphs for k-Graph
//!
//! Graph substrate of the Graphint / k-Graph reproduction. Two storage
//! layers with one clear division of labour:
//!
//! ## Architecture: `GraphBuilder` builds, `CsrGraph` queries
//!
//! * [`CsrGraph`] (module [`csr`]) — the **query-time** representation
//!   every consumer reads from. Compressed sparse row: per-direction
//!   offset/target/weight arrays, O(1) degrees, neighbours and per-node
//!   edge payloads as contiguous sorted slices, O(log deg) edge lookup
//!   ([`CsrGraph::edge_id`]) and deterministic iteration order. The
//!   k-Graph pipeline stores every `G_ℓ` in this form; features, graphoid
//!   statistics, anomaly scoring, the algorithms below and the Graphint
//!   Graph frame all run against it.
//! * [`builder::GraphBuilder`] — the **construction** path. Consumers emit
//!   raw `(src, dst, weight)` triples (one per observed transition, no
//!   lookups), and `build` produces the CSR graph via a parallel chunked
//!   sort followed by a run-length aggregation of duplicate edges. This
//!   replaces the old per-edge `edge_between` probing, which made graph
//!   construction O(E·deg).
//! * [`DiGraph`] (module [`digraph`]) — not a construction path: the
//!   incremental escape hatch for callers that need node/edge insertion
//!   with stable ids (tests, ad-hoc graph assembly), and the test oracle
//!   that parity tests (`algo::reference`, `CsrGraph::from_digraph`)
//!   compare the CSR path against. Convert losslessly with
//!   [`CsrGraph::from_digraph`] (parallel edges aggregate through the
//!   supplied merge) before querying; nothing on the hot path builds or
//!   scans a `DiGraph`.
//!
//! ## Streaming construction and maintenance
//!
//! * [`spill`] — [`spill::SpillBuilder`], the bounded-memory construction
//!   path: triples accumulate in fixed-size sorted runs that spill to disk
//!   (CRC-checked `TSR1` files) and k-way merge into the same CSR assembly
//!   pass the in-RAM builder uses, bit-identical for exact weights.
//! * [`delta`] — [`delta::DeltaGraph`] buffers transitions observed after
//!   a base CSR froze; [`delta::DeltaView`] serves merged base+delta reads
//!   (2-way merge per node, lock-free) and compacts into a fresh CSR.
//! * [`checksum`] — dependency-free CRC-32 (IEEE) used by spilled runs and
//!   the persisted model format.
//!
//! Supporting modules:
//!
//! * [`algo`] — CSR-native breadth-first traversal, weakly connected
//!   components, reachability, degree ordering and weighted PageRank
//!   (plus `algo::reference` DiGraph implementations kept for parity
//!   testing),
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
pub mod checksum;
pub mod csr;
pub mod delta;
pub mod digraph;
pub mod layout;
pub mod quadtree;
pub mod spill;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use delta::{DeltaGraph, DeltaView};
pub use digraph::{DiGraph, EdgeId, NodeId};
pub use spill::SpillBuilder;
