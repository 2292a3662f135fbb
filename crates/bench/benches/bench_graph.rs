//! Graph-core benches over the CSR layer.
//!
//! The workload mirrors what `build_graph_with_stride` produces at scale —
//! a transition stream over a ≥10k-node vocabulary with a skewed (hub-
//! heavy) degree distribution, where hubs reach out-degrees in the
//! hundreds. Groups:
//!
//! * `build/*` — constructing the weighted graph from the raw stream
//!   (sort + aggregate builder),
//! * `lookup/*` — point edge lookups (binary search over the out-slice),
//! * `pagerank/*` — weighted PageRank over contiguous slices,
//! * `stream/*` — the streaming-maintenance path: batched delta ingest
//!   and base+delta compaction,
//! * `layout/*` — the exact force-directed layout vs. Barnes–Hut.
//!
//! Timings are persisted as `BENCH_graph.json` (see the criterion shim's
//! `write_baseline`), so the perf trajectory has a committed baseline.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use tsgraph::algo;
use tsgraph::layout::{self, BarnesHutOptions, ForceOptions};
use tsgraph::{CsrGraph, DeltaGraph, GraphBuilder, NodeId};

const NODES: usize = 12_000;
const TRANSITIONS: usize = 400_000;

/// Deterministic skewed transition stream: hubs (low ids) are visited
/// often, like dense pattern nodes in a k-Graph layer.
fn transition_stream(nodes: usize, transitions: usize) -> Vec<(u32, u32)> {
    let mut s = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s
    };
    let mut out = Vec::with_capacity(transitions);
    let mut cur = 0u32;
    for _ in 0..transitions {
        let r = next();
        // ~1/3 of steps jump to a hub (first 0.5%), the rest take a wide
        // local step — hubs end up with out-degrees in the hundreds, the
        // regime where per-transition adjacency scans collapse.
        let dst = if r % 3 == 0 {
            (next() % (nodes as u64 / 200).max(1)) as u32
        } else {
            ((cur as u64 + 1 + next() % 512) % nodes as u64) as u32
        };
        if dst != cur {
            out.push((cur, dst));
        }
        cur = dst;
    }
    out
}

/// Emit triples, sort + aggregate.
fn build_csr(nodes: usize, stream: &[(u32, u32)]) -> CsrGraph<(), f64> {
    let mut b = GraphBuilder::with_capacity(stream.len());
    for &(s, t) in stream {
        b.add_edge(NodeId(s), NodeId(t), 1.0);
    }
    b.build(vec![(); nodes], |acc, w| *acc += w)
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("build");
    group.sample_size(10);
    let stream = transition_stream(NODES, TRANSITIONS);
    group.bench_with_input(
        BenchmarkId::new("csr_builder", TRANSITIONS),
        &stream,
        |b, stream| b.iter(|| build_csr(NODES, black_box(stream))),
    );
    group.finish();
}

fn bench_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("lookup");
    group.sample_size(20);
    let stream = transition_stream(NODES, TRANSITIONS);
    let csr = build_csr(NODES, &stream);
    // Query the observed transitions (mostly hits) — the feature-matrix
    // and graphoid access pattern.
    let queries: Vec<(NodeId, NodeId)> = stream
        .iter()
        .step_by(16)
        .map(|&(s, t)| (NodeId(s), NodeId(t)))
        .collect();
    group.bench_with_input(
        BenchmarkId::new("csr_edge_id", queries.len()),
        &queries,
        |b, queries| {
            b.iter(|| {
                let mut hits = 0usize;
                for &(s, t) in queries.iter() {
                    hits += csr.edge_id(s, t).is_some() as usize;
                }
                black_box(hits)
            })
        },
    );
    group.finish();
}

fn bench_pagerank(c: &mut Criterion) {
    let mut group = c.benchmark_group("pagerank");
    group.sample_size(10);
    let stream = transition_stream(NODES, TRANSITIONS);
    let csr = build_csr(NODES, &stream);
    group.bench_with_input(BenchmarkId::new("csr_native", NODES), &csr, |b, csr| {
        b.iter(|| algo::pagerank(black_box(csr), 0.85, 20, |&w| w))
    });
    group.finish();
}

fn bench_stream(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream");
    // Both entries allocate per sample, and on a shared host single samples
    // land in a fast or a slow mode (22 to 46 ms for the ingest within one
    // run on a 2-vCPU VM): 30 samples keep the gated median from tracking
    // whichever mode won.
    group.sample_size(30);
    let stream = transition_stream(NODES, TRANSITIONS);
    // Base CSR over the first half of the stream; the second half arrives
    // "live" as delta batches.
    let (head, tail) = stream.split_at(stream.len() / 2);
    let base = build_csr(NODES, head);

    // Incremental maintenance: fold the live half into a DeltaGraph in
    // refresh-sized batches (sort + 2-way merge per batch).
    group.bench_with_input(
        BenchmarkId::new("delta_ingest", tail.len()),
        &tail,
        |b, tail| {
            b.iter(|| {
                let mut delta = DeltaGraph::new(NODES);
                for chunk in tail.chunks(4096) {
                    delta.ingest(
                        chunk.iter().map(|&(s, t)| (NodeId(s), NodeId(t), 1.0)),
                        |acc, w| *acc += w,
                    );
                }
                black_box(delta.edge_count())
            })
        },
    );

    // Compaction: merge the accumulated delta into a fresh base CSR.
    let mut delta = DeltaGraph::new(NODES);
    delta.ingest(
        tail.iter().map(|&(s, t)| (NodeId(s), NodeId(t), 1.0)),
        |acc, w| *acc += w,
    );
    group.bench_with_input(
        BenchmarkId::new("compact", delta.edge_count()),
        &(&base, &delta),
        |b, (base, delta)| b.iter(|| delta.compact(base, |acc, w| *acc += w)),
    );
    group.finish();
}

fn bench_layout(c: &mut Criterion) {
    let mut group = c.benchmark_group("layout");
    // The exact reference is O(n²) per iteration — at 50k nodes a single
    // iteration is ~1.25e9 pair interactions, so both sides run only two
    // force iterations and two samples. The comparison is the point: the
    // acceptance bar is Barnes–Hut ≥ 10x faster at θ = 0.8.
    group.sample_size(2);
    const LAYOUT_NODES: usize = 50_000;
    let stream = transition_stream(LAYOUT_NODES, 200_000);
    let g = build_csr(LAYOUT_NODES, &stream);
    let force = ForceOptions {
        iterations: 2,
        area: 1000.0,
        seed: 42,
    };
    group.bench_with_input(
        BenchmarkId::new("reference_50k", LAYOUT_NODES),
        &g,
        |b, g| b.iter(|| layout::exact::force_directed(black_box(g), force)),
    );
    group.bench_with_input(
        BenchmarkId::new("barnes_hut_theta08_50k", LAYOUT_NODES),
        &g,
        |b, g| b.iter(|| layout::barnes_hut(black_box(g), BarnesHutOptions { force, theta: 0.8 })),
    );
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_build, bench_lookup, bench_pagerank, bench_stream, bench_layout
}
criterion_main!(benches);
