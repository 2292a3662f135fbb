//! Criterion benches for stage 3: consensus-matrix construction and the
//! spectral vs k-Means consensus ablation.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use kgraph::consensus::{consensus_labels, consensus_labels_kmeans, consensus_matrix};

fn make_partitions(n: usize, m: usize) -> Vec<Vec<usize>> {
    (0..m)
        .map(|p| (0..n).map(|i| (i / 10 + p) % 3).collect())
        .collect()
}

fn bench_consensus(c: &mut Criterion) {
    let mut group = c.benchmark_group("consensus");
    for n in [60usize, 120, 240, 1000] {
        let partitions = make_partitions(n, 5);
        group.bench_with_input(BenchmarkId::new("matrix", n), &n, |b, _| {
            b.iter(|| consensus_matrix(black_box(&partitions)))
        });
        let mc = consensus_matrix(&partitions);
        group.bench_with_input(BenchmarkId::new("spectral", n), &n, |b, _| {
            b.iter(|| consensus_labels(black_box(&mc), 3, 0))
        });
        group.bench_with_input(BenchmarkId::new("kmeans", n), &n, |b, _| {
            b.iter(|| consensus_labels_kmeans(black_box(&mc), 3, 0))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_consensus
}
criterion_main!(benches);
