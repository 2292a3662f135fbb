//! Stage-attributed criterion benches for the end-to-end pipeline.
//!
//! Every label is `pipeline/<stage>/<variant>` with `<stage>` one of
//! `build` / `fit` / `features` / `cluster` / `render` / `serve` /
//! `persist` / `http` / `stream` (see `bench::stages`). The committed
//! `crates/bench/BENCH_pipeline.json` is the recorded baseline; CI
//! reruns this bench and gates merges with `bench_compare` on per-stage
//! geomean ratios. Scaling variants (series count, length, parallel
//! per-length jobs), spectral consensus over 1,002 series, the fit's
//! consensus from the label signatures of 9,000 series and the
//! embedding of 1,002 series all live under the `fit` stage, as does
//! the radial scan of 1,002 series' shortest length; per-request reads
//! of a model fitted on 1,002 series live under `serve`; encoding and
//! decoding the sealed snapshot of the `ingest_durable` model live
//! under `persist`; reading the loopback benchmark's score request off
//! a socket and writing its answer back live under `http`; refreshing a
//! streaming session over the `ingest_durable` model lives under
//! `stream`.

use bench::stages::{
    ingest_durable_model, HttpFixture, ScaleFixture, ServeFixture, StageFixture, StreamFixture,
};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use kgraph::consensus::{consensus_labels, consensus_labels_from_partitions, consensus_matrix};
use kgraph::embed::project_subsequences;
use kgraph::nodes::radial_scan;
use kgraph::serial::{read_model, write_model};
use kgraph::{KGraph, KGraphConfig};
use std::sync::Arc;

fn quick_config(k: usize) -> KGraphConfig {
    KGraphConfig {
        n_lengths: 3,
        psi: 16,
        pca_sample: 600,
        n_init: 2,
        ..KGraphConfig::new(k)
    }
}

fn bench_stages(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    let fx = StageFixture::standard();

    // One build takes about as long as a calibrated sample (~2 ms), so a
    // single scheduler hiccup moves a 10-sample median; 40 samples keep
    // the gated median steady.
    group.sample_size(40);
    group.bench_function(BenchmarkId::new("build", format!("l{}", fx.length)), |b| {
        b.iter(|| fx.run_build())
    });
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("fit", "full"), |b| b.iter(|| fx.run_fit()));

    // The downstream stages reuse one built layer / fitted model so their
    // timings isolate the stage itself.
    let layer = fx.run_build();
    group.bench_function(BenchmarkId::new("features", "matrix"), |b| {
        b.iter(|| fx.run_features(black_box(&layer)))
    });
    group.bench_function(BenchmarkId::new("cluster", "kmeans"), |b| {
        b.iter(|| fx.run_cluster(black_box(&layer)))
    });
    let model = fx.run_fit();
    group.bench_function(BenchmarkId::new("render", "graph"), |b| {
        b.iter(|| fx.run_render(black_box(&model)))
    });
    group.finish();
}

fn bench_render_at_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    // Each iteration lays out and emits a 10k-node layer; a few samples
    // are enough for a stable median under the shim's outlier rejection.
    group.sample_size(3);
    let fx = ScaleFixture::standard_10k();
    // Barnes–Hut layout cost over the full 10k-node graph.
    group.bench_function(BenchmarkId::new("render", "bh_10k"), |b| {
        b.iter(|| black_box(&fx).run_render_bh())
    });
    // Level-of-detail emission under a tight element budget.
    group.bench_function(BenchmarkId::new("render", "lod_10k"), |b| {
        b.iter(|| black_box(&fx).run_render_lod())
    });
    group.finish();
}

fn bench_fit_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    for per_class in [5usize, 10] {
        let dataset = datasets::cbf::cbf(per_class, 96, 0);
        group.bench_with_input(
            BenchmarkId::new("fit", format!("n_series_{}", per_class * 3)),
            &per_class,
            |b, _| {
                let kg = KGraph::new(quick_config(3));
                b.iter(|| kg.fit(black_box(&dataset)))
            },
        );
    }
    for length in [64usize, 128] {
        let dataset = datasets::cbf::cbf(6, length, 0);
        group.bench_with_input(
            BenchmarkId::new("fit", format!("length_{length}")),
            &length,
            |b, _| {
                let kg = KGraph::new(quick_config(3));
                b.iter(|| kg.fit(black_box(&dataset)))
            },
        );
    }
    // Per-length jobs fanned out over the hardware threads.
    let dataset = datasets::cbf::cbf(8, 96, 0);
    group.bench_function(BenchmarkId::new("fit", "jobs_parallel"), |b| {
        let kg = KGraph::new(quick_config(3));
        b.iter(|| kg.fit(black_box(&dataset)))
    });
    // Spectral consensus at the scale of a 1,002-series fit: five noisy
    // relabelings of a 3-class partition, so the consensus matrix has tens
    // of distinct rows, as a real k-Graph consensus does.
    let noisy_partitions = |n: usize| -> Vec<Vec<usize>> {
        (0..5usize)
            .map(|p| {
                (0..n)
                    .map(|i| {
                        let class = i * 3 / n;
                        if (i * 2_654_435_761 + p * 40_503) % 16 == 0 {
                            (class + 1 + p % 2) % 3
                        } else {
                            (class + p) % 3
                        }
                    })
                    .collect()
            })
            .collect()
    };
    let mc = consensus_matrix(&noisy_partitions(1002));
    group.bench_function(BenchmarkId::new("fit", "consensus_n1002"), |b| {
        b.iter(|| consensus_labels(black_box(&mc), 3, 0))
    });
    // The fit's own consensus, from the label signatures of 9,000 series,
    // where the consensus matrix would be 648 MB. The partitions are built
    // once, outside the timed loop.
    let partitions = noisy_partitions(9000);
    group.bench_function(BenchmarkId::new("fit", "consensus_partitions_n9000"), |b| {
        b.iter(|| consensus_labels_from_partitions(black_box(&partitions), 3, 0))
    });
    // The embedding of `explore_1k`'s longest length: 1,002 CBF series ×
    // 256 at ℓ = 128 with the default stride and PCA sample.
    let explore = datasets::cbf::cbf(334, 256, 7);
    let defaults = KGraphConfig::new(3);
    group.bench_function(BenchmarkId::new("fit", "embed_n1002"), |b| {
        b.iter(|| {
            project_subsequences(
                black_box(&explore),
                128,
                defaults.stride,
                defaults.pca_sample,
            )
        })
    });
    // The radial scan of `explore_1k`'s shortest length: ℓ = 26, 231,462
    // projected windows, default ψ, KDE grid and density ratio. The
    // projection is built once, outside the timed loop.
    let proj = project_subsequences(&explore, 26, defaults.stride, defaults.pca_sample);
    group.bench_function(BenchmarkId::new("fit", "radial_scan_n1002"), |b| {
        b.iter(|| {
            radial_scan(
                black_box(&proj),
                defaults.psi,
                defaults.kde_grid,
                defaults.min_density_ratio,
            )
        })
    });
    group.finish();
}

fn bench_serve(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    // Fitted once, outside every timed loop: the reads measure what a
    // request costs against an already-published model.
    let fx = ServeFixture::explore_1k();
    let mut i = 0usize;
    group.bench_function(BenchmarkId::new("serve", "predict_n1002"), |b| {
        b.iter(|| {
            i += 1;
            black_box(&fx).run_predict(i)
        })
    });
    let mut cluster = 0usize;
    group.bench_function(BenchmarkId::new("serve", "graphoid_n1002"), |b| {
        b.iter(|| {
            cluster += 1;
            black_box(&fx).run_graphoid(cluster)
        })
    });
    group.bench_function(BenchmarkId::new("serve", "render_n1002"), |b| {
        b.iter(|| black_box(&fx).run_render())
    });
    group.finish();
}

fn bench_persist(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(20);
    // The `ingest_durable` model (300 CBF series × 256, k = 3, five
    // lengths, seed 7), fitted once: each write is one snapshot's KGM5
    // blob with its CRC-32 trailer, each read one checked load of it.
    let model = ingest_durable_model();
    let bytes = write_model(&model);
    group.bench_function(BenchmarkId::new("persist", "write_model_n300"), |b| {
        b.iter(|| write_model(black_box(&model)))
    });
    group.bench_function(BenchmarkId::new("persist", "read_model_n300"), |b| {
        b.iter(|| read_model(black_box(&bytes)).expect("a freshly written model loads"))
    });
    group.finish();
}

fn bench_http(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    // One request or answer is a few microseconds of syscalls, so a
    // sample holds hundreds; 40 samples keep the median steady.
    group.sample_size(40);
    let mut fx = HttpFixture::score().expect("a loopback socket pair");
    group.bench_function(BenchmarkId::new("http", "read_request_score"), |b| {
        b.iter(|| fx.run_read())
    });
    group.bench_function(BenchmarkId::new("http", "write_response_score"), |b| {
        b.iter(|| fx.run_write())
    });
    group.finish();
}

fn bench_stream(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(20);
    // One forced refresh of a session over the `ingest_durable` model
    // holding 4 series of 1,024 or 4,096 points: the best layer compacted
    // with the session's delta, then every series rescored.
    let model = Arc::new(ingest_durable_model());
    for (label, points) in [("refresh_n4k", 1_024), ("refresh_n16k", 4_096)] {
        let mut fx = StreamFixture::new(Arc::clone(&model), points);
        group.bench_function(BenchmarkId::new("stream", label), |b| {
            b.iter(|| fx.run_refresh())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_stages,
    bench_fit_scaling,
    bench_render_at_scale,
    bench_serve,
    bench_persist,
    bench_http,
    bench_stream
);
criterion_main!(benches);
