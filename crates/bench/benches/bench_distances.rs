//! Criterion micro-benches for the distance substrate: Euclidean vs SBD
//! vs DTW (banded and full). Supports the E6 narrative:
//! why k-Graph avoids pairwise elastic distances entirely.
//!
//! The `distances` group allocates one DTW scratch per call, as a caller
//! without a scratch of its own would; the `kernels` group times the
//! fused `tscore::kernel` entry points with warm scratch at ℓ = 256 and
//! 1024.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use tscore::kernel::{self, DtwOptions, DtwScratch};

fn make_pair(len: usize) -> (Vec<f64>, Vec<f64>) {
    let a: Vec<f64> = (0..len).map(|i| (i as f64 * 0.13).sin()).collect();
    let b: Vec<f64> = (0..len).map(|i| (i as f64 * 0.13 + 0.7).sin()).collect();
    (a, b)
}

fn bench_distances(c: &mut Criterion) {
    let mut group = c.benchmark_group("distances");
    for len in [64usize, 256] {
        let (a, b) = make_pair(len);
        group.bench_with_input(BenchmarkId::new("euclidean", len), &len, |bencher, _| {
            bencher.iter(|| kernel::euclidean(black_box(&a), black_box(&b)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("sbd_direct", len), &len, |bencher, _| {
            bencher.iter(|| kernel::sbd(black_box(&a), black_box(&b)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("dtw_banded", len), &len, |bencher, _| {
            let opts = DtwOptions {
                window: Some(len / 10),
            };
            bencher.iter(|| {
                kernel::dtw(black_box(&a), black_box(&b), opts, &mut DtwScratch::new()).unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("dtw_full", len), &len, |bencher, _| {
            let opts = DtwOptions::default();
            bencher.iter(|| {
                kernel::dtw(black_box(&a), black_box(&b), opts, &mut DtwScratch::new()).unwrap()
            })
        });
    }
    group.finish();
}

/// Fused kernels at ℓ = 256 and 1024.
fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    group.sample_size(30);
    for len in [256usize, 1024] {
        let (a, b) = make_pair(len);

        group.bench_with_input(
            BenchmarkId::new("znorm_ed_kernel", len),
            &len,
            |bencher, _| {
                bencher.iter(|| kernel::znorm_euclidean(black_box(&a), black_box(&b)).unwrap())
            },
        );

        let opts = DtwOptions {
            window: Some(len / 10),
        };
        group.bench_with_input(
            BenchmarkId::new("dtw_banded_kernel", len),
            &len,
            |bencher, _| {
                let mut scratch = DtwScratch::new();
                bencher
                    .iter(|| kernel::dtw(black_box(&a), black_box(&b), opts, &mut scratch).unwrap())
            },
        );

        group.bench_with_input(BenchmarkId::new("sbd_kernel", len), &len, |bencher, _| {
            bencher.iter(|| kernel::sbd(black_box(&a), black_box(&b)).unwrap())
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_distances, bench_kernels
}
criterion_main!(benches);
