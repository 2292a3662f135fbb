//! Memory bounds of the window loop that fit and serve share, of the
//! fit's consensus, and of the model decoder.
//!
//! A counting wrapper around the system allocator keeps, per thread, the
//! number of allocations and the live heap bytes with their high-water
//! mark. The tests check that the fit's projection never holds the
//! `total × ℓ` window matrix and keeps one 2-D point per window, that the
//! fit never holds the `n × n` consensus matrix, that routing a series
//! costs a fixed number of allocations however many windows it has, that
//! a model file declaring a path run of 2^40 windows is refused before
//! any of it is allocated, and that a `KGM4` file is decoded one layer at
//! a time.
//!
//! Lives in its own integration-test binary because `#[global_allocator]`
//! is process-wide. The tallies are per thread, so allocations made by the
//! other tests the harness runs in parallel never land in a measured
//! window.

#[path = "support/kgm4.rs"]
mod kgm4;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // `const`-initialised and drop-free: reading them never allocates, so
    // the allocator may touch them.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Records one allocation of `grow` bytes that releases `shrink` bytes.
fn record(grow: usize, shrink: usize) {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = LIVE.try_with(|live| {
        let now = live.get() + grow as isize - shrink as isize;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), 0);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|live| live.set(live.get() - layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// Runs `f` and returns its result with the largest number of bytes it
/// held live at once on this thread, above what was live when it started.
fn peak_bytes_of<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    (out, (PEAK.with(Cell::get) - base).max(0) as usize)
}

use kgraph::embed::project_subsequences;
use kgraph::{KGraph, KGraphConfig};
use tscore::{Dataset, DatasetKind, TimeSeries};

fn wave(n: usize, freq: f64, phase: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i + phase) as f64 * freq).sin() + 0.2 * ((i * 7 + phase) % 5) as f64)
        .collect()
}

#[test]
fn projection_never_holds_the_window_matrix() {
    let series: Vec<TimeSeries> = (0..200)
        .map(|s| TimeSeries::new(wave(256, 0.05 + 0.01 * (s % 5) as f64, s)))
        .collect();
    let ds = Dataset::new("fixture", DatasetKind::Simulated, series);
    let (length, stride) = (128, 1);
    let cfg = KGraphConfig::new(3);
    let total = 200 * (256 - length + 1);
    let matrix_bytes = total * length * std::mem::size_of::<f64>();

    let (proj, peak) = peak_bytes_of(|| project_subsequences(&ds, length, stride, cfg.pca_sample));
    assert_eq!(proj.points.len(), total);
    assert!(
        peak < matrix_bytes / 4,
        "projection peaked at {peak} B; the window matrix alone is {matrix_bytes} B"
    );
}

#[test]
fn the_fit_never_holds_the_consensus_matrix() {
    // 2,100 short series in three shapes.
    let n = 2_100;
    let series: Vec<TimeSeries> = (0..n)
        .map(|s| TimeSeries::new(wave(40, [0.2, 0.5, 0.9][s % 3] + 0.01 * (s % 7) as f64, s)))
        .collect();
    let ds = Dataset::new("fixture", DatasetKind::Simulated, series);
    let cfg = KGraphConfig {
        psi: 12,
        pca_sample: 400,
        n_init: 2,
        ..KGraphConfig::new(3)
    }
    .with_lengths(vec![8, 12, 16]);
    let matrix_bytes = n * n * std::mem::size_of::<f64>();

    // The per-length jobs run on this thread when it is the only one.
    let (model, peak) = peak_bytes_of(|| KGraph::new(cfg).fit(&ds));
    assert_eq!(model.labels.len(), n);
    assert!(
        peak < matrix_bytes / 4,
        "the fit peaked at {peak} B on the calling thread; the consensus matrix alone is \
         {matrix_bytes} B"
    );
}

/// Bytes the caller holds live after `f` returns, above what was live
/// when it started: what its result keeps.
fn kept_bytes_of<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE.with(Cell::get);
    let out = f();
    (out, (LIVE.with(Cell::get) - base).max(0) as usize)
}

#[test]
fn a_projection_keeps_one_point_per_window() {
    // One series shorter than ℓ, so `starts` also names a windowless one.
    let series: Vec<TimeSeries> = (0..60)
        .map(|s| TimeSeries::new(wave(if s == 7 { 20 } else { 150 }, 0.07, s)))
        .collect();
    let ds = Dataset::new("fixture", DatasetKind::Simulated, series);
    let length = 32;
    for stride in [1, 3] {
        let (proj, kept) = kept_bytes_of(|| project_subsequences(&ds, length, stride, 400));
        let windows = proj.points.len();
        assert_eq!(windows, 59 * ((150 - length) / stride + 1));
        let f64s = |n: usize| n * std::mem::size_of::<f64>();
        let starts = proj.starts.capacity() * std::mem::size_of::<usize>();
        let pca = f64s(
            proj.pca.mean().len()
                + proj.pca.components().as_slice().len()
                + proj.pca.explained_variance().len(),
        );
        let per_window = kept.saturating_sub(starts + pca) as f64 / windows as f64;
        assert!(
            per_window <= 16.0,
            "stride {stride}: the projection keeps {per_window:.2} B per window \
             ({kept} B in all, {starts} B of starts, {pca} B of PCA, {windows} windows)"
        );
    }
}

#[test]
fn routing_makes_a_fixed_number_of_allocations() {
    let series: Vec<TimeSeries> = (0..6)
        .map(|s| TimeSeries::new(wave(120, if s < 3 { 0.2 } else { 0.9 }, s)))
        .collect();
    let ds = Dataset::new("toy", DatasetKind::Simulated, series);
    let cfg = KGraphConfig {
        psi: 12,
        pca_sample: 300,
        n_init: 2,
        ..KGraphConfig::new(2)
    }
    .with_lengths(vec![16]);
    let model = KGraph::new(cfg).fit(&ds);
    let layer = model.best();

    let mut counts = Vec::new();
    for n in [40usize, 400, 4_000] {
        let values = wave(n, 0.37, n);
        // Warm-up: let any lazy state settle outside the measured call.
        let _ = layer.assign_path(&values);
        let before = allocations();
        let path = layer.assign_path(&values).expect("long enough");
        counts.push(allocations() - before);
        assert_eq!(path.len(), n - 16 + 1);
    }
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "allocations per route grow with the window count: {counts:?}"
    );
    // The z-normalisation scratch and the path itself.
    assert!(counts[0] <= 2, "{counts:?}");
}

#[test]
fn a_crafted_path_run_is_refused_before_it_is_allocated() {
    use kgraph::serial::{put_varint, read_model, seal, write_model};
    use tscore::error::TsError;
    use tsgraph::NodeId;

    let series: Vec<TimeSeries> = (0..6)
        .map(|s| TimeSeries::new(wave(60, if s < 3 { 0.2 } else { 0.9 }, s)))
        .collect();
    let ds = Dataset::new("toy", DatasetKind::Simulated, series);
    let cfg = KGraphConfig {
        psi: 8,
        pca_sample: 200,
        n_init: 1,
        ..KGraphConfig::new(2)
    }
    .with_lengths(vec![12]);
    let mut model = KGraph::new(cfg).fit(&ds);
    // One series, its path of 77 windows on node 1: the varints 1
    // (paths), 77, 1, 77.
    model.layer.paths = vec![vec![NodeId(1); 77]];
    model.labels.truncate(1);
    model.partitions[0].truncate(1);
    let bytes = write_model(&model);
    let body = &bytes[..bytes.len() - 4];
    let at = body
        .windows(4)
        .position(|w| w == [1, 77, 1, 77])
        .expect("the encoded path");
    let with_path = |windows: u64, run: u64| {
        let mut out = body[..at + 1].to_vec();
        for v in [windows, 1, run] {
            put_varint(&mut out, v);
        }
        out.extend_from_slice(&body[at + 4..]);
        seal(out)
    };
    assert!(
        read_model(&with_path(77, 77)).is_ok(),
        "the splice is exact"
    );
    for (windows, run) in [(77, 1 << 40), (1 << 40, 1 << 40)] {
        let blob = with_path(windows, run);
        let (decoded, peak) = peak_bytes_of(|| read_model(&blob));
        assert!(matches!(decoded, Err(TsError::Parse(_))), "{decoded:?}");
        // The layer's payloads and graph, not the 4 TiB the run claims.
        assert!(peak < 1 << 20, "decoding peaked at {peak} B");
    }
}

#[test]
fn a_kgm4_file_is_decoded_one_layer_at_a_time() {
    use kgraph::serial::{read_model, write_model};

    // `ingest_durable`'s training set: 100 CBF series per class, k 3,
    // five lengths, seed 7.
    let cfg = KGraphConfig {
        n_lengths: 5,
        ..KGraphConfig::new(3)
    }
    .with_seed(7);
    let kgraph = KGraph::new(cfg);
    let layers = kgraph.fit_layers(&datasets::cbf::cbf(100, 256, 7));
    let model = kgraph.model_from_layers(layers.clone());
    let (kgm4, kgm5) = (kgm4::kgm4(&model, &layers), write_model(&model));
    drop(layers);

    let (from_kgm4, kgm4_peak) = peak_bytes_of(|| read_model(&kgm4));
    let (from_kgm5, kgm5_peak) = peak_bytes_of(|| read_model(&kgm5));
    let reencoded = from_kgm4
        .map(|m| write_model(&m))
        .expect("the KGM4 file loads");
    assert!(reencoded == kgm5, "the KGM4 file loads to the KGM5 model");
    assert!(from_kgm5.is_ok(), "the KGM5 file loads");
    // The layers ℓ̄ does not serve are dropped as they are read, so the
    // decode holds at most about two layers where a KGM5 decode holds one.
    assert!(
        2 * kgm4_peak < 5 * kgm5_peak,
        "the KGM4 decode peaked at {kgm4_peak} B, the KGM5 decode at {kgm5_peak} B"
    );
}
