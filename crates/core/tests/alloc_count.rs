//! Proof that the hot kernels are allocation-free once scratch is warm.
//!
//! A counting wrapper around the system allocator tallies every
//! allocation of the calling thread; each test warms its scratch, snapshots the counter, runs
//! many kernel calls and asserts the counter did not move. This is the
//! "zero per-pair heap allocations" acceptance check — a regression that
//! reintroduces a `Vec` inside a kernel loop fails here, not in a
//! profiler three PRs later.
//!
//! Lives in its own integration-test binary because `#[global_allocator]`
//! is process-wide. The tally is per thread, so allocations made by the
//! other tests the harness runs in parallel never land in a measured
//! window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // `const`-initialised and drop-free: reading it never allocates, so
    // the allocator may touch it.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

use tscore::kernel::{self, DtwOptions, DtwScratch, ZnormScratch};

fn wave(n: usize, phase: f64) -> Vec<f64> {
    (0..n).map(|i| (i as f64 * 0.21 + phase).sin()).collect()
}

#[test]
fn znorm_euclidean_allocates_nothing() {
    let a = wave(257, 0.0);
    let b = wave(257, 0.8);
    // Warm-up (the kernel itself holds no state, but let lazy statics
    // elsewhere settle).
    let _ = kernel::znorm_euclidean(&a, &b).unwrap();
    let before = allocations();
    let mut acc = 0.0;
    for _ in 0..100 {
        acc += kernel::znorm_euclidean(&a, &b).unwrap();
    }
    assert!(acc.is_finite());
    assert_eq!(
        allocations(),
        before,
        "znorm_euclidean must not allocate per pair"
    );
}

#[test]
fn sbd_allocates_nothing() {
    let a = wave(130, 0.0);
    let b = wave(130, 1.1);
    let _ = kernel::sbd(&a, &b).unwrap();
    let before = allocations();
    let mut acc = 0.0;
    for _ in 0..50 {
        acc += kernel::sbd(&a, &b).unwrap();
    }
    assert!(acc.is_finite());
    assert_eq!(allocations(), before, "sbd must not allocate per pair");
}

#[test]
fn dtw_with_warm_scratch_allocates_nothing() {
    let a = wave(200, 0.0);
    let b = wave(190, 0.5);
    let opts = DtwOptions { window: Some(20) };
    let mut scratch = DtwScratch::new();
    // Warm the scratch to the largest size used below.
    let _ = kernel::dtw(&a, &b, opts, &mut scratch).unwrap();
    let before = allocations();
    let mut acc = 0.0;
    for _ in 0..50 {
        acc += kernel::dtw(&a, &b, opts, &mut scratch).unwrap();
        // Smaller inputs reuse the same buffers.
        acc += kernel::dtw(&a[..64], &b[..60], opts, &mut scratch).unwrap();
    }
    assert!(acc.is_finite());
    assert_eq!(
        allocations(),
        before,
        "warm-scratch DTW must not allocate per pair"
    );
}

#[test]
fn znorm_scratch_allocates_only_on_growth() {
    let rows: Vec<Vec<f64>> = (0..20).map(|i| wave(128, i as f64 * 0.3)).collect();
    let mut scratch = ZnormScratch::new();
    // Warm to the row length.
    let _ = scratch.znormed(&rows[0]);
    let before = allocations();
    let mut acc = 0.0;
    for row in &rows {
        let z = scratch.znormed(row);
        acc += z.iter().sum::<f64>();
    }
    assert!(acc.is_finite());
    assert_eq!(
        allocations(),
        before,
        "warm ZnormScratch must not allocate per row"
    );
}

#[test]
fn counter_actually_counts() {
    // Sanity check that the instrumentation itself works.
    let before = allocations();
    let v: Vec<u64> = Vec::with_capacity(64);
    assert!(v.capacity() >= 64);
    assert!(allocations() > before, "allocation must be observed");
}
