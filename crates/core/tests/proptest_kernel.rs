//! Property tests pinning every fused kernel to its scalar test oracle
//! (`oracle/mod.rs`).
//!
//! Lengths are drawn so that every lane remainder `n mod 8 ∈ 0..8` is
//! exercised, and dedicated cases cover the degenerate inputs (empty,
//! constant, zero-energy). DTW is required to be **bit-identical** to the
//! reference (same min/add operations per cell); the reassociated
//! reductions (znorm/ED/SBD, and `sq_dist`/`dot` against plain scalar sums
//! over the shorter input) are allowed ≤ 1e-12 relative drift.

mod oracle;

use proptest::prelude::*;
use tscore::kernel::{self, DtwOptions, DtwScratch};

fn rel_close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
}

/// Two vectors of one length drawn from `lengths`, values from `values`.
fn equal_length_pair(
    values: std::ops::Range<f64>,
    lengths: std::ops::Range<usize>,
) -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    lengths.prop_flat_map(move |n| {
        (
            proptest::collection::vec(values.clone(), n),
            proptest::collection::vec(values.clone(), n),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn znorm_euclidean_matches_reference((a, b) in equal_length_pair(-50.0..50.0, 1..70)) {
        let fast = kernel::znorm_euclidean(&a, &b).unwrap();
        let slow = oracle::znorm_euclidean(&a, &b).unwrap();
        prop_assert!(rel_close(fast, slow, 1e-12), "{fast} vs {slow}");
    }

    #[test]
    fn znorm_into_matches_reference(
        xs in proptest::collection::vec(-50.0..50.0f64, 1..70),
    ) {
        let mut fast = vec![0.0; xs.len()];
        kernel::znorm_into(&xs, &mut fast);
        let slow = oracle::znorm(&xs);
        for (f, s) in fast.iter().zip(&slow) {
            prop_assert!(rel_close(*f, *s, 1e-12), "{f} vs {s}");
        }
    }

    #[test]
    fn euclidean_matches_reference((a, b) in equal_length_pair(-50.0..50.0, 0..70)) {
        let fast = kernel::euclidean(&a, &b).unwrap();
        let slow = oracle::euclidean(&a, &b).unwrap();
        prop_assert!(rel_close(fast, slow, 1e-12), "{fast} vs {slow}");
    }

    #[test]
    fn sbd_matches_reference((a, b) in equal_length_pair(-20.0..20.0, 1..40)) {
        let fast = kernel::sbd(&a, &b).unwrap();
        let slow = oracle::sbd(&a, &b).unwrap();
        prop_assert!(rel_close(fast, slow, 1e-9), "{fast} vs {slow}");
    }

    #[test]
    fn dtw_bit_identical_to_reference(
        a in proptest::collection::vec(-20.0..20.0f64, 1..50),
        b in proptest::collection::vec(-20.0..20.0f64, 1..50),
        window_raw in 0usize..13,
    ) {
        // 12 encodes "no band" (the shim has no Option strategy).
        let window = if window_raw == 12 { None } else { Some(window_raw) };
        let opts = DtwOptions { window };
        let mut scratch = DtwScratch::new();
        let fast = kernel::dtw(&a, &b, opts, &mut scratch).unwrap();
        let slow = oracle::dtw(&a, &b, opts).unwrap();
        // Bit-identical: the fused version performs the same FP ops.
        prop_assert_eq!(fast.to_bits(), slow.to_bits(), "{} vs {}", fast, slow);
    }

    #[test]
    fn dtw_scratch_reuse_is_sound(
        pairs in proptest::collection::vec(
            (
                proptest::collection::vec(-5.0..5.0f64, 1..30),
                proptest::collection::vec(-5.0..5.0f64, 1..30),
            ),
            1..6,
        ),
    ) {
        // One scratch across many differently-sized pairs must give the
        // same results as fresh scratches (no stale-cell leakage).
        let mut shared = DtwScratch::new();
        for (a, b) in &pairs {
            let opts = DtwOptions { window: Some(4) };
            let reused = kernel::dtw(a, b, opts, &mut shared).unwrap();
            let fresh = kernel::dtw(a, b, opts, &mut DtwScratch::new()).unwrap();
            prop_assert_eq!(reused.to_bits(), fresh.to_bits());
        }
    }

    #[test]
    fn sq_dist_and_dot_match_scalar_sums_over_the_shorter_input(
        a in proptest::collection::vec(-50.0..50.0f64, 0..18),
        b in proptest::collection::vec(-50.0..50.0f64, 0..18),
    ) {
        // Lengths are drawn independently, so most cases are unequal.
        check_sq_dist_and_dot(&a, &b);
    }

    #[test]
    fn mean_std_matches_stats(
        xs in proptest::collection::vec(-100.0..100.0f64, 0..70),
    ) {
        let (m, s) = kernel::mean_std(&xs);
        prop_assert!(rel_close(m, tscore::stats::mean(&xs), 1e-12));
        prop_assert!(rel_close(s, tscore::stats::std(&xs), 1e-12));
    }
}

/// Checks `sq_dist` and `dot` against scalar sums over the first
/// `min(a.len(), b.len())` elements, within 1e-12 relative to the sum of
/// the terms' magnitudes (the bound a reassociated sum can promise).
fn check_sq_dist_and_dot(a: &[f64], b: &[f64]) {
    let pairs = || a.iter().zip(b);
    let sq: f64 = pairs().map(|(x, y)| (x - y) * (x - y)).sum();
    let fast = kernel::sq_dist(a, b);
    assert!(rel_close(fast, sq, 1e-12), "sq_dist {fast} vs {sq}");
    let d: f64 = pairs().map(|(x, y)| x * y).sum();
    let scale: f64 = pairs().map(|(x, y)| (x * y).abs()).sum();
    let fast = kernel::dot(a, b);
    assert!(
        (fast - d).abs() <= 1e-12 * scale.max(1.0),
        "dot {fast} vs {d}"
    );
}

/// `sq_dist` and `dot` over every pair of lengths 0..=17: every lane
/// remainder on each side, equal and unequal lengths.
#[test]
fn sq_dist_and_dot_cover_every_length_pair() {
    for na in 0..=17usize {
        for nb in 0..=17usize {
            let a: Vec<f64> = (0..na).map(|i| (i as f64 * 0.37).sin() * 40.0).collect();
            let b: Vec<f64> = (0..nb)
                .map(|i| (i as f64 * 0.53 + 1.3).cos() * 25.0)
                .collect();
            check_sq_dist_and_dot(&a, &b);
        }
    }
    // Equal lengths: `sq_euclidean` is `sq_dist` behind a length check.
    let a = [1.0, 2.0, 3.0];
    assert_eq!(
        kernel::sq_euclidean(&a, &[0.0; 3]).unwrap(),
        kernel::sq_dist(&a, &[0.0; 3])
    );
    assert!(kernel::sq_euclidean(&a, &[0.0; 2]).is_err());
    assert_eq!(kernel::sq_dist(&a, &[0.0; 2]), 5.0);
}

/// Every lane remainder n mod 8 ∈ 0..8, plus empty and constant inputs —
/// the edge cases the chunked loops must not get wrong.
#[test]
fn all_lane_remainders_and_degenerate_inputs() {
    for n in 0..=24usize {
        let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 0.1).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37 + 1.3).cos()).collect();

        let fast_e = kernel::euclidean(&a, &b).unwrap();
        let slow_e = oracle::euclidean(&a, &b).unwrap();
        assert!(rel_close(fast_e, slow_e, 1e-12), "euclidean n={n}");

        if n > 0 {
            let fast_z = kernel::znorm_euclidean(&a, &b).unwrap();
            let slow_z = oracle::znorm_euclidean(&a, &b).unwrap();
            assert!(rel_close(fast_z, slow_z, 1e-12), "znorm_ed n={n}");

            let fast_s = kernel::sbd(&a, &b).unwrap();
            let slow_s = oracle::sbd(&a, &b).unwrap();
            assert!(rel_close(fast_s, slow_s, 1e-9), "sbd n={n}");

            let opts = DtwOptions { window: Some(3) };
            let fast_d = kernel::dtw(&a, &b, opts, &mut DtwScratch::new()).unwrap();
            let slow_d = oracle::dtw(&a, &b, opts).unwrap();
            assert_eq!(fast_d.to_bits(), slow_d.to_bits(), "dtw n={n}");
        }

        // Constant (zero-variance, zero-energy after centring) inputs.
        let c = vec![3.25; n];
        if n > 0 {
            let fast = kernel::znorm_euclidean(&c, &a).unwrap();
            let slow = oracle::znorm_euclidean(&c, &a).unwrap();
            assert!(rel_close(fast, slow, 1e-12), "const znorm_ed n={n}");
            assert!(kernel::sbd(&c, &c).unwrap().is_finite());
        }
        let mut out = vec![f64::NAN; n];
        kernel::znorm_into(&c, &mut out);
        assert_eq!(out, oracle::znorm(&c), "const znorm n={n}");
    }
}
