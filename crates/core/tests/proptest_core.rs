//! Property-based tests for the tscore primitives (crate-local; the
//! workspace-level suite in `/tests` covers cross-crate properties).

use proptest::prelude::*;
use tscore::kernel::{self, DtwOptions, DtwScratch};
use tscore::{stats, windows};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn window_count_formula(
        n in 1usize..200,
        len in 1usize..50,
        stride in 1usize..10,
    ) {
        let count = windows::window_count(n, len, stride);
        if n >= len {
            // Last window start must fit; one more window must not.
            let last_start = (count - 1) * stride;
            prop_assert!(last_start + len <= n);
            prop_assert!(count * stride + len > n);
        } else {
            prop_assert_eq!(count, 0);
        }
    }

    #[test]
    fn sbd_shift_consistency(
        base in proptest::collection::vec(-5.0..5.0f64, 16..=16),
        shift in -6isize..6,
    ) {
        // Shifting any signal never increases its SBD beyond the worst case
        // and perfect alignment is recovered for small shifts of a padded
        // signal.
        let mut padded = vec![0.0; 32];
        padded[8..24].copy_from_slice(&base);
        let shifted = kernel::apply_shift(&padded, shift);
        let energy: f64 = base.iter().map(|v| v * v).sum();
        prop_assume!(energy > 1e-6);
        let (d, found) = kernel::sbd_with_shift(&padded, &shifted).unwrap();
        prop_assert!(d < 1e-6, "SBD {d} for pure shift");
        // The detected shift must realign the signals (it need not equal the
        // applied one: periodic signals tie at several shifts).
        let aligned = kernel::apply_shift(&shifted, found);
        let gap = kernel::euclidean(&padded, &aligned).unwrap();
        let norm = padded.iter().map(|v| v * v).sum::<f64>().sqrt();
        prop_assert!(gap < 1e-5 * (1.0 + norm), "gap {gap} after realignment");
    }

    #[test]
    fn dtw_symmetric(
        a in proptest::collection::vec(-5.0..5.0f64, 4..16),
        b in proptest::collection::vec(-5.0..5.0f64, 4..16),
    ) {
        let opts = DtwOptions::default();
        let mut scratch = DtwScratch::new();
        let d1 = kernel::dtw(&a, &b, opts, &mut scratch).unwrap();
        let d2 = kernel::dtw(&b, &a, opts, &mut scratch).unwrap();
        prop_assert!((d1 - d2).abs() < 1e-9);
        prop_assert!(d1 >= 0.0);
    }

    #[test]
    fn five_number_summary_ordered(xs in proptest::collection::vec(-100.0..100.0f64, 1..60)) {
        let (mn, q1, md, q3, mx) = stats::five_number_summary(&xs);
        prop_assert!(mn <= q1 + 1e-12);
        prop_assert!(q1 <= md + 1e-12);
        prop_assert!(md <= q3 + 1e-12);
        prop_assert!(q3 <= mx + 1e-12);
    }

    #[test]
    fn autocorrelation_at_zero_is_one(xs in proptest::collection::vec(-10.0..10.0f64, 2..50)) {
        prop_assume!(stats::std(&xs) > 1e-6);
        prop_assert!((stats::autocorrelation(&xs, 0) - 1.0).abs() < 1e-9);
        // And |acf| ≤ 1 at any lag.
        for lag in 1..xs.len().min(5) {
            prop_assert!(stats::autocorrelation(&xs, lag).abs() <= 1.0 + 1e-9);
        }
    }
}
