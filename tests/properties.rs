//! Property-based tests (proptest) over the core invariants of the
//! system: metrics, transforms, distances, consensus and graphoids.

use clustering::metrics::{
    adjusted_mutual_information, adjusted_rand_index, normalized_mutual_information, purity,
    rand_index,
};
use proptest::prelude::*;
use tscore::kernel::{self, DtwOptions, DtwScratch};

#[path = "../crates/core/tests/oracle/mod.rs"]
mod oracle;

fn labelings(n: usize, k: usize) -> impl Strategy<Value = (Vec<usize>, Vec<usize>)> {
    (
        proptest::collection::vec(0..k, n..=n),
        proptest::collection::vec(0..k, n..=n),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ari_bounded_and_reflexive((a, b) in labelings(24, 4)) {
        let ari = adjusted_rand_index(&a, &b);
        prop_assert!((-1.0..=1.0).contains(&ari));
        prop_assert!((adjusted_rand_index(&a, &a) - 1.0).abs() < 1e-12);
        // Symmetry.
        prop_assert!((ari - adjusted_rand_index(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn ari_invariant_to_label_permutation(a in proptest::collection::vec(0..3usize, 20..=20)) {
        // Relabel 0→2, 1→0, 2→1.
        let perm: Vec<usize> = a.iter().map(|&l| (l + 2) % 3).collect();
        prop_assert!((adjusted_rand_index(&a, &perm) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn metric_family_bounds((a, b) in labelings(20, 3)) {
        prop_assert!((0.0..=1.0).contains(&rand_index(&a, &b)));
        prop_assert!((0.0..=1.0).contains(&normalized_mutual_information(&a, &b)));
        prop_assert!((-1.0..=1.0).contains(&adjusted_mutual_information(&a, &b)));
        let p = purity(&a, &b);
        prop_assert!(p > 0.0 && p <= 1.0);
    }

    #[test]
    fn znorm_properties(xs in proptest::collection::vec(-100.0..100.0f64, 4..64)) {
        let z = tscore::transform::znorm(&xs);
        prop_assert_eq!(z.len(), xs.len());
        let mean = tscore::stats::mean(&z);
        prop_assert!(mean.abs() < 1e-9);
        let sd = tscore::stats::std(&z);
        // Either unit std, or the input was constant (then all-zero).
        prop_assert!((sd - 1.0).abs() < 1e-9 || z.iter().all(|v| v.abs() < 1e-9));
    }

    #[test]
    fn resample_preserves_endpoints(
        xs in proptest::collection::vec(-10.0..10.0f64, 2..50),
        target in 2usize..80,
    ) {
        let r = tscore::transform::resample(&xs, target).unwrap();
        prop_assert_eq!(r.len(), target);
        prop_assert!((r[0] - xs[0]).abs() < 1e-9);
        prop_assert!((r[target - 1] - xs[xs.len() - 1]).abs() < 1e-9);
        // Interpolation stays within the input envelope.
        let lo = tscore::stats::min(&xs) - 1e-9;
        let hi = tscore::stats::max(&xs) + 1e-9;
        prop_assert!(r.iter().all(|&v| v >= lo && v <= hi));
    }

    #[test]
    fn euclidean_is_a_metric(
        a in proptest::collection::vec(-10.0..10.0f64, 8..=8),
        b in proptest::collection::vec(-10.0..10.0f64, 8..=8),
        c in proptest::collection::vec(-10.0..10.0f64, 8..=8),
    ) {
        let d = |x: &[f64], y: &[f64]| kernel::euclidean(x, y).unwrap();
        prop_assert!(d(&a, &b) >= 0.0);
        prop_assert!((d(&a, &b) - d(&b, &a)).abs() < 1e-9);
        prop_assert!(d(&a, &a) < 1e-12);
        prop_assert!(d(&a, &c) <= d(&a, &b) + d(&b, &c) + 1e-9);
    }

    #[test]
    fn sbd_bounds_and_symmetry(
        a in proptest::collection::vec(-10.0..10.0f64, 8..=8),
        b in proptest::collection::vec(-10.0..10.0f64, 8..=8),
    ) {
        let d = kernel::sbd(&a, &b).unwrap();
        prop_assert!((-1e-9..=2.0 + 1e-9).contains(&d));
        // SBD is symmetric (NCC of (a,b) mirrors (b,a)).
        let d2 = kernel::sbd(&b, &a).unwrap();
        prop_assert!((d - d2).abs() < 1e-9);
    }

    #[test]
    fn ncc_max_matches_direct(
        a in proptest::collection::vec(-5.0..5.0f64, 4..32),
    ) {
        // k-Shape's NCC: the kernel's maximum over every shift, against
        // the direct correlation sequence.
        let b: Vec<f64> = a.iter().rev().copied().collect();
        let direct = oracle::ncc(&a, &b).unwrap();
        let (max, shift) = kernel::ncc_max_with_shift(&a, &b).unwrap();
        let best = direct.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((max - best).abs() < 1e-6, "direct {} vs kernel {}", best, max);
        let at = (shift + a.len() as isize - 1) as usize;
        prop_assert!((direct[at] - best).abs() < 1e-9, "shift {} is not a maximum", shift);
    }

    #[test]
    fn dtw_never_exceeds_euclidean(
        a in proptest::collection::vec(-5.0..5.0f64, 6..=6),
        b in proptest::collection::vec(-5.0..5.0f64, 6..=6),
    ) {
        // The identity warping path is admissible, so unconstrained DTW is
        // bounded above by the Euclidean distance.
        let dtw = kernel::dtw(&a, &b, DtwOptions::default(), &mut DtwScratch::new()).unwrap();
        let eu = kernel::euclidean(&a, &b).unwrap();
        prop_assert!(dtw <= eu + 1e-9, "dtw {} > euclid {}", dtw, eu);
        prop_assert!(dtw >= 0.0);
    }

    #[test]
    fn consensus_matrix_properties(
        partitions in proptest::collection::vec(
            proptest::collection::vec(0..3usize, 12..=12),
            1..5,
        ),
    ) {
        let mc = kgraph::consensus::consensus_matrix(&partitions);
        prop_assert!(mc.is_symmetric(1e-12));
        for i in 0..12 {
            prop_assert!((mc[(i, i)] - 1.0).abs() < 1e-12);
            for j in 0..12 {
                prop_assert!((0.0..=1.0 + 1e-12).contains(&mc[(i, j)]));
            }
        }
    }

    #[test]
    fn quantile_monotone(
        xs in proptest::collection::vec(-100.0..100.0f64, 2..40),
        q1 in 0.0..1.0f64,
        q2 in 0.0..1.0f64,
    ) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(tscore::stats::quantile(&xs, lo) <= tscore::stats::quantile(&xs, hi) + 1e-12);
    }

    #[test]
    fn kde_density_nonnegative(
        pts in proptest::collection::vec(-50.0..50.0f64, 1..30),
        x in -100.0..100.0f64,
    ) {
        let kde = linalg::kde::Kde::silverman(pts);
        prop_assert!(kde.density(x) >= 0.0);
        prop_assert!(kde.density(x).is_finite());
    }

    #[test]
    fn jacobi_reconstructs_random_symmetric(
        seedvals in proptest::collection::vec(-3.0..3.0f64, 10..=10),
    ) {
        // Build a 4x4 symmetric matrix from the 10 free entries.
        let mut m = linalg::Matrix::zeros(4, 4);
        let mut it = seedvals.into_iter();
        for i in 0..4 {
            for j in i..4 {
                let v = it.next().unwrap();
                m[(i, j)] = v;
                m[(j, i)] = v;
            }
        }
        let e = linalg::symmetric_eigen(&m);
        let mut lam = linalg::Matrix::zeros(4, 4);
        for i in 0..4 {
            lam[(i, i)] = e.values[i];
        }
        let rec = e.vectors.matmul(&lam).matmul(&e.vectors.transpose());
        prop_assert!(rec.sub(&m).frobenius() < 1e-7);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn lambda_graphoid_monotone_on_random_partitions(
        seed in 0u64..500,
        lambda_lo in 0.0..0.5f64,
        delta in 0.0..0.5f64,
    ) {
        // One shared fixture graph (cheap), random thresholds.
        use std::sync::OnceLock;
        static FIXTURE: OnceLock<(kgraph::GraphLayer, Vec<usize>)> = OnceLock::new();
        let (layer, labels) = FIXTURE.get_or_init(|| {
            let ds = datasets::cbf::cbf(5, 64, 9);
            let proj = kgraph::embed::project_subsequences(&ds, 16, 1, 400);
            let assign = kgraph::nodes::radial_scan(&proj, 12, 64, 0.05);
            let layer = kgraph::build::build_graph(&ds, &proj, &assign);
            (layer, ds.labels().unwrap().to_vec())
        });
        let _ = seed;
        let stats = kgraph::graphoid::ClusterStats::compute(layer, labels, 3);
        let lambda_hi = (lambda_lo + delta).min(1.0);
        for c in 0..3 {
            let loose = kgraph::graphoid::lambda_graphoid(&stats, layer, c, lambda_lo);
            let tight = kgraph::graphoid::lambda_graphoid(&stats, layer, c, lambda_hi);
            prop_assert!(tight.nodes.len() <= loose.nodes.len());
            for n in &tight.nodes {
                prop_assert!(loose.nodes.contains(n));
            }
            let gl = kgraph::graphoid::gamma_graphoid(&stats, layer, c, lambda_lo);
            let gt = kgraph::graphoid::gamma_graphoid(&stats, layer, c, lambda_hi);
            prop_assert!(gt.nodes.len() <= gl.nodes.len());
        }
    }
}
