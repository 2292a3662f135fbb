//! Property-based tests for the clustering algorithms: structural
//! invariants that must hold for *any* input, not just the curated
//! fixtures of the unit tests.

use clustering::agglo::{Agglomerative, Linkage};
use clustering::count_kmeans::CountRow;
use clustering::kmeans::KMeans;
use clustering::metrics;
use clustering::spectral::{rbf_affinity, spectral_clustering, SpectralOptions};
use kgraph::consensus::{consensus_labels_from_partitions, consensus_matrix};
use linalg::eigen::symmetric_eigen;
use linalg::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Random small point cloud: n points in d dimensions.
fn cloud(n_range: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<f64>>> {
    n_range.prop_flat_map(|n| {
        proptest::collection::vec(proptest::collection::vec(-10.0..10.0f64, 3..=3), n..=n)
    })
}

/// The dense spectral path that the reduced solve replaced: Jacobi on the
/// full n × n Laplacian, then the same row normalisation and k-Means call.
/// Returns the labels and the Laplacian's eigenvalues in ascending order.
fn dense_spectral_oracle(affinity: &Matrix, opts: SpectralOptions) -> (Vec<usize>, Vec<f64>) {
    let n = affinity.rows();
    let mut degrees = vec![0.0f64; n];
    for i in 0..n {
        for j in 0..n {
            degrees[i] += affinity[(i, j)].max(0.0);
        }
    }
    let inv_sqrt: Vec<f64> = degrees
        .iter()
        .map(|&d| if d > 1e-12 { 1.0 / d.sqrt() } else { 0.0 })
        .collect();
    let lap = Matrix::from_fn(n, n, |i, j| {
        let v = -inv_sqrt[i] * affinity[(i, j)].max(0.0) * inv_sqrt[j];
        if i == j {
            1.0 + v
        } else {
            v
        }
    });
    let eig = symmetric_eigen(&lap);
    let k = opts.k.min(n);
    let mut embedding = vec![vec![0.0f64; k]; n];
    for (c, col) in (n - k..n).rev().enumerate() {
        for (i, e_row) in embedding.iter_mut().enumerate() {
            e_row[c] = eig.vectors[(i, col)];
        }
    }
    for row in &mut embedding {
        let norm = row.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 1e-12 {
            for x in row.iter_mut() {
                *x /= norm;
            }
        }
    }
    let labels = KMeans {
        k: opts.k,
        max_iter: 200,
        n_init: opts.n_init,
        seed: opts.seed,
    }
    .fit(&embedding)
    .labels;
    (labels, eig.values.into_iter().rev().collect())
}

/// Group index of every row, rows grouped by bit-identical contents.
fn identical_row_groups(m: &Matrix) -> Vec<usize> {
    let mut reps: Vec<usize> = Vec::new();
    (0..m.rows())
        .map(|i| {
            let same = |r: &usize| {
                m.row(*r)
                    .iter()
                    .zip(m.row(i))
                    .all(|(a, b)| a.to_bits() == b.to_bits())
            };
            reps.iter().position(same).unwrap_or_else(|| {
                reps.push(i);
                reps.len() - 1
            })
        })
        .collect()
}

/// `m` noisy relabelings of one hidden `k`-class partition of `n` series:
/// the shape of k-Graph's per-length partitions.
fn noisy_partitions(n: usize, m: usize, k: usize, noise: f64, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let truth: Vec<usize> = (0..n).map(|_| rng.gen_range(0..k)).collect();
    (0..m)
        .map(|_| {
            let shift = rng.gen_range(0..k);
            truth
                .iter()
                .map(|&t| {
                    if rng.gen_range(0.0..1.0) < noise {
                        rng.gen_range(0..k)
                    } else {
                        (t + shift) % k
                    }
                })
                .collect()
        })
        .collect()
}

/// Random count matrix: 1–29 rows drawn, with repeats, from a pool of 1–7
/// rows of 1–9 columns, with 5 in 8 counts zero and the rest 1–3.
fn count_matrix() -> impl Strategy<Value = Vec<Vec<u32>>> {
    (1usize..10, 1usize..8)
        .prop_flat_map(|(dim, pool)| {
            let count = (0u32..8).prop_map(|v| v.saturating_sub(4));
            (
                proptest::collection::vec(proptest::collection::vec(count, dim), pool),
                proptest::collection::vec(0..pool, 1..30),
            )
        })
        .prop_map(|(pool, picks)| picks.into_iter().map(|i| pool[i].clone()).collect())
}

/// Cases of `fit_counts_matches_float_kmeans` whose labels differ from the
/// float fit's through a tied restart choice.
static RESTART_TIES: AtomicUsize = AtomicUsize::new(0);

#[test]
fn kgraph_fit_matches_dense_spectral_oracle() {
    let ds = datasets::cbf::cbf(100, 256, 7);
    let model = kgraph::KGraph::new(kgraph::KGraphConfig::new(3).with_seed(7)).fit(&ds);
    assert_eq!(model.config.n_lengths, 5);
    let (oracle, _) = dense_spectral_oracle(&model.consensus(), SpectralOptions::new(3, 7));
    assert_eq!(model.labels, oracle);
}

/// The fit's consensus from label signatures against spectral clustering on
/// the dense consensus matrix, at the corners a random draw seldom hits:
/// no series, one series, `k = 1`, and fewer signatures than clusters.
#[test]
fn signature_consensus_matches_the_matrix_path_at_the_corners() {
    let mut fewer_signatures_than_k = 0;
    for n in [0usize, 1, 2, 9, 40] {
        for (m, classes) in [(1usize, 1usize), (1, 3), (3, 2), (5, 3)] {
            for k in [1usize, 2, 3, 7] {
                let partitions =
                    noisy_partitions(n, m, classes, 0.2, (n * 100 + m * 10 + k) as u64);
                let mc = consensus_matrix(&partitions);
                let s = identical_row_groups(&mc).iter().max().map_or(0, |g| g + 1);
                fewer_signatures_than_k += usize::from(n > 0 && s < k);
                assert_eq!(
                    consensus_labels_from_partitions(&partitions, k, 11),
                    spectral_clustering(&mc, SpectralOptions::new(k, 11)),
                    "n={n} m={m} classes={classes} k={k} s={s}"
                );
            }
        }
    }
    assert!(fewer_signatures_than_k > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16384))]

    #[test]
    fn fit_counts_matches_float_kmeans(
        counts in count_matrix(),
        k in 1usize..8,
        n_init in 1usize..4,
        seed in 0u64..1000,
    ) {
        let floats: Vec<Vec<f64>> = counts
            .iter()
            .map(|r| r.iter().map(|&v| f64::from(v)).collect())
            .collect();
        let rows: Vec<CountRow> = counts
            .iter()
            .map(|r| {
                let columns = r.iter().enumerate();
                CountRow::tally(columns.flat_map(|(j, &v)| vec![j as u32; v as usize]).collect())
            })
            .collect();
        let km = KMeans { k, max_iter: 100, n_init, seed };
        let exact = km.fit_counts(&rows);
        let float = km.fit(&floats).labels;
        if exact != float {
            // Every restart alone must agree. The two paths may then pick
            // different restarts only where the float inertias are within
            // 1e-9 relative: an exact tie that float sums broke.
            let (mut float_inertia, mut exact_inertia) = (None, None);
            for r in 0..n_init {
                let one = KMeans { n_init: 1, seed: seed + r as u64, ..km };
                let fit = one.fit(&floats);
                prop_assert_eq!(&fit.labels, &one.fit_counts(&rows), "restart {}", r);
                if fit.labels == float {
                    float_inertia.get_or_insert(fit.inertia);
                }
                if fit.labels == exact {
                    exact_inertia.get_or_insert(fit.inertia);
                }
            }
            let (a, b) = (float_inertia.unwrap_or(f64::NAN), exact_inertia.unwrap_or(f64::NAN));
            prop_assert!((a - b).abs() <= 1e-9 * a.max(b), "inertia {} vs {}", a, b);
            let ties = RESTART_TIES.fetch_add(1, Ordering::Relaxed) + 1;
            eprintln!("fit_counts_matches_float_kmeans: tied restart choice #{ties}, {a} vs {b}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kmeans_labels_in_range_and_inertia_consistent(rows in cloud(3..20), k in 1usize..5) {
        let result = KMeans::new(k, 7).fit(&rows);
        prop_assert_eq!(result.labels.len(), rows.len());
        prop_assert!(result.labels.iter().all(|&l| l < k.max(1)));
        // Reported inertia matches a recomputation from labels+centroids.
        let recomputed = metrics::inertia(&rows, &result.labels, &result.centroids);
        prop_assert!((result.inertia - recomputed).abs() < 1e-6 * (1.0 + recomputed));
    }

    #[test]
    fn kmeans_assignments_are_nearest_centroid(rows in cloud(4..16)) {
        let result = KMeans::new(2, 3).fit(&rows);
        for (row, &l) in rows.iter().zip(&result.labels) {
            let d = |c: &Vec<f64>| -> f64 {
                c.iter().zip(row).map(|(a, b)| (a - b) * (a - b)).sum()
            };
            let mine = d(&result.centroids[l]);
            for c in &result.centroids {
                prop_assert!(mine <= d(c) + 1e-9);
            }
        }
    }

    #[test]
    fn agglomerative_produces_exactly_k_compact_labels(rows in cloud(4..16), k in 1usize..5) {
        let k = k.min(rows.len());
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average, Linkage::Ward] {
            let labels = Agglomerative::new(k, linkage).fit(&rows);
            prop_assert_eq!(labels.len(), rows.len());
            let distinct: std::collections::HashSet<_> = labels.iter().collect();
            prop_assert_eq!(distinct.len(), k, "{:?}", linkage);
            // Compact: labels are 0..k.
            prop_assert!(labels.iter().all(|&l| l < k));
        }
    }

    #[test]
    fn dbscan_labels_partition_or_noise(rows in cloud(3..15), eps in 0.5..10.0f64) {
        let labels = clustering::dbscan::Dbscan::new(eps, 2).fit(&rows);
        prop_assert_eq!(labels.len(), rows.len());
        let fixed = clustering::dbscan::assign_noise_to_nearest(&rows, &labels);
        prop_assert!(fixed.iter().all(|&l| l != clustering::dbscan::NOISE));
    }

    #[test]
    fn gmm_weights_sum_to_one(rows in cloud(4..16), k in 1usize..4) {
        let result = clustering::gmm::Gmm::new(k, 1).fit(&rows);
        let sum: f64 = result.weights.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "weights sum {sum}");
        prop_assert!(result.log_likelihood.is_finite());
        prop_assert!(result.variances.iter().flatten().all(|&v| v > 0.0));
    }

    #[test]
    fn birch_covers_every_point(rows in cloud(3..20), k in 1usize..4) {
        let labels = clustering::birch::Birch::new(k, 0).fit(&rows);
        prop_assert_eq!(labels.len(), rows.len());
        prop_assert!(labels.iter().all(|&l| l < k));
    }

    #[test]
    fn feature_extraction_always_finite(xs in proptest::collection::vec(-100.0..100.0f64, 0..80)) {
        let f = clustering::features::extract_features(&xs);
        prop_assert_eq!(f.len(), clustering::features::BASE_FEATURE_NAMES.len());
        prop_assert!(f.iter().all(|v| v.is_finite()));
        let s = clustering::features::extract_spectral_features(&xs);
        prop_assert!(s.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn sbd_self_distance_is_zero(
        a in proptest::collection::vec(-5.0..5.0f64, 8..=8),
    ) {
        // SBD(a, a) == 0 and SBD never negative (within fp noise).
        prop_assume!(a.iter().map(|v| v * v).sum::<f64>() > 1e-9);
        let d = tscore::kernel::sbd(&a, &a).unwrap();
        prop_assert!(d.abs() < 1e-9, "self distance {d}");
    }

    #[test]
    fn spectral_on_random_affinity_is_total(n in 2usize..10, k in 1usize..4) {
        // Symmetric random-ish affinity built deterministically from n.
        let aff = linalg::Matrix::from_fn(n, n, |i, j| {
            if i == j {
                1.0
            } else {
                let h = ((i * 31 + j * 17) % 10) as f64 / 10.0;
                let h2 = ((j * 31 + i * 17) % 10) as f64 / 10.0;
                (h + h2) / 2.0
            }
        });
        let labels = clustering::spectral::spectral_clustering(
            &aff,
            clustering::spectral::SpectralOptions::new(k.min(n), 0),
        );
        prop_assert_eq!(labels.len(), n);
        prop_assert!(labels.iter().all(|&l| l < k.min(n).max(1)));
    }

}

// The reduced spectral solve against the dense oracle.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn signature_consensus_matches_the_matrix_path(
        (n, m, classes) in (0usize..161, 1usize..7, 1usize..6),
        k in 1usize..8,
        noise in 0.0..0.5f64,
        seed in 0u64..1_000_000,
    ) {
        let partitions = noisy_partitions(n, m, classes, noise, seed);
        let matrix = spectral_clustering(&consensus_matrix(&partitions), SpectralOptions::new(k, seed));
        prop_assert_eq!(
            consensus_labels_from_partitions(&partitions, k, seed),
            matrix,
            "n={} m={} classes={} k={}", n, m, classes, k
        );
    }

    #[test]
    fn spectral_on_consensus_matches_dense_oracle(
        (n, m, k) in (5usize..161, 1usize..7, 2usize..6),
        noise in 0.0..0.5f64,
        seed in 0u64..1_000_000,
    ) {
        let mc = consensus_matrix(&noisy_partitions(n, m, k, noise, seed));
        let s = identical_row_groups(&mc).iter().max().map_or(0, |g| g + 1);
        let opts = SpectralOptions::new(k, seed);
        let (oracle, ascending) = dense_spectral_oracle(&mc, opts);
        // Only a separated bottom-k eigenspace has a well-defined answer.
        prop_assume!(s >= k && (k == n || ascending[k] - ascending[k - 1] > 1e-8));
        prop_assert_eq!(spectral_clustering(&mc, opts), oracle, "n={} m={} k={} s={}", n, m, k, s);
    }

    #[test]
    fn spectral_without_duplicate_rows_matches_dense_oracle(rows in cloud(3..40), k in 2usize..5) {
        let aff = rbf_affinity(&rows, None);
        prop_assume!(identical_row_groups(&aff).iter().enumerate().all(|(i, &g)| i == g));
        let opts = SpectralOptions::new(k, 3);
        prop_assert_eq!(spectral_clustering(&aff, opts), dense_spectral_oracle(&aff, opts).0);
    }

    #[test]
    fn spectral_underdetermined_is_total(
        (n, m, classes) in (0usize..40, 1usize..4, 1usize..4),
        k in 1usize..9,
        isolated in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        // Few signatures (often fewer than k) plus isolated zero-degree rows.
        let mut mc = if n == 0 {
            Matrix::zeros(0, 0)
        } else {
            consensus_matrix(&noisy_partitions(n, m, classes, 0.1, seed))
        };
        for r in (0..n).step_by(7).take(isolated) {
            for j in 0..n {
                mc[(r, j)] = 0.0;
                mc[(j, r)] = 0.0;
            }
        }
        let labels = spectral_clustering(&mc, SpectralOptions::new(k, seed));
        prop_assert_eq!(labels.len(), n);
        prop_assert!(labels.iter().all(|&l| l < k));
        let groups = identical_row_groups(&mc);
        for i in 0..n {
            for j in 0..i {
                if groups[i] == groups[j] {
                    prop_assert_eq!(labels[i], labels[j], "identical rows {} and {}", j, i);
                }
            }
        }
    }
}
