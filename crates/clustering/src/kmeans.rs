//! k-Means (Lloyd's algorithm) with k-means++ initialisation.
//!
//! Spectral clustering runs it on the embedded eigenvectors, and it doubles
//! as the k-AVG raw baseline. k-Graph's per-length crossing counts are
//! clustered by the exact integer variant, [`KMeans::fit_counts`] in
//! [`crate::count_kmeans`], which shares this module's seeding loop
//! ([`kmeanspp_seeds`]) and rules.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tscore::kernel::sq_dist;

/// Configuration for [`KMeans`].
#[derive(Debug, Clone, Copy)]
pub struct KMeans {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations per restart.
    pub max_iter: usize,
    /// Number of k-means++ restarts; the best inertia wins.
    pub n_init: usize,
    /// RNG seed (restart r uses `seed + r`).
    pub seed: u64,
}

impl KMeans {
    /// Creates a k-Means configuration with sane defaults
    /// (`max_iter = 100`, `n_init = 5`).
    pub fn new(k: usize, seed: u64) -> Self {
        KMeans {
            k,
            max_iter: 100,
            n_init: 5,
            seed,
        }
    }

    /// Fits on `rows` (points as equal-length vectors).
    ///
    /// Panics if `k == 0` or `rows` is empty or ragged. When `k > n`, the
    /// extra clusters stay empty (labels still cover every point).
    pub fn fit(&self, rows: &[Vec<f64>]) -> KMeansResult {
        assert!(self.k > 0, "k must be > 0");
        assert!(!rows.is_empty(), "k-Means requires at least one point");
        let dim = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == dim), "ragged input rows");

        let mut best: Option<KMeansResult> = None;
        for restart in 0..self.n_init.max(1) {
            let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(restart as u64));
            let seeds = kmeanspp_seeds(rows.len(), self.k, &mut rng, |i, c| {
                sq_dist(&rows[i], &rows[c])
            });
            let result = self.lloyd(rows, seeds.iter().map(|&c| rows[c].clone()).collect());
            if best.as_ref().is_none_or(|b| result.inertia < b.inertia) {
                best = Some(result);
            }
        }
        best.expect("at least one restart ran")
    }

    /// Lloyd iterations from the initial `centroids`.
    fn lloyd(&self, rows: &[Vec<f64>], mut centroids: Vec<Vec<f64>>) -> KMeansResult {
        let n = rows.len();
        let k = centroids.len();
        let mut labels = vec![0usize; n];
        // Each row's squared distance to its assigned centroid.
        let mut dists = vec![0.0; n];
        let mut inertia = f64::INFINITY;

        for _ in 0..self.max_iter {
            // Assignment step.
            let mut new_inertia = 0.0;
            for (i, row) in rows.iter().enumerate() {
                (labels[i], dists[i]) = nearest(row, &centroids);
                new_inertia += dists[i];
            }
            // Update step.
            let mut sums = vec![vec![0.0; rows[0].len()]; k];
            let mut counts = vec![0usize; k];
            for (row, &l) in rows.iter().zip(&labels) {
                counts[l] += 1;
                for (s, &x) in sums[l].iter_mut().zip(row) {
                    *s += x;
                }
            }
            for c in 0..k {
                if counts[c] == 0 {
                    // Re-seed an empty cluster at the point farthest from
                    // its own centroid to avoid dead centroids.
                    let far = (0..n)
                        .max_by(|&a, &b| dists[a].total_cmp(&dists[b]))
                        .unwrap_or(0);
                    centroids[c] = rows[far].clone();
                } else {
                    for (j, s) in sums[c].iter().enumerate() {
                        centroids[c][j] = s / counts[c] as f64;
                    }
                }
            }
            if (inertia - new_inertia).abs() < 1e-10 {
                inertia = new_inertia;
                break;
            }
            inertia = new_inertia;
        }
        // Pad empty trailing clusters so `centroids.len() == self.k`.
        while centroids.len() < self.k {
            centroids.push(centroids[0].clone());
        }
        KMeansResult {
            labels,
            centroids,
            inertia,
        }
    }
}

/// Output of a k-Means fit.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Cluster label per input row.
    pub labels: Vec<usize>,
    /// Final centroids (`k` rows).
    pub centroids: Vec<Vec<f64>>,
    /// Sum of squared distances to assigned centroids.
    pub inertia: f64,
}

impl KMeansResult {
    /// Predicts the cluster of a new point (nearest centroid).
    pub fn predict(&self, row: &[f64]) -> usize {
        nearest(row, &self.centroids).0
    }
}

fn nearest(row: &[f64], centroids: &[Vec<f64>]) -> (usize, f64) {
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (c, centroid) in centroids.iter().enumerate() {
        let d = sq_dist(row, centroid);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, best_d)
}

/// k-means++ seeding over row indices: the first centre is a uniform
/// draw, each later one a draw proportional to `dist(row, centre)` from the
/// row's nearest chosen centre. Returns the `min(k, n)` chosen row indices.
/// `dist(i, c)` is called for every row `i` against one centre `c` at a
/// time.
///
/// Both [`KMeans::fit`] and [`KMeans::fit_counts`] seed through this loop,
/// so equal distances give equal draws.
pub fn kmeanspp_seeds(
    n: usize,
    k: usize,
    rng: &mut StdRng,
    mut dist: impl FnMut(usize, usize) -> f64,
) -> Vec<usize> {
    let k = k.min(n);
    let mut seeds = Vec::with_capacity(k);
    seeds.push(rng.gen_range(0..n));
    let mut d2: Vec<f64> = (0..n).map(|i| dist(i, seeds[0])).collect();
    while seeds.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= f64::MIN_POSITIVE {
            // All points coincide with existing centroids; pick uniformly.
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = n - 1;
            for (i, &d) in d2.iter().enumerate() {
                if target < d {
                    chosen = i;
                    break;
                }
                target -= d;
            }
            chosen
        };
        seeds.push(next);
        for (i, best) in d2.iter_mut().enumerate() {
            let d = dist(i, next);
            if d < *best {
                *best = d;
            }
        }
    }
    seeds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::adjusted_rand_index;

    fn three_blobs() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        let centers = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)];
        for (c, &(cx, cy)) in centers.iter().enumerate() {
            for i in 0..20 {
                let jitter = (i as f64 % 5.0) * 0.05;
                rows.push(vec![cx + jitter, cy - jitter]);
                truth.push(c);
            }
        }
        (rows, truth)
    }

    #[test]
    fn recovers_separated_blobs() {
        let (rows, truth) = three_blobs();
        let result = KMeans::new(3, 0).fit(&rows);
        assert!((adjusted_rand_index(&truth, &result.labels) - 1.0).abs() < 1e-12);
        assert_eq!(result.centroids.len(), 3);
    }

    #[test]
    fn deterministic_given_seed() {
        let (rows, _) = three_blobs();
        let a = KMeans::new(3, 9).fit(&rows);
        let b = KMeans::new(3, 9).fit(&rows);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.inertia, b.inertia);
    }

    #[test]
    fn inertia_decreases_with_k() {
        let (rows, _) = three_blobs();
        let i1 = KMeans::new(1, 0).fit(&rows).inertia;
        let i2 = KMeans::new(2, 0).fit(&rows).inertia;
        let i3 = KMeans::new(3, 0).fit(&rows).inertia;
        assert!(i1 > i2, "{i1} > {i2}");
        assert!(i2 > i3, "{i2} > {i3}");
        assert!(i3 < 1.0);
    }

    #[test]
    fn k_equals_one() {
        let (rows, _) = three_blobs();
        let r = KMeans::new(1, 0).fit(&rows);
        assert!(r.labels.iter().all(|&l| l == 0));
        // Centroid is the global mean.
        let mean_x: f64 = rows.iter().map(|r| r[0]).sum::<f64>() / rows.len() as f64;
        assert!((r.centroids[0][0] - mean_x).abs() < 1e-9);
    }

    #[test]
    fn k_larger_than_n() {
        let rows = vec![vec![0.0], vec![1.0]];
        let r = KMeans::new(5, 0).fit(&rows);
        assert_eq!(r.labels.len(), 2);
        assert_eq!(r.centroids.len(), 5);
        assert!(r.labels.iter().all(|&l| l < 5));
        assert!(r.inertia < 1e-12);
    }

    #[test]
    fn identical_points() {
        let rows = vec![vec![3.0, 3.0]; 10];
        let r = KMeans::new(3, 1).fit(&rows);
        assert!(r.inertia < 1e-12);
        assert_eq!(r.labels.len(), 10);
    }

    #[test]
    fn predict_nearest_centroid() {
        let (rows, _) = three_blobs();
        let r = KMeans::new(3, 0).fit(&rows);
        let near_first_blob = r.predict(&[0.2, 0.1]);
        let same_as_member = r.labels[0];
        assert_eq!(near_first_blob, same_as_member);
    }

    #[test]
    #[should_panic(expected = "k must be > 0")]
    fn zero_k_panics() {
        KMeans::new(0, 0).fit(&[vec![1.0]]);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_input_panics() {
        KMeans::new(2, 0).fit(&[]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_input_panics() {
        KMeans::new(1, 0).fit(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn kmeanspp_spreads_centroids() {
        let (rows, _) = three_blobs();
        let mut rng = StdRng::seed_from_u64(0);
        let seeds = kmeanspp_seeds(rows.len(), 3, &mut rng, |i, c| sq_dist(&rows[i], &rows[c]));
        let c: Vec<&Vec<f64>> = seeds.iter().map(|&i| &rows[i]).collect();
        assert_eq!(c.len(), 3);
        // The three seeds should land in three different blobs with
        // overwhelming probability given the separation.
        let blob_of = |p: &&Vec<f64>| -> usize {
            if p[0] > 5.0 {
                1
            } else if p[1] > 5.0 {
                2
            } else {
                0
            }
        };
        let blobs: std::collections::HashSet<usize> = c.iter().map(blob_of).collect();
        assert_eq!(blobs.len(), 3, "seeds landed in {blobs:?}");
    }

    #[test]
    fn empty_cluster_reseeds_at_the_row_farthest_from_its_own_centroid() {
        // The centroid at 1000 wins no row. Row 12 is the farthest from its
        // own centroid (49 from 5); row 52 is the farthest from the first
        // row's centroid (47² from 5). Re-seeding at row 12 converges to
        // {0}, {12}, {50, 51, 52}.
        let rows: Vec<Vec<f64>> = [0.0, 12.0, 50.0, 51.0, 52.0]
            .iter()
            .map(|&x| vec![x])
            .collect();
        let r = KMeans::new(3, 0).lloyd(&rows, vec![vec![5.0], vec![51.0], vec![1000.0]]);
        assert_eq!(r.labels, vec![0, 2, 1, 1, 1]);
        assert_eq!(r.centroids, vec![vec![0.0], vec![51.0], vec![12.0]]);
        assert_eq!(r.inertia, 2.0);
    }

    #[test]
    fn more_restarts_never_hurt() {
        let (rows, _) = three_blobs();
        let few = KMeans {
            k: 3,
            max_iter: 100,
            n_init: 1,
            seed: 5,
        }
        .fit(&rows);
        let many = KMeans {
            k: 3,
            max_iter: 100,
            n_init: 10,
            seed: 5,
        }
        .fit(&rows);
        assert!(many.inertia <= few.inertia + 1e-12);
    }
}
