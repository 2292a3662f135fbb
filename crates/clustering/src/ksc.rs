//! k-Spectral-Centroid clustering (Yang & Leskovec, WSDM 2011).
//!
//! k-SC clusters time series under a distance that is invariant to
//! *scaling* and *shifting*: `d̂(x, y) = min_{α, q} ‖x − α·y(q)‖ / ‖x‖`,
//! where `y(q)` shifts `y` by `q` positions. The optimal α for a fixed
//! shift has the closed form `α = xᵀy(q) / ‖y(q)‖²`. Centroids are the
//! minimisers of the within-cluster spectral distance, found as an
//! eigenvector of an accumulated matrix (power iteration here).

use linalg::matrix::Matrix;
use linalg::power_iteration;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tscore::kernel::{apply_shift, dot};

/// Scale/shift-invariant k-SC distance between `x` and `y`.
///
/// Searches shifts `q ∈ [−max_shift, max_shift]` exhaustively.
pub fn ksc_distance(x: &[f64], y: &[f64], max_shift: usize) -> f64 {
    ksc_distance_with_shift(x, y, max_shift).0
}

/// k-SC distance plus the best shift of `y` relative to `x`.
pub fn ksc_distance_with_shift(x: &[f64], y: &[f64], max_shift: usize) -> (f64, isize) {
    assert_eq!(x.len(), y.len(), "k-SC requires equal lengths");
    let nx2: f64 = x.iter().map(|v| v * v).sum();
    if nx2 <= f64::EPSILON {
        return (0.0, 0);
    }
    let mut best = f64::INFINITY;
    let mut best_shift = 0isize;
    let ms = max_shift as isize;
    for q in -ms..=ms {
        let yq = apply_shift(y, q);
        let ny2: f64 = yq.iter().map(|v| v * v).sum();
        if ny2 <= f64::EPSILON {
            continue;
        }
        let alpha = dot(x, &yq) / ny2;
        let dist2: f64 = x
            .iter()
            .zip(&yq)
            .map(|(a, b)| (a - alpha * b) * (a - alpha * b))
            .sum();
        let d = (dist2 / nx2).sqrt();
        if d < best {
            best = d;
            best_shift = q;
        }
    }
    if best.is_infinite() {
        // y had zero energy at every shift.
        (1.0, 0)
    } else {
        (best, best_shift)
    }
}

/// k-SC configuration.
#[derive(Debug, Clone, Copy)]
pub struct Ksc {
    /// Number of clusters.
    pub k: usize,
    /// Maximum alternation iterations.
    pub max_iter: usize,
    /// Maximum |shift| searched by the distance.
    pub max_shift: usize,
    /// RNG seed for the initial assignment.
    pub seed: u64,
}

/// Output of a k-SC fit.
#[derive(Debug, Clone)]
pub struct KscResult {
    /// Cluster label per series.
    pub labels: Vec<usize>,
    /// One centroid per cluster (unit norm).
    pub centroids: Vec<Vec<f64>>,
}

impl Ksc {
    /// Creates a configuration (`max_iter = 20`; shift budget = len/8 by
    /// default at fit time if `max_shift == usize::MAX`).
    pub fn new(k: usize, seed: u64) -> Self {
        Ksc {
            k,
            max_iter: 20,
            max_shift: usize::MAX,
            seed,
        }
    }

    /// Fits k-SC on equal-length rows.
    pub fn fit(&self, rows: &[Vec<f64>]) -> KscResult {
        assert!(self.k > 0, "k must be > 0");
        assert!(!rows.is_empty(), "k-SC requires at least one series");
        let m = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == m), "ragged input rows");
        let n = rows.len();
        let k = self.k.min(n);
        let max_shift = if self.max_shift == usize::MAX {
            (m / 8).max(1)
        } else {
            self.max_shift
        };

        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut labels: Vec<usize> = (0..n).map(|_| rng.gen_range(0..k)).collect();
        for c in 0..k {
            if !labels.contains(&c) {
                let i = rng.gen_range(0..n);
                labels[i] = c;
            }
        }
        let mut centroids: Vec<Vec<f64>> = vec![vec![0.0; m]; k];

        for _ in 0..self.max_iter {
            // Centroid refinement.
            for (c, centroid) in centroids.iter_mut().enumerate() {
                let members: Vec<usize> = (0..n).filter(|&i| labels[i] == c).collect();
                if members.is_empty() {
                    continue;
                }
                *centroid = spectral_centroid(rows, &members, centroid, max_shift);
            }
            // Assignment.
            let mut changed = false;
            for (i, row) in rows.iter().enumerate() {
                let mut best = labels[i];
                let mut best_d = f64::INFINITY;
                for (c, centroid) in centroids.iter().enumerate() {
                    if centroid.iter().all(|&x| x == 0.0) {
                        continue;
                    }
                    let d = ksc_distance(row, centroid, max_shift);
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                if best != labels[i] {
                    labels[i] = best;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        KscResult { labels, centroids }
    }
}

/// Spectral centroid of a member set: the eigenvector minimising the summed
/// k-SC distance, i.e. the smallest eigenvector of
/// `M = Σᵢ (I − xᵢxᵢᵀ/‖xᵢ‖²)` for members aligned to the previous centroid.
///
/// We need the *smallest* eigenpair; power iteration finds the largest, so
/// it is run on `(c·I − M)` with `c` = #members (an upper bound on M's
/// spectrum since each summand is a projector with eigenvalues in {0, 1}).
fn spectral_centroid(
    rows: &[Vec<f64>],
    members: &[usize],
    previous: &[f64],
    max_shift: usize,
) -> Vec<f64> {
    let m = previous.len();
    let use_alignment = previous.iter().any(|&x| x != 0.0);
    let mut mat = Matrix::zeros(m, m);
    let mut count = 0.0;
    for &i in members {
        let aligned = if use_alignment {
            let (_, q) = ksc_distance_with_shift(previous, &rows[i], max_shift);
            apply_shift(&rows[i], q)
        } else {
            rows[i].clone()
        };
        let norm2: f64 = aligned.iter().map(|v| v * v).sum();
        if norm2 <= f64::EPSILON {
            continue;
        }
        count += 1.0;
        for a in 0..m {
            let va = aligned[a];
            if va == 0.0 {
                continue;
            }
            let row = mat.row_mut(a);
            for (b, &vb) in aligned.iter().enumerate() {
                row[b] += va * vb / norm2;
            }
        }
    }
    if count == 0.0 {
        return previous.to_vec();
    }
    // M = count·I − Σ xxᵀ/‖x‖²; we want M's smallest eigenvector, which is
    // the *largest* of Σ xxᵀ/‖x‖² — run power iteration directly on `mat`.
    let (_, mut centroid) = power_iteration(&mat, 300, 1e-10);
    // Sign convention: positively correlated with the member mean.
    let mean_dot: f64 = members.iter().map(|&i| dot(&rows[i], &centroid)).sum();
    if mean_dot < 0.0 {
        for x in &mut centroid {
            *x = -*x;
        }
    }
    centroid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::adjusted_rand_index;

    #[test]
    fn distance_scale_invariant() {
        let x: Vec<f64> = (0..32).map(|i| (i as f64 * 0.4).sin()).collect();
        let y: Vec<f64> = x.iter().map(|v| 7.5 * v).collect();
        assert!(ksc_distance(&x, &y, 4) < 1e-9);
    }

    #[test]
    fn distance_shift_invariant() {
        let mut x = vec![0.0; 32];
        x[10] = 1.0;
        x[11] = 2.0;
        let y = apply_shift(&x, 3);
        let (d, q) = ksc_distance_with_shift(&x, &y, 5);
        assert!(d < 1e-9, "d = {d}");
        assert_eq!(q, -3);
    }

    #[test]
    fn distance_shift_budget_limits() {
        let mut x = vec![0.0; 32];
        x[10] = 1.0;
        let y = apply_shift(&x, 6);
        // Budget 2 cannot realign a shift of 6.
        assert!(ksc_distance(&x, &y, 2) > 0.9);
        assert!(ksc_distance(&x, &y, 8) < 1e-9);
    }

    #[test]
    fn distance_zero_energy() {
        let z = vec![0.0; 8];
        let x = vec![1.0; 8];
        assert_eq!(ksc_distance(&z, &x, 2), 0.0);
        assert!((ksc_distance(&x, &z, 2) - 1.0).abs() < 1e-12);
    }

    fn two_growth_patterns() -> (Vec<Vec<f64>>, Vec<usize>) {
        // Class 0: early spike; class 1: late ramp. Members differ by
        // amplitude and small shifts — the k-SC regime.
        let m = 48;
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for v in 0..8 {
            let amp = 1.0 + v as f64 * 0.7;
            let sh = (v % 3) as isize;
            let spike: Vec<f64> = (0..m)
                .map(|i| amp * (-((i as f64 - 10.0) / 3.0).powi(2)).exp())
                .collect();
            rows.push(apply_shift(&spike, sh));
            truth.push(0);
            let ramp: Vec<f64> = (0..m)
                .map(|i| amp * (i as f64 / m as f64).powi(3))
                .collect();
            rows.push(apply_shift(&ramp, sh));
            truth.push(1);
        }
        (rows, truth)
    }

    #[test]
    fn ksc_separates_patterns() {
        let (rows, truth) = two_growth_patterns();
        let result = Ksc::new(2, 5).fit(&rows);
        let ari = adjusted_rand_index(&truth, &result.labels);
        assert!(ari > 0.8, "ARI {ari}");
    }

    #[test]
    fn ksc_deterministic() {
        let (rows, _) = two_growth_patterns();
        let a = Ksc::new(2, 3).fit(&rows);
        let b = Ksc::new(2, 3).fit(&rows);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn centroid_of_scaled_copies_matches_shape() {
        let base: Vec<f64> = (0..24).map(|i| (i as f64 * 0.5).sin()).collect();
        let rows: Vec<Vec<f64>> = (1..=5)
            .map(|s| base.iter().map(|v| v * s as f64).collect())
            .collect();
        let members: Vec<usize> = (0..5).collect();
        let c = spectral_centroid(&rows, &members, &[0.0; 24], 2);
        // Distance from centroid to any member ~ 0.
        assert!(ksc_distance(&rows[0], &c, 2) < 1e-6);
    }

    #[test]
    #[should_panic(expected = "k must be > 0")]
    fn zero_k_panics() {
        Ksc::new(0, 0).fit(&[vec![1.0, 2.0]]);
    }
}
