//! k-Shape clustering (Paparrizos & Gravano, SIGMOD 2015).
//!
//! k-Shape iterates like k-Means but uses the Shape-Based Distance (SBD,
//! derived from normalised cross-correlation) for assignment and *shape
//! extraction* — the dominant eigenvector of an alignment matrix — for
//! centroid refinement. SBD is `tscore::kernel`'s, a lane-dot scan over
//! the `2m − 1` shifts, O(m²) per pair. Shape extraction builds an m × m
//! scatter matrix per member and power-iterates on it, so k-Shape is
//! Θ(m²) per member whatever SBD costs.

use linalg::matrix::Matrix;
use linalg::power_iteration;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tscore::kernel::{apply_shift, dot, sbd, sbd_with_shift};
use tscore::transform::znorm;

/// SBD from a centroid to a row. `KShape::fit` calls it only on a
/// centroid of the rows' common length with a non-zero value, where the
/// kernel's errors (empty or unequal inputs) cannot arise.
fn centroid_sbd(centroid: &[f64], row: &[f64]) -> f64 {
    sbd(centroid, row).expect("a non-zero centroid has the rows' length")
}

/// Configuration for [`KShape`].
#[derive(Debug, Clone, Copy)]
pub struct KShape {
    /// Number of clusters.
    pub k: usize,
    /// Maximum refinement iterations.
    pub max_iter: usize,
    /// RNG seed for the initial random assignment.
    pub seed: u64,
}

/// Output of a k-Shape fit.
#[derive(Debug, Clone)]
pub struct KShapeResult {
    /// Cluster label per series.
    pub labels: Vec<usize>,
    /// One z-normalised shape (centroid) per cluster.
    pub centroids: Vec<Vec<f64>>,
    /// Sum of SBD distances to assigned centroids.
    pub total_distance: f64,
}

impl KShape {
    /// Creates a configuration with `max_iter = 30`.
    pub fn new(k: usize, seed: u64) -> Self {
        KShape {
            k,
            max_iter: 30,
            seed,
        }
    }

    /// Fits k-Shape on equal-length rows (z-normalised internally).
    ///
    /// Panics if `k == 0`, input is empty or rows are ragged.
    pub fn fit(&self, rows: &[Vec<f64>]) -> KShapeResult {
        assert!(self.k > 0, "k must be > 0");
        assert!(!rows.is_empty(), "k-Shape requires at least one series");
        let m = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == m), "ragged input rows");
        let n = rows.len();
        let k = self.k.min(n);
        let data: Vec<Vec<f64>> = rows.iter().map(|r| znorm(r)).collect();

        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut labels: Vec<usize> = (0..n).map(|_| rng.gen_range(0..k)).collect();
        // Guarantee no initially empty cluster when n ≥ k.
        for c in 0..k {
            if !labels.contains(&c) {
                let idx = rng.gen_range(0..n);
                labels[idx] = c;
            }
        }
        let mut centroids: Vec<Vec<f64>> = vec![vec![0.0; m]; k];

        for _ in 0..self.max_iter {
            // Refinement: extract a shape per cluster.
            for (c, centroid) in centroids.iter_mut().enumerate() {
                let members: Vec<&[f64]> = data
                    .iter()
                    .zip(&labels)
                    .filter(|(_, &l)| l == c)
                    .map(|(r, _)| r.as_slice())
                    .collect();
                if members.is_empty() {
                    continue;
                }
                *centroid = shape_extraction(&members, centroid);
            }
            // Assignment by SBD.
            let mut changed = false;
            for (i, row) in data.iter().enumerate() {
                let mut best = labels[i];
                let mut best_d = f64::INFINITY;
                for (c, centroid) in centroids.iter().enumerate() {
                    let d = if centroid.iter().all(|&x| x == 0.0) {
                        f64::INFINITY
                    } else {
                        centroid_sbd(centroid, row)
                    };
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

        let total_distance = data
            .iter()
            .zip(&labels)
            .map(|(row, &l)| {
                if centroids[l].iter().all(|&x| x == 0.0) {
                    0.0
                } else {
                    centroid_sbd(&centroids[l], row)
                }
            })
            .sum();
        KShapeResult {
            labels,
            centroids,
            total_distance,
        }
    }
}

/// Shape extraction: the dominant eigenvector of `Q·S·Q` where `S` is the
/// scatter of the members aligned (via SBD shift) to the previous centroid
/// and `Q = I − (1/m)·𝟙` centres it.
///
/// Returns a z-normalised shape, sign-fixed to correlate positively with the
/// aligned-member mean. Panics when `previous` has a non-zero value and a
/// member's length differs from its.
pub fn shape_extraction(members: &[&[f64]], previous: &[f64]) -> Vec<f64> {
    let m = previous.len();
    // Align members to the previous centroid (first iteration: no shift).
    let use_alignment = previous.iter().any(|&x| x != 0.0);
    // Shift and normalise each member with one allocation, not two: the
    // shifted row is z-normalised in place instead of being copied again.
    let aligned: Vec<Vec<f64>> = members
        .iter()
        .map(|&s| {
            let mut row = if use_alignment {
                let (_, shift) = sbd_with_shift(previous, s)
                    .expect("members have the length of their non-zero previous centroid");
                apply_shift(s, shift)
            } else {
                s.to_vec()
            };
            tscore::transform::znorm_inplace(&mut row);
            row
        })
        .collect();

    // S = Σ zᵀz over aligned members.
    let mut s_mat = Matrix::zeros(m, m);
    for z in &aligned {
        for i in 0..m {
            let zi = z[i];
            if zi == 0.0 {
                continue;
            }
            let row = s_mat.row_mut(i);
            for (j, &zj) in z.iter().enumerate() {
                row[j] += zi * zj;
            }
        }
    }
    // M = Q S Q with Q = I − (1/m)·𝟙. Expanding keeps it O(m²):
    // (QSQ)_{ij} = S_{ij} − r_i − c_j + g, with row/col/grand means of S.
    let mut row_mean = vec![0.0; m];
    let mut col_mean = vec![0.0; m];
    let mut grand = 0.0;
    for i in 0..m {
        for j in 0..m {
            let v = s_mat[(i, j)];
            row_mean[i] += v;
            col_mean[j] += v;
            grand += v;
        }
    }
    for v in &mut row_mean {
        *v /= m as f64;
    }
    for v in &mut col_mean {
        *v /= m as f64;
    }
    grand /= (m * m) as f64;
    let mut q_mat = Matrix::zeros(m, m);
    for i in 0..m {
        for j in 0..m {
            q_mat[(i, j)] = s_mat[(i, j)] - row_mean[i] - col_mean[j] + grand;
        }
    }

    let (_, mut shape) = power_iteration(&q_mat, 300, 1e-9);
    // Fix sign: the shape should correlate positively with the member mean.
    let mean: Vec<f64> = (0..m)
        .map(|i| aligned.iter().map(|z| z[i]).sum::<f64>() / aligned.len().max(1) as f64)
        .collect();
    if dot(&shape, &mean) < 0.0 {
        for x in &mut shape {
            *x = -*x;
        }
    }
    znorm(&shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::adjusted_rand_index;

    /// Two clearly different shapes, each instantiated with small phase
    /// shifts — exactly the regime SBD is built for.
    fn two_shapes() -> (Vec<Vec<f64>>, Vec<usize>) {
        let m = 64;
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for shift in 0..10 {
            // Class 0: one sine period, phase-shifted.
            rows.push(
                (0..m)
                    .map(|i| ((i + shift) as f64 * 2.0 * std::f64::consts::PI / m as f64).sin())
                    .collect(),
            );
            truth.push(0);
            // Class 1: three sine periods, phase-shifted.
            rows.push(
                (0..m)
                    .map(|i| ((i + shift) as f64 * 6.0 * std::f64::consts::PI / m as f64).sin())
                    .collect(),
            );
            truth.push(1);
        }
        (rows, truth)
    }

    #[test]
    fn kshape_separates_frequencies() {
        let (rows, truth) = two_shapes();
        let result = KShape::new(2, 3).fit(&rows);
        let ari = adjusted_rand_index(&truth, &result.labels);
        assert!(ari > 0.95, "ARI {ari}");
        assert_eq!(result.centroids.len(), 2);
    }

    #[test]
    fn kshape_centroids_are_znormed() {
        let (rows, _) = two_shapes();
        let result = KShape::new(2, 3).fit(&rows);
        for c in &result.centroids {
            let mean: f64 = c.iter().sum::<f64>() / c.len() as f64;
            assert!(mean.abs() < 1e-9);
            let var: f64 = c.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / c.len() as f64;
            assert!((var.sqrt() - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn kshape_deterministic() {
        let (rows, _) = two_shapes();
        let a = KShape::new(2, 7).fit(&rows);
        let b = KShape::new(2, 7).fit(&rows);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn kshape_single_cluster() {
        let (rows, _) = two_shapes();
        let r = KShape::new(1, 0).fit(&rows);
        assert!(r.labels.iter().all(|&l| l == 0));
        assert!(r.total_distance.is_finite());
    }

    #[test]
    fn shape_extraction_of_identical_members() {
        let s: Vec<f64> = (0..32).map(|i| (i as f64 * 0.3).sin()).collect();
        let members: Vec<&[f64]> = vec![&s, &s, &s];
        let shape = shape_extraction(&members, &vec![0.0; 32]);
        // Shape must correlate almost perfectly with the member.
        let d = sbd(&shape, &znorm(&s)).unwrap();
        assert!(d < 1e-6, "SBD to member {d}");
    }

    #[test]
    #[should_panic(expected = "k must be > 0")]
    fn zero_k_panics() {
        KShape::new(0, 0).fit(&[vec![1.0, 2.0]]);
    }

    #[test]
    #[should_panic(expected = "at least one series")]
    fn empty_panics() {
        KShape::new(2, 0).fit(&[]);
    }
}
