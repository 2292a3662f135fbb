//! Mean-shift clustering with a Gaussian kernel.
//!
//! Every point hill-climbs the kernel density estimate; converged modes
//! within one bandwidth are merged into clusters. Like the GMM baseline,
//! the benchmark harness feeds PCA-reduced rows (mean-shift in hundreds of
//! dimensions is meaningless); the implementation is dimension-agnostic.

use tscore::kernel::sq_dist;

/// Mean-shift configuration.
#[derive(Debug, Clone, Copy)]
pub struct MeanShift {
    /// Kernel bandwidth; `None` estimates it as the mean pairwise distance
    /// times 0.5 (a pragmatic default that works on z-scored projections).
    pub bandwidth: Option<f64>,
    /// Maximum hill-climbing iterations per point.
    pub max_iter: usize,
    /// Convergence tolerance on the shift step.
    pub tol: f64,
}

impl Default for MeanShift {
    fn default() -> Self {
        MeanShift {
            bandwidth: None,
            max_iter: 100,
            tol: 1e-5,
        }
    }
}

impl MeanShift {
    /// Creates a configuration with an explicit bandwidth.
    pub fn with_bandwidth(bandwidth: f64) -> Self {
        MeanShift {
            bandwidth: Some(bandwidth),
            ..Default::default()
        }
    }

    /// Runs mean-shift; returns (labels, modes).
    pub fn fit(&self, rows: &[Vec<f64>]) -> (Vec<usize>, Vec<Vec<f64>>) {
        let n = rows.len();
        if n == 0 {
            return (Vec::new(), Vec::new());
        }
        let bw = self
            .bandwidth
            .unwrap_or_else(|| estimate_bandwidth(rows))
            .max(1e-9);
        let inv2bw2 = 1.0 / (2.0 * bw * bw);

        // Hill-climb every point.
        let mut modes: Vec<Vec<f64>> = Vec::with_capacity(n);
        for start in rows {
            let mut x = start.clone();
            for _ in 0..self.max_iter {
                let mut num = vec![0.0; x.len()];
                let mut den = 0.0;
                for row in rows {
                    let w = (-sq_dist(&x, row) * inv2bw2).exp();
                    den += w;
                    for (s, &v) in num.iter_mut().zip(row) {
                        *s += w * v;
                    }
                }
                if den <= f64::MIN_POSITIVE {
                    break;
                }
                let next: Vec<f64> = num.iter().map(|s| s / den).collect();
                let step = sq_dist(&next, &x).sqrt();
                x = next;
                if step < self.tol {
                    break;
                }
            }
            modes.push(x);
        }

        // Merge modes within one bandwidth into clusters.
        let mut centers: Vec<Vec<f64>> = Vec::new();
        let mut labels = vec![0usize; n];
        for (i, mode) in modes.iter().enumerate() {
            match centers.iter().position(|c| sq_dist(mode, c).sqrt() < bw) {
                Some(c) => labels[i] = c,
                None => {
                    centers.push(mode.clone());
                    labels[i] = centers.len() - 1;
                }
            }
        }
        (labels, centers)
    }
}

/// Mean pairwise Euclidean distance × 0.5 (cheap bandwidth heuristic).
pub fn estimate_bandwidth(rows: &[Vec<f64>]) -> f64 {
    let n = rows.len();
    if n < 2 {
        return 1.0;
    }
    let mut total = 0.0;
    let mut count = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            total += sq_dist(&rows[i], &rows[j]).sqrt();
            count += 1;
        }
    }
    let mean = total / count as f64;
    (mean * 0.5).max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::adjusted_rand_index;

    fn blobs() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for i in 0..15 {
            let j = (i % 5) as f64 * 0.15;
            rows.push(vec![j, -j]);
            truth.push(0);
            rows.push(vec![12.0 + j, 12.0 - j]);
            truth.push(1);
        }
        (rows, truth)
    }

    #[test]
    fn finds_two_modes() {
        let (rows, truth) = blobs();
        let (labels, centers) = MeanShift::with_bandwidth(2.0).fit(&rows);
        assert_eq!(centers.len(), 2, "expected 2 modes, got {}", centers.len());
        assert!((adjusted_rand_index(&truth, &labels) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn auto_bandwidth_reasonable() {
        let (rows, truth) = blobs();
        let (labels, _) = MeanShift::default().fit(&rows);
        let ari = adjusted_rand_index(&truth, &labels);
        assert!(ari > 0.9, "ARI {ari}");
    }

    #[test]
    fn giant_bandwidth_single_cluster() {
        let (rows, _) = blobs();
        let (labels, centers) = MeanShift::with_bandwidth(1e6).fit(&rows);
        assert_eq!(centers.len(), 1);
        assert!(labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn modes_near_blob_centres() {
        let (rows, _) = blobs();
        let (_, centers) = MeanShift::with_bandwidth(2.0).fit(&rows);
        let mut xs: Vec<f64> = centers.iter().map(|c| c[0]).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((xs[0] - 0.3).abs() < 1.0, "first mode x {xs:?}");
        assert!((xs[1] - 12.3).abs() < 1.0, "second mode x {xs:?}");
    }

    #[test]
    fn empty_input() {
        let (labels, centers) = MeanShift::default().fit(&[]);
        assert!(labels.is_empty());
        assert!(centers.is_empty());
    }

    #[test]
    fn single_point() {
        let (labels, centers) = MeanShift::default().fit(&[vec![3.0, 4.0]]);
        assert_eq!(labels, vec![0]);
        assert_eq!(centers.len(), 1);
    }

    #[test]
    fn bandwidth_estimate_positive() {
        let (rows, _) = blobs();
        assert!(estimate_bandwidth(&rows) > 0.0);
        assert_eq!(estimate_bandwidth(&[vec![1.0]]), 1.0);
    }
}
