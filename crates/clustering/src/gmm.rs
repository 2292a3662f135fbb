//! Gaussian Mixture Model with diagonal covariance, fitted by EM.
//!
//! Used as the GMM baseline of the Benchmark frame. Raw series are
//! high-dimensional relative to dataset sizes, so the harness feeds it
//! PCA-reduced rows; the implementation itself is dimension-agnostic.

use crate::kmeans::KMeans;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// GMM configuration.
#[derive(Debug, Clone, Copy)]
pub struct Gmm {
    /// Number of mixture components.
    pub k: usize,
    /// Maximum EM iterations.
    pub max_iter: usize,
    /// Log-likelihood convergence tolerance.
    pub tol: f64,
    /// Variance floor (avoids collapsing components).
    pub reg_covar: f64,
    /// Seed (k-Means initialisation).
    pub seed: u64,
}

impl Gmm {
    /// Creates a configuration with standard defaults.
    pub fn new(k: usize, seed: u64) -> Self {
        Gmm {
            k,
            max_iter: 100,
            tol: 1e-6,
            reg_covar: 1e-6,
            seed,
        }
    }

    /// Fits the mixture and returns hard assignments (argmax responsibility).
    pub fn fit(&self, rows: &[Vec<f64>]) -> GmmResult {
        assert!(self.k > 0, "k must be > 0");
        assert!(!rows.is_empty(), "GMM requires at least one point");
        let n = rows.len();
        let d = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == d), "ragged input rows");
        let k = self.k.min(n);
        let _rng = StdRng::seed_from_u64(self.seed);

        // Initialise from k-Means.
        let km = KMeans::new(k, self.seed).fit(rows);
        let mut means = km.centroids.clone();
        means.truncate(k);
        let mut weights = vec![1.0 / k as f64; k];
        let mut variances = vec![vec![1.0; d]; k];
        // Per-cluster variance initialisation from the k-Means partition.
        for c in 0..k {
            let members: Vec<&Vec<f64>> = rows
                .iter()
                .zip(&km.labels)
                .filter(|(_, &l)| l == c)
                .map(|(r, _)| r)
                .collect();
            if members.is_empty() {
                continue;
            }
            for j in 0..d {
                let var = members
                    .iter()
                    .map(|r| (r[j] - means[c][j]) * (r[j] - means[c][j]))
                    .sum::<f64>()
                    / members.len() as f64;
                variances[c][j] = var.max(self.reg_covar);
            }
            weights[c] = members.len() as f64 / n as f64;
        }

        let mut resp = vec![vec![0.0f64; k]; n];
        let mut prev_ll = f64::NEG_INFINITY;
        let mut log_likelihood = prev_ll;
        for _ in 0..self.max_iter {
            // E-step: responsibilities via log-sum-exp.
            log_likelihood = 0.0;
            for (i, row) in rows.iter().enumerate() {
                let mut logp = vec![0.0f64; k];
                for c in 0..k {
                    logp[c] = weights[c].max(1e-300).ln()
                        + log_gaussian_diag(row, &means[c], &variances[c]);
                }
                let max = logp.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let sum_exp: f64 = logp.iter().map(|&lp| (lp - max).exp()).sum();
                let log_norm = max + sum_exp.ln();
                log_likelihood += log_norm;
                for c in 0..k {
                    resp[i][c] = (logp[c] - log_norm).exp();
                }
            }
            // M-step.
            for c in 0..k {
                let nk: f64 = resp.iter().map(|r| r[c]).sum::<f64>().max(1e-12);
                weights[c] = nk / n as f64;
                for j in 0..d {
                    let mu = rows
                        .iter()
                        .zip(&resp)
                        .map(|(row, r)| r[c] * row[j])
                        .sum::<f64>()
                        / nk;
                    means[c][j] = mu;
                }
                for j in 0..d {
                    let var = rows
                        .iter()
                        .zip(&resp)
                        .map(|(row, r)| r[c] * (row[j] - means[c][j]) * (row[j] - means[c][j]))
                        .sum::<f64>()
                        / nk;
                    variances[c][j] = var.max(self.reg_covar);
                }
            }
            if (log_likelihood - prev_ll).abs() < self.tol * (1.0 + log_likelihood.abs()) {
                break;
            }
            prev_ll = log_likelihood;
        }

        let labels = resp
            .iter()
            .map(|r| {
                r.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(c, _)| c)
                    .unwrap_or(0)
            })
            .collect();
        GmmResult {
            labels,
            means,
            variances,
            weights,
            log_likelihood,
        }
    }
}

/// Output of a GMM fit.
#[derive(Debug, Clone)]
pub struct GmmResult {
    /// Hard assignment per point.
    pub labels: Vec<usize>,
    /// Component means.
    pub means: Vec<Vec<f64>>,
    /// Component diagonal variances.
    pub variances: Vec<Vec<f64>>,
    /// Component mixing weights.
    pub weights: Vec<f64>,
    /// Final training log-likelihood.
    pub log_likelihood: f64,
}

/// Log density of a diagonal-covariance Gaussian.
fn log_gaussian_diag(x: &[f64], mean: &[f64], var: &[f64]) -> f64 {
    let mut acc = 0.0;
    for ((xi, mi), vi) in x.iter().zip(mean).zip(var) {
        let v = vi.max(1e-300);
        acc += -0.5 * ((xi - mi) * (xi - mi) / v + v.ln() + (2.0 * std::f64::consts::PI).ln());
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::adjusted_rand_index;

    fn blobs() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for i in 0..25 {
            let j = (i % 5) as f64 * 0.2;
            rows.push(vec![j, j * 0.5]);
            truth.push(0);
            rows.push(vec![8.0 + j, 8.0 - j]);
            truth.push(1);
        }
        (rows, truth)
    }

    #[test]
    fn separates_blobs() {
        let (rows, truth) = blobs();
        let result = Gmm::new(2, 0).fit(&rows);
        assert!((adjusted_rand_index(&truth, &result.labels) - 1.0).abs() < 1e-12);
        assert!((result.weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn log_likelihood_improves_over_iterations() {
        let (rows, _) = blobs();
        let one_iter = Gmm {
            max_iter: 1,
            ..Gmm::new(2, 0)
        }
        .fit(&rows);
        let many_iter = Gmm {
            max_iter: 50,
            ..Gmm::new(2, 0)
        }
        .fit(&rows);
        assert!(many_iter.log_likelihood >= one_iter.log_likelihood - 1e-9);
    }

    #[test]
    fn variance_floor_respected() {
        // Identical points would collapse variance to 0 without the floor.
        let rows = vec![vec![1.0, 2.0]; 10];
        let result = Gmm::new(2, 0).fit(&rows);
        for v in &result.variances {
            for &x in v {
                assert!(x >= 1e-6);
                assert!(x.is_finite());
            }
        }
        assert!(result.log_likelihood.is_finite());
    }

    #[test]
    fn deterministic() {
        let (rows, _) = blobs();
        let a = Gmm::new(2, 11).fit(&rows);
        let b = Gmm::new(2, 11).fit(&rows);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn k_one() {
        let (rows, _) = blobs();
        let result = Gmm::new(1, 0).fit(&rows);
        assert!(result.labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn anisotropic_weights() {
        // 40 points in one blob, 5 in the other: weights should reflect it.
        let mut rows = Vec::new();
        for i in 0..40 {
            rows.push(vec![(i % 5) as f64 * 0.1, 0.0]);
        }
        for i in 0..5 {
            rows.push(vec![50.0 + i as f64 * 0.1, 0.0]);
        }
        let result = Gmm::new(2, 0).fit(&rows);
        let mut w = result.weights.clone();
        w.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(w[0] < 0.2 && w[1] > 0.8, "weights {w:?}");
    }

    #[test]
    #[should_panic(expected = "k must be > 0")]
    fn zero_k_panics() {
        Gmm::new(0, 0).fit(&[vec![1.0]]);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_panics() {
        Gmm::new(2, 0).fit(&[]);
    }
}
