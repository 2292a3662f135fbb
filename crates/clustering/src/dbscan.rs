//! DBSCAN density-based clustering.
//!
//! Classic flood-fill formulation with Euclidean distance. Noise points get
//! the special label [`NOISE`]; [`assign_noise_to_nearest`] can post-process
//! them to the nearest cluster so external metrics (which expect a full
//! partition) remain applicable — that is what the benchmark harness does.

use tscore::kernel::sq_dist;

/// Label used for noise points.
pub const NOISE: usize = usize::MAX;

/// DBSCAN configuration.
#[derive(Debug, Clone, Copy)]
pub struct Dbscan {
    /// Neighbourhood radius.
    pub eps: f64,
    /// Minimum neighbourhood size (incl. the point) to be a core point.
    pub min_pts: usize,
}

impl Dbscan {
    /// Creates a configuration.
    pub fn new(eps: f64, min_pts: usize) -> Self {
        Dbscan { eps, min_pts }
    }

    /// Runs DBSCAN; labels are `0..k` for clusters, [`NOISE`] for noise.
    pub fn fit(&self, rows: &[Vec<f64>]) -> Vec<usize> {
        assert!(self.eps > 0.0, "eps must be positive");
        assert!(self.min_pts > 0, "min_pts must be positive");
        let n = rows.len();
        let mut labels = vec![NOISE; n];
        let mut visited = vec![false; n];
        let eps2 = self.eps * self.eps;
        let neighbours = |i: usize| -> Vec<usize> {
            (0..n)
                .filter(|&j| sq_dist(&rows[i], &rows[j]) <= eps2)
                .collect()
        };

        let mut cluster = 0usize;
        for i in 0..n {
            if visited[i] {
                continue;
            }
            visited[i] = true;
            let nbrs = neighbours(i);
            if nbrs.len() < self.min_pts {
                continue; // stays noise unless claimed by a later core point
            }
            labels[i] = cluster;
            let mut frontier: Vec<usize> = nbrs;
            let mut f = 0;
            while f < frontier.len() {
                let q = frontier[f];
                f += 1;
                if labels[q] == NOISE {
                    labels[q] = cluster; // border point
                }
                if visited[q] {
                    continue;
                }
                visited[q] = true;
                let q_nbrs = neighbours(q);
                if q_nbrs.len() >= self.min_pts {
                    frontier.extend(q_nbrs);
                }
            }
            cluster += 1;
        }
        labels
    }
}

/// Re-assigns noise points to the cluster of their nearest non-noise
/// neighbour; if everything is noise, collapses to a single cluster.
pub fn assign_noise_to_nearest(rows: &[Vec<f64>], labels: &[usize]) -> Vec<usize> {
    let mut out = labels.to_vec();
    if !out.iter().any(|&l| l != NOISE) {
        return vec![0; rows.len()];
    }
    for i in 0..rows.len() {
        if out[i] != NOISE {
            continue;
        }
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (j, &l) in labels.iter().enumerate() {
            if l == NOISE {
                continue;
            }
            let d = sq_dist(&rows[i], &rows[j]);
            if d < best_d {
                best_d = d;
                best = l;
            }
        }
        out[i] = best;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs_with_outlier() -> Vec<Vec<f64>> {
        let mut rows = Vec::new();
        for i in 0..8 {
            rows.push(vec![(i % 3) as f64 * 0.2, (i % 2) as f64 * 0.2]);
        }
        for i in 0..8 {
            rows.push(vec![10.0 + (i % 3) as f64 * 0.2, (i % 2) as f64 * 0.2]);
        }
        rows.push(vec![100.0, 100.0]); // lone outlier
        rows
    }

    #[test]
    fn finds_two_clusters_and_noise() {
        let rows = blobs_with_outlier();
        let labels = Dbscan::new(1.0, 3).fit(&rows);
        assert_eq!(labels[16], NOISE);
        let c0 = labels[0];
        let c1 = labels[8];
        assert_ne!(c0, c1);
        assert!(labels[..8].iter().all(|&l| l == c0));
        assert!(labels[8..16].iter().all(|&l| l == c1));
    }

    #[test]
    fn large_eps_merges_everything() {
        let rows = blobs_with_outlier();
        let labels = Dbscan::new(1000.0, 2).fit(&rows);
        assert!(labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn strict_min_pts_marks_all_noise() {
        let rows = vec![vec![0.0], vec![5.0], vec![10.0]];
        let labels = Dbscan::new(0.1, 2).fit(&rows);
        assert!(labels.iter().all(|&l| l == NOISE));
    }

    #[test]
    fn noise_reassignment() {
        let rows = blobs_with_outlier();
        let labels = Dbscan::new(1.0, 3).fit(&rows);
        let fixed = assign_noise_to_nearest(&rows, &labels);
        assert!(fixed.iter().all(|&l| l != NOISE));
        // The outlier is nearer to the second blob.
        assert_eq!(fixed[16], labels[8]);
    }

    #[test]
    fn all_noise_reassignment_collapses() {
        let rows = vec![vec![0.0], vec![5.0], vec![10.0]];
        let labels = Dbscan::new(0.1, 2).fit(&rows);
        let fixed = assign_noise_to_nearest(&rows, &labels);
        assert_eq!(fixed, vec![0, 0, 0]);
    }

    #[test]
    fn empty_input() {
        let labels = Dbscan::new(1.0, 2).fit(&[]);
        assert!(labels.is_empty());
    }

    #[test]
    fn border_points_join_cluster() {
        // A dense core with one border point within eps of a core point but
        // itself not core.
        let rows = vec![
            vec![0.0],
            vec![0.1],
            vec![0.2],
            vec![0.9], // border: within 1.0 of 0.2/0.1/0.0 core region
        ];
        let labels = Dbscan::new(1.0, 3).fit(&rows);
        assert!(labels.iter().all(|&l| l == 0), "labels {labels:?}");
    }

    #[test]
    #[should_panic(expected = "eps must be positive")]
    fn bad_eps_panics() {
        Dbscan::new(0.0, 3).fit(&[vec![1.0]]);
    }

    #[test]
    #[should_panic(expected = "min_pts must be positive")]
    fn bad_min_pts_panics() {
        Dbscan::new(1.0, 0).fit(&[vec![1.0]]);
    }
}
