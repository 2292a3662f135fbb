//! BIRCH: Balanced Iterative Reducing and Clustering using Hierarchies.
//!
//! A single-pass CF-tree condenses the data into clustering features
//! (N, LS, SS); the leaf centroids are then clustered globally
//! (agglomerative Ward here, matching scikit-learn's default) and every
//! point inherits the label of its leaf.

use crate::agglo::{Agglomerative, Linkage};
use tscore::kernel::sq_dist;

/// A clustering feature: count, linear sum, squared-norm sum.
#[derive(Debug, Clone)]
struct Cf {
    n: f64,
    ls: Vec<f64>,
    ss: f64,
}

impl Cf {
    fn from_point(p: &[f64]) -> Self {
        Cf {
            n: 1.0,
            ls: p.to_vec(),
            ss: p.iter().map(|x| x * x).sum(),
        }
    }

    fn centroid(&self) -> Vec<f64> {
        self.ls.iter().map(|x| x / self.n).collect()
    }

    fn merge(&mut self, other: &Cf) {
        self.n += other.n;
        for (a, b) in self.ls.iter_mut().zip(&other.ls) {
            *a += b;
        }
        self.ss += other.ss;
    }

    /// Radius of the CF after absorbing `other` (RMS distance to centroid).
    fn radius_after_merge(&self, other: &Cf) -> f64 {
        let n = self.n + other.n;
        let ss = self.ss + other.ss;
        let mut ls2 = 0.0;
        for (a, b) in self.ls.iter().zip(&other.ls) {
            let s = a + b;
            ls2 += s * s;
        }
        let r2 = ss / n - ls2 / (n * n);
        r2.max(0.0).sqrt()
    }
}

/// BIRCH configuration.
#[derive(Debug, Clone, Copy)]
pub struct Birch {
    /// Target number of clusters for the global phase.
    pub k: usize,
    /// CF absorption threshold: a point joins a leaf CF only if the merged
    /// radius stays below this.
    pub threshold: f64,
    /// Maximum number of leaf CFs (oldest-first flat list; when exceeded the
    /// threshold is doubled and the tree rebuilt, as in the original paper).
    pub max_leaves: usize,
    /// Seed (kept for interface uniformity; BIRCH itself is deterministic).
    pub seed: u64,
}

impl Birch {
    /// Creates a configuration with `threshold = 0.5`, `max_leaves = 64`.
    pub fn new(k: usize, seed: u64) -> Self {
        Birch {
            k,
            threshold: 0.5,
            max_leaves: 64,
            seed,
        }
    }

    /// Fits BIRCH and returns per-point labels.
    pub fn fit(&self, rows: &[Vec<f64>]) -> Vec<usize> {
        assert!(self.k > 0, "k must be > 0");
        if rows.is_empty() {
            return Vec::new();
        }
        let mut threshold = self.threshold.max(1e-9);
        loop {
            let (leaves, assignment) = build_leaves(rows, threshold, self.max_leaves);
            if leaves.len() > self.max_leaves {
                threshold *= 2.0;
                continue;
            }
            // Global clustering of leaf centroids.
            let centroids: Vec<Vec<f64>> = leaves.iter().map(Cf::centroid).collect();
            let k = self.k.min(centroids.len());
            let leaf_labels = Agglomerative::new(k, Linkage::Ward).fit(&centroids);
            return assignment.iter().map(|&leaf| leaf_labels[leaf]).collect();
        }
    }
}

/// Single pass: absorb each point into the nearest leaf CF if the radius
/// stays under the threshold, otherwise start a new leaf.
fn build_leaves(rows: &[Vec<f64>], threshold: f64, cap: usize) -> (Vec<Cf>, Vec<usize>) {
    let mut leaves: Vec<Cf> = Vec::new();
    let mut assignment = Vec::with_capacity(rows.len());
    for row in rows {
        let point = Cf::from_point(row);
        let mut best: Option<(usize, f64)> = None;
        for (i, leaf) in leaves.iter().enumerate() {
            let d = sq_dist(&leaf.centroid(), row).sqrt();
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        match best {
            Some((i, _)) if leaves[i].radius_after_merge(&point) <= threshold => {
                leaves[i].merge(&point);
                assignment.push(i);
            }
            _ => {
                leaves.push(point);
                assignment.push(leaves.len() - 1);
                if leaves.len() > cap {
                    // Signal the caller to retry with a bigger threshold.
                    return (leaves, assignment);
                }
            }
        }
    }
    (leaves, assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::adjusted_rand_index;

    fn blobs() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for i in 0..20 {
            let j = (i % 4) as f64 * 0.1;
            rows.push(vec![j, j]);
            truth.push(0);
            rows.push(vec![10.0 + j, 10.0 - j]);
            truth.push(1);
        }
        (rows, truth)
    }

    #[test]
    fn separates_blobs() {
        let (rows, truth) = blobs();
        let labels = Birch::new(2, 0).fit(&rows);
        assert!((adjusted_rand_index(&truth, &labels) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tight_threshold_still_works() {
        let (rows, truth) = blobs();
        let labels = Birch {
            threshold: 0.01,
            ..Birch::new(2, 0)
        }
        .fit(&rows);
        assert!((adjusted_rand_index(&truth, &labels) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn leaf_cap_triggers_threshold_growth() {
        // 50 distinct points with max_leaves = 4 forces rebuilds.
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let labels = Birch {
            max_leaves: 4,
            threshold: 0.1,
            ..Birch::new(2, 0)
        }
        .fit(&rows);
        assert_eq!(labels.len(), 50);
        let k = labels
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .len();
        assert!(k <= 2);
    }

    #[test]
    fn k_bounded_by_leaf_count() {
        // Ask for more clusters than leaves can support.
        let rows = vec![vec![0.0], vec![0.01], vec![100.0], vec![100.01]];
        let labels = Birch {
            threshold: 1.0,
            ..Birch::new(10, 0)
        }
        .fit(&rows);
        assert_eq!(labels.len(), 4);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
    }

    #[test]
    fn cf_algebra() {
        let mut cf = Cf::from_point(&[1.0, 2.0]);
        cf.merge(&Cf::from_point(&[3.0, 4.0]));
        assert_eq!(cf.n, 2.0);
        assert_eq!(cf.centroid(), vec![2.0, 3.0]);
        // Radius after absorbing an identical centroid point stays small.
        let same = Cf::from_point(&[2.0, 3.0]);
        assert!(
            cf.radius_after_merge(&same) <= cf.radius_after_merge(&Cf::from_point(&[9.0, 9.0]))
        );
    }

    #[test]
    fn empty_input() {
        assert!(Birch::new(2, 0).fit(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "k must be > 0")]
    fn zero_k_panics() {
        Birch::new(0, 0).fit(&[vec![1.0]]);
    }
}
