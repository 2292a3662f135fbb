//! Agglomerative (hierarchical) clustering with Lance–Williams updates.
//!
//! Supports single, complete, average and Ward linkage; the dendrogram is
//! cut at `k` clusters. O(n³) naive merging — fine for the benchmark's
//! dataset sizes (≤ a few hundred series).

use tscore::kernel::sq_dist;

/// Linkage criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Linkage {
    /// Minimum inter-cluster distance.
    Single,
    /// Maximum inter-cluster distance.
    Complete,
    /// Unweighted average inter-cluster distance (UPGMA).
    Average,
    /// Ward's minimum-variance criterion (requires squared Euclidean input).
    Ward,
}

/// Agglomerative clustering configuration.
#[derive(Debug, Clone, Copy)]
pub struct Agglomerative {
    /// Target number of clusters.
    pub k: usize,
    /// Linkage criterion.
    pub linkage: Linkage,
}

impl Agglomerative {
    /// Creates a configuration.
    pub fn new(k: usize, linkage: Linkage) -> Self {
        Agglomerative { k, linkage }
    }

    /// Clusters rows under Euclidean distance (Ward uses squared distances
    /// internally, per the standard Lance–Williams formulation).
    pub fn fit(&self, rows: &[Vec<f64>]) -> Vec<usize> {
        assert!(self.k > 0, "k must be > 0");
        let n = rows.len();
        if n == 0 {
            return Vec::new();
        }
        let squared = self.linkage == Linkage::Ward;
        let mut dist = vec![vec![0.0f64; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d2 = sq_dist(&rows[i], &rows[j]);
                let d = if squared { d2 } else { d2.sqrt() };
                dist[i][j] = d;
                dist[j][i] = d;
            }
        }
        self.fit_distances(dist, n)
    }

    fn fit_distances(&self, mut dist: Vec<Vec<f64>>, n: usize) -> Vec<usize> {
        // active[i]: cluster i still exists; size[i]: #points inside.
        let mut active: Vec<bool> = vec![true; n];
        let mut size: Vec<f64> = vec![1.0; n];
        // membership[i] = current cluster id of point i (ids are merged into
        // the lower index).
        let mut membership: Vec<usize> = (0..n).collect();
        let mut remaining = n;
        let target = self.k.min(n);

        while remaining > target {
            // Find the closest active pair.
            let mut best = (0usize, 0usize);
            let mut best_d = f64::INFINITY;
            for i in 0..n {
                if !active[i] {
                    continue;
                }
                for j in (i + 1)..n {
                    if !active[j] {
                        continue;
                    }
                    if dist[i][j] < best_d {
                        best_d = dist[i][j];
                        best = (i, j);
                    }
                }
            }
            let (a, b) = best;
            // Lance–Williams update of distances from the merged cluster
            // (a ∪ b) to every other active cluster c.
            for c in 0..n {
                if !active[c] || c == a || c == b {
                    continue;
                }
                let dac = dist[a][c];
                let dbc = dist[b][c];
                let dab = dist[a][b];
                let new_d = match self.linkage {
                    Linkage::Single => dac.min(dbc),
                    Linkage::Complete => dac.max(dbc),
                    Linkage::Average => (size[a] * dac + size[b] * dbc) / (size[a] + size[b]),
                    Linkage::Ward => {
                        let s = size[a] + size[b] + size[c];
                        ((size[a] + size[c]) * dac + (size[b] + size[c]) * dbc - size[c] * dab) / s
                    }
                };
                dist[a][c] = new_d;
                dist[c][a] = new_d;
            }
            active[b] = false;
            size[a] += size[b];
            for m in membership.iter_mut() {
                if *m == b {
                    *m = a;
                }
            }
            remaining -= 1;
        }

        // Compact cluster ids to 0..k.
        let mut id_map = std::collections::HashMap::new();
        let mut labels = Vec::with_capacity(n);
        for &m in &membership {
            let next = id_map.len();
            let id = *id_map.entry(m).or_insert(next);
            labels.push(id);
        }
        labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::adjusted_rand_index;

    fn blobs() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for i in 0..10 {
            rows.push(vec![(i % 3) as f64 * 0.1, (i % 2) as f64 * 0.1]);
            truth.push(0);
            rows.push(vec![20.0 + (i % 3) as f64 * 0.1, (i % 2) as f64 * 0.1]);
            truth.push(1);
        }
        (rows, truth)
    }

    #[test]
    fn all_linkages_recover_blobs() {
        let (rows, truth) = blobs();
        for linkage in [
            Linkage::Single,
            Linkage::Complete,
            Linkage::Average,
            Linkage::Ward,
        ] {
            let labels = Agglomerative::new(2, linkage).fit(&rows);
            let ari = adjusted_rand_index(&truth, &labels);
            assert!((ari - 1.0).abs() < 1e-12, "{linkage:?} ARI {ari}");
        }
    }

    #[test]
    fn single_linkage_chains() {
        // A chain of close points plus one far blob: single linkage glues
        // the chain into one cluster.
        let mut rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 * 1.0]).collect();
        rows.push(vec![100.0]);
        rows.push(vec![100.5]);
        let labels = Agglomerative::new(2, Linkage::Single).fit(&rows);
        assert_eq!(labels[0], labels[9], "chain should stay connected");
        assert_ne!(labels[0], labels[10]);
    }

    #[test]
    fn k_equals_n_all_singletons() {
        let rows = vec![vec![0.0], vec![1.0], vec![2.0]];
        let labels = Agglomerative::new(3, Linkage::Average).fit(&rows);
        let unique: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(unique.len(), 3);
    }

    #[test]
    fn k_one_single_cluster() {
        let (rows, _) = blobs();
        let labels = Agglomerative::new(1, Linkage::Ward).fit(&rows);
        assert!(labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn empty_input() {
        let labels = Agglomerative::new(2, Linkage::Ward).fit(&[]);
        assert!(labels.is_empty());
    }

    #[test]
    #[should_panic(expected = "k must be > 0")]
    fn zero_k_panics() {
        Agglomerative::new(0, Linkage::Single).fit(&[vec![1.0]]);
    }

    #[test]
    fn labels_are_compact() {
        let (rows, _) = blobs();
        let labels = Agglomerative::new(2, Linkage::Ward).fit(&rows);
        let max = *labels.iter().max().unwrap();
        assert!(max < 2);
        assert!(labels.contains(&0) && labels.contains(&1));
    }
}
