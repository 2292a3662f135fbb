//! Internal cluster validation indices and automatic k selection.
//!
//! The Graphint sidebar asks the user for the number of clusters; when the
//! ground truth k is unknown, these indices let callers sweep k and pick
//! the best-supported value — a practical extension the demo leaves to the
//! user. Implemented: Calinski–Harabasz (higher = better),
//! Davies–Bouldin (lower = better), and an elbow-aware sweep driver.

use crate::kmeans::KMeans;
use tscore::kernel::sq_dist;

/// Per-cluster centroids and sizes for a labelled point set.
fn centroids_of(rows: &[Vec<f64>], labels: &[usize], k: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
    let d = rows.first().map_or(0, Vec::len);
    let mut centroids = vec![vec![0.0; d]; k];
    let mut sizes = vec![0usize; k];
    for (row, &l) in rows.iter().zip(labels) {
        sizes[l] += 1;
        for (c, &x) in centroids[l].iter_mut().zip(row) {
            *c += x;
        }
    }
    for (c, &s) in centroids.iter_mut().zip(&sizes) {
        if s > 0 {
            for v in c.iter_mut() {
                *v /= s as f64;
            }
        }
    }
    (centroids, sizes)
}

/// Calinski–Harabasz index: ratio of between- to within-cluster dispersion,
/// scaled by the degrees of freedom. Higher = better-separated clusters.
/// Returns 0 for degenerate inputs (k < 2 or k ≥ n).
pub fn calinski_harabasz(rows: &[Vec<f64>], labels: &[usize]) -> f64 {
    let n = rows.len();
    let k = labels.iter().copied().max().map_or(0, |m| m + 1);
    if n == 0 || k < 2 || k >= n {
        return 0.0;
    }
    let (centroids, sizes) = centroids_of(rows, labels, k);
    let d = rows[0].len();
    let mut global = vec![0.0; d];
    for row in rows {
        for (g, &x) in global.iter_mut().zip(row) {
            *g += x;
        }
    }
    for g in &mut global {
        *g /= n as f64;
    }
    let between: f64 = centroids
        .iter()
        .zip(&sizes)
        .filter(|(_, &s)| s > 0)
        .map(|(c, &s)| s as f64 * sq_dist(c, &global))
        .sum();
    let within: f64 = rows
        .iter()
        .zip(labels)
        .map(|(row, &l)| sq_dist(row, &centroids[l]))
        .sum();
    if within <= 1e-12 {
        // Perfectly tight clusters: index diverges; report a large value.
        return f64::MAX / 1e6;
    }
    (between / (k - 1) as f64) / (within / (n - k) as f64)
}

/// Davies–Bouldin index: mean over clusters of the worst ratio of summed
/// intra-cluster scatter to centroid separation. Lower = better. Returns
/// +∞-like large value for degenerate inputs.
pub fn davies_bouldin(rows: &[Vec<f64>], labels: &[usize]) -> f64 {
    let n = rows.len();
    let k = labels.iter().copied().max().map_or(0, |m| m + 1);
    if n == 0 || k < 2 {
        return f64::MAX / 1e6;
    }
    let (centroids, sizes) = centroids_of(rows, labels, k);
    // Mean distance of members to their centroid.
    let mut scatter = vec![0.0f64; k];
    for (row, &l) in rows.iter().zip(labels) {
        scatter[l] += sq_dist(row, &centroids[l]).sqrt();
    }
    for (s, &sz) in scatter.iter_mut().zip(&sizes) {
        if sz > 0 {
            *s /= sz as f64;
        }
    }
    let mut total = 0.0;
    let mut counted = 0usize;
    for i in 0..k {
        if sizes[i] == 0 {
            continue;
        }
        let mut worst = 0.0f64;
        for j in 0..k {
            if i == j || sizes[j] == 0 {
                continue;
            }
            let sep = sq_dist(&centroids[i], &centroids[j]).sqrt();
            if sep <= 1e-12 {
                return f64::MAX / 1e6;
            }
            worst = worst.max((scatter[i] + scatter[j]) / sep);
        }
        total += worst;
        counted += 1;
    }
    if counted == 0 {
        f64::MAX / 1e6
    } else {
        total / counted as f64
    }
}

/// One candidate k with its scores.
#[derive(Debug, Clone, Copy)]
pub struct KCandidate {
    /// The number of clusters evaluated.
    pub k: usize,
    /// Calinski–Harabasz (higher better).
    pub calinski_harabasz: f64,
    /// Davies–Bouldin (lower better).
    pub davies_bouldin: f64,
    /// Mean silhouette (higher better).
    pub silhouette: f64,
}

/// Sweeps `k ∈ k_range` with k-Means and scores each candidate on all
/// three indices. Returns the candidates plus the k that wins the most
/// index votes (ties toward smaller k, Occam-style).
pub fn select_k(
    rows: &[Vec<f64>],
    k_range: std::ops::RangeInclusive<usize>,
    seed: u64,
) -> (Vec<KCandidate>, usize) {
    assert!(!rows.is_empty(), "select_k requires data");
    let candidates: Vec<KCandidate> = k_range
        .filter(|&k| k >= 2 && k < rows.len())
        .map(|k| {
            let labels = KMeans::new(k, seed).fit(rows).labels;
            KCandidate {
                k,
                calinski_harabasz: calinski_harabasz(rows, &labels),
                davies_bouldin: davies_bouldin(rows, &labels),
                silhouette: crate::metrics::silhouette(rows, &labels),
            }
        })
        .collect();
    assert!(!candidates.is_empty(), "empty k range after clamping");
    let best_ch = candidates
        .iter()
        .max_by(|a, b| a.calinski_harabasz.total_cmp(&b.calinski_harabasz))
        .expect("non-empty")
        .k;
    let best_db = candidates
        .iter()
        .min_by(|a, b| a.davies_bouldin.total_cmp(&b.davies_bouldin))
        .expect("non-empty")
        .k;
    let best_sil = candidates
        .iter()
        .max_by(|a, b| a.silhouette.total_cmp(&b.silhouette))
        .expect("non-empty")
        .k;
    // Majority vote over the three indices; ties toward the smallest k.
    let mut votes = std::collections::BTreeMap::new();
    for k in [best_ch, best_db, best_sil] {
        *votes.entry(k).or_insert(0usize) += 1;
    }
    let winner = votes
        .iter()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
        .map(|(&k, _)| k)
        .expect("non-empty votes");
    (candidates, winner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(k: usize, per: usize) -> Vec<Vec<f64>> {
        let mut rows = Vec::new();
        for c in 0..k {
            for i in 0..per {
                let jitter = (i % 5) as f64 * 0.05;
                rows.push(vec![c as f64 * 10.0 + jitter, c as f64 * -7.0 - jitter]);
            }
        }
        rows
    }

    #[test]
    fn ch_prefers_true_partition() {
        let rows = blobs(3, 10);
        let truth: Vec<usize> = (0..30).map(|i| i / 10).collect();
        let wrong: Vec<usize> = (0..30).map(|i| i % 3).collect();
        assert!(calinski_harabasz(&rows, &truth) > calinski_harabasz(&rows, &wrong));
    }

    #[test]
    fn db_prefers_true_partition() {
        let rows = blobs(3, 10);
        let truth: Vec<usize> = (0..30).map(|i| i / 10).collect();
        let wrong: Vec<usize> = (0..30).map(|i| i % 3).collect();
        assert!(davies_bouldin(&rows, &truth) < davies_bouldin(&rows, &wrong));
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(calinski_harabasz(&[], &[]), 0.0);
        let rows = blobs(2, 5);
        let one_cluster = vec![0usize; 10];
        assert_eq!(calinski_harabasz(&rows, &one_cluster), 0.0);
        assert!(davies_bouldin(&rows, &one_cluster) > 1e6);
        // Identical centroids → DB blows up instead of dividing by zero.
        let rows2 = vec![vec![1.0, 1.0]; 6];
        let alternating: Vec<usize> = (0..6).map(|i| i % 2).collect();
        assert!(davies_bouldin(&rows2, &alternating) > 1e6);
    }

    #[test]
    fn select_k_finds_three_blobs() {
        let rows = blobs(3, 12);
        let (candidates, best) = select_k(&rows, 2..=6, 0);
        assert_eq!(best, 3, "candidates: {candidates:?}");
        assert_eq!(candidates.len(), 5);
        for c in &candidates {
            assert!(c.calinski_harabasz >= 0.0);
            assert!(c.davies_bouldin >= 0.0);
            assert!((-1.0..=1.0).contains(&c.silhouette));
        }
    }

    #[test]
    fn select_k_two_blobs() {
        let rows = blobs(2, 15);
        let (_, best) = select_k(&rows, 2..=5, 1);
        assert_eq!(best, 2);
    }

    #[test]
    fn select_k_clamps_range() {
        let rows = blobs(2, 3); // 6 points
        let (candidates, best) = select_k(&rows, 2..=20, 0);
        assert!(candidates.iter().all(|c| c.k < 6));
        assert!(best >= 2);
    }

    #[test]
    #[should_panic(expected = "requires data")]
    fn empty_rows_panic() {
        select_k(&[], 2..=3, 0);
    }
}
