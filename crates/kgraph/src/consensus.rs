//! Stage 3 — consensus clustering.
//!
//! The consensus matrix `MC[i][j]` measures how often series `i` and `j`
//! are grouped together across the `M` per-length partitions; spectral
//! clustering on `MC` produces the final k-Graph labels (paper §II-A,
//! Figure 1(d)).
//!
//! Row `i` of `MC` depends only on series `i`'s label signature (its labels
//! across the `M` partitions), so series with the same signature have
//! bit-identical rows. At most `∏ k_ℓ` signatures exist, and in practice
//! tens cover a thousand series. [`spectral_clustering`] exploits this: it
//! solves the eigenproblem over the distinct rows only, weighted by their
//! multiplicities. That is exact, because identical rows put `e_i − e_j` in
//! the null space of the normalised affinity, so every Laplacian
//! eigenvector with an eigenvalue other than 1 is constant across identical
//! rows (see `clustering::spectral`). The fit still builds the full `n × n`
//! matrix, because the degrees are its row sums, but only as a temporary:
//! the model keeps the per-length partitions, and
//! [`KGraphModel::consensus`](crate::KGraphModel::consensus) rebuilds the
//! matrix from them when the Under-the-Hood frame draws it.

use clustering::spectral::{spectral_clustering, SpectralOptions};
use linalg::matrix::Matrix;

/// Builds the consensus matrix from `M` partitions over the same `n`
/// series: `MC[i][j] = (1/M) · |{ℓ : L_ℓ(i) == L_ℓ(j)}|`.
///
/// The matrix is symmetric with a unit diagonal. Panics if partitions have
/// inconsistent lengths or none are supplied.
pub fn consensus_matrix(partitions: &[Vec<usize>]) -> Matrix {
    assert!(!partitions.is_empty(), "need at least one partition");
    let n = partitions[0].len();
    assert!(
        partitions.iter().all(|p| p.len() == n),
        "all partitions must label the same series"
    );
    let m = partitions.len() as f64;
    let mut mc = Matrix::zeros(n, n);
    for p in partitions {
        for i in 0..n {
            for j in i..n {
                if p[i] == p[j] {
                    mc[(i, j)] += 1.0;
                }
            }
        }
    }
    for i in 0..n {
        for j in i..n {
            let v = mc[(i, j)] / m;
            mc[(i, j)] = v;
            mc[(j, i)] = v;
        }
    }
    mc
}

/// Spectral consensus: final labels from the consensus matrix.
pub fn consensus_labels(mc: &Matrix, k: usize, seed: u64) -> Vec<usize> {
    spectral_clustering(mc, SpectralOptions::new(k, seed))
}

/// k-Means consensus (ablation): clusters the *rows* of the consensus
/// matrix instead of its spectral embedding.
pub fn consensus_labels_kmeans(mc: &Matrix, k: usize, seed: u64) -> Vec<usize> {
    clustering::kmeans::KMeans::new(k, seed)
        .fit(&mc.to_rows())
        .labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustering::metrics::adjusted_rand_index;

    #[test]
    fn consensus_of_identical_partitions_is_binary() {
        let p = vec![0, 0, 1, 1, 2];
        let mc = consensus_matrix(&[p.clone(), p.clone(), p.clone()]);
        for i in 0..5 {
            for j in 0..5 {
                let expected = if p[i] == p[j] { 1.0 } else { 0.0 };
                assert_eq!(mc[(i, j)], expected);
            }
        }
    }

    #[test]
    fn consensus_diagonal_is_one_and_symmetric() {
        let partitions = vec![vec![0, 1, 0, 1], vec![0, 0, 1, 1], vec![1, 0, 1, 0]];
        let mc = consensus_matrix(&partitions);
        assert!(mc.is_symmetric(1e-12));
        for i in 0..4 {
            assert_eq!(mc[(i, i)], 1.0);
        }
        // Values are thirds.
        assert!((mc[(0, 2)] - 2.0 / 3.0).abs() < 1e-12);
        assert!((mc[(0, 1)] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn disagreeing_partitions_average() {
        // Partition A groups {0,1}, partition B groups {1,2}: pairs get 1/2.
        let mc = consensus_matrix(&[vec![0, 0, 1], vec![0, 1, 1]]);
        assert_eq!(mc[(0, 1)], 0.5);
        assert_eq!(mc[(1, 2)], 0.5);
        assert_eq!(mc[(0, 2)], 0.0);
    }

    #[test]
    fn spectral_consensus_recovers_majority_structure() {
        // 4 partitions agree on blocks {0..5}, {6..11}; 1 is random-ish.
        let n = 12;
        let block: Vec<usize> = (0..n).map(|i| usize::from(i >= 6)).collect();
        let noisy: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let mc = consensus_matrix(&[
            block.clone(),
            block.clone(),
            block.clone(),
            block.clone(),
            noisy,
        ]);
        let labels = consensus_labels(&mc, 2, 0);
        assert!((adjusted_rand_index(&block, &labels) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kmeans_consensus_also_recovers_blocks() {
        let n = 10;
        let block: Vec<usize> = (0..n).map(|i| usize::from(i >= 5)).collect();
        let mc = consensus_matrix(&[block.clone(), block.clone()]);
        let labels = consensus_labels_kmeans(&mc, 2, 0);
        assert!((adjusted_rand_index(&block, &labels) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn empty_partition_list_panics() {
        consensus_matrix(&[]);
    }

    #[test]
    #[should_panic(expected = "same series")]
    fn inconsistent_lengths_panic() {
        consensus_matrix(&[vec![0, 1], vec![0, 1, 2]]);
    }
}
