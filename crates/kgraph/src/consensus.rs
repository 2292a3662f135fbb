//! Stage 3 — consensus clustering.
//!
//! The consensus matrix `MC[i][j]` measures how often series `i` and `j`
//! are grouped together across the `M` per-length partitions; spectral
//! clustering on `MC` produces the final k-Graph labels (paper §II-A,
//! Figure 1(d)).
//!
//! Row `i` of `MC` depends only on series `i`'s label signature (its labels
//! across the `M` partitions), so series with the same signature have
//! bit-identical rows, and series with different signatures have different
//! rows (`MC[i][i] = 1 > MC[j][i]`). At most `∏ k_ℓ` signatures exist, and
//! in practice tens cover a thousand series. The fit's entry,
//! [`consensus_labels_from_partitions`], therefore never builds `MC`: it
//! groups the series by hashing their signatures in `O(n · M)`, fills the
//! `s × s` table of agreements between the `s` signatures, and hands both
//! to `clustering::spectral::spectral_clustering_grouped`. That solves the
//! eigenproblem over the signatures, weighted by their multiplicities, and
//! sums each signature's degree once, over all `n` series in index order,
//! reading each term from the table. The labels are those of
//! [`consensus_labels`] on [`consensus_matrix`] bit for bit, in
//! `O(s · n + n · M)` time and `O(n · M + s²)` memory. The model keeps the
//! per-length partitions, and
//! [`KGraphModel::consensus`](crate::KGraphModel::consensus) builds the
//! matrix from them when the Under-the-Hood frame draws it.

use clustering::spectral::{
    spectral_clustering, spectral_clustering_grouped, RowGroups, SpectralOptions,
};
use linalg::matrix::Matrix;

/// The number of series `partitions` label. Panics if none are supplied or
/// their lengths differ.
fn series_count(partitions: &[Vec<usize>]) -> usize {
    assert!(!partitions.is_empty(), "need at least one partition");
    let n = partitions[0].len();
    assert!(
        partitions.iter().all(|p| p.len() == n),
        "all partitions must label the same series"
    );
    n
}

/// `MC[i][j]`: the share of partitions that put series `i` and `j`
/// together, counted in steps of `1.0` and divided by `M` once.
fn agreement(partitions: &[Vec<usize>], i: usize, j: usize) -> f64 {
    let mut together = 0.0;
    for p in partitions {
        if p[i] == p[j] {
            together += 1.0;
        }
    }
    together / partitions.len() as f64
}

/// Builds the consensus matrix from `M` partitions over the same `n`
/// series: `MC[i][j] = (1/M) · |{ℓ : L_ℓ(i) == L_ℓ(j)}|`.
///
/// The matrix is symmetric with a unit diagonal. Panics if partitions have
/// inconsistent lengths or none are supplied.
pub fn consensus_matrix(partitions: &[Vec<usize>]) -> Matrix {
    let n = series_count(partitions);
    let mut mc = Matrix::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            let v = agreement(partitions, i, j);
            mc[(i, j)] = v;
            mc[(j, i)] = v;
        }
    }
    mc
}

/// Spectral consensus straight from the partitions: the labels of
/// `consensus_labels(&consensus_matrix(partitions), k, seed)`, bit for
/// bit, without the `n × n` matrix. This is the fit's consensus.
///
/// Panics if partitions have inconsistent lengths or none are supplied.
pub fn consensus_labels_from_partitions(
    partitions: &[Vec<usize>],
    k: usize,
    seed: u64,
) -> Vec<usize> {
    let n = series_count(partitions);
    let signatures = RowGroups::by(
        n,
        |i| RowGroups::hash(partitions.iter().map(|p| p[i] as u64)),
        |i, j| partitions.iter().all(|p| p[i] == p[j]),
    );
    let reps = signatures.reps();
    let s = reps.len();
    let mut table = Vec::with_capacity(s * s);
    for &i in reps {
        table.extend(reps.iter().map(|&j| agreement(partitions, i, j)));
    }
    let of_row = signatures.of_row();
    spectral_clustering_grouped(
        &signatures,
        |i, j| table[of_row[i] * s + of_row[j]],
        SpectralOptions::new(k, seed),
    )
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
    fn signature_consensus_recovers_majority_structure() {
        let n = 12;
        let block: Vec<usize> = (0..n).map(|i| usize::from(i >= 6)).collect();
        let noisy: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let partitions = [block.clone(), block.clone(), block.clone(), noisy];
        let labels = consensus_labels_from_partitions(&partitions, 2, 0);
        assert_eq!(
            labels,
            consensus_labels(&consensus_matrix(&partitions), 2, 0)
        );
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

    #[test]
    #[should_panic(expected = "same series")]
    fn signature_consensus_checks_lengths() {
        consensus_labels_from_partitions(&[vec![0, 1], vec![0, 1, 2]], 2, 0);
    }
}
