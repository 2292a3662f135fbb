//! Spectral clustering (Ng–Jordan–Weiss normalised variant).
//!
//! k-Graph's Consensus Clustering step runs spectral clustering on the
//! consensus matrix (treated as a precomputed affinity); the Benchmark frame
//! also uses it as a raw baseline with an RBF affinity.
//!
//! Both entry points solve the eigenproblem over groups of identical
//! affinity rows. [`spectral_clustering`] finds the groups by comparing the
//! rows of a dense matrix bit by bit; [`spectral_clustering_grouped`] takes
//! groups its caller already knows, with the affinity as a function, and
//! never needs the `n × n` matrix. The k-Graph fit uses the latter with its
//! series grouped by label signature (`kgraph::consensus`).

use crate::kmeans::KMeans;
use linalg::eigen::symmetric_eigen;
use linalg::matrix::Matrix;
use std::collections::HashMap;
use tscore::kernel::sq_dist;

/// Options for [`spectral_clustering`].
#[derive(Debug, Clone, Copy)]
pub struct SpectralOptions {
    /// Number of clusters.
    pub k: usize,
    /// Seed for the k-Means step on the spectral embedding.
    pub seed: u64,
    /// Restarts for the k-Means step.
    pub n_init: usize,
}

impl SpectralOptions {
    /// Default options for `k` clusters.
    pub fn new(k: usize, seed: u64) -> Self {
        SpectralOptions {
            k,
            seed,
            n_init: 10,
        }
    }
}

/// Spectral clustering on a precomputed symmetric affinity matrix.
///
/// Pipeline: symmetric normalised Laplacian `L = I − D^{-1/2} A D^{-1/2}`,
/// bottom-k eigenvectors, row-normalised spectral embedding, k-Means.
///
/// The rows of `A` are grouped by bit-identical contents and the
/// eigenproblem is solved over the `s` groups rather than all `n` rows
/// (see [`spectral_clustering_grouped`]). A matrix without duplicate rows
/// has `s = n`, and its reduced problem is the full problem bit for bit.
///
/// Panics if the affinity is not square or `k == 0`. Negative affinities are
/// clamped to zero; isolated rows (zero degree) are tolerated.
pub fn spectral_clustering(affinity: &Matrix, opts: SpectralOptions) -> Vec<usize> {
    assert_eq!(affinity.rows(), affinity.cols(), "affinity must be square");
    let groups = RowGroups::by(
        affinity.rows(),
        |i| RowGroups::hash(affinity.row(i).iter().map(|x| x.to_bits())),
        |i, j| {
            affinity
                .row(i)
                .iter()
                .zip(affinity.row(j))
                .all(|(a, b)| a.to_bits() == b.to_bits())
        },
    );
    spectral_clustering_grouped(&groups, |i, j| affinity[(i, j)], opts)
}

/// Spectral clustering of `n` rows whose affinity rows are identical
/// within each of `groups`, without an `n × n` matrix.
///
/// `affinity(i, j)` is `A[i][j]`; it is read only for rows `i` that are
/// group representatives, `s · (n + s)` reads in all. The reduction is
/// exact: when rows `i` and `j` of the symmetric `A` are identical,
/// `e_i − e_j` lies in the null space of `N = D^{-1/2} A D^{-1/2}`, so
/// every eigenvector of `L` with an eigenvalue other than 1 is constant on
/// each group. With group multiplicities `w` and `Ñ` the `N` entries
/// between group representatives, those eigenvectors are
/// `v_i = z_{g(i)} / √w_{g(i)}` for the eigenvectors `z` of the `s × s`
/// matrix `L̃ = I − W^{1/2} Ñ W^{1/2}`, with the same eigenvalues. The
/// `n − s` dropped eigenvectors (eigenvalue exactly 1) only tell rows of
/// one group apart, so a group always shares a label. Rows in one group
/// share a degree, so each is summed once, at the representative, over
/// all `n` columns in index order; `L̃` is then the reduced Laplacian of
/// the full matrix to the last bit. When `s < k`, all `s` eigenvectors
/// form the embedding.
///
/// Panics if `k == 0`. Negative affinities are clamped to zero; isolated
/// rows (zero degree) are tolerated.
pub fn spectral_clustering_grouped(
    groups: &RowGroups,
    affinity: impl Fn(usize, usize) -> f64,
    opts: SpectralOptions,
) -> Vec<usize> {
    assert!(opts.k > 0, "k must be > 0");
    let n = groups.of_row.len();
    if n == 0 {
        return Vec::new();
    }
    if opts.k == 1 {
        return vec![0; n];
    }

    // Degrees of the representatives (clamping negatives keeps the
    // Laplacian PSD-ish).
    let inv_sqrt: Vec<f64> = groups
        .reps
        .iter()
        .map(|&i| {
            let mut d = 0.0f64;
            for j in 0..n {
                d += affinity(i, j).max(0.0);
            }
            if d > 1e-12 {
                1.0 / d.sqrt()
            } else {
                0.0
            }
        })
        .collect();

    // L̃ = I − W^{1/2} Ñ W^{1/2} over the group representatives.
    let s = groups.reps.len();
    let sqrt_w: Vec<f64> = groups.sizes.iter().map(|&w| (w as f64).sqrt()).collect();
    let mut lap = Matrix::zeros(s, s);
    for (g, &i) in groups.reps.iter().enumerate() {
        for (h, &j) in groups.reps.iter().enumerate() {
            let a = affinity(i, j).max(0.0);
            let v = sqrt_w[g] * (-inv_sqrt[g] * a * inv_sqrt[h]) * sqrt_w[h];
            lap[(g, h)] = if g == h { 1.0 + v } else { v };
        }
    }

    // Bottom-k eigenvectors = last k columns (Jacobi sorts descending),
    // lifted back to one entry per row.
    let eig = symmetric_eigen(&lap);
    let k = opts.k.min(s);
    let mut embedding = vec![vec![0.0f64; k]; n];
    for (c, col) in (s - k..s).rev().enumerate() {
        // col iterates the smallest eigenvalues; order within the embedding
        // does not matter for k-Means.
        for (e_row, &g) in embedding.iter_mut().zip(&groups.of_row) {
            e_row[c] = eig.vectors[(g, col)] / sqrt_w[g];
        }
    }
    // Row-normalise (NJW).
    for row in &mut embedding {
        let norm = row.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 1e-12 {
            for x in row.iter_mut() {
                *x /= norm;
            }
        }
    }

    KMeans {
        k: opts.k,
        max_iter: 200,
        n_init: opts.n_init,
        seed: opts.seed,
    }
    .fit(&embedding)
    .labels
}

/// Rows `0..n` grouped by identical contents; groups are numbered in order
/// of first occurrence.
#[derive(Debug)]
pub struct RowGroups {
    of_row: Vec<usize>,
    reps: Vec<usize>,
    sizes: Vec<usize>,
}

impl RowGroups {
    /// Groups rows `0..n`, where `hash(i)` hashes row `i`'s contents and
    /// `same(i, j)` tells whether rows `i` and `j` are identical. Each row
    /// is compared only with the groups that share its hash, so the cost
    /// is `n` hashes plus about one comparison per row.
    pub fn by(
        n: usize,
        hash: impl Fn(usize) -> u64,
        same: impl Fn(usize, usize) -> bool,
    ) -> RowGroups {
        let mut groups = RowGroups {
            of_row: Vec::with_capacity(n),
            reps: Vec::new(),
            sizes: Vec::new(),
        };
        // Row hash → groups with that hash; a hit is confirmed by `same`.
        let mut by_hash: HashMap<u64, Vec<usize>> = HashMap::new();
        for i in 0..n {
            let candidates = by_hash.entry(hash(i)).or_default();
            let g = match candidates
                .iter()
                .copied()
                .find(|&g| same(groups.reps[g], i))
            {
                Some(g) => g,
                None => {
                    let g = groups.reps.len();
                    groups.reps.push(i);
                    groups.sizes.push(0);
                    candidates.push(g);
                    g
                }
            };
            groups.sizes[g] += 1;
            groups.of_row.push(g);
        }
        groups
    }

    /// A row hash for [`RowGroups::by`] over the row's contents as words.
    pub fn hash(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0u64, |h, w| {
            (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95)
        })
    }

    /// Group of each row.
    pub fn of_row(&self) -> &[usize] {
        &self.of_row
    }

    /// First row of each group.
    pub fn reps(&self) -> &[usize] {
        &self.reps
    }
}

/// Gaussian (RBF) affinity between rows: `exp(−‖x−y‖² / (2σ²))`.
///
/// `sigma = None` uses the median pairwise distance (a robust default).
pub fn rbf_affinity(rows: &[Vec<f64>], sigma: Option<f64>) -> Matrix {
    let n = rows.len();
    let mut d2 = Matrix::zeros(n, n);
    let mut all: Vec<f64> = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            let d = sq_dist(&rows[i], &rows[j]);
            d2[(i, j)] = d;
            d2[(j, i)] = d;
            all.push(d.sqrt());
        }
    }
    let sigma = sigma.unwrap_or_else(|| {
        if all.is_empty() {
            1.0
        } else {
            all.sort_by(f64::total_cmp);
            let med = all[all.len() / 2];
            if med > 1e-12 {
                med
            } else {
                1.0
            }
        }
    });
    let denom = 2.0 * sigma * sigma;
    Matrix::from_fn(n, n, |i, j| {
        if i == j {
            1.0
        } else {
            (-d2[(i, j)] / denom).exp()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::adjusted_rand_index;

    fn two_blobs() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for i in 0..15 {
            rows.push(vec![0.0 + (i % 4) as f64 * 0.1, (i % 3) as f64 * 0.1]);
            truth.push(0);
            rows.push(vec![
                10.0 + (i % 4) as f64 * 0.1,
                10.0 + (i % 3) as f64 * 0.1,
            ]);
            truth.push(1);
        }
        (rows, truth)
    }

    #[test]
    fn block_diagonal_affinity_recovers_blocks() {
        // Perfect consensus-style matrix: 1 within blocks, 0 across.
        let n = 12;
        let aff = Matrix::from_fn(n, n, |i, j| if (i < 6) == (j < 6) { 1.0 } else { 0.0 });
        let labels = spectral_clustering(&aff, SpectralOptions::new(2, 0));
        let truth: Vec<usize> = (0..n).map(|i| usize::from(i >= 6)).collect();
        assert!((adjusted_rand_index(&truth, &labels) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn three_blocks() {
        let n = 15;
        let block = |i: usize| i / 5;
        let aff = Matrix::from_fn(n, n, |i, j| if block(i) == block(j) { 0.9 } else { 0.02 });
        let labels = spectral_clustering(&aff, SpectralOptions::new(3, 1));
        let truth: Vec<usize> = (0..n).map(block).collect();
        assert!((adjusted_rand_index(&truth, &labels) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rbf_affinity_then_spectral_separates_blobs() {
        let (rows, truth) = two_blobs();
        let aff = rbf_affinity(&rows, None);
        let labels = spectral_clustering(&aff, SpectralOptions::new(2, 0));
        assert!((adjusted_rand_index(&truth, &labels) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn row_groups_number_by_first_occurrence() {
        // A hash that tells the rows apart, and one under which they all
        // collide and `same` alone decides.
        let hashes: [fn(usize) -> u64; 2] = [|i| (i % 2) as u64, |_| 0];
        for hash in hashes {
            let groups = RowGroups::by(5, hash, |i, j| i % 2 == j % 2);
            assert_eq!(groups.of_row, vec![0, 1, 0, 1, 0]);
            assert_eq!(groups.reps, vec![0, 1]);
            assert_eq!(groups.sizes, vec![3, 2]);
        }
    }

    #[test]
    fn k_one_trivial() {
        let aff = Matrix::identity(5);
        let labels = spectral_clustering(&aff, SpectralOptions::new(1, 0));
        assert_eq!(labels, vec![0; 5]);
    }

    #[test]
    fn empty_affinity() {
        let labels = spectral_clustering(&Matrix::zeros(0, 0), SpectralOptions::new(2, 0));
        assert!(labels.is_empty());
    }

    #[test]
    fn isolated_nodes_tolerated() {
        // Node 4 has zero affinity to everyone.
        let mut aff = Matrix::zeros(5, 5);
        for i in 0..4 {
            for j in 0..4 {
                aff[(i, j)] = if (i < 2) == (j < 2) { 1.0 } else { 0.0 };
            }
        }
        let labels = spectral_clustering(&aff, SpectralOptions::new(2, 0));
        assert_eq!(labels.len(), 5);
        assert!(labels.iter().all(|&l| l < 2));
    }

    #[test]
    fn rbf_degenerate_identical_points() {
        let rows = vec![vec![1.0, 1.0]; 4];
        let aff = rbf_affinity(&rows, None);
        // All affinities 1 (distance 0, sigma fallback 1).
        for i in 0..4 {
            for j in 0..4 {
                assert!((aff[(i, j)] - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "square")]
    fn non_square_affinity_panics() {
        spectral_clustering(&Matrix::zeros(2, 3), SpectralOptions::new(2, 0));
    }

    #[test]
    fn deterministic() {
        let (rows, _) = two_blobs();
        let aff = rbf_affinity(&rows, Some(2.0));
        let a = spectral_clustering(&aff, SpectralOptions::new(2, 5));
        let b = spectral_clustering(&aff, SpectralOptions::new(2, 5));
        assert_eq!(a, b);
    }
}
