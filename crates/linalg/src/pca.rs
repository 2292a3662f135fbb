//! Principal Component Analysis.
//!
//! k-Graph's graph embedding projects every subsequence of length ℓ into a
//! 2-D space via PCA "while retaining their essential shapes" (paper §II-A).
//! This implementation fits on the covariance matrix with Jacobi
//! eigendecomposition, which is exact and deterministic.
//!
//! The full `ℓ × ℓ` eigendecomposition is wasteful for a 2-D projection,
//! and it, not the covariance accumulation, dominates the fit once ℓ
//! passes a few dozen: on 2,000 rows of CBF windows (release build, 2-vCPU
//! Xeon VM) the covariance took 1.1, 5.0 and 11 ms and `symmetric_eigen`
//! 0.5, 14 and 91 ms at ℓ = 26, 77 and 128.

use crate::eigen::symmetric_eigen;
use crate::matrix::Matrix;

/// A fitted PCA model.
#[derive(Debug, Clone)]
pub struct Pca {
    /// Column means of the training data (subtracted before projection).
    mean: Vec<f64>,
    /// Principal axes, one per *row*, orthonormal, sorted by variance.
    components: Matrix,
    /// Variance explained by each retained component.
    explained_variance: Vec<f64>,
    /// Total variance of the training data (sum over all directions).
    total_variance: f64,
}

impl Pca {
    /// Fits a PCA with `n_components` axes on the rows of `data`.
    ///
    /// `n_components` is clamped to `min(rows, cols)`. Degenerate inputs
    /// (no rows / no columns) produce an empty model that projects to zeros.
    pub fn fit(data: &Matrix, n_components: usize) -> Pca {
        let cols = data.cols();
        let keep = n_components.min(cols).min(data.rows().max(1));
        if data.rows() == 0 || cols == 0 {
            return Pca {
                mean: vec![0.0; cols],
                components: Matrix::zeros(0, cols),
                explained_variance: Vec::new(),
                total_variance: 0.0,
            };
        }
        let mean = data.col_means();
        let cov = data.covariance();
        let total_variance: f64 = (0..cols).map(|i| cov[(i, i)]).sum();
        let eig = symmetric_eigen(&cov);
        let mut components = Matrix::zeros(keep, cols);
        let mut explained = Vec::with_capacity(keep);
        for c in 0..keep {
            // Numerical noise can push tiny eigenvalues below zero.
            explained.push(eig.values[c].max(0.0));
            for r in 0..cols {
                components[(c, r)] = eig.vectors[(r, c)];
            }
        }
        Pca {
            mean,
            components,
            explained_variance: explained,
            total_variance,
        }
    }

    /// Reassembles a PCA from its raw parts (the inverse of the accessors
    /// below) — the hook model serialization uses to round-trip a fitted
    /// projection without refitting. `components` must be one axis per row
    /// with `mean.len()` columns and one `explained_variance` entry per
    /// axis.
    pub fn from_parts(
        mean: Vec<f64>,
        components: Matrix,
        explained_variance: Vec<f64>,
        total_variance: f64,
    ) -> Pca {
        assert_eq!(
            components.cols(),
            mean.len(),
            "component width must match mean length"
        );
        assert_eq!(
            components.rows(),
            explained_variance.len(),
            "one explained-variance entry per component"
        );
        Pca {
            mean,
            components,
            explained_variance,
            total_variance,
        }
    }

    /// Number of retained components.
    pub fn n_components(&self) -> usize {
        self.components.rows()
    }

    /// The principal axes (one per row).
    pub fn components(&self) -> &Matrix {
        &self.components
    }

    /// Column means learned at fit time.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Variance captured by each retained component.
    pub fn explained_variance(&self) -> &[f64] {
        &self.explained_variance
    }

    /// Total variance of the training data (all directions, not just the
    /// retained ones).
    pub fn total_variance(&self) -> f64 {
        self.total_variance
    }

    /// Fraction of total variance captured by each retained component.
    pub fn explained_variance_ratio(&self) -> Vec<f64> {
        if self.total_variance <= f64::MIN_POSITIVE {
            return vec![0.0; self.explained_variance.len()];
        }
        self.explained_variance
            .iter()
            .map(|v| v / self.total_variance)
            .collect()
    }

    /// Projects a single observation onto the retained axes.
    pub fn project(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(
            x.len(),
            self.mean.len(),
            "PCA projection dimension mismatch"
        );
        (0..self.components.rows())
            .map(|c| self.axis(c, x))
            .collect()
    }

    /// Projects a single observation onto the first two retained axes
    /// without allocating. Missing axes (fewer than two components) yield
    /// zero coordinates.
    ///
    /// Both forms sum each axis with the same sequential loop
    /// (`w[i] · (x[i] − mean[i])`), so the coordinates are bit-identical to
    /// `project(x)[0..2]` — callers can mix the two forms freely without
    /// ulp drift between fit-time and serve-time paths.
    pub fn project2(&self, x: &[f64]) -> (f64, f64) {
        assert_eq!(
            x.len(),
            self.mean.len(),
            "PCA projection dimension mismatch"
        );
        let axis = |c| {
            if c < self.components.rows() {
                self.axis(c, x)
            } else {
                0.0
            }
        };
        (axis(0), axis(1))
    }

    /// Coordinate of `x` on retained axis `c`: `Σ w[i] · (x[i] − mean[i])`,
    /// summed in index order without a centred copy of `x`.
    fn axis(&self, c: usize, x: &[f64]) -> f64 {
        let mut acc = 0.0;
        for ((w, xv), m) in self.components.row(c).iter().zip(x).zip(&self.mean) {
            acc += w * (xv - m);
        }
        acc
    }

    /// Projects every row of `data`; returns a `rows × n_components` matrix.
    pub fn transform(&self, data: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(data.rows(), self.n_components());
        for r in 0..data.rows() {
            let p = self.project(data.row(r));
            out.row_mut(r).copy_from_slice(&p);
        }
        out
    }

    /// Convenience: fit and transform in one call.
    pub fn fit_transform(data: &Matrix, n_components: usize) -> (Pca, Matrix) {
        let pca = Pca::fit(data, n_components);
        let projected = pca.transform(data);
        (pca, projected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rows scattered along the direction (1, 1) with tiny orthogonal noise.
    fn diagonal_cloud() -> Matrix {
        let mut rows = Vec::new();
        for i in 0..40 {
            let t = i as f64 / 4.0;
            let noise = if i % 2 == 0 { 0.01 } else { -0.01 };
            rows.push(vec![t + noise, t - noise]);
        }
        Matrix::from_rows(&rows)
    }

    #[test]
    fn from_parts_round_trips_projections() {
        let data = diagonal_cloud();
        let pca = Pca::fit(&data, 2);
        let rebuilt = Pca::from_parts(
            pca.mean().to_vec(),
            pca.components().clone(),
            pca.explained_variance().to_vec(),
            pca.total_variance(),
        );
        assert_eq!(rebuilt.total_variance(), pca.total_variance());
        for r in 0..data.rows() {
            assert_eq!(rebuilt.project(data.row(r)), pca.project(data.row(r)));
        }
    }

    #[test]
    fn first_component_follows_spread() {
        let data = diagonal_cloud();
        let pca = Pca::fit(&data, 2);
        let c0 = pca.components().row(0);
        // Should align with (1,1)/√2 up to sign.
        let target = 1.0 / 2f64.sqrt();
        assert!((c0[0].abs() - target).abs() < 1e-3);
        assert!((c0[1].abs() - target).abs() < 1e-3);
        assert!(c0[0] * c0[1] > 0.0, "both components same sign");
        let ratio = pca.explained_variance_ratio();
        assert!(ratio[0] > 0.99, "first axis must dominate, got {ratio:?}");
    }

    #[test]
    fn projection_is_centred() {
        let data = diagonal_cloud();
        let (pca, proj) = Pca::fit_transform(&data, 2);
        assert_eq!(proj.shape(), (40, 2));
        let means = proj.col_means();
        assert!(means[0].abs() < 1e-9);
        assert!(means[1].abs() < 1e-9);
        assert_eq!(pca.n_components(), 2);
    }

    #[test]
    fn variance_preserved_by_full_projection() {
        let data = diagonal_cloud();
        let (pca, proj) = Pca::fit_transform(&data, 2);
        // Total variance of projections equals total variance of data.
        let pv = proj.covariance();
        let var_sum = pv[(0, 0)] + pv[(1, 1)];
        let explained: f64 = pca.explained_variance().iter().sum();
        assert!((var_sum - explained).abs() < 1e-8);
    }

    #[test]
    fn clamps_components() {
        let data = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0], vec![0.0, 0.5]]);
        let pca = Pca::fit(&data, 10);
        assert_eq!(pca.n_components(), 2);
    }

    #[test]
    fn degenerate_inputs() {
        let empty = Matrix::zeros(0, 3);
        let pca = Pca::fit(&empty, 2);
        assert_eq!(pca.n_components(), 0);
        assert!(pca.explained_variance_ratio().is_empty());

        let constant = Matrix::from_rows(&[vec![5.0, 5.0], vec![5.0, 5.0]]);
        let p2 = Pca::fit(&constant, 1);
        let proj = p2.transform(&constant);
        // Constant data projects to (numerically) zero.
        assert!(proj.frobenius() < 1e-9);
        assert_eq!(p2.explained_variance_ratio(), vec![0.0]);
    }

    #[test]
    fn orthonormal_components() {
        let data = diagonal_cloud();
        let pca = Pca::fit(&data, 2);
        let c = pca.components();
        for i in 0..2 {
            for j in 0..2 {
                let dot: f64 = c.row(i).iter().zip(c.row(j)).map(|(a, b)| a * b).sum();
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expected).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn project2_bit_identical_to_project() {
        let data = diagonal_cloud();
        let pca = Pca::fit(&data, 2);
        for r in 0..data.rows() {
            let full = pca.project(data.row(r));
            let (x, y) = pca.project2(data.row(r));
            assert_eq!(x, full[0]);
            assert_eq!(y, full[1]);
        }
        // One retained axis: the second coordinate is exactly zero.
        let p1 = Pca::fit(&data, 1);
        let (x, y) = p1.project2(data.row(0));
        assert_eq!(x, p1.project(data.row(0))[0]);
        assert_eq!(y, 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn project_wrong_dims_panics() {
        let data = diagonal_cloud();
        let pca = Pca::fit(&data, 1);
        pca.project(&[1.0, 2.0, 3.0]);
    }
}
