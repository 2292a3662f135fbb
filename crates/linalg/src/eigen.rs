//! Eigendecomposition of symmetric matrices.
//!
//! The cyclic Jacobi method: numerically robust and simple, but O(n³) per
//! sweep over a row-major matrix it walks by column as well as by row. It
//! suits small orders: covariance matrices of dimension 2–64, and spectral
//! clustering's reduced Laplacian, whose order is the number of *distinct*
//! affinity rows (tens for a k-Graph consensus matrix). A dense Laplacian
//! over a thousand series already takes seconds; do not feed it one.

use crate::matrix::Matrix;
use tscore::kernel::dot;

/// Result of a symmetric eigendecomposition.
///
/// Eigenpairs are sorted by **descending** eigenvalue. `vectors` holds the
/// eigenvectors as *columns*: `vectors[(i, j)]` is component `i` of the
/// eigenvector for `values[j]`.
#[derive(Debug, Clone)]
pub struct EigenDecomposition {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors, one per column, same order as `values`.
    pub vectors: Matrix,
}

impl EigenDecomposition {
    /// The eigenvector for `values[j]` as an owned vector.
    pub fn vector(&self, j: usize) -> Vec<f64> {
        self.vectors.col(j)
    }
}

/// Cyclic Jacobi eigendecomposition of a symmetric matrix.
///
/// Panics if the matrix is not square; symmetry is assumed (only the upper
/// triangle drives rotations, which matches how all call sites build their
/// matrices). Converges when the off-diagonal Frobenius mass drops below
/// `1e-12` relative to the matrix norm, or after 100 sweeps.
pub fn symmetric_eigen(m: &Matrix) -> EigenDecomposition {
    assert_eq!(
        m.rows(),
        m.cols(),
        "symmetric_eigen requires a square matrix"
    );
    let n = m.rows();
    let mut a = m.clone();
    let mut v = Matrix::identity(n);
    if n <= 1 {
        return EigenDecomposition {
            values: (0..n).map(|i| a[(i, i)]).collect(),
            vectors: v,
        };
    }

    let norm = a.frobenius().max(f64::MIN_POSITIVE);
    let tol = 1e-12 * norm;
    for _sweep in 0..100 {
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += a[(i, j)] * a[(i, j)];
            }
        }
        if off.sqrt() <= tol {
            break;
        }
        for p in 0..n - 1 {
            for q in (p + 1)..n {
                let apq = a[(p, q)];
                if apq.abs() <= tol / (n as f64) {
                    continue;
                }
                let app = a[(p, p)];
                let aqq = a[(q, q)];
                // Classic Jacobi rotation computation.
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                // Update A = Jᵀ A J, touching only rows/cols p and q.
                for k in 0..n {
                    let akp = a[(k, p)];
                    let akq = a[(k, q)];
                    a[(k, p)] = c * akp - s * akq;
                    a[(k, q)] = s * akp + c * akq;
                }
                for k in 0..n {
                    let apk = a[(p, k)];
                    let aqk = a[(q, k)];
                    a[(p, k)] = c * apk - s * aqk;
                    a[(q, k)] = s * apk + c * aqk;
                }
                // Accumulate rotations into the eigenvector matrix.
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }

    // Sort eigenpairs by descending eigenvalue.
    let mut order: Vec<usize> = (0..n).collect();
    let diag: Vec<f64> = (0..n).map(|i| a[(i, i)]).collect();
    order.sort_by(|&i, &j| diag[j].total_cmp(&diag[i]));

    let values: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (new_col, &old_col) in order.iter().enumerate() {
        for r in 0..n {
            vectors[(r, new_col)] = v[(r, old_col)];
        }
    }
    EigenDecomposition { values, vectors }
}

/// Power iteration for the dominant eigenvector of a symmetric matrix.
///
/// Cheap when only the top eigenpair is needed (k-Shape's shape extraction).
/// Deterministic: starts from an all-ones vector (falling back to a basis
/// vector if that lies in the nullspace). Returns `(eigenvalue, vector)`.
pub fn power_iteration(m: &Matrix, max_iter: usize, tol: f64) -> (f64, Vec<f64>) {
    assert_eq!(
        m.rows(),
        m.cols(),
        "power_iteration requires a square matrix"
    );
    let n = m.rows();
    if n == 0 {
        return (0.0, Vec::new());
    }
    let mut v = vec![1.0 / (n as f64).sqrt(); n];
    let mut lambda = 0.0;
    for it in 0..max_iter {
        let mut w = m.matvec(&v);
        let norm = w.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm <= f64::MIN_POSITIVE {
            // v was (numerically) in the nullspace; restart from e_{it % n}.
            v = vec![0.0; n];
            v[it % n] = 1.0;
            continue;
        }
        for x in &mut w {
            *x /= norm;
        }
        let new_lambda = dot(&w, &m.matvec(&w));
        let delta: f64 = w
            .iter()
            .zip(&v)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        v = w;
        // Sign flips (eigenvalue < 0) make `delta` oscillate; compare λ too.
        if delta < tol || (new_lambda - lambda).abs() < tol * lambda.abs().max(1.0) {
            lambda = new_lambda;
            break;
        }
        lambda = new_lambda;
    }
    (lambda, v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} !~ {b}");
    }

    #[test]
    fn eigen_of_diagonal() {
        let m = Matrix::from_rows(&[
            vec![3.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 2.0],
        ]);
        let e = symmetric_eigen(&m);
        assert_close(e.values[0], 3.0, 1e-10);
        assert_close(e.values[1], 2.0, 1e-10);
        assert_close(e.values[2], 1.0, 1e-10);
    }

    #[test]
    fn eigen_known_2x2() {
        // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
        let m = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let e = symmetric_eigen(&m);
        assert_close(e.values[0], 3.0, 1e-10);
        assert_close(e.values[1], 1.0, 1e-10);
        // Eigenvector for 3 is (1,1)/√2 up to sign.
        let v = e.vector(0);
        assert_close(v[0].abs(), 1.0 / 2f64.sqrt(), 1e-8);
        assert_close(v[1].abs(), 1.0 / 2f64.sqrt(), 1e-8);
        assert!(v[0] * v[1] > 0.0);
    }

    #[test]
    fn eigenvectors_orthonormal() {
        let m = Matrix::from_rows(&[
            vec![4.0, 1.0, 0.5],
            vec![1.0, 3.0, 0.2],
            vec![0.5, 0.2, 1.0],
        ]);
        let e = symmetric_eigen(&m);
        for i in 0..3 {
            for j in 0..3 {
                let dot: f64 = e
                    .vector(i)
                    .iter()
                    .zip(e.vector(j))
                    .map(|(a, b)| a * b)
                    .sum();
                let expected = if i == j { 1.0 } else { 0.0 };
                assert_close(dot, expected, 1e-8);
            }
        }
    }

    #[test]
    fn reconstruction() {
        let m = Matrix::from_rows(&[
            vec![5.0, 2.0, 1.0],
            vec![2.0, 4.0, 0.0],
            vec![1.0, 0.0, 3.0],
        ]);
        let e = symmetric_eigen(&m);
        // A = V Λ Vᵀ
        let mut lam = Matrix::zeros(3, 3);
        for i in 0..3 {
            lam[(i, i)] = e.values[i];
        }
        let rec = e.vectors.matmul(&lam).matmul(&e.vectors.transpose());
        assert!(rec.sub(&m).frobenius() < 1e-8);
    }

    #[test]
    fn eigen_trivial_sizes() {
        let e0 = symmetric_eigen(&Matrix::zeros(0, 0));
        assert!(e0.values.is_empty());
        let e1 = symmetric_eigen(&Matrix::from_rows(&[vec![7.0]]));
        assert_eq!(e1.values, vec![7.0]);
    }

    #[test]
    fn eigen_handles_negative_eigenvalues() {
        // [[0, 1], [1, 0]] has eigenvalues 1 and −1.
        let m = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let e = symmetric_eigen(&m);
        assert_close(e.values[0], 1.0, 1e-10);
        assert_close(e.values[1], -1.0, 1e-10);
    }

    #[test]
    fn nan_entries_do_not_panic() {
        // A NaN off-diagonal pair never converges; the sweep cap ends the
        // loop and the eigenvalues still sort.
        let m = Matrix::from_rows(&[
            vec![2.0, f64::NAN, 0.5],
            vec![f64::NAN, 1.0, 0.0],
            vec![0.5, 0.0, 3.0],
        ]);
        let e = symmetric_eigen(&m);
        assert_eq!(e.values.len(), 3);
        assert_eq!(e.vectors.shape(), (3, 3));
    }

    #[test]
    fn power_iteration_matches_jacobi() {
        let m = Matrix::from_rows(&[
            vec![4.0, 1.0, 0.0],
            vec![1.0, 3.0, 1.0],
            vec![0.0, 1.0, 2.0],
        ]);
        let full = symmetric_eigen(&m);
        let (lambda, v) = power_iteration(&m, 1000, 1e-12);
        assert_close(lambda, full.values[0], 1e-6);
        // Same direction up to sign.
        let reference = full.vector(0);
        let dot: f64 = v.iter().zip(&reference).map(|(a, b)| a * b).sum();
        assert_close(dot.abs(), 1.0, 1e-5);
    }

    #[test]
    fn power_iteration_zero_matrix() {
        let (lambda, v) = power_iteration(&Matrix::zeros(3, 3), 50, 1e-10);
        assert!(lambda.abs() < 1e-12 || lambda == 0.0);
        assert_eq!(v.len(), 3);
        let (l0, v0) = power_iteration(&Matrix::zeros(0, 0), 10, 1e-10);
        assert_eq!(l0, 0.0);
        assert!(v0.is_empty());
    }
}
