//! Dense row-major matrix.

use std::fmt;
use std::ops::{Index, IndexMut};
use tscore::kernel::dot;

/// Dense `rows × cols` matrix of `f64`, row-major storage.
///
/// Deliberately minimal: only the operations the k-Graph pipeline needs.
/// Indexing is `m[(r, c)]`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from row vectors; panics if rows are ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows in Matrix::from_rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Builds from a flat row-major vector; panics on size mismatch.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "size mismatch in Matrix::from_vec");
        Matrix { rows, cols, data }
    }

    /// Builds by evaluating `f(r, c)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow of row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` out as an owned vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Flat row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Matrix product `self · other`; panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul inner dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        // ikj loop order keeps the inner loop contiguous in both operands.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = out.row_mut(i);
                for (j, &b) in orow.iter().enumerate() {
                    out_row[j] += a * b;
                }
            }
        }
        out
    }

    /// Matrix-vector product; panics if `v.len() != cols`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "matvec dimension mismatch");
        (0..self.rows).map(|r| dot(self.row(r), v)).collect()
    }

    /// In-place scalar multiplication.
    pub fn scale(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Element-wise sum; panics on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Element-wise difference; panics on shape mismatch.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Frobenius norm.
    pub fn frobenius(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Whether the matrix is symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for r in 0..self.rows {
            for c in (r + 1)..self.cols {
                if (self[(r, c)] - self[(c, r)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Column means (the centroid of the row cloud).
    pub fn col_means(&self) -> Vec<f64> {
        let mut means = vec![0.0; self.cols];
        if self.rows == 0 {
            return means;
        }
        for r in 0..self.rows {
            for (c, m) in means.iter_mut().enumerate() {
                *m += self[(r, c)];
            }
        }
        for m in &mut means {
            *m /= self.rows as f64;
        }
        means
    }

    /// Returns a copy with column means removed (row cloud centred).
    pub fn centered(&self) -> Matrix {
        let means = self.col_means();
        let mut out = self.clone();
        for r in 0..out.rows {
            for c in 0..out.cols {
                out[(r, c)] -= means[c];
            }
        }
        out
    }

    /// Sample covariance of the columns: `Xᶜᵀ·Xᶜ / (n − 1)` where `Xᶜ` is
    /// the centred matrix. Returns a `cols × cols` symmetric matrix.
    pub fn covariance(&self) -> Matrix {
        let n = self.rows;
        let centred = self.centered();
        let mut cov = Matrix::zeros(self.cols, self.cols);
        if n < 2 {
            return cov;
        }
        for r in 0..n {
            let row = centred.row(r);
            for i in 0..self.cols {
                let xi = row[i];
                if xi == 0.0 {
                    continue;
                }
                for j in i..self.cols {
                    cov[(i, j)] += xi * row[j];
                }
            }
        }
        let denom = (n - 1) as f64;
        for i in 0..self.cols {
            for j in i..self.cols {
                let v = cov[(i, j)] / denom;
                cov[(i, j)] = v;
                cov[(j, i)] = v;
            }
        }
        cov
    }

    /// Extracts rows as owned vectors.
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        (0..self.rows).map(|r| self.row(r).to_vec()).collect()
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(6) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:9.4}", self[(r, c)])?;
                if c + 1 < self.cols.min(8) {
                    write!(f, ", ")?;
                }
            }
            writeln!(f, "{}]", if self.cols > 8 { ", …" } else { "" })?;
        }
        if self.rows > 6 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));

        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);

        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m[(1, 0)], 3.0);

        let v = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(v, m);

        let f = Matrix::from_fn(2, 2, |r, c| (r * 2 + c) as f64 + 1.0);
        assert_eq!(f, m);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn rows_cols_access() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(2), vec![3.0, 6.0]);
        assert_eq!(m.to_rows()[0], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.to_rows(), vec![vec![19.0, 22.0], vec![43.0, 50.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matvec_known() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn arithmetic() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 5.0]]);
        assert_eq!(a.add(&b).row(0), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).row(0), &[2.0, 3.0]);
        let mut c = a.clone();
        c.scale(2.0);
        assert_eq!(c.row(0), &[2.0, 4.0]);
        assert!((Matrix::identity(2).frobenius() - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn symmetry_check() {
        let s = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        assert!(s.is_symmetric(1e-12));
        let ns = Matrix::from_rows(&[vec![2.0, 1.0], vec![0.0, 3.0]]);
        assert!(!ns.is_symmetric(1e-12));
        let rect = Matrix::zeros(2, 3);
        assert!(!rect.is_symmetric(1e-12));
    }

    #[test]
    fn centering_and_covariance() {
        let m = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 14.0], vec![5.0, 18.0]]);
        assert_eq!(m.col_means(), vec![3.0, 14.0]);
        let c = m.centered();
        assert_eq!(c.col_means(), vec![0.0, 0.0]);
        let cov = m.covariance();
        assert!(cov.is_symmetric(1e-12));
        // Var(x) = 4, Var(y) = 16, Cov = 8 (sample, n−1 = 2).
        assert!((cov[(0, 0)] - 4.0).abs() < 1e-12);
        assert!((cov[(1, 1)] - 16.0).abs() < 1e-12);
        assert!((cov[(0, 1)] - 8.0).abs() < 1e-12);
    }

    #[test]
    fn covariance_degenerate() {
        let one_row = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let cov = one_row.covariance();
        assert_eq!(cov.frobenius(), 0.0);
        let empty = Matrix::zeros(0, 2);
        assert_eq!(empty.col_means(), vec![0.0, 0.0]);
    }

    #[test]
    fn debug_does_not_flood() {
        let big = Matrix::zeros(100, 100);
        let s = format!("{big:?}");
        assert!(s.len() < 2000);
        assert!(s.contains("100x100"));
    }
}
