//! A dense, row-major, `f64` matrix.
//!
//! [`Matrix`] is the only matrix representation in the workspace. It is kept
//! intentionally boring: contiguous storage, explicit shapes, panicking
//! bounds checks in debug builds, and a handful of dense kernels (matmul,
//! matvec, transpose) written for clarity first. Gaussian-process training
//! spends essentially all of its time in [`crate::Cholesky`]; the kernels
//! here only have to be correct and cache-friendly.

use crate::LinalgError;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f64` values.
///
/// # Examples
///
/// ```
/// use mfbo_linalg::Matrix;
///
/// let m = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64);
/// assert_eq!(m[(1, 2)], 5.0);
/// assert_eq!(m.transpose()[(2, 1)], 5.0);
/// ```
#[derive(PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
    }

    /// Copies `source` into `self`, reusing `self`'s buffer when it is
    /// large enough.
    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        self.data.clone_from(&source.data);
    }
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix by evaluating `f(i, j)` at every position.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not all have the same length.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Matrix { rows, cols, data }
    }

    /// Creates a square matrix with `diag` on the diagonal.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index out of bounds");
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "column index out of bounds");
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Dense matrix-matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        // ikj loop order: the innermost loop walks contiguous rows of both
        // `other` and `out`, which is the cache-friendly order for row-major
        // storage.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(orow.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Dense matrix-vector product `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != x.len()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, x.len(), "matvec shape mismatch");
        (0..self.rows).map(|i| crate::dot(self.row(i), x)).collect()
    }

    /// Dense transposed matrix-vector product `selfᵀ * x`.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != x.len()`.
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(self.rows, x.len(), "matvec_t shape mismatch");
        let mut out = vec![0.0; self.cols];
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            for (o, &a) in out.iter_mut().zip(self.row(i)) {
                *o += xi * a;
            }
        }
        out
    }

    /// Element-wise sum, returning a new matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch { context: "add" });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Element-wise difference, returning a new matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch { context: "sub" });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Returns `self` scaled by `s`.
    pub fn scaled(&self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|a| a * s).collect(),
        }
    }

    /// Adds `v` to every diagonal element in place.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn add_diag(&mut self, v: f64) {
        assert!(self.is_square(), "add_diag requires a square matrix");
        for i in 0..self.rows {
            self[(i, i)] += v;
        }
    }

    /// Sum of the diagonal elements.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Frobenius norm `sqrt(sum a_ij^2)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|a| a * a).sum::<f64>().sqrt()
    }

    /// Maximum absolute element-wise difference to `other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Returns `true` when the matrix is symmetric to within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Extracts a copy of the sub-matrix with rows `r0..r1` and columns
    /// `c0..c1` (half-open ranges).
    ///
    /// # Panics
    ///
    /// Panics if the ranges exceed the matrix shape or are reversed.
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Matrix {
        assert!(r0 <= r1 && r1 <= self.rows, "row range out of bounds");
        assert!(c0 <= c1 && c1 <= self.cols, "column range out of bounds");
        Matrix::from_fn(r1 - r0, c1 - c0, |i, j| self[(r0 + i, c0 + j)])
    }

    /// Stacks `self` on top of `other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch { context: "vstack" });
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Ok(Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// Places `other` to the right of `self`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the row counts differ.
    pub fn hstack(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.rows != other.rows {
            return Err(LinalgError::ShapeMismatch { context: "hstack" });
        }
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for i in 0..self.rows {
            out.row_mut(i)[..self.cols].copy_from_slice(self.row(i));
            out.row_mut(i)[self.cols..].copy_from_slice(other.row(i));
        }
        Ok(out)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:>12.5e}", self[(i, j)])?;
                if j + 1 < self.cols.min(8) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));

        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i.trace(), 3.0);
    }

    #[test]
    fn from_rows_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn from_rows_rejects_ragged() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn matmul_against_hand_computed() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_fn(4, 4, |i, j| (i * 7 + j * 3) as f64);
        let i = Matrix::identity(4);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matvec_and_matvec_t_agree_with_matmul() {
        let a = Matrix::from_fn(3, 2, |i, j| (i + 2 * j) as f64 + 0.5);
        let x = vec![1.5, -2.0];
        let y = a.matvec(&x);
        let xm = Matrix::from_vec(2, 1, x.clone());
        let ym = a.matmul(&xm);
        for i in 0..3 {
            assert!((y[i] - ym[(i, 0)]).abs() < 1e-14);
        }
        let z = vec![1.0, 2.0, 3.0];
        let w = a.matvec_t(&z);
        let wt = a.transpose().matvec(&z);
        for j in 0..2 {
            assert!((w[j] - wt[j]).abs() < 1e-14);
        }
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |i, j| (i * 5 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn add_sub_scaled() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 5.0]]);
        let s = a.add(&b).unwrap();
        assert_eq!(s.as_slice(), &[4.0, 7.0]);
        let d = b.sub(&a).unwrap();
        assert_eq!(d.as_slice(), &[2.0, 3.0]);
        assert_eq!(a.scaled(2.0).as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn add_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(3, 2);
        assert!(matches!(a.add(&b), Err(LinalgError::ShapeMismatch { .. })));
    }

    #[test]
    fn diag_helpers() {
        let mut m = Matrix::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(m.trace(), 6.0);
        m.add_diag(0.5);
        assert_eq!(m.trace(), 7.5);
        assert_eq!(m[(0, 1)], 0.0);
    }

    #[test]
    fn symmetric_detection() {
        let s = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        assert!(s.is_symmetric(0.0));
        let ns = Matrix::from_rows(&[&[2.0, 1.0], &[0.0, 2.0]]);
        assert!(!ns.is_symmetric(1e-12));
        assert!(!Matrix::zeros(2, 3).is_symmetric(1.0));
    }

    #[test]
    fn submatrix_and_stacking() {
        let a = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let s = a.submatrix(1, 3, 0, 2);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.cols(), 2);
        assert_eq!(s[(0, 0)], 3.0);
        assert_eq!(s[(1, 1)], 7.0);

        let top = Matrix::from_rows(&[&[1.0, 2.0]]);
        let bot = Matrix::from_rows(&[&[3.0, 4.0]]);
        let v = top.vstack(&bot).unwrap();
        assert_eq!(v.rows(), 2);
        assert_eq!(v[(1, 0)], 3.0);

        let h = top.hstack(&bot).unwrap();
        assert_eq!(h.cols(), 4);
        assert_eq!(h[(0, 2)], 3.0);
    }

    #[test]
    fn frobenius_and_max_abs_diff() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-14);
        let b = Matrix::from_rows(&[&[3.5, 4.0]]);
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-14);
    }

    #[test]
    fn debug_is_nonempty() {
        let m = Matrix::zeros(1, 1);
        assert!(!format!("{m:?}").is_empty());
    }
}
