//! LU factorization with partial pivoting.
//!
//! Modified-nodal-analysis (MNA) systems assembled by the circuit engine are
//! square but neither symmetric nor positive definite, so the GP-oriented
//! [`crate::Cholesky`] cannot solve them. This module provides the classic
//! Doolittle LU with row pivoting, which is what production SPICE engines use
//! (usually in sparse form; our matrices are small enough that dense is
//! simpler and fast).

use crate::{LinalgError, Matrix};

/// LU factorization `P A = L U` with partial (row) pivoting.
///
/// # Examples
///
/// ```
/// use mfbo_linalg::{Matrix, Lu};
///
/// # fn main() -> Result<(), mfbo_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[0.0, 2.0], &[1.0, 1.0]]); // needs pivoting
/// let lu = Lu::new(&a)?;
/// let x = lu.solve(&[2.0, 3.0]);
/// assert!((x[0] - 2.0).abs() < 1e-12); // x = (2, 1)
/// assert!((x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Combined storage: strictly-lower part holds `L` (unit diagonal
    /// implied), upper part holds `U`.
    lu: Matrix,
    /// Row permutation: row `i` of the factored matrix is row `perm[i]` of
    /// the input.
    perm: Vec<usize>,
    /// Sign of the permutation, needed for the determinant.
    perm_sign: f64,
}

impl Default for Lu {
    /// An empty factorization (`dim() == 0`), to be filled by
    /// [`Lu::refactor`].
    fn default() -> Self {
        Lu {
            lu: Matrix::zeros(0, 0),
            perm: Vec::new(),
            perm_sign: 1.0,
        }
    }
}

impl Lu {
    /// Factorizes `a`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if no usable pivot exists in some
    /// column and [`LinalgError::ShapeMismatch`] if `a` is not square.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        let mut lu = Lu::default();
        lu.refactor(a)?;
        Ok(lu)
    }

    /// Factorizes `a` into this factorization's own storage, reusing its
    /// buffers when they are large enough (the allocation-free path of
    /// an iterative solver that refactors every step).
    ///
    /// On `Err` the factorization is left empty (`dim() == 0`), so a stale
    /// factor of an earlier matrix can never be used to solve.
    ///
    /// # Errors
    ///
    /// As [`Lu::new`].
    pub fn refactor(&mut self, a: &Matrix) -> Result<(), LinalgError> {
        let factored = if a.is_square() {
            let n = a.rows();
            self.lu.clone_from(a);
            self.perm.clear();
            self.perm.extend(0..n);
            factor_in_place(self.lu.as_mut_slice(), n, &mut self.perm)
        } else {
            Err(LinalgError::ShapeMismatch { context: "lu" })
        };
        match factored {
            Ok(sign) => {
                self.perm_sign = sign;
                Ok(())
            }
            Err(e) => {
                // Empty, but the buffers keep their capacity.
                self.lu.clone_from(&Matrix::zeros(0, 0));
                self.perm.clear();
                self.perm_sign = 1.0;
                Err(e)
            }
        }
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Combined factor storage: the strictly-lower part holds `L` (unit
    /// diagonal implied), the upper part `U`.
    pub fn factor(&self) -> &Matrix {
        &self.lu
    }

    /// Row permutation: row `i` of the factored matrix is row
    /// `permutation()[i]` of the input.
    pub fn permutation(&self) -> &[usize] {
        &self.perm
    }

    /// Solves `A x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.dim()];
        self.solve_into(b, &mut x);
        x
    }

    /// Solves `A x = b` into the caller's buffer `x` (forward substitution
    /// writes `y = L⁻¹ P b` into `x`, back substitution overwrites it with
    /// the solution).
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` or `x.len()` differs from `self.dim()`.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        let n = self.dim();
        assert_eq!(b.len(), n, "lu solve length mismatch");
        assert_eq!(x.len(), n, "lu solve output length mismatch");
        // Apply permutation, then forward solve with unit-lower L.
        for i in 0..n {
            let row = self.lu.row(i);
            let mut s = b[self.perm[i]];
            for (l, y) in row[..i].iter().zip(&x[..i]) {
                s -= l * y;
            }
            x[i] = s;
        }
        // Back solve with U.
        for i in (0..n).rev() {
            let row = self.lu.row(i);
            let mut s = x[i];
            for (u, xk) in row[i + 1..].iter().zip(&x[i + 1..]) {
                s -= u * xk;
            }
            x[i] = s / row[i];
        }
    }

    /// Determinant of the original matrix.
    pub fn det(&self) -> f64 {
        let mut d = self.perm_sign;
        for i in 0..self.dim() {
            d *= self.lu[(i, i)];
        }
        d
    }

    /// Explicit inverse `A⁻¹` (column-by-column solve).
    pub fn inverse(&self) -> Matrix {
        let n = self.dim();
        let mut out = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for j in 0..n {
            e[j] = 1.0;
            let x = self.solve(&e);
            for i in 0..n {
                out[(i, j)] = x[i];
            }
            e[j] = 0.0;
        }
        out
    }
}

/// Doolittle LU with partial pivoting on row-major `n x n` storage, in
/// place: on success `lu` holds `L` (strictly lower, unit diagonal implied)
/// and `U`, `perm` (which must enter as the identity) holds the row
/// permutation, and the permutation's sign is returned.
fn factor_in_place(lu: &mut [f64], n: usize, perm: &mut [usize]) -> Result<f64, LinalgError> {
    let mut perm_sign = 1.0;
    for k in 0..n {
        // Find pivot row: largest |value| in column k at or below row k.
        let mut p = k;
        let mut pmax = lu[k * n + k].abs();
        for i in (k + 1)..n {
            let v = lu[i * n + k].abs();
            if v > pmax {
                pmax = v;
                p = i;
            }
        }
        if pmax == 0.0 || !pmax.is_finite() {
            return Err(LinalgError::Singular { pivot: k });
        }
        if p != k {
            // Swap whole rows (both the L and U parts travel together in
            // the Doolittle scheme).
            let (top, bottom) = lu.split_at_mut(p * n);
            top[k * n..(k + 1) * n].swap_with_slice(&mut bottom[..n]);
            perm.swap(k, p);
            perm_sign = -perm_sign;
        }
        let (top, bottom) = lu.split_at_mut((k + 1) * n);
        let row_k = &top[k * n..];
        let pivot = row_k[k];
        for row_i in bottom.chunks_exact_mut(n) {
            let m = row_i[k] / pivot;
            row_i[k] = m;
            if m != 0.0 {
                for (v, &u) in row_i[k + 1..].iter_mut().zip(&row_k[k + 1..]) {
                    *v -= m * u;
                }
            }
        }
    }
    Ok(perm_sign)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_general_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]);
        let lu = Lu::new(&a).unwrap();
        let x = lu.solve(&[8.0, -11.0, -3.0]);
        // Known solution (2, 3, -1).
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = Lu::new(&a).unwrap();
        let x = lu.solve(&[3.0, 7.0]);
        assert!((x[0] - 7.0).abs() < 1e-14);
        assert!((x[1] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn determinant_with_permutation_sign() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = Lu::new(&a).unwrap();
        assert!((lu.det() + 1.0).abs() < 1e-14);

        let b = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert!((Lu::new(&b).unwrap().det() - 12.0).abs() < 1e-14);
    }

    #[test]
    fn rejects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(Lu::new(&a), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Lu::new(&a),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn inverse_round_trip() {
        let a = Matrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]);
        let inv = Lu::new(&a).unwrap().inverse();
        let prod = a.matmul(&inv);
        assert!(prod.max_abs_diff(&Matrix::identity(2)) < 1e-12);
    }

    #[test]
    fn random_round_trip() {
        // Deterministic pseudo-random matrix; verify A * solve(b) == b.
        let n = 12;
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let a = Matrix::from_fn(n, n, |i, j| next() + if i == j { 2.0 } else { 0.0 });
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = Lu::new(&a).unwrap().solve(&b);
        let back = a.matvec(&x);
        for (u, v) in b.iter().zip(&back) {
            assert!((u - v).abs() < 1e-10);
        }
    }
}
