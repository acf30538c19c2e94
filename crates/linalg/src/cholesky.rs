//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! The Gaussian-process stack funnels every covariance operation through
//! this module: training needs `log|K|`, `K⁻¹y` and the `K⁻¹` trace terms
//! of the NLML gradient, and prediction needs forward solves against kernel
//! cross-covariance vectors. Kernel matrices are only positive
//! *semi*-definite in exact arithmetic and frequently slip below zero in
//! floating point when inputs nearly coincide, so [`Cholesky::new_with_jitter`]
//! retries with a geometrically growing diagonal "jitter" — the standard GP
//! practice.

use crate::{LinalgError, Matrix};

/// Lower-triangular Cholesky factor `L` of an SPD matrix `A = L Lᵀ`.
///
/// # Examples
///
/// ```
/// use mfbo_linalg::{Matrix, Cholesky};
///
/// # fn main() -> Result<(), mfbo_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[25.0, 15.0, -5.0],
///                             &[15.0, 18.0,  0.0],
///                             &[-5.0,  0.0, 11.0]]);
/// let chol = Cholesky::new(&a)?;
/// // Known factor of this classic example.
/// assert!((chol.factor()[(0, 0)] - 5.0).abs() < 1e-12);
/// // det(A) = 2025 for this matrix, so log|A| = ln 2025.
/// assert!((chol.log_det() - 2025f64.ln()).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
    /// The same factor in packed column-major storage: column `j` occupies
    /// `cols[col_offset(j)..col_offset(j) + n - j]` and holds `L[j..n][j]`
    /// contiguously. Back substitution and the trailing updates of the
    /// blocked factorization walk columns of `L`; in the row-major [`Matrix`]
    /// those walks stride by `n` and miss cache on every element, so the
    /// packed copy is kept alongside the row-major factor (which row-oriented
    /// consumers — forward substitution, [`Cholesky::factor`] — still use).
    cols: Vec<f64>,
    /// Diagonal jitter that had to be added for the factorization to succeed.
    jitter: f64,
}

/// Panel width of the blocked factorization. Each diagonal panel is factored
/// column-by-column, then folded into the trailing columns one finished
/// column at a time, which keeps the floating-point operation order of every
/// element identical to the unblocked reference while touching each trailing
/// column once per panel instead of once per source column.
const PANEL: usize = 48;

impl Cholesky {
    /// Factorizes `a` without adding jitter.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] if a pivot is not
    /// strictly positive, and [`LinalgError::ShapeMismatch`] if `a` is not
    /// square.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        Self::new_with_backend(a, mfbo_simd::active())
    }

    /// [`Cholesky::new`] with an explicit SIMD backend instead of the
    /// process-wide dispatch decision — the hook the differential tests and
    /// A/B benches use to pin both paths in one process. Every backend
    /// yields a bit-identical factor.
    ///
    /// # Errors
    ///
    /// As for [`Cholesky::new`].
    pub fn new_with_backend(a: &Matrix, be: mfbo_simd::Backend) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::ShapeMismatch {
                context: "cholesky",
            });
        }
        Self::factorize(a, 0.0, be)
    }

    /// Factorizes `a`, retrying with a diagonal jitter that grows
    /// geometrically from `initial` to `max` until the factorization
    /// succeeds.
    ///
    /// This is the entry point used by the GP code. The jitter actually used
    /// is available via [`Cholesky::jitter`] so callers can fold it into
    /// their noise estimate.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] if even the maximum
    /// jitter fails, and [`LinalgError::ShapeMismatch`] if `a` is not square.
    pub fn new_with_jitter(a: &Matrix, initial: f64, max: f64) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::ShapeMismatch {
                context: "cholesky",
            });
        }
        let be = mfbo_simd::active();
        match Self::factorize(a, 0.0, be) {
            Ok(c) => Ok(c),
            Err(_) => {
                let mut jitter = initial.max(f64::MIN_POSITIVE);
                let mut attempts = 1u64;
                loop {
                    attempts += 1;
                    match Self::factorize(a, jitter, be) {
                        Ok(c) => {
                            mfbo_telemetry::debug_event!(
                                "cholesky_jitter",
                                n = a.rows(),
                                jitter = c.jitter,
                                attempts = attempts,
                                condition = c.condition_estimate(),
                            );
                            return Ok(c);
                        }
                        Err(e) if jitter >= max => {
                            mfbo_telemetry::debug_event!(
                                "cholesky_failed",
                                n = a.rows(),
                                max_jitter = max,
                                attempts = attempts,
                            );
                            return Err(e);
                        }
                        Err(_) => jitter = (jitter * 10.0).min(max),
                    }
                }
            }
        }
    }

    /// Reference unblocked factorization: the textbook element-wise
    /// algorithm the blocked kernel must reproduce bit-for-bit. Retained for
    /// differential testing ([`Cholesky::new`] and this constructor must
    /// yield identical factors on every input).
    pub fn new_unblocked(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::ShapeMismatch {
                context: "cholesky",
            });
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            // Diagonal element.
            let mut d = a[(j, j)];
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: j });
            }
            let dj = d.sqrt();
            l[(j, j)] = dj;
            // Column below the diagonal.
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / dj;
            }
        }
        let cols = Self::pack_lower(&l);
        Ok(Cholesky {
            l,
            cols,
            jitter: 0.0,
        })
    }

    /// Start index of packed column `j` within [`Cholesky::cols`].
    #[inline]
    fn col_offset(n: usize, j: usize) -> usize {
        j * (2 * n - j + 1) / 2
    }

    /// Packed column `i` of the factor: `L[i..n][i]`, contiguous.
    #[inline]
    fn col_slice(&self, i: usize) -> &[f64] {
        let n = self.dim();
        let off = Self::col_offset(n, i);
        &self.cols[off..off + n - i]
    }

    /// Packs the lower triangle of a row-major factor into contiguous
    /// column-major storage.
    fn pack_lower(l: &Matrix) -> Vec<f64> {
        let n = l.rows();
        let mut cols = vec![0.0; n * (n + 1) / 2];
        for j in 0..n {
            let off = Self::col_offset(n, j);
            for i in j..n {
                cols[off + (i - j)] = l[(i, j)];
            }
        }
        cols
    }

    fn factorize(a: &Matrix, jitter: f64, be: mfbo_simd::Backend) -> Result<Self, LinalgError> {
        let n = a.rows();
        // Pack the lower triangle of `a` (jitter folded into the diagonal)
        // into contiguous column-major storage, factor in place, then
        // materialize the row-major factor for row-oriented consumers.
        let mut cols = vec![0.0; n * (n + 1) / 2];
        for j in 0..n {
            let off = Self::col_offset(n, j);
            for i in j..n {
                cols[off + (i - j)] = a[(i, j)];
            }
            cols[off] += jitter;
        }
        Self::factorize_packed(n, &mut cols, be)?;
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            let off = Self::col_offset(n, j);
            for i in j..n {
                l[(i, j)] = cols[off + (i - j)];
            }
        }
        Ok(Cholesky { l, cols, jitter })
    }

    /// Blocked right-looking factorization over packed column storage.
    ///
    /// Bit-identity with the unblocked reference: every element `(i, j)`
    /// accumulates `a[i][j] - Σₖ L[i][k]·L[j][k]` with the subtractions
    /// applied one `k` at a time in ascending order — trailing updates walk
    /// finished panels left to right and columns within a panel left to
    /// right, and the in-panel sweep covers the remaining `k`, so the
    /// per-element operation sequence is exactly that of the reference.
    /// Blocking changes only the memory-access schedule, never the
    /// arithmetic.
    ///
    /// The per-column updates are delegated to [`mfbo_simd::fold_cols`],
    /// which applies a whole panel's worth of source columns to one
    /// destination column while it sits in registers — the SIMD backends
    /// vectorize across the column *elements* (independent scalar chains)
    /// and keep each element's `k`-order ascending, so the factor is
    /// bit-identical under every backend.
    fn factorize_packed(
        n: usize,
        c: &mut [f64],
        be: mfbo_simd::Backend,
    ) -> Result<(), LinalgError> {
        let off = |j: usize| Self::col_offset(n, j);
        // Reused `(source offset, multiplier)` list: entry `k` points at the
        // packed sub-column `L[j..n][k]` (which starts `j-k` elements into
        // column `k`) with multiplier `L[j][k]` — the first element of that
        // same sub-column.
        let mut folds: Vec<(usize, f64)> = Vec::with_capacity(PANEL);
        let mut pb = 0;
        while pb < n {
            let pe = (pb + PANEL).min(n);
            // Factor the diagonal panel. Contributions from columns < pb
            // were applied by the trailing updates of earlier panels, and
            // columns pb..j of this panel are all finished by the time
            // column j folds them in.
            for j in pb..pe {
                let (head, tail) = c.split_at_mut(off(j));
                let colj = &mut tail[..n - j];
                folds.clear();
                for k in pb..j {
                    let src = off(k) + (j - k);
                    folds.push((src, head[src]));
                }
                mfbo_simd::fold_cols(be, colj, head, &folds);
                let d = colj[0];
                if d <= 0.0 || !d.is_finite() {
                    return Err(LinalgError::NotPositiveDefinite { pivot: j });
                }
                let dj = d.sqrt();
                colj[0] = dj;
                for v in colj[1..].iter_mut() {
                    *v /= dj;
                }
            }
            // Fold the finished panel into every trailing column, the
            // finished columns applied in ascending order per element.
            for j in pe..n {
                let (head, tail) = c.split_at_mut(off(j));
                let colj = &mut tail[..n - j];
                folds.clear();
                for k in pb..pe {
                    let src = off(k) + (j - k);
                    folds.push((src, head[src]));
                }
                mfbo_simd::fold_cols(be, colj, head, &folds);
            }
            pb = pe;
        }
        Ok(())
    }

    /// The lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Diagonal jitter added during factorization (`0.0` when none was
    /// needed).
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Cheap condition-number estimate `(max L_ii / min L_ii)²`.
    ///
    /// The squared ratio of extreme Cholesky pivots lower-bounds the
    /// 2-norm condition number of `A`; it is free to compute from the
    /// existing factor and tracks the true κ₂ closely enough to flag
    /// near-singular kernel matrices in telemetry.
    pub fn condition_estimate(&self) -> f64 {
        let n = self.dim();
        if n == 0 {
            return 1.0;
        }
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for i in 0..n {
            let d = self.l[(i, i)];
            lo = lo.min(d);
            hi = hi.max(d);
        }
        if lo <= 0.0 {
            f64::INFINITY
        } else {
            (hi / lo).powi(2)
        }
    }

    /// `log |A| = 2 Σ log L_ii`.
    pub fn log_det(&self) -> f64 {
        (0..self.l.rows()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Solves `L z = b` by forward substitution.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn forward_solve(&self, b: &[f64]) -> Vec<f64> {
        let mut z = vec![0.0; self.dim()];
        self.forward_solve_into(b, &mut z);
        z
    }

    /// Allocation-free forward substitution writing into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` or `out.len()` differs from `self.dim()`.
    pub fn forward_solve_into(&self, b: &[f64], out: &mut [f64]) {
        let n = self.dim();
        assert_eq!(b.len(), n, "forward_solve length mismatch");
        assert_eq!(out.len(), n, "forward_solve output length mismatch");
        for i in 0..n {
            let mut s = b[i];
            let row = self.l.row(i);
            for k in 0..i {
                s -= row[k] * out[k];
            }
            out[i] = s / row[i];
        }
    }

    /// Solves `Lᵀ x = b` by back substitution.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn back_solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.dim()];
        self.back_solve_into(b, &mut x);
        x
    }

    /// Allocation-free back substitution writing into `out`.
    ///
    /// Row `i` of `Lᵀ` is packed column `i` of `L`, so the inner product
    /// runs over contiguous memory rather than striding the row-major
    /// factor by `n`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` or `out.len()` differs from `self.dim()`.
    pub fn back_solve_into(&self, b: &[f64], out: &mut [f64]) {
        let n = self.dim();
        assert_eq!(b.len(), n, "back_solve length mismatch");
        assert_eq!(out.len(), n, "back_solve output length mismatch");
        for i in (0..n).rev() {
            let mut s = b[i];
            let col = self.col_slice(i);
            for (k, xk) in out.iter().enumerate().skip(i + 1) {
                s -= col[k - i] * xk;
            }
            out[i] = s / col[0];
        }
    }

    /// Interleaved multi-RHS forward substitution: solves `L z = b` for
    /// `be.lanes()` right-hand sides at once, stored lane-interleaved
    /// (`b[i*lanes + c]` is row `i` of RHS `c`). Each lane executes exactly
    /// the scalar [`Cholesky::forward_solve_into`] operation sequence, so
    /// de-interleaving the output reproduces the per-RHS solves bit for
    /// bit — while the factor streams through cache once per group instead
    /// of once per RHS.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` or `out.len()` differs from
    /// `self.dim() * be.lanes()`.
    pub fn forward_solve_interleaved_into(
        &self,
        be: mfbo_simd::Backend,
        b: &[f64],
        out: &mut [f64],
    ) {
        let (l, n) = (self.l.as_slice(), self.dim());
        mfbo_simd::forward_solve_interleaved(be, l, n, 0, be.lanes(), b, out);
    }

    /// Solves `A x = b` (both triangular solves).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve_vec(&self, b: &[f64]) -> Vec<f64> {
        let n = self.dim();
        let mut z = vec![0.0; n];
        let mut x = vec![0.0; n];
        self.solve_vec_into(b, &mut z, &mut x);
        x
    }

    /// Allocation-free `A x = b`: forward-substitutes into `scratch`, then
    /// back-substitutes into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()`, `scratch.len()`, or `out.len()` differs from
    /// `self.dim()`.
    pub fn solve_vec_into(&self, b: &[f64], scratch: &mut [f64], out: &mut [f64]) {
        self.forward_solve_into(b, scratch);
        self.back_solve_into(scratch, out);
    }

    /// The explicit inverse `A⁻¹`.
    ///
    /// Prefer the `solve_*` methods; the explicit inverse is only needed for
    /// the trace terms in NLML gradients.
    pub fn inverse(&self) -> Matrix {
        let n = self.dim();
        let mut out = Matrix::zeros(n, n);
        self.inverse_into(&mut out);
        out
    }

    /// Writes `A⁻¹` into a caller-provided matrix.
    ///
    /// Equivalent to [`Cholesky::solve_vec`] on each identity column bit for
    /// bit, but skips the structurally-zero work: when forward-substituting the
    /// `j`-th identity column, rows `< j` of the intermediate solution are
    /// exactly `+0.0` (every subtracted term is `L·(±0.0)` and `s - ±0.0`
    /// leaves `+0.0` unchanged), so the forward sweep starts at row `j`
    /// with `z[j] = 1/L[j][j]`. That halves the forward-phase flops on
    /// average and drops the identity-matrix materialization entirely.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `dim × dim`.
    pub fn inverse_into(&self, out: &mut Matrix) {
        let n = self.dim();
        assert_eq!(out.rows(), n, "inverse output shape mismatch");
        assert_eq!(out.cols(), n, "inverse output shape mismatch");
        let mut z = vec![0.0; n];
        let mut x = vec![0.0; n];
        for j in 0..n {
            for zk in z[..j].iter_mut() {
                *zk = 0.0;
            }
            z[j] = 1.0 / self.l[(j, j)];
            for i in (j + 1)..n {
                let row = self.l.row(i);
                let mut s = 0.0;
                for k in j..i {
                    s -= row[k] * z[k];
                }
                z[i] = s / row[i];
            }
            self.back_solve_into(&z, &mut x);
            for (i, &xi) in x.iter().enumerate() {
                out[(i, j)] = xi;
            }
        }
    }

    /// `A⁻¹` with only the lower triangle solved, the upper mirrored: the
    /// lower triangle of [`Cholesky::inverse_lower_each`] under the active
    /// backend, copied to both halves.
    ///
    /// The lower triangle (`i ≥ j`) is bit-identical to [`Cholesky::inverse`].
    /// The upper triangle is copied from the lower (`A⁻¹` is symmetric),
    /// which in floating point may differ from the fully-solved upper
    /// entries in the last ulp — use this only when the consumer reads the
    /// lower triangle or treats the matrix as symmetric.
    ///
    /// Skipping the above-diagonal rows drops the back-substitution cost
    /// from `n³/3` to `n³/6` flops; solving the columns four SIMD vectors
    /// at a time makes it about 3× faster than one column at a time under
    /// AVX2 at n = 20, and about 7× at n = 345.
    pub fn inverse_lower(&self) -> Matrix {
        let n = self.dim();
        let mut out = Matrix::zeros(n, n);
        self.inverse_lower_each(mfbo_simd::active(), |i, j, v| {
            out[(i, j)] = v;
            out[(j, i)] = v;
        });
        out
    }

    /// Hands every lower-triangle entry of `A⁻¹` to `f(i, j, A⁻¹[i][j])`,
    /// `i ≥ j`, column by column (`j` ascending, `i` ascending within a
    /// column), each bit-identical to [`Cholesky::inverse`].
    ///
    /// The columns are independent, so `4 · be.lanes()` of them (four SIMD
    /// vectors) are solved together, lane-interleaved: one forward sweep
    /// over their identity columns starting at the group's first column
    /// `j₀` ([`mfbo_simd::forward_solve_interleaved`]), then one back sweep
    /// down to `j₀` ([`mfbo_simd::back_solve_interleaved`]). Every lane
    /// gets the bits of its own column's scalar solve:
    ///
    /// - *Forward.* Lane `c` solves column `j₀ + c`. Its rows `j₀..j₀+c`
    ///   sit above the column's `1`, so they come out exactly `+0.0` (each
    ///   subtracted term is `L·(+0.0) = ±0.0`, `+0.0 − ±0.0 = +0.0`, and
    ///   `+0.0 / L[i][i] = +0.0`), and they leave every later row's
    ///   reduction exactly as the scalar sweep that starts at the column
    ///   computes it.
    /// - *Back.* Row `i` reads only rows `k > i`, so a lane's rows at or
    ///   below its column are the scalar solve's; the extra rows above it
    ///   (the upper triangle) are computed and thrown away.
    ///
    /// # Examples
    ///
    /// ```
    /// use mfbo_linalg::{Cholesky, Matrix};
    ///
    /// # fn main() -> Result<(), mfbo_linalg::LinalgError> {
    /// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
    /// let chol = Cholesky::new(&a)?;
    /// let full = chol.inverse();
    /// chol.inverse_lower_each(mfbo_simd::active(), |i, j, v| {
    ///     assert!(i >= j);
    ///     assert_eq!(v.to_bits(), full[(i, j)].to_bits());
    /// });
    /// # Ok(())
    /// # }
    /// ```
    pub fn inverse_lower_each(&self, be: mfbo_simd::Backend, mut f: impl FnMut(usize, usize, f64)) {
        // Four vectors of columns per group: each row's reduction runs as
        // four independent chains, which hides the latency of its
        // subtractions and divisions (1.15× faster than two at n = 20 and
        // 1.2× at n = 345 under AVX2; one is 1.4× and 1.9× slower).
        let (n, width) = (self.dim(), 4 * be.lanes());
        let mut buf = vec![0.0; 2 * n * width];
        let (ex, z) = buf.split_at_mut(n * width);
        for j0 in (0..n).step_by(width) {
            let len = (n - j0) * width;
            let (ex, z) = (&mut ex[..len], &mut z[..len]);
            // Identity columns j0.. from row j0 down; a lane past the last
            // column solves a zero right-hand side, whose output is unread.
            // The back sweep then overwrites the identity block.
            let cols = width.min(n - j0);
            ex.fill(0.0);
            for c in 0..cols {
                ex[c * width + c] = 1.0;
            }
            mfbo_simd::forward_solve_interleaved(be, self.l.as_slice(), n, j0, width, ex, z);
            mfbo_simd::back_solve_interleaved(be, &self.cols, n, j0, width, z, ex);
            for c in 0..cols {
                let j = j0 + c;
                for i in j..n {
                    f(i, j, ex[(i - j0) * width + c]);
                }
            }
        }
    }

    /// Quadratic form `bᵀ A⁻¹ b`, computed stably as `‖L⁻¹ b‖²`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn quad_form(&self, b: &[f64]) -> f64 {
        let mut z = vec![0.0; self.dim()];
        self.quad_form_with(b, &mut z)
    }

    /// [`Cholesky::quad_form`] with a caller-provided scratch buffer.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` or `scratch.len()` differs from `self.dim()`.
    pub fn quad_form_with(&self, b: &[f64], scratch: &mut [f64]) -> f64 {
        self.forward_solve_into(b, scratch);
        crate::dot(scratch, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd_example() -> Matrix {
        Matrix::from_rows(&[&[25.0, 15.0, -5.0], &[15.0, 18.0, 0.0], &[-5.0, 0.0, 11.0]])
    }

    #[test]
    fn factor_matches_known_result() {
        let chol = Cholesky::new(&spd_example()).unwrap();
        let l = chol.factor();
        let expect = Matrix::from_rows(&[&[5.0, 0.0, 0.0], &[3.0, 3.0, 0.0], &[-1.0, 1.0, 3.0]]);
        assert!(l.max_abs_diff(&expect) < 1e-12);
        assert_eq!(chol.jitter(), 0.0);
    }

    #[test]
    fn reconstruction_l_lt() {
        let a = spd_example();
        let chol = Cholesky::new(&a).unwrap();
        let l = chol.factor();
        let recon = l.matmul(&l.transpose());
        assert!(recon.max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn log_det_matches_eigen_product() {
        // det = 5^2 * 3^2 * 3^2 = 2025.
        let chol = Cholesky::new(&spd_example()).unwrap();
        assert!((chol.log_det() - 2025.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn solve_recovers_rhs() {
        let a = spd_example();
        let chol = Cholesky::new(&a).unwrap();
        let b = vec![1.0, -2.0, 0.5];
        let x = chol.solve_vec(&b);
        let back = a.matvec(&x);
        for (bi, bb) in b.iter().zip(&back) {
            assert!((bi - bb).abs() < 1e-12);
        }
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = spd_example();
        let chol = Cholesky::new(&a).unwrap();
        let inv = chol.inverse();
        let prod = a.matmul(&inv);
        assert!(prod.max_abs_diff(&Matrix::identity(3)) < 1e-12);
    }

    #[test]
    fn quad_form_matches_direct() {
        let a = spd_example();
        let chol = Cholesky::new(&a).unwrap();
        let b = vec![0.3, 1.0, -0.7];
        let x = chol.solve_vec(&b);
        let direct = crate::dot(&b, &x);
        assert!((chol.quad_form(&b) - direct).abs() < 1e-12);
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn jitter_rescues_semidefinite() {
        // Rank-1 matrix: vvᵀ with v = (1, 1); singular but PSD.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let chol = Cholesky::new_with_jitter(&a, 1e-10, 1e-2).unwrap();
        assert!(chol.jitter() > 0.0);
        // The solve should still approximately invert a + jitter*I.
        let mut aj = a.clone();
        aj.add_diag(chol.jitter());
        let x = chol.solve_vec(&[1.0, 0.0]);
        let back = aj.matvec(&x);
        assert!((back[0] - 1.0).abs() < 1e-6 && back[1].abs() < 1e-6);
    }

    #[test]
    fn condition_estimate_reflects_scaling() {
        let well = Cholesky::new(&Matrix::identity(3)).unwrap();
        assert!((well.condition_estimate() - 1.0).abs() < 1e-12);
        let a = Matrix::from_rows(&[&[1e6, 0.0], &[0.0, 1e-6]]);
        let ill = Cholesky::new(&a).unwrap();
        assert!(ill.condition_estimate() > 1e11);
    }

    #[test]
    fn jitter_retry_emits_telemetry() {
        let sink = std::sync::Arc::new(mfbo_telemetry::sinks::CollectSink::with_level(
            mfbo_telemetry::Level::Debug,
        ));
        let _g = mfbo_telemetry::scoped_sink(sink.clone());
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let _ = Cholesky::new_with_jitter(&a, 1e-10, 1e-2).unwrap();
        let recs = sink.named("cholesky_jitter");
        assert_eq!(recs.len(), 1);
        assert!(recs[0].field("jitter").is_some());
        assert!(recs[0].field("attempts").is_some());
    }

    #[test]
    fn jitter_gives_up_at_max() {
        let a = Matrix::from_rows(&[&[-1.0, 0.0], &[0.0, -1.0]]);
        assert!(Cholesky::new_with_jitter(&a, 1e-10, 1e-4).is_err());
    }

    /// Deterministic SPD matrix large enough to cross several panel
    /// boundaries of the blocked factorization.
    fn spd_large(n: usize) -> Matrix {
        let b = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 13) as f64 / 13.0 - 0.5);
        let mut a = b.matmul(&b.transpose());
        a.add_diag(n as f64);
        a
    }

    #[test]
    fn blocked_matches_unblocked_bitwise() {
        for n in [1usize, 7, 48, 49, 150] {
            let a = spd_large(n);
            let blocked = Cholesky::new(&a).unwrap();
            let reference = Cholesky::new_unblocked(&a).unwrap();
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(
                        blocked.factor()[(i, j)].to_bits(),
                        reference.factor()[(i, j)].to_bits(),
                        "factor mismatch at ({i}, {j}) for n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn inverse_matches_identity_solve_bitwise() {
        let a = spd_large(37);
        let chol = Cholesky::new(&a).unwrap();
        let fast = chol.inverse();
        let mut e = vec![0.0; 37];
        for j in 0..37 {
            e[j] = 1.0;
            let reference = chol.solve_vec(&e);
            e[j] = 0.0;
            for (i, r) in reference.iter().enumerate() {
                assert_eq!(
                    fast[(i, j)].to_bits(),
                    r.to_bits(),
                    "inverse mismatch at ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn inverse_lower_matches_full_inverse_bitwise_on_lower_triangle() {
        let a = spd_large(37);
        let chol = Cholesky::new(&a).unwrap();
        let lower = chol.inverse_lower();
        let full = chol.inverse();
        for i in 0..37 {
            for j in 0..=i {
                assert_eq!(
                    lower[(i, j)].to_bits(),
                    full[(i, j)].to_bits(),
                    "inverse_lower mismatch at ({i}, {j})"
                );
                // Upper triangle is the exact mirror.
                assert_eq!(lower[(j, i)].to_bits(), lower[(i, j)].to_bits());
            }
        }
    }

    #[test]
    fn into_variants_match_allocating_bitwise() {
        let n = 23;
        let a = spd_large(n);
        let chol = Cholesky::new(&a).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut out = vec![0.0; n];
        chol.forward_solve_into(&b, &mut out);
        assert_eq!(out, chol.forward_solve(&b));
        chol.back_solve_into(&b, &mut out);
        assert_eq!(out, chol.back_solve(&b));
        let mut scratch = vec![0.0; n];
        chol.solve_vec_into(&b, &mut scratch, &mut out);
        assert_eq!(out, chol.solve_vec(&b));
        assert_eq!(chol.quad_form_with(&b, &mut scratch), chol.quad_form(&b));
    }

    #[test]
    fn forward_back_are_inverses_of_triangular_products() {
        let chol = Cholesky::new(&spd_example()).unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let z = chol.forward_solve(&b);
        let lb = chol.factor().matvec(&z);
        for (x, y) in lb.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
        let x = chol.back_solve(&b);
        let ltx = chol.factor().transpose().matvec(&x);
        for (got, want) in ltx.iter().zip(&b) {
            assert!((got - want).abs() < 1e-12);
        }
    }
}
