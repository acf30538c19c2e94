//! Portable scalar reference kernels.
//!
//! These functions *define* the semantics of the crate: every accelerated
//! backend must reproduce them bit for bit on every input (enforced by the
//! differential proptests in `tests/properties.rs`). They are also the
//! dispatch target for [`Backend::Scalar`](crate::Backend::Scalar), so they
//! are written in the same iterator style as the pre-SIMD hot loops they
//! replaced — LLVM auto-vectorizes them to baseline 128-bit code exactly as
//! it did before, keeping the forced-scalar mode at its pre-SIMD speed.

/// `out[q] = Σ_t (rows[t*count + q] · inv_l[t])²`, terms added in ascending
/// `t` order per entry. `rows` is dimension-major: row `t` holds the `t`-th
/// difference component of all `count` entries contiguously.
pub fn sq_norm(rows: &[f64], count: usize, inv_l: &[f64], out: &mut [f64]) {
    for o in out.iter_mut() {
        *o = 0.0;
    }
    for (t, &li) in inv_l.iter().enumerate() {
        let row = &rows[t * count..(t + 1) * count];
        for (o, &d) in out.iter_mut().zip(row) {
            let z = d * li;
            *o += z * z;
        }
    }
}

/// `out[j] = Σ_t ((q[t] − xt[t*count + j]) · inv_l[t])²` with `count =
/// out.len()`, terms added in ascending `t` order per entry. `xt` is
/// dimension-major: row `t` holds coordinate `t` of all `count` points.
pub fn sq_dist(q: &[f64], xt: &[f64], inv_l: &[f64], out: &mut [f64]) {
    let count = out.len();
    for o in out.iter_mut() {
        *o = 0.0;
    }
    for (t, (&qt, &li)) in q.iter().zip(inv_l).enumerate() {
        let row = &xt[t * count..(t + 1) * count];
        for (o, &x) in out.iter_mut().zip(row) {
            let z = (qt - x) * li;
            *o += z * z;
        }
    }
}

/// `out[q] = w[q] · (a[q] · (z·z))` with `z = d[q]·inv_l`.
pub fn sq_terms(d: &[f64], inv_l: f64, a: &[f64], w: &[f64], out: &mut [f64]) {
    for (((o, &d), &a), &w) in out.iter_mut().zip(d).zip(a).zip(w) {
        let z = d * inv_l;
        *o = w * (a * (z * z));
    }
}

/// `out[q] = w[q] · ((a[q] · (z·z)) · b[q])` with `z = d[q]·inv_l`.
pub fn sq_terms2(d: &[f64], inv_l: f64, a: &[f64], b: &[f64], w: &[f64], out: &mut [f64]) {
    for ((((o, &d), &a), &b), &w) in out.iter_mut().zip(d).zip(a).zip(b).zip(w) {
        let z = d * inv_l;
        *o = w * ((a * (z * z)) * b);
    }
}

/// `dst[i] -= src[off + i] · m` for each `(off, m)` in `cols`, columns
/// applied in slice order. This loop nest (column outer, element inner) is
/// the exact shape of the pre-SIMD blocked-Cholesky trailing update.
pub fn fold_cols(dst: &mut [f64], src: &[f64], cols: &[(usize, f64)]) {
    for &(off, m) in cols {
        let col = &src[off..off + dst.len()];
        for (d, &s) in dst.iter_mut().zip(col) {
            *d -= s * m;
        }
    }
}

/// Forward substitution of rows `start..n` of `L z = b` for `width`
/// lane-interleaved right-hand sides against the row-major factor `l`
/// (`b[r*width + c]` is row `start + r`). Each lane `c` runs the exact
/// scalar single-RHS recurrence: `s = b[i]; s -= L[i][k]·z[k] (k = start..i
/// ascending); z[i] = s / L[i][i]`.
pub fn forward_solve_interleaved(
    l: &[f64],
    n: usize,
    start: usize,
    width: usize,
    b: &[f64],
    out: &mut [f64],
) {
    for i in start..n {
        let row = &l[i * n..i * n + n];
        let r = i - start;
        for c in 0..width {
            let mut s = b[r * width + c];
            for k in start..i {
                s -= row[k] * out[(k - start) * width + c];
            }
            out[r * width + c] = s / row[i];
        }
    }
}

/// Back substitution of rows `stop..n` of `Lᵀ x = b` for `width`
/// lane-interleaved right-hand sides against the packed column-major factor
/// (`cols[j·(2n−j+1)/2..]` holds `L[j..n][j]`; `b[r*width + c]` is row
/// `stop + r`). Each lane runs the exact scalar recurrence from row `n − 1`
/// down, the `k` terms subtracted in ascending order.
pub fn back_solve_interleaved(
    cols: &[f64],
    n: usize,
    stop: usize,
    width: usize,
    b: &[f64],
    out: &mut [f64],
) {
    for i in (stop..n).rev() {
        let off = i * (2 * n - i + 1) / 2;
        let col = &cols[off..off + (n - i)];
        let r = i - stop;
        for c in 0..width {
            let mut s = b[r * width + c];
            for k in (i + 1)..n {
                s -= col[k - i] * out[(k - stop) * width + c];
            }
            out[r * width + c] = s / col[0];
        }
    }
}

/// `e^x`, the crate's one transcendental (see the crate docs): glibc's
/// table-driven algorithm on [`f64::mul_add`], the same bits on every host
/// and backend, and on x86-64 glibc hosts with FMA the bits of
/// [`f64::exp`]. There the body runs compiled with the `fma` feature, where
/// each `mul_add` is one instruction instead of a libm `fma()` call.
///
/// # Examples
///
/// ```
/// assert_eq!(mfbo_simd::exp(0.0), 1.0);
/// assert_eq!(mfbo_simd::exp(-1000.0), 0.0);
/// assert!((mfbo_simd::exp(1.0) - std::f64::consts::E).abs() < 1e-15);
/// ```
pub fn exp(x: f64) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: the guard just confirmed FMA, the only requirement of the
        // `#[target_feature(enable = "fma")]` body.
        return unsafe { crate::avx2::exp_fma(x) };
    }
    crate::exp_core::exp(x)
}

/// `xs[i] = exp(xs[i])` for every entry, each as [`exp`] computes it.
pub fn exp_in_place(xs: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: as in `exp`.
        return unsafe { crate::avx2::exp_each_fma(xs) };
    }
    for x in xs {
        *x = crate::exp_core::exp(*x);
    }
}
