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

/// `out[i] = (d[i]·inv_l[i])²`.
pub fn z2_into(d: &[f64], inv_l: &[f64], out: &mut [f64]) {
    for ((o, &di), &li) in out.iter_mut().zip(d).zip(inv_l) {
        let z = di * li;
        *o = z * z;
    }
}

/// `acc[i] += w · (k · z2[i])`.
pub fn accum_scaled(acc: &mut [f64], z2: &[f64], k: f64, w: f64) {
    for (a, &z) in acc.iter_mut().zip(z2) {
        *a += w * (k * z);
    }
}

/// `acc[i] += w · ((a · z2[i]) · b)`.
pub fn accum_scaled2(acc: &mut [f64], z2: &[f64], a: f64, b: f64, w: f64) {
    for (g, &z) in acc.iter_mut().zip(z2) {
        *g += w * ((a * z) * b);
    }
}

/// `acc[i] += w · (k · ((d[i]·inv_l[i]) · (d[i]·inv_l[i])))`.
pub fn accum_weighted_sq(acc: &mut [f64], d: &[f64], inv_l: &[f64], k: f64, w: f64) {
    for ((a, &di), &li) in acc.iter_mut().zip(d).zip(inv_l) {
        let z = di * li;
        *a += w * (k * (z * z));
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

/// Forward substitution `L z = b` for `lanes` lane-interleaved right-hand
/// sides against the row-major factor `l`. Each lane `c` runs the exact
/// scalar single-RHS recurrence: `s = b[i]; s -= L[i][k]·z[k] (k ascending);
/// z[i] = s / L[i][i]`.
pub fn forward_solve_interleaved(l: &[f64], n: usize, lanes: usize, b: &[f64], out: &mut [f64]) {
    for i in 0..n {
        let row = &l[i * n..i * n + n];
        for c in 0..lanes {
            let mut s = b[i * lanes + c];
            for k in 0..i {
                s -= row[k] * out[k * lanes + c];
            }
            out[i * lanes + c] = s / row[i];
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
