//! AVX2 intrinsic kernels (4 × f64 lanes).
//!
//! Every function is `#[target_feature(enable = "avx2")]` and therefore
//! `unsafe` to call: callers (the dispatch macro in `lib.rs`) must confirm
//! AVX2 via `is_x86_feature_detected!` first. No other invariants are
//! required — all memory access is through slice-derived pointers with the
//! bounds already checked by the safe wrappers, using unaligned loads and
//! stores throughout.
//!
//! Bit-exactness: multiply and add/subtract stay separate instructions
//! (`vmulpd` + `vaddpd`/`vsubpd`, never FMA), per-entry reductions run in
//! the same ascending order as the scalar reference, and `vdivpd` is IEEE
//! correctly rounded, so every lane reproduces the scalar result exactly.

use crate::exp_core;
use core::arch::x86_64::*;

const LANES: usize = 4;

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn sq_norm(rows: &[f64], count: usize, inv_l: &[f64], out: &mut [f64]) {
    let rp = rows.as_ptr();
    let op = out.as_mut_ptr();
    let mut q = 0usize;
    // Two accumulator vectors per block hide the add latency; each lane's
    // chain still adds its t-terms in ascending order.
    while q + 2 * LANES <= count {
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        for (t, &li) in inv_l.iter().enumerate() {
            let lv = _mm256_set1_pd(li);
            let base = t * count + q;
            let z0 = _mm256_mul_pd(_mm256_loadu_pd(rp.add(base)), lv);
            let z1 = _mm256_mul_pd(_mm256_loadu_pd(rp.add(base + LANES)), lv);
            acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(z0, z0));
            acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(z1, z1));
        }
        _mm256_storeu_pd(op.add(q), acc0);
        _mm256_storeu_pd(op.add(q + LANES), acc1);
        q += 2 * LANES;
    }
    while q + LANES <= count {
        let mut acc = _mm256_setzero_pd();
        for (t, &li) in inv_l.iter().enumerate() {
            let lv = _mm256_set1_pd(li);
            let z = _mm256_mul_pd(_mm256_loadu_pd(rp.add(t * count + q)), lv);
            acc = _mm256_add_pd(acc, _mm256_mul_pd(z, z));
        }
        _mm256_storeu_pd(op.add(q), acc);
        q += LANES;
    }
    for qq in q..count {
        let mut s = 0.0;
        for (t, &li) in inv_l.iter().enumerate() {
            let z = rows[t * count + qq] * li;
            s += z * z;
        }
        out[qq] = s;
    }
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn sq_dist(q: &[f64], xt: &[f64], inv_l: &[f64], out: &mut [f64]) {
    let count = out.len();
    let xp = xt.as_ptr();
    let op = out.as_mut_ptr();
    let mut j = 0usize;
    // As `sq_norm`, two accumulators per block; each lane runs one entry's
    // subtract, multiply, square and add in ascending `t`.
    while j + 2 * LANES <= count {
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        for (t, (&qt, &li)) in q.iter().zip(inv_l).enumerate() {
            let qv = _mm256_set1_pd(qt);
            let lv = _mm256_set1_pd(li);
            let base = t * count + j;
            let z0 = _mm256_mul_pd(_mm256_sub_pd(qv, _mm256_loadu_pd(xp.add(base))), lv);
            let z1 = _mm256_mul_pd(_mm256_sub_pd(qv, _mm256_loadu_pd(xp.add(base + LANES))), lv);
            acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(z0, z0));
            acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(z1, z1));
        }
        _mm256_storeu_pd(op.add(j), acc0);
        _mm256_storeu_pd(op.add(j + LANES), acc1);
        j += 2 * LANES;
    }
    while j + LANES <= count {
        let mut acc = _mm256_setzero_pd();
        for (t, (&qt, &li)) in q.iter().zip(inv_l).enumerate() {
            let d = _mm256_sub_pd(_mm256_set1_pd(qt), _mm256_loadu_pd(xp.add(t * count + j)));
            let z = _mm256_mul_pd(d, _mm256_set1_pd(li));
            acc = _mm256_add_pd(acc, _mm256_mul_pd(z, z));
        }
        _mm256_storeu_pd(op.add(j), acc);
        j += LANES;
    }
    for jj in j..count {
        let mut s = 0.0;
        for (t, (&qt, &li)) in q.iter().zip(inv_l).enumerate() {
            let z = (qt - xt[t * count + jj]) * li;
            s += z * z;
        }
        out[jj] = s;
    }
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn z2_into(d: &[f64], inv_l: &[f64], out: &mut [f64]) {
    let n = d.len();
    let mut i = 0usize;
    while i + LANES <= n {
        let z = _mm256_mul_pd(
            _mm256_loadu_pd(d.as_ptr().add(i)),
            _mm256_loadu_pd(inv_l.as_ptr().add(i)),
        );
        _mm256_storeu_pd(out.as_mut_ptr().add(i), _mm256_mul_pd(z, z));
        i += LANES;
    }
    while i < n {
        let z = d[i] * inv_l[i];
        out[i] = z * z;
        i += 1;
    }
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn accum_scaled(acc: &mut [f64], z2: &[f64], k: f64, w: f64) {
    let n = acc.len();
    let kv = _mm256_set1_pd(k);
    let wv = _mm256_set1_pd(w);
    let mut i = 0usize;
    while i + LANES <= n {
        let t = _mm256_mul_pd(kv, _mm256_loadu_pd(z2.as_ptr().add(i)));
        let a = _mm256_loadu_pd(acc.as_ptr().add(i));
        _mm256_storeu_pd(
            acc.as_mut_ptr().add(i),
            _mm256_add_pd(a, _mm256_mul_pd(wv, t)),
        );
        i += LANES;
    }
    while i < n {
        acc[i] += w * (k * z2[i]);
        i += 1;
    }
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn accum_scaled2(acc: &mut [f64], z2: &[f64], a: f64, b: f64, w: f64) {
    let n = acc.len();
    let av = _mm256_set1_pd(a);
    let bv = _mm256_set1_pd(b);
    let wv = _mm256_set1_pd(w);
    let mut i = 0usize;
    while i + LANES <= n {
        let t = _mm256_mul_pd(_mm256_mul_pd(av, _mm256_loadu_pd(z2.as_ptr().add(i))), bv);
        let g = _mm256_loadu_pd(acc.as_ptr().add(i));
        _mm256_storeu_pd(
            acc.as_mut_ptr().add(i),
            _mm256_add_pd(g, _mm256_mul_pd(wv, t)),
        );
        i += LANES;
    }
    while i < n {
        acc[i] += w * ((a * z2[i]) * b);
        i += 1;
    }
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn accum_weighted_sq(acc: &mut [f64], d: &[f64], inv_l: &[f64], k: f64, w: f64) {
    let n = acc.len();
    let kv = _mm256_set1_pd(k);
    let wv = _mm256_set1_pd(w);
    let mut i = 0usize;
    while i + LANES <= n {
        let z = _mm256_mul_pd(
            _mm256_loadu_pd(d.as_ptr().add(i)),
            _mm256_loadu_pd(inv_l.as_ptr().add(i)),
        );
        let t = _mm256_mul_pd(kv, _mm256_mul_pd(z, z));
        let a = _mm256_loadu_pd(acc.as_ptr().add(i));
        _mm256_storeu_pd(
            acc.as_mut_ptr().add(i),
            _mm256_add_pd(a, _mm256_mul_pd(wv, t)),
        );
        i += LANES;
    }
    while i < n {
        let z = d[i] * inv_l[i];
        acc[i] += w * (k * (z * z));
        i += 1;
    }
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn fold_cols(dst: &mut [f64], src: &[f64], cols: &[(usize, f64)]) {
    let len = dst.len();
    let dp = dst.as_mut_ptr();
    let sp = src.as_ptr();
    let mut i = 0usize;
    // The destination block stays in registers across the whole column
    // list, so each panel touches `dst` memory once instead of once per
    // column. Per element the subtractions still run in column order.
    while i + 4 * LANES <= len {
        let mut d0 = _mm256_loadu_pd(dp.add(i));
        let mut d1 = _mm256_loadu_pd(dp.add(i + LANES));
        let mut d2 = _mm256_loadu_pd(dp.add(i + 2 * LANES));
        let mut d3 = _mm256_loadu_pd(dp.add(i + 3 * LANES));
        for &(off, m) in cols {
            let mv = _mm256_set1_pd(m);
            let s0 = _mm256_loadu_pd(sp.add(off + i));
            let s1 = _mm256_loadu_pd(sp.add(off + i + LANES));
            let s2 = _mm256_loadu_pd(sp.add(off + i + 2 * LANES));
            let s3 = _mm256_loadu_pd(sp.add(off + i + 3 * LANES));
            d0 = _mm256_sub_pd(d0, _mm256_mul_pd(s0, mv));
            d1 = _mm256_sub_pd(d1, _mm256_mul_pd(s1, mv));
            d2 = _mm256_sub_pd(d2, _mm256_mul_pd(s2, mv));
            d3 = _mm256_sub_pd(d3, _mm256_mul_pd(s3, mv));
        }
        _mm256_storeu_pd(dp.add(i), d0);
        _mm256_storeu_pd(dp.add(i + LANES), d1);
        _mm256_storeu_pd(dp.add(i + 2 * LANES), d2);
        _mm256_storeu_pd(dp.add(i + 3 * LANES), d3);
        i += 4 * LANES;
    }
    while i + 2 * LANES <= len {
        let mut d0 = _mm256_loadu_pd(dp.add(i));
        let mut d1 = _mm256_loadu_pd(dp.add(i + LANES));
        for &(off, m) in cols {
            let mv = _mm256_set1_pd(m);
            let s0 = _mm256_loadu_pd(sp.add(off + i));
            let s1 = _mm256_loadu_pd(sp.add(off + i + LANES));
            d0 = _mm256_sub_pd(d0, _mm256_mul_pd(s0, mv));
            d1 = _mm256_sub_pd(d1, _mm256_mul_pd(s1, mv));
        }
        _mm256_storeu_pd(dp.add(i), d0);
        _mm256_storeu_pd(dp.add(i + LANES), d1);
        i += 2 * LANES;
    }
    while i + LANES <= len {
        let mut d0 = _mm256_loadu_pd(dp.add(i));
        for &(off, m) in cols {
            let mv = _mm256_set1_pd(m);
            d0 = _mm256_sub_pd(d0, _mm256_mul_pd(_mm256_loadu_pd(sp.add(off + i)), mv));
        }
        _mm256_storeu_pd(dp.add(i), d0);
        i += LANES;
    }
    while i < len {
        let mut d = dst[i];
        for &(off, m) in cols {
            d -= src[off + i] * m;
        }
        dst[i] = d;
        i += 1;
    }
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn forward_solve_interleaved(l: &[f64], n: usize, b: &[f64], out: &mut [f64]) {
    let op = out.as_mut_ptr();
    for i in 0..n {
        let row = &l[i * n..i * n + n];
        let mut s = _mm256_loadu_pd(b.as_ptr().add(i * LANES));
        for (k, &lik) in row[..i].iter().enumerate() {
            let xv = _mm256_loadu_pd(op.add(k * LANES) as *const f64);
            s = _mm256_sub_pd(s, _mm256_mul_pd(_mm256_set1_pd(lik), xv));
        }
        s = _mm256_div_pd(s, _mm256_set1_pd(row[i]));
        _mm256_storeu_pd(op.add(i * LANES), s);
    }
}

/// The scalar reference `exp` compiled with FMA, so each `mul_add` is one
/// instruction.
#[target_feature(enable = "fma")]
pub(crate) unsafe fn exp_fma(x: f64) -> f64 {
    exp_core::exp(x)
}

/// [`exp_fma`] over a slice.
#[target_feature(enable = "fma")]
pub(crate) unsafe fn exp_each_fma(xs: &mut [f64]) {
    for x in xs {
        *x = exp_core::exp(*x);
    }
}

/// `exp` on four lanes: the scalar reference's operation sequence, with the
/// two table words of each lane gathered. Lanes outside the main range
/// (see `exp_core::is_special`) are redone by the scalar special cases.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn exp_in_place(xs: &mut [f64]) {
    let n = xs.len();
    let p = xs.as_mut_ptr();
    let tab = exp_core::TAB.as_ptr();
    let set1 = |v: f64| _mm256_set1_pd(v);
    let mut i = 0usize;
    while i + LANES <= n {
        let x = _mm256_loadu_pd(p.add(i));
        let kd = _mm256_fmadd_pd(x, set1(exp_core::INV_LN2_N), set1(exp_core::SHIFT));
        let ki = _mm256_castpd_si256(kd);
        let kd = _mm256_sub_pd(kd, set1(exp_core::SHIFT));
        let r = _mm256_fmadd_pd(kd, set1(exp_core::NEG_LN2_HI_N), x);
        let r = _mm256_fmadd_pd(kd, set1(exp_core::NEG_LN2_LO_N), r);
        let j = _mm256_and_si256(ki, _mm256_set1_epi64x((1 << exp_core::TABLE_BITS) - 1));
        let idx = _mm256_add_epi64(j, j);
        let tail = _mm256_i64gather_pd::<8>(tab as *const f64, idx);
        let hi = _mm256_i64gather_epi64::<8>(tab.add(1) as *const i64, idx);
        let top = _mm256_slli_epi64::<{ 52 - exp_core::TABLE_BITS as i32 }>(ki);
        let scale = _mm256_castsi256_pd(_mm256_add_epi64(hi, top));
        let r2 = _mm256_mul_pd(r, r);
        let p23 = _mm256_fmadd_pd(r, set1(exp_core::C3), set1(exp_core::C2));
        let p45 = _mm256_fmadd_pd(r, set1(exp_core::C5), set1(exp_core::C4));
        let tmp = _mm256_fmadd_pd(r2, p23, _mm256_add_pd(tail, r));
        let tmp = _mm256_fmadd_pd(_mm256_mul_pd(r2, r2), p45, tmp);
        _mm256_storeu_pd(p.add(i), _mm256_fmadd_pd(scale, tmp, scale));
        let ax = _mm256_andnot_pd(set1(-0.0), x);
        let normal = _mm256_and_pd(
            _mm256_cmp_pd::<_CMP_GE_OQ>(ax, set1(exp_core::TINY)),
            _mm256_cmp_pd::<_CMP_LT_OQ>(ax, set1(exp_core::HUGE)),
        );
        let mask = _mm256_movemask_pd(normal);
        if mask != 0b1111 {
            let mut lanes = [0.0; LANES];
            _mm256_storeu_pd(lanes.as_mut_ptr(), x);
            for (c, &xc) in lanes.iter().enumerate() {
                if mask & (1 << c) == 0 {
                    *p.add(i + c) = exp_core::special(xc);
                }
            }
        }
        i += LANES;
    }
    for x in &mut xs[i..] {
        *x = exp_core::exp(*x);
    }
}
