//! The vendored `exp`: the table-driven algorithm glibc (2.28 and later)
//! ships, from ARM's optimized-routines, with every fused multiply-add its
//! FMA build contracts written out as [`f64::mul_add`].
//!
//! `exp(x) = 2^(k/N)·exp(r)` with `N = 128`, `x = k·ln2/N + r` and
//! `|r| ≤ ln2/2N`. `2^(k/N)` comes from a 256-entry table (the `tail` and
//! adjusted bits of `2^(j/N)` for `j = k mod N`), `exp(r) − 1` from a
//! degree-5 polynomial. Inputs with `|x| ≥ 512`, `|x| < 2⁻⁵⁴` or non-finite
//! take glibc's special cases, so results outside the normal range
//! (overflow, subnormals, underflow to zero) are glibc's too.
//!
//! Every operation is a correctly rounded IEEE-754 `+`, `−`, `×` or fused
//! multiply-add, so the function has one set of bits wherever it runs: the
//! scalar form here, the AVX2 lanes and the NEON lanes compute the same
//! sequence. On x86-64 glibc hosts with FMA these are the bits of the
//! platform `exp` (its FMA variant), which is what lets the kernels move off
//! libm without moving any golden output.

/// `log2(N)`: the table holds `N = 128` entries of two words each.
pub(crate) const TABLE_BITS: u32 = 7;
/// `N / ln 2`.
pub(crate) const INV_LN2_N: f64 = f64::from_bits(0x40671547652b82fe);
/// The high part of `−ln 2 / N` (its low 20 mantissa bits are zero, so
/// `k·NEG_LN2_HI_N` is exact for every `|k| < 2^20`).
pub(crate) const NEG_LN2_HI_N: f64 = f64::from_bits(0xbf762e42fefa0000);
/// The low part of `−ln 2 / N`.
pub(crate) const NEG_LN2_LO_N: f64 = f64::from_bits(0xbd0cf79abc9e3b3a);
/// `1.5·2^52`: adding it rounds to an integer held in the low mantissa bits.
pub(crate) const SHIFT: f64 = f64::from_bits(0x4338000000000000);
/// Polynomial coefficients of `exp(r) − 1 − r ≈ r²·(C2 + r·C3) + r⁴·(C4 + r·C5)`.
pub(crate) const C2: f64 = f64::from_bits(0x3fdffffffffffdbd);
pub(crate) const C3: f64 = f64::from_bits(0x3fc555555555543c);
pub(crate) const C4: f64 = f64::from_bits(0x3fa55555cf172b91);
pub(crate) const C5: f64 = f64::from_bits(0x3f81111167a4d017);

/// `TAB[2j]` is the bits of the correctly rounded `2^(j/N)/H_j − 1` and
/// `TAB[2j + 1]` is `bits(H_j) − (j << 45)`, where `H_j` is the double
/// nearest to `2^(j/N)`. Adding `k << 45` back (with `j = k mod N`) puts
/// `⌊k/N⌋` into the exponent field, so the scale `2^(k/N)` is one integer
/// add away. The `exp_table_rebuilds_from_first_principles` test checks every
/// entry against that definition in exact integer arithmetic.
#[rustfmt::skip]
pub(crate) static TAB: [u64; 2 << TABLE_BITS] = [
    0x0000000000000000, 0x3ff0000000000000,
    0x3c9b3b4f1a88bf6e, 0x3feff63da9fb3335,
    0xbc7160139cd8dc5d, 0x3fefec9a3e778061,
    0xbc905e7a108766d1, 0x3fefe315e86e7f85,
    0x3c8cd2523567f613, 0x3fefd9b0d3158574,
    0xbc8bce8023f98efa, 0x3fefd06b29ddf6de,
    0x3c60f74e61e6c861, 0x3fefc74518759bc8,
    0x3c90a3e45b33d399, 0x3fefbe3ecac6f383,
    0x3c979aa65d837b6d, 0x3fefb5586cf9890f,
    0x3c8eb51a92fdeffc, 0x3fefac922b7247f7,
    0x3c3ebe3d702f9cd1, 0x3fefa3ec32d3d1a2,
    0xbc6a033489906e0b, 0x3fef9b66affed31b,
    0xbc9556522a2fbd0e, 0x3fef9301d0125b51,
    0xbc5080ef8c4eea55, 0x3fef8abdc06c31cc,
    0xbc91c923b9d5f416, 0x3fef829aaea92de0,
    0x3c80d3e3e95c55af, 0x3fef7a98c8a58e51,
    0xbc801b15eaa59348, 0x3fef72b83c7d517b,
    0xbc8f1ff055de323d, 0x3fef6af9388c8dea,
    0x3c8b898c3f1353bf, 0x3fef635beb6fcb75,
    0xbc96d99c7611eb26, 0x3fef5be084045cd4,
    0x3c9aecf73e3a2f60, 0x3fef54873168b9aa,
    0xbc8fe782cb86389d, 0x3fef4d5022fcd91d,
    0x3c8a6f4144a6c38d, 0x3fef463b88628cd6,
    0x3c807a05b0e4047d, 0x3fef3f49917ddc96,
    0x3c968efde3a8a894, 0x3fef387a6e756238,
    0x3c875e18f274487d, 0x3fef31ce4fb2a63f,
    0x3c80472b981fe7f2, 0x3fef2b4565e27cdd,
    0xbc96b87b3f71085e, 0x3fef24dfe1f56381,
    0x3c82f7e16d09ab31, 0x3fef1e9df51fdee1,
    0xbc3d219b1a6fbffa, 0x3fef187fd0dad990,
    0x3c8b3782720c0ab4, 0x3fef1285a6e4030b,
    0x3c6e149289cecb8f, 0x3fef0cafa93e2f56,
    0x3c834d754db0abb6, 0x3fef06fe0a31b715,
    0x3c864201e2ac744c, 0x3fef0170fc4cd831,
    0x3c8fdd395dd3f84a, 0x3feefc08b26416ff,
    0xbc86a3803b8e5b04, 0x3feef6c55f929ff1,
    0xbc924aedcc4b5068, 0x3feef1a7373aa9cb,
    0xbc9907f81b512d8e, 0x3feeecae6d05d866,
    0xbc71d1e83e9436d2, 0x3feee7db34e59ff7,
    0xbc991919b3ce1b15, 0x3feee32dc313a8e5,
    0x3c859f48a72a4c6d, 0x3feedea64c123422,
    0xbc9312607a28698a, 0x3feeda4504ac801c,
    0xbc58a78f4817895b, 0x3feed60a21f72e2a,
    0xbc7c2c9b67499a1b, 0x3feed1f5d950a897,
    0x3c4363ed60c2ac11, 0x3feece086061892d,
    0x3c9666093b0664ef, 0x3feeca41ed1d0057,
    0x3c6ecce1daa10379, 0x3feec6a2b5c13cd0,
    0x3c93ff8e3f0f1230, 0x3feec32af0d7d3de,
    0x3c7690cebb7aafb0, 0x3feebfdad5362a27,
    0x3c931dbdeb54e077, 0x3feebcb299fddd0d,
    0xbc8f94340071a38e, 0x3feeb9b2769d2ca7,
    0xbc87deccdc93a349, 0x3feeb6daa2cf6642,
    0xbc78dec6bd0f385f, 0x3feeb42b569d4f82,
    0xbc861246ec7b5cf6, 0x3feeb1a4ca5d920f,
    0x3c93350518fdd78e, 0x3feeaf4736b527da,
    0x3c7b98b72f8a9b05, 0x3feead12d497c7fd,
    0x3c9063e1e21c5409, 0x3feeab07dd485429,
    0x3c34c7855019c6ea, 0x3feea9268a5946b7,
    0x3c9432e62b64c035, 0x3feea76f15ad2148,
    0xbc8ce44a6199769f, 0x3feea5e1b976dc09,
    0xbc8c33c53bef4da8, 0x3feea47eb03a5585,
    0xbc845378892be9ae, 0x3feea34634ccc320,
    0xbc93cedd78565858, 0x3feea23882552225,
    0x3c5710aa807e1964, 0x3feea155d44ca973,
    0xbc93b3efbf5e2228, 0x3feea09e667f3bcd,
    0xbc6a12ad8734b982, 0x3feea012750bdabf,
    0xbc6367efb86da9ee, 0x3fee9fb23c651a2f,
    0xbc80dc3d54e08851, 0x3fee9f7df9519484,
    0xbc781f647e5a3ecf, 0x3fee9f75e8ec5f74,
    0xbc86ee4ac08b7db0, 0x3fee9f9a48a58174,
    0xbc8619321e55e68a, 0x3fee9feb564267c9,
    0x3c909ccb5e09d4d3, 0x3feea0694fde5d3f,
    0xbc7b32dcb94da51d, 0x3feea11473eb0187,
    0x3c94ecfd5467c06b, 0x3feea1ed0130c132,
    0x3c65ebe1abd66c55, 0x3feea2f336cf4e62,
    0xbc88a1c52fb3cf42, 0x3feea427543e1a12,
    0xbc9369b6f13b3734, 0x3feea589994cce13,
    0xbc805e843a19ff1e, 0x3feea71a4623c7ad,
    0xbc94d450d872576e, 0x3feea8d99b4492ed,
    0x3c90ad675b0e8a00, 0x3feeaac7d98a6699,
    0x3c8db72fc1f0eab4, 0x3feeace5422aa0db,
    0xbc65b6609cc5e7ff, 0x3feeaf3216b5448c,
    0x3c7bf68359f35f44, 0x3feeb1ae99157736,
    0xbc93091fa71e3d83, 0x3feeb45b0b91ffc6,
    0xbc5da9b88b6c1e29, 0x3feeb737b0cdc5e5,
    0xbc6c23f97c90b959, 0x3feeba44cbc8520f,
    0xbc92434322f4f9aa, 0x3feebd829fde4e50,
    0xbc85ca6cd7668e4b, 0x3feec0f170ca07ba,
    0x3c71affc2b91ce27, 0x3feec49182a3f090,
    0x3c6dd235e10a73bb, 0x3feec86319e32323,
    0xbc87c50422622263, 0x3feecc667b5de565,
    0x3c8b1c86e3e231d5, 0x3feed09bec4a2d33,
    0xbc91bbd1d3bcbb15, 0x3feed503b23e255d,
    0x3c90cc319cee31d2, 0x3feed99e1330b358,
    0x3c8469846e735ab3, 0x3feede6b5579fdbf,
    0xbc82dfcd978e9db4, 0x3feee36bbfd3f37a,
    0x3c8c1a7792cb3387, 0x3feee89f995ad3ad,
    0xbc907b8f4ad1d9fa, 0x3feeee07298db666,
    0xbc55c3d956dcaeba, 0x3feef3a2b84f15fb,
    0xbc90a40e3da6f640, 0x3feef9728de5593a,
    0xbc68d6f438ad9334, 0x3feeff76f2fb5e47,
    0xbc91eee26b588a35, 0x3fef05b030a1064a,
    0x3c74ffd70a5fddcd, 0x3fef0c1e904bc1d2,
    0xbc91bdfbfa9298ac, 0x3fef12c25bd71e09,
    0x3c736eae30af0cb3, 0x3fef199bdd85529c,
    0x3c8ee3325c9ffd94, 0x3fef20ab5fffd07a,
    0x3c84e08fd10959ac, 0x3fef27f12e57d14b,
    0x3c63cdaf384e1a67, 0x3fef2f6d9406e7b5,
    0x3c676b2c6c921968, 0x3fef3720dcef9069,
    0xbc808a1883ccb5d2, 0x3fef3f0b555dc3fa,
    0xbc8fad5d3ffffa6f, 0x3fef472d4a07897c,
    0xbc900dae3875a949, 0x3fef4f87080d89f2,
    0x3c74a385a63d07a7, 0x3fef5818dcfba487,
    0xbc82919e2040220f, 0x3fef60e316c98398,
    0x3c8e5a50d5c192ac, 0x3fef69e603db3285,
    0x3c843a59ac016b4b, 0x3fef7321f301b460,
    0xbc82d52107b43e1f, 0x3fef7c97337b9b5f,
    0xbc892ab93b470dc9, 0x3fef864614f5a129,
    0x3c74b604603a88d3, 0x3fef902ee78b3ff6,
    0x3c83c5ec519d7271, 0x3fef9a51fbc74c83,
    0xbc8ff7128fd391f0, 0x3fefa4afa2a490da,
    0xbc8dae98e223747d, 0x3fefaf482d8e67f1,
    0x3c8ec3bc41aa2008, 0x3fefba1bee615a27,
    0x3c842b94c3a9eb32, 0x3fefc52b376bba97,
    0x3c8a64a931d185ee, 0x3fefd0765b6e4540,
    0xbc8e37bae43be3ed, 0x3fefdbfdad9cbe14,
    0x3c77893b4d91cd9d, 0x3fefe7c1819e90d8,
    0x3c5305c14160cc89, 0x3feff3c22b8f71f1,
];

/// The top 12 bits (sign and exponent) of `x`.
#[inline(always)]
fn top12(x: f64) -> u32 {
    (x.to_bits() >> 52) as u32
}

/// `|x| ≥ 512`, `|x| < 2⁻⁵⁴` or `x` not finite: the inputs the main path
/// does not cover (glibc's `abstop` test).
#[inline(always)]
fn is_special(x: f64) -> bool {
    let abstop = top12(x) & 0x7ff;
    abstop.wrapping_sub(top12(TINY)) >= top12(HUGE) - top12(TINY)
}

/// `2⁻⁵⁴`: below it in magnitude, `exp(x)` rounds to `1 + x`.
pub(crate) const TINY: f64 = f64::from_bits(0x3c90000000000000);
/// From this magnitude on, the scale `2^(k/N)` may leave the normal range.
pub(crate) const HUGE: f64 = 512.0;

/// `e^x`. Inlined into each caller, so the `mul_add`s become single
/// instructions wherever the caller is compiled with FMA.
#[inline(always)]
pub(crate) fn exp(x: f64) -> f64 {
    if is_special(x) {
        return special(x);
    }
    let (tmp, sbits) = reduce(x);
    let scale = f64::from_bits(sbits);
    scale.mul_add(tmp, scale)
}

/// The range reduction and polynomial shared by the main path and the
/// `512 ≤ |x| < 1024` special case: `tmp` with `exp(x) ≈ scale·(1 + tmp)`,
/// and the bits of `scale` (only a valid double when `−1023·N < k <
/// 1024·N`; [`special`] rescales it otherwise).
#[inline(always)]
fn reduce(x: f64) -> (f64, u64) {
    // x = k·ln2/N + r with |r| ≤ ln2/2N; the shift rounds k to nearest.
    let kd = x.mul_add(INV_LN2_N, SHIFT);
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = kd.mul_add(NEG_LN2_LO_N, kd.mul_add(NEG_LN2_HI_N, x));
    let idx = 2 * (ki % (1 << TABLE_BITS)) as usize;
    let top = ki << (52 - TABLE_BITS);
    let tail = f64::from_bits(TAB[idx]);
    let sbits = TAB[idx + 1].wrapping_add(top);
    let r2 = r * r;
    let tmp = (r2 * r2).mul_add(r.mul_add(C5, C4), r2.mul_add(r.mul_add(C3, C2), tail + r));
    (tmp, sbits)
}

/// glibc's special cases: tiny, huge and non-finite `x`.
#[inline(always)]
pub(crate) fn special(x: f64) -> f64 {
    let abstop = top12(x) & 0x7ff;
    if abstop < top12(TINY) {
        // Also the common x = ±0.
        return 1.0 + x;
    }
    if abstop >= top12(1024.0) {
        if x == f64::NEG_INFINITY {
            return 0.0;
        }
        if abstop >= top12(f64::INFINITY) {
            return 1.0 + x;
        }
        // Certain underflow to +0 or overflow to +∞.
        return if x < 0.0 { 0.0 } else { f64::INFINITY };
    }
    // 512 ≤ |x| < 1024: the exponent of the scale may leave the normal
    // range, so it is biased into range and the result scaled back.
    let (tmp, sbits) = reduce(x);
    if x > 0.0 {
        let scale = f64::from_bits(sbits.wrapping_sub(1009 << 52));
        return f64::from_bits(0x7f00000000000000) * scale.mul_add(tmp, scale);
    }
    // glibc's FMA build leaves this branch's `scale·tmp` unfused: the
    // product is shared with the subnormal block below, and GCC contracts
    // a product only into additions of its own basic block.
    let scale = f64::from_bits(sbits.wrapping_add(1022 << 52));
    let st = scale * tmp;
    let mut y = scale + st;
    if y < 1.0 {
        // Round to the subnormal precision once, not twice.
        let lo = scale - y + st;
        let hi = 1.0 + y;
        let lo = 1.0 - hi + y + lo;
        y = (hi + lo) - 1.0;
    }
    f64::from_bits(0x0010000000000000) * y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Backend;
    use std::cmp::Ordering;

    /// Every constructible backend: a foreign one degrades to scalar.
    const BACKENDS: [Backend; 3] = [Backend::Scalar, Backend::Avx2, Backend::Neon];

    /// The boundaries of glibc's special cases and their neighbours,
    /// overflow and underflow thresholds, subnormal results, ±0, ±∞, NaN.
    fn edge_inputs() -> Vec<f64> {
        let mut xs = vec![
            0.0,
            -0.0,
            TINY,
            -TINY,
            HUGE,
            -HUGE,
            1024.0,
            -1024.0,
            -708.4,
            -745.1,
            -745.2,
            -740.0,
            -720.5,
            709.78,
            709.79,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::MAX,
            f64::MIN,
        ];
        let near: Vec<f64> = xs
            .iter()
            .filter(|x| x.is_finite() && **x != 0.0)
            .flat_map(|&x| [x.next_up(), x.next_down()])
            .collect();
        xs.extend(near);
        xs
    }

    /// Uniform draws in `[lo, hi]` from a fixed splitmix64 stream.
    fn uniform(seed: u64, lo: f64, hi: f64, n: usize) -> Vec<f64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^= z >> 31;
                lo + (hi - lo) * ((z >> 11) as f64 * (1.0 / (1u64 << 53) as f64))
            })
            .collect()
    }

    /// [`exp`] per entry of `xs`, through [`crate::exp`] and through
    /// [`crate::exp_in_place`] on every backend, starting at each offset of
    /// a lane block so that every input meets every lane and the scalar
    /// tail.
    fn check_every_form(xs: &[f64]) {
        for &x in xs {
            assert_eq!(crate::exp(x).to_bits(), exp(x).to_bits(), "exp({x:e})");
        }
        for be in BACKENDS {
            for start in 0..4.min(xs.len()) {
                let mut ys = xs[start..].to_vec();
                crate::exp_in_place(be, &mut ys);
                for (&y, &x) in ys.iter().zip(&xs[start..]) {
                    assert_eq!(y.to_bits(), exp(x).to_bits(), "{be:?} exp({x:e})");
                }
            }
        }
    }

    /// The runtime-dispatched forms (FMA-compiled scalar, AVX2 lanes, NEON
    /// lanes) against the portable body, whose `mul_add` is a libm `fma()`
    /// call where the crate is compiled without FMA.
    #[test]
    fn exp_backends_match_reference_bitwise() {
        let mut xs = edge_inputs();
        xs.extend(uniform(1, -760.0, 760.0, 64));
        check_every_form(&xs);
        // Subnormal and zero results through the scaled special case.
        let subnormal = uniform(3, -745.2, -708.4, 64);
        assert!(subnormal
            .iter()
            .any(|&x| exp(x) != 0.0 && exp(x) < f64::MIN_POSITIVE));
        check_every_form(&subnormal);
        // A fused and an unfused multiply-add part on about one input in
        // 10⁵, so the sweep is long wherever it is cheap.
        let n = if cfg!(miri) { 64 } else { 500_000 };
        let mut xs = uniform(4, -760.0, 760.0, n);
        xs.extend(uniform(5, -40.0, 0.0, n));
        let want: Vec<u64> = xs.iter().map(|&x| exp(x).to_bits()).collect();
        for be in BACKENDS {
            let mut ys = xs.clone();
            crate::exp_in_place(be, &mut ys);
            for ((&y, &w), &x) in ys.iter().zip(&want).zip(&xs) {
                assert_eq!(y.to_bits(), w, "{be:?} exp({x:e})");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Random slices at every length around the lane blocks, through
        /// every backend, against the per-entry scalar form.
        #[test]
        fn exp_in_place_dispatch_bit_identical(
            xs in proptest::collection::vec(-800.0f64..800.0, 0..23),
            scale in -6i32..3,
        ) {
            let xs: Vec<f64> = xs.iter().map(|&x| x * 10f64.powi(scale)).collect();
            for be in BACKENDS {
                let mut ys = xs.clone();
                crate::exp_in_place(be, &mut ys);
                for (&y, &x) in ys.iter().zip(&xs) {
                    proptest::prop_assert_eq!(y.to_bits(), exp(x).to_bits());
                }
            }
        }
    }

    /// The oracle behind the goldens: on x86-64 glibc with FMA (the
    /// configuration that wrote them), [`f64::exp`] resolves to glibc's FMA
    /// build of the same algorithm, and the vendored function must return
    /// its bits on 10⁶ inputs across the ranges the GP kernels feed it.
    #[cfg(all(
        target_os = "linux",
        target_env = "gnu",
        target_arch = "x86_64",
        not(miri)
    ))]
    #[test]
    fn exp_matches_glibc_libm_bitwise() {
        if !std::arch::is_x86_feature_detected!("fma") {
            return;
        }
        let ranges = [
            (-760.0, 0.0),
            (-40.0, 0.0),
            (-1.0, 0.0),
            (-1e-6, 0.0),
            (-750.0, 750.0),
        ];
        let mut xs = edge_inputs();
        for (seed, &(lo, hi)) in ranges.iter().enumerate() {
            xs.extend(uniform(100 + seed as u64, lo, hi, 200_000));
        }
        let mut lanes = xs.clone();
        crate::exp_in_place(crate::detect(), &mut lanes);
        for (&x, &y) in xs.iter().zip(&lanes) {
            if x.is_nan() {
                assert!(crate::exp(x).is_nan() && y.is_nan());
                continue;
            }
            assert_eq!(crate::exp(x).to_bits(), x.exp().to_bits(), "exp({x:e})");
            assert_eq!(y.to_bits(), x.exp().to_bits(), "lanes exp({x:e})");
        }
    }

    /// Little-endian base-2⁶⁴ naturals: just enough to raise a dyadic
    /// rational to the 128th power exactly.
    fn mul(a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; a.len() + b.len()];
        for (i, &x) in a.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &y) in b.iter().enumerate() {
                let t = x as u128 * y as u128 + out[i + j] as u128 + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            out[i + b.len()] = carry as u64;
        }
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    fn pow128(a: &[u64]) -> Vec<u64> {
        (0..7).fold(a.to_vec(), |p, _| mul(&p, &p))
    }

    fn pow2(e: u32) -> Vec<u64> {
        let mut v = vec![0u64; e as usize / 64 + 1];
        v[e as usize / 64] = 1 << (e % 64);
        v
    }

    fn nat(x: u128) -> Vec<u64> {
        mul(&[x as u64, (x >> 64) as u64], &[1])
    }

    fn cmp(a: &[u64], b: &[u64]) -> Ordering {
        a.len()
            .cmp(&b.len())
            .then_with(|| a.iter().rev().cmp(b.iter().rev()))
    }

    /// `x = m·2^e` with `m` a signed integer.
    fn dyadic(x: f64) -> (i128, i32) {
        let b = x.to_bits();
        let (exp, frac) = (((b >> 52) & 0x7ff) as i32, (b & ((1 << 52) - 1)) as i128);
        let (m, e) = if exp == 0 {
            (frac, -1074)
        } else {
            (frac | 1 << 52, exp - 1075)
        };
        (if x < 0.0 { -m } else { m }, e)
    }

    /// `(1 + (a + b)/2)·2^125` as a natural, for doubles `a`, `b` of
    /// magnitude below 2⁻⁵⁰ and above 2⁻¹²⁰ (or zero).
    fn one_plus_mid(a: f64, b: f64) -> Vec<u64> {
        let ((ma, ea), (mb, eb)) = (dyadic(a), dyadic(b));
        let e = ea.min(eb);
        let m = (ma << (ea - e)) + (mb << (eb - e));
        let shift = e - 1 + 125;
        assert!(shift >= 0, "tail too small for the fixed scale");
        nat(((1i128 << 125) + (m << shift)) as u128)
    }

    /// Rebuilds the table from its definition: `H_j` is the double nearest
    /// `2^(j/N)`, found from a libm first guess by the exact test
    /// `(2m − 1)^128 < 2^(j + 53·128) < (2m + 1)^128` on its significand `m`;
    /// `TAB[2j + 1]` must equal `bits(H_j) − (j << 45)`. `TAB[2j]` must be the
    /// double nearest `2^(j/N)/H_j − 1`: `2^(j/N)` lies strictly between
    /// `H_j·(1 + T⁻)` and `H_j·(1 + T⁺)`, the midpoints to its neighbours.
    #[cfg(not(miri))]
    #[test]
    fn exp_table_rebuilds_from_first_principles() {
        let n = 1u32 << TABLE_BITS;
        assert_eq!((TAB[0], TAB[1]), (0, 1f64.to_bits()));
        for j in 1..n {
            let target = pow2(j + 53 * n);
            let guess = (2f64.powf(j as f64 / n as f64) * (1u64 << 52) as f64) as u64;
            let nearest: Vec<u64> = (guess - 2..=guess + 2)
                .filter(|&m| {
                    cmp(&pow128(&nat(2 * m as u128 - 1)), &target) == Ordering::Less
                        && cmp(&pow128(&nat(2 * m as u128 + 1)), &target) == Ordering::Greater
                })
                .collect();
            assert_eq!(nearest.len(), 1, "j = {j}");
            let h = f64::from_bits((nearest[0] - (1 << 52)) | 1f64.to_bits());
            assert_eq!(
                TAB[2 * j as usize + 1],
                h.to_bits() - ((j as u64) << 45),
                "j = {j}"
            );

            let tail = f64::from_bits(TAB[2 * j as usize]);
            let m = nat(nearest[0] as u128);
            let target = pow2(j + 128 * (52 + 125));
            let below = pow128(&mul(&m, &one_plus_mid(tail, tail.next_down())));
            let above = pow128(&mul(&m, &one_plus_mid(tail, tail.next_up())));
            assert_eq!(cmp(&below, &target), Ordering::Less, "tail j = {j}");
            assert_eq!(cmp(&above, &target), Ordering::Greater, "tail j = {j}");
        }
    }
}
