//! Covariance functions and their log-hyperparameter gradients.
//!
//! All kernels are parameterized in **log space**: a parameter vector `p`
//! holds `log σ_f` followed by `log ℓ_1 … log ℓ_d` (and, for composites, the
//! concatenation of the component layouts). Working in log space makes the
//! positivity constraints implicit and the NLML landscape far better
//! conditioned — the universal practice in GP software.
//!
//! The gradient convention: [`Kernel::eval_grad`] writes `∂k/∂p_j` (the
//! derivative with respect to the *log* parameter) into the output slice.

use crate::workspace::{DiffBatch, TrainLayout};
use mfbo_simd::exp;
use std::fmt::Debug;

/// A positive-definite covariance function over `R^dim`.
///
/// Implementors must be cheap to clone (they carry only shape information;
/// the hyperparameters travel separately so the optimizer can own them).
pub trait Kernel: Debug + Clone + Send + Sync {
    /// Input dimensionality the kernel expects.
    fn input_dim(&self) -> usize;

    /// Number of hyperparameters (in log space).
    fn num_params(&self) -> usize;

    /// Evaluates `k(a, b)` under log-parameters `p`.
    fn eval(&self, p: &[f64], a: &[f64], b: &[f64]) -> f64;

    /// Evaluates `k(a, b)` and writes `∂k/∂p_j` into `grad`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `grad.len() != self.num_params()`.
    fn eval_grad(&self, p: &[f64], a: &[f64], b: &[f64], grad: &mut [f64]) -> f64;

    /// Evaluates the kernel over every pair of a precomputed difference
    /// workspace, writing one value per pair into `out` (pair order).
    ///
    /// The contract is **bit-identity** with calling [`Kernel::eval`] on
    /// each pair: implementations may only reorganize parameter-dependent
    /// work (hoisting `exp(log θ)` transforms out of the pair loop), never
    /// the per-pair floating-point sequence.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `out.len() != batch.len()` or the batch
    /// dimension does not match [`Kernel::input_dim`].
    fn eval_from_diffs(&self, p: &[f64], batch: &DiffBatch, out: &mut [f64]);

    /// Accumulates the weighted parameter gradient over every pair of a
    /// difference workspace, `acc[j] += weights[q] · ∂k_q/∂p_j`, given the
    /// kernel values of the same batch (as produced by
    /// [`Kernel::eval_from_diffs`] under the same `p`). The NLML gradient
    /// always evaluates the kernel matrix first, so a kernel whose
    /// parameter gradient factors through its value (squared-exponential:
    /// `∂k/∂log σ_f = 2k`, `∂k/∂log ℓ_i = k z_i²`) skips the per-pair `exp`.
    ///
    /// The contract is **bit-identity** with the pair-by-pair loop the
    /// naive NLML gradient runs with [`Kernel::eval_grad`]: every `acc[j]`
    /// receives the same terms `weights[q] · ∂k_q/∂p_j`, each computed by
    /// the same expression, added in pair order. Only the interleaving
    /// across parameters may change, which lets implementations compute
    /// the terms in vectorized sweeps across pairs.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `weights.len()` or `values.len()`
    /// differs from `batch.len()`, or `acc.len() != self.num_params()`.
    fn grad_from_diffs_with_values(
        &self,
        p: &[f64],
        batch: &DiffBatch,
        weights: &[f64],
        values: &[f64],
        acc: &mut [f64],
    );

    /// The parameter transforms prediction reads (`σ_f²`, inverse
    /// lengthscales), which a fitted model computes once.
    type Scales: Debug + Clone + Send + Sync;

    /// Transforms the log-parameters `p` for [`Kernel::eval_row`] and
    /// [`Kernel::prior_var`].
    fn scales(&self, p: &[f64]) -> Self::Scales;

    /// The kernel row of query `x` against every point of `layout`, into
    /// `out` (`layout.stride()` entries; those past `layout.len()` are
    /// padding), under `s = self.scales(p)`. The contract is
    /// **bit-identity** with [`Kernel::eval`]`(p, x, x_j)` per point, as for
    /// [`Kernel::eval_from_diffs`].
    ///
    /// # Panics
    ///
    /// Implementations may panic if `out.len() != layout.stride()` or the
    /// dimensions disagree.
    fn eval_row(
        &self,
        s: &Self::Scales,
        x: &[f64],
        layout: &TrainLayout,
        be: mfbo_simd::Backend,
        out: &mut [f64],
    );

    /// The prior variance `k(x, x)` under `s = self.scales(p)`:
    /// bit-identical to [`Kernel::eval`]`(p, x, x)`, or NaN where that is.
    fn prior_var(&self, s: &Self::Scales, x: &[f64]) -> f64;

    /// A reasonable starting point for hyperparameter optimization, assuming
    /// inputs roughly in the unit box and standardized outputs.
    fn default_params(&self) -> Vec<f64>;

    /// Box bounds `(lower, upper)` for the log-parameters.
    fn param_bounds(&self) -> (Vec<f64>, Vec<f64>);
}

/// Squared-exponential (RBF) kernel with automatic relevance determination:
/// `k(a,b) = σ_f² exp(-½ Σ_i (a_i-b_i)²/ℓ_i²)` — paper eq. (2).
///
/// Parameter layout: `[log σ_f, log ℓ_1, …, log ℓ_d]`.
///
/// # Examples
///
/// ```
/// use mfbo_gp::kernel::{Kernel, SquaredExponential};
///
/// let k = SquaredExponential::new(2);
/// let p = k.default_params();
/// let same = k.eval(&p, &[0.3, 0.4], &[0.3, 0.4]);
/// let far = k.eval(&p, &[0.3, 0.4], &[5.0, -5.0]);
/// assert!(same > far); // covariance decays with distance
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SquaredExponential {
    dim: usize,
}

impl SquaredExponential {
    /// Creates an SE-ARD kernel over `dim` input dimensions.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "kernel dimension must be positive");
        SquaredExponential { dim }
    }
}

/// The parameter transforms of a [`SquaredExponential`]: `σ_f²` and the
/// inverse lengthscales.
#[derive(Debug, Clone)]
pub struct SeScales {
    sf2: f64,
    inv_l: Vec<f64>,
}

/// Whether every scaled self-difference `(x_t − x_t)·ℓ_t⁻¹` is zero, so an
/// SE factor's `k(x, x)` is exactly `σ_f²·exp(−0) = σ_f²`. A non-finite
/// coordinate (or inverse lengthscale) makes one of them NaN, and `k(x, x)`
/// with it.
#[allow(clippy::eq_op)]
fn zero_self_distance(x: &[f64], inv_l: &[f64]) -> bool {
    x.iter().zip(inv_l).all(|(&a, &l)| (a - a) * l == 0.0)
}

/// An SE factor's prior variance `k(x, x)` (see [`zero_self_distance`]).
fn se_prior(sf2: f64, x: &[f64], inv_l: &[f64]) -> f64 {
    if zero_self_distance(x, inv_l) {
        sf2
    } else {
        f64::NAN
    }
}

/// Finishes SE values from squared scaled distances in place:
/// `q ← σ_f²·exp(−½·q)`, the last step of `eval`, with the `exp` run across
/// all entries at once ([`mfbo_simd::exp_in_place`], the same bits as the
/// scalar [`exp`] per entry).
fn se_finish(sf2: f64, be: mfbo_simd::Backend, qs: &mut [f64]) {
    for q in qs.iter_mut() {
        *q *= -0.5;
    }
    mfbo_simd::exp_in_place(be, qs);
    for q in qs.iter_mut() {
        *q *= sf2;
    }
}

/// Pairs per block of a gradient sweep: one block's terms for [`CHAINS`]
/// parameters (16 KB) stay in L1 until they are added, whatever the
/// dimension.
const PAIR_BLOCK: usize = 256;

/// Parameter chains the pair-order reduction carries side by side.
const CHAINS: usize = 8;

/// The pair-swept gradient reduction behind the batch gradient hooks. For
/// each block of up to [`PAIR_BLOCK`] pairs and each group of [`CHAINS`]
/// parameters, `row(j, pairs, out)` writes parameter `j`'s weighted
/// gradient terms of those pairs into `out`; then every `acc[j]` of the
/// group adds its row in pair order. A pair's terms are independent of
/// each other, so a row can be computed in one sweep across pairs; each
/// parameter's running sum is one sequential chain, exactly the per-pair
/// loop's, and the group's chains advance side by side.
fn sweep_pairs(
    acc: &mut [f64],
    count: usize,
    mut row: impl FnMut(usize, std::ops::Range<usize>, &mut [f64]),
) {
    let block = count.min(PAIR_BLOCK);
    crate::scratch::with_scratch(CHAINS * block, |buf| {
        let mut q0 = 0;
        while q0 < count {
            let len = (count - q0).min(block);
            for (g, accs) in acc.chunks_mut(CHAINS).enumerate() {
                let terms = &mut buf[..accs.len() * len];
                for (c, out) in terms.chunks_exact_mut(len).enumerate() {
                    row(g * CHAINS + c, q0..q0 + len, out);
                }
                add_rows(accs, terms, len);
            }
            q0 += len;
        }
    });
}

/// `acc[c] += rows[c*len + q]` for `q = 0..len` ascending, the
/// `acc.len() ≤ CHAINS` chains interleaved in registers. Chains past
/// `acc.len()` re-add the first row and are dropped, so the loop always
/// runs all [`CHAINS`].
fn add_rows(acc: &mut [f64], rows: &[f64], len: usize) {
    let mut a = [0.0; CHAINS];
    a[..acc.len()].copy_from_slice(acc);
    let r: [&[f64]; CHAINS] = std::array::from_fn(|c| {
        let c = if c < acc.len() { c } else { 0 };
        &rows[c * len..(c + 1) * len]
    });
    for q in 0..len {
        for (ac, rc) in a.iter_mut().zip(&r) {
            *ac += rc[q];
        }
    }
    acc.copy_from_slice(&a[..acc.len()]);
}

impl Kernel for SquaredExponential {
    fn input_dim(&self) -> usize {
        self.dim
    }

    fn num_params(&self) -> usize {
        1 + self.dim
    }

    fn eval(&self, p: &[f64], a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(p.len(), self.num_params());
        debug_assert_eq!(a.len(), self.dim);
        debug_assert_eq!(b.len(), self.dim);
        let sf2 = exp(2.0 * p[0]);
        let mut q = 0.0;
        for i in 0..self.dim {
            let inv_l = exp(-p[1 + i]);
            let z = (a[i] - b[i]) * inv_l;
            q += z * z;
        }
        sf2 * exp(-0.5 * q)
    }

    fn eval_grad(&self, p: &[f64], a: &[f64], b: &[f64], grad: &mut [f64]) -> f64 {
        debug_assert_eq!(grad.len(), self.num_params());
        let sf2 = exp(2.0 * p[0]);
        let mut q = 0.0;
        let mut z2 = vec![0.0; self.dim];
        for i in 0..self.dim {
            let inv_l = exp(-p[1 + i]);
            let z = (a[i] - b[i]) * inv_l;
            z2[i] = z * z;
            q += z2[i];
        }
        let k = sf2 * exp(-0.5 * q);
        // ∂k/∂log σ_f = 2k;   ∂k/∂log ℓ_i = k · z_i².
        grad[0] = 2.0 * k;
        for i in 0..self.dim {
            grad[1 + i] = k * z2[i];
        }
        k
    }

    fn eval_from_diffs(&self, p: &[f64], batch: &DiffBatch, out: &mut [f64]) {
        debug_assert_eq!(out.len(), batch.len());
        debug_assert_eq!(batch.dim(), self.dim);
        // The only parameter-dependent scalars: hoisted out of the pair
        // loop. Per pair, the arithmetic below is the exact sequence of
        // `eval` (signed difference × inv_l, squared, accumulated in
        // dimension order), so values are bit-identical.
        let SeScales { sf2, inv_l } = self.scales(p);
        // Vectorized across pairs: `sq_norm` fills `out` with the exact `q`
        // `eval` accumulates per pair (ascending dimension order, separate
        // mul and add), then the parameter-dependent finish runs across
        // entries too.
        let (be, rows) = batch.simd_rows();
        mfbo_simd::sq_norm(be, rows, batch.len(), &inv_l, out);
        se_finish(sf2, be, out);
    }

    fn grad_from_diffs_with_values(
        &self,
        p: &[f64],
        batch: &DiffBatch,
        weights: &[f64],
        values: &[f64],
        acc: &mut [f64],
    ) {
        debug_assert_eq!(weights.len(), batch.len());
        debug_assert_eq!(values.len(), batch.len());
        debug_assert_eq!(acc.len(), self.num_params());
        debug_assert_eq!(batch.dim(), self.dim);
        // The SE gradient factors through the kernel value (`2k` and
        // `k z_t²`), and `values[q]` is the bit-exact `k` of `eval_grad`, so
        // no `exp` remains: each term is `eval_grad`'s product times the
        // weight, swept across pairs over the dimension-major rows.
        let inv_l = self.scales(p).inv_l;
        let (be, rows) = batch.simd_rows();
        let count = batch.len();
        sweep_pairs(acc, count, |j, pairs, out| {
            let (w, k) = (&weights[pairs.clone()], &values[pairs.clone()]);
            if j == 0 {
                for ((o, &w), &k) in out.iter_mut().zip(w).zip(k) {
                    *o = w * (2.0 * k);
                }
            } else {
                let d = &rows[(j - 1) * count..][pairs];
                mfbo_simd::sq_terms(be, d, inv_l[j - 1], k, w, out);
            }
        });
    }

    type Scales = SeScales;

    fn scales(&self, p: &[f64]) -> SeScales {
        SeScales {
            sf2: exp(2.0 * p[0]),
            inv_l: p[1..1 + self.dim].iter().map(|&l| exp(-l)).collect(),
        }
    }

    fn eval_row(
        &self,
        s: &SeScales,
        x: &[f64],
        layout: &TrainLayout,
        be: mfbo_simd::Backend,
        out: &mut [f64],
    ) {
        debug_assert_eq!(x.len(), self.dim);
        // The fused sweep accumulates each point's `q` exactly as `eval`
        // does (query − point, × inv_l, squared, added in dimension order);
        // the parameter-dependent finish runs across the real points.
        mfbo_simd::sq_dist(be, x, layout.rows(0..self.dim), &s.inv_l, out);
        se_finish(s.sf2, be, &mut out[..layout.len()]);
    }

    fn prior_var(&self, s: &SeScales, x: &[f64]) -> f64 {
        se_prior(s.sf2, x, &s.inv_l)
    }

    fn default_params(&self) -> Vec<f64> {
        // σ_f = 1, ℓ_i = 0.3 of the unit box.
        let mut p = vec![0.0];
        p.extend(std::iter::repeat_n((0.3f64).ln(), self.dim));
        p
    }

    fn param_bounds(&self) -> (Vec<f64>, Vec<f64>) {
        // σ_f ∈ [e^-3, e^3]; ℓ ∈ [e^-5, e^3] ≈ [0.0067, 20] of the unit box.
        let mut lo = vec![-3.0];
        let mut hi = vec![3.0];
        lo.extend(std::iter::repeat_n(-5.0, self.dim));
        hi.extend(std::iter::repeat_n(3.0, self.dim));
        (lo, hi)
    }
}

/// The nonlinear-information-fusion kernel of paper eq. (9):
///
/// `k_h((x, f), (x', f')) = k1(f, f') · k2(x, x') + k3(x, x')`
///
/// operating on *augmented* inputs `z = (x_1 … x_d, f)` where `f` is the
/// low-fidelity posterior mean at `x`. `k1` captures the (possibly strongly
/// nonlinear) map `z(·)` from low- to high-fidelity output; `k2` modulates
/// that map across the design space (space-dependent correlation); `k3`
/// models the independent discrepancy GP `δ(x)`.
///
/// All three components are squared-exponential. Parameter layout:
/// `[θ1 (2: log σ_f, log ℓ_f), θ2 (1+d), θ3 (1+d)]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NargpKernel {
    /// Design-space dimensionality `d` (the augmented input has `d + 1`).
    design_dim: usize,
    k1: SquaredExponential,
    k2: SquaredExponential,
    k3: SquaredExponential,
}

impl NargpKernel {
    /// Creates the fusion kernel for a `design_dim`-dimensional design
    /// space; the kernel itself operates on `design_dim + 1` inputs.
    pub fn new(design_dim: usize) -> Self {
        assert!(design_dim > 0, "design dimension must be positive");
        NargpKernel {
            design_dim,
            k1: SquaredExponential::new(1),
            k2: SquaredExponential::new(design_dim),
            k3: SquaredExponential::new(design_dim),
        }
    }

    /// The design-space dimensionality `d`.
    pub fn design_dim(&self) -> usize {
        self.design_dim
    }

    fn split<'a>(&self, p: &'a [f64]) -> (&'a [f64], &'a [f64], &'a [f64]) {
        let n1 = self.k1.num_params();
        let n2 = self.k2.num_params();
        let n3 = self.k3.num_params();
        debug_assert_eq!(p.len(), n1 + n2 + n3);
        (&p[..n1], &p[n1..n1 + n2], &p[n1 + n2..])
    }
}

/// `σ_f²` and inverse lengthscales of the three SE components of
/// [`NargpKernel`]: `k1` over the fidelity channel, `k2` and `k3` over the
/// design space.
#[derive(Debug, Clone)]
pub struct NargpScales {
    pub(crate) sf2_1: f64,
    pub(crate) inv_l1: f64,
    pub(crate) sf2_2: f64,
    pub(crate) inv_l2: Vec<f64>,
    pub(crate) sf2_3: f64,
    pub(crate) inv_l3: Vec<f64>,
}

impl NargpScales {
    /// `k1·k2 + k3` of one pair from its fidelity difference `df` and
    /// design factors: the per-pair finish of `eval`, parenthesized as it
    /// computes it.
    pub(crate) fn combine(&self, df: f64, k2: f64, k3: f64) -> f64 {
        let zf = df * self.inv_l1;
        self.sf2_1 * exp(-0.5 * (zf * zf)) * k2 + k3
    }

    /// The component values `k1`, `k2`, `k3` of every pair of a difference
    /// batch, from its `count`-pair dimension-major `rows` (the design
    /// dimensions, then the fidelity channel): one `sq_norm` sweep and one
    /// vectorized finish per component, each entry the bits `eval` computes
    /// for that pair. `sq_norm` over the single fidelity dimension yields
    /// `0.0 + z_f²`, which is bit-identical to `eval`'s bare `z_f · z_f` (a
    /// square is never -0.0).
    fn pair_components(
        &self,
        be: mfbo_simd::Backend,
        rows: &[f64],
        count: usize,
        k1: &mut [f64],
        k2: &mut [f64],
        k3: &mut [f64],
    ) {
        let (design, fid) = rows.split_at(self.inv_l2.len() * count);
        mfbo_simd::sq_norm(be, fid, count, &[self.inv_l1], k1);
        mfbo_simd::sq_norm(be, design, count, &self.inv_l2, k2);
        mfbo_simd::sq_norm(be, design, count, &self.inv_l3, k3);
        se_finish(self.sf2_1, be, k1);
        se_finish(self.sf2_2, be, k2);
        se_finish(self.sf2_3, be, k3);
    }

    /// The design factors `k2(x, x_j)` and `k3(x, x_j)` of design point `x`
    /// against every point of `layout` (whose first `d` rows are the design
    /// columns), into `k2` and `k3` (`layout.stride()` entries each): one
    /// fused [`mfbo_simd::sq_dist`] sweep per factor, which accumulates each
    /// point's squared norm as `eval` does, then one vectorized finish.
    pub(crate) fn design_rows(
        &self,
        x: &[f64],
        layout: &TrainLayout,
        be: mfbo_simd::Backend,
        k2: &mut [f64],
        k3: &mut [f64],
    ) {
        let design = layout.rows(0..self.inv_l2.len());
        mfbo_simd::sq_dist(be, x, design, &self.inv_l2, k2);
        mfbo_simd::sq_dist(be, x, design, &self.inv_l3, k3);
        let n = layout.len();
        se_finish(self.sf2_2, be, &mut k2[..n]);
        se_finish(self.sf2_3, be, &mut k3[..n]);
    }

    /// The design factors `k2(x, x)` and `k3(x, x)` of the prior variance
    /// (see [`zero_self_distance`]).
    pub(crate) fn design_prior(&self, x: &[f64]) -> (f64, f64) {
        (
            se_prior(self.sf2_2, x, &self.inv_l2),
            se_prior(self.sf2_3, x, &self.inv_l3),
        )
    }

    /// The kernel rows of the augmented inputs `(x, f_k)` for every sample
    /// `f_k` in `fs`, sample-major into `tile` (`fs.len()` rows of `n =
    /// fid.len()` entries), from the design factors `k2`, `k3` of `x` (see
    /// [`NargpScales::design_rows`]) and the fidelity column `fid` of the
    /// training inputs.
    ///
    /// All `S × n` arguments `−½·((f_k − f_j)·ℓ₁⁻¹)²` go through one
    /// [`mfbo_simd::exp_in_place`], then each entry is finished as
    /// [`NargpScales::combine`] finishes it, so every entry has the bits of
    /// `eval` at its pair.
    pub(crate) fn fidelity_tile(
        &self,
        fs: &[f64],
        fid: &[f64],
        k2: &[f64],
        k3: &[f64],
        be: mfbo_simd::Backend,
        tile: &mut [f64],
    ) {
        let n = fid.len();
        debug_assert_eq!(tile.len(), fs.len() * n);
        for (row, &f) in tile.chunks_exact_mut(n).zip(fs) {
            for (t, &fj) in row.iter_mut().zip(fid) {
                let zf = (f - fj) * self.inv_l1;
                *t = -0.5 * (zf * zf);
            }
        }
        mfbo_simd::exp_in_place(be, tile);
        for row in tile.chunks_exact_mut(n) {
            for ((t, &k2j), &k3j) in row.iter_mut().zip(k2).zip(k3) {
                *t = self.sf2_1 * *t * k2j + k3j;
            }
        }
    }
}

impl Kernel for NargpKernel {
    fn input_dim(&self) -> usize {
        self.design_dim + 1
    }

    fn num_params(&self) -> usize {
        self.k1.num_params() + self.k2.num_params() + self.k3.num_params()
    }

    fn eval(&self, p: &[f64], a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), self.input_dim());
        debug_assert_eq!(b.len(), self.input_dim());
        let d = self.design_dim;
        let (p1, p2, p3) = self.split(p);
        let fa = &a[d..];
        let fb = &b[d..];
        let xa = &a[..d];
        let xb = &b[..d];
        self.k1.eval(p1, fa, fb) * self.k2.eval(p2, xa, xb) + self.k3.eval(p3, xa, xb)
    }

    fn eval_grad(&self, p: &[f64], a: &[f64], b: &[f64], grad: &mut [f64]) -> f64 {
        let d = self.design_dim;
        let (p1, p2, p3) = self.split(p);
        let n1 = self.k1.num_params();
        let n2 = self.k2.num_params();
        let fa = &a[d..];
        let fb = &b[d..];
        let xa = &a[..d];
        let xb = &b[..d];

        let (g1, rest) = grad.split_at_mut(n1);
        let (g2, g3) = rest.split_at_mut(n2);
        let k1v = self.k1.eval_grad(p1, fa, fb, g1);
        let k2v = self.k2.eval_grad(p2, xa, xb, g2);
        let k3v = self.k3.eval_grad(p3, xa, xb, g3);
        // Product rule for the k1·k2 term; k3 is additive.
        for g in g1.iter_mut() {
            *g *= k2v;
        }
        for g in g2.iter_mut() {
            *g *= k1v;
        }
        k1v * k2v + k3v
    }

    fn eval_from_diffs(&self, p: &[f64], batch: &DiffBatch, out: &mut [f64]) {
        debug_assert_eq!(out.len(), batch.len());
        debug_assert_eq!(batch.dim(), self.input_dim());
        // All three components are SE: hoist every parameter transform,
        // then sweep each component across all pairs.
        let s = self.scales(p);
        let (be, rows) = batch.simd_rows();
        let count = batch.len();
        crate::scratch::with_scratch(2 * count, |buf| {
            let (k1, k3) = buf.split_at_mut(count);
            s.pair_components(be, rows, count, k1, out, k3);
            for ((o, &k1v), &k3v) in out.iter_mut().zip(&*k1).zip(&*k3) {
                *o = k1v * *o + k3v;
            }
        });
    }

    fn grad_from_diffs_with_values(
        &self,
        p: &[f64],
        batch: &DiffBatch,
        weights: &[f64],
        values: &[f64],
        acc: &mut [f64],
    ) {
        debug_assert_eq!(weights.len(), batch.len());
        debug_assert_eq!(values.len(), batch.len());
        debug_assert_eq!(acc.len(), self.num_params());
        debug_assert_eq!(batch.dim(), self.input_dim());
        // The product rule needs the component values k1, k2, k3, not the
        // combined `values`: they are recomputed with the sweeps of
        // `eval_from_diffs`, whose bits match `eval_grad`'s per pair.
        let s = self.scales(p);
        let (be, rows) = batch.simd_rows();
        let count = batch.len();
        let (design_rows, fid_row) = rows.split_at(self.design_dim * count);
        crate::scratch::with_scratch(3 * count, |buf| {
            let (k1, rest) = buf.split_at_mut(count);
            let (k2, k3) = rest.split_at_mut(count);
            s.pair_components(be, rows, count, k1, k2, k3);
            // The terms of `eval_grad`'s product rule, parenthesized as it
            // computes them: `[2k1·k2, (k1 z_f²)·k2]` for θ1, `[2k2·k1,
            // (k2 z_t²)·k1 …]` for θ2 and `[2k3, k3 z_t² …]` for θ3.
            let d = self.design_dim;
            sweep_pairs(acc, count, |j, pairs, out| {
                let w = &weights[pairs.clone()];
                let (k1, k2, k3) = (&k1[pairs.clone()], &k2[pairs.clone()], &k3[pairs.clone()]);
                let design = |t: usize| &design_rows[t * count..][pairs.clone()];
                match j {
                    0 => {
                        for (((o, &w), &a), &b) in out.iter_mut().zip(w).zip(k1).zip(k2) {
                            *o = w * ((2.0 * a) * b);
                        }
                    }
                    1 => {
                        mfbo_simd::sq_terms2(be, &fid_row[pairs.clone()], s.inv_l1, k1, k2, w, out)
                    }
                    2 => {
                        for (((o, &w), &a), &b) in out.iter_mut().zip(w).zip(k2).zip(k1) {
                            *o = w * ((2.0 * a) * b);
                        }
                    }
                    j if j < 3 + d => {
                        let t = j - 3;
                        mfbo_simd::sq_terms2(be, design(t), s.inv_l2[t], k2, k1, w, out);
                    }
                    j if j == 3 + d => {
                        for ((o, &w), &a) in out.iter_mut().zip(w).zip(k3) {
                            *o = w * (2.0 * a);
                        }
                    }
                    j => {
                        let t = j - 4 - d;
                        mfbo_simd::sq_terms(be, design(t), s.inv_l3[t], k3, w, out);
                    }
                }
            });
        });
    }

    type Scales = NargpScales;

    fn scales(&self, p: &[f64]) -> NargpScales {
        let d = self.design_dim;
        let (p1, p2, p3) = self.split(p);
        NargpScales {
            sf2_1: exp(2.0 * p1[0]),
            inv_l1: exp(-p1[1]),
            sf2_2: exp(2.0 * p2[0]),
            inv_l2: p2[1..1 + d].iter().map(|&l| exp(-l)).collect(),
            sf2_3: exp(2.0 * p3[0]),
            inv_l3: p3[1..1 + d].iter().map(|&l| exp(-l)).collect(),
        }
    }

    fn eval_row(
        &self,
        s: &NargpScales,
        x: &[f64],
        layout: &TrainLayout,
        be: mfbo_simd::Backend,
        out: &mut [f64],
    ) {
        debug_assert_eq!(x.len(), self.input_dim());
        let d = self.design_dim;
        let n = layout.len();
        let stride = layout.stride();
        crate::scratch::with_scratch(2 * stride, |buf| {
            let (k2, k3) = buf.split_at_mut(stride);
            s.design_rows(&x[..d], layout, be, k2, k3);
            let fid = &layout.rows(d..d + 1)[..n];
            s.fidelity_tile(&x[d..], fid, &k2[..n], &k3[..n], be, &mut out[..n]);
        });
    }

    fn prior_var(&self, s: &NargpScales, x: &[f64]) -> f64 {
        let d = self.design_dim;
        let (k2, k3) = s.design_prior(&x[..d]);
        // Deliberately `f − f`, as `eval(x, x)` computes it: NaN, not 0,
        // for a non-finite fidelity value.
        #[allow(clippy::eq_op)]
        s.combine(x[d] - x[d], k2, k3)
    }

    fn default_params(&self) -> Vec<f64> {
        let mut p = self.k1.default_params();
        p.extend(self.k2.default_params());
        // Start the discrepancy term small: the prior belief is that the
        // low-fidelity map explains most of the high-fidelity signal.
        let mut p3 = self.k3.default_params();
        p3[0] = -2.0;
        p.extend(p3);
        p
    }

    fn param_bounds(&self) -> (Vec<f64>, Vec<f64>) {
        let (l1, u1) = self.k1.param_bounds();
        let (l2, u2) = self.k2.param_bounds();
        let (l3, u3) = self.k3.param_bounds();
        let mut lo = l1;
        lo.extend(l2);
        lo.extend(l3);
        let mut hi = u1;
        hi.extend(u2);
        hi.extend(u3);
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference check of `eval_grad` against `eval`.
    fn check_grad<K: Kernel>(k: &K, p: &[f64], a: &[f64], b: &[f64]) {
        let mut grad = vec![0.0; k.num_params()];
        let v = k.eval_grad(p, a, b, &mut grad);
        assert!((v - k.eval(p, a, b)).abs() < 1e-14);
        let h = 1e-6;
        for j in 0..k.num_params() {
            let mut pp = p.to_vec();
            pp[j] += h;
            let fp = k.eval(&pp, a, b);
            pp[j] -= 2.0 * h;
            let fm = k.eval(&pp, a, b);
            let num = (fp - fm) / (2.0 * h);
            assert!(
                (num - grad[j]).abs() < 1e-5 * (1.0 + num.abs()),
                "param {j}: numeric {num} vs analytic {}",
                grad[j]
            );
        }
    }

    #[test]
    fn se_value_at_zero_distance_is_sf2() {
        let k = SquaredExponential::new(3);
        let p = vec![0.5, 0.0, 0.0, 0.0];
        let x = [0.1, 0.2, 0.3];
        assert!((k.eval(&p, &x, &x) - (1.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn se_symmetry() {
        let k = SquaredExponential::new(2);
        let p = k.default_params();
        let a = [0.1, 0.9];
        let b = [0.7, 0.2];
        assert!((k.eval(&p, &a, &b) - k.eval(&p, &b, &a)).abs() < 1e-15);
    }

    #[test]
    fn se_gradient_matches_finite_differences() {
        let k = SquaredExponential::new(2);
        check_grad(&k, &[0.3, -0.5, 0.2], &[0.1, 0.9], &[0.4, 0.3]);
        check_grad(&k, &[-1.0, 1.0, -2.0], &[0.0, 0.0], &[0.0, 0.0]);
    }

    #[test]
    fn se_ard_lengthscales_act_per_dimension() {
        let k = SquaredExponential::new(2);
        // Long lengthscale on dim 0, short on dim 1.
        let p = vec![0.0, 2.0, -2.0];
        let base = [0.0, 0.0];
        let move0 = k.eval(&p, &base, &[0.5, 0.0]);
        let move1 = k.eval(&p, &base, &[0.0, 0.5]);
        assert!(move0 > move1, "short lengthscale should decay faster");
    }

    #[test]
    fn nargp_layout_and_value() {
        let k = NargpKernel::new(2);
        assert_eq!(k.input_dim(), 3);
        assert_eq!(k.num_params(), 2 + 3 + 3);
        let p = k.default_params();
        assert_eq!(p.len(), k.num_params());
        let a = [0.1, 0.2, 0.5]; // (x1, x2, f_l)
        let b = [0.3, 0.1, 0.4];
        let v = k.eval(&p, &a, &b);
        assert!(v.is_finite() && v > 0.0);
        // Symmetry.
        assert!((v - k.eval(&p, &b, &a)).abs() < 1e-15);
    }

    #[test]
    fn nargp_gradient_matches_finite_differences() {
        let k = NargpKernel::new(2);
        let p: Vec<f64> = vec![0.1, -0.2, 0.3, 0.0, -0.4, -1.0, 0.5, -0.3];
        check_grad(&k, &p, &[0.1, 0.9, 0.3], &[0.5, 0.2, -0.1]);
    }

    #[test]
    fn nargp_reduces_to_discrepancy_when_k1_vanishes() {
        let k = NargpKernel::new(1);
        // σ_f of k1 pushed to e^-30 ≈ 0: only k3 remains.
        let p = vec![-30.0, 0.0, 0.0, 0.0, 0.2, -0.1];
        let a = [0.3, 5.0];
        let b = [0.7, -5.0];
        let direct = k.eval(&p, &a, &b);
        let k3 = SquaredExponential::new(1);
        let expect = k3.eval(&[0.2, -0.1], &[0.3], &[0.7]);
        assert!((direct - expect).abs() < 1e-12);
    }

    /// `a` and `b` are the same bits, or both NaN (whose payload the
    /// posterior never reads: a NaN prior variance clamps to 0).
    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Every constructible backend: a foreign one degrades to scalar.
    const BACKENDS: [mfbo_simd::Backend; 3] = [
        mfbo_simd::Backend::Scalar,
        mfbo_simd::Backend::Avx2,
        mfbo_simd::Backend::Neon,
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Differential oracle of the prediction path: under every backend,
        /// the fused kernel rows from the fit-time layout — SE rows, NARGP's
        /// design factors `k2`/`k3` and its fidelity-channel finish — and
        /// the analytic prior variances reproduce the per-pair
        /// [`Kernel::eval`] bit for bit, at point counts that do and do not
        /// fill whole SIMD lanes, on finite queries and on queries holding
        /// NaN and ±∞ coordinates.
        #[test]
        fn bit_identity_fused_rows_match_per_pair_eval(
            train in proptest::collection::vec(-1.0f64..1.0, 9 * 7),
            query in proptest::collection::vec(-1.0f64..1.0, 7),
            special in proptest::collection::vec(0usize..16, 7),
            n in 1usize..10,
            d in 1usize..7,
            log_l in -2.0f64..1.0,
            log_sf in -1.0f64..1.0,
        ) {
            const SPECIAL: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
            let xs: Vec<Vec<f64>> = train.chunks_exact(7).take(n).map(|c| c[..=d].to_vec()).collect();
            let finite = query[..=d].to_vec();
            let odd: Vec<f64> = finite
                .iter()
                .zip(&special)
                .map(|(&v, &k)| SPECIAL.get(k).copied().unwrap_or(v))
                .collect();
            let layout = TrainLayout::new(&xs);
            let stride = layout.stride();

            let se = SquaredExponential::new(d + 1);
            let mut p_se = vec![log_sf];
            p_se.extend((0..=d).map(|t| log_l + 0.1 * t as f64));
            let s_se = se.scales(&p_se);

            let nargp = NargpKernel::new(d);
            let mut p = nargp.default_params();
            p[0] = log_sf;
            p[1] = log_l;
            for v in &mut p[3..3 + d] {
                *v = log_l;
            }
            let s = nargp.scales(&p);
            let (_, p2, p3) = nargp.split(&p);

            for z in [&finite, &odd] {
                proptest::prop_assert!(same(se.prior_var(&s_se, z), se.eval(&p_se, z, z)));
                proptest::prop_assert!(same(nargp.prior_var(&s, z), nargp.eval(&p, z, z)));
                for be in BACKENDS {
                    let mut row = vec![0.0; stride];
                    se.eval_row(&s_se, z, &layout, be, &mut row);
                    for (j, x) in xs.iter().enumerate() {
                        proptest::prop_assert!(same(row[j], se.eval(&p_se, z, x)), "SE point {}", j);
                    }

                    let (mut k2, mut k3) = (vec![0.0; stride], vec![0.0; stride]);
                    s.design_rows(&z[..d], &layout, be, &mut k2, &mut k3);
                    for (j, x) in xs.iter().enumerate() {
                        proptest::prop_assert!(same(k2[j], nargp.k2.eval(p2, &z[..d], &x[..d])));
                        proptest::prop_assert!(same(k3[j], nargp.k3.eval(p3, &z[..d], &x[..d])));
                    }
                    nargp.eval_row(&s, z, &layout, be, &mut row);
                    for (j, x) in xs.iter().enumerate() {
                        let want = nargp.eval(&p, z, x);
                        proptest::prop_assert!(same(row[j], want), "NARGP point {}", j);
                    }
                }
            }
        }

        /// Pairs whose `k2` is zero must still get the per-pair `eval`'s
        /// `k1·k2 + k3` from `eval_from_diffs`, which computes every `k1`
        /// without skipping any, under every backend: a tiny `k2`
        /// lengthscale zeroes `k2` between distinct design points, and NaN
        /// and ±inf fidelity values make `k1` NaN or zero.
        #[test]
        fn zero_k2_pairs_match_per_pair_eval(
            design in proptest::collection::vec(-1.0f64..1.0, 12),
            fids in proptest::collection::vec(0usize..6, 6),
            log_l2 in -9.0f64..-6.0,
            log_sf1 in -2.0f64..2.0,
        ) {
            const FIDS: [f64; 6] = [0.3, -0.7, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300];
            let k = NargpKernel::new(2);
            let mut p = k.default_params();
            p[0] = log_sf1;
            p[3] = log_l2;
            p[4] = log_l2;
            let xs: Vec<Vec<f64>> = design
                .chunks_exact(2)
                .zip(&fids)
                .map(|(x, &f)| vec![x[0], x[1], FIDS[f]])
                .collect();
            let pairs: Vec<(&[f64], &[f64])> = xs
                .iter()
                .enumerate()
                .flat_map(|(i, a)| xs[..=i].iter().map(move |b| (&a[..], &b[..])))
                .collect();
            for be in BACKENDS {
                let batch = crate::workspace::DiffBatch::lower_triangle_with_backend(&xs, be);
                let mut fast = vec![0.0; batch.len()];
                k.eval_from_diffs(&p, &batch, &mut fast);
                for (&v, &(a, b)) in fast.iter().zip(&pairs) {
                    let full = k.eval(&p, a, b);
                    proptest::prop_assert!(
                        v.to_bits() == full.to_bits() || (v.is_nan() && full.is_nan()),
                        "{v} vs per-pair {full}"
                    );
                }
            }
        }
    }

    /// Batch hooks under `be` must reproduce the per-pair paths bit for
    /// bit: values via `eval`, gradients via the weighted `eval_grad`
    /// accumulation.
    fn check_batch_bit_identity<K: Kernel>(
        k: &K,
        p: &[f64],
        xs: &[Vec<f64>],
        be: mfbo_simd::Backend,
    ) {
        let batch = crate::workspace::DiffBatch::lower_triangle_with_backend(xs, be);
        // The batch's `(0,0), (1,0), (1,1), (2,0), …` pair order.
        let pairs: Vec<(&[f64], &[f64])> = xs
            .iter()
            .enumerate()
            .flat_map(|(i, a)| xs[..=i].iter().map(move |b| (&a[..], &b[..])))
            .collect();
        assert_eq!(pairs.len(), batch.len());
        let mut fast = vec![0.0; batch.len()];
        k.eval_from_diffs(p, &batch, &mut fast);
        for (q, (&v, &(a, b))) in fast.iter().zip(&pairs).enumerate() {
            assert_eq!(v.to_bits(), k.eval(p, a, b).to_bits(), "pair {q}");
        }
        let weights: Vec<f64> = (0..batch.len())
            .map(|q| (q as f64 * 0.37).sin() - 0.3)
            .collect();
        let mut acc_ref = vec![0.0; k.num_params()];
        let mut kg = vec![0.0; k.num_params()];
        for (&w, &(a, b)) in weights.iter().zip(&pairs) {
            k.eval_grad(p, a, b, &mut kg);
            for (g, &dk) in acc_ref.iter_mut().zip(kg.iter()) {
                *g += w * dk;
            }
        }
        // The gradient hook, fed the eval-pass output as the cached NLML
        // feeds it.
        let mut acc_fast = vec![0.0; k.num_params()];
        k.grad_from_diffs_with_values(p, &batch, &weights, &fast, &mut acc_fast);
        for (j, (f, r)) in acc_fast.iter().zip(&acc_ref).enumerate() {
            assert_eq!(f.to_bits(), r.to_bits(), "grad param {j}");
        }
    }

    #[test]
    fn batch_hooks_bit_identical_to_per_pair_paths() {
        let xs: Vec<Vec<f64>> = (0..7)
            .map(|i| {
                (0..3)
                    .map(|t| ((i * 5 + t * 3) % 11) as f64 / 11.0)
                    .collect()
            })
            .collect();
        // 23 points in 10 dimensions: 276 pairs (more than one pair block)
        // and 11 or 22 parameters (more than one group of reduction chains).
        let wide: Vec<Vec<f64>> = (0..23)
            .map(|i| {
                (0..10)
                    .map(|t| ((i * 7 + t * 5) % 13) as f64 / 13.0)
                    .collect()
            })
            .collect();
        let p_se: Vec<f64> = (0..11).map(|j| 0.2 * (j as f64).cos() - 0.3).collect();
        let p_nargp: Vec<f64> = (0..22).map(|j| 0.3 * (j as f64).sin() - 0.2).collect();
        for be in BACKENDS {
            check_batch_bit_identity(&SquaredExponential::new(3), &[0.3, -0.5, 0.2, 0.9], &xs, be);
            check_batch_bit_identity(
                &NargpKernel::new(2),
                &[0.1, -0.2, 0.3, 0.0, -0.4, -1.0, 0.5, -0.3],
                &xs,
                be,
            );
            check_batch_bit_identity(&SquaredExponential::new(10), &p_se, &wide, be);
            check_batch_bit_identity(&NargpKernel::new(9), &p_nargp, &wide, be);
        }
    }

    #[test]
    fn bounds_contain_defaults() {
        for dim in [1usize, 3, 10] {
            let k = SquaredExponential::new(dim);
            let p = k.default_params();
            let (lo, hi) = k.param_bounds();
            for j in 0..p.len() {
                assert!(lo[j] <= p[j] && p[j] <= hi[j]);
            }
            let n = NargpKernel::new(dim);
            let p = n.default_params();
            let (lo, hi) = n.param_bounds();
            for j in 0..p.len() {
                assert!(lo[j] <= p[j] && p[j] <= hi[j]);
            }
        }
    }
}
