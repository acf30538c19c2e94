//! The nonlinear information-fusion surrogate (paper §3.1–3.2).
//!
//! Two stacked GPs:
//!
//! 1. a **low-fidelity GP** `f_l ~ GP(0, k_SE)` trained on the coarse data
//!    `D_l = (X_l, y_l)`;
//! 2. a **high-fidelity GP** over *augmented* inputs `(x, μ_l(x))` with the
//!    composite kernel of paper eq. (9), trained on `D_h = (X_h, y_h)` —
//!    this realizes `f_h(x) = z(f_l(x)) + δ(x)` (eq. 8) with `z` and `δ`
//!    both Gaussian processes.
//!
//! Because the low-fidelity value at a query point is itself uncertain, the
//! high-fidelity posterior (eq. 10) is non-Gaussian. Following the paper we
//! approximate it by Monte-Carlo integration: draw samples of
//! `f_l(x*) ~ N(μ_l, σ_l²)`, push each through the high GP, and moment-match
//! the resulting mixture. We use *stratified* (quantile) sampling rather
//! than i.i.d. draws so the predictor is deterministic and smooth — which
//! the downstream acquisition optimizer needs; the approximation converges
//! to the same integral.

use mfbo_gp::kernel::{NargpKernel, SquaredExponential};
use mfbo_gp::{with_scratch, DiffBatch, Gp, GpConfig, GpError, Prediction};
use mfbo_linalg::norm_inv_cdf;
use rand::Rng;

/// Augments each `x` with the low GP's standardized posterior mean — the
/// NARGP input map `x ↦ (x, μ_l(x))`. One batched prediction replaces the
/// per-point posterior loop; the values are bit-identical.
fn augment_inputs(low: &Gp<SquaredExponential>, xh: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let lows = low.predict_batch_standardized(xh);
    xh.iter()
        .zip(&lows)
        .map(|(x, &(m, _))| {
            let mut z = x.clone();
            z.push(m);
            z
        })
        .collect()
}

/// Configuration for [`MfGp::fit`].
#[derive(Debug, Clone)]
pub struct MfGpConfig {
    /// Number of stratified Monte-Carlo samples used to propagate
    /// low-fidelity uncertainty through the high GP (paper eq. 10).
    pub mc_samples: usize,
    /// Training configuration of both fusion stages (paper Algorithm 1
    /// trains them alike).
    pub gp: GpConfig,
}

impl Default for MfGpConfig {
    fn default() -> Self {
        MfGpConfig {
            mc_samples: 20,
            gp: GpConfig::default(),
        }
    }
}

impl MfGpConfig {
    /// Cheaper settings for inner-loop refits.
    pub fn fast() -> Self {
        MfGpConfig {
            mc_samples: 12,
            gp: GpConfig::fast(),
        }
    }
}

/// The two-fidelity fusion model.
///
/// # Examples
///
/// ```
/// use mfbo::{MfGp, MfGpConfig};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), mfbo_gp::GpError> {
/// // Pedagogical pair from Perdikaris et al. 2017 (paper Figures 1–2).
/// let fl = |x: f64| (8.0 * std::f64::consts::PI * x).sin();
/// let fh = |x: f64| (x - 2f64.sqrt()) * fl(x) * fl(x);
/// let xl: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 39.0]).collect();
/// let yl: Vec<f64> = xl.iter().map(|x| fl(x[0])).collect();
/// let xh: Vec<Vec<f64>> = (0..14).map(|i| vec![i as f64 / 13.0]).collect();
/// let yh: Vec<f64> = xh.iter().map(|x| fh(x[0])).collect();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let model = MfGp::fit(xl, yl, xh, yh, &MfGpConfig::default(), &mut rng)?;
/// let p = model.predict(&[0.55]);
/// assert!((p.mean - fh(0.55)).abs() < 0.2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MfGp {
    low: Gp<SquaredExponential>,
    high: Gp<NargpKernel>,
    /// The stratified quantiles `Φ⁻¹((k+½)/S)`, `k = 0..S`: the same for
    /// every query, so computed once per model.
    quantiles: Vec<f64>,
}

/// The `S` stratified quantiles `Φ⁻¹((k+½)/S)` of the Monte-Carlo
/// propagation (at least one).
fn stratified_quantiles(samples: usize) -> Vec<f64> {
    let s = samples.max(1);
    (0..s)
        .map(|k| norm_inv_cdf((k as f64 + 0.5) / s as f64))
        .collect()
}

impl MfGp {
    /// Trains the fusion model on coarse data `(xl, yl)` and fine data
    /// `(xh, yh)`.
    ///
    /// The fidelities need not share input locations: the low GP's posterior
    /// mean provides the augmented coordinate at every `xh` (this is the
    /// "integrate `f_l` out" route of paper eq. 10).
    ///
    /// # Errors
    ///
    /// Propagates [`GpError`] from either stage.
    pub fn fit<R: Rng + ?Sized>(
        xl: Vec<Vec<f64>>,
        yl: Vec<f64>,
        xh: Vec<Vec<f64>>,
        yh: Vec<f64>,
        config: &MfGpConfig,
        rng: &mut R,
    ) -> Result<Self, GpError> {
        if xh.is_empty() {
            return Err(GpError::InvalidTrainingSet {
                reason: "no high-fidelity training points".into(),
            });
        }
        let plan = MfGp::plan(xh[0].len(), config, None, rng);
        MfGp::fit_planned(xl, yl, xh, yh, config, plan, None)
    }

    /// Draws the NLML starting points of both fusion stages, low-GP starts
    /// first, then high-GP starts — the order [`MfGp::fit`] consumes the RNG
    /// in. `warm` (the previous optimum of each stage, see [`MfGp::thetas`])
    /// adds one extra start per stage without consuming randomness.
    ///
    /// Pre-drawing the plans for a whole bundle of models lets the (pure)
    /// fits run in parallel with bit-identical results in every
    /// [`mfbo_pool::Parallelism`] mode — see [`MfGp::fit_planned`].
    pub fn plan<R: Rng + ?Sized>(
        dim: usize,
        config: &MfGpConfig,
        warm: Option<&MfGpThetas>,
        rng: &mut R,
    ) -> MfGpPlan {
        MfGpPlan {
            low: Gp::plan_starts(
                &SquaredExponential::new(dim),
                &config.gp,
                warm.map(|w| w.low.as_slice()),
                rng,
            ),
            high: Gp::plan_starts(
                &NargpKernel::new(dim),
                &config.gp,
                warm.map(|w| w.high.as_slice()),
                rng,
            ),
        }
    }

    /// Trains the fusion model from pre-drawn starting points (see
    /// [`MfGp::plan`]). Consumes no randomness.
    ///
    /// `low_shared` is an optional pre-built lower-triangle difference batch
    /// over `xl` — the bundle fitters' sharing hook (see
    /// [`Gp::fit_planned`]). Sharing applies to the **low stage only**:
    /// every model of a constrained bundle trains its low GP on the same
    /// `X_l`, whereas each model's high stage sees different augmented
    /// inputs (the last coordinate is that model's own low posterior mean).
    /// The result is bit-identical with or without it.
    ///
    /// # Errors
    ///
    /// Same contract as [`MfGp::fit`].
    pub fn fit_planned(
        xl: Vec<Vec<f64>>,
        yl: Vec<f64>,
        xh: Vec<Vec<f64>>,
        yh: Vec<f64>,
        config: &MfGpConfig,
        plan: MfGpPlan,
        low_shared: Option<&DiffBatch>,
    ) -> Result<Self, GpError> {
        if xh.is_empty() {
            return Err(GpError::InvalidTrainingSet {
                reason: "no high-fidelity training points".into(),
            });
        }
        let dim = xh[0].len();
        let low = Gp::fit_planned(
            SquaredExponential::new(dim),
            xl,
            yl,
            &config.gp,
            plan.low,
            low_shared,
        )?;

        // Augment the high-fidelity inputs with the low GP's standardized
        // posterior mean (one batched posterior call).
        let aug = augment_inputs(&low, &xh);
        let high = Gp::fit_planned(NargpKernel::new(dim), aug, yh, &config.gp, plan.high, None)?;

        Ok(MfGp {
            low,
            high,
            quantiles: stratified_quantiles(config.mc_samples),
        })
    }

    /// The winning NLML start index of each stage's most recent trained fit
    /// (see [`Gp::best_start`]); `(low, high)`.
    pub fn best_starts(&self) -> (Option<usize>, Option<usize>) {
        (self.low.best_start(), self.high.best_start())
    }

    /// Posterior of the **low-fidelity** function at `x` (raw low-fidelity
    /// units).
    pub fn predict_low(&self, x: &[f64]) -> Prediction {
        self.low.predict(x)
    }

    /// Posterior latent variance of the low-fidelity model in standardized
    /// space — the quantity thresholded by the fidelity-selection criterion
    /// (paper eq. 11).
    pub fn low_variance_standardized(&self, x: &[f64]) -> f64 {
        self.low.predict_standardized(x).1
    }

    /// Posterior of the **high-fidelity** function at `x` (raw units),
    /// with low-fidelity uncertainty propagated by stratified Monte-Carlo
    /// over eq. (10).
    pub fn predict(&self, x: &[f64]) -> Prediction {
        // The low stage runs as a one-point batch, so it counts towards
        // `predict_batch_points` like the acquisition's batches.
        let (ml, vl) = self.low.predict_batch_standardized(&[x.to_vec()])[0];
        let (m, v) = self.propagate(x, ml, vl);
        self.destandardize(m, v)
    }

    /// The fidelity samples of one query with low-fidelity posterior
    /// `(ml, vl)`, written into `buf` (`S` entries): `None` for the single
    /// plug-in sample `ml`, taken when the low posterior is effectively
    /// deterministic or `S = 1`; otherwise the `S` stratified samples
    /// `f_k = μ + σ·quantiles[k]`.
    fn samples<'b>(&self, ml: f64, vl: f64, buf: &'b mut [f64]) -> Option<&'b [f64]> {
        let sl = vl.max(0.0).sqrt();
        if self.quantiles.len() == 1 || sl < 1e-12 {
            return None;
        }
        for (f, &q) in buf.iter_mut().zip(&self.quantiles) {
            *f = ml + sl * q;
        }
        Some(buf)
    }

    /// One query's propagated posterior from its low-fidelity posterior
    /// `(ml, vl)`: the plug-in posterior, or the stratified samples (see
    /// [`MfGp::samples`]) moment-matched by the law of total variance
    /// (`E[σ²] + Var[μ]`).
    fn propagate(&self, x: &[f64], ml: f64, vl: f64) -> (f64, f64) {
        let samples = with_scratch(self.quantiles.len(), |buf| {
            self.samples(ml, vl, buf)
                .map(|fs| self.high.predict_propagated_standardized(x, fs))
        });
        let Some(samples) = samples else {
            return self.high.predict_propagated_standardized(x, &[ml])[0];
        };
        let c = samples.len() as f64;
        let mut mean_sum = 0.0;
        let mut var_sum = 0.0;
        for &(m, v) in &samples {
            mean_sum += m;
            var_sum += v;
        }
        let mean = mean_sum / c;
        let var_of_means = samples
            .iter()
            .map(|&(m, _)| (m - mean) * (m - mean))
            .sum::<f64>()
            / c;
        (mean, var_sum / c + var_of_means)
    }

    /// The propagated raw-unit posterior means at the queries `points`, into
    /// `out`: bit-identical to the `mean` of [`MfGp::predict`], with no
    /// allocation. The low stage runs the full posterior (the samples need
    /// `σ_l`); the high stage computes only the sample means
    /// ([`Gp::predict_propagated_means`]), summed in sample order and
    /// divided by `S` as [`MfGp::predict`] does. `predict_batch_points`
    /// counts as for [`MfGp::predict`]: `m` for the low stage, `S` per query
    /// for the propagation, the propagation's in one record per call (a
    /// record per query would flood a debug-level trace). Runs serially:
    /// its caller, the acquisition search, is already distributed over
    /// starts.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != points.len()` or a query dimension differs
    /// from the model's.
    pub fn predict_means(&self, points: &[Vec<f64>], out: &mut [f64]) {
        assert_eq!(out.len(), points.len(), "one mean per query");
        let (m, s) = (points.len(), self.quantiles.len());
        with_scratch(2 * (m + s), |buf| {
            let (ml, rest) = buf.split_at_mut(m);
            let (vl, rest) = rest.split_at_mut(m);
            let (fs, means) = rest.split_at_mut(s);
            self.low.predict_batch_standardized_into(points, ml, vl);
            let st = self.high.standardizer();
            let mut propagated = 0;
            for (q, (o, x)) in out.iter_mut().zip(points).enumerate() {
                let mean = match self.samples(ml[q], vl[q], fs) {
                    None => {
                        propagated += 1;
                        self.high
                            .predict_propagated_means(x, &ml[q..=q], &mut means[..1]);
                        means[0]
                    }
                    Some(fs) => {
                        propagated += fs.len() as u64;
                        self.high.predict_propagated_means(x, fs, means);
                        let mut sum = 0.0;
                        for &m in &*means {
                            sum += m;
                        }
                        sum / means.len() as f64
                    }
                };
                *o = st.inverse(mean);
            }
            if propagated > 0 {
                mfbo_telemetry::counter!("predict_batch_points", propagated);
            }
        });
    }

    fn destandardize(&self, mean_std: f64, var_std: f64) -> Prediction {
        let st = self.high.standardizer();
        Prediction {
            mean: st.inverse(mean_std),
            var: st.inverse_std(var_std.max(0.0).sqrt()).powi(2),
        }
    }

    /// The underlying low-fidelity GP.
    pub fn low(&self) -> &Gp<SquaredExponential> {
        &self.low
    }

    /// The underlying high-fidelity fusion GP (inputs are augmented).
    pub fn high(&self) -> &Gp<NargpKernel> {
        &self.high
    }

    /// Number of Monte-Carlo propagation samples.
    pub fn mc_samples(&self) -> usize {
        self.quantiles.len()
    }

    /// The trained hyperparameters of both stages — feed back as the `warm`
    /// start of [`MfGp::plan`] or the frozen θ of [`MfGp::fit_frozen`] on
    /// later refits.
    pub fn thetas(&self) -> MfGpThetas {
        MfGpThetas {
            low: self.low.theta(),
            high: self.high.theta(),
        }
    }

    /// Rebuilds the model on new data with **frozen** hyperparameters — no
    /// NLML optimization at all, just fresh Cholesky factorizations. The BO
    /// loops use this between full refits to keep per-iteration cost low.
    ///
    /// Every setting comes from `config`, as for a full fit: the
    /// [`GpConfig::inference`] of both stages and `mc_samples`. Each stage
    /// builds its kernel matrix from its own fit-time layout
    /// ([`Gp::with_params`]), so a frozen refresh builds no difference
    /// batch.
    ///
    /// # Errors
    ///
    /// Propagates [`GpError`] if the data is invalid or a kernel matrix
    /// cannot be factorized.
    pub fn fit_frozen(
        xl: Vec<Vec<f64>>,
        yl: Vec<f64>,
        xh: Vec<Vec<f64>>,
        yh: Vec<f64>,
        config: &MfGpConfig,
        thetas: &MfGpThetas,
    ) -> Result<Self, GpError> {
        if xh.is_empty() {
            return Err(GpError::InvalidTrainingSet {
                reason: "no high-fidelity training points".into(),
            });
        }
        let dim = xh[0].len();
        let (lp, ln) = split_theta(&thetas.low);
        let low = Gp::with_params(SquaredExponential::new(dim), xl, yl, lp, ln, &config.gp)?;
        let aug = augment_inputs(&low, &xh);
        let (hp, hn) = split_theta(&thetas.high);
        let high = Gp::with_params(NargpKernel::new(dim), aug, yh, hp, hn, &config.gp)?;
        Ok(MfGp {
            low,
            high,
            quantiles: stratified_quantiles(config.mc_samples),
        })
    }
}

/// Splits a packed `[kernel params…, log σ_n]` vector.
pub(crate) fn split_theta(theta: &[f64]) -> (Vec<f64>, f64) {
    let (kp, ln) = theta.split_at(theta.len() - 1);
    (kp.to_vec(), ln[0])
}

/// Pre-drawn NLML starting points for both fusion stages — the output of
/// [`MfGp::plan`], consumed by [`MfGp::fit_planned`].
#[derive(Debug, Clone)]
pub struct MfGpPlan {
    low: Vec<Vec<f64>>,
    high: Vec<Vec<f64>>,
}

/// Trained hyperparameters of both fusion stages.
#[derive(Debug, Clone, PartialEq)]
pub struct MfGpThetas {
    /// Low-fidelity GP hyperparameters `[kernel…, log σ_n]`.
    pub low: Vec<f64>,
    /// High-fidelity fusion GP hyperparameters `[kernel…, log σ_n]`.
    pub high: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfbo_gp::kernel::Kernel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const PI: f64 = std::f64::consts::PI;

    fn fl(x: f64) -> f64 {
        (8.0 * PI * x).sin()
    }

    fn fh(x: f64) -> f64 {
        (x - 2f64.sqrt()) * fl(x) * fl(x)
    }

    fn pedagogical_model(nl: usize, nh: usize, seed: u64) -> MfGp {
        let xl: Vec<Vec<f64>> = (0..nl).map(|i| vec![i as f64 / (nl - 1) as f64]).collect();
        let yl: Vec<f64> = xl.iter().map(|x| fl(x[0])).collect();
        let xh: Vec<Vec<f64>> = (0..nh).map(|i| vec![i as f64 / (nh - 1) as f64]).collect();
        let yh: Vec<f64> = xh.iter().map(|x| fh(x[0])).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        MfGp::fit(xl, yl, xh, yh, &MfGpConfig::default(), &mut rng).unwrap()
    }

    #[test]
    #[ignore = "slow (~5 s in debug): full Figure-1 comparison; run with --ignored"]
    fn beats_single_fidelity_on_pedagogical_example() {
        // Paper Figure 1: with 50 low + 14 high points the fusion model
        // tracks the truth far better than a high-only GP.
        let model = pedagogical_model(50, 14, 1);

        let nh = 14;
        let xh: Vec<Vec<f64>> = (0..nh).map(|i| vec![i as f64 / (nh - 1) as f64]).collect();
        let yh: Vec<f64> = xh.iter().map(|x| fh(x[0])).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let sf = Gp::fit(
            SquaredExponential::new(1),
            xh,
            yh,
            &GpConfig::default(),
            &mut rng,
        )
        .unwrap();

        let grid: Vec<f64> = (0..200).map(|i| i as f64 / 199.0).collect();
        let rmse = |pred: &dyn Fn(f64) -> f64| {
            (grid.iter().map(|&x| (pred(x) - fh(x)).powi(2)).sum::<f64>() / grid.len() as f64)
                .sqrt()
        };
        let mf_rmse = rmse(&|x| model.predict(&[x]).mean);
        let sf_rmse = rmse(&|x| sf.predict(&[x]).mean);
        assert!(
            mf_rmse < 0.5 * sf_rmse,
            "mf_rmse = {mf_rmse}, sf_rmse = {sf_rmse}"
        );
        assert!(mf_rmse < 0.1, "mf_rmse = {mf_rmse}");
    }

    #[test]
    fn beats_single_fidelity_on_pedagogical_example_smoke() {
        // Fast default-suite variant of the Figure-1 test: fewer points,
        // a coarser grid, and a looser (but still decisive) margin.
        let model = pedagogical_model(40, 12, 1);

        let nh = 12;
        let xh: Vec<Vec<f64>> = (0..nh).map(|i| vec![i as f64 / (nh - 1) as f64]).collect();
        let yh: Vec<f64> = xh.iter().map(|x| fh(x[0])).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let sf = Gp::fit(
            SquaredExponential::new(1),
            xh,
            yh,
            &GpConfig::default(),
            &mut rng,
        )
        .unwrap();

        let grid: Vec<f64> = (0..100).map(|i| i as f64 / 99.0).collect();
        let rmse = |pred: &dyn Fn(f64) -> f64| {
            (grid.iter().map(|&x| (pred(x) - fh(x)).powi(2)).sum::<f64>() / grid.len() as f64)
                .sqrt()
        };
        let mf_rmse = rmse(&|x| model.predict(&[x]).mean);
        let sf_rmse = rmse(&|x| sf.predict(&[x]).mean);
        assert!(
            mf_rmse < sf_rmse,
            "mf_rmse = {mf_rmse}, sf_rmse = {sf_rmse}"
        );
    }

    #[test]
    fn low_model_is_accurate() {
        let model = pedagogical_model(50, 14, 2);
        for &x in &[0.1, 0.35, 0.62, 0.9] {
            let p = model.predict_low(&[x]);
            assert!((p.mean - fl(x)).abs() < 0.05, "at {x}: {}", p.mean);
        }
    }

    #[test]
    fn uncertainty_propagation_increases_variance() {
        let model = pedagogical_model(20, 8, 3);
        // At a point far outside the low-fidelity data, σ_l is large; the
        // propagated high-fidelity variance must exceed the plug-in variance.
        let x = [0.137];
        let (ml, vl) = model.low().predict_standardized(&x);
        assert!(vl >= 0.0);
        let mut z = x.to_vec();
        z.push(ml);
        let (_, v_plug) = model.high().predict_standardized(&z);
        let p = model.predict(&x);
        let st = model.high().standardizer();
        let v_prop_std = (p.var.sqrt() / st.std()).powi(2);
        assert!(v_prop_std >= v_plug - 1e-9);
    }

    #[test]
    fn fit_requires_high_fidelity_data() {
        let mut rng = StdRng::seed_from_u64(0);
        let e = MfGp::fit(
            vec![vec![0.0]],
            vec![1.0],
            vec![],
            vec![],
            &MfGpConfig::default(),
            &mut rng,
        );
        assert!(e.is_err());
    }

    #[test]
    fn augmented_inputs_have_extra_dimension() {
        let model = pedagogical_model(20, 6, 5);
        assert_eq!(model.high().kernel().input_dim(), 2);
        for z in model.high().xs() {
            assert_eq!(z.len(), 2);
        }
        assert_eq!(model.mc_samples(), 20);
    }

    #[test]
    fn mc_sample_count_one_equals_plug_in() {
        let xl: Vec<Vec<f64>> = (0..25).map(|i| vec![i as f64 / 24.0]).collect();
        let yl: Vec<f64> = xl.iter().map(|x| fl(x[0])).collect();
        let xh: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 7.0]).collect();
        let yh: Vec<f64> = xh.iter().map(|x| fh(x[0])).collect();
        let mut rng = StdRng::seed_from_u64(6);
        let config = MfGpConfig {
            mc_samples: 1,
            ..MfGpConfig::default()
        };
        let model = MfGp::fit(xl, yl, xh, yh, &config, &mut rng).unwrap();
        let p = model.predict(&[0.4]);
        assert!(p.mean.is_finite() && p.var >= 0.0);
    }

    #[test]
    fn frozen_refit_matches_full_model_shape() {
        let model = pedagogical_model(30, 10, 8);
        let thetas = model.thetas();
        let frozen = MfGp::fit_frozen(
            model.low().xs().to_vec(),
            model.low().ys_raw().to_vec(),
            model.high().xs().iter().map(|z| z[..1].to_vec()).collect(),
            model.high().ys_raw().to_vec(),
            &MfGpConfig::default(),
            &thetas,
        )
        .unwrap();
        // Identical data + identical hyperparameters → identical posterior.
        let a = model.predict(&[0.42]);
        let b = frozen.predict(&[0.42]);
        assert!((a.mean - b.mean).abs() < 1e-9);
        assert!((a.var - b.var).abs() < 1e-9);
    }

    #[test]
    fn warm_fit_is_at_least_as_good() {
        let model = pedagogical_model(25, 9, 9);
        let thetas = model.thetas();
        let mut rng = StdRng::seed_from_u64(10);
        let xl: Vec<Vec<f64>> = model.low().xs().to_vec();
        let yl = model.low().ys_raw().to_vec();
        let xh: Vec<Vec<f64>> = model.high().xs().iter().map(|z| z[..1].to_vec()).collect();
        let yh = model.high().ys_raw().to_vec();
        let cfg = MfGpConfig {
            gp: GpConfig {
                restarts: 0,
                ..GpConfig::fast()
            },
            ..MfGpConfig::fast()
        };
        let plan = MfGp::plan(1, &cfg, Some(&thetas), &mut rng);
        let warm = MfGp::fit_planned(xl, yl, xh, yh, &cfg, plan, None).unwrap();
        assert!(warm.high().nlml() <= model.high().nlml() + 1e-6);
    }

    #[test]
    fn prediction_is_deterministic() {
        // Stratified sampling means repeated calls agree bit-for-bit.
        let model = pedagogical_model(30, 10, 7);
        let a = model.predict(&[0.31]);
        let b = model.predict(&[0.31]);
        assert_eq!(a, b);
    }
}
