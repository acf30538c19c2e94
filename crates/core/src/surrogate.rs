//! Surrogate-model bundles: one model per output (objective + each
//! constraint), at one or two fidelities.
//!
//! The paper models every circuit performance separately — the objective and
//! each constraint get their own GP (single-fidelity case, §2.4) or their
//! own fusion model (multi-fidelity case, §3). These bundles wire the
//! per-output posteriors into the acquisition formulas of
//! [`crate::acquisition`].

use crate::acquisition;
use crate::history::FidelityData;
use crate::nargp::{split_theta, MfGp, MfGpConfig, MfGpPlan, MfGpThetas};
use mfbo_gp::kernel::SquaredExponential;
use mfbo_gp::{DiffBatch, FitCache, Gp, GpConfig, GpError, Prediction};
use mfbo_pool::par_map_indexed;
use rand::Rng;

/// Trained hyperparameters of a full multi-fidelity bundle, for warm or
/// frozen refits across BO iterations.
#[derive(Debug, Clone, PartialEq)]
pub struct MfBundleThetas {
    /// Objective fusion-model hyperparameters.
    pub objective: MfGpThetas,
    /// Per-constraint fusion-model hyperparameters.
    pub constraints: Vec<MfGpThetas>,
}

/// Trained hyperparameters of a single-fidelity bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct SfBundleThetas {
    /// Objective GP hyperparameters `[kernel…, log σ_n]`.
    pub objective: Vec<f64>,
    /// Per-constraint GP hyperparameters.
    pub constraints: Vec<Vec<f64>>,
}

/// Serializes a hyperparameter vector for the `hyperparams` trajectory
/// event: comma-joined shortest-round-trip floats, so the analyzer can parse
/// the exact `f64` bits back out of a JSONL trace.
pub(crate) fn fmt_thetas(theta: &[f64]) -> String {
    let mut out = String::new();
    for (i, v) in theta.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&mfbo_telemetry::json::Json::Num(*v).to_string());
    }
    out
}

/// Output `i` of a bundle: the objective at 0, constraint `i - 1` after it.
fn output<'a, T>(objective: &'a T, constraints: &'a [T], i: usize) -> &'a T {
    if i == 0 {
        objective
    } else {
        &constraints[i - 1]
    }
}

/// The lower-triangle difference batch over `xs` that every model of a
/// bundle shares. A persistent `cache` is synced to `xs` (computing only the
/// pair diffs of newly appended points) and serves the batch; `None` builds
/// it from scratch — the oracle the cached path must match bit for bit.
fn bundle_batch<'a>(xs: &'a [Vec<f64>], cache: Option<&'a mut FitCache>) -> DiffBatch<'a> {
    match cache {
        Some(cache) => {
            cache.sync(xs);
            cache.batch()
        }
        None => DiffBatch::lower_triangle(xs),
    }
}

/// The input dimension of a bundle's training points; `empty` is the error
/// reason when there are none.
fn input_dim(xs: &[Vec<f64>], empty: &str) -> Result<usize, GpError> {
    xs.first()
        .map(Vec::len)
        .ok_or_else(|| GpError::InvalidTrainingSet {
            reason: empty.into(),
        })
}

/// Eq. (13)'s feasibility drive plus `1e-4` × the objective mean — the
/// tie-break that steers the search toward good designs once the drive term
/// flattens at zero — at each of `out.len()` queries, into `out`.
/// `means(model, row)` writes one model's raw posterior means at the
/// queries into `row`.
fn drive_from_means<M>(
    objective: &M,
    constraints: &[M],
    out: &mut [f64],
    mut means: impl FnMut(&M, &mut [f64]),
) {
    let m = out.len();
    if m == 0 {
        return;
    }
    let mut rows = vec![0.0; (1 + constraints.len()) * m];
    let models = std::iter::once(objective).chain(constraints);
    for (model, row) in models.zip(rows.chunks_exact_mut(m)) {
        means(model, row);
    }
    let (obj, cons) = rows.split_at(m);
    let mut at = vec![0.0; constraints.len()];
    for (q, o) in out.iter_mut().enumerate() {
        for (a, row) in at.iter_mut().zip(cons.chunks_exact(m)) {
            *a = row[q];
        }
        *o = acquisition::feasibility_drive(&at) + 1e-4 * obj[q];
    }
}

/// Splits per-model results (objective first) into the bundle's models,
/// returning the first error in output order, as sequential fits would.
fn split_models<M>(fitted: Vec<Result<M, GpError>>) -> Result<(M, Vec<M>), GpError> {
    let mut models = fitted.into_iter();
    let objective = models.next().expect("a bundle contains the objective")?;
    let constraints = models.collect::<Result<Vec<_>, _>>()?;
    Ok((objective, constraints))
}

/// Multi-fidelity surrogate bundle: a fusion model for the objective and one
/// for each constraint.
#[derive(Debug, Clone)]
pub struct MfSurrogates {
    objective: MfGp,
    constraints: Vec<MfGp>,
    /// Whether every fusion stage trains on the objective's design points,
    /// so one drive batch serves them all. Subset-of-data selects each
    /// stage's subset over its augmented inputs, whose last column differs
    /// per model, so past its cap the subsets can differ.
    shared_design: bool,
}

impl MfSurrogates {
    /// Assembles a bundle. Every low stage trains on the same inputs:
    /// subset-of-data picks its subset from the inputs alone.
    fn new(objective: MfGp, constraints: Vec<MfGp>) -> Self {
        let (low, high) = (objective.low().xs(), objective.high().xs());
        debug_assert!(constraints.iter().all(|c| c.low().xs() == low));
        let d = objective.high().kernel().design_dim();
        let shared_design = constraints.iter().all(|c| {
            let xs = c.high().xs();
            xs.len() == high.len() && xs.iter().zip(high).all(|(a, b)| a[..d] == b[..d])
        });
        MfSurrogates {
            objective,
            constraints,
            shared_design,
        }
    }

    /// Fits fusion models for every output from the two fidelity data sets,
    /// each by a full hyperparameter search — seeded with that model's
    /// previous optimum as one extra start when `warm` is given.
    ///
    /// Every model's starting points are drawn from `rng` serially, in
    /// output order (objective first, then each constraint), before `cache`
    /// is touched; the fits themselves are pure and run on
    /// `config.gp.parallelism`, so the bundle is bit-identical in every mode.
    /// All 1+m models train their low stage on the same `X_l`, so one
    /// difference batch serves them all: served by the persistent `cache`
    /// when given, built from scratch when `None` (bit-identical either
    /// way; see [`FitCache`]).
    ///
    /// # Errors
    ///
    /// Propagates the first [`GpError`] in output order.
    pub fn fit<R: Rng + ?Sized>(
        low: &FidelityData,
        high: &FidelityData,
        config: &MfGpConfig,
        warm: Option<&MfBundleThetas>,
        rng: &mut R,
        cache: Option<&mut FitCache>,
    ) -> Result<Self, GpError> {
        let dim = input_dim(&high.xs, "no high-fidelity training points")?;
        let n_cons = low.constraints.len().min(high.constraints.len());
        let plans: Vec<MfGpPlan> = (0..=n_cons)
            .map(|i| {
                let w = warm.map(|w| output(&w.objective, &w.constraints, i));
                MfGp::plan(dim, config, w, rng)
            })
            .collect();
        let batch = bundle_batch(&low.xs, cache);
        let fitted = par_map_indexed(config.gp.parallelism, plans.len(), |i| {
            MfGp::fit_planned(
                low.xs.clone(),
                output(&low.objective, &low.constraints, i).clone(),
                high.xs.clone(),
                output(&high.objective, &high.constraints, i).clone(),
                config,
                plans[i].clone(),
                Some(&batch),
            )
        });
        let (objective, constraints) = split_models(fitted)?;
        Ok(MfSurrogates::new(objective, constraints))
    }

    /// Rebuilds every model on new data with frozen hyperparameters (no
    /// training) — the cheap path between full refits. Each model reads its
    /// settings from `config` (see [`MfGp::fit_frozen`]); the refreshes
    /// consume no randomness and run on `config.gp.parallelism`. The shared
    /// low-stage batch comes from `cache` as in [`MfSurrogates::fit`].
    ///
    /// # Errors
    ///
    /// Propagates the first [`GpError`] in output order.
    pub fn fit_frozen(
        low: &FidelityData,
        high: &FidelityData,
        config: &MfGpConfig,
        thetas: &MfBundleThetas,
        cache: Option<&mut FitCache>,
    ) -> Result<Self, GpError> {
        let n_cons = low.constraints.len().min(high.constraints.len());
        let batch = bundle_batch(&low.xs, cache);
        let fitted = par_map_indexed(config.gp.parallelism, n_cons + 1, |i| {
            MfGp::fit_frozen(
                low.xs.clone(),
                output(&low.objective, &low.constraints, i).clone(),
                high.xs.clone(),
                output(&high.objective, &high.constraints, i).clone(),
                config,
                output(&thetas.objective, &thetas.constraints, i),
                Some(&batch),
            )
        });
        let (objective, constraints) = split_models(fitted)?;
        Ok(MfSurrogates::new(objective, constraints))
    }

    /// The trained hyperparameters of every model in the bundle.
    pub fn thetas(&self) -> MfBundleThetas {
        MfBundleThetas {
            objective: self.objective.thetas(),
            constraints: self.constraints.iter().map(MfGp::thetas).collect(),
        }
    }

    /// `true` when the warm-start seed (plan index 1; see
    /// [`mfbo_gp::Gp::best_start`]) won the NLML search in *both* stages of
    /// *every* model in the bundle. Only meaningful after a
    /// [`MfSurrogates::fit`] given `warm` thetas; the signal behind the
    /// `theta_warm_wins` counter.
    pub fn warm_seed_won(&self) -> bool {
        std::iter::once(&self.objective)
            .chain(self.constraints.iter())
            .all(|m| m.best_starts() == (Some(1), Some(1)))
    }

    /// The objective fusion model.
    pub fn objective(&self) -> &MfGp {
        &self.objective
    }

    /// The constraint fusion models.
    pub fn constraints(&self) -> &[MfGp] {
        &self.constraints
    }

    /// Weighted EI of the **low-fidelity** models at `x` against incumbent
    /// `tau_l` (Algorithm 1, line 5).
    pub fn wei_low(&self, x: &[f64], tau_l: f64) -> f64 {
        let p = self.objective.predict_low(x);
        let cons: Vec<(f64, f64)> = self
            .constraints
            .iter()
            .map(|c| {
                let cp = c.predict_low(x);
                (cp.mean, cp.std_dev())
            })
            .collect();
        acquisition::weighted_ei(p.mean, p.std_dev(), tau_l, &cons)
    }

    /// Weighted EI of the **high-fidelity** fusion posteriors at `x` against
    /// incumbent `tau_h` (Algorithm 1, line 6).
    pub fn wei_high(&self, x: &[f64], tau_h: f64) -> f64 {
        let p = self.objective.predict(x);
        let cons: Vec<(f64, f64)> = self
            .constraints
            .iter()
            .map(|c| {
                let cp = c.predict(x);
                (cp.mean, cp.std_dev())
            })
            .collect();
        acquisition::weighted_ei(p.mean, p.std_dev(), tau_h, &cons)
    }

    /// Maximum standardized low-fidelity posterior variance over all outputs
    /// — the left-hand side of the fidelity-selection criterion, eq. (12).
    pub fn max_low_variance(&self, x: &[f64]) -> f64 {
        let mut v = self.objective.low_variance_standardized(x);
        for c in &self.constraints {
            v = v.max(c.low_variance_standardized(x));
        }
        v
    }

    /// The first-feasible-point objective of eq. (13), with the objective
    /// tie-break (see [`SfSurrogates::drive`]), at each of `tile` into
    /// `out`, from the high-fidelity posterior means (bit-identical to the
    /// `mean` of [`MfGp::predict`]). One difference batch over the low
    /// inputs serves every low stage and one over the high design points
    /// every fusion stage ([`MfGp::predict_means_from_cross`]).
    pub fn drive(&self, tile: &[Vec<f64>], out: &mut [f64]) {
        let low = DiffBatch::cross(tile, self.objective.low().xs());
        let shared = self
            .shared_design
            .then(|| DiffBatch::cross(tile, self.objective.high().xs()));
        drive_from_means(&self.objective, &self.constraints, out, |mf, row| {
            let own;
            let design = match &shared {
                Some(batch) => batch,
                None => {
                    own = DiffBatch::cross(tile, mf.high().xs());
                    &own
                }
            };
            mf.predict_means_from_cross(tile, &low, design, row);
        });
    }

    /// High-fidelity posterior of every output at `x`.
    pub fn predict_high(&self, x: &[f64]) -> (Prediction, Vec<Prediction>) {
        (
            self.objective.predict(x),
            self.constraints.iter().map(|c| c.predict(x)).collect(),
        )
    }
}

/// Single-fidelity surrogate bundle (the substrate of the WEIBO baseline and
/// of this paper's per-fidelity components).
#[derive(Debug, Clone)]
pub struct SfSurrogates {
    objective: Gp<SquaredExponential>,
    constraints: Vec<Gp<SquaredExponential>>,
}

impl SfSurrogates {
    /// Assembles a bundle. Every model trains on the same inputs:
    /// subset-of-data picks its subset from the inputs alone.
    fn new(objective: Gp<SquaredExponential>, constraints: Vec<Gp<SquaredExponential>>) -> Self {
        debug_assert!(constraints.iter().all(|c| c.xs() == objective.xs()));
        SfSurrogates {
            objective,
            constraints,
        }
    }

    /// Fits one SE-ARD GP per output by a full hyperparameter search —
    /// seeded with that model's previous optimum when `warm` is given.
    /// Planning, parallelism and the shared difference batch (from `cache`,
    /// or built fresh when `None`) work as in [`MfSurrogates::fit`].
    ///
    /// # Errors
    ///
    /// Propagates the first [`GpError`] in output order.
    pub fn fit<R: Rng + ?Sized>(
        data: &FidelityData,
        config: &GpConfig,
        warm: Option<&SfBundleThetas>,
        rng: &mut R,
        cache: Option<&mut FitCache>,
    ) -> Result<Self, GpError> {
        let dim = input_dim(&data.xs, "no training points")?;
        let kernel = SquaredExponential::new(dim);
        let plans: Vec<Vec<Vec<f64>>> = (0..=data.constraints.len())
            .map(|i| {
                let w = warm.map(|w| output(&w.objective, &w.constraints, i).as_slice());
                Gp::plan_starts(&kernel, config, w, rng)
            })
            .collect();
        let batch = bundle_batch(&data.xs, cache);
        let fitted = par_map_indexed(config.parallelism, plans.len(), |i| {
            Gp::fit_planned(
                SquaredExponential::new(dim),
                data.xs.clone(),
                output(&data.objective, &data.constraints, i).clone(),
                config,
                plans[i].clone(),
                Some(&batch),
            )
        });
        let (objective, constraints) = split_models(fitted)?;
        Ok(SfSurrogates::new(objective, constraints))
    }

    /// Rebuilds every model on new data with frozen hyperparameters, reading
    /// [`GpConfig::inference`] and [`GpConfig::parallelism`] from `config`
    /// as a full fit does. The shared batch comes from `cache` as in
    /// [`SfSurrogates::fit`].
    ///
    /// # Errors
    ///
    /// Propagates the first [`GpError`] in output order.
    pub fn fit_frozen(
        data: &FidelityData,
        config: &GpConfig,
        thetas: &SfBundleThetas,
        cache: Option<&mut FitCache>,
    ) -> Result<Self, GpError> {
        let dim = input_dim(&data.xs, "no training points")?;
        let batch = bundle_batch(&data.xs, cache);
        let fitted = par_map_indexed(config.parallelism, data.constraints.len() + 1, |i| {
            let theta = output(&thetas.objective, &thetas.constraints, i);
            let (kp, ln) = split_theta(theta.as_slice());
            Gp::with_params(
                SquaredExponential::new(dim),
                data.xs.clone(),
                output(&data.objective, &data.constraints, i).clone(),
                kp,
                ln,
                config,
                Some(&batch),
            )
        });
        let (objective, constraints) = split_models(fitted)?;
        Ok(SfSurrogates::new(objective, constraints))
    }

    /// The trained hyperparameters of every model in the bundle.
    pub fn thetas(&self) -> SfBundleThetas {
        SfBundleThetas {
            objective: self.objective.theta(),
            constraints: self.constraints.iter().map(Gp::theta).collect(),
        }
    }

    /// The objective GP.
    pub fn objective(&self) -> &Gp<SquaredExponential> {
        &self.objective
    }

    /// The constraint GPs.
    pub fn constraints(&self) -> &[Gp<SquaredExponential>] {
        &self.constraints
    }

    /// Weighted EI at `x` against incumbent `tau`.
    pub fn wei(&self, x: &[f64], tau: f64) -> f64 {
        let p = self.objective.predict(x);
        let cons: Vec<(f64, f64)> = self
            .constraints
            .iter()
            .map(|c| {
                let cp = c.predict(x);
                (cp.mean, cp.std_dev())
            })
            .collect();
        acquisition::weighted_ei(p.mean, p.std_dev(), tau, &cons)
    }

    /// The first-feasible-point objective of eq. (13) plus `1e-4` × the
    /// objective mean — the tie-break that steers the search toward good
    /// designs once the drive term flattens at zero — at each of `tile`
    /// into `out`, from the posterior means (bit-identical to the `mean`
    /// of [`Gp::predict`]). One difference batch serves every model
    /// ([`Gp::predict_means_from_cross`]).
    pub fn drive(&self, tile: &[Vec<f64>], out: &mut [f64]) {
        let cross = DiffBatch::cross(tile, self.objective.xs());
        drive_from_means(&self.objective, &self.constraints, out, |gp, row| {
            gp.predict_means_from_cross(&cross, row);
            for m in row {
                *m = gp.standardizer().inverse(*m);
            }
        });
    }

    /// Posterior of every output at `x`.
    pub fn predict(&self, x: &[f64]) -> (Prediction, Vec<Prediction>) {
        (
            self.objective.predict(x),
            self.constraints.iter().map(|c| c.predict(x)).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Evaluation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Constrained toy problem: objective x², constraint 0.3 - x < 0
    /// (feasible for x > 0.3).
    fn make_data(n: usize, low_bias: f64) -> FidelityData {
        let mut d = FidelityData::new(1);
        for i in 0..n {
            let x = i as f64 / (n - 1) as f64;
            d.push(
                vec![x],
                &Evaluation {
                    objective: x * x + low_bias,
                    constraints: vec![0.3 - x + low_bias * 0.1],
                },
            );
        }
        d
    }

    #[test]
    fn sf_bundle_fits_and_predicts() {
        let data = make_data(12, 0.0);
        let mut rng = StdRng::seed_from_u64(0);
        let s = SfSurrogates::fit(&data, &GpConfig::fast(), None, &mut rng, None).unwrap();
        let (obj, cons) = s.predict(&[0.5]);
        assert!((obj.mean - 0.25).abs() < 0.1);
        assert_eq!(cons.len(), 1);
        assert!((cons[0].mean - (-0.2)).abs() < 0.1);
    }

    #[test]
    fn sf_wei_prefers_feasible_improvement() {
        let data = make_data(12, 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let s = SfSurrogates::fit(&data, &GpConfig::fast(), None, &mut rng, None).unwrap();
        let tau = 0.5;
        // x = 0.4: feasible with objective 0.16 < τ → good wEI.
        // x = 0.1: better objective but infeasible → tiny wEI.
        let good = s.wei(&[0.4], tau);
        let blocked = s.wei(&[0.1], tau);
        assert!(good > blocked * 5.0, "good {good}, blocked {blocked}");
    }

    #[test]
    fn sf_drive_is_the_tie_break_inside_feasible_region() {
        let data = make_data(12, 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let s = SfSurrogates::fit(&data, &GpConfig::fast(), None, &mut rng, None).unwrap();
        let mut d = [0.0; 2];
        s.drive(&[vec![0.9], vec![0.0]], &mut d);
        assert_eq!(d[0], 1e-4 * s.objective().predict(&[0.9]).mean);
        assert!(d[1] > 0.1);
    }

    #[test]
    fn mf_bundle_fits_and_exposes_models() {
        let low = make_data(20, 0.3);
        let high = make_data(8, 0.0);
        let mut rng = StdRng::seed_from_u64(4);
        let s = MfSurrogates::fit(&low, &high, &MfGpConfig::fast(), None, &mut rng, None).unwrap();
        assert_eq!(s.constraints().len(), 1);
        let (obj, cons) = s.predict_high(&[0.6]);
        assert!((obj.mean - 0.36).abs() < 0.15, "mean = {}", obj.mean);
        assert_eq!(cons.len(), 1);
    }

    #[test]
    fn mf_max_low_variance_shrinks_with_data() {
        let low_sparse = make_data(4, 0.3);
        let low_dense = make_data(40, 0.3);
        let high = make_data(6, 0.0);
        let mut rng = StdRng::seed_from_u64(5);
        let sparse = MfSurrogates::fit(
            &low_sparse,
            &high,
            &MfGpConfig::fast(),
            None,
            &mut rng,
            None,
        )
        .unwrap();
        let dense = MfSurrogates::fit(&low_dense, &high, &MfGpConfig::fast(), None, &mut rng, None)
            .unwrap();
        // Between training points, the dense model is far more certain.
        let x = [0.513];
        assert!(dense.max_low_variance(&x) <= sparse.max_low_variance(&x) + 1e-6);
    }

    #[test]
    fn mf_wei_high_and_low_are_nonnegative() {
        let low = make_data(15, 0.3);
        let high = make_data(6, 0.0);
        let mut rng = StdRng::seed_from_u64(6);
        let s = MfSurrogates::fit(&low, &high, &MfGpConfig::fast(), None, &mut rng, None).unwrap();
        for &x in &[0.1, 0.5, 0.77] {
            assert!(s.wei_low(&[x], 0.4) >= 0.0);
            assert!(s.wei_high(&[x], 0.4) >= 0.0);
        }
    }

    /// Past the subset-of-data cap each fusion stage picks its subset over
    /// its own augmented inputs, so the stages can train on different
    /// design points; the drive then builds each stage its own batch and
    /// still matches the full posteriors bit for bit.
    #[test]
    fn bit_identity_batched_drive_mf_diverging_subsets() {
        use mfbo_gp::InferenceMode;
        let low = make_data(14, 0.3);
        let mut high = make_data(9, 0.0);
        for (k, c) in high.constraints[0].iter_mut().enumerate() {
            *c += 3.0 * ((k * 5) % 7) as f64;
        }
        let cfg = MfGpConfig {
            gp: GpConfig {
                inference: InferenceMode::SubsetOfData { max_points: 4 },
                ..GpConfig::fast()
            },
            ..MfGpConfig::fast()
        };
        let mut rng = StdRng::seed_from_u64(13);
        let s = MfSurrogates::fit(&low, &high, &cfg, None, &mut rng, None).unwrap();
        assert!(
            !s.shared_design,
            "the fusion stages must train on different subsets"
        );
        let tile: Vec<Vec<f64>> = (0..7).map(|i| vec![i as f64 / 6.0]).collect();
        let mut out = vec![0.0; tile.len()];
        s.drive(&tile, &mut out);
        for (x, o) in tile.iter().zip(&out) {
            let (obj, cons) = s.predict_high(x);
            let means: Vec<f64> = cons.iter().map(|c| c.mean).collect();
            let expected = acquisition::feasibility_drive(&means) + 1e-4 * obj.mean;
            assert_eq!(o.to_bits(), expected.to_bits());
        }
    }

    /// θ bits, then posterior mean and variance bits at fixed queries, of
    /// every model in a bundle.
    fn sf_bits(s: &SfSurrogates) -> Vec<u64> {
        let t = s.thetas();
        let mut bits: Vec<u64> = std::iter::once(&t.objective)
            .chain(&t.constraints)
            .flatten()
            .map(|v| v.to_bits())
            .collect();
        for &x in &[0.07, 0.52, 0.93] {
            let (obj, cons) = s.predict(&[x]);
            for p in std::iter::once(&obj).chain(&cons) {
                bits.extend([p.mean.to_bits(), p.var.to_bits()]);
            }
        }
        bits
    }

    /// [`sf_bits`] for a fusion bundle: both stages' θ, then the propagated
    /// high-fidelity and the low-fidelity posteriors.
    fn mf_bits(s: &MfSurrogates) -> Vec<u64> {
        let t = s.thetas();
        let mut bits: Vec<u64> = std::iter::once(&t.objective)
            .chain(&t.constraints)
            .flat_map(|m| m.low.iter().chain(&m.high))
            .map(|v| v.to_bits())
            .collect();
        for &x in &[0.07, 0.52, 0.93] {
            let (obj, cons) = s.predict_high(&[x]);
            let lows = std::iter::once(s.objective())
                .chain(s.constraints())
                .map(|m| m.predict_low(&[x]));
            for p in std::iter::once(obj).chain(cons).chain(lows) {
                bits.extend([p.mean.to_bits(), p.var.to_bits()]);
            }
        }
        bits
    }

    /// The from-scratch oracle of the fit cache at bundle level: for both
    /// bundle kinds and all three fit kinds, a cache persisting across a
    /// training set that grows and shrinks (a constant-liar fantasy point
    /// vanishing between iterations) yields the θ and posterior bits of
    /// `cache: None`.
    #[test]
    fn bit_identity_bundle_cache_matches_fresh() {
        #[derive(Debug, Clone, Copy)]
        enum Kind {
            Cold,
            Warm,
            Frozen,
        }
        let high = make_data(6, 0.0);
        let (sf_cfg, mf_cfg) = (GpConfig::fast(), MfGpConfig::fast());
        let seed = make_data(9, 0.3);
        let mut rng = StdRng::seed_from_u64(12);
        let sf_t = SfSurrogates::fit(&seed, &sf_cfg, None, &mut rng, None)
            .unwrap()
            .thetas();
        let mf_t = MfSurrogates::fit(&seed, &high, &mf_cfg, None, &mut rng, None)
            .unwrap()
            .thetas();
        for kind in [Kind::Cold, Kind::Warm, Kind::Frozen] {
            let mut sf_cache = FitCache::default();
            let mut mf_cache = FitCache::default();
            for n in [10usize, 11, 14, 12] {
                let low = make_data(n, 0.3);
                let sf = |cache: Option<&mut FitCache>| {
                    let mut rng = StdRng::seed_from_u64(9);
                    let s = match kind {
                        Kind::Cold => SfSurrogates::fit(&low, &sf_cfg, None, &mut rng, cache),
                        Kind::Warm => {
                            SfSurrogates::fit(&low, &sf_cfg, Some(&sf_t), &mut rng, cache)
                        }
                        Kind::Frozen => SfSurrogates::fit_frozen(&low, &sf_cfg, &sf_t, cache),
                    };
                    sf_bits(&s.unwrap())
                };
                let mf = |cache: Option<&mut FitCache>| {
                    let mut rng = StdRng::seed_from_u64(9);
                    let s = match kind {
                        Kind::Cold => {
                            MfSurrogates::fit(&low, &high, &mf_cfg, None, &mut rng, cache)
                        }
                        Kind::Warm => {
                            MfSurrogates::fit(&low, &high, &mf_cfg, Some(&mf_t), &mut rng, cache)
                        }
                        Kind::Frozen => {
                            MfSurrogates::fit_frozen(&low, &high, &mf_cfg, &mf_t, cache)
                        }
                    };
                    mf_bits(&s.unwrap())
                };
                assert_eq!(sf(None), sf(Some(&mut sf_cache)), "Sf {kind:?}, n = {n}");
                assert_eq!(mf(None), mf(Some(&mut mf_cache)), "Mf {kind:?}, n = {n}");
                assert_eq!(sf_cache.len(), n);
                assert_eq!(mf_cache.len(), n);
            }
        }
    }

    /// The whole point of the shared bundle batch: one from-scratch
    /// lower-triangle build per low fusion stage instead of one per model,
    /// while the theta-dependent `kernel_matrix_builds` count — which layout
    /// sharing cannot touch — stays exactly what the per-model NLML search
    /// demands.
    #[test]
    fn mf_bundle_sharing_counters() {
        use std::sync::Arc;
        let low = make_data(16, 0.3);
        let high = make_data(6, 0.0);

        let count = |f: &dyn Fn()| -> (u64, u64, u64) {
            let reg = Arc::new(mfbo_telemetry::metrics::MetricsRegistry::new());
            {
                let _g = mfbo_telemetry::scoped_sink(reg.clone());
                f();
            }
            let snap = reg.snapshot();
            let get = |k: &str| snap.counters.get(k).copied().unwrap_or(0);
            (
                get("diffbatch_builds"),
                get("diffbatch_shared_hits"),
                get("kernel_matrix_builds"),
            )
        };

        // Shared (the default `fit`): one low-stage build for the whole
        // bundle, plus one per-model high-stage build (the augmented high X
        // differs per model and cannot be shared).
        let (builds_shared, hits, kmb_shared) = count(&|| {
            let mut rng = StdRng::seed_from_u64(21);
            MfSurrogates::fit(&low, &high, &MfGpConfig::fast(), None, &mut rng, None).unwrap();
        });
        // Unshared baseline: every model builds its own low batch.
        let (builds_owned, _, kmb_owned) = count(&|| {
            let mut rng = StdRng::seed_from_u64(21);
            let cfg = MfGpConfig::fast();
            let plan_o = MfGp::plan(1, &cfg, None, &mut rng);
            let plan_c = MfGp::plan(1, &cfg, None, &mut rng);
            MfGp::fit_planned(
                low.xs.clone(),
                low.objective.clone(),
                high.xs.clone(),
                high.objective.clone(),
                &cfg,
                plan_o,
                None,
            )
            .unwrap();
            MfGp::fit_planned(
                low.xs.clone(),
                low.constraints[0].clone(),
                high.xs.clone(),
                high.constraints[0].clone(),
                &cfg,
                plan_c,
                None,
            )
            .unwrap();
        });
        // 1 objective + 1 constraint: sharing saves exactly one low-stage
        // build (the (1+m)× drop for m = 1), and every model's workspace
        // registers a shared hit.
        assert_eq!(
            builds_owned - builds_shared,
            1,
            "owned {builds_owned}, shared {builds_shared}"
        );
        assert_eq!(hits, 2);
        // Layout invisibility: the theta-dependent assembly count is
        // untouched by who owns the difference buffers.
        assert_eq!(kmb_shared, kmb_owned);
    }
}
