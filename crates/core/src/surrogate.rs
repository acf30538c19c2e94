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
use mfbo_gp::{with_scratch, DiffBatch, Gp, GpConfig, GpError};
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
    let c = constraints.len();
    with_scratch((1 + c) * m + c, |buf| {
        let (rows, at) = buf.split_at_mut((1 + c) * m);
        let models = std::iter::once(objective).chain(constraints);
        for (model, row) in models.zip(rows.chunks_exact_mut(m)) {
            means(model, row);
        }
        let (obj, cons) = rows.split_at(m);
        for (q, o) in out.iter_mut().enumerate() {
            for (a, row) in at.iter_mut().zip(cons.chunks_exact(m)) {
                *a = row[q];
            }
            *o = acquisition::feasibility_drive(at) + 1e-4 * obj[q];
        }
    });
}

/// The lower-triangle difference batch over a bundle's shared training
/// inputs `xs`, or `None` where its models' fits would not read it
/// ([`Gp::reads_shared_batch`]). Only a full fit's NLML searches read one.
fn shared_batch(xs: &[Vec<f64>], config: &GpConfig) -> Option<DiffBatch> {
    Gp::<SquaredExponential>::reads_shared_batch(config, xs.len())
        .then(|| DiffBatch::lower_triangle(xs))
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
}

impl MfSurrogates {
    /// Assembles a bundle. Every low stage trains on the same inputs:
    /// subset-of-data picks its subset from the inputs alone.
    fn new(objective: MfGp, constraints: Vec<MfGp>) -> Self {
        let low = objective.low().xs();
        debug_assert!(constraints.iter().all(|c| c.low().xs() == low));
        MfSurrogates {
            objective,
            constraints,
        }
    }

    /// Fits fusion models for every output from the two fidelity data sets,
    /// each by a full hyperparameter search — seeded with that model's
    /// previous optimum as one extra start when `warm` is given.
    ///
    /// Every model's starting points are drawn from `rng` serially, in
    /// output order (objective first, then each constraint); the fits
    /// themselves are pure and run on `config.gp.parallelism`, so the bundle
    /// is bit-identical in every mode. All 1+m models train their low stage
    /// on the same `X_l`, so the bundle builds one difference batch and
    /// shares it across them (bit-identical to a batch per model).
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
    ) -> Result<Self, GpError> {
        let dim = input_dim(&high.xs, "no high-fidelity training points")?;
        let n_cons = low.constraints.len().min(high.constraints.len());
        let plans: Vec<MfGpPlan> = (0..=n_cons)
            .map(|i| {
                let w = warm.map(|w| output(&w.objective, &w.constraints, i));
                MfGp::plan(dim, config, w, rng)
            })
            .collect();
        let batch = shared_batch(&low.xs, &config.gp);
        let fitted = par_map_indexed(config.gp.parallelism, plans.len(), |i| {
            MfGp::fit_planned(
                low.xs.clone(),
                output(&low.objective, &low.constraints, i).clone(),
                high.xs.clone(),
                output(&high.objective, &high.constraints, i).clone(),
                config,
                plans[i].clone(),
                batch.as_ref(),
            )
        });
        let (objective, constraints) = split_models(fitted)?;
        Ok(MfSurrogates::new(objective, constraints))
    }

    /// Rebuilds every model on new data with frozen hyperparameters (no
    /// training) — the cheap path between full refits. Each model reads its
    /// settings from `config` (see [`MfGp::fit_frozen`]); the refreshes
    /// consume no randomness and run on `config.gp.parallelism`. With no
    /// NLML search to serve, they build no difference batch.
    ///
    /// # Errors
    ///
    /// Propagates the first [`GpError`] in output order.
    pub fn fit_frozen(
        low: &FidelityData,
        high: &FidelityData,
        config: &MfGpConfig,
        thetas: &MfBundleThetas,
    ) -> Result<Self, GpError> {
        let n_cons = low.constraints.len().min(high.constraints.len());
        let fitted = par_map_indexed(config.gp.parallelism, n_cons + 1, |i| {
            MfGp::fit_frozen(
                low.xs.clone(),
                output(&low.objective, &low.constraints, i).clone(),
                high.xs.clone(),
                output(&high.objective, &high.constraints, i).clone(),
                config,
                output(&thetas.objective, &thetas.constraints, i),
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
    /// `tau_l` (Algorithm 1, line 5). EI comes first, and each constraint is
    /// predicted only while the running product is nonzero: the
    /// constraints [`acquisition::weighted_ei`] would skip are never
    /// predicted.
    pub fn wei_low(&self, x: &[f64], tau_l: f64) -> f64 {
        let p = self.objective.predict_low(x);
        let cons = self.constraints.iter().map(|c| {
            let cp = c.predict_low(x);
            (cp.mean, cp.std_dev())
        });
        acquisition::weighted_ei(p.mean, p.std_dev(), tau_l, cons)
    }

    /// Weighted EI of the **high-fidelity** fusion posteriors at `x` against
    /// incumbent `tau_h` (Algorithm 1, line 6). As in
    /// [`MfSurrogates::wei_low`], a constraint is predicted only while the
    /// running product is nonzero.
    pub fn wei_high(&self, x: &[f64], tau_h: f64) -> f64 {
        let p = self.objective.predict(x);
        let cons = self.constraints.iter().map(|c| {
            let cp = c.predict(x);
            (cp.mean, cp.std_dev())
        });
        acquisition::weighted_ei(p.mean, p.std_dev(), tau_h, cons)
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
    /// tie-break (see [`SfSurrogates::drive`]), at each of `points` into
    /// `out`, from the high-fidelity posterior means (bit-identical to the
    /// `mean` of [`MfGp::predict`]). Each stage of each model predicts from
    /// its own fit-time layout ([`MfGp::predict_means`]), allocating
    /// nothing once the thread's scratch is warm.
    pub fn drive(&self, points: &[Vec<f64>], out: &mut [f64]) {
        drive_from_means(&self.objective, &self.constraints, out, |mf, row| {
            mf.predict_means(points, row);
        });
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
    /// Planning, parallelism and the shared difference batch work as in
    /// [`MfSurrogates::fit`].
    ///
    /// # Errors
    ///
    /// Propagates the first [`GpError`] in output order.
    pub fn fit<R: Rng + ?Sized>(
        data: &FidelityData,
        config: &GpConfig,
        warm: Option<&SfBundleThetas>,
        rng: &mut R,
    ) -> Result<Self, GpError> {
        let dim = input_dim(&data.xs, "no training points")?;
        let kernel = SquaredExponential::new(dim);
        let plans: Vec<Vec<Vec<f64>>> = (0..=data.constraints.len())
            .map(|i| {
                let w = warm.map(|w| output(&w.objective, &w.constraints, i).as_slice());
                Gp::plan_starts(&kernel, config, w, rng)
            })
            .collect();
        let batch = shared_batch(&data.xs, config);
        let fitted = par_map_indexed(config.parallelism, plans.len(), |i| {
            Gp::fit_planned(
                SquaredExponential::new(dim),
                data.xs.clone(),
                output(&data.objective, &data.constraints, i).clone(),
                config,
                plans[i].clone(),
                batch.as_ref(),
            )
        });
        let (objective, constraints) = split_models(fitted)?;
        Ok(SfSurrogates::new(objective, constraints))
    }

    /// Rebuilds every model on new data with frozen hyperparameters, reading
    /// [`GpConfig::inference`] and [`GpConfig::parallelism`] from `config`
    /// as a full fit does. Like [`MfSurrogates::fit_frozen`], it builds no
    /// difference batch.
    ///
    /// # Errors
    ///
    /// Propagates the first [`GpError`] in output order.
    pub fn fit_frozen(
        data: &FidelityData,
        config: &GpConfig,
        thetas: &SfBundleThetas,
    ) -> Result<Self, GpError> {
        let dim = input_dim(&data.xs, "no training points")?;
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

    /// Weighted EI at `x` against incumbent `tau`. As in
    /// [`MfSurrogates::wei_low`], a constraint is predicted only while the
    /// running product is nonzero.
    pub fn wei(&self, x: &[f64], tau: f64) -> f64 {
        let p = self.objective.predict(x);
        let cons = self.constraints.iter().map(|c| {
            let cp = c.predict(x);
            (cp.mean, cp.std_dev())
        });
        acquisition::weighted_ei(p.mean, p.std_dev(), tau, cons)
    }

    /// The first-feasible-point objective of eq. (13) plus `1e-4` × the
    /// objective mean — the tie-break that steers the search toward good
    /// designs once the drive term flattens at zero — at each of `points`
    /// into `out`, from the posterior means (bit-identical to the `mean`
    /// of [`Gp::predict`]). Each model predicts from its own fit-time
    /// layout ([`Gp::predict_means_standardized`]).
    pub fn drive(&self, points: &[Vec<f64>], out: &mut [f64]) {
        drive_from_means(&self.objective, &self.constraints, out, |gp, row| {
            gp.predict_means_standardized(points, row);
            for m in row {
                *m = gp.standardizer().inverse(*m);
            }
        });
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
        let s = SfSurrogates::fit(&data, &GpConfig::fast(), None, &mut rng).unwrap();
        assert!((s.objective().predict(&[0.5]).mean - 0.25).abs() < 0.1);
        assert_eq!(s.constraints().len(), 1);
        assert!((s.constraints()[0].predict(&[0.5]).mean - (-0.2)).abs() < 0.1);
    }

    #[test]
    fn sf_wei_prefers_feasible_improvement() {
        let data = make_data(12, 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let s = SfSurrogates::fit(&data, &GpConfig::fast(), None, &mut rng).unwrap();
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
        let s = SfSurrogates::fit(&data, &GpConfig::fast(), None, &mut rng).unwrap();
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
        let s = MfSurrogates::fit(&low, &high, &MfGpConfig::fast(), None, &mut rng).unwrap();
        assert_eq!(s.constraints().len(), 1);
        let obj = s.objective().predict(&[0.6]);
        assert!((obj.mean - 0.36).abs() < 0.15, "mean = {}", obj.mean);
    }

    #[test]
    fn mf_max_low_variance_shrinks_with_data() {
        let low_sparse = make_data(4, 0.3);
        let low_dense = make_data(40, 0.3);
        let high = make_data(6, 0.0);
        let mut rng = StdRng::seed_from_u64(5);
        let sparse =
            MfSurrogates::fit(&low_sparse, &high, &MfGpConfig::fast(), None, &mut rng).unwrap();
        let dense =
            MfSurrogates::fit(&low_dense, &high, &MfGpConfig::fast(), None, &mut rng).unwrap();
        // Between training points, the dense model is far more certain.
        let x = [0.513];
        assert!(dense.max_low_variance(&x) <= sparse.max_low_variance(&x) + 1e-6);
    }

    #[test]
    fn mf_wei_high_and_low_are_nonnegative() {
        let low = make_data(15, 0.3);
        let high = make_data(6, 0.0);
        let mut rng = StdRng::seed_from_u64(6);
        let s = MfSurrogates::fit(&low, &high, &MfGpConfig::fast(), None, &mut rng).unwrap();
        for &x in &[0.1, 0.5, 0.77] {
            assert!(s.wei_low(&[x], 0.4) >= 0.0);
            assert!(s.wei_high(&[x], 0.4) >= 0.0);
        }
    }

    /// Past the subset-of-data cap each fusion stage picks its subset over
    /// its own augmented inputs, so the stages can train on different
    /// design points; each stage predicts from its own layout, and the drive
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
        let s = MfSurrogates::fit(&low, &high, &cfg, None, &mut rng).unwrap();
        let design = |m: &MfGp| m.high().xs().iter().map(|z| z[0]).collect::<Vec<_>>();
        assert!(
            s.constraints()
                .iter()
                .any(|c| design(c) != design(s.objective())),
            "the fusion stages must train on different subsets"
        );
        let tile: Vec<Vec<f64>> = (0..7).map(|i| vec![i as f64 / 6.0]).collect();
        let mut out = vec![0.0; tile.len()];
        s.drive(&tile, &mut out);
        for (x, o) in tile.iter().zip(&out) {
            let means: Vec<f64> = s.constraints().iter().map(|c| c.predict(x).mean).collect();
            let objective = s.objective().predict(x).mean;
            let expected = acquisition::feasibility_drive(&means) + 1e-4 * objective;
            assert_eq!(o.to_bits(), expected.to_bits());
        }
    }

    /// The `predict_batch_points` and difference-batch counters of `f` —
    /// benchmark per-layer metrics, whose meaning must not drift.
    fn layer_counts(f: impl FnOnce()) -> [u64; 3] {
        let reg = std::sync::Arc::new(mfbo_telemetry::metrics::MetricsRegistry::new());
        {
            let _g = mfbo_telemetry::scoped_sink(reg.clone());
            f();
        }
        let snap = reg.snapshot();
        [
            "predict_batch_points",
            "diffbatch_builds",
            "diffbatch_shared_hits",
        ]
        .map(|k| snap.counters.get(k).copied().unwrap_or(0))
    }

    /// A seeded drive call counts `m` points per low stage plus `S` per
    /// query of propagation, for every model of the bundle, and one
    /// pointwise fusion prediction `1 + S`; prediction builds no difference
    /// batch, and the single-fidelity drive counts nothing.
    #[test]
    fn drive_and_predict_layer_counts_are_pinned() {
        let low = make_data(14, 0.3);
        let high = make_data(6, 0.0);
        let cfg = MfGpConfig::fast();
        let mut rng = StdRng::seed_from_u64(17);
        let s = MfSurrogates::fit(&low, &high, &cfg, None, &mut rng).unwrap();
        let tile: Vec<Vec<f64>> = (0..7).map(|i| vec![(i as f64 + 0.37) / 7.3]).collect();
        // Off the training points every low posterior is uncertain, so each
        // query takes all S samples rather than the plug-in one.
        for m in std::iter::once(s.objective()).chain(s.constraints()) {
            for x in &tile {
                assert!(m.low().predict_standardized(x).1.max(0.0).sqrt() >= 1e-12);
            }
        }
        let (m, samples, models) = (tile.len() as u64, cfg.mc_samples as u64, 2);
        let mut out = vec![0.0; tile.len()];
        let drive = layer_counts(|| s.drive(&tile, &mut out));
        assert_eq!(drive, [models * (m + m * samples), 0, 0]);
        let predict = layer_counts(|| {
            s.objective().predict(&tile[0]);
        });
        assert_eq!(predict, [1 + samples, 0, 0]);

        let mut rng = StdRng::seed_from_u64(18);
        let sf = SfSurrogates::fit(&high, &GpConfig::fast(), None, &mut rng).unwrap();
        assert_eq!(layer_counts(|| sf.drive(&tile, &mut out)), [0; 3]);
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
            for m in std::iter::once(s.objective()).chain(s.constraints()) {
                let p = m.predict(&[x]);
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
            let models = || std::iter::once(s.objective()).chain(s.constraints());
            let highs = models().map(|m| m.predict(&[x]));
            for p in highs.chain(models().map(|m| m.predict_low(&[x]))) {
                bits.extend([p.mean.to_bits(), p.var.to_bits()]);
            }
        }
        bits
    }

    /// How a test bundle is fitted: from scratch, warm-started from the
    /// given thetas, or frozen at them.
    #[derive(Debug)]
    enum Fit<'a, T> {
        Cold,
        Warm(&'a T),
        Frozen(&'a T),
    }

    impl<T> Fit<'_, T> {
        /// The thetas a full fit is warm-started from.
        fn warm(&self) -> Option<&T> {
            match self {
                Fit::Warm(t) => Some(t),
                _ => None,
            }
        }
    }

    /// An SF bundle over 1-D `data`, fitted as `fit` from the seed-9 stream:
    /// through [`SfSurrogates`], whose full fits share one difference batch
    /// across its models, or (`per_model`, full fits only) one model at a
    /// time, each building its own batch.
    fn sf_bundle(
        data: &FidelityData,
        cfg: &GpConfig,
        fit: &Fit<SfBundleThetas>,
        per_model: bool,
    ) -> SfSurrogates {
        let mut rng = StdRng::seed_from_u64(9);
        if !per_model {
            let s = match fit {
                Fit::Frozen(t) => SfSurrogates::fit_frozen(data, cfg, t),
                _ => SfSurrogates::fit(data, cfg, fit.warm(), &mut rng),
            };
            return s.unwrap();
        }
        let kernel = SquaredExponential::new(1);
        let mut models = (0..=data.constraints.len())
            .map(|i| {
                let ys = output(&data.objective, &data.constraints, i).clone();
                let warm = fit.warm().map(|t| output(&t.objective, &t.constraints, i));
                let starts = Gp::plan_starts(&kernel, cfg, warm.map(Vec::as_slice), &mut rng);
                Gp::fit_planned(kernel.clone(), data.xs.clone(), ys, cfg, starts, None)
            })
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        let objective = models.remove(0);
        SfSurrogates::new(objective, models)
    }

    /// [`sf_bundle`] for a fusion bundle over 1-D `low` and `high` data.
    fn mf_bundle(
        low: &FidelityData,
        high: &FidelityData,
        cfg: &MfGpConfig,
        fit: &Fit<MfBundleThetas>,
        per_model: bool,
    ) -> MfSurrogates {
        let mut rng = StdRng::seed_from_u64(9);
        if !per_model {
            let s = match fit {
                Fit::Frozen(t) => MfSurrogates::fit_frozen(low, high, cfg, t),
                _ => MfSurrogates::fit(low, high, cfg, fit.warm(), &mut rng),
            };
            return s.unwrap();
        }
        let mut models = (0..=low.constraints.len())
            .map(|i| {
                let yl = output(&low.objective, &low.constraints, i).clone();
                let yh = output(&high.objective, &high.constraints, i).clone();
                let (xl, xh) = (low.xs.clone(), high.xs.clone());
                let warm = fit.warm().map(|t| output(&t.objective, &t.constraints, i));
                let plan = MfGp::plan(1, cfg, warm, &mut rng);
                MfGp::fit_planned(xl, yl, xh, yh, cfg, plan, None)
            })
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        let objective = models.remove(0);
        MfSurrogates::new(objective, models)
    }

    /// The bundle-level oracle of batch sharing: for both bundle kinds and
    /// both full-fit kinds, a bundle fitted from its one shared difference
    /// batch yields the θ and posterior bits of the same bundle fitted one
    /// model at a time, each model building its own batch. (A frozen
    /// refresh reads no batch, so its bundle and per-model paths are one.)
    #[test]
    fn bit_identity_bundle_shared_batch_matches_per_model() {
        let high = make_data(6, 0.0);
        let (sf_cfg, mf_cfg) = (GpConfig::fast(), MfGpConfig::fast());
        let seed = make_data(9, 0.3);
        let mut rng = StdRng::seed_from_u64(12);
        let sf_t = SfSurrogates::fit(&seed, &sf_cfg, None, &mut rng)
            .unwrap()
            .thetas();
        let mf_t = MfSurrogates::fit(&seed, &high, &mf_cfg, None, &mut rng)
            .unwrap()
            .thetas();
        for n in [10usize, 14] {
            let low = make_data(n, 0.3);
            for fit in [Fit::Cold, Fit::Warm(&sf_t)] {
                let shared = sf_bits(&sf_bundle(&low, &sf_cfg, &fit, false));
                let own = sf_bits(&sf_bundle(&low, &sf_cfg, &fit, true));
                assert_eq!(shared, own, "Sf {fit:?}, n = {n}");
            }
            for fit in [Fit::Cold, Fit::Warm(&mf_t)] {
                let shared = mf_bits(&mf_bundle(&low, &high, &mf_cfg, &fit, false));
                let own = mf_bits(&mf_bundle(&low, &high, &mf_cfg, &fit, true));
                assert_eq!(shared, own, "Mf {fit:?}, n = {n}");
            }
        }
    }

    /// The `diffbatch_builds`, `diffbatch_shared_hits` and
    /// `kernel_matrix_builds` counters of `f`.
    fn sharing_counts(f: impl FnOnce()) -> (u64, u64, u64) {
        let reg = std::sync::Arc::new(mfbo_telemetry::metrics::MetricsRegistry::new());
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
    }

    /// The whole point of the shared bundle batch: one from-scratch
    /// lower-triangle build per low fusion stage instead of one per model,
    /// while the theta-dependent `kernel_matrix_builds` count — which layout
    /// sharing cannot touch — stays exactly what the per-model NLML search
    /// demands.
    #[test]
    fn mf_bundle_sharing_counters() {
        let low = make_data(16, 0.3);
        let high = make_data(6, 0.0);
        let cfg = MfGpConfig::fast();
        // Shared: one low-stage build for the whole bundle, plus one
        // per-model high-stage build (the augmented high X differs per model
        // and cannot be shared).
        let (builds_shared, hits, kmb_shared) = sharing_counts(|| {
            mf_bundle(&low, &high, &cfg, &Fit::Cold, false);
        });
        // Unshared baseline: every model builds its own low batch.
        let (builds_owned, _, kmb_owned) = sharing_counts(|| {
            mf_bundle(&low, &high, &cfg, &Fit::Cold, true);
        });
        // 1 objective + 1 constraint: sharing saves exactly one low-stage
        // build (the (1+m)× drop for m = 1), and every model's low stage
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

    /// The single-fidelity counterpart of [`mf_bundle_sharing_counters`]:
    /// for both full-fit kinds, a bundle of 1+m models makes exactly one
    /// difference build and 1+m shared hits, and the same
    /// `kernel_matrix_builds` as 1+m per-model builds. A frozen refresh
    /// builds no batch and reads none: one kernel matrix per model.
    #[test]
    fn sf_bundle_sharing_counters() {
        let data = make_data(16, 0.0);
        let cfg = GpConfig::fast();
        let mut rng = StdRng::seed_from_u64(22);
        let t = SfSurrogates::fit(&data, &cfg, None, &mut rng)
            .unwrap()
            .thetas();
        let models = 1 + data.constraints.len() as u64;
        for fit in [Fit::Cold, Fit::Warm(&t)] {
            let shared = sharing_counts(|| {
                sf_bundle(&data, &cfg, &fit, false);
            });
            let owned = sharing_counts(|| {
                sf_bundle(&data, &cfg, &fit, true);
            });
            assert_eq!((shared.0, shared.1), (1, models), "{fit:?}");
            assert_eq!((owned.0, owned.1), (models, 0), "{fit:?}");
            assert_eq!(shared.2, owned.2, "{fit:?}");
        }
        let frozen = sharing_counts(|| {
            sf_bundle(&data, &cfg, &Fit::Frozen(&t), false);
        });
        assert_eq!(frozen, (0, 0, models));
    }

    /// Past the subset-of-data cap every model trains on (and builds a
    /// batch over) its own subset, so a bundle builds no shared batch: a
    /// 12-point bundle capped at 4 points with one constraint makes one
    /// build per model and no shared hit on a full fit, and none on a
    /// frozen refresh.
    #[test]
    fn subset_bundles_build_no_unread_shared_batch() {
        let data = make_data(12, 0.0);
        let cfg = GpConfig {
            inference: mfbo_gp::InferenceMode::SubsetOfData { max_points: 4 },
            ..GpConfig::fast()
        };
        let mut rng = StdRng::seed_from_u64(23);
        let t = SfSurrogates::fit(&data, &cfg, None, &mut rng)
            .unwrap()
            .thetas();
        for (fit, want) in [(Fit::Cold, (2, 0)), (Fit::Frozen(&t), (0, 0))] {
            let (builds, hits, _) = sharing_counts(|| {
                sf_bundle(&data, &cfg, &fit, false);
            });
            assert_eq!((builds, hits), want, "{fit:?}");
        }
        // Fusion bundles: the low and high stage of each of the 2 models.
        let mf_cfg = MfGpConfig {
            gp: cfg.clone(),
            ..MfGpConfig::fast()
        };
        let high = make_data(6, 0.0);
        let (builds, hits, _) = sharing_counts(|| {
            mf_bundle(&data, &high, &mf_cfg, &Fit::Cold, false);
        });
        assert_eq!((builds, hits), (4, 0));
        // Under the cap the bundle still shares one batch.
        assert!(Gp::<SquaredExponential>::reads_shared_batch(&cfg, 4));
        assert!(!Gp::<SquaredExponential>::reads_shared_batch(&cfg, 5));
    }

    /// wEI with every constraint predicted up front, as the bundles
    /// computed it before predicting lazily.
    fn eager_wei(p: mfbo_gp::Prediction, tau: f64, cons: &[mfbo_gp::Prediction]) -> f64 {
        let cons: Vec<(f64, f64)> = cons.iter().map(|c| (c.mean, c.std_dev())).collect();
        acquisition::weighted_ei(p.mean, p.std_dev(), tau, cons)
    }

    /// At a query whose EI is exactly 0 the bundles return 0 without
    /// predicting a constraint (the fusion bundle's counters show only the
    /// objective's `1 + S` points); where EI is positive every constraint
    /// is predicted and the value is the eager product's, bit for bit.
    #[test]
    fn wei_predicts_no_constraint_once_ei_is_zero() {
        let low = make_data(14, 0.3);
        let high = make_data(6, 0.0);
        let cfg = MfGpConfig::fast();
        let mut rng = StdRng::seed_from_u64(24);
        let s = MfSurrogates::fit(&low, &high, &cfg, None, &mut rng).unwrap();
        let sf = SfSurrogates::fit(&high, &GpConfig::fast(), None, &mut rng).unwrap();
        let x = [0.537];
        let per_model = 1 + cfg.mc_samples as u64;
        let (zero, some) = (-1e9, 1e9);

        let o = s.objective();
        assert_eq!(
            acquisition::expected_improvement(o.predict(&x).mean, o.predict(&x).std_dev(), zero),
            0.0
        );
        assert_eq!(
            layer_counts(|| assert_eq!(s.wei_high(&x, zero), 0.0))[0],
            per_model
        );
        assert_eq!(
            layer_counts(|| assert!(s.wei_high(&x, some) > 0.0))[0],
            2 * per_model
        );
        assert_eq!(s.wei_low(&x, zero), 0.0);
        assert_eq!(sf.wei(&x, zero), 0.0);

        let c = s.constraints();
        let highs: Vec<_> = c.iter().map(|m| m.predict(&x)).collect();
        let lows: Vec<_> = c.iter().map(|m| m.predict_low(&x)).collect();
        let sfs: Vec<_> = sf.constraints().iter().map(|m| m.predict(&x)).collect();
        for tau in [zero, some, 0.2] {
            let want = eager_wei(o.predict(&x), tau, &highs);
            assert_eq!(s.wei_high(&x, tau).to_bits(), want.to_bits());
            let want = eager_wei(o.predict_low(&x), tau, &lows);
            assert_eq!(s.wei_low(&x, tau).to_bits(), want.to_bits());
            let want = eager_wei(sf.objective().predict(&x), tau, &sfs);
            assert_eq!(sf.wei(&x, tau).to_bits(), want.to_bits());
        }
    }
}
