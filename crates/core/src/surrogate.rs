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
use crate::nargp::{MfGp, MfGpConfig, MfGpPlan, MfGpThetas};
use mfbo_gp::kernel::SquaredExponential;
use mfbo_gp::{DiffBatch, FitCache, Gp, GpConfig, GpError, InferenceMode, Prediction};
use mfbo_pool::{par_map_indexed, Parallelism};
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

/// Multi-fidelity surrogate bundle: a fusion model for the objective and one
/// for each constraint.
#[derive(Debug, Clone)]
pub struct MfSurrogates {
    objective: MfGp,
    constraints: Vec<MfGp>,
}

impl MfSurrogates {
    /// Fits fusion models for every output from the two fidelity data sets.
    ///
    /// # Errors
    ///
    /// Propagates the first [`GpError`] encountered.
    pub fn fit<R: Rng + ?Sized>(
        low: &FidelityData,
        high: &FidelityData,
        config: &MfGpConfig,
        rng: &mut R,
    ) -> Result<Self, GpError> {
        let dim = match high.xs.first() {
            Some(x) => x.len(),
            None => {
                return Err(GpError::InvalidTrainingSet {
                    reason: "no high-fidelity training points".into(),
                })
            }
        };
        let n_cons = low.constraints.len().min(high.constraints.len());
        // Draw every model's starting points serially, in exactly the order
        // the sequential fits would: objective first, then each constraint.
        // The fits themselves are then pure and run on the pool — the bundle
        // is bit-identical in every parallelism mode.
        let plans: Vec<MfGpPlan> = (0..=n_cons).map(|_| MfGp::plan(dim, config, rng)).collect();
        Self::fit_all_planned(low, high, config, plans, None)
    }

    /// [`MfSurrogates::fit`] backed by a persistent cross-iteration
    /// [`FitCache`]: the cache is synced to `low.xs` (computing only the
    /// pair diffs of newly appended points) and its batch replaces the
    /// per-fit low-stage difference build. Bit-identical to
    /// [`MfSurrogates::fit`] and consumes the RNG in the same order.
    ///
    /// # Errors
    ///
    /// Propagates the first [`GpError`] encountered.
    pub fn fit_with_cache<R: Rng + ?Sized>(
        low: &FidelityData,
        high: &FidelityData,
        config: &MfGpConfig,
        rng: &mut R,
        cache: &mut FitCache,
    ) -> Result<Self, GpError> {
        let dim = match high.xs.first() {
            Some(x) => x.len(),
            None => {
                return Err(GpError::InvalidTrainingSet {
                    reason: "no high-fidelity training points".into(),
                })
            }
        };
        let n_cons = low.constraints.len().min(high.constraints.len());
        let plans: Vec<MfGpPlan> = (0..=n_cons).map(|_| MfGp::plan(dim, config, rng)).collect();
        cache.sync(&low.xs);
        let batch = cache.batch();
        Self::fit_all_planned(low, high, config, plans, Some(&batch))
    }

    /// Runs the (pure) per-model fits from pre-drawn plans, distributed over
    /// `config.parallelism`. `plans[0]` trains the objective, `plans[i + 1]`
    /// constraint `i`. Models are reduced in output order, so the first
    /// error in that order is returned, as in the sequential code.
    ///
    /// Every model of the bundle trains its low stage on the same `X_l`, so
    /// one lower-triangle difference batch serves all 1+m low-stage NLML
    /// workspaces — built here once (or passed in from a persistent
    /// [`FitCache`]) instead of once per model. The shared batch holds the
    /// exact diff values each per-model build would compute, so the bundle
    /// is bit-identical to unshared fitting.
    fn fit_all_planned(
        low: &FidelityData,
        high: &FidelityData,
        config: &MfGpConfig,
        plans: Vec<MfGpPlan>,
        low_shared: Option<&DiffBatch<'_>>,
    ) -> Result<Self, GpError> {
        let local;
        let batch: &DiffBatch<'_> = match low_shared {
            Some(b) => b,
            None => {
                local = DiffBatch::lower_triangle(&low.xs);
                &local
            }
        };
        let fitted = par_map_indexed(config.parallelism, plans.len(), |i| {
            let (yl, yh) = if i == 0 {
                (&low.objective, &high.objective)
            } else {
                (&low.constraints[i - 1], &high.constraints[i - 1])
            };
            MfGp::fit_planned_shared(
                low.xs.clone(),
                yl.clone(),
                high.xs.clone(),
                yh.clone(),
                config,
                plans[i].clone(),
                Some(batch),
            )
        });
        let mut models = fitted.into_iter();
        let objective = models.next().expect("plans contains the objective")?;
        let constraints = models.collect::<Result<Vec<_>, _>>()?;
        Ok(MfSurrogates {
            objective,
            constraints,
        })
    }

    /// Like [`MfSurrogates::fit`], seeding each model's hyperparameter
    /// search with the previous optimum.
    ///
    /// # Errors
    ///
    /// Propagates the first [`GpError`] encountered.
    pub fn fit_warm<R: Rng + ?Sized>(
        low: &FidelityData,
        high: &FidelityData,
        config: &MfGpConfig,
        warm: &MfBundleThetas,
        rng: &mut R,
    ) -> Result<Self, GpError> {
        let dim = match high.xs.first() {
            Some(x) => x.len(),
            None => {
                return Err(GpError::InvalidTrainingSet {
                    reason: "no high-fidelity training points".into(),
                })
            }
        };
        let n_cons = low.constraints.len().min(high.constraints.len());
        // Warm starts only influence the planned starting points, so the
        // per-model warm configs are needed at plan time only.
        let plans: Vec<MfGpPlan> = (0..=n_cons)
            .map(|i| {
                let w = if i == 0 {
                    &warm.objective
                } else {
                    &warm.constraints[i - 1]
                };
                let mut cfg = config.clone();
                cfg.low.warm_start = Some(w.low.clone());
                cfg.high.warm_start = Some(w.high.clone());
                MfGp::plan(dim, &cfg, rng)
            })
            .collect();
        Self::fit_all_planned(low, high, config, plans, None)
    }

    /// [`MfSurrogates::fit_warm`] backed by a persistent [`FitCache`] (see
    /// [`MfSurrogates::fit_with_cache`]). Bit-identical to
    /// [`MfSurrogates::fit_warm`] and consumes the RNG in the same order.
    ///
    /// # Errors
    ///
    /// Propagates the first [`GpError`] encountered.
    pub fn fit_warm_with_cache<R: Rng + ?Sized>(
        low: &FidelityData,
        high: &FidelityData,
        config: &MfGpConfig,
        warm: &MfBundleThetas,
        rng: &mut R,
        cache: &mut FitCache,
    ) -> Result<Self, GpError> {
        let dim = match high.xs.first() {
            Some(x) => x.len(),
            None => {
                return Err(GpError::InvalidTrainingSet {
                    reason: "no high-fidelity training points".into(),
                })
            }
        };
        let n_cons = low.constraints.len().min(high.constraints.len());
        let plans: Vec<MfGpPlan> = (0..=n_cons)
            .map(|i| {
                let w = if i == 0 {
                    &warm.objective
                } else {
                    &warm.constraints[i - 1]
                };
                let mut cfg = config.clone();
                cfg.low.warm_start = Some(w.low.clone());
                cfg.high.warm_start = Some(w.high.clone());
                MfGp::plan(dim, &cfg, rng)
            })
            .collect();
        cache.sync(&low.xs);
        let batch = cache.batch();
        Self::fit_all_planned(low, high, config, plans, Some(&batch))
    }

    /// Rebuilds every model on new data with frozen hyperparameters (no
    /// training) — the cheap path between full refits.
    ///
    /// # Errors
    ///
    /// Propagates the first [`GpError`] encountered.
    pub fn fit_frozen(
        low: &FidelityData,
        high: &FidelityData,
        thetas: &MfBundleThetas,
        mc_samples: usize,
        parallelism: Parallelism,
    ) -> Result<Self, GpError> {
        Self::fit_frozen_infer(
            low,
            high,
            thetas,
            mc_samples,
            parallelism,
            InferenceMode::Exact,
        )
    }

    /// [`MfSurrogates::fit_frozen`] with an explicit [`InferenceMode`] for
    /// every model; `Exact` is byte-identical to [`MfSurrogates::fit_frozen`].
    ///
    /// # Errors
    ///
    /// Propagates the first [`GpError`] encountered.
    pub fn fit_frozen_infer(
        low: &FidelityData,
        high: &FidelityData,
        thetas: &MfBundleThetas,
        mc_samples: usize,
        parallelism: Parallelism,
        inference: InferenceMode,
    ) -> Result<Self, GpError> {
        Self::fit_frozen_infer_planned(low, high, thetas, mc_samples, parallelism, inference, None)
    }

    /// [`MfSurrogates::fit_frozen_infer`] backed by a persistent
    /// [`FitCache`] (see [`MfSurrogates::fit_with_cache`]). Bit-identical
    /// to [`MfSurrogates::fit_frozen_infer`].
    ///
    /// # Errors
    ///
    /// Propagates the first [`GpError`] encountered.
    #[allow(clippy::too_many_arguments)]
    pub fn fit_frozen_infer_with_cache(
        low: &FidelityData,
        high: &FidelityData,
        thetas: &MfBundleThetas,
        mc_samples: usize,
        parallelism: Parallelism,
        inference: InferenceMode,
        cache: &mut FitCache,
    ) -> Result<Self, GpError> {
        cache.sync(&low.xs);
        let batch = cache.batch();
        Self::fit_frozen_infer_planned(
            low,
            high,
            thetas,
            mc_samples,
            parallelism,
            inference,
            Some(&batch),
        )
    }

    /// The frozen-refresh worker behind [`MfSurrogates::fit_frozen_infer`]:
    /// one shared low-stage difference batch (built here or served by a
    /// persistent cache) serves all 1+m models.
    #[allow(clippy::too_many_arguments)]
    fn fit_frozen_infer_planned(
        low: &FidelityData,
        high: &FidelityData,
        thetas: &MfBundleThetas,
        mc_samples: usize,
        parallelism: Parallelism,
        inference: InferenceMode,
        low_shared: Option<&DiffBatch<'_>>,
    ) -> Result<Self, GpError> {
        let local;
        let batch: &DiffBatch<'_> = match low_shared {
            Some(b) => b,
            None => {
                local = DiffBatch::lower_triangle(&low.xs);
                &local
            }
        };
        // Frozen refits consume no randomness at all, so the per-model
        // factorizations go straight onto the pool.
        let n_cons = low.constraints.len().min(high.constraints.len());
        let fitted = par_map_indexed(parallelism, n_cons + 1, |i| {
            let (yl, yh, t) = if i == 0 {
                (&low.objective, &high.objective, &thetas.objective)
            } else {
                (
                    &low.constraints[i - 1],
                    &high.constraints[i - 1],
                    &thetas.constraints[i - 1],
                )
            };
            MfGp::fit_frozen_infer_shared(
                low.xs.clone(),
                yl.clone(),
                high.xs.clone(),
                yh.clone(),
                t,
                mc_samples,
                inference,
                Some(batch),
            )
            .map(|m| m.with_parallelism(parallelism))
        });
        let mut models = fitted.into_iter();
        let objective = models.next().expect("bundle contains the objective")?;
        let constraints = models.collect::<Result<Vec<_>, _>>()?;
        Ok(MfSurrogates {
            objective,
            constraints,
        })
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
    /// *every* model in the bundle. Only meaningful after a warm fit
    /// ([`MfSurrogates::fit_warm`]); the signal behind the
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

    /// The first-feasible-point objective of eq. (13) using high-fidelity
    /// constraint posterior means.
    pub fn feasibility_drive(&self, x: &[f64]) -> f64 {
        let means: Vec<f64> = self.constraints.iter().map(|c| c.predict(x).mean).collect();
        acquisition::feasibility_drive(&means)
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
    /// Fits one SE-ARD GP per output.
    ///
    /// # Errors
    ///
    /// Propagates the first [`GpError`] encountered.
    pub fn fit<R: Rng + ?Sized>(
        data: &FidelityData,
        config: &GpConfig,
        rng: &mut R,
    ) -> Result<Self, GpError> {
        let dim = data
            .xs
            .first()
            .map(Vec::len)
            .ok_or_else(|| GpError::InvalidTrainingSet {
                reason: "no training points".into(),
            })?;
        let kernel = SquaredExponential::new(dim);
        // Serial planning (objective first, then each constraint, matching
        // the sequential draw order), parallel pure fits.
        let plans: Vec<Vec<Vec<f64>>> = (0..=data.constraints.len())
            .map(|_| Gp::plan_starts(&kernel, config, rng))
            .collect();
        Self::fit_all_planned(data, config, plans, None)
    }

    /// [`SfSurrogates::fit`] backed by a persistent [`FitCache`]: the
    /// pairwise-difference batch is synced incrementally against `data.xs`
    /// and shared across every model in the bundle. Bit-identical to
    /// [`SfSurrogates::fit`].
    ///
    /// # Errors
    ///
    /// Propagates the first [`GpError`] encountered.
    pub fn fit_with_cache<R: Rng + ?Sized>(
        data: &FidelityData,
        config: &GpConfig,
        rng: &mut R,
        cache: &mut FitCache,
    ) -> Result<Self, GpError> {
        let dim = data
            .xs
            .first()
            .map(Vec::len)
            .ok_or_else(|| GpError::InvalidTrainingSet {
                reason: "no training points".into(),
            })?;
        let kernel = SquaredExponential::new(dim);
        // Plans are drawn before the cache sync so the RNG consumption order
        // matches `fit` exactly.
        let plans: Vec<Vec<Vec<f64>>> = (0..=data.constraints.len())
            .map(|_| Gp::plan_starts(&kernel, config, rng))
            .collect();
        cache.sync(&data.xs);
        let batch = cache.batch();
        Self::fit_all_planned(data, config, plans, Some(&batch))
    }

    /// Runs the (pure) per-model fits from pre-drawn starting points,
    /// distributed over `config.parallelism`. `plans[0]` trains the
    /// objective, `plans[i + 1]` constraint `i`. One pairwise-difference
    /// batch over `data.xs` (supplied via `shared`, or built here) serves
    /// every model.
    fn fit_all_planned(
        data: &FidelityData,
        config: &GpConfig,
        plans: Vec<Vec<Vec<f64>>>,
        shared: Option<&DiffBatch<'_>>,
    ) -> Result<Self, GpError> {
        let dim = data
            .xs
            .first()
            .map(Vec::len)
            .ok_or_else(|| GpError::InvalidTrainingSet {
                reason: "no training points".into(),
            })?;
        let local;
        let batch: &DiffBatch<'_> = match shared {
            Some(b) => b,
            None => {
                local = DiffBatch::lower_triangle(&data.xs);
                &local
            }
        };
        let fitted = par_map_indexed(config.parallelism, plans.len(), |i| {
            let ys = if i == 0 {
                &data.objective
            } else {
                &data.constraints[i - 1]
            };
            Gp::fit_planned_shared(
                SquaredExponential::new(dim),
                data.xs.clone(),
                ys.clone(),
                config,
                plans[i].clone(),
                Some(batch),
            )
        });
        let mut models = fitted.into_iter();
        let objective = models.next().expect("plans contains the objective")?;
        let constraints = models.collect::<Result<Vec<_>, _>>()?;
        Ok(SfSurrogates {
            objective,
            constraints,
        })
    }

    /// Like [`SfSurrogates::fit`], seeding each model's search with the
    /// previous optimum.
    ///
    /// # Errors
    ///
    /// Propagates the first [`GpError`] encountered.
    pub fn fit_warm<R: Rng + ?Sized>(
        data: &FidelityData,
        config: &GpConfig,
        warm: &SfBundleThetas,
        rng: &mut R,
    ) -> Result<Self, GpError> {
        let dim = data
            .xs
            .first()
            .map(Vec::len)
            .ok_or_else(|| GpError::InvalidTrainingSet {
                reason: "no training points".into(),
            })?;
        let kernel = SquaredExponential::new(dim);
        // Warm starts only influence the planned starting points, so the
        // per-model warm configs are needed at plan time only.
        let plans: Vec<Vec<Vec<f64>>> = (0..=data.constraints.len())
            .map(|i| {
                let w = if i == 0 {
                    &warm.objective
                } else {
                    &warm.constraints[i - 1]
                };
                let mut cfg = config.clone();
                cfg.warm_start = Some(w.clone());
                Gp::plan_starts(&kernel, &cfg, rng)
            })
            .collect();
        Self::fit_all_planned(data, config, plans, None)
    }

    /// [`SfSurrogates::fit_warm`] backed by a persistent [`FitCache`]
    /// (see [`SfSurrogates::fit_with_cache`]). Bit-identical to
    /// [`SfSurrogates::fit_warm`].
    ///
    /// # Errors
    ///
    /// Propagates the first [`GpError`] encountered.
    pub fn fit_warm_with_cache<R: Rng + ?Sized>(
        data: &FidelityData,
        config: &GpConfig,
        warm: &SfBundleThetas,
        rng: &mut R,
        cache: &mut FitCache,
    ) -> Result<Self, GpError> {
        let dim = data
            .xs
            .first()
            .map(Vec::len)
            .ok_or_else(|| GpError::InvalidTrainingSet {
                reason: "no training points".into(),
            })?;
        let kernel = SquaredExponential::new(dim);
        let plans: Vec<Vec<Vec<f64>>> = (0..=data.constraints.len())
            .map(|i| {
                let w = if i == 0 {
                    &warm.objective
                } else {
                    &warm.constraints[i - 1]
                };
                let mut cfg = config.clone();
                cfg.warm_start = Some(w.clone());
                Gp::plan_starts(&kernel, &cfg, rng)
            })
            .collect();
        cache.sync(&data.xs);
        let batch = cache.batch();
        Self::fit_all_planned(data, config, plans, Some(&batch))
    }

    /// Rebuilds every model on new data with frozen hyperparameters.
    ///
    /// # Errors
    ///
    /// Propagates the first [`GpError`] encountered.
    pub fn fit_frozen(
        data: &FidelityData,
        thetas: &SfBundleThetas,
        parallelism: Parallelism,
    ) -> Result<Self, GpError> {
        Self::fit_frozen_infer(data, thetas, parallelism, InferenceMode::Exact)
    }

    /// [`SfSurrogates::fit_frozen`] with an explicit [`InferenceMode`];
    /// `Exact` is byte-identical to [`SfSurrogates::fit_frozen`].
    ///
    /// # Errors
    ///
    /// Propagates the first [`GpError`] encountered.
    pub fn fit_frozen_infer(
        data: &FidelityData,
        thetas: &SfBundleThetas,
        parallelism: Parallelism,
        inference: InferenceMode,
    ) -> Result<Self, GpError> {
        Self::fit_frozen_infer_planned(data, thetas, parallelism, inference, None)
    }

    /// [`SfSurrogates::fit_frozen_infer`] backed by a persistent
    /// [`FitCache`] (see [`SfSurrogates::fit_with_cache`]). Bit-identical
    /// to [`SfSurrogates::fit_frozen_infer`].
    ///
    /// # Errors
    ///
    /// Propagates the first [`GpError`] encountered.
    pub fn fit_frozen_infer_with_cache(
        data: &FidelityData,
        thetas: &SfBundleThetas,
        parallelism: Parallelism,
        inference: InferenceMode,
        cache: &mut FitCache,
    ) -> Result<Self, GpError> {
        cache.sync(&data.xs);
        let batch = cache.batch();
        Self::fit_frozen_infer_planned(data, thetas, parallelism, inference, Some(&batch))
    }

    /// The frozen-refresh worker: one shared pairwise-difference batch
    /// serves every model in the bundle.
    fn fit_frozen_infer_planned(
        data: &FidelityData,
        thetas: &SfBundleThetas,
        parallelism: Parallelism,
        inference: InferenceMode,
        shared: Option<&DiffBatch<'_>>,
    ) -> Result<Self, GpError> {
        let dim = data
            .xs
            .first()
            .map(Vec::len)
            .ok_or_else(|| GpError::InvalidTrainingSet {
                reason: "no training points".into(),
            })?;
        let local;
        let batch: &DiffBatch<'_> = match shared {
            Some(b) => b,
            None => {
                local = DiffBatch::lower_triangle(&data.xs);
                &local
            }
        };
        let split = |t: &[f64]| {
            let (kp, ln) = t.split_at(t.len() - 1);
            (kp.to_vec(), ln[0])
        };
        // Frozen refits consume no randomness at all, so the per-model
        // factorizations go straight onto the pool.
        let fitted = par_map_indexed(parallelism, data.constraints.len() + 1, |i| {
            let (ys, t) = if i == 0 {
                (&data.objective, &thetas.objective)
            } else {
                (&data.constraints[i - 1], &thetas.constraints[i - 1])
            };
            let (kp, ln) = split(t);
            Gp::with_params_inference_shared(
                SquaredExponential::new(dim),
                data.xs.clone(),
                ys.clone(),
                kp,
                ln,
                true,
                inference,
                Some(batch),
            )
        });
        let mut models = fitted.into_iter();
        let objective = models.next().expect("bundle contains the objective")?;
        let constraints = models.collect::<Result<Vec<_>, _>>()?;
        Ok(SfSurrogates {
            objective,
            constraints,
        })
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

    /// Lower confidence bound of the objective (used by GASPAD).
    pub fn lcb(&self, x: &[f64], kappa: f64) -> f64 {
        let p = self.objective.predict(x);
        acquisition::lower_confidence_bound(p.mean, p.std_dev(), kappa)
    }

    /// Probability that all constraints are satisfied at `x`.
    pub fn feasibility_probability(&self, x: &[f64]) -> f64 {
        self.constraints
            .iter()
            .map(|c| {
                let p = c.predict(x);
                acquisition::probability_of_feasibility(p.mean, p.std_dev())
            })
            .product()
    }

    /// The first-feasible-point objective of eq. (13).
    pub fn feasibility_drive(&self, x: &[f64]) -> f64 {
        let means: Vec<f64> = self.constraints.iter().map(|c| c.predict(x).mean).collect();
        acquisition::feasibility_drive(&means)
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
        let s = SfSurrogates::fit(&data, &GpConfig::fast(), &mut rng).unwrap();
        let (obj, cons) = s.predict(&[0.5]);
        assert!((obj.mean - 0.25).abs() < 0.1);
        assert_eq!(cons.len(), 1);
        assert!((cons[0].mean - (-0.2)).abs() < 0.1);
        // Feasibility probability should be high at x = 0.9, low at x = 0.05.
        assert!(s.feasibility_probability(&[0.9]) > 0.8);
        assert!(s.feasibility_probability(&[0.05]) < 0.2);
    }

    #[test]
    fn sf_wei_prefers_feasible_improvement() {
        let data = make_data(12, 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let s = SfSurrogates::fit(&data, &GpConfig::fast(), &mut rng).unwrap();
        let tau = 0.5;
        // x = 0.4: feasible with objective 0.16 < τ → good wEI.
        // x = 0.1: better objective but infeasible → tiny wEI.
        let good = s.wei(&[0.4], tau);
        let blocked = s.wei(&[0.1], tau);
        assert!(good > blocked * 5.0, "good {good}, blocked {blocked}");
    }

    #[test]
    fn sf_feasibility_drive_zero_inside_feasible_region() {
        let data = make_data(12, 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let s = SfSurrogates::fit(&data, &GpConfig::fast(), &mut rng).unwrap();
        assert_eq!(s.feasibility_drive(&[0.9]), 0.0);
        assert!(s.feasibility_drive(&[0.0]) > 0.1);
    }

    #[test]
    fn sf_lcb_below_mean() {
        let data = make_data(10, 0.0);
        let mut rng = StdRng::seed_from_u64(3);
        let s = SfSurrogates::fit(&data, &GpConfig::fast(), &mut rng).unwrap();
        let p = s.objective().predict(&[0.5]);
        assert!(s.lcb(&[0.5], 2.0) <= p.mean);
    }

    #[test]
    fn mf_bundle_fits_and_exposes_models() {
        let low = make_data(20, 0.3);
        let high = make_data(8, 0.0);
        let mut rng = StdRng::seed_from_u64(4);
        let s = MfSurrogates::fit(&low, &high, &MfGpConfig::fast(), &mut rng).unwrap();
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
        let sparse = MfSurrogates::fit(&low_sparse, &high, &MfGpConfig::fast(), &mut rng).unwrap();
        let dense = MfSurrogates::fit(&low_dense, &high, &MfGpConfig::fast(), &mut rng).unwrap();
        // Between training points, the dense model is far more certain.
        let x = [0.513];
        assert!(dense.max_low_variance(&x) <= sparse.max_low_variance(&x) + 1e-6);
    }

    #[test]
    fn mf_wei_high_and_low_are_nonnegative() {
        let low = make_data(15, 0.3);
        let high = make_data(6, 0.0);
        let mut rng = StdRng::seed_from_u64(6);
        let s = MfSurrogates::fit(&low, &high, &MfGpConfig::fast(), &mut rng).unwrap();
        for &x in &[0.1, 0.5, 0.77] {
            assert!(s.wei_low(&[x], 0.4) >= 0.0);
            assert!(s.wei_high(&[x], 0.4) >= 0.0);
        }
    }

    fn assert_theta_bits_eq(a: &MfGpThetas, b: &MfGpThetas) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.low), bits(&b.low));
        assert_eq!(bits(&a.high), bits(&b.high));
    }

    /// Simulates the BO loop's growing training set: at every step the
    /// cache-backed fit must agree bit for bit with the fresh fit — thetas
    /// and posterior alike — even across truncation (shrinking data mimics
    /// a constant-liar fantasy point vanishing between iterations).
    #[test]
    fn mf_fit_with_cache_bit_identity_across_iterations() {
        let high = make_data(6, 0.0);
        let mut cache = FitCache::default();
        for n in [10usize, 11, 14, 12] {
            let low = make_data(n, 0.3);
            let mut rng_a = StdRng::seed_from_u64(9);
            let mut rng_b = StdRng::seed_from_u64(9);
            let fresh = MfSurrogates::fit(&low, &high, &MfGpConfig::fast(), &mut rng_a).unwrap();
            let cached = MfSurrogates::fit_with_cache(
                &low,
                &high,
                &MfGpConfig::fast(),
                &mut rng_b,
                &mut cache,
            )
            .unwrap();
            assert_theta_bits_eq(&fresh.thetas().objective, &cached.thetas().objective);
            for (f, c) in fresh
                .thetas()
                .constraints
                .iter()
                .zip(&cached.thetas().constraints)
            {
                assert_theta_bits_eq(f, c);
            }
            for &x in &[0.07, 0.52, 0.93] {
                let (pf, cf) = fresh.predict_high(&[x]);
                let (pc, cc) = cached.predict_high(&[x]);
                assert_eq!(pf.mean.to_bits(), pc.mean.to_bits());
                assert_eq!(pf.var.to_bits(), pc.var.to_bits());
                for (a, b) in cf.iter().zip(&cc) {
                    assert_eq!(a.mean.to_bits(), b.mean.to_bits());
                    assert_eq!(a.var.to_bits(), b.var.to_bits());
                }
            }
        }
    }

    /// Frozen refreshes through the cache match the fresh frozen build bit
    /// for bit.
    #[test]
    fn mf_frozen_with_cache_bit_identity() {
        let low = make_data(18, 0.3);
        let high = make_data(7, 0.0);
        let mut rng = StdRng::seed_from_u64(12);
        let s = MfSurrogates::fit(&low, &high, &MfGpConfig::fast(), &mut rng).unwrap();
        let t = s.thetas();
        let cfg = MfGpConfig::fast();
        let fresh = MfSurrogates::fit_frozen_infer(
            &low,
            &high,
            &t,
            cfg.mc_samples,
            Parallelism::Serial,
            InferenceMode::Exact,
        )
        .unwrap();
        let mut cache = FitCache::default();
        let cached = MfSurrogates::fit_frozen_infer_with_cache(
            &low,
            &high,
            &t,
            cfg.mc_samples,
            Parallelism::Serial,
            InferenceMode::Exact,
            &mut cache,
        )
        .unwrap();
        for &x in &[0.11, 0.66] {
            let (pf, _) = fresh.predict_high(&[x]);
            let (pc, _) = cached.predict_high(&[x]);
            assert_eq!(pf.mean.to_bits(), pc.mean.to_bits());
            assert_eq!(pf.var.to_bits(), pc.var.to_bits());
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
            MfSurrogates::fit(&low, &high, &MfGpConfig::fast(), &mut rng).unwrap();
        });
        // Unshared baseline: every model builds its own low batch.
        let (builds_owned, _, kmb_owned) = count(&|| {
            let mut rng = StdRng::seed_from_u64(21);
            let cfg = MfGpConfig::fast();
            let plan_o = MfGp::plan(1, &cfg, &mut rng);
            let plan_c = MfGp::plan(1, &cfg, &mut rng);
            MfGp::fit_planned(
                low.xs.clone(),
                low.objective.clone(),
                high.xs.clone(),
                high.objective.clone(),
                &cfg,
                plan_o,
            )
            .unwrap();
            MfGp::fit_planned(
                low.xs.clone(),
                low.constraints[0].clone(),
                high.xs.clone(),
                high.constraints[0].clone(),
                &cfg,
                plan_c,
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
