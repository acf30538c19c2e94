//! Surrogate bundles: one model per output (objective + each constraint),
//! at one or two fidelities, and the refit schedule the BO loops run them
//! on.
//!
//! The paper models every circuit performance separately — the objective and
//! each constraint get their own GP (single-fidelity case, §2.4) or their
//! own fusion model (multi-fidelity case, §3). [`Surrogates`] holds such a
//! family for either kind of model ([`OutputModel`]) and wires the
//! per-output posteriors into the acquisition formulas of
//! [`crate::acquisition`]; [`RefitSchedule`] decides, each iteration,
//! whether the family is re-searched or refreshed at its last θ.

use crate::acquisition;
use crate::history::FidelityData;
use crate::nargp::{split_theta, MfGp, MfGpConfig, MfGpPlan, MfGpThetas};
use mfbo_gp::kernel::SquaredExponential;
use mfbo_gp::{with_scratch, DiffBatch, Gp, GpConfig, GpError, Prediction};
use mfbo_pool::par_map_indexed;
use rand::Rng;

/// One output's model in a [`Surrogates`] bundle: an SE-ARD GP (single
/// fidelity) or a fusion model (two fidelities). Every model of a bundle
/// trains its first stage on the same inputs, so the bundle selects their
/// subset and builds their difference batch once.
pub trait OutputModel: Sized + Send + Sync {
    /// The bundle's training data.
    type Data<'a>: Copy + Sync;
    /// The training configuration.
    type Config: Sync;
    /// One model's trained hyperparameters.
    type Theta: Clone + PartialEq + std::fmt::Debug + Send + Sync + 'static;
    /// One model's pre-drawn NLML starting points.
    type Plan: Clone + Sync;

    /// The observations whose inputs every first stage trains on, and the
    /// input dimension.
    ///
    /// # Errors
    ///
    /// [`GpError::InvalidTrainingSet`] for data with no (high-fidelity)
    /// training points.
    fn shared<'a>(data: Self::Data<'a>) -> Result<(&'a FidelityData, usize), GpError>;

    /// The GP settings of every stage: inference engine and pool.
    fn gp(config: &Self::Config) -> &GpConfig;

    /// Draws one model's NLML starting points; `warm` adds one start that
    /// consumes no randomness.
    fn plan<R: Rng + ?Sized>(
        dim: usize,
        config: &Self::Config,
        warm: Option<&Self::Theta>,
        rng: &mut R,
    ) -> Self::Plan;

    /// Builds output `i`'s model on `data` as `how` says, its first stage
    /// on the shared inputs at `rows` (their subset, selected once per
    /// bundle) and output `i`'s observations there. A search reads `batch`
    /// when it fits those inputs (see [`Gp::fit_planned`]).
    ///
    /// # Errors
    ///
    /// Propagates the model's [`GpError`].
    fn train(
        data: Self::Data<'_>,
        i: usize,
        rows: &[usize],
        config: &Self::Config,
        how: Train<Self::Plan, &Self::Theta>,
        batch: Option<&DiffBatch>,
    ) -> Result<Self, GpError>;

    /// The trained hyperparameters.
    fn theta(&self) -> Self::Theta;

    /// The (high-fidelity) posterior at `x`, in raw units.
    fn posterior(&self, x: &[f64]) -> Prediction;

    /// The raw posterior means at `points`, into `out`, bit-identical to
    /// the `mean` of [`OutputModel::posterior`].
    fn posterior_means(&self, points: &[Vec<f64>], out: &mut [f64]);
}

/// How a model, or a bundle of them, is built from plan `P` or θ `T`.
pub enum Train<P, T> {
    /// An NLML search from the plan.
    Search(P),
    /// A rebuild at θ with no search.
    Frozen(T),
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

impl OutputModel for Gp<SquaredExponential> {
    type Data<'a> = &'a FidelityData;
    type Config = GpConfig;
    type Theta = Vec<f64>;
    type Plan = Vec<Vec<f64>>;

    fn shared<'a>(data: Self::Data<'a>) -> Result<(&'a FidelityData, usize), GpError> {
        Ok((data, input_dim(&data.xs, "no training points")?))
    }

    fn gp(config: &GpConfig) -> &GpConfig {
        config
    }

    fn plan<R: Rng + ?Sized>(
        dim: usize,
        config: &GpConfig,
        warm: Option<&Vec<f64>>,
        rng: &mut R,
    ) -> Vec<Vec<f64>> {
        let warm = warm.map(Vec::as_slice);
        Gp::plan_starts(&SquaredExponential::new(dim), config, warm, rng)
    }

    fn train(
        data: &FidelityData,
        i: usize,
        rows: &[usize],
        config: &GpConfig,
        how: Train<Vec<Vec<f64>>, &Vec<f64>>,
        batch: Option<&DiffBatch>,
    ) -> Result<Self, GpError> {
        let kernel = SquaredExponential::new(Self::shared(data)?.1);
        let (xs, ys) = (pick(&data.xs, rows), pick(data.output(i), rows));
        match how {
            Train::Search(plan) => Gp::fit_planned(kernel, xs, ys, config, plan, batch),
            Train::Frozen(theta) => {
                let (kp, ln) = split_theta(theta);
                Gp::with_params(kernel, xs, ys, kp, ln, config)
            }
        }
    }

    fn theta(&self) -> Vec<f64> {
        Gp::theta(self)
    }

    fn posterior(&self, x: &[f64]) -> Prediction {
        self.predict(x)
    }

    fn posterior_means(&self, points: &[Vec<f64>], out: &mut [f64]) {
        self.predict_means_standardized(points, out);
        for m in out {
            *m = self.standardizer().inverse(*m);
        }
    }
}

/// A fusion model's data is `(low, high)`; its low stage trains on the
/// shared `X_l`. Each model's high stage sees its own augmented inputs (the
/// last coordinate is its own low posterior mean), so the high stage
/// selects its subset and builds its batch per model.
impl OutputModel for MfGp {
    type Data<'a> = (&'a FidelityData, &'a FidelityData);
    type Config = MfGpConfig;
    type Theta = MfGpThetas;
    type Plan = MfGpPlan;

    fn shared<'a>((low, high): Self::Data<'a>) -> Result<(&'a FidelityData, usize), GpError> {
        Ok((
            low,
            input_dim(&high.xs, "no high-fidelity training points")?,
        ))
    }

    fn gp(config: &MfGpConfig) -> &GpConfig {
        &config.gp
    }

    fn plan<R: Rng + ?Sized>(
        dim: usize,
        config: &MfGpConfig,
        warm: Option<&MfGpThetas>,
        rng: &mut R,
    ) -> MfGpPlan {
        MfGp::plan(dim, config, warm, rng)
    }

    fn train(
        (low, high): Self::Data<'_>,
        i: usize,
        rows: &[usize],
        config: &MfGpConfig,
        how: Train<MfGpPlan, &MfGpThetas>,
        batch: Option<&DiffBatch>,
    ) -> Result<Self, GpError> {
        let (xl, yl) = (pick(&low.xs, rows), pick(low.output(i), rows));
        let (xh, yh) = (high.xs.clone(), high.output(i).to_vec());
        match how {
            Train::Search(plan) => MfGp::fit_planned(xl, yl, xh, yh, config, plan, batch),
            Train::Frozen(theta) => MfGp::fit_frozen(xl, yl, xh, yh, config, theta),
        }
    }

    fn theta(&self) -> MfGpThetas {
        self.thetas()
    }

    fn posterior(&self, x: &[f64]) -> Prediction {
        self.predict(x)
    }

    fn posterior_means(&self, points: &[Vec<f64>], out: &mut [f64]) {
        self.predict_means(points, out);
    }
}

/// A surrogate bundle: one [`OutputModel`] per output, the objective's
/// first, then one per constraint.
#[derive(Debug, Clone)]
pub struct Surrogates<M> {
    models: Vec<M>,
}

impl<M: OutputModel> Surrogates<M> {
    /// Fits every output's model by a full hyperparameter search — seeded
    /// with that model's previous optimum as one extra start when `warm`
    /// (objective first) is given. The starting points are drawn from `rng`
    /// serially in output order; the fits are pure and run on the config's
    /// pool, so the bundle is bit-identical in every mode.
    ///
    /// # Errors
    ///
    /// [`GpError::InvalidTrainingSet`] when the full shared data fails
    /// [`Gp::validate`] for any output; otherwise the first [`GpError`] in
    /// output order.
    pub fn fit<R: Rng + ?Sized>(
        data: M::Data<'_>,
        config: &M::Config,
        warm: Option<&[M::Theta]>,
        rng: &mut R,
    ) -> Result<Self, GpError> {
        let (shared, dim) = M::shared(data)?;
        let plans: Vec<M::Plan> = (0..=shared.constraints.len())
            .map(|i| M::plan(dim, config, warm.map(|w| &w[i]), rng))
            .collect();
        Self::train_all(data, config, Train::Search(plans))
    }

    /// Rebuilds every model on new data at `thetas` (objective first) with
    /// no search — the cheap path between full refits. Consumes no
    /// randomness and builds no difference batch.
    ///
    /// # Errors
    ///
    /// As for [`Surrogates::fit`].
    pub fn fit_frozen(
        data: M::Data<'_>,
        config: &M::Config,
        thetas: &[M::Theta],
    ) -> Result<Self, GpError> {
        Self::train_all(data, config, Train::Frozen(thetas))
    }

    /// Trains every output's model as `how` says (objective first), on the
    /// config's pool, keeping the first error in output order. The shared
    /// data is validated whole; then every first stage trains on the rows
    /// [`GpConfig::training_subset`] keeps, selected once, and a search
    /// reads one difference batch over them (bit-identical to a subset and
    /// a batch per model).
    fn train_all(
        data: M::Data<'_>,
        config: &M::Config,
        how: Train<Vec<M::Plan>, &[M::Theta]>,
    ) -> Result<Self, GpError> {
        let (shared, dim) = M::shared(data)?;
        let n = shared.constraints.len() + 1;
        let kernel = SquaredExponential::new(dim);
        for i in 0..n {
            Gp::validate(&kernel, &shared.xs, shared.output(i))?;
        }
        let gp = M::gp(config);
        let rows = gp
            .training_subset(&shared.xs)
            .unwrap_or_else(|| (0..shared.len()).collect());
        let search = matches!(how, Train::Search(_));
        let batch = search.then(|| DiffBatch::lower_triangle(&pick(&shared.xs, &rows)));
        let fitted = par_map_indexed(gp.parallelism, n, |i| {
            let how = match &how {
                Train::Search(plans) => Train::Search(plans[i].clone()),
                Train::Frozen(thetas) => Train::Frozen(&thetas[i]),
            };
            M::train(data, i, &rows, config, how, batch.as_ref())
        });
        let models = fitted.into_iter().collect::<Result<_, _>>()?;
        Ok(Surrogates { models })
    }

    /// The trained hyperparameters of every model, objective first.
    pub fn thetas(&self) -> Vec<M::Theta> {
        self.models.iter().map(M::theta).collect()
    }

    /// The objective model.
    pub fn objective(&self) -> &M {
        &self.models[0]
    }

    /// The constraint models.
    pub fn constraints(&self) -> &[M] {
        &self.models[1..]
    }

    /// Weighted EI of the (high-fidelity) posteriors at `x` against
    /// incumbent `tau` (Algorithm 1, line 6). EI comes first, and each
    /// constraint is predicted only while the running product is nonzero:
    /// the constraints [`acquisition::weighted_ei`] would skip are never
    /// predicted.
    pub fn wei(&self, x: &[f64], tau: f64) -> f64 {
        self.wei_of(x, tau, M::posterior)
    }

    /// [`Surrogates::wei`] from the posteriors `predict` returns.
    fn wei_of(&self, x: &[f64], tau: f64, predict: impl Fn(&M, &[f64]) -> Prediction) -> f64 {
        let p = predict(self.objective(), x);
        let cons = self.constraints().iter().map(|c| {
            let cp = predict(c, x);
            (cp.mean, cp.std_dev())
        });
        acquisition::weighted_ei(p.mean, p.std_dev(), tau, cons)
    }

    /// Eq. (13)'s feasibility drive plus `1e-4` × the objective mean — the
    /// tie-break that steers the search toward good designs once the drive
    /// term flattens at zero — at each of `points` into `out`, from the
    /// posterior means ([`OutputModel::posterior_means`]). Each model
    /// predicts from its own fit-time layout, allocating nothing once the
    /// thread's scratch is warm.
    pub fn drive(&self, points: &[Vec<f64>], out: &mut [f64]) {
        let m = out.len();
        if m == 0 {
            return;
        }
        let c = self.models.len() - 1;
        with_scratch((1 + c) * m + c, |buf| {
            let (rows, at) = buf.split_at_mut((1 + c) * m);
            for (model, row) in self.models.iter().zip(rows.chunks_exact_mut(m)) {
                model.posterior_means(points, row);
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
}

/// The entries of `v` at `rows`.
fn pick<T: Clone>(v: &[T], rows: &[usize]) -> Vec<T> {
    rows.iter().map(|&k| v[k].clone()).collect()
}

impl Surrogates<MfGp> {
    /// Weighted EI of the **low-fidelity** models at `x` against incumbent
    /// `tau_l` (Algorithm 1, line 5), predicting lazily as
    /// [`Surrogates::wei`] does.
    pub fn wei_low(&self, x: &[f64], tau_l: f64) -> f64 {
        self.wei_of(x, tau_l, MfGp::predict_low)
    }

    /// Maximum standardized low-fidelity posterior variance over all outputs
    /// — the left-hand side of the fidelity-selection criterion, eq. (12).
    pub fn max_low_variance(&self, x: &[f64]) -> f64 {
        self.models
            .iter()
            .map(|m| m.low_variance_standardized(x))
            .reduce(f64::max)
            .expect("a bundle contains the objective")
    }

    /// `true` when the warm-start seed (plan index 1; see
    /// [`mfbo_gp::Gp::best_start`]) won the NLML search in *both* stages of
    /// *every* model in the bundle. Only meaningful after a warm
    /// [`Surrogates::fit`]; the signal behind the `theta_warm_wins`
    /// counter.
    pub fn warm_seed_won(&self) -> bool {
        self.models
            .iter()
            .all(|m| m.best_starts() == (Some(1), Some(1)))
    }
}

/// How [`RefitSchedule::fit`] produced an iteration's bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refit {
    /// A full search from the default and random starts: the first fit,
    /// or the recovery after a failed frozen refresh.
    Cold,
    /// A scheduled full search with the previous optimum as one extra
    /// start.
    Warm,
    /// A rebuild at the previous optimum, with no search.
    Frozen,
}

/// The refit schedule of a BO loop's bundle (Algorithm 1, line 3): a full
/// hyperparameter search every `every` fits, warm-started from the
/// previous optimum; frozen refreshes at that optimum in between; and a
/// cold full search from scratch when a refresh fails, which does not
/// restart the count. `every` = 1 searches every iteration; 0 does too.
#[derive(Debug, Clone)]
pub struct RefitSchedule<M: OutputModel> {
    every: usize,
    /// Fits since the last full search.
    since_search: usize,
    /// The last fit's hyperparameters, objective first.
    thetas: Option<Vec<M::Theta>>,
}

impl<M: OutputModel> RefitSchedule<M> {
    /// A schedule that searches every `every` fits, the first cold.
    pub fn new(every: usize) -> Self {
        RefitSchedule {
            every,
            since_search: 0,
            thetas: None,
        }
    }

    /// Fits this iteration's bundle on `data` by the schedule, drawing any
    /// search's starting points from `rng`, and keeps its θ for the next.
    ///
    /// # Errors
    ///
    /// Propagates the [`GpError`] of a failed full search.
    pub fn fit<R: Rng + ?Sized>(
        &mut self,
        data: M::Data<'_>,
        config: &M::Config,
        rng: &mut R,
    ) -> Result<(Surrogates<M>, Refit), GpError> {
        let fitted = match &self.thetas {
            Some(t) if self.since_search < self.every => {
                match Surrogates::fit_frozen(data, config, t) {
                    Ok(s) => (s, Refit::Frozen),
                    Err(_) => (Surrogates::fit(data, config, None, rng)?, Refit::Cold),
                }
            }
            warm => {
                self.since_search = 0;
                let kind = warm.as_ref().map_or(Refit::Cold, |_| Refit::Warm);
                (Surrogates::fit(data, config, warm.as_deref(), rng)?, kind)
            }
        };
        self.since_search += 1;
        self.thetas = Some(fitted.0.thetas());
        Ok(fitted)
    }
}

/// Serializes a hyperparameter vector for the `hyperparams` trajectory
/// event: comma-joined shortest-round-trip floats, so the analyzer can parse
/// the exact `f64` bits back out of a JSONL trace.
fn fmt_thetas(theta: &[f64]) -> String {
    let mut out = String::new();
    for (i, v) in theta.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&mfbo_telemetry::json::Json::Num(*v).to_string());
    }
    out
}

/// An ask/tell run's refit schedule, of the bundle kind its data calls for:
/// fusion models with a low-fidelity design, one SE-ARD GP per output
/// without.
pub(crate) enum RunSchedule {
    Fusion(RefitSchedule<MfGp>),
    Single(RefitSchedule<Gp<SquaredExponential>>),
}

/// One iteration's bundle of an ask/tell run.
pub(crate) enum RunSurrogates {
    Fusion(Surrogates<MfGp>),
    Single(Surrogates<Gp<SquaredExponential>>),
}

impl RunSchedule {
    /// A schedule searching every `every` fits, of fusion models when
    /// `fusion`.
    pub(crate) fn new(fusion: bool, every: usize) -> Self {
        if fusion {
            RunSchedule::Fusion(RefitSchedule::new(every))
        } else {
            RunSchedule::Single(RefitSchedule::new(every))
        }
    }

    /// Iteration `iteration`'s bundle by [`RefitSchedule::fit`] (a
    /// single-fidelity run fits `high` with `config.gp`). Counts a fusion
    /// warm search the warm seed won in `theta_warm_wins`, then emits the
    /// `hyperparams` event on the main thread, so it diffs run to run.
    pub(crate) fn fit<R: Rng + ?Sized>(
        &mut self,
        low: &FidelityData,
        high: &FidelityData,
        config: &MfGpConfig,
        iteration: usize,
        rng: &mut R,
    ) -> Result<RunSurrogates, GpError> {
        Ok(match self {
            RunSchedule::Fusion(schedule) => {
                let (s, refit) = schedule.fit((low, high), config, rng)?;
                if refit == Refit::Warm && s.warm_seed_won() {
                    mfbo_telemetry::counter!("theta_warm_wins", 1);
                }
                let objective = || s.objective().thetas();
                mfbo_telemetry::debug_event!(
                    "hyperparams",
                    iteration = iteration,
                    objective_low = fmt_thetas(&objective().low),
                    objective_high = fmt_thetas(&objective().high),
                    constraints = s
                        .constraints()
                        .iter()
                        .map(|c| {
                            let t = c.thetas();
                            format!("{}|{}", fmt_thetas(&t.low), fmt_thetas(&t.high))
                        })
                        .collect::<Vec<_>>()
                        .join(";"),
                );
                RunSurrogates::Fusion(s)
            }
            RunSchedule::Single(schedule) => {
                let (s, _) = schedule.fit(high, &config.gp, rng)?;
                mfbo_telemetry::debug_event!(
                    "hyperparams",
                    iteration = iteration,
                    objective = fmt_thetas(&s.objective().theta()),
                    constraints = s
                        .constraints()
                        .iter()
                        .map(|c| fmt_thetas(&c.theta()))
                        .collect::<Vec<_>>()
                        .join(";"),
                );
                RunSurrogates::Single(s)
            }
        })
    }
}

impl RunSurrogates {
    /// [`Surrogates::drive`] of either kind.
    pub(crate) fn drive(&self, points: &[Vec<f64>], out: &mut [f64]) {
        match self {
            RunSurrogates::Fusion(s) => s.drive(points, out),
            RunSurrogates::Single(s) => s.drive(points, out),
        }
    }

    /// [`Surrogates::wei`] of either kind: the high-fidelity wEI.
    pub(crate) fn wei(&self, x: &[f64], tau: f64) -> f64 {
        match self {
            RunSurrogates::Fusion(s) => s.wei(x, tau),
            RunSurrogates::Single(s) => s.wei(x, tau),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Evaluation;
    use mfbo_gp::InferenceMode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    type SeGp = Gp<SquaredExponential>;

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

    /// [`GpConfig::fast`] under subset-of-data capped at `max_points`.
    fn subset(max_points: usize) -> GpConfig {
        GpConfig {
            inference: InferenceMode::SubsetOfData { max_points },
            ..GpConfig::fast()
        }
    }

    /// [`MfGpConfig::fast`] whose stages train under `gp`.
    fn fusion(gp: GpConfig) -> MfGpConfig {
        MfGpConfig {
            gp,
            ..MfGpConfig::fast()
        }
    }

    #[test]
    fn sf_bundle_fits_and_predicts() {
        let data = make_data(12, 0.0);
        let mut rng = StdRng::seed_from_u64(0);
        let s = Surrogates::<SeGp>::fit(&data, &GpConfig::fast(), None, &mut rng).unwrap();
        assert!((s.objective().predict(&[0.5]).mean - 0.25).abs() < 0.1);
        assert_eq!(s.constraints().len(), 1);
        assert!((s.constraints()[0].predict(&[0.5]).mean - (-0.2)).abs() < 0.1);
    }

    #[test]
    fn sf_wei_prefers_feasible_improvement() {
        let data = make_data(12, 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let s = Surrogates::<SeGp>::fit(&data, &GpConfig::fast(), None, &mut rng).unwrap();
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
        let s = Surrogates::<SeGp>::fit(&data, &GpConfig::fast(), None, &mut rng).unwrap();
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
        let cfg = MfGpConfig::fast();
        let s = Surrogates::<MfGp>::fit((&low, &high), &cfg, None, &mut rng).unwrap();
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
        let cfg = MfGpConfig::fast();
        let sparse = Surrogates::<MfGp>::fit((&low_sparse, &high), &cfg, None, &mut rng).unwrap();
        let dense = Surrogates::<MfGp>::fit((&low_dense, &high), &cfg, None, &mut rng).unwrap();
        // Between training points, the dense model is far more certain.
        let x = [0.513];
        assert!(dense.max_low_variance(&x) <= sparse.max_low_variance(&x) + 1e-6);
    }

    #[test]
    fn mf_wei_high_and_low_are_nonnegative() {
        let low = make_data(15, 0.3);
        let high = make_data(6, 0.0);
        let mut rng = StdRng::seed_from_u64(6);
        let cfg = MfGpConfig::fast();
        let s = Surrogates::<MfGp>::fit((&low, &high), &cfg, None, &mut rng).unwrap();
        for &x in &[0.1, 0.5, 0.77] {
            assert!(s.wei_low(&[x], 0.4) >= 0.0);
            assert!(s.wei(&[x], 0.4) >= 0.0);
        }
    }

    /// Past the subset-of-data cap each fusion stage picks its subset over
    /// its own augmented inputs, so the stages can train on different
    /// design points; each stage predicts from its own layout, and the drive
    /// still matches the full posteriors bit for bit.
    #[test]
    fn bit_identity_batched_drive_mf_diverging_subsets() {
        let low = make_data(14, 0.3);
        let mut high = make_data(9, 0.0);
        for (k, c) in high.constraints[0].iter_mut().enumerate() {
            *c += 3.0 * ((k * 5) % 7) as f64;
        }
        let cfg = fusion(subset(4));
        let mut rng = StdRng::seed_from_u64(13);
        let s = Surrogates::<MfGp>::fit((&low, &high), &cfg, None, &mut rng).unwrap();
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

    /// The counters `keys` of `f` — benchmark per-layer metrics among
    /// them, whose meaning must not drift.
    fn counts<const N: usize>(keys: [&str; N], f: impl FnOnce()) -> [u64; N] {
        let reg = std::sync::Arc::new(mfbo_telemetry::metrics::MetricsRegistry::new());
        {
            let _g = mfbo_telemetry::scoped_sink(reg.clone());
            f();
        }
        let snap = reg.snapshot();
        keys.map(|k| snap.counters.get(k).copied().unwrap_or(0))
    }

    /// The `predict_batch_points` and difference-batch counters of `f`.
    fn layer_counts(f: impl FnOnce()) -> [u64; 3] {
        counts(
            [
                "predict_batch_points",
                "diffbatch_builds",
                "diffbatch_shared_hits",
            ],
            f,
        )
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
        let s = Surrogates::<MfGp>::fit((&low, &high), &cfg, None, &mut rng).unwrap();
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
        let sf = Surrogates::<SeGp>::fit(&high, &GpConfig::fast(), None, &mut rng).unwrap();
        assert_eq!(layer_counts(|| sf.drive(&tile, &mut out)), [0; 3]);
    }

    /// θ bits, then posterior mean and variance bits at fixed queries, of
    /// every model in a bundle.
    fn sf_bits(s: &Surrogates<SeGp>) -> Vec<u64> {
        let mut bits: Vec<u64> = s.thetas().iter().flatten().map(|v| v.to_bits()).collect();
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
    fn mf_bits(s: &Surrogates<MfGp>) -> Vec<u64> {
        let mut bits: Vec<u64> = s
            .thetas()
            .iter()
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
        Warm(&'a [T]),
        Frozen(&'a [T]),
    }

    /// A bundle over `data`, fitted as `fit` from the seed-9 stream:
    /// through [`Surrogates`], which selects one subset of the shared
    /// inputs and (in a full fit) shares one difference batch across its
    /// models, or (`per_model`) one model at a time on the full data, each
    /// selecting its own subset and building its own batch.
    fn bundle<M: OutputModel>(
        data: M::Data<'_>,
        cfg: &M::Config,
        fit: &Fit<M::Theta>,
        per_model: bool,
    ) -> Surrogates<M> {
        let mut rng = StdRng::seed_from_u64(9);
        let warm = match fit {
            Fit::Warm(t) => Some(*t),
            _ => None,
        };
        if !per_model {
            let s = match fit {
                Fit::Frozen(t) => Surrogates::fit_frozen(data, cfg, t),
                _ => Surrogates::fit(data, cfg, warm, &mut rng),
            };
            return s.unwrap();
        }
        let shared = M::shared(data).unwrap().0;
        let rows: Vec<usize> = (0..shared.len()).collect();
        let models = (0..=shared.constraints.len())
            .map(|i| {
                let how = match fit {
                    Fit::Frozen(t) => Train::Frozen(&t[i]),
                    _ => Train::Search(M::plan(1, cfg, warm.map(|t| &t[i]), &mut rng)),
                };
                M::train(data, i, &rows, cfg, how, None)
            })
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        Surrogates { models }
    }

    /// The bundle-level oracle of selecting and batching once: for both
    /// bundle kinds, every fit kind, and the exact and subset-of-data
    /// engines, a bundle yields the θ and posterior bits of the same
    /// bundle fitted one model at a time on the full data.
    #[test]
    fn bit_identity_bundle_shared_batch_matches_per_model() {
        let high = make_data(6, 0.0);
        let seed = make_data(9, 0.3);
        for gp in [GpConfig::fast(), subset(8)] {
            let mf_cfg = fusion(gp.clone());
            let mut rng = StdRng::seed_from_u64(12);
            let sf_t = Surrogates::<SeGp>::fit(&seed, &gp, None, &mut rng)
                .unwrap()
                .thetas();
            let mf_t = Surrogates::<MfGp>::fit((&seed, &high), &mf_cfg, None, &mut rng)
                .unwrap()
                .thetas();
            for n in [10usize, 14] {
                let low = make_data(n, 0.3);
                for fit in [Fit::Cold, Fit::Warm(&sf_t), Fit::Frozen(&sf_t)] {
                    let shared = sf_bits(&bundle(&low, &gp, &fit, false));
                    let own = sf_bits(&bundle(&low, &gp, &fit, true));
                    assert_eq!(shared, own, "Sf {fit:?}, n = {n}, {:?}", gp.inference);
                }
                let data = (&low, &high);
                for fit in [Fit::Cold, Fit::Warm(&mf_t), Fit::Frozen(&mf_t)] {
                    let shared = mf_bits(&bundle(data, &mf_cfg, &fit, false));
                    let own = mf_bits(&bundle(data, &mf_cfg, &fit, true));
                    assert_eq!(shared, own, "Mf {fit:?}, n = {n}, {:?}", gp.inference);
                }
            }
        }
    }

    /// The `diffbatch_builds`, `diffbatch_shared_hits`,
    /// `kernel_matrix_builds` and `infer_subset_selections` counters of `f`.
    fn sharing_counts(f: impl FnOnce()) -> [u64; 4] {
        counts(
            [
                "diffbatch_builds",
                "diffbatch_shared_hits",
                "kernel_matrix_builds",
                "infer_subset_selections",
            ],
            f,
        )
    }

    /// For both full-fit kinds, a bundle of 1+m models of `stages` stages
    /// each makes one difference build for every first stage plus one per
    /// later stage of each model, where 1+m per-model fits make one per
    /// stage of each model; the bundle's first stages read its build as
    /// 1+m shared hits, and both make the same `kernel_matrix_builds`,
    /// which layout sharing cannot touch. A frozen refresh builds no batch
    /// and reads none: one kernel matrix per stage of each model.
    fn check_sharing_counters<M: OutputModel>(
        data: M::Data<'_>,
        cfg: &M::Config,
        stages: u64,
        t: &[M::Theta],
    ) {
        let models = t.len() as u64;
        for fit in [Fit::Cold, Fit::Warm(t)] {
            let shared = sharing_counts(|| {
                bundle::<M>(data, cfg, &fit, false);
            });
            let owned = sharing_counts(|| {
                bundle::<M>(data, cfg, &fit, true);
            });
            let builds = (1 + (stages - 1) * models, stages * models);
            assert_eq!((shared[0], owned[0]), builds, "{fit:?}");
            assert_eq!((shared[1], owned[1]), (models, 0), "{fit:?}");
            assert_eq!(shared[2], owned[2], "{fit:?}");
        }
        let frozen = sharing_counts(|| {
            bundle::<M>(data, cfg, &Fit::Frozen(t), false);
        });
        assert_eq!(frozen, [0, 0, stages * models, 0]);
    }

    /// The whole point of the shared bundle batch, for both bundle kinds:
    /// one from-scratch build over the shared inputs instead of one per
    /// model. A fusion model's high stage trains on its own augmented
    /// inputs and keeps its own build.
    #[test]
    fn sharing_counters_of_both_bundle_kinds() {
        let (low, high) = (make_data(16, 0.3), make_data(6, 0.0));
        let (sf_cfg, mf_cfg) = (GpConfig::fast(), MfGpConfig::fast());
        let mut rng = StdRng::seed_from_u64(22);
        let sf_t = Surrogates::<SeGp>::fit(&low, &sf_cfg, None, &mut rng)
            .unwrap()
            .thetas();
        let mf_t = Surrogates::<MfGp>::fit((&low, &high), &mf_cfg, None, &mut rng)
            .unwrap()
            .thetas();
        check_sharing_counters::<SeGp>(&low, &sf_cfg, 1, &sf_t);
        check_sharing_counters::<MfGp>((&low, &high), &mf_cfg, 2, &mf_t);
    }

    /// Past the subset-of-data cap a bundle selects the subset of its
    /// shared inputs once and shares one batch over it: a 12-point bundle
    /// capped at 4 points with one constraint makes one selection, one
    /// build and a shared hit per model on a full fit, and one selection
    /// and no build on a frozen refresh. A fusion bundle's high stages
    /// (6 points each) still select and build one apiece.
    #[test]
    fn subset_bundles_build_no_unread_shared_batch() {
        let data = make_data(12, 0.0);
        let cfg = subset(4);
        let mut rng = StdRng::seed_from_u64(23);
        let t = Surrogates::<SeGp>::fit(&data, &cfg, None, &mut rng)
            .unwrap()
            .thetas();
        for (fit, want) in [(Fit::Cold, [1, 2, 1]), (Fit::Frozen(&t), [0, 0, 1])] {
            let [builds, hits, _, selections] = sharing_counts(|| {
                bundle::<SeGp>(&data, &cfg, &fit, false);
            });
            assert_eq!([builds, hits, selections], want, "{fit:?}");
        }
        let high = make_data(6, 0.0);
        let [builds, hits, _, selections] = sharing_counts(|| {
            bundle::<MfGp>((&data, &high), &fusion(cfg.clone()), &Fit::Cold, false);
        });
        assert_eq!([builds, hits, selections], [3, 2, 3]);
        // Under the cap a fit trains on every point.
        assert_eq!(cfg.training_subset(&data.xs[..4]), None);
        assert!(cfg.training_subset(&data.xs[..5]).is_some());
    }

    /// A bundle validates its whole shared set before it selects the
    /// subset: past the cap, a non-finite constraint value or an input of
    /// the wrong dimension in a row the subset drops is still an
    /// [`GpError::InvalidTrainingSet`], for both bundle kinds and both fit
    /// kinds, as it is for one model's fit.
    #[test]
    fn bundles_validate_the_rows_their_subset_drops() {
        let (data, high) = (make_data(12, 0.0), make_data(6, 0.0));
        let (cfg, mf_cfg) = (subset(4), fusion(subset(4)));
        let kept = cfg.training_subset(&data.xs).unwrap();
        let k = (1..data.len()).find(|k| !kept.contains(k)).unwrap();
        let mut rng = StdRng::seed_from_u64(25);
        let sf_t = Surrogates::<SeGp>::fit(&data, &cfg, None, &mut rng)
            .unwrap()
            .thetas();
        let mf_t = Surrogates::<MfGp>::fit((&data, &high), &mf_cfg, None, &mut rng)
            .unwrap()
            .thetas();
        let (mut nan, mut wide) = (data.clone(), data.clone());
        nan.constraints[0][k] = f64::NAN;
        wide.xs[k].push(0.5);
        for bad in [&nan, &wide] {
            let results = [
                Surrogates::<SeGp>::fit(bad, &cfg, None, &mut rng).map(drop),
                Surrogates::<SeGp>::fit_frozen(bad, &cfg, &sf_t).map(drop),
                Surrogates::<MfGp>::fit((bad, &high), &mf_cfg, None, &mut rng).map(drop),
                Surrogates::<MfGp>::fit_frozen((bad, &high), &mf_cfg, &mf_t).map(drop),
            ];
            for r in results {
                assert!(
                    matches!(r, Err(GpError::InvalidTrainingSet { .. })),
                    "{r:?}"
                );
            }
        }
    }

    /// A refit schedule searches every `every` fits, warm after the first,
    /// and refreshes in between; a refresh that fails (here a 1-D θ cannot
    /// rebuild a model over 2-D inputs) is replaced by a cold search drawn
    /// from the same stream, which does not restart the count.
    #[test]
    fn refit_schedule_recovers_a_failed_refresh_with_a_cold_search() {
        let cfg = GpConfig::fast();
        let one = make_data(8, 0.0);
        let mut two = FidelityData::new(1);
        for (k, x) in one.xs.iter().enumerate() {
            let e = one.evaluation(k);
            two.push(vec![x[0], (3 * k % 8) as f64 / 7.0], &e);
        }
        let mut schedule = RefitSchedule::<SeGp>::new(3);
        let mut rng = StdRng::seed_from_u64(31);
        let mut kinds = Vec::new();
        let mut fitted = Vec::new();
        for data in [&one, &two, &two, &two] {
            let (s, kind) = schedule.fit(data, &cfg, &mut rng).unwrap();
            kinds.push(kind);
            fitted.push(sf_bits_of(&s));
        }
        use Refit::*;
        assert_eq!(kinds, [Cold, Cold, Frozen, Warm]);
        let mut twin = StdRng::seed_from_u64(31);
        Surrogates::<SeGp>::fit(&one, &cfg, None, &mut twin).unwrap();
        let cold = Surrogates::<SeGp>::fit(&two, &cfg, None, &mut twin).unwrap();
        assert_eq!(fitted[1], sf_bits_of(&cold));
    }

    /// The θ bits of a bundle over inputs of any dimension.
    fn sf_bits_of(s: &Surrogates<SeGp>) -> Vec<u64> {
        s.thetas().iter().flatten().map(|v| v.to_bits()).collect()
    }

    /// wEI with every constraint predicted up front, as the bundles
    /// computed it before predicting lazily.
    fn eager_wei(p: Prediction, tau: f64, cons: &[Prediction]) -> f64 {
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
        let s = Surrogates::<MfGp>::fit((&low, &high), &cfg, None, &mut rng).unwrap();
        let sf = Surrogates::<SeGp>::fit(&high, &GpConfig::fast(), None, &mut rng).unwrap();
        let x = [0.537];
        let per_model = 1 + cfg.mc_samples as u64;
        let (zero, some) = (-1e9, 1e9);

        let o = s.objective();
        assert_eq!(
            acquisition::expected_improvement(o.predict(&x).mean, o.predict(&x).std_dev(), zero),
            0.0
        );
        assert_eq!(
            layer_counts(|| assert_eq!(s.wei(&x, zero), 0.0))[0],
            per_model
        );
        assert_eq!(
            layer_counts(|| assert!(s.wei(&x, some) > 0.0))[0],
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
            assert_eq!(s.wei(&x, tau).to_bits(), want.to_bits());
            let want = eager_wei(o.predict_low(&x), tau, &lows);
            assert_eq!(s.wei_low(&x, tau).to_bits(), want.to_bits());
            let want = eager_wei(sf.objective().predict(&x), tau, &sfs);
            assert_eq!(sf.wei(&x, tau).to_bits(), want.to_bits());
        }
    }
}
