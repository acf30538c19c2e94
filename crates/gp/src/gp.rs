//! Gaussian-process regression model: training and posterior prediction.

use crate::kernel::{Kernel, NargpKernel};
use crate::nlml::{kernel_matrix_from_layout, nlml_grad_cached, nlml_value_cached, NlmlFactor};
use crate::scratch::with_scratch;
use crate::workspace::{DiffBatch, TrainLayout};
use crate::GpError;
use mfbo_infer::InferenceMode;
use mfbo_linalg::{Cholesky, Standardizer};
use mfbo_opt::lbfgs::{Lbfgs, Objective};
use mfbo_opt::{sampling, Bounds};
use mfbo_pool::{par_map, Parallelism};
use rand::Rng;
use std::borrow::Cow;

/// Posterior prediction at a single query point, in raw (de-standardized)
/// output units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Posterior mean `μ(x*)`.
    pub mean: f64,
    /// Posterior *latent* variance `σ²(x*)` (observation noise excluded).
    pub var: f64,
}

impl Prediction {
    /// Posterior standard deviation (clamped at zero for numerical safety).
    pub fn std_dev(&self) -> f64 {
        self.var.max(0.0).sqrt()
    }
}

/// Training configuration for [`Gp::fit`].
#[derive(Debug, Clone)]
pub struct GpConfig {
    /// Number of random hyperparameter restarts (in addition to the kernel
    /// defaults and any warm start passed to [`Gp::plan_starts`]).
    pub restarts: usize,
    /// L-BFGS iteration cap per restart.
    pub max_iters: usize,
    /// Distributes the (pure) per-restart L-BFGS runs over a thread pool.
    /// All randomness is drawn before the restarts launch and the best
    /// restart is selected in start order, so every mode returns
    /// bit-identical models. Nested in the core crate's fusion-model
    /// config, the same value also sets the pool of the surrogate bundle
    /// fits. The Monte-Carlo posterior propagation does not read it: it
    /// runs serially inside each acquisition start.
    pub parallelism: Parallelism,
    /// Inference engine for training and the final model build (see
    /// [`InferenceMode`]). `Exact` — the default — runs the historical
    /// O(n³) Cholesky path bit for bit; subset-of-data caps the cubic
    /// cost once the training set outgrows its subset size.
    pub inference: InferenceMode,
}

impl Default for GpConfig {
    fn default() -> Self {
        GpConfig {
            restarts: 4,
            max_iters: 80,
            parallelism: Parallelism::Serial,
            inference: InferenceMode::Exact,
        }
    }
}

impl GpConfig {
    /// A cheaper configuration for inner-loop refits (fewer restarts and
    /// iterations); used by the BO loops which refit every iteration.
    pub fn fast() -> Self {
        GpConfig {
            restarts: 2,
            max_iters: 40,
            ..Self::default()
        }
    }

    /// The rows of `xs` a fit under this config trains on, or `None` for
    /// all: past its cap, `SubsetOfData` keeps the deterministic
    /// farthest-point subset (over committed history order).
    pub fn training_subset(&self, xs: &[Vec<f64>]) -> Option<Vec<usize>> {
        match self.inference {
            InferenceMode::SubsetOfData { max_points } if xs.len() > max_points => {
                Some(mfbo_infer::select_subset(xs, max_points))
            }
            _ => None,
        }
    }
}

/// A trained Gaussian-process regression model (paper §2.3).
///
/// Outputs are z-scored before training (every kernel bound assumes
/// standardized outputs), and the observation noise `σ_n` is trained with
/// the kernel parameters. See the crate-level example for typical usage.
#[derive(Debug, Clone)]
pub struct Gp<K: Kernel> {
    kernel: K,
    /// Optimized kernel log-parameters.
    params: Vec<f64>,
    /// Optimized `log σ_n`.
    log_noise: f64,
    xs: Vec<Vec<f64>>,
    /// The training inputs laid out for prediction, built once here.
    layout: TrainLayout,
    /// The kernel's parameter transforms, taken once at construction.
    scales: K::Scales,
    /// Raw observations.
    ys_raw: Vec<f64>,
    /// Standardized observations.
    ys: Vec<f64>,
    standardizer: Standardizer,
    chol: Cholesky,
    /// `K⁻¹ y` in standardized space.
    alpha: Vec<f64>,
    /// Final negative log marginal likelihood.
    nlml: f64,
    /// Index into the planned starts of the restart that won the NLML
    /// search (0 = kernel default, 1 = warm start when one was supplied);
    /// `None` for frozen-hyperparameter builds, which run no search.
    best_start: Option<usize>,
}

impl<K: Kernel> Gp<K> {
    /// Trains a GP on `(xs, ys)` by multi-restart NLML minimization.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::InvalidTrainingSet`] for empty or mismatched data
    /// and [`GpError::TrainingFailed`] if no restart produced a finite NLML.
    pub fn fit<R: Rng + ?Sized>(
        kernel: K,
        xs: Vec<Vec<f64>>,
        ys: Vec<f64>,
        config: &GpConfig,
        rng: &mut R,
    ) -> Result<Self, GpError> {
        Self::validate(&kernel, &xs, &ys)?;
        let starts = Self::plan_starts(&kernel, config, None, rng);
        Self::fit_planned(kernel, xs, ys, config, starts, None)
    }

    /// Draws the NLML starting points: the clamped kernel default, the warm
    /// start `[kernel params…, log σ_n]` (when given and well-shaped — the
    /// BO loop passes the previous refit's optimum), then `config.restarts`
    /// Latin-hypercube draws. The warm start consumes no randomness, so the
    /// LHS draws are the same with or without it.
    ///
    /// Splitting planning (randomness) from [`Gp::fit_planned`] (pure
    /// optimization) lets bundle fitters front-load every random draw for a
    /// whole family of models and then train the models in parallel with
    /// bit-identical results in any [`Parallelism`] mode.
    pub fn plan_starts<R: Rng + ?Sized>(
        kernel: &K,
        config: &GpConfig,
        warm: Option<&[f64]>,
        rng: &mut R,
    ) -> Vec<Vec<f64>> {
        let theta_bounds = Self::theta_bounds(kernel);
        let mut starts: Vec<Vec<f64>> = Vec::new();
        let mut default_start = kernel.default_params();
        default_start.push(Self::NOISE_INIT.ln());
        starts.push(theta_bounds.clamp(&default_start));
        if let Some(ws) = warm {
            if ws.len() == kernel.num_params() + 1 {
                starts.push(theta_bounds.clamp(ws));
            }
        }
        starts.extend(sampling::latin_hypercube(
            &theta_bounds,
            config.restarts,
            rng,
        ));
        starts
    }

    /// Observation-noise standard deviation `σ_n` of the default start
    /// (standardized output units).
    const NOISE_INIT: f64 = 1e-3;

    /// Range of `σ_n` the NLML search may move in.
    const NOISE_BOUNDS: (f64, f64) = (1e-6, 0.3);

    /// Hyperparameter search space: kernel bounds ⊕ `log σ_n` bounds.
    fn theta_bounds(kernel: &K) -> Bounds {
        let (mut lo, mut hi) = kernel.param_bounds();
        lo.push(Self::NOISE_BOUNDS.0.ln());
        hi.push(Self::NOISE_BOUNDS.1.ln());
        Bounds::new(lo, hi)
    }

    /// Checks a training set as every fit does before it selects a subset:
    /// points, one output per input, the kernel's dimension, finite outputs.
    ///
    /// # Errors
    ///
    /// [`GpError::InvalidTrainingSet`] naming the first failed check.
    pub fn validate(kernel: &K, xs: &[Vec<f64>], ys: &[f64]) -> Result<(), GpError> {
        if xs.is_empty() {
            return Err(GpError::InvalidTrainingSet {
                reason: "no training points".into(),
            });
        }
        if xs.len() != ys.len() {
            return Err(GpError::InvalidTrainingSet {
                reason: format!("{} inputs but {} outputs", xs.len(), ys.len()),
            });
        }
        for (i, x) in xs.iter().enumerate() {
            if x.len() != kernel.input_dim() {
                return Err(GpError::InvalidTrainingSet {
                    reason: format!(
                        "input {i} has dimension {} but kernel expects {}",
                        x.len(),
                        kernel.input_dim()
                    ),
                });
            }
        }
        if ys.iter().any(|y| !y.is_finite()) {
            return Err(GpError::InvalidTrainingSet {
                reason: "non-finite observation".into(),
            });
        }
        Ok(())
    }

    /// Applies [`GpConfig::inference`] to a training set: the rows
    /// [`GpConfig::training_subset`] keeps, or the full set unchanged.
    fn training_set(
        xs: Vec<Vec<f64>>,
        ys: Vec<f64>,
        config: &GpConfig,
    ) -> (Vec<Vec<f64>>, Vec<f64>) {
        match config.training_subset(&xs) {
            Some(keep) => {
                let xs_sub = keep.iter().map(|&i| xs[i].clone()).collect();
                let ys_sub = keep.iter().map(|&i| ys[i]).collect();
                (xs_sub, ys_sub)
            }
            None => (xs, ys),
        }
    }

    /// The model at fixed θ over a validated (and reduced) training set:
    /// standardized outputs, the fit-time layout and parameter scales, and
    /// the factor of the noisy kernel matrix built from them row by row —
    /// the one kernel matrix a fit or a frozen refresh builds once, with no
    /// difference batch. `nlml` and `best_start` are the caller's to set.
    fn at_params(
        kernel: K,
        xs: Vec<Vec<f64>>,
        ys: Vec<f64>,
        params: Vec<f64>,
        log_noise: f64,
    ) -> Result<Self, GpError> {
        let standardizer = Standardizer::fit(&ys);
        let ys_std = standardizer.transform_all(&ys);
        let layout = TrainLayout::new(&xs);
        let scales = kernel.scales(&params);
        let km = kernel_matrix_from_layout(&kernel, &scales, log_noise, &xs, &layout);
        let chol = Cholesky::new_with_jitter(&km, 1e-10, 1e-4)?;
        let alpha = chol.solve_vec(&ys_std);
        Ok(Gp {
            kernel,
            params,
            log_noise,
            xs,
            layout,
            scales,
            ys_raw: ys,
            ys: ys_std,
            standardizer,
            chol,
            alpha,
            nlml: f64::NAN,
            best_start: None,
        })
    }

    /// The lower-triangle difference batch a fit's NLML search over `xs`
    /// reads: the caller's `shared` batch when its shape (pair count and
    /// dimensionality) fits `xs`, counted as a `diffbatch_shared_hits`;
    /// otherwise one built here. A subset fit's `xs` never fits a batch
    /// over the full set.
    fn fit_batch<'b>(shared: Option<&'b DiffBatch>, xs: &[Vec<f64>]) -> Cow<'b, DiffBatch> {
        let n = xs.len();
        match shared {
            Some(b) if b.len() == n * (n + 1) / 2 && b.dim() == xs.first().map_or(0, Vec::len) => {
                mfbo_telemetry::counter!("diffbatch_shared_hits", 1u64);
                Cow::Borrowed(b)
            }
            _ => Cow::Owned(DiffBatch::lower_triangle(xs)),
        }
    }

    /// Trains a GP from pre-drawn starting points (see [`Gp::plan_starts`]).
    /// Consumes no randomness: the per-start L-BFGS runs are pure and may be
    /// distributed over [`GpConfig::parallelism`] worker threads; the best
    /// restart is selected in start order.
    ///
    /// Dispatches on [`GpConfig::inference`]: `Exact` (and `SubsetOfData`
    /// while the training set has not outgrown its cap) runs the historical
    /// Cholesky path bit for bit; past the cap `SubsetOfData` reduces the
    /// training set with a deterministic farthest-point selection over
    /// committed history order and then runs the exact path on the subset.
    ///
    /// `shared` is an optional pre-built lower-triangle difference batch
    /// over `xs` — the bundle fitters' sharing hook (the objective and
    /// constraint GPs of one bundle train on the same `X`, so one batch
    /// serves every model's NLML search). The batch must hold the exact
    /// diffs a fresh build over `xs` would (bit-identical results); a batch
    /// whose shape does not match `xs` is ignored and a fresh build is used,
    /// as when the subset engine reduces `xs` here. Only the search reads
    /// it: the final factor is built from the fit-time layout, after the
    /// batch is dropped.
    ///
    /// # Errors
    ///
    /// Same contract as [`Gp::fit`].
    pub fn fit_planned(
        kernel: K,
        xs: Vec<Vec<f64>>,
        ys: Vec<f64>,
        config: &GpConfig,
        starts: Vec<Vec<f64>>,
        shared: Option<&DiffBatch>,
    ) -> Result<Self, GpError> {
        Self::validate(&kernel, &xs, &ys)?;
        let (xs, ys) = Self::training_set(xs, ys, config);
        let standardizer = Standardizer::fit(&ys);
        let ys_std = standardizer.transform_all(&ys);
        let theta_bounds = Self::theta_bounds(&kernel);

        // One difference batch for the whole fit: every NLML evaluation of
        // every restart reuses it (it is read-only, so parallel restarts
        // share it). A shared bundle batch replaces even that single build.
        let batch = Self::fit_batch(shared, &xs);
        let objective = NlmlObjective {
            kernel: &kernel,
            batch: &batch,
            ys: &ys_std,
        };
        let optimizer = Lbfgs::new()
            .with_max_iters(config.max_iters)
            .with_grad_tol(1e-5);

        let results = par_map(config.parallelism, &starts, |s| {
            optimizer.minimize(&objective, s, &theta_bounds)
        });
        let mut best: Option<(Vec<f64>, f64)> = None;
        let mut best_start = 0usize;
        let mut nlml_evals = 0usize;
        let mut lbfgs_iters = 0usize;
        for (k, r) in results.into_iter().enumerate() {
            nlml_evals += r.evaluations;
            lbfgs_iters += r.iterations;
            if r.value.is_finite() {
                let better = best.as_ref().is_none_or(|(_, v)| r.value < *v);
                if better {
                    best = Some((r.x, r.value));
                    best_start = k;
                }
            }
        }
        drop(batch);
        let (theta, best_nlml) = best.ok_or(GpError::TrainingFailed)?;

        let np = kernel.num_params();
        let mut gp = Self::at_params(kernel, xs, ys, theta[..np].to_vec(), theta[np])?;
        (gp.nlml, gp.best_start) = (best_nlml, Some(best_start));
        // A winning hyperparameter pinned at its search-space boundary
        // usually means the bound, not the data, chose the value — the
        // classic symptom of a degenerating surrogate (lengthscale collapsed
        // to the floor, or noise railed at its cap). A component whose bounds
        // are pinned (lo == hi) cannot meaningfully "hit" a bound and is
        // skipped.
        let bound_hits = theta
            .iter()
            .zip(theta_bounds.lower().iter().zip(theta_bounds.upper()))
            .filter(|&(&t, (&lo, &hi))| {
                let span = hi - lo;
                span > 0.0 && ((t - lo).abs() <= 1e-9 * span || (hi - t).abs() <= 1e-9 * span)
            })
            .count();
        // Start 0 is always the kernel default; 1 is the warm start when one
        // was supplied — best_start tells which strategy won this refit.
        // `factorizations` counts Cholesky factorization entry points: one
        // per NLML value evaluation plus the final model build (jitter
        // retries within an entry are reported separately via
        // `cholesky_jitter`). Gradients are finished from the accepted
        // probe's factor and add none.
        mfbo_telemetry::debug_event!(
            "gp_fit",
            n = gp.len(),
            dim = gp.kernel.input_dim(),
            starts = starts.len(),
            best_start = best_start,
            nlml = best_nlml,
            nlml_evals = nlml_evals,
            factorizations = nlml_evals + 1,
            lbfgs_iters = lbfgs_iters,
            log_noise = gp.log_noise,
            jitter = gp.chol.jitter(),
            condition = gp.chol.condition_estimate(),
            bound_hits = bound_hits,
        );
        Ok(gp)
    }

    /// Builds a GP with *fixed* hyperparameters (no training) — the
    /// frozen-refresh path the BO loops run between full refits, and a
    /// direct constructor for tests and benches.
    ///
    /// Reads [`GpConfig::inference`] from `config`; the training-only
    /// fields are ignored. `SubsetOfData` past its cap builds the exact
    /// model on the same farthest-point subset [`Gp::fit_planned`] selects.
    /// The kernel matrix comes row by row from the model's fit-time layout,
    /// as a fit's final factor does: a frozen refresh builds no difference
    /// batch.
    ///
    /// # Errors
    ///
    /// Same validation as [`Gp::fit`], plus
    /// [`GpError::InvalidTrainingSet`] for the wrong number of kernel
    /// parameters and [`GpError::KernelNotPositiveDefinite`] if the kernel
    /// matrix cannot be factorized.
    pub fn with_params(
        kernel: K,
        xs: Vec<Vec<f64>>,
        ys: Vec<f64>,
        params: Vec<f64>,
        log_noise: f64,
        config: &GpConfig,
    ) -> Result<Self, GpError> {
        Self::validate(&kernel, &xs, &ys)?;
        if params.len() != kernel.num_params() {
            return Err(GpError::InvalidTrainingSet {
                reason: "wrong number of kernel parameters".into(),
            });
        }
        let (xs, ys) = Self::training_set(xs, ys, config);
        let mut gp = Self::at_params(kernel, xs, ys, params, log_noise)?;
        // The frozen θ's NLML falls out of the factorization already in
        // hand, in the quad-form/log-det form of the naive `nlml`.
        let n = gp.len() as f64;
        gp.nlml = 0.5 * (gp.chol.quad_form(&gp.ys) + gp.chol.log_det() + n * crate::nlml::LOG_2PI);
        mfbo_telemetry::counter!("nlml_evals", 1u64);
        Ok(gp)
    }

    /// Posterior prediction (mean and latent variance) in raw output units.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != kernel.input_dim()`.
    pub fn predict(&self, x: &[f64]) -> Prediction {
        let (m, v) = self.predict_standardized(x);
        self.destandardize(m, v)
    }

    fn destandardize(&self, mean: f64, var: f64) -> Prediction {
        Prediction {
            mean: self.standardizer.inverse(mean),
            var: self.standardizer.inverse_std(var.max(0.0).sqrt()).powi(2),
        }
    }

    /// Posterior prediction in *standardized* output space — the space the
    /// fidelity-selection threshold `γ` (paper eq. 11) and the NARGP
    /// augmented inputs live in.
    ///
    /// The kernel row comes from the query and the fit-time layout (see
    /// [`Kernel::eval_row`]). Unlike [`Gp::predict_batch_standardized`] it
    /// does not count towards `predict_batch_points`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != kernel.input_dim()`.
    pub fn predict_standardized(&self, x: &[f64]) -> (f64, f64) {
        assert_eq!(x.len(), self.kernel.input_dim(), "query dimension mismatch");
        let (be, mut post) = (mfbo_simd::active(), (0.0, 0.0));
        self.posteriors(1, be, |_, row| self.kernel_row(x, be, row), |_, p| post = p);
        post
    }

    /// Batched [`Gp::predict_standardized`]: one `(mean, var)` pair per
    /// query point, bit-identical to the pointwise calls.
    ///
    /// Each query's kernel row comes from the fit-time layout (parameter
    /// transforms taken once per model, at construction), and groups of
    /// [`mfbo_simd::Backend::lanes`] queries share one interleaved
    /// multi-RHS forward solve, so the per-point cost is the unavoidable
    /// O(n²) forward solve plus O(n·d) row work.
    ///
    /// # Panics
    ///
    /// Panics if any query dimension differs from `kernel.input_dim()`.
    pub fn predict_batch_standardized(&self, points: &[Vec<f64>]) -> Vec<(f64, f64)> {
        self.predict_batch_standardized_with_backend(points, mfbo_simd::active())
    }

    /// [`Gp::predict_batch_standardized`] with an explicit SIMD backend for
    /// the kernel rows and the forward solves — the differential-testing
    /// and A/B-bench hook. Both the backend and the lane grouping are
    /// bit-invisible: each query runs the exact pointwise operation
    /// sequence.
    ///
    /// # Panics
    ///
    /// As for [`Gp::predict_batch_standardized`].
    pub fn predict_batch_standardized_with_backend(
        &self,
        points: &[Vec<f64>],
        be: mfbo_simd::Backend,
    ) -> Vec<(f64, f64)> {
        let mut out = vec![(0.0, 0.0); points.len()];
        self.batch_posteriors(points, be, |q, p| out[q] = p);
        out
    }

    /// [`Gp::predict_batch_standardized`] into `means` and `vars`, one
    /// entry per query, without allocating: the surrogate bundles' drive
    /// path. Counted the same.
    ///
    /// # Panics
    ///
    /// As for [`Gp::predict_batch_standardized`], and if `means` or `vars`
    /// is not one entry per query.
    pub fn predict_batch_standardized_into(
        &self,
        points: &[Vec<f64>],
        means: &mut [f64],
        vars: &mut [f64],
    ) {
        assert_eq!(means.len(), points.len(), "one mean per query");
        assert_eq!(vars.len(), points.len(), "one variance per query");
        self.batch_posteriors(points, mfbo_simd::active(), |q, (m, v)| {
            means[q] = m;
            vars[q] = v;
        });
    }

    /// The counted batch behind the `predict_batch_standardized*` entry
    /// points.
    fn batch_posteriors(
        &self,
        points: &[Vec<f64>],
        be: mfbo_simd::Backend,
        emit: impl FnMut(usize, (f64, f64)),
    ) {
        if points.is_empty() {
            return;
        }
        mfbo_telemetry::counter!("predict_batch_points", points.len() as u64);
        for x in points {
            assert_eq!(x.len(), self.kernel.input_dim(), "query dimension mismatch");
        }
        self.posteriors(
            points.len(),
            be,
            |q, row| self.kernel_row(&points[q], be, row),
            emit,
        );
    }

    /// Standardized posterior means `k*ᵀα` at `points`, into `out` (one per
    /// query): bit-identical to the `.0` of
    /// [`Gp::predict_batch_standardized`], with no forward solve and no
    /// prior variance, and no allocation. Like [`Gp::predict_standardized`]
    /// it does not count towards `predict_batch_points`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != points.len()` or a query dimension differs
    /// from `kernel.input_dim()`.
    pub fn predict_means_standardized(&self, points: &[Vec<f64>], out: &mut [f64]) {
        assert_eq!(out.len(), points.len(), "one mean per query");
        let (n, be) = (self.len(), mfbo_simd::active());
        with_scratch(self.layout.stride(), |row| {
            for (o, x) in out.iter_mut().zip(points) {
                assert_eq!(x.len(), self.kernel.input_dim(), "query dimension mismatch");
                self.kernel_row(x, be, row);
                *o = mfbo_linalg::dot(&row[..n], &self.alpha);
            }
        });
    }

    /// The kernel row of `x` against the training inputs into `row`
    /// (`layout.stride()` entries), returning the prior variance `k(x, x)`.
    fn kernel_row(&self, x: &[f64], be: mfbo_simd::Backend, row: &mut [f64]) -> f64 {
        self.kernel.eval_row(&self.scales, x, &self.layout, be, row);
        self.kernel.prior_var(&self.scales, x)
    }

    /// The one posterior path behind every full predict entry point: the
    /// `(mean, var)` of each of `m` queries, handed to `emit` in query
    /// order. `row(q, buf)` writes query `q`'s kernel row into `buf`
    /// (`layout.stride()` entries) and returns its prior variance.
    ///
    /// Lane-groups of queries share one interleaved forward solve; the
    /// variance reduction walks lane `c`'s strided entries in the same
    /// ascending order (and from the same 0.0 start) as `dot(&v, &v)` on
    /// the de-interleaved vector, so every query runs the pointwise
    /// operation sequence. All working memory is per-thread scratch.
    fn posteriors(
        &self,
        m: usize,
        be: mfbo_simd::Backend,
        mut row: impl FnMut(usize, &mut [f64]) -> f64,
        mut emit: impl FnMut(usize, (f64, f64)),
    ) {
        let (n, stride, lanes) = (self.len(), self.layout.stride(), be.lanes());
        with_scratch(lanes * (stride + 1 + 2 * n), |buf| {
            let (kv, rest) = buf.split_at_mut(lanes * stride);
            let (kss, rest) = rest.split_at_mut(lanes);
            let (bi, vi) = rest.split_at_mut(n * lanes);
            let mut q = 0;
            while q + lanes <= m && lanes > 1 {
                for (c, (kstar, prior)) in
                    kv.chunks_exact_mut(stride).zip(kss.iter_mut()).enumerate()
                {
                    *prior = row(q + c, kstar);
                }
                for i in 0..n {
                    for (c, slot) in bi[i * lanes..(i + 1) * lanes].iter_mut().enumerate() {
                        *slot = kv[c * stride + i];
                    }
                }
                self.chol.forward_solve_interleaved_into(be, bi, vi);
                for (c, &prior) in kss.iter().enumerate() {
                    let mean = mfbo_linalg::dot(&kv[c * stride..c * stride + n], &self.alpha);
                    let mut s = 0.0;
                    for k in 0..n {
                        let x = vi[k * lanes + c];
                        s += x * x;
                    }
                    emit(q + c, (mean, (prior - s).max(0.0)));
                }
                q += lanes;
            }
            let (kstar, v) = (&mut kv[..stride], &mut vi[..n]);
            for q in q..m {
                let prior = row(q, kstar);
                let kstar = &kstar[..n];
                let mean = mfbo_linalg::dot(kstar, &self.alpha);
                self.chol.forward_solve_into(kstar, v);
                emit(q, (mean, (prior - mfbo_linalg::dot(v, v)).max(0.0)));
            }
        });
    }

    /// Batched [`Gp::predict`]: raw-unit predictions for a set of query
    /// points, bit-identical to the pointwise calls.
    ///
    /// # Panics
    ///
    /// Panics if any query dimension differs from `kernel.input_dim()`.
    pub fn predict_batch(&self, points: &[Vec<f64>]) -> Vec<Prediction> {
        self.predict_batch_standardized(points)
            .into_iter()
            .map(|(m, v)| self.destandardize(m, v))
            .collect()
    }

    /// Observation-noise variance `σ_n²` in standardized space.
    pub fn noise_var_standardized(&self) -> f64 {
        mfbo_simd::exp(2.0 * self.log_noise)
    }

    /// The training inputs.
    pub fn xs(&self) -> &[Vec<f64>] {
        &self.xs
    }

    /// The raw (de-standardized) training observations.
    pub fn ys_raw(&self) -> &[f64] {
        &self.ys_raw
    }

    /// The standardized training observations.
    pub fn ys_standardized(&self) -> &[f64] {
        &self.ys
    }

    /// The output standardizer fitted at training time.
    pub fn standardizer(&self) -> &Standardizer {
        &self.standardizer
    }

    /// The kernel.
    pub fn kernel(&self) -> &K {
        &self.kernel
    }

    /// Optimized kernel log-parameters.
    pub fn params(&self) -> &[f64] {
        &self.params
    }

    /// Optimized `log σ_n`.
    pub fn log_noise(&self) -> f64 {
        self.log_noise
    }

    /// The full hyperparameter vector `[kernel params…, log σ_n]` — feed
    /// this back as the `warm` start of [`Gp::plan_starts`] on the next refit.
    pub fn theta(&self) -> Vec<f64> {
        let mut t = self.params.clone();
        t.push(self.log_noise);
        t
    }

    /// Final negative log marginal likelihood of the trained model.
    pub fn nlml(&self) -> f64 {
        self.nlml
    }

    /// Index of the planned start that won the NLML search (0 = kernel
    /// default, 1 = warm start when one was supplied); `None` for
    /// frozen-hyperparameter builds. The BO loop counts warm-seed wins
    /// (`theta_warm_wins`) from this.
    pub fn best_start(&self) -> Option<usize> {
        self.best_start
    }

    /// Number of training points.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the training set is empty (never true for a constructed GP).
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }
}

impl Gp<NargpKernel> {
    /// Propagated posterior samples of paper eq. (10) at one design point:
    /// the standardized `(mean, var)` of the fusion GP at every augmented
    /// input `(x, f)` for `f` in `fs`, bit-identical to feeding those rows
    /// to [`Gp::predict_batch_standardized`].
    ///
    /// Of eq. (9)'s `k1(f, f_i)·k2(x, x_i) + k3(x, x_i)`, only `k1` sees
    /// the fidelity value, so the design-space factors `k2`, `k3` (and
    /// their prior-variance terms) are evaluated once per training point
    /// instead of once per sample, and the kernel rows of all samples come
    /// from one sample-major tile (see [`Gp::predict_propagated_means`]).
    /// Counts one `predict_batch_points` per sample.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the kernel's design dimension.
    pub fn predict_propagated_standardized(&self, x: &[f64], fs: &[f64]) -> Vec<(f64, f64)> {
        self.predict_propagated_standardized_with_backend(x, fs, mfbo_simd::active())
    }

    /// [`Gp::predict_propagated_standardized`] with an explicit SIMD
    /// backend for the kernel rows and the interleaved forward solves — the
    /// differential-testing hook.
    ///
    /// # Panics
    ///
    /// As for [`Gp::predict_propagated_standardized`].
    pub fn predict_propagated_standardized_with_backend(
        &self,
        x: &[f64],
        fs: &[f64],
        be: mfbo_simd::Backend,
    ) -> Vec<(f64, f64)> {
        let mut out = vec![(0.0, 0.0); fs.len()];
        let n = self.len();
        if !fs.is_empty() {
            mfbo_telemetry::counter!("predict_batch_points", fs.len() as u64);
        }
        self.propagated_tile(x, fs, be, |tile| {
            // The prior variance's design factors, as `eval(z, z)` takes
            // them from the `x − x` self-differences.
            let (k2_xx, k3_xx) = self.scales.design_prior(x);
            self.posteriors(
                fs.len(),
                be,
                |q, row| {
                    row[..n].copy_from_slice(&tile[q * n..(q + 1) * n]);
                    // Deliberately `f − f`, as `eval(z, z)` computes it
                    // (NaN, not 0, for a non-finite sample).
                    #[allow(clippy::eq_op)]
                    self.scales.combine(fs[q] - fs[q], k2_xx, k3_xx)
                },
                |q, p| out[q] = p,
            );
        });
        out
    }

    /// The standardized posterior means alone at the augmented inputs
    /// `(x, f)` for `f` in `fs`, into `out` in sample order: bit-identical
    /// to the `.0` of [`Gp::predict_propagated_standardized`], with no
    /// forward solve and no allocation. Unlike the full path it does not
    /// count towards `predict_batch_points`: its caller, `MfGp::predict_means`,
    /// counts the samples of all its queries in one record.
    ///
    /// The kernel rows of all `S` samples form one sample-major `S × n`
    /// tile whose `exp`s run in one vectorized sweep; each sample's mean is
    /// then the `dot` of its row with `α`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the kernel's design dimension or
    /// `out.len() != fs.len()`.
    pub fn predict_propagated_means(&self, x: &[f64], fs: &[f64], out: &mut [f64]) {
        self.predict_propagated_means_with_backend(x, fs, mfbo_simd::active(), out);
    }

    /// [`Gp::predict_propagated_means`] with an explicit SIMD backend — the
    /// differential-testing hook.
    ///
    /// # Panics
    ///
    /// As for [`Gp::predict_propagated_means`].
    pub fn predict_propagated_means_with_backend(
        &self,
        x: &[f64],
        fs: &[f64],
        be: mfbo_simd::Backend,
        out: &mut [f64],
    ) {
        assert_eq!(out.len(), fs.len(), "one mean per sample");
        let n = self.len();
        self.propagated_tile(x, fs, be, |tile| {
            for (o, row) in out.iter_mut().zip(tile.chunks_exact(n)) {
                *o = mfbo_linalg::dot(row, &self.alpha);
            }
        });
    }

    /// Shared set-up of the propagated paths: computes the design factors
    /// of `x` once, and hands `body` the kernel rows of every `(x, f)`,
    /// sample-major (`fs.len()` rows of `n` entries; see
    /// `NargpScales::fidelity_tile`). All working memory is per-thread
    /// scratch.
    fn propagated_tile(
        &self,
        x: &[f64],
        fs: &[f64],
        be: mfbo_simd::Backend,
        body: impl FnOnce(&[f64]),
    ) {
        let d = self.kernel.design_dim();
        assert_eq!(x.len(), d, "design point dimension mismatch");
        if fs.is_empty() {
            return;
        }
        let (n, stride) = (self.len(), self.layout.stride());
        with_scratch(2 * stride + fs.len() * n, |buf| {
            let (k2, rest) = buf.split_at_mut(stride);
            let (k3, tile) = rest.split_at_mut(stride);
            self.scales.design_rows(x, &self.layout, be, k2, k3);
            let fid = &self.layout.rows(d..d + 1)[..n];
            self.scales
                .fidelity_tile(fs, fid, &k2[..n], &k3[..n], be, tile);
            body(tile);
        });
    }
}
/// The NLML of one fit as a two-phase L-BFGS objective: line-search probes
/// run only [`nlml_value_cached`], and the accepted probe's factor finishes
/// the gradient in [`nlml_grad_cached`] — the same bits as
/// [`crate::nlml_with_grad_cached`], without a gradient per rejected probe
/// or a second evaluation per accepted step.
struct NlmlObjective<'a, K> {
    kernel: &'a K,
    batch: &'a DiffBatch,
    ys: &'a [f64],
}

impl<K: Kernel> Objective for NlmlObjective<'_, K> {
    type Partial = Option<NlmlFactor>;

    fn value(&self, theta: &[f64]) -> (f64, Option<NlmlFactor>) {
        nlml_value_cached(self.kernel, theta, self.batch, self.ys)
    }

    fn gradient(&self, theta: &[f64], factor: Option<NlmlFactor>) -> Vec<f64> {
        nlml_grad_cached(self.kernel, theta, self.batch, factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SquaredExponential;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn sine_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (5.0 * x[0]).sin() + 2.0).collect();
        (xs, ys)
    }

    #[test]
    fn interpolates_training_points() {
        let (xs, ys) = sine_data(15);
        let gp = Gp::fit(
            SquaredExponential::new(1),
            xs.clone(),
            ys.clone(),
            &GpConfig::default(),
            &mut rng(),
        )
        .unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            let p = gp.predict(x);
            assert!((p.mean - y).abs() < 0.05, "at {x:?}: {} vs {y}", p.mean);
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let (xs, ys) = sine_data(10);
        let gp = Gp::fit(
            SquaredExponential::new(1),
            xs,
            ys,
            &GpConfig::default(),
            &mut rng(),
        )
        .unwrap();
        let near = gp.predict(&[0.5]);
        let far = gp.predict(&[3.0]);
        assert!(
            far.var > near.var * 5.0,
            "near {} far {}",
            near.var,
            far.var
        );
        assert!(near.std_dev() >= 0.0 && far.std_dev() > near.std_dev());
    }

    #[test]
    fn predictions_are_in_raw_units() {
        // Outputs centered at 1000 — standardization must round-trip.
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 9.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 1000.0 + 5.0 * x[0]).collect();
        let gp = Gp::fit(
            SquaredExponential::new(1),
            xs,
            ys,
            &GpConfig::default(),
            &mut rng(),
        )
        .unwrap();
        let p = gp.predict(&[0.5]);
        assert!((p.mean - 1002.5).abs() < 1.0, "mean = {}", p.mean);
    }

    #[test]
    fn with_params_skips_training() {
        let (xs, ys) = sine_data(8);
        let k = SquaredExponential::new(1);
        let params = k.default_params();
        let gp = Gp::with_params(
            k,
            xs.clone(),
            ys.clone(),
            params,
            -3.0,
            &GpConfig::default(),
        )
        .unwrap();
        // Still interpolates decently with default hyperparameters.
        let p = gp.predict(&xs[3]);
        assert!((p.mean - ys[3]).abs() < 0.2);
        assert!(gp.nlml().is_finite());
    }

    #[test]
    fn rejects_bad_training_sets() {
        let k = SquaredExponential::new(1);
        let e = Gp::fit(k.clone(), vec![], vec![], &GpConfig::default(), &mut rng());
        assert!(matches!(e, Err(GpError::InvalidTrainingSet { .. })));

        let e = Gp::fit(
            k.clone(),
            vec![vec![0.0]],
            vec![1.0, 2.0],
            &GpConfig::default(),
            &mut rng(),
        );
        assert!(matches!(e, Err(GpError::InvalidTrainingSet { .. })));

        let e = Gp::fit(
            k.clone(),
            vec![vec![0.0, 1.0]],
            vec![1.0],
            &GpConfig::default(),
            &mut rng(),
        );
        assert!(matches!(e, Err(GpError::InvalidTrainingSet { .. })));

        let e = Gp::fit(
            k,
            vec![vec![0.0]],
            vec![f64::NAN],
            &GpConfig::default(),
            &mut rng(),
        );
        assert!(matches!(e, Err(GpError::InvalidTrainingSet { .. })));
    }

    /// A frozen refresh refuses what a fit refuses, with the same typed
    /// error: a non-finite observation, and a point of the wrong dimension.
    #[test]
    fn with_params_validates_like_fit() {
        let (k, cfg) = (SquaredExponential::new(1), GpConfig::default());
        for (xs, ys) in [
            (vec![vec![0.0], vec![1.0]], vec![1.0, f64::NAN]),
            (vec![vec![0.0], vec![1.0, 2.0]], vec![1.0, 2.0]),
        ] {
            let fit = Gp::fit(k.clone(), xs.clone(), ys.clone(), &cfg, &mut rng());
            match (
                fit,
                Gp::with_params(k.clone(), xs, ys, vec![0.0; 2], -3.0, &cfg),
            ) {
                (
                    Err(GpError::InvalidTrainingSet { reason: a }),
                    Err(GpError::InvalidTrainingSet { reason: b }),
                ) => assert_eq!(a, b),
                (a, b) => panic!("expected two typed errors, got {a:?} and {b:?}"),
            }
        }
    }

    /// The single-use kernel matrix of a frozen refresh, built row by row
    /// from the model's own layout and scales, and the model's factor,
    /// against the pair-by-pair `kernel_matrix` oracle and its factor,
    /// entry by entry. The point counts straddle `PAD` and a whole AVX2
    /// block.
    #[test]
    fn with_params_layout_kernel_matrix_matches_naive() {
        fn check<K: Kernel>(k: K, p: Vec<f64>, xs: Vec<Vec<f64>>) {
            let n = xs.len();
            let ys = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
            let gp = Gp::with_params(k.clone(), xs, ys, p.clone(), -2.5, &GpConfig::default());
            let gp = gp.unwrap();
            let naive = crate::nlml::kernel_matrix(&k, &p, -2.5, &gp.xs);
            let built = kernel_matrix_from_layout(&k, &gp.scales, -2.5, &gp.xs, &gp.layout);
            let oracle = Cholesky::new_with_jitter(&naive, 1e-10, 1e-4).unwrap();
            for (a, b) in [(&built, &naive), (gp.chol.factor(), oracle.factor())] {
                for (q, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
                    let at = (q / n, q % n);
                    assert_eq!(x.to_bits(), y.to_bits(), "entry {at:?}, n = {n}");
                }
            }
        }
        for n in [1, 2, 3, 4, 5, 7, 9, 13, 33] {
            let xs: Vec<Vec<f64>> = (0..n)
                .map(|i| (0..3).map(move |t| ((i * 7 + t * 3) as f64 * 0.618).fract() - 0.3))
                .map(Iterator::collect)
                .collect();
            let p_nargp = (0..8).map(|j| 0.3 * (j as f64).sin() - 0.4).collect();
            check(
                SquaredExponential::new(3),
                vec![0.2, -0.8, -0.5, 0.1],
                xs.clone(),
            );
            check(NargpKernel::new(2), p_nargp, xs);
        }
    }

    #[test]
    fn warm_start_is_used_and_theta_round_trips() {
        let (xs, ys) = sine_data(10);
        let gp1 = Gp::fit(
            SquaredExponential::new(1),
            xs.clone(),
            ys.clone(),
            &GpConfig::default(),
            &mut rng(),
        )
        .unwrap();
        let config = GpConfig {
            restarts: 0,
            ..GpConfig::default()
        };
        let k = SquaredExponential::new(1);
        let starts = Gp::plan_starts(&k, &config, Some(&gp1.theta()), &mut rng());
        assert_eq!(starts.len(), 2, "default start plus the warm start");
        let gp2 = Gp::fit_planned(k, xs, ys, &config, starts, None).unwrap();
        // Warm-started training should be at least as good as the default
        // start alone, and close to the original optimum.
        assert!(gp2.nlml() <= gp1.nlml() + 1e-3);
    }

    #[test]
    fn single_point_training_set() {
        let gp = Gp::fit(
            SquaredExponential::new(1),
            vec![vec![0.5]],
            vec![2.0],
            &GpConfig::default(),
            &mut rng(),
        )
        .unwrap();
        let p = gp.predict(&[0.5]);
        assert!((p.mean - 2.0).abs() < 1e-3);
        assert_eq!(gp.len(), 1);
        assert!(!gp.is_empty());
    }

    #[test]
    fn fit_emits_gp_fit_debug_event() {
        let sink = std::sync::Arc::new(mfbo_telemetry::sinks::CollectSink::with_level(
            mfbo_telemetry::Level::Debug,
        ));
        let _g = mfbo_telemetry::scoped_sink(sink.clone());
        let (xs, ys) = sine_data(8);
        let gp = Gp::fit(
            SquaredExponential::new(1),
            xs,
            ys,
            &GpConfig::fast(),
            &mut rng(),
        )
        .unwrap();
        let recs = sink.named("gp_fit");
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].field("n"), Some(&mfbo_telemetry::Value::U64(8)));
        match recs[0].field("nlml") {
            Some(mfbo_telemetry::Value::F64(v)) => assert!((v - gp.nlml()).abs() < 1e-12),
            other => panic!("nlml field missing or mistyped: {other:?}"),
        }
        // Health diagnostics ride along on the same event.
        match recs[0].field("bound_hits") {
            Some(&mfbo_telemetry::Value::U64(hits)) => {
                assert!(hits <= 4, "at most one hit per theta component")
            }
            other => panic!("bound_hits field missing or mistyped: {other:?}"),
        }
        match recs[0].field("condition") {
            Some(mfbo_telemetry::Value::F64(c)) => assert!(c.is_finite() && *c >= 1.0),
            other => panic!("condition field missing or mistyped: {other:?}"),
        }
    }

    #[test]
    fn subset_of_data_matches_exact_on_selected_points() {
        let (xs, ys) = sine_data(30);
        let k = SquaredExponential::new(1);
        let params = vec![0.1, -1.0];
        let sod = GpConfig {
            inference: InferenceMode::SubsetOfData { max_points: 10 },
            ..GpConfig::default()
        };
        let gp = Gp::with_params(
            k.clone(),
            xs.clone(),
            ys.clone(),
            params.clone(),
            -2.0,
            &sod,
        )
        .unwrap();
        assert_eq!(gp.len(), 10);
        // Byte-identical to an exact model built on the hand-selected subset.
        let keep = mfbo_infer::select_subset(&xs, 10);
        let xs_sub: Vec<Vec<f64>> = keep.iter().map(|&i| xs[i].clone()).collect();
        let ys_sub: Vec<f64> = keep.iter().map(|&i| ys[i]).collect();
        let oracle =
            Gp::with_params(k, xs_sub, ys_sub, params, -2.0, &GpConfig::default()).unwrap();
        for q in [&[0.13][..], &[0.5], &[0.88]] {
            let (am, av) = gp.predict_standardized(q);
            let (om, ov) = oracle.predict_standardized(q);
            assert_eq!(am.to_bits(), om.to_bits());
            assert_eq!(av.to_bits(), ov.to_bits());
        }
    }

    #[test]
    fn fit_dispatches_inference_modes() {
        let (xs, ys) = sine_data(40);
        let sod = GpConfig {
            inference: InferenceMode::SubsetOfData { max_points: 20 },
            ..GpConfig::fast()
        };
        let gp = Gp::fit(
            SquaredExponential::new(1),
            xs.clone(),
            ys.clone(),
            &sod,
            &mut rng(),
        )
        .unwrap();
        assert_eq!(gp.len(), 20);
        // Interpolation quality survives the approximation.
        for (x, y) in xs.iter().zip(&ys).step_by(7) {
            let p = gp.predict(x);
            assert!((p.mean - y).abs() < 0.1, "at {x:?}: {} vs {y}", p.mean);
        }
        // Below the cap the exact path runs bit for bit.
        let exact = Gp::fit(
            SquaredExponential::new(1),
            xs.clone(),
            ys.clone(),
            &GpConfig::fast(),
            &mut rng(),
        )
        .unwrap();
        let roomy = GpConfig {
            inference: InferenceMode::SubsetOfData { max_points: 40 },
            ..GpConfig::fast()
        };
        let gp = Gp::fit(SquaredExponential::new(1), xs, ys, &roomy, &mut rng()).unwrap();
        assert_eq!(gp.len(), 40);
        assert_eq!(gp.nlml().to_bits(), exact.nlml().to_bits());
    }

    /// Differential oracle for the two-phase NLML objective: `fit_planned`
    /// must pick the same θ with the same NLML bits, and build the same
    /// posterior, as L-BFGS over the fused `nlml_with_grad_cached` closure
    /// with the best restart chosen in start order.
    fn check_split_objective_matches_fused<K: Kernel + Clone>(
        kernel: K,
        xs: Vec<Vec<f64>>,
        ys: Vec<f64>,
        queries: &[Vec<f64>],
    ) {
        let config = GpConfig {
            restarts: 5,
            ..GpConfig::fast()
        };
        let starts = Gp::plan_starts(&kernel, &config, None, &mut rng());
        assert!(starts.len() >= 6);
        let fit = Gp::fit_planned(
            kernel.clone(),
            xs.clone(),
            ys.clone(),
            &config,
            starts.clone(),
            None,
        )
        .unwrap();

        let ys_std = Standardizer::fit(&ys).transform_all(&ys);
        let batch = DiffBatch::lower_triangle(&xs);
        let fused = |theta: &[f64]| crate::nlml_with_grad_cached(&kernel, theta, &batch, &ys_std);
        let bounds = Gp::theta_bounds(&kernel);
        let optimizer = Lbfgs::new()
            .with_max_iters(config.max_iters)
            .with_grad_tol(1e-5);
        let mut best: Option<(Vec<f64>, f64, usize)> = None;
        for (k, s) in starts.iter().enumerate() {
            let r = optimizer.minimize(&fused, s, &bounds);
            if r.value.is_finite() && best.as_ref().is_none_or(|b| r.value < b.1) {
                best = Some((r.x, r.value, k));
            }
        }
        let (theta, value, start) = best.unwrap();

        assert_eq!(fit.best_start(), Some(start));
        assert_eq!(fit.nlml().to_bits(), value.to_bits());
        for (a, b) in fit.theta().iter().zip(&theta) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let np = kernel.num_params();
        let oracle =
            Gp::with_params(kernel, xs, ys, theta[..np].to_vec(), theta[np], &config).unwrap();
        for q in queries {
            let (a, b) = (fit.predict(q), oracle.predict(q));
            assert_eq!(a.mean.to_bits(), b.mean.to_bits());
            assert_eq!(a.var.to_bits(), b.var.to_bits());
        }
    }

    #[test]
    fn split_nlml_objective_fits_bit_identical_to_fused_closure() {
        let (xs, ys) = sine_data(14);
        let queries: Vec<Vec<f64>> = (0..9).map(|i| vec![i as f64 / 8.0 + 0.03]).collect();
        check_split_objective_matches_fused(SquaredExponential::new(1), xs, ys, &queries);

        // NARGP over augmented (x, f_low) inputs.
        let xs: Vec<Vec<f64>> = (0..12)
            .map(|i| {
                let x = i as f64 / 11.0;
                vec![x, (8.0 * x).sin()]
            })
            .collect();
        let ys: Vec<f64> = xs.iter().map(|z| (z[0] - 0.3) * z[1] * z[1]).collect();
        let queries: Vec<Vec<f64>> = xs.iter().map(|z| vec![z[0] + 0.04, z[1]]).collect();
        check_split_objective_matches_fused(NargpKernel::new(1), xs, ys, &queries);
    }

    #[test]
    fn two_d_model_learns_anisotropy() {
        // Function varies strongly in x0, weakly in x1: the trained ARD
        // lengthscale for x1 should be longer.
        let mut pts = Vec::new();
        let mut vals = Vec::new();
        for i in 0..7 {
            for j in 0..7 {
                let x0 = i as f64 / 6.0;
                let x1 = j as f64 / 6.0;
                pts.push(vec![x0, x1]);
                vals.push((8.0 * x0).sin() + 0.01 * x1);
            }
        }
        let gp = Gp::fit(
            SquaredExponential::new(2),
            pts,
            vals,
            &GpConfig::default(),
            &mut rng(),
        )
        .unwrap();
        let l0 = gp.params()[1];
        let l1 = gp.params()[2];
        assert!(l1 > l0, "l0 = {l0}, l1 = {l1}");
    }

    /// Every constructible backend: a foreign one degrades to scalar.
    const BACKENDS: [mfbo_simd::Backend; 3] = [
        mfbo_simd::Backend::Scalar,
        mfbo_simd::Backend::Avx2,
        mfbo_simd::Backend::Neon,
    ];

    /// `a` and `b` are the same bits, or both NaN.
    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Differential oracle of the sample-major propagation tile: under
        /// every backend, the propagated means and full posteriors equal the
        /// posterior of each sample's kernel row built pair by pair from
        /// [`Kernel::eval`] — `dot(row, α)` and `k(z, z) − |L⁻¹row|²` —
        /// bit for bit. `S` covers the plug-in single sample, tail lanes
        /// and whole tiles; samples include NaN and ±∞; a tiny `k2`
        /// lengthscale zeroes `k2` in every column but a training design's.
        #[test]
        fn bit_identity_propagated_tile_matches_per_sample_eval(
            train in proptest::collection::vec(-1.0f64..1.0, 9 * 3),
            ys in proptest::collection::vec(-1.0f64..1.0, 9),
            n in 1usize..10,
            s_pick in 0usize..4,
            raw in proptest::collection::vec(-2.0f64..2.0, 20),
            special in proptest::collection::vec(0usize..10, 20),
            query in proptest::collection::vec(-1.0f64..1.0, 2),
            tiny_l2 in 0usize..2,
            at_train in 0usize..2,
            log_l in -2.0f64..1.0,
            log_sf in proptest::collection::vec(-1.0f64..1.0, 3),
        ) {
            const SPECIAL: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
            let samples = [1usize, 3, 12, 20][s_pick];
            let fs: Vec<f64> = raw[..samples]
                .iter()
                .zip(&special)
                .map(|(&f, &k)| SPECIAL.get(k).copied().unwrap_or(f))
                .collect();
            let xs: Vec<Vec<f64>> = train.chunks_exact(3).take(n).map(<[f64]>::to_vec).collect();
            let kernel = NargpKernel::new(2);
            let mut params = kernel.default_params();
            // σ_f of k1, k2 and k3 away from 1, so a reassociated product
            // shows.
            (params[0], params[2], params[5]) = (log_sf[0], log_sf[1], log_sf[2]);
            params[1] = log_l;
            let l2 = if tiny_l2 == 1 { -8.0 } else { log_l };
            params[3] = l2;
            params[4] = l2;
            let gp = Gp::with_params(
                kernel.clone(),
                xs.clone(),
                ys[..n].to_vec(),
                params.clone(),
                -2.0,
                &GpConfig::default(),
            )
            .unwrap();
            let x = if at_train == 1 { xs[0][..2].to_vec() } else { query };

            let mut want = Vec::new();
            let mut row = vec![0.0; n];
            let mut v = vec![0.0; n];
            for &f in &fs {
                let z = [x[0], x[1], f];
                for (r, xj) in row.iter_mut().zip(&xs) {
                    *r = kernel.eval(&params, &z, xj);
                }
                gp.chol.forward_solve_into(&row, &mut v);
                let var = kernel.eval(&params, &z, &z) - mfbo_linalg::dot(&v, &v);
                want.push((mfbo_linalg::dot(&row, &gp.alpha), var.max(0.0)));
            }
            for be in BACKENDS {
                let mut means = vec![0.0; samples];
                gp.predict_propagated_means_with_backend(&x, &fs, be, &mut means);
                let full = gp.predict_propagated_standardized_with_backend(&x, &fs, be);
                for (k, (&(wm, wv), (&m, &(fm, fv)))) in want.iter().zip(means.iter().zip(&full)).enumerate() {
                    proptest::prop_assert!(same(m, wm), "{:?} sample {} mean {} vs {}", be, k, m, wm);
                    proptest::prop_assert!(same(fm, wm), "{:?} sample {} full mean {} vs {}", be, k, fm, wm);
                    proptest::prop_assert!(same(fv, wv), "{:?} sample {} var {} vs {}", be, k, fv, wv);
                }
            }
        }
    }
}
