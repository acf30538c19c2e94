//! Gaussian-process regression model: training and posterior prediction.

use crate::kernel::{k1_term_vanishes, Kernel, NargpKernel, NargpScales};
use crate::nlml::{
    kernel_matrix_cached, nlml_grad_cached, nlml_value_cached, NlmlFactor, NlmlWorkspace,
};
use crate::workspace::DiffBatch;
use crate::GpError;
use mfbo_infer::InferenceMode;
use mfbo_linalg::{Cholesky, Standardizer};
use mfbo_opt::lbfgs::{Lbfgs, Objective};
use mfbo_opt::{sampling, Bounds};
use mfbo_pool::{par_map, Parallelism};
use rand::Rng;

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
    /// fits and of the Monte-Carlo posterior propagation.
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

    fn validate(kernel: &K, xs: &[Vec<f64>], ys: &[f64]) -> Result<(), GpError> {
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

    /// Applies [`GpConfig::inference`] to a training set: past its cap,
    /// `SubsetOfData` keeps the deterministic farthest-point subset (over
    /// committed history order), which a batch over the full set cannot
    /// serve; otherwise the full set and `shared` pass through unchanged.
    fn training_set<'b, 'c>(
        xs: Vec<Vec<f64>>,
        ys: Vec<f64>,
        config: &GpConfig,
        shared: Option<&'b DiffBatch<'c>>,
    ) -> (Vec<Vec<f64>>, Vec<f64>, Option<&'b DiffBatch<'c>>) {
        match config.inference {
            InferenceMode::SubsetOfData { max_points } if xs.len() > max_points => {
                let keep = mfbo_infer::select_subset(&xs, max_points);
                let xs_sub = keep.iter().map(|&i| xs[i].clone()).collect();
                let ys_sub = keep.iter().map(|&i| ys[i]).collect();
                (xs_sub, ys_sub, None)
            }
            _ => (xs, ys, shared),
        }
    }

    /// Whether `batch` is a usable lower-triangle difference tensor for
    /// `xs` (right pair count and dimensionality).
    fn shared_usable(batch: &DiffBatch<'_>, xs: &[Vec<f64>]) -> bool {
        let n = xs.len();
        batch.len() == n * (n + 1) / 2 && batch.dim() == xs.first().map_or(0, Vec::len)
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
    /// serves every model's NLML workspace). The batch must hold the exact
    /// diffs a fresh build over `xs` would (bit-identical results); a batch
    /// whose shape does not match `xs` is ignored and a fresh build is used.
    /// Only the exact path consumes the batch — the subset engine trains on
    /// a reduced point set.
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
        shared: Option<&DiffBatch<'_>>,
    ) -> Result<Self, GpError> {
        Self::validate(&kernel, &xs, &ys)?;
        let (xs, ys, shared) = Self::training_set(xs, ys, config, shared);
        let standardizer = Standardizer::fit(&ys);
        let ys_std = standardizer.transform_all(&ys);
        let theta_bounds = Self::theta_bounds(&kernel);

        // One distance workspace for the whole fit: every NLML evaluation
        // of every restart reuses the pairwise difference tensor (the
        // workspace is read-only, so parallel restarts share it). A shared
        // bundle batch replaces even that single build.
        let ws = match shared {
            Some(b) if Self::shared_usable(b, &xs) => NlmlWorkspace::from_batch(b, xs.len()),
            _ => NlmlWorkspace::new(&xs),
        };
        let objective = NlmlObjective {
            kernel: &kernel,
            ws: &ws,
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
        let (theta, best_nlml) = best.ok_or(GpError::TrainingFailed)?;

        let np = kernel.num_params();
        let params = theta[..np].to_vec();
        let log_noise = theta[np];
        let km = kernel_matrix_cached(&kernel, &params, log_noise, &ws);
        drop(ws);
        let chol = Cholesky::new_with_jitter(&km, 1e-10, 1e-4)?;
        let alpha = chol.solve_vec(&ys_std);
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
            n = xs.len(),
            dim = kernel.input_dim(),
            starts = starts.len(),
            best_start = best_start,
            nlml = best_nlml,
            nlml_evals = nlml_evals,
            factorizations = nlml_evals + 1,
            lbfgs_iters = lbfgs_iters,
            log_noise = log_noise,
            jitter = chol.jitter(),
            condition = chol.condition_estimate(),
            bound_hits = bound_hits,
        );

        Ok(Gp {
            kernel,
            params,
            log_noise,
            xs,
            ys_raw: ys,
            ys: ys_std,
            standardizer,
            chol,
            alpha,
            nlml: best_nlml,
            best_start: Some(best_start),
        })
    }

    /// Builds a GP with *fixed* hyperparameters (no training) — the
    /// frozen-refresh path the BO loops run between full refits, and a
    /// direct constructor for tests and benches.
    ///
    /// Reads [`GpConfig::inference`] from `config`; the training-only
    /// fields are ignored. `SubsetOfData` past its cap builds the exact
    /// model on the same farthest-point subset [`Gp::fit_planned`] selects. `shared` is the optional lower-triangle
    /// difference batch over `xs` (see [`Gp::fit_planned`]); only the exact
    /// path consumes it, and the result is bit-identical with or without it.
    ///
    /// # Errors
    ///
    /// Same validation as [`Gp::fit`], plus
    /// [`GpError::KernelNotPositiveDefinite`] if the kernel matrix cannot be
    /// factorized.
    pub fn with_params(
        kernel: K,
        xs: Vec<Vec<f64>>,
        ys: Vec<f64>,
        params: Vec<f64>,
        log_noise: f64,
        config: &GpConfig,
        shared: Option<&DiffBatch<'_>>,
    ) -> Result<Self, GpError> {
        if xs.is_empty() || xs.len() != ys.len() {
            return Err(GpError::InvalidTrainingSet {
                reason: "empty or mismatched training set".into(),
            });
        }
        if params.len() != kernel.num_params() {
            return Err(GpError::InvalidTrainingSet {
                reason: "wrong number of kernel parameters".into(),
            });
        }
        let (xs, ys, shared) = Self::training_set(xs, ys, config, shared);
        let standardizer = Standardizer::fit(&ys);
        let ys_std = standardizer.transform_all(&ys);
        let ws = match shared {
            Some(b) if Self::shared_usable(b, &xs) => NlmlWorkspace::from_batch(b, xs.len()),
            _ => NlmlWorkspace::new(&xs),
        };
        let km = kernel_matrix_cached(&kernel, &params, log_noise, &ws);
        let chol = Cholesky::new_with_jitter(&km, 1e-10, 1e-4)?;
        let alpha = chol.solve_vec(&ys_std);
        // The frozen θ's NLML falls out of the factorization already in
        // hand, in the quad-form/log-det form of the naive `nlml`.
        let nlml = 0.5
            * (chol.quad_form(&ys_std) + chol.log_det() + xs.len() as f64 * crate::nlml::LOG_2PI);
        mfbo_telemetry::counter!("nlml_evals", 1u64);
        drop(ws);
        Ok(Gp {
            kernel,
            params,
            log_noise,
            xs,
            ys_raw: ys,
            ys: ys_std,
            standardizer,
            chol,
            alpha,
            nlml,
            best_start: None,
        })
    }

    /// Posterior prediction (mean and latent variance) in raw output units.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != kernel.input_dim()`.
    pub fn predict(&self, x: &[f64]) -> Prediction {
        let (m, v) = self.predict_standardized(x);
        Prediction {
            mean: self.standardizer.inverse(m),
            var: self.standardizer.inverse_std(v.max(0.0).sqrt()).powi(2),
        }
    }

    /// Posterior prediction in *standardized* output space — the space the
    /// fidelity-selection threshold `γ` (paper eq. 11) and the NARGP
    /// augmented inputs live in.
    ///
    /// A one-query batch: the kernel row goes through the batch hook, so
    /// the parameter `exp` transforms are taken once per call rather than
    /// once per training pair. Unlike [`Gp::predict_batch_standardized`] it
    /// does not count towards `predict_batch_points`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != kernel.input_dim()`.
    pub fn predict_standardized(&self, x: &[f64]) -> (f64, f64) {
        assert_eq!(x.len(), self.kernel.input_dim(), "query dimension mismatch");
        self.posteriors(std::slice::from_ref(&x.to_vec()), mfbo_simd::active())[0]
    }

    /// Batched [`Gp::predict_standardized`]: one `(mean, var)` pair per
    /// query point, bit-identical to the pointwise calls.
    ///
    /// The M×n cross-covariance block is assembled through the kernel's
    /// batch hook (parameter `exp` transforms hoisted out of the M·n pair
    /// loop) and the per-query triangular solves reuse one scratch buffer,
    /// so the per-point cost collapses to the unavoidable O(n²) forward
    /// solve plus O(n) dot products.
    ///
    /// # Panics
    ///
    /// Panics if any query dimension differs from `kernel.input_dim()`.
    pub fn predict_batch_standardized(&self, points: &[Vec<f64>]) -> Vec<(f64, f64)> {
        self.predict_batch_standardized_with_backend(points, mfbo_simd::active())
    }

    /// [`Gp::predict_batch_standardized`] with an explicit SIMD backend —
    /// the differential-testing and A/B-bench hook.
    ///
    /// Queries are processed in cache-sized tiles (the tile's
    /// cross-covariance rows and difference workspace stay resident while
    /// the Cholesky factor streams through), and within each tile groups of
    /// [`mfbo_simd::Backend::lanes`] queries share one interleaved
    /// multi-RHS forward solve. Both the tiling and the interleaving are
    /// bit-invisible: each query's mean and variance run the exact
    /// pointwise operation sequence.
    ///
    /// # Panics
    ///
    /// As for [`Gp::predict_batch_standardized`].
    pub fn predict_batch_standardized_with_backend(
        &self,
        points: &[Vec<f64>],
        be: mfbo_simd::Backend,
    ) -> Vec<(f64, f64)> {
        if points.is_empty() {
            return Vec::new();
        }
        mfbo_telemetry::counter!("predict_batch_points", points.len() as u64);
        for x in points {
            assert_eq!(x.len(), self.kernel.input_dim(), "query dimension mismatch");
        }
        self.posteriors(points, be)
    }

    /// Standardized posterior means `k*ᵀα` at the queries of `cross`, into
    /// `out` (one per query): bit-identical to the `.0` of
    /// [`Gp::predict_batch_standardized`]. The caller builds `cross` as
    /// [`DiffBatch::cross`] of the queries against [`Gp::xs`], in any
    /// backend layout, and may share it across every model trained on the
    /// same inputs. The kernel rows go through the batch hook; no forward
    /// solve and no prior variance run. Like [`Gp::predict_standardized`] it
    /// does not count towards `predict_batch_points`.
    ///
    /// # Panics
    ///
    /// Panics if `cross` does not pair `out.len()` queries of the kernel's
    /// input dimension with the training inputs.
    pub fn predict_means_from_cross(&self, cross: &DiffBatch<'_>, out: &mut [f64]) {
        let kv = self.cross_rows(cross, out.len());
        for (o, kstar) in out.iter_mut().zip(kv.chunks_exact(self.xs.len())) {
            *o = mfbo_linalg::dot(kstar, &self.alpha);
        }
    }

    /// Full standardized posteriors at the queries `tile` from `cross`, the
    /// caller's [`DiffBatch::cross`] of `tile` against [`Gp::xs`] (see
    /// [`Gp::predict_means_from_cross`]): bit-identical to
    /// [`Gp::predict_batch_standardized`], and counted the same.
    ///
    /// # Panics
    ///
    /// Panics if `cross` does not pair `tile` with the training inputs.
    pub fn predict_batch_from_cross(
        &self,
        tile: &[Vec<f64>],
        cross: &DiffBatch<'_>,
    ) -> Vec<(f64, f64)> {
        mfbo_telemetry::counter!("predict_batch_points", tile.len() as u64);
        let mut out = Vec::with_capacity(tile.len());
        self.tile_posteriors(tile, cross, mfbo_simd::active(), &mut out);
        out
    }

    /// The one posterior path behind every predict entry point: tiles of
    /// queries, each through [`Gp::tile_posteriors`].
    fn posteriors(&self, points: &[Vec<f64>], be: mfbo_simd::Backend) -> Vec<(f64, f64)> {
        let n = self.xs.len();
        let dim = self.kernel.input_dim();
        let lanes = be.lanes();
        // Tile size: per query the hot working set is the n×dim difference
        // rows (8·n·dim bytes; the tile's batch is scalar-layout, so no
        // dim-major transpose is built) and the cross-covariance row (8·n
        // bytes). Budget ~1 MiB so the tile stays cache-resident across the
        // kernel sweep and the solves; round down to a whole number of SIMD
        // lanes.
        let per_query = 8 * n * dim + 8 * n;
        let tile_len = (1 << 20) / per_query.max(1);
        let tile_len = (tile_len / lanes * lanes).clamp(lanes, points.len().max(lanes));
        let mut out = Vec::with_capacity(points.len());
        for tile in points.chunks(tile_len) {
            // The per-tile batches are deliberately built in the scalar
            // layout whatever the backend: a batch evaluated for one model
            // evaluates its kernel rows exactly once, so the dim-major
            // transpose the vector kernels want costs more to build than it
            // saves (unlike the NLML training batch, or a batch the caller
            // shares across a bundle). The SIMD win here is the interleaved
            // multi-RHS solves, which read `kv` directly — and scalar vs
            // vector kernel evaluation is bit-identical by construction, so
            // the mix is invisible in the output.
            let cross = DiffBatch::cross_with_backend(tile, &self.xs, mfbo_simd::Backend::Scalar);
            self.tile_posteriors(tile, &cross, be, &mut out);
        }
        out
    }

    /// The cross-covariance rows (query-major, `n` per query) of the `m`
    /// queries of `cross`.
    fn cross_rows(&self, cross: &DiffBatch<'_>, m: usize) -> Vec<f64> {
        let n = self.xs.len();
        assert_eq!(
            cross.len(),
            m * n,
            "cross batch does not pair the queries with the training set"
        );
        assert_eq!(
            cross.dim(),
            self.kernel.input_dim(),
            "query dimension mismatch"
        );
        let mut kv = vec![0.0; m * n];
        self.kernel.eval_from_diffs(&self.params, cross, &mut kv);
        kv
    }

    /// Appends the `(mean, var)` of each query of `tile` to `out`, from
    /// `cross` (the tile against the training inputs): kernel rows and
    /// prior variances through the batch hook (one parameter hoist per
    /// tile), then [`Gp::finish_posteriors`].
    fn tile_posteriors(
        &self,
        tile: &[Vec<f64>],
        cross: &DiffBatch<'_>,
        be: mfbo_simd::Backend,
        out: &mut Vec<(f64, f64)>,
    ) {
        let kv = self.cross_rows(cross, tile.len());
        let diag = DiffBatch::diagonal_with_backend(tile, mfbo_simd::Backend::Scalar);
        let mut kss = vec![0.0; tile.len()];
        self.kernel.eval_from_diffs(&self.params, &diag, &mut kss);
        self.finish_posteriors(be, &kv, &kss, out);
    }

    /// Turns the cross-covariance rows `kv` (query-major, `n` per query)
    /// and prior variances `kss` of a block of queries into one `(mean,
    /// var)` pair each, appended to `out` in query order.
    ///
    /// Lane-groups of queries share one interleaved forward solve; the
    /// variance reduction walks lane `c`'s strided entries in the same
    /// ascending order (and from the same 0.0 start) as `dot(&v, &v)` on
    /// the de-interleaved vector, so every query runs the pointwise
    /// operation sequence.
    fn finish_posteriors(
        &self,
        be: mfbo_simd::Backend,
        kv: &[f64],
        kss: &[f64],
        out: &mut Vec<(f64, f64)>,
    ) {
        let n = self.xs.len();
        let m = kss.len();
        let lanes = be.lanes();
        let mut q = 0;
        if lanes > 1 && m >= lanes {
            let mut bi = vec![0.0; n * lanes];
            let mut vi = vec![0.0; n * lanes];
            while q + lanes <= m {
                for i in 0..n {
                    for (c, slot) in bi[i * lanes..(i + 1) * lanes].iter_mut().enumerate() {
                        *slot = kv[(q + c) * n + i];
                    }
                }
                self.chol.forward_solve_interleaved_into(be, &bi, &mut vi);
                for c in 0..lanes {
                    let kstar = &kv[(q + c) * n..(q + c + 1) * n];
                    let mean = mfbo_linalg::dot(kstar, &self.alpha);
                    let mut s = 0.0;
                    for k in 0..n {
                        let x = vi[k * lanes + c];
                        s += x * x;
                    }
                    out.push((mean, (kss[q + c] - s).max(0.0)));
                }
                q += lanes;
            }
        }
        let mut v = vec![0.0; n];
        for q in q..m {
            let kstar = &kv[q * n..(q + 1) * n];
            let mean = mfbo_linalg::dot(kstar, &self.alpha);
            self.chol.forward_solve_into(kstar, &mut v);
            out.push((mean, (kss[q] - mfbo_linalg::dot(&v, &v)).max(0.0)));
        }
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
            .map(|(m, v)| Prediction {
                mean: self.standardizer.inverse(m),
                var: self.standardizer.inverse_std(v.max(0.0).sqrt()).powi(2),
            })
            .collect()
    }

    /// Observation-noise variance `σ_n²` in standardized space.
    pub fn noise_var_standardized(&self) -> f64 {
        (2.0 * self.log_noise).exp()
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
    /// instead of once per sample (see [`Gp::propagation`]). Counts one
    /// `predict_batch_points` per sample.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the kernel's design dimension.
    pub fn predict_propagated_standardized(&self, x: &[f64], fs: &[f64]) -> Vec<(f64, f64)> {
        self.predict_propagated_standardized_with_backend(x, fs, mfbo_simd::active())
    }

    /// [`Gp::predict_propagated_standardized`] with an explicit SIMD
    /// backend for the interleaved forward solves — the
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
        assert_eq!(
            x.len(),
            self.kernel.design_dim(),
            "design point dimension mismatch"
        );
        if fs.is_empty() {
            return Vec::new();
        }
        mfbo_telemetry::counter!("predict_batch_points", fs.len() as u64);
        // One design point: the factors pair by pair, with no batch built.
        let scales = self.kernel.scales(&self.params);
        let (k2, k3) = self
            .xs
            .iter()
            .map(|z| scales.design_pair(x.iter().zip(z).map(|(a, b)| a - b)))
            .unzip();
        // The prior variance's design factors from the `x − x` differences
        // a diagonal batch holds.
        #[allow(clippy::eq_op)]
        let (k2_xx, k3_xx) = scales.design_pair(x.iter().map(|a| a - a));
        let p = Propagation {
            gp: self,
            scales,
            k2,
            k3,
            row: Vec::new(),
        };
        let n = self.xs.len();
        let mut kv = vec![0.0; fs.len() * n];
        let mut kss = Vec::with_capacity(fs.len());
        for (&f, row) in fs.iter().zip(kv.chunks_exact_mut(n)) {
            p.fill(0, f, row);
            // Deliberately `f − f`, as the diagonal batch stores it (NaN,
            // not 0, for a non-finite sample).
            #[allow(clippy::eq_op)]
            kss.push(p.scales.k1(f - f) * k2_xx + k3_xx);
        }
        let mut out = Vec::with_capacity(fs.len());
        self.finish_posteriors(be, &kv, &kss, &mut out);
        out
    }

    /// The design-space half of the propagated kernel rows (eq. 9's
    /// `k2(x_q, x_i)` and `k3(x_q, x_i)`) for every design point `x_q` of
    /// `design`, a [`DiffBatch::cross`] of the design points against
    /// [`Gp::xs`] (only their leading design columns are read). The caller
    /// may share one batch across every fusion model trained on the same
    /// design points. The parameter transforms are taken once per call,
    /// and a vector-backend batch runs each factor as one
    /// [`mfbo_simd::sq_norm`] sweep; either layout gives the same bits.
    ///
    /// # Panics
    ///
    /// Panics if `design` is not over the kernel's design dimension or does
    /// not pair whole design points with the training inputs.
    pub fn propagation(&self, design: &DiffBatch<'_>) -> Propagation<'_> {
        let n = self.xs.len();
        assert_eq!(
            design.dim(),
            self.kernel.design_dim(),
            "design dimension mismatch"
        );
        assert_eq!(
            design.len() % n.max(1),
            0,
            "design batch does not pair whole queries"
        );
        let scales = self.kernel.scales(&self.params);
        let (k2, k3) = scales.design(design);
        Propagation {
            gp: self,
            scales,
            k2,
            k3,
            row: vec![0.0; n],
        }
    }
}

/// The hoisted NARGP kernel factors of a block of design points (see
/// [`Gp::propagation`]): only the 1-dim `k1` is left to evaluate per
/// sample.
#[derive(Debug)]
pub struct Propagation<'a> {
    gp: &'a Gp<NargpKernel>,
    scales: NargpScales,
    /// `k2(x_q, x_i)`, query-major, `n` per design point.
    k2: Vec<f64>,
    /// `k3(x_q, x_i)`, laid out as `k2`.
    k3: Vec<f64>,
    /// Scratch kernel row.
    row: Vec<f64>,
}

impl Propagation<'_> {
    /// The standardized posterior means at the augmented inputs
    /// `(x_q, f)` of design point `q`, for `f` in `fs`, into `out` in
    /// sample order: bit-identical to the `.0` of
    /// [`Gp::predict_propagated_standardized`]. Counts one
    /// `predict_batch_points` per sample, as the full path does.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range or `out.len() != fs.len()`.
    pub fn means(&mut self, q: usize, fs: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), fs.len(), "one mean per sample");
        mfbo_telemetry::counter!("predict_batch_points", fs.len() as u64);
        let mut row = std::mem::take(&mut self.row);
        for (o, &f) in out.iter_mut().zip(fs) {
            self.fill(q, f, &mut row);
            *o = mfbo_linalg::dot(&row, &self.gp.alpha);
        }
        self.row = row;
    }

    /// The kernel row of the augmented input `(x_q, f)` against every
    /// training point: `k1(f, f_i)·k2_i + k3_i`, which is `k3_i` where
    /// `k2_i` is zero (see [`k1_term_vanishes`]).
    fn fill(&self, q: usize, f: f64, row: &mut [f64]) {
        let n = row.len();
        let d = self.gp.kernel.design_dim();
        let (k2, k3) = (&self.k2[q * n..(q + 1) * n], &self.k3[q * n..(q + 1) * n]);
        let s = &self.scales;
        for (((o, z), &k2i), &k3i) in row.iter_mut().zip(&self.gp.xs).zip(k2).zip(k3) {
            let df = f - z[d];
            *o = if k1_term_vanishes(s.sf2_1, df * s.inv_l1, k2i) {
                k3i
            } else {
                s.k1(df) * k2i + k3i
            };
        }
    }
}

/// The NLML of one fit as a two-phase L-BFGS objective: line-search probes
/// run only [`nlml_value_cached`], and the accepted probe's factor finishes
/// the gradient in [`nlml_grad_cached`] — the same bits as
/// [`crate::nlml_with_grad_cached`], without a gradient per rejected probe
/// or a second evaluation per accepted step.
struct NlmlObjective<'a, 'w, K> {
    kernel: &'a K,
    ws: &'a NlmlWorkspace<'w>,
    ys: &'a [f64],
}

impl<K: Kernel> Objective for NlmlObjective<'_, '_, K> {
    type Partial = Option<NlmlFactor>;

    fn value(&self, theta: &[f64]) -> (f64, Option<NlmlFactor>) {
        nlml_value_cached(self.kernel, theta, self.ws, self.ys)
    }

    fn gradient(&self, theta: &[f64], factor: Option<NlmlFactor>) -> Vec<f64> {
        nlml_grad_cached(self.kernel, theta, self.ws, factor)
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
            None,
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
            None,
        )
        .unwrap();
        assert_eq!(gp.len(), 10);
        // Byte-identical to an exact model built on the hand-selected subset.
        let keep = mfbo_infer::select_subset(&xs, 10);
        let xs_sub: Vec<Vec<f64>> = keep.iter().map(|&i| xs[i].clone()).collect();
        let ys_sub: Vec<f64> = keep.iter().map(|&i| ys[i]).collect();
        let oracle =
            Gp::with_params(k, xs_sub, ys_sub, params, -2.0, &GpConfig::default(), None).unwrap();
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
        let ws = NlmlWorkspace::new(&xs);
        let fused = |theta: &[f64]| crate::nlml_with_grad_cached(&kernel, theta, &ws, &ys_std);
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
        let oracle = Gp::with_params(
            kernel,
            xs,
            ys,
            theta[..np].to_vec(),
            theta[np],
            &config,
            None,
        )
        .unwrap();
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

    /// The zero-`k2` short circuit of the propagated kernel rows must
    /// return the unshortened `k1(f − f_i)·k2_i + k3_i`: a tiny `k2`
    /// lengthscale zeroes `k2` away from the training designs, and NaN and
    /// ±inf sample values make `k1` NaN or zero.
    #[test]
    fn propagation_zero_k2_short_circuit_matches_unshortened() {
        let kernel = NargpKernel::new(2);
        let mut params = kernel.default_params();
        // k2's design lengthscales e^-8.
        params[3] = -8.0;
        params[4] = -8.0;
        let xs = vec![
            vec![0.1, 0.2, 0.5],
            vec![0.4, 0.9, -0.3],
            vec![0.8, 0.5, 1.2],
        ];
        let ys = vec![0.3, -0.1, 0.8];
        let gp = Gp::with_params(kernel, xs, ys, params, -2.0, &GpConfig::default(), None).unwrap();
        // The first design point is a training design: its k2 row is not
        // all zero.
        let design = vec![vec![0.1, 0.2], vec![0.3, 0.35]];
        let fs = [0.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.2, 1e300];
        let n = gp.xs.len();
        for be in [mfbo_simd::Backend::Scalar, mfbo_simd::active()] {
            let batch = DiffBatch::cross_with_backend(&design, &gp.xs, be);
            let p = gp.propagation(&batch);
            assert!(p.k2.contains(&0.0) && p.k2.iter().any(|&k| k != 0.0));
            let mut row = vec![0.0; n];
            for q in 0..design.len() {
                for &f in &fs {
                    p.fill(q, f, &mut row);
                    for (i, &v) in row.iter().enumerate() {
                        let full = p.scales.k1(f - gp.xs[i][2]) * p.k2[q * n + i] + p.k3[q * n + i];
                        assert!(
                            v.to_bits() == full.to_bits() || (v.is_nan() && full.is_nan()),
                            "q {q}, f {f}, i {i}: {v} vs unshortened {full}"
                        );
                    }
                }
            }
        }
    }
}
