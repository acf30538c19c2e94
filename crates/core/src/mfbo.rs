//! The multi-fidelity Bayesian optimization driver — paper Algorithm 1.
//!
//! Per iteration:
//!
//! 1. build/refresh the fusion surrogates (§3.1–3.2);
//! 2. maximize the **low-fidelity** wEI with the MSP strategy → `x*_l`
//!    (Algorithm 1, line 5);
//! 3. maximize the **high-fidelity** wEI, seeding the MSP starts with
//!    `x*_l` and the biased anchors of §4.1 → `x_t` (line 6);
//! 4. choose the evaluation fidelity by the variance criterion of §3.4;
//! 5. simulate and extend the training set (line 8).
//!
//! When the high-fidelity data contain no feasible point yet, step 2–3 are
//! replaced by the first-feasible-point search of §4.2 (minimize
//! `Σ max(0, μ_h,i(x))`, eq. 13).
//!
//! With `initial_low: 0` the same driver is single-fidelity constrained BO:
//! one GP per output, no low-fidelity search (step 2) and no fidelity
//! selection (step 4), every sample at high fidelity. That is the WEIBO
//! baseline (`mfbo_baselines::Weibo` is a preset of it).

use crate::asktell::{AskTellMfbo, Told};
use crate::evaluator::{robust_evaluate, RunOptions, SimOutcome};
use crate::history::Outcome;
use crate::problem::{Fidelity, MultiFidelityProblem};
use crate::MfboError;
use mfbo_gp::InferenceMode;
use mfbo_pool::Parallelism;
use mfbo_telemetry::span;
use rand::Rng;
use std::time::Instant;

/// Configuration of [`MfBayesOpt`].
///
/// The defaults mirror the paper's reported settings where it states them:
/// γ = 0.01, 10 % of MSP starts around the low-fidelity incumbent, 40 %
/// around the high-fidelity incumbent. Every surrogate trains with the
/// [`crate::MfGpConfig::fast`] settings; [`MfBoConfig::parallelism`] and
/// [`MfBoConfig::gp_inference`] are the run's only GP settings.
#[derive(Debug, Clone)]
pub struct MfBoConfig {
    /// Size of the initial low-fidelity Latin-hypercube design. `0` means
    /// single-fidelity BO: no fusion model and no fidelity selection, every
    /// sample at high fidelity (the loop the WEIBO baseline runs).
    pub initial_low: usize,
    /// Size of the initial high-fidelity Latin-hypercube design.
    pub initial_high: usize,
    /// Total simulation budget in *equivalent high-fidelity simulations*
    /// (initial design included).
    pub budget: f64,
    /// Hard cap on BO iterations (safety net; the budget normally stops the
    /// loop first).
    pub max_iterations: usize,
    /// Number of MSP starting points per acquisition optimization.
    pub msp_starts: usize,
    /// Fraction of starts scattered around the low-fidelity incumbent
    /// (paper: 0.10).
    pub frac_around_tau_l: f64,
    /// Fraction of starts scattered around the high-fidelity incumbent
    /// (paper: 0.40).
    pub frac_around_tau_h: f64,
    /// Fidelity-selection threshold γ of eqs. (11)–(12).
    pub gamma: f64,
    /// Re-optimize hyperparameters every `refit_every` iterations; in
    /// between, refresh the models with frozen hyperparameters. `1` = refit
    /// every iteration (most faithful, most expensive).
    pub refit_every: usize,
    /// Optional winsorization of surrogate training targets at
    /// `mean ± k·std` (see [`crate::FidelityData::winsorized`]). `None`
    /// (paper-faithful) fits the raw observations; heavy-tailed problems
    /// like the charge pump benefit from `Some(2.5)`.
    pub winsorize_sigma: Option<f64>,
    /// Verification safeguard: after this many *consecutive* low-fidelity
    /// selections, the next sample is forced to high fidelity regardless of
    /// eq. (11). In high-dimensional spaces the low-fidelity posterior
    /// variance at fresh acquisition points never falls below any fixed γ
    /// (the curse of dimensionality keeps every new point far from the
    /// data), which would otherwise starve the fusion model of
    /// high-fidelity evidence forever. The paper does not state such a
    /// safeguard, but its reported charge-pump run (146 fine samples out of
    /// 471) is unreachable without one.
    pub max_low_streak: usize,
    /// Thread-pool mode for the hot paths (surrogate training, MSP restart
    /// optimization, Monte-Carlo posterior propagation). Every mode produces
    /// bit-identical optimization histories — see `mfbo_pool`.
    pub parallelism: Parallelism,
    /// Maximum candidates in flight at once through the ask/tell interface
    /// (q-batch acquisition). `1` — the default and the paper's sequential
    /// rule — reproduces the legacy loop bit for bit. With `q > 1`,
    /// [`crate::AskTellMfbo`] speculates ahead using constant-liar
    /// fantasizing over the pending points (see DESIGN.md item 14), which
    /// changes the trajectory: batched runs have their own goldens. The
    /// sequential drivers ([`MfBayesOpt::run`]/[`MfBayesOpt::run_with`])
    /// still evaluate one candidate at a time regardless of this knob;
    /// values > 1 only pay off with a concurrent evaluator such as the
    /// `mfbo-server` evaluation service.
    pub max_pending: usize,
    /// GP inference engine for every surrogate fit (full and frozen
    /// refits), applied to both fusion stages. [`InferenceMode::Exact`] —
    /// the default — reproduces every historical trajectory byte for byte;
    /// `subset-of-data` caps the cubic fit cost once a run accumulates more
    /// observations than its subset size (see DESIGN.md item 15). Subset
    /// runs are still deterministic and journal-replayable: the selection
    /// keys off committed history order.
    pub gp_inference: InferenceMode,
}

impl Default for MfBoConfig {
    fn default() -> Self {
        MfBoConfig {
            initial_low: 10,
            initial_high: 5,
            budget: 50.0,
            max_iterations: 10_000,
            msp_starts: 24,
            frac_around_tau_l: 0.10,
            frac_around_tau_h: 0.40,
            gamma: 0.01,
            refit_every: 1,
            winsorize_sigma: None,
            max_low_streak: 25,
            parallelism: Parallelism::Serial,
            max_pending: 1,
            gp_inference: InferenceMode::Exact,
        }
    }
}

impl MfBoConfig {
    /// Checks the configuration for internal consistency, returning
    /// [`MfboError::InvalidConfig`] with a typed reason for the first
    /// violation. Every driver entry point ([`crate::AskTellMfbo::new`],
    /// hence [`MfBayesOpt::run`], the CLI, and the server) calls this, so
    /// inconsistent settings fail loudly at config-build time instead of
    /// being silently ignored mid-run.
    ///
    /// # Errors
    ///
    /// [`MfboError::InvalidConfig`] when the settings are inconsistent.
    pub fn validate(&self) -> Result<(), MfboError> {
        if self.initial_high == 0 {
            return Err(MfboError::InvalidConfig {
                reason: "initial designs need at least one high-fidelity point \
                         (initial_high must be positive)"
                    .into(),
            });
        }
        if !(self.budget > 0.0 && self.budget.is_finite()) {
            return Err(MfboError::InvalidConfig {
                reason: "budget must be positive and finite".into(),
            });
        }
        if self.max_pending == 0 {
            return Err(MfboError::InvalidConfig {
                reason: "max_pending must be at least 1".into(),
            });
        }
        if self.refit_every == 0 {
            return Err(MfboError::InvalidConfig {
                reason: "refit_every must be at least 1 (1 = re-optimize \
                         hyperparameters every iteration)"
                    .into(),
            });
        }
        if let Some(k) = self.winsorize_sigma {
            if !(k > 0.0 && k.is_finite()) {
                return Err(MfboError::InvalidConfig {
                    reason: "winsorize_sigma must be positive and finite".into(),
                });
            }
        }
        Ok(())
    }
}

/// The multi-fidelity Bayesian optimizer (paper Algorithm 1).
///
/// See the crate-level example for usage.
#[derive(Debug, Clone)]
pub struct MfBayesOpt {
    config: MfBoConfig,
}

impl MfBayesOpt {
    /// Creates a driver with the given configuration.
    pub fn new(config: MfBoConfig) -> Self {
        MfBayesOpt { config }
    }

    /// Runs the optimization on `problem`.
    ///
    /// # Errors
    ///
    /// Returns [`MfboError::InvalidConfig`] for inconsistent settings,
    /// [`MfboError::NonFiniteEvaluation`] if the simulator produces NaN/inf,
    /// and [`MfboError::Surrogate`] if model training fails irrecoverably.
    pub fn run<P, R>(&self, problem: &P, rng: &mut R) -> Result<Outcome, MfboError>
    where
        P: MultiFidelityProblem + ?Sized,
        R: Rng + ?Sized,
    {
        self.run_with(problem, rng, &mut RunOptions::default())
    }

    /// Runs the optimization with durability and fault-tolerance options:
    /// write-ahead journaling, checkpoint/resume, cross-run evaluation
    /// caching, warm-starting, and robust evaluation — see
    /// [`RunOptions`]. `run` is equivalent to `run_with` with default
    /// options.
    ///
    /// On resume, the loop recomputes its deterministic decisions from
    /// scratch while journaled evaluations are substituted for simulator
    /// calls, so an interrupted-and-resumed run reproduces the
    /// uninterrupted trajectory bit for bit (replayed cost is billed
    /// normally and reported in [`Outcome::eval_stats`]).
    ///
    /// # Errors
    ///
    /// In addition to the [`MfBayesOpt::run`] contract:
    /// [`MfboError::Store`] for store failures, [`MfboError::ResumeMismatch`]
    /// when the journal disagrees with the recomputed trajectory, and
    /// [`MfboError::EvalBudgetExhausted`] when the fresh-simulation cap is
    /// hit.
    pub fn run_with<P, R>(
        &self,
        problem: &P,
        rng: &mut R,
        opts: &mut RunOptions,
    ) -> Result<Outcome, MfboError>
    where
        P: MultiFidelityProblem + ?Sized,
        R: Rng + ?Sized,
    {
        // The synchronous loop is a thin ask(1)/tell client of the ask/tell
        // core: every golden trajectory recorded against the historical
        // inline loop pins the core's sequential behavior bit for bit.
        let mut driver = AskTellMfbo::new(self.config.clone(), problem, rng, opts)?;
        while !driver.is_finished() {
            let Some(c) = driver.ask(1)?.pop() else {
                // Unreachable in a single-threaded drive: the pump always
                // leaves either a finished run or an unissued candidate.
                return Err(MfboError::Protocol {
                    reason: "sequential driver starved: ask(1) returned no candidate on an \
                             unfinished run"
                        .into(),
                });
            };
            // Replayed and cache-served candidates never surface here — the
            // core commits them internally — so this span, like the
            // historical one, wraps real simulator work only. The initial
            // design is not spanned (it has its own `initial_design` span).
            let sim_span = (c.iteration > 0).then(|| {
                span!(
                    "simulate",
                    iteration = c.iteration,
                    high = c.fidelity == Fidelity::High
                )
            });
            let sim_start = Instant::now();
            let sim = robust_evaluate(problem, &c.x, c.fidelity, driver.policy());
            drop(sim_span);
            let elapsed = sim_start.elapsed();
            match sim {
                SimOutcome::Ok {
                    evaluation,
                    attempts,
                } => driver.tell_timed(
                    c.id,
                    Told::Evaluated {
                        evaluation,
                        attempts,
                    },
                    elapsed,
                )?,
                SimOutcome::Exhausted { attempts, panic } => {
                    let told = driver.tell_timed(c.id, Told::Failed { attempts }, elapsed);
                    if told.is_err() {
                        // Historical Abort-policy behavior: a final panic is
                        // re-raised in preference to the NonFiniteEvaluation
                        // error.
                        if let Some(payload) = panic {
                            std::panic::resume_unwind(payload);
                        }
                    }
                    told?;
                }
            }
        }
        driver.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::FunctionProblem;
    use mfbo_opt::Bounds;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Forrester function pair — the canonical multi-fidelity benchmark.
    fn forrester() -> FunctionProblem {
        FunctionProblem::builder("forrester", Bounds::unit(1))
            .high(|x: &[f64]| (6.0 * x[0] - 2.0).powi(2) * (12.0 * x[0] - 4.0).sin())
            .low(|x: &[f64]| {
                let f = (6.0 * x[0] - 2.0).powi(2) * (12.0 * x[0] - 4.0).sin();
                0.5 * f + 10.0 * (x[0] - 0.5) - 5.0
            })
            .low_cost(0.1)
            .build()
    }

    #[test]
    fn solves_forrester_within_budget() {
        // Global minimum ≈ -6.0207 at x ≈ 0.7572.
        let mut rng = StdRng::seed_from_u64(2024);
        let config = MfBoConfig {
            initial_low: 8,
            initial_high: 4,
            budget: 14.0,
            ..MfBoConfig::default()
        };
        let out = MfBayesOpt::new(config).run(&forrester(), &mut rng).unwrap();
        assert!(out.best_objective < -5.5, "best = {}", out.best_objective);
        assert!(
            (out.best_x[0] - 0.7572).abs() < 0.05,
            "x = {:?}",
            out.best_x
        );
        assert!(out.total_cost <= 14.0 + 1.0); // one evaluation of overshoot allowed
        assert!(out.n_low >= 8 && out.n_high >= 4);
    }

    #[test]
    fn uses_cheap_fidelity_substantially() {
        let mut rng = StdRng::seed_from_u64(7);
        let config = MfBoConfig {
            initial_low: 8,
            initial_high: 4,
            budget: 12.0,
            ..MfBoConfig::default()
        };
        let out = MfBayesOpt::new(config).run(&forrester(), &mut rng).unwrap();
        // The fidelity criterion should route a meaningful share of queries
        // to the cheap simulator.
        assert!(out.n_low > 8, "n_low = {}", out.n_low);
    }

    fn constrained_toy_problem() -> FunctionProblem {
        // min (x0-0.2)² + (x1-0.2)² s.t. x0 + x1 > 1 (c = 1 - x0 - x1 < 0).
        // Optimum on the boundary at (0.5, 0.5), objective 0.18.
        FunctionProblem::builder("c-toy", Bounds::unit(2))
            .high(|x: &[f64]| (x[0] - 0.2).powi(2) + (x[1] - 0.2).powi(2))
            .low(|x: &[f64]| (x[0] - 0.23).powi(2) + (x[1] - 0.17).powi(2) + 0.02)
            .high_constraints(1, |x: &[f64]| vec![1.0 - x[0] - x[1]])
            .low_constraints(|x: &[f64]| vec![1.02 - x[0] - x[1]])
            .low_cost(0.1)
            .build()
    }

    #[test]
    #[ignore = "slow (~9 s in debug): full budget-20 constrained run; run with --ignored"]
    fn constrained_problem_finds_feasible_optimum() {
        let p = constrained_toy_problem();
        let mut rng = StdRng::seed_from_u64(11);
        let config = MfBoConfig {
            initial_low: 10,
            initial_high: 5,
            budget: 20.0,
            ..MfBoConfig::default()
        };
        let out = MfBayesOpt::new(config).run(&p, &mut rng).unwrap();
        assert!(out.feasible);
        assert!(out.best_objective < 0.25, "best = {}", out.best_objective);
        assert!(
            out.best_x[0] + out.best_x[1] >= 0.99,
            "x = {:?}",
            out.best_x
        );
    }

    #[test]
    fn constrained_problem_finds_feasible_point_smoke() {
        // Fast default-suite variant of the test above: a third of the budget
        // is enough to reach feasibility near the active constraint, keeping
        // the per-constraint surrogate path covered on every `cargo test`.
        let p = constrained_toy_problem();
        let mut rng = StdRng::seed_from_u64(11);
        let config = MfBoConfig {
            initial_low: 8,
            initial_high: 4,
            budget: 7.0,
            ..MfBoConfig::default()
        };
        let out = MfBayesOpt::new(config).run(&p, &mut rng).unwrap();
        assert!(out.feasible);
        assert!(out.best_objective < 0.6, "best = {}", out.best_objective);
    }

    #[test]
    fn rejects_bad_configs() {
        let p = forrester();
        let mut rng = StdRng::seed_from_u64(0);
        let e = MfBayesOpt::new(MfBoConfig {
            initial_high: 0,
            ..MfBoConfig::default()
        })
        .run(&p, &mut rng);
        assert!(matches!(e, Err(MfboError::InvalidConfig { .. })));

        let e = MfBayesOpt::new(MfBoConfig {
            budget: 0.0,
            ..MfBoConfig::default()
        })
        .run(&p, &mut rng);
        assert!(matches!(e, Err(MfboError::InvalidConfig { .. })));

        // A NaN budget would otherwise slip past `budget <= 0.0` and run the
        // loop to max_iterations.
        let e = MfBayesOpt::new(MfBoConfig {
            budget: f64::NAN,
            ..MfBoConfig::default()
        })
        .run(&p, &mut rng);
        assert!(matches!(e, Err(MfboError::InvalidConfig { .. })));

        // A winsorization width the clipping cannot use is refused before
        // the initial design is simulated, not by a panic in the first fit.
        for k in [0.0, -1.0, f64::NAN] {
            let e = MfBayesOpt::new(MfBoConfig {
                winsorize_sigma: Some(k),
                ..MfBoConfig::default()
            })
            .run(&p, &mut rng);
            match e {
                Err(MfboError::InvalidConfig { reason }) => {
                    assert!(reason.contains("winsorize_sigma"), "{reason}")
                }
                other => panic!("winsorize_sigma {k}: expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn validate_is_typed_and_catches_mode_conflicts() {
        assert!(MfBoConfig::default().validate().is_ok());
        let reason = |cfg: MfBoConfig| match cfg.validate() {
            Err(MfboError::InvalidConfig { reason }) => reason,
            other => panic!("expected InvalidConfig, got {other:?}"),
        };
        let r = reason(MfBoConfig {
            initial_high: 0,
            ..MfBoConfig::default()
        });
        assert!(r.contains("initial designs"), "{r}");
        // No low-fidelity design is single-fidelity BO; no high-fidelity
        // design is still refused.
        assert!(MfBoConfig {
            initial_low: 0,
            ..MfBoConfig::default()
        }
        .validate()
        .is_ok());
        let r = reason(MfBoConfig {
            initial_low: 0,
            initial_high: 0,
            ..MfBoConfig::default()
        });
        assert!(r.contains("initial designs"), "{r}");
        let r = reason(MfBoConfig {
            budget: f64::INFINITY,
            ..MfBoConfig::default()
        });
        assert!(r.contains("budget"), "{r}");
        let r = reason(MfBoConfig {
            max_pending: 0,
            ..MfBoConfig::default()
        });
        assert!(r.contains("max_pending"), "{r}");
        let r = reason(MfBoConfig {
            refit_every: 0,
            ..MfBoConfig::default()
        });
        assert!(r.contains("refit_every"), "{r}");
        // The remaining knobs combine freely.
        assert!(MfBoConfig {
            refit_every: 4,
            winsorize_sigma: Some(2.5),
            max_pending: 4,
            gp_inference: InferenceMode::subset_of_data(),
            ..MfBoConfig::default()
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn approximate_inference_solves_forrester() {
        // A subset cap far below the observation counts forces the
        // approximate code path through the whole loop.
        let mut rng = StdRng::seed_from_u64(7);
        let config = MfBoConfig {
            initial_low: 10,
            initial_high: 4,
            budget: 10.0,
            gp_inference: InferenceMode::SubsetOfData { max_points: 8 },
            ..MfBoConfig::default()
        };
        let out = MfBayesOpt::new(config).run(&forrester(), &mut rng).unwrap();
        // A subset cap of 8 points is a deliberately crude surrogate, so
        // expect progress (true minimum ≈ −6.02), not the optimum.
        assert!(out.best_objective < -4.0, "best {}", out.best_objective);
    }

    #[test]
    fn non_finite_problem_is_reported() {
        let p = FunctionProblem::builder("nan", Bounds::unit(1))
            .high(|_: &[f64]| f64::NAN)
            .build();
        let mut rng = StdRng::seed_from_u64(0);
        let e = MfBayesOpt::new(MfBoConfig::default()).run(&p, &mut rng);
        assert!(matches!(e, Err(MfboError::NonFiniteEvaluation { .. })));
    }

    #[test]
    fn history_is_complete_and_cost_monotone() {
        let mut rng = StdRng::seed_from_u64(3);
        let config = MfBoConfig {
            initial_low: 6,
            initial_high: 3,
            budget: 8.0,
            ..MfBoConfig::default()
        };
        let out = MfBayesOpt::new(config).run(&forrester(), &mut rng).unwrap();
        assert_eq!(out.history.len(), out.n_low + out.n_high);
        let mut prev = 0.0;
        for r in &out.history {
            assert!(r.cost_so_far > prev);
            prev = r.cost_so_far;
        }
        assert!(out.cost_to_best <= out.total_cost);
    }

    #[test]
    fn telemetry_records_one_decision_per_bo_iteration() {
        let sink = std::sync::Arc::new(mfbo_telemetry::sinks::CollectSink::new());
        let guard = mfbo_telemetry::scoped_sink(sink.clone());
        let mut rng = StdRng::seed_from_u64(2024);
        let config = MfBoConfig {
            initial_low: 6,
            initial_high: 3,
            budget: 8.0,
            ..MfBoConfig::default()
        };
        let out = MfBayesOpt::new(config).run(&forrester(), &mut rng).unwrap();
        drop(guard);

        // One aggregate decision per BO iteration (history minus the 9
        // initial-design records), mirrored 1:1 by streamed events.
        let bo_iters = out.history.iter().filter(|r| r.iteration > 0).count();
        assert!(bo_iters > 0);
        assert_eq!(out.telemetry.decisions.len(), bo_iters);
        assert_eq!(sink.named("fidelity_decision").len(), bo_iters);
        for (d, r) in out
            .telemetry
            .decisions
            .iter()
            .zip(out.history.iter().filter(|r| r.iteration > 0))
        {
            assert_eq!(d.iteration, r.iteration);
            assert_eq!(d.chose_high, r.fidelity == Fidelity::High);
            assert!((d.cost_after - r.cost_so_far).abs() < 1e-12);
            assert!(d.max_low_variance.is_finite());
            assert!((d.threshold - 0.01).abs() < 1e-12); // (1+0)·γ, Nc = 0
        }

        // Stage timing covers the whole hot path, and the wall clock bounds
        // the per-stage totals.
        for stage in ["surrogate_fit", "acq_opt", "simulate_low", "simulate_high"] {
            assert!(out.telemetry.stages.contains_key(stage), "missing {stage}");
        }
        assert_eq!(
            out.telemetry.stages["surrogate_fit"].calls as usize,
            bo_iters
        );
        assert_eq!(out.telemetry.stages["acq_opt"].calls as usize, bo_iters);
        assert!(out.telemetry.wall_us >= out.telemetry.stages["surrogate_fit"].total_us);

        assert_eq!(sink.named("run_start").len(), 1);
        assert_eq!(sink.named("run_end").len(), 1);
    }

    /// The single-fidelity preset WEIBO runs: no low-fidelity design.
    fn single_fidelity(initial_high: usize, budget: f64) -> MfBoConfig {
        MfBoConfig {
            initial_low: 0,
            initial_high,
            budget,
            ..MfBoConfig::default()
        }
    }

    #[test]
    fn warm_start_is_refused_without_a_low_fidelity_design() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut opts = RunOptions {
            warm_start: true,
            ..RunOptions::default()
        };
        let e =
            MfBayesOpt::new(single_fidelity(5, 8.0)).run_with(&forrester(), &mut rng, &mut opts);
        match e {
            Err(MfboError::InvalidConfig { reason }) => {
                assert!(reason.contains("low-fidelity surrogate"), "{reason}")
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn single_fidelity_telemetry_covers_every_iteration() {
        let sink = std::sync::Arc::new(mfbo_telemetry::sinks::CollectSink::new());
        let guard = mfbo_telemetry::scoped_sink(sink.clone());
        let mut rng = StdRng::seed_from_u64(2);
        let out = MfBayesOpt::new(single_fidelity(5, 12.0))
            .run(&forrester(), &mut rng)
            .unwrap();
        drop(guard);
        let bo_iters = out.history.iter().filter(|r| r.iteration > 0).count();
        assert_eq!(bo_iters, 7);
        assert_eq!(sink.named("sfbo_iteration").len(), bo_iters);
        assert!(sink.named("fidelity_decision").is_empty());
        assert_eq!(
            out.telemetry.stages["surrogate_fit"].calls as usize,
            bo_iters
        );
        assert_eq!(out.telemetry.stages["acq_opt"].calls as usize, bo_iters);
        // 5 initial + 7 BO simulations, all at high fidelity.
        assert_eq!(out.telemetry.stages["simulate_high"].calls, 12);
        assert_eq!(out.n_low, 0);
        assert!(out.telemetry.decisions.is_empty());
        assert!(out.telemetry.wall_us > 0);
    }

    #[test]
    fn frozen_refits_dont_break_the_loop() {
        let mut rng = StdRng::seed_from_u64(7);
        let config = MfBoConfig {
            initial_low: 8,
            initial_high: 4,
            budget: 12.0,
            refit_every: 5,
            ..MfBoConfig::default()
        };
        let out = MfBayesOpt::new(config).run(&forrester(), &mut rng).unwrap();
        assert!(out.best_objective < -5.0, "best = {}", out.best_objective);
    }
}
