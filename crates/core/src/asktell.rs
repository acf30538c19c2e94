//! Ask/tell decomposition of the multi-fidelity BO loop.
//!
//! [`AskTellMfbo`] inverts the synchronous `suggest → evaluate → update`
//! loop of [`crate::MfBayesOpt`] into an explicit state machine:
//!
//! - [`AskTellMfbo::ask`] returns up to `k` candidates awaiting evaluation;
//! - [`AskTellMfbo::tell`] folds a result back in, in *any* order;
//! - [`AskTellMfbo::finish`] closes the run and returns the [`Outcome`].
//!
//! The sequential driver (`MfBayesOpt::run_with`, and through it WEIBO) is
//! a thin client of this core, so every existing golden trajectory pins its
//! behavior.
//!
//! # Single-fidelity runs
//!
//! A run with no low-fidelity design (`initial_low == 0`) is single-fidelity
//! constrained BO, the WEIBO loop the paper extends: the core fits one SE-ARD
//! GP per output instead of the fusion models, skips the low-fidelity MSP
//! search and the fidelity selector, and issues every candidate at
//! [`Fidelity::High`](crate::problem::Fidelity::High). It journals and traces under the `"sfbo"` algo tag.
//!
//! # Determinism
//!
//! All decision state (surrogate fits, acquisition optimization, fidelity
//! selection, RNG consumption) advances only inside the internal *pump*,
//! which runs a fixed-priority loop: generate candidates while fewer than
//! `max_pending` are in flight, then commit the oldest candidate once its
//! result is available, then repeat. Generation takes priority over
//! commitment, so the interleaving of "generate" and "commit" steps — and
//! with it every RNG draw and surrogate fit — is a pure function of
//! `(seed, config, problem)`, independent of the order or timing in which
//! `tell` delivers results. Results for younger candidates are buffered
//! until the older ones ahead of them commit.
//!
//! # Batched acquisition (`max_pending` > 1)
//!
//! With `q = max_pending > 1`, up to `q` candidates are speculated ahead
//! using **constant-liar fantasizing**: each in-flight candidate is added to
//! the training data with a deterministic *lie* — the incumbent objective
//! and the per-constraint mean of the committed observations at its
//! fidelity — before the surrogates are built for the next candidate. The
//! lie is a fixed value, not a posterior sample, so batched trajectories
//! need no extra RNG draws and stay reproducible (see DESIGN.md item 14).
//! The acquisition search additionally excludes a small neighborhood of
//! every in-flight point ([`mfbo_opt::msp::MultiStart::with_taboo`]) so the
//! batch never collapses onto duplicates. The paper's sequential rule is
//! the default (`max_pending = 1`) and is bit-identical to the legacy loop.
//!
//! # Durability
//!
//! With a journaling [`RunOptions`], batched runs write a *pending* record
//! when a candidate is issued and a commit record when its result folds in;
//! a crashed server resumes by regenerating candidates deterministically
//! and verifying them against both record kinds, re-issuing whichever
//! candidates were in flight. Sequential runs journal exactly like the
//! legacy loop — byte-identical files.

use crate::evaluator::{EvalPolicy, EvalSession, NonFinitePolicy, RunOptions};
use crate::fidelity::FidelitySelector;
use crate::history::{EvaluationRecord, FidelityData, Outcome};
use crate::mfbo::MfBoConfig;
use crate::nargp::MfGpConfig;
use crate::problem::{Evaluation, Fidelity, MultiFidelityProblem};
use crate::surrogate::{MfBundleThetas, MfSurrogates, SfBundleThetas, SfSurrogates};
use crate::MfboError;
use mfbo_gp::{FitCache, GpConfig, GpError};
use mfbo_opt::msp::MultiStart;
use mfbo_opt::neldermead::NelderMead;
use mfbo_opt::{sampling, Bounds};
use mfbo_runstore::JournalEntry;
use mfbo_telemetry::{event, span, FidelityDecision, RunTelemetry, Span};
use rand::Rng;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// L∞ radius (in the unit cube) around each in-flight candidate that the
/// acquisition search avoids in batched mode. Large enough to keep
/// near-duplicate rows out of the fantasy kernel matrices, small enough to
/// never exclude a genuinely different optimum.
const TABOO_RADIUS: f64 = 1e-6;

/// Relative width of the MSP anchor clouds around the incumbents and `x*_l`
/// (fraction of each unit-cube side).
const ANCHOR_SPREAD: f64 = 0.05;

/// A candidate returned by [`AskTellMfbo::ask`], awaiting evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Core-assigned id, echoed back in [`AskTellMfbo::tell`].
    pub id: u64,
    /// BO iteration the candidate belongs to (0 = initial design).
    pub iteration: usize,
    /// Design point in raw problem units.
    pub x: Vec<f64>,
    /// Fidelity to evaluate at.
    pub fidelity: Fidelity,
}

/// The result delivered to [`AskTellMfbo::tell`].
#[derive(Debug, Clone, PartialEq)]
pub enum Told {
    /// The simulator produced a finite evaluation.
    Evaluated {
        /// The (finite) evaluation.
        evaluation: Evaluation,
        /// 1-based simulator attempts it took (1 = no retries); feeds
        /// [`crate::EvalStats::retries`] and the journal.
        attempts: u32,
    },
    /// Every attempt failed (panicked or stayed non-finite); the core
    /// applies the session's [`NonFinitePolicy`].
    Failed {
        /// Total attempts made.
        attempts: u32,
    },
}

/// Fidelity-decision data captured at candidate generation, recorded into
/// [`RunTelemetry`] when the candidate commits.
#[derive(Debug, Clone)]
struct PendingDecision {
    max_low_variance: f64,
    threshold: f64,
    forced: bool,
}

/// How a candidate's value was (or will be) obtained.
#[derive(Debug, Clone)]
enum SlotResult {
    /// A told (simulated) result, not yet committed.
    Fresh {
        evaluation: Evaluation,
        attempts: u32,
        quarantined: bool,
    },
    /// Served by the cross-run cache at generation time.
    Cached { evaluation: Evaluation },
    /// Adopted from the journal on resume.
    Replayed { entry: JournalEntry },
}

/// One in-flight candidate.
#[derive(Debug)]
struct Slot {
    id: u64,
    iteration: usize,
    /// Design point in raw problem units.
    x: Vec<f64>,
    /// Unit-cube coordinates (empty for initial-design slots, which are
    /// generated in raw units and never feed the rank-one append path).
    x_unit: Vec<f64>,
    fidelity: Fidelity,
    /// RNG cursor at generation — journaled and verified on resume.
    snap: Option<[u64; 4]>,
    decision: Option<PendingDecision>,
    /// Constant-liar stand-in used while the candidate is in flight.
    lie: Evaluation,
    issued: bool,
    result: Option<SlotResult>,
    /// Evaluator-reported duration, recorded as the simulate stage time.
    sim_time: Duration,
}

/// Outcome of one generation attempt inside the pump.
enum Gen {
    /// A candidate was produced (resolved or queued for issue).
    Generated,
    /// Nothing to generate right now (initial design fully issued but not
    /// yet fully committed).
    Blocked,
    /// The run is over: budget or iteration cap reached.
    Exhausted,
}

/// One iteration's surrogate bundle: fusion models when the run has
/// low-fidelity data, one SE-ARD GP per output when it has none. A single
/// short-lived value per iteration, so the variants' size gap is harmless.
#[allow(clippy::large_enum_variant)]
enum Surrogates {
    Mf(MfSurrogates),
    Sf(SfSurrogates),
}

/// Trained hyperparameters carried across iterations for warm and frozen
/// refits.
enum Thetas {
    Mf(MfBundleThetas),
    Sf(SfBundleThetas),
}

impl Surrogates {
    /// Full hyperparameter optimization, warm-started from `warm` when
    /// given.
    fn fit<R: Rng>(
        low: &FidelityData,
        high: &FidelityData,
        cfg: &MfGpConfig,
        warm: Option<&Thetas>,
        rng: &mut R,
        cache: &mut FitCache,
    ) -> Result<Self, GpError> {
        Ok(match warm {
            None if low.is_empty() => {
                Surrogates::Sf(SfSurrogates::fit(high, &cfg.gp, None, rng, Some(cache))?)
            }
            None => Surrogates::Mf(MfSurrogates::fit(low, high, cfg, None, rng, Some(cache))?),
            Some(Thetas::Sf(t)) => {
                Surrogates::Sf(SfSurrogates::fit(high, &cfg.gp, Some(t), rng, Some(cache))?)
            }
            Some(Thetas::Mf(t)) => Surrogates::Mf(MfSurrogates::fit(
                low,
                high,
                cfg,
                Some(t),
                rng,
                Some(cache),
            )?),
        })
    }

    /// Refresh on the current data with frozen hyperparameters.
    fn fit_frozen(
        low: &FidelityData,
        high: &FidelityData,
        cfg: &MfGpConfig,
        thetas: &Thetas,
        cache: &mut FitCache,
    ) -> Result<Self, GpError> {
        Ok(match thetas {
            Thetas::Sf(t) => {
                Surrogates::Sf(SfSurrogates::fit_frozen(high, &cfg.gp, t, Some(cache))?)
            }
            Thetas::Mf(t) => {
                Surrogates::Mf(MfSurrogates::fit_frozen(low, high, cfg, t, Some(cache))?)
            }
        })
    }

    fn thetas(&self) -> Thetas {
        match self {
            Surrogates::Mf(s) => Thetas::Mf(s.thetas()),
            Surrogates::Sf(s) => Thetas::Sf(s.thetas()),
        }
    }

    /// Eq. (13)'s feasibility drive plus a tiny objective-mean tie-break
    /// that steers the search toward good designs once the drive term
    /// flattens at zero, at each of `points` into `out` — the batched
    /// objective of the drive's Nelder–Mead searches. Posterior means only.
    fn drive(&self, points: &[Vec<f64>], out: &mut [f64]) {
        match self {
            Surrogates::Mf(s) => s.drive(points, out),
            Surrogates::Sf(s) => s.drive(points, out),
        }
    }

    /// Weighted EI of the high-fidelity posteriors against `tau_h`.
    fn wei_high(&self, x: &[f64], tau_h: f64) -> f64 {
        match self {
            Surrogates::Mf(s) => s.wei_high(x, tau_h),
            Surrogates::Sf(s) => s.wei(x, tau_h),
        }
    }
}

impl Thetas {
    /// The `hyperparams` trajectory event, emitted on the main thread in
    /// iteration order (worker-thread `gp_fit` events interleave
    /// nondeterministically; this one is safe to diff run-to-run).
    fn trace(&self, iteration: usize) {
        use crate::surrogate::fmt_thetas;
        match self {
            Thetas::Mf(t) => mfbo_telemetry::debug_event!(
                "hyperparams",
                iteration = iteration,
                objective_low = fmt_thetas(&t.objective.low),
                objective_high = fmt_thetas(&t.objective.high),
                constraints = t
                    .constraints
                    .iter()
                    .map(|c| format!("{}|{}", fmt_thetas(&c.low), fmt_thetas(&c.high)))
                    .collect::<Vec<_>>()
                    .join(";"),
            ),
            Thetas::Sf(t) => mfbo_telemetry::debug_event!(
                "hyperparams",
                iteration = iteration,
                objective = fmt_thetas(&t.objective),
                constraints = t
                    .constraints
                    .iter()
                    .map(|c| fmt_thetas(c))
                    .collect::<Vec<_>>()
                    .join(";"),
            ),
        }
    }
}

/// The ask/tell core of the multi-fidelity optimizer. Its decisions
/// (surrogate fits, acquisition, fidelity choice, RNG draws) are a pure
/// function of the seed, the config and the problem, whatever order or
/// timing `tell` delivers results in.
///
/// Construct with [`AskTellMfbo::new`]; drive with [`AskTellMfbo::ask`] /
/// [`AskTellMfbo::tell`]; close with [`AskTellMfbo::finish`].
pub struct AskTellMfbo<P, R> {
    cfg: MfBoConfig,
    /// Journal/trace tag: `"sfbo"` without a low-fidelity design, else
    /// `"mfbo"`.
    algo: &'static str,
    problem: P,
    rng: R,
    session: EvalSession,
    bounds: Bounds,
    unit: Bounds,
    nc: usize,
    /// Max candidates in flight (`cfg.max_pending`).
    q: usize,
    low: FidelityData,
    high: FidelityData,
    history: Vec<EvaluationRecord>,
    cost: f64,
    telemetry: RunTelemetry,
    run_start: Instant,
    selector: FidelitySelector,
    model_cfg: MfGpConfig,
    low_streak: usize,
    thetas: Option<Thetas>,
    iterations_since_refit: usize,
    /// Persistent pairwise-difference cache for the first-stage training
    /// set (low fidelity, or high without a low-fidelity design): refits
    /// append only the new points' diffs instead of rebuilding the full
    /// O(n²·d) lower triangle (see `mfbo_gp::FitCache`).
    fit_cache: FitCache,
    next_iteration: usize,
    next_id: u64,
    pending: VecDeque<Slot>,
    /// Initial-design points not yet turned into slots:
    /// `(x, fidelity, rng cursor)`.
    init_plan: VecDeque<(Vec<f64>, Fidelity, Option<[u64; 4]>)>,
    /// Initial-design slots generated but not yet committed.
    init_outstanding: usize,
    init_span: Option<Span>,
    in_init: bool,
    done: bool,
    fatal: Option<MfboError>,
}

impl<P, R> AskTellMfbo<P, R>
where
    P: MultiFidelityProblem,
    R: Rng,
{
    /// Opens a run: validates the configuration, initializes the evaluation
    /// session (store/journal/resume), draws the initial Latin-hypercube
    /// designs, and — on resume — fast-forwards through the journal.
    ///
    /// # Errors
    ///
    /// [`MfboError::InvalidConfig`] for inconsistent settings or a warm
    /// start requested without a low-fidelity design, plus every
    /// store/resume error [`crate::MfBayesOpt::run_with`] documents (resume
    /// replay happens here and inside `tell`, not in a separate phase).
    pub fn new(
        cfg: MfBoConfig,
        problem: P,
        mut rng: R,
        opts: &mut RunOptions,
    ) -> Result<Self, MfboError> {
        cfg.validate()?;
        let algo = if cfg.initial_low == 0 {
            if opts.warm_start {
                return Err(MfboError::InvalidConfig {
                    reason: "warm_start seeds the low-fidelity surrogate, and a run without a \
                             low-fidelity design (initial_low = 0) has none"
                        .into(),
                });
            }
            "sfbo"
        } else {
            "mfbo"
        };
        let q = cfg.max_pending;
        let session = EvalSession::new_batched(
            opts,
            algo,
            &problem,
            rng.state_snapshot(),
            (q > 1).then_some(q as u64),
            (!cfg.gp_inference.is_exact()).then(|| cfg.gp_inference.as_str().to_string()),
        )?;
        let bounds = problem.bounds();
        let nc = problem.num_constraints();
        let run_start = Instant::now();
        event!(
            "run_start",
            algo = algo,
            dim = bounds.dim(),
            num_constraints = nc,
            budget = cfg.budget,
            gamma = cfg.gamma,
            initial_low = cfg.initial_low,
            initial_high = cfg.initial_high,
        );

        // Initial design (Algorithm 1, line 1). Both designs are drawn up
        // front; evaluation consumes no randomness, so the per-candidate RNG
        // cursors are the post-draw snapshots — exactly what the sequential
        // loop journals.
        let init_span = span!(
            "initial_design",
            n_low = cfg.initial_low,
            n_high = cfg.initial_high
        );
        let low_lhs = sampling::latin_hypercube(&bounds, cfg.initial_low, &mut rng);
        let snap_low = rng.state_snapshot();
        let high_lhs = sampling::latin_hypercube(&bounds, cfg.initial_high, &mut rng);
        let snap_high = rng.state_snapshot();
        let mut init_plan = VecDeque::with_capacity(low_lhs.len() + high_lhs.len());
        for x in low_lhs {
            init_plan.push_back((x, Fidelity::Low, snap_low));
        }
        for x in high_lhs {
            init_plan.push_back((x, Fidelity::High, snap_high));
        }
        let init_outstanding = init_plan.len();

        let selector = FidelitySelector::new(cfg.gamma);
        // Every run trains its surrogates alike (paper Algorithm 1); only
        // the pool and the inference engine are run settings.
        let model_cfg = MfGpConfig {
            gp: GpConfig {
                parallelism: cfg.parallelism,
                inference: cfg.gp_inference,
                ..GpConfig::fast()
            },
            ..MfGpConfig::fast()
        };
        let unit = Bounds::unit(bounds.dim());
        let mut core = AskTellMfbo {
            low: FidelityData::new(nc),
            high: FidelityData::new(nc),
            history: Vec::new(),
            cost: 0.0,
            telemetry: RunTelemetry::default(),
            run_start,
            selector,
            model_cfg,
            low_streak: 0,
            thetas: None,
            iterations_since_refit: 0,
            fit_cache: FitCache::default(),
            next_iteration: 1,
            next_id: 1,
            pending: VecDeque::new(),
            init_plan,
            init_outstanding,
            init_span: Some(init_span),
            in_init: true,
            done: false,
            fatal: None,
            cfg,
            algo,
            problem,
            rng,
            session,
            bounds,
            unit,
            nc,
            q,
        };
        core.pump()?;
        Ok(core)
    }

    /// Returns up to `k` candidates awaiting evaluation, oldest first.
    ///
    /// Candidates already handed out (and not yet told) are not returned
    /// again. An empty vector means everything in flight is already issued —
    /// or the run is finished (check [`AskTellMfbo::is_finished`]).
    ///
    /// # Errors
    ///
    /// Propagates any deferred fatal error (store failure, resume mismatch,
    /// evaluation-budget exhaustion) surfaced by the internal pump.
    pub fn ask(&mut self, k: usize) -> Result<Vec<Candidate>, MfboError> {
        self.check_fatal()?;
        self.pump()?;
        let mut out = Vec::new();
        for slot in self.pending.iter_mut() {
            if out.len() == k {
                break;
            }
            if !slot.issued && slot.result.is_none() {
                slot.issued = true;
                out.push(Candidate {
                    id: slot.id,
                    iteration: slot.iteration,
                    x: slot.x.clone(),
                    fidelity: slot.fidelity,
                });
            }
        }
        Ok(out)
    }

    /// Folds an evaluation result back into the run. Results may arrive in
    /// any order; the optimizer state advances identically regardless.
    ///
    /// # Errors
    ///
    /// [`MfboError::Protocol`] (state unchanged, the run continues) for an
    /// unknown/duplicate/never-issued id or a malformed result;
    /// [`MfboError::NonFiniteEvaluation`] when a [`Told::Failed`] lands
    /// under [`NonFinitePolicy::Abort`] (fatal); plus any store error from
    /// committing.
    pub fn tell(&mut self, id: u64, told: Told) -> Result<(), MfboError> {
        self.tell_timed(id, told, Duration::ZERO)
    }

    /// [`AskTellMfbo::tell`] with the evaluator-measured simulation time,
    /// recorded into the run's stage telemetry.
    pub fn tell_timed(&mut self, id: u64, told: Told, sim_time: Duration) -> Result<(), MfboError> {
        self.check_fatal()?;
        let protocol = |reason: String| Err(MfboError::Protocol { reason });
        let Some(slot) = self.pending.iter_mut().find(|s| s.id == id) else {
            return protocol(format!(
                "tell for unknown (or already committed) candidate {id}"
            ));
        };
        if slot.result.is_some() {
            return protocol(format!("duplicate tell for candidate {id}"));
        }
        if !slot.issued {
            return protocol(format!("tell for candidate {id} which ask() never issued"));
        }
        match told {
            Told::Evaluated {
                evaluation,
                attempts,
            } => {
                if evaluation.constraints.len() != self.nc {
                    return protocol(format!(
                        "candidate {id}: told {} constraint values, problem has {}",
                        evaluation.constraints.len(),
                        self.nc
                    ));
                }
                if !evaluation.is_finite() {
                    return protocol(format!(
                        "candidate {id}: non-finite values must be told as Told::Failed \
                         so the non-finite policy applies"
                    ));
                }
                slot.result = Some(SlotResult::Fresh {
                    evaluation,
                    attempts,
                    quarantined: false,
                });
                slot.sim_time = sim_time;
            }
            Told::Failed { attempts } => match self.session.policy().non_finite {
                NonFinitePolicy::Abort => {
                    let e = MfboError::NonFiniteEvaluation { x: slot.x.clone() };
                    self.fatal = Some(e.clone());
                    return Err(e);
                }
                NonFinitePolicy::PenalizeAndQuarantine { penalty } => {
                    slot.result = Some(SlotResult::Fresh {
                        evaluation: Evaluation::penalized(penalty, self.nc),
                        attempts,
                        quarantined: true,
                    });
                    slot.sim_time = sim_time;
                }
            },
        }
        self.pump()
    }

    /// `true` once the budget/iteration cap is reached and every candidate
    /// has committed — [`AskTellMfbo::finish`] will succeed.
    pub fn is_finished(&self) -> bool {
        self.fatal.is_none() && self.done && self.pending.is_empty()
    }

    /// Number of candidates currently in flight (issued or not).
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Committed observation counts `(low, high)` — the training-set sizes
    /// behind the current surrogates (pending candidates excluded). The
    /// server's `status`/`list` responses surface these so an operator can
    /// see batch occupancy and model size without reading the journal.
    pub fn observation_counts(&self) -> (usize, usize) {
        (self.low.len(), self.high.len())
    }

    /// Accumulated cost of committed evaluations, in equivalent
    /// high-fidelity simulations.
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// The run's evaluation policy (retries, non-finite handling) — the
    /// contract an external evaluator should honor.
    pub fn policy(&self) -> &EvalPolicy {
        self.session.policy()
    }

    /// The run configuration.
    pub fn config(&self) -> &MfBoConfig {
        &self.cfg
    }

    /// Blocks until every journal entry written so far is durable.
    ///
    /// With a direct (flush-per-append) store this is a no-op — every
    /// append already reached the OS before the core acted on it. Under
    /// group-commit journaling, appends are buffered into a shared linger
    /// window; an external scheduler must place this barrier between
    /// [`AskTellMfbo::ask`] and handing the returned candidates to
    /// evaluators, preserving the write-ahead invariant that a pending
    /// record is durable before its evaluation is dispatched.
    ///
    /// # Errors
    ///
    /// [`MfboError::Store`] when the deferred group write failed; the error
    /// is latched as fatal like any other store failure.
    pub fn sync_journal(&mut self) -> Result<(), MfboError> {
        self.check_fatal()?;
        let r = self.session.sync_journal();
        if let Err(e) = &r {
            self.fatal = Some(e.clone());
        }
        r
    }

    /// Closes the run and returns the [`Outcome`].
    ///
    /// # Errors
    ///
    /// Returns the deferred fatal error if one occurred, or
    /// [`MfboError::Protocol`] if candidates are still pending (the run is
    /// not [`AskTellMfbo::is_finished`]).
    pub fn finish(mut self) -> Result<Outcome, MfboError> {
        if let Some(e) = self.fatal.take() {
            return Err(e);
        }
        if !(self.done && self.pending.is_empty()) {
            return Err(MfboError::Protocol {
                reason: format!(
                    "finish() on an unfinished run: {} candidate(s) pending, budget not \
                     exhausted",
                    self.pending.len()
                ),
            });
        }
        self.telemetry.wall_us = self.run_start.elapsed().as_micros() as u64;
        event!(
            "run_end",
            algo = self.algo,
            iterations = self.history.last().map(|r| r.iteration).unwrap_or(0),
            cost = self.cost,
            high_picks = self.telemetry.high_count(),
            decisions = self.telemetry.decisions.len(),
        );
        let mut outcome = Outcome::from_data(self.high, self.low, self.history);
        outcome.telemetry = self.telemetry;
        outcome.eval_stats = self.session.finish();
        Ok(outcome)
    }

    fn check_fatal(&self) -> Result<(), MfboError> {
        match &self.fatal {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Runs the fixed-priority pump (see the module docs); any error is
    /// latched as fatal so subsequent calls fail fast instead of operating
    /// on a half-advanced state.
    fn pump(&mut self) -> Result<(), MfboError> {
        let r = self.pump_inner();
        if let Err(e) = &r {
            self.fatal = Some(e.clone());
        }
        r
    }

    fn pump_inner(&mut self) -> Result<(), MfboError> {
        loop {
            // 1. Generation has priority: top the in-flight set up to `q`
            //    before committing anything, so the generate/commit
            //    interleaving never depends on tell arrival order.
            if !self.done && self.pending.len() < self.q {
                match self.generate_one()? {
                    Gen::Generated => continue,
                    Gen::Blocked => {}
                    Gen::Exhausted => {
                        self.done = true;
                        continue;
                    }
                }
            }
            // 2. Commit the oldest candidate once its result is in.
            if self.pending.front().is_some_and(|s| s.result.is_some()) {
                self.commit_front()?;
                continue;
            }
            // 3. Resume adoption: the journal's next record is the commit
            //    for the (unresolved) front candidate of an interrupted
            //    batched run — its result was journaled after its pending
            //    record, interleaved with younger issues.
            if self.pending.front().is_some_and(|s| s.result.is_none())
                && self.session.replay_front_flags() == Some((false, false))
            {
                let front = self.pending.front().expect("checked non-empty");
                let cand = (self.q > 1).then_some(front.id);
                let entry = self.session.replay_pop_commit(
                    &front.x,
                    front.fidelity,
                    front.iteration,
                    front.snap,
                    cand,
                )?;
                self.pending.front_mut().expect("checked non-empty").result =
                    Some(SlotResult::Replayed { entry });
                continue;
            }
            return Ok(());
        }
    }

    /// Generates the next candidate (initial design or BO iteration).
    fn generate_one(&mut self) -> Result<Gen, MfboError> {
        if self.in_init {
            let Some((x, fidelity, snap)) = self.init_plan.pop_front() else {
                // Design fully issued; the BO loop starts once every init
                // point has committed (the surrogates need all of them).
                return Ok(Gen::Blocked);
            };
            let id = self.next_id;
            self.next_id += 1;
            let slot = Slot {
                id,
                iteration: 0,
                x,
                x_unit: Vec::new(),
                fidelity,
                snap,
                decision: None,
                lie: Evaluation {
                    objective: 0.0,
                    constraints: vec![0.0; self.nc],
                },
                issued: false,
                result: None,
                sim_time: Duration::ZERO,
            };
            self.resolve_and_push(slot)?;
            return Ok(Gen::Generated);
        }
        self.generate_loop()
    }

    /// One BO iteration's decision pass (Algorithm 1, lines 3–7): surrogate
    /// fit, acquisition optimization, fidelity selection. With candidates in
    /// flight the training data is augmented with their constant-liar
    /// fantasies first.
    fn generate_loop(&mut self) -> Result<Gen, MfboError> {
        // Budget gate — the sequential `cost >= budget` check, made
        // batch-aware by billing in-flight candidates at their fidelity
        // cost, so a batch overshoots the budget no more than the
        // sequential loop's one-evaluation allowance.
        let in_flight_cost: f64 = self
            .pending
            .iter()
            .map(|s| self.problem.cost(s.fidelity))
            .sum();
        if self.cost + in_flight_cost >= self.cfg.budget {
            return Ok(Gen::Exhausted);
        }
        if self.next_iteration > self.cfg.max_iterations {
            return Ok(Gen::Exhausted);
        }
        let iteration = self.next_iteration;
        let fantasy = !self.pending.is_empty();

        // Constant-liar augmentation (batched mode only — with q = 1 the
        // pending set is always empty here and this is the legacy data).
        let fantasy_data = fantasy.then(|| {
            let mut l = self.low.clone();
            let mut h = self.high.clone();
            for s in &self.pending {
                match s.fidelity {
                    Fidelity::Low => l.push(s.x.clone(), &s.lie),
                    Fidelity::High => h.push(s.x.clone(), &s.lie),
                }
            }
            (l, h)
        });
        let (low_data, high_data) = match &fantasy_data {
            Some((l, h)) => (l, h),
            None => (&self.low, &self.high),
        };
        let mut low_u = low_data.to_unit(&self.bounds);
        let mut high_u = high_data.to_unit(&self.bounds);
        if let Some(k) = self.cfg.winsorize_sigma {
            low_u = low_u.winsorized(k);
            high_u = high_u.winsorized(k);
        }

        // Line 3: build the surrogate models. Full hyperparameter
        // optimization every `refit_every` iterations, frozen refresh in
        // between; a frozen-refresh failure falls back to a full refit.
        let fit_span = span!(
            "surrogate_fit",
            iteration = iteration,
            n_low = low_u.len(),
            n_high = high_u.len()
        );
        let surrogates = match &self.thetas {
            Some(t) if self.iterations_since_refit < self.cfg.refit_every => {
                match Surrogates::fit_frozen(
                    &low_u,
                    &high_u,
                    &self.model_cfg,
                    t,
                    &mut self.fit_cache,
                ) {
                    Ok(s) => s,
                    // Frozen-refresh recovery: a full re-optimization from
                    // scratch.
                    Err(_) => Surrogates::fit(
                        &low_u,
                        &high_u,
                        &self.model_cfg,
                        None,
                        &mut self.rng,
                        &mut self.fit_cache,
                    )?,
                }
            }
            warm => {
                let s = Surrogates::fit(
                    &low_u,
                    &high_u,
                    &self.model_cfg,
                    warm.as_ref(),
                    &mut self.rng,
                    &mut self.fit_cache,
                )?;
                if let (Some(_), Surrogates::Mf(mf)) = (warm, &s) {
                    if mf.warm_seed_won() {
                        mfbo_telemetry::counter!("theta_warm_wins", 1);
                    }
                }
                self.iterations_since_refit = 0;
                s
            }
        };
        self.iterations_since_refit += 1;
        let thetas = surrogates.thetas();
        thetas.trace(iteration);
        self.thetas = Some(thetas);
        self.telemetry
            .record_stage("surrogate_fit", fit_span.elapsed());
        drop(fit_span);

        // Incumbents (values and locations) at each fidelity, fantasies
        // included — the liar keeps speculative candidates from looking
        // better than anything actually observed.
        let best_low = low_data.best_feasible().or_else(|| low_data.best_any());
        let best_high = high_data.best_feasible().or_else(|| high_data.best_any());
        let has_feasible_high = high_data.best_feasible().is_some();

        let local = NelderMead::new().with_max_iters(90);
        let tau_l_val = best_low.map(|(_, v)| v);
        let tau_h_val = best_high.map(|(_, v)| v);
        // In-flight exclusion zone for the batched acquisition search.
        let taboo: Vec<Vec<f64>> = if fantasy {
            self.pending.iter().map(|s| s.x_unit.clone()).collect()
        } else {
            Vec::new()
        };
        let acq_span = span!("acq_opt", iteration = iteration);
        let drove_feasibility = self.nc > 0 && !has_feasible_high;
        let (xt_unit, acq_value, landscape) = if drove_feasibility {
            // §4.2: no feasible point known — minimize Σ max(0, μ_h,i).
            let drive = |xs: &[Vec<f64>], out: &mut [f64]| surrogates.drive(xs, out);
            let mut ms = MultiStart::new(self.cfg.msp_starts)
                .with_local_search(local.clone())
                .with_parallelism(self.cfg.parallelism);
            if !taboo.is_empty() {
                ms = ms.with_taboo(taboo.clone(), TABOO_RADIUS);
            }
            let (r, stats) = ms.minimize_batched_with_stats(&drive, &self.unit, &mut self.rng);
            (r.x, r.value, stats)
        } else {
            let tau_h = tau_h_val.unwrap_or(0.0);
            let mut ms_high = MultiStart::new(self.cfg.msp_starts)
                .with_local_search(local.clone())
                .with_parallelism(self.cfg.parallelism);
            if let Surrogates::Mf(mf) = &surrogates {
                // Line 5: optimize the low-fidelity wEI → x*_l.
                let tau_l = tau_l_val.unwrap_or(0.0);
                let mut ms_low = MultiStart::new(self.cfg.msp_starts)
                    .with_local_search(local)
                    .with_parallelism(self.cfg.parallelism);
                if let Some((k, _)) = best_low {
                    ms_low = ms_low.with_anchor(
                        low_u.xs[k].clone(),
                        self.cfg.frac_around_tau_l + self.cfg.frac_around_tau_h,
                        ANCHOR_SPREAD,
                    );
                }
                let wei_l = |x: &[f64]| mf.wei_low(x, tau_l);
                let xl_star = ms_low.maximize(&wei_l, &self.unit, &mut self.rng).x;
                // Line 6 starts from x*_l.
                ms_high = ms_high.with_anchor(xl_star, 0.15, ANCHOR_SPREAD);
            }
            // Line 6: optimize the high-fidelity wEI with the biased
            // anchors of §4.1.
            if let Some((k, _)) = best_high {
                ms_high = ms_high.with_anchor(
                    high_u.xs[k].clone(),
                    self.cfg.frac_around_tau_h,
                    ANCHOR_SPREAD,
                );
            }
            if let Some((k, _)) = best_low {
                ms_high = ms_high.with_anchor(
                    low_u.xs[k].clone(),
                    self.cfg.frac_around_tau_l,
                    ANCHOR_SPREAD,
                );
            }
            if !taboo.is_empty() {
                ms_high = ms_high.with_taboo(taboo.clone(), TABOO_RADIUS);
            }
            let wei_h = |x: &[f64]| surrogates.wei_high(x, tau_h);
            let (r, stats) = ms_high.maximize_with_stats(&wei_h, &self.unit, &mut self.rng);
            (r.x, r.value, stats)
        };
        self.telemetry.record_stage("acq_opt", acq_span.elapsed());
        drop(acq_span);
        // Acquisition-landscape health: in wEI mode a large frac_zero
        // means most restarts sat where the model offers no expected
        // improvement; a near-zero spread means the landscape has
        // collapsed to a single basin.
        mfbo_telemetry::debug_event!(
            "acq_landscape",
            iteration = iteration,
            feasibility_drive = drove_feasibility,
            best_value = landscape.best_value,
            worst_value = landscape.worst_value,
            spread = landscape.spread,
            frac_zero = landscape.frac_zero,
            starts = landscape.starts,
            best_start = landscape.best_start,
        );

        let (fidelity, decision) = match &surrogates {
            Surrogates::Sf(_) => {
                event!(
                    "sfbo_iteration",
                    iteration = iteration,
                    feasibility_drive = drove_feasibility,
                    acq_value = acq_value,
                    tau = tau_h_val.unwrap_or(f64::NAN),
                    cost = self.cost,
                );
                (Fidelity::High, None)
            }
            Surrogates::Mf(mf) => {
                // Line 7: fidelity selection (§3.4), with the verification
                // safeguard (see MfBoConfig::max_low_streak).
                let max_low_var = mf.max_low_variance(&xt_unit);
                let threshold = self.selector.threshold(self.nc);
                let mut fidelity = self.selector.select(max_low_var, self.nc);
                let mut forced = false;
                if fidelity == Fidelity::Low && self.low_streak >= self.cfg.max_low_streak {
                    fidelity = Fidelity::High;
                    forced = true;
                }
                match fidelity {
                    Fidelity::Low => self.low_streak += 1,
                    Fidelity::High => self.low_streak = 0,
                }
                event!(
                    "fidelity_decision",
                    iteration = iteration,
                    max_low_variance = max_low_var,
                    threshold = threshold,
                    chose_high = fidelity == Fidelity::High,
                    forced = forced,
                    feasibility_drive = drove_feasibility,
                    acq_value = acq_value,
                    tau_l = tau_l_val.unwrap_or(f64::NAN),
                    tau_h = tau_h_val.unwrap_or(f64::NAN),
                    cost = self.cost,
                );
                let decision = PendingDecision {
                    max_low_variance: max_low_var,
                    threshold,
                    forced,
                };
                (fidelity, Some(decision))
            }
        };

        // Line 8 is now split: the simulation happens outside, between
        // ask() and tell(); here the candidate enters the in-flight set.
        let xt = self.bounds.from_unit(&xt_unit);
        let snap = self.rng.state_snapshot();
        let lie = self.lie_for(fidelity);
        let id = self.next_id;
        self.next_id += 1;
        self.next_iteration += 1;
        let slot = Slot {
            id,
            iteration,
            x: xt,
            x_unit: xt_unit,
            fidelity,
            snap,
            decision,
            lie,
            issued: false,
            result: None,
            sim_time: Duration::ZERO,
        };
        self.resolve_and_push(slot)?;
        Ok(Gen::Generated)
    }

    /// The deterministic constant-liar value for a candidate at `fidelity`:
    /// incumbent objective (best feasible, else best overall) and the
    /// per-constraint mean of the *committed* observations at that fidelity.
    /// A fixed value — never an RNG posterior draw — so batched runs stay
    /// reproducible and resumable.
    fn lie_for(&self, fidelity: Fidelity) -> Evaluation {
        let data = match fidelity {
            Fidelity::Low => &self.low,
            Fidelity::High => &self.high,
        };
        let objective = data
            .best_feasible()
            .or_else(|| data.best_any())
            .map(|(_, v)| v)
            .unwrap_or(0.0);
        let constraints = data
            .constraints
            .iter()
            .map(|series| {
                if series.is_empty() {
                    0.0
                } else {
                    series.iter().sum::<f64>() / series.len() as f64
                }
            })
            .collect();
        Evaluation {
            objective,
            constraints,
        }
    }

    /// Resolves a freshly generated candidate against the journal and the
    /// cross-run cache, enforces the fresh-evaluation budget, journals the
    /// pending record (batched mode), and queues the slot.
    fn resolve_and_push(&mut self, mut slot: Slot) -> Result<(), MfboError> {
        match self.session.replay_front_flags() {
            Some((true, _)) => {
                return Err(MfboError::ResumeMismatch {
                    reason: format!(
                        "iteration {}: journal holds a warm-start entry where a regular \
                         evaluation was expected",
                        slot.iteration
                    ),
                });
            }
            Some((false, true)) => {
                // Pending record: this candidate was issued by the
                // interrupted run but its result never landed. Verify
                // identity and re-issue; the record is not re-journaled.
                self.session.replay_pop_pending(
                    &slot.x,
                    slot.fidelity,
                    slot.iteration,
                    slot.snap,
                    self.cost,
                    slot.id,
                )?;
                self.pending.push_back(slot);
                return Ok(());
            }
            Some((false, false)) => {
                let cand = (self.q > 1).then_some(slot.id);
                let entry = self.session.replay_pop_commit(
                    &slot.x,
                    slot.fidelity,
                    slot.iteration,
                    slot.snap,
                    cand,
                )?;
                slot.result = Some(SlotResult::Replayed { entry });
                self.pending.push_back(slot);
                return Ok(());
            }
            None => {}
        }
        if let Some(evaluation) = self.session.cache_lookup(&slot.x, slot.fidelity) {
            slot.result = Some(SlotResult::Cached { evaluation });
            self.pending.push_back(slot);
            return Ok(());
        }
        let outstanding = self
            .pending
            .iter()
            .filter(|s| {
                !matches!(
                    s.result,
                    Some(SlotResult::Cached { .. } | SlotResult::Replayed { .. })
                )
            })
            .count() as u64;
        self.session.fresh_allowed(outstanding)?;
        if self.q > 1 {
            self.session.journal_pending(
                &slot.x,
                slot.fidelity,
                slot.iteration,
                slot.snap,
                self.cost,
                slot.id,
            )?;
        }
        self.pending.push_back(slot);
        Ok(())
    }

    /// Commits the oldest candidate: bills cost, journals, records
    /// telemetry, extends the training data, and — when the initial design
    /// completes — pulls in cross-run warm-start points and enters the BO
    /// loop.
    fn commit_front(&mut self) -> Result<(), MfboError> {
        let slot = self.pending.pop_front().expect("caller checked non-empty");
        let result = slot.result.expect("caller checked resolved");
        let cand = (self.q > 1).then_some(slot.id);
        let eval = match result {
            SlotResult::Replayed { entry } => self.session.commit_replayed(
                &self.problem,
                &entry,
                slot.fidelity,
                slot.iteration,
                &mut self.cost,
            )?,
            SlotResult::Cached { evaluation } => {
                self.session.commit_cached(
                    &self.problem,
                    &slot.x,
                    slot.fidelity,
                    slot.iteration,
                    &mut self.cost,
                    slot.snap,
                    cand,
                    &evaluation,
                )?;
                evaluation
            }
            SlotResult::Fresh {
                evaluation,
                attempts,
                quarantined,
            } => {
                self.session.commit_fresh(
                    &self.problem,
                    &slot.x,
                    slot.fidelity,
                    slot.iteration,
                    &mut self.cost,
                    slot.snap,
                    cand,
                    &evaluation,
                    attempts,
                    quarantined,
                )?;
                evaluation
            }
        };
        let stage = match slot.fidelity {
            Fidelity::Low => "simulate_low",
            Fidelity::High => "simulate_high",
        };
        self.telemetry.record_stage(stage, slot.sim_time);
        if let Some(d) = slot.decision {
            self.telemetry.record_decision(FidelityDecision {
                iteration: slot.iteration,
                max_low_variance: d.max_low_variance,
                threshold: d.threshold,
                chose_high: slot.fidelity == Fidelity::High,
                forced: d.forced,
                cost_after: self.cost,
            });
        }
        match slot.fidelity {
            Fidelity::Low => self.low.push(slot.x.clone(), &eval),
            Fidelity::High => self.high.push(slot.x.clone(), &eval),
        }
        self.history.push(EvaluationRecord {
            iteration: slot.iteration,
            x: slot.x,
            fidelity: slot.fidelity,
            evaluation: eval,
            cost_so_far: self.cost,
        });
        if self.in_init {
            self.init_outstanding -= 1;
            if self.init_outstanding == 0 && self.init_plan.is_empty() {
                // Cross-run warm start: seed the low-fidelity surrogate with
                // cached observations from earlier runs (free — they were
                // already paid for). They enter the training data but not
                // this run's history.
                let warm = self.session.warm_start_points(&self.low.xs, self.cost)?;
                for (x, e) in warm {
                    self.low.push(x, &e);
                }
                self.init_span = None;
                self.in_init = false;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acquisition::feasibility_drive;
    use crate::nargp::MfGpThetas;
    use mfbo_gp::kernel::{Kernel, NargpKernel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const D: usize = 36;
    const CONSTRAINTS: usize = 5;

    /// `n` random designs in the `d`-dim unit cube with an objective and
    /// five constraints; `bias` shifts every output (the low fidelity).
    fn data_in(d: usize, n: usize, bias: f64, rng: &mut StdRng) -> FidelityData {
        let mut data = FidelityData::new(CONSTRAINTS);
        for _ in 0..n {
            let x: Vec<f64> = (0..d).map(|_| rng.gen::<f64>()).collect();
            let s: f64 = x.iter().map(|v| (3.0 * v).sin()).sum();
            let eval = Evaluation {
                objective: s + bias,
                constraints: (0..CONSTRAINTS)
                    .map(|k| x[k % d] - 0.5 + 0.1 * (s * (k + 1) as f64).sin() + bias)
                    .collect(),
            };
            data.push(x, &eval);
        }
        data
    }

    /// [`data_in`] at the charge pump's 36 dimensions.
    fn data(n: usize, bias: f64, rng: &mut StdRng) -> FidelityData {
        data_in(D, n, bias, rng)
    }

    /// SE-ARD θ over `d` dimensions with every lengthscale `e^log_l`, unit
    /// σ_f and noise `e^log_noise`.
    fn se_theta_in(d: usize, log_l: f64, log_noise: f64) -> Vec<f64> {
        let mut t = vec![log_l; d + 2];
        t[0] = 0.0;
        t[d + 1] = log_noise;
        t
    }

    /// [`se_theta_in`] at 36 dimensions.
    fn se_theta(log_l: f64, log_noise: f64) -> Vec<f64> {
        se_theta_in(D, log_l, log_noise)
    }

    /// NARGP θ over `d` design dimensions: default, with every design
    /// lengthscale `e^log_l`.
    fn nargp_theta_in(d: usize, log_l: f64) -> Vec<f64> {
        let mut t = NargpKernel::new(d).default_params();
        for (j, p) in t.iter_mut().enumerate().skip(3) {
            if j != 2 + d + 1 {
                *p = log_l;
            }
        }
        t.push(-3.0);
        t
    }

    /// [`nargp_theta_in`] at 36 dimensions with lengthscales of 1.8
    /// (0.3·√36, so the design factors do not underflow).
    fn nargp_theta() -> Vec<f64> {
        nargp_theta_in(D, 1.8f64.ln())
    }

    /// The pointwise drive the batched one replaces: full posteriors,
    /// reading only their means.
    fn pointwise_drive(s: &Surrogates, x: &[f64]) -> f64 {
        let (cons, obj): (Vec<f64>, f64) = match s {
            Surrogates::Mf(s) => (
                s.constraints().iter().map(|c| c.predict(x).mean).collect(),
                s.objective().predict(x).mean,
            ),
            Surrogates::Sf(s) => (
                s.constraints().iter().map(|c| c.predict(x).mean).collect(),
                s.objective().predict(x).mean,
            ),
        };
        feasibility_drive(&cons) + 1e-4 * obj
    }

    /// The `predict_batch_points` count of `f`.
    fn points_counted(f: impl FnOnce()) -> u64 {
        let reg = std::sync::Arc::new(mfbo_telemetry::metrics::MetricsRegistry::new());
        {
            let _g = mfbo_telemetry::scoped_sink(reg.clone());
            f();
        }
        let snap = reg.snapshot();
        snap.counters
            .get("predict_batch_points")
            .copied()
            .unwrap_or(0)
    }

    /// The batched drive at `points` equals the pointwise drive bit for
    /// bit and counts the same `predict_batch_points`; then a short
    /// Nelder–Mead search whose every batch (the whole 37-point initial
    /// simplex, each shrink) is checked the same way.
    fn check_drive(s: &Surrogates, points: &[Vec<f64>]) {
        let mut batched = vec![0.0; points.len()];
        let batched_count = points_counted(|| s.drive(points, &mut batched));
        let mut pointwise = Vec::new();
        let pointwise_count =
            points_counted(|| pointwise.extend(points.iter().map(|x| pointwise_drive(s, x))));
        for (b, p) in batched.iter().zip(&pointwise) {
            assert_eq!(b.to_bits(), p.to_bits(), "batched {b}, pointwise {p}");
        }
        assert_eq!(batched_count, pointwise_count);

        let sizes = std::cell::RefCell::new(Vec::new());
        let checked = |xs: &[Vec<f64>], out: &mut [f64]| {
            sizes.borrow_mut().push(xs.len());
            s.drive(xs, out);
            for (x, o) in xs.iter().zip(out.iter()) {
                assert_eq!(o.to_bits(), pointwise_drive(s, x).to_bits());
            }
        };
        let d = points[0].len();
        NelderMead::new().with_max_iters(6).minimize_batched(
            &checked,
            &points[0],
            &Bounds::unit(d),
        );
        assert_eq!(sizes.borrow()[0], d + 1);
    }

    fn mf_surrogates(
        low: &FidelityData,
        high: &FidelityData,
        mc_samples: usize,
        low_theta: Vec<f64>,
        high_theta: Vec<f64>,
    ) -> Surrogates {
        let models = MfGpThetas {
            low: low_theta,
            high: high_theta,
        };
        let thetas = MfBundleThetas {
            objective: models.clone(),
            constraints: vec![models; CONSTRAINTS],
        };
        let cfg = MfGpConfig {
            mc_samples,
            ..MfGpConfig::fast()
        };
        Surrogates::Mf(MfSurrogates::fit_frozen(low, high, &cfg, &thetas, None).unwrap())
    }

    #[test]
    fn bit_identity_batched_drive_mf() {
        let mut rng = StdRng::seed_from_u64(3);
        let low = data(30, 0.2, &mut rng);
        let high = data(10, 0.0, &mut rng);
        let points = data(13, 0.0, &mut rng).xs;
        let theta = se_theta(1.8f64.ln(), -3.0);
        for mc_samples in [12, 1] {
            check_drive(
                &mf_surrogates(&low, &high, mc_samples, theta.clone(), nargp_theta()),
                &points,
            );
        }
    }

    /// Short low-fidelity lengthscales make distinct designs uncorrelated,
    /// so the low posterior variance is exactly 0 at its training points
    /// (the σ_l < 1e-12 plug-in branch) and the prior's elsewhere.
    #[test]
    fn bit_identity_batched_drive_mf_plug_in_branch() {
        let mut rng = StdRng::seed_from_u64(4);
        let low = data(20, 0.2, &mut rng);
        let high = data(8, 0.0, &mut rng);
        let s = mf_surrogates(&low, &high, 12, se_theta(-3.0, -30.0), nargp_theta());
        let mut points = data(6, 0.0, &mut rng).xs;
        points.splice(1..1, low.xs[..9].iter().cloned());
        let Surrogates::Mf(mf) = &s else {
            unreachable!()
        };
        for x in &low.xs[..9] {
            assert!(
                mf.objective()
                    .low()
                    .predict_standardized(x)
                    .1
                    .max(0.0)
                    .sqrt()
                    < 1e-12
            );
        }
        assert!(mf.objective().low().predict_standardized(&points[0]).1 > 0.5);
        check_drive(&s, &points);
    }

    fn sf_surrogates(high: &FidelityData, theta: Vec<f64>) -> Surrogates {
        let thetas = SfBundleThetas {
            objective: theta.clone(),
            constraints: vec![theta; CONSTRAINTS],
        };
        Surrogates::Sf(SfSurrogates::fit_frozen(high, &GpConfig::fast(), &thetas, None).unwrap())
    }

    #[test]
    fn bit_identity_batched_drive_sf() {
        let mut rng = StdRng::seed_from_u64(5);
        let high = data(25, 0.0, &mut rng);
        let points = data(13, 0.0, &mut rng).xs;
        let s = sf_surrogates(&high, se_theta(1.8f64.ln(), -3.0));
        check_drive(&s, &points);
    }

    /// The shared-row drive at 1, 5 and 36 dimensions, down to a single
    /// high-fidelity point and a single Monte-Carlo sample.
    #[test]
    fn bit_identity_batched_drive_across_dims() {
        for d in [1usize, 5, 36] {
            let mut rng = StdRng::seed_from_u64(6 + d as u64);
            let log_l = (0.3 * (d as f64).sqrt()).ln();
            let low = data_in(d, 30, 0.2, &mut rng);
            let points = data_in(d, 11, 0.0, &mut rng).xs;
            for (n_high, mc_samples) in [(10, 12), (1, 12), (10, 1), (1, 1)] {
                let high = data_in(d, n_high, 0.0, &mut rng);
                let (low_theta, high_theta) =
                    (se_theta_in(d, log_l, -3.0), nargp_theta_in(d, log_l));
                let s = mf_surrogates(&low, &high, mc_samples, low_theta, high_theta);
                check_drive(&s, &points);
            }
            check_drive(&sf_surrogates(&low, se_theta_in(d, log_l, -3.0)), &points);
            let one = data_in(d, 1, 0.0, &mut rng);
            check_drive(&sf_surrogates(&one, se_theta_in(d, log_l, -3.0)), &points);
        }
    }
}
