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
use crate::surrogate::{RunSchedule, RunSurrogates};
use crate::MfboError;
use mfbo_gp::GpConfig;
use mfbo_opt::msp::{LandscapeStats, MultiStart};
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

/// One BO iteration's decision (Algorithm 1, lines 5–7).
/// [`AskTellMfbo::acquire`] fills in the point and its search record as a
/// single-fidelity decision; [`AskTellMfbo::decide`] then settles the
/// fidelity. The candidate's slot carries it until it commits, where a
/// multi-fidelity decision becomes the telemetry [`FidelityDecision`].
#[derive(Debug)]
struct Decision {
    /// The chosen point x*, in unit-cube coordinates.
    x_unit: Vec<f64>,
    /// The acquisition value at x*: wEI, or the feasibility drive.
    acq_value: f64,
    /// The multi-start search's spread of local optima.
    landscape: LandscapeStats,
    /// Whether eq. (13)'s feasibility drive replaced wEI: a constrained run
    /// with no feasible high-fidelity point yet (§4.2).
    feasibility_drive: bool,
    /// Incumbent objectives τ_l and τ_h, fantasies included (`None` at a
    /// fidelity without data).
    tau_l: Option<f64>,
    tau_h: Option<f64>,
    /// The fidelity to evaluate x* at.
    fidelity: Fidelity,
    /// The eq. (11)/(12) choice; `None` on single-fidelity runs.
    fusion: Option<FusionChoice>,
}

/// The inputs and outcome of eq. (11)/(12) on a multi-fidelity iteration.
#[derive(Debug, Clone, Copy)]
struct FusionChoice {
    /// `max σ²_l` over the objective and constraints at x*.
    max_low_variance: f64,
    /// The switching threshold `(1 + Nc)·γ`.
    threshold: f64,
    /// The `max_low_streak` cap overrode a low-fidelity pick.
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
    fidelity: Fidelity,
    /// RNG cursor at generation — journaled and verified on resume.
    snap: Option<[u64; 4]>,
    /// The BO decision behind the candidate (`None` for the initial design).
    decision: Option<Decision>,
    /// Constant-liar stand-in used while the candidate is in flight.
    lie: Evaluation,
    issued: bool,
    result: Option<SlotResult>,
    /// Evaluator-reported duration, recorded as the simulate stage time.
    sim_time: Duration,
}

impl Slot {
    /// Adopts the journal's next commit record as this candidate's result
    /// (resume); a batched run's records carry the candidate id.
    fn adopt_commit(&mut self, session: &mut EvalSession, batched: bool) -> Result<(), MfboError> {
        let cand = batched.then_some(self.id);
        let entry =
            session.replay_pop_commit(&self.x, self.fidelity, self.iteration, self.snap, cand)?;
        self.result = Some(SlotResult::Replayed { entry });
        Ok(())
    }
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
    /// Full refits, frozen refreshes and their fallback (line 3).
    schedule: RunSchedule,
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
            schedule: RunSchedule::new(cfg.initial_low > 0, cfg.refit_every),
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
                let front = self.pending.front_mut().expect("checked non-empty");
                front.adopt_commit(&mut self.session, self.q > 1)?;
                continue;
            }
            return Ok(());
        }
    }

    /// Generates the next candidate: an initial-design point, or one BO
    /// iteration's decision pass (Algorithm 1, lines 3–7) — [`Self::fit`],
    /// [`Self::acquire`], [`Self::decide`] — behind the budget gate.
    fn generate_one(&mut self) -> Result<Gen, MfboError> {
        if self.in_init {
            let Some((x, fidelity, snap)) = self.init_plan.pop_front() else {
                // Design fully issued; the BO loop starts once every init
                // point has committed (the surrogates need all of them).
                return Ok(Gen::Blocked);
            };
            self.enqueue(0, x, fidelity, snap, None)?;
            return Ok(Gen::Generated);
        }
        // Budget gate — the sequential `cost >= budget` check, made
        // batch-aware by billing in-flight candidates at their fidelity
        // cost, so a batch overshoots the budget no more than the
        // sequential loop's one-evaluation allowance.
        let in_flight_cost: f64 = self
            .pending
            .iter()
            .map(|s| self.problem.cost(s.fidelity))
            .sum();
        if self.cost + in_flight_cost >= self.cfg.budget
            || self.next_iteration > self.cfg.max_iterations
        {
            return Ok(Gen::Exhausted);
        }
        let iteration = self.next_iteration;
        let (surrogates, low, high) = self.fit(iteration)?;
        let mut decision = self.acquire(iteration, &surrogates, &low, &high);
        self.decide(iteration, &surrogates, &mut decision);

        // Line 8 is split: the simulation happens outside, between ask()
        // and tell(); here the candidate enters the in-flight set.
        let x = self.bounds.from_unit(&decision.x_unit);
        let snap = self.rng.state_snapshot();
        self.next_iteration += 1;
        self.enqueue(iteration, x, decision.fidelity, snap, Some(decision))?;
        Ok(Gen::Generated)
    }

    /// Line 3: fits the surrogates on the committed data plus, in batched
    /// mode, the in-flight candidates' constant-liar fantasies, by the
    /// run's [`RefitSchedule`](crate::RefitSchedule). Returns the surrogates and the `(low, high)` data they were
    /// fit on, in unit-cube coordinates and before winsorizing (incumbents
    /// are read from the raw values).
    fn fit(
        &mut self,
        iteration: usize,
    ) -> Result<(RunSurrogates, FidelityData, FidelityData), MfboError> {
        // Constant-liar augmentation (with q = 1 the pending set is always
        // empty here and this is the committed data).
        let with_fantasies = |data: &FidelityData, fidelity| {
            let mut unit = data.to_unit(&self.bounds);
            for s in self.pending.iter().filter(|s| s.fidelity == fidelity) {
                unit.push(self.bounds.to_unit(&s.x), &s.lie);
            }
            unit
        };
        let low = with_fantasies(&self.low, Fidelity::Low);
        let high = with_fantasies(&self.high, Fidelity::High);
        let winsorized = self
            .cfg
            .winsorize_sigma
            .map(|k| (low.winsorized(k), high.winsorized(k)));
        let (low_u, high_u) = winsorized.as_ref().map_or((&low, &high), |(l, h)| (l, h));

        let fit_span = span!(
            "surrogate_fit",
            iteration = iteration,
            n_low = low_u.len(),
            n_high = high_u.len()
        );
        let surrogates =
            self.schedule
                .fit(low_u, high_u, &self.model_cfg, iteration, &mut self.rng)?;
        self.telemetry
            .record_stage("surrogate_fit", fit_span.elapsed());
        drop(fit_span);
        Ok((surrogates, low, high))
    }

    /// Lines 5–6: searches the low-fidelity wEI for x*_l, then the
    /// high-fidelity wEI from the §4.1 anchors; with no feasible
    /// high-fidelity point known it minimizes the feasibility drive instead
    /// (§4.2). Every in-flight candidate is taboo. Returns a
    /// single-fidelity decision for [`Self::decide`] to settle.
    fn acquire(
        &mut self,
        iteration: usize,
        surrogates: &RunSurrogates,
        low: &FidelityData,
        high: &FidelityData,
    ) -> Decision {
        // Incumbents (values and locations) at each fidelity, fantasies
        // included — the liar keeps speculative candidates from looking
        // better than anything actually observed.
        let (best_low, best_high) = (low.best_any(), high.best_any());
        let (tau_l, tau_h) = (best_low.map(|(_, v)| v), best_high.map(|(_, v)| v));
        // In-flight exclusion zone for the batched acquisition search.
        let taboo: Vec<Vec<f64>> = self
            .pending
            .iter()
            .filter_map(|s| Some(s.decision.as_ref()?.x_unit.clone()))
            .collect();
        let acq_span = span!("acq_opt", iteration = iteration);
        let feasibility_drive = self.nc > 0 && high.best_feasible().is_none();
        let (r, landscape) = if feasibility_drive {
            // §4.2: no feasible point known — minimize Σ max(0, μ_h,i).
            let drive = |xs: &[Vec<f64>], out: &mut [f64]| surrogates.drive(xs, out);
            self.multi_start(taboo)
                .minimize_batched_with_stats(&drive, &self.unit, &mut self.rng)
        } else {
            // §4.1's biased starts: a cloud of `fraction` of them around an
            // incumbent's location.
            let around =
                |ms: MultiStart, best: Option<(usize, f64)>, data: &FidelityData, fraction| {
                    match best {
                        Some((k, _)) => ms.with_anchor(data.xs[k].clone(), fraction, ANCHOR_SPREAD),
                        None => ms,
                    }
                };
            let (frac_l, frac_h) = (self.cfg.frac_around_tau_l, self.cfg.frac_around_tau_h);
            let mut ms_high = self.multi_start(taboo);
            if let RunSurrogates::Fusion(mf) = surrogates {
                // Line 5: optimize the low-fidelity wEI → x*_l.
                let ms_low = around(self.multi_start(Vec::new()), best_low, low, frac_l + frac_h);
                let tau_l = tau_l.unwrap_or(0.0);
                let wei_l = |x: &[f64]| mf.wei_low(x, tau_l);
                let xl_star = ms_low.maximize(&wei_l, &self.unit, &mut self.rng).x;
                // Line 6 starts from x*_l.
                ms_high = ms_high.with_anchor(xl_star, 0.15, ANCHOR_SPREAD);
            }
            // Line 6: optimize the high-fidelity wEI with the biased
            // anchors of §4.1.
            ms_high = around(
                around(ms_high, best_high, high, frac_h),
                best_low,
                low,
                frac_l,
            );
            let tau_h = tau_h.unwrap_or(0.0);
            let wei_h = |x: &[f64]| surrogates.wei(x, tau_h);
            ms_high.maximize_with_stats(&wei_h, &self.unit, &mut self.rng)
        };
        self.telemetry.record_stage("acq_opt", acq_span.elapsed());
        drop(acq_span);
        let d = Decision {
            x_unit: r.x,
            acq_value: r.value,
            landscape,
            feasibility_drive,
            tau_l,
            tau_h,
            fidelity: Fidelity::High,
            fusion: None,
        };
        // Acquisition-landscape health: in wEI mode a large frac_zero
        // means most restarts sat where the model offers no expected
        // improvement; a near-zero spread means the landscape has
        // collapsed to a single basin.
        mfbo_telemetry::debug_event!(
            "acq_landscape",
            iteration = iteration,
            feasibility_drive = d.feasibility_drive,
            best_value = d.landscape.best_value,
            worst_value = d.landscape.worst_value,
            spread = d.landscape.spread,
            frac_zero = d.landscape.frac_zero,
            starts = d.landscape.starts,
            best_start = d.landscape.best_start,
        );
        d
    }

    /// The acquisition's multi-start search: `msp_starts` starts on the
    /// run's pool, a Nelder–Mead local search from each, and local optima
    /// within [`TABOO_RADIUS`] of a `taboo` point skipped. The one place
    /// the acquisition's local search is chosen.
    fn multi_start(&self, taboo: Vec<Vec<f64>>) -> MultiStart {
        MultiStart::new(self.cfg.msp_starts)
            .with_local_search(NelderMead::new().with_max_iters(90))
            .with_parallelism(self.cfg.parallelism)
            .with_taboo(taboo, TABOO_RADIUS)
    }

    /// Line 7: on a multi-fidelity run, the fidelity of x* by eq. (11)/(12)
    /// (§3.4) with the `max_low_streak` verification safeguard; then the
    /// iteration's decision event.
    fn decide(&mut self, iteration: usize, surrogates: &RunSurrogates, d: &mut Decision) {
        let RunSurrogates::Fusion(mf) = surrogates else {
            event!(
                "sfbo_iteration",
                iteration = iteration,
                feasibility_drive = d.feasibility_drive,
                acq_value = d.acq_value,
                tau = d.tau_h.unwrap_or(f64::NAN),
                cost = self.cost,
            );
            return;
        };
        let max_low_variance = mf.max_low_variance(&d.x_unit);
        let threshold = self.selector.threshold(self.nc);
        let picked = self.selector.select(max_low_variance, self.nc);
        let forced = picked == Fidelity::Low && self.low_streak >= self.cfg.max_low_streak;
        d.fidelity = if forced { Fidelity::High } else { picked };
        match d.fidelity {
            Fidelity::Low => self.low_streak += 1,
            Fidelity::High => self.low_streak = 0,
        }
        d.fusion = Some(FusionChoice {
            max_low_variance,
            threshold,
            forced,
        });
        event!(
            "fidelity_decision",
            iteration = iteration,
            max_low_variance = max_low_variance,
            threshold = threshold,
            chose_high = d.fidelity == Fidelity::High,
            forced = forced,
            feasibility_drive = d.feasibility_drive,
            acq_value = d.acq_value,
            tau_l = d.tau_l.unwrap_or(f64::NAN),
            tau_h = d.tau_h.unwrap_or(f64::NAN),
            cost = self.cost,
        );
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
        let mean = |c: &Vec<f64>| {
            if c.is_empty() {
                0.0
            } else {
                mfbo_linalg::mean(c)
            }
        };
        Evaluation {
            objective: data.best_any().map_or(0.0, |(_, v)| v),
            constraints: data.constraints.iter().map(mean).collect(),
        }
    }

    /// Queues a freshly generated candidate under the next id with its
    /// constant lie: resolves it against the journal and the cross-run
    /// cache, enforces the fresh-evaluation budget, and journals the
    /// pending record (batched mode).
    fn enqueue(
        &mut self,
        iteration: usize,
        x: Vec<f64>,
        fidelity: Fidelity,
        snap: Option<[u64; 4]>,
        decision: Option<Decision>,
    ) -> Result<(), MfboError> {
        let lie = self.lie_for(fidelity);
        let mut slot = Slot {
            id: self.next_id,
            iteration,
            x,
            fidelity,
            snap,
            decision,
            lie,
            issued: false,
            result: None,
            sim_time: Duration::ZERO,
        };
        self.next_id += 1;
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
            // Pending record: this candidate was issued by the interrupted
            // run but its result never landed. Verify identity and re-issue;
            // the record is not re-journaled.
            Some((false, true)) => self.session.replay_pop_pending(
                &slot.x,
                slot.fidelity,
                slot.iteration,
                slot.snap,
                self.cost,
                slot.id,
            )?,
            Some((false, false)) => slot.adopt_commit(&mut self.session, self.q > 1)?,
            None => self.resolve_fresh(&mut slot)?,
        }
        self.pending.push_back(slot);
        Ok(())
    }

    /// Serves a candidate the journal does not hold from the cross-run
    /// cache, or else checks the fresh-evaluation budget and journals its
    /// pending record (batched mode).
    fn resolve_fresh(&mut self, slot: &mut Slot) -> Result<(), MfboError> {
        if let Some(evaluation) = self.session.cache_lookup(&slot.x, slot.fidelity) {
            slot.result = Some(SlotResult::Cached { evaluation });
            return Ok(());
        }
        let outstanding = self
            .pending
            .iter()
            .filter(|s| matches!(s.result, None | Some(SlotResult::Fresh { .. })))
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
        if let Some(f) = slot.decision.and_then(|d| d.fusion) {
            self.telemetry.record_decision(FidelityDecision {
                iteration: slot.iteration,
                max_low_variance: f.max_low_variance,
                threshold: f.threshold,
                chose_high: slot.fidelity == Fidelity::High,
                forced: f.forced,
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
    use crate::surrogate::{OutputModel, Surrogates};
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
    fn pointwise_drive(s: &RunSurrogates, x: &[f64]) -> f64 {
        fn of<M: OutputModel>(s: &Surrogates<M>, x: &[f64]) -> f64 {
            let cons: Vec<f64> = s
                .constraints()
                .iter()
                .map(|c| c.posterior(x).mean)
                .collect();
            feasibility_drive(&cons) + 1e-4 * s.objective().posterior(x).mean
        }
        match s {
            RunSurrogates::Fusion(s) => of(s, x),
            RunSurrogates::Single(s) => of(s, x),
        }
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
    fn check_drive(s: &RunSurrogates, points: &[Vec<f64>]) {
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
    ) -> RunSurrogates {
        let models = MfGpThetas {
            low: low_theta,
            high: high_theta,
        };
        let thetas = vec![models; 1 + CONSTRAINTS];
        let cfg = MfGpConfig {
            mc_samples,
            ..MfGpConfig::fast()
        };
        RunSurrogates::Fusion(Surrogates::fit_frozen((low, high), &cfg, &thetas).unwrap())
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
        let RunSurrogates::Fusion(mf) = &s else {
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

    fn sf_surrogates(high: &FidelityData, theta: Vec<f64>) -> RunSurrogates {
        let thetas = vec![theta; 1 + CONSTRAINTS];
        RunSurrogates::Single(Surrogates::fit_frozen(high, &GpConfig::fast(), &thetas).unwrap())
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

/// The [`Decision`] each BO candidate carries, checked against the run's
/// decision events.
#[cfg(test)]
mod decision_tests {
    use super::*;
    use crate::problem::FunctionProblem;
    use mfbo_telemetry::sinks::CollectSink;
    use mfbo_telemetry::{Record, Value};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    /// What a test reads off one issued candidate's [`Decision`].
    type Issued = (Fidelity, f64, bool, Option<FusionChoice>);

    /// Runs `cfg` on Forrester through ask/tell with one candidate in
    /// flight, reading each BO candidate's decision as it is issued; also
    /// returns the events named `event`.
    fn issued_decisions(cfg: MfBoConfig, event: &str) -> (Vec<Issued>, Vec<Record>) {
        let problem = forrester();
        let sink = std::sync::Arc::new(CollectSink::new());
        let guard = mfbo_telemetry::scoped_sink(sink.clone());
        let mut rng = StdRng::seed_from_u64(5);
        let mut opts = RunOptions::default();
        let mut core = AskTellMfbo::new(cfg, &problem, &mut rng, &mut opts).unwrap();
        let mut issued = Vec::new();
        while !core.is_finished() {
            if let Some(d) = core.pending.front().and_then(|s| s.decision.as_ref()) {
                issued.push((d.fidelity, d.acq_value, d.feasibility_drive, d.fusion));
            }
            let batch = core.ask(1).unwrap();
            assert_eq!(batch.len(), 1, "an unfinished run issues a candidate");
            let evaluation = problem.evaluate(&batch[0].x, batch[0].fidelity);
            let told = Told::Evaluated {
                evaluation,
                attempts: 1,
            };
            core.tell(batch[0].id, told).unwrap();
        }
        core.finish().unwrap();
        drop(guard);
        (issued, sink.named(event))
    }

    fn num(r: &Record, key: &str) -> f64 {
        match r.field(key) {
            Some(Value::F64(v)) => *v,
            other => panic!("{key}: {other:?}"),
        }
    }

    fn flag(r: &Record, key: &str) -> bool {
        match r.field(key) {
            Some(Value::Bool(b)) => *b,
            other => panic!("{key}: {other:?}"),
        }
    }

    /// Each multi-fidelity decision's eq. (12) margin, pick and forcing
    /// match its `fidelity_decision` event, and `forced` is set exactly
    /// when the streak cap overrode a low-fidelity pick. A cap of 0
    /// overrides every low pick; at 2 the low picks here (which a high one
    /// always follows) stand.
    #[test]
    fn mf_decisions_match_their_events_and_the_streak_cap() {
        let (mut forced, mut low) = (0, 0);
        for cap in [0, 2] {
            let cfg = MfBoConfig {
                // A sparse low-fidelity design leaves σ²_l large, so eq. (12)
                // often picks low.
                initial_low: 3,
                initial_high: 2,
                budget: 6.0,
                max_low_streak: cap,
                ..MfBoConfig::default()
            };
            let (issued, events) = issued_decisions(cfg, "fidelity_decision");
            assert!(!issued.is_empty());
            assert_eq!(issued.len(), events.len());
            let mut streak = 0;
            for ((fidelity, acq_value, drive, fusion), e) in issued.iter().zip(&events) {
                let f = fusion.expect("a multi-fidelity decision carries eq. (12)");
                let margin = f.max_low_variance - f.threshold;
                let event_margin = num(e, "max_low_variance") - num(e, "threshold");
                assert_eq!(margin.to_bits(), event_margin.to_bits());
                assert_eq!(acq_value.to_bits(), num(e, "acq_value").to_bits());
                assert_eq!(*drive, flag(e, "feasibility_drive"));
                assert_eq!(f.forced, flag(e, "forced"));
                assert_eq!(*fidelity == Fidelity::High, flag(e, "chose_high"));
                let picked_low = margin >= 0.0;
                assert_eq!(f.forced, picked_low && streak >= cap);
                assert_eq!(*fidelity == Fidelity::High, !picked_low || f.forced);
                streak = if *fidelity == Fidelity::Low {
                    streak + 1
                } else {
                    0
                };
                forced += usize::from(f.forced);
                low += usize::from(*fidelity == Fidelity::Low);
            }
        }
        assert!(forced > 0 && low > 0, "{forced} forced, {low} low picks");
    }

    /// A single-fidelity decision is a high-fidelity pick with no eq. (12)
    /// fields, one per `sfbo_iteration` event.
    #[test]
    fn sf_decisions_carry_no_variance_fields() {
        let cfg = MfBoConfig {
            initial_low: 0,
            initial_high: 5,
            budget: 12.0,
            ..MfBoConfig::default()
        };
        let (issued, events) = issued_decisions(cfg, "sfbo_iteration");
        assert!(!issued.is_empty());
        assert_eq!(issued.len(), events.len());
        for ((fidelity, acq_value, drive, fusion), e) in issued.iter().zip(&events) {
            assert_eq!(*fidelity, Fidelity::High);
            assert!(fusion.is_none());
            assert_eq!(acq_value.to_bits(), num(e, "acq_value").to_bits());
            assert_eq!(*drive, flag(e, "feasibility_drive"));
            assert!(e.field("max_low_variance").is_none());
        }
    }
}
