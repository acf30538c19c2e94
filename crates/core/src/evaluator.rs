//! Durable, fault-tolerant evaluation for the BO loops.
//!
//! Everything between "the loop picked a point" and "the loop consumed a
//! value" funnels through [`EvalSession`]:
//!
//! - **Write-ahead journaling** — with a [`mfbo_runstore::RunStore`]
//!   attached, every evaluation is appended (and flushed) to the journal
//!   *before* the loop acts on it.
//! - **Checkpoint/resume** — with [`RunOptions::resume`], the session
//!   replays journaled evaluations instead of calling the simulator. The
//!   surrounding loop re-runs its (deterministic) surrogate fits and
//!   acquisition optimizations from scratch, so no model state needs to be
//!   persisted and the resumed trajectory is bit-identical by construction.
//!   Every replayed record is cross-checked against what the loop actually
//!   asked for (iteration, fidelity, design point, RNG cursor, accumulated
//!   cost) — any divergence raises [`MfboError::ResumeMismatch`] instead of
//!   silently corrupting the run.
//! - **Evaluation caching** — with [`RunOptions::cache`], results are
//!   content-addressed on `(problem, fidelity, quantized x)` and served from
//!   previous runs. Cost is billed exactly as if the simulator had run, so
//!   caching changes wall-clock only, never the trajectory.
//! - **Fault tolerance** — panics and non-finite results are caught and
//!   retried per [`EvalPolicy`]; when retries are exhausted, the
//!   [`NonFinitePolicy`] decides between aborting (the historical behavior)
//!   and substituting a penalty value while quarantining the point.
//!
//! [`FaultInjector`] wraps any problem with deterministic failures for
//! testing the above.

use crate::problem::{Evaluation, Fidelity, MultiFidelityProblem};
use crate::MfboError;
use mfbo_runstore::{cache_key, CacheEntry, Fid, JournalEntry, RunMeta, RunStore, FORMAT_VERSION};
use mfbo_telemetry::counter;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// What to do when a simulation keeps producing non-finite values (or keeps
/// panicking) after all retries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NonFinitePolicy {
    /// Abort the run with [`MfboError::NonFiniteEvaluation`] (panics are
    /// re-raised). This is the default and the historical behavior.
    Abort,
    /// Substitute a finite penalty evaluation (objective = `penalty`, every
    /// constraint violated) and quarantine the design point so the cache
    /// and warm-starting never serve it.
    PenalizeAndQuarantine {
        /// Objective value recorded for the failed point.
        penalty: f64,
    },
}

impl NonFinitePolicy {
    /// Default penalty objective for [`NonFinitePolicy::PenalizeAndQuarantine`].
    pub const DEFAULT_PENALTY: f64 = 1e6;

    /// Parses the CLI spelling: `"abort"` or `"penalize"`.
    pub fn parse(s: &str) -> Option<NonFinitePolicy> {
        match s {
            "abort" => Some(NonFinitePolicy::Abort),
            "penalize" => Some(NonFinitePolicy::PenalizeAndQuarantine {
                penalty: Self::DEFAULT_PENALTY,
            }),
            _ => None,
        }
    }
}

/// Fault-tolerance policy for simulator calls.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalPolicy {
    /// Additional attempts after a failed (panicking or non-finite)
    /// simulation. `0` preserves the historical fail-fast behavior.
    pub max_retries: u32,
    /// Base back-off slept before retry `n` (scaled by `2^(n-1)`, capped at
    /// 30 s). [`Duration::ZERO`] (the default) retries immediately —
    /// appropriate for the in-process analytic problems of this workspace.
    pub retry_backoff: Duration,
    /// What to do once retries are exhausted.
    pub non_finite: NonFinitePolicy,
    /// Hard cap on *fresh* simulator calls for this run. Replayed and cached
    /// evaluations are free. `None` = unlimited.
    pub max_evaluations: Option<u64>,
}

impl Default for EvalPolicy {
    fn default() -> Self {
        EvalPolicy {
            max_retries: 0,
            retry_backoff: Duration::ZERO,
            non_finite: NonFinitePolicy::Abort,
            max_evaluations: None,
        }
    }
}

/// Durability and fault-tolerance options accepted by the `run_with` entry
/// points of the optimizer loops. The default is exactly the historical
/// `run` behavior: no store, no cache, fail-fast evaluation.
#[derive(Debug, Default)]
pub struct RunOptions {
    /// Fault-tolerance policy for simulator calls.
    pub policy: EvalPolicy,
    /// Durable store for the journal, cache, and quarantine set.
    pub store: Option<RunStore>,
    /// Replay the store's journal instead of re-simulating; the run
    /// continues from where the journal ends. Requires `store`.
    pub resume: bool,
    /// Serve evaluations from the store's cross-run cache (and feed fresh
    /// results into it). Requires `store` to have any effect.
    pub cache: bool,
    /// Inject cached low-fidelity observations from previous runs into the
    /// surrogate training set after the initial design. Requires `store`.
    pub warm_start: bool,
}

impl RunOptions {
    /// Options that journal into `store` (fresh run).
    pub fn journaled(store: RunStore) -> RunOptions {
        RunOptions {
            store: Some(store),
            ..RunOptions::default()
        }
    }

    /// Options that resume from `store`'s journal.
    pub fn resuming(store: RunStore) -> RunOptions {
        RunOptions {
            store: Some(store),
            resume: true,
            ..RunOptions::default()
        }
    }
}

/// Aggregate accounting of how a run's evaluations were sourced and how the
/// fault-tolerance machinery fired. Attached to
/// [`crate::Outcome::eval_stats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EvalStats {
    /// Simulator calls actually executed this run.
    pub fresh: u64,
    /// Evaluations replayed from the journal on resume.
    pub replayed: u64,
    /// Evaluations served from the cross-run cache.
    pub cache_hits: u64,
    /// Warm-start points injected from the cache.
    pub warm_started: u64,
    /// Failed attempts that were retried.
    pub retries: u64,
    /// Design points quarantined after exhausting retries.
    pub quarantined: u64,
    /// Billed cost of fresh simulations.
    pub fresh_cost: f64,
    /// Billed cost of replayed evaluations (already paid for by the
    /// interrupted run — not re-simulated, but still counted against the
    /// optimizer's budget so the trajectory is unchanged).
    pub replayed_cost: f64,
    /// Billed cost of cache hits (no simulator ran).
    pub cached_cost: f64,
}

/// Cap on warm-start injections, keeping the GP training set bounded no
/// matter how large the cross-run cache has grown.
const WARM_START_CAP: usize = 256;

/// Maximum back-off between retries regardless of the exponential schedule.
const MAX_BACKOFF: Duration = Duration::from_secs(30);

/// Converts the core fidelity enum to the store's dependency-free twin.
fn to_fid(fidelity: Fidelity) -> Fid {
    match fidelity {
        Fidelity::Low => Fid::Low,
        Fidelity::High => Fid::High,
    }
}

/// Outcome of one robust simulator call — see [`robust_evaluate`].
#[derive(Debug)]
pub enum SimOutcome {
    /// A finite evaluation was obtained.
    Ok {
        /// The finite evaluation.
        evaluation: Evaluation,
        /// 1-based attempt count (1 = succeeded without retries).
        attempts: u32,
    },
    /// Every attempt panicked or produced a non-finite value.
    Exhausted {
        /// Total attempts made (`1 + policy.max_retries`).
        attempts: u32,
        /// The last panic payload, when the final failure was a panic
        /// rather than a non-finite value. Callers running under
        /// [`NonFinitePolicy::Abort`] should re-raise it with
        /// `std::panic::resume_unwind`.
        panic: Option<Box<dyn std::any::Any + Send>>,
    },
}

/// One robust simulator call: catches panics and retries per `policy`
/// (exponential back-off, capped at 30 s), without applying the non-finite
/// policy — that decision belongs to the ask/tell core, which applies it
/// when the failure is told. This is the exact
/// evaluation kernel the evaluation service runs on its workers, so a
/// served run retries identically to an in-process one.
pub fn robust_evaluate<P: MultiFidelityProblem + ?Sized>(
    problem: &P,
    x: &[f64],
    fidelity: Fidelity,
    policy: &EvalPolicy,
) -> SimOutcome {
    let total_attempts = 1 + policy.max_retries;
    let mut last_panic: Option<Box<dyn std::any::Any + Send>> = None;
    for attempt in 1..=total_attempts {
        match catch_unwind(AssertUnwindSafe(|| problem.evaluate(x, fidelity))) {
            Ok(eval) if eval.is_finite() => {
                return SimOutcome::Ok {
                    evaluation: eval,
                    attempts: attempt,
                }
            }
            Ok(_) => last_panic = None,
            Err(payload) => last_panic = Some(payload),
        }
        if attempt < total_attempts {
            counter!("eval_retry", 1u64);
            if !policy.retry_backoff.is_zero() {
                let backoff = policy
                    .retry_backoff
                    .saturating_mul(1 << (attempt - 1).min(16))
                    .min(MAX_BACKOFF);
                std::thread::sleep(backoff);
            }
        }
    }
    SimOutcome::Exhausted {
        attempts: total_attempts,
        panic: last_panic,
    }
}

/// The evaluation funnel used internally by the optimizer loops — see the
/// module docs for the full pipeline.
///
/// The session *owns* the run store for the duration of the run (it is
/// taken out of [`RunOptions`] at construction), so the ask/tell core —
/// whether driven by the sequential loops or the service's shard
/// scheduler — holds its session in long-lived state without borrowing the
/// options struct. The store (and its buffered journal tail, under group commit)
/// is flushed and released when the session is dropped.
pub(crate) struct EvalSession {
    policy: EvalPolicy,
    store: Option<RunStore>,
    use_cache: bool,
    warm_start: bool,
    resuming: bool,
    problem_name: String,
    replay: VecDeque<JournalEntry>,
    stats: EvalStats,
}

impl EvalSession {
    /// Opens the session: validates/initializes the store against this
    /// run's identity and loads the replay queue when resuming. `batch` is
    /// the ask/tell width and `inference` the GP engine tag recorded in the
    /// run meta (`None` = sequential / exact, the historical layout);
    /// resuming a journal written with a different width or engine is
    /// refused by the store's meta check.
    pub(crate) fn new_batched<P: MultiFidelityProblem + ?Sized>(
        opts: &mut RunOptions,
        algo: &str,
        problem: &P,
        rng_start: Option<[u64; 4]>,
        batch: Option<u64>,
        inference: Option<String>,
    ) -> Result<EvalSession, MfboError> {
        if opts.resume && opts.store.is_none() {
            return Err(MfboError::InvalidConfig {
                reason: "resume requested without a run store".into(),
            });
        }
        let meta = RunMeta {
            format_version: FORMAT_VERSION,
            algo: algo.to_string(),
            problem: problem.name().to_string(),
            dim: problem.dim(),
            num_constraints: problem.num_constraints(),
            rng_start,
            batch,
            inference,
        };
        let mut replay = VecDeque::new();
        let mut store = opts.store.take();
        if let Some(store) = store.as_mut() {
            if opts.resume {
                replay = store.resume_run(&meta)?.into();
                counter!("runstore_replay_loaded", replay.len() as u64);
            } else {
                store.begin_run(&meta)?;
            }
        }
        Ok(EvalSession {
            policy: opts.policy.clone(),
            store,
            use_cache: opts.cache,
            warm_start: opts.warm_start,
            resuming: opts.resume,
            problem_name: problem.name().to_string(),
            replay,
            stats: EvalStats::default(),
        })
    }

    /// Low-fidelity observations from previous runs to seed the surrogate
    /// with, deduplicated against `existing_xs` (the initial design). On
    /// resume the points come from the journal (the cache may have grown
    /// since the interrupted run); on a fresh run they come from the cache
    /// and are journaled with `warm = true`. Warm points are free: they
    /// were paid for by earlier runs.
    pub(crate) fn warm_start_points(
        &mut self,
        existing_xs: &[Vec<f64>],
        cost: f64,
    ) -> Result<Vec<(Vec<f64>, Evaluation)>, MfboError> {
        let mut out = Vec::new();
        if self.resuming {
            while self.replay.front().is_some_and(|e| e.warm) {
                let entry = self.replay.pop_front().expect("front exists");
                out.push((
                    entry.x,
                    Evaluation {
                        objective: entry.objective,
                        constraints: entry.constraints,
                    },
                ));
            }
            self.stats.warm_started = out.len() as u64;
            return Ok(out);
        }
        if !(self.warm_start && self.store.is_some()) {
            return Ok(out);
        }
        let seen: std::collections::BTreeSet<String> = existing_xs
            .iter()
            .map(|x| cache_key(&self.problem_name, Fid::Low, x))
            .collect();
        let picked: Vec<(String, CacheEntry)> = self
            .store
            .as_ref()
            .expect("checked above")
            .cached_low_entries(&self.problem_name)
            .into_iter()
            .filter(|(k, _)| !seen.contains(*k))
            .take(WARM_START_CAP)
            .map(|(k, e)| (k.to_string(), e.clone()))
            .collect();
        for (_, entry) in picked {
            self.journal(JournalEntry {
                iteration: 0,
                fid: Fid::Low,
                x: entry.x.clone(),
                objective: entry.objective,
                constraints: entry.constraints.clone(),
                cost_after: cost,
                rng: None,
                attempts: 0,
                cached: true,
                quarantined: false,
                warm: true,
                pending: false,
                cand: None,
            })?;
            out.push((
                entry.x,
                Evaluation {
                    objective: entry.objective,
                    constraints: entry.constraints,
                },
            ));
        }
        self.stats.warm_started = out.len() as u64;
        if !out.is_empty() {
            counter!("runstore_warm_started", out.len() as u64);
        }
        Ok(out)
    }

    /// Closes the session, returning the accounting.
    pub(crate) fn finish(self) -> EvalStats {
        self.stats
    }

    // --- Hooks for the ask/tell core ----------------------------------------
    //
    // `AskTellMfbo` splits every evaluation into "resolve at candidate
    // generation" (replay / cache lookup / budget check) and "commit in
    // generation order" (billing, stats, journaling), because between the
    // two the candidate may sit in flight on a remote worker.

    /// The run's fault-tolerance policy (the ask/tell core applies
    /// [`NonFinitePolicy`] itself when a told result is a failure).
    pub(crate) fn policy(&self) -> &EvalPolicy {
        &self.policy
    }

    /// What kind of record sits at the front of the replay queue.
    /// `(warm, pending)` per record flags; `None` when replay is exhausted.
    pub(crate) fn replay_front_flags(&self) -> Option<(bool, bool)> {
        self.replay.front().map(|e| (e.warm, e.pending))
    }

    /// Pops + verifies the commit record for a candidate (iteration,
    /// fidelity, bit-exact x, RNG cursor, candidate id). Billing and the
    /// accumulated-cost cross-check happen later, at commit, via
    /// [`EvalSession::commit_replayed`].
    pub(crate) fn replay_pop_commit(
        &mut self,
        x: &[f64],
        fidelity: Fidelity,
        iteration: usize,
        rng_snapshot: Option<[u64; 4]>,
        cand: Option<u64>,
    ) -> Result<JournalEntry, MfboError> {
        let entry = self.replay.pop_front().expect("caller checked front");
        self.check_replay(&entry, x, fidelity, iteration, rng_snapshot)?;
        if entry.cand != cand {
            return Err(MfboError::ResumeMismatch {
                reason: format!(
                    "iteration {iteration}: journaled candidate id {:?} differs from the \
                     regenerated {:?}",
                    entry.cand, cand
                ),
            });
        }
        Ok(entry)
    }

    /// Pops + verifies a pending-candidate record written by an interrupted
    /// batched run: same identity checks as a commit record, plus the
    /// bit-exact committed cost at generation time. The candidate will be
    /// re-issued to an evaluator (its result was never journaled, so
    /// nothing was paid for).
    pub(crate) fn replay_pop_pending(
        &mut self,
        x: &[f64],
        fidelity: Fidelity,
        iteration: usize,
        rng_snapshot: Option<[u64; 4]>,
        committed_cost: f64,
        cand: u64,
    ) -> Result<(), MfboError> {
        let entry = self.replay.pop_front().expect("caller checked front");
        self.check_replay(&entry, x, fidelity, iteration, rng_snapshot)?;
        if entry.cand != Some(cand) {
            return Err(MfboError::ResumeMismatch {
                reason: format!(
                    "iteration {iteration}: journaled pending candidate id {:?} differs \
                     from the regenerated {cand}",
                    entry.cand
                ),
            });
        }
        if entry.cost_after.to_bits() != committed_cost.to_bits() {
            return Err(MfboError::ResumeMismatch {
                reason: format!(
                    "iteration {iteration}: committed cost {committed_cost} at candidate \
                     generation differs from the journaled {}",
                    entry.cost_after
                ),
            });
        }
        Ok(())
    }

    /// Commits a replayed evaluation in generation order: bills the cost,
    /// cross-checks the journaled accumulated cost bit for bit, and updates
    /// the replay accounting.
    pub(crate) fn commit_replayed<P: MultiFidelityProblem + ?Sized>(
        &mut self,
        problem: &P,
        entry: &JournalEntry,
        fidelity: Fidelity,
        iteration: usize,
        cost: &mut f64,
    ) -> Result<Evaluation, MfboError> {
        *cost += problem.cost(fidelity);
        if cost.to_bits() != entry.cost_after.to_bits() {
            return Err(MfboError::ResumeMismatch {
                reason: format!(
                    "iteration {iteration}: accumulated cost {cost} differs from the \
                     journaled {}",
                    entry.cost_after
                ),
            });
        }
        self.stats.replayed += 1;
        self.stats.replayed_cost += problem.cost(fidelity);
        counter!("runstore_replayed", 1u64);
        Ok(Evaluation {
            objective: entry.objective,
            constraints: entry.constraints.clone(),
        })
    }

    /// Non-mutating cross-run cache lookup. Quarantined keys never hit.
    pub(crate) fn cache_lookup(&self, x: &[f64], fidelity: Fidelity) -> Option<Evaluation> {
        if !self.use_cache {
            return None;
        }
        let key = cache_key(&self.problem_name, to_fid(fidelity), x);
        self.store
            .as_ref()
            .and_then(|s| s.cache_get(&key))
            .map(|hit| Evaluation {
                objective: hit.objective,
                constraints: hit.constraints.clone(),
            })
    }

    /// Commits a cache-served evaluation in generation order: bills the
    /// cost (hits are billed like simulations so the trajectory is
    /// unchanged) and journals the record.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn commit_cached<P: MultiFidelityProblem + ?Sized>(
        &mut self,
        problem: &P,
        x: &[f64],
        fidelity: Fidelity,
        iteration: usize,
        cost: &mut f64,
        rng_snapshot: Option<[u64; 4]>,
        cand: Option<u64>,
        eval: &Evaluation,
    ) -> Result<(), MfboError> {
        *cost += problem.cost(fidelity);
        self.stats.cache_hits += 1;
        self.stats.cached_cost += problem.cost(fidelity);
        counter!("eval_cache_hit", 1u64);
        self.journal(JournalEntry {
            iteration: iteration as u64,
            fid: to_fid(fidelity),
            x: x.to_vec(),
            objective: eval.objective,
            constraints: eval.constraints.clone(),
            cost_after: *cost,
            rng: rng_snapshot,
            attempts: 0,
            cached: true,
            quarantined: false,
            warm: false,
            pending: false,
            cand,
        })
    }

    /// Enforces the fresh-simulation cap before a candidate is issued:
    /// `outstanding` counts already-issued candidates that will need a
    /// fresh simulation when they come back.
    pub(crate) fn fresh_allowed(&self, outstanding: u64) -> Result<(), MfboError> {
        if let Some(limit) = self.policy.max_evaluations {
            if self.stats.fresh + outstanding >= limit {
                return Err(MfboError::EvalBudgetExhausted { limit });
            }
        }
        Ok(())
    }

    /// Commits a fresh (told) evaluation in generation order: bills the
    /// cost, updates stats, feeds the cache or the quarantine set, and
    /// journals the record.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn commit_fresh<P: MultiFidelityProblem + ?Sized>(
        &mut self,
        problem: &P,
        x: &[f64],
        fidelity: Fidelity,
        iteration: usize,
        cost: &mut f64,
        rng_snapshot: Option<[u64; 4]>,
        cand: Option<u64>,
        eval: &Evaluation,
        attempts: u32,
        quarantined: bool,
    ) -> Result<(), MfboError> {
        self.stats.fresh += 1;
        self.stats.fresh_cost += problem.cost(fidelity);
        self.stats.retries += attempts.saturating_sub(1) as u64;
        *cost += problem.cost(fidelity);
        let key = cache_key(&self.problem_name, to_fid(fidelity), x);
        if quarantined {
            self.stats.quarantined += 1;
            counter!("eval_quarantined", 1u64);
            if let Some(store) = self.store.as_mut() {
                store.quarantine(key)?;
            }
        } else if self.use_cache {
            if let Some(store) = self.store.as_mut() {
                store.cache_put(
                    key,
                    CacheEntry {
                        x: x.to_vec(),
                        objective: eval.objective,
                        constraints: eval.constraints.clone(),
                    },
                )?;
            }
        }
        self.journal(JournalEntry {
            iteration: iteration as u64,
            fid: to_fid(fidelity),
            x: x.to_vec(),
            objective: eval.objective,
            constraints: eval.constraints.clone(),
            cost_after: *cost,
            rng: rng_snapshot,
            attempts,
            cached: false,
            quarantined,
            warm: false,
            pending: false,
            cand,
        })
    }

    /// Write-ahead record of a candidate *issue* in a batched run, flushed
    /// before the candidate leaves the core, so a crashed server can
    /// regenerate and verify its in-flight set on resume.
    pub(crate) fn journal_pending(
        &mut self,
        x: &[f64],
        fidelity: Fidelity,
        iteration: usize,
        rng_snapshot: Option<[u64; 4]>,
        committed_cost: f64,
        cand: u64,
    ) -> Result<(), MfboError> {
        self.journal(JournalEntry {
            iteration: iteration as u64,
            fid: to_fid(fidelity),
            x: x.to_vec(),
            objective: 0.0,
            constraints: Vec::new(),
            cost_after: committed_cost,
            rng: rng_snapshot,
            attempts: 0,
            cached: false,
            quarantined: false,
            warm: false,
            pending: true,
            cand: Some(cand),
        })
    }

    fn journal(&mut self, entry: JournalEntry) -> Result<(), MfboError> {
        if let Some(store) = self.store.as_mut() {
            store.append(&entry)?;
        }
        Ok(())
    }

    /// Blocks until every journal entry appended so far is durable. A no-op
    /// for direct (flush-per-append) stores; under group-commit journaling
    /// this is the barrier the evaluation service places between journaling
    /// a candidate issue and dispatching its evaluation to a worker.
    pub(crate) fn sync_journal(&mut self) -> Result<(), MfboError> {
        if let Some(store) = self.store.as_mut() {
            store.sync()?;
        }
        Ok(())
    }

    fn check_replay(
        &self,
        entry: &JournalEntry,
        x: &[f64],
        fidelity: Fidelity,
        iteration: usize,
        rng_snapshot: Option<[u64; 4]>,
    ) -> Result<(), MfboError> {
        let mismatch = |what: String| {
            Err(MfboError::ResumeMismatch {
                reason: format!("iteration {iteration}: {what}"),
            })
        };
        if entry.iteration != iteration as u64 {
            return mismatch(format!(
                "journal entry is for iteration {}",
                entry.iteration
            ));
        }
        if entry.fid != to_fid(fidelity) {
            return mismatch(format!(
                "journal entry is {} fidelity, loop asked for {fidelity}",
                entry.fid
            ));
        }
        let same_x = entry.x.len() == x.len()
            && entry
                .x
                .iter()
                .zip(x)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same_x {
            return mismatch(format!(
                "design point {:?} differs from the journaled {:?}",
                x, entry.x
            ));
        }
        if let (Some(now), Some(then)) = (rng_snapshot, entry.rng) {
            if now != then {
                return mismatch("RNG cursor differs from the journaled one".into());
            }
        }
        Ok(())
    }
}

/// What kind of failure [`FaultInjector`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The objective comes back NaN.
    Nan,
    /// The evaluation panics.
    Panic,
    /// The evaluation stalls for `ms` milliseconds before returning a
    /// correct result — a hung solver or license server from the caller's
    /// point of view. Used to exercise worker-deadline handling in the
    /// evaluation service; the sequential loops simply wait it out.
    Stall {
        /// Stall duration in milliseconds.
        ms: u64,
    },
}

/// Deterministic fault-injection wrapper around any problem: every `every`-th
/// simulator call fails with [`FaultKind`]. The call counter advances on
/// faulted calls too, so a retry of the same point succeeds — which is
/// exactly what flaky simulators (license hiccups, solver non-convergence)
/// look like in practice.
#[derive(Debug)]
pub struct FaultInjector<P> {
    inner: P,
    kind: FaultKind,
    every: usize,
    calls: AtomicUsize,
}

impl<P> FaultInjector<P> {
    /// Wraps `inner`, failing every `every`-th evaluation (1-based: with
    /// `every = 5`, calls 5, 10, 15, … fail).
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn new(inner: P, kind: FaultKind, every: usize) -> FaultInjector<P> {
        assert!(every > 0, "fault period must be positive");
        FaultInjector {
            inner,
            kind,
            every,
            calls: AtomicUsize::new(0),
        }
    }

    /// Total simulator calls so far (faulted ones included).
    pub fn calls(&self) -> usize {
        self.calls.load(Ordering::Relaxed)
    }
}

impl<P: MultiFidelityProblem> MultiFidelityProblem for FaultInjector<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn bounds(&self) -> mfbo_opt::Bounds {
        self.inner.bounds()
    }

    fn num_constraints(&self) -> usize {
        self.inner.num_constraints()
    }

    fn evaluate(&self, x: &[f64], fidelity: Fidelity) -> Evaluation {
        let n = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(self.every) {
            match self.kind {
                FaultKind::Panic => panic!("injected simulator fault at call {n}"),
                FaultKind::Nan => {
                    let mut eval = self.inner.evaluate(x, fidelity);
                    eval.objective = f64::NAN;
                    return eval;
                }
                FaultKind::Stall { ms } => {
                    std::thread::sleep(Duration::from_millis(ms));
                }
            }
        }
        self.inner.evaluate(x, fidelity)
    }

    fn cost(&self, fidelity: Fidelity) -> f64 {
        self.inner.cost(fidelity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::FunctionProblem;
    use mfbo_opt::Bounds;

    fn quad() -> FunctionProblem {
        FunctionProblem::builder("quad", Bounds::unit(1))
            .high(|x: &[f64]| (x[0] - 0.5).powi(2))
            .low_cost(0.1)
            .build()
    }

    fn session(p: &dyn MultiFidelityProblem, opts: &mut RunOptions) -> EvalSession {
        EvalSession::new_batched(opts, "test", p, None, None, None).unwrap()
    }

    /// Simulates `x` through [`robust_evaluate`] and commits the result the
    /// way the ask/tell core does for a told evaluation.
    fn simulate_and_commit<P: MultiFidelityProblem>(
        session: &mut EvalSession,
        p: &P,
        x: &[f64],
        cost: &mut f64,
    ) -> Evaluation {
        let SimOutcome::Ok {
            evaluation,
            attempts,
        } = robust_evaluate(p, x, Fidelity::High, session.policy())
        else {
            panic!("simulation exhausted its retries");
        };
        session
            .commit_fresh(
                p,
                x,
                Fidelity::High,
                1,
                cost,
                None,
                None,
                &evaluation,
                attempts,
                false,
            )
            .unwrap();
        evaluation
    }

    #[test]
    fn plain_session_calls_through() {
        let p = quad();
        let mut opts = RunOptions::default();
        let mut session = session(&p, &mut opts);
        let mut cost = 0.0;
        let eval = simulate_and_commit(&mut session, &p, &[0.25], &mut cost);
        assert!((eval.objective - 0.0625).abs() < 1e-15);
        assert_eq!(cost, 1.0);
        let stats = session.finish();
        assert_eq!(stats.fresh, 1);
        assert_eq!(stats.fresh_cost, 1.0);
        assert_eq!(stats.replayed + stats.cache_hits, 0);
    }

    #[test]
    fn resume_without_store_is_invalid() {
        let p = quad();
        let mut opts = RunOptions {
            resume: true,
            ..RunOptions::default()
        };
        assert!(matches!(
            EvalSession::new_batched(&mut opts, "test", &p, None, None, None),
            Err(MfboError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn eval_budget_is_enforced() {
        let p = quad();
        let mut opts = RunOptions {
            policy: EvalPolicy {
                max_evaluations: Some(2),
                ..EvalPolicy::default()
            },
            ..RunOptions::default()
        };
        let mut session = session(&p, &mut opts);
        let mut cost = 0.0;
        for k in 0..2 {
            session.fresh_allowed(0).unwrap();
            simulate_and_commit(&mut session, &p, &[0.1 * k as f64], &mut cost);
        }
        assert!(matches!(
            session.fresh_allowed(0),
            Err(MfboError::EvalBudgetExhausted { limit: 2 })
        ));
    }

    #[test]
    fn non_finite_results_exhaust_the_retries() {
        let p = FaultInjector::new(quad(), FaultKind::Nan, 1); // always NaN
        let policy = EvalPolicy {
            max_retries: 2,
            ..EvalPolicy::default()
        };
        let out = robust_evaluate(&p, &[0.5], Fidelity::High, &policy);
        assert!(matches!(
            out,
            SimOutcome::Exhausted {
                attempts: 3,
                panic: None
            }
        ));
        assert_eq!(p.calls(), 3); // 1 + 2 retries
    }

    #[test]
    fn retry_recovers_from_transient_faults() {
        let p = FaultInjector::new(quad(), FaultKind::Panic, 2); // calls 2, 4, … panic
        let mut opts = RunOptions {
            policy: EvalPolicy {
                max_retries: 1,
                ..EvalPolicy::default()
            },
            ..RunOptions::default()
        };
        let mut session = session(&p, &mut opts);
        let mut cost = 0.0;
        // Call 1 succeeds, call 2 panics and is retried as call 3.
        simulate_and_commit(&mut session, &p, &[0.1], &mut cost);
        simulate_and_commit(&mut session, &p, &[0.2], &mut cost);
        let stats = session.finish();
        assert_eq!(stats.fresh, 2);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.quarantined, 0);
    }

    #[test]
    fn quarantined_commits_are_penalized_and_counted() {
        let constrained = FunctionProblem::builder("c", Bounds::unit(1))
            .high(|_: &[f64]| f64::NAN)
            .high_constraints(2, |_: &[f64]| vec![-1.0, -1.0])
            .build();
        let mut opts = RunOptions::default();
        let mut session = session(&constrained, &mut opts);
        let eval = Evaluation::penalized(1e6, constrained.num_constraints());
        assert_eq!(eval.objective, 1e6);
        assert_eq!(eval.constraints, vec![1.0, 1.0]); // violated
        assert!(!eval.is_feasible());
        let mut cost = 0.0;
        session
            .commit_fresh(
                &constrained,
                &[0.5],
                Fidelity::High,
                1,
                &mut cost,
                None,
                None,
                &eval,
                1,
                true,
            )
            .unwrap();
        assert_eq!(session.finish().quarantined, 1);
    }

    #[test]
    fn exhausted_panics_hand_back_their_payload() {
        let p = FaultInjector::new(quad(), FaultKind::Panic, 1);
        let out = robust_evaluate(&p, &[0.5], Fidelity::High, &EvalPolicy::default());
        let SimOutcome::Exhausted {
            attempts: 1,
            panic: Some(payload),
        } = out
        else {
            panic!("expected an exhausted panic, got {out:?}");
        };
        let msg = payload.downcast_ref::<String>().unwrap();
        assert!(msg.contains("injected simulator fault"), "{msg}");
    }

    #[test]
    fn non_finite_policy_parses() {
        assert_eq!(
            NonFinitePolicy::parse("abort"),
            Some(NonFinitePolicy::Abort)
        );
        assert_eq!(
            NonFinitePolicy::parse("penalize"),
            Some(NonFinitePolicy::PenalizeAndQuarantine {
                penalty: NonFinitePolicy::DEFAULT_PENALTY
            })
        );
        assert_eq!(NonFinitePolicy::parse("shrug"), None);
    }

    #[test]
    fn fault_injector_is_deterministic() {
        let p = FaultInjector::new(quad(), FaultKind::Nan, 3);
        let mut bad = 0;
        for k in 1..=9 {
            let eval = p.evaluate(&[0.4], Fidelity::Low);
            if !eval.is_finite() {
                bad += 1;
                assert_eq!(k % 3, 0, "fault at unexpected call {k}");
            }
        }
        assert_eq!(bad, 3);
        assert_eq!(p.calls(), 9);
    }
}
