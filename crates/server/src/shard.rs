//! Sharded run scheduler: a fixed pool of shard threads, each driving the
//! [`AskTellMfbo`] state machines of the runs hashed to it as an event
//! loop (ask → dispatch → tell on worker completion).
//!
//! A shard thread multiplexes every run assigned to it: serving 5 000
//! concurrent runs takes `shards + workers` threads, not 5 000. Because a
//! run's optimizer and journal are still touched by exactly one thread —
//! its owning shard — the determinism and durability contracts are
//! unchanged: the trajectory depends on the spec (problem, seed, config)
//! alone, never on which shard hosts the run, how many shards exist, or
//! how worker results interleave (the core is tell-order invariant).
//!
//! Each loop pass drains every queued event (worker results, new runs),
//! applies the tells, pumps each touched run's asks, then issues **one**
//! journal durability barrier per touched run before handing the batch of
//! candidates to the worker pool. Under group-commit journaling this is
//! what amortizes flushes: a pass that commits k evaluations across the
//! shard's runs costs one linger window, not k `fsync`-equivalents, while
//! still never dispatching an evaluation whose write-ahead entry is not
//! yet on disk.
//!
//! ## Stalled workers
//!
//! With a `stall` deadline configured, a candidate whose evaluation has not
//! returned within the deadline is *told as failed* (the run's
//! [`mfbo::NonFinitePolicy`] decides between aborting and
//! penalize-and-quarantine) and its id is blacklisted; the worker is not
//! interrupted — when the hung simulator finally returns, the stale result
//! is discarded. Sibling runs sharing the pool only ever lose throughput,
//! never correctness.

use crate::problems::make_problem;
use crate::run::{Phase, RunHandle, RunSpec};
use mfbo::problem::MultiFidelityProblem;
use mfbo::{robust_evaluate, AskTellMfbo, Candidate, RunOptions, RunStore, SimOutcome, Told};
use mfbo_pool::WorkerPool;
use mfbo_runstore::GroupCommitter;
use mfbo_telemetry::{counter, event};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

type SharedProblem = Arc<dyn MultiFidelityProblem + Send + Sync>;

/// What wakes a shard: a new run to admit, or a worker result to fold in.
enum Event {
    Start {
        spec: Box<RunSpec>,
        handle: Arc<RunHandle>,
    },
    Result {
        run: String,
        id: u64,
        out: SimOutcome,
        elapsed: Duration,
    },
}

/// The fixed pool of shard threads. Runs are routed by hashing their name,
/// so a given run always lands on the same shard — the single thread that
/// will ever touch its optimizer state and journal.
pub(crate) struct ShardPool {
    senders: Vec<Sender<Event>>,
}

impl ShardPool {
    /// Spawns `shards` event-loop threads sharing `pool` for evaluations
    /// and (optionally) `committer` for group-commit journaling.
    pub(crate) fn new(
        shards: usize,
        pool: Arc<WorkerPool>,
        committer: Option<Arc<GroupCommitter>>,
    ) -> ShardPool {
        assert!(shards > 0, "shard pool needs at least one shard");
        let mut senders = Vec::with_capacity(shards);
        for i in 0..shards {
            let (tx, rx) = channel();
            let shard = Shard {
                rx,
                self_tx: tx.clone(),
                pool: Arc::clone(&pool),
                committer: committer.clone(),
                runs: HashMap::new(),
            };
            std::thread::Builder::new()
                .name(format!("mfbo-shard-{i}"))
                .spawn(move || shard.event_loop())
                .expect("failed to spawn shard thread");
            senders.push(tx);
        }
        ShardPool { senders }
    }

    /// Routes a new run to its owning shard; returns the observation
    /// handle immediately (admission happens on the shard thread).
    pub(crate) fn submit(&self, spec: RunSpec) -> Arc<RunHandle> {
        let handle = Arc::new(RunHandle::new());
        counter!("server_runs_started", 1u64);
        let shard = shard_of(&spec.name, self.senders.len());
        // A send can only fail if the shard thread died, which would have
        // panicked the process already.
        let _ = self.senders[shard].send(Event::Start {
            spec: Box::new(spec),
            handle: Arc::clone(&handle),
        });
        handle
    }
}

fn shard_of(name: &str, shards: usize) -> usize {
    let mut h = DefaultHasher::new();
    name.hash(&mut h);
    (h.finish() % shards as u64) as usize
}

/// One run multiplexed on a shard.
struct ActiveRun {
    driver: AskTellMfbo<SharedProblem, StdRng>,
    problem: SharedProblem,
    handle: Arc<RunHandle>,
    batch: usize,
    stall: Option<Duration>,
    /// Issue time per in-flight candidate (for the stall deadline).
    in_flight: HashMap<u64, Instant>,
    /// Ids told as failed after a stall whose late results must be dropped.
    abandoned: HashSet<u64>,
}

struct Shard {
    rx: Receiver<Event>,
    /// Cloned into worker jobs so results come back to this shard.
    self_tx: Sender<Event>,
    pool: Arc<WorkerPool>,
    committer: Option<Arc<GroupCommitter>>,
    runs: HashMap<String, ActiveRun>,
}

impl Shard {
    fn event_loop(mut self) {
        loop {
            // Block until something happens, bounded by the earliest stall
            // deadline across the shard's runs.
            let first = match self.next_wake() {
                None => match self.rx.recv() {
                    Ok(e) => Some(e),
                    Err(_) => return,
                },
                Some(timeout) => match self.rx.recv_timeout(timeout) {
                    Ok(e) => Some(e),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => return,
                },
            };
            counter!("server_shard_polls", 1u64);

            // Drain the whole queue before pumping: a pass that folds in k
            // results pays for one journal barrier, not k.
            let mut dirty: BTreeSet<String> = BTreeSet::new();
            if let Some(e) = first {
                self.handle_event(e, &mut dirty);
            }
            while let Ok(e) = self.rx.try_recv() {
                self.handle_event(e, &mut dirty);
            }
            self.expire_stalls(&mut dirty);

            // Pump every touched run: apply asks, collecting the
            // candidates to evaluate.
            let mut dispatch: Vec<(String, Candidate)> = Vec::new();
            for name in &dirty {
                self.pump(name, &mut dispatch);
            }

            // One durability barrier per run with outbound work, then
            // hand the candidates to the workers.
            let mut dead: BTreeSet<String> = BTreeSet::new();
            let names: BTreeSet<String> = dispatch.iter().map(|(n, _)| n.clone()).collect();
            for name in names {
                match self.runs.get_mut(&name) {
                    None => {
                        dead.insert(name);
                    }
                    Some(run) => {
                        if let Err(e) = run.driver.sync_journal() {
                            let reason = e.to_string();
                            self.fail(&name, reason);
                            dead.insert(name);
                        }
                    }
                }
            }
            for (name, c) in dispatch {
                if !dead.contains(&name) {
                    self.dispatch(&name, c);
                }
            }
            event!("server_shard_occupancy", runs = self.runs.len() as u64);
        }
    }

    /// Time until the earliest in-flight stall deadline on this shard.
    fn next_wake(&self) -> Option<Duration> {
        self.runs
            .values()
            .filter_map(|r| {
                let stall = r.stall?;
                r.in_flight
                    .values()
                    .map(|t| stall.saturating_sub(t.elapsed()))
                    .min()
            })
            .min()
    }

    fn handle_event(&mut self, e: Event, dirty: &mut BTreeSet<String>) {
        match e {
            Event::Start { spec, handle } => {
                let name = spec.name.clone();
                match self.admit(*spec, Arc::clone(&handle)) {
                    Ok(run) => {
                        self.runs.insert(name.clone(), run);
                        dirty.insert(name);
                    }
                    Err(reason) => {
                        counter!("server_runs_failed", 1u64);
                        handle.update(|st| {
                            st.phase = Phase::Failed;
                            st.pending = 0;
                            st.error = Some(reason);
                        });
                    }
                }
            }
            Event::Result {
                run,
                id,
                out,
                elapsed,
            } => {
                // The run may be gone (failed, finished after a stall) —
                // stale results are simply dropped.
                let Some(active) = self.runs.get_mut(&run) else {
                    return;
                };
                if active.abandoned.remove(&id) {
                    return;
                }
                active.in_flight.remove(&id);
                let msg = match out {
                    SimOutcome::Ok {
                        evaluation,
                        attempts,
                    } => Told::Evaluated {
                        evaluation,
                        attempts,
                    },
                    SimOutcome::Exhausted { attempts, .. } => Told::Failed { attempts },
                };
                match active.driver.tell_timed(id, msg, elapsed) {
                    Ok(()) => {
                        active.handle.update(|st| st.evals += 1);
                        dirty.insert(run);
                    }
                    Err(e) => {
                        let reason = e.to_string();
                        self.fail(&run, reason);
                    }
                }
            }
        }
    }

    /// Builds the optimizer + journal for a newly routed run.
    fn admit(&self, spec: RunSpec, handle: Arc<RunHandle>) -> Result<ActiveRun, String> {
        let problem = make_problem(&spec.problem, spec.fault)?;
        let mut opts = RunOptions {
            policy: spec.policy.clone(),
            resume: spec.resume,
            ..RunOptions::default()
        };
        if let Some(dir) = &spec.journal {
            let store = match &self.committer {
                Some(gc) => RunStore::open_grouped(dir, Arc::clone(gc)),
                None => RunStore::open(dir),
            };
            opts.store = Some(store.map_err(|e| e.to_string())?);
        }
        let rng = StdRng::seed_from_u64(spec.seed);
        let driver = AskTellMfbo::new(spec.config.clone(), Arc::clone(&problem), rng, &mut opts)
            .map_err(|e| e.to_string())?;
        Ok(ActiveRun {
            driver,
            problem,
            handle,
            batch: spec.config.max_pending,
            stall: spec.stall,
            in_flight: HashMap::new(),
            abandoned: HashSet::new(),
        })
    }

    /// Asks a run for work until it either hands out candidates, waits on
    /// in-flight evaluations, or finishes. An empty ask with nothing in
    /// flight means the core made progress internally (journal replay,
    /// cache hits) — ask again.
    fn pump(&mut self, name: &str, dispatch: &mut Vec<(String, Candidate)>) {
        loop {
            let Some(run) = self.runs.get_mut(name) else {
                return;
            };
            if run.driver.is_finished() {
                self.refresh_status(name);
                self.finalize(name);
                return;
            }
            let cands = match run.driver.ask(run.batch) {
                Ok(c) => c,
                Err(e) => {
                    let reason = e.to_string();
                    self.fail(name, reason);
                    return;
                }
            };
            let issued = !cands.is_empty();
            for c in cands {
                run.in_flight.insert(c.id, Instant::now());
                dispatch.push((name.to_string(), c));
            }
            if issued || !run.in_flight.is_empty() {
                self.refresh_status(name);
                return;
            }
        }
    }

    fn refresh_status(&self, name: &str) {
        let Some(run) = self.runs.get(name) else {
            return;
        };
        let cost = run.driver.cost();
        let pending = run.driver.pending_count();
        let (obs_low, obs_high) = run.driver.observation_counts();
        run.handle.update(|st| {
            st.cost = cost;
            st.pending = pending;
            st.obs_low = obs_low;
            st.obs_high = obs_high;
        });
    }

    /// Fails every candidate past its stall deadline, shard-wide.
    fn expire_stalls(&mut self, dirty: &mut BTreeSet<String>) {
        let mut failures: Vec<(String, String)> = Vec::new();
        for (name, run) in self.runs.iter_mut() {
            let Some(stall) = run.stall else { continue };
            let expired: Vec<u64> = run
                .in_flight
                .iter()
                .filter(|(_, t)| t.elapsed() >= stall)
                .map(|(&id, _)| id)
                .collect();
            for id in expired {
                counter!("server_evals_stalled", 1u64);
                run.in_flight.remove(&id);
                run.abandoned.insert(id);
                match run.driver.tell(id, Told::Failed { attempts: 1 }) {
                    Ok(()) => {
                        run.handle.update(|st| st.stalled += 1);
                        dirty.insert(name.clone());
                    }
                    Err(e) => {
                        failures.push((name.clone(), e.to_string()));
                        break;
                    }
                }
            }
        }
        for (name, reason) in failures {
            self.fail(&name, reason);
            dirty.remove(&name);
        }
    }

    fn dispatch(&self, name: &str, c: Candidate) {
        let Some(run) = self.runs.get(name) else {
            return;
        };
        let problem = Arc::clone(&run.problem);
        let policy = run.driver.policy().clone();
        let tx = self.self_tx.clone();
        let run_name = name.to_string();
        self.pool.submit(move || {
            let t0 = Instant::now();
            let out = robust_evaluate(&*problem, &c.x, c.fidelity, &policy);
            // The shard may be gone on process shutdown — drop the result.
            let _ = tx.send(Event::Result {
                run: run_name,
                id: c.id,
                out,
                elapsed: t0.elapsed(),
            });
        });
    }

    fn finalize(&mut self, name: &str) {
        let Some(run) = self.runs.remove(name) else {
            return;
        };
        match run.driver.finish() {
            Ok(outcome) => {
                counter!("server_runs_done", 1u64);
                run.handle.update(|st| {
                    st.phase = Phase::Done;
                    st.cost = outcome.total_cost;
                    st.pending = 0;
                    st.outcome = Some(Arc::new(outcome));
                });
            }
            Err(e) => {
                counter!("server_runs_failed", 1u64);
                let reason = e.to_string();
                run.handle.update(|st| {
                    st.phase = Phase::Failed;
                    st.pending = 0;
                    st.error = Some(reason);
                });
            }
        }
    }

    fn fail(&mut self, name: &str, reason: String) {
        let Some(run) = self.runs.remove(name) else {
            return;
        };
        counter!("server_runs_failed", 1u64);
        run.handle.update(|st| {
            st.phase = Phase::Failed;
            st.pending = 0;
            st.error = Some(reason);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_routing_is_stable_and_in_range() {
        for shards in [1, 3, 8] {
            for name in ["a", "run-17", "a-much-longer-run-name"] {
                let s = shard_of(name, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(name, shards), "routing must be stable");
            }
        }
    }
}
