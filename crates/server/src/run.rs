//! What the server knows about one served run: the [`RunSpec`] parsed
//! from its `start` request, and the [`RunHandle`] through which the
//! registry and client connections observe its [`Status`] while the shard
//! scheduler (`shard.rs`) drives it.

use crate::problems::FaultSpec;
use mfbo::{EvalPolicy, MfBoConfig, Outcome};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Everything needed to start a run, parsed from a `start` request.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Client-chosen run name (registry key).
    pub name: String,
    /// Built-in problem name (see [`crate::problems::make_problem`]).
    pub problem: String,
    /// Optional deterministic fault injection on the problem.
    pub fault: Option<FaultSpec>,
    /// RNG seed.
    pub seed: u64,
    /// Optimizer configuration (budget, initial designs, batch width…).
    pub config: MfBoConfig,
    /// Fault-tolerance policy applied to told failures and retries.
    pub policy: EvalPolicy,
    /// Write-ahead journal directory; `None` = in-memory run.
    pub journal: Option<PathBuf>,
    /// Resume from the journal instead of starting fresh.
    pub resume: bool,
    /// Worker deadline: a candidate unanswered for this long is told as
    /// failed and its eventual result discarded. `None` = wait forever.
    pub stall: Option<Duration>,
}

/// Lifecycle of a served run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The scheduler is driving the optimizer.
    Running,
    /// Finished successfully; the outcome summary is available.
    Done,
    /// Aborted with an error.
    Failed,
}

/// Point-in-time view of a run, readable while its shard drives it.
#[derive(Debug, Clone)]
pub struct Status {
    /// Where the run is in its lifecycle.
    pub phase: Phase,
    /// Committed cost so far (equivalent high-fidelity simulations).
    pub cost: f64,
    /// Committed evaluations so far.
    pub evals: u64,
    /// Candidates in flight.
    pub pending: usize,
    /// Evaluations told as failed after a stall deadline.
    pub stalled: u64,
    /// Low-fidelity observations committed to the surrogate so far.
    pub obs_low: usize,
    /// High-fidelity observations committed to the surrogate so far.
    pub obs_high: usize,
    /// Final outcome (set once `phase == Done`).
    pub outcome: Option<Arc<Outcome>>,
    /// Failure reason (set once `phase == Failed`).
    pub error: Option<String>,
}

/// A parked observer fired exactly once with the terminal status — how
/// `wait` connections sleep without holding a thread.
pub type TerminalWaiter = Box<dyn FnOnce(&Status) + Send>;

/// Shared handle the registry and client connections observe a run through.
pub struct RunHandle {
    status: Mutex<Status>,
    cv: Condvar,
    waiters: Mutex<Vec<TerminalWaiter>>,
}

impl RunHandle {
    pub(crate) fn new() -> RunHandle {
        RunHandle {
            status: Mutex::new(Status {
                phase: Phase::Running,
                cost: 0.0,
                evals: 0,
                pending: 0,
                stalled: 0,
                obs_low: 0,
                obs_high: 0,
                outcome: None,
                error: None,
            }),
            cv: Condvar::new(),
            waiters: Mutex::new(Vec::new()),
        }
    }

    /// Current status snapshot.
    pub fn snapshot(&self) -> Status {
        self.status.lock().expect("run status lock").clone()
    }

    /// Blocks until the run leaves [`Phase::Running`], then returns the
    /// terminal status.
    pub fn wait(&self) -> Status {
        let mut st = self.status.lock().expect("run status lock");
        while st.phase == Phase::Running {
            st = self.cv.wait(st).expect("run status lock");
        }
        st.clone()
    }

    /// Runs `f` with the terminal status: immediately if the run already
    /// finished, otherwise later on the thread that finishes it. The
    /// registration happens under the status lock, so a concurrent
    /// terminal transition cannot slip between the check and the park.
    pub fn on_terminal(&self, f: TerminalWaiter) {
        let snapshot = {
            let st = self.status.lock().expect("run status lock");
            if st.phase == Phase::Running {
                self.waiters.lock().expect("run waiters lock").push(f);
                return;
            }
            st.clone()
        };
        f(&snapshot);
    }

    pub(crate) fn update(&self, f: impl FnOnce(&mut Status)) {
        let fired = {
            let mut st = self.status.lock().expect("run status lock");
            f(&mut st);
            self.cv.notify_all();
            if st.phase == Phase::Running {
                None
            } else {
                let drained = std::mem::take(&mut *self.waiters.lock().expect("run waiters lock"));
                Some((st.clone(), drained))
            }
        };
        // Waiter callbacks (reply writes, connection re-queues) run outside
        // both locks.
        if let Some((st, waiters)) = fired {
            for w in waiters {
                w(&st);
            }
        }
    }
}
