//! Deterministic scoped-thread work pool for the MFBO hot paths.
//!
//! The optimization loop of the paper spends nearly all of its wall-clock
//! time in embarrassingly parallel stages: MSP acquisition restarts (§4.1),
//! the per-output surrogate fits of a bundle, and multi-restart NLML
//! hyperparameter training (§2.3). This crate provides the one primitive
//! those stages share: an order-preserving parallel map over independent
//! work items, built on [`std::thread::scope`] so it needs no external
//! dependencies and no long-lived worker state. The Monte-Carlo
//! integration of the NARGP posterior (§3.2, eq. 10) runs serially inside
//! each acquisition start, which the pool already distributes.
//!
//! # Determinism contract
//!
//! For any fixed inputs, [`par_map`] / [`par_map_indexed`] return
//! **bit-identical** results under [`Parallelism::Serial`] and
//! [`Parallelism::Threads`]`(n)` for every `n`:
//!
//! * Work items are pure functions of their index; they never share
//!   mutable state. Callers that need randomness draw it from their own RNG
//!   serially before the map (plan first, then run in parallel), so no
//!   random stream ever depends on the thread count.
//! * Results are collected **by item index**, not by completion order, so
//!   any reduction the caller performs over the returned `Vec` visits items
//!   in the same order a serial loop would.
//!
//! Nested calls run serially: a `par_map` issued from inside a pool worker
//! falls back to an inline loop (same results, no thread explosion), so
//! callers can parallelize at every layer and let the outermost call win.
//!
//! # Telemetry
//!
//! Each parallel dispatch emits a `Debug`-level `pool` span with the worker
//! count, a `pool` event with queue statistics (items, workers, and the
//! most/least items any worker pulled from the shared queue), and a
//! `pool_items` counter — all from the *calling* thread after the join, so
//! thread-scoped sinks (e.g. `CollectSink` in tests) observe them.

#![deny(missing_docs)]

pub mod service;
pub use service::WorkerPool;

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// How a parallel map distributes its work items.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Run every item inline on the calling thread (the default).
    #[default]
    Serial,
    /// Use up to `n` worker threads (clamped to at least 1 and to the item
    /// count). `Threads(1)` is equivalent to `Serial`.
    Threads(usize),
    /// Use the `MFBO_THREADS` environment variable if set to a positive
    /// integer, otherwise [`std::thread::available_parallelism`].
    Auto,
}

impl Parallelism {
    /// Resolves the worker count this configuration implies.
    pub fn workers(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => std::env::var("MFBO_THREADS")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                }),
        }
    }

    /// Parses a CLI-style thread spec: `"auto"` or `"0"` →
    /// [`Parallelism::Auto`], `"1"` → [`Parallelism::Serial`], `N` →
    /// [`Parallelism::Threads`]`(N)`.
    pub fn parse(s: &str) -> Option<Parallelism> {
        match s.trim() {
            "auto" | "0" => Some(Parallelism::Auto),
            other => match other.parse::<usize>() {
                Ok(1) => Some(Parallelism::Serial),
                Ok(n) if n > 1 => Some(Parallelism::Threads(n)),
                _ => None,
            },
        }
    }
}

thread_local! {
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is a pool worker. Parallel maps issued from a
/// worker run serially to avoid nested thread explosions.
pub fn in_worker() -> bool {
    IN_POOL_WORKER.with(|c| c.get())
}

/// Maps `f` over `0..n`, returning results in index order.
///
/// This is the core primitive: it distributes indices to `workers` scoped
/// threads through a shared atomic queue, then reassembles results by index
/// so the output is independent of scheduling. Falls back to an inline
/// serial loop when the resolved worker count is 1, when `n <= 1`, or when
/// called from inside a pool worker.
///
/// # Panics
///
/// If `f` panics for some index, the panic is propagated to the caller
/// after all workers have stopped (remaining queue items are abandoned).
pub fn par_map_indexed<T, F>(par: Parallelism, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = par.workers().min(n.max(1));
    if workers <= 1 || n <= 1 || in_worker() {
        return (0..n).map(f).collect();
    }

    let _span = mfbo_telemetry::debug_span!("pool", items = n, workers = workers);
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let mut per_worker: Vec<u64> = Vec::with_capacity(workers);
    let mut panic_payload: Option<Box<dyn std::any::Any + Send>> = None;

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let f = &f;
                let next = &next;
                let abort = &abort;
                scope.spawn(move || {
                    IN_POOL_WORKER.with(|c| c.set(true));
                    let mut local: Vec<(usize, T)> = Vec::new();
                    let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
                    loop {
                        if abort.load(Ordering::Relaxed) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        match catch_unwind(AssertUnwindSafe(|| f(i))) {
                            Ok(v) => local.push((i, v)),
                            Err(p) => {
                                abort.store(true, Ordering::Relaxed);
                                panic = Some(p);
                                break;
                            }
                        }
                    }
                    (local, panic)
                })
            })
            .collect();
        for handle in handles {
            // Scoped threads only return Err on panic, and worker panics are
            // caught above; treat a join failure like a worker panic anyway.
            match handle.join() {
                Ok((local, panic)) => {
                    per_worker.push(local.len() as u64);
                    for (i, v) in local {
                        slots[i] = Some(v);
                    }
                    if panic_payload.is_none() {
                        panic_payload = panic;
                    }
                }
                Err(p) => {
                    if panic_payload.is_none() {
                        panic_payload = Some(p);
                    }
                }
            }
        }
    });

    if let Some(p) = panic_payload {
        resume_unwind(p);
    }

    mfbo_telemetry::debug_event!(
        "pool",
        items = n,
        workers = workers,
        max_per_worker = per_worker.iter().copied().max().unwrap_or(0),
        min_per_worker = per_worker.iter().copied().min().unwrap_or(0),
    );
    mfbo_telemetry::counter!("pool_items", n as u64);

    slots
        .into_iter()
        .map(|s| s.expect("pool worker completed every claimed item"))
        .collect()
}

/// Maps `f` over `items`, returning results in item order.
///
/// See [`par_map_indexed`] for the determinism and panic contract.
pub fn par_map<I, T, F>(par: Parallelism, items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    par_map_indexed(par, items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfbo_telemetry::sinks::CollectSink;
    use std::sync::Arc;

    #[test]
    fn preserves_index_order() {
        for par in [
            Parallelism::Serial,
            Parallelism::Threads(2),
            Parallelism::Threads(5),
        ] {
            let out = par_map_indexed(par, 100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_input_returns_empty() {
        let out: Vec<usize> = par_map_indexed(Parallelism::Threads(4), 0, |i| i);
        assert!(out.is_empty());
        let items: [u8; 0] = [];
        let out: Vec<u8> = par_map(Parallelism::Threads(4), &items, |&b| b);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs_inline() {
        let out = par_map_indexed(Parallelism::Threads(8), 1, |i| {
            assert!(!in_worker());
            i + 41
        });
        assert_eq!(out, vec![41]);
    }

    #[test]
    fn threads_one_is_serial() {
        let main_thread = std::thread::current().id();
        let out = par_map_indexed(Parallelism::Threads(1), 10, |i| {
            assert_eq!(std::thread::current().id(), main_thread);
            i
        });
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn nested_calls_fall_back_to_serial() {
        let out = par_map_indexed(Parallelism::Threads(3), 6, |i| {
            assert!(in_worker());
            let inner = par_map_indexed(Parallelism::Threads(3), 4, |j| {
                assert!(in_worker());
                i * 10 + j
            });
            inner.iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..6).map(|i| (0..4).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn worker_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            par_map_indexed(Parallelism::Threads(3), 16, |i| {
                if i == 7 {
                    panic!("boom at {i}");
                }
                i
            })
        });
        let payload = r.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("boom"), "payload = {msg:?}");
    }

    #[test]
    fn auto_honors_mfbo_threads_env() {
        // This is the only test in this binary that touches the variable.
        std::env::set_var("MFBO_THREADS", "3");
        assert_eq!(Parallelism::Auto.workers(), 3);
        std::env::set_var("MFBO_THREADS", "not-a-number");
        let fallback = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(Parallelism::Auto.workers(), fallback);
        std::env::remove_var("MFBO_THREADS");
        assert_eq!(Parallelism::Auto.workers(), fallback);
    }

    #[test]
    fn parse_accepts_cli_specs() {
        assert_eq!(Parallelism::parse("auto"), Some(Parallelism::Auto));
        assert_eq!(Parallelism::parse("0"), Some(Parallelism::Auto));
        assert_eq!(Parallelism::parse("1"), Some(Parallelism::Serial));
        assert_eq!(Parallelism::parse("4"), Some(Parallelism::Threads(4)));
        assert_eq!(Parallelism::parse("nope"), None);
        assert_eq!(Parallelism::parse("-2"), None);
    }

    #[test]
    fn workers_clamps_to_at_least_one() {
        assert_eq!(Parallelism::Serial.workers(), 1);
        assert_eq!(Parallelism::Threads(0).workers(), 1);
        assert_eq!(Parallelism::Threads(6).workers(), 6);
    }

    #[test]
    fn emits_pool_telemetry_through_collect_sink() {
        let sink = Arc::new(CollectSink::with_level(mfbo_telemetry::Level::Debug));
        let guard = mfbo_telemetry::scoped_sink(sink.clone());
        let out = par_map_indexed(Parallelism::Threads(2), 9, |i| i);
        drop(guard);
        assert_eq!(out.len(), 9);

        let events: Vec<_> = sink
            .named("pool")
            .into_iter()
            .filter(|r| r.kind == mfbo_telemetry::Kind::Event)
            .collect();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].field("items"),
            Some(&mfbo_telemetry::Value::U64(9))
        );
        assert_eq!(
            events[0].field("workers"),
            Some(&mfbo_telemetry::Value::U64(2))
        );

        let counters: Vec<_> = sink
            .records()
            .into_iter()
            .filter(|r| r.kind == mfbo_telemetry::Kind::Counter && r.name == "pool_items")
            .collect();
        assert_eq!(counters.len(), 1);
        assert_eq!(
            counters[0].field("value"),
            Some(&mfbo_telemetry::Value::U64(9))
        );

        // Serial dispatches stay silent: no span, no event, no counter.
        let sink2 = Arc::new(CollectSink::with_level(mfbo_telemetry::Level::Debug));
        let guard = mfbo_telemetry::scoped_sink(sink2.clone());
        let _ = par_map_indexed(Parallelism::Serial, 9, |i| i);
        drop(guard);
        assert!(sink2.named("pool").is_empty());
    }
}
