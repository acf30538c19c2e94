//! Measurement from outside the program: a timing wrapper around the
//! simulator, the clock that paces calibration slices into a run, and the
//! benchmark's own in-memory spans.

use mfbo::problem::{Evaluation, Fidelity, MultiFidelityProblem};
use mfbo_opt::Bounds;
use mfbo_telemetry::{Kind, Level, Record, Sink, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One simulator call, in microseconds since the run's epoch on its
/// [`Pacer`] clock.
#[derive(Debug, Clone, Copy)]
pub struct Sim {
    pub start_us: f64,
    pub end_us: f64,
    pub high: bool,
    /// The circuit returned its documented non-convergence sentinel.
    pub nonconverged: bool,
}

/// Wraps a problem, times every `evaluate` call on the run's clock and
/// ticks the clock after each.
pub struct Timed<P> {
    inner: P,
    clock: Arc<Pacer>,
    sims: Mutex<Vec<Sim>>,
    /// Called with the start of the first `evaluate` call, in seconds since
    /// the epoch, before the simulator runs.
    first_call: Option<Box<dyn Fn(f64) + Send + Sync>>,
}

impl<P: MultiFidelityProblem> Timed<P> {
    pub fn new(inner: P, clock: Arc<Pacer>) -> Self {
        Timed {
            inner,
            clock,
            sims: Mutex::new(Vec::new()),
            first_call: None,
        }
    }

    pub fn on_first_call(mut self, f: impl Fn(f64) + Send + Sync + 'static) -> Self {
        self.first_call = Some(Box::new(f));
        self
    }

    /// Every call so far, in call order.
    pub fn sims(&self) -> Vec<Sim> {
        self.sims.lock().expect("sim log lock").clone()
    }
}

/// The failure sentinels the circuits document for a non-convergent
/// simulation: the PA reports objective `0.0` with constraints
/// `[100, 100]`, the charge pump `1e3` everywhere.
pub fn is_sentinel(e: &Evaluation) -> bool {
    let all = |v: f64| e.constraints.iter().all(|&c| c == v);
    (e.objective == 0.0 && e.constraints.len() == 2 && all(100.0))
        || (e.objective == 1e3 && e.constraints.len() == 5 && all(1e3))
}

impl<P: MultiFidelityProblem> MultiFidelityProblem for Timed<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn bounds(&self) -> Bounds {
        self.inner.bounds()
    }
    fn num_constraints(&self) -> usize {
        self.inner.num_constraints()
    }
    fn evaluate(&self, x: &[f64], fidelity: Fidelity) -> Evaluation {
        let start_us = self.clock.now_s() * 1e6;
        if let Some(f) = &self.first_call {
            if self.sims.lock().expect("sim log lock").is_empty() {
                f(start_us / 1e6);
            }
        }
        let e = self.inner.evaluate(x, fidelity);
        let end_us = self.clock.now_s() * 1e6;
        self.sims.lock().expect("sim log lock").push(Sim {
            start_us,
            end_us,
            high: fidelity == Fidelity::High,
            nonconverged: is_sentinel(&e),
        });
        self.clock.tick();
        e
    }
    fn cost(&self, fidelity: Fidelity) -> f64 {
        self.inner.cost(fidelity)
    }
}

/// A timed region recorded by the benchmark: `run` > `setup` / `propose` /
/// `evaluate` / `request`. `parent` indexes the enclosing span in the same
/// list; `run` identifies the optimization run (or served rep) it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Free-form qualifier: the fidelity of an `evaluate`, the op of a
    /// `request`.
    pub attr: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub run: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_us.max(spans[p].start_us);
            let hi = s.end_us.min(spans[p].end_us);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut iv)| {
            iv.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (lo, hi) in iv {
                match cur {
                    Some((clo, chi)) if lo <= chi => cur = Some((clo, chi.max(hi))),
                    _ => {
                        if let Some((clo, chi)) = cur {
                            covered += chi - clo;
                        }
                        cur = Some((lo, hi));
                    }
                }
            }
            if let Some((clo, chi)) = cur {
                covered += chi - clo;
            }
            s.dur_us() - covered
        })
        .collect()
}

/// Builds the span tree of one in-process run from its simulator log:
/// a `run` root from 0 to `wall_us`, `setup` up to the first call, one
/// `evaluate` per call and one `propose` per gap between calls.
pub fn run_spans(sims: &[Sim], wall_us: f64, run: u64) -> Vec<Span> {
    let mut spans = vec![Span {
        name: "run",
        attr: "",
        start_us: 0.0,
        end_us: wall_us,
        parent: None,
        run,
    }];
    let child = |name, attr, start_us, end_us| Span {
        name,
        attr,
        start_us,
        end_us,
        parent: Some(0),
        run,
    };
    if let Some(first) = sims.first() {
        spans.push(child("setup", "", 0.0, first.start_us));
    }
    for (i, s) in sims.iter().enumerate() {
        if i > 0 {
            spans.push(child("propose", "", sims[i - 1].end_us, s.start_us));
        }
        let fid = if s.high { "high" } else { "low" };
        spans.push(child("evaluate", fid, s.start_us, s.end_us));
    }
    spans
}

/// Telemetry counters reported per layer, with their metric names; the
/// most frequent first, since the sink looks them up in this order.
pub const COUNTERS: [(&str, &str); 10] = [
    ("predict_batch_points", "gp.predict_batch_points"),
    ("nlml_evals", "gp.nlml_evals"),
    ("kernel_matrix_builds", "gp.kernel_matrix_builds"),
    ("diffbatch_builds", "gp.diffbatch_builds"),
    ("diffbatch_appends", "gp.diffbatch_appends"),
    ("diffbatch_shared_hits", "gp.diffbatch_shared_hits"),
    ("pool_jobs_submitted", "pool.jobs_submitted"),
    ("journal_flushes", "runstore.journal_flushes"),
    ("journal_group_commits", "runstore.group_commits"),
    ("server_requests", "server.requests"),
];

/// The program's own spans whose total time splits a served run by layer,
/// with the layer each belongs to.
pub const SPANS: [(&str, &str); 3] = [
    ("spice_transient", "circuits"),
    ("surrogate_fit", "gp.fit"),
    ("acq_opt", "opt.acq"),
];

/// A telemetry sink that adds up [`COUNTERS`] and the count and duration of
/// [`SPANS`], and drops every other record.
///
/// The workspace's `MetricsRegistry` would give the same numbers, but it
/// folds every record under one mutex and allocates a key string per
/// record. A `pa-mfbo` repetition emits about 800 000 counter records,
/// nearly all `predict_batch_points`, and with the registry a traced run
/// took 1.17x its untraced time. Every run is `Serial`, so the records come
/// from one thread at a time and one atomic per counter does not contend.
#[derive(Default)]
pub struct Counts {
    counters: [AtomicU64; COUNTERS.len()],
    span_calls: [AtomicU64; SPANS.len()],
    span_us: [AtomicU64; SPANS.len()],
}

impl Counts {
    /// `(metric name, total)` for every counter.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        COUNTERS
            .iter()
            .zip(&self.counters)
            .map(|(&(_, metric), n)| (metric, n.load(Ordering::Relaxed)))
    }

    /// `(layer, calls, total seconds)` for every span.
    pub fn spans(&self) -> impl Iterator<Item = (&'static str, u64, f64)> + '_ {
        SPANS.iter().enumerate().map(|(i, &(_, layer))| {
            let us = self.span_us[i].load(Ordering::Relaxed);
            (
                layer,
                self.span_calls[i].load(Ordering::Relaxed),
                us as f64 / 1e6,
            )
        })
    }
}

impl Sink for Counts {
    fn max_level(&self) -> Level {
        Level::Debug
    }

    fn record(&self, rec: &Record) {
        let as_u64 = |v: Option<&Value>| match v {
            Some(Value::U64(u)) => *u,
            Some(Value::I64(i)) => (*i).max(0) as u64,
            Some(Value::F64(f)) => *f as u64,
            _ => 1,
        };
        match rec.kind {
            Kind::Counter => {
                if let Some(i) = COUNTERS.iter().position(|c| c.0 == rec.name) {
                    self.counters[i].fetch_add(as_u64(rec.field("value")), Ordering::Relaxed);
                }
            }
            Kind::SpanEnd => {
                if let Some(i) = SPANS.iter().position(|s| s.0 == rec.name) {
                    self.span_calls[i].fetch_add(1, Ordering::Relaxed);
                    self.span_us[i].fetch_add(as_u64(rec.field("dur_us")), Ordering::Relaxed);
                }
            }
            Kind::Event | Kind::SpanStart => {}
        }
    }
}

/// What one unit of [`calibrate`] takes on the reference host when it is
/// quiet: the speed that `run_wall_ref_s` rescales every run to.
pub const CALIBRATION_REF_S: f64 = 1.67e-4;

/// The share of a paced run's time spent in calibration slices.
const DUTY: f64 = 0.05;

/// A paced run takes no slice sooner than this after the last one.
const MIN_GAP: Duration = Duration::from_millis(5);

/// A run's clock. It starts at the run's epoch; when pacing, every
/// [`tick`](Pacer::tick) that comes at least [`MIN_GAP`] after the last
/// slice times a calibration slice sized to [`DUTY`] of that gap, on the
/// ticking thread, and the clock leaves the slices out. So the slices
/// sample the host's speed all through the run, on the thread doing the
/// run's work, without the run's own times counting them.
///
/// The ticks come from [`Timed`] after every simulator call and, as the
/// global telemetry sink, from the end of every surrogate fit and
/// acquisition: the optimizer's own thread, in-process or in the server's
/// shard.
pub struct Pacer {
    epoch: Instant,
    pacing: bool,
    state: Mutex<Slices>,
}

#[derive(Clone, Copy)]
struct Slices {
    /// Seconds spent in slices so far.
    secs: f64,
    /// Calibration units timed so far.
    units: u64,
    last_end: Instant,
}

impl Pacer {
    /// A clock from now; `pacing` decides whether ticks take slices.
    pub fn new(pacing: bool) -> Arc<Pacer> {
        let epoch = Instant::now();
        Arc::new(Pacer {
            epoch,
            pacing,
            state: Mutex::new(Slices {
                secs: 0.0,
                units: 0,
                last_end: epoch,
            }),
        })
    }

    /// Seconds since the epoch, slices left out. Waits for a slice under
    /// way on another thread.
    pub fn now_s(&self) -> f64 {
        let s = self.state.lock().expect("pacer lock");
        self.epoch.elapsed().as_secs_f64() - s.secs
    }

    /// Takes a slice if pacing and [`MIN_GAP`] has passed since the last.
    pub fn tick(&self) {
        if !self.pacing {
            return;
        }
        let mut s = self.state.lock().expect("pacer lock");
        let gap = s.last_end.elapsed();
        if gap < MIN_GAP {
            return;
        }
        let units = ((gap.as_secs_f64() * DUTY / CALIBRATION_REF_S).round() as u64).max(1);
        s.secs += calibrate(units);
        s.units += units;
        s.last_end = Instant::now();
    }

    /// `(seconds, units)` of every slice so far; a pacing clock that took
    /// none takes one now, so that a paced run always has its speed.
    pub fn slices(&self) -> (f64, u64) {
        let mut s = self.state.lock().expect("pacer lock");
        if self.pacing && s.units == 0 {
            s.secs += calibrate(1);
            s.units = 1;
        }
        (s.secs, s.units)
    }
}

impl Sink for Pacer {
    fn max_level(&self) -> Level {
        Level::Info
    }

    fn record(&self, rec: &Record) {
        if rec.kind == Kind::SpanEnd && matches!(rec.name, "surrogate_fit" | "acq_opt") {
            self.tick();
        }
    }
}

/// Times `units` runs of a fixed kernel of the benchmark's own and returns
/// the wall time in seconds. One unit is a Cholesky factorization of a
/// 96x96 squared-exponential Gram matrix, the dense floating-point work the
/// program's GP fits and MNA solves also do. It calls nothing in the
/// program, so a change to the program cannot move it; only the host's
/// speed does.
pub fn calibrate(units: u64) -> f64 {
    const N: usize = 96;
    let start = Instant::now();
    let mut a = vec![0.0f64; N * N];
    let mut trace = 0.0;
    for rep in 0..units {
        for i in 0..N {
            for j in 0..N {
                let d = (i as f64 - j as f64) / N as f64;
                let jitter = if i == j {
                    1e-3 + rep as f64 * 1e-9
                } else {
                    0.0
                };
                a[i * N + j] = (-4.0 * d * d).exp() + jitter;
            }
        }
        for j in 0..N {
            let (row_j, below) = a[j * N..].split_at_mut(N);
            let pivot = (row_j[j] - row_j[..j].iter().map(|v| v * v).sum::<f64>()).sqrt();
            row_j[j] = pivot;
            for row_i in below.chunks_exact_mut(N) {
                let dot: f64 = row_i[..j].iter().zip(&row_j[..j]).map(|(x, y)| x * y).sum();
                row_i[j] = (row_i[j] - dot) / pivot;
            }
        }
        trace += a[N * N - 1];
    }
    std::hint::black_box(trace);
    start.elapsed().as_secs_f64()
}

/// Peak resident set size of this process in MB (`VmHWM`), if the
/// platform exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            attr: "",
            start_us,
            end_us,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // run [0,100] > a [10,30], b [20,50] (overlapping a), c [60,70];
        // a > a1 [12,18]. Grandchildren do not count against the root.
        let spans = vec![
            span("run", 0.0, 100.0, None),
            span("a", 10.0, 30.0, Some(0)),
            span("b", 20.0, 50.0, Some(0)),
            span("c", 60.0, 70.0, Some(0)),
            span("a1", 12.0, 18.0, Some(1)),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![100.0 - 40.0 - 10.0, 20.0 - 6.0, 30.0, 10.0, 6.0]);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = vec![
            span("run", 0.0, 10.0, None),
            span("late", 8.0, 15.0, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![8.0, 7.0]);
    }

    #[test]
    fn run_spans_partition_the_wall_clock() {
        let sims = [
            Sim {
                start_us: 5.0,
                end_us: 9.0,
                high: false,
                nonconverged: false,
            },
            Sim {
                start_us: 12.0,
                end_us: 20.0,
                high: true,
                nonconverged: false,
            },
        ];
        let spans = run_spans(&sims, 25.0, 3);
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.attr)).collect();
        assert_eq!(
            names,
            vec![
                ("run", ""),
                ("setup", ""),
                ("evaluate", "low"),
                ("propose", ""),
                ("evaluate", "high")
            ]
        );
        let st = self_times(&spans);
        // Root self time is only the tail after the last simulation.
        assert_eq!(st[0], 5.0);
        assert!((st.iter().sum::<f64>() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn pacer_clock_leaves_its_slices_out() {
        let clock = Pacer::new(true);
        std::thread::sleep(Duration::from_millis(40));
        clock.tick();
        let (secs, units) = clock.slices();
        assert!(units >= 1 && secs > 0.0);
        let now = clock.now_s();
        let real = clock.epoch.elapsed().as_secs_f64();
        assert!(now <= real - secs && now > real - secs - 0.01);
        // Too soon after the last slice: no new one.
        clock.tick();
        assert_eq!(clock.slices().1, units);

        let plain = Pacer::new(false);
        std::thread::sleep(MIN_GAP * 2);
        plain.tick();
        assert_eq!(plain.slices(), (0.0, 0));
    }

    #[test]
    fn sentinels_match_the_documented_failure_values() {
        let pa_fail = Evaluation {
            objective: 0.0,
            constraints: vec![100.0, 100.0],
        };
        let cp_fail = Evaluation {
            objective: 1e3,
            constraints: vec![1e3; 5],
        };
        assert!(is_sentinel(&pa_fail));
        assert!(is_sentinel(&cp_fail));
        let ok = Evaluation {
            objective: -40.0,
            constraints: vec![-1.0, -2.0],
        };
        assert!(!is_sentinel(&ok));
    }
}
