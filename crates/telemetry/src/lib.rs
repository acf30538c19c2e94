//! Structured tracing, metrics, and profiling hooks for the MFBO loop.
//!
//! The optimizer crates emit *records* — typed events, RAII span timings, and
//! counters — through a process-global (or thread-scoped) [`Sink`]. Sinks
//! decide presentation: [`sinks::PrettySink`] renders an indented human
//! trace, [`sinks::JsonlSink`] writes one JSON object per line for machine
//! consumption, [`sinks::CollectSink`] buffers records for tests, and
//! [`sinks::NullSink`] discards everything.
//!
//! Overhead discipline: when no sink is installed, the emit macros reduce to
//! one relaxed atomic load plus one thread-local flag read — no field values
//! are constructed, no allocation happens. Instrumented hot paths are
//! therefore safe to leave enabled in release builds (see
//! `crates/bench/benches/micro.rs` for the overhead benchmark).
//!
//! ```
//! use mfbo_telemetry::{self as telemetry, event, span, sinks::CollectSink};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(CollectSink::new());
//! let _guard = telemetry::scoped_sink(sink.clone());
//! {
//!     let _span = span!("surrogate_fit", n_low = 40usize);
//!     event!("fidelity_decision", iteration = 3usize, chose_high = false);
//! }
//! assert_eq!(sink.records().len(), 3); // span start + event + span end
//! ```

#![deny(missing_docs)]

pub mod json;
pub mod metrics;
pub mod sinks;
pub mod summary;

pub use summary::{FidelityDecision, RunTelemetry, StageStats};

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// Severity / verbosity tier of a record. Lower is more important.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Per-iteration decisions and run milestones — the default tier.
    Info = 0,
    /// Solver internals: GP fits, acquisition optimizer stats, jitter retries.
    Debug = 1,
    /// High-volume detail (per-start optimizer traces).
    Trace = 2,
}

impl Level {
    /// Short lowercase name (`"info"`, `"debug"`, `"trace"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parses the names produced by [`Level::as_str`]; used by CLI flags.
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }
}

/// What a record represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A point-in-time typed event.
    Event,
    /// Entry into a timed region.
    SpanStart,
    /// Exit from a timed region (carries `dur_us`).
    SpanEnd,
    /// A monotonic counter increment.
    Counter,
}

impl Kind {
    /// Short lowercase name used in serialized output.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Event => "event",
            Kind::SpanStart => "span_start",
            Kind::SpanEnd => "span_end",
            Kind::Counter => "counter",
        }
    }
}

/// A typed field value attached to a record.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Signed integer.
    I64(i64),
    /// Unsigned integer.
    U64(u64),
    /// Floating point.
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Text.
    Str(String),
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::I64(v as i64)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// One emitted telemetry record.
#[derive(Debug, Clone)]
pub struct Record {
    /// Microseconds since the process telemetry epoch.
    pub t_us: u64,
    /// Verbosity tier.
    pub level: Level,
    /// Record kind.
    pub kind: Kind,
    /// Event / span / counter name (static, dot-free snake_case).
    pub name: &'static str,
    /// Span nesting depth at emission time (0 = top level).
    pub depth: usize,
    /// Typed key–value payload.
    pub fields: Vec<(&'static str, Value)>,
}

impl Record {
    /// Returns the value of field `key`, if present.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// Receives emitted records. Implementations must be cheap and non-blocking;
/// they run inline on the optimizer thread.
pub trait Sink: Send + Sync {
    /// Most verbose level this sink wants. Records above it are filtered
    /// before field construction.
    fn max_level(&self) -> Level {
        Level::Info
    }

    /// Consumes one record.
    fn record(&self, rec: &Record);

    /// Flushes buffered output (called by guards on teardown).
    fn flush(&self) {}
}

static GLOBAL_ON: AtomicBool = AtomicBool::new(false);
static GLOBAL_MAX_LEVEL: AtomicU8 = AtomicU8::new(0);
static GLOBAL_SINK: RwLock<Option<Arc<dyn Sink>>> = RwLock::new(None);

thread_local! {
    static SCOPED_ON: Cell<bool> = const { Cell::new(false) };
    static SCOPED_MAX_LEVEL: Cell<u8> = const { Cell::new(0) };
    static SCOPED_SINKS: std::cell::RefCell<Vec<Arc<dyn Sink>>> =
        const { std::cell::RefCell::new(Vec::new()) };
    static SPAN_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// The process telemetry epoch: a monotonic instant paired with the
/// wall-clock time (UNIX-epoch microseconds) read once at the same moment.
///
/// Every timestamp and duration in the record stream is derived from the
/// monotonic half, so span timings survive NTP step adjustments; the
/// wall-clock half exists only to *annotate* serialized records (the
/// `wall_us` key added by [`json::record_to_json`]) for correlation with
/// external logs.
fn epoch() -> &'static (Instant, u64) {
    static EPOCH: OnceLock<(Instant, u64)> = OnceLock::new();
    EPOCH.get_or_init(|| {
        let wall = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        (Instant::now(), wall)
    })
}

/// Microseconds since the first telemetry call in this process (monotonic).
fn now_us() -> u64 {
    epoch().0.elapsed().as_micros() as u64
}

/// Wall-clock time of the telemetry epoch, in UNIX-epoch microseconds.
///
/// `wall_epoch_us() + record.t_us` approximates the wall-clock time of a
/// record; it is an annotation only and never feeds duration arithmetic.
pub fn wall_epoch_us() -> u64 {
    epoch().1
}

/// Fast check: is any sink interested in records at `level`? The emit macros
/// call this before constructing fields, so the disabled path costs one
/// atomic load and one TLS read.
#[inline]
pub fn enabled(level: Level) -> bool {
    (GLOBAL_ON.load(Ordering::Relaxed) && level as u8 <= GLOBAL_MAX_LEVEL.load(Ordering::Relaxed))
        || (SCOPED_ON.with(|c| c.get()) && level as u8 <= SCOPED_MAX_LEVEL.with(|c| c.get()))
}

/// Installs `sink` as the process-global sink (replacing any previous one).
pub fn set_global_sink(sink: Arc<dyn Sink>) {
    let level = sink.max_level();
    *GLOBAL_SINK.write().expect("telemetry sink lock") = Some(sink);
    GLOBAL_MAX_LEVEL.store(level as u8, Ordering::Relaxed);
    GLOBAL_ON.store(true, Ordering::Relaxed);
}

/// Removes the process-global sink, flushing it first.
pub fn clear_global_sink() {
    GLOBAL_ON.store(false, Ordering::Relaxed);
    let prev = GLOBAL_SINK.write().expect("telemetry sink lock").take();
    if let Some(s) = prev {
        s.flush();
    }
}

/// Guard returned by [`scoped_sink`]; uninstalls the sink on drop.
pub struct ScopedSinkGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Installs `sink` for the current thread until the returned guard drops.
/// Scoped sinks stack; records go to the innermost one. Used by tests and by
/// bench harnesses that want isolated traces per run.
pub fn scoped_sink(sink: Arc<dyn Sink>) -> ScopedSinkGuard {
    let level = sink.max_level();
    SCOPED_SINKS.with(|s| s.borrow_mut().push(sink));
    SCOPED_MAX_LEVEL.with(|c| c.set(level as u8));
    SCOPED_ON.with(|c| c.set(true));
    ScopedSinkGuard {
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for ScopedSinkGuard {
    fn drop(&mut self) {
        let remaining = SCOPED_SINKS.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(top) = stack.pop() {
                top.flush();
            }
            stack.last().map(|s| s.max_level())
        });
        match remaining {
            Some(level) => SCOPED_MAX_LEVEL.with(|c| c.set(level as u8)),
            None => SCOPED_ON.with(|c| c.set(false)),
        }
    }
}

/// Emits one record to whichever sinks are interested. Callers should gate on
/// [`enabled`] first (the macros do); this function re-checks per sink.
pub fn emit(level: Level, kind: Kind, name: &'static str, fields: Vec<(&'static str, Value)>) {
    let rec = Record {
        t_us: now_us(),
        level,
        kind,
        name,
        depth: SPAN_DEPTH.with(|d| d.get()),
        fields,
    };
    if SCOPED_ON.with(|c| c.get()) {
        SCOPED_SINKS.with(|s| {
            if let Some(sink) = s.borrow().last() {
                if level <= sink.max_level() {
                    sink.record(&rec);
                }
            }
        });
    }
    if GLOBAL_ON.load(Ordering::Relaxed) && level as u8 <= GLOBAL_MAX_LEVEL.load(Ordering::Relaxed)
    {
        if let Some(sink) = GLOBAL_SINK.read().expect("telemetry sink lock").as_ref() {
            sink.record(&rec);
        }
    }
}

/// RAII timed region. Construct through the [`span!`] / [`debug_span!`]
/// macros; emits `SpanStart` on entry and `SpanEnd` (with `dur_us`) on drop.
pub struct Span {
    name: &'static str,
    level: Level,
    start: Instant,
    active: bool,
}

impl Span {
    /// Enters a span. `fields` is only invoked when a sink is listening.
    pub fn enter<F>(level: Level, name: &'static str, fields: F) -> Span
    where
        F: FnOnce() -> Vec<(&'static str, Value)>,
    {
        let active = enabled(level);
        if active {
            emit(level, Kind::SpanStart, name, fields());
            SPAN_DEPTH.with(|d| d.set(d.get() + 1));
        }
        Span {
            name,
            level,
            start: Instant::now(),
            active,
        }
    }

    /// Wall-clock time since the span was entered.
    pub fn elapsed(&self) -> std::time::Duration {
        self.start.elapsed()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.active {
            SPAN_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
            let dur = self.start.elapsed().as_micros() as u64;
            emit(
                self.level,
                Kind::SpanEnd,
                self.name,
                vec![("dur_us", Value::U64(dur))],
            );
        }
    }
}

/// Emits an [`Level::Info`] event: `event!("name", key = value, ...)`.
#[macro_export]
macro_rules! event {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::enabled($crate::Level::Info) {
            $crate::emit($crate::Level::Info, $crate::Kind::Event, $name,
                vec![$((stringify!($k), $crate::Value::from($v))),*]);
        }
    };
}

/// Emits a [`Level::Debug`] event.
#[macro_export]
macro_rules! debug_event {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::enabled($crate::Level::Debug) {
            $crate::emit($crate::Level::Debug, $crate::Kind::Event, $name,
                vec![$((stringify!($k), $crate::Value::from($v))),*]);
        }
    };
}

/// Emits a [`Level::Trace`] event.
#[macro_export]
macro_rules! trace_event {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::enabled($crate::Level::Trace) {
            $crate::emit($crate::Level::Trace, $crate::Kind::Event, $name,
                vec![$((stringify!($k), $crate::Value::from($v))),*]);
        }
    };
}

/// Opens an [`Level::Info`] RAII span; bind it: `let _span = span!("fit");`.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        $crate::Span::enter($crate::Level::Info, $name,
            || vec![$((stringify!($k), $crate::Value::from($v))),*])
    };
}

/// Opens a [`Level::Debug`] RAII span.
#[macro_export]
macro_rules! debug_span {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        $crate::Span::enter($crate::Level::Debug, $name,
            || vec![$((stringify!($k), $crate::Value::from($v))),*])
    };
}

/// Emits a counter increment: `counter!("nlml_evals", 12)`.
#[macro_export]
macro_rules! counter {
    ($name:expr, $v:expr) => {
        if $crate::enabled($crate::Level::Debug) {
            $crate::emit(
                $crate::Level::Debug,
                $crate::Kind::Counter,
                $name,
                vec![("value", $crate::Value::from($v))],
            );
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sinks::CollectSink;

    #[test]
    fn disabled_by_default_on_fresh_thread() {
        std::thread::spawn(|| {
            assert!(!SCOPED_ON.with(|c| c.get()));
        })
        .join()
        .expect("thread");
    }

    #[test]
    fn scoped_sink_receives_events_in_order() {
        let sink = Arc::new(CollectSink::new());
        {
            let _g = scoped_sink(sink.clone());
            event!("alpha", i = 1usize);
            event!("beta", x = 2.5f64, ok = true);
        }
        let recs = sink.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].name, "alpha");
        assert_eq!(recs[1].name, "beta");
        assert!(recs[0].t_us <= recs[1].t_us);
        assert_eq!(recs[1].field("x"), Some(&Value::F64(2.5)));
        assert_eq!(recs[1].field("ok"), Some(&Value::Bool(true)));
        // Guard dropped: nothing further is recorded.
        event!("gamma");
        assert_eq!(sink.records().len(), 2);
    }

    #[test]
    fn span_nesting_tracks_depth_and_duration() {
        let sink = Arc::new(CollectSink::with_level(Level::Debug));
        {
            let _g = scoped_sink(sink.clone());
            let _outer = span!("outer");
            {
                let _inner = debug_span!("inner", n = 3usize);
                event!("mid");
            }
        }
        let recs = sink.records();
        let names: Vec<_> = recs.iter().map(|r| (r.kind, r.name, r.depth)).collect();
        assert_eq!(
            names,
            vec![
                (Kind::SpanStart, "outer", 0),
                (Kind::SpanStart, "inner", 1),
                (Kind::Event, "mid", 2),
                (Kind::SpanEnd, "inner", 1),
                (Kind::SpanEnd, "outer", 0),
            ]
        );
        for r in &recs {
            if r.kind == Kind::SpanEnd {
                assert!(matches!(r.field("dur_us"), Some(Value::U64(_))));
            }
        }
    }

    #[test]
    fn level_filtering_respects_sink_max_level() {
        let sink = Arc::new(CollectSink::new()); // Info only
        {
            let _g = scoped_sink(sink.clone());
            event!("keep");
            debug_event!("drop_debug");
            trace_event!("drop_trace");
            counter!("drop_counter", 1u64);
        }
        let names: Vec<_> = sink.records().iter().map(|r| r.name).collect();
        assert_eq!(names, vec!["keep"]);
    }

    #[test]
    fn scoped_sinks_stack() {
        let outer = Arc::new(CollectSink::new());
        let inner = Arc::new(CollectSink::new());
        let _g1 = scoped_sink(outer.clone());
        event!("to_outer");
        {
            let _g2 = scoped_sink(inner.clone());
            event!("to_inner");
        }
        event!("to_outer_again");
        let outer_names: Vec<_> = outer.records().iter().map(|r| r.name).collect();
        assert_eq!(outer_names, vec!["to_outer", "to_outer_again"]);
        let inner_names: Vec<_> = inner.records().iter().map(|r| r.name).collect();
        assert_eq!(inner_names, vec!["to_inner"]);
    }
}
