//! Deterministic per-run metrics: counters, gauges, and fixed-bucket
//! histograms aggregated from the telemetry record stream.
//!
//! The registry is a [`Sink`]: install it (alone or inside a
//! [`MultiSink`](crate::sinks::MultiSink)) and it folds every record it sees
//! into aggregate state — counter increments sum, span ends feed duration
//! histograms, and numeric event fields feed value histograms. A
//! [`MetricsSnapshot`] taken at the end of the run serializes to
//! `metrics.json` (through the shared [`Json`] codec) and to a
//! Prometheus-style text exposition.
//!
//! Determinism contract (DESIGN.md item 13): bucket edges are a fixed,
//! platform-independent log-spaced table, merges add bucket counts in index
//! order, and quantiles are *bucket-derived* (the upper edge of the bucket
//! where the cumulative count crosses the rank), never sampled. Counts,
//! minima, maxima, and quantiles are therefore invariant under any
//! permutation of the observation order — which is exactly what worker
//! threads produce. The floating-point `sum` is the one order-sensitive
//! statistic; report pipelines that need bit-stable sums sort values before
//! folding (see `mfbo::run_report`).

use crate::json::Json;
use crate::{Kind, Level, Record, Sink, Value};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Powers of ten spanning the bucket range, written as literals so edge
/// values never depend on a platform's `pow` implementation.
const POW10: [f64; 22] = [
    1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7,
    1e8, 1e9, 1e10, 1e11, 1e12,
];

/// Quarter-decade multipliers `10^(j/4)`, also literal for determinism.
const QUARTER_DECADE: [f64; 4] = [
    1.0,
    1.7782794100389228,
    3.1622776601683795,
    5.623413251903491,
];

/// Number of finite bucket edges: four per decade over `[1e-9, 1e12)` plus
/// the closing `1e12` edge.
pub const NUM_EDGES: usize = (POW10.len() - 1) * QUARTER_DECADE.len() + 1;

/// Number of buckets: one per edge (`value <= edge`) plus the overflow
/// bucket. Bucket 0 (`value <= 1e-9`) doubles as the underflow bucket and
/// catches zero and negative observations.
pub const NUM_BUCKETS: usize = NUM_EDGES + 1;

/// The fixed log-spaced bucket edge table shared by every histogram.
///
/// Bucket `i < NUM_EDGES` covers `(edge[i-1], edge[i]]` (bucket 0 covers
/// `(-inf, edge[0]]`); the final bucket covers `(edge[NUM_EDGES-1], +inf)`.
fn bucket_edges() -> &'static [f64] {
    static EDGES: std::sync::OnceLock<Vec<f64>> = std::sync::OnceLock::new();
    EDGES.get_or_init(|| {
        let mut edges = Vec::with_capacity(NUM_EDGES);
        for decade in &POW10[..POW10.len() - 1] {
            for mult in &QUARTER_DECADE {
                edges.push(mult * decade);
            }
        }
        edges.push(*POW10.last().expect("non-empty table"));
        edges
    })
}

/// Index of the bucket a finite value falls into.
fn bucket_index(v: f64) -> usize {
    bucket_edges().partition_point(|&edge| edge < v)
}

/// A fixed-bucket histogram over `f64` observations.
///
/// All statistics except `sum` are permutation-invariant (see the module
/// docs). Non-finite observations are counted separately and do not
/// contribute to any other statistic.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    nonfinite: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            nonfinite: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one observation in.
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            self.nonfinite += 1;
            return;
        }
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of finite observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Merges `other` into `self`, adding bucket counts in index order.
    fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.nonfinite += other.nonfinite;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Bucket-derived quantile: the upper edge of the bucket where the
    /// cumulative count first reaches `ceil(q * count)`, clamped to the
    /// observed `[min, max]` range. Returns NaN on an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let target = ((q * self.count as f64).ceil()).max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                let edge = if i < NUM_EDGES {
                    bucket_edges()[i]
                } else {
                    self.max
                };
                return edge.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Immutable aggregate view suitable for serialization.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            nonfinite: self.nonfinite,
            sum: self.sum,
            min: self.min,
            max: self.max,
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            buckets: self
                .counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (i, c))
                .collect(),
        }
    }
}

/// Serializable aggregate view of one [`Histogram`].
///
/// `buckets` holds `(bucket index, count)` pairs in index order for buckets
/// with a nonzero count; the fixed log-spaced edge table shared by every
/// histogram implies the edges.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Finite observation count.
    pub count: u64,
    /// Non-finite observations (excluded from every other statistic).
    pub nonfinite: u64,
    /// Sum of finite observations (observation-order sensitive; see module
    /// docs).
    pub sum: f64,
    /// Smallest finite observation (`+inf` when empty).
    pub min: f64,
    /// Largest finite observation (`-inf` when empty).
    pub max: f64,
    /// Bucket-derived median (NaN when empty).
    pub p50: f64,
    /// Bucket-derived 90th percentile (NaN when empty).
    pub p90: f64,
    /// Bucket-derived 99th percentile (NaN when empty).
    pub p99: f64,
    /// Sparse `(bucket index, count)` pairs, ascending by index.
    pub buckets: Vec<(usize, u64)>,
}

impl HistogramSnapshot {
    /// Reconstitutes the dense histogram (for merging snapshots).
    fn to_histogram(&self) -> Histogram {
        let mut h = Histogram::new();
        for &(i, c) in &self.buckets {
            h.counts[i] += c;
        }
        h.count = self.count;
        h.nonfinite = self.nonfinite;
        h.sum = self.sum;
        h.min = self.min;
        h.max = self.max;
        h
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("count".to_string(), Json::Num(self.count as f64)),
            ("nonfinite".to_string(), Json::Num(self.nonfinite as f64)),
            ("sum".to_string(), Json::Num(self.sum)),
        ];
        if self.count > 0 {
            fields.push(("min".to_string(), Json::Num(self.min)));
            fields.push(("max".to_string(), Json::Num(self.max)));
            fields.push(("p50".to_string(), Json::Num(self.p50)));
            fields.push(("p90".to_string(), Json::Num(self.p90)));
            fields.push(("p99".to_string(), Json::Num(self.p99)));
        }
        fields.push((
            "buckets".to_string(),
            Json::Arr(
                self.buckets
                    .iter()
                    .map(|&(i, c)| Json::Arr(vec![Json::Num(i as f64), Json::Num(c as f64)]))
                    .collect(),
            ),
        ));
        Json::Obj(fields)
    }

    fn from_json(v: &Json) -> Result<HistogramSnapshot, String> {
        let num = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("histogram snapshot missing numeric {key:?}"))
        };
        let opt = |key: &str, default: f64| v.get(key).and_then(Json::as_f64).unwrap_or(default);
        let count = num("count")? as u64;
        let mut buckets = Vec::new();
        for pair in v
            .get("buckets")
            .and_then(Json::as_arr)
            .ok_or("histogram snapshot missing \"buckets\"")?
        {
            let pair = pair.as_arr().ok_or("bucket entry is not an array")?;
            if pair.len() != 2 {
                return Err("bucket entry is not an [index, count] pair".into());
            }
            let idx = pair[0].as_f64().ok_or("bucket index is not a number")? as usize;
            if idx >= NUM_BUCKETS {
                return Err(format!("bucket index {idx} out of range"));
            }
            buckets.push((
                idx,
                pair[1].as_f64().ok_or("bucket count not numeric")? as u64,
            ));
        }
        Ok(HistogramSnapshot {
            count,
            nonfinite: opt("nonfinite", 0.0) as u64,
            sum: num("sum")?,
            min: opt("min", f64::INFINITY),
            max: opt("max", f64::NEG_INFINITY),
            p50: opt("p50", f64::NAN),
            p90: opt("p90", f64::NAN),
            p99: opt("p99", f64::NAN),
            buckets,
        })
    }
}

/// Aggregated metrics at a point in time: the exportable product of a
/// [`MetricsRegistry`]. Attached to
/// [`RunTelemetry`](crate::summary::RunTelemetry) at the end of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters (counter records and event/boolean tallies).
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins instantaneous values set via
    /// [`MetricsRegistry::set_gauge`].
    pub gauges: BTreeMap<String, f64>,
    /// Fixed-bucket histograms over span durations and numeric event fields.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Serializes through the shared telemetry JSON codec (the `metrics.json`
    /// format). Key order is the `BTreeMap` order, so output is
    /// deterministic.
    pub fn to_json(&self) -> Json {
        let obj = |pairs: Vec<(String, Json)>| Json::Obj(pairs);
        Json::Obj(vec![
            (
                "counters".to_string(),
                obj(self
                    .counters
                    .iter()
                    .map(|(k, &v)| (k.clone(), Json::Num(v as f64)))
                    .collect()),
            ),
            (
                "gauges".to_string(),
                obj(self
                    .gauges
                    .iter()
                    .map(|(k, &v)| (k.clone(), Json::Num(v)))
                    .collect()),
            ),
            (
                "histograms".to_string(),
                obj(self
                    .histograms
                    .iter()
                    .map(|(k, h)| (k.clone(), h.to_json()))
                    .collect()),
            ),
        ])
    }

    /// Parses a value produced by [`MetricsSnapshot::to_json`].
    pub fn from_json(v: &Json) -> Result<MetricsSnapshot, String> {
        let section = |key: &str| -> Result<&Vec<(String, Json)>, String> {
            match v.get(key) {
                Some(Json::Obj(pairs)) => Ok(pairs),
                _ => Err(format!("metrics snapshot missing object {key:?}")),
            }
        };
        let mut snap = MetricsSnapshot::default();
        for (k, val) in section("counters")? {
            let n = val
                .as_f64()
                .ok_or_else(|| format!("counter {k:?} is not numeric"))?;
            snap.counters.insert(k.clone(), n as u64);
        }
        for (k, val) in section("gauges")? {
            let n = val
                .as_f64()
                .ok_or_else(|| format!("gauge {k:?} is not numeric"))?;
            snap.gauges.insert(k.clone(), n);
        }
        for (k, val) in section("histograms")? {
            snap.histograms
                .insert(k.clone(), HistogramSnapshot::from_json(val)?);
        }
        Ok(snap)
    }

    /// Merges `other` into `self`: counters add, gauges last-write-wins,
    /// histogram buckets add in index order.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, &v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, &v) in &other.gauges {
            self.gauges.insert(k.clone(), v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => {
                    let mut merged = mine.to_histogram();
                    merged.merge(&h.to_histogram());
                    *mine = merged.snapshot();
                }
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
    }

    /// Renders the Prometheus text exposition format (the future service
    /// `/metrics` endpoint). Metric names get an `mfbo_` prefix and dots
    /// become underscores; histogram buckets are cumulative `le`-labelled
    /// counts per the Prometheus histogram convention.
    pub fn to_prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            let mut s = String::with_capacity(name.len() + 5);
            s.push_str("mfbo_");
            for ch in name.chars() {
                if ch.is_ascii_alphanumeric() {
                    s.push(ch);
                } else {
                    s.push('_');
                }
            }
            s
        }
        let mut out = String::new();
        for (name, &v) in &self.counters {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (name, &v) in &self.gauges {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {}\n", Json::Num(v)));
        }
        for (name, h) in &self.histograms {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} histogram\n"));
            let mut cum = 0u64;
            for &(i, c) in &h.buckets {
                cum += c;
                let le = if i < NUM_EDGES {
                    Json::Num(bucket_edges()[i]).to_string()
                } else {
                    "+Inf".to_string()
                };
                out.push_str(&format!("{n}_bucket{{le=\"{le}\"}} {cum}\n"));
            }
            out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{n}_sum {}\n", Json::Num(h.sum)));
            out.push_str(&format!("{n}_count {}\n", h.count));
        }
        out
    }
}

/// A [`Sink`] that folds the record stream into counters and histograms.
///
/// Mapping: counter records add to `counters[name]`; span ends feed
/// `histograms["span.{name}.dur_us"]`; each event increments
/// `counters["event.{name}"]`, its numeric fields feed
/// `histograms["{name}.{field}"]`, and its boolean fields count `true`
/// occurrences in `counters["{name}.{field}"]`. String fields are ignored.
pub struct MetricsRegistry {
    level: Level,
    inner: Mutex<MetricsInner>,
}

#[derive(Default)]
struct MetricsInner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// Registry accepting records up to [`Level::Debug`] (the tier the
    /// solver-health diagnostics are emitted at).
    pub fn new() -> Self {
        Self::with_level(Level::Debug)
    }

    /// Registry accepting records up to `level`.
    pub fn with_level(level: Level) -> Self {
        MetricsRegistry {
            level,
            inner: Mutex::new(MetricsInner::default()),
        }
    }

    /// Sets an instantaneous gauge value (last write wins).
    pub fn set_gauge(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock().expect("metrics registry lock");
        inner.gauges.insert(name.to_string(), value);
    }

    /// Takes an immutable snapshot of everything aggregated so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics registry lock");
        MetricsSnapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// Numeric view of a field value, if it has one.
fn numeric(v: &Value) -> Option<f64> {
    match v {
        Value::I64(i) => Some(*i as f64),
        Value::U64(u) => Some(*u as f64),
        Value::F64(f) => Some(*f),
        Value::Bool(_) | Value::Str(_) => None,
    }
}

impl Sink for MetricsRegistry {
    fn max_level(&self) -> Level {
        self.level
    }

    fn record(&self, rec: &Record) {
        let mut inner = self.inner.lock().expect("metrics registry lock");
        match rec.kind {
            Kind::Counter => {
                let add = match rec.field("value") {
                    Some(Value::U64(u)) => *u,
                    Some(Value::I64(i)) => (*i).max(0) as u64,
                    Some(Value::F64(f)) => *f as u64,
                    _ => 1,
                };
                *inner.counters.entry(rec.name.to_string()).or_insert(0) += add;
            }
            Kind::SpanEnd => {
                if let Some(Value::U64(dur)) = rec.field("dur_us") {
                    inner
                        .histograms
                        .entry(format!("span.{}.dur_us", rec.name))
                        .or_default()
                        .observe(*dur as f64);
                }
            }
            Kind::Event => {
                *inner
                    .counters
                    .entry(format!("event.{}", rec.name))
                    .or_insert(0) += 1;
                for (key, value) in &rec.fields {
                    if let Some(n) = numeric(value) {
                        inner
                            .histograms
                            .entry(format!("{}.{}", rec.name, key))
                            .or_default()
                            .observe(n);
                    } else if let Value::Bool(b) = value {
                        *inner
                            .counters
                            .entry(format!("{}.{}", rec.name, key))
                            .or_insert(0) += *b as u64;
                    }
                }
            }
            Kind::SpanStart => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{counter, debug_event, debug_span, scoped_sink};
    use std::sync::Arc;

    #[test]
    fn bucket_edges_are_sorted_and_span_the_range() {
        let edges = bucket_edges();
        assert_eq!(edges.len(), NUM_EDGES);
        assert!(edges.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(edges[0], 1e-9);
        assert_eq!(*edges.last().unwrap(), 1e12);
        // Bucket boundaries are half-open on the left: an exact edge value
        // lands in the bucket it closes.
        assert_eq!(bucket_index(1e-9), 0);
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-5.0), 0);
        assert_eq!(bucket_index(1e12), NUM_EDGES - 1);
        assert_eq!(bucket_index(2e12), NUM_EDGES);
    }

    #[test]
    fn quantiles_are_bucket_upper_edges_clamped_to_observed_range() {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 3.0, 100.0] {
            h.observe(v);
        }
        // p50 rank = 2 → the bucket holding 2.0, i.e. (1.778…, 3.162…];
        // the quantile is that bucket's upper edge.
        assert_eq!(h.quantile(0.5), 3.1622776601683795);
        // p99 rank = 4 → bucket of 100.0, edge 100.0 exactly.
        assert_eq!(h.quantile(0.99), 100.0);
        // Clamping: a single observation pins every quantile to it.
        let mut one = Histogram::new();
        one.observe(42.0);
        assert_eq!(one.quantile(0.5), 42.0);
        assert_eq!(one.quantile(0.99), 42.0);
    }

    #[test]
    fn nonfinite_observations_are_isolated() {
        let mut h = Histogram::new();
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(1.0);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.nonfinite, 2);
        assert_eq!(s.sum, 1.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 1.0);
    }

    #[test]
    fn merge_adds_bucket_counts_in_index_order() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [1.0, 10.0] {
            a.observe(v);
        }
        for v in [10.0, 1000.0] {
            b.observe(v);
        }
        let mut m = a.clone();
        m.merge(&b);
        let mut direct = Histogram::new();
        for v in [1.0, 10.0, 10.0, 1000.0] {
            direct.observe(v);
        }
        assert_eq!(m.snapshot(), direct.snapshot());
    }

    #[test]
    fn registry_folds_counters_spans_and_events() {
        let reg = Arc::new(MetricsRegistry::new());
        {
            let _g = scoped_sink(reg.clone());
            counter!("nlml_evals", 12u64);
            counter!("nlml_evals", 3u64);
            {
                let _s = debug_span!("surrogate_fit", iteration = 1usize);
            }
            debug_event!("gp_fit", condition = 1.5e6f64, jitter = 0.0f64);
            debug_event!("fidelity_decision", chose_high = true, forced = false);
        }
        reg.set_gauge("best_objective", -6.02);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["nlml_evals"], 15);
        assert_eq!(snap.counters["event.gp_fit"], 1);
        assert_eq!(snap.counters["fidelity_decision.chose_high"], 1);
        assert_eq!(snap.counters["fidelity_decision.forced"], 0);
        assert_eq!(snap.gauges["best_objective"], -6.02);
        assert_eq!(snap.histograms["gp_fit.condition"].count, 1);
        assert_eq!(snap.histograms["gp_fit.condition"].sum, 1.5e6);
        assert_eq!(snap.histograms["span.surrogate_fit.dur_us"].count, 1);
        assert_eq!(snap.histograms["gp_fit.jitter"].count, 1);
    }

    #[test]
    fn snapshot_round_trips_through_json_codec() {
        let reg = MetricsRegistry::new();
        {
            let r = |kind, name: &'static str, fields| Record {
                t_us: 0,
                level: Level::Debug,
                kind,
                name,
                depth: 0,
                fields,
            };
            reg.record(&r(
                Kind::Counter,
                "eval_cache_hit",
                vec![("value", Value::U64(7))],
            ));
            reg.record(&r(
                Kind::SpanEnd,
                "acq_opt",
                vec![("dur_us", Value::U64(1234))],
            ));
            reg.record(&r(
                Kind::Event,
                "gp_fit",
                vec![("nlml", Value::F64(-3.25)), ("jitter", Value::F64(1e-8))],
            ));
        }
        reg.set_gauge("total_cost", 42.5);
        let snap = reg.snapshot();
        let encoded = snap.to_json().to_string();
        let parsed = crate::json::parse(&encoded).expect("metrics.json parses");
        assert_eq!(MetricsSnapshot::from_json(&parsed).unwrap(), snap);
    }

    #[test]
    fn prometheus_exposition_has_cumulative_buckets() {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 5.0] {
            h.observe(v);
        }
        let snap = MetricsSnapshot {
            counters: [("event.gp_fit".to_string(), 3u64)].into_iter().collect(),
            gauges: [("best_objective".to_string(), -1.5)].into_iter().collect(),
            histograms: [("gp_fit.nlml".to_string(), h.snapshot())]
                .into_iter()
                .collect(),
        };
        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE mfbo_event_gp_fit counter"));
        assert!(text.contains("mfbo_event_gp_fit 3"));
        assert!(text.contains("mfbo_best_objective -1.5"));
        assert!(text.contains("# TYPE mfbo_gp_fit_nlml histogram"));
        assert!(text.contains("mfbo_gp_fit_nlml_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("mfbo_gp_fit_nlml_count 3"));
        // Cumulative counts never decrease.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last);
            last = v;
        }
    }

    #[test]
    fn snapshot_merge_matches_single_registry() {
        let mut a = MetricsSnapshot::default();
        let mut b = MetricsSnapshot::default();
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        for v in [1.0, 50.0] {
            ha.observe(v);
        }
        for v in [50.0, 2e13] {
            hb.observe(v);
        }
        a.counters.insert("c".into(), 2);
        b.counters.insert("c".into(), 3);
        a.histograms.insert("h".into(), ha.snapshot());
        b.histograms.insert("h".into(), hb.snapshot());
        a.merge(&b);
        assert_eq!(a.counters["c"], 5);
        let mut all = Histogram::new();
        for v in [1.0, 50.0, 50.0, 2e13] {
            all.observe(v);
        }
        assert_eq!(a.histograms["h"], all.snapshot());
    }
}

#[cfg(test)]
mod permutation_props {
    //! The DESIGN item 13 invariant, as properties: histogram statistics
    //! (except the documented `sum`) are invariant under observation-order
    //! permutations, and `metrics.json` round-trips bit-exactly through the
    //! shared codec.

    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::Rng;

    fn arbitrary_values(rng: &mut StdRng) -> Vec<f64> {
        let n = rng.gen_range(1usize..40);
        (0..n)
            .map(|_| {
                let mantissa: f64 = rng.gen_range(-1.0f64..1.0);
                let exp = rng.gen_range(-12i32..15);
                mantissa * 10f64.powi(exp)
            })
            .filter(|v| v.is_finite())
            .collect()
    }

    /// A value list plus a shuffled copy of itself.
    struct Shuffled;

    impl proptest::strategy::Strategy for Shuffled {
        type Value = (Vec<f64>, Vec<f64>);

        fn generate(&self, rng: &mut StdRng) -> (Vec<f64>, Vec<f64>) {
            let base = arbitrary_values(rng);
            let mut shuffled = base.clone();
            // Fisher–Yates with the harness RNG.
            for i in (1..shuffled.len()).rev() {
                let j = rng.gen_range(0usize..=i);
                shuffled.swap(i, j);
            }
            (base, shuffled)
        }
    }

    /// A snapshot built from random observations, counters, and gauges.
    struct ArbitrarySnapshot;

    impl proptest::strategy::Strategy for ArbitrarySnapshot {
        type Value = MetricsSnapshot;

        fn generate(&self, rng: &mut StdRng) -> MetricsSnapshot {
            let mut snap = MetricsSnapshot::default();
            for i in 0..rng.gen_range(0usize..4) {
                snap.counters
                    .insert(format!("c{i}"), rng.gen_range(0u64..1u64 << 50));
            }
            for i in 0..rng.gen_range(0usize..4) {
                snap.gauges
                    .insert(format!("g{i}"), rng.gen_range(-1.0f64..1.0) * 1e6);
            }
            for i in 0..rng.gen_range(0usize..3) {
                let mut h = Histogram::new();
                for v in arbitrary_values(rng) {
                    h.observe(v);
                }
                snap.histograms.insert(format!("h{i}"), h.snapshot());
            }
            snap
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn bucket_counts_are_permutation_invariant(pair in Shuffled) {
            let (base, shuffled) = pair;
            let mut a = Histogram::new();
            let mut b = Histogram::new();
            for v in &base { a.observe(*v); }
            for v in &shuffled { b.observe(*v); }
            let (sa, sb) = (a.snapshot(), b.snapshot());
            prop_assert_eq!(&sa.buckets, &sb.buckets);
            prop_assert_eq!(sa.count, sb.count);
            prop_assert_eq!(sa.min.to_bits(), sb.min.to_bits());
            prop_assert_eq!(sa.max.to_bits(), sb.max.to_bits());
            prop_assert_eq!(sa.p50.to_bits(), sb.p50.to_bits());
            prop_assert_eq!(sa.p90.to_bits(), sb.p90.to_bits());
            prop_assert_eq!(sa.p99.to_bits(), sb.p99.to_bits());
        }

        #[test]
        fn metrics_json_round_trips(snap in ArbitrarySnapshot) {
            let encoded = snap.to_json().to_string();
            let parsed = crate::json::parse(&encoded);
            prop_assert!(parsed.is_ok(), "unparseable: {}", encoded);
            let back = MetricsSnapshot::from_json(&parsed.unwrap());
            prop_assert!(back.is_ok(), "decode failed: {:?}", back);
            prop_assert_eq!(back.unwrap(), snap);
        }
    }
}
