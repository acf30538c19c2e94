//! Offline run-report analyzer: joins a runstore journal with an optional
//! telemetry JSONL trace and renders a text + JSON report (`mfbo-cli
//! report`).
//!
//! Determinism contract: the JSON report must be byte-identical for any two
//! executions of the same configured run — serial vs. `Threads(n)`,
//! `MFBO_SIMD=scalar` vs. `auto`, and killed-and-resumed vs. uninterrupted.
//! That dictates what may enter the JSON:
//!
//! - **Journal-derived** sections (evaluation counts, cost splits,
//!   convergence, retries/quarantine, cache hit rate) are safe as-is: the
//!   journal is part of the bit-exact replay contract.
//! - **Trace-derived health rollups** only use *deterministic event values*
//!   (`gp_fit`, `cholesky_jitter`, `msp`, `acq_landscape`, `hyperparams`,
//!   `fidelity_decision`) and fold them **permutation-invariantly** — counts,
//!   integer sums, min/max, and means over values sorted by `total_cmp` —
//!   because bundle fits emit `gp_fit` from worker threads in
//!   nondeterministic order.
//! - Everything tied to a particular execution is **excluded from the
//!   JSON**: timings (`t_us`, `dur_us`, `wall_us`), `pool` records (absent on
//!   the serial path), `simd_dispatch` (names the backend), and the
//!   `eval_*`/`runstore_*` counters (they describe how values were *sourced*
//!   this session — fresh vs. replayed — which differs under resume; the
//!   journal already carries the run-level truth). The span-tree
//!   self-profile, being pure timing, appears only in the text report.

use mfbo_runstore::{Fid, JournalEntry, RunMeta, RunStore, StoreError};
use mfbo_telemetry::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// The product of the analyzer: a deterministic JSON document plus a
/// human-oriented text rendering (which adds the timing self-profile).
#[derive(Debug, Clone)]
pub struct RunReport {
    json: Json,
    text: String,
}

impl RunReport {
    /// Loads the journal from `dir` (and the JSONL trace from `trace`, when
    /// given) and analyzes them.
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError`] from the journal loader; trace I/O and
    /// parse problems surface as [`StoreError::Io`] / [`StoreError::Corrupt`].
    pub fn from_store(
        dir: impl AsRef<Path>,
        trace: Option<&Path>,
    ) -> Result<RunReport, StoreError> {
        let (meta, entries) = RunStore::load_journal(dir.as_ref())?;
        let records = match trace {
            Some(path) => Some(load_trace(path)?),
            None => None,
        };
        Ok(Self::analyze(&meta, &entries, records.as_deref()))
    }

    /// Builds the report from already-loaded parts. `trace` is the parsed
    /// JSONL record stream in file order.
    pub fn analyze(meta: &RunMeta, entries: &[JournalEntry], trace: Option<&[Json]>) -> RunReport {
        let evals = EvalRollup::from_entries(entries);
        let convergence = convergence_from_journal(entries);
        let health = trace.map(HealthRollup::from_trace);

        let mut sections: Vec<(String, Json)> = vec![
            (
                "meta".to_string(),
                Json::Obj(vec![
                    (
                        "format_version".to_string(),
                        Json::Num(meta.format_version as f64),
                    ),
                    ("algo".to_string(), Json::Str(meta.algo.clone())),
                    ("problem".to_string(), Json::Str(meta.problem.clone())),
                    ("dim".to_string(), Json::Num(meta.dim as f64)),
                    (
                        "num_constraints".to_string(),
                        Json::Num(meta.num_constraints as f64),
                    ),
                ]),
            ),
            ("evaluations".to_string(), evals.to_json()),
            (
                "convergence".to_string(),
                Json::Arr(
                    convergence
                        .iter()
                        .map(|&(c, b)| Json::Arr(vec![Json::Num(c), Json::Num(b)]))
                        .collect(),
                ),
            ),
            (
                "feasibility".to_string(),
                Json::Obj(vec![
                    (
                        "first_feasible_cost".to_string(),
                        evals
                            .first_feasible_cost
                            .map(Json::Num)
                            .unwrap_or(Json::Null),
                    ),
                    (
                        "feasible_evals".to_string(),
                        Json::Num(evals.feasible_evals as f64),
                    ),
                    (
                        "final_best".to_string(),
                        convergence
                            .last()
                            .map(|&(_, b)| Json::Num(b))
                            .unwrap_or(Json::Null),
                    ),
                ]),
            ),
        ];
        if let Some(h) = &health {
            sections.push(("health".to_string(), h.to_json()));
        }
        let json_report = Json::Obj(sections);

        let mut text = String::new();
        let _ = writeln!(
            text,
            "run report: {} on {} (dim {}, {} constraints)",
            meta.algo, meta.problem, meta.dim, meta.num_constraints
        );
        text.push_str(&evals.to_text());
        match convergence.last() {
            Some(&(cost, best)) => {
                let _ = writeln!(
                    text,
                    "final best     : {best} (at cost {cost}, {} convergence points)",
                    convergence.len()
                );
            }
            None => text.push_str("final best     : none (no feasible high-fidelity point)\n"),
        }
        match evals.first_feasible_cost {
            Some(c) => {
                let _ = writeln!(text, "first feasible : cost {c}");
            }
            None => text.push_str("first feasible : never\n"),
        }
        if let Some(h) = &health {
            text.push_str(&h.to_text());
        }
        if let Some(records) = trace {
            text.push_str(&span_profile_text(records));
        } else {
            text.push_str("(no trace supplied: health and self-profile sections omitted)\n");
        }

        RunReport {
            json: json_report,
            text,
        }
    }

    /// The deterministic JSON document.
    pub fn json(&self) -> &Json {
        &self.json
    }

    /// Compact single-line JSON encoding plus a trailing newline — the
    /// byte-stable `--report` file format.
    pub fn to_json_string(&self) -> String {
        format!("{}\n", self.json)
    }

    /// The text rendering (includes the timing self-profile, which the JSON
    /// deliberately omits).
    pub fn text(&self) -> &str {
        &self.text
    }
}

/// Reads and parses a telemetry JSONL trace file.
fn load_trace(path: &Path) -> Result<Vec<Json>, StoreError> {
    let text = std::fs::read_to_string(path).map_err(|source| StoreError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            json::parse(line).map_err(|reason| StoreError::Corrupt {
                what: "trace record".into(),
                reason,
            })
        })
        .collect()
}

/// Journal-derived evaluation accounting.
#[derive(Debug, Clone, Default)]
struct EvalRollup {
    total: u64,
    low: u64,
    high: u64,
    warm: u64,
    fresh: u64,
    cached: u64,
    quarantined: u64,
    retries: u64,
    total_cost: f64,
    low_cost: f64,
    high_cost: f64,
    fresh_cost: f64,
    cached_cost: f64,
    feasible_evals: u64,
    first_feasible_cost: Option<f64>,
}

impl EvalRollup {
    fn from_entries(entries: &[JournalEntry]) -> EvalRollup {
        let mut r = EvalRollup::default();
        let mut prev_cost = 0.0;
        for e in entries {
            // Pending-issue records from batched ask/tell runs are
            // write-ahead bookkeeping, not consumed evaluations: their
            // cost_after is the committed cost at issue time and their
            // objective/constraints are placeholders. Only commit records
            // describe charges.
            if e.pending {
                continue;
            }
            // The journal stores cumulative cost; successive differences in
            // write order recover what each evaluation actually charged.
            let delta = e.cost_after - prev_cost;
            prev_cost = e.cost_after;
            r.total += 1;
            match e.fid {
                Fid::Low => {
                    r.low += 1;
                    r.low_cost += delta;
                }
                Fid::High => {
                    r.high += 1;
                    r.high_cost += delta;
                }
            }
            if e.warm {
                r.warm += 1;
            } else if e.cached {
                r.cached += 1;
                r.cached_cost += delta;
            } else {
                r.fresh += 1;
                r.fresh_cost += delta;
            }
            if e.quarantined {
                r.quarantined += 1;
            }
            r.retries += u64::from(e.attempts.saturating_sub(1));
            if e.constraints.iter().all(|&c| c < 0.0) {
                r.feasible_evals += 1;
                if r.first_feasible_cost.is_none() {
                    r.first_feasible_cost = Some(e.cost_after);
                }
            }
        }
        r.total_cost = prev_cost;
        r
    }

    /// Cache hits as a fraction of the evaluations that went through the
    /// sourcing pipeline (warm-started injections never could hit).
    fn cache_hit_rate(&self) -> f64 {
        let served = self.total - self.warm;
        if served == 0 {
            0.0
        } else {
            self.cached as f64 / served as f64
        }
    }

    fn cost_pct(&self, part: f64) -> f64 {
        if self.total_cost > 0.0 {
            100.0 * part / self.total_cost
        } else {
            0.0
        }
    }

    fn to_json(&self) -> Json {
        let num = |v: f64| Json::Num(v);
        let count = |v: u64| Json::Num(v as f64);
        Json::Obj(vec![
            ("total".to_string(), count(self.total)),
            ("low".to_string(), count(self.low)),
            ("high".to_string(), count(self.high)),
            ("warm".to_string(), count(self.warm)),
            ("fresh".to_string(), count(self.fresh)),
            ("cached".to_string(), count(self.cached)),
            ("quarantined".to_string(), count(self.quarantined)),
            ("retries".to_string(), count(self.retries)),
            ("cache_hit_rate".to_string(), num(self.cache_hit_rate())),
            ("total_cost".to_string(), num(self.total_cost)),
            (
                "cost_by_fidelity".to_string(),
                Json::Obj(vec![
                    ("low".to_string(), num(self.low_cost)),
                    ("high".to_string(), num(self.high_cost)),
                ]),
            ),
            (
                "cost_pct_by_fidelity".to_string(),
                Json::Obj(vec![
                    ("low".to_string(), num(self.cost_pct(self.low_cost))),
                    ("high".to_string(), num(self.cost_pct(self.high_cost))),
                ]),
            ),
            (
                "cost_by_source".to_string(),
                Json::Obj(vec![
                    ("fresh".to_string(), num(self.fresh_cost)),
                    ("cached".to_string(), num(self.cached_cost)),
                ]),
            ),
        ])
    }

    fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "evaluations    : {} total = {} low + {} high ({} warm-started)",
            self.total, self.low, self.high, self.warm
        );
        let _ = writeln!(
            out,
            "sourcing       : {} fresh, {} cached (hit rate {:.1}%), {} quarantined, {} retries",
            self.fresh,
            self.cached,
            100.0 * self.cache_hit_rate(),
            self.quarantined,
            self.retries
        );
        let _ = writeln!(
            out,
            "cost           : {:.2} total — low {:.1}% / high {:.1}% (fresh {:.2}, cached {:.2})",
            self.total_cost,
            self.cost_pct(self.low_cost),
            self.cost_pct(self.high_cost),
            self.fresh_cost,
            self.cached_cost
        );
        out
    }
}

/// Mirrors [`crate::Outcome::convergence_trace`] from journal entries:
/// `(cost, best feasible high-fidelity objective so far)` after each
/// high-fidelity evaluation, once a feasible point exists. Warm-started
/// injections are skipped — they are not part of the run's own trajectory.
fn convergence_from_journal(entries: &[JournalEntry]) -> Vec<(f64, f64)> {
    let mut best = f64::INFINITY;
    let mut out = Vec::new();
    for e in entries {
        if e.pending || e.warm || e.fid != Fid::High {
            continue;
        }
        if e.constraints.iter().all(|&c| c < 0.0) {
            best = best.min(e.objective);
        }
        if best.is_finite() {
            out.push((e.cost_after, best));
        }
    }
    out
}

/// Mean over `values` that is invariant to the input order: sort by
/// `total_cmp`, then fold. Used for every trace-derived f64 aggregate.
fn sorted_mean(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len() as f64;
    values.iter().sum::<f64>() / n
}

/// Order-invariant min/max over possibly-empty data.
#[derive(Debug, Clone, Copy, Default)]
struct MinMax {
    min: Option<f64>,
    max: Option<f64>,
}

impl MinMax {
    fn absorb(&mut self, v: f64) {
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
    }

    fn json_pair(&self) -> Vec<(String, Json)> {
        vec![
            (
                "min".to_string(),
                self.min.map(Json::Num).unwrap_or(Json::Null),
            ),
            (
                "max".to_string(),
                self.max.map(Json::Num).unwrap_or(Json::Null),
            ),
        ]
    }
}

/// Trace-derived surrogate/optimizer health rollups (the deterministic
/// subset; see the module docs for the exclusion rules).
#[derive(Debug, Clone, Default)]
struct HealthRollup {
    gp_fits: u64,
    nlml_evals: u64,
    factorizations: u64,
    lbfgs_iters: u64,
    bound_hits: u64,
    jitter_bumped_fits: u64,
    max_fit_jitter: Option<f64>,
    condition: MinMax,
    conditions: Vec<f64>,
    log_noise: MinMax,
    cholesky_jitter_events: u64,
    cholesky_jitter_attempts: u64,
    msp_calls: u64,
    msp_evaluations: u64,
    msp_max_spread: Option<f64>,
    msp_frac_zeros: Vec<f64>,
    decisions: u64,
    decisions_high: u64,
    decisions_forced: u64,
    decisions_drive: u64,
    /// `(iteration, best, worst, spread, frac_zero)` rows, iteration order.
    acq_rows: Vec<(u64, f64, f64, f64, f64)>,
    /// `(iteration, field name, raw theta string)` rows, iteration order.
    hyper_rows: Vec<(u64, Vec<(String, String)>)>,
    counters: BTreeMap<String, u64>,
}

/// Counters whose totals depend on the execution mode rather than the
/// configured run: `pool_*` only exist on the threaded path, the
/// `eval_*` / `runstore_*` sourcing counters change under resume/caching,
/// `server_*` counters describe service traffic rather than any one run,
/// `journal_*` group-commit counters depend on flush timing (how many
/// appends share a linger window), and `simd_dispatch` fires once per
/// process, not once per run.
fn deterministic_counter(name: &str) -> bool {
    !(name.starts_with("pool")
        || name.starts_with("eval_")
        || name.starts_with("runstore")
        || name.starts_with("server_")
        || name.starts_with("journal_")
        || name == "simd_dispatch")
}

impl HealthRollup {
    fn from_trace(records: &[Json]) -> HealthRollup {
        let mut h = HealthRollup::default();
        for rec in records {
            let name = rec.get("name").and_then(Json::as_str).unwrap_or("");
            let kind = rec.get("kind").and_then(Json::as_str).unwrap_or("");
            let fields = rec.get("fields");
            let fnum = |key: &str| fields.and_then(|f| f.get(key)).and_then(Json::as_f64);
            let fint = |key: &str| fnum(key).map(|v| v as u64);
            let fbool = |key: &str| {
                fields
                    .and_then(|f| f.get(key))
                    .and_then(Json::as_bool)
                    .unwrap_or(false)
            };
            match (kind, name) {
                ("counter", _) if deterministic_counter(name) => {
                    let v = fint("value").unwrap_or(0);
                    *h.counters.entry(name.to_string()).or_insert(0) += v;
                }
                ("event", "gp_fit") => {
                    h.gp_fits += 1;
                    h.nlml_evals += fint("nlml_evals").unwrap_or(0);
                    h.factorizations += fint("factorizations").unwrap_or(0);
                    h.lbfgs_iters += fint("lbfgs_iters").unwrap_or(0);
                    h.bound_hits += fint("bound_hits").unwrap_or(0);
                    if let Some(j) = fnum("jitter") {
                        if j > 0.0 {
                            h.jitter_bumped_fits += 1;
                            h.max_fit_jitter = Some(h.max_fit_jitter.map_or(j, |m: f64| m.max(j)));
                        }
                    }
                    if let Some(c) = fnum("condition") {
                        h.condition.absorb(c);
                        h.conditions.push(c);
                    }
                    if let Some(n) = fnum("log_noise") {
                        h.log_noise.absorb(n);
                    }
                }
                ("event", "cholesky_jitter") => {
                    h.cholesky_jitter_events += 1;
                    h.cholesky_jitter_attempts += fint("attempts").unwrap_or(0);
                }
                ("event", "msp") => {
                    h.msp_calls += 1;
                    h.msp_evaluations += fint("evaluations").unwrap_or(0);
                    if let Some(s) = fnum("spread") {
                        h.msp_max_spread = Some(h.msp_max_spread.map_or(s, |m: f64| m.max(s)));
                    }
                    if let Some(z) = fnum("frac_zero") {
                        h.msp_frac_zeros.push(z);
                    }
                }
                ("event", "fidelity_decision") => {
                    h.decisions += 1;
                    h.decisions_high += u64::from(fbool("chose_high"));
                    h.decisions_forced += u64::from(fbool("forced"));
                    h.decisions_drive += u64::from(fbool("feasibility_drive"));
                }
                ("event", "acq_landscape") => {
                    h.acq_rows.push((
                        fint("iteration").unwrap_or(0),
                        fnum("best_value").unwrap_or(f64::NAN),
                        fnum("worst_value").unwrap_or(f64::NAN),
                        fnum("spread").unwrap_or(f64::NAN),
                        fnum("frac_zero").unwrap_or(f64::NAN),
                    ));
                }
                ("event", "hyperparams") => {
                    let mut row = Vec::new();
                    if let Some(Json::Obj(pairs)) = fields {
                        for (k, v) in pairs {
                            if k != "iteration" {
                                if let Some(s) = v.as_str() {
                                    row.push((k.clone(), s.to_string()));
                                }
                            }
                        }
                    }
                    h.hyper_rows.push((fint("iteration").unwrap_or(0), row));
                }
                _ => {}
            }
        }
        // Main-thread events arrive in iteration order already; sorting
        // makes that a guarantee rather than an accident of sink locking.
        h.acq_rows.sort_by_key(|r| r.0);
        h.hyper_rows.sort_by_key(|r| r.0);
        h
    }

    fn to_json(&self) -> Json {
        let count = |v: u64| Json::Num(v as f64);
        let mut condition = self.condition.json_pair();
        condition.push((
            "mean".to_string(),
            if self.conditions.is_empty() {
                Json::Null
            } else {
                Json::Num(sorted_mean(self.conditions.clone()))
            },
        ));
        Json::Obj(vec![
            (
                "gp_fits".to_string(),
                Json::Obj(vec![
                    ("count".to_string(), count(self.gp_fits)),
                    ("nlml_evals".to_string(), count(self.nlml_evals)),
                    ("factorizations".to_string(), count(self.factorizations)),
                    ("lbfgs_iters".to_string(), count(self.lbfgs_iters)),
                    ("bound_hits".to_string(), count(self.bound_hits)),
                    (
                        "jitter_bumped_fits".to_string(),
                        count(self.jitter_bumped_fits),
                    ),
                    (
                        "max_jitter".to_string(),
                        self.max_fit_jitter.map(Json::Num).unwrap_or(Json::Null),
                    ),
                    ("condition".to_string(), Json::Obj(condition)),
                    (
                        "log_noise".to_string(),
                        Json::Obj(self.log_noise.json_pair()),
                    ),
                ]),
            ),
            (
                "cholesky_jitter".to_string(),
                Json::Obj(vec![
                    ("events".to_string(), count(self.cholesky_jitter_events)),
                    ("attempts".to_string(), count(self.cholesky_jitter_attempts)),
                ]),
            ),
            (
                "msp".to_string(),
                Json::Obj(vec![
                    ("calls".to_string(), count(self.msp_calls)),
                    ("evaluations".to_string(), count(self.msp_evaluations)),
                    (
                        "max_spread".to_string(),
                        self.msp_max_spread.map(Json::Num).unwrap_or(Json::Null),
                    ),
                    (
                        "mean_frac_zero".to_string(),
                        if self.msp_frac_zeros.is_empty() {
                            Json::Null
                        } else {
                            Json::Num(sorted_mean(self.msp_frac_zeros.clone()))
                        },
                    ),
                ]),
            ),
            (
                "fidelity_decisions".to_string(),
                Json::Obj(vec![
                    ("count".to_string(), count(self.decisions)),
                    ("high".to_string(), count(self.decisions_high)),
                    ("forced".to_string(), count(self.decisions_forced)),
                    ("feasibility_drive".to_string(), count(self.decisions_drive)),
                ]),
            ),
            (
                "acq_landscape".to_string(),
                Json::Arr(
                    self.acq_rows
                        .iter()
                        .map(|&(it, best, worst, spread, fz)| {
                            Json::Arr(vec![
                                Json::Num(it as f64),
                                Json::Num(best),
                                Json::Num(worst),
                                Json::Num(spread),
                                Json::Num(fz),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "hyperparams".to_string(),
                Json::Arr(
                    self.hyper_rows
                        .iter()
                        .map(|(it, row)| {
                            let mut obj = vec![("iteration".to_string(), Json::Num(*it as f64))];
                            obj.extend(row.iter().map(|(k, v)| (k.clone(), Json::Str(v.clone()))));
                            Json::Obj(obj)
                        })
                        .collect(),
                ),
            ),
            (
                "counters".to_string(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), count(v)))
                        .collect(),
                ),
            ),
        ])
    }

    fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "gp fits        : {} ({} NLML evals, {} bound hits, {} jitter-bumped)",
            self.gp_fits, self.nlml_evals, self.bound_hits, self.jitter_bumped_fits
        );
        if let (Some(lo), Some(hi)) = (self.condition.min, self.condition.max) {
            let _ = writeln!(
                out,
                "conditioning   : κ ∈ [{lo:.3e}, {hi:.3e}], {} jitter bumps",
                self.cholesky_jitter_events
            );
        }
        if self.msp_calls > 0 {
            let _ = writeln!(
                out,
                "acq optimizer  : {} MSP solves, {} local evals, max spread {}, mean frac-zero {:.3}",
                self.msp_calls,
                self.msp_evaluations,
                self.msp_max_spread
                    .map(|s| format!("{s:.3e}"))
                    .unwrap_or_else(|| "n/a".to_string()),
                sorted_mean(self.msp_frac_zeros.clone())
            );
        }
        if self.decisions > 0 {
            let _ = writeln!(
                out,
                "fidelity picks : {}/{} high ({} forced, {} feasibility-driven)",
                self.decisions_high, self.decisions, self.decisions_forced, self.decisions_drive
            );
        }
        out
    }
}

/// Renders the span-tree self-profile from a trace: per-span-name call
/// counts with inclusive (span duration) and exclusive (minus child spans)
/// totals. Timing-derived, so text-report only.
fn span_profile_text(records: &[Json]) -> String {
    struct Frame {
        name: String,
        child_us: u64,
    }
    #[derive(Default)]
    struct Agg {
        calls: u64,
        incl_us: u64,
        excl_us: u64,
    }
    let mut stack: Vec<Frame> = Vec::new();
    let mut agg: BTreeMap<String, Agg> = BTreeMap::new();
    for rec in records {
        let name = rec.get("name").and_then(Json::as_str).unwrap_or("");
        match rec.get("kind").and_then(Json::as_str) {
            Some("span_start") => stack.push(Frame {
                name: name.to_string(),
                child_us: 0,
            }),
            Some("span_end") => {
                let dur = rec
                    .get("fields")
                    .and_then(|f| f.get("dur_us"))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0) as u64;
                // Tolerate a truncated trace (killed run): unwind to the
                // matching open frame if one exists.
                while let Some(frame) = stack.pop() {
                    if frame.name == name {
                        let entry = agg.entry(frame.name).or_default();
                        entry.calls += 1;
                        entry.incl_us += dur;
                        entry.excl_us += dur.saturating_sub(frame.child_us);
                        if let Some(parent) = stack.last_mut() {
                            parent.child_us += dur;
                        }
                        break;
                    }
                }
            }
            _ => {}
        }
    }
    if agg.is_empty() {
        return String::new();
    }
    let total_excl: u64 = agg.values().map(|a| a.excl_us).sum();
    let mut rows: Vec<(&String, &Agg)> = agg.iter().collect();
    rows.sort_by(|a, b| b.1.excl_us.cmp(&a.1.excl_us).then(a.0.cmp(b.0)));
    let mut out = String::new();
    out.push_str("span-tree self-profile (from trace; wall-clock, non-deterministic):\n");
    let _ = writeln!(
        out,
        "{:<18} {:>7} {:>12} {:>12} {:>7}",
        "span", "calls", "incl_ms", "excl_ms", "excl%"
    );
    for (name, a) in rows {
        let _ = writeln!(
            out,
            "{:<18} {:>7} {:>12.3} {:>12.3} {:>6.1}%",
            name,
            a.calls,
            a.incl_us as f64 / 1e3,
            a.excl_us as f64 / 1e3,
            if total_excl > 0 {
                100.0 * a.excl_us as f64 / total_excl as f64
            } else {
                0.0
            }
        );
    }
    out
}

/// Validates `doc` against a minimal JSON-Schema subset: `type` (string or
/// array of strings), `required`, `properties`, and `items`. Enough to pin
/// the report's shape in CI without an external schema library.
///
/// # Errors
///
/// A human-readable path + reason for the first violation found.
pub fn validate_schema(schema: &Json, doc: &Json) -> Result<(), String> {
    fn type_name(v: &Json) -> &'static str {
        match v {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
    fn check(schema: &Json, doc: &Json, path: &str) -> Result<(), String> {
        if let Some(ty) = schema.get("type") {
            let actual = type_name(doc);
            let allowed: Vec<&str> = match ty {
                Json::Str(s) => vec![s.as_str()],
                Json::Arr(items) => items.iter().filter_map(Json::as_str).collect(),
                _ => return Err(format!("{path}: schema \"type\" must be string or array")),
            };
            // JSON has one number type; our codec encodes non-finite floats
            // as null, so number-or-null is a common pairing.
            if !allowed.contains(&actual) {
                return Err(format!("{path}: expected type {allowed:?}, found {actual}"));
            }
        }
        if let Some(Json::Arr(required)) = schema.get("required") {
            for key in required.iter().filter_map(Json::as_str) {
                if doc.get(key).is_none() {
                    return Err(format!("{path}: missing required key {key:?}"));
                }
            }
        }
        if let Some(Json::Obj(props)) = schema.get("properties") {
            for (key, sub) in props {
                if let Some(value) = doc.get(key) {
                    check(sub, value, &format!("{path}.{key}"))?;
                }
            }
        }
        if let Some(items) = schema.get("items") {
            if let Json::Arr(values) = doc {
                for (i, value) in values.iter().enumerate() {
                    check(items, value, &format!("{path}[{i}]"))?;
                }
            }
        }
        Ok(())
    }
    check(schema, doc, "$")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> RunMeta {
        RunMeta {
            format_version: mfbo_runstore::FORMAT_VERSION,
            algo: "mfbo".into(),
            problem: "forrester".into(),
            dim: 1,
            num_constraints: 1,
            rng_start: None,
            batch: None,
            inference: None,
        }
    }

    fn entry(iteration: u64, fid: Fid, obj: f64, con: f64, cost: f64) -> JournalEntry {
        JournalEntry {
            iteration,
            fid,
            x: vec![0.5],
            objective: obj,
            constraints: vec![con],
            cost_after: cost,
            rng: None,
            attempts: 1,
            cached: false,
            quarantined: false,
            warm: false,
            pending: false,
            cand: None,
        }
    }

    fn event(name: &'static str, fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(vec![
            ("t_us".to_string(), Json::Num(1.0)),
            ("level".to_string(), Json::Str("debug".into())),
            ("kind".to_string(), Json::Str("event".into())),
            ("name".to_string(), Json::Str(name.into())),
            ("depth".to_string(), Json::Num(0.0)),
            (
                "fields".to_string(),
                Json::Obj(
                    fields
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), v))
                        .collect(),
                ),
            ),
        ])
    }

    fn gp_fit_event(nlml_evals: f64, condition: f64, jitter: f64) -> Json {
        event(
            "gp_fit",
            vec![
                ("nlml_evals", Json::Num(nlml_evals)),
                ("factorizations", Json::Num(nlml_evals + 1.0)),
                ("lbfgs_iters", Json::Num(4.0)),
                ("bound_hits", Json::Num(1.0)),
                ("condition", Json::Num(condition)),
                ("jitter", Json::Num(jitter)),
                ("log_noise", Json::Num(-4.0)),
            ],
        )
    }

    #[test]
    fn journal_rollup_counts_cost_split_and_sourcing() {
        let mut entries = vec![
            entry(0, Fid::Low, 1.0, -0.5, 1.0),
            entry(0, Fid::High, 2.0, 0.5, 6.0),
            entry(1, Fid::Low, 0.5, -0.5, 7.0),
            entry(2, Fid::High, -1.0, -0.5, 12.0),
        ];
        entries[2].cached = true;
        entries[2].attempts = 3;
        let report = RunReport::analyze(&meta(), &entries, None);
        let evals = report.json().get("evaluations").unwrap();
        let num = |k: &str| evals.get(k).and_then(Json::as_f64).unwrap();
        assert_eq!(num("total"), 4.0);
        assert_eq!(num("low"), 2.0);
        assert_eq!(num("high"), 2.0);
        assert_eq!(num("cached"), 1.0);
        assert_eq!(num("fresh"), 3.0);
        assert_eq!(num("retries"), 2.0);
        assert_eq!(num("cache_hit_rate"), 0.25);
        assert_eq!(num("total_cost"), 12.0);
        let by_fid = evals.get("cost_by_fidelity").unwrap();
        assert_eq!(by_fid.get("low").and_then(Json::as_f64), Some(2.0));
        assert_eq!(by_fid.get("high").and_then(Json::as_f64), Some(10.0));
        // Convergence: only the feasible high entry at cost 12 qualifies.
        let conv = report
            .json()
            .get("convergence")
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(conv.len(), 1);
        let row = conv[0].as_arr().unwrap();
        assert_eq!(row[0].as_f64(), Some(12.0));
        assert_eq!(row[1].as_f64(), Some(-1.0));
        let feas = report.json().get("feasibility").unwrap();
        assert_eq!(feas.get("feasible_evals").and_then(Json::as_f64), Some(3.0));
        assert_eq!(
            feas.get("first_feasible_cost").and_then(Json::as_f64),
            Some(1.0)
        );
        assert!(report.text().contains("cost           : 12.00 total"));
    }

    #[test]
    fn health_rollup_is_permutation_invariant() {
        let entries = vec![entry(0, Fid::High, 1.0, -1.0, 5.0)];
        let trace: Vec<Json> = vec![
            gp_fit_event(10.0, 1e3, 0.0),
            gp_fit_event(20.0, 1e7, 1e-8),
            gp_fit_event(15.0, 1e5, 0.0),
            event(
                "msp",
                vec![
                    ("evaluations", Json::Num(100.0)),
                    ("spread", Json::Num(2.5)),
                    ("frac_zero", Json::Num(0.25)),
                ],
            ),
        ];
        let mut shuffled = trace.clone();
        shuffled.swap(0, 2);
        shuffled.swap(1, 3);
        let a = RunReport::analyze(&meta(), &entries, Some(&trace));
        let b = RunReport::analyze(&meta(), &entries, Some(&shuffled));
        assert_eq!(a.to_json_string(), b.to_json_string());
        let gp = a.json().get("health").unwrap().get("gp_fits").unwrap();
        assert_eq!(gp.get("count").and_then(Json::as_f64), Some(3.0));
        assert_eq!(gp.get("nlml_evals").and_then(Json::as_f64), Some(45.0));
        assert_eq!(
            gp.get("jitter_bumped_fits").and_then(Json::as_f64),
            Some(1.0)
        );
        let cond = gp.get("condition").unwrap();
        assert_eq!(cond.get("min").and_then(Json::as_f64), Some(1e3));
        assert_eq!(cond.get("max").and_then(Json::as_f64), Some(1e7));
    }

    #[test]
    fn nondeterministic_records_are_excluded_from_json() {
        let entries = vec![entry(0, Fid::High, 1.0, -1.0, 5.0)];
        let base: Vec<Json> = vec![gp_fit_event(10.0, 1e3, 0.0)];
        let mut noisy = base.clone();
        // Execution-mode artifacts: pool fan-out counters, SIMD dispatch,
        // session sourcing counters, and differing timings.
        noisy.push(Json::Obj(vec![
            ("t_us".to_string(), Json::Num(999.0)),
            ("kind".to_string(), Json::Str("counter".into())),
            ("name".to_string(), Json::Str("pool_items".into())),
            (
                "fields".to_string(),
                Json::Obj(vec![("value".to_string(), Json::Num(24.0))]),
            ),
        ]));
        noisy.push(Json::Obj(vec![
            ("kind".to_string(), Json::Str("counter".into())),
            ("name".to_string(), Json::Str("eval_cache_hit".into())),
            (
                "fields".to_string(),
                Json::Obj(vec![("value".to_string(), Json::Num(3.0))]),
            ),
        ]));
        noisy.push(event(
            "simd_dispatch",
            vec![("backend", Json::Str("avx2".into()))],
        ));
        let a = RunReport::analyze(&meta(), &entries, Some(&base));
        let b = RunReport::analyze(&meta(), &entries, Some(&noisy));
        assert_eq!(a.to_json_string(), b.to_json_string());
    }

    #[test]
    fn span_profile_computes_exclusive_times() {
        let span = |kind: &str, name: &str, dur: Option<f64>| {
            let mut fields = Vec::new();
            if let Some(d) = dur {
                fields.push(("dur_us".to_string(), Json::Num(d)));
            }
            Json::Obj(vec![
                ("kind".to_string(), Json::Str(kind.into())),
                ("name".to_string(), Json::Str(name.into())),
                ("fields".to_string(), Json::Obj(fields)),
            ])
        };
        let trace = vec![
            span("span_start", "outer", None),
            span("span_start", "inner", None),
            span("span_end", "inner", Some(300.0)),
            span("span_end", "outer", Some(1000.0)),
        ];
        let text = span_profile_text(&trace);
        assert!(text.contains("outer"), "{text}");
        // outer: inclusive 1.0ms, exclusive 0.7ms.
        assert!(text.contains("0.700"), "{text}");
        assert!(text.contains("0.300"), "{text}");
    }

    #[test]
    fn schema_validator_accepts_report_and_rejects_shape_breaks() {
        let entries = vec![entry(0, Fid::High, 1.0, -1.0, 5.0)];
        let report = RunReport::analyze(&meta(), &entries, Some(&[]));
        let schema = json::parse(
            r#"{"type":"object",
                "required":["meta","evaluations","convergence","feasibility"],
                "properties":{
                  "meta":{"type":"object","required":["algo","problem"]},
                  "evaluations":{"type":"object","required":["total","cache_hit_rate"]},
                  "convergence":{"type":"array","items":{"type":"array"}}}}"#,
        )
        .unwrap();
        validate_schema(&schema, report.json()).expect("report matches schema");
        let broken = json::parse(r#"{"meta":{"algo":"mfbo"}}"#).unwrap();
        let err = validate_schema(&schema, &broken).unwrap_err();
        assert!(err.contains("missing required key"), "{err}");
        let wrong_type = json::parse(
            r#"{"meta":{"algo":"mfbo","problem":"f"},"evaluations":{"total":1,"cache_hit_rate":0},
                "convergence":"oops","feasibility":{}}"#,
        )
        .unwrap();
        let err = validate_schema(&schema, &wrong_type).unwrap_err();
        assert!(err.contains("convergence"), "{err}");
    }
}
