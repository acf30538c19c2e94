//! Command-line driver: run any built-in problem with any algorithm.
//!
//! ```text
//! mfbo-cli --problem pa --algo mf --budget 40 --seed 7 --csv trace.csv
//! ```
//!
//! Problems: `forrester`, `pedagogical`, `branin`, `park`, `pa`,
//! `charge-pump`. Algorithms: `mf` (the paper's method), `weibo`,
//! `gaspad`, `de`.
//!
//! Observability: `--trace out.jsonl` streams structured telemetry records
//! (one JSON object per line) to a file; `--verbosity info|debug|trace`
//! additionally mirrors records to stderr in human-readable form and raises
//! the level captured by the trace file.
//!
//! Durability (algorithms `mf` and `weibo`): `--journal DIR` write-ahead
//! journals every evaluation into DIR; `--resume` replays the journal after
//! an interruption, reproducing the original trajectory bit for bit;
//! `--cache` serves repeated evaluations from a cross-run cache in DIR;
//! `--warm-start` seeds the low-fidelity surrogate from that cache.
//! `--on-non-finite penalize` keeps a run alive across failing simulations
//! (with `--retries N` attempts first) instead of aborting.
//!
//! Metrics: `--metrics out.json` aggregates telemetry into the deterministic
//! metrics registry and writes a JSON snapshot; `--metrics-prom out.txt`
//! writes the same snapshot in Prometheus text exposition format.
//!
//! Offline analysis: `mfbo-cli report --journal DIR [--trace FILE]` joins a
//! journaled run with its telemetry trace and prints a text report (JSON via
//! `--report FILE`, shape-checked against a schema via `--schema FILE`).

use analog_mfbo::prelude::*;
use mfbo::problem::MultiFidelityProblem;
use mfbo::report;
use mfbo::run_report::{self, RunReport};
use mfbo::{InferenceMode, NonFinitePolicy, RunOptions, RunStore};
use mfbo_server::problems::make_problem;
use mfbo_telemetry::metrics::MetricsRegistry;
use mfbo_telemetry::sinks::{JsonlSink, MultiSink, PrettySink};
use mfbo_telemetry::{Level, Sink};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    problem: String,
    algo: String,
    budget: f64,
    initial_low: usize,
    initial_high: usize,
    seed: u64,
    csv: Option<String>,
    convergence: Option<String>,
    trace: Option<String>,
    metrics: Option<String>,
    metrics_prom: Option<String>,
    verbosity: Option<Level>,
    threads: Parallelism,
    journal: Option<String>,
    resume: bool,
    cache: bool,
    warm_start: bool,
    on_non_finite: NonFinitePolicy,
    retries: u32,
    max_evals: Option<u64>,
    simd: Option<mfbo_simd::SimdMode>,
    gp_inference: InferenceMode,
    refit_every: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            problem: "forrester".into(),
            algo: "mf".into(),
            budget: 20.0,
            initial_low: 10,
            initial_high: 5,
            seed: 0,
            csv: None,
            convergence: None,
            trace: None,
            metrics: None,
            metrics_prom: None,
            verbosity: None,
            // Results are bit-identical in every mode, so the CLI defaults
            // to all cores (or the MFBO_THREADS override).
            threads: Parallelism::Auto,
            journal: None,
            resume: false,
            cache: false,
            warm_start: false,
            on_non_finite: NonFinitePolicy::Abort,
            retries: 0,
            max_evals: None,
            // None = defer to MFBO_SIMD (unset → auto detection).
            simd: None,
            gp_inference: InferenceMode::Exact,
            refit_every: 1,
        }
    }
}

const USAGE: &str = "usage: mfbo-cli [--problem NAME] [--algo mf|weibo|gaspad|de]
                [--budget N] [--init-low N] [--init-high N]
                [--seed N] [--csv FILE] [--convergence FILE]
                [--trace FILE] [--verbosity info|debug|trace]
                [--metrics FILE] [--metrics-prom FILE]
                [--threads N|auto]
                [--journal DIR] [--resume] [--cache] [--warm-start]
                [--on-non-finite abort|penalize] [--retries N]
                [--max-evals N] [--simd scalar|auto]
                [--gp-inference exact|subset-of-data]
                [--refit-every N]
       mfbo-cli report --journal DIR [--trace FILE] [--report FILE]
                [--schema FILE]

problems: forrester, pedagogical, branin, park, pa, charge-pump

--threads picks the worker count for the deterministic thread pool
(default: auto = all cores, or the MFBO_THREADS environment variable when
set). Results are bit-identical for every thread count.

--journal DIR write-ahead journals every evaluation into DIR (algorithms
mf and weibo). --resume replays that journal after an interruption and
continues the run, reproducing the uninterrupted trajectory bit for bit.
--cache serves repeated evaluations from a cross-run cache in DIR;
--warm-start additionally seeds the low-fidelity surrogate from it (mf
with --init-low > 0; weibo has no low-fidelity surrogate).
--on-non-finite penalize substitutes a penalty for failing simulations
(after --retries N attempts) instead of aborting; --max-evals caps fresh
simulator calls.

--simd picks the vectorized micro-kernel backend (default: auto = best
runtime-detected instruction set, or the MFBO_SIMD environment variable
when set). Results are bit-identical for every backend.

--gp-inference picks the GP inference engine for algorithms mf and weibo
(default: exact). 'subset-of-data' caps the cubic surrogate cost once a run
accumulates more observations than the subset size (1024) — see the README
section on scaling to thousands of observations. Subset runs are still
deterministic and journal-replayable.

--refit-every N re-optimizes surrogate hyperparameters every N iterations
(default 1; algorithms mf and weibo), refreshing the models with frozen
hyperparameters in between — the amortized-refit schedule.

--metrics FILE aggregates telemetry into histograms/counters/gauges with
deterministic fixed bucket edges and writes the snapshot as JSON;
--metrics-prom FILE writes the same snapshot as a Prometheus text
exposition.

The report subcommand analyzes a finished (or interrupted) journaled run
offline: it prints a text report to stdout and, with --report FILE, writes
a deterministic JSON report (bit-identical across thread counts, SIMD
backends, and resume). --schema FILE validates the JSON report against a
minimal JSON-Schema subset and fails nonzero on a shape break.";

/// Parses arguments; returns an error message on malformed input.
fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--problem" => opts.problem = value("--problem")?,
            "--algo" => opts.algo = value("--algo")?,
            "--budget" => {
                let v: f64 = value("--budget")?
                    .parse()
                    .map_err(|_| "budget must be a number".to_string())?;
                // NaN would slip past the loop's `<= 0` guard; reject here.
                if !(v > 0.0 && v.is_finite()) {
                    return Err("budget must be positive and finite".to_string());
                }
                opts.budget = v;
            }
            "--init-low" => {
                opts.initial_low = value("--init-low")?
                    .parse()
                    .map_err(|_| "init-low must be an integer".to_string())?
            }
            "--init-high" => {
                opts.initial_high = value("--init-high")?
                    .parse()
                    .map_err(|_| "init-high must be an integer".to_string())?
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "seed must be an integer".to_string())?
            }
            "--csv" => opts.csv = Some(value("--csv")?),
            "--convergence" => opts.convergence = Some(value("--convergence")?),
            "--trace" => opts.trace = Some(value("--trace")?),
            "--metrics" => opts.metrics = Some(value("--metrics")?),
            "--metrics-prom" => opts.metrics_prom = Some(value("--metrics-prom")?),
            "--verbosity" => {
                let v = value("--verbosity")?;
                opts.verbosity = Some(
                    Level::parse(&v)
                        .ok_or_else(|| "verbosity must be info, debug, or trace".to_string())?,
                );
            }
            "--threads" => {
                let v = value("--threads")?;
                opts.threads = Parallelism::parse(&v)
                    .ok_or_else(|| "threads must be a positive integer or 'auto'".to_string())?;
            }
            "--journal" => opts.journal = Some(value("--journal")?),
            "--resume" => opts.resume = true,
            "--cache" => opts.cache = true,
            "--warm-start" => opts.warm_start = true,
            "--on-non-finite" => {
                let v = value("--on-non-finite")?;
                opts.on_non_finite = NonFinitePolicy::parse(&v)
                    .ok_or_else(|| "on-non-finite must be 'abort' or 'penalize'".to_string())?;
            }
            "--retries" => {
                opts.retries = value("--retries")?
                    .parse()
                    .map_err(|_| "retries must be a non-negative integer".to_string())?
            }
            "--max-evals" => {
                opts.max_evals = Some(
                    value("--max-evals")?
                        .parse()
                        .map_err(|_| "max-evals must be a positive integer".to_string())?,
                )
            }
            "--simd" => {
                let v = value("--simd")?;
                opts.simd = Some(
                    mfbo_simd::SimdMode::parse(&v)
                        .ok_or_else(|| "simd must be 'scalar' or 'auto'".to_string())?,
                );
            }
            "--gp-inference" => {
                opts.gp_inference = InferenceMode::parse(&value("--gp-inference")?)?;
            }
            "--refit-every" => {
                let v: usize = value("--refit-every")?
                    .parse()
                    .map_err(|_| "refit-every must be a positive integer".to_string())?;
                if v == 0 {
                    return Err("refit-every must be a positive integer".to_string());
                }
                opts.refit_every = v;
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if opts.journal.is_none() && (opts.resume || opts.cache || opts.warm_start) {
        return Err("--resume, --cache, and --warm-start require --journal DIR".into());
    }
    // The journal, the refit schedule and the inference engine all belong
    // to the GP-surrogate loops.
    if !matches!(opts.algo.as_str(), "mf" | "weibo") {
        for (flag, set) in [
            ("--journal", opts.journal.is_some()),
            ("--refit-every", opts.refit_every != 1),
            ("--gp-inference", !opts.gp_inference.is_exact()),
        ] {
            if set {
                return Err(format!(
                    "{flag} is only supported for algorithms 'mf' and 'weibo', not '{}'",
                    opts.algo
                ));
            }
        }
    }
    if opts.warm_start && (opts.algo != "mf" || opts.initial_low == 0) {
        return Err(
            "--warm-start seeds the low-fidelity surrogate, so it needs --algo mf with \
             --init-low > 0"
                .into(),
        );
    }
    Ok(opts)
}

/// Assembles the durability/fault-tolerance options from flags that
/// [`parse_args`] has already validated.
fn make_run_options(opts: &Options) -> Result<RunOptions, String> {
    let mut ro = RunOptions::default();
    ro.policy.max_retries = opts.retries;
    ro.policy.non_finite = opts.on_non_finite;
    ro.policy.max_evaluations = opts.max_evals;
    ro.resume = opts.resume;
    ro.cache = opts.cache;
    ro.warm_start = opts.warm_start;
    if let Some(dir) = &opts.journal {
        ro.store = Some(RunStore::open(dir).map_err(|e| e.to_string())?);
    }
    Ok(ro)
}

/// Runs the selected algorithm with options [`parse_args`] has validated.
fn run_algo(opts: &Options, problem: &dyn MultiFidelityProblem) -> Result<mfbo::Outcome, String> {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let budget_int = opts.budget.round().max(2.0) as usize;
    match opts.algo.as_str() {
        "mf" => MfBayesOpt::new(MfBoConfig {
            initial_low: opts.initial_low,
            initial_high: opts.initial_high,
            budget: opts.budget,
            parallelism: opts.threads,
            gp_inference: opts.gp_inference,
            refit_every: opts.refit_every,
            ..MfBoConfig::default()
        })
        .run_with(&problem, &mut rng, &mut make_run_options(opts)?)
        .map_err(|e| e.to_string()),
        "weibo" => {
            let mut cfg = WeiboConfig {
                initial_points: opts.initial_high.max(4),
                budget: budget_int,
                parallelism: opts.threads,
                refit_every: opts.refit_every,
                ..WeiboConfig::default()
            };
            cfg.model.inference = opts.gp_inference;
            Weibo::new(cfg)
                .run_with(&problem, &mut rng, &mut make_run_options(opts)?)
                .map_err(|e| e.to_string())
        }
        "gaspad" => Gaspad::new(GaspadConfig {
            initial_points: opts.initial_high.max(8),
            budget: budget_int,
            ..GaspadConfig::default()
        })
        .run(&problem, &mut rng)
        .map_err(|e| e.to_string()),
        "de" => DifferentialEvolutionBaseline::new(DeBaselineConfig {
            budget: budget_int,
            ..DeBaselineConfig::default()
        })
        .run(&problem, &mut rng)
        .map_err(|e| e.to_string()),
        other => Err(format!("unknown algorithm '{other}'\n{USAGE}")),
    }
}

/// Builds the telemetry sink implied by `--trace` / `--verbosity` /
/// `--metrics*`.
///
/// The trace file always captures at least Debug (the solver-internals tier)
/// so a saved trace is useful for post-mortems; `--verbosity trace` raises
/// it. The stderr mirror only appears when `--verbosity` is given. When
/// either metrics flag is set, a [`MetricsRegistry`] joins the fan-out and
/// is returned separately so the run can snapshot it afterwards.
#[allow(clippy::type_complexity)]
fn make_sink(
    opts: &Options,
) -> Result<(Option<Arc<dyn Sink>>, Option<Arc<MetricsRegistry>>), String> {
    let mut sinks: Vec<Arc<dyn Sink>> = Vec::new();
    if let Some(path) = &opts.trace {
        let file_level = opts.verbosity.unwrap_or(Level::Debug).max(Level::Debug);
        let sink = JsonlSink::create(path, file_level)
            .map_err(|e| format!("cannot create {path}: {e}"))?;
        sinks.push(Arc::new(sink));
    }
    if let Some(level) = opts.verbosity {
        sinks.push(Arc::new(PrettySink::stderr(level)));
    }
    let registry = if opts.metrics.is_some() || opts.metrics_prom.is_some() {
        let registry = Arc::new(MetricsRegistry::new());
        sinks.push(registry.clone());
        Some(registry)
    } else {
        None
    };
    let sink = match sinks.len() {
        0 => None,
        1 => sinks.pop(),
        _ => Some(Arc::new(MultiSink::new(sinks)) as Arc<dyn Sink>),
    };
    Ok((sink, registry))
}

/// Verifies an output path is writable *before* the (potentially long) run,
/// so a typo'd directory fails in milliseconds, not after the last
/// simulation. Creates/truncates the file; it is rewritten after the run.
fn preflight_output(path: &str) -> Result<(), String> {
    std::fs::File::create(path)
        .map(drop)
        .map_err(|e| format!("cannot create {path}: {e}"))
}

/// Options for the `report` subcommand.
#[derive(Debug, Clone, Default, PartialEq)]
struct ReportOptions {
    journal: String,
    trace: Option<String>,
    report: Option<String>,
    schema: Option<String>,
}

/// Parses `mfbo-cli report ...` arguments (everything after the subcommand).
fn parse_report_args<I: IntoIterator<Item = String>>(args: I) -> Result<ReportOptions, String> {
    let mut opts = ReportOptions::default();
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--journal" => opts.journal = value("--journal")?,
            "--trace" => opts.trace = Some(value("--trace")?),
            "--report" => opts.report = Some(value("--report")?),
            "--schema" => opts.schema = Some(value("--schema")?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown report flag {other}\n{USAGE}")),
        }
    }
    if opts.journal.is_empty() {
        return Err(format!("report requires --journal DIR\n{USAGE}"));
    }
    Ok(opts)
}

/// Runs the `report` subcommand: load journal (+ trace), analyze, validate,
/// print, write. Returns an error message for a nonzero exit.
fn run_report_command(opts: &ReportOptions) -> Result<(), String> {
    if let Some(path) = &opts.report {
        preflight_output(path)?;
    }
    let trace_path = opts.trace.as_deref().map(Path::new);
    let report = RunReport::from_store(&opts.journal, trace_path).map_err(|e| e.to_string())?;
    if let Some(path) = &opts.schema {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let schema = mfbo_telemetry::json::parse(&text)
            .map_err(|e| format!("invalid schema {path}: {e}"))?;
        run_report::validate_schema(&schema, report.json())
            .map_err(|e| format!("report violates schema {path}: {e}"))?;
    }
    print!("{}", report.text());
    if let Some(path) = &opts.report {
        std::fs::write(path, report.to_json_string())
            .map_err(|e| format!("failed to write {path}: {e}"))?;
        println!("json report written to {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("report") {
        let parsed = parse_report_args(args.skip(1));
        return match parsed.and_then(|o| run_report_command(&o)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("{msg}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = match parse_args(args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let problem = match make_problem(&opts.problem, None) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    for path in opts
        .csv
        .iter()
        .chain(&opts.convergence)
        .chain(&opts.metrics)
        .chain(&opts.metrics_prom)
    {
        if let Err(msg) = preflight_output(path) {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    }
    // Preflight MFBO_SIMD before any hot path resolves the backend: a
    // typo'd value exits nonzero with a clean message instead of panicking
    // mid-run. A --simd flag overrides the variable, so it needs no check.
    if opts.simd.is_none() {
        if let Err(msg) = mfbo_simd::backend_from_env() {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    }
    let registry = match make_sink(&opts) {
        Ok((sink, registry)) => {
            if let Some(sink) = sink {
                mfbo_telemetry::set_global_sink(sink);
            }
            registry
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    // Resolve the SIMD backend after the sink is installed so the
    // `simd_dispatch` decision event lands in --trace output.
    let simd_backend = match opts.simd {
        Some(mode) => mfbo_simd::force(mode),
        None => mfbo_simd::active(),
    };
    println!(
        "running {} on {} (budget {}, seed {}, {} worker thread(s), simd {})",
        opts.algo,
        problem.name(),
        opts.budget,
        opts.seed,
        opts.threads.workers(),
        simd_backend.name(),
    );
    let mut outcome = match run_algo(&opts, problem.as_ref()) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("optimization failed: {msg}");
            mfbo_telemetry::clear_global_sink();
            return ExitCode::FAILURE;
        }
    };
    // Flush the trace file before printing the summary.
    mfbo_telemetry::clear_global_sink();
    if let Some(registry) = &registry {
        registry.set_gauge("best_objective", outcome.best_objective);
        registry.set_gauge("total_cost", outcome.total_cost);
        registry.set_gauge("cost_to_best", outcome.cost_to_best);
        registry.set_gauge("evals_low", outcome.n_low as f64);
        registry.set_gauge("evals_high", outcome.n_high as f64);
        registry.set_gauge("feasible", f64::from(u8::from(outcome.feasible)));
        let snapshot = registry.snapshot();
        if let Some(path) = &opts.metrics {
            if let Err(e) = std::fs::write(path, format!("{}\n", snapshot.to_json())) {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("metrics snapshot written to {path}");
        }
        if let Some(path) = &opts.metrics_prom {
            if let Err(e) = std::fs::write(path, snapshot.to_prometheus()) {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("prometheus metrics written to {path}");
        }
        outcome.telemetry.metrics = Some(snapshot);
    }
    println!("{}", report::summary(&outcome));
    if !outcome.telemetry.stages.is_empty() {
        println!("\n{}", outcome.telemetry.stage_table());
    }
    let decisions = outcome.telemetry.decision_table();
    if !decisions.is_empty() {
        println!("{decisions}");
    }
    if let Some(path) = &opts.trace {
        println!("telemetry trace written to {path}");
    }
    if let Some(dir) = &opts.journal {
        println!("evaluation journal in {dir}");
    }

    if let Some(path) = &opts.csv {
        match std::fs::File::create(path) {
            Ok(f) => {
                if let Err(e) = report::write_history_csv(&outcome, f) {
                    eprintln!("failed to write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("history written to {path}");
            }
            Err(e) => {
                eprintln!("cannot create {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &opts.convergence {
        match std::fs::File::create(path) {
            Ok(f) => {
                if let Err(e) = report::write_convergence_csv(&outcome, f) {
                    eprintln!("failed to write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("convergence trace written to {path}");
            }
            Err(e) => {
                eprintln!("cannot create {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_full_flag_set() {
        let o = parse_args(args(
            "--problem pa --algo weibo --budget 33.5 --init-low 7 --init-high 3 --seed 9 --csv a.csv --convergence b.csv",
        ))
        .unwrap();
        assert_eq!(o.problem, "pa");
        assert_eq!(o.algo, "weibo");
        assert_eq!(o.budget, 33.5);
        assert_eq!(o.initial_low, 7);
        assert_eq!(o.initial_high, 3);
        assert_eq!(o.seed, 9);
        assert_eq!(o.csv.as_deref(), Some("a.csv"));
        assert_eq!(o.convergence.as_deref(), Some("b.csv"));
    }

    #[test]
    fn defaults_apply() {
        let o = parse_args(args("")).unwrap();
        assert_eq!(o, Options::default());
    }

    #[test]
    fn rejects_unknown_flag_and_bad_values() {
        assert!(parse_args(args("--bogus 1")).is_err());
        assert!(parse_args(args("--budget abc")).is_err());
        assert!(parse_args(args("--seed")).is_err());
        assert!(parse_args(args("--verbosity loud")).is_err());
        assert!(parse_args(args("--budget NaN")).is_err());
        assert!(parse_args(args("--budget -3")).is_err());
        assert!(parse_args(args("--budget inf")).is_err());
        assert!(parse_args(args("--on-non-finite shrug")).is_err());
        assert!(parse_args(args("--retries -1")).is_err());
    }

    #[test]
    fn parses_simd_flag_and_rejects_unknown() {
        let o = parse_args(args("--simd scalar")).unwrap();
        assert_eq!(o.simd, Some(mfbo_simd::SimdMode::Scalar));
        let o = parse_args(args("--simd auto")).unwrap();
        assert_eq!(o.simd, Some(mfbo_simd::SimdMode::Auto));
        assert_eq!(parse_args(args("")).unwrap().simd, None);
        let e = parse_args(args("--simd avx512")).unwrap_err();
        assert!(e.contains("'scalar' or 'auto'"), "{e}");
        assert!(parse_args(args("--simd")).is_err());
    }

    #[test]
    fn parses_gp_inference_flag_and_rejects_unknown() {
        assert_eq!(
            parse_args(args("")).unwrap().gp_inference,
            InferenceMode::Exact
        );
        assert_eq!(
            parse_args(args("--gp-inference exact"))
                .unwrap()
                .gp_inference,
            InferenceMode::Exact
        );
        assert_eq!(
            parse_args(args("--gp-inference subset-of-data"))
                .unwrap()
                .gp_inference,
            InferenceMode::subset_of_data()
        );
        for bad in ["cholmod", "iterative"] {
            let e = parse_args(args(&format!("--gp-inference {bad}"))).unwrap_err();
            assert!(e.contains("unknown inference mode"), "{e}");
            assert!(e.contains("exact|subset-of-data"), "{e}");
        }
        assert!(parse_args(args("--gp-inference")).is_err());
    }

    #[test]
    fn parses_refit_and_warm_start_flags() {
        let o = parse_args(args("--refit-every 4 --journal runs/a --warm-start")).unwrap();
        assert_eq!(o.refit_every, 4);
        assert!(o.warm_start);
        let d = parse_args(args("")).unwrap();
        assert_eq!(d.refit_every, 1);
        assert!(!d.warm_start);
    }

    #[test]
    fn rejects_bad_refit_and_warm_start_values() {
        let e = parse_args(args("--refit-every 0")).unwrap_err();
        assert!(e.contains("positive integer"), "{e}");
        assert!(parse_args(args("--refit-every abc")).is_err());
        assert!(parse_args(args("--refit-every")).is_err());
        // The refit schedule is rejected for algorithms without surrogates.
        let e = parse_args(args("--algo de --refit-every 4")).unwrap_err();
        assert!(e.contains("'mf' and 'weibo'"), "{e}");
        // The removed per-run warm-start knobs are unknown flags now.
        for old in [
            "--warm-start-thetas",
            "--adaptive-restarts 3",
            "--acq-warm-start",
        ] {
            let e = parse_args(args(old)).unwrap_err();
            assert!(e.starts_with("unknown flag"), "{e}");
        }
    }

    #[test]
    fn gp_inference_rejected_for_non_gp_algorithms() {
        for algo in ["de", "gaspad"] {
            let e = parse_args(args(&format!(
                "--algo {algo} --gp-inference subset-of-data"
            )))
            .unwrap_err();
            assert!(
                e.contains("--gp-inference is only supported for algorithms 'mf' and 'weibo'"),
                "{e}"
            );
        }
        // The default (exact) engine is not an explicit choice.
        assert!(parse_args(args("--algo de --gp-inference exact")).is_ok());
    }

    #[test]
    fn warm_start_requires_a_low_fidelity_design() {
        for flags in [
            "--algo weibo --journal runs/a --warm-start",
            "--algo mf --init-low 0 --journal runs/a --warm-start",
        ] {
            let e = parse_args(args(flags)).unwrap_err();
            assert!(e.contains("low-fidelity surrogate"), "{flags}: {e}");
        }
        assert!(parse_args(args("--algo mf --journal runs/a --warm-start")).is_ok());
    }

    #[test]
    fn parses_durability_flags() {
        let o = parse_args(args(
            "--journal runs/a --resume --cache --warm-start --on-non-finite penalize --retries 3 --max-evals 100",
        ))
        .unwrap();
        assert_eq!(o.journal.as_deref(), Some("runs/a"));
        assert!(o.resume && o.cache && o.warm_start);
        assert!(matches!(
            o.on_non_finite,
            NonFinitePolicy::PenalizeAndQuarantine { .. }
        ));
        assert_eq!(o.retries, 3);
        assert_eq!(o.max_evals, Some(100));
    }

    #[test]
    fn durability_flags_without_journal_or_with_wrong_algo_fail() {
        for flag in ["--resume", "--cache", "--warm-start"] {
            let e = parse_args(args(flag)).unwrap_err();
            assert!(e.contains("require --journal"), "{flag}: {e}");
        }
        let e = parse_args(args("--algo de --journal runs/a")).unwrap_err();
        assert!(e.contains("--journal is only supported"), "{e}");
        assert!(e.contains("not 'de'"), "{e}");
    }

    #[test]
    fn preflight_catches_unwritable_paths() {
        assert!(preflight_output("/nonexistent-dir/trace.csv").is_err());
        let ok = std::env::temp_dir().join(format!("mfbo-cli-preflight-{}", std::process::id()));
        let ok = ok.to_str().unwrap();
        assert!(preflight_output(ok).is_ok());
        let _ = std::fs::remove_file(ok);
    }

    #[test]
    fn parses_telemetry_flags() {
        let o = parse_args(args("--trace t.jsonl --verbosity debug")).unwrap();
        assert_eq!(o.trace.as_deref(), Some("t.jsonl"));
        assert_eq!(o.verbosity, Some(Level::Debug));
        // Trace-only runs still get a (file) sink; quiet runs get none.
        let (sink, registry) = make_sink(&parse_args(args("")).unwrap()).unwrap();
        assert!(sink.is_none() && registry.is_none());
    }

    #[test]
    fn parses_metrics_flags_and_builds_registry_sink() {
        let o = parse_args(args("--metrics m.json --metrics-prom m.txt")).unwrap();
        assert_eq!(o.metrics.as_deref(), Some("m.json"));
        assert_eq!(o.metrics_prom.as_deref(), Some("m.txt"));
        let (sink, registry) = make_sink(&o).unwrap();
        assert!(sink.is_some() && registry.is_some());
        assert!(parse_args(args("--metrics")).is_err());
    }

    #[test]
    fn parses_report_subcommand_args() {
        let o = parse_report_args(args(
            "--journal runs/a --trace t.jsonl --report r.json --schema s.json",
        ))
        .unwrap();
        assert_eq!(o.journal, "runs/a");
        assert_eq!(o.trace.as_deref(), Some("t.jsonl"));
        assert_eq!(o.report.as_deref(), Some("r.json"));
        assert_eq!(o.schema.as_deref(), Some("s.json"));
        let e = parse_report_args(args("--trace t.jsonl")).unwrap_err();
        assert!(e.contains("--journal"), "{e}");
        assert!(parse_report_args(args("--journal a --bogus x")).is_err());
    }

    #[test]
    fn report_command_preflights_unwritable_output() {
        let o = ReportOptions {
            journal: "does-not-matter".into(),
            report: Some("/nonexistent-dir/report.json".into()),
            ..ReportOptions::default()
        };
        let e = run_report_command(&o).unwrap_err();
        assert!(e.contains("cannot create"), "{e}");
        // A missing journal dir fails *after* preflight, with a store error.
        let o = ReportOptions {
            journal: "/nonexistent-dir/journal".into(),
            ..ReportOptions::default()
        };
        let e = run_report_command(&o).unwrap_err();
        assert!(e.contains("no run found"), "{e}");
    }

    #[test]
    fn parses_thread_specs() {
        assert_eq!(
            parse_args(args("--threads 4")).unwrap().threads,
            Parallelism::Threads(4)
        );
        assert_eq!(
            parse_args(args("--threads 1")).unwrap().threads,
            Parallelism::Serial
        );
        assert_eq!(
            parse_args(args("--threads auto")).unwrap().threads,
            Parallelism::Auto
        );
        assert!(parse_args(args("--threads fast")).is_err());
        assert_eq!(parse_args(args("")).unwrap().threads, Parallelism::Auto);
    }

    #[test]
    fn help_prints_usage() {
        let e = parse_args(args("--help")).unwrap_err();
        assert!(e.contains("usage"));
    }

    #[test]
    fn end_to_end_tiny_run() {
        let opts = Options {
            problem: "forrester".into(),
            algo: "mf".into(),
            budget: 6.0,
            initial_low: 6,
            initial_high: 3,
            seed: 1,
            threads: Parallelism::Serial,
            ..Options::default()
        };
        let p = make_problem(&opts.problem, None).unwrap();
        let o = run_algo(&opts, p.as_ref()).unwrap();
        assert!(o.best_objective.is_finite());
    }
}
