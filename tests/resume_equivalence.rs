//! Kill-and-resume equivalence harness for the durable run store: an
//! interrupted run resumed from its evaluation journal must reproduce the
//! uninterrupted trajectory **bit for bit** — same history, same best
//! design, same cost accounting (with replayed evaluations billed but not
//! re-simulated). Also covers the cross-run evaluation cache (trajectory
//! neutrality + warm rerun hits), cache-driven warm-starting, and the
//! fault-tolerant evaluator policies end to end.
//!
//! The "kill" is simulated two ways: a truncated `max_iterations` /
//! `budget` (clean shutdown mid-run) and an injected simulator panic
//! (crash mid-evaluation, nothing journaled for the in-flight point).
//!
//! To regenerate the pinned history snapshot after an *intentional*
//! behaviour change:
//!
//! ```text
//! MFBO_REGEN_GOLDEN=1 cargo test --test resume_equivalence
//! ```

use analog_mfbo::circuits::testfns;
use analog_mfbo::prelude::*;
use mfbo::report::write_history_csv;
use mfbo::Outcome;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Fresh per-test store directory under the system tmpdir. Wiped on entry so
/// reruns of the suite never resume from a stale journal.
fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mfbo-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Field-wise bit-exact comparison (telemetry and eval accounting excluded:
/// *how* an evaluation was sourced may differ between runs; *what* the
/// optimizer decided must not).
fn assert_outcomes_identical(a: &Outcome, b: &Outcome, label: &str) {
    assert_eq!(a.best_x, b.best_x, "{label}: best_x");
    assert_eq!(
        a.best_evaluation, b.best_evaluation,
        "{label}: best_evaluation"
    );
    assert!(
        a.best_objective.to_bits() == b.best_objective.to_bits(),
        "{label}: best_objective {} vs {}",
        a.best_objective,
        b.best_objective
    );
    assert_eq!(a.feasible, b.feasible, "{label}: feasible");
    assert_eq!(a.n_low, b.n_low, "{label}: n_low");
    assert_eq!(a.n_high, b.n_high, "{label}: n_high");
    assert!(
        a.total_cost.to_bits() == b.total_cost.to_bits(),
        "{label}: total_cost"
    );
    assert!(
        a.cost_to_best.to_bits() == b.cost_to_best.to_bits(),
        "{label}: cost_to_best"
    );
    assert_eq!(a.history.len(), b.history.len(), "{label}: history length");
    for (i, (ra, rb)) in a.history.iter().zip(&b.history).enumerate() {
        assert_eq!(ra, rb, "{label}: history record {i}");
    }
}

/// The full-run cost must be split exactly across the three sources.
fn assert_costs_reconcile(out: &Outcome, label: &str) {
    let st = &out.eval_stats;
    let split = st.fresh_cost + st.replayed_cost + st.cached_cost;
    assert!(
        (split - out.total_cost).abs() <= 1e-9 * out.total_cost.abs().max(1.0),
        "{label}: fresh {} + replayed {} + cached {} != total {}",
        st.fresh_cost,
        st.replayed_cost,
        st.cached_cost,
        out.total_cost
    );
}

fn history_csv(out: &Outcome) -> Vec<u8> {
    let mut buf = Vec::new();
    write_history_csv(out, &mut buf).unwrap();
    buf
}

fn mfbo_config(budget: f64, parallelism: Parallelism) -> MfBoConfig {
    MfBoConfig {
        initial_low: 8,
        initial_high: 4,
        budget,
        parallelism,
        ..MfBoConfig::default()
    }
}

/// Runs MFBO to completion with `opts`.
fn run_mfbo(
    problem: &dyn MultiFidelityProblem,
    seed: u64,
    config: MfBoConfig,
    opts: &mut RunOptions,
) -> Outcome {
    let mut rng = StdRng::seed_from_u64(seed);
    MfBayesOpt::new(config)
        .run_with(problem, &mut rng, opts)
        .unwrap()
}

/// Journals a partial MFBO run into `dir`, stopping after `iterations` BO
/// iterations — the clean-shutdown flavour of a kill.
fn interrupt_mfbo(
    problem: &dyn MultiFidelityProblem,
    seed: u64,
    budget: f64,
    iterations: usize,
    dir: &Path,
) {
    let mut opts = RunOptions::journaled(RunStore::open(dir).unwrap());
    let config = MfBoConfig {
        max_iterations: iterations,
        ..mfbo_config(budget, Parallelism::Serial)
    };
    run_mfbo(problem, seed, config, &mut opts);
}

#[test]
fn mfbo_resume_is_bit_identical_and_costs_reconcile() {
    let problem = testfns::forrester();
    let baseline = run_mfbo(
        &problem,
        7,
        mfbo_config(10.0, Parallelism::Serial),
        &mut RunOptions::default(),
    );

    // Serial resume of a run interrupted after 3 BO iterations.
    let dir = store_dir("mfbo-serial");
    interrupt_mfbo(&problem, 7, 10.0, 3, &dir);
    let mut opts = RunOptions::resuming(RunStore::open(&dir).unwrap());
    let resumed = run_mfbo(
        &problem,
        7,
        mfbo_config(10.0, Parallelism::Serial),
        &mut opts,
    );
    assert_outcomes_identical(&baseline, &resumed, "serial resume");
    assert_eq!(
        history_csv(&baseline),
        history_csv(&resumed),
        "serial resume: history CSV bytes"
    );
    let st = &resumed.eval_stats;
    assert!(
        st.replayed >= 15,
        "expected initial design + 3 iterations replayed, got {}",
        st.replayed
    );
    assert!(
        st.fresh > 0,
        "the resumed run must finish the remaining budget fresh"
    );
    assert_costs_reconcile(&resumed, "serial resume");

    // Resuming the now-complete journal replays everything: zero fresh
    // simulator calls, same outcome.
    let mut opts = RunOptions::resuming(RunStore::open(&dir).unwrap());
    let replayed = run_mfbo(
        &problem,
        7,
        mfbo_config(10.0, Parallelism::Serial),
        &mut opts,
    );
    assert_outcomes_identical(&baseline, &replayed, "full replay");
    assert_eq!(
        replayed.eval_stats.fresh, 0,
        "full replay must not re-simulate"
    );
    assert!(replayed.eval_stats.replayed > 0);
    assert_costs_reconcile(&replayed, "full replay");

    // A journal written serially must also resume bit-identically under the
    // thread pool (the parallelism knob is a pure performance lever).
    let dir = store_dir("mfbo-threads");
    interrupt_mfbo(&problem, 7, 10.0, 3, &dir);
    let mut opts = RunOptions::resuming(RunStore::open(&dir).unwrap());
    let threaded = run_mfbo(
        &problem,
        7,
        mfbo_config(10.0, Parallelism::Threads(4)),
        &mut opts,
    );
    assert_outcomes_identical(&baseline, &threaded, "threads(4) resume");
    assert_eq!(
        history_csv(&baseline),
        history_csv(&threaded),
        "threads(4) resume: history CSV bytes"
    );
    assert_costs_reconcile(&threaded, "threads(4) resume");

    check_history_against_golden("resume_forrester_seed7_history.csv", &resumed);
}

/// A journal written by a GP inference engine this build no longer has
/// ("iterative") is refused with the readable meta-mismatch error, whatever
/// engine the resume asks for, instead of replaying into a diverged run.
#[test]
fn journal_from_a_retired_inference_engine_is_refused() {
    let problem = testfns::forrester();
    let dir = store_dir("retired-engine");
    interrupt_mfbo(&problem, 7, 10.0, 1, &dir);
    let meta = dir.join("meta.json");
    let text = std::fs::read_to_string(&meta).unwrap();
    let body = text.trim_end().strip_suffix('}').unwrap();
    std::fs::write(&meta, format!("{body},\"inference\":\"iterative\"}}\n")).unwrap();
    for mode in [InferenceMode::Exact, InferenceMode::subset_of_data()] {
        let mut opts = RunOptions::resuming(RunStore::open(&dir).unwrap());
        let config = MfBoConfig {
            gp_inference: mode,
            ..mfbo_config(10.0, Parallelism::Serial)
        };
        let err = MfBayesOpt::new(config)
            .run_with(&problem, &mut StdRng::seed_from_u64(7), &mut opts)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("GP inference engine") && err.contains("iterative"),
            "{mode}: {err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn constrained_mfbo_resume_is_bit_identical() {
    // Constrained problem: the per-constraint surrogates and the
    // feasibility-driven MSP path must survive a resume too.
    let problem = FunctionProblem::builder("c-toy", Bounds::unit(2))
        .high(|x: &[f64]| (x[0] - 0.2).powi(2) + (x[1] - 0.2).powi(2))
        .low(|x: &[f64]| (x[0] - 0.23).powi(2) + (x[1] - 0.17).powi(2) + 0.02)
        .high_constraints(1, |x: &[f64]| vec![1.0 - x[0] - x[1]])
        .low_constraints(|x: &[f64]| vec![1.02 - x[0] - x[1]])
        .low_cost(0.1)
        .build();
    let baseline = run_mfbo(
        &problem,
        11,
        mfbo_config(7.0, Parallelism::Serial),
        &mut RunOptions::default(),
    );
    let dir = store_dir("mfbo-constrained");
    interrupt_mfbo(&problem, 11, 7.0, 2, &dir);
    let mut opts = RunOptions::resuming(RunStore::open(&dir).unwrap());
    let resumed = run_mfbo(
        &problem,
        11,
        mfbo_config(7.0, Parallelism::Serial),
        &mut opts,
    );
    assert_outcomes_identical(&baseline, &resumed, "constrained resume");
    assert_eq!(
        history_csv(&baseline),
        history_csv(&resumed),
        "constrained resume: history CSV bytes"
    );
    assert!(resumed.eval_stats.replayed > 0);
    assert_costs_reconcile(&resumed, "constrained resume");
}

#[test]
fn mfbo_resumes_after_a_simulator_crash() {
    // The crash flavour of a kill: the simulator panics mid-run under the
    // default fail-fast policy, taking the process down with the in-flight
    // evaluation unjournaled. Everything before it was flushed write-ahead,
    // so a resume with a healthy simulator completes the original trajectory.
    let problem = testfns::forrester();
    let baseline = run_mfbo(
        &problem,
        2024,
        mfbo_config(9.0, Parallelism::Serial),
        &mut RunOptions::default(),
    );

    let dir = store_dir("mfbo-crash");
    let faulty = FaultInjector::new(testfns::forrester(), FaultKind::Panic, 17);
    let mut opts = RunOptions::journaled(RunStore::open(&dir).unwrap());
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        let mut rng = StdRng::seed_from_u64(2024);
        MfBayesOpt::new(mfbo_config(9.0, Parallelism::Serial))
            .run_with(&faulty, &mut rng, &mut opts)
    }));
    assert!(
        crashed.is_err(),
        "call 17 must panic through the abort policy"
    );
    drop(opts);

    let mut opts = RunOptions::resuming(RunStore::open(&dir).unwrap());
    let resumed = run_mfbo(
        &problem,
        2024,
        mfbo_config(9.0, Parallelism::Serial),
        &mut opts,
    );
    assert_outcomes_identical(&baseline, &resumed, "crash resume");
    assert_eq!(
        resumed.eval_stats.replayed, 16,
        "exactly the 16 pre-crash evaluations are replayed"
    );
    assert_costs_reconcile(&resumed, "crash resume");
}

#[test]
fn weibo_resume_is_bit_identical() {
    // WEIBO is the single-fidelity (`"sfbo"`-tagged) run of the ask/tell
    // core, reached through its own `run_with` entry point.
    let problem = testfns::forrester();
    let weibo_config = || WeiboConfig {
        initial_points: 6,
        budget: 14,
        ..WeiboConfig::default()
    };
    let weibo_baseline = {
        let mut rng = StdRng::seed_from_u64(5);
        Weibo::new(weibo_config()).run(&problem, &mut rng).unwrap()
    };
    // Interrupt by truncating the simulation budget, then resume with the
    // full one — the journal covers the first 10 evaluations.
    let dir = store_dir("weibo");
    {
        let mut rng = StdRng::seed_from_u64(5);
        Weibo::new(WeiboConfig {
            budget: 10,
            ..weibo_config()
        })
        .run_with(
            &problem,
            &mut rng,
            &mut RunOptions::journaled(RunStore::open(&dir).unwrap()),
        )
        .unwrap();
    }
    let weibo_resumed = {
        let mut rng = StdRng::seed_from_u64(5);
        Weibo::new(weibo_config())
            .run_with(
                &problem,
                &mut rng,
                &mut RunOptions::resuming(RunStore::open(&dir).unwrap()),
            )
            .unwrap()
    };
    assert_outcomes_identical(&weibo_baseline, &weibo_resumed, "weibo resume");
    assert_eq!(weibo_resumed.eval_stats.replayed, 10);
    assert_costs_reconcile(&weibo_resumed, "weibo resume");
}

#[test]
fn journal_from_the_standalone_sfbo_loop_resumes() {
    // `tests/golden/sfbo_journal_pa_seed3/` was written by the standalone
    // single-fidelity loop that predates running SFBO on the ask/tell core:
    // `mfbo-cli --algo weibo --problem pa --seed 3 --budget 9 --init-high 5`
    // interrupted by `--max-evals 7`. Resuming it must replay those seven
    // evaluations and land on the uninterrupted trajectory.
    let problem = PowerAmplifier::new();
    let config = || WeiboConfig {
        initial_points: 5,
        budget: 9,
        ..WeiboConfig::default()
    };
    let baseline = {
        let mut rng = StdRng::seed_from_u64(3);
        Weibo::new(config()).run(&problem, &mut rng).unwrap()
    };
    let fixture =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sfbo_journal_pa_seed3");
    let dir = store_dir("legacy-sfbo");
    std::fs::create_dir_all(&dir).unwrap();
    for file in ["meta.json", "journal.jsonl"] {
        std::fs::copy(fixture.join(file), dir.join(file)).unwrap();
    }
    let resumed = {
        let mut rng = StdRng::seed_from_u64(3);
        Weibo::new(config())
            .run_with(
                &problem,
                &mut rng,
                &mut RunOptions::resuming(RunStore::open(&dir).unwrap()),
            )
            .unwrap()
    };
    assert_outcomes_identical(&baseline, &resumed, "legacy sfbo journal");
    assert_eq!(resumed.eval_stats.replayed, 7);
    assert_costs_reconcile(&resumed, "legacy sfbo journal");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eval_cache_warm_rerun_hits_without_changing_the_trajectory() {
    let problem = testfns::forrester();
    let dir = store_dir("cache");
    let cached_opts = || RunOptions {
        store: Some(RunStore::open(&dir).unwrap()),
        cache: true,
        ..RunOptions::default()
    };
    let first = run_mfbo(
        &problem,
        7,
        mfbo_config(10.0, Parallelism::Serial),
        &mut cached_opts(),
    );
    assert_eq!(first.eval_stats.cache_hits, 0, "cold cache");
    assert!(first.eval_stats.fresh > 0);

    // Identical seeded rerun: every evaluation is served from the cache,
    // and because hits are billed like simulations the trajectory is
    // bit-identical to the cold run.
    let second = run_mfbo(
        &problem,
        7,
        mfbo_config(10.0, Parallelism::Serial),
        &mut cached_opts(),
    );
    assert_outcomes_identical(&first, &second, "warm rerun");
    assert_eq!(
        second.eval_stats.fresh, 0,
        "warm rerun must not re-simulate"
    );
    assert!(second.eval_stats.cache_hits > 0);
    assert_costs_reconcile(&second, "warm rerun");

    // The uncached baseline decides identically: caching is observable only
    // in the accounting, never in the optimization.
    let plain = run_mfbo(
        &problem,
        7,
        mfbo_config(10.0, Parallelism::Serial),
        &mut RunOptions::default(),
    );
    assert_outcomes_identical(&plain, &first, "cache neutrality");
}

#[test]
fn warm_start_seeds_the_low_surrogate_and_survives_resume() {
    let problem = testfns::forrester();
    let dir = store_dir("warm");
    // Populate the cache with one seeded run.
    run_mfbo(
        &problem,
        7,
        mfbo_config(10.0, Parallelism::Serial),
        &mut RunOptions {
            store: Some(RunStore::open(&dir).unwrap()),
            cache: true,
            ..RunOptions::default()
        },
    );

    // A different-seed run with warm-starting (cache lookups off, so the
    // cache stays frozen and the warm set is stable across the runs below).
    let warm_opts = |resume: bool| RunOptions {
        store: Some(RunStore::open(&dir).unwrap()),
        warm_start: true,
        resume,
        ..RunOptions::default()
    };
    // Interrupted warm run, then its resume.
    {
        let mut opts = warm_opts(false);
        let config = MfBoConfig {
            max_iterations: 2,
            ..mfbo_config(9.0, Parallelism::Serial)
        };
        run_mfbo(&problem, 9, config, &mut opts);
    }
    let resumed = run_mfbo(
        &problem,
        9,
        mfbo_config(9.0, Parallelism::Serial),
        &mut warm_opts(true),
    );
    // Uninterrupted warm run against the same (frozen) cache.
    let uninterrupted = run_mfbo(
        &problem,
        9,
        mfbo_config(9.0, Parallelism::Serial),
        &mut warm_opts(false),
    );
    assert_outcomes_identical(&uninterrupted, &resumed, "warm resume");
    assert!(
        resumed.eval_stats.warm_started > 0,
        "cached low-fidelity points must seed the surrogate"
    );
    assert_eq!(
        resumed.eval_stats.warm_started,
        uninterrupted.eval_stats.warm_started
    );
    // Warm points train the low GP but never enter the history (they carry
    // no cost), so n_low exceeds the low-fidelity trace count.
    let trace_low = resumed
        .history
        .iter()
        .filter(|r| r.fidelity == Fidelity::Low)
        .count();
    assert!(
        resumed.n_low > trace_low,
        "n_low {} should exceed the {} journaled low evals",
        resumed.n_low,
        trace_low
    );
    assert_costs_reconcile(&resumed, "warm resume");
}

#[test]
fn penalize_policy_completes_a_faulty_run_and_counters_fire() {
    use mfbo_telemetry::{scoped_sink, sinks::CollectSink, Level};

    // Every 3rd simulation returns NaN; with no retries the penalize policy
    // substitutes the penalty objective and quarantines the point, and the
    // run completes where the historical behavior would have aborted.
    let faulty = FaultInjector::new(testfns::forrester(), FaultKind::Nan, 3);
    let sink = std::sync::Arc::new(CollectSink::with_level(Level::Debug));
    let guard = scoped_sink(sink.clone());
    let mut opts = RunOptions {
        policy: EvalPolicy {
            non_finite: NonFinitePolicy::PenalizeAndQuarantine {
                penalty: NonFinitePolicy::DEFAULT_PENALTY,
            },
            ..EvalPolicy::default()
        },
        ..RunOptions::default()
    };
    let out = run_mfbo(&faulty, 7, mfbo_config(8.0, Parallelism::Serial), &mut opts);
    drop(guard);
    assert!(out.eval_stats.quarantined > 0);
    assert!(
        out.history
            .iter()
            .any(|r| r.evaluation.objective == NonFinitePolicy::DEFAULT_PENALTY),
        "penalized evaluations must appear in the history"
    );
    assert!(
        !sink.named("eval_quarantined").is_empty(),
        "quarantines must be visible in telemetry"
    );

    // Every 7th simulation panics; two retries absorb every fault (the call
    // counter advances on faulted calls), so the run completes with zero
    // quarantines even under the abort policy.
    let flaky = FaultInjector::new(testfns::forrester(), FaultKind::Panic, 7);
    let sink = std::sync::Arc::new(CollectSink::with_level(Level::Debug));
    let guard = scoped_sink(sink.clone());
    let mut opts = RunOptions {
        policy: EvalPolicy {
            max_retries: 2,
            ..EvalPolicy::default()
        },
        ..RunOptions::default()
    };
    let out = run_mfbo(&flaky, 7, mfbo_config(8.0, Parallelism::Serial), &mut opts);
    drop(guard);
    assert!(out.eval_stats.retries > 0);
    assert_eq!(out.eval_stats.quarantined, 0);
    assert!(
        !sink.named("eval_retry").is_empty(),
        "retries must be visible in telemetry"
    );
    // And the retried run still matches the healthy-simulator trajectory:
    // retries re-evaluate the same point, which succeeds deterministically.
    let clean = run_mfbo(
        &testfns::forrester(),
        7,
        mfbo_config(8.0, Parallelism::Serial),
        &mut RunOptions::default(),
    );
    assert_outcomes_identical(&clean, &out, "retry transparency");
}

// ---------------------------------------------------------------------------
// Golden snapshot of the resumed history (tolerant numeric compare so libm
// ulp differences across platforms don't flake the suite; on one platform
// the byte-equality assertions above are the exact check).
// ---------------------------------------------------------------------------

const REL_TOL: f64 = 1e-6;

fn close(a: f64, b: f64) -> bool {
    if a.is_nan() && b.is_nan() {
        return true;
    }
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

fn check_history_against_golden(name: &str, out: &Outcome) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name);
    let actual = String::from_utf8(history_csv(out)).unwrap();
    if std::env::var("MFBO_REGEN_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with MFBO_REGEN_GOLDEN=1 to create it",
            path.display()
        )
    });
    let (g_lines, a_lines): (Vec<&str>, Vec<&str>) =
        (golden.lines().collect(), actual.lines().collect());
    assert_eq!(g_lines.len(), a_lines.len(), "{name}: row count changed");
    assert_eq!(g_lines[0], a_lines[0], "{name}: header changed");
    for (i, (g, a)) in g_lines.iter().zip(&a_lines).enumerate().skip(1) {
        let (gc, ac): (Vec<&str>, Vec<&str>) = (g.split(',').collect(), a.split(',').collect());
        assert_eq!(gc.len(), ac.len(), "{name}: row {i} arity");
        for (j, (gf, af)) in gc.iter().zip(&ac).enumerate() {
            match (gf.parse::<f64>(), af.parse::<f64>()) {
                (Ok(gv), Ok(av)) => assert!(
                    close(gv, av),
                    "{name}: row {i} col {j} diverged: golden {gv}, actual {av}"
                ),
                _ => assert_eq!(gf, af, "{name}: row {i} col {j}"),
            }
        }
    }
}
