//! Integration tests of the CSV/report/telemetry pipeline on real
//! optimizer output.

use analog_mfbo::circuits::testfns;
use analog_mfbo::prelude::*;
use mfbo::report;
use mfbo_telemetry::json;
use mfbo_telemetry::sinks::{CollectSink, JsonlSink};
use mfbo_telemetry::{Kind, Level};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn small_run() -> mfbo::Outcome {
    let problem = testfns::forrester();
    let mut rng = StdRng::seed_from_u64(3);
    MfBayesOpt::new(MfBoConfig {
        initial_low: 6,
        initial_high: 3,
        budget: 6.0,
        ..MfBoConfig::default()
    })
    .run(&problem, &mut rng)
    .expect("run succeeds")
}

#[test]
fn history_csv_round_trips_through_parsing() {
    let outcome = small_run();
    let mut buf = Vec::new();
    report::write_history_csv(&outcome, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let mut lines = text.lines();
    let header = lines.next().unwrap();
    assert_eq!(
        header,
        "iteration,fidelity,cost_so_far,objective,violation,feasible,x0"
    );
    let rows: Vec<&str> = lines.collect();
    assert_eq!(rows.len(), outcome.history.len());

    // Parse back and check cost monotonicity and fidelity labels.
    let mut prev_cost = 0.0;
    let mut lows = 0;
    let mut highs = 0;
    for row in rows {
        let cells: Vec<&str> = row.split(',').collect();
        assert_eq!(cells.len(), 7);
        match cells[1] {
            "low" => lows += 1,
            "high" => highs += 1,
            other => panic!("unexpected fidelity label {other}"),
        }
        let cost: f64 = cells[2].parse().unwrap();
        assert!(cost > prev_cost);
        prev_cost = cost;
        let obj: f64 = cells[3].parse().unwrap();
        assert!(obj.is_finite());
        let x0: f64 = cells[6].parse().unwrap();
        assert!((0.0..=1.0).contains(&x0));
    }
    assert_eq!(lows, outcome.n_low);
    assert_eq!(highs, outcome.n_high);
}

#[test]
fn convergence_csv_is_monotone_decreasing() {
    let outcome = small_run();
    let mut buf = Vec::new();
    report::write_convergence_csv(&outcome, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let mut best = f64::INFINITY;
    for line in text.lines().skip(1) {
        let cells: Vec<&str> = line.split(',').collect();
        let v: f64 = cells[1].parse().unwrap();
        assert!(v <= best + 1e-12, "best-so-far must never worsen");
        best = v;
    }
    assert!(best < f64::INFINITY);
}

#[test]
fn short_mfbo_run_emits_one_fidelity_decision_per_iteration() {
    let sink = Arc::new(CollectSink::new());
    let guard = mfbo_telemetry::scoped_sink(sink.clone());
    let outcome = small_run();
    drop(guard);

    let bo_iters = outcome.history.iter().filter(|r| r.iteration > 0).count();
    assert!(bo_iters > 0, "budget allows at least one BO iteration");
    let decisions = sink.named("fidelity_decision");
    assert_eq!(decisions.len(), bo_iters);
    for (rec, hist) in decisions
        .iter()
        .zip(outcome.history.iter().filter(|r| r.iteration > 0))
    {
        assert_eq!(rec.kind, Kind::Event);
        assert_eq!(
            rec.field("iteration"),
            Some(&mfbo_telemetry::Value::U64(hist.iteration as u64))
        );
        // Every decision carries the variance-vs-threshold evidence of
        // paper eqs. (11)-(12).
        match rec.field("max_low_variance") {
            Some(mfbo_telemetry::Value::F64(v)) => assert!(v.is_finite() && *v >= 0.0),
            other => panic!("max_low_variance missing or mistyped: {other:?}"),
        }
        assert_eq!(
            rec.field("threshold"),
            Some(&mfbo_telemetry::Value::F64(0.01))
        );
    }
    // The streamed spans cover the hot path once per iteration.
    for name in ["surrogate_fit", "acq_opt", "simulate"] {
        let starts = sink
            .records()
            .iter()
            .filter(|r| r.name == name && r.kind == Kind::SpanStart)
            .count();
        assert_eq!(starts, bo_iters, "span {name}");
    }
}

#[test]
fn jsonl_trace_of_a_run_parses_line_by_line() {
    let path = std::env::temp_dir().join(format!("mfbo-trace-{}.jsonl", std::process::id()));
    {
        let sink = Arc::new(JsonlSink::create(&path, Level::Debug).unwrap());
        let _guard = mfbo_telemetry::scoped_sink(sink);
        let _ = small_run();
    }
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(!text.is_empty());
    let mut decisions = 0;
    let mut last_t = 0.0;
    for line in text.lines() {
        let obj = json::parse(line).expect("every line is valid JSON");
        let t = obj.get("t_us").and_then(|v| v.as_f64()).expect("t_us");
        assert!(t >= last_t, "records are time-ordered");
        last_t = t;
        let name = obj.get("name").and_then(|v| v.as_str()).expect("name");
        if name == "fidelity_decision" {
            decisions += 1;
            let fields = obj.get("fields").expect("fields");
            assert!(fields.get("max_low_variance").is_some());
            assert!(fields.get("threshold").is_some());
            assert!(fields.get("chose_high").is_some());
        }
    }
    assert!(decisions > 0, "trace contains fidelity decisions");
}

#[test]
fn summary_is_consistent_with_outcome() {
    let outcome = small_run();
    let s = report::summary(&outcome);
    assert!(s.contains(&format!("{} low + {} high", outcome.n_low, outcome.n_high)));
    assert!(s.contains(&format!("{}", outcome.feasible)));
}
