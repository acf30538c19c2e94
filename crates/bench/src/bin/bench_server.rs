//! Generates the `BENCH_server.json` measurements: sustained start→wait
//! throughput of the evaluation service at 100/256/1000 concurrent runs,
//! an interleaved A/B of group-commit against flush-per-append journaling
//! on the sharded scheduler, a shard-count scaling curve, and a replay
//! audit proving the two arms write byte-identical journals that resume
//! cleanly without a single fresh simulation.
//!
//! Usage: `cargo run --release -p mfbo-bench --bin bench_server > BENCH_server.json`
//!
//! Harness: interleaved A/B sampling (samples of the two compared arms
//! alternate A, B, A, B, ... so container load drift affects both medians
//! equally), median statistic — the same methodology as `BENCH_obs.json` /
//! `BENCH_simd.json`. Arm A boots a server with a 1 ms group-commit
//! linger; arm B boots the same sharded server with flush-per-append
//! journaling (`journal_linger: 0`). Both arms run the identical
//! seed-distinct journaled workload over the framed JSON socket.

use mfbo::problem::MultiFidelityProblem;
use mfbo::{MfBayesOpt, MfBoConfig, Outcome, RunOptions};
use mfbo_bench::{median, percentile};
use mfbo_circuits::testfns;
use mfbo_runstore::RunStore;
use mfbo_server::{Client, Scheduler, Server, ServerConfig};
use mfbo_telemetry::json::Json;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::{Duration, Instant};

/// Concurrent runs for the headline A/B comparison.
const AB_RUNS: usize = 256;
/// Interleaved samples per arm for the headline comparison.
const AB_SAMPLES: usize = 5;
/// Concurrency levels for the throughput/latency sweep (arm A).
const SWEEP: &[usize] = &[100, 256, 1000];
/// Shard counts for the scaling curve (arm A at `AB_RUNS` concurrency).
const SHARD_CURVE: &[usize] = &[1, 2, 4, 8];
/// Shard threads in arm A's headline configuration.
const HEADLINE_SHARDS: usize = 4;
/// Group-commit linger window in arm A's headline configuration (µs).
const LINGER_US: u64 = 1000;
/// Evaluation-pool workers in both arms.
const WORKERS: usize = 2;
/// Run budget: just under the 60x0.1 + 2x1.0 initial-design cost, so every
/// run finishes mid-design after 62 journaled evaluations and never fits a
/// GP — the workload measures the *service* (scheduling, journaling,
/// framing), not the surrogate math, which is identical in both arms.
const BUDGET: f64 = 7.9;
const SEED_BASE: u64 = 1000;

fn config() -> MfBoConfig {
    MfBoConfig {
        initial_low: 60,
        initial_high: 2,
        budget: BUDGET,
        ..MfBoConfig::default()
    }
}

fn arm_a(shards: usize) -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        queue_depth: 64,
        shards,
        journal_linger: Duration::from_micros(LINGER_US),
        scheduler: Scheduler::Sharded,
    }
}

fn arm_b() -> ServerConfig {
    ServerConfig {
        journal_linger: Duration::ZERO,
        ..arm_a(HEADLINE_SHARDS)
    }
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// One load sample against a freshly booted server.
struct Sample {
    /// Wall-clock seconds from the first start request to the last wait reply.
    secs: f64,
    /// Client-observed latency of each start request (microseconds).
    start_us: Vec<f64>,
    /// Client-observed latency of each wait request (microseconds).
    wait_us: Vec<f64>,
}

fn start_req(tag: &str, i: usize, journal_root: &Path) -> Json {
    let dir = journal_root.join(format!("{tag}-r{i}"));
    obj(vec![
        ("op", Json::Str("start".into())),
        ("run", Json::Str(format!("{tag}-r{i}"))),
        ("problem", Json::Str("forrester".into())),
        ("seed", Json::Num((SEED_BASE + i as u64) as f64)),
        ("budget", Json::Num(BUDGET)),
        ("init_low", Json::Num(60.0)),
        ("init_high", Json::Num(2.0)),
        ("journal", Json::Str(dir.to_string_lossy().into_owned())),
    ])
}

fn wait_req(tag: &str, i: usize) -> Json {
    obj(vec![
        ("op", Json::Str("wait".into())),
        ("run", Json::Str(format!("{tag}-r{i}"))),
    ])
}

/// Boots a server with `config` and runs the pipelined load: all `runs`
/// start requests written back to back, then all replies read, then the
/// same for waits. One connection, no per-request round-trip stalls —
/// this measures the server's sustained processing rate, which is what
/// the two schedulers differ in. Returns wall seconds and the
/// `(best_objective, total_cost)` outcomes from the wait replies.
fn pipelined_sample(
    config: ServerConfig,
    tag: &str,
    runs: usize,
    journal_root: &Path,
) -> (f64, Vec<(f64, f64)>) {
    use std::io::{BufRead, BufReader, BufWriter, Write};
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    std::thread::spawn(move || server.run().unwrap());
    let stream = std::net::TcpStream::connect(&addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut w = BufWriter::new(stream.try_clone().unwrap());
    let mut r = BufReader::new(stream);

    let mut line = String::new();
    let read_reply = |r: &mut BufReader<std::net::TcpStream>, line: &mut String| -> Json {
        line.clear();
        r.read_line(line).unwrap();
        assert!(!line.is_empty(), "server closed the connection");
        let reply = mfbo_telemetry::json::parse(line).unwrap();
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "request failed: {reply}"
        );
        reply
    };

    let t = Instant::now();
    for i in 0..runs {
        writeln!(w, "{}", start_req(tag, i, journal_root)).unwrap();
    }
    w.flush().unwrap();
    for _ in 0..runs {
        read_reply(&mut r, &mut line);
    }
    for i in 0..runs {
        writeln!(w, "{}", wait_req(tag, i)).unwrap();
    }
    w.flush().unwrap();
    let mut outcomes = Vec::with_capacity(runs);
    for i in 0..runs {
        let reply = read_reply(&mut r, &mut line);
        let state = reply.get("state").and_then(Json::as_str).unwrap_or("?");
        assert_eq!(state, "done", "{tag}-r{i} did not finish: {reply}");
        outcomes.push((
            reply
                .get("best_objective")
                .and_then(Json::as_f64)
                .expect("done reply carries best_objective"),
            reply
                .get("total_cost")
                .and_then(Json::as_f64)
                .expect("done reply carries total_cost"),
        ));
    }
    let secs = t.elapsed().as_secs_f64();
    writeln!(w, "{}", obj(vec![("op", Json::Str("shutdown".into()))])).unwrap();
    w.flush().unwrap();
    read_reply(&mut r, &mut line);
    (secs, outcomes)
}

/// Boots a server with `config`, starts `runs` journaled runs back to
/// back in strict request/reply (measuring each request's client-observed
/// latency), waits for all of them in start order, then shuts the server
/// down.
fn load_sample(config: ServerConfig, tag: &str, runs: usize, journal_root: &Path) -> Sample {
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    std::thread::spawn(move || server.run().unwrap());
    let mut client = Client::connect(&addr).unwrap();

    let mut start_us = Vec::with_capacity(runs);
    let mut wait_us = Vec::with_capacity(runs);
    let t = Instant::now();
    for i in 0..runs {
        let t0 = Instant::now();
        client.expect_ok(&start_req(tag, i, journal_root)).unwrap();
        start_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    for i in 0..runs {
        let t0 = Instant::now();
        let reply = client.expect_ok(&wait_req(tag, i)).unwrap();
        wait_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let state = reply.get("state").and_then(Json::as_str).unwrap_or("?");
        assert_eq!(state, "done", "{tag}-r{i} did not finish: {reply}");
    }
    let secs = t.elapsed().as_secs_f64();
    client
        .expect_ok(&obj(vec![("op", Json::Str("shutdown".into()))]))
        .unwrap();
    Sample {
        secs,
        start_us,
        wait_us,
    }
}

fn journal_bytes(journal_root: &Path, tag: &str, i: usize) -> Vec<u8> {
    let path = journal_root
        .join(format!("{tag}-r{i}"))
        .join("journal.jsonl");
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn in_process_run(problem: &dyn MultiFidelityProblem, seed: u64, opts: &mut RunOptions) -> Outcome {
    let mut rng = StdRng::seed_from_u64(seed);
    MfBayesOpt::new(config())
        .run_with(problem, &mut rng, opts)
        .unwrap()
}

/// Replays every journal arm A's first sample wrote: a resumed run must
/// complete without a single fresh simulation and land bit-identically on
/// the outcome the server reported over the wire for the same run.
fn audit_replays(problem: &dyn MultiFidelityProblem, journal_root: &Path, want: &[(f64, f64)]) {
    for (i, &(want_obj, want_cost)) in want.iter().enumerate() {
        let dir = journal_root.join(format!("a0-r{i}"));
        let store = RunStore::open(&dir).unwrap();
        let mut opts = RunOptions::resuming(store);
        let got = in_process_run(problem, SEED_BASE + i as u64, &mut opts);
        assert_eq!(
            got.eval_stats.fresh, 0,
            "journal a0-r{i} required fresh evaluations on replay"
        );
        assert!(
            got.eval_stats.replayed > 0,
            "journal a0-r{i} replayed nothing"
        );
        assert_eq!(
            got.best_objective.to_bits(),
            want_obj.to_bits(),
            "journal a0-r{i} replay diverged from the served outcome"
        );
        assert_eq!(
            got.total_cost.to_bits(),
            want_cost.to_bits(),
            "journal a0-r{i} replay cost diverged"
        );
    }
}

fn secs_arr(secs: &[f64]) -> Json {
    Json::Arr(
        secs.iter()
            .map(|&s| Json::Num((s * 1e3).round() / 1e3))
            .collect(),
    )
}

/// `(start_p50_us, start_p99_us, wait_p50_ms, wait_p99_ms)` for one sample.
fn lat_fields(s: &Sample) -> (f64, f64, f64, f64) {
    (
        percentile(s.start_us.clone(), 0.50),
        percentile(s.start_us.clone(), 0.99),
        percentile(s.wait_us.clone(), 0.50) / 1e3,
        percentile(s.wait_us.clone(), 0.99) / 1e3,
    )
}

fn main() {
    let journal_root = std::env::temp_dir().join(format!("bench-server-{}", std::process::id()));
    std::fs::create_dir_all(&journal_root).unwrap();
    let problem = testfns::forrester();

    // Headline interleaved A/B at AB_RUNS concurrent runs: arm A (1 ms
    // group commit) alternating with arm B (flush-per-append), so drift in
    // the shared container hits both medians equally. Pipelined I/O: the sample time is the
    // server's sustained processing rate, not 2xAB_RUNS client round trips.
    let mut a_secs: Vec<f64> = Vec::with_capacity(AB_SAMPLES);
    let mut b_secs: Vec<f64> = Vec::with_capacity(AB_SAMPLES);
    let mut a_outcomes: Vec<(f64, f64)> = Vec::new();
    let mut b_outcomes: Vec<(f64, f64)> = Vec::new();
    // One discarded warm-up pair: the first server boot pays one-off costs
    // (binary page-in, directory creation, allocator growth) that would
    // otherwise land entirely on whichever arm runs first.
    eprintln!("ab warm-up pair (discarded)");
    pipelined_sample(arm_a(HEADLINE_SHARDS), "wa", AB_RUNS, &journal_root);
    pipelined_sample(arm_b(), "wb", AB_RUNS, &journal_root);
    for s in 0..AB_SAMPLES {
        eprintln!("ab sample {s}: arm A (group commit)");
        let (secs, outcomes) = pipelined_sample(
            arm_a(HEADLINE_SHARDS),
            &format!("a{s}"),
            AB_RUNS,
            &journal_root,
        );
        a_secs.push(secs);
        if s == 0 {
            a_outcomes = outcomes;
        }
        eprintln!("ab sample {s}: arm B (flush per append)");
        let (secs, outcomes) = pipelined_sample(arm_b(), &format!("b{s}"), AB_RUNS, &journal_root);
        b_secs.push(secs);
        if s == 0 {
            b_outcomes = outcomes;
        }
    }

    // The two journaling modes must be observationally identical: same
    // outcomes over the wire, byte-identical write-ahead journals on disk.
    let mut identical_journals = 0usize;
    for i in 0..AB_RUNS {
        assert_eq!(
            a_outcomes[i].0.to_bits(),
            b_outcomes[i].0.to_bits(),
            "run {i}: arms reported different best_objective"
        );
        assert_eq!(
            journal_bytes(&journal_root, "a0", i),
            journal_bytes(&journal_root, "b0", i),
            "run {i}: group-commit journal differs from flush-per-append journal"
        );
        identical_journals += 1;
    }

    audit_replays(&problem, &journal_root, &a_outcomes);

    // Concurrency sweep on arm A: runs/sec and client-side request latency
    // quantiles at each level (one sample each; the curve's shape, not its
    // absolute height, is the point).
    let sweep: Vec<(usize, Sample)> = SWEEP
        .iter()
        .map(|&n| {
            eprintln!("sweep: {n} concurrent runs (arm A)");
            (
                n,
                load_sample(arm_a(HEADLINE_SHARDS), &format!("c{n}"), n, &journal_root),
            )
        })
        .collect();

    // Shard-count scaling at AB_RUNS concurrency.
    let curve: Vec<(usize, Sample)> = SHARD_CURVE
        .iter()
        .map(|&k| {
            eprintln!("shard curve: {k} shard(s)");
            (
                k,
                load_sample(arm_a(k), &format!("s{k}"), AB_RUNS, &journal_root),
            )
        })
        .collect();

    let _ = std::fs::remove_dir_all(&journal_root);

    let a_med = median(a_secs.clone());
    let b_med = median(b_secs.clone());
    let a_rps = AB_RUNS as f64 / a_med;
    let b_rps = AB_RUNS as f64 / b_med;

    let sweep_rows: Vec<String> = sweep
        .iter()
        .map(|(n, s)| {
            let (s50, s99, w50, w99) = lat_fields(s);
            format!(
                "{{\"concurrent_runs\": {n}, \"wall_s\": {:.3}, \"runs_per_s\": {:.2}, \"start_p50_us\": {s50:.1}, \"start_p99_us\": {s99:.1}, \"wait_p50_ms\": {w50:.2}, \"wait_p99_ms\": {w99:.2}}}",
                s.secs,
                *n as f64 / s.secs,
            )
        })
        .collect();
    let curve_rows: Vec<String> = curve
        .iter()
        .map(|(k, s)| {
            format!(
                "{{\"shards\": {k}, \"wall_s\": {:.3}, \"runs_per_s\": {:.2}}}",
                s.secs,
                AB_RUNS as f64 / s.secs,
            )
        })
        .collect();

    println!(
        r#"{{
  "description": "Evaluation-service throughput: {AB_RUNS} concurrent named runs (Forrester, seed-distinct, budget {BUDGET} so each run performs exactly its 62 journaled initial-design evaluations and never fits a GP — a pure service workload) started and awaited over the framed JSON socket. Both arms run the sharded scheduler ({HEADLINE_SHARDS} shard threads multiplexing all runs); arm A journals with leader-based group commit ({LINGER_US} µs linger for fire-and-forget appends), arm B flushes every append (journal_linger 0). The arms must be observationally identical: sample-0 wait replies bit-equal, all {AB_RUNS} write-ahead journals byte-identical across arms, and every arm-A journal replays (resume: true) with zero fresh simulations, landing bit-identically on the served outcome.",
  "methodology": {{
    "harness": "interleaved A/B sampling: samples of the two compared arms alternate (A, B, A, B, ...) so container load drift affects both medians equally; one discarded warm-up pair precedes the measured samples; each sample boots a fresh server and drives it over one pipelined connection (start x{AB_RUNS} written back to back, then all replies read, then the same for waits), so the sample time is the server's sustained processing rate rather than 2x{AB_RUNS} client round trips",
    "samples_per_arm": {AB_SAMPLES},
    "statistic": "median wall-clock seconds first start -> last wait; latency quantiles are nearest-rank over one sample's client-observed per-request times",
    "workload": "{AB_RUNS} runs per sample, each journaling 62 initial-design evaluations (init_low 60, init_high 2) and finishing on budget before any GP fit; both arms: {WORKERS} pool workers, queue depth 64, every run journaled with the write-ahead barrier on",
    "build": "cargo --release, default codegen settings",
    "date": "2026-08-08",
    "caveats": [
      "Measured in a shared 1-CPU container; absolute times carry +/-40% run-to-run drift. The interleaved harness keeps the A/B ratio stable; on multi-core hosts both arms also scale with the worker count.",
      "The arm-A speedup comes from durability overheads alone: arm B pays one flush per journal append, while arm A coalesces every append queued across shards into one vectored write per barrier, committed by the syncing shard itself (leader-based group commit) — a write-ahead barrier costs one writev, never a timer wait or a flusher-thread round trip.",
      "wait_p50/p99 measure completion spread, not service overhead: wait blocks until the run finishes, so the first wait absorbs most of the workload's wall time and later waits return near-instantly.",
      "TCP_NODELAY on both ends of the connection is load-bearing: with Nagle left on, delayed ACKs add ~40 ms to every request/reply round trip on a persistent connection, and an earlier version of this workload measured 17x slower end to end.",
      "Reproduce with: cargo run --release -p mfbo-bench --bin bench_server > BENCH_server.json"
    ]
  }},
  "acceptance": {{
    "concurrent_runs": {AB_RUNS},
    "speedup_measured": {speedup:.2},
    "journals_byte_identical_across_arms": {identical_journals},
    "journals_replayed_cleanly": {AB_RUNS},
    "replay_divergences": 0
  }},
  "results": {{
    "ab_throughput": {{
      "what": "median wall-clock seconds to start and finish all {AB_RUNS} runs over one pipelined connection, and derived runs/second",
      "rows": [
        {{"case": "sharded_group_commit", "median_s": {a_med:.3}, "runs_per_s": {a_rps:.2}, "samples_s": {a_arr}}},
        {{"case": "sharded_flush_per_append", "median_s": {b_med:.3}, "runs_per_s": {b_rps:.2}, "samples_s": {b_arr}}}
      ],
      "group_commit_over_flush_speedup": {speedup:.4}
    }},
    "concurrency_sweep": {{
      "what": "arm A at increasing concurrent-run counts (one sample each)",
      "rows": [
        {sweep_rows}
      ]
    }},
    "shard_scaling": {{
      "what": "arm A at {AB_RUNS} concurrent runs with increasing shard-thread counts (one sample each)",
      "rows": [
        {curve_rows}
      ]
    }}
  }}
}}"#,
        speedup = b_med / a_med,
        a_arr = secs_arr(&a_secs),
        b_arr = secs_arr(&b_secs),
        sweep_rows = sweep_rows.join(",\n        "),
        curve_rows = curve_rows.join(",\n        "),
    );
}
