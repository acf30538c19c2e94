//! End-to-end tests of the evaluation service: concurrent named runs over
//! the framed JSON protocol, equivalence with in-process runs, and fault
//! injection (NaN results, panicking simulators, stalled workers) proving
//! that one sick run never poisons its siblings.

use mfbo::problem::MultiFidelityProblem;
use mfbo::{MfBayesOpt, MfBoConfig, Outcome, RunOptions, RunStore};
use mfbo_circuits::testfns;
use mfbo_server::{Client, Server, ServerConfig};
use mfbo_telemetry::json::Json;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Boots a server on an ephemeral port and returns a connected client.
fn boot(workers: usize) -> (Client, String) {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers,
            queue_depth: 32,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    std::thread::spawn(move || server.run().unwrap());
    (Client::connect(&addr).unwrap(), addr)
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn start_req(run: &str, problem: &str, seed: u64, budget: f64) -> Vec<(&'static str, Json)> {
    vec![
        ("op", Json::Str("start".into())),
        ("run", Json::Str(run.into())),
        ("problem", Json::Str(problem.into())),
        ("seed", Json::Num(seed as f64)),
        ("budget", Json::Num(budget)),
        ("init_low", Json::Num(8.0)),
        ("init_high", Json::Num(4.0)),
    ]
}

fn wait(client: &mut Client, run: &str) -> Json {
    client
        .expect_ok(&obj(vec![
            ("op", Json::Str("wait".into())),
            ("run", Json::Str(run.into())),
        ]))
        .unwrap()
}

fn num(reply: &Json, key: &str) -> f64 {
    reply
        .get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("reply missing numeric '{key}': {reply}"))
}

fn state(reply: &Json) -> String {
    reply
        .get("state")
        .and_then(Json::as_str)
        .unwrap()
        .to_string()
}

/// The in-process reference a served `batch = 1` run must match exactly.
fn reference(problem: &dyn MultiFidelityProblem, seed: u64, budget: f64) -> Outcome {
    let mut rng = StdRng::seed_from_u64(seed);
    MfBayesOpt::new(MfBoConfig {
        initial_low: 8,
        initial_high: 4,
        budget,
        ..MfBoConfig::default()
    })
    .run_with(problem, &mut rng, &mut RunOptions::default())
    .unwrap()
}

#[test]
fn concurrent_runs_match_their_in_process_references() {
    let (mut client, _addr) = boot(4);
    let specs: Vec<(String, u64)> = (0..3).map(|i| (format!("run-{i}"), 100 + i)).collect();
    for (name, seed) in &specs {
        client
            .expect_ok(&obj(start_req(name, "forrester", *seed, 8.0)))
            .unwrap();
    }
    let problem = testfns::forrester();
    for (name, seed) in &specs {
        let reply = wait(&mut client, name);
        assert_eq!(state(&reply), "done", "{name}: {reply}");
        let want = reference(&problem, *seed, 8.0);
        assert!(
            num(&reply, "best_objective").to_bits() == want.best_objective.to_bits(),
            "{name}: served best_objective {} vs in-process {}",
            num(&reply, "best_objective"),
            want.best_objective
        );
        assert!(
            num(&reply, "total_cost").to_bits() == want.total_cost.to_bits(),
            "{name}: served total_cost differs"
        );
        assert_eq!(num(&reply, "n_low") as usize, want.n_low, "{name}: n_low");
        assert_eq!(
            num(&reply, "n_high") as usize,
            want.n_high,
            "{name}: n_high"
        );
    }
}

#[test]
fn single_fidelity_run_matches_in_process_sfbo() {
    // `init_low: 0` serves single-fidelity BO: the served run must write the
    // same journal, byte for byte, as an in-process `MfBayesOpt` run with no
    // low-fidelity design and the same seed, design and budget, so its
    // history is bit-identical.
    let (mut client, _addr) = boot(2);
    let root = std::env::temp_dir().join(format!("mfbo-served-sfbo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (served_dir, local_dir) = (root.join("served"), root.join("local"));
    let mut req = start_req("sf", "forrester", 9, 9.0);
    req.retain(|(k, _)| *k != "init_low");
    req.extend([
        ("init_low", Json::Num(0.0)),
        (
            "journal",
            Json::Str(served_dir.to_string_lossy().into_owned()),
        ),
    ]);
    client.expect_ok(&obj(req)).unwrap();
    let reply = wait(&mut client, "sf");
    assert_eq!(state(&reply), "done", "{reply}");

    let mut rng = StdRng::seed_from_u64(9);
    let mut opts = RunOptions::journaled(RunStore::open(&local_dir).unwrap());
    let want = MfBayesOpt::new(MfBoConfig {
        initial_low: 0,
        initial_high: 4,
        budget: 9.0,
        ..MfBoConfig::default()
    })
    .run_with(&testfns::forrester(), &mut rng, &mut opts)
    .unwrap();
    drop(opts);
    for file in ["meta.json", "journal.jsonl"] {
        assert_eq!(
            std::fs::read(served_dir.join(file)).unwrap(),
            std::fs::read(local_dir.join(file)).unwrap(),
            "served {file} differs from the in-process single-fidelity run"
        );
    }
    assert_eq!(
        num(&reply, "best_objective").to_bits(),
        want.best_objective.to_bits()
    );
    assert_eq!(num(&reply, "n_low"), 0.0);
    assert_eq!(num(&reply, "n_high") as usize, want.n_high);

    // A run still needs a high-fidelity design.
    let mut bad = start_req("no-high", "forrester", 9, 9.0);
    bad.retain(|(k, _)| *k != "init_low" && *k != "init_high");
    bad.extend([("init_low", Json::Num(0.0)), ("init_high", Json::Num(0.0))]);
    assert!(start_error(&mut client, bad).contains("initial designs"));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn nan_injection_quarantines_without_poisoning_siblings() {
    let (mut client, _addr) = boot(4);
    // Sick run: every 7th simulation returns NaN; penalize-and-quarantine
    // keeps it alive.
    let mut sick = start_req("sick", "forrester", 3, 6.0);
    sick.push(("on_non_finite", Json::Str("penalize".into())));
    sick.push((
        "fault",
        obj(vec![
            ("kind", Json::Str("nan".into())),
            ("every", Json::Num(7.0)),
        ]),
    ));
    client.expect_ok(&obj(sick)).unwrap();
    client
        .expect_ok(&obj(start_req("healthy", "forrester", 42, 8.0)))
        .unwrap();

    let sick_reply = wait(&mut client, "sick");
    assert_eq!(state(&sick_reply), "done", "{sick_reply}");
    assert!(
        num(&sick_reply, "quarantined") > 0.0,
        "NaN injections must quarantine points: {sick_reply}"
    );

    let healthy_reply = wait(&mut client, "healthy");
    assert_eq!(state(&healthy_reply), "done");
    let want = reference(&testfns::forrester(), 42, 8.0);
    assert!(
        num(&healthy_reply, "best_objective").to_bits() == want.best_objective.to_bits(),
        "the sick sibling must not perturb the healthy run"
    );
}

#[test]
fn panicking_simulator_recovers_with_retries_and_aborts_without() {
    let (mut client, _addr) = boot(2);
    // With retries, the deterministic injector's counter advances on the
    // failed call, so the retry succeeds.
    let mut retry = start_req("retry", "forrester", 5, 5.0);
    retry.push(("retries", Json::Num(2.0)));
    retry.push((
        "fault",
        obj(vec![
            ("kind", Json::Str("panic".into())),
            ("every", Json::Num(5.0)),
        ]),
    ));
    client.expect_ok(&obj(retry)).unwrap();

    // Without retries under the default abort policy the run dies — but
    // only that run.
    let mut doomed = start_req("doomed", "forrester", 5, 5.0);
    doomed.push((
        "fault",
        obj(vec![
            ("kind", Json::Str("panic".into())),
            ("every", Json::Num(3.0)),
        ]),
    ));
    client.expect_ok(&obj(doomed)).unwrap();

    let retry_reply = wait(&mut client, "retry");
    assert_eq!(state(&retry_reply), "done", "{retry_reply}");
    assert!(
        num(&retry_reply, "retries") > 0.0,
        "panics must have been retried: {retry_reply}"
    );

    let doomed_reply = wait(&mut client, "doomed");
    assert_eq!(state(&doomed_reply), "failed", "{doomed_reply}");
    assert!(
        doomed_reply.get("error").and_then(Json::as_str).is_some(),
        "failed runs must carry a reason"
    );

    // The pool outlives the casualty: a fresh run still completes.
    client
        .expect_ok(&obj(start_req("after", "forrester", 9, 5.0)))
        .unwrap();
    assert_eq!(state(&wait(&mut client, "after")), "done");
}

#[test]
fn stalled_workers_hit_the_deadline_and_the_run_completes() {
    let (mut client, _addr) = boot(4);
    // Every 9th simulation hangs for 2 s; the run's 150 ms deadline tells
    // the candidate as failed (penalized + quarantined) and moves on.
    let mut stall = start_req("stall", "forrester", 7, 5.0);
    stall.push(("on_non_finite", Json::Str("penalize".into())));
    stall.push(("stall_ms", Json::Num(150.0)));
    stall.push((
        "fault",
        obj(vec![
            ("kind", Json::Str("stall".into())),
            ("every", Json::Num(9.0)),
            ("ms", Json::Num(2000.0)),
        ]),
    ));
    client.expect_ok(&obj(stall)).unwrap();
    client
        .expect_ok(&obj(start_req("bystander", "forrester", 11, 6.0)))
        .unwrap();

    let stall_reply = wait(&mut client, "stall");
    assert_eq!(state(&stall_reply), "done", "{stall_reply}");
    assert!(
        num(&stall_reply, "stalled") > 0.0,
        "deadline must have fired: {stall_reply}"
    );
    assert!(
        num(&stall_reply, "quarantined") > 0.0,
        "stalled candidates are penalized and quarantined: {stall_reply}"
    );

    let bystander = wait(&mut client, "bystander");
    assert_eq!(state(&bystander), "done");
    let want = reference(&testfns::forrester(), 11, 6.0);
    assert!(
        num(&bystander, "best_objective").to_bits() == want.best_objective.to_bits(),
        "a hung sibling must cost throughput only, never correctness"
    );
}

#[test]
fn protocol_errors_leave_the_connection_usable() {
    let (mut client, _addr) = boot(1);

    // Malformed frame.
    let reply = client.request(&Json::Str("not an object".into())).unwrap();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));

    // Unknown op, missing fields, unknown run.
    for bad in [
        obj(vec![("op", Json::Str("frobnicate".into()))]),
        obj(vec![("op", Json::Str("start".into()))]),
        obj(vec![
            ("op", Json::Str("status".into())),
            ("run", Json::Str("ghost".into())),
        ]),
        obj(vec![
            ("op", Json::Str("start".into())),
            ("run", Json::Str("r".into())),
            ("problem", Json::Str("no-such-problem".into())),
        ]),
    ] {
        let reply = client.request(&bad).unwrap();
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(false),
            "{bad} should be rejected: {reply}"
        );
    }

    // Duplicate run names are rejected; the original keeps running.
    client
        .expect_ok(&obj(start_req("dup", "forrester", 1, 4.0)))
        .unwrap();
    let reply = client
        .request(&obj(start_req("dup", "forrester", 1, 4.0)))
        .unwrap();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));

    // The connection still works end to end.
    assert_eq!(state(&wait(&mut client, "dup")), "done");
    client
        .expect_ok(&obj(vec![("op", Json::Str("ping".into()))]))
        .unwrap();
}

#[test]
fn batched_runs_complete_and_report_via_list() {
    let (mut client, _addr) = boot(4);
    let mut batched = start_req("batched", "forrester", 13, 6.0);
    batched.push(("batch", Json::Num(4.0)));
    client.expect_ok(&obj(batched)).unwrap();
    let reply = wait(&mut client, "batched");
    assert_eq!(state(&reply), "done", "{reply}");
    // The batched budget gate sums committed + in-flight cost in a
    // different float order than the sequential commits, so the final cost
    // can land one ulp under the budget.
    assert!(num(&reply, "total_cost") >= 6.0 - 1e-9, "{reply}");

    let list = client
        .expect_ok(&obj(vec![("op", Json::Str("list".into()))]))
        .unwrap();
    let runs = list.get("runs").and_then(Json::as_arr).unwrap();
    assert_eq!(runs.len(), 1);
    assert_eq!(
        runs[0].get("run").and_then(Json::as_str),
        Some("batched"),
        "{list}"
    );
    // list/status carry in-flight and observation counts per run; a
    // finished run has nothing pending and its full history committed.
    assert_eq!(num(&runs[0], "pending"), 0.0, "{list}");
    assert!(num(&runs[0], "obs_low") >= 8.0, "{list}");
    assert!(num(&runs[0], "obs_high") >= 4.0, "{list}");
}

#[test]
fn refit_and_warm_start_fields_are_threaded_and_validated() {
    let (mut client, _addr) = boot(2);
    // A run on the amortized-refit schedule completes.
    let mut req = start_req("amortized", "forrester", 11, 6.0);
    req.push(("refit_every", Json::Num(4.0)));
    client.expect_ok(&obj(req)).unwrap();
    let reply = wait(&mut client, "amortized");
    assert_eq!(state(&reply), "done", "{reply}");

    // refit_every = 0 is an invalid config and fails in the start reply.
    let mut bad = start_req("bad-refit", "forrester", 11, 6.0);
    bad.push(("refit_every", Json::Num(0.0)));
    assert!(start_error(&mut client, bad).contains("refit_every"));

    // Mis-typed knobs are rejected with a field-specific message.
    let mut bad = start_req("bad-resume", "forrester", 11, 6.0);
    bad.push(("resume", Json::Num(1.0)));
    assert!(start_error(&mut client, bad).contains("must be a boolean"));
}

/// Sends a `start` that must be refused and returns the refusal's reason.
fn start_error(client: &mut Client, req: Vec<(&str, Json)>) -> String {
    let req = obj(req);
    let reply = client.request(&req).unwrap();
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(false),
        "{req} should be refused: {reply}"
    );
    reply
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .to_string()
}

#[test]
fn start_refuses_unknown_and_malformed_fields() {
    let (mut client, _addr) = boot(2);
    let with = |field: &'static str, value: Json| {
        let mut req = start_req("strict", "forrester", 3, 4.0);
        req.push((field, value));
        req
    };
    // Unknown fields (typos, or knobs this server no longer has) are named
    // in the refusal instead of silently running with the default.
    for field in ["budgt", "refit_evry"] {
        let e = start_error(&mut client, with(field, Json::Bool(true)));
        assert!(e.contains(&format!("'{field}'")), "{e}");
    }
    let e = start_error(&mut client, with("on_non_finite", Json::Num(1.0)));
    assert!(e.contains("on_non_finite"), "{e}");
    for field in ["max_evals", "retries"] {
        for v in [-3.0, 2.5] {
            let e = start_error(&mut client, with(field, Json::Num(v)));
            assert!(
                e.contains(field) && e.contains("non-negative integer"),
                "{e}"
            );
        }
    }
    let fault = |every: f64, ms: f64| {
        Json::obj([
            ("kind", Json::Str("stall".into())),
            ("every", Json::Num(every)),
            ("ms", Json::Num(ms)),
        ])
    };
    for (f, key) in [
        (fault(-3.0, 10.0), "every"),
        (fault(2.5, 10.0), "every"),
        (fault(3.0, -10.0), "ms"),
        (fault(3.0, 0.5), "ms"),
    ] {
        let e = start_error(&mut client, with("fault", f));
        assert!(e.contains(key) && e.contains("non-negative integer"), "{e}");
    }
    let e = start_error(
        &mut client,
        with(
            "fault",
            Json::obj([("every", Json::Num(3.0)), ("sometimes", Json::Bool(true))]),
        ),
    );
    assert!(e.contains("'sometimes'"), "{e}");
    let e = start_error(
        &mut client,
        with("gp_inference", Json::Str("iterative".into())),
    );
    assert!(e.contains("exact|subset-of-data"), "{e}");

    // Every field a journaled polling client sends is still accepted.
    let dir = std::env::temp_dir().join(format!("mfbo-strict-start-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut req = start_req("served", "forrester", 3, 4.0);
    req.extend([
        ("batch", Json::Num(1.0)),
        ("refit_every", Json::Num(1.0)),
        ("journal", Json::Str(dir.to_string_lossy().into_owned())),
    ]);
    client.expect_ok(&obj(req)).unwrap();
    let reply = wait(&mut client, "served");
    assert_eq!(state(&reply), "done", "{reply}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gp_inference_field_selects_engine_and_bad_values_are_rejected() {
    let (mut client, _addr) = boot(2);
    let mut req = start_req("approx", "forrester", 17, 6.0);
    req.push(("gp_inference", Json::Str("subset-of-data".into())));
    client.expect_ok(&obj(req)).unwrap();
    let reply = wait(&mut client, "approx");
    assert_eq!(state(&reply), "done", "{reply}");
    assert!(num(&reply, "obs_high") >= 4.0, "{reply}");

    // An unknown mode fails in the start reply, not as a failed run.
    let mut bad = start_req("bad", "forrester", 17, 6.0);
    bad.push(("gp_inference", Json::Str("cholmod".into())));
    let err = client.request(&obj(bad)).unwrap();
    assert_eq!(err.get("ok").and_then(Json::as_bool), Some(false));
    assert!(
        err.get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("unknown inference mode"),
        "{err}"
    );
}
