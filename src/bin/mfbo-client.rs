//! Terminal client for the `mfbo-serve` evaluation service.
//!
//! ```text
//! mfbo-client start --addr 127.0.0.1:7877 --run pa1 --problem pa \
//!             --seed 7 --budget 40 --batch 4 --journal runs/pa1
//! mfbo-client wait  --addr 127.0.0.1:7877 --run pa1
//! mfbo-client list  --addr 127.0.0.1:7877
//! mfbo-client shutdown --addr 127.0.0.1:7877
//! ```
//!
//! Each subcommand sends one request frame and prints the server's JSON
//! reply to stdout. The exit code is nonzero when the server replies
//! `ok:false` or (for `wait`) when the run finished in the `failed` state.

use mfbo::InferenceMode;
use mfbo_server::Client;
use mfbo_telemetry::json::Json;
use std::process::ExitCode;

const USAGE: &str = "usage: mfbo-client COMMAND [--addr HOST:PORT] [options]

commands:
  ping                       check the server is alive
  start                      start a named optimization run
  status --run NAME          one-shot status snapshot
  wait --run NAME            block until the run finishes, print outcome
  list                       status of every run on the server
  shutdown                   stop the server's accept loop

start options:
  --run NAME --problem NAME  (required) registry problem: forrester,
                             pedagogical, branin, park, pa, charge-pump
  --seed N --budget N --init-low N --init-high N
  --batch N                  ask/tell batch width (constant-liar fantasies
                             when N > 1; N = 1 matches mfbo-cli bit for bit)
  --journal DIR [--resume]   write-ahead journal / resume after a crash
  --retries N --on-non-finite abort|penalize
  --stall-ms N               deadline before a hung evaluation is failed
  --gp-inference exact|subset-of-data
                             surrogate inference engine (default exact;
                             subset-of-data caps the cubic GP cost on long
                             runs)

--addr defaults to 127.0.0.1:7877.";

#[derive(Debug, Default, PartialEq)]
struct Options {
    command: String,
    addr: String,
    fields: Vec<(String, Json)>,
}

fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Options, String> {
    let mut it = args.into_iter();
    let command = match it.next() {
        Some(c) if !c.starts_with('-') => c,
        Some(h) if h == "--help" || h == "-h" => return Err(USAGE.to_string()),
        _ => return Err(format!("missing command\n{USAGE}")),
    };
    if !matches!(
        command.as_str(),
        "ping" | "start" | "status" | "wait" | "list" | "shutdown"
    ) {
        return Err(format!("unknown command '{command}'\n{USAGE}"));
    }
    let mut opts = Options {
        command: command.clone(),
        addr: "127.0.0.1:7877".into(),
        fields: vec![("op".to_string(), Json::Str(command))],
    };
    let push_num = |fields: &mut Vec<(String, Json)>, key: &str, v: String| -> Result<(), String> {
        let n: f64 = v.parse().map_err(|_| format!("'{key}' must be a number"))?;
        fields.push((key.to_string(), Json::Num(n)));
        Ok(())
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--addr" => opts.addr = value("--addr")?,
            "--run" => {
                let v = value("--run")?;
                opts.fields.push(("run".into(), Json::Str(v)));
            }
            "--problem" => {
                let v = value("--problem")?;
                opts.fields.push(("problem".into(), Json::Str(v)));
            }
            "--seed" => push_num(&mut opts.fields, "seed", value("--seed")?)?,
            "--budget" => push_num(&mut opts.fields, "budget", value("--budget")?)?,
            "--init-low" => push_num(&mut opts.fields, "init_low", value("--init-low")?)?,
            "--init-high" => push_num(&mut opts.fields, "init_high", value("--init-high")?)?,
            "--batch" => push_num(&mut opts.fields, "batch", value("--batch")?)?,
            "--retries" => push_num(&mut opts.fields, "retries", value("--retries")?)?,
            "--stall-ms" => push_num(&mut opts.fields, "stall_ms", value("--stall-ms")?)?,
            "--max-evals" => push_num(&mut opts.fields, "max_evals", value("--max-evals")?)?,
            "--journal" => {
                let v = value("--journal")?;
                opts.fields.push(("journal".into(), Json::Str(v)));
            }
            "--resume" => opts.fields.push(("resume".into(), Json::Bool(true))),
            "--gp-inference" => {
                let v = value("--gp-inference")?;
                InferenceMode::parse(&v)?; // reject bad modes before the round trip
                opts.fields.push(("gp_inference".into(), Json::Str(v)));
            }
            "--on-non-finite" => {
                let v = value("--on-non-finite")?;
                if !matches!(v.as_str(), "abort" | "penalize") {
                    return Err("on-non-finite must be 'abort' or 'penalize'".into());
                }
                opts.fields.push(("on_non_finite".into(), Json::Str(v)));
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok(opts)
}

/// One human-readable line per run status: state, in-flight candidates,
/// and committed observation counts (the raw JSON stays on the line above
/// for scripts).
fn summarize(status: &Json) -> Option<String> {
    let run = status.get("run")?.as_str()?;
    let state = status.get("state")?.as_str()?;
    let count = |key: &str| status.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    Some(format!(
        "{run}: {state}, {} pending, {} low / {} high observations",
        count("pending"),
        count("obs_low"),
        count("obs_high"),
    ))
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let mut client = match Client::connect(&opts.addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {}: {e}", opts.addr);
            return ExitCode::FAILURE;
        }
    };
    let reply = match client.request(&Json::Obj(opts.fields)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("request failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{reply}");
    match opts.command.as_str() {
        "status" | "wait" => {
            if let Some(line) = summarize(&reply) {
                println!("{line}");
            }
        }
        "list" => {
            if let Some(Json::Arr(runs)) = reply.get("runs") {
                for run in runs {
                    if let Some(line) = summarize(run) {
                        println!("{line}");
                    }
                }
            }
        }
        _ => {}
    }
    let ok = reply.get("ok").and_then(Json::as_bool) == Some(true);
    let run_failed =
        opts.command == "wait" && reply.get("state").and_then(Json::as_str) == Some("failed");
    if ok && !run_failed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(String::from)
    }

    fn field<'a>(o: &'a Options, key: &str) -> Option<&'a Json> {
        o.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    #[test]
    fn builds_start_requests() {
        let o = parse_args(args(
            "start --addr h:1 --run r1 --problem pa --seed 7 --budget 40 \
             --batch 4 --journal runs/r1 --resume --retries 2 \
             --on-non-finite penalize --stall-ms 500",
        ))
        .unwrap();
        assert_eq!(o.command, "start");
        assert_eq!(o.addr, "h:1");
        assert_eq!(field(&o, "op"), Some(&Json::Str("start".into())));
        assert_eq!(field(&o, "run"), Some(&Json::Str("r1".into())));
        assert_eq!(field(&o, "batch"), Some(&Json::Num(4.0)));
        assert_eq!(field(&o, "resume"), Some(&Json::Bool(true)));
        assert_eq!(field(&o, "stall_ms"), Some(&Json::Num(500.0)));
        assert_eq!(
            field(&o, "on_non_finite"),
            Some(&Json::Str("penalize".into()))
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(args("")).is_err());
        assert!(parse_args(args("frobnicate")).is_err());
        assert!(parse_args(args("start --budget nope")).is_err());
        assert!(parse_args(args("start --on-non-finite maybe")).is_err());
        assert!(parse_args(args("start --gp-inference cholmod")).is_err());
        assert!(parse_args(args("--help")).unwrap_err().contains("usage"));
    }

    #[test]
    fn passes_gp_inference_through() {
        let o = parse_args(args(
            "start --run r --problem pa --gp-inference subset-of-data",
        ))
        .unwrap();
        assert_eq!(
            field(&o, "gp_inference"),
            Some(&Json::Str("subset-of-data".into()))
        );
        let e =
            parse_args(args("start --run r --problem pa --gp-inference iterative")).unwrap_err();
        assert!(e.contains("exact|subset-of-data"), "{e}");
    }

    #[test]
    fn summarizes_status_counts() {
        let status = Json::Obj(vec![
            ("run".into(), Json::Str("r1".into())),
            ("state".into(), Json::Str("running".into())),
            ("pending".into(), Json::Num(2.0)),
            ("obs_low".into(), Json::Num(40.0)),
            ("obs_high".into(), Json::Num(12.0)),
        ]);
        assert_eq!(
            summarize(&status).unwrap(),
            "r1: running, 2 pending, 40 low / 12 high observations"
        );
        assert!(summarize(&Json::Obj(vec![])).is_none());
    }

    #[test]
    fn default_addr_and_minimal_commands() {
        let o = parse_args(args("ping")).unwrap();
        assert_eq!(o.addr, "127.0.0.1:7877");
        assert_eq!(o.fields.len(), 1, "ping sends only the op field");
    }
}
