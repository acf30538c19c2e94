//! `bench_e2e` — the repository's end-to-end benchmark: paper-problem
//! optimization runs timed whole and split by layer.
//!
//! # Running it
//!
//! The benchmark is a package of its own, outside the workspace. From the
//! repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path bench_e2e/Cargo.toml -- \
//!     --workload pa-mfbo --seed 0 --seconds 22 --trace 0
//! ```
//!
//! Its unit tests run with `cargo test --manifest-path bench_e2e/Cargo.toml`.
//!
//! * `--workload NAME` — one of `pa-mfbo`, `cp-mfbo`, `cp-weibo`, `cp-de`,
//!   `pa-served`; or `all` (the default) for every workload.
//! * `--seed N` — rotates the order in which a workload's seed panel runs
//!   (see below). Same `N`, same inputs in the same order.
//! * `--seconds S` — runs rounds, each one pass over the panel of every
//!   selected workload. The first round always runs whole; after it, the
//!   run stops before the first repetition that would end past `S`
//!   seconds, going by how long that panel member took the round before.
//!   With `all`, workloads take turns within a round so that machine drift
//!   hits every workload alike.
//! * `--trace 0|1` — `1` runs every panel member untraced and traced, in
//!   alternating order, and reports per-layer metrics instead of
//!   end-to-end ones.
//! * `--out FILE` — writes every metric with its quartiles and its
//!   samples, one per whole pass, the host, and each workload's config and
//!   seeds.
//!   `BASELINE.json` beside this file is `--workload all --trace 1
//!   --seconds 420 --out`, pretty-printed.
//! * `--trace-out FILE` — writes every repetition's spans as JSONL.
//! * `bench_e2e compare A.json B.json` — applies the bounds in
//!   `BENCHMARK.json` (read from the working directory) to each (metric,
//!   workload) pair of two `--out` files and prints `better`, `same`,
//!   `worse` or `unresolved`.
//!
//! A human-readable table goes to stderr. The last line of stdout is one
//! JSON object, `{"correct", "attempted", "failed", "metrics"}`, each metric
//! `{"value", "unit"}`. End-to-end metrics (`--trace 0`, untraced runs):
//!
//! * `run_wall_ref_s` — the wall time of one optimization run (for
//!   `pa-served`, from the first `start` to the last `done`), rescaled to
//!   the reference host speed (see Caveats): each panel member's median
//!   over its repetitions, then the geometric mean over the panel, so that
//!   a cheap trajectory's timing counts as much as a dear one's;
//! * `setup_s` — the median time from spawning a process to its first
//!   simulator call (for `pa-served`, to the last `start` reply), over the
//!   set-up-only repetitions that run before every repetition: such a
//!   process exits at that point, so a run sets up many times. It is
//!   rescaled to the reference host speed too, by the calibration slices
//!   of all the run's untraced repetitions;
//! * `peak_rss_mb` — `VmHWM` of a repetition's process;
//! * `best_objective`, `cost_to_best` — the best objective found and the
//!   cost, in high-fidelity simulations, at which it was first simulated
//!   (for `pa-served`, the mean of its two runs). Both are deterministic
//!   per seed, so they hold still between runs and catch a change that
//!   makes the optimizer faster by making it worse.
//!
//! The last three are each panel member's median, then the panel's
//! median.
//!
//! Latency percentiles are per-layer metrics (`core.propose.p50_ms` and
//! `p90_ms`, the optimizer's think time between simulations after the
//! initial design; `server.status_p50_ms` and `p90_ms`, the client's
//! `status` round trip), not end-to-end ones: on the shared 2-core
//! reference host their run-to-run spread reached 40%, beyond any useful
//! regression bound. Sample counts go to stderr and `--out`. `attempted`
//! counts optimization runs (requests, for `pa-served`) and `failed` those
//! that errored.
//!
//! # Workloads and seeds
//!
//! Each workload has a fixed panel of optimizer seeds, starting at the
//! first-run seed of `crates/bench/benches/table1.rs` or `table2.rs`, and
//! every run covers the whole panel at least once. An optimizer's cost
//! depends on its trajectory — on the charge pump, whether a feasible
//! design turns up decides between a cheap feasibility search and an 8x
//! dearer wEI acquisition — so runs on different seeds would bury a timing
//! change under trajectory luck. With the panel, run-to-run spread is
//! timing noise. Budgets are cut from the tables' `ci` scale so that one
//! repetition takes one to thirteen seconds on the reference host.
//!
//! # What is measured, and how
//!
//! Every repetition runs in a fresh child process (the binary re-executes
//! itself), so `peak_rss_mb` is clean and every run pays cold set-up the
//! way a user's does.
//!
//! Layers are measured from outside the program, through public APIs only:
//! a [`probe::Timed`] wrapper times every `MultiFidelityProblem::evaluate`
//! call (the `circuits` layer); the gap between consecutive simulations is
//! the optimizer's think time (`core.propose`); `Outcome.telemetry.stages`
//! splits that into GP fitting (`gp.fit`) and acquisition (`opt.acq`); a
//! traced repetition installs a global telemetry sink ([`probe::Counts`])
//! that adds up the program's existing work counters (and, for
//! `pa-served`, the server's own fit, acquisition and simulation spans).
//! Per-layer counters come from the traced repetitions and per-layer times
//! from the untraced ones, which tracing cannot slow down; `pa-served`'s
//! layer times, which only the sink sees, from the traced ones. Untraced
//! times are read off the run's [`probe::Pacer`] clock, which leaves the
//! calibration slices out (see Caveats).
//!
//! The benchmark keeps its own spans (`run` > `setup` / `propose` /
//! `evaluate{fidelity}` / `request{op}`). The circuits' busy time is the
//! self time of the `evaluate` spans, `core.propose` that of the `propose`
//! spans (fit and acquisition included), and `core.unattributed` the rest
//! of the run's wall time once circuits, fit and acquisition are taken out:
//! set-up, the optimizer's own work between simulations, the tail. So the
//! shares of `circuits`, `gp.fit`, `opt.acq` and `core.unattributed` sum
//! to 1. On `pa-served` the worker's simulations for one run can overlap
//! the shard's work on the other, so its `core.unattributed` share can dip
//! just below 0. `trace.overhead_ratio` is the median traced/untraced
//! wall-time ratio of the same-seed pairs of every paired pass.
//!
//! Non-convergence is detected from the circuits' documented failure
//! sentinels: the PA reports objective `0.0` with constraints `[100, 100]`,
//! the charge pump `1e3` for the objective and all five constraints.
//!
//! # Load model
//!
//! Every run is `Parallelism::Serial`, the library's default and the way
//! the server runs every run, so a run keeps one core busy whatever the
//! host. `pa-served` boots an in-process server with 1 shard and 1 worker
//! and starts two journaled PA runs, which the shard drives in turn; one
//! client connection drives it as a closed loop (each request sent after
//! the previous reply; `status` for every unfinished run every 20 ms, then
//! `wait`). A traced `pa-served` repetition also runs the same two seeds
//! in-process, one after the other: `server.overhead_ratio` is the served
//! wall time over that.
//!
//! # Checks
//!
//! On by default; any violation makes the result `"correct": false` and the
//! exit code 1. Every outcome has a finite objective; total cost stays
//! within the budget plus one high-fidelity step; every simulator call is
//! in the history; every served journal holds exactly `n_low + n_high`
//! committed evaluations; no request fails; traced and untraced runs of a
//! seed agree bit for bit; served runs agree bit for bit with in-process
//! runs of the same seed (parallelism never changes results).
//!
//! # Caveats
//!
//! The reference host (2 cores, `nproc` = 2) is shared with other tenants,
//! and its speed drifts by up to 1.7x over minutes. The drift slows CPU
//! time as much as wall time, so no clock hides it. At times the second
//! core is as good as gone: runs on `Threads(2)` then took 2.3x longer
//! while a one-thread kernel slowed by 1.2x, which is why every run is
//! `Serial`.
//!
//! The drift is divided out instead. An untraced repetition runs on a
//! [`probe::Pacer`] clock: after every simulator call, and at the end of
//! every surrogate fit and acquisition (seen through the telemetry sink),
//! the optimizer's own thread — in-process, or the server's shard — times
//! a slice of [`probe::calibrate`], a fixed kernel of the benchmark's own,
//! sized to 5% of the time since the last slice, and the clock leaves the
//! slice out. `run_wall_ref_s` is the run's wall time times
//! [`probe::CALIBRATION_REF_S`] (one kernel unit on the reference host
//! when quiet) over the slices' time per unit. The host's speed changes
//! within a second, so kernels timed just before and after a run tracked
//! it loosely; slices all through the run, on its own thread, follow it
//! (they correlate 0.96 with `cp-de` repetition times). On the reference
//! host, at a time when raw wall times spread 0.11–0.19 of the median
//! between 22-second runs, `run_wall_ref_s` spread 0.02–0.05. The kernel
//! calls nothing in the program, so a change to the program moves the
//! metric by as much as it moves the wall time. The slices do evict some
//! of the program's cached data, a small cost that lands on both sides of
//! any comparison, and that `trace.overhead_ratio` (traced repetitions are
//! not paced) reads as slightly less overhead than there is.

mod probe;
mod stats;
mod summary;
mod workloads;

use mfbo_telemetry::json::{parse, Json};
use stats::{median, verdict};
use std::collections::BTreeMap;
use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use summary::{end_to_end, metric_map, per_layer, Pass, END_TO_END, LAYERS, PER_LAYER};
use workloads::{remove_scratch, run_rep, served_scratch, Found, Mode, Rep, Scale, Workload};

/// A repetition's process is killed after this long.
const CHILD_TIMEOUT: Duration = Duration::from_secs(120);

/// Set-up-only repetitions run before each repetition: enough of them that
/// `setup_s`, a few milliseconds with a wide spread, has a steady median.
const SETUPS: usize = 5;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        Some("child") => child(&args[1..]),
        _ => Opts::parse(&args).and_then(|o| bench(&o)),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::from(2)
        }
    }
}

/// Which workloads a benchmark run covers.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Target {
    One(Workload),
    All,
}

#[derive(Debug)]
struct Opts {
    target: Target,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut o = Opts {
            target: Target::All,
            seed: 0,
            seconds: 20.0,
            trace: false,
            out: None,
            trace_out: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            let number = |v: &String| {
                v.parse::<u64>()
                    .map_err(|_| format!("{flag} expects a whole number, got '{v}'"))
            };
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    o.target = match v.as_str() {
                        "all" => Target::All,
                        name => Target::One(
                            Workload::parse(name).ok_or(format!("unknown workload '{name}'"))?,
                        ),
                    };
                }
                "--seed" => o.seed = number(value()?)?,
                "--seconds" => {
                    let v = value()?;
                    o.seconds = v
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or(format!("--seconds expects a positive number, got '{v}'"))?;
                }
                "--trace" => {
                    o.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace expects 0 or 1, got '{v}'")),
                    }
                }
                "--out" => o.out = Some(value()?.into()),
                "--trace-out" => o.trace_out = Some(value()?.into()),
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        Ok(o)
    }
}

/// Internal: runs one repetition in this process and prints its record.
fn child(args: &[String]) -> Result<ExitCode, String> {
    let [w, seed, run, mode, spawned_us] = args else {
        return Err("child expects WORKLOAD SEED RUN MODE SPAWNED_US".into());
    };
    let w = Workload::parse(w).ok_or(format!("unknown workload '{w}'"))?;
    let mode = Mode::parse(mode).ok_or(format!("unknown mode '{mode}'"))?;
    let num = |v: &String| v.parse::<u64>().map_err(|_| format!("bad number '{v}'"));
    let before_start = unix_us().saturating_sub(num(spawned_us)?);
    let mut rep = run_rep(
        w,
        num(seed)?,
        Scale::Bench,
        mode,
        Duration::from_micros(before_start),
        num(run)?,
    );
    rep.sums
        .insert("peak_rss_mb".into(), probe::peak_rss_mb().unwrap_or(0.0));
    println!("{}", rep.to_json());
    Ok(ExitCode::SUCCESS)
}

fn unix_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_micros() as u64)
}

/// Runs one repetition in a fresh child process and collects its record.
fn spawn_rep(w: Workload, seed: u64, run: u64, mode: Mode) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .arg("child")
        .arg(w.name())
        .arg(seed.to_string())
        .arg(run.to_string())
        .arg(mode.name())
        .arg(unix_us().to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        stdout.read_to_string(&mut s).map(|_| s)
    });
    let deadline = Instant::now() + CHILD_TIMEOUT;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() <= deadline => {
                // Seldom enough not to take time from the child.
                std::thread::sleep(Duration::from_millis(10));
            }
            Ok(None) => break Err(format!("{} seed {seed} timed out", w.name())),
            Err(e) => break Err(format!("wait: {e}")),
        }
    };
    if status.is_err() {
        let _ = child.kill();
        let _ = child.wait();
    }
    // A served child that exits early, by design or not, leaves its
    // journals behind.
    if w == Workload::PaServed {
        remove_scratch(&served_scratch(child.id(), run));
    }
    let text = reader
        .join()
        .map_err(|_| "stdout reader panicked".to_string())?;
    let status = status?;
    let text = text.map_err(|e| format!("read child stdout: {e}"))?;
    if !status.success() {
        return Err(format!("{} seed {seed} exited with {status}", w.name()));
    }
    let line = text.lines().last().unwrap_or("");
    Rep::from_json(&parse(line)?)
}

/// Everything measured for one workload.
struct Measured {
    w: Workload,
    /// One entry per pass over the seed panel; the last may stop short.
    passes: Vec<Pass>,
    traced: Vec<Rep>,
    /// `(traced, untraced)` wall times of same-seed pairs.
    pairs: Vec<(f64, f64)>,
    /// Repetitions whose process failed, and cross-rep check failures.
    errors: Vec<String>,
    crashes: u64,
    /// Repetitions spawned so far; tags each one's spans.
    runs: u64,
    /// Seconds each panel member's last turn took, spawning included.
    took: BTreeMap<u64, f64>,
}

impl Measured {
    fn new(w: Workload) -> Measured {
        Measured {
            w,
            passes: Vec::new(),
            traced: Vec::new(),
            pairs: Vec::new(),
            errors: Vec::new(),
            crashes: 0,
            runs: 0,
            took: BTreeMap::new(),
        }
    }

    fn spawn(&mut self, seed: u64, mode: Mode) -> Option<Rep> {
        self.runs += 1;
        match spawn_rep(self.w, seed, self.runs - 1, mode) {
            Ok(rep) => Some(rep),
            Err(e) => {
                self.errors.push(e);
                self.crashes += 1;
                None
            }
        }
    }

    /// Runs the `i`-th panel member of the current pass: [`SETUPS`]
    /// set-up-only repetitions, then the run untraced, or with `paired`
    /// untraced and traced, the order alternating between members. Records
    /// how long that took, to predict the member's next turn.
    fn step(&mut self, seed: u64, i: usize, paired: bool) {
        let start = Instant::now();
        let setups: Vec<f64> = (0..SETUPS)
            .filter_map(|_| self.spawn(seed, Mode::Setup))
            .map(|r| r.get("setup_s"))
            .collect();
        let (plain, traced) = match (paired, i % 2) {
            (false, _) => (self.spawn(seed, Mode::Plain), None),
            (true, 0) => {
                let p = self.spawn(seed, Mode::Plain);
                (p, self.spawn(seed, Mode::Traced))
            }
            (true, _) => {
                let t = self.spawn(seed, Mode::Traced);
                (self.spawn(seed, Mode::Plain), t)
            }
        };
        if let (Some(p), Some(t)) = (&plain, &traced) {
            self.pair_up(t, p);
        }
        let pass = self.passes.last_mut().expect("a pass is open");
        pass.setups_s.extend(setups);
        pass.reps.extend(plain);
        self.traced.extend(traced);
        self.took.insert(seed, start.elapsed().as_secs_f64());
    }

    /// Records a same-seed pair's wall times and checks that tracing did
    /// not change the results.
    fn pair_up(&mut self, traced: &Rep, plain: &Rep) {
        self.pairs
            .push((traced.get("run_wall_s"), plain.get("run_wall_s")));
        if !same_bits(&traced.outcomes, &plain.outcomes) {
            self.errors.push(format!(
                "seed {}: traced outcomes {:?} differ from untraced {:?}",
                plain.seed, traced.outcomes, plain.outcomes
            ));
        }
    }

    fn reps(&self) -> impl Iterator<Item = &Rep> + Clone {
        self.passes.iter().flat_map(|p| &p.reps).chain(&self.traced)
    }

    fn violations(&self) -> Vec<String> {
        let mut v = self.errors.clone();
        v.extend(self.reps().flat_map(|r| r.violations.iter().cloned()));
        v
    }

    fn attempted_failed(&self) -> (u64, u64) {
        let sum = |k: &str| self.reps().map(|r| r.get(k)).sum::<f64>() as u64;
        (
            sum("attempted") + self.crashes,
            sum("failed") + self.crashes,
        )
    }

    fn e2e(&self) -> Vec<summary::E2e> {
        end_to_end(&self.passes, self.w.panel())
    }

    /// Per-layer metrics: counters from the traced repetitions, times from
    /// the untraced ones, which tracing cannot slow down — except for
    /// `pa-served`, whose layer times only the telemetry sink sees.
    fn layers(&self) -> Vec<f64> {
        let traced: Vec<&Rep> = self.traced.iter().collect();
        let timed: Vec<&Rep> = match self.w {
            Workload::PaServed => traced.clone(),
            _ => self.passes.iter().flat_map(|p| &p.reps).collect(),
        };
        per_layer(&timed, &traced, &self.pairs)
    }

    /// The per-layer metric map; `null` without traced repetitions.
    fn layers_json(&self) -> Json {
        if self.traced.is_empty() {
            Json::Null
        } else {
            metric_map(PER_LAYER, self.layers())
        }
    }

    fn to_json(&self) -> Json {
        let seeds = |reps: &[Rep]| Json::nums(reps.iter().map(|r| r.seed as f64));
        Json::obj([
            ("name", Json::Str(self.w.name().into())),
            ("why", Json::Str(self.w.why().into())),
            ("config", Json::Str(self.w.config(Scale::Bench))),
            (
                "passes",
                Json::Arr(self.passes.iter().map(|p| seeds(&p.reps)).collect()),
            ),
            ("traced", seeds(&self.traced)),
            (
                "trace_pairs_s",
                Json::Arr(
                    self.pairs
                        .iter()
                        .map(|&(t, u)| Json::nums([t, u]))
                        .collect(),
                ),
            ),
            (
                "end_to_end",
                Json::obj(END_TO_END.iter().zip(self.e2e()).map(|(&(name, unit), m)| {
                    (
                        name,
                        Json::obj([
                            ("unit", Json::Str(unit.into())),
                            ("value", Json::Num(m.value)),
                            ("q1", Json::Num(m.q1)),
                            ("q3", Json::Num(m.q3)),
                            ("n", Json::Num(m.n as f64)),
                            ("samples", Json::nums(m.samples)),
                        ]),
                    )
                })),
            ),
            ("per_layer", self.layers_json()),
            (
                "violations",
                Json::Arr(self.violations().into_iter().map(Json::Str).collect()),
            ),
        ])
    }

    fn print_table(&self) {
        let plain: usize = self.passes.iter().map(|p| p.reps.len()).sum();
        eprintln!("== {}: {}", self.w.name(), self.w.config(Scale::Bench));
        eprintln!(
            "   {} passes, {plain} untraced + {} traced reps",
            self.passes.len(),
            self.traced.len()
        );
        if plain > 0 {
            for (&(name, unit), m) in END_TO_END.iter().zip(self.e2e()) {
                eprintln!(
                    "   {name:<14} {:>12.6} {unit:<2}  per pass {:?}, n {}",
                    m.value, m.samples, m.n
                );
            }
        }
        if !self.traced.is_empty() {
            let v = self.layers();
            let get = |n: &str| v[PER_LAYER.iter().position(|m| m.0 == n).expect("known")];
            let shares: Vec<String> = LAYERS
                .iter()
                .map(|l| format!("{l} {:.3}", get(&format!("{l}.share"))))
                .collect();
            eprintln!("   shares: {}", shares.join(", "));
            eprintln!("   trace.overhead_ratio {:.4}", get("trace.overhead_ratio"));
        }
    }
}

fn same_bits(a: &[Found], b: &[Found]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.same_bits(*y))
}

fn host() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj([("nproc", Json::Num(nproc as f64)), ("cpu", Json::Str(cpu))])
}

fn bench(o: &Opts) -> Result<ExitCode, String> {
    let measured = match o.target {
        Target::One(w) => measure(&[w], o),
        Target::All => measure(&Workload::ALL, o),
    };
    let mut violations: Vec<String> = measured.iter().flat_map(Measured::violations).collect();
    violations.extend(cross_check(&measured));
    for m in &measured {
        m.print_table();
    }
    for v in &violations {
        eprintln!("CHECK FAILED: {v}");
    }
    let correct = violations.is_empty();
    let (attempted, failed) = measured
        .iter()
        .map(Measured::attempted_failed)
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));

    if let Some(path) = &o.out {
        let doc = Json::obj([
            ("host", host()),
            ("seed", Json::Num(o.seed as f64)),
            (
                "workloads",
                Json::Arr(measured.iter().map(Measured::to_json).collect()),
            ),
        ]);
        std::fs::write(path, format!("{doc}\n"))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    if let Some(path) = &o.trace_out {
        let mut text = String::new();
        for m in &measured {
            for s in m.reps().flat_map(|r| &r.spans) {
                // `run` ids count per workload; the name makes them unique.
                let mut fields = vec![("workload".to_string(), Json::Str(m.w.name().into()))];
                if let Json::Obj(f) = s {
                    fields.extend(f.iter().cloned());
                }
                text.push_str(&format!("{}\n", Json::Obj(fields)));
            }
        }
        std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    }

    let e2e_map = |m: &Measured| metric_map(END_TO_END, m.e2e().iter().map(|e| e.value));
    let metrics = match o.target {
        Target::One(_) if o.trace => metric_map(PER_LAYER, measured[0].layers()),
        Target::One(_) => e2e_map(&measured[0]),
        Target::All => Json::obj(measured.iter().map(|m| {
            (
                m.w.name(),
                Json::obj([("end_to_end", e2e_map(m)), ("per_layer", m.layers_json())]),
            )
        })),
    };
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{line}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Rounds of one pass over each workload's panel (paired with `--trace 1`).
/// The first round always runs whole. After it, the run stops before the
/// first repetition that would end past `--seconds`, going by how long the
/// same panel member took in the round before, so a run never overruns
/// and the passes it holds are all whole but the last.
fn measure(workloads: &[Workload], o: &Opts) -> Vec<Measured> {
    let start = Instant::now();
    let mut all: Vec<Measured> = workloads.iter().map(|&w| Measured::new(w)).collect();
    'rounds: for round in 1.. {
        for m in all.iter_mut() {
            if workloads.len() > 1 {
                eprintln!("round {round}: {}", m.w.name());
            }
            m.passes.push(Pass::default());
            for i in 0..m.w.panel() {
                let seed = m.w.panel_seed(o.seed, i);
                let next = m.took.get(&seed).copied().unwrap_or(0.0);
                if round > 1 && start.elapsed().as_secs_f64() + next > o.seconds {
                    break 'rounds;
                }
                m.step(seed, i, o.trace);
            }
        }
    }
    for m in all.iter_mut() {
        m.passes.retain(|p| !p.reps.is_empty());
    }
    all
}

/// Served run 0 of a `pa-served` rep has the seed of a `pa-mfbo` panel
/// member; whenever both ran, their results must be bit-identical.
fn cross_check(all: &[Measured]) -> Vec<String> {
    let find = |w| all.iter().find(|m| m.w == w);
    let (Some(inproc), Some(served)) = (find(Workload::PaMfbo), find(Workload::PaServed)) else {
        return Vec::new();
    };
    let by_seed: BTreeMap<u64, Found> = inproc
        .reps()
        .filter_map(|r| Some((r.seed, *r.outcomes.first()?)))
        .collect();
    served
        .reps()
        .filter_map(|r| {
            let want = by_seed.get(&r.seed)?;
            let got = r.outcomes.first()?;
            (!got.same_bits(*want)).then(|| {
                format!(
                    "seed {}: pa-served run 0 {got:?} differs from pa-mfbo {want:?}",
                    r.seed
                )
            })
        })
        .collect()
}

/// `compare A.json B.json`: per (workload, end-to-end metric), B against
/// the baseline A under the bounds of `BENCHMARK.json`.
fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: bench_e2e compare A.json B.json".into());
    };
    let load = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?;
        parse(text.trim())
    };
    let spec = load("BENCHMARK.json")?;
    let (a, b) = (load(a)?, load(b)?);
    let bounds: Vec<(String, f64, bool)> = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json lacks 'end_to_end'")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            let lower = m.get("better").and_then(Json::as_str) != Some("higher");
            Ok((name.to_string(), bound, lower))
        })
        .collect::<Result<_, String>>()?;
    let workloads = |doc: &Json| -> Vec<Json> {
        doc.get("workloads")
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .to_vec()
    };
    let samples = |w: &Json, metric: &str| -> Vec<f64> {
        w.get("end_to_end")
            .and_then(|e| e.get(metric))
            .and_then(|m| m.get("samples"))
            .and_then(Json::as_arr)
            .map(|s| s.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default()
    };
    println!(
        "{:<10} {:<14} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    for wb in workloads(&b) {
        let name = wb.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(wa) = workloads(&a)
            .into_iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            continue;
        };
        for (metric, bound, lower) in &bounds {
            let (sa, sb) = (samples(&wa, metric), samples(&wb, metric));
            let (ma, mb) = (median(&sa), median(&sb));
            println!(
                "{name:<10} {metric:<14} {ma:>12.6} {mb:>12.6} {:>+7.1}% {:>5.0}%  {}",
                (mb - ma) / ma.abs() * 100.0,
                bound * 100.0,
                verdict(&sa, &sb, *bound, *lower).as_str()
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split(' ').map(String::from).collect()
    }

    #[test]
    fn options_parse_and_reject_bad_values() {
        let o = Opts::parse(&args("--workload cp-de --seed 3 --seconds 12 --trace 1")).unwrap();
        assert_eq!(o.target, Target::One(Workload::CpDe));
        assert_eq!((o.seed, o.seconds, o.trace), (3, 12.0, true));
        for bad in [
            "--trace 2",
            "--workload x",
            "--seconds 0",
            "--passes 3",
            "--seed -1",
            "--bogus",
            "--seed",
        ] {
            assert!(Opts::parse(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn panels_rotate_with_the_seed_and_line_up_across_pa_workloads() {
        for w in Workload::ALL {
            for rotate in [0, 1, 7] {
                let mut seeds: Vec<u64> = (0..w.panel()).map(|i| w.panel_seed(rotate, i)).collect();
                assert_eq!(seeds[0], w.panel_seed(0, rotate as usize % w.panel()));
                seeds.sort_unstable();
                let panel: Vec<u64> = (0..w.panel() as u64)
                    .map(|j| w.base_seed() + 2 * j)
                    .collect();
                assert_eq!(seeds, panel, "{} rotate {rotate}", w.name());
            }
        }
        // pa-served's first run has the seed of a pa-mfbo panel member.
        for i in 0..Workload::PaServed.panel() {
            assert_eq!(
                Workload::PaServed.panel_seed(0, i),
                Workload::PaMfbo.panel_seed(0, i)
            );
        }
    }

    /// Every workload at a tiny budget, traced, with every output check on.
    #[test]
    fn smoke_every_workload() {
        for (k, w) in Workload::ALL.into_iter().enumerate() {
            let seed = w.panel_seed(0, 0);
            let rep = run_rep(
                w,
                seed,
                Scale::Smoke,
                Mode::Traced,
                Duration::ZERO,
                k as u64,
            );
            assert!(
                rep.violations.is_empty(),
                "{}: {:?}",
                w.name(),
                rep.violations
            );
            assert!(rep.get("run_wall_s") > 0.0, "{}", w.name());
            assert!(rep.get("setup_s") > 0.0, "{}", w.name());
            assert!(!rep.outcomes.is_empty(), "{}", w.name());
            let layers = per_layer(&[&rep], &[&rep], &[]);
            let share = |l: &str| {
                let name = format!("{l}.share");
                layers[PER_LAYER.iter().position(|m| m.0 == name).expect("share")]
            };
            let total: f64 = LAYERS.iter().map(|l| share(l)).sum();
            assert!(
                (total - 1.0).abs() < 1e-9,
                "{}: shares sum to {total}",
                w.name()
            );
        }
    }
}
