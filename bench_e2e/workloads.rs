//! The five workloads and the in-process code that runs one repetition of
//! each, measuring every layer from outside the program.

use crate::probe::{run_spans, self_times, Counts, Pacer, Span, Timed};
use mfbo::problem::MultiFidelityProblem;
use mfbo::{MfBayesOpt, MfBoConfig, Outcome, RunStore};
use mfbo_baselines::{DeBaselineConfig, DifferentialEvolutionBaseline, Weibo, WeiboConfig};
use mfbo_circuits::charge_pump::ChargePump;
use mfbo_circuits::pa::PowerAmplifier;
use mfbo_runstore::Fid;
use mfbo_server::{Client, Scheduler, Server, ServerConfig};
use mfbo_telemetry::json::Json;
use mfbo_telemetry::Sink;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Status-poll period of the `pa-served` client.
const POLL: Duration = Duration::from_millis(20);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaMfbo,
    CpMfbo,
    CpWeibo,
    CpDe,
    PaServed,
}

/// What a repetition's process does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The whole run, untraced.
    Plain,
    /// The whole run with the counting sink installed.
    Traced,
    /// Set-up only: the process reports `setup_s` at the first simulator
    /// call (for `pa-served`, once both runs are started) and exits.
    Setup,
}

impl Mode {
    pub const ALL: [Mode; 3] = [Mode::Plain, Mode::Traced, Mode::Setup];

    pub fn name(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Traced => "traced",
            Mode::Setup => "setup",
        }
    }

    pub fn parse(name: &str) -> Option<Mode> {
        Mode::ALL.into_iter().find(|m| m.name() == name)
    }
}

/// Problem size of a repetition: `Bench` is what the benchmark measures,
/// `Smoke` a tiny budget for the unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Bench,
    // Only the unit tests run it.
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PaMfbo,
        Workload::CpMfbo,
        Workload::CpWeibo,
        Workload::CpDe,
        Workload::PaServed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaMfbo => "pa-mfbo",
            Workload::CpMfbo => "cp-mfbo",
            Workload::CpWeibo => "cp-weibo",
            Workload::CpDe => "cp-de",
            Workload::PaServed => "pa-served",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// First-run seed of the paper-table harness the workload comes from
    /// (`benches/table1.rs`, `benches/table2.rs`).
    pub fn base_seed(self) -> u64 {
        match self {
            Workload::PaMfbo | Workload::PaServed => 1000,
            Workload::CpMfbo => 1100,
            Workload::CpWeibo => 2100,
            Workload::CpDe => 4100,
        }
    }

    /// Size of the workload's seed panel. A run covers the whole panel and
    /// reports over its members, so every run measures the same work: an
    /// optimizer's cost depends on its trajectory (on the charge pump,
    /// whether a feasible design turns up decides between a cheap and an 8x
    /// dearer acquisition), and per-run seeds would bury timing changes
    /// under that spread.
    pub fn panel(self) -> usize {
        match self {
            Workload::PaMfbo | Workload::CpMfbo | Workload::CpDe => 4,
            Workload::CpWeibo => 3,
            Workload::PaServed => 2,
        }
    }

    /// Seed of the `i`-th repetition of a pass whose order `--seed` rotates.
    /// Panel members are 2 apart so that `pa-served` (seeds `s`, `s + 1`)
    /// shares its first run's seed with the same `pa-mfbo` member.
    pub fn panel_seed(self, rotate: u64, i: usize) -> u64 {
        let n = self.panel() as u64;
        self.base_seed() + 2 * ((rotate % n + i as u64) % n)
    }

    pub fn why(self) -> &'static str {
        match self {
            Workload::PaMfbo => {
                "5-dim transient PA, GP refit every iteration: the fit path is a large share here"
            }
            Workload::CpMfbo => {
                "36-dim charge pump with NARGP MC propagation: acquisition dominates, simulation does not"
            }
            Workload::CpWeibo => {
                "single-fidelity GP on the charge pump, no MC propagation: a NARGP-only gain must not move it"
            }
            Workload::CpDe => {
                "DE with no surrogate: nearly all time is MNA DC-sweep simulation, the only place a circuits gain shows"
            }
            Workload::PaServed => {
                "two journaled PA runs through the evaluation service with a polling client: service and journal overhead"
            }
        }
    }

    /// The configuration one repetition runs, in words.
    pub fn config(self, scale: Scale) -> String {
        match self {
            Workload::PaMfbo | Workload::PaServed => {
                let c = pa_config(scale);
                let head = format!(
                    "PowerAmplifier, MfBayesOpt, init {} low + {} high, budget {}, refit_every {}",
                    c.initial_low, c.initial_high, c.budget, c.refit_every
                );
                if self == Workload::PaServed {
                    format!(
                        "{head}; 2 concurrent journaled runs (seeds s, s+1, batch 1) on an \
                         in-process server with 1 shard and 1 worker, 1 ms group-commit \
                         linger; one client connection polls status every 20 ms, then waits"
                    )
                } else {
                    format!("{head}, Serial")
                }
            }
            Workload::CpMfbo => {
                let c = cp_mfbo_config(scale);
                format!(
                    "ChargePump, MfBayesOpt, init {} low + {} high, budget {}, max_iterations {}, \
                     msp_starts {}, gamma {}, refit_every {}, winsorize 2.5, max_low_streak {}, \
                     Serial",
                    c.initial_low,
                    c.initial_high,
                    c.budget,
                    c.max_iterations,
                    c.msp_starts,
                    c.gamma,
                    c.refit_every,
                    c.max_low_streak
                )
            }
            Workload::CpWeibo => {
                let c = cp_weibo_config(scale);
                format!(
                    "ChargePump, Weibo, {} initial points, budget {}, refit_every {}, \
                     winsorize 2.5, Serial",
                    c.initial_points, c.budget, c.refit_every
                )
            }
            Workload::CpDe => {
                let c = cp_de_config(scale);
                format!(
                    "ChargePump, DifferentialEvolutionBaseline, population {}, budget {}",
                    c.population, c.budget
                )
            }
        }
    }
}

fn pa_config(scale: Scale) -> MfBoConfig {
    let (init_low, init_high, budget) = match scale {
        Scale::Bench => (10, 5, 10.0),
        Scale::Smoke => (3, 2, 2.0),
    };
    MfBoConfig {
        initial_low: init_low,
        initial_high: init_high,
        budget,
        refit_every: 1,
        ..MfBoConfig::default()
    }
}

fn cp_mfbo_config(scale: Scale) -> MfBoConfig {
    let (init_low, init_high, max_iterations, msp_starts) = match scale {
        Scale::Bench => (20, 5, 14, 8),
        Scale::Smoke => (3, 2, 1, 2),
    };
    MfBoConfig {
        initial_low: init_low,
        initial_high: init_high,
        budget: 14.0,
        max_iterations,
        refit_every: 5,
        msp_starts,
        gamma: 0.08,
        winsorize_sigma: Some(2.5),
        max_low_streak: 4,
        ..MfBoConfig::default()
    }
}

fn cp_weibo_config(scale: Scale) -> WeiboConfig {
    let (initial_points, budget) = match scale {
        Scale::Bench => (15, 25),
        Scale::Smoke => (2, 3),
    };
    WeiboConfig {
        initial_points,
        budget,
        refit_every: 4,
        winsorize_sigma: Some(2.5),
        ..WeiboConfig::default()
    }
}

fn cp_de_config(scale: Scale) -> DeBaselineConfig {
    let (population, budget) = match scale {
        Scale::Bench => (40, 150),
        Scale::Smoke => (4, 4),
    };
    DeBaselineConfig {
        population,
        budget,
        ..DeBaselineConfig::default()
    }
}

/// What one optimization run returned. Deterministic per seed: the checks
/// compare these bit for bit across runs of the same seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Found {
    pub best_objective: f64,
    pub total_cost: f64,
    /// Cost at which the best design was first simulated at high fidelity.
    pub cost_to_best: f64,
}

impl Found {
    fn of(out: &Outcome) -> Found {
        Found {
            best_objective: out.best_objective,
            total_cost: out.total_cost,
            cost_to_best: out.cost_to_best,
        }
    }

    fn fields(self) -> [f64; 3] {
        [self.best_objective, self.total_cost, self.cost_to_best]
    }

    pub fn same_bits(self, other: Found) -> bool {
        self.fields()
            .iter()
            .zip(other.fields())
            .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// Everything one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Optimizer seed (of the first run, for `pa-served`).
    pub seed: u64,
    /// Additive quantities, keyed by metric name (times in seconds).
    pub sums: BTreeMap<String, f64>,
    /// Optimizer think times after the initial design (ms).
    pub propose_ms: Vec<f64>,
    /// Client-observed latency of every `status` request (ms).
    pub status_ms: Vec<f64>,
    /// What every optimization run returned.
    pub outcomes: Vec<Found>,
    /// Failed output checks, in words. Empty when the rep is correct.
    pub violations: Vec<String>,
    /// The rep's span tree, serialized.
    pub spans: Vec<Json>,
}

impl Rep {
    fn add(&mut self, key: &str, v: f64) {
        *self.sums.entry(key.to_string()).or_insert(0.0) += v;
    }

    pub fn get(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seed", Json::Num(self.seed as f64)),
            (
                "sums",
                Json::obj(self.sums.iter().map(|(k, v)| (k.clone(), Json::Num(*v)))),
            ),
            ("propose_ms", Json::nums(self.propose_ms.iter().copied())),
            ("status_ms", Json::nums(self.status_ms.iter().copied())),
            (
                "outcomes",
                Json::Arr(
                    self.outcomes
                        .iter()
                        .map(|f| Json::nums(f.fields()))
                        .collect(),
                ),
            ),
            (
                "violations",
                Json::Arr(self.violations.iter().cloned().map(Json::Str).collect()),
            ),
            ("spans", Json::Arr(self.spans.clone())),
        ])
    }

    pub fn from_json(v: &Json) -> Result<Rep, String> {
        let arr = |key: &str| {
            v.get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("rep record lacks '{key}'"))
        };
        let nums = |key: &str| -> Result<Vec<f64>, String> {
            arr(key)?
                .iter()
                .map(|x| x.as_f64().ok_or(format!("non-number in '{key}'")))
                .collect()
        };
        let Some(Json::Obj(sums)) = v.get("sums") else {
            return Err("rep record lacks 'sums'".into());
        };
        let mut rep = Rep {
            seed: v
                .get("seed")
                .and_then(Json::as_f64)
                .ok_or("rep record lacks 'seed'")? as u64,
            propose_ms: nums("propose_ms")?,
            status_ms: nums("status_ms")?,
            spans: arr("spans")?.to_vec(),
            ..Rep::default()
        };
        for (k, x) in sums {
            // Non-finite sums serialize as null; keep them visible as NaN.
            rep.sums.insert(k.clone(), x.as_f64().unwrap_or(f64::NAN));
        }
        for o in arr("outcomes")? {
            let num = |x: &Json| x.as_f64().unwrap_or(f64::NAN);
            match o.as_arr() {
                Some([a, b, c]) => rep.outcomes.push(Found {
                    best_objective: num(a),
                    total_cost: num(b),
                    cost_to_best: num(c),
                }),
                _ => return Err("malformed outcome".into()),
            }
        }
        for s in arr("violations")? {
            rep.violations
                .push(s.as_str().ok_or("non-string violation")?.to_string());
        }
        Ok(rep)
    }
}

/// Installs the process-global telemetry sink of a repetition's mode while
/// alive: a [`Counts`] sink when traced, the run's pacing clock when plain.
/// `finish` removes it and adds the counters, if any, to the rep.
struct Tracer {
    counts: Option<Arc<Counts>>,
    installed: bool,
}

impl Tracer {
    fn start(mode: Mode, clock: &Arc<Pacer>) -> Tracer {
        let counts = (mode == Mode::Traced).then(|| Arc::new(Counts::default()));
        let sink: Option<Arc<dyn Sink>> = match (&counts, mode) {
            (Some(c), _) => Some(c.clone()),
            (None, Mode::Plain) => Some(clock.clone()),
            _ => None,
        };
        if let Some(s) = &sink {
            mfbo_telemetry::set_global_sink(s.clone());
        }
        Tracer {
            counts,
            installed: sink.is_some(),
        }
    }

    fn finish(&mut self, rep: &mut Rep) -> Option<Arc<Counts>> {
        if std::mem::take(&mut self.installed) {
            mfbo_telemetry::clear_global_sink();
        }
        let counts = self.counts.take()?;
        for (metric, n) in counts.counters() {
            rep.add(metric, n as f64);
        }
        Some(counts)
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        if self.installed {
            mfbo_telemetry::clear_global_sink();
        }
    }
}

/// Adds the calibration slices of a run's clock to the rep.
fn add_slices(rep: &mut Rep, clock: &Pacer) {
    let (secs, units) = clock.slices();
    rep.add("calib.slice_s", secs);
    rep.add("calib.units", units as f64);
}

/// Runs one repetition of `w` with optimizer seed `seed`. `before_start`
/// is time already spent before this call (process spawn), added to
/// `setup_s`; `run` tags the rep's spans. A [`Mode::Setup`] repetition does
/// not return: it exits the process once set up.
pub fn run_rep(
    w: Workload,
    seed: u64,
    scale: Scale,
    mode: Mode,
    before_start: Duration,
    run: u64,
) -> Rep {
    let mut rep = match w {
        Workload::PaServed => served_rep(seed, scale, mode, before_start, run),
        _ => in_process_rep(w, seed, scale, mode, before_start, run),
    };
    rep.add("setup_s", before_start.as_secs_f64());
    rep.seed = seed;
    rep
}

/// Ends a [`Mode::Setup`] repetition: prints its record, which holds only
/// `setup_s`, as the process's last line and exits.
fn exit_after_setup(seed: u64, setup: Duration) -> ! {
    let mut rep = Rep {
        seed,
        ..Rep::default()
    };
    rep.add("setup_s", setup.as_secs_f64());
    println!("{}", rep.to_json());
    let _ = std::io::stdout().flush();
    std::process::exit(0)
}

/// Runs an in-process workload on a [`Timed`] problem and derives every
/// layer's busy time from the simulator log and `Outcome.telemetry`.
fn in_process_rep(
    w: Workload,
    seed: u64,
    scale: Scale,
    mode: Mode,
    before_start: Duration,
    run: u64,
) -> Rep {
    let mut rep = Rep::default();
    let clock = Pacer::new(mode == Mode::Plain);
    let mut tracer = Tracer::start(mode, &clock);
    let circuit: Arc<dyn MultiFidelityProblem + Send + Sync> = match w {
        Workload::PaMfbo => Arc::new(PowerAmplifier::new()),
        _ => Arc::new(ChargePump::new()),
    };
    let mut p = Timed::new(circuit, clock.clone());
    if mode == Mode::Setup {
        p = p.on_first_call(move |start_s| {
            exit_after_setup(seed, before_start + Duration::from_secs_f64(start_s))
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    // (outcome, size of the initial design, budget in high-fidelity sims)
    let (result, n_init, budget) = match w {
        Workload::PaMfbo | Workload::CpMfbo => {
            let c = if w == Workload::PaMfbo {
                pa_config(scale)
            } else {
                cp_mfbo_config(scale)
            };
            let n_init = c.initial_low + c.initial_high;
            (
                MfBayesOpt::new(c.clone()).run(&p, &mut rng),
                n_init,
                c.budget,
            )
        }
        Workload::CpWeibo => {
            let c = cp_weibo_config(scale);
            let r = Weibo::new(c.clone()).run(&p, &mut rng);
            (r, c.initial_points, c.budget as f64)
        }
        Workload::CpDe => {
            let c = cp_de_config(scale);
            let r = DifferentialEvolutionBaseline::new(c.clone()).run(&p, &mut rng);
            (r, c.population, c.budget as f64)
        }
        Workload::PaServed => unreachable!("served reps run in served_rep"),
    };
    let wall_us = clock.now_s() * 1e6;
    tracer.finish(&mut rep);
    add_slices(&mut rep, &clock);
    let sims = p.sims();

    let out = match result {
        Ok(out) => out,
        Err(e) => {
            rep.violations.push(format!("run failed: {e}"));
            rep.add("attempted", 1.0);
            rep.add("failed", 1.0);
            return rep;
        }
    };
    check_found(&mut rep, Found::of(&out), budget);
    rep.check(out.n_low + out.n_high == sims.len(), || {
        format!(
            "history holds {} evaluations but the simulator ran {} times",
            out.n_low + out.n_high,
            sims.len()
        )
    });

    // The optimizer's think time before each simulation after the initial
    // design (whose gaps are bookkeeping, not proposals).
    for k in n_init.max(1)..sims.len() {
        rep.propose_ms
            .push((sims[k].start_us - sims[k - 1].end_us) / 1e3);
    }

    let spans = run_spans(&sims, wall_us, run);
    for (s, self_us) in spans.iter().zip(self_times(&spans)) {
        let self_s = self_us / 1e6;
        match s.name {
            "evaluate" => {
                let key = format!("circuits.sim_{}", s.attr);
                rep.add(&format!("{key}.calls"), 1.0);
                rep.add(&format!("{key}.busy_s"), self_s);
                rep.add("circuits.calls", 1.0);
                rep.add("circuits.busy_s", self_s);
            }
            "propose" => {
                rep.add("core.propose.calls", 1.0);
                rep.add("core.propose.busy_s", self_s);
            }
            _ => {}
        }
    }
    // Fit and acquisition run inside the propose gaps; the stage timings
    // split them out of the optimizer's think time.
    let stage = |name: &str| {
        out.telemetry
            .stages
            .get(name)
            .map_or((0.0, 0.0), |s| (s.calls as f64, s.total_us as f64 / 1e6))
    };
    let (fit_calls, fit_s) = stage("surrogate_fit");
    let (acq_calls, acq_s) = stage("acq_opt");
    rep.add("run_wall_s", wall_us / 1e6);
    rep.add("layers.wall_s", wall_us / 1e6);
    rep.add("setup_s", sims.first().map_or(0.0, |s| s.start_us / 1e6));
    rep.add(
        "circuits.nonconverged",
        sims.iter().filter(|s| s.nonconverged).count() as f64,
    );
    // What the simulator, the fit and the acquisition leave unexplained:
    // set-up, the optimizer's own work between simulations, the tail.
    rep.add(
        "core.unattributed.busy_s",
        wall_us / 1e6 - rep.get("circuits.busy_s") - fit_s - acq_s,
    );
    rep.add("gp.fit.calls", fit_calls);
    rep.add("gp.fit.busy_s", fit_s);
    rep.add("opt.acq.calls", acq_calls);
    rep.add("opt.acq.busy_s", acq_s);
    rep.add("best_objective", out.best_objective);
    rep.add("cost_to_best", out.cost_to_best);
    rep.add("attempted", 1.0);
    rep.outcomes.push(Found::of(&out));
    rep.spans = spans
        .iter()
        .enumerate()
        .map(|(i, s)| span_json(s, i))
        .collect();
    rep
}

/// The output checks every optimization run must pass. Both circuits cost
/// 1.0 per high-fidelity simulation, the workspace's cost unit.
fn check_found(rep: &mut Rep, f: Found, budget: f64) {
    rep.check(f.best_objective.is_finite(), || {
        format!("best objective {} is not finite", f.best_objective)
    });
    rep.check(f.total_cost <= budget + 1.0 + 1e-9, || {
        format!(
            "total cost {} exceeds budget {budget} plus one high-fidelity step",
            f.total_cost
        )
    });
}

fn span_json(s: &Span, id: usize) -> Json {
    Json::obj([
        ("run", Json::Num(s.run as f64)),
        ("id", Json::Num(id as f64)),
        (
            "parent",
            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
        ),
        ("name", Json::Str(s.name.into())),
        ("attr", Json::Str(s.attr.into())),
        ("start_us", Json::Num(s.start_us)),
        ("end_us", Json::Num(s.end_us)),
    ])
}

/// Where the `pa-served` repetition `run` of process `pid` keeps its
/// journals: under `.bench_e2e/` in the working directory.
pub fn served_scratch(pid: u32, run: u64) -> PathBuf {
    std::env::current_dir()
        .unwrap_or_default()
        .join(".bench_e2e")
        .join(format!("served-{pid}-{run}"))
}

/// Removes a repetition's scratch directory, then `.bench_e2e/` if that is
/// left empty.
pub fn remove_scratch(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(root) = dir.parent() {
        // Fails, harmlessly, while another process's scratch is still there.
        let _ = std::fs::remove_dir(root);
    }
}

/// One `pa-served` repetition: boot a server, start two journaled PA runs,
/// poll their status until both are done, then `wait` on each and shut the
/// server down. A traced rep also runs the same two seeds in-process, one
/// after the other, to measure the service's overhead and to check that
/// served results are bit-identical to in-process ones.
fn served_rep(seed: u64, scale: Scale, mode: Mode, before_start: Duration, run: u64) -> Rep {
    let mut rep = Rep::default();
    let scratch = served_scratch(std::process::id(), run);
    let result = served_inner(&mut rep, &scratch, seed, scale, mode, before_start, run);
    remove_scratch(&scratch);
    if let Err(e) = result {
        rep.violations.push(format!("served rep failed: {e}"));
    }
    rep
}

fn served_inner(
    rep: &mut Rep,
    scratch: &Path,
    seed: u64,
    scale: Scale,
    mode: Mode,
    before_start: Duration,
    run: u64,
) -> Result<(), String> {
    let cfg = pa_config(scale);
    let seeds = [seed, seed + 1];
    // The server's shard ticks the clock through the telemetry sink.
    let clock = Pacer::new(mode == Mode::Plain);
    let mut tracer = Tracer::start(mode, &clock);
    let mut spans = vec![Span {
        name: "run",
        attr: "",
        start_us: 0.0,
        end_us: 0.0,
        parent: None,
        run,
    }];

    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            queue_depth: 64,
            shards: 1,
            journal_linger: Duration::from_millis(1),
            scheduler: Scheduler::Sharded,
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .to_string();
    let accept = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;

    let mut requests = 0.0;
    let mut failed = 0.0;
    let mut status_ms = Vec::new();
    let mut request = |spans: &mut Vec<Span>, op: &'static str, fields: Vec<(&str, Json)>| {
        let mut all = vec![("op", Json::Str(op.into()))];
        all.extend(fields);
        let (start_us, t0) = (clock.now_s() * 1e6, Instant::now());
        let reply = client.request(&Json::obj(all));
        let (end_us, t1) = (clock.now_s() * 1e6, Instant::now());
        requests += 1.0;
        spans.push(Span {
            name: "request",
            attr: op,
            start_us,
            end_us,
            parent: Some(0),
            run,
        });
        if op == "status" {
            status_ms.push((t1 - t0).as_secs_f64() * 1e3);
        }
        let ok = reply
            .as_ref()
            .is_ok_and(|r| r.get("ok").and_then(Json::as_bool) == Some(true));
        if !ok {
            failed += 1.0;
        }
        reply.unwrap_or(Json::Null)
    };
    let name = |i: usize| format!("r{i}");

    let started = clock.now_s();
    for (i, &s) in seeds.iter().enumerate() {
        let journal = scratch.join(name(i));
        request(
            &mut spans,
            "start",
            vec![
                ("run", Json::Str(name(i))),
                ("problem", Json::Str("pa".into())),
                ("seed", Json::Num(s as f64)),
                ("budget", Json::Num(cfg.budget)),
                ("init_low", Json::Num(cfg.initial_low as f64)),
                ("init_high", Json::Num(cfg.initial_high as f64)),
                ("refit_every", Json::Num(cfg.refit_every as f64)),
                ("batch", Json::Num(1.0)),
                ("journal", Json::Str(journal.to_string_lossy().into_owned())),
            ],
        );
    }
    let setup_end = clock.now_s();
    if mode == Mode::Setup {
        // The process's exit stops the server; the parent removes the
        // journals it leaves behind.
        exit_after_setup(seed, before_start + Duration::from_secs_f64(setup_end));
    }

    // Closed loop: one connection, each request sent after the previous
    // reply, status for every unfinished run once per poll period.
    let mut done = [false; 2];
    let mut last_done = started;
    let deadline = Instant::now() + Duration::from_secs(150);
    while done.iter().any(|d| !d) && Instant::now() < deadline {
        std::thread::sleep(POLL);
        for (i, done) in done.iter_mut().enumerate() {
            if *done {
                continue;
            }
            let reply = request(&mut spans, "status", vec![("run", Json::Str(name(i)))]);
            let state = reply.get("state").and_then(Json::as_str).unwrap_or("?");
            if state != "running" {
                *done = true;
                last_done = clock.now_s();
            }
        }
    }
    let mut replies = Vec::new();
    for i in 0..2 {
        let reply = request(&mut spans, "wait", vec![("run", Json::Str(name(i)))]);
        let state = reply.get("state").and_then(Json::as_str).unwrap_or("?");
        rep.check(state == "done", || {
            format!("served run {} ended '{state}': {reply}", name(i))
        });
        replies.push(reply);
    }
    request(&mut spans, "shutdown", vec![]);
    spans[0].end_us = clock.now_s() * 1e6;
    accept
        .join()
        .map_err(|_| "server accept loop panicked".to_string())?
        .map_err(|e| format!("server: {e}"))?;
    let counts = tracer.finish(rep);
    add_slices(rep, &clock);

    for (i, reply) in replies.iter().enumerate() {
        let num = |k: &str| reply.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        let dir = scratch.join(name(i));
        let (_, entries) =
            RunStore::load_journal(&dir).map_err(|e| format!("load journal {i}: {e}"))?;
        let committed: Vec<_> = entries.iter().filter(|e| !e.pending && !e.warm).collect();
        // Each journal holds exactly the committed evaluations the run reports.
        let want = num("n_low") + num("n_high");
        rep.check(committed.len() as f64 == want, || {
            format!(
                "journal {i} holds {} committed evaluations, run reports {want}",
                committed.len()
            )
        });
        rep.add("runstore.journal_entries", entries.len() as f64);
        let bytes = std::fs::metadata(dir.join("journal.jsonl")).map_or(0, |m| m.len());
        rep.add("runstore.journal_bytes", bytes as f64);

        // The reply lacks `cost_to_best`; the journal gives it by the rule of
        // `Outcome`: the cost after the first high-fidelity evaluation of the
        // best design, else the total cost.
        let best_x: Vec<f64> = reply
            .get("best_x")
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default();
        let total_cost = num("total_cost");
        let found = Found {
            best_objective: num("best_objective"),
            total_cost,
            cost_to_best: committed
                .iter()
                .find(|e| e.fid == Fid::High && e.x == best_x)
                .map_or(total_cost, |e| e.cost_after),
        };
        check_found(rep, found, cfg.budget);
        rep.outcomes.push(found);
    }

    let wall_s = last_done - started;
    rep.add("run_wall_s", wall_s);
    rep.add("setup_s", setup_end);
    rep.add("attempted", requests);
    rep.add("failed", failed);
    rep.check(failed == 0.0, || {
        format!("{failed} of {requests} requests failed")
    });
    rep.status_ms = status_ms;
    for f in rep.outcomes.clone() {
        rep.add("best_objective", f.best_objective / 2.0);
        rep.add("cost_to_best", f.cost_to_best / 2.0);
    }
    // Layer shares of the served wall time, which the server's one shard
    // spends driving both runs. Only a traced rep sees inside the server:
    // the sink adds up its own spans.
    rep.add("layers.wall_s", wall_s);
    let mut attributed_s = 0.0;
    if let Some(counts) = counts {
        for (layer, calls, busy_s) in counts.spans() {
            rep.add(&format!("{layer}.calls"), calls as f64);
            rep.add(&format!("{layer}.busy_s"), busy_s);
            attributed_s += busy_s;
        }
        let (inproc_s, inproc) = in_process_pair(&cfg, seeds);
        rep.add("server.overhead_ratio", wall_s / inproc_s);
        for (i, &want) in inproc.iter().enumerate() {
            let got = rep.outcomes[i];
            rep.check(got.same_bits(want), || {
                format!("served run {i} {got:?} differs from in-process {want:?}")
            });
        }
    }
    rep.add("core.unattributed.busy_s", wall_s - attributed_s);
    rep.spans = spans
        .iter()
        .enumerate()
        .map(|(i, s)| span_json(s, i))
        .collect();
    Ok(())
}

/// Runs the PA config for both seeds in-process, one after the other on
/// this thread as the server's one shard runs them; returns the wall time
/// and what the runs found.
fn in_process_pair(cfg: &MfBoConfig, seeds: [u64; 2]) -> (f64, Vec<Found>) {
    let failed = Found {
        best_objective: f64::NAN,
        total_cost: f64::NAN,
        cost_to_best: f64::NAN,
    };
    let t = Instant::now();
    let outcomes = seeds
        .iter()
        .map(|&seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            MfBayesOpt::new(cfg.clone())
                .run(&PowerAmplifier::new(), &mut rng)
                .map_or(failed, |o| Found::of(&o))
        })
        .collect();
    (t.elapsed().as_secs_f64(), outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_distinct() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(!w.why().contains('\n') && w.why().len() <= 200);
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn rep_json_round_trips() {
        let mut rep = Rep {
            seed: 1100,
            ..Rep::default()
        };
        rep.add("run_wall_s", 1.5);
        rep.propose_ms = vec![1.0, 2.0];
        rep.outcomes = vec![Found {
            best_objective: -40.0,
            total_cost: 12.25,
            cost_to_best: 9.5,
        }];
        rep.violations = vec!["x".into()];
        let back = Rep::from_json(&rep.to_json()).unwrap();
        assert_eq!(back.seed, rep.seed);
        assert_eq!(back.sums, rep.sums);
        assert_eq!(back.propose_ms, rep.propose_ms);
        assert_eq!(back.outcomes, rep.outcomes);
        assert_eq!(back.violations, rep.violations);
    }
}
