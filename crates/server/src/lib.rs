//! Long-lived evaluation service for the ask/tell MFBO core.
//!
//! A server owns one shared [`mfbo_pool::WorkerPool`] and any number of
//! concurrently running named optimization runs. Clients speak a framed
//! JSON protocol — one request object per line, one response object per
//! line — over TCP:
//!
//! | request | reply |
//! |---|---|
//! | `{"op":"ping"}` | `{"ok":true}` |
//! | `{"op":"start","run":R,"problem":P,…}` | `{"ok":true,"run":R}` |
//! | `{"op":"status","run":R}` | `{"ok":true,"state":…,"cost":…,…}` |
//! | `{"op":"wait","run":R}` | blocks, then terminal status + outcome |
//! | `{"op":"list"}` | `{"ok":true,"runs":[…]}` |
//! | `{"op":"shutdown"}` | `{"ok":true}`, server stops accepting |
//!
//! `start` fields beyond `run` and `problem` (all optional):
//! `seed`, `budget`, `init_low`, `init_high`, `batch` (ask/tell
//! `max_pending`), `gp_inference` (`"exact"`/`"subset-of-data"`
//! surrogate engine), `refit_every` (full hyperparameter refits every N
//! iterations), `journal` (directory), `resume`, `retries`,
//! `on_non_finite` (`"abort"`/`"penalize"`), `max_evals`, `stall_ms`
//! (worker deadline), and `fault` (`{"kind":"nan"|"panic"|"stall",
//! "every":N,"ms":N}`) for resilience drills. Any other field is refused
//! by name, and counts must be non-negative integers.
//!
//! Every failure is a `{"ok":false,"error":…}` reply on the same line; the
//! connection stays usable. Malformed frames never take the server down: a
//! frame longer than [`MAX_FRAME_BYTES`] gets an error reply and its
//! connection is closed.
//!
//! ## Execution model
//!
//! Runs are driven by a fixed pool of *shard* threads (the private `shard`
//! module): each run is hashed to one shard, whose event loop
//! multiplexes ask → dispatch → tell for every run it owns. Serving
//! thousands of concurrent runs therefore costs `shards + workers`
//! threads, not one thread per run. Connections are likewise served by a
//! small fixed reader pool over reusable per-connection scratch buffers
//! ([`FrameBuf`]); a `wait` request parks the connection on the run handle
//! instead of pinning a thread, and the thread that finishes the run
//! writes the reply.
//!
//! Durability matches the in-process loops: a run started with `journal`
//! write-ahead-logs every candidate and evaluation, so a server killed
//! mid-run (even `kill -9`) can be restarted and the run resumed with
//! `resume: true`, reproducing the uninterrupted trajectory bit for bit —
//! including a byte-identical journal. With a nonzero
//! [`ServerConfig::journal_linger`], journal appends from all runs are
//! group-committed — batched into one vectored write and flush per linger
//! window — without weakening that contract: an evaluation is never
//! dispatched before its write-ahead entry is durable, and a journal cut
//! short by a crash is always a prefix of the uninterrupted one, which
//! resume regenerates byte-identically.

#![deny(missing_docs)]

pub mod problems;
pub mod run;
mod shard;

use mfbo::{EvalPolicy, FaultKind, InferenceMode, MfBoConfig, NonFinitePolicy};
use mfbo_pool::WorkerPool;
use mfbo_runstore::GroupCommitter;
use mfbo_telemetry::json::{parse, Json};
use mfbo_telemetry::{counter, event};
use problems::FaultSpec;
use run::{Phase, RunHandle, RunSpec, Status};
use shard::ShardPool;
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Connection-reader threads multiplexing all client sockets.
const READERS: usize = 4;
/// Bytes asked from the socket per read into the scratch buffer.
const READ_CHUNK: usize = 8 * 1024;
/// The longest request frame the server accepts, in bytes before its `\n`.
/// Real requests are a few KB; a client that streams past this without a
/// newline is refused instead of growing its connection's buffer without
/// bound.
pub const MAX_FRAME_BYTES: usize = 1 << 20;
/// Socket read timeout when other connections are waiting for a reader.
const BUSY_READ_TIMEOUT: Duration = Duration::from_millis(1);
/// Socket read timeout when this reader has the queue to itself.
const IDLE_READ_TIMEOUT: Duration = Duration::from_millis(20);

/// Which engine drives run state machines. The sharded scheduler is the
/// only one; the enum and [`ServerConfig::scheduler`] stay because the
/// end-to-end benchmark (`bench_e2e/workloads.rs`) names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// Fixed pool of shard event-loop threads, each multiplexing the runs
    /// hashed to it.
    Sharded,
}

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads evaluating candidates (shared by all runs).
    pub workers: usize,
    /// Bounded depth of the worker job queue — the backpressure knob: once
    /// full, schedulers block instead of buffering unbounded work.
    pub queue_depth: usize,
    /// Shard threads driving run state machines. Must be nonzero.
    pub shards: usize,
    /// Group-commit linger window for journaled runs: appends across all
    /// runs within a window share one vectored write + flush. Zero (the
    /// default) keeps the flush-per-append behavior, byte- and
    /// syscall-identical to prior releases.
    pub journal_linger: Duration,
    /// Which scheduler drives runs.
    pub scheduler: Scheduler,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ServerConfig {
            workers: cores,
            queue_depth: 64,
            shards: cores.min(8),
            journal_linger: Duration::ZERO,
            scheduler: Scheduler::Sharded,
        }
    }
}

type Registry = Mutex<BTreeMap<String, Arc<RunHandle>>>;

/// State shared by the accept loop, the reader pool, and parked waiters.
struct ServeCtx {
    registry: Registry,
    shards: ShardPool,
    conns: ConnQueue,
    shutdown: AtomicBool,
    /// Our own address, used to poke the accept loop awake on shutdown.
    addr: SocketAddr,
}

/// The evaluation service: bind, then [`Server::run`] the accept loop.
pub struct Server {
    listener: TcpListener,
    ctx: Arc<ServeCtx>,
}

impl Server {
    /// Binds to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// spawns the shard and reader pools.
    pub fn bind(addr: &str, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let pool = Arc::new(WorkerPool::new(config.workers, config.queue_depth));
        let committer = (!config.journal_linger.is_zero())
            .then(|| Arc::new(GroupCommitter::new(config.journal_linger)));
        let shards = ShardPool::new(config.shards.max(1), pool, committer);
        let ctx = Arc::new(ServeCtx {
            registry: Mutex::new(BTreeMap::new()),
            shards,
            conns: ConnQueue::new(),
            shutdown: AtomicBool::new(false),
            addr: local,
        });
        for i in 0..READERS {
            let ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name(format!("mfbo-reader-{i}"))
                .spawn(move || reader_loop(&ctx))
                .expect("failed to spawn reader thread");
        }
        Ok(Server { listener, ctx })
    }

    /// The bound address (read the ephemeral port from here).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        Ok(self.ctx.addr)
    }

    /// Accepts connections until a client sends `shutdown`, handing each
    /// socket to the shared reader pool. In-flight runs keep their shard
    /// threads, which the process owns until exit.
    pub fn run(self) -> std::io::Result<()> {
        for stream in self.listener.incoming() {
            if self.ctx.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            // The protocol is strict request/reply: every write is the
            // last segment of a frame, so Nagle only adds delayed-ACK
            // stalls (~40 ms per round trip on a persistent connection).
            let _ = stream.set_nodelay(true);
            self.ctx.conns.push(Conn::new(stream));
        }
        Ok(())
    }
}

/// One client connection with its reusable scratch buffers: frames are
/// extracted in place from the read scratch and replies are serialized
/// into the write scratch, so a warmed-up connection serves requests
/// without per-request allocation in the I/O path.
struct Conn {
    stream: TcpStream,
    frames: FrameBuf,
    wbuf: String,
    /// The socket hit EOF; serve what is buffered, then drop.
    eof: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            frames: FrameBuf::new(),
            wbuf: String::with_capacity(512),
            eof: false,
        }
    }
}

/// Why [`FrameBuf`] could not decode a frame; either way the server drops
/// the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The frame is not UTF-8 (where `BufRead::lines()` fails too).
    Utf8(std::str::Utf8Error),
    /// The frame runs past [`MAX_FRAME_BYTES`].
    TooLong,
}

/// Reusable line-frame extractor over a byte scratch buffer, decoding the
/// exact framing of `BufRead::lines()` for frames up to
/// [`MAX_FRAME_BYTES`]: frames end at `\n`, a trailing `\r` is stripped,
/// and a non-UTF-8 or longer frame is an error (the connection is
/// dropped). Bytes may arrive in any chunking — split mid-frame,
/// coalesced across frames — without changing the decoded sequence. A
/// reader that asks for a frame after every read buffers at most one read
/// chunk past the cap.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Consumed prefix: bytes before `pos` belong to already-yielded
    /// frames and are reclaimed on the next fill.
    pos: usize,
}

impl FrameBuf {
    /// An empty buffer.
    pub fn new() -> FrameBuf {
        FrameBuf {
            buf: Vec::with_capacity(READ_CHUNK),
            pos: 0,
        }
    }

    /// Appends raw bytes (the test entry point; the server reads sockets
    /// via [`FrameBuf::read_from`]).
    pub fn push(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Reads one chunk from `r` onto the scratch tail; returns the byte
    /// count (0 = EOF). The scratch is reused across reads — steady-state
    /// traffic allocates nothing.
    pub fn read_from(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        self.compact();
        let len = self.buf.len();
        self.buf.resize(len + READ_CHUNK, 0);
        let got = r.read(&mut self.buf[len..]);
        self.buf.truncate(len + *got.as_ref().unwrap_or(&0));
        got
    }

    /// Yields the next complete frame, or `None` until more bytes arrive;
    /// [`FrameError::TooLong`] as soon as the pending frame is over the cap,
    /// terminated or not.
    pub fn next_frame(&mut self) -> Option<Result<&str, FrameError>> {
        let newline = self.buf[self.pos..].iter().position(|&b| b == b'\n');
        if newline.unwrap_or(self.buf.len() - self.pos) > MAX_FRAME_BYTES {
            return Some(Err(FrameError::TooLong));
        }
        let rel = newline?;
        let start = self.pos;
        let mut end = start + rel;
        self.pos = end + 1;
        if end > start && self.buf[end - 1] == b'\r' {
            end -= 1;
        }
        Some(std::str::from_utf8(&self.buf[start..end]).map_err(FrameError::Utf8))
    }

    /// At EOF, the final unterminated frame — what `lines()` would still
    /// yield (no `\r` stripping without a `\n`).
    pub fn take_tail(&mut self) -> Option<Result<&str, FrameError>> {
        if self.pos >= self.buf.len() {
            return None;
        }
        if self.buf.len() - self.pos > MAX_FRAME_BYTES {
            return Some(Err(FrameError::TooLong));
        }
        let start = self.pos;
        self.pos = self.buf.len();
        Some(std::str::from_utf8(&self.buf[start..]).map_err(FrameError::Utf8))
    }

    /// Current scratch capacity in bytes — lets tests pin that a reused
    /// buffer stays bounded instead of growing with traffic served.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    fn compact(&mut self) {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

/// FIFO of connections awaiting a reader thread.
struct ConnQueue {
    q: Mutex<VecDeque<Conn>>,
    cv: Condvar,
}

impl ConnQueue {
    fn new() -> ConnQueue {
        ConnQueue {
            q: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
        }
    }

    fn push(&self, c: Conn) {
        self.q.lock().expect("conn queue lock").push_back(c);
        self.cv.notify_one();
    }

    fn backlog(&self) -> usize {
        self.q.lock().expect("conn queue lock").len()
    }

    /// Blocks for the next connection; `None` once `stop` is set and the
    /// queue has drained (still-open connections keep being served until
    /// their clients hang up).
    fn pop(&self, stop: &AtomicBool) -> Option<Conn> {
        let mut q = self.q.lock().expect("conn queue lock");
        loop {
            if let Some(c) = q.pop_front() {
                return Some(c);
            }
            if stop.load(Ordering::SeqCst) {
                return None;
            }
            // Timed wait so the stop flag is observed even without a
            // final push.
            let (guard, _) = self
                .cv
                .wait_timeout(q, Duration::from_millis(50))
                .expect("conn queue lock");
            q = guard;
        }
    }
}

/// A reader thread: pop a connection, serve whatever is readable, put it
/// back (or park/close it), repeat.
fn reader_loop(ctx: &Arc<ServeCtx>) {
    while let Some(conn) = ctx.conns.pop(&ctx.shutdown) {
        if let Some(conn) = serve_turn(conn, ctx) {
            ctx.conns.push(conn);
        }
    }
}

/// What `handle_request` wants done with the connection.
enum Action {
    /// Write the reply and keep serving.
    Reply(Json),
    /// Write the reply, then stop accepting and close this connection.
    Shutdown(Json),
    /// Park the connection on the run; the thread that finishes the run
    /// writes the terminal status reply and re-queues the connection.
    Wait {
        name: String,
        handle: Arc<RunHandle>,
    },
}

/// Serves one scheduling turn of a connection: drain buffered frames,
/// then read more bytes (bounded by a short timeout so one idle socket
/// never monopolizes a reader). Returns the connection if it should be
/// re-queued; `None` when it was closed or parked on a run.
fn serve_turn(mut conn: Conn, ctx: &Arc<ServeCtx>) -> Option<Conn> {
    // Frames served before yielding the reader to waiting connections.
    const FRAME_BUDGET: usize = 64;
    let mut served = 0usize;
    loop {
        // Drain complete frames already in the scratch buffer.
        loop {
            let t0 = Instant::now();
            let act = match conn.frames.next_frame() {
                None => break,
                Some(Err(e)) => return refuse(conn, e),
                Some(Ok(line)) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    counter!("server_requests", 1u64);
                    handle_request(line, ctx)
                }
            };
            served += 1;
            conn = apply_action(conn, act, t0, ctx)?;
        }
        if served >= FRAME_BUDGET && ctx.conns.backlog() > 0 {
            return Some(conn);
        }
        if conn.eof {
            // Serve the final unterminated frame like `lines()` would,
            // then drop the connection.
            let t0 = Instant::now();
            let act = match conn.frames.take_tail() {
                None => return None,
                Some(Err(e)) => return refuse(conn, e),
                Some(Ok(line)) => {
                    if line.trim().is_empty() {
                        return None;
                    }
                    counter!("server_requests", 1u64);
                    handle_request(line, ctx)
                }
            };
            apply_action(conn, act, t0, ctx);
            return None;
        }

        // Need more bytes. Use a short timeout when other connections are
        // waiting for a reader, a longer one when we have the queue to
        // ourselves.
        let timeout = if ctx.conns.backlog() > 0 {
            BUSY_READ_TIMEOUT
        } else {
            IDLE_READ_TIMEOUT
        };
        let _ = conn.stream.set_read_timeout(Some(timeout));
        match conn.frames.read_from(&mut conn.stream) {
            Ok(0) => conn.eof = true,
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                return Some(conn);
            }
            Err(_) => return None,
        }
    }
}

/// Drops a connection whose frame could not be decoded. A non-UTF-8 frame
/// closes it silently, as `lines()` would fail; an over-long one first gets
/// an error reply saying why.
fn refuse(mut conn: Conn, e: FrameError) -> Option<Conn> {
    if e == FrameError::TooLong {
        let why = format!("frame exceeds {MAX_FRAME_BYTES} bytes; closing the connection");
        let _ = write_reply(&mut conn, &err(why));
    }
    None
}

/// Executes one [`Action`]; returns the connection unless it was closed,
/// parked, or handed off.
fn apply_action(mut conn: Conn, act: Action, t0: Instant, ctx: &Arc<ServeCtx>) -> Option<Conn> {
    match act {
        Action::Reply(reply) => {
            if write_reply(&mut conn, &reply).is_err() {
                return None;
            }
            event!("server_request", dur_us = t0.elapsed().as_micros() as u64);
            Some(conn)
        }
        Action::Shutdown(reply) => {
            let _ = write_reply(&mut conn, &reply);
            event!("server_request", dur_us = t0.elapsed().as_micros() as u64);
            ctx.shutdown.store(true, Ordering::SeqCst);
            // Wake the accept loop with a throwaway connection.
            let _ = TcpStream::connect(ctx.addr);
            None
        }
        Action::Wait { name, handle } => {
            let ctx2 = Arc::clone(ctx);
            handle.on_terminal(Box::new(move |st| {
                let mut conn = conn;
                if write_reply(&mut conn, &status_json(&name, st)).is_ok() {
                    ctx2.conns.push(conn);
                }
            }));
            None
        }
    }
}

/// Serializes `reply` into the connection's write scratch and writes it
/// as one frame.
fn write_reply(conn: &mut Conn, reply: &Json) -> std::io::Result<()> {
    use std::fmt::Write as _;
    conn.wbuf.clear();
    let _ = writeln!(conn.wbuf, "{reply}");
    conn.stream.write_all(conn.wbuf.as_bytes())
}

fn ok(fields: Vec<(&str, Json)>) -> Json {
    let mut all = vec![("ok".to_string(), Json::Bool(true))];
    all.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Obj(all)
}

fn err(msg: impl Into<String>) -> Json {
    Json::Obj(vec![
        ("ok".to_string(), Json::Bool(false)),
        ("error".to_string(), Json::Str(msg.into())),
    ])
}

/// Dispatches one request line.
fn handle_request(line: &str, ctx: &ServeCtx) -> Action {
    let req = match parse(line) {
        Ok(j) => j,
        Err(e) => return Action::Reply(err(format!("malformed request: {e}"))),
    };
    let op = req.get("op").and_then(Json::as_str).unwrap_or("");
    match op {
        "ping" => Action::Reply(ok(vec![])),
        "shutdown" => Action::Shutdown(ok(vec![])),
        "start" => Action::Reply(start_run(&req, ctx)),
        "status" => Action::Reply(with_run(&req, &ctx.registry, |name, h| {
            status_json(name, &h.snapshot())
        })),
        "wait" => {
            let Some(name) = req.get("run").and_then(Json::as_str) else {
                return Action::Reply(err("missing 'run' field"));
            };
            let handle = ctx
                .registry
                .lock()
                .expect("registry lock")
                .get(name)
                .cloned();
            match handle {
                Some(handle) => Action::Wait {
                    name: name.to_string(),
                    handle,
                },
                None => Action::Reply(err(format!("unknown run '{name}'"))),
            }
        }
        "list" => {
            let runs = ctx.registry.lock().expect("registry lock");
            let items = runs
                .iter()
                .map(|(name, h)| status_json(name, &h.snapshot()))
                .collect();
            Action::Reply(ok(vec![("runs", Json::Arr(items))]))
        }
        "" => Action::Reply(err("missing 'op' field")),
        other => Action::Reply(err(format!("unknown op '{other}'"))),
    }
}

fn with_run(req: &Json, registry: &Registry, f: impl FnOnce(&str, &RunHandle) -> Json) -> Json {
    let Some(name) = req.get("run").and_then(Json::as_str) else {
        return err("missing 'run' field");
    };
    let handle = registry.lock().expect("registry lock").get(name).cloned();
    match handle {
        Some(h) => f(name, &h),
        None => err(format!("unknown run '{name}'")),
    }
}

fn status_json(name: &str, st: &Status) -> Json {
    let state = match st.phase {
        Phase::Running => "running",
        Phase::Done => "done",
        Phase::Failed => "failed",
    };
    let mut fields = vec![
        ("run", Json::Str(name.to_string())),
        ("state", Json::Str(state.to_string())),
        ("cost", Json::Num(st.cost)),
        ("evals", Json::Num(st.evals as f64)),
        ("pending", Json::Num(st.pending as f64)),
        ("stalled", Json::Num(st.stalled as f64)),
        ("obs_low", Json::Num(st.obs_low as f64)),
        ("obs_high", Json::Num(st.obs_high as f64)),
    ];
    if let Some(out) = &st.outcome {
        fields.push(("best_objective", Json::Num(out.best_objective)));
        fields.push(("best_x", Json::nums(out.best_x.iter().copied())));
        fields.push(("feasible", Json::Bool(out.feasible)));
        fields.push(("total_cost", Json::Num(out.total_cost)));
        fields.push(("n_low", Json::Num(out.n_low as f64)));
        fields.push(("n_high", Json::Num(out.n_high as f64)));
        fields.push(("quarantined", Json::Num(out.eval_stats.quarantined as f64)));
        fields.push(("retries", Json::Num(out.eval_stats.retries as f64)));
    }
    if let Some(e) = &st.error {
        fields.push(("error", Json::Str(e.clone())));
    }
    ok(fields)
}

fn start_run(req: &Json, ctx: &ServeCtx) -> Json {
    let spec = match parse_spec(req) {
        Ok(s) => s,
        Err(e) => return err(e),
    };
    let mut runs = ctx.registry.lock().expect("registry lock");
    if runs.contains_key(&spec.name) {
        return err(format!("run '{}' already exists", spec.name));
    }
    let name = spec.name.clone();
    let handle = ctx.shards.submit(spec);
    runs.insert(name.clone(), handle);
    ok(vec![("run", Json::Str(name))])
}

/// Every field a `start` request may carry.
const START_FIELDS: [&str; 17] = [
    "op",
    "run",
    "problem",
    "seed",
    "budget",
    "init_low",
    "init_high",
    "batch",
    "gp_inference",
    "refit_every",
    "journal",
    "resume",
    "retries",
    "on_non_finite",
    "max_evals",
    "stall_ms",
    "fault",
];

/// Every field a `start` request's `fault` object may carry.
const FAULT_FIELDS: [&str; 3] = ["kind", "every", "ms"];

/// Refuses the first field of `obj` not in `known`, naming it, so a typo or
/// a retired knob never silently runs with the default instead.
fn refuse_unknown(obj: &Json, known: &[&str], what: &str) -> Result<(), String> {
    if let Json::Obj(fields) = obj {
        if let Some((k, _)) = fields.iter().find(|(k, _)| !known.contains(&k.as_str())) {
            return Err(format!("unknown {what} field '{k}'"));
        }
    }
    Ok(())
}

fn f64_field(obj: &Json, key: &str, default: f64) -> Result<f64, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v.as_f64().ok_or(format!("'{key}' must be a number")),
    }
}

fn usize_field(obj: &Json, key: &str, default: usize) -> Result<usize, String> {
    let v = f64_field(obj, key, default as f64)?;
    if v < 0.0 || v.fract() != 0.0 {
        return Err(format!("'{key}' must be a non-negative integer"));
    }
    Ok(v as usize)
}

fn parse_spec(req: &Json) -> Result<RunSpec, String> {
    refuse_unknown(req, &START_FIELDS, "start")?;
    let name = req
        .get("run")
        .and_then(Json::as_str)
        .ok_or("missing 'run' field")?
        .to_string();
    if name.is_empty() {
        return Err("run name must be non-empty".into());
    }
    let problem = req
        .get("problem")
        .and_then(Json::as_str)
        .ok_or("missing 'problem' field")?
        .to_string();
    // Fail fast on unknown problems so the client hears about it in the
    // start reply, not through a failed run.
    problems::make_problem(&problem, None)?;

    let bool_field = |key: &str| -> Result<bool, String> {
        match req.get(key) {
            None => Ok(false),
            Some(v) => v.as_bool().ok_or(format!("'{key}' must be a boolean")),
        }
    };

    let budget = f64_field(req, "budget", 20.0)?;
    if !(budget > 0.0 && budget.is_finite()) {
        return Err("'budget' must be positive and finite".into());
    }
    let mut config = MfBoConfig {
        initial_low: usize_field(req, "init_low", 10)?,
        initial_high: usize_field(req, "init_high", 5)?,
        budget,
        max_pending: usize_field(req, "batch", 1)?,
        refit_every: usize_field(req, "refit_every", 1)?,
        ..MfBoConfig::default()
    };
    if let Some(v) = req.get("gp_inference") {
        let s = v.as_str().ok_or("'gp_inference' must be a string")?;
        config.gp_inference = InferenceMode::parse(s)?;
    }
    // Surface invalid knob combinations in the start reply instead of as a
    // failed run.
    config.validate().map_err(|e| e.to_string())?;

    let mut policy = EvalPolicy {
        max_retries: u32::try_from(usize_field(req, "retries", 0)?)
            .map_err(|_| "'retries' is too large")?,
        ..EvalPolicy::default()
    };
    if let Some(v) = req.get("on_non_finite") {
        policy.non_finite = v
            .as_str()
            .and_then(NonFinitePolicy::parse)
            .ok_or("'on_non_finite' must be 'abort' or 'penalize'")?;
    }
    if req.get("max_evals").is_some() {
        policy.max_evaluations = Some(usize_field(req, "max_evals", 0)? as u64);
    }

    let stall = match usize_field(req, "stall_ms", 0)? {
        0 => None,
        ms => Some(Duration::from_millis(ms as u64)),
    };
    let fault = match req.get("fault") {
        None => None,
        Some(f) => Some(parse_fault(f)?),
    };

    Ok(RunSpec {
        name,
        problem,
        fault,
        seed: usize_field(req, "seed", 0)? as u64,
        config,
        policy,
        journal: req
            .get("journal")
            .and_then(Json::as_str)
            .map(std::path::PathBuf::from),
        resume: bool_field("resume")?,
        stall,
    })
}

fn parse_fault(f: &Json) -> Result<FaultSpec, String> {
    refuse_unknown(f, &FAULT_FIELDS, "fault")?;
    if f.get("every").is_none() {
        return Err("fault needs an 'every' period".into());
    }
    let count =
        |key: &str, default: usize| usize_field(f, key, default).map_err(|e| format!("fault {e}"));
    let every = count("every", 0)?;
    if every == 0 {
        return Err("fault 'every' must be positive".into());
    }
    let kind = match f.get("kind").and_then(Json::as_str) {
        Some("nan") => FaultKind::Nan,
        Some("panic") => FaultKind::Panic,
        Some("stall") => FaultKind::Stall {
            ms: count("ms", 1000)? as u64,
        },
        _ => return Err("fault 'kind' must be 'nan', 'panic', or 'stall'".into()),
    };
    Ok(FaultSpec { kind, every })
}

/// A tiny blocking client for the framed protocol — what the CLI and the
/// test/bench harnesses drive the server with.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request object and reads the one-line reply.
    pub fn request(&mut self, req: &Json) -> Result<Json, String> {
        writeln!(self.writer, "{req}").map_err(|e| e.to_string())?;
        self.writer.flush().map_err(|e| e.to_string())?;
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        if line.is_empty() {
            return Err("server closed the connection".into());
        }
        parse(&line)
    }

    /// `request`, then surfaces `{"ok":false}` replies as `Err(error)`.
    pub fn expect_ok(&mut self, req: &Json) -> Result<Json, String> {
        let reply = self.request(req)?;
        match reply.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(reply),
            _ => Err(reply
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("request failed")
                .to_string()),
        }
    }
}
