//! The write-ahead evaluation journal: record type and JSONL codec.
//!
//! One line per consumed evaluation. Lines are appended and flushed
//! *before* the optimizer consumes the evaluation, so after a crash the
//! journal holds exactly the set of simulations that were paid for.
//!
//! Format stability: the schema below is **version 1** and append-only —
//! new optional fields may be added, existing fields keep their meaning, and
//! a reader must ignore keys it does not know. Floating-point values are
//! written with Rust's shortest-round-trip formatting, so replaying a
//! journal reproduces the original `f64` bits exactly. RNG state words are
//! hex strings because JSON numbers (f64) cannot carry 64 significant bits.

use crate::{Fid, StoreError};
use mfbo_telemetry::json::Json;
use mfbo_telemetry::{counter, event};
use std::collections::HashMap;
use std::fs::File;
use std::io::{IoSlice, Write};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One journaled evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Optimizer iteration (initial-design points share 0).
    pub iteration: u64,
    /// Fidelity the evaluation ran at.
    pub fid: Fid,
    /// The evaluated design point (raw problem units).
    pub x: Vec<f64>,
    /// Objective value consumed by the optimizer.
    pub objective: f64,
    /// Constraint values consumed by the optimizer.
    pub constraints: Vec<f64>,
    /// Accumulated cost *after* this evaluation.
    pub cost_after: f64,
    /// RNG cursor (xoshiro256++ state words) at the time of the evaluation,
    /// when the driving generator exposes one.
    pub rng: Option<[u64; 4]>,
    /// Number of simulator attempts this evaluation took (1 = no retries).
    pub attempts: u32,
    /// The value came from the evaluation cache, not a simulator call.
    pub cached: bool,
    /// The simulator kept failing and the recorded value is the penalty
    /// substitute; the design point was quarantined.
    pub quarantined: bool,
    /// The point was injected by cross-run warm-starting (zero cost, not
    /// part of the regular evaluation sequence).
    pub warm: bool,
    /// The record is a *pending-candidate issue*, not a consumed
    /// evaluation: the ask/tell core generated this candidate and handed it
    /// to an evaluator, but no result has been folded back yet. Pending
    /// records carry no objective/constraint payload (`obj` is 0, `cons`
    /// empty) and `cost_after` is the *committed* cost at generation time —
    /// nothing is billed until the matching commit record lands. Written
    /// only by batched (q > 1) ask/tell runs; sequential journals are
    /// byte-identical to format v1. (Optional key, defaults to `false`.)
    pub pending: bool,
    /// Ask/tell candidate id this record belongs to, present on pending
    /// records and their commit records in batched runs. Sequential runs
    /// omit it. (Optional key.)
    pub cand: Option<u64>,
}

/// Formats one RNG state word as a fixed-width hex string.
fn hex_word(w: u64) -> Json {
    Json::Str(format!("{w:#018x}"))
}

/// Parses a hex state word written by [`hex_word`].
fn parse_hex_word(v: &Json) -> Result<u64, String> {
    let s = v.as_str().ok_or("rng word is not a string")?;
    let digits = s.strip_prefix("0x").ok_or("rng word missing 0x prefix")?;
    u64::from_str_radix(digits, 16).map_err(|e| format!("bad rng word {s:?}: {e}"))
}

impl JournalEntry {
    /// Serializes the entry as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut fields = vec![
            ("iter", Json::Num(self.iteration as f64)),
            ("fid", Json::Str(self.fid.as_str().to_string())),
            ("x", Json::nums(self.x.iter().copied())),
            ("obj", Json::Num(self.objective)),
            ("cons", Json::nums(self.constraints.iter().copied())),
            ("cost", Json::Num(self.cost_after)),
            ("attempts", Json::Num(self.attempts as f64)),
            ("cached", Json::Bool(self.cached)),
            ("quarantined", Json::Bool(self.quarantined)),
            ("warm", Json::Bool(self.warm)),
        ];
        if let Some(words) = self.rng {
            fields.push((
                "rng",
                Json::Arr(words.iter().map(|&w| hex_word(w)).collect()),
            ));
        }
        // Batched-ask/tell keys are appended only when set, keeping
        // sequential journals byte-identical to format v1.
        if self.pending {
            fields.push(("pending", Json::Bool(true)));
        }
        if let Some(id) = self.cand {
            fields.push(("cand", Json::Num(id as f64)));
        }
        Json::obj(fields).to_string()
    }

    /// Parses a line written by [`JournalEntry::to_json_line`].
    pub fn from_json_line(line: &str) -> Result<JournalEntry, StoreError> {
        let bad = |reason: String| StoreError::Corrupt {
            what: "journal entry".into(),
            reason,
        };
        let v = mfbo_telemetry::json::parse(line).map_err(bad)?;
        let num = |key: &str| -> Result<f64, StoreError> {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| bad(format!("missing numeric field {key:?}")))
        };
        let uint = |key: &str, max: u64| -> Result<u64, StoreError> {
            crate::uint_field(&v, key, max)
                .map_err(bad)?
                .ok_or_else(|| bad(format!("missing numeric field {key:?}")))
        };
        let floats = |key: &str| -> Result<Vec<f64>, StoreError> {
            v.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| bad(format!("missing array field {key:?}")))?
                .iter()
                .map(|item| {
                    item.as_f64()
                        .ok_or_else(|| bad(format!("non-numeric element in {key:?}")))
                })
                .collect()
        };
        let flag = |key: &str| v.get(key).and_then(Json::as_bool).unwrap_or(false);
        let fid = v
            .get("fid")
            .and_then(Json::as_str)
            .and_then(Fid::parse)
            .ok_or_else(|| bad("missing or invalid \"fid\"".into()))?;
        let rng = match v.get("rng") {
            None | Some(Json::Null) => None,
            Some(arr) => {
                let items = arr
                    .as_arr()
                    .ok_or_else(|| bad("\"rng\" is not an array".into()))?;
                if items.len() != 4 {
                    return Err(bad(format!("rng has {} words, expected 4", items.len())));
                }
                let mut words = [0u64; 4];
                for (w, item) in words.iter_mut().zip(items) {
                    *w = parse_hex_word(item).map_err(bad)?;
                }
                Some(words)
            }
        };
        Ok(JournalEntry {
            iteration: uint("iter", u64::MAX)?,
            fid,
            x: floats("x")?,
            objective: num("obj")?,
            constraints: floats("cons")?,
            cost_after: num("cost")?,
            rng,
            attempts: uint("attempts", u32::MAX.into())? as u32,
            cached: flag("cached"),
            quarantined: flag("quarantined"),
            warm: flag("warm"),
            pending: flag("pending"),
            cand: crate::uint_field(&v, "cand", u64::MAX).map_err(bad)?,
        })
    }
}

// --- Group-commit journaling -----------------------------------------------
//
// Under high run concurrency the flush-per-append discipline costs one
// write syscall per journal entry per run. A [`GroupCommitter`] amortizes
// that: appends from any number of journals are enqueued with a global
// sequence number and a dedicated flusher thread drains them once per
// *linger window*, gathering all lines destined for the same file into a
// single vectored write. Per-file bytes and their order are exactly what
// flush-per-append would have produced — group commit batches *when* bytes
// reach the OS, never *what* or *in what order* within a journal.
//
// The write-ahead contract survives because durability is still available
// on demand: [`GroupCommitter::sync`] blocks until a given append is
// written out — and commit is leader-based, so a syncer that finds the
// batch unclaimed writes it out itself rather than waiting on the flusher
// thread; the linger window only ever delays appends nobody is waiting
// on. Callers that must not act
// before an entry is durable — the evaluation service, between journaling
// a candidate issue and dispatching its evaluation — place that barrier
// themselves via `RunStore::sync`. A crash (`kill -9`) inside a window
// loses only a *suffix* of enqueued appends, so the on-disk journal is
// always a prefix of the logical append sequence — precisely the state an
// interrupted flush-per-append run leaves behind, which the deterministic
// resume machinery already replays and regenerates byte-for-byte.

/// One enqueued journal line awaiting the next group flush.
struct PendingWrite {
    file: Arc<GroupFile>,
    bytes: Vec<u8>,
    seq: u64,
}

/// A journal file registered with a [`GroupCommitter`]. Appends destined
/// for this file are written by the committer's flusher thread; a write
/// failure is latched here and surfaced on the owning store's next sync.
pub struct GroupFile {
    state: Mutex<GroupFileState>,
}

struct GroupFileState {
    file: File,
    error: Option<String>,
}

impl GroupFile {
    fn latched_error(&self) -> Option<String> {
        self.state.lock().expect("group file lock").error.clone()
    }
}

struct CommitterState {
    queue: Vec<PendingWrite>,
    next_seq: u64,
    committed_seq: u64,
    first_enqueue: Option<Instant>,
    /// True while some thread (a sync leader or the flusher) has stolen
    /// the queue and is writing it out. Exactly one batch is in flight at
    /// a time, which is what keeps each file's bytes in enqueue order.
    flushing: bool,
    shutdown: bool,
}

struct CommitterShared {
    state: Mutex<CommitterState>,
    /// Wakes the flusher when work arrives (or shutdown is requested).
    work_cv: Condvar,
    /// Wakes syncers when `committed_seq` advances.
    done_cv: Condvar,
    linger: Duration,
}

/// Cross-run group-commit scheduler for write-ahead journals: appends
/// coalesce into one gathered write + flush per journal file per batch,
/// committed either by a sync leader on demand (see
/// [`GroupCommitter::sync`]) or by the flusher thread when a linger
/// window expires with nobody waiting.
///
/// Create one per server process, share it via `Arc`, and open stores with
/// [`crate::RunStore::open_grouped`]. Dropping the last clone flushes every
/// outstanding append and joins the flusher.
pub struct GroupCommitter {
    shared: Arc<CommitterShared>,
    flusher: Option<std::thread::JoinHandle<()>>,
}

impl GroupCommitter {
    /// Starts the flusher thread. `linger` bounds how long an append may
    /// sit buffered before it reaches the OS; [`GroupCommitter::sync`]
    /// commits the pending batch immediately rather than waiting the
    /// window out.
    pub fn new(linger: Duration) -> GroupCommitter {
        let shared = Arc::new(CommitterShared {
            state: Mutex::new(CommitterState {
                queue: Vec::new(),
                next_seq: 1,
                committed_seq: 0,
                first_enqueue: None,
                flushing: false,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            linger,
        });
        let for_thread = Arc::clone(&shared);
        let flusher = std::thread::Builder::new()
            .name("mfbo-journal-gc".into())
            .spawn(move || flusher_loop(&for_thread))
            .expect("failed to spawn journal group-commit flusher");
        GroupCommitter {
            shared,
            flusher: Some(flusher),
        }
    }

    /// The linger window this committer batches under.
    pub fn linger(&self) -> Duration {
        self.shared.linger
    }

    /// Registers an open journal file for group-committed appends.
    pub fn register(&self, file: File) -> Arc<GroupFile> {
        Arc::new(GroupFile {
            state: Mutex::new(GroupFileState { file, error: None }),
        })
    }

    /// Enqueues one journal line for `file`; returns its global sequence
    /// number (pass to [`GroupCommitter::sync`] to await durability).
    /// Appends to the same file preserve their enqueue order on disk.
    pub fn enqueue(&self, file: &Arc<GroupFile>, bytes: Vec<u8>) -> u64 {
        let mut st = self.shared.state.lock().expect("committer lock");
        let seq = st.next_seq;
        st.next_seq += 1;
        if st.first_enqueue.is_none() {
            st.first_enqueue = Some(Instant::now());
            // Only the append that opens a window wakes the flusher: its
            // deadline is fixed by the first enqueue, so later appends in
            // the same window have nothing to tell it.
            self.shared.work_cv.notify_one();
        }
        st.queue.push(PendingWrite {
            file: Arc::clone(file),
            bytes,
            seq,
        });
        seq
    }

    /// Blocks until the append with sequence number `seq` has been written
    /// out, then reports any write error latched on `file`. `seq = 0`
    /// (nothing enqueued yet) returns immediately.
    ///
    /// Group commit here is *leader-based*: a syncer that finds the batch
    /// unclaimed steals it and performs the gathered write itself instead
    /// of waking the flusher and sleeping — a write-ahead barrier costs
    /// the caller one vectored write, never a timer wait or a thread
    /// round trip. Concurrent syncers ride along: whoever wins the race
    /// commits everything queued so far (including *their* entries), and
    /// the rest just wait for `committed_seq` to advance. The flusher
    /// thread's linger window only bounds how long a fire-and-forget
    /// append (one nobody syncs on) can sit buffered.
    pub fn sync(&self, file: &GroupFile, seq: u64) -> Result<(), String> {
        let mut st = self.shared.state.lock().expect("committer lock");
        while st.committed_seq < seq {
            if !st.flushing && !st.queue.is_empty() {
                st = commit_pending(&self.shared, st);
                continue;
            }
            if st.shutdown && st.queue.is_empty() {
                return Err("journal group committer shut down with appends unflushed".into());
            }
            st = self.shared.done_cv.wait(st).expect("committer lock");
        }
        drop(st);
        match file.latched_error() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl std::fmt::Debug for GroupCommitter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupCommitter")
            .field("linger", &self.shared.linger)
            .finish_non_exhaustive()
    }
}

impl Drop for GroupCommitter {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("committer lock");
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        if let Some(h) = self.flusher.take() {
            let _ = h.join();
        }
        self.shared.done_cv.notify_all();
    }
}

/// Steals the queued batch and writes it out, releasing the state lock
/// around the I/O. The caller must hold the lock with `flushing == false`
/// and a non-empty queue; returns with the lock re-acquired,
/// `committed_seq` advanced past the stolen batch, and waiters notified.
/// The `flushing` flag keeps batches strictly sequential — at most one
/// writer at a time — which is what preserves each file's enqueue order
/// on disk no matter which thread (flusher or sync leader) commits.
fn commit_pending<'a>(
    shared: &'a CommitterShared,
    mut st: std::sync::MutexGuard<'a, CommitterState>,
) -> std::sync::MutexGuard<'a, CommitterState> {
    debug_assert!(!st.flushing && !st.queue.is_empty());
    st.flushing = true;
    let batch = std::mem::take(&mut st.queue);
    st.first_enqueue = None;
    let max_seq = batch.last().map_or(st.committed_seq, |w| w.seq);
    drop(st);
    write_batch(&batch);
    let mut st = shared.state.lock().expect("committer lock");
    st.flushing = false;
    st.committed_seq = max_seq;
    shared.done_cv.notify_all();
    shared.work_cv.notify_one();
    st
}

fn flusher_loop(shared: &CommitterShared) {
    let mut st = shared.state.lock().expect("committer lock");
    loop {
        if st.shutdown {
            // Drain: wait out any in-flight leader, then commit whatever
            // remains so no enqueued append is lost on clean shutdown.
            loop {
                if st.flushing {
                    st = shared.done_cv.wait(st).expect("committer lock");
                } else if !st.queue.is_empty() {
                    st = commit_pending(shared, st);
                } else {
                    return;
                }
            }
        }
        // `first_enqueue` is `Some` exactly while the queue is non-empty.
        let Some(first) = st.first_enqueue else {
            st = shared.work_cv.wait(st).expect("committer lock");
            continue;
        };
        // Let the linger window elapse so concurrent appends keep
        // coalescing (the condvar releases the lock while waiting, so
        // enqueues — and sync leaders stealing the batch early — proceed;
        // every notification re-checks from the top).
        let deadline = first + shared.linger;
        let now = Instant::now();
        if now < deadline {
            let (guard, _) = shared
                .work_cv
                .wait_timeout(st, deadline - now)
                .expect("committer lock");
            st = guard;
            continue;
        }
        if st.flushing {
            // A sync leader owns the current batch; wait for it to finish.
            st = shared.done_cv.wait(st).expect("committer lock");
        } else {
            st = commit_pending(shared, st);
        }
    }
}

/// Writes one drained window: entries are grouped by destination file
/// (preserving enqueue order within each file) and each file gets a single
/// vectored write. Errors are latched per file, so one journal's disk
/// failure never poisons sibling runs.
fn write_batch(batch: &[PendingWrite]) {
    let mut groups: Vec<(Arc<GroupFile>, Vec<usize>)> = Vec::new();
    let mut by_ptr: HashMap<usize, usize> = HashMap::new();
    for (i, w) in batch.iter().enumerate() {
        let key = Arc::as_ptr(&w.file) as usize;
        let gi = *by_ptr.entry(key).or_insert_with(|| {
            groups.push((Arc::clone(&w.file), Vec::new()));
            groups.len() - 1
        });
        groups[gi].1.push(i);
    }
    for (file, idxs) in &groups {
        let mut st = file.state.lock().expect("group file lock");
        if st.error.is_some() {
            continue; // already failed; the owner learns at its next sync
        }
        let bufs: Vec<&[u8]> = idxs.iter().map(|&i| batch[i].bytes.as_slice()).collect();
        if let Err(e) = write_all_vectored(&mut st.file, &bufs) {
            st.error = Some(e.to_string());
        }
    }
    counter!("journal_group_commits", 1u64);
    counter!("journal_batched_entries", batch.len() as u64);
    counter!("journal_flushes", groups.len() as u64);
    event!("journal_group_commit", batch = batch.len() as u64);
}

/// `write_all` over a gathered slice list: one `writev` in the common case,
/// resuming mid-buffer on partial writes. Slices are chunked to stay under
/// the platform's iovec limit.
fn write_all_vectored(file: &mut File, bufs: &[&[u8]]) -> std::io::Result<()> {
    const MAX_SLICES: usize = 512;
    let mut bi = 0; // current buffer
    let mut off = 0; // bytes of bufs[bi] already written
    while bi < bufs.len() {
        let slices: Vec<IoSlice<'_>> = std::iter::once(IoSlice::new(&bufs[bi][off..]))
            .chain(bufs[bi + 1..].iter().map(|b| IoSlice::new(b)))
            .take(MAX_SLICES)
            .collect();
        let mut n = file.write_vectored(&slices)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                "journal write returned zero bytes",
            ));
        }
        while n > 0 && bi < bufs.len() {
            let rem = bufs[bi].len() - off;
            if n >= rem {
                n -= rem;
                bi += 1;
                off = 0;
            } else {
                off += n;
                n = 0;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JournalEntry {
        JournalEntry {
            iteration: 7,
            fid: Fid::High,
            x: vec![0.1234567890123456, -3.5e-17, 6000.0],
            objective: -6.020740055767083,
            constraints: vec![-0.25, 1e-300],
            cost_after: 12.299999999999997,
            rng: Some([0xE220_A839_7B1D_CDAF, 1, u64::MAX, 42]),
            attempts: 3,
            cached: false,
            quarantined: true,
            warm: false,
            pending: false,
            cand: None,
        }
    }

    #[test]
    fn entry_round_trips_bit_exactly() {
        let e = sample();
        let back = JournalEntry::from_json_line(&e.to_json_line()).unwrap();
        assert_eq!(back, e);
        // PartialEq on f64 treats -0.0 == 0.0; pin bit-exactness explicitly.
        assert_eq!(back.objective.to_bits(), e.objective.to_bits());
        assert_eq!(back.cost_after.to_bits(), e.cost_after.to_bits());
        for (a, b) in back.x.iter().zip(&e.x) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn entry_without_rng_round_trips() {
        let e = JournalEntry {
            rng: None,
            quarantined: false,
            warm: true,
            ..sample()
        };
        let line = e.to_json_line();
        assert!(!line.contains("rng"));
        assert_eq!(JournalEntry::from_json_line(&line).unwrap(), e);
    }

    #[test]
    fn pending_records_round_trip_and_default_off() {
        // Sequential entries never mention the batched-ask/tell keys — the
        // v1 byte layout is untouched.
        let line = sample().to_json_line();
        assert!(!line.contains("pending") && !line.contains("cand"));

        let p = JournalEntry {
            objective: 0.0,
            constraints: vec![],
            attempts: 0,
            quarantined: false,
            pending: true,
            cand: Some(17),
            ..sample()
        };
        let back = JournalEntry::from_json_line(&p.to_json_line()).unwrap();
        assert_eq!(back, p);
        assert!(back.pending);
        assert_eq!(back.cand, Some(17));
        // A v1 reader's unknown-key tolerance is mirrored here: v1 lines
        // parse with the new fields defaulted.
        let v1 = sample().to_json_line();
        let e = JournalEntry::from_json_line(&v1).unwrap();
        assert!(!e.pending);
        assert_eq!(e.cand, None);
    }

    #[test]
    fn corrupt_lines_are_reported() {
        assert!(JournalEntry::from_json_line("{").is_err());
        assert!(JournalEntry::from_json_line("{\"iter\":0}").is_err());
        assert!(JournalEntry::from_json_line(
            "{\"iter\":0,\"fid\":\"mid\",\"x\":[],\"obj\":0,\"cons\":[],\"cost\":0,\"attempts\":1}"
        )
        .is_err());
    }
}

#[cfg(test)]
mod group_commit_tests {
    use super::*;
    use std::io::Read;

    fn temp_file(tag: &str) -> (std::path::PathBuf, File) {
        let path = std::env::temp_dir().join(format!("mfbo-gc-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let file = File::options()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap();
        (path, file)
    }

    fn read_all(path: &std::path::Path) -> Vec<u8> {
        let mut buf = Vec::new();
        File::open(path).unwrap().read_to_end(&mut buf).unwrap();
        buf
    }

    #[test]
    fn sync_returns_only_after_bytes_are_on_disk() {
        let gc = GroupCommitter::new(Duration::from_millis(1));
        let (path, file) = temp_file("sync");
        let gf = gc.register(file);
        let mut want = Vec::new();
        let mut last = 0;
        for i in 0..20 {
            let line = format!("entry-{i}\n").into_bytes();
            want.extend_from_slice(&line);
            last = gc.enqueue(&gf, line);
        }
        gc.sync(&gf, last).unwrap();
        assert_eq!(read_all(&path), want, "append order must be preserved");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn appends_interleaved_across_files_stay_per_file_ordered() {
        let gc = GroupCommitter::new(Duration::from_millis(1));
        let (path_a, file_a) = temp_file("inter-a");
        let (path_b, file_b) = temp_file("inter-b");
        let (gfa, gfb) = (gc.register(file_a), gc.register(file_b));
        let (mut want_a, mut want_b) = (Vec::new(), Vec::new());
        let (mut la, mut lb) = (0, 0);
        for i in 0..50 {
            let line = format!("row-{i}\n").into_bytes();
            if i % 3 == 0 {
                want_b.extend_from_slice(&line);
                lb = gc.enqueue(&gfb, line);
            } else {
                want_a.extend_from_slice(&line);
                la = gc.enqueue(&gfa, line);
            }
        }
        gc.sync(&gfa, la).unwrap();
        gc.sync(&gfb, lb).unwrap();
        assert_eq!(read_all(&path_a), want_a, "file A order");
        assert_eq!(read_all(&path_b), want_b, "file B order");
        let _ = std::fs::remove_file(&path_a);
        let _ = std::fs::remove_file(&path_b);
    }

    #[test]
    fn drop_flushes_the_pending_window() {
        let (path, file) = temp_file("drop");
        {
            let gc = GroupCommitter::new(Duration::from_secs(10));
            let gf = gc.register(file);
            gc.enqueue(&gf, b"tail\n".to_vec());
            // No sync: the committer drop must drain the queue even though
            // the 10 s linger window has not elapsed.
        }
        assert_eq!(read_all(&path), b"tail\n", "drop must flush");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn zero_linger_still_batches_correctly() {
        let gc = GroupCommitter::new(Duration::ZERO);
        let (path, file) = temp_file("zero");
        let gf = gc.register(file);
        let mut last = 0;
        for i in 0..5 {
            last = gc.enqueue(&gf, format!("z{i}\n").into_bytes());
        }
        gc.sync(&gf, last).unwrap();
        assert_eq!(read_all(&path), b"z0\nz1\nz2\nz3\nz4\n");
        let _ = std::fs::remove_file(&path);
    }
}
