//! Durable run store for the MFBO reproduction.
//!
//! A [`RunStore`] owns one directory and keeps three artifacts in it:
//!
//! - `meta.json` — identity of the run the journal belongs to (algorithm,
//!   problem, dimension, starting RNG state). Resume refuses to replay a
//!   journal written by a different configuration.
//! - `journal.jsonl` — the write-ahead evaluation journal: one line per
//!   consumed evaluation, appended and flushed *before* the optimizer acts
//!   on the value. After a crash, the journal is exactly the set of
//!   simulations that were paid for, and a resumed run replays them instead
//!   of re-simulating — reproducing the original trajectory bit for bit.
//! - `cache.jsonl` + `quarantine.jsonl` — a content-addressed evaluation
//!   cache keyed on `(problem, fidelity, quantized x)` that persists across
//!   runs, plus the set of keys whose simulations kept failing.
//!
//! All encodings use the hand-rolled JSON codec from
//! [`mfbo_telemetry::json`]; there is no serde and no external dependency.

#![deny(missing_docs)]

pub mod cache;
pub mod journal;

pub use cache::CacheEntry;
pub use journal::{GroupCommitter, GroupFile, JournalEntry};

use mfbo_telemetry::json::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read as _, Write as _};
use std::path::{Path, PathBuf};

/// Journal/meta schema version written by this crate.
pub const FORMAT_VERSION: u64 = 1;

/// Errors raised by the run store.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The OS error.
        source: std::io::Error,
    },
    /// A stored artifact could not be decoded.
    Corrupt {
        /// Which artifact ("journal entry", "cache entry", "run meta", ...).
        what: String,
        /// Decoder diagnostic.
        reason: String,
    },
    /// The on-disk run meta does not match the resuming configuration.
    Mismatch {
        /// Human-readable description of the divergence.
        reason: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "run store I/O error at {}: {}", path.display(), source)
            }
            StoreError::Corrupt { what, reason } => {
                write!(f, "run store {what} is corrupt: {reason}")
            }
            StoreError::Mismatch { reason } => {
                write!(f, "run store does not match this run: {reason}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Reads the integer field `key` of a stored record: `None` when it is
/// absent or not a number, an error naming the field when the number is not
/// an integer in `0..=max`. Integers are stored as JSON numbers, which
/// decode to `f64`, so `max` is capped at 2⁵³, past which `f64` no longer
/// holds every integer.
pub(crate) fn uint_field(v: &Json, key: &str, max: u64) -> Result<Option<u64>, String> {
    let Some(x) = v.get(key).and_then(Json::as_f64) else {
        return Ok(None);
    };
    let max = max.min(1 << 53);
    if x >= 0.0 && x.fract() == 0.0 && x <= max as f64 {
        Ok(Some(x as u64))
    } else {
        Err(format!("field {key:?} is {x}, not an integer in 0..={max}"))
    }
}

/// Fidelity tag used by the store. Mirrors the core crate's fidelity enum
/// without depending on it (the store sits below the optimizer crates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Fid {
    /// Cheap, biased simulation.
    Low,
    /// Expensive, accurate simulation.
    High,
}

impl Fid {
    /// Stable on-disk spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Fid::Low => "low",
            Fid::High => "high",
        }
    }

    /// Inverse of [`Fid::as_str`].
    pub fn parse(s: &str) -> Option<Fid> {
        match s {
            "low" => Some(Fid::Low),
            "high" => Some(Fid::High),
            _ => None,
        }
    }
}

impl std::fmt::Display for Fid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Identity of a run: what the journal in a store directory belongs to.
///
/// [`RunStore::resume_run`] compares every field against the stored copy and
/// refuses to replay on any difference — resuming a `forrester` journal into
/// a `hartmann6` run, or the same problem with a different seed, would
/// silently corrupt the trajectory otherwise.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMeta {
    /// Schema version (see [`FORMAT_VERSION`]).
    pub format_version: u64,
    /// Algorithm tag ("mfbo", "sfbo", ...).
    pub algo: String,
    /// Problem name as reported by the problem trait.
    pub problem: String,
    /// Input dimension.
    pub dim: usize,
    /// Number of constraints.
    pub num_constraints: usize,
    /// RNG state at run entry, when the generator exposes one. Doubles as a
    /// seed check: a resume with a different seed fails here instead of
    /// producing a diverged trajectory.
    pub rng_start: Option<[u64; 4]>,
    /// Ask/tell batch width (`max_pending`) the journal was written with,
    /// when batched (q > 1). `None` for sequential runs — the v1 byte layout
    /// is unchanged. Resuming a batched journal with a different width would
    /// regenerate a different pending schedule, so it is refused here.
    /// (Optional key, appended in format v1.)
    pub batch: Option<u64>,
    /// GP inference engine tag (e.g. "subset-of-data") the journal
    /// was written with, when approximate. `None` for exact runs — the v1
    /// byte layout is unchanged. An approximate journal replayed under a
    /// different engine would refit different surrogates and diverge, so a
    /// mismatch is refused here. (Optional key, appended in format v1.)
    pub inference: Option<String>,
}

impl RunMeta {
    fn to_json(&self) -> String {
        let mut fields = vec![
            ("format_version", Json::Num(self.format_version as f64)),
            ("algo", Json::Str(self.algo.clone())),
            ("problem", Json::Str(self.problem.clone())),
            ("dim", Json::Num(self.dim as f64)),
            ("num_constraints", Json::Num(self.num_constraints as f64)),
        ];
        if let Some(words) = self.rng_start {
            fields.push((
                "rng_start",
                Json::Arr(
                    words
                        .iter()
                        .map(|&w| Json::Str(format!("{w:#018x}")))
                        .collect(),
                ),
            ));
        }
        if let Some(b) = self.batch {
            fields.push(("batch", Json::Num(b as f64)));
        }
        if let Some(s) = &self.inference {
            fields.push(("inference", Json::Str(s.clone())));
        }
        Json::obj(fields).to_string()
    }

    fn from_json(text: &str) -> Result<RunMeta, StoreError> {
        let bad = |reason: String| StoreError::Corrupt {
            what: "run meta".into(),
            reason,
        };
        let v = mfbo_telemetry::json::parse(text).map_err(bad)?;
        let uint = |key: &str, max: u64| -> Result<u64, StoreError> {
            uint_field(&v, key, max)
                .map_err(bad)?
                .ok_or_else(|| bad(format!("missing numeric field {key:?}")))
        };
        let string = |key: &str| -> Result<String, StoreError> {
            Ok(v.get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| bad(format!("missing string field {key:?}")))?
                .to_string())
        };
        let rng_start = match v.get("rng_start") {
            None | Some(Json::Null) => None,
            Some(arr) => {
                let items = arr
                    .as_arr()
                    .ok_or_else(|| bad("\"rng_start\" is not an array".into()))?;
                if items.len() != 4 {
                    return Err(bad(format!(
                        "rng_start has {} words, expected 4",
                        items.len()
                    )));
                }
                let mut words = [0u64; 4];
                for (w, item) in words.iter_mut().zip(items) {
                    let s = item
                        .as_str()
                        .ok_or_else(|| bad("rng_start word is not a string".into()))?;
                    let digits = s
                        .strip_prefix("0x")
                        .ok_or_else(|| bad(format!("rng_start word {s:?} missing 0x prefix")))?;
                    *w = u64::from_str_radix(digits, 16)
                        .map_err(|e| bad(format!("bad rng_start word {s:?}: {e}")))?;
                }
                Some(words)
            }
        };
        Ok(RunMeta {
            format_version: uint("format_version", u64::MAX)?,
            algo: string("algo")?,
            problem: string("problem")?,
            dim: uint("dim", usize::MAX as u64)? as usize,
            num_constraints: uint("num_constraints", usize::MAX as u64)? as usize,
            rng_start,
            batch: uint_field(&v, "batch", u64::MAX).map_err(bad)?,
            inference: v
                .get("inference")
                .and_then(Json::as_str)
                .map(str::to_string),
        })
    }
}

/// Builds the content-address for one evaluation.
///
/// Coordinates are quantized through `{:.12e}` scientific formatting (12
/// significant decimal digits after the point) so that values differing only
/// in floating-point noise below that resolution share a key, while any
/// optimizer-visible difference separates them.
pub fn cache_key(problem: &str, fid: Fid, x: &[f64]) -> String {
    use std::fmt::Write as _;
    let mut key = String::with_capacity(problem.len() + 8 + x.len() * 20);
    key.push_str(problem);
    key.push('|');
    key.push_str(fid.as_str());
    key.push('|');
    for (i, v) in x.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        let _ = write!(key, "{v:.12e}");
    }
    key
}

/// How journal appends reach the OS.
enum JournalSink {
    /// Historical behavior: every append is written and flushed before
    /// [`RunStore::append`] returns.
    Direct(BufWriter<File>),
    /// Appends are enqueued with a shared [`GroupCommitter`] and written in
    /// gathered batches; [`RunStore::sync`] awaits durability.
    Grouped {
        file: std::sync::Arc<GroupFile>,
        /// Sequence number of this journal's newest enqueued append.
        last_seq: u64,
    },
}

impl std::fmt::Debug for JournalSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalSink::Direct(_) => f.write_str("Direct"),
            JournalSink::Grouped { last_seq, .. } => {
                write!(f, "Grouped {{ last_seq: {last_seq} }}")
            }
        }
    }
}

/// A durable run store rooted at one directory.
///
/// See the crate docs for the directory layout. A store is opened once per
/// process and handed to the optimizer loop by value (through
/// `RunOptions` in the core crate).
#[derive(Debug)]
pub struct RunStore {
    dir: PathBuf,
    journal: Option<JournalSink>,
    /// When set (see [`RunStore::open_grouped`]), journals opened by
    /// `begin_run`/`resume_run` append through this group committer.
    group: Option<std::sync::Arc<GroupCommitter>>,
    cache_writer: Option<BufWriter<File>>,
    quarantine_writer: Option<BufWriter<File>>,
    cache: BTreeMap<String, CacheEntry>,
    quarantined: BTreeSet<String>,
}

impl RunStore {
    fn io(path: &Path) -> impl FnOnce(std::io::Error) -> StoreError + '_ {
        move |source| StoreError::Io {
            path: path.to_path_buf(),
            source,
        }
    }

    /// Opens (creating if needed) the store directory and loads the
    /// persistent cache and quarantine sets. Does not touch the journal —
    /// call [`RunStore::begin_run`] or [`RunStore::resume_run`] next.
    pub fn open(dir: impl Into<PathBuf>) -> Result<RunStore, StoreError> {
        Self::open_inner(dir.into(), None)
    }

    /// [`RunStore::open`], with journal appends routed through a shared
    /// [`GroupCommitter`] instead of being flushed one by one.
    ///
    /// Byte-for-byte, the journal is identical to one written by a direct
    /// store — group commit batches *when* lines reach the OS, never their
    /// content or per-file order. Call [`RunStore::sync`] wherever the
    /// write-ahead contract needs an entry durable *now* (the evaluation
    /// service does this before dispatching each journaled candidate). The
    /// cache and quarantine writers stay synchronous — they are warm-path
    /// artifacts, not write-ahead state.
    pub fn open_grouped(
        dir: impl Into<PathBuf>,
        committer: std::sync::Arc<GroupCommitter>,
    ) -> Result<RunStore, StoreError> {
        Self::open_inner(dir.into(), Some(committer))
    }

    fn open_inner(
        dir: PathBuf,
        group: Option<std::sync::Arc<GroupCommitter>>,
    ) -> Result<RunStore, StoreError> {
        std::fs::create_dir_all(&dir).map_err(Self::io(&dir))?;
        let mut store = RunStore {
            dir,
            journal: None,
            group,
            cache_writer: None,
            quarantine_writer: None,
            cache: BTreeMap::new(),
            quarantined: BTreeSet::new(),
        };
        for line in store.read_lines(&store.cache_path())? {
            let (key, entry) = CacheEntry::from_json_line(&line)?;
            store.cache.insert(key, entry);
        }
        for line in store.read_lines(&store.quarantine_path())? {
            let v = mfbo_telemetry::json::parse(&line).map_err(|reason| StoreError::Corrupt {
                what: "quarantine entry".into(),
                reason,
            })?;
            if let Some(key) = v.get("k").and_then(Json::as_str) {
                store.quarantined.insert(key.to_string());
            }
        }
        Ok(store)
    }

    /// The directory this store is rooted at.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Read-only load of a store's run metadata and journal, for offline
    /// analysis (`mfbo-cli report`). Touches nothing on disk — no writers
    /// are opened, the cache is not loaded, and the directory is not
    /// created.
    ///
    /// # Errors
    ///
    /// [`StoreError::Mismatch`] when the directory holds no run
    /// (`meta.json` missing); [`StoreError::Corrupt`] on undecodable meta
    /// or journal lines; [`StoreError::Io`] on read failures.
    pub fn load_journal(
        dir: impl Into<PathBuf>,
    ) -> Result<(RunMeta, Vec<JournalEntry>), StoreError> {
        let dir = dir.into();
        let meta_path = dir.join("meta.json");
        if !meta_path.exists() {
            return Err(StoreError::Mismatch {
                reason: format!("no run found in {} (missing meta.json)", dir.display()),
            });
        }
        let mut text = String::new();
        File::open(&meta_path)
            .and_then(|mut f| f.read_to_string(&mut text))
            .map_err(Self::io(&meta_path))?;
        let meta = RunMeta::from_json(&text)?;
        let journal_path = dir.join("journal.jsonl");
        let mut entries = Vec::new();
        if journal_path.exists() {
            let mut text = String::new();
            File::open(&journal_path)
                .and_then(|mut f| f.read_to_string(&mut text))
                .map_err(Self::io(&journal_path))?;
            for line in text.lines().filter(|l| !l.trim().is_empty()) {
                entries.push(JournalEntry::from_json_line(line)?);
            }
        }
        Ok((meta, entries))
    }

    fn meta_path(&self) -> PathBuf {
        self.dir.join("meta.json")
    }

    fn journal_path(&self) -> PathBuf {
        self.dir.join("journal.jsonl")
    }

    fn cache_path(&self) -> PathBuf {
        self.dir.join("cache.jsonl")
    }

    fn quarantine_path(&self) -> PathBuf {
        self.dir.join("quarantine.jsonl")
    }

    fn read_lines(&self, path: &Path) -> Result<Vec<String>, StoreError> {
        if !path.exists() {
            return Ok(Vec::new());
        }
        let mut text = String::new();
        File::open(path)
            .and_then(|mut f| f.read_to_string(&mut text))
            .map_err(Self::io(path))?;
        Ok(text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(str::to_string)
            .collect())
    }

    /// Starts a fresh journal for `meta`: truncates any previous journal,
    /// writes `meta.json`, and opens the journal for appending. The
    /// evaluation cache is deliberately left intact — it persists across
    /// runs.
    pub fn begin_run(&mut self, meta: &RunMeta) -> Result<(), StoreError> {
        let meta_path = self.meta_path();
        std::fs::write(&meta_path, meta.to_json()).map_err(Self::io(&meta_path))?;
        let journal_path = self.journal_path();
        let file = File::create(&journal_path).map_err(Self::io(&journal_path))?;
        self.journal = Some(self.make_sink(file));
        Ok(())
    }

    /// Wraps a freshly opened journal file in the configured sink kind.
    fn make_sink(&self, file: File) -> JournalSink {
        match &self.group {
            Some(gc) => JournalSink::Grouped {
                file: gc.register(file),
                last_seq: 0,
            },
            None => JournalSink::Direct(BufWriter::new(file)),
        }
    }

    /// Validates `meta` against the stored copy, loads the journal for
    /// replay, and reopens it for appending. Returns the journaled entries
    /// in write order.
    pub fn resume_run(&mut self, meta: &RunMeta) -> Result<Vec<JournalEntry>, StoreError> {
        let meta_path = self.meta_path();
        if !meta_path.exists() {
            return Err(StoreError::Mismatch {
                reason: format!(
                    "no run to resume in {} (missing meta.json)",
                    self.dir.display()
                ),
            });
        }
        let mut text = String::new();
        File::open(&meta_path)
            .and_then(|mut f| f.read_to_string(&mut text))
            .map_err(Self::io(&meta_path))?;
        let stored = RunMeta::from_json(&text)?;
        if stored != *meta {
            let field = if stored.format_version != meta.format_version {
                format!(
                    "format version {} vs {}",
                    stored.format_version, meta.format_version
                )
            } else if stored.algo != meta.algo {
                format!("algorithm {:?} vs {:?}", stored.algo, meta.algo)
            } else if stored.problem != meta.problem {
                format!("problem {:?} vs {:?}", stored.problem, meta.problem)
            } else if stored.rng_start != meta.rng_start {
                "RNG seed/state".to_string()
            } else if stored.batch != meta.batch {
                format!(
                    "ask/tell batch width {:?} vs {:?}",
                    stored.batch, meta.batch
                )
            } else if stored.inference != meta.inference {
                format!(
                    "GP inference engine {:?} vs {:?}",
                    stored.inference, meta.inference
                )
            } else {
                "problem shape".to_string()
            };
            return Err(StoreError::Mismatch {
                reason: format!("stored run differs in {field}"),
            });
        }
        let entries = self
            .read_lines(&self.journal_path())?
            .iter()
            .map(|line| JournalEntry::from_json_line(line))
            .collect::<Result<Vec<_>, _>>()?;
        let journal_path = self.journal_path();
        let file = OpenOptions::new()
            .append(true)
            .create(true)
            .open(&journal_path)
            .map_err(Self::io(&journal_path))?;
        self.journal = Some(self.make_sink(file));
        Ok(entries)
    }

    /// Appends one entry to the journal. On a direct store the line is
    /// written and flushed to the OS before returning — the historical
    /// write-ahead guarantee. On a group-committed store the line is
    /// enqueued for the next linger-window flush; call [`RunStore::sync`]
    /// before acting on anything whose entry must be durable first.
    pub fn append(&mut self, entry: &JournalEntry) -> Result<(), StoreError> {
        let path = self.journal_path();
        let gc = self.group.clone();
        let sink = self.journal.as_mut().ok_or_else(|| StoreError::Mismatch {
            reason: "journal not open (begin_run/resume_run not called)".into(),
        })?;
        match sink {
            JournalSink::Direct(writer) => writeln!(writer, "{}", entry.to_json_line())
                .and_then(|_| writer.flush())
                .map_err(Self::io(&path)),
            JournalSink::Grouped { file, last_seq } => {
                let gc = gc.expect("grouped sink implies a committer");
                let mut bytes = entry.to_json_line().into_bytes();
                bytes.push(b'\n');
                *last_seq = gc.enqueue(file, bytes);
                Ok(())
            }
        }
    }

    /// Blocks until every appended entry is durable (written out to the
    /// OS). A no-op on direct stores; on group-committed stores this waits
    /// at most one linger window and surfaces any deferred write error.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        let path = self.journal_path();
        match (&self.journal, &self.group) {
            (Some(JournalSink::Grouped { file, last_seq }), Some(gc)) => {
                gc.sync(file, *last_seq).map_err(|reason| StoreError::Io {
                    path,
                    source: std::io::Error::other(reason),
                })
            }
            _ => Ok(()),
        }
    }

    /// Looks up a cached evaluation. Quarantined keys never hit.
    pub fn cache_get(&self, key: &str) -> Option<&CacheEntry> {
        if self.quarantined.contains(key) {
            return None;
        }
        self.cache.get(key)
    }

    /// Inserts an evaluation into the persistent cache (appends to
    /// `cache.jsonl` and flushes).
    pub fn cache_put(&mut self, key: String, entry: CacheEntry) -> Result<(), StoreError> {
        if self.cache.get(&key) == Some(&entry) {
            return Ok(());
        }
        let path = self.cache_path();
        if self.cache_writer.is_none() {
            let file = OpenOptions::new()
                .append(true)
                .create(true)
                .open(&path)
                .map_err(Self::io(&path))?;
            self.cache_writer = Some(BufWriter::new(file));
        }
        let writer = self.cache_writer.as_mut().expect("just opened");
        writeln!(writer, "{}", entry.to_json_line(&key))
            .and_then(|_| writer.flush())
            .map_err(Self::io(&path))?;
        self.cache.insert(key, entry);
        Ok(())
    }

    /// Marks a key as quarantined: its simulations kept failing, so it is
    /// excluded from cache hits and warm-starting from now on.
    pub fn quarantine(&mut self, key: String) -> Result<(), StoreError> {
        if self.quarantined.contains(&key) {
            return Ok(());
        }
        let path = self.quarantine_path();
        if self.quarantine_writer.is_none() {
            let file = OpenOptions::new()
                .append(true)
                .create(true)
                .open(&path)
                .map_err(Self::io(&path))?;
            self.quarantine_writer = Some(BufWriter::new(file));
        }
        let writer = self.quarantine_writer.as_mut().expect("just opened");
        writeln!(writer, "{}", Json::obj([("k", Json::Str(key.clone()))]))
            .and_then(|_| writer.flush())
            .map_err(Self::io(&path))?;
        self.quarantined.insert(key);
        Ok(())
    }

    /// Whether a key is quarantined.
    #[cfg(test)]
    fn is_quarantined(&self, key: &str) -> bool {
        self.quarantined.contains(key)
    }

    /// Number of cached evaluations (excluding quarantined keys).
    #[cfg(test)]
    fn cache_len(&self) -> usize {
        self.cache
            .keys()
            .filter(|k| !self.quarantined.contains(*k))
            .count()
    }

    /// Best-effort flush of the journal tail when the store is released —
    /// a finished run's journal is complete on disk as soon as its store is
    /// dropped, group-committed or not. Errors are deliberately swallowed:
    /// anyone who needs them calls [`RunStore::sync`] explicitly first.
    fn sync_on_release(&mut self) {
        let _ = self.sync();
    }

    /// All non-quarantined low-fidelity cache entries for `problem`, in
    /// deterministic (BTreeMap key) order — the feedstock for cross-run
    /// warm-starting of the low-fidelity surrogate.
    pub fn cached_low_entries(&self, problem: &str) -> Vec<(&str, &CacheEntry)> {
        let prefix = format!("{problem}|{}|", Fid::Low.as_str());
        self.cache
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix) && !self.quarantined.contains(*k))
            .map(|(k, v)| (k.as_str(), v))
            .collect()
    }
}

impl Drop for RunStore {
    fn drop(&mut self) {
        self.sync_on_release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mfbo-runstore-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn meta() -> RunMeta {
        RunMeta {
            format_version: FORMAT_VERSION,
            algo: "mfbo".into(),
            problem: "forrester".into(),
            dim: 1,
            num_constraints: 0,
            rng_start: Some([1, 2, 3, 4]),
            batch: None,
            inference: None,
        }
    }

    fn entry(iteration: u64, x: f64) -> JournalEntry {
        JournalEntry {
            iteration,
            fid: Fid::Low,
            x: vec![x],
            objective: x * x,
            constraints: vec![],
            cost_after: iteration as f64 + 1.0,
            rng: Some([5, 6, 7, iteration]),
            attempts: 1,
            cached: false,
            quarantined: false,
            warm: false,
            pending: false,
            cand: None,
        }
    }

    #[test]
    fn begin_append_resume_replays_in_order() {
        let dir = tmpdir("journal");
        let mut store = RunStore::open(&dir).unwrap();
        store.begin_run(&meta()).unwrap();
        store.append(&entry(0, 0.5)).unwrap();
        store.append(&entry(1, 0.25)).unwrap();
        drop(store); // simulate the process dying

        let mut resumed = RunStore::open(&dir).unwrap();
        let entries = resumed.resume_run(&meta()).unwrap();
        assert_eq!(entries, vec![entry(0, 0.5), entry(1, 0.25)]);
        // The journal stays appendable after resume.
        resumed.append(&entry(2, 0.75)).unwrap();
        drop(resumed);

        let mut again = RunStore::open(&dir).unwrap();
        assert_eq!(again.resume_run(&meta()).unwrap().len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_rejects_mismatched_meta() {
        let dir = tmpdir("mismatch");
        let mut store = RunStore::open(&dir).unwrap();
        store.begin_run(&meta()).unwrap();
        drop(store);

        let mut other = RunStore::open(&dir).unwrap();
        let wrong_problem = RunMeta {
            problem: "hartmann6".into(),
            ..meta()
        };
        assert!(matches!(
            other.resume_run(&wrong_problem),
            Err(StoreError::Mismatch { .. })
        ));
        let wrong_seed = RunMeta {
            rng_start: Some([9, 9, 9, 9]),
            ..meta()
        };
        let err = other.resume_run(&wrong_seed).unwrap_err();
        assert!(err.to_string().contains("RNG"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_journal_reads_without_writers() {
        let dir = tmpdir("load");
        let mut store = RunStore::open(&dir).unwrap();
        store.begin_run(&meta()).unwrap();
        store.append(&entry(0, 0.5)).unwrap();
        store.append(&entry(1, 0.25)).unwrap();
        drop(store);

        let (m, entries) = RunStore::load_journal(&dir).unwrap();
        assert_eq!(m, meta());
        assert_eq!(entries, vec![entry(0, 0.5), entry(1, 0.25)]);
        // Loading is side-effect free: the journal is still appendable by a
        // real resume afterwards and no files were created.
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert!(names
            .iter()
            .all(|n| n == "meta.json" || n == "journal.jsonl"));
        assert!(matches!(
            RunStore::load_journal(tmpdir("load-missing")),
            Err(StoreError::Mismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_without_a_run_is_a_mismatch() {
        let dir = tmpdir("empty");
        let mut store = RunStore::open(&dir).unwrap();
        assert!(matches!(
            store.resume_run(&meta()),
            Err(StoreError::Mismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn begin_run_truncates_journal_but_keeps_cache() {
        let dir = tmpdir("truncate");
        let mut store = RunStore::open(&dir).unwrap();
        store.begin_run(&meta()).unwrap();
        store.append(&entry(0, 0.5)).unwrap();
        let key = cache_key("forrester", Fid::Low, &[0.5]);
        store
            .cache_put(
                key.clone(),
                CacheEntry {
                    x: vec![0.5],
                    objective: 0.25,
                    constraints: vec![],
                },
            )
            .unwrap();
        drop(store);

        let mut fresh = RunStore::open(&dir).unwrap();
        assert_eq!(fresh.cache_len(), 1);
        assert!(fresh.cache_get(&key).is_some());
        fresh.begin_run(&meta()).unwrap();
        drop(fresh);

        let mut resumed = RunStore::open(&dir).unwrap();
        assert_eq!(resumed.resume_run(&meta()).unwrap().len(), 0);
        assert_eq!(resumed.cache_len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantine_hides_cache_entries_persistently() {
        let dir = tmpdir("quarantine");
        let mut store = RunStore::open(&dir).unwrap();
        let key = cache_key("toy", Fid::High, &[1.0, 2.0]);
        store
            .cache_put(
                key.clone(),
                CacheEntry {
                    x: vec![1.0, 2.0],
                    objective: 3.0,
                    constraints: vec![-1.0],
                },
            )
            .unwrap();
        assert!(store.cache_get(&key).is_some());
        store.quarantine(key.clone()).unwrap();
        assert!(store.cache_get(&key).is_none());
        assert_eq!(store.cache_len(), 0);
        drop(store);

        let store = RunStore::open(&dir).unwrap();
        assert!(store.is_quarantined(&key));
        assert!(store.cache_get(&key).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cached_low_entries_filter_by_problem_and_fidelity() {
        let dir = tmpdir("lowfid");
        let mut store = RunStore::open(&dir).unwrap();
        let mk = |x: f64| CacheEntry {
            x: vec![x],
            objective: x,
            constraints: vec![],
        };
        store
            .cache_put(cache_key("a", Fid::Low, &[0.2]), mk(0.2))
            .unwrap();
        store
            .cache_put(cache_key("a", Fid::Low, &[0.1]), mk(0.1))
            .unwrap();
        store
            .cache_put(cache_key("a", Fid::High, &[0.3]), mk(0.3))
            .unwrap();
        store
            .cache_put(cache_key("b", Fid::Low, &[0.4]), mk(0.4))
            .unwrap();
        let low = store.cached_low_entries("a");
        assert_eq!(low.len(), 2);
        // BTreeMap order is deterministic across runs.
        let xs: Vec<f64> = low.iter().map(|(_, e)| e.x[0]).collect();
        let mut sorted = xs.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(xs, sorted);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_key_quantizes_but_separates_real_differences() {
        let a = cache_key("p", Fid::Low, &[0.1 + 0.2]);
        let b = cache_key("p", Fid::Low, &[0.3]);
        assert_eq!(a, b); // differ only below 12 significant digits
        let c = cache_key("p", Fid::Low, &[0.3000001]);
        assert_ne!(a, c);
        assert_ne!(
            cache_key("p", Fid::Low, &[0.3]),
            cache_key("p", Fid::High, &[0.3])
        );
    }

    #[test]
    fn meta_round_trips() {
        let m = meta();
        assert_eq!(RunMeta::from_json(&m.to_json()).unwrap(), m);
        let no_rng = RunMeta {
            rng_start: None,
            ..meta()
        };
        assert_eq!(RunMeta::from_json(&no_rng.to_json()).unwrap(), no_rng);
        // Sequential metas never mention the batch key; batched ones
        // round-trip it.
        assert!(!m.to_json().contains("batch"));
        let batched = RunMeta {
            batch: Some(4),
            ..meta()
        };
        assert_eq!(RunMeta::from_json(&batched.to_json()).unwrap(), batched);
    }

    /// Every integer field the store writes loads back exactly, up to the
    /// largest value an `f64` holds exactly, as does the checked-in journal
    /// of the retired standalone loop.
    #[test]
    fn written_integer_fields_load_back() {
        let dir = tmpdir("ints");
        let mut store = RunStore::open(&dir).unwrap();
        let big = 1u64 << 53;
        let m = RunMeta {
            dim: 36,
            num_constraints: 3,
            batch: Some(big),
            ..meta()
        };
        store.begin_run(&m).unwrap();
        let entries = [
            JournalEntry {
                iteration: big,
                attempts: u32::MAX,
                pending: true,
                cand: Some(big),
                ..entry(0, 0.5)
            },
            entry(3, 0.25),
        ];
        for e in &entries {
            store.append(e).unwrap();
        }
        drop(store);
        assert_eq!(RunStore::load_journal(&dir).unwrap(), (m, entries.to_vec()));
        std::fs::remove_dir_all(&dir).unwrap();

        let golden =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/sfbo_journal_pa_seed3");
        let (m, entries) = RunStore::load_journal(golden).unwrap();
        assert_eq!((m.format_version, m.dim, m.num_constraints), (1, 5, 2));
        assert!(entries.iter().all(|e| e.attempts == 1));
    }

    /// A negative, fractional, non-finite or out-of-range integer field is
    /// refused as corrupt, naming the field, instead of being narrowed to
    /// some other integer.
    #[test]
    fn bad_integer_fields_are_refused() {
        let refused = |err: StoreError, key: &str| match err {
            StoreError::Corrupt { reason, .. } => {
                assert!(reason.contains(&format!("{key:?}")), "{reason}")
            }
            other => panic!("{key}: expected a corrupt-record error, got {other}"),
        };
        let batched = RunMeta {
            batch: Some(4),
            ..meta()
        }
        .to_json();
        let line = JournalEntry {
            cand: Some(17),
            ..entry(2, 0.5)
        }
        .to_json_line();
        for bad in ["-1", "2.5", "1e300", "1e16", "-0.5"] {
            for (key, ok) in [
                ("format_version", "1"),
                ("dim", "1"),
                ("num_constraints", "0"),
                ("batch", "4"),
            ] {
                let text =
                    batched.replacen(&format!("\"{key}\":{ok}"), &format!("\"{key}\":{bad}"), 1);
                assert_ne!(text, batched);
                refused(RunMeta::from_json(&text).unwrap_err(), key);
            }
            for (key, ok) in [("iter", "2"), ("attempts", "1"), ("cand", "17")] {
                let text =
                    line.replacen(&format!("\"{key}\":{ok}"), &format!("\"{key}\":{bad}"), 1);
                assert_ne!(text, line);
                refused(JournalEntry::from_json_line(&text).unwrap_err(), key);
            }
        }
        let text = line.replacen("\"attempts\":1", "\"attempts\":4294967296", 1);
        refused(JournalEntry::from_json_line(&text).unwrap_err(), "attempts");
    }

    #[test]
    fn resume_rejects_mismatched_batch_width() {
        let dir = tmpdir("batch");
        let mut store = RunStore::open(&dir).unwrap();
        let batched = RunMeta {
            batch: Some(4),
            ..meta()
        };
        store.begin_run(&batched).unwrap();
        drop(store);

        let mut other = RunStore::open(&dir).unwrap();
        let err = other.resume_run(&meta()).unwrap_err();
        assert!(err.to_string().contains("batch"), "{err}");
        let mut same = RunStore::open(&dir).unwrap();
        assert!(same.resume_run(&batched).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
