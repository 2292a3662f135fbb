//! Crash-safe durability for served models: per-model WALs, atomic
//! snapshots, degraded-mode bookkeeping and the counters `/metrics` and
//! `/healthz` expose.
//!
//! Every model the server holds gets a slot here when it is fitted,
//! recovered or adopted, and the slot alone decides whether its ingest is
//! journaled or refused. A slot is degraded — ingest answers `503`, reads
//! keep serving, `/healthz` names the model with its reason — when a write
//! could not be made durable, when recovery found contradictory state, or
//! when the model's name is not a safe directory name ([`durable_name`]);
//! such a name never touches disk. Deleting the model drops its slot.
//!
//! ## On-disk layout
//!
//! ```text
//! <state_dir>/<model>/
//!     snap-<seq:016>.kgm   KGM4 model at sequence <seq>
//!     snap-<seq:016>.kgs   KGS1 session state at sequence <seq>
//!     wal-<seq:016>.log    KGW1 journal of the records after <seq>
//! ```
//!
//! A generation is the snapshot *pair* for one zero-padded sequence
//! number (`snapshot_file`, `snapshot_pairs`); each file lands via `tmp →
//! fsync → rename → dir fsync`, model first. Every generation's files are
//! its own: an unchanged model's `.kgm` is a byte-identical copy of the
//! previous generation's, written from the encoding the slot keeps of the
//! newest model rather than encoded again, so rot in one generation's
//! model file leaves the other to fall back to. Recovery treats a lone file
//! as no snapshot, so a crash between the two renames falls back to the
//! previous generation, whose records are still in the live journal. Once
//! the pair is durable the generation's journal is created (header, then
//! directory fsync'd) and appends move to it; if that fails they stay on
//! the live journal, where the records after `<seq>` run on in sequence.
//! No journal is renamed over, and none that holds a record is rewritten.
//! The two newest generations are kept, and a journal is deleted with the
//! generations it covers, never while appends go to it. A re-fit numbers
//! its first generation one past the name's last sequence number, so it
//! outranks the old fit.
//!
//! ## Write path
//!
//! The ingest route checks the record with `StreamSession::check_append`,
//! then calls [`Durability::log_ingest`] *before* `StreamSession::append`,
//! holding the per-model session lock, so the WAL order is exactly the
//! apply order. Transient I/O errors are retried with bounded backoff; a
//! failed append is rolled back to the previous record boundary and
//! surfaced as retryable (`503` upstream). When even the rollback fails
//! the model flips to degraded read-only — reads keep serving, writes are
//! refused — rather than risking silent divergence between the log and
//! the in-memory state. A journaled record the session nevertheless
//! refuses degrades the model and stays in the journal, as it does when
//! recovery replays it.
//!
//! ## Locking
//!
//! Durability state is per model: the registry maps names to
//! `Arc<Mutex<ModelDur>>` slots and is locked only for the lookup. All
//! I/O — WAL appends, fsyncs, retry backoff sleeps, snapshot writes —
//! runs under the *model's* lock alone, so one model's stalled disk never
//! blocks another model's ingest. A slot lock is never held while taking
//! the registry lock.

use crate::fsio::{Fs, StdFs};
use crate::lock;
use crate::wal::Wal;
use kgraph::pipeline::KGraphModel;
use kgraph::serial;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Duration;
use streamfit::{StreamConfig, StreamSession};

/// Tuning knobs of the durability layer.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Root directory holding one subdirectory per durable model.
    pub state_dir: PathBuf,
    /// Fsync the WAL after every N appended records (group commit).
    /// 1 = every record is durable before its ingest is acknowledged;
    /// larger values trade a bounded window of acknowledged-but-unsynced
    /// records for fewer fsyncs.
    pub wal_sync_every: u64,
    /// Take a snapshot every N session refreshes, counting a refresh that
    /// compacts like any other. 0 snapshots on every refresh.
    pub snapshot_every: u64,
}

/// Retries of a transient I/O error before it is surfaced.
const IO_RETRIES: u32 = 2;

/// Backoff before the first retry of a transient I/O error (doubled per
/// attempt).
const RETRY_BACKOFF: Duration = Duration::from_millis(20);

/// Snapshot generations retained per model.
const KEEP_SNAPSHOTS: usize = 2;

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            state_dir: PathBuf::from("state"),
            wal_sync_every: 1,
            snapshot_every: 4,
        }
    }
}

/// Shared atomic counters, surfaced by `/metrics`.
#[derive(Debug, Default)]
pub struct DurabilityCounters {
    /// WAL records appended and acknowledged.
    pub wal_records_written: AtomicU64,
    /// WAL records replayed during recovery.
    pub wal_records_replayed: AtomicU64,
    /// WAL records truncated: torn/corrupt tails discarded at recovery
    /// plus records a snapshot or a re-fit retired from the live journal.
    pub wal_records_truncated: AtomicU64,
    /// WAL fsync calls issued.
    pub wal_syncs: AtomicU64,
    /// Snapshot pairs written successfully.
    pub snapshots_written: AtomicU64,
    /// Snapshot attempts that failed, or whose journal could not be
    /// started (data stays WAL-covered).
    pub snapshot_failures: AtomicU64,
    /// Transient I/O retries performed.
    pub io_retries: AtomicU64,
    /// Ingest records appended since the last successful snapshot, summed
    /// over models — the deterministic "snapshot age" gauge.
    pub records_since_snapshot: AtomicU64,
    /// Wall-clock milliseconds the last startup recovery took.
    pub recovery_duration_ms: AtomicU64,
    /// Models restored from snapshot (+ replay) at startup.
    pub models_recovered: AtomicU64,
    /// Models currently degraded read-only.
    pub models_degraded: AtomicU64,
}

#[derive(Default)]
struct ModelDur {
    /// `None` while degraded (or before registration completes).
    wal: Option<Wal>,
    /// Last acknowledged sequence number.
    seq: u64,
    /// Sequence covered by the newest on-disk snapshot.
    snapshot_seq: u64,
    /// Sequence number of the journal that takes the appends; 0 on a
    /// fresh slot, whose first snapshot prunes no journal.
    journal: u64,
    /// Session refresh count at the last snapshot (cadence anchor).
    refreshes_at_snapshot: u64,
    /// The model of the newest snapshot and its `KGM4` encoding, which
    /// later snapshots of the same model write again instead of encoding
    /// it anew. A `Weak` keeps the allocation, so no later model can take
    /// its address.
    model_bytes: Option<(Weak<KGraphModel>, Vec<u8>)>,
    /// Why the model's ingest path is closed, if it is.
    degraded: Option<String>,
}

/// Outcome of [`Durability::log_ingest`].
#[derive(Debug)]
pub enum IngestLog {
    /// The record is in the WAL (sequence number attached) — or durability
    /// is disabled / the model is non-durable, in which case `seq` is 0.
    Logged {
        /// WAL sequence, 0 when nothing was logged.
        seq: u64,
    },
    /// The WAL could not take the record but was rolled back cleanly; the
    /// ingest must be refused retryably (`503` + `Retry-After`).
    Unavailable {
        /// The underlying error, for the response body and logs.
        reason: String,
    },
    /// The model is degraded read-only; writes are refused until an
    /// operator repairs the state directory and restarts.
    Degraded {
        /// Why the model degraded.
        reason: String,
    },
}

/// The durability manager. One per server; cheap to share behind an `Arc`.
pub struct Durability {
    enabled: bool,
    fs: Arc<dyn Fs>,
    cfg: DurabilityConfig,
    counters: Arc<DurabilityCounters>,
    /// Name → per-model slot. The registry lock covers only the lookup;
    /// every I/O runs under the slot's own lock.
    models: Mutex<HashMap<String, Arc<Mutex<ModelDur>>>>,
}

/// `true` when `name` is safe to use as a directory name under the state
/// root (no traversal, no separators, non-empty).
pub fn durable_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 128
        && name != "."
        && name != ".."
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
}

impl Durability {
    /// A live durability layer over the real filesystem.
    pub fn new(cfg: DurabilityConfig) -> Self {
        Self::with_fs(cfg, Arc::new(StdFs))
    }

    /// A live durability layer over an arbitrary [`Fs`] — the seam the
    /// fault-injection tests use.
    pub fn with_fs(cfg: DurabilityConfig, fs: Arc<dyn Fs>) -> Self {
        Durability {
            enabled: true,
            fs,
            cfg,
            counters: Arc::new(DurabilityCounters::default()),
            models: Mutex::new(HashMap::new()),
        }
    }

    /// A no-op layer: every operation succeeds without touching disk.
    /// Used when the server runs without `--state-dir`.
    pub fn disabled() -> Self {
        Durability {
            enabled: false,
            ..Self::new(DurabilityConfig::default())
        }
    }

    /// Whether the layer persists anything.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The shared counters.
    pub fn counters(&self) -> &Arc<DurabilityCounters> {
        &self.counters
    }

    /// The configuration.
    pub fn config(&self) -> &DurabilityConfig {
        &self.cfg
    }

    /// The filesystem seam (recovery shares it).
    pub(crate) fn fs(&self) -> &Arc<dyn Fs> {
        &self.fs
    }

    /// The slot for `name`, created empty if absent. Holds the registry
    /// lock only for the lookup.
    fn slot(&self, name: &str) -> Arc<Mutex<ModelDur>> {
        Arc::clone(lock(&self.models).entry(name.to_string()).or_default())
    }

    /// The slot for `name`, or `None` when it was never registered.
    fn lookup(&self, name: &str) -> Option<Arc<Mutex<ModelDur>>> {
        lock(&self.models).get(name).cloned()
    }

    /// Every degraded model with its reason, sorted by name.
    pub fn degraded_models(&self) -> Vec<(String, String)> {
        let slots: Vec<(String, Arc<Mutex<ModelDur>>)> = lock(&self.models)
            .iter()
            .map(|(n, s)| (n.clone(), Arc::clone(s)))
            .collect();
        let mut out: Vec<_> = slots
            .into_iter()
            .filter_map(|(n, s)| lock(&s).degraded.clone().map(|reason| (n, reason)))
            .collect();
        out.sort();
        out
    }

    fn model_dir(&self, name: &str) -> PathBuf {
        self.cfg.state_dir.join(name)
    }

    /// Runs `op` with bounded retry + doubling backoff while
    /// `transient(&err)` holds; any other error (`ENOSPC` and friends, a
    /// poisoned WAL) is returned at once.
    fn with_retries<T, E>(
        &self,
        mut op: impl FnMut() -> Result<T, E>,
        transient: impl Fn(&E) -> bool,
    ) -> Result<T, E> {
        let mut backoff = RETRY_BACKOFF;
        let mut attempt = 0u32;
        loop {
            match op() {
                Err(e) if attempt < IO_RETRIES && transient(&e) => {
                    attempt += 1;
                    self.counters.io_retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(backoff);
                    backoff = backoff.saturating_mul(2);
                }
                result => return result,
            }
        }
    }

    /// Degrades an already-locked slot. The first cause wins: a model
    /// that is already degraded keeps its original reason.
    fn degrade_locked(&self, name: &str, entry: &mut ModelDur, reason: String) {
        entry.wal = None;
        if entry.degraded.is_some() {
            return;
        }
        self.counters
            .models_degraded
            .fetch_add(1, Ordering::Relaxed);
        eprintln!("[durability] model {name} degraded read-only: {reason}");
        entry.degraded = Some(reason);
    }

    /// Writes the snapshot pair for `session` at `seq`, then creates the
    /// generation's journal and moves appends to it. Called with the
    /// per-model session lock held (the only writer), so the pair is a
    /// consistent point-in-time image.
    ///
    /// A model the slot has encoded before (the same `Arc`) is written
    /// from that encoding, not encoded again. A model past what a model
    /// file may hold ([`serial::try_write_model`]) fails the snapshot
    /// before anything is written.
    ///
    /// A failure before the pair is durable changes nothing but removing
    /// the attempt's temporaries and a model file left without its state
    /// file (never a file of a complete pair: a heal may rewrite a
    /// generation). After it, the generation counts as written; if its
    /// journal cannot be created, appends stay on the live journal, if
    /// there is one, and the error is returned.
    fn write_snapshot_locked(
        &self,
        entry: &mut ModelDur,
        name: &str,
        session: &StreamSession,
        seq: u64,
    ) -> io::Result<()> {
        let dir = self.model_dir(name);
        let model = session.model();
        let model_bytes = match &mut entry.model_bytes {
            Some((held, bytes)) if held.as_ptr() == Arc::as_ptr(model) => &bytes[..],
            cached => {
                let bytes = serial::try_write_model(model)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                &cached.insert((Arc::downgrade(model), bytes)).1[..]
            }
        };
        let state_bytes = streamfit::write_session_state(session, seq);
        // Model first, session state second: recovery requires the pair,
        // so a crash between the two renames falls back to the previous
        // generation.
        let files = [("kgm", model_bytes), ("kgs", &state_bytes[..])].map(|(ext, bytes)| {
            let target = snapshot_file(&dir, seq, ext);
            (target.with_extension(format!("{ext}.tmp")), target, bytes)
        });
        let written = (|| {
            self.with_retries(|| self.fs.create_dir_all(&dir), is_transient)?;
            for (tmp, target, bytes) in &files {
                self.with_retries(|| self.fs.write(tmp, bytes), is_transient)?;
                self.with_retries(|| self.fs.rename(tmp, target), is_transient)?;
            }
            self.with_retries(|| self.fs.sync_dir(&dir), is_transient)
        })();
        written.inspect_err(|_| {
            let [(model_tmp, model, _), (state_tmp, state, _)] = &files;
            let lone_model = (!self.fs.exists(state)).then_some(model);
            for path in [model_tmp, state_tmp].into_iter().chain(lone_model) {
                let _ = self.fs.remove_file(path);
            }
        })?;
        // The pair is durable and holds every record logged since the
        // previous snapshot.
        let retired = entry.seq.saturating_sub(entry.snapshot_seq);
        entry.seq = seq;
        entry.snapshot_seq = seq;
        entry.refreshes_at_snapshot = session.refreshes();
        self.counters
            .wal_records_truncated
            .fetch_add(retired, Ordering::Relaxed);
        // Balanced with the per-record increments in `log_ingest`.
        self.counters
            .records_since_snapshot
            .fetch_sub(retired, Ordering::Relaxed);
        self.counters
            .snapshots_written
            .fetch_add(1, Ordering::Relaxed);
        let live = entry.journal;
        let started = Wal::create(
            &*self.fs,
            &journal_file(&dir, seq),
            seq,
            self.cfg.wal_sync_every,
        )
        .map(|wal| {
            entry.wal = Some(wal);
            entry.journal = seq;
        });
        self.prune(&dir, live);
        started
    }

    /// Removes the snapshot generations beyond the newest
    /// [`KEEP_SNAPSHOTS`] and the journals below `live`, the one that took
    /// the appends before this snapshot: the records after the older
    /// retained generation are in `live` or a newer journal. Best-effort:
    /// failures only log.
    fn prune(&self, dir: &Path, live: u64) {
        let Ok(entries) = self.fs.read_dir(dir) else {
            return;
        };
        let pairs = snapshot_pairs(&entries);
        let old_pairs = &pairs[..pairs.len().saturating_sub(KEEP_SNAPSHOTS)];
        let old_journals = journals(&entries).into_iter().filter(|&seq| seq < live);
        let doomed = old_pairs
            .iter()
            .flat_map(|&seq| ["kgm", "kgs"].map(|ext| snapshot_file(dir, seq, ext)))
            .chain(old_journals.map(|seq| journal_file(dir, seq)));
        for path in doomed {
            if let Err(e) = self.fs.remove_file(&path) {
                eprintln!("[durability] pruning {}: {e}", path.display());
            }
        }
    }

    /// Registers a freshly fitted (or adopted) model: an initial snapshot
    /// plus an empty journal, at sequence 0 for a first fit and one past
    /// the name's last sequence number for a re-fit. On failure, or when
    /// `name` is not a [`durable_name`], the model serves degraded — reads
    /// work, ingest is refused.
    pub fn persist_initial(&self, name: &str, model: &Arc<KGraphModel>, cfg: &StreamConfig) {
        if !self.enabled {
            return;
        }
        if !durable_name(name) {
            self.degrade(
                name,
                format!("model name {name:?} is not a safe directory name"),
            );
            return;
        }
        // A transient session just for serialization: a fresh session's
        // state is exactly "no series, an empty delta, counters at zero".
        let session = StreamSession::new(Arc::clone(model), cfg.clone());
        let refit = self.lookup(name).is_some();
        let slot = self.slot(name);
        let mut entry = lock(&slot);
        if entry.degraded.take().is_some() {
            // Re-registering (re-fit) clears a previous degradation.
            self.counters
                .models_degraded
                .fetch_sub(1, Ordering::Relaxed);
        }
        // The old fit's journal takes no more records, and the new fit's
        // generations outrank the old one's, so recovery never restores
        // the old model or replays its records into the new one.
        entry.wal = None;
        let seq = if refit {
            entry.seq.saturating_add(1)
        } else {
            0
        };
        if let Err(e) = self.write_snapshot_locked(&mut entry, name, &session, seq) {
            self.counters
                .snapshot_failures
                .fetch_add(1, Ordering::Relaxed);
            self.degrade_locked(name, &mut entry, format!("initial snapshot failed: {e}"));
        }
    }

    /// Installs a recovered model: a healing snapshot of `session` at
    /// `seq` and a fresh journal behind it. On failure the model degrades
    /// read-only.
    pub fn install_recovered(
        &self,
        name: &str,
        session: &StreamSession,
        seq: u64,
    ) -> Result<(), String> {
        if !self.enabled {
            return Ok(());
        }
        let slot = self.slot(name);
        let mut entry = lock(&slot);
        self.write_snapshot_locked(&mut entry, name, session, seq)
            .map_err(|e| {
                self.counters
                    .snapshot_failures
                    .fetch_add(1, Ordering::Relaxed);
                let reason = format!("healing snapshot failed: {e}");
                self.degrade_locked(name, &mut entry, reason.clone());
                reason
            })
    }

    /// Opens `name`'s slot at `seq`, the highest sequence number recovery
    /// found in its state directory, so a later fit numbers its first
    /// generation past every file there.
    pub(crate) fn anchor(&self, name: &str, seq: u64) {
        if self.enabled {
            let slot = self.slot(name);
            let mut entry = lock(&slot);
            entry.seq = seq;
            entry.snapshot_seq = seq;
        }
    }

    /// Marks `name` degraded read-only with `reason`: recovery can serve a
    /// snapshot but not guarantee new writes, or the name is not a
    /// [`durable_name`].
    pub fn degrade(&self, name: &str, reason: String) {
        if self.enabled {
            let slot = self.slot(name);
            let mut entry = lock(&slot);
            self.degrade_locked(name, &mut entry, reason);
        }
    }

    /// Journals one ingest. Must be called with the per-model session
    /// lock held, *before* the corresponding `StreamSession::append`.
    pub fn log_ingest(&self, name: &str, series: u32, points: &[f64]) -> IngestLog {
        if !self.enabled {
            return IngestLog::Logged { seq: 0 };
        }
        let Some(slot) = self.lookup(name) else {
            // Served but never registered (shouldn't happen once adoption
            // runs at startup): refuse retryably rather than diverge.
            return IngestLog::Unavailable {
                reason: format!("model {name} has no durable state directory"),
            };
        };
        let mut guard = lock(&slot);
        let entry = &mut *guard;
        if let Some(reason) = &entry.degraded {
            return IngestLog::Degraded {
                reason: reason.clone(),
            };
        }
        let Some(wal) = entry.wal.as_mut() else {
            return IngestLog::Unavailable {
                reason: format!("model {name} has no open WAL"),
            };
        };
        // A poisoned WAL is never retried: its on-disk tail is unknown.
        let outcome = self.with_retries(
            || wal.append(series, points),
            |e| !e.poisoned && is_transient(&e.io),
        );
        match outcome {
            Ok((seq, synced)) => {
                entry.seq = seq;
                self.counters
                    .wal_records_written
                    .fetch_add(1, Ordering::Relaxed);
                self.counters
                    .wal_syncs
                    .fetch_add(u64::from(synced), Ordering::Relaxed);
                self.counters
                    .records_since_snapshot
                    .fetch_add(1, Ordering::Relaxed);
                IngestLog::Logged { seq }
            }
            Err(e) if e.poisoned => {
                let reason = format!("{e}");
                self.degrade_locked(name, entry, reason.clone());
                IngestLog::Degraded { reason }
            }
            Err(e) => IngestLog::Unavailable {
                reason: format!("{e}"),
            },
        }
    }

    /// Called after a successful append with the session still locked:
    /// snapshots on the refresh cadence.
    pub fn after_append(&self, name: &str, session: &StreamSession, outcome_refreshed: bool) {
        if !self.enabled || !outcome_refreshed {
            return;
        }
        let Some(slot) = self.lookup(name) else {
            return;
        };
        let mut guard = lock(&slot);
        let entry = &mut *guard;
        if entry.degraded.is_some() {
            return;
        }
        let at_snapshot = entry.refreshes_at_snapshot;
        if session.refreshes().saturating_sub(at_snapshot) < self.cfg.snapshot_every {
            return;
        }
        let seq = entry.seq;
        if let Err(e) = self.write_snapshot_locked(entry, name, session, seq) {
            // Not fatal: every acknowledged record is still WAL-covered.
            self.counters
                .snapshot_failures
                .fetch_add(1, Ordering::Relaxed);
            eprintln!("[durability] snapshot of {name} at seq {seq} failed: {e}");
        }
    }

    /// Forgets `name` and deletes its state directory (model deletion).
    /// Reports whether the layer knew the name: a slot or a state
    /// directory existed.
    pub fn remove_model(&self, name: &str) -> bool {
        if !self.enabled {
            return false;
        }
        let removed = lock(&self.models).remove(name);
        let known = removed.is_some();
        if let Some(slot) = removed {
            let m = lock(&slot);
            if m.degraded.is_some() {
                self.counters
                    .models_degraded
                    .fetch_sub(1, Ordering::Relaxed);
            }
            // The records a snapshot would have retired go with the model.
            self.counters
                .records_since_snapshot
                .fetch_sub(m.seq.saturating_sub(m.snapshot_seq), Ordering::Relaxed);
        }
        let dir = self.model_dir(name);
        if !durable_name(name) || !self.fs.exists(&dir) {
            return known;
        }
        if let Err(e) = self.fs.remove_dir_all(&dir) {
            eprintln!("[durability] removing {}: {e}", dir.display());
        }
        true
    }
}

/// `dir/snap-<seq:016>.<ext>`: one file of the snapshot pair at `seq`.
pub(crate) fn snapshot_file(dir: &Path, seq: u64, ext: &str) -> PathBuf {
    dir.join(format!("snap-{seq:016}.{ext}"))
}

/// `dir/wal-<seq:016>.log`: the journal of the records after `seq`.
pub(crate) fn journal_file(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:016}.log"))
}

/// The sequence numbers, ascending, of the complete snapshot pairs among
/// `entries`: both files present under their [`snapshot_file`] names.
pub(crate) fn snapshot_pairs(entries: &[PathBuf]) -> Vec<u64> {
    let models = named_seqs(entries, "snap-", ".kgm");
    named_seqs(entries, "snap-", ".kgs")
        .into_iter()
        .filter(|seq| models.binary_search(seq).is_ok())
        .collect()
}

/// The sequence numbers, ascending, of the journals among `entries`.
pub(crate) fn journals(entries: &[PathBuf]) -> Vec<u64> {
    named_seqs(entries, "wal-", ".log")
}

/// The sequence numbers, ascending, of the entries named
/// `<prefix><seq:016><suffix>`.
fn named_seqs(entries: &[PathBuf], prefix: &str, suffix: &str) -> Vec<u64> {
    let mut seqs: Vec<u64> = entries
        .iter()
        .filter_map(|path| {
            let name = path.file_name()?.to_str()?;
            let seq = name
                .strip_prefix(prefix)?
                .strip_suffix(suffix)?
                .parse()
                .ok()?;
            (name == format!("{prefix}{seq:016}{suffix}")).then_some(seq)
        })
        .collect();
    seqs.sort_unstable();
    seqs
}

/// Whether an I/O error is worth a bounded retry.
fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsio::WalFile;
    use kgraph::{KGraph, KGraphConfig};
    use tscore::{Dataset, DatasetKind, TimeSeries};

    /// The real filesystem, except that every `.kgs.tmp` write after the
    /// first writes half its bytes and fails with `ENOSPC`.
    struct FullAfterFirstState(AtomicU64);

    impl Fs for FullAfterFirstState {
        fn create_dir_all(&self, path: &Path) -> io::Result<()> {
            StdFs.create_dir_all(path)
        }

        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            StdFs.read(path)
        }

        fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            let state = path.to_string_lossy().ends_with(".kgs.tmp");
            if state && self.0.fetch_add(1, Ordering::Relaxed) > 0 {
                StdFs.write(path, &bytes[..bytes.len() / 2])?;
                return Err(io::Error::from_raw_os_error(28));
            }
            StdFs.write(path, bytes)
        }

        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            StdFs.rename(from, to)
        }

        fn remove_file(&self, path: &Path) -> io::Result<()> {
            StdFs.remove_file(path)
        }

        fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
            StdFs.remove_dir_all(path)
        }

        fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
            StdFs.read_dir(path)
        }

        fn sync_dir(&self, path: &Path) -> io::Result<()> {
            StdFs.sync_dir(path)
        }

        fn exists(&self, path: &Path) -> bool {
            StdFs.exists(path)
        }

        fn open_wal(&self, path: &Path) -> io::Result<Box<dyn WalFile>> {
            StdFs.open_wal(path)
        }
    }

    fn tiny_model() -> Arc<KGraphModel> {
        let series: Vec<TimeSeries> = (0..6)
            .map(|p| TimeSeries::new((0..60).map(|i| ((i + p) as f64 * 0.3).sin()).collect()))
            .collect();
        let ds = Dataset::new("tiny", DatasetKind::Simulated, series);
        let cfg = KGraphConfig {
            n_lengths: 1,
            psi: 8,
            pca_sample: 200,
            n_init: 1,
            ..KGraphConfig::new(2)
        }
        .with_lengths(vec![12]);
        Arc::new(KGraph::new(cfg).fit(&ds))
    }

    #[test]
    fn failed_snapshot_attempts_leave_only_complete_pairs_and_journals() {
        let dir = std::env::temp_dir().join(format!(
            "graphserve-durability-{}-snapshot-leak",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = DurabilityConfig {
            state_dir: dir.clone(),
            snapshot_every: 0,
            ..DurabilityConfig::default()
        };
        let stream = StreamConfig {
            refresh_every: 0,
            compact_every: 0,
        };
        let fs = Arc::new(FullAfterFirstState(AtomicU64::new(0)));
        let durability = Durability::with_fs(cfg.clone(), fs);
        let model = tiny_model();
        durability.persist_initial("m", &model, &stream);
        let mut session = StreamSession::new(model, stream.clone());
        for i in 0..6 {
            let points: Vec<f64> = (0..20).map(|j| ((i * 20 + j) as f64 * 0.3).sin()).collect();
            assert!(matches!(
                durability.log_ingest("m", 0, &points),
                IngestLog::Logged { .. }
            ));
            let out = session.append(0, &points).unwrap();
            assert!(out.refreshed);
            durability.after_append("m", &session, out.refreshed);
        }
        let failures = &durability.counters().snapshot_failures;
        assert_eq!(failures.load(Ordering::Relaxed), 6);

        let mut left: Vec<String> = std::fs::read_dir(dir.join("m"))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        left.sort();
        let zero = "0".repeat(16);
        let want = ["kgm", "kgs"].map(|ext| format!("snap-{zero}.{ext}"));
        assert_eq!(left, [&want[..], &[format!("wal-{zero}.log")]].concat());

        let store = crate::ModelStore::new(0);
        let sessions = streamfit::SessionRegistry::new(stream);
        let report = crate::recover(&Durability::new(cfg), &store, &sessions);
        assert_eq!(report.recovered, ["m"]);
        let recovered = sessions.get("m").unwrap().lock().unwrap().points_total();
        assert_eq!(recovered, 120, "every acknowledged point");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
