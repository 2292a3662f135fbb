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
//!     snap-<seq:016>.kgm   KGM2 model at sequence <seq>
//!     snap-<seq:016>.kgs   KGS1 session state at sequence <seq>
//!     wal.log              KGW1 journal, base_seq == newest snapshot seq
//! ```
//!
//! A snapshot is the *pair* of files for one zero-padded sequence number
//! (`snapshot_file` names them, `snapshot_pairs` lists the complete
//! pairs); each file lands via `tmp → fsync → rename → dir fsync`, model
//! first, then session state. Recovery treats a lone `.kgm` or `.kgs` as no
//! snapshot, so a crash between the two renames simply falls back to the
//! previous generation — whose WAL coverage is intact, because the WAL is
//! only rewritten (fresh, with the new `base_seq`) *after* both files are
//! in place. The two newest generations are retained.
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
//! blocks another model's ingest. (Per-model mutual exclusion is in fact
//! already guaranteed by the session lock the routes hold across
//! `log_ingest`/`after_append`; the slot mutex makes the layer safe on
//! its own.) A slot lock is never held while taking the registry lock.

use crate::fsio::{Fs, StdFs};
use crate::wal::Wal;
use kgraph::pipeline::KGraphModel;
use kgraph::serial;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
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
    /// Take a snapshot every N session refreshes (compactions always
    /// snapshot). 0 snapshots on every refresh.
    pub snapshot_every: u64,
    /// Backoff before the first retry of a transient I/O error (doubled
    /// per attempt).
    pub retry_backoff: Duration,
}

/// Retries of a transient I/O error before it is surfaced.
const IO_RETRIES: u32 = 2;

/// Snapshot generations retained per model.
const KEEP_SNAPSHOTS: usize = 2;

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            state_dir: PathBuf::from("state"),
            wal_sync_every: 1,
            snapshot_every: 4,
            retry_backoff: Duration::from_millis(20),
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
    /// plus records retired by snapshot-time log rewrites.
    pub wal_records_truncated: AtomicU64,
    /// WAL fsync calls issued.
    pub wal_syncs: AtomicU64,
    /// Snapshot pairs written successfully.
    pub snapshots_written: AtomicU64,
    /// Snapshot attempts that failed (data stays WAL-covered).
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
    /// Session refresh count at the last snapshot (cadence anchor).
    refreshes_at_snapshot: u64,
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

    fn wal_path(&self, name: &str) -> PathBuf {
        self.model_dir(name).join("wal.log")
    }

    /// Runs `op` with bounded retry + doubling backoff while
    /// `transient(&err)` holds; any other error (`ENOSPC` and friends, a
    /// poisoned WAL) is returned at once.
    fn with_retries<T, E>(
        &self,
        mut op: impl FnMut() -> Result<T, E>,
        transient: impl Fn(&E) -> bool,
    ) -> Result<T, E> {
        let mut backoff = self.cfg.retry_backoff;
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

    /// Writes the snapshot pair for `session` at `seq` and installs a
    /// fresh WAL. Called with the per-model session lock held (the only
    /// writer), so the pair is a consistent point-in-time image.
    fn write_snapshot_locked(
        &self,
        entry: &mut ModelDur,
        name: &str,
        session: &StreamSession,
        seq: u64,
        refreshes: u64,
    ) -> io::Result<()> {
        let dir = self.model_dir(name);
        self.with_retries(|| self.fs.create_dir_all(&dir), is_transient)?;
        // Model first, session state second: recovery requires the pair,
        // so a crash between the two renames falls back to the previous
        // generation.
        let model_bytes = serial::write_model(session.model());
        let state_bytes = streamfit::write_session_state(session, seq);
        for (ext, bytes) in [("kgm", &model_bytes), ("kgs", &state_bytes)] {
            let target = snapshot_file(&dir, seq, ext);
            let tmp = target.with_extension(format!("{ext}.tmp"));
            self.with_retries(|| self.fs.write(&tmp, bytes), is_transient)?;
            self.with_retries(|| self.fs.rename(&tmp, &target), is_transient)?;
        }
        self.with_retries(|| self.fs.sync_dir(&dir), is_transient)?;
        // The pair is durable: rotate the journal. Records actually logged
        // since the previous snapshot — not a seq difference, which goes
        // to zero when a re-fit resets the sequence — drive the counters.
        let retired = entry.seq.saturating_sub(entry.snapshot_seq);
        // Drop the old handle before the replacement log is created:
        // renaming over an open file fails on Windows, and a dropped
        // handle cannot keep appending to an unlinked inode if the
        // rotation stalls midway.
        entry.wal = None;
        let wal_path = self.wal_path(name);
        match Wal::create(&*self.fs, &wal_path, seq, self.cfg.wal_sync_every) {
            Ok(wal) => entry.wal = Some(wal),
            Err(e) if !e.renamed => {
                // The live wal.log is still the previous journal: reopen
                // it so acknowledged records stay covered and later
                // appends keep landing where recovery will read them
                // (replay skips records the new snapshot already holds).
                match Wal::reopen(&*self.fs, &wal_path, entry.seq + 1, self.cfg.wal_sync_every) {
                    Ok(wal) => entry.wal = Some(wal),
                    Err(re) => self.degrade_locked(
                        name,
                        entry,
                        format!(
                            "WAL rotation failed ({}) and the previous journal could not be \
                             reopened: {re}",
                            e.io
                        ),
                    ),
                }
                return Err(e.io);
            }
            Err(e) => {
                // The fresh (empty) journal already replaced the old one
                // on disk, but no usable handle survived: any further
                // acknowledged append would be silently non-durable.
                // Refuse writes instead.
                self.degrade_locked(
                    name,
                    entry,
                    format!("WAL rotation failed after replacing the journal: {}", e.io),
                );
                return Err(e.io);
            }
        }
        entry.seq = seq;
        entry.snapshot_seq = seq;
        entry.refreshes_at_snapshot = refreshes;
        self.counters
            .wal_records_truncated
            .fetch_add(retired, Ordering::Relaxed);
        // Balanced with the per-record increments in `log_ingest`:
        // `retired` counts exactly the records logged since the previous
        // snapshot of this model.
        self.counters
            .records_since_snapshot
            .fetch_sub(retired, Ordering::Relaxed);
        self.counters
            .snapshots_written
            .fetch_add(1, Ordering::Relaxed);
        self.prune_snapshots(name, seq);
        Ok(())
    }

    /// Removes snapshot generations beyond the retention count (never the
    /// one at `keep_seq`). Best-effort: pruning failures only log.
    fn prune_snapshots(&self, name: &str, keep_seq: u64) {
        let dir = self.model_dir(name);
        let Ok(entries) = self.fs.read_dir(&dir) else {
            return;
        };
        let seqs = snapshot_pairs(&entries);
        if seqs.len() <= KEEP_SNAPSHOTS {
            return;
        }
        let cut = seqs.len() - KEEP_SNAPSHOTS;
        for &seq in &seqs[..cut] {
            if seq == keep_seq {
                continue;
            }
            for ext in ["kgm", "kgs"] {
                let path = snapshot_file(&dir, seq, ext);
                if let Err(e) = self.fs.remove_file(&path) {
                    eprintln!("[durability] pruning {}: {e}", path.display());
                }
            }
        }
    }

    /// Registers a freshly fitted (or adopted) model: initial snapshot at
    /// sequence 0 plus an empty WAL. On failure, or when `name` is not a
    /// [`durable_name`], the model serves degraded — reads work, ingest is
    /// refused.
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
        // state is exactly "no series, no deltas, counters at zero".
        let session = StreamSession::new(Arc::clone(model), cfg.clone());
        let slot = self.slot(name);
        let mut entry = lock(&slot);
        if entry.degraded.take().is_some() {
            // Re-registering (re-fit) clears a previous degradation.
            self.counters
                .models_degraded
                .fetch_sub(1, Ordering::Relaxed);
        }
        if let Err(e) = self.write_snapshot_locked(&mut entry, name, &session, 0, 0) {
            self.counters
                .snapshot_failures
                .fetch_add(1, Ordering::Relaxed);
            self.degrade_locked(name, &mut entry, format!("initial snapshot failed: {e}"));
        }
    }

    /// Installs a recovered model: its WAL restarts at `seq` behind a
    /// fresh healing snapshot of `session`. On failure the model degrades
    /// read-only (the old state files are left untouched for the
    /// operator).
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
        // A fresh slot starts zeroed; anchor it at the recovered sequence
        // so the retirement arithmetic sees "nothing pending".
        if entry.wal.is_none() && entry.degraded.is_none() {
            entry.seq = seq;
            entry.snapshot_seq = seq;
            entry.refreshes_at_snapshot = session.refreshes();
        }
        match self.write_snapshot_locked(&mut entry, name, session, seq, session.refreshes()) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.counters
                    .snapshot_failures
                    .fetch_add(1, Ordering::Relaxed);
                let reason = format!("healing snapshot failed: {e}");
                self.degrade_locked(name, &mut entry, reason.clone());
                Err(reason)
            }
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
        // Only this model's slot is held across the append, its fsync and
        // any retry backoff — a stalled disk on one model never blocks
        // another model's ingest.
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
    /// snapshots on the refresh cadence (or on compaction).
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
        let due = session
            .refreshes()
            .saturating_sub(entry.refreshes_at_snapshot)
            >= self.cfg.snapshot_every.max(1)
            || self.cfg.snapshot_every == 0;
        if !due {
            return;
        }
        let seq = entry.seq;
        let refreshes = session.refreshes();
        if let Err(e) = self.write_snapshot_locked(entry, name, session, seq, refreshes) {
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

/// The sequence numbers, ascending, of the complete snapshot pairs among
/// `entries`: both files present under their [`snapshot_file`] names.
pub(crate) fn snapshot_pairs(entries: &[PathBuf]) -> Vec<u64> {
    let mut seqs: Vec<u64> = entries
        .iter()
        .filter_map(|path| {
            let name = path.file_name()?.to_str()?;
            let seq = name
                .strip_prefix("snap-")?
                .strip_suffix(".kgs")?
                .parse()
                .ok()?;
            let dir = path.parent()?;
            let canonical = snapshot_file(dir, seq, "kgs") == *path;
            (canonical && entries.contains(&snapshot_file(dir, seq, "kgm"))).then_some(seq)
        })
        .collect();
    seqs.sort_unstable();
    seqs
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether an I/O error is worth a bounded retry.
fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}
