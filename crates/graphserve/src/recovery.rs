//! Startup recovery: rebuilds the served state from the durability
//! directory.
//!
//! For every model directory under the state root, recovery
//!
//! 1. reads **every journal** (`wal-<seq>.log`); a torn or corrupt tail
//!    stops a journal cleanly at its last valid record — normal crash
//!    semantics, not an error;
//! 2. restores the **newest valid snapshot pair** — a `snap-<seq>.kgm`
//!    whose checksum verifies plus the `snap-<seq>.kgs` that restores over
//!    it — falling back past corrupt or half-renamed pairs. A model file
//!    two format generations old (`KGM2` and before) is refused by name;
//!    when no pair restores, the newest pair's error is the reason the
//!    model failed;
//! 3. **replays** the records past the snapshot in sequence order, up to
//!    the first gap. They must reach the highest sequence number in the
//!    directory — every skipped generation, journal and record — so a
//!    fallback across a re-fit, whose first generation is numbered past
//!    the old fit's last record, never passes;
//! 4. **heals**: a fresh snapshot of the recovered state and its journal
//!    retire torn tails and stale generations;
//! 5. **degrades instead of dying** when the records fall short (the
//!    reason names the gap), a journal is not a journal at all, a record
//!    that passed its checksum is refused by the model, or the heal cannot
//!    be made durable: the state replayed so far is served read-only and
//!    the condition is surfaced through `/healthz`, `/metrics` and the
//!    log. A degraded model is not healed, so its files stay exactly as
//!    they were for a later binary to replay.
//!
//! Whatever the outcome, the model's durability slot is anchored at the
//! highest sequence number found, so a later `PUT` numbers its first
//! generation past every file in the directory.
//!
//! Models present in the store (e.g. loaded from `--models-dir`) but
//! absent from the state directory are *adopted* through
//! [`Durability::persist_initial`], so every served model has a
//! durability slot. A model with a safe name gets an initial snapshot and
//! an empty journal, so its future ingests are durable too. A model whose
//! name is not a safe directory name gets a degraded slot and never
//! touches disk: it serves reads, its ingest answers `503`, and
//! `/healthz` names it.
//!
//! Recovery runs to completion before the server binds its socket, so no
//! request ever sees a half-recovered state.

use crate::durability::{
    durable_name, journal_file, journals, snapshot_file, snapshot_pairs, Durability,
};
use crate::routes::publish;
use crate::store::ModelStore;
use crate::wal;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use streamfit::{SessionRegistry, StreamSession};

/// What startup recovery did, for logs and tests.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Models fully recovered (snapshot + WAL tail) and writable.
    pub recovered: Vec<String>,
    /// Models from the store that had no state directory and were given
    /// a durability slot (degraded for a name unsafe as a directory).
    pub adopted: Vec<String>,
    /// Models served read-only from their last good snapshot, with the
    /// reason.
    pub degraded: Vec<(String, String)>,
    /// Model directories nothing could be recovered from, with the
    /// reason. These are left on disk for the operator and not served.
    pub failed: Vec<(String, String)>,
    /// WAL records re-applied across all models.
    pub replayed_records: u64,
}

/// Restores every model under the durability state directory into `store`
/// and `sessions`, then adopts store models that have no durable state.
/// Never panics and never aborts the startup: each model independently
/// recovers, degrades or is skipped.
pub fn recover(
    durability: &Durability,
    store: &ModelStore,
    sessions: &SessionRegistry,
) -> RecoveryReport {
    let mut report = RecoveryReport::default();
    if !durability.enabled() {
        return report;
    }
    let started = std::time::Instant::now();
    let fs = Arc::clone(durability.fs());
    let root = durability.config().state_dir.clone();
    if let Err(e) = fs.create_dir_all(&root) {
        eprintln!("[recovery] cannot create state dir {}: {e}", root.display());
        return report;
    }
    let dirs = match fs.read_dir(&root) {
        Ok(dirs) => dirs,
        Err(e) => {
            eprintln!("[recovery] cannot list state dir {}: {e}", root.display());
            return report;
        }
    };
    for dir in dirs {
        if !dir.is_dir() {
            continue;
        }
        let Some(name) = dir.file_name().and_then(|n| n.to_str()).map(str::to_string) else {
            continue;
        };
        if !durable_name(&name) {
            eprintln!("[recovery] skipping unsafe state dir name {name:?}");
            continue;
        }
        recover_model(durability, store, sessions, &name, &dir, &mut report);
    }

    // Adopt store models (e.g. from --models-dir) that have no durable
    // state yet, so their future ingests are journaled too — or, for an
    // unsafe name, refused by a degraded slot.
    let mut reader = store.reader();
    for (name, ..) in store.list() {
        if durable_name(&name) && fs.exists(&root.join(&name)) {
            continue;
        }
        if let Some(model) = reader.get(&name) {
            durability.persist_initial(&name, &model, sessions.config());
            report.adopted.push(name);
        }
    }

    let counters = durability.counters();
    counters
        .recovery_duration_ms
        .store(started.elapsed().as_millis() as u64, Ordering::Relaxed);
    counters
        .models_recovered
        .store(report.recovered.len() as u64, Ordering::Relaxed);
    if !report.recovered.is_empty() || !report.degraded.is_empty() || !report.failed.is_empty() {
        eprintln!(
            "[recovery] {} recovered, {} adopted, {} degraded, {} failed, {} records replayed \
             in {} ms",
            report.recovered.len(),
            report.adopted.len(),
            report.degraded.len(),
            report.failed.len(),
            report.replayed_records,
            started.elapsed().as_millis()
        );
    }
    report
}

fn recover_model(
    durability: &Durability,
    store: &ModelStore,
    sessions: &SessionRegistry,
    name: &str,
    dir: &Path,
    report: &mut RecoveryReport,
) {
    let fs = durability.fs();
    let counters = durability.counters();
    let entries = match fs.read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            report
                .failed
                .push((name.to_string(), format!("listing {}: {e}", dir.display())));
            return;
        }
    };

    // Every journal's valid records, and the highest sequence number the
    // directory holds.
    let mut records = Vec::new();
    let mut unreadable = None;
    let mut last = 0;
    for named in journals(&entries) {
        let path = journal_file(dir, named);
        let replay = fs
            .read(&path)
            .map_err(|e| e.to_string())
            .and_then(|bytes| wal::replay(&bytes).map_err(|e| e.to_string()));
        match replay {
            Ok(rep) => {
                if rep.torn {
                    counters
                        .wal_records_truncated
                        .fetch_add(1, Ordering::Relaxed);
                }
                let newest = rep.records.last().map_or(0, |r| r.seq);
                last = last.max(named).max(rep.base_seq).max(newest);
                records.extend(rep.records);
            }
            Err(e) => {
                unreadable.get_or_insert(format!("WAL {} unreadable: {e}", path.display()));
            }
        }
    }
    let seqs = snapshot_pairs(&entries);
    last = last.max(seqs.last().copied().unwrap_or(0));
    durability.anchor(name, last);

    // Try candidates newest-first until one decodes *and* restores; when
    // none does, the newest one's error is the reason.
    let mut newest_error = None;
    let chosen = seqs.iter().rev().find_map(|&seq| {
        load_snapshot(durability, dir, seq, sessions)
            .map_err(|e| {
                eprintln!("[recovery] {name}: snapshot {seq} unusable: {e}");
                newest_error.get_or_insert(format!("newest snapshot {seq} unusable: {e}"));
            })
            .ok()
            .map(|session| (seq, session))
    });
    let Some((snap_seq, mut session)) = chosen else {
        let reason = newest_error
            .unwrap_or_else(|| "no complete snapshot pair in state directory".to_string());
        report.failed.push((name.to_string(), reason));
        return;
    };

    // Replay the records past the snapshot in sequence order, up to the
    // first gap; they must reach the highest sequence number on disk.
    records.sort_by_key(|r| r.seq);
    let mut end = snap_seq;
    let mut degraded_reason = unreadable;
    if degraded_reason.is_none() {
        for record in &records {
            if record.seq <= end {
                continue; // in the snapshot, or a duplicate
            }
            if record.seq > end + 1 {
                break;
            }
            if let Err(e) = session.append(record.series, &record.points) {
                // The record passed its CRC and was acknowledged: healing over
                // it would drop it and every record after it.
                degraded_reason = Some(format!(
                    "WAL record {} could not be replayed: {e}; \
                     refusing writes and keeping the journal",
                    record.seq
                ));
                break;
            }
            end = record.seq;
        }
    }
    if degraded_reason.is_none() && end < last {
        degraded_reason = Some(format!(
            "the journals run from snapshot {snap_seq} only to sequence {end}, \
             but the state directory reaches sequence {last}; \
             refusing writes to avoid silent divergence"
        ));
    }
    let applied = end - snap_seq;
    counters
        .wal_records_replayed
        .fetch_add(applied, Ordering::Relaxed);
    report.replayed_records += applied;

    // Publish: the store entry and the session share one Arc, the model
    // an ingest checks the name still serves.
    let model = Arc::clone(session.model());
    let degraded = match degraded_reason {
        Some(reason) => {
            durability.degrade(name, reason.clone());
            Some(reason)
        }
        // Heal: fresh snapshot + empty journal at the recovered sequence.
        // If that cannot be made durable the model serves read-only.
        None => durability.install_recovered(name, &session, end).err(),
    };
    publish(store, sessions, name, model, None);
    sessions.install(name, session);
    match degraded {
        Some(reason) => report.degraded.push((name.to_string(), reason)),
        None => report.recovered.push(name.to_string()),
    }
}

/// Loads and restores one snapshot generation; any corruption or shape
/// mismatch is an `Err` so the caller can fall back to an older pair.
fn load_snapshot(
    durability: &Durability,
    dir: &Path,
    seq: u64,
    sessions: &SessionRegistry,
) -> Result<StreamSession, String> {
    let fs = durability.fs();
    let kgm = snapshot_file(dir, seq, "kgm");
    let kgs = snapshot_file(dir, seq, "kgs");
    let model_bytes = fs.read(&kgm).map_err(|e| format!("reading model: {e}"))?;
    let state_bytes = fs.read(&kgs).map_err(|e| format!("reading session: {e}"))?;
    let model = kgraph::serial::read_model(&model_bytes).map_err(|e| format!("model: {e}"))?;
    let state = streamfit::read_session_state(&state_bytes).map_err(|e| format!("session: {e}"))?;
    if state.seq != seq {
        return Err(format!(
            "session state claims sequence {} but file is {}",
            state.seq,
            kgs.display()
        ));
    }
    StreamSession::restore(Arc::new(model), sessions.config().clone(), state)
        .map_err(|e| format!("restore: {e}"))
}
