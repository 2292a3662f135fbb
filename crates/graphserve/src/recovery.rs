//! Startup recovery: rebuilds the served state from the durability
//! directory.
//!
//! For every model directory under the state root, recovery
//!
//! 1. scans for the **newest valid snapshot pair** — a `snap-<seq>.kgm`
//!    model whose checksum verifies plus the matching `snap-<seq>.kgs`
//!    session state that restores over it; corrupt or half-renamed pairs
//!    fall back to the previous generation;
//! 2. **replays the WAL tail**: records with sequence numbers above the
//!    snapshot's are re-applied through the restored [`StreamSession`] in
//!    log order. A torn or corrupt tail stops the replay cleanly at the
//!    last valid record — normal crash semantics, not an error;
//! 3. **heals**: takes a fresh snapshot of the recovered state and starts
//!    an empty WAL, so torn tails and stale generations are retired;
//! 4. **degrades instead of dying** when the state is contradictory (the
//!    WAL demonstrably starts *after* the newest readable snapshot, or is
//!    not a WAL at all), when a record that passed its checksum is refused
//!    by the model, or when the heal cannot be made durable: the state
//!    replayed so far is served read-only and the condition is surfaced
//!    through `/healthz`, `/metrics` and the log. A degraded model is not
//!    healed, so its snapshot and WAL files stay exactly as they were for
//!    a later binary to replay.
//!
//! Models present in the store (e.g. loaded from `--models-dir`) but
//! absent from the state directory are *adopted* through
//! [`Durability::persist_initial`], so every served model has a
//! durability slot. A model with a safe name gets an initial snapshot and
//! an empty WAL, so its future ingests are durable too. A model whose
//! name is not a safe directory name gets a degraded slot and never
//! touches disk: it serves reads, its ingest answers `503`, and
//! `/healthz` names it.
//!
//! Recovery runs to completion before the server binds its socket, so no
//! request ever sees a half-recovered state.

use crate::durability::{durable_name, snapshot_file, snapshot_pairs, Durability};
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

    // Newest-first candidate sequence numbers with both files present.
    let mut seqs = snapshot_pairs(&entries);
    seqs.reverse();
    if seqs.is_empty() {
        report.failed.push((
            name.to_string(),
            "no complete snapshot pair in state directory".to_string(),
        ));
        return;
    }

    // Try candidates newest-first until one decodes *and* restores.
    let mut chosen = None;
    let mut skipped = Vec::new();
    for seq in seqs {
        match load_snapshot(durability, dir, seq, sessions) {
            Ok(session) => {
                chosen = Some((seq, session));
                break;
            }
            Err(e) => {
                eprintln!("[recovery] {name}: snapshot {seq} unusable: {e}");
                skipped.push(seq);
            }
        }
    }
    let Some((snap_seq, mut session)) = chosen else {
        report.failed.push((
            name.to_string(),
            "every snapshot generation is corrupt".to_string(),
        ));
        return;
    };
    let fell_back = !skipped.is_empty();

    // Replay the WAL tail.
    let wal_path = dir.join("wal.log");
    let mut applied = 0u64;
    let mut degraded_reason: Option<String> = None;
    if fs.exists(&wal_path) {
        let replay = fs
            .read(&wal_path)
            .map_err(|e| e.to_string())
            .and_then(|bytes| wal::replay(&bytes).map_err(|e| e.to_string()));
        match replay {
            Err(e) => degraded_reason = Some(format!("WAL unreadable: {e}")),
            Ok(rep) if rep.base_seq > snap_seq => {
                // The WAL belongs to a newer snapshot we could not read:
                // records between snap_seq and base_seq are lost to
                // corruption. Serve what we have, read-only.
                degraded_reason = Some(format!(
                    "WAL starts at sequence {} but newest readable snapshot is {}; \
                     refusing writes to avoid silent divergence",
                    rep.base_seq, snap_seq
                ));
            }
            Ok(rep) => {
                if rep.torn {
                    counters
                        .wal_records_truncated
                        .fetch_add(1, Ordering::Relaxed);
                }
                // Records at or below snap_seq are already in the snapshot.
                for record in rep.records.iter().filter(|r| r.seq > snap_seq) {
                    if let Err(e) = session.append(record.series, &record.points) {
                        // The record passed its CRC and was acknowledged:
                        // healing over it would drop it and every record
                        // after it.
                        degraded_reason = Some(format!(
                            "WAL record {} could not be replayed: {e}; \
                             refusing writes and keeping the journal",
                            record.seq
                        ));
                        break;
                    }
                    applied += 1;
                }
            }
        }
    } else if fell_back {
        // Older snapshot, no WAL to bridge the gap: newer acknowledged
        // state existed but cannot be reconstructed.
        degraded_reason = Some(
            "newest snapshot is corrupt and no WAL bridges the gap to the previous one".to_string(),
        );
    }
    counters
        .wal_records_replayed
        .fetch_add(applied, Ordering::Relaxed);
    report.replayed_records += applied;

    // Publish: the store entry and the session must share one Arc so the
    // registry keeps the recovered session alive.
    let model = Arc::clone(session.model());
    let degraded = match degraded_reason {
        Some(reason) => {
            durability.degrade(name, reason.clone());
            Some(reason)
        }
        // Heal: fresh snapshot + empty WAL at the recovered sequence. If
        // that cannot be made durable the model serves read-only.
        None => durability
            .install_recovered(name, &session, snap_seq + applied)
            .err(),
    };
    publish(store, sessions, name, model);
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
