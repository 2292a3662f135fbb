//! Fault-injection tests for the durability layer: every fault a real
//! disk produces — torn writes, lying short writes, failing fsyncs,
//! `ENOSPC`, bit rot — must end in a *served* state: a retryable `503`, a
//! degraded read-only model, or a clean recovery of the surviving prefix.
//! Never a panic, never a silent divergence between the log and the
//! session.
//!
//! The tests drive the real route handlers through [`routes::handle`]
//! (the workers' `routes::dispatch` with the debug routes off, as on a
//! default server) with a [`Durability`] built over [`FailFs`], so the
//! code path is byte-for-byte the production one; only the filesystem
//! lies.

#[path = "../../kgraph/tests/support/kgm3.rs"]
mod kgm3;

use graphserve::durability::{Durability, DurabilityConfig};
use graphserve::fsio::{Fs, StdFs, WalFile};
use graphserve::http::{Request, Response};
use graphserve::recovery::recover;
use graphserve::routes::{self, RouteContext};
use graphserve::wal;
use graphserve::{ModelStore, ServerStats};
use kgraph::pipeline::KGraphModel;
use kgraph::serial::{put_f64s, put_triples, put_u64, read_model, seal};
use kgraph::{KGraph, KGraphConfig};
use proptest::prelude::*;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use streamfit::{read_session_state, SessionRegistry, SessionState, StreamConfig};
use tscore::{Dataset, DatasetKind, TimeSeries};

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// A scratch directory removed on drop. The name carries a process-wide
/// sequence number, so parallel tests using the same tag never share (and
/// never delete) each other's directory.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "graphserve-faults-{}-{seq}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn demo_model() -> Arc<KGraphModel> {
    let series: Vec<TimeSeries> = (0..8)
        .map(|p| TimeSeries::new((0..80).map(|i| ((i + p) as f64 * 0.3).sin()).collect()))
        .collect();
    let ds = Dataset::new("demo", DatasetKind::Simulated, series);
    let cfg = KGraphConfig {
        n_lengths: 1,
        psi: 10,
        pca_sample: 300,
        n_init: 2,
        ..KGraphConfig::new(2)
    }
    .with_lengths(vec![16]);
    Arc::new(KGraph::new(cfg).fit(&ds))
}

fn stream_config() -> StreamConfig {
    // Refresh on every ingest so snapshot cadences are easy to trigger.
    StreamConfig {
        refresh_every: 0,
        compact_every: 2,
    }
}

fn durability_config(dir: &Path, snapshot_every: u64) -> DurabilityConfig {
    DurabilityConfig {
        state_dir: dir.to_path_buf(),
        wal_sync_every: 1,
        snapshot_every,
    }
}

/// The server's request-handling state, minus the sockets: the tests call
/// `routes::handle`, which is the workers' `routes::dispatch` with the
/// debug routes off.
struct Harness {
    store: ModelStore,
    sessions: SessionRegistry,
    stats: ServerStats,
    durability: Durability,
}

impl Harness {
    /// Builds a store with one model `demo` registered with `durability`.
    fn new(durability: Durability) -> Harness {
        let store = ModelStore::new(0);
        let model = demo_model();
        store.insert("demo", Arc::clone(&model));
        let sessions = SessionRegistry::new(stream_config());
        durability.persist_initial("demo", &model, sessions.config());
        Harness {
            store,
            sessions,
            stats: ServerStats::default(),
            durability,
        }
    }

    /// Like [`Harness::new`] but without registering the model — the
    /// recovery tests populate the store themselves.
    fn empty(durability: Durability) -> Harness {
        Harness {
            store: ModelStore::new(0),
            sessions: SessionRegistry::new(stream_config()),
            stats: ServerStats::default(),
            durability,
        }
    }

    fn handle(&self, method: &str, target: &str, body: &str) -> Response {
        let raw = format!(
            "{method} {target} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        let req = Request::read_from(&mut std::io::Cursor::new(raw.into_bytes()), 1 << 20)
            .expect("well-formed test request");
        let mut reader = self.store.reader();
        routes::handle(
            &req,
            &mut reader,
            &RouteContext {
                store: &self.store,
                sessions: &self.sessions,
                stats: &self.stats,
                durability: &self.durability,
            },
        )
    }
}

fn body_text(resp: &Response) -> &str {
    std::str::from_utf8(&resp.body).unwrap()
}

fn has_retry_after(resp: &Response) -> bool {
    resp.headers
        .iter()
        .any(|(name, _)| name.eq_ignore_ascii_case("retry-after"))
}

/// One 8-point ingest record, deterministic in `i`.
fn ingest_body(i: usize) -> String {
    let points: Vec<String> = (0..8)
        .map(|j| (((i * 8 + j) as f64) * 0.3).sin().to_string())
        .collect();
    format!("{{\"series\":0,\"points\":[{}]}}", points.join(","))
}

fn probe_series() -> String {
    let values: Vec<String> = (0..80)
        .map(|i| ((i as f64) * 0.3).sin().to_string())
        .collect();
    format!("[{}]", values.join(","))
}

// ---------------------------------------------------------------------------
// FailFs — fault injection
// ---------------------------------------------------------------------------

/// Which faults [`FailFs`] injects. All byte thresholds count *cumulative
/// bytes written through the wrapper* (WAL appends and snapshot writes
/// alike), so a test dials "the disk dies after N bytes" and the failure
/// lands wherever the durability layer happens to be at that point.
#[derive(Debug, Default, Clone)]
struct FaultPlan {
    /// After this many bytes: write a partial prefix of the current
    /// buffer, then return an I/O error — a torn write, as a crash or
    /// kernel error mid-`write(2)` produces.
    torn_write_after: Option<u64>,
    /// After this many bytes: silently drop everything past the
    /// threshold and report success — a lying disk.
    short_write_after: Option<u64>,
    /// After this many bytes: partial write, then `ErrorKind::StorageFull`
    /// (`ENOSPC`).
    enospc_after: Option<u64>,
    /// Let this many `sync` calls succeed, then fail every later one.
    fail_syncs_after: Option<u64>,
    /// Fail every `set_len` — defeats the WAL's rollback and forces the
    /// degraded path.
    fail_set_len: bool,
    /// XOR this mask into the byte at this offset of every `read` —
    /// bit rot.
    flip_on_read: Option<(usize, u8)>,
    /// Fail this many WAL appends, the first ones, with
    /// `ErrorKind::Interrupted` before writing a byte — a transient error.
    interrupted_appends: u64,
}

#[derive(Default)]
struct FaultState {
    written: AtomicU64,
    syncs: AtomicU64,
    appends: AtomicU64,
}

/// An [`Fs`] decorator injecting the faults of a [`FaultPlan`] on top of
/// an inner filesystem. Clone-cheap: clones share the fault counters, so
/// one plan governs every handle a test hands out.
#[derive(Clone)]
struct FailFs {
    inner: Arc<dyn Fs>,
    plan: FaultPlan,
    state: Arc<FaultState>,
}

impl FailFs {
    /// Wraps `inner` with `plan`.
    fn new(inner: Arc<dyn Fs>, plan: FaultPlan) -> Self {
        FailFs {
            inner,
            plan,
            state: Arc::new(FaultState::default()),
        }
    }

    /// Total bytes the wrapper has admitted to the inner filesystem.
    fn bytes_written(&self) -> u64 {
        self.state.written.load(Ordering::Relaxed)
    }

    /// Total fsync-class calls (file and directory) seen by the wrapper.
    fn syncs(&self) -> u64 {
        self.state.syncs.load(Ordering::Relaxed)
    }

    /// Applies the write-fault plan to a buffer about to be written.
    /// Returns the prefix to actually write and the error (if any) to
    /// report after writing it.
    fn plan_write(&self, len: u64) -> (usize, Option<io::Error>, bool) {
        let before = self.state.written.fetch_add(len, Ordering::Relaxed);
        let crosses = |t: Option<u64>| {
            t.filter(|&t| before + len > t)
                .map(|t| t.saturating_sub(before) as usize)
        };
        if let Some(keep) = crosses(self.plan.torn_write_after) {
            return (keep, Some(io::Error::other("injected torn write")), false);
        }
        if let Some(keep) = crosses(self.plan.enospc_after) {
            return (
                keep,
                Some(io::Error::new(
                    io::ErrorKind::StorageFull,
                    "injected ENOSPC",
                )),
                false,
            );
        }
        if let Some(keep) = crosses(self.plan.short_write_after) {
            // Silent: partial data, successful return.
            return (keep, None, true);
        }
        (len as usize, None, false)
    }

    fn sync_fault(&self) -> Option<io::Error> {
        let n = self.state.syncs.fetch_add(1, Ordering::Relaxed);
        match self.plan.fail_syncs_after {
            Some(limit) if n >= limit => Some(io::Error::other("injected fsync failure")),
            _ => None,
        }
    }

    fn corrupt(&self, mut bytes: Vec<u8>) -> Vec<u8> {
        if let Some((pos, mask)) = self.plan.flip_on_read {
            if pos < bytes.len() {
                bytes[pos] ^= mask;
            }
        }
        bytes
    }
}

struct FailWalFile {
    inner: Box<dyn WalFile>,
    fs: FailFs,
}

impl WalFile for FailWalFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        if self.fs.state.appends.fetch_add(1, Ordering::Relaxed) < self.fs.plan.interrupted_appends
        {
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected interrupted append",
            ));
        }
        let (keep, err, _silent) = self.fs.plan_write(bytes.len() as u64);
        self.inner.append(&bytes[..keep.min(bytes.len())])?;
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        if let Some(e) = self.fs.sync_fault() {
            return Err(e);
        }
        self.inner.sync()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        if self.fs.plan.fail_set_len {
            return Err(io::Error::other("injected set_len failure"));
        }
        self.inner.set_len(len)
    }

    fn len(&mut self) -> io::Result<u64> {
        self.inner.len()
    }
}

impl Fs for FailFs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        Ok(self.corrupt(self.inner.read(path)?))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let (keep, err, _silent) = self.plan_write(bytes.len() as u64);
        self.inner.write(path, &bytes[..keep.min(bytes.len())])?;
        if let Some(e) = err {
            return Err(e);
        }
        if let Some(e) = self.sync_fault() {
            return Err(e);
        }
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_dir_all(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.read_dir(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        if let Some(e) = self.sync_fault() {
            return Err(e);
        }
        self.inner.sync_dir(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn open_wal(&self, path: &Path) -> io::Result<Box<dyn WalFile>> {
        let inner = self.inner.open_wal(path)?;
        Ok(Box::new(FailWalFile {
            inner,
            fs: self.clone(),
        }))
    }
}

/// The step of a journal's creation that [`FlakyFs`] fails: the header
/// write, the append handle's `open_wal`, or the directory fsync that
/// follows the header.
#[derive(Debug, Clone, Copy, PartialEq)]
enum JournalStep {
    Write,
    Open,
    SyncDir,
}

/// A filesystem whose journal creations fail at one step, from the nth
/// (0-based) creation on. Creations are counted by their header writes to
/// `wal-*.log` files.
struct FlakyFs {
    inner: Arc<dyn Fs>,
    step: JournalStep,
    from: u64,
    journals: AtomicU64,
    sync_dir_armed: AtomicBool,
}

impl FlakyFs {
    fn new(step: JournalStep, from: u64) -> Arc<FlakyFs> {
        Arc::new(FlakyFs {
            inner: Arc::new(StdFs),
            step,
            from,
            journals: AtomicU64::new(0),
            sync_dir_armed: AtomicBool::new(false),
        })
    }

    /// Whether the current creation is one to fail at `step`.
    fn failing(&self, step: JournalStep) -> bool {
        self.step == step && self.journals.load(Ordering::Relaxed) > self.from
    }
}

impl Fs for FlakyFs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("wal-") {
            self.journals.fetch_add(1, Ordering::Relaxed);
            if self.failing(JournalStep::Write) {
                return Err(io::Error::other("injected journal write failure"));
            }
            self.sync_dir_armed
                .store(self.failing(JournalStep::SyncDir), Ordering::Relaxed);
        }
        self.inner.write(path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_dir_all(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.read_dir(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        if self.sync_dir_armed.swap(false, Ordering::Relaxed) {
            return Err(io::Error::other("injected dir fsync failure"));
        }
        self.inner.sync_dir(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn open_wal(&self, path: &Path) -> io::Result<Box<dyn WalFile>> {
        if self.failing(JournalStep::Open) {
            return Err(io::Error::other("injected open failure"));
        }
        self.inner.open_wal(path)
    }
}

/// The model's `points_total` as the stream-status route reports it.
fn points_total(h: &Harness) -> u64 {
    let resp = h.handle("GET", "/models/demo/stream-status", "");
    body_text(&resp)
        .split("\"points_total\":")
        .nth(1)
        .and_then(|s| s.split([',', '}']).next())
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Runs registration once over a fault-free [`FailFs`] and reports how
/// many bytes and fsyncs it costs, so fault thresholds can be aimed at
/// the first WAL append that follows.
fn setup_cost() -> (u64, u64) {
    let dir = TempDir::new("measure");
    let fs = FailFs::new(Arc::new(StdFs), FaultPlan::default());
    let durability =
        Durability::with_fs(durability_config(dir.path(), 1_000), Arc::new(fs.clone()));
    let _ = Harness::new(durability);
    (fs.bytes_written(), fs.syncs())
}

// ---------------------------------------------------------------------------
// Write faults: refused retryably, reads keep serving
// ---------------------------------------------------------------------------

/// Injects `plan` aimed at the first WAL append and asserts the ingest is
/// refused with `503` + `Retry-After` while reads and health stay intact.
fn assert_wal_write_fault_is_retryable(tag: &str, plan: FaultPlan) {
    let dir = TempDir::new(tag);
    let durability = Durability::with_fs(
        durability_config(dir.path(), 1_000),
        Arc::new(FailFs::new(Arc::new(StdFs), plan)),
    );
    let h = Harness::new(durability);

    let resp = h.handle("POST", "/models/demo/ingest", &ingest_body(0));
    assert_eq!(resp.status, 503, "{}", body_text(&resp));
    assert!(
        body_text(&resp).contains("ingest journal unavailable"),
        "{}",
        body_text(&resp)
    );
    assert!(
        has_retry_after(&resp),
        "retryable refusal carries Retry-After"
    );

    // The rollback succeeded: not degraded, nothing acknowledged, and the
    // session was never touched (journal first, apply second).
    let resp = h.handle("GET", "/healthz", "");
    assert_eq!(resp.status, 200);
    assert!(
        body_text(&resp).contains("\"status\":\"ok\""),
        "{}",
        body_text(&resp)
    );
    let resp = h.handle("GET", "/models/demo/stream-status", "");
    assert!(
        body_text(&resp).contains("\"points_total\":0")
            || body_text(&resp).contains("\"active\":false"),
        "no partial append: {}",
        body_text(&resp)
    );
    assert_eq!(
        h.durability
            .counters()
            .wal_records_written
            .load(Ordering::Relaxed),
        0,
        "a failed append is never acknowledged"
    );

    // Reads are untouched.
    let resp = h.handle("POST", "/models/demo/score?context=3", &probe_series());
    assert_eq!(resp.status, 200, "{}", body_text(&resp));
}

#[test]
fn torn_wal_write_refuses_ingest_retryably() {
    let (bytes, _) = setup_cost();
    assert_wal_write_fault_is_retryable(
        "torn",
        FaultPlan {
            torn_write_after: Some(bytes),
            ..FaultPlan::default()
        },
    );
}

#[test]
fn enospc_refuses_ingest_retryably() {
    let (bytes, _) = setup_cost();
    assert_wal_write_fault_is_retryable(
        "enospc",
        FaultPlan {
            enospc_after: Some(bytes),
            ..FaultPlan::default()
        },
    );
}

#[test]
fn fsync_failure_refuses_ingest_retryably() {
    let (_, syncs) = setup_cost();
    assert_wal_write_fault_is_retryable(
        "fsync",
        FaultPlan {
            fail_syncs_after: Some(syncs),
            ..FaultPlan::default()
        },
    );
}

/// The `graphserve_io_retries_total` value `/metrics` reports.
fn io_retries_total(h: &Harness) -> u64 {
    let resp = h.handle("GET", "/metrics", "");
    body_text(&resp)
        .lines()
        .find_map(|l| l.strip_prefix("graphserve_io_retries_total "))
        .expect("io retries metric")
        .parse()
        .unwrap()
}

/// A harness whose first `interrupted` WAL appends fail transiently.
fn interrupted_harness(tag: &str, interrupted: u64) -> (TempDir, Harness) {
    let dir = TempDir::new(tag);
    let durability = Durability::with_fs(
        durability_config(dir.path(), 1_000),
        Arc::new(FailFs::new(
            Arc::new(StdFs),
            FaultPlan {
                interrupted_appends: interrupted,
                ..FaultPlan::default()
            },
        )),
    );
    (dir, Harness::new(durability))
}

#[test]
fn a_transient_wal_error_is_retried_and_acknowledged() {
    let (_dir, h) = interrupted_harness("interrupted-once", 1);
    let resp = h.handle("POST", "/models/demo/ingest", &ingest_body(0));
    assert_eq!(resp.status, 200, "{}", body_text(&resp));
    assert_eq!(io_retries_total(&h), 1);
    assert_eq!(points_total(&h), 8);
    assert_eq!(
        h.durability
            .counters()
            .wal_records_written
            .load(Ordering::Relaxed),
        1
    );
}

#[test]
fn a_transient_wal_error_that_outlasts_the_retries_refuses_retryably() {
    // One attempt and two retries, all interrupted.
    let (_dir, h) = interrupted_harness("interrupted-thrice", 3);
    let resp = h.handle("POST", "/models/demo/ingest", &ingest_body(0));
    assert_eq!(resp.status, 503, "{}", body_text(&resp));
    assert!(
        has_retry_after(&resp),
        "retryable refusal carries Retry-After"
    );
    assert_eq!(io_retries_total(&h), 2);
    let resp = h.handle("GET", "/healthz", "");
    assert!(
        body_text(&resp).contains("\"status\":\"ok\""),
        "not degraded: {}",
        body_text(&resp)
    );
    // The journal works again: the next ingest is acknowledged.
    let resp = h.handle("POST", "/models/demo/ingest", &ingest_body(1));
    assert_eq!(resp.status, 200, "{}", body_text(&resp));
}

#[test]
fn failed_rollback_degrades_the_model_read_only() {
    let (bytes, _) = setup_cost();
    let dir = TempDir::new("poisoned");
    let durability = Durability::with_fs(
        durability_config(dir.path(), 1_000),
        Arc::new(FailFs::new(
            Arc::new(StdFs),
            FaultPlan {
                torn_write_after: Some(bytes),
                fail_set_len: true,
                ..FaultPlan::default()
            },
        )),
    );
    let h = Harness::new(durability);

    // The append fails AND the rollback fails: the on-disk tail is
    // unknown, so the model must stop taking writes.
    let resp = h.handle("POST", "/models/demo/ingest", &ingest_body(0));
    assert_eq!(resp.status, 503, "{}", body_text(&resp));
    assert!(
        body_text(&resp).contains("degraded"),
        "{}",
        body_text(&resp)
    );
    assert!(
        !has_retry_after(&resp),
        "degradation is not retryable without operator action"
    );

    // Sticky: the next ingest is refused up front.
    let resp = h.handle("POST", "/models/demo/ingest", &ingest_body(1));
    assert_eq!(resp.status, 503);
    assert!(
        body_text(&resp).contains("degraded read-only"),
        "{}",
        body_text(&resp)
    );

    // Surfaced via /healthz and /metrics; reads still serve.
    let resp = h.handle("GET", "/healthz", "");
    assert_eq!(resp.status, 200, "degraded still serves reads");
    assert!(
        body_text(&resp).contains("\"status\":\"degraded\""),
        "{}",
        body_text(&resp)
    );
    assert!(
        body_text(&resp).contains("\"model\":\"demo\""),
        "{}",
        body_text(&resp)
    );
    let resp = h.handle("GET", "/metrics", "");
    assert!(
        body_text(&resp).contains("graphserve_models_degraded 1"),
        "{}",
        body_text(&resp)
    );
    let resp = h.handle("POST", "/models/demo/score?context=3", &probe_series());
    assert_eq!(resp.status, 200, "{}", body_text(&resp));
}

// ---------------------------------------------------------------------------
// Silent faults and corruption: caught at recovery, never a panic
// ---------------------------------------------------------------------------

#[test]
fn lying_short_write_is_surfaced_at_recovery() {
    let (bytes, _) = setup_cost();
    let dir = TempDir::new("short");
    // A disk that silently drops everything 20 bytes into the first WAL
    // record but reports success: the server acknowledges ingests it
    // cannot actually keep — indistinguishable from a crash before sync.
    let durability = Durability::with_fs(
        durability_config(dir.path(), 1_000),
        Arc::new(FailFs::new(
            Arc::new(StdFs),
            FaultPlan {
                short_write_after: Some(bytes + 20),
                ..FaultPlan::default()
            },
        )),
    );
    let h = Harness::new(durability);
    let mut acked = 0;
    for i in 0..3 {
        if h.handle("POST", "/models/demo/ingest", &ingest_body(i))
            .status
            == 200
        {
            acked += 1;
        }
    }
    assert!(acked > 0, "the lying disk acknowledges ingests");
    drop(h);

    // Restart against the same directory with an honest filesystem:
    // recovery must stop cleanly at the last whole record (here: none)
    // and surface the truncation, not panic or fabricate points.
    let durability = Durability::new(durability_config(dir.path(), 1_000));
    let h = Harness::empty(durability);
    let report = recover(&h.durability, &h.store, &h.sessions);
    assert_eq!(report.recovered, vec!["demo".to_string()], "{report:?}");
    assert_eq!(report.replayed_records, 0, "the torn tail is discarded");
    assert!(
        h.durability
            .counters()
            .wal_records_truncated
            .load(Ordering::Relaxed)
            > 0,
        "the loss is counted, not silent"
    );
    let resp = h.handle("GET", "/healthz", "");
    assert!(
        body_text(&resp).contains("\"status\":\"ok\""),
        "{}",
        body_text(&resp)
    );
    let resp = h.handle("POST", "/models/demo/score?context=3", &probe_series());
    assert_eq!(resp.status, 200, "{}", body_text(&resp));
}

#[test]
fn wal_bit_flip_on_disk_replays_the_clean_prefix() {
    let dir = TempDir::new("walflip");
    let durability = Durability::new(durability_config(dir.path(), 1_000));
    let h = Harness::new(durability);
    for i in 0..4 {
        let resp = h.handle("POST", "/models/demo/ingest", &ingest_body(i));
        assert_eq!(resp.status, 200, "{}", body_text(&resp));
    }
    drop(h);

    // Flip one bit in the last record's payload.
    let wal_path = journal(&dir.path().join("demo"), 0);
    let mut bytes = std::fs::read(&wal_path).expect("wal exists");
    let n = bytes.len();
    bytes[n - 10] ^= 0x04;
    std::fs::write(&wal_path, &bytes).expect("rewrite wal");

    let durability = Durability::new(durability_config(dir.path(), 1_000));
    let h = Harness::empty(durability);
    let report = recover(&h.durability, &h.store, &h.sessions);
    assert_eq!(report.recovered, vec!["demo".to_string()], "{report:?}");
    assert_eq!(
        report.replayed_records, 3,
        "records before the flip survive"
    );
    let resp = h.handle("GET", "/models/demo/stream-status", "");
    assert!(
        body_text(&resp).contains("\"points_total\":24"),
        "exactly the clean prefix, no partial record: {}",
        body_text(&resp)
    );
    // Writable again: the healing snapshot retired the torn tail.
    let resp = h.handle("POST", "/models/demo/ingest", &ingest_body(4));
    assert_eq!(resp.status, 200, "{}", body_text(&resp));
}

/// Every file under `dir` with its bytes, sorted by path.
fn dir_bytes(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("list state dir")
        .map(|e| e.expect("dir entry").path())
        .map(|p| {
            let bytes = std::fs::read(&p).expect("read state file");
            (p, bytes)
        })
        .collect();
    files.sort();
    files
}

#[test]
fn refused_wal_record_degrades_and_keeps_the_files() {
    let dir = TempDir::new("refused");
    let config = || durability_config(dir.path(), 1_000);
    drop(Harness::new(Durability::new(config())));

    // A journal whose first record passes its CRC but names series 5 of a
    // session with no series yet, followed by a valid record. Both were
    // acknowledged; neither may be healed away.
    let model_dir = dir.path().join("demo");
    let points: Vec<f64> = (0..8).map(|i| (i as f64 * 0.3).sin()).collect();
    let mut log = wal::encode_header(0);
    log.extend(wal::encode_record(1, 5, &points));
    log.extend(wal::encode_record(2, 0, &points));
    std::fs::write(journal(&model_dir, 0), &log).expect("write wal");
    let before = dir_bytes(&model_dir);

    for restart in 0..2 {
        let h = Harness::empty(Durability::new(config()));
        let report = recover(&h.durability, &h.store, &h.sessions);
        assert!(report.recovered.is_empty(), "restart {restart}: {report:?}");
        assert_eq!(report.degraded.len(), 1, "restart {restart}: {report:?}");
        let (name, reason) = &report.degraded[0];
        assert_eq!(name, "demo");
        assert!(reason.contains("WAL record 1 "), "{reason}");
        assert_eq!(points_total(&h), 0, "nothing past the refused record");
        let resp = h.handle("POST", "/models/demo/ingest", &ingest_body(0));
        assert_eq!(resp.status, 503, "{}", body_text(&resp));
        assert!(
            body_text(&resp).contains("degraded"),
            "{}",
            body_text(&resp)
        );
        drop(h);
        assert!(
            dir_bytes(&model_dir) == before,
            "restart {restart} rewrote the snapshot or the journal"
        );
    }
}

#[test]
fn non_finite_and_huge_ingests_are_refused_before_the_wal() {
    let dir = TempDir::new("hostile");
    let h = Harness::new(Durability::new(durability_config(dir.path(), 1_000)));
    let records = |h: &Harness| {
        h.durability
            .counters()
            .wal_records_written
            .load(Ordering::Relaxed)
    };
    let resp = h.handle("POST", "/models/demo/ingest", &ingest_body(0));
    assert_eq!(resp.status, 200, "{}", body_text(&resp));
    assert_eq!(records(&h), 1);

    let all_nan = vec!["NaN"; 32].join(",");
    let huge = format!(
        "{{\"series\":0,\"points\":[{}]}}",
        vec!["1e308"; 32].join(",")
    );
    for (target, body) in [
        ("/models/demo/ingest?series=0", all_nan.as_str()),
        ("/models/demo/ingest", huge.as_str()),
        ("/models/demo/ingest?series=0", "0.5,inf,0.25"),
    ] {
        let resp = h.handle("POST", target, body);
        assert_eq!(resp.status, 422, "{body}: {}", body_text(&resp));
        assert_eq!(records(&h), 1, "{body} reached the WAL");
    }
    drop(h);

    // A restart on the same state directory replays only the good record.
    let h = Harness::empty(Durability::new(durability_config(dir.path(), 1_000)));
    let report = recover(&h.durability, &h.store, &h.sessions);
    assert_eq!(report.recovered, vec!["demo".to_string()], "{report:?}");
    let resp = h.handle("GET", "/healthz", "");
    assert_eq!(resp.status, 200);
    assert!(
        body_text(&resp).contains("\"status\":\"ok\""),
        "{}",
        body_text(&resp)
    );
    let resp = h.handle("GET", "/models/demo/stream-status", "");
    assert!(
        body_text(&resp).contains("\"points_total\":8"),
        "{}",
        body_text(&resp)
    );
}

/// `dir/wal-<seq:016>.log`.
fn journal(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:016}.log"))
}

/// `dir/snap-<seq:016>.<ext>`.
fn snapshot(dir: &Path, seq: u64, ext: &str) -> PathBuf {
    dir.join(format!("snap-{seq:016}.{ext}"))
}

/// The names of the files under `dir`, sorted.
fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("list model dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

fn flip_middle_byte(path: &Path) {
    let mut bytes = std::fs::read(path).expect("read state file");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(path, &bytes).expect("rewrite state file");
}

/// Three acknowledged ingests with a snapshot after each: generations 2
/// and 3 are retained, each with its journal, and record 3 sits in
/// generation 2's journal as well as in generation 3.
fn three_generations(tag: &str) -> TempDir {
    let dir = TempDir::new(tag);
    let h = Harness::new(Durability::new(durability_config(dir.path(), 0)));
    for i in 0..3 {
        let resp = h.handle("POST", "/models/demo/ingest", &ingest_body(i));
        assert_eq!(resp.status, 200, "{}", body_text(&resp));
    }
    drop(h);
    let expected = [
        "snap-0000000000000002.kgm",
        "snap-0000000000000002.kgs",
        "snap-0000000000000003.kgm",
        "snap-0000000000000003.kgs",
        "wal-0000000000000002.log",
        "wal-0000000000000003.log",
    ];
    let model_dir = dir.path().join("demo");
    assert_eq!(file_names(&model_dir), expected, "retained generations");
    dir
}

/// Restarts on `dir` and asserts a writable model with all 24 points.
fn assert_recovers_every_point(dir: &Path, row: &str) {
    let h = Harness::empty(Durability::new(durability_config(dir, 0)));
    let report = recover(&h.durability, &h.store, &h.sessions);
    assert_eq!(
        report.recovered,
        vec!["demo".to_string()],
        "{row}: {report:?}"
    );
    assert_eq!(
        points_total(&h),
        24,
        "{row}: every acknowledged ingest survives"
    );
    let resp = h.handle("GET", "/healthz", "");
    assert!(
        body_text(&resp).contains("\"status\":\"ok\""),
        "{row}: {}",
        body_text(&resp)
    );
    let resp = h.handle("POST", "/models/demo/ingest", &ingest_body(9));
    assert_eq!(resp.status, 200, "{row}: {}", body_text(&resp));
}

#[test]
fn a_corrupt_retained_generation_loses_no_acknowledged_point() {
    // Each row rots one file of one retained generation. The other
    // generation plus the journals still hold every record: a fallback
    // from generation 3 to 2 replays record 3 from generation 2's journal.
    for (seq, ext) in [(3, "kgm"), (3, "kgs"), (2, "kgm"), (2, "kgs")] {
        let dir = three_generations(&format!("rot{seq}{ext}"));
        flip_middle_byte(&snapshot(&dir.path().join("demo"), seq, ext));
        assert_recovers_every_point(dir.path(), &format!("snap-{seq}.{ext}"));
    }
}

// ---------------------------------------------------------------------------
// Model-file reuse: an unchanged model is written again, never encoded again
// ---------------------------------------------------------------------------

/// Whether `a` and `b` name one file.
fn same_file(a: &Path, b: &Path) -> bool {
    use std::os::unix::fs::MetadataExt;
    let (a, b) = (std::fs::metadata(a).unwrap(), std::fs::metadata(b).unwrap());
    (a.dev(), a.ino()) == (b.dev(), b.ino())
}

fn ingest_ok(h: &Harness, i: usize) {
    let resp = h.handle("POST", "/models/demo/ingest", &ingest_body(i));
    assert_eq!(resp.status, 200, "{}", body_text(&resp));
}

#[test]
fn an_unchanged_model_is_copied_and_a_compacted_one_written() {
    let dir = TempDir::new("reuse");
    let h = Harness::new(Durability::new(durability_config(dir.path(), 0)));
    let model_dir = dir.path().join("demo");
    let kgm = |seq| snapshot(&model_dir, seq, "kgm");
    let assert_copy = |seq: u64| {
        let (prev, next) = (kgm(seq - 1), kgm(seq));
        assert!(
            !same_file(&prev, &next),
            "generation {seq} has its own file"
        );
        assert_eq!(
            std::fs::read(&next).unwrap(),
            std::fs::read(&prev).unwrap(),
            "generation {seq} holds the same model"
        );
    };
    // Refresh 1 does not compact.
    ingest_ok(&h, 0);
    assert_copy(1);
    // Refresh 2 compacts an empty delta: the served model stays the same.
    ingest_ok(&h, 1);
    assert_copy(2);
    ingest_ok(&h, 2);
    // Refresh 4 compacts a non-empty delta: a new model, a new file.
    ingest_ok(&h, 3);
    let served = h.store.reader().get("demo").unwrap();
    let kgm4 = std::fs::read(kgm(4)).unwrap();
    assert_ne!(kgm4, std::fs::read(kgm(3)).unwrap());
    assert_eq!(kgm4, kgraph::serial::write_model(&served));
    assert_eq!(
        h.durability
            .counters()
            .snapshots_written
            .load(Ordering::Relaxed),
        5,
        "every generation is a snapshot"
    );
}

#[test]
fn a_heal_at_the_same_sequence_number_leaves_the_files_as_they_were() {
    let dir = three_generations("sameseq");
    let model_dir = dir.path().join("demo");
    let before = dir_bytes(&model_dir);
    let h = Harness::empty(Durability::new(durability_config(dir.path(), 0)));
    let report = recover(&h.durability, &h.store, &h.sessions);
    assert_eq!(report.recovered, ["demo"], "{report:?}");
    assert_eq!(report.replayed_records, 0, "the heal is at sequence 3");
    assert_eq!(dir_bytes(&model_dir), before);
}

#[test]
fn a_kgm3_state_directory_recovers_and_heals_to_kgm4() {
    // The previous model format, as the previous release wrote it, in
    // both retained generations.
    let dir = three_generations("kgm3");
    let model_dir = dir.path().join("demo");
    for seq in [2, 3] {
        let path = snapshot(&model_dir, seq, "kgm");
        let model = read_model(&std::fs::read(&path).unwrap()).unwrap();
        std::fs::write(&path, kgm3::kgm3(&model)).unwrap();
    }
    let h = Harness::empty(Durability::new(durability_config(dir.path(), 0)));
    let report = recover(&h.durability, &h.store, &h.sessions);
    assert_eq!(report.recovered, ["demo"], "{report:?}");
    assert_eq!(points_total(&h), 24);
    let served = kgraph::serial::write_model(&h.store.reader().get("demo").unwrap());
    assert_eq!(
        std::fs::read(snapshot(&model_dir, 3, "kgm")).unwrap(),
        served,
        "the heal rewrites generation 3 as KGM4"
    );
    // Every later generation is KGM4 too.
    ingest_ok(&h, 9);
    for name in file_names(&model_dir) {
        if name.ends_with(".kgm") {
            let bytes = std::fs::read(model_dir.join(&name)).unwrap();
            assert!(bytes.starts_with(b"KGM4"), "{name}");
        }
    }
}

/// `state` in the per-layer `KGS1` layout of the generation before KGM3:
/// one delta and one pending list per layer of `model`, the best layer's
/// in its place and empty ones for the other layers.
fn per_layer_kgs1(model: &KGraphModel, state: &SessionState) -> Vec<u8> {
    let best = |l: usize| l == model.best_layer;
    let mut kgd1 = b"KGD1".to_vec();
    put_u64(&mut kgd1, model.layers.len() as u64);
    for (l, layer) in model.layers.iter().enumerate() {
        put_u64(&mut kgd1, layer.graph.node_count() as u64);
        let edges = state.delta.iter().map(|(s, t, &w)| (s, t, w));
        put_triples(&mut kgd1, edges.filter(|_| best(l)));
    }
    let kgd1 = seal(kgd1);
    let mut out = b"KGS1".to_vec();
    for v in [
        state.seq,
        state.points_total,
        state.points_since_refresh,
        state.refreshes,
        state.compactions,
        kgd1.len() as u64,
    ] {
        put_u64(&mut out, v);
    }
    out.extend_from_slice(&kgd1);
    put_u64(&mut out, model.layers.len() as u64);
    for l in 0..model.layers.len() {
        put_triples(&mut out, state.pending.iter().copied().filter(|_| best(l)));
    }
    put_u64(&mut out, state.series.len() as u64);
    for s in &state.series {
        put_f64s(&mut out, &s.values);
        match &s.scores {
            Some(scores) => {
                out.push(1);
                put_f64s(&mut out, scores);
            }
            None => out.push(0),
        }
    }
    seal(out)
}

#[test]
fn a_state_directory_two_generations_old_fails_and_is_left_as_it_was() {
    // A three-length model, so that a per-layer state holds three lists.
    let series: Vec<TimeSeries> = (0..8)
        .map(|p| TimeSeries::new((0..80).map(|i| ((i + p) as f64 * 0.3).sin()).collect()))
        .collect();
    let cfg = KGraphConfig {
        psi: 10,
        pca_sample: 300,
        n_init: 2,
        ..KGraphConfig::new(2)
    }
    .with_lengths(vec![12, 16, 20]);
    let model =
        Arc::new(KGraph::new(cfg).fit(&Dataset::new("old", DatasetKind::Simulated, series)));
    let dir = TempDir::new("twoback");
    let h = Harness::empty(Durability::new(durability_config(dir.path(), 1_000)));
    h.store.insert("demo", Arc::clone(&model));
    h.durability
        .persist_initial("demo", &model, h.sessions.config());
    for i in 0..3 {
        ingest_ok(&h, i);
    }
    drop(h);

    // What the generation before KGM3 left: a KGM2 model, a per-layer
    // KGS1 and the single journal `wal.log`. The reader refuses a model
    // file on its magic, before its checksum and body, so a KGM3 body
    // under the KGM2 magic stands for a KGM2 file.
    let model_dir = dir.path().join("demo");
    let kgm = snapshot(&model_dir, 0, "kgm");
    let mut old = kgm3::kgm3(&read_model(&std::fs::read(&kgm).unwrap()).unwrap());
    old.truncate(old.len() - 4);
    old[..4].copy_from_slice(b"KGM2");
    std::fs::write(&kgm, seal(old)).unwrap();
    let kgs = snapshot(&model_dir, 0, "kgs");
    let state = read_session_state(&std::fs::read(&kgs).unwrap()).unwrap();
    let per_layer = per_layer_kgs1(&model, &state);
    match read_session_state(&per_layer) {
        Err(e) => assert!(e.to_string().contains("per-layer"), "{e}"),
        Ok(_) => panic!("a per-layer KGS1 must be refused"),
    }
    std::fs::write(&kgs, per_layer).unwrap();
    std::fs::rename(journal(&model_dir, 0), model_dir.join("wal.log")).unwrap();
    assert_eq!(
        file_names(&model_dir),
        [
            "snap-0000000000000000.kgm",
            "snap-0000000000000000.kgs",
            "wal.log"
        ]
    );
    let before = dir_bytes(&model_dir);

    let h = Harness::empty(Durability::new(durability_config(dir.path(), 1_000)));
    let report = recover(&h.durability, &h.store, &h.sessions);
    assert!(report.recovered.is_empty(), "{report:?}");
    assert!(report.degraded.is_empty(), "{report:?}");
    assert_eq!(report.failed.len(), 1, "{report:?}");
    let (name, reason) = &report.failed[0];
    assert_eq!(name, "demo");
    assert!(
        reason.contains("KGM2") && reason.contains("no longer read"),
        "{reason}"
    );
    assert!(h.store.list().is_empty(), "nothing is served");
    let resp = h.handle("POST", "/models/demo/score?context=3", &probe_series());
    assert_eq!(resp.status, 404, "{}", body_text(&resp));
    drop(h);
    assert_eq!(
        dir_bytes(&model_dir),
        before,
        "every file is left as it was"
    );
}

#[test]
fn a_fallback_whose_journal_is_gone_degrades_naming_the_gap() {
    let dir = three_generations("gap");
    let model_dir = dir.path().join("demo");
    for ext in ["kgm", "kgs"] {
        flip_middle_byte(&snapshot(&model_dir, 3, ext));
    }
    std::fs::remove_file(journal(&model_dir, 2)).expect("delete journal");

    // Generation 2 restores, but nothing carries it to sequence 3: record
    // 3 is acknowledged and unreachable, so the model refuses writes
    // instead of silently diverging.
    let h = Harness::empty(Durability::new(durability_config(dir.path(), 0)));
    let report = recover(&h.durability, &h.store, &h.sessions);
    assert!(report.recovered.is_empty(), "{report:?}");
    assert_eq!(report.degraded.len(), 1, "{report:?}");
    let reason = &report.degraded[0].1;
    assert!(
        reason.contains("snapshot 2 only to sequence 2") && reason.contains("sequence 3"),
        "{reason}"
    );

    // Served read-only: reads 200, writes 503, health says degraded.
    let resp = h.handle("POST", "/models/demo/score?context=3", &probe_series());
    assert_eq!(resp.status, 200, "{}", body_text(&resp));
    let resp = h.handle("POST", "/models/demo/ingest", &ingest_body(9));
    assert_eq!(resp.status, 503, "{}", body_text(&resp));
    assert!(
        body_text(&resp).contains("degraded read-only"),
        "{}",
        body_text(&resp)
    );
    let resp = h.handle("GET", "/healthz", "");
    assert_eq!(resp.status, 200);
    assert!(
        body_text(&resp).contains("\"status\":\"degraded\""),
        "{}",
        body_text(&resp)
    );
}

#[test]
fn bit_rot_on_every_read_never_panics_recovery() {
    let dir = TempDir::new("rot");
    let durability = Durability::new(durability_config(dir.path(), 1_000));
    let h = Harness::new(durability);
    for i in 0..2 {
        assert_eq!(
            h.handle("POST", "/models/demo/ingest", &ingest_body(i))
                .status,
            200
        );
    }
    drop(h);

    // Every read comes back with byte 40 flipped — model, session state
    // and WAL alike. Nothing is recoverable, but recovery must say so
    // explicitly instead of panicking or serving rotten data.
    let durability = Durability::with_fs(
        durability_config(dir.path(), 1_000),
        Arc::new(FailFs::new(
            Arc::new(StdFs),
            FaultPlan {
                flip_on_read: Some((40, 0x20)),
                ..FaultPlan::default()
            },
        )),
    );
    let h = Harness::empty(durability);
    let report = recover(&h.durability, &h.store, &h.sessions);
    assert!(report.recovered.is_empty(), "{report:?}");
    assert_eq!(
        report.degraded.len() + report.failed.len(),
        1,
        "the rot is surfaced, not swallowed: {report:?}"
    );
}

// ---------------------------------------------------------------------------
// Journal creation and re-fits: an acknowledged ingest is never lost
// ---------------------------------------------------------------------------

#[test]
fn a_failed_journal_creation_keeps_appends_on_the_live_journal() {
    // Every journal creation after the initial registration's fails at
    // one step per row. Each pair still lands, appends stay on the first
    // journal, and a crash loses nothing that was acknowledged.
    for step in [JournalStep::Write, JournalStep::Open, JournalStep::SyncDir] {
        let row = format!("{step:?}");
        let dir = TempDir::new(&format!("journal{row}"));
        let durability =
            Durability::with_fs(durability_config(dir.path(), 0), FlakyFs::new(step, 1));
        let h = Harness::new(durability);
        for i in 0..3 {
            let resp = h.handle("POST", "/models/demo/ingest", &ingest_body(i));
            assert_eq!(resp.status, 200, "{row}: {}", body_text(&resp));
        }
        let resp = h.handle("GET", "/healthz", "");
        assert!(
            body_text(&resp).contains("\"status\":\"ok\""),
            "{row}: a journal that could not be started is not a degradation: {}",
            body_text(&resp)
        );
        let counters = h.durability.counters();
        assert_eq!(
            counters.snapshots_written.load(Ordering::Relaxed),
            4,
            "{row}"
        );
        assert_eq!(
            counters.snapshot_failures.load(Ordering::Relaxed),
            3,
            "{row}"
        );
        drop(h);
        assert_recovers_every_point(dir.path(), &row);
    }
}

/// A `PUT` body of eight 80-point series.
fn fit_rows() -> String {
    (0..8)
        .map(|p| {
            let row: Vec<String> = (0..80)
                .map(|i| (((i + p) as f64) * 0.3).sin().to_string())
                .collect();
            row.join(",")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn a_refit_survives_a_restart() {
    // The old fit's generations reach sequence 6. The re-fit's must
    // outrank them, or pruning deletes the new fit's and recovery restores
    // the old model.
    let dir = TempDir::new("refit");
    let h = Harness::empty(Durability::new(durability_config(dir.path(), 1)));
    let resp = h.handle("PUT", "/models/demo?k=2", &fit_rows());
    assert_eq!(resp.status, 201, "{}", body_text(&resp));
    for i in 0..6 {
        let resp = h.handle("POST", "/models/demo/ingest", &ingest_body(i));
        assert_eq!(resp.status, 200, "{}", body_text(&resp));
    }
    let resp = h.handle("PUT", "/models/demo?k=3", &fit_rows());
    assert_eq!(resp.status, 201, "{}", body_text(&resp));
    for i in 0..2 {
        let resp = h.handle("POST", "/models/demo/ingest", &ingest_body(i));
        assert_eq!(resp.status, 200, "{}", body_text(&resp));
    }
    let info = |h: &Harness| body_text(&h.handle("GET", "/models/demo", "")).to_string();
    assert!(info(&h).contains("\"k\":3,"), "{}", info(&h));
    assert_eq!(points_total(&h), 16);
    drop(h);

    let h = Harness::empty(Durability::new(durability_config(dir.path(), 1)));
    let report = recover(&h.durability, &h.store, &h.sessions);
    assert_eq!(report.recovered, vec!["demo".to_string()], "{report:?}");
    assert!(
        info(&h).contains("\"k\":3,"),
        "the re-fit survives: {}",
        info(&h)
    );
    assert_eq!(points_total(&h), 16, "with its own points only");
}

// ---------------------------------------------------------------------------
// Gauge accounting
// ---------------------------------------------------------------------------

#[test]
fn refit_resets_the_records_since_snapshot_gauge() {
    let dir = TempDir::new("gauge");
    let durability = Durability::new(durability_config(dir.path(), 1_000));
    let h = Harness::new(durability);
    for i in 0..3 {
        let resp = h.handle("POST", "/models/demo/ingest", &ingest_body(i));
        assert_eq!(resp.status, 200, "{}", body_text(&resp));
    }
    let counters = Arc::clone(h.durability.counters());
    assert_eq!(counters.records_since_snapshot.load(Ordering::Relaxed), 3);
    // Re-fit: re-registering resets the model's sequence to 0. The gauge
    // must drop by the records the fresh journal discards — not by the
    // new-seq-minus-old-snapshot-seq difference, which is zero here.
    let model = {
        let mut reader = h.store.reader();
        reader.get("demo").expect("demo is registered")
    };
    h.durability
        .persist_initial("demo", &model, h.sessions.config());
    assert_eq!(
        counters.records_since_snapshot.load(Ordering::Relaxed),
        0,
        "the gauge returns to zero after the re-fit snapshot"
    );
    assert!(
        counters.wal_records_truncated.load(Ordering::Relaxed) >= 3,
        "the discarded records count as truncated"
    );
}

// ---------------------------------------------------------------------------
// Ingest error mapping (regression)
// ---------------------------------------------------------------------------

#[test]
fn ingest_error_mapping_is_stable() {
    let dir = TempDir::new("mapping");
    let durability = Durability::new(durability_config(dir.path(), 1_000));
    let h = Harness::new(durability);

    // Malformed bodies blame the client: 400, nothing journaled.
    for bad in ["{not json", "{\"series\":0,\"points\":[\"x\"]}", "", "[]"] {
        let resp = h.handle("POST", "/models/demo/ingest", bad);
        assert_eq!(resp.status, 400, "{bad:?} → {}", body_text(&resp));
    }
    // A series index that cannot be appended is refused before the WAL
    // sees it: 422, still nothing journaled.
    let resp = h.handle(
        "POST",
        "/models/demo/ingest",
        "{\"series\":7,\"points\":[1,2]}",
    );
    assert_eq!(resp.status, 422, "{}", body_text(&resp));
    assert_eq!(
        h.durability
            .counters()
            .wal_records_written
            .load(Ordering::Relaxed),
        0,
        "invalid requests never reach the journal"
    );

    // A valid ingest is journaled and applied.
    let resp = h.handle("POST", "/models/demo/ingest", &ingest_body(0));
    assert_eq!(resp.status, 200, "{}", body_text(&resp));
    assert_eq!(
        h.durability
            .counters()
            .wal_records_written
            .load(Ordering::Relaxed),
        1
    );
}

// ---------------------------------------------------------------------------
// WAL replay properties: arbitrary truncation and bit flips
// ---------------------------------------------------------------------------

/// Builds a valid WAL image plus its decoded records.
fn build_wal(base_seq: u64, specs: &[(u32, Vec<f64>)]) -> (Vec<u8>, Vec<wal::WalRecord>) {
    let mut bytes = wal::encode_header(base_seq);
    let mut records = Vec::new();
    for (i, (series, points)) in specs.iter().enumerate() {
        let seq = base_seq + 1 + i as u64;
        bytes.extend_from_slice(&wal::encode_record(seq, *series, points));
        records.push(wal::WalRecord {
            seq,
            series: *series as usize,
            points: points.clone(),
        });
    }
    (bytes, records)
}

/// `got` must be a prefix of `all` — replay may only ever lose a suffix.
fn assert_prefix(got: &[wal::WalRecord], all: &[wal::WalRecord]) -> Result<(), TestCaseError> {
    prop_assert!(got.len() <= all.len(), "more records than were written");
    for (g, a) in got.iter().zip(all) {
        prop_assert_eq!(g, a, "replayed record diverges from what was logged");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn truncated_wal_replays_to_a_clean_prefix(
        (base_seq, specs, cut_frac) in (
            0u64..1_000,
            proptest::collection::vec((0u32..4, proptest::collection::vec(-1.0..1.0f64, 0..6)), 0..8),
            0.0..1.0f64,
        )
    ) {
        let (bytes, records) = build_wal(base_seq, &specs);
        let cut = ((bytes.len() + 1) as f64 * cut_frac) as usize;
        let cut = cut.min(bytes.len());
        let rep = match wal::replay(&bytes[..cut]) {
            Ok(rep) => rep,
            // Truncation preserves the magic prefix, so a parse error can
            // only mean the cut landed inside the magic itself.
            Err(_) => {
                prop_assert!(cut < 4, "parse error on a magic-intact prefix");
                return Ok(());
            }
        };
        assert_prefix(&rep.records, &records)?;
        if cut == bytes.len() {
            prop_assert_eq!(rep.records.len(), records.len(), "whole log replays whole");
            prop_assert!(!rep.torn, "an intact log is not torn");
        }
        if cut >= 12 {
            prop_assert_eq!(rep.base_seq, base_seq);
            prop_assert!(rep.valid_bytes <= cut as u64);
        }
    }

    #[test]
    fn bit_flipped_wal_never_panics_and_never_invents_records(
        (base_seq, specs, pos_frac, bit) in (
            0u64..1_000,
            proptest::collection::vec((0u32..4, proptest::collection::vec(-1.0..1.0f64, 0..6)), 1..8),
            0.0..1.0f64,
            0u32..8,
        )
    ) {
        let (mut bytes, records) = build_wal(base_seq, &specs);
        let pos = ((bytes.len() as f64) * pos_frac) as usize;
        let pos = pos.min(bytes.len() - 1);
        bytes[pos] ^= 1 << bit;
        match wal::replay(&bytes) {
            // Flips inside the magic are rejected wholesale.
            Err(_) => prop_assert!(pos < 4, "parse error from a flip at {pos}"),
            Ok(rep) => {
                assert_prefix(&rep.records, &records)?;
                // A flip strictly after the last valid byte cannot shrink
                // the valid prefix; one inside it must.
                prop_assert!(
                    rep.records.len() < records.len() || pos as u64 >= rep.valid_bytes,
                    "a corrupt record at {pos} survived replay"
                );
            }
        }
    }
}
