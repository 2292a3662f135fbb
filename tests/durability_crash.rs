//! Crash-recovery integration test: a live `graphserve` server is
//! SIGKILLed mid-ingest and restarted against the same state directory.
//! The restarted server must serve exactly the acknowledged prefix of the
//! stream — and its stream status and anomaly scores must match, byte for
//! byte, a control server that ingested that prefix and was never killed.
//!
//! The killed server runs as a child process: this test binary re-executes
//! itself with `GRAPHSERVE_CRASH_ROLE=child`, which turns the (otherwise
//! no-op) [`crash_child_server_helper`] test into a real server that loads
//! a pre-fitted model, recovers its state directory, listens on an
//! ephemeral port and parks until killed.

use graphserve::durability::{Durability, DurabilityConfig};
use graphserve::http::{Request, Response};
use graphserve::routes::{self, RouteContext};
use graphserve::{recover, ModelStore, Server, ServerConfig, ServerStats};
use kgraph::pipeline::KGraphModel;
use kgraph::{KGraph, KGraphConfig};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use streamfit::{SessionRegistry, StreamConfig, StreamSession};
use tscore::{Dataset, DatasetKind, TimeSeries};

/// Streaming cadences shared by the child servers and the control: small
/// enough that a modest burst crosses refreshes, compactions *and*
/// snapshots, so the crash window covers every stage of the write path.
fn stream_config() -> StreamConfig {
    StreamConfig {
        refresh_every: 16,
        compact_every: 2,
    }
}

fn durability_config(dir: &Path) -> DurabilityConfig {
    DurabilityConfig {
        state_dir: dir.to_path_buf(),
        wal_sync_every: 1,
        snapshot_every: 4,
    }
}

/// The deterministic ingest stream: record `i` appends 8 points to
/// session series `i % 2`.
fn record_series(i: usize) -> usize {
    i % 2
}

fn record_points(i: usize) -> Vec<f64> {
    (0..8)
        .map(|j| (((i * 8 + j) as f64) * 0.21).sin() + if i.is_multiple_of(2) { 0.0 } else { 0.4 })
        .collect()
}

fn record_body(i: usize) -> String {
    let points: Vec<String> = record_points(i).iter().map(f64::to_string).collect();
    format!(
        "{{\"series\":{},\"points\":[{}]}}",
        record_series(i),
        points.join(",")
    )
}

fn probe_series() -> String {
    let values: Vec<String> = (0..80)
        .map(|i| ((i as f64) * 0.21).sin().to_string())
        .collect();
    format!("[{}]", values.join(","))
}

// ---------------------------------------------------------------------------
// Child mode
// ---------------------------------------------------------------------------

/// When re-executed with `GRAPHSERVE_CRASH_ROLE=child`, this "test" is a
/// real durable server: it loads the model the parent fitted, recovers the
/// shared state directory, writes its address to the port file and parks
/// until the parent kills it. Without the env var it is a no-op.
#[test]
fn crash_child_server_helper() {
    if std::env::var("GRAPHSERVE_CRASH_ROLE").as_deref() != Ok("child") {
        return;
    }
    let state_dir = PathBuf::from(std::env::var("GRAPHSERVE_CRASH_STATE").unwrap());
    let model_path = PathBuf::from(std::env::var("GRAPHSERVE_CRASH_MODEL").unwrap());
    let port_file = PathBuf::from(std::env::var("GRAPHSERVE_CRASH_PORT_FILE").unwrap());

    let bytes = std::fs::read(&model_path).expect("read model file");
    let model = Arc::new(kgraph::serial::read_model(&bytes).expect("decode model"));
    let store = Arc::new(ModelStore::new(0));
    store.insert("demo", model);

    let durability = Arc::new(Durability::new(durability_config(&state_dir)));
    let sessions = Arc::new(SessionRegistry::new(stream_config()));
    recover(&durability, &store, &sessions);

    let server = Server::start_with(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            stream: stream_config(),
            ..ServerConfig::default()
        },
        store,
        sessions,
        durability,
    )
    .expect("start child server");
    std::fs::write(&port_file, server.addr().to_string()).expect("write port file");
    loop {
        std::thread::park();
    }
}

// ---------------------------------------------------------------------------
// Parent-side plumbing
// ---------------------------------------------------------------------------

/// A scratch directory removed on drop, unique per call within the process.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> TempDir {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("graphserve-crash-{}-{seq}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Kills the child on drop so a failing assertion cannot leak servers.
struct ChildGuard(Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn_child(dir: &Path, port_file: &Path) -> ChildGuard {
    let exe = std::env::current_exe().expect("current test binary");
    let child = Command::new(exe)
        .args(["crash_child_server_helper", "--exact", "--nocapture"])
        .env("GRAPHSERVE_CRASH_ROLE", "child")
        .env("GRAPHSERVE_CRASH_STATE", dir.join("state"))
        .env("GRAPHSERVE_CRASH_MODEL", dir.join("model.kgm"))
        .env("GRAPHSERVE_CRASH_PORT_FILE", port_file)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn child server");
    ChildGuard(child)
}

fn wait_for_port(path: &Path) -> SocketAddr {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            if let Ok(addr) = text.trim().parse() {
                return addr;
            }
        }
        assert!(
            Instant::now() < deadline,
            "child server never wrote {}",
            path.display()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// One HTTP request over a fresh connection; `Err` when the server died.
fn try_request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status: u16 = raw
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("bad response: {raw:?}")))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

fn request(addr: SocketAddr, method: &str, target: &str, body: &str) -> (u16, String) {
    try_request(addr, method, target, body).expect("request")
}

fn extract_u64(body: &str, key: &str) -> u64 {
    let rest = &body[body.find(key).unwrap_or_else(|| panic!("{key} in {body}")) + key.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().expect("numeric value")
}

fn fit_model() -> KGraphModel {
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
    KGraph::new(cfg).fit(&ds)
}

/// The never-killed control: the same model, the same cadences, exactly
/// the first `n` records of the same stream — served through the same
/// route handlers, in process.
struct Control {
    store: ModelStore,
    sessions: SessionRegistry,
    stats: ServerStats,
    durability: Durability,
}

impl Control {
    fn ingest_prefix(model: Arc<KGraphModel>, n: usize) -> Control {
        let mut session = StreamSession::new(model, stream_config());
        for i in 0..n {
            session
                .append(record_series(i), &record_points(i))
                .expect("control append");
        }
        let store = ModelStore::new(0);
        store.insert("demo", Arc::clone(session.model()));
        let sessions = SessionRegistry::new(stream_config());
        sessions.install("demo", session);
        Control {
            store,
            sessions,
            stats: ServerStats::default(),
            durability: Durability::disabled(),
        }
    }

    fn handle(&self, method: &str, target: &str, body: &str) -> (u16, String) {
        let raw = format!(
            "{method} {target} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        let req = Request::read_from(&mut std::io::Cursor::new(raw.into_bytes()), 1 << 20)
            .expect("well-formed request");
        let mut reader = self.store.reader();
        let resp: Response = routes::handle(
            &req,
            &mut reader,
            &RouteContext {
                store: &self.store,
                sessions: &self.sessions,
                stats: &self.stats,
                durability: &self.durability,
            },
        );
        (resp.status, String::from_utf8(resp.body).unwrap())
    }
}

// ---------------------------------------------------------------------------
// The test
// ---------------------------------------------------------------------------

#[test]
fn sigkill_mid_ingest_recovers_the_acknowledged_prefix_bit_identically() {
    if std::env::var("GRAPHSERVE_CRASH_ROLE").is_ok() {
        return; // never recurse inside a child
    }
    let dir = TempDir::new();
    let dir = &dir.0;

    // Fit once, persist: the killed server, the restarted server and the
    // control all load these exact bytes.
    let model = fit_model();
    std::fs::write(dir.join("model.kgm"), kgraph::serial::write_model(&model)).unwrap();

    // ---- Generation 1: serve, ingest, die. --------------------------------
    let port1 = dir.join("port1");
    let mut child = spawn_child(dir, &port1);
    let addr = wait_for_port(&port1);

    let acked = Arc::new(AtomicUsize::new(0));
    let ingester = {
        let acked = Arc::clone(&acked);
        std::thread::spawn(move || {
            let mut sent = 0usize;
            for i in 0..5_000 {
                sent = i + 1;
                match try_request(addr, "POST", "/models/demo/ingest", &record_body(i)) {
                    Ok((200, _)) => {
                        acked.fetch_add(1, Ordering::SeqCst);
                    }
                    _ => break, // the server is gone (or refused): stop
                }
            }
            sent
        })
    };

    // Let the burst cross several refresh/compaction/snapshot boundaries,
    // then SIGKILL with requests still in flight.
    let deadline = Instant::now() + Duration::from_secs(30);
    while acked.load(Ordering::SeqCst) < 24 {
        assert!(Instant::now() < deadline, "ingest burst never progressed");
        std::thread::sleep(Duration::from_millis(5));
    }
    child.0.kill().expect("SIGKILL child");
    child.0.wait().expect("reap child");
    let sent = ingester.join().expect("ingester thread");
    let acked = acked.load(Ordering::SeqCst);
    eprintln!("[crash-test] sent {sent}, acknowledged {acked} before SIGKILL");
    assert!(acked >= 24, "killed before the burst crossed the cadences");

    // ---- Generation 2: restart on the same state directory. ---------------
    let port2 = dir.join("port2");
    let _child2 = spawn_child(dir, &port2);
    let addr2 = wait_for_port(&port2);

    let (status, health) = request(addr2, "GET", "/healthz", "");
    assert_eq!(status, 200, "{health}");
    assert!(health.contains("\"status\":\"ok\""), "{health}");

    // Every acknowledged record survived (wal_sync_every = 1: the fsync
    // happens before the 200), nothing beyond the burst was invented, and
    // only whole records exist — a torn tail never yields partial points.
    let (status, stream) = request(addr2, "GET", "/models/demo/stream-status", "");
    assert_eq!(status, 200, "{stream}");
    let points_total = extract_u64(&stream, "\"points_total\":");
    assert_eq!(points_total % 8, 0, "partial record replayed: {stream}");
    let survived = (points_total / 8) as usize;
    assert!(
        survived >= acked,
        "data loss: {acked} acknowledged, {survived} recovered"
    );
    assert!(
        survived <= sent,
        "invented records: {sent} sent, {survived} recovered"
    );

    // ---- Bit-identical to the never-killed control. -----------------------
    let control = Control::ingest_prefix(
        Arc::new(
            kgraph::serial::read_model(&std::fs::read(dir.join("model.kgm")).unwrap()).unwrap(),
        ),
        survived,
    );
    let (status, control_stream) = control.handle("GET", "/models/demo/stream-status", "");
    assert_eq!(status, 200, "{control_stream}");
    assert_eq!(
        stream, control_stream,
        "recovered stream state diverges from the control"
    );

    let probe = probe_series();
    let (status, scores) = request(addr2, "POST", "/models/demo/score?context=3", &probe);
    assert_eq!(status, 200, "{scores}");
    let (status, control_scores) = control.handle("POST", "/models/demo/score?context=3", &probe);
    assert_eq!(status, 200, "{control_scores}");
    assert_eq!(
        scores, control_scores,
        "recovered scores diverge from the control"
    );

    // The recovered server is writable: the stream picks up where the
    // acknowledged prefix left off.
    let (status, body) = request(addr2, "POST", "/models/demo/ingest", &record_body(survived));
    assert_eq!(status, 200, "{body}");
}
