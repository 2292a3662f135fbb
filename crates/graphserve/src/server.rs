//! The threaded server: accept loop, bounded admission queue, worker
//! pool, graceful shutdown.
//!
//! ## Threading model
//!
//! One accept thread pulls connections off the listener and pushes them
//! onto a queue of [`ServerConfig::queue_capacity`] slots, a `VecDeque`
//! behind a mutex. When the queue is full, the accept thread itself
//! writes a tiny `503 Service Unavailable` with a `Retry-After` hint and
//! closes the connection — load is shed at the door instead of queueing
//! unboundedly. A fixed pool of worker threads takes admitted
//! connections from the queue (idle workers wait on a condition variable,
//! so each admission wakes one of them), parses one request each
//! (`Connection: close`), dispatches through
//! [`crate::routes::dispatch`] (with [`ServerConfig::debug_routes`]) and a
//! per-worker [`StoreReader`](crate::StoreReader) (lock-free model lookup
//! in steady state) and writes the response. Socket read/write timeouts
//! bound each request's wall-clock cost. An answer sent before the request
//! was read to its end (the shed `503`, and a `400`, `408` or `413`) is
//! followed by a bounded polite close, so the client reads it instead of
//! a reset. A panicking handler is caught:
//! its request gets a `500`, `handler_panics_total` counts it, and the
//! worker goes on serving.
//!
//! ## Shutdown
//!
//! [`Server::shutdown`] flips a flag and pokes the listener with a
//! loopback connection so `accept` returns. On its way out the accept
//! thread marks the queue closed and wakes every idle worker: workers
//! still take every connection that was already admitted, then find the
//! queue closed and empty and exit — in-flight requests complete, new
//! ones are refused.

use crate::durability::Durability;
use crate::http::{HttpError, Request, Response, RETRY_AFTER_SECS};
use crate::routes::{self, RouteContext};
use crate::store::ModelStore;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use streamfit::{SessionRegistry, StreamConfig};

/// Tunables for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads (0 = one per hardware thread).
    pub workers: usize,
    /// Admission-queue capacity (min 1); connections beyond it get a
    /// fast 503.
    pub queue_capacity: usize,
    /// Socket read timeout per request.
    pub read_timeout: Duration,
    /// Socket write timeout per response.
    pub write_timeout: Duration,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Cadences of the streaming ingest sessions opened by
    /// `POST /models/{name}/ingest`.
    pub stream: StreamConfig,
    /// Serve `GET /debug/sleep` and `GET /debug/panic`, which park a
    /// worker or panic on purpose (for tests of admission control and
    /// panic isolation). Off by default: both paths then answer 404.
    pub debug_routes: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_capacity: 64,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_body_bytes: 8 * 1024 * 1024,
            stream: StreamConfig::default(),
            debug_routes: false,
        }
    }
}

/// Monotonic counters, shared by all server threads.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Requests admitted to the queue.
    pub admitted: AtomicU64,
    /// Connections shed with a 503.
    pub shed: AtomicU64,
    /// Responses written by workers.
    pub served: AtomicU64,
    /// Highest admission-queue length observed by the accept thread.
    pub queue_high_water: AtomicU64,
    /// Requests whose handler panicked (each answered with a 500).
    pub handler_panics: AtomicU64,
    /// Requests per entry of the route table, in table order; the last
    /// slot counts requests that matched no entry (`other`).
    pub(crate) routes: [AtomicU64; routes::ROUTE_COUNT + 1],
}

/// A running server. Dropping it without [`Server::shutdown`] detaches the
/// threads (they keep serving until the process exits).
pub struct Server {
    addr: SocketAddr,
    stats: Arc<ServerStats>,
    sessions: Arc<SessionRegistry>,
    shutting_down: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts serving `store` in background threads, without
    /// durability (nothing is persisted across restarts).
    pub fn start(config: ServerConfig, store: Arc<ModelStore>) -> std::io::Result<Server> {
        let sessions = Arc::new(SessionRegistry::new(config.stream.clone()));
        Self::start_with(config, store, sessions, Arc::new(Durability::disabled()))
    }

    /// Binds and starts serving with an externally built session registry
    /// and durability layer — the entry point used after startup recovery,
    /// which installs recovered sessions into `sessions` before the first
    /// request can race them.
    pub fn start_with(
        config: ServerConfig,
        store: Arc<ModelStore>,
        sessions: Arc<SessionRegistry>,
        durability: Arc<Durability>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let admission = Arc::new(Admission::default());
        let capacity = config.queue_capacity.max(1);
        let stats = Arc::new(ServerStats::default());
        let shutting_down = Arc::new(AtomicBool::new(false));

        let accept_handle = {
            let admission = Arc::clone(&admission);
            let stats = Arc::clone(&stats);
            let shutting_down = Arc::clone(&shutting_down);
            std::thread::Builder::new()
                .name("graphserve-accept".into())
                .spawn(move || {
                    accept_loop(listener, capacity, &admission, &stats, &shutting_down);
                    // Wake every idle worker to drain and exit.
                    admission.lock().closed = true;
                    admission.ready.notify_all();
                })?
        };

        let n_workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(2, |p| p.get())
        } else {
            config.workers
        };
        let mut worker_handles = Vec::with_capacity(n_workers);
        for i in 0..n_workers {
            let admission = Arc::clone(&admission);
            let stats = Arc::clone(&stats);
            let store = Arc::clone(&store);
            let sessions = Arc::clone(&sessions);
            let durability = Arc::clone(&durability);
            let cfg = config.clone();
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("graphserve-worker-{i}"))
                    .spawn(move || {
                        worker_loop(&admission, &stats, &store, &sessions, &durability, &cfg)
                    })?,
            );
        }

        Ok(Server {
            addr,
            stats,
            sessions,
            shutting_down,
            accept_handle: Some(accept_handle),
            worker_handles,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared request counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The streaming-session registry backing the ingest endpoints.
    pub fn sessions(&self) -> &Arc<SessionRegistry> {
        &self.sessions
    }

    /// Stops accepting, drains in-flight requests, joins every thread.
    pub fn shutdown(mut self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        // Poke the blocking accept() so it observes the flag. The woken
        // connection is dropped unanswered, which is fine: it is ours.
        let _ = TcpStream::connect(self.addr);
        // Once the accept thread has returned the queue is closed, and
        // workers drain what was already admitted before they exit.
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The admission queue the accept thread pushes to and the workers take
/// from, and the condition variable idle workers wait on, so each
/// admission wakes one of them.
#[derive(Default)]
struct Admission {
    queue: Mutex<Queue>,
    ready: Condvar,
}

#[derive(Default)]
struct Queue {
    streams: VecDeque<TcpStream>,
    /// Set when the accept thread returns: nothing more will be pushed.
    closed: bool,
}

impl Admission {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The next admitted connection, or `None` once the queue is closed
    /// and drained. The lock is released before the request is served.
    fn next(&self) -> Option<TcpStream> {
        let mut queue = self.lock();
        loop {
            if let Some(stream) = queue.streams.pop_front() {
                return Some(stream);
            }
            if queue.closed {
                return None;
            }
            queue = self.ready.wait(queue).unwrap_or_else(|e| e.into_inner());
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    capacity: usize,
    admission: &Admission,
    stats: &ServerStats,
    shutting_down: &AtomicBool,
) {
    for stream in listener.incoming() {
        if shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let Ok(mut stream) = stream else { continue };
        let mut queue = admission.lock();
        if queue.streams.len() < capacity {
            queue.streams.push_back(stream);
            stats
                .queue_high_water
                .fetch_max(queue.streams.len() as u64, Ordering::Relaxed);
            drop(queue);
            admission.ready.notify_one();
            stats.admitted.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        drop(queue);
        stats.shed.fetch_add(1, Ordering::Relaxed);
        // Shed at the door: cheap fixed response, then close. Short
        // timeouts keep a slow peer from stalling the accept loop.
        let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
        let resp = Response::error(503, "server is at capacity, try again")
            .with_header("retry-after", RETRY_AFTER_SECS.to_string());
        let _ = resp.write_to(&mut stream);
        close_politely(stream);
    }
}

/// The longest [`close_politely`] waits for a client to stop sending, in
/// all.
const CLOSE_WAIT: Duration = Duration::from_millis(250);

/// The most bytes [`close_politely`] reads and drops.
const CLOSE_DRAIN_BYTES: usize = 64 * 1024;

/// Closes a connection whose request was not read to its end. Dropping a
/// socket with bytes unread makes the kernel reset the connection, which
/// can discard the answer before the client reads it. So this shuts down
/// the write side, which ends the answer, then reads and drops what the
/// client still sends until it closes, within [`CLOSE_WAIT`] and
/// [`CLOSE_DRAIN_BYTES`] in all, so a client that trickles bytes cannot
/// hold the thread.
fn close_politely(mut stream: TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + CLOSE_WAIT;
    let mut sink = [0u8; 4096];
    let mut drained = 0;
    while drained < CLOSE_DRAIN_BYTES {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match stream.read(&mut sink) {
            Ok(n) if n > 0 => drained += n,
            _ => return,
        }
    }
}

fn worker_loop(
    admission: &Admission,
    stats: &ServerStats,
    store: &ModelStore,
    sessions: &SessionRegistry,
    durability: &Durability,
    cfg: &ServerConfig,
) {
    let mut reader = store.reader();
    let ctx = RouteContext {
        store,
        sessions,
        stats,
        durability,
    };
    while let Some(mut stream) = admission.next() {
        let _ = stream.set_read_timeout(Some(cfg.read_timeout));
        let _ = stream.set_write_timeout(Some(cfg.write_timeout));
        let read = Request::read_from(&mut stream, cfg.max_body_bytes);
        let response = match &read {
            // A handler panic costs its own request a 500, never the worker.
            Ok(request) => catch_unwind(AssertUnwindSafe(|| {
                routes::dispatch(request, &mut reader, &ctx, cfg.debug_routes)
            }))
            .unwrap_or_else(|_| {
                stats.handler_panics.fetch_add(1, Ordering::Relaxed);
                Response::error(500, "internal error while handling the request")
            }),
            Err(HttpError::BodyTooLarge { declared, limit }) => Response::error(
                413,
                &format!("body of {declared} bytes exceeds limit {limit}"),
            ),
            Err(HttpError::Io(e))
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
            {
                Response::error(408, "timed out reading request")
            }
            // Peer vanished mid-request; nothing to answer.
            Err(HttpError::Io(_)) => continue,
            Err(HttpError::Malformed(m)) => Response::error(400, m),
        };
        let _ = response.write_to(&mut stream);
        stats.served.fetch_add(1, Ordering::Relaxed);
        if read.is_err() {
            close_politely(stream);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn get(addr: SocketAddr, target: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {target} HTTP/1.1\r\nhost: t\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_health_and_shuts_down() {
        let store = Arc::new(ModelStore::new(0));
        let server = Server::start(
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
            store,
        )
        .unwrap();
        let addr = server.addr();
        let resp = get(addr, "/health");
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        assert!(resp.contains("\"status\":\"ok\""));
        assert_eq!(server.stats().served.load(Ordering::Relaxed), 1);
        server.shutdown();
        // The port stops answering after shutdown.
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(300)).is_err());
    }

    #[test]
    fn malformed_requests_get_400() {
        let store = Arc::new(ModelStore::new(0));
        let server = Server::start(
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
            store,
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"THIS IS NOT HTTP\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        server.shutdown();
    }

    #[test]
    fn a_trickling_shed_client_does_not_hold_the_accept_thread() {
        let server = Server::start(
            ServerConfig {
                workers: 1,
                queue_capacity: 1,
                ..ServerConfig::default()
            },
            Arc::new(ModelStore::new(0)),
        )
        .unwrap();
        let addr = server.addr();
        let stats = server.stats();
        let seen = || stats.admitted.load(Ordering::SeqCst) + stats.shed.load(Ordering::SeqCst);
        // Idle connections take the worker and the queue slot until one is
        // shed. Each is counted by the accept thread before the next.
        let mut idle = Vec::new();
        let mut shed = loop {
            let before = seen();
            let stream = TcpStream::connect(addr).unwrap();
            while seen() == before {
                std::thread::yield_now();
            }
            if stats.shed.load(Ordering::SeqCst) > 0 {
                break stream;
            }
            idle.push(stream);
        };
        let mut answer = String::new();
        shed.read_to_string(&mut answer).unwrap();
        assert!(answer.starts_with("HTTP/1.1 503"), "{answer}");

        // The shed client goes on sending a byte every 20 ms, for up to
        // 30 s, until it is told to stop.
        let stop = Arc::new(AtomicBool::new(false));
        let trickler = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                for _ in 0..1_500 {
                    if stop.load(Ordering::SeqCst) {
                        return true;
                    }
                    let _ = shed.write_all(b"x");
                    std::thread::sleep(Duration::from_millis(20));
                }
                false
            })
        };
        drop(idle);
        let resp = get(addr, "/health");
        stop.store(true, Ordering::SeqCst);
        assert!(
            trickler.join().unwrap(),
            "the next connection was answered only once the shed client stopped sending"
        );
        assert!(resp.starts_with("HTTP/1.1 "), "{resp}");
        server.shutdown();
    }

    #[test]
    fn an_oversized_head_is_answered_without_a_reset() {
        let server = Server::start(
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
            Arc::new(ModelStore::new(0)),
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let pad = "a".repeat(17 * 1024);
        write!(stream, "GET /health HTTP/1.1\r\nx-pad: {pad}\r\n\r\n").unwrap();
        stream
            .shutdown(Shutdown::Write)
            .expect("the connection is open");
        let mut out = String::new();
        stream
            .read_to_string(&mut out)
            .expect("the answer ends in a close, not a reset");
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        assert!(out.contains("request head too large"), "{out}");
        server.shutdown();
    }
}
