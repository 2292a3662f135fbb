//! The threaded server: accept loop, bounded admission queue, worker pool,
//! graceful shutdown.
//!
//! ## Threading model
//!
//! One accept thread pulls connections off the listener and *tries* to
//! admit them into a [`BoundedQueue`]. When the queue is full, the accept
//! thread itself writes a tiny `503 Service Unavailable` with a
//! `Retry-After` hint and drops the connection — load is shed at the door
//! in O(µs) instead of queueing unboundedly. A fixed pool of worker
//! threads pops admitted connections, parses one request each
//! (`Connection: close`), dispatches through [`crate::routes::handle`]
//! with a per-worker [`StoreReader`](crate::StoreReader) (lock-free model
//! lookup in steady state) and writes the response. Socket read/write
//! timeouts bound each request's wall-clock cost. A panicking handler is
//! caught: its request gets a `500`, `handler_panics_total` counts it, and
//! the worker goes on serving.
//!
//! ## Shutdown
//!
//! [`Server::shutdown`] flips a flag, closes the queue and pokes the
//! listener with a loopback connection so `accept` returns. Workers drain
//! every connection that was already admitted before exiting — in-flight
//! requests complete, new ones are refused.

use crate::durability::Durability;
use crate::http::{HttpError, Request, Response};
use crate::queue::{BoundedQueue, PushError};
use crate::routes::{self, RouteContext};
use crate::store::ModelStore;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use streamfit::{SessionRegistry, StreamConfig};

/// Tunables for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads (0 = one per hardware thread).
    pub workers: usize,
    /// Admission-queue capacity; connections beyond it get a fast 503.
    pub queue_capacity: usize,
    /// Socket read timeout per request.
    pub read_timeout: Duration,
    /// Socket write timeout per response.
    pub write_timeout: Duration,
    /// `Retry-After` seconds advertised when shedding.
    pub retry_after_secs: u32,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Cadences of the streaming ingest sessions opened by
    /// `POST /models/{name}/ingest`.
    pub stream: StreamConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_capacity: 64,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            retry_after_secs: 1,
            max_body_bytes: 8 * 1024 * 1024,
            stream: StreamConfig::default(),
        }
    }
}

/// Monotonic counters, shared by all server threads.
#[derive(Debug)]
pub struct ServerStats {
    /// Requests admitted to the queue.
    pub admitted: AtomicU64,
    /// Connections shed with a 503.
    pub shed: AtomicU64,
    /// Responses written by workers.
    pub served: AtomicU64,
    /// Highest admission-queue depth observed by the accept thread.
    pub queue_high_water: AtomicU64,
    /// Requests whose handler panicked (each answered with a 500).
    pub handler_panics: AtomicU64,
    /// Requests per entry of the route table, in table order; the last
    /// slot counts requests that matched no entry (`other`).
    pub(crate) routes: [AtomicU64; routes::ROUTE_COUNT + 1],
}

impl Default for ServerStats {
    fn default() -> Self {
        ServerStats {
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            served: AtomicU64::new(0),
            queue_high_water: AtomicU64::new(0),
            handler_panics: AtomicU64::new(0),
            routes: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A running server. Dropping it without [`Server::shutdown`] detaches the
/// threads (they keep serving until the process exits).
pub struct Server {
    addr: SocketAddr,
    queue: Arc<BoundedQueue<TcpStream>>,
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
        let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
        let stats = Arc::new(ServerStats::default());
        let shutting_down = Arc::new(AtomicBool::new(false));

        let accept_handle = {
            let queue = Arc::clone(&queue);
            let stats = Arc::clone(&stats);
            let shutting_down = Arc::clone(&shutting_down);
            let retry_after = config.retry_after_secs;
            std::thread::Builder::new()
                .name("graphserve-accept".into())
                .spawn(move || accept_loop(listener, &queue, &stats, &shutting_down, retry_after))?
        };

        let n_workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(2, |p| p.get())
        } else {
            config.workers
        };
        let mut worker_handles = Vec::with_capacity(n_workers);
        for i in 0..n_workers {
            let queue = Arc::clone(&queue);
            let stats = Arc::clone(&stats);
            let store = Arc::clone(&store);
            let sessions = Arc::clone(&sessions);
            let durability = Arc::clone(&durability);
            let cfg = config.clone();
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("graphserve-worker-{i}"))
                    .spawn(move || {
                        worker_loop(&queue, &stats, &store, &sessions, &durability, &cfg)
                    })?,
            );
        }

        Ok(Server {
            addr,
            queue,
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
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        // No new admissions past this point; close the queue so workers
        // drain what was already admitted and then exit.
        self.queue.close();
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    queue: &BoundedQueue<TcpStream>,
    stats: &ServerStats,
    shutting_down: &AtomicBool,
    retry_after_secs: u32,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shutting_down.load(Ordering::SeqCst) {
            return;
        }
        match queue.try_push(stream) {
            Ok(()) => {
                stats.admitted.fetch_add(1, Ordering::Relaxed);
                stats
                    .queue_high_water
                    .fetch_max(queue.len() as u64, Ordering::Relaxed);
            }
            Err(PushError::Full(mut stream)) => {
                stats.shed.fetch_add(1, Ordering::Relaxed);
                // Shed at the door: cheap fixed response, then drop. Short
                // timeouts keep a slow peer from stalling the accept loop.
                let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
                let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
                let resp = Response::error(503, "server is at capacity, try again")
                    .with_header("retry-after", retry_after_secs.to_string());
                let _ = resp.write_to(&mut stream);
                // Closing with the request still unread would RST the
                // connection and can discard the 503 before the client
                // reads it. Signal end-of-response, then drain until the
                // peer closes (or the short timeout fires).
                let _ = stream.shutdown(std::net::Shutdown::Write);
                let mut sink = [0u8; 1024];
                while matches!(std::io::Read::read(&mut stream, &mut sink), Ok(n) if n > 0) {}
            }
            Err(PushError::Closed(_)) => return,
        }
    }
}

fn worker_loop(
    queue: &BoundedQueue<TcpStream>,
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
    while let Some(mut stream) = queue.pop() {
        let _ = stream.set_read_timeout(Some(cfg.read_timeout));
        let _ = stream.set_write_timeout(Some(cfg.write_timeout));
        let response = match Request::read_from(&mut stream, cfg.max_body_bytes) {
            // A handler panic costs its own request a 500, never the worker.
            Ok(request) => catch_unwind(AssertUnwindSafe(|| {
                routes::handle(&request, &mut reader, &ctx)
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
            Err(HttpError::Malformed(m)) => Response::error(400, &m),
        };
        let _ = response.write_to(&mut stream);
        stats.served.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

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
}
