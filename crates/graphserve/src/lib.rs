//! # graphserve — a concurrent query server over shared immutable k-Graph models
//!
//! Serving layer for the k-Graph pipeline: fitted models are immutable
//! (CSR graphs, PCA embeddings, label vectors), so any number of threads
//! can score, embed, classify and render against one `Arc<KGraphModel>`
//! without synchronisation. This crate adds the machinery around that
//! fact:
//!
//! - [`store::ModelStore`] — a named registry of `Arc`-shared models with
//!   a versioned-snapshot read path (zero locks in steady state) and LRU
//!   eviction under a byte budget; models load from `*.kgm` files
//!   ([`kgraph::serial`]) or are fitted on demand.
//! - [`server::Server`] — a hand-rolled threaded HTTP/1.1 server (the
//!   image carries no async runtime): one accept thread, a bounded
//!   admission queue that sheds overload with a fast `503` +
//!   `Retry-After`, a worker pool taking from it, per-request socket
//!   timeouts and a drain-then-exit graceful shutdown.
//! - [`routes`] — `score` / `features` / `predict` / `graphoid` /
//!   `render` / `batch` endpoints speaking JSON (and CSV on request);
//!   the batch endpoint runs its rows in order on the request's worker,
//!   through the same per-series code as the single endpoints, so results
//!   are bit-identical. Streaming ingest (`POST /models/{name}/ingest`,
//!   `GET /models/{name}/stream-status`) appends points to a
//!   [`streamfit::StreamSession`] and publishes compacted models back
//!   into the store; `GET /metrics` exposes the shared counters as
//!   plain text.
//! - [`durability`] and [`recovery`] — with a state directory, a per-model
//!   write-ahead ingest journal and snapshot pairs, restored at startup
//!   before the server binds. A model whose writes cannot be made durable
//!   (a failed write, a contradictory state directory, a name that is not
//!   a safe directory name) is degraded read-only: reads serve, ingest
//!   answers `503`, and `GET /healthz` names it.
//!
//! See `crates/graphserve/README.md` for the wire format and
//! `examples/serve_quickstart.rs` for an end-to-end walkthrough.

#![warn(missing_docs)]

pub mod durability;
pub mod fsio;
pub mod http;
pub mod json;
pub mod recovery;
pub mod routes;
pub mod server;
pub mod store;
pub mod wal;

pub use durability::{Durability, DurabilityConfig};
pub use recovery::{recover, RecoveryReport};
pub use routes::RouteContext;
pub use server::{Server, ServerConfig, ServerStats};
pub use store::{ModelStore, StoreReader};

/// Locks `mutex`, also when a holder panicked (handlers are caught).
pub(crate) fn lock<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}
