//! `graphserve` — serve fitted k-Graph models over HTTP.
//!
//! ```text
//! graphserve [--addr 127.0.0.1:7878] [--models-dir DIR] [--demo]
//!            [--workers N] [--queue N] [--budget-mb N] [--port-file PATH]
//!            [--refresh-every N] [--compact-every N]
//!            [--state-dir DIR] [--wal-sync-every N] [--snapshot-every N]
//! ```
//!
//! `--models-dir` loads every `*.kgm` file at startup (file stem = model
//! name). `--demo` fits a small model named `demo` on the synthetic CBF
//! dataset so the server is immediately usable. `--port-file` writes the
//! bound address to a file once listening — that is how scripts (and CI)
//! discover an ephemeral port. `--refresh-every` / `--compact-every` set
//! the streaming-ingest cadences (points per rescore, refreshes per
//! compaction).
//!
//! `--state-dir` turns on crash-safe durability: ingests are journaled to
//! a per-model WAL before being acknowledged, snapshots are written
//! atomically every `--snapshot-every` refreshes, and startup recovers the
//! newest snapshot plus WAL tail from the same directory.
//! `--wal-sync-every` sets the group-commit cadence (1 = fsync every
//! record; larger values trade the tail of a crash for throughput).

use graphserve::{recover, Durability, DurabilityConfig, ModelStore, Server, ServerConfig};
use kgraph::{KGraph, KGraphConfig};
use std::path::PathBuf;
use std::sync::Arc;
use streamfit::{SessionRegistry, StreamConfig};

struct Args {
    addr: String,
    models_dir: Option<PathBuf>,
    demo: bool,
    workers: usize,
    queue: usize,
    budget_mb: usize,
    port_file: Option<PathBuf>,
    stream: StreamConfig,
    state_dir: Option<PathBuf>,
    wal_sync_every: u64,
    snapshot_every: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: graphserve [--addr HOST:PORT] [--models-dir DIR] [--demo] \
         [--workers N] [--queue N] [--budget-mb N] [--port-file PATH] \
         [--refresh-every N] [--compact-every N] \
         [--state-dir DIR] [--wal-sync-every N] [--snapshot-every N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:7878".to_string(),
        models_dir: None,
        demo: false,
        workers: 0,
        queue: 64,
        budget_mb: 0,
        port_file: None,
        stream: StreamConfig::default(),
        state_dir: None,
        wal_sync_every: 1,
        snapshot_every: DurabilityConfig::default().snapshot_every,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr"),
            "--models-dir" => args.models_dir = Some(PathBuf::from(value("--models-dir"))),
            "--demo" => args.demo = true,
            "--workers" => args.workers = value("--workers").parse().unwrap_or_else(|_| usage()),
            "--queue" => args.queue = value("--queue").parse().unwrap_or_else(|_| usage()),
            "--budget-mb" => {
                args.budget_mb = value("--budget-mb").parse().unwrap_or_else(|_| usage())
            }
            "--port-file" => args.port_file = Some(PathBuf::from(value("--port-file"))),
            "--refresh-every" => {
                args.stream.refresh_every =
                    value("--refresh-every").parse().unwrap_or_else(|_| usage())
            }
            "--compact-every" => {
                args.stream.compact_every =
                    value("--compact-every").parse().unwrap_or_else(|_| usage())
            }
            "--state-dir" => args.state_dir = Some(PathBuf::from(value("--state-dir"))),
            "--wal-sync-every" => {
                args.wal_sync_every = value("--wal-sync-every")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--snapshot-every" => {
                args.snapshot_every = value("--snapshot-every")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let store = Arc::new(ModelStore::new(args.budget_mb * 1024 * 1024));

    if let Some(dir) = &args.models_dir {
        match store.load_dir(dir) {
            Ok(n) => eprintln!("loaded {n} model(s) from {}", dir.display()),
            Err(e) => {
                eprintln!("failed to load models from {}: {e}", dir.display());
                std::process::exit(1);
            }
        }
    }
    if args.demo {
        eprintln!("fitting demo model on CBF…");
        let dataset = datasets::cbf::cbf(10, 128, 42);
        let cfg = KGraphConfig {
            n_lengths: 3,
            ..KGraphConfig::new(3)
        }
        .with_seed(42);
        let model = KGraph::new(cfg).fit(&dataset);
        let bytes = store.insert("demo", Arc::new(model));
        eprintln!("demo model ready ({bytes} bytes)");
    }

    let config = ServerConfig {
        addr: args.addr,
        workers: args.workers,
        queue_capacity: args.queue,
        stream: args.stream,
        ..ServerConfig::default()
    };

    let durability = match &args.state_dir {
        Some(dir) => Arc::new(Durability::new(DurabilityConfig {
            state_dir: dir.clone(),
            wal_sync_every: args.wal_sync_every,
            snapshot_every: args.snapshot_every,
        })),
        None => Arc::new(Durability::disabled()),
    };
    let sessions = Arc::new(SessionRegistry::new(config.stream.clone()));
    // Recover AFTER the store is populated (models-dir / demo) so models
    // with durable state win over their freshly loaded versions and the
    // rest are adopted into the state directory.
    recover(&durability, &store, &sessions);

    let server = match Server::start_with(config, store, sessions, durability) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("failed to start: {e}");
            std::process::exit(1);
        }
    };
    let addr = server.addr();
    eprintln!("graphserve listening on http://{addr}");
    if let Some(path) = &args.port_file {
        if let Err(e) = std::fs::write(path, addr.to_string()) {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
    }

    // Serve until killed. The worker/accept threads hold the process open;
    // parking the main thread costs nothing.
    loop {
        std::thread::park();
    }
}
