//! End-to-end tour of the `graphserve` subsystem: fit a model, register
//! it, start the server on an ephemeral port, query every endpoint over
//! loopback, and shut down cleanly.
//!
//! ```sh
//! cargo run --release --example serve_quickstart
//! ```

use graphserve::{ModelStore, Server, ServerConfig};
use kgraph::{KGraph, KGraphConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

fn request(addr: std::net::SocketAddr, method: &str, target: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nhost: quickstart\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("receive");
    let status = raw
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn main() {
    // 1. Fit a k-Graph model on the synthetic CBF dataset.
    println!("fitting a k=3 model on CBF…");
    let t0 = Instant::now();
    let dataset = datasets::cbf::cbf(10, 128, 42);
    let cfg = KGraphConfig {
        n_lengths: 2,
        ..KGraphConfig::new(3)
    }
    .with_seed(42);
    let model = KGraph::new(cfg).fit(&dataset);
    println!(
        "  fitted in {:.1?}: best length {}, {} nodes",
        t0.elapsed(),
        model.best_length(),
        model.best().graph.node_count()
    );

    // 2. Register it and start the server on an ephemeral port.
    let store = Arc::new(ModelStore::new(256 * 1024 * 1024));
    store.insert("cbf", Arc::new(model));
    let server = Server::start(ServerConfig::default(), store).expect("start server");
    let addr = server.addr();
    println!("serving on http://{addr}\n");

    // 3. Walk the API.
    let (status, body) = request(addr, "GET", "/health", "");
    println!("GET /health            -> {status} {body}");
    let (status, body) = request(addr, "GET", "/models", "");
    println!("GET /models            -> {status} {body}");

    let series: Vec<String> = dataset.series()[0]
        .values()
        .iter()
        .map(f64::to_string)
        .collect();
    let series_body = format!("[{}]", series.join(","));

    let (status, body) = request(addr, "POST", "/models/cbf/predict", &series_body);
    println!("POST /models/cbf/predict -> {status} {body}");
    let (status, body) = request(addr, "POST", "/models/cbf/score?context=5", &series_body);
    println!(
        "POST /models/cbf/score   -> {status} ({} bytes of scores)",
        body.len()
    );
    let (status, body) = request(
        addr,
        "GET",
        "/models/cbf/graphoid?cluster=0&kind=gamma&threshold=0.5",
        "",
    );
    println!(
        "GET /models/cbf/graphoid -> {status} ({} bytes)",
        body.len()
    );
    let (status, body) = request(addr, "GET", "/models/cbf/render?format=svg", "");
    println!(
        "GET /models/cbf/render   -> {status} ({} bytes of SVG)",
        body.len()
    );

    // 4. Batch: several series in one request, answered in order.
    let batch_body = format!("[{series_body},{series_body},{series_body}]");
    let (status, body) = request(addr, "POST", "/models/cbf/batch?op=predict", &batch_body);
    println!("POST /models/cbf/batch   -> {status} {body}");

    // 5. Errors are structured: short series are a 422, unknown models 404.
    let (status, body) = request(addr, "POST", "/models/cbf/score", "[1,2,3]");
    println!("short series             -> {status} {body}");
    let (status, body) = request(addr, "POST", "/models/nope/score", &series_body);
    println!("unknown model            -> {status} {body}");

    // 6. Drain and exit.
    server.shutdown();
    println!("\nserver drained and stopped.");
}
