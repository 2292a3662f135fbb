//! Loopback integration tests for the `graphserve` subsystem: many
//! concurrent clients against one shared immutable model, admission
//! control under overload, and graceful drain on shutdown.

use graphserve::{ModelStore, Server, ServerConfig};
use kgraph::{KGraph, KGraphConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use tscore::{Dataset, DatasetKind, TimeSeries};

/// Fits one small model (named `demo`) into a fresh store.
fn demo_store() -> Arc<ModelStore> {
    let series: Vec<TimeSeries> = (0..8)
        .map(|p| TimeSeries::new((0..80).map(|i| ((i + p) as f64 * 0.3).sin()).collect()))
        .collect();
    let dataset = Dataset::new("demo", DatasetKind::Simulated, series);
    let cfg = KGraphConfig {
        n_lengths: 1,
        psi: 10,
        pca_sample: 300,
        n_init: 2,
        ..KGraphConfig::new(2)
    }
    .with_lengths(vec![16]);
    let store = Arc::new(ModelStore::new(0));
    store.insert("demo", Arc::new(KGraph::new(cfg).fit(&dataset)));
    store
}

/// Sends one raw HTTP request and returns `(status, body)`.
fn request(addr: std::net::SocketAddr, method: &str, target: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    parse_response(&raw)
}

fn parse_response(raw: &str) -> (u16, String) {
    let status: u16 = raw
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad response: {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn series_json(phase: usize) -> String {
    let values: Vec<String> = (0..80)
        .map(|i| ((i + phase) as f64 * 0.3).sin().to_string())
        .collect();
    format!("[{}]", values.join(","))
}

#[test]
fn concurrent_clients_share_one_model() {
    let server = Server::start(
        ServerConfig {
            workers: 4,
            queue_capacity: 256,
            ..ServerConfig::default()
        },
        demo_store(),
    )
    .expect("start server");
    let addr = server.addr();

    // 36 concurrent clients, mixing every read endpoint; all of them hit
    // the same Arc-shared model. The expected score body is fetched once
    // up front so every concurrent scorer can assert byte-equality.
    let (status, expected_scores) = request(
        addr,
        "POST",
        "/models/demo/score?context=3",
        &series_json(0),
    );
    assert_eq!(status, 200, "{expected_scores}");

    let handles: Vec<_> = (0..36)
        .map(|i| {
            let expected = expected_scores.clone();
            std::thread::spawn(move || match i % 4 {
                0 => {
                    let (status, body) = request(
                        addr,
                        "POST",
                        "/models/demo/score?context=3",
                        &series_json(0),
                    );
                    assert_eq!(status, 200, "{body}");
                    assert_eq!(body, expected, "identical input, identical scores");
                }
                1 => {
                    let (status, body) = request(addr, "GET", "/models/demo/render?format=svg", "");
                    assert_eq!(status, 200);
                    assert!(body.contains("<svg"), "{body}");
                }
                2 => {
                    let batch = format!("[{},{}]", series_json(i), series_json(i + 1));
                    let (status, body) =
                        request(addr, "POST", "/models/demo/batch?op=predict", &batch);
                    assert_eq!(status, 200, "{body}");
                    assert!(body.contains("\"cluster\":"), "{body}");
                }
                _ => {
                    let (status, body) =
                        request(addr, "POST", "/models/demo/features", &series_json(i));
                    assert_eq!(status, 200, "{body}");
                    assert!(body.starts_with("{\"features\":["), "{body}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    let stats = server.stats();
    assert!(
        stats.served.load(std::sync::atomic::Ordering::Relaxed) >= 37,
        "all requests served"
    );
    server.shutdown();
}

#[test]
fn batch_is_bit_identical_to_single_requests_over_the_wire() {
    let server = Server::start(
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
        demo_store(),
    )
    .expect("start server");
    let addr = server.addr();

    let rows: Vec<String> = (0..4).map(series_json).collect();
    let batch_body = format!("[{}]", rows.join(","));
    let (status, batch) = request(
        addr,
        "POST",
        "/models/demo/batch?op=score&context=3",
        &batch_body,
    );
    assert_eq!(status, 200, "{batch}");

    // The batch body is `{"results":[…,…]}` — each slot must equal the
    // body of the corresponding single request, byte for byte.
    let inner = batch
        .strip_prefix("{\"results\":[")
        .and_then(|s| s.strip_suffix("]}"))
        .expect("batch envelope");
    let mut rest = inner;
    for row in &rows {
        let (status, single) = request(addr, "POST", "/models/demo/score?context=3", row);
        assert_eq!(status, 200);
        assert!(
            rest.starts_with(single.as_str()),
            "batch slot diverges from single response:\nbatch …{}\nsingle {}",
            &rest[..rest.len().min(80)],
            &single[..single.len().min(80)]
        );
        rest = rest[single.len()..].trim_start_matches(',');
    }
    assert!(rest.is_empty(), "no extra batch slots");
    server.shutdown();
}

#[test]
fn overload_sheds_with_503_and_retry_after() {
    // One worker, admission queue of one: a sleeping request occupies the
    // worker, a second fills the only queue slot, and every further
    // connection must be refused at the door with a fast 503.
    let server = Server::start(
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            debug_routes: true,
            ..ServerConfig::default()
        },
        demo_store(),
    )
    .expect("start server");
    let addr = server.addr();

    // Stagger the occupiers: the first must reach the worker before the
    // second arrives, otherwise the second is itself shed at the door and
    // the queue slot stays free for the burst.
    let occupiers: Vec<_> = (0..2)
        .map(|_| {
            let h = std::thread::spawn(move || request(addr, "GET", "/debug/sleep?ms=1200", "").0);
            std::thread::sleep(Duration::from_millis(200));
            h
        })
        .collect();

    let mut shed = 0usize;
    let mut retry_after_seen = false;
    for _ in 0..10 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        write!(stream, "GET /health HTTP/1.1\r\nhost: t\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read");
        let (status, _) = parse_response(&raw);
        if status == 503 {
            shed += 1;
            retry_after_seen |= raw.to_ascii_lowercase().contains("retry-after:");
        }
    }
    assert!(shed >= 8, "expected most of the burst shed, got {shed}/10");
    assert!(retry_after_seen, "503 responses carry Retry-After");

    for h in occupiers {
        assert_eq!(h.join().unwrap(), 200, "occupiers still complete");
    }
    // Once the occupiers drained, the server serves normally again.
    let (status, _) = request(addr, "GET", "/health", "");
    assert_eq!(status, 200);
    assert!(
        server
            .stats()
            .shed
            .load(std::sync::atomic::Ordering::Relaxed)
            >= shed as u64,
        "shed counter tracks refusals"
    );
    server.shutdown();
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let server = Server::start(
        ServerConfig {
            workers: 2,
            debug_routes: true,
            ..ServerConfig::default()
        },
        demo_store(),
    )
    .expect("start server");
    let addr = server.addr();

    // A slow request is mid-flight when shutdown begins; it must still
    // complete with a 200 because workers drain admitted connections.
    let slow = std::thread::spawn(move || request(addr, "GET", "/debug/sleep?ms=700", ""));
    std::thread::sleep(Duration::from_millis(200));
    server.shutdown();

    let (status, body) = slow.join().expect("slow client");
    assert_eq!(status, 200, "in-flight request drained: {body}");
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(300)).is_err(),
        "listener is gone after shutdown"
    );
}

#[test]
fn streaming_ingest_updates_scores_without_refit() {
    // Refresh on every ingest, compact every second refresh: one test
    // exercises the whole append → refresh → compact → publish cycle.
    let server = Server::start(
        ServerConfig {
            workers: 4,
            stream: streamfit::StreamConfig {
                refresh_every: 0,
                compact_every: 2,
            },
            ..ServerConfig::default()
        },
        demo_store(),
    )
    .expect("start server");
    let addr = server.addr();

    // No session yet.
    let (status, body) = request(addr, "GET", "/models/demo/stream-status", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"active\":false"), "{body}");

    // First ingest: an in-distribution wave. The refresh cadence fires
    // inside the call, so scores are immediately visible.
    let wave: Vec<String> = (0..60)
        .map(|i| (i as f64 * 0.3).sin().to_string())
        .collect();
    let ingest_body = format!("{{\"series\":0,\"points\":[{}]}}", wave.join(","));
    let (status, body) = request(addr, "POST", "/models/demo/ingest", &ingest_body);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"refreshed\":true"), "{body}");

    let (status, body) = request(addr, "GET", "/models/demo/stream-status", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"active\":true"), "{body}");
    assert!(body.contains("\"points_total\":60"), "{body}");
    let mean_before = extract_f64(&body, "\"mean_score\":");

    // Concurrent readers keep scoring the published snapshot while the
    // writer ingests an out-of-distribution burst; nobody blocks, nobody
    // errors.
    let readers: Vec<_> = (0..6)
        .map(|_| {
            std::thread::spawn(move || {
                for _ in 0..5 {
                    let (status, body) = request(
                        addr,
                        "POST",
                        "/models/demo/score?context=3",
                        &series_json(0),
                    );
                    assert_eq!(status, 200, "{body}");
                    assert!(body.starts_with("{\"scores\":["), "{body}");
                }
            })
        })
        .collect();
    // Second ingest (compaction cadence fires → a compacted model is
    // published into the store, no refit): a flat burst the training
    // waves never produced.
    let burst = vec!["0.0"; 48].join(",");
    let (status, body) = request(
        addr,
        "POST",
        "/models/demo/ingest",
        &format!("{{\"series\":0,\"points\":[{burst}]}}"),
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"compacted\":true"), "{body}");
    for h in readers {
        h.join().expect("reader thread");
    }

    // The session rescored the series against base + delta: same
    // session, more points, different mean.
    let (status, body) = request(addr, "GET", "/models/demo/stream-status", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"points_total\":108"), "{body}");
    assert!(body.contains("\"compactions\":1"), "{body}");
    assert!(body.contains("\"delta_edges\":0"), "{body}");
    let mean_after = extract_f64(&body, "\"mean_score\":");
    assert_ne!(
        mean_before, mean_after,
        "refresh recomputed the scores: {body}"
    );

    // The model was never refit: still the 8-series fit from the seed
    // store, now backed by the compacted base.
    let (status, body) = request(addr, "GET", "/models/demo", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"n_series\":8"), "{body}");
    let (status, body) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        body.contains("graphserve_route_requests_total{route=\"ingest\"} 2"),
        "{body}"
    );
    server.shutdown();
}

/// Pulls the first number following `key` out of a JSON body.
fn extract_f64(body: &str, key: &str) -> f64 {
    let rest = &body[body.find(key).expect(key) + key.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().expect("numeric value")
}

#[test]
fn fit_score_and_evict_over_the_wire() {
    let server = Server::start(
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
        Arc::new(ModelStore::new(0)),
    )
    .expect("start server");
    let addr = server.addr();

    // Empty registry: model routes 404, health is fine.
    let (status, _) = request(addr, "POST", "/models/demo/score", "[1,2,3]");
    assert_eq!(status, 404);
    let (status, _) = request(addr, "GET", "/health", "");
    assert_eq!(status, 200);

    // Fit a model over the wire, then serve from it.
    let rows: Vec<String> = (0..6)
        .map(|p| {
            (0..60)
                .map(|i| ((i + p) as f64 * 0.4).sin().to_string())
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    let (status, body) = request(addr, "PUT", "/models/wired?k=2&seed=3", &rows.join("\n"));
    assert_eq!(status, 201, "{body}");
    let (status, body) = request(addr, "GET", "/models", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"name\":\"wired\""), "{body}");
    let (status, body) = request(addr, "POST", "/models/wired/predict", &series_json(0));
    assert_eq!(status, 200, "{body}");

    // And remove it again.
    let (status, _) = request(addr, "DELETE", "/models/wired", "");
    assert_eq!(status, 200);
    let (status, _) = request(addr, "POST", "/models/wired/predict", &series_json(0));
    assert_eq!(status, 404);
    server.shutdown();
}

#[test]
fn handler_panic_answers_500_and_the_worker_survives() {
    // One worker: if the panic killed it, nothing would answer afterwards.
    let server = Server::start(
        ServerConfig {
            workers: 1,
            debug_routes: true,
            ..ServerConfig::default()
        },
        demo_store(),
    )
    .expect("start server");
    let addr = server.addr();

    // A route that panics inside its handler on purpose.
    let (status, body) = request(addr, "GET", "/debug/panic", "");
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("\"error\""), "{body}");

    let (status, _) = request(addr, "GET", "/health", "");
    assert_eq!(status, 200);
    let (status, body) = request(addr, "POST", "/models/demo/predict", &series_json(0));
    assert_eq!(status, 200, "{body}");
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert!(
        metrics.contains("graphserve_handler_panics_total 1\n"),
        "{metrics}"
    );
    server.shutdown();
}

#[test]
fn debug_routes_answer_404_on_a_default_server() {
    let server = Server::start(ServerConfig::default(), demo_store()).expect("start server");
    let addr = server.addr();
    for path in ["/debug/sleep?ms=1", "/debug/panic"] {
        let (status, body) = request(addr, "GET", path, "");
        assert_eq!(status, 404, "{path}: {body}");
    }
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert!(
        metrics.contains("graphserve_handler_panics_total 0\n"),
        "{metrics}"
    );
    server.shutdown();
}

#[test]
fn hostile_numbers_are_refused_at_the_boundary() {
    let server = Server::start(
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
        demo_store(),
    )
    .expect("start server");
    let addr = server.addr();

    let nans = vec!["NaN"; 128].join(",");
    let huge = (0..128)
        .map(|i| ["-1e308", "0", "1e308"][i % 3])
        .collect::<Vec<_>>()
        .join(",");
    for body in [&nans, &huge] {
        for route in ["score", "features", "predict", "batch"] {
            let (status, answer) = request(addr, "POST", &format!("/models/demo/{route}"), body);
            assert_eq!(status, 422, "{route}: {answer}");
            assert!(answer.contains("must be finite"), "{route}: {answer}");
        }
    }
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert!(
        metrics.contains("graphserve_handler_panics_total 0\n"),
        "{metrics}"
    );
    server.shutdown();
}
