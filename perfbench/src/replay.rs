//! The traced run (`--trace 1`).
//!
//! 1. A shorter prefix of the workload's request sequence runs over the
//!    wire against a live server, as in the untraced run; the client
//!    keeps connect time, time to first byte and a hash of every answer.
//! 2. The same inputs are replayed in process, one request at a time:
//!    - the model is rebuilt with `KGraph::fit`, and `fit_layer`'s calls
//!      are replayed serially, stage by stage;
//!    - pass B feeds every request through `Request::read_from` →
//!      `routes::handle` → `Response::write_to` over a loopback socket
//!      pair, with a span around each of the three;
//!    - pass C repeats each request as the calls into the layers beneath
//!      the handler (store lookup, kgraph serve functions, frame, layout,
//!      SVG, streaming session, WAL, snapshot codecs), one span each;
//!    - pass U makes pass C's calls with tracing off, taking turns with C
//!      request by request; the paired C/U times give the overhead of the
//!      spans the per-layer figures come from.
//!
//! Pass B's answers must be bit-identical to the wire answers of the same
//! requests (see [`WireAnswers`]).

use crate::client::{fnv64, raw_request};
use crate::plan::{
    cadence, expected, model_name, Plan, ReadOp, Step, WriteOp, BATCH_ROWS, COMPACT_EVERY, POOL,
    PROBE_K, PROBE_LENGTHS, PROBE_MODELS, PROBE_SEED, REFRESH_EVERY, RENDER_BUDGET, ROUTES,
    SNAPSHOT_EVERY,
};
use crate::report::{median, Metrics};
use crate::trace::{self, durations_us, span, timed, Span};
use crate::wire::{self, metric, Reference, Sample, Tally};
use crate::{set_up, state_dir, Args};
use graphint::frames::graph::GraphFrame;
use graphint::plot::{DetailLevel, RenderBudget};
use graphserve::durability::IngestLog;
use graphserve::http::{Request, Response};
use graphserve::json::Json;
use graphserve::{routes, Durability, DurabilityConfig, ModelStore, RouteContext, ServerStats};
use kgraph::pipeline::{KGraph, KGraphModel};
use kgraph::KGraphConfig;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;
use streamfit::{SessionRegistry, StreamConfig};
use tscore::{Dataset, DatasetKind, TimeSeries};
use tsgraph::layout::{layout_graph, BarnesHutOptions, LayoutEngine};

/// The layers the self-time table reports, as span layer names.
const LAYERS: [&str; 18] = [
    "graphserve::http",
    "graphserve::routes",
    "graphserve::store",
    "graphserve::durability",
    "streamfit::session",
    "streamfit::persist",
    "kgraph::embed",
    "kgraph::nodes",
    "kgraph::build",
    "kgraph::features",
    "kgraph::consensus",
    "kgraph::interpret",
    "kgraph::pipeline",
    "kgraph::anomaly",
    "kgraph::graphoid",
    "kgraph::serial",
    "tsgraph::layout",
    "graphint::frames::graph",
];

/// The largest request body the server accepts (its default).
const MAX_BODY: usize = 8 * 1024 * 1024;

/// Requests up to this size are written into the socket before
/// `Request::read_from` starts, as a client's request sits in the server's
/// receive buffer when a worker picks the connection up; larger ones are
/// fed by a thread, since the socket buffers might not hold them.
const DIRECT_MAX: usize = 16 * 1024;

/// A connected loopback socket pair, so `Request::read_from` and
/// `Response::write_to` run against a real socket exactly as they do in
/// the server. Responses are drained from the client end by a thread.
struct Loopback {
    server: TcpStream,
    client: TcpStream,
    feed: Option<mpsc::Sender<Vec<u8>>>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Loopback {
    fn new() -> Result<Loopback, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let client = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        let (server, _) = listener.accept().map_err(|e| e.to_string())?;
        let mut writer = client.try_clone().map_err(|e| e.to_string())?;
        let mut drain = client.try_clone().map_err(|e| e.to_string())?;
        let (feed, rx) = mpsc::channel::<Vec<u8>>();
        let threads = vec![
            std::thread::spawn(move || {
                for bytes in rx {
                    if writer.write_all(&bytes).is_err() {
                        break;
                    }
                }
                let _ = writer.shutdown(std::net::Shutdown::Write);
            }),
            std::thread::spawn(move || {
                let mut sink = vec![0u8; 256 * 1024];
                while matches!(drain.read(&mut sink), Ok(n) if n > 0) {}
            }),
        ];
        Ok(Loopback {
            server,
            client,
            feed: Some(feed),
            threads,
        })
    }

    /// Feeds one request and serves it: read → handle → write.
    fn serve(
        &mut self,
        raw: Vec<u8>,
        route: &'static str,
        state: &State,
        reader: &mut graphserve::StoreReader<'_>,
    ) -> Result<Response, String> {
        if raw.len() <= DIRECT_MAX {
            self.client.write_all(&raw).map_err(|e| e.to_string())?;
        } else {
            self.feed
                .as_ref()
                .expect("feeder open")
                .send(raw)
                .map_err(|e| e.to_string())?;
        }
        let request = {
            let _g = span("graphserve::http", "read_from");
            Request::read_from(&mut self.server, MAX_BODY)
        }
        .map_err(|e| format!("in-process read: {e}"))?;
        let response = {
            let _g = span("graphserve::routes", route);
            routes::handle(&request, reader, &state.ctx())
        };
        {
            let _g = span("graphserve::http", "write_to");
            response
                .write_to(&mut self.server)
                .map_err(|e| format!("in-process write: {e}"))?;
        }
        Ok(response)
    }
}

impl Drop for Loopback {
    fn drop(&mut self) {
        self.feed.take();
        let _ = self.server.shutdown(std::net::Shutdown::Both);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// The in-process models: the workload's, and the writer probe's on the
/// read-only workloads.
struct Models {
    main: Arc<KGraphModel>,
    probe: Option<Arc<KGraphModel>>,
}

/// An in-process server: what the route handlers can reach.
struct State {
    store: ModelStore,
    sessions: SessionRegistry,
    stats: ServerStats,
    durability: Durability,
}

impl State {
    fn new(plan: &Plan, models: &Models, dir: PathBuf) -> State {
        let model = &models.main;
        let sessions = SessionRegistry::new(StreamConfig {
            refresh_every: REFRESH_EVERY,
            compact_every: COMPACT_EVERY,
            ..StreamConfig::default()
        });
        let durability = if plan.durable {
            let _ = std::fs::remove_dir_all(&dir);
            Durability::new(DurabilityConfig {
                state_dir: dir,
                wal_sync_every: 1,
                snapshot_every: SNAPSHOT_EVERY,
                ..DurabilityConfig::default()
            })
        } else {
            Durability::disabled()
        };
        let store = ModelStore::new(0);
        let name = model_name(plan.workload);
        store.insert(name, Arc::clone(model));
        durability.persist_initial(name, model, sessions.config());
        if let Some(probe) = &models.probe {
            for name in PROBE_MODELS {
                store.insert(name, Arc::clone(probe));
            }
        }
        State {
            store,
            sessions,
            stats: ServerStats::default(),
            durability,
        }
    }

    fn ctx(&self) -> RouteContext<'_> {
        RouteContext {
            store: &self.store,
            sessions: &self.sessions,
            stats: &self.stats,
            durability: &self.durability,
        }
    }
}

fn step_request(plan: &Plan, step: Step) -> (&'static str, Vec<u8>) {
    match step {
        Step::Read(i) => {
            let op = &plan.reads[i];
            let (m, t, b) = plan.read_request(op);
            (op.route(), raw_request(m, &t, &b))
        }
        Step::Write(w, i) => {
            let op = &plan.writers[w][i];
            let (m, t, b) = plan.write_request(w, op);
            let route = match op {
                WriteOp::Ingest { .. } => "ingest",
                WriteOp::StreamStatus => "stream_status",
            };
            (route, raw_request(m, &t, &b))
        }
    }
}

/// The wire answers an in-process step must reproduce. The wire run and
/// the replay send the same requests in the same order ([`Plan::steps`]),
/// so every answer is comparable.
struct WireAnswers {
    reads: HashMap<usize, u64>,
    writes: HashMap<(usize, usize), u64>,
}

impl WireAnswers {
    fn new(wire: &wire::Wire) -> WireAnswers {
        WireAnswers {
            reads: wire.reads.iter().map(|s| (s.index, s.hash)).collect(),
            writes: wire
                .writes
                .iter()
                .map(|s| ((s.writer, s.index), s.hash))
                .collect(),
        }
    }

    /// An error for a step the wire has no answer to (it failed there).
    fn get(&self, step: Step) -> Result<u64, String> {
        match step {
            Step::Read(i) => self.reads.get(&i),
            Step::Write(w, i) => self.writes.get(&(w, i)),
        }
        .copied()
        .ok_or_else(|| "no wire answer to compare the in-process answer with".into())
    }
}

/// Pass C's request ids carry this bit, to tell its spans from pass B's.
const PASS_C: u32 = 1 << 31;

/// What pass C counted besides its spans.
#[derive(Default)]
struct Counts {
    points_rescored: u64,
    refreshes: u64,
    compactions: u64,
    wal_syncs: u64,
    snapshots: u64,
    snapshot_bytes: Vec<f64>,
    svg_bytes: Vec<f64>,
}

/// What the tracing of pass C costs: pass C's and pass U's summed time
/// over the same calls, and the 95 % half-width of their ratio, from the
/// spread of the per-request differences.
struct Overhead {
    untraced_ms: f64,
    traced_ms: f64,
    resolution: f64,
}

/// The three in-process passes over every step, on three identical
/// in-process servers:
/// - B: the real HTTP and routing code, with spans around the three calls;
/// - C: the calls into the layers beneath the handler, one span each;
/// - U: C's calls with tracing off.
///
/// B runs first; C and U swap places every request, so warm-up and
/// machine drift fall on both alike and each request's C and U times form
/// a pair.
fn replay_requests(
    plan: &Plan,
    models: &Models,
    wire: &wire::Wire,
    work: &std::path::Path,
    tally: &mut Tally,
) -> Result<(Overhead, Counts), String> {
    let states = [
        State::new(plan, models, state_dir(work, "b")),
        State::new(plan, models, state_dir(work, "c")),
        State::new(plan, models, state_dir(work, "u")),
    ];
    let mut readers = [
        states[0].store.reader(),
        states[1].store.reader(),
        states[2].store.reader(),
    ];
    let answers = WireAnswers::new(wire);
    let mut handler = Loopback::new()?;
    let mut counts = Counts::default();
    // Pass U counts into a throwaway: its calls are pass C's again.
    let mut u_counts = Counts::default();
    let mut pairs_ns: Vec<(f64, f64)> = Vec::new();
    for (id, step) in plan.steps().into_iter().enumerate() {
        let (route, raw) = step_request(plan, step);
        let wanted = answers.get(step);
        trace::set_enabled(true);
        trace::set_request(id as u32);
        let response = handler.serve(raw, route, &states[0], &mut readers[0])?;
        let mut pair = [0.0f64; 2];
        for turn in 0..2 {
            let traced = (id + turn) % 2 == 0;
            let side = if traced { 1 } else { 2 };
            trace::set_enabled(traced);
            trace::set_request(id as u32 | PASS_C);
            let counts = if traced { &mut counts } else { &mut u_counts };
            let t0 = Instant::now();
            layer_step(
                plan,
                &answers,
                step,
                &states[side],
                &mut readers[side],
                counts,
                tally,
            )?;
            pair[side - 1] = t0.elapsed().as_nanos() as f64;
        }
        trace::set_enabled(false);
        pairs_ns.push((pair[0], pair[1]));
        match wanted {
            Ok(want) => tally.record(
                (response.status == 200 && fnv64(&response.body) == want)
                    .then_some(())
                    .ok_or_else(|| "an in-process answer differs from the wire answer".into()),
            ),
            Err(e) => tally.record(Err(e)),
        }
    }
    for w in 0..plan.writers.len() {
        if let Some(session) = states[1].sessions.get(plan.writer_model(w)) {
            let guard = session
                .lock()
                .expect("a streaming session lock was poisoned");
            counts.refreshes += guard.refreshes();
            counts.compactions += guard.compactions();
        }
    }
    let c = states[1].durability.counters();
    counts.wal_syncs = c.wal_syncs.load(std::sync::atomic::Ordering::Relaxed);
    counts.snapshots = c
        .snapshots_written
        .load(std::sync::atomic::Ordering::Relaxed);
    let want = plan
        .appends
        .iter()
        .map(|&a| expected(a, plan.durable))
        .fold((0, 0, 0, 0), |(r, c, y, n), e| {
            (
                r + e.refreshes,
                c + e.compactions,
                y + e.wal_syncs,
                n + e.snapshots,
            )
        });
    tally.record(
        ((
            counts.refreshes,
            counts.compactions,
            counts.wal_syncs,
            counts.snapshots,
        ) == want)
            .then_some(())
            .ok_or_else(|| "in-process streaming counts break the cadence arithmetic".into()),
    );

    let traced: f64 = pairs_ns.iter().map(|p| p.0).sum();
    let untraced: f64 = pairs_ns.iter().map(|p| p.1).sum();
    let n = pairs_ns.len() as f64;
    let mean_d = (traced - untraced) / n;
    let var_d = pairs_ns
        .iter()
        .map(|p| (p.0 - p.1 - mean_d).powi(2))
        .sum::<f64>()
        / (n - 1.0).max(1.0);
    let overhead = Overhead {
        untraced_ms: untraced / 1e6,
        traced_ms: traced / 1e6,
        // The summed difference has standard error sd·√n.
        resolution: 1.96 * (var_d * n).sqrt() / untraced,
    };
    Ok((overhead, counts))
}

/// Pass C for one step: the request as the calls into the layers beneath
/// the handler.
fn layer_step(
    plan: &Plan,
    answers: &WireAnswers,
    step: Step,
    state: &State,
    reader: &mut graphserve::StoreReader<'_>,
    counts: &mut Counts,
    tally: &mut Tally,
) -> Result<(), String> {
    let name = match step {
        Step::Read(_) => model_name(plan.workload),
        Step::Write(w, _) => plan.writer_model(w),
    };
    let model = timed("graphserve::store", "get", || reader.get(name)).ok_or("model vanished")?;
    let (nf, ef) = (model.config.node_features, model.config.edge_features);
    match step {
        Step::Read(i) => match plan.reads[i] {
            ReadOp::Score(s) => {
                let scores = timed("kgraph::anomaly", "anomaly_scores", || {
                    kgraph::anomaly::anomaly_scores(model.best(), &plan.pool[s], 5)
                });
                tally.record(scores.map(drop).map_err(|e| e.to_string()));
            }
            ReadOp::Predict(s) => {
                timed("kgraph::pipeline", "predict", || {
                    model.predict(&plan.pool[s])
                });
            }
            ReadOp::Features(s) => {
                let _g = span("kgraph::features", "features");
                let layer = model.best();
                let path = timed("kgraph::build", "assign_path", || {
                    layer.assign_path(&plan.pool[s])
                })
                .ok_or("series shorter than the model's length")?;
                timed("kgraph::features", "feature_row", || {
                    kgraph::features::feature_row(layer, &path, nf, ef)
                });
            }
            ReadOp::Graphoid { cluster, lambda } => {
                let stats = timed("kgraph::pipeline", "best_stats", || model.best_stats());
                timed("kgraph::graphoid", "graphoid", || {
                    if lambda {
                        kgraph::graphoid::lambda_graphoid(&stats, model.best(), cluster, 0.5)
                    } else {
                        kgraph::graphoid::gamma_graphoid(&stats, model.best(), cluster, 0.5)
                    }
                });
            }
            ReadOp::Render => {
                let frame = timed("graphint::frames::graph", "with_auto_thresholds", || {
                    GraphFrame::with_auto_thresholds(&model)
                });
                timed("tsgraph::layout", "layout_graph", || {
                    layout_graph(
                        &model.best().graph,
                        LayoutEngine::Auto,
                        BarnesHutOptions::default(),
                    )
                });
                let (svg, _) = timed("graphint::frames::graph", "render_graph_with", || {
                    frame.render_graph_with(
                        LayoutEngine::Auto,
                        DetailLevel::Auto,
                        RenderBudget::capped(RENDER_BUDGET),
                    )
                });
                counts.svg_bytes.push(svg.len() as f64);
            }
            ReadOp::Batch(start) => {
                // The handler's fan-out: rows chunked over one worker per
                // hardware thread.
                let rows: Vec<&[f64]> = (0..BATCH_ROWS)
                    .map(|r| plan.pool[(start + r) % POOL].as_slice())
                    .collect();
                let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
                let chunk = rows.len().div_ceil(workers.min(rows.len()));
                timed("kgraph::pipeline", "predict_batch", || {
                    std::thread::scope(|scope| {
                        for part in rows.chunks(chunk) {
                            let model = &model;
                            scope.spawn(move || {
                                for row in part {
                                    std::hint::black_box(model.predict(row));
                                }
                            });
                        }
                    })
                });
            }
            ReadOp::StreamStatus => session_status(state, name),
        },
        Step::Write(w, i) => {
            let WriteOp::Ingest { n, series, points } = &plan.writers[w][i] else {
                session_status(state, name);
                return Ok(());
            };
            let session = state.sessions.session_for(name, &model);
            let mut guard = session
                .lock()
                .expect("a streaming session lock was poisoned");
            let logged = timed("graphserve::durability", "log_ingest", || {
                state.durability.log_ingest(name, *series as u32, points)
            });
            let seq = match logged {
                IngestLog::Logged { seq } => seq,
                other => return Err(format!("in-process WAL refused an ingest: {other:?}")),
            };
            let due = cadence(*n);
            let op = if due.compacted {
                "append_compact"
            } else if due.refreshed {
                "append_refresh"
            } else {
                "append"
            };
            let outcome = timed("streamfit::session", op, || guard.append(*series, points))
                .map_err(|e| format!("in-process append: {e}"))?;
            if outcome.refreshed {
                counts.points_rescored += guard.points_total();
            }
            if let Some(next) = &outcome.compacted {
                timed("graphserve::store", "insert", || {
                    state.store.insert(name, Arc::clone(next))
                });
            }
            let op = if due.snapshot {
                "after_append_snapshot"
            } else {
                "after_append"
            };
            timed("graphserve::durability", op, || {
                state
                    .durability
                    .after_append(name, &guard, outcome.refreshed)
            });
            if due.snapshot {
                let model_bytes = timed("kgraph::serial", "write_model", || {
                    kgraph::serial::write_model(guard.model())
                });
                let session_bytes = timed("streamfit::persist", "write_session_state", || {
                    streamfit::write_session_state(&guard, seq)
                });
                counts
                    .snapshot_bytes
                    .push((model_bytes.len() + session_bytes.len()) as f64);
            }
            let answer = format!(
                "{{\"series\":{series},\"appended\":{},\"new_windows\":{},\
                 \"refreshed\":{},\"compacted\":{}}}",
                points.len(),
                outcome.new_windows,
                outcome.refreshed,
                outcome.compacted.is_some()
            );
            let same = answers.get(step) == Ok(fnv64(answer.as_bytes()));
            tally.record(
                if outcome.refreshed == due.refreshed
                    && outcome.compacted.is_some() == due.compacted
                    && same
                {
                    Ok(())
                } else {
                    Err(format!(
                        "in-process ingest #{n} differs from the wire answer"
                    ))
                },
            );
        }
    }
    Ok(())
}

/// `stream-status` beneath the handler: the session's summary, if one is
/// open.
fn session_status(state: &State, name: &str) {
    if let Some(session) = state.sessions.get(name) {
        let guard = session
            .lock()
            .expect("a streaming session lock was poisoned");
        timed("streamfit::session", "status", || guard.status());
    }
}

/// A training set and fit configuration, exactly as the server's `PUT`
/// handler builds them (the body parsed by the server's JSON parser).
fn parse_fit(
    body: &[u8],
    name: &str,
    k: usize,
    n_lengths: usize,
    seed: u64,
) -> Result<(Dataset, KGraphConfig), String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    let v = timed("graphserve::http", "json_parse", || Json::parse(text))?;
    let rows = v.as_arr().ok_or("fit body is not an array")?;
    let series = rows
        .iter()
        .map(|r| r.to_f64s().map(TimeSeries::new))
        .collect::<Result<Vec<_>, _>>()?;
    let ds = Dataset::new(name, DatasetKind::Other, series);
    let cfg = KGraphConfig {
        n_lengths: n_lengths.clamp(1, 16),
        ..KGraphConfig::new(k)
    }
    .with_seed(seed);
    Ok((ds, cfg))
}

/// The workload's training set and fit configuration.
fn fit_inputs(plan: &Plan) -> Result<(Dataset, KGraphConfig), String> {
    let name = model_name(plan.workload);
    match (&plan.fit, plan.probe_fits.first()) {
        (Some((_, body)), _) => parse_fit(body, name, plan.k, plan.n_lengths, plan.fit_seed),
        // `graphserve --demo` fits the probe's data set directly; parsing
        // it here times what a `PUT` of the same set costs.
        (None, Some((_, body))) => parse_fit(body, name, plan.k, plan.n_lengths, plan.fit_seed),
        (None, None) => Err("the workload has no training set".into()),
    }
}

/// `fit_layer`'s calls replayed serially, one span per stage, then the
/// consensus and length scoring. The replay must reproduce the model.
fn replay_fit(ds: &Dataset, cfg: &KGraphConfig, model: &KGraphModel, tally: &mut Tally) {
    let mut layers = Vec::new();
    for length in cfg.resolve_lengths(ds.min_len()) {
        let proj = timed("kgraph::embed", "project_subsequences", || {
            kgraph::embed::project_subsequences(ds, length, cfg.stride, cfg.pca_sample)
        });
        let assign = timed("kgraph::nodes", "radial_scan", || {
            kgraph::nodes::radial_scan(&proj, cfg.psi, cfg.kde_grid, cfg.min_density_ratio)
        });
        let mut layer = timed("kgraph::build", "build_graph", || {
            kgraph::build::build_graph_with_stride(ds, &proj, &assign, cfg.stride)
        });
        layer.labels = timed("kgraph::features", "cluster_layer", || {
            kgraph::features::cluster_layer(
                &layer,
                cfg.k,
                cfg.n_init,
                cfg.seed_for_length(length),
                cfg.node_features,
                cfg.edge_features,
            )
        });
        layers.push(layer);
    }
    let partitions: Vec<Vec<usize>> = layers.iter().map(|l| l.labels.clone()).collect();
    let mc = timed("kgraph::consensus", "consensus_matrix", || {
        kgraph::consensus::consensus_matrix(&partitions)
    });
    let labels = timed("kgraph::consensus", "consensus_labels", || {
        kgraph::consensus::consensus_labels(&mc, cfg.k, cfg.seed)
    });
    let (_, best) = timed("kgraph::interpret", "score_lengths", || {
        kgraph::interpret::score_lengths(&layers, &labels, cfg.k)
    });
    tally.record(
        (labels == model.labels && best == model.best_layer)
            .then_some(())
            .ok_or_else(|| "the staged fit replay disagrees with KGraph::fit".into()),
    );
}

fn p50_us(spans: &[Span], layer: &str, op: &str) -> f64 {
    median(&durations_us(spans, layer, op))
}

fn sum_ms(spans: &[Span], layer: &str, op: &str) -> f64 {
    durations_us(spans, layer, op).iter().sum::<f64>() / 1e3
}

/// Pass C calls made only to attribute time: each repeats work that an
/// enclosing call also does internally (`render_graph_with` runs the
/// layout; a durable snapshot encodes the model and the session), paired
/// with the layer whose self time contains that work.
const PROBES: [(&str, &str); 3] = [
    ("tsgraph::layout", "graphint::frames::graph"),
    ("kgraph::serial", "graphserve::durability"),
    ("streamfit::persist", "graphserve::durability"),
];

/// Per-request sum of the top-level spans of pass C that stand for work
/// the handler does (probes left out).
fn compute_us_by_request(spans: &[Span]) -> HashMap<u32, f64> {
    let mut out = HashMap::new();
    for s in spans {
        if s.parent == u32::MAX && !PROBES.iter().any(|(p, _)| *p == s.layer) {
            *out.entry(s.request).or_insert(0.0) += s.dur_ns() as f64 / 1e3;
        }
    }
    out
}

pub fn run(args: &Args, plan: &Plan, tally: &mut Tally) -> Result<Metrics, String> {
    // What one span costs to record, measured before any other span.
    let span_ns = trace::span_cost_ns(200_000);

    // 1. The wire prefix.
    let ready = set_up(args, plan, tally)?;
    let addr = ready.server.addr;
    let reference = Reference::warm_up(plan, addr, tally);
    let wire = wire::run(plan, &reference, &ready.server, tally);
    wire::final_checks(plan, addr, &wire.acked_points, tally);
    let server_metrics = wire::get(addr, "/metrics")?.text().to_string();
    drop(ready.server);

    // 2. The model and the staged fit.
    trace::set_enabled(true);
    let (ds, cfg) = fit_inputs(plan)?;
    let model = Arc::new(timed("kgraph::pipeline", "fit", || {
        KGraph::new(cfg.clone()).fit(&ds)
    }));
    replay_fit(&ds, &cfg, &model, tally);
    trace::set_enabled(false);
    let fit_spans = trace::take();
    // The probe models are fitted from identical bodies: one fit, shared.
    let probe = match plan.probe_fits.first() {
        Some((_, body)) => {
            let (ds, cfg) = parse_fit(body, PROBE_MODELS[0], PROBE_K, PROBE_LENGTHS, PROBE_SEED)?;
            Some(Arc::new(KGraph::new(cfg).fit(&ds)))
        }
        None => None,
    };
    let models = Models { main: model, probe };

    // 3. The three request passes.
    let (overhead, counts) = replay_requests(plan, &models, &wire, &args.work, tally)?;
    let replayed = trace::take();
    let trace_file = args
        .work
        .join(format!("trace-{}-{}.csv", plan.workload.name(), args.seed));
    trace::write_csv(&[&fit_spans, &replayed], &trace_file)
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;
    eprintln!("spans written to {}", trace_file.display());
    // From here on only durations and self times are used, so pass B's and
    // pass C's spans can be split apart.
    let (mut c, b): (Vec<Span>, Vec<Span>) =
        replayed.into_iter().partition(|s| s.request & PASS_C != 0);
    for s in &mut c {
        s.request &= !PASS_C;
    }

    let mut m = Metrics::default();

    // graphserve.server (client side against the traced handler times).
    let handle_p50: HashMap<&str, f64> = ROUTES
        .iter()
        .map(|r| (*r, p50_us(&b, "graphserve::routes", r) / 1e3))
        .collect();
    let samples: Vec<&Sample> = wire.reads.iter().chain(&wire.writes).collect();
    let connect: Vec<f64> = samples.iter().map(|s| s.connect_ms).collect();
    let wait: Vec<f64> = samples
        .iter()
        .map(|s| s.ttfb_ms - handle_p50[s.route])
        .collect();
    let counter = |name: &str| metric(&server_metrics, name).map_or(f64::NAN, |v| v as f64);
    m.put("server.connect_p50_ms", median(&connect), "ms");
    m.put("server.wait_p50_ms", median(&wait), "ms");
    m.put(
        "server.queue_high_water",
        counter("graphserve_queue_depth_high_water"),
        "count",
    );
    m.put(
        "server.shed",
        counter("graphserve_requests_shed_total"),
        "count",
    );

    // graphserve.http
    m.put(
        "http.read_us",
        p50_us(&b, "graphserve::http", "read_from"),
        "us",
    );
    m.put(
        "http.write_us",
        p50_us(&b, "graphserve::http", "write_to"),
        "us",
    );
    m.put(
        "http.fit_body_parse_ms",
        sum_ms(&fit_spans, "graphserve::http", "json_parse"),
        "ms",
    );

    // graphserve.routes: handle time, and glue = handle − the same
    // request's layer calls in pass C.
    let compute = compute_us_by_request(&c);
    let mut routes_self_ms = 0.0;
    for route in ROUTES {
        let mut handle = Vec::new();
        let mut glue = Vec::new();
        for s in b
            .iter()
            .filter(|s| s.layer == "graphserve::routes" && s.op == route)
        {
            let h = s.dur_ns() as f64 / 1e3;
            let g = h - compute.get(&s.request).copied().unwrap_or(0.0);
            handle.push(h);
            glue.push(g);
            routes_self_ms += g.max(0.0) / 1e3;
        }
        m.put(format!("routes.handle_us.{route}"), median(&handle), "us");
        m.put(format!("routes.glue_us.{route}"), median(&glue), "us");
    }

    // graphserve.store
    m.put(
        "store.get_ns",
        p50_us(&c, "graphserve::store", "get") * 1e3,
        "ns",
    );
    m.put(
        "store.insert_us",
        p50_us(&c, "graphserve::store", "insert"),
        "us",
    );

    // kgraph serve
    m.put(
        "kgraph.predict_us",
        p50_us(&c, "kgraph::pipeline", "predict"),
        "us",
    );
    m.put(
        "kgraph.score_us",
        p50_us(&c, "kgraph::anomaly", "anomaly_scores"),
        "us",
    );
    m.put(
        "kgraph.features_us",
        p50_us(&c, "kgraph::features", "features"),
        "us",
    );
    m.put(
        "kgraph.best_stats_us",
        p50_us(&c, "kgraph::pipeline", "best_stats"),
        "us",
    );
    m.put(
        "kgraph.graphoid_us",
        p50_us(&c, "kgraph::graphoid", "graphoid"),
        "us",
    );

    // Render
    m.put(
        "graphint.frame_us",
        p50_us(&c, "graphint::frames::graph", "with_auto_thresholds"),
        "us",
    );
    m.put(
        "tsgraph.layout_us",
        p50_us(&c, "tsgraph::layout", "layout_graph"),
        "us",
    );
    m.put(
        "graphint.render_us",
        p50_us(&c, "graphint::frames::graph", "render_graph_with"),
        "us",
    );
    m.put("graphint.svg_bytes", median(&counts.svg_bytes), "bytes");

    // kgraph fit
    let stages = [
        ("fit.embed_ms", "kgraph::embed", "project_subsequences"),
        ("fit.radial_scan_ms", "kgraph::nodes", "radial_scan"),
        ("fit.build_ms", "kgraph::build", "build_graph"),
        ("fit.cluster_ms", "kgraph::features", "cluster_layer"),
        (
            "fit.consensus_matrix_ms",
            "kgraph::consensus",
            "consensus_matrix",
        ),
        (
            "fit.consensus_labels_ms",
            "kgraph::consensus",
            "consensus_labels",
        ),
        ("fit.score_lengths_ms", "kgraph::interpret", "score_lengths"),
    ];
    let mut stage_sum = 0.0;
    for (name, layer, op) in stages {
        let v = sum_ms(&fit_spans, layer, op);
        stage_sum += v;
        m.put(name, v, "ms");
    }
    let total = sum_ms(&fit_spans, "kgraph::pipeline", "fit");
    m.put("fit.total_ms", total, "ms");
    m.put("fit.parallel_ratio", stage_sum / total, "ratio");

    // streamfit.session (in process) and the client-side ingest classes.
    m.put(
        "stream.append_us",
        p50_us(&c, "streamfit::session", "append"),
        "us",
    );
    m.put(
        "stream.refresh_ms",
        p50_us(&c, "streamfit::session", "append_refresh") / 1e3,
        "ms",
    );
    m.put(
        "stream.compact_ms",
        p50_us(&c, "streamfit::session", "append_compact") / 1e3,
        "ms",
    );
    m.put(
        "stream.points_rescored",
        counts.points_rescored as f64,
        "count",
    );
    m.put("stream.refreshes", counts.refreshes as f64, "count");
    m.put("stream.compactions", counts.compactions as f64, "count");
    let ingest_class = |refresh: bool, compact: bool| -> f64 {
        let v: Vec<f64> = wire
            .writes
            .iter()
            .filter(|s| s.route == "ingest" && s.refreshed == refresh && s.compacted == compact)
            .map(|s| s.total_ms)
            .collect();
        median(&v)
    };
    m.put("ingest.plain_p50_ms", ingest_class(false, false), "ms");
    m.put("ingest.refresh_p50_ms", ingest_class(true, false), "ms");
    m.put("ingest.compact_p50_ms", ingest_class(true, true), "ms");

    // Durability
    m.put(
        "wal.log_ingest_us",
        p50_us(&c, "graphserve::durability", "log_ingest"),
        "us",
    );
    m.put(
        "durability.after_append_ms",
        p50_us(&c, "graphserve::durability", "after_append_snapshot") / 1e3,
        "ms",
    );
    m.put(
        "serial.write_model_ms",
        p50_us(&c, "kgraph::serial", "write_model") / 1e3,
        "ms",
    );
    m.put(
        "persist.write_session_ms",
        p50_us(&c, "streamfit::persist", "write_session_state") / 1e3,
        "ms",
    );
    m.put("wal.syncs", counts.wal_syncs as f64, "count");
    m.put("snapshots.written", counts.snapshots as f64, "count");
    m.put("snapshot.bytes", median(&counts.snapshot_bytes), "bytes");

    // Tracing overhead of pass C, whose spans the layer figures come from:
    // its calls timed with spans on (C) and off (U), paired per request.
    // The wall-clock ratio is only resolved when it differs from 1 by more
    // than its 95 % half-width; the bound is its upper end. The span-cost
    // estimate (spans recorded × cost of one) resolves what the wall clock
    // cannot.
    let ratio = overhead.traced_ms / overhead.untraced_ms;
    let c_spans = c.len() as f64;
    let estimate = 1.0 + c_spans * span_ns / 1e6 / overhead.untraced_ms;
    eprintln!(
        "tracing overhead: wall-clock ratio {ratio:.4} ± {:.4} ({}); span cost {span_ns:.1} ns × {c_spans} spans = ratio {estimate:.5}",
        overhead.resolution,
        if (ratio - 1.0).abs() > overhead.resolution {
            "resolved"
        } else {
            "unresolved"
        }
    );
    m.put("trace.untraced_ms", overhead.untraced_ms, "ms");
    m.put("trace.traced_ms", overhead.traced_ms, "ms");
    m.put(
        "trace.overhead_bound_ratio",
        ratio + overhead.resolution,
        "ratio",
    );
    m.put("trace.span_ns", span_ns, "ns");
    m.put("trace.span_overhead_ratio", estimate, "ratio");

    // Self time per layer: HTTP from pass B, routes as the glue above,
    // everything else from pass C and the staged fit (the `KGraph::fit`
    // span itself is left out: the stages already account for its work).
    let staged: Vec<Span> = fit_spans
        .iter()
        .filter(|s| !(s.layer == "kgraph::pipeline" && s.op == "fit"))
        .chain(&c)
        .cloned()
        .collect();
    let mut self_time: HashMap<&str, f64> = trace::self_ms(&staged).into_iter().collect();
    let http_b: f64 = trace::self_ms(&b)
        .into_iter()
        .filter(|(l, _)| *l == "graphserve::http")
        .map(|(_, v)| v)
        .sum();
    *self_time.entry("graphserve::http").or_insert(0.0) += http_b;
    self_time.insert("graphserve::routes", routes_self_ms);
    // A probe's time also sits inside its enclosing layer's call; count it
    // once, under the probe's layer. Without durability no snapshot runs,
    // so the codec probes stand alone.
    for (probe, enclosing) in PROBES {
        if enclosing == "graphserve::durability" && !plan.durable {
            continue;
        }
        let t = self_time.get(probe).copied().unwrap_or(0.0);
        if let Some(v) = self_time.get_mut(enclosing) {
            *v = (*v - t).max(0.0);
        }
    }
    for layer in LAYERS {
        m.put(
            format!("self_ms.{}", layer.replace("::", ".")),
            self_time.get(layer).copied().unwrap_or(0.0),
            "ms",
        );
    }
    Ok(m)
}
