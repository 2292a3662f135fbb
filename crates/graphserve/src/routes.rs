//! Request routing and endpoint handlers.
//!
//! `ROUTES` is the one list of routes: a method, a path pattern, a
//! `/metrics` label and a handler per entry. [`handle`] matches a request
//! against it once, and that match picks the handler, the label and the
//! request counter. Entries are tried in order and the first match wins,
//! so order matters where two patterns match the same path. A request no
//! entry matches counts as `other` and answers 405 when no entry uses its
//! method, 404 when one does.
//!
//! Every data endpoint resolves its model to an `Arc<KGraphModel>` through
//! the worker's [`StoreReader`] (lock-free in steady state) and then reads
//! only immutable state. Single-series and batch endpoints share one
//! per-series op dispatch (`Op::run`), so a batch response is
//! bit-identical to the equivalent sequence of single requests. One
//! decoder, `decode_body`, reads every request body, and every JSON answer
//! is written through [`JsonWriter`].
//!
//! Error mapping follows the [`TsError`] contract: caller-side problems
//! (short series, bad parameters) are 4xx, model-side degeneracy is 5xx,
//! unparseable bodies are 400.

use crate::durability::{Durability, IngestLog};
use crate::http::{Request, Response, RETRY_AFTER_SECS};
use crate::json::{Json, JsonWriter};
use crate::lock;
use crate::server::ServerStats;
use crate::store::{ModelStore, StoreReader};
use graphint::frames::graph::GraphFrame;
use graphint::plot::{DetailLevel, RenderBudget};
use kgraph::anomaly::anomaly_scores;
use kgraph::features::feature_row;
use kgraph::graphoid::{gamma_graphoid, lambda_graphoid};
use kgraph::pipeline::{KGraph, KGraphModel};
use kgraph::KGraphConfig;
use std::fmt::Write as _;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use streamfit::{SessionRegistry, StreamSession};
use tscore::error::TsError;
use tscore::{Dataset, DatasetKind, TimeSeries};
use tsgraph::layout::LayoutEngine;

/// Everything a handler can reach besides the per-worker [`StoreReader`]:
/// the store (admin routes), the streaming-session registry (ingest
/// routes) and the shared counters (metrics).
pub struct RouteContext<'a> {
    /// The model registry; only admin routes (fit/delete/ingest
    /// publication) write to it.
    pub store: &'a ModelStore,
    /// Streaming sessions keyed by model name.
    pub sessions: &'a SessionRegistry,
    /// Shared monotonic counters.
    pub stats: &'a ServerStats,
    /// The durability layer (WAL + snapshots); a disabled instance when
    /// the server runs without a state directory.
    pub durability: &'a Durability,
}

/// Maximum number of series accepted in one batch request.
const MAX_BATCH_ROWS: usize = 4096;

/// Upper bound on `/debug/sleep` (milliseconds) so the route cannot be
/// used to park workers indefinitely.
const MAX_SLEEP_MS: u64 = 5_000;

/// Maps a domain error onto an HTTP status: model-side degeneracy is the
/// server's fault (500), everything else blames the request (422).
fn status_for(e: &TsError) -> u16 {
    match e {
        TsError::Degenerate(_) => 500,
        _ => 422,
    }
}

fn error_response(e: &TsError) -> Response {
    Response::error(status_for(e), &e.to_string())
}

// ---------------------------------------------------------------------------
// The route table
// ---------------------------------------------------------------------------

/// The routes, in match order: (method, path pattern, `/metrics` label,
/// handler). A pattern is `/`-separated literal segments; the segment
/// `{name}` matches any one path segment and reaches the handler as
/// [`Call::name`]. Counters and `/metrics` lines follow this order.
#[rustfmt::skip]
const ROUTES: &[(&str, &str, &str, Handler)] = &[
    ("GET",    "/health",                      "health",        health),
    ("GET",    "/healthz",                     "healthz",       healthz),
    ("GET",    "/models",                      "models",        list_models),
    ("GET",    "/models/{name}",               "model_info",    model_info),
    ("PUT",    "/models/{name}",               "fit",           fit_model),
    ("DELETE", "/models/{name}",               "delete",        delete_model),
    ("POST",   "/models/{name}/score",         "score",         |c| series_endpoint(c, Op::Score)),
    ("POST",   "/models/{name}/features",      "features",      |c| series_endpoint(c, Op::Features)),
    ("POST",   "/models/{name}/predict",       "predict",       |c| series_endpoint(c, Op::Predict)),
    ("POST",   "/models/{name}/batch",         "batch",         batch_endpoint),
    ("GET",    "/models/{name}/graphoid",      "graphoid",      graphoid_endpoint),
    ("GET",    "/models/{name}/render",        "render",        render_endpoint),
    ("POST",   "/models/{name}/ingest",        "ingest",        ingest_endpoint),
    ("GET",    "/models/{name}/stream-status", "stream_status", stream_status_endpoint),
    ("GET",    "/metrics",                     "metrics",       metrics_endpoint),
    ("GET",    "/debug/sleep",                 "debug_sleep",   debug_sleep),
    ("GET",    "/debug/panic",                 "debug_panic",   debug_panic),
];

/// [`ServerStats`] keeps one request counter per route plus one (`other`)
/// for requests that match none.
pub(crate) const ROUTE_COUNT: usize = ROUTES.len();

/// Every handler's signature. An `Err` is an early answer (a 4xx or 5xx),
/// sent exactly like an `Ok` one.
type Handler = fn(&mut Call<'_, '_>) -> Result<Response, Response>;

/// The path's `{name}` segment ("" when the pattern has none), if `path`
/// matches `pattern`.
fn capture<'p>(pattern: &str, path: &'p str) -> Option<&'p str> {
    let mut pattern = pattern.split('/').filter(|s| !s.is_empty());
    let mut segments = path.split('/').filter(|s| !s.is_empty());
    let mut name = "";
    loop {
        match (pattern.next(), segments.next()) {
            (None, None) => return Some(name),
            (Some("{name}"), Some(segment)) => name = segment,
            (Some(literal), Some(segment)) if literal == segment => {}
            _ => return None,
        }
    }
}

/// What a handler gets: the request, the `{name}` segment of its path, the
/// calling worker's registry view and the server context.
struct Call<'a, 'r> {
    req: &'a Request,
    name: &'a str,
    reader: &'a mut StoreReader<'r>,
    ctx: &'a RouteContext<'a>,
}

impl Call<'_, '_> {
    /// The model the path names, or the 404 every model route answers
    /// without one.
    fn model(&mut self) -> Result<Arc<KGraphModel>, Response> {
        self.reader
            .get(self.name)
            .ok_or_else(|| Response::error(404, &format!("no model named {:?}", self.name)))
    }
}

/// Answers one parsed request with the `/debug/*` routes switched off:
/// [`dispatch`] with `debug_routes = false`.
pub fn handle(req: &Request, reader: &mut StoreReader<'_>, ctx: &RouteContext<'_>) -> Response {
    dispatch(req, reader, ctx, false)
}

/// Answers one parsed request: the first `ROUTES` entry that matches it
/// is counted and runs. `reader` is the calling worker's cached registry
/// view; `ctx` carries the store (admin routes), the streaming sessions
/// (ingest routes) and the shared counters (metrics). The `/debug/*`
/// entries match only when `debug_routes` is set
/// ([`ServerConfig::debug_routes`](crate::ServerConfig::debug_routes));
/// otherwise their paths answer 404 and count as `other`, like any
/// unknown path.
pub fn dispatch(
    req: &Request,
    reader: &mut StoreReader<'_>,
    ctx: &RouteContext<'_>,
    debug_routes: bool,
) -> Response {
    let method = req.method.as_str();
    let (index, name) = ROUTES
        .iter()
        .enumerate()
        .filter(|(_, &(m, pattern, ..))| {
            m == method && (debug_routes || !pattern.starts_with("/debug/"))
        })
        .find_map(|(i, &(_, pattern, ..))| Some((i, capture(pattern, &req.path)?)))
        .unwrap_or((ROUTE_COUNT, ""));
    ctx.stats.routes[index].fetch_add(1, Ordering::Relaxed);
    let Some(&(_, _, _, handler)) = ROUTES.get(index) else {
        return if ROUTES.iter().any(|&(m, ..)| m == method) {
            Response::error(404, &format!("no route for {method} {}", req.path))
        } else {
            Response::error(405, &format!("method {method} not supported"))
        };
    };
    let mut call = Call {
        req,
        name,
        reader,
        ctx,
    };
    handler(&mut call).unwrap_or_else(|resp| resp)
}

// ---------------------------------------------------------------------------
// Per-series ops (shared by single and batch endpoints)
// ---------------------------------------------------------------------------

/// What a single-series endpoint or one batch row computes.
#[derive(Clone, Copy)]
enum Op {
    Score,
    Features,
    Predict,
}

/// One series' answer to an [`Op`].
enum Answer {
    /// Scores or features: the JSON key, the CSV header and the values.
    Values(&'static str, &'static str, Vec<f64>),
    /// The predicted cluster.
    Cluster(usize),
}

impl Op {
    /// The op a batch's `?op=` names.
    fn parse(name: &str) -> Option<Op> {
        match name {
            "score" => Some(Op::Score),
            "features" => Some(Op::Features),
            "predict" => Some(Op::Predict),
            _ => None,
        }
    }

    /// Runs the op on one series; only [`Op::Score`] reads `context`.
    fn run(self, model: &KGraphModel, values: &[f64], context: usize) -> Result<Answer, TsError> {
        Ok(match self {
            Op::Score => Answer::Values(
                "scores",
                "score",
                anomaly_scores(model.best(), values, context)?,
            ),
            Op::Features => Answer::Values("features", "feature", features_series(model, values)?),
            Op::Predict => Answer::Cluster(model.predict(values).ok_or(TsError::TooShort {
                required: model.best_length(),
                actual: values.len(),
            })?),
        })
    }
}

impl Answer {
    /// Writes the members of the JSON object a single request answers, and
    /// a batch row holds.
    fn write_members(&self, w: &mut JsonWriter<'_>) {
        match self {
            Answer::Values(key, _, values) => w.field(key, values.as_slice()),
            Answer::Cluster(c) => w.field("cluster", c),
        };
    }
}

fn features_series(model: &KGraphModel, values: &[f64]) -> Result<Vec<f64>, TsError> {
    let layer = model.best();
    if layer.graph.node_count() == 0 {
        return Err(TsError::Degenerate("selected layer has no nodes".into()));
    }
    if values.len() < layer.length {
        return Err(TsError::TooShort {
            required: layer.length,
            actual: values.len(),
        });
    }
    let path = layer
        .assign_path(values)
        .expect("preconditions checked above");
    Ok(feature_row(
        layer,
        &path,
        model.config.node_features,
        model.config.edge_features,
    ))
}

// ---------------------------------------------------------------------------
// Body decoding
// ---------------------------------------------------------------------------

/// What a request body carries.
#[derive(Clone, Copy, PartialEq)]
enum Body {
    /// One series: score, features and predict.
    Series,
    /// Many series: batch and `PUT` fit.
    Batch,
    /// The points of one ingest.
    Ingest,
}

/// Largest value magnitude any request body may carry.
/// Z-normalisation sums the squares of a window's points; at 1e100 a
/// square is 1e200, so even 1e100 points summed stay far below `f64::MAX`
/// (~1.8e308).
const MAX_INGEST_MAGNITUDE: f64 = 1e100;

/// Decodes the body of `req` into rows of values: one row for a
/// [`Body::Series`] or [`Body::Ingest`], one per series for a
/// [`Body::Batch`]. The second value is the series index an ingest body
/// names in-band.
///
/// The body must be UTF-8. It is JSON when its content type says so or it
/// starts with `[` or `{`: a series is an array of numbers and a batch an
/// array of series, either one optionally under `"series"`; an ingest
/// object `{"series": i, "points": [...]}` names its series in-band.
/// Otherwise it is CSV: numbers separated by commas, whitespace or
/// newlines, and a batch has one series per non-blank line.
///
/// An unparseable or empty body is 400 and a batch of more than
/// [`MAX_BATCH_ROWS`] rows 413. Every value must be finite with magnitude
/// at most [`MAX_INGEST_MAGNITUDE`] (422), so no model or journal ever sees
/// one that is not.
fn decode_body(req: &Request, kind: Body) -> Result<(Vec<Vec<f64>>, Option<usize>), Response> {
    let (rows, index) = parse_rows(req, kind).map_err(|e| Response::error(400, &e))?;
    let empty = match kind {
        Body::Series => rows[0].is_empty().then_some("empty series"),
        Body::Batch => rows.is_empty().then_some("empty batch"),
        Body::Ingest => rows[0].is_empty().then_some("empty points"),
    };
    if let Some(message) = empty {
        return Err(Response::error(400, message));
    }
    if rows.len() > MAX_BATCH_ROWS {
        let message = format!(
            "batch of {} rows exceeds limit {MAX_BATCH_ROWS}",
            rows.len()
        );
        return Err(Response::error(413, &message));
    }
    let unfit = |v: &f64| !v.is_finite() || v.abs() > MAX_INGEST_MAGNITUDE;
    for (i, row) in rows.iter().enumerate() {
        if let Some(p) = row.iter().position(unfit) {
            let what = match kind {
                Body::Series => "series points".to_string(),
                Body::Batch => format!("points of series {i}"),
                Body::Ingest => "ingested points".to_string(),
            };
            let message = format!(
                "point {p} is {}: {what} must be finite with magnitude at most {MAX_INGEST_MAGNITUDE:e}",
                row[p]
            );
            return Err(Response::error(422, &message));
        }
    }
    Ok((rows, index))
}

/// The rows and in-band series index of [`decode_body`], or the text of
/// its 400 when the body does not parse.
fn parse_rows(req: &Request, kind: Body) -> Result<(Vec<Vec<f64>>, Option<usize>), String> {
    let text = std::str::from_utf8(&req.body).map_err(|_| "body is not UTF-8")?;
    let is_json = req
        .header("content-type")
        .is_some_and(|ct| ct.contains("json"))
        || matches!(req.body.trim_ascii_start().first(), Some(b'[' | b'{'));
    if !is_json {
        let rows = match kind {
            Body::Batch => {
                let lines = text.lines().filter(|l| !l.trim().is_empty());
                lines.map(csv_row).collect::<Result<_, _>>()?
            }
            Body::Series | Body::Ingest => vec![csv_row(text)?],
        };
        return Ok((rows, None));
    }
    let v = Json::parse(text)?;
    let (values, index) = match v.get("points") {
        Some(points) if kind == Body::Ingest => {
            let index = v.get("series").map(|s| {
                let index = s.as_f64().filter(|f| f.fract() == 0.0 && *f >= 0.0);
                index
                    .map(|f| f as usize)
                    .ok_or("series must be a non-negative integer")
            });
            (points, index.transpose()?)
        }
        _ => (v.get("series").unwrap_or(&v), None),
    };
    let rows = match kind {
        Body::Batch => {
            let series = values.as_arr().ok_or("expected an array of series")?;
            series.iter().map(Json::to_f64s).collect::<Result<_, _>>()?
        }
        Body::Series | Body::Ingest => vec![values.to_f64s()?],
    };
    Ok((rows, index))
}

fn csv_row(line: &str) -> Result<Vec<f64>, String> {
    line.split([',', ' ', '\t', '\n', '\r'])
        .filter(|t| !t.trim().is_empty())
        .map(|t| {
            t.trim()
                .parse::<f64>()
                .map_err(|_| format!("bad number {:?}", t.trim()))
        })
        .collect()
}

/// The query parameter `name` (`default` when absent); 400 when it does
/// not parse as a `T`.
fn query<T: FromStr>(req: &Request, name: &str, default: T) -> Result<T, Response> {
    match req.query_param(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| Response::error(400, &format!("bad {name} parameter {v:?}"))),
    }
}

// ---------------------------------------------------------------------------
// Handlers
// ---------------------------------------------------------------------------

fn health(c: &mut Call<'_, '_>) -> Result<Response, Response> {
    Ok(Response::json_object(200, |w| {
        w.field("status", "ok")
            .field("models", c.ctx.store.len())
            .field("bytes", c.ctx.store.total_bytes());
    }))
}

/// `GET /healthz` — durability health: `"degraded"` when any model is
/// read-only (still `200`: reads serve), `"ok"` otherwise. Startup
/// recovery finishes before the server binds, so no request sees it run.
fn healthz(c: &mut Call<'_, '_>) -> Result<Response, Response> {
    let ctx = c.ctx;
    let degraded = ctx.durability.degraded_models();
    let status = if degraded.is_empty() {
        "ok"
    } else {
        "degraded"
    };
    Ok(Response::json_object(200, |w| {
        w.field("status", status)
            .field("durability", ctx.durability.enabled())
            .field("models", ctx.store.len())
            .key("degraded")
            .array(&degraded, |w, (name, reason)| {
                w.object(|w| {
                    w.field("model", name.as_str())
                        .field("reason", reason.as_str());
                });
            });
    }))
}

fn list_models(c: &mut Call<'_, '_>) -> Result<Response, Response> {
    let mut body = String::new();
    JsonWriter::new(&mut body).array(c.ctx.store.list(), |w, (name, bytes, k, best_len)| {
        w.object(|w| {
            w.field("name", name.as_str())
                .field("bytes", bytes)
                .field("k", k)
                .field("best_length", best_len);
        });
    });
    Ok(Response::json(200, body))
}

fn model_info(c: &mut Call<'_, '_>) -> Result<Response, Response> {
    let model = c.model()?;
    let layer = model.best();
    let score = &model.scores[model.best_layer];
    Ok(Response::json_object(200, |w| {
        w.field("k", model.k())
            .field("n_series", model.labels.len())
            .field("best_length", model.best_length())
            .field("n_layers", model.scores.len())
            .field("nodes", layer.graph.node_count())
            .field("edges", layer.graph.edge_count())
            .field("wc", score.wc)
            .field("we", score.we)
            .key("lengths")
            .array(&model.scores, |w, s| {
                w.value(s.length);
            });
    }))
}

/// `PUT /models/{name}` — fit on demand from a posted dataset (CSV rows or
/// JSON array-of-arrays), `?k=` clusters (default 2), `?seed=`,
/// `?n_lengths=`.
fn fit_model(c: &mut Call<'_, '_>) -> Result<Response, Response> {
    let (req, ctx, name) = (c.req, c.ctx, c.name);
    let (rows, _) = decode_body(req, Body::Batch)?;
    let k: usize = query(req, "k", 2)?;
    let seed: u64 = query(req, "seed", 0)?;
    let n_lengths: usize = query(req, "n_lengths", 3)?;
    if k < 1 {
        return Err(Response::error(422, "k must be >= 1"));
    }
    if rows.len() < k {
        return Err(Response::error(
            422,
            &format!("need at least k={k} series, got {}", rows.len()),
        ));
    }
    let min_len = rows.iter().map(Vec::len).min().unwrap_or(0);
    if min_len < 8 {
        return Err(Response::error(
            422,
            &format!("series too short to fit (min length {min_len}, need >= 8)"),
        ));
    }
    let series: Vec<TimeSeries> = rows.into_iter().map(TimeSeries::new).collect();
    let dataset = Dataset::new(name, DatasetKind::Other, series);
    let cfg = KGraphConfig {
        n_lengths: n_lengths.clamp(1, 16),
        ..KGraphConfig::new(k)
    }
    .with_seed(seed);
    let model = Arc::new(KGraph::new(cfg).fit(&dataset));
    // Under the name's session lock, its session resets: its delta holds old node ids.
    let session = ctx.sessions.session_for(name, &model);
    let mut guard = lock(&session);
    *guard = StreamSession::new(Arc::clone(&model), ctx.sessions.config().clone());
    let bytes = publish(ctx.store, ctx.sessions, name, Arc::clone(&model), None);
    // Make the fresh model durable (initial snapshot + empty WAL) so a
    // restart recovers it even before the first ingest.
    ctx.durability
        .persist_initial(name, &model, ctx.sessions.config());
    drop(guard);
    drop(session);
    ctx.sessions.remove_if_empty(name);
    Ok(Response::json_object(201, |w| {
        w.field("fitted", name)
            .field("bytes", bytes.unwrap_or_default());
    }))
}

/// Inserts `model` under `name` (only over `expected`, if given; `None`
/// otherwise) and drops the stream sessions of the models the store
/// evicted for it, so their `Arc`s are freed. Returns the model's bytes.
pub(crate) fn publish(
    store: &ModelStore,
    sessions: &SessionRegistry,
    name: &str,
    model: Arc<KGraphModel>,
    expected: Option<&Arc<KGraphModel>>,
) -> Option<usize> {
    let (bytes, evicted) = store.insert_evicting(name, model, expected)?;
    for victim in &evicted {
        sessions.remove(victim);
    }
    Some(bytes)
}

/// `DELETE /models/{name}` — unregisters the model, its streaming session
/// (which buffers node ids of the deleted graph) and its durable state.
/// Each goes even when another is already gone (the store evicts under
/// `--budget-mb`); `404` only when none of the three knew the name. All
/// three go under the name's session lock, if it has a session.
fn delete_model(c: &mut Call<'_, '_>) -> Result<Response, Response> {
    let (ctx, name) = (c.ctx, c.name);
    let session = ctx.sessions.get(name);
    let _guard = session.as_deref().map(lock);
    let in_store = ctx.store.remove(name);
    let had_session = ctx.sessions.remove(name);
    let had_state = ctx.durability.remove_model(name);
    if !(in_store || had_session || had_state) {
        return Err(Response::error(404, &format!("no model named {name:?}")));
    }
    Ok(Response::json_object(200, |w| {
        w.field("deleted", name);
    }))
}

/// `POST /models/{name}/score?context=`, `…/features` and `…/predict` —
/// one [`Op`] on one series. Score and features also answer CSV.
fn series_endpoint(c: &mut Call<'_, '_>, op: Op) -> Result<Response, Response> {
    let model = c.model()?;
    let (rows, _) = decode_body(c.req, Body::Series)?;
    let context = match op {
        Op::Score => query(c.req, "context", 5)?,
        Op::Features | Op::Predict => 0,
    };
    let answer = op
        .run(&model, &rows[0], context)
        .map_err(|e| error_response(&e))?;
    Ok(match answer {
        Answer::Values(_, header, values) if c.req.wants_csv() => {
            let mut csv = format!("{header}\n");
            for v in &values {
                let _ = writeln!(csv, "{v}");
            }
            Response::csv(200, csv)
        }
        answer => Response::json_object(200, |w| answer.write_members(w)),
    })
}

/// `POST /models/{name}/batch?op=score|features|predict&context=` — many
/// series in one request, run in order on the request's worker.
/// Per-row failures do not fail the batch: each result slot is either the
/// row's payload or an `{"error": …}` object.
fn batch_endpoint(c: &mut Call<'_, '_>) -> Result<Response, Response> {
    let model = c.model()?;
    let (rows, _) = decode_body(c.req, Body::Batch)?;
    let op = c.req.query_param("op").unwrap_or("score");
    let context = query(c.req, "context", 5)?;
    let op =
        Op::parse(op).ok_or_else(|| Response::error(400, &format!("unknown batch op {op:?}")))?;

    // Each row runs through `Op::run`, so the response is bit-identical
    // to issuing the rows as individual requests in order.
    let results = rows.iter().map(|values| op.run(&model, values, context));

    Ok(Response::json_object(200, |w| {
        w.key("results").array(results, |w, result| {
            w.object(|w| match result {
                Ok(answer) => answer.write_members(w),
                Err(e) => {
                    w.field("error", e.to_string().as_str())
                        .field("status", status_for(&e));
                }
            });
        });
    }))
}

/// `GET /models/{name}/graphoid?cluster=&kind=gamma|lambda&threshold=` —
/// the interpretable subgraph of one cluster.
fn graphoid_endpoint(c: &mut Call<'_, '_>) -> Result<Response, Response> {
    let (req, model) = (c.req, c.model()?);
    let cluster: usize = query(req, "cluster", 0)?;
    if cluster >= model.k() {
        return Err(Response::error(
            422,
            &format!("cluster {cluster} out of range 0..{}", model.k()),
        ));
    }
    let threshold: f64 = query(req, "threshold", 0.7)?;
    let kind = req.query_param("kind").unwrap_or("gamma");
    let stats = model.best_stats();
    let graphoid = match kind {
        "gamma" => gamma_graphoid(stats, model.best(), cluster, threshold),
        "lambda" => lambda_graphoid(stats, model.best(), cluster, threshold),
        other => {
            return Err(Response::error(
                400,
                &format!("unknown graphoid kind {other:?}"),
            ))
        }
    };
    let graph = &model.best().graph;
    Ok(Response::json_object(200, |w| {
        w.field("cluster", cluster)
            .field("kind", kind)
            .field("threshold", threshold)
            .key("nodes")
            .array(&graphoid.nodes, |w, n| {
                w.value(n.index());
            })
            .key("edges")
            .array(&graphoid.edges, |w, &e| {
                let (s, t) = graph.endpoints(e);
                w.object(|w| {
                    w.field("src", s.index())
                        .field("dst", t.index())
                        .field("weight", *graph.edge(e));
                });
            });
    }))
}

/// Hard ceiling on the SVG element count any single render may cost the
/// server. Requests whose *explicit* detail level would exceed it are
/// refused with 413 before any layout work happens — that is the
/// admission-control contract: a render request has bounded cost no
/// matter how large the model is.
const MAX_RENDER_ELEMENTS: usize = 50_000;

/// Default render budget when the client does not pass `?budget=`. Small
/// models resolve to full detail well inside it (so existing clients see
/// byte-identical output); 10k+-node layers degrade to aggregated or
/// glyph detail instead of emitting multi-megabyte documents.
const DEFAULT_RENDER_BUDGET: usize = 20_000;

/// `GET /models/{name}/render?format=svg|ascii&detail=&layout=&budget=`
/// — the Graph frame, rendered headlessly from the shared model.
///
/// * `detail` — `auto` (default) | `full` | `aggregated` | `glyph`.
///   `auto` degrades until the element budget fits.
/// * `layout` — `auto` (default) | `circular` | `exact` | `bh`.
/// * `budget` — element cap for `auto` detail, clamped to the server's
///   hard ceiling.
///
/// The response carries `x-render-elements` with the emitted element
/// count so smoke tests (and clients) can verify the budget held.
fn render_endpoint(c: &mut Call<'_, '_>) -> Result<Response, Response> {
    let model = c.model()?;
    let (req, model) = (c.req, &*model);
    match req.query_param("format").unwrap_or("svg") {
        "svg" => {
            let detail = match req.query_param("detail") {
                None => DetailLevel::Auto,
                Some(s) => DetailLevel::parse(s)
                    .ok_or_else(|| Response::error(400, &format!("unknown detail level {s:?}")))?,
            };
            let engine = match req.query_param("layout") {
                None => LayoutEngine::Auto,
                Some(s) => LayoutEngine::parse(s)
                    .ok_or_else(|| Response::error(400, &format!("unknown layout engine {s:?}")))?,
            };
            let budget = query(req, "budget", DEFAULT_RENDER_BUDGET)?.clamp(1, MAX_RENDER_ELEMENTS);
            // Admission control: an explicit detail level states its cost
            // up front; refuse before spending any layout time on it.
            let g = &model.best().graph;
            let k = model.k();
            let fixed = 3 + 2 * k;
            let estimate = match detail {
                DetailLevel::Full => fixed + 3 * g.edge_count() + g.node_count(),
                // The direct-edge quota self-limits to the budget (≤ the
                // ceiling); nodes are the irreducible cost.
                DetailLevel::Aggregated => fixed + g.node_count() + k + 1,
                // Auto degrades to fit the (clamped) budget; Glyph is O(k).
                DetailLevel::Auto | DetailLevel::Glyph => 0,
            };
            if estimate > MAX_RENDER_ELEMENTS {
                return Err(Response::error(
                    413,
                    &format!(
                        "detail level would emit ~{estimate} elements (limit {MAX_RENDER_ELEMENTS}); use detail=auto"
                    ),
                ));
            }
            let (svg, elements) = GraphFrame::with_auto_thresholds(model).render_graph_with(
                engine,
                detail,
                RenderBudget::capped(budget),
            );
            Ok(Response::svg(svg).with_header("x-render-elements", elements.to_string()))
        }
        "ascii" => {
            let layer = model.best();
            let mut text = format!(
                "k-Graph model: k={} ℓ̄={} nodes={} edges={}\n",
                model.k(),
                model.best_length(),
                layer.graph.node_count(),
                layer.graph.edge_count()
            );
            text.push_str(&graphint::ascii::partition_summary(&model.labels));
            text.push('\n');
            // The most central patterns, as sparklines.
            let frame = GraphFrame::with_auto_thresholds(model);
            for &n in frame.exploration_order().iter().take(5) {
                let pattern = &layer.graph.node(tsgraph::NodeId(n as u32)).pattern;
                let _ = writeln!(text, "node {n:>3} {}", graphint::ascii::sparkline(pattern));
            }
            Ok(Response::text(200, text))
        }
        other => Err(Response::error(
            400,
            &format!("unknown render format {other:?}"),
        )),
    }
}

// ---------------------------------------------------------------------------
// Streaming ingest
// ---------------------------------------------------------------------------

/// `POST /models/{name}/ingest?series=` — appends points to an open
/// series of the model's streaming session: the series a body names
/// in-band ([`decode_body`]), else `?series=` (default 0). New complete
/// windows are routed through the stored embeddings and buffered as
/// transition triples; the session's refresh cadence rescores against
/// the merged base+delta view, and its compaction cadence publishes a
/// fresh base CSR back into the store. Readers are never blocked: they
/// keep scoring whatever `Arc` snapshot they hold.
fn ingest_endpoint(c: &mut Call<'_, '_>) -> Result<Response, Response> {
    let model = c.model()?;
    let (req, ctx, name) = (c.req, c.ctx, c.name);
    let (rows, body_index) = decode_body(req, Body::Ingest)?;
    let points = &rows[0];
    let index = match body_index {
        Some(i) => i,
        None => query(req, "series", 0)?,
    };
    let session = ctx.sessions.session_for(name, &model);
    let mut guard = lock(&session);
    // Journal only into a session over the model the name serves.
    let served = c.reader.get(name);
    let serves = matches!(&served, Some(m) if Arc::ptr_eq(m, guard.model()));
    let answer = serves.then(|| append_journaled(ctx, name, &mut guard, index, points));
    if let Some(served) = served.filter(|_| !serves && guard.open_series() == 0) {
        // An empty session opened over an `Arc` read before a re-fit takes
        // the re-fit, so no two writers both holding it retry forever.
        *guard = StreamSession::new(served, ctx.sessions.config().clone());
    }
    // The `Arc` is gone first: `remove_if_empty` keeps a session anyone
    // else still holds.
    drop(guard);
    drop(session);
    if let Some(Ok(response)) = answer {
        return Ok(response);
    }
    // Neither a refused first ingest nor a session opened over an `Arc`
    // read before a re-fit or `DELETE` stays behind; the latter retries.
    ctx.sessions.remove_if_empty(name);
    answer.unwrap_or_else(|| ingest_endpoint(c))
}

/// Checks, journals and applies one ingest under the session lock, so the
/// WAL order is the apply order.
fn append_journaled(
    ctx: &RouteContext<'_>,
    name: &str,
    session: &mut StreamSession,
    index: usize,
    points: &[f64],
) -> Result<Response, Response> {
    // Refused before the WAL sees it: a journaled record is one the
    // session applies, live and on replay.
    session
        .check_append(index)
        .map_err(|e| error_response(&e))?;
    let seq = match ctx.durability.log_ingest(name, index as u32, points) {
        IngestLog::Logged { seq } => seq,
        IngestLog::Unavailable { reason } => {
            return Err(
                Response::error(503, &format!("ingest journal unavailable: {reason}"))
                    .with_header("retry-after", RETRY_AFTER_SECS.to_string()),
            );
        }
        IngestLog::Degraded { reason } => {
            return Err(Response::error(
                503,
                &format!("model {name:?} is degraded read-only: {reason}"),
            ));
        }
    };
    let before = Arc::clone(session.model());
    let outcome = session.append(index, points).map_err(|e| {
        // Recovery's policy for a journaled record the session refuses:
        // degrade, keep the journal.
        ctx.durability.degrade(
            name,
            format!(
                "WAL record {seq} could not be applied: {e}; \
                 refusing writes and keeping the journal"
            ),
        );
        error_response(&e)
    })?;
    let compacted = outcome.compacted.as_ref();
    if let Some(next) = compacted.filter(|next| !Arc::ptr_eq(next, &before)) {
        // Publish the compacted base: a new snapshot version for future
        // readers; in-flight readers keep the old Arc. A name evicted
        // since the check stays unserved. A compaction over an empty
        // delta kept the served model and publishes nothing.
        publish(
            ctx.store,
            ctx.sessions,
            name,
            Arc::clone(next),
            Some(&before),
        );
    }
    // Snapshot on the refresh cadence (still under the session lock, so
    // the pair is a consistent point-in-time image).
    ctx.durability
        .after_append(name, session, outcome.refreshed);
    Ok(Response::json_object(200, |w| {
        w.field("series", index)
            .field("appended", points.len())
            .field("new_windows", outcome.new_windows)
            .field("refreshed", outcome.refreshed)
            .field("compacted", compacted.is_some());
    }))
}

/// `GET /models/{name}/stream-status` — the model's streaming-session
/// summary, or `{"active":false,"series":[]}` when nothing has been
/// ingested yet.
fn stream_status_endpoint(c: &mut Call<'_, '_>) -> Result<Response, Response> {
    c.model()?;
    let status = c.ctx.sessions.get(c.name).map(|s| lock(&s).status());
    Ok(Response::json_object(200, |w| {
        let Some(status) = &status else {
            w.field("active", false).field("series", &[] as &[u64]);
            return;
        };
        w.field("active", true)
            .field("points_total", status.points_total)
            .field("points_pending", status.points_pending)
            .field("refreshes", status.refreshes)
            .field("compactions", status.compactions)
            .field("pending_triples", status.pending_triples)
            .field("delta_edges", status.delta_edges)
            .key("series")
            .array(&status.series, |w, s| {
                w.object(|w| {
                    w.field("index", s.index)
                        .field("points", s.points)
                        .field("windows", s.windows)
                        .field("mean_score", s.mean_score)
                        .field("max_score", s.max_score);
                });
            });
    }))
}

/// `GET /metrics` — one `graphserve_<name> <value>` line per counter:
/// admission-control totals, queue depth high-water, handler panics,
/// per-route request counts (one line per [`ROUTES`] label plus `other`),
/// store and session gauges and the durability counters.
fn metrics_endpoint(c: &mut Call<'_, '_>) -> Result<Response, Response> {
    let (ctx, stats) = (c.ctx, c.ctx.stats);
    let d = ctx.durability.counters();
    let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
    let mut out = String::new();
    let mut put = |name: &str, value: u64| out.push_str(&format!("graphserve_{name} {value}\n"));
    for (name, counter) in [
        ("requests_admitted_total", &stats.admitted),
        ("requests_shed_total", &stats.shed),
        ("responses_served_total", &stats.served),
        ("queue_depth_high_water", &stats.queue_high_water),
        ("handler_panics_total", &stats.handler_panics),
    ] {
        put(name, load(counter));
    }
    let labels = ROUTES.iter().map(|&(_, _, label, _)| label);
    for (label, counter) in labels.chain(["other"]).zip(&stats.routes) {
        put(
            &format!("route_requests_total{{route=\"{label}\"}}"),
            load(counter),
        );
    }
    for (name, value) in [
        ("models", ctx.store.len() as u64),
        ("model_bytes", ctx.store.total_bytes() as u64),
        ("stream_sessions", ctx.sessions.len() as u64),
        ("durability_enabled", u64::from(ctx.durability.enabled())),
        ("wal_records_written_total", load(&d.wal_records_written)),
        ("wal_records_replayed_total", load(&d.wal_records_replayed)),
        (
            "wal_records_truncated_total",
            load(&d.wal_records_truncated),
        ),
        ("wal_syncs_total", load(&d.wal_syncs)),
        ("snapshots_written_total", load(&d.snapshots_written)),
        ("snapshot_failures_total", load(&d.snapshot_failures)),
        ("io_retries_total", load(&d.io_retries)),
        ("records_since_snapshot", load(&d.records_since_snapshot)),
        ("recovery_duration_ms", load(&d.recovery_duration_ms)),
        ("models_recovered", load(&d.models_recovered)),
        ("models_degraded", load(&d.models_degraded)),
    ] {
        put(name, value);
    }
    Ok(Response::text(200, out))
}

/// `GET /debug/sleep?ms=` — parks the worker briefly; exists so the
/// integration tests can exercise admission control on demand. Served
/// only with [`ServerConfig::debug_routes`](crate::ServerConfig::debug_routes).
fn debug_sleep(c: &mut Call<'_, '_>) -> Result<Response, Response> {
    let ms = query(c.req, "ms", 50u64)?.min(MAX_SLEEP_MS);
    std::thread::sleep(std::time::Duration::from_millis(ms));
    Ok(Response::json_object(200, |w| {
        w.field("slept_ms", ms);
    }))
}

/// `GET /debug/panic` — panics inside the handler; exists so the
/// integration tests can check on demand that a panicking request answers
/// 500, is counted and leaves its worker alive. Served only with
/// [`ServerConfig::debug_routes`](crate::ServerConfig::debug_routes).
fn debug_panic(_: &mut Call<'_, '_>) -> Result<Response, Response> {
    panic!("deliberate panic from the debug panic route")
}

// The tests build request bodies with it.
#[cfg(test)]
use crate::json::f64s_to_json;

#[cfg(test)]
mod tests {
    use super::*;

    fn request(method: &str, target: &str, body: &[u8]) -> Request {
        let raw = format!(
            "{method} {target} HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        let mut bytes = raw.into_bytes();
        bytes.extend_from_slice(body);
        Request::read_from(&mut std::io::Cursor::new(bytes), 1 << 20).unwrap()
    }

    /// Store + session registry + stats + durability, so the tests below
    /// can keep the old three-argument call shape via the local `handle`
    /// wrapper.
    struct TestCtx {
        store: ModelStore,
        sessions: SessionRegistry,
        stats: ServerStats,
        durability: Durability,
        debug_routes: bool,
    }

    impl TestCtx {
        fn reader(&self) -> StoreReader<'_> {
            self.store.reader()
        }

        fn route(&self) -> RouteContext<'_> {
            RouteContext {
                store: &self.store,
                sessions: &self.sessions,
                stats: &self.stats,
                durability: &self.durability,
            }
        }
    }

    /// Shadows `super::handle`: adapts a [`TestCtx`] into a
    /// [`RouteContext`].
    fn handle(req: &Request, reader: &mut StoreReader<'_>, ctx: &TestCtx) -> Response {
        super::dispatch(req, reader, &ctx.route(), ctx.debug_routes)
    }

    fn demo_store() -> TestCtx {
        let store = ModelStore::new(0);
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
        store.insert("demo", Arc::new(KGraph::new(cfg).fit(&ds)));
        TestCtx {
            store,
            sessions: SessionRegistry::new(streamfit::StreamConfig::default()),
            stats: ServerStats::default(),
            durability: Durability::disabled(),
            debug_routes: false,
        }
    }

    fn body_text(resp: &Response) -> &str {
        std::str::from_utf8(&resp.body).unwrap()
    }

    #[test]
    fn health_and_listing() {
        let store = demo_store();
        let mut reader = store.reader();
        let resp = handle(&request("GET", "/health", b""), &mut reader, &store);
        assert_eq!(resp.status, 200);
        assert!(body_text(&resp).contains("\"models\":1"));
        let resp = handle(&request("GET", "/models", b""), &mut reader, &store);
        assert!(body_text(&resp).contains("\"name\":\"demo\""));
        let resp = handle(&request("GET", "/models/demo", b""), &mut reader, &store);
        assert!(body_text(&resp).contains("\"best_length\":16"));
    }

    #[test]
    fn score_json_and_csv() {
        let store = demo_store();
        let mut reader = store.reader();
        let series: Vec<f64> = (0..80).map(|i| (i as f64 * 0.3).sin()).collect();
        let body = crate::json::f64s_to_json(&series);
        let resp = handle(
            &request("POST", "/models/demo/score?context=3", body.as_bytes()),
            &mut reader,
            &store,
        );
        assert_eq!(resp.status, 200, "{}", body_text(&resp));
        assert!(body_text(&resp).starts_with("{\"scores\":["));

        // CSV body, CSV accept.
        let csv_body: String = series
            .iter()
            .map(f64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let raw = format!(
            "POST /models/demo/score HTTP/1.1\r\naccept: text/csv\r\ncontent-length: {}\r\n\r\n{csv_body}",
            csv_body.len()
        );
        let req = Request::read_from(&mut std::io::Cursor::new(raw.into_bytes()), 1 << 20).unwrap();
        let resp = handle(&req, &mut reader, &store);
        assert_eq!(resp.status, 200);
        assert!(body_text(&resp).starts_with("score\n"));
    }

    #[test]
    fn short_series_is_422_unknown_model_404() {
        let store = demo_store();
        let mut reader = store.reader();
        let resp = handle(
            &request("POST", "/models/demo/score", b"[1,2,3]"),
            &mut reader,
            &store,
        );
        assert_eq!(resp.status, 422);
        assert!(body_text(&resp).contains("too short"));
        let resp = handle(
            &request("POST", "/models/nope/score", b"[1,2,3]"),
            &mut reader,
            &store,
        );
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn bad_bodies_are_400() {
        let store = demo_store();
        let mut reader = store.reader();
        for body in [&b"{\"series\": \"x\"}"[..], b"not,numbers,at,all", b"[1,2,"] {
            let resp = handle(
                &request("POST", "/models/demo/score", body),
                &mut reader,
                &store,
            );
            assert_eq!(resp.status, 400, "body {body:?}: {}", body_text(&resp));
        }
    }

    #[test]
    fn batch_matches_single_requests_bit_for_bit() {
        let store = demo_store();
        let mut reader = store.reader();
        let rows: Vec<Vec<f64>> = (0..5)
            .map(|p| (0..80).map(|i| ((i + p) as f64 * 0.3).sin()).collect())
            .collect();
        for op in ["score", "features", "predict"] {
            let mut batch_body = String::from("[");
            for (i, row) in rows.iter().enumerate() {
                if i > 0 {
                    batch_body.push(',');
                }
                batch_body.push_str(&crate::json::f64s_to_json(row));
            }
            batch_body.push(']');
            let resp = handle(
                &request(
                    "POST",
                    &format!("/models/demo/batch?op={op}&context=3"),
                    batch_body.as_bytes(),
                ),
                &mut reader,
                &store,
            );
            assert_eq!(resp.status, 200, "{}", body_text(&resp));
            let batch = Json::parse(body_text(&resp)).unwrap();
            let results = batch.get("results").unwrap().as_arr().unwrap();
            assert_eq!(results.len(), rows.len());
            for (row, result) in rows.iter().zip(results) {
                let single = handle(
                    &request(
                        "POST",
                        &format!("/models/demo/{op}?context=3"),
                        crate::json::f64s_to_json(row).as_bytes(),
                    ),
                    &mut reader,
                    &store,
                );
                let single = Json::parse(body_text(&single)).unwrap();
                assert_eq!(*result, single, "batch row differs from single {op}");
            }
        }
    }

    #[test]
    fn batch_isolates_per_row_errors() {
        let store = demo_store();
        let mut reader = store.reader();
        // Second row is too short; first and third must still succeed.
        let good: Vec<f64> = (0..80).map(|i| (i as f64 * 0.3).sin()).collect();
        let body = format!(
            "[{},[1,2,3],{}]",
            crate::json::f64s_to_json(&good),
            crate::json::f64s_to_json(&good)
        );
        let resp = handle(
            &request("POST", "/models/demo/batch?op=predict", body.as_bytes()),
            &mut reader,
            &store,
        );
        assert_eq!(resp.status, 200);
        let parsed = Json::parse(body_text(&resp)).unwrap();
        let results = parsed.get("results").unwrap().as_arr().unwrap();
        assert!(results[0].get("cluster").is_some());
        assert!(results[1].get("error").is_some());
        assert_eq!(results[1].get("status").unwrap().as_f64(), Some(422.0));
        assert!(results[2].get("cluster").is_some());
    }

    #[test]
    fn graphoid_and_render() {
        let store = demo_store();
        let mut reader = store.reader();
        let resp = handle(
            &request(
                "GET",
                "/models/demo/graphoid?cluster=0&kind=gamma&threshold=0.1",
                b"",
            ),
            &mut reader,
            &store,
        );
        assert_eq!(resp.status, 200);
        assert!(body_text(&resp).contains("\"nodes\":["));
        let resp = handle(
            &request("GET", "/models/demo/graphoid?cluster=9", b""),
            &mut reader,
            &store,
        );
        assert_eq!(resp.status, 422);

        let resp = handle(
            &request("GET", "/models/demo/render?format=svg", b""),
            &mut reader,
            &store,
        );
        assert_eq!(resp.status, 200);
        assert!(body_text(&resp).contains("<svg"));
        let resp = handle(
            &request("GET", "/models/demo/render?format=ascii", b""),
            &mut reader,
            &store,
        );
        assert_eq!(resp.status, 200);
        assert!(body_text(&resp).contains("k-Graph model"));
    }

    #[test]
    fn fit_and_delete_answer_valid_json_for_names_that_need_escaping() {
        let store = demo_store();
        let mut reader = store.reader();
        let rows: Vec<String> = (0..6)
            .map(|p| {
                (0..40)
                    .map(|i| ((i + p) as f64 * 0.4).sin().to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect();
        let body = rows.join("\n");
        for name in ["a\"b", "a\\b"] {
            for (method, key, status) in [("PUT", "fitted", 201), ("DELETE", "deleted", 200)] {
                let target = format!("/models/{name}?k=2");
                let resp = handle(
                    &request(method, &target, body.as_bytes()),
                    &mut reader,
                    &store,
                );
                assert_eq!(resp.status, status, "{method} {name}: {}", body_text(&resp));
                let json = Json::parse(body_text(&resp))
                    .unwrap_or_else(|e| panic!("{method} {name}: {e}: {}", body_text(&resp)));
                assert_eq!(json.get(key), Some(&Json::Str(name.to_string())));
            }
        }
    }

    #[test]
    fn fit_on_demand_then_serve() {
        let store = demo_store();
        let mut reader = store.reader();
        let rows: Vec<String> = (0..6)
            .map(|p| {
                (0..40)
                    .map(|i| ((i + p) as f64 * 0.4).sin().to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect();
        let body = rows.join("\n");
        let resp = handle(
            &request("PUT", "/models/fresh?k=2&seed=7", body.as_bytes()),
            &mut reader,
            &store,
        );
        assert_eq!(resp.status, 201, "{}", body_text(&resp));
        let series: Vec<f64> = (0..40).map(|i| (i as f64 * 0.4).sin()).collect();
        let resp = handle(
            &request(
                "POST",
                "/models/fresh/predict",
                crate::json::f64s_to_json(&series).as_bytes(),
            ),
            &mut reader,
            &store,
        );
        assert_eq!(resp.status, 200, "{}", body_text(&resp));
        // And delete it again.
        let resp = handle(
            &request("DELETE", "/models/fresh", b""),
            &mut reader,
            &store,
        );
        assert_eq!(resp.status, 200);
        // Fit rejects short series.
        let resp = handle(
            &request("PUT", "/models/tiny", b"1,2\n3,4"),
            &mut reader,
            &store,
        );
        assert_eq!(resp.status, 422);
    }

    #[test]
    fn fit_bodies_with_non_finite_or_huge_values_are_422() {
        let store = demo_store();
        let mut reader = store.reader();
        let row = |p: usize| -> String {
            (0..40)
                .map(|i| ((i + p) as f64 * 0.4).sin().to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        for hostile in ["NaN", "1e308", "-inf"] {
            let mut rows: Vec<String> = (0..6).map(row).collect();
            rows[3] = vec![hostile; 40].join(",");
            let resp = handle(
                &request("PUT", "/models/x?k=2", rows.join("\n").as_bytes()),
                &mut reader,
                &store,
            );
            assert_eq!(resp.status, 422, "{hostile}: {}", body_text(&resp));
            assert!(body_text(&resp).contains("points of series 3"));
            let resp = handle(&request("GET", "/models/x", b""), &mut reader, &store);
            assert_eq!(resp.status, 404, "{hostile}: no model may be stored");
        }
    }

    #[test]
    fn a_fit_body_with_a_mebibyte_key_is_400() {
        let store = demo_store();
        let mut reader = store.reader();
        let req = Request {
            method: "PUT".into(),
            path: "/models/x".into(),
            query: vec![("k".into(), "2".into())],
            headers: Vec::new(),
            body: format!("{{\"{}\":1}}", "a".repeat(1 << 20)).into_bytes(),
        };
        let resp = handle(&req, &mut reader, &store);
        assert_eq!(resp.status, 400);
        assert_eq!(
            body_text(&resp),
            "{\"error\":\"expected an array of series\"}"
        );
    }

    #[test]
    fn unknown_routes_and_methods() {
        let store = demo_store();
        let mut reader = store.reader();
        let resp = handle(&request("GET", "/nope", b""), &mut reader, &store);
        assert_eq!(resp.status, 404);
        let resp = handle(&request("PATCH", "/models/demo", b""), &mut reader, &store);
        assert_eq!(resp.status, 405);
        let resp = handle(&request("POST", "/health", b""), &mut reader, &store);
        assert_eq!(resp.status, 404);
        let resp = handle(&request("PATCH", "/nope", b""), &mut reader, &store);
        assert_eq!(resp.status, 405);
        // The debug routes are off unless the server config switches them on.
        for path in ["/debug/sleep?ms=1", "/debug/panic"] {
            let resp = handle(&request("GET", path, b""), &mut reader, &store);
            assert_eq!(resp.status, 404, "{path}");
        }
    }

    /// Sends one request per table entry, the `/metrics` entry last so its
    /// answer is the scrape, then parses every metrics line: each entry's
    /// label must read exactly 1 and `other` 0, so every entry is reachable
    /// and none is shadowed by an earlier one.
    #[test]
    fn every_route_is_reached_once_and_counted_under_its_own_label() {
        let mut store = demo_store();
        store.debug_routes = true;
        let mut reader = store.reader();
        let series: Vec<f64> = (0..80).map(|i| (i as f64 * 0.3).sin()).collect();
        let body = f64s_to_json(&series);
        let mut entries: Vec<_> = ROUTES.iter().collect();
        entries.sort_by_key(|(_, _, label, _)| *label == "metrics");
        let mut scrape = None;
        for (method, pattern, label, _) in entries {
            let req = request(method, &pattern.replace("{name}", "demo"), body.as_bytes());
            let resp = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                handle(&req, &mut reader, &store)
            }));
            assert_eq!(resp.is_err(), *label == "debug_panic", "{method} {pattern}");
            scrape = resp.ok();
        }
        let scrape = scrape.expect("the metrics entry runs last");
        assert_eq!(scrape.status, 200);

        let mut counts: Vec<(&str, u64)> = Vec::new();
        for line in body_text(&scrape).lines() {
            let (key, value) = line.rsplit_once(' ').expect(line);
            let value: u64 = value.parse().expect(line);
            let (name, label) = match key.split_once('{') {
                None => (key, None),
                Some((name, rest)) => {
                    let label = rest
                        .strip_prefix("route=\"")
                        .and_then(|r| r.strip_suffix("\"}"))
                        .expect(line);
                    (name, Some(label))
                }
            };
            let is_name =
                |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_lowercase() || b == b'_');
            assert!(is_name(name), "{line}");
            if let Some(label) = label {
                assert_eq!(name, "graphserve_route_requests_total", "{line}");
                assert!(is_name(label), "{line}");
                assert!(
                    counts.iter().all(|(l, _)| *l != label),
                    "label {label} twice"
                );
                counts.push((label, value));
            }
        }
        let expected: Vec<(&str, u64)> = ROUTES
            .iter()
            .map(|(_, _, label, _)| (*label, 1))
            .chain([("other", 0)])
            .collect();
        assert_eq!(counts, expected);
    }

    #[test]
    fn a_compaction_over_an_empty_delta_keeps_the_served_entry() {
        let mut ctx = demo_store();
        ctx.sessions = SessionRegistry::new(streamfit::StreamConfig {
            refresh_every: 0,
            compact_every: 1,
        });
        let mut reader = ctx.reader();
        let served = |reader: &mut StoreReader<'_>| reader.get("demo").unwrap();
        let before = served(&mut reader);
        let ingest = |n: usize, reader: &mut StoreReader<'_>| {
            let points: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
            let body = format!("{{\"series\":0,\"points\":{}}}", f64s_to_json(&points));
            let resp = handle(
                &request("POST", "/models/demo/ingest", body.as_bytes()),
                reader,
                &ctx,
            );
            assert_eq!(resp.status, 200, "{}", body_text(&resp));
            assert!(body_text(&resp).ends_with("\"compacted\":true}"));
        };
        // Eight points make no 16-point window: the due compaction finds
        // the delta empty and keeps the model and its store entry.
        ingest(8, &mut reader);
        assert!(Arc::ptr_eq(&served(&mut reader), &before));
        let session = ctx.sessions.get("demo").unwrap();
        assert_eq!(session.lock().unwrap().compactions(), 1);
        assert!(Arc::ptr_eq(session.lock().unwrap().model(), &before));
        // Transitions reach the delta: the next compaction publishes.
        ingest(80, &mut reader);
        let after = served(&mut reader);
        assert!(!Arc::ptr_eq(&after, &before));
        assert!(Arc::ptr_eq(session.lock().unwrap().model(), &after));
        assert_eq!(session.lock().unwrap().compactions(), 2);
    }

    #[test]
    fn ingest_and_stream_status() {
        let store = demo_store();
        let mut reader = store.reader();
        // Before any ingest: model exists, session does not.
        let resp = handle(
            &request("GET", "/models/demo/stream-status", b""),
            &mut reader,
            &store,
        );
        assert_eq!(resp.status, 200);
        assert!(body_text(&resp).contains("\"active\":false"));

        // Ingest a full wave via the object form.
        let points: Vec<f64> = (0..60).map(|i| (i as f64 * 0.3).sin()).collect();
        let body = format!("{{\"series\":0,\"points\":{}}}", f64s_to_json(&points));
        let resp = handle(
            &request("POST", "/models/demo/ingest", body.as_bytes()),
            &mut reader,
            &store,
        );
        assert_eq!(resp.status, 200, "{}", body_text(&resp));
        let parsed = Json::parse(body_text(&resp)).unwrap();
        assert_eq!(parsed.get("series").unwrap().as_f64(), Some(0.0));
        assert_eq!(parsed.get("appended").unwrap().as_f64(), Some(60.0));
        assert!(parsed.get("new_windows").unwrap().as_f64().unwrap() > 0.0);

        // CSV body with ?series= opens a second series.
        let csv: String = points
            .iter()
            .map(f64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let resp = handle(
            &request("POST", "/models/demo/ingest?series=1", csv.as_bytes()),
            &mut reader,
            &store,
        );
        assert_eq!(resp.status, 200, "{}", body_text(&resp));

        let resp = handle(
            &request("GET", "/models/demo/stream-status", b""),
            &mut reader,
            &store,
        );
        assert_eq!(resp.status, 200);
        let status = Json::parse(body_text(&resp)).unwrap();
        assert_eq!(status.get("points_total").unwrap().as_f64(), Some(120.0));
        assert_eq!(
            status.get("series").unwrap().as_arr().map(|s| s.len()),
            Some(2)
        );

        // Out-of-range series index maps to 422; bad bodies to 400.
        let resp = handle(
            &request("POST", "/models/demo/ingest?series=9", b"[1,2,3]"),
            &mut reader,
            &store,
        );
        assert_eq!(resp.status, 422, "{}", body_text(&resp));
        let resp = handle(
            &request("POST", "/models/demo/ingest", b"{\"points\":[]}"),
            &mut reader,
            &store,
        );
        assert_eq!(resp.status, 400);
        let resp = handle(
            &request("POST", "/models/nope/ingest", b"[1,2]"),
            &mut reader,
            &store,
        );
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn delete_drops_the_stream_session() {
        let store = demo_store();
        let mut reader = store.reader();
        let points: Vec<f64> = (0..40).map(|i| (i as f64 * 0.3).sin()).collect();
        let resp = handle(
            &request(
                "POST",
                "/models/demo/ingest",
                f64s_to_json(&points).as_bytes(),
            ),
            &mut reader,
            &store,
        );
        assert_eq!(resp.status, 200, "{}", body_text(&resp));
        assert_eq!(store.sessions.len(), 1);
        let resp = handle(&request("DELETE", "/models/demo", b""), &mut reader, &store);
        assert_eq!(resp.status, 200);
        assert!(store.sessions.is_empty(), "session died with its model");
    }

    #[test]
    fn metrics_reports_route_counts() {
        let store = demo_store();
        let mut reader = store.reader();
        for _ in 0..3 {
            handle(&request("GET", "/health", b""), &mut reader, &store);
        }
        handle(&request("GET", "/nope", b""), &mut reader, &store);
        let resp = handle(&request("GET", "/metrics", b""), &mut reader, &store);
        assert_eq!(resp.status, 200);
        let text = body_text(&resp);
        assert!(
            text.contains("graphserve_route_requests_total{route=\"health\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("graphserve_route_requests_total{route=\"other\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("graphserve_route_requests_total{route=\"metrics\"} 1"),
            "{text}"
        );
        assert!(text.contains("graphserve_models 1"), "{text}");
        assert!(
            text.contains("graphserve_queue_depth_high_water 0"),
            "{text}"
        );
    }

    #[test]
    fn fit_with_k_zero_names_the_bad_parameter() {
        let ctx = demo_store();
        let mut reader = ctx.reader();
        let rows = (0..3)
            .map(|p| {
                (0..40)
                    .map(|i| ((i + p) as f64 * 0.3).sin().to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect::<Vec<_>>()
            .join("\n");
        let resp = handle(
            &request("PUT", "/models/x?k=0", rows.as_bytes()),
            &mut reader,
            &ctx,
        );
        assert_eq!(resp.status, 422);
        assert_eq!(body_text(&resp), "{\"error\":\"k must be >= 1\"}");
    }

    /// A state directory removed on drop, unique per test and process.
    struct StateDir(std::path::PathBuf);

    impl StateDir {
        fn new(tag: &str) -> StateDir {
            let path = std::env::temp_dir()
                .join(format!("graphserve-routes-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&path);
            std::fs::create_dir_all(&path).unwrap();
            StateDir(path)
        }
    }

    impl Drop for StateDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// An empty store budgeted at `budget_bytes`, durable under `dir`.
    fn durable_ctx(budget_bytes: usize, dir: &StateDir) -> TestCtx {
        TestCtx {
            store: ModelStore::new(budget_bytes),
            sessions: SessionRegistry::new(streamfit::StreamConfig::default()),
            stats: ServerStats::default(),
            durability: Durability::new(crate::DurabilityConfig {
                state_dir: dir.0.clone(),
                ..crate::DurabilityConfig::default()
            }),
            debug_routes: false,
        }
    }

    /// Six 40-point rows, the body of a `PUT /models/{name}?k=2`.
    fn fit_body() -> String {
        (0..6)
            .map(|p| {
                (0..40)
                    .map(|i| ((i + p) as f64 * 0.4).sin().to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    fn ingest_body() -> String {
        let points: Vec<f64> = (0..40).map(|i| (i as f64 * 0.3).sin()).collect();
        f64s_to_json(&points)
    }

    #[test]
    fn a_model_healthz_reports_as_degraded_refuses_ingest() {
        let dir = StateDir::new("unsafe-name");
        let ctx = durable_ctx(0, &dir);
        let mut reader = ctx.reader();
        let mut call = |method: &str, target: &str, body: &str| {
            let resp = handle(&request(method, target, body.as_bytes()), &mut reader, &ctx);
            (resp.status, body_text(&resp).to_string())
        };
        assert_eq!(call("PUT", "/models/a:b?k=2", &fit_body()).0, 201);
        let (status, health) = call("GET", "/healthz", "");
        assert_eq!(status, 200);
        assert!(health.contains("\"status\":\"degraded\""), "{health}");
        assert!(health.contains("\"model\":\"a:b\""), "{health}");
        assert!(health.contains("not a safe directory name"), "{health}");

        let (status, body) = call("POST", "/models/a:b/ingest", &ingest_body());
        assert_eq!(status, 503, "{body}");
        let points = ctx
            .sessions
            .get("a:b")
            .map_or(0, |s| s.lock().unwrap().points_total());
        assert_eq!(points, 0, "a refused ingest reaches no session");
        let wal_written = ctx
            .durability
            .counters()
            .wal_records_written
            .load(Ordering::Relaxed);
        assert_eq!(wal_written, 0);

        assert_eq!(call("DELETE", "/models/a:b", "").0, 200);
        let (_, health) = call("GET", "/healthz", "");
        assert!(health.contains("\"status\":\"ok\""), "{health}");
        assert!(health.contains("\"degraded\":[]"), "{health}");
        let written = std::fs::read_dir(&dir.0).unwrap().count();
        assert_eq!(written, 0, "an unsafe name never touches disk");
    }

    #[test]
    fn eviction_drops_the_session_and_delete_still_clears_the_state_dir() {
        let body = fit_body();
        // The fit is deterministic: measure one model, then budget 1.5.
        let bytes = {
            let dir = StateDir::new("evict-probe");
            let probe = durable_ctx(0, &dir);
            let resp = handle(
                &request("PUT", "/models/probe?k=2", body.as_bytes()),
                &mut probe.reader(),
                &probe,
            );
            let json = Json::parse(body_text(&resp)).unwrap();
            json.get("bytes").and_then(Json::as_f64).unwrap() as usize
        };
        let dir = StateDir::new("evict");
        let ctx = durable_ctx(bytes * 3 / 2, &dir);
        let mut reader = ctx.reader();
        let mut call = |method: &str, target: &str, body: &str| {
            handle(&request(method, target, body.as_bytes()), &mut reader, &ctx).status
        };
        assert_eq!(call("PUT", "/models/a?k=2", &body), 201);
        assert_eq!(call("POST", "/models/a/ingest", &ingest_body()), 200);
        assert_eq!(ctx.sessions.len(), 1);
        assert_eq!(call("PUT", "/models/b?k=2", &body), 201);
        let names: Vec<String> = ctx.store.list().into_iter().map(|e| e.0).collect();
        assert_eq!(names, ["b"], "the budget evicted a");
        assert_eq!(ctx.sessions.len(), 0, "a's session went with it");

        assert!(dir.0.join("a").is_dir());
        assert_eq!(call("DELETE", "/models/a", ""), 200);
        assert!(!dir.0.join("a").exists(), "DELETE removed a's state dir");
        assert_eq!(call("DELETE", "/models/a", ""), 404);
        assert!(dir.0.join("b").is_dir());
    }

    /// The value of the `graphserve_{name}` line of `/metrics`.
    fn metric(ctx: &TestCtx, name: &str) -> u64 {
        let resp = handle(&request("GET", "/metrics", b""), &mut ctx.reader(), ctx);
        let line = format!("graphserve_{name} ");
        body_text(&resp)
            .lines()
            .find_map(|l| l.strip_prefix(line.as_str()))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no {name} in /metrics"))
    }

    #[test]
    fn delete_retires_the_records_since_snapshot_gauge() {
        let dir = StateDir::new("delete-gauge");
        let ctx = durable_ctx(0, &dir);
        let mut reader = ctx.reader();
        let mut call = |method: &str, target: &str, body: &str| {
            handle(&request(method, target, body.as_bytes()), &mut reader, &ctx).status
        };
        assert_eq!(call("PUT", "/models/x?k=2", &fit_body()), 201);
        // 40 points, below the default refresh cadence: no snapshot.
        assert_eq!(call("POST", "/models/x/ingest", &ingest_body()), 200);
        assert_eq!(metric(&ctx, "records_since_snapshot"), 1);
        assert_eq!(call("DELETE", "/models/x", ""), 200);
        assert_eq!(metric(&ctx, "records_since_snapshot"), 0);
    }

    #[test]
    fn a_refused_ingest_leaves_no_session_behind() {
        let dir = StateDir::new("refused-session");
        let ctx = durable_ctx(0, &dir);
        let mut reader = ctx.reader();
        let mut call = |method: &str, target: &str, body: &str| {
            let resp = handle(&request(method, target, body.as_bytes()), &mut reader, &ctx);
            (resp.status, body_text(&resp).to_string())
        };
        assert_eq!(call("PUT", "/models/x?k=2", &fit_body()).0, 201);
        // Degraded: the name is not a safe directory name.
        assert_eq!(call("PUT", "/models/a:b?k=2", &fit_body()).0, 201);
        // Journal unavailable: served, but never registered for durability.
        let model = ctx.store.reader().get("x").unwrap();
        ctx.store.insert("raw", model);
        let sessions = metric(&ctx, "stream_sessions");
        for (name, query, status) in [("x", "?series=3", 422), ("a:b", "", 503), ("raw", "", 503)] {
            let (got, body) = call(
                "POST",
                &format!("/models/{name}/ingest{query}"),
                &ingest_body(),
            );
            assert_eq!(got, status, "{name}: {body}");
            assert_eq!(
                call("GET", &format!("/models/{name}/stream-status"), ""),
                (200, "{\"active\":false,\"series\":[]}".to_string()),
                "{name}"
            );
            assert_eq!(metric(&ctx, "stream_sessions"), sessions, "{name}");
        }
    }

    #[test]
    fn a_refit_drops_the_old_stream_session() {
        let dir = StateDir::new("refit-session");
        let ctx = durable_ctx(0, &dir);
        let mut reader = ctx.reader();
        let mut call = |method: &str, target: &str, body: &str| {
            let resp = handle(&request(method, target, body.as_bytes()), &mut reader, &ctx);
            (resp.status, body_text(&resp).to_string())
        };
        let points: Vec<f64> = (0..30).map(|i| (i as f64 * 0.3).sin()).collect();
        assert_eq!(call("PUT", "/models/x?k=2", &fit_body()).0, 201);
        assert_eq!(
            call("POST", "/models/x/ingest", &f64s_to_json(&points)).0,
            200
        );
        assert_eq!(metric(&ctx, "stream_sessions"), 1);
        assert_eq!(call("PUT", "/models/x?k=3", &fit_body()).0, 201);
        assert_eq!(
            call("GET", "/models/x/stream-status", ""),
            (200, "{\"active\":false,\"series\":[]}".to_string())
        );
        assert_eq!(metric(&ctx, "stream_sessions"), 0);
    }

    /// A store with sessions that refresh, compact and (when durable)
    /// snapshot on every ingest.
    fn compacting_ctx(durability: Durability) -> TestCtx {
        TestCtx {
            store: ModelStore::new(0),
            sessions: SessionRegistry::new(streamfit::StreamConfig {
                refresh_every: 0,
                compact_every: 1,
            }),
            stats: ServerStats::default(),
            durability,
            debug_routes: false,
        }
    }

    /// `PUT x?k=2`, an ingest, then a re-fit `PUT x?k=3` while a second
    /// writer holds the session, as it does between `session_for` and its
    /// lock. That writer's append compacts; then one more ingest. Returns
    /// `x`'s stream status.
    fn refit_under_an_open_session(ctx: &TestCtx) -> String {
        let mut reader = ctx.reader();
        let mut call = |method: &str, target: &str, body: &str| {
            let resp = handle(&request(method, target, body.as_bytes()), &mut reader, ctx);
            (resp.status, body_text(&resp).to_string())
        };
        assert_eq!(call("PUT", "/models/x?k=2", &fit_body()).0, 201);
        assert_eq!(call("POST", "/models/x/ingest", &ingest_body()).0, 200);
        let held = ctx.sessions.get("x").unwrap();
        assert_eq!(call("PUT", "/models/x?k=3", &fit_body()).0, 201);
        let refit = ctx.store.reader().get("x").unwrap();
        assert_eq!(refit.k(), 3);
        assert!(
            Arc::ptr_eq(held.lock().unwrap().model(), &refit),
            "the re-fit reset the open session over itself"
        );

        let points: Vec<f64> = (0..40).map(|i| (i as f64 * 0.3).sin()).collect();
        let appended = append_journaled(&ctx.route(), "x", &mut held.lock().unwrap(), 0, &points);
        assert!(appended.is_ok());
        drop(held);
        let served = ctx.store.reader().get("x").unwrap();
        assert_eq!(
            served.k(),
            3,
            "the compaction publishes the re-fit's lineage"
        );
        assert!(!Arc::ptr_eq(&served, &refit));

        assert_eq!(call("POST", "/models/x/ingest", &ingest_body()).0, 200);
        let session = ctx.sessions.get("x").unwrap();
        let (model, points) = {
            let session = session.lock().unwrap();
            (Arc::clone(session.model()), session.points_total())
        };
        assert!(Arc::ptr_eq(&model, &ctx.store.reader().get("x").unwrap()));
        assert_eq!(points, 80);
        let (status, body) = call("GET", "/models/x/stream-status", "");
        assert_eq!(status, 200);
        body
    }

    #[test]
    fn a_refit_under_an_open_session_keeps_the_store_on_the_refit() {
        refit_under_an_open_session(&compacting_ctx(Durability::disabled()));
    }

    #[test]
    fn a_restart_after_a_refit_under_an_open_session_recovers_every_point() {
        let dir = StateDir::new("refit-open-session");
        let durability = || {
            Durability::new(crate::DurabilityConfig {
                state_dir: dir.0.clone(),
                snapshot_every: 0,
                ..crate::DurabilityConfig::default()
            })
        };
        let before = refit_under_an_open_session(&compacting_ctx(durability()));

        let restarted = compacting_ctx(durability());
        let report = crate::recover(&restarted.durability, &restarted.store, &restarted.sessions);
        assert_eq!(report.recovered, ["x"]);
        assert_eq!(restarted.store.reader().get("x").unwrap().k(), 3);
        let after = handle(
            &request("GET", "/models/x/stream-status", b""),
            &mut restarted.reader(),
            &restarted,
        );
        assert_eq!(body_text(&after), before, "exactly the acknowledged points");
        assert_eq!(metric(&restarted, "models_degraded"), 0);
    }

    /// A writer that read the model before a re-fit opens the name's
    /// session over the old `Arc` once the re-fit has dropped its own. The
    /// next writer finds that session held (by the first, before its lock)
    /// and resets it over the re-fit instead of retrying until it is free.
    #[test]
    fn a_session_opened_over_a_stale_arc_takes_the_refit() {
        let dir = StateDir::new("stale-open");
        let ctx = durable_ctx(0, &dir);
        let mut reader = ctx.reader();
        let mut call = |method: &str, target: &str, body: &str| {
            handle(&request(method, target, body.as_bytes()), &mut reader, &ctx).status
        };
        assert_eq!(call("PUT", "/models/x?k=2", &fit_body()), 201);
        let stale = ctx.store.reader().get("x").unwrap();
        assert_eq!(call("PUT", "/models/x?k=3", &fit_body()), 201);
        assert!(ctx.sessions.is_empty());
        let held = ctx.sessions.session_for("x", &stale);

        assert_eq!(call("POST", "/models/x/ingest", &ingest_body()), 200);
        let refit = ctx.store.reader().get("x").unwrap();
        assert_eq!(refit.k(), 3);
        let guard = held.lock().unwrap();
        assert!(Arc::ptr_eq(guard.model(), &refit));
        assert_eq!(guard.points_total(), 40);
    }

    #[test]
    fn an_empty_layer_is_refused_before_the_journal() {
        let dir = StateDir::new("empty-layer");
        let ctx = durable_ctx(0, &dir);
        let fitted = demo_store().store.reader().get("demo").unwrap();
        let mut hollow = fitted.best().clone();
        hollow.graph = tsgraph::GraphBuilder::new().build(Vec::new(), |w: &mut f64, x| *w += x);
        let model = Arc::new(KGraphModel::new(
            fitted.config.clone(),
            hollow, // the layer a session streams
            fitted.partitions.clone(),
            fitted.labels.clone(),
            fitted.scores.clone(),
            fitted.best_layer,
        ));
        ctx.store.insert("hollow", Arc::clone(&model));
        ctx.durability
            .persist_initial("hollow", &model, ctx.sessions.config());
        let written = || {
            ctx.durability
                .counters()
                .wal_records_written
                .load(Ordering::Relaxed)
        };

        let resp = handle(
            &request("POST", "/models/hollow/ingest", ingest_body().as_bytes()),
            &mut ctx.reader(),
            &ctx,
        );
        assert_eq!(resp.status, 500);
        assert_eq!(
            body_text(&resp),
            format!(
                "{{\"error\":\"{}\"}}",
                TsError::Degenerate("graph layer has no nodes; cannot route series".into())
            )
        );
        assert_eq!(written(), 0, "nothing journaled");
        // Still writable: not degraded, and its journal takes records.
        assert_eq!(metric(&ctx, "models_degraded"), 0);
        assert!(matches!(
            ctx.durability.log_ingest("hollow", 0, &[0.5]),
            IngestLog::Logged { seq: 1 }
        ));
        assert_eq!(written(), 1);
    }
}
