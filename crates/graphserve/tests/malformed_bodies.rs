//! The status and exact body of every malformed body the series routes
//! can be sent: score, features, predict, batch, `PUT` fit and ingest.
//! The table pins each answer byte for byte, so a change to how bodies
//! are decoded cannot move a status code or an error text. Every case is
//! refused before any model code runs, except `[[]]`, whose one empty
//! row reaches the batch's per-row answer and the fit's row count.

use graphserve::http::{Request, Response};
use graphserve::routes::{self, RouteContext};
use graphserve::{Durability, ModelStore, ServerStats};
use kgraph::{KGraph, KGraphConfig};
use std::sync::Arc;
use streamfit::{SessionRegistry, StreamConfig};
use tscore::{Dataset, DatasetKind, TimeSeries};

/// Label, method and path of each route a body can be sent to.
const ROUTES: [(&str, &str, &str); 6] = [
    ("score", "POST", "/models/demo/score"),
    ("features", "POST", "/models/demo/features"),
    ("predict", "POST", "/models/demo/predict"),
    ("batch", "POST", "/models/demo/batch"),
    ("fit", "PUT", "/models/fresh"),
    ("ingest", "POST", "/models/demo/ingest"),
];

/// Each case's name, `content-type` header (if any) and body.
fn bodies() -> Vec<(&'static str, Option<&'static str>, Vec<u8>)> {
    let rows_4097 = format!("[{}[1]]", "[1],".repeat(4096));
    let csv_rows_4097 = "1\n".repeat(4097);
    vec![
        ("not_utf8", None, b"[1,\xff,3]".to_vec()),
        ("not_utf8_csv", None, b"1,2,\xfe".to_vec()),
        ("bad_json", None, b"[1,2,".to_vec()),
        ("bad_json_object", None, b"{\"series\" [1]}".to_vec()),
        ("trailing_garbage", None, b"[1,2] x".to_vec()),
        (
            "json_type_csv_body",
            Some("application/json"),
            b"1,2,3".to_vec(),
        ),
        ("non_number", None, b"[1,\"x\",3]".to_vec()),
        ("non_number_row", None, b"[[1,2],[1,\"x\",3]]".to_vec()),
        ("non_number_null", None, b"{\"series\":[1,null]}".to_vec()),
        ("empty_array", None, b"[]".to_vec()),
        ("empty_body", None, b"".to_vec()),
        ("blank_body", None, b"  \n \r\n".to_vec()),
        ("empty_series_member", None, b"{\"series\":[]}".to_vec()),
        (
            "empty_points",
            None,
            b"{\"series\":0,\"points\":[]}".to_vec(),
        ),
        ("empty_row", None, b"[[]]".to_vec()),
        ("bad_csv", None, b"1,2,x".to_vec()),
        ("bad_csv_row", None, b"1,2,3\n4,five,6".to_vec()),
        ("nan_csv", None, b"1,NaN,3".to_vec()),
        ("inf_csv", None, b"1,2,inf".to_vec()),
        ("neg_inf_csv", None, b"-inf,2".to_vec()),
        ("overflow_json", None, b"[1,1e999]".to_vec()),
        ("huge_json", None, b"[1,2,1e308]".to_vec()),
        ("huge_row", None, b"[[1,2],[3,-1e308]]".to_vec()),
        ("huge_csv_row", None, b"1,2\n3,1e101".to_vec()),
        ("batch_4097_json", None, rows_4097.into_bytes()),
        ("batch_4097_csv", None, csv_rows_4097.into_bytes()),
        (
            "series_negative",
            None,
            b"{\"series\":-1,\"points\":[1,2]}".to_vec(),
        ),
        (
            "series_fraction",
            None,
            b"{\"series\":1.5,\"points\":[1,2]}".to_vec(),
        ),
        (
            "series_string",
            None,
            b"{\"series\":\"0\",\"points\":[1,2]}".to_vec(),
        ),
        ("series_without_points", None, b"{\"series\":-1}".to_vec()),
        (
            "object_without_series",
            None,
            b"{\"values\":[1,2]}".to_vec(),
        ),
        ("scalar", None, b"{\"series\":5}".to_vec()),
    ]
}

/// (case, the routes that answer it alike, status, body). Each case is
/// sent to all six routes, except `batch_4097_csv`: to the others it is
/// one valid 4,097-point series.
#[rustfmt::skip]
const EXPECTED: &[(&str, &str, u16, &str)] = &[
    ("not_utf8", "score features predict batch fit ingest", 400, r#"{"error":"body is not UTF-8"}"#),
    ("not_utf8_csv", "score features predict batch fit ingest", 400, r#"{"error":"body is not UTF-8"}"#),
    ("bad_json", "score features predict batch fit ingest", 400, r#"{"error":"unexpected end of input"}"#),
    ("bad_json_object", "score features predict batch fit ingest", 400, r#"{"error":"expected ':' at byte 10"}"#),
    ("trailing_garbage", "score features predict batch fit ingest", 400, r#"{"error":"trailing garbage at byte 6"}"#),
    ("json_type_csv_body", "score features predict batch fit ingest", 400, r#"{"error":"trailing garbage at byte 1"}"#),
    ("non_number", "score features predict", 400, r#"{"error":"array holds a non-number"}"#),
    ("non_number", "batch fit", 400, r#"{"error":"expected a JSON array of numbers"}"#),
    ("non_number", "ingest", 400, r#"{"error":"array holds a non-number"}"#),
    ("non_number_row", "score features predict batch fit ingest", 400, r#"{"error":"array holds a non-number"}"#),
    ("non_number_null", "score features predict", 400, r#"{"error":"array holds a non-number"}"#),
    ("non_number_null", "batch fit", 400, r#"{"error":"expected a JSON array of numbers"}"#),
    ("non_number_null", "ingest", 400, r#"{"error":"array holds a non-number"}"#),
    ("empty_array", "score features predict", 400, r#"{"error":"empty series"}"#),
    ("empty_array", "batch fit", 400, r#"{"error":"empty batch"}"#),
    ("empty_array", "ingest", 400, r#"{"error":"empty points"}"#),
    ("empty_body", "score features predict", 400, r#"{"error":"empty series"}"#),
    ("empty_body", "batch fit", 400, r#"{"error":"empty batch"}"#),
    ("empty_body", "ingest", 400, r#"{"error":"empty points"}"#),
    ("blank_body", "score features predict", 400, r#"{"error":"empty series"}"#),
    ("blank_body", "batch fit", 400, r#"{"error":"empty batch"}"#),
    ("blank_body", "ingest", 400, r#"{"error":"empty points"}"#),
    ("empty_series_member", "score features predict", 400, r#"{"error":"empty series"}"#),
    ("empty_series_member", "batch fit", 400, r#"{"error":"empty batch"}"#),
    ("empty_series_member", "ingest", 400, r#"{"error":"empty points"}"#),
    ("empty_points", "score features predict", 400, r#"{"error":"expected a JSON array of numbers"}"#),
    ("empty_points", "batch fit", 400, r#"{"error":"expected an array of series"}"#),
    ("empty_points", "ingest", 400, r#"{"error":"empty points"}"#),
    ("empty_row", "score features predict", 400, r#"{"error":"array holds a non-number"}"#),
    ("empty_row", "batch", 200, r#"{"results":[{"error":"series too short: required 16, got 0","status":422}]}"#),
    ("empty_row", "fit", 422, r#"{"error":"need at least k=2 series, got 1"}"#),
    ("empty_row", "ingest", 400, r#"{"error":"array holds a non-number"}"#),
    ("bad_csv", "score features predict batch fit ingest", 400, r#"{"error":"bad number \"x\""}"#),
    ("bad_csv_row", "score features predict batch fit ingest", 400, r#"{"error":"bad number \"five\""}"#),
    ("nan_csv", "score features predict", 422, r#"{"error":"point 1 is NaN: series points must be finite with magnitude at most 1e100"}"#),
    ("nan_csv", "batch fit", 422, r#"{"error":"point 1 is NaN: points of series 0 must be finite with magnitude at most 1e100"}"#),
    ("nan_csv", "ingest", 422, r#"{"error":"point 1 is NaN: ingested points must be finite with magnitude at most 1e100"}"#),
    ("inf_csv", "score features predict", 422, r#"{"error":"point 2 is inf: series points must be finite with magnitude at most 1e100"}"#),
    ("inf_csv", "batch fit", 422, r#"{"error":"point 2 is inf: points of series 0 must be finite with magnitude at most 1e100"}"#),
    ("inf_csv", "ingest", 422, r#"{"error":"point 2 is inf: ingested points must be finite with magnitude at most 1e100"}"#),
    ("neg_inf_csv", "score features predict", 422, r#"{"error":"point 0 is -inf: series points must be finite with magnitude at most 1e100"}"#),
    ("neg_inf_csv", "batch fit", 422, r#"{"error":"point 0 is -inf: points of series 0 must be finite with magnitude at most 1e100"}"#),
    ("neg_inf_csv", "ingest", 422, r#"{"error":"point 0 is -inf: ingested points must be finite with magnitude at most 1e100"}"#),
    ("overflow_json", "score features predict", 422, r#"{"error":"point 1 is inf: series points must be finite with magnitude at most 1e100"}"#),
    ("overflow_json", "batch fit", 400, r#"{"error":"expected a JSON array of numbers"}"#),
    ("overflow_json", "ingest", 422, r#"{"error":"point 1 is inf: ingested points must be finite with magnitude at most 1e100"}"#),
    ("huge_json", "score features predict", 422, r#"{"error":"point 2 is 100000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000: series points must be finite with magnitude at most 1e100"}"#),
    ("huge_json", "batch fit", 400, r#"{"error":"expected a JSON array of numbers"}"#),
    ("huge_json", "ingest", 422, r#"{"error":"point 2 is 100000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000: ingested points must be finite with magnitude at most 1e100"}"#),
    ("huge_row", "score features predict", 400, r#"{"error":"array holds a non-number"}"#),
    ("huge_row", "batch fit", 422, r#"{"error":"point 1 is -100000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000: points of series 1 must be finite with magnitude at most 1e100"}"#),
    ("huge_row", "ingest", 400, r#"{"error":"array holds a non-number"}"#),
    ("huge_csv_row", "score features predict", 422, r#"{"error":"point 3 is 100000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000: series points must be finite with magnitude at most 1e100"}"#),
    ("huge_csv_row", "batch fit", 422, r#"{"error":"point 1 is 100000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000: points of series 1 must be finite with magnitude at most 1e100"}"#),
    ("huge_csv_row", "ingest", 422, r#"{"error":"point 3 is 100000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000: ingested points must be finite with magnitude at most 1e100"}"#),
    ("batch_4097_json", "score features predict", 400, r#"{"error":"array holds a non-number"}"#),
    ("batch_4097_json", "batch fit", 413, r#"{"error":"batch of 4097 rows exceeds limit 4096"}"#),
    ("batch_4097_json", "ingest", 400, r#"{"error":"array holds a non-number"}"#),
    ("batch_4097_csv", "batch fit", 413, r#"{"error":"batch of 4097 rows exceeds limit 4096"}"#),
    ("series_negative", "score features predict", 400, r#"{"error":"expected a JSON array of numbers"}"#),
    ("series_negative", "batch fit", 400, r#"{"error":"expected an array of series"}"#),
    ("series_negative", "ingest", 400, r#"{"error":"series must be a non-negative integer"}"#),
    ("series_fraction", "score features predict", 400, r#"{"error":"expected a JSON array of numbers"}"#),
    ("series_fraction", "batch fit", 400, r#"{"error":"expected an array of series"}"#),
    ("series_fraction", "ingest", 400, r#"{"error":"series must be a non-negative integer"}"#),
    ("series_string", "score features predict", 400, r#"{"error":"expected a JSON array of numbers"}"#),
    ("series_string", "batch fit", 400, r#"{"error":"expected an array of series"}"#),
    ("series_string", "ingest", 400, r#"{"error":"series must be a non-negative integer"}"#),
    ("series_without_points", "score features predict", 400, r#"{"error":"expected a JSON array of numbers"}"#),
    ("series_without_points", "batch fit", 400, r#"{"error":"expected an array of series"}"#),
    ("series_without_points", "ingest", 400, r#"{"error":"expected a JSON array of numbers"}"#),
    ("object_without_series", "score features predict", 400, r#"{"error":"expected a JSON array of numbers"}"#),
    ("object_without_series", "batch fit", 400, r#"{"error":"expected an array of series"}"#),
    ("object_without_series", "ingest", 400, r#"{"error":"expected a JSON array of numbers"}"#),
    ("scalar", "score features predict", 400, r#"{"error":"expected a JSON array of numbers"}"#),
    ("scalar", "batch fit", 400, r#"{"error":"expected an array of series"}"#),
    ("scalar", "ingest", 400, r#"{"error":"expected a JSON array of numbers"}"#),
];

/// A store serving `demo` (two clusters of eight 80-point sine series,
/// one length of 16) without durability.
fn context() -> (ModelStore, SessionRegistry, ServerStats, Durability) {
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
    (
        store,
        SessionRegistry::new(StreamConfig::default()),
        ServerStats::default(),
        Durability::disabled(),
    )
}

fn send(
    ctx: &(ModelStore, SessionRegistry, ServerStats, Durability),
    (method, path): (&str, &str),
    content_type: Option<&str>,
    body: &[u8],
) -> Response {
    let req = Request {
        method: method.into(),
        path: path.into(),
        query: Vec::new(),
        headers: content_type
            .map(|ct| vec![("content-type".to_string(), ct.to_string())])
            .unwrap_or_default(),
        body: body.to_vec(),
    };
    let route = RouteContext {
        store: &ctx.0,
        sessions: &ctx.1,
        stats: &ctx.2,
        durability: &ctx.3,
    };
    routes::handle(&req, &mut ctx.0.reader(), &route)
}

#[test]
fn every_malformed_body_keeps_its_status_and_exact_body() {
    let ctx = context();
    let bodies = bodies();
    for (case, ..) in &bodies {
        assert!(
            EXPECTED.iter().any(|(c, ..)| c == case),
            "{case} has no expected answer"
        );
    }
    for &(case, labels, status, expected) in EXPECTED {
        let (_, content_type, body) = bodies
            .iter()
            .find(|(c, ..)| *c == case)
            .unwrap_or_else(|| panic!("no body named {case}"));
        for label in labels.split(' ') {
            let &(_, method, path) = ROUTES
                .iter()
                .find(|(l, ..)| *l == label)
                .unwrap_or_else(|| panic!("no route labelled {label}"));
            let resp = send(&ctx, (method, path), *content_type, body);
            let text = String::from_utf8(resp.body).expect("a UTF-8 body");
            assert_eq!(
                (resp.status, text.as_str()),
                (status, expected),
                "{case} to {label}"
            );
        }
    }
    assert!(ctx.1.is_empty(), "no malformed ingest opened a session");
}
