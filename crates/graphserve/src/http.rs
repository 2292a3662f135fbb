//! Minimal HTTP/1.1 message handling over blocking streams.
//!
//! The image has no async runtime or HTTP crates, so this is a small,
//! strict subset of RFC 9112 — exactly what the server and its tests
//! need: one request per connection (`Connection: close` semantics),
//! request-line + headers + `Content-Length` body, and length-delimited
//! responses. Limits are enforced while reading so a malformed or hostile
//! peer cannot balloon memory.
//!
//! The wire path costs few syscalls. [`Request::read_from`] reads the head
//! in chunks of up to `MAX_HEAD_BYTES` and keeps whatever body bytes
//! came with it, so a request of up to 16 KiB that has already arrived
//! takes one `read`, and a larger one a second `read_exact` for the rest
//! of its body. [`Response::write_to`] sends head and body in one write.

use std::io::{Read, Write};

/// Hard cap on the request head (request line + headers + blank line),
/// and the size of the buffer the head is read into.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// `Retry-After` value, in seconds, of every retryable `503`: a request
/// shed at admission and an ingest whose journal write failed.
pub(crate) const RETRY_AFTER_SECS: &str = "1";

/// A parse-level failure, mapped by the caller onto a 4xx response.
#[derive(Debug)]
pub enum HttpError {
    /// Connection closed or timed out mid-request.
    Io(std::io::Error),
    /// Malformed request line / headers / length.
    Malformed(String),
    /// Declared body exceeds the configured maximum.
    BodyTooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// Configured cap.
        limit: usize,
    },
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "io: {e}"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::BodyTooLarge { declared, limit } => {
                write!(f, "body of {declared} bytes exceeds limit {limit}")
            }
        }
    }
}

/// A parsed request.
#[derive(Debug, PartialEq)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Path without the query string, as sent: nothing is percent-decoded
    /// (e.g. `/models/cbf/score`).
    pub path: String,
    /// Query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Headers with lower-cased names.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// Reads and parses one request from `stream`, refusing bodies larger
    /// than `max_body`.
    pub fn read_from(stream: &mut impl Read, max_body: usize) -> Result<Request, HttpError> {
        // Read in chunks of up to the head cap until the blank line: one
        // read usually holds the whole head, and often the body as well.
        // Bytes past the blank line are the start of the body. A client
        // sends one request and waits for its answer, so a read never
        // holds bytes of a later request.
        let mut buf = vec![0u8; MAX_HEAD_BYTES];
        let mut filled = 0;
        let head_end = loop {
            let n = stream.read(&mut buf[filled..]).map_err(HttpError::Io)?;
            if n == 0 {
                return Err(HttpError::Malformed("connection closed mid-head".into()));
            }
            // Earlier bytes held no terminator, so one starts at most
            // three bytes before the new ones.
            let from = filled.saturating_sub(3);
            filled += n;
            if let Some(i) = buf[from..filled].windows(4).position(|w| w == b"\r\n\r\n") {
                break from + i + 4;
            }
            if filled == MAX_HEAD_BYTES {
                return Err(HttpError::Malformed("request head too large".into()));
            }
        };
        let head = std::str::from_utf8(&buf[..head_end])
            .map_err(|_| HttpError::Malformed("head is not UTF-8".into()))?;
        let mut lines = head.split("\r\n");
        let request_line = lines
            .next()
            .ok_or_else(|| HttpError::Malformed("empty head".into()))?;
        let mut parts = request_line.split(' ');
        let method = parts
            .next()
            .filter(|m| !m.is_empty())
            .ok_or_else(|| HttpError::Malformed("missing method".into()))?
            .to_ascii_uppercase();
        let target = parts
            .next()
            .ok_or_else(|| HttpError::Malformed("missing request target".into()))?;
        match parts.next() {
            Some(v) if v.starts_with("HTTP/1.") => {}
            _ => return Err(HttpError::Malformed("expected HTTP/1.x version".into())),
        }

        let (path, query_str) = match target.split_once('?') {
            Some((p, q)) => (p, q),
            None => (target, ""),
        };
        let query = query_str
            .split('&')
            .filter(|kv| !kv.is_empty())
            .map(|kv| match kv.split_once('=') {
                Some((k, v)) => (k.to_string(), v.to_string()),
                None => (kv.to_string(), String::new()),
            })
            .collect();

        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| HttpError::Malformed(format!("bad header line {line:?}")))?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }

        let mut req = Request {
            method,
            path: path.to_string(),
            query,
            headers,
            body: Vec::new(),
        };
        let declared = match req.header("content-length") {
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| HttpError::Malformed(format!("bad content-length {v:?}")))?,
            None => 0,
        };
        if declared > max_body {
            return Err(HttpError::BodyTooLarge {
                declared,
                limit: max_body,
            });
        }
        let mut body = buf[head_end..filled.min(head_end + declared)].to_vec();
        let early = body.len();
        body.resize(declared, 0);
        stream
            .read_exact(&mut body[early..])
            .map_err(HttpError::Io)?;
        req.body = body;
        Ok(req)
    }

    /// First header with the given lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First query parameter with the given name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client prefers CSV responses (`Accept: text/csv`).
    pub fn wants_csv(&self) -> bool {
        self.header("accept")
            .is_some_and(|a| a.contains("text/csv"))
    }
}

/// A response under construction.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond `Content-Type`/`Content-Length`/`Connection`.
    pub headers: Vec<(String, String)>,
    /// Media type of the body.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// JSON response with the given status.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            headers: Vec::new(),
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    /// Plain-text response.
    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            headers: Vec::new(),
            content_type: "text/plain; charset=utf-8",
            body: body.into_bytes(),
        }
    }

    /// CSV response.
    pub fn csv(status: u16, body: String) -> Response {
        Response {
            status,
            headers: Vec::new(),
            content_type: "text/csv; charset=utf-8",
            body: body.into_bytes(),
        }
    }

    /// SVG response.
    pub fn svg(body: String) -> Response {
        Response {
            status: 200,
            headers: Vec::new(),
            content_type: "image/svg+xml",
            body: body.into_bytes(),
        }
    }

    /// Standard JSON error envelope `{"error": …}`.
    pub fn error(status: u16, message: &str) -> Response {
        let mut body = String::from("{\"error\":");
        crate::json::write_json_string(&mut body, message);
        body.push('}');
        Response::json(status, body)
    }

    /// Adds a header (builder style).
    pub fn with_header(mut self, name: &str, value: String) -> Response {
        self.headers.push((name.to_string(), value));
        self
    }

    /// The canonical reason phrase for the codes this server emits.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            201 => "Created",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serialises the response (with `Connection: close`) onto `stream`.
    pub fn write_to(&self, stream: &mut impl Write) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        // One write: a body sent apart from its head would wait behind
        // Nagle until the peer acknowledged the head.
        let mut wire = head.into_bytes();
        wire.extend_from_slice(&self.body);
        stream.write_all(&wire)?;
        stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        Request::read_from(&mut std::io::Cursor::new(raw.to_vec()), 1024)
    }

    #[test]
    fn parses_get_with_query() {
        let req =
            parse(b"GET /models/cbf/render?format=svg&x=1 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/models/cbf/render");
        assert_eq!(req.query_param("format"), Some("svg"));
        assert_eq!(req.query_param("x"), Some("1"));
        assert_eq!(req.query_param("missing"), None);
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse(
            b"POST /models/m/score HTTP/1.1\r\nContent-Length: 5\r\nAccept: text/csv\r\n\r\nhello",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"hello");
        assert!(req.wants_csv());
        assert_eq!(req.header("content-length"), Some("5"));
    }

    #[test]
    fn rejects_oversized_body() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 99999\r\n\r\n";
        assert!(matches!(
            parse(raw),
            Err(HttpError::BodyTooLarge {
                declared: 99999,
                ..
            })
        ));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse(b"NOT A REQUEST\r\n\r\n").is_err());
        assert!(parse(b"GET /x\r\n\r\n").is_err(), "missing version");
        assert!(parse(b"").is_err(), "empty stream");
    }

    #[test]
    fn response_wire_format() {
        let resp =
            Response::json(200, "{\"ok\":true}".into()).with_header("retry-after", "2".into());
        let mut out = Vec::new();
        resp.write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.contains("retry-after: 2\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    #[test]
    fn error_envelope_escapes() {
        let resp = Response::error(400, "bad \"series\"");
        let body = String::from_utf8(resp.body).unwrap();
        assert_eq!(body, "{\"error\":\"bad \\\"series\\\"\"}");
    }

    /// Hands out `data` in reads of at most the next size of `sizes`
    /// (cycled), as a socket does when a request arrives in pieces.
    struct Chunked<'a> {
        data: &'a [u8],
        sizes: &'a [usize],
        reads: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let size = self.sizes[self.reads % self.sizes.len()];
            self.reads += 1;
            let n = size.min(out.len()).min(self.data.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// Reads `raw` as if it had all arrived, counting `read` calls.
    fn read_counted(raw: &[u8], max_body: usize) -> (Result<Request, HttpError>, usize) {
        let mut stream = Chunked {
            data: raw,
            sizes: &[usize::MAX],
            reads: 0,
        };
        let req = Request::read_from(&mut stream, max_body);
        (req, stream.reads)
    }

    /// A `GET` whose head is exactly `len` bytes, padded by one header.
    fn head_of_len(len: usize) -> Vec<u8> {
        let bare = b"GET /health HTTP/1.1\r\nx-pad: \r\n\r\n".len();
        let pad = "p".repeat(len - bare);
        format!("GET /health HTTP/1.1\r\nx-pad: {pad}\r\n\r\n").into_bytes()
    }

    fn letters(codes: &[u8]) -> String {
        codes.iter().map(|&c| (b'a' + c % 26) as char).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn every_split_reads_the_same_request(
            ((method, path), query, headers, pad, body, sizes) in (
                (0usize..4, proptest::collection::vec(0u8..26, 1..12)),
                proptest::collection::vec(
                    (proptest::collection::vec(0u8..26, 1..6), proptest::collection::vec(0u8..26, 0..6)),
                    0..4,
                ),
                proptest::collection::vec(
                    (proptest::collection::vec(0u8..26, 1..8), proptest::collection::vec(0u8..26, 0..12)),
                    0..5,
                ),
                0usize..14_000,
                proptest::collection::vec(0u8..=255, 0..20_000),
                proptest::collection::vec((1usize..40, 0u8..4), 1..8),
            )
        ) {
            let method = ["get", "POST", "Put", "DELETE"][method];
            let path = format!("/models/{}", letters(&path));
            let query: Vec<(String, String)> =
                query.iter().map(|(k, v)| (letters(k), letters(v))).collect();
            let mut expected_headers: Vec<(String, String)> = headers
                .iter()
                .map(|(n, v)| (format!("x-{}", letters(n)), letters(v)))
                .collect();
            expected_headers.push(("x-pad".into(), "p".repeat(pad)));
            expected_headers.push(("content-length".into(), body.len().to_string()));

            let mut raw = format!("{method} {path}");
            for (i, (k, v)) in query.iter().enumerate() {
                raw.push(if i == 0 { '?' } else { '&' });
                raw.push_str(&format!("{k}={v}"));
            }
            raw.push_str(" HTTP/1.1\r\n");
            for (name, value) in &expected_headers {
                // Names go out in upper case and come back lower-cased.
                raw.push_str(&format!("{}: {value}\r\n", name.to_ascii_uppercase()));
            }
            raw.push_str("\r\n");
            let mut raw = raw.into_bytes();
            raw.extend_from_slice(&body);

            let expected = Request {
                method: method.to_ascii_uppercase(),
                path,
                query,
                headers: expected_headers,
                body,
            };
            // One size in four is large, so reads range from single bytes
            // to whole requests.
            let sizes: Vec<usize> = sizes
                .iter()
                .map(|&(size, big)| if big == 0 { size * 700 } else { size })
                .collect();
            let mut stream = Chunked { data: &raw, sizes: &sizes, reads: 0 };
            let got = Request::read_from(&mut stream, 1 << 20);
            prop_assert!(got.is_ok(), "split {sizes:?}: {:?}", got.err());
            prop_assert_eq!(&got.unwrap(), &expected);
            let (whole, _) = read_counted(&raw, 1 << 20);
            prop_assert_eq!(whole.unwrap(), expected);
        }
    }

    #[test]
    fn a_request_that_has_arrived_costs_one_read_or_two() {
        // A `POST` of exactly `total` bytes, head and body.
        let score = |total: usize| {
            let head = |body_len: usize| {
                format!("POST /models/m/score HTTP/1.1\r\ncontent-length: {body_len}\r\n\r\n")
            };
            let mut body_len = total - head(0).len();
            while head(body_len).len() + body_len > total {
                body_len -= 1;
            }
            let mut raw = head(body_len).into_bytes();
            raw.resize(total, b'1');
            raw
        };
        for total in [52, 5_000, MAX_HEAD_BYTES] {
            let (req, reads) = read_counted(&score(total), 1 << 20);
            assert!(req.is_ok(), "a {total}-byte request");
            assert_eq!(reads, 1, "a {total}-byte request");
        }
        for total in [MAX_HEAD_BYTES + 1, 100_000, 1 << 20] {
            let (req, reads) = read_counted(&score(total), 1 << 20);
            assert!(req.is_ok(), "a {total}-byte request");
            assert!(reads <= 2, "a {total}-byte request took {reads} reads");
        }
        // 413 is decided before any body is read.
        let (req, reads) = read_counted(
            b"PUT /models/m HTTP/1.1\r\ncontent-length: 99999\r\n\r\n",
            1024,
        );
        assert!(matches!(
            req,
            Err(HttpError::BodyTooLarge {
                declared: 99999,
                limit: 1024
            })
        ));
        assert_eq!(reads, 1);
    }

    fn malformed(result: Result<Request, HttpError>) -> String {
        match result {
            Err(HttpError::Malformed(m)) => m,
            other => panic!("expected a malformed request, got {other:?}"),
        }
    }

    #[test]
    fn head_cap_is_exact() {
        for sizes in [&[usize::MAX][..], &[1], &[4096, 3]] {
            let read = |raw: &[u8]| {
                Request::read_from(
                    &mut Chunked {
                        data: raw,
                        sizes,
                        reads: 0,
                    },
                    1024,
                )
            };
            let at_cap = head_of_len(MAX_HEAD_BYTES);
            assert_eq!(at_cap.len(), 16_384);
            assert_eq!(read(&at_cap).unwrap().path, "/health");
            // The body of a request whose head fills the buffer comes from
            // a read of its own.
            let mut over = head_of_len(MAX_HEAD_BYTES - 19);
            over.truncate(over.len() - 2);
            over.extend_from_slice(b"content-length: 3\r\n\r\nabc");
            assert_eq!(over.len(), MAX_HEAD_BYTES + 3);
            assert_eq!(read(&over).unwrap().body, b"abc");
            assert_eq!(
                malformed(read(&head_of_len(MAX_HEAD_BYTES + 1))),
                "request head too large"
            );
            assert_eq!(
                malformed(read(b"GET / HTTP/1.1\r\nhost: x\r\n")),
                "connection closed mid-head"
            );
            assert_eq!(
                malformed(read(b"GET /\xff HTTP/1.1\r\n\r\n")),
                "head is not UTF-8"
            );
        }
    }

    #[test]
    fn read_errors_pass_through() {
        // A socket read timeout surfaces as `Io`, which the server answers
        // with 408.
        struct TimesOut(bool);
        impl Read for TimesOut {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                if std::mem::replace(&mut self.0, true) {
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                let part = b"GET / HTTP/1.1\r\n";
                out[..part.len()].copy_from_slice(part);
                Ok(part.len())
            }
        }
        match Request::read_from(&mut TimesOut(false), 1024) {
            Err(HttpError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::WouldBlock),
            other => panic!("expected an io error, got {other:?}"),
        }
    }

    #[test]
    fn a_response_is_one_write() {
        struct Counting(Vec<u8>, usize);
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.1 += 1;
                self.0.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let resp = Response::error(503, "busy").with_header("retry-after", "1".into());
        let mut out = Counting(Vec::new(), 0);
        resp.write_to(&mut out).unwrap();
        assert_eq!(out.1, 1);
        let expected = "HTTP/1.1 503 Service Unavailable\r\ncontent-type: application/json\r\n\
                        content-length: 16\r\nconnection: close\r\nretry-after: 1\r\n\r\n\
                        {\"error\":\"busy\"}";
        assert_eq!(String::from_utf8(out.0).unwrap(), expected);
    }
}
