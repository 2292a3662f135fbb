//! Minimal HTTP/1.1 message handling over blocking streams.
//!
//! The image has no async runtime or HTTP crates, so this is a small,
//! strict subset of RFC 9112 — exactly what the server and its tests
//! need: one request per connection (`Connection: close` semantics),
//! request-line + headers + `Content-Length` body, and length-delimited
//! responses. Limits are enforced while reading so a malformed or hostile
//! peer cannot balloon memory.

use std::io::{Read, Write};

/// Hard cap on the request head (request line + headers).
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
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path without the query string (e.g. `/models/cbf/score`).
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
        // Read byte-wise until the blank line; the head is tiny and the
        // stream is buffered by the kernel, so this stays simple and never
        // over-reads into the body.
        let mut head = Vec::with_capacity(256);
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") {
            if head.len() >= MAX_HEAD_BYTES {
                return Err(HttpError::Malformed("request head too large".into()));
            }
            match stream.read(&mut byte) {
                Ok(0) => {
                    return Err(HttpError::Malformed("connection closed mid-head".into()));
                }
                Ok(_) => head.push(byte[0]),
                Err(e) => return Err(HttpError::Io(e)),
            }
        }
        let head = String::from_utf8(head)
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
        let mut body = vec![0u8; declared];
        stream.read_exact(&mut body).map_err(HttpError::Io)?;
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
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
