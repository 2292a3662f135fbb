//! A minimal blocking HTTP/1.1 client: one request per connection, the
//! server's own `Connection: close` discipline.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One answered request.
pub struct Reply {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// `connect()` returned.
    pub connect: Duration,
    /// First response byte arrived.
    pub ttfb: Duration,
    /// Response fully read (peer closed).
    pub total: Duration,
}

impl Reply {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

/// The exact request bytes sent on the wire (and fed to the in-process
/// replay).
pub fn raw_request(method: &str, target: &str, body: &[u8]) -> Vec<u8> {
    let mut buf = format!(
        "{method} {target} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    buf.extend_from_slice(body);
    buf
}

/// Sends one request and reads the whole response.
pub fn send(addr: SocketAddr, raw: &[u8]) -> Result<Reply, String> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let connect = t0.elapsed();
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
    stream.write_all(raw).map_err(|e| format!("write: {e}"))?;
    let mut out = Vec::with_capacity(8192);
    let mut chunk = [0u8; 64 * 1024];
    let mut ttfb = None;
    loop {
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            break;
        }
        ttfb.get_or_insert_with(|| t0.elapsed());
        out.extend_from_slice(&chunk[..n]);
    }
    let total = t0.elapsed();
    let (status, headers, body) = parse_response(&out)?;
    Ok(Reply {
        status,
        headers,
        body,
        connect,
        ttfb: ttfb.unwrap_or(total),
        total,
    })
}

type Parsed = (u16, Vec<(String, String)>, Vec<u8>);

/// Splits a complete response into status, lower-cased headers and body,
/// checking `content-length` against the bytes received.
pub fn parse_response(raw: &[u8]) -> Result<Parsed, String> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no header terminator")?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| "response head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .strip_prefix("HTTP/1.1 ")
        .and_then(|s| s.get(..3))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let body = raw[split + 4..].to_vec();
    let declared: Option<usize> = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse().ok());
    if declared != Some(body.len()) {
        return Err(format!(
            "content-length {declared:?} but {} body bytes",
            body.len()
        ));
    }
    Ok((status, headers, body))
}

/// FNV-1a, to compare response bodies without keeping them.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}
