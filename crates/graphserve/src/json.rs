//! Dependency-free JSON: a strict recursive-descent parser for request
//! bodies and one writer, [`JsonWriter`], for every response.
//!
//! The wire format only ever carries numbers, strings, arrays and flat
//! objects, so this stays deliberately small. The parser enforces a depth
//! limit so a hostile body cannot overflow the stack. The writer appends
//! straight into the body buffer: it places every separator, escapes every
//! key and string, writes numbers with Rust's shortest round-trip
//! `Display` (`{}`), valid JSON, and writes non-finite floats and absent
//! values as `null` (JSON has no NaN/∞).

use std::fmt::Write as _;

/// Maximum nesting depth accepted by the parser.
const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (always an `f64`, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an array slice, if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Member of an object by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Interprets the value as a flat numeric array.
    pub fn to_f64s(&self) -> Result<Vec<f64>, String> {
        let items = self.as_arr().ok_or("expected a JSON array of numbers")?;
        items
            .iter()
            .map(|v| v.as_f64().ok_or_else(|| "array holds a non-number".into()))
            .collect()
    }
}

/// A value [`JsonWriter`] writes: a number, a bool, a string, `null` for
/// `None`, or an array of these.
pub trait ToJson {
    /// Appends the value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

// An integer's or a bool's `Display` is its JSON text.
macro_rules! display_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

display_to_json!(bool, u16, u64, usize);

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        JsonWriter::new(out).array(self, |w, v| {
            w.value(v);
        });
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

/// Writes one JSON value into a `String` and places its separators: each
/// value, key, object or array after the first in its container is
/// preceded by a `,`.
pub struct JsonWriter<'a> {
    out: &'a mut String,
    /// No `,` goes before the next item: it opens the document or a
    /// container, or follows a key.
    first: bool,
}

impl<'a> JsonWriter<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut String) -> JsonWriter<'a> {
        JsonWriter { out, first: true }
    }

    fn separate(&mut self) {
        if !std::mem::replace(&mut self.first, false) {
            self.out.push(',');
        }
    }

    /// Writes a value: an array element, or the value after a key.
    pub fn value(&mut self, value: impl ToJson) -> &mut Self {
        self.separate();
        value.write_json(self.out);
        self
    }

    /// Writes an object member's key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.value(key);
        self.out.push(':');
        self.first = true;
        self
    }

    /// Writes an object member.
    pub fn field(&mut self, key: &str, value: impl ToJson) -> &mut Self {
        self.key(key).value(value)
    }

    /// Writes an object whose members `members` writes.
    pub fn object(&mut self, members: impl FnOnce(&mut Self)) -> &mut Self {
        self.container('{', '}', members)
    }

    /// Writes an array with one element per item, each written by
    /// `element`.
    pub fn array<I: IntoIterator>(
        &mut self,
        items: I,
        mut element: impl FnMut(&mut Self, I::Item),
    ) -> &mut Self {
        self.container('[', ']', |w| {
            items.into_iter().for_each(|item| element(w, item));
        })
    }

    fn container(&mut self, open: char, close: char, fill: impl FnOnce(&mut Self)) -> &mut Self {
        self.separate();
        self.out.push(open);
        self.first = true;
        fill(self);
        self.out.push(close);
        self.first = false;
        self
    }
}

/// Serialises a numeric slice as a JSON array (`null` for non-finite
/// values).
pub fn f64s_to_json(values: &[f64]) -> String {
    let mut out = String::new();
    values.write_json(&mut out);
    out
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err("nesting too deep".into());
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        // Surrogates are rejected rather than paired — the
                        // wire format never sends them.
                        out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => return Err("control byte in string".into()),
            Some(_) => {
                // Copy the whole run of plain bytes at once. Its delimiters
                // are ASCII, so the run starts and ends on char boundaries
                // of the `&str` the bytes came from.
                let start = *pos;
                while bytes
                    .get(*pos)
                    .is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20)
                {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "invalid UTF-8")?;
                out.push_str(run);
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "invalid number bytes")?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number {text:?} at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(
            Json::parse("\"a\\nb\"").unwrap(),
            Json::Str("a\nb".to_string())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"series":[1,2.5,-3],"context":5,"name":"x"}"#).unwrap();
        assert_eq!(
            v.get("series").unwrap().to_f64s().unwrap(),
            vec![1.0, 2.5, -3.0]
        );
        assert_eq!(v.get("context").unwrap().as_f64(), Some(5.0));
        assert_eq!(v.get("name"), Some(&Json::Str("x".into())));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("[1,2").is_err());
        assert!(Json::parse("[1,2] trailing").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("nope").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn parses_an_object_of_every_value_kind() {
        let text = r#"{"a":[1,2],"b":"x\"y","c":null,"d":false}"#;
        assert_eq!(
            Json::parse(text).unwrap(),
            Json::Obj(vec![
                ("a".into(), Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])),
                ("b".into(), Json::Str("x\"y".into())),
                ("c".into(), Json::Null),
                ("d".into(), Json::Bool(false)),
            ])
        );
    }

    #[test]
    fn a_mebibyte_string_decodes_exactly() {
        // Each piece as sent and as decoded: plain ASCII, two-, three- and
        // four-byte characters, and every escape.
        let pieces = [
            ("plain ascii, ", "plain ascii, "),
            ("é中🦀", "é中🦀"),
            (r#"\"\\\/"#, "\"\\/"),
            (r"\n\r\t\b\f", "\n\r\t\u{8}\u{c}"),
            (r"\u00e9\u4e2D\u0001", "é中\u{1}"),
        ];
        let (mut sent, mut decoded) = (String::from("{\""), String::new());
        while decoded.len() < 1 << 20 {
            for (wire, text) in pieces {
                sent.push_str(wire);
                decoded.push_str(text);
            }
        }
        sent.push_str("\":1}");
        let v = Json::parse(&sent).unwrap();
        assert_eq!(v, Json::Obj(vec![(decoded, Json::Num(1.0))]));
    }

    #[test]
    fn writes_numbers_and_non_finite() {
        assert_eq!(f64s_to_json(&[1.0, 2.5]), "[1,2.5]");
        assert_eq!(f64s_to_json(&[f64::NAN]), "[null]");
        assert_eq!(
            f64s_to_json(&[f64::INFINITY, f64::NEG_INFINITY]),
            "[null,null]"
        );
        assert_eq!(
            f64s_to_json(&[16.0, -0.0, 1e21, 0.1]),
            "[16,-0,1000000000000000000000,0.1]"
        );
    }

    #[test]
    fn the_writer_separates_nests_and_escapes() {
        let mut body = String::new();
        JsonWriter::new(&mut body).object(|w| {
            w.field("a", 1usize)
                .field("b", "x\"y\\z\n\r\t\u{1}\u{7f}é")
                .field("c", None::<f64>)
                .field("d", Some(0.5))
                .key("e")
                .array([(1u64, true), (2, false)], |w, (n, flag)| {
                    w.object(|w| {
                        w.field("n", n).field("flag", flag);
                    });
                })
                .field("f", [f64::NAN, 3.0].as_slice())
                .key("g")
                .array(Vec::<u16>::new(), |w, v| {
                    w.value(v);
                })
                .key("h")
                .object(|_| {});
        });
        assert_eq!(
            body,
            "{\"a\":1,\"b\":\"x\\\"y\\\\z\\n\\r\\t\\u0001\u{7f}é\",\"c\":null,\"d\":0.5,\
             \"e\":[{\"n\":1,\"flag\":true},{\"n\":2,\"flag\":false}],\
             \"f\":[null,3],\"g\":[],\"h\":{}}"
        );
        assert!(Json::parse(&body).is_ok());
    }
}
