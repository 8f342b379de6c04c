//! A minimal JSON document model with a writer and parser.
//!
//! The workspace builds offline against vendored dependency stubs (the
//! `serde` stub's derives are no-ops — see `vendor/README.md`), so it
//! carries its own small JSON implementation.  Two consumers depend on it:
//! the harness's golden-run regression files and the service's durable
//! snapshot/WAL codec (`service::persist`).  Three properties matter and
//! are guaranteed here:
//!
//! * **Deterministic output** — objects keep insertion order (they are stored
//!   as vectors, not hash maps), and numbers are written with Rust's
//!   shortest-roundtrip float formatting, so the same document always renders
//!   to the same bytes.
//! * **Lossless round-trip** — `parse(render(v)) == v` for every finite value,
//!   including `-0.0` (rendered as `-0`), subnormals and integer-valued
//!   floats; cost values survive a durability cycle bit-for-bit.
//! * **No silent corruption** — JSON has no NaN/Infinity, so rendering a
//!   non-finite number is a hard [`JsonError`] on the write path, never a
//!   lossy placeholder.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (JSON does not distinguish integers from floats).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Shorthand for building an object.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Look up a field of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render the value as pretty-printed JSON (2-space indent, `\n` line
    /// endings, trailing newline) — the golden-file and snapshot format.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] if the document contains a non-finite number —
    /// JSON cannot represent NaN/Infinity, and a durability codec must fail
    /// loudly rather than write a lossy placeholder.
    pub fn render(&self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.write(&mut out, 0)?;
        out.push('\n');
        Ok(out)
    }

    fn write(&self, out: &mut String, indent: usize) -> Result<(), JsonError> {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) => write_number(out, *n)?,
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return Ok(());
                }
                // Arrays of scalars stay on one line; arrays of containers
                // get one element per line.
                let nested = items
                    .iter()
                    .any(|i| matches!(i, Json::Arr(_) | Json::Obj(_)));
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if nested {
                        out.push('\n');
                        push_indent(out, indent + 1);
                    } else if i > 0 {
                        out.push(' ');
                    }
                    item.write(out, indent + 1)?;
                }
                if nested {
                    out.push('\n');
                    push_indent(out, indent);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return Ok(());
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1)?;
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
        Ok(())
    }

    /// Parse a JSON document.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, n: f64) -> Result<(), JsonError> {
    if !n.is_finite() {
        // JSON has no NaN/Inf.  Rendering a placeholder here would be silent
        // corruption for a durability codec, so fail the write instead.
        return Err(JsonError {
            offset: out.len(),
            message: format!("cannot render non-finite number {n}"),
        });
    }
    if n == 0.0 && n.is_sign_negative() {
        // Preserve the sign bit: "-0" parses back to -0.0 exactly.
        out.push_str("-0");
    } else if n == n.trunc() && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // `{}` on f64 is the shortest representation that round-trips.
        let _ = write!(out, "{n}");
    }
    Ok(())
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
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

/// A JSON error with a byte offset (into the input when parsing, into the
/// output produced so far when rendering).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    /// Consume the four hex digits of a `\u` escape (cursor on the `u`) and
    /// return the code unit; leaves the cursor on the last digit.
    fn hex_escape(&mut self) -> Result<u32, JsonError> {
        if self.pos + 5 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let code = self.hex_escape()?;
                            let c = if (0xD800..0xDC00).contains(&code) {
                                // High surrogate: a \u low surrogate must
                                // follow (standard JSON escaping of non-BMP
                                // characters).
                                if self.bytes.get(self.pos + 1) != Some(&b'\\')
                                    || self.bytes.get(self.pos + 2) != Some(&b'u')
                                {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                                // Land on the low escape's `u` (the cursor is
                                // on the high escape's last hex digit).
                                self.pos += 2;
                                let low = self.hex_escape()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(code).ok_or_else(|| self.err("invalid codepoint"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the whole run up to the next quote or backslash
                    // in one step.  Both are ASCII, so a run never splits a
                    // UTF-8 sequence.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run =
                        std::str::from_utf8(&rest[..len]).map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Compare two JSON documents structurally, allowing numeric fields to differ
/// within a relative tolerance (plus a small absolute floor for values near
/// zero).  Returns the list of human-readable differences; empty means the
/// documents match.
pub fn diff_with_tolerance(expected: &Json, actual: &Json, rel_tol: f64) -> Vec<String> {
    let mut diffs = Vec::new();
    diff_inner(expected, actual, rel_tol, "$", &mut diffs);
    diffs
}

fn diff_inner(expected: &Json, actual: &Json, rel_tol: f64, path: &str, diffs: &mut Vec<String>) {
    match (expected, actual) {
        (Json::Num(e), Json::Num(a)) => {
            let tol = rel_tol * e.abs().max(a.abs()) + 1e-9;
            if (e - a).abs() > tol {
                diffs.push(format!("{path}: expected {e}, got {a}"));
            }
        }
        (Json::Arr(e), Json::Arr(a)) => {
            if e.len() != a.len() {
                diffs.push(format!(
                    "{path}: array length mismatch (expected {}, got {})",
                    e.len(),
                    a.len()
                ));
                return;
            }
            for (i, (ev, av)) in e.iter().zip(a.iter()).enumerate() {
                diff_inner(ev, av, rel_tol, &format!("{path}[{i}]"), diffs);
            }
        }
        (Json::Obj(e), Json::Obj(a)) => {
            for (key, ev) in e {
                match a.iter().find(|(k, _)| k == key) {
                    Some((_, av)) => diff_inner(ev, av, rel_tol, &format!("{path}.{key}"), diffs),
                    None => diffs.push(format!("{path}.{key}: missing in actual")),
                }
            }
            for (key, _) in a {
                if !e.iter().any(|(k, _)| k == key) {
                    diffs.push(format!("{path}.{key}: unexpected in actual"));
                }
            }
        }
        (e, a) if e == a => {}
        (e, a) => diffs.push(format!("{path}: expected {e:?}, got {a:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj(vec![
            ("name", Json::Str("fig8-mini".into())),
            ("total", Json::Num(12345.6789)),
            ("count", Json::Num(48.0)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
            (
                "cells",
                Json::Arr(vec![Json::obj(vec![
                    ("label", Json::Str("WFIT \"quoted\"\n".into())),
                    ("series", Json::Arr(vec![Json::Num(1.0), Json::Num(0.25)])),
                ])]),
            ),
        ])
    }

    #[test]
    fn render_parse_round_trip() {
        let v = sample();
        let text = v.render().expect("finite document renders");
        let parsed = Json::parse(&text).expect("round trip parses");
        assert_eq!(parsed, v);
    }

    #[test]
    fn render_is_deterministic() {
        assert_eq!(sample().render().unwrap(), sample().render().unwrap());
    }

    #[test]
    fn parse_handles_whitespace_and_escapes() {
        let v = Json::parse(" { \"a\" : [ 1 , -2.5e3 , \"x\\u0041\" ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1], Json::Num(-2500.0));
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2],
            Json::Str("xA".into())
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("true false").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn tolerant_diff_accepts_small_numeric_drift() {
        let a = Json::parse("{\"x\": 1000.0, \"y\": [1, 2]}").unwrap();
        let b = Json::parse("{\"x\": 1000.0000001, \"y\": [1, 2]}").unwrap();
        assert!(diff_with_tolerance(&a, &b, 1e-6).is_empty());
        let c = Json::parse("{\"x\": 1001.0, \"y\": [1, 2]}").unwrap();
        assert!(!diff_with_tolerance(&a, &c, 1e-6).is_empty());
    }

    #[test]
    fn tolerant_diff_reports_structural_differences() {
        let a = Json::parse("{\"x\": 1, \"y\": \"a\"}").unwrap();
        let b = Json::parse("{\"x\": [1], \"z\": \"a\"}").unwrap();
        let diffs = diff_with_tolerance(&a, &b, 1e-6);
        assert!(diffs.iter().any(|d| d.contains("$.x")));
        assert!(diffs.iter().any(|d| d.contains("$.y: missing")));
        assert!(diffs.iter().any(|d| d.contains("$.z: unexpected")));
    }

    #[test]
    fn parse_handles_surrogate_pairs() {
        // "\ud83d\ude00" is U+1F600 as escaped by ensure_ascii JSON tools.
        let v = Json::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v, Json::Str("\u{1F600}".into()));
        // Unpaired or malformed surrogates are rejected, not mis-decoded.
        assert!(Json::parse("\"\\ud83d\"").is_err());
        assert!(Json::parse("\"\\ud83dx\"").is_err());
        assert!(Json::parse("\"\\ud83d\\u0041\"").is_err());
    }

    #[test]
    fn raw_multibyte_text_round_trips_next_to_quotes_and_escapes() {
        let text = "é\"ü\\→\n日本\"\u{1F600}\\\"ß\tend ñ";
        let doc = Json::obj(vec![(text, Json::Str(text.into()))]);
        let rendered = doc.render().unwrap();
        // Non-ASCII characters are written raw, not as \u escapes.
        assert!(rendered.contains("日本") && rendered.contains('\u{1F600}'));
        assert_eq!(Json::parse(&rendered).unwrap(), doc);
        // Raw characters mixed with escapes parse to the same string.
        let v = Json::parse("\"ü\\u00e9→\\\"日\\\\\"").unwrap();
        assert_eq!(v, Json::Str("üé→\"日\\".into()));
        // A string cut inside a raw run is unterminated, not a panic.
        assert!(Json::parse("\"日本").is_err());
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(42.0).render().unwrap(), "42\n");
        assert_eq!(Json::Num(-0.5).render().unwrap(), "-0.5\n");
    }

    #[test]
    fn non_finite_numbers_are_a_hard_write_error() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let doc = Json::obj(vec![("x", Json::Num(bad))]);
            let err = doc.render().expect_err("non-finite must not render");
            assert!(err.message.contains("non-finite"), "got: {err}");
        }
        // Nested occurrences are caught too.
        let nested = Json::Arr(vec![Json::Num(1.0), Json::Num(f64::NAN)]);
        assert!(nested.render().is_err());
    }

    /// The bit-exact round-trip contract the durability codec relies on:
    /// `parse(render(v))` reproduces the exact f64 bits for every finite
    /// input, including the sign of zero, subnormals and integer-valued
    /// floats near the i64 precision boundary.
    #[test]
    fn number_round_trip_is_bit_exact() {
        let cases: &[f64] = &[
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            -0.25,
            f64::MIN_POSITIVE,       // smallest normal
            f64::MIN_POSITIVE / 2.0, // subnormal
            5e-324,                  // smallest subnormal
            -5e-324,
            f64::MAX,
            f64::MIN,
            9.0e15 - 1.0,         // integer-valued, i64 fast path
            9.0e15,               // first value past the fast path
            2.0_f64.powi(53),     // largest exact integer + 1 ulp zone
            1.2345678901234567e8, // 17 significant digits
            12345.6789,
            1e308,
            1e-308,
        ];
        for &v in cases {
            let text = Json::Num(v).render().expect("finite renders");
            let parsed = Json::parse(&text).expect("parses back");
            let bits = match parsed {
                Json::Num(p) => p.to_bits(),
                other => panic!("expected number, got {other:?}"),
            };
            assert_eq!(
                bits,
                v.to_bits(),
                "round trip of {v:?} (rendered {text:?}) changed bits"
            );
        }
    }
}
