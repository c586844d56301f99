//! Flat-JSON ingestion and emission for streamed experiment results.
//!
//! Campaign runs (the `gather-campaign` crate) stream one JSON object
//! per line; this module owns the wire format so every consumer —
//! summaries, future dashboards, ad-hoc scripts — parses it the same
//! way. Hand-rolled like the table renderers: the schema is flat
//! (scalar fields only), so a full JSON tree is not needed and the
//! dependency footprint stays at the pre-approved set.
//!
//! Every reader of a campaign line (records, shard manifests, events,
//! service messages, spec files) decodes through [`FlatObject`]'s typed
//! getters, whose errors name the missing or mistyped field.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Deref;

/// A scalar field value of a flat JSON object. Integer-looking tokens
/// are kept as integers so 64-bit values (seeds, round counts) round
/// trip exactly instead of losing precision through `f64`.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonScalar {
    Str(String),
    Int(i128),
    Num(f64),
    Bool(bool),
    Null,
}

impl JsonScalar {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonScalar::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonScalar::Int(v) => Some(*v as f64),
            JsonScalar::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonScalar::Int(v) => u64::try_from(*v).ok(),
            JsonScalar::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v < u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonScalar::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// One parsed flat JSON object: its fields by name (through `Deref`),
/// and typed getters whose errors name the field.
#[derive(Clone, Debug, PartialEq)]
pub struct FlatObject(BTreeMap<String, JsonScalar>);

impl Deref for FlatObject {
    type Target = BTreeMap<String, JsonScalar>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl FlatObject {
    /// The string field `key`.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.typed(key, "a string", JsonScalar::as_str)
    }

    /// The unsigned integer field `key`.
    pub fn u64(&self, key: &str) -> Result<u64, String> {
        self.typed(key, "an unsigned integer", JsonScalar::as_u64)
    }

    /// The numeric field `key` (integer or not).
    pub fn f64(&self, key: &str) -> Result<f64, String> {
        self.typed(key, "a number", JsonScalar::as_f64)
    }

    /// The boolean field `key`.
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        self.typed(key, "a boolean", JsonScalar::as_bool)
    }

    /// An optional field: `None` when `key` is absent, else what the
    /// getter `get` (one of the four above) reads, so a field that is
    /// present but mistyped is still an error.
    pub fn opt<'a, T>(
        &'a self,
        key: &str,
        get: fn(&'a Self, &str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.contains_key(key).then(|| get(self, key)).transpose()
    }

    fn typed<'a, T>(
        &'a self,
        key: &str,
        what: &str,
        read: fn(&'a JsonScalar) -> Option<T>,
    ) -> Result<T, String> {
        let value = self.get(key).ok_or_else(|| format!("missing field {key:?}"))?;
        read(value).ok_or_else(|| format!("field {key:?} is not {what}"))
    }
}

/// Incremental writer for one flat JSON object. Field order is the
/// insertion order, so emission is byte-deterministic.
pub struct JsonObjWriter {
    buf: String,
}

impl Default for JsonObjWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonObjWriter {
    pub fn new() -> Self {
        JsonObjWriter { buf: String::from("{") }
    }

    fn sep(&mut self) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
    }

    pub fn field_str(mut self, key: &str, value: &str) -> Self {
        self.sep();
        let _ = write!(self.buf, "{}:{}", escape_json(key), escape_json(value));
        self
    }

    pub fn field_u64(mut self, key: &str, value: u64) -> Self {
        self.sep();
        let _ = write!(self.buf, "{}:{}", escape_json(key), value);
        self
    }

    pub fn field_usize(self, key: &str, value: usize) -> Self {
        self.field_u64(key, value as u64)
    }

    /// Emit `value` via Rust's shortest-round-trip float formatting, so
    /// the parser recovers it bit-exactly. Non-finite values have no
    /// JSON literal and are written as `0` — callers measuring durations
    /// never produce them.
    pub fn field_f64(mut self, key: &str, value: f64) -> Self {
        self.sep();
        let value = if value.is_finite() { value } else { 0.0 };
        // Bare integral floats ("3") would parse back as Int; that still
        // satisfies as_f64, so no decoration is needed.
        let _ = write!(self.buf, "{}:{}", escape_json(key), value);
        self
    }

    pub fn field_bool(mut self, key: &str, value: bool) -> Self {
        self.sep();
        let _ = write!(self.buf, "{}:{}", escape_json(key), value);
        self
    }

    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Quote and escape a string as a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Parse one line holding a flat JSON object (scalar values only).
///
/// Returns an error for malformed input — including a line truncated by
/// a killed writer, which is how campaign resume detects an incomplete
/// trailing record.
pub fn parse_flat_json(line: &str) -> Result<FlatObject, String> {
    let mut p = Parser { bytes: line.as_bytes(), pos: 0 };
    p.skip_ws();
    p.expect(b'{')?;
    let mut out = BTreeMap::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.parse_string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.parse_scalar()?;
            out.insert(key, value);
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(FlatObject(out))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!("expected {:?}, got {other:?}", want as char)),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.next().ok_or("unterminated \\u escape")?;
                            let d = (d as char).to_digit(16).ok_or("bad \\u escape")?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Re-decode the UTF-8 sequence starting here.
                    let start = self.pos - 1;
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let end = (start + len).min(self.bytes.len());
                    let s =
                        std::str::from_utf8(&self.bytes[start..end]).map_err(|e| e.to_string())?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_scalar(&mut self) -> Result<JsonScalar, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonScalar::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", JsonScalar::Bool(true)),
            Some(b'f') => self.parse_keyword("false", JsonScalar::Bool(false)),
            Some(b'n') => self.parse_keyword("null", JsonScalar::Null),
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
                // Exact integers first (u64 seeds exceed f64's 2^53
                // mantissa); fall back to f64 for fractions/exponents.
                if let Ok(v) = text.parse::<i128>() {
                    return Ok(JsonScalar::Int(v));
                }
                text.parse::<f64>()
                    .map(JsonScalar::Num)
                    .map_err(|e| format!("bad number {text:?}: {e}"))
            }
            other => Err(format!("unexpected value start {other:?}")),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: JsonScalar) -> Result<JsonScalar, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected {word}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_record() {
        let line = JsonObjWriter::new()
            .field_str("id", "line/n64/s3/paper")
            .field_u64("rounds", 123)
            .field_usize("n", 64)
            .field_bool("gathered", true)
            .finish();
        assert_eq!(line, r#"{"id":"line/n64/s3/paper","rounds":123,"n":64,"gathered":true}"#);
        let map = parse_flat_json(&line).unwrap();
        assert_eq!(map["id"].as_str(), Some("line/n64/s3/paper"));
        assert_eq!(map["rounds"].as_u64(), Some(123));
        assert_eq!(map["gathered"].as_bool(), Some(true));
        assert_eq!(map["n"].as_f64(), Some(64.0));
    }

    #[test]
    fn escapes_round_trip() {
        let nasty = "a\"b\\c\nd\te\u{1}f→";
        let line = JsonObjWriter::new().field_str("k", nasty).finish();
        let map = parse_flat_json(&line).unwrap();
        assert_eq!(map["k"].as_str(), Some(nasty));
    }

    #[test]
    fn truncated_lines_are_rejected() {
        let full = JsonObjWriter::new().field_str("id", "x").field_u64("n", 9).finish();
        for cut in 1..full.len() {
            assert!(parse_flat_json(&full[..cut]).is_err(), "cut at {cut} parsed");
        }
        assert!(parse_flat_json(&full).is_ok());
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_tokens() {
        assert!(parse_flat_json(r#"{"a":1} extra"#).is_err());
        assert!(parse_flat_json(r#"{"a":nope}"#).is_err());
        assert!(parse_flat_json("").is_err());
        assert!(parse_flat_json("{}").unwrap().is_empty());
    }

    #[test]
    fn numbers_parse_with_sign_and_exponent() {
        let map = parse_flat_json(r#"{"a":-2.5e2,"b":0}"#).unwrap();
        assert_eq!(map["a"].as_f64(), Some(-250.0));
        assert_eq!(map["b"].as_u64(), Some(0));
        assert_eq!(map["a"].as_u64(), None);
    }

    #[test]
    fn large_u64_round_trips_exactly() {
        // 2^53 + 1 and u64::MAX are not representable in f64; the
        // integer path must preserve them bit-exactly.
        for v in [9_007_199_254_740_993u64, u64::MAX, u64::MAX - 1] {
            let line = JsonObjWriter::new().field_u64("seed", v).finish();
            let map = parse_flat_json(&line).unwrap();
            assert_eq!(map["seed"].as_u64(), Some(v));
        }
        // Negative integers are Int but not u64.
        let map = parse_flat_json(r#"{"x":-3}"#).unwrap();
        assert_eq!(map["x"], JsonScalar::Int(-3));
        assert_eq!(map["x"].as_u64(), None);
        assert_eq!(map["x"].as_f64(), Some(-3.0));
    }

    #[test]
    fn f64_fields_round_trip_bit_exactly() {
        for v in [0.0f64, 1.5, 0.1 + 0.2, 1e-9, 12345.6789, f64::MAX] {
            let line = JsonObjWriter::new().field_f64("secs", v).finish();
            let map = parse_flat_json(&line).unwrap();
            assert_eq!(map["secs"].as_f64(), Some(v), "line {line}");
        }
        // Integral floats come out as bare integers and still read back.
        let line = JsonObjWriter::new().field_f64("secs", 3.0).finish();
        assert_eq!(line, r#"{"secs":3}"#);
        assert_eq!(parse_flat_json(&line).unwrap()["secs"].as_f64(), Some(3.0));
        // Non-finite values degrade to zero instead of breaking the line.
        let line = JsonObjWriter::new().field_f64("secs", f64::NAN).finish();
        assert_eq!(parse_flat_json(&line).unwrap()["secs"].as_f64(), Some(0.0));
    }

    #[test]
    fn getters_read_their_type() {
        let obj = parse_flat_json(r#"{"s":"x","u":7,"f":2.5,"i":3,"b":true}"#).unwrap();
        assert_eq!(obj.str("s"), Ok("x"));
        assert_eq!(obj.u64("u"), Ok(7));
        assert_eq!(obj.f64("f"), Ok(2.5));
        assert_eq!(obj.f64("i"), Ok(3.0), "an integer is a number");
        assert_eq!(obj.bool("b"), Ok(true));
        assert_eq!(obj.opt("s", FlatObject::str), Ok(Some("x")));
        assert_eq!(obj.opt("absent", FlatObject::u64), Ok(None));
    }

    #[test]
    fn getters_name_a_missing_field() {
        let obj = parse_flat_json(r#"{"other":1}"#).unwrap();
        let missing = r#"missing field "key""#;
        assert_eq!(obj.str("key").unwrap_err(), missing);
        assert_eq!(obj.u64("key").unwrap_err(), missing);
        assert_eq!(obj.f64("key").unwrap_err(), missing);
        assert_eq!(obj.bool("key").unwrap_err(), missing);
    }

    #[test]
    fn getters_name_a_mistyped_field() {
        let obj = parse_flat_json(r#"{"s":"x","neg":-1,"frac":0.5,"b":false,"nul":null}"#).unwrap();
        assert_eq!(obj.str("b").unwrap_err(), r#"field "b" is not a string"#);
        assert_eq!(obj.str("neg").unwrap_err(), r#"field "neg" is not a string"#);
        for key in ["s", "neg", "frac", "b", "nul"] {
            let err = obj.u64(key).unwrap_err();
            assert_eq!(err, format!("field {key:?} is not an unsigned integer"));
        }
        assert_eq!(obj.f64("s").unwrap_err(), r#"field "s" is not a number"#);
        assert_eq!(obj.f64("b").unwrap_err(), r#"field "b" is not a number"#);
        assert_eq!(obj.bool("s").unwrap_err(), r#"field "s" is not a boolean"#);
        assert_eq!(obj.bool("nul").unwrap_err(), r#"field "nul" is not a boolean"#);
        // Present but mistyped is an error for an optional field too.
        assert_eq!(obj.opt("s", FlatObject::bool).unwrap_err(), r#"field "s" is not a boolean"#);
    }

    #[test]
    fn default_writer_matches_new() {
        assert_eq!(JsonObjWriter::default().field_u64("a", 1).finish(), r#"{"a":1}"#);
    }
}
