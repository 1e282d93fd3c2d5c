//! The workspace's one JSON codec: a value model ([`Json`]), a parser
//! and a compact single-line writer.
//!
//! The workspace's `serde` resolves to a no-op offline shim (see
//! `shims/serde`), so no serializer crate is available. Every JSON path
//! goes through this module: the serve wire protocol and its result
//! store (which reach it as `smith85_serve::json`), the trace journal
//! ([`NdjsonWriter`](crate::NdjsonWriter) writes it,
//! [`report`](crate::report) reads it back) and the suite runner's
//! checkpoint and manifest files. It lives in this crate because this
//! is the lowest crate all of them share. The properties they rely on:
//!
//! * **Bounded input** — nesting deeper than 32 levels is an error, not
//!   a stack overflow, and a string is scanned once, in time linear in
//!   its length, so a hostile request or journal line costs one pass
//!   (the server also caps line length before parsing);
//! * **Exact integers** — a non-negative integer that fits `u64` parses
//!   as [`Json::Uint`], never through `f64`, so counters, seeds and span
//!   ids survive at full width;
//! * **Round-tripping floats** — [`Json::Num`] is written with Rust's
//!   shortest-round-trip `Display`, plus `.0` on whole values so it
//!   re-parses as a float, so a miss ratio survives encode/decode
//!   bit-identically.

use std::fmt;

/// Maximum nesting depth the parser accepts.
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64` (the common protocol case:
    /// lengths, sizes, seeds — kept exact rather than via `f64`).
    Uint(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset plus a short message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one complete JSON value; trailing non-whitespace is an
    /// error.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the offending byte offset.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Object field lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// An unsigned integer (exact `Uint`, or a `Num` that is a whole
    /// non-negative number).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Uint(n) => Some(*n),
            Json::Num(f) if *f >= 0.0 && f.fract() == 0.0 && *f <= u64::MAX as f64 => {
                Some(*f as u64)
            }
            _ => None,
        }
    }

    /// [`as_u64`](Self::as_u64) narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// Any numeric payload as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Uint(n) => Some(*n as f64),
            Json::Num(f) => Some(*f),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Writes the value as compact single-line JSON.
    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Uint(n) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
            }
            Json::Num(f) if f.is_finite() => {
                // Rust's shortest form drops ".0" for whole values; keep
                // it so the value re-parses as a float, not an integer.
                let start = out.len();
                let _ = fmt::Write::write_fmt(out, format_args!("{f}"));
                if !out[start..].contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            }
            // JSON has no NaN/Infinity. The protocol never produces
            // them and a journal field may; `null` beats invalid output.
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

/// Convenience constructor for object literals.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Convenience constructor for string values.
pub fn s(value: impl Into<String>) -> Json {
    Json::Str(value.into())
}

fn write_escaped(out: &mut String, value: &str) {
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.into(),
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
            Err(self.err(format!("expected {:?}", byte as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {text:?}")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
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
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash as one
            // slice. Both are ASCII, so the run ends on a char boundary,
            // and each byte is looked at once.
            let run_end = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .map_or(self.bytes.len(), |n| self.pos + n);
            out.push_str(&self.text[self.pos..run_end]);
            self.pos = run_end;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // The run stopped at a backslash.
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            return Err(self.err(format!(
                                "unknown escape \\{}",
                                other as char
                            )))
                        }
                    }
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.hex4()?;
        // Combine UTF-16 surrogate pairs; a lone surrogate becomes the
        // replacement character rather than an error.
        if (0xd800..0xdc00).contains(&first) {
            if self.bytes[self.pos..].starts_with(b"\\u") {
                let mark = self.pos;
                self.pos += 2;
                let second = self.hex4()?;
                if (0xdc00..0xe000).contains(&second) {
                    let combined =
                        0x10000 + ((first - 0xd800) << 10) + (second - 0xdc00);
                    return Ok(char::from_u32(combined).unwrap_or('\u{fffd}'));
                }
                self.pos = mark;
            }
            return Ok('\u{fffd}');
        }
        Ok(char::from_u32(first).unwrap_or('\u{fffd}'))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        // Four hex digits exactly: `from_str_radix` alone also takes a sign.
        let value = u32::from_str_radix(digits, 16)
            .ok()
            .filter(|_| digits.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(value)
    }

    /// Consumes `byte` if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        let next = self.peek() == Some(byte);
        self.pos += usize::from(next);
        next
    }

    /// Skips a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// A number in RFC 8259 form:
    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let negative = self.eat(b'-');
        let int_start = self.pos;
        let int_digits = self.digits();
        // One digit, or several that do not start with `0`.
        let mut valid = int_digits == 1 || (int_digits > 1 && self.bytes[int_start] != b'0');
        let fraction = self.eat(b'.');
        if fraction {
            valid &= self.digits() > 0;
        }
        let exponent = self.eat(b'e') || self.eat(b'E');
        if exponent {
            let _ = self.eat(b'+') || self.eat(b'-');
            valid &= self.digits() > 0;
        }
        // The grammar admits only ASCII, so the slice is valid UTF-8.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or_default();
        let invalid = || JsonError {
            at: start,
            message: format!("invalid number {text:?}"),
        };
        if !valid {
            return Err(invalid());
        }
        // Exact unsigned integers stay exact; everything else is f64.
        if !(negative || fraction || exponent) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::Uint(n));
            }
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Json::Num(f)),
            _ => Err(invalid()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::time::{Duration, Instant};

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "42", "-2.5", "1e3", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            let rendered = v.to_string();
            assert_eq!(Json::parse(&rendered).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn floats_round_trip_bit_identically() {
        for f in [
            0.123456789012345,
            1.0 / 3.0,
            2.5e-7,
            0.0821,
            3.0,
            -0.0,
            1e300,
        ] {
            let v = Json::Num(f);
            let parsed = Json::parse(&v.to_string()).unwrap();
            assert!(
                matches!(parsed, Json::Num(_)),
                "{f} must stay a float: {parsed:?}"
            );
            assert_eq!(parsed.as_f64().unwrap().to_bits(), f.to_bits(), "{f}");
        }
        // Whole values carry ".0" so they re-parse as floats.
        assert_eq!(Json::Num(3.0).to_string(), "3.0");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn integers_stay_exact() {
        for big in [u64::MAX, (1 << 53) + 1] {
            let parsed = Json::parse(&format!("{big}")).unwrap();
            assert_eq!(parsed, Json::Uint(big));
            assert_eq!(parsed.as_u64(), Some(big));
        }
    }

    #[test]
    fn objects_preserve_fields() {
        let v = Json::parse(r#"{"a": 1, "b": [true, null], "c": {"d": "x"}}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("b").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
        assert_eq!(
            v.get("c").and_then(|c| c.get("d")).and_then(Json::as_str),
            Some("x")
        );
        let round = Json::parse(&v.to_string()).unwrap();
        assert_eq!(round, v);
    }

    #[test]
    fn parses_nested_objects_and_all_scalar_types() {
        let value = Json::parse(
            r#"{"a":1,"b":-2.5,"c":"x\ny","d":true,"e":null,"f":[1,2],"g":{"h":3e2}}"#,
        )
        .unwrap();
        assert_eq!(value.get("a"), Some(&Json::Uint(1)));
        assert_eq!(value.get("b"), Some(&Json::Num(-2.5)));
        assert_eq!(value.get("c").and_then(Json::as_str), Some("x\ny"));
        assert_eq!(value.get("d"), Some(&Json::Bool(true)));
        assert_eq!(value.get("e"), Some(&Json::Null));
        assert_eq!(
            value.get("f"),
            Some(&Json::Arr(vec![Json::Uint(1), Json::Uint(2)]))
        );
        assert_eq!(
            value.get("g").and_then(|g| g.get("h")),
            Some(&Json::Num(300.0))
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let tricky = "line\nbreak \"quote\" back\\slash tab\t\u{1} π";
        let rendered = Json::Str(tricky.to_string()).to_string();
        assert_eq!(Json::parse(&rendered).unwrap().as_str(), Some(tricky));
        assert_eq!(
            Json::parse(r#""😀""#).unwrap().as_str(),
            Some("\u{1f600}")
        );
        assert_eq!(Json::parse(r#""\ud800""#).unwrap().as_str(), Some("\u{fffd}"));
    }

    #[test]
    fn strings_escape_controls_quotes_and_backslashes() {
        // The exact bytes the suite runner's result files have always
        // carried for these characters.
        assert_eq!(s("a\"b\\c\nd").to_string(), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(s("\u{1}").to_string(), "\"\\u0001\"");
        assert_eq!(s("\r\t\u{1f}/").to_string(), "\"\\r\\t\\u001f/\"");
    }

    #[test]
    fn unicode_escapes_decode() {
        for (text, want) in [
            (r#""café""#, "café"),
            (r#""caf\u00e9""#, "café"),
            (r#""\ud83d\ude00""#, "\u{1f600}"),
            (r#""\udc00""#, "\u{fffd}"),
            (r#""\ud800\u0041""#, "\u{fffd}A"),
            (r#""\/\b\f""#, "/\u{8}\u{c}"),
        ] {
            assert_eq!(Json::parse(text).unwrap().as_str(), Some(want), "{text}");
        }
    }

    #[test]
    fn malformed_inputs_error_with_position() {
        for text in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "tru",
            "\"unterminated",
            "\"bad escape \\x\"",
            "\"truncated \\u12\"",
            "{\"a\" 1}",
            "1 2",
            "nan",
            "1e",
            "1e999",
            "-",
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} should fail");
        }
        let err = Json::parse("[1, 2 x]").unwrap_err();
        assert_eq!(err.at, 6, "{err}");
    }

    #[test]
    fn rejects_garbage() {
        // Not RFC 8259 numbers, though `str::parse` takes them, and a
        // `\u` escape whose four "digits" include a sign.
        let not_json = ["1.", "-.5", "1.e5", "01", "-01", "00", r#""\u+041""#];
        for text in ["{} trailing", "}", "[", "\"\\", "{\"a\":1,}", "@"]
            .into_iter()
            .chain(not_json)
        {
            assert!(Json::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn depth_limit_stops_recursion() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("deep"), "{err}");
    }

    #[test]
    fn nesting_is_bounded() {
        let at_limit = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&at_limit).is_ok());
        let deep = "[".repeat(MAX_DEPTH + 1) + "1" + &"]".repeat(MAX_DEPTH + 1);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("deep"), "{err}");
        assert_eq!(err.at, MAX_DEPTH + 1);
        let object = r#"{"a":"#.repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&object).unwrap_err().message.contains("deep"));
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = Json::parse(" \t{ \"k\" : [ 1 , 2 ] }\r\n").unwrap();
        assert_eq!(v.get("k").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
    }

    /// Best of five parse times of a request line of `bytes` bytes whose
    /// one string holds 2-byte characters.
    fn best_parse_time(bytes: usize) -> Duration {
        let prefix = r#"{"type":"simulate","workload":""#;
        let suffix = r#""}"#;
        let chars = (bytes - prefix.len() - suffix.len()) / 2;
        let line = format!("{prefix}{}{suffix}", "é".repeat(chars));
        (0..5)
            .map(|_| {
                let started = Instant::now();
                let value = Json::parse(&line).unwrap();
                let elapsed = started.elapsed();
                let workload = value.get("workload").and_then(Json::as_str);
                assert_eq!(workload.map(str::len), Some(2 * chars));
                elapsed
            })
            .min()
            .unwrap()
    }

    #[test]
    fn string_parse_time_is_linear_in_length() {
        // 16x the bytes must cost well under 64x the time: a linear scan
        // measures 12-15x, one that re-validates the rest of the input
        // for every character measures over 150x.
        let small = best_parse_time(4 << 10);
        let large = best_parse_time(64 << 10);
        assert!(
            large < small * 64,
            "64 KiB line took {large:?}, 4 KiB line {small:?}: string parsing is not linear"
        );
    }

    /// Compares values with floats by bit pattern (`-0.0 != 0.0`).
    fn identical(a: &Json, b: &Json) -> bool {
        match (a, b) {
            (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
            (Json::Arr(x), Json::Arr(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|(a, b)| identical(a, b))
            }
            (Json::Obj(x), Json::Obj(y)) => {
                x.len() == y.len()
                    && x.iter()
                        .zip(y)
                        .all(|((ka, a), (kb, b))| ka == kb && identical(a, b))
            }
            _ => a == b,
        }
    }

    /// Any Unicode scalar value, weighted toward the ones the writer
    /// escapes and the astral planes (two UTF-16 units when escaped).
    fn any_char() -> impl Strategy<Value = char> {
        let scalar = |range: std::ops::Range<u32>| {
            range.prop_map(|c| char::from_u32(c).expect("range holds scalar values"))
        };
        prop_oneof![
            scalar(0..0x20),
            Just('"'),
            Just('\\'),
            scalar(0x20..0x7f),
            scalar(0x7f..0xd800),
            scalar(0xe000..0x1_0000),
            scalar(0x1_0000..0x11_0000),
        ]
    }

    fn any_string() -> impl Strategy<Value = String> {
        prop::collection::vec(any_char(), 0..24).prop_map(|cs| cs.into_iter().collect())
    }

    /// A finite `f64` from random bits; non-finite patterns map to their
    /// bit count so every draw is usable.
    fn finite_f64(bits: u64) -> f64 {
        let f = f64::from_bits(bits);
        if f.is_finite() {
            f
        } else {
            f64::from(bits.count_ones())
        }
    }

    /// Arbitrary values nested at most `depth` containers deep.
    struct AnyJson {
        depth: u32,
    }

    impl Strategy for AnyJson {
        type Value = Json;

        fn generate(&self, rng: &mut TestRng) -> Json {
            let kinds = if self.depth == 0 { 5 } else { 7 };
            let inner = AnyJson {
                depth: self.depth.saturating_sub(1),
            };
            let len = rng.next_u64() % 4;
            match rng.next_u64() % kinds {
                0 => Json::Null,
                1 => Json::Bool(rng.next_u64() & 1 == 1),
                2 => Json::Uint(rng.next_u64()),
                3 => Json::Num(finite_f64(rng.next_u64())),
                4 => Json::Str(any_string().generate(rng)),
                5 => Json::Arr((0..len).map(|_| inner.generate(rng)).collect()),
                _ => Json::Obj(
                    (0..len)
                        .map(|_| (any_string().generate(rng), inner.generate(rng)))
                        .collect(),
                ),
            }
        }
    }

    /// `leaf` inside `kinds.len()` containers (`true` = object).
    fn nest(kinds: &[bool], leaf: Json) -> Json {
        kinds.iter().rev().fold(leaf, |inner, &object| {
            if object {
                Json::Obj(vec![("k".to_string(), inner)])
            } else {
                Json::Arr(vec![inner])
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn every_u64_round_trips_exactly(n in any::<u64>()) {
            prop_assert_eq!(Json::parse(&Json::Uint(n).to_string()), Ok(Json::Uint(n)));
        }

        #[test]
        fn every_finite_f64_round_trips_bit_exactly(bits in any::<u64>()) {
            let f = finite_f64(bits);
            let parsed = Json::parse(&Json::Num(f).to_string()).unwrap();
            prop_assert!(identical(&parsed, &Json::Num(f)), "{f:e} came back as {parsed:?}");
        }

        #[test]
        fn every_string_round_trips(text in any_string()) {
            let parsed = Json::parse(&s(text.clone()).to_string()).unwrap();
            prop_assert_eq!(parsed, Json::Str(text));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn nested_values_round_trip(value in AnyJson { depth: 4 }) {
            let parsed = Json::parse(&value.to_string()).unwrap();
            prop_assert!(identical(&parsed, &value), "{value} came back as {parsed}");
        }

        #[test]
        fn prefixes_and_garbage_never_panic(
            value in AnyJson { depth: 2 },
            bytes in prop::collection::vec(any::<u8>(), 0..64),
            tokens in prop::collection::vec(0usize..24, 0..48),
        ) {
            let encoded = value.to_string();
            for (end, _) in encoded.char_indices() {
                let _ = Json::parse(&encoded[..end]);
            }
            let _ = Json::parse(&String::from_utf8_lossy(&bytes));
            // Garbage over JSON's own alphabet reaches deeper parser states.
            let alphabet = "{}[]\":,\\u0e1.-+tfn \u{e9}";
            let chars: Vec<char> = alphabet.chars().collect();
            let garbage: String = tokens.iter().map(|&i| chars[i % chars.len()]).collect();
            let _ = Json::parse(&garbage);
        }

        #[test]
        fn depth_32_parses_and_depth_33_fails(
            kinds in prop::collection::vec(any::<bool>(), 33..34),
            leaf in AnyJson { depth: 0 },
        ) {
            let at_limit = nest(&kinds[..32], leaf.clone());
            let parsed = Json::parse(&at_limit.to_string()).unwrap();
            prop_assert!(identical(&parsed, &at_limit));
            let err = Json::parse(&nest(&kinds, leaf).to_string()).unwrap_err();
            prop_assert!(err.message.contains("nesting too deep"), "{err}");
        }
    }
}
