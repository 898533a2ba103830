//! A minimal, dependency-free JSON value with a strict parser and a
//! deterministic writer.
//!
//! The build environment is fully offline (the `serde` dependency resolves to
//! a no-op shim, see `shims/README.md`), yet the scenario-campaign layer
//! needs real serialisation: scenario specs round-trip through JSON, and the
//! `campaign` binary records every run in `results/MANIFEST.json`.  This
//! module provides exactly that surface — nothing more:
//!
//! * [`Json`] — the standard JSON data model.  Integers are kept separate
//!   from floats ([`Json::Int`] holds a `u64`) so seeds survive a round trip
//!   exactly instead of being squeezed through an `f64`.
//! * [`Json::parse`] — a strict recursive-descent parser with positioned
//!   error messages.  No extensions: no comments, no trailing commas, no
//!   `NaN`.
//! * [`Display`](std::fmt::Display) — a deterministic pretty-printer
//!   (2-space indent, object keys in insertion order), so the same value
//!   always serialises to the same bytes — the property the determinism
//!   suite checks for campaign artifacts.
//!
//! When a real `serde` + `serde_json` can be vendored, spec serialisation can
//! move onto the derives this crate already declares; this module would then
//! shrink to the manifest writer.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (sufficient for counts, frames and seeds; the
    /// campaign layer never needs negative integers).
    Int(u64),
    /// Any other number, including negative and fractional values.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object as ordered key/value pairs.  Insertion order is preserved so
    /// serialisation is deterministic.
    Object(Vec<(String, Json)>),
}

/// A parse error with the byte offset at which it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input at which parsing failed.
    pub offset: usize,
    /// Human-readable description of the failure.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed, trailing
    /// garbage rejected).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the JSON document"));
        }
        Ok(value)
    }

    /// The value under `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object pairs, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// A short name of the value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) | Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        }
    }

    /// Serialises the value on a single line with no whitespace, for
    /// line-oriented (JSONL) files such as the campaign checkpoints and the
    /// benchmark history ledger.  Parses back to the identical value, same
    /// as the pretty [`Display`](std::fmt::Display) form.
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        use fmt::Write as _;
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(x) => {
                // Same float policy as the pretty printer: integral floats
                // keep a ".0" so they re-parse as Num, not Int.
                if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15 {
                    let _ = write!(out, "{x:.1}");
                } else {
                    let _ = write!(out, "{x}");
                }
            }
            Json::Str(s) => {
                let _ = write!(out, "{}", EscapedStr(s));
            }
            Json::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_compact(out);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{}", EscapedStr(k));
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_indented(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        let pad_in = "  ".repeat(indent + 1);
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Num(x) => {
                // `{}` on f64 prints the shortest representation that parses
                // back exactly; integral floats gain a ".0" so they re-parse
                // as Num, keeping Int/Num stable across round trips.
                if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Array(items) => {
                if items.is_empty() {
                    return f.write_str("[]");
                }
                // Arrays of scalars stay on one line; nested structures wrap.
                let scalar = items
                    .iter()
                    .all(|v| !matches!(v, Json::Array(_) | Json::Object(_)));
                if scalar {
                    f.write_str("[")?;
                    for (i, v) in items.iter().enumerate() {
                        if i > 0 {
                            f.write_str(", ")?;
                        }
                        v.write_indented(f, indent)?;
                    }
                    f.write_str("]")
                } else {
                    writeln!(f, "[")?;
                    for (i, v) in items.iter().enumerate() {
                        f.write_str(&pad_in)?;
                        v.write_indented(f, indent + 1)?;
                        if i + 1 < items.len() {
                            f.write_str(",")?;
                        }
                        writeln!(f)?;
                    }
                    write!(f, "{pad}]")
                }
            }
            Json::Object(pairs) => {
                if pairs.is_empty() {
                    return f.write_str("{}");
                }
                writeln!(f, "{{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    f.write_str(&pad_in)?;
                    write_escaped(f, k)?;
                    f.write_str(": ")?;
                    v.write_indented(f, indent + 1)?;
                    if i + 1 < pairs.len() {
                        f.write_str(",")?;
                    }
                    writeln!(f)?;
                }
                write!(f, "{pad}}}")
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_indented(f, 0)
    }
}

/// Displays a string in its JSON-escaped, quoted form (used by the compact
/// writer, which appends to a `String` rather than a `Formatter`).
struct EscapedStr<'a>(&'a str);

impl fmt::Display for EscapedStr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_escaped(f, self.0)
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
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
            Err(self.err(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate object key \"{key}\"")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
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
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        c => {
                            return Err(self.err(format!("invalid escape '\\{}'", c as char)));
                        }
                    }
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("unescaped control character in string"));
                }
                Some(_) => {
                    // Consume one full UTF-8 scalar (the input is a &str, so
                    // the byte stream is valid UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).expect("input was a &str");
                    let c = s.chars().next().expect("peeked a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.hex4()?;
        // Surrogate pairs encode characters outside the BMP.
        if (0xD800..=0xDBFF).contains(&first) {
            if !self.bytes[self.pos..].starts_with(b"\\u") {
                return Err(self.err("unpaired high surrogate"));
            }
            self.pos += 2;
            let second = self.hex4()?;
            if !(0xDC00..=0xDFFF).contains(&second) {
                return Err(self.err("invalid low surrogate"));
            }
            let c = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
            char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"))
        } else if (0xDC00..=0xDFFF).contains(&first) {
            Err(self.err("unpaired low surrogate"))
        } else {
            char::from_u32(first).ok_or_else(|| self.err("invalid \\u escape"))
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
            v = (v << 4) | d;
            self.pos += 1;
        }
        Ok(v)
    }

    /// Parses a number with the exact RFC 8259 grammar: no leading zeros, a
    /// digit required on both sides of the decimal point and after the
    /// exponent marker (Rust's more lenient `f64` parser must not widen what
    /// the module's "strict parser" contract accepts).
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    return Err(self.err("numbers must not have leading zeros"));
                }
            }
            Some(c) if c.is_ascii_digit() => {
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected a digit")),
        }
        let mut fractional = false;
        if self.peek() == Some(b'.') {
            fractional = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("expected a digit after the decimal point"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            fractional = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("expected a digit in the exponent"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        if !fractional && !text.starts_with('-') {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("invalid number \"{text}\"")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-3.5").unwrap(), Json::Num(-3.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(
            Json::parse("\"hi\\n\\u00e9\"").unwrap(),
            Json::Str("hi\né".into())
        );
    }

    #[test]
    fn large_seeds_round_trip_exactly() {
        let seed = 0xDEAD_BEEF_5EED_CAFEu64;
        let v = Json::Int(seed);
        let back = Json::parse(&v.to_string()).unwrap();
        assert_eq!(back.as_u64(), Some(seed));
    }

    #[test]
    fn objects_preserve_order_and_reject_duplicates() {
        let v = Json::parse("{\"b\": 1, \"a\": 2}").unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["b", "a"]);
        assert!(Json::parse("{\"a\": 1, \"a\": 2}").is_err());
    }

    #[test]
    fn display_parse_round_trip_is_identity() {
        let text = "{\"name\": \"fig11\", \"grid\": [1, 2, 3], \"nested\": {\"x\": 0.5, \
                    \"flag\": false, \"none\": null}, \"items\": [{\"k\": \"v\"}]}";
        let v = Json::parse(text).unwrap();
        let printed = v.to_string();
        let reparsed = Json::parse(&printed).unwrap();
        assert_eq!(v, reparsed);
        // Deterministic output: printing again yields the same bytes.
        assert_eq!(printed, reparsed.to_string());
    }

    #[test]
    fn integral_floats_stay_floats_across_round_trips() {
        let v = Json::Num(50.0);
        let printed = v.to_string();
        assert_eq!(printed, "50.0");
        assert_eq!(Json::parse(&printed).unwrap(), v);
    }

    #[test]
    fn number_grammar_is_rfc_8259_strict() {
        for bad in ["007", "-01", "1.", ".5", "1e", "1e+", "2.e3", "-", "+1"] {
            assert!(
                Json::parse(bad).is_err(),
                "accepted non-JSON number {bad:?}"
            );
        }
        assert_eq!(Json::parse("0").unwrap(), Json::Int(0));
        assert_eq!(Json::parse("0.5").unwrap(), Json::Num(0.5));
        assert_eq!(Json::parse("-0").unwrap(), Json::Num(-0.0));
        assert_eq!(Json::parse("10e2").unwrap(), Json::Num(1000.0));
    }

    #[test]
    fn compact_form_parses_back_to_the_same_value() {
        let text = "{\"name\": \"fig11\", \"grid\": [1, 2, 3], \"nested\": {\"x\": 0.5, \
                    \"flag\": false, \"none\": null}, \"items\": [{\"k\": \"v\"}], \
                    \"esc\": \"a\\\"b\\nc\"}";
        let v = Json::parse(text).unwrap();
        let compact = v.to_compact_string();
        assert!(!compact.contains('\n'), "compact form must be single-line");
        assert!(!compact.contains(": "), "compact form has no padding");
        assert_eq!(Json::parse(&compact).unwrap(), v);
        // Float policy matches the pretty printer.
        assert_eq!(Json::Num(50.0).to_compact_string(), "50.0");
        assert_eq!(Json::Int(50).to_compact_string(), "50");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "[1,]",
            "\"\\q\"",
            "\"\x01\"",
            "{\"a\":}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn errors_carry_positions() {
        let e = Json::parse("[1, x]").unwrap_err();
        assert_eq!(e.offset, 4);
        assert!(e.to_string().contains("byte 4"));
    }

    #[test]
    fn accessors_match_types() {
        let v =
            Json::parse("{\"n\": 3, \"f\": 2.5, \"s\": \"x\", \"b\": true, \"a\": []}").unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("f"), Some(&Json::Num(2.5)));
        assert_eq!(v.get("f").and_then(Json::as_u64), None);
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("a").and_then(Json::as_array), Some(&[][..]));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.type_name(), "object");
    }
}
