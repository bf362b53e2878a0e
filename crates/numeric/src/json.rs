//! A minimal, dependency-free JSON reader/writer.
//!
//! The repository is offline-first (no serde): the probe layer hand-rolls
//! its metrics JSON, and the evaluation engine needs to *read* scenario
//! batch files and round-trip cached results. This module provides the
//! shared primitive: a strict pull reader ([`JsonReader`]), the
//! [`JsonValue`] tree it builds, and a deterministic writer. Callers that
//! decode a document into their own types (the scenario batch decoder)
//! read it straight off the [`JsonReader`] and build no tree.
//!
//! Design points:
//!
//! * **Objects preserve insertion order** (a `Vec` of pairs, not a map), so
//!   writing is deterministic and canonical serializations stay stable.
//! * **Numbers are `f64`** and are written with Rust's shortest round-trip
//!   formatting (`{:?}`), so `parse(write(x)) == x` bit-for-bit for every
//!   finite `f64`. Integers up to 2^53 round-trip exactly.
//! * Non-finite numbers serialize as `null` (JSON has no NaN/Inf).

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// Maximum nesting depth accepted by the parser (stack-overflow guard).
const MAX_DEPTH: usize = 128;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; pairs keep insertion order.
    Object(Vec<(String, JsonValue)>),
}

/// A parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset into the input where the problem was detected.
    pub offset: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl JsonValue {
    /// Parses a JSON document (must be a single value plus whitespace).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut reader = JsonReader::new(text);
        let value = reader.tree()?;
        reader.finish()?;
        Ok(value)
    }

    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => {
                pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer (rejects fractions and numbers
    /// beyond exact `f64` integer range).
    pub fn as_usize(&self) -> Option<usize> {
        self.as_f64().and_then(exact_usize)
    }

    /// The value as a `u64` (same exactness constraints as
    /// [`JsonValue::as_usize`]).
    pub fn as_u64(&self) -> Option<u64> {
        self.as_usize().map(|v| v as u64)
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object pairs (insertion order), if it is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Serializes the value compactly (no whitespace), deterministically:
    /// object pairs appear in insertion order and numbers use shortest
    /// round-trip formatting.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::Number(v) => write_f64(out, *v),
            JsonValue::String(s) => write_json_string(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(out, k);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// `v` as a non-negative integer, when it is one no larger than 2^53 (the
/// range where every integer is an exact `f64`).
pub fn exact_usize(v: f64) -> Option<usize> {
    if v >= 0.0 && v.fract() == 0.0 && v <= 9_007_199_254_740_992.0 {
        Some(v as usize)
    } else {
        None
    }
}

/// Formats an `f64` as a JSON number with shortest round-trip precision;
/// non-finite values become `null`.
pub fn format_f64(v: f64) -> String {
    let mut out = String::new();
    write_f64(&mut out, v);
    out
}

/// Appends `v` as [`format_f64`] formats it, without a temporary string.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// Appends `s` as a quoted, escaped JSON string: `"` and `\\` are
/// backslash-escaped, `\n`, `\r` and `\t` take their short escapes and
/// every other control character becomes `\u00XX`. This is the one
/// JSON string escaper of the workspace.
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `s` as a quoted, escaped JSON string (see [`write_json_string`]).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_json_string(&mut out, s);
    out
}

/// One step of a [`JsonReader`]: a scalar read in full, or the bracket
/// that opens an array or an object.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(f64),
    /// A string, borrowed from the input unless it holds escapes.
    String(Cow<'a, str>),
    /// `[`: read the elements with [`JsonReader::element`].
    ArrayStart,
    /// `{`: read the members with [`JsonReader::member`].
    ObjectStart,
}

/// A pull reader over one JSON document: the strict lexer behind
/// [`JsonValue::parse`], for callers that decode straight into their own
/// types instead of building a tree.
///
/// Read a value with [`JsonReader::value`]. After an `ArrayStart`, call
/// [`JsonReader::element`] before each element and once more to close
/// the array; after an `ObjectStart`, call [`JsonReader::member`] before
/// each value and once more to close the object. Finish with
/// [`JsonReader::finish`]. Every error — nesting depth, duplicate keys,
/// escapes, trailing characters — carries the byte offset and message
/// [`JsonValue::parse`] reports for the same document, since that parser
/// is this reader.
///
/// ```
/// use snoop_numeric::json::{JsonReader, Token};
///
/// let mut reader = JsonReader::new(r#"{"n": 4, "tags": ["a"]}"#);
/// assert_eq!(reader.value().unwrap(), Token::ObjectStart);
/// let mut n = None;
/// while let Some(key) = reader.member().unwrap() {
///     match (&*key, reader.value().unwrap()) {
///         ("n", Token::Number(v)) => n = Some(v),
///         (_, token) => reader.skip_rest(&token).unwrap(),
///     }
/// }
/// reader.finish().unwrap();
/// assert_eq!(n, Some(4.0));
/// ```
pub struct JsonReader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the next value.
    depth: usize,
    /// The container opened last has not been asked for its first entry.
    fresh: bool,
    /// The keys read so far in every open object, innermost last: where
    /// each key's text sits between its quotes, and whether it holds
    /// escapes (then only its decoded form can be compared).
    keys: Vec<(usize, usize, bool)>,
    /// Where each open object's keys start in `keys`.
    objects: Vec<usize>,
}

impl<'a> JsonReader<'a> {
    /// A reader positioned at the document's first value.
    pub fn new(text: &'a str) -> Self {
        let mut reader = JsonReader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            fresh: false,
            keys: Vec::new(),
            objects: Vec::new(),
        };
        reader.skip_ws();
        reader
    }

    /// Reads the next value: a scalar in full, or the opening bracket of
    /// an array or object.
    ///
    /// # Errors
    ///
    /// A syntax error, or nesting deeper than 128 levels.
    #[inline]
    pub fn value(&mut self) -> Result<Token<'a>, JsonError> {
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Token::Null),
            Some(b't') => self.literal("true", Token::Bool(true)),
            Some(b'f') => self.literal("false", Token::Bool(false)),
            Some(b'"') => self.string().map(Token::String),
            Some(b'[') => {
                self.open();
                Ok(Token::ArrayStart)
            }
            Some(b'{') => {
                self.open();
                self.objects.push(self.keys.len());
                Ok(Token::ObjectStart)
            }
            Some(b'-' | b'0'..=b'9') => self.number().map(Token::Number),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Whether the open array has another element; `false` closes it.
    ///
    /// # Errors
    ///
    /// A syntax error.
    #[inline]
    pub fn element(&mut self) -> Result<bool, JsonError> {
        self.skip_ws();
        if std::mem::take(&mut self.fresh) {
            if self.peek() != Some(b']') {
                return Ok(true);
            }
        } else {
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                    return Ok(true);
                }
                Some(b']') => {}
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(false)
    }

    /// The open object's next key, positioned at its value; `None`
    /// closes the object.
    ///
    /// # Errors
    ///
    /// A syntax error, or a key the object already has.
    #[inline]
    pub fn member(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        self.skip_ws();
        let close = if std::mem::take(&mut self.fresh) {
            self.peek() == Some(b'}')
        } else {
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                    false
                }
                Some(b'}') => true,
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        };
        if close {
            self.pos += 1;
            self.depth -= 1;
            let first = self.objects.pop().unwrap_or(0);
            self.keys.truncate(first);
            return Ok(None);
        }
        let start = self.pos + 1;
        let key = self.string()?;
        let raw = (start, self.pos - 1, matches!(key, Cow::Owned(_)));
        let first = self.objects.last().copied().unwrap_or(0);
        if self.keys[first..].iter().any(|&earlier| self.same_key(earlier, raw, &key)) {
            return Err(self.err(&format!("duplicate object key {key:?}")));
        }
        self.keys.push(raw);
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(Some(key))
    }

    /// Reads what is left of a value whose first token was `token`: the
    /// rest of an array or object; nothing for a scalar.
    ///
    /// # Errors
    ///
    /// A syntax error.
    #[inline]
    pub fn skip_rest(&mut self, token: &Token<'a>) -> Result<(), JsonError> {
        match token {
            Token::ArrayStart => {
                while self.element()? {
                    self.skip()?;
                }
            }
            Token::ObjectStart => {
                while self.member()?.is_some() {
                    self.skip()?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Reads the next value whole and discards it.
    ///
    /// # Errors
    ///
    /// A syntax error.
    pub fn skip(&mut self) -> Result<(), JsonError> {
        let token = self.value()?;
        self.skip_rest(&token)
    }

    /// Ends the document: only whitespace may follow its value.
    ///
    /// # Errors
    ///
    /// Trailing characters after the document.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters after the document"))
        }
    }

    /// The next value as a [`JsonValue`] tree.
    fn tree(&mut self) -> Result<JsonValue, JsonError> {
        Ok(match self.value()? {
            Token::Null => JsonValue::Null,
            Token::Bool(b) => JsonValue::Bool(b),
            Token::Number(v) => JsonValue::Number(v),
            Token::String(s) => JsonValue::String(s.into_owned()),
            Token::ArrayStart => {
                let mut items = Vec::new();
                while self.element()? {
                    items.push(self.tree()?);
                }
                JsonValue::Array(items)
            }
            Token::ObjectStart => {
                let mut pairs = Vec::new();
                while let Some(key) = self.member()? {
                    let value = self.tree()?;
                    pairs.push((key.into_owned(), value));
                }
                JsonValue::Object(pairs)
            }
        })
    }

    /// Whether the key at `earlier` spells `key`, which sits at `raw`.
    /// Two keys without escapes compare as raw bytes; otherwise the
    /// earlier key is decoded again.
    fn same_key(
        &self,
        earlier: (usize, usize, bool),
        raw: (usize, usize, bool),
        key: &str,
    ) -> bool {
        let (start, end, escaped) = earlier;
        if !escaped && !raw.2 {
            return self.bytes[start..end] == self.bytes[raw.0..raw.1];
        }
        // The earlier key decoded without error when it was read.
        JsonReader::new(&self.text[start - 1..=end]).string().is_ok_and(|k| k == key)
    }

    fn open(&mut self) {
        self.pos += 1;
        self.depth += 1;
        self.fresh = true;
    }

    fn err(&self, message: &str) -> JsonError {
        JsonError { offset: self.pos, message: message.to_string() }
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
            Err(self.err(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, token: Token<'a>) -> Result<Token<'a>, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(token)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    /// Where the run of plain characters starting at `pos` ends: the next
    /// `"` or `\`, or the end of the input. Both delimiters are ASCII and
    /// a run starts right after an ASCII byte (or at the opening quote),
    /// so both ends of the run fall on char boundaries of `text`.
    fn run_end(&self) -> usize {
        self.bytes[self.pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .map_or(self.bytes.len(), |len| self.pos + len)
    }

    /// Reads a string; it borrows from the input unless it holds escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut owned: Option<String> = None;
        loop {
            let run = self.run_end();
            if let Some(out) = owned.as_mut() {
                out.push_str(&self.text[self.pos..run]);
            }
            self.pos = run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        Some(out) => Cow::Owned(out),
                        None => Cow::Borrowed(&self.text[start..run]),
                    });
                }
                Some(_) => {
                    // The backslash of an escape.
                    let out = owned.get_or_insert_with(|| self.text[start..run].to_string());
                    self.pos += 1;
                    let c = self.escape()?;
                    out.push(c);
                }
            }
        }
    }

    /// Decodes one escape sequence; `pos` is just past the backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode_escape();
            }
            _ => return Err(self.err("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Decodes the hex digits of a `\u` escape; `pos` is just past the
    /// `u`. A high surrogate must be followed by a `\u` low surrogate and
    /// the pair combines into one non-BMP char (the form an
    /// ASCII-only writer such as Python's `json.dump` emits). A lone or
    /// reversed half is rejected at the end of its own four digits.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let code = self.hex4()?;
        let at = self.pos;
        let unpaired =
            move || JsonError { offset: at, message: "invalid \\u escape".to_string() };
        if !(0xD800..0xDC00).contains(&code) {
            return char::from_u32(code).ok_or_else(unpaired);
        }
        if !self.bytes[self.pos..].starts_with(b"\\u") {
            return Err(unpaired());
        }
        self.pos += 2;
        let low = self.hex4()?;
        if !(0xDC00..0xE000).contains(&low) {
            return Err(unpaired());
        }
        char::from_u32(0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)).ok_or_else(unpaired)
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code: u32 = 0;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(self.err("expected four hex digits")),
            };
            code = code * 16 + d;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(v),
            _ => Err(JsonError {
                offset: start,
                message: format!("invalid number {text:?}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse(" false ").unwrap(), JsonValue::Bool(false));
        assert_eq!(JsonValue::parse("42").unwrap(), JsonValue::Number(42.0));
        assert_eq!(JsonValue::parse("-1.5e3").unwrap(), JsonValue::Number(-1500.0));
        assert_eq!(
            JsonValue::parse("\"a\\nb\"").unwrap(),
            JsonValue::String("a\nb".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = JsonValue::parse(r#"{"a":[1,2,{"b":null}],"c":"x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(JsonValue::as_str), Some("x"));
        let a = v.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[2].get("b"), Some(&JsonValue::Null));
    }

    #[test]
    fn objects_preserve_insertion_order() {
        let v = JsonValue::parse(r#"{"z":1,"a":2,"m":3}"#).unwrap();
        let keys: Vec<&str> =
            v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a", "m"]);
        assert_eq!(v.render(), r#"{"z":1.0,"a":2.0,"m":3.0}"#);
    }

    #[test]
    fn f64_round_trips_bit_exactly() {
        for v in [0.1, 1e-12, 0.95, 2.0 / 3.0, 1592969918.0, f64::MIN_POSITIVE] {
            let text = format_f64(v);
            let back = JsonValue::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{text}");
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let text = r#"{"s":"q\"uo\\te","n":[1.5,-2,0],"b":true,"x":null}"#;
        let v = JsonValue::parse(text).unwrap();
        let rendered = v.render();
        assert_eq!(JsonValue::parse(&rendered).unwrap(), v);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"\\q\"", "{\"a\":1,\"a\":2}"] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn rejects_deep_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(JsonValue::parse(&deep).is_err());
    }

    #[test]
    fn error_reports_offset() {
        let err = JsonValue::parse("[1, oops]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("byte 4"));
    }

    #[test]
    fn integer_accessors_reject_fractions() {
        assert_eq!(JsonValue::Number(7.0).as_usize(), Some(7));
        assert_eq!(JsonValue::Number(7.5).as_usize(), None);
        assert_eq!(JsonValue::Number(-1.0).as_usize(), None);
        assert_eq!(JsonValue::Number(1592969918.0).as_u64(), Some(1_592_969_918));
    }

    #[test]
    fn non_finite_renders_as_null() {
        assert_eq!(format_f64(f64::NAN), "null");
        assert_eq!(format_f64(f64::INFINITY), "null");
    }

    #[test]
    fn control_characters_escape() {
        let v = JsonValue::String("a\u{1}b".into());
        assert_eq!(v.render(), "\"a\\u0001b\"");
        assert_eq!(JsonValue::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn string_scan_is_linear_in_the_document_size() {
        use std::time::{Duration, Instant};
        // A quadratic scan (re-validating the rest of the buffer per
        // character) takes minutes on either document; a linear one
        // takes milliseconds even in a debug build.
        let big = "é€x".repeat((1 << 20) / 6);
        let doc = format!("{{\"comment\":{}}}", json_string(&big));
        let start = Instant::now();
        let v = JsonValue::parse(&doc).unwrap();
        assert_eq!(v.get("comment").and_then(JsonValue::as_str), Some(big.as_str()));

        let scenario = r#"{"protocol":"WO+1","sharing":"5","n":16,"comment":"Ünïcödé 寄存器 🚀 naïve"}"#;
        let batch = format!(
            "{{\"schema\":\"snoop-scenario-v1\",\"scenarios\":[\n{}\n]}}",
            vec![scenario; 4800].join(",\n")
        );
        let v = JsonValue::parse(&batch).unwrap();
        let list = v.get("scenarios").and_then(JsonValue::as_array).unwrap();
        assert_eq!(list.len(), 4800);
        assert_eq!(
            list[4799].get("comment").and_then(JsonValue::as_str),
            Some("Ünïcödé 寄存器 🚀 naïve")
        );
        let elapsed = start.elapsed();
        assert!(elapsed < Duration::from_secs(2), "parsing took {elapsed:?}");
    }

    #[test]
    fn surrogate_pair_escapes_combine_into_one_char() {
        // Python's json.dump (ensure_ascii=True) writes U+1F680 this way.
        let v = JsonValue::parse(r#""go \ud83d\ude80!""#).unwrap();
        assert_eq!(v.as_str(), Some("go 🚀!"));
        let v = JsonValue::parse(r#""\udbff\udfff""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{10FFFF}"));
    }

    #[test]
    fn unpaired_surrogate_escapes_are_rejected_at_their_offset() {
        for (text, offset) in [
            // Lone high half, then end of string / a plain char.
            (r#""\ud83d""#, 7),
            (r#""ab\ud83dx""#, 9),
            // High half followed by a non-surrogate escape.
            (r#""\ud83d\u0041""#, 7),
            // Lone low half, and a reversed pair.
            (r#""\ude80""#, 7),
            (r#""\ude80\ud83d""#, 7),
            // After multibyte characters the offset is still in bytes.
            ("\"é🚀\\ud83d\"", 13),
        ] {
            let err = JsonValue::parse(text).unwrap_err();
            assert_eq!(err.message, "invalid \\u escape", "{text}");
            assert_eq!(err.offset, offset, "{text}");
        }
    }

    #[test]
    fn string_errors_after_multibyte_characters_report_byte_offsets() {
        // "é" is 2 bytes, "€" 3, "🚀" 4: the opening quote plus these
        // put the next character at byte 10.
        let err = JsonValue::parse("\"é€🚀").unwrap_err();
        assert_eq!((err.offset, err.message.as_str()), (10, "unterminated string"));
        let err = JsonValue::parse("\"é€🚀\\q\"").unwrap_err();
        assert_eq!((err.offset, err.message.as_str()), (11, "invalid escape"));
        let err = JsonValue::parse("[\"é€🚀\", \"ü\\").unwrap_err();
        assert_eq!((err.offset, err.message.as_str()), (18, "invalid escape"));
    }

    /// `s` escaped the way an ASCII-only writer (Python's `json.dump`
    /// with `ensure_ascii=True`) does: every non-ASCII char as `\uXXXX`,
    /// non-BMP chars as a surrogate pair.
    fn ascii_only_json_string(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (' '..='~').contains(&c) => out.push(c),
                c => {
                    let mut units = [0u16; 2];
                    for unit in c.encode_utf16(&mut units) {
                        out.push_str(&format!("\\u{unit:04x}"));
                    }
                }
            }
        }
        out.push('"');
        out
    }

    /// Strategy: strings mixing ASCII, 2-, 3- and 4-byte UTF-8, control
    /// characters, `"` and `\`.
    fn awkward_string() -> impl proptest::strategy::Strategy<Value = String> {
        use proptest::prelude::*;
        prop::collection::vec((0u8..7, 0u32..0x10_0000), 0..48).prop_map(|parts| {
            parts
                .into_iter()
                .map(|(class, r)| {
                    let code = match class {
                        0 => 0x20 + r % 0x5F,
                        1 => r % 0x20,
                        2 => u32::from(b'"'),
                        3 => u32::from(b'\\'),
                        4 => 0x80 + r % 0x780,
                        // 3-byte range minus the surrogate block.
                        5 => {
                            let c = 0x800 + r % 0xF000;
                            if (0xD800..0xE000).contains(&c) { c + 0x800 } else { c }
                        }
                        _ => 0x1_0000 + r % 0x10_0000,
                    };
                    char::from_u32(code).expect("generated a scalar value")
                })
                .collect()
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn strings_round_trip_through_the_writer_and_the_parser(s in awkward_string()) {
            let parsed = JsonValue::parse(&json_string(&s)).unwrap();
            proptest::prop_assert_eq!(parsed.as_str(), Some(s.as_str()));
            let parsed = JsonValue::parse(&ascii_only_json_string(&s)).unwrap();
            proptest::prop_assert_eq!(parsed.as_str(), Some(s.as_str()));
        }
    }

    #[test]
    fn json_string_escapes_the_awkward_characters() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\t\r"), "\"\\t\\r\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
