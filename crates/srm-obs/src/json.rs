//! A minimal JSON document model with a writer and a recursive-descent
//! parser.
//!
//! The workspace is dependency-free (no serde), but the observability
//! layer needs real JSON in three places: the JSONL event trace, the
//! run manifest, and the bench-harness `BENCH_mcmc.json` (which must
//! *merge* with an existing file, hence the parser). The model is
//! deliberately small: objects preserve insertion order, numbers are
//! `f64`, and non-finite floats serialise as `null` (JSON has no NaN).

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved on write.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Shorthand for building an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a `Num`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The array payload, if this is an `Arr`.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object payload as key/value pairs, if this is an `Obj`.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Serialises to a compact single-line JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    /// Serialises with two-space indentation (for manifests meant to
    /// be read by humans as well as machines).
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_num(out, *n),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Value::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Value::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            other => other.write_into(out),
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_str(out: &mut String, s: &str) {
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

/// A parse failure, with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub at: usize,
    /// Human-readable description of what went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// parser recurses once per level, so without a cap a request body of
/// a few thousand `[` would overflow the handler thread's stack and
/// abort the process; no document this workspace reads or writes
/// nests beyond a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// Parses a single JSON document, requiring the whole input to be
/// consumed (modulo trailing whitespace).
///
/// # Errors
///
/// Returns a [`ParseError`] for malformed input, trailing characters,
/// or arrays/objects nested deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            at: self.pos,
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

    fn eat(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.eat_literal("true", Value::Bool(true)),
            Some(b'f') => self.eat_literal("false", Value::Bool(false)),
            Some(b'n') => self.eat_literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Parses one array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self.unicode_escape()?;
                            out.push(code);
                            continue;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 code point; input came from a
                    // &str so boundaries are valid.
                    let rest = &self.bytes[self.pos..];
                    let step = utf8_len(rest[0]);
                    let chunk = std::str::from_utf8(&rest[..step.min(rest.len())])
                        .map_err(|_| self.error("invalid utf-8"))?;
                    out.push_str(chunk);
                    self.pos += step;
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        // self.pos is on the 'u'.
        self.pos += 1;
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos += 4;
        // Surrogate pairs are rejected rather than combined; the
        // writer never emits them.
        char::from_u32(code).ok_or_else(|| self.error("non-scalar \\u escape"))
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.error("invalid number"))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let doc = Value::obj(vec![
            ("name", Value::Str("gibbs".into())),
            ("n", Value::Num(3.0)),
            ("frac", Value::Num(0.5)),
            ("ok", Value::Bool(true)),
            ("none", Value::Null),
            (
                "arr",
                Value::Arr(vec![Value::Num(1.0), Value::Str("x\"y".into())]),
            ),
        ]);
        let text = doc.to_json();
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn integers_print_without_decimal_point() {
        assert_eq!(Value::Num(42.0).to_json(), "42");
        assert_eq!(Value::Num(-3.0).to_json(), "-3");
        assert_eq!(Value::Num(0.25).to_json(), "0.25");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Value::Num(f64::NAN).to_json(), "null");
        assert_eq!(Value::Num(f64::INFINITY).to_json(), "null");
    }

    #[test]
    fn escapes_control_characters() {
        let v = Value::Str("a\nb\t\"c\"\u{1}".into());
        let text = v.to_json();
        assert_eq!(text, "\"a\\nb\\t\\\"c\\\"\\u0001\"");
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn every_control_character_round_trips() {
        // U+0000..U+001F must all serialise to escapes that re-parse
        // to the original string (satellite: JSON writer hardening).
        let s: String = (0u32..0x20).map(|c| char::from_u32(c).unwrap()).collect();
        let v = Value::Str(s.clone());
        let text = v.to_json();
        assert!(
            text.bytes().all(|b| (0x20..0x80).contains(&b)),
            "control characters must leave the wire form: {text:?}"
        );
        assert_eq!(parse(&text).unwrap().as_str(), Some(s.as_str()));
    }

    #[test]
    fn lossy_utf8_replacement_chars_round_trip() {
        // Lone surrogates / invalid bytes can only enter a Rust &str
        // as U+FFFD via from_utf8_lossy; they must survive the trip.
        let lossy = String::from_utf8_lossy(&[0xf0, 0x9f, b'x', 0xed, 0xa0, 0x80]).into_owned();
        assert!(lossy.contains('\u{FFFD}'));
        let v = Value::Str(lossy.clone());
        let text = v.to_json();
        assert_eq!(parse(&text).unwrap().as_str(), Some(lossy.as_str()));
    }

    #[test]
    fn non_finite_fields_still_produce_valid_documents() {
        let doc = Value::obj(vec![
            ("rhat", Value::Num(f64::NAN)),
            ("ess", Value::Num(f64::INFINITY)),
            ("mcse", Value::Num(f64::NEG_INFINITY)),
            ("ok", Value::Num(1.5)),
        ]);
        let text = doc.to_json();
        let back = parse(&text).unwrap();
        assert_eq!(back.get("rhat").unwrap(), &Value::Null);
        assert_eq!(back.get("ess").unwrap(), &Value::Null);
        assert_eq!(back.get("mcse").unwrap(), &Value::Null);
        assert_eq!(back.get("ok").unwrap().as_f64(), Some(1.5));
    }

    #[test]
    fn parses_whitespace_and_unicode() {
        let v = parse(" { \"k\" : [ 1 , 2.5e1 , \"\\u00e9é\" ] } ").unwrap();
        let arr = v.get("k").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(25.0));
        assert_eq!(arr[2].as_str(), Some("éé"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn nesting_is_capped_without_exhausting_the_stack() {
        let deep = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        let err = parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn pretty_output_reparses_identically() {
        let doc = Value::obj(vec![
            ("a", Value::Arr(vec![Value::Num(1.0)])),
            ("b", Value::obj(vec![("c", Value::Bool(false))])),
            ("empty", Value::Arr(vec![])),
        ]);
        assert_eq!(parse(&doc.to_json_pretty()).unwrap(), doc);
    }

    #[test]
    fn get_finds_object_members() {
        let doc = Value::obj(vec![("x", Value::Num(1.0)), ("y", Value::Num(2.0))]);
        assert_eq!(doc.get("y").unwrap().as_f64(), Some(2.0));
        assert!(doc.get("z").is_none());
    }
}
