//! Offline stand-in for `serde_json`, paired with the local `serde` shim.
//!
//! Provides the subset of the real crate's surface this workspace uses:
//! [`to_string`] / [`to_string_pretty`] / [`from_str`] / [`to_value`] /
//! [`from_value`], the [`Value`] type (re-exported from `serde`), and a
//! [`json!`] macro covering object/array literals with expression values.
//!
//! The emitted text is RFC 8259 JSON with the same shapes real serde
//! would produce (derive shim notes in `serde_derive`), so specs and
//! metadata files written by one build remain readable by a build against
//! the real crates.

pub use serde::{DeError, Value};

use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors from parsing or value conversion.
#[derive(Clone, Debug)]
pub struct Error(pub String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.0)
    }
}

/// Serialize into a [`Value`].
pub fn to_value<T: Serialize + ?Sized>(x: &T) -> Value {
    x.to_value()
}

/// Deserialize out of a [`Value`].
pub fn from_value<T: Deserialize>(v: Value) -> Result<T, Error> {
    Ok(T::from_value(&v)?)
}

/// Serialize to compact JSON text. Infallible for tree-shaped data; the
/// `Result` mirrors the real API.
pub fn to_string<T: Serialize + ?Sized>(x: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &x.to_value(), None, 0);
    Ok(out)
}

/// Serialize to 2-space-indented JSON text.
pub fn to_string_pretty<T: Serialize + ?Sized>(x: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &x.to_value(), Some(2), 0);
    Ok(out)
}

/// Parse JSON text into any [`Deserialize`] type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let v = parse_value(s)?;
    Ok(T::from_value(&v)?)
}

/// Parse JSON bytes into any [`Deserialize`] type.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error(e.to_string()))?;
    from_str(s)
}

/// Build a [`Value`] from a JSON-ish literal. Object and array literals
/// take arbitrary Rust expressions as values (serialized via the local
/// serde shim); nested `json!` calls cover deeper literal nesting.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({ $($key:literal : $value:expr),* $(,)? }) => {
        $crate::Value::Object(::std::vec![
            $( ($key.to_string(), $crate::to_value(&$value)) ),*
        ])
    };
    ([ $($value:expr),* $(,)? ]) => {
        $crate::Value::Array(::std::vec![ $( $crate::to_value(&$value) ),* ])
    };
    ($other:expr) => { $crate::to_value(&$other) };
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

fn write_escaped(out: &mut String, s: &str) {
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

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(n) = indent {
        out.push('\n');
        for _ in 0..n * depth {
            out.push(' ');
        }
    }
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                // Match serde_json: floats always carry a decimal point.
                let s = format!("{f}");
                out.push_str(&s);
                if !s.contains('.') && !s.contains('e') && !s.contains('E') {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_escaped(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

/// The deepest array/object nesting the parser accepts (serde_json's
/// default recursion limit). The parser recurses once per level, so
/// without a cap a few hundred kilobytes of `[` would overflow the
/// stack and abort the process instead of failing the parse.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open.
    depth: usize,
}

fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parse one container a level deeper, refusing to open more than
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(out));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            out.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(out));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8"))?,
            );
            match self.peek() {
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
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed by this
                            // workspace's data; reject them loudly.
                            let c = char::from_u32(cp)
                                .ok_or_else(|| self.err("unsupported \\u escape"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for text in ["null", "true", "false", "0", "-17", "3.5", "\"hi\\nthere\""] {
            let v: Value = from_str(text).unwrap();
            let back = to_string(&v).unwrap();
            let v2: Value = from_str(&back).unwrap();
            assert_eq!(v, v2, "{text}");
        }
    }

    #[test]
    fn roundtrip_nested() {
        let text = r#"{"a": [1, 2, {"b": null}], "c": "x -> y", "d": {"e": -4}}"#;
        let v: Value = from_str(text).unwrap();
        assert_eq!(v["a"][2]["b"], Value::Null);
        assert_eq!(v["c"].as_str(), Some("x -> y"));
        assert_eq!(v["d"]["e"].as_i64(), Some(-4));
        let pretty = to_string_pretty(&v).unwrap();
        let v2: Value = from_str(&pretty).unwrap();
        assert_eq!(v, v2);
    }

    fn nested_arrays(depth: usize) -> String {
        "[".repeat(depth) + &"]".repeat(depth)
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let v: Value = from_str(&nested_arrays(MAX_DEPTH)).unwrap();
        assert!(matches!(v, Value::Array(_)));
        let e = from_str::<Value>(&nested_arrays(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.0, format!("nesting too deep at byte {MAX_DEPTH}"));
        // Objects count toward the same limit.
        let mixed = "{\"a\":".repeat(MAX_DEPTH) + "[]" + &"}".repeat(MAX_DEPTH);
        assert!(from_str::<Value>(&mixed)
            .unwrap_err()
            .0
            .contains("nesting too deep"));
    }

    #[test]
    fn a_megabyte_of_brackets_is_an_error_not_an_abort() {
        let bomb = "[".repeat(1 << 20);
        let e = from_slice::<Value>(bomb.as_bytes()).unwrap_err();
        assert_eq!(e.0, format!("nesting too deep at byte {MAX_DEPTH}"));
    }

    #[test]
    fn json_macro_shapes() {
        let passed = true;
        let v = json!({
            "name": "p1",
            "passed": passed,
            "count": 3usize,
            "missing": Option::<String>::None,
            "items": vec![json!(1), json!(2)],
        });
        assert_eq!(v["passed"], Value::Bool(true));
        assert_eq!(v["count"].as_u64(), Some(3));
        assert!(v["missing"].is_null());
        assert_eq!(v["items"][1].as_u64(), Some(2));
    }
}
