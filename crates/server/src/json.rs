//! Minimal recursive-descent JSON for the wire protocol.
//!
//! The datastore crate has a JSON-*lines* reader for flat records; the
//! server needs full nested JSON (arrays, objects, booleans) for request
//! and response bodies, still without external dependencies. Both are
//! written over the datastore crate's one byte-level scanner (strings,
//! literals, number spans); nesting, `MAX_DEPTH` and the [`Json`] tree
//! live here. Objects preserve insertion order so responses serialize
//! deterministically.

use shapesearch_datastore::json::{number_span, parse_string, skip_ws, take_literal};
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved for deterministic output.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object; `None` for non-objects/missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a `Num`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The payload as a non-negative integer, if it is one exactly.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as usize),
            _ => None,
        }
    }

    /// The boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element slice, if this is an `Arr`.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes to compact JSON text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                if n.is_finite() {
                    // Integers print without a trailing ".0".
                    if n.fract() == 0.0 && n.abs() < 1e15 {
                        let _ = write!(out, "{}", *n as i64);
                    } else {
                        let _ = write!(out, "{n}");
                    }
                } else {
                    // JSON has no NaN/Infinity; scores are clamped anyway.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
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
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Self {
        Json::Num(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Num(n as f64)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Num(n as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

/// Builds an object from key/value pairs.
pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn write_escaped(s: &str, out: &mut String) {
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

/// Parses JSON text.
///
/// # Errors
/// Returns a human-readable message on malformed input.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

/// Nesting cap: recursion is one stack frame per level, and a worker
/// thread must survive any body MAX_BODY admits (a stack overflow
/// aborts the whole process — `catch_unwind` cannot contain it).
const MAX_DEPTH: usize = 128;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_obj(bytes, pos, depth),
        Some(b'[') => parse_arr(bytes, pos, depth),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => take_literal(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => take_literal(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'n') => take_literal(bytes, pos, "null").map(|()| Json::Null),
        Some(b) if *b == b'-' || b.is_ascii_digit() => {
            let start = *pos;
            number_span(bytes, pos)
                .parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("invalid number at byte {start}"))
        }
        Some(b) => Err(format!("unexpected `{}` at byte {pos}", *b as char)),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // consume '['
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
            _ => return Err(format!("expected `,` or `]` at byte {pos}")),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // consume '{'
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected string key at byte {pos}"));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos}"));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth + 1)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let text = r#"{"name":"q1","k":5,"nested":{"arr":[1,2.5,true,null,"s"]},"flag":false}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("k").unwrap().as_usize(), Some(5));
        assert_eq!(v.get("flag").unwrap().as_bool(), Some(false));
        let arr = v
            .get("nested")
            .unwrap()
            .get("arr")
            .unwrap()
            .as_array()
            .unwrap();
        assert_eq!(arr.len(), 5);
        let reparsed = parse(&v.to_text()).unwrap();
        assert_eq!(v, reparsed);
    }

    #[test]
    fn escapes_round_trip() {
        let v = Json::Str("a\n\"b\"\t\\ é \u{1}".into());
        let reparsed = parse(&v.to_text()).unwrap();
        assert_eq!(v, reparsed);
    }

    #[test]
    fn integers_print_without_decimal_point() {
        assert_eq!(Json::Num(5.0).to_text(), "5");
        assert_eq!(Json::Num(-0.5).to_text(), "-0.5");
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in [
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "\"open",
            "{} extra",
            "{'a':1}",
        ] {
            assert!(parse(bad).is_err(), "should reject `{bad}`");
        }
    }

    #[test]
    fn surrogate_pairs_decode_to_non_bmp_chars() {
        // U+1F4C8 (chart with upwards trend) in JSON's UTF-16 escapes.
        let v = parse(r#""\ud83d\udcc8 sales""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F4C8} sales"));
        // Unpaired or reversed surrogates are rejected, not replaced.
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse(r#""\ud83dxx""#).is_err());
        assert!(parse(r#""\udcc8\ud83d""#).is_err());
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        let deep = "[".repeat(100_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // At the cap it still parses.
        let ok_depth = "[".repeat(64) + &"]".repeat(64);
        assert!(parse(&ok_depth).is_ok());
    }

    #[test]
    fn obj_builder_preserves_order() {
        let v = obj([("z", "a".into()), ("a", 1usize.into())]);
        assert_eq!(v.to_text(), r#"{"z":"a","a":1}"#);
    }
}
