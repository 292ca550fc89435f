//! The JSON string decoder as it stood before it copied runs: one code
//! point at a time, each validated and pushed on its own (the leading
//! byte's width helper inlined). Kept as the referee the decoder
//! proptests pin [`super::parse_string`] to — do not optimise it.
//!
//! Beside it, the JSON-lines reader as it stood before records streamed
//! into their columns: each record a map of [`Value`]s, the rows pushed
//! once every key is known. The referee [`super::read_str`] is pinned to.

use super::{decode_unicode_escape, expect, number_span, skip_ws, take_literal, Scan};
use crate::error::{DataError, Result as DataResult};
use crate::table::{Table, TableBuilder};
use crate::value::Value;
use std::collections::BTreeMap;

/// Parses JSON-lines text into a [`Table`], a record at a time into a map
/// and the rows pushed at the end.
pub(super) fn read_str(input: &str) -> DataResult<Table> {
    let mut rows: Vec<BTreeMap<String, Value>> = Vec::new();
    for (i, raw) in input.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        rows.push(parse_object(line).map_err(|message| DataError::Parse {
            line: i + 1,
            message,
        })?);
    }
    let mut keys: Vec<String> = Vec::new();
    for row in &rows {
        for k in row.keys() {
            if !keys.contains(k) {
                keys.push(k.clone());
            }
        }
    }
    keys.sort();
    let mut builder = TableBuilder::new(keys.clone());
    for mut row in rows {
        let values = keys
            .iter()
            .map(|k| row.remove(k).unwrap_or(Value::Null))
            .collect();
        builder.push_row(values)?;
    }
    Ok(builder.finish())
}

/// One record: a flat object of scalar fields filling the whole line.
fn parse_object(line: &str) -> Scan<BTreeMap<String, Value>> {
    let bytes = line.as_bytes();
    let pos = &mut 0;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    expect(bytes, pos, b'{')?;
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        return Ok(map);
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                skip_ws(bytes, pos);
                if *pos != bytes.len() {
                    return Err("trailing content after object".into());
                }
                return Ok(map);
            }
            _ => return Err("expected `,` or `}` in object".into()),
        }
    }
}

/// One scalar field value.
fn parse_value(bytes: &[u8], pos: &mut usize) -> Scan<Value> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') => take_literal(bytes, pos, "true").map(|()| Value::Int(1)),
        Some(b'f') => take_literal(bytes, pos, "false").map(|()| Value::Int(0)),
        Some(b'n') => take_literal(bytes, pos, "null").map(|()| Value::Null),
        Some(b) if *b == b'-' || b.is_ascii_digit() => {
            let text = number_span(bytes, pos);
            let digits = text.strip_prefix('-').unwrap_or(text);
            if digits.bytes().all(|b| b.is_ascii_digit()) {
                text.parse::<i64>()
                    .map(Value::Int)
                    .map_err(|_| format!("invalid integer `{text}`"))
            } else {
                text.parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| format!("invalid float `{text}`"))
            }
        }
        Some(b) => Err(format!(
            "unsupported JSON value starting with `{}`",
            *b as char
        )),
        None => Err("unexpected end of line".into()),
    }
}

/// Decodes the JSON string whose opening quote is at `*pos`, leaving
/// `*pos` just past its closing quote.
pub(super) fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err("unterminated string".into());
        };
        *pos += 1;
        match b {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("dangling escape".into());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => out.push(decode_unicode_escape(bytes, pos)?),
                    other => return Err(format!("unknown escape \\{}", other as char)),
                }
            }
            _ => {
                // Multi-byte UTF-8: copy the full code point.
                let start = *pos - 1;
                *pos = start
                    + match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                if *pos > bytes.len() {
                    return Err("truncated utf-8 sequence".into());
                }
                let s = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| "invalid utf-8 in string".to_owned())?;
                out.push_str(s);
            }
        }
    }
}
