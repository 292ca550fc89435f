//! Hand-rolled JSON-lines reader: one flat JSON object per line, with
//! string / number / bool / null values. This covers the paper's "raw file in
//! CSV or JSON" ingestion path without pulling in a JSON dependency.
//!
//! The byte-level scanner underneath it — [`skip_ws`], [`parse_string`],
//! [`take_literal`], [`number_span`] — is the workspace's only JSON
//! tokenizer: the server crate's full-JSON parser is written over the same
//! four functions.

use crate::error::{DataError, Result};
use crate::table::{Table, TableBuilder};
use crate::value::Value;
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// Parses JSON-lines text into a [`Table`]. The column set is the union of
/// keys seen across all records; missing keys become nulls. Keys are ordered
/// alphabetically for determinism.
///
/// # Errors
/// Fails on malformed JSON or non-scalar field values.
pub fn read_str(input: &str) -> Result<Table> {
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

/// Reads a JSON-lines file from disk.
///
/// # Errors
/// Propagates I/O and parse errors.
pub fn read_file(path: impl AsRef<Path>) -> Result<Table> {
    let text = fs::read_to_string(path)?;
    read_str(&text)
}

/// A scanner failure is a human-readable message; callers add the line
/// number or the HTTP status.
type Scan<T> = std::result::Result<T, String>;

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Scan<()> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", b as char))
    }
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

/// One scalar field value. Booleans load as the integers 1 / 0, and a
/// number is an [`Value::Int`] unless its text has a fraction or exponent.
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

/// Advances `*pos` past any ASCII whitespace.
pub fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

/// Consumes the literal `lit` (`true` / `false` / `null`) at `*pos`.
///
/// # Errors
/// When the bytes at `*pos` do not spell `lit`.
pub fn take_literal(bytes: &[u8], pos: &mut usize, lit: &str) -> std::result::Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}"))
    }
}

/// Consumes a number's text at `*pos` — an optional `-`, then the longest
/// run of digits and `.eE+-` — and returns it. Whether that text *is* a
/// number is the caller's `parse::<f64>()` / `parse::<i64>()` to decide.
pub fn number_span<'a>(bytes: &'a [u8], pos: &mut usize) -> &'a str {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = bytes.get(*pos) {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos]).expect("a number span is ASCII")
}

/// Decodes the JSON string whose opening quote is at `*pos`, leaving
/// `*pos` just past its closing quote.
///
/// # Errors
/// On a missing opening quote, an unterminated string, an unknown or
/// malformed escape (unpaired surrogates included), or invalid UTF-8.
pub fn parse_string(bytes: &[u8], pos: &mut usize) -> std::result::Result<String, String> {
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
                *pos = start + utf8_width(b);
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

fn read_hex4(bytes: &[u8], pos: &mut usize) -> Scan<u32> {
    if *pos + 4 > bytes.len() {
        return Err("truncated \\u escape".into());
    }
    let hex = std::str::from_utf8(&bytes[*pos..*pos + 4])
        .map_err(|_| "non-utf8 \\u escape".to_owned())?;
    let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_owned())?;
    *pos += 4;
    Ok(code)
}

/// Decodes the payload of a JSON `\u` escape with `*pos` just past the
/// `u`, consuming a following `\uDC00`–`\uDFFF` escape when the first
/// code unit is a high surrogate (non-BMP characters arrive as UTF-16
/// surrogate pairs). Unpaired surrogates are an error, not U+FFFD.
fn decode_unicode_escape(bytes: &[u8], pos: &mut usize) -> Scan<char> {
    let code = read_hex4(bytes, pos)?;
    match code {
        0xD800..=0xDBFF => {
            if bytes.get(*pos) != Some(&b'\\') || bytes.get(*pos + 1) != Some(&b'u') {
                return Err("unpaired utf-16 surrogate".into());
            }
            *pos += 2;
            let low = read_hex4(bytes, pos)?;
            if !(0xDC00..=0xDFFF).contains(&low) {
                return Err("unpaired utf-16 surrogate".into());
            }
            let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            char::from_u32(combined).ok_or_else(|| "bad surrogate pair".to_owned())
        }
        0xDC00..=0xDFFF => Err("unpaired utf-16 surrogate".into()),
        code => char::from_u32(code).ok_or_else(|| "bad \\u escape".to_owned()),
    }
}

/// Width in bytes of a UTF-8 sequence from its leading byte.
fn utf8_width(first: u8) -> usize {
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
    use crate::schema::DataType;

    #[test]
    fn basic_objects() {
        let t =
            read_str("{\"z\":\"a\",\"x\":1,\"y\":1.5}\n{\"z\":\"b\",\"x\":2,\"y\":2.5}\n").unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.value(0, "z").unwrap(), Value::Str("a".into()));
        assert_eq!(t.value(1, "y").unwrap(), Value::Float(2.5));
        assert_eq!(t.schema().field("x").unwrap().data_type, DataType::Int);
    }

    #[test]
    fn missing_keys_become_null() {
        let t = read_str("{\"a\":1}\n{\"b\":2.0}\n").unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.value(0, "b").unwrap(), Value::Null);
        assert_eq!(t.value(1, "a").unwrap(), Value::Null);
    }

    #[test]
    fn escapes_and_unicode() {
        let t = read_str("{\"s\":\"a\\n\\\"b\\\" \\u00e9\"}\n").unwrap();
        assert_eq!(t.value(0, "s").unwrap(), Value::Str("a\n\"b\" é".into()));
    }

    #[test]
    fn surrogate_pairs_decode_and_unpaired_reject() {
        // U+1F4C8 encoded as a UTF-16 surrogate pair.
        let t = read_str("{\"s\":\"\\ud83d\\udcc8\"}\n").unwrap();
        assert_eq!(t.value(0, "s").unwrap(), Value::Str("\u{1F4C8}".into()));
        assert!(read_str("{\"s\":\"\\ud83d\"}\n").is_err());
        assert!(read_str("{\"s\":\"\\udcc8\"}\n").is_err());
    }

    #[test]
    fn bools_become_ints() {
        let t = read_str("{\"flag\":true}\n{\"flag\":false}\n").unwrap();
        assert_eq!(t.value(0, "flag").unwrap(), Value::Int(1));
        assert_eq!(t.value(1, "flag").unwrap(), Value::Int(0));
    }

    #[test]
    fn negative_and_scientific_numbers() {
        let t = read_str("{\"v\":-3}\n{\"v\":1e2}\n").unwrap();
        assert_eq!(t.value(0, "v").unwrap(), Value::Float(-3.0));
        assert_eq!(t.value(1, "v").unwrap(), Value::Float(100.0));
    }

    #[test]
    fn empty_object_and_blank_lines() {
        // An empty object contributes no columns; with zero columns the table
        // has no representable rows.
        let t = read_str("\n{}\n").unwrap();
        assert_eq!(t.num_columns(), 0);
        // Blank lines between objects are skipped.
        let t = read_str("{\"a\":1}\n\n{\"a\":2}\n").unwrap();
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn malformed_reports_line() {
        let err = read_str("{\"a\":1}\n{oops}\n").unwrap_err();
        assert!(matches!(err, DataError::Parse { line: 2, .. }));
    }

    #[test]
    fn trailing_garbage_is_error() {
        assert!(read_str("{\"a\":1} extra\n").is_err());
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(read_str("{\"a\":\"oops}\n").is_err());
    }
}
