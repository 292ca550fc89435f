//! Hand-rolled JSON-lines reader: one flat JSON object per line, with
//! string / number / bool / null values. This covers the paper's "raw file in
//! CSV or JSON" ingestion path without pulling in a JSON dependency.
//!
//! The byte-level scanner underneath it — [`skip_ws`], [`parse_string`],
//! [`take_literal`], [`number_span`] — is the workspace's only JSON
//! tokenizer: the server crate's full-JSON parser is written over the same
//! four functions.

use crate::column::ColumnBuilder;
use crate::error::{DataError, Result};
use crate::table::{Table, TableBuilder};
use crate::value::Value;
use std::collections::HashMap;
use std::fs;
use std::path::Path;

#[cfg(test)]
mod referee;

/// Parses JSON-lines text into a [`Table`]. The column set is the union of
/// keys seen across all records; missing keys become nulls. Keys are ordered
/// alphabetically for determinism. Each record's cells go straight into
/// their columns' builders, keys and strings decoded into buffers reused
/// from record to record, so a record allocates nothing its keys and
/// strings have not brought before.
///
/// # Errors
/// Fails on malformed JSON, non-scalar field values, or a key named twice
/// in one record.
pub fn read_str(input: &str) -> Result<Table> {
    let mut records = Records::default();
    for (i, raw) in input.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        records
            .read(line.as_bytes())
            .map_err(|message| DataError::Parse {
                line: i + 1,
                message,
            })?;
    }
    records.columns.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(TableBuilder::from_columns(records.columns).finish())
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

/// The columns of the records read so far, each named and building, the
/// index from a name to its column, and the buffers a field's key and
/// string value are decoded into.
#[derive(Default)]
struct Records {
    columns: Vec<(String, ColumnBuilder)>,
    index: HashMap<String, usize>,
    rows: usize,
    key: String,
    text: String,
}

impl Records {
    /// Reads one record, a flat object of scalar fields filling the whole
    /// line, as the next row: a key first seen here starts a column of
    /// nulls for the rows before, and a column the record leaves out gets
    /// a null.
    fn read(&mut self, bytes: &[u8]) -> Scan<()> {
        let pos = &mut 0;
        skip_ws(bytes, pos);
        expect(bytes, pos, b'{')?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b'}') {
            *pos += 1;
        } else {
            loop {
                skip_ws(bytes, pos);
                self.key.clear();
                parse_string_into(bytes, pos, &mut self.key)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let at = self.column()?;
                push_value(bytes, pos, &mut self.columns[at].1, &mut self.text)?;
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        break;
                    }
                    _ => return Err("expected `,` or `}` in object".into()),
                }
            }
        }
        skip_ws(bytes, pos);
        if *pos != bytes.len() {
            return Err("trailing content after object".into());
        }
        self.rows += 1;
        for (_, column) in &mut self.columns {
            if column.len() < self.rows {
                column.push(Value::Null);
            }
        }
        Ok(())
    }

    /// Where the column named by the key just read is, started if it is
    /// new.
    fn column(&mut self) -> Scan<usize> {
        let at = match self.index.get(self.key.as_str()) {
            Some(&at) => at,
            None => {
                let mut column = ColumnBuilder::new();
                (0..self.rows).for_each(|_| column.push(Value::Null));
                self.index.insert(self.key.clone(), self.columns.len());
                self.columns.push((self.key.clone(), column));
                self.columns.len() - 1
            }
        };
        if self.columns[at].1.len() > self.rows {
            return Err(format!("duplicate key `{}` in object", self.key));
        }
        Ok(at)
    }
}

/// Reads one scalar field value into `column`, a string through `text`.
/// A string stays a string, whatever its text; booleans load as the
/// integers 1 / 0, and a number is an integer unless its text has a
/// fraction or exponent.
fn push_value(
    bytes: &[u8],
    pos: &mut usize,
    column: &mut ColumnBuilder,
    text: &mut String,
) -> Scan<()> {
    skip_ws(bytes, pos);
    let value = match bytes.get(*pos) {
        Some(b'"') => {
            text.clear();
            parse_string_into(bytes, pos, text)?;
            column.push_str(text);
            return Ok(());
        }
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
    }?;
    column.push(value);
    Ok(())
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
/// `*pos` just past its closing quote. Each run of bytes between a `"`
/// or `\` is validated and copied whole, so a string without escapes
/// is one `from_utf8` and one copy.
///
/// # Errors
/// On a missing opening quote, an unterminated string, an unknown or
/// malformed escape (unpaired surrogates included), or invalid UTF-8.
pub fn parse_string(bytes: &[u8], pos: &mut usize) -> std::result::Result<String, String> {
    let mut out = String::new();
    parse_string_into(bytes, pos, &mut out)?;
    Ok(out)
}

/// [`parse_string`], appending the decoded string to `out`.
fn parse_string_into(bytes: &[u8], pos: &mut usize, out: &mut String) -> Scan<()> {
    expect(bytes, pos, b'"')?;
    loop {
        let rest = &bytes[*pos..];
        let run = rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or_else(|| "unterminated string".to_owned())?;
        // Neither `"` nor `\` can sit inside a multi-byte sequence, so a
        // run is valid exactly when each of its code points is.
        out.push_str(
            std::str::from_utf8(&rest[..run]).map_err(|_| "invalid utf-8 in string".to_owned())?,
        );
        *pos += run + 1;
        if rest[run] == b'"' {
            return Ok(());
        }
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
        // A key first seen two records in: its string column reads "" for
        // both rows before, and the columns are in name order.
        let t = read_str("{\"b\":1}\n{\"b\":2}\n{\"a\":\"x\",\"b\":3}\n").unwrap();
        let names: Vec<&str> = t
            .schema()
            .fields()
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(names, ["a", "b"]);
        let a: Vec<Value> = (0..3).map(|row| t.value(row, "a").unwrap()).collect();
        assert_eq!(a, ["", "", "x"].map(|s| Value::Str(s.into())));
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
    fn a_string_stays_a_string_whatever_its_text() {
        let t = read_str("{\"s\":\"123\",\"n\":123}\n{\"s\":\"7\",\"n\":7}\n").unwrap();
        assert_eq!(t.schema().field("s").unwrap().data_type, DataType::Str);
        assert_eq!(t.value(1, "s").unwrap(), Value::Str("7".into()));
        assert_eq!(t.schema().field("n").unwrap().data_type, DataType::Int);
    }

    #[test]
    fn a_key_named_twice_in_one_record_is_an_error() {
        let err = read_str("{\"a\":1}\n{\"a\":2,\"b\":1,\"a\":3}\n").unwrap_err();
        assert!(matches!(err, DataError::Parse { line: 2, .. }), "{err}");
        assert!(read_str("{\"a\":1}\n{\"a\":2}\n").is_ok());
    }

    #[test]
    fn malformed_reports_line() {
        let err = read_str("{\"a\":1}\n{oops}\n").unwrap_err();
        assert!(matches!(err, DataError::Parse { line: 2, .. }));
    }

    #[test]
    fn trailing_garbage_is_error() {
        assert!(read_str("{\"a\":1} extra\n").is_err());
        assert!(read_str("{} extra\n").is_err());
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(read_str("{\"a\":\"oops}\n").is_err());
    }

    /// Byte pieces a JSON string body is drawn from: plain and multi-byte
    /// text, raw control bytes, every escape (well-formed, unknown,
    /// dangling), `\u` escapes across the surrogate ranges (paired,
    /// unpaired, reversed, short or non-hex), and bytes that are not
    /// UTF-8 (a lone continuation, a truncated lead, 0xff).
    const PIECES: &[&[u8]] = &[
        b"a",
        b"plain text run ",
        b",\t\n",
        "é".as_bytes(),
        "€".as_bytes(),
        "\u{1F4C8}".as_bytes(),
        b"\x00",
        b"\x1f",
        b"\x7f",
        b"\\\"",
        b"\\\\",
        b"\\/",
        b"\\n",
        b"\\t",
        b"\\r",
        b"\\b",
        b"\\f",
        b"\\x",
        b"\\",
        b"\\u00e9",
        b"\\u0000",
        b"\\uFFFF",
        b"\\ud83d\\udcc8",
        b"\\ud83d",
        b"\\udcc8",
        b"\\udcc8\\ud83d",
        b"\\ud83d\\u0041",
        b"\\ud83d\\",
        b"\\u12",
        b"\\u12g4",
        b"\\u+123",
        b"\\u\xc3\xa9\xc3",
        b"\x80",
        b"\xc3",
        b"\xe2\x82",
        b"\xf0\x9f\x93",
        b"\xc3\"",
        b"\xed\xa0\x80",
        b"\xff",
        b"\"",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4000))]

        /// The run decoder returns the per-byte referee's string and end
        /// position, and fails on exactly the inputs the referee fails on.
        #[test]
        fn run_decoder_matches_the_per_byte_referee(
            pieces in proptest::collection::vec(0..PIECES.len(), 0..12),
            quoted in 0u8..4,
        ) {
            let mut bytes = Vec::new();
            if quoted > 0 {
                bytes.push(b'"');
            }
            pieces.iter().for_each(|&i| bytes.extend_from_slice(PIECES[i]));
            if quoted > 1 {
                bytes.extend_from_slice(b"\"}");
            }
            let (mut got_at, mut want_at) = (0, 0);
            let got = parse_string(&bytes, &mut got_at);
            let want = referee::parse_string(&bytes, &mut want_at);
            match (&got, &want) {
                (Ok(g), Ok(w)) => {
                    proptest::prop_assert_eq!(g, w);
                    proptest::prop_assert_eq!(got_at, want_at);
                }
                _ => proptest::prop_assert_eq!(got.is_ok(), want.is_ok(), "{:?} vs {:?}", got, want),
            }
        }
    }

    /// One field value's JSON text: each kind a cell can take, numbers that
    /// read as integers and as floats, strings that read as numbers.
    const CELLS: &[&str] = &[
        "1",
        "-7",
        "0",
        "12.5",
        "-0.25",
        "1e3",
        "true",
        "false",
        "null",
        "\"x\"",
        "\"123\"",
        "\"\"",
        "\"a\\nb\"",
        "9007199254740993",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1000))]

        /// Records streamed into their columns make the table the
        /// row-at-a-time referee makes: keys in any order and any subset,
        /// first seen on any record, blank lines between.
        #[test]
        fn streamed_records_match_the_referee(
            records in proptest::collection::vec(
                (
                    proptest::collection::vec((0u8..2, 0..CELLS.len()), 5),
                    0usize..5,
                    0u8..4,
                ),
                0..24,
            ),
        ) {
            const KEYS: [&str; 5] = ["a", "b", "y", "z", "zz"];
            let mut text = String::new();
            for (cells, turn, blank) in &records {
                let mut fields: Vec<String> = KEYS
                    .iter()
                    .zip(cells)
                    .filter(|(_, &(present, _))| present == 1)
                    .map(|(key, &(_, cell))| format!("\"{key}\": {}", CELLS[cell]))
                    .collect();
                if !fields.is_empty() {
                    let at = turn % fields.len();
                    fields.rotate_left(at);
                }
                if *blank == 0 {
                    text.push('\n');
                }
                text.push_str(&format!(" {{{}}}\n", fields.join(", ")));
            }
            let got = read_str(&text).unwrap();
            let want = referee::read_str(&text).unwrap();
            proptest::prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "{}", text);
        }
    }

    /// A long body decodes alike with escapes dense and sparse.
    #[test]
    fn long_bodies_match_the_referee() {
        for every in [1, 7, 64, 100_000] {
            let mut body = String::from("\"");
            for i in 0..20_000 {
                body.push_str(["x", "é", "€", "\u{1F4C8}"][i % 4]);
                if i % every == 0 {
                    body.push_str(["\\n", "\\\"", "\\u00e9", "\\ud83d\\udcc8"][i % 4]);
                }
            }
            body.push('"');
            let (mut got_at, mut want_at) = (0, 0);
            let got = parse_string(body.as_bytes(), &mut got_at).unwrap();
            assert_eq!(
                got,
                referee::parse_string(body.as_bytes(), &mut want_at).unwrap()
            );
            assert_eq!(got_at, want_at);
        }
    }
}
