//! Hand-rolled CSV reader (RFC-4180 subset): comma separation, double-quote
//! quoting with `""` escapes, CRLF/LF line endings, and a mandatory header
//! row. Types are inferred per column ([`crate::Value::infer`] semantics).
//!
//! Reading is one pass: the tokenizer keeps one field buffer and hands each
//! finished cell's text straight to its column builder
//! ([`crate::ColumnBuilder::push_text`]), so nothing but the columns
//! themselves grows with the number of records.

use crate::error::{DataError, Result};
use crate::table::{Table, TableBuilder};
use crate::value::Value;
use std::fs;
use std::path::Path;

/// Where the tokenizer's cells go: the first record names the columns, every
/// later one fills them.
#[derive(Default)]
struct Cells {
    header: Vec<String>,
    /// Over no columns until the header record has ended.
    builder: TableBuilder,
    /// Fields completed in the current record.
    filled: usize,
    /// Records ended so far, the header included — so a ragged row reports
    /// its ordinal counting the header as 1 (blank lines are not records, and
    /// a quoted field spanning lines is still one).
    records: usize,
}

impl Cells {
    /// Takes the finished field out of `text`, leaving it empty for the next.
    fn field(&mut self, text: &mut String) {
        if self.records == 0 {
            self.header.push(std::mem::take(text));
        } else if self.filled < self.builder.num_columns() {
            self.builder.push_text(self.filled, text);
        }
        // A cell past the last column is only counted: the record's end
        // reports how many there were.
        text.clear();
        self.filled += 1;
    }

    /// Ends the current record, refusing a ragged one where it is met.
    fn end_record(&mut self) -> Result<()> {
        self.records += 1;
        let columns = self.builder.num_columns();
        if self.records == 1 {
            self.builder = TableBuilder::new(std::mem::take(&mut self.header));
        } else if self.filled != columns {
            let message = format!("expected {columns} fields, found {}", self.filled);
            return Err(parse_error(self.records, message));
        }
        self.filled = 0;
        Ok(())
    }
}

fn parse_error(line: usize, message: impl Into<String>) -> DataError {
    DataError::Parse {
        line,
        message: message.into(),
    }
}

/// Parses CSV text with a header row into a [`Table`].
///
/// # Errors
/// Fails on ragged rows, unterminated quotes, or an empty input — whichever
/// comes first in the text.
pub fn read_str(input: &str) -> Result<Table> {
    let bytes = input.as_bytes();
    let mut cells = Cells::default();
    let mut field = String::new();
    let mut in_quotes = false;
    // Physical line, for quoting errors (a ragged row reports its record).
    let mut line = 1usize;
    // Whether the current line held any character at all (quotes and commas
    // count) — only character-free lines are skipped.
    let mut line_had_content = false;
    let mut pos = 0;

    loop {
        // Everything the tokenizer acts on is ASCII, so a run of other bytes
        // is cut on character boundaries and copied in one go.
        let run = bytes[pos..]
            .iter()
            .position(|b| matches!(b, b'"' | b',' | b'\r' | b'\n'))
            .unwrap_or(bytes.len() - pos);
        field.push_str(&input[pos..pos + run]);
        pos += run;
        let Some(&c) = bytes.get(pos) else { break };
        pos += 1;
        line_had_content |= run > 0 || (c != b'\n' && c != b'\r');
        match c {
            b'"' if in_quotes && bytes.get(pos) == Some(&b'"') => {
                pos += 1;
                field.push('"');
            }
            b'"' if !in_quotes && !field.is_empty() => {
                return Err(parse_error(line, "quote appearing mid-field"));
            }
            b'"' => in_quotes = !in_quotes,
            _ if in_quotes => {
                line += usize::from(c == b'\n');
                field.push(c as char);
            }
            b',' => cells.field(&mut field),
            // Swallowed; the following '\n' terminates the record.
            b'\r' => {}
            _ => {
                // Truly blank lines (e.g. a trailing newline) are skipped; a
                // line containing only `""` is a real single-field record.
                if line_had_content {
                    cells.field(&mut field);
                    cells.end_record()?;
                }
                line_had_content = false;
                line += 1;
            }
        }
    }
    if in_quotes {
        return Err(parse_error(line, "unterminated quoted field"));
    }
    // A last line without its newline is a record when it holds a field
    // character or a comma.
    if !field.is_empty() || cells.filled > 0 {
        cells.field(&mut field);
        cells.end_record()?;
    }
    if cells.records == 0 {
        return Err(parse_error(1, "empty CSV input: missing header row"));
    }
    Ok(cells.builder.finish())
}

/// Reads a CSV file from disk.
///
/// # Errors
/// Propagates I/O and parse errors.
pub fn read_file(path: impl AsRef<Path>) -> Result<Table> {
    let text = fs::read_to_string(path)?;
    read_str(&text)
}

/// Serializes a table to CSV text (header + rows), quoting fields that
/// contain commas, quotes, or newlines. `write_str` and [`read_str`] round
/// trip for any table.
pub fn write_str(table: &Table) -> String {
    let mut out = String::new();
    let names: Vec<&str> = table
        .schema()
        .fields()
        .iter()
        .map(|f| f.name.as_str())
        .collect();
    out.push_str(
        &names
            .iter()
            .map(|n| quote_field(n))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for row in 0..table.num_rows() {
        let cells: Vec<String> = (0..table.num_columns())
            .map(|c| {
                let v = table.column_at(c).value(row);
                match v {
                    // Quoted-empty so a lone null row is not read back as a
                    // blank line.
                    Value::Null => quote_field(""),
                    other => quote_field(&other.to_string()),
                }
            })
            .collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

fn quote_field(s: &str) -> String {
    // Empty fields are quoted so a lone null cell in a single-column table
    // is not mistaken for a blank line on re-read.
    if s.is_empty() {
        return "\"\"".to_owned();
    }
    if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

/// Writes a table to a CSV file.
///
/// # Errors
/// Propagates I/O errors.
pub fn write_file(table: &Table, path: impl AsRef<Path>) -> Result<()> {
    fs::write(path, write_str(table))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;

    #[test]
    fn basic_inference() {
        let t = read_str("z,x,y\na,1,1.5\nb,2,2.5\n").unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.schema().field("z").unwrap().data_type, DataType::Str);
        assert_eq!(t.schema().field("x").unwrap().data_type, DataType::Int);
        assert_eq!(t.schema().field("y").unwrap().data_type, DataType::Float);
        assert_eq!(t.value(1, "y").unwrap(), Value::Float(2.5));
    }

    #[test]
    fn quoted_fields_with_commas_and_escapes() {
        let t = read_str("name,v\n\"a,b\",1\n\"say \"\"hi\"\"\",2\n").unwrap();
        assert_eq!(t.value(0, "name").unwrap(), Value::Str("a,b".into()));
        assert_eq!(t.value(1, "name").unwrap(), Value::Str("say \"hi\"".into()));
        // `""""` is one field holding one quote.
        let t = read_str("name\n\"\"\"\"\n").unwrap();
        assert_eq!(t.value(0, "name").unwrap(), Value::Str("\"".into()));
    }

    #[test]
    fn quoted_newline_stays_in_field() {
        let t = read_str("name,v\n\"two\nlines\",1\n").unwrap();
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.value(0, "name").unwrap(), Value::Str("two\nlines".into()));
    }

    #[test]
    fn crlf_line_endings() {
        let t = read_str("a,b\r\n1,2\r\n3,4\r\n").unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.value(1, "b").unwrap(), Value::Int(4));
        // A bare `\r` is swallowed wherever it stands; a line of nothing
        // else is blank.
        let t = read_str("a,b\r\n\r\n1\r,2\r\n").unwrap();
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.value(0, "a").unwrap(), Value::Int(1));
    }

    #[test]
    fn missing_trailing_newline() {
        // A last line without its newline is a record when it holds a field
        // character or a comma — so a bare `""` there is not one.
        for (input, rows) in [
            ("a\n1", 1),
            ("a\n1\n", 1),
            ("a\n\"\"", 0),
            ("a\n\"\"\n", 1),
            ("a\n ", 1),
            ("a\n\r", 0),
            ("a,b\n1,", 1),
            ("a,b\n,", 1),
            ("a\n\"\n\"", 1),
        ] {
            let t = read_str(input).unwrap_or_else(|e| panic!("{input:?}: {e}"));
            assert_eq!(t.num_rows(), rows, "{input:?}");
        }
    }

    #[test]
    fn ragged_row_is_an_error() {
        let err = read_str("a,b\n1\n").unwrap_err();
        assert!(matches!(err, DataError::Parse { line: 2, .. }));
        // `line` is the record's ordinal, the header being 1: blank lines
        // and a quoted field spanning lines before it do not shift it.
        for (input, line, message) in [
            ("a,b,c\n1,2,3\n4,5\n", 3, "expected 3 fields, found 2"),
            ("a,b,c\n1,2,3,4\n", 2, "expected 3 fields, found 4"),
            ("a,b,c\n1,2,3\n4,5", 3, "expected 3 fields, found 2"),
            (
                "a,b,c\n\n\"x\ny\",2,3\n\n4,5\n",
                3,
                "expected 3 fields, found 2",
            ),
            // A ragged row is refused where it is met, before a quoting
            // error further down (the two-pass reader tokenized everything
            // first and said `unterminated quoted field` here).
            ("a,b\n1\n\"x", 2, "expected 2 fields, found 1"),
        ] {
            match read_str(input).unwrap_err() {
                DataError::Parse {
                    line: got_line,
                    message: got,
                } => assert_eq!((got_line, got.as_str()), (line, message), "{input:?}"),
                other => panic!("{input:?}: {other:?}"),
            }
        }
        // A quoting error met first still wins, with its physical line.
        let err = read_str("a,b\n\"x\ny\"z\"\n1\n").unwrap_err();
        assert!(
            matches!(&err, DataError::Parse { line: 3, message } if message == "quote appearing mid-field"),
            "{err:?}"
        );
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        assert!(read_str("a\n\"oops\n").is_err());
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(read_str("").is_err());
    }

    #[test]
    fn empty_fields_become_null() {
        let t = read_str("a,b\n,2\n").unwrap();
        assert_eq!(t.value(0, "a").unwrap(), Value::Null);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let t = read_str("a\n1\n\n2\n").unwrap();
        assert_eq!(t.num_rows(), 2);
        // Before the header too; the first record with content names the
        // columns.
        let t = read_str("\n\r\na\n\n\n1\n").unwrap();
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.value(0, "a").unwrap(), Value::Int(1));
    }

    #[test]
    fn write_read_round_trip() {
        let input = "z,x,y\n\"a,1\",1,1.5\n\"say \"\"hi\"\"\",2,2.5\n";
        let t = read_str(input).unwrap();
        let out = write_str(&t);
        let t2 = read_str(&out).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn write_handles_nulls_and_specials() {
        // In a string column a null cell is stored as the empty string (the
        // dictionary has no null sentinel); numeric columns keep real nulls.
        let t = read_str("name,v\n,1\nplain,2\n,\n").unwrap();
        let out = write_str(&t);
        assert!(out.starts_with("name,v\n"));
        let t2 = read_str(&out).unwrap();
        assert_eq!(t2.value(0, "name").unwrap(), Value::Str(String::new()));
        // A nullable integer column is widened to float.
        assert_eq!(t2.value(1, "v").unwrap(), Value::Float(2.0));
        assert_eq!(t2.value(2, "v").unwrap(), Value::Null);
        // (No whole-table equality here: the null is an in-band NaN, and
        // NaN ≠ NaN under `PartialEq`.)
    }

    #[test]
    fn write_file_and_read_back() {
        let mut path = std::env::temp_dir();
        path.push(format!("ss_csv_{}.csv", std::process::id()));
        let t = read_str("a,b\n1,x\n2,y\n").unwrap();
        write_file(&t, &path).unwrap();
        let t2 = read_file(&path).unwrap();
        assert_eq!(t, t2);
        std::fs::remove_file(&path).ok();
    }
}
