//! The JSON string decoder as it stood before it copied runs: one code
//! point at a time, each validated and pushed on its own (the leading
//! byte's width helper inlined). Kept as the referee the decoder
//! proptests pin [`super::parse_string`] to — do not optimise it.

use super::{decode_unicode_escape, expect};

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
