//! The visual regular expression parser (paper §2, "Regular Expression
//! (regex)"): a textual syntax that "directly maps to the structured
//! internal representation", parsed with the context-free grammar of
//! Table 2.
//!
//! Syntax accepted (ASCII spellings, with the paper's Unicode operators as
//! aliases):
//!
//! ```text
//! query   := or
//! or      := and ( ('|' | '⊕') and )*
//! and     := concat ( ('&' | '⊙') concat )*
//! concat  := unary ( '⊗'? unary )*        (adjacency is CONCAT)
//! unary   := ('!' unary) | segment | '(' query ')'
//! segment := '[' part (',' part)* ']'
//! part    := 'x.s' '=' (num | '.')
//!          | 'x.e' '=' (num | '.' '+' num)
//!          | 'y.s' '=' num | 'y.e' '=' num
//!          | 'p' '=' (up|down|flat|'*'|num|'$'ref|'udp:'name|'['query']')
//!          | 'm' '=' ('>>'|'<<'|'>'num?|'<'num?|'='|num|'{'n?','n?'}')
//!          | 'v' '=' '(' num ':' num (',' num ':' num)* ')'
//! ```
//!
//! `ShapeQuery`'s `Display` emits this syntax, so parsing round-trips.

use crate::error::{ParseError, Result};
use crate::finite_number;
use shapesearch_core::{IteratorSpec, Modifier, Pattern, PosRef, ShapeQuery, ShapeSegment};

/// Parses a visual-regex string into a ShapeQuery.
///
/// # Errors
/// Returns a [`ParseError`] with a byte position and message on malformed
/// input.
pub fn parse_regex(input: &str) -> Result<ShapeQuery> {
    let mut c = Cursor::new(input);
    let q = c.parse_query()?;
    c.skip_ws();
    if !c.eof() {
        return Err(c.err("unexpected trailing input"));
    }
    Ok(q)
}

/// How deep groups, negations and nested patterns may nest. The parser
/// recurses once per level and query text arrives from outside the
/// program, so without a cap a few kilobytes of `(` overflow the stack of
/// whichever thread is parsing — which aborts the process. The same cap as
/// the server's JSON parser, and far beyond any query a person writes. A
/// group or a negation is one level; a nested pattern is two, since it
/// recurses through the segment parser as well as the operator chain and
/// takes twice the stack (≈ 19 KB against ≈ 9.5 KB a level unoptimized,
/// measured) — so the deepest query admitted stays near 1.2 MB of a 2 MiB
/// thread stack however it is spelt, and a fifth of that optimized.
const MAX_DEPTH: usize = 128;

struct Cursor<'a> {
    input: &'a str,
    chars: Vec<char>,
    pos: usize,
    /// How many groups, negations and nested patterns enclose `pos`.
    depth: usize,
}

impl<'a> Cursor<'a> {
    fn new(input: &'a str) -> Self {
        Self {
            input,
            chars: input.chars().collect(),
            pos: 0,
            depth: 0,
        }
    }

    /// Runs `parse` `levels` nesting levels down, refusing to go below
    /// [`MAX_DEPTH`].
    fn nested<T>(
        &mut self,
        levels: usize,
        parse: impl FnOnce(&mut Self) -> Result<T>,
    ) -> Result<T> {
        if self.depth + levels > MAX_DEPTH {
            return Err(self.err(format!("query nests deeper than {MAX_DEPTH} levels")));
        }
        self.depth += levels;
        let parsed = parse(self);
        self.depth -= levels;
        parsed
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError::new(self.pos, message.into(), self.input.to_owned())
    }

    fn eof(&self) -> bool {
        self.pos >= self.chars.len()
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: char) -> bool {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: char) -> Result<()> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{c}`")))
        }
    }

    fn eat_str(&mut self, s: &str) -> bool {
        self.skip_ws();
        let mut p = self.pos;
        for want in s.chars() {
            if self.chars.get(p) != Some(&want) {
                return false;
            }
            p += 1;
        }
        self.pos = p;
        true
    }

    // query := or
    fn parse_query(&mut self) -> Result<ShapeQuery> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<ShapeQuery> {
        let first = self.parse_and()?;
        let mut parts = vec![first];
        loop {
            self.skip_ws();
            if self.eat('|') || self.eat('⊕') {
                parts.push(self.parse_and()?);
            } else {
                break;
            }
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("one element")
        } else {
            ShapeQuery::Or(parts)
        })
    }

    fn parse_and(&mut self) -> Result<ShapeQuery> {
        let first = self.parse_concat()?;
        let mut parts = vec![first];
        loop {
            self.skip_ws();
            if self.eat('&') || self.eat('⊙') {
                parts.push(self.parse_concat()?);
            } else {
                break;
            }
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("one element")
        } else {
            ShapeQuery::And(parts)
        })
    }

    fn parse_concat(&mut self) -> Result<ShapeQuery> {
        let mut parts = vec![self.parse_unary()?];
        loop {
            self.skip_ws();
            let _ = self.eat('⊗'); // optional explicit CONCAT
            self.skip_ws();
            match self.peek() {
                Some('[') | Some('(') | Some('!') => parts.push(self.parse_unary()?),
                _ => break,
            }
        }
        Ok(ShapeQuery::concat(parts))
    }

    fn parse_unary(&mut self) -> Result<ShapeQuery> {
        self.skip_ws();
        if self.eat('!') {
            let negated = self.nested(1, Self::parse_unary)?;
            return Ok(ShapeQuery::Not(Box::new(negated)));
        }
        if self.eat('(') {
            let q = self.nested(1, Self::parse_query)?;
            self.expect(')')?;
            return Ok(q);
        }
        self.parse_segment().map(ShapeQuery::Segment)
    }

    fn parse_segment(&mut self) -> Result<ShapeSegment> {
        self.expect('[')?;
        let mut seg = ShapeSegment::default();
        loop {
            self.skip_ws();
            if self.eat(']') {
                return Ok(seg);
            }
            self.parse_part(&mut seg)?;
            self.skip_ws();
            let _ = self.eat(',');
        }
    }

    fn parse_part(&mut self, seg: &mut ShapeSegment) -> Result<()> {
        self.skip_ws();
        if self.eat_str("x.s") {
            self.expect('=')?;
            self.skip_ws();
            if self.eat('.') {
                // ITERATOR start: width set by the matching `x.e = .+w`.
                return Ok(());
            }
            seg.location.x_start = Some(self.parse_number()?);
            return Ok(());
        }
        if self.eat_str("x.e") {
            self.expect('=')?;
            self.skip_ws();
            if self.eat('.') {
                self.expect('+')?;
                let w = self.parse_number()?;
                seg.iterator = Some(IteratorSpec { width: w });
                return Ok(());
            }
            seg.location.x_end = Some(self.parse_number()?);
            return Ok(());
        }
        if self.eat_str("y.s") {
            self.expect('=')?;
            seg.location.y_start = Some(self.parse_number()?);
            return Ok(());
        }
        if self.eat_str("y.e") {
            self.expect('=')?;
            seg.location.y_end = Some(self.parse_number()?);
            return Ok(());
        }
        if self.eat_str("p{") {
            // Table-11 shorthand: p{up} etc.
            let p = self.parse_pattern_value()?;
            self.expect('}')?;
            seg.pattern = Some(p);
            return Ok(());
        }
        if self.eat_str("v") {
            self.expect('=')?;
            seg.sketch = Some(self.parse_sketch_vector()?);
            return Ok(());
        }
        if self.eat_str("p") {
            self.expect('=')?;
            seg.pattern = Some(self.parse_pattern_value()?);
            return Ok(());
        }
        if self.eat_str("m") {
            self.expect('=')?;
            seg.modifier = Some(self.parse_modifier_value()?);
            return Ok(());
        }
        Err(self.err("expected segment part (x.s, x.e, y.s, y.e, p, m, v)"))
    }

    fn parse_pattern_value(&mut self) -> Result<Pattern> {
        self.skip_ws();
        if self.eat_str("up") {
            return Ok(Pattern::Up);
        }
        if self.eat_str("down") {
            return Ok(Pattern::Down);
        }
        if self.eat_str("flat") {
            return Ok(Pattern::Flat);
        }
        if self.eat('*') {
            return Ok(Pattern::Any);
        }
        if self.eat_str("udp:") {
            let name = self.parse_ident()?;
            return Ok(Pattern::Udp(name));
        }
        if self.eat('$') {
            if self.eat('-') {
                return Ok(Pattern::Position(PosRef::Prev));
            }
            if self.eat('+') {
                return Ok(Pattern::Position(PosRef::Next));
            }
            let n = self.parse_number()?;
            if n < 0.0 || n.fract() != 0.0 {
                return Err(self.err("position reference must be a non-negative integer"));
            }
            return Ok(Pattern::Position(PosRef::Absolute(n as usize)));
        }
        if self.peek() == Some('[') {
            // Nested query as pattern value.
            let q = self.nested(2, Self::parse_nested_query)?;
            return Ok(Pattern::Nested(Box::new(q)));
        }
        let n = self.parse_number()?;
        Ok(Pattern::Slope(n))
    }

    /// A nested query pattern value. Two spellings exist: a wrapper bracket
    /// around a whole query (`p=[[p=up][p=down]]`) or a single bare segment
    /// (`p=[x.s=., x.e=.+4, p=...]`). Distinguished by what follows the
    /// first `[`.
    fn parse_nested_query(&mut self) -> Result<ShapeQuery> {
        let save = self.pos;
        self.expect('[')?;
        self.skip_ws();
        let is_wrapper = matches!(self.peek(), Some('[') | Some('(') | Some('!'));
        if is_wrapper {
            let q = self.parse_query()?;
            self.expect(']')?;
            Ok(q)
        } else {
            self.pos = save;
            self.parse_segment().map(ShapeQuery::Segment)
        }
    }

    fn parse_modifier_value(&mut self) -> Result<Modifier> {
        self.skip_ws();
        if self.eat_str(">>") {
            return Ok(Modifier::MuchMore);
        }
        if self.eat_str("<<") {
            return Ok(Modifier::MuchLess);
        }
        if self.eat('>') {
            let f = self.try_parse_number()?;
            return Ok(Modifier::More(f));
        }
        if self.eat('<') {
            let f = self.try_parse_number()?;
            return Ok(Modifier::Less(f));
        }
        if self.eat('=') {
            return Ok(Modifier::Similar);
        }
        if self.eat('{') {
            self.skip_ws();
            let min = self.try_parse_number()?.map(|v| v as u32);
            self.expect(',')?;
            self.skip_ws();
            let max = self.try_parse_number()?.map(|v| v as u32);
            self.expect('}')?;
            return Ok(Modifier::Quantifier { min, max });
        }
        let n = self.parse_number()?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(self.err("count modifier must be a non-negative integer"));
        }
        Ok(Modifier::exactly(n as u32))
    }

    fn parse_sketch_vector(&mut self) -> Result<Vec<(f64, f64)>> {
        self.expect('(')?;
        let mut points = Vec::new();
        loop {
            self.skip_ws();
            if self.eat(')') {
                break;
            }
            let x = self.parse_number()?;
            self.expect(':')?;
            let y = self.parse_number()?;
            points.push((x, y));
            self.skip_ws();
            let _ = self.eat(',');
        }
        if points.len() < 2 {
            return Err(self.err("sketch vector needs at least 2 points"));
        }
        Ok(points)
    }

    fn parse_ident(&mut self) -> Result<String> {
        self.skip_ws();
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_alphanumeric() || c == '_') {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected identifier"));
        }
        Ok(self.chars[start..self.pos].iter().collect())
    }

    /// A number when one starts here, after any whitespace; `Ok(None)`,
    /// with the cursor left where it was, when none does. A literal that
    /// starts here but is malformed or not finite is an error.
    fn try_parse_number(&mut self) -> Result<Option<f64>> {
        let save = self.pos;
        self.skip_ws();
        let start = self.pos;
        if matches!(self.peek(), Some('-') | Some('+')) {
            self.pos += 1;
        }
        let mut seen_digit = false;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                seen_digit = true;
                self.pos += 1;
            } else if c == '.' {
                // A '.' not followed by a digit belongs to the iterator
                // syntax, not the number.
                if matches!(self.chars.get(self.pos + 1), Some(d) if d.is_ascii_digit()) {
                    self.pos += 1;
                } else {
                    break;
                }
            } else if c == '/' && seen_digit {
                // Fractions like 1/2.
                self.pos += 1;
            } else {
                break;
            }
        }
        if !seen_digit {
            self.pos = save;
            return Ok(None);
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        // An error points at the literal's first character.
        let end = std::mem::replace(&mut self.pos, start);
        let number = |v: Option<f64>| v.ok_or_else(|| self.err("expected a finite number"));
        let value = match text.split_once('/') {
            None => number(finite_number(&text))?,
            Some((num, den)) => {
                let (n, d) = (number(finite_number(num))?, number(finite_number(den))?);
                if d == 0.0 {
                    return Err(self.err("fraction with zero denominator"));
                }
                // Finite parts can still divide past `f64::MAX`.
                number(Some(n / d).filter(|q| q.is_finite()))?
            }
        };
        self.pos = end;
        Ok(Some(value))
    }

    fn parse_number(&mut self) -> Result<f64> {
        match self.try_parse_number()? {
            Some(v) => Ok(v),
            None => {
                self.skip_ws();
                Err(self.err("expected number"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_sequence() {
        let q = parse_regex("[p=up][p=down][p=up]").unwrap();
        assert_eq!(q.chain_len(), 3);
    }

    #[test]
    fn whitespace_and_explicit_concat() {
        let a = parse_regex("[p=up] ⊗ [p=down]").unwrap();
        let b = parse_regex("[p=up][p=down]").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn locations_and_slope() {
        let q = parse_regex("[x.s=2, x.e=10, y.s=10, y.e=100]").unwrap();
        let ShapeQuery::Segment(s) = &q else {
            panic!("expected segment")
        };
        assert_eq!(s.location.x_start, Some(2.0));
        assert_eq!(s.location.x_end, Some(10.0));
        assert_eq!(s.location.y_start, Some(10.0));
        assert_eq!(s.location.y_end, Some(100.0));
        let q = parse_regex("[p=45]").unwrap();
        assert!(matches!(
            q,
            ShapeQuery::Segment(ShapeSegment {
                pattern: Some(Pattern::Slope(v)),
                ..
            }) if v == 45.0
        ));
    }

    #[test]
    fn non_finite_literals_are_refused() {
        let nines = "9".repeat(400);
        let huge = format!("1{}", "0".repeat(300));
        for text in [
            format!("[p={nines}]"),
            format!("[p={nines}/{nines}]"),
            format!("[p=1/{nines}]"),
            format!("[x.s=-{nines}]"),
            format!("[x.s=., x.e=.+{nines}]"),
            format!("[y.e={huge}/0.0000000001]"),
            format!("[p=up, m=>{nines}]"),
        ] {
            let err = parse_regex(&text).expect_err(&text);
            assert!(err.message.contains("finite"), "{text}: {err}");
            // The error points at the literal, not past it.
            let (before, at) = text.split_at(err.position);
            assert!(
                before.ends_with(['=', '+', '>']) && at.starts_with(['1', '9', '-']),
                "{text}: {err}"
            );
        }
        // A long literal with a finite value still reads.
        let tiny = format!("[p=0.{}1]", "0".repeat(400));
        assert_eq!(parse_regex(&tiny).unwrap().to_string(), "[p=0]");
        assert_eq!(
            parse_regex(&format!("[y.s={huge}/10]")).unwrap(),
            parse_regex(&format!("[y.s=1{}]", "0".repeat(299))).unwrap()
        );
    }

    #[test]
    fn negative_slope() {
        let q = parse_regex("[p=-20]").unwrap();
        assert!(matches!(
            q,
            ShapeQuery::Segment(ShapeSegment {
                pattern: Some(Pattern::Slope(v)),
                ..
            }) if v == -20.0
        ));
    }

    #[test]
    fn or_and_not_precedence() {
        // [a][b] | [c] parses as ([a][b]) | [c].
        let q = parse_regex("[p=up][p=down] | [p=flat]").unwrap();
        let ShapeQuery::Or(parts) = &q else {
            panic!("expected or, got {q:?}")
        };
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].chain_len(), 2);
        // & binds tighter than |.
        let q = parse_regex("[p=up] & [p=flat] | [p=down]").unwrap();
        assert!(matches!(q, ShapeQuery::Or(_)));
        let q = parse_regex("![p=flat]").unwrap();
        assert!(matches!(q, ShapeQuery::Not(_)));
    }

    #[test]
    fn unicode_operators() {
        let a = parse_regex("[p=up] ⊕ [p=down]").unwrap();
        let b = parse_regex("[p=up] | [p=down]").unwrap();
        assert_eq!(a, b);
        let a = parse_regex("[p=up] ⊙ [p=flat]").unwrap();
        let b = parse_regex("[p=up] & [p=flat]").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn grouping_example_from_paper() {
        // [p=up]⊗([p=flat] ⊕ ([p=down] ⊗ [p=up]))
        let q = parse_regex("[p=up]([p=flat] | ([p=down][p=up]))").unwrap();
        let ShapeQuery::Concat(parts) = &q else {
            panic!("expected concat")
        };
        assert_eq!(parts.len(), 2);
        assert!(matches!(parts[1], ShapeQuery::Or(_)));
    }

    #[test]
    fn modifiers() {
        let cases = [
            ("[p=up, m=>>]", Modifier::MuchMore),
            ("[p=up, m=>]", Modifier::More(None)),
            ("[p=up, m=>2]", Modifier::More(Some(2.0))),
            ("[p=$0, m=<1/2]", Modifier::Less(Some(0.5))),
            ("[p=up, m=<<]", Modifier::MuchLess),
            ("[p=$0, m==]", Modifier::Similar),
            ("[p=up, m=2]", Modifier::exactly(2)),
            (
                "[p=up, m={2,5}]",
                Modifier::Quantifier {
                    min: Some(2),
                    max: Some(5),
                },
            ),
            ("[p=up, m={2,}]", Modifier::at_least(2)),
            ("[p=up, m={,2}]", Modifier::at_most(2)),
        ];
        for (text, want) in cases {
            let q = parse_regex(text).unwrap();
            let ShapeQuery::Segment(s) = q else {
                panic!("expected segment for {text}")
            };
            assert_eq!(s.modifier, Some(want), "{text}");
        }
    }

    #[test]
    fn position_references() {
        let q = parse_regex("[p=up][p=$0, m=<]").unwrap();
        let ShapeQuery::Concat(parts) = &q else {
            panic!()
        };
        assert!(matches!(
            &parts[1],
            ShapeQuery::Segment(ShapeSegment {
                pattern: Some(Pattern::Position(PosRef::Absolute(0))),
                ..
            })
        ));
        let q = parse_regex("[p=$-][p=$+]").unwrap();
        let segs = q.segments();
        assert!(matches!(
            segs[0].pattern,
            Some(Pattern::Position(PosRef::Prev))
        ));
        assert!(matches!(
            segs[1].pattern,
            Some(Pattern::Position(PosRef::Next))
        ));
    }

    #[test]
    fn iterator_window() {
        // Paper: [x.s = ., x.e = (.+3), p=up]
        let q = parse_regex("[x.s=., x.e=.+3, p=up]").unwrap();
        let ShapeQuery::Segment(s) = q else { panic!() };
        assert_eq!(s.iterator, Some(IteratorSpec { width: 3.0 }));
        assert_eq!(s.pattern, Some(Pattern::Up));
    }

    #[test]
    fn nested_pattern() {
        // Paper: [x.s=2, x.e=10, p=[x.s=., x.e=.+4, p=[[p=up][p=down]]]]
        let q = parse_regex("[x.s=2, x.e=10, p=[x.s=., x.e=.+4, p=[[p=up][p=down]]]]").unwrap();
        let ShapeQuery::Segment(s) = &q else { panic!() };
        let Some(Pattern::Nested(inner)) = &s.pattern else {
            panic!("expected nested pattern")
        };
        let ShapeQuery::Segment(inner_seg) = inner.as_ref() else {
            panic!()
        };
        assert_eq!(inner_seg.iterator, Some(IteratorSpec { width: 4.0 }));
        assert!(matches!(&inner_seg.pattern, Some(Pattern::Nested(_))));
    }

    #[test]
    fn sketch_vector() {
        let q = parse_regex("[v=(2:10, 3:14, 10:100)]").unwrap();
        let ShapeQuery::Segment(s) = q else { panic!() };
        assert_eq!(
            s.sketch.unwrap(),
            vec![(2.0, 10.0), (3.0, 14.0), (10.0, 100.0)]
        );
    }

    #[test]
    fn udp_and_any() {
        let q = parse_regex("[p=udp:my_pattern]").unwrap();
        assert!(matches!(
            q,
            ShapeQuery::Segment(ShapeSegment {
                pattern: Some(Pattern::Udp(ref n)),
                ..
            }) if n == "my_pattern"
        ));
        let q = parse_regex("[p=*]").unwrap();
        assert!(matches!(
            q,
            ShapeQuery::Segment(ShapeSegment {
                pattern: Some(Pattern::Any),
                ..
            })
        ));
    }

    #[test]
    fn table11_shorthand() {
        // Table 11 writes [p{down}, x.s=50, x.e=100].
        let q = parse_regex("[p{down}, x.s=50, x.e=100]").unwrap();
        let ShapeQuery::Segment(s) = q else { panic!() };
        assert_eq!(s.pattern, Some(Pattern::Down));
        assert_eq!(s.location.x_start, Some(50.0));
    }

    #[test]
    fn errors_carry_position() {
        for bad in [
            "[p=up",
            "[q=up]",
            "[p=up]]",
            "",
            "[p=up] extra",
            "[m={2 5}]",
            "[v=(1:2)]",
        ] {
            let e = parse_regex(bad);
            assert!(e.is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn nesting_is_capped_not_recursed_into() {
        // Each spelling of "further down" with the levels it costs, alone
        // and taking turns.
        let group = |n: usize| format!("{}[p=up]{}", "(".repeat(n), ")".repeat(n));
        let negation = |n: usize| format!("{}[p=up]", "!".repeat(n));
        let bare = |n: usize| format!("{}up{}", "[p=".repeat(n + 1), "]".repeat(n + 1));
        let wrapped = |n: usize| format!("{}[p=up]{}", "[p=[".repeat(n), "]]".repeat(n));
        // A group, a negation and a nested pattern by turns: four levels a
        // round.
        let mixed = |n: usize| format!("{}[p=up]{}", "(![p=[".repeat(n), "]])".repeat(n));
        let spellings: [(&dyn Fn(usize) -> String, usize); 5] = [
            (&group, 1),
            (&negation, 1),
            (&bare, 2),
            (&wrapped, 2),
            (&mixed, 4),
        ];
        for (which, (spell, levels)) in spellings.into_iter().enumerate() {
            let deepest = MAX_DEPTH / levels;
            assert!(
                parse_regex(&spell(1)).is_ok(),
                "spelling {which}: {}",
                spell(1)
            );
            assert!(parse_regex(&spell(deepest)).is_ok(), "spelling {which}");
            // One more is an error with a position, and so is a depth
            // that would overflow any stack if followed down.
            for n in [deepest + 1, 100_000] {
                let text = spell(n);
                let e = parse_regex(&text).expect_err("too deep");
                assert!(
                    e.message.contains("nests deeper"),
                    "spelling {which}: {}",
                    e.message
                );
                assert!(0 < e.position && e.position < text.chars().count());
            }
        }
        // Depth is how far down, not how many: siblings do not add up.
        assert!(parse_regex(&"([p=up])".repeat(4 * MAX_DEPTH)).is_ok());
    }

    #[test]
    fn display_round_trip() {
        let cases = [
            "[p=up][p=down]",
            "[x.s=2, x.e=5, p=up, m=>>]",
            "[p=up]([p=flat] | ([p=down][p=up]))",
            "![p=flat]",
            "[p=up] & [p=down]",
            "[x.s=., x.e=.+3, p=up]",
            "[p=up][p=$0, m=<]",
            "[p=up, m={2,}]",
            "[p=[[p=up][p=down]], m={2,}]",
            "[x.s=2, x.e=10, p=[x.s=., x.e=.+4, p=[[p=up][p=down]]]]",
            "[v=(2:10, 3:14, 10:100)]",
            "[y.s=10, y.e=100, p=up]",
        ];
        for text in cases {
            let q = parse_regex(text).unwrap();
            let rendered = q.to_string();
            let re = parse_regex(&rendered)
                .unwrap_or_else(|e| panic!("reparse of `{rendered}` failed: {e}"));
            assert_eq!(q, re, "round trip of {text} via {rendered}");
        }
    }
}
