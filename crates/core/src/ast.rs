//! The ShapeQuery algebra (paper §3, Tables 1–2).
//!
//! A [`ShapeQuery`] is a tree of operators over [`ShapeSegment`]s:
//!
//! * `MATCH [ ]` — implicit: every segment is bound to a match operator.
//! * `CONCAT ⊗` — a sequence of patterns, each over consecutive sub-regions.
//! * `AND ⊙` — several patterns over the *same* sub-region.
//! * `OR ⊕` — the best of several patterns over the same sub-region.
//! * `OPPOSITE !` — negates the shape expressed by its operand.
//!
//! Segments carry the five shape primitives: LOCATION (`x.s`, `x.e`, `y.s`,
//! `y.e`), PATTERN (`up`/`down`/`flat`/slope/`$pos`/udp/nested), MODIFIER
//! (`>`, `>>`, `<`, `<<`, `=`, quantifiers `{n,m}`), SKETCH (`v`), and the
//! ITERATOR sub-primitive (`x.s=., x.e=.+w`).

use std::fmt;

/// A ShapeQuery: the structured internal representation every user query
/// (natural language, regex, sketch) is translated into.
#[derive(Debug, Clone, PartialEq)]
pub enum ShapeQuery {
    /// A single `[ ... ]` ShapeSegment (bound to the MATCH operator).
    Segment(ShapeSegment),
    /// CONCAT (⊗): a sequence of sub-shapes over consecutive sub-regions.
    Concat(Vec<ShapeQuery>),
    /// AND (⊙): all sub-shapes must hold over the same sub-region.
    And(Vec<ShapeQuery>),
    /// OR (⊕): the best-matching sub-shape over the sub-region.
    Or(Vec<ShapeQuery>),
    /// OPPOSITE (!): the opposite of the sub-shape.
    Not(Box<ShapeQuery>),
}

impl ShapeQuery {
    /// A single-segment query matching pattern `p` anywhere.
    pub fn pattern(p: Pattern) -> Self {
        ShapeQuery::Segment(ShapeSegment::pattern(p))
    }

    /// Shorthand for an `up` segment.
    pub fn up() -> Self {
        Self::pattern(Pattern::Up)
    }

    /// Shorthand for a `down` segment.
    pub fn down() -> Self {
        Self::pattern(Pattern::Down)
    }

    /// Shorthand for a `flat` segment.
    pub fn flat() -> Self {
        Self::pattern(Pattern::Flat)
    }

    /// CONCAT of the given sub-queries, flattening nested CONCATs.
    pub fn concat(parts: Vec<ShapeQuery>) -> Self {
        let mut flat = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                ShapeQuery::Concat(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        if flat.len() == 1 {
            flat.pop().expect("len checked")
        } else {
            ShapeQuery::Concat(flat)
        }
    }

    /// Number of ShapeExprs in the top-level CONCAT chain (the `k` of the
    /// paper's complexity analyses); 1 for non-CONCAT roots.
    pub fn chain_len(&self) -> usize {
        match self {
            ShapeQuery::Concat(parts) => parts.len(),
            _ => 1,
        }
    }

    /// Iterates over every segment in the query tree.
    pub fn segments(&self) -> Vec<&ShapeSegment> {
        let mut out = Vec::new();
        self.collect_segments(&mut out);
        out
    }

    fn collect_segments<'a>(&'a self, out: &mut Vec<&'a ShapeSegment>) {
        match self {
            ShapeQuery::Segment(s) => {
                out.push(s);
                if let Some(Pattern::Nested(q)) = &s.pattern {
                    q.collect_segments(out);
                }
            }
            ShapeQuery::Concat(cs) | ShapeQuery::And(cs) | ShapeQuery::Or(cs) => {
                for c in cs {
                    c.collect_segments(out);
                }
            }
            ShapeQuery::Not(c) => c.collect_segments(out),
        }
    }

    /// A query is *fuzzy* when at least one segment is missing a start or end
    /// x location (paper §6: "a ShapeSegment having at least one of the start
    /// or end x locations missing [is a] fuzzy ShapeSegment").
    pub fn is_fuzzy(&self) -> bool {
        self.segments().iter().any(|s| s.is_fuzzy())
    }

    /// Collects the fully-pinned x ranges referenced by the query — the
    /// input to the push-down optimizations of §5.4.
    pub fn pinned_x_ranges(&self) -> Vec<(f64, f64)> {
        self.segments()
            .iter()
            .filter_map(|s| match (s.location.x_start, s.location.x_end) {
                (Some(a), Some(b)) if a <= b => Some((a, b)),
                _ => None,
            })
            .collect()
    }
}

impl fmt::Display for ShapeQuery {
    /// Renders the query in the visual-regex syntax accepted by the parser,
    /// so `parse_regex(q.to_string()) == q` (round-trip property).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeQuery::Segment(s) => write!(f, "{s}"),
            ShapeQuery::Concat(cs) => {
                for c in cs {
                    write_operand(f, c)?;
                }
                Ok(())
            }
            ShapeQuery::And(cs) => write_infix(f, cs, " & "),
            ShapeQuery::Or(cs) => write_infix(f, cs, " | "),
            ShapeQuery::Not(c) => {
                write!(f, "!")?;
                write_operand(f, c)
            }
        }
    }
}

fn write_operand(f: &mut fmt::Formatter<'_>, q: &ShapeQuery) -> fmt::Result {
    match q {
        ShapeQuery::Segment(_) => write!(f, "{q}"),
        _ => write!(f, "({q})"),
    }
}

fn write_infix(f: &mut fmt::Formatter<'_>, cs: &[ShapeQuery], sep: &str) -> fmt::Result {
    for (i, c) in cs.iter().enumerate() {
        if i > 0 {
            f.write_str(sep)?;
        }
        write_operand(f, c)?;
    }
    Ok(())
}

/// LOCATION primitive: optional endpoints of the sub-region a pattern must
/// match. All four components are optional; fully absent = fuzzy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Location {
    /// Starting x coordinate (`x.s`).
    pub x_start: Option<f64>,
    /// Ending x coordinate (`x.e`).
    pub x_end: Option<f64>,
    /// Starting y coordinate (`y.s`).
    pub y_start: Option<f64>,
    /// Ending y coordinate (`y.e`).
    pub y_end: Option<f64>,
}

impl Location {
    /// True when no component is set.
    pub fn is_empty(&self) -> bool {
        self.x_start.is_none()
            && self.x_end.is_none()
            && self.y_start.is_none()
            && self.y_end.is_none()
    }
}

/// Reference to another ShapeSegment's pattern (the POSITION `$` primitive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PosRef {
    /// `$k`: the k-th segment of the top-level chain (0-based).
    Absolute(usize),
    /// `$-`: the previous segment.
    Prev,
    /// `$+`: the next segment.
    Next,
}

/// PATTERN primitive values.
#[derive(Debug, Clone, PartialEq)]
pub enum Pattern {
    /// Increasing trend.
    Up,
    /// Decreasing trend.
    Down,
    /// Flat / stable trend.
    Flat,
    /// Any trend (`*`) — always matches.
    Any,
    /// A specific slope in degrees (`p=45`).
    Slope(f64),
    /// The pattern of another segment (`p=$0`, `p=$-`, `p=$+`).
    Position(PosRef),
    /// A named user-defined pattern, scored by a registered function.
    Udp(String),
    /// A nested ShapeQuery used as a pattern value.
    Nested(Box<ShapeQuery>),
}

/// MODIFIER primitive values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Modifier {
    /// `>`: gradual (with up/down), or "more than" with POSITION; the
    /// optional factor expresses "at least f×" comparisons.
    More(Option<f64>),
    /// `>>`: sharp (with up/down), or "much more than" with POSITION.
    MuchMore,
    /// `<`: "less than" with POSITION (e.g. `m=<1/2`), gradual inverse.
    Less(Option<f64>),
    /// `<<`: "much less than" with POSITION.
    MuchLess,
    /// `=`: similar slope to the referenced segment.
    Similar,
    /// `{min, max}` quantifier: the pattern must occur between `min` and
    /// `max` times ({2,} = at least twice, {,2} = at most twice, exact = both).
    Quantifier {
        /// Minimum number of occurrences (None = no lower bound).
        min: Option<u32>,
        /// Maximum number of occurrences (None = no upper bound).
        max: Option<u32>,
    },
}

impl Modifier {
    /// An exact-count quantifier (`m = n`).
    pub fn exactly(n: u32) -> Self {
        Modifier::Quantifier {
            min: Some(n),
            max: Some(n),
        }
    }

    /// An at-least quantifier (`m = {n,}`).
    pub fn at_least(n: u32) -> Self {
        Modifier::Quantifier {
            min: Some(n),
            max: None,
        }
    }

    /// An at-most quantifier (`m = {,n}`).
    pub fn at_most(n: u32) -> Self {
        Modifier::Quantifier {
            min: None,
            max: Some(n),
        }
    }
}

/// Width constraint from the ITERATOR sub-primitive
/// (`[x.s=., x.e=.+w, p=...]`): the segment slides over the trendline with a
/// fixed x-width `w`, matching the best window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IteratorSpec {
    /// Window width in x-axis units.
    pub width: f64,
}

/// A ShapeSegment: one `[ ... ]` unit combining the shape primitives.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShapeSegment {
    /// LOCATION primitive.
    pub location: Location,
    /// PATTERN primitive (optional — a location-only segment is allowed).
    pub pattern: Option<Pattern>,
    /// MODIFIER primitive.
    pub modifier: Option<Modifier>,
    /// SKETCH primitive: the `(x, y)` vector of a drawn sketch for precise
    /// matching.
    pub sketch: Option<Vec<(f64, f64)>>,
    /// ITERATOR width constraint.
    pub iterator: Option<IteratorSpec>,
}

impl ShapeSegment {
    /// A segment with only a pattern.
    pub fn pattern(p: Pattern) -> Self {
        Self {
            pattern: Some(p),
            ..Self::default()
        }
    }

    /// A segment with a pattern pinned to `[x_start, x_end]`.
    pub fn pinned(p: Pattern, x_start: f64, x_end: f64) -> Self {
        Self {
            pattern: Some(p),
            location: Location {
                x_start: Some(x_start),
                x_end: Some(x_end),
                ..Location::default()
            },
            ..Self::default()
        }
    }

    /// Sets the modifier, returning `self` for chaining.
    #[must_use]
    pub fn with_modifier(mut self, m: Modifier) -> Self {
        self.modifier = Some(m);
        self
    }

    /// Sets an iterator width, returning `self` for chaining.
    #[must_use]
    pub fn with_width(mut self, width: f64) -> Self {
        self.iterator = Some(IteratorSpec { width });
        self
    }

    /// Fuzzy = at least one of the x endpoints is missing (§6).
    pub fn is_fuzzy(&self) -> bool {
        self.location.x_start.is_none() || self.location.x_end.is_none()
    }
}

impl fmt::Display for ShapeSegment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if let Some(v) = self.location.x_start {
            parts.push(format!("x.s={}", fmt_num(v)));
        }
        if let Some(w) = self.iterator {
            parts.push("x.s=.".into());
            parts.push(format!("x.e=.+{}", fmt_num(w.width)));
        }
        if let Some(v) = self.location.x_end {
            parts.push(format!("x.e={}", fmt_num(v)));
        }
        if let Some(v) = self.location.y_start {
            parts.push(format!("y.s={}", fmt_num(v)));
        }
        if let Some(v) = self.location.y_end {
            parts.push(format!("y.e={}", fmt_num(v)));
        }
        if let Some(p) = &self.pattern {
            let pv = match p {
                Pattern::Up => "up".to_owned(),
                Pattern::Down => "down".to_owned(),
                Pattern::Flat => "flat".to_owned(),
                Pattern::Any => "*".to_owned(),
                Pattern::Slope(d) => fmt_num(*d),
                Pattern::Position(PosRef::Absolute(i)) => format!("${i}"),
                Pattern::Position(PosRef::Prev) => "$-".to_owned(),
                Pattern::Position(PosRef::Next) => "$+".to_owned(),
                Pattern::Udp(name) => format!("udp:{name}"),
                Pattern::Nested(q) => format!("[{q}]"),
            };
            parts.push(format!("p={pv}"));
        }
        if let Some(m) = &self.modifier {
            let mv = match m {
                Modifier::More(None) => ">".to_owned(),
                Modifier::More(Some(x)) => format!(">{}", fmt_num(*x)),
                Modifier::MuchMore => ">>".to_owned(),
                Modifier::Less(None) => "<".to_owned(),
                Modifier::Less(Some(x)) => format!("<{}", fmt_num(*x)),
                Modifier::MuchLess => "<<".to_owned(),
                Modifier::Similar => "=".to_owned(),
                Modifier::Quantifier { min, max } => match (min, max) {
                    (Some(a), Some(b)) if a == b => format!("{a}"),
                    (Some(a), Some(b)) => format!("{{{a},{b}}}"),
                    (Some(a), None) => format!("{{{a},}}"),
                    (None, Some(b)) => format!("{{,{b}}}"),
                    (None, None) => "{,}".to_owned(),
                },
            };
            parts.push(format!("m={mv}"));
        }
        if let Some(v) = &self.sketch {
            let pts: Vec<String> = v
                .iter()
                .map(|(x, y)| format!("{}:{}", fmt_num(*x), fmt_num(*y)))
                .collect();
            parts.push(format!("v=({})", pts.join(",")));
        }
        write!(f, "[{}]", parts.join(", "))
    }
}

/// Formats a number without a trailing `.0` for integers.
fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_flattens() {
        let q = ShapeQuery::concat(vec![
            ShapeQuery::up(),
            ShapeQuery::concat(vec![ShapeQuery::down(), ShapeQuery::up()]),
        ]);
        assert_eq!(q.chain_len(), 3);
    }

    #[test]
    fn concat_of_one_unwraps() {
        let q = ShapeQuery::concat(vec![ShapeQuery::up()]);
        assert!(matches!(q, ShapeQuery::Segment(_)));
    }

    #[test]
    fn fuzzy_detection() {
        assert!(ShapeQuery::up().is_fuzzy());
        let pinned = ShapeQuery::Segment(ShapeSegment::pinned(Pattern::Up, 0.0, 10.0));
        assert!(!pinned.is_fuzzy());
        let half = ShapeQuery::Segment(ShapeSegment {
            location: Location {
                x_start: Some(1.0),
                ..Location::default()
            },
            pattern: Some(Pattern::Up),
            ..ShapeSegment::default()
        });
        assert!(half.is_fuzzy());
    }

    #[test]
    fn pinned_ranges_collected() {
        let q = ShapeQuery::concat(vec![
            ShapeQuery::Segment(ShapeSegment::pinned(Pattern::Up, 50.0, 100.0)),
            ShapeQuery::down(),
        ]);
        assert_eq!(q.pinned_x_ranges(), vec![(50.0, 100.0)]);
    }

    #[test]
    fn segments_walks_nested() {
        let nested = ShapeQuery::Segment(ShapeSegment::pattern(Pattern::Nested(Box::new(
            ShapeQuery::concat(vec![ShapeQuery::up(), ShapeQuery::down()]),
        ))));
        // 1 outer + 2 inner segments.
        assert_eq!(nested.segments().len(), 3);
    }

    #[test]
    fn display_simple_sequence() {
        let q = ShapeQuery::concat(vec![ShapeQuery::up(), ShapeQuery::down()]);
        assert_eq!(q.to_string(), "[p=up][p=down]");
    }

    #[test]
    fn display_location_and_modifier() {
        let seg = ShapeSegment::pinned(Pattern::Up, 2.0, 5.0).with_modifier(Modifier::MuchMore);
        assert_eq!(seg.to_string(), "[x.s=2, x.e=5, p=up, m=>>]");
    }

    #[test]
    fn display_or_grouping() {
        let q = ShapeQuery::concat(vec![
            ShapeQuery::up(),
            ShapeQuery::Or(vec![
                ShapeQuery::flat(),
                ShapeQuery::concat(vec![ShapeQuery::down(), ShapeQuery::up()]),
            ]),
        ]);
        assert_eq!(q.to_string(), "[p=up]([p=flat] | ([p=down][p=up]))");
    }

    #[test]
    fn display_quantifiers() {
        assert_eq!(
            ShapeSegment::pattern(Pattern::Up)
                .with_modifier(Modifier::exactly(2))
                .to_string(),
            "[p=up, m=2]"
        );
        assert_eq!(
            ShapeSegment::pattern(Pattern::Up)
                .with_modifier(Modifier::at_least(2))
                .to_string(),
            "[p=up, m={2,}]"
        );
        assert_eq!(
            ShapeSegment::pattern(Pattern::Up)
                .with_modifier(Modifier::at_most(3))
                .to_string(),
            "[p=up, m={,3}]"
        );
    }

    #[test]
    fn display_iterator_and_slope() {
        let seg = ShapeSegment::pattern(Pattern::Slope(45.0)).with_width(3.0);
        assert_eq!(seg.to_string(), "[x.s=., x.e=.+3, p=45]");
    }

    #[test]
    fn display_position_refs() {
        assert_eq!(
            ShapeSegment::pattern(Pattern::Position(PosRef::Absolute(0)))
                .with_modifier(Modifier::Less(None))
                .to_string(),
            "[p=$0, m=<]"
        );
        assert_eq!(
            ShapeSegment::pattern(Pattern::Position(PosRef::Prev)).to_string(),
            "[p=$-]"
        );
    }

    #[test]
    fn location_is_empty() {
        assert!(Location::default().is_empty());
        assert!(!Location {
            y_end: Some(1.0),
            ..Location::default()
        }
        .is_empty());
    }
}
