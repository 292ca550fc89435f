//! ShapeQuery tree generation from tagged entities (paper §4), including
//! the Table-4 ambiguity resolution rules:
//!
//! 1. *Multiple `p` in one segment* → move one to an adjacent segment
//!    missing `p`, else split into two OR-ed segments.
//! 2. *Segment with `m` but no `p`* → move the `m` to an adjacent segment
//!    with `p` but no `m`, else drop it.
//! 3. *Conflicting `l` and `p`* → reinterpret the axis (x ↔ y) or swap the
//!    endpoints.
//! 4. *Overlapping segments under ⊗* → move x to y if free, else turn the
//!    CONCAT into an AND.

use crate::finite_number;
use crate::nl::lexicon::{resolve_modifier, resolve_pattern, ModifierWord, PatternWord};
use shapesearch_core::{Modifier, Pattern, ShapeQuery, ShapeSegment};

/// One tagged (token, label) pair from the CRF.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entity {
    /// The surface token.
    pub token: String,
    /// The predicted entity label.
    pub label: String,
}

/// Operators between segment groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Concat,
    Or,
    And,
}

/// Intermediate segment under construction.
#[derive(Debug, Clone, Default)]
struct Draft {
    patterns: Vec<PatternWord>,
    modifier: Option<ModifierWord>,
    count: Option<(u32, CountKind)>,
    x_start: Option<f64>,
    x_end: Option<f64>,
    y_start: Option<f64>,
    y_end: Option<f64>,
    width: Option<f64>,
    negated: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CountKind {
    Exact,
    AtLeast,
    AtMost,
}

impl Draft {
    fn is_empty(&self) -> bool {
        self.patterns.is_empty()
            && self.modifier.is_none()
            && self.count.is_none()
            && self.x_start.is_none()
            && self.x_end.is_none()
            && self.y_start.is_none()
            && self.y_end.is_none()
            && self.width.is_none()
    }
}

/// Output of translation: the query plus human-readable resolution notes
/// (surfaced in the correction panel, Figure 2 Box 3).
#[derive(Debug, Clone, PartialEq)]
pub struct Translation {
    /// The generated ShapeQuery.
    pub query: ShapeQuery,
    /// Notes describing each ambiguity resolution applied.
    pub notes: Vec<String>,
}

/// Translates a tagged entity sequence into a ShapeQuery.
///
/// Returns `None` when no pattern-bearing content is found.
pub fn translate(entities: &[Entity], raw_tokens: &[String]) -> Option<Translation> {
    let mut notes = Vec::new();

    // --- Group primitives between operators into draft segments.
    let mut groups: Vec<Draft> = vec![Draft::default()];
    let mut ops: Vec<Op> = Vec::new();
    for (i, e) in entities.iter().enumerate() {
        let current = groups.last_mut().expect("non-empty");
        match e.label.as_str() {
            "PATTERN" => {
                if let Some(p) = resolve_pattern(&e.token) {
                    current.patterns.push(p);
                }
            }
            "MODIFIER" => {
                if let Some(m) = resolve_modifier(&e.token) {
                    match m {
                        ModifierWord::Count(n) => current.count = Some((n, CountKind::Exact)),
                        other => current.modifier = Some(other),
                    }
                }
            }
            "COUNT" => {
                let n = e
                    .token
                    .parse::<u32>()
                    .ok()
                    .or_else(|| match resolve_modifier(&e.token) {
                        Some(ModifierWord::Count(n)) => Some(n),
                        _ => None,
                    });
                if let Some(n) = n {
                    current.count = Some((n, count_kind(raw_tokens, &e.token)));
                }
            }
            "XS" => current.x_start = finite_number(&e.token),
            "XE" => current.x_end = finite_number(&e.token),
            "YS" => current.y_start = finite_number(&e.token),
            "YE" => current.y_end = finite_number(&e.token),
            "WIDTH" => current.width = finite_number(&e.token),
            "NOT" => current.negated = true,
            "CONCAT" | "OR" | "AND" => {
                let op = match e.label.as_str() {
                    "OR" => Op::Or,
                    "AND" => Op::And,
                    _ => Op::Concat,
                };
                // Operators only split when the current group has content
                // ("either rising or falling": the leading OR-word opens
                // nothing).
                if !groups.last().expect("non-empty").is_empty() {
                    ops.push(op);
                    groups.push(Draft::default());
                } else {
                    let _ = i;
                }
            }
            _ => {}
        }
    }
    // Drop a trailing empty group from a dangling operator.
    while groups.len() > 1 && groups.last().is_some_and(Draft::is_empty) {
        groups.pop();
        ops.pop();
        notes.push("dropped dangling operator at end of query".into());
    }

    // --- Table-4 rule 1: multiple patterns in one segment. Runs before
    // rule 2 so an extra pattern can migrate into a modifier-only group
    // (the paper's "[increasing ... decreasing] next [sharply]" example).
    let mut i = 0;
    while i < groups.len() {
        while groups[i].patterns.len() > 1 {
            let extra = groups[i].patterns.pop().expect("len > 1");
            if i + 1 < groups.len() && groups[i + 1].patterns.is_empty() {
                groups[i + 1].patterns.push(extra);
                notes.push(format!(
                    "moved extra pattern from segment {} to segment {}",
                    i + 1,
                    i + 2
                ));
            } else {
                // Split: same constraints, alternative pattern, OR between.
                let mut alt = groups[i].clone();
                alt.patterns = vec![extra];
                groups.insert(i + 1, alt);
                ops.insert(i, Op::Or);
                notes.push(format!("split multi-pattern segment {} with OR", i + 1));
            }
        }
        i += 1;
    }

    // --- Table-4 rule 2: modifier with no pattern → move to a neighbour.
    // Counts are modifiers too ("3 times" without a pattern word).
    for i in 0..groups.len() {
        if groups[i].count.is_some() && groups[i].patterns.is_empty() {
            let c = groups[i].count.take().expect("checked");
            let neighbour = if i + 1 < groups.len()
                && !groups[i + 1].patterns.is_empty()
                && groups[i + 1].count.is_none()
            {
                Some(i + 1)
            } else if i > 0 && !groups[i - 1].patterns.is_empty() && groups[i - 1].count.is_none() {
                Some(i - 1)
            } else {
                None
            };
            match neighbour {
                Some(j) => {
                    groups[j].count = Some(c);
                    notes.push(format!("moved dangling count to segment {}", j + 1));
                }
                None => notes.push("ignored count without a pattern".into()),
            }
        }
        if groups[i].modifier.is_some() && groups[i].patterns.is_empty() {
            let m = groups[i].modifier.take().expect("checked");
            let neighbour = if i + 1 < groups.len()
                && !groups[i + 1].patterns.is_empty()
                && groups[i + 1].modifier.is_none()
            {
                Some(i + 1)
            } else if i > 0
                && !groups[i - 1].patterns.is_empty()
                && groups[i - 1].modifier.is_none()
            {
                Some(i - 1)
            } else {
                None
            };
            match neighbour {
                Some(j) => {
                    groups[j].modifier = Some(m);
                    notes.push(format!("moved dangling modifier to segment {}", j + 1));
                }
                None => notes.push("ignored modifier without a pattern".into()),
            }
        }
    }

    // Remove groups that remained entirely empty.
    let mut g = 0;
    while g < groups.len() {
        if groups[g].is_empty() && groups.len() > 1 {
            groups.remove(g);
            let op_idx = g.min(ops.len().saturating_sub(1));
            if !ops.is_empty() {
                ops.remove(op_idx);
            }
        } else {
            g += 1;
        }
    }

    // --- Table-4 rule 3: conflicting location and pattern.
    for (gi, d) in groups.iter_mut().enumerate() {
        if let (Some(a), Some(b)) = (d.x_start, d.x_end) {
            if a > b {
                let dir = d.patterns.first().copied();
                let y_free = d.y_start.is_none() && d.y_end.is_none();
                if y_free && matches!(dir, Some(PatternWord::Down)) {
                    // "decreasing from 8 to 0": those were y values.
                    d.y_start = Some(a);
                    d.y_end = Some(b);
                    d.x_start = None;
                    d.x_end = None;
                    notes.push(format!(
                        "reinterpreted inverted x range of segment {} as y values",
                        gi + 1
                    ));
                } else {
                    d.x_start = Some(b);
                    d.x_end = Some(a);
                    notes.push(format!("swapped inverted x range of segment {}", gi + 1));
                }
            }
        }
        if let (Some(a), Some(b)) = (d.y_start, d.y_end) {
            let conflict = match d.patterns.first() {
                Some(PatternWord::Up) => a > b,
                Some(PatternWord::Down) => a < b,
                _ => false,
            };
            if conflict {
                if d.x_start.is_none() && d.x_end.is_none() && a < b {
                    // Rising x-looking values mis-tagged as y.
                    d.x_start = Some(a);
                    d.x_end = Some(b);
                    d.y_start = None;
                    d.y_end = None;
                    notes.push(format!(
                        "reinterpreted conflicting y range of segment {} as x values",
                        gi + 1
                    ));
                } else {
                    d.y_start = Some(b);
                    d.y_end = Some(a);
                    notes.push(format!(
                        "swapped conflicting y endpoints of segment {}",
                        gi + 1
                    ));
                }
            }
        }
    }

    // --- Table-4 rule 4: overlapping CONCAT segments.
    for gi in 0..groups.len().saturating_sub(1) {
        if ops.get(gi) != Some(&Op::Concat) {
            continue;
        }
        let (Some(e1), Some(s2)) = (groups[gi].x_end, groups[gi + 1].x_start) else {
            continue;
        };
        if s2 < e1 {
            if groups[gi + 1].y_start.is_none() && groups[gi + 1].y_end.is_none() {
                let (a, b) = (groups[gi + 1].x_start.take(), groups[gi + 1].x_end.take());
                groups[gi + 1].y_start = a;
                groups[gi + 1].y_end = b;
                notes.push(format!(
                    "reinterpreted overlapping x range of segment {} as y values",
                    gi + 2
                ));
            } else {
                ops[gi] = Op::And;
                notes.push(format!(
                    "replaced CONCAT between overlapping segments {} and {} with AND",
                    gi + 1,
                    gi + 2
                ));
            }
        }
    }

    // --- Build the AST: fold groups left-to-right; OR binds loosest.
    let built: Vec<(Option<Op>, ShapeQuery)> = groups
        .iter()
        .enumerate()
        .filter_map(|(gi, d)| build_segment(d).map(|q| (gi.checked_sub(1).map(|j| ops[j]), q)))
        .collect();
    if built.is_empty() {
        return None;
    }

    // Split on OR into alternatives of CONCAT/AND runs.
    let mut alternatives: Vec<Vec<(Op, ShapeQuery)>> = vec![Vec::new()];
    for (op, q) in built {
        match op {
            Some(Op::Or) => alternatives.push(vec![(Op::Concat, q)]),
            Some(o) => alternatives.last_mut().expect("non-empty").push((o, q)),
            None => alternatives
                .last_mut()
                .expect("non-empty")
                .push((Op::Concat, q)),
        }
    }
    let alt_queries: Vec<ShapeQuery> = alternatives
        .into_iter()
        .filter(|run| !run.is_empty())
        .map(|run| {
            // Fold a run: AND joins the previous element, CONCAT appends.
            let mut parts: Vec<ShapeQuery> = Vec::new();
            for (op, q) in run {
                if op == Op::And && !parts.is_empty() {
                    let prev = parts.pop().expect("non-empty");
                    parts.push(ShapeQuery::And(vec![prev, q]));
                } else {
                    parts.push(q);
                }
            }
            ShapeQuery::concat(parts)
        })
        .collect();

    let query = if alt_queries.len() == 1 {
        alt_queries.into_iter().next().expect("one")
    } else {
        ShapeQuery::Or(alt_queries)
    };
    Some(Translation { query, notes })
}

/// Determines the quantifier kind by scanning the raw sentence for
/// "least"/"most" near the count word.
fn count_kind(raw_tokens: &[String], count_token: &str) -> CountKind {
    if let Some(i) = raw_tokens.iter().position(|t| t == count_token) {
        let lo = i.saturating_sub(3);
        for t in &raw_tokens[lo..i] {
            if t == "least" || t == "minimum" {
                return CountKind::AtLeast;
            }
            if t == "most" || t == "maximum" {
                return CountKind::AtMost;
            }
        }
    }
    CountKind::Exact
}

/// Materializes a draft into a ShapeQuery node.
fn build_segment(d: &Draft) -> Option<ShapeQuery> {
    if d.is_empty() {
        return None;
    }
    let pattern: Option<Pattern> = d.patterns.first().map(|p| match p {
        PatternWord::Up => Pattern::Up,
        PatternWord::Down => Pattern::Down,
        PatternWord::Flat => Pattern::Flat,
        PatternWord::Peak => Pattern::Nested(Box::new(ShapeQuery::concat(vec![
            ShapeQuery::up(),
            ShapeQuery::down(),
        ]))),
        PatternWord::Valley => Pattern::Nested(Box::new(ShapeQuery::concat(vec![
            ShapeQuery::down(),
            ShapeQuery::up(),
        ]))),
    });

    let modifier = match (d.count, d.modifier) {
        (Some((n, kind)), _) => Some(match kind {
            CountKind::Exact => Modifier::exactly(n),
            CountKind::AtLeast => Modifier::at_least(n),
            CountKind::AtMost => Modifier::at_most(n),
        }),
        (None, Some(ModifierWord::Sharp)) => Some(Modifier::MuchMore),
        (None, Some(ModifierWord::Gradual)) => Some(Modifier::More(None)),
        (None, Some(ModifierWord::Count(n))) => Some(Modifier::exactly(n)),
        (None, None) => None,
    };

    let mut seg = ShapeSegment {
        pattern,
        modifier,
        ..ShapeSegment::default()
    };
    seg.location.x_start = d.x_start;
    seg.location.x_end = d.x_end;
    seg.location.y_start = d.y_start;
    seg.location.y_end = d.y_end;
    if let Some(w) = d.width {
        seg.iterator = Some(shapesearch_core::IteratorSpec { width: w });
    }
    let q = ShapeQuery::Segment(seg);
    Some(if d.negated {
        ShapeQuery::Not(Box::new(q))
    } else {
        q
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ent(pairs: &[(&str, &str)]) -> Vec<Entity> {
        pairs
            .iter()
            .map(|&(t, l)| Entity {
                token: t.into(),
                label: l.into(),
            })
            .collect()
    }

    fn raw(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| (*w).to_owned()).collect()
    }

    #[test]
    fn simple_sequence() {
        let t = translate(
            &ent(&[
                ("rising", "PATTERN"),
                ("then", "CONCAT"),
                ("falling", "PATTERN"),
            ]),
            &raw(&["rising", "then", "falling"]),
        )
        .unwrap();
        assert_eq!(t.query.to_string(), "[p=up][p=down]");
        assert!(t.notes.is_empty());
    }

    #[test]
    fn modifier_attaches() {
        let t = translate(
            &ent(&[("rising", "PATTERN"), ("sharply", "MODIFIER")]),
            &raw(&["rising", "sharply"]),
        )
        .unwrap();
        assert_eq!(t.query.to_string(), "[p=up, m=>>]");
    }

    #[test]
    fn locations_and_width() {
        let t = translate(
            &ent(&[("rising", "PATTERN"), ("2", "XS"), ("5", "XE")]),
            &raw(&["rising", "from", "2", "to", "5"]),
        )
        .unwrap();
        assert_eq!(t.query.to_string(), "[x.s=2, x.e=5, p=up]");
        let t = translate(
            &ent(&[("rising", "PATTERN"), ("3", "WIDTH")]),
            &raw(&["rising", "over", "3", "months"]),
        )
        .unwrap();
        assert_eq!(t.query.to_string(), "[x.s=., x.e=.+3, p=up]");
    }

    #[test]
    fn non_finite_tokens_are_not_locations() {
        let t = translate(
            &ent(&[("rising", "PATTERN"), ("nan", "XS"), ("20", "XE")]),
            &raw(&["rising", "from", "nan", "to", "20"]),
        )
        .unwrap();
        assert_eq!(t.query.to_string(), "[x.e=20, p=up]");
        let t = translate(
            &ent(&[("up", "PATTERN"), ("inf", "WIDTH"), ("infinity", "YE")]),
            &raw(&["up", "over", "a", "width", "of", "inf", "to", "infinity"]),
        )
        .unwrap();
        assert_eq!(t.query.to_string(), "[p=up]");
    }

    #[test]
    fn counts_with_kinds() {
        let t = translate(
            &ent(&[("2", "COUNT"), ("peaks", "PATTERN")]),
            &raw(&["at", "least", "2", "peaks"]),
        )
        .unwrap();
        assert_eq!(t.query.to_string(), "[p=[[p=up][p=down]], m={2,}]");
        let t = translate(
            &ent(&[("2", "COUNT"), ("peaks", "PATTERN")]),
            &raw(&["2", "peaks"]),
        )
        .unwrap();
        assert_eq!(t.query.to_string(), "[p=[[p=up][p=down]], m=2]");
    }

    #[test]
    fn or_and_not() {
        let t = translate(
            &ent(&[("rising", "PATTERN"), ("or", "OR"), ("falling", "PATTERN")]),
            &raw(&["rising", "or", "falling"]),
        )
        .unwrap();
        assert_eq!(t.query.to_string(), "[p=up] | [p=down]");
        let t = translate(
            &ent(&[("not", "NOT"), ("flat", "PATTERN")]),
            &raw(&["not", "flat"]),
        )
        .unwrap();
        assert_eq!(t.query.to_string(), "![p=flat]");
    }

    #[test]
    fn rule1_multiple_patterns_move_to_empty_neighbour() {
        // [rising falling] [then sharply]: the second group has a modifier
        // but no pattern — rule 1 moves "falling" right, rule 2 is then
        // unnecessary.
        let t = translate(
            &ent(&[
                ("rising", "PATTERN"),
                ("falling", "PATTERN"),
                ("then", "CONCAT"),
                ("sharply", "MODIFIER"),
            ]),
            &raw(&["rising", "falling", "then", "sharply"]),
        )
        .unwrap();
        assert_eq!(t.query.to_string(), "[p=up][p=down, m=>>]");
        assert!(!t.notes.is_empty());
    }

    #[test]
    fn rule1_split_with_or_when_no_neighbour() {
        let t = translate(
            &ent(&[("rising", "PATTERN"), ("falling", "PATTERN")]),
            &raw(&["rising", "falling"]),
        )
        .unwrap();
        assert_eq!(t.query.to_string(), "[p=up] | [p=down]");
        assert!(t.notes.iter().any(|n| n.contains("OR")));
    }

    #[test]
    fn rule2_dangling_modifier_dropped_when_no_home() {
        let t = translate(&ent(&[("sharply", "MODIFIER")]), &raw(&["sharply"]));
        // A modifier alone yields no usable segment.
        assert!(t.is_none() || t.unwrap().query.segments().is_empty());
    }

    #[test]
    fn rule3_inverted_x_range() {
        // "decreasing from 8 to 0": inverted x with a down pattern → y.
        let t = translate(
            &ent(&[("decreasing", "PATTERN"), ("8", "XS"), ("0", "XE")]),
            &raw(&["decreasing", "from", "8", "to", "0"]),
        )
        .unwrap();
        assert_eq!(t.query.to_string(), "[y.s=8, y.e=0, p=down]");
        // Inverted x with an up pattern → swap instead.
        let t = translate(
            &ent(&[("rising", "PATTERN"), ("9", "XS"), ("4", "XE")]),
            &raw(&["rising", "from", "9", "to", "4"]),
        )
        .unwrap();
        assert_eq!(t.query.to_string(), "[x.s=4, x.e=9, p=up]");
    }

    #[test]
    fn rule3_conflicting_y_direction() {
        // "increasing from y=10 to y=5" (the paper's semantic ambiguity
        // example): y endpoints conflict with up → swap.
        let t = translate(
            &ent(&[("increasing", "PATTERN"), ("10", "YS"), ("5", "YE")]),
            &raw(&["increasing", "from", "y", "10", "to", "y", "5"]),
        )
        .unwrap();
        assert_eq!(t.query.to_string(), "[y.s=5, y.e=10, p=up]");
    }

    #[test]
    fn rule4_overlapping_concat() {
        // up [4,8] then down [8,0]: rule 3 first turns the inverted second
        // range into y values; rule 4 checks the survivors.
        let t = translate(
            &ent(&[
                ("increasing", "PATTERN"),
                ("4", "XS"),
                ("8", "XE"),
                ("then", "CONCAT"),
                ("decreasing", "PATTERN"),
                ("8", "XS"),
                ("0", "XE"),
            ]),
            &raw(&[
                "increasing",
                "from",
                "4",
                "to",
                "8",
                "then",
                "decreasing",
                "from",
                "8",
                "to",
                "0",
            ]),
        )
        .unwrap();
        let s = t.query.to_string();
        assert!(
            s.contains("y.s=8, y.e=0") || s.contains("&"),
            "expected rule-3/4 rewrite, got {s}"
        );
    }

    #[test]
    fn empty_entities_yield_none() {
        assert!(translate(&[], &raw(&[])).is_none());
    }
}
