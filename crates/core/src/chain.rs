//! Chain expansion: rewriting a ShapeQuery into weighted CONCAT chains.
//!
//! The segmentation algorithms (§6) operate on a *sequence* of ShapeExprs
//! separated by CONCAT operators. Nested OR operators are distributed into
//! alternative chains — sound because `max` (OR) commutes with the monotone
//! weighted average used by CONCAT:
//! `avg(a, max(b, c)) = max(avg(a, b), avg(a, c))`.
//!
//! Nested CONCATs contribute *weights*: in `a ⊗ (c ⊗ d)` the inner pair
//! shares the second half, so the chain is `[a:½, c:¼, d:¼]` and the total
//! score is the weighted sum — exactly the algebra's nested-average
//! semantics. AND / OPPOSITE / nested-pattern segments stay opaque units
//! evaluated over a single sub-region (per §3: AND and OR "match ... the
//! same sub-region of the visualization").

use crate::ast::{Modifier, Pattern, PosRef, ShapeQuery, ShapeSegment};
use crate::eval::{slope_leaf, SlopeLeaf};

/// One unit of a chain: an atomic sub-query assigned a single VisualSegment,
/// its weight in the final score, and its location constraints.
#[derive(Debug, Clone, PartialEq)]
pub struct Unit {
    /// The sub-query scored over this unit's VisualSegment.
    pub query: ShapeQuery,
    /// Weight of this unit's score in the chain total (weights sum to 1).
    pub weight: f64,
    /// Pinned raw start x, when the unit's segment carries `x.s`.
    pub pin_start: Option<f64>,
    /// Pinned raw end x, when the unit's segment carries `x.e`.
    pub pin_end: Option<f64>,
    /// Fixed window width in raw x units (ITERATOR sub-primitive).
    pub width: Option<f64>,
    /// The unit's Table-5 row when its score is a pure function of its
    /// window's fitted slope (see [`slope_leaf`]): classified once here,
    /// so no segmenter re-derives it per trendline.
    pub leaf: Option<SlopeLeaf>,
}

impl Unit {
    fn from_query(query: ShapeQuery, weight: f64) -> Self {
        let (pin_start, pin_end, width) = match &query {
            ShapeQuery::Segment(s) => (
                s.location.x_start,
                s.location.x_end,
                s.iterator.map(|it| it.width),
            ),
            _ => (None, None, None),
        };
        Self {
            leaf: slope_leaf(&query),
            query,
            weight,
            pin_start,
            pin_end,
            width,
        }
    }

    /// True when neither endpoint is pinned and no width constraint applies.
    pub fn is_fuzzy(&self) -> bool {
        self.pin_start.is_none() && self.pin_end.is_none() && self.width.is_none()
    }

    /// True when both endpoints are pinned and no width constraint applies:
    /// the unit's window is fixed before any segmentation.
    pub fn fully_pinned(&self) -> bool {
        self.pin_start.is_some() && self.pin_end.is_some() && self.width.is_none()
    }

    /// True when the unit's pattern is a POSITION (`$`) reference.
    pub fn is_position_ref(&self) -> bool {
        matches!(
            &self.query,
            ShapeQuery::Segment(ShapeSegment {
                pattern: Some(Pattern::Position(_)),
                ..
            })
        )
    }

    /// The position reference and comparison modifier, if this is a `$` unit.
    pub fn position_ref(&self) -> Option<(PosRef, Option<Modifier>)> {
        match &self.query {
            ShapeQuery::Segment(ShapeSegment {
                pattern: Some(Pattern::Position(r)),
                modifier,
                ..
            }) => Some((*r, *modifier)),
            _ => None,
        }
    }
}

/// A weighted CONCAT chain — one OR-free alternative of the query.
#[derive(Debug, Clone, PartialEq)]
pub struct Chain {
    /// The units, in sequence order.
    pub units: Vec<Unit>,
}

impl Chain {
    /// Number of units (the `k` in the paper's complexity analyses).
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// True when the chain has no units.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// True when every unit is fuzzy (a fully fuzzy chain — the SegmentTree
    /// fast path applies).
    pub fn is_fully_fuzzy(&self) -> bool {
        self.units.iter().all(Unit::is_fuzzy)
    }

    /// True when any unit is a POSITION reference (requires re-scoring after
    /// segmentation).
    pub fn has_position_refs(&self) -> bool {
        self.units.iter().any(Unit::is_position_ref)
    }
}

/// The most alternatives [`expand_chains`] spells out; beyond it, the
/// remaining ORs stay opaque units.
const MAX_CHAINS: usize = 64;

/// The most units an expanded chain may have. Segmentation time grows
/// steeply with chain width, so a wider query is refused before GROUP
/// rather than allowed to hold every compute thread; 16 is more than twice
/// the widest query the paper evaluates (Fig. 13b).
pub const MAX_CHAIN_UNITS: usize = 16;

/// Expands a query into its weighted alternative chains.
///
/// The number of alternatives is the product of OR fan-outs; queries are
/// small in practice (the paper's largest has one OR), but a cap prevents
/// pathological blow-up — beyond it, remaining ORs stay opaque units.
pub fn expand_chains(query: &ShapeQuery) -> Vec<Chain> {
    let raw = expand(query, 1.0, MAX_CHAINS);
    raw.into_iter().map(|units| Chain { units }).collect()
}

fn expand(query: &ShapeQuery, weight: f64, cap: usize) -> Vec<Vec<Unit>> {
    match query {
        ShapeQuery::Segment(_) | ShapeQuery::And(_) | ShapeQuery::Not(_) => {
            vec![vec![Unit::from_query(query.clone(), weight)]]
        }
        ShapeQuery::Or(alts) => {
            let mut out = Vec::new();
            for alt in alts {
                out.extend(expand(alt, weight, cap));
                if out.len() > cap {
                    // Too many alternatives: fall back to an opaque unit.
                    return vec![vec![Unit::from_query(query.clone(), weight)]];
                }
            }
            out
        }
        ShapeQuery::Concat(parts) => {
            let child_weight = weight / parts.len() as f64;
            // Cartesian product of per-part alternatives.
            let mut acc: Vec<Vec<Unit>> = vec![Vec::new()];
            for part in parts {
                let alts = expand(part, child_weight, cap);
                let mut next = Vec::with_capacity(acc.len() * alts.len());
                for prefix in &acc {
                    for alt in &alts {
                        if next.len() > cap {
                            // Blow-up: fall back to one chain with each
                            // child as an opaque unit (evaluating a child
                            // never re-expands this same Concat, so this
                            // cannot recurse).
                            return vec![parts
                                .iter()
                                .map(|p| Unit::from_query(p.clone(), child_weight))
                                .collect()];
                        }
                        let mut chain = prefix.clone();
                        chain.extend(alt.iter().cloned());
                        next.push(chain);
                    }
                }
                acc = next;
            }
            acc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Pattern, ShapeSegment};

    fn up() -> ShapeQuery {
        ShapeQuery::up()
    }
    fn down() -> ShapeQuery {
        ShapeQuery::down()
    }
    fn flat() -> ShapeQuery {
        ShapeQuery::flat()
    }

    #[test]
    fn simple_chain_weights_are_uniform() {
        let q = ShapeQuery::concat(vec![up(), down(), up()]);
        let chains = expand_chains(&q);
        assert_eq!(chains.len(), 1);
        let c = &chains[0];
        assert_eq!(c.len(), 3);
        for u in &c.units {
            assert!((u.weight - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn single_segment_is_one_unit_chain() {
        let chains = expand_chains(&up());
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].len(), 1);
        assert_eq!(chains[0].units[0].weight, 1.0);
    }

    #[test]
    fn or_distributes_into_alternatives() {
        // up ⊗ (flat ⊕ (down ⊗ up)) — the paper's grouping example.
        let q = ShapeQuery::concat(vec![
            up(),
            ShapeQuery::Or(vec![flat(), ShapeQuery::concat(vec![down(), up()])]),
        ]);
        let chains = expand_chains(&q);
        assert_eq!(chains.len(), 2);
        // Alternative 1: [up:1/2, flat:1/2].
        assert_eq!(chains[0].len(), 2);
        assert!((chains[0].units[1].weight - 0.5).abs() < 1e-12);
        // Alternative 2: [up:1/2, down:1/4, up:1/4].
        assert_eq!(chains[1].len(), 3);
        assert!((chains[1].units[1].weight - 0.25).abs() < 1e-12);
        assert!((chains[1].units[2].weight - 0.25).abs() < 1e-12);
        for c in &chains {
            let total: f64 = c.units.iter().map(|u| u.weight).sum();
            assert!((total - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn nested_concat_weights_multiply() {
        // a ⊗ (c ⊗ d): [a:1/2, c:1/4, d:1/4].
        let q = ShapeQuery::Concat(vec![up(), ShapeQuery::Concat(vec![down(), flat()])]);
        let chains = expand_chains(&q);
        assert_eq!(chains.len(), 1);
        let w: Vec<f64> = chains[0].units.iter().map(|u| u.weight).collect();
        assert!((w[0] - 0.5).abs() < 1e-12);
        assert!((w[1] - 0.25).abs() < 1e-12);
        assert!((w[2] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn and_stays_opaque() {
        let q = ShapeQuery::concat(vec![ShapeQuery::And(vec![up(), flat()]), down()]);
        let chains = expand_chains(&q);
        assert_eq!(chains.len(), 1);
        assert!(matches!(chains[0].units[0].query, ShapeQuery::And(_)));
    }

    #[test]
    fn pins_are_lifted_from_segments() {
        let q = ShapeQuery::concat(vec![
            ShapeQuery::Segment(ShapeSegment::pinned(Pattern::Up, 50.0, 100.0)),
            down(),
        ]);
        let chains = expand_chains(&q);
        let u = &chains[0].units[0];
        assert_eq!(u.pin_start, Some(50.0));
        assert_eq!(u.pin_end, Some(100.0));
        assert!(!u.is_fuzzy());
        assert!(chains[0].units[1].is_fuzzy());
        assert!(!chains[0].is_fully_fuzzy());
    }

    #[test]
    fn units_carry_their_row_and_pin_kind() {
        let q = ShapeQuery::concat(vec![
            up(),
            ShapeQuery::pattern(Pattern::Slope(30.0)),
            ShapeQuery::Segment(
                ShapeSegment::pattern(Pattern::Up).with_modifier(Modifier::MuchMore),
            ),
            ShapeQuery::Segment(ShapeSegment::pinned(Pattern::Flat, 0.0, 1.0)),
            ShapeQuery::Segment(ShapeSegment::pinned(Pattern::Flat, 0.0, 1.0).with_width(2.0)),
            ShapeQuery::And(vec![up(), flat()]),
        ]);
        let units = &expand_chains(&q)[0].units;
        let leaves: Vec<_> = units.iter().map(|u| u.leaf).collect();
        assert_eq!(
            leaves,
            [Some(SlopeLeaf::Up), Some(SlopeLeaf::theta(30.0))]
                .into_iter()
                .chain([None; 4])
                .collect::<Vec<_>>()
        );
        let pinned: Vec<bool> = units.iter().map(Unit::fully_pinned).collect();
        assert_eq!(pinned, [false, false, false, true, false, false]);
    }

    #[test]
    fn width_units_detected() {
        let q = ShapeQuery::Segment(ShapeSegment::pattern(Pattern::Up).with_width(3.0));
        let chains = expand_chains(&q);
        assert_eq!(chains[0].units[0].width, Some(3.0));
        assert!(!chains[0].units[0].is_fuzzy());
    }

    #[test]
    fn position_refs_detected() {
        let q = ShapeQuery::concat(vec![
            up(),
            ShapeQuery::Segment(
                ShapeSegment::pattern(Pattern::Position(PosRef::Absolute(0)))
                    .with_modifier(Modifier::Less(None)),
            ),
        ]);
        let chains = expand_chains(&q);
        assert!(chains[0].has_position_refs());
        let (r, m) = chains[0].units[1].position_ref().unwrap();
        assert_eq!(r, PosRef::Absolute(0));
        assert_eq!(m, Some(Modifier::Less(None)));
    }

    #[test]
    fn excessive_or_fanout_falls_back_to_opaque_children() {
        // 4 ORs of 4 alternatives each = 256 > 64 cap: one chain remains,
        // with each OR kept as an opaque unit (NOT the whole concat — that
        // would recurse when evaluated).
        let or4 = ShapeQuery::Or(vec![
            up(),
            down(),
            flat(),
            ShapeQuery::pattern(Pattern::Any),
        ]);
        let q = ShapeQuery::concat(vec![or4.clone(), or4.clone(), or4.clone(), or4.clone()]);
        let chains = expand_chains(&q);
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].len(), 4);
        for u in &chains[0].units {
            assert_eq!(u.query, or4);
            assert!((u.weight - 0.25).abs() < 1e-12);
        }
    }
}
