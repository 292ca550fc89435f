//! Push-down optimizations (paper §5.4): exploiting LOCATION primitives to
//! prune visualizations (or parts of them) early in the pipeline.
//!
//! * **(a) LOCATION → EXTRACT**: visualizations without any value in the
//!   query's pinned x ranges are pruned before SEGMENT — see
//!   [`covers_ranges`]. The paper prunes them in EXTRACT; here EXTRACT
//!   runs once per registration, before any query, so the filter runs
//!   per query on the raw x rows EXTRACT produced.
//! * **(b) Eager discard in SEGMENT**: segments with both endpoints pinned
//!   and an up/down pattern are scored first; a negative score discards the
//!   visualization before any fuzzy segmentation is attempted — see
//!   [`eager_discard`].
//! * **(c) Stat skipping in GROUP**: subsumed. The paper computes
//!   summarized statistics only over the referenced x ranges because its
//!   GROUP runs per query; this engine GROUPs a collection once per bin
//!   width for its lifetime, so statistics are computed zero times per
//!   query and there is nothing left to skip (see
//!   [`crate::engine::group`]). The `pushdown` option therefore only
//!   filters (a) and discards (b) candidates; it never changes the canvas
//!   a surviving candidate is scored on, nor its `ranges`.

use crate::ast::Pattern;
use crate::chain::Chain;
use crate::eval::Evaluator;
use crate::ShapeQuery;

/// True when a trendline with raw x values `xs` has at least one point in
/// every required range (push-down (a): "prune visualizations that do not
/// have any value in the specified x ranges").
///
/// `xs` is ascending, so the first value at or past `lo` decides each
/// range: O(log n) per range. The verdict depends on `xs` alone, so the
/// engine takes it once for each x grid of a collection
/// (`VizData`'s `grid`), not once per trendline.
pub fn covers_ranges(xs: &[f64], ranges: &[(f64, f64)]) -> bool {
    ranges.iter().all(|&(lo, hi)| {
        let first = xs.partition_point(|&x| x < lo);
        xs.get(first).is_some_and(|&x| x <= hi)
    })
}

/// Push-down (b): returns `true` when the visualization can be discarded
/// because, in every alternative chain, some fully pinned up/down unit
/// scores negatively over its anchored range ("eagerly checks and discards
/// visualizations with negative scores in these regions").
pub fn eager_discard(ev: &Evaluator<'_>, chains: &[Chain]) -> bool {
    if chains.is_empty() {
        return false;
    }
    chains.iter().all(|chain| {
        chain.units.iter().any(|u| {
            let (Some(xs), Some(xe)) = (u.pin_start, u.pin_end) else {
                return false;
            };
            let is_directional = matches!(
                &u.query,
                ShapeQuery::Segment(s) if matches!(s.pattern, Some(Pattern::Up) | Some(Pattern::Down))
            );
            if !is_directional {
                return false;
            }
            let i = ev.viz.x_to_index(xs);
            let j = ev.viz.x_to_index(xe);
            j > i && ev.eval_node(&u.query, i, j, None) < 0.0
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ShapeSegment;
    use crate::chain::expand_chains;
    use crate::engine::group::VizData;
    use crate::eval::UdpRegistry;
    use crate::score::ScoreParams;
    use shapesearch_datastore::Trendline;

    #[test]
    fn covers_ranges_checks_every_range() {
        let xs = [0.0, 5.0, 10.0];
        assert!(covers_ranges(&xs, &[(0.0, 2.0), (9.0, 11.0)]));
        assert!(!covers_ranges(&xs, &[(6.0, 8.0)]));
        assert!(covers_ranges(&xs, &[]));
        // A range past the last point, and one before the first.
        assert!(!covers_ranges(&xs, &[(0.0, 2.0), (10.5, 20.0)]));
        assert!(!covers_ranges(&xs, &[(-5.0, -1.0)]));
        // Inclusive at both ends.
        assert!(covers_ranges(&xs, &[(10.0, 10.0)]));
        assert!(!covers_ranges(&[], &[(0.0, 1.0)]));
        assert!(covers_ranges(&[], &[]));
        // One point covers exactly the ranges that contain it.
        assert!(covers_ranges(&[4.0], &[(4.0, 4.0), (3.0, 9.0)]));
        assert!(!covers_ranges(&[4.0], &[(3.0, 9.0), (4.5, 9.0)]));
    }

    #[test]
    fn eager_discard_on_wrong_direction() {
        let falling = Trendline::from_pairs(
            "f",
            &[(0.0, 9.0), (1.0, 7.0), (2.0, 5.0), (3.0, 3.0), (4.0, 1.0)],
        );
        let v = VizData::from_trendline(&falling, 0, 1).unwrap();
        let params = ScoreParams::default();
        let udps = UdpRegistry::new();
        let ev = Evaluator::new(&v, &params, &udps);
        // Query wants a rise pinned over [0, 2].
        let q = ShapeQuery::concat(vec![
            ShapeQuery::Segment(ShapeSegment::pinned(Pattern::Up, 0.0, 2.0)),
            ShapeQuery::down(),
        ]);
        assert!(eager_discard(&ev, &expand_chains(&q)));
        // A matching rise is not discarded.
        let q2 = ShapeQuery::concat(vec![
            ShapeQuery::Segment(ShapeSegment::pinned(Pattern::Down, 0.0, 2.0)),
            ShapeQuery::down(),
        ]);
        assert!(!eager_discard(&ev, &expand_chains(&q2)));
    }

    #[test]
    fn fuzzy_units_never_trigger_discard() {
        let falling = Trendline::from_pairs("f", &[(0.0, 9.0), (1.0, 7.0), (2.0, 5.0)]);
        let v = VizData::from_trendline(&falling, 0, 1).unwrap();
        let params = ScoreParams::default();
        let udps = UdpRegistry::new();
        let ev = Evaluator::new(&v, &params, &udps);
        let q = ShapeQuery::up(); // fuzzy: scored normally, never eagerly discarded
        assert!(!eager_discard(&ev, &expand_chains(&q)));
    }
}
