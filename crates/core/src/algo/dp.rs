//! Optimal fuzzy segmentation by dynamic programming (paper §6.1).
//!
//! Theorem 6.1 (optimal substructure): the optimal segmentation score for k
//! ShapeExprs over points 1..n can be constructed from optimal segmentations
//! of sub-sequences over smaller regions, giving the recurrence
//!
//! `OPT(1, i, [1:j]) = maxₗ ⊗(OPT(1, l, [1:j−1]), sc(l, i, [j−1:j]))`
//!
//! implemented here as a table over (unit index, end point) with weighted
//! scores (CONCAT's average is carried by the per-unit weights, so `⊗`
//! reduces to addition). Runs in O(n²k) (Theorem 6.2).
//!
//! Location-pinned units (`x.s`/`x.e`), ITERATOR width windows, and the
//! paper's hybrid fuzzy/non-fuzzy queries are handled by constraining the
//! admissible start/end positions of each unit: pinned endpoints create
//! anchors (and may leave ignored gaps, §5.4c); fuzzy neighbours share
//! endpoints ("the falling sub-region must start from the end point of the
//! region where rising is matched", §3).

use super::{best_over_chains, MatchResult, Segmenter};
use crate::chain::{Chain, Unit};
use crate::eval::{chain_score_with_positions, Evaluator, SlopeLeaf};

/// The optimal DP segmenter.
#[derive(Debug, Clone, Copy, Default)]
pub struct DpSegmenter;

impl Segmenter for DpSegmenter {
    fn match_viz(&self, ev: &Evaluator<'_>, chains: &[Chain]) -> MatchResult {
        best_over_chains(chains, |chain| solve_chain(ev, chain, 0, ev.viz.n() - 1))
    }
}

/// Admissible placement of one unit, derived from its pins/width.
#[derive(Debug, Clone, Copy)]
enum Placement {
    /// Pinned start and/or end (point indices), possibly leaving gaps.
    /// An unpinned start attaches to the previous end; an unpinned end
    /// ranges freely, or ends the run on the last unit. A fuzzy unit
    /// pins neither.
    Pinned {
        start: Option<usize>,
        end: Option<usize>,
    },
    /// Sliding window of a fixed number of point steps (ITERATOR).
    Window(usize),
}

fn placement(ev: &Evaluator<'_>, unit: &Unit) -> Placement {
    if let Some(w) = unit.width {
        return Placement::Window(ev.viz.width_to_points(w));
    }
    Placement::Pinned {
        start: unit.pin_start.map(|x| ev.viz.x_to_index(x)),
        end: unit.pin_end.map(|x| ev.viz.x_to_index(x)),
    }
}

/// DP over (unit, end-point) states. `run_lo`/`run_hi` bound the point range
/// the chain may occupy; the first fuzzy unit starts at `run_lo` and the
/// last fuzzy unit must end at `run_hi`. A nested CONCAT pattern segments
/// its assigned range through this too.
#[allow(clippy::needless_range_loop)] // indices cross multiple DP tables
pub(crate) fn solve_chain(
    ev: &Evaluator<'_>,
    chain: &Chain,
    run_lo: usize,
    run_hi: usize,
) -> MatchResult {
    let k = chain.len();
    if k == 0 || run_hi <= run_lo {
        return MatchResult::infeasible();
    }

    // best[e] for the current unit layer; parent[t][e] = (prev_end, start).
    const NEG: f64 = f64::NEG_INFINITY;
    let width = run_hi + 2; // index by end point directly
    let mut prev_layer: Vec<f64> = vec![NEG; width];
    let mut parent: Vec<Vec<(u32, u32)>> = vec![vec![(u32::MAX, u32::MAX); width]; k];

    // Virtual "unit -1" ends at run_lo with score 0.
    prev_layer[run_lo] = 0.0;

    // Slope-leaf units run the O(n²) inner loops through the batched
    // window kernel instead of per-window `eval_node` calls.
    let mut run_scores: Vec<f64> = Vec::new();

    for (t, unit) in chain.units.iter().enumerate() {
        let mut layer: Vec<f64> = vec![NEG; width];
        let place = placement(ev, unit);
        let last = t + 1 == k;
        for pe in run_lo..=run_hi {
            let base = prev_layer[pe];
            if base == NEG {
                continue;
            }
            let parent_t = &mut parent[t];
            let try_range =
                |layer: &mut Vec<f64>, parent_t: &mut Vec<(u32, u32)>, s: usize, e: usize| {
                    if e <= s || e > run_hi {
                        return;
                    }
                    let sc = base + unit.weight * ev.eval_unit(unit.leaf, &unit.query, s, e);
                    if sc > layer[e] {
                        layer[e] = sc;
                        parent_t[e] = (pe as u32, s as u32);
                    }
                };
            // A leaf unit's whole candidate run `[s, s+1..=run_hi]` in
            // one batched kernel pass; identical admission logic.
            let try_run = |layer: &mut Vec<f64>,
                           parent_t: &mut Vec<(u32, u32)>,
                           run_scores: &mut Vec<f64>,
                           l: SlopeLeaf,
                           s: usize| {
                ev.eval_leaf_run(l, s, s + 1, run_hi, run_scores);
                for (off, &leaf_score) in run_scores.iter().enumerate() {
                    let e = s + 1 + off;
                    let sc = base + unit.weight * leaf_score;
                    if sc > layer[e] {
                        layer[e] = sc;
                        parent_t[e] = (pe as u32, s as u32);
                    }
                }
            };
            match place {
                Placement::Window(w) => {
                    // Sliding window: any start at or after the previous end.
                    for s in pe..run_hi {
                        // Saturating: a width wider than any trendline
                        // reads as `usize::MAX` points.
                        let e = s.saturating_add(w);
                        if e > run_hi {
                            break;
                        }
                        try_range(&mut layer, parent_t, s, e);
                    }
                }
                Placement::Pinned { start, end } => {
                    // A pinned start anchors the unit (possibly leaving an
                    // ignored gap after `pe`); an unpinned start attaches to
                    // the previous end.
                    let s = match start {
                        Some(s) if s >= pe && s < run_hi => s,
                        Some(_) => continue, // anchor conflicts with history
                        None => pe,
                    };
                    match end {
                        Some(e) => try_range(&mut layer, parent_t, s, e),
                        None if last => try_range(&mut layer, parent_t, s, run_hi),
                        None => match unit.leaf {
                            Some(l) => try_run(&mut layer, parent_t, &mut run_scores, l, s),
                            None => {
                                for e in (s + 1)..=run_hi {
                                    try_range(&mut layer, parent_t, s, e);
                                }
                            }
                        },
                    }
                }
            }
        }
        prev_layer = layer;
    }

    // Pick the best final end state.
    let mut best_e = usize::MAX;
    let mut best = NEG;
    for e in run_lo..=run_hi {
        if prev_layer[e] > best {
            best = prev_layer[e];
            best_e = e;
        }
    }
    if best_e == usize::MAX {
        return MatchResult::infeasible();
    }

    // Reconstruct ranges.
    let mut ranges = vec![(0usize, 0usize); k];
    let mut e = best_e;
    for t in (0..k).rev() {
        let (pe, s) = parent[t][e];
        ranges[t] = (s as usize, e);
        e = pe as usize;
    }

    let score = if chain.has_position_refs() {
        chain_score_with_positions(ev, chain, &ranges)
    } else {
        best
    };
    MatchResult { score, ranges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Pattern, ShapeQuery, ShapeSegment};
    use crate::chain::expand_chains;
    use crate::engine::group::VizData;
    use crate::eval::UdpRegistry;
    use crate::score::ScoreParams;
    use shapesearch_datastore::Trendline;

    fn viz(pairs: &[(f64, f64)]) -> VizData {
        VizData::from_trendline(&Trendline::from_pairs("t", pairs), 0, 1).unwrap()
    }

    fn run(q: &ShapeQuery, v: &VizData) -> MatchResult {
        let params = ScoreParams::default();
        let udps = UdpRegistry::new();
        let ev = Evaluator::new(v, &params, &udps);
        DpSegmenter.match_viz(&ev, &expand_chains(q))
    }

    #[test]
    fn up_down_finds_the_peak_break() {
        let v = viz(&[
            (0.0, 0.0),
            (1.0, 2.0),
            (2.0, 4.0),
            (3.0, 6.0),
            (4.0, 4.5),
            (5.0, 3.0),
            (6.0, 1.0),
        ]);
        let q = ShapeQuery::concat(vec![ShapeQuery::up(), ShapeQuery::down()]);
        let r = run(&q, &v);
        assert!(r.score > 0.6, "score {}", r.score);
        assert_eq!(r.ranges.len(), 2);
        // Break at the peak (index 3).
        assert_eq!(r.ranges[0], (0, 3));
        assert_eq!(r.ranges[1], (3, 6));
    }

    #[test]
    fn segmentation_tiles_whole_viz_for_fuzzy() {
        let v = viz(&[
            (0.0, 0.0),
            (1.0, 1.0),
            (2.0, 0.5),
            (3.0, 1.5),
            (4.0, 1.0),
            (5.0, 2.0),
        ]);
        let q = ShapeQuery::concat(vec![ShapeQuery::up(), ShapeQuery::down(), ShapeQuery::up()]);
        let r = run(&q, &v);
        assert_eq!(r.ranges.first().unwrap().0, 0);
        assert_eq!(r.ranges.last().unwrap().1, 5);
        // Units share endpoints.
        for w in r.ranges.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
    }

    #[test]
    fn infeasible_when_more_units_than_intervals() {
        let v = viz(&[(0.0, 0.0), (1.0, 1.0)]);
        let q = ShapeQuery::concat(vec![ShapeQuery::up(), ShapeQuery::down(), ShapeQuery::up()]);
        let r = run(&q, &v);
        assert_eq!(r.score, -1.0);
        assert!(r.ranges.is_empty());
    }

    #[test]
    fn pinned_unit_is_anchored() {
        let v = viz(&[
            (0.0, 5.0),
            (10.0, 4.0),
            (20.0, 3.0),
            (30.0, 4.5),
            (40.0, 6.0),
            (50.0, 5.0),
            (60.0, 4.0),
        ]);
        // down pinned to x ∈ [0, 20], then up, then down.
        let q = ShapeQuery::concat(vec![
            ShapeQuery::Segment(ShapeSegment::pinned(Pattern::Down, 0.0, 20.0)),
            ShapeQuery::up(),
            ShapeQuery::down(),
        ]);
        let r = run(&q, &v);
        assert!(r.score > 0.4, "score {}", r.score);
        assert_eq!(r.ranges[0], (0, 2));
        // Fuzzy tail starts at the anchor end and tiles to the end.
        assert_eq!(r.ranges[1].0, 2);
        assert_eq!(r.ranges[2].1, 6);
    }

    #[test]
    fn pinned_with_gap_ignores_middle() {
        let v = viz(&[
            (0.0, 0.0),
            (1.0, 2.0),
            (2.0, 1.0),
            (3.0, 0.5),
            (4.0, 1.5),
            (5.0, 3.0),
        ]);
        // up pinned [0,1], then up pinned [4,5]: the dip in between is
        // ignored, both anchors rise.
        let q = ShapeQuery::concat(vec![
            ShapeQuery::Segment(ShapeSegment::pinned(Pattern::Up, 0.0, 1.0)),
            ShapeQuery::Segment(ShapeSegment::pinned(Pattern::Up, 4.0, 5.0)),
        ]);
        let r = run(&q, &v);
        assert!(r.score > 0.6, "score {}", r.score);
        assert_eq!(r.ranges, vec![(0, 1), (4, 5)]);
    }

    #[test]
    fn window_unit_slides_to_best_position() {
        // Sharp rise in the middle; window of width 2 x-units must find it.
        let v = viz(&[
            (0.0, 1.0),
            (1.0, 1.1),
            (2.0, 1.0),
            (3.0, 5.0),
            (4.0, 9.0),
            (5.0, 9.1),
            (6.0, 9.0),
        ]);
        let q = ShapeQuery::Segment(ShapeSegment::pattern(Pattern::Up).with_width(2.0));
        let r = run(&q, &v);
        assert_eq!(r.ranges, vec![(2, 4)]);
        assert!(r.score > 0.7, "score {}", r.score);
    }

    #[test]
    fn a_window_wider_than_the_trendline_places_nothing() {
        // `[p=up][x.s=., x.e=.+w, p=down]`: no width past the canvas fits,
        // and one past `usize::MAX` points must not overflow the second
        // unit's start + width. The tree and the greedy hand a width unit
        // to this DP.
        use crate::algo::{greedy::GreedySegmenter, segment_tree::SegmentTreeSegmenter};
        let v = viz(&[(0.0, 0.0), (1.0, 2.0), (2.0, 4.0), (3.0, 2.0), (4.0, 0.0)]);
        let params = ScoreParams::default();
        let udps = UdpRegistry::new();
        let ev = Evaluator::new(&v, &params, &udps);
        let chains = |width: f64| {
            expand_chains(&ShapeQuery::concat(vec![
                ShapeQuery::up(),
                ShapeQuery::Segment(ShapeSegment::pattern(Pattern::Down).with_width(width)),
            ]))
        };
        let segmenters: [&dyn Segmenter; 3] = [
            &DpSegmenter,
            &SegmentTreeSegmenter::default(),
            &GreedySegmenter::new(),
        ];
        for segmenter in segmenters {
            let wide = segmenter.match_viz(&ev, &chains(1e3));
            assert!(wide.ranges.is_empty(), "{:?}", wide.ranges);
            let huge = segmenter.match_viz(&ev, &chains(1e30));
            assert_eq!(huge.score.to_bits(), wide.score.to_bits());
            assert_eq!(huge.ranges, wide.ranges);
        }
    }

    #[test]
    fn nested_range_segmentation() {
        let v = viz(&[(0.0, 0.0), (1.0, 2.0), (2.0, 4.0), (3.0, 2.0), (4.0, 0.0)]);
        let params = ScoreParams::default();
        let udps = UdpRegistry::new();
        let ev = Evaluator::new(&v, &params, &udps);
        let q = ShapeQuery::concat(vec![ShapeQuery::up(), ShapeQuery::down()]);
        let chains = expand_chains(&q);
        let MatchResult { score, ranges } = solve_chain(&ev, &chains[0], 0, 4);
        // A clean 45°-per-flank peak scores ≈ 0.7 (atan scoring: 45° → 0.5,
        // the canvas doubles the slope of each half).
        assert!(score > 0.6, "score {score}");
        assert_eq!(ranges, vec![(0, 2), (2, 4)]);
        // Sub-range segmentation respects bounds.
        let MatchResult {
            score: sub_score,
            ranges: sub_ranges,
        } = solve_chain(&ev, &chains[0], 1, 3);
        assert!(sub_score > 0.0);
        assert_eq!(sub_ranges, vec![(1, 2), (2, 3)]);
    }

    #[test]
    fn or_chain_picks_better_alternative() {
        let v = viz(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]);
        let q = ShapeQuery::Or(vec![ShapeQuery::down(), ShapeQuery::up()]);
        let r = run(&q, &v);
        assert!(r.score > 0.4);
        assert_eq!(r.ranges, vec![(0, 3)]);
    }

    #[test]
    fn dp_is_at_least_as_good_as_any_manual_split() {
        let v = viz(&[
            (0.0, 0.3),
            (1.0, 1.2),
            (2.0, 0.8),
            (3.0, 2.0),
            (4.0, 1.1),
            (5.0, 0.2),
        ]);
        let q = ShapeQuery::concat(vec![ShapeQuery::up(), ShapeQuery::down()]);
        let params = ScoreParams::default();
        let udps = UdpRegistry::new();
        let ev = Evaluator::new(&v, &params, &udps);
        let chains = expand_chains(&q);
        let r = DpSegmenter.match_viz(&ev, &chains);
        // Exhaustively check every split point.
        for b in 1..5 {
            let manual = 0.5 * ev.eval_node(&ShapeQuery::up(), 0, b, None)
                + 0.5 * ev.eval_node(&ShapeQuery::down(), b, 5, None);
            assert!(
                r.score >= manual - 1e-9,
                "DP {} worse than manual split at {b}: {manual}",
                r.score
            );
        }
    }
}
