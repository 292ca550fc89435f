//! Greedy segmentation baseline (paper §9, algorithm (v)): "start with
//! equal-sized VisualSegments, and incrementally extend or shrink (by half)
//! the lengths of VisualSegments, until there is no improvement in the
//! overall score". Fast but prone to local optima — the paper measures < 30%
//! accuracy versus the optimal DP.

use super::{best_over_chains, MatchResult, Segmenter};
use crate::chain::Chain;
use crate::eval::{chain_score_with_positions, Evaluator};

/// The greedy local-search segmenter.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedySegmenter {
    /// Safety cap on improvement rounds.
    pub max_rounds: usize,
}

impl GreedySegmenter {
    /// Default configuration (64 rounds — convergence is usually ≤ 10).
    pub fn new() -> Self {
        Self { max_rounds: 64 }
    }
}

impl Segmenter for GreedySegmenter {
    fn match_viz(&self, ev: &Evaluator<'_>, chains: &[Chain]) -> MatchResult {
        best_over_chains(chains, |chain| {
            if !chain.is_fully_fuzzy() {
                // Pins/windows anchor the search space; the DP handles them
                // exactly and cheaply relative to unconstrained search.
                return super::dp::solve_chain(ev, chain, 0, ev.viz.n() - 1);
            }
            solve_greedy(ev, chain, self.max_rounds.max(1))
        })
    }
}

fn solve_greedy(ev: &Evaluator<'_>, chain: &Chain, max_rounds: usize) -> MatchResult {
    let k = chain.len();
    let n = ev.viz.n();
    if k == 0 || n < 2 || n - 1 < k {
        return MatchResult::infeasible();
    }
    // Equal-sized initial segmentation: breaks[0] = 0, breaks[k] = n-1.
    let mut breaks: Vec<usize> = (0..=k)
        .map(|t| ((t as f64 / k as f64) * (n - 1) as f64).round() as usize)
        .collect();
    // Guarantee strictly increasing breaks.
    for t in 1..=k {
        breaks[t] = breaks[t].max(breaks[t - 1] + 1).min(n - 1 - (k - t));
    }

    let score_of = |breaks: &[usize]| -> f64 {
        let mut total = 0.0;
        for (t, u) in chain.units.iter().enumerate() {
            total += u.weight * ev.eval_unit(u.leaf, &u.query, breaks[t], breaks[t + 1]);
        }
        total
    };

    let mut best = score_of(&breaks);
    for _ in 0..max_rounds {
        let mut improved = false;
        for b in 1..k {
            let lo = breaks[b - 1];
            let hi = breaks[b + 1];
            let cur = breaks[b];
            // Shrink-left / extend-right candidates: midpoints of the
            // neighbouring segments.
            for cand in [lo + (cur - lo) / 2, cur + (hi - cur) / 2] {
                if cand == cur || cand <= lo || cand >= hi {
                    continue;
                }
                let saved = breaks[b];
                breaks[b] = cand;
                let s = score_of(&breaks);
                if s > best + 1e-12 {
                    best = s;
                    improved = true;
                } else {
                    breaks[b] = saved;
                }
            }
        }
        if !improved {
            break;
        }
    }

    let ranges: Vec<(usize, usize)> = (0..k).map(|t| (breaks[t], breaks[t + 1])).collect();
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
    use crate::algo::dp::DpSegmenter;
    use crate::ast::ShapeQuery;
    use crate::chain::expand_chains;
    use crate::engine::group::VizData;
    use crate::eval::UdpRegistry;
    use crate::score::ScoreParams;
    use shapesearch_datastore::Trendline;

    fn viz(pairs: &[(f64, f64)]) -> VizData {
        VizData::from_trendline(&Trendline::from_pairs("t", pairs), 0, 1).unwrap()
    }

    fn run(q: &ShapeQuery, v: &VizData) -> (MatchResult, MatchResult) {
        let params = ScoreParams::default();
        let udps = UdpRegistry::new();
        let ev = Evaluator::new(v, &params, &udps);
        let chains = expand_chains(q);
        (
            GreedySegmenter::new().match_viz(&ev, &chains),
            DpSegmenter.match_viz(&ev, &chains),
        )
    }

    #[test]
    fn greedy_finds_obvious_break() {
        // Clean symmetric peak: the equal split is already optimal.
        let v = viz(&[(0.0, 0.0), (1.0, 2.0), (2.0, 4.0), (3.0, 2.0), (4.0, 0.0)]);
        let q = ShapeQuery::concat(vec![ShapeQuery::up(), ShapeQuery::down()]);
        let (g, d) = run(&q, &v);
        assert_eq!(g.ranges, d.ranges);
        assert!((g.score - d.score).abs() < 1e-9);
    }

    #[test]
    fn greedy_never_beats_dp() {
        let v = viz(&[
            (0.0, 0.5),
            (1.0, 1.8),
            (2.0, 1.2),
            (3.0, 3.1),
            (4.0, 2.2),
            (5.0, 0.3),
            (6.0, 1.4),
            (7.0, 0.2),
        ]);
        for q in [
            ShapeQuery::concat(vec![ShapeQuery::up(), ShapeQuery::down()]),
            ShapeQuery::concat(vec![ShapeQuery::up(), ShapeQuery::down(), ShapeQuery::up()]),
            ShapeQuery::concat(vec![
                ShapeQuery::up(),
                ShapeQuery::down(),
                ShapeQuery::up(),
                ShapeQuery::down(),
            ]),
        ] {
            let (g, d) = run(&q, &v);
            assert!(
                g.score <= d.score + 1e-9,
                "greedy {} exceeded optimal {}",
                g.score,
                d.score
            );
        }
    }

    #[test]
    fn greedy_moves_break_toward_peak() {
        // Asymmetric peak at index 6 of 0..=7: equal split at 3..4 is wrong.
        let v = viz(&[
            (0.0, 0.0),
            (1.0, 0.5),
            (2.0, 1.0),
            (3.0, 1.5),
            (4.0, 2.0),
            (5.0, 2.5),
            (6.0, 3.0),
            (7.0, 0.0),
        ]);
        let q = ShapeQuery::concat(vec![ShapeQuery::up(), ShapeQuery::down()]);
        let (g, _) = run(&q, &v);
        // The greedy break should land past the midpoint.
        assert!(g.ranges[0].1 > 4, "break at {:?}", g.ranges);
        assert!(g.score > 0.5);
    }

    #[test]
    fn infeasible_tiny_viz() {
        let v = viz(&[(0.0, 0.0), (1.0, 1.0)]);
        let q = ShapeQuery::concat(vec![ShapeQuery::up(), ShapeQuery::down(), ShapeQuery::up()]);
        let (g, _) = run(&q, &v);
        assert_eq!(g.score, -1.0);
    }

    #[test]
    fn pinned_chain_falls_back_to_dp() {
        use crate::ast::{Pattern, ShapeSegment};
        let v = viz(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 1.0), (4.0, 0.0)]);
        let q = ShapeQuery::concat(vec![
            ShapeQuery::Segment(ShapeSegment::pinned(Pattern::Up, 0.0, 2.0)),
            ShapeQuery::down(),
        ]);
        let (g, d) = run(&q, &v);
        assert_eq!(g.ranges, d.ranges);
        assert_eq!(g.score, d.score);
    }
}
