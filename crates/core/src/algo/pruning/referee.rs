//! The third bound tier as it stood when it placed chains of two or three
//! units only: a hand-coded pair of end windows, and for three units the
//! one middle window they leave. Kept verbatim as the referee the
//! `chain_walk_matches_referee` proptest pins [`super::JointChain`]'s walk
//! to, bit for bit, on the chains both place — do not optimise it.

use super::{max_end_windows, max_pairs, EndWindows, ROUNDING_ALLOWANCE};
use crate::engine::group::VizData;
use crate::eval::SlopeLeaf;
use crate::score::clamp_score;

/// The third tier of the bound: a query that is one chain of two or three
/// free slope units ([`BoundPlan::joint`]), placed whole.
///
/// Every segmenter tiles `[0, n − 1]` with the chain's units in order, so
/// a placement is a pair of end windows `[0, j]`, `[i, n − 1]` — `i = j`
/// for two units, `i > j` for three, with the middle unit on `[j, i]` —
/// and its total is `w·f(j) + w·m(j, i) + w·g(i)`, `w = 1/units`. The best
/// total over all placements is the DP's optimum, which bounds the
/// SegmentTree's and the greedy's. All `n²/2` of them is the DP's work;
/// the live threshold τ cuts it to a handful, soundly, because no unit
/// scores above 1:
///
/// * a placement reaches τ only if its first window alone would with the
///   other units perfect, `f(j) ≥ (τ − 1)/w + 1`, and its last likewise —
///   [`SlopeLeaf::band`] turns that into a slope interval, so the two runs
///   the second tier already read are cut by comparisons, and only the
///   members pay an `atan` for their exact score;
/// * a pair of members only if `w·f(j) + w·1 + w·g(i) ≥ τ`;
/// * and each surviving pair with room between its windows has its middle
///   scored on the window the ends leave it.
///
/// Totals are taken in the DP's own order with [`ROUNDING_ALLOWANCE`] on
/// top, and the minimum-width term, which only lowers a score, is left
/// out; so a total here is at or above what any segmenter computes for the
/// same placement, and a placement cut here totals below τ for every
/// segmenter.
#[derive(Debug, Clone, Copy)]
pub(super) struct JointChain {
    pub(super) first: SlopeLeaf,
    /// The unit between the ends, in a chain of three.
    pub(super) middle: Option<SlopeLeaf>,
    pub(super) last: SlopeLeaf,
}

impl JointChain {
    /// The largest placement total, when that reaches `threshold`: an
    /// upper bound on the exact score. Otherwise every placement,
    /// enumerated or cut, totals below `threshold`, so the float just
    /// below it is an upper bound too — and is the one returned: the
    /// tightest bound the cuts prove, so every tier hands the prune rule a
    /// real bound and not a sentinel.
    ///
    /// `refined`, the second-tier bound, comes back unchanged when the
    /// tier has nothing to say: NaN data (which nothing may prune), a
    /// chain with more units than the trendline has intervals (infeasible;
    /// −1 needs no bound), or a threshold so low that the cuts leave more
    /// than [`max_end_windows`] or [`max_pairs`] standing. `windows` holds
    /// `viz`'s runs for both ends.
    pub(super) fn bound(
        &self,
        viz: &VizData,
        windows: &mut EndWindows,
        threshold: f64,
        refined: f64,
    ) -> f64 {
        let n = viz.n();
        let units = if self.middle.is_some() { 3 } else { 2 };
        if refined.is_nan() || n <= units {
            return refined;
        }
        let w = 1.0 / units as f64;
        let w_middle = if self.middle.is_some() { w } else { 0.0 };
        let total = |f: f64, m: f64, g: f64| w * f + w_middle * m + w * g + ROUNDING_ALLOWANCE;
        let score = |row: SlopeLeaf, slope: f64| clamp_score(row.at(slope.atan()));

        // The inner end points 1..=n − 2: `first[j − 1]` is `[0, j]`,
        // `last[i]` is `[i, n − 1]`.
        let alone = (threshold - 1.0) / w + 1.0;
        let EndWindows {
            first,
            last,
            kept_first,
            kept_last,
            ..
        } = windows;
        let keep = |row: SlopeLeaf, slopes: &[f64], kept: &mut Vec<(usize, f64)>| {
            let (lo, hi) = row.band(alone);
            kept.clear();
            kept.extend(
                slopes
                    .iter()
                    .zip(1..)
                    .filter(|(&slope, _)| lo <= slope && slope <= hi)
                    .map(|(&slope, at)| (at, slope)),
            );
        };
        keep(self.first, &first[..n - 2], kept_first);
        keep(self.last, &last[1..], kept_last);
        if kept_first.len() + kept_last.len() > max_end_windows(n) {
            return refined;
        }
        kept_first
            .iter_mut()
            .for_each(|(_, f)| *f = score(self.first, *f));
        kept_last
            .iter_mut()
            .for_each(|(_, g)| *g = score(self.last, *g));

        let (kept_first, kept_last) = (&*kept_first, &*kept_last);
        let abutting = self.middle.is_none();
        let pairs = || {
            kept_first.iter().flat_map(move |&(j, f)| {
                kept_last
                    .iter()
                    .filter(move |&&(i, g)| {
                        (if abutting { i == j } else { i > j }) && total(f, 1.0, g) >= threshold
                    })
                    .map(move |&(i, g)| (j, f, i, g))
            })
        };
        if pairs().count() > max_pairs(n) {
            return refined;
        }
        let runs = viz.arena().prefix_runs(viz.slot());
        let mut best = f64::NEG_INFINITY;
        for (j, f, i, g) in pairs() {
            let m = match self.middle {
                Some(row) => score(row, runs.range_stats(j, i).slope()),
                None => 1.0,
            };
            if m.is_nan() {
                return refined;
            }
            best = best.max(total(f, m, g));
        }
        if best >= threshold {
            best
        } else {
            threshold.next_down()
        }
    }
}
