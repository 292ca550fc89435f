//! The SegmentTree algorithm (paper §6.2): pattern-aware segmentation in
//! time linear in the number of points.
//!
//! A SegmentTree is a balanced binary tree whose nodes are VisualSegments:
//! the root covers the whole visualization and each node splits into two
//! halves down to single intervals between adjacent points (Definition 6.1;
//! the tree is never materialized — it "only defines the logical order in
//! which VisualSegments are created and scored").
//!
//! Each node stores, for every contiguous sub-chain `[l, r)` of the query's
//! unit sequence, the best placement whose units exactly tile the node's
//! point range. Nodes are combined bottom-up three ways (mirroring the
//! paper's Figure 7 enumeration):
//!
//! 1. **direct** — a single unit spanning the whole node range (computed
//!    O(1) from summarized statistics);
//! 2. **split** — left child's `[l, m)` next to right child's `[m, r)`,
//!    placing a unit boundary at the node midpoint;
//! 3. **bridge** — left child's `[l, b+1)` merged with right child's
//!    `[b, r)`: unit `b` spans the midpoint, its score recomputed over the
//!    merged range (this is how "a⊗b from node 3 and b from node 4" combine
//!    in the paper's example).
//!
//! Keeping only the best entry per sub-chain is the **Closure assumption**
//! (Assumption 6.1): a break point optimal in a small region is assumed to
//! remain the candidate break point in enclosing regions. Under it the
//! algorithm is optimal and runs in O(nk⁴) (Theorem 6.3); in practice it
//! trades ≲15% top-k accuracy for 2–40× speed-up versus the DP (§9).
//!
//! The O(nk⁴) bound counts O(1) per candidate, and the kernel holds to
//! it: a window is scored at most once per unit. An entry carries what
//! its two boundary units contribute (see `Table`), so a bridge scores
//! the merged window only and takes the two halves it replaces from the
//! children's entries; a node's direct entries share one fitted angle;
//! and the tables are flat columns a scoring thread keeps between
//! trendlines, so a node allocates nothing.

use super::{best_over_chains, MatchResult, Segmenter};
use crate::chain::{Chain, Unit};
use crate::columnar::PrefixRuns;
use crate::eval::{chain_score_with_positions, slope_leaf, Evaluator, SlopeLeaf};
use std::cell::Cell;

#[cfg(test)]
mod referee;

/// The SegmentTree segmenter.
///
/// `bridges` controls the bridge combination rule (on by default); turning
/// it off restricts unit boundaries to dyadic node midpoints — the ablation
/// measured by `figures -- ablation`, showing how much accuracy the bridge
/// rule recovers.
#[derive(Debug, Clone, Copy)]
pub struct SegmentTreeSegmenter {
    /// Enables the midpoint-spanning bridge combinations.
    pub bridges: bool,
}

impl Default for SegmentTreeSegmenter {
    fn default() -> Self {
        Self { bridges: true }
    }
}

impl SegmentTreeSegmenter {
    /// The ablated variant without bridge combinations.
    pub fn without_bridges() -> Self {
        Self { bridges: false }
    }
}

impl Segmenter for SegmentTreeSegmenter {
    fn match_viz(&self, ev: &Evaluator<'_>, chains: &[Chain]) -> MatchResult {
        best_over_chains(chains, |chain| solve_tree_with(ev, chain, self.bridges))
    }
}

/// Solves one chain on one visualization with the SegmentTree.
fn solve_tree_with(ev: &Evaluator<'_>, chain: &Chain, bridges: bool) -> MatchResult {
    let n = ev.viz.n();
    if n < 2 {
        return MatchResult::infeasible();
    }
    if !chain.is_fully_fuzzy() {
        return solve_hybrid(ev, chain, bridges);
    }
    let mut ranges = Vec::with_capacity(chain.len());
    match tree_range(ev, &chain.units, 0, n - 1, bridges, &mut ranges) {
        Some(score) => finish(ev, chain, score, ranges),
        None => MatchResult::infeasible(),
    }
}

fn finish(
    ev: &Evaluator<'_>,
    chain: &Chain,
    score: f64,
    ranges: Vec<(usize, usize)>,
) -> MatchResult {
    let score = if chain.has_position_refs() {
        chain_score_with_positions(ev, chain, &ranges)
    } else {
        score
    };
    MatchResult { score, ranges }
}

/// Hybrid fuzzy/non-fuzzy queries (§6): fully pinned units are anchored
/// directly; maximal runs of fuzzy units tile the gaps between anchors with
/// their own SegmentTree. Partially pinned or width units fall back to the
/// exact DP, which handles every constraint.
fn solve_hybrid(ev: &Evaluator<'_>, chain: &Chain, bridges: bool) -> MatchResult {
    let fully_pinned = |u: &Unit| u.pin_start.is_some() && u.pin_end.is_some();
    if !chain.units.iter().all(|u| u.is_fuzzy() || fully_pinned(u)) {
        return super::dp::solve_chain(ev, chain, 0, ev.viz.n() - 1);
    }
    let n = ev.viz.n();
    let mut score = 0.0;
    let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(chain.len());
    let mut prev_end = 0usize;
    // Fuzzy runs are contiguous in the chain: the open run is
    // `chain.units[run_start..i]`.
    let mut run_start = 0usize;

    // Tiles `[lo, hi]` with a (possibly empty) fuzzy run.
    let place_run = |run: &[Unit],
                     lo: usize,
                     hi: usize,
                     score: &mut f64,
                     ranges: &mut Vec<(usize, usize)>|
     -> bool {
        if run.is_empty() {
            return true;
        }
        let Some(s) = tree_range(ev, run, lo, hi, bridges, ranges) else {
            return false;
        };
        *score += s;
        true
    };

    for (i, unit) in chain.units.iter().enumerate() {
        if !fully_pinned(unit) {
            continue;
        }
        let s = ev.viz.x_to_index(unit.pin_start.expect("pinned"));
        let e = ev.viz.x_to_index(unit.pin_end.expect("pinned"));
        if e <= s || s < prev_end {
            return MatchResult::infeasible();
        }
        // The fuzzy run before this anchor tiles [prev_end, s].
        let run = &chain.units[run_start..i];
        if !place_run(run, prev_end, s, &mut score, &mut ranges) {
            return MatchResult::infeasible();
        }
        score += unit.weight * ev.eval_unit(slope_leaf(&unit.query), &unit.query, s, e);
        ranges.push((s, e));
        prev_end = e;
        run_start = i + 1;
    }
    let run = &chain.units[run_start..];
    if !place_run(run, prev_end, n - 1, &mut score, &mut ranges) {
        return MatchResult::infeasible();
    }
    finish(ev, chain, score, ranges)
}

/// One node's table of best entries, struct-of-arrays over the cells
/// `(l, r)` of a `(k + 1)²` grid (cell `l·(k + 1) + r` is the sub-chain
/// `[l, r)`).
///
/// An entry is the best placement found for its sub-chain whose units
/// exactly tile the node's point range: its partial weighted `score`, the
/// `r − l − 1` unit boundaries strictly inside the range (`breaks`, at
/// stride `k − 1`), and the weighted scores its two boundary units
/// contribute to `score` — `first` for unit `l`, `last` for unit `r − 1`,
/// each over the range the placement gives it. A bridge replaces exactly
/// those two contributions (the left entry's `last` and the right entry's
/// `first` are the two halves of the unit it merges), so carrying them
/// means a window is scored once, when its entry is made, and never again
/// to be subtracted. They are the very `f64`s a re-evaluation would
/// return — evaluation is a pure function of `(unit, i, j)` — so the sums
/// built from them keep their bits.
#[derive(Default)]
struct Table {
    present: Vec<bool>,
    score: Vec<f64>,
    first: Vec<f64>,
    last: Vec<f64>,
    breaks: Vec<u32>,
}

impl Table {
    /// Sizes the columns for chains of `k` units; a no-op while `k` stays
    /// what the table last served.
    fn fit(&mut self, k: usize) {
        let cells = (k + 1) * (k + 1);
        if self.present.len() != cells {
            self.present.resize(cells, false);
            self.score.resize(cells, 0.0);
            self.first.resize(cells, 0.0);
            self.last.resize(cells, 0.0);
            self.breaks.resize(cells * (k - 1), 0);
        }
    }
}

/// What one scoring thread keeps between trees: the recursion holds two
/// child tables per level below the root, so `1 + 2·⌈log₂ intervals⌉`
/// tables serve a whole tree, and once they have grown to the thread's
/// longest trendline and chain no node allocates anything.
#[derive(Default)]
struct Scratch {
    tables: Vec<Table>,
    leaves: Vec<Option<SlopeLeaf>>,
    merged: Vec<Cell<f64>>,
}

thread_local! {
    static SCRATCH: Cell<Scratch> = Cell::default();
}

/// Runs the SegmentTree over points `[lo, hi]` for a run of fuzzy units:
/// appends the per-unit ranges to `ranges` and returns the partial
/// weighted score, or `None` (nothing appended) when the run cannot tile
/// the range.
fn tree_range(
    ev: &Evaluator<'_>,
    units: &[Unit],
    lo: usize,
    hi: usize,
    bridges: bool,
    ranges: &mut Vec<(usize, usize)>,
) -> Option<f64> {
    let k = units.len();
    if k == 0 || hi <= lo || hi - lo < k {
        return None;
    }
    // Taken, not borrowed: a unit's evaluation is arbitrary code (a UDP
    // may itself run a query on this thread), and a nested tree must find
    // an empty scratch to grow, never this one half-written.
    let mut scratch = SCRATCH.take();
    scratch.leaves.clear();
    scratch
        .leaves
        .extend(units.iter().map(|u| slope_leaf(&u.query)));
    let levels = if k == 1 {
        0
    } else {
        (hi - lo).next_power_of_two().trailing_zeros() as usize
    };
    let needed = 1 + 2 * levels;
    if scratch.tables.len() < needed {
        scratch.tables.resize_with(needed, Table::default);
    }
    let tables = &mut scratch.tables[..needed];
    tables.iter_mut().for_each(|t| t.fit(k));
    let (root, below) = tables.split_first_mut().expect("at least the root table");
    scratch.merged.resize(k, Cell::new(0.0));
    let kernel = Kernel {
        ev,
        units,
        leaves: &scratch.leaves,
        runs: ev.viz.arena().prefix_runs(ev.viz.slot()),
        xs: ev.viz.xs(),
        min_width_frac: ev.params.min_width_frac,
        bridges,
        merged: &scratch.merged,
    };
    kernel.solve_node(root, below, lo, hi);

    let whole = kernel.cell(0, k);
    let score = root.present[whole].then(|| {
        let mut start = lo;
        for &b in &root.breaks[whole * (k - 1)..][..k - 1] {
            ranges.push((start, b as usize));
            start = b as usize;
        }
        ranges.push((start, hi));
        root.score[whole]
    });
    SCRATCH.set(scratch);
    score
}

/// One tree's invariants, resolved once: the units with their leaf
/// classification, and the viz's prefix-sum runs and `xs` as plain slices
/// so a window costs eight loads and no dispatch.
struct Kernel<'a> {
    ev: &'a Evaluator<'a>,
    units: &'a [Unit],
    leaves: &'a [Option<SlopeLeaf>],
    runs: PrefixRuns<'a>,
    xs: &'a [f64],
    min_width_frac: f64,
    bridges: bool,
    /// Per unit `b`, the merged-window score of the bridge on `b` for the
    /// sub-chain being filled.
    merged: &'a [Cell<f64>],
}

impl Kernel<'_> {
    #[inline]
    fn cell(&self, l: usize, r: usize) -> usize {
        l * (self.units.len() + 1) + r
    }

    /// The fitted angle of window `[i, j]`.
    #[inline]
    fn angle(&self, i: usize, j: usize) -> f64 {
        self.runs.range_stats(i, j).slope().atan()
    }

    /// Weighted score of unit `t` over `[i, j]` — bit for bit
    /// `weight · Evaluator::eval_unit`. `angle` yields the window's
    /// fitted angle; only slope-leaf units ask for it.
    #[inline]
    fn unit_score(&self, t: usize, i: usize, j: usize, angle: impl FnOnce() -> f64) -> f64 {
        let unit = &self.units[t];
        let score = match self.leaves[t] {
            Some(leaf) => {
                // `width_penalty` ignores the width exactly when the
                // term is off, so the two `xs` loads go with it.
                let width = if self.min_width_frac <= 0.0 {
                    0.0
                } else {
                    self.xs[j] - self.xs[i]
                };
                leaf.eval_at(angle(), width, self.min_width_frac)
            }
            None => self.ev.eval_node(&unit.query, i, j, None),
        };
        unit.weight * score
    }

    /// Bottom-up construction of the table of the node over `[lo, hi]`
    /// into `out`; `below` holds the tables of the levels under it, two
    /// per level.
    fn solve_node(&self, out: &mut Table, below: &mut [Table], lo: usize, hi: usize) {
        let k = self.units.len();
        let stride = k - 1;
        let intervals = hi - lo;
        out.present.fill(false);

        // Direct single-unit entries: unit t spans the whole node range,
        // so every slope-leaf unit reads the one line fitted to it.
        let mut node_angle = None;
        for t in 0..k {
            let score = self.unit_score(t, lo, hi, || {
                *node_angle.get_or_insert_with(|| self.angle(lo, hi))
            });
            let cell = self.cell(t, t + 1);
            out.present[cell] = true;
            out.score[cell] = score;
            out.first[cell] = score;
            out.last[cell] = score;
        }
        if intervals == 1 || k == 1 {
            return;
        }

        let mid = lo + intervals / 2;
        let (children, deeper) = below.split_at_mut(2);
        let [left, right] = children else {
            unreachable!("split_at_mut(2) yields two tables")
        };
        self.solve_node(left, deeper, lo, mid);
        self.solve_node(right, deeper, mid, hi);
        let (left, right) = (&*left, &*right);

        for len in 2..=k.min(intervals) {
            for l in 0..=(k - len) {
                let r = l + len;
                // Bridge on b: unit b spans the midpoint, merging the last
                // unit of left's [l, b+1) with the first of right's [b, r).
                let bridge = |b: usize| {
                    let (lc, rc) = (self.cell(l, b + 1), self.cell(b, r));
                    (self.bridges && left.present[lc] && right.present[rc]).then_some((lc, rc))
                };

                // The merged windows first, all of them: they read the
                // children only, so no comparison sits between one
                // evaluation and the next.
                for b in l..r {
                    let Some((lc, rc)) = bridge(b) else { continue };
                    let start = match b - l {
                        0 => lo,
                        nl => left.breaks[lc * stride + nl - 1] as usize,
                    };
                    let end = match r - b - 1 {
                        0 => hi,
                        _ => right.breaks[rc * stride] as usize,
                    };
                    let score = self.unit_score(b, start, end, || self.angle(start, end));
                    self.merged[b].set(score);
                }

                // Then the candidates in order. One replaces the best so
                // far unless that scores at least as high (so NaN loses to
                // anything, and to itself).
                let mut best = 0.0;
                let mut winner = None;
                let mut offer = |score: f64, candidate: Candidate| {
                    if !(winner.is_some() && best >= score) {
                        best = score;
                        winner = Some(candidate);
                    }
                };
                // Split: boundary between units m-1 and m at the midpoint.
                for m in (l + 1)..r {
                    let (lc, rc) = (self.cell(l, m), self.cell(m, r));
                    if left.present[lc] && right.present[rc] {
                        offer(left.score[lc] + right.score[rc], Candidate::Split(m));
                    }
                }
                for b in l..r {
                    let Some((lc, rc)) = bridge(b) else { continue };
                    // The unit's two halves are the left entry's last and
                    // the right entry's first contribution.
                    let score = left.score[lc] - left.last[lc] + right.score[rc] - right.first[rc]
                        + self.merged[b].get();
                    offer(score, Candidate::Bridge(b));
                }

                // Only the winner's entry is written: left's [l, x) and
                // right's [y, r), their breaks copied around the midpoint
                // a split adds between them.
                let Some(winner) = winner else { continue };
                let (x, y) = match winner {
                    Candidate::Split(m) => (m, m),
                    Candidate::Bridge(b) => (b + 1, b),
                };
                let (lc, rc) = (self.cell(l, x), self.cell(y, r));
                let (nl, nr) = (x - l - 1, r - y - 1);
                let cell = self.cell(l, r);
                out.present[cell] = true;
                out.score[cell] = best;
                out.first[cell] = left.first[lc];
                out.last[cell] = right.last[rc];
                let breaks = &mut out.breaks[cell * stride..][..len - 1];
                breaks[..nl].copy_from_slice(&left.breaks[lc * stride..][..nl]);
                breaks[len - 1 - nr..].copy_from_slice(&right.breaks[rc * stride..][..nr]);
                match winner {
                    Candidate::Split(_) => breaks[nl] = mid as u32,
                    // The bridged unit is the entry's first or last when
                    // it sits at that end of the sub-chain.
                    Candidate::Bridge(b) => {
                        if b == l {
                            out.first[cell] = self.merged[b].get();
                        }
                        if b + 1 == r {
                            out.last[cell] = self.merged[b].get();
                        }
                    }
                }
            }
        }
    }
}

/// How a node's entry for a sub-chain was put together from its children.
#[derive(Clone, Copy)]
enum Candidate {
    /// Left's `[l, m)` next to right's `[m, r)`.
    Split(usize),
    /// Left's `[l, b + 1)` and right's `[b, r)` sharing unit `b`.
    Bridge(usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::dp::DpSegmenter;
    use crate::ast::{Modifier, Pattern, PosRef, ShapeQuery, ShapeSegment};
    use crate::chain::expand_chains;
    use crate::engine::group::VizData;
    use crate::eval::{UdpFn, UdpRegistry};
    use crate::score::ScoreParams;
    use proptest::prelude::*;
    use shapesearch_datastore::Trendline;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn viz(pairs: &[(f64, f64)]) -> VizData {
        VizData::from_trendline(&Trendline::from_pairs("t", pairs), 0, 1).unwrap()
    }

    fn run(q: &ShapeQuery, v: &VizData) -> (MatchResult, MatchResult) {
        let params = ScoreParams::default();
        let udps = UdpRegistry::new();
        let ev = Evaluator::new(v, &params, &udps);
        let chains = expand_chains(q);
        (
            SegmentTreeSegmenter::default().match_viz(&ev, &chains),
            DpSegmenter.match_viz(&ev, &chains),
        )
    }

    #[test]
    fn matches_dp_on_clean_peak() {
        let v = viz(&[
            (0.0, 0.0),
            (1.0, 2.0),
            (2.0, 4.0),
            (3.0, 6.0),
            (4.0, 4.0),
            (5.0, 2.0),
            (6.0, 0.0),
        ]);
        let q = ShapeQuery::concat(vec![ShapeQuery::up(), ShapeQuery::down()]);
        let (t, d) = run(&q, &v);
        assert!(
            (t.score - d.score).abs() < 1e-9,
            "{} vs {}",
            t.score,
            d.score
        );
        assert_eq!(t.ranges, d.ranges);
    }

    #[test]
    fn bridge_handles_off_center_breaks() {
        // Peak at index 5 of 0..=7 — not at any dyadic midpoint; the bridge
        // rule must recover it.
        let v = viz(&[
            (0.0, 0.0),
            (1.0, 1.0),
            (2.0, 2.0),
            (3.0, 3.0),
            (4.0, 4.0),
            (5.0, 5.0),
            (6.0, 2.5),
            (7.0, 0.0),
        ]);
        let q = ShapeQuery::concat(vec![ShapeQuery::up(), ShapeQuery::down()]);
        let (t, d) = run(&q, &v);
        assert_eq!(t.ranges, vec![(0, 5), (5, 7)]);
        assert!((t.score - d.score).abs() < 1e-9);
    }

    #[test]
    fn never_beats_dp_and_stays_close() {
        // A noisy trendline with several local structures.
        let pts: Vec<(f64, f64)> = [
            0.2, 0.9, 0.7, 1.8, 1.4, 2.6, 2.0, 1.1, 1.5, 0.4, 0.8, 0.1, 1.0, 2.2, 1.9, 3.0,
        ]
        .iter()
        .enumerate()
        .map(|(i, &y)| (i as f64, y))
        .collect();
        let v = viz(&pts);
        for q in [
            ShapeQuery::concat(vec![ShapeQuery::up(), ShapeQuery::down()]),
            ShapeQuery::concat(vec![ShapeQuery::up(), ShapeQuery::down(), ShapeQuery::up()]),
            ShapeQuery::concat(vec![
                ShapeQuery::up(),
                ShapeQuery::down(),
                ShapeQuery::up(),
                ShapeQuery::down(),
            ]),
            ShapeQuery::concat(vec![ShapeQuery::flat(), ShapeQuery::up()]),
        ] {
            let (t, d) = run(&q, &v);
            assert!(
                t.score <= d.score + 1e-9,
                "tree {} exceeded optimal {} for {q}",
                t.score,
                d.score
            );
            assert!(
                t.score >= d.score - 0.35,
                "tree {} too far below optimal {} for {q}",
                t.score,
                d.score
            );
        }
    }

    #[test]
    fn or_chains_resolved() {
        let v = viz(&[
            (0.0, 0.0),
            (1.0, 2.0),
            (2.0, 4.0),
            (3.0, 4.1),
            (4.0, 3.9),
            (5.0, 4.0),
        ]);
        // up then (flat or down): flat branch should win.
        let q = ShapeQuery::concat(vec![
            ShapeQuery::up(),
            ShapeQuery::Or(vec![ShapeQuery::flat(), ShapeQuery::down()]),
        ]);
        let (t, _) = run(&q, &v);
        assert!(t.score > 0.5, "score {}", t.score);
    }

    #[test]
    fn hybrid_pinned_anchor_with_fuzzy_tail() {
        let v = viz(&[
            (0.0, 5.0),
            (1.0, 4.0),
            (2.0, 3.0),
            (3.0, 4.0),
            (4.0, 5.0),
            (5.0, 4.0),
            (6.0, 3.0),
        ]);
        let q = ShapeQuery::concat(vec![
            ShapeQuery::Segment(ShapeSegment::pinned(Pattern::Down, 0.0, 2.0)),
            ShapeQuery::up(),
            ShapeQuery::down(),
        ]);
        let (t, d) = run(&q, &v);
        assert_eq!(t.ranges[0], (0, 2));
        assert_eq!(t.ranges.last().unwrap().1, 6);
        assert!(
            (t.score - d.score).abs() < 0.15,
            "{} vs {}",
            t.score,
            d.score
        );
    }

    #[test]
    fn width_units_fall_back_to_dp() {
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
        let (t, d) = run(&q, &v);
        assert_eq!(t.ranges, d.ranges);
        assert_eq!(t.score, d.score);
    }

    #[test]
    fn infeasible_cases() {
        let v = viz(&[(0.0, 0.0), (1.0, 1.0)]);
        let q = ShapeQuery::concat(vec![ShapeQuery::up(), ShapeQuery::down(), ShapeQuery::up()]);
        let (t, _) = run(&q, &v);
        assert_eq!(t.score, -1.0);
    }

    #[test]
    fn three_segment_tree_matches_shape() {
        // down, up, down over 12 points.
        let v = viz(&[
            (0.0, 5.0),
            (1.0, 4.0),
            (2.0, 3.0),
            (3.0, 2.0),
            (4.0, 3.0),
            (5.0, 4.0),
            (6.0, 5.0),
            (7.0, 6.0),
            (8.0, 5.0),
            (9.0, 4.0),
            (10.0, 3.0),
            (11.0, 2.0),
        ]);
        let q = ShapeQuery::concat(vec![
            ShapeQuery::down(),
            ShapeQuery::up(),
            ShapeQuery::down(),
        ]);
        let (t, d) = run(&q, &v);
        assert!(t.score > 0.7, "score {}", t.score);
        assert!((t.score - d.score).abs() < 0.05);
        // Breaks near the true turning points (3 and 7).
        assert!((t.ranges[0].1 as i64 - 3).abs() <= 1, "{:?}", t.ranges);
        assert!((t.ranges[1].1 as i64 - 7).abs() <= 1, "{:?}", t.ranges);
    }

    /// One chain unit of the referee proptest, by index: every slope
    /// leaf, and general units of each kind the evaluator dispatches on.
    fn unit_of(kind: usize) -> ShapeQuery {
        let seg = |s: ShapeSegment| ShapeQuery::Segment(s);
        match kind {
            0 => ShapeQuery::up(),
            1 => ShapeQuery::down(),
            2 => ShapeQuery::flat(),
            3 => ShapeQuery::pattern(Pattern::Any),
            4 => ShapeQuery::pattern(Pattern::Slope(30.0)),
            5 => ShapeQuery::pattern(Pattern::Slope(-62.5)),
            6 => ShapeQuery::pattern(Pattern::Slope(120.0)),
            7 => seg(ShapeSegment::pattern(Pattern::Up).with_modifier(Modifier::MuchMore)),
            8 => seg(ShapeSegment::pattern(Pattern::Down).with_modifier(Modifier::More(None))),
            9 => seg(ShapeSegment::pattern(Pattern::Up).with_modifier(Modifier::at_least(2))),
            10 => ShapeQuery::pattern(Pattern::Udp("bump".into())),
            11 => ShapeQuery::And(vec![ShapeQuery::up(), ShapeQuery::flat()]),
            12 => ShapeQuery::Not(Box::new(ShapeQuery::down())),
            13 => ShapeQuery::Or(vec![ShapeQuery::up(), ShapeQuery::down()]),
            14 => seg(
                ShapeSegment::pattern(Pattern::Position(PosRef::Absolute(0)))
                    .with_modifier(Modifier::Similar),
            ),
            _ => seg(ShapeSegment {
                sketch: Some(vec![(0.0, 0.0), (1.0, 3.0), (2.0, 1.0)]),
                ..ShapeSegment::default()
            }),
        }
    }

    fn series_strategy() -> impl Strategy<Value = Vec<f64>> {
        prop_oneof![
            proptest::collection::vec(-100.0f64..100.0, 2..=200),
            // A coarse grid: equal slopes everywhere, so equal scores —
            // the tie-breaking order of the candidates is on trial.
            proptest::collection::vec(-3i64..4, 2..=200)
                .prop_map(|ys| ys.into_iter().map(|y| y as f64).collect()),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// The kernel against the recursion it replaced: same score bits
        /// and the same ranges for every chain, fuzzy or hybrid.
        #[test]
        fn kernel_matches_referee(
            ys in series_strategy(),
            kinds in proptest::collection::vec(0usize..16, 1..=8),
            pins in proptest::collection::vec((0usize..8, 0usize..2), 0..=2),
            bridges in 0u8..2,
            narrow in 0u8..2,
        ) {
            let pairs: Vec<(f64, f64)> =
                ys.iter().enumerate().map(|(i, &y)| (i as f64, y)).collect();
            let v = viz(&pairs);
            let (n, k) = (v.n(), kinds.len());
            let mut units: Vec<ShapeQuery> = kinds.iter().map(|&kind| unit_of(kind)).collect();
            // Anchors: unit p pinned to (about) the p-th of k equal slots,
            // so the fuzzy runs around it usually still fit.
            for &(p, jitter) in &pins {
                let p = p % k;
                let slot = |q: usize| (q * (n - 1)) / k;
                let pattern = [Pattern::Up, Pattern::Udp("bump".into())][p % 2].clone();
                let (s, e) = (slot(p) + jitter, slot(p + 1));
                units[p] = ShapeQuery::Segment(ShapeSegment::pinned(pattern, s as f64, e as f64));
            }
            let params = ScoreParams {
                min_width_frac: [0.0, 0.1][narrow as usize],
                ..ScoreParams::default()
            };
            let mut udps = UdpRegistry::new();
            udps.register(
                "bump",
                Arc::new(|ys: &[f64]| 4.0 * (ys[ys.len() / 2] - ys[0])) as UdpFn,
            );
            let ev = Evaluator::new(&v, &params, &udps);
            for chain in expand_chains(&ShapeQuery::concat(units)) {
                let got = solve_tree_with(&ev, &chain, bridges == 1);
                let want = referee::solve_tree_with(&ev, &chain, bridges == 1);
                prop_assert_eq!(got.score.to_bits(), want.score.to_bits(), "{:?}", chain);
                prop_assert_eq!(got.ranges, want.ranges, "{:?}", chain);
            }
        }
    }

    /// Unit evaluations a tree over `intervals` intervals performs for `k`
    /// units when every window is scored once: one per direct entry and
    /// one per bridge candidate (a sub-chain is present in a child exactly
    /// when it is no longer than the child has intervals).
    fn evaluations(intervals: usize, k: usize) -> usize {
        if intervals == 1 || k == 1 {
            return k;
        }
        let (left, right) = (intervals / 2, intervals - intervals / 2);
        let mut bridges = 0;
        for len in 2..=k.min(intervals) {
            for l in 0..=(k - len) {
                let r = l + len;
                bridges += (l..r)
                    .filter(|b| b + 1 - l <= left && r - b <= right)
                    .count();
            }
        }
        k + bridges + evaluations(left, k) + evaluations(right, k)
    }

    #[test]
    fn every_window_is_scored_once() {
        let pairs: Vec<(f64, f64)> = (0..128)
            .map(|i| (i as f64, ((i * 37) % 11) as f64))
            .collect();
        let v = viz(&pairs);
        let calls = Arc::new(AtomicUsize::new(0));
        let mut udps = UdpRegistry::new();
        let counter = Arc::clone(&calls);
        udps.register(
            "counted",
            Arc::new(move |ys: &[f64]| {
                counter.fetch_add(1, Ordering::Relaxed);
                ys[ys.len() - 1] - ys[0]
            }) as UdpFn,
        );
        let params = ScoreParams::default();
        let ev = Evaluator::new(&v, &params, &udps);
        let unit = || ShapeQuery::pattern(Pattern::Udp("counted".into()));
        let chains = expand_chains(&ShapeQuery::concat(vec![unit(), unit(), unit()]));
        let result = SegmentTreeSegmenter::default().match_viz(&ev, &chains);
        assert_eq!(result.ranges.len(), 3);
        // 127 intervals: 253 nodes × 3 direct entries + 7 bridge
        // candidates at each of the 126 internal nodes, fewer where a
        // child is a single interval.
        assert_eq!(calls.load(Ordering::Relaxed), evaluations(127, 3));
    }
}
