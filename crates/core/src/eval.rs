//! Evaluation of ShapeQuery nodes over visual segments (paper §5.2).
//!
//! The [`Evaluator`] scores any query node over an inclusive canvas point
//! range `[i, j]` of one visualization:
//!
//! * leaf patterns score via the Table-5 functions on the range's fitted
//!   slope (O(1) through the prefix [`StatsIndex`](crate::stats::StatsIndex));
//! * operators combine child scores per Table 6 (AND = min, OR = max,
//!   NOT = negation); a *nested* CONCAT recursively segments the range with
//!   the optimal DP;
//! * LOCATION y constraints are hard: a violated constraint yields −1
//!   ("When the LOCATION primitives are not satisfied, we assign an overall
//!   score of −1");
//! * MODIFIER quantifiers count pattern occurrences inside the range and
//!   average the strongest `min` of them (§5.2, "Scoring quantifiers");
//! * POSITION (`$`) references compare the range's slope against another
//!   unit's fitted slope — available only after a segmentation exists, so
//!   during the *search* they score neutrally and are re-applied by
//!   [`chain_score_with_positions`].

use crate::ast::{Modifier, Pattern, PosRef, ShapeQuery, ShapeSegment};
use crate::chain::Chain;
use crate::engine::group::VizData;
use crate::score::{self, clamp_score, combine_and, combine_not, combine_or, ScoreParams};
use shapesearch_similarity::{normalized_similarity, resample_linear};
use std::collections::HashMap;
use std::f64::consts::PI;
use std::sync::Arc;

/// A user-defined pattern scorer: takes the normalized y values of a
/// VisualSegment, returns a score in [−1, 1] (paper §5.2: "user-defined
/// scoring functions must take a VisualSegment as input, and output a score
/// within [−1, 1]").
pub type UdpFn = Arc<dyn Fn(&[f64]) -> f64 + Send + Sync>;

/// Registry of user-defined patterns, keyed by name.
#[derive(Default, Clone)]
pub struct UdpRegistry {
    map: HashMap<String, UdpFn>,
}

impl UdpRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a UDP under `name`.
    pub fn register(&mut self, name: impl Into<String>, f: UdpFn) {
        self.map.insert(name.into(), f);
    }

    /// Looks up a UDP.
    pub fn get(&self, name: &str) -> Option<&UdpFn> {
        self.map.get(name)
    }

    /// True when `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.map.contains_key(name)
    }
}

impl std::fmt::Debug for UdpRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UdpRegistry")
            .field("patterns", &self.map.keys().collect::<Vec<_>>())
            .finish()
    }
}

/// Slopes of already-placed chain units, used to resolve POSITION refs.
#[derive(Debug, Clone, Copy)]
pub struct PosContext<'a> {
    /// Fitted slope of each unit's assigned range, in chain order.
    pub slopes: &'a [f64],
    /// Index of the unit being scored.
    pub current: usize,
}

/// A query node that reduces to a single slope-scored leaf: a bare
/// segment with one of the Table-5 slope patterns, no modifier, no
/// sketch, and no LOCATION constraints. For such nodes the full
/// [`Evaluator::eval_node`] walk collapses to "fitted slope → score
/// function → width penalty → clamp", which the batched kernels compute
/// for whole runs of candidate windows at once. Derived once per chain
/// unit, when the chain is expanded ([`crate::chain::Unit::leaf`]), never
/// per candidate window.
///
/// Its variants are Table 5's slope rows, and `SlopeLeaf::at` over the
/// `score::*_at` maps is the one place a row becomes a score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SlopeLeaf {
    /// `Pattern::Up` — 2·θ/π.
    Up,
    /// `Pattern::Down` — −2·θ/π.
    Down,
    /// `Pattern::Flat` — 1 − |4·θ/π|.
    Flat,
    /// `Pattern::Any` — constant 1.
    Any,
    /// `Pattern::Slope(deg)` — peaked at `deg` (see `SlopeLeaf::theta`), held
    /// as the pattern's two constants so no window re-derives them.
    Theta {
        /// The target angle in radians, clamped to ±π/2.
        target: f64,
        /// The largest possible distance of a fitted angle from `target`.
        worst: f64,
    },
}

impl SlopeLeaf {
    /// The `θ = x` row for a target angle in **degrees**.
    pub(crate) fn theta(target_deg: f64) -> Self {
        let (target, worst) = score::theta_target(target_deg);
        SlopeLeaf::Theta { target, worst }
    }

    /// The row's Table-5 score at a fitted angle `θ = tan⁻¹(slope)`,
    /// before any clamp: what every evaluation path and the §6.3 bounds
    /// are written in.
    #[inline]
    pub(crate) fn at(self, theta: f64) -> f64 {
        match self {
            SlopeLeaf::Up => score::up_at(theta),
            SlopeLeaf::Down => score::down_at(theta),
            SlopeLeaf::Flat => score::flat_at(theta),
            SlopeLeaf::Any => 1.0,
            SlopeLeaf::Theta { target, worst } => score::theta_at(theta, target, worst),
        }
    }

    /// The leaf's whole evaluation of one window, from the window's
    /// fitted angle (`slope.atan()`) and canvas width. Every slope-leaf
    /// path — per window, per run, and the SegmentTree's shared angle per
    /// node — ends here, so they cannot drift from each other or from
    /// [`Evaluator::eval_segment`], which this reproduces bit for bit
    /// through [`Self::at`].
    /// [`score::width_penalty`] ignores `width` when `min_width_frac <= 0`,
    /// so a caller with the term off need not load it.
    #[inline]
    pub(crate) fn eval_at(self, theta: f64, width: f64, min_width_frac: f64) -> f64 {
        let raw = self.at(theta);
        // `0.0 +` replicates the general path's sum/count accumulation:
        // IEEE `0.0 + (-0.0)` is `+0.0`, so a raw `-0.0` pattern score
        // must flip sign here exactly as it does there.
        let score = (0.0 + raw) / 1.0;
        clamp_score(score::width_penalty(score, width, min_width_frac))
    }
}

/// Classifies a query node as a [`SlopeLeaf`] when its evaluation is a
/// pure function of the window's fitted slope (see the enum docs for the
/// exact conditions). `None` means the node needs the general
/// [`Evaluator::eval_node`] path.
pub fn slope_leaf(q: &ShapeQuery) -> Option<SlopeLeaf> {
    let ShapeQuery::Segment(s) = q else {
        return None;
    };
    if !s.location.is_empty() || s.sketch.is_some() || s.modifier.is_some() {
        return None;
    }
    s.pattern.as_ref().and_then(pattern_row)
}

/// The Table-5 row a pattern scores by, when it is a slope pattern: the
/// one classification the leaf fast path ([`slope_leaf`]), the
/// evaluator's general path and the §6.3 bound plan share. `None` for
/// UDPs, position references and nested queries.
pub(crate) fn pattern_row(p: &Pattern) -> Option<SlopeLeaf> {
    match p {
        Pattern::Up => Some(SlopeLeaf::Up),
        Pattern::Down => Some(SlopeLeaf::Down),
        Pattern::Flat => Some(SlopeLeaf::Flat),
        Pattern::Any => Some(SlopeLeaf::Any),
        Pattern::Slope(deg) => Some(SlopeLeaf::theta(*deg)),
        Pattern::Udp(_) | Pattern::Position(_) | Pattern::Nested(_) => None,
    }
}

/// Scores query nodes over ranges of one visualization.
#[derive(Debug, Clone, Copy)]
pub struct Evaluator<'a> {
    /// The visualization under evaluation.
    pub viz: &'a VizData,
    /// Scoring parameters.
    pub params: &'a ScoreParams,
    /// User-defined patterns.
    pub udps: &'a UdpRegistry,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator for one visualization.
    pub fn new(viz: &'a VizData, params: &'a ScoreParams, udps: &'a UdpRegistry) -> Self {
        Self { viz, params, udps }
    }

    /// Scores an arbitrary query node over inclusive point range `[i, j]`.
    pub fn eval_node(
        &self,
        q: &ShapeQuery,
        i: usize,
        j: usize,
        pos: Option<PosContext<'_>>,
    ) -> f64 {
        debug_assert!(j > i && j < self.viz.n());
        match q {
            ShapeQuery::Segment(s) => self.eval_segment(s, i, j, pos),
            ShapeQuery::And(cs) => combine_and(cs.iter().map(|c| self.eval_node(c, i, j, pos))),
            ShapeQuery::Or(cs) => combine_or(cs.iter().map(|c| self.eval_node(c, i, j, pos))),
            ShapeQuery::Not(c) => combine_not(self.eval_node(c, i, j, pos)),
            // A nested CONCAT segments its assigned range optimally.
            ShapeQuery::Concat(_) => crate::chain::expand_chains(q)
                .iter()
                .map(|chain| crate::algo::dp::solve_chain(self, chain, i, j).score)
                .fold(-1.0, f64::max),
        }
    }

    /// Scores a single ShapeSegment over `[i, j]`.
    pub fn eval_segment(
        &self,
        s: &ShapeSegment,
        i: usize,
        j: usize,
        pos: Option<PosContext<'_>>,
    ) -> f64 {
        // Part 1 (§5.2): LOCATION and hard-constraint checks.
        if !self.location_satisfied(s, i, j) {
            return -1.0;
        }

        // Part 2: pattern / sketch / target-line similarity, accumulated
        // without a component buffer (this runs once per candidate window
        // on the hot path; the sum/count average keeps the single- and
        // two-component results bit-identical to the old Vec path).
        let mut sum = 0.0f64;
        let mut count = 0usize;
        if let Some(p) = &s.pattern {
            sum += self.pattern_score(p, s.modifier, i, j, pos);
            count += 1;
        }
        if let Some(v) = &s.sketch {
            sum += self.sketch_score(v, i, j);
            count += 1;
        }
        if count == 0 {
            if let Some(target) = self.target_line_slope(s, i, j) {
                // Location-only segment with y endpoints: match the implied
                // line segment.
                sum += SlopeLeaf::theta(target).at(self.viz.slope(i, j).atan());
            } else {
                // Location-only constraints already satisfied: wildcard.
                sum += 1.0;
            }
            count += 1;
        }
        let score = sum / count as f64;
        // Optional minimum-segment-width fit term (off by default): a
        // segment too narrow to be perceptual evidence cannot claim a
        // strong score, which blocks the degenerate
        // steep-sliver/flat/steep-sliver CONCAT segmentations.
        let score = score::width_penalty(
            score,
            self.viz.xs()[j] - self.viz.xs()[i],
            self.params.min_width_frac,
        );
        clamp_score(score)
    }

    /// [`Evaluator::eval_node`] specialized to a [`SlopeLeaf`]:
    /// bit-identical to the general walk (same slope bits from the
    /// prefix columns, same score function, same width penalty and
    /// clamp), minus all the dispatch the leaf can't reach.
    #[inline]
    pub fn eval_slope_leaf(&self, leaf: SlopeLeaf, i: usize, j: usize) -> f64 {
        leaf.eval_at(
            self.viz.slope(i, j).atan(),
            self.viz.xs()[j] - self.viz.xs()[i],
            self.params.min_width_frac,
        )
    }

    /// Scores `q` over `[i, j]` through the leaf fast path when `leaf`
    /// (its precomputed classification) allows, the general walk
    /// otherwise. The segmenters pass a chain unit's
    /// [`Unit::leaf`](crate::chain::Unit::leaf).
    #[inline]
    pub fn eval_unit(&self, leaf: Option<SlopeLeaf>, q: &ShapeQuery, i: usize, j: usize) -> f64 {
        match leaf {
            Some(l) => self.eval_slope_leaf(l, i, j),
            None => self.eval_node(q, i, j, None),
        }
    }

    /// Batched leaf evaluation: scores of windows `[s, e]` for every `e`
    /// in `e_lo..=e_hi`, written to `out` (cleared first). One streaming
    /// pass of the window-slope kernel followed by a dispatch-free score
    /// map — the DP inner loop's whole candidate set per call, each
    /// entry bit-identical to `eval_node` over the same window.
    pub fn eval_leaf_run(
        &self,
        leaf: SlopeLeaf,
        s: usize,
        e_lo: usize,
        e_hi: usize,
        out: &mut Vec<f64>,
    ) {
        self.viz
            .arena()
            .window_slopes(self.viz.slot(), s, e_lo, e_hi, out);
        let xs = self.viz.xs();
        let min_width = self.params.min_width_frac;
        for (k, v) in out.iter_mut().enumerate() {
            *v = leaf.eval_at(v.atan(), xs[e_lo + k] - xs[s], min_width);
        }
    }

    /// Checks the hard LOCATION constraints (x pins verified against the
    /// placement, y endpoints against the fitted line).
    fn location_satisfied(&self, s: &ShapeSegment, i: usize, j: usize) -> bool {
        if let Some(xs) = s.location.x_start {
            if self.viz.x_to_index(xs) != i {
                return false;
            }
        }
        if let Some(xe) = s.location.x_end {
            if self.viz.x_to_index(xe) != j {
                return false;
            }
        }
        if s.location.y_start.is_none() && s.location.y_end.is_none() {
            // No y endpoints: skip the fitted-line computation entirely.
            return true;
        }
        let stats = self.viz.range_stats(i, j);
        let (slope, intercept) = (stats.slope(), stats.intercept());
        let tol = self.params.y_tolerance;
        if let Some(ys) = s.location.y_start {
            let fitted = intercept + slope * self.viz.xs()[i];
            if (fitted - self.viz.norm_y(ys)).abs() > tol {
                return false;
            }
        }
        if let Some(ye) = s.location.y_end {
            let fitted = intercept + slope * self.viz.xs()[j];
            if (fitted - self.viz.norm_y(ye)).abs() > tol {
                return false;
            }
        }
        true
    }

    /// The slope (in degrees) of the line implied by y.s/y.e over the range,
    /// when both are present.
    fn target_line_slope(&self, s: &ShapeSegment, i: usize, j: usize) -> Option<f64> {
        let (ys, ye) = (s.location.y_start?, s.location.y_end?);
        let dx = self.viz.xs()[j] - self.viz.xs()[i];
        if dx <= 0.0 {
            return None;
        }
        let slope = (self.viz.norm_y(ye) - self.viz.norm_y(ys)) / dx;
        Some(slope.atan().to_degrees())
    }

    /// Scores a pattern (with its modifier) over `[i, j]`. A slope pattern
    /// scores its Table-5 row ([`pattern_row`]) unless a sharp or gradual
    /// modifier reshapes `up` or `down`.
    fn pattern_score(
        &self,
        p: &Pattern,
        modifier: Option<Modifier>,
        i: usize,
        j: usize,
        pos: Option<PosContext<'_>>,
    ) -> f64 {
        if let Some(Modifier::Quantifier { min, max }) = modifier {
            return self.quantifier_score(p, min, max, i, j);
        }
        let slope = self.viz.slope(i, j);
        let (sharp, gradual) = (self.params.sharp_angle_deg, self.params.gradual_angle_deg);
        match (p, modifier) {
            // Sharp is monotone in steepness; gradual peaks at the
            // gradual angle (steeper is no longer "gradual").
            (Pattern::Up, Some(Modifier::MuchMore)) => score::score_sharp_up(slope, sharp),
            (Pattern::Up, Some(Modifier::More(None))) => SlopeLeaf::theta(gradual).at(slope.atan()),
            (Pattern::Down, Some(Modifier::MuchMore | Modifier::MuchLess)) => {
                score::score_sharp_down(slope, sharp)
            }
            (Pattern::Down, Some(Modifier::More(None) | Modifier::Less(None))) => {
                SlopeLeaf::theta(-gradual).at(slope.atan())
            }
            (Pattern::Udp(name), _) => match self.udps.get(name) {
                Some(f) => clamp_score(f(&self.viz.ys()[i..=j])),
                None => -1.0,
            },
            (Pattern::Position(r), _) => self.position_score(*r, modifier, slope, pos),
            (Pattern::Nested(q), _) => self.eval_node(q, i, j, pos),
            _ => pattern_row(p)
                .expect("every other pattern is a slope row")
                .at(slope.atan()),
        }
    }

    /// Scores a POSITION reference: compares this range's slope against the
    /// referenced unit's slope under the comparison modifier. Neutral (0)
    /// when no placement context exists yet.
    fn position_score(
        &self,
        r: PosRef,
        modifier: Option<Modifier>,
        slope: f64,
        pos: Option<PosContext<'_>>,
    ) -> f64 {
        let Some(ctx) = pos else { return 0.0 };
        let target = match r {
            PosRef::Absolute(k) => k,
            PosRef::Prev => {
                if ctx.current == 0 {
                    return -1.0;
                }
                ctx.current - 1
            }
            PosRef::Next => ctx.current + 1,
        };
        let Some(&ref_slope) = ctx.slopes.get(target) else {
            return -1.0;
        };
        match modifier {
            None | Some(Modifier::Similar) => {
                clamp_score(1.0 - 4.0 * (slope.atan() - ref_slope.atan()).abs() / PI)
            }
            Some(Modifier::More(f)) => {
                clamp_score(2.0 * (slope - f.unwrap_or(1.0) * ref_slope).atan() / PI)
            }
            Some(Modifier::MuchMore) => clamp_score(2.0 * (slope - 2.0 * ref_slope).atan() / PI),
            Some(Modifier::Less(f)) => {
                clamp_score(2.0 * (f.unwrap_or(1.0) * ref_slope - slope).atan() / PI)
            }
            Some(Modifier::MuchLess) => clamp_score(2.0 * (0.5 * ref_slope - slope).atan() / PI),
            Some(Modifier::Quantifier { .. }) => -1.0, // nonsensical combination
        }
    }

    /// Quantifier scoring (§5.2): finds pattern occurrences inside `[i, j]`,
    /// checks the count against the bounds, and averages the strongest
    /// `min` occurrence scores.
    fn quantifier_score(
        &self,
        p: &Pattern,
        min: Option<u32>,
        max: Option<u32>,
        i: usize,
        j: usize,
    ) -> f64 {
        let mut occurrences = self.find_occurrences(p, i, j);
        let count = occurrences.len() as u32;
        if let Some(lo) = min {
            if count < lo {
                return -1.0;
            }
        }
        if let Some(hi) = max {
            if count > hi {
                return -1.0;
            }
        }
        if occurrences.is_empty() {
            // Zero occurrences satisfying an at-most bound: score by how
            // clearly the pattern is absent (strongest interval, negated).
            let mut best = -1.0f64;
            for t in i..j {
                best = best.max(self.pattern_score(p, None, t, t + 1, None));
            }
            return clamp_score(-best);
        }
        // Average the strongest `needed` occurrences, where `needed` is the
        // minimum count that satisfies the constraint.
        occurrences.sort_by(|a, b| b.1.total_cmp(&a.1));
        let needed = min.unwrap_or(count).max(1).min(count) as usize;
        let sum: f64 = occurrences[..needed].iter().map(|o| o.1).sum();
        clamp_score(sum / needed as f64)
    }

    /// Finds disjoint occurrences `(range, score)` of a pattern in `[i, j]`.
    ///
    /// For leaf patterns this merges maximal runs of intervals whose
    /// interval-level pattern score is above the quantifier threshold; for
    /// nested patterns it greedily matches minimal positive windows and
    /// extends them while the score improves.
    fn find_occurrences(&self, p: &Pattern, i: usize, j: usize) -> Vec<((usize, usize), f64)> {
        let thr = self.params.quantifier_threshold;
        match p {
            Pattern::Nested(q) => {
                let mut out = Vec::new();
                let mut s = i;
                while s < j {
                    let mut matched = None;
                    for e in (s + 1)..=j {
                        let sc = self.eval_node(q, s, e, None);
                        if sc > thr {
                            // Extend while the score keeps improving.
                            let mut best_e = e;
                            let mut best_sc = sc;
                            for e2 in (e + 1)..=j {
                                let sc2 = self.eval_node(q, s, e2, None);
                                if sc2 >= best_sc {
                                    best_e = e2;
                                    best_sc = sc2;
                                } else {
                                    break;
                                }
                            }
                            matched = Some((best_e, best_sc));
                            break;
                        }
                    }
                    match matched {
                        Some((e, sc)) => {
                            out.push(((s, e), sc));
                            s = e;
                        }
                        None => s += 1,
                    }
                }
                out
            }
            _ => {
                // Maximal runs of positive interval-level scores; the
                // per-interval scores come from one batched kernel pass.
                let mut scores = Vec::new();
                self.interval_leaf_scores(p, i, j, &mut scores);
                let mut out = Vec::new();
                let mut run_start: Option<usize> = None;
                for t in i..j {
                    let sc = scores[t - i];
                    if sc > thr {
                        run_start.get_or_insert(t);
                    } else if let Some(rs) = run_start.take() {
                        let merged = self.pattern_score(p, None, rs, t, None);
                        if merged > thr {
                            out.push(((rs, t), merged));
                        }
                    }
                }
                if let Some(rs) = run_start {
                    let merged = self.pattern_score(p, None, rs, j, None);
                    if merged > thr {
                        out.push(((rs, j), merged));
                    }
                }
                out
            }
        }
    }

    /// The modifier-free [`Self::pattern_score`] of every adjacent
    /// interval `[t, t+1]`, `t` in `i..j`, written to `out` (cleared
    /// first) — a slope row maps the batched interval kernel's slopes,
    /// anything else is scored an interval at a time.
    fn interval_leaf_scores(&self, p: &Pattern, i: usize, j: usize, out: &mut Vec<f64>) {
        match pattern_row(p) {
            Some(row) => {
                self.viz
                    .arena()
                    .interval_slopes_in(self.viz.slot(), i, j, out);
                out.iter_mut().for_each(|v| *v = row.at(v.atan()));
            }
            None => {
                out.clear();
                out.extend((i..j).map(|t| self.pattern_score(p, None, t, t + 1, None)));
            }
        }
    }

    /// Precise sketch matching over `[i, j]`: the sketch's y values (raw
    /// domain) are normalized, resampled to the range length, and compared
    /// by L2 distance, normalized into [−1, 1] (§5.2).
    fn sketch_score(&self, sketch: &[(f64, f64)], i: usize, j: usize) -> f64 {
        if sketch.len() < 2 {
            return -1.0;
        }
        let target: Vec<f64> = sketch.iter().map(|&(_, y)| self.viz.norm_y(y)).collect();
        let window = &self.viz.ys()[i..=j];
        let resampled = resample_linear(&target, window.len());
        let dist = shapesearch_similarity::euclidean(&resampled, window);
        let scale = self.params.sketch_distance_scale * (window.len() as f64).sqrt();
        normalized_similarity(dist, scale)
    }
}

/// Final score of a chain under a concrete segmentation, re-resolving any
/// POSITION references against the placed units' slopes.
pub fn chain_score_with_positions(
    ev: &Evaluator<'_>,
    chain: &Chain,
    ranges: &[(usize, usize)],
) -> f64 {
    debug_assert_eq!(chain.len(), ranges.len());
    let slopes: Vec<f64> = ranges.iter().map(|&(i, j)| ev.viz.slope(i, j)).collect();
    let mut total = 0.0;
    for (idx, (unit, &(i, j))) in chain.units.iter().zip(ranges).enumerate() {
        let ctx = PosContext {
            slopes: &slopes,
            current: idx,
        };
        total += unit.weight * ev.eval_node(&unit.query, i, j, Some(ctx));
    }
    clamp_score(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Location;
    use shapesearch_datastore::Trendline;

    fn viz(pairs: &[(f64, f64)]) -> VizData {
        VizData::from_trendline(&Trendline::from_pairs("t", pairs), 0, 1).unwrap()
    }

    fn rising() -> VizData {
        viz(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)])
    }

    fn peak() -> VizData {
        viz(&[(0.0, 0.0), (1.0, 2.0), (2.0, 4.0), (3.0, 2.0), (4.0, 0.0)])
    }

    struct Ctx {
        params: ScoreParams,
        udps: UdpRegistry,
    }

    impl Ctx {
        fn new() -> Self {
            Self {
                params: ScoreParams::default(),
                udps: UdpRegistry::new(),
            }
        }
        fn ev<'a>(&'a self, v: &'a VizData) -> Evaluator<'a> {
            Evaluator::new(v, &self.params, &self.udps)
        }
    }

    #[test]
    fn up_matches_rising_viz() {
        let c = Ctx::new();
        let v = rising();
        let ev = c.ev(&v);
        let s = ev.eval_node(&ShapeQuery::up(), 0, 4, None);
        assert!(s > 0.4, "score {s}");
        let d = ev.eval_node(&ShapeQuery::down(), 0, 4, None);
        assert!(d < -0.4);
    }

    #[test]
    fn or_takes_best_and_takes_worst() {
        let c = Ctx::new();
        let v = rising();
        let ev = c.ev(&v);
        let or = ShapeQuery::Or(vec![ShapeQuery::up(), ShapeQuery::down()]);
        let and = ShapeQuery::And(vec![ShapeQuery::up(), ShapeQuery::down()]);
        let up = ev.eval_node(&ShapeQuery::up(), 0, 4, None);
        assert_eq!(ev.eval_node(&or, 0, 4, None), up);
        assert_eq!(ev.eval_node(&and, 0, 4, None), -up);
        let not = ShapeQuery::Not(Box::new(ShapeQuery::down()));
        assert_eq!(ev.eval_node(&not, 0, 4, None), up);
    }

    #[test]
    fn nested_concat_segments_the_range() {
        let c = Ctx::new();
        let v = peak();
        let ev = c.ev(&v);
        let q = ShapeQuery::concat(vec![ShapeQuery::up(), ShapeQuery::down()]);
        let s = ev.eval_node(&q, 0, 4, None);
        assert!(s > 0.5, "peak should match up⊗down strongly, got {s}");
    }

    #[test]
    fn y_constraints_are_hard() {
        let c = Ctx::new();
        let v = rising(); // raw y from 0 to 4
        let ev = c.ev(&v);
        let ok = ShapeSegment {
            location: Location {
                y_start: Some(0.0),
                y_end: Some(4.0),
                ..Location::default()
            },
            pattern: Some(Pattern::Up),
            ..ShapeSegment::default()
        };
        assert!(ev.eval_segment(&ok, 0, 4, None) > 0.0);
        let bad = ShapeSegment {
            location: Location {
                y_start: Some(4.0), // claims it starts high — it doesn't
                ..Location::default()
            },
            pattern: Some(Pattern::Up),
            ..ShapeSegment::default()
        };
        assert_eq!(ev.eval_segment(&bad, 0, 4, None), -1.0);
    }

    #[test]
    fn location_only_segment_with_y_matches_line() {
        let c = Ctx::new();
        let v = rising();
        let ev = c.ev(&v);
        let line = ShapeSegment {
            location: Location {
                y_start: Some(0.0),
                y_end: Some(4.0),
                ..Location::default()
            },
            ..ShapeSegment::default()
        };
        let s = ev.eval_segment(&line, 0, 4, None);
        assert!(s > 0.9, "exact line match should be ~1, got {s}");
    }

    #[test]
    fn x_pin_mismatch_scores_minus_one() {
        let c = Ctx::new();
        let v = rising();
        let ev = c.ev(&v);
        let seg = ShapeSegment::pinned(Pattern::Up, 0.0, 2.0);
        assert!(ev.eval_segment(&seg, 0, 2, None) > 0.0);
        assert_eq!(ev.eval_segment(&seg, 0, 4, None), -1.0);
    }

    #[test]
    fn sharp_vs_gradual_modifiers() {
        let c = Ctx::new();
        // Steep rise: y goes 0..100 over x 0..4 on canvas = slope after
        // normalization is 1 over the whole range; sub-range [0,1] is x=0.25
        // wide and y spans 0.9 of the range -> steep.
        let v = viz(&[
            (0.0, 0.0),
            (1.0, 90.0),
            (2.0, 92.0),
            (3.0, 95.0),
            (4.0, 100.0),
        ]);
        let ev = c.ev(&v);
        let sharp = ShapeSegment::pattern(Pattern::Up).with_modifier(Modifier::MuchMore);
        let s_steep = ev.eval_segment(&sharp, 0, 1, None);
        let s_shallow = ev.eval_segment(&sharp, 1, 3, None);
        assert!(s_steep > s_shallow, "{s_steep} vs {s_shallow}");
        let gradual = ShapeSegment::pattern(Pattern::Up).with_modifier(Modifier::More(None));
        let g_shallow = ev.eval_segment(&gradual, 1, 4, None);
        let g_steep = ev.eval_segment(&gradual, 0, 1, None);
        assert!(g_shallow > g_steep, "{g_shallow} vs {g_steep}");
    }

    #[test]
    fn quantifier_counts_two_peaks() {
        let c = Ctx::new();
        // Two clear peaks.
        let v = viz(&[(0.0, 0.0), (1.0, 5.0), (2.0, 0.5), (3.0, 5.5), (4.0, 0.0)]);
        let ev = c.ev(&v);
        let two_ups = ShapeSegment::pattern(Pattern::Up).with_modifier(Modifier::exactly(2));
        let s = ev.eval_segment(&two_ups, 0, 4, None);
        assert!(s > 0.5, "two rises should satisfy m=2, got {s}");
        let three_ups = ShapeSegment::pattern(Pattern::Up).with_modifier(Modifier::exactly(3));
        assert_eq!(ev.eval_segment(&three_ups, 0, 4, None), -1.0);
        let at_most_2_downs =
            ShapeSegment::pattern(Pattern::Down).with_modifier(Modifier::at_most(2));
        assert!(ev.eval_segment(&at_most_2_downs, 0, 4, None) > 0.0);
    }

    #[test]
    fn quantifier_zero_occurrences_at_most() {
        let c = Ctx::new();
        let v = rising();
        let ev = c.ev(&v);
        // "falls at most once" on a monotone rise: zero falls, satisfied,
        // and clearly so.
        let seg = ShapeSegment::pattern(Pattern::Down).with_modifier(Modifier::at_most(1));
        let s = ev.eval_segment(&seg, 0, 4, None);
        assert!(s > 0.0, "satisfied at-most with zero occurrences: {s}");
        // "rises at least once" must fail on a monotone fall.
        let v2 = viz(&[(0.0, 4.0), (1.0, 3.0), (2.0, 2.0), (3.0, 1.0), (4.0, 0.0)]);
        let ev2 = c.ev(&v2);
        let seg2 = ShapeSegment::pattern(Pattern::Up).with_modifier(Modifier::at_least(1));
        assert_eq!(ev2.eval_segment(&seg2, 0, 4, None), -1.0);
    }

    #[test]
    fn nested_quantifier_counts_peaks() {
        let c = Ctx::new();
        let v = viz(&[
            (0.0, 0.0),
            (1.0, 5.0),
            (2.0, 0.5),
            (3.0, 5.5),
            (4.0, 0.2),
            (5.0, 4.8),
            (6.0, 0.0),
        ]);
        let ev = c.ev(&v);
        let peak = Pattern::Nested(Box::new(ShapeQuery::concat(vec![
            ShapeQuery::up(),
            ShapeQuery::down(),
        ])));
        let seg = ShapeSegment::pattern(peak.clone()).with_modifier(Modifier::at_least(2));
        let s = ev.eval_segment(&seg, 0, 6, None);
        assert!(s > 0.3, "three peaks satisfy at-least-2, got {s}");
        let seg4 = ShapeSegment::pattern(peak).with_modifier(Modifier::at_least(4));
        assert_eq!(ev.eval_segment(&seg4, 0, 6, None), -1.0);
    }

    #[test]
    fn udp_lookup_and_missing() {
        let mut c = Ctx::new();
        c.udps
            .register("always_half", Arc::new(|_ys: &[f64]| 0.5) as UdpFn);
        let v = rising();
        let ev = c.ev(&v);
        let good = ShapeSegment::pattern(Pattern::Udp("always_half".into()));
        assert_eq!(ev.eval_segment(&good, 0, 4, None), 0.5);
        let missing = ShapeSegment::pattern(Pattern::Udp("nope".into()));
        assert_eq!(ev.eval_segment(&missing, 0, 4, None), -1.0);
    }

    #[test]
    fn sketch_scores_similarity() {
        let c = Ctx::new();
        let v = peak();
        let ev = c.ev(&v);
        let match_sketch = ShapeSegment {
            sketch: Some(vec![
                (0.0, 0.0),
                (1.0, 2.0),
                (2.0, 4.0),
                (3.0, 2.0),
                (4.0, 0.0),
            ]),
            ..ShapeSegment::default()
        };
        let anti_sketch = ShapeSegment {
            sketch: Some(vec![
                (0.0, 4.0),
                (1.0, 2.0),
                (2.0, 0.0),
                (3.0, 2.0),
                (4.0, 4.0),
            ]),
            ..ShapeSegment::default()
        };
        let s_match = ev.eval_segment(&match_sketch, 0, 4, None);
        let s_anti = ev.eval_segment(&anti_sketch, 0, 4, None);
        assert!(s_match > 0.9, "exact sketch should score ~1, got {s_match}");
        assert!(s_anti < s_match);
    }

    #[test]
    fn position_refs_need_context() {
        let c = Ctx::new();
        let v = rising();
        let ev = c.ev(&v);
        let seg = ShapeSegment::pattern(Pattern::Position(PosRef::Absolute(0)))
            .with_modifier(Modifier::Less(None));
        // No context: neutral.
        assert_eq!(ev.eval_segment(&seg, 0, 2, None), 0.0);
        // With context: slope(2..4)=1 vs referenced slope 3 ⇒ "less" holds.
        let slopes = vec![3.0, 1.0];
        let ctx = PosContext {
            slopes: &slopes,
            current: 1,
        };
        let s = ev.eval_segment(&seg, 2, 4, Some(ctx));
        assert!(s > 0.5, "slope 1 < 3 should satisfy <, got {s}");
        // More should fail.
        let seg_more = ShapeSegment::pattern(Pattern::Position(PosRef::Absolute(0)))
            .with_modifier(Modifier::More(None));
        assert!(ev.eval_segment(&seg_more, 2, 4, Some(ctx)) < 0.0);
    }

    #[test]
    fn chain_score_with_positions_resolves_refs() {
        let c = Ctx::new();
        // Steep rise then gentle rise.
        let v = viz(&[
            (0.0, 0.0),
            (1.0, 80.0),
            (2.0, 85.0),
            (3.0, 90.0),
            (4.0, 95.0),
        ]);
        let ev = c.ev(&v);
        let q = ShapeQuery::concat(vec![
            ShapeQuery::up(),
            ShapeQuery::Segment(
                ShapeSegment::pattern(Pattern::Position(PosRef::Absolute(0)))
                    .with_modifier(Modifier::Less(None)),
            ),
        ]);
        let chains = crate::chain::expand_chains(&q);
        let score = chain_score_with_positions(&ev, &chains[0], &[(0, 1), (1, 4)]);
        assert!(score > 0.5, "slowing rise matches [up][$0,<]: {score}");
    }

    #[test]
    fn any_pattern_is_always_one() {
        let c = Ctx::new();
        let v = peak();
        let ev = c.ev(&v);
        assert_eq!(
            ev.eval_segment(&ShapeSegment::pattern(Pattern::Any), 0, 4, None),
            1.0
        );
        // A bare segment (no primitives) is a wildcard too.
        assert_eq!(ev.eval_segment(&ShapeSegment::default(), 0, 4, None), 1.0);
    }
}
