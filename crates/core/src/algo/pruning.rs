//! Two-stage collective pruning (paper §6.3), as an **incremental,
//! exactness-preserving driver** every exact segmenter composes with.
//!
//! Stage 1 scores a small strided sample of the collection **exactly**
//! (the paper scores a coarsened subset; scoring exactly costs the same
//! asymptotics and makes the resulting threshold a *proven* lower bound
//! on the final top-k score, which is what keeps pruning byte-identical).
//! Stage 2 processes the rest: for each visualization an O(1) score upper
//! bound is derived from the GROUP-time interval-slope extremes
//! (Theorem 6.4 / Table 7 — the final score of a pattern is bounded by
//! the extreme scores of that pattern across any level of the
//! SegmentTree), and visualizations whose upper bound falls strictly
//! below the current proven top-k threshold are skipped without
//! segmentation. Survivors are scored exactly and tighten the threshold
//! online.
//!
//! The threshold lives in a [`ThresholdCell`] — an atomic-`f64`
//! (`AtomicU64` bit-cast) max register shared across every executor of
//! one query: parallel viz chunks, the shards of a
//! [`crate::ShardedEngine`], and the server's compute-pool shard tasks
//! all publish into and consume from the same cell, so any executor's
//! progress prunes work everywhere else. The cell also carries an
//! unproven **hint** slot (a remote router's `threshold_hint`): pruning
//! uses `max(proven, hint)`, but any prune justified only by the hint is
//! recorded in a third max register so the hint's sender can verify the
//! merged answer against it and retry hint-less if the hint turned out
//! too aggressive — a stale or poisoned hint can therefore never
//! silently drop a true top-k result.
//!
//! The pruning "helps avoid processing until the root node for the
//! majority of visualizations ... particularly effective when the user is
//! looking for visualizations with rare (needle-in-the-haystack)
//! patterns".

use crate::algo::SegmenterKind;
use crate::ast::{Pattern, ShapeQuery, ShapeSegment};
use crate::engine::group::VizData;
use crate::engine::observe::{EngineStage, StageObserver, NOOP_OBSERVER};
use crate::score::{score_down, score_flat, score_theta, score_up, ScoreParams};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Budget of consecutive *non-pruning* bound computations a query's
/// executors will pay before concluding the workload is unprunable and
/// entering skip mode (any successful prune refills the budget in full).
/// Sized so a prunable workload never skips — on one the budget refills
/// long before it drains — while an unprunable one caps its bound
/// overhead at roughly this many bound passes plus the probes below.
const BOUND_CREDITS: i64 = 64;

/// In skip mode, one candidate in this many still pays a probe bound so
/// a regime change — the threshold has risen, or a run of weak
/// candidates arrived — is noticed and full-rate bounding resumes (a
/// probe that prunes refills the credit budget).
const PROBE_STRIDE: u64 = 64;

/// Configuration of the two-stage pruning driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruningConfig {
    /// Stage-1 sample size: how many strided visualizations are scored
    /// exactly up front to establish the initial proven threshold.
    /// Sampling is skipped for collections that are not meaningfully
    /// larger than the sample (the online tightening covers them).
    pub sample_size: usize,
}

impl Default for PruningConfig {
    fn default() -> Self {
        Self { sample_size: 16 }
    }
}

/// When the engine applies §6.3 bound pruning. Pruning never changes
/// results — it only skips visualizations that provably cannot enter the
/// top k — so this knob trades bound-computation overhead against
/// skipped segmentation work, exactly like the scheduling knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PruningMode {
    /// Prune for the exact segmenters (DP and SegmentTree), whose scores the Theorem 6.4 bounds provably dominate. The
    /// default.
    #[default]
    Auto,
    /// Never prune: every candidate is segmented in full.
    Off,
    /// Also prune for the greedy segmenter: its score never exceeds the
    /// DP optimum, so the same upper bounds remain sound. The
    /// whole-series baselines (DTW/Euclidean) score on a different scale
    /// the slope bounds say nothing about and are never pruned.
    Force,
}

impl PruningMode {
    /// Parses the short CLI / wire name of a mode.
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "auto" => Some(Self::Auto),
            "off" => Some(Self::Off),
            "force" => Some(Self::Force),
            _ => None,
        }
    }

    /// The canonical short name ([`Self::parse`] round-trips it).
    pub fn name(self) -> &'static str {
        match self {
            Self::Auto => "auto",
            Self::Off => "off",
            Self::Force => "force",
        }
    }

    /// Whether bound pruning applies to `kind` under this mode (see the
    /// variant docs for the soundness argument per segmenter).
    pub fn active_for(self, kind: SegmenterKind) -> bool {
        match self {
            Self::Off => false,
            Self::Auto => matches!(kind, SegmenterKind::Dp | SegmenterKind::SegmentTree),
            Self::Force => !matches!(kind, SegmenterKind::Dtw | SegmenterKind::Euclidean),
        }
    }
}

/// Bit-cast storage for an atomic max register over `f64` scores.
/// `NEG_INFINITY` is the empty value; `raise` ignores `NaN` (a score
/// comparison against `NaN` could otherwise wedge the register).
/// Relaxed ordering suffices: the register is monotone and a stale read
/// only forgoes a prune, never unsoundness.
fn raise_max(slot: &AtomicU64, value: f64) {
    if value.is_nan() || value == f64::NEG_INFINITY {
        return;
    }
    let mut current = slot.load(Ordering::Relaxed);
    while f64::from_bits(current) < value {
        match slot.compare_exchange_weak(
            current,
            value.to_bits(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return,
            Err(seen) => current = seen,
        }
    }
}

fn load_f64(slot: &AtomicU64) -> f64 {
    f64::from_bits(slot.load(Ordering::Relaxed))
}

/// A score wrapped for total-order use in the shared score pool.
#[derive(Debug, PartialEq)]
struct OrdScore(f64);

impl Eq for OrdScore {}

impl Ord for OrdScore {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for OrdScore {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The *global* k-best scores offered by every executor of one query.
/// Local per-executor top-ks only know their own partition's k-th best;
/// pooling the exact scores across executors proves the true global
/// k-th, which is a much tighter pruning threshold when the strong
/// candidates are spread across shards.
#[derive(Debug, Default)]
struct ScorePool {
    /// The query's k; fixed by the first offer (every executor of one
    /// query shares the same k).
    k: usize,
    /// Min-heap of the k best scores seen so far.
    heap: std::collections::BinaryHeap<std::cmp::Reverse<OrdScore>>,
}

/// The live top-k threshold of one query, shared by every executor
/// working on it (parallel chunks, engine shards, compute-pool tasks).
///
/// Three inputs feed it:
/// * [`Self::offer`] pools an exactly computed candidate score; once k
///   scores have been pooled, the pool's k-th best becomes the
///   **proven** threshold (k candidates with at least that score exist,
///   so anything provably below it is out). Prunes justified by the
///   proven value alone are unconditionally sound.
/// * [`Self::raise`] directly publishes an externally proven lower
///   bound (e.g. the k-th of an already-merged partial).
/// * [`Self::seed_hint`] plants an **unproven** hint (a remote caller's
///   `threshold_hint`). Pruning consumes `max(proven, hint)`, but every
///   prune the proven value alone would not have justified is recorded
///   via [`Self::note_hint_prune`]; [`Self::hint_pruned`] exposes the
///   largest such upper bound so the hint's sender can verify its merged
///   answer clears it (and recompute hint-less when it does not).
#[derive(Debug)]
pub struct ThresholdCell {
    proven: AtomicU64,
    hint: AtomicU64,
    hint_pruned: AtomicU64,
    pool: std::sync::Mutex<ScorePool>,
    /// Remaining non-pruning bound computations before skip mode (see
    /// [`BOUND_CREDITS`]). Shared like the threshold itself: once any
    /// executor of the query proves the workload unprunable, all of them
    /// stop paying for bounds.
    bound_credits: AtomicI64,
    /// Skip-mode candidate counter driving the [`PROBE_STRIDE`] probes.
    probe_ticket: AtomicU64,
}

impl Default for ThresholdCell {
    fn default() -> Self {
        Self::new()
    }
}

impl ThresholdCell {
    /// An empty cell: no threshold, no hint, nothing hint-pruned.
    pub fn new() -> Self {
        Self {
            proven: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            hint: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            hint_pruned: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            pool: std::sync::Mutex::new(ScorePool::default()),
            bound_credits: AtomicI64::new(BOUND_CREDITS),
            probe_ticket: AtomicU64::new(0),
        }
    }

    /// Whether the §6.3 bound pass is currently worth paying for: `true`
    /// while credit remains, else `true` only for the periodic skip-mode
    /// probe. Skipping the bound pass never changes results — an
    /// unbounded candidate is simply scored in full, exactly as if its
    /// bound had not pruned — so this is purely an overhead/benefit
    /// trade, which is why a cheap racy heuristic is sound here.
    fn bound_pass_admitted(&self) -> bool {
        if self.bound_credits.load(Ordering::Relaxed) > 0 {
            return true;
        }
        self.probe_ticket
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(PROBE_STRIDE)
    }

    /// Feeds one bound outcome back into the adaptive gate: a prune
    /// refills the credit budget (the pass is paying for itself), a miss
    /// drains one credit toward skip mode.
    fn note_bound_outcome(&self, pruned: bool) {
        if pruned {
            self.bound_credits.store(BOUND_CREDITS, Ordering::Relaxed);
        } else {
            self.bound_credits.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Pools one exactly computed candidate score toward the proven
    /// global k-th best. `k` must be the query's k (identical across
    /// every executor of the query); `k == 0` is ignored. NaN scores
    /// are ignored (nothing can be proven from them).
    pub fn offer(&self, score: f64, k: usize) {
        if k == 0 || score.is_nan() {
            return;
        }
        // Lock-free fast path: a score at or below the already-proven
        // threshold can never raise the pool's k-th above it (any pool
        // containing it has a k-th ≤ that score), so skip the mutex —
        // on low-prune workloads this is every candidate once the
        // threshold stabilizes, which keeps parallel executors from
        // serializing on the pool lock.
        if score <= load_f64(&self.proven) {
            return;
        }
        let mut pool = self.pool.lock().expect("threshold score pool");
        if pool.heap.is_empty() {
            pool.k = k;
        }
        debug_assert_eq!(pool.k, k, "one query, one k");
        // Skip scores that provably cannot raise the k-th best.
        if pool.heap.len() == pool.k {
            let floor = pool.heap.peek().expect("non-empty full pool").0 .0;
            if score <= floor {
                return;
            }
        }
        pool.heap.push(std::cmp::Reverse(OrdScore(score)));
        if pool.heap.len() > pool.k {
            pool.heap.pop();
        }
        if pool.heap.len() == pool.k {
            let kth = pool.heap.peek().expect("full pool").0 .0;
            raise_max(&self.proven, kth);
        }
    }

    /// The effective pruning threshold: `max(proven, hint)`, or
    /// `NEG_INFINITY` when neither has been set.
    pub fn get(&self) -> f64 {
        load_f64(&self.proven).max(load_f64(&self.hint))
    }

    /// The proven component alone (what gets forwarded as a remote
    /// `threshold_hint` seed alongside any received hint).
    pub fn proven(&self) -> f64 {
        load_f64(&self.proven)
    }

    /// Publishes a proven k-th-best score; only ever raises.
    pub fn raise(&self, value: f64) {
        raise_max(&self.proven, value);
    }

    /// Plants an unproven hint; only ever raises.
    pub fn seed_hint(&self, value: f64) {
        raise_max(&self.hint, value);
    }

    /// Records the upper bound of a prune that only the hint justified.
    pub fn note_hint_prune(&self, upper_bound: f64) {
        raise_max(&self.hint_pruned, upper_bound);
    }

    /// The largest upper bound among hint-justified prunes, if any. A
    /// verifier holding the final merged top k is safe iff it has `k`
    /// results and the k-th score is **strictly** above this value
    /// (strictness covers ties: an equal-scoring pruned candidate could
    /// still have displaced the k-th by index order).
    pub fn hint_pruned(&self) -> Option<f64> {
        let value = load_f64(&self.hint_pruned);
        (value > f64::NEG_INFINITY).then_some(value)
    }
}

/// Shared pruning effectiveness counters (`/healthz`-style gauges), one
/// set per batch computation, accumulated across all of its executors.
#[derive(Debug, Default)]
pub struct PruningCounters {
    bounded: AtomicU64,
    pruned: AtomicU64,
    scored: AtomicU64,
    /// Nanoseconds, not microseconds: one bound takes 10–100 ns, so a
    /// per-bound truncation to µs would add up a column of zeros.
    bound_nanos: AtomicU64,
}

impl PruningCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one computed bound that took `elapsed`.
    fn record_bound(&self, elapsed: Duration) {
        self.bounded.fetch_add(1, Ordering::Relaxed);
        self.bound_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> PruningSnapshot {
        PruningSnapshot {
            bounded: self.bounded.load(Ordering::Relaxed),
            pruned: self.pruned.load(Ordering::Relaxed),
            scored: self.scored.load(Ordering::Relaxed),
            bound_micros: self.bound_nanos.load(Ordering::Relaxed) / 1_000,
        }
    }
}

/// A plain copy of [`PruningCounters`], addable for aggregation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruningSnapshot {
    /// Upper bounds computed (one per viz that faced a live threshold).
    pub bounded: u64,
    /// Visualizations skipped because their bound fell below the
    /// threshold.
    pub pruned: u64,
    /// Visualizations scored in full under the pruning driver.
    pub scored: u64,
    /// Total microseconds spent computing bounds.
    pub bound_micros: u64,
}

impl PruningSnapshot {
    /// Element-wise accumulation (for aggregating per-computation
    /// snapshots into process-lifetime gauges).
    pub fn add(&mut self, other: PruningSnapshot) {
        self.bounded += other.bounded;
        self.pruned += other.pruned;
        self.scored += other.scored;
        self.bound_micros += other.bound_micros;
    }
}

/// The per-query pruning driver: bound-checks candidates against the
/// shared threshold and publishes proven tightenings back into it. One
/// driver is borrowed by every executor of a query; all state lives in
/// the shared cell and counters, so the driver itself is `Copy`-cheap
/// and thread-safe by construction.
#[derive(Clone, Copy)]
pub struct PruningDriver<'a> {
    query: &'a ShapeQuery,
    params: &'a ScoreParams,
    cell: &'a ThresholdCell,
    counters: &'a PruningCounters,
    k: usize,
    observer: &'a dyn StageObserver,
}

impl std::fmt::Debug for PruningDriver<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PruningDriver")
            .field("query", &self.query)
            .field("params", &self.params)
            .field("cell", &self.cell)
            .field("counters", &self.counters)
            .field("k", &self.k)
            .finish_non_exhaustive()
    }
}

impl<'a> PruningDriver<'a> {
    /// A driver for one query (retrieving `k` results) over the given
    /// shared cell and counters.
    pub fn new(
        query: &'a ShapeQuery,
        params: &'a ScoreParams,
        cell: &'a ThresholdCell,
        counters: &'a PruningCounters,
        k: usize,
    ) -> Self {
        Self {
            query,
            params,
            cell,
            counters,
            k,
            observer: &NOOP_OBSERVER,
        }
    }

    /// Routes this driver's §6.3 bound-computation timings to `observer`
    /// (as [`EngineStage::PruneBound`] samples, one per bound-checked
    /// candidate) in addition to the shared counters. Returns `self` for
    /// chaining.
    #[must_use]
    pub fn with_observer(mut self, observer: &'a dyn StageObserver) -> Self {
        self.observer = observer;
        self
    }

    /// Bound-checks one candidate. Returns `true` when the candidate is
    /// proven unable to enter the top k (the caller skips segmentation
    /// entirely); `false` means it must be scored in full.
    pub fn try_prune(&self, viz: &VizData) -> bool {
        let threshold = self.cell.get();
        // TopK::threshold (and hence every published value) stays at
        // NEG_INFINITY until k results have been admitted somewhere;
        // that explicitly means "no pruning possible yet" — skip the
        // bound computation rather than comparing against −∞.
        if threshold == f64::NEG_INFINITY {
            return false;
        }
        // Adaptive stop: when a sliding window of bounds has pruned
        // nothing (a common-pattern workload where every candidate beats
        // the threshold's reach), stop paying for the bound pass — clock
        // reads plus bound arithmetic per candidate would otherwise cost
        // more than the segmentation they fail to skip. Periodic probes
        // resume full-rate bounding the moment pruning bites again.
        if !self.cell.bound_pass_admitted() {
            return false;
        }
        let started = Instant::now();
        let (_, upper) = query_bounds(self.query, viz, self.params);
        let elapsed = started.elapsed();
        self.counters.record_bound(elapsed);
        self.observer
            .stage(EngineStage::PruneBound, elapsed.as_micros() as u64);
        // Strictly below the threshold: even a tie could not displace
        // the k-th result, so the candidate is gone for good.
        let pruned = upper < threshold;
        self.cell.note_bound_outcome(pruned);
        if pruned {
            self.counters.pruned.fetch_add(1, Ordering::Relaxed);
            if upper >= self.cell.proven() {
                // The proven component alone would not have pruned this:
                // the prune rides on the hint, so record it for the
                // hint sender's verification pass.
                self.cell.note_hint_prune(upper);
            }
            return true;
        }
        false
    }

    /// Counts one fully scored candidate.
    pub fn record_scored(&self) {
        self.counters.scored.fetch_add(1, Ordering::Relaxed);
    }

    /// Pools one exactly computed score toward the proven global k-th
    /// best (see [`ThresholdCell::offer`]) — every executor's results
    /// tighten every other executor's bound as they land.
    pub fn observe(&self, score: f64) {
        self.cell.offer(score, self.k);
    }

    /// Publishes a proven k-th-best score into the shared cell.
    /// `NEG_INFINITY` (a top-k collector that has not filled yet — see
    /// the pre-fill semantics on the engine's `TopK::threshold`) is
    /// explicitly a no-op.
    pub fn publish(&self, kth_best: f64) {
        if kth_best == f64::NEG_INFINITY {
            return;
        }
        self.cell.raise(kth_best);
    }
}

/// Score bounds for a query over one visualization, in O(query size):
/// combines the per-segment Table 7 bounds — evaluated from the
/// GROUP-time interval-slope extremes cached on the [`VizData`] — through
/// the operator bounds of Property 5.1.
///
/// Returns `(lower, upper)`. Validity follows from the least-squares
/// slope of any merged range being a convex combination of its interval
/// slopes (the "law of the triangle" in the paper's Theorem 6.4 proof),
/// so every pattern's fitted slope lies in `[slope_min, slope_max]` and
/// the pattern scorers are monotone or unimodal in slope — the extreme
/// scores over that interval are attained at the cached extremes.
/// (Nested CONCATs are handled for free: the recursive mean below equals
/// chain expansion's weighted-average semantics.)
pub fn query_bounds(query: &ShapeQuery, viz: &VizData, params: &ScoreParams) -> (f64, f64) {
    node_bounds(query, viz, params)
}

fn node_bounds(q: &ShapeQuery, viz: &VizData, params: &ScoreParams) -> (f64, f64) {
    match q {
        ShapeQuery::Segment(s) => segment_bounds(s, viz, params),
        ShapeQuery::Concat(cs) => {
            let (mut lo, mut hi) = (0.0, 0.0);
            for c in cs {
                let (l, h) = node_bounds(c, viz, params);
                lo += l;
                hi += h;
            }
            let k = cs.len().max(1) as f64;
            (lo / k, hi / k)
        }
        ShapeQuery::And(cs) => fold_bounds(cs, viz, params, f64::min),
        ShapeQuery::Or(cs) => fold_bounds(cs, viz, params, f64::max),
        ShapeQuery::Not(c) => {
            let (l, h) = node_bounds(c, viz, params);
            (-h, -l)
        }
    }
}

fn fold_bounds(
    cs: &[ShapeQuery],
    viz: &VizData,
    params: &ScoreParams,
    pick: fn(f64, f64) -> f64,
) -> (f64, f64) {
    let mut lo: Option<f64> = None;
    let mut hi: Option<f64> = None;
    for c in cs {
        let (l, h) = node_bounds(c, viz, params);
        lo = Some(lo.map_or(l, |v| pick(v, l)));
        hi = Some(hi.map_or(h, |v| pick(v, h)));
    }
    (lo.unwrap_or(-1.0), hi.unwrap_or(1.0))
}

/// Table 7 bounds for one segment, O(1) from the cached slope extremes.
fn segment_bounds(s: &ShapeSegment, viz: &VizData, params: &ScoreParams) -> (f64, f64) {
    // Sharp/gradual/quantifier modifiers and sketches rescale or replace
    // the slope scorers entirely — the plain Table-7 bounds don't apply.
    if s.modifier.is_some() || s.sketch.is_some() {
        return (-1.0, 1.0);
    }
    let (lo_s, hi_s) = (viz.slope_min, viz.slope_max);
    let (lo, hi) = match &s.pattern {
        // The slope scorers are monotone (up/down) or unimodal
        // (flat/theta) in slope, so both extremes over
        // [slope_min, slope_max] are attained at the cached endpoints —
        // and since those endpoints *are* interval slopes, these equal
        // the exact leaf-level min/max of Table 7.
        Some(Pattern::Up) => (score_up(lo_s), score_up(hi_s)),
        Some(Pattern::Down) => (score_down(hi_s), score_down(lo_s)),
        Some(Pattern::Flat) => {
            let min = score_flat(lo_s).min(score_flat(hi_s));
            // Mixed-sign slopes can cancel into a perfectly flat merge.
            let max = if lo_s < 0.0 && hi_s > 0.0 {
                1.0
            } else {
                score_flat(lo_s).max(score_flat(hi_s))
            };
            (min, max)
        }
        Some(Pattern::Slope(deg)) => {
            let target = deg.to_radians().tan();
            let min = score_theta(lo_s, *deg).min(score_theta(hi_s, *deg));
            // Slopes straddling the target can merge onto it exactly.
            let max = if lo_s < target && hi_s > target {
                1.0
            } else {
                score_theta(lo_s, *deg).max(score_theta(hi_s, *deg))
            };
            (min, max)
        }
        // Wildcards, UDPs, position references, y-target lines,
        // location-only segments: non-slope scorers, trivial bounds.
        _ => return (-1.0, 1.0),
    };
    // Hard constraints (x/y pins, ITERATOR width windows, plus the
    // optional minimum-width term) can only *lower* a segment's score —
    // to −1 on violation — so the upper bound stands but the Table-7
    // lower bound does not: widen it to the trivial −1 so NOT nodes
    // (which flip bounds) stay sound.
    let constrained = !s.location.is_empty() || s.iterator.is_some() || params.min_width_frac > 0.0;
    (if constrained { -1.0 } else { lo }, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::dp::DpSegmenter;
    use crate::algo::Segmenter;
    use crate::chain::expand_chains;
    use crate::eval::{Evaluator, UdpRegistry};
    use shapesearch_datastore::Trendline;

    fn viz(pairs: &[(f64, f64)], idx: usize) -> VizData {
        VizData::from_trendline(&Trendline::from_pairs(format!("v{idx}"), pairs), idx, 1).unwrap()
    }

    fn make_collection() -> Vec<VizData> {
        let mut out = Vec::new();
        // 3 clear peaks, 17 monotone falls.
        for i in 0..20 {
            let pairs: Vec<(f64, f64)> = if i < 3 {
                (0..16)
                    .map(|t| {
                        let t = t as f64;
                        (t, if t < 8.0 { t } else { 16.0 - t })
                    })
                    .collect()
            } else {
                (0..16).map(|t| (t as f64, 16.0 - t as f64)).collect()
            };
            out.push(viz(&pairs, i));
        }
        out
    }

    #[test]
    fn bounds_contain_final_score() {
        let params = ScoreParams::default();
        let udps = UdpRegistry::new();
        for q in [
            ShapeQuery::concat(vec![ShapeQuery::up(), ShapeQuery::down()]),
            ShapeQuery::up(),
            ShapeQuery::flat(),
            ShapeQuery::Or(vec![ShapeQuery::up(), ShapeQuery::flat()]),
            ShapeQuery::Not(Box::new(ShapeQuery::down())),
        ] {
            for v in make_collection() {
                let ev = Evaluator::new(&v, &params, &udps);
                let exact = DpSegmenter.match_viz(&ev, &expand_chains(&q)).score;
                let (lo, hi) = query_bounds(&q, &v, &params);
                assert!(
                    exact <= hi + 1e-9 && exact >= lo - 1e-9,
                    "score {exact} outside [{lo}, {hi}] for {q}"
                );
            }
        }
    }

    #[test]
    fn bounds_are_tight_on_monotone_series() {
        // A perfectly linear rise: every interval slope equals the whole
        // slope, so the bound interval collapses onto the exact score.
        let v = viz(
            &(0..16).map(|t| (t as f64, t as f64)).collect::<Vec<_>>(),
            0,
        );
        let params = ScoreParams::default();
        let udps = UdpRegistry::new();
        let ev = Evaluator::new(&v, &params, &udps);
        let q = ShapeQuery::up();
        let exact = DpSegmenter.match_viz(&ev, &expand_chains(&q)).score;
        let (lo, hi) = query_bounds(&q, &v, &params);
        assert!((hi - exact).abs() < 1e-9);
        assert!((lo - exact).abs() < 1e-9);
    }

    #[test]
    fn flat_mixed_sign_bound_is_one() {
        // A zigzag merges into near-flat: Table 7's special case.
        let v = viz(
            &[(0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 1.0), (4.0, 0.0)],
            0,
        );
        let params = ScoreParams::default();
        let (_, hi) = query_bounds(&ShapeQuery::flat(), &v, &params);
        assert_eq!(hi, 1.0);
    }

    #[test]
    fn pinned_and_width_penalized_segments_keep_sound_lower_bounds() {
        // An x-pinned segment can score −1 on placement violation, and
        // the min-width term can drag any score toward −1; both must
        // widen the segment's *lower* bound to −1 (NOT flips it into the
        // upper bound), while the upper bound stays the Table-7 one.
        let v = viz(
            &(0..16).map(|t| (t as f64, t as f64)).collect::<Vec<_>>(),
            0,
        );
        let params = ScoreParams::default();
        let pinned = ShapeQuery::Segment(ShapeSegment::pinned(Pattern::Up, 0.0, 8.0));
        let (lo, hi) = query_bounds(&pinned, &v, &params);
        assert_eq!(lo, -1.0);
        assert!(hi <= 1.0 && hi > 0.0);
        let not_pinned = ShapeQuery::Not(Box::new(pinned));
        let (_, hi) = query_bounds(&not_pinned, &v, &params);
        assert_eq!(hi, 1.0, "NOT of a −1-capable child must allow +1");

        let widthy = ScoreParams {
            min_width_frac: 0.25,
            ..ScoreParams::default()
        };
        let (lo, _) = query_bounds(&ShapeQuery::up(), &v, &widthy);
        assert_eq!(lo, -1.0);
    }

    #[test]
    fn iterator_width_windows_widen_the_lower_bound_only() {
        let v = viz(
            &(0..16).map(|t| (t as f64, t as f64)).collect::<Vec<_>>(),
            0,
        );
        let params = ScoreParams::default();
        let mut seg = ShapeSegment::pattern(Pattern::Up);
        seg.iterator = Some(crate::ast::IteratorSpec { width: 4.0 });
        let q = ShapeQuery::Segment(seg);
        let (lo, hi) = query_bounds(&q, &v, &params);
        assert_eq!(lo, -1.0, "a width window can force an infeasible −1");
        let (_, plain_hi) = query_bounds(&ShapeQuery::up(), &v, &params);
        assert_eq!(hi, plain_hi, "the Table-7 upper bound stands");
    }

    #[test]
    fn threshold_cell_is_a_monotone_max_register() {
        let cell = ThresholdCell::new();
        assert_eq!(cell.get(), f64::NEG_INFINITY);
        assert_eq!(cell.proven(), f64::NEG_INFINITY);
        assert_eq!(cell.hint_pruned(), None);

        cell.raise(0.25);
        cell.raise(0.1); // lower: ignored
        cell.raise(f64::NEG_INFINITY); // empty: ignored
        cell.raise(f64::NAN); // NaN: ignored
        assert_eq!(cell.proven(), 0.25);
        assert_eq!(cell.get(), 0.25);

        // A hint raises the effective threshold but not the proven one.
        cell.seed_hint(0.75);
        assert_eq!(cell.get(), 0.75);
        assert_eq!(cell.proven(), 0.25);

        cell.note_hint_prune(0.5);
        cell.note_hint_prune(0.4);
        assert_eq!(cell.hint_pruned(), Some(0.5));
    }

    #[test]
    fn offered_scores_prove_the_global_kth_once_k_exist() {
        let cell = ThresholdCell::new();
        cell.offer(0.9, 3);
        cell.offer(0.1, 3);
        assert_eq!(
            cell.proven(),
            f64::NEG_INFINITY,
            "two scores cannot prove a top-3 bound"
        );
        cell.offer(0.5, 3);
        assert_eq!(cell.proven(), 0.1, "the 3rd best of {{0.9, 0.5, 0.1}}");
        cell.offer(0.7, 3);
        assert_eq!(cell.proven(), 0.5, "0.7 displaces 0.1");
        cell.offer(f64::NAN, 3); // ignored
        cell.offer(0.2, 3); // below the floor: ignored
        assert_eq!(cell.proven(), 0.5);
        // k = 0 never proves anything.
        let zero = ThresholdCell::new();
        zero.offer(1.0, 0);
        assert_eq!(zero.proven(), f64::NEG_INFINITY);
        // Default is the empty cell, not zeroed bits.
        assert_eq!(ThresholdCell::default().get(), f64::NEG_INFINITY);
    }

    #[test]
    fn bound_time_accumulates_below_a_microsecond_per_bound() {
        let counters = PruningCounters::new();
        // 2,500 bounds of 400 ns: each truncates to 0 µs on its own, the
        // run took a millisecond.
        for _ in 0..2_500 {
            counters.record_bound(Duration::from_nanos(400));
        }
        let snap = counters.snapshot();
        assert_eq!((snap.bounded, snap.bound_micros), (2_500, 1_000));
        // The sub-microsecond remainder is dropped once, at the read.
        counters.record_bound(Duration::from_nanos(999));
        assert_eq!(counters.snapshot().bound_micros, 1_000);
        counters.record_bound(Duration::from_nanos(1));
        assert_eq!(counters.snapshot().bound_micros, 1_001);
    }

    #[test]
    fn driver_prunes_only_below_threshold_and_records_hint_debt() {
        let params = ScoreParams::default();
        let q = ShapeQuery::concat(vec![ShapeQuery::up(), ShapeQuery::down()]);
        let cell = ThresholdCell::new();
        let counters = PruningCounters::new();
        let driver = PruningDriver::new(&q, &params, &cell, &counters, 2);
        let fall = viz(
            &(0..16).map(|t| (t as f64, -(t as f64))).collect::<Vec<_>>(),
            0,
        );

        // No threshold yet: nothing prunes, no bound is even computed.
        assert!(!driver.try_prune(&fall));
        assert_eq!(counters.snapshot().bounded, 0);

        // A published NEG_INFINITY (a top-k that hasn't filled) is a
        // no-op, not a threshold.
        driver.publish(f64::NEG_INFINITY);
        assert!(!driver.try_prune(&fall));

        // A proven threshold above the fall's upper bound prunes it,
        // with no hint debt.
        driver.publish(0.9);
        assert!(driver.try_prune(&fall));
        let snap = counters.snapshot();
        assert_eq!((snap.bounded, snap.pruned), (1, 1));
        assert_eq!(cell.hint_pruned(), None);

        // A hint-only threshold prunes too, but records the bound so the
        // hint's sender can verify.
        let cell2 = ThresholdCell::new();
        cell2.seed_hint(0.9);
        let driver2 = PruningDriver::new(&q, &params, &cell2, &counters, 2);
        assert!(driver2.try_prune(&fall));
        let debt = cell2.hint_pruned().expect("hint prune must be recorded");
        let (_, ub) = query_bounds(&q, &fall, &params);
        assert_eq!(debt, ub);
    }

    #[test]
    fn unprunable_workload_stops_paying_for_bounds_but_keeps_probing() {
        // A threshold no candidate falls below: every bound is a miss,
        // so after BOUND_CREDITS misses the driver must go to skip mode
        // and only probe every PROBE_STRIDE-th candidate.
        let params = ScoreParams::default();
        let q = ShapeQuery::up();
        let cell = ThresholdCell::new();
        let counters = PruningCounters::new();
        let driver = PruningDriver::new(&q, &params, &cell, &counters, 1);
        let rise = viz(
            &(0..16).map(|t| (t as f64, t as f64)).collect::<Vec<_>>(),
            0,
        );
        // Below rise's upper bound (score_up(1) = 0.5): never prunes.
        driver.publish(0.2);
        let candidates = 10_000u64;
        for _ in 0..candidates {
            assert!(!driver.try_prune(&rise), "nothing may prune here");
        }
        let bounded = counters.snapshot().bounded;
        let ceiling = BOUND_CREDITS as u64 + candidates / PROBE_STRIDE + 1;
        assert!(
            bounded <= ceiling,
            "skip mode must cap bound work: {bounded} bounds for {candidates} candidates (cap {ceiling})"
        );
        assert!(
            bounded >= BOUND_CREDITS as u64,
            "the credit window must be paid before skipping: {bounded}"
        );

        // A probe that prunes refills the budget: full-rate bounding
        // resumes for the next credit window.
        // A monotone fall normalizes onto canvas slope −1, so its upper
        // bound (score_up(−1) = −0.5) sits strictly below the threshold.
        let fall = viz(
            &(0..16).map(|t| (t as f64, -(t as f64))).collect::<Vec<_>>(),
            1,
        );
        let mut probe_pruned = false;
        for _ in 0..PROBE_STRIDE {
            if driver.try_prune(&fall) {
                probe_pruned = true;
                break;
            }
        }
        assert!(probe_pruned, "a skip-mode probe must still prune");
        let before = counters.snapshot().bounded;
        assert!(!driver.try_prune(&rise));
        assert_eq!(
            counters.snapshot().bounded,
            before + 1,
            "a pruning probe must restore full-rate bounding"
        );
    }

    #[test]
    fn mode_gates_match_segmenter_exactness() {
        for kind in [SegmenterKind::Dp, SegmenterKind::SegmentTree] {
            assert!(PruningMode::Auto.active_for(kind));
            assert!(PruningMode::Force.active_for(kind));
            assert!(!PruningMode::Off.active_for(kind));
        }
        assert!(!PruningMode::Auto.active_for(SegmenterKind::Greedy));
        assert!(PruningMode::Force.active_for(SegmenterKind::Greedy));
        for kind in [SegmenterKind::Dtw, SegmenterKind::Euclidean] {
            assert!(!PruningMode::Force.active_for(kind));
        }
        for mode in [PruningMode::Auto, PruningMode::Off, PruningMode::Force] {
            assert_eq!(PruningMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(PruningMode::parse("sometimes"), None);
    }
}
