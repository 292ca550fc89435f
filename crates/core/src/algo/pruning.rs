//! Two-stage collective pruning (paper §6.3), as an **incremental,
//! exactness-preserving driver** every exact segmenter composes with.
//!
//! One **bound pass** per (query, executor) fills an upper bound for every
//! candidate from the GROUP-time interval-slope extremes (Theorem 6.4 /
//! Table 7 — the final score of a pattern is bounded by the extreme scores
//! of that pattern across any level of the SegmentTree). The query is
//! compiled once into a `BoundPlan` and the extremes' angles are cached
//! on the [`VizData`], so the pass takes no `tan`, an `atan` only for a
//! segment pinned at both ends (below), and reads one clock pair for the
//! whole collection. Stage 1 then scores the `k`
//! candidates with the **highest bounds** exactly, best bound first (the
//! paper scores a down-sampled subset; scoring exactly costs the same
//! asymptotics and makes the resulting threshold a *proven* lower bound on
//! the final top-k score, which is what keeps pruning byte-identical) —
//! the bound is only as sharp as the threshold it meets, and the
//! candidates most likely to set the final threshold are the ones the
//! bound cannot rule out. Stage 2 sweeps the rest (in index order, or
//! best second-tier bound first when the query has one — below): a
//! candidate whose upper bound falls strictly below the current threshold
//! is skipped without segmentation, survivors are scored exactly and
//! tighten the threshold online.
//!
//! The bound has **three tiers**, each dearer and tighter than the one
//! before, each taken only for a candidate the one before failed to prune.
//! The first is the one above: a pattern's extreme scores over any slope
//! between the trendline's interval extremes, which is all that can be
//! said of a window nobody has placed. A segment pinned by both `x.s` and
//! `x.e` has been placed, by the query (§5.4): every exact segmenter puts
//! it on the one window its pins name or scores it −1, so the first tier
//! bounds it by its score on that window — and a located query's bounds
//! are then its scores give or take rounding, the `k` seeds its top k,
//! and the sweep prunes everyone else but ties. A top-level CONCAT places
//! windows too: every exact segmenter tiles `[0, n − 1]` with the chain's
//! units in order, so the first unit is scored on some window `[0, j]`
//! and the last on some `[i, n − 1]` — `n − 1` candidate slopes each, not
//! a continuum.
//! The second tier takes an un-located first or last unit's upper bound
//! over exactly those windows (the rest of the plan keeps its first-tier
//! value and arithmetic), and because every Table 7 row is monotone or
//! unimodal in slope it finds the best window in slope space, at one or
//! two `atan`s an end. On trendlines whose interval slopes straddle every
//! target — random walks — the first tier reads ≈ 1 for everyone and the
//! second prunes four in ten. It costs most of a microsecond a candidate
//! against the first's few nanoseconds, so it is lazy twice over: the plan
//! decides once per query whether it has an anchored end at all, and the
//! driver computes it only for a candidate the first tier failed to prune
//! against a live threshold.
//!
//! The second tier still scores whatever lies between the two ends as a
//! perfect 1. The **third** places it: when the whole query is a chain of
//! two or three free slope units, the two end windows leave the middle
//! unit exactly one window, `[j, i]`, and the chain's total over that
//! placement is the very number the DP maximises. Enumerating every pair
//! of ends would be the DP; what makes it a bound is the live threshold τ:
//! a total can reach τ only if each end alone would with everything else
//! perfect, and each pair of ends only if their sum would with a perfect
//! middle, which on a walk leaves a handful of placements out of `n²/2` —
//! see `JointChain`. It answers a different question from the first two
//! (not "how high can this score" but "can it reach τ"), so it runs last,
//! against the sharpest threshold the walk has, and stage 2 visits the
//! second tier's survivors **best bound first** so that threshold is sharp
//! early: [`PruningDriver::sweep`]. On walks it prunes another four in ten.
//! What all three feed is the same rule, and each takes the same rounding
//! allowance before it does (`BoundPlan::allowance`): a bound that is a
//! score exactly sits an ulp under a segmenter's re-associated total
//! without it.
//!
//! The threshold lives in a [`ThresholdCell`] — an atomic-`f64`
//! (`AtomicU64` bit-cast) max register shared across every executor of
//! one query: the shards of a [`crate::ShardedEngine`] and the server's
//! compute-pool shard tasks all publish into and consume from the same
//! cell, so any executor's progress prunes work everywhere else. The cell also carries an
//! unproven **hint** slot (a remote router's `threshold_hint`): pruning
//! uses `max(proven, hint)`, but any prune justified only by the hint is
//! recorded in a third max register so the hint's sender can verify the
//! merged answer against it and retry hint-less if the hint turned out
//! too aggressive — a stale or poisoned hint can therefore never
//! silently drop a true top-k result. Seeds face the cell like everyone
//! else: a hint prunes them too, and is verified the same way.
//!
//! The pruning "helps avoid processing until the root node for the
//! majority of visualizations ... particularly effective when the user is
//! looking for visualizations with rare (needle-in-the-haystack)
//! patterns".

use crate::algo::SegmenterKind;
use crate::ast::{Pattern, ShapeQuery, ShapeSegment};
use crate::engine::group::VizData;
use crate::engine::observe::{EngineStage, StageObserver, NOOP_OBSERVER};
use crate::score::{clamp_score, down_at, flat_at, theta_at, theta_target, up_at, ScoreParams};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::PoisonError;
use std::time::{Duration, Instant};

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
/// working on it (engine shards, compute-pool tasks).
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
        // threshold stabilizes, which keeps concurrent shard tasks from
        // serializing on the pool lock.
        if score <= load_f64(&self.proven) {
            return;
        }
        // The pool is a heap of `f64`s that is valid between any two
        // operations, so an executor that panicked while holding it (a
        // UDP is arbitrary code) must not take the query's other
        // executors down with it.
        let mut pool = self.pool.lock().unwrap_or_else(PoisonError::into_inner);
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
    refined: AtomicU64,
    joined: AtomicU64,
    /// Nanoseconds, not microseconds: the bound pass over a small shard
    /// takes less than one, so a per-pass truncation to µs would add up a
    /// column of zeros.
    bound_nanos: AtomicU64,
}

impl PruningCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one bound pass over `candidates` that took `elapsed`.
    fn record_bound_pass(&self, candidates: usize, elapsed: Duration) {
        self.bounded.fetch_add(candidates as u64, Ordering::Relaxed);
        self.bound_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> PruningSnapshot {
        PruningSnapshot {
            bounded: self.bounded.load(Ordering::Relaxed),
            pruned: self.pruned.load(Ordering::Relaxed),
            scored: self.scored.load(Ordering::Relaxed),
            refined: self.refined.load(Ordering::Relaxed),
            joined: self.joined.load(Ordering::Relaxed),
            bound_micros: self.bound_nanos.load(Ordering::Relaxed) / 1_000,
        }
    }
}

/// A plain copy of [`PruningCounters`], addable for aggregation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruningSnapshot {
    /// Upper bounds computed: one per candidate of every query the
    /// pruning driver ran for.
    pub bounded: u64,
    /// Visualizations skipped because their bound fell below the
    /// threshold.
    pub pruned: u64,
    /// Visualizations scored in full under the pruning driver.
    pub scored: u64,
    /// Second-tier bounds computed: candidates the whole-trendline bound
    /// could not prune against a live threshold, bounded again over their
    /// end-anchored windows. Each is also one of `bounded` and goes on to
    /// be one of `pruned` or `scored`.
    pub refined: u64,
    /// Third-tier bounds computed: refined candidates the end-anchored
    /// bound could not prune either, whose chain was then placed whole
    /// against the live threshold. Each is also one of `refined`.
    pub joined: u64,
    /// Total microseconds spent computing bounds, all tiers.
    pub bound_micros: u64,
}

impl PruningSnapshot {
    /// Element-wise accumulation (for aggregating per-computation
    /// snapshots into process-lifetime gauges).
    pub fn add(&mut self, other: PruningSnapshot) {
        self.bounded += other.bounded;
        self.pruned += other.pruned;
        self.scored += other.scored;
        self.refined += other.refined;
        self.joined += other.joined;
        self.bound_micros += other.bound_micros;
    }
}

/// The per-query pruning driver: the bound pass, the choice of seeds,
/// and the walk of candidates against the shared threshold. One driver is
/// borrowed by every executor of a query within one engine; the mutable
/// state lives in the shared cell and counters, so it is thread-safe by
/// construction.
pub struct PruningDriver<'a> {
    plan: BoundPlan,
    /// The trendline ends the plan has an anchored leaf at — decided here,
    /// once per query, so a query with none never looks at a candidate
    /// twice.
    anchors: Ends,
    /// The third tier's chain, when the whole query is one; decided beside
    /// `anchors`.
    joint: Option<JointChain>,
    cell: &'a ThresholdCell,
    counters: &'a PruningCounters,
    k: usize,
    observer: &'a dyn StageObserver,
}

impl std::fmt::Debug for PruningDriver<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PruningDriver")
            .field("plan", &self.plan)
            .field("cell", &self.cell)
            .field("counters", &self.counters)
            .field("k", &self.k)
            .finish_non_exhaustive()
    }
}

/// What one walk did, kept locally and published once: the counters are
/// shared by every executor of a batch, and a contended add per candidate
/// costs more than the comparison it counts.
#[derive(Default)]
struct Tally {
    pruned: u64,
    scored: u64,
    refined: u64,
    joined: u64,
}

impl<'a> PruningDriver<'a> {
    /// A driver for one query (retrieving `k` results) over the given
    /// shared cell and counters. Compiles the query's bound plan.
    pub fn new(
        query: &ShapeQuery,
        params: &ScoreParams,
        cell: &'a ThresholdCell,
        counters: &'a PruningCounters,
        k: usize,
    ) -> Self {
        let plan = BoundPlan::compile(query, params, Ends::BOTH);
        Self {
            anchors: plan.anchors(),
            joint: plan.joint(),
            plan,
            cell,
            counters,
            k,
            observer: &NOOP_OBSERVER,
        }
    }

    /// Routes this driver's bound timings to `observer` (one
    /// [`EngineStage::PruneBound`] sample per [`Self::upper_bounds`]
    /// call, one per [`Self::sweep`]'s refine pass, and one per walk that
    /// took second- or third-tier bounds a candidate at a time) in
    /// addition to the shared counters. Returns `self` for chaining.
    #[must_use]
    pub fn with_observer(mut self, observer: &'a dyn StageObserver) -> Self {
        self.observer = observer;
        self
    }

    /// The bound pass: the Theorem 6.4 upper bound of every candidate, by
    /// position, with the plan's rounding allowance on top (as every tier
    /// takes it: a bound that is the exact score — a pinned unit's, or a
    /// perfect fit's — sits an ulp under a segmenter's re-associated total
    /// without it). One clock pair and one observer sample for the whole
    /// collection — a candidate costs a few nanoseconds, ≈ 0.1 µs more for
    /// each pinned unit whose window it looks up, which is why the pass
    /// runs unconditionally (on a workload it cannot prune it is noise next
    /// to a single segmentation).
    pub fn upper_bounds(&self, vizzes: &[&VizData]) -> Vec<f64> {
        let started = Instant::now();
        let allowance = self.plan.allowance();
        let bounds: Vec<f64> = self
            .plan
            .bounds(vizzes)
            .into_iter()
            .map(|(_, upper)| upper + allowance)
            .collect();
        let elapsed = started.elapsed();
        self.counters.record_bound_pass(bounds.len(), elapsed);
        self.observer
            .stage(EngineStage::PruneBound, elapsed.as_micros() as u64);
        bounds
    }

    /// §6.3 stage 1: the positions of the `min(k, candidates)` highest
    /// upper bounds, best first (ties by position). These are the
    /// candidates no threshold could rule out, so scoring them first
    /// gives the sweep over everyone else the sharpest threshold k exact
    /// scores can prove. A selection, not a sort: a located query scores
    /// about k trendlines and spends most of its time on the bound pass
    /// itself (≈ 0.2 µs a trendline, its pinned windows looked up), so
    /// ordering its whole collection would be a large share of what it
    /// does, and saves a needle query 5 % of the little it still scores.
    pub fn seeds(&self, bounds: &[f64]) -> Vec<usize> {
        let best_first =
            |a: &usize, b: &usize| bounds[*b].total_cmp(&bounds[*a]).then_with(|| a.cmp(b));
        let mut order: Vec<usize> = (0..bounds.len()).collect();
        if self.k < order.len() {
            order.select_nth_unstable_by(self.k, best_first);
            order.truncate(self.k);
        }
        order.sort_unstable_by(best_first);
        order
    }

    /// Walks `positions`, in the order given, against the live threshold.
    /// A candidate whose upper bound is **strictly** below it — even a tie
    /// could not displace the k-th result — is skipped for good; every
    /// other is handed to `score` and the exact score it returns is pooled
    /// toward the proven global k-th best (see [`ThresholdCell::offer`]),
    /// so every executor's results tighten every other executor's
    /// threshold as they land.
    ///
    /// The bound is `bounds[pos]`, the whole-trendline one, unless that
    /// fails to prune against a live threshold and the query has an
    /// anchored end: then, and only then, the candidate's second-tier
    /// bound is computed and takes its place under the same rule, and
    /// where that fails too and the query is a `JointChain`, the third.
    /// The tiers' time is kept locally and published once per walk.
    pub fn visit(
        &self,
        vizzes: &[&VizData],
        bounds: &[f64],
        positions: impl Iterator<Item = usize>,
        mut score: impl FnMut(usize) -> f64,
    ) {
        let mut tally = Tally::default();
        let mut bounding = Duration::ZERO;
        let mut windows = EndWindows::default();
        for pos in positions {
            let mut upper = bounds[pos];
            // No threshold yet reads −∞, which nothing is below.
            let threshold = self.cell.get();
            if self.anchors.any() && threshold > f64::NEG_INFINITY && upper >= threshold {
                let started = Instant::now();
                upper = self.refine(vizzes[pos], &mut windows, &mut tally);
                // (A NaN bound is at or above no threshold, and is
                // nobody's to prune.)
                if let Some(chain) = self.joint.as_ref().filter(|_| upper >= threshold) {
                    upper = chain.bound(vizzes[pos], &mut windows, threshold, upper);
                    tally.joined += 1;
                }
                bounding += started.elapsed();
            }
            self.settle(upper, threshold, &mut tally, || score(pos));
        }
        let bounding = (tally.refined > 0).then_some(bounding);
        self.publish(&tally, bounding);
    }

    /// §6.3 stage 2, "progressively refined bounds": [`Self::visit`] with
    /// the tiers taken a stage at a time, so that the dearest meets the
    /// sharpest threshold. One pass applies the first tier to every
    /// candidate under `visit`'s rule and takes the second for its
    /// survivors only (one clock pair, one observer sample); those are
    /// sorted by second-tier bound, best first (ties by position), and
    /// walked: each against the live threshold with the bound it has, then
    /// the third tier if the query has one — and at the first second-tier
    /// bound below the threshold everyone left is pruned unseen, since
    /// nobody after has a higher bound and the threshold only rises. The
    /// candidates most likely to raise the threshold are scored first, so
    /// both the early exit and the third tier's cut bite sooner than in
    /// index order. The engine's top-k order is total, so the visiting
    /// order cannot change a result.
    ///
    /// A query with no anchored end has no second tier to sort by, and
    /// before any threshold exists there is nothing to take it against:
    /// both are `visit`, instruction for instruction.
    pub fn sweep(
        &self,
        vizzes: &[&VizData],
        bounds: &[f64],
        positions: impl Iterator<Item = usize>,
        mut score: impl FnMut(usize) -> f64,
    ) {
        // The threshold only rises: live here, live for the whole sweep.
        if !self.anchors.any() || self.cell.get() == f64::NEG_INFINITY {
            return self.visit(vizzes, bounds, positions, score);
        }
        let mut tally = Tally::default();
        let mut windows = EndWindows::default();
        let mut survivors: Vec<(usize, f64)> = Vec::new();
        let started = Instant::now();
        for pos in positions {
            let mut upper = bounds[pos];
            let threshold = self.cell.get();
            if upper >= threshold {
                upper = self.refine(vizzes[pos], &mut windows, &mut tally);
            }
            if upper < threshold {
                self.note_prune(upper);
                tally.pruned += 1;
            } else {
                survivors.push((pos, upper));
            }
        }
        if tally.refined > 0 {
            self.record_bounding(started.elapsed());
        }

        // A NaN bound is below no threshold and must stay ahead of the
        // early exit: it sorts as the best bound there is, whatever its
        // sign bit says.
        let key = |upper: f64| if upper.is_nan() { f64::INFINITY } else { upper };
        survivors
            .sort_unstable_by(|a, b| key(b.1).total_cmp(&key(a.1)).then_with(|| a.0.cmp(&b.0)));
        let mut joining = Duration::ZERO;
        for (at, &(pos, refined)) in survivors.iter().enumerate() {
            let threshold = self.cell.get();
            if refined < threshold {
                // The largest bound among those pruned here: the only
                // one a hint's sender needs to hear of.
                self.note_prune(refined);
                tally.pruned += (survivors.len() - at) as u64;
                break;
            }
            let mut upper = refined;
            if let Some(chain) = self.joint.as_ref().filter(|_| upper >= threshold) {
                let started = Instant::now();
                windows.load(vizzes[pos], self.anchors);
                upper = chain.bound(vizzes[pos], &mut windows, threshold, upper);
                tally.joined += 1;
                joining += started.elapsed();
            }
            self.settle(upper, threshold, &mut tally, || score(pos));
        }
        self.publish(&tally, (tally.joined > 0).then_some(joining));
    }

    /// The second-tier bound of one candidate, its end windows left loaded
    /// in `windows`.
    fn refine(&self, viz: &VizData, windows: &mut EndWindows, tally: &mut Tally) -> f64 {
        windows.load(viz, self.anchors);
        tally.refined += 1;
        self.plan.anchored_upper(viz, windows)
    }

    /// The rule every tier feeds: strictly below the threshold is pruned,
    /// anything else is scored and its score pooled.
    fn settle(&self, upper: f64, threshold: f64, tally: &mut Tally, score: impl FnOnce() -> f64) {
        if upper < threshold {
            self.note_prune(upper);
            tally.pruned += 1;
        } else {
            self.cell.offer(score(), self.k);
            tally.scored += 1;
        }
    }

    /// Books a prune under `upper`: when the proven component alone would
    /// not have made it, the prune rides on the hint, so it is recorded
    /// for the hint sender's verification pass.
    fn note_prune(&self, upper: f64) {
        if upper >= self.cell.proven() {
            self.cell.note_hint_prune(upper);
        }
    }

    fn record_bounding(&self, elapsed: Duration) {
        self.counters
            .bound_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.observer
            .stage(EngineStage::PruneBound, elapsed.as_micros() as u64);
    }

    /// Publishes one walk's tally, and the time it spent on bounds taken a
    /// candidate at a time when it took any.
    fn publish(&self, tally: &Tally, bounding: Option<Duration>) {
        let counters = self.counters;
        for (counter, by) in [
            (&counters.pruned, tally.pruned),
            (&counters.scored, tally.scored),
            (&counters.refined, tally.refined),
            (&counters.joined, tally.joined),
        ] {
            counter.fetch_add(by, Ordering::Relaxed);
        }
        if let Some(elapsed) = bounding {
            self.record_bounding(elapsed);
        }
    }
}

/// Score bounds `(lower, upper)` for a query over one visualization, in
/// O(query size): the query's bound plan compiled and evaluated once (the
/// pruning driver compiles once per query and evaluates per candidate).
/// These are the plan's bare values; the driver prunes by the upper one
/// plus a rounding allowance ([`PruningDriver::upper_bounds`]).
pub fn query_bounds(query: &ShapeQuery, viz: &VizData, params: &ScoreParams) -> (f64, f64) {
    BoundPlan::compile(query, params, Ends::BOTH).bounds(&[viz])[0]
}

/// The second-tier upper bound of a query over one visualization — what
/// the pruning driver falls back on for a candidate [`query_bounds`]'
/// upper bound cannot rule out — or `None` when the query has no end to
/// anchor and the tier never runs for it.
pub fn anchored_upper_bound(
    query: &ShapeQuery,
    viz: &VizData,
    params: &ScoreParams,
) -> Option<f64> {
    let plan = BoundPlan::compile(query, params, Ends::BOTH);
    let anchors = plan.anchors();
    anchors.any().then(|| {
        let mut windows = EndWindows::default();
        windows.load(viz, anchors);
        plan.anchored_upper(viz, &windows)
    })
}

/// The third-tier upper bound of a query over one visualization against
/// `threshold` — what the pruning driver takes for a candidate
/// [`anchored_upper_bound`] cannot rule out — or `None` when the query is
/// not a chain the tier places whole. At or above `threshold` it is an
/// upper bound on the exact score; below it, a proof that the exact score
/// is below `threshold` too.
pub fn joint_upper_bound(
    query: &ShapeQuery,
    viz: &VizData,
    params: &ScoreParams,
    threshold: f64,
) -> Option<f64> {
    let plan = BoundPlan::compile(query, params, Ends::BOTH);
    plan.joint().map(|chain| {
        let mut windows = EndWindows::default();
        windows.load(viz, Ends::BOTH);
        let refined = plan.anchored_upper(viz, &windows);
        chain.bound(viz, &mut windows, threshold, refined)
    })
}

/// A query compiled for bounding — the bound plan: everything
/// [`Self::bounds`] needs that does not depend on the visualization (which
/// Table 7 row applies to each segment, the `θ = x` constants and the
/// target's slope, whether a hard constraint voids the lower bound, which
/// end of the trendline a segment's window is known to touch),
/// derived once per (query, executor) instead of once per candidate.
#[derive(Debug, Clone)]
enum BoundPlan {
    /// A segment the slope bounds say nothing about: `(−1, 1)`.
    Trivial,
    /// A slope-scored segment. `constrained`: a hard constraint (x/y
    /// pins, ITERATOR width windows, the optional minimum-width term) can
    /// only *lower* the segment's score — to −1 on violation — so the
    /// upper bound stands but the Table 7 lower bound does not: it widens
    /// to the trivial −1 so NOT nodes (which flip bounds) stay sound.
    /// `located`: the query says where its window goes (x/y pins, an
    /// ITERATOR width). `anchor`: the end its window is pinned to by the
    /// tiling, if any — what the second tier bounds it over. `pins`: the
    /// raw `x.s`/`x.e` of a segment that carries both and no ITERATOR,
    /// which leave it one window to be placed on ([`SlopeRow::pinned`]).
    Slope {
        row: SlopeRow,
        constrained: bool,
        located: bool,
        anchor: Option<End>,
        pins: Option<(f64, f64)>,
    },
    Concat(Vec<BoundPlan>),
    And(Vec<BoundPlan>),
    Or(Vec<BoundPlan>),
    Not(Box<BoundPlan>),
}

/// The Table 7 row of a slope pattern.
#[derive(Debug, Clone, Copy)]
enum SlopeRow {
    Up,
    Down,
    Flat,
    /// `θ = x`: [`theta_target`]'s constants plus the slope the score
    /// peaks at — the tangent of the *clamped* target, which is what the
    /// scorer measures against: past ±90° the row is monotone and its mode
    /// is `tan(±π/2)`, a finite `f64` beyond any slope it will meet.
    Theta {
        target: f64,
        worst: f64,
        mode: f64,
    },
}

/// One end of a trendline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    First,
    Last,
}

/// A set of trendline ends: those a query node's window is known to
/// touch, or those a plan has an anchored leaf at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ends {
    first: bool,
    last: bool,
}

impl Ends {
    const NONE: Self = Self {
        first: false,
        last: false,
    };
    /// A whole query's window is the whole trendline.
    const BOTH: Self = Self {
        first: true,
        last: true,
    };

    fn any(self) -> bool {
        self.first || self.last
    }

    fn union(self, other: Self) -> Self {
        Self {
            first: self.first || other.first,
            last: self.last || other.last,
        }
    }
}

/// One candidate's end-anchored window slopes, `n − 1` a side: every
/// window that starts at its first point and every window that ends at
/// its last — and, for the third tier, the few of either the threshold
/// leaves standing, as (inner end point, unit score). Four buffers a walk
/// reuses from candidate to candidate.
#[derive(Debug, Default)]
struct EndWindows {
    first: Vec<f64>,
    last: Vec<f64>,
    kept_first: Vec<(usize, f64)>,
    kept_last: Vec<(usize, f64)>,
}

impl EndWindows {
    /// Reads `viz`'s runs for the ends in `ends` through the columnar
    /// kernels.
    fn load(&mut self, viz: &VizData, ends: Ends) {
        let (arena, slot, last) = (viz.arena(), viz.slot(), viz.n() - 1);
        if ends.first {
            arena.window_slopes(slot, 0, 1, last, &mut self.first);
        }
        if ends.last {
            arena.window_slopes_ending(slot, 0, last - 1, last, &mut self.last);
        }
    }

    fn at(&self, end: End) -> &[f64] {
        match end {
            End::First => &self.first,
            End::Last => &self.last,
        }
    }
}

impl BoundPlan {
    /// Compiles `q` under `params`, its window known to touch `ends` of
    /// the trendline. Every exact segmenter tiles `[0, n − 1]` with a
    /// chain's units in order, so a CONCAT hands its first child the first
    /// point and its last child the last; AND and OR score their children
    /// on their own window; NOT keeps the whole-trendline bound (flipping
    /// an anchored *upper* bound would need the anchored lower one).
    fn compile(q: &ShapeQuery, params: &ScoreParams, ends: Ends) -> Self {
        let all = |cs: &[ShapeQuery]| cs.iter().map(|c| Self::compile(c, params, ends)).collect();
        match q {
            ShapeQuery::Segment(s) => Self::segment(s, params, ends),
            ShapeQuery::Concat(cs) => Self::Concat(
                cs.iter()
                    .enumerate()
                    .map(|(i, c)| {
                        let ends = Ends {
                            first: ends.first && i == 0,
                            last: ends.last && i + 1 == cs.len(),
                        };
                        Self::compile(c, params, ends)
                    })
                    .collect(),
            ),
            ShapeQuery::And(cs) => Self::And(all(cs)),
            ShapeQuery::Or(cs) => Self::Or(all(cs)),
            ShapeQuery::Not(c) => Self::Not(Box::new(Self::compile(c, params, Ends::NONE))),
        }
    }

    fn segment(s: &ShapeSegment, params: &ScoreParams, ends: Ends) -> Self {
        // Sharp/gradual/quantifier modifiers and sketches rescale or
        // replace the slope scorers entirely — the plain Table 7 bounds
        // don't apply.
        if s.modifier.is_some() || s.sketch.is_some() {
            return Self::Trivial;
        }
        let row = match &s.pattern {
            Some(Pattern::Up) => SlopeRow::Up,
            Some(Pattern::Down) => SlopeRow::Down,
            Some(Pattern::Flat) => SlopeRow::Flat,
            Some(Pattern::Slope(deg)) => {
                let (target, worst) = theta_target(*deg);
                SlopeRow::Theta {
                    target,
                    worst,
                    mode: target.tan(),
                }
            }
            // Wildcards, UDPs, position references, y-target lines,
            // location-only segments: non-slope scorers.
            _ => return Self::Trivial,
        };
        let located = !s.location.is_empty() || s.iterator.is_some();
        // A located window goes where its pins put it, and a window
        // touching both ends is the whole trendline, which the first tier
        // has bounded already.
        let anchor = match (located, ends.first, ends.last) {
            (false, true, false) => Some(End::First),
            (false, false, true) => Some(End::Last),
            _ => None,
        };
        let pins = match (s.location.x_start, s.location.x_end, s.iterator) {
            (Some(start), Some(end), None) => Some((start, end)),
            _ => None,
        };
        Self::Slope {
            row,
            constrained: located || params.min_width_frac > 0.0,
            located,
            anchor,
            pins,
        }
    }

    /// The ends some leaf of the plan is anchored at.
    fn anchors(&self) -> Ends {
        let any = |cs: &[BoundPlan]| cs.iter().fold(Ends::NONE, |acc, c| acc.union(c.anchors()));
        match self {
            Self::Trivial => Ends::NONE,
            Self::Slope { anchor, .. } => Ends {
                first: *anchor == Some(End::First),
                last: *anchor == Some(End::Last),
            },
            Self::Concat(cs) | Self::And(cs) | Self::Or(cs) => any(cs),
            Self::Not(c) => c.anchors(),
        }
    }

    /// The chain the third tier places whole, when the plan is one: a flat
    /// CONCAT of two or three slope units, the first and last anchored to
    /// their ends and the one between them free to take whatever window
    /// they leave. Any other shape — a longer chain, an operator or a
    /// nested CONCAT for a unit, a located or non-slope unit — has
    /// placements this enumeration does not cover.
    fn joint(&self) -> Option<JointChain> {
        let Self::Concat(units) = self else {
            return None;
        };
        let free_at = |unit: &Self, end: Option<End>| match unit {
            Self::Slope {
                row,
                located: false,
                anchor,
                ..
            } if *anchor == end => Some(*row),
            _ => None,
        };
        let middle = match units.len() {
            2 => None,
            3 => Some(free_at(&units[1], None)?),
            _ => return None,
        };
        Some(JointChain {
            first: free_at(units.first()?, Some(End::First))?,
            middle,
            last: free_at(units.last()?, Some(End::Last))?,
        })
    }

    /// The second tier: [`Self::bounds`] for one visualization, with each
    /// anchored leaf's upper bound taken over the `n − 1` windows its end
    /// allows (`windows`, loaded for this visualization) instead of over
    /// every slope between the interval extremes. Sound for the reason
    /// `compile` gives; never looser than the first tier, since each of
    /// those windows' slopes lies between the extremes too. The operator
    /// arithmetic is [`Self::bounds`]' own, operand for operand, so a
    /// plan without anchors gets the same bits from both.
    fn anchored(&self, viz: &VizData, windows: &EndWindows) -> (f64, f64) {
        let fold = |cs: &[BoundPlan], pick: fn(f64, f64) -> f64| {
            let mut each = cs.iter().map(|c| c.anchored(viz, windows));
            let first = each.next().unwrap_or((-1.0, 1.0));
            each.fold(first, |(lo, hi), (l, h)| (pick(lo, l), pick(hi, h)))
        };
        match self {
            Self::Trivial => (-1.0, 1.0),
            Self::Slope {
                row,
                constrained,
                anchor,
                pins,
                ..
            } => {
                let (lo, hi) = row.leaf_bounds(viz, *constrained, *pins);
                (lo, anchor.map_or(hi, |end| row.best_over(windows.at(end))))
            }
            Self::Concat(cs) => {
                let n = cs.len().max(1) as f64;
                let (_, hi) = fold(cs, |a, b| a + b);
                (-1.0, hi / n)
            }
            Self::And(cs) => fold(cs, f64::min),
            Self::Or(cs) => fold(cs, f64::max),
            Self::Not(c) => {
                let (lo, hi) = c.anchored(viz, windows);
                (-hi, -lo)
            }
        }
    }

    /// The second tier's upper bound, as the driver prunes by it:
    /// [`Self::anchored`]'s plus [`ROUNDING_ALLOWANCE`] for each leaf of the
    /// plan. Each leaf's bound is the exact best of the scores a segmenter
    /// can give that leaf (the same slopes through the same Table 5 map),
    /// so only the totals differ, and only by rounding. A chain of `u`
    /// units is a mean here, `Σ w·score` in chain order in the DP — under
    /// 2u ulps of 1.0 each way from the real sum — and in the SegmentTree
    /// re-associated as tier 3's constant derives: at most one entry a
    /// level per break combined, 4 ulps a bridge, 32 levels, so 128 ulps a
    /// break and `u − 1` breaks. `128(u − 1) + 4u` is under half of `512u`,
    /// and a chain has no more units than the plan has leaves. AND, OR and
    /// NOT pass errors through unchanged. Without it the tree's score of a
    /// tie sits an ulp above the bound and is pruned under `upper < τ`.
    fn anchored_upper(&self, viz: &VizData, windows: &EndWindows) -> f64 {
        self.anchored(viz, windows).1 + self.allowance()
    }

    /// [`ROUNDING_ALLOWANCE`] for each leaf of the plan: what every tier's
    /// upper bound takes before the driver prunes by it (see
    /// [`Self::anchored_upper`] for why that covers every segmenter).
    fn allowance(&self) -> f64 {
        self.leaves() as f64 * ROUNDING_ALLOWANCE
    }

    /// Leaf nodes in the plan: an upper limit on the units in any chain
    /// the query expands to.
    fn leaves(&self) -> usize {
        match self {
            Self::Trivial | Self::Slope { .. } => 1,
            Self::Concat(cs) | Self::And(cs) | Self::Or(cs) => cs.iter().map(Self::leaves).sum(),
            Self::Not(c) => c.leaves(),
        }
    }

    /// Score bounds `(lower, upper)` for the compiled query over each of
    /// `vizzes`, in O(query size) per visualization from the GROUP-time
    /// interval-slope extremes and their angles cached on the
    /// [`VizData`]: the per-segment Table 7 bounds combined through the
    /// operator bounds of Property 5.1. Evaluated a plan node at a time
    /// over the whole collection, so each Table 7 row is one tight loop.
    ///
    /// Validity follows from the least-squares slope of any merged range
    /// being a convex combination of its interval slopes (the "law of the
    /// triangle" in the paper's Theorem 6.4 proof), so every pattern's
    /// fitted slope lies in `[slope_min, slope_max]` and the pattern
    /// scorers are monotone or unimodal in slope — the extreme scores
    /// over that interval are attained at the cached extremes. (Nested
    /// CONCATs are handled for free: the recursive mean equals chain
    /// expansion's weighted-average semantics.)
    fn bounds(&self, vizzes: &[&VizData]) -> Vec<(f64, f64)> {
        // Folds the children's columns into the first one.
        let fold = |cs: &[BoundPlan], pick: fn(f64, f64) -> f64| {
            let mut columns = cs.iter().map(|c| c.bounds(vizzes));
            let mut acc = columns
                .next()
                .unwrap_or_else(|| vec![(-1.0, 1.0); vizzes.len()]);
            for column in columns {
                for ((lo, hi), (l, h)) in acc.iter_mut().zip(column) {
                    (*lo, *hi) = (pick(*lo, l), pick(*hi, h));
                }
            }
            acc
        };
        match self {
            Self::Trivial => vec![(-1.0, 1.0); vizzes.len()],
            Self::Slope {
                row,
                constrained,
                pins,
                ..
            } => vizzes
                .iter()
                .map(|viz| row.leaf_bounds(viz, *constrained, *pins))
                .collect(),
            // A chain's floor is −1 whatever its units' are: given a
            // window with fewer intervals than it has units, or pins that
            // leave no room, it is infeasible — and a segmenter free to
            // place a negated chain squeezes it into just such a window.
            Self::Concat(cs) => {
                let n = cs.len().max(1) as f64;
                let mut mean = fold(cs, |a, b| a + b);
                for (lo, hi) in &mut mean {
                    (*lo, *hi) = (-1.0, *hi / n);
                }
                mean
            }
            Self::And(cs) => fold(cs, f64::min),
            Self::Or(cs) => fold(cs, f64::max),
            Self::Not(c) => {
                let mut column = c.bounds(vizzes);
                for (lo, hi) in &mut column {
                    (*lo, *hi) = (-*hi, -*lo);
                }
                column
            }
        }
    }
}

impl SlopeRow {
    /// The slope scorers are monotone (up/down) or unimodal (flat/theta)
    /// in slope, so both extremes over `[slope_min, slope_max]` are
    /// attained at the cached endpoints — and since those endpoints *are*
    /// interval slopes, these equal the exact leaf-level min/max of
    /// Table 7.
    #[inline]
    fn bounds(self, viz: &VizData) -> (f64, f64) {
        let (lo_t, hi_t) = (viz.theta_min, viz.theta_max);
        // A unimodal scorer bottoms out at an endpoint and peaks at one
        // too, unless the slopes straddle its mode: they can then merge
        // onto it exactly.
        let unimodal = |a: f64, b: f64, mode: f64| {
            let straddles = viz.slope_min < mode && viz.slope_max > mode;
            (a.min(b), if straddles { 1.0 } else { a.max(b) })
        };
        match self {
            Self::Up => (self.at(lo_t), self.at(hi_t)),
            Self::Down => (self.at(hi_t), self.at(lo_t)),
            Self::Flat => unimodal(self.at(lo_t), self.at(hi_t), 0.0),
            Self::Theta { mode, .. } => unimodal(self.at(lo_t), self.at(hi_t), mode),
        }
    }

    /// A slope leaf's first-tier bounds: [`Self::bounds`], with the lower
    /// one voided to −1 when a hard constraint can force a segment there
    /// (`constrained`), and the upper one the score on its own window when
    /// x pins give it one ([`Self::pinned`]).
    #[inline]
    fn leaf_bounds(self, viz: &VizData, constrained: bool, pins: Option<(f64, f64)>) -> (f64, f64) {
        let (lo, hi) = self.bounds(viz);
        (
            if constrained { -1.0 } else { lo },
            pins.and_then(|pins| self.pinned(viz, pins)).unwrap_or(hi),
        )
    }

    /// The row's score on the one window raw pins `(x.s, x.e)` leave a
    /// segment in `viz` (§5.4), when they leave it an interval or more:
    /// `None` otherwise. Every exact segmenter either places the segment
    /// on exactly that window (the SegmentTree anchors it there, the DP
    /// and the greedy's DP fallback constrain its ends to it) or scores it
    /// −1 through the location check, and on that window it scores this
    /// very number — the same slope bits from the prefix columns, the same
    /// `atan`, the same Table 5 map — before y-endpoint checks and the
    /// width penalty, which only lower it. The clamp is the scorer's.
    #[inline]
    fn pinned(self, viz: &VizData, (start, end): (f64, f64)) -> Option<f64> {
        let (i, j) = (viz.x_to_index(start), viz.x_to_index(end));
        (j > i).then(|| clamp_score(self.at(viz.slope(i, j).atan())))
    }

    /// The row's Table 5 score at a fitted angle.
    #[inline]
    fn at(self, theta: f64) -> f64 {
        match self {
            Self::Up => up_at(theta),
            Self::Down => down_at(theta),
            Self::Flat => flat_at(theta),
            Self::Theta { target, worst, .. } => theta_at(theta, target, worst),
        }
    }

    /// The closed slope interval `(lo, hi)` outside which the row scores
    /// below `c` (empty, `lo > hi`, when nothing scores that high): each
    /// row inverted through `tan` — a half-line for the monotone rows, an
    /// interval round the mode for the unimodal ones — so a run of slopes
    /// is cut by comparisons alone. Widened outward by [`BAND_MARGIN`]:
    /// keeping a window too many is sound, dropping one is not.
    fn band(self, c: f64) -> (f64, f64) {
        use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};
        // The angles that score `c` or more, then outward by the margin.
        let (lo, hi) = match self {
            Self::Up => (c * FRAC_PI_2, f64::INFINITY),
            Self::Down => (f64::NEG_INFINITY, -c * FRAC_PI_2),
            Self::Flat => ((c - 1.0) * FRAC_PI_4, (1.0 - c) * FRAC_PI_4),
            Self::Theta { target, worst, .. } => {
                let reach = (1.0 - c) * worst / 2.0;
                (target - reach, target + reach)
            }
        };
        // Fitted angles lie within ±π/2: an edge beyond that range admits
        // every slope on its side, or none.
        let slope_at = |angle: f64| match angle {
            a if a <= -FRAC_PI_2 => f64::NEG_INFINITY,
            a if a >= FRAC_PI_2 => f64::INFINITY,
            a => a.tan(),
        };
        (slope_at(lo - BAND_MARGIN), slope_at(hi + BAND_MARGIN))
    }

    /// The row's best score over the windows whose fitted slopes are
    /// `slopes` (never empty: a visualization has two points at least),
    /// found in slope space — each row is monotone or unimodal in slope,
    /// so its best window is the steepest, the shallowest, or one of the
    /// two on either side of the mode — at one or two `atan`s, not one per
    /// window. Rests on `atan` being monotone, as [`Self::bounds`] does
    /// through the cached angles. A NaN slope makes the result NaN, which
    /// no threshold is above.
    fn best_over(self, slopes: &[f64]) -> f64 {
        match self {
            Self::Up => self.at(largest(slopes, |s| s).atan()),
            Self::Down => self.at((-largest(slopes, |s| -s)).atan()),
            Self::Flat => self.at((-largest(slopes, |s| -s.abs())).atan()),
            Self::Theta { mode, .. } => {
                const NOT_THIS_SIDE: f64 = f64::NEG_INFINITY;
                let below = largest(slopes, |s| if s <= mode { s } else { NOT_THIS_SIDE });
                let above = -largest(slopes, |s| if s >= mode { -s } else { NOT_THIS_SIDE });
                if below.is_nan() {
                    return f64::NAN;
                }
                // A side no slope lies on reads as an infinity; its angle
                // is not a window's, so it must not be scored. (`max`
                // drops the NaN it starts from at the first score.)
                [below, above]
                    .into_iter()
                    .filter(|s| s.is_finite())
                    .map(|s| self.at(s.atan()))
                    .fold(f64::NAN, f64::max)
            }
        }
    }
}

/// The largest `key(slope)` over `slopes`, NaN when any slope is. Four
/// running maxima, not one: a single chain of `max` is as slow as its
/// latency times the run's length, which on 127 windows is as long as
/// reading them took.
#[inline]
fn largest(slopes: &[f64], key: impl Fn(f64) -> f64) -> f64 {
    let mut lanes = [f64::NEG_INFINITY; 4];
    let mut nan = false;
    let mut take = |lane: &mut f64, s: f64| {
        nan |= s.is_nan();
        let v = key(s);
        *lane = if v > *lane { v } else { *lane };
    };
    let mut quads = slopes.chunks_exact(4);
    for quad in &mut quads {
        for (lane, &s) in lanes.iter_mut().zip(quad) {
            take(lane, s);
        }
    }
    for &s in quads.remainder() {
        take(&mut lanes[0], s);
    }
    if nan {
        return f64::NAN;
    }
    lanes.into_iter().fold(f64::NEG_INFINITY, f64::max)
}

/// How far, in radians of fitted angle, [`SlopeRow::band`] is widened past
/// the angle that scores exactly its cut. It has to cover every way a
/// window just outside the band could still be part of a total a segmenter
/// reads as τ: the cut itself (`(τ − 1)/w + 1`, two roundings), its
/// product with π/2 or π/4 and the `tan` (an ulp each), the segmenter's
/// `atan` and Table 5 map (three more), and [`ROUNDING_ALLOWANCE`] on the
/// total, which is 3 × 2⁻⁴³ of a unit score and so at most π/2 times that,
/// 5.4 × 10⁻¹³ rad. A nanoradian is three orders of magnitude above their
/// sum, and costs a window only when its score is within 1.3 × 10⁻⁹ of
/// the cut — on a walk, none.
const BAND_MARGIN: f64 = 1e-9;

/// What [`JointChain`] adds to a placement's total so that it dominates
/// the same placement's total in every segmenter's arithmetic: 512 ulps of
/// 1.0 (2⁻⁴³ ≈ 1.1 × 10⁻¹³). The DP and the greedy add `weight · score`
/// unit by unit in chain order, which is the order used here, bit for bit.
/// The SegmentTree re-associates and cancels: each bridge is `left.score −
/// left.last + right.score − right.first + merged`, four operations on
/// values below 3 in magnitude, so at most one ulp of 1.0 each; an entry
/// of two or more units has a break inside its node, a three-unit chain
/// has two breaks, so at most two entries a level are combined on the way
/// to the root's, and a tree has at most 32 levels (breaks are `u32`) —
/// 2 · 4 · 32 = 256 ulps, plus the three roundings here. Twice that. The
/// second tier takes it once per leaf ([`BoundPlan::anchored_upper`]).
const ROUNDING_ALLOWANCE: f64 = 512.0 * f64::EPSILON;

/// The third tier gives up, before its first `atan`, when the two bands
/// admit more end windows than this between them: half of what there is.
/// With [`max_pairs`] it holds the tier's worst case to `n/2` end windows
/// and `n − 1` middles: `3n/2` fitted angles, where a three-unit
/// SegmentTree takes `≈ 8.5n` (at `n = 128`, one shared by each of 253
/// nodes and ≈ 850 bridges, seven an inner node) — a sixth. Measured where
/// it matters — k = 200 on 1,000 × 128-point walks, where the threshold is
/// low and the tier prunes only one in seven of the candidates that reach
/// it — it costs 2.6 µs a candidate, under a tenth of the tree the other
/// six then cost. A candidate that overruns is one the threshold does not
/// yet separate from the top k: worth the tree.
const fn max_end_windows(n: usize) -> usize {
    n / 2
}

/// ... and, before its first middle window, when more pairs of ends than
/// this survive the pair cut. Swept on the same walks (34 three-unit
/// queries a pass, one thread; trees scored a pass at k = 5 without the
/// tier: 17,234): a cap of 64 leaves 6,822, `n − 1` = 127 leaves 5,954,
/// 256 leaves 5,548, 512 leaves 5,399 and no cap 5,385, while the pass
/// takes the same time from 64 up to within the noise of the machine
/// (≈ 240 ms; 610 at the parent commit). So the cap buys almost nothing
/// past `n − 1` and is there for the worst case above, not the average.
const fn max_pairs(n: usize) -> usize {
    n - 1
}

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
///   [`SlopeRow::band`] turns that into a slope interval, so the two runs
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
struct JointChain {
    first: SlopeRow,
    /// The unit between the ends, in a chain of three.
    middle: Option<SlopeRow>,
    last: SlopeRow,
}

impl JointChain {
    /// The largest placement total, when that reaches `threshold`: an
    /// upper bound on the exact score. Otherwise every placement,
    /// enumerated or cut, totals below `threshold`, so the float just
    /// below it is an upper bound too — and is the one returned, which is
    /// what a prune on a hint's word then records: the hint's sender finds
    /// its merged k-th above that exactly when it is at or above the hint.
    ///
    /// `refined`, the second-tier bound, comes back unchanged when the
    /// tier has nothing to say: NaN data (which nothing may prune), a
    /// chain with more units than the trendline has intervals (infeasible;
    /// −1 needs no bound), or a threshold so low that the cuts leave more
    /// than [`max_end_windows`] or [`max_pairs`] standing. `windows` holds
    /// `viz`'s runs for both ends.
    fn bound(&self, viz: &VizData, windows: &mut EndWindows, threshold: f64, refined: f64) -> f64 {
        let n = viz.n();
        let units = if self.middle.is_some() { 3 } else { 2 };
        if refined.is_nan() || n <= units {
            return refined;
        }
        let w = 1.0 / units as f64;
        let w_middle = if self.middle.is_some() { w } else { 0.0 };
        let total = |f: f64, m: f64, g: f64| w * f + w_middle * m + w * g + ROUNDING_ALLOWANCE;
        let score = |row: SlopeRow, slope: f64| clamp_score(row.at(slope.atan()));

        // The inner end points 1..=n − 2: `first[j − 1]` is `[0, j]`,
        // `last[i]` is `[i, n − 1]`.
        let alone = (threshold - 1.0) / w + 1.0;
        let EndWindows {
            first,
            last,
            kept_first,
            kept_last,
        } = windows;
        let keep = |row: SlopeRow, slopes: &[f64], kept: &mut Vec<(usize, f64)>| {
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::algo::dp::DpSegmenter;
    use crate::algo::Segmenter;
    use crate::chain::expand_chains;
    use crate::eval::{Evaluator, UdpRegistry};
    use crate::score;
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

    /// A seeded random walk of `n` points on an integer x grid.
    pub(crate) fn walk(seed: u64, n: usize) -> Vec<(f64, f64)> {
        let mut state = seed;
        let mut y = 0.0;
        (0..n)
            .map(|t| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                y += ((state >> 33) as f64) / ((1u64 << 31) as f64) - 1.0;
                (t as f64, y)
            })
            .collect()
    }

    /// A seeded random walk of `n` points whose steps go either way
    /// ([`walk`]'s only ever fall): the kind a chain of θ units fits well
    /// enough for the top-k threshold to be worth cutting by.
    pub(crate) fn wander(seed: u64, n: usize) -> Vec<(f64, f64)> {
        let mut y = 0.0;
        walk(seed, n + 1)
            .windows(2)
            .map(|step| 2.0 * (step[1].1 - step[0].1) + 1.0)
            .enumerate()
            .map(|(t, step)| {
                y += step;
                (t as f64, y)
            })
            .collect()
    }

    #[test]
    fn bounds_contain_final_score() {
        use crate::algo::segment_tree::SegmentTreeSegmenter;
        let udps = UdpRegistry::new();
        let slope = |deg: f64| ShapeQuery::pattern(Pattern::Slope(deg));
        let not = |q: ShapeQuery| ShapeQuery::Not(Box::new(q));
        let pinned_up = ShapeQuery::Segment(ShapeSegment::pinned(Pattern::Up, 2.0, 9.0));
        let starts_at = |x: f64| {
            let mut seg = ShapeSegment::pattern(Pattern::Down);
            seg.location.x_start = Some(x);
            ShapeQuery::Segment(seg)
        };
        let pinned = |p: Pattern, start: f64, end: f64| {
            ShapeQuery::Segment(ShapeSegment::pinned(p, start, end))
        };
        let with_ys = {
            let mut seg = ShapeSegment::pinned(Pattern::Slope(30.0), 1.0, 7.0);
            (seg.location.y_start, seg.location.y_end) = (Some(0.0), Some(4.0));
            ShapeQuery::Segment(seg)
        };
        let fuzzy3 = ShapeQuery::concat(vec![slope(45.0), slope(-30.0), slope(60.0)]);
        // Every arm the compiled plan has: the four Table 7 rows (θ
        // targets on, and past, the ±90° clamp included), each operator,
        // operators nested in each other, a pinned segment and the
        // minimum-width term (both void the lower bound only) — and, for
        // the second tier, each operator and a nested CONCAT at either end
        // of a chain, located units at the ends (not anchored), one-unit
        // chains (no tier); for the third, chains of two and of three
        // with each row at an end and in the middle. Segments pinned at
        // both ends are bounded by their own window: alone and chained,
        // with y endpoints too, with pins that meet at one canvas point
        // (no window: the extremes), inside a fuzzy chain, and under NOT,
        // OR and AND.
        let queries = [
            ShapeQuery::concat(vec![ShapeQuery::up(), ShapeQuery::down()]),
            ShapeQuery::concat(vec![ShapeQuery::flat(), slope(120.0)]),
            ShapeQuery::concat(vec![slope(-135.0), ShapeQuery::flat()]),
            ShapeQuery::concat(vec![ShapeQuery::down(), slope(20.0)]),
            ShapeQuery::concat(vec![ShapeQuery::down(), ShapeQuery::up(), slope(-50.0)]),
            ShapeQuery::concat(vec![slope(10.0), ShapeQuery::down(), ShapeQuery::up()]),
            ShapeQuery::up(),
            ShapeQuery::flat(),
            ShapeQuery::Or(vec![ShapeQuery::up(), ShapeQuery::flat()]),
            not(ShapeQuery::down()),
            slope(45.0),
            slope(-30.0),
            slope(120.0),
            slope(-135.0),
            slope(90.0),
            ShapeQuery::concat(vec![slope(60.0), slope(-60.0)]),
            ShapeQuery::concat(vec![slope(120.0), slope(90.0), slope(-135.0)]),
            ShapeQuery::concat(vec![slope(-135.0), ShapeQuery::flat(), slope(120.0)]),
            ShapeQuery::concat(vec![
                ShapeQuery::And(vec![
                    ShapeQuery::up(),
                    not(ShapeQuery::Or(vec![ShapeQuery::flat(), slope(-20.0)])),
                ]),
                ShapeQuery::Or(vec![
                    ShapeQuery::down(),
                    ShapeQuery::And(vec![slope(-70.0), not(slope(10.0))]),
                ]),
            ]),
            ShapeQuery::concat(vec![pinned_up.clone(), ShapeQuery::down()]),
            not(pinned_up.clone()),
            fuzzy3.clone(),
            ShapeQuery::concat(vec![
                ShapeQuery::flat(),
                ShapeQuery::up(),
                ShapeQuery::flat(),
            ]),
            ShapeQuery::concat(vec![
                ShapeQuery::Or(vec![ShapeQuery::flat(), slope(70.0)]),
                ShapeQuery::down(),
                ShapeQuery::And(vec![ShapeQuery::up(), slope(20.0)]),
            ]),
            ShapeQuery::concat(vec![
                not(slope(30.0)),
                ShapeQuery::up(),
                not(ShapeQuery::flat()),
            ]),
            // Nested CONCATs, kept nested (`concat` would flatten them).
            ShapeQuery::Concat(vec![
                ShapeQuery::Concat(vec![slope(50.0), ShapeQuery::down()]),
                ShapeQuery::flat(),
                ShapeQuery::Concat(vec![ShapeQuery::up(), slope(-40.0)]),
            ]),
            ShapeQuery::Concat(vec![
                ShapeQuery::Or(vec![
                    ShapeQuery::down(),
                    ShapeQuery::Concat(vec![slope(35.0), slope(-35.0)]),
                ]),
                ShapeQuery::And(vec![
                    ShapeQuery::Concat(vec![ShapeQuery::up(), ShapeQuery::down()]),
                    ShapeQuery::flat(),
                ]),
            ]),
            ShapeQuery::And(vec![fuzzy3.clone(), ShapeQuery::up()]),
            // The DP squeezes a negated chain into a window too short to
            // hold it: infeasible, −1, negated to a perfect 1.
            ShapeQuery::Concat(vec![
                ShapeQuery::up(),
                not(ShapeQuery::Concat(vec![
                    ShapeQuery::down(),
                    ShapeQuery::up(),
                ])),
            ]),
            ShapeQuery::concat(vec![pinned_up.clone(), slope(-30.0), ShapeQuery::up()]),
            ShapeQuery::concat(vec![ShapeQuery::up(), slope(-30.0), pinned_up]),
            ShapeQuery::concat(vec![starts_at(1.0), ShapeQuery::up(), slope(15.0)]),
            ShapeQuery::concat(vec![
                ShapeQuery::up(),
                ShapeQuery::Segment(ShapeSegment::pattern(Pattern::Down).with_width(3.0)),
            ]),
            ShapeQuery::concat(vec![ShapeQuery::flat(); 5]),
            pinned(Pattern::Up, 2.0, 9.0),
            pinned(Pattern::Slope(-120.0), 0.0, 15.0),
            ShapeQuery::concat(vec![
                pinned(Pattern::Down, 1.0, 6.0),
                pinned(Pattern::Up, 6.0, 12.0),
            ]),
            ShapeQuery::concat(vec![
                pinned(Pattern::Flat, 0.0, 3.0),
                pinned(Pattern::Slope(40.0), 3.0, 8.0),
                pinned(Pattern::Down, 8.0, 14.0),
            ]),
            with_ys.clone(),
            ShapeQuery::concat(vec![with_ys.clone(), ShapeQuery::down()]),
            pinned(Pattern::Up, 4.2, 4.4),
            ShapeQuery::concat(vec![pinned(Pattern::Down, 4.2, 4.4), ShapeQuery::up()]),
            ShapeQuery::concat(vec![
                ShapeQuery::up(),
                pinned(Pattern::Down, 5.0, 10.0),
                ShapeQuery::flat(),
            ]),
            not(pinned(Pattern::Slope(-30.0), 3.0, 12.0)),
            ShapeQuery::concat(vec![not(pinned(Pattern::Up, 0.0, 5.0)), ShapeQuery::down()]),
            ShapeQuery::Or(vec![pinned(Pattern::Up, 2.0, 9.0), ShapeQuery::flat()]),
            ShapeQuery::concat(vec![
                ShapeQuery::Or(vec![pinned(Pattern::Flat, 0.0, 4.0), slope(20.0)]),
                ShapeQuery::And(vec![pinned(Pattern::Up, 4.0, 11.0), ShapeQuery::up()]),
            ]),
        ];
        let widthy = ScoreParams {
            min_width_frac: 0.25,
            ..ScoreParams::default()
        };
        // The peaks and falls, seeded walks long and short (two points is
        // the fewest GROUP accepts) that fall all the way and that wander,
        // constant and linear series (where scores tie their bounds), and
        // all of them again three to a bin.
        let mut collection = make_collection();
        let series = [2usize, 3, 4, 16, 33, 64]
            .into_iter()
            .flat_map(|n| [walk(n as u64, n), wander(n as u64, n)])
            .chain([10usize, 16].into_iter().flat_map(|n| {
                let line = |rise: f64| -> Vec<(f64, f64)> {
                    (0..n).map(|t| (t as f64, rise * t as f64 - 3.0)).collect()
                };
                [line(0.0), line(1.0), line(-0.25)]
            }));
        for (i, pairs) in series.enumerate() {
            let t = Trendline::from_pairs(format!("s{i}"), &pairs);
            for bin in [1, 3] {
                collection.extend(VizData::from_trendline(&t, 20 + i, bin));
            }
        }
        let (mut anchored, mut joined, mut cut, mut on_window) = (0, 0, 0, 0);
        for params in [ScoreParams::default(), widthy] {
            for q in &queries {
                let (cell, counters) = (ThresholdCell::new(), PruningCounters::new());
                let driver = PruningDriver::new(q, &params, &cell, &counters, 1);
                for v in &collection {
                    let ev = Evaluator::new(v, &params, &udps);
                    let chains = expand_chains(q);
                    let exact = DpSegmenter.match_viz(&ev, &chains).score;
                    let tree = SegmentTreeSegmenter::default()
                        .match_viz(&ev, &chains)
                        .score;
                    let (lo, hi) = query_bounds(q, v, &params);
                    let case = format!(
                        "{q} on #{} ({} points, min width {})",
                        v.source,
                        v.n(),
                        params.min_width_frac
                    );
                    assert!(tree <= exact + 1e-9, "tree {tree} > dp {exact}: {case}");
                    assert!(exact >= lo - 1e-9, "score {exact} under {lo}: {case}");
                    // What the driver prunes by bounds both scores with no
                    // tolerance: a prune is `upper < τ`, so an ulp under
                    // either is a tie lost.
                    let upper = driver.upper_bounds(&[v])[0];
                    assert!(
                        exact <= upper && tree <= upper,
                        "score {exact} or tree {tree} > bound {upper} (bare {hi}): {case}"
                    );
                    if exact > -1.0 && exact == hi {
                        on_window +=
                            usize::from(q.segments().iter().any(|s| s.location.x_end.is_some()));
                    }
                    let tight = anchored_upper_bound(q, v, &params);
                    if let Some(tight) = tight {
                        anchored += 1;
                        assert!(
                            exact <= tight && tree <= tight && tight <= upper,
                            "score {exact} or tree {tree} ≤ anchored {tight} ≤ whole {upper} \
                             broken: {case}"
                        );
                    }
                    // The third tier against thresholds either side of
                    // the exact score, and on it: at or above the
                    // threshold it bounds the score — the DP's and the
                    // tree's, which re-associates its way an ulp past the
                    // DP now and then; no tolerance, the rounding
                    // allowance is its own — and below it the score is
                    // below too: which an ulp above the score is where it
                    // has to say, and on the score where it must not.
                    for threshold in [
                        f64::NEG_INFINITY,
                        exact - 0.3,
                        exact,
                        exact.next_up(),
                        exact + 0.05,
                    ] {
                        let Some(joint) = joint_upper_bound(q, v, &params, threshold) else {
                            continue;
                        };
                        if Some(joint.to_bits()) == tight.map(f64::to_bits) {
                            continue; // nothing to say: the second tier's, held above
                        }
                        joined += 1;
                        if joint < threshold {
                            cut += 1;
                            assert!(
                                exact < threshold && tree < threshold,
                                "joint {joint} < τ {threshold} ≤ score {exact} or tree {tree}: \
                                 {case}"
                            );
                        } else {
                            assert!(
                                exact <= joint && tree <= joint,
                                "score {exact} or tree {tree} > joint {joint} (τ {threshold}): \
                                 {case}"
                            );
                        }
                    }
                    // The second tier's operator arithmetic is the first's:
                    // compiled with no end to anchor, both give the same
                    // bits.
                    let plain = BoundPlan::compile(q, &params, Ends::NONE);
                    assert_eq!(plain.anchors(), Ends::NONE);
                    let (a, b) = plain.anchored(v, &EndWindows::default());
                    assert_eq!((a.to_bits(), b.to_bits()), (lo.to_bits(), hi.to_bits()));
                }
            }
        }
        assert!(anchored > 0 && joined > 0 && cut > 0 && on_window > 0);
    }

    #[test]
    fn only_free_units_at_the_ends_of_a_chain_are_anchored() {
        let params = ScoreParams::default();
        let anchors = |q: &ShapeQuery, params: &ScoreParams| {
            let ends = BoundPlan::compile(q, params, Ends::BOTH).anchors();
            (ends.first, ends.last)
        };
        let slope = |deg: f64| ShapeQuery::pattern(Pattern::Slope(deg));
        let pinned = ShapeQuery::Segment(ShapeSegment::pinned(Pattern::Up, 2.0, 9.0));
        let windowed = ShapeQuery::Segment(ShapeSegment::pattern(Pattern::Up).with_width(4.0));
        let any = ShapeQuery::pattern(Pattern::Any);
        let fuzzy3 = ShapeQuery::concat(vec![slope(45.0), slope(-30.0), slope(60.0)]);
        assert_eq!(anchors(&fuzzy3, &params), (true, true));
        // The minimum-width term only lowers a score: still anchored.
        let widthy = ScoreParams {
            min_width_frac: 0.25,
            ..ScoreParams::default()
        };
        assert_eq!(anchors(&fuzzy3, &widthy), (true, true));
        // One unit is the whole trendline; so is an operator over units.
        assert_eq!(anchors(&ShapeQuery::up(), &params), (false, false));
        let either = ShapeQuery::Or(vec![ShapeQuery::up(), ShapeQuery::flat()]);
        assert_eq!(anchors(&either, &params), (false, false));
        // Located, windowed and non-slope units go where they like.
        let head = ShapeQuery::concat(vec![pinned.clone(), ShapeQuery::down()]);
        assert_eq!(anchors(&head, &params), (false, true));
        let tail = ShapeQuery::concat(vec![ShapeQuery::down(), windowed]);
        assert_eq!(anchors(&tail, &params), (true, false));
        let neither = ShapeQuery::concat(vec![pinned, ShapeQuery::down(), any]);
        assert_eq!(anchors(&neither, &params), (false, false));
        // NOT keeps the whole-trendline bound; AND and OR pass their
        // window down, nested CONCATs their own first and last.
        let negated = ShapeQuery::concat(vec![
            ShapeQuery::Not(Box::new(ShapeQuery::up())),
            ShapeQuery::And(vec![ShapeQuery::down(), ShapeQuery::flat()]),
        ]);
        assert_eq!(anchors(&negated, &params), (false, true));
        let nested = ShapeQuery::And(vec![
            ShapeQuery::Concat(vec![ShapeQuery::up(), ShapeQuery::down()]),
            ShapeQuery::flat(),
        ]);
        assert_eq!(anchors(&nested, &params), (true, true));
    }

    #[test]
    fn only_a_whole_chain_of_two_or_three_free_slope_units_is_placed_whole() {
        let joint = |q: &ShapeQuery, params: &ScoreParams| {
            BoundPlan::compile(q, params, Ends::BOTH)
                .joint()
                .map(|chain| 2 + usize::from(chain.middle.is_some()))
        };
        let params = ScoreParams::default();
        let slope = |deg: f64| ShapeQuery::pattern(Pattern::Slope(deg));
        let (up, down, flat) = (ShapeQuery::up, ShapeQuery::down, ShapeQuery::flat);
        let chain = |units: Vec<ShapeQuery>| ShapeQuery::concat(units);
        assert_eq!(joint(&chain(vec![up(), down()]), &params), Some(2));
        assert_eq!(
            joint(&chain(vec![slope(45.0), flat(), slope(120.0)]), &params),
            Some(3)
        );
        // The minimum-width term only lowers a score.
        let widthy = ScoreParams {
            min_width_frac: 0.25,
            ..ScoreParams::default()
        };
        assert_eq!(joint(&chain(vec![up(), down(), up()]), &widthy), Some(3));
        // One unit has nothing to place; four have two middles.
        assert_eq!(joint(&up(), &params), None);
        assert_eq!(
            joint(&chain(vec![up(), down(), up(), down()]), &params),
            None
        );
        // Every unit must be a slope leaf free to take the window it is
        // left: not located or windowed (at an end or between them), not a
        // wildcard, not an operator, not a chain of its own (whose units
        // weigh a quarter, not a third).
        let pinned = ShapeQuery::Segment(ShapeSegment::pinned(Pattern::Up, 2.0, 9.0));
        let windowed = ShapeQuery::Segment(ShapeSegment::pattern(Pattern::Up).with_width(4.0));
        let any = ShapeQuery::pattern(Pattern::Any);
        let either = ShapeQuery::Or(vec![up(), flat()]);
        let negated = ShapeQuery::Not(Box::new(down()));
        let inner = ShapeQuery::Concat(vec![down(), up()]);
        for odd in [pinned, windowed, any, either, negated, inner] {
            for at in 0..3 {
                let mut units = vec![up(), down(), up()];
                units[at] = odd.clone();
                assert_eq!(
                    joint(&ShapeQuery::Concat(units), &params),
                    None,
                    "{odd} at {at}"
                );
            }
            assert_eq!(
                joint(&ShapeQuery::Concat(vec![odd.clone(), up()]), &params),
                None
            );
        }
        // Nor is a chain under an operator the whole query.
        let under = ShapeQuery::And(vec![chain(vec![up(), down()]), flat()]);
        assert_eq!(joint(&under, &params), None);
    }

    #[test]
    fn a_segment_pinned_at_both_ends_is_bounded_on_its_own_window() {
        let params = ScoreParams::default();
        let udps = UdpRegistry::new();
        let pinned = |p: Pattern, start: f64, end: f64| ShapeSegment::pinned(p, start, end);
        let q = ShapeQuery::concat(vec![
            ShapeQuery::Segment(pinned(Pattern::Up, 10.0, 30.0)),
            ShapeQuery::Segment(pinned(Pattern::Slope(-30.0), 30.0, 50.0)),
        ]);
        let fuzzy = ShapeQuery::concat(vec![
            ShapeQuery::up(),
            ShapeQuery::pattern(Pattern::Slope(-30.0)),
        ]);
        for seed in 1..=20 {
            let v = viz(&wander(seed, 64), 0);
            // The walk's interval slopes reach past every target: the
            // extremes bound the chain at ≈ 1, its windows at its score.
            assert!(query_bounds(&fuzzy, &v, &params).1 > 0.9, "walk {seed}");
            let ev = Evaluator::new(&v, &params, &udps);
            let exact = DpSegmenter.match_viz(&ev, &expand_chains(&q)).score;
            let (_, hi) = query_bounds(&q, &v, &params);
            let on_windows = (score::score_up(v.slope(10, 30))
                + score::score_theta(v.slope(30, 50), -30.0))
                / 2.0;
            assert_eq!(hi, on_windows, "walk {seed}");
            assert!(
                (hi - exact).abs() <= 2.0 * f64::EPSILON,
                "walk {seed}: {hi} vs {exact}"
            );
        }

        // Pins that leave no interval between them, and pins under an
        // ITERATOR, place nothing the bound can name: the extremes stand.
        let v = viz(&wander(7, 64), 0);
        let (_, extremes) = query_bounds(&ShapeQuery::up(), &v, &params);
        for seg in [
            pinned(Pattern::Up, 20.2, 20.4),
            pinned(Pattern::Up, 40.0, 20.0),
            pinned(Pattern::Up, 10.0, 30.0).with_width(5.0),
        ] {
            let q = ShapeQuery::Segment(seg);
            assert_eq!(query_bounds(&q, &v, &params), (-1.0, extremes), "{q}");
        }
        // One pin alone leaves the segment a run of windows.
        let mut seg = ShapeSegment::pattern(Pattern::Up);
        seg.location.x_start = Some(10.0);
        let q = ShapeQuery::Segment(seg);
        assert_eq!(query_bounds(&q, &v, &params), (-1.0, extremes));
    }

    #[test]
    fn theta_mode_follows_the_clamped_target() {
        // Slopes straddling tan 120° = −1.73: the scorer clamps the target
        // to 90° and rises with slope throughout, so the steepest interval
        // is the bound, not 1.
        let v = viz(&[(0.0, 0.0), (1.0, -3.0), (2.0, -2.0), (3.0, -4.0)], 0);
        assert!(v.slope_min < -1.8 && v.slope_max > -1.7);
        let params = ScoreParams::default();
        for (deg, steepest) in [
            (120.0, v.theta_max),
            (90.0, v.theta_max),
            (-135.0, v.theta_min),
        ] {
            let (target, worst) = theta_target(deg);
            let (_, hi) = query_bounds(&ShapeQuery::pattern(Pattern::Slope(deg)), &v, &params);
            assert_eq!(hi, theta_at(steepest, target, worst), "θ = {deg}");
            assert!(hi < 1.0);
        }
    }

    #[test]
    fn no_slope_outside_a_band_scores_its_cut() {
        let theta = |deg: f64| {
            let (target, worst) = theta_target(deg);
            SlopeRow::Theta {
                target,
                worst,
                mode: target.tan(),
            }
        };
        let rows = [
            SlopeRow::Up,
            SlopeRow::Down,
            SlopeRow::Flat,
            theta(45.0),
            theta(-30.0),
            theta(0.0),
            theta(89.5),
            theta(90.0),
            theta(120.0),
            theta(-135.0),
        ];
        let score = |row: SlopeRow, slope: f64| clamp_score(row.at(slope.atan()));
        // Steps away from an edge, from the last bit to a tenth of it.
        let steps: Vec<f64> = (0..=32).map(|e| 0.1 * 0.5f64.powi(e * 50 / 32)).collect();
        let (mut edges, mut empty) = (0, 0);
        for row in rows {
            for c in [
                -1.5, -1.0, -0.999, -0.5, 0.0, 0.3, 0.85, 0.97, 0.999_999, 1.0, 1.000_001, 1.2,
            ] {
                let (lo, hi) = row.band(c);
                assert!(!lo.is_nan() && !hi.is_nan(), "{row:?} at {c}");
                if lo > hi {
                    // Nothing scores `c`: not the mode, not the extremes.
                    empty += 1;
                    let mode = match row {
                        SlopeRow::Theta { mode, .. } => mode,
                        _ => 0.0,
                    };
                    for slope in [-1e12, -1.0, 0.0, 1.0, 1e12, mode] {
                        assert!(score(row, slope) < c, "{row:?} at {c}: slope {slope}");
                    }
                    continue;
                }
                for (edge, outward) in [(lo, -1.0), (hi, 1.0)] {
                    if edge.is_infinite() {
                        continue;
                    }
                    edges += 1;
                    let scale = edge.abs().max(1e-3);
                    for step in &steps {
                        let outside = edge + outward * step * scale;
                        assert!(
                            score(row, outside) < c,
                            "{row:?} scores {} ≥ {c} at slope {outside}, outside [{lo}, {hi}]",
                            score(row, outside)
                        );
                    }
                    // And the margin is a margin, not a licence: a
                    // millionth of a radian inside the edge (where the
                    // band is that wide) scores the cut.
                    let inside = (edge.atan() - outward * 1e-6).tan();
                    if lo <= inside && inside <= hi {
                        let at = score(row, inside);
                        assert!(at >= c, "{row:?} scores {at} < {c} inside [{lo}, {hi}]");
                    }
                }
                // `next_up`/`next_down` of an edge: the nearest slopes out.
                for outside in [lo.next_down(), hi.next_up()] {
                    if outside.is_finite() {
                        assert!(score(row, outside) < c, "{row:?} at {c}: slope {outside}");
                    }
                }
            }
        }
        assert!(
            edges > 100 && empty > 10,
            "{edges} edges, {empty} empty bands"
        );
    }

    #[test]
    fn a_threshold_too_low_to_cut_by_returns_the_second_tier_bound() {
        // Two straight 16-interval rises of the whole y range, one from
        // the first point and one into the last, a step down after the
        // first and before the second: 16 windows from either end fit
        // `up` equally well, the rest soon badly.
        let (n, leg) = (128usize, 16usize);
        let pairs: Vec<(f64, f64)> = (0..n)
            .map(|t| {
                let y = match t {
                    t if t <= leg => t as f64 / leg as f64,
                    t if t < n - 1 - leg => 0.5,
                    t => (t - (n - 1 - leg)) as f64 / leg as f64,
                };
                (t as f64, y)
            })
            .collect();
        let v = viz(&pairs, 0);
        let q = ShapeQuery::concat(vec![ShapeQuery::up(), ShapeQuery::down(), ShapeQuery::up()]);
        let params = ScoreParams::default();
        let plan = BoundPlan::compile(&q, &params, Ends::BOTH);
        let chain = plan.joint().expect("three free slope units");
        let mut windows = EndWindows::default();
        windows.load(&v, Ends::BOTH);
        let refined = plan.anchored(&v, &windows).1;
        let ends_kept = |windows: &EndWindows, threshold: f64| {
            let (lo, hi) = SlopeRow::Up.band((threshold - 1.0) * 3.0 + 1.0);
            let within = |&&s: &&f64| lo <= s && s <= hi;
            windows.first[..n - 2].iter().filter(within).count()
                + windows.last[1..].iter().filter(within).count()
        };
        let same_bits = |threshold: f64, windows: &mut EndWindows| {
            let joint = chain.bound(&v, windows, threshold, refined);
            assert_eq!(joint.to_bits(), refined.to_bits(), "τ = {threshold}");
        };

        // Low enough that most windows from either end could belong to a
        // total that reaches it: more than n/2 stand, and the tier stops.
        assert!(ends_kept(&windows, 0.3) > max_end_windows(n));
        same_bits(0.3, &mut windows);

        // Just under what two straight legs and a perfect middle total:
        // the bands keep little more than the legs, but any leg window
        // pairs with any other — 16² placements, more than n − 1.
        let on_a_leg = clamp_score(SlopeRow::Up.at(windows.first[0].atan()));
        let threshold = (2.0 * on_a_leg + 1.0) / 3.0 - 0.004;
        let steep = windows.first[0];
        let legs = |run: &[f64]| {
            run.iter()
                .filter(|&&s| (s / steep - 1.0).abs() < 1e-9)
                .count()
        };
        assert!(legs(&windows.first) >= leg && legs(&windows.last) >= leg);
        assert!(leg * leg > max_pairs(n));
        assert!(ends_kept(&windows, threshold) <= max_end_windows(n));
        same_bits(threshold, &mut windows);

        // Just over it no pair does, and the tier says so.
        let threshold = (2.0 * on_a_leg + 1.0) / 3.0 + 0.004;
        let joint = chain.bound(&v, &mut windows, threshold, refined);
        assert_eq!(joint, threshold.next_down());
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
        // 2,500 passes of 400 ns over 3 candidates each (tiny shards):
        // each truncates to 0 µs on its own, the run took a millisecond.
        for _ in 0..2_500 {
            counters.record_bound_pass(3, Duration::from_nanos(400));
        }
        let snap = counters.snapshot();
        assert_eq!((snap.bounded, snap.bound_micros), (7_500, 1_000));
        // The sub-microsecond remainder is dropped once, at the read.
        counters.record_bound_pass(1, Duration::from_nanos(999));
        assert_eq!(counters.snapshot().bound_micros, 1_000);
        counters.record_bound_pass(1, Duration::from_nanos(1));
        assert_eq!(counters.snapshot().bound_micros, 1_001);
    }

    #[test]
    fn driver_prunes_only_below_threshold_and_records_hint_debt() {
        let params = ScoreParams::default();
        // Whether a one-candidate walk handed the candidate to the scorer
        // (the exact score it reports back is below every threshold used
        // here).
        let scored = |driver: &PruningDriver<'_>, viz: &VizData, bounds: &[f64]| {
            let mut scored = false;
            driver.visit(&[viz], bounds, 0..1, |_| {
                scored = true;
                -1.0
            });
            scored
        };

        // The whole-trendline bound alone: one unit, no end to anchor.
        let q = ShapeQuery::up();
        let cell = ThresholdCell::new();
        let counters = PruningCounters::new();
        let driver = PruningDriver::new(&q, &params, &cell, &counters, 2);
        let fall = viz(
            &(0..16).map(|t| (t as f64, -(t as f64))).collect::<Vec<_>>(),
            0,
        );

        // One pass, one bound per candidate: the plan's, and the one
        // leaf's rounding allowance.
        let bounds = driver.upper_bounds(&[&fall]);
        let (_, bare) = query_bounds(&q, &fall, &params);
        let ub = bare + ROUNDING_ALLOWANCE;
        assert_eq!(bounds, [ub]);
        assert_eq!(counters.snapshot().bounded, 1);

        // No threshold yet: nothing prunes.
        assert!(scored(&driver, &fall, &bounds));
        // A raised NEG_INFINITY (a top-k that hasn't filled) is a no-op,
        // not a threshold.
        cell.raise(f64::NEG_INFINITY);
        assert!(scored(&driver, &fall, &bounds));

        // A threshold equal to the bound does not prune — a tie could
        // still displace the k-th result by index order.
        cell.raise(ub);
        assert!(scored(&driver, &fall, &bounds));
        assert_eq!(counters.snapshot().pruned, 0);

        // A proven threshold above the fall's upper bound prunes it,
        // with no hint debt.
        cell.raise(0.9);
        assert!(!scored(&driver, &fall, &bounds));
        let snap = counters.snapshot();
        assert_eq!((snap.bounded, snap.pruned, snap.scored), (1, 1, 3));
        assert_eq!(cell.hint_pruned(), None);

        // A hint-only threshold prunes too, but records the bound so the
        // hint's sender can verify.
        let cell2 = ThresholdCell::new();
        cell2.seed_hint(0.9);
        let driver2 = PruningDriver::new(&q, &params, &cell2, &counters, 2);
        assert!(!scored(&driver2, &fall, &bounds));
        let debt = cell2.hint_pruned().expect("hint prune must be recorded");
        assert_eq!(debt, ub);
        // With no end to anchor, nobody was bounded twice.
        assert_eq!(counters.snapshot().refined, 0);
        assert_eq!(anchored_upper_bound(&q, &fall, &params), None);

        // The second tier, under the same rule. A line that rises and
        // falls by turns: its interval slopes reach both ways, so the
        // whole-trendline bound of up-then-down is high; no window from
        // the first point rises as steeply, none falls as steeply into
        // the last.
        let q = ShapeQuery::concat(vec![ShapeQuery::up(), ShapeQuery::down()]);
        let zigzag = viz(
            &(0..16)
                .map(|t| (t as f64, (t % 2) as f64))
                .collect::<Vec<_>>(),
            0,
        );
        let (_, whole) = query_bounds(&q, &zigzag, &params);
        let tight = anchored_upper_bound(&q, &zigzag, &params).expect("both ends are free");
        assert!(tight < whole - 0.1, "anchored {tight}, whole {whole}");
        let between = (tight + whole) / 2.0;
        let counters = PruningCounters::new();
        let visit = |cell: &ThresholdCell| {
            let driver = PruningDriver::new(&q, &params, cell, &counters, 1);
            scored(&driver, &zigzag, &[whole])
        };
        let refined = || counters.snapshot().refined;

        // While the cell reads −∞ nothing is bounded twice.
        assert!(visit(&ThresholdCell::new()));
        assert_eq!(refined(), 0);

        // Nor is a candidate the whole-trendline bound prunes on its own.
        let cell = ThresholdCell::new();
        cell.raise(whole + 0.01);
        assert!(!visit(&cell));
        assert_eq!(refined(), 0);

        // A threshold equal to the second bound is a tie, not a prune.
        let cell = ThresholdCell::new();
        cell.raise(tight);
        assert!(visit(&cell));
        assert_eq!(refined(), 1);

        // Between the two bounds only the second prunes; the threshold is
        // proven, so without debt.
        let cell = ThresholdCell::new();
        cell.raise(between);
        assert!(!visit(&cell));
        assert_eq!((refined(), cell.hint_pruned()), (2, None));

        // The same on a hint's word, the proven score below both bounds:
        // the debt is the bound that pruned, not the one that failed to.
        let cell = ThresholdCell::new();
        cell.raise(tight - 0.1);
        cell.seed_hint(between);
        assert!(!visit(&cell));
        assert_eq!((refined(), cell.hint_pruned()), (3, Some(tight)));

        let snap = counters.snapshot();
        assert_eq!((snap.pruned, snap.scored, snap.refined), (3, 2, 3));

        // The third tier, under the same rule. Three fuzzy units on a
        // walk: the ends leave the middle a window it does not fit, so
        // the exact score sits well under the second-tier bound.
        let slope = |deg: f64| ShapeQuery::pattern(Pattern::Slope(deg));
        let q = ShapeQuery::concat(vec![slope(45.0), slope(-30.0), slope(60.0)]);
        let wander = viz(&wander(3, 64), 0);
        let udps = UdpRegistry::new();
        let ev = Evaluator::new(&wander, &params, &udps);
        let exact = DpSegmenter.match_viz(&ev, &expand_chains(&q)).score;
        let (_, whole) = query_bounds(&q, &wander, &params);
        let tight = anchored_upper_bound(&q, &wander, &params).expect("both ends are free");
        assert!(exact < tight - 0.01, "score {exact}, anchored {tight}");
        let between = (exact + tight) / 2.0;
        let counters = PruningCounters::new();
        let visit = |cell: &ThresholdCell| {
            let driver = PruningDriver::new(&q, &params, cell, &counters, 1);
            scored(&driver, &wander, &[whole])
        };
        let joined = || counters.snapshot().joined;

        // Not taken for a candidate the second tier prunes on its own.
        let cell = ThresholdCell::new();
        cell.raise(tight + 0.01);
        assert!(!visit(&cell));
        assert_eq!((counters.snapshot().refined, joined()), (1, 0));

        // A threshold equal to the exact score is a tie, not a prune.
        let cell = ThresholdCell::new();
        cell.raise(exact);
        assert!(visit(&cell));
        assert_eq!(joined(), 1);

        // Above it (by more than the rounding allowance) and below the
        // second-tier bound only the third prunes; proven, so without
        // debt.
        for threshold in [exact + 1e-9, between] {
            let cell = ThresholdCell::new();
            cell.raise(threshold);
            assert!(!visit(&cell));
            assert_eq!(cell.hint_pruned(), None);
        }
        assert_eq!(joined(), 3);

        // On a hint's word the debt is the float under the hint: all the
        // tier proved is "below it", and a sender whose merged k-th is at
        // or above the hint it sent clears exactly that.
        let cell = ThresholdCell::new();
        cell.raise(exact - 0.1);
        cell.seed_hint(between);
        assert!(!visit(&cell));
        assert_eq!(cell.hint_pruned(), Some(between.next_down()));

        let snap = counters.snapshot();
        assert_eq!(
            (snap.pruned, snap.scored, snap.refined, snap.joined),
            (4, 1, 5, 4)
        );
    }

    #[test]
    fn seeds_are_the_k_highest_bounds_best_first_ties_by_position() {
        let params = ScoreParams::default();
        let (q, cell, counters) = (
            ShapeQuery::up(),
            ThresholdCell::new(),
            PruningCounters::new(),
        );
        let seeds = |k: usize, bounds: &[f64]| {
            PruningDriver::new(&q, &params, &cell, &counters, k).seeds(bounds)
        };
        let bounds = [0.2, 0.9, -0.5, 0.9, 0.2, 1.0];
        assert_eq!(seeds(1, &bounds), [5]);
        assert_eq!(seeds(3, &bounds), [5, 1, 3]);
        // The tie at the cut goes to the lower position.
        assert_eq!(seeds(4, &bounds), [5, 1, 3, 0]);
        // k at or past the collection: everyone, still best first.
        assert_eq!(seeds(6, &bounds), [5, 1, 3, 0, 4, 2]);
        assert_eq!(seeds(usize::MAX, &bounds), [5, 1, 3, 0, 4, 2]);
        assert_eq!(seeds(0, &bounds), [0usize; 0]);
        assert_eq!(seeds(3, &[]), [0usize; 0]);
    }

    #[test]
    fn offer_survives_a_poisoned_pool() {
        let cell = ThresholdCell::new();
        cell.offer(0.4, 3);
        // One executor of the query dies holding the pool.
        let died = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _held = cell.pool.lock().unwrap();
                    panic!("executor panicked mid-query");
                })
                .join()
        });
        assert!(died.is_err() && cell.pool.is_poisoned());
        // The others keep proving the threshold from where it stood.
        cell.offer(0.8, 3);
        assert_eq!(cell.proven(), f64::NEG_INFINITY);
        cell.offer(0.6, 3);
        assert_eq!(cell.proven(), 0.4, "the 3rd best of {{0.8, 0.6, 0.4}}");
        cell.offer(0.7, 3);
        assert_eq!(cell.proven(), 0.6);
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
