//! Two-stage collective pruning (paper §6.3), as an **incremental,
//! exactness-preserving driver** every segmenter the bounds dominate (the
//! DP, the SegmentTree, and the greedy, which never scores above the DP)
//! composes with. The driver owns the whole walk: an executor hands
//! `PruningDriver::run` its candidates and a scorer, and `run` decides
//! what is bounded, in which order, what is pruned and what is scored.
//! [`bound_tiers`] is the one way in from outside to the bounds alone.
//!
//! One **bound pass** per (query, executor) fills an upper bound for every
//! candidate from the GROUP-time interval-slope extremes (Theorem 6.4 /
//! Table 7 — the final score of a pattern is bounded by the extreme scores
//! of that pattern across any level of the SegmentTree). The query is
//! compiled once into a `BoundPlan` and the extremes' angles are cached
//! on the [`VizData`], so the pass takes no `tan`, an `atan` only for a
//! segment pinned at both ends (below), and reads one clock pair for the
//! whole collection. Stage 1 then scores the `k`
//! candidates with the **highest bounds** exactly, best bound first, kept
//! in one pass over the bounds by a bounded heap (the
//! paper scores a down-sampled subset; scoring exactly costs the same
//! asymptotics and makes the resulting threshold a *proven* lower bound on
//! the final top-k score, which is what keeps pruning byte-identical) —
//! the bound is only as sharp as the threshold it meets, and the
//! candidates most likely to set the final threshold are the ones the
//! bound cannot rule out. Stage 2 walks the rest: a candidate whose upper
//! bound falls strictly below the current threshold is skipped without
//! segmentation, survivors are scored exactly and tighten the threshold
//! online. Both stages are one walk, `PruningDriver::walk`: in the order
//! given, or — once a threshold is live and the query has a second tier
//! (below) — best second-tier bound first.
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
//! and the walk after them prunes everyone else but ties. Which window
//! the pins name depends on the trendline's raw x row alone, so it is
//! resolved once for each x grid (`VizData`'s `grid`), and the window's x
//! side (`Σx`, `Σx²`, `n`) once for each stretch of candidates on one
//! grid, whose canvas xs are one x run: a candidate pays two prefix differences and a division
//! for its slope, gathered into one column, then its `atan` in a second
//! loop over that column (`SlopeLeaf::pinned_bounds`). A top-level
//! CONCAT places windows too: every exact segmenter tiles `[0, n − 1]`
//! with the chain's units in order, so the first unit is scored on some
//! window `[0, j]` and the last on some `[i, n − 1]` — `n − 1` candidate
//! slopes each, not a continuum.
//! The second tier takes an un-located first or last unit's upper bound
//! over exactly those windows (the rest of the plan keeps its first-tier
//! value and arithmetic), and because every Table 7 row is monotone or
//! unimodal in slope it finds the best window in slope space, at one or
//! two `atan`s an end. On trendlines whose interval slopes straddle every
//! target — random walks — the first tier reads ≈ 1 for everyone and the
//! second prunes four in ten. It costs most of a microsecond a candidate
//! against the first's few nanoseconds, so it is lazy twice over: the plan
//! decides once per query whether it has an anchored end at all, and a
//! walk computes it only for the candidates the first tier failed to
//! prune against a live threshold — in one column, by the first tier's
//! own evaluator (`BoundPlan::bounds`), a plan node at a time.
//!
//! The second tier still scores whatever lies between the two ends as a
//! perfect 1. The **third** places it: when the whole query is a chain of
//! free slope units — two of them or sixteen — a placement is a run of
//! break points, and the chain's total over it is the very number the DP
//! maximises, unit by unit over (unit, end point) states. Walking every
//! state would be the DP; what makes it a bound is the live threshold τ:
//! a total can reach τ only if each end alone would with everything else
//! perfect, and a partial total only goes on to the next unit while it
//! could still reach τ with the rest perfect, which on a walk leaves a
//! handful of placements — see `JointChain`. It answers a different
//! question from the first two (not "how high can this score" but "can it
//! reach τ"), so it runs last, against the sharpest threshold the walk
//! has, and the walk visits the second tier's survivors **best bound
//! first** so that threshold is sharp early. On walks it prunes another
//! four in ten.
//! What all three feed is the same rule, and each takes the same rounding
//! allowance before it does (`BoundPlan::allowance`): a bound that is a
//! score exactly sits an ulp under a segmenter's re-associated total
//! without it.
//!
//! The threshold lives in a `ThresholdCell` — an atomic-`f64`
//! (`AtomicU64` bit-cast) max register shared across every executor of
//! one query: the shards of a [`crate::ShardedEngine`] and the server's
//! compute-pool shard tasks all publish into and consume from the same
//! cell, so any executor's progress prunes work everywhere else. Every
//! value the cell holds is proven — the k-th best of exactly computed
//! scores — so no prune ever needs checking after the fact. A remote
//! shard server keeps cells of its own and answers the exact top k of its
//! partition.
//!
//! The pruning "helps avoid processing until the root node for the
//! majority of visualizations ... particularly effective when the user is
//! looking for visualizations with rare (needle-in-the-haystack)
//! patterns".

use crate::algo::SegmenterKind;
use crate::ast::{ShapeQuery, ShapeSegment};
use crate::engine::group::{GridMemo, VizData};
use crate::engine::observe::{EngineStage, StageObserver};
use crate::eval::{pattern_row, SlopeLeaf};
use crate::score::{clamp_score, ScoreParams};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::PoisonError;
use std::time::{Duration, Instant};

/// When the engine applies §6.3 bound pruning. Pruning never changes
/// results — it only skips visualizations that provably cannot enter the
/// top k — so this knob trades bound-computation overhead against
/// skipped segmentation work, exactly like the scheduling knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PruningMode {
    /// Prune for every segmenter the Theorem 6.4 bounds dominate: the DP
    /// and the SegmentTree, and the greedy, which tiles `[0, n − 1]` or
    /// falls back to the DP and so never scores above the DP optimum. The
    /// whole-series baselines (DTW/Euclidean) score on a different scale
    /// the slope bounds say nothing about and are never pruned. The
    /// default.
    #[default]
    Auto,
    /// Never prune: every candidate is segmented in full.
    Off,
}

impl PruningMode {
    /// Parses the short CLI / wire name of a mode. `force` is read as
    /// `auto`, so callers written for the retired greedy-only mode keep
    /// working.
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "auto" | "force" => Some(Self::Auto),
            "off" => Some(Self::Off),
            _ => None,
        }
    }

    /// The canonical short name ([`Self::parse`] round-trips it).
    pub fn name(self) -> &'static str {
        match self {
            Self::Auto => "auto",
            Self::Off => "off",
        }
    }

    /// Whether bound pruning applies to `kind` under this mode (see the
    /// variant docs for the soundness argument per segmenter).
    pub fn active_for(self, kind: SegmenterKind) -> bool {
        self == Self::Auto && !matches!(kind, SegmenterKind::Dtw | SegmenterKind::Euclidean)
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
/// One input feeds it, and it is proven: [`Self::offer`] pools an exactly
/// computed candidate score; once k scores have been pooled, the pool's
/// k-th best becomes the threshold (k candidates with at least that score
/// exist, so anything provably below it is out).
#[derive(Debug)]
pub(crate) struct ThresholdCell {
    proven: AtomicU64,
    pool: std::sync::Mutex<ScorePool>,
}

impl Default for ThresholdCell {
    fn default() -> Self {
        Self::new()
    }
}

impl ThresholdCell {
    /// An empty cell: no threshold.
    pub fn new() -> Self {
        Self {
            proven: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
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

    /// The pruning threshold, or `NEG_INFINITY` while nothing is proven.
    pub fn get(&self) -> f64 {
        load_f64(&self.proven)
    }
}

/// Shared pruning effectiveness counters (`/healthz`-style gauges), one
/// set per batch computation, accumulated across all of its executors.
#[derive(Debug, Default)]
pub(crate) struct PruningCounters {
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

/// A plain copy of the pruning counters, addable for aggregation.
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
pub(crate) struct PruningDriver<'a> {
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
    /// shared cell and counters, its bound timings routed to `observer`
    /// as well: one [`EngineStage::PruneBound`] sample per bound pass, and
    /// one per walk that took second-tier bounds (its third-tier time
    /// included). Compiles the query's bound plan.
    pub fn new(
        query: &ShapeQuery,
        params: &ScoreParams,
        cell: &'a ThresholdCell,
        counters: &'a PruningCounters,
        k: usize,
        observer: &'a dyn StageObserver,
    ) -> Self {
        let plan = BoundPlan::compile(query, params, Ends::BOTH);
        Self {
            anchors: plan.anchors(),
            joint: plan.joint(),
            plan,
            cell,
            counters,
            k,
            observer,
        }
    }

    /// §6.3 over `vizzes`, each candidate handed to `score` (by position)
    /// at most once, its exact score pooled into the shared threshold:
    /// one bound pass, then a walk of stage 1 — the `k` highest bounds,
    /// best first, so the threshold is sharp before the bulk meets it —
    /// and one of stage 2, everyone else. The threshold prunes only
    /// *strictly* below itself and only once some executor holds k exact
    /// scores, so with a total top-k order the survivors' top k is a
    /// prune-free pass's in any visiting order.
    pub fn run(&self, vizzes: &[&VizData], mut score: impl FnMut(usize) -> f64) {
        let bounds = self.upper_bounds(vizzes);
        let seeds = self.seeds(&bounds);
        let mut seeded = vec![false; vizzes.len()];
        for &pos in &seeds {
            seeded[pos] = true;
        }
        self.walk(vizzes, &bounds, seeds.into_iter(), &mut score);
        let rest = (0..vizzes.len()).filter(|&pos| !seeded[pos]);
        self.walk(vizzes, &bounds, rest, score);
    }

    /// The bound pass: the Theorem 6.4 upper bound of every candidate, by
    /// position, with the plan's rounding allowance on top (as every tier
    /// takes it: a bound that is the exact score — a pinned unit's, or a
    /// perfect fit's — sits an ulp under a segmenter's re-associated total
    /// without it). One clock pair and one observer sample for the whole
    /// collection — a candidate costs a few nanoseconds, plus a window's
    /// slope and `atan` for each unit pinned at both ends (the window
    /// resolved once an x grid, its x side once a stretch of candidates
    /// on one x run): ≈ 0.05 µs a candidate for a located query of two
    /// such units on 128-point walks, one core, nearly all of it the two
    /// `atan`s. That is why the pass runs unconditionally (on a workload
    /// it cannot prune it is noise next to a single segmentation).
    fn upper_bounds(&self, vizzes: &[&VizData]) -> Vec<f64> {
        let started = Instant::now();
        let allowance = self.plan.allowance();
        let bounds: Vec<f64> = self
            .plan
            .bounds(vizzes, &mut EndWindows::default(), false)
            .into_iter()
            .map(|(_, upper)| upper + allowance)
            .collect();
        let elapsed = started.elapsed();
        self.counters.record_bound_pass(bounds.len(), elapsed);
        self.observer
            .stage_duration(EngineStage::PruneBound, elapsed);
        bounds
    }

    /// §6.3 stage 1: the positions of the `min(k, candidates)` highest
    /// upper bounds, best first (by `f64::total_cmp`, ties by position).
    /// These are the candidates no threshold could rule out, so scoring
    /// them first gives the walk over everyone else the sharpest threshold
    /// k exact scores can prove. One pass that keeps the best k seen in a
    /// bounded heap, its worst on top: a located query scores about k
    /// trendlines and its bound pass costs only tens of nanoseconds a
    /// trendline, so ordering — or copying and partitioning — its whole
    /// collection would be a large share of what it does, where here a
    /// candidate below the k-th costs one integer comparison.
    fn seeds(&self, bounds: &[f64]) -> Vec<usize> {
        use std::cmp::Reverse;
        // `total_cmp`'s order as an integer, so a tie is an equal key.
        let key = |bound: f64| {
            let bits = bound.to_bits() as i64;
            bits ^ (((bits >> 63) as u64) >> 1) as i64
        };
        // Greatest = worst: the lowest bound, and of equal bounds the
        // latest position — which every later candidate is, so one only
        // displaces the worst with a strictly higher bound.
        let k = self.k.min(bounds.len());
        let mut kept = std::collections::BinaryHeap::with_capacity(k);
        for (pos, &bound) in bounds.iter().enumerate() {
            let entry = (Reverse(key(bound)), pos);
            if kept.len() < k {
                kept.push(entry);
            } else if let Some(mut worst) = kept.peek_mut() {
                if entry < *worst {
                    *worst = entry;
                }
            }
        }
        kept.into_sorted_vec()
            .into_iter()
            .map(|(_, pos)| pos)
            .collect()
    }

    /// Walks `positions` against the live threshold. A candidate whose
    /// upper bound is **strictly** below it — even a tie could not
    /// displace the k-th result — is skipped for good; every other is
    /// handed to `score` and the exact score it returns is pooled toward
    /// the proven global k-th best (see [`ThresholdCell::offer`]), so
    /// every executor's results tighten every other executor's threshold
    /// as they land.
    ///
    /// A query with no anchored end has no second tier, and before any
    /// threshold exists there is nothing to take it against: then the
    /// bound is `bounds[pos]`, the whole-trendline one, and the walk is
    /// in the order given. Otherwise it is §6.3 stage 2's "progressively
    /// refined bounds", the tiers taken a stage at a time so that the
    /// dearest meets the sharpest threshold. One pass holds every
    /// candidate's first-tier bound against the threshold and takes the
    /// second tier for its survivors, in one column; those are sorted by
    /// second-tier bound, best first (ties by position), and walked: each
    /// against the live threshold with the bound it has, then the third
    /// tier if the query has one — and at the first second-tier bound
    /// below the threshold everyone left is pruned unseen, since nobody
    /// after has a higher bound and the threshold only rises. The
    /// candidates most likely to raise the threshold are scored first, so
    /// both the early exit and the third tier's cut bite sooner than in
    /// index order. The engine's top-k order is total, so the visiting
    /// order cannot change a result.
    fn walk(
        &self,
        vizzes: &[&VizData],
        bounds: &[f64],
        positions: impl Iterator<Item = usize>,
        mut score: impl FnMut(usize) -> f64,
    ) {
        let mut tally = Tally::default();
        // The threshold only rises: live here, live for the whole walk.
        // No threshold yet reads −∞, which nothing is below.
        let threshold = self.cell.get();
        if !self.anchors.any() || threshold == f64::NEG_INFINITY {
            for pos in positions {
                self.settle(bounds[pos], self.cell.get(), &mut tally, || score(pos));
            }
            return self.publish(&tally, None);
        }
        let started = Instant::now();
        // A NaN bound is at or above no threshold, and is nobody's to
        // prune: it survives without a second tier.
        let mut survivors: Vec<(usize, f64)> = Vec::new();
        let mut refining: Vec<usize> = Vec::new();
        for pos in positions {
            match bounds[pos] {
                upper if upper < threshold => tally.pruned += 1,
                upper if upper.is_nan() => survivors.push((pos, upper)),
                _ => refining.push(pos),
            }
        }
        let mut windows = EndWindows::default();
        let column: Vec<&VizData> = refining.iter().map(|&pos| vizzes[pos]).collect();
        let refined = self.plan.bounds(&column, &mut windows, true);
        let allowance = self.plan.allowance();
        for (pos, (_, upper)) in refining.into_iter().zip(refined) {
            let upper = upper + allowance;
            if upper < threshold {
                tally.pruned += 1;
            } else {
                survivors.push((pos, upper));
            }
        }
        tally.refined = column.len() as u64;
        let mut bounding = started.elapsed();

        // A NaN bound is below no threshold and must stay ahead of the
        // early exit: it sorts as the best bound there is, whatever its
        // sign bit says.
        let key = |upper: f64| if upper.is_nan() { f64::INFINITY } else { upper };
        survivors
            .sort_unstable_by(|a, b| key(b.1).total_cmp(&key(a.1)).then_with(|| a.0.cmp(&b.0)));
        for (at, &(pos, refined)) in survivors.iter().enumerate() {
            let threshold = self.cell.get();
            if refined < threshold {
                tally.pruned += (survivors.len() - at) as u64;
                break;
            }
            let mut upper = refined;
            if let Some(chain) = self.joint.as_ref().filter(|_| upper >= threshold) {
                let started = Instant::now();
                windows.load(vizzes[pos], self.anchors);
                upper = chain.bound(vizzes[pos], &mut windows, threshold, upper);
                tally.joined += 1;
                bounding += started.elapsed();
            }
            self.settle(upper, threshold, &mut tally, || score(pos));
        }
        self.publish(&tally, (tally.refined > 0).then_some(bounding));
    }

    /// The rule every tier feeds: strictly below the threshold is pruned,
    /// anything else is scored and its score pooled.
    fn settle(&self, upper: f64, threshold: f64, tally: &mut Tally, score: impl FnOnce() -> f64) {
        if upper < threshold {
            tally.pruned += 1;
        } else {
            self.cell.offer(score(), self.k);
            tally.scored += 1;
        }
    }

    /// Publishes one walk's tally, and the time it spent on the second and
    /// third tiers when it took any: one observer sample a walk.
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
            counters
                .bound_nanos
                .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
            self.observer
                .stage_duration(EngineStage::PruneBound, elapsed);
        }
    }
}

/// What each tier of the bound says of one query over one visualization
/// ([`bound_tiers`]): the pruning driver's values, computed the driver's
/// way, for whoever needs to hold them against exact scores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundTiers {
    /// The first tier's bare `(lower, upper)`: the plan's values from the
    /// interval-slope extremes (or a pinned unit's own window), before
    /// the rounding allowance. The bare upper bound can sit an ulp under
    /// a score it equals.
    pub plan: (f64, f64),
    /// The first-tier upper bound the driver prunes by: `plan.1` plus the
    /// plan's rounding allowance.
    pub first: f64,
    /// The second tier, over the end-anchored windows, allowance
    /// included — `None` when the query has no end to anchor and the tier
    /// never runs for it.
    pub anchored: Option<f64>,
    /// The third tier against the given threshold — `None` when the query
    /// is not a chain of free slope units, of any length, that the tier
    /// places whole ([`bound_tiers`]). At or above the threshold it
    /// is an upper bound on the exact score; below it, a proof that the
    /// exact score is below the threshold too.
    pub joint: Option<f64>,
}

/// Every tier of `query`'s bound over `viz`, the third against
/// `threshold`: the plan compiled and evaluated once, as the driver
/// compiles it once per query and evaluates it per candidate.
pub fn bound_tiers(
    query: &ShapeQuery,
    viz: &VizData,
    params: &ScoreParams,
    threshold: f64,
) -> BoundTiers {
    let plan = BoundPlan::compile(query, params, Ends::BOTH);
    let mut windows = EndWindows::default();
    let [bare, (_, anchored)] =
        [false, true].map(|anchored| plan.bounds(&[viz], &mut windows, anchored)[0]);
    let refined = anchored + plan.allowance();
    windows.load(viz, Ends::BOTH);
    BoundTiers {
        plan: bare,
        first: bare.1 + plan.allowance(),
        anchored: plan.anchors().any().then_some(refined),
        joint: plan
            .joint()
            .map(|chain| chain.bound(viz, &mut windows, threshold, refined)),
    }
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
    /// which leave it one window to be placed on ([`SlopeLeaf::pinned`]).
    /// `mode`: the slope a unimodal row peaks at — 0 for flat, and for
    /// `θ = x` the tangent of the *clamped* target, which is what the
    /// scorer measures against: past ±90° the row is monotone and its mode
    /// is `tan(±π/2)`, a finite `f64` beyond any slope it will meet.
    /// Derived here, once a query; the monotone rows never read it.
    Slope {
        row: SlopeLeaf,
        mode: f64,
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

    /// Just `end`, or no end.
    fn of(end: Option<End>) -> Self {
        Self {
            first: end == Some(End::First),
            last: end == Some(End::Last),
        }
    }

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
/// leaves standing, as (inner end point, slope, then score), its partial
/// totals by end point and the steps a middle unit takes. Buffers a walk reuses
/// from candidate to candidate, beside the windows its x-pinned leaves
/// name, resolved once a grid.
#[derive(Debug, Default)]
struct EndWindows {
    first: Vec<f64>,
    last: Vec<f64>,
    kept_first: Vec<(usize, f64)>,
    kept_last: Vec<(usize, f64)>,
    reach: Vec<f64>,
    next: Vec<f64>,
    steps: Vec<(usize, usize)>,
    pinned: PinWindows,
}

/// The canvas window `(x_to_index(x.s), x_to_index(x.e))` each pair of
/// raw pins names, resolved once for each run of candidates on one x
/// grid ([`VizData::grid`]): equal raw x rows map a raw x to the same
/// canvas point, so only the window's slope differs from candidate to
/// candidate. Keyed by the pins' bits.
#[derive(Debug, Default)]
struct PinWindows(GridMemo<(u64, u64), (usize, usize)>);

impl PinWindows {
    #[inline]
    fn window(&mut self, viz: &VizData, (start, end): (f64, f64)) -> (usize, usize) {
        self.0.get(viz, (start.to_bits(), end.to_bits()), || {
            (viz.x_to_index(start), viz.x_to_index(end))
        })
    }
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
        // Wildcards (whose constant 1 the trivial bound holds), UDPs,
        // position references, y-target lines, location-only segments:
        // nothing for the slope rows to say.
        let row = match s.pattern.as_ref().and_then(pattern_row) {
            Some(SlopeLeaf::Any) | None => return Self::Trivial,
            Some(row) => row,
        };
        let mode = match row {
            SlopeLeaf::Theta { target, .. } => target.tan(),
            _ => 0.0,
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
            mode,
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
            Self::Slope { anchor, .. } => Ends::of(*anchor),
            Self::Concat(cs) | Self::And(cs) | Self::Or(cs) => any(cs),
            Self::Not(c) => c.anchors(),
        }
    }

    /// The chain the third tier places whole, when the plan is one: a flat
    /// CONCAT of two or more slope units, the first and last anchored to
    /// their ends and those between free to take whatever windows they
    /// leave. Any other shape — an operator or a nested CONCAT for a unit,
    /// a located or non-slope unit — has placements this walk does not
    /// cover.
    fn joint(&self) -> Option<JointChain> {
        let Self::Concat(units) = self else {
            return None;
        };
        let last = units.len().checked_sub(1)?;
        let free = units.iter().enumerate().map(|(at, unit)| {
            let end = (at == 0)
                .then_some(End::First)
                .or((at == last).then_some(End::Last));
            match unit {
                Self::Slope {
                    row,
                    located: false,
                    anchor,
                    ..
                } if *anchor == end => Some(*row),
                _ => None,
            }
        });
        free.collect::<Option<_>>().map(JointChain)
    }

    /// [`ROUNDING_ALLOWANCE`] for each leaf of the plan: what every tier's
    /// upper bound takes before the driver prunes by it. Each leaf's bound
    /// is the exact best of the scores a segmenter can give that leaf (the
    /// same slopes through the same Table 5 map), so only the totals
    /// differ, and only by rounding. A chain of `u` units is a mean here,
    /// `Σ w·score` in chain order in the DP — under 2u ulps of 1.0 each way
    /// from the real sum — and in the SegmentTree re-associated as tier 3's
    /// constant derives: at most one entry a level per break combined, 4
    /// ulps a bridge, 32 levels, so 128 ulps a break and `u − 1` breaks.
    /// `128(u − 1) + 4u` is under half of `512u`, and a chain has no more
    /// units than the plan has leaves. AND, OR and NOT pass errors through
    /// unchanged. Without it the tree's score of a tie sits an ulp above
    /// the bound and is pruned under `upper < τ`.
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
    /// over the whole collection, so each Table 7 row is one tight loop;
    /// a leaf pinned at both ends is a two-pass column of its own
    /// ([`SlopeLeaf::pinned_bounds`]). `windows` memoises pinned windows
    /// a grid at a time ([`PinWindows`]).
    ///
    /// With `anchored`, this is the second tier: each anchored leaf's
    /// upper bound is taken over the `n − 1` windows its end allows, read
    /// into `windows` a candidate at a time, instead of over every slope
    /// between the interval extremes. Sound for the reason `compile`
    /// gives; never looser than the first tier, since each of those
    /// windows' slopes lies between the extremes too. Every other node
    /// keeps the first tier's value and arithmetic, so a plan without
    /// anchors gets the same bits either way.
    ///
    /// Validity follows from the least-squares slope of any merged range
    /// being a convex combination of its interval slopes (the "law of the
    /// triangle" in the paper's Theorem 6.4 proof), so every pattern's
    /// fitted slope lies in `[slope_min, slope_max]` and the pattern
    /// scorers are monotone or unimodal in slope — the extreme scores
    /// over that interval are attained at the cached extremes. (Nested
    /// CONCATs are handled for free: the recursive mean equals chain
    /// expansion's weighted-average semantics.)
    fn bounds(
        &self,
        vizzes: &[&VizData],
        windows: &mut EndWindows,
        anchored: bool,
    ) -> Vec<(f64, f64)> {
        // Folds the children's columns into the first one.
        let mut fold = |cs: &[BoundPlan], pick: fn(f64, f64) -> f64| {
            let mut columns = cs.iter().map(|c| c.bounds(vizzes, windows, anchored));
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
                mode,
                pins: Some(pins),
                ..
            } => row.pinned_bounds(vizzes, *pins, *mode, &mut windows.pinned),
            Self::Slope {
                row,
                mode,
                constrained,
                anchor,
                ..
            } => {
                let anchor = anchor.filter(|_| anchored);
                vizzes
                    .iter()
                    .map(|viz| {
                        let (lo, hi) = row.bounds(viz, *mode);
                        let lo = if *constrained { -1.0 } else { lo };
                        let Some(end) = anchor else {
                            return (lo, hi);
                        };
                        windows.load(viz, Ends::of(Some(end)));
                        (lo, row.best_over(windows.at(end), *mode))
                    })
                    .collect()
            }
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
            Self::And(cs) => fold(cs, min_keeping_nan),
            Self::Or(cs) => fold(cs, max_keeping_nan),
            Self::Not(c) => {
                let mut column = c.bounds(vizzes, windows, anchored);
                for (lo, hi) in &mut column {
                    (*lo, *hi) = (-*hi, -*lo);
                }
                column
            }
        }
    }
}

/// `f64::min`, but NaN when either side is. A NaN bound is no bound:
/// `f64::min` and `f64::max` drop a NaN and keep the other child's bound,
/// which an OR's unbounded child (or a negated AND's) can outscore.
fn min_keeping_nan(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        a + b
    } else {
        a.min(b)
    }
}

/// `f64::max`, but NaN when either side is (see [`min_keeping_nan`]).
fn max_keeping_nan(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        a + b
    } else {
        a.max(b)
    }
}

/// Table 7 read off the Table 5 rows: what the bound tiers need of a slope
/// row besides its score at an angle ([`SlopeLeaf::at`]). `mode` is the
/// plan leaf's (see [`BoundPlan::Slope`]).
impl SlopeLeaf {
    /// The slope scorers are monotone (up/down) or unimodal (flat/theta)
    /// in slope, so both extremes over `[slope_min, slope_max]` are
    /// attained at the cached endpoints — and since those endpoints *are*
    /// interval slopes, these equal the exact leaf-level min/max of
    /// Table 7.
    #[inline]
    fn bounds(self, viz: &VizData, mode: f64) -> (f64, f64) {
        let (lo_t, hi_t) = (viz.theta_min, viz.theta_max);
        match self {
            Self::Up => (self.at(lo_t), self.at(hi_t)),
            Self::Down => (self.at(hi_t), self.at(lo_t)),
            // A unimodal scorer bottoms out at an endpoint and peaks at
            // one too, unless the slopes straddle its mode: they can then
            // merge onto it exactly.
            Self::Flat | Self::Theta { .. } => {
                let (a, b) = (self.at(lo_t), self.at(hi_t));
                let straddles = viz.slope_min < mode && viz.slope_max > mode;
                (a.min(b), if straddles { 1.0 } else { a.max(b) })
            }
            Self::Any => (1.0, 1.0),
        }
    }

    /// The first-tier bounds of a leaf pinned at both ends by raw
    /// `pins = (x.s, x.e)`, for each of `vizzes`: `(−1, upper)`, the lower
    /// bound void because the pins are a hard constraint, and the upper
    /// one the row's score on the window `(i, j)` the pins name (§5.4:
    /// `i = x_to_index(x.s)`, `j = x_to_index(x.e)`) when it holds an
    /// interval. Every exact segmenter either places the segment on
    /// exactly that window (the SegmentTree anchors it there, the DP and
    /// the greedy's DP fallback constrain its ends to it) or scores it −1
    /// through the location check, and on that window it scores this very
    /// number — the same slope bits from the prefix columns, the same
    /// `atan`, the same Table 5 map — before y-endpoint checks and the
    /// width penalty, which only lower it. The clamp is the scorer's. A
    /// window with no interval (`j ≤ i`) keeps [`Self::bounds`]' upper
    /// bound from the interval-slope extremes.
    ///
    /// Two passes over the column. The first walks it in stretches of
    /// candidates on one arena and one grid — one raw x row, so one x run
    /// and one window ([`PinWindows`]) — and gathers each stretch's
    /// slopes with the window's x side taken once
    /// ([`ColumnarArena::window_slope_column`]); the second maps the
    /// slope column to scores, `atan` and all, in one tight loop. Each
    /// upper bound is `clamp_score(self.at(viz.slope(i, j).atan()))`, bit
    /// for bit.
    ///
    /// [`ColumnarArena::window_slope_column`]: crate::columnar::ColumnarArena::window_slope_column
    fn pinned_bounds(
        self,
        vizzes: &[&VizData],
        pins: (f64, f64),
        mode: f64,
        memo: &mut PinWindows,
    ) -> Vec<(f64, f64)> {
        let mut slopes = Vec::with_capacity(vizzes.len());
        let mut no_interval = Vec::new();
        let mut at = 0;
        while let Some(&head) = vizzes.get(at) {
            let arena = head.arena();
            let (run, window) = (arena.run(head.slot()), memo.window(head, pins));
            let len = vizzes[at..]
                .iter()
                .take_while(|v| std::ptr::eq(v.arena(), arena) && v.grid == head.grid)
                .count();
            let stretch = at..at + len;
            if window.1 > window.0 {
                let slots = vizzes[stretch].iter().map(|v| v.slot());
                arena.window_slope_column(run, window, slots, &mut slopes);
            } else {
                slopes.resize(stretch.end, 0.0);
                no_interval.extend(stretch);
            }
            at += len;
        }
        let mut column: Vec<(f64, f64)> = slopes
            .into_iter()
            .map(|slope| (-1.0, clamp_score(self.at(slope.atan()))))
            .collect();
        for pos in no_interval {
            column[pos].1 = self.bounds(vizzes[pos], mode).1;
        }
        column
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
            Self::Theta { target, worst } => {
                let reach = (1.0 - c) * worst / 2.0;
                (target - reach, target + reach)
            }
            Self::Any => (f64::NEG_INFINITY, f64::INFINITY),
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
    fn best_over(self, slopes: &[f64], mode: f64) -> f64 {
        match self {
            Self::Up => self.at(largest(slopes, |s| s).atan()),
            Self::Down => self.at((-largest(slopes, |s| -s)).atan()),
            Self::Flat => self.at((-largest(slopes, |s| -s.abs())).atan()),
            Self::Any => 1.0,
            Self::Theta { .. } => {
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

/// How far, in radians of fitted angle, [`SlopeLeaf::band`] is widened past
/// the angle that scores exactly its cut. It has to cover every way a
/// window just outside the band could still be part of a total a segmenter
/// reads as τ: the cut itself (`(τ − 1)/w + 1`, two roundings), its
/// product with π/2 or π/4 and the `tan` (an ulp each), the segmenter's
/// `atan` and Table 5 map (three more), and the chain's share of
/// [`ROUNDING_ALLOWANCE`] on the total, which is 3 × 2⁻⁴³ of a unit score
/// for three units and so at most π/2 times that, 5.4 × 10⁻¹³ rad — and
/// for sixteen, eight shares over sixteen units, 2⁻³⁶ and 2.3 × 10⁻¹¹
/// rad. A nanoradian is three orders of magnitude above their sum at three
/// units and forty times it at sixteen, and costs a window only when its
/// score is within 1.3 × 10⁻⁹ of the cut — on a walk, none.
const BAND_MARGIN: f64 = 1e-9;

/// What [`JointChain`] adds to a placement's total of two or three units
/// so that it dominates the same placement's total in every segmenter's
/// arithmetic: 512 ulps of 1.0 (2⁻⁴³ ≈ 1.1 × 10⁻¹³). The DP and the
/// greedy add `weight · score` unit by unit in chain order, which is the
/// order used here, bit for bit. The SegmentTree re-associates and
/// cancels: each bridge is `left.score − left.last + right.score −
/// right.first + merged`, four operations on values below 3 in magnitude,
/// so at most one ulp of 1.0 each; an entry of two or more units has a
/// break inside its node, so each break adds at most one entry a level on
/// the way to the root's, and a tree has at most 32 levels (breaks are
/// `u32`) — 4 · 32 = 128 ulps a break, 256 for a three-unit chain's two,
/// plus the three roundings here. Twice that. A chain of `u` units takes
/// it once for every two of its `u − 1` breaks, or one — at least
/// `128(u − 1) + u` ulps, twice it from four units on — and the second
/// tier once per leaf ([`BoundPlan::allowance`]).
const ROUNDING_ALLOWANCE: f64 = 512.0 * f64::EPSILON;

/// The third tier gives up, before its first `atan`, when the two bands
/// admit more end windows than this between them: half of what there is.
/// With [`max_pairs`] it holds the tier's worst case to `n/2` end windows
/// and `n − 1` windows a middle unit: `3n/2` fitted angles for three
/// units, where a three-unit SegmentTree takes `≈ 8.5n` (at `n = 128`, one
/// shared by each of 253 nodes and ≈ 850 bridges, seven an inner node) —
/// a sixth. Measured where it matters — k = 200 on 1,000 × 128-point
/// walks, where the threshold is low and the tier prunes only one in seven
/// of the candidates that reach it — it costs 2.6 µs a candidate, under a
/// tenth of the tree the other six then cost. A candidate that overruns is
/// one the threshold does not yet separate from the top k: worth the tree.
const fn max_end_windows(n: usize) -> usize {
    n / 2
}

/// ... and, before a middle unit's first window score, when more steps
/// onto it than this survive the cuts. Swept on the same walks (34
/// three-unit queries a pass, one thread; trees scored a pass at k = 5
/// without the tier: 17,234): a cap of 64 leaves 6,822, `n − 1` = 127
/// leaves 5,954, 256 leaves 5,548, 512 leaves 5,399 and no cap 5,385,
/// while the pass takes the same time from 64 up to within the noise of
/// the machine (≈ 240 ms; 610 before the tier). So the cap buys almost
/// nothing past `n − 1` and is there for the worst case above, not the
/// average.
const fn max_pairs(n: usize) -> usize {
    n - 1
}

/// The third tier of the bound: a query that is one chain of free slope
/// units ([`BoundPlan::joint`]), placed whole by the §6.1 (unit, end
/// point) recurrence of Theorem 6.1, walked a unit at a time and cut at
/// the live threshold τ.
///
/// Every segmenter tiles `[0, n − 1]` with the chain's `u` units in order,
/// each on one interval at least, so a placement is a run of break points
/// `0 < b₁ < … < b_{u−1} < n − 1` and its total is `Σ w·score`, `w = 1/u`.
/// The best total over all placements is the DP's optimum, which bounds
/// the SegmentTree's and the greedy's. Finding it is the DP's work; τ cuts
/// it to a handful of placements, soundly, because no unit scores above 1:
///
/// * the first unit's end windows `[0, b₁]` and the last's start windows
///   `[b_{u−1}, n − 1]` are kept only if each alone would reach τ with the
///   other units perfect, `f ≥ (τ − 1)/w + 1` — [`SlopeLeaf::band`] turns
///   that into a slope interval, so the two runs the second tier already
///   read are cut by comparisons, and only the members pay an `atan`;
/// * each kept first window seeds a partial total at its end point, and
///   each middle unit extends the partial totals that could still reach τ
///   — with it and the middles after it perfect and the last unit's best
///   kept window, onto the windows its own band keeps; the last middle
///   with the kept last window it meets, onto those;
/// * of the totals that meet at one end point only the largest goes on
///   (rounding is monotone, so no later sum turns their order round), and
///   the last unit's kept windows close them.
///
/// Totals are taken in the DP's own order, `((w·f + w·m) + …) + w·g`, with
/// the chain's share of [`ROUNDING_ALLOWANCE`] on top, and the
/// minimum-width term, which only lowers a score, is left out; so a total
/// here is at or above what any segmenter computes for the same placement,
/// and a placement cut here totals below τ for every segmenter.
#[derive(Debug)]
struct JointChain(Vec<SlopeLeaf>);

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
    /// than [`max_end_windows`] end windows or [`max_pairs`] steps onto a
    /// middle unit standing. `windows` holds `viz`'s runs for both ends.
    fn bound(&self, viz: &VizData, windows: &mut EndWindows, threshold: f64, refined: f64) -> f64 {
        let (n, units) = (viz.n(), self.0.len());
        if refined.is_nan() || n <= units {
            return refined;
        }
        let w = 1.0 / units as f64;
        let allowance = ROUNDING_ALLOWANCE * (units - 1).div_ceil(2) as f64;
        let score = |row: SlopeLeaf, slope: f64| w * clamp_score(row.at(slope.atan()));
        let (head, middles, tail) = (self.0[0], &self.0[1..units - 1], self.0[units - 1]);

        // The inner end points 1..=n − 2: `first[j − 1]` is `[0, j]`,
        // `last[i]` is `[i, n − 1]`.
        let alone = (threshold - 1.0) / w + 1.0;
        let EndWindows {
            first,
            last,
            kept_first,
            kept_last,
            reach,
            next,
            steps,
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
        keep(head, &first[..n - 2], kept_first);
        keep(tail, &last[1..], kept_last);
        if kept_first.len() + kept_last.len() > max_end_windows(n) {
            return refined;
        }
        // `reach[e]`: the best partial total of the units placed so far
        // that ends at point `e`.
        reach.clear();
        reach.resize(n, f64::NEG_INFINITY);
        for &(j, slope) in kept_first.iter() {
            reach[j] = score(head, slope);
        }
        kept_last.iter_mut().for_each(|(_, g)| *g = score(tail, *g));
        let best_last = kept_last
            .iter()
            .fold(f64::NEG_INFINITY, |a, &(_, g)| a.max(g));

        // Each middle unit's steps `(j, i)` onto the window `[j, i]`, all
        // of them before its first score, then its partial totals by end
        // point. `perfect`: the middles after it, each taken as a 1.
        let runs = viz.arena().prefix_runs(viz.slot());
        for (at, &row) in middles.iter().enumerate() {
            let perfect = middles.len() - 1 - at;
            let band = (perfect > 0).then(|| row.band(alone));
            steps.clear();
            for (j, &p) in reach.iter().enumerate().filter(|(_, p)| p.is_finite()) {
                let p = p + w;
                match band {
                    // The last middle: onto each kept last window right of
                    // it that would reach τ with this unit perfect.
                    None => steps.extend(
                        kept_last
                            .iter()
                            .filter(|&&(i, g)| i > j && p + g + allowance >= threshold)
                            .map(|&(i, _)| (j, i)),
                    ),
                    // An earlier one: not at all unless this unit and the
                    // middles after it perfect and the best last window
                    // would reach τ; then onto every window its band keeps
                    // that leaves the units after it an interval each. A
                    // NaN slope stays, for its score to give up on.
                    Some(_)
                        if (0..perfect).fold(p, |p, _| p + w) + best_last + allowance
                            < threshold => {}
                    Some((lo, hi)) => steps.extend((j + 1..n - 1 - perfect).filter_map(|i| {
                        let slope = runs.range_stats(j, i).slope();
                        (!(slope < lo || slope > hi)).then_some((j, i))
                    })),
                }
                if steps.len() > max_pairs(n) {
                    return refined;
                }
            }
            next.clear();
            next.resize(n, f64::NEG_INFINITY);
            for &(j, i) in steps.iter() {
                let m = score(row, runs.range_stats(j, i).slope());
                if m.is_nan() {
                    return refined;
                }
                next[i] = next[i].max(reach[j] + m);
            }
            std::mem::swap(reach, next);
        }
        // The last unit closes each partial total at its kept window.
        kept_last
            .iter()
            .map(|&(i, g)| reach[i] + g + allowance)
            .fold(threshold.next_down(), f64::max)
    }
}

#[cfg(test)]
mod column_tests;

#[cfg(test)]
mod referee;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::algo::dp::DpSegmenter;
    use crate::algo::Segmenter;
    use crate::ast::Pattern;
    use crate::chain::expand_chains;
    use crate::engine::observe::NOOP_OBSERVER;
    use crate::eval::{Evaluator, UdpRegistry};
    use crate::score::{theta_at, theta_target};
    use shapesearch_datastore::Trendline;

    /// The first tier's bare `(lower, upper)`.
    fn plan(q: &ShapeQuery, v: &VizData, params: &ScoreParams) -> (f64, f64) {
        bound_tiers(q, v, params, f64::NEG_INFINITY).plan
    }

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
        let pinned_wide =
            ShapeQuery::Segment(ShapeSegment::pinned(Pattern::Up, 2.0, 9.0).with_width(3.0));
        let fuzzy3 = ShapeQuery::concat(vec![slope(45.0), slope(-30.0), slope(60.0)]);
        // Every arm the compiled plan has: the four Table 7 rows (θ
        // targets on, and past, the ±90° clamp included), each operator,
        // operators nested in each other, a pinned segment and the
        // minimum-width term (both void the lower bound only) — and, for
        // the second tier, each operator and a nested CONCAT at either end
        // of a chain, located units at the ends (not anchored), one-unit
        // chains (no tier); for the third, chains of two and of three
        // with each row at an end and in the middle, and of four, five and
        // six, whose middles are walked one after another. Segments pinned at
        // both ends are bounded by their own window: alone and chained,
        // with y endpoints too, with pins that meet at one canvas point
        // (no window: the extremes), inside a fuzzy chain, and under NOT,
        // OR and AND. A segment with both pins *and* an ITERATOR width is
        // not one of them (the extremes), and the tree places it the way
        // the DP does: alone and before a fuzzy unit.
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
            ShapeQuery::concat(vec![
                slope(45.0),
                ShapeQuery::down(),
                slope(20.0),
                ShapeQuery::up(),
            ]),
            ShapeQuery::concat(
                [ShapeQuery::up(), ShapeQuery::down(), slope(-60.0)]
                    .into_iter()
                    .cycle()
                    .take(6)
                    .collect(),
            ),
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
            pinned_wide.clone(),
            ShapeQuery::concat(vec![pinned_wide, ShapeQuery::down()]),
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
                for v in &collection {
                    let ev = Evaluator::new(v, &params, &udps);
                    let chains = expand_chains(q);
                    let exact = DpSegmenter.match_viz(&ev, &chains).score;
                    let tree = SegmentTreeSegmenter::default()
                        .match_viz(&ev, &chains)
                        .score;
                    let tiers = bound_tiers(q, v, &params, f64::NEG_INFINITY);
                    let (lo, hi) = tiers.plan;
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
                    let upper = tiers.first;
                    assert!(
                        exact <= upper && tree <= upper,
                        "score {exact} or tree {tree} > bound {upper} (bare {hi}): {case}"
                    );
                    if exact > -1.0 && exact == hi {
                        on_window +=
                            usize::from(q.segments().iter().any(|s| s.location.x_end.is_some()));
                    }
                    let tight = tiers.anchored;
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
                        let Some(joint) = bound_tiers(q, v, &params, threshold).joint else {
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
                    // With no end to anchor, the second tier is the first,
                    // bit for bit.
                    let plain = BoundPlan::compile(q, &params, Ends::NONE);
                    assert_eq!(plain.anchors(), Ends::NONE);
                    let (a, b) = plain.bounds(&[v], &mut EndWindows::default(), true)[0];
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
    fn only_a_whole_chain_of_free_slope_units_is_placed_whole() {
        let joint = |q: &ShapeQuery, params: &ScoreParams| {
            BoundPlan::compile(q, params, Ends::BOTH)
                .joint()
                .map(|chain| chain.0.len())
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
        // One unit has nothing to place; four have two middles, walked
        // one after the other.
        assert_eq!(joint(&up(), &params), None);
        assert_eq!(
            joint(&chain(vec![up(), down(), up(), down()]), &params),
            Some(4)
        );
        let sixteen: Vec<ShapeQuery> = (0..16).map(|i| slope(10.0 * i as f64 - 75.0)).collect();
        assert_eq!(joint(&chain(sixteen), &params), Some(16));
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
            for len in [3, 5] {
                for at in 0..len {
                    let mut units = vec![up(), down(), up(), flat(), down()];
                    units.truncate(len);
                    units[at] = odd.clone();
                    assert_eq!(
                        joint(&ShapeQuery::Concat(units), &params),
                        None,
                        "{odd} at {at} of {len}"
                    );
                }
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
            assert!(plan(&fuzzy, &v, &params).1 > 0.9, "walk {seed}");
            let ev = Evaluator::new(&v, &params, &udps);
            let exact = DpSegmenter.match_viz(&ev, &expand_chains(&q)).score;
            let (_, hi) = plan(&q, &v, &params);
            let on_windows = (SlopeLeaf::Up.at(v.slope(10, 30).atan())
                + SlopeLeaf::theta(-30.0).at(v.slope(30, 50).atan()))
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
        let (_, extremes) = plan(&ShapeQuery::up(), &v, &params);
        for seg in [
            pinned(Pattern::Up, 20.2, 20.4),
            pinned(Pattern::Up, 40.0, 20.0),
            pinned(Pattern::Up, 10.0, 30.0).with_width(5.0),
        ] {
            let q = ShapeQuery::Segment(seg);
            assert_eq!(plan(&q, &v, &params), (-1.0, extremes), "{q}");
        }
        // One pin alone leaves the segment a run of windows.
        let mut seg = ShapeSegment::pattern(Pattern::Up);
        seg.location.x_start = Some(10.0);
        let q = ShapeQuery::Segment(seg);
        assert_eq!(plan(&q, &v, &params), (-1.0, extremes));
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
            let (_, hi) = plan(&ShapeQuery::pattern(Pattern::Slope(deg)), &v, &params);
            assert_eq!(hi, theta_at(steepest, target, worst), "θ = {deg}");
            assert!(hi < 1.0);
        }
    }

    #[test]
    fn no_slope_outside_a_band_scores_its_cut() {
        let theta = |deg: f64| {
            let (target, worst) = theta_target(deg);
            SlopeLeaf::Theta { target, worst }
        };
        let rows = [
            SlopeLeaf::Up,
            SlopeLeaf::Down,
            SlopeLeaf::Flat,
            theta(45.0),
            theta(-30.0),
            theta(0.0),
            theta(89.5),
            theta(90.0),
            theta(120.0),
            theta(-135.0),
        ];
        let score = |row: SlopeLeaf, slope: f64| clamp_score(row.at(slope.atan()));
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
                        SlopeLeaf::Theta { target, .. } => target.tan(),
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
        let refined = plan.bounds(&[&v], &mut windows, true)[0].1;
        let ends_kept = |windows: &EndWindows, threshold: f64| {
            let (lo, hi) = SlopeLeaf::Up.band((threshold - 1.0) * 3.0 + 1.0);
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
        let on_a_leg = clamp_score(SlopeLeaf::Up.at(windows.first[0].atan()));
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

    /// One unit of a referee chain: each Table 5 row, θ either side of
    /// flat and on and past the ±90° clamp.
    fn chain_unit(kind: usize) -> ShapeQuery {
        let deg = [30.0, -62.5, 4.0, 90.0, 120.0, -135.0];
        match kind {
            0 => ShapeQuery::up(),
            1 => ShapeQuery::down(),
            2 => ShapeQuery::flat(),
            k => ShapeQuery::pattern(Pattern::Slope(deg[(k - 3) % deg.len()])),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The walk over a chain's units against the tier it replaced, on
        /// every chain both place — two and three units — bit for bit:
        /// over falling walks, wandering walks and noise, at thresholds of
        /// −∞, below, on, an ulp above and above the exact score, and at
        /// a spread below it where the cuts and the give-ups decide.
        #[test]
        fn chain_walk_matches_referee(
            kinds in proptest::collection::vec(0usize..9, 2..=3),
            ys in proptest::collection::vec(-100.0f64..100.0, 3..=130),
            series in 0u8..3,
            seed in 0u64..10_000,
            below in proptest::collection::vec(0.0f64..0.4, 1..=4),
            narrow in 0u8..2,
        ) {
            let n = ys.len();
            let pairs: Vec<(f64, f64)> = match series {
                0 => walk(seed, n),
                1 => wander(seed, n),
                _ => ys.iter().enumerate().map(|(t, &y)| (t as f64, y)).collect(),
            };
            let v = viz(&pairs, 0);
            let q = ShapeQuery::concat(kinds.iter().map(|&kind| chain_unit(kind)).collect());
            let params = ScoreParams {
                min_width_frac: [0.0, 0.25][narrow as usize],
                ..ScoreParams::default()
            };
            let plan = BoundPlan::compile(&q, &params, Ends::BOTH);
            let chain = plan.joint().expect("a chain of free slope units");
            let units = &chain.0;
            let old = referee::JointChain {
                first: units[0],
                middle: (units.len() == 3).then(|| units[1]),
                last: units[units.len() - 1],
            };
            let mut windows = EndWindows::default();
            windows.load(&v, Ends::BOTH);
            let refined = plan.bounds(&[&v], &mut windows, true)[0].1 + plan.allowance();
            let udps = UdpRegistry::new();
            let ev = Evaluator::new(&v, &params, &udps);
            let exact = DpSegmenter.match_viz(&ev, &expand_chains(&q)).score;
            let near = [f64::NEG_INFINITY, exact, exact.next_up(), exact + 0.05];
            for threshold in near.into_iter().chain(below.iter().map(|b| exact - b)) {
                let got = chain.bound(&v, &mut windows, threshold, refined);
                let want = old.bound(&v, &mut windows, threshold, refined);
                proptest::prop_assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{} over {} points at τ {} (exact {}): {} vs {}",
                    q, n, threshold, exact, got, want
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
        let (lo, hi) = plan(&q, &v, &params);
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
        let (_, hi) = plan(&ShapeQuery::flat(), &v, &params);
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
        let (lo, hi) = plan(&pinned, &v, &params);
        assert_eq!(lo, -1.0);
        assert!(hi <= 1.0 && hi > 0.0);
        let not_pinned = ShapeQuery::Not(Box::new(pinned));
        let (_, hi) = plan(&not_pinned, &v, &params);
        assert_eq!(hi, 1.0, "NOT of a −1-capable child must allow +1");

        let widthy = ScoreParams {
            min_width_frac: 0.25,
            ..ScoreParams::default()
        };
        let (lo, _) = plan(&ShapeQuery::up(), &v, &widthy);
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
        let (lo, hi) = plan(&q, &v, &params);
        assert_eq!(lo, -1.0, "a width window can force an infeasible −1");
        let (_, plain_hi) = plan(&ShapeQuery::up(), &v, &params);
        assert_eq!(hi, plain_hi, "the Table-7 upper bound stands");
    }

    #[test]
    fn offered_scores_prove_the_global_kth_once_k_exist() {
        let cell = ThresholdCell::new();
        cell.offer(0.9, 3);
        cell.offer(0.1, 3);
        assert_eq!(
            cell.get(),
            f64::NEG_INFINITY,
            "two scores cannot prove a top-3 bound"
        );
        cell.offer(0.5, 3);
        assert_eq!(cell.get(), 0.1, "the 3rd best of {{0.9, 0.5, 0.1}}");
        cell.offer(0.7, 3);
        assert_eq!(cell.get(), 0.5, "0.7 displaces 0.1");
        cell.offer(f64::NAN, 3); // ignored
        cell.offer(0.2, 3); // below the floor: ignored
        assert_eq!(cell.get(), 0.5);
        // At k = 1 each score proves itself: a monotone max register.
        let one = ThresholdCell::new();
        one.offer(0.25, 1);
        one.offer(0.1, 1); // lower: ignored
        one.offer(f64::NEG_INFINITY, 1); // empty: ignored
        one.offer(f64::NAN, 1); // NaN: ignored
        assert_eq!(one.get(), 0.25);
        // k = 0 never proves anything.
        let zero = ThresholdCell::new();
        zero.offer(1.0, 0);
        assert_eq!(zero.get(), f64::NEG_INFINITY);
        // Default is the empty cell, not zeroed bits.
        assert_eq!(ThresholdCell::default().get(), f64::NEG_INFINITY);
    }

    #[test]
    fn bound_time_accumulates_below_a_microsecond_per_bound() {
        let counters = PruningCounters::default();
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
    fn driver_prunes_only_below_threshold() {
        let params = ScoreParams::default();
        // A fresh cell holding `threshold` (none for −∞: a top-k that has
        // not filled).
        let cell = |threshold: f64| {
            let cell = ThresholdCell::new();
            cell.offer(threshold, 1);
            cell
        };
        // Whether a one-candidate walk handed the candidate to the scorer
        // (the exact score it reports back is below every threshold used
        // here).
        let scored = |driver: &PruningDriver<'_>, viz: &VizData, bounds: &[f64]| {
            let mut scored = false;
            driver.walk(&[viz], bounds, 0..1, |_| {
                scored = true;
                -1.0
            });
            scored
        };

        // The whole-trendline bound alone: one unit, no end to anchor.
        let q = ShapeQuery::up();
        let counters = PruningCounters::default();
        let fall = viz(
            &(0..16).map(|t| (t as f64, -(t as f64))).collect::<Vec<_>>(),
            0,
        );
        let scores_under = |cell: &ThresholdCell, bounds: &[f64]| {
            let driver = PruningDriver::new(&q, &params, cell, &counters, 1, &NOOP_OBSERVER);
            scored(&driver, &fall, bounds)
        };

        // One pass, one bound per candidate: the plan's, and the one
        // leaf's rounding allowance.
        let no_threshold = ThresholdCell::new();
        let driver = PruningDriver::new(&q, &params, &no_threshold, &counters, 1, &NOOP_OBSERVER);
        let bounds = driver.upper_bounds(&[&fall]);
        let (_, bare) = plan(&q, &fall, &params);
        let ub = bare + ROUNDING_ALLOWANCE;
        assert_eq!(bounds, [ub]);
        assert_eq!(counters.snapshot().bounded, 1);

        // No threshold yet: nothing prunes.
        assert!(scores_under(&ThresholdCell::new(), &bounds));
        // An offered NEG_INFINITY is a no-op, not a threshold.
        assert!(scores_under(&cell(f64::NEG_INFINITY), &bounds));

        // A threshold equal to the bound does not prune — a tie could
        // still displace the k-th result by index order.
        assert!(scores_under(&cell(ub), &bounds));
        assert_eq!(counters.snapshot().pruned, 0);

        // A threshold above the fall's upper bound prunes it.
        assert!(!scores_under(&cell(0.9), &bounds));
        let snap = counters.snapshot();
        assert_eq!((snap.bounded, snap.pruned, snap.scored), (1, 1, 3));
        // With no end to anchor, nobody was bounded twice.
        assert_eq!(counters.snapshot().refined, 0);
        assert_eq!(bound_tiers(&q, &fall, &params, 0.9).anchored, None);

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
        let (_, whole) = plan(&q, &zigzag, &params);
        let tight = bound_tiers(&q, &zigzag, &params, f64::NEG_INFINITY)
            .anchored
            .expect("both ends are free");
        assert!(tight < whole - 0.1, "anchored {tight}, whole {whole}");
        let between = (tight + whole) / 2.0;
        let counters = PruningCounters::default();
        let scores_under = |cell: &ThresholdCell| {
            let driver = PruningDriver::new(&q, &params, cell, &counters, 1, &NOOP_OBSERVER);
            scored(&driver, &zigzag, &[whole])
        };
        let refined = || counters.snapshot().refined;

        // While the cell reads −∞ nothing is bounded twice.
        assert!(scores_under(&ThresholdCell::new()));
        assert_eq!(refined(), 0);

        // Nor is a candidate the whole-trendline bound prunes on its own.
        assert!(!scores_under(&cell(whole + 0.01)));
        assert_eq!(refined(), 0);

        // A threshold equal to the second bound is a tie, not a prune.
        assert!(scores_under(&cell(tight)));
        assert_eq!(refined(), 1);

        // Between the two bounds only the second prunes.
        assert!(!scores_under(&cell(between)));
        assert_eq!(refined(), 2);

        let snap = counters.snapshot();
        assert_eq!((snap.pruned, snap.scored, snap.refined), (2, 2, 2));

        // The third tier, under the same rule. Three fuzzy units on a
        // walk: the ends leave the middle a window it does not fit, so
        // the exact score sits well under the second-tier bound.
        let slope = |deg: f64| ShapeQuery::pattern(Pattern::Slope(deg));
        let q = ShapeQuery::concat(vec![slope(45.0), slope(-30.0), slope(60.0)]);
        let wander = viz(&wander(3, 64), 0);
        let udps = UdpRegistry::new();
        let ev = Evaluator::new(&wander, &params, &udps);
        let exact = DpSegmenter.match_viz(&ev, &expand_chains(&q)).score;
        let (_, whole) = plan(&q, &wander, &params);
        let tight = bound_tiers(&q, &wander, &params, f64::NEG_INFINITY)
            .anchored
            .expect("both ends are free");
        assert!(exact < tight - 0.01, "score {exact}, anchored {tight}");
        let between = (exact + tight) / 2.0;
        let counters = PruningCounters::default();
        let scores_under = |cell: &ThresholdCell| {
            let driver = PruningDriver::new(&q, &params, cell, &counters, 1, &NOOP_OBSERVER);
            scored(&driver, &wander, &[whole])
        };
        let joined = || counters.snapshot().joined;

        // Not taken for a candidate the second tier prunes on its own.
        assert!(!scores_under(&cell(tight + 0.01)));
        assert_eq!((counters.snapshot().refined, joined()), (1, 0));

        // A threshold equal to the exact score is a tie, not a prune.
        assert!(scores_under(&cell(exact)));
        assert_eq!(joined(), 1);

        // Above it (by more than the rounding allowance) and below the
        // second-tier bound only the third prunes.
        for threshold in [exact + 1e-9, between] {
            assert!(!scores_under(&cell(threshold)));
        }
        assert_eq!(joined(), 3);

        let snap = counters.snapshot();
        assert_eq!(
            (snap.pruned, snap.scored, snap.refined, snap.joined),
            (3, 1, 4, 3)
        );
    }

    #[test]
    fn seeds_are_the_k_highest_bounds_best_first_ties_by_position() {
        let params = ScoreParams::default();
        let (q, cell, counters) = (
            ShapeQuery::up(),
            ThresholdCell::new(),
            PruningCounters::default(),
        );
        let seeds = |k: usize, bounds: &[f64]| {
            PruningDriver::new(&q, &params, &cell, &counters, k, &NOOP_OBSERVER).seeds(bounds)
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

    /// The selection the one-pass seeds replaced: every position ordered
    /// best bound first (`total_cmp`, ties by position), partitioned at
    /// `k` and the `k` best sorted.
    fn select_then_sort(bounds: &[f64], k: usize) -> Vec<usize> {
        let best_first =
            |a: &usize, b: &usize| bounds[*b].total_cmp(&bounds[*a]).then_with(|| a.cmp(b));
        let mut order: Vec<usize> = (0..bounds.len()).collect();
        if k < order.len() {
            order.select_nth_unstable_by(k, best_first);
            order.truncate(k);
        }
        order.sort_unstable_by(best_first);
        order
    }

    #[test]
    fn seeds_are_select_then_sorts_on_ties_signed_zeros_nans_and_infinities() {
        let params = ScoreParams::default();
        let (q, cell, counters) = (
            ShapeQuery::up(),
            ThresholdCell::new(),
            PruningCounters::default(),
        );
        let seeds = |k: usize, bounds: &[f64]| {
            PruningDriver::new(&q, &params, &cell, &counters, k, &NOOP_OBSERVER).seeds(bounds)
        };
        // Few values, so most columns tie; both NaNs and both zeros.
        let palette = [
            f64::NEG_INFINITY,
            -1.0,
            -0.0,
            0.0,
            0.25,
            0.25 + f64::EPSILON,
            1.0,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        let mut state = 0x5eed_u64;
        let mut draw = |below: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % below
        };
        for case in 0..3_000 {
            let len = draw(48) as usize;
            let bounds: Vec<f64> = (0..len)
                .map(|_| match draw(4) {
                    0 => draw(1 << 20) as f64 / f64::from(1 << 19) - 1.0,
                    _ => palette[draw(palette.len() as u64) as usize],
                })
                .collect();
            let cut = draw(len as u64 + 1) as usize;
            for k in [0, 1, cut, len.saturating_sub(1), len, len + 1, usize::MAX] {
                assert_eq!(
                    seeds(k, &bounds),
                    select_then_sort(&bounds, k),
                    "case {case}, k {k}: {bounds:?}"
                );
            }
        }
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
        assert_eq!(cell.get(), f64::NEG_INFINITY);
        cell.offer(0.6, 3);
        assert_eq!(cell.get(), 0.4, "the 3rd best of {{0.8, 0.6, 0.4}}");
        cell.offer(0.7, 3);
        assert_eq!(cell.get(), 0.6);
    }

    #[test]
    fn mode_gates_match_segmenter_exactness() {
        for kind in [
            SegmenterKind::Dp,
            SegmenterKind::SegmentTree,
            SegmenterKind::Greedy,
        ] {
            assert!(PruningMode::Auto.active_for(kind));
            assert!(!PruningMode::Off.active_for(kind));
        }
        for kind in [SegmenterKind::Dtw, SegmenterKind::Euclidean] {
            assert!(!PruningMode::Auto.active_for(kind));
        }
        for mode in [PruningMode::Auto, PruningMode::Off] {
            assert_eq!(PruningMode::parse(mode.name()), Some(mode));
        }
        // The retired mode's name still parses, as what it now means.
        assert_eq!(PruningMode::parse("force"), Some(PruningMode::Auto));
        assert_eq!(PruningMode::parse("FORCE"), Some(PruningMode::Auto));
        assert_eq!(PruningMode::parse("sometimes"), None);
    }
}
