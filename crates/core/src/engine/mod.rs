//! The ShapeSearch execution engine (paper §5): the pipelined
//! EXTRACT → GROUP → SEGMENT → SCORE executor solving Problem 1 — "given a
//! dataset D, a ShapeQuery Q, visual parameters R, and a scoring function SF,
//! find top k visualizations that maximize SF(Q, Vᵢ)".
//!
//! An engine owns its trendlines in one form: the keys, and the raw
//! points as two flat columns ([`crate::columnar`]'s `PointTable`), cut
//! from EXTRACT's [`crate::Collection`] by [`crate::Collection::partition`]
//! — heap vectors when the collection is (which is then dropped), views
//! of the mapping when it was opened from a snapshot, which holds
//! nothing else. Result keys, push-down (a), and GROUP at any bin width
//! read those columns; the per-width arenas GROUP builds, on the heap
//! whatever the source, are the only other copy of anything.

pub mod group;
pub mod observe;
pub mod pushdown;
pub mod shard;
mod topk;

use crate::algo::baseline::{BaselineMethod, WholeSeriesBaseline};
use crate::algo::dp::DpSegmenter;
use crate::algo::greedy::GreedySegmenter;
use crate::algo::pruning::{
    PruningCounters, PruningDriver, PruningMode, PruningSnapshot, ThresholdCell,
};
use crate::algo::segment_tree::SegmentTreeSegmenter;
use crate::algo::{MatchResult, Segmenter, SegmenterKind};
use crate::ast::Pattern;
use crate::chain::{expand_chains, Chain, MAX_CHAIN_UNITS};
use crate::columnar::{Collection, ColumnarArena, PointTable};
use crate::error::{CoreError, Result};
use crate::eval::{Evaluator, UdpFn, UdpRegistry};
use crate::score::ScoreParams;
use crate::ShapeQuery;
use group::{GridMemo, VizData};
use observe::{EngineStage, StageObserver, NOOP_OBSERVER};
use shapesearch_datastore::{Table, Trendline, VisualSpec};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;
use topk::TopK;

/// Engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineOptions {
    /// Segmentation algorithm (Figure 10's competitors).
    pub segmenter: SegmenterKind,
    /// GROUP binning width in raw points per bin (1 = no binning).
    pub bin_width: usize,
    /// Enables the §5.4 push-down optimizations.
    pub pushdown: bool,
    /// Ignored; kept for the frozen benchmark package. The engine scores
    /// one query's candidates on the caller's thread — parallelism is
    /// the caller's, one shard per task.
    pub parallel: bool,
    /// Ignored; kept for the frozen benchmark package.
    pub parallel_threshold: usize,
    /// Scoring parameters.
    pub params: ScoreParams,
    /// When §6.3 bound pruning applies (default [`PruningMode::Auto`]:
    /// every segmenter but the whole-series baselines prunes). Pruning
    /// never changes results — it only skips candidates that provably
    /// cannot enter the top k.
    pub pruning_mode: PruningMode,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self {
            segmenter: SegmenterKind::default(),
            bin_width: 1,
            pushdown: true,
            parallel: false,
            parallel_threshold: usize::MAX,
            params: ScoreParams::default(),
            pruning_mode: PruningMode::default(),
        }
    }
}

/// Cross-executor shared state for one batched computation: one
/// threshold cell per query plus one set of pruning counters.
///
/// Everything that executes parts of the *same* logical computation —
/// a [`shard::ShardedEngine`]'s shards, the server's local compute-pool
/// shard tasks — should share one of these so every executor's progress
/// tightens the pruning bound everywhere else. A remote shard server
/// builds its own, so its partial is exact for its partition.
/// [`ShapeEngine::top_k`] creates a private one per call; embedders that
/// fan a computation out themselves build it once via [`Self::new`] and
/// pass clones (clones share the same cells) to every executor, then read
/// the effectiveness [`Self::snapshot`] afterwards.
#[derive(Debug, Clone, Default)]
pub struct SharedThresholds {
    cells: Vec<Arc<ThresholdCell>>,
    counters: Arc<PruningCounters>,
}

impl SharedThresholds {
    /// Fresh state for a computation over `queries` queries.
    pub fn new(queries: usize) -> Self {
        Self {
            cells: (0..queries)
                .map(|_| Arc::new(ThresholdCell::new()))
                .collect(),
            counters: Arc::new(PruningCounters::default()),
        }
    }

    /// Number of per-query cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when built for zero queries.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The shared threshold cell of query `query`.
    ///
    /// # Panics
    /// When `query` is out of range.
    pub(crate) fn cell(&self, query: usize) -> &ThresholdCell {
        &self.cells[query]
    }

    /// The shared counter sink every driver of this computation feeds.
    pub(crate) fn counters(&self) -> &PruningCounters {
        &self.counters
    }

    /// A point-in-time copy of the pruning effectiveness counters.
    pub fn snapshot(&self) -> PruningSnapshot {
        self.counters.snapshot()
    }
}

/// One entry of the top-k answer.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKResult {
    /// The `z` value of the matched visualization.
    pub key: String,
    /// Final score in [−1, 1].
    pub score: f64,
    /// Global index of the matched trendline in the *collection*: for a
    /// standalone engine this is the row [`ShapeEngine::key`] takes; for a
    /// shard of a [`shard::ShardedEngine`] it is the shard's base offset
    /// plus the local index, so indices (and the tie order built on them)
    /// are stable no matter how the collection is partitioned.
    pub viz_index: usize,
    /// Canvas point range fitted to each unit of the winning chain (empty
    /// for whole-series baselines) — the "green line segments" the
    /// front-end overlays on results.
    pub ranges: Vec<(usize, usize)>,
}

/// The ShapeSearch execution engine over one visualization collection
/// (or over one shard of a larger, partitioned collection — see
/// [`shard::ShardedEngine`]). Rows are reached through [`Self::len`],
/// [`Self::key`] and [`Self::points`].
#[derive(Debug)]
pub struct ShapeEngine {
    /// The `z` value of each trendline, in collection order.
    keys: Vec<String>,
    /// The raw points, stored once (each distinct x row once): GROUP at
    /// any bin width and push-down (a) read these columns.
    points: PointTable,
    options: EngineOptions,
    udps: UdpRegistry,
    /// Global index of row 0 in the enclosing collection: 0 for
    /// a standalone engine, the shard's partition offset otherwise.
    /// Added to every local index on the way out so reported
    /// `viz_index`es are collection-global.
    base_index: usize,
    /// Lazily built columnar GROUP state, keyed by bin width.
    /// `Arc`-shared so repeated batches (and everything holding this
    /// engine behind an `Arc` — shards, the server catalog) reuse one
    /// [`crate::ColumnarArena`] instead of re-running GROUP per call.
    /// At most two entries: the first width grouped (the one a
    /// registration warms) stays for the engine's life, and one other
    /// beside it, dropped before the next is built.
    /// A query's `bin_width` arrives unchecked from outside the program,
    /// so the cache must not grow with the number of distinct widths a
    /// client cares to send; whoever still holds a dropped collection's
    /// `Arc` (an in-flight query) is unaffected.
    grouped_cache: Mutex<Vec<(usize, GroupedCollection)>>,
}

/// One `Arc`-shared GROUP run over the whole collection: `None` where
/// GROUP rejected the trendline (fewer than two canvas points, or a raw
/// span that is not finite).
type GroupedCollection = Arc<Vec<Option<VizData>>>;

impl ShapeEngine {
    /// Builds an engine by running EXTRACT over a table with the given
    /// visual parameters.
    ///
    /// # Errors
    /// Propagates extraction errors (unknown columns, non-numeric axes).
    pub fn new(table: &Table, spec: &VisualSpec) -> Result<Self> {
        let collection = Collection::extract(table, spec)?;
        Ok(collection.partition(0, collection.len()))
    }

    /// Builds an engine directly from trendlines (e.g. from a generator):
    /// the trendlines are flattened into a [`Collection`] and dropped,
    /// and the engine is cut from it whole.
    pub fn from_trendlines(trendlines: Vec<Trendline>) -> Self {
        let collection = Collection::from_trendlines(&trendlines);
        drop(trendlines);
        collection.partition(0, collection.len())
    }

    /// An engine over cut columns, one key per row — what
    /// [`Collection::partition`] builds. It has GROUPed nothing yet,
    /// like any new engine.
    pub(crate) fn from_columns(keys: Vec<String>, points: PointTable) -> Self {
        debug_assert_eq!(keys.len(), points.len());
        Self {
            keys,
            points,
            options: EngineOptions::default(),
            udps: UdpRegistry::new(),
            base_index: 0,
            grouped_cache: Mutex::new(Vec::new()),
        }
    }

    /// The GROUPed collection for `bin_width`, built on first use and
    /// cached: every trendline normalized/binned into one shared
    /// [`crate::ColumnarArena`], `None` where GROUP rejects (fewer than
    /// two points). Handles are bit-identical to per-trendline GROUP.
    ///
    /// GROUP runs outside the cache lock, so a request at a width nobody
    /// warmed never stalls the queries of the width everybody uses. Two
    /// threads missing on one width both build; the first to insert wins
    /// and the other's run is dropped.
    pub(crate) fn grouped(&self, bin_width: usize) -> GroupedCollection {
        let find = |cache: &mut Vec<(usize, GroupedCollection)>| {
            let hit = cache.iter().find(|(b, _)| *b == bin_width);
            let hit = hit.map(|(_, g)| Arc::clone(g));
            if hit.is_none() {
                // Make room first: the old extra goes before the new one
                // is built, and again before it is inserted.
                cache.truncate(1);
            }
            hit
        };
        if let Some(hit) = find(&mut self.cache()) {
            return hit;
        }
        let built = Arc::new(group::group_points(&self.points, bin_width));
        let mut cache = self.cache();
        find(&mut cache).unwrap_or_else(|| {
            cache.push((bin_width, Arc::clone(&built)));
            built
        })
    }

    fn cache(&self) -> MutexGuard<'_, Vec<(usize, GroupedCollection)>> {
        self.grouped_cache
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Eagerly builds (and caches) the columnar GROUP state for
    /// `bin_width`, so the first query pays segmentation only. Embedders
    /// that register an engine long before its first query — the server
    /// catalog — call this at registration time.
    pub fn warm(&self, bin_width: usize) {
        let _ = self.grouped(bin_width);
    }

    /// Total bytes of GROUP state this engine currently holds resident:
    /// for each cached bin width, its arena's byte size and its
    /// `Vec<Option<VizData>>` of handles, one a trendline. Fixed by
    /// GROUP; no query changes it.
    pub fn grouped_byte_size(&self) -> usize {
        self.sum_over_runs(|handles, arena| {
            std::mem::size_of_val(handles) + arena.map_or(0, ColumnarArena::byte_size)
        })
    }

    /// Bytes of SegmentTree angle runs the cached GROUP runs have built
    /// since GROUP ([`ColumnarArena::angle_run_bytes`]): 0 at first, then
    /// growing with the trendlines queries score, so it depends on the
    /// query history. Not part of [`Self::grouped_byte_size`].
    pub fn angle_run_bytes(&self) -> usize {
        self.sum_over_runs(|_, arena| arena.map_or(0, ColumnarArena::angle_run_bytes))
    }

    /// `measure` summed over each cached bin width's GROUP run: its
    /// handles, and the one arena every handle of the run shares (`None`
    /// when GROUP accepted no trendline).
    fn sum_over_runs(
        &self,
        measure: impl Fn(&[Option<VizData>], Option<&ColumnarArena>) -> usize,
    ) -> usize {
        self.cache()
            .iter()
            .map(|(_, grouped)| {
                let arena = grouped.iter().flatten().next().map(VizData::arena);
                measure(grouped, arena)
            })
            .sum()
    }

    /// Declares this engine a shard of a larger collection whose first
    /// trendline sits at global index `base`: every reported `viz_index`
    /// becomes `base + local index`, keeping indices (and tie ordering)
    /// stable across any partitioning. Returns `self` for chaining.
    #[must_use]
    pub fn with_base_index(mut self, base: usize) -> Self {
        self.base_index = base;
        self
    }

    /// The global index of this engine's first trendline (0 unless the
    /// engine is a shard).
    pub fn base_index(&self) -> usize {
        self.base_index
    }

    /// Replaces the engine options, returning `self` for chaining.
    #[must_use]
    pub fn with_options(mut self, options: EngineOptions) -> Self {
        self.options = options;
        self
    }

    /// Selects the segmentation algorithm, returning `self` for chaining.
    #[must_use]
    pub fn with_segmenter(mut self, kind: SegmenterKind) -> Self {
        self.options.segmenter = kind;
        self
    }

    /// Registers a user-defined pattern usable as `p=udp:<name>`.
    pub fn register_udp(&mut self, name: impl Into<String>, f: UdpFn) {
        self.udps.register(name, f);
    }

    /// Registers all built-in mathematical patterns (`concave`, `convex`,
    /// `exponential`, `logarithmic`, `entropy_high`, `entropy_low`,
    /// `v_shape`, `spike`) — the §7.2 user-requested extensions.
    pub fn register_builtin_udps(&mut self) {
        crate::udps::register_builtins(&mut self.udps);
    }

    /// Number of trendlines in the collection (GROUP-rejected ones
    /// included).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True for an engine over no trendlines.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The `z` value of trendline `i` (a local index, `0..len()`).
    pub fn key(&self, i: usize) -> &str {
        &self.keys[i]
    }

    /// The raw `(xs, ys)` of trendline `i`, ascending in x.
    pub fn points(&self, i: usize) -> (&[f64], &[f64]) {
        self.points.row(i)
    }

    /// Current options.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// Mutable options access.
    pub fn options_mut(&mut self) -> &mut EngineOptions {
        &mut self.options
    }

    /// Executes a ShapeQuery under the engine's own options, returning the
    /// top `k` visualizations by score: a batch of one through
    /// [`Self::top_k_batch_observed`] with private thresholds and no
    /// observer — the only convenience spelling.
    ///
    /// # Errors
    /// Fails when the query references unregistered UDPs, is structurally
    /// empty, or chains more than [`MAX_CHAIN_UNITS`] segments.
    pub fn top_k(&self, query: &ShapeQuery, k: usize) -> Result<Vec<TopKResult>> {
        self.top_k_batch_observed(
            &[(query, k)],
            &self.options,
            &SharedThresholds::new(1),
            &NOOP_OBSERVER,
        )
        .pop()
        .expect("one outcome per batched query")
    }

    /// The engine's one entry point: executes a whole batch of
    /// ShapeQueries over **one pass** of the trendline collection (the
    /// paper's §5 pipelining argument, lifted from sharing work *within* a
    /// query to sharing it *across* queries): the GROUP stage —
    /// normalization, binning, and the prefix statistics index — runs at
    /// most once per trendline for the entire batch, no matter how many
    /// queries reference it, instead of once per query. Only the per-query
    /// segmentation and scoring remain proportional to the batch size.
    ///
    /// Outcomes are per query, in input order, and are bit-identical to
    /// running each `(query, k)` pair as a batch of its own — one malformed
    /// query fails only its own slot, never the rest of the batch. GROUP is
    /// query-independent: located and fuzzy queries alike score on the one
    /// cached collection, so `ranges` are always positions on the full
    /// canvas.
    ///
    /// `options` replace the engine's own for this call — the seam that
    /// lets a shared, immutable engine (one behind an `Arc` in a server
    /// catalog) serve requests that pick their own algorithm or scoring
    /// parameters without copying the collection.
    ///
    /// `shared` is caller-owned execution state: an embedder fanning one
    /// computation across several engines (a partition map's shards, the
    /// server's compute-pool shard tasks) gives every executor the *same*
    /// per-query threshold cells, so each executor's proven top-k
    /// progress prunes work in all the others. Results are byte-identical
    /// to a private `SharedThresholds::new(items.len())` — pruning only
    /// ever skips candidates that provably cannot enter the top k.
    ///
    /// `observer` receives stage timings: the GROUP stage once per batch,
    /// SEGMENT+SCORE once per valid query (candidate selection included,
    /// so no work between the two reports is untimed), and the §6.3 bound
    /// pass once per query the pruning driver runs for (see
    /// [`observe::EngineStage`]). Observation never changes results — the
    /// observer only receives durations; pass [`NOOP_OBSERVER`] for none.
    ///
    /// # Panics
    /// When `shared` was not built for exactly `items.len()` queries.
    pub fn top_k_batch_observed(
        &self,
        items: &[(&ShapeQuery, usize)],
        options: &EngineOptions,
        shared: &SharedThresholds,
        observer: &dyn StageObserver,
    ) -> Vec<Result<Vec<TopKResult>>> {
        assert_eq!(
            items.len(),
            shared.len(),
            "shared state must carry one ThresholdCell per query"
        );
        struct Prep<'q> {
            query: &'q ShapeQuery,
            k: usize,
            chains: Vec<Chain>,
            pinned: Vec<(f64, f64)>,
        }

        let preps: Vec<Result<Prep<'_>>> = items
            .iter()
            .map(|&(query, k)| {
                self.validate(query)?;
                let chains = expand_chains(query);
                if chains.is_empty() || chains.iter().any(Chain::is_empty) {
                    return Err(CoreError::InvalidQuery("query has no segments".into()));
                }
                if chains.iter().any(|chain| chain.len() > MAX_CHAIN_UNITS) {
                    return Err(CoreError::InvalidQuery(format!(
                        "query chains more than {MAX_CHAIN_UNITS} segments"
                    )));
                }
                Ok(Prep {
                    query,
                    k,
                    chains,
                    pinned: query.pinned_x_ranges(),
                })
            })
            .collect();

        // Push-down (a): a query considers a trendline only when the
        // trendline covers the query's pinned x ranges — a verdict on its
        // raw x row alone, so taken once a grid. A query with no pins (or
        // no push-down) never looks at a grid.
        let wants = |p: &Prep<'_>, covered: &mut GridMemo<(), bool>, v: &VizData| {
            !options.pushdown
                || p.pinned.is_empty()
                || covered.get(v, (), || {
                    pushdown::covers_ranges(self.points.row(v.source).0, &p.pinned)
                })
        };

        // Shared GROUP: the whole collection is normalized/binned into one
        // columnar arena at most once per bin width for the engine's entire
        // lifetime (see [`Self::grouped`]) — every batch after the first
        // reuses the cached arena, so repeated queries pay segmentation
        // only. Grouping is per-trendline-independent, so grouping
        // trendlines a query later filters out cannot change any result.
        let group_started = Instant::now();
        let grouped: GroupedCollection = self.grouped(options.bin_width);
        observer.stage_duration(EngineStage::Group, group_started.elapsed());

        preps
            .into_iter()
            .enumerate()
            .map(|(qi, prep)| {
                let p = prep?;
                let score_started = Instant::now();
                let mut covered = GridMemo::default();
                let vizzes: Vec<&VizData> = grouped
                    .iter()
                    .flatten()
                    .filter(|v| wants(&p, &mut covered, v))
                    .collect();

                let driver = options.pruning_mode.active_for(options.segmenter).then(|| {
                    PruningDriver::new(
                        p.query,
                        &options.params,
                        shared.cell(qi),
                        shared.counters(),
                        p.k,
                        observer,
                    )
                });
                let results = self.run_per_viz(
                    &vizzes,
                    &p.chains,
                    options.segmenter,
                    p.k,
                    options,
                    driver.as_ref(),
                );
                observer.stage_duration(EngineStage::SegmentScore, score_started.elapsed());

                Ok(results
                    .into_sorted()
                    .into_iter()
                    .map(|s| TopKResult {
                        key: self.keys[s.viz].clone(),
                        score: s.result.score,
                        viz_index: self.base_index + s.viz,
                        ranges: s.result.ranges,
                    })
                    .collect())
            })
            .collect()
    }

    /// SEGMENT + SCORE over one query's candidates, on the caller's
    /// thread (a server runs one shard per pool task): every candidate in
    /// index order, or, with a pruning driver, those §6.3 cannot rule out,
    /// in the order it picks ([`PruningDriver::run`]). [`TopK`]'s order is
    /// total, so the surviving top k is byte-identical either way.
    fn run_per_viz(
        &self,
        vizzes: &[&VizData],
        chains: &[Chain],
        kind: SegmenterKind,
        k: usize,
        options: &EngineOptions,
        prune: Option<&PruningDriver<'_>>,
    ) -> TopK {
        let mut topk = TopK::new(k, vizzes.len());
        if k == 0 {
            // Asks for nothing: no candidate is worth a bound, let alone
            // a segmentation.
            return topk;
        }
        let score_one = |viz: &VizData| -> MatchResult {
            let ev = Evaluator::new(viz, &options.params, &self.udps);
            if options.pushdown && pushdown::eager_discard(&ev, chains) {
                return MatchResult::infeasible();
            }
            match kind {
                SegmenterKind::Dp => DpSegmenter.match_viz(&ev, chains),
                SegmenterKind::SegmentTree => {
                    SegmentTreeSegmenter::default().match_viz(&ev, chains)
                }
                SegmenterKind::Greedy => GreedySegmenter::new().match_viz(&ev, chains),
                SegmenterKind::Dtw => WholeSeriesBaseline {
                    method: BaselineMethod::Dtw,
                }
                .match_viz(&ev, chains),
                SegmenterKind::Euclidean => WholeSeriesBaseline {
                    method: BaselineMethod::Euclidean,
                }
                .match_viz(&ev, chains),
            }
        };
        // Scores one candidate exactly, admits it, and returns the score
        // (which the driver pools: once k scores exist *anywhere* — across
        // shards, even processes via the server's fan-out — the global
        // k-th becomes the proven threshold).
        let mut admit = |pos: usize| -> f64 {
            let viz = vizzes[pos];
            let result = score_one(viz);
            let score = result.score;
            // "No match" placeholders — floor score with nothing fitted —
            // are filtered at ADMISSION, not after the k-cut: a filtered
            // candidate must never occupy a top-k slot, or an unsharded
            // cut could spend its k on placeholders that a per-shard cut
            // (which filters before the merge) would have skipped, making
            // the merged answer differ from the unsharded one. They still
            // report their −1 floor — it can never raise the threshold
            // above a real score, and no upper bound sits strictly below
            // −1.
            if score > -1.0 || !result.ranges.is_empty() {
                topk.push(viz.source, result);
            }
            score
        };
        match prune {
            Some(driver) => driver.run(vizzes, admit),
            None => (0..vizzes.len()).for_each(|pos| {
                admit(pos);
            }),
        }
        topk
    }

    /// Validates a query against this engine (UDP registration).
    fn validate(&self, query: &ShapeQuery) -> Result<()> {
        for seg in query.segments() {
            if let Some(Pattern::Udp(name)) = &seg.pattern {
                if !self.udps.contains(name) {
                    return Err(CoreError::UnknownUdp(name.clone()));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod grid_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::pruning::tests::{walk, wander};
    use crate::ast::ShapeSegment;
    use std::sync::Arc;

    fn peaked(key: &str, peak_at: f64, n: usize) -> Trendline {
        let pairs: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let x = i as f64;
                let y = if x < peak_at { x } else { 2.0 * peak_at - x };
                (x, y)
            })
            .collect();
        Trendline::from_pairs(key, &pairs)
    }

    fn falling(key: &str, n: usize) -> Trendline {
        let pairs: Vec<(f64, f64)> = (0..n).map(|i| (i as f64, (n - i) as f64)).collect();
        Trendline::from_pairs(key, &pairs)
    }

    fn collection() -> Vec<Trendline> {
        vec![
            peaked("peak_mid", 8.0, 16),
            falling("fall_a", 16),
            peaked("peak_late", 12.0, 16),
            falling("fall_b", 16),
        ]
    }

    fn updown() -> ShapeQuery {
        ShapeQuery::concat(vec![ShapeQuery::up(), ShapeQuery::down()])
    }

    #[test]
    fn top_k_ranks_peaks_first() {
        let engine = ShapeEngine::from_trendlines(collection());
        let results = engine.top_k(&updown(), 2).unwrap();
        assert_eq!(results.len(), 2);
        let keys: Vec<&str> = results.iter().map(|r| r.key.as_str()).collect();
        assert!(keys.contains(&"peak_mid"));
        assert!(keys.contains(&"peak_late"));
        assert!(results[0].score >= results[1].score);
        assert!(!results[0].ranges.is_empty());
    }

    #[test]
    fn a_chain_wider_than_the_cap_is_refused_alone() {
        let engine = ShapeEngine::from_trendlines(vec![peaked("p", 20.0, 48), falling("f", 48)]);
        let chain = |units: usize| {
            ShapeQuery::concat(
                (0..units)
                    .map(|i| {
                        if i % 2 == 0 {
                            ShapeQuery::up()
                        } else {
                            ShapeQuery::down()
                        }
                    })
                    .collect(),
            )
        };
        let (widest, wider) = (chain(MAX_CHAIN_UNITS), chain(MAX_CHAIN_UNITS + 1));
        let outcomes = engine.top_k_batch_observed(
            &[(&widest, 2), (&wider, 2)],
            engine.options(),
            &SharedThresholds::new(2),
            &NOOP_OBSERVER,
        );
        assert_eq!(outcomes[0].as_ref().unwrap().len(), 2);
        match &outcomes[1] {
            Err(CoreError::InvalidQuery(msg)) => assert!(msg.contains("16 segments"), "{msg}"),
            other => panic!("a 17-unit chain must be refused, got {other:?}"),
        }
    }

    #[test]
    fn all_segmenters_agree_on_easy_data() {
        for kind in [
            SegmenterKind::Dp,
            SegmenterKind::SegmentTree,
            SegmenterKind::Greedy,
        ] {
            let engine = ShapeEngine::from_trendlines(collection()).with_segmenter(kind);
            let results = engine.top_k(&updown(), 2).unwrap();
            let keys: Vec<&str> = results.iter().map(|r| r.key.as_str()).collect();
            assert!(
                keys.contains(&"peak_mid") && keys.contains(&"peak_late"),
                "{kind:?} got {keys:?}"
            );
        }
        // The whole-series baselines compare against a symmetric prototype;
        // the asymmetric late peak may rank below (that weakness is exactly
        // what §7.3 measures). They must still put a peak first.
        for kind in [SegmenterKind::Dtw, SegmenterKind::Euclidean] {
            let engine = ShapeEngine::from_trendlines(collection()).with_segmenter(kind);
            let results = engine.top_k(&updown(), 2).unwrap();
            assert!(
                results[0].key.starts_with("peak"),
                "{kind:?} ranked {} first",
                results[0].key
            );
        }
    }

    #[test]
    fn pushdown_prunes_uncovered_trendlines() {
        let mut tls = collection();
        // A short trendline that does not reach x = 12.
        tls.push(Trendline::from_pairs(
            "short",
            &[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)],
        ));
        let engine = ShapeEngine::from_trendlines(tls);
        let q = ShapeQuery::concat(vec![
            ShapeQuery::Segment(ShapeSegment::pinned(Pattern::Up, 10.0, 14.0)),
            ShapeQuery::down(),
        ]);
        let results = engine.top_k(&q, 10).unwrap();
        assert!(results.iter().all(|r| r.key != "short"));
    }

    fn pinned(pattern: Pattern, xs: f64, xe: f64) -> ShapeQuery {
        ShapeQuery::Segment(ShapeSegment::pinned(pattern, xs, xe))
    }

    #[test]
    fn pushdown_on_off_same_results() {
        // Every trendline covers the pins, so push-down (a) filters
        // nothing; (b) only discards candidates the k-cut drops anyway.
        let off_opts = EngineOptions {
            pushdown: false,
            ..EngineOptions::default()
        };
        let on = ShapeEngine::from_trendlines(collection());
        let off = ShapeEngine::from_trendlines(collection()).with_options(off_opts);
        for q in [
            ShapeQuery::concat(vec![pinned(Pattern::Up, 0.0, 8.0), ShapeQuery::down()]),
            ShapeQuery::concat(vec![
                pinned(Pattern::Up, 0.0, 8.0),
                pinned(Pattern::Down, 12.0, 15.0),
            ]),
        ] {
            let a = on.top_k(&q, 2).unwrap();
            assert_eq!(a.len(), 2);
            assert_eq!(a, off.top_k(&q, 2).unwrap(), "diverged on {q}");
        }
    }

    #[test]
    fn located_ranges_are_canvas_positions() {
        // Integer x: canvas point i sits at raw x = i.
        let tls: Vec<Trendline> = (0..5)
            .map(|i| peaked(&format!("p{i}"), 44.0 + 3.0 * i as f64, 128))
            .collect();
        let full = VizData::from_trendline(&tls[0], 0, 1).unwrap();
        let on_grid = ShapeQuery::concat(vec![
            pinned(Pattern::Up, 30.0, 50.0),
            pinned(Pattern::Down, 50.0, 100.0),
        ]);
        let off_grid = pinned(Pattern::Up, 10.4, 40.6);
        let cases = [
            (&on_grid, vec![(30, 50), (50, 100)]),
            (
                &off_grid,
                vec![(full.x_to_index(10.4), full.x_to_index(40.6))],
            ),
        ];
        assert_eq!(cases[1].1, vec![(10, 41)]);
        for (q, want) in cases {
            for kind in [
                SegmenterKind::Dp,
                SegmenterKind::SegmentTree,
                SegmenterKind::Greedy,
            ] {
                let answers: Vec<Vec<TopKResult>> = [true, false]
                    .into_iter()
                    .map(|pushdown| {
                        let opts = EngineOptions {
                            segmenter: kind,
                            pushdown,
                            ..EngineOptions::default()
                        };
                        ShapeEngine::from_trendlines(tls.clone())
                            .with_options(opts)
                            .top_k(q, 5)
                            .unwrap()
                    })
                    .collect();
                assert_eq!(answers[0].len(), 5, "{kind:?} on {q}");
                for r in &answers[0] {
                    assert_eq!(r.ranges, want, "{kind:?} on {q}: {}", r.key);
                }
                assert_eq!(answers[0], answers[1], "{kind:?} on {q}: pushdown on/off");
            }
        }
    }

    #[test]
    fn batch_matches_sequential_for_every_segmenter() {
        let queries = [
            updown(),
            ShapeQuery::concat(vec![ShapeQuery::down(), ShapeQuery::up()]),
            ShapeQuery::concat(vec![
                ShapeQuery::Segment(ShapeSegment::pinned(Pattern::Up, 0.0, 8.0)),
                ShapeQuery::down(),
            ]),
            ShapeQuery::down(),
        ];
        for kind in [
            SegmenterKind::Dp,
            SegmenterKind::SegmentTree,
            SegmenterKind::Greedy,
            SegmenterKind::Dtw,
            SegmenterKind::Euclidean,
        ] {
            let engine = ShapeEngine::from_trendlines(collection()).with_segmenter(kind);
            let items: Vec<(&ShapeQuery, usize)> = queries
                .iter()
                .enumerate()
                .map(|(i, q)| (q, i + 1))
                .collect();
            let batched = engine.top_k_batch_observed(
                &items,
                engine.options(),
                &SharedThresholds::new(items.len()),
                &NOOP_OBSERVER,
            );
            assert_eq!(batched.len(), queries.len());
            for ((q, k), got) in items.iter().zip(batched) {
                let want = engine.top_k(q, *k).unwrap();
                assert_eq!(got.unwrap(), want, "{kind:?} diverged on {q}");
            }
        }
    }

    #[test]
    fn batch_isolates_per_query_errors() {
        let engine = ShapeEngine::from_trendlines(collection());
        let good = updown();
        let bad = ShapeQuery::pattern(Pattern::Udp("mystery".into()));
        let outcomes = engine.top_k_batch_observed(
            &[(&good, 2), (&bad, 2), (&good, 1)],
            engine.options(),
            &SharedThresholds::new(3),
            &NOOP_OBSERVER,
        );
        assert!(outcomes[0].is_ok());
        assert!(matches!(outcomes[1], Err(CoreError::UnknownUdp(_))));
        let solo = engine.top_k(&good, 1).unwrap();
        assert_eq!(outcomes[2].as_ref().unwrap(), &solo);
    }

    /// A needle-in-a-haystack collection: a few peaks buried in falls.
    fn haystack(n: usize) -> Vec<Trendline> {
        (0..n)
            .map(|i| {
                if i % 17 == 3 {
                    peaked(&format!("peak{i}"), 8.0, 16)
                } else {
                    falling(&format!("fall{i}"), 16)
                }
            })
            .collect()
    }

    #[test]
    fn default_pruning_is_byte_identical_and_actually_prunes() {
        let tls = haystack(120);
        let q = updown();
        for kind in [SegmenterKind::Dp, SegmenterKind::SegmentTree] {
            let opts = EngineOptions {
                segmenter: kind,
                ..EngineOptions::default()
            };
            let off = EngineOptions {
                pruning_mode: PruningMode::Off,
                ..opts.clone()
            };
            let engine = ShapeEngine::from_trendlines(tls.clone()).with_options(off);
            let want = engine.top_k(&q, 3).unwrap();
            let shared = SharedThresholds::new(1);
            let got = engine
                .top_k_batch_observed(&[(&q, 3)], &opts, &shared, &NOOP_OBSERVER)
                .pop()
                .unwrap()
                .unwrap();
            assert_eq!(got, want, "{kind:?} diverged under default pruning");
            let snap = shared.snapshot();
            assert!(
                snap.pruned > 50,
                "{kind:?}: expected most falls pruned, got {snap:?}"
            );
            assert!(
                snap.bounded >= snap.pruned && snap.scored >= 3,
                "inconsistent counters: {snap:?}"
            );
        }
    }

    #[test]
    fn seeds_are_the_best_bounds_and_the_sweep_prunes_the_rest() {
        // ssbench's `haystack` in small: a clean peak at every
        // i % 100 == 37 among strictly falling, mildly curved distractors
        // whose steepness is spread evenly over 0.5–1.5. In index order
        // the third peak sits at position 237; only an order by bound
        // meets three peaks in three scores.
        let n = 128;
        let tls: Vec<Trendline> = (0..400)
            .map(|i| {
                if i % 100 == 37 {
                    return peaked(&format!("peak{i}"), n as f64 / 2.0, n);
                }
                let steep = 0.5 + (i as f64 * 0.618_033_988_749_894_9).fract();
                let pairs: Vec<(f64, f64)> = (0..n)
                    .map(|t| (t as f64, -steep * t as f64 - 0.002 * (t * t) as f64))
                    .collect();
                Trendline::from_pairs(format!("fall{i}"), &pairs)
            })
            .collect();
        let q = ShapeQuery::concat(vec![
            ShapeQuery::pattern(Pattern::Slope(45.0)),
            ShapeQuery::pattern(Pattern::Slope(-45.0)),
        ]);
        for kind in [SegmenterKind::Dp, SegmenterKind::SegmentTree] {
            let opts = EngineOptions {
                segmenter: kind,
                ..EngineOptions::default()
            };
            let off = EngineOptions {
                pruning_mode: PruningMode::Off,
                ..opts.clone()
            };
            let engine = ShapeEngine::from_trendlines(tls.clone()).with_options(off);
            let want = engine.top_k(&q, 3).unwrap();
            let shared = SharedThresholds::new(1);
            let got = engine
                .top_k_batch_observed(&[(&q, 3)], &opts, &shared, &NOOP_OBSERVER)
                .pop()
                .unwrap()
                .unwrap();
            assert_eq!(got, want, "{kind:?}");
            // The three seeds are peaks (the only bounds of 1), their
            // third-best score is above every distractor's bound, and the
            // one candidate the sweep cannot rule out is the fourth peak.
            let snap = shared.snapshot();
            assert_eq!(
                (snap.bounded, snap.scored, snap.pruned),
                (400, 4, 396),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn anchored_bounds_prune_walks_the_whole_trendline_bound_cannot() {
        // ssbench's `fuzzy_miss` in small: random walks, whose interval
        // slopes straddle every target angle, so every whole-trendline
        // bound is ≈ 1 and prunes nothing; what prunes is how few of the
        // windows from the first point, and into the last, fit their unit
        // — and, once both are placed, how badly the middle fits what is
        // left. Walks that only ever fall fit this chain so poorly (top
        // five ≈ 0.35) that no threshold cuts a placement: the second tier
        // and the sweep order do all the work there. Walks that wander
        // reach 0.95, and the third tier has something to cut by.
        let falling = |seed| walk(seed, 64);
        let wandering = |seed| wander(seed, 64);
        let q = ShapeQuery::concat(vec![
            ShapeQuery::pattern(Pattern::Slope(45.0)),
            ShapeQuery::pattern(Pattern::Slope(-30.0)),
            ShapeQuery::pattern(Pattern::Slope(60.0)),
        ]);
        // Every segmenter pruning runs for.
        let kinds = [
            SegmenterKind::Dp,
            SegmenterKind::SegmentTree,
            SegmenterKind::Greedy,
        ];
        for kind in kinds {
            for (wanders, steps) in [(false, &falling as &dyn Fn(u64) -> _), (true, &wandering)] {
                let tls: Vec<Trendline> = (0..400u64)
                    .map(|i| Trendline::from_pairs(format!("walk{i}"), &steps(i + 1)))
                    .collect();
                let opts = EngineOptions {
                    segmenter: kind,
                    ..EngineOptions::default()
                };
                let off = EngineOptions {
                    pruning_mode: PruningMode::Off,
                    ..opts.clone()
                };
                let engine = ShapeEngine::from_trendlines(tls).with_options(off);
                let want = engine.top_k(&q, 5).unwrap();
                let shared = SharedThresholds::new(1);
                let got = engine
                    .top_k_batch_observed(&[(&q, 5)], &opts, &shared, &NOOP_OBSERVER)
                    .pop()
                    .unwrap()
                    .unwrap();
                let case = format!("{kind:?}, wandering: {wanders}");
                assert_eq!(got, want, "{case}");
                let snap = shared.snapshot();
                assert!(snap.pruned > 0, "{case}: {snap:?}");
                assert_eq!(snap.bounded, 400, "{case}");
                assert_eq!(snap.pruned + snap.scored, 400, "{case}");
                // Every prune was the second tier's or the third's: no
                // candidate got to either without the tier before failing
                // on it.
                assert!(
                    snap.pruned <= snap.refined && snap.refined <= 400 - 5,
                    "{case}: {snap:?}"
                );
                assert!(
                    0 < snap.joined && snap.joined <= snap.refined,
                    "{case}: {snap:?}"
                );
                if wanders {
                    // Whoever the third tier bounded and did not prune was
                    // scored.
                    assert!(snap.joined > snap.scored, "{case}: {snap:?}");
                } else if kind != SegmenterKind::Greedy {
                    // Walked best second-tier bound first, the sweep stops
                    // at the first bound under a threshold that is by then
                    // nearly final (in index order the exact segmenters
                    // scored 74 and 85 here).
                    assert!(snap.scored <= 50, "{case}: {snap:?}");
                }
            }
        }
    }

    #[test]
    fn golden_work_counters_on_walks() {
        // The exact work the driver does for one in-process shard over a
        // seeded walk corpus, each query reaching a different tier: a
        // two-unit needle (the second tier), a three-unit free chain (the
        // third), a located query pinned at both ends of both units (the
        // pinned first tier) and a four-unit free chain (the third, through
        // two middles). A change to the driver that keeps these counts
        // makes the same bound, prune and score decisions.
        let tls: Vec<Trendline> = (0..300u64)
            .map(|i| Trendline::from_pairs(format!("walk{i}"), &walk(i + 1, 64)))
            .collect();
        let engine = ShapeEngine::from_trendlines(tls.clone());
        let needle = ShapeQuery::concat(vec![
            ShapeQuery::pattern(Pattern::Slope(45.0)),
            ShapeQuery::pattern(Pattern::Slope(-45.0)),
        ]);
        let chain = ShapeQuery::concat(vec![
            ShapeQuery::pattern(Pattern::Slope(45.0)),
            ShapeQuery::pattern(Pattern::Slope(-30.0)),
            ShapeQuery::pattern(Pattern::Slope(60.0)),
        ]);
        let located = ShapeQuery::concat(vec![
            pinned(Pattern::Slope(-30.0), 6.0, 30.0),
            pinned(Pattern::Flat, 30.0, 55.0),
        ]);
        let four = ShapeQuery::concat(vec![
            ShapeQuery::pattern(Pattern::Slope(45.0)),
            ShapeQuery::pattern(Pattern::Slope(-30.0)),
            ShapeQuery::pattern(Pattern::Slope(60.0)),
            ShapeQuery::pattern(Pattern::Slope(-45.0)),
        ]);
        // (bounded, pruned, scored, refined, joined) per query and segmenter.
        let golden = [
            (&needle, SegmenterKind::Dp, (300, 290, 10, 295, 5)),
            (&needle, SegmenterKind::SegmentTree, (300, 290, 10, 295, 5)),
            (&chain, SegmenterKind::Dp, (300, 274, 26, 295, 21)),
            (&chain, SegmenterKind::SegmentTree, (300, 268, 32, 295, 27)),
            (&located, SegmenterKind::Dp, (300, 295, 5, 0, 0)),
            (&located, SegmenterKind::SegmentTree, (300, 295, 5, 0, 0)),
            (&four, SegmenterKind::Dp, (300, 250, 50, 295, 45)),
            (&four, SegmenterKind::SegmentTree, (300, 237, 63, 295, 58)),
        ];
        for (q, kind, want) in golden {
            let opts = EngineOptions {
                segmenter: kind,
                ..EngineOptions::default()
            };
            let shared = SharedThresholds::new(1);
            engine
                .top_k_batch_observed(&[(q, 5)], &opts, &shared, &NOOP_OBSERVER)
                .pop()
                .unwrap()
                .unwrap();
            let snap = shared.snapshot();
            let got = (
                snap.bounded,
                snap.pruned,
                snap.scored,
                snap.refined,
                snap.joined,
            );
            assert_eq!(got, want, "{q} under {kind:?}");
        }

        // The same walks in 2 and 4 shards run one after another on one
        // `SharedThresholds`: every shard after the first meets, seeds
        // included, a threshold the shards before it proved.
        let (dp, tree) = (SegmenterKind::Dp, SegmenterKind::SegmentTree);
        let sharded = [
            (2, &needle, dp, (300, 287, 13, 278, 8)),
            (2, &needle, tree, (300, 287, 13, 278, 8)),
            (2, &chain, dp, (300, 260, 40, 295, 35)),
            (2, &chain, tree, (300, 257, 43, 295, 38)),
            (4, &needle, dp, (300, 284, 16, 273, 11)),
            (4, &needle, tree, (300, 284, 16, 273, 11)),
            (4, &chain, dp, (300, 248, 52, 295, 47)),
            (4, &chain, tree, (300, 243, 57, 295, 52)),
        ];
        for (shards, q, kind, want) in sharded {
            let engine = shard::ShardedEngine::from_trendlines(tls.clone(), shards);
            let opts = EngineOptions {
                segmenter: kind,
                ..EngineOptions::default()
            };
            let shared = SharedThresholds::new(1);
            engine
                .top_k_batch_observed(&[(q, 5)], &opts, &shared, &NOOP_OBSERVER)
                .pop()
                .unwrap()
                .unwrap();
            let snap = shared.snapshot();
            let got = (
                snap.bounded,
                snap.pruned,
                snap.scored,
                snap.refined,
                snap.joined,
            );
            assert_eq!(got, want, "{q} under {kind:?} in {shards} shards");
        }
    }

    /// Shard engines fed one `SharedThresholds`, run in `order` (a server's
    /// pool may finish them in any), their partials merged.
    fn sharded_top_k(
        shards: &[Arc<ShapeEngine>],
        order: &[usize],
        q: &ShapeQuery,
        k: usize,
        opts: &EngineOptions,
    ) -> Vec<TopKResult> {
        let shared = SharedThresholds::new(1);
        let partials = order
            .iter()
            .map(|&at| {
                shards[at]
                    .top_k_batch_observed(&[(q, k)], opts, &shared, &NOOP_OBSERVER)
                    .pop()
                    .unwrap()
                    .unwrap()
            })
            .collect();
        shard::merge_topk(partials, k)
    }

    #[test]
    fn a_tie_on_the_first_tier_bound_survives_a_later_shard() {
        // Five flat units on constant series: the first-tier bound is
        // 1.0 and the SegmentTree's re-associated total 1.0000000000000002.
        // When the high shard proves that total first, the low shard's
        // bound must not sit under it, or its equal scores — which win the
        // tie by index — are pruned and the merged answer is [2, 3].
        let constant: Vec<(f64, f64)> = (0..10).map(|t| (t as f64, 5.0)).collect();
        let tls: Vec<Trendline> = (0..4)
            .map(|i| Trendline::from_pairs(format!("c{i}"), &constant))
            .collect();
        let q = ShapeQuery::concat(vec![ShapeQuery::flat(); 5]);
        let opts = EngineOptions {
            segmenter: SegmenterKind::SegmentTree,
            ..EngineOptions::default()
        };
        let want = ShapeEngine::from_trendlines(tls.clone())
            .with_options(opts.clone())
            .top_k(&q, 2)
            .unwrap();
        let indexes =
            |results: &[TopKResult]| results.iter().map(|r| r.viz_index).collect::<Vec<_>>();
        assert_eq!(indexes(&want), [0, 1]);
        let shards = [
            Arc::new(ShapeEngine::from_trendlines(tls[..2].to_vec())),
            Arc::new(ShapeEngine::from_trendlines(tls[2..].to_vec()).with_base_index(2)),
        ];
        for order in [[0, 1], [1, 0]] {
            let got = sharded_top_k(&shards, &order, &q, 2, &opts);
            assert_eq!(got, want, "shards run in order {order:?}");
        }
    }

    #[test]
    fn located_queries_score_about_k_and_answer_alike_in_every_shape() {
        // ssbench's `located_miss` in small: two units pinned end to end
        // on random walks. Each unit has one window to go on, so the bound
        // is the score give or take rounding: the seeds are the top k, and
        // the sweep after them prunes everyone but ties at the k-th.
        let tls: Vec<Trendline> = (0..300u64)
            .map(|i| Trendline::from_pairs(format!("walk{i}"), &wander(i + 1, 64)))
            .collect();
        let q = ShapeQuery::concat(vec![
            pinned(Pattern::Down, 6.0, 30.0),
            pinned(Pattern::Up, 30.0, 55.0),
        ]);
        let k = 4;
        let kinds = [
            SegmenterKind::Dp,
            SegmenterKind::SegmentTree,
            SegmenterKind::Greedy,
        ];
        for kind in kinds {
            let opts = EngineOptions {
                segmenter: kind,
                ..EngineOptions::default()
            };
            let off = EngineOptions {
                pruning_mode: PruningMode::Off,
                ..opts.clone()
            };
            let whole = ShapeEngine::from_trendlines(tls.clone());
            let run = |opts: &EngineOptions, k: usize| {
                let shared = SharedThresholds::new(1);
                let got = whole
                    .top_k_batch_observed(&[(&q, k)], opts, &shared, &NOOP_OBSERVER)
                    .pop()
                    .unwrap()
                    .unwrap();
                (got, shared.snapshot())
            };
            let (want, _) = run(&off, k);
            let (everyone, _) = run(&off, tls.len());
            let kth = want[k - 1].score;
            let ties = everyone[k..].iter().filter(|r| r.score == kth).count();

            let (got, snap) = run(&opts, k);
            assert_eq!(got, want, "{kind:?}, one shard");
            assert_eq!(snap.bounded, 300, "{kind:?}");
            assert!(
                snap.scored as usize <= k + ties,
                "{kind:?}: {snap:?}, {ties} ties"
            );

            for shards in [1, 3, 4] {
                let sharded = shard::ShardedEngine::from_trendlines(tls.clone(), shards);
                let forward: Vec<usize> = (0..sharded.shard_count()).collect();
                let backward: Vec<usize> = forward.iter().rev().copied().collect();
                for opts in [&opts, &off] {
                    for order in [&forward, &backward] {
                        let got = sharded_top_k(sharded.shards(), order, &q, k, opts);
                        assert_eq!(
                            got, want,
                            "{kind:?}, {:?}, {shards} shards run in order {order:?}",
                            opts.pruning_mode
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zero_k_scores_nothing() {
        let engine = ShapeEngine::from_trendlines(haystack(60));
        let bad = ShapeQuery::pattern(Pattern::Udp("mystery".into()));
        for mode in [PruningMode::Auto, PruningMode::Off] {
            let opts = EngineOptions {
                pruning_mode: mode,
                ..EngineOptions::default()
            };
            let shared = SharedThresholds::new(2);
            let outcomes = engine.top_k_batch_observed(
                &[(&updown(), 0), (&bad, 0)],
                &opts,
                &shared,
                &NOOP_OBSERVER,
            );
            assert_eq!(outcomes[0].as_ref().unwrap(), &[]);
            assert!(matches!(outcomes[1], Err(CoreError::UnknownUdp(_))));
            let snap = shared.snapshot();
            assert_eq!((snap.bounded, snap.scored, snap.pruned), (0, 0, 0));
        }
    }

    /// GROUP builds no SegmentTree angle run. Only a scored candidate's
    /// whole-viz tree of k ≥ 2 units builds one, once, and the resident
    /// GROUP bytes never move.
    #[test]
    fn only_scored_whole_viz_trees_build_angle_runs() {
        const N: usize = 64;
        let tls: Vec<Trendline> = (0..200u64)
            .map(|i| Trendline::from_pairs(format!("wander{i}"), &wander(i + 1, N)))
            .collect();
        let engine = ShapeEngine::from_trendlines(tls);
        engine.warm(1);
        let grouped = engine.grouped_byte_size();
        assert_eq!(engine.angle_run_bytes(), 0);
        // Candidates the pass scored.
        let scored = |q: &ShapeQuery, kind: SegmenterKind| {
            let opts = EngineOptions {
                segmenter: kind,
                ..EngineOptions::default()
            };
            let shared = SharedThresholds::new(1);
            engine
                .top_k_batch_observed(&[(q, 5)], &opts, &shared, &NOOP_OBSERVER)
                .pop()
                .unwrap()
                .unwrap();
            usize::try_from(shared.snapshot().scored).unwrap()
        };
        let (tree, dp) = (SegmenterKind::SegmentTree, SegmenterKind::Dp);
        let located = ShapeQuery::concat(vec![
            pinned(Pattern::Slope(-30.0), 6.0, 30.0),
            pinned(Pattern::Flat, 30.0, 55.0),
        ]);
        let hybrid = ShapeQuery::concat(vec![
            pinned(Pattern::Up, 6.0, 30.0),
            ShapeQuery::down(),
            ShapeQuery::up(),
        ]);
        for (q, kind) in [
            (&located, tree),
            (&located, dp),
            (&hybrid, tree),
            (&updown(), dp),
            (&ShapeQuery::up(), tree),
        ] {
            assert!(scored(q, kind) > 0, "{q} under {kind:?}");
            assert_eq!(engine.angle_run_bytes(), 0, "{q} under {kind:?}");
        }
        let run = 8 * (2 * N - 3);
        let fuzzy = scored(&updown(), tree);
        assert!(fuzzy > 0);
        assert_eq!(engine.angle_run_bytes(), fuzzy * run);
        // The same candidates again: every run is there already.
        assert_eq!(scored(&updown(), tree), fuzzy);
        assert_eq!(engine.angle_run_bytes(), fuzzy * run);
        assert_eq!(engine.grouped_byte_size(), grouped);
    }

    /// `bin_width` arrives unchecked from outside: one engine asked for
    /// twelve widths in turn holds the warmed arena and one other, never
    /// twelve, and answers each like an engine that never saw the others.
    #[test]
    fn grouped_cache_keeps_the_warmed_width_and_one_other() {
        let q = updown();
        let answer = |engine: &ShapeEngine, bin_width: usize| {
            let options = EngineOptions {
                bin_width,
                ..EngineOptions::default()
            };
            engine
                .top_k_batch_observed(
                    &[(&q, 5)],
                    &options,
                    &SharedThresholds::new(1),
                    &observe::NOOP_OBSERVER,
                )
                .pop()
                .expect("one outcome per query")
                .expect("valid query")
        };
        let fresh: Vec<(ShapeEngine, Vec<TopKResult>)> = (1..=12)
            .map(|bin_width| {
                let engine = ShapeEngine::from_trendlines(haystack(40));
                let want = answer(&engine, bin_width);
                (engine, want)
            })
            .collect();
        let largest_other = fresh[1..]
            .iter()
            .map(|(engine, _)| engine.grouped_byte_size())
            .max()
            .expect("eleven other widths");
        assert!(largest_other > 0);

        let engine = ShapeEngine::from_trendlines(haystack(40));
        engine.warm(1);
        let warmed = engine.grouped(1);
        let warmed_bytes = engine.grouped_byte_size();
        assert_eq!(warmed_bytes, fresh[0].0.grouped_byte_size());
        for (bin_width, (_, want)) in (1..=12).zip(&fresh) {
            assert_eq!(&answer(&engine, bin_width), want, "bin_width={bin_width}");
            assert!(
                engine.grouped_byte_size() <= warmed_bytes + largest_other,
                "bin_width={bin_width}: {} bytes cached",
                engine.grouped_byte_size()
            );
        }
        assert!(Arc::ptr_eq(&warmed, &engine.grouped(1)));
    }

    /// GROUP runs outside the cache lock: threads asking one shared
    /// engine for four widths at once all get a fresh engine's answer,
    /// and the cache ends as it must — the warmed run untouched, at most
    /// one other beside it.
    #[test]
    fn concurrent_widths_share_one_engine_without_disturbing_the_warmed_run() {
        let q = updown();
        let answer = |engine: &ShapeEngine, bin_width: usize| {
            let options = EngineOptions {
                bin_width,
                ..EngineOptions::default()
            };
            engine
                .top_k_batch_observed(
                    &[(&q, 5)],
                    &options,
                    &SharedThresholds::new(1),
                    &NOOP_OBSERVER,
                )
                .pop()
                .expect("one outcome per query")
                .expect("valid query")
        };
        let widths = [1usize, 2, 3, 5];
        let want: Vec<Vec<TopKResult>> = widths
            .iter()
            .map(|&w| answer(&ShapeEngine::from_trendlines(haystack(40)), w))
            .collect();

        let engine = Arc::new(ShapeEngine::from_trendlines(haystack(40)));
        engine.warm(1);
        let warmed = engine.grouped(1);
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let (engine, start, want, answer) = (&engine, &start, &want, &answer);
                scope.spawn(move || {
                    start.wait();
                    for round in 0..widths.len() {
                        let i = (t + round) % widths.len();
                        assert_eq!(
                            answer(engine, widths[i]),
                            want[i],
                            "bin_width={}",
                            widths[i]
                        );
                    }
                });
            }
        });
        assert!(engine.cache().len() <= 2);
        assert!(Arc::ptr_eq(&warmed, &engine.grouped(1)));
    }

    #[test]
    fn unknown_udp_is_an_error() {
        let engine = ShapeEngine::from_trendlines(collection());
        let q = ShapeQuery::pattern(Pattern::Udp("mystery".into()));
        assert!(matches!(engine.top_k(&q, 1), Err(CoreError::UnknownUdp(_))));
    }

    #[test]
    fn registered_udp_runs() {
        let mut engine = ShapeEngine::from_trendlines(collection());
        // "ends higher than it starts".
        engine.register_udp(
            "net_gain",
            Arc::new(|ys: &[f64]| if ys.last() > ys.first() { 1.0 } else { -1.0 }),
        );
        let q = ShapeQuery::pattern(Pattern::Udp("net_gain".into()));
        let results = engine.top_k(&q, 4).unwrap();
        assert!(!results.is_empty());
    }

    #[test]
    fn from_table_via_extract() {
        use shapesearch_datastore::table_from_series;
        let table = table_from_series(
            "stock",
            "week",
            "price",
            &[
                (
                    "rises".into(),
                    (0..8).map(|i| (i as f64, i as f64)).collect(),
                ),
                (
                    "falls".into(),
                    (0..8).map(|i| (i as f64, -(i as f64))).collect(),
                ),
            ],
        );
        let spec = VisualSpec::new("stock", "week", "price");
        let engine = ShapeEngine::new(&table, &spec).unwrap();
        let results = engine.top_k(&ShapeQuery::up(), 1).unwrap();
        assert_eq!(results[0].key, "rises");
    }
}
