//! Sharded execution: one trendline collection partitioned into N
//! independent engine shards, recombined with a deterministic merge.
//!
//! The paper's §5 executor scores every candidate visualization
//! independently before the top-k selection, which makes the collection
//! embarrassingly partitionable: a [`ShardedEngine`] splits the
//! trendlines at build time into size-balanced contiguous shards (each a
//! plain [`ShapeEngine`] carrying its partition offset so reported
//! `viz_index`es stay collection-global); each shard's
//! GROUP→SEGMENT→SCORE pass is independent, and the per-shard top-k
//! partials merge under the engine's deterministic order (score
//! descending, then the lower global index — the same contract the
//! unsharded heap uses), so results are **byte-identical to an unsharded
//! run for every shard count**, including tie ordering and fitted
//! `ranges`.
//!
//! A [`ShardedEngine`] is a partition map, not a second engine: it holds
//! no options and schedules nothing. Shards are held behind `Arc` so an
//! embedder can hand individual shard tasks to its own worker pool and
//! merge with [`merge_topk`]. The server does not hold one: its catalog
//! cuts the slices it serves straight from [`partition_bounds_by_points`]
//! (a shard server keeps one, a router none of the remote ones), and its
//! compute pool is the workspace's one shard-level fan-out and its only
//! parallelism. The query methods here visit the shards in partition
//! order on the caller's thread, and each shard scores its candidates on
//! that same thread: the engine spawns none.

use super::{EngineOptions, ShapeEngine, SharedThresholds, TopKResult};
use crate::error::Result;
use crate::eval::UdpFn;
use crate::ShapeQuery;
use shapesearch_datastore::{extract, ExtractOptions, Table, Trendline, VisualSpec};
use std::sync::Arc;

/// A trendline collection partitioned into N independently queryable
/// engine shards with a deterministic top-k merge.
#[derive(Debug)]
pub struct ShardedEngine {
    shards: Vec<Arc<ShapeEngine>>,
    trendline_count: usize,
    point_count: usize,
}

impl ShardedEngine {
    /// Builds a sharded engine by running EXTRACT over a table, then
    /// partitioning the trendlines into (at most) `shard_count` shards.
    ///
    /// # Errors
    /// Propagates extraction errors (unknown columns, non-numeric axes).
    pub fn new(table: &Table, spec: &VisualSpec, shard_count: usize) -> Result<Self> {
        let trendlines = extract(table, spec, &ExtractOptions::default())?;
        Ok(Self::from_trendlines(trendlines, shard_count))
    }

    /// Partitions `trendlines` into (at most) `shard_count` contiguous,
    /// size-balanced shards. Balancing is by **point count**, not
    /// trendline count — points drive segmentation cost — while keeping
    /// partitions contiguous so each shard's global indices are its base
    /// offset plus the local index. The effective shard count is clamped
    /// to `[1, trendline_count]` (never an empty shard).
    pub fn from_trendlines(trendlines: Vec<Trendline>, shard_count: usize) -> Self {
        let trendline_count = trendlines.len();
        let point_count: usize = trendlines.iter().map(|t| t.points.len()).sum();
        let bounds = partition_bounds(&trendlines, shard_count);

        let mut shards = Vec::with_capacity(bounds.len());
        let mut rest = trendlines;
        // Split back-to-front so each boundary is a cheap `split_off`.
        for &(start, _) in bounds.iter().rev() {
            let part = rest.split_off(start);
            shards.push(Arc::new(
                ShapeEngine::from_trendlines(part).with_base_index(start),
            ));
        }
        shards.reverse();
        Self {
            shards,
            trendline_count,
            point_count,
        }
    }

    /// Number of shards the collection is partitioned into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard engines, in partition order. Each shard reports
    /// collection-global `viz_index`es; partial results from individual
    /// shards recombine with [`merge_topk`]. Shard handles are `Arc`s so
    /// an embedder can move per-shard work onto long-lived worker
    /// threads.
    pub fn shards(&self) -> &[Arc<ShapeEngine>] {
        &self.shards
    }

    /// Pre-builds every shard's columnar GROUP arena for the default bin
    /// width, so the first query pays only SEGMENT+SCORE.
    /// Registration-time warming: the arenas are `Arc`-cached inside
    /// each [`ShapeEngine`] and shared by all subsequent queries.
    pub fn warm(&self) {
        let bin_width = EngineOptions::default().bin_width;
        for shard in &self.shards {
            shard.warm(bin_width);
        }
    }

    /// Total trendlines across all shards.
    pub fn trendline_count(&self) -> usize {
        self.trendline_count
    }

    /// Total raw points across all shards.
    pub fn point_count(&self) -> usize {
        self.point_count
    }

    /// Registers a user-defined pattern on every shard.
    ///
    /// # Panics
    /// UDPs must be registered during construction, before any shard
    /// handle from [`Self::shards`] has been cloned out.
    pub fn register_udp(&mut self, name: impl Into<String>, f: UdpFn) {
        let name = name.into();
        for shard in &mut self.shards {
            Arc::get_mut(shard)
                .expect("register UDPs before sharing shard handles")
                .register_udp(name.clone(), Arc::clone(&f));
        }
    }

    /// Registers all built-in mathematical patterns on every shard (see
    /// [`ShapeEngine::register_builtin_udps`]).
    ///
    /// # Panics
    /// Like [`Self::register_udp`], only valid before shard handles have
    /// been shared.
    pub fn register_builtin_udps(&mut self) {
        for shard in &mut self.shards {
            Arc::get_mut(shard)
                .expect("register UDPs before sharing shard handles")
                .register_builtin_udps();
        }
    }

    /// Executes a ShapeQuery across all shards under
    /// [`EngineOptions::default`], returning the merged top `k`.
    /// Identical to an unsharded [`ShapeEngine::top_k`] over the same
    /// collection, for every shard count.
    ///
    /// # Errors
    /// Fails when the query references unregistered UDPs or is
    /// structurally empty.
    pub fn top_k(&self, query: &ShapeQuery, k: usize) -> Result<Vec<TopKResult>> {
        self.top_k_with_options(query, k, &EngineOptions::default())
    }

    /// [`Self::top_k`] under explicit options. Kept only because the
    /// frozen benchmark package (`ssbench`) calls it by this name; new
    /// code passes a batch of one to [`Self::top_k_batch_observed`].
    ///
    /// # Errors
    /// Fails when the query references unregistered UDPs or is
    /// structurally empty.
    pub fn top_k_with_options(
        &self,
        query: &ShapeQuery,
        k: usize,
        options: &EngineOptions,
    ) -> Result<Vec<TopKResult>> {
        self.top_k_batch_observed(
            &[(query, k)],
            options,
            &SharedThresholds::new(1),
            &super::observe::NOOP_OBSERVER,
        )
        .pop()
        .expect("one outcome per batched query")
    }

    /// Runs [`ShapeEngine::top_k_batch_observed`] on every shard in
    /// partition order, on the caller's thread, with the caller's
    /// `options`, `shared` state and `observer` passed through untouched,
    /// then merges each query's per-shard partials deterministically —
    /// bit-identical to the unsharded engine, per query. Every shard
    /// consumes and tightens the same per-query [`super::ThresholdCell`]s
    /// and feeds the same observer, so a later shard is pruned by what
    /// the earlier ones proved and samples aggregate like the pruning
    /// counters do. Public under this name only because the frozen
    /// benchmark package (`ssbench`) calls it; the server fans shards out
    /// on its own pool instead.
    ///
    /// # Panics
    /// When `shared` was not built for exactly `items.len()` queries.
    pub fn top_k_batch_observed(
        &self,
        items: &[(&ShapeQuery, usize)],
        options: &EngineOptions,
        shared: &SharedThresholds,
        observer: &dyn super::observe::StageObserver,
    ) -> Vec<Result<Vec<TopKResult>>> {
        let partials = self
            .shards
            .iter()
            .map(|shard| shard.top_k_batch_observed(items, options, shared, observer))
            .collect();
        merge_shard_outcomes(partials, items.iter().map(|&(_, k)| k))
    }
}

/// Contiguous `(start, end)` trendline ranges for (at most) `shard_count`
/// size-balanced shards. Balancing minimizes the spread of per-shard
/// point totals by cutting at the cumulative-points quantiles.
fn partition_bounds(trendlines: &[Trendline], shard_count: usize) -> Vec<(usize, usize)> {
    let counts: Vec<usize> = trendlines.iter().map(|t| t.points.len()).collect();
    partition_bounds_by_points(&counts, shard_count)
}

/// [`partition_bounds`](ShardedEngine) over bare per-trendline **raw**
/// point counts: contiguous `(start, end)` trendline ranges for (at
/// most) `shard_count` size-balanced shards, cutting at the
/// cumulative-points quantiles with every shard kept non-empty. This is
/// the single deterministic partitioning rule every sharding path uses —
/// in-process shards, `--shard-of` shard servers, and the snapshot
/// loader (which stores raw point counts precisely so it can reproduce
/// these bounds without materializing trendlines).
pub fn partition_bounds_by_points(
    point_counts: &[usize],
    shard_count: usize,
) -> Vec<(usize, usize)> {
    let n = point_counts.len();
    let shards = shard_count.clamp(1, n.max(1));
    if n == 0 || shards == 1 {
        return vec![(0, n)];
    }
    let total: usize = point_counts.iter().sum();
    let mut bounds = Vec::with_capacity(shards);
    let mut start = 0usize;
    let mut seen = 0usize;
    let mut cut = 1usize; // which quantile boundary is being sought
    for (i, &points) in point_counts.iter().enumerate() {
        seen += points;
        if cut == shards {
            break;
        }
        // Close the current shard once it reaches its points quantile —
        // but only while enough trendlines remain for every later shard
        // to stay non-empty, and immediately once exactly that many are
        // left.
        let remaining = n - (i + 1);
        let quota_met = seen * shards >= total * cut;
        let must_cut = remaining == shards - cut;
        if remaining >= shards - cut && (quota_met || must_cut) {
            bounds.push((start, i + 1));
            start = i + 1;
            cut += 1;
        }
    }
    bounds.push((start, n));
    bounds
}

/// Merges per-shard top-k partials for one query into the final top `k`,
/// under the engine's deterministic order: score descending, ties to the
/// lower global `viz_index`. Each partial must itself be sorted engine
/// output (which [`ShapeEngine::top_k_batch_observed`] guarantees);
/// the merge then equals the unsharded top-k exactly, because any
/// collection-global top-k member is necessarily inside its own shard's
/// top-k.
pub fn merge_topk(partials: Vec<Vec<TopKResult>>, k: usize) -> Vec<TopKResult> {
    let mut all: Vec<TopKResult> = partials.into_iter().flatten().collect();
    all.sort_by(|a, b| super::topk::rank(a.score, a.viz_index, b.score, b.viz_index));
    all.truncate(k);
    all
}

/// [`merge_topk`] over borrowed partials: the same ordering contract,
/// cloning only the k winners — for embedders that must keep the
/// per-shard partials around after the merge (e.g. the server's fan-out,
/// whose degraded fallback merges the answering shards again).
pub fn merge_topk_refs<'a>(
    partials: impl IntoIterator<Item = &'a [TopKResult]>,
    k: usize,
) -> Vec<TopKResult> {
    let mut all: Vec<&TopKResult> = partials.into_iter().flatten().collect();
    all.sort_by(|a, b| super::topk::rank(a.score, a.viz_index, b.score, b.viz_index));
    all.truncate(k);
    all.into_iter().cloned().collect()
}

/// Recombines per-shard batch outcomes (one
/// [`ShapeEngine::top_k_batch_observed`] result per shard, over the same
/// items) into per-query outcomes, merging each query's partials with
/// [`merge_topk`] under its `k`. A query's validation error is
/// shard-independent (every shard holds the same UDP registry and sees
/// the same AST), so the first shard's error stands for all shards.
fn merge_shard_outcomes(
    partials: Vec<Vec<Result<Vec<TopKResult>>>>,
    ks: impl Iterator<Item = usize>,
) -> Vec<Result<Vec<TopKResult>>> {
    let mut per_shard: Vec<_> = partials.into_iter().map(Vec::into_iter).collect();
    ks.map(|k| {
        let mut parts = Vec::with_capacity(per_shard.len());
        let mut first_err = None;
        for shard in per_shard.iter_mut() {
            match shard.next().expect("one outcome per query per shard") {
                Ok(results) => parts.push(results),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(merge_topk(parts, k)),
        }
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::observe::{EngineStage, StageObserver, NOOP_OBSERVER};
    use crate::{CoreError, Pattern, SegmenterKind, ShapeSegment};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A deterministic pseudo-random collection with mixed shapes and
    /// lengths (so point-balanced shards are *not* count-balanced) and
    /// several exactly-duplicated trendlines (so the top-k contains real
    /// score ties straddling shard boundaries).
    fn collection(n: usize) -> Vec<Trendline> {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / ((1u64 << 31) as f64) - 1.0 // [-1, 1)
        };
        (0..n)
            .map(|i| {
                if i % 5 == 3 {
                    // Exact duplicates of one peak shape: tied scores.
                    let pairs: Vec<(f64, f64)> = (0..20)
                        .map(|t| {
                            let t = t as f64;
                            (t, if t < 10.0 { t } else { 20.0 - t })
                        })
                        .collect();
                    return Trendline::from_pairs(format!("dup{i}"), &pairs);
                }
                let len = 12 + (i * 7) % 40;
                let mut y = 0.0;
                let pairs: Vec<(f64, f64)> = (0..len)
                    .map(|t| {
                        y += next() + ((i % 3) as f64 - 1.0) * 0.2;
                        (t as f64, y)
                    })
                    .collect();
                Trendline::from_pairs(format!("walk{i}"), &pairs)
            })
            .collect()
    }

    fn updown() -> ShapeQuery {
        ShapeQuery::concat(vec![ShapeQuery::up(), ShapeQuery::down()])
    }

    #[test]
    fn partition_is_contiguous_nonempty_and_offset_stable() {
        let tls = collection(23);
        for shards in [1, 2, 4, 7, 23, 100] {
            let engine = ShardedEngine::from_trendlines(tls.clone(), shards);
            assert_eq!(engine.shard_count(), shards.min(23));
            assert_eq!(engine.trendline_count(), 23);
            let mut expected_base = 0;
            for shard in engine.shards() {
                assert_eq!(shard.base_index(), expected_base);
                assert!(!shard.is_empty());
                // Global order preserved.
                for i in 0..shard.len() {
                    assert_eq!(shard.key(i), tls[expected_base + i].key);
                }
                expected_base += shard.len();
            }
            assert_eq!(expected_base, 23);
        }
    }

    #[test]
    fn partition_balances_points_not_counts() {
        // 1 long trendline + 15 short ones: a count split would give
        // shard 0 eight trendlines; a points split isolates the giant.
        let mut tls = vec![Trendline::from_pairs(
            "giant",
            &(0..1000).map(|t| (t as f64, t as f64)).collect::<Vec<_>>(),
        )];
        for i in 0..15 {
            tls.push(Trendline::from_pairs(
                format!("small{i}"),
                &[(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)],
            ));
        }
        let engine = ShardedEngine::from_trendlines(tls, 2);
        assert_eq!(engine.shard_count(), 2);
        assert_eq!(engine.shards()[0].len(), 1);
        assert_eq!(engine.shards()[1].len(), 15);
    }

    #[test]
    fn empty_collection_gets_one_empty_shard() {
        let engine = ShardedEngine::from_trendlines(Vec::new(), 4);
        assert_eq!(engine.shard_count(), 1);
        assert!(engine.top_k(&updown(), 3).unwrap().is_empty());
    }

    #[test]
    fn sharded_top_k_identical_to_unsharded_for_every_segmenter() {
        let tls = collection(23);
        let queries = [
            updown(),
            ShapeQuery::down(),
            ShapeQuery::concat(vec![
                ShapeQuery::Segment(ShapeSegment::pinned(Pattern::Up, 2.0, 8.0)),
                ShapeQuery::down(),
            ]),
        ];
        for kind in [
            SegmenterKind::Dp,
            SegmenterKind::SegmentTree,
            SegmenterKind::Greedy,
            SegmenterKind::Dtw,
            SegmenterKind::Euclidean,
        ] {
            let reference = ShapeEngine::from_trendlines(tls.clone()).with_segmenter(kind);
            for shards in [1usize, 2, 7, 23] {
                let sharded = ShardedEngine::from_trendlines(tls.clone(), shards);
                for q in &queries {
                    for k in [1usize, 5, 23] {
                        let want = reference.top_k(q, k).unwrap();
                        let got = sharded
                            .top_k_with_options(q, k, reference.options())
                            .unwrap();
                        assert_eq!(got, want, "{kind:?} shards={shards} k={k} diverged on {q}");
                    }
                }
            }
        }
    }

    #[test]
    fn tie_order_is_global_index_order_across_shard_boundaries() {
        // Duplicated trendlines land in different shards but must come
        // back in ascending global index order.
        let tls = collection(20);
        let sharded = ShardedEngine::from_trendlines(tls.clone(), 7);
        let results = sharded.top_k(&updown(), 20).unwrap();
        let dup_indices: Vec<usize> = results
            .iter()
            .filter(|r| r.key.starts_with("dup"))
            .map(|r| r.viz_index)
            .collect();
        assert!(dup_indices.len() >= 3, "expected several tied duplicates");
        assert!(
            dup_indices.windows(2).all(|w| w[0] < w[1]),
            "tied duplicates out of global order: {dup_indices:?}"
        );
        // And identical to the unsharded ordering.
        let reference = ShapeEngine::from_trendlines(tls)
            .top_k(&updown(), 20)
            .unwrap();
        assert_eq!(results, reference);
    }

    #[test]
    fn sharded_batch_matches_unsharded_batch_and_isolates_errors() {
        let tls = collection(19);
        let good = updown();
        let bad = ShapeQuery::pattern(Pattern::Udp("mystery".into()));
        let items: Vec<(&ShapeQuery, usize)> = vec![(&good, 4), (&bad, 2), (&good, 19)];
        let options = EngineOptions::default();
        let want = ShapeEngine::from_trendlines(tls.clone()).top_k_batch_observed(
            &items,
            &options,
            &SharedThresholds::new(items.len()),
            &NOOP_OBSERVER,
        );
        for shards in [2usize, 7, 19] {
            let sharded = ShardedEngine::from_trendlines(tls.clone(), shards);
            let got = sharded.top_k_batch_observed(
                &items,
                &options,
                &SharedThresholds::new(items.len()),
                &NOOP_OBSERVER,
            );
            assert_eq!(got.len(), want.len());
            assert_eq!(got[0].as_ref().unwrap(), want[0].as_ref().unwrap());
            assert!(matches!(got[1], Err(CoreError::UnknownUdp(_))));
            assert_eq!(got[2].as_ref().unwrap(), want[2].as_ref().unwrap());
        }
    }

    #[test]
    fn udps_register_on_every_shard() {
        let mut sharded = ShardedEngine::from_trendlines(collection(12), 3);
        sharded.register_builtin_udps();
        sharded.register_udp(
            "net_gain",
            Arc::new(|ys: &[f64]| if ys.last() > ys.first() { 1.0 } else { -1.0 }),
        );
        let q = ShapeQuery::pattern(Pattern::Udp("net_gain".into()));
        assert!(!sharded.top_k(&q, 4).unwrap().is_empty());
        let q = ShapeQuery::pattern(Pattern::Udp("spike".into()));
        assert!(sharded.top_k(&q, 4).is_ok());
    }

    /// What a `shard_of: (index, total)` registration builds (the server
    /// catalog's spelling): slice `index` of the `total`-way split, as an
    /// engine of its own that keeps the slice's global offset.
    fn shard_of(tls: &[Trendline], total: usize, index: usize) -> ShapeEngine {
        let counts: Vec<usize> = tls.iter().map(|t| t.points.len()).collect();
        let (start, end) = partition_bounds_by_points(&counts, total)[index];
        ShapeEngine::from_trendlines(tls[start..end].to_vec()).with_base_index(start)
    }

    #[test]
    fn shard_of_owns_exactly_the_full_partition_slice() {
        let tls = collection(23);
        for shards in [1usize, 2, 4, 7] {
            let full = ShardedEngine::from_trendlines(tls.clone(), shards);
            for index in 0..full.shard_count() {
                let got = shard_of(&tls, shards, index);
                let want = &full.shards()[index];
                assert_eq!(got.base_index(), want.base_index());
                let keys = |e: &ShapeEngine| -> Vec<String> {
                    (0..e.len()).map(|i| e.key(i).to_owned()).collect()
                };
                assert_eq!(keys(&got), keys(want), "shards={shards} index={index}");
            }
        }
    }

    #[test]
    fn shard_of_partials_merge_to_the_unsharded_answer() {
        // The distributed invariant, in-process: per-partition engines
        // built independently, each from its own slice of the partition
        // rule, produce partials whose merge is byte-identical to the
        // unsharded top-k.
        let tls = collection(23);
        let reference = ShapeEngine::from_trendlines(tls.clone());
        let want = reference.top_k(&updown(), 10).unwrap();
        for shards in [2usize, 4, 7] {
            let partials: Vec<Vec<TopKResult>> = (0..shards)
                .map(|i| shard_of(&tls, shards, i).top_k(&updown(), 10).unwrap())
                .collect();
            assert_eq!(merge_topk(partials, 10), want, "shards={shards}");
        }
    }

    #[test]
    fn merge_topk_is_deterministic_on_ties() {
        let r = |viz: usize, score: f64| TopKResult {
            key: format!("k{viz}"),
            score,
            viz_index: viz,
            ranges: vec![(0, 1)],
        };
        let merged = merge_topk(
            vec![
                vec![r(4, 0.5), r(6, 0.5)],
                vec![r(1, 0.5), r(2, 0.3)],
                vec![r(0, 0.9)],
            ],
            4,
        );
        let order: Vec<usize> = merged.iter().map(|m| m.viz_index).collect();
        assert_eq!(order, vec![0, 1, 4, 6]);
    }

    /// A large collection split into 4 shards answers exactly like one
    /// shard. (The wall-clock side of fan-out lives in `ssbench`'s
    /// `engine.fanout_speedup`, where noise is controlled — tier-1
    /// carries no timing assertions.)
    #[test]
    fn multi_shard_parallel_matches_single_shard_on_a_large_collection() {
        let tls: Vec<Trendline> = (0..48)
            .map(|i| {
                let pairs: Vec<(f64, f64)> = (0..400)
                    .map(|t| {
                        let t = t as f64;
                        (t, (t * (0.01 + i as f64 * 0.001)).sin() * 3.0 + t * 0.002)
                    })
                    .collect();
                Trendline::from_pairs(format!("s{i}"), &pairs)
            })
            .collect();
        let opts = EngineOptions {
            segmenter: SegmenterKind::Dp,
            bin_width: 4,
            ..EngineOptions::default()
        };
        let single = ShardedEngine::from_trendlines(tls.clone(), 1);
        let sharded = ShardedEngine::from_trendlines(tls, 4);
        let q = updown();

        let want = single.top_k_with_options(&q, 8, &opts).unwrap();
        assert_eq!(sharded.top_k_with_options(&q, 8, &opts).unwrap(), want);
    }

    /// `k` arrives unchecked from outside the program: a `k` far beyond
    /// the collection (or `usize::MAX`, where `k + 1` overflows) returns
    /// every admissible candidate in rank order instead of sizing an
    /// allocation from it.
    #[test]
    fn huge_k_returns_every_admissible_candidate_in_rank_order() {
        let tls = collection(23);
        let q = updown();
        let want = ShapeEngine::from_trendlines(tls.clone())
            .top_k(&q, tls.len())
            .unwrap();
        assert!(!want.is_empty());
        for k in [10usize.pow(15), usize::MAX] {
            let engine = ShapeEngine::from_trendlines(tls.clone());
            assert_eq!(engine.top_k(&q, k).unwrap(), want, "k={k}");
            for shards in [1usize, 3] {
                let sharded = ShardedEngine::from_trendlines(tls.clone(), shards);
                assert_eq!(sharded.top_k(&q, k).unwrap(), want, "shards={shards} k={k}");
            }
        }
    }

    /// The observer and counter contract the server's
    /// `shard_compute ≈ group + Σ segment_score` accounting rests on.
    /// Counts only — no durations.
    #[test]
    fn observer_and_counters_account_for_every_shard_and_query() {
        #[derive(Default)]
        struct Count([AtomicU64; 3]);
        impl StageObserver for Count {
            fn stage(&self, stage: EngineStage, _micros: u64) {
                self.0[stage as usize].fetch_add(1, Ordering::Relaxed);
            }
        }
        let tls = collection(40);
        let (peak, fall) = (updown(), ShapeQuery::down());
        let bad = ShapeQuery::pattern(Pattern::Udp("mystery".into()));
        let items: Vec<(&ShapeQuery, usize)> = vec![(&peak, 1), (&bad, 2), (&fall, 3)];
        let valid = 2;
        for shards in [1usize, 3] {
            let sharded = ShardedEngine::from_trendlines(tls.clone(), shards);
            let shared = SharedThresholds::new(items.len());
            let seen = Count::default();
            let outcomes =
                sharded.top_k_batch_observed(&items, &EngineOptions::default(), &shared, &seen);
            assert!(outcomes[0].is_ok() && outcomes[1].is_err() && outcomes[2].is_ok());
            let samples = |stage: EngineStage| seen.0[stage as usize].load(Ordering::Relaxed);
            let snap = shared.snapshot();
            assert_eq!(samples(EngineStage::Group), shards as u64);
            assert_eq!(samples(EngineStage::SegmentScore), (shards * valid) as u64);
            // One bound pass per shard and valid query, over every
            // trendline of the shard (nothing is pinned, GROUP rejects
            // none); each bounded candidate is then pruned or scored.
            // Only `peak` has ends to anchor. Per shard it reports bound
            // time at most three times more: its seeds' walk if that took
            // a second-tier bound, its sweep's refine pass if a threshold
            // was live by then, and the walk after it if that took a
            // third-tier one. Nobody reports who bounded no one again.
            let tier_samples = samples(EngineStage::PruneBound) - (shards * valid) as u64;
            assert!(tier_samples <= 3 * shards as u64, "{tier_samples}");
            assert_eq!(tier_samples > 0, snap.refined > 0, "{snap:?}");
            assert!(
                snap.joined <= snap.refined && snap.refined <= snap.bounded,
                "{snap:?}"
            );
            assert_eq!(snap.bounded, (valid * tls.len()) as u64);
            assert!(snap.pruned > 0, "{snap:?}");
            assert_eq!(snap.scored + snap.pruned, snap.bounded);
        }
    }
}
