//! Property tests for the columnar GROUP arenas and batched scoring
//! kernels: every batched path must reproduce the retained scalar
//! reference **bit for bit** — across random trendlines, constant and
//! two-point series, NaN poisoning, all six segmenters, and sharded
//! execution with pruning on and off. Byte-identity is the tentpole's
//! contract: the columnar engine is a pure layout/throughput change.

use proptest::prelude::*;
use shapesearch_core::{
    group_collection, slope_leaf, EngineOptions, Evaluator, NoopObserver, PruningMode, ScoreParams,
    SegmenterKind, ShapeQuery, ShardedEngine, SharedThresholds, StatsIndex, UdpRegistry, VizData,
};
use shapesearch_datastore::Trendline;

/// Strategy: one series of (x, y) pairs, covering the shapes that break
/// naive kernels — random walks, constant series (zero y-span), minimal
/// two-point series, and a NaN dropped mid-walk.
fn series_strategy() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop_oneof![
        // Random walk on an integer grid.
        proptest::collection::vec(-1e3f64..1e3, 2..24)
            .prop_map(|ys| { ys.iter().enumerate().map(|(i, &y)| (i as f64, y)).collect() }),
        // Constant: zero y-span stresses normalization and flat slopes.
        (2usize..16, -5f64..5.0).prop_map(|(n, c)| (0..n).map(|i| (i as f64, c)).collect()),
        // Two points: the smallest viz GROUP accepts.
        (-5f64..5.0, -5f64..5.0).prop_map(|(a, b)| vec![(0.0, a), (1.0, b)]),
        // NaN poisoning: both paths must propagate the same bits.
        (proptest::collection::vec(-1e2f64..1e2, 3..16), 0usize..16).prop_map(|(ys, pos)| {
            let mut pts: Vec<(f64, f64)> =
                ys.iter().enumerate().map(|(i, &y)| (i as f64, y)).collect();
            let p = pos % pts.len();
            pts[p].1 = f64::NAN;
            pts
        }),
    ]
}

fn collection_strategy() -> impl Strategy<Value = Vec<Trendline>> {
    proptest::collection::vec(series_strategy(), 1..10).prop_map(|all| {
        all.into_iter()
            .enumerate()
            .map(|(i, pairs)| Trendline::from_pairs(format!("t{i}"), &pairs))
            .collect()
    })
}

/// Strategy: 2–9 series of one length, each on one of two x rows —
/// evenly spaced or squares — so the GROUP arena holds two shared x
/// runs, plus a NaN dropped into some series' y.
fn two_row_collection_strategy() -> impl Strategy<Value = Vec<Trendline>> {
    (2usize..20).prop_flat_map(|n| {
        let series = (
            0u8..2,
            proptest::collection::vec(-1e3f64..1e3, n),
            0usize..2 * n,
        );
        proptest::collection::vec(series, 2..10).prop_map(|all| {
            all.into_iter()
                .enumerate()
                .map(|(i, (row, mut ys, nan_at))| {
                    if let Some(y) = ys.get_mut(nan_at) {
                        *y = f64::NAN;
                    }
                    let x = |t: usize| if row == 1 { t * t } else { t } as f64;
                    let pairs: Vec<(f64, f64)> =
                        ys.iter().enumerate().map(|(t, &y)| (x(t), y)).collect();
                    Trendline::from_pairs(format!("t{i}"), &pairs)
                })
                .collect()
        })
    })
}

/// The slope-leaf query shapes the batched kernels fast-path.
fn leaf_queries() -> Vec<ShapeQuery> {
    vec![
        ShapeQuery::up(),
        ShapeQuery::down(),
        ShapeQuery::flat(),
        ShapeQuery::pattern(shapesearch_core::Pattern::Any),
        ShapeQuery::pattern(shapesearch_core::Pattern::Slope(30.0)),
        ShapeQuery::pattern(shapesearch_core::Pattern::Slope(-60.0)),
    ]
}

/// Composite queries exercising every segmenter through the engine.
fn engine_queries() -> Vec<ShapeQuery> {
    vec![
        ShapeQuery::concat(vec![ShapeQuery::up(), ShapeQuery::down()]),
        ShapeQuery::up(),
        ShapeQuery::Or(vec![ShapeQuery::flat(), ShapeQuery::down()]),
        ShapeQuery::concat(vec![
            ShapeQuery::down(),
            ShapeQuery::up(),
            ShapeQuery::flat(),
        ]),
    ]
}

/// NaN-safe canonical rendering: scores compared by bit pattern.
fn render(results: &[shapesearch_core::TopKResult]) -> String {
    results
        .iter()
        .map(|r| {
            format!(
                "{}:{}:{}:{:?}",
                r.key,
                r.viz_index,
                r.score.to_bits(),
                r.ranges
            )
        })
        .collect::<Vec<_>>()
        .join(";")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The arena's range stats, pairwise slopes, interval-slope kernel,
    /// and both anchored window kernels (fixed start, fixed end) all equal
    /// the scalar [`StatsIndex`] reference bit for bit on the normalized
    /// canvas.
    #[test]
    fn kernels_match_scalar_reference_bit_for_bit(pairs in series_strategy()) {
        let t = Trendline::from_pairs("t", &pairs);
        let Some(v) = VizData::from_trendline(&t, 0, 1) else {
            return Ok(()); // GROUP rejected (fewer than two canvas points)
        };
        let idx = StatsIndex::new(v.xs(), v.ys());
        let n = v.n();
        prop_assert_eq!(idx.len(), n);

        for i in 0..n {
            for j in i..n {
                let got = v.slope(i, j);
                let want = idx.slope(i, j);
                prop_assert_eq!(
                    got.to_bits(), want.to_bits(),
                    "slope [{}, {}]: {} vs {}", i, j, got, want
                );
            }
        }

        let mut out = Vec::new();
        v.arena().interval_slopes(v.slot(), &mut out);
        prop_assert_eq!(out.len(), n - 1);
        for (t0, &s) in out.iter().enumerate() {
            prop_assert_eq!(s.to_bits(), idx.slope(t0, t0 + 1).to_bits());
        }

        for s in 0..n - 1 {
            v.arena().window_slopes(v.slot(), s, s + 1, n - 1, &mut out);
            prop_assert_eq!(out.len(), n - 1 - s);
            for (off, &slope) in out.iter().enumerate() {
                let e = s + 1 + off;
                prop_assert_eq!(
                    slope.to_bits(), idx.slope(s, e).to_bits(),
                    "window [{}, {}]", s, e
                );
            }
        }

        // The mirrored kernel: every start against every fixed end.
        for e in 1..n {
            v.arena().window_slopes_ending(v.slot(), 0, e - 1, e, &mut out);
            prop_assert_eq!(out.len(), e);
            for (s, &slope) in out.iter().enumerate() {
                prop_assert_eq!(
                    slope.to_bits(), idx.slope(s, e).to_bits(),
                    "window [{}, {}] from its end", s, e
                );
            }
        }
    }

    /// The slope-leaf fast path (`eval_unit` / `eval_leaf_run`) returns
    /// exactly what the general `eval_node` tree walk returns, for every
    /// slope-pattern query over every range.
    #[test]
    fn slope_leaf_fast_path_matches_eval_node(pairs in series_strategy()) {
        let t = Trendline::from_pairs("t", &pairs);
        let Some(v) = VizData::from_trendline(&t, 0, 1) else { return Ok(()); };
        let params = ScoreParams::default();
        let udps = UdpRegistry::new();
        let ev = Evaluator::new(&v, &params, &udps);
        let n = v.n();
        let mut run = Vec::new();
        for q in leaf_queries() {
            let leaf = slope_leaf(&q);
            prop_assert!(leaf.is_some(), "{} must be a slope leaf", q);
            for i in 0..n {
                for j in (i + 1)..n {
                    let fast = ev.eval_unit(leaf, &q, i, j);
                    let general = ev.eval_node(&q, i, j, None);
                    prop_assert_eq!(
                        fast.to_bits(), general.to_bits(),
                        "{} over [{}, {}]: {} vs {}", q, i, j, fast, general
                    );
                }
            }
            for s in 0..n - 1 {
                ev.eval_leaf_run(leaf.unwrap(), s, s + 1, n - 1, &mut run);
                for (off, &score) in run.iter().enumerate() {
                    let e = s + 1 + off;
                    prop_assert_eq!(
                        score.to_bits(),
                        ev.eval_node(&q, s, e, None).to_bits(),
                        "{} run [{}, {}]", q, s, e
                    );
                }
            }
        }
    }

    /// End to end: for every segmenter, sharding {1, 2, 7} × pruning
    /// {on, off} returns byte-identical top-k answers.
    #[test]
    fn engine_is_byte_identical_across_shards_and_pruning(tls in collection_strategy()) {
        let k = 3;
        for kind in [
            SegmenterKind::Dp,
            SegmenterKind::SegmentTree,
            SegmenterKind::Greedy,
            SegmenterKind::Dtw,
            SegmenterKind::Euclidean,
        ] {
            for query in engine_queries() {
                let reference = {
                    let options = EngineOptions {
                        segmenter: kind,
                        pruning_mode: PruningMode::Off,
                        ..EngineOptions::default()
                    };
                    let engine = ShardedEngine::from_trendlines(tls.clone(), 1);
                    let shared = SharedThresholds::new(1);
                    render(
                        &engine
                            .top_k_batch_observed(&[(&query, k)], &options, &shared, &NoopObserver)
                            .pop()
                            .unwrap()
                            .unwrap(),
                    )
                };
                for shards in [1usize, 2, 7] {
                    for mode in [PruningMode::Off, PruningMode::Auto] {
                        let options = EngineOptions {
                            segmenter: kind,
                            pruning_mode: mode,
                            ..EngineOptions::default()
                        };
                        let engine = ShardedEngine::from_trendlines(tls.clone(), shards);
                        let shared = SharedThresholds::new(1);
                        let got = render(
                            &engine
                                .top_k_batch_observed(
                                    &[(&query, k)],
                                    &options,
                                    &shared,
                                    &NoopObserver,
                                )
                                .pop()
                                .unwrap()
                                .unwrap(),
                        );
                        prop_assert_eq!(
                            &got, &reference,
                            "{:?} shards={} pruning={:?} diverged on {}",
                            kind, shards, mode, query
                        );
                    }
                }
            }
        }
    }

    /// Over a collection whose vizzes share two x runs, every kernel of
    /// every viz equals the scalar [`StatsIndex`] reference over that
    /// viz's own xs and ys bit for bit, and vizzes on one row read one
    /// run.
    #[test]
    fn kernels_over_shared_x_runs_match_scalar_reference(tls in two_row_collection_strategy()) {
        let grouped = group_collection(&tls, 1);
        let vizzes: Vec<&VizData> = grouped.iter().flatten().collect();
        prop_assert_eq!(vizzes.len(), tls.len());
        let mut out = Vec::new();
        for v in &vizzes {
            let twin = vizzes.iter().find(|w| w.xs() == v.xs()).unwrap();
            prop_assert_eq!(twin.xs().as_ptr(), v.xs().as_ptr(), "row not shared");
            let idx = StatsIndex::new(v.xs(), v.ys());
            let n = v.n();
            for i in 0..n {
                for j in i..n {
                    prop_assert_eq!(v.slope(i, j).to_bits(), idx.slope(i, j).to_bits());
                    let (got, want) = (v.range_stats(i, j), idx.range(i, j));
                    prop_assert_eq!(
                        [got.sx, got.sy, got.sxy, got.sxx].map(f64::to_bits),
                        [want.sx, want.sy, want.sxy, want.sxx].map(f64::to_bits),
                        "range [{}, {}]", i, j
                    );
                }
            }
            v.arena().interval_slopes(v.slot(), &mut out);
            prop_assert_eq!(out.len(), n - 1);
            for (t0, &s) in out.iter().enumerate() {
                prop_assert_eq!(s.to_bits(), idx.slope(t0, t0 + 1).to_bits());
            }
            for s in 0..n - 1 {
                v.arena().window_slopes(v.slot(), s, s + 1, n - 1, &mut out);
                for (off, &slope) in out.iter().enumerate() {
                    prop_assert_eq!(slope.to_bits(), idx.slope(s, s + 1 + off).to_bits());
                }
            }
            for e in 1..n {
                v.arena().window_slopes_ending(v.slot(), 0, e - 1, e, &mut out);
                for (s, &slope) in out.iter().enumerate() {
                    prop_assert_eq!(slope.to_bits(), idx.slope(s, e).to_bits());
                }
            }
        }
    }
}
