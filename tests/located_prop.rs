//! Property test: GROUP is query-independent.
//!
//! Whatever a query pins, the engine scores it on the one GROUP of the
//! full canvas. For random collections (mixed lengths, trendlines that do
//! not cover the pins, constant series), bin widths 1–3, the three
//! segmenting algorithms, 1 and 3 shards and `pushdown` on and off, a
//! fully or partly located query's answer equals — score bits, `ranges`,
//! order — an oracle written from the push-down definitions alone: filter
//! with `covers_ranges`, GROUP each survivor with plain
//! `VizData::from_trendline`, apply `eager_discard`, run the segmenter,
//! keep the k best.

use proptest::prelude::*;
use shapesearch_core::algo::dp::DpSegmenter;
use shapesearch_core::algo::greedy::GreedySegmenter;
use shapesearch_core::algo::segment_tree::SegmentTreeSegmenter;
use shapesearch_core::chain::expand_chains;
use shapesearch_core::engine::pushdown::{covers_ranges, eager_discard};
use shapesearch_core::{
    EngineOptions, Evaluator, MatchResult, NoopObserver, Pattern, Segmenter, SegmenterKind,
    ShapeQuery, ShapeSegment, ShardedEngine, SharedThresholds, TopKResult, UdpRegistry, VizData,
};
use shapesearch_datastore::Trendline;

/// One series on integer x starting at `start`: a walk, a constant, or a
/// stub too short to reach most pins.
fn series_strategy() -> impl Strategy<Value = Vec<(f64, f64)>> {
    let at = |start: usize, ys: Vec<f64>| -> Vec<(f64, f64)> {
        ys.into_iter()
            .enumerate()
            .map(|(i, y)| ((start + i) as f64, y))
            .collect()
    };
    prop_oneof![
        (0usize..4, proptest::collection::vec(-50.0f64..50.0, 12..48))
            .prop_map(move |(s, ys)| at(s, ys)),
        (0usize..4, 8usize..40, -5.0f64..5.0).prop_map(move |(s, n, c)| at(s, vec![c; n])),
        (0usize..30, proptest::collection::vec(-50.0f64..50.0, 1..8))
            .prop_map(move |(s, ys)| at(s, ys)),
    ]
}

fn collection_strategy() -> impl Strategy<Value = Vec<Trendline>> {
    proptest::collection::vec(series_strategy(), 4..14).prop_map(|all| {
        all.into_iter()
            .enumerate()
            .map(|(i, pairs)| Trendline::from_pairs(format!("t{i}"), &pairs))
            .collect()
    })
}

/// 1–3 segments laid left to right, abutting or a gap apart. One draw in
/// four leaves a segment fuzzy; pins are in tenths, so most are off-grid.
fn query_strategy() -> impl Strategy<Value = ShapeQuery> {
    let pattern = prop_oneof![Just(Pattern::Up), Just(Pattern::Down), Just(Pattern::Flat)];
    let gap = prop_oneof![Just(0u32), 1u32..40];
    let segment = (pattern, gap, 20u32..140, 0u8..4);
    (0u32..80, proptest::collection::vec(segment, 1..4)).prop_map(|(origin, segs)| {
        let mut at = origin;
        let parts = segs
            .into_iter()
            .map(|(pattern, gap, width, fuzzy)| {
                let (xs, xe) = (at + gap, at + gap + width);
                at = xe;
                ShapeQuery::Segment(if fuzzy == 0 {
                    ShapeSegment::pattern(pattern)
                } else {
                    ShapeSegment::pinned(pattern, f64::from(xs) / 10.0, f64::from(xe) / 10.0)
                })
            })
            .collect();
        ShapeQuery::concat(parts)
    })
}

fn oracle(tls: &[Trendline], q: &ShapeQuery, k: usize, opts: &EngineOptions) -> Vec<TopKResult> {
    let chains = expand_chains(q);
    let pinned = q.pinned_x_ranges();
    let udps = UdpRegistry::new();
    let mut all: Vec<TopKResult> = Vec::new();
    for (i, t) in tls.iter().enumerate() {
        if opts.pushdown && !covers_ranges(&t.xs(), &pinned) {
            continue;
        }
        let Some(viz) = VizData::from_trendline(t, i, opts.bin_width) else {
            continue;
        };
        let ev = Evaluator::new(&viz, &opts.params, &udps);
        let m = if opts.pushdown && eager_discard(&ev, &chains) {
            MatchResult::infeasible()
        } else {
            match opts.segmenter {
                SegmenterKind::Dp => DpSegmenter.match_viz(&ev, &chains),
                SegmenterKind::SegmentTree => {
                    SegmentTreeSegmenter::default().match_viz(&ev, &chains)
                }
                SegmenterKind::Greedy => GreedySegmenter::new().match_viz(&ev, &chains),
                other => unreachable!("{other:?} is not under test"),
            }
        };
        if m.score > -1.0 || !m.ranges.is_empty() {
            all.push(TopKResult {
                key: t.key.clone(),
                score: m.score,
                viz_index: i,
                ranges: m.ranges,
            });
        }
    }
    all.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then(a.viz_index.cmp(&b.viz_index))
    });
    all.truncate(k);
    all
}

/// Scores by bit pattern, so `-0.0` vs `0.0` or a NaN cannot hide.
fn render(results: &[TopKResult]) -> String {
    results
        .iter()
        .map(|r| {
            format!(
                "{}:{}:{:016x}:{:?}",
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn located_answers_equal_the_full_canvas_oracle(
        tls in collection_strategy(),
        queries in proptest::collection::vec(query_strategy(), 1..4),
        k in 1usize..7,
        bin_width in 1usize..4,
    ) {
        for segmenter in [SegmenterKind::Dp, SegmenterKind::SegmentTree, SegmenterKind::Greedy] {
            for pushdown in [true, false] {
                let opts = EngineOptions { segmenter, bin_width, pushdown, ..EngineOptions::default() };
                for shards in [1, 3] {
                    let engine = ShardedEngine::from_trendlines(tls.clone(), shards);
                    let items: Vec<(&ShapeQuery, usize)> = queries.iter().map(|q| (q, k)).collect();
                    let batch = engine.top_k_batch_observed(
                        &items,
                        &opts,
                        &SharedThresholds::new(items.len()),
                        &NoopObserver,
                    );
                    for (q, got) in queries.iter().zip(batch) {
                        let want = oracle(&tls, q, k, &opts);
                        prop_assert_eq!(
                            render(&got.unwrap()),
                            render(&want),
                            "{:?} bin {} pushdown {} shards {} on {}",
                            segmenter, bin_width, pushdown, shards, q
                        );
                    }
                }
            }
        }
    }
}
