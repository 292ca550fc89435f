//! Property test: GROUP is query-independent.
//!
//! Whatever a query pins, the engine scores it on the one GROUP of the
//! full canvas. For the shared corpus and query grammar, bin widths 1–3,
//! the three segmenting algorithms and `pushdown` on and off, every
//! query's answer (from one engine: `shape_matrix` holds every shard
//! count to it) equals — score bits, `ranges`, order — an
//! oracle written from the push-down definitions alone: filter with
//! `covers_ranges`, GROUP each survivor with plain
//! `VizData::from_trendline`, apply `eager_discard`, run the segmenter,
//! keep the k best. A query the engine refuses is one with a chain
//! longer than `MAX_CHAIN_UNITS`.

#[path = "../crates/core/tests/support/mod.rs"]
mod support;

use proptest::prelude::*;
use shapesearch_core::algo::dp::DpSegmenter;
use shapesearch_core::algo::greedy::GreedySegmenter;
use shapesearch_core::algo::segment_tree::SegmentTreeSegmenter;
use shapesearch_core::chain::{expand_chains, MAX_CHAIN_UNITS};
use shapesearch_core::engine::pushdown::{covers_ranges, eager_discard};
use shapesearch_core::{
    EngineOptions, Evaluator, MatchResult, Segmenter, SegmenterKind, ShapeQuery, TopKResult,
    UdpRegistry, VizData,
};
use shapesearch_datastore::Trendline;
use support::{corpus, eager_shards, query, render, render_outcome, run, CASES};

/// The answer the definitions give, `None` where the engine must refuse.
fn oracle(
    tls: &[Trendline],
    q: &ShapeQuery,
    k: usize,
    opts: &EngineOptions,
) -> Option<Vec<TopKResult>> {
    let chains = expand_chains(q);
    if chains.iter().any(|chain| chain.len() > MAX_CHAIN_UNITS) {
        return None;
    }
    let pinned = q.pinned_x_ranges();
    let udps = UdpRegistry::with_builtins();
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
    Some(all)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn located_answers_equal_the_full_canvas_oracle(
        tls in corpus(),
        queries in proptest::collection::vec(query(), 1..4),
        k in 1usize..7,
        bin_width in 1usize..4,
    ) {
        let batch: Vec<&ShapeQuery> = queries.iter().collect();
        let engine = eager_shards(&tls, 1).remove(0);
        for segmenter in [SegmenterKind::Dp, SegmenterKind::SegmentTree, SegmenterKind::Greedy] {
            for pushdown in [true, false] {
                let opts = EngineOptions { segmenter, bin_width, pushdown, ..EngineOptions::default() };
                for (q, got) in queries.iter().zip(run(&[&engine], &batch, k, &opts)) {
                    let Some(want) = oracle(&tls, q, k, &opts) else {
                        prop_assert!(got.is_err(), "{} is past the chain width", q);
                        continue;
                    };
                    prop_assert_eq!(
                        render_outcome(&got),
                        render(&want),
                        "{:?} bin {} pushdown {} on {}",
                        segmenter, bin_width, pushdown, q
                    );
                }
            }
        }
    }
}
