//! Property tests for the columnar GROUP arenas and batched scoring
//! kernels: every batched path must reproduce the retained scalar
//! reference **bit for bit**, on every row of the shared corpus — walks,
//! constant and two-point series, NaN poisoning, shared, shifted and
//! pinched x grids. That the engine's answers are byte-identical across
//! segmenters, shards and pruning is `shape_matrix.rs`'s to hold.

mod support;

use proptest::prelude::*;
use shapesearch_core::{
    group_collection, slope_leaf, Evaluator, ScoreParams, ShapeQuery, StatsIndex, UdpRegistry,
    VizData,
};
use support::corpus;

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

/// The arena's range stats, pairwise slopes, interval-slope kernel and
/// both anchored window kernels (fixed start, fixed end) for `v` all
/// equal the scalar [`StatsIndex`] reference over its xs and ys, bit for
/// bit.
fn kernels_match(v: &VizData) -> Result<(), TestCaseError> {
    let idx = StatsIndex::new(v.xs(), v.ys());
    let n = v.n();
    prop_assert_eq!(idx.len(), n);
    for i in 0..n {
        for j in i..n {
            let (got, want) = (v.slope(i, j), idx.slope(i, j));
            prop_assert_eq!(got.to_bits(), want.to_bits(), "slope [{}, {}]", i, j);
            let (got, want) = (v.range_stats(i, j), idx.range(i, j));
            prop_assert_eq!(
                [got.sx, got.sy, got.sxy, got.sxx].map(f64::to_bits),
                [want.sx, want.sy, want.sxy, want.sxx].map(f64::to_bits),
                "range [{}, {}]",
                i,
                j
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
                slope.to_bits(),
                idx.slope(s, e).to_bits(),
                "window [{}, {}]",
                s,
                e
            );
        }
    }
    // The mirrored kernel: every start against every fixed end.
    for e in 1..n {
        v.arena()
            .window_slopes_ending(v.slot(), 0, e - 1, e, &mut out);
        prop_assert_eq!(out.len(), e);
        for (s, &slope) in out.iter().enumerate() {
            prop_assert_eq!(
                slope.to_bits(),
                idx.slope(s, e).to_bits(),
                "[{}, {}] from its end",
                s,
                e
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// [`kernels_match`] for each row of the corpus GROUPed alone, in an
    /// arena of its own.
    #[test]
    fn kernels_match_scalar_reference_bit_for_bit(tls in corpus()) {
        // GROUP rejects a row of fewer than two canvas points.
        for v in tls.iter().filter_map(|t| VizData::from_trendline(t, 0, 1)) {
            kernels_match(&v)?;
        }
    }

    /// The slope-leaf fast path (`eval_unit` / `eval_leaf_run`) returns
    /// exactly what the general `eval_node` tree walk returns, for every
    /// slope-pattern query over every range.
    #[test]
    fn slope_leaf_fast_path_matches_eval_node(tls in corpus()) {
        let (params, udps) = (ScoreParams::default(), UdpRegistry::new());
        for v in tls.iter().filter_map(|t| VizData::from_trendline(t, 0, 1)) {
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
    }

    /// [`kernels_match`] for each viz of the corpus GROUPed whole, where
    /// vizzes share x runs: vizzes read one run exactly when their raw x
    /// rows are bitwise equal.
    #[test]
    fn kernels_over_shared_x_runs_match_scalar_reference(tls in corpus()) {
        let grouped = group_collection(&tls, 1);
        let vizzes: Vec<&VizData> = grouped.iter().flatten().collect();
        let accepted = tls.iter().filter(|t| VizData::from_trendline(t, 0, 1).is_some());
        prop_assert_eq!(vizzes.len(), accepted.count());
        let raw_x = |v: &VizData| -> Vec<u64> {
            tls[v.source()].points.iter().map(|p| p.x.to_bits()).collect()
        };
        for v in &vizzes {
            for w in &vizzes {
                let shared = w.xs().as_ptr() == v.xs().as_ptr();
                prop_assert_eq!(shared, raw_x(w) == raw_x(v), "#{} and #{}", v.source(), w.source());
            }
            kernels_match(v)?;
        }
    }
}
