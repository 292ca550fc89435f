//! The execution-shape matrix: every way this workspace executes a batch
//! of ShapeQueries returns the bytes of one referee. §6.3's pruning and
//! §5's pipelined GROUP are layout and work changes, never answer
//! changes, so a draw — a corpus and 1–4 queries from the shared grammar,
//! with k, bin width, push-down and the minimum width drawn — must render
//! alike, at each of the five segmenters, in every shape:
//!
//! * 1, 3 and 4 shards cut by `partition_bounds_by_points` and merged by
//!   `merge_topk`, the server's path;
//! * the shards run forward and reversed under one `SharedThresholds`,
//!   so either end's proven threshold prunes the other;
//! * pruning off and auto;
//! * engines built from the trendlines and cut from a snapshot file;
//! * the whole batch at once, and each query alone.
//!
//! The referee is one engine built from the trendlines, pruning off,
//! running each query alone. Past regressions stay as fixed draws below.

mod support;

use proptest::prelude::*;
use shapesearch_core::{
    partition_bounds_by_points, snapshot, Collection, EngineOptions, Pattern, PruningMode,
    ScoreParams, SegmenterKind, ShapeEngine, ShapeQuery, ShapeSegment,
};
use shapesearch_datastore::Trendline;
use support::{corpus, eager_shards, query, render_outcome, run, unique_path, with_udps, CASES};

const SEGMENTERS: [SegmenterKind; 5] = [
    SegmenterKind::Dp,
    SegmenterKind::SegmentTree,
    SegmenterKind::Greedy,
    SegmenterKind::Dtw,
    SegmenterKind::Euclidean,
];

/// Every shape must render what the referee renders for each query, at
/// each of the five segmenters in turn (`options.segmenter` is ignored):
/// one draw compares pruned with unpruned answers for all three that
/// prune.
fn check(
    tls: &[Trendline],
    queries: &[ShapeQuery],
    k: usize,
    options: &EngineOptions,
) -> std::result::Result<(), TestCaseError> {
    let referee = eager_shards(tls, 1);
    let path = unique_path();
    snapshot::write(&path, &Collection::from_trendlines(tls)).unwrap();
    let snap = snapshot::open(&path).unwrap();
    let mut shapes = Vec::new();
    for shards in [1, 3, 4] {
        shapes.push(("eager", eager_shards(tls, shards)));
        let bounds = partition_bounds_by_points(&snap.point_counts(), shards);
        let cut = bounds
            .into_iter()
            .map(|(start, end)| snap.partition(start, end));
        shapes.push(("snapshot", with_udps(cut)));
    }
    drop(snap);
    std::fs::remove_file(&path).ok();

    let batch: Vec<&ShapeQuery> = queries.iter().collect();
    for segmenter in SEGMENTERS {
        let off = EngineOptions {
            segmenter,
            pruning_mode: PruningMode::Off,
            ..options.clone()
        };
        let want: Vec<String> = queries
            .iter()
            .map(|q| render_outcome(&run(&[&referee[0]], &[q], k, &off)[0]))
            .collect();
        for (source, engines) in &shapes {
            let orders: [Vec<&ShapeEngine>; 2] =
                [engines.iter().collect(), engines.iter().rev().collect()];
            let orders = orders.iter().zip(["forward", "reversed"]);
            // One shard reversed is one shard forward.
            for (shards, order) in orders.take(engines.len().min(2)) {
                for pruning_mode in [PruningMode::Off, PruningMode::Auto] {
                    let options = EngineOptions {
                        pruning_mode,
                        ..off.clone()
                    };
                    let whole = run(shards, &batch, k, &options);
                    for (i, q) in queries.iter().enumerate() {
                        let alone = run(shards, &[q], k, &options);
                        for (how, got) in [("batched", &whole[i]), ("alone", &alone[0])] {
                            let shape = format!("{how} {source}, {} shards {order}", engines.len());
                            let at = format!("{shape}, k {k}, {options:?}: {q}");
                            prop_assert_eq!(&render_outcome(got), &want[i], "{}", at);
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn every_shape_renders_the_referee_bytes(
        tls in corpus(),
        queries in proptest::collection::vec(query(), 1..5),
        // Small k, k around the corpus size (every candidate a seed, with
        // and without room to spare), and a k past it.
        k_pick in 0usize..11,
        bin_width in prop_oneof![Just(1usize), Just(3)],
        (pushdown, min_width_frac) in (0u8..2, prop_oneof![Just(0.0), Just(0.0), 0.05f64..0.4]),
    ) {
        let k = match k_pick {
            0..=6 => k_pick + 1,
            7..=9 => (tls.len() + k_pick).saturating_sub(8).max(1),
            _ => 50,
        };
        let options = EngineOptions {
            bin_width,
            pushdown: pushdown == 1,
            params: ScoreParams { min_width_frac, ..ScoreParams::default() },
            ..EngineOptions::default()
        };
        check(&tls, &queries, k, &options)?;
    }
}

/// A fixed draw: `rows` as trendlines `t0`, `t1`, … under `options`.
fn fixed(rows: &[Vec<(f64, f64)>], queries: &[ShapeQuery], k: usize, options: &EngineOptions) {
    let tls: Vec<Trendline> = rows
        .iter()
        .enumerate()
        .map(|(i, points)| Trendline::from_pairs(format!("t{i}"), points))
        .collect();
    if let Err(e) = check(&tls, queries, k, options) {
        panic!("{e}");
    }
}

/// Four constant rows and five flat units: the first-tier bound is 1.0
/// and the SegmentTree's re-associated total 1.0000000000000002. Run in
/// reverse, the last shard proves that total first, and an earlier
/// shard's bound must not sit under it, or its equal scores — which win
/// the tie by index — are pruned.
#[test]
fn a_tie_on_the_first_tier_bound_survives_a_later_shard() {
    let constant: Vec<(f64, f64)> = (0..10).map(|t| (t as f64, 5.0)).collect();
    let q = ShapeQuery::concat(vec![ShapeQuery::flat(); 5]);
    fixed(&vec![constant; 4], &[q], 2, &EngineOptions::default());
}

/// Case 952 of `bounds_contain_exact_score`, twice over: at bin 3 the DP
/// scores exactly the second tier's bare bound and the SegmentTree one
/// ulp above it, so a copy whose bound sat under its twin's proven score
/// would be pruned from a tie it wins by index.
#[test]
fn the_anchored_bound_holds_a_tree_tie_with_its_twin() {
    #[rustfmt::skip]
    let ys = [
        -74.62864075641251, -41.74758440270874, -75.6455859573977, -123.15039780113517,
        -85.5328405167798, 4.09395915934067, 100.43857403289536, 47.826424215633864,
        -25.445857109016274, -23.503890174620707, 40.093501125255486, 131.55662255394572,
        145.82424502403373, 241.18947634390398, 279.90667179816074, 240.03367117530547,
        229.5452076679153, 317.83030395227433, 270.40460619047303, 187.53109036600458,
        236.678311423038, 181.4035397502877, 82.54688523696824, 182.544538440821,
        191.64895945671833, 246.68116830406626, 232.57632229156968, 272.97243426998,
        218.16593207910137, 143.9467733379795, 125.84985975872362, 87.5366731306064,
        -0.026563355078195627, 21.89538636426026, 21.148766907164173, 12.948958337691593,
        12.870757818745929, 31.802391688510554, 50.460854103111316, 114.2173745091752,
        90.36048571642264, 182.2205110678866, 198.51678293190264,
    ];
    let row: Vec<(f64, f64)> = ys.iter().enumerate().map(|(t, &y)| (t as f64, y)).collect();
    let q = ShapeQuery::concat(vec![
        ShapeQuery::up(),
        ShapeQuery::pattern(Pattern::Slope(-135.0)),
    ]);
    let bin_3 = EngineOptions {
        bin_width: 3,
        ..EngineOptions::default()
    };
    for k in [1, 2] {
        fixed(&vec![row.clone(); 4], std::slice::from_ref(&q), k, &bin_3);
    }
}

/// Rows equal on the canvas, half of them shifted 3 in raw x (another
/// grid, so another x run): one pinned window names other canvas points
/// on the shifted rows, so a stretch of the pinned-window column keyed
/// on the canvas alone would bound them on the wrong window.
#[test]
fn a_shifted_x_run_is_bounded_on_its_own_window() {
    let rows: Vec<Vec<(f64, f64)>> = (0..8)
        .map(|i| {
            let (shift, dip) = if i % 2 == 1 { (3.0, 6.0) } else { (0.0, 9.0) };
            let v = |t: f64| -((t - dip).abs() + f64::from(i) * 0.01);
            (0..16)
                .map(|t| (f64::from(t) + shift, v(f64::from(t))))
                .collect()
        })
        .collect();
    let q = ShapeQuery::Segment(ShapeSegment::pinned(Pattern::Up, 3.0, 9.0));
    fixed(&rows, &[q], 2, &EngineOptions::default());
}

/// An ITERATOR width of 1e30 raw x units places nothing, like any width
/// past the canvas, and must not overflow a unit's start + width.
#[test]
fn a_window_wider_than_every_row_places_nothing() {
    let rows: Vec<Vec<(f64, f64)>> = (0..5u32)
        .map(|i| {
            (0..9u32)
                .map(|t| (f64::from(t), f64::from(t * (i + 2) % 7)))
                .collect()
        })
        .collect();
    let queries = [1e3, 1e30].map(|width| {
        ShapeQuery::concat(vec![
            ShapeQuery::up(),
            ShapeQuery::Segment(ShapeSegment::pattern(Pattern::Down).with_width(width)),
        ])
    });
    fixed(&rows, &queries, 3, &EngineOptions::default());
}

/// Case 395 of this suite at `CASES = 3000`, cut down: `t0` repeats
/// x = 9, so its interval-slope extent is NaN and it has no first-tier
/// bound. An OR that kept its pinned arm's finite bound over that NaN
/// pruned `t0`, which the free arm scores above `t1`.
#[test]
fn an_or_keeps_a_child_without_a_bound_unbounded() {
    let rows = [
        vec![
            (4.0, -256.0),
            (9.0, -175.0),
            (9.0, -199.0),
            (12.0, -228.0),
            (15.0, -138.0),
        ],
        vec![(0.0, -1.0), (1.0, 62.0)],
    ];
    let q = ShapeQuery::Or(vec![
        ShapeQuery::down(),
        ShapeQuery::Segment(ShapeSegment::pinned(Pattern::Down, 11.0, 51.9)),
    ]);
    let options = EngineOptions {
        pushdown: false,
        ..EngineOptions::default()
    };
    fixed(&rows, &[q], 1, &options);
}

/// A draw from the shared corpus with one x of every even row moved,
/// cut down: `t1`, `t2` and `t5` each have one x moved to −16, so their
/// xs descend once. Under a three-unit chain a row bounded by its
/// interval-slope extremes is pruned from a top 5 it belongs in (greedy
/// drops `t2` for `t5`): the extremes need not bound a window's slope
/// when xs descend. `ArenaBuilder::push_viz` gives such a row a NaN
/// extent, and so no bound; the rest of the matrix holds that rule on
/// no draw of its own.
#[test]
fn a_row_whose_xs_descend_is_not_bounded_by_its_interval_slopes() {
    let rows = [
        vec![
            (4.0, -239.2962211044643),
            (11.0, -354.89723115131574),
            (13.0, -339.9078744193599),
            (14.0, -439.7827647125872),
        ],
        vec![
            (3.0, 15.480543138685118),
            (4.0, 12.873475699443613),
            (-16.0, -18.41133357145445),
            (18.0, -23.625468449937458),
        ],
        vec![
            (0.0, -42.57459714652035),
            (1.0, -57.05104718858954),
            (2.0, -71.52749723065874),
            (3.0, -86.00394727272794),
            (4.0, -100.48039731479713),
            (9.0, -172.86264752514313),
            (10.0, -187.33909756721232),
            (15.0, -259.7213477775583),
            (-16.0, -274.1977978196275),
            (17.0, -288.6742478616967),
            (19.0, -317.6271479458351),
        ],
        vec![
            (8.0, 659.9635128022157),
            (10.0, -845.7874031648594),
            (13.0, 585.5560250494079),
            (14.0, 439.0630943855629),
        ],
        vec![
            (4.0, -239.2962211044643),
            (11.0, -354.89723115131574),
            (13.0, -339.9078744193599),
            (14.0, -439.7827647125872),
        ],
        vec![
            (1.0, 20.69467801716813),
            (2.0, 18.087610577926625),
            (-16.0, -18.41133357145445),
            (18.0, -23.625468449937458),
        ],
    ];
    let q = ShapeQuery::concat(vec![
        ShapeQuery::down(),
        ShapeQuery::pattern(Pattern::Slope(120.0)),
        ShapeQuery::down(),
    ]);
    let options = EngineOptions {
        pushdown: false,
        ..EngineOptions::default()
    };
    fixed(&rows, &[q], 5, &options);
}
