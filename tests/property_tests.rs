//! Property-based tests (proptest) on the core invariants:
//!
//! * summarized-statistics additivity (Theorem 5.1),
//! * score boundedness under arbitrary operator trees (Property 5.1),
//! * DP optimality vs SegmentTree and Greedy,
//! * Theorem 6.4 score bounds containing the exact score,
//! * parser round-trip (AST → regex text → AST), and over generated regex
//!   text: whatever `parse_regex` accepts holds only finite numbers, and
//!   its canonical text (the query cache's key) re-parses to an equal AST
//!   and prints the same again,
//! * over generated natural-language text: the translator never panics,
//!   is pure (the server memoises its plans by text), and what it accepts
//!   holds only finite numbers and round-trips through its canonical text.

#[path = "../crates/core/tests/support/mod.rs"]
mod support;

use proptest::prelude::*;
use shapesearch_core::algo::dp::DpSegmenter;
use shapesearch_core::algo::greedy::GreedySegmenter;
use shapesearch_core::algo::segment_tree::SegmentTreeSegmenter;
use shapesearch_core::bound_tiers;
use shapesearch_core::chain::expand_chains;
use shapesearch_core::{
    Evaluator, Modifier, Pattern, ScoreParams, Segmenter, ShapeQuery, ShapeSegment, StatsIndex,
    SummaryStats, UdpRegistry, VizData,
};
use shapesearch_datastore::Trendline;
use shapesearch_parser::nl::lexicon;
use shapesearch_parser::{parse_natural_language, parse_regex};

fn viz_from_ys(ys: &[f64]) -> VizData {
    binned_viz_from_ys(ys, 1).expect("≥2 points")
}

/// GROUP at `bin` raw points a canvas point; `None` when fewer than two
/// canvas points come of it.
fn binned_viz_from_ys(ys: &[f64], bin: usize) -> Option<VizData> {
    let pairs: Vec<(f64, f64)> = ys.iter().enumerate().map(|(i, &y)| (i as f64, y)).collect();
    VizData::from_trendline(&Trendline::from_pairs("prop", &pairs), 0, bin)
}

/// Strategy: a plausible trendline of 6–40 points.
fn ys_strategy() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-100.0f64..100.0, 6..40)
}

/// Strategy: a small random operator tree over leaf patterns, CONCATs
/// flattened (as the regex text a round trip goes through flattens them).
fn query_strategy() -> impl Strategy<Value = ShapeQuery> {
    let leaf = prop_oneof![
        Just(ShapeQuery::up()),
        Just(ShapeQuery::down()),
        Just(ShapeQuery::flat()),
        Just(ShapeQuery::pattern(Pattern::Slope(30.0))),
        Just(ShapeQuery::pattern(Pattern::Any)),
    ];
    leaf.prop_recursive(3, 12, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..4).prop_map(ShapeQuery::concat),
            proptest::collection::vec(inner.clone(), 2..3).prop_map(ShapeQuery::Or),
            proptest::collection::vec(inner.clone(), 2..3).prop_map(ShapeQuery::And),
            inner.prop_map(|q| ShapeQuery::Not(Box::new(q))),
        ]
    })
}

/// Noise summed into a random walk.
fn summed(steps: &[f64]) -> Vec<f64> {
    steps
        .iter()
        .scan(0.0, |y, step| {
            *y += step;
            Some(*y)
        })
        .collect()
}

/// Case 952 of `bounds_contain_exact_score` at 30,000 cases: the DP scores
/// exactly the second tier's bare bound and the SegmentTree one ulp above
/// it, so `upper < τ` would prune the tree's candidate at a tie.
#[test]
fn anchored_bound_covers_the_tree_where_it_ties_the_dp() {
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
    let viz = binned_viz_from_ys(&ys, 3).expect("15 canvas points");
    let q = parse_regex("[p=up][p=-135]").unwrap();
    let params = ScoreParams::default();
    let udps = UdpRegistry::new();
    let ev = Evaluator::new(&viz, &params, &udps);
    let chains = expand_chains(&q);
    let exact = DpSegmenter.match_viz(&ev, &chains).score;
    let tree = SegmentTreeSegmenter::default()
        .match_viz(&ev, &chains)
        .score;
    let tight = bound_tiers(&q, &viz, &params, f64::NEG_INFINITY)
        .anchored
        .expect("both ends are free");
    assert!(
        exact <= tight && tree <= tight,
        "dp {exact}, tree {tree}, anchored {tight}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn stats_additivity(
        a in proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 1..20),
        b in proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 1..20),
    ) {
        let merged = SummaryStats::from_points(&a).merge(&SummaryStats::from_points(&b));
        let all: Vec<(f64, f64)> = a.iter().chain(b.iter()).copied().collect();
        let direct = SummaryStats::from_points(&all);
        prop_assert!((merged.slope() - direct.slope()).abs() < 1e-6);
        prop_assert!((merged.intercept() - direct.intercept()).abs() < 1e-6);
        prop_assert_eq!(merged.n, direct.n);
    }

    #[test]
    fn stats_index_matches_direct(ys in ys_strategy()) {
        let xs: Vec<f64> = (0..ys.len()).map(|i| i as f64).collect();
        let idx = StatsIndex::new(&xs, &ys);
        let n = ys.len();
        // Check a few ranges including the extremes.
        for (i, j) in [(0, n - 1), (0, 1), (n - 2, n - 1), (n / 3, 2 * n / 3 + 1)] {
            if j > i && j < n {
                let pts: Vec<(f64, f64)> = (i..=j).map(|t| (xs[t], ys[t])).collect();
                let direct = SummaryStats::from_points(&pts);
                prop_assert!((idx.range(i, j).slope() - direct.slope()).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn scores_always_bounded(ys in ys_strategy(), q in query_strategy()) {
        let viz = viz_from_ys(&ys);
        let params = ScoreParams::default();
        let udps = UdpRegistry::new();
        let ev = Evaluator::new(&viz, &params, &udps);
        let chains = expand_chains(&q);
        for segmenter in [
            &DpSegmenter as &dyn Segmenter,
            &SegmentTreeSegmenter::default(),
            &GreedySegmenter::new(),
        ] {
            let r = segmenter.match_viz(&ev, &chains);
            prop_assert!((-1.0..=1.0).contains(&r.score), "score {} for {}", r.score, q);
        }
    }

    #[test]
    fn dp_dominates_heuristics(ys in ys_strategy(), q in query_strategy()) {
        let viz = viz_from_ys(&ys);
        let params = ScoreParams::default();
        let udps = UdpRegistry::new();
        let ev = Evaluator::new(&viz, &params, &udps);
        let chains = expand_chains(&q);
        let dp = DpSegmenter.match_viz(&ev, &chains).score;
        let tree = SegmentTreeSegmenter::default().match_viz(&ev, &chains).score;
        let greedy = GreedySegmenter::new().match_viz(&ev, &chains).score;
        prop_assert!(tree <= dp + 1e-9, "tree {tree} > dp {dp} for {q}");
        prop_assert!(greedy <= dp + 1e-9, "greedy {greedy} > dp {dp} for {q}");
    }

    #[test]
    fn bounds_contain_exact_score(
        // Down to the two points GROUP needs, so chains run out of room,
        // and up to 64.
        ys in prop_oneof![
            ys_strategy(),
            proptest::collection::vec(-100.0f64..100.0, 2..5),
            proptest::collection::vec(-100.0f64..100.0, 40..65),
        ],
        // Noise as drawn, or summed into a walk: what a chain of slope
        // units fits well enough for a threshold near its score to cut.
        walk in 0u8..2,
        bin in prop_oneof![Just(1usize), Just(3)],
        // Every operator and leaf of the shared grammar, pins and
        // modifiers included.
        q in support::query(),
        min_width_frac in prop_oneof![Just(0.0), 0.05f64..0.4],
    ) {
        let ys = if walk == 1 { summed(&ys) } else { ys };
        let Some(viz) = binned_viz_from_ys(&ys, bin) else {
            return Ok(()); // fewer than two canvas points: GROUP rejects it
        };
        let params = ScoreParams { min_width_frac, ..ScoreParams::default() };
        let udps = UdpRegistry::with_builtins();
        let ev = Evaluator::new(&viz, &params, &udps);
        let chains = expand_chains(&q);
        let exact = DpSegmenter.match_viz(&ev, &chains).score;
        let tree = SegmentTreeSegmenter::default().match_viz(&ev, &chains).score;
        prop_assert!(tree <= exact + 1e-9, "tree {tree} > dp {exact} for {q}");
        let bounds = bound_tiers(&q, &viz, &params, f64::NEG_INFINITY);
        let (lo, hi) = (bounds.plan.0, bounds.first);
        // Infeasible queries (more units than intervals) return −1, which is
        // always within the trivial bound range.
        // The upper bound the driver prunes by holds with no tolerance, for
        // the DP's score and the tree's: a prune is `upper < τ`, so an ulp
        // over one is a tie lost. (The plan's bare value can sit that ulp
        // under a score it equals, as a pinned segment's does.)
        prop_assert!(exact >= lo - 1e-6 && exact <= hi && tree <= hi,
            "score {exact} or tree {tree} outside [{lo}, {hi}] for {q}");
        // The second tier, where the query has an end to anchor, sits
        // between the exact score and the first.
        let tight = bounds.anchored;
        if let Some(tight) = tight {
            prop_assert!(exact <= tight && tree <= tight && tight <= hi + 1e-6,
                "score {exact} or tree {tree} ≤ anchored {tight} ≤ whole {hi} broken for {q} \
                 on {} points",
                viz.n());
        }
        // The third tier, where the query is a chain it places whole,
        // against thresholds either side of the exact score and on it: at
        // or above the threshold it bounds the DP's score and the tree's
        // with no tolerance (the rounding allowance is its own), and it is
        // below the threshold only when they are. (Where it has nothing to
        // say it hands back the second tier's bits, held above.)
        for threshold in [f64::NEG_INFINITY, exact - 0.3, exact, exact.next_up(), exact + 0.02] {
            let joint = bound_tiers(&q, &viz, &params, threshold)
                .joint
                .filter(|joint| Some(joint.to_bits()) != tight.map(f64::to_bits));
            let Some(joint) = joint else { continue };
            if joint < threshold {
                prop_assert!(exact < threshold && tree < threshold,
                    "joint {joint} < τ {threshold}, score {exact}, tree {tree} for {q} on {} points",
                    viz.n());
            } else {
                prop_assert!(exact <= joint && tree <= joint,
                    "score {exact} or tree {tree} > joint {joint} (τ {threshold}) for {q} on {} points",
                    viz.n());
            }
        }
    }

    #[test]
    fn segmentation_tiles_and_orders(ys in ys_strategy()) {
        let viz = viz_from_ys(&ys);
        let params = ScoreParams::default();
        let udps = UdpRegistry::new();
        let ev = Evaluator::new(&viz, &params, &udps);
        let q = ShapeQuery::concat(vec![ShapeQuery::up(), ShapeQuery::down(), ShapeQuery::up()]);
        let chains = expand_chains(&q);
        let r = DpSegmenter.match_viz(&ev, &chains);
        if !r.ranges.is_empty() {
            prop_assert_eq!(r.ranges[0].0, 0);
            prop_assert_eq!(r.ranges.last().unwrap().1, viz.n() - 1);
            for w in r.ranges.windows(2) {
                prop_assert_eq!(w[0].1, w[1].0);
            }
            for &(s, e) in &r.ranges {
                prop_assert!(e > s);
            }
        }
    }

    #[test]
    fn regex_round_trip(q in query_strategy()) {
        let text = q.to_string();
        let reparsed = parse_regex(&text).map_err(|e| {
            TestCaseError::fail(format!("reparse of `{text}` failed: {e}"))
        })?;
        prop_assert_eq!(q, reparsed);
    }

    #[test]
    fn quantifier_scores_bounded(ys in ys_strategy(), min in 1u32..4, span in 0u32..3) {
        let viz = viz_from_ys(&ys);
        let params = ScoreParams::default();
        let udps = UdpRegistry::new();
        let ev = Evaluator::new(&viz, &params, &udps);
        let seg = ShapeSegment::pattern(Pattern::Up).with_modifier(Modifier::Quantifier {
            min: Some(min),
            max: Some(min + span),
        });
        let s = ev.eval_segment(&seg, 0, viz.n() - 1, None);
        prop_assert!((-1.0..=1.0).contains(&s));
    }

    #[test]
    fn znormalize_is_affine_invariant(
        ys in proptest::collection::vec(-100.0f64..100.0, 4..30),
        scale in 0.1f64..10.0,
        shift in -50.0f64..50.0,
    ) {
        let a = shapesearch_similarity::znormalize(&ys);
        let transformed: Vec<f64> = ys.iter().map(|y| y * scale + shift).collect();
        let b = shapesearch_similarity::znormalize(&transformed);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn dtw_symmetry_and_identity(
        a in proptest::collection::vec(-10.0f64..10.0, 3..20),
        b in proptest::collection::vec(-10.0f64..10.0, 3..20),
    ) {
        let d_ab = shapesearch_similarity::dtw(&a, &b);
        let d_ba = shapesearch_similarity::dtw(&b, &a);
        prop_assert!((d_ab - d_ba).abs() < 1e-9);
        prop_assert!(shapesearch_similarity::dtw(&a, &a) < 1e-9);
        prop_assert!(d_ab >= 0.0);
    }
}

/// Digit runs: short ones, ones near `f64`'s integer precision, and ones
/// past `f64::MAX` (309 digits).
fn digits() -> impl Strategy<Value = String> {
    prop_oneof!["[0-9]{1,3}", "[0-9]{15,20}", "[0-9]{300,400}"]
}

/// A signed integer, decimal or fraction literal.
fn literal() -> impl Strategy<Value = String> {
    (0usize..3, "[-+]?", digits(), digits()).prop_map(|(form, sign, a, b)| match form {
        0 => format!("{sign}{a}"),
        1 => format!("{sign}{a}.{b}"),
        _ => format!("{sign}{a}/{b}"),
    })
}

/// One segment: a pattern (`up` or a slope literal) and any of the
/// numeric location parts, chosen by the bits of `mask`.
fn segment() -> impl Strategy<Value = String> {
    (proptest::collection::vec(literal(), 6..=6), 0u32..64).prop_map(|(lits, mask)| {
        let mut parts = Vec::new();
        let slots = ["x.s=", "x.e=", "x.s=., x.e=.+", "y.s=", "y.e="];
        for (bit, (slot, lit)) in slots.iter().zip(&lits).enumerate() {
            if mask & (1 << bit) != 0 {
                parts.push(format!("{slot}{lit}"));
            }
        }
        if mask & 32 != 0 {
            parts.push(format!("p={}", lits[5]));
        } else {
            parts.push("p=up".to_owned());
        }
        format!("[{}]", parts.join(", "))
    })
}

/// Every number the query's segments hold.
fn numbers(q: &ShapeQuery) -> Vec<f64> {
    q.segments()
        .into_iter()
        .flat_map(|s| {
            let l = &s.location;
            let slope = match s.pattern {
                Some(Pattern::Slope(deg)) => Some(deg),
                _ => None,
            };
            [
                l.x_start,
                l.x_end,
                l.y_start,
                l.y_end,
                s.iterator.map(|it| it.width),
                slope,
            ]
        })
        .flatten()
        .collect()
}

// Cheap cases (no trendline is scored), so many more of them.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Numeric literals of 1–400 digits, decimals, fractions and signs in
    /// every numeric slot a segment has.
    #[test]
    fn accepted_regex_text_is_finite_and_round_trips(
        segments in proptest::collection::vec(segment(), 1..=3),
    ) {
        let text = segments.concat();
        if let Ok(q) = parse_regex(&text) {
            for v in numbers(&q) {
                prop_assert!(v.is_finite(), "{} holds {}", text, v);
            }
            let canonical = q.to_string();
            let again = parse_regex(&canonical);
            prop_assert!(again.is_ok(), "{} printed as {}: {:?}", text, canonical, again);
            let again = again.unwrap();
            prop_assert_eq!(&again, &q, "{}", canonical);
            prop_assert_eq!(again.to_string(), canonical);
        }
    }
}

/// The lexicon's word lists, from patterns to operators.
const LEXICON: [&[&str]; 11] = [
    lexicon::UP_WORDS,
    lexicon::DOWN_WORDS,
    lexicon::FLAT_WORDS,
    lexicon::PEAK_WORDS,
    lexicon::VALLEY_WORDS,
    lexicon::SHARP_WORDS,
    lexicon::GRADUAL_WORDS,
    lexicon::CONCAT_WORDS,
    lexicon::OR_WORDS,
    lexicon::AND_WORDS,
    lexicon::NOT_WORDS,
];

/// Location words, filler and punctuation.
const GLUE: &[&str] = &[
    "x", "y", "=", "from", "to", "between", "the", "over", "width", "of", "points", "twice", ",",
    ".", "(", ")", "%", "-", "sales",
];

/// One token of generated natural-language text: a lexicon word (twice
/// as likely as the rest), a numeric literal of up to 400 digits, a
/// non-finite number word, or glue.
fn nl_token() -> impl Strategy<Value = String> {
    let word = (0..LEXICON.len(), 0usize..64)
        .prop_map(|(list, at)| LEXICON[list][at % LEXICON[list].len()].to_owned())
        .boxed();
    let non_finite = (0..4usize).prop_map(|i| ["nan", "inf", "infinity", "-inf"][i].to_owned());
    let glue = (0..GLUE.len()).prop_map(|i| GLUE[i].to_owned());
    prop_oneof![word.clone(), word, literal(), non_finite, glue]
}

// Each case translates its text twice; a debug-build translation takes
// milliseconds, so fewer cases than the regex suite.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Word sequences from the lexicon with numbers and punctuation:
    /// translating never panics and is pure (same text, same AST and
    /// notes); an accepted query holds only finite numbers, and its
    /// canonical text re-parses as regex to an equal AST.
    #[test]
    fn nl_translation_is_pure_finite_and_round_trips(
        tokens in proptest::collection::vec(nl_token(), 1..=12),
    ) {
        let text = tokens.join(" ");
        let first = parse_natural_language(&text);
        let again = parse_natural_language(&text);
        match (&first, &again) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(&a.query, &b.query, "{}", text);
                prop_assert_eq!(&a.notes, &b.notes, "{}", text);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string(), "{}", text),
            _ => prop_assert!(false, "{} parsed once as {:?}, then as {:?}", text, first, again),
        }
        if let Ok(parsed) = first {
            let q = parsed.query;
            for v in numbers(&q) {
                prop_assert!(v.is_finite(), "{} holds {}", text, v);
            }
            let canonical = q.to_string();
            let reparsed = parse_regex(&canonical);
            prop_assert!(reparsed.is_ok(), "{} printed as {}: {:?}", text, canonical, reparsed);
            prop_assert_eq!(reparsed.unwrap(), q, "{} printed as {}", text, canonical);
        }
    }
}
