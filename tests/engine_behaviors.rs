//! Engine-level behaviours: option interplay (pruning, push-down,
//! binning), OR fan-out fallbacks, built-in UDPs through the engine, and
//! determinism guarantees.

use shapesearch::prelude::*;
use shapesearch_core::{Pattern, ShapeQuery};
use shapesearch_datastore::Trendline;

fn mixed_collection(n: usize) -> Vec<Trendline> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use shapesearch::datagen::generators;
    let mut rng = StdRng::seed_from_u64(99);
    (0..n)
        .map(|i| {
            let ys = match i % 4 {
                0 => generators::piecewise(&mut rng, 40, &[(1.0, 1.0), (1.0, -1.0)], 0.05),
                1 => generators::piecewise(&mut rng, 40, &[(1.0, -1.0), (1.0, 1.0)], 0.05),
                2 => generators::piecewise(&mut rng, 40, &[(1.0, 1.2)], 0.05),
                _ => generators::random_walk(&mut rng, 40, 0.0, 0.1),
            };
            Trendline::from_pairs(format!("v{i}"), &generators::with_index_x(&ys))
        })
        .collect()
}

#[test]
fn repeated_runs_are_identical() {
    let engine = ShapeEngine::from_trendlines(mixed_collection(24));
    let q = parse_regex("[p=up][p=down]").unwrap();
    let a = engine.top_k(&q, 8).unwrap();
    let b = engine.top_k(&q, 8).unwrap();
    assert_eq!(a, b);
}

#[test]
fn wide_or_fanout_still_answers() {
    // 4 × 4 OR alternatives exceed the chain-expansion cap; the engine must
    // fall back to opaque evaluation and still return sound results.
    let or4 = "([p=up] | [p=down] | [p=flat] | [p=45])";
    let q = parse_regex(&format!("{or4}{or4}{or4}{or4}")).unwrap();
    let engine = ShapeEngine::from_trendlines(mixed_collection(16));
    let results = engine.top_k(&q, 4).unwrap();
    assert!(!results.is_empty());
    for r in &results {
        assert!((-1.0..=1.0).contains(&r.score));
    }
}

#[test]
fn builtin_udps_through_engine() {
    let mut engine = ShapeEngine::from_trendlines(mixed_collection(24));
    engine.register_builtin_udps();
    for name in ["concave", "convex", "v_shape", "spike", "entropy_low"] {
        let q = parse_regex(&format!("[p=udp:{name}]")).unwrap();
        let results = engine.top_k(&q, 3).unwrap();
        assert!(!results.is_empty(), "{name} returned nothing");
    }
    // v_shape should surface the down-up members (i % 4 == 1).
    let q = parse_regex("[p=udp:v_shape]").unwrap();
    let top = engine.top_k(&q, 1).unwrap();
    let idx: usize = top[0].key[1..].parse().unwrap();
    assert_eq!(idx % 4, 1, "top v_shape was {}", top[0].key);
}

#[test]
fn k_larger_than_collection_is_fine() {
    let engine = ShapeEngine::from_trendlines(mixed_collection(5));
    let q = parse_regex("[p=up]").unwrap();
    let results = engine.top_k(&q, 50).unwrap();
    assert_eq!(results.len(), 5);
    // k = 0 yields nothing.
    assert!(engine.top_k(&q, 0).unwrap().is_empty());
}

#[test]
fn empty_collection_yields_empty_results() {
    let engine = ShapeEngine::from_trendlines(Vec::new());
    let q = parse_regex("[p=up]").unwrap();
    assert!(engine.top_k(&q, 3).unwrap().is_empty());
}

#[test]
fn scores_are_monotone_in_rank() {
    let engine = ShapeEngine::from_trendlines(mixed_collection(32));
    for text in ["[p=up][p=down]", "[p=flat]", "[p=up] | [p=down]"] {
        let q = parse_regex(text).unwrap();
        let results = engine.top_k(&q, 10).unwrap();
        for w in results.windows(2) {
            assert!(w[0].score >= w[1].score, "{text}: {results:?}");
        }
    }
}

#[test]
fn nested_pattern_through_engine() {
    let engine = ShapeEngine::from_trendlines(mixed_collection(24));
    let q = ShapeQuery::pattern(Pattern::Nested(Box::new(ShapeQuery::concat(vec![
        ShapeQuery::up(),
        ShapeQuery::down(),
    ]))));
    let results = engine.top_k(&q, 4).unwrap();
    // Peak members (i % 4 == 0) should dominate.
    let peak_hits = results
        .iter()
        .take(2)
        .filter(|r| r.key[1..].parse::<usize>().unwrap() % 4 == 0)
        .count();
    assert!(peak_hits >= 1, "{results:?}");
}
