//! End-to-end integration tests: CSV/JSON → EXTRACT → parse (NL/regex) →
//! engine → top-k, spanning every crate in the workspace.

use shapesearch::prelude::*;
use shapesearch_core::{EngineOptions, PruningMode, SegmenterKind};

fn sales_csv() -> &'static str {
    "\
product,week,sales
peak_a,1,10\npeak_a,2,25\npeak_a,3,45\npeak_a,4,30\npeak_a,5,12
peak_b,1,5\npeak_b,2,18\npeak_b,3,40\npeak_b,4,22\npeak_b,5,8
rise,1,5\nrise,2,12\nrise,3,20\nrise,4,30\nrise,5,42
fall,1,40\nfall,2,31\nfall,3,22\nfall,4,12\nfall,5,4
flatline,1,20\nflatline,2,21\nflatline,3,20\nflatline,4,19\nflatline,5,20
"
}

#[test]
fn csv_to_topk_with_regex() {
    let table = shapesearch::datastore::csv::read_str(sales_csv()).unwrap();
    let spec = VisualSpec::new("product", "week", "sales");
    let engine = ShapeEngine::new(&table, &spec).unwrap();

    let q = parse_regex("[p=up][p=down]").unwrap();
    let results = engine.top_k(&q, 2).unwrap();
    let keys: Vec<&str> = results.iter().map(|r| r.key.as_str()).collect();
    assert!(
        keys.contains(&"peak_a") && keys.contains(&"peak_b"),
        "{keys:?}"
    );

    // Per-visualization normalization (canvas or z-score, §5.3) rescales a
    // near-constant series so its noise fills the canvas — so `flat` cannot
    // distinguish "flatline" from a symmetric peak, but it must rank the
    // clearly sloped series last.
    let q = parse_regex("[p=flat]").unwrap();
    let all = engine.top_k(&q, 5).unwrap();
    let bottom: Vec<&str> = all[3..].iter().map(|r| r.key.as_str()).collect();
    assert!(
        bottom.contains(&"rise") && bottom.contains(&"fall"),
        "{all:?}"
    );

    let q = parse_regex("[p=up]").unwrap();
    assert_eq!(engine.top_k(&q, 1).unwrap()[0].key, "rise");
}

#[test]
fn json_lines_round_trip() {
    let mut lines = String::new();
    for (z, pts) in [("up", [1.0, 2.0, 3.0, 4.0]), ("down", [4.0, 3.0, 2.0, 1.0])] {
        for (i, y) in pts.iter().enumerate() {
            lines.push_str(&format!("{{\"g\":\"{z}\",\"t\":{i},\"v\":{y}}}\n"));
        }
    }
    let table = shapesearch::datastore::json::read_str(&lines).unwrap();
    let engine = ShapeEngine::new(&table, &VisualSpec::new("g", "t", "v")).unwrap();
    let best = engine.top_k(&parse_regex("[p=up]").unwrap(), 1).unwrap();
    assert_eq!(best[0].key, "up");
}

#[test]
fn nl_and_regex_agree_on_genomics_query() {
    let nl = parse_natural_language(
        "show me genes that are rising, then going down, and then increasing",
    )
    .unwrap();
    let re = parse_regex("[p=up][p=down][p=up]").unwrap();
    assert_eq!(nl.query, re);
}

#[test]
fn nl_query_executes_like_regex() {
    let table = shapesearch::datastore::csv::read_str(sales_csv()).unwrap();
    let spec = VisualSpec::new("product", "week", "sales");
    let engine = ShapeEngine::new(&table, &spec).unwrap();

    let nl = parse_natural_language("products that are rising then falling").unwrap();
    let re = parse_regex("[p=up][p=down]").unwrap();
    assert_eq!(nl.query, re);
    let a = engine.top_k(&nl.query, 3).unwrap();
    let b = engine.top_k(&re, 3).unwrap();
    assert_eq!(a, b);
}

#[test]
fn all_segmenters_run_table11_queries() {
    use shapesearch::datagen::table11::DatasetId;
    // Small subsets keep this fast while exercising every algorithm on
    // every dataset's first fuzzy query and the non-fuzzy query.
    for id in DatasetId::ALL {
        let data: Vec<_> = id.generate(7).into_iter().take(12).collect();
        for kind in [
            SegmenterKind::Dp,
            SegmenterKind::SegmentTree,
            SegmenterKind::Greedy,
            SegmenterKind::Dtw,
            SegmenterKind::Euclidean,
        ] {
            let engine = ShapeEngine::from_trendlines(data.clone()).with_segmenter(kind);
            let fq = parse_regex(id.fuzzy_queries()[0]).unwrap();
            let r = engine.top_k(&fq, 5).unwrap();
            assert!(!r.is_empty(), "{kind:?} on {} fuzzy", id.name());
            let nq = parse_regex(id.non_fuzzy_query()).unwrap();
            let r = engine.top_k(&nq, 5);
            assert!(r.is_ok(), "{kind:?} on {} non-fuzzy", id.name());
        }
    }
}

#[test]
fn segment_tree_close_to_dp_on_real_mixtures() {
    use shapesearch::datagen::table11::DatasetId;
    let data: Vec<_> = DatasetId::RealEstate
        .generate(7)
        .into_iter()
        .take(40)
        .collect();
    let q = parse_regex("[p=up][p=down][p=up][p=down]").unwrap();
    let dp = ShapeEngine::from_trendlines(data.clone()).with_segmenter(SegmenterKind::Dp);
    let tree = ShapeEngine::from_trendlines(data).with_segmenter(SegmenterKind::SegmentTree);
    let top_dp = dp.top_k(&q, 10).unwrap();
    let top_tree = tree.top_k(&q, 10).unwrap();
    let dp_keys: Vec<&str> = top_dp.iter().map(|r| r.key.as_str()).collect();
    let overlap = top_tree
        .iter()
        .filter(|r| dp_keys.contains(&r.key.as_str()))
        .count();
    assert!(overlap >= 7, "tree/dp top-10 overlap only {overlap}");
    // Tree never exceeds the optimal score.
    assert!(top_tree[0].score <= top_dp[0].score + 1e-9);
}

#[test]
fn pruned_run_preserves_top_k() {
    use shapesearch::datagen::table11::DatasetId;
    let data: Vec<_> = DatasetId::Words50
        .generate(9)
        .into_iter()
        .take(60)
        .collect();
    let q = parse_regex("[p=flat][p=up][p=down][p=flat]").unwrap();
    let tree = |pruning_mode| EngineOptions {
        segmenter: SegmenterKind::SegmentTree,
        pruning_mode,
        ..EngineOptions::default()
    };
    let plain = ShapeEngine::from_trendlines(data.clone()).with_options(tree(PruningMode::Off));
    let pruned = ShapeEngine::from_trendlines(data).with_options(tree(PruningMode::Auto));
    let a = plain.top_k(&q, 5).unwrap();
    let b = pruned.top_k(&q, 5).unwrap();
    let ka: Vec<&str> = a.iter().map(|r| r.key.as_str()).collect();
    let kb: Vec<&str> = b.iter().map(|r| r.key.as_str()).collect();
    assert_eq!(ka, kb);
}

#[test]
fn sketch_pipeline_matches_drawn_shape() {
    use shapesearch::parser::sketch::{sketch_to_pattern_query, Canvas};
    let canvas = Canvas {
        width: 100.0,
        height: 100.0,
        x_domain: (1.0, 5.0),
        y_domain: (0.0, 50.0),
    };
    // Draw a peak (pixel y grows downward).
    let stroke: Vec<(f64, f64)> = (0..=10)
        .map(|i| {
            let x = i as f64 * 10.0;
            let y = if i <= 5 {
                90.0 - 16.0 * i as f64
            } else {
                10.0 + 16.0 * (i - 5) as f64
            };
            (x, y)
        })
        .collect();
    let q = sketch_to_pattern_query(&stroke, &canvas, 0.12).unwrap();
    assert_eq!(q.to_string(), "[p=up][p=down]");

    let table = shapesearch::datastore::csv::read_str(sales_csv()).unwrap();
    let engine = ShapeEngine::new(&table, &VisualSpec::new("product", "week", "sales")).unwrap();
    let top = engine.top_k(&q, 1).unwrap();
    assert!(top[0].key.starts_with("peak"));
}

#[test]
fn filters_flow_through_extract() {
    let table = shapesearch::datastore::csv::read_str(sales_csv()).unwrap();
    let spec = VisualSpec::new("product", "week", "sales").with_filter(Predicate::new(
        "product",
        CompareOp::Ne,
        "fall",
    ));
    let engine = ShapeEngine::new(&table, &spec).unwrap();
    let q = parse_regex("[p=down]").unwrap();
    let results = engine.top_k(&q, 5).unwrap();
    assert!(results.iter().all(|r| r.key != "fall"));
}

#[test]
fn aggregation_dataset_end_to_end() {
    // The Real-Estate-style table with multiple listings per month.
    let table = shapesearch::datagen::table11::real_estate_table(3, 8);
    let spec = VisualSpec::new("region", "month", "price").with_aggregation(Aggregation::Avg);
    let engine = ShapeEngine::new(&table, &spec).unwrap();
    let q = parse_regex("[p=up] | [p=down]").unwrap();
    let results = engine.top_k(&q, 3).unwrap();
    assert_eq!(results.len(), 3);
    assert!(results[0].score >= results[1].score);
}
