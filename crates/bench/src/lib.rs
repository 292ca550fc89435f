//! # shapesearch-bench
//!
//! The harness that regenerates every table and figure of the
//! ShapeSearch evaluation (paper §9 and §7.3). The experiment logic lives
//! here; the `figures` binary prints it.
//!
//! Experiment index (paper §9):
//!
//! * [`fig10_runtimes`] — Figure 10: average runtime of DP / DTW / Greedy /
//!   SegmentTree / SegmentTree+Pruning over the five datasets.
//! * [`fig11_pushdown`] — Figure 11: non-fuzzy query runtime with and
//!   without push-down optimizations.
//! * [`fig12_accuracy`] — Figure 12: top-k accuracy (and kth-score
//!   deviation) of Greedy / SegmentTree / DTW against the DP ground truth.
//! * [`fig13a_points`], [`fig13b_segments`], [`fig13c_visualizations`] —
//!   Figure 13: runtime scaling in points, ShapeSegments, and collection
//!   size.
//! * [`fig9a_scoring`] — Figure 9a (red series) / §7.3: scoring-function
//!   effectiveness versus DTW and Euclidean on the Table-10 tasks.
//! * [`crf_quality`] — §4: cross-validated entity-tagging quality.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use shapesearch_core::{
    EngineOptions, PruningMode, SegmenterKind, ShapeEngine, ShapeQuery, TopKResult,
};
use shapesearch_datagen::{table11::DatasetId, tasks, TaskKind};
use shapesearch_datastore::Trendline;
use shapesearch_parser::parse_regex;
use std::time::{Duration, Instant};

/// Default dataset seed for all experiments (deterministic).
pub const SEED: u64 = 42;

/// A benchmarked algorithm: a segmenter under a §6.3 pruning mode.
pub type Algo = (SegmenterKind, PruningMode);

/// The algorithms compared in Figure 10/12/13, in the paper's order.
/// "Segment Tree" vs "Segment Tree with Pruning" is one segmenter under
/// two pruning modes; Greedy runs unpruned, the paper's baseline; every
/// other row runs under the engine's default.
pub const FIG10_ALGOS: [(Algo, &str); 5] = [
    ((SegmenterKind::Dp, PruningMode::Auto), "DP"),
    ((SegmenterKind::Dtw, PruningMode::Auto), "DTW"),
    ((SegmenterKind::Greedy, PruningMode::Off), "Greedy"),
    (
        (SegmenterKind::SegmentTree, PruningMode::Off),
        "Segment Tree",
    ),
    (
        (SegmenterKind::SegmentTree, PruningMode::Auto),
        "Segment Tree with Pruning",
    ),
];

/// Builds an engine running the given algorithm over owned trendlines.
pub fn engine(trendlines: Vec<Trendline>, (segmenter, pruning_mode): Algo) -> ShapeEngine {
    ShapeEngine::from_trendlines(trendlines).with_options(EngineOptions {
        segmenter,
        pruning_mode,
        ..EngineOptions::default()
    })
}

/// Parses a regex query, panicking on error (queries here are static).
pub fn query(text: &str) -> ShapeQuery {
    parse_regex(text).unwrap_or_else(|e| panic!("bad query `{text}`: {e}"))
}

/// Runs one query and returns (elapsed, top-k results).
pub fn timed_top_k(engine: &ShapeEngine, q: &ShapeQuery, k: usize) -> (Duration, Vec<TopKResult>) {
    let start = Instant::now();
    let results = engine.top_k(q, k).expect("query execution");
    (start.elapsed(), results)
}

/// Top-k accuracy: the fraction of `candidate`'s top-k keys present in the
/// reference (DP) top-k — the Figure-12 metric ("the number of
/// visualizations picked by the algorithm that are also present in the top
/// k visualizations selected by DP").
pub fn topk_accuracy(reference: &[TopKResult], candidate: &[TopKResult], k: usize) -> f64 {
    let k = k.min(reference.len()).min(candidate.len());
    if k == 0 {
        return 0.0;
    }
    let ref_keys: Vec<&str> = reference[..k].iter().map(|r| r.key.as_str()).collect();
    let hits = candidate[..k]
        .iter()
        .filter(|r| ref_keys.contains(&r.key.as_str()))
        .count();
    hits as f64 / k as f64
}

/// Average % deviation of the k-th score versus the optimal k-th score
/// (the Figure-12 annotations).
pub fn kth_score_deviation(reference: &[TopKResult], candidate: &[TopKResult], k: usize) -> f64 {
    let k = k.min(reference.len()).min(candidate.len());
    if k == 0 {
        return 0.0;
    }
    let opt = reference[k - 1].score;
    let got = candidate[k - 1].score;
    if opt.abs() < 1e-9 {
        return 0.0;
    }
    100.0 * (opt - got).abs() / opt.abs()
}

/// A dataset subset for faster experiment variants: the first
/// `max(count × scale, 8)` visualizations.
pub fn scaled(data: Vec<Trendline>, scale: f64) -> Vec<Trendline> {
    if scale >= 1.0 {
        return data;
    }
    let keep = ((data.len() as f64 * scale) as usize)
        .max(8)
        .min(data.len());
    data.into_iter().take(keep).collect()
}

/// One row of Figure 10: dataset name then per-algorithm mean runtimes.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Dataset name.
    pub dataset: &'static str,
    /// (algorithm name, mean runtime over the dataset's fuzzy queries).
    pub runtimes: Vec<(&'static str, Duration)>,
}

/// Figure 10: average running time of the five algorithms over each
/// dataset's fuzzy queries. `scale` subsamples the collections (1.0 = the
/// paper's full sizes).
pub fn fig10_runtimes(scale: f64, k: usize) -> Vec<Fig10Row> {
    DatasetId::ALL
        .iter()
        .map(|&id| {
            let data = scaled(id.generate(SEED), scale);
            let queries: Vec<ShapeQuery> = id.fuzzy_queries().iter().map(|q| query(q)).collect();
            let runtimes = FIG10_ALGOS
                .iter()
                .map(|&(kind, name)| {
                    let eng = engine(data.clone(), kind);
                    let mut total = Duration::ZERO;
                    for q in &queries {
                        let (t, _) = timed_top_k(&eng, q, k);
                        total += t;
                    }
                    (name, total / queries.len() as u32)
                })
                .collect();
            Fig10Row {
                dataset: id.name(),
                runtimes,
            }
        })
        .collect()
}

/// One row of Figure 11.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Dataset name.
    pub dataset: &'static str,
    /// Runtime without push-down optimizations.
    pub without: Duration,
    /// Runtime with push-down optimizations.
    pub with: Duration,
}

/// Figure 11: non-fuzzy query runtime with and without the §5.4 push-down
/// optimizations.
pub fn fig11_pushdown(scale: f64, k: usize) -> Vec<Fig11Row> {
    DatasetId::ALL
        .iter()
        .map(|&id| {
            let data = scaled(id.generate(SEED), scale);
            let q = query(id.non_fuzzy_query());
            let mut opts = EngineOptions {
                segmenter: SegmenterKind::SegmentTree,
                ..EngineOptions::default()
            };
            opts.pushdown = false;
            let eng_off = ShapeEngine::from_trendlines(data.clone()).with_options(opts.clone());
            opts.pushdown = true;
            let eng_on = ShapeEngine::from_trendlines(data).with_options(opts);
            let (t_off, _) = timed_top_k(&eng_off, &q, k);
            let (t_on, _) = timed_top_k(&eng_on, &q, k);
            Fig11Row {
                dataset: id.name(),
                without: t_off,
                with: t_on,
            }
        })
        .collect()
}

/// One cell of Figure 12.
#[derive(Debug, Clone)]
pub struct Fig12Cell {
    /// Algorithm name.
    pub algorithm: &'static str,
    /// k (number of output visualizations).
    pub k: usize,
    /// Top-k accuracy vs DP, in percent.
    pub accuracy_pct: f64,
    /// kth-score deviation vs DP, in percent.
    pub deviation_pct: f64,
}

/// Figure 12: accuracy (vs the DP ground truth) of Greedy / SegmentTree /
/// DTW for k ∈ `ks`, averaged over the dataset's fuzzy queries.
pub fn fig12_accuracy(id: DatasetId, scale: f64, ks: &[usize]) -> Vec<Fig12Cell> {
    let data = scaled(id.generate(SEED), scale);
    let queries: Vec<ShapeQuery> = id.fuzzy_queries().iter().map(|q| query(q)).collect();
    let k_max = ks.iter().copied().max().unwrap_or(20);

    let dp = engine(data.clone(), (SegmenterKind::Dp, PruningMode::Auto));
    let reference: Vec<Vec<TopKResult>> = queries
        .iter()
        .map(|q| dp.top_k(q, k_max).expect("dp"))
        .collect();

    let algos = [
        (SegmenterKind::Greedy, "Greedy"),
        (SegmenterKind::SegmentTree, "Segment Tree"),
        (SegmenterKind::Dtw, "DTW"),
    ];
    let mut cells = Vec::new();
    for (kind, name) in algos {
        let eng = engine(data.clone(), (kind, PruningMode::Auto));
        let results: Vec<Vec<TopKResult>> = queries
            .iter()
            .map(|q| eng.top_k(q, k_max).expect("algo"))
            .collect();
        for &k in ks {
            let (mut acc, mut dev) = (0.0, 0.0);
            for (r, c) in reference.iter().zip(&results) {
                acc += topk_accuracy(r, c, k);
                dev += kth_score_deviation(r, c, k);
            }
            cells.push(Fig12Cell {
                algorithm: name,
                k,
                accuracy_pct: 100.0 * acc / queries.len() as f64,
                deviation_pct: dev / queries.len() as f64,
            });
        }
    }
    cells
}

/// A runtime series point for the Figure-13 sweeps.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The swept parameter value (points / segments / visualizations).
    pub x: usize,
    /// (algorithm name, runtime).
    pub runtimes: Vec<(&'static str, Duration)>,
}

/// Algorithms shown in Figure 13.
pub const FIG13_ALGOS: [(Algo, &str); 3] = [
    ((SegmenterKind::Dp, PruningMode::Auto), "DP"),
    (
        (SegmenterKind::SegmentTree, PruningMode::Off),
        "Segment Tree",
    ),
    (
        (SegmenterKind::SegmentTree, PruningMode::Auto),
        "Segment Tree with Pruning",
    ),
];

/// Figure 13a: runtime vs number of points per visualization (prefixes of
/// the Worms dataset), query u⊗d⊗u⊗d.
pub fn fig13a_points(point_counts: &[usize], scale: f64, k: usize) -> Vec<SweepPoint> {
    let full = scaled(DatasetId::Worms.generate(SEED), scale);
    let q = query("[p=up][p=down][p=up][p=down]");
    point_counts
        .iter()
        .map(|&n| {
            let data: Vec<Trendline> = full
                .iter()
                .map(|t| Trendline {
                    key: t.key.clone(),
                    points: t.points.iter().take(n).copied().collect(),
                })
                .collect();
            let runtimes = FIG13_ALGOS
                .iter()
                .map(|&(kind, name)| {
                    let eng = engine(data.clone(), kind);
                    let (t, _) = timed_top_k(&eng, &q, k);
                    (name, t)
                })
                .collect();
            SweepPoint { x: n, runtimes }
        })
        .collect()
}

/// Figure 13b: runtime vs number of ShapeSegments (alternating up/down) on
/// the Weather dataset.
pub fn fig13b_segments(segment_counts: &[usize], scale: f64, k: usize) -> Vec<SweepPoint> {
    let data = scaled(DatasetId::Weather.generate(SEED), scale);
    segment_counts
        .iter()
        .map(|&kseg| {
            let parts: Vec<String> = (0..kseg)
                .map(|i| if i % 2 == 0 { "[p=up]" } else { "[p=down]" }.to_owned())
                .collect();
            let q = query(&parts.concat());
            let runtimes = FIG13_ALGOS
                .iter()
                .map(|&(kind, name)| {
                    let eng = engine(data.clone(), kind);
                    let (t, _) = timed_top_k(&eng, &q, k);
                    (name, t)
                })
                .collect();
            SweepPoint { x: kseg, runtimes }
        })
        .collect()
}

/// Figure 13c: runtime vs number of visualizations (subsets of Real
/// Estate), query u⊗d⊗u⊗d.
pub fn fig13c_visualizations(viz_counts: &[usize], k: usize) -> Vec<SweepPoint> {
    let full = DatasetId::RealEstate.generate(SEED);
    let q = query("[p=up][p=down][p=up][p=down]");
    viz_counts
        .iter()
        .map(|&n| {
            let data: Vec<Trendline> = full.iter().take(n).cloned().collect();
            let runtimes = FIG13_ALGOS
                .iter()
                .map(|&(kind, name)| {
                    let eng = engine(data.clone(), kind);
                    let (t, _) = timed_top_k(&eng, &q, k);
                    (name, t)
                })
                .collect();
            SweepPoint { x: n, runtimes }
        })
        .collect()
}

/// One row of the scoring-effectiveness experiment (Fig 9a red series).
#[derive(Debug, Clone)]
pub struct Fig9aRow {
    /// Task symbol (ET, SQ, ...).
    pub task: &'static str,
    /// (matcher name, precision@gold in percent).
    pub accuracy: Vec<(&'static str, f64)>,
}

/// Figure 9a (§7.3): scoring-function effectiveness of ShapeSearch (DP)
/// versus DTW and Euclidean on the seven Table-10 tasks with planted ground
/// truth, averaged over `repeats` seeded instances.
pub fn fig9a_scoring(n: usize, length: usize, repeats: u64) -> Vec<Fig9aRow> {
    let matchers = [
        (SegmenterKind::Dp, "ShapeSearch (DP)"),
        (SegmenterKind::Dtw, "DTW"),
        (SegmenterKind::Euclidean, "Euclidean"),
    ];
    TaskKind::ALL
        .iter()
        .map(|&kind| {
            let accuracy = matchers
                .iter()
                .map(|&(seg, name)| {
                    let mut total = 0.0;
                    for rep in 0..repeats {
                        let task = tasks::generate(kind, n, length, SEED + rep);
                        let eng = engine(task.trendlines.clone(), (seg, PruningMode::Auto));
                        let results = eng
                            .top_k(&task.query, task.positives.len())
                            .expect("task query");
                        let keys: Vec<String> = results.into_iter().map(|r| r.key).collect();
                        total += tasks::precision_at_gold(&task, &keys);
                    }
                    (name, 100.0 * total / repeats as f64)
                })
                .collect();
            Fig9aRow {
                task: kind.symbol(),
                accuracy,
            }
        })
        .collect()
}

/// §4 CRF quality: cross-validated precision / recall / F1 on the synthetic
/// corpus (the paper reports F1 = 81%, P = 73%, R = 90%).
pub fn crf_quality(corpus_size: usize, folds: usize) -> (f64, f64, f64) {
    let report = shapesearch_parser::cross_validate_corpus(corpus_size, folds, SEED);
    (
        report.macro_precision(),
        report.macro_recall(),
        report.macro_f1(),
    )
}

/// One row of the bridge ablation.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Dataset name.
    pub dataset: &'static str,
    /// Mean score gap to DP with bridge combinations enabled.
    pub with_bridges_gap: f64,
    /// Mean score gap to DP with bridges disabled (dyadic-only breaks).
    pub without_bridges_gap: f64,
}

/// Ablation of the SegmentTree *bridge* rule (paper §6.2; the kernel is
/// described in `docs/ARCHITECTURE.md`, "SegmentTree kernel"):
/// bridges let a unit span a node midpoint; without them break points are
/// restricted to dyadic positions. Reports the mean score gap to the DP
/// optimum over the dataset's first fuzzy query, per visualization.
pub fn bridge_ablation(scale: f64) -> Vec<AblationRow> {
    use shapesearch_core::algo::segment_tree::SegmentTreeSegmenter;
    use shapesearch_core::algo::{dp::DpSegmenter, Segmenter};
    use shapesearch_core::chain::expand_chains;
    use shapesearch_core::{Evaluator, ScoreParams, UdpRegistry, VizData};

    let params = ScoreParams::default();
    let udps = UdpRegistry::new();
    DatasetId::ALL
        .iter()
        .map(|&id| {
            let data = scaled(id.generate(SEED), scale);
            let q = query(id.fuzzy_queries()[0]);
            let chains = expand_chains(&q);
            let (mut gap_with, mut gap_without, mut count) = (0.0, 0.0, 0);
            for (i, t) in data.iter().enumerate() {
                let Some(viz) = VizData::from_trendline(t, i, 1) else {
                    continue;
                };
                let ev = Evaluator::new(&viz, &params, &udps);
                let dp = DpSegmenter.match_viz(&ev, &chains).score;
                let with = SegmentTreeSegmenter::default()
                    .match_viz(&ev, &chains)
                    .score;
                let without = SegmentTreeSegmenter::without_bridges()
                    .match_viz(&ev, &chains)
                    .score;
                gap_with += dp - with;
                gap_without += dp - without;
                count += 1;
            }
            AblationRow {
                dataset: id.name(),
                with_bridges_gap: gap_with / count.max(1) as f64,
                without_bridges_gap: gap_without / count.max(1) as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_metrics() {
        let mk = |keys: &[&str]| -> Vec<TopKResult> {
            keys.iter()
                .enumerate()
                .map(|(i, k)| TopKResult {
                    key: (*k).to_owned(),
                    score: 1.0 - i as f64 * 0.1,
                    viz_index: i,
                    ranges: Vec::new(),
                })
                .collect()
        };
        let reference = mk(&["a", "b", "c", "d"]);
        let perfect = mk(&["b", "a", "c", "d"]);
        assert_eq!(topk_accuracy(&reference, &perfect, 4), 1.0);
        let half = mk(&["a", "x", "b", "y"]);
        assert_eq!(topk_accuracy(&reference, &half, 4), 0.5);
        assert_eq!(topk_accuracy(&reference, &half, 0), 0.0);
        // Deviation: reference kth = 0.7, candidate kth = 0.7 → 0%.
        assert_eq!(kth_score_deviation(&reference, &perfect, 4), 0.0);
    }

    #[test]
    fn scaled_subsets() {
        let data = DatasetId::Weather.generate(SEED);
        assert_eq!(scaled(data.clone(), 1.0).len(), 144);
        assert_eq!(scaled(data.clone(), 0.25).len(), 36);
        assert_eq!(scaled(data, 0.0).len(), 8);
    }

    #[test]
    fn fig10_smoke() {
        let rows = fig10_runtimes(0.06, 5);
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert_eq!(row.runtimes.len(), 5);
        }
    }

    #[test]
    fn fig11_smoke() {
        let rows = fig11_pushdown(0.06, 5);
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn fig12_smoke() {
        let cells = fig12_accuracy(DatasetId::RealEstate, 0.02, &[2, 5]);
        assert_eq!(cells.len(), 6); // 3 algorithms × 2 k values
        for c in &cells {
            assert!((0.0..=100.0).contains(&c.accuracy_pct), "{c:?}");
        }
        // At this smoke scale only sanity is checked; the SegmentTree ≥
        // Greedy ordering is a full-scale statistical claim verified by the
        // `figures -- fig12` experiment.
        let avg = |name: &str| {
            let v: Vec<f64> = cells
                .iter()
                .filter(|c| c.algorithm == name)
                .map(|c| c.accuracy_pct)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(
            avg("Segment Tree") > 20.0,
            "tree accuracy {}",
            avg("Segment Tree")
        );
    }

    #[test]
    fn fig13_smoke() {
        let pts = fig13a_points(&[50, 100], 0.04, 5);
        assert_eq!(pts.len(), 2);
        let segs = fig13b_segments(&[2, 3], 0.06, 5);
        assert_eq!(segs.len(), 2);
        let vizzes = fig13c_visualizations(&[20, 40], 5);
        assert_eq!(vizzes.len(), 2);
    }

    #[test]
    fn fig9a_smoke() {
        let rows = fig9a_scoring(16, 48, 1);
        assert_eq!(rows.len(), 7);
        for row in &rows {
            assert_eq!(row.accuracy.len(), 3);
        }
    }
}
