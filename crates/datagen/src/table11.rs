//! The five evaluation datasets of paper Table 11, rebuilt synthetically
//! with identical (#visualizations × length) shapes and comparable shape
//! mixtures, plus the exact fuzzy and non-fuzzy queries the paper issues
//! over each.
//!
//! | Name        | Visualizations | Length |
//! |-------------|---------------:|-------:|
//! | Weather     | 144            | 366    |
//! | Worms       | 258            | 900    |
//! | 50 Words    | 905            | 270    |
//! | Real Estate | 1777           | 138    |
//! | Haptics     | 463            | 1092   |
//!
//! The original UCI / Zillow data is not redistributable here; the
//! generators preserve the drivers the §9 experiments measure (collection
//! size, trendline length, and a mixture of matching/non-matching shapes —
//! each fuzzy query was chosen so at least 20 visualizations have
//! score > 0, which the mixtures guarantee; paper §9).

use crate::generators::{self, gauss, ChartPattern};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use shapesearch_datastore::Trendline;

/// Identifier for a Table-11 dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetId {
    /// 144 × 366 seasonal temperature-like curves.
    Weather,
    /// 258 × 900 motion traces (random walks + motifs).
    Worms,
    /// 905 × 270 word-profile-like piecewise shapes.
    Words50,
    /// 1777 × 138 price trajectories (aggregated from multiple listings).
    RealEstate,
    /// 463 × 1092 haptic gesture traces.
    Haptics,
}

impl DatasetId {
    /// All five datasets in the paper's order.
    pub const ALL: [DatasetId; 5] = [
        DatasetId::Weather,
        DatasetId::Worms,
        DatasetId::Words50,
        DatasetId::RealEstate,
        DatasetId::Haptics,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            DatasetId::Weather => "Weather",
            DatasetId::Worms => "Worms",
            DatasetId::Words50 => "50Words",
            DatasetId::RealEstate => "RealEstate",
            DatasetId::Haptics => "Haptics",
        }
    }

    /// (#visualizations, length) as in Table 11.
    pub fn shape(self) -> (usize, usize) {
        match self {
            DatasetId::Weather => (144, 366),
            DatasetId::Worms => (258, 900),
            DatasetId::Words50 => (905, 270),
            DatasetId::RealEstate => (1777, 138),
            DatasetId::Haptics => (463, 1092),
        }
    }

    /// The fuzzy ShapeQueries of Table 11, in regex syntax.
    pub fn fuzzy_queries(self) -> &'static [&'static str] {
        match self {
            DatasetId::Weather => &[
                "[p=45][p=down][p=up][p=down]",
                "([p=up] | [p=down])[p=flat][p=up][p=down]",
                "[p=flat][p=up][p=down][p=flat]",
            ],
            DatasetId::Worms => &[
                "[p=down]([p=45] | [p=-20])[p=flat]",
                "[p=down][p=45][p=down]",
                "[p=up][p=down][p=up]",
            ],
            DatasetId::Words50 => &[
                "[p=down]([p=up] | ([p=flat][p=down]))",
                "[p=flat][p=up][p=down][p=flat]",
                "([p=up] | [p=down])([p=up] | [p=down])[p=flat]",
            ],
            DatasetId::RealEstate => &[
                "[p=flat][p=down][p=up][p=flat]",
                "[p=up][p=down][p=up][p=flat]",
                "[p=up][p=flat](([p=45][p=60]) | ([p=up][p=down]))",
            ],
            DatasetId::Haptics => &[
                "[p=up][p=down][p=flat][p=up]",
                "[p=down][p=up][p=down][p=flat]",
            ],
        }
    }

    /// The non-fuzzy (fully located) query of Table 11, in regex syntax.
    pub fn non_fuzzy_query(self) -> &'static str {
        match self {
            DatasetId::Weather => {
                "[p{down}, x.s=1, x.e=4][p{up}, x.s=4, x.e=10][p{down}, x.s=10, x.e=12]"
            }
            DatasetId::Worms => "[p{down}, x.s=50, x.e=100]",
            DatasetId::Words50 => "[p{down}, x.s=200, x.e=400][p{up}, x.s=800, x.e=850]",
            DatasetId::RealEstate => {
                "[p{down}, x.s=1, x.e=20][p{up}, x.s=20, x.e=60][p{down}, x.s=60, x.e=138]"
            }
            DatasetId::Haptics => "[p{up}, x.s=60, x.e=80]",
        }
    }

    /// Generates the dataset with the given seed.
    pub fn generate(self, seed: u64) -> Vec<Trendline> {
        match self {
            DatasetId::Weather => weather(seed),
            DatasetId::Worms => worms(seed),
            DatasetId::Words50 => words50(seed),
            DatasetId::RealEstate => real_estate(seed),
            DatasetId::Haptics => haptics(seed),
        }
    }
}

/// Shape motifs mixed into every dataset so each Table-11 query finds
/// matches. Each motif is a list of (width, delta) pieces.
fn motif_pool() -> Vec<Vec<(f64, f64)>> {
    vec![
        // up-down-up and inverses
        vec![(1.0, 1.0), (1.0, -1.0), (1.0, 1.0)],
        vec![(1.0, -1.0), (1.0, 1.0), (1.0, -1.0)],
        // flat-up-down-flat
        vec![(1.0, 0.0), (1.0, 1.0), (1.0, -1.0), (1.0, 0.0)],
        // 45°-down-up-down (the Weather fuzzy query)
        vec![(1.0, 1.0), (1.0, -0.8), (1.0, 0.8), (1.0, -1.0)],
        // down-45°-flat
        vec![(1.0, -1.0), (1.0, 1.0), (1.0, 0.0)],
        // down-(flat-down)
        vec![(1.0, -1.0), (1.0, 0.0), (1.0, -0.8)],
        // up-down-up-flat
        vec![(1.0, 1.0), (1.0, -1.0), (1.0, 1.0), (1.0, 0.0)],
        // flat-down-up-flat (Real Estate)
        vec![(1.0, 0.0), (1.0, -1.0), (1.0, 1.0), (1.0, 0.0)],
        // up-down-flat-up (Haptics)
        vec![(1.0, 1.0), (1.0, -1.0), (1.0, 0.0), (1.0, 1.0)],
        // down-up-down-flat (Haptics)
        vec![(1.0, -1.0), (1.0, 1.0), (1.0, -1.0), (1.0, 0.0)],
        // monotone rises/falls
        vec![(1.0, 1.5)],
        vec![(1.0, -1.5)],
        // near-flat noise
        vec![(1.0, 0.05)],
    ]
}

fn mixture(
    seed: u64,
    count: usize,
    length: usize,
    key_prefix: &str,
    x_hi: f64,
    noise: f64,
) -> Vec<Trendline> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = motif_pool();
    (0..count)
        .map(|i| {
            let motif = &pool[rng.random_range(0..pool.len())];
            // Random per-piece width jitter keeps break points diverse.
            let pieces: Vec<(f64, f64)> = motif
                .iter()
                .map(|&(w, d)| {
                    (
                        w * rng.random_range(0.6..1.6),
                        d * rng.random_range(0.7..1.3),
                    )
                })
                .collect();
            let ys = generators::piecewise(&mut rng, length, &pieces, noise);
            Trendline::from_pairs(
                format!("{key_prefix}{i}"),
                &generators::with_x_range(&ys, 0.0, x_hi),
            )
        })
        .collect()
}

/// Weather: 144 × 366, x in months `[0, 12]`; seasonal curves plus motif
/// mixtures (cities differ in phase and amplitude).
pub fn weather(seed: u64) -> Vec<Trendline> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(144);
    for i in 0..144 {
        let ys = if i % 3 == 0 {
            // Seasonal city: one annual cycle, random hemisphere phase.
            let phase = if rng.random_bool(0.5) {
                0.0
            } else {
                std::f64::consts::PI
            };
            let jitter = rng.random_range(-0.4..0.4);
            generators::seasonal(&mut rng, 366, 1.0, 10.0, phase + jitter, 0.8)
        } else {
            let pool = motif_pool();
            let motif = &pool[rng.random_range(0..pool.len())];
            generators::piecewise(&mut rng, 366, motif, 0.08)
        };
        out.push(Trendline::from_pairs(
            format!("city{i}"),
            &generators::with_x_range(&ys, 0.0, 12.0),
        ));
    }
    out
}

/// Worms: 258 × 900, x indices `[0, 899]`; random walks mixed with motifs.
pub fn worms(seed: u64) -> Vec<Trendline> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37);
    let mut out = mixture(seed, 172, 900, "worm", 899.0, 0.06);
    for i in 172..258 {
        let drift = rng.random_range(-0.02..0.02);
        let ys = generators::random_walk(&mut rng, 900, drift, 0.15);
        out.push(Trendline::from_pairs(
            format!("worm{i}"),
            &generators::with_index_x(&ys),
        ));
    }
    out
}

/// 50 Words: 905 × 270, x `[0, 1000]` (the paper's located query references
/// x up to 850).
pub fn words50(seed: u64) -> Vec<Trendline> {
    mixture(seed ^ 0x50, 905, 270, "word", 1000.0, 0.07)
}

/// Real Estate trendlines: 1777 × 138, x `[0, 138]` (months).
pub fn real_estate(seed: u64) -> Vec<Trendline> {
    mixture(seed ^ 0x11e, 1777, 138, "region", 138.0, 0.05)
}

/// Real Estate as a raw table with **multiple y values per x** (one row per
/// listing), exercising the aggregation path: "Real Estate dataset, unlike
/// the other dataset, has multiple y values per x coordinate, and hence
/// required aggregation (avg) before shape-matching".
pub fn real_estate_table(seed: u64, regions: usize) -> shapesearch_datastore::Table {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7ab1e);
    let base = real_estate(seed);
    let mut series: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
    for t in base.iter().take(regions) {
        let mut rows = Vec::with_capacity(t.points.len() * 3);
        for p in &t.points {
            // 2–4 listings per month scattered around the regional level.
            for _ in 0..rng.random_range(2..=4) {
                rows.push((p.x, p.y + 0.02 * gauss(&mut rng)));
            }
        }
        series.push((t.key.clone(), rows));
    }
    shapesearch_datastore::table_from_series("region", "month", "price", &series)
}

/// Haptics: 463 × 1092, x indices.
pub fn haptics(seed: u64) -> Vec<Trendline> {
    mixture(seed ^ 0x4a7, 463, 1092, "gesture", 1091.0, 0.08)
}

/// Stock-chart dataset used by the examples and the task workloads: a mix
/// of chart patterns and random walks.
pub fn stocks(seed: u64, count: usize, length: usize) -> Vec<Trendline> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x570c);
    let patterns = [
        ChartPattern::DoubleTop,
        ChartPattern::HeadAndShoulders,
        ChartPattern::Cup,
        ChartPattern::WShape,
    ];
    (0..count)
        .map(|i| {
            let ys = if i % 2 == 0 {
                generators::chart_pattern(
                    &mut rng,
                    length,
                    patterns[(i / 2) % patterns.len()],
                    0.04,
                )
            } else {
                let drift = rng.random_range(-0.01..0.01);
                generators::random_walk(&mut rng, length, drift, 0.08)
            };
            Trendline::from_pairs(format!("stock{i}"), &generators::with_index_x(&ys))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapesearch_core::{SegmenterKind, ShapeEngine};
    use shapesearch_parser::parse_regex;

    #[test]
    fn shapes_match_table11() {
        for id in DatasetId::ALL {
            let (count, length) = id.shape();
            let data = id.generate(42);
            assert_eq!(data.len(), count, "{}", id.name());
            assert!(data.iter().all(|t| t.points.len() == length));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = weather(1);
        let b = weather(1);
        assert_eq!(a[0].points, b[0].points);
        let c = weather(2);
        assert_ne!(a[0].points, c[0].points);
    }

    #[test]
    fn queries_parse() {
        for id in DatasetId::ALL {
            for q in id.fuzzy_queries() {
                parse_regex(q).unwrap_or_else(|e| panic!("{q}: {e}"));
            }
            let q = id.non_fuzzy_query();
            let parsed = parse_regex(q).unwrap_or_else(|e| panic!("{q}: {e}"));
            assert!(!parsed.is_fuzzy(), "{q} should be non-fuzzy");
        }
    }

    #[test]
    fn fuzzy_queries_have_enough_matches() {
        // The paper required ≥ 20 visualizations with score > 0 per query.
        // Check the smallest dataset (Weather) on its first query.
        let data = weather(42);
        let engine = ShapeEngine::from_trendlines(data).with_segmenter(SegmenterKind::SegmentTree);
        let q = parse_regex(DatasetId::Weather.fuzzy_queries()[0]).unwrap();
        let results = engine.top_k(&q, 144).unwrap();
        let positives = results.iter().filter(|r| r.score > 0.0).count();
        assert!(positives >= 20, "only {positives} positive matches");
    }

    #[test]
    fn real_estate_table_aggregates() {
        let table = real_estate_table(42, 5);
        // 5 regions × 138 months × 2..4 listings.
        assert!(table.num_rows() > 5 * 138);
        let spec = shapesearch_datastore::VisualSpec::new("region", "month", "price");
        let trends = shapesearch_datastore::extract(&table, &spec, &Default::default()).unwrap();
        assert_eq!(trends.len(), 5);
        assert!(trends.iter().all(|t| t.points.len() == 138));
    }

    #[test]
    fn stocks_have_chart_patterns() {
        let data = stocks(42, 20, 120);
        assert_eq!(data.len(), 20);
        let engine = ShapeEngine::from_trendlines(data);
        // W-shape query should match the W stocks strongly.
        let q = parse_regex("[p=down][p=up][p=down][p=up]").unwrap();
        let top = engine.top_k(&q, 3).unwrap();
        assert!(top[0].score > 0.4, "top score {}", top[0].score);
    }
}
