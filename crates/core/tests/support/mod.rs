//! Test support for the suites that hold answers to their bytes: the one
//! corpus strategy, the one query grammar, the one rendering of an
//! outcome and the one case count. `crates/core/tests/*.rs` include it as
//! `mod support;`, the root `tests/*.rs` through `#[path]`.

// Each suite uses its own part of this module.
#![allow(dead_code)]

use proptest::prelude::*;
use shapesearch_core::{
    merge_topk, partition_bounds_by_points, EngineOptions, Location, Modifier, NoopObserver,
    Pattern, Result, ShapeEngine, ShapeQuery, ShapeSegment, SharedThresholds, TopKResult,
};
use shapesearch_datastore::Trendline;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cases each suite over [`corpus`] and [`query`] draws.
pub const CASES: u32 = 48;

/// The raw x gap of a pinched row's two close points: a window over them
/// has a slope denominator under the `1e-12` guard.
const PINCH: f64 = 1e-9;

/// Every built-in UDP name; every engine under test registers them all.
const UDPS: [&str; 8] = [
    "concave",
    "convex",
    "exponential",
    "logarithmic",
    "entropy_high",
    "entropy_low",
    "v_shape",
    "spike",
];

/// One row before its base grid is known: a shape (0 noise, 1–3 walk,
/// 4 constant, 5 two points, 6 a row GROUP rejects), its base, how its
/// xs derive from the base grid `0, 1, …, n − 1` (0–2 the grid itself,
/// shared bitwise; 3 plus 3, the same canvas on other raw x; 4 one
/// interior x a quarter step right; 5 an interior x repeated by the next
/// point; 6 the next x moved to [`PINCH`] past it), 40 drawn values, and
/// where a NaN y goes (one row in six).
type RowDraw = (u8, usize, u8, Vec<f64>, (u8, usize));

fn row((shape, base, grid, values, (nan, nan_at)): &RowDraw, bases: &[usize]) -> Vec<(f64, f64)> {
    let n = bases[base % bases.len()];
    let mut points: Vec<(f64, f64)> = match shape {
        0 => (0..n).map(|t| (t as f64, 10.0 * values[t])).collect(),
        1..=3 => (0..n)
            .scan(0.0, |y, t| {
                *y += values[t];
                Some((t as f64, *y))
            })
            .collect(),
        4 => (0..n).map(|t| (t as f64, values[0] / 20.0)).collect(),
        5 => vec![(0.0, values[0]), (1.0, values[1])],
        _ => (0..usize::from(values[0] > 0.0))
            .map(|t| (t as f64, values[1]))
            .collect(),
    };
    let len = points.len();
    if len >= 4 {
        let at = 1 + nan_at % (len - 3);
        match grid {
            3 => points.iter_mut().for_each(|p| p.0 += 3.0),
            4 => points[at].0 += 0.25,
            5 => points[at + 1].0 = points[at].0,
            6 => points[at + 1].0 = points[at].0 + PINCH,
            _ => {}
        }
    }
    if *nan == 0 && len > 0 {
        points[nan_at % len].1 = f64::NAN;
    }
    points
}

/// A corpus of 2–15 drawn rows on one to three base grids of 3–27 points:
/// noise, walks, constants, two-point rows and rows GROUP rejects (none
/// or one point), some with a NaN y, on x grids shared bitwise, shifted
/// by 3, one x off, with a duplicate x or pinched to [`PINCH`]. Then
/// exact ties: up to three copies of drawn rows put back at drawn places,
/// every third row (from a drawn offset, half the time) made the straight
/// line between its ends, and one time in four the whole collection again
/// behind itself.
pub fn corpus() -> impl Strategy<Value = Vec<Trendline>> {
    let row_draw = (
        0u8..7,
        0usize..3,
        0u8..7,
        proptest::collection::vec(-100.0f64..100.0, 40),
        (0u8..6, 0usize..64),
    );
    (
        proptest::collection::vec(3usize..28, 1..4),
        proptest::collection::vec(row_draw, 2..16),
        proptest::collection::vec((0usize..64, 0usize..64), 0..4),
        0usize..6,
        0u8..4,
    )
        .prop_map(|(bases, rows, copies, straight, twice)| {
            let mut series: Vec<Vec<(f64, f64)>> = rows.iter().map(|r| row(r, &bases)).collect();
            for points in series
                .iter_mut()
                .skip(straight)
                .step_by(3)
                .filter(|_| straight < 3)
            {
                if let (Some(&(_, first)), Some(&(_, last))) = (points.first(), points.last()) {
                    let span = points.len() as f64 - 1.0;
                    for (t, p) in points.iter_mut().enumerate() {
                        p.1 = first + (last - first) * t as f64 / span;
                    }
                }
            }
            for &(from, to) in &copies {
                let copy = series[from % series.len()].clone();
                series.insert(to % (series.len() + 1), copy);
            }
            if twice == 0 {
                series.extend_from_within(..);
            }
            series
                .iter()
                .enumerate()
                .map(|(i, points)| Trendline::from_pairs(format!("t{i}"), points))
                .collect()
        })
}

/// A ShapeQuery AST, a third of the time each: an operator tree up to
/// three deep over [`leaf`] — CONCAT flattened and nested, AND, OR and
/// NOT —, a chain of two to six free slope units (the queries the third
/// bound tier places whole), or a [`laid`] chain of pinned units.
pub fn query() -> impl Strategy<Value = ShapeQuery> {
    let tree = leaf().prop_recursive(3, 12, 3, |inner| {
        let parts = || proptest::collection::vec(inner.clone(), 2..4);
        let pair = || proptest::collection::vec(inner.clone(), 2..3);
        prop_oneof![
            parts().prop_map(ShapeQuery::concat),
            parts().prop_map(ShapeQuery::Concat),
            pair().prop_map(ShapeQuery::And),
            pair().prop_map(ShapeQuery::Or),
            inner.prop_map(|q| ShapeQuery::Not(Box::new(q))),
        ]
    });
    let free = proptest::collection::vec(slope().prop_map(ShapeQuery::pattern), 2..7)
        .prop_map(ShapeQuery::concat);
    prop_oneof![tree, free, laid()]
}

/// 1–3 slope units laid left to right from an origin, abutting or a gap
/// apart, each pinned at both ends but one draw in four left fuzzy: the
/// located chains a served dataset is asked (`[x.s=a, x.e=b, p=down]
/// [x.s=b, x.e=c, p=up]`). Pins are in tenths, so most are off-grid, and
/// a long chain runs past a row's end.
fn laid() -> impl Strategy<Value = ShapeQuery> {
    let gap = prop_oneof![Just(0u32), 1u32..40];
    let unit = (slope(), gap, 20u32..140, 0u8..4);
    (0u32..80, proptest::collection::vec(unit, 1..4)).prop_map(|(mut at, units)| {
        let tenths = |t: u32| f64::from(t) / 10.0;
        let parts = units.into_iter().map(|(pattern, gap, width, fuzzy)| {
            let start = at + gap;
            at = start + width;
            ShapeQuery::Segment(if fuzzy == 0 {
                ShapeSegment::pattern(pattern)
            } else {
                ShapeSegment::pinned(pattern, tenths(start), tenths(at))
            })
        });
        ShapeQuery::concat(parts.collect())
    })
}

/// The four Table 5 rows, θ on either side of flat and on and past the
/// ±90° clamp.
fn slope() -> impl Strategy<Value = Pattern> {
    prop_oneof![
        Just(Pattern::Up),
        Just(Pattern::Down),
        Just(Pattern::Flat),
        (-89.0f64..89.0).prop_map(Pattern::Slope),
        Just(Pattern::Slope(90.0)),
        Just(Pattern::Slope(120.0)),
        Just(Pattern::Slope(-135.0)),
    ]
}

/// One segment: a slope row (most of the time), `*`, a built-in UDP or a
/// sketch; one in seven with a MODIFIER, one in five x-pinned or given
/// an ITERATOR width, one in eight y-pinned.
pub fn leaf() -> impl Strategy<Value = ShapeQuery> {
    let slope_segment = || slope().prop_map(ShapeSegment::pattern);
    let body = prop_oneof![
        slope_segment(),
        slope_segment(),
        slope_segment(),
        slope_segment(),
        slope_segment(),
        Just(ShapeSegment::pattern(Pattern::Any)),
        (0..UDPS.len()).prop_map(|i| ShapeSegment::pattern(Pattern::Udp(UDPS[i].into()))),
        proptest::collection::vec((0.0f64..30.0, -100.0f64..100.0), 2..6).prop_map(|mut pts| {
            pts.sort_by(|a, b| a.0.total_cmp(&b.0));
            ShapeSegment {
                sketch: Some(pts),
                ..ShapeSegment::default()
            }
        }),
    ];
    let modifier = prop_oneof![
        Just(Modifier::More(None)),
        Just(Modifier::MuchMore),
        Just(Modifier::Less(None)),
        Just(Modifier::MuchLess),
        (1u32..4).prop_map(Modifier::exactly),
        (1u32..3).prop_map(Modifier::at_least),
        (1u32..4).prop_map(Modifier::at_most),
    ];
    // x in tenths, over and past every base grid, shifted ones included:
    // pins at both ends, backwards, past a row's end, at one end.
    let x = || (0u32..320).prop_map(|t| f64::from(t) / 10.0);
    let both = || (x(), x()).prop_map(|(a, b)| (Some(a.min(b)), Some(a.max(b)), None));
    let x_pins = prop_oneof![
        both(),
        both(),
        both(),
        (x(), x()).prop_map(|(a, b)| (Some(a.max(b)), Some(a.min(b)), None)),
        (x(), x()).prop_map(|(a, b)| (Some(a), Some(30.0 + b), None)),
        x().prop_map(|a| (Some(a), None, None)),
        x().prop_map(|b| (None, Some(b), None)),
        (0.5f64..12.0).prop_map(|w| (None, None, Some(w))),
    ];
    let y = || -100.0f64..100.0;
    let y_pins = prop_oneof![
        (y(), y()).prop_map(|(a, b)| (Some(a), Some(b))),
        y().prop_map(|a| (Some(a), None)),
        y().prop_map(|b| (None, Some(b))),
    ];
    let (modifier, x_pins, y_pins) = (
        sometimes(modifier.prop_map(Some), None, 7),
        sometimes(x_pins, (None, None, None), 5),
        sometimes(y_pins, (None, None), 8),
    );
    (body, modifier, x_pins, y_pins).prop_map(
        |(mut seg, modifier, (x_start, x_end, width), (y_start, y_end))| {
            seg.modifier = modifier;
            seg.location = Location {
                x_start,
                x_end,
                y_start,
                y_end,
            };
            if let Some(width) = width {
                seg = seg.with_width(width);
            }
            ShapeQuery::Segment(seg)
        },
    )
}

/// One draw in `one_in` from `some`, `none` otherwise.
fn sometimes<T: Clone + 'static>(
    some: impl Strategy<Value = T> + 'static,
    none: T,
    one_in: u32,
) -> impl Strategy<Value = T> {
    (0..one_in, some).prop_map(move |(draw, some)| if draw == 0 { some } else { none.clone() })
}

/// Engines with every built-in UDP registered.
pub fn with_udps(engines: impl IntoIterator<Item = ShapeEngine>) -> Vec<ShapeEngine> {
    engines
        .into_iter()
        .map(|mut engine| {
            engine.register_builtin_udps();
            engine
        })
        .collect()
}

/// `tls` cut into (at most) `shards` engines by
/// `partition_bounds_by_points`, each keeping its slice's global offset:
/// the slices a server's catalog serves.
pub fn eager_shards(tls: &[Trendline], shards: usize) -> Vec<ShapeEngine> {
    let counts: Vec<usize> = tls.iter().map(|t| t.points.len()).collect();
    with_udps(
        partition_bounds_by_points(&counts, shards)
            .into_iter()
            .map(|(start, end)| {
                ShapeEngine::from_trendlines(tls[start..end].to_vec()).with_base_index(start)
            }),
    )
}

/// Runs `batch` at `k` on each of `shards` in the order given, under one
/// `SharedThresholds`, and merges each query's partials with
/// `merge_topk`, as a server does. A query's error is the same on every
/// shard, so the first one stands.
pub fn run(
    shards: &[&ShapeEngine],
    batch: &[&ShapeQuery],
    k: usize,
    options: &EngineOptions,
) -> Vec<Result<Vec<TopKResult>>> {
    let items: Vec<(&ShapeQuery, usize)> = batch.iter().map(|&q| (q, k)).collect();
    let shared = SharedThresholds::new(items.len());
    let mut outcomes: Vec<_> = shards
        .iter()
        .map(|shard| {
            shard
                .top_k_batch_observed(&items, options, &shared, &NoopObserver)
                .into_iter()
        })
        .collect();
    items
        .iter()
        .map(|_| {
            let partials: Result<Vec<_>> = outcomes.iter_mut().map(|o| o.next().unwrap()).collect();
            partials.map(|partials| merge_topk(partials, k))
        })
        .collect()
}

/// Results as bytes: per result its key, index, score bits and ranges.
/// Bits, so `-0.0` against `0.0` and a NaN's sign show.
pub fn render(results: &[TopKResult]) -> String {
    results
        .iter()
        .map(|r| {
            let bits = r.score.to_bits();
            format!("{}:{}:{bits:016x}:{:?}", r.key, r.viz_index, r.ranges)
        })
        .collect::<Vec<_>>()
        .join(";")
}

/// One query's outcome as bytes: [`render`]'s, or the error text.
pub fn render_outcome(outcome: &Result<Vec<TopKResult>>) -> String {
    match outcome {
        Ok(results) => render(results),
        Err(e) => format!("error: {e}"),
    }
}

/// A fresh path in the temp directory for a snapshot file.
pub fn unique_path() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "ss-test-{}-{}.snap",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}
