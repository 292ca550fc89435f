//! The pinned-window column ([`SlopeLeaf::pinned_bounds`]) against the
//! per-candidate computation it replaces: each first-tier bound of a leaf
//! pinned at both ends is `clamp_score(row.at(viz.slope(i, j).atan()))`
//! on the window its pins name in that trendline, to the bit, or — when
//! the window holds no interval — the interval-slope extremes' bound.
//! Collections come from the grid-variant corpus
//! ([`crate::grid_corpus`]): rows shared bitwise, rows on the same
//! canvas but other in raw x (another grid and run, other windows), rows
//! one x off, rows with a NaN y and rows with two x values a nanounit
//! apart (a window whose slope denominator is under 1e-12), among
//! others; pins run past the rows' ends and backwards. One to four
//! shards, bins 1 and 3, each shard's column and all of them joined
//! (several arenas in one column).

use super::*;
use crate::ast::Pattern;
use crate::grid_corpus::{collection_strategy, row, touched, Base, Variant, PINCH};
use crate::{partition_bounds_by_points, ShapeEngine};
use proptest::prelude::*;
use shapesearch_datastore::Trendline;

/// Where a unit's pins go: raw tenths, in either order (so some windows
/// are empty or backwards, some past a short row's end), or onto the
/// first base's pinched pair.
#[derive(Debug, Clone, Copy)]
enum PinsAt {
    Tenths(u32, u32),
    Pinch,
}

/// A chain of one to three pinned units.
fn units_strategy() -> impl Strategy<Value = Vec<(Pattern, PinsAt)>> {
    let pattern = prop_oneof![
        Just(Pattern::Up),
        Just(Pattern::Down),
        Just(Pattern::Flat),
        Just(Pattern::Slope(30.0))
    ];
    let pins = prop_oneof![
        (0u32..200, 0u32..200).prop_map(|(s, e)| PinsAt::Tenths(s, e)),
        (0u32..200, 0u32..200).prop_map(|(s, e)| PinsAt::Tenths(s.min(e), s.max(e))),
        Just(PinsAt::Pinch),
    ];
    proptest::collection::vec((pattern, pins), 1..4)
}

fn query(units: &[(Pattern, PinsAt)], bases: &[Base]) -> ShapeQuery {
    let pinch = touched(&bases[0]) as f64;
    ShapeQuery::concat(
        units
            .iter()
            .map(|(pattern, at)| {
                let (start, end) = match *at {
                    PinsAt::Tenths(s, e) => (f64::from(s) / 10.0, f64::from(e) / 10.0),
                    PinsAt::Pinch => (pinch, pinch + PINCH),
                };
                ShapeQuery::Segment(ShapeSegment::pinned(pattern.clone(), start, end))
            })
            .collect(),
    )
}

/// `tls` cut into `n` shard engines by points, as the engine cuts them.
fn shards_of(tls: &[Trendline], n: usize) -> Vec<ShapeEngine> {
    let counts: Vec<usize> = tls.iter().map(|t| t.points.len()).collect();
    partition_bounds_by_points(&counts, n)
        .into_iter()
        .map(|(start, end)| ShapeEngine::from_trendlines(tls[start..end].to_vec()))
        .collect()
}

/// The per-candidate reference for one pinned leaf: the window resolved
/// on this trendline, its slope, `atan`, the Table 5 row and the clamp.
fn reference(leaf: &BoundPlan, viz: &VizData) -> (f64, f64) {
    let BoundPlan::Slope {
        row,
        mode,
        pins: Some((start, end)),
        ..
    } = *leaf
    else {
        panic!("not a pinned leaf: {leaf:?}");
    };
    let (i, j) = (viz.x_to_index(start), viz.x_to_index(end));
    if j > i {
        (-1.0, clamp_score(row.at(viz.slope(i, j).atan())))
    } else {
        (-1.0, row.bounds(viz, mode).1)
    }
}

/// The pair's bits, so NaN equals itself and `-0.0` is not `0.0`.
fn bits((lo, hi): (f64, f64)) -> (u64, u64) {
    (lo.to_bits(), hi.to_bits())
}

/// Whether a window the pins name in `viz` has a slope denominator under
/// the guard, as `SummaryStats::slope` sees it.
fn degenerate(viz: &VizData, (start, end): (f64, f64)) -> bool {
    let (i, j) = (viz.x_to_index(start), viz.x_to_index(end));
    if j <= i {
        return false;
    }
    let s = viz.range_stats(i, j);
    let n = f64::from(s.n);
    (n * s.sxx - s.sx * s.sx).abs() < 1e-12
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every pinned leaf's column, with one `PinWindows` shared by the
    /// chain's leaves as the plan shares it, equals the per-candidate
    /// reference bit for bit; so does the chain's mean over them.
    #[test]
    fn pinned_columns_match_the_per_candidate_bound(
        (bases, tls) in collection_strategy(),
        units in units_strategy(),
    ) {
        let q = query(&units, &bases);
        let plan = BoundPlan::compile(&q, &ScoreParams::default(), Ends::BOTH);
        // One unit is a leaf, not a chain of one.
        let leaves = match &plan {
            BoundPlan::Concat(leaves) => leaves.as_slice(),
            leaf => std::slice::from_ref(leaf),
        };
        for bin in [1, 3] {
            for n in [1, 3, 4] {
                let shards = shards_of(&tls, n);
                let grouped: Vec<_> = shards.iter().map(|s| s.grouped(bin)).collect();
                let mut columns: Vec<Vec<&VizData>> = grouped
                    .iter()
                    .map(|g| g.iter().flatten().collect())
                    .collect();
                columns.push(columns.concat());
                for column in &columns {
                    let mut windows = EndWindows::default();
                    for (leaf, unit) in leaves.iter().zip(&units) {
                        let got = leaf.bounds(column, &mut windows, false);
                        prop_assert_eq!(got.len(), column.len());
                        for (viz, &bound) in column.iter().zip(&got) {
                            let want = reference(leaf, viz);
                            prop_assert_eq!(
                                bits(bound), bits(want),
                                "#{} {:?} {:?}: {:?} vs {:?}, bin {}, {} shards",
                                viz.source, unit, viz.grid, bound, want, bin, n
                            );
                        }
                    }
                    // The chain's mean, folded in the plan's order.
                    let chain = plan.bounds(column, &mut EndWindows::default(), false);
                    for (viz, bound) in column.iter().zip(chain) {
                        let his = leaves.iter().map(|leaf| reference(leaf, viz).1);
                        let total = his.reduce(|acc, hi| acc + hi).unwrap();
                        let want = match leaves.len() {
                            1 => (-1.0, total),
                            n => (-1.0, total / n as f64),
                        };
                        prop_assert_eq!(bits(bound), bits(want), "#{} chain", viz.source);
                    }
                }
            }
        }
    }
}

/// The suite reaches what it is there for: neighbours equal on the
/// canvas but on two grids, whose pins name different windows, an empty
/// window, a NaN bound and a window whose denominator the guard voids —
/// all on one fixed draw, at bin 1, and the column equals the reference
/// there too.
#[test]
fn the_mixed_collection_holds_every_case_the_kernel_guards() {
    use Variant::{NanY, OneOff, Pinched, Shared, Shifted};
    let bases = [(16, 4)];
    let kinds = [
        Shared, Shifted, Shared, OneOff, NanY, Shifted, Pinched, Shared, Pinched,
    ];
    let tls: Vec<Trendline> = kinds
        .iter()
        .enumerate()
        .map(|(i, &v)| Trendline::from_pairs(format!("t{i}"), &row(&bases[0], v, i as u64)))
        .collect();
    let pinch = touched(&bases[0]) as f64;
    let cases = [(2.0, 9.5), (pinch, pinch + PINCH), (7.0, 3.0), (50.0, 60.0)];
    let engine = ShapeEngine::from_trendlines(tls);
    let grouped = engine.grouped(1);
    let column: Vec<&VizData> = grouped.iter().flatten().collect();
    let (mut shifted_apart, mut empty, mut nan, mut flat) = (false, false, false, false);
    for (start, end) in cases {
        let q = ShapeQuery::Segment(ShapeSegment::pinned(Pattern::Up, start, end));
        let leaf = BoundPlan::compile(&q, &ScoreParams::default(), Ends::BOTH);
        let got = leaf.bounds(&column, &mut EndWindows::default(), false);
        for (pair, &bound) in column.windows(2).zip(&got[1..]) {
            let [a, b] = [pair[0], pair[1]];
            let window = |v: &VizData| (v.x_to_index(start), v.x_to_index(end));
            shifted_apart |= a.xs() == b.xs() && a.grid != b.grid && window(a) != window(b);
            empty |= window(b).1 <= window(b).0;
            nan |= bound.1.is_nan();
            flat |= degenerate(b, (start, end));
        }
        for (viz, &bound) in column.iter().zip(&got) {
            assert_eq!(bits(bound), bits(reference(&leaf, viz)), "#{}", viz.source);
        }
    }
    assert!(
        shifted_apart && empty && nan && flat,
        "{shifted_apart} {empty} {nan} {flat}"
    );
}
