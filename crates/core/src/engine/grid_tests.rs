//! Grid identity: the point table numbers the raw x rows, GROUP opens
//! one x run per grid and hands the run to its handles as their grid,
//! and a query resolves what its pins name once a grid ([`GridMemo`]).
//! These tests hold that to the per-trendline computation it replaces,
//! on the grid-variant corpus ([`crate::grid_corpus`]): rows shared
//! bitwise, rows equal on the canvas but other in raw x (shifted, a
//! `-0.0`), rows one x or one ulp apart, prefixes, duplicate and NaN x
//! values. The ids and the runs split them exactly by bitwise equality,
//! a value memoised per grid equals the per-viz call, and located and
//! mixed answers are byte-identical to a run where every trendline has
//! a grid of its own — on eager and snapshot-opened engines, one to four
//! shards, bins 1 and 3.

use super::*;
use crate::ast::ShapeSegment;
use crate::engine::pushdown::covers_ranges;
use crate::grid_corpus::{build, collection_strategy, row, Variant};
use crate::snapshot;
use proptest::prelude::*;
use shapesearch_datastore::Trendline;

/// 1–3 units left to right, pins in tenths (most off the integer grid,
/// some past a short row's end); one unit in four is fuzzy, so a draw is
/// located or mixed.
fn query_strategy() -> impl Strategy<Value = ShapeQuery> {
    let pattern = prop_oneof![
        Just(Pattern::Up),
        Just(Pattern::Down),
        Just(Pattern::Flat),
        Just(Pattern::Slope(30.0))
    ];
    let segment = (pattern, 0u32..30, 10u32..150, 0u8..4);
    (0u32..60, proptest::collection::vec(segment, 1..4)).prop_map(|(origin, segments)| {
        let mut at = origin;
        let units = segments
            .into_iter()
            .map(|(pattern, gap, width, fuzzy)| {
                let (start, end) = (at + gap, at + gap + width);
                at = end;
                ShapeQuery::Segment(if fuzzy == 0 {
                    ShapeSegment::pattern(pattern)
                } else {
                    let tenths = |x: u32| f64::from(x) / 10.0;
                    ShapeSegment::pinned(pattern, tenths(start), tenths(end))
                })
            })
            .collect();
        ShapeQuery::concat(units)
    })
}

fn bits(x: f64) -> u64 {
    x.to_bits()
}

fn same_row(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bits(*x) == bits(*y))
}

/// Gives every handle of `engine`'s cached GROUP run at `bin` a grid of
/// its own (its slot): the engine then resolves pins per candidate.
fn one_grid_per_viz(engine: &ShapeEngine, bin: usize) {
    let own: Vec<Option<VizData>> = engine
        .grouped(bin)
        .iter()
        .map(|v| {
            v.clone().map(|mut v| {
                v.grid = v.slot() as u32;
                v
            })
        })
        .collect();
    for (width, run) in engine.cache().iter_mut() {
        if *width == bin {
            *run = Arc::new(own.clone());
        }
    }
}

/// `shards` fed one `SharedThresholds` in order, their partials merged:
/// every byte of the answer (keys, score bits, indices, ranges), then
/// what the pruning driver decided — the counters, not their timing.
fn answer(shards: &[ShapeEngine], q: &ShapeQuery, k: usize, opts: &EngineOptions) -> String {
    let shared = SharedThresholds::new(1);
    let partials = shards
        .iter()
        .map(|s| {
            s.top_k_batch_observed(&[(q, k)], opts, &shared, &NOOP_OBSERVER)
                .pop()
                .unwrap()
                .unwrap()
        })
        .collect();
    let snap = shared.snapshot();
    let results: String = shard::merge_topk(partials, k)
        .iter()
        .map(|r| {
            format!(
                "{} {:x} {} {:?};",
                r.key,
                bits(r.score),
                r.viz_index,
                r.ranges
            )
        })
        .collect();
    format!(
        "{results} bounded {} pruned {} scored {} refined {} joined {}",
        snap.bounded, snap.pruned, snap.scored, snap.refined, snap.joined
    )
}

/// The collection cut into `n` shard engines, eagerly or from a
/// snapshot, whose engines GROUP the mapped raw columns.
fn shards_of(tls: &[Trendline], n: usize, from: Option<&Collection>) -> Vec<ShapeEngine> {
    let counts: Vec<usize> = tls.iter().map(|t| t.points.len()).collect();
    shard::partition_bounds_by_points(&counts, n)
        .into_iter()
        .map(|(start, end)| match from {
            Some(snap) => snap.partition(start, end),
            None => ShapeEngine::from_trendlines(tls[start..end].to_vec()).with_base_index(start),
        })
        .collect()
}

/// A snapshot of `tls` in a temporary file, removed on drop (a failing
/// case included).
struct Written(std::path::PathBuf);

impl Written {
    fn new(name: &str, tls: &[Trendline]) -> Self {
        let path = std::env::temp_dir().join(format!("ss-grid-{}-{name}", std::process::id()));
        snapshot::write(&path, &Collection::from_trendlines(tls)).unwrap();
        Self(path)
    }

    fn open(&self) -> Collection {
        snapshot::open(&self.0).unwrap()
    }
}

impl Drop for Written {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Probes for `x_to_index`: on the integer grid, between its points, on
/// a shifted row's points and past both ends.
const PROBES: [f64; 9] = [-1.0, 0.0, 0.5, 1.25, 2.0, 3.0, 4.1, 17.5, 60.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Ids are dense from 0 in source order and name exactly the bitwise
    /// equal rows, as do the arena's x runs, and each id is its handle's
    /// run; push-down (a)'s verdict and `x_to_index` memoised per grid
    /// equal the per-viz calls.
    #[test]
    fn grids_split_rows_by_bits_and_memos_match_the_per_viz_call(
        (_, tls) in collection_strategy(),
        q in query_strategy(),
    ) {
        let engine = ShapeEngine::from_trendlines(tls);
        let ranges = q.pinned_x_ranges();
        for bin in [1, 3] {
            let grouped = engine.grouped(bin);
            let live: Vec<&VizData> = grouped.iter().flatten().collect();
            let mut next = 0;
            for v in &live {
                prop_assert!(v.grid <= next, "id {} after {} ids", v.grid, next);
                next = next.max(v.grid + 1);
            }
            let row = |v: &VizData| engine.points.row(v.source).0;
            let run = |v: &VizData| v.arena().run(v.slot());
            for a in &live {
                prop_assert_eq!(a.grid as usize, run(a), "#{}", a.source);
                for b in &live {
                    let equal = same_row(row(a), row(b));
                    prop_assert_eq!(a.grid == b.grid, equal, "#{} and #{}", a.source, b.source);
                    prop_assert_eq!(run(a) == run(b), equal, "#{} and #{}", a.source, b.source);
                }
            }
            let mut covered = GridMemo::default();
            let mut indices = GridMemo::default();
            for v in &live {
                let once = covered.get(v, (), || covers_ranges(row(v), &ranges));
                prop_assert_eq!(once, covers_ranges(row(v), &ranges), "#{}", v.source);
                for x in PROBES {
                    let once = indices.get(v, bits(x), || v.x_to_index(x));
                    prop_assert_eq!(once, v.x_to_index(x), "#{} at {}", v.source, x);
                }
            }
        }
    }

    /// Located and mixed answers with pins resolved once a grid are the
    /// answers with pins resolved per candidate, byte for byte, and so are
    /// the pruning driver's decisions (the bounds are the same bits):
    /// eager and snapshot-opened, 1, 3 and 4 shards, bins 1 and 3, the DP
    /// and the SegmentTree under pruning.
    #[test]
    fn answers_match_a_run_with_a_grid_per_trendline(
        (_, tls) in collection_strategy(),
        q in query_strategy(),
        k in 1usize..6,
        tree in 0u8..2,
    ) {
        let segmenter = [SegmenterKind::Dp, SegmenterKind::SegmentTree][tree as usize];
        let file = Written::new("answers", &tls);
        let snap = file.open();
        for bin in [1, 3] {
            let opts = EngineOptions {
                segmenter,
                bin_width: bin,
                ..EngineOptions::default()
            };
            for n in [1, 3, 4] {
                for from in [None, Some(&snap)] {
                    let shared = shards_of(&tls, n, from);
                    let own = shards_of(&tls, n, from);
                    own.iter().for_each(|s| one_grid_per_viz(s, bin));
                    let want = answer(&own, &q, k, &opts);
                    let snapshot = from.is_some();
                    prop_assert_eq!(
                        answer(&shared, &q, k, &opts),
                        want,
                        "{} shards, bin {}, snapshot {}", n, bin, snapshot
                    );
                }
            }
        }
    }
}

/// Eager GROUP and GROUP over a snapshot's mapped rows number the same
/// rows alike — the whole collection and every shard of it, at bins 1
/// and 3 — with GROUP-rejected rows (one point, an infinite y) among
/// them.
#[test]
fn eager_group_and_snapshot_open_assign_the_same_grids() {
    let bases = [(12, 3), (7, 1)];
    let mut tls = build(
        &bases,
        &[
            (0, 0, 1),
            (1, 0, 2),
            (0, 1, 3),
            (0, 0, 4),
            (0, 2, 5),
            (1, 3, 6),
            (1, 0, 7),
            (0, 3, 8),
            (0, 1, 9),
        ],
    );
    tls.insert(2, Trendline::from_pairs("one", &[(0.0, 1.0)]));
    let mut infinite = row(&bases[0], Variant::Shared, 10);
    infinite[4].1 = f64::INFINITY;
    tls.insert(5, Trendline::from_pairs("inf", &infinite));
    let grids = |engine: &ShapeEngine, bin: usize| -> Vec<Option<u32>> {
        engine
            .grouped(bin)
            .iter()
            .map(|v| v.as_ref().map(|v| v.grid))
            .collect()
    };
    let file = Written::new("same", &tls);
    let snap = file.open();
    for bin in [1, 3] {
        let whole = grids(&ShapeEngine::from_trendlines(tls.clone()), bin);
        assert_eq!(
            grids(&snap.partition(0, tls.len()), bin),
            whole,
            "bin {bin}"
        );
        // Shared, shifted, one-off and duplicate rows on two bases, less
        // the rejected: at bin 1, six grids among nine live rows.
        if bin == 1 {
            let ids: Vec<u32> = whole.iter().flatten().copied().collect();
            assert_eq!(ids, [0, 1, 2, 0, 3, 4, 1, 5, 2]);
        }
        for n in [3, 4] {
            let eager = shards_of(&tls, n, None);
            let opened = shards_of(&tls, n, Some(&snap));
            for (e, o) in eager.iter().zip(&opened) {
                assert_eq!(grids(o, bin), grids(e, bin), "bin {bin}, {n} shards");
            }
        }
    }
}
