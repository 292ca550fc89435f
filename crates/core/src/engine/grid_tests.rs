//! Grid identity: GROUP numbers the raw x rows ([`group::Grids`]) and a
//! query resolves what its pins name once a grid ([`GridMemo`]). These
//! tests hold that to the per-trendline computation it replaces, on
//! collections that mix rows shared bitwise, rows equal on the canvas but
//! shifted in raw x, rows one x apart and rows with duplicate x values:
//! the ids split them exactly by bitwise equality, a value memoised per
//! grid equals the per-viz call, and located and mixed answers are
//! byte-identical to a run where every trendline has a grid of its own —
//! on eager and snapshot-opened engines, one to four shards, bins 1 and 3.

use super::*;
use crate::ast::ShapeSegment;
use crate::engine::pushdown::covers_ranges;
use crate::snapshot::{self, Snapshot};
use proptest::prelude::*;
use shapesearch_datastore::Trendline;

/// How a trendline's x row derives from its base grid.
#[derive(Debug, Clone, Copy)]
enum Variant {
    /// The base row itself: shared bitwise.
    Shared,
    /// The base row plus 3: the same canvas, other raw x.
    Shifted,
    /// The base row with one interior x moved a quarter step right.
    OneOff,
    /// The base row with one x repeated in place of the next.
    Duplicate,
}

/// A base grid: `n` integer xs from 0, the point `at` is where a variant
/// touches it.
type Base = (usize, usize);

fn x_row(&(n, at): &Base, variant: Variant) -> Vec<f64> {
    let mut xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let at = 1 + at % (n - 2);
    match variant {
        Variant::Shared => {}
        Variant::Shifted => xs.iter_mut().for_each(|x| *x += 3.0),
        Variant::OneOff => xs[at] += 0.25,
        Variant::Duplicate => xs[at] = xs[at - 1],
    }
    xs
}

/// A seeded walk over `xs` (64-bit LCG steps in `[−1, 1)`).
fn walk_over(xs: &[f64], seed: u64) -> Vec<(f64, f64)> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut y = 0.0;
    xs.iter()
        .map(|&x| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            y += ((state >> 33) as f64) / ((1u64 << 31) as f64) - 1.0;
            (x, y)
        })
        .collect()
}

fn build(bases: &[Base], members: &[(usize, u8, u64)]) -> Vec<Trendline> {
    const VARIANTS: [Variant; 4] = [
        Variant::Shared,
        Variant::Shifted,
        Variant::OneOff,
        Variant::Duplicate,
    ];
    members
        .iter()
        .enumerate()
        .map(|(i, &(base, variant, seed))| {
            let xs = x_row(&bases[base % bases.len()], VARIANTS[variant as usize % 4]);
            Trendline::from_pairs(format!("t{i}"), &walk_over(&xs, seed))
        })
        .collect()
}

/// One to three base grids of 6–40 points, and 4–24 trendlines on them;
/// half of the trendlines share their base row bitwise.
fn collection_strategy() -> impl Strategy<Value = Vec<Trendline>> {
    let variant = prop_oneof![Just(0u8), Just(0u8), Just(0u8), 1u8..4];
    (
        proptest::collection::vec((6usize..40, 0usize..40), 1..4),
        proptest::collection::vec((0usize..3, variant, 0u64..1_000), 4..24),
    )
        .prop_map(|(bases, members)| build(&bases, &members))
}

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

/// The collection cut into `n` shard engines, eagerly or from a snapshot
/// written at `bin` — the second GROUP path, whose handles the snapshot
/// load builds.
fn shards_of(tls: &[Trendline], n: usize, from: Option<&Snapshot>) -> Vec<ShapeEngine> {
    let counts: Vec<usize> = tls.iter().map(|t| t.points.len()).collect();
    shard::partition_bounds_by_points(&counts, n)
        .into_iter()
        .map(|(start, end)| match from {
            Some(snap) => snap.partition(start, end),
            None => ShapeEngine::from_trendlines(tls[start..end].to_vec()).with_base_index(start),
        })
        .collect()
}

/// A snapshot of `tls` at `bin` in a temporary file, removed on drop
/// (a failing case included).
struct Written(std::path::PathBuf);

impl Written {
    fn new(name: &str, tls: &[Trendline], bin: usize) -> Self {
        let path = std::env::temp_dir().join(format!("ss-grid-{}-{name}", std::process::id()));
        snapshot::write(&path, tls, bin).unwrap();
        Self(path)
    }

    fn open(&self) -> Snapshot {
        Snapshot::open(&self.0).unwrap()
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
    /// equal rows; push-down (a)'s verdict and `x_to_index` memoised per
    /// grid equal the per-viz calls.
    #[test]
    fn grids_split_rows_by_bits_and_memos_match_the_per_viz_call(
        tls in collection_strategy(),
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
            for a in &live {
                for b in &live {
                    let equal = same_row(row(a), row(b));
                    prop_assert_eq!(a.grid == b.grid, equal, "#{} and #{}", a.source, b.source);
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
        tls in collection_strategy(),
        q in query_strategy(),
        k in 1usize..6,
        tree in 0u8..2,
    ) {
        let segmenter = [SegmenterKind::Dp, SegmenterKind::SegmentTree][tree as usize];
        for bin in [1, 3] {
            let opts = EngineOptions {
                segmenter,
                bin_width: bin,
                ..EngineOptions::default()
            };
            let file = Written::new(&format!("b{bin}"), &tls, bin);
            let snap = file.open();
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

/// Eager GROUP and a snapshot load number the same rows alike — the
/// whole collection and every shard of it, at the snapshot's bin width —
/// with GROUP-rejected rows (one point, an infinite y) among them.
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
    let mut infinite = walk_over(&x_row(&bases[0], Variant::Shared), 10);
    infinite[4].1 = f64::INFINITY;
    tls.insert(5, Trendline::from_pairs("inf", &infinite));
    let grids = |engine: &ShapeEngine, bin: usize| -> Vec<Option<u32>> {
        engine
            .grouped(bin)
            .iter()
            .map(|v| v.as_ref().map(|v| v.grid))
            .collect()
    };
    for bin in [1, 3] {
        let file = Written::new(&format!("same-{bin}"), &tls, bin);
        let snap = file.open();
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
