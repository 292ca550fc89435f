//! Columnar (structure-of-arrays) GROUP state and batched window kernels.
//!
//! The per-viz `Vec`-of-structs [`StatsIndex`](crate::stats::StatsIndex)
//! answers one range query at a time through struct fields that sit 40
//! bytes apart in memory. The scoring hot path, however, asks the same
//! question for *runs* of candidate windows — every DP inner loop, every
//! quantifier scan, and the GROUP-time slope extremes walk adjacent
//! windows in order. [`ColumnarArena`] stores the whole collection's
//! post-GROUP state as contiguous columns (`xs`, `ys`, and the prefix
//! sums `sum_x`/`sum_y`/`sum_xy`/`sum_xx` of §5.3's summarized
//! statistics) so those runs become branch-light streaming loops over
//! flat `f64` slices — the shape the compiler auto-vectorizes without
//! any intrinsics (`ssbench`'s `columnar.windows_per_s` keeps the claim
//! honest).
//!
//! ## Bit-for-bit contract
//!
//! Every kernel reproduces the scalar reference arithmetic exactly:
//! prefix columns are accumulated in the same operation order as
//! [`StatsIndex::new`](crate::stats::StatsIndex::new), range statistics
//! are the same per-field `hi − lo` subtraction, and slopes apply
//! [`SummaryStats::slope`](crate::stats::SummaryStats::slope)'s guards
//! (`n < 2` and `|denom| < 1e-12` → 0) with identical operand order. The
//! same IEEE operations in the same order produce the same bits, so an
//! engine running on columnar state returns byte-identical `top_k*`
//! results to the per-viz index it replaced (`tests/columnar_prop.rs`
//! holds every kernel to that index over the shared test corpus, and
//! `tests/shape_matrix.rs` holds the answers alike across segmenters,
//! shard counts, pruning modes and snapshot-cut engines).
//!
//! That holds for a kernel that hoists work out of its loop too: what it
//! takes once is a value every lane would have computed with the same
//! operations on the same bits. `ColumnarArena::window_slope_column`
//! slopes one window across a column of trendlines on one x run: the
//! window's x side (`Σx`, `n`, the denominator and its guard) is the
//! run's, taken once, and each lane loads
//! only its own `Σy`/`Σxy` — the same `hi − lo` subtractions and the same
//! `(n·Σxy − Σx·Σy) / denom`, so each slope is
//! [`ColumnarArena::slope`]'s for that trendline and window, bit for bit
//! (`algo::pruning`'s `column_tests` hold it to the per-candidate call).
//!
//! ## Memory layout
//!
//! One arena holds V visualizations totalling P canvas points. Three of
//! a point's columns — `xs`, `sum_x` and `sum_xx` — depend on canvas x
//! alone, so they are stored once per raw x grid (an *x run*): U runs
//! totalling X points, and each viz names its run.
//!
//! ```text
//! column                len            read by
//! xs                    len X          x_to_index (pins, push-down), width penalty
//! sum_x, sum_xx         len X + U      every slope: GROUP's extremes, the pinned
//!                                      tier-1 column, the DP and SegmentTree kernels
//! run_starts            len U + 1      every x-side read (run offsets)
//! runs                  len V          every x-side read (per-viz run: its grid)
//! ys                    len P          UDPs, sketches, whole-series baselines
//! sum_y, sum_xy         len P + V      every slope, as sum_x and sum_xx
//! point_starts          len V + 1      every y-side read (per-viz point offsets)
//! node_angles           len V cells    a scored whole-viz SegmentTree of k ≥ 2 units;
//!                                      a cell's 2n − 3 angles are built on that read
//! ```
//!
//! A viz shares a run with every other viz whose raw x row is bitwise
//! equal (`-0.0` is not `0.0`; a NaN equals itself): the point table
//! numbers those rows once (`PointTable`'s grids), and GROUP opens one
//! run per grid at its first accepted row (`ArenaBuilder::push_run`),
//! so a viz's run is its grid. Canvas xs are a function of the raw xs
//! and the bin width alone, so a run's `xs`/`sum_x`/`sum_xx` are the
//! bits each viz of it would have computed, and sharing changes no
//! statistic. On a collection with one x grid — 1,000 walks of 128
//! points — GROUP leaves ≈ 3 `f64` a point: 1,567,112 bytes a 500-viz
//! shard, where an angle column built at GROUP made it 2,571,120, and
//! per-viz x columns besides 4,108,016. The slope extremes the §6.3
//! bound reads are not a column: `ArenaBuilder::push_viz` returns
//! them, and GROUP keeps them in each viz's handle only.
//!
//! The prefix columns carry one extra leading zero per run (x side) or
//! per viz (y side), so viz `v`'s x prefix run starts at
//! `run_starts[r] + r` for its run `r`, its y prefix run at
//! `point_starts[v] + v`, and each holds `n + 1` entries. Statistics over
//! the inclusive point range `[i, j]` are then a per-column
//! `prefix[j + 1] − prefix[i]` — O(1), with the four subtractions
//! sitting in four independent streams.
//!
//! A viz's `node_angles` cell holds, once built, the fitted angle
//! `atan(slope(lo, hi))` of every node of the implicit SegmentTree over
//! `[0, n − 1]` ([`crate::algo::segment_tree`]), in preorder: the node
//! over `[lo, hi]` at index `i` has, when `hi − lo > 1` and `mid = lo +
//! (hi − lo) / 2`, its left child `[lo, mid]` at `i + 1` and its right
//! child `[mid, hi]` at `i + 2·(mid − lo)`. A tree over `n ≥ 2` points
//! has `2n − 3` nodes; a viz with fewer points has an empty run. Those
//! angles depend on the trendline only, so a scored tree reads them
//! instead of taking an `atan` per node per query. §6.3's pruning leaves
//! most trendlines unscored, so GROUP builds none: each cell is a
//! `OnceLock` filled the first time [`ColumnarArena::node_angles`] is
//! asked for it and kept, and `byte_size` counts the empty cells only
//! (the built runs are [`ColumnarArena::angle_run_bytes`]).
//!
//! ## From EXTRACT to an engine
//!
//! EXTRACT's output has one layout, [`Collection`]: the keys plus flat
//! raw x and y columns with row starts — the columns of a version-3
//! snapshot file, byte for byte. [`Collection::extract`] writes them on
//! the heap, [`crate::snapshot::open`] maps them from a file, and
//! [`Collection::partition`] is the one cut of an engine from either:
//! its `PointTable`, built by the table's one constructor, copies a
//! heap cut's ys and each distinct x row once, and views the mapping for
//! a mapped cut. The arena is heap state that every engine builds for
//! itself from its `PointTable`, whatever backs it.

use crate::engine::ShapeEngine;
use crate::error::Result;
use crate::stats::SummaryStats;
use shapesearch_datastore::{extract_each, Table, TrendPoint, Trendline, VisualSpec};
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// One flat column of a [`Collection`] or a [`PointTable`]: either
/// heap-owned or a zero-copy view into a mapped snapshot, kept alive by
/// an `Arc` on the mapping. Derefs to a slice, so the snapshot writer,
/// GROUP and push-down (a) read both backings identically — same bytes,
/// same bits, same results.
#[derive(Clone)]
pub(crate) enum Column<T = f64> {
    /// A heap-allocated column.
    Owned(Vec<T>),
    /// An aligned little-endian run of `T` inside a mapped snapshot file.
    Mapped {
        /// First element of the run (aligned for `T`, inside `keep`).
        ptr: *const T,
        /// Element count.
        len: usize,
        /// Keeps the mapping (and so `ptr`) alive; only held, never read.
        #[allow(dead_code)]
        keep: Arc<memmap2::Mmap>,
    },
}

// SAFETY: `Owned` is a plain `Vec<T>`, sent and shared under the same
// bounds a `Vec<T>` needs. `Mapped`'s `ptr` and `len` point into a
// read-only private mapping that stays alive for as long as `keep` (an
// `Arc`, itself `Send + Sync`) does and that nothing writes through, so
// every thread that holds or shares the column only reads `T`s.
unsafe impl<T: Send + Sync> Send for Column<T> {}
unsafe impl<T: Sync> Sync for Column<T> {}

/// An element type a mapped column may hold: every bit pattern of its
/// size is a value, so any bytes of a file read as one.
///
/// # Safety
/// Implement only for `Copy` types without invalid bit patterns.
pub(crate) unsafe trait Plain: Copy {}

// SAFETY: every byte is a `u8`, and every 8 bytes an `f64`.
unsafe impl Plain for u8 {}
unsafe impl Plain for f64 {}

impl<T: Plain> Column<T> {
    /// A zero-copy column over `len` `T`s starting `byte_offset` bytes
    /// into `map`.
    ///
    /// # Panics
    /// The run must lie inside the mapping and start aligned for `T` —
    /// the snapshot loader validates both before calling.
    pub(crate) fn mapped(map: &Arc<memmap2::Mmap>, byte_offset: usize, len: usize) -> Self {
        let bytes = len
            .checked_mul(std::mem::size_of::<T>())
            .expect("column byte length overflows");
        let end = byte_offset
            .checked_add(bytes)
            .expect("column end overflows");
        assert!(end <= map.len(), "column run outside the mapping");
        // SAFETY: `byte_offset <= end <= map.len()`, checked above, so the
        // pointer stays inside the mapping or one past its end.
        let ptr = unsafe { map.as_ptr().add(byte_offset) };
        assert_eq!(
            ptr as usize % std::mem::align_of::<T>(),
            0,
            "column run misaligned"
        );
        Self::Mapped {
            ptr: ptr.cast::<T>(),
            len,
            keep: Arc::clone(map),
        }
    }

    /// Elements `[lo, hi)`: a heap copy of a heap column, a view of the
    /// same mapping for a mapped one.
    fn slice(&self, lo: usize, hi: usize) -> Self {
        match self {
            Self::Owned(v) => Self::Owned(v[lo..hi].to_vec()),
            Self::Mapped { ptr, keep, .. } => {
                assert!(lo <= hi && hi <= self.len(), "slice outside the column");
                Self::Mapped {
                    // SAFETY: `lo <= len`, checked above, so the pointer
                    // stays inside this run or one past its end.
                    ptr: unsafe { ptr.add(lo) },
                    len: hi - lo,
                    keep: Arc::clone(keep),
                }
            }
        }
    }
}

impl<T> Deref for Column<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            Self::Owned(v) => v,
            // SAFETY: `mapped` and `slice` check that the `len` elements
            // from `ptr` lie inside the mapping, aligned for `T`, which is
            // `Plain`; `keep` holds the mapping alive and unwritten while
            // `self` is.
            Self::Mapped { ptr, len, .. } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
        }
    }
}

impl<T> fmt::Debug for Column<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self {
            Self::Owned(_) => "owned",
            Self::Mapped { .. } => "mapped",
        };
        f.debug_struct("Column")
            .field("kind", &kind)
            .field("len", &self.len())
            .finish()
    }
}

/// EXTRACT's output as the columns of a version-3 snapshot
/// ([`crate::snapshot`]): the keys' UTF-8 bytes and their starts, and
/// every trendline's raw xs and ys, one trendline after another, with
/// their starts. Trendline `i`'s key is `key_bytes[key_starts[i]..
/// key_starts[i + 1]]` and its points are at `starts[i]..starts[i + 1]`
/// in both point columns, ascending in x.
///
/// [`Self::extract`] builds the columns on the heap, and
/// [`crate::snapshot::open`] maps them from a file that
/// [`crate::snapshot::write`] wrote verbatim. Either way engines are cut
/// from it by [`Self::partition`], the one cut.
#[derive(Debug)]
pub struct Collection {
    pub(crate) key_bytes: Column<u8>,
    pub(crate) key_starts: Vec<usize>,
    pub(crate) xs: Column,
    pub(crate) ys: Column,
    pub(crate) starts: Vec<usize>,
}

impl Collection {
    /// Runs EXTRACT over a table with the given visual parameters,
    /// writing each trendline straight into the heap columns.
    ///
    /// # Errors
    /// Propagates extraction errors (unknown columns, non-numeric axes).
    pub fn extract(table: &Table, spec: &VisualSpec) -> Result<Self> {
        // EXTRACT keeps at most one point a row.
        let (collection, extracted) =
            Self::build(table.num_rows(), |push| extract_each(table, spec, push));
        extracted?;
        Ok(collection)
    }

    /// Flattens trendlines (EXTRACT's output collected, or a
    /// generator's) into the heap columns.
    pub fn from_trendlines(trendlines: &[Trendline]) -> Self {
        let points = trendlines.iter().map(Trendline::len).sum();
        Self::build(points, |push| {
            for t in trendlines {
                push(&t.key, &t.points);
            }
        })
        .0
    }

    /// Heap columns filled by `fill`, which pushes one trendline at a
    /// time; the point columns start with room for `points`.
    fn build<R>(
        points: usize,
        fill: impl FnOnce(&mut dyn FnMut(&str, &[TrendPoint])) -> R,
    ) -> (Self, R) {
        let (mut key_bytes, mut key_starts) = (String::new(), vec![0]);
        let (mut xs, mut ys) = (Vec::with_capacity(points), Vec::with_capacity(points));
        let mut starts = vec![0];
        let filled = fill(&mut |key, points| {
            key_bytes.push_str(key);
            key_starts.push(key_bytes.len());
            xs.extend(points.iter().map(|p| p.x));
            ys.extend(points.iter().map(|p| p.y));
            starts.push(xs.len());
        });
        let collection = Self {
            key_bytes: Column::Owned(key_bytes.into_bytes()),
            key_starts,
            xs: Column::Owned(xs),
            ys: Column::Owned(ys),
            starts,
        };
        (collection, filled)
    }

    /// Number of trendlines.
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// True for a collection of no trendlines.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Raw points across all trendlines.
    pub fn point_count(&self) -> usize {
        self.xs.len()
    }

    /// Per-trendline raw point counts: the input
    /// [`crate::partition_bounds_by_points`] cuts shards by.
    pub fn point_counts(&self) -> Vec<usize> {
        self.starts.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// The `z` value of trendline `i`.
    fn key(&self, i: usize) -> &str {
        let bytes = &self.key_bytes[self.key_starts[i]..self.key_starts[i + 1]];
        std::str::from_utf8(bytes).expect("keys are UTF-8: pushed as text, or checked at open")
    }

    /// The engine over trendlines `[start, end)`, reporting
    /// collection-global indices from `start`. A heap cut copies the
    /// keys, the ys and each distinct x row once; a mapped cut copies
    /// the keys and views the mapping for the points. It has GROUPed
    /// nothing yet: `ShapeEngine::warm`, or its first query, GROUPs it.
    ///
    /// # Panics
    /// Panics when `start > end` or `end` exceeds the trendline count.
    pub fn partition(&self, start: usize, end: usize) -> ShapeEngine {
        assert!(start <= end && end <= self.len());
        let keys = (start..end).map(|i| self.key(i).to_owned()).collect();
        ShapeEngine::from_columns(keys, PointTable::new(self, start, end)).with_base_index(start)
    }
}

/// The raw (x, y) points of an engine's trendlines, each x row stored
/// once: trendline `i`'s ys are `ys[starts[i]..starts[i + 1]]`, and its
/// xs the same number of values from `x_starts[grids[i]]`, ascending.
/// Trendlines whose raw x rows are bitwise equal share one grid id and
/// one x run. An engine's GROUP (at any bin width) and push-down (a)
/// read these columns.
#[derive(Debug)]
pub(crate) struct PointTable {
    xs: Column,
    ys: Column,
    starts: Vec<usize>,
    /// Per trendline, its x row's id: dense from 0 in first-appearance
    /// order, equal exactly when the rows are bitwise equal.
    grids: Vec<u32>,
    /// Per grid id, where its x row starts in `xs`.
    x_starts: Vec<usize>,
}

impl PointTable {
    /// Trendlines `[start, end)` of `collection`, each x row looked up
    /// once. Cut from heap columns, the table holds the ys and each
    /// distinct x row once; cut from mapped ones, it views the mapping
    /// and reads an x row equal to an earlier one at the earlier one's
    /// offset.
    pub(crate) fn new(collection: &Collection, start: usize, end: usize) -> Self {
        let (lo, hi) = (collection.starts[start], collection.starts[end]);
        let starts: Vec<usize> = collection.starts[start..=end]
            .iter()
            .map(|&s| s - lo)
            .collect();
        let all_xs = &collection.xs[lo..hi];
        let (grids, firsts) = distinct_rows(all_xs, &starts);
        let row = |i: usize| &all_xs[starts[i]..starts[i + 1]];
        let (xs, x_starts) = match &collection.xs {
            Column::Owned(_) => {
                let mut xs = Vec::with_capacity(firsts.iter().map(|&i| row(i).len()).sum());
                let x_starts = firsts
                    .iter()
                    .map(|&i| {
                        xs.extend_from_slice(row(i));
                        xs.len() - row(i).len()
                    })
                    .collect();
                (Column::Owned(xs), x_starts)
            }
            mapped => (
                mapped.slice(lo, hi),
                firsts.iter().map(|&i| starts[i]).collect(),
            ),
        };
        Self {
            xs,
            ys: collection.ys.slice(lo, hi),
            starts,
            grids,
            x_starts,
        }
    }

    /// Number of trendlines.
    pub(crate) fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Trendline `i`'s raw `(xs, ys)`.
    pub(crate) fn row(&self, i: usize) -> (&[f64], &[f64]) {
        let run = self.starts[i]..self.starts[i + 1];
        let x = self.x_starts[self.grids[i] as usize];
        (&self.xs[x..x + run.len()], &self.ys[run])
    }

    /// The id of trendline `i`'s x row: equal for two trendlines exactly
    /// when their raw x rows are bitwise equal.
    pub(crate) fn grid(&self, i: usize) -> u32 {
        self.grids[i]
    }

    /// Number of distinct x rows (grid ids `0..grid_count()`).
    pub(crate) fn grid_count(&self) -> usize {
        self.x_starts.len()
    }
}

/// Numbers the rows `xs[starts[i]..starts[i + 1]]` by bitwise equality,
/// densely from 0 in row order: each row's id, and each id's first row.
/// One hashed pass over each row, plus a bitwise comparison with the
/// first row of its id.
fn distinct_rows(xs: &[f64], starts: &[usize]) -> (Vec<u32>, Vec<usize>) {
    let mut ids: HashMap<BitRow<'_>, u32> = HashMap::new();
    let mut firsts = Vec::new();
    let grids = starts
        .windows(2)
        .enumerate()
        .map(|(i, w)| {
            *ids.entry(BitRow(&xs[w[0]..w[1]])).or_insert_with(|| {
                firsts.push(i);
                (firsts.len() - 1) as u32
            })
        })
        .collect();
    (grids, firsts)
}

/// A row of `f64`s hashed and compared by its bits (`-0.0` is not `0.0`,
/// a NaN equals itself): the equality under which two raw x rows share
/// an x grid ([`PointTable`]), and so an x run.
struct BitRow<'a>(&'a [f64]);

impl Hash for BitRow<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.0.len());
        for x in self.0 {
            state.write_u64(x.to_bits());
        }
    }
}

impl PartialEq for BitRow<'_> {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.0, other.0);
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }
}

impl Eq for BitRow<'_> {}

/// Structure-of-arrays GROUP output for a whole collection: contiguous
/// coordinate and prefix-statistic columns shared (via `Arc`) by every
/// [`VizData`](crate::engine::group::VizData) handle cut from it.
#[derive(Clone, Default)]
pub struct ColumnarArena {
    xs: Vec<f64>,
    sum_x: Vec<f64>,
    sum_xx: Vec<f64>,
    run_starts: Vec<usize>,
    runs: Vec<usize>,
    ys: Vec<f64>,
    sum_y: Vec<f64>,
    sum_xy: Vec<f64>,
    point_starts: Vec<usize>,
    /// Per viz, its SegmentTree angle run, built on first use.
    node_angles: Vec<OnceLock<Box<[f64]>>>,
}

impl fmt::Debug for ColumnarArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ColumnarArena")
            .field("vizzes", &self.viz_count())
            .field("points", &self.point_count())
            .field("x_runs", &self.run_starts.len().saturating_sub(1))
            .finish()
    }
}

impl ColumnarArena {
    /// Number of visualizations in the arena.
    pub fn viz_count(&self) -> usize {
        self.point_starts.len().saturating_sub(1)
    }

    /// Total bytes held by the arena's GROUP-time columns and its
    /// per-viz angle cells — what keeping this GROUP run cached costs.
    /// Fixed at GROUP: the angle runs built into the cells later are
    /// [`Self::angle_run_bytes`], which depends on what was scored.
    pub fn byte_size(&self) -> usize {
        let f64_cells = self.xs.len()
            + self.sum_x.len()
            + self.sum_xx.len()
            + self.ys.len()
            + self.sum_y.len()
            + self.sum_xy.len();
        let offsets = self.run_starts.len() + self.runs.len() + self.point_starts.len();
        f64_cells * std::mem::size_of::<f64>()
            + offsets * std::mem::size_of::<usize>()
            + self.node_angles.len() * std::mem::size_of::<OnceLock<Box<[f64]>>>()
    }

    /// Bytes of the angle runs [`Self::node_angles`] has built so far:
    /// 0 after GROUP, then `8·(2n − 3)` for each viz a whole-viz
    /// SegmentTree has scored.
    pub fn angle_run_bytes(&self) -> usize {
        self.node_angles
            .iter()
            .filter_map(OnceLock::get)
            .map(|run| run.len() * std::mem::size_of::<f64>())
            .sum()
    }

    /// Total canvas points across all visualizations.
    pub fn point_count(&self) -> usize {
        self.point_starts.last().copied().unwrap_or(0)
    }

    /// Number of canvas points in viz `slot`.
    pub fn n(&self, slot: usize) -> usize {
        self.point_starts[slot + 1] - self.point_starts[slot]
    }

    /// Canvas x coordinates of viz `slot` (its x run's).
    pub fn xs(&self, slot: usize) -> &[f64] {
        let run = self.runs[slot];
        &self.xs[self.run_starts[run]..self.run_starts[run + 1]]
    }

    /// Canvas y coordinates of viz `slot`.
    pub fn ys(&self, slot: usize) -> &[f64] {
        &self.ys[self.point_starts[slot]..self.point_starts[slot + 1]]
    }

    /// The x run viz `slot` stores its canvas x on. GROUP opens one run
    /// per raw x grid, so this is the viz's
    /// [`VizData::grid`](crate::engine::group::VizData::grid).
    pub(crate) fn run(&self, slot: usize) -> usize {
        self.runs[slot]
    }

    /// Viz `slot`'s SegmentTree direct angles in preorder (see the module
    /// docs): `2n − 3` of them, none when `n < 2`. The run is derived
    /// from the prefix columns the first time it is asked for and kept;
    /// threads asking at once get the one run, built once.
    pub fn node_angles(&self, slot: usize) -> &[f64] {
        self.node_angles[slot].get_or_init(|| self.build_node_angles(slot))
    }

    /// Viz `slot`'s run of [`Self::node_angles`], derived from its prefix
    /// columns. Out of line: a trendline builds it once, and the tree
    /// that reads it runs on every score.
    #[cold]
    #[inline(never)]
    fn build_node_angles(&self, slot: usize) -> Box<[f64]> {
        let n = self.n(slot);
        let mut angles = Vec::with_capacity((2 * n).saturating_sub(3));
        if n >= 2 {
            self.prefix_runs(slot)
                .push_node_angles(0, n - 1, &mut angles);
        }
        angles.into_boxed_slice()
    }

    /// Viz `slot`'s four prefix-sum runs as plain slices, resolved once:
    /// the x side at its run's offset (each earlier run contributes its
    /// points plus one leading zero), the y side at its own. A kernel
    /// that scores many windows of one viz (the SegmentTree visits ~10
    /// per node) pays the column dispatch and the offset arithmetic
    /// here, not per window.
    #[inline]
    pub(crate) fn prefix_runs(&self, slot: usize) -> PrefixRuns<'_> {
        let len = self.n(slot) + 1;
        let run = self.runs[slot];
        let px = self.run_starts[run] + run;
        let py = self.point_starts[slot] + slot;
        PrefixRuns {
            sum_x: &self.sum_x[px..px + len],
            sum_y: &self.sum_y[py..py + len],
            sum_xy: &self.sum_xy[py..py + len],
            sum_xx: &self.sum_xx[px..px + len],
        }
    }

    /// Summarized statistics over the inclusive point range `[i, j]` of
    /// viz `slot` — the same per-field subtraction as
    /// [`StatsIndex::range`](crate::stats::StatsIndex::range), so the
    /// result is bit-identical.
    ///
    /// # Panics
    /// Panics when `j < i` (debug) or `j` is out of bounds.
    #[inline]
    pub fn range_stats(&self, slot: usize, i: usize, j: usize) -> SummaryStats {
        self.prefix_runs(slot).range_stats(i, j)
    }

    /// Fitted slope over the inclusive point range `[i, j]` of viz
    /// `slot` (bit-identical to
    /// [`StatsIndex::slope`](crate::stats::StatsIndex::slope)).
    #[inline]
    pub fn slope(&self, slot: usize, i: usize, j: usize) -> f64 {
        self.range_stats(slot, i, j).slope()
    }

    /// Batched kernel: the fitted slope of every adjacent-point window
    /// `[t, t+1]` of viz `slot`, appended to `out` (cleared first).
    ///
    /// Window statistics are `prefix[t+2] − prefix[t]` per column and
    /// `n = 2` is constant, so the scalar guard `n < 2` vanishes and the
    /// loop body is a handful of independent mul/subs plus one select —
    /// exactly the shape LLVM turns into SIMD lanes.
    pub fn interval_slopes(&self, slot: usize, out: &mut Vec<f64>) {
        let n = self.n(slot);
        if n < 2 {
            out.clear();
            return;
        }
        self.interval_slopes_in(slot, 0, n - 1, out);
    }

    /// [`Self::interval_slopes`] restricted to windows `[t, t+1]` for
    /// `t` in `lo..hi` (so the last window is `[hi-1, hi]`), appended to
    /// `out` (cleared first) — the quantifier scan's candidate set.
    pub fn interval_slopes_in(&self, slot: usize, lo: usize, hi: usize, out: &mut Vec<f64>) {
        out.clear();
        if hi <= lo {
            return;
        }
        debug_assert!(hi < self.n(slot));
        let runs = self.prefix_runs(slot);
        let sx = &runs.sum_x[lo..hi + 2];
        let sy = &runs.sum_y[lo..hi + 2];
        let sxy = &runs.sum_xy[lo..hi + 2];
        let sxx = &runs.sum_xx[lo..hi + 2];
        out.reserve(hi - lo);
        out.extend(
            sx.windows(3)
                .zip(sy.windows(3))
                .zip(sxy.windows(3).zip(sxx.windows(3)))
                .map(|((wx, wy), (wxy, wxx))| {
                    let dsx = wx[2] - wx[0];
                    let dsy = wy[2] - wy[0];
                    let dsxy = wxy[2] - wxy[0];
                    let dsxx = wxx[2] - wxx[0];
                    let denom = 2.0 * dsxx - dsx * dsx;
                    let num = 2.0 * dsxy - dsx * dsy;
                    let slope = num / denom;
                    if denom.abs() < 1e-12 {
                        0.0
                    } else {
                        slope
                    }
                }),
        );
    }

    /// Batched kernel: fitted slopes of the anchored window run
    /// `[s, e]` for every end `e` in `e_lo..=e_hi` of viz `slot`,
    /// appended to `out` (cleared first) — a DP inner loop's whole
    /// candidate set in one streaming pass over the prefix columns.
    ///
    /// The start-side statistics are loop-invariant scalars; per lane
    /// only the four end-side loads vary, and both scalar guards become
    /// selects.
    pub fn window_slopes(
        &self,
        slot: usize,
        s: usize,
        e_lo: usize,
        e_hi: usize,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        if e_hi < e_lo {
            return;
        }
        debug_assert!(s <= e_lo && e_hi < self.n(slot));
        let runs = self.prefix_runs(slot);
        let (lo_x, lo_y) = (runs.sum_x[s], runs.sum_y[s]);
        let (lo_xy, lo_xx) = (runs.sum_xy[s], runs.sum_xx[s]);
        let (hb, he) = (e_lo + 1, e_hi + 2);
        let sx = &runs.sum_x[hb..he];
        let sy = &runs.sum_y[hb..he];
        let sxy = &runs.sum_xy[hb..he];
        let sxx = &runs.sum_xx[hb..he];
        let n0 = (e_lo + 1 - s) as f64;
        out.reserve(e_hi - e_lo + 1);
        out.extend(sx.iter().zip(sy).zip(sxy.iter().zip(sxx)).enumerate().map(
            |(idx, ((&hx, &hy), (&hxy, &hxx)))| {
                let nf = n0 + idx as f64;
                let dsx = hx - lo_x;
                let dsy = hy - lo_y;
                let dsxy = hxy - lo_xy;
                let dsxx = hxx - lo_xx;
                let denom = nf * dsxx - dsx * dsx;
                let num = nf * dsxy - dsx * dsy;
                let slope = num / denom;
                if nf < 2.0 || denom.abs() < 1e-12 {
                    0.0
                } else {
                    slope
                }
            },
        ));
    }

    /// Batched kernel, the mirror of [`Self::window_slopes`]: fitted
    /// slopes of the window run `[s, e]` for every start `s` in
    /// `s_lo..=s_hi` of viz `slot`, in start order, appended to `out`
    /// (cleared first) — every window that ends where the trendline does,
    /// when `e` is its last point.
    ///
    /// Here the end-side statistics are the loop-invariant scalars, the
    /// four start-side loads vary per lane and the point count runs down;
    /// the guards are the same two selects.
    pub fn window_slopes_ending(
        &self,
        slot: usize,
        s_lo: usize,
        s_hi: usize,
        e: usize,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        if s_hi < s_lo {
            return;
        }
        debug_assert!(s_hi <= e && e < self.n(slot));
        let runs = self.prefix_runs(slot);
        let (hi_x, hi_y) = (runs.sum_x[e + 1], runs.sum_y[e + 1]);
        let (hi_xy, hi_xx) = (runs.sum_xy[e + 1], runs.sum_xx[e + 1]);
        let (lb, le) = (s_lo, s_hi + 1);
        let sx = &runs.sum_x[lb..le];
        let sy = &runs.sum_y[lb..le];
        let sxy = &runs.sum_xy[lb..le];
        let sxx = &runs.sum_xx[lb..le];
        let n0 = (e + 1 - s_lo) as f64;
        out.reserve(s_hi - s_lo + 1);
        out.extend(sx.iter().zip(sy).zip(sxy.iter().zip(sxx)).enumerate().map(
            |(idx, ((&lx, &ly), (&lxy, &lxx)))| {
                let nf = n0 - idx as f64;
                let dsx = hi_x - lx;
                let dsy = hi_y - ly;
                let dsxy = hi_xy - lxy;
                let dsxx = hi_xx - lxx;
                let denom = nf * dsxx - dsx * dsx;
                let num = nf * dsxy - dsx * dsy;
                let slope = num / denom;
                if nf < 2.0 || denom.abs() < 1e-12 {
                    0.0
                } else {
                    slope
                }
            },
        ));
    }

    /// Batched kernel: appends to `out` the fitted slope over the
    /// inclusive window `[i, j]` of each viz in `slots`, every one of them
    /// on x run `run` — a column of [`Self::slope`] calls, bit for bit.
    /// The window's x side (`Σx`, `n`, the denominator
    /// `n·Σx² − (Σx)²`) and [`SummaryStats::slope`]'s guards on it are
    /// the run's, so they are taken once, and a window they void reads 0
    /// for every viz; a lane is two loads and two subtractions a side
    /// short of a whole [`Self::range_stats`].
    ///
    /// # Panics
    /// Panics when `j < i` (debug) or `j` is past the run's last point.
    pub(crate) fn window_slope_column(
        &self,
        run: usize,
        (i, j): (usize, usize),
        slots: impl IntoIterator<Item = usize>,
        out: &mut Vec<f64>,
    ) {
        debug_assert!(i <= j, "window [{i}, {j}] is inverted");
        let hi = j + 1;
        assert!(hi <= self.run_starts[run + 1] - self.run_starts[run]);
        let px = self.run_starts[run] + run;
        let sx = self.sum_x[px + hi] - self.sum_x[px + i];
        let sxx = self.sum_xx[px + hi] - self.sum_xx[px + i];
        let points = (hi - i) as u32;
        let n = points as f64;
        let denom = n * sxx - sx * sx;
        if points < 2 || denom.abs() < 1e-12 {
            out.extend(slots.into_iter().map(|_| 0.0));
            return;
        }
        out.extend(slots.into_iter().map(|slot| {
            debug_assert_eq!(self.runs[slot], run, "viz {slot} is off the window's run");
            let py = self.point_starts[slot] + slot;
            let sy = self.sum_y[py + hi] - self.sum_y[py + i];
            let sxy = self.sum_xy[py + hi] - self.sum_xy[py + i];
            (n * sxy - sx * sy) / denom
        }));
    }
}

/// One viz's prefix-sum runs (`n + 1` entries each, leading zero
/// included), borrowed from its [`ColumnarArena`]: `sum_x`/`sum_xx`
/// from its x run, `sum_y`/`sum_xy` from its own columns.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PrefixRuns<'a> {
    sum_x: &'a [f64],
    sum_y: &'a [f64],
    sum_xy: &'a [f64],
    sum_xx: &'a [f64],
}

impl PrefixRuns<'_> {
    /// [`ColumnarArena::range_stats`] of the viz these runs belong to.
    // `always`: left to its own judgement LLVM keeps this a call from the
    // SegmentTree's window loop, and the statistics round-trip through
    // memory (measured: +25 % per scored trendline).
    #[inline(always)]
    pub(crate) fn range_stats(&self, i: usize, j: usize) -> SummaryStats {
        debug_assert!(i <= j, "range [{i}, {j}] is inverted");
        let hi = j + 1;
        SummaryStats {
            sx: self.sum_x[hi] - self.sum_x[i],
            sy: self.sum_y[hi] - self.sum_y[i],
            sxy: self.sum_xy[hi] - self.sum_xy[i],
            sxx: self.sum_xx[hi] - self.sum_xx[i],
            n: (hi - i) as u32,
        }
    }

    /// Appends the fitted angle of the tree node over `[lo, hi]`, then
    /// those of its left and right subtrees — the preorder
    /// [`ColumnarArena::node_angles`] holds.
    fn push_node_angles(&self, lo: usize, hi: usize, out: &mut Vec<f64>) {
        out.push(self.range_stats(lo, hi).slope().atan());
        if hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            self.push_node_angles(lo, mid, out);
            self.push_node_angles(mid, hi, out);
        }
    }
}

/// Incremental [`ColumnarArena`] construction, GROUP's alone: one
/// `push_run` per x run and one `push_viz` per GROUP'd visualization on
/// a run already pushed, in slot order.
#[derive(Debug, Default)]
pub(crate) struct ArenaBuilder {
    arena: ColumnarArena,
    /// The interval slopes of the viz being pushed, kept between pushes.
    scratch: Vec<f64>,
}

impl ArenaBuilder {
    /// An empty builder.
    pub(crate) fn new() -> Self {
        let mut arena = ColumnarArena::default();
        arena.run_starts.push(0);
        arena.point_starts.push(0);
        Self {
            arena,
            ..Self::default()
        }
    }

    /// A builder pre-sized for `points` total canvas points across
    /// `vizzes` visualizations. The x columns are sized for one run; a
    /// collection with more grows them.
    pub(crate) fn with_capacity(vizzes: usize, points: usize) -> Self {
        let mut b = Self::new();
        let a = &mut b.arena;
        let row = points.checked_div(vizzes).unwrap_or(0);
        a.xs.reserve(row);
        a.sum_x.reserve(row + 1);
        a.sum_xx.reserve(row + 1);
        a.runs.reserve(vizzes);
        a.ys.reserve(points);
        a.sum_y.reserve(points + vizzes);
        a.sum_xy.reserve(points + vizzes);
        a.point_starts.reserve(vizzes);
        a.node_angles.reserve(vizzes);
        b
    }

    /// Appends an x run: the canvas xs a grid's vizzes share, with their
    /// x-only prefix sums, accumulated per column in the same operation
    /// order as [`StatsIndex::new`](crate::stats::StatsIndex::new)
    /// (`acc + x`, `acc + x·x` per point, after a leading zero) — the
    /// bits every viz of the run would have computed. Returns the run.
    pub(crate) fn push_run(&mut self, xs: &[f64]) -> usize {
        let a = &mut self.arena;
        a.xs.extend_from_slice(xs);
        let (mut ax, mut axx) = (0.0f64, 0.0f64);
        a.sum_x.push(0.0);
        a.sum_xx.push(0.0);
        for &x in xs {
            ax += x;
            axx += x * x;
            a.sum_x.push(ax);
            a.sum_xx.push(axx);
        }
        a.run_starts.push(a.xs.len());
        a.run_starts.len() - 2
    }

    /// Appends one visualization's canvas ys on x run `run`, returning
    /// its slot and the `(min, max)` of its adjacent-interval slopes —
    /// the §6.3 bound inputs, which the arena does not keep: GROUP hands
    /// them to the viz's handle.
    ///
    /// The y prefix sums accumulate as [`Self::push_run`]'s x ones do
    /// (`acc + y`, `acc + x·y` per point), so every downstream range
    /// query is bit-identical to the scalar index.
    ///
    /// # Panics
    /// Panics when `ys` and the run's xs differ in length.
    pub(crate) fn push_viz(&mut self, run: usize, ys: &[f64]) -> (usize, (f64, f64)) {
        let a = &mut self.arena;
        let xs = &a.xs[a.run_starts[run]..a.run_starts[run + 1]];
        assert_eq!(xs.len(), ys.len(), "ys must align with the run's xs");
        let slot = a.point_starts.len() - 1;
        a.runs.push(run);
        a.ys.extend_from_slice(ys);
        let (mut ay, mut axy) = (0.0f64, 0.0f64);
        a.sum_y.push(0.0);
        a.sum_xy.push(0.0);
        for (&x, &y) in xs.iter().zip(ys) {
            ay += y;
            axy += x * y;
            a.sum_y.push(ay);
            a.sum_xy.push(axy);
        }
        a.point_starts.push(a.ys.len());
        // GROUP-time slope extremes straight off the fresh prefix run.
        let scratch = &mut self.scratch;
        a.interval_slopes(slot, scratch);
        // A NaN extent makes every derived bound NaN and the viz
        // unprunable. A row gets one when an interval slope is NaN:
        // `f64::min`/`max` would *ignore* it and hand pruning a finite
        // bound for a viz whose actual score is NaN — which `total_cmp`
        // ranks above every real score, so pruning it would change the
        // top-k. It gets one, too, when the extremes need not bound every
        // window's fitted slope. They do when each window's rise is the
        // sum of its intervals' slope × run: the window slope is then a
        // positively weighted mean of its interval slopes. That fails on
        // an interval whose xs descend (a library caller's row, a
        // re-sealed snapshot's; EXTRACT sorts every row) and on one whose
        // slope the `1e-12` guard zeroed while its ys differ (two xs equal
        // or nearly so: its rise is in every window over it, its slope in
        // none).
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        let mut unbounded = false;
        for (t, &s) in scratch.iter().enumerate() {
            unbounded |= s.is_nan() || xs[t + 1] < xs[t] || (s == 0.0 && ys[t + 1] != ys[t]);
            lo = lo.min(s);
            hi = hi.max(s);
        }
        if unbounded {
            lo = f64::NAN;
            hi = f64::NAN;
        }
        a.node_angles.push(OnceLock::new());
        (slot, (lo, hi))
    }

    /// Finalizes the arena.
    pub(crate) fn finish(self) -> ColumnarArena {
        self.arena
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::group::{group_collection, VizData};
    use crate::stats::StatsIndex;

    /// Pushes `xs` as an x run of its own, and one viz on it.
    fn push(b: &mut ArenaBuilder, xs: &[f64], ys: &[f64]) -> (usize, (f64, f64)) {
        let run = b.push_run(xs);
        b.push_viz(run, ys)
    }

    /// A heap cut stores each distinct raw x row once: two of its
    /// trendlines read one x row exactly when their rows are bitwise
    /// equal (`-0.0` is not `0.0`), whichever trendlines the cut spans,
    /// and the distinct rows lie packed, one after another.
    #[test]
    fn a_heap_cut_stores_each_distinct_x_row_once() {
        let on = |key: &str, xs: [f64; 3]| Trendline::from_pairs(key, &xs.map(|x| (x, 2.0 * x)));
        let tls = [
            on("a", [0.0, 1.0, 2.0]),
            on("b", [0.0, 1.0, 3.0]),
            on("c", [0.0, 1.0, 2.0]),
            on("d", [-0.0, 1.0, 2.0]),
            on("e", [0.0, 1.0, 3.0]),
        ];
        let collection = Collection::from_trendlines(&tls);
        let bits = |t: &Trendline| t.xs().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (start, end) in [(0, 5), (1, 5), (2, 4)] {
            let engine = collection.partition(start, end);
            let mut rows: Vec<_> = tls[start..end].iter().map(bits).collect();
            rows.sort();
            rows.dedup();
            let at = |i: usize| engine.points(i).0.as_ptr() as usize;
            let (first, last) = (
                (0..engine.len()).map(at).min(),
                (0..engine.len()).map(at).max(),
            );
            let span = (last.unwrap() - first.unwrap()) / 8 + 3;
            assert_eq!(span, 3 * rows.len(), "cut {start}..{end} packs its x rows");
            for i in 0..engine.len() {
                for j in 0..engine.len() {
                    let shared = engine.points(i).0.as_ptr() == engine.points(j).0.as_ptr();
                    let equal = bits(&tls[start + i]) == bits(&tls[start + j]);
                    assert_eq!(shared, equal, "cut {start}..{end}, rows {i} and {j}");
                }
            }
        }
    }

    fn demo_series(seed: u64, n: usize) -> (Vec<f64>, Vec<f64>) {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / ((1u64 << 31) as f64) - 1.0
        };
        let xs: Vec<f64> = (0..n).map(|i| i as f64 / (n - 1) as f64).collect();
        let mut y = 0.0;
        let ys: Vec<f64> = (0..n)
            .map(|_| {
                y += next();
                y
            })
            .collect();
        (xs, ys)
    }

    #[test]
    fn range_stats_match_stats_index_bit_for_bit() {
        let mut b = ArenaBuilder::new();
        let mut refs = Vec::new();
        for (seed, n) in [(1u64, 2usize), (7, 13), (42, 48)] {
            let (xs, ys) = demo_series(seed, n);
            push(&mut b, &xs, &ys);
            refs.push(StatsIndex::new(&xs, &ys));
        }
        let a = b.finish();
        assert_eq!(a.viz_count(), 3);
        for (slot, idx) in refs.iter().enumerate() {
            let n = a.n(slot);
            assert_eq!(n, idx.len());
            for i in 0..n {
                for j in i..n {
                    let want = idx.range(i, j);
                    let got = a.range_stats(slot, i, j);
                    assert_eq!(want.sx.to_bits(), got.sx.to_bits());
                    assert_eq!(want.sy.to_bits(), got.sy.to_bits());
                    assert_eq!(want.sxy.to_bits(), got.sxy.to_bits());
                    assert_eq!(want.sxx.to_bits(), got.sxx.to_bits());
                    assert_eq!(want.n, got.n);
                    assert_eq!(
                        idx.slope(i, j).to_bits(),
                        a.slope(slot, i, j).to_bits(),
                        "slot {slot} [{i}, {j}]"
                    );
                }
            }
        }
    }

    #[test]
    fn interval_and_window_kernels_match_scalar_reference() {
        // 1,228 seeded walks of 48 points on one x run in ONE arena, so
        // slots past the first read their y runs at non-zero offsets.
        const VIZZES: usize = 1228;
        const POINTS: usize = 48;
        let mut b = ArenaBuilder::with_capacity(VIZZES, VIZZES * POINTS);
        let run = b.push_run(&demo_series(1, POINTS).0);
        let mut refs = Vec::with_capacity(VIZZES);
        for v in 0..VIZZES {
            let (xs, ys) = demo_series(v as u64 + 1, POINTS);
            b.push_viz(run, &ys);
            refs.push(StatsIndex::new(&xs, &ys));
        }
        let a = b.finish();
        let mut out = Vec::new();
        for (slot, idx) in refs.iter().enumerate() {
            a.interval_slopes(slot, &mut out);
            assert_eq!(out.len(), POINTS - 1);
            for (t, &got) in out.iter().enumerate() {
                assert_eq!(
                    got.to_bits(),
                    idx.slope(t, t + 1).to_bits(),
                    "slot {slot} interval {t}"
                );
            }
            for s in [0usize, 3, 20] {
                a.window_slopes(slot, s, s + 1, POINTS - 1, &mut out);
                for (k, &got) in out.iter().enumerate() {
                    let e = s + 1 + k;
                    assert_eq!(
                        got.to_bits(),
                        idx.slope(s, e).to_bits(),
                        "slot {slot} window [{s}, {e}]"
                    );
                }
            }
            // The mirror: every start against the last point.
            a.window_slopes_ending(slot, 0, POINTS - 2, POINTS - 1, &mut out);
            assert_eq!(out.len(), POINTS - 1);
            for (s, &got) in out.iter().enumerate() {
                assert_eq!(
                    got.to_bits(),
                    idx.slope(s, POINTS - 1).to_bits(),
                    "slot {slot} window [{s}, {}]",
                    POINTS - 1
                );
            }
        }
    }

    #[test]
    fn two_point_viz_has_one_window_from_either_end() {
        let (xs, ys) = demo_series(5, 2);
        let idx = StatsIndex::new(&xs, &ys);
        let mut b = ArenaBuilder::new();
        // Not the first slot: the runs start past another viz's columns.
        push(&mut b, &[0.0, 0.5, 1.0], &[3.0, 1.0, 2.0]);
        let (slot, _) = push(&mut b, &xs, &ys);
        let a = b.finish();
        let (mut prefix, mut suffix) = (Vec::new(), Vec::new());
        a.window_slopes(slot, 0, 1, 1, &mut prefix);
        a.window_slopes_ending(slot, 0, 0, 1, &mut suffix);
        assert_eq!(prefix.len(), 1);
        assert_eq!(prefix[0].to_bits(), idx.slope(0, 1).to_bits());
        assert_eq!(suffix[0].to_bits(), prefix[0].to_bits());
    }

    #[test]
    fn degenerate_windows_report_zero_like_the_scalar_path() {
        // Duplicate x values make the denominator collapse below 1e-12.
        let xs = [0.5, 0.5, 0.5];
        let ys = [0.0, 1.0, 2.0];
        let idx = StatsIndex::new(&xs, &ys);
        let mut b = ArenaBuilder::new();
        let (slot, _) = push(&mut b, &xs, &ys);
        let a = b.finish();
        let mut out = Vec::new();
        a.interval_slopes(slot, &mut out);
        assert_eq!(out, vec![0.0, 0.0]);
        a.window_slopes(slot, 0, 1, 2, &mut out);
        assert_eq!(out[0].to_bits(), idx.slope(0, 1).to_bits());
        assert_eq!(out[1].to_bits(), idx.slope(0, 2).to_bits());
        assert_eq!(out, vec![0.0, 0.0]);
        a.window_slopes_ending(slot, 0, 1, 2, &mut out);
        assert_eq!(out, vec![0.0, 0.0]);
    }

    /// A row whose rise is not the sum of its intervals' slope × run —
    /// an x that descends, two equal or pinched xs whose ys differ —
    /// gets the NaN extent that keeps it from being pruned; equal xs
    /// whose ys agree add nothing, and keep a finite extent.
    #[test]
    fn a_rise_no_interval_slope_carries_makes_the_extent_nan() {
        let extent = |xs: &[f64], ys: &[f64]| push(&mut ArenaBuilder::new(), xs, ys).1;
        let ys = [0.0, 1.0, 0.5, 1.0];
        for xs in [
            [0.0, 0.5, 0.25, 1.0],
            [0.0, 0.5, 0.5, 1.0],
            [0.0, 0.5, 0.5 + 1e-9, 1.0],
        ] {
            let (lo, hi) = extent(&xs, &ys);
            assert!(lo.is_nan() && hi.is_nan(), "{xs:?}");
        }
        let (lo, hi) = extent(&[0.0, 0.5, 0.5, 1.0], &[0.0, 1.0, 1.0, 0.5]);
        assert_eq!((lo, hi), (-1.0, 2.0));
    }

    #[test]
    fn nan_inputs_propagate_identically() {
        let xs = [0.0, 0.5, 1.0];
        let ys = [0.0, f64::NAN, 1.0];
        let idx = StatsIndex::new(&xs, &ys);
        let mut b = ArenaBuilder::new();
        let (slot, _) = push(&mut b, &xs, &ys);
        let a = b.finish();
        for i in 0..3 {
            for j in i..3 {
                assert_eq!(
                    idx.slope(i, j).to_bits(),
                    a.slope(slot, i, j).to_bits(),
                    "[{i}, {j}]"
                );
            }
        }
    }

    #[test]
    fn slope_extent_matches_group_time_extremes() {
        let (xs, ys) = demo_series(33, 30);
        let idx = StatsIndex::new(&xs, &ys);
        let (_, extent) = push(&mut ArenaBuilder::new(), &xs, &ys);
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for t in 0..29 {
            let s = idx.slope(t, t + 1);
            lo = lo.min(s);
            hi = hi.max(s);
        }
        assert_eq!(extent, (lo, hi));
    }

    /// Checks viz `slot`'s node-angle run against the recursion over
    /// `[lo, hi]`, walking it with the kernel's child-index rule; returns
    /// how many nodes it visited.
    fn check_node_angles(
        a: &ColumnarArena,
        slot: usize,
        node: usize,
        lo: usize,
        hi: usize,
    ) -> usize {
        let want = a.range_stats(slot, lo, hi).slope().atan();
        assert_eq!(
            a.node_angles(slot)[node].to_bits(),
            want.to_bits(),
            "slot {slot} node {node} [{lo}, {hi}]"
        );
        if hi - lo == 1 {
            return 1;
        }
        let mid = lo + (hi - lo) / 2;
        1 + check_node_angles(a, slot, node + 1, lo, mid)
            + check_node_angles(a, slot, node + 2 * (mid - lo), mid, hi)
    }

    #[test]
    fn node_angles_match_the_recursion_bit_for_bit() {
        let mut b = ArenaBuilder::new();
        // Slots the builder accepts below two points get empty runs.
        let short = [push(&mut b, &[], &[]).0, push(&mut b, &[0.5], &[2.0]).0];
        let mut slots = Vec::new();
        for n in 2..=200usize {
            let (xs, ys) = demo_series(n as u64, n);
            let run = b.push_run(&xs);
            slots.push((b.push_viz(run, &ys).0, n));
            let mut with_nan = ys.clone();
            with_nan[n / 2] = f64::NAN;
            slots.push((b.push_viz(run, &with_nan).0, n));
            slots.push((b.push_viz(run, &vec![0.25; n]).0, n));
        }
        let a = b.finish();
        for slot in short {
            assert!(a.node_angles(slot).is_empty(), "slot {slot}");
        }
        for (slot, n) in slots {
            assert_eq!(a.node_angles(slot).len(), 2 * n - 3, "slot {slot}");
            assert_eq!(check_node_angles(&a, slot, 0, 0, n - 1), 2 * n - 3);
        }
    }

    #[test]
    fn byte_size_counts_every_column() {
        let mut b = ArenaBuilder::new();
        // Seeds 5 and 6 share one 128-point x run; every other row is
        // its own.
        for (seed, n) in [(3u64, 2usize), (4, 17), (5, 128)] {
            let (xs, ys) = demo_series(seed, n);
            push(&mut b, &xs, &ys);
        }
        b.push_viz(2, &demo_series(6, 128).1);
        push(&mut b, &[1.0], &[1.0]);
        let a = b.finish();
        let f64s = a.xs.len()
            + a.sum_x.len()
            + a.sum_xx.len()
            + a.ys.len()
            + a.sum_y.len()
            + a.sum_xy.len();
        let offsets = a.run_starts.len() + a.runs.len() + a.point_starts.len();
        let cell = std::mem::size_of::<OnceLock<Box<[f64]>>>();
        assert_eq!(a.node_angles.len(), 5);
        assert_eq!(a.byte_size(), 8 * f64s + 8 * offsets + 5 * cell);
        // 4 x runs of 2 + 17 + 128 + 1 = 148 points: xs 148, sum_x and
        // sum_xx 148 + 4 each. 5 vizzes of 148 + 128 = 276 points: ys
        // 276, sum_y and sum_xy 276 + 5 each. Offsets: run_starts 4 + 1,
        // runs 5, point_starts 5 + 1. One unbuilt angle cell a viz.
        let f64s = 148 + 2 * 152 + 276 + 2 * 281;
        assert_eq!(a.byte_size(), 8 * (f64s + 5 + 5 + 6) + 5 * cell);
    }

    #[test]
    fn a_fresh_arena_holds_no_built_run() {
        let mut b = ArenaBuilder::with_capacity(3, 3 * 64);
        let run = b.push_run(&demo_series(0, 64).0);
        for seed in 0..3u64 {
            b.push_viz(run, &demo_series(seed, 64).1);
        }
        let a = b.finish();
        // Every other read leaves the cells as GROUP left them.
        let mut out = Vec::new();
        for slot in 0..3 {
            a.interval_slopes(slot, &mut out);
            a.window_slopes(slot, 0, 1, 63, &mut out);
            let _ = a.range_stats(slot, 0, 63);
        }
        assert!(a.node_angles.iter().all(|cell| cell.get().is_none()));
        assert_eq!(a.angle_run_bytes(), 0);
        assert_eq!(a.node_angles(1).len(), 125);
        assert_eq!(a.angle_run_bytes(), 8 * 125);
        assert!(a.node_angles[0].get().is_none() && a.node_angles[2].get().is_none());
    }

    #[test]
    fn concurrent_first_reads_share_one_run_built_once() {
        let mut b = ArenaBuilder::new();
        for seed in 0..4u64 {
            let (xs, ys) = demo_series(seed + 11, 100 + seed as usize);
            push(&mut b, &xs, &ys);
        }
        let a = b.finish();
        let bytes = a.byte_size();
        for slot in 0..4 {
            let start = std::sync::Barrier::new(4);
            let runs: Vec<&[f64]> = std::thread::scope(|scope| {
                let readers: Vec<_> = (0..4)
                    .map(|_| {
                        let (a, start) = (&a, &start);
                        scope.spawn(move || {
                            start.wait();
                            a.node_angles(slot)
                        })
                    })
                    .collect();
                readers.into_iter().map(|r| r.join().unwrap()).collect()
            });
            assert!(
                runs.iter().all(|run| std::ptr::eq(*run, runs[0])),
                "slot {slot}"
            );
            let n = a.n(slot);
            assert_eq!(runs[0].len(), 2 * n - 3);
            assert_eq!(check_node_angles(&a, slot, 0, 0, n - 1), 2 * n - 3);
        }
        let built: usize = (0..4).map(|slot| 8 * (2 * a.n(slot) - 3)).sum();
        assert_eq!(a.angle_run_bytes(), built);
        assert_eq!(a.byte_size(), bytes);
    }

    /// GROUP opens one x run per raw x grid: rows bitwise equal in raw
    /// x share one, and `-0.0` vs `0.0`, one ulp and a prefix each open
    /// their own — `-0.0`'s row too, though it lands on the canvas `0.0`'s
    /// does — while a NaN row equals itself. Each handle's grid is its
    /// run, and every statistic is the per-viz index's.
    #[test]
    fn bitwise_equal_x_rows_share_one_run() {
        let row = [0.0, 0.5, 1.0];
        let signed = [-0.0, 0.5, 1.0];
        let ulp = [0.0, 0.5, f64::from_bits(1.0f64.to_bits() + 1)];
        let nan = [0.0, f64::NAN, 1.0];
        let rows: [&[f64]; 8] = [&row, &signed, &row, &ulp, &row[..2], &signed, &nan, &nan];
        let tls: Vec<Trendline> = rows
            .iter()
            .enumerate()
            .map(|(v, xs)| {
                let points: Vec<(f64, f64)> = (xs.iter().enumerate())
                    .map(|(t, &x)| (x, ((v * 7 + t * 3) % 5) as f64))
                    .collect();
                Trendline::from_pairs(format!("t{v}"), &points)
            })
            .collect();
        let grouped = group_collection(&tls, 1);
        let vizzes: Vec<&VizData> = grouped.iter().flatten().collect();
        assert_eq!(vizzes.len(), rows.len());
        let a = vizzes[0].arena();
        assert_eq!(a.runs, [0, 1, 0, 2, 3, 1, 4, 4]);
        assert_eq!(a.run_starts, [0, 3, 6, 9, 11, 14]);
        assert_eq!(a.point_count(), 23);
        let bits = |vals: &[f64]| vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(vizzes[1].xs()), bits(vizzes[0].xs()));
        for (v, t) in vizzes.iter().zip(&tls) {
            let slot = v.slot();
            assert_eq!(v.grid as usize, a.run(slot), "slot {slot}");
            let alone = VizData::from_trendline(t, 0, 1).unwrap();
            assert_eq!(bits(v.xs()), bits(alone.xs()), "slot {slot}");
            let idx = StatsIndex::new(alone.xs(), alone.ys());
            for i in 0..v.n() {
                for j in i..v.n() {
                    let (want, got) = (idx.range(i, j), a.range_stats(slot, i, j));
                    assert_eq!(
                        [want.sx, want.sy, want.sxy, want.sxx].map(f64::to_bits),
                        [got.sx, got.sy, got.sxy, got.sxx].map(f64::to_bits),
                        "slot {slot} [{i}, {j}]"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_arena_and_empty_runs_are_fine() {
        let a = ArenaBuilder::new().finish();
        assert_eq!(a.viz_count(), 0);
        assert_eq!(a.point_count(), 0);
        let mut b = ArenaBuilder::with_capacity(1, 2);
        let (slot, _) = push(&mut b, &[0.0, 1.0], &[0.0, 1.0]);
        let a = b.finish();
        let mut out = vec![1.0];
        a.window_slopes(slot, 0, 1, 0, &mut out);
        assert!(out.is_empty());
        out.push(1.0);
        a.window_slopes_ending(slot, 1, 0, 1, &mut out);
        assert!(out.is_empty());
    }
}
