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
//! asserts this across segmenters and shard counts).
//!
//! ## Memory layout
//!
//! One arena holds V visualizations totalling P canvas points:
//!
//! ```text
//! xs, ys                len P      point t of viz v at point_starts[v] + t
//! sum_x … sum_xx        len P + V  prefix sums, one leading 0 per viz
//! point_starts          len V + 1  per-viz point offsets
//! slope_min, slope_max  len V     GROUP-time interval-slope extremes
//! ```
//!
//! The prefix columns carry one extra leading zero per viz (the empty
//! prefix), so viz `v`'s prefix run starts at `point_starts[v] + v` and
//! holds `n + 1` entries. Statistics over the inclusive point range
//! `[i, j]` are then a per-column `prefix[j + 1] − prefix[i]` — O(1),
//! with the four subtractions sitting in four independent streams.
//!
//! This layout is also the on-disk snapshot format
//! ([`crate::snapshot`]): the flat `f64` columns plus the offset column
//! serialize byte for byte, and an opened snapshot's columns map
//! straight back into an arena with no pointer fix-up — each column is
//! then a `Column::Mapped` zero-copy view kept alive by the mapping's
//! `Arc`.

use crate::stats::SummaryStats;
use shapesearch_datastore::Trendline;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// One flat `f64` column of a [`ColumnarArena`]: either heap-owned (the
/// eager GROUP path) or a zero-copy view into a mapped snapshot, kept
/// alive by an `Arc` on the mapping. Derefs to `&[f64]`, so every kernel
/// reads both backings identically — same bytes, same bits, same
/// results.
#[derive(Clone)]
pub(crate) enum Column {
    /// A heap-allocated column (the [`ArenaBuilder`] output).
    Owned(Vec<f64>),
    /// An aligned little-endian `f64` run inside a mapped snapshot file.
    Mapped {
        /// First element of the run (8-byte aligned, inside `keep`).
        ptr: *const f64,
        /// Element count.
        len: usize,
        /// Keeps the mapping (and so `ptr`) alive; only held, never read.
        #[allow(dead_code)]
        keep: Arc<memmap2::Mmap>,
    },
}

// Safety: a Mapped column points into a read-only private mapping that
// stays alive for as long as `keep` does and is never written through;
// Owned is a plain Vec. Sharing across threads therefore cannot race.
unsafe impl Send for Column {}
unsafe impl Sync for Column {}

impl Column {
    /// A zero-copy column over `len` `f64`s starting `byte_offset` bytes
    /// into `map`.
    ///
    /// # Panics
    /// The run must lie inside the mapping and start 8-byte aligned —
    /// the snapshot loader validates both before calling.
    pub(crate) fn mapped(map: &Arc<memmap2::Mmap>, byte_offset: usize, len: usize) -> Self {
        let bytes = len.checked_mul(8).expect("column byte length overflows");
        let end = byte_offset
            .checked_add(bytes)
            .expect("column end overflows");
        assert!(end <= map.len(), "column run outside the mapping");
        let ptr = unsafe { map.as_ptr().add(byte_offset) };
        assert_eq!(
            ptr as usize % std::mem::align_of::<f64>(),
            0,
            "column run misaligned"
        );
        Self::Mapped {
            ptr: ptr.cast::<f64>(),
            len,
            keep: Arc::clone(map),
        }
    }

    /// Mutable access to the backing vector — builder-side only.
    ///
    /// # Panics
    /// Panics on a mapped column (mapped snapshots are immutable).
    fn vec_mut(&mut self) -> &mut Vec<f64> {
        match self {
            Self::Owned(v) => v,
            Self::Mapped { .. } => unreachable!("mapped columns are immutable"),
        }
    }
}

impl Deref for Column {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        match self {
            Self::Owned(v) => v,
            Self::Mapped { ptr, len, .. } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
        }
    }
}

impl Default for Column {
    fn default() -> Self {
        Self::Owned(Vec::new())
    }
}

impl From<Vec<f64>> for Column {
    fn from(v: Vec<f64>) -> Self {
        Self::Owned(v)
    }
}

impl fmt::Debug for Column {
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

/// The raw (x, y) points of a collection, stored once: trendline `i`'s
/// points are `xs[starts[i]..starts[i + 1]]` and the same run of `ys`,
/// ascending in x. An engine's GROUP (at any bin width), push-down (a)
/// and the snapshot writer all read these two columns; they are heap
/// vectors when flattened from EXTRACT's output and zero-copy views of
/// the mapping when cut from a snapshot.
#[derive(Debug)]
pub(crate) struct PointTable {
    xs: Column,
    ys: Column,
    starts: Vec<usize>,
}

impl PointTable {
    /// Assembles a table from pre-built columns — the snapshot loader's
    /// constructor; `starts` is monotone from 0 to the columns' length.
    pub(crate) fn from_columns(xs: Column, ys: Column, starts: Vec<usize>) -> Self {
        debug_assert_eq!(xs.len(), ys.len());
        debug_assert_eq!(starts.last(), Some(&xs.len()));
        Self { xs, ys, starts }
    }

    /// Flattens EXTRACT's output, one row per trendline.
    pub(crate) fn from_trendlines(trendlines: &[Trendline]) -> Self {
        let points = trendlines.iter().map(Trendline::len).sum();
        let (mut xs, mut ys) = (Vec::with_capacity(points), Vec::with_capacity(points));
        let mut starts = Vec::with_capacity(trendlines.len() + 1);
        starts.push(0);
        for t in trendlines {
            xs.extend(t.points.iter().map(|p| p.x));
            ys.extend(t.points.iter().map(|p| p.y));
            starts.push(xs.len());
        }
        Self::from_columns(xs.into(), ys.into(), starts)
    }

    /// Number of trendlines.
    pub(crate) fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Trendline `i`'s raw `(xs, ys)`.
    pub(crate) fn row(&self, i: usize) -> (&[f64], &[f64]) {
        let run = self.starts[i]..self.starts[i + 1];
        (&self.xs[run.clone()], &self.ys[run])
    }

    /// The whole columns and the row offsets — the snapshot writer's
    /// read access.
    pub(crate) fn columns(&self) -> (&[f64], &[f64], &[usize]) {
        (&self.xs, &self.ys, &self.starts)
    }
}

/// Borrowed views of every arena column, in snapshot serialization
/// order — the writer's one-stop read access.
pub(crate) struct RawColumns<'a> {
    pub xs: &'a [f64],
    pub ys: &'a [f64],
    pub sum_x: &'a [f64],
    pub sum_y: &'a [f64],
    pub sum_xy: &'a [f64],
    pub sum_xx: &'a [f64],
    pub point_starts: &'a [usize],
    pub slope_min: &'a [f64],
    pub slope_max: &'a [f64],
}

/// Structure-of-arrays GROUP output for a whole collection: contiguous
/// coordinate and prefix-statistic columns shared (via `Arc`) by every
/// [`VizData`](crate::engine::group::VizData) handle cut from it.
#[derive(Clone, Default)]
pub struct ColumnarArena {
    xs: Column,
    ys: Column,
    sum_x: Column,
    sum_y: Column,
    sum_xy: Column,
    sum_xx: Column,
    point_starts: Vec<usize>,
    slope_min: Column,
    slope_max: Column,
}

impl fmt::Debug for ColumnarArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ColumnarArena")
            .field("vizzes", &self.viz_count())
            .field("points", &self.xs.len())
            .finish()
    }
}

impl ColumnarArena {
    /// Assembles an arena straight from pre-built columns — the snapshot
    /// loader's constructor. The caller (only [`crate::snapshot`])
    /// guarantees the columns satisfy the layout invariants above:
    /// monotone `point_starts`, prefix columns of length
    /// `points + vizzes`, slope columns of length `vizzes`.
    #[allow(clippy::too_many_arguments)] // nine columns are the format, not an API smell
    pub(crate) fn from_columns(
        xs: Column,
        ys: Column,
        sum_x: Column,
        sum_y: Column,
        sum_xy: Column,
        sum_xx: Column,
        point_starts: Vec<usize>,
        slope_min: Column,
        slope_max: Column,
    ) -> Self {
        Self {
            xs,
            ys,
            sum_x,
            sum_y,
            sum_xy,
            sum_xx,
            point_starts,
            slope_min,
            slope_max,
        }
    }

    /// Borrowed views of every column — the snapshot writer's read
    /// access.
    pub(crate) fn raw(&self) -> RawColumns<'_> {
        RawColumns {
            xs: &self.xs,
            ys: &self.ys,
            sum_x: &self.sum_x,
            sum_y: &self.sum_y,
            sum_xy: &self.sum_xy,
            sum_xx: &self.sum_xx,
            point_starts: &self.point_starts,
            slope_min: &self.slope_min,
            slope_max: &self.slope_max,
        }
    }

    /// Number of visualizations in the arena.
    pub fn viz_count(&self) -> usize {
        self.point_starts.len().saturating_sub(1)
    }

    /// Total bytes held (or mapped) by the arena's columns — the
    /// resident-memory cost a server pays to keep this arena hot, used
    /// by the resident-shard byte budget (`--resident-bytes`).
    pub fn byte_size(&self) -> usize {
        let f64_cells = self.xs.len()
            + self.ys.len()
            + self.sum_x.len()
            + self.sum_y.len()
            + self.sum_xy.len()
            + self.sum_xx.len()
            + self.slope_min.len()
            + self.slope_max.len();
        f64_cells * std::mem::size_of::<f64>()
            + self.point_starts.len() * std::mem::size_of::<usize>()
    }

    /// Total canvas points across all visualizations.
    pub fn point_count(&self) -> usize {
        self.xs.len()
    }

    /// Number of canvas points in viz `slot`.
    pub fn n(&self, slot: usize) -> usize {
        self.point_starts[slot + 1] - self.point_starts[slot]
    }

    /// Canvas x coordinates of viz `slot`.
    pub fn xs(&self, slot: usize) -> &[f64] {
        &self.xs[self.point_starts[slot]..self.point_starts[slot + 1]]
    }

    /// Canvas y coordinates of viz `slot`.
    pub fn ys(&self, slot: usize) -> &[f64] {
        &self.ys[self.point_starts[slot]..self.point_starts[slot + 1]]
    }

    /// GROUP-time `(min, max)` of viz `slot`'s adjacent-interval slopes
    /// (the §6.3 bound inputs).
    pub fn slope_extent(&self, slot: usize) -> (f64, f64) {
        (self.slope_min[slot], self.slope_max[slot])
    }

    /// Start of viz `slot`'s prefix run: each earlier viz contributes
    /// its points plus one leading zero entry.
    #[inline]
    fn prefix_start(&self, slot: usize) -> usize {
        self.point_starts[slot] + slot
    }

    /// Viz `slot`'s four prefix-sum runs as plain slices, resolved once:
    /// a kernel that scores many windows of one viz (the SegmentTree
    /// visits ~10 per node) pays the column dispatch and the offset
    /// arithmetic here, not per window.
    #[inline]
    pub(crate) fn prefix_runs(&self, slot: usize) -> PrefixRuns<'_> {
        let p = self.prefix_start(slot);
        let run = p..p + self.n(slot) + 1;
        PrefixRuns {
            sum_x: &self.sum_x[run.clone()],
            sum_y: &self.sum_y[run.clone()],
            sum_xy: &self.sum_xy[run.clone()],
            sum_xx: &self.sum_xx[run],
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
        let p = self.prefix_start(slot);
        let sx = &self.sum_x[p + lo..p + hi + 2];
        let sy = &self.sum_y[p + lo..p + hi + 2];
        let sxy = &self.sum_xy[p + lo..p + hi + 2];
        let sxx = &self.sum_xx[p + lo..p + hi + 2];
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
        let p = self.prefix_start(slot);
        let (lo_x, lo_y) = (self.sum_x[p + s], self.sum_y[p + s]);
        let (lo_xy, lo_xx) = (self.sum_xy[p + s], self.sum_xx[p + s]);
        let (hb, he) = (p + e_lo + 1, p + e_hi + 2);
        let sx = &self.sum_x[hb..he];
        let sy = &self.sum_y[hb..he];
        let sxy = &self.sum_xy[hb..he];
        let sxx = &self.sum_xx[hb..he];
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
        let p = self.prefix_start(slot);
        let (hi_x, hi_y) = (self.sum_x[p + e + 1], self.sum_y[p + e + 1]);
        let (hi_xy, hi_xx) = (self.sum_xy[p + e + 1], self.sum_xx[p + e + 1]);
        let (lb, le) = (p + s_lo, p + s_hi + 1);
        let sx = &self.sum_x[lb..le];
        let sy = &self.sum_y[lb..le];
        let sxy = &self.sum_xy[lb..le];
        let sxx = &self.sum_xx[lb..le];
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
}

/// One viz's prefix-sum runs (`n + 1` entries each, leading zero
/// included), borrowed from its [`ColumnarArena`].
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
}

/// Incremental [`ColumnarArena`] construction: one `push_viz` per
/// GROUP'd visualization, in slot order.
#[derive(Debug, Default)]
pub struct ArenaBuilder {
    arena: ColumnarArena,
}

impl ArenaBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        let mut arena = ColumnarArena::default();
        arena.point_starts.push(0);
        Self { arena }
    }

    /// A builder pre-sized for `points` total canvas points across
    /// `vizzes` visualizations.
    pub fn with_capacity(vizzes: usize, points: usize) -> Self {
        let mut b = Self::new();
        let a = &mut b.arena;
        a.xs.vec_mut().reserve(points);
        a.ys.vec_mut().reserve(points);
        for col in [&mut a.sum_x, &mut a.sum_y, &mut a.sum_xy, &mut a.sum_xx] {
            col.vec_mut().reserve(points + vizzes);
        }
        a.point_starts.reserve(vizzes);
        a.slope_min.vec_mut().reserve(vizzes);
        a.slope_max.vec_mut().reserve(vizzes);
        b
    }

    /// Appends one visualization's canvas points, returning its slot.
    ///
    /// Prefix sums accumulate per column in the same operation order as
    /// [`StatsIndex::new`](crate::stats::StatsIndex::new) (`acc + x`,
    /// `acc + y`, `acc + x·y`, `acc + x·x` per point, after a leading
    /// zero), so every downstream range query is bit-identical to the
    /// scalar index.
    ///
    /// # Panics
    /// Panics when `xs` and `ys` differ in length.
    pub fn push_viz(&mut self, xs: &[f64], ys: &[f64]) -> usize {
        assert_eq!(xs.len(), ys.len(), "xs and ys must align");
        let a = &mut self.arena;
        let slot = a.point_starts.len() - 1;
        a.xs.vec_mut().extend_from_slice(xs);
        a.ys.vec_mut().extend_from_slice(ys);
        let (mut ax, mut ay, mut axy, mut axx) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        a.sum_x.vec_mut().push(0.0);
        a.sum_y.vec_mut().push(0.0);
        a.sum_xy.vec_mut().push(0.0);
        a.sum_xx.vec_mut().push(0.0);
        for (&x, &y) in xs.iter().zip(ys) {
            ax += x;
            ay += y;
            axy += x * y;
            axx += x * x;
            a.sum_x.vec_mut().push(ax);
            a.sum_y.vec_mut().push(ay);
            a.sum_xy.vec_mut().push(axy);
            a.sum_xx.vec_mut().push(axx);
        }
        a.point_starts.push(a.xs.len());
        // GROUP-time slope extremes straight off the fresh prefix run.
        let mut scratch = Vec::new();
        a.interval_slopes(slot, &mut scratch);
        // NaN-propagating fold: `f64::min`/`max` would *ignore* a NaN
        // interval slope and hand pruning a finite bound for a viz whose
        // actual score is NaN — which `total_cmp` ranks above every real
        // score, so pruning it would change the top-k. A NaN extent makes
        // every derived bound NaN and the viz unprunable.
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        let mut saw_nan = false;
        for &s in &scratch {
            saw_nan |= s.is_nan();
            lo = lo.min(s);
            hi = hi.max(s);
        }
        if saw_nan {
            lo = f64::NAN;
            hi = f64::NAN;
        }
        a.slope_min.vec_mut().push(lo);
        a.slope_max.vec_mut().push(hi);
        slot
    }

    /// Finalizes the arena.
    pub fn finish(self) -> ColumnarArena {
        self.arena
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::StatsIndex;

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
            b.push_viz(&xs, &ys);
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
        // 1,228 seeded walks of 48 points in ONE arena, so slots past the
        // first read their runs at non-zero column offsets.
        const VIZZES: usize = 1228;
        const POINTS: usize = 48;
        let mut b = ArenaBuilder::with_capacity(VIZZES, VIZZES * POINTS);
        let mut refs = Vec::with_capacity(VIZZES);
        for v in 0..VIZZES {
            let (xs, ys) = demo_series(v as u64 + 1, POINTS);
            b.push_viz(&xs, &ys);
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
        b.push_viz(&[0.0, 0.5, 1.0], &[3.0, 1.0, 2.0]);
        let slot = b.push_viz(&xs, &ys);
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
        let slot = b.push_viz(&xs, &ys);
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

    #[test]
    fn nan_inputs_propagate_identically() {
        let xs = [0.0, 0.5, 1.0];
        let ys = [0.0, f64::NAN, 1.0];
        let idx = StatsIndex::new(&xs, &ys);
        let mut b = ArenaBuilder::new();
        let slot = b.push_viz(&xs, &ys);
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
        let mut b = ArenaBuilder::new();
        let slot = b.push_viz(&xs, &ys);
        let a = b.finish();
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for t in 0..29 {
            let s = idx.slope(t, t + 1);
            lo = lo.min(s);
            hi = hi.max(s);
        }
        assert_eq!(a.slope_extent(slot), (lo, hi));
    }

    #[test]
    fn empty_arena_and_empty_runs_are_fine() {
        let a = ArenaBuilder::new().finish();
        assert_eq!(a.viz_count(), 0);
        assert_eq!(a.point_count(), 0);
        let mut b = ArenaBuilder::with_capacity(1, 2);
        let slot = b.push_viz(&[0.0, 1.0], &[0.0, 1.0]);
        let a = b.finish();
        let mut out = vec![1.0];
        a.window_slopes(slot, 0, 1, 0, &mut out);
        assert!(out.is_empty());
        out.push(1.0);
        a.window_slopes_ending(slot, 1, 0, 1, &mut out);
        assert!(out.is_empty());
    }
}
