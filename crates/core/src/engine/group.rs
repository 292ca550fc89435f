//! The GROUP physical operator (paper §5.3, step 2).
//!
//! GROUP turns each extracted trendline into the engine's internal
//! representation: coordinates are normalized onto the rendering canvas
//! (x and y each mapped to `[0, 1]`, matching how the visualization is
//! perceived on screen — a slope of 1 is the 45° diagonal), optionally binned
//! ("each visualization is approximated using a sequence of small
//! line-segments of length b, the binning width"), and indexed with prefix
//! summarized statistics so any sub-range's fitted line is O(1)
//! (Theorem 5.1).
//!
//! The prefix statistics live in a shared structure-of-arrays
//! [`ColumnarArena`] (see [`crate::columnar`]): GROUP turns a whole
//! collection into one arena and every [`VizData`] is an `Arc`-shared
//! handle (slot + offsets) into it, which is what lets the scoring
//! kernels stream over contiguous columns instead of chasing per-viz
//! `Vec`s.
//!
//! GROUP reads the collection's two raw point columns and nothing else,
//! and `group_points` is its one implementation. An engine runs it on
//! the columns it owns (heap vectors flattened from EXTRACT's output, or
//! views of a mapped snapshot — same code, same bits);
//! [`group_collection`] and [`VizData::from_trendline`] are front doors
//! for callers holding `Trendline`s, which flatten and run the same
//! function. No file format holds its output.
//!
//! The raw x grid is the one x-row identity. The point table numbers
//! the distinct raw x rows when it is built; GROUP opens one x run per
//! grid at the grid's first accepted row — canvas xs, their prefix sums
//! and the raw x extent, computed once — and every other row on the
//! grid normalizes and pushes its ys alone. A handle's grid id is its
//! run, so a query resolves what its LOCATION pins name — push-down
//! (a)'s coverage, a pinned unit's canvas window — once per grid
//! (`GridMemo`) rather than once per trendline.
//!
//! GROUP is query-independent. §5.4's push-down (c) — "skip summarized
//! statistics outside the referenced x ranges" — pays off only when GROUP
//! runs per query; here the engine GROUPs a collection once per bin width
//! for its whole lifetime (`ShapeEngine::grouped`), so statistics are
//! computed zero times per query, which no restricted re-GROUP can beat:
//! on 1,000 × 128-point walks a located query cost ~3,000 µs while it
//! re-GROUPed its x ranges privately and costs ~500 µs on the cached arena.
//! A located query therefore scores on the same full canvas as a fuzzy
//! one, and its fitted `ranges` are positions on that canvas.
//!
//! *Normalization note.* The paper applies z-score normalization when the
//! query has no y constraints. Because all pattern scores are functions of
//! the *perceived* slope, this implementation normalizes both axes onto the
//! unit canvas, which is invariant to affine y transforms — it subsumes
//! z-normalization for slope-based scoring while keeping raw coordinate
//! mappings available for y-location constraints.

use crate::columnar::{ArenaBuilder, Collection, ColumnarArena, PointTable};
use crate::stats::SummaryStats;
use shapesearch_datastore::Trendline;
use std::sync::Arc;

/// A candidate visualization prepared for segmentation and scoring: an
/// `Arc`-shared handle into a [`ColumnarArena`] slot plus the per-viz
/// scalars scoring needs (raw extents, slope extremes and their angles,
/// x grid, source index). GROUP alone writes those scalars, and the
/// §6.3 bound pass trusts every one of them, so they are the crate's:
/// callers outside it read what they need through methods.
#[derive(Debug, Clone)]
pub struct VizData {
    /// Raw x domain (min, max) for mapping query literals.
    pub(crate) raw_x: (f64, f64),
    /// Raw y domain (min, max).
    pub(crate) raw_y: (f64, f64),
    /// Smallest slope among the intervals between adjacent canvas points
    /// (the leaf level of the SegmentTree). Cached at GROUP time from the
    /// prefix sums so the §6.3 score bounds are O(1) per query: any merged
    /// range's fitted slope is a convex combination of its interval slopes
    /// (the "law of the triangle" of Theorem 6.4), so it lies in
    /// `[slope_min, slope_max]`.
    pub(crate) slope_min: f64,
    /// Largest interval slope; see [`Self::slope_min`].
    pub(crate) slope_max: f64,
    /// `atan(slope_min)`, taken once here so the §6.3 bound pass — which
    /// reads the Table 5 scorers at both extremes for every candidate of
    /// every query, save for a segment pinned at both ends (bounded on its
    /// own window instead) — takes no `atan` for them. Taken when GROUP
    /// builds the handle, from the extremes `ArenaBuilder::push_viz`
    /// returns; the arena keeps no copy.
    pub(crate) theta_min: f64,
    /// `atan(slope_max)`; see [`Self::theta_min`].
    pub(crate) theta_max: f64,
    /// Id of this trendline's x grid within its GROUP run: two handles
    /// share it exactly when their raw x rows are bitwise equal, and
    /// then so are their raw extents, canvas xs, [`Self::x_to_index`]
    /// and push-down (a)'s coverage — which is what lets a query
    /// resolve its pins once a grid (`GridMemo`). It is the x run the
    /// arena stores the canvas xs on, so dense from 0 in source order
    /// over the handles of one GROUP run.
    pub(crate) grid: u32,
    /// Index of the source trendline in the engine's collection (its
    /// key is the engine's `key(source)`).
    pub(crate) source: usize,
    arena: Arc<ColumnarArena>,
    slot: usize,
}

/// GROUPs a whole collection into **one shared arena**: every returned
/// [`VizData`] handle (index = source index; `None` where GROUP rejects
/// the trendline) points into the same `Arc`-shared columns. A front
/// door for callers holding EXTRACT's output: it flattens the points and
/// runs the column GROUP an engine runs on its own table.
pub fn group_collection(trendlines: &[Trendline], bin: usize) -> Vec<Option<VizData>> {
    let collection = Collection::from_trendlines(trendlines);
    group_points(&PointTable::new(&collection, 0, collection.len()), bin)
}

/// GROUP over the raw point columns — the one implementation behind
/// [`group_collection`], [`VizData::from_trendline`] and
/// `ShapeEngine::grouped`.
pub(crate) fn group_points(points: &PointTable, bin: usize) -> Vec<Option<VizData>> {
    let bin = bin.max(1);
    // A trendline yields ⌈n / bin⌉ canvas points; GROUP rejects it below two.
    let canvas = |source: usize| points.row(source).0.len().div_ceil(bin);
    let accepted = || (0..points.len()).map(canvas).filter(|&n| n >= 2);
    let mut builder = ArenaBuilder::with_capacity(accepted().count(), accepted().sum());
    // It also rejects one whose raw x or y span is not finite — an infinite
    // coordinate, or finite ones whose difference overflows (−1e308 and
    // 1e308) — which would put NaN on the canvas and score NaN. That is
    // rare enough to leave the builder's room for it unused.
    let finite = |(lo, hi): (f64, f64)| (hi - lo).is_finite();
    // Per grid, the run opened at its first accepted row and that row's
    // raw x extent.
    let mut runs = vec![None; points.grid_count()];
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    let parts: Vec<_> = (0..points.len())
        .map(|source| {
            if canvas(source) < 2 {
                return None;
            }
            let (raw_xs, raw_ys) = points.row(source);
            let raw_y = normalize(raw_ys, bin, &mut ys);
            if !finite(raw_y) {
                return None;
            }
            let grid = &mut runs[points.grid(source) as usize];
            let (run, raw_x) = match *grid {
                Some(opened) => opened,
                None => {
                    let raw_x = normalize(raw_xs, bin, &mut xs);
                    if !finite(raw_x) {
                        return None;
                    }
                    *grid.insert((builder.push_run(&xs), raw_x))
                }
            };
            Some((builder.push_viz(run, &ys), run, (raw_x, raw_y)))
        })
        .collect();
    let arena = Arc::new(builder.finish());
    parts
        .into_iter()
        .enumerate()
        .map(|(source, part)| {
            part.map(|((slot, slopes), run, extents)| VizData {
                raw_x: extents.0,
                raw_y: extents.1,
                slope_min: slopes.0,
                slope_max: slopes.1,
                theta_min: slopes.0.atan(),
                theta_max: slopes.1.atan(),
                grid: run as u32,
                source,
                arena: Arc::clone(&arena),
                slot,
            })
        })
        .collect()
}

/// A value a query derives from a candidate's x grid alone — push-down
/// (a)'s verdict on its pinned ranges, a pinned unit's canvas window —
/// kept, per key, for the last grid it was asked about: a walk over
/// candidates that share a grid computes each once, and one over
/// candidates that don't computes it per candidate, as it would
/// without the memo. Grid ids are numbered per GROUP run, so a grid is
/// told apart by its arena (its address) as well as its id.
#[derive(Debug)]
pub(crate) struct GridMemo<K, V> {
    grid: Option<(usize, u32)>,
    entries: Vec<(K, V)>,
}

impl<K, V> Default for GridMemo<K, V> {
    fn default() -> Self {
        Self {
            grid: None,
            entries: Vec::new(),
        }
    }
}

impl<K: PartialEq, V: Copy> GridMemo<K, V> {
    /// `compute()` for `key` on `viz`'s grid: remembered if this grid
    /// was the last one asked about, computed (and remembered) if not.
    #[inline]
    pub(crate) fn get(&mut self, viz: &VizData, key: K, compute: impl FnOnce() -> V) -> V {
        let grid = (Arc::as_ptr(&viz.arena) as usize, viz.grid);
        if self.grid != Some(grid) {
            self.grid = Some(grid);
            self.entries.clear();
        }
        if let Some(&(_, value)) = self.entries.iter().find(|(k, _)| *k == key) {
            return value;
        }
        let value = compute();
        self.entries.push((key, value));
        value
    }
}

impl VizData {
    /// Builds the GROUP output for a trendline, binning every `bin` raw
    /// points into one canvas point (bin = 1 keeps all points). Returns
    /// `None` when fewer than two canvas points remain or a raw span is
    /// not finite.
    pub fn from_trendline(t: &Trendline, source: usize, bin: usize) -> Option<Self> {
        let mut viz = group_collection(std::slice::from_ref(t), bin).pop()??;
        viz.source = source;
        Some(viz)
    }

    /// Number of canvas points.
    pub fn n(&self) -> usize {
        self.arena.n(self.slot)
    }

    /// Canvas x coordinates in `[0, 1]`, ascending.
    pub fn xs(&self) -> &[f64] {
        self.arena.xs(self.slot)
    }

    /// Canvas y coordinates in `[0, 1]`.
    pub fn ys(&self) -> &[f64] {
        self.arena.ys(self.slot)
    }

    /// Fitted slope over the inclusive canvas point range `[i, j]`
    /// (O(1) from the prefix columns).
    #[inline]
    pub fn slope(&self, i: usize, j: usize) -> f64 {
        self.arena.slope(self.slot, i, j)
    }

    /// Summarized statistics over the inclusive canvas point range
    /// `[i, j]`.
    #[inline]
    pub fn range_stats(&self, i: usize, j: usize) -> SummaryStats {
        self.arena.range_stats(self.slot, i, j)
    }

    /// The shared column arena this visualization lives in (for the
    /// batched window kernels).
    pub fn arena(&self) -> &ColumnarArena {
        &self.arena
    }

    /// This visualization's slot in [`Self::arena`].
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// Index of the source trendline in the engine's collection.
    pub fn source(&self) -> usize {
        self.source
    }

    /// Maps a raw x value onto the canvas.
    pub fn norm_x(&self, raw: f64) -> f64 {
        (raw - self.raw_x.0) / span(self.raw_x)
    }

    /// Maps a raw y value onto the canvas.
    pub fn norm_y(&self, raw: f64) -> f64 {
        (raw - self.raw_y.0) / span(self.raw_y)
    }

    /// Index of the canvas point closest to raw x value `raw`, clamped to
    /// the valid range.
    pub fn x_to_index(&self, raw: f64) -> usize {
        let target = self.norm_x(raw);
        let xs = self.xs();
        match xs.binary_search_by(|probe| probe.total_cmp(&target)) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) if i >= xs.len() => xs.len() - 1,
            Err(i) => {
                // Choose the nearer neighbour.
                if (xs[i] - target).abs() < (target - xs[i - 1]).abs() {
                    i
                } else {
                    i - 1
                }
            }
        }
    }

    /// Converts an x-axis width (raw units) into a number of canvas point
    /// steps (at least 1).
    pub fn width_to_points(&self, raw_width: f64) -> usize {
        let frac = raw_width / span(self.raw_x);
        let avg_step = 1.0 / (self.n() - 1) as f64;
        ((frac / avg_step).round() as usize).max(1)
    }
}

/// Normalizes one axis of a trendline's raw points onto the unit
/// canvas, `bin` raw points to a canvas point, into `out` (cleared
/// first — one scratch vector serves a whole collection), and returns
/// the raw extent. GROUP runs it on a grid's xs once and on each row's
/// ys.
fn normalize(raw: &[f64], bin: usize, out: &mut Vec<f64>) -> (f64, f64) {
    let raw_extent = extent(raw);
    let raw_span = span(raw_extent);
    out.clear();
    let mut chunk = 0.0;
    let mut chunk_n = 0usize;
    for &v in raw {
        chunk += (v - raw_extent.0) / raw_span;
        chunk_n += 1;
        if chunk_n == bin {
            out.push(chunk / bin as f64);
            chunk = 0.0;
            chunk_n = 0;
        }
    }
    if chunk_n > 0 {
        out.push(chunk / chunk_n as f64);
    }
    raw_extent
}

fn extent(values: &[f64]) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    (lo, hi)
}

/// Width of an extent, guarded against zero (constant series).
fn span((lo, hi): (f64, f64)) -> f64 {
    let s = hi - lo;
    if s > 0.0 {
        s
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trend(pairs: &[(f64, f64)]) -> Trendline {
        Trendline::from_pairs("t", pairs)
    }

    #[test]
    fn normalizes_to_unit_canvas() {
        let t = trend(&[(10.0, 100.0), (20.0, 300.0), (30.0, 200.0)]);
        let v = VizData::from_trendline(&t, 0, 1).unwrap();
        assert_eq!(v.xs(), &[0.0, 0.5, 1.0]);
        assert_eq!(v.ys(), &[0.0, 1.0, 0.5]);
        assert_eq!(v.raw_x, (10.0, 30.0));
        assert_eq!(v.raw_y, (100.0, 300.0));
    }

    #[test]
    fn constant_series_does_not_divide_by_zero() {
        let t = trend(&[(0.0, 5.0), (1.0, 5.0), (2.0, 5.0)]);
        let v = VizData::from_trendline(&t, 0, 1).unwrap();
        assert!(v.ys().iter().all(|&y| y == 0.0));
    }

    #[test]
    fn binning_averages_chunks() {
        let t = trend(&[(0.0, 0.0), (1.0, 4.0), (2.0, 0.0), (3.0, 4.0)]);
        let v = VizData::from_trendline(&t, 0, 2).unwrap();
        assert_eq!(v.n(), 2);
        // First bin: x mean of (0, 1/3), y mean of (0, 1) = 0.5.
        assert!((v.ys()[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn too_few_points_is_none() {
        let t = trend(&[(0.0, 1.0)]);
        assert!(VizData::from_trendline(&t, 0, 1).is_none());
        let t = trend(&[(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]);
        assert!(VizData::from_trendline(&t, 0, 3).is_none());
    }

    /// A raw span that is not finite is rejected like a too-short
    /// trendline: an infinite coordinate, or finite extremes whose
    /// difference overflows, would put NaN on the canvas and a NaN score
    /// into the top k (written as `null`, which a router refuses).
    #[test]
    fn non_finite_spans_are_rejected() {
        let tls = vec![
            trend(&[(0.0, 1.0), (1.0, 3.0), (2.0, 2.0)]),
            trend(&[(0.0, 1.0), (1.0, f64::INFINITY), (2.0, 2.0)]),
            trend(&[(0.0, -1e308), (1.0, 1e308), (2.0, 0.0)]),
            trend(&[(f64::NEG_INFINITY, 1.0), (1.0, 2.0), (2.0, 0.0)]),
            trend(&[(-1e308, 1.0), (0.0, 2.0), (1e308, 0.0)]),
        ];
        let grouped = group_collection(&tls, 1);
        let accepted: Vec<bool> = grouped.iter().map(Option::is_some).collect();
        assert_eq!(accepted, [true, false, false, false, false]);
        let engine = crate::ShapeEngine::from_trendlines(tls);
        let query = crate::ShapeQuery::pattern(crate::Pattern::Up);
        let results = engine.top_k(&query, 5).unwrap();
        assert_eq!(results.len(), 1);
        assert!(results[0].score.is_finite(), "{:?}", results[0]);
    }

    #[test]
    fn x_to_index_picks_nearest() {
        let t = trend(&[(0.0, 0.0), (10.0, 1.0), (20.0, 2.0), (30.0, 1.0)]);
        let v = VizData::from_trendline(&t, 0, 1).unwrap();
        assert_eq!(v.x_to_index(0.0), 0);
        assert_eq!(v.x_to_index(9.0), 1);
        assert_eq!(v.x_to_index(14.0), 1);
        assert_eq!(v.x_to_index(16.0), 2);
        assert_eq!(v.x_to_index(35.0), 3);
        assert_eq!(v.x_to_index(-5.0), 0);
    }

    #[test]
    fn width_conversion() {
        let t = trend(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)]);
        let v = VizData::from_trendline(&t, 0, 1).unwrap();
        // 2 raw-x units = half the span = 2 of the 4 steps.
        assert_eq!(v.width_to_points(2.0), 2);
        assert_eq!(v.width_to_points(0.1), 1); // floor at 1
    }

    #[test]
    fn slope_extremes_cover_every_interval() {
        let t = trend(&[(0.0, 0.0), (1.0, 3.0), (2.0, 1.0), (3.0, 2.0)]);
        let v = VizData::from_trendline(&t, 0, 1).unwrap();
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for i in 0..v.n() - 1 {
            let s = v.slope(i, i + 1);
            lo = lo.min(s);
            hi = hi.max(s);
        }
        assert_eq!(v.slope_min, lo);
        assert_eq!(v.slope_max, hi);
        assert_eq!((v.theta_min, v.theta_max), (lo.atan(), hi.atan()));
        assert!(v.slope_min < 0.0 && v.slope_max > 0.0);
        // A monotone line's extremes collapse onto one slope.
        let mono = trend(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]);
        let v = VizData::from_trendline(&mono, 0, 1).unwrap();
        assert!((v.slope_min - v.slope_max).abs() < 1e-12);
    }

    #[test]
    fn stats_index_slope_on_canvas() {
        let t = trend(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]);
        let v = VizData::from_trendline(&t, 0, 1).unwrap();
        // Canvas diagonal: slope 1.
        assert!((v.slope(0, 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn collection_group_matches_per_viz_group_bit_for_bit() {
        let tls = vec![
            trend(&[(0.0, 0.0), (1.0, 2.0), (2.0, 1.0), (3.0, 4.0)]),
            Trendline::from_pairs("short", &[(0.0, 1.0)]), // rejected by GROUP
            Trendline::from_pairs("u", &[(0.0, 3.0), (1.0, 0.0), (2.0, 3.5)]),
        ];
        let grouped = group_collection(&tls, 1);
        assert_eq!(grouped.len(), 3);
        assert!(grouped[1].is_none());
        for (source, t) in tls.iter().enumerate() {
            let Some(got) = &grouped[source] else {
                continue;
            };
            let want = VizData::from_trendline(t, source, 1).unwrap();
            assert_eq!(got.source, want.source);
            assert_eq!(got.xs(), want.xs());
            assert_eq!(got.ys(), want.ys());
            assert_eq!(got.slope_min.to_bits(), want.slope_min.to_bits());
            assert_eq!(got.slope_max.to_bits(), want.slope_max.to_bits());
            for i in 0..got.n() {
                for j in i..got.n() {
                    assert_eq!(got.slope(i, j).to_bits(), want.slope(i, j).to_bits());
                }
            }
        }
        // All live handles share one arena.
        let a = grouped[0].as_ref().unwrap();
        let b = grouped[2].as_ref().unwrap();
        assert!(std::ptr::eq(a.arena(), b.arena()));
        assert_ne!(a.slot(), b.slot());
    }

    /// The front door and the engine's own GROUP are one computation:
    /// same arena columns, same extents, bit for bit.
    #[test]
    fn trendline_group_and_engine_column_group_are_bit_equal() {
        let bits = |vals: &[f64]| vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let walk = |seed: usize, n: usize| -> Vec<(f64, f64)> {
            (0..n)
                .map(|i| (i as f64 * 1.5, ((i * 7 + seed * 13) % 11) as f64 - 4.0))
                .collect()
        };
        let tls = vec![
            Trendline::from_pairs("a", &walk(1, 17)),
            Trendline::from_pairs("one", &[(3.0, 1.0)]), // rejected by GROUP
            Trendline::from_pairs("b", &walk(2, 9)),
            Trendline::from_pairs("flat", &[(0.0, 2.0), (1.0, 2.0), (2.0, 2.0)]),
            Trendline::from_pairs(
                "nan",
                &[(0.0, 1.0), (1.0, f64::NAN), (2.0, 0.0), (3.0, 5.0)],
            ),
        ];
        let engine = crate::ShapeEngine::from_trendlines(tls.clone());
        for bin in [1usize, 3, 1000] {
            let front = group_collection(&tls, bin);
            let columns = engine.grouped(bin);
            assert_eq!(front.len(), columns.len());
            assert!(front[1].is_none() && columns[1].is_none());
            for (f, c) in front.iter().zip(columns.iter()) {
                let (Some(f), Some(c)) = (f, c) else {
                    assert!(
                        f.is_none() && c.is_none(),
                        "bin={bin}: accept/reject differs"
                    );
                    continue;
                };
                assert_eq!((f.source, f.slot()), (c.source, c.slot()));
                let slopes = |v: &VizData| (v.slope_min, v.slope_max);
                for (f, c) in [
                    (f.raw_x, c.raw_x),
                    (f.raw_y, c.raw_y),
                    (slopes(f), slopes(c)),
                ] {
                    assert_eq!(
                        (f.0.to_bits(), f.1.to_bits()),
                        (c.0.to_bits(), c.1.to_bits())
                    );
                }
            }
            let Some(f) = front.iter().flatten().next() else {
                assert!(columns.iter().all(Option::is_none), "bin={bin}");
                continue;
            };
            let c = columns.iter().flatten().next().unwrap();
            let (f, c) = (f.arena(), c.arena());
            assert_eq!(f.byte_size(), c.byte_size(), "bin={bin}");
            assert_eq!(f.viz_count(), c.viz_count(), "bin={bin}");
            // Every column, read back a viz at a time: the prefix sums as
            // the statistics of each prefix window.
            for slot in 0..f.viz_count() {
                let prefix = |a: &ColumnarArena| -> Vec<f64> {
                    (0..a.n(slot))
                        .flat_map(|j| {
                            let s = a.range_stats(slot, 0, j);
                            [s.sx, s.sy, s.sxy, s.sxx]
                        })
                        .collect()
                };
                for (f, c) in [
                    (f.xs(slot).to_vec(), c.xs(slot).to_vec()),
                    (f.ys(slot).to_vec(), c.ys(slot).to_vec()),
                    (prefix(f), prefix(c)),
                    (f.node_angles(slot).to_vec(), c.node_angles(slot).to_vec()),
                ] {
                    assert_eq!(bits(&f), bits(&c), "bin={bin} slot {slot}");
                }
            }
        }
    }
}
