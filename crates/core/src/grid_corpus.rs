//! The grid-variant corpus the grid suite (`engine::grid_tests`) and
//! the pinned-window column suite (`algo::pruning::column_tests`) draw
//! from: a few base grids of integer xs, and trendlines whose rows
//! derive from them — shared bitwise, or another raw x row in one of the
//! ways that GROUP, the grid ids and the pinned windows must tell apart.

use proptest::prelude::*;
use shapesearch_datastore::Trendline;

/// The raw x gap of a pinched row's two close points.
pub(crate) const PINCH: f64 = 1e-9;

/// How a trendline's row derives from its base grid.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Variant {
    /// The base row itself: shared bitwise.
    Shared,
    /// The base row plus 3: the same canvas, other raw x, so another
    /// grid and another x run.
    Shifted,
    /// One interior x moved a quarter step right.
    OneOff,
    /// One interior x repeated in place of the next.
    Duplicate,
    /// The base row with one y NaN.
    NanY,
    /// The x after the touched one moved to `PINCH` past it.
    Pinched,
    /// The first x `-0.0`: the base row's canvas, another raw row.
    SignedZero,
    /// One interior x one ulp up.
    Ulp,
    /// The base row less its last point.
    Prefix,
    /// One interior x NaN.
    NanX,
}

/// Every variant, in the order `build`'s indices name them.
const VARIANTS: [Variant; 10] = [
    Variant::Shared,
    Variant::Shifted,
    Variant::OneOff,
    Variant::Duplicate,
    Variant::NanY,
    Variant::Pinched,
    Variant::SignedZero,
    Variant::Ulp,
    Variant::Prefix,
    Variant::NanX,
];

/// A base grid: `n ≥ 4` integer xs from 0, and where a variant touches
/// it.
pub(crate) type Base = (usize, usize);

/// The point a variant touches: interior, with an interior point after.
pub(crate) fn touched(&(n, at): &Base) -> usize {
    1 + at % (n - 3)
}

/// A seeded walk (64-bit LCG steps in `[−1, 1)`) over `base`'s xs, as
/// `variant` alters it.
pub(crate) fn row(base: &Base, variant: Variant, seed: u64) -> Vec<(f64, f64)> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut y = 0.0;
    let mut points: Vec<(f64, f64)> = (0..base.0)
        .map(|t| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            y += ((state >> 33) as f64) / ((1u64 << 31) as f64) - 1.0;
            (t as f64, y)
        })
        .collect();
    let at = touched(base);
    match variant {
        Variant::Shared => {}
        Variant::Shifted => points.iter_mut().for_each(|p| p.0 += 3.0),
        Variant::OneOff => points[at].0 += 0.25,
        Variant::Duplicate => points[at].0 = points[at - 1].0,
        Variant::NanY => points[at].1 = f64::NAN,
        Variant::Pinched => points[at + 1].0 = points[at].0 + PINCH,
        Variant::SignedZero => points[0].0 = -0.0,
        Variant::Ulp => points[at].0 = f64::from_bits(points[at].0.to_bits() + 1),
        Variant::Prefix => {
            points.pop();
        }
        Variant::NanX => points[at].0 = f64::NAN,
    }
    points
}

/// One trendline a member `(base, variant, seed)`, the base and the
/// variant taken modulo their counts.
pub(crate) fn build(bases: &[Base], members: &[(usize, u8, u64)]) -> Vec<Trendline> {
    members
        .iter()
        .enumerate()
        .map(|(i, &(base, variant, seed))| {
            let base = &bases[base % bases.len()];
            let points = row(base, VARIANTS[variant as usize % VARIANTS.len()], seed);
            Trendline::from_pairs(format!("t{i}"), &points)
        })
        .collect()
}

/// One to three base grids of 6–40 points, and 4–24 trendlines on them;
/// half of the trendlines share their base row bitwise.
pub(crate) fn collection_strategy() -> impl Strategy<Value = (Vec<Base>, Vec<Trendline>)> {
    let variant = prop_oneof![Just(0u8), Just(0u8), Just(0u8), 1u8..VARIANTS.len() as u8];
    (
        proptest::collection::vec((6usize..40, 0usize..40), 1..4),
        proptest::collection::vec((0usize..3, variant, 0u64..1_000), 4..24),
    )
        .prop_map(|(bases, members)| {
            let tls = build(&bases, &members);
            (bases, tls)
        })
}
