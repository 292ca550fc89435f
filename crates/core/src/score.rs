//! Pattern and operator scoring functions (paper §5.2, Tables 5 and 6).
//!
//! All scores live in `[−1, 1]` (1 = best match, −1 = worst). The pattern
//! scorers follow the paper's perceptual design: "a change in slope from 10°
//! to 30° is perceptually more noticeable than from 60° to 80° ... modeled
//! using the tan⁻¹ function" (the law of diminishing returns).
//!
//! | Pattern  | Score |
//! |----------|-------|
//! | up       | 2·tan⁻¹(slope)/π |
//! | down     | −2·tan⁻¹(slope)/π |
//! | flat     | 1 − \|4·tan⁻¹(slope)/π\| |
//! | θ = x    | 1 − 2·\|tan⁻¹(slope) − tan⁻¹(x)\| / (π/2 + \|tan⁻¹(x)\|) |
//! | *        | 1 |
//! | empty    | −1 |
//! | v        | normalized L2 (see `shapesearch-similarity`) |
//!
//! | Operator | Score |
//! |----------|-------|
//! | CONCAT   | mean of child scores |
//! | AND      | min of child scores |
//! | OR       | max of child scores |
//! | NOT      | −score |

use std::f64::consts::{FRAC_PI_2, PI};

/// Tunable scoring parameters. Defaults reproduce the paper's behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreParams {
    /// Angle (degrees) at which a "sharp" rise/fall (`m=>>`) peaks.
    pub sharp_angle_deg: f64,
    /// Angle (degrees) at which a "gradual" rise/fall (`m=>`) peaks.
    pub gradual_angle_deg: f64,
    /// Threshold above which a sub-segment counts as a quantifier occurrence
    /// ("using zero as a threshold, which can be overridden by users").
    pub quantifier_threshold: f64,
    /// Scale for mapping sketch L2 distances into [−1, 1].
    pub sketch_distance_scale: f64,
    /// Relative tolerance (fraction of the y range) for y-location checks.
    pub y_tolerance: f64,
    /// Minimum canvas-x fraction a scored segment must span before its
    /// score counts at full strength; narrower segments have their score
    /// blended linearly toward −1 (see [`width_penalty`]). `0.0` (the
    /// default) disables the term.
    ///
    /// This counters the *flat-pattern degeneracy* of CONCAT-mean
    /// scoring: with fuzzy segmentation the optimal DP can fit almost any
    /// trendline with a near-degenerate split — a steep two-point rise, a
    /// long "flat" middle, a steep two-point fall — whose per-segment
    /// scores are all near 1, compressing the gap between genuine
    /// matches and arbitrary random walks. Penalizing segments too
    /// narrow to constitute perceptual evidence restores the gap.
    pub min_width_frac: f64,
}

impl Default for ScoreParams {
    fn default() -> Self {
        Self {
            sharp_angle_deg: 75.0,
            gradual_angle_deg: 30.0,
            quantifier_threshold: 0.0,
            sketch_distance_scale: 0.25,
            y_tolerance: 0.15,
            min_width_frac: 0.0,
        }
    }
}

/// Applies the minimum-segment-width fit term: a segment spanning canvas
/// width `width < min_width_frac` has its score blended linearly toward
/// −1 (`t·score − (1 − t)` with `t = width / min_width_frac`), so a
/// zero-width segment can never contribute positive evidence while a
/// segment at or above the minimum width is untouched. The blend is
/// monotone in both `score` and `width`, which keeps the segmentation
/// DP's optimal-substructure argument intact. No-op when
/// `min_width_frac` is 0.
pub fn width_penalty(score: f64, width: f64, min_width_frac: f64) -> f64 {
    if min_width_frac <= 0.0 || width >= min_width_frac {
        return score;
    }
    let t = (width / min_width_frac).clamp(0.0, 1.0);
    score * t - (1.0 - t)
}

/// `up` at a fitted angle `theta = tan⁻¹(slope)`: 2·θ/π. Table 5 lives in
/// these four `*_at` maps; the slope-taking scorers below only take the
/// `atan` first, so a caller that already holds the angle of a window
/// (the SegmentTree scores every unit of a node over one fitted line)
/// gets the same bits without taking it again.
#[inline]
pub(crate) fn up_at(theta: f64) -> f64 {
    2.0 * theta / PI
}

/// `down` at a fitted angle: the negation of [`up_at`].
#[inline]
pub(crate) fn down_at(theta: f64) -> f64 {
    -up_at(theta)
}

/// `flat` at a fitted angle: 1 − |4·θ/π|.
#[inline]
pub(crate) fn flat_at(theta: f64) -> f64 {
    1.0 - (4.0 * theta / PI).abs()
}

/// The `θ = x` pattern's constants for a target angle in **degrees**:
/// the target in radians, clamped to ±π/2, and the largest possible
/// |θ − target| given θ ∈ (−π/2, π/2). Fixed per query unit, so callers
/// scoring many windows derive them once.
#[inline]
pub(crate) fn theta_target(target_deg: f64) -> (f64, f64) {
    let target = target_deg.to_radians().clamp(-FRAC_PI_2, FRAC_PI_2);
    (target, FRAC_PI_2 + target.abs())
}

/// `θ = x` at a fitted angle, against [`theta_target`]'s constants.
#[inline]
pub(crate) fn theta_at(theta: f64, target: f64, worst: f64) -> f64 {
    1.0 - 2.0 * (theta - target).abs() / worst
}

/// Score of the `up` pattern for a fitted slope: 2·tan⁻¹(slope)/π.
/// Rises from −1 (steep fall) through 0 (flat) to +1 (steep rise).
pub fn score_up(slope: f64) -> f64 {
    up_at(slope.atan())
}

/// Score of the `down` pattern: the negation of [`score_up`].
pub fn score_down(slope: f64) -> f64 {
    down_at(slope.atan())
}

/// Score of the `flat` pattern: 1 − |4·tan⁻¹(slope)/π|. Equals 1 at slope 0,
/// 0 at ±45°, −1 at ±90°.
pub fn score_flat(slope: f64) -> f64 {
    flat_at(slope.atan())
}

/// Score of the `θ = x` pattern (target angle in **degrees**): maximal when
/// the fitted angle equals the target, decaying to −1 at the farthest
/// possible angle.
pub fn score_theta(slope: f64, target_deg: f64) -> f64 {
    let (target, worst) = theta_target(target_deg);
    theta_at(slope.atan(), target, worst)
}

/// Score of a *sharp* rise (`m = >>` with `up`): the [`score_up`] curve
/// rescaled so the score reaches 0.5 only at `sharp_angle_deg` — monotone in
/// steepness (a steeper rise is always sharper), unlike the peaked θ scorer.
pub fn score_sharp_up(slope: f64, sharp_angle_deg: f64) -> f64 {
    let pivot = sharp_angle_deg.to_radians().tan().max(1e-9);
    score_up(slope / pivot)
}

/// Sharp fall: mirror of [`score_sharp_up`].
pub fn score_sharp_down(slope: f64, sharp_angle_deg: f64) -> f64 {
    -score_sharp_up(slope, sharp_angle_deg)
}

/// CONCAT (⊗): the mean of child scores.
pub fn combine_concat(scores: &[f64]) -> f64 {
    if scores.is_empty() {
        return -1.0;
    }
    scores.iter().sum::<f64>() / scores.len() as f64
}

/// AND (⊙): the minimum, "to avoid any pattern not having a good match".
/// Takes the child scores as they are produced, so the evaluator folds
/// them per candidate window without buffering.
pub fn combine_and(scores: impl IntoIterator<Item = f64>) -> f64 {
    scores.into_iter().fold(f64::INFINITY, f64::min).min(1.0)
}

/// OR (⊕): the maximum — "picks the best matching pattern among many".
pub fn combine_or(scores: impl IntoIterator<Item = f64>) -> f64 {
    scores
        .into_iter()
        .fold(f64::NEG_INFINITY, f64::max)
        .max(-1.0)
}

/// NOT (!): negation.
pub fn combine_not(score: f64) -> f64 {
    -score
}

/// Clamps a value into the score range [−1, 1].
pub fn clamp_score(v: f64) -> f64 {
    v.clamp(-1.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn up_is_monotone_and_bounded() {
        let slopes = [-100.0, -2.0, -0.5, 0.0, 0.5, 2.0, 100.0];
        let mut prev = -1.0;
        for s in slopes {
            let v = score_up(s);
            assert!((-1.0..=1.0).contains(&v));
            assert!(v >= prev);
            prev = v;
        }
        assert_eq!(score_up(0.0), 0.0);
        assert!(score_up(1.0) - 0.5 < EPS); // 45° → 0.5
    }

    #[test]
    fn down_mirrors_up() {
        for s in [-3.0, -1.0, 0.0, 0.7, 10.0] {
            assert!((score_down(s) + score_up(s)).abs() < EPS);
        }
    }

    #[test]
    fn flat_peaks_at_zero_slope() {
        assert!((score_flat(0.0) - 1.0).abs() < EPS);
        assert!((score_flat(1.0)).abs() < EPS); // 45° → 0
        assert!(score_flat(1e9) < -0.99); // 90° → −1
        assert!((score_flat(2.0) - score_flat(-2.0)).abs() < EPS); // symmetric
    }

    #[test]
    fn theta_peaks_at_target() {
        let slope45 = 1.0;
        assert!((score_theta(slope45, 45.0) - 1.0).abs() < EPS);
        // Deviation reduces score, symmetric in angle space.
        assert!(score_theta(slope45, 45.0) > score_theta(0.5, 45.0));
        assert!(score_theta(0.0, 0.0) - 1.0 < EPS);
        // Opposite extreme approaches −1.
        assert!(score_theta(-1e9, 90.0) < -0.99);
    }

    #[test]
    fn theta_matches_up_semantics_at_extremes() {
        // A 45° target scored on a flat segment is midway.
        let v = score_theta(0.0, 45.0);
        assert!(v > 0.0 && v < 0.5);
    }

    #[test]
    fn sharp_is_monotone_and_pivots_at_angle() {
        let pivot = 75.0f64.to_radians().tan();
        assert!((score_sharp_up(pivot, 75.0) - 0.5).abs() < EPS);
        // Steeper is always sharper.
        let mut prev = -1.0;
        for s in [0.0, 1.0, pivot, 10.0, 100.0] {
            let v = score_sharp_up(s, 75.0);
            assert!(v >= prev);
            prev = v;
        }
        // Falling slopes score negative for sharp-up, positive for sharp-down.
        assert!(score_sharp_up(-5.0, 75.0) < 0.0);
        assert!(score_sharp_down(-5.0, 75.0) > 0.0);
    }

    #[test]
    fn concat_is_mean() {
        assert!((combine_concat(&[1.0, 0.0, -1.0])).abs() < EPS);
        assert_eq!(combine_concat(&[]), -1.0);
        assert_eq!(combine_concat(&[0.6]), 0.6);
    }

    #[test]
    fn and_is_min_or_is_max() {
        let s = [0.3, -0.2, 0.9];
        assert_eq!(combine_and(s), -0.2);
        assert_eq!(combine_or(s), 0.9);
        assert_eq!(combine_not(0.7), -0.7);
    }

    #[test]
    fn boundedness_property_5_1() {
        // The absolute value of an operator's score is bounded between the
        // min and max of its inputs.
        let inputs = [0.8, -0.3, 0.1];
        let lo = -0.3;
        let hi = 0.8;
        for combined in [
            combine_concat(&inputs),
            combine_and(inputs),
            combine_or(inputs),
        ] {
            assert!(combined >= lo - EPS && combined <= hi + EPS);
        }
    }

    #[test]
    fn clamp_score_limits() {
        assert_eq!(clamp_score(3.0), 1.0);
        assert_eq!(clamp_score(-2.0), -1.0);
        assert_eq!(clamp_score(0.5), 0.5);
    }

    #[test]
    fn default_params_sane() {
        let p = ScoreParams::default();
        assert!(p.sharp_angle_deg > p.gradual_angle_deg);
        assert_eq!(p.quantifier_threshold, 0.0);
        assert_eq!(p.min_width_frac, 0.0, "width term must default off");
    }

    #[test]
    fn width_penalty_blends_toward_minus_one() {
        // Off by default: untouched regardless of width.
        assert_eq!(width_penalty(0.9, 0.0, 0.0), 0.9);
        // Wide enough: untouched.
        assert_eq!(width_penalty(0.9, 0.3, 0.2), 0.9);
        assert_eq!(width_penalty(0.9, 0.2, 0.2), 0.9);
        // Zero width: fully −1, even for a perfect score.
        assert_eq!(width_penalty(1.0, 0.0, 0.2), -1.0);
        // Halfway: the midpoint of score and −1.
        assert!((width_penalty(1.0, 0.1, 0.2) - 0.0).abs() < EPS);
        // Monotone in width and in score.
        assert!(width_penalty(0.9, 0.05, 0.2) < width_penalty(0.9, 0.15, 0.2));
        assert!(width_penalty(0.2, 0.1, 0.2) < width_penalty(0.9, 0.1, 0.2));
        // A −1 score stays −1 (never *improved* by narrowness).
        assert_eq!(width_penalty(-1.0, 0.05, 0.2), -1.0);
    }
}
