//! Normalization utilities.

/// Z-score normalizes a series: subtract the mean, divide by the population
/// standard deviation. A constant (zero-variance) series maps to all zeros.
pub fn znormalize(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    znormalize_in_place(&mut out);
    out
}

/// In-place variant of [`znormalize`].
pub fn znormalize_in_place(values: &mut [f64]) {
    let n = values.len();
    if n == 0 {
        return;
    }
    let mean = values.iter().sum::<f64>() / n as f64;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
    let sd = var.sqrt();
    if sd == 0.0 || !sd.is_finite() {
        values.iter_mut().for_each(|v| *v = 0.0);
    } else {
        values.iter_mut().for_each(|v| *v = (*v - mean) / sd);
    }
}

/// Converts a non-negative distance into a similarity score in [−1, 1]:
/// distance 0 → 1, distance `scale` → 0, distance → ∞ → −1.
///
/// The mapping is `1 − 2·d/(d + scale)`, a smooth monotone transform that
/// preserves ranking order (the only property the top-k machinery needs).
/// `scale` defaults to the series length when callers pass the natural
/// per-point distance budget. A NaN distance (a series holding a NaN)
/// maps to NaN, as it does in a release build.
pub fn normalized_similarity(distance: f64, scale: f64) -> f64 {
    debug_assert!(
        distance >= 0.0 || distance.is_nan(),
        "distance must be non-negative"
    );
    let scale = if scale > 0.0 { scale } else { 1.0 };
    1.0 - 2.0 * distance / (distance + scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn znormalize_zero_mean_unit_sd() {
        let z = znormalize(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let mean: f64 = z.iter().sum::<f64>() / z.len() as f64;
        let var: f64 = z.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / z.len() as f64;
        assert!(mean.abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-12);
    }

    #[test]
    fn znormalize_constant_series() {
        assert_eq!(znormalize(&[7.0, 7.0, 7.0]), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn znormalize_empty_is_noop() {
        assert!(znormalize(&[]).is_empty());
    }

    #[test]
    fn znormalize_scale_invariance() {
        let a = znormalize(&[1.0, 3.0, 2.0]);
        let b = znormalize(&[10.0, 30.0, 20.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn similarity_endpoints() {
        assert_eq!(normalized_similarity(0.0, 10.0), 1.0);
        assert!((normalized_similarity(10.0, 10.0)).abs() < 1e-12);
        assert!(normalized_similarity(1e12, 10.0) > -1.0);
        assert!(normalized_similarity(1e12, 10.0) < -0.99);
    }

    #[test]
    fn similarity_is_monotone_decreasing() {
        let s1 = normalized_similarity(1.0, 5.0);
        let s2 = normalized_similarity(2.0, 5.0);
        let s3 = normalized_similarity(4.0, 5.0);
        assert!(s1 > s2 && s2 > s3);
    }

    #[test]
    fn similarity_guards_bad_scale() {
        // Non-positive scales fall back to 1.0 rather than dividing by zero.
        let s = normalized_similarity(1.0, 0.0);
        assert!(s.is_finite());
    }
}
