//! The arithmetic every reported number goes through.

/// The `p`-th percentile (0–100) by the nearest-rank rule: the smallest
/// sample with at least `p` % of the samples at or below it. Sorts
/// `samples`. Zero for an empty set.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (p / 100.0 * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The median, averaging the two middle values of an even count (what
/// `statistics.median` does). Zero for an empty set.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `(max − min) / median`: how far the rounds of one run disagree.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.is_empty() || m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut s: Vec<u64> = (1..=10).rev().collect();
        assert_eq!(percentile(&mut s, 50.0), 5);
        assert_eq!(percentile(&mut s, 90.0), 9);
        assert_eq!(percentile(&mut s, 99.0), 10);
        assert_eq!(percentile(&mut s, 0.0), 1);
        assert_eq!(percentile(&mut [], 50.0), 0);
        assert_eq!(percentile(&mut [7], 90.0), 7);
    }

    #[test]
    fn median_of_rounds() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread(&[90.0, 100.0, 120.0]), 0.3);
        assert_eq!(spread(&[5.0]), 0.0);
    }
}
