//! Order statistics for host-time samples.

/// Fewest samples a reported percentile must have strictly beyond it.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile of `samples`.
///
/// # Errors
///
/// Refuses a percentile with fewer than [`MIN_BEYOND`] samples beyond
/// it: such a tail is one or two unlucky samples, not a distribution.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    if !(0.0..100.0).contains(&p) {
        return Err(format!("percentile {p} is outside [0, 100)"));
    }
    let n = samples.len();
    // Nearest rank: the smallest sample with at least p% of the samples
    // at or below it (1-based rank ceil(p/100 * n)).
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it; at least {MIN_BEYOND} are required"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The median of a handful of repeated measurements (a repeat count, not
/// a latency distribution, so no tail rule applies).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no measurements");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The arithmetic mean (0 for no values).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(100), 90.0), Ok(90.0));
        assert!(percentile(&ramp(99), 90.0).is_err());
        assert_eq!(percentile(&ramp(1000), 99.0), Ok(990.0));
        assert!(percentile(&ramp(999), 99.0).is_err());
        assert_eq!(percentile(&ramp(20), 50.0), Ok(10.0));
        assert!(percentile(&ramp(19), 50.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
        assert!(percentile(&ramp(500), 100.0).is_err());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut shuffled = ramp(200);
        shuffled.reverse();
        shuffled.swap(3, 150);
        assert_eq!(percentile(&shuffled, 50.0), Ok(100.0));
        assert_eq!(percentile(&shuffled, 90.0), Ok(180.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
