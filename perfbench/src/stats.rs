//! Order statistics over host-time samples.

/// The `p`-th percentile (`0..=100`) of `values`, interpolating linearly
/// between the two closest ranks (rank `p / 100 * (n - 1)` of the sorted
/// samples). Returns 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p.clamp(0.0, 100.0) / 100.0 * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Geometric mean of positive values (0 for an empty slice).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `num / den`, or 0 when the denominator is 0.
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

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        // Rank 0.9 * 3 = 2.7 lies 70% of the way from 3 to 4.
        assert!((percentile(&v, 90.0) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn odd_sample_counts_take_the_middle_sample() {
        assert_eq!(median(&[5.0, 1.0, 9.0]), 5.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p99_of_a_thousand_samples_sits_near_the_top() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert!((percentile(&v, 99.0) - 990.01).abs() < 1e-9);
        assert!((percentile(&v, 50.0) - 500.5).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_percentiles_clamp() {
        assert_eq!(percentile(&[1.0, 2.0], -5.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0], 150.0), 2.0);
    }

    #[test]
    fn means_and_ratios() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
