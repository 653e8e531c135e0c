//! Order statistics over timing samples.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (sorted.len() as f64 * p).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts samples ascending (timings are finite, so the order is total).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median of a sample set (the mean of the middle pair for even counts);
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples.to_vec());
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_of_a_thousand_samples_is_the_990th() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.99), Some(990.0));
        assert_eq!(percentile(&samples, 0.50), Some(500.0));
        assert_eq!(percentile(&samples, 1.0), Some(1000.0));
    }

    #[test]
    fn small_sets_clamp_to_their_extremes() {
        let samples = [3.0, 7.0];
        assert_eq!(percentile(&samples, 0.99), Some(7.0));
        assert_eq!(percentile(&samples, 0.0), Some(3.0));
        assert_eq!(percentile(&[4.5], 0.99), Some(4.5));
    }

    #[test]
    fn empty_input_has_no_percentile_or_median() {
        assert_eq!(percentile(&[], 0.99), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }
}
