//! Percentile and ratio maths shared by every metric the benchmark prints.

/// The `q`-quantile (`0.0..=1.0`) of `values` by the nearest-rank rule:
/// the smallest sample with at least `q · n` samples at or below it.
/// Returns `None` for an empty slice. `values` need not be sorted.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(percentile_sorted(&sorted, q))
}

/// [`percentile`] over an already ascending, non-empty slice.
fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// The median by the nearest-rank rule (the lower middle for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// The mean, or `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// `num / den`, or `None` when the base is zero: a ratio without a base
/// is not a measurement.
pub fn ratio(num: f64, den: f64) -> Option<f64> {
    (den != 0.0).then(|| num / den)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.5), Some(3.0));
        assert_eq!(median(&v), Some(3.0));
        assert_eq!(percentile(&v, 0.8), Some(4.0));
        assert_eq!(percentile(&v, 0.81), Some(5.0));
    }

    #[test]
    fn even_count_median_is_lower_middle() {
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.0));
        assert_eq!(median(&[7.0]), Some(7.0));
    }

    #[test]
    fn ratio_needs_a_base() {
        assert_eq!(ratio(3.0, 4.0), Some(0.75));
        assert_eq!(ratio(0.0, 4.0), Some(0.0));
        assert_eq!(ratio(3.0, 0.0), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }
}
