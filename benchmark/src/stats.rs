//! Order statistics over timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is the estimator the
//! acceptance pipeline applies to this benchmark's outputs: a spread
//! printed here is the spread it will compute.

/// Sorted copy of `values` (total order; NaN sorts last and never
/// occurs in practice — every sample is a finite duration or count).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median: the middle value, or the mean of the two middle values.
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method. Fewer than two
/// values have no spread: both quartiles are the median.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        let x = median(values);
        return (x, x);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile range as a share of the median (0 when the median
/// is 0).
pub fn iqr_frac(values: &[f64]) -> f64 {
    let med = median(values);
    if med == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / med
}

/// 99th percentile by nearest rank (the smallest sample with at least
/// 99 % of the samples at or below it). `0.0` for an empty slice.
pub fn p99(values: &[f64]) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (v.len() * 99).div_ceil(100).max(1);
    v[rank - 1]
}

/// Smallest sample (`0.0` for an empty slice). The estimator for a
/// deterministic computation on a shared machine: interference only
/// ever adds time, so the fastest repeat is the closest to the
/// program's own cost (README.md, "Why the fastest repeat").
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Largest sample (`0.0` for an empty slice).
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_tied_and_empty_inputs() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[5.0, 5.0, 5.0, 5.0]), 5.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1..9], n=4) == [2.5, 5.0, 7.5]
        let nine: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(quartiles(&nine), (2.5, 7.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // Ties collapse the spread.
        assert_eq!(quartiles(&[4.0; 6]), (4.0, 4.0));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn iqr_frac_is_relative_to_the_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_frac(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_frac(&[4.0; 6]), 0.0);
        assert_eq!(iqr_frac(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn p99_is_nearest_rank() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p99(&hundred), 99.0);
        let two_hundred: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(p99(&two_hundred), 198.0);
        assert_eq!(p99(&[3.0, 1.0, 2.0]), 3.0);
        assert_eq!(p99(&[2.0, 2.0]), 2.0);
        assert_eq!(p99(&[]), 0.0);
        assert_eq!(max(&[1.0, 9.0, 3.0]), 9.0);
        assert_eq!(min(&[4.0, 1.5, 3.0]), 1.5);
        assert_eq!(min(&[2.0, 2.0]), 2.0);
        assert_eq!(min(&[]), 0.0);
    }
}
