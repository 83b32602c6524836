//! One-shot descriptive statistics.

/// Descriptive statistics of a value set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Median (linear interpolation).
    pub p50: f64,
    /// 99th percentile (linear interpolation).
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarises `values` (empty input gives all-zero stats).
    pub fn of(values: &[f64]) -> Summary {
        if values.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                min: 0.0,
                p50: 0.0,
                p99: 0.0,
                max: 0.0,
            };
        }
        let mut sorted: Vec<f64> = values.to_vec();
        // A total order: a NaN sorts to an end (and shows in the mean)
        // instead of panicking mid-sort.
        sorted.sort_by(f64::total_cmp);
        let pct = |q: f64| -> f64 {
            let idx = q * (sorted.len() - 1) as f64;
            let lo = idx.floor() as usize;
            let hi = idx.ceil() as usize;
            let frac = idx - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        };
        Summary {
            count: sorted.len(),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            min: sorted[0],
            p50: pct(0.50),
            p99: pct(0.99),
            max: sorted[sorted.len() - 1],
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.2} min={:.2} p50={:.2} p99={:.2} max={:.2}",
            self.count, self.mean, self.min, self.p50, self.p99, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_statistics() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(s.count, 5);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.max, 5.0);
    }

    #[test]
    fn percentile_interpolates() {
        let s = Summary::of(&[0.0, 10.0]);
        assert_eq!(s.p50, 5.0);
        assert!((s.p99 - 9.9).abs() < 1e-9);
    }

    #[test]
    fn empty_input() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn nan_input_does_not_panic() {
        let s = Summary::of(&[2.0, f64::NAN, 1.0]);
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 1.0);
        assert!(s.max.is_nan() && s.mean.is_nan());
    }

    #[test]
    fn single_value() {
        let s = Summary::of(&[7.0]);
        assert_eq!(s.p50, 7.0);
        assert_eq!(s.p99, 7.0);
        assert_eq!(s.min, 7.0);
        assert_eq!(s.max, 7.0);
    }

    #[test]
    fn display_is_compact() {
        let s = Summary::of(&[1.0, 2.0]);
        let txt = s.to_string();
        assert!(txt.contains("n=2"));
        assert!(txt.contains("mean=1.50"));
    }
}
