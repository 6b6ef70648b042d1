//! Summary statistics and empirical distributions.
//!
//! The experiment harness reduces raw simulation output (per-subcarrier
//! EVMs, symbol-error maps, detection counters) to the quantities the paper
//! plots: means, error rates, percentiles and CDFs.

/// The arithmetic mean of a slice; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The population variance of a slice; `0.0` for fewer than two samples.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics.
///
/// # Panics
///
/// Panics if `xs` is empty or `q` is outside `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile level must be in [0, 1]");
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// An empirical cumulative distribution function over a fixed sample set.
///
/// # Examples
///
/// ```
/// use cos_dsp::stats::Ecdf;
///
/// let cdf = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(cdf.eval(2.5), 0.5);
/// assert_eq!(cdf.eval(10.0), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the ECDF from a sample set.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains NaN.
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "ECDF of an empty sample set");
        samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN in ECDF input"));
        Ecdf { sorted: samples }
    }

    /// The fraction of samples ≤ `x`.
    pub fn eval(&self, x: f64) -> f64 {
        let count = self.sorted.partition_point(|&s| s <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Number of underlying samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always `false`: construction rejects empty sample sets.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_of_known_set() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert_eq!(variance(&xs), 4.0);
    }

    #[test]
    fn empty_and_singleton_edge_cases() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[3.0]), 0.0);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&xs, 0.5), 2.5);
    }

    #[test]
    fn quantile_is_order_invariant() {
        let a = [5.0, 1.0, 3.0];
        let b = [1.0, 3.0, 5.0];
        assert_eq!(quantile(&a, 0.5), quantile(&b, 0.5));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_empty_panics() {
        quantile(&[], 0.5);
    }

    #[test]
    fn ecdf_step_behaviour() {
        let cdf = Ecdf::new(vec![1.0, 1.0, 2.0, 5.0]);
        assert_eq!(cdf.eval(0.5), 0.0);
        assert_eq!(cdf.eval(1.0), 0.5);
        assert_eq!(cdf.eval(4.9), 0.75);
        assert_eq!(cdf.eval(5.0), 1.0);
    }

    #[test]
    fn ecdf_degenerate_sample_set() {
        let cdf = Ecdf::new(vec![2.0, 2.0, 2.0]);
        assert_eq!(cdf.eval(1.9), 0.0);
        assert_eq!(cdf.eval(2.0), 1.0);
    }
}
