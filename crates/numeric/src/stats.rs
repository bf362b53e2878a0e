//! Sample statistics for simulation output analysis.
//!
//! The discrete-event simulator produces speedup and utilization estimates
//! whose sampling error must be quantified before they can referee the MVA
//! model ("within 3%" claims need error bars). This module provides:
//!
//! * [`RunningStats`] — Welford's streaming mean/variance,
//! * [`confidence_interval`] — Student-t confidence half-widths.

use crate::NumericError;

/// Streaming mean and variance via Welford's algorithm.
///
/// # Example
///
/// ```
/// use snoop_numeric::stats::RunningStats;
///
/// let mut s = RunningStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; 0 for an empty accumulator.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (`n - 1` denominator); 0 with fewer than two
    /// observations.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population variance (`n` denominator); 0 when empty.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample standard deviation.
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest observation; `+inf` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; `-inf` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let combined_mean = self.mean + delta * other.count as f64 / total as f64;
        self.m2 += other.m2
            + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean = combined_mean;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Extend<f64> for RunningStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = RunningStats::new();
        s.extend(iter);
        s
    }
}

/// Two-sided Student-t critical value `t_{df, 1 - alpha/2}`.
///
/// Exact table values for small degrees of freedom at the usual confidence
/// levels, with a Cornish-Fisher-style normal correction beyond the table.
/// Supported `alpha` values are 0.10, 0.05 and 0.01; other values fall back
/// to the normal quantile (adequate for df ≳ 30).
pub fn t_critical(df: u64, alpha: f64) -> f64 {
    const TABLE_95: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179,
        2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
        2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
    ];
    const TABLE_90: [f64; 30] = [
        6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812, 1.796, 1.782,
        1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725, 1.721, 1.717, 1.714, 1.711,
        1.708, 1.706, 1.703, 1.701, 1.699, 1.697,
    ];
    const TABLE_99: [f64; 30] = [
        63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169, 3.106, 3.055,
        3.012, 2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845, 2.831, 2.819, 2.807, 2.797,
        2.787, 2.779, 2.771, 2.763, 2.756, 2.750,
    ];

    if df == 0 {
        return f64::INFINITY;
    }
    let (table, z): (&[f64; 30], f64) = if (alpha - 0.05).abs() < 1e-9 {
        (&TABLE_95, 1.959_964)
    } else if (alpha - 0.10).abs() < 1e-9 {
        (&TABLE_90, 1.644_854)
    } else if (alpha - 0.01).abs() < 1e-9 {
        (&TABLE_99, 2.575_829)
    } else {
        // Normal approximation for unsupported levels.
        return normal_quantile(1.0 - alpha / 2.0);
    };
    if df <= 30 {
        table[(df - 1) as usize]
    } else {
        // Asymptotic expansion t ≈ z + (z + z^3)/(4 df).
        z + (z + z.powi(3)) / (4.0 * df as f64)
    }
}

/// Standard normal quantile via the Acklam rational approximation
/// (|relative error| < 1.15e-9 over (0, 1)).
///
/// # Panics
///
/// Panics if `p` is outside `(0, 1)`.
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "normal quantile needs p in (0, 1), got {p}");

    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -normal_quantile(1.0 - p)
    }
}

/// A symmetric confidence interval `mean ± half_width`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate.
    pub mean: f64,
    /// Half-width of the interval.
    pub half_width: f64,
    /// Confidence level, e.g. 0.95.
    pub level: f64,
}

impl ConfidenceInterval {
    /// Lower endpoint.
    pub fn low(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper endpoint.
    pub fn high(&self) -> f64 {
        self.mean + self.half_width
    }

    /// Whether the interval contains `x`.
    pub fn contains(&self, x: f64) -> bool {
        x >= self.low() && x <= self.high()
    }

    /// Half-width as a fraction of the mean (relative precision); infinite
    /// for a zero mean.
    pub fn relative_half_width(&self) -> f64 {
        if self.mean == 0.0 {
            f64::INFINITY
        } else {
            self.half_width / self.mean.abs()
        }
    }
}

/// Student-t confidence interval for the mean of the accumulated sample.
///
/// # Errors
///
/// Returns [`NumericError::InsufficientSamples`] with fewer than two
/// observations (the sample variance is vacuously zero there, so a
/// zero-width interval would masquerade as perfect precision), and
/// [`NumericError::InvalidArgument`] for a confidence level outside
/// `(0, 1)`.
pub fn confidence_interval(
    stats: &RunningStats,
    level: f64,
) -> Result<ConfidenceInterval, NumericError> {
    if stats.count() < 2 {
        return Err(NumericError::InsufficientSamples {
            required: 2,
            actual: stats.count() as usize,
        });
    }
    if !(level > 0.0 && level < 1.0) {
        return Err(NumericError::InvalidArgument(format!(
            "confidence level must lie in (0, 1), got {level}"
        )));
    }
    let df = stats.count() - 1;
    let t = t_critical(df, 1.0 - level);
    let half_width = t * stats.sample_std_dev() / (stats.count() as f64).sqrt();
    Ok(ConfidenceInterval { mean: stats.mean(), half_width, level })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_mean_and_variance() {
        let s: RunningStats = [1.0, 2.0, 3.0, 4.0, 5.0].into_iter().collect();
        assert_eq!(s.mean(), 3.0);
        assert!((s.sample_variance() - 2.5).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn merge_matches_sequential() {
        let mut a: RunningStats = [1.0, 2.0, 3.0].into_iter().collect();
        let b: RunningStats = [10.0, 20.0].into_iter().collect();
        a.merge(&b);
        let all: RunningStats = [1.0, 2.0, 3.0, 10.0, 20.0].into_iter().collect();
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.sample_variance() - all.sample_variance()).abs() < 1e-10);
        assert_eq!(a.count(), 5);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: RunningStats = [1.0, 2.0].into_iter().collect();
        let before = a;
        a.merge(&RunningStats::new());
        assert_eq!(a, before);
    }

    #[test]
    fn t_table_values() {
        assert!((t_critical(1, 0.05) - 12.706).abs() < 1e-9);
        assert!((t_critical(10, 0.05) - 2.228).abs() < 1e-9);
        assert!((t_critical(30, 0.01) - 2.750).abs() < 1e-9);
        // Large df approaches the normal quantile.
        assert!((t_critical(10_000, 0.05) - 1.96).abs() < 1e-3);
    }

    #[test]
    fn normal_quantile_known_values() {
        assert!((normal_quantile(0.975) - 1.959_964).abs() < 1e-5);
        assert!((normal_quantile(0.5)).abs() < 1e-9);
        assert!((normal_quantile(0.025) + 1.959_964).abs() < 1e-5);
        // Tail region exercises the rational tail branch.
        assert!((normal_quantile(0.001) + 3.090_232).abs() < 1e-4);
    }

    #[test]
    fn confidence_interval_basic() {
        let s: RunningStats = [10.0, 12.0, 9.0, 11.0, 13.0, 10.0, 11.0, 12.0].into_iter().collect();
        let ci = confidence_interval(&s, 0.95).unwrap();
        assert!(ci.contains(s.mean()));
        assert!(ci.half_width > 0.0);
        assert!(ci.low() < ci.high());
    }

    #[test]
    fn confidence_interval_needs_two() {
        let s: RunningStats = [1.0].into_iter().collect();
        // A single replication must yield a typed error, not the
        // zero-width "perfectly precise" interval it used to produce.
        assert_eq!(
            confidence_interval(&s, 0.95),
            Err(NumericError::InsufficientSamples { required: 2, actual: 1 })
        );
    }

    #[test]
    fn confidence_interval_rejects_bad_level() {
        let s: RunningStats = [1.0, 2.0].into_iter().collect();
        assert!(confidence_interval(&s, 1.5).is_err());
    }

    #[test]
    fn relative_half_width() {
        let ci = ConfidenceInterval { mean: 10.0, half_width: 0.5, level: 0.95 };
        assert!((ci.relative_half_width() - 0.05).abs() < 1e-12);
        let zero = ConfidenceInterval { mean: 0.0, half_width: 0.5, level: 0.95 };
        assert!(zero.relative_half_width().is_infinite());
    }
}
