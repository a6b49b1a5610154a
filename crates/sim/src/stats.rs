//! Statistics helpers for fault-injection campaigns.
//!
//! The paper reports recovery rates with 95% confidence intervals (e.g.
//! "95.0% ± 1.4%"); [`Proportion`] reproduces that presentation using the
//! normal approximation, with a Wilson interval available for small samples.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A binomial proportion (successes out of trials) with confidence-interval
/// accessors.
///
/// # Example
///
/// ```
/// use nlh_sim::stats::Proportion;
/// let p = Proportion::new(950, 1000);
/// assert!((p.value() - 0.95).abs() < 1e-9);
/// let half = p.wald_halfwidth_95();
/// assert!(half > 0.0 && half < 0.02);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Proportion {
    successes: u64,
    trials: u64,
}

/// z-score for a two-sided 95% interval.
const Z95: f64 = 1.959964;

impl Proportion {
    /// Creates a proportion from counts.
    ///
    /// # Panics
    ///
    /// Panics if `successes > trials`.
    pub fn new(successes: u64, trials: u64) -> Self {
        assert!(
            successes <= trials,
            "successes ({successes}) exceed trials ({trials})"
        );
        Proportion { successes, trials }
    }

    /// The number of successes.
    pub fn successes(&self) -> u64 {
        self.successes
    }

    /// The number of trials.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// The point estimate in `[0, 1]`; zero when there are no trials.
    pub fn value(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.successes as f64 / self.trials as f64
        }
    }

    /// The point estimate as a percentage.
    pub fn percent(&self) -> f64 {
        self.value() * 100.0
    }

    /// Half-width of the 95% Wald (normal-approximation) interval, as used in
    /// the paper's "± x%" notation. Returned in proportion units.
    pub fn wald_halfwidth_95(&self) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        let p = self.value();
        let n = self.trials as f64;
        Z95 * (p * (1.0 - p) / n).sqrt()
    }

    /// The 95% Wilson score interval `(lo, hi)`, better behaved near 0 and 1.
    pub fn wilson_95(&self) -> (f64, f64) {
        if self.trials == 0 {
            return (0.0, 1.0);
        }
        let n = self.trials as f64;
        let p = self.value();
        let z2 = Z95 * Z95;
        let denom = 1.0 + z2 / n;
        let center = (p + z2 / (2.0 * n)) / denom;
        let half = (Z95 / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
        ((center - half).max(0.0), (center + half).min(1.0))
    }
}

impl fmt::Display for Proportion {
    /// Formats as the paper does: `95.0% ± 1.4%`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1}% ± {:.1}%",
            self.percent(),
            self.wald_halfwidth_95() * 100.0
        )
    }
}

/// Running summary statistics (count / mean / min / max / stddev).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds an observation (Welford's online algorithm).
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// The number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The sample mean, or zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// The smallest observation, or zero when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// The largest observation, or zero when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The sample standard deviation (n-1 denominator), or zero for fewer
    /// than two observations.
    pub fn stddev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).sqrt()
        }
    }
}

/// A fixed-bucket logarithmic latency histogram.
///
/// Buckets are powers of two of the base resolution, so the histogram
/// covers several orders of magnitude with a handful of counters and
/// merges exactly across campaign worker shards. Values are unitless;
/// campaigns feed microseconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// `buckets[i]` counts observations in `[2^i, 2^(i+1))` base units,
    /// with `buckets[0]` also absorbing everything below the base.
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
}

/// Number of power-of-two buckets: covers `[1, 2^40)` base units.
const HIST_BUCKETS: usize = 40;

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; HIST_BUCKETS],
            count: 0,
            sum: 0.0,
        }
    }

    /// Adds one observation. Non-positive values land in the first bucket.
    pub fn add(&mut self, x: f64) {
        let idx = if x < 2.0 {
            0
        } else {
            (x.log2() as usize).min(HIST_BUCKETS - 1)
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += x.max(0.0);
    }

    /// Merges another histogram into this one (used to combine per-worker
    /// shards).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// The number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The arithmetic mean, or zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The upper edge of the bucket containing the q-quantile (`q` in
    /// `[0, 1]`), or zero when empty. Accurate to within a factor of two,
    /// which is all a log-bucketed histogram can promise.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return (1u64 << (i + 1)) as f64;
            }
        }
        (1u64 << HIST_BUCKETS) as f64
    }

    /// Non-empty buckets as `(lower_edge, upper_edge, count)` triples.
    pub fn nonzero_buckets(&self) -> Vec<(f64, f64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
                (lo, (1u64 << (i + 1)) as f64, c)
            })
            .collect()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Extend<f64> for Summary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.add(x);
        }
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Summary::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportion_point_estimate() {
        let p = Proportion::new(1, 4);
        assert!((p.value() - 0.25).abs() < 1e-12);
        assert!((p.percent() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn proportion_zero_trials() {
        let p = Proportion::new(0, 0);
        assert_eq!(p.value(), 0.0);
        assert_eq!(p.wald_halfwidth_95(), 0.0);
        assert_eq!(p.wilson_95(), (0.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn proportion_invalid_counts_panic() {
        Proportion::new(5, 4);
    }

    #[test]
    fn paper_style_interval() {
        // 95% rate over 1000 trials: halfwidth ~= 1.35%.
        let p = Proportion::new(950, 1000);
        let hw = p.wald_halfwidth_95() * 100.0;
        assert!((hw - 1.35).abs() < 0.05, "got {hw}");
        assert_eq!(p.to_string(), "95.0% ± 1.4%");
    }

    #[test]
    fn wilson_brackets_point_estimate() {
        let p = Proportion::new(880, 1000);
        let (lo, hi) = p.wilson_95();
        assert!(lo < p.value() && p.value() < hi);
        assert!(lo > 0.85 && hi < 0.91);
    }

    #[test]
    fn wilson_sane_at_extremes() {
        let (lo, hi) = Proportion::new(0, 50).wilson_95();
        assert!(lo < 1e-4);
        assert!(hi > 0.0 && hi < 0.15);
        let (lo, hi) = Proportion::new(50, 50).wilson_95();
        assert!(lo > 0.85);
        assert!(hi > 0.9999);
    }

    #[test]
    fn summary_moments() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.138089935).abs() < 1e-6);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new();
        for x in [1.0, 3.0, 3.5, 100.0] {
            h.add(x);
        }
        assert_eq!(h.count(), 4);
        assert!((h.mean() - 26.875).abs() < 1e-9);
        // 1.0 -> [0,2), 3.0/3.5 -> [2,4), 100.0 -> [64,128).
        assert_eq!(
            h.nonzero_buckets(),
            vec![(0.0, 2.0, 1), (2.0, 4.0, 2), (64.0, 128.0, 1)]
        );
        // Median falls in the [2,4) bucket; the p99 in [64,128).
        assert_eq!(h.quantile(0.5), 4.0);
        assert_eq!(h.quantile(0.99), 128.0);
    }

    #[test]
    fn histogram_merge_matches_combined_feed() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for x in [5.0, 9.0, 1000.0] {
            a.add(x);
            all.add(x);
        }
        for x in [2.0, 700.0] {
            b.add(x);
            all.add(x);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn histogram_empty_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn summary_empty_and_single() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        let mut s = Summary::new();
        s.add(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.min(), 3.5);
        assert_eq!(s.max(), 3.5);
    }
}
