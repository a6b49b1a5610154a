//! Order statistics shared by the benchmark and `bench_compare`.

/// The median of `values` (mean of the middle two for an even count), or
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The first and third quartiles, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` does (the default "exclusive"
/// method), or `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    Some((q(1), q(3)))
}

/// The nearest-rank `p`-th percentile of `values` (`0 < p <= 100`), or
/// `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[nearest_rank(sorted.len(), p) - 1])
}

/// The highest percentile among the usual reporting points that leaves at
/// least ten samples beyond it, as `(p, value)`, or `None` with fewer than
/// twenty samples (not even the median has ten beyond it).
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    const POINTS: [f64; 8] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];
    let n = values.len();
    let p = POINTS
        .into_iter()
        .find(|&p| n.saturating_sub(nearest_rank(n, p)) >= 10)?;
    Some((p, percentile(values, p)?))
}

fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
        let v: Vec<f64> = (1..=600).map(f64::from).collect();
        assert_eq!(tail(&v), Some((98.0, 588.0)));
        assert_eq!(tail(&[1.0; 19]), None);
    }
}
