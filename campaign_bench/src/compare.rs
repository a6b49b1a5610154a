//! The verdict rule `bench_compare` applies to one workload × metric.
//!
//! A change **improved** a metric when it wins at least nine tenths of the
//! run pairs and the medians differ, in its favour, by more than the
//! parent's interquartile range, or when every one of its runs reads
//! better than every parent run. Otherwise, when either side's spread
//! (interquartile range over median) exceeds the metric's bound, the
//! result is **unresolved**. Otherwise a median worse than the parent's by
//! more than the bound is **regressed**, and anything else **unchanged**.

use crate::stats;

/// The outcome for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by the rule above.
    Improved,
    /// Worse by more than the bound.
    Regressed,
    /// Within the bound.
    Unchanged,
    /// Too noisy to tell at this bound.
    Unresolved,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Median and quartiles of one side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile (the median when there is one run).
    pub q1: f64,
    /// Third quartile (the median when there is one run).
    pub q3: f64,
}

impl Summary {
    /// Summarizes a non-empty set of runs.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let median = stats::median(values)?;
        let (q1, q3) = stats::quartiles(values).unwrap_or((median, median));
        Some(Summary { median, q1, q3 })
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The comparison of one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// The parent's runs.
    pub base: Summary,
    /// The change's runs.
    pub new: Summary,
    /// Pairs the change won (pairs are taken in run order).
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares two non-empty sets of runs of one metric.
pub fn compare(
    base: &[f64],
    new: &[f64],
    higher_is_better: bool,
    bound: f64,
) -> Option<Comparison> {
    let (b, n) = (Summary::of(base)?, Summary::of(new)?);
    let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let pairs = base.len().min(new.len());
    let wins = base
        .iter()
        .zip(new)
        .filter(|(b, n)| better(**n, **b))
        .count();
    let every_run_better = new.iter().all(|&x| base.iter().all(|&y| better(x, y)));
    let worse_by = if higher_is_better {
        (b.median - n.median) / b.median.abs()
    } else {
        (n.median - b.median) / b.median.abs()
    };
    let verdict = if every_run_better
        || (wins * 10 >= pairs * 9
            && better(n.median, b.median)
            && (n.median - b.median).abs() > b.q3 - b.q1)
    {
        Verdict::Improved
    } else if b.spread().max(n.spread()) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    };
    Some(Comparison {
        base: b,
        new: n,
        wins,
        pairs,
        verdict,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3,
    ];

    fn verdict(new: &[f64], higher: bool, bound: f64) -> Verdict {
        compare(&BASE, new, higher, bound).unwrap().verdict
    }

    #[test]
    fn same_runs_are_unchanged() {
        assert_eq!(verdict(&BASE, true, 0.1), Verdict::Unchanged);
        assert_eq!(verdict(&BASE, false, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn a_consistent_gain_is_improved_in_its_direction_only() {
        let faster: Vec<f64> = BASE.iter().map(|v| v * 1.05).collect();
        assert_eq!(verdict(&faster, true, 0.1), Verdict::Improved);
        // Within the bound in the other direction: unchanged, not regressed.
        assert_eq!(verdict(&faster, false, 0.1), Verdict::Unchanged);
        assert_eq!(verdict(&faster, false, 0.02), Verdict::Regressed);
    }

    #[test]
    fn noise_wider_than_the_bound_is_unresolved() {
        let noisy = [
            80.0, 120.0, 95.0, 105.0, 70.0, 130.0, 100.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(verdict(&noisy, true, 0.1), Verdict::Unresolved);
    }
}
