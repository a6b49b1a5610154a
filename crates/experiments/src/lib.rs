//! Shared helpers for the experiment binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper's evaluation; see `EXPERIMENTS.md` at the workspace root for the
//! index and for paper-vs-measured comparisons.
//!
//! The binaries that parse [`ExpOptions`] accept:
//!
//! * `--trials N` — trials per campaign (defaults are sized to finish in a
//!   couple of minutes; the paper-scale counts are documented per binary).
//! * `--full` — use the paper's campaign sizes (1000 Failstop / 5000
//!   Register / 2000 Code, 1000 per ladder rung).
//! * `--seed S` — base seed (default 2018, the year of the paper).
//!
//! That is every binary except `campaign_server` and `replay`, which take
//! their own flags (`campaign_server --help` prints its usage; `replay`
//! prints its usage on an unknown argument). `campaign_server` runs every
//! campaign stated as data: the manifests under
//! `crates/experiments/manifests/`, including the one-knob ablations
//! (`ablations.manifest`).
//!
//! Campaigns warm-start every trial from the campaign engine's boot cache;
//! a manifest job with `boot = cold` boots each of its trials from scratch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use nlh_campaign::CampaignTelemetry;

/// Command-line options shared by the experiment binaries.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Trials per campaign, if explicitly set.
    pub trials: Option<u64>,
    /// Use the paper's campaign sizes.
    pub full: bool,
    /// Base seed.
    pub seed: u64,
}

impl ExpOptions {
    /// Parses options from `std::env::args`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn from_args() -> Self {
        let mut opts = ExpOptions {
            trials: None,
            full: false,
            seed: 2018,
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--trials" => {
                    let v = args.next().expect("--trials needs a value");
                    opts.trials = Some(v.parse().expect("--trials needs an integer"));
                }
                "--full" => opts.full = true,
                "--seed" => {
                    let v = args.next().expect("--seed needs a value");
                    opts.seed = v.parse().expect("--seed needs an integer");
                }
                "--help" | "-h" => {
                    eprintln!("options: [--trials N] [--full] [--seed S]");
                    std::process::exit(0);
                }
                other => panic!("unknown option {other}; try --help"),
            }
        }
        opts
    }

    /// The trial count to use, given a quick default and the paper's count.
    pub fn count(&self, quick: u64, paper: u64) -> u64 {
        self.trials.unwrap_or(if self.full { paper } else { quick })
    }
}

/// Prints a one-line summary of a campaign's performance counters:
/// throughput, boot mode, and the wall-clock setup-vs-run split.
pub fn print_throughput(label: &str, t: &CampaignTelemetry) {
    println!(
        "[{label}] {:.0} trials/s on {} workers ({:?} boot, {:.1}% of worker time in setup)",
        t.trials_per_sec,
        t.workers,
        t.boot_mode,
        t.setup_fraction() * 100.0,
    );
}

/// Prints the simulated recovery-latency distribution of a campaign:
/// total latency quantiles plus the per-phase breakdown (Tables II/III).
pub fn print_latency(label: &str, t: &CampaignTelemetry) {
    let h = &t.recovery_latency_us;
    if h.count() == 0 {
        println!("[{label}] no recoveries, no latency distribution");
        return;
    }
    println!(
        "[{label}] recovery latency over {} recoveries: mean {:.0} us, p50 ~{:.0} us, p99 ~{:.0} us",
        h.count(),
        h.mean(),
        h.quantile(0.5),
        h.quantile(0.99),
    );
    for (phase, ph) in &t.phase_latency_us {
        println!(
            "    {:30} mean {:>8.1} us  (n={})",
            phase,
            ph.mean(),
            ph.count()
        );
    }
}

/// Prints a horizontal rule sized for the standard table width.
pub fn hr() {
    println!("{}", "-".repeat(78));
}

/// Formats a proportion as the paper does.
pub fn pct(p: nlh_sim::stats::Proportion) -> String {
    format!("{p}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(trials: Option<u64>, full: bool) -> ExpOptions {
        ExpOptions {
            trials,
            full,
            seed: 1,
        }
    }

    #[test]
    fn count_prefers_explicit_trials() {
        assert_eq!(opts(Some(7), true).count(10, 1000), 7);
    }

    #[test]
    fn count_uses_paper_size_with_full() {
        assert_eq!(opts(None, true).count(10, 1000), 1000);
        assert_eq!(opts(None, false).count(10, 1000), 10);
    }
}
