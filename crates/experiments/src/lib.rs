//! Shared helpers for the experiment binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper's evaluation that is not a fault-injection campaign cell; see
//! `EXPERIMENTS.md` at the workspace root for the index and for
//! paper-vs-measured comparisons. Every campaign — Table I, Figure 2, the
//! §IX extensions, the ablations — is a manifest under
//! `crates/experiments/manifests/`, run by `campaign_server`.
//!
//! The binaries that parse [`ExpOptions`] accept:
//!
//! * `--trials N` — runs per measurement (defaults are sized to finish in a
//!   couple of minutes; the paper-scale counts are documented per binary).
//! * `--full` — use the paper-scale counts.
//! * `--seed S` — base seed (default 2018, the year of the paper).
//!
//! That is every binary except `campaign_server` and `replay`, which take
//! their own flags (`campaign_server --help` prints its usage; `replay`
//! prints its usage on an unknown argument).
//!
//! Campaigns warm-start every trial from the campaign engine's boot cache.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use nlh_campaign::{build_system, BenchKind, SetupKind};
use nlh_core::RecoveryMechanism;
use nlh_hv::MachineConfig;
use nlh_sim::{SimDuration, SimTime};

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

/// Section VII-B's recovery latency as NetBench's sender sees it: runs
/// 1AppVM NetBench on `machine` for 4 s, injects a fail-stop, recovers
/// with `mech`, runs to 8 s, and returns the longest gap between
/// consecutive reply times.
///
/// # Panics
///
/// Panics if a detector fires in the fault-free run or after recovery,
/// or if `mech` cannot recover.
pub fn netbench_reply_gap(
    machine: MachineConfig,
    mech: &dyn RecoveryMechanism,
    seed: u64,
) -> SimDuration {
    let (mut hv, _) = build_system(machine, SetupKind::OneAppVm(BenchKind::NetBench), seed);
    hv.support = mech.op_support();
    hv.run_until(SimTime::from_secs(4));
    assert!(hv.detection().is_none(), "fault-free run must be clean");
    hv.raise_panic(nlh_sim::CpuId(1), "injected fail-stop");
    mech.recover(&mut hv).expect("recovery runs");
    hv.run_until(SimTime::from_secs(8));
    assert!(hv.detection().is_none(), "post-recovery run must be clean");

    let mut times: Vec<SimTime> = hv.net_replies.iter().map(|(_, t)| t).collect();
    times.sort_unstable();
    times
        .windows(2)
        .map(|w| w[1] - w[0])
        .max()
        .unwrap_or(SimDuration::ZERO)
}

/// Prints a horizontal rule sized for the standard table width.
pub fn hr() {
    println!("{}", "-".repeat(78));
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

    /// The reply gap on the campaign machine, pinned exactly: recovery
    /// pauses every VM, so the sender's longest gap is the recovery
    /// latency plus the queued replies' drain.
    #[test]
    fn netbench_reply_gap_pins_section_7b_on_the_small_machine() {
        use nlh_core::{Microreboot, Microreset};
        let gap = |mech: &dyn RecoveryMechanism| {
            netbench_reply_gap(MachineConfig::small(), mech, 2018).as_nanos()
        };
        assert_eq!(gap(&Microreset::nilihype()), 2_213_062);
        assert_eq!(gap(&Microreboot::rehype()), 451_361_123);
    }
}
