//! Campaign results: the aggregate counts, recovery rates and telemetry
//! of many trials.
//!
//! Campaigns execute on the resident [`crate::CampaignEngine`], whose
//! trials are **warm-started**: each one clones a cached post-boot template
//! from the engine's [`crate::BootCache`] instead of booting from scratch —
//! bit-identical results at a fraction of the setup cost. A cold boot
//! ([`crate::build_system`] plus [`crate::run_trial_with`]) stays the
//! reference the warm path is tested against (the differential proptests,
//! `boot_cache::checkout_matches_cold_boot_layout_and_state` and
//! `trial::warm_trial_equals_cold_trial`).

use std::collections::BTreeMap;

use nlh_inject::FaultType;
use nlh_sim::stats::Proportion;
use serde::{Deserialize, Serialize};

use crate::classify::TrialClass;
use crate::trial::TrialResult;

/// How each trial obtains its booted target system. Every cell warm-starts;
/// the one-variant enum stays because `campaign_bench` names
/// [`BootMode::Warm`] when it checks a workload's manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BootMode {
    /// Clone a cached post-boot template and reseed it.
    Warm,
}

/// Performance counters for one campaign run.
///
/// `total_steps` is deterministic per campaign config; the wall-clock
/// nanoseconds depend on the host and are reported for visibility only.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignTelemetry {
    /// Wall-clock nanoseconds spent obtaining booted systems (clone +
    /// reseed), summed over workers.
    pub setup_nanos: u64,
    /// Wall-clock nanoseconds spent running trial bodies, summed over
    /// workers.
    pub run_nanos: u64,
    /// Simulation steps executed by all trial bodies (sum of
    /// [`TrialResult::steps`]). Deterministic per campaign config.
    pub total_steps: u64,
}

/// Aggregated results of a fault-injection campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Mechanism name.
    pub mechanism: String,
    /// Fault type injected.
    pub fault: FaultType,
    /// Number of trials run.
    pub trials: u64,
    /// Trials with no observable effect.
    pub non_manifested: u64,
    /// Trials with silent data corruption.
    pub sdc: u64,
    /// Trials in which a detector fired (= recovery attempts).
    pub detected: u64,
    /// Detected trials classified as successful recovery.
    pub successes: u64,
    /// Detected trials with no AppVM failures at all.
    pub no_vmf: u64,
    /// Histogram of recovery-failure reasons.
    pub failure_reasons: BTreeMap<String, u64>,
    /// Performance counters for this run.
    pub telemetry: CampaignTelemetry,
}

impl CampaignResult {
    /// Successful-recovery rate over detected faults (the paper's headline
    /// metric), with confidence-interval accessors.
    pub fn success_rate(&self) -> Proportion {
        Proportion::new(self.successes, self.detected)
    }

    /// Rate of detected faults with no VM failures (`noVMF` in Figure 2).
    pub fn no_vmf_rate(&self) -> Proportion {
        Proportion::new(self.no_vmf, self.detected)
    }

    /// Breakdown over all injections: (non-manifested, SDC, detected)
    /// fractions, as reported in Section VII-A.
    pub fn manifestation_breakdown(&self) -> (f64, f64, f64) {
        if self.trials == 0 {
            return (0.0, 0.0, 0.0);
        }
        let n = self.trials as f64;
        (
            self.non_manifested as f64 / n,
            self.sdc as f64 / n,
            self.detected as f64 / n,
        )
    }
}

/// The aggregation core of the campaign engine (`engine.rs`), which feeds
/// a cell's seed-ordered trial results through one shard.
#[derive(Debug)]
pub(crate) struct Shard {
    mechanism: String,
    non_manifested: u64,
    sdc: u64,
    detected: u64,
    successes: u64,
    no_vmf: u64,
    failure_reasons: BTreeMap<String, u64>,
    setup_nanos: u64,
    run_nanos: u64,
    steps: u64,
}

impl Shard {
    pub(crate) fn new(mechanism: String) -> Self {
        Shard {
            mechanism,
            non_manifested: 0,
            sdc: 0,
            detected: 0,
            successes: 0,
            no_vmf: 0,
            failure_reasons: BTreeMap::new(),
            setup_nanos: 0,
            run_nanos: 0,
            steps: 0,
        }
    }

    /// Accounts wall-clock time spent obtaining a booted system / running
    /// a trial body (the engine's workers report these in bulk).
    pub(crate) fn add_nanos(&mut self, setup: u64, run: u64) {
        self.setup_nanos += setup;
        self.run_nanos += run;
    }

    pub(crate) fn add(&mut self, result: &TrialResult) {
        self.steps += result.steps;
        match &result.class {
            TrialClass::NonManifested => self.non_manifested += 1,
            TrialClass::Sdc => self.sdc += 1,
            TrialClass::RecoverySuccess { no_vm_failures } => {
                self.detected += 1;
                self.successes += 1;
                if *no_vm_failures {
                    self.no_vmf += 1;
                }
            }
            TrialClass::RecoveryFailure(reason) => {
                self.detected += 1;
                // Bucket by a shortened reason to keep the histogram small.
                let key = reason.chars().take(60).collect::<String>();
                *self.failure_reasons.entry(key).or_insert(0) += 1;
            }
        }
    }

    /// `(detected, successes)` over the trials added so far.
    pub(crate) fn counts(&self) -> (u64, u64) {
        (self.detected, self.successes)
    }

    /// Packages the aggregated counts as a [`CampaignResult`].
    pub(crate) fn into_result(self, fault: FaultType, trials: u64) -> CampaignResult {
        CampaignResult {
            mechanism: self.mechanism,
            fault,
            trials,
            non_manifested: self.non_manifested,
            sdc: self.sdc,
            detected: self.detected,
            successes: self.successes,
            no_vmf: self.no_vmf,
            failure_reasons: self.failure_reasons,
            telemetry: CampaignTelemetry {
                setup_nanos: self.setup_nanos,
                run_nanos: self.run_nanos,
                total_steps: self.steps,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CampaignEngine, CellResult};
    use crate::setup::{BenchKind, SetupKind};
    use crate::spec::CampaignSpec;
    use crate::stream::NullSink;

    /// A fresh-engine NiLiHype cell on the 1AppVM/UnixBench setup.
    fn cell(fault: FaultType, trials: u64, seed: u64) -> CellResult {
        let mut spec = CampaignSpec::new(
            "cell",
            SetupKind::OneAppVm(BenchKind::UnixBench),
            fault,
            trials,
        );
        spec.seed = seed;
        CampaignEngine::new().run_spec(&spec, &mut NullSink)
    }

    fn run(fault: FaultType, trials: u64, seed: u64) -> CampaignResult {
        cell(fault, trials, seed)
            .sharded()
            .expect("sharded cell")
            .clone()
    }

    #[test]
    fn small_failstop_campaign_aggregates() {
        let r = run(FaultType::Failstop, 24, 7);
        assert_eq!(r.trials, 24);
        assert_eq!(r.detected, 24, "failstop always detected");
        assert_eq!(r.non_manifested + r.sdc, 0);
        assert!(r.success_rate().value() > 0.5);
        assert_eq!(r.mechanism, "NiLiHype");
        let (nm, sdc, det) = r.manifestation_breakdown();
        assert_eq!((nm, sdc, det), (0.0, 0.0, 1.0));
    }

    #[test]
    fn campaign_is_reproducible() {
        let a = run(FaultType::Register, 16, 99);
        let b = run(FaultType::Register, 16, 99);
        assert_eq!(a.successes, b.successes);
        assert_eq!(a.non_manifested, b.non_manifested);
        assert_eq!(a.sdc, b.sdc);
    }

    #[test]
    fn telemetry_counts_steps_and_time() {
        let cell = cell(FaultType::Failstop, 8, 5);
        let r = cell.sharded().unwrap();
        let t = &r.telemetry;
        assert!(t.setup_nanos > 0 && t.run_nanos > 0);
        assert!(t.total_steps > 0, "trial bodies execute steps");
        assert_eq!(
            t.total_steps,
            cell.per_trial.iter().map(|tr| tr.steps).sum::<u64>()
        );
        // Every detected trial carries its recovery report.
        let reports = cell.per_trial.iter().filter(|tr| tr.recovery.is_some());
        assert_eq!(reports.count() as u64, r.detected);
    }
}
