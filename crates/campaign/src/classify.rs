//! Trial outcome classification (Sections VI-C and VII-A).

use nlh_hv::domain::WorkloadVerdict;
use nlh_hv::Hypervisor;
use nlh_sim::SimTime;
use serde::{Deserialize, Serialize};

use crate::setup::{BenchKind, SetupKind, SystemLayout};
use crate::trial::TrialObservations;

/// Final classification of one fault-injection trial.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrialClass {
    /// The fault caused no observable abnormal behaviour.
    NonManifested,
    /// Detectors stayed silent but at least one benchmark produced wrong
    /// output.
    Sdc,
    /// A detector fired and recovery succeeded per the paper's criterion.
    RecoverySuccess {
        /// Whether *no* AppVM was affected (the paper's `noVMF`).
        no_vm_failures: bool,
    },
    /// A detector fired and recovery failed.
    RecoveryFailure(String),
}

impl TrialClass {
    /// Whether this trial counts as a successful recovery.
    pub fn is_success(&self) -> bool {
        matches!(self, TrialClass::RecoverySuccess { .. })
    }

    /// Whether this trial had no VM failures after recovery.
    pub fn is_no_vmf(&self) -> bool {
        matches!(
            self,
            TrialClass::RecoverySuccess {
                no_vm_failures: true
            }
        )
    }
}

/// Whether NetBench counts as *affected*: more than 10% of any one-second
/// interval's packets went unanswered (Section VI-A). Replies are
/// attributed to their send second (sequence numbers are 1 kHz), so a
/// paused-then-drained queue does not count as loss, but dropped or
/// never-answered packets do.
pub fn netbench_affected(hv: &Hypervisor, bench_secs: u64) -> bool {
    let Some(net) = hv.net.as_ref() else {
        return false;
    };
    if net.seq == 0 {
        return false;
    }
    let period_ns = net.period.as_nanos().max(1);
    let per_second = (1_000_000_000 / period_ns).max(1);
    let mut answered = vec![false; net.seq as usize + 1];
    for (seq, _) in hv.net_replies.iter() {
        if let Some(slot) = answered.get_mut(seq as usize) {
            *slot = true;
        }
    }
    // Only the benchmark's own run is measured (the sender stops counting
    // when the benchmark ends; packets sent after the receiver finished
    // are not the benchmark's problem).
    let n_seconds = ((net.seq / per_second) as usize).min(bench_secs.saturating_sub(1) as usize);
    for s in 0..n_seconds {
        let lo = s as u64 * per_second + 1;
        let hi = lo + per_second;
        let missed = (lo..hi).filter(|q| !answered[*q as usize]).count() as u64;
        if missed * 10 > per_second {
            return true;
        }
    }
    false
}

/// Classifies a finished trial.
///
/// `now` is the end-of-trial time; `deadline` the time by which benchmarks
/// had to finish.
pub fn classify(
    hv: &Hypervisor,
    layout: &SystemLayout,
    obs: &TrialObservations,
    now: SimTime,
    deadline: SimTime,
) -> TrialClass {
    // No detector fired: non-manifested vs SDC by the golden-copy oracle.
    if !obs.detected {
        let any_failed = layout
            .initial_apps
            .iter()
            .any(|(dom, _)| !hv.domains[dom.index()].verdict(now, deadline).is_ok());
        return if any_failed {
            TrialClass::Sdc
        } else {
            TrialClass::NonManifested
        };
    }

    // Detected: recovery must have been attempted.
    if let Some(err) = &obs.recovery_error {
        return TrialClass::RecoveryFailure(format!("recovery aborted: {err}"));
    }
    if obs.second_detection {
        return TrialClass::RecoveryFailure(format!(
            "post-recovery failure: {}",
            obs.second_detection_reason.as_deref().unwrap_or("unknown")
        ));
    }
    if !hv.time_sync_healthy(now) {
        return TrialClass::RecoveryFailure("platform time synchronization stopped".into());
    }

    // The PrivVM must survive (its loss takes down the platform). A
    // request lost without retry leaves its vCPU waiting forever — for the
    // PrivVM that means the management stack is dead.
    let priv_ok = hv.domains[0].is_active()
        && hv.domains[0].verdict(now, deadline).is_ok()
        && hv.domains[0].pending.is_none();
    if !priv_ok {
        return TrialClass::RecoveryFailure("PrivVM failed".into());
    }

    // Count affected initial AppVMs.
    let mut affected = 0usize;
    for (dom, kind) in &layout.initial_apps {
        let verdict = hv.domains[dom.index()].verdict(now, deadline);
        let mut bad = !verdict.is_ok();
        let bench_secs = layout.setup.bench_duration().as_secs_f64() as u64;
        if *kind == BenchKind::NetBench && netbench_affected(hv, bench_secs) {
            bad = true;
        }
        if bad {
            affected += 1;
        }
    }

    match layout.setup {
        SetupKind::OneAppVm(_)
        | SetupKind::OneHvmAppVm(_)
        | SetupKind::TwoAppVmSharedCpu
        | SetupKind::TwoAppVmVswitch
        | SetupKind::Overcommit(_) => {
            // 1AppVM-style criterion: "recovery success" means no VM is
            // affected.
            if affected == 0 {
                TrialClass::RecoverySuccess {
                    no_vm_failures: true,
                }
            } else {
                TrialClass::RecoveryFailure("the AppVM was affected".into())
            }
        }
        SetupKind::ThreeAppVm => {
            // The hypervisor must still be able to create and host new VMs:
            // the post-recovery BlkBench AppVM must exist, be active, and
            // complete correctly.
            let new_vm_ok = hv
                .domains
                .get(3)
                .map(|d| {
                    d.is_active()
                        && matches!(d.verdict(now, deadline), WorkloadVerdict::CompletedOk)
                })
                .unwrap_or(false);
            if !new_vm_ok {
                return TrialClass::RecoveryFailure(
                    "post-recovery VM creation or execution failed".into(),
                );
            }
            if affected <= 1 {
                TrialClass::RecoverySuccess {
                    no_vm_failures: affected == 0,
                }
            } else {
                TrialClass::RecoveryFailure(format!("{affected} AppVMs affected"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_predicates() {
        assert!(TrialClass::RecoverySuccess {
            no_vm_failures: false
        }
        .is_success());
        assert!(!TrialClass::RecoverySuccess {
            no_vm_failures: false
        }
        .is_no_vmf());
        assert!(TrialClass::RecoverySuccess {
            no_vm_failures: true
        }
        .is_no_vmf());
        assert!(!TrialClass::Sdc.is_success());
        assert!(!TrialClass::RecoveryFailure("x".into()).is_success());
    }

    #[test]
    fn netbench_analysis_tolerates_no_traffic() {
        let hv = Hypervisor::new(nlh_hv::MachineConfig::small(), 1);
        assert!(!netbench_affected(&hv, 24));
    }
}
