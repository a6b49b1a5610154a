//! The component-level-recovery interface.

use nlh_hv::hypercalls::OpSupport;
use nlh_hv::Hypervisor;
use nlh_sim::SimDuration;
use serde::{Deserialize, Serialize};

use crate::enhancements::Enhancements;
use crate::microreset::DiscardPolicy;

/// One recovery step and the latency it contributed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryStep {
    /// Step name, matching the rows of Tables II/III.
    pub name: String,
    /// Simulated latency of the step.
    pub duration: SimDuration,
}

/// What a recovery run did.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Mechanism name (see [`RecoveryMechanism::name`]).
    pub mechanism: String,
    /// Per-step latency breakdown (the raw material of Tables II/III).
    pub steps: Vec<RecoveryStep>,
    /// Total recovery latency (the VMs are paused for this long).
    pub total: SimDuration,
    /// Hypervisor execution threads discarded.
    pub frames_discarded: usize,
    /// Locks released (heap + static).
    pub locks_released: usize,
    /// Page-frame descriptors repaired by the consistency scan.
    pub pfd_repaired: usize,
    /// Partially-executed requests marked for retry.
    pub requests_retried: usize,
    /// Recurring timer events re-created.
    pub timers_reactivated: usize,
}

impl RecoveryReport {
    /// Steps whose latency is at least `min` — the paper's tables "list
    /// every step that takes more than 1 ms".
    pub fn steps_at_least(&self, min: SimDuration) -> Vec<&RecoveryStep> {
        self.steps.iter().filter(|s| s.duration >= min).collect()
    }
}

/// Why recovery could not be performed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryError {
    /// The recovery routine itself cannot run — the fault corrupted state
    /// it depends on (the paper's top recovery-failure cause).
    RecoveryRoutineCorrupted,
    /// The reboot path could not reconstruct boot parameters (ReHype with
    /// boot-line logging disabled).
    BootOptionsUnavailable,
    /// `recover` was called with no pending detection.
    NoDetection,
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::RecoveryRoutineCorrupted => {
                write!(f, "recovery routine state corrupted by the fault")
            }
            RecoveryError::BootOptionsUnavailable => {
                write!(
                    f,
                    "boot-line options were not logged; reboot cannot proceed"
                )
            }
            RecoveryError::NoDetection => write!(f, "no error has been detected"),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// What a recovery does to one machine, exactly enough to compare: see
/// [`RecoveryMechanism::plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPlan {
    /// A microreset's discard policy and the enhancements whose steps it
    /// runs on the machine.
    Microreset {
        /// Which execution threads it discards.
        discard: DiscardPolicy,
        /// The enhancements it applies, with any the machine gates off
        /// cleared.
        enhancements: Enhancements,
    },
}

/// A component-level recovery mechanism for the hypervisor.
///
/// Implementations: [`crate::Microreset`] (NiLiHype) and
/// [`crate::Microreboot`] (ReHype).
pub trait RecoveryMechanism {
    /// Mechanism name for reports and trial records. It names the exact
    /// configuration: the campaign-manifest spelling (`NiLiHype`, `ReHype`,
    /// `Rung(<rung>)`, `NiLiHype-NoSchedFix`) where a manifest can name it,
    /// so a recorded trial can be replayed with the same mechanism.
    fn name(&self) -> &str;

    /// The normal-operation support features (logging, FS/GS save, ...)
    /// this mechanism requires; assign to [`Hypervisor::support`] before
    /// the workload starts. This is the source of the mechanism's
    /// normal-operation overhead (Figure 3).
    fn op_support(&self) -> OpSupport;

    /// Recovers the hypervisor from the pending detection: quiesces the
    /// machine, repairs state, and resumes execution with all CPU clocks
    /// advanced by the recovery latency.
    ///
    /// # Errors
    ///
    /// [`RecoveryError`] when recovery cannot even be attempted; the caller
    /// records the trial as a recovery failure.
    fn recover(&self, hv: &mut Hypervisor) -> Result<RecoveryReport, RecoveryError>;

    /// What [`RecoveryMechanism::recover`] would do to `hv`, or `None` if
    /// the mechanism does not say. Two mechanisms whose plans for `hv` are
    /// equal and `Some` leave bit-identical machines when each recovers a
    /// copy of `hv` (their reports may still differ in the mechanism
    /// name), so a trial group runs the post-recovery run once for both.
    fn plan(&self, hv: &Hypervisor) -> Option<RecoveryPlan> {
        let _ = hv;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_filters_steps_by_latency() {
        let r = RecoveryReport {
            mechanism: "test".into(),
            steps: vec![
                RecoveryStep {
                    name: "big".into(),
                    duration: SimDuration::from_millis(21),
                },
                RecoveryStep {
                    name: "small".into(),
                    duration: SimDuration::from_micros(200),
                },
            ],
            total: SimDuration::from_millis(22),
            ..RecoveryReport::default()
        };
        let big = r.steps_at_least(SimDuration::from_millis(1));
        assert_eq!(big.len(), 1);
        assert_eq!(big[0].name, "big");
    }

    #[test]
    fn error_display() {
        assert!(RecoveryError::RecoveryRoutineCorrupted
            .to_string()
            .contains("corrupted"));
        assert!(RecoveryError::BootOptionsUnavailable
            .to_string()
            .contains("boot-line"));
    }
}
