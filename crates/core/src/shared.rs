//! Recovery steps shared by NiLiHype and ReHype (Section III-B/C), and
//! the report bookkeeping every mechanism's `recover` shares.

use nlh_hv::hypercalls::PendingKind;
use nlh_hv::{Hypervisor, VcpuId};
use nlh_sim::SimDuration;

use crate::clr::{RecoveryError, RecoveryReport, RecoveryStep};

/// A recovery report is started by the entry guard, grows one step at a
/// time, and is finished by resuming the machine after the steps' total.
impl RecoveryReport {
    /// Checks that `hv` can be recovered and starts an empty report.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::NoDetection`] without a pending detection, and
    /// [`RecoveryError::RecoveryRoutineCorrupted`] when the fault broke the
    /// recovery routine's entry.
    pub(crate) fn start(mechanism: &str, hv: &Hypervisor) -> Result<Self, RecoveryError> {
        if hv.detection().is_none() {
            return Err(RecoveryError::NoDetection);
        }
        if !hv.recovery_entry_ok {
            return Err(RecoveryError::RecoveryRoutineCorrupted);
        }
        Ok(RecoveryReport {
            mechanism: mechanism.to_string(),
            ..RecoveryReport::default()
        })
    }

    /// Appends a step that took `duration`.
    pub(crate) fn step(&mut self, name: &str, duration: SimDuration) {
        self.steps.push(RecoveryStep {
            name: name.to_string(),
            duration,
        });
    }

    /// Totals the steps and resumes `hv` with every clock advanced by it.
    pub(crate) fn finish(mut self, hv: &mut Hypervisor) -> Self {
        self.total = self
            .steps
            .iter()
            .fold(SimDuration::ZERO, |a, s| a + s.duration);
        hv.resume_after(self.total);
        self
    }
}

/// Releases every lock embedded in a heap object (ReHype's original
/// mechanism, reused by NiLiHype). Returns how many were held.
pub(crate) fn release_heap_locks(hv: &mut Hypervisor) -> usize {
    let ids: Vec<_> = hv.heap.embedded_locks().collect();
    hv.locks.unlock_heap_locks(ids)
}

/// Marks partially executed requests for retry: every domain's, or with
/// `only` the requests of those vCPUs' domains, in that order.
/// `hypercalls` / `syscalls` select which kinds are retried (the x86-64
/// port added syscall retry, Section IV). Returns how many were marked.
pub(crate) fn mark_retries(
    hv: &mut Hypervisor,
    hypercalls: bool,
    syscalls: bool,
    only: Option<&[VcpuId]>,
) -> usize {
    let doms: Vec<usize> = match only {
        None => (0..hv.domains.len()).collect(),
        Some(vcpus) => vcpus.iter().map(|&v| hv.domain_of(v).index()).collect(),
    };
    let mut n = 0;
    for d in doms {
        if let Some(p) = hv.domains[d].pending.as_mut() {
            let retry = match p.kind {
                PendingKind::Hypercall(_) => hypercalls,
                PendingKind::Syscall => syscalls,
            };
            if retry {
                p.will_retry = true;
                n += 1;
            }
        }
    }
    n
}

/// Acknowledges all pending and in-service interrupts.
pub(crate) fn ack_interrupts(hv: &mut Hypervisor) -> usize {
    hv.irqs.ack_all()
}

/// Applies the undo log (non-idempotent-hypercall mitigation, Section IV).
pub(crate) fn apply_undo(hv: &mut Hypervisor) -> usize {
    hv.apply_undo_log()
}

/// Rebuilds scheduling metadata from the per-CPU source of truth and
/// re-enqueues stranded runnable vCPUs. In credit (overcommit) mode the
/// requeue pass also consumes pending-wake bits and clears double-queued /
/// torn-migration residue; a vCPU it woke must have its domain-level
/// blocked flag dropped too, or event delivery would re-block it.
pub(crate) fn fix_scheduler(hv: &mut Hypervisor) -> usize {
    let n = hv.sched.make_consistent_from_percpu() + hv.sched.requeue_runnable();
    if hv.sched.credit_mode() {
        for d in hv.domains.iter_mut() {
            if d.blocked && hv.sched.vcpu(d.vcpu).state != nlh_hv::sched::RunState::Blocked {
                d.blocked = false;
            }
        }
    }
    n
}

/// Re-creates missing recurring timer events.
pub(crate) fn reactivate_timers(hv: &mut Hypervisor) -> usize {
    let expected = hv.expected_recurring();
    let now = hv.now_max();
    hv.timers.reactivate_recurring(&expected, now)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlh_hv::domain::{DomainKind, DomainSpec, IdleLoop};
    use nlh_hv::hypercalls::{HcRequest, PendingRequest};
    use nlh_hv::{CpuId, MachineConfig};

    fn hv_with_domain() -> Hypervisor {
        let mut hv = Hypervisor::new(MachineConfig::small(), 1);
        hv.add_boot_domain(DomainSpec {
            kind: DomainKind::App,
            pages: 8,
            pinned_cpu: CpuId(1),
            program: Box::new(IdleLoop),
        });
        hv
    }

    #[test]
    fn heap_lock_release_ignores_static() {
        let mut hv = hv_with_domain();
        let heap_lock = hv.timer_locks[0];
        hv.locks.acquire(heap_lock, CpuId(0));
        hv.locks
            .acquire(nlh_hv::locks::StaticLock::Console.id(), CpuId(1));
        assert_eq!(release_heap_locks(&mut hv), 1);
        assert_eq!(hv.locks.held_locks().len(), 1, "console lock still held");
    }

    #[test]
    fn retry_marking_respects_kind_flags() {
        let mut hv = hv_with_domain();
        hv.domains[0].pending = Some(PendingRequest {
            kind: PendingKind::Hypercall(HcRequest::XenVersion),
            bindings: vec![],
            completed_subcalls: 0,
            will_retry: false,
        });
        assert_eq!(mark_retries(&mut hv, false, true, None), 0);
        assert!(!hv.domains[0].pending.as_ref().unwrap().will_retry);
        assert_eq!(mark_retries(&mut hv, true, false, None), 1);
        assert!(hv.domains[0].pending.as_ref().unwrap().will_retry);
    }

    #[test]
    fn syscall_retry_marking() {
        let mut hv = hv_with_domain();
        hv.domains[0].pending = Some(PendingRequest {
            kind: PendingKind::Syscall,
            bindings: vec![],
            completed_subcalls: 0,
            will_retry: false,
        });
        assert_eq!(mark_retries(&mut hv, true, false, None), 0);
        assert_eq!(mark_retries(&mut hv, true, true, None), 1);
    }

    #[test]
    fn scheduler_fix_requeues_stranded_vcpu() {
        let mut hv = hv_with_domain();
        // Simulate an abandoned deschedule: percpu cleared, vCPU torn.
        hv.sched.cs_set_percpu_current(CpuId(1), None);
        assert!(hv.sched.check_all().is_err());
        fix_scheduler(&mut hv);
        assert!(hv.sched.check_all().is_ok());
        assert!(
            hv.sched.peek_next(CpuId(1)).is_some(),
            "the vCPU is schedulable again"
        );
    }
}
