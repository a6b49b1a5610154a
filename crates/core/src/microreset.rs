//! **Microreset** — component-level recovery *without* reboot (NiLiHype).
//!
//! On error detection (Section III-C): the recovery handler runs on the
//! detecting CPU; all CPUs disable interrupts and discard their hypervisor
//! execution threads (stack reset); the detecting CPU applies the
//! enhancements of Section V-A; all CPUs then exit their busy-waits and
//! resume. Total latency is ~22 ms on the paper's machine, dominated by
//! the page-frame consistency scan (Table III).

use nlh_hv::hypercalls::OpSupport;
use nlh_hv::Hypervisor;
use nlh_sim::SimDuration;

use crate::clr::{RecoveryError, RecoveryMechanism, RecoveryPlan, RecoveryReport};
use crate::enhancements::Enhancements;
use crate::latency::CostModel;
use crate::mechanism::MechanismSpec;
use crate::shared;

/// Which execution threads microreset discards (Section III-C).
///
/// The paper chooses to discard **all** threads; discarding only the
/// faulting CPU's thread is discussed as an alternative "expected to be
/// more complex to implement and result in lower recovery rate" because of
/// interactions between surviving threads and the recovery process. Both
/// are implemented here so the claim can be tested (the `discard-*` cells
/// of `ablations.manifest`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiscardPolicy {
    /// Discard every hypervisor execution thread (NiLiHype's choice).
    AllThreads,
    /// Discard only the thread of the CPU that detected the error; other
    /// CPUs resume their in-flight handlers after recovery — and then trip
    /// over the state the recovery process changed beneath them.
    FaultingThreadOnly,
}

/// The NiLiHype recovery mechanism.
#[derive(Debug, Clone)]
pub struct Microreset {
    enhancements: Enhancements,
    policy: DiscardPolicy,
    name: String,
}

impl Microreset {
    /// NiLiHype as evaluated in the paper: all enhancements on.
    pub fn nilihype() -> Self {
        Microreset::with_enhancements(Enhancements::full())
    }

    /// A microreset with an explicit enhancement set (used for the Table I
    /// ladder and ablations).
    pub fn with_enhancements(enhancements: Enhancements) -> Self {
        Microreset::new(enhancements, DiscardPolicy::AllThreads)
    }

    /// A microreset with an explicit enhancement set and discard policy
    /// (Section III-C design choice).
    pub fn new(enhancements: Enhancements, policy: DiscardPolicy) -> Self {
        let spec = MechanismSpec::Microreset {
            enhancements,
            discard: policy,
        };
        Microreset {
            name: spec.name(),
            enhancements,
            policy,
        }
    }
}

impl RecoveryMechanism for Microreset {
    /// The configuration's [`MechanismSpec::name`].
    fn name(&self) -> &str {
        &self.name
    }

    fn op_support(&self) -> OpSupport {
        let e = &self.enhancements;
        OpSupport {
            undo_logging: e.nonidem_mitigation,
            reorder_nonidem: e.nonidem_mitigation,
            batched_completion_log: e.batched_retry,
            // NiLiHype does not need ReHype's two extra logs (Section VII-D).
            ioapic_write_log: false,
            bootline_log: false,
            save_fsgs: e.save_fsgs,
        }
    }

    fn recover(&self, hv: &mut Hypervisor) -> Result<RecoveryReport, RecoveryError> {
        let mut report = RecoveryReport::start(self.name(), hv)?;
        let e = &self.enhancements;
        let cost = CostModel::paper();

        // --- Quiesce: interrupt all CPUs, disable interrupts, discard all
        // execution threads (reset stacks), park in busy-waits.
        if e.save_fsgs {
            hv.save_fsgs_all();
        }
        let abandon = match self.policy {
            DiscardPolicy::AllThreads => hv.discard_all_stacks(),
            DiscardPolicy::FaultingThreadOnly => {
                let cpu = hv.detection().expect("detection exists").cpu;
                hv.discard_one_stack(cpu)
            }
        };
        report.frames_discarded = abandon.frames_discarded;
        report.step(
            "Interrupt all CPUs and discard execution threads",
            SimDuration::from_micros(150),
        );

        // --- Enhancements (Section V-A, plus the shared ReHype set). ---
        if e.clear_irq_count {
            for pc in hv.percpu.iter_mut() {
                pc.local_irq_count = 0;
            }
            report.step("Clear IRQ count", SimDuration::from_micros(5));
        }
        if e.release_heap_locks {
            report.locks_released += shared::release_heap_locks(hv);
            report.step("Release heap locks", SimDuration::from_micros(60));
        }
        if e.unlock_static_locks {
            report.locks_released += hv.locks.unlock_static_segment();
            report.step("Unlock static locks", SimDuration::from_micros(15));
        }
        if e.nonidem_mitigation {
            shared::apply_undo(hv);
            report.step(
                "Apply non-idempotent undo log",
                SimDuration::from_micros(30),
            );
        }
        if e.hypercall_retry || e.syscall_retry {
            // Threads that survive keep executing their requests; retrying
            // them too would double-execute. Only requests of the
            // *discarded* thread are retried.
            let only = match self.policy {
                DiscardPolicy::AllThreads => None,
                DiscardPolicy::FaultingThreadOnly => Some(abandon.in_hv_vcpus.as_slice()),
            };
            report.requests_retried =
                shared::mark_retries(hv, e.hypercall_retry, e.syscall_retry, only);
            report.step(
                "Set up hypercall/syscall retry",
                SimDuration::from_micros(40),
            );
        }
        if e.ack_interrupts {
            shared::ack_interrupts(hv);
            report.step(
                "Acknowledge pending/in-service interrupts",
                SimDuration::from_micros(25),
            );
        }
        if e.sched_consistency {
            shared::fix_scheduler(hv);
            report.step(
                "Ensure consistency within scheduling metadata",
                SimDuration::from_micros(120),
            );
        }
        if e.pfd_scan {
            report.pfd_repaired = hv.pft.consistency_scan();
            report.step(
                "Restore and check consistency of page frame entries",
                cost.pfd_scan(&hv.config),
            );
        }
        if e.reactivate_timer_events {
            report.timers_reactivated = shared::reactivate_timers(hv);
            report.step(
                "Reactivate recurring timer events",
                SimDuration::from_micros(40),
            );
        }
        if e.reprogram_timer {
            hv.reprogram_all_apics();
            report.step("Reprogram hardware timer", SimDuration::from_micros(30));
        }
        // Device extension, not in the paper. Runs after `ack_interrupts`
        // (which clears every pending vector) so its re-raised completion
        // interrupts survive. On machines without virtio devices it adds
        // no step and no time, preserving the paper's Table III latency
        // breakdown exactly.
        if e.virtqueue_consistency && !hv.virtio.is_empty() {
            let rep = hv.virtio_repair();
            report.step(
                "Repair virtqueue ring consistency",
                SimDuration::from_micros(20 + 2 * rep.total()),
            );
        }

        // --- FS/GS consequence + resume. ---
        hv.finish_fsgs(&abandon.in_hv_vcpus, e.save_fsgs);
        report.step("Resume normal operation", cost.microreset_others / 2);
        Ok(report.finish(hv))
    }

    /// The discard policy and the enhancements, less the virtqueue repair
    /// on a machine without virtio devices: the only step `recover` gates
    /// on the machine.
    fn plan(&self, hv: &Hypervisor) -> Option<RecoveryPlan> {
        let mut enhancements = self.enhancements;
        enhancements.virtqueue_consistency &= !hv.virtio.is_empty();
        Some(RecoveryPlan::Microreset {
            discard: self.policy,
            enhancements,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enhancements::LadderRung;
    use nlh_hv::domain::{DomainKind, DomainSpec, IdleLoop};
    use nlh_hv::invariants::check_quiescent;
    use nlh_hv::{CpuId, MachineConfig};
    use nlh_sim::SimTime;

    fn busy_hv() -> Hypervisor {
        let mut hv = Hypervisor::new(MachineConfig::small(), 11);
        hv.add_boot_domain(DomainSpec {
            kind: DomainKind::Priv,
            pages: 16,
            pinned_cpu: CpuId(0),
            program: Box::new(IdleLoop),
        });
        hv.add_boot_domain(DomainSpec {
            kind: DomainKind::App,
            pages: 32,
            pinned_cpu: CpuId(1),
            program: Box::new(nlh_workloads_stub::Spinner::default()),
        });
        hv
    }

    /// A tiny hypercall-issuing workload for recovery tests (avoids a dev
    /// dependency cycle on nlh-workloads).
    mod nlh_workloads_stub {
        use nlh_hv::domain::{GuestNotice, GuestOp, GuestProgram, WorkloadVerdict};
        use nlh_hv::hypercalls::HcRequest;
        use nlh_sim::{Pcg64, SimDuration, SimTime};

        #[derive(Debug, Default, Clone)]
        pub struct Spinner {
            i: u64,
        }
        impl GuestProgram for Spinner {
            fn name(&self) -> &str {
                "Spinner"
            }
            fn next_op(&mut self, _now: SimTime, _rng: &mut Pcg64) -> GuestOp {
                self.i += 1;
                match self.i % 4 {
                    0 => GuestOp::Hypercall(HcRequest::PinPages(1)),
                    1 => GuestOp::Hypercall(HcRequest::UnpinPages(1)),
                    2 => GuestOp::Syscall,
                    _ => GuestOp::Compute(SimDuration::from_micros(300)),
                }
            }
            fn notice(&mut self, _now: SimTime, _n: GuestNotice) {}
            fn verdict(&self, _now: SimTime, _deadline: SimTime) -> WorkloadVerdict {
                WorkloadVerdict::Running
            }
            fn clone_box(&self) -> Box<dyn GuestProgram> {
                Box::new(self.clone())
            }
        }
    }

    #[test]
    fn recovery_without_detection_is_an_error() {
        let mut hv = busy_hv();
        let mech = Microreset::nilihype();
        assert_eq!(mech.recover(&mut hv), Err(RecoveryError::NoDetection));
    }

    #[test]
    fn corrupted_recovery_entry_fails() {
        let mut hv = busy_hv();
        hv.recovery_entry_ok = false;
        hv.raise_panic(CpuId(0), "fault");
        let mech = Microreset::nilihype();
        assert_eq!(
            mech.recover(&mut hv),
            Err(RecoveryError::RecoveryRoutineCorrupted)
        );
    }

    #[test]
    fn full_recovery_restores_quiescent_invariants() {
        let mut hv = busy_hv();
        // Run into the steady state, then fault mid-execution.
        hv.run_for(nlh_sim::SimDuration::from_millis(120));
        assert!(hv.detection().is_none());
        hv.raise_panic(CpuId(1), "injected");
        let mech = Microreset::nilihype();
        let report = mech.recover(&mut hv).unwrap();
        assert!(hv.detection().is_none());
        let violations = check_quiescent(&hv);
        assert!(violations.is_empty(), "violations: {violations:?}");
        assert_eq!(report.mechanism, "NiLiHype");
    }

    #[test]
    fn latency_matches_table3_on_paper_machine() {
        let mut hv = Hypervisor::new(MachineConfig::paper(), 3);
        hv.raise_panic(CpuId(0), "fault");
        let mech = Microreset::nilihype();
        let report = mech.recover(&mut hv).unwrap();
        // Table III: 21 ms scan + ~1 ms others = 22 ms.
        assert_eq!(report.total.as_millis(), 22);
        let scan = report
            .steps
            .iter()
            .find(|s| s.name.contains("page frame"))
            .unwrap();
        assert_eq!(scan.duration.as_millis(), 21);
    }

    #[test]
    fn recovery_latency_pauses_all_vms() {
        let mut hv = busy_hv();
        hv.run_for(nlh_sim::SimDuration::from_millis(50));
        hv.raise_panic(CpuId(0), "fault");
        let before = hv.now_max();
        let report = Microreset::nilihype().recover(&mut hv).unwrap();
        let after = hv.now();
        assert_eq!(after, before + report.total, "clocks advanced by latency");
    }

    #[test]
    fn basic_rung_leaves_residue_in_place() {
        let mut hv = busy_hv();
        hv.run_for(nlh_sim::SimDuration::from_millis(50));
        // Leak residue: an irq count and a held lock.
        hv.percpu[2].local_irq_count = 1;
        let lock = hv.timer_locks[3];
        hv.locks.acquire(lock, CpuId(3));
        hv.raise_panic(CpuId(2), "fault");
        let mech = Microreset::with_enhancements(LadderRung::Basic.enhancements());
        mech.recover(&mut hv).unwrap();
        // Basic recovery resumed but repaired nothing.
        assert_eq!(hv.percpu[2].local_irq_count, 1);
        assert!(!hv.locks.held_locks().is_empty());
        // The machine subsequently fails again.
        hv.run_for(nlh_sim::SimDuration::from_secs(2));
        assert!(
            hv.detection().is_some(),
            "residue must re-trigger detection"
        );
    }

    #[test]
    fn retry_reexecutes_abandoned_hypercall() {
        let mut hv = busy_hv();
        // Run until the AppVM has a pending request in flight.
        let mut guard = 0;
        while hv.vcpus_with_pending().is_empty() && guard < 500_000 {
            hv.step_any();
            guard += 1;
        }
        assert!(guard < 500_000, "AppVM never issued a request");
        hv.raise_panic(CpuId(1), "fault mid-hypercall");
        let report = Microreset::nilihype().recover(&mut hv).unwrap();
        assert!(report.requests_retried >= 1);
        // After resuming, the retry completes and the pending clears.
        hv.run_for(nlh_sim::SimDuration::from_millis(100));
        assert!(hv.detection().is_none());
        assert!(
            hv.vcpus_with_pending().is_empty()
                || hv.domains.iter().all(|d| d
                    .pending
                    .as_ref()
                    .map(|p| !p.will_retry)
                    .unwrap_or(true))
        );
    }

    #[test]
    fn virtqueue_repair_step_only_runs_with_devices() {
        // Without devices the step must not appear (Table III latency is
        // pinned elsewhere); with a device and mid-transaction residue it
        // must repair and report.
        let mut hv = busy_hv();
        hv.raise_panic(CpuId(0), "fault");
        let report = Microreset::nilihype().recover(&mut hv).unwrap();
        assert!(
            !report.steps.iter().any(|s| s.name.contains("virtqueue")),
            "no devices, no step"
        );

        let mut hv = busy_hv();
        let dom = hv.domains[1].id;
        hv.add_virtio_blk(dom);
        // Seed a torn transaction directly: submitted and popped, never
        // completed.
        hv.virtio.devices[0].queues[0].submit(77);
        hv.virtio.devices[0].queues[0].pop_avail();
        hv.raise_panic(CpuId(1), "fault mid-virtqueue");
        let report = Microreset::nilihype().recover(&mut hv).unwrap();
        assert!(report
            .steps
            .iter()
            .any(|s| s.name == "Repair virtqueue ring consistency"));
        assert_eq!(hv.virtio.devices[0].queues[0].in_flight(), 0);
        assert!(hv.virtio.devices[0].undelivered() > 0);

        // The rung below the top leaves the residue in place.
        let mut hv = busy_hv();
        let dom = hv.domains[1].id;
        hv.add_virtio_blk(dom);
        hv.virtio.devices[0].queues[0].submit(77);
        hv.virtio.devices[0].queues[0].pop_avail();
        hv.raise_panic(CpuId(1), "fault mid-virtqueue");
        let mech = Microreset::with_enhancements(LadderRung::ReactivateTimerEvents.enhancements());
        let report = mech.recover(&mut hv).unwrap();
        assert!(!report.steps.iter().any(|s| s.name.contains("virtqueue")));
        assert_eq!(hv.virtio.devices[0].queues[0].in_flight(), 1);
    }

    #[test]
    fn plan_drops_the_virtqueue_step_only_without_devices() {
        let plan = |rung: LadderRung, hv: &Hypervisor| {
            Microreset::with_enhancements(rung.enhancements()).plan(hv)
        };
        let (below, top) = (
            LadderRung::ReactivateTimerEvents,
            LadderRung::VirtqueueConsistency,
        );
        let mut hv = busy_hv();
        assert_eq!(plan(below, &hv), plan(top, &hv));
        assert_ne!(plan(LadderRung::Basic, &hv), plan(below, &hv));
        let dom = hv.domains[1].id;
        hv.add_virtio_blk(dom);
        assert_ne!(plan(below, &hv), plan(top, &hv));
        let faulting = Microreset::new(Enhancements::full(), DiscardPolicy::FaultingThreadOnly);
        assert_ne!(faulting.plan(&hv), Microreset::nilihype().plan(&hv));
    }

    #[test]
    fn op_support_reflects_enhancements() {
        let full = Microreset::nilihype();
        let s = full.op_support();
        assert!(s.undo_logging && s.batched_completion_log && s.save_fsgs);
        assert!(
            !s.ioapic_write_log && !s.bootline_log,
            "NiLiHype needs neither log"
        );
        let basic = Microreset::with_enhancements(Enhancements::none());
        let s = basic.op_support();
        assert!(!s.undo_logging && !s.save_fsgs);
    }

    #[test]
    fn ladder_rungs_recover_increasingly_much_state() {
        // Structural sanity: higher rungs repair at least as many kinds of
        // residue (checked via quiescent violations after recovery from a
        // synthetic messy state).
        let mut prev_violations = usize::MAX;
        for rung in LadderRung::ALL {
            let mut hv = busy_hv();
            hv.run_for(nlh_sim::SimDuration::from_millis(80));
            // Synthesize rich residue.
            hv.percpu[2].local_irq_count = 1;
            let l = hv.runq_locks[1];
            hv.locks.acquire(l, CpuId(1));
            hv.locks
                .acquire(nlh_hv::locks::StaticLock::Time.id(), CpuId(0));
            hv.percpu[5].apic.disarm();
            hv.timers
                .remove_kind(nlh_hv::timers::TimerEventKind::WatchdogHeartbeat(CpuId(6)));
            hv.raise_panic(CpuId(2), "fault");
            let mech = Microreset::with_enhancements(rung.enhancements());
            mech.recover(&mut hv).unwrap();
            let v = check_quiescent(&hv).len();
            assert!(
                v <= prev_violations,
                "{rung:?}: {v} violations > previous {prev_violations}"
            );
            prev_violations = v;
        }
        assert_eq!(prev_violations, 0, "top rung repairs everything");
    }

    #[test]
    fn report_example_timestamps_sane() {
        let mut hv = Hypervisor::new(MachineConfig::small(), 9);
        hv.raise_panic(CpuId(0), "x");
        let report = Microreset::nilihype().recover(&mut hv).unwrap();
        assert!(report.total > SimDuration::ZERO);
        assert!(hv.now() > SimTime::ZERO);
        assert_eq!(
            report.total,
            report
                .steps
                .iter()
                .fold(SimDuration::ZERO, |a, s| a + s.duration)
        );
    }
}
