//! **Microreboot** — component-level recovery *with* reboot (ReHype).
//!
//! ReHype (Sections III-B, IV) boots a new hypervisor instance while
//! preserving VM state in place: static data segments are saved and
//! selectively restored, the non-free heap pages are preserved and
//! re-integrated into the new heap, and page tables are restored. The boot
//! re-initializes the hardware and a large part of the hypervisor state —
//! which is why the NiLiHype-specific enhancements are unnecessary here,
//! and why ReHype cleanses some corruptions microreset cannot — at the cost
//! of ~713 ms of recovery latency (Table II).

use nlh_hv::hypercalls::OpSupport;
use nlh_hv::Hypervisor;
use nlh_sim::SimDuration;
use serde::{Deserialize, Serialize};

use crate::clr::{RecoveryError, RecoveryMechanism, RecoveryReport};
use crate::latency::CostModel;
use crate::mechanism::MechanismSpec;
use crate::shared;

/// ReHype configuration: the x86-64 port enhancements of Section IV.
///
/// The "initial port" (65% recovery rate) lacked all four; adding syscall
/// retry, batched-hypercall retry and FS/GS saving brought it to 84%, and
/// the non-idempotent-hypercall mitigation to 96%. As mechanism spellings
/// the ladder is
/// `ReHype(-syscall_retry,-batched_retry,-save_fsgs,-nonidem_mitigation)`,
/// `ReHype(-nonidem_mitigation)` and `ReHype`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReHypeConfig {
    /// Retry forwarded syscalls (x86-64 traps syscalls into the hypervisor).
    pub syscall_retry: bool,
    /// Fine-granularity batched hypercall retry (completion logging).
    pub batched_retry: bool,
    /// Save FS/GS at error detection.
    pub save_fsgs: bool,
    /// Undo logging + code reordering for non-idempotent hypercalls.
    pub nonidem_mitigation: bool,
    /// Log I/O APIC register writes for post-reboot restoration.
    pub ioapic_log: bool,
    /// Log boot-line options for the reboot.
    pub bootline_log: bool,
}

impl ReHypeConfig {
    /// ReHype as evaluated: everything on.
    pub fn full() -> Self {
        ReHypeConfig {
            syscall_retry: true,
            batched_retry: true,
            save_fsgs: true,
            nonidem_mitigation: true,
            ioapic_log: true,
            bootline_log: true,
        }
    }

    /// Every flag by its field name, in declaration order: the
    /// vocabulary of [`crate::MechanismSpec`]'s subtractive spellings.
    pub fn flags_mut(&mut self) -> [(&'static str, &mut bool); 6] {
        [
            ("syscall_retry", &mut self.syscall_retry),
            ("batched_retry", &mut self.batched_retry),
            ("save_fsgs", &mut self.save_fsgs),
            ("nonidem_mitigation", &mut self.nonidem_mitigation),
            ("ioapic_log", &mut self.ioapic_log),
            ("bootline_log", &mut self.bootline_log),
        ]
    }
}

/// The ReHype recovery mechanism.
#[derive(Debug, Clone)]
pub struct Microreboot {
    config: ReHypeConfig,
    name: String,
}

impl Microreboot {
    /// ReHype as evaluated in the paper.
    pub fn rehype() -> Self {
        Microreboot::with_config(ReHypeConfig::full())
    }

    /// ReHype with an explicit configuration (for the Section IV port
    /// ladder and ablations).
    pub fn with_config(config: ReHypeConfig) -> Self {
        Microreboot {
            config,
            name: MechanismSpec::Microreboot(config).name(),
        }
    }
}

impl RecoveryMechanism for Microreboot {
    /// The configuration's [`MechanismSpec::name`].
    fn name(&self) -> &str {
        &self.name
    }

    fn op_support(&self) -> OpSupport {
        let c = &self.config;
        OpSupport {
            undo_logging: c.nonidem_mitigation,
            reorder_nonidem: c.nonidem_mitigation,
            batched_completion_log: c.batched_retry,
            ioapic_write_log: c.ioapic_log,
            bootline_log: c.bootline_log,
            save_fsgs: c.save_fsgs,
        }
    }

    fn recover(&self, hv: &mut Hypervisor) -> Result<RecoveryReport, RecoveryError> {
        let mut report = RecoveryReport::start(self.name(), hv)?;
        if !self.config.bootline_log {
            // Without logged boot options the new instance cannot be
            // brought up compatibly with the preserved state.
            return Err(RecoveryError::BootOptionsUnavailable);
        }
        let c = &self.config;
        let cfg = hv.config.clone();
        let cost = CostModel::paper();

        // --- Quiesce + preserve. ---
        if c.save_fsgs {
            hv.save_fsgs_all();
        }
        let abandon = hv.discard_all_stacks();
        report.frames_discarded = abandon.frames_discarded;
        report.step(
            "Halt CPUs and preserve static data segments",
            SimDuration::from_micros(800),
        );

        // --- Hardware initialization (Table II: 412 ms). ---
        report.step("Early initialize of the boot CPU", cost.early_boot_cpu);
        report.step(
            "Initialize and wait for other CPUs to come online",
            cost.init_other_cpus(&cfg),
        );
        report.step(
            "Verify, connect and setup local APIC and setup IO APIC",
            cost.apic_setup,
        );
        report.step("Initialize and calibrate TSC timer", cost.tsc_calibrate);
        // The reboot re-initializes hardware + boot-initialized state:
        for pc in hv.percpu.iter_mut() {
            pc.local_irq_count = 0;
        }
        hv.locks.unlock_static_segment();
        hv.boot_scratch_corrupted = false;
        let ioapic_snapshot = hv.ioapic_log;
        hv.irqs.ioapic_reset_to_boot();
        if c.ioapic_log {
            if let Some(snap) = ioapic_snapshot {
                hv.irqs.ioapic_restore(snap);
            }
        }
        // Timer subsystem is rebuilt from scratch; recurring events are
        // re-registered during boot.
        hv.timers.clear();
        report.timers_reactivated = shared::reactivate_timers(hv);
        hv.reprogram_all_apics();

        // --- Memory initialization (Table II: 266 ms). ---
        report.step(
            "Record allocated pages of old heap",
            cost.record_old_heap(&cfg),
        );
        report.pfd_repaired = hv.pft.consistency_scan();
        report.step(
            "Restore and check consistency of page frame entries",
            cost.pfd_scan(&cfg),
        );
        report.step(
            "Re-initialize the page frame descriptor for un-preserved pages",
            cost.reinit_unpreserved(&cfg),
        );
        hv.heap.rebuild_freelist();
        report.step("Recreate the new heap", cost.recreate_heap(&cfg));

        // --- Misc (Table II: 35 ms). ---
        report.step("SMP initialization", cost.smp_init);
        report.step(
            "Identify valid page frame, relocate boot up modules",
            cost.relocate_modules,
        );
        report.step("Others", cost.boot_others);

        // --- Re-integration + shared enhancements. ---
        report.locks_released = shared::release_heap_locks(hv);
        if c.nonidem_mitigation {
            shared::apply_undo(hv);
        }
        report.requests_retried = shared::mark_retries(hv, true, c.syscall_retry, None);
        shared::ack_interrupts(hv);
        // Scheduler state is rebuilt from the preserved per-CPU structures.
        shared::fix_scheduler(hv);
        // The rebooted instance re-initializes its virtio device backends;
        // descriptor rings live in preserved guest memory, so torn
        // transactions are repaired the same way microreset does (after
        // `ack_interrupts`, so re-raised completion vectors survive).
        // Absent on machines without devices — the Table II breakdown is
        // unchanged.
        if !hv.virtio.is_empty() {
            let rep = hv.virtio_repair();
            report.step(
                "Re-initialize virtio device backends and repair rings",
                SimDuration::from_micros(20 + 2 * rep.total()),
            );
        }

        hv.finish_fsgs(&abandon.in_hv_vcpus, c.save_fsgs);
        Ok(report.finish(hv))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlh_hv::chaos::CorruptionKind;
    use nlh_hv::invariants::check_quiescent;
    use nlh_hv::{CpuId, MachineConfig};

    #[test]
    fn latency_matches_table2_on_paper_machine() {
        let mut hv = Hypervisor::new(MachineConfig::paper(), 1);
        hv.raise_panic(CpuId(0), "fault");
        let report = Microreboot::rehype().recover(&mut hv).unwrap();
        // Table II: 713 ms (+ the sub-ms preserve step).
        assert_eq!(report.total.as_millis(), 713);
        let heap = report
            .steps
            .iter()
            .find(|s| s.name.contains("Recreate"))
            .unwrap();
        assert_eq!(heap.duration.as_millis(), 211);
    }

    #[test]
    fn rehype_is_over_30x_slower_than_nilihype() {
        let mut hv1 = Hypervisor::new(MachineConfig::paper(), 1);
        hv1.raise_panic(CpuId(0), "fault");
        let re = Microreboot::rehype().recover(&mut hv1).unwrap();
        let mut hv2 = Hypervisor::new(MachineConfig::paper(), 1);
        hv2.raise_panic(CpuId(0), "fault");
        let ni = crate::Microreset::nilihype().recover(&mut hv2).unwrap();
        let ratio = re.total.as_nanos() as f64 / ni.total.as_nanos() as f64;
        assert!(ratio > 30.0, "ratio = {ratio:.1}");
    }

    #[test]
    fn reboot_cleanses_boot_reinitialized_state() {
        let mut hv = Hypervisor::new(MachineConfig::small(), 2);
        hv.apply_corruption(CorruptionKind::BootScratch);
        hv.apply_corruption(CorruptionKind::HeapFreelist);
        hv.raise_panic(CpuId(0), "fault");
        Microreboot::rehype().recover(&mut hv).unwrap();
        assert!(!hv.boot_scratch_corrupted, "reboot re-initializes scratch");
        assert!(!hv.heap.is_freelist_corrupted(), "heap rebuilt");
        assert!(check_quiescent(&hv).is_empty());
    }

    #[test]
    fn microreset_does_not_cleanse_that_state() {
        let mut hv = Hypervisor::new(MachineConfig::small(), 2);
        hv.apply_corruption(CorruptionKind::BootScratch);
        hv.apply_corruption(CorruptionKind::HeapFreelist);
        hv.raise_panic(CpuId(0), "fault");
        crate::Microreset::nilihype().recover(&mut hv).unwrap();
        assert!(hv.boot_scratch_corrupted, "microreset keeps state in place");
        assert!(hv.heap.is_freelist_corrupted());
    }

    #[test]
    fn missing_bootline_log_fails_recovery() {
        let mut cfg = ReHypeConfig::full();
        cfg.bootline_log = false;
        let mut hv = Hypervisor::new(MachineConfig::small(), 3);
        hv.raise_panic(CpuId(0), "fault");
        assert_eq!(
            Microreboot::with_config(cfg).recover(&mut hv),
            Err(RecoveryError::BootOptionsUnavailable)
        );
    }

    #[test]
    fn ioapic_routes_restored_from_log() {
        use nlh_hv::domain::{DomainKind, DomainSpec, IdleLoop};
        let mut hv = Hypervisor::new(MachineConfig::small(), 4);
        let dom = hv.add_boot_domain(DomainSpec {
            kind: DomainKind::App,
            pages: 8,
            pinned_cpu: CpuId(1),
            program: Box::new(IdleLoop),
        });
        hv.attach_net_traffic(dom, nlh_sim::SimDuration::from_millis(1));
        hv.ioapic_log = Some(hv.irqs.ioapic_snapshot());
        let route_before = hv.irqs.ioapic_route(nlh_hv::interrupts::VEC_NET);
        hv.raise_panic(CpuId(0), "fault");
        Microreboot::rehype().recover(&mut hv).unwrap();
        assert_eq!(
            hv.irqs.ioapic_route(nlh_hv::interrupts::VEC_NET),
            route_before,
            "log replay restores device routing"
        );
    }

    #[test]
    fn initial_port_lacks_the_four_enhancements() {
        let c = ReHypeConfig {
            syscall_retry: false,
            batched_retry: false,
            save_fsgs: false,
            nonidem_mitigation: false,
            ..ReHypeConfig::full()
        };
        let s = Microreboot::with_config(c).op_support();
        assert!(!s.undo_logging && !s.save_fsgs && !s.batched_completion_log);
        assert!(s.ioapic_write_log && s.bootline_log);
    }

    #[test]
    fn recovery_restores_quiescent_invariants_after_residue() {
        let mut hv = Hypervisor::new(MachineConfig::small(), 5);
        hv.percpu[3].local_irq_count = 2;
        hv.locks
            .acquire(nlh_hv::locks::StaticLock::PageAlloc.id(), CpuId(2));
        hv.percpu[6].apic.disarm();
        hv.timers
            .remove_kind(nlh_hv::timers::TimerEventKind::TimeSync);
        hv.raise_panic(CpuId(3), "fault");
        Microreboot::rehype().recover(&mut hv).unwrap();
        let v = check_quiescent(&hv);
        assert!(v.is_empty(), "violations: {v:?}");
    }
}
