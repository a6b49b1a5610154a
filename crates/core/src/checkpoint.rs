//! **Checkpoint rollback** — the middle point of the design space the paper
//! discusses in Section II-B: "it is possible to reduce part of the reboot
//! time by replacing the reboot with a rollback to a checkpoint saved right
//! after a previous reboot. However, even in this case, there would be
//! significant latency for reintegrating state from the previous instance."
//!
//! The mechanism restores the hypervisor's *memory* state from a post-boot
//! checkpoint (cleansing the same state subset a reboot re-initializes)
//! and then performs ReHype's re-integration of the preserved VM state —
//! but skips the hardware initialization. Because the hardware is *not*
//! re-initialized, it additionally needs NiLiHype's hardware-facing
//! enhancements (reprogram the APIC timers, acknowledge interrupts).

use nlh_hv::hypercalls::OpSupport;
use nlh_hv::Hypervisor;
use nlh_sim::SimDuration;

use crate::clr::{RecoveryError, RecoveryMechanism, RecoveryReport};
use crate::latency::CostModel;
use crate::shared;

/// Recovery by rolling back to a post-boot checkpoint and re-integrating
/// preserved state (Section II-B's microreboot variant).
#[derive(Debug, Clone)]
pub struct CheckpointRestore;

impl RecoveryMechanism for CheckpointRestore {
    fn name(&self) -> &str {
        "CheckpointRestore"
    }

    fn op_support(&self) -> OpSupport {
        OpSupport {
            undo_logging: true,
            reorder_nonidem: true,
            batched_completion_log: true,
            // No reboot: the I/O APIC keeps its state, no boot line needed.
            ioapic_write_log: false,
            bootline_log: false,
            save_fsgs: true,
        }
    }

    fn recover(&self, hv: &mut Hypervisor) -> Result<RecoveryReport, RecoveryError> {
        let mut report = RecoveryReport::start(self.name(), hv)?;
        let cfg = hv.config.clone();
        let cost = CostModel::paper();

        hv.save_fsgs_all();
        let abandon = hv.discard_all_stacks();
        report.frames_discarded = abandon.frames_discarded;
        report.step(
            "Halt CPUs and preserve dynamic state",
            SimDuration::from_micros(800),
        );

        // --- Restore the post-boot checkpoint image of the hypervisor's
        // own memory (static data, heap metadata, timer subsystem). This
        // cleanses the same subset a reboot re-initializes, at memory-copy
        // rather than boot cost.
        for pc in hv.percpu.iter_mut() {
            pc.local_irq_count = 0;
        }
        hv.locks.unlock_static_segment();
        hv.boot_scratch_corrupted = false;
        hv.heap.rebuild_freelist();
        hv.timers.clear();
        report.timers_reactivated = shared::reactivate_timers(hv);
        report.step(
            "Restore post-boot checkpoint image",
            cost.record_old_heap(&cfg) * 2, // copy in + fix-ups
        );

        // --- Re-integration, as in ReHype (Table II memory steps minus the
        // descriptor re-initialization the checkpoint already contains).
        report.locks_released = shared::release_heap_locks(hv);
        report.pfd_repaired = hv.pft.consistency_scan();
        report.step(
            "Restore and check consistency of page frame entries",
            cost.pfd_scan(&cfg),
        );
        report.step(
            "Re-integrate preserved heap state",
            cost.recreate_heap(&cfg),
        );
        shared::apply_undo(hv);
        report.requests_retried = shared::mark_retries(hv, true, true, None);
        shared::fix_scheduler(hv);

        // --- Hardware was NOT re-initialized: NiLiHype-style fixes.
        shared::ack_interrupts(hv);
        hv.reprogram_all_apics();
        report.step(
            "Reprogram hardware timers, acknowledge interrupts",
            SimDuration::from_micros(60),
        );
        // Virtio rings live in guest memory the checkpoint does not cover:
        // repair them the NiLiHype way (absent without devices).
        if !hv.virtio.is_empty() {
            let rep = hv.virtio_repair();
            report.step(
                "Repair virtqueue ring consistency",
                SimDuration::from_micros(20 + 2 * rep.total()),
            );
        }

        hv.finish_fsgs(&abandon.in_hv_vcpus, true);
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
    fn latency_sits_between_the_two_mechanisms() {
        // Section II-B: "multiple hundreds of milliseconds" even without
        // the boot — dominated by state re-integration.
        let mut hv = Hypervisor::new(MachineConfig::paper(), 1);
        hv.raise_panic(CpuId(0), "fault");
        let ckpt = CheckpointRestore.recover(&mut hv).unwrap();
        assert!(
            ckpt.total.as_millis() > 200 && ckpt.total.as_millis() < 713,
            "checkpoint restore: {}",
            ckpt.total
        );
        let mut hv = Hypervisor::new(MachineConfig::paper(), 1);
        hv.raise_panic(CpuId(0), "fault");
        let ni = crate::Microreset::nilihype().recover(&mut hv).unwrap();
        assert!(ckpt.total > ni.total * 10, "far slower than microreset");
    }

    #[test]
    fn cleanses_boot_initialized_state_like_a_reboot() {
        let mut hv = Hypervisor::new(MachineConfig::small(), 2);
        hv.apply_corruption(CorruptionKind::BootScratch);
        hv.apply_corruption(CorruptionKind::HeapFreelist);
        hv.percpu[3].local_irq_count = 2;
        hv.percpu[5].apic.disarm();
        hv.raise_panic(CpuId(0), "fault");
        CheckpointRestore.recover(&mut hv).unwrap();
        assert!(!hv.boot_scratch_corrupted);
        assert!(!hv.heap.is_freelist_corrupted());
        let v = check_quiescent(&hv);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn machine_runs_after_checkpoint_recovery() {
        let mut hv = Hypervisor::new(MachineConfig::small(), 3);
        hv.run_for(SimDuration::from_millis(60));
        hv.raise_panic(CpuId(2), "fault");
        CheckpointRestore.recover(&mut hv).unwrap();
        hv.run_for(SimDuration::from_secs(1));
        assert!(hv.detection().is_none(), "{:?}", hv.detection());
    }
}
