//! The recovery surface: the entry points the `nlh-core` mechanisms call
//! to abandon in-flight hypervisor execution, repair residue, and resume.

use nlh_sim::trace::TraceLevel;
use nlh_sim::{CpuId, LockId, SimDuration, VcpuId};

use super::{CpuMode, Hypervisor};
use crate::domain::GuestNotice;
use crate::hypercalls::UndoEntry;

/// Summary returned by [`Hypervisor::discard_all_stacks`].
#[derive(Debug, Clone)]
pub struct AbandonReport {
    /// Number of execution threads (program frames) discarded.
    pub frames_discarded: usize,
    /// vCPUs that were *inside* the hypervisor (their request in flight) —
    /// their FS/GS are clobbered unless saved at detection.
    pub in_hv_vcpus: Vec<VcpuId>,
    /// Locks that were held at the moment of abandonment.
    pub held_locks: Vec<LockId>,
}

impl Hypervisor {
    // ------------------------------------------------------------------
    // Recovery support (called by the `nlh-core` mechanisms)
    // ------------------------------------------------------------------

    /// Discards every hypervisor execution thread (microreset's core step)
    /// and parks all CPUs in the recovery busy-wait. The partial effects of
    /// the discarded programs remain in place — that residue is what the
    /// recovery enhancements must repair.
    pub fn discard_all_stacks(&mut self) -> AbandonReport {
        let mut frames = 0;
        let mut in_hv = Vec::new();
        for i in 0..self.stacks.len() {
            for f in std::mem::take(&mut self.stacks[i]) {
                frames += 1;
                if let Some(v) = f.program.cause.vcpu() {
                    in_hv.push(v);
                }
                if let Some(buf) = f.program.into_buffer() {
                    self.pools[i].give(buf);
                }
            }
            self.cpu_mode[i] = CpuMode::Parked;
            self.percpu[i].interrupts_disabled = true;
        }
        // vCPUs whose request was in flight but whose CPU had already been
        // wedged/abandoned also count as "in the hypervisor".
        for d in &self.domains {
            if d.pending.is_some() && !in_hv.contains(&d.vcpu) {
                in_hv.push(d.vcpu);
            }
        }
        AbandonReport {
            frames_discarded: frames,
            in_hv_vcpus: in_hv,
            held_locks: self.locks.held_locks(),
        }
    }

    /// Saves the FS/GS of every vCPU currently loaded on a CPU (the
    /// "Save FS/GS" enhancement runs this when the error is detected).
    pub fn save_fsgs_all(&mut self) {
        for cpu in 0..self.num_cpus() {
            let c = CpuId::from_index(cpu);
            if let Some(v) = self.sched.current(c) {
                let dom = self.domain_of(v);
                self.percpu[cpu].saved_fs_gs = Some(self.domains[dom.index()].fs_gs);
            }
        }
    }

    /// Applies the FS/GS consequence at the end of recovery: vCPUs that
    /// were inside the hypervisor either get their registers restored from
    /// the save area or have them clobbered.
    pub fn finish_fsgs(&mut self, in_hv_vcpus: &[VcpuId], saved: bool) {
        let now = self.now_max();
        for &v in in_hv_vcpus {
            let dom = self.domain_of(v);
            if !saved {
                self.domains[dom.index()].fs_gs = (0, 0);
                self.domains[dom.index()].notify(now, GuestNotice::TlsClobbered);
            }
        }
        for pc in &mut self.percpu {
            pc.saved_fs_gs = None;
        }
    }

    /// Applies (and drains) the undo log for every vCPU with an uncommitted
    /// request — reverting the partial side effects of abandoned
    /// non-idempotent hypercalls before they are retried.
    pub fn apply_undo_log(&mut self) -> usize {
        let entries = std::mem::take(&mut self.undo_log);
        let n = entries.len();
        for (_, entry) in entries.into_iter().rev() {
            match entry {
                UndoEntry::DecRef(p) => {
                    let _ = self.pft.dec_ref(p);
                }
                UndoEntry::IncRef(p) => {
                    let _ = self.pft.inc_ref(p);
                }
                UndoEntry::SetValidated(p, v) => {
                    let _ = self.pft.set_validated(p, v);
                }
                UndoEntry::UnallocPage(p) => {
                    // Remove from whichever domain got it, then free.
                    for d in &mut self.domains {
                        d.owned_pages.retain(|x| *x != p);
                    }
                    let _ = self.pft.free(p);
                }
            }
        }
        n
    }

    /// Discards the hypervisor execution thread of a single CPU (the
    /// alternative design choice discussed in Section III-C: discard only
    /// the thread of the CPU that detected the error). Other CPUs keep
    /// their in-flight programs and resume them after recovery.
    pub fn discard_one_stack(&mut self, cpu: CpuId) -> AbandonReport {
        let i = cpu.index();
        let mut in_hv = Vec::new();
        let frames = self.stacks[i].len();
        for f in std::mem::take(&mut self.stacks[i]) {
            if let Some(v) = f.program.cause.vcpu() {
                in_hv.push(v);
            }
            if let Some(buf) = f.program.into_buffer() {
                self.pools[i].give(buf);
            }
        }
        for c in 0..self.num_cpus() {
            self.cpu_mode[c] = CpuMode::Parked;
            self.percpu[c].interrupts_disabled = true;
        }
        AbandonReport {
            frames_discarded: frames,
            in_hv_vcpus: in_hv,
            held_locks: self.locks.held_locks(),
        }
    }

    /// Resumes normal operation after recovery: synchronizes all CPU clocks
    /// to `max + latency`, clears modes/detection, resets the watchdog.
    /// CPUs whose hypervisor stack still holds frames (the
    /// discard-faulting-only policy) resume executing them.
    pub fn resume_after(&mut self, latency: SimDuration) {
        let resume_at = self.now_max() + latency;
        for i in 0..self.num_cpus() {
            self.cpu_now[i] = resume_at;
            self.cpu_mode[i] = if self.stacks[i].is_empty() {
                CpuMode::Run
            } else {
                CpuMode::Hv
            };
            self.percpu[i].interrupts_disabled = false;
            self.percpu[i]
                .watchdog
                .reset(resume_at, self.tuning.watchdog_nmi_period);
        }
        self.detection = None;
        // The clocks were just rewritten wholesale: the cached `step_any`
        // pick is meaningless now.
        self.next_valid = false;
        nlh_sim::trace_event!(
            self.trace,
            resume_at,
            TraceLevel::Event,
            "resumed after recovery ({latency})"
        );
    }

    /// Reprograms every CPU's APIC timer from its software timer heap
    /// (NiLiHype's "reprogram hardware timer" enhancement; ReHype gets this
    /// from the reboot).
    pub fn reprogram_all_apics(&mut self) {
        for cpu in 0..self.num_cpus() {
            let c = CpuId::from_index(cpu);
            let now = self.cpu_now[cpu];
            let deadline = self
                .timers
                .peek_deadline(c)
                .unwrap_or(now + self.tuning.tick_period)
                .max(now + SimDuration::from_micros(1));
            self.percpu[cpu].apic.program(deadline);
        }
    }

    /// Runs the virtqueue ring-consistency repair (the
    /// `virtqueue_consistency` recovery enhancement) and re-raises the
    /// completion interrupt for any device left with undelivered used
    /// entries — the shared "acknowledge interrupts" step runs earlier in
    /// the recovery order and cleared every pending vector. Touches
    /// nothing and returns an all-zero report when no devices exist.
    pub fn virtio_repair(&mut self) -> nlh_virtio::VirtioRepair {
        let rep = self.virtio.repair();
        for di in 0..self.virtio.devices.len() {
            if self.virtio.devices[di].undelivered() > 0 {
                let vec = self.virtio.devices[di].vector;
                if let Some(target) = self.irqs.ioapic_route(vec) {
                    self.irqs.raise(target, vec);
                }
            }
        }
        rep
    }
}
