//! The fault-injection surface of the hypervisor.
//!
//! The Gigan-style injector (`nlh-inject`) manipulates hypervisor state
//! through these methods only. Each corruption corresponds to an error-
//! propagation effect the paper observed or guards against: corrupted page
//! frame descriptors (repaired by the consistency scan), torn scheduler
//! metadata, lost timer-heap nodes, heap free-list damage (repaired only by
//! ReHype's reboot), boot-reinitialized scratch state (likewise), a broken
//! recovery routine (the paper's top recovery-failure cause), and PrivVM
//! damage (the second).

use nlh_sim::{CpuId, DomId, PageNum, VcpuId};

use crate::domain::GuestNotice;
use crate::hypervisor::{CpuMode, Hypervisor};
use crate::timers::TimerEventKind;

/// Ways an error can propagate into hypervisor state before detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionKind {
    /// Flip the validation bit or bump the use counter of a random frame.
    PageFrame,
    /// Tear a random vCPU's scheduling metadata.
    SchedMetadata,
    /// Drop a random recurring timer event from the heap.
    TimerHeapNode,
    /// Damage the heap free-list metadata.
    HeapFreelist,
    /// Corrupt static scratch state that only a reboot re-initializes.
    BootScratch,
    /// Corrupt the recovery routine's own state so recovery cannot run.
    RecoveryCritical,
    /// Corrupt memory belonging to a random application VM (silent data
    /// corruption inside the guest).
    GuestData,
    /// Corrupt state critical to the PrivVM.
    PrivVm,
}

/// All corruption kinds (for weighted sampling in the injector).
pub const ALL_CORRUPTIONS: [CorruptionKind; 8] = [
    CorruptionKind::PageFrame,
    CorruptionKind::SchedMetadata,
    CorruptionKind::TimerHeapNode,
    CorruptionKind::HeapFreelist,
    CorruptionKind::BootScratch,
    CorruptionKind::RecoveryCritical,
    CorruptionKind::GuestData,
    CorruptionKind::PrivVm,
];

impl Hypervisor {
    /// Applies one corruption of the given kind, using the trial RNG for
    /// target selection.
    pub fn apply_corruption(&mut self, kind: CorruptionKind) {
        match kind {
            CorruptionKind::PageFrame => {
                // Error propagation writes through live pointers, so it is
                // strongly biased toward descriptors of pages in active
                // use (domain memory) rather than a uniformly random frame.
                let owned: Vec<PageNum> = self
                    .domains
                    .iter()
                    .filter(|d| d.is_active())
                    .flat_map(|d| d.owned_pages.iter().copied())
                    .collect();
                let p = if !owned.is_empty() && self.rng.gen_bool(0.8) {
                    owned[self.rng.gen_range_usize(0, owned.len())]
                } else if !self.pft.is_empty() {
                    PageNum::from_index(self.rng.gen_range_usize(0, self.pft.len()))
                } else {
                    return;
                };
                if self.rng.gen_bool(0.5) {
                    let cur = self.pft.get(p).map(|d| d.validated).unwrap_or(false);
                    let _ = self.pft.set_validated(p, !cur);
                } else {
                    let _ = self.pft.inc_ref(p);
                }
            }
            CorruptionKind::SchedMetadata => {
                let n = self.sched.num_vcpus();
                if n == 0 {
                    return;
                }
                let v = VcpuId::from_index(self.rng.gen_range_usize(0, n));
                match self.rng.gen_range_usize(0, 3) {
                    0 => self.sched.cs_set_running_on(v, None),
                    1 => {
                        let c = CpuId::from_index(self.rng.gen_range_usize(0, self.num_cpus()));
                        self.sched.cs_set_running_on(v, Some(c));
                    }
                    _ => {
                        let cur = self.sched.vcpu(v).is_current;
                        self.sched.cs_set_is_current(v, !cur);
                    }
                }
            }
            CorruptionKind::TimerHeapNode => {
                let mut kinds: Vec<TimerEventKind> = vec![TimerEventKind::TimeSync];
                for cpu in 0..self.num_cpus() {
                    let c = CpuId::from_index(cpu);
                    kinds.push(TimerEventKind::WatchdogHeartbeat(c));
                    kinds.push(TimerEventKind::SchedTick(c));
                }
                for d in &self.domains {
                    if d.is_active() {
                        kinds.push(TimerEventKind::DomainTimer(d.vcpu));
                    }
                }
                if let Some(&k) = self.rng.choose(&kinds) {
                    self.timers.remove_kind(k);
                }
            }
            CorruptionKind::HeapFreelist => self.heap.corrupt_freelist(),
            CorruptionKind::BootScratch => self.boot_scratch_corrupted = true,
            CorruptionKind::RecoveryCritical => self.recovery_entry_ok = false,
            CorruptionKind::GuestData => {
                let apps: Vec<DomId> = self
                    .domains
                    .iter()
                    .filter(|d| d.is_active() && !d.id.is_priv())
                    .map(|d| d.id)
                    .collect();
                if let Some(&dom) = self.rng.choose(&apps) {
                    let now = self.now_max();
                    self.domains[dom.index()].notify(now, GuestNotice::DataCorrupted);
                }
            }
            CorruptionKind::PrivVm => {
                if !self.domains.is_empty() {
                    self.domains[DomId::PRIV.index()].crash("PrivVM state corrupted by fault");
                }
            }
        }
    }

    /// Wedges `cpu` in a tight loop with interrupts disabled (a hang the
    /// watchdog will eventually detect). The hypervisor stack of the CPU
    /// keeps whatever frames were in flight.
    pub fn wedge_cpu(&mut self, cpu: CpuId) {
        self.set_cpu_mode(cpu, CpuMode::Wedged);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::detect::DetectionKind;
    use nlh_sim::SimDuration;

    #[test]
    fn pfd_corruption_is_visible_to_scan() {
        let mut hv = Hypervisor::new(MachineConfig::small(), 1);
        let before = hv.pft.count_inconsistent();
        for _ in 0..16 {
            hv.apply_corruption(CorruptionKind::PageFrame);
        }
        assert!(hv.pft.count_inconsistent() > before);
    }

    #[test]
    fn heap_and_scratch_corruptions_set_flags() {
        let mut hv = Hypervisor::new(MachineConfig::small(), 2);
        hv.apply_corruption(CorruptionKind::HeapFreelist);
        assert!(hv.heap.is_freelist_corrupted());
        hv.apply_corruption(CorruptionKind::BootScratch);
        assert!(hv.boot_scratch_corrupted);
        hv.apply_corruption(CorruptionKind::RecoveryCritical);
        assert!(!hv.recovery_entry_ok);
    }

    #[test]
    fn wedged_cpu_is_caught_by_watchdog() {
        let mut hv = Hypervisor::new(MachineConfig::small(), 3);
        hv.wedge_cpu(CpuId(2));
        hv.run_for(SimDuration::from_secs(2));
        let det = hv.detection().expect("watchdog must catch the wedge");
        assert_eq!(det.kind, DetectionKind::Hang);
        assert_eq!(det.cpu, CpuId(2));
    }

    #[test]
    fn timer_node_corruption_removes_an_event() {
        let mut hv = Hypervisor::new(MachineConfig::small(), 4);
        let before = hv.timers.total_len();
        hv.apply_corruption(CorruptionKind::TimerHeapNode);
        assert_eq!(hv.timers.total_len(), before - 1);
    }

    #[test]
    fn scratch_corruption_panics_at_next_time_sync() {
        let mut hv = Hypervisor::new(MachineConfig::small(), 5);
        hv.apply_corruption(CorruptionKind::BootScratch);
        hv.run_for(SimDuration::from_millis(200));
        let det = hv.detection().expect("TimeSync must trip over scratch");
        assert!(det.reason.contains("time records"), "{}", det.reason);
    }
}
