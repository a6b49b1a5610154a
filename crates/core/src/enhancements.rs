//! The recovery enhancement set and the Table I ladder.
//!
//! NiLiHype's recovery rate comes almost entirely from its enhancements
//! (Section V-A): the basic mechanism — discard all execution threads and
//! resume — *never* succeeds. The paper develops the enhancements
//! incrementally, measuring the recovery rate after each addition
//! (Table I); [`LadderRung`] reproduces those configurations.

use serde::{Deserialize, Serialize};

/// Which recovery enhancements are active.
///
/// The first group is shared with ReHype ("Enhanced with ReHype
/// mechanisms"); the second group exists only for NiLiHype, because
/// ReHype's reboot provides the equivalent effect for free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Enhancements {
    // --- Shared with ReHype ---
    /// Release all locks embedded in heap objects.
    pub release_heap_locks: bool,
    /// Retry partially executed hypercalls after recovery.
    pub hypercall_retry: bool,
    /// Retry forwarded syscalls (x86-64 port enhancement, Section IV).
    pub syscall_retry: bool,
    /// Per-sub-call completion logging for batched hypercalls (Section IV).
    pub batched_retry: bool,
    /// Undo logging + code reordering for non-idempotent hypercalls
    /// (Section IV; turning this off is the paper's "NiLiHype*").
    pub nonidem_mitigation: bool,
    /// Save guest FS/GS at error detection (Section IV).
    pub save_fsgs: bool,
    /// Acknowledge all pending and in-service interrupts.
    pub ack_interrupts: bool,
    /// The page-frame-descriptor consistency scan (21 ms on 8 GB).
    pub pfd_scan: bool,

    // --- NiLiHype-specific (reboot provides these in ReHype) ---
    /// Zero every CPU's `local_irq_count`.
    pub clear_irq_count: bool,
    /// Rebuild per-vCPU scheduling metadata from the per-CPU copies.
    pub sched_consistency: bool,
    /// Reprogram every CPU's APIC one-shot timer.
    pub reprogram_timer: bool,
    /// Unlock every lock in the static-lock segment.
    pub unlock_static_locks: bool,
    /// Re-create missing recurring timer events.
    pub reactivate_timer_events: bool,
    /// Rescan virtio descriptor rings after recovery: publish logged
    /// completions, cancel torn rx fills, re-execute abandoned requests
    /// and re-raise completion interrupts (this repo's device extension;
    /// a no-op on machines without virtio devices).
    pub virtqueue_consistency: bool,
}

impl Enhancements {
    /// Everything off — the "Basic" row of Table I (recovery never
    /// succeeds).
    pub fn none() -> Self {
        Enhancements {
            release_heap_locks: false,
            hypercall_retry: false,
            syscall_retry: false,
            batched_retry: false,
            nonidem_mitigation: false,
            save_fsgs: false,
            ack_interrupts: false,
            pfd_scan: false,
            clear_irq_count: false,
            sched_consistency: false,
            reprogram_timer: false,
            unlock_static_locks: false,
            reactivate_timer_events: false,
            virtqueue_consistency: false,
        }
    }

    /// Everything on — NiLiHype as evaluated.
    pub fn full() -> Self {
        Enhancements {
            release_heap_locks: true,
            hypercall_retry: true,
            syscall_retry: true,
            batched_retry: true,
            nonidem_mitigation: true,
            save_fsgs: true,
            ack_interrupts: true,
            pfd_scan: true,
            clear_irq_count: true,
            sched_consistency: true,
            reprogram_timer: true,
            unlock_static_locks: true,
            reactivate_timer_events: true,
            virtqueue_consistency: true,
        }
    }

    /// Every flag by its field name, in declaration order: the
    /// vocabulary of [`crate::MechanismSpec`]'s subtractive spellings.
    pub fn flags_mut(&mut self) -> [(&'static str, &mut bool); 14] {
        [
            ("release_heap_locks", &mut self.release_heap_locks),
            ("hypercall_retry", &mut self.hypercall_retry),
            ("syscall_retry", &mut self.syscall_retry),
            ("batched_retry", &mut self.batched_retry),
            ("nonidem_mitigation", &mut self.nonidem_mitigation),
            ("save_fsgs", &mut self.save_fsgs),
            ("ack_interrupts", &mut self.ack_interrupts),
            ("pfd_scan", &mut self.pfd_scan),
            ("clear_irq_count", &mut self.clear_irq_count),
            ("sched_consistency", &mut self.sched_consistency),
            ("reprogram_timer", &mut self.reprogram_timer),
            ("unlock_static_locks", &mut self.unlock_static_locks),
            ("reactivate_timer_events", &mut self.reactivate_timer_events),
            ("virtqueue_consistency", &mut self.virtqueue_consistency),
        ]
    }

    /// The shared "ReHype mechanisms" block (row 3 of Table I adds this).
    fn with_rehype_shared(mut self) -> Self {
        self.release_heap_locks = true;
        self.hypercall_retry = true;
        self.syscall_retry = true;
        self.batched_retry = true;
        self.nonidem_mitigation = true;
        self.save_fsgs = true;
        self.ack_interrupts = true;
        self.pfd_scan = true;
        self
    }
}

/// The cumulative rungs of Table I (Section V-B), in the paper's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LadderRung {
    /// Discard all execution threads, nothing else. Paper: 0%.
    Basic,
    /// `+ Clear IRQ count`. Paper: 16.0% ± 2.3%.
    ClearIrqCount,
    /// `+ Enhanced with ReHype mechanisms`. Paper: 51.8% ± 3.1%.
    ReHypeMechanisms,
    /// `+ Ensure consistency within scheduling metadata`. Paper: 82.2% ± 2.4%.
    SchedConsistency,
    /// `+ Reprogram hardware timer`. Paper: 95.0% ± 1.4%.
    ReprogramTimer,
    /// `+ Unlock static locks`. Paper: 96.1% ± 1.2%.
    UnlockStaticLocks,
    /// `+ Reactivate recurring timer events` (the paper's full mechanism).
    ReactivateTimerEvents,
    /// `+ Virtqueue ring consistency` (this repo's device extension: the
    /// paper's setups have no virtio devices, so this rung equals the one
    /// below on every paper campaign).
    VirtqueueConsistency,
}

impl LadderRung {
    /// All rungs, bottom to top.
    pub const ALL: [LadderRung; 8] = [
        LadderRung::Basic,
        LadderRung::ClearIrqCount,
        LadderRung::ReHypeMechanisms,
        LadderRung::SchedConsistency,
        LadderRung::ReprogramTimer,
        LadderRung::UnlockStaticLocks,
        LadderRung::ReactivateTimerEvents,
        LadderRung::VirtqueueConsistency,
    ];

    /// The paper's Table I label for this rung.
    pub fn label(self) -> &'static str {
        match self {
            LadderRung::Basic => "Basic",
            LadderRung::ClearIrqCount => "+ Clear IRQ count",
            LadderRung::ReHypeMechanisms => "+ Enhanced with ReHype mechanisms",
            LadderRung::SchedConsistency => "+ Ensure consistency within scheduling metadata",
            LadderRung::ReprogramTimer => "+ Reprogram hardware timer",
            LadderRung::UnlockStaticLocks => "+ Unlock static locks",
            LadderRung::ReactivateTimerEvents => "+ Reactivate recurring timer events",
            LadderRung::VirtqueueConsistency => "+ Virtqueue ring consistency",
        }
    }

    /// The rung's short machine-readable name: the variant identifier, as
    /// `Debug` prints it. Stable across releases — campaign suite manifests
    /// name rungs with these.
    pub fn name(self) -> &'static str {
        match self {
            LadderRung::Basic => "Basic",
            LadderRung::ClearIrqCount => "ClearIrqCount",
            LadderRung::ReHypeMechanisms => "ReHypeMechanisms",
            LadderRung::SchedConsistency => "SchedConsistency",
            LadderRung::ReprogramTimer => "ReprogramTimer",
            LadderRung::UnlockStaticLocks => "UnlockStaticLocks",
            LadderRung::ReactivateTimerEvents => "ReactivateTimerEvents",
            LadderRung::VirtqueueConsistency => "VirtqueueConsistency",
        }
    }

    /// The paper's measured recovery rate for this rung, when reported.
    pub fn paper_rate(self) -> Option<f64> {
        match self {
            LadderRung::Basic => Some(0.0),
            LadderRung::ClearIrqCount => Some(0.160),
            LadderRung::ReHypeMechanisms => Some(0.518),
            LadderRung::SchedConsistency => Some(0.822),
            LadderRung::ReprogramTimer => Some(0.950),
            LadderRung::UnlockStaticLocks => Some(0.961),
            LadderRung::ReactivateTimerEvents => None, // final rate, ~96-97%
            LadderRung::VirtqueueConsistency => None,  // not in the paper
        }
    }

    /// The cumulative enhancement set at this rung.
    pub fn enhancements(self) -> Enhancements {
        let mut e = Enhancements::none();
        let rung = self as usize;
        if rung >= LadderRung::ClearIrqCount as usize {
            e.clear_irq_count = true;
        }
        if rung >= LadderRung::ReHypeMechanisms as usize {
            e = e.with_rehype_shared();
        }
        if rung >= LadderRung::SchedConsistency as usize {
            e.sched_consistency = true;
        }
        if rung >= LadderRung::ReprogramTimer as usize {
            e.reprogram_timer = true;
        }
        if rung >= LadderRung::UnlockStaticLocks as usize {
            e.unlock_static_locks = true;
        }
        if rung >= LadderRung::ReactivateTimerEvents as usize {
            e.reactivate_timer_events = true;
        }
        if rung >= LadderRung::VirtqueueConsistency as usize {
            e.virtqueue_consistency = true;
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_cumulative() {
        let mut prev_count = 0usize;
        for rung in LadderRung::ALL {
            let mut e = rung.enhancements();
            let count = e.flags_mut().iter().filter(|(_, on)| **on).count();
            assert!(count >= prev_count, "{rung:?} lost enhancements");
            prev_count = count;
        }
    }

    #[test]
    fn top_rung_is_full() {
        assert_eq!(
            LadderRung::VirtqueueConsistency.enhancements(),
            Enhancements::full()
        );
    }

    #[test]
    fn paper_top_rung_differs_only_in_virtqueue_consistency() {
        let mut paper_full = LadderRung::ReactivateTimerEvents.enhancements();
        assert!(!paper_full.virtqueue_consistency);
        paper_full.virtqueue_consistency = true;
        assert_eq!(paper_full, Enhancements::full());
    }

    #[test]
    fn basic_rung_is_none() {
        assert_eq!(LadderRung::Basic.enhancements(), Enhancements::none());
    }

    #[test]
    fn rung_names_are_variant_identifiers() {
        for rung in LadderRung::ALL {
            assert_eq!(rung.name(), format!("{rung:?}"));
        }
    }

    #[test]
    fn paper_rates_increase_monotonically() {
        let rates: Vec<f64> = LadderRung::ALL
            .iter()
            .filter_map(|r| r.paper_rate())
            .collect();
        for pair in rates.windows(2) {
            assert!(pair[0] <= pair[1]);
        }
    }

    #[test]
    fn labels_match_paper_rows() {
        assert_eq!(LadderRung::Basic.label(), "Basic");
        assert!(LadderRung::UnlockStaticLocks
            .label()
            .contains("static locks"));
    }
}
