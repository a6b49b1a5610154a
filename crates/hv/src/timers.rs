//! The software timer subsystem.
//!
//! Xen keeps a per-CPU heap of software timer events; the local APIC
//! one-shot timer is programmed to fire when the earliest event is due
//! (Section V-A, "Reprogram hardware timer"). Several events are
//! *recurring*: their handlers re-insert them with the next deadline. A
//! fault after an event is popped but before it is re-armed silently kills
//! the recurrence — NiLiHype's "reactivate recurring timer events"
//! enhancement re-creates any missing ones.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use nlh_sim::{CpuId, SimDuration, SimTime, VcpuId};
use serde::{Deserialize, Serialize};

/// What a timer event does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TimerEventKind {
    /// Global platform-time synchronization (runs under the static `time`
    /// lock). Losing it drifts the platform clock.
    TimeSync,
    /// Increments the watchdog heartbeat counter of a CPU. Losing it makes
    /// the watchdog NMI later declare a false hang.
    WatchdogHeartbeat(CpuId),
    /// The scheduler tick of a CPU (preemption + accounting).
    SchedTick(CpuId),
    /// A domain's periodic virtual timer (guest timekeeping). Losing it
    /// stalls the guest's sleeps.
    DomainTimer(VcpuId),
    /// A one-shot event (identified for bookkeeping only).
    OneShot(u64),
}

/// A pending software timer event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimerEvent {
    /// When the event is due.
    pub deadline: SimTime,
    /// What it does.
    pub kind: TimerEventKind,
    /// Re-arm period for recurring events.
    pub period: Option<SimDuration>,
}

/// Heap wrapper ordered soonest-deadline-first with a deterministic
/// tie-break.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct HeapEntry {
    event: TimerEvent,
    seq: u64,
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so earliest deadline is on top.
        other
            .event
            .deadline
            .cmp(&self.event.deadline)
            .then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Per-CPU software timer heaps.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimerSubsystem {
    heaps: Vec<BinaryHeap<HeapEntry>>,
    next_seq: u64,
}

impl TimerSubsystem {
    /// Empty heaps for `num_cpus` CPUs.
    pub fn new(num_cpus: usize) -> Self {
        TimerSubsystem {
            heaps: (0..num_cpus).map(|_| BinaryHeap::new()).collect(),
            next_seq: 0,
        }
    }

    /// Inserts `event` on `cpu`'s heap.
    pub fn insert(&mut self, cpu: CpuId, event: TimerEvent) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heaps[cpu.index()].push(HeapEntry { event, seq });
    }

    /// The earliest deadline on `cpu`'s heap.
    pub fn peek_deadline(&self, cpu: CpuId) -> Option<SimTime> {
        self.heaps[cpu.index()].peek().map(|e| e.event.deadline)
    }

    /// Pops the earliest event on `cpu`'s heap if it is due at `now`.
    pub fn pop_due(&mut self, cpu: CpuId, now: SimTime) -> Option<TimerEvent> {
        match self.heaps[cpu.index()].peek() {
            Some(top) if top.event.deadline <= now => {
                Some(self.heaps[cpu.index()].pop().unwrap().event)
            }
            _ => None,
        }
    }

    /// Number of pending events on `cpu`'s heap.
    pub fn len(&self, cpu: CpuId) -> usize {
        self.heaps[cpu.index()].len()
    }

    /// Whether `cpu`'s heap is empty.
    pub fn is_empty(&self, cpu: CpuId) -> bool {
        self.heaps[cpu.index()].is_empty()
    }

    /// Total pending events across all CPUs.
    pub fn total_len(&self) -> usize {
        self.heaps.iter().map(|h| h.len()).sum()
    }

    /// Whether an event of `kind` is pending anywhere.
    pub fn contains_kind(&self, kind: TimerEventKind) -> bool {
        self.heaps
            .iter()
            .any(|h| h.iter().any(|e| e.event.kind == kind))
    }

    /// Removes one pending event of `kind`, wherever it is (fault-injection
    /// surface — models heap-node corruption). Returns whether one was
    /// removed.
    pub fn remove_kind(&mut self, kind: TimerEventKind) -> bool {
        for heap in &mut self.heaps {
            if heap.iter().any(|e| e.event.kind == kind) {
                let mut entries: Vec<HeapEntry> = std::mem::take(heap).into_vec();
                let pos = entries.iter().position(|e| e.event.kind == kind).unwrap();
                entries.swap_remove(pos);
                *heap = entries.into_iter().collect();
                return true;
            }
        }
        false
    }

    /// Re-inserts any of `expected` recurring events that are missing,
    /// due one period from `now` — NiLiHype's "reactivate recurring timer
    /// events" enhancement. Returns how many were re-created.
    ///
    /// `expected` pairs each recurring kind with the CPU heap it belongs on
    /// and its period.
    pub fn reactivate_recurring(
        &mut self,
        expected: &[(TimerEventKind, CpuId, SimDuration)],
        now: SimTime,
    ) -> usize {
        let mut recreated = 0;
        for &(kind, cpu, period) in expected {
            if !self.contains_kind(kind) {
                self.insert(
                    cpu,
                    TimerEvent {
                        deadline: now + period,
                        kind,
                        period: Some(period),
                    },
                );
                recreated += 1;
            }
        }
        recreated
    }

    /// Drops all pending events (ReHype's reboot rebuilds timer state from
    /// scratch before recurring events are re-registered).
    pub fn clear(&mut self) {
        for h in &mut self.heaps {
            h.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ms: u64, kind: TimerEventKind) -> TimerEvent {
        TimerEvent {
            deadline: SimTime::from_millis(ms),
            kind,
            period: Some(SimDuration::from_millis(10)),
        }
    }

    #[test]
    fn pops_in_deadline_order() {
        let mut t = TimerSubsystem::new(1);
        t.insert(CpuId(0), ev(30, TimerEventKind::TimeSync));
        t.insert(CpuId(0), ev(10, TimerEventKind::SchedTick(CpuId(0))));
        t.insert(
            CpuId(0),
            ev(20, TimerEventKind::WatchdogHeartbeat(CpuId(0))),
        );
        assert_eq!(t.peek_deadline(CpuId(0)), Some(SimTime::from_millis(10)));
        let now = SimTime::from_millis(100);
        assert_eq!(
            t.pop_due(CpuId(0), now).unwrap().kind,
            TimerEventKind::SchedTick(CpuId(0))
        );
        assert_eq!(
            t.pop_due(CpuId(0), now).unwrap().kind,
            TimerEventKind::WatchdogHeartbeat(CpuId(0))
        );
        assert_eq!(
            t.pop_due(CpuId(0), now).unwrap().kind,
            TimerEventKind::TimeSync
        );
        assert!(t.pop_due(CpuId(0), now).is_none());
    }

    #[test]
    fn pop_due_respects_now() {
        let mut t = TimerSubsystem::new(1);
        t.insert(CpuId(0), ev(50, TimerEventKind::TimeSync));
        assert!(t.pop_due(CpuId(0), SimTime::from_millis(49)).is_none());
        assert!(t.pop_due(CpuId(0), SimTime::from_millis(50)).is_some());
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut t = TimerSubsystem::new(1);
        t.insert(CpuId(0), ev(10, TimerEventKind::OneShot(1)));
        t.insert(CpuId(0), ev(10, TimerEventKind::OneShot(2)));
        let now = SimTime::from_millis(10);
        assert_eq!(
            t.pop_due(CpuId(0), now).unwrap().kind,
            TimerEventKind::OneShot(1)
        );
        assert_eq!(
            t.pop_due(CpuId(0), now).unwrap().kind,
            TimerEventKind::OneShot(2)
        );
    }

    #[test]
    fn heaps_are_per_cpu() {
        let mut t = TimerSubsystem::new(2);
        t.insert(CpuId(0), ev(10, TimerEventKind::SchedTick(CpuId(0))));
        assert_eq!(t.len(CpuId(0)), 1);
        assert_eq!(t.len(CpuId(1)), 0);
        assert!(t.is_empty(CpuId(1)));
        assert!(t.pop_due(CpuId(1), SimTime::from_millis(99)).is_none());
    }

    #[test]
    fn remove_kind_models_lost_event() {
        let mut t = TimerSubsystem::new(2);
        t.insert(
            CpuId(1),
            ev(10, TimerEventKind::WatchdogHeartbeat(CpuId(1))),
        );
        t.insert(CpuId(1), ev(20, TimerEventKind::SchedTick(CpuId(1))));
        assert!(t.remove_kind(TimerEventKind::WatchdogHeartbeat(CpuId(1))));
        assert!(!t.contains_kind(TimerEventKind::WatchdogHeartbeat(CpuId(1))));
        assert!(t.contains_kind(TimerEventKind::SchedTick(CpuId(1))));
        assert!(!t.remove_kind(TimerEventKind::WatchdogHeartbeat(CpuId(1))));
    }

    #[test]
    fn reactivate_restores_missing_only() {
        let mut t = TimerSubsystem::new(2);
        let period = SimDuration::from_millis(100);
        let expected = vec![
            (TimerEventKind::TimeSync, CpuId(0), period),
            (
                TimerEventKind::WatchdogHeartbeat(CpuId(0)),
                CpuId(0),
                period,
            ),
            (
                TimerEventKind::WatchdogHeartbeat(CpuId(1)),
                CpuId(1),
                period,
            ),
        ];
        t.insert(CpuId(0), ev(10, TimerEventKind::TimeSync));
        let n = t.reactivate_recurring(&expected, SimTime::from_millis(500));
        assert_eq!(n, 2, "only the two missing heartbeats were recreated");
        assert_eq!(t.total_len(), 3);
        // Recreated events are due one period out.
        assert_eq!(t.peek_deadline(CpuId(1)), Some(SimTime::from_millis(600)));
    }

    #[test]
    fn reactivate_is_idempotent() {
        let mut t = TimerSubsystem::new(1);
        let period = SimDuration::from_millis(100);
        let expected = vec![(TimerEventKind::TimeSync, CpuId(0), period)];
        assert_eq!(t.reactivate_recurring(&expected, SimTime::ZERO), 1);
        assert_eq!(t.reactivate_recurring(&expected, SimTime::ZERO), 0);
    }

    #[test]
    fn clear_empties_all_heaps() {
        let mut t = TimerSubsystem::new(2);
        t.insert(CpuId(0), ev(1, TimerEventKind::TimeSync));
        t.insert(CpuId(1), ev(2, TimerEventKind::OneShot(9)));
        t.clear();
        assert_eq!(t.total_len(), 0);
    }
}
