//! Interrupt-controller and event-channel state.
//!
//! Three pieces matter to recovery:
//!
//! * **Pending / in-service vectors.** A fault while an interrupt is in
//!   service leaves it un-acknowledged; the local APIC then blocks further
//!   delivery of that vector. Both mechanisms run the shared "acknowledge
//!   pending and in-service interrupts" enhancement (Section III-B).
//! * **I/O APIC redirection registers.** ReHype's reboot re-initializes
//!   them, so ReHype must log writes during normal operation and replay the
//!   log during recovery (Section VII-D) — one of the two logs NiLiHype does
//!   not need.
//! * **Event channels** — the paravirtual notification path from the
//!   hypervisor/PrivVM to guests (network receive, block completion,
//!   virtual timer).

use std::collections::VecDeque;
use std::fmt;

use nlh_sim::{CpuId, DomId, IrqVector};
use serde::{Deserialize, Serialize};

use crate::sched::cpu_bit;

/// Paravirtual event kinds delivered over event channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GuestEventKind {
    /// A network packet arrived (NetBench traffic).
    NetRx {
        /// Sender-side sequence number of the packet.
        seq: u64,
    },
    /// A block I/O request completed (BlkBench traffic).
    BlkComplete {
        /// Request id.
        req: u64,
    },
    /// A block I/O request arrived at the PrivVM's driver domain.
    BlkRequest {
        /// The requesting domain.
        from: DomId,
        /// Request id.
        req: u64,
    },
    /// The domain's periodic virtual timer fired.
    TimerVirq,
    /// A virtio-blk request completed (used-ring entry delivered).
    VirtioBlkDone {
        /// Request id (the descriptor's payload).
        req: u64,
    },
    /// A virtio-net frame arrived in the domain's rx queue.
    VirtioNetRx {
        /// Frame sequence number.
        frame: u64,
    },
    /// A virtio-net tx descriptor was consumed (frame sent).
    VirtioNetTxDone {
        /// Frame sequence number.
        frame: u64,
    },
}

/// Number of distinct hardware vectors the simulation models.
pub const NUM_VECTORS: usize = 4;

/// The timer vector (local APIC timer).
pub const VEC_TIMER: IrqVector = IrqVector(0);
/// The network device vector.
pub const VEC_NET: IrqVector = IrqVector(1);
/// The block device vector.
pub const VEC_BLK: IrqVector = IrqVector(2);
/// The inter-processor-interrupt vector.
pub const VEC_IPI: IrqVector = IrqVector(3);

/// Interrupt-controller and event-channel state.
#[derive(Clone, Serialize, Deserialize)]
pub struct IrqSubsystem {
    /// Per-CPU, per-vector pending bit.
    pending: Vec<[bool; NUM_VECTORS]>,
    /// Per-CPU, per-vector in-service bit (set at dispatch, cleared by EOI).
    in_service: Vec<[bool; NUM_VECTORS]>,
    /// I/O APIC redirection entries (one per vector): which CPU a device
    /// vector is routed to. Reset by ReHype's reboot.
    ioapic_route: [Option<CpuId>; NUM_VECTORS],
    /// Per-domain queues of pending paravirtual events.
    event_channels: Vec<VecDeque<GuestEventKind>>,
    /// Per-CPU wake-input mask (bit `i` for CPU `i`): set by every raise on
    /// CPU `i` and by every route write to or away from it, the changes
    /// that can make a device vector deliverable there. Host-only like
    /// [`crate::sched::Scheduler`]'s mask, and read with it by the batched
    /// loop to re-check the idle CPUs it has jumped ahead.
    touched: u64,
}

// Hand-written so the wake mask stays out of the Debug output (and thus
// out of `Hypervisor::state_digest`).
impl fmt::Debug for IrqSubsystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IrqSubsystem")
            .field("pending", &self.pending)
            .field("in_service", &self.in_service)
            .field("ioapic_route", &self.ioapic_route)
            .field("event_channels", &self.event_channels)
            .finish()
    }
}

impl IrqSubsystem {
    /// Boot-time state: device vectors routed to CPU 0, no pending events.
    pub fn new(num_cpus: usize, num_domains_hint: usize) -> Self {
        let mut ioapic_route = [None; NUM_VECTORS];
        ioapic_route[VEC_NET.index()] = Some(CpuId(0));
        ioapic_route[VEC_BLK.index()] = Some(CpuId(0));
        IrqSubsystem {
            pending: vec![[false; NUM_VECTORS]; num_cpus],
            in_service: vec![[false; NUM_VECTORS]; num_cpus],
            ioapic_route,
            event_channels: vec![VecDeque::new(); num_domains_hint],
            touched: 0,
        }
    }

    /// The wake-input mask (see the field docs): the CPUs touched since
    /// their bit was last cleared with [`IrqSubsystem::clear_touched`].
    #[inline]
    pub(crate) fn touched(&self) -> u64 {
        self.touched
    }

    /// Clears the touched bits of the CPUs in `cpus`.
    #[inline]
    pub(crate) fn clear_touched(&mut self, cpus: u64) {
        self.touched &= !cpus;
    }

    /// Marks every CPU a change of `vec`'s route can reach: its old and
    /// new targets.
    fn touch_route(&mut self, vec: usize, route: Option<CpuId>) {
        self.touched |= self.ioapic_route[vec].map_or(0, cpu_bit) | route.map_or(0, cpu_bit);
    }

    /// Ensures an event-channel queue exists for `dom`.
    pub fn ensure_domain(&mut self, dom: DomId) {
        if self.event_channels.len() <= dom.index() {
            self.event_channels.resize(dom.index() + 1, VecDeque::new());
        }
    }

    /// Marks `vec` pending on `cpu`.
    pub fn raise(&mut self, cpu: CpuId, vec: IrqVector) {
        self.touched |= cpu_bit(cpu);
        self.pending[cpu.index()][vec.index()] = true;
    }

    /// Dispatches `vec` on `cpu`: pending → in-service. Returns whether the
    /// vector could be dispatched (blocked while a previous instance is
    /// still in service — the hardware rule that makes a missing EOI fatal).
    pub fn dispatch(&mut self, cpu: CpuId, vec: IrqVector) -> bool {
        if self.in_service[cpu.index()][vec.index()] {
            return false;
        }
        if !self.pending[cpu.index()][vec.index()] {
            return false;
        }
        self.pending[cpu.index()][vec.index()] = false;
        self.in_service[cpu.index()][vec.index()] = true;
        true
    }

    /// End-of-interrupt for `vec` on `cpu`.
    pub fn eoi(&mut self, cpu: CpuId, vec: IrqVector) {
        self.in_service[cpu.index()][vec.index()] = false;
    }

    /// Whether `vec` is blocked on `cpu` by a missing EOI.
    pub fn is_in_service(&self, cpu: CpuId, vec: IrqVector) -> bool {
        self.in_service[cpu.index()][vec.index()]
    }

    /// Whether `vec` is pending on `cpu`.
    pub fn is_pending(&self, cpu: CpuId, vec: IrqVector) -> bool {
        self.pending[cpu.index()][vec.index()]
    }

    /// The shared recovery enhancement: acknowledge (EOI + clear) every
    /// pending and in-service interrupt everywhere. Returns how many bits
    /// were cleared.
    pub fn ack_all(&mut self) -> usize {
        let mut cleared = 0;
        for cpu in 0..self.pending.len() {
            for v in 0..NUM_VECTORS {
                if self.pending[cpu][v] {
                    self.pending[cpu][v] = false;
                    cleared += 1;
                }
                if self.in_service[cpu][v] {
                    self.in_service[cpu][v] = false;
                    cleared += 1;
                }
            }
        }
        cleared
    }

    /// Reads the I/O APIC route for `vec`.
    pub fn ioapic_route(&self, vec: IrqVector) -> Option<CpuId> {
        self.ioapic_route[vec.index()]
    }

    /// Writes an I/O APIC redirection entry (normal-operation path; ReHype
    /// logs these writes).
    pub fn ioapic_write(&mut self, vec: IrqVector, route: Option<CpuId>) {
        self.touch_route(vec.index(), route);
        self.ioapic_route[vec.index()] = route;
    }

    /// ReHype's reboot re-initializes the I/O APIC: all device routes reset
    /// to the boot default (unrouted).
    pub fn ioapic_reset_to_boot(&mut self) {
        self.ioapic_restore([None; NUM_VECTORS]);
    }

    /// Snapshot of the current routes (what ReHype's write log reconstructs).
    pub fn ioapic_snapshot(&self) -> [Option<CpuId>; NUM_VECTORS] {
        self.ioapic_route
    }

    /// Restores routes from a snapshot (replaying ReHype's write log).
    pub fn ioapic_restore(&mut self, snapshot: [Option<CpuId>; NUM_VECTORS]) {
        for (vec, route) in snapshot.into_iter().enumerate() {
            self.touch_route(vec, route);
        }
        self.ioapic_route = snapshot;
    }

    /// Queues a paravirtual event for `dom`.
    pub fn post_event(&mut self, dom: DomId, ev: GuestEventKind) {
        self.ensure_domain(dom);
        self.event_channels[dom.index()].push_back(ev);
    }

    /// Takes the next pending event for `dom`.
    pub fn take_event(&mut self, dom: DomId) -> Option<GuestEventKind> {
        self.event_channels.get_mut(dom.index())?.pop_front()
    }

    /// Number of queued events for `dom`.
    pub fn pending_events(&self, dom: DomId) -> usize {
        self.event_channels.get(dom.index()).map_or(0, |q| q.len())
    }

    /// Drops all queued events for `dom` (domain destruction).
    pub fn clear_domain(&mut self, dom: DomId) {
        if let Some(q) = self.event_channels.get_mut(dom.index()) {
            q.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sub() -> IrqSubsystem {
        IrqSubsystem::new(2, 2)
    }

    #[test]
    fn dispatch_requires_pending() {
        let mut s = sub();
        assert!(!s.dispatch(CpuId(0), VEC_NET));
        s.raise(CpuId(0), VEC_NET);
        assert!(s.dispatch(CpuId(0), VEC_NET));
        assert!(s.is_in_service(CpuId(0), VEC_NET));
        assert!(!s.is_pending(CpuId(0), VEC_NET));
    }

    #[test]
    fn missing_eoi_blocks_vector() {
        let mut s = sub();
        s.raise(CpuId(0), VEC_NET);
        assert!(s.dispatch(CpuId(0), VEC_NET));
        // Next packet arrives, but without an EOI it cannot be dispatched.
        s.raise(CpuId(0), VEC_NET);
        assert!(!s.dispatch(CpuId(0), VEC_NET));
        s.eoi(CpuId(0), VEC_NET);
        assert!(s.dispatch(CpuId(0), VEC_NET));
    }

    #[test]
    fn ack_all_unblocks_everything() {
        let mut s = sub();
        s.raise(CpuId(0), VEC_NET);
        s.dispatch(CpuId(0), VEC_NET);
        s.raise(CpuId(1), VEC_TIMER);
        let cleared = s.ack_all();
        assert_eq!(cleared, 2);
        assert!(!s.is_in_service(CpuId(0), VEC_NET));
        assert!(!s.is_pending(CpuId(1), VEC_TIMER));
    }

    #[test]
    fn vectors_are_independent_per_cpu() {
        let mut s = sub();
        s.raise(CpuId(0), VEC_BLK);
        assert!(!s.is_pending(CpuId(1), VEC_BLK));
        assert!(!s.dispatch(CpuId(1), VEC_BLK));
    }

    #[test]
    fn ioapic_reset_and_restore() {
        let mut s = sub();
        s.ioapic_write(VEC_NET, Some(CpuId(1)));
        let snap = s.ioapic_snapshot();
        s.ioapic_reset_to_boot();
        assert_eq!(s.ioapic_route(VEC_NET), None);
        s.ioapic_restore(snap);
        assert_eq!(s.ioapic_route(VEC_NET), Some(CpuId(1)));
        assert_eq!(s.ioapic_route(VEC_BLK), Some(CpuId(0)), "boot default kept");
    }

    #[test]
    fn raises_and_route_writes_mark_their_cpus() {
        let mut s = IrqSubsystem::new(4, 1);
        s.raise(CpuId(2), VEC_BLK);
        assert_eq!(s.touched(), 0b100);
        s.clear_touched(u64::MAX);
        // Both ends of a rewrite: the old target (boot default CPU 0) and
        // the new one.
        s.ioapic_write(VEC_NET, Some(CpuId(3)));
        assert_eq!(s.touched(), 0b1001);
        s.clear_touched(0b1000);
        assert_eq!(s.touched(), 0b1);
        // The digest's view ignores the mask.
        let mut t = s.clone();
        t.clear_touched(u64::MAX);
        assert_eq!(format!("{s:?}"), format!("{t:?}"));
    }

    #[test]
    fn event_channels_fifo_per_domain() {
        let mut s = sub();
        s.post_event(DomId(1), GuestEventKind::NetRx { seq: 1 });
        s.post_event(DomId(1), GuestEventKind::NetRx { seq: 2 });
        s.post_event(DomId(0), GuestEventKind::TimerVirq);
        assert_eq!(s.pending_events(DomId(1)), 2);
        assert_eq!(
            s.take_event(DomId(1)),
            Some(GuestEventKind::NetRx { seq: 1 })
        );
        assert_eq!(
            s.take_event(DomId(1)),
            Some(GuestEventKind::NetRx { seq: 2 })
        );
        assert_eq!(s.take_event(DomId(1)), None);
        assert_eq!(s.take_event(DomId(0)), Some(GuestEventKind::TimerVirq));
    }

    #[test]
    fn event_channels_grow_on_demand() {
        let mut s = sub();
        s.post_event(DomId(5), GuestEventKind::BlkComplete { req: 7 });
        assert_eq!(s.pending_events(DomId(5)), 1);
        s.clear_domain(DomId(5));
        assert_eq!(s.pending_events(DomId(5)), 0);
    }
}
