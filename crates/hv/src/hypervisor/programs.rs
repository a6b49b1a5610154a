//! Handler-program builders: the micro-op sequence each hypervisor entry
//! (interrupt, hypercall, forwarded syscall, scheduler switch, virtio
//! notify) executes, plus the request binding that fixes which concrete
//! pages a hypercall touches. Builders draw their buffers from the per-CPU
//! program pools, so steady-state stepping allocates nothing.

use nlh_sim::{CpuId, DomId, IrqVector, PageNum, Pcg64, VcpuId};

use super::{CpuMode, Frame, Hypervisor, StepOutcome};
use crate::domain::{Domain, DomainState};
use crate::hypercalls::{EntryCause, HcRequest, MicroOp, PendingKind, PendingRequest, Program};
use crate::interrupts::{GuestEventKind, VEC_NET};
use crate::locks::StaticLock;
use crate::timers::TimerEventKind;

/// The forwarded-syscall handler executes the same four micro-ops on every
/// entry, so all syscall programs share this precompiled template (zero
/// build cost; see [`Program::from_static`]).
static SYSCALL_OPS: [MicroOp; 4] = [
    MicroOp::AssertNotInIrq,
    MicroOp::Compute,
    MicroOp::Compute,
    MicroOp::DeliverSyscall,
];

/// Precompiled superop fusion table for [`SYSCALL_OPS`] (what
/// `compile_runs` would produce; checked by a debug assertion in
/// [`Program::from_static`]).
static SYSCALL_RUNS: [u16; 4] = [0, 2, 1, 0];

impl Hypervisor {
    pub(super) fn start_request(&mut self, cpu: CpuId, vcpu: VcpuId, kind: PendingKind) {
        let dom_id = self.domain_of(vcpu);
        let bindings = match &kind {
            PendingKind::Hypercall(req) => self.bind_request(dom_id, req),
            PendingKind::Syscall => Vec::new(),
        };
        self.domains[dom_id.index()].pending = Some(PendingRequest {
            kind,
            bindings,
            completed_subcalls: 0,
            will_retry: false,
        });
        let prog = self.build_pending_program(cpu, vcpu);
        self.push_frame(cpu, prog);
    }

    pub(super) fn push_frame(&mut self, cpu: CpuId, program: Program) {
        self.stacks[cpu.index()].push(Frame { program, pc: 0 });
        self.cpu_mode[cpu.index()] = CpuMode::Hv;
    }

    // ------------------------------------------------------------------
    // Request binding: fix the concrete pages a request touches.
    // ------------------------------------------------------------------

    fn bind_request(&mut self, dom: DomId, req: &HcRequest) -> Vec<Vec<PageNum>> {
        match req.multicall_calls() {
            Some(calls) => {
                let mut out = self.take_binding_set();
                for c in calls {
                    // A nested multicall (workloads never build one) binds
                    // all its sub-calls and keeps the first's pages — same
                    // RNG draws and same flattening as always.
                    let b = if c.multicall_calls().is_some() {
                        let mut inner = self.bind_request(dom, c);
                        let first = if inner.is_empty() {
                            self.take_binding_buf()
                        } else {
                            inner.remove(0)
                        };
                        self.recycle_bindings(inner);
                        first
                    } else {
                        self.bind_simple(dom, c)
                    };
                    out.push(b);
                }
                out
            }
            None => {
                // Requests that bind no pages (SchedBlock, XenVersion,
                // console writes, timers, event sends — the steady-state
                // bulk) get an empty binding list instead of a one-element
                // list holding an empty set: every consumer reads bindings
                // through `get(..)` with an empty-slice default, and the
                // empty list costs no allocation on the hot path.
                let b = self.bind_simple(dom, req);
                if b.is_empty() {
                    self.binding_pool.give(b, Self::BINDING_POOL_CAP);
                    Vec::new()
                } else {
                    let mut out = self.take_binding_set();
                    out.push(b);
                    out
                }
            }
        }
    }

    fn bind_simple(&mut self, dom: DomId, req: &HcRequest) -> Vec<PageNum> {
        let mut out = self.take_binding_buf();
        let frames = self.config.num_pages();
        let Hypervisor {
            domains,
            rng,
            page_scratch,
            page_marks,
            ..
        } = self;
        let d = &domains[dom.index()];
        let n = match req {
            HcRequest::PinPages(n) | HcRequest::MemoryDecrease(n) => {
                page_marks.unpinned_into(
                    frames,
                    &d.owned_pages,
                    &d.pinned_pages,
                    &mut page_scratch.0,
                );
                *n
            }
            HcRequest::UnpinPages(n) => {
                page_scratch.0.extend_from_slice(&d.pinned_pages);
                *n
            }
            HcRequest::GrantMap { from } => {
                page_scratch
                    .0
                    .extend_from_slice(&domains[from.index()].owned_pages);
                1
            }
            HcRequest::BlockIo { .. } => {
                // A blkfront request carries up to 11 data segments, each
                // of which is granted to the driver domain.
                page_marks.unpinned_into(
                    frames,
                    &d.owned_pages,
                    &d.pinned_pages,
                    &mut page_scratch.0,
                );
                11
            }
            _ => return out,
        };
        pick_n_into(rng, &mut page_scratch.0, n, &mut out);
        out
    }

    /// Buffers retained in each binding free list (matches [`POOL_CAP`]'s
    /// rationale: bound idle memory, never a steady-state allocation —
    /// at most one request per vCPU is in flight, and vCPU counts beyond
    /// the cap only cost a fallback allocation, not correctness).
    const BINDING_POOL_CAP: usize = 32;

    fn take_binding_buf(&mut self) -> Vec<PageNum> {
        self.binding_pool.take()
    }

    fn take_binding_set(&mut self) -> Vec<Vec<PageNum>> {
        self.binding_set_pool.take()
    }

    /// Recycles a retired request's binding storage (outer list and every
    /// page list) back into the free lists.
    pub(super) fn recycle_bindings(&mut self, mut bindings: Vec<Vec<PageNum>>) {
        while let Some(b) = bindings.pop() {
            self.binding_pool.give(b, Self::BINDING_POOL_CAP);
        }
        self.binding_set_pool.give(bindings, Self::BINDING_POOL_CAP);
    }

    // ------------------------------------------------------------------
    // Program builders
    // ------------------------------------------------------------------

    pub(super) fn build_timer_interrupt(&mut self, cpu: CpuId) -> Program {
        use MicroOp::*;
        let i = cpu.index();
        let now = self.cpu_now[i];
        let (mut ops, runs) = self.take_buf(cpu);
        ops.push(EnterIrq);
        ops.push(Acquire(self.timer_locks[i]));

        // Collect due events (without popping: pops happen as micro-ops).
        // We pop due events into a reusable scratch list and re-insert them
        // so the micro-ops can pop them again during execution.
        let mut due = std::mem::take(&mut self.timer_scratch.0);
        due.clear();
        while let Some(ev) = self.timers.pop_due(cpu, now) {
            due.push(ev);
        }
        for ev in &due {
            self.timers.insert(cpu, *ev);
        }

        let mut sched_tick = false;
        for ev in &due {
            ops.push(PopTimerEvent(ev.kind));
            match ev.kind {
                TimerEventKind::TimeSync => {
                    ops.push(Acquire(StaticLock::Time.id()));
                    ops.push(Compute);
                    ops.push(TimeSyncApply);
                    ops.push(Release(StaticLock::Time.id()));
                }
                TimerEventKind::WatchdogHeartbeat(_) => {
                    ops.push(HeartbeatIncrement);
                }
                TimerEventKind::SchedTick(_) => {
                    sched_tick = true;
                    ops.push(Compute); // tick accounting
                }
                TimerEventKind::DomainTimer(v) => {
                    let dom = self.domain_of(v);
                    ops.push(PostGuestEvent(dom, GuestEventKind::TimerVirq));
                    ops.push(UnblockVcpu(v));
                }
                TimerEventKind::OneShot(_) => ops.push(Compute),
            }
            if let Some(period) = ev.period {
                ops.push(RearmTimerEvent(ev.kind, period));
            }
        }

        ops.push(Release(self.timer_locks[i]));
        ops.push(ProgramApic);

        if sched_tick && self.sched.credit_mode() {
            // Credit mode: the tick softirq body is the credit-accounting /
            // load-balancing pass under the runqueue lock. The preemption
            // switch (if the tick flags one) and any proposed migration run
            // as their own abandonable Scheduler programs once the IRQ
            // retires — see `step_run`.
            ops.push(Acquire(self.runq_locks[i]));
            ops.push(SchedConsistencyAssert);
            ops.push(SchedCreditTick);
            ops.push(Release(self.runq_locks[i]));
        } else if sched_tick {
            // The scheduler runs off the tick softirq: deschedule the
            // current vCPU, do the credit accounting and runqueue
            // manipulation, then schedule the next one. The paper's
            // torn-metadata window spans that whole region — in Xen the
            // scheduler is by far the largest consumer of tick time on a
            // CPU with a running vCPU.
            let prev = self.sched.current(cpu);
            // Round-robin: a queued runnable vCPU preempts the current one
            // (with 1:1 pinning the queue is empty and `prev` re-runs; with
            // shared CPUs — the paper's future-work configuration — the
            // sharing vCPUs alternate each tick).
            let next = self.sched.peek_next(cpu).or(prev);
            ops.push(Acquire(self.runq_locks[i]));
            ops.push(SchedConsistencyAssert);
            ops.push(Compute);
            if let Some(p) = prev {
                ops.push(CsSetPercpuCurrent(None));
                ops.push(CsSetRunningOn(p, None));
                ops.push(CsSetIsCurrent(p, false));
                ops.push(EnqueueVcpu(p));
            }
            if prev.is_some() || next.is_some() {
                // Credit accounting, load balancing, runqueue surgery: a
                // long window in which the metadata is torn.
                for _ in 0..24 {
                    ops.push(Compute);
                }
            } else {
                ops.push(Compute); // idle CPU: trivial tick accounting
            }
            if let Some(nx) = next {
                ops.push(DequeueVcpu(nx));
                ops.push(CsSetPercpuCurrent(Some(nx)));
                ops.push(CsSetRunningOn(nx, Some(cpu)));
                ops.push(CsSetIsCurrent(nx, true));
            }
            ops.push(Compute); // context-switch tail
            ops.push(Release(self.runq_locks[i]));
        }

        // Exit path: stats, softirq bookkeeping, trace buffers, return —
        // interrupt nesting is the only state still dirty here.
        for _ in 0..6 {
            ops.push(Compute);
        }
        ops.push(Eoi(crate::interrupts::VEC_TIMER));
        ops.push(Compute);
        ops.push(LeaveIrq);
        self.timer_scratch.0 = due;
        Program::new(EntryCause::TimerInterrupt, ops, runs)
    }

    pub(super) fn build_net_interrupt(&mut self, cpu: CpuId) -> Program {
        use MicroOp::*;
        let (mut ops, runs) = self.take_buf(cpu);
        ops.push(EnterIrq);
        ops.push(Compute);
        let (target, backlog) = match &self.net {
            Some(net) => {
                let delivered = self.net_delivered_count();
                (Some(net.target), net.seq.saturating_sub(delivered))
            }
            None => (None, 0),
        };
        if let Some(dom) = target {
            let delivered = self.net_delivered_count();
            for k in 0..backlog {
                ops.push(PostGuestEvent(
                    dom,
                    GuestEventKind::NetRx {
                        seq: delivered + k + 1,
                    },
                ));
            }
            let v = self.domains[dom.index()].vcpu;
            ops.push(UnblockVcpu(v));
        }
        ops.push(Eoi(VEC_NET));
        ops.push(LeaveIrq);
        Program::new(EntryCause::DeviceInterrupt(VEC_NET), ops, runs)
    }

    /// Packets delivered (or dropped) so far — the high-water mark of NetRx
    /// sequence numbers handed to the guest.
    fn net_delivered_count(&self) -> u64 {
        self.net.as_ref().map(|n| n.delivered).unwrap_or(0)
    }

    /// A guest wrote the queue-notify MMIO register of its virtio device:
    /// publish `payload` on `queue` (the guest-side ring write happens in
    /// guest memory before the write traps) and enter the hypervisor's
    /// virtio MMIO handler to run the device model.
    pub(super) fn virtio_kick(
        &mut self,
        cpu: CpuId,
        vcpu: VcpuId,
        queue: u8,
        payload: u64,
    ) -> StepOutcome {
        let dom_id = self.domain_of(vcpu);
        let dev = match self.virtio.device_for_dom(dom_id) {
            Some(d) => d,
            None => {
                // No device behind the MMIO address: the write is ignored.
                self.advance(cpu, self.tuning.idle_quantum);
                return StepOutcome::Idle;
            }
        };
        let q = (queue as usize).min(nlh_virtio::Q_TX);
        // A full ring loses the kick (real virtio drivers never notify
        // without a free descriptor; workloads bound their in-flight ops).
        let _ = self.virtio.devices[dev].queues[q].submit(payload);
        let prog = self.build_virtio_notify(cpu, vcpu, dev, q);
        self.push_frame(cpu, prog);
        StepOutcome::HvOp
    }

    /// The virtio MMIO (queue-notify) handler: pop the descriptor, run the
    /// device model, log and publish the completion, raise the completion
    /// interrupt — and, for a forwarded net frame, publish the peer port's
    /// rx fill. Abandoning this program mid-flight is exactly what leaves a
    /// descriptor stuck avail / in-flight / logged-unpublished /
    /// used-undelivered for the ring-consistency repair to find.
    fn build_virtio_notify(&mut self, cpu: CpuId, vcpu: VcpuId, dev: usize, q: usize) -> Program {
        use MicroOp::*;
        let d8 = dev as u8;
        let q8 = q as u8;
        let (mut ops, runs) = self.take_buf(cpu);
        ops.push(AssertNotInIrq);
        ops.push(Compute); // MMIO decode + virtqueue lookup
        ops.push(VqPopAvail { dev: d8, q: q8 });
        ops.push(Compute); // device-model work (grant copy / frame switch)
        ops.push(VqDeviceWork { dev: d8, q: q8 });
        ops.push(VqLogComplete { dev: d8, q: q8 });
        ops.push(Compute);
        ops.push(VqPushUsed { dev: d8, q: q8 });
        ops.push(VqRaiseIrq { dev: d8 });
        let is_net_tx = q == nlh_virtio::Q_TX
            && self.virtio.devices[dev].kind == nlh_virtio::VirtioDeviceKind::Net;
        if is_net_tx {
            // The vswitch filled the peer's rx descriptor during
            // VqDeviceWork; publish that fill and interrupt the peer.
            let peer = self.virtio.peer_of(dev) as u8;
            let rx = nlh_virtio::Q_RX as u8;
            ops.push(VqLogComplete { dev: peer, q: rx });
            ops.push(VqPushUsed { dev: peer, q: rx });
            ops.push(VqRaiseIrq { dev: peer });
        }
        ops.push(Compute); // return-to-guest path
        Program::new(EntryCause::VirtioMmio(vcpu), ops, runs)
    }

    /// The virtio completion-interrupt handler for `vec`: drain every
    /// same-vector device's used rings into guest events and wake the
    /// owners.
    pub(super) fn build_virtio_interrupt(&mut self, cpu: CpuId, vec: IrqVector) -> Program {
        use MicroOp::*;
        let (mut ops, runs) = self.take_buf(cpu);
        ops.push(EnterIrq);
        ops.push(Compute);
        ops.push(VqDeliverUsed(vec));
        ops.push(Eoi(vec));
        ops.push(Compute);
        ops.push(LeaveIrq);
        Program::new(EntryCause::DeviceInterrupt(vec), ops, runs)
    }

    pub(super) fn build_wakeup_switch(&mut self, cpu: CpuId, v: VcpuId) -> Program {
        use MicroOp::*;
        let (mut ops, runs) = self.take_buf(cpu);
        ops.extend_from_slice(&[
            AssertNotInIrq,
            Acquire(self.runq_locks[cpu.index()]),
            SchedConsistencyAssert,
            Compute,
            DequeueVcpu(v),
            CsSetPercpuCurrent(Some(v)),
            CsSetRunningOn(v, Some(cpu)),
            CsSetIsCurrent(v, true),
            Compute,
            Release(self.runq_locks[cpu.index()]),
        ]);
        Program::new(EntryCause::Scheduler, ops, runs)
    }

    /// The credit-mode preemption context switch: deschedule the current
    /// vCPU and switch in the highest-credit queued one. Returns `None`
    /// when the pick is gone or unchanged by the time the flag is consumed.
    pub(super) fn build_credit_switch(&mut self, cpu: CpuId) -> Option<Program> {
        let prev = self.sched.current(cpu);
        let next = self.sched.cached_pick(cpu)?;
        if Some(next) == prev {
            return None;
        }
        let dom = self.domain_of(next);
        if !self.domains[dom.index()].is_active() {
            return None;
        }
        use MicroOp::*;
        let (mut ops, runs) = self.take_buf(cpu);
        ops.push(AssertNotInIrq);
        ops.push(Acquire(self.runq_locks[cpu.index()]));
        ops.push(SchedConsistencyAssert);
        ops.push(Compute);
        if let Some(p) = prev {
            ops.push(CsSetPercpuCurrent(None));
            ops.push(CsSetRunningOn(p, None));
            ops.push(CsSetIsCurrent(p, false));
            ops.push(EnqueueVcpu(p));
        }
        // Credit bookkeeping between deschedule and switch-in: the window
        // where a fault leaves the CPU with no current vCPU and `prev`
        // possibly off every queue.
        for _ in 0..4 {
            ops.push(Compute);
        }
        ops.push(DequeueVcpu(next));
        ops.push(CsSetPercpuCurrent(Some(next)));
        ops.push(CsSetRunningOn(next, Some(cpu)));
        ops.push(CsSetIsCurrent(next, true));
        ops.push(Compute);
        ops.push(Release(self.runq_locks[cpu.index()]));
        Some(Program::new(EntryCause::Scheduler, ops, runs))
    }

    /// The load-balancing migration program: move vCPU `v` from CPU `from`
    /// to CPU `to` under both runqueue locks. Enqueue-on-destination runs
    /// *before* dequeue-from-source, so a fault between the two freezes a
    /// double-queued vCPU; a fault before `SchedSetAssigned` freezes a torn
    /// migration (queued on a CPU that is not its home). Both are exactly
    /// the residues the scheduler-consistency rung must clear. Returns
    /// `None` when the proposal went stale before the program could build.
    pub(super) fn build_migrate(
        &mut self,
        cpu: CpuId,
        v: VcpuId,
        from: CpuId,
        to: CpuId,
    ) -> Option<Program> {
        let info = self.sched.vcpu(v);
        if info.state != crate::sched::RunState::Runnable
            || info.is_current
            || info.pinned_to != from
        {
            return None;
        }
        use MicroOp::*;
        let (mut ops, runs) = self.take_buf(cpu);
        ops.extend_from_slice(&[
            AssertNotInIrq,
            Acquire(self.runq_locks[from.index()]),
            Acquire(self.runq_locks[to.index()]),
            SchedConsistencyAssert,
            Compute,
            SchedMigrateEnqueue { v, to },
            Compute,
            SchedMigrateDequeue { v, from },
            SchedSetAssigned { v, to },
            Compute,
            Release(self.runq_locks[to.index()]),
            Release(self.runq_locks[from.index()]),
        ]);
        Some(Program::new(EntryCause::Scheduler, ops, runs))
    }

    /// Builds (or rebuilds, on retry) the program for a vCPU's pending
    /// request. The pending request is moved out of the domain for the
    /// duration of the build (no clone) and restored before returning.
    pub(super) fn build_pending_program(&mut self, cpu: CpuId, vcpu: VcpuId) -> Program {
        let dom_id = self.domain_of(vcpu);
        let pending = self.domains[dom_id.index()]
            .pending
            .take()
            .expect("pending request exists");
        let prog = match &pending.kind {
            PendingKind::Syscall => {
                // Delivery is the final op: in the real hypervisor the
                // exit path after the result is committed is not a window
                // in which abandonment loses the request. The op sequence
                // is identical on every entry, so it is a static template.
                Program::from_static(EntryCause::Syscall(vcpu), &SYSCALL_OPS, &SYSCALL_RUNS)
            }
            PendingKind::Hypercall(req) => {
                let (mut ops, runs) = self.take_buf(cpu);
                ops.push(MicroOp::AssertNotInIrq);
                ops.push(MicroOp::Compute);
                let logged = self.emit_request_ops(
                    cpu,
                    vcpu,
                    req,
                    &pending.bindings,
                    pending.completed_subcalls,
                    &mut ops,
                );
                // The exit path runs the SCHEDULE softirq before returning
                // to the guest: deschedule, account, re-pick. This is a
                // torn-metadata window on every hypercall exit (SchedBlock
                // carries its own deschedule instead).
                if !matches!(req, HcRequest::SchedBlock) {
                    ops.push(MicroOp::Acquire(self.runq_locks[cpu.index()]));
                    ops.push(MicroOp::SchedConsistencyAssert);
                    ops.push(MicroOp::CsSetPercpuCurrent(None));
                    ops.push(MicroOp::CsSetRunningOn(vcpu, None));
                    ops.push(MicroOp::CsSetIsCurrent(vcpu, false));
                    for _ in 0..10 {
                        ops.push(MicroOp::Compute);
                    }
                    ops.push(MicroOp::CsSetPercpuCurrent(Some(vcpu)));
                    ops.push(MicroOp::CsSetRunningOn(vcpu, Some(cpu)));
                    ops.push(MicroOp::CsSetIsCurrent(vcpu, true));
                    ops.push(MicroOp::Release(self.runq_locks[cpu.index()]));
                }
                ops.push(MicroOp::CommitHypercall);
                let mut prog = Program::new(EntryCause::Hypercall(vcpu), ops, runs);
                prog.logged = logged;
                prog
            }
        };
        self.domains[dom_id.index()].pending = Some(pending);
        prog
    }

    /// Emits the body ops for `req` against its bound pages (`bindings`,
    /// indexed per sub-call for multicalls; `completed_subcalls` sub-calls
    /// are skipped on retry). Returns whether side effects are undo-logged.
    fn emit_request_ops(
        &mut self,
        cpu: CpuId,
        vcpu: VcpuId,
        req: &HcRequest,
        bindings: &[Vec<PageNum>],
        completed_subcalls: usize,
        ops: &mut Vec<MicroOp>,
    ) -> bool {
        use MicroOp::*;
        let dom_id = self.domain_of(vcpu);
        let binding =
            |idx: usize| -> &[PageNum] { bindings.get(idx).map(|v| v.as_slice()).unwrap_or(&[]) };
        match req {
            HcRequest::PinPages(_) => {
                let pages = binding(0);
                let reorder = self.support.reorder_nonidem;
                let log = self.support.undo_logging;
                // The counter update logs its undo atomically, but the
                // validation bit is logged by a separate write — the
                // one-op gap between the two is the residual vulnerability
                // window the paper could not fully close (Section IV).
                if reorder {
                    // Validate everything first; side effects packed at the
                    // end (window minimized).
                    for _ in pages {
                        ops.push(Compute);
                        ops.push(Compute);
                    }
                    for &p in pages {
                        ops.push(IncRef(p));
                        ops.push(SetValidated(p, true));
                        if log {
                            ops.push(LogUndo(crate::hypercalls::UndoEntry::SetValidated(
                                p, false,
                            )));
                        }
                    }
                } else {
                    for &p in pages {
                        ops.push(IncRef(p));
                        ops.push(Compute);
                        ops.push(Compute);
                        ops.push(SetValidated(p, true));
                        if log {
                            ops.push(LogUndo(crate::hypercalls::UndoEntry::SetValidated(
                                p, false,
                            )));
                        }
                    }
                }
                log
            }
            HcRequest::UnpinPages(_) => {
                let pages = binding(0);
                let log = self.support.undo_logging;
                // As in the pin path, the validation-bit change is logged
                // by a separate write with a one-op vulnerability gap.
                if self.support.reorder_nonidem {
                    for _ in pages {
                        ops.push(Compute);
                    }
                    for &p in pages {
                        ops.push(SetValidated(p, false));
                        if log {
                            ops.push(LogUndo(crate::hypercalls::UndoEntry::SetValidated(p, true)));
                        }
                        ops.push(DecRef(p));
                    }
                } else {
                    for &p in pages {
                        ops.push(SetValidated(p, false));
                        if log {
                            ops.push(LogUndo(crate::hypercalls::UndoEntry::SetValidated(p, true)));
                        }
                        ops.push(Compute);
                        ops.push(DecRef(p));
                    }
                }
                log
            }
            HcRequest::MemoryIncrease(n) => {
                ops.push(Acquire(StaticLock::PageAlloc.id()));
                for _ in 0..*n {
                    ops.push(AllocPage(dom_id));
                    ops.push(Compute);
                }
                ops.push(Release(StaticLock::PageAlloc.id()));
                self.support.undo_logging
            }
            HcRequest::MemoryDecrease(_) => {
                let pages = binding(0);
                ops.push(Acquire(StaticLock::PageAlloc.id()));
                if self.support.reorder_nonidem {
                    for _ in pages {
                        ops.push(Compute);
                    }
                    for &p in pages {
                        ops.push(FreePage(dom_id, p));
                    }
                } else {
                    for &p in pages {
                        ops.push(FreePage(dom_id, p));
                        ops.push(Compute);
                    }
                }
                ops.push(Release(StaticLock::PageAlloc.id()));
                false // frees cannot be undone
            }
            HcRequest::GrantMap { .. } => {
                // A transient grant map-copy-unmap. Deliberately
                // un-enhanced (Section IV: "likely to be several
                // infrequently-used non-idempotent hypercall handlers that
                // we have not properly enhanced"): a fault between the
                // IncRef and the DecRef leaks a reference on the granting
                // domain's page with no undo log to repair it.
                let pages = binding(0);
                ops.push(Acquire(StaticLock::Grant.id()));
                ops.push(Compute);
                for &p in pages {
                    ops.push(IncRef(p));
                    ops.push(Compute);
                    ops.push(Compute);
                    ops.push(DecRef(p));
                }
                ops.push(Release(StaticLock::Grant.id()));
                false
            }
            HcRequest::EventSend { to, event } => {
                ops.push(Compute);
                ops.push(PostGuestEvent(*to, *event));
                let tv = self.domains[to.index()].vcpu;
                ops.push(UnblockVcpu(tv));
                false
            }
            HcRequest::ConsoleWrite => {
                ops.push(Acquire(StaticLock::Console.id()));
                ops.push(Compute);
                ops.push(Compute);
                ops.push(Release(StaticLock::Console.id()));
                false
            }
            HcRequest::SetTimer => {
                ops.push(Compute);
                ops.push(Compute);
                false
            }
            HcRequest::XenVersion => {
                ops.push(Compute);
                false
            }
            HcRequest::SchedBlock => {
                ops.push(Acquire(self.runq_locks[cpu.index()]));
                ops.push(CsSetPercpuCurrent(None));
                ops.push(CsSetRunningOn(vcpu, None));
                ops.push(CsSetIsCurrent(vcpu, false));
                ops.push(Release(self.runq_locks[cpu.index()]));
                false
            }
            HcRequest::NetReply(seq) => {
                ops.push(Compute);
                ops.push(RecordNetReply(*seq));
                false
            }
            HcRequest::BlockIo { req } => {
                // The data buffer is granted to the driver domain for the
                // duration of the request: a reference is taken and dropped
                // around the notification. These are the hot non-idempotent
                // updates BlkBench stresses — they are covered by the undo
                // logging, which is why BlkBench shows the highest
                // normal-operation overhead in Figure 3.
                let pages = binding(0);
                ops.push(Compute);
                for &p in pages {
                    ops.push(IncRef(p));
                }
                ops.push(Compute);
                ops.push(PostGuestEvent(
                    DomId::PRIV,
                    GuestEventKind::BlkRequest {
                        from: dom_id,
                        req: *req,
                    },
                ));
                let pv = self.domains[DomId::PRIV.index()].vcpu;
                ops.push(UnblockVcpu(pv));
                for &p in pages {
                    ops.push(DecRef(p));
                }
                self.support.undo_logging
            }
            HcRequest::PhysdevRoute(vec, cpu_target) => {
                ops.push(Compute);
                ops.push(IoapicWrite(*vec, Some(*cpu_target)));
                false
            }
            HcRequest::DomctlCreate => {
                let new_id = self.reserve_building_domain();
                ops.push(Acquire(StaticLock::Domctl.id()));
                ops.push(Compute);
                ops.push(Compute);
                if let Some(id) = new_id {
                    ops.push(Acquire(StaticLock::PageAlloc.id()));
                    ops.push(BuildDomain(id));
                    ops.push(Release(StaticLock::PageAlloc.id()));
                    ops.push(Compute);
                    ops.push(Compute);
                    ops.push(FinalizeDomain(id));
                }
                ops.push(Release(StaticLock::Domctl.id()));
                false
            }
            HcRequest::DomctlDestroy(target) => {
                ops.push(Acquire(StaticLock::Domctl.id()));
                ops.push(Compute);
                ops.push(TeardownDomain(*target));
                ops.push(Release(StaticLock::Domctl.id()));
                false
            }
            HcRequest::Multicall(_) | HcRequest::FixedMulticall(_) => {
                let calls = req
                    .multicall_calls()
                    .expect("multicall variants expand to sub-calls");
                let mut any_logged = false;
                for (idx, c) in calls.iter().enumerate() {
                    if idx < completed_subcalls {
                        continue;
                    }
                    // The sub-call sees its own binding set at index 0,
                    // borrowed straight from the parent (no clones).
                    let sub_bindings: &[Vec<PageNum>] = match bindings.get(idx) {
                        Some(b) => std::slice::from_ref(b),
                        None => &[],
                    };
                    any_logged |= self.emit_request_ops(cpu, vcpu, c, sub_bindings, 0, ops);
                    if self.support.batched_completion_log {
                        ops.push(LogCompletion(idx));
                    }
                }
                any_logged
            }
        }
    }

    /// Reserves (or finds the existing) domain shell for an in-progress
    /// `domctl` create; pops the next specification from the queue.
    fn reserve_building_domain(&mut self) -> Option<DomId> {
        // A retried create reuses the shell it already reserved.
        if let Some(d) = self
            .domains
            .iter()
            .find(|d| d.state == DomainState::Building)
        {
            return Some(d.id);
        }
        let spec = self.create_queue.pop_front()?;
        let id = DomId::from_index(self.domains.len());
        let vcpu = VcpuId::from_index(self.vcpu_dom.len());
        let mut dom = Domain::new(id, spec.kind, vcpu, spec.pinned_cpu);
        dom.target_pages = spec.pages;
        dom.program = Some(spec.program);
        self.vcpu_dom.push(id);
        self.domains.push(dom);
        Some(id)
    }

    /// An empty micro-op buffer and its paired superop-table buffer for a
    /// handler builder on `cpu`, from the CPU's program pool.
    fn take_buf(&mut self, cpu: CpuId) -> (Vec<MicroOp>, Vec<u16>) {
        self.pools[cpu.index()].take()
    }
}

/// Moves up to `n` distinct elements of the candidate list `cands` into
/// `out` (all of them, in order, when there are no more than `n`), leaving
/// `cands` empty. A larger list is Fisher–Yates shuffled in place and its
/// first `n` taken: the swaps depend only on the RNG, so this equals
/// shuffling the index list `0..len` and reading `cands` through its
/// first `n` entries, with the same draws.
fn pick_n_into(rng: &mut Pcg64, cands: &mut Vec<PageNum>, n: usize, out: &mut Vec<PageNum>) {
    if n > 0 {
        if cands.len() > n {
            rng.shuffle(cands);
            cands.truncate(n);
        }
        out.extend_from_slice(cands);
    }
    cands.clear();
}

/// A page bitmap shared by every domain's binds and all-zero between
/// them. No per-domain state and nothing simulated: `state_digest`
/// excludes it.
#[derive(Debug, Default)]
pub(super) struct PageMarks {
    words: Vec<u64>,
}

impl Clone for PageMarks {
    /// The marks are all-zero between binds, so a clone starts empty and
    /// sizes itself on first use: a checkout copies none of it.
    fn clone(&self) -> Self {
        PageMarks::default()
    }
}

impl PageMarks {
    /// Appends to `out` the pages of `owned` that are not in `pinned`, in
    /// `owned` order: the result of filtering `owned` through
    /// `pinned.contains`, in O(owned + pinned) instead of
    /// O(owned × pinned). Marks the pinned pages, filters, then clears
    /// only the words it marked. `frames`, the machine's page count, sizes
    /// the bitmap on first use, so steady-state binds never grow it.
    fn unpinned_into(
        &mut self,
        frames: usize,
        owned: &[PageNum],
        pinned: &[PageNum],
        out: &mut Vec<PageNum>,
    ) {
        for p in pinned {
            let w = p.index() / 64;
            if w >= self.words.len() {
                self.words.resize((w + 1).max(frames.div_ceil(64)), 0);
            }
            self.words[w] |= 1 << (p.index() % 64);
        }
        // Branch-free compaction: write every page and advance past the
        // unmarked ones. Pinned pages are a scattered sixth of the owned
        // ones, so a filter's branch would mispredict often.
        let mut kept = out.len();
        out.resize(kept + owned.len(), PageNum::from_index(0));
        for &p in owned {
            let word = self.words.get(p.index() / 64).copied().unwrap_or(0);
            out[kept] = p;
            kept += usize::from((word >> (p.index() % 64)) & 1 == 0);
        }
        out.truncate(kept);
        for p in pinned {
            self.words[p.index() / 64] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The binding before the mark bitmap: the O(owned × pinned)
    /// `contains` filter.
    fn unpinned_reference(owned: &[PageNum], pinned: &[PageNum]) -> Vec<PageNum> {
        owned
            .iter()
            .copied()
            .filter(|p| !pinned.contains(p))
            .collect()
    }

    /// The pick before the in-place shuffle: shuffle an index list and
    /// read the pool through its first `n` entries.
    fn pick_reference(rng: &mut Pcg64, pool: &[PageNum], n: usize) -> Vec<PageNum> {
        if pool.is_empty() || n == 0 {
            return Vec::new();
        }
        if pool.len() <= n {
            return pool.to_vec();
        }
        let mut idx: Vec<usize> = (0..pool.len()).collect();
        rng.shuffle(&mut idx);
        idx.truncate(n);
        idx.iter().map(|&i| pool[i]).collect()
    }

    /// Allocating convenience wrapper over [`pick_n_into`].
    fn pick_n(rng: &mut Pcg64, pool: &[PageNum], n: usize) -> Vec<PageNum> {
        let mut out = Vec::new();
        pick_n_into(rng, &mut pool.to_vec(), n, &mut out);
        out
    }

    fn pages(ix: &[u32]) -> Vec<PageNum> {
        ix.iter().copied().map(PageNum::from).collect()
    }

    #[test]
    fn pick_n_properties() {
        let mut rng = Pcg64::seed_from_u64(3);
        let pool: Vec<PageNum> = (0..10).map(PageNum::from_index).collect();
        let picked = pick_n(&mut rng, &pool, 4);
        assert_eq!(picked.len(), 4);
        let mut uniq = picked.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 4, "no duplicates");
        assert!(pick_n(&mut rng, &pool, 0).is_empty());
        assert_eq!(pick_n(&mut rng, &pool, 99).len(), 10);
        assert!(pick_n(&mut rng, &[], 3).is_empty());
    }

    #[test]
    fn a_cloned_mark_bitmap_starts_empty() {
        let mut marks = PageMarks::default();
        let mut out = Vec::new();
        marks.unpinned_into(256, &pages(&[1, 2, 3]), &pages(&[2]), &mut out);
        assert_eq!(out, pages(&[1, 3]));
        assert_eq!(marks.words.len(), 4);
        assert!(marks.clone().words.is_empty());
    }

    proptest! {
        // Cheap cases; enough of them that empty pools and `n == 0` occur.
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Binding from the mark-filtered, in-place-shuffled candidates
        /// picks what the `contains` filter and index shuffle picked, with
        /// the same draws, and leaves the bitmap all-zero and the
        /// candidate scratch empty. Three binds share one bitmap, as all
        /// domains' binds do; page numbers run past the sizing hint and
        /// pinned pages need not be owned.
        #[test]
        fn binding_matches_contains_filter_and_index_shuffle(
            seed: u64,
            binds in prop::collection::vec(
                (
                    prop::collection::vec(0u32..400, 0..64),
                    prop::collection::vec(0u32..400, 0..32),
                    0usize..80,
                ),
                3..4,
            ),
        ) {
            let mut marks = PageMarks::default();
            let mut rng = Pcg64::seed_from_u64(seed);
            let mut reference = rng.clone();
            let mut cands = Vec::new();
            for (owned, pinned, n) in &binds {
                let (owned, pinned) = (pages(owned), pages(pinned));
                // PinPages, MemoryDecrease and BlockIo.
                let mut out = Vec::new();
                marks.unpinned_into(256, &owned, &pinned, &mut cands);
                pick_n_into(&mut rng, &mut cands, *n, &mut out);
                let unpinned = unpinned_reference(&owned, &pinned);
                prop_assert_eq!(&out, &pick_reference(&mut reference, &unpinned, *n));
                prop_assert_eq!(rng.state_parts(), reference.state_parts());
                prop_assert!(marks.words.iter().all(|w| *w == 0));
                prop_assert!(cands.is_empty());
                // UnpinPages and GrantMap: the pool copied as is.
                let mut out = Vec::new();
                cands.extend_from_slice(&pinned);
                pick_n_into(&mut rng, &mut cands, *n, &mut out);
                prop_assert_eq!(&out, &pick_reference(&mut reference, &pinned, *n));
                prop_assert_eq!(rng.state_parts(), reference.state_parts());
                prop_assert!(cands.is_empty());
            }
        }
    }
}
