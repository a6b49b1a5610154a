//! The micro-op interpreter: what each hypervisor [`MicroOp`] does to the
//! subsystems it touches, how it is charged, and how finished programs
//! retire and commit their requests.

use nlh_sim::{CpuId, Cycles, DomId, IrqVector, PageNum, SimDuration, VcpuId};

use super::{CpuMode, Hypervisor, StepOutcome, LOG_OP_BASE_CYCLES};
use crate::domain::{DomainState, GuestNotice};
use crate::hypercalls::{EntryCause, HcRequest, MicroOp, PendingKind, UndoEntry};
use crate::interrupts::GuestEventKind;
use crate::locks::AcquireOutcome;
use crate::mem::PageState;
use crate::timers::{TimerEvent, TimerEventKind};

impl Hypervisor {
    // ------------------------------------------------------------------
    // Micro-op execution
    // ------------------------------------------------------------------

    /// One Hv-mode step: fetches `program[pc]` of the top frame and
    /// executes it ([`Self::exec_op`]).
    #[inline]
    pub(super) fn step_hv(&mut self, cpu: CpuId) -> StepOutcome {
        let i = cpu.index();
        let frame = match self.stacks[i].last() {
            Some(f) => f,
            None => {
                self.cpu_mode[i] = CpuMode::Run;
                return StepOutcome::Idle;
            }
        };
        if frame.pc >= frame.program.len() {
            self.retire_frame(i);
            return StepOutcome::HvOp;
        }
        let op = frame.program.ops()[frame.pc];
        let (cause, logged) = (frame.program.cause, frame.program.logged);
        self.exec_op(cpu, op, cause, logged)
    }

    /// Executes `op`, already fetched from `program[pc]` of `cpu`'s top
    /// frame (a program of `cause`, undo-`logged` or not): its side
    /// effects, its charge, and the pc's motion, retiring the frame after
    /// its last op. The fused span calls this after its own fetch, so
    /// both paths run the same op code. Always inlined: as a call, its
    /// register saves alone were 2% of a single-threaded `fig2` round.
    #[inline(always)]
    pub(super) fn exec_op(
        &mut self,
        cpu: CpuId,
        op: MicroOp,
        cause: EntryCause,
        logged: bool,
    ) -> StepOutcome {
        let i = cpu.index();
        let mut log_cycles = Cycles::ZERO;
        let mut advance_pc = true;

        match op {
            MicroOp::Compute => {}
            MicroOp::AssertNotInIrq => {
                if self.percpu[i].local_irq_count != 0 {
                    self.raise_panic(cpu, "ASSERT(!in_irq()) failed");
                }
            }
            MicroOp::EnterIrq => self.percpu[i].local_irq_count += 1,
            MicroOp::LeaveIrq => {
                if self.percpu[i].local_irq_count == 0 {
                    self.raise_panic(cpu, "local_irq_count underflow");
                } else {
                    self.percpu[i].local_irq_count -= 1;
                }
            }
            MicroOp::Acquire(l) => match self.locks.acquire(l, cpu) {
                AcquireOutcome::Acquired => {}
                AcquireOutcome::Contended(_) => advance_pc = false, // spin
            },
            MicroOp::Release(l) => self.locks.release(l),
            MicroOp::IncRef(p) => {
                if let Err(e) = self.pft.inc_ref(p) {
                    self.raise_panic(cpu, format!("BUG: {e}"));
                } else if logged && self.support.undo_logging {
                    if let Some(v) = cause.vcpu() {
                        self.undo_log.push((v, UndoEntry::DecRef(p)));
                        log_cycles = Cycles(self.tuning.cycles_per_log_write);
                    }
                }
            }
            MicroOp::DecRef(p) => {
                if let Err(e) = self.pft.dec_ref(p) {
                    self.raise_panic(cpu, format!("BUG: {e}"));
                } else if logged && self.support.undo_logging {
                    if let Some(v) = cause.vcpu() {
                        self.undo_log.push((v, UndoEntry::IncRef(p)));
                        log_cycles = Cycles(self.tuning.cycles_per_log_write);
                    }
                }
            }
            MicroOp::SetValidated(p, val) => {
                let old = self.pft.get(p).map(|d| d.validated).unwrap_or(false);
                if val && old && cause.vcpu().is_some() {
                    // Xen BUG(): validating an already-validated page —
                    // the signature of a retried pin whose first execution
                    // was abandoned after the bit was set but before the
                    // undo-log write.
                    self.raise_panic(cpu, format!("BUG: page {p} already validated"));
                } else if let Err(e) = self.pft.set_validated(p, val) {
                    self.raise_panic(cpu, format!("BUG: {e}"));
                }
            }
            MicroOp::LogUndo(entry) => {
                if logged && self.support.undo_logging {
                    if let Some(v) = cause.vcpu() {
                        self.undo_log.push((v, entry));
                        log_cycles = Cycles(self.tuning.cycles_per_log_write);
                    }
                }
            }
            MicroOp::AllocPage(dom) => match self.pft.alloc(Some(dom), PageState::DomainOwned) {
                Ok(p) => {
                    self.domains[dom.index()].owned_pages.push(p);
                    if logged && self.support.undo_logging {
                        if let Some(v) = cause.vcpu() {
                            self.undo_log.push((v, UndoEntry::UnallocPage(p)));
                            log_cycles = Cycles(self.tuning.cycles_per_log_write);
                        }
                    }
                }
                Err(e) => self.raise_panic(cpu, format!("BUG in page allocator: {e}")),
            },
            MicroOp::FreePage(dom, p) => {
                self.domains[dom.index()].owned_pages.retain(|x| *x != p);
                if let Err(e) = self.pft.free(p) {
                    self.raise_panic(cpu, format!("BUG in page free: {e}"));
                }
            }
            MicroOp::PopTimerEvent(kind) => {
                self.timers.remove_kind(kind);
            }
            MicroOp::RearmTimerEvent(kind, period) => {
                let now = self.cpu_now[i];
                self.timers.insert(
                    cpu,
                    TimerEvent {
                        deadline: now + period,
                        kind,
                        period: Some(period),
                    },
                );
            }
            MicroOp::TimeSyncApply => {
                if self.boot_scratch_corrupted {
                    self.raise_panic(cpu, "BUG: corrupted platform time records");
                } else {
                    self.last_time_sync = self.cpu_now[i];
                }
            }
            MicroOp::HeartbeatIncrement => self.percpu[i].watchdog.heartbeat += 1,
            MicroOp::PostGuestEvent(dom, ev) => {
                let over_ring = matches!(ev, GuestEventKind::NetRx { .. })
                    && self
                        .net
                        .as_ref()
                        .map(|n| self.irqs.pending_events(dom) >= n.ring_capacity)
                        .unwrap_or(false);
                if over_ring {
                    if let Some(n) = self.net.as_mut() {
                        n.drops += 1;
                        n.delivered += 1;
                    }
                } else {
                    if let GuestEventKind::NetRx { .. } = ev {
                        if let Some(n) = self.net.as_mut() {
                            n.delivered += 1;
                        }
                    }
                    self.irqs.post_event(dom, ev);
                    // Overcommit lost-wakeup hole: the wake op that follows
                    // this post may be abandoned by recovery. Record the
                    // wake on the blocked vCPU so the scheduler-consistency
                    // repair honours it (never set on offline vCPUs).
                    if self.sched.credit_mode() && self.domains[dom.index()].blocked {
                        let v = self.domains[dom.index()].vcpu;
                        self.sched.note_pending_wake(v);
                    }
                }
            }
            MicroOp::ProgramApic => {
                let now = self.cpu_now[i];
                let deadline = self
                    .timers
                    .peek_deadline(cpu)
                    .unwrap_or(now + self.tuning.tick_period)
                    .max(now + SimDuration::from_micros(1));
                self.percpu[i].apic.program(deadline);
            }
            MicroOp::CsSetPercpuCurrent(v) => self.sched.cs_set_percpu_current(cpu, v),
            MicroOp::CsSetRunningOn(v, c) => self.sched.cs_set_running_on(v, c),
            MicroOp::CsSetIsCurrent(v, b) => self.sched.cs_set_is_current(v, b),
            MicroOp::SchedConsistencyAssert => {
                if let Err(inc) = self.sched.check_consistency(cpu) {
                    self.raise_panic(cpu, format!("ASSERT in schedule(): {}", inc.detail));
                }
            }
            MicroOp::CommitHypercall => {
                if let Some(v) = cause.vcpu() {
                    self.commit_hypercall(cpu, v);
                }
            }
            MicroOp::LogCompletion(idx) => {
                if let Some(v) = cause.vcpu() {
                    let dom = self.domain_of(v);
                    if let Some(p) = self.domains[dom.index()].pending.as_mut() {
                        p.completed_subcalls = idx + 1;
                    }
                    self.undo_log.retain(|(vc, _)| *vc != v);
                    log_cycles = Cycles(self.tuning.cycles_per_completion_log);
                }
            }
            MicroOp::DeliverSyscall => {
                if let Some(v) = cause.vcpu() {
                    let dom = self.domain_of(v);
                    let now = self.cpu_now[i];
                    self.domains[dom.index()].pending = None;
                    self.domains[dom.index()].notify(now, GuestNotice::SyscallDone);
                }
            }
            MicroOp::Eoi(vec) => self.irqs.eoi(cpu, vec),
            MicroOp::IoapicWrite(vec, route) => {
                self.irqs.ioapic_write(vec, route);
                self.horizon_dirty = true;
                if self.support.ioapic_write_log {
                    self.ioapic_log = Some(self.irqs.ioapic_snapshot());
                    log_cycles = Cycles(self.tuning.cycles_per_log_write);
                }
            }
            MicroOp::BuildDomain(dom) => {
                let target = self.domains[dom.index()].target_pages;
                let have = self.domains[dom.index()].owned_pages.len();
                for _ in have..target {
                    match self.pft.alloc(Some(dom), PageState::DomainOwned) {
                        Ok(p) => self.domains[dom.index()].owned_pages.push(p),
                        Err(e) => {
                            self.raise_panic(cpu, format!("BUG building domain: {e}"));
                            break;
                        }
                    }
                }
            }
            MicroOp::FinalizeDomain(dom) => {
                let vcpu = self.domains[dom.index()].vcpu;
                let pinned = self.domains[dom.index()].pinned_cpu;
                if self.sched.num_vcpus() <= vcpu.index() {
                    self.sched.register_vcpu(vcpu, pinned);
                    self.timers.insert(
                        pinned,
                        TimerEvent {
                            deadline: self.cpu_now[i] + self.tuning.tick_period,
                            kind: TimerEventKind::DomainTimer(vcpu),
                            period: Some(self.tuning.tick_period),
                        },
                    );
                }
                self.irqs.ensure_domain(dom);
                self.domains[dom.index()].state = DomainState::Active;
            }
            MicroOp::TeardownDomain(dom) => {
                self.teardown_domain(cpu, dom);
            }
            MicroOp::UnblockVcpu(v) => {
                let dom = self.domain_of(v);
                if self.domains[dom.index()].is_active() && self.domains[dom.index()].blocked {
                    self.domains[dom.index()].blocked = false;
                    self.sched.enqueue(v);
                }
            }
            MicroOp::EnqueueVcpu(v) => {
                let dom = self.domain_of(v);
                if self.domains[dom.index()].is_active() && !self.domains[dom.index()].blocked {
                    self.sched.enqueue(v);
                }
            }
            MicroOp::DequeueVcpu(v) => self.sched.dequeue(v),
            MicroOp::SchedCreditTick => self.sched.credit_tick(cpu),
            MicroOp::SchedMigrateEnqueue { v, to } => self.sched.migrate_enqueue(v, to),
            MicroOp::SchedMigrateDequeue { v, from } => self.sched.migrate_dequeue(v, from),
            MicroOp::SchedSetAssigned { v, to } => self.sched.set_assigned(v, to),
            MicroOp::RecordNetReply(seq) => {
                let now = self.cpu_now[i];
                self.net_replies.push((seq, now));
            }
            // Virtio ring micro-ops are lenient: on an empty window they do
            // nothing (a retried or repaired transaction re-runs the whole
            // handler, and earlier stages may already have drained).
            MicroOp::VqPopAvail { dev, q } => {
                if let Some(d) = self.virtio.devices.get_mut(dev as usize) {
                    d.queues[q as usize & 1].pop_avail();
                }
            }
            MicroOp::VqDeviceWork { dev, q } => {
                if (dev as usize) < self.virtio.devices.len() {
                    self.virtio.device_work(dev as usize, q as usize & 1);
                }
            }
            MicroOp::VqLogComplete { dev, q } => {
                if let Some(d) = self.virtio.devices.get_mut(dev as usize) {
                    d.queues[q as usize & 1].log_complete();
                }
            }
            MicroOp::VqPushUsed { dev, q } => {
                if let Some(d) = self.virtio.devices.get_mut(dev as usize) {
                    d.queues[q as usize & 1].push_used();
                }
            }
            MicroOp::VqRaiseIrq { dev } => {
                if let Some(d) = self.virtio.devices.get(dev as usize) {
                    if d.undelivered() > 0 {
                        if let Some(target) = self.irqs.ioapic_route(d.vector) {
                            self.irqs.raise(target, d.vector);
                        }
                    }
                }
            }
            MicroOp::VqDeliverUsed(vec) => self.virtio_deliver_used(vec),
        }

        // Charge cycles and advance. Pure log writes are a store plus a
        // pointer bump, far cheaper than a full micro-op.
        let is_log_op = matches!(op, MicroOp::LogUndo(_) | MicroOp::LogCompletion(_));
        let base = if is_log_op {
            Cycles(LOG_OP_BASE_CYCLES) + log_cycles
        } else {
            Cycles(self.tuning.cycles_per_micro_op) + log_cycles
        };
        self.accounting.charge_hv(cpu, base, log_cycles);
        let ns = self.op_ns(base, is_log_op as usize);
        self.advance(cpu, SimDuration::from_nanos(ns));

        if self.detection.is_some() {
            return StepOutcome::Frozen;
        }

        if advance_pc {
            if let Some(f) = self.stacks[i].last_mut() {
                f.pc += 1;
                if f.pc >= f.program.len() {
                    self.retire_frame(i);
                }
            }
        }
        StepOutcome::HvOp
    }

    /// Pops the finished top frame of CPU `i`'s stack, recycling its op
    /// buffer into the CPU's program pool, and drops back to `Run` mode
    /// when the stack empties.
    #[inline]
    pub(super) fn retire_frame(&mut self, i: usize) {
        if let Some(f) = self.stacks[i].pop() {
            if let Some(buf) = f.program.into_buffer() {
                self.pools[i].give(buf);
            }
        }
        if self.stacks[i].is_empty() {
            self.cpu_mode[i] = CpuMode::Run;
        }
    }

    fn commit_hypercall(&mut self, cpu: CpuId, vcpu: VcpuId) {
        let dom_id = self.domain_of(vcpu);
        let now = self.cpu_now[cpu.index()];
        let pending = match self.domains[dom_id.index()].pending.take() {
            Some(p) => p,
            None => return,
        };
        // Request-specific completion bookkeeping. Multicalls apply the
        // guest-side pin bookkeeping of every sub-call.
        if let PendingKind::Hypercall(req) = &pending.kind {
            if let Some(calls) = req.multicall_calls() {
                for (idx, sub) in calls.iter().enumerate() {
                    let binding = pending
                        .bindings
                        .get(idx)
                        .map(|v| v.as_slice())
                        .unwrap_or(&[]);
                    self.apply_pin_bookkeeping(dom_id, sub, binding);
                }
            } else {
                let binding = pending
                    .bindings
                    .first()
                    .map(|v| v.as_slice())
                    .unwrap_or(&[]);
                self.apply_pin_bookkeeping(dom_id, req, binding);
            }
            if req == &HcRequest::SchedBlock {
                // Block only if no event snuck in meanwhile.
                if self.irqs.pending_events(dom_id) == 0 {
                    self.domains[dom_id.index()].blocked = true;
                    self.sched.block(vcpu);
                    // The vCPU leaves the CPU: make the percpu slot
                    // consistent (the handler's Cs ops already did).
                } else {
                    // Events pending: stay runnable and current.
                    self.sched.cs_set_percpu_current(cpu, Some(vcpu));
                    self.sched.cs_set_running_on(vcpu, Some(cpu));
                    self.sched.cs_set_is_current(vcpu, true);
                }
            }
        }
        // The undo log for this vCPU is dead once the hypercall commits.
        self.undo_log.retain(|(v, _)| *v != vcpu);
        self.recycle_bindings(pending.bindings);
        self.domains[dom_id.index()].notify(now, GuestNotice::HypercallDone { ok: true });
    }

    /// Applies the guest-side pin-list bookkeeping for a completed request.
    fn apply_pin_bookkeeping(&mut self, dom_id: DomId, req: &HcRequest, binding: &[PageNum]) {
        match req {
            HcRequest::PinPages(_) => {
                let d = &mut self.domains[dom_id.index()];
                for p in binding {
                    if !d.pinned_pages.contains(p) {
                        d.pinned_pages.push(*p);
                    }
                }
            }
            HcRequest::UnpinPages(_) => {
                self.domains[dom_id.index()]
                    .pinned_pages
                    .retain(|p| !binding.contains(p));
            }
            _ => {}
        }
    }

    fn teardown_domain(&mut self, cpu: CpuId, dom: DomId) {
        // Drop pin references first (each pinned page holds one reference
        // and its validation bit).
        let pinned = std::mem::take(&mut self.domains[dom.index()].pinned_pages);
        for p in pinned {
            if let Err(e) = self.pft.set_validated(p, false) {
                self.raise_panic(cpu, format!("BUG tearing down domain: {e}"));
                return;
            }
            if let Err(e) = self.pft.dec_ref(p) {
                self.raise_panic(cpu, format!("BUG tearing down domain: {e}"));
                return;
            }
        }
        let owned = std::mem::take(&mut self.domains[dom.index()].owned_pages);
        for p in owned {
            if let Err(e) = self.pft.free(p) {
                // A stray reference from a double-applied retry manifests
                // here, exactly as Xen's BUG_ON(page_get_owner...) would.
                self.raise_panic(cpu, format!("BUG freeing domain memory: {e}"));
                return;
            }
        }
        let vcpu = self.domains[dom.index()].vcpu;
        self.sched.offline_vcpus(&[vcpu]);
        self.irqs.clear_domain(dom);
        self.domains[dom.index()].state = DomainState::Destroyed;
    }

    /// Body of [`MicroOp::VqDeliverUsed`]: deliver used entries of every
    /// device signalling on `vec`, reposting consumed rx buffers, and
    /// unblock the owning vCPUs.
    fn virtio_deliver_used(&mut self, vec: IrqVector) {
        for di in 0..self.virtio.devices.len() {
            if self.virtio.devices[di].vector != vec {
                continue;
            }
            let dom = self.virtio.devices[di].dom;
            let kind = self.virtio.devices[di].kind;
            let mut delivered_any = false;
            for qi in 0..2 {
                while let Some((_, payload)) = self.virtio.devices[di].queues[qi].deliver() {
                    delivered_any = true;
                    let ev = match (kind, qi) {
                        (nlh_virtio::VirtioDeviceKind::Blk, _) => {
                            GuestEventKind::VirtioBlkDone { req: payload }
                        }
                        (nlh_virtio::VirtioDeviceKind::Net, nlh_virtio::Q_RX) => {
                            // The driver refills its rx ring as it consumes.
                            let _ = self.virtio.devices[di].queues[nlh_virtio::Q_RX].submit(0);
                            GuestEventKind::VirtioNetRx { frame: payload }
                        }
                        (nlh_virtio::VirtioDeviceKind::Net, _) => {
                            GuestEventKind::VirtioNetTxDone { frame: payload }
                        }
                    };
                    self.irqs.post_event(dom, ev);
                }
            }
            if delivered_any {
                let v = self.domains[dom.index()].vcpu;
                if self.domains[dom.index()].is_active() && self.domains[dom.index()].blocked {
                    self.domains[dom.index()].blocked = false;
                    self.sched.enqueue(v);
                }
            }
        }
    }
}
