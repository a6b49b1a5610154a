//! Hypercalls, syscall forwarding, and the micro-op execution model.
//!
//! Every hypervisor activity — hypercall handlers, the forwarded-syscall
//! path (x86-64 traps syscalls into the hypervisor, Section IV), timer and
//! device interrupt handlers — is compiled into a [`Program`]: a flat list
//! of [`MicroOp`]s executed one simulation step at a time. A fault can
//! therefore strike *between any two state updates*, leaving exactly the
//! partial-execution residue the paper's recovery enhancements exist to
//! repair: held locks, half-applied page pins, unacknowledged interrupts,
//! un-reprogrammed APIC timers, lost recurring events, torn scheduler
//! metadata, and partially executed (possibly non-idempotent) hypercalls.
//!
//! ## Non-idempotent hypercalls and the vulnerability window
//!
//! A handler's *side effects* (e.g. [`MicroOp::IncRef`]) occur before its
//! [`MicroOp::CommitHypercall`]. If recovery abandons the handler inside
//! that window and then retries the hypercall, the side effects apply
//! twice. The paper's mitigation (Section IV) is reproduced in two parts:
//!
//! * **Undo logging** — when enabled, a [`MicroOp::LogUndo`] op precedes
//!   each side effect; recovery replays the log backwards before retrying.
//! * **Code reordering** — handler builders emit a variant with all side
//!   effects packed immediately before the commit, shrinking the window
//!   without runtime cost.

use std::fmt;

use nlh_sim::{CpuId, DomId, IrqVector, LockId, PageNum, SimDuration, VcpuId};
use serde::{Deserialize, Serialize};

use crate::interrupts::GuestEventKind;
use crate::timers::TimerEventKind;

/// An abstract hypercall request as issued by a guest workload.
///
/// Requests are *templates*: the hypervisor instantiates them against the
/// issuing domain's concrete pages when it builds the handler [`Program`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum HcRequest {
    /// Pin `n` of the caller's pages as page-table pages
    /// (`mmu_update`/`MMUEXT_PIN`; non-idempotent: use counter + validation).
    PinPages(usize),
    /// Unpin `n` previously pinned pages (non-idempotent).
    UnpinPages(usize),
    /// Populate `n` new pages into the caller (`memory_op` increase;
    /// non-idempotent; takes the static page-allocator lock).
    MemoryIncrease(usize),
    /// Release `n` of the caller's pages (`memory_op` decrease;
    /// non-idempotent; static page-allocator lock).
    MemoryDecrease(usize),
    /// Map a grant reference from another domain (`grant_table_op`;
    /// non-idempotent and — deliberately — *not* covered by undo logging:
    /// it models the paper's "infrequently-used handlers we have not
    /// properly enhanced").
    GrantMap {
        /// The granting domain.
        from: DomId,
    },
    /// Send an event-channel notification (idempotent).
    EventSend {
        /// Destination domain.
        to: DomId,
        /// Event payload to deliver.
        event: GuestEventKind,
    },
    /// Write to the console (static console lock; idempotent).
    ConsoleWrite,
    /// Arm the caller's one-shot timer (idempotent).
    SetTimer,
    /// A batch of sub-hypercalls (`multicall`). The completion of each
    /// sub-call is logged when batched-completion logging is enabled, so a
    /// retry can skip the already-finished prefix (Section IV).
    Multicall(Vec<HcRequest>),
    /// A multicall whose sub-call list is one of the fixed shapes the
    /// bundled workloads issue ([`MulticallShape`]). Semantically identical
    /// to [`HcRequest::Multicall`] over the same calls — binding, undo and
    /// completion logging, and commit bookkeeping all route through the
    /// shared sub-call slice — but the list is a static template, so
    /// issuing one performs no heap allocation on the guest hot path.
    FixedMulticall(MulticallShape),
    /// Create a new domain (PrivVM only; static domctl + page-alloc locks).
    DomctlCreate,
    /// Destroy a domain (PrivVM only).
    DomctlDestroy(DomId),
    /// Reprogram an I/O APIC route (PrivVM only; the writes ReHype must log).
    PhysdevRoute(IrqVector, CpuId),
    /// A trivial read-only hypercall (`xen_version`; idempotent).
    XenVersion,
    /// Voluntarily block the calling vCPU until an event arrives
    /// (`sched_op(SCHEDOP_block)`; idempotent).
    SchedBlock,
    /// Transmit a NetBench reply packet (idempotent; duplicates are
    /// de-duplicated by sequence number at the measuring sender).
    NetReply(u64),
    /// A paravirtual block I/O request: grant + notify the PrivVM's driver
    /// domain. Completion arrives later as a [`GuestEventKind::BlkComplete`].
    BlockIo {
        /// Request id chosen by the guest.
        req: u64,
    },
}

impl HcRequest {
    /// Whether a partial execution of this request can corrupt state when
    /// blindly retried (i.e. it has side effects before its commit).
    pub fn is_non_idempotent(&self) -> bool {
        match self {
            HcRequest::PinPages(_)
            | HcRequest::UnpinPages(_)
            | HcRequest::MemoryIncrease(_)
            | HcRequest::MemoryDecrease(_)
            | HcRequest::GrantMap { .. }
            | HcRequest::DomctlCreate
            | HcRequest::DomctlDestroy(_) => true,
            HcRequest::Multicall(calls) => calls.iter().any(|c| c.is_non_idempotent()),
            HcRequest::FixedMulticall(shape) => shape.calls().iter().any(|c| c.is_non_idempotent()),
            HcRequest::EventSend { .. }
            | HcRequest::ConsoleWrite
            | HcRequest::SetTimer
            | HcRequest::PhysdevRoute(..)
            | HcRequest::XenVersion
            | HcRequest::SchedBlock
            | HcRequest::NetReply(_)
            | HcRequest::BlockIo { .. } => false,
        }
    }

    /// The sub-call slice when this request is a multicall of either
    /// variant, `None` otherwise. Every multicall consumer (binding,
    /// handler emission, commit bookkeeping) goes through this accessor so
    /// [`HcRequest::Multicall`] and [`HcRequest::FixedMulticall`] are
    /// bit-identical in behaviour.
    pub fn multicall_calls(&self) -> Option<&[HcRequest]> {
        match self {
            HcRequest::Multicall(calls) => Some(calls),
            HcRequest::FixedMulticall(shape) => Some(shape.calls()),
            _ => None,
        }
    }
}

/// The fixed sub-call shapes issued by the bundled workloads through
/// [`HcRequest::FixedMulticall`].
///
/// Workloads used to build these bursts with `Multicall(vec![...])`, which
/// was the last steady-state heap allocation on the guest hot path (one
/// `Vec` per burst, millions per campaign — visible as the fractional
/// `allocs_per_step` in BENCH_stepper.json before PR 10). A shape is
/// `Copy` and expands to a `'static` slice instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MulticallShape {
    /// UnixBench's mmap-heavy burst: pin a page-table page, probe the
    /// hypervisor version, unpin it, and re-arm the one-shot timer.
    PinProbeUnpinTimer,
    /// The block workloads' add/remove churn: pin one page, unpin it.
    PinUnpin,
}

/// Template for [`MulticallShape::PinProbeUnpinTimer`].
static PIN_PROBE_UNPIN_TIMER: [HcRequest; 4] = [
    HcRequest::PinPages(1),
    HcRequest::XenVersion,
    HcRequest::UnpinPages(1),
    HcRequest::SetTimer,
];

/// Template for [`MulticallShape::PinUnpin`].
static PIN_UNPIN: [HcRequest; 2] = [HcRequest::PinPages(1), HcRequest::UnpinPages(1)];

impl MulticallShape {
    /// The sub-calls this shape expands to.
    pub fn calls(self) -> &'static [HcRequest] {
        match self {
            MulticallShape::PinProbeUnpinTimer => &PIN_PROBE_UNPIN_TIMER,
            MulticallShape::PinUnpin => &PIN_UNPIN,
        }
    }
}

/// An entry in the undo log: how to revert one applied side effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UndoEntry {
    /// Revert an `inc_ref`.
    DecRef(PageNum),
    /// Revert a `dec_ref`.
    IncRef(PageNum),
    /// Restore the validation bit to `bool`.
    SetValidated(PageNum, bool),
    /// Return a freshly allocated page to the free list.
    UnallocPage(PageNum),
}

/// One micro-operation of hypervisor execution.
///
/// Executing a micro-op advances the hypervisor by one atomic state change;
/// faults are injected at micro-op boundaries.
///
/// `MicroOp` is deliberately `Copy` (every payload is a small plain id or
/// enum): the stepper fetches the current op by value on every simulation
/// step, and a `Copy` fetch keeps that fast path free of clones and drops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MicroOp {
    /// Generic computation with no architectural side effect.
    Compute,
    /// `ASSERT(!in_irq())` — panics the hypervisor if `local_irq_count` is
    /// nonzero. Emitted at the head of every non-interrupt entry path, as
    /// Xen does in code that must not run in interrupt context.
    AssertNotInIrq,
    /// Interrupt-handler entry: increments `local_irq_count`.
    EnterIrq,
    /// Interrupt-handler exit: decrements `local_irq_count`.
    LeaveIrq,
    /// Acquire a spinlock (spins while contended).
    Acquire(LockId),
    /// Release a spinlock.
    Release(LockId),
    /// Increment a page's use counter (side effect).
    IncRef(PageNum),
    /// Decrement a page's use counter (side effect).
    DecRef(PageNum),
    /// Set a page's validation bit (side effect). Setting it on an
    /// already-validated page is a hypervisor `BUG()` — the signature of a
    /// double-applied pin retry.
    SetValidated(PageNum, bool),
    /// Append an undo-log entry for a preceding side effect. The gap
    /// between a side effect and its log write is the paper's residual
    /// vulnerability window: "even for the handlers that have been
    /// modified, the changes do not resolve 100% of the problem"
    /// (Section IV).
    LogUndo(UndoEntry),
    /// Allocate one page into a domain (side effect; fails the hypervisor
    /// on corrupt free-list state).
    AllocPage(DomId),
    /// Free one specific page from a domain (side effect; fails the
    /// hypervisor on refcount anomalies).
    FreePage(DomId, PageNum),
    /// Pop one due software timer event (timer-interrupt handler).
    PopTimerEvent(TimerEventKind),
    /// Re-arm a recurring timer event `period` in the future.
    RearmTimerEvent(TimerEventKind, SimDuration),
    /// Apply the global time synchronization (under the static time lock).
    TimeSyncApply,
    /// Increment this CPU's watchdog heartbeat.
    HeartbeatIncrement,
    /// Post a paravirtual event to a domain's event channel.
    PostGuestEvent(DomId, GuestEventKind),
    /// Reprogram the local APIC one-shot timer from the software timer heap.
    ProgramApic,
    /// Context-switch step 1: set the per-CPU current pointer.
    CsSetPercpuCurrent(Option<VcpuId>),
    /// Context-switch step 2: set the vCPU's `running_on`.
    CsSetRunningOn(VcpuId, Option<CpuId>),
    /// Context-switch step 3: set the vCPU's `is_current`.
    CsSetIsCurrent(VcpuId, bool),
    /// The scheduler's consistency `ASSERT` (panics the hypervisor when the
    /// redundant metadata disagrees).
    SchedConsistencyAssert,
    /// Complete the current hypercall: deliver the result to the guest and
    /// clear its pending-request state.
    CommitHypercall,
    /// Record that sub-call `i` of a multicall finished (present only when
    /// batched-completion logging is enabled; charged the logging cost).
    LogCompletion(usize),
    /// Deliver the forwarded syscall to the guest kernel (completion of the
    /// x86-64 syscall-forwarding path).
    DeliverSyscall,
    /// Signal end-of-interrupt for a vector on this CPU.
    Eoi(IrqVector),
    /// Write an I/O APIC redirection entry (ReHype logs these).
    IoapicWrite(IrqVector, Option<CpuId>),
    /// Create-domain step: allocate all pages and build structures for a
    /// pending domain specification.
    BuildDomain(DomId),
    /// Create-domain final step: mark the domain runnable.
    FinalizeDomain(DomId),
    /// Destroy-domain step: tear down the domain and free its pages.
    TeardownDomain(DomId),
    /// Mark a blocked vCPU runnable again (event delivery wakes it).
    UnblockVcpu(VcpuId),
    /// Put a descheduled vCPU back on its runqueue (context-switch path).
    EnqueueVcpu(VcpuId),
    /// Remove a vCPU being switched in from its runqueue.
    DequeueVcpu(VcpuId),
    /// Credit-scheduler tick: debit the running vCPU, refill an exhausted
    /// active set, flag preemption, and propose a load-balancing migration
    /// (credit mode only; a no-op in the pinned model).
    SchedCreditTick,
    /// Migration step 1: enqueue the vCPU on the destination CPU's
    /// runqueue (before leaving the source — the double-queued window).
    SchedMigrateEnqueue {
        /// The migrating vCPU.
        v: VcpuId,
        /// The destination CPU.
        to: CpuId,
    },
    /// Migration step 2: dequeue the vCPU from the source CPU's runqueue.
    SchedMigrateDequeue {
        /// The migrating vCPU.
        v: VcpuId,
        /// The source CPU.
        from: CpuId,
    },
    /// Migration step 3: rewrite the vCPU's assigned (home) CPU.
    SchedSetAssigned {
        /// The migrating vCPU.
        v: VcpuId,
        /// The destination CPU.
        to: CpuId,
    },
    /// Record an outbound NetBench reply at the external sender (used to
    /// measure service interruption — Section VII-B).
    RecordNetReply(u64),
    /// Virtio device model: pop the oldest available descriptor of queue
    /// `q` of device `dev` into the in-flight FIFO.
    VqPopAvail {
        /// Device index in the hypervisor's virtio state.
        dev: u8,
        /// Queue index within the device.
        q: u8,
    },
    /// Virtio device model: backend work on the oldest in-flight
    /// descriptor (block storage op; net tx frames forward through the
    /// vswitch into the peer's rx queue).
    VqDeviceWork {
        /// Device index in the hypervisor's virtio state.
        dev: u8,
        /// Queue index within the device.
        q: u8,
    },
    /// Virtio device model: record the oldest in-flight descriptor's
    /// completion in the device's completion log.
    VqLogComplete {
        /// Device index in the hypervisor's virtio state.
        dev: u8,
        /// Queue index within the device.
        q: u8,
    },
    /// Virtio device model: publish the oldest logged completion to the
    /// used ring.
    VqPushUsed {
        /// Device index in the hypervisor's virtio state.
        dev: u8,
        /// Queue index within the device.
        q: u8,
    },
    /// Virtio device model: raise device `dev`'s interrupt vector at its
    /// routed CPU.
    VqRaiseIrq {
        /// Device index in the hypervisor's virtio state.
        dev: u8,
    },
    /// Virtio interrupt handler: drain every used ring of every device on
    /// this vector — post completion events to the owning guests, repost
    /// consumed rx buffers, and unblock waiting vCPUs.
    VqDeliverUsed(IrqVector),
}

/// Why the hypervisor was entered (what the current program is doing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EntryCause {
    /// Servicing a hypercall from `vcpu`.
    Hypercall(VcpuId),
    /// Forwarding a syscall for `vcpu` (x86-64 path).
    Syscall(VcpuId),
    /// Servicing the local APIC timer interrupt.
    TimerInterrupt,
    /// Servicing a device interrupt.
    DeviceInterrupt(IrqVector),
    /// The scheduler switching a woken vCPU in on an idle CPU.
    Scheduler,
    /// Servicing a virtio MMIO register write (a queue notify) trapped
    /// from `vcpu`. Runs in the kicking guest's context, like a
    /// hypercall: the vCPU is inside the hypervisor, not in an interrupt.
    VirtioMmio(VcpuId),
}

impl EntryCause {
    /// The vCPU on whose behalf this entry runs, if any.
    pub fn vcpu(self) -> Option<VcpuId> {
        match self {
            EntryCause::Hypercall(v) | EntryCause::Syscall(v) | EntryCause::VirtioMmio(v) => {
                Some(v)
            }
            EntryCause::TimerInterrupt | EntryCause::DeviceInterrupt(_) | EntryCause::Scheduler => {
                None
            }
        }
    }

    /// Whether this is an interrupt context (enters via `EnterIrq`).
    pub fn is_interrupt(self) -> bool {
        matches!(
            self,
            EntryCause::TimerInterrupt | EntryCause::DeviceInterrupt(_)
        )
    }

    /// The handler family this entry belongs to, with per-vCPU / per-vector
    /// detail erased. Trial records and the campaign coverage map bucket
    /// injection points by this kind.
    pub fn handler_kind(self) -> HandlerKind {
        match self {
            EntryCause::Hypercall(_) => HandlerKind::Hypercall,
            EntryCause::Syscall(_) => HandlerKind::Syscall,
            EntryCause::TimerInterrupt => HandlerKind::TimerInterrupt,
            EntryCause::DeviceInterrupt(_) => HandlerKind::DeviceInterrupt,
            EntryCause::Scheduler => HandlerKind::Scheduler,
            EntryCause::VirtioMmio(_) => HandlerKind::VirtioMmio,
        }
    }
}

/// A coarse handler family: [`EntryCause`] with its operands erased.
///
/// Small and dense so it can index a coverage-map axis — see
/// [`HandlerKind::ALL`] and [`HandlerKind::index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HandlerKind {
    /// A hypercall handler.
    Hypercall,
    /// The forwarded-syscall path.
    Syscall,
    /// The local APIC timer interrupt handler.
    TimerInterrupt,
    /// A device interrupt handler.
    DeviceInterrupt,
    /// The scheduler switching a woken vCPU in.
    Scheduler,
    /// A virtio MMIO register handler (queue notify).
    VirtioMmio,
}

impl HandlerKind {
    /// Every handler kind, in [`HandlerKind::index`] order.
    pub const ALL: [HandlerKind; 6] = [
        HandlerKind::Hypercall,
        HandlerKind::Syscall,
        HandlerKind::TimerInterrupt,
        HandlerKind::DeviceInterrupt,
        HandlerKind::Scheduler,
        HandlerKind::VirtioMmio,
    ];

    /// A dense index in `0..HandlerKind::ALL.len()`.
    pub fn index(self) -> usize {
        match self {
            HandlerKind::Hypercall => 0,
            HandlerKind::Syscall => 1,
            HandlerKind::TimerInterrupt => 2,
            HandlerKind::DeviceInterrupt => 3,
            HandlerKind::Scheduler => 4,
            HandlerKind::VirtioMmio => 5,
        }
    }

    /// Short stable name, used by the trial-record text format.
    pub fn name(self) -> &'static str {
        match self {
            HandlerKind::Hypercall => "Hypercall",
            HandlerKind::Syscall => "Syscall",
            HandlerKind::TimerInterrupt => "TimerInterrupt",
            HandlerKind::DeviceInterrupt => "DeviceInterrupt",
            HandlerKind::Scheduler => "Scheduler",
            HandlerKind::VirtioMmio => "VirtioMmio",
        }
    }

    /// Parses a name produced by [`HandlerKind::name`].
    pub fn from_name(s: &str) -> Option<HandlerKind> {
        HandlerKind::ALL.iter().copied().find(|k| k.name() == s)
    }
}

impl fmt::Display for HandlerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The storage behind a program's micro-ops.
///
/// Handler builders run on every hypervisor entry — millions of times per
/// fault-injection campaign — so the hot path never allocates for them:
/// fixed-shape handlers point at a precompiled static template, and
/// variable-shape handlers borrow a buffer from the per-CPU
/// [`ProgramPool`] that is returned when the program's last op retires.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ProgramBody {
    /// A precompiled template shared by every instance of a fixed-shape
    /// handler (e.g. the forwarded-syscall path), paired with its equally
    /// static superop fusion table.
    Static(&'static [MicroOp], &'static [u16]),
    /// A buffer filled by a handler builder plus its fusion table, both
    /// usually recycled through a [`ProgramPool`].
    Pooled(Vec<MicroOp>, Vec<u16>),
}

/// Compiles the superop fusion table for `ops` into `runs`, reusing its
/// capacity: `runs[i]` is the number of consecutive [`MicroOp::Compute`]
/// ops starting at index `i` (0 when `ops[i]` is any other op).
///
/// `Compute` is the only micro-op with no architectural side effect, so a
/// run of them is the only sequence the batched stepper may execute as one
/// fused superop without changing where faults can land: every other op is
/// an abandonment boundary (a state change recovery must be able to observe
/// half-done). One backward pass at program build time; see
/// ARCHITECTURE.md §9.
fn compile_runs(ops: &[MicroOp], runs: &mut Vec<u16>) {
    runs.clear();
    runs.resize(ops.len(), 0);
    let mut r: u16 = 0;
    for i in (0..ops.len()).rev() {
        r = if matches!(ops[i], MicroOp::Compute) {
            r.saturating_add(1)
        } else {
            0
        };
        runs[i] = r;
    }
}

/// A compiled hypervisor execution: the micro-ops plus their cause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Why the hypervisor is executing.
    pub cause: EntryCause,
    /// The micro-ops, executed in order.
    body: ProgramBody,
    /// Whether this handler's side effects are covered by undo logging
    /// (enhanced handlers only; `GrantMap` models the paper's un-enhanced
    /// infrequent handlers and is never logged).
    pub logged: bool,
}

impl Program {
    /// Creates an unlogged program. `runs` is a scratch buffer (usually
    /// recycled through the same [`ProgramPool`] as `ops`) into which the
    /// superop fusion table is compiled.
    pub fn new(cause: EntryCause, ops: Vec<MicroOp>, mut runs: Vec<u16>) -> Self {
        compile_runs(&ops, &mut runs);
        Program {
            cause,
            body: ProgramBody::Pooled(ops, runs),
            logged: false,
        }
    }

    /// Creates an unlogged program over a precompiled static template and
    /// its precompiled fusion table (which must match what
    /// `compile_runs(ops)` would produce).
    ///
    /// No allocation happens at build time and none is returned to a pool
    /// at retirement; use this for handlers whose op sequence is the same
    /// on every entry.
    pub fn from_static(cause: EntryCause, ops: &'static [MicroOp], runs: &'static [u16]) -> Self {
        #[cfg(debug_assertions)]
        {
            // Allocation-free equivalent of compile_runs: static programs
            // are built on the zero-alloc hot path, so even the debug
            // check must not touch the heap.
            debug_assert_eq!(runs.len(), ops.len(), "static runs table out of date");
            let mut r: u16 = 0;
            for i in (0..ops.len()).rev() {
                r = if matches!(ops[i], MicroOp::Compute) {
                    r.saturating_add(1)
                } else {
                    0
                };
                debug_assert_eq!(runs[i], r, "static runs table out of date");
            }
        }
        Program {
            cause,
            body: ProgramBody::Static(ops, runs),
            logged: false,
        }
    }

    /// The micro-ops, in execution order.
    pub fn ops(&self) -> &[MicroOp] {
        match &self.body {
            ProgramBody::Static(s, _) => s,
            ProgramBody::Pooled(v, _) => v,
        }
    }

    /// The superop fusion table, parallel to [`Program::ops`]: entry `pc`
    /// is the length of the run of consecutive [`MicroOp::Compute`] ops
    /// starting at `pc` (0 for any other op).
    pub fn runs(&self) -> &[u16] {
        match &self.body {
            ProgramBody::Static(_, r) => r,
            ProgramBody::Pooled(_, r) => r,
        }
    }

    /// Length of the fused `Compute` run starting at `pc` (0 when the op
    /// at `pc` is an abandonment boundary, i.e. anything but `Compute`).
    pub fn run_len_at(&self, pc: usize) -> usize {
        self.runs().get(pc).copied().unwrap_or(0) as usize
    }

    /// Consumes the program, recovering its op and fusion-table buffers
    /// for pooling. Returns `None` for programs over static templates
    /// (there is nothing to recycle).
    pub fn into_buffer(self) -> Option<(Vec<MicroOp>, Vec<u16>)> {
        match self.body {
            ProgramBody::Static(..) => None,
            ProgramBody::Pooled(v, r) => Some((v, r)),
        }
    }

    /// Number of micro-ops.
    pub fn len(&self) -> usize {
        self.ops().len()
    }

    /// Whether the program has no ops.
    pub fn is_empty(&self) -> bool {
        self.ops().is_empty()
    }
}

/// A free list of micro-op buffers, one pool per physical CPU.
///
/// Before this pool existed every hypervisor entry (hypercall, timer or
/// device interrupt, scheduler wakeup) built its handler [`Program`] into
/// a fresh `Vec<MicroOp>` — one heap allocation plus one free per entry,
/// millions of times per campaign. The stepper now takes a buffer here
/// when it compiles a handler and gives it back when the program's last
/// op retires, so steady-state stepping performs no heap traffic at all
/// (asserted by the counting-allocator test in `nlh-hv`).
///
/// The pool is host-side memory reuse only: it never changes simulated
/// behaviour.
#[derive(Debug, Clone, Default)]
pub struct ProgramPool {
    ops: FreeList<MicroOp>,
    runs: FreeList<u16>,
}

/// Buffers retained per CPU. Program stacks nest at most a few frames
/// deep (an interrupt over a hypercall), so a small cap bounds idle
/// memory without ever forcing a steady-state allocation.
const POOL_CAP: usize = 8;

impl ProgramPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        ProgramPool::default()
    }

    /// Takes an empty op buffer and its paired fusion-table buffer out of
    /// the pool (allocating only when the pool is dry, i.e. during the
    /// first few entries after boot).
    pub fn take(&mut self) -> (Vec<MicroOp>, Vec<u16>) {
        (self.ops.take(), self.runs.take())
    }

    /// Returns a retired program's buffers to the pool.
    pub fn give(&mut self, (ops, runs): (Vec<MicroOp>, Vec<u16>)) {
        self.ops.give(ops, POOL_CAP);
        self.runs.give(runs, POOL_CAP);
    }

    /// Number of op buffers currently pooled.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the pool holds no op buffers.
    pub fn is_empty(&self) -> bool {
        self.ops.len() == 0
    }
}

/// A free list of empty buffers, reused instead of allocated.
///
/// Its clone holds as many empty buffers of the same capacities, with
/// room for as many more, where a derived clone would hold buffers of
/// capacity 0 that grow again on first use: a copy of a warmed machine
/// (a warm checkout, a trial group's fork) recycles from its first step,
/// as the original does.
#[derive(Debug)]
pub(crate) struct FreeList<T>(Vec<Vec<T>>);

impl<T> Default for FreeList<T> {
    fn default() -> Self {
        FreeList(Vec::new())
    }
}

impl<T> Clone for FreeList<T> {
    fn clone(&self) -> Self {
        let mut free = Vec::with_capacity(self.0.capacity());
        free.extend(self.0.iter().map(|b| Vec::with_capacity(b.capacity())));
        FreeList(free)
    }
}

impl<T> FreeList<T> {
    /// An empty buffer: a recycled one while any is left.
    pub(crate) fn take(&mut self) -> Vec<T> {
        self.0.pop().unwrap_or_default()
    }

    /// Keeps `buf`, emptied, for reuse, unless it never allocated or
    /// `cap` buffers are kept already.
    pub(crate) fn give(&mut self, mut buf: Vec<T>, cap: usize) {
        if buf.capacity() > 0 && self.0.len() < cap {
            buf.clear();
            self.0.push(buf);
        }
    }

    /// Buffers kept.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }
}

/// A scratch list whose contents are never read between uses (each use
/// clears it first): its clone is empty with the same capacity (see
/// [`FreeList`] for why).
#[derive(Debug)]
pub(crate) struct Scratch<T>(pub(crate) Vec<T>);

impl<T> Default for Scratch<T> {
    fn default() -> Self {
        Scratch(Vec::new())
    }
}

impl<T> Clone for Scratch<T> {
    fn clone(&self) -> Self {
        Scratch(Vec::with_capacity(self.0.capacity()))
    }
}

/// A request a vCPU has issued into the hypervisor and is waiting on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PendingRequest {
    /// The request (hypercall template or forwarded syscall).
    pub kind: PendingKind,
    /// Concrete pages each sub-call operates on, fixed at first dispatch so
    /// a retry re-executes against the *same* pages (simple requests use a
    /// single binding set).
    pub bindings: Vec<Vec<PageNum>>,
    /// Sub-calls of a multicall already logged as complete.
    pub completed_subcalls: usize,
    /// Set by recovery's retry enhancements: re-execute on next dispatch.
    pub will_retry: bool,
}

/// What kind of request is pending.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PendingKind {
    /// A hypercall.
    Hypercall(HcRequest),
    /// A forwarded syscall.
    Syscall,
}

/// Normal-operation support features the recovery mechanism configures on
/// the hypervisor (they exist to make recovery possible and are the source
/// of the paper's normal-operation overhead, Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpSupport {
    /// Undo logging for non-idempotent hypercalls (Section IV). The paper's
    /// "NiLiHype*" configuration turns this off.
    pub undo_logging: bool,
    /// Code reordering that shrinks non-idempotent vulnerability windows.
    pub reorder_nonidem: bool,
    /// Per-sub-call completion logging for batched hypercalls.
    pub batched_completion_log: bool,
    /// Log I/O APIC register writes (needed by ReHype only).
    pub ioapic_write_log: bool,
    /// Log boot-line options (needed by ReHype only).
    pub bootline_log: bool,
    /// Save guest FS/GS when an error is detected (Section IV).
    pub save_fsgs: bool,
}

impl OpSupport {
    /// Everything enabled — NiLiHype's evaluated configuration (the I/O APIC
    /// and boot-line logs are harmless when unused).
    pub fn full() -> Self {
        OpSupport {
            undo_logging: true,
            reorder_nonidem: true,
            batched_completion_log: true,
            ioapic_write_log: true,
            bootline_log: true,
            save_fsgs: true,
        }
    }

    /// Nothing enabled — the "basic" starting point of the ladders.
    pub fn none() -> Self {
        OpSupport {
            undo_logging: false,
            reorder_nonidem: false,
            batched_completion_log: false,
            ioapic_write_log: false,
            bootline_log: false,
            save_fsgs: false,
        }
    }
}

impl Default for OpSupport {
    fn default() -> Self {
        OpSupport::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_idempotence_classification() {
        assert!(HcRequest::PinPages(1).is_non_idempotent());
        assert!(HcRequest::MemoryDecrease(1).is_non_idempotent());
        assert!(HcRequest::GrantMap { from: DomId(0) }.is_non_idempotent());
        assert!(!HcRequest::XenVersion.is_non_idempotent());
        assert!(!HcRequest::ConsoleWrite.is_non_idempotent());
        assert!(!HcRequest::SetTimer.is_non_idempotent());
    }

    #[test]
    fn multicall_inherits_non_idempotence() {
        let clean = HcRequest::Multicall(vec![HcRequest::XenVersion, HcRequest::ConsoleWrite]);
        assert!(!clean.is_non_idempotent());
        let dirty = HcRequest::Multicall(vec![HcRequest::XenVersion, HcRequest::PinPages(1)]);
        assert!(dirty.is_non_idempotent());
    }

    #[test]
    fn entry_cause_accessors() {
        assert_eq!(EntryCause::Hypercall(VcpuId(3)).vcpu(), Some(VcpuId(3)));
        assert_eq!(EntryCause::Syscall(VcpuId(1)).vcpu(), Some(VcpuId(1)));
        assert_eq!(EntryCause::TimerInterrupt.vcpu(), None);
        assert!(EntryCause::TimerInterrupt.is_interrupt());
        assert!(EntryCause::DeviceInterrupt(IrqVector(1)).is_interrupt());
        assert!(!EntryCause::Hypercall(VcpuId(0)).is_interrupt());
    }

    #[test]
    fn op_support_presets() {
        let full = OpSupport::full();
        assert!(full.undo_logging && full.save_fsgs && full.batched_completion_log);
        let none = OpSupport::none();
        assert!(!none.undo_logging && !none.save_fsgs && !none.ioapic_write_log);
        assert_eq!(OpSupport::default(), full);
    }

    #[test]
    fn program_len() {
        let p = Program::new(
            EntryCause::TimerInterrupt,
            vec![MicroOp::EnterIrq, MicroOp::LeaveIrq],
            Vec::new(),
        );
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn fusion_table_marks_compute_runs_only() {
        let p = Program::new(
            EntryCause::TimerInterrupt,
            vec![
                MicroOp::EnterIrq,
                MicroOp::Compute,
                MicroOp::Compute,
                MicroOp::Compute,
                MicroOp::HeartbeatIncrement,
                MicroOp::Compute,
                MicroOp::LeaveIrq,
            ],
            Vec::new(),
        );
        assert_eq!(p.runs(), &[0, 3, 2, 1, 0, 1, 0]);
        assert_eq!(p.run_len_at(1), 3);
        assert_eq!(p.run_len_at(4), 0);
        assert_eq!(p.run_len_at(99), 0);
    }

    #[test]
    fn pool_recycles_fusion_table_with_ops() {
        let mut pool = ProgramPool::new();
        let p = Program::new(
            EntryCause::Scheduler,
            vec![MicroOp::Compute, MicroOp::Compute],
            Vec::new(),
        );
        pool.give(p.into_buffer().expect("pooled body"));
        let (ops, runs) = pool.take();
        assert!(ops.is_empty() && runs.is_empty());
        assert!(ops.capacity() >= 2 && runs.capacity() >= 2);
    }

    #[test]
    fn fixed_multicall_matches_vec_multicall() {
        for shape in [MulticallShape::PinProbeUnpinTimer, MulticallShape::PinUnpin] {
            let fixed = HcRequest::FixedMulticall(shape);
            let grown = HcRequest::Multicall(shape.calls().to_vec());
            assert_eq!(fixed.multicall_calls(), grown.multicall_calls());
            assert_eq!(fixed.is_non_idempotent(), grown.is_non_idempotent());
            assert!(fixed.is_non_idempotent(), "both shapes pin pages");
        }
    }
}
