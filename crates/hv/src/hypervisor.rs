//! The aggregate simulated machine and its micro-op execution loop.
//!
//! A [`Hypervisor`] owns every subsystem (memory, locks, scheduler, timers,
//! interrupts, domains) plus per-CPU runtime state. The simulation advances
//! by stepping the CPU with the smallest local clock; a step is either a
//! slice of guest execution or exactly one hypervisor [`MicroOp`]. All the
//! recovery-relevant residue — held locks, interrupt nesting, partial
//! hypercalls, unprogrammed APIC timers — arises from abandoning these
//! micro-op programs mid-flight.

use std::collections::VecDeque;

use nlh_sim::trace::{TraceLevel, TraceRing};
use nlh_sim::{
    CpuId, Cycles, DomId, IrqVector, LockId, PageNum, Pcg64, SimDuration, SimTime, VcpuId,
};

use crate::accounting::CycleAccounting;
use crate::config::{HvTuning, MachineConfig};
use crate::detect::{Detection, DetectionKind};
use crate::domain::{Domain, DomainSpec, DomainState, GuestNotice, GuestOp};
use crate::hypercalls::{
    EntryCause, HandlerKind, HcRequest, MicroOp, OpSupport, PendingKind, PendingRequest, Program,
    ProgramPool, UndoEntry,
};
use crate::interrupts::{GuestEventKind, IrqSubsystem, VEC_BLK, VEC_NET};
use crate::locks::{AcquireOutcome, LockPlacement, LockRegistry, StaticLock};
use crate::mem::{Heap, HeapObjKind, PageFrameTable, PageState};
use crate::percpu::PerCpu;
use crate::sched::Scheduler;
use crate::timers::{TimerEvent, TimerEventKind, TimerSubsystem};

/// Coarse per-CPU execution mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuMode {
    /// Running guest code or idling; the scheduler decides which each step.
    Run,
    /// Executing hypervisor micro-ops (a non-empty program stack).
    Hv,
    /// Parked in the recovery busy-wait.
    Parked,
    /// Spinning in a fault-induced infinite loop with interrupts disabled
    /// (will be caught by the watchdog).
    Wedged,
}

/// What one simulation step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// A slice of guest execution.
    Guest,
    /// One hypervisor micro-op.
    HvOp,
    /// Idle/parked/wedged time passed.
    Idle,
    /// Nothing ran: a detection is pending and the machine is frozen until
    /// recovery clears it.
    Frozen,
}

/// Charge base for pure log-write micro-ops (a store plus a pointer
/// bump, far cheaper than a full micro-op).
const LOG_OP_BASE_CYCLES: u64 = 150;

/// An in-flight hypervisor execution on one CPU.
#[derive(Debug, Clone)]
struct Frame {
    program: Program,
    pc: usize,
}

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

/// External NetBench traffic: the sender on a separate physical host that
/// emits one UDP packet per millisecond (Section VI-A).
#[derive(Debug, Clone)]
pub struct NetTraffic {
    /// The receiving domain.
    pub target: DomId,
    /// Packet period (1 ms in the paper).
    pub period: SimDuration,
    /// Next packet send time.
    pub next: SimTime,
    /// Next sequence number.
    pub seq: u64,
    /// Packets handed to (or dropped at) the guest so far.
    pub delivered: u64,
    /// Packets dropped because the receive ring was full.
    pub drops: u64,
    /// Receive-ring capacity.
    pub ring_capacity: usize,
}

/// Result of a batched injector counting window
/// ([`Hypervisor::run_counting`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountingWindow {
    /// Remaining micro-op budget (0 once the window is in its fire-attempt
    /// region).
    pub left: u64,
    /// Remaining handler-steering depth (meaningful only with a handler
    /// filter).
    pub depth_left: u64,
    /// The CPU whose last step satisfied the fire condition, if the window
    /// got that far before the deadline (or an organic detection) stopped
    /// it. The hypervisor is left exactly at that post-step instant; the
    /// caller performs the injection itself.
    pub fired: Option<CpuId>,
}

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

/// The simulated virtualization platform.
///
/// See the crate docs for the overall model. Most subsystem fields are
/// public: the recovery mechanisms (`nlh-core`) and the fault injector
/// (`nlh-inject`) operate on them exactly as the paper's code operates on
/// Xen's internals.
///
/// The whole platform is `Clone`: a freshly booted system can be stored
/// as a template and deep-copied per trial, which is how the campaign's
/// warm-start engine avoids paying the boot cost on every trial.
#[derive(Debug, Clone)]
pub struct Hypervisor {
    /// Machine parameters.
    pub config: MachineConfig,
    /// Simulation tuning.
    pub tuning: HvTuning,
    /// Normal-operation recovery-support features.
    pub support: OpSupport,
    /// Page-frame descriptors.
    pub pft: PageFrameTable,
    /// The hypervisor heap.
    pub heap: Heap,
    /// All spinlocks.
    pub locks: LockRegistry,
    /// Per-CPU architectural state.
    pub percpu: Vec<PerCpu>,
    /// The vCPU scheduler.
    pub sched: Scheduler,
    /// Software timer heaps.
    pub timers: TimerSubsystem,
    /// Interrupt + event-channel state.
    pub irqs: IrqSubsystem,
    /// All domains, indexed by [`DomId`].
    pub domains: Vec<Domain>,
    /// Cycle accounting.
    pub accounting: CycleAccounting,
    /// The trial's deterministic RNG.
    pub rng: Pcg64,
    /// Debug trace ring.
    pub trace: TraceRing,
    /// External NetBench traffic source, if configured.
    pub net: Option<NetTraffic>,
    /// `(seq, time)` of every NetBench reply observed by the sender.
    pub net_replies: Vec<(u64, SimTime)>,
    /// Virtio devices and the virtual switch connecting net ports.
    pub virtio: nlh_virtio::VirtioState,
    /// Domain specifications waiting for a `domctl` create hypercall.
    pub create_queue: VecDeque<DomainSpec>,
    /// The undo log for non-idempotent hypercalls (Section IV).
    pub undo_log: Vec<(VcpuId, UndoEntry)>,
    /// ReHype's I/O APIC write log (reconstructed routes).
    pub ioapic_log: Option<[Option<CpuId>; crate::interrupts::NUM_VECTORS]>,
    /// Evidence of the boot-time memory scrub, when one was performed
    /// (see [`Hypervisor::run_boot_scrub`]).
    pub scrub: Option<crate::mem::ScrubLedger>,
    /// Last successful platform time synchronization.
    pub last_time_sync: SimTime,
    /// Fault-injection target: static scratch state that a reboot
    /// re-initializes but microreset keeps in place.
    pub boot_scratch_corrupted: bool,
    /// Fault-injection target: whether the recovery routine itself is still
    /// intact (the paper's top recovery-failure reason when corrupted).
    pub recovery_entry_ok: bool,
    /// Per-CPU runqueue locks (heap-allocated, as in Xen).
    pub runq_locks: Vec<LockId>,
    /// Per-CPU timer-heap locks (heap-allocated).
    pub timer_locks: Vec<LockId>,
    /// Map vCPU → owning domain.
    pub vcpu_dom: Vec<DomId>,
    /// Superop dispatch knob. On (the default), the batched stepper
    /// executes whole precompiled runs of [`MicroOp::Compute`] as single
    /// fused superops, fast-forwards provably-idle windows in bulk, and
    /// lets the injector's counting window ride the batched path; off,
    /// every micro-op dispatches individually exactly as before PR 10.
    /// Simulated behaviour is bit-identical either way (pinned by
    /// differential tests); the knob exists so benchmarks and tests can
    /// compare the two dispatch engines. See ARCHITECTURE.md §9.
    pub superops: bool,

    cpu_now: Vec<SimTime>,
    cpu_mode: Vec<CpuMode>,
    stacks: Vec<Vec<Frame>>,
    detection: Option<Detection>,
    steps: u64,
    /// Per-CPU free lists of micro-op buffers (see [`ProgramPool`]).
    pools: Vec<ProgramPool>,
    /// Reusable scratch for `build_timer_interrupt`'s due-event inspection.
    timer_scratch: Vec<TimerEvent>,
    /// Free lists recycling request-binding storage (the page lists a
    /// hypercall fixes at entry and drops at commit), plus the candidate
    /// and shuffle scratch `bind_simple` needs. Like the program pools,
    /// this is host-side memory reuse only — bindings are bit-identical
    /// with recycling on or off, since `pick_n_into` draws the same RNG
    /// sequence regardless of where the output lands.
    binding_pool: Vec<Vec<PageNum>>,
    binding_set_pool: Vec<Vec<Vec<PageNum>>>,
    page_scratch: Vec<PageNum>,
    idx_scratch: Vec<usize>,
    // Cached pick for `step_any`: while `next_valid` holds, `next_cpu` is
    // the argmin of `cpu_now` provided its clock is still below
    // `next_bound` (the second-smallest clock at the last scan, held by
    // `next_bound_cpu`). Per-CPU clocks only move forward during stepping,
    // so stepping the cached CPU cannot promote any other CPU past it —
    // the only non-monotonic clock write is `resume_after`, which
    // invalidates. Ties replicate `min_by_key`'s first-index choice: the
    // cache stays valid at `t == next_bound` only while `next_cpu <
    // next_bound_cpu`.
    next_cpu: u32,
    next_bound: SimTime,
    next_bound_cpu: u32,
    next_valid: bool,
    // Set by `MicroOp::IoapicWrite` so the batched steppers recompute
    // their hoisted check horizon: re-routing a device vector can make an
    // already-due packet time relevant on the newly routed CPU. Every
    // other in-dispatch mutation moves check deadlines forward (watchdog
    // periods, `net.next`) or parks a CPU (which only *raises* the
    // horizon), and cross-call mutations (recovery, `resume_after`,
    // direct subsystem pokes) are covered by the recompute on
    // batched-loop entry. Local APIC one-shots are *not* folded into the
    // horizon — `step_run` polls `take_fire` on every dispatch — so
    // `MicroOp::ProgramApic` does not touch this flag.
    horizon_dirty: bool,
    // Memoized cycle->nanosecond conversions for the dispatch hot path
    // (host bookkeeping, not simulated state: never part of the digest).
    // Slot layout: [cycle_count, cpu_freq_mhz, nanos]; `op_ns_cache[0]`
    // serves full micro-op charges, `op_ns_cache[1]` pure log writes, and
    // `run_cost_cache` is `fused_hv_run`'s (per-op, worst-case) pair keyed
    // by the tuning knobs and frequency it was computed from.
    op_ns_cache: [[u64; 3]; 2],
    run_cost_cache: [u64; 6],
}

impl Hypervisor {
    /// Boots a hypervisor on `config` with the given RNG seed. No domains
    /// exist yet; add them with [`Hypervisor::add_boot_domain`].
    pub fn new(config: MachineConfig, seed: u64) -> Self {
        Self::with_tuning(config, HvTuning::calibrated(), seed)
    }

    /// Boots with explicit tuning parameters.
    pub fn with_tuning(config: MachineConfig, tuning: HvTuning, seed: u64) -> Self {
        let n = config.num_cpus;
        let mut pft = PageFrameTable::new(config.num_pages());
        let mut heap = Heap::new();
        let mut locks = LockRegistry::new();
        let mut timers = TimerSubsystem::new(n);

        let mut runq_locks = Vec::with_capacity(n);
        let mut timer_locks = Vec::with_capacity(n);
        for cpu in 0..n {
            let rl = locks.register(format!("runq[{cpu}]"), LockPlacement::Heap);
            heap.alloc(&mut pft, HeapObjKind::PerCpuSched(cpu as u32), 1, Some(rl))
                .expect("boot heap allocation cannot fail");
            runq_locks.push(rl);
            let tl = locks.register(format!("timer_heap[{cpu}]"), LockPlacement::Heap);
            heap.alloc(&mut pft, HeapObjKind::PerCpuTimer(cpu as u32), 1, Some(tl))
                .expect("boot heap allocation cannot fail");
            timer_locks.push(tl);
        }

        // Register the recurring events, staggered so CPUs do not tick in
        // lockstep.
        let stagger = |cpu: usize, k: u64| SimDuration::from_micros(97 * cpu as u64 + 13 * k);
        timers.insert(
            CpuId(0),
            TimerEvent {
                deadline: SimTime::ZERO + tuning.time_sync_period,
                kind: TimerEventKind::TimeSync,
                period: Some(tuning.time_sync_period),
            },
        );
        for cpu in 0..n {
            timers.insert(
                CpuId::from_index(cpu),
                TimerEvent {
                    deadline: SimTime::ZERO + tuning.watchdog_heartbeat_period + stagger(cpu, 1),
                    kind: TimerEventKind::WatchdogHeartbeat(CpuId::from_index(cpu)),
                    period: Some(tuning.watchdog_heartbeat_period),
                },
            );
            timers.insert(
                CpuId::from_index(cpu),
                TimerEvent {
                    deadline: SimTime::ZERO + tuning.tick_period + stagger(cpu, 2),
                    kind: TimerEventKind::SchedTick(CpuId::from_index(cpu)),
                    period: Some(tuning.tick_period),
                },
            );
        }

        let mut percpu: Vec<PerCpu> = (0..n)
            .map(|cpu| PerCpu::new(SimTime::ZERO + tuning.watchdog_nmi_period + stagger(cpu, 3)))
            .collect();
        for (cpu, pc) in percpu.iter_mut().enumerate() {
            if let Some(d) = timers.peek_deadline(CpuId::from_index(cpu)) {
                pc.apic.program(d);
            }
        }

        Hypervisor {
            accounting: CycleAccounting::new(n),
            sched: Scheduler::new(n),
            irqs: IrqSubsystem::new(n, 4),
            percpu,
            timers,
            heap,
            locks,
            pft,
            rng: Pcg64::seed_from_u64(seed),
            trace: TraceRing::disabled(),
            net: None,
            net_replies: Vec::new(),
            virtio: nlh_virtio::VirtioState::new(),
            create_queue: VecDeque::new(),
            undo_log: Vec::new(),
            ioapic_log: None,
            scrub: None,
            last_time_sync: SimTime::ZERO,
            boot_scratch_corrupted: false,
            recovery_entry_ok: true,
            runq_locks,
            timer_locks,
            vcpu_dom: Vec::new(),
            superops: true,
            cpu_now: vec![SimTime::ZERO; n],
            cpu_mode: vec![CpuMode::Run; n],
            stacks: vec![Vec::new(); n],
            detection: None,
            steps: 0,
            pools: vec![ProgramPool::new(); n],
            timer_scratch: Vec::new(),
            binding_pool: Vec::new(),
            binding_set_pool: Vec::new(),
            page_scratch: Vec::new(),
            idx_scratch: Vec::new(),
            next_cpu: 0,
            next_bound: SimTime::ZERO,
            next_bound_cpu: 0,
            next_valid: false,
            horizon_dirty: false,
            op_ns_cache: [[u64::MAX; 3]; 2],
            run_cost_cache: [u64::MAX; 6],
            domains: Vec::new(),
            support: OpSupport::full(),
            config,
            tuning,
        }
    }

    /// Performs the boot-time memory scrub over all page frames (Xen's
    /// `bootscrub`, on by default) and records its ledger.
    ///
    /// This walk over all of simulated RAM is the dominant cost of a cold
    /// platform boot — the reason reboot-based recovery is slow, and the
    /// work a campaign's boot cache amortizes across trials. It is
    /// deterministic and seed-independent: a cloned scrubbed system is
    /// indistinguishable from a freshly scrubbed one. [`Hypervisor::new`]
    /// does not scrub, so unit tests and latency experiments that only
    /// need structure stay cheap; the campaign boot path does.
    pub fn run_boot_scrub(&mut self) {
        self.scrub = Some(crate::mem::boot_scrub(self.pft.len()));
    }

    // ------------------------------------------------------------------
    // Domain construction
    // ------------------------------------------------------------------

    /// Creates a domain at boot time (before the measurement window), as
    /// `xl create` would before the benchmark starts. Returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the machine is out of memory (a configuration error).
    pub fn add_boot_domain(&mut self, spec: DomainSpec) -> DomId {
        let id = DomId::from_index(self.domains.len());
        let vcpu = VcpuId::from_index(self.vcpu_dom.len());
        let mut dom = Domain::new(id, spec.kind, vcpu, spec.pinned_cpu);
        dom.target_pages = spec.pages;
        for _ in 0..spec.pages {
            let p = self
                .pft
                .alloc(Some(id), PageState::DomainOwned)
                .expect("boot domain allocation failed: machine too small");
            dom.owned_pages.push(p);
        }
        dom.program = Some(spec.program);
        dom.state = DomainState::Active;
        self.vcpu_dom.push(id);
        self.sched.register_vcpu(vcpu, spec.pinned_cpu);
        self.irqs.ensure_domain(id);
        self.timers.insert(
            spec.pinned_cpu,
            TimerEvent {
                deadline: SimTime::ZERO + self.tuning.tick_period,
                kind: TimerEventKind::DomainTimer(vcpu),
                period: Some(self.tuning.tick_period),
            },
        );
        // Switch the vCPU in immediately (boot-time, consistent) — unless
        // the CPU is already occupied by another vCPU (shared-CPU
        // configurations), in which case it waits on the runqueue for the
        // scheduler tick.
        if self.sched.current(spec.pinned_cpu).is_none() {
            self.sched.dequeue(vcpu);
            self.sched
                .cs_set_percpu_current(spec.pinned_cpu, Some(vcpu));
            self.sched.cs_set_running_on(vcpu, Some(spec.pinned_cpu));
            self.sched.cs_set_is_current(vcpu, true);
        }
        self.domains.push(dom);
        id
    }

    /// Queues a specification for the next `domctl` create hypercall (the
    /// PrivVM creates the post-recovery BlkBench VM this way in the 3AppVM
    /// setup).
    pub fn queue_domain_creation(&mut self, spec: DomainSpec) {
        self.create_queue.push_back(spec);
    }

    /// Attaches the external NetBench sender.
    pub fn attach_net_traffic(&mut self, target: DomId, period: SimDuration) {
        let cpu = self.domains[target.index()].pinned_cpu;
        self.irqs.ioapic_write(VEC_NET, Some(cpu));
        self.net = Some(NetTraffic {
            target,
            period,
            next: SimTime::ZERO + period,
            seq: 0,
            delivered: 0,
            drops: 0,
            ring_capacity: 4096,
        });
    }

    /// Attaches a virtio-blk device to `dom`, routing its completion
    /// vector ([`VEC_BLK`]) to the domain's pinned CPU. Returns the device
    /// index (for diagnostics; blk ports do not join the vswitch).
    pub fn add_virtio_blk(&mut self, dom: DomId) -> usize {
        let cpu = self.domains[dom.index()].pinned_cpu;
        self.irqs.ioapic_write(VEC_BLK, Some(cpu));
        self.virtio.add_device(nlh_virtio::VirtioDevice::new(
            dom,
            nlh_virtio::VirtioDeviceKind::Blk,
            VEC_BLK,
        ))
    }

    /// Attaches a virtio-net port to `dom`, routing [`VEC_NET`] to the
    /// domain's pinned CPU (there is one global route per vector, so with
    /// several ports the last attach wins it — deterministic; the delivery
    /// handler drains every same-vector device regardless of which CPU it
    /// ran on). Returns the port index for [`Hypervisor::connect_vswitch`].
    pub fn add_virtio_net(&mut self, dom: DomId) -> usize {
        let cpu = self.domains[dom.index()].pinned_cpu;
        self.irqs.ioapic_write(VEC_NET, Some(cpu));
        self.virtio.add_device(nlh_virtio::VirtioDevice::new(
            dom,
            nlh_virtio::VirtioDeviceKind::Net,
            VEC_NET,
        ))
    }

    /// Cross-connects two virtio-net ports through the virtual switch.
    pub fn connect_vswitch(&mut self, a: usize, b: usize) {
        self.virtio.connect(a, b);
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The pending detection, if an error has been detected.
    pub fn detection(&self) -> Option<&Detection> {
        self.detection.as_ref()
    }

    /// The earliest per-CPU clock (the machine's notion of "now").
    pub fn now(&self) -> SimTime {
        self.cpu_now.iter().copied().min().unwrap_or(SimTime::ZERO)
    }

    /// The latest per-CPU clock.
    pub fn now_max(&self) -> SimTime {
        self.cpu_now.iter().copied().max().unwrap_or(SimTime::ZERO)
    }

    /// The local clock of `cpu`.
    pub fn cpu_now(&self, cpu: CpuId) -> SimTime {
        self.cpu_now[cpu.index()]
    }

    /// The execution mode of `cpu`.
    pub fn cpu_mode(&self, cpu: CpuId) -> CpuMode {
        self.cpu_mode[cpu.index()]
    }

    /// Sets a CPU's execution mode (used by the fault-injection surface).
    pub(crate) fn set_cpu_mode(&mut self, cpu: CpuId, mode: CpuMode) {
        self.cpu_mode[cpu.index()] = mode;
    }

    /// Whether `cpu` is mid-way through a hypervisor program (at least one
    /// micro-op executed, at least one remaining). The injector targets
    /// these points: on real hardware there is no architecturally "clean"
    /// instant of hypervisor execution between two handlers.
    pub fn cpu_mid_program(&self, cpu: CpuId) -> bool {
        self.cpu_mode[cpu.index()] == CpuMode::Hv
            && self.stacks[cpu.index()]
                .last()
                .map(|f| f.pc >= 1)
                .unwrap_or(false)
    }

    /// The entry cause and program counter of the handler currently
    /// executing on `cpu`, or `None` if the CPU has no hypervisor program
    /// in flight. This is the "injection point" a trial record captures:
    /// which handler the fault struck and how many of its micro-ops had
    /// already retired.
    pub fn cpu_program_context(&self, cpu: CpuId) -> Option<(EntryCause, usize)> {
        self.stacks[cpu.index()]
            .last()
            .map(|f| (f.program.cause, f.pc))
    }

    /// Total micro-ops in the program currently executing on `cpu`.
    pub fn cpu_program_len(&self, cpu: CpuId) -> Option<usize> {
        self.stacks[cpu.index()].last().map(|f| f.program.len())
    }

    /// The micro-op `cpu` would execute next, or `None` if the CPU is not
    /// mid-program (or its program is exhausted). Divergence bisection uses
    /// this to report *what* the first divergent step was about to do.
    pub fn cpu_current_op(&self, cpu: CpuId) -> Option<MicroOp> {
        self.stacks[cpu.index()]
            .last()
            .and_then(|f| f.program.ops().get(f.pc).copied())
    }

    /// The CPU [`Hypervisor::step_any`] would step next, without mutating
    /// the scheduler-pick cache. A pure argmin over the per-CPU clocks with
    /// the first index winning ties — the same choice `step_any` makes.
    pub fn peek_next_cpu(&self) -> CpuId {
        let mut best = 0usize;
        let mut best_t = self.cpu_now[0];
        for (i, &t) in self.cpu_now.iter().enumerate().skip(1) {
            if t < best_t {
                best = i;
                best_t = t;
            }
        }
        CpuId::from_index(best)
    }

    /// A deterministic fingerprint of the machine's mutable state.
    ///
    /// Divergence bisection runs two trials to the same step count and
    /// compares fingerprints; the first step at which they differ is where
    /// the executions split. The digest covers everything the step loop
    /// can mutate — clocks, modes, in-flight programs, RNG position,
    /// memory, locks, scheduler, timers, interrupts, domains (including
    /// workload state), undo log, network state, detection — and excludes
    /// host-side bookkeeping that does not affect simulated behaviour
    /// (the trace ring, program pools, the scheduler-pick cache), so a
    /// batched and an unbatched run of the same trial digest identically.
    pub fn state_digest(&self) -> u64 {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(16 * 1024);
        let (rs, ri) = self.rng.state_parts();
        let _ = write!(
            s,
            "steps={} rng={rs:x}.{ri:x} now={:?} modes={:?} det={:?} lts={:?} bsc={} reo={} ",
            self.steps,
            self.cpu_now,
            self.cpu_mode,
            self.detection,
            self.last_time_sync,
            self.boot_scratch_corrupted,
            self.recovery_entry_ok,
        );
        for stack in &self.stacks {
            for f in stack {
                let _ = write!(
                    s,
                    "[{:?}@{}/{} lg{}]",
                    f.program.cause,
                    f.pc,
                    f.program.len(),
                    f.program.logged
                );
            }
            s.push(';');
        }
        let _ = write!(
            s,
            "{:?}{:?}{:?}{:?}{:?}{:?}{:?}{:?}{:?}{:?}{:?}{:?}{:?}",
            self.pft,
            self.heap,
            self.locks,
            self.percpu,
            self.sched,
            self.timers,
            self.irqs,
            self.domains,
            self.accounting,
            self.undo_log,
            self.net,
            self.net_replies,
            self.ioapic_log,
        );
        let _ = write!(s, "cq={} scrub={:?}", self.create_queue.len(), self.scrub);
        if !self.virtio.is_empty() {
            let _ = write!(s, " virtio={:?}", self.virtio);
        }
        nlh_sim::digest::Fnv64::hash(s.as_bytes())
    }

    /// Total simulation steps executed on this machine (guest slices,
    /// micro-ops, idle quanta). Campaign telemetry divides this by wall
    /// time for its steps/sec throughput counter.
    pub fn steps_executed(&self) -> u64 {
        self.steps
    }

    /// A coarse estimate of this machine's host-resident footprint in
    /// bytes, dominated by the per-page-frame descriptors and the
    /// per-domain page lists. The boot cache uses this to account for
    /// cached templates under its LRU byte cap; it only needs to rank
    /// template sizes consistently, not to match the allocator byte for
    /// byte. Deterministic for a given machine/setup (it reads container
    /// lengths, never capacities or host pointers).
    pub fn estimated_template_bytes(&self) -> u64 {
        // Rough per-element descriptor sizes; fixed so the estimate is
        // stable across hosts and rustc layouts.
        const PAGE_DESC: u64 = 48;
        const PER_CPU: u64 = 512;
        const PER_DOMAIN: u64 = 1024;
        const PER_TIMER_OR_LOCK: u64 = 64;
        let pages = self.config.num_pages() as u64;
        let owned: u64 = self
            .domains
            .iter()
            .map(|d| (d.owned_pages.len() + d.pinned_pages.len()) as u64 * 8)
            .sum();
        let queued: u64 = self.create_queue.len() as u64 * PER_DOMAIN;
        pages * PAGE_DESC
            + owned
            + self.percpu.len() as u64 * PER_CPU
            + self.domains.len() as u64 * PER_DOMAIN
            + queued
            + (self.locks.len() + self.timers.total_len()) as u64 * PER_TIMER_OR_LOCK
            + self.virtio.devices.len() as u64 * 4096
    }

    /// Number of physical CPUs.
    pub fn num_cpus(&self) -> usize {
        self.config.num_cpus
    }

    /// The domain owning `vcpu`.
    pub fn domain_of(&self, vcpu: VcpuId) -> DomId {
        self.vcpu_dom[vcpu.index()]
    }

    /// vCPUs that currently have an in-flight (uncommitted) request.
    pub fn vcpus_with_pending(&self) -> Vec<VcpuId> {
        self.domains
            .iter()
            .filter(|d| d.pending.is_some())
            .map(|d| d.vcpu)
            .collect()
    }

    /// The recurring timer events that must exist for correct operation —
    /// what NiLiHype's "reactivate recurring timer events" enhancement
    /// re-creates when missing.
    pub fn expected_recurring(&self) -> Vec<(TimerEventKind, CpuId, SimDuration)> {
        let mut out = vec![(
            TimerEventKind::TimeSync,
            CpuId(0),
            self.tuning.time_sync_period,
        )];
        for cpu in 0..self.num_cpus() {
            let c = CpuId::from_index(cpu);
            out.push((
                TimerEventKind::WatchdogHeartbeat(c),
                c,
                self.tuning.watchdog_heartbeat_period,
            ));
            out.push((TimerEventKind::SchedTick(c), c, self.tuning.tick_period));
        }
        for d in &self.domains {
            if d.is_active() {
                out.push((
                    TimerEventKind::DomainTimer(d.vcpu),
                    d.pinned_cpu,
                    self.tuning.tick_period,
                ));
            }
        }
        out
    }

    /// Whether platform time synchronization is healthy at `now` (has run
    /// within three periods). A stale platform clock means the hypervisor
    /// is no longer operating correctly.
    pub fn time_sync_healthy(&self, now: SimTime) -> bool {
        now.saturating_since(self.last_time_sync) < self.tuning.time_sync_period * 4
    }

    // ------------------------------------------------------------------
    // Detection
    // ------------------------------------------------------------------

    /// Raises a hypervisor panic on `cpu`. The first detection wins; later
    /// ones are ignored (the machine is already frozen).
    pub fn raise_panic(&mut self, cpu: CpuId, reason: impl Into<String>) {
        if self.detection.is_none() {
            let d = Detection::new(self.cpu_now[cpu.index()], cpu, DetectionKind::Panic, reason);
            nlh_sim::trace_event!(self.trace, d.at, TraceLevel::Event, "PANIC: {d}");
            self.detection = Some(d);
        }
    }

    /// Raises a watchdog hang detection on `cpu`.
    pub fn raise_hang(&mut self, cpu: CpuId, reason: impl Into<String>) {
        if self.detection.is_none() {
            let d = Detection::new(self.cpu_now[cpu.index()], cpu, DetectionKind::Hang, reason);
            nlh_sim::trace_event!(self.trace, d.at, TraceLevel::Event, "HANG: {d}");
            self.detection = Some(d);
        }
    }

    // ------------------------------------------------------------------
    // The step loop
    // ------------------------------------------------------------------

    /// Steps the CPU with the earliest local clock.
    pub fn step_any(&mut self) -> (CpuId, StepOutcome) {
        let cpu = self.pick_next_cpu();
        let out = self.step(cpu);
        (cpu, out)
    }

    /// The CPU `step_any` would step next (the argmin of the per-CPU
    /// clocks, first index winning ties), served from the cache when the
    /// cached CPU provably still holds the minimum.
    fn pick_next_cpu(&mut self) -> CpuId {
        if self.next_valid {
            let c = self.next_cpu as usize;
            let t = self.cpu_now[c];
            if t < self.next_bound || (t == self.next_bound && self.next_cpu < self.next_bound_cpu)
            {
                return CpuId::from_index(c);
            }
        }
        self.rescan_next_cpu()
    }

    /// Full O(#CPUs) scan: finds the argmin clock and records the
    /// second-smallest as the cache bound.
    fn rescan_next_cpu(&mut self) -> CpuId {
        let mut best = 0usize;
        let mut best_t = self.cpu_now[0];
        let mut bound = SimTime::FAR_FUTURE;
        let mut bound_cpu = u32::MAX;
        for (i, &t) in self.cpu_now.iter().enumerate().skip(1) {
            if t < best_t {
                bound = best_t;
                bound_cpu = best as u32;
                best = i;
                best_t = t;
            } else if t < bound {
                bound = t;
                bound_cpu = i as u32;
            }
        }
        self.next_cpu = best as u32;
        self.next_bound = bound;
        self.next_bound_cpu = bound_cpu;
        self.next_valid = true;
        CpuId::from_index(best)
    }

    /// Runs until `deadline` or until an error is detected.
    ///
    /// This is the batched fast path: per-step entry checks (the watchdog
    /// NMI comparison, external net-traffic generation) are hoisted out of
    /// the inner loop for every stretch in which their deadlines provably
    /// cannot arrive. The executed step sequence is bit-identical to
    /// [`Hypervisor::run_until_unbatched`] (differential-tested).
    pub fn run_until(&mut self, deadline: SimTime) {
        self.run_batched(deadline, None);
    }

    /// Runs for `dur` of simulated time or until an error is detected.
    pub fn run_for(&mut self, dur: SimDuration) {
        let deadline = self.now() + dur;
        self.run_until(deadline);
    }

    /// Reference step loop: one fully checked [`Hypervisor::step_any`] per
    /// iteration, exactly as `run_until` worked before batching. Kept at
    /// runtime so differential tests can pin the batched loop against it.
    pub fn run_until_unbatched(&mut self, deadline: SimTime) {
        while self.detection.is_none() && self.now() < deadline {
            self.step_any();
        }
    }

    /// Batched run that additionally stops right after the first step that
    /// carries the stepped CPU's clock to `marker` or beyond, returning
    /// that step's outcome. The campaign trial loop uses this to race
    /// batched through the pre-injection window and hand the exact
    /// transition step to the fault injector.
    pub fn run_until_marker(
        &mut self,
        deadline: SimTime,
        marker: SimTime,
    ) -> Option<(CpuId, StepOutcome)> {
        self.run_batched(deadline, Some(marker))
    }

    /// Batched execution of the fault injector's counting window: runs
    /// exactly like [`Hypervisor::run_until`] while advancing the
    /// injector's second-level trigger automaton on every step, and stops
    /// *at* the step the injector would fire on (without injecting — the
    /// caller owns the corruption draw).
    ///
    /// The automaton is the per-step `Injector::on_step` Counting phase,
    /// verbatim: a hypervisor micro-op decrements `left`; once `left`
    /// reaches zero, each subsequent hypervisor micro-op is a fire
    /// attempt that succeeds when the post-step state is mid-program
    /// (and, with a handler filter, inside the right handler family with
    /// the steering depth exhausted). Fused superop spans are bulk
    /// decrements: they are capped at the remaining `left`, so no fire
    /// attempt is ever buried inside a span, and the fire-attempt region
    /// itself runs op-at-a-time. Bit-identity with the per-step window is
    /// pinned by differential tests.
    pub fn run_counting(
        &mut self,
        deadline: SimTime,
        mut left: u64,
        only: Option<HandlerKind>,
        mut depth_left: u64,
    ) -> CountingWindow {
        let mut fired = None;
        'outer: loop {
            if self.detection.is_some() || fired.is_some() {
                break;
            }
            let mut horizon = self.check_horizon(deadline);
            loop {
                let cpu = self.pick_next_cpu();
                let t = self.cpu_now[cpu.index()];
                if t >= deadline {
                    break 'outer;
                }
                let checked = t >= horizon;
                if !checked {
                    if left > 0 {
                        let span = self.fused_hv_run(cpu, horizon, None, left);
                        if span > 0 {
                            // A step that raised a detection returned
                            // `Frozen`, not `HvOp`: it consumes no budget,
                            // exactly like the reference automaton.
                            let counted = if self.detection.is_some() {
                                span - 1
                            } else {
                                span
                            };
                            left -= counted;
                            if self.detection.is_some() {
                                break 'outer;
                            }
                            if self.horizon_dirty {
                                self.horizon_dirty = false;
                                horizon = self.check_horizon(deadline);
                            }
                            continue;
                        }
                    }
                    // Idle steps are not hypervisor micro-ops, so the
                    // counting automaton ignores them: the idle window can
                    // fast-forward without touching the budget.
                    if self.fused_idle_window(cpu, horizon, None) > 0 {
                        continue;
                    }
                }
                let out = if checked {
                    self.step(cpu)
                } else {
                    self.step_unchecked(cpu)
                };
                // The trigger automaton, advanced post-step exactly like
                // `Injector::on_step` in the Counting phase.
                if out == StepOutcome::HvOp {
                    if left > 0 {
                        left -= 1;
                    } else if self.cpu_mid_program(cpu) {
                        match only {
                            None => {
                                fired = Some(cpu);
                            }
                            Some(filter) => {
                                let here = self
                                    .cpu_program_context(cpu)
                                    .map(|(cause, _)| cause.handler_kind());
                                if here == Some(filter) {
                                    if depth_left > 0 {
                                        depth_left -= 1;
                                    } else {
                                        fired = Some(cpu);
                                    }
                                }
                            }
                        }
                    }
                }
                if checked || fired.is_some() {
                    // Recompute the horizon after a checked step, or leave
                    // with the fire step as the last step taken.
                    continue 'outer;
                }
                if self.detection.is_some() {
                    break 'outer;
                }
                if self.horizon_dirty {
                    self.horizon_dirty = false;
                    horizon = self.check_horizon(deadline);
                }
            }
        }
        CountingWindow {
            left,
            depth_left,
            fired,
        }
    }

    /// The batched stepping engine behind `run_until`/`run_until_marker`.
    ///
    /// Each outer iteration computes a *horizon*: the earliest instant at
    /// which any per-step entry check could have an effect — the smallest
    /// watchdog `next_check` over non-parked CPUs, the next external net
    /// packet time (when a net route exists), capped at `deadline`. While
    /// the next CPU's clock is below the horizon, steps run through
    /// [`Hypervisor::step_unchecked`], skipping the check comparisons the
    /// reference loop would have evaluated to no-ops. Once the horizon is
    /// reached, one fully checked [`Hypervisor::step`] runs (firing any due
    /// checks and pushing their deadlines forward) and the horizon is
    /// recomputed.
    fn run_batched(
        &mut self,
        deadline: SimTime,
        marker: Option<SimTime>,
    ) -> Option<(CpuId, StepOutcome)> {
        loop {
            if self.detection.is_some() {
                return None;
            }
            // The horizon is hoisted out of the unchecked inner loop: it
            // only moves *down* when an I/O APIC route is rewritten
            // mid-program (`horizon_dirty`); everything else that happens
            // in `dispatch_step` leaves it valid or raises it (stale-low
            // is merely a wasted checked step, never a missed check).
            let mut horizon = self.check_horizon(deadline);
            let cpu = loop {
                let cpu = self.pick_next_cpu();
                let t = self.cpu_now[cpu.index()];
                if t >= deadline {
                    return None;
                }
                if t >= horizon {
                    break cpu;
                }
                // Superop fast path: execute a fused run of micro-ops in
                // one dispatch when provably equivalent to stepping them
                // one by one (see `fused_hv_run`). The run is bounded
                // below the marker, so it can never be the marker-crossing
                // step; it breaks on detection and on a dirtied horizon,
                // handled here exactly as after a single unchecked step.
                if self.fused_hv_run(cpu, horizon, marker, u64::MAX) > 0 {
                    if self.detection.is_some() {
                        return None;
                    }
                    if self.horizon_dirty {
                        self.horizon_dirty = false;
                        horizon = self.check_horizon(deadline);
                    }
                    continue;
                }
                // Idle fast path: when everything below the horizon is
                // provably idle, fast-forward the whole window at once.
                if self.fused_idle_window(cpu, horizon, marker) > 0 {
                    continue;
                }
                let out = self.step_unchecked(cpu);
                if let Some(m) = marker {
                    if self.cpu_now[cpu.index()] >= m {
                        return Some((cpu, out));
                    }
                }
                if self.detection.is_some() {
                    return None;
                }
                if self.horizon_dirty {
                    self.horizon_dirty = false;
                    horizon = self.check_horizon(deadline);
                }
            };
            // A check deadline has arrived on the next CPU: take one fully
            // checked step so the check fires (and its deadline advances),
            // then recompute the horizon.
            let out = self.step(cpu);
            if let Some(m) = marker {
                if self.cpu_now[cpu.index()] >= m {
                    return Some((cpu, out));
                }
            }
        }
    }

    /// The earliest time at which a hoisted per-step check could matter.
    fn check_horizon(&self, deadline: SimTime) -> SimTime {
        let mut horizon = deadline;
        for (i, pc) in self.percpu.iter().enumerate() {
            // Parked CPUs are exempt from the watchdog NMI (exactly the
            // per-step check's own mode test).
            if self.cpu_mode[i] == CpuMode::Parked {
                continue;
            }
            if pc.watchdog.next_check < horizon {
                horizon = pc.watchdog.next_check;
            }
        }
        if let Some(net) = &self.net {
            if self.irqs.ioapic_route(VEC_NET).is_some() && net.next < horizon {
                horizon = net.next;
            }
        }
        horizon
    }

    /// The superop dispatcher's per-op clock costs, memoized on the
    /// tuning knobs and CPU frequency they were computed from: the plain
    /// micro-op advance and the worst-case single-op advance (the larger
    /// of a full micro-op and a pure-log base, plus the larger logging
    /// share), used for the conservative marker clip. Cycle-to-time
    /// conversion divides, and the operands only change when the caller
    /// retunes the machine — not once per fused op.
    fn fused_costs(&mut self) -> (u64, u64) {
        let key = [
            self.tuning.cycles_per_micro_op,
            self.tuning.cycles_per_log_write,
            self.tuning.cycles_per_completion_log,
            self.config.cpu_freq_mhz,
        ];
        if self.run_cost_cache[..4] == key {
            return (self.run_cost_cache[4], self.run_cost_cache[5]);
        }
        let f = self.config.cpu_freq_mhz;
        let d = Cycles(key[0]).to_duration(f).as_nanos();
        let worst = key[0].max(LOG_OP_BASE_CYCLES) + key[1].max(key[2]);
        let dmax = Cycles(worst).to_duration(f).as_nanos();
        self.run_cost_cache = [key[0], key[1], key[2], key[3], d, dmax];
        (d, dmax)
    }

    /// Memoized [`Cycles::to_duration`] for the two per-op charge shapes
    /// (`slot` 0: full micro-ops, `slot` 1: pure log writes), so the
    /// dispatch hot path divides only when a charge it has not seen
    /// before shows up.
    fn op_ns(&mut self, base: Cycles, slot: usize) -> u64 {
        let f = self.config.cpu_freq_mhz;
        let c = &mut self.op_ns_cache[slot];
        if c[0] == base.count() && c[1] == f {
            return c[2];
        }
        let ns = base.to_duration(f).as_nanos();
        *c = [base.count(), f, ns];
        ns
    }

    /// Executes up to `cap` micro-ops of the current handler program on
    /// `cpu` as one fused superop dispatch, returning how many steps were
    /// taken (0 means the caller must take a normal single step).
    ///
    /// Fusion rules (see ARCHITECTURE.md §9): a *run* is a maximal stretch
    /// of micro-ops that cannot suspend the program counter — everything
    /// except `Acquire`, whose contended arm spins in place and is the
    /// program’s abandonment boundary structure made visible to the
    /// dispatcher. Each fused op executes through [`Self::step_hv`]
    /// itself, so its side effects, charging, and program-counter motion
    /// are the reference’s own code; what the fused run elides is the
    /// outer loop’s per-step machinery (next-CPU pick, horizon compare,
    /// fusion attempts, outcome plumbing), which is provably no-op under
    /// the clip rules below. Runs of [`MicroOp::Compute`] — precompiled
    /// per program at build time ([`Program::runs`]) — take a faster bulk
    /// branch that charges the whole run in one call.
    ///
    /// The loop is clipped so that fusing is *provably* invisible next to
    /// the reference one-op-at-a-time execution:
    ///
    /// * every fused step's *start* time stays below `horizon`, where the
    ///   per-step entry checks are no-ops (Hv-mode dispatches never poll
    ///   the local APIC, so the one-shot needs no bound here);
    /// * every fused step's start stays within the cached next-CPU pick's
    ///   validity bound (including `min_by_key`'s first-index tie rule),
    ///   so cross-CPU interleaving — and the cache fields themselves —
    ///   match the reference exactly;
    /// * with a `marker`, every fused step's *post*-step time stays below
    ///   it (conservatively, using the largest charge any op can incur),
    ///   so the marker-crossing step itself runs through the normal path;
    /// * the run breaks on anything the outer loop would react to — a
    ///   raised detection (the detecting step returns `Frozen` exactly as
    ///   in the reference, and is excluded from the caller's micro-op
    ///   budget), a mode change (frame retirement dropping to `Run`), or
    ///   a dirtied horizon (`IoapicWrite`) — leaving the next step to the
    ///   caller;
    /// * the step count is fed to the injection trigger in bulk, and the
    ///   run is capped at the remaining budget so no fire attempt is ever
    ///   buried inside a fused run.
    fn fused_hv_run(
        &mut self,
        cpu: CpuId,
        horizon: SimTime,
        marker: Option<SimTime>,
        cap: u64,
    ) -> u64 {
        if !self.superops {
            return 0;
        }
        let i = cpu.index();
        if self.cpu_mode[i] != CpuMode::Hv {
            return 0;
        }
        let (d, dmax) = self.fused_costs();
        if d == 0 {
            return 0;
        }
        let h = horizon.as_nanos();
        // Pick-cache validity: starts may sit *at* `next_bound` only while
        // this CPU wins the `min_by_key` first-index tie.
        let nb = self.next_bound.as_nanos();
        let tie_win = self.next_cpu < self.next_bound_cpu;
        let mk = marker.map(|m| m.as_nanos());
        let mut executed: u64 = 0;
        while executed < cap {
            let t = self.cpu_now[i].as_nanos();
            if t >= h || t > nb || (t == nb && !tie_win) {
                break;
            }
            if let Some(mk) = mk {
                if t + dmax >= mk {
                    break;
                }
            }
            let f = match self.stacks[i].last() {
                Some(f) => f,
                None => break,
            };
            if f.pc >= f.program.len() {
                break;
            }
            let crun = f.program.run_len_at(f.pc) as u64;
            if crun >= 2 {
                // Bulk branch: a precompiled `Compute` run charges and
                // advances in one call (uniform cost, no side effects).
                let mut m = crun.min(cap - executed).min((h - t - 1) / d + 1);
                let cache_m = if tie_win {
                    (nb - t) / d + 1
                } else if nb <= t {
                    1
                } else {
                    (nb - t - 1) / d + 1
                };
                m = m.min(cache_m);
                if let Some(mk) = mk {
                    m = m.min(if mk <= t { 0 } else { (mk - t - 1) / d });
                }
                if m >= 2 {
                    self.steps += m;
                    self.accounting.charge_hv_span(
                        cpu,
                        Cycles(self.tuning.cycles_per_micro_op) * m,
                        m,
                    );
                    self.cpu_now[i] = SimTime::ZERO + SimDuration::from_nanos(t + m * d);
                    executed += m;
                    let f = self.stacks[i]
                        .last_mut()
                        .expect("span bounds checked above");
                    f.pc += m as usize;
                    if f.pc >= f.program.len() {
                        self.retire_frame(i);
                        if self.cpu_mode[i] != CpuMode::Hv {
                            break;
                        }
                    }
                    continue;
                }
                // The clips left less than a full bulk span; fall through
                // to a single fused op.
            }
            let op = f.program.ops()[f.pc];
            if let MicroOp::Acquire(l) = op {
                if self.locks.get(l).holder.is_some() {
                    break;
                }
                // A free lock is taken without suspending the pc, so the
                // run carries straight through the acquire.
            }
            // Single fused op: the reference dispatch itself, minus the
            // outer loop's bookkeeping.
            self.steps += 1;
            executed += 1;
            let out = self.step_hv(cpu);
            if out == StepOutcome::Frozen || self.cpu_mode[i] != CpuMode::Hv || self.horizon_dirty {
                break;
            }
        }
        executed
    }

    /// Bulk idle fast-forward: executes, in one dispatch, every idle
    /// step that provably commutes with the rest of the window, returning
    /// the number of steps taken (0 means the caller must take a normal
    /// single step).
    ///
    /// Equivalence argument (see ARCHITECTURE.md §9): a stable-idle step
    /// touches nothing but its own CPU's clock, which it advances by
    /// exactly one `idle_quantum`, so stable-idle steps of different CPUs
    /// commute — any interleaving reaches the same state in the same
    /// number of steps as the reference's strict clock order. Every CPU
    /// below the horizon is classified as *stable* (its next steps are
    /// provably pure clock advances: Parked/Wedged; an idle CPU with no
    /// runnable pick into an active domain and no pending IRQ or
    /// scheduler work; a CPU whose current vCPU's domain is inactive,
    /// stuck on an uncommitted request, or finished with no queued
    /// events) or *unstable* (mid-program, deliverable device interrupt,
    /// pending credit work, live workload — anything that could build a
    /// program or touch cross-CPU state). The window is then *capped* at
    /// the earliest instant anything non-commuting could happen:
    ///
    /// * every unstable CPU's clock — fused starts stay strictly below
    ///   it, i.e. before the reference would run that CPU's next step;
    /// * every stable CPU's local APIC one-shot — a due one-shot builds a
    ///   timer program whose micro-ops can reach cross-CPU state, so no
    ///   fused step may start at or after *any* deadline in the window
    ///   (the firing step itself runs singly, and the skipped per-step
    ///   `take_fire` polls below the cap are provably false;
    ///   Parked/Wedged dispatches never poll);
    /// * the hoisted `horizon` (where the watchdog and net-traffic entry
    ///   checks are no-ops) and, with a `marker`, the marker (post-step
    ///   times stay below it, so the crossing step runs normally).
    ///
    /// A sleeping idle CPU additionally fuses full quanta only, leaving
    /// the step that would clip to its deadline (`advance_to`) for the
    /// reference path.
    ///
    /// The classify pass starts at `first` (the caller's picked CPU,
    /// which holds the window's minimum clock): if the picked CPU itself
    /// is unstable the cap collapses to that minimum and nothing can
    /// fuse — the common case in busy phases, exiting after one
    /// classification and no division work.
    fn fused_idle_window(
        &mut self,
        first: CpuId,
        horizon: SimTime,
        marker: Option<SimTime>,
    ) -> u64 {
        if !self.superops {
            return 0;
        }
        let q = self.tuning.idle_quantum.as_nanos();
        let n = self.cpu_now.len();
        if q == 0 || n > 64 {
            return 0;
        }
        let h = horizon.as_nanos();
        let f = first.index().min(n);

        // Fast veto: the picked CPU is an idle sleeper about to clip to
        // its own one-shot (`advance_to` lands on the deadline, not a
        // full quantum away) — the clipping step always runs singly, so
        // the classification pass below could at best fuse other CPUs'
        // sub-quantum remainders. Skipping the attempt is free: the same
        // steps simply execute unfused. This is the block/wake rhythm of
        // a syscalling guest, the hottest idle shape in busy phases.
        if self.cpu_mode[f] == CpuMode::Run && self.sched.current(first).is_none() {
            let t0 = self.cpu_now[f].as_nanos();
            let dl0 = self.percpu[f]
                .apic
                .deadline()
                .map_or(u64::MAX, |d| d.as_nanos());
            if dl0.saturating_sub(t0) < q {
                return 0;
            }
        }

        // Pass 1: classify each sub-horizon CPU and fold the window cap.
        let mut stable: u64 = 0;
        let mut dls = [u64::MAX; 64];
        let mut full_q: u64 = 0;
        let mut cap = h;
        for i in (f..n).chain(0..f) {
            let t = self.cpu_now[i].as_nanos();
            if t >= h {
                continue;
            }
            match self.idle_stability(CpuId::from_index(i)) {
                Some((dl, fq)) => {
                    stable |= 1 << i;
                    dls[i] = dl;
                    if fq {
                        full_q |= 1 << i;
                    }
                    cap = cap.min(dl);
                }
                None => {
                    if i == f {
                        return 0;
                    }
                    cap = cap.min(t);
                }
            }
        }

        // Pass 2: size the spans (division work only on live windows).
        let mkb = marker.map(|m| m.as_nanos());
        let mut spans = [0u64; 64];
        let mut total: u64 = 0;
        for i in 0..n {
            if stable & (1 << i) == 0 {
                continue;
            }
            let t = self.cpu_now[i].as_nanos();
            if t >= cap {
                continue;
            }
            // Starts stay strictly below the cap...
            let mut m = if cap - t <= q {
                1
            } else {
                (cap - t - 1) / q + 1
            };
            // ...a sleeping idle CPU fuses full quanta toward its own
            // one-shot only...
            if full_q & (1 << i) != 0 && dls[i] != u64::MAX {
                m = m.min((dls[i] - t) / q);
            }
            // ...and, below a marker, post-step times stay below it.
            if let Some(mk) = mkb {
                m = m.min(if mk <= t { 0 } else { (mk - t - 1) / q });
            }
            spans[i] = m;
            total += m;
        }
        if total == 0 {
            return 0;
        }
        for (i, &m) in spans.iter().enumerate().take(n) {
            if m > 0 {
                self.cpu_now[i] =
                    SimTime::ZERO + SimDuration::from_nanos(self.cpu_now[i].as_nanos() + m * q);
            }
        }
        self.steps += total;
        // The bulk clock moves invalidate the cached next-CPU pick.
        self.next_valid = false;
        total
    }

    /// Classifies `cpu` for [`Self::fused_idle_window`]: `Some((deadline,
    /// full_quanta))` when its next steps are provably stable idle (the
    /// deadline is its local APIC one-shot, `u64::MAX` when unarmed;
    /// `full_quanta` marks a sleeping idle CPU whose steps clip to that
    /// deadline), `None` when the CPU could do real work. The checks
    /// mirror the single-step dispatch's entry conditions exactly
    /// (including [`Scheduler::cached_pick`], the generation-validated
    /// pick `step_idle` itself serves), ordered so the common busy-phase
    /// classification exits cheaply.
    fn idle_stability(&mut self, cpu: CpuId) -> Option<(u64, bool)> {
        let i = cpu.index();
        match self.cpu_mode[i] {
            // Parked/Wedged: the dispatch advances one quantum
            // unconditionally (no APIC poll), and only another CPU's
            // action could change the mode.
            CpuMode::Parked | CpuMode::Wedged => Some((u64::MAX, false)),
            // A mid-program CPU executes micro-ops with side effects:
            // its steps cannot be reordered against anything.
            CpuMode::Hv => None,
            CpuMode::Run => {
                let r = match self.sched.current(cpu) {
                    Some(v) => {
                        let dom = self.domain_of(v);
                        let d = &self.domains[dom.index()];
                        if d.is_active() {
                            if self.percpu[i].local_irq_count != 0 {
                                return None;
                            }
                            if let Some(p) = d.pending.as_ref() {
                                // A retry builds a program; a stuck
                                // request idles forever.
                                if p.will_retry {
                                    return None;
                                }
                            } else if self.irqs.pending_events(dom) > 0 || !d.finished {
                                // Deliverable events or a live
                                // workload: real work next step.
                                return None;
                            }
                        }
                        false
                    }
                    None => {
                        // The idle loop panics in IRQ context and
                        // switches in any runnable vCPU of an active
                        // domain; otherwise it sleeps quantum-wise
                        // toward its own APIC deadline.
                        if self.percpu[i].local_irq_count != 0 {
                            return None;
                        }
                        if let Some(v) = self.sched.cached_pick(cpu) {
                            let dom = self.domain_of(v);
                            if self.domains[dom.index()].is_active() {
                                return None;
                            }
                        }
                        true
                    }
                };
                // Any deliverable device interrupt builds a handler
                // program on the next step, and so does pending
                // credit-scheduler work.
                if [VEC_BLK, VEC_NET].iter().any(|&vec| {
                    self.irqs.ioapic_route(vec) == Some(cpu) && self.irqs.is_pending(cpu, vec)
                }) {
                    return None;
                }
                if self.sched.credit_mode()
                    && (self.sched.peek_resched(cpu) || self.sched.peek_pending_migration(cpu))
                {
                    return None;
                }
                let dl = self.percpu[i]
                    .apic
                    .deadline()
                    .map_or(u64::MAX, |d| d.as_nanos());
                Some((dl, r))
            }
        }
    }

    /// Steps one CPU once.
    pub fn step(&mut self, cpu: CpuId) -> StepOutcome {
        if self.detection.is_some() {
            return StepOutcome::Frozen;
        }
        self.steps += 1;
        let i = cpu.index();
        let now = self.cpu_now[i];

        // The watchdog NMI is driven by a hardware performance counter and
        // fires regardless of CPU mode (even wedged with interrupts off).
        if self.cpu_mode[i] != CpuMode::Parked && now >= self.percpu[i].watchdog.next_check {
            let stalled = self.percpu[i].watchdog.nmi_check(
                now,
                self.tuning.watchdog_nmi_period,
                self.tuning.watchdog_stall_threshold,
            );
            if stalled {
                self.raise_hang(cpu, "watchdog: heartbeat stalled for 3 checks");
                return StepOutcome::Frozen;
            }
        }

        // External network traffic materializes on the routed CPU's clock.
        self.generate_net_traffic(cpu);

        self.dispatch_step(cpu)
    }

    /// A step with the entry checks elided. Only `run_batched` calls this,
    /// and only when the stepped CPU's clock is below [`Self::check_horizon`]
    /// — i.e. when the watchdog comparison and the net-traffic generator
    /// are provably no-ops — and when no detection is pending.
    fn step_unchecked(&mut self, cpu: CpuId) -> StepOutcome {
        self.steps += 1;
        self.dispatch_step(cpu)
    }

    /// Mode dispatch shared by the checked and unchecked step paths.
    fn dispatch_step(&mut self, cpu: CpuId) -> StepOutcome {
        match self.cpu_mode[cpu.index()] {
            CpuMode::Parked | CpuMode::Wedged => {
                self.advance(cpu, self.tuning.idle_quantum);
                StepOutcome::Idle
            }
            CpuMode::Hv => self.step_hv(cpu),
            CpuMode::Run => self.step_run(cpu),
        }
    }

    fn generate_net_traffic(&mut self, cpu: CpuId) {
        let routed = self.irqs.ioapic_route(VEC_NET);
        if routed != Some(cpu) {
            return;
        }
        let now = self.cpu_now[cpu.index()];
        let mut raise = false;
        if let Some(net) = self.net.as_mut() {
            while net.next <= now {
                net.seq += 1;
                net.next += net.period;
                raise = true;
            }
        }
        if raise {
            self.irqs.raise(cpu, VEC_NET);
        }
    }

    fn advance(&mut self, cpu: CpuId, d: SimDuration) {
        self.cpu_now[cpu.index()] = self.cpu_now[cpu.index()] + d;
    }

    fn advance_to(&mut self, cpu: CpuId, t: SimTime) {
        let i = cpu.index();
        if t > self.cpu_now[i] {
            self.cpu_now[i] = t;
        } else {
            self.advance(cpu, self.tuning.idle_quantum);
        }
    }

    /// Guest-or-idle step.
    fn step_run(&mut self, cpu: CpuId) -> StepOutcome {
        let i = cpu.index();
        let now = self.cpu_now[i];

        // APIC timer interrupt? Polled on every Run-mode dispatch; fused
        // superop spans are bounded below the CPU's one-shot deadline, so
        // the steps they elide would all have polled false.
        if self.percpu[i].apic.take_fire(now) {
            let prog = self.build_timer_interrupt(cpu);
            self.push_frame(cpu, prog);
            return StepOutcome::HvOp;
        }

        // Virtio completion interrupt? Checked before the legacy NetBench
        // arm: virtio setups share VEC_NET, and the legacy arm would
        // otherwise consume the pending bit with `self.net == None`.
        if !self.virtio.is_empty() {
            for vec in [VEC_BLK, VEC_NET] {
                if self.irqs.ioapic_route(vec) == Some(cpu)
                    && self.irqs.is_pending(cpu, vec)
                    && self.virtio_owns_vector(vec)
                    && self.irqs.dispatch(cpu, vec)
                {
                    let prog = self.build_virtio_interrupt(cpu, vec);
                    self.push_frame(cpu, prog);
                    return StepOutcome::HvOp;
                }
            }
        }

        // Device interrupt (network)?
        if self.irqs.ioapic_route(VEC_NET) == Some(cpu)
            && self.irqs.is_pending(cpu, VEC_NET)
            && self.irqs.dispatch(cpu, VEC_NET)
        {
            let prog = self.build_net_interrupt(cpu);
            self.push_frame(cpu, prog);
            return StepOutcome::HvOp;
        }

        // Credit-mode scheduler work flagged by the tick: a load-balancing
        // migration (executed by the source CPU) or a preemption switch.
        // Both run as abandonable Scheduler programs, outside IRQ context.
        if self.sched.credit_mode() {
            if let Some((v, from, to)) = self.sched.take_pending_migration(cpu) {
                if let Some(prog) = self.build_migrate(cpu, v, from, to) {
                    self.push_frame(cpu, prog);
                    return StepOutcome::HvOp;
                }
            }
            if self.sched.take_resched(cpu) {
                if let Some(prog) = self.build_credit_switch(cpu) {
                    self.push_frame(cpu, prog);
                    return StepOutcome::HvOp;
                }
            }
        }

        match self.sched.current(cpu) {
            Some(vcpu) => self.step_guest(cpu, vcpu),
            None => self.step_idle(cpu),
        }
    }

    fn step_idle(&mut self, cpu: CpuId) -> StepOutcome {
        // Xen's idle loop runs do_softirq(), which asserts !in_irq().
        if self.percpu[cpu.index()].local_irq_count != 0 {
            self.raise_panic(cpu, "ASSERT(!in_irq()) failed in idle loop");
            return StepOutcome::Frozen;
        }
        // A runnable vCPU gets switched in by the scheduler (cache-served
        // pick; always equal to the fresh `peek_next` scan).
        if let Some(v) = self.sched.cached_pick(cpu) {
            let dom = self.domain_of(v);
            if self.domains[dom.index()].is_active() {
                let prog = self.build_wakeup_switch(cpu, v);
                self.push_frame(cpu, prog);
                return StepOutcome::HvOp;
            }
        }
        // Otherwise sleep until the APIC deadline (or a quantum).
        let next = self.percpu[cpu.index()]
            .apic
            .deadline()
            .unwrap_or(SimTime::FAR_FUTURE)
            .min(self.cpu_now[cpu.index()] + self.tuning.idle_quantum);
        self.advance_to(cpu, next);
        StepOutcome::Idle
    }

    fn step_guest(&mut self, cpu: CpuId, vcpu: VcpuId) -> StepOutcome {
        let dom_id = self.domain_of(vcpu);
        let i = cpu.index();
        let now = self.cpu_now[i];

        if !self.domains[dom_id.index()].is_active() {
            self.advance(cpu, self.tuning.idle_quantum);
            return StepOutcome::Idle;
        }

        // Returning to guest with interrupt nesting is an assertion failure
        // (the exit path checks).
        if self.percpu[i].local_irq_count != 0 {
            self.raise_panic(cpu, "ASSERT(!in_irq()) failed on return to guest");
            return StepOutcome::Frozen;
        }

        // An uncommitted request: either retry it (recovery asked) or the
        // vCPU is stuck waiting on a reply that will never come.
        if self.domains[dom_id.index()].pending.is_some() {
            let will_retry = self.domains[dom_id.index()]
                .pending
                .as_ref()
                .map(|p| p.will_retry)
                .unwrap_or(false);
            if will_retry {
                if let Some(p) = self.domains[dom_id.index()].pending.as_mut() {
                    p.will_retry = false;
                }
                let prog = self.build_pending_program(cpu, vcpu);
                self.push_frame(cpu, prog);
                return StepOutcome::HvOp;
            }
            self.advance(cpu, self.tuning.idle_quantum);
            return StepOutcome::Idle;
        }

        // Deliver queued paravirtual events to the workload.
        while let Some(ev) = self.irqs.take_event(dom_id) {
            self.domains[dom_id.index()].notify(now, GuestNotice::Event(ev));
        }

        if self.domains[dom_id.index()].finished {
            self.advance(cpu, self.tuning.idle_quantum);
            return StepOutcome::Idle;
        }

        // Ask the workload what the guest does next. `domains` and `rng`
        // are disjoint fields, so the program can be polled in place — no
        // take/put round-trip moving the program struct twice per step.
        let rng = &mut self.rng;
        let op = match self.domains[dom_id.index()].program.as_mut() {
            Some(p) => p.next_op(now, rng),
            None => GuestOp::Done,
        };

        match op {
            GuestOp::Compute(d) => {
                self.accounting
                    .charge_guest(cpu, Cycles::from_duration(d, self.config.cpu_freq_mhz));
                self.advance(cpu, d);
                StepOutcome::Guest
            }
            GuestOp::Hypercall(req) => {
                self.start_request(cpu, vcpu, PendingKind::Hypercall(req));
                StepOutcome::HvOp
            }
            GuestOp::Syscall => {
                if self.domains[dom_id.index()].kind == crate::domain::DomainKind::AppHvm {
                    // HVM: syscalls are handled entirely inside the guest
                    // (no hypervisor forwarding on the x86-64 PV path).
                    let d = SimDuration::from_micros(3);
                    self.accounting
                        .charge_guest(cpu, Cycles::from_duration(d, self.config.cpu_freq_mhz));
                    self.advance(cpu, d);
                    let now = self.cpu_now[i];
                    self.domains[dom_id.index()].notify(now, GuestNotice::SyscallDone);
                    StepOutcome::Guest
                } else {
                    self.start_request(cpu, vcpu, PendingKind::Syscall);
                    StepOutcome::HvOp
                }
            }
            GuestOp::Block => {
                self.start_request(cpu, vcpu, PendingKind::Hypercall(HcRequest::SchedBlock));
                StepOutcome::HvOp
            }
            GuestOp::VirtioKick { queue, payload } => self.virtio_kick(cpu, vcpu, queue, payload),
            GuestOp::Done => {
                self.domains[dom_id.index()].finished = true;
                self.advance(cpu, self.tuning.idle_quantum);
                StepOutcome::Idle
            }
        }
    }

    fn start_request(&mut self, cpu: CpuId, vcpu: VcpuId, kind: PendingKind) {
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

    fn push_frame(&mut self, cpu: CpuId, program: Program) {
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
                    self.give_binding_buf(b);
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
        let Hypervisor {
            domains,
            rng,
            page_scratch,
            idx_scratch,
            ..
        } = self;
        let d = &domains[dom.index()];
        match req {
            HcRequest::PinPages(n) => {
                page_scratch.clear();
                page_scratch.extend(
                    d.owned_pages
                        .iter()
                        .copied()
                        .filter(|p| !d.pinned_pages.contains(p)),
                );
                pick_n_into(rng, page_scratch, *n, idx_scratch, &mut out);
            }
            HcRequest::UnpinPages(n) => {
                pick_n_into(rng, &d.pinned_pages, *n, idx_scratch, &mut out)
            }
            HcRequest::MemoryDecrease(n) => {
                page_scratch.clear();
                page_scratch.extend(
                    d.owned_pages
                        .iter()
                        .copied()
                        .filter(|p| !d.pinned_pages.contains(p)),
                );
                pick_n_into(rng, page_scratch, *n, idx_scratch, &mut out);
            }
            HcRequest::GrantMap { from } => {
                let granter = &domains[from.index()];
                pick_n_into(rng, &granter.owned_pages, 1, idx_scratch, &mut out);
            }
            HcRequest::BlockIo { .. } => {
                // A blkfront request carries up to 11 data segments, each
                // of which is granted to the driver domain.
                page_scratch.clear();
                page_scratch.extend(
                    d.owned_pages
                        .iter()
                        .copied()
                        .filter(|p| !d.pinned_pages.contains(p)),
                );
                pick_n_into(rng, page_scratch, 11, idx_scratch, &mut out);
            }
            _ => {}
        }
        out
    }

    /// Buffers retained in each binding free list (matches [`POOL_CAP`]'s
    /// rationale: bound idle memory, never a steady-state allocation —
    /// at most one request per vCPU is in flight, and vCPU counts beyond
    /// the cap only cost a fallback allocation, not correctness).
    const BINDING_POOL_CAP: usize = 32;

    fn take_binding_buf(&mut self) -> Vec<PageNum> {
        self.binding_pool.pop().unwrap_or_default()
    }

    fn take_binding_set(&mut self) -> Vec<Vec<PageNum>> {
        self.binding_set_pool.pop().unwrap_or_default()
    }

    fn give_binding_buf(&mut self, mut b: Vec<PageNum>) {
        if b.capacity() > 0 && self.binding_pool.len() < Self::BINDING_POOL_CAP {
            b.clear();
            self.binding_pool.push(b);
        }
    }

    /// Recycles a retired request's binding storage (outer list and every
    /// page list) back into the free lists.
    fn recycle_bindings(&mut self, mut bindings: Vec<Vec<PageNum>>) {
        while let Some(b) = bindings.pop() {
            self.give_binding_buf(b);
        }
        if bindings.capacity() > 0 && self.binding_set_pool.len() < Self::BINDING_POOL_CAP {
            self.binding_set_pool.push(bindings);
        }
    }

    // ------------------------------------------------------------------
    // Program builders
    // ------------------------------------------------------------------

    fn build_timer_interrupt(&mut self, cpu: CpuId) -> Program {
        use MicroOp::*;
        let i = cpu.index();
        let now = self.cpu_now[i];
        let (mut ops, runs) = self.take_buf(cpu);
        ops.push(EnterIrq);
        ops.push(Acquire(self.timer_locks[i]));

        // Collect due events (without popping: pops happen as micro-ops).
        // We pop due events into a reusable scratch list and re-insert them
        // so the micro-ops can pop them again during execution.
        let mut due = std::mem::take(&mut self.timer_scratch);
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
        self.timer_scratch = due;
        Program::new(EntryCause::TimerInterrupt, ops, runs)
    }

    fn build_net_interrupt(&mut self, cpu: CpuId) -> Program {
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

    /// Whether any virtio device signals completions on `vec` (so a hybrid
    /// setup with a legacy NetBench sender keeps VEC_NET to itself).
    fn virtio_owns_vector(&self, vec: IrqVector) -> bool {
        self.virtio.devices.iter().any(|d| d.vector == vec)
    }

    /// A guest wrote the queue-notify MMIO register of its virtio device:
    /// publish `payload` on `queue` (the guest-side ring write happens in
    /// guest memory before the write traps) and enter the hypervisor's
    /// virtio MMIO handler to run the device model.
    fn virtio_kick(&mut self, cpu: CpuId, vcpu: VcpuId, queue: u8, payload: u64) -> StepOutcome {
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
    fn build_virtio_interrupt(&mut self, cpu: CpuId, vec: IrqVector) -> Program {
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

    fn build_wakeup_switch(&mut self, cpu: CpuId, v: VcpuId) -> Program {
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
    fn build_credit_switch(&mut self, cpu: CpuId) -> Option<Program> {
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
    fn build_migrate(&mut self, cpu: CpuId, v: VcpuId, from: CpuId, to: CpuId) -> Option<Program> {
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
    fn build_pending_program(&mut self, cpu: CpuId, vcpu: VcpuId) -> Program {
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

    // ------------------------------------------------------------------
    // Micro-op execution
    // ------------------------------------------------------------------

    fn step_hv(&mut self, cpu: CpuId) -> StepOutcome {
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
        let cause = frame.program.cause;
        let logged = frame.program.logged;

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
    fn retire_frame(&mut self, i: usize) {
        if let Some(f) = self.stacks[i].pop() {
            if let Some(buf) = f.program.into_buffer() {
                self.pools[i].give(buf);
            }
        }
        if self.stacks[i].is_empty() {
            self.cpu_mode[i] = CpuMode::Run;
        }
    }

    /// An empty micro-op buffer and its paired superop-table buffer for a
    /// handler builder on `cpu`, from the CPU's program pool.
    fn take_buf(&mut self, cpu: CpuId) -> (Vec<MicroOp>, Vec<u16>) {
        self.pools[cpu.index()].take()
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
}

/// Picks up to `n` distinct elements from `pool` (fewer if the pool is
/// small) into `out`, shuffling through the reusable `idx` scratch so the
/// steady-state binding path performs no allocation. The RNG draws are
/// those of the original allocating version exactly.
fn pick_n_into(
    rng: &mut Pcg64,
    pool: &[PageNum],
    n: usize,
    idx: &mut Vec<usize>,
    out: &mut Vec<PageNum>,
) {
    out.clear();
    if pool.is_empty() || n == 0 {
        return;
    }
    if pool.len() <= n {
        out.extend_from_slice(pool);
        return;
    }
    idx.clear();
    idx.extend(0..pool.len());
    rng.shuffle(idx);
    idx.truncate(n);
    out.extend(idx.iter().map(|&i| pool[i]));
}

/// Allocating convenience wrapper over [`pick_n_into`] (tests).
#[cfg(test)]
fn pick_n(rng: &mut Pcg64, pool: &[PageNum], n: usize) -> Vec<PageNum> {
    let mut out = Vec::new();
    pick_n_into(rng, pool, n, &mut Vec::new(), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{DomainKind, GuestProgram, IdleLoop};

    fn small_hv() -> Hypervisor {
        Hypervisor::new(MachineConfig::small(), 7)
    }

    fn app_spec(cpu: usize) -> DomainSpec {
        DomainSpec {
            kind: DomainKind::App,
            pages: 64,
            pinned_cpu: CpuId::from_index(cpu),
            program: Box::new(IdleLoop),
        }
    }

    #[test]
    fn boots_and_ticks_without_domains() {
        let mut hv = small_hv();
        hv.run_for(SimDuration::from_millis(250));
        assert!(hv.detection().is_none());
        // Heartbeats ran on every CPU.
        for cpu in 0..hv.num_cpus() {
            assert!(hv.percpu[cpu].watchdog.heartbeat >= 2, "cpu{cpu} heartbeat");
        }
        // Time sync ran.
        assert!(hv.last_time_sync > SimTime::ZERO);
    }

    #[test]
    fn apic_always_reprogrammed_by_handler() {
        let mut hv = small_hv();
        hv.run_for(SimDuration::from_millis(100));
        for cpu in 0..hv.num_cpus() {
            assert!(
                hv.percpu[cpu].apic.is_programmed(),
                "cpu{cpu} APIC must stay armed in steady state"
            );
        }
    }

    #[test]
    fn domains_run_and_stay_consistent() {
        let mut hv = small_hv();
        hv.add_boot_domain(DomainSpec {
            kind: DomainKind::Priv,
            pages: 32,
            pinned_cpu: CpuId(0),
            program: Box::new(IdleLoop),
        });
        hv.add_boot_domain(app_spec(1));
        hv.run_for(SimDuration::from_millis(200));
        assert!(hv.detection().is_none());
        assert!(hv.sched.check_all().is_ok());
        assert_eq!(hv.pft.count_inconsistent(), 0);
        assert!(
            hv.locks.held_locks().is_empty(),
            "steady state holds no locks"
        );
        for cpu in 0..hv.num_cpus() {
            assert_eq!(hv.percpu[cpu].local_irq_count, 0);
        }
    }

    #[test]
    fn guest_cycles_dominate_hypervisor_cycles() {
        let mut hv = small_hv();
        hv.add_boot_domain(app_spec(1));
        hv.run_for(SimDuration::from_millis(300));
        let share = hv.accounting.hypervisor_share();
        assert!(share > 0.0 && share < 0.30, "hv share = {share}");
    }

    #[test]
    fn discard_stacks_reports_in_flight_work() {
        let mut hv = small_hv();
        hv.add_boot_domain(app_spec(1));
        // Step until some CPU is mid-program.
        let mut guard = 0;
        while hv.stacks.iter().all(|s| s.is_empty()) && guard < 200_000 {
            hv.step_any();
            guard += 1;
        }
        assert!(guard < 200_000, "never entered the hypervisor");
        let report = hv.discard_all_stacks();
        assert!(report.frames_discarded >= 1);
        for i in 0..hv.num_cpus() {
            assert_eq!(hv.cpu_mode(CpuId::from_index(i)), CpuMode::Parked);
            assert!(hv.stacks[i].is_empty());
        }
    }

    #[test]
    fn resume_after_synchronizes_clocks_and_clears_detection() {
        let mut hv = small_hv();
        hv.raise_panic(CpuId(2), "test");
        assert!(hv.detection().is_some());
        hv.discard_all_stacks();
        hv.resume_after(SimDuration::from_millis(22));
        assert!(hv.detection().is_none());
        let t0 = hv.cpu_now(CpuId(0));
        for cpu in 1..hv.num_cpus() {
            assert_eq!(hv.cpu_now(CpuId::from_index(cpu)), t0);
        }
        for i in 0..hv.num_cpus() {
            assert_eq!(hv.cpu_mode(CpuId::from_index(i)), CpuMode::Run);
        }
    }

    #[test]
    fn first_detection_wins() {
        let mut hv = small_hv();
        hv.raise_panic(CpuId(0), "first");
        hv.raise_hang(CpuId(1), "second");
        assert_eq!(hv.detection().unwrap().reason, "first");
        assert_eq!(hv.detection().unwrap().kind, DetectionKind::Panic);
    }

    #[test]
    fn frozen_machine_does_not_step() {
        let mut hv = small_hv();
        hv.raise_panic(CpuId(0), "frozen");
        let before = hv.now();
        let (_, out) = hv.step_any();
        assert_eq!(out, StepOutcome::Frozen);
        assert_eq!(hv.now(), before);
    }

    #[test]
    fn unprogrammed_apic_leads_to_watchdog_hang() {
        let mut hv = small_hv();
        // Disarm CPU 3's APIC: its heartbeat events can never run.
        hv.percpu[3].apic.disarm();
        hv.run_for(SimDuration::from_secs(2));
        let det = hv.detection().expect("watchdog should fire");
        assert_eq!(det.kind, DetectionKind::Hang);
        assert_eq!(det.cpu, CpuId(3));
    }

    #[test]
    fn held_timer_lock_leads_to_hang() {
        let mut hv = small_hv();
        // Leak CPU 2's timer-heap lock, as an abandoned thread would.
        let l = hv.timer_locks[2];
        hv.locks.acquire(l, CpuId(5));
        hv.run_for(SimDuration::from_secs(2));
        let det = hv.detection().expect("spin on leaked lock must hang");
        assert_eq!(det.kind, DetectionKind::Hang);
    }

    #[test]
    fn leaked_irq_count_panics_on_next_tick() {
        let mut hv = small_hv();
        hv.percpu[4].local_irq_count = 1; // abandonment residue
        hv.run_for(SimDuration::from_secs(1));
        let det = hv.detection().expect("exit-path assert must fire");
        assert_eq!(det.kind, DetectionKind::Panic);
        assert!(det.reason.contains("in_irq"));
    }

    #[test]
    fn lost_heartbeat_event_false_hang() {
        let mut hv = small_hv();
        // Model a popped-but-not-rearmed heartbeat on CPU 1.
        assert!(hv
            .timers
            .remove_kind(TimerEventKind::WatchdogHeartbeat(CpuId(1))));
        hv.run_for(SimDuration::from_secs(2));
        let det = hv.detection().expect("watchdog false positive");
        assert_eq!(det.kind, DetectionKind::Hang);
        assert_eq!(det.cpu, CpuId(1));
    }

    #[test]
    fn torn_context_switch_panics_via_assert() {
        let mut hv = small_hv();
        hv.add_boot_domain(app_spec(1));
        // Tear the metadata, as a fault mid-switch would.
        hv.sched.cs_set_running_on(VcpuId(0), None);
        hv.run_for(SimDuration::from_millis(100));
        let det = hv.detection().expect("sched assert must fire");
        assert!(det.reason.contains("schedule"), "{}", det.reason);
    }

    #[test]
    fn netbench_traffic_flows_and_replies_recorded() {
        use crate::domain::{GuestNotice, GuestOp, GuestProgram, WorkloadVerdict};
        /// Minimal echo guest: replies to each NetRx.
        #[derive(Debug, Clone)]
        struct Echo {
            backlog: Vec<u64>,
        }
        impl GuestProgram for Echo {
            fn name(&self) -> &str {
                "Echo"
            }
            fn next_op(&mut self, _now: SimTime, _rng: &mut Pcg64) -> GuestOp {
                match self.backlog.pop() {
                    Some(seq) => GuestOp::Hypercall(HcRequest::NetReply(seq)),
                    None => GuestOp::Block,
                }
            }
            fn notice(&mut self, _now: SimTime, n: GuestNotice) {
                if let GuestNotice::Event(GuestEventKind::NetRx { seq }) = n {
                    self.backlog.push(seq);
                }
            }
            fn verdict(&self, _now: SimTime, _deadline: SimTime) -> WorkloadVerdict {
                WorkloadVerdict::Running
            }
            fn clone_box(&self) -> Box<dyn GuestProgram> {
                Box::new(self.clone())
            }
        }
        let mut hv = small_hv();
        let dom = hv.add_boot_domain(DomainSpec {
            kind: DomainKind::App,
            pages: 16,
            pinned_cpu: CpuId(1),
            program: Box::new(Echo { backlog: vec![] }),
        });
        hv.attach_net_traffic(dom, SimDuration::from_millis(1));
        hv.run_for(SimDuration::from_millis(300));
        assert!(hv.detection().is_none());
        assert!(
            hv.net_replies.len() > 200,
            "expected ~300 replies, got {}",
            hv.net_replies.len()
        );
        assert_eq!(hv.net.as_ref().unwrap().drops, 0);
    }

    /// Minimal virtio guest: one queue-notify kick, then block until the
    /// matching completion event arrives.
    #[derive(Debug, Clone)]
    struct KickOnce {
        queue: u8,
        payload: u64,
        kicked: bool,
        completed: bool,
    }

    impl KickOnce {
        fn new(queue: u8, payload: u64) -> Self {
            KickOnce {
                queue,
                payload,
                kicked: false,
                completed: false,
            }
        }
    }

    impl GuestProgram for KickOnce {
        fn name(&self) -> &str {
            "KickOnce"
        }
        fn next_op(&mut self, _now: SimTime, _rng: &mut Pcg64) -> GuestOp {
            if !self.kicked {
                self.kicked = true;
                GuestOp::VirtioKick {
                    queue: self.queue,
                    payload: self.payload,
                }
            } else if self.completed {
                GuestOp::Done
            } else {
                GuestOp::Block
            }
        }
        fn notice(&mut self, _now: SimTime, notice: GuestNotice) {
            if let GuestNotice::Event(
                GuestEventKind::VirtioBlkDone { .. } | GuestEventKind::VirtioNetTxDone { .. },
            ) = notice
            {
                self.completed = true;
            }
        }
        fn verdict(&self, _now: SimTime, _deadline: SimTime) -> crate::domain::WorkloadVerdict {
            if self.completed {
                crate::domain::WorkloadVerdict::CompletedOk
            } else {
                crate::domain::WorkloadVerdict::Failed(crate::domain::FailReason::Incomplete)
            }
        }
        fn clone_box(&self) -> Box<dyn GuestProgram> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn virtio_blk_kick_completes_and_delivers() {
        let mut hv = small_hv();
        let dom = hv.add_boot_domain(DomainSpec {
            kind: DomainKind::App,
            pages: 32,
            pinned_cpu: CpuId(1),
            program: Box::new(KickOnce::new(nlh_virtio::Q_RX as u8, 42)),
        });
        hv.add_virtio_blk(dom);
        hv.run_for(SimDuration::from_millis(50));
        assert!(hv.detection().is_none());
        assert!(hv.domains[dom.index()].finished, "completion delivered");
        let q = &hv.virtio.devices[0].queues[nlh_virtio::Q_RX];
        assert_eq!(q.avail_idx(), 1);
        assert_eq!(q.used_idx(), 1);
        assert_eq!(q.in_flight(), 0);
        assert_eq!(q.undelivered(), 0);
        assert!(hv.virtio.check_invariants().is_ok());
    }

    #[test]
    fn vswitch_forwards_and_interrupts_peer() {
        let mut hv = small_hv();
        let d1 = hv.add_boot_domain(DomainSpec {
            kind: DomainKind::App,
            pages: 32,
            pinned_cpu: CpuId(1),
            program: Box::new(KickOnce::new(nlh_virtio::Q_TX as u8, 7)),
        });
        let d2 = hv.add_boot_domain(app_spec(2));
        let p1 = hv.add_virtio_net(d1);
        let p2 = hv.add_virtio_net(d2);
        hv.connect_vswitch(p1, p2);
        hv.run_for(SimDuration::from_millis(50));
        assert!(hv.detection().is_none());
        assert_eq!(hv.virtio.forwarded, 1, "frame crossed the vswitch");
        assert_eq!(hv.virtio.dropped_no_buffer, 0);
        assert!(hv.domains[d1.index()].finished, "tx completion delivered");
        let rx = &hv.virtio.devices[p2].queues[nlh_virtio::Q_RX];
        assert_eq!(rx.undelivered(), 0, "peer rx frame delivered");
        assert_eq!(
            rx.avail_pending(),
            nlh_virtio::QUEUE_SIZE as u64,
            "consumed rx buffer reposted"
        );
        assert!(hv.virtio.check_invariants().is_ok());
    }

    #[test]
    fn abandoned_notify_leaves_residue_repair_completes_it() {
        let mut hv = small_hv();
        let dom = hv.add_boot_domain(DomainSpec {
            kind: DomainKind::App,
            pages: 32,
            pinned_cpu: CpuId(1),
            program: Box::new(KickOnce::new(nlh_virtio::Q_RX as u8, 9)),
        });
        hv.add_virtio_blk(dom);
        // Step until the notify handler has popped the descriptor but not
        // yet logged its completion (pc 3/4 = the in-flight window).
        let mut guard = 0;
        loop {
            hv.step_any();
            guard += 1;
            assert!(guard < 500_000, "never reached the virtio MMIO handler");
            if let Some((EntryCause::VirtioMmio(_), pc)) = hv.cpu_program_context(CpuId(1)) {
                if pc == 3 {
                    break;
                }
            }
        }
        // Microreset strikes: abandon everything mid-transaction.
        hv.discard_all_stacks();
        assert_eq!(hv.virtio.devices[0].queues[nlh_virtio::Q_RX].in_flight(), 1);
        let rep = hv.virtio_repair();
        assert_eq!(rep.reprocessed, 1, "in-flight request re-executed");
        assert_eq!(hv.virtio.devices[0].queues[nlh_virtio::Q_RX].in_flight(), 0);
        assert!(
            hv.virtio.devices[0].undelivered() > 0,
            "completion published, awaiting delivery"
        );
        assert!(
            hv.irqs.is_pending(CpuId(1), VEC_BLK),
            "repair re-raised the completion interrupt"
        );
        assert_eq!(hv.virtio_repair().total(), 0, "repair is idempotent");
        hv.resume_after(SimDuration::from_millis(22));
        hv.run_for(SimDuration::from_millis(50));
        assert!(hv.domains[dom.index()].finished, "guest saw the completion");
        assert!(hv.virtio.check_invariants().is_ok());
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
}
